//! Differential testing of incremental view maintenance: on random
//! stratified programs (joins, recursion, negation) driven by random
//! insert/delete/update traces, the maintained materialization must be
//! fact-for-fact identical to a from-scratch semi-naive recompute after
//! every single step, whether the steps arrive as explicit deltas or as
//! whole new bases to sync to — plus directed regressions for the classic DRed
//! trap (deleting one support of a twice-derived fact) and for
//! re-derivation through a recursive stratum.

use deduction::materialize::all_facts;
use deduction::{
    EvalStrategy, Fact, FactDb, FactDelta, Literal, MaterializedProgram, Program, Rule, Term,
};
use oo_model::Value;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// A compact description of a random-but-safe stratified program over
/// predicates `p0..p5` (derived, stratified by index) and extensional
/// predicates `e0..e3` — the same generator shape as
/// `tests/differential.rs`, paired here with a mutation trace.
#[derive(Debug, Clone)]
struct ProgramSpec {
    rules: Vec<RuleSpec>,
    facts: Vec<(u8, i64, i64)>,
}

#[derive(Debug, Clone)]
struct RuleSpec {
    head: u8,
    positives: Vec<(bool, u8, ArgShape)>,
    negatives: Vec<u8>,
}

#[derive(Debug, Clone, Copy)]
enum ArgShape {
    Xy,
    Yz,
    Xz,
    Yx,
}

fn args_of(shape: ArgShape) -> [Term; 2] {
    let (a, b) = match shape {
        ArgShape::Xy => ("x", "y"),
        ArgShape::Yz => ("y", "z"),
        ArgShape::Xz => ("x", "z"),
        ArgShape::Yx => ("y", "x"),
    };
    [Term::var(a), Term::var(b)]
}

fn arg_shape() -> impl Strategy<Value = ArgShape> {
    prop_oneof![
        Just(ArgShape::Xy),
        Just(ArgShape::Yz),
        Just(ArgShape::Xz),
        Just(ArgShape::Yx),
    ]
}

fn rule_spec() -> impl Strategy<Value = RuleSpec> {
    (
        0u8..6,
        proptest::collection::vec((any::<bool>(), 0u8..6, arg_shape()), 1..4),
        proptest::collection::vec(0u8..6, 0..2),
    )
        .prop_map(|(head, positives, negatives)| RuleSpec {
            head,
            positives,
            negatives,
        })
}

/// One step of the mutation trace, in terms of extensional facts.
#[derive(Debug, Clone, Copy)]
enum Op {
    Insert(u8, i64, i64),
    /// Delete the k-th currently live extensional fact (mod size).
    Delete(u16),
    /// Update = delete the k-th live fact and insert a replacement, in
    /// ONE delta batch.
    Update(u16, u8, i64, i64),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..4, 0i64..8, 0i64..8).prop_map(|(e, a, b)| Op::Insert(e, a, b)),
        (0u16..64).prop_map(Op::Delete),
        (0u16..64, 0u8..4, 0i64..8, 0i64..8).prop_map(|(k, e, a, b)| Op::Update(k, e, a, b)),
    ]
}

fn program_spec() -> impl Strategy<Value = ProgramSpec> {
    (
        proptest::collection::vec(rule_spec(), 1..8),
        proptest::collection::vec((0u8..4, 0i64..8, 0i64..8), 1..25),
    )
        .prop_map(|(rules, facts)| ProgramSpec { rules, facts })
}

/// Same safety/stratification bending as `tests/differential.rs`.
fn realize(spec: &ProgramSpec) -> (Program, FactDb) {
    let mut rules = Vec::new();
    for r in &spec.rules {
        let mut body: Vec<Literal> = Vec::new();
        let mut covered = [false; 3];
        let mark = |covered: &mut [bool; 3], shape: ArgShape| match shape {
            ArgShape::Xy | ArgShape::Yx => {
                covered[0] = true;
                covered[1] = true;
            }
            ArgShape::Yz => {
                covered[1] = true;
                covered[2] = true;
            }
            ArgShape::Xz => {
                covered[0] = true;
                covered[2] = true;
            }
        };
        for &(extensional, idx, shape) in &r.positives {
            let name = if extensional {
                format!("e{}", idx % 4)
            } else {
                format!("p{}", idx.min(r.head))
            };
            body.push(Literal::pred(name, args_of(shape)));
            mark(&mut covered, shape);
        }
        if !(covered[0] && covered[1]) {
            body.push(Literal::pred("e0", args_of(ArgShape::Xy)));
        }
        if !covered[2] {
            body.push(Literal::pred("e1", args_of(ArgShape::Yz)));
        }
        for &n in &r.negatives {
            if r.head == 0 {
                continue;
            }
            let target = n % r.head;
            body.push(Literal::neg(Literal::pred(
                format!("p{target}"),
                args_of(ArgShape::Xy),
            )));
        }
        rules.push(Rule::new(
            Literal::pred(format!("p{}", r.head), [Term::var("x"), Term::var("y")]),
            body,
        ));
    }
    let mut db = FactDb::new();
    for &(e, a, b) in &spec.facts {
        db.insert_pred(format!("e{e}"), vec![Value::Int(a), Value::Int(b)]);
    }
    (Program::new(rules), db)
}

fn efact(e: u8, a: i64, b: i64) -> Fact {
    Fact::pred(format!("e{e}"), vec![Value::Int(a), Value::Int(b)])
}

/// The maintained database must equal a from-scratch recompute of the
/// materialization's own base — compared as live fact sets.
fn drift(mat: &MaterializedProgram) -> Option<(BTreeSet<Fact>, BTreeSet<Fact>)> {
    let reference = mat.recompute_reference().unwrap();
    let live = mat.live_facts();
    let want: BTreeSet<Fact> = all_facts(&reference).into_iter().collect();
    if live == want {
        None
    } else {
        Some((live, want))
    }
}

/// What the materialization must hold after a step, from the harness's
/// own mirror of the live extensional facts rather than from anything the
/// materialization kept: `live` saturated from scratch under `program`.
fn reference(program: &Program, live: &[Fact]) -> BTreeSet<Fact> {
    let mut db = db_of(live);
    program
        .evaluate_with(&mut db, EvalStrategy::SemiNaive)
        .unwrap();
    all_facts(&db).into_iter().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// After EVERY step of a random insert/delete/update trace over a
    /// random stratified program, incremental maintenance equals a
    /// from-scratch semi-naive recompute.
    #[test]
    fn maintenance_matches_recompute_on_random_traces(
        spec in program_spec(),
        trace in proptest::collection::vec(op(), 1..20),
    ) {
        let (program, base) = realize(&spec);
        let mat = MaterializedProgram::new(program.clone(), &base);
        // Construction guarantees safety/stratification and no class
        // variables, so the program must be maintainable.
        prop_assert!(mat.is_ok(), "rejected: {:?}", mat.err());
        let mut mat = mat.unwrap();
        // The same trace again, as whole new bases for `sync_base`.
        let mut synced = MaterializedProgram::new(program.clone(), &base).unwrap();

        // Mirror of the live extensional facts, to aim deletions at
        // facts that actually exist.
        let mut live: Vec<Fact> = spec
            .facts
            .iter()
            .map(|&(e, a, b)| efact(e, a, b))
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();

        let mut deletions = 0usize;
        for step in &trace {
            let mut delta = FactDelta::new();
            match *step {
                Op::Insert(e, a, b) => {
                    let f = efact(e, a, b);
                    if !live.contains(&f) {
                        live.push(f.clone());
                    }
                    delta.insert(f);
                }
                Op::Delete(k) => {
                    if live.is_empty() {
                        continue;
                    }
                    let f = live.remove(k as usize % live.len());
                    deletions += 1;
                    delta.remove(f);
                }
                Op::Update(k, e, a, b) => {
                    if live.is_empty() {
                        continue;
                    }
                    let gone = live.remove(k as usize % live.len());
                    deletions += 1;
                    delta.remove(gone);
                    let f = efact(e, a, b);
                    if !live.contains(&f) {
                        live.push(f.clone());
                    }
                    delta.insert(f);
                }
            }
            mat.apply(&delta);
            // The delta-driven base is the harness's mirror, and the
            // database is the mirror's fresh saturation: a fault that
            // left base and database wrong but consistent with each other
            // fails here.
            let mirror: BTreeSet<Fact> = live.iter().cloned().collect();
            prop_assert_eq!(mat.base_facts(), &mirror, "base after {:?}", step);
            prop_assert_eq!(mat.live_facts(), reference(&program, &live), "drift after {:?}", step);
            // `mat` equals the recompute (checked above), so this holds
            // the synced materialization to it too.
            synced.sync_base(&db_of(&live));
            prop_assert_eq!(synced.live_facts(), mat.live_facts(), "sync_base after {:?}", step);
        }
        // The generator must actually exercise the deletion machinery
        // when the trace asked for deletions against a non-empty base.
        if trace.iter().any(|s| matches!(s, Op::Delete(_) | Op::Update(..))) {
            prop_assert!(deletions > 0 || spec.facts.is_empty());
        }
    }
}

/// An unsaturated database of the extensional (predicate) facts `facts`.
fn db_of(facts: &[Fact]) -> FactDb {
    let mut db = FactDb::new();
    for f in facts {
        if let Fact::Pred(name, tuple) = f {
            db.insert_pred(name.clone(), tuple.clone());
        }
    }
    db
}

/// The classic DRed trap, directed: a fact with two independent
/// derivations must survive losing one of them, and the survival must
/// come from re-derivation (counting is unavailable — the relation is
/// recursive).
#[test]
fn dred_trap_in_recursive_stratum() {
    let program = Program::new(vec![
        Rule::new(
            Literal::pred("reach", [Term::var("x"), Term::var("y")]),
            vec![Literal::pred("edge", [Term::var("x"), Term::var("y")])],
        ),
        Rule::new(
            Literal::pred("reach", [Term::var("x"), Term::var("z")]),
            vec![
                Literal::pred("reach", [Term::var("x"), Term::var("y")]),
                Literal::pred("edge", [Term::var("y"), Term::var("z")]),
            ],
        ),
    ]);
    // Diamond: 0→1→3 and 0→2→3, so reach(0,3) is twice-derived.
    let mut base = FactDb::new();
    for (a, b) in [(0i64, 1i64), (1, 3), (0, 2), (2, 3)] {
        base.insert_pred("edge", vec![Value::Int(a), Value::Int(b)]);
    }
    let mut mat = MaterializedProgram::new(program, &base).unwrap();
    assert!(mat
        .db()
        .tuples_of("reach")
        .any(|t| t == &vec![Value::Int(0), Value::Int(3)]));

    // Cut one arm: reach(0,3) must survive via the other.
    let mut d = FactDelta::new();
    d.remove(Fact::pred("edge", vec![Value::Int(1), Value::Int(3)]));
    let stats = mat.apply(&d);
    assert!(mat
        .db()
        .tuples_of("reach")
        .any(|t| t == &vec![Value::Int(0), Value::Int(3)]));
    assert!(
        stats.rederived > 0,
        "over-delete must have been repaired by re-derivation: {stats:?}"
    );
    assert!(drift(&mat).is_none());

    // Cut the second arm: now it really is gone.
    let mut d = FactDelta::new();
    d.remove(Fact::pred("edge", vec![Value::Int(2), Value::Int(3)]));
    mat.apply(&d);
    assert!(!mat
        .db()
        .tuples_of("reach")
        .any(|t| t == &vec![Value::Int(0), Value::Int(3)]));
    assert!(drift(&mat).is_none());
}

/// Deleting an edge in the middle of a long chain must retract the whole
/// downstream closure — and re-inserting it must restore every fact.
#[test]
fn chain_cut_and_splice_round_trips() {
    let program = Program::new(vec![
        Rule::new(
            Literal::pred("reach", [Term::var("x"), Term::var("y")]),
            vec![Literal::pred("edge", [Term::var("x"), Term::var("y")])],
        ),
        Rule::new(
            Literal::pred("reach", [Term::var("x"), Term::var("z")]),
            vec![
                Literal::pred("reach", [Term::var("x"), Term::var("y")]),
                Literal::pred("edge", [Term::var("y"), Term::var("z")]),
            ],
        ),
    ]);
    const N: i64 = 24;
    let mut base = FactDb::new();
    for i in 0..N {
        base.insert_pred("edge", vec![Value::Int(i), Value::Int(i + 1)]);
    }
    let mut mat = MaterializedProgram::new(program, &base).unwrap();
    let full = mat.live_facts();
    assert_eq!(
        mat.db().tuples_of("reach").count(),
        (N * (N + 1) / 2) as usize
    );

    let cut = Fact::pred("edge", vec![Value::Int(N / 2), Value::Int(N / 2 + 1)]);
    let mut d = FactDelta::new();
    d.remove(cut.clone());
    mat.apply(&d);
    assert!(drift(&mat).is_none());
    let expect = (N / 2 + 1) * (N / 2) / 2 + (N - N / 2 - 1) * (N - N / 2) / 2;
    assert_eq!(mat.db().tuples_of("reach").count(), expect as usize);

    let mut d = FactDelta::new();
    d.insert(cut);
    mat.apply(&d);
    assert_eq!(mat.live_facts(), full, "splice did not restore the closure");
}

/// Negation across strata under mutation: retracting a lower-stratum
/// support flips the complement in the higher stratum, incrementally.
#[test]
fn negation_flips_track_mutations() {
    let program = Program::new(vec![
        Rule::new(
            Literal::pred("reach", [Term::var("x"), Term::var("y")]),
            vec![Literal::pred("edge", [Term::var("x"), Term::var("y")])],
        ),
        Rule::new(
            Literal::pred("reach", [Term::var("x"), Term::var("z")]),
            vec![
                Literal::pred("reach", [Term::var("x"), Term::var("y")]),
                Literal::pred("edge", [Term::var("y"), Term::var("z")]),
            ],
        ),
        Rule::new(
            Literal::pred("unreachable", [Term::var("x"), Term::var("y")]),
            vec![
                Literal::pred("node", [Term::var("x")]),
                Literal::pred("node", [Term::var("y")]),
                Literal::neg(Literal::pred("reach", [Term::var("x"), Term::var("y")])),
            ],
        ),
    ]);
    let mut base = FactDb::new();
    for (a, b) in [(0i64, 1i64), (1, 2)] {
        base.insert_pred("edge", vec![Value::Int(a), Value::Int(b)]);
    }
    for n in [0i64, 1, 2] {
        base.insert_pred("node", vec![Value::Int(n)]);
    }
    let mut mat = MaterializedProgram::new(program, &base).unwrap();
    // reach = {01,12,02}; unreachable = 9 pairs − 3.
    assert_eq!(mat.db().tuples_of("unreachable").count(), 6);

    // Cutting 1→2 removes reach(1,2) and reach(0,2): both pairs become
    // unreachable.
    let mut d = FactDelta::new();
    d.remove(Fact::pred("edge", vec![Value::Int(1), Value::Int(2)]));
    mat.apply(&d);
    assert_eq!(mat.db().tuples_of("unreachable").count(), 8);
    assert!(drift(&mat).is_none());

    // Splicing 0→2 directly restores one of them.
    let mut d = FactDelta::new();
    d.insert(Fact::pred("edge", vec![Value::Int(0), Value::Int(2)]));
    mat.apply(&d);
    assert_eq!(mat.db().tuples_of("unreachable").count(), 7);
    assert!(drift(&mat).is_none());
}
