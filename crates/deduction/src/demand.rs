//! Magic-sets demand transformation: goal-directed bottom-up evaluation.
//!
//! Saturating a rule program derives *every* fact of *every* derived
//! relation, even when the query only asks about a handful of objects.
//! The classic fix is the magic-sets / demand rewrite [Bancilhon et al.
//! 1986; Beeri & Ramakrishnan 1991]: given the goal relation and the
//! query's bound key values, rewrite the program so that
//!
//! * every rule for a *restricted* relation `r` is guarded by a **demand
//!   literal** `__demand__r(k)` on its head key (an O-term head's object
//!   term, an ordinary predicate's first argument), so it only fires for
//!   demanded keys; and
//! * for every body literal `L` over a restricted relation `q` inside a
//!   restricted rule, a **magic rule** propagates demand sideways:
//!   `__demand__q(k_L) ⇐ __demand__r(k_head), prefix` — the prefix being
//!   the rule's other positive literals plus the equality comparisons that
//!   bind `k_L` (the same `=`-chain sideways information passing the
//!   safety checker and join planner use).
//!
//! Restriction is a *fixpoint*: a relation falls out of the restricted set
//! (and keeps its rules unguarded, i.e. evaluates fully) when demand
//! cannot be propagated to it safely — its key is not bound by any valid
//! prefix — or when it is read by a rule whose own head is unrestricted.
//! Negated restricted literals propagate demand exactly like positive ones
//! (their variables are positively bound by rule safety, so every key the
//! negation will test is demanded first, and the stratum order guarantees
//! the restricted relation is complete for those keys before the test).
//!
//! **Demand-stratification**: the rewrite can create new cycles through
//! negation (a magic predicate feeding a relation that the demanding rule
//! negates). After rewriting, the transformed program is re-stratified;
//! if stratification fails, [`demand_transform`] reports an error and the
//! caller falls back to plain relevance-closure saturation — slower but
//! always sound.

use crate::eval::{EvalError, EvalStats, EvalStrategy, FactDb, Program};
use crate::safety::check_rule;
use crate::strata::stratify;
use crate::term::{CmpOp, Literal, Pred, Rule, Term};
use oo_model::Value;
use std::collections::{BTreeMap, BTreeSet};

/// Prefix of generated demand predicates.
pub const DEMAND_PREFIX: &str = "__demand__";

/// A demand-transformed program, ready to evaluate against seed keys.
#[derive(Debug, Clone)]
pub struct DemandProgram {
    /// The rewritten rules: guarded originals, unguarded (unrestricted)
    /// originals, and generated magic rules.
    pub program: Program,
    /// The goal relation the transformation was rooted at.
    pub goal: String,
    /// The goal's demand predicate — seed keys are inserted here.
    pub demand_pred: String,
    /// Every demand predicate the rewrite introduced.
    demand_preds: BTreeSet<String>,
    /// Relations whose rules are demand-guarded.
    restricted: BTreeSet<String>,
}

impl DemandProgram {
    /// Relations whose evaluation is restricted to demanded keys.
    pub fn restricted(&self) -> &BTreeSet<String> {
        &self.restricted
    }

    /// Seed one demanded key for the goal.
    pub fn seed(&self, db: &mut FactDb, key: &Value) -> bool {
        db.insert_pred(self.demand_pred.clone(), vec![key.clone()])
    }

    /// Seed the goal's demand with `seeds` and run the transformed program
    /// to fixpoint. `db` may already hold facts and demand of earlier runs;
    /// the returned stats carry the number of demand facts this run added
    /// (seeded + propagated) in `demanded_facts`, published as
    /// `fedoo_deduction_demanded_facts`.
    pub fn evaluate(
        &self,
        db: &mut FactDb,
        seeds: &[Value],
        strategy: EvalStrategy,
    ) -> Result<EvalStats, EvalError> {
        let _span = obs::span!(
            "deduction.demand",
            "deduction",
            "goal={} seeds={} rules={}",
            self.goal,
            seeds.len(),
            self.program.rules.len()
        );
        let demand_facts = |db: &FactDb| -> u64 {
            self.demand_preds
                .iter()
                .map(|p| db.tuples_of(p).count() as u64)
                .sum()
        };
        let before = demand_facts(db);
        for key in seeds {
            self.seed(db, key);
        }
        let mut stats = self.program.evaluate_with(db, strategy)?;
        let demanded = demand_facts(db) - before;
        stats.demanded_facts = demanded;
        if obs::enabled() && demanded > 0 {
            obs::counter_add("fedoo_deduction_demanded_facts_total", demanded);
        }
        Ok(stats)
    }
}

/// Every relation reachable from `roots` through rule bodies (heads and
/// body relations alike, so the result doubles as a materialisation
/// filter). Interned: relations are numbered once and the walk runs over
/// integer adjacency lists instead of `String`-keyed sets.
pub fn relevance_closure(rules: &[Rule], roots: &[String]) -> BTreeSet<String> {
    let mut ids: BTreeMap<&str, usize> = BTreeMap::new();
    let mut names: Vec<&str> = Vec::new();
    fn intern<'a>(
        ids: &mut BTreeMap<&'a str, usize>,
        names: &mut Vec<&'a str>,
        n: &'a str,
    ) -> usize {
        if let Some(&i) = ids.get(n) {
            return i;
        }
        let i = names.len();
        ids.insert(n, i);
        names.push(n);
        i
    }
    // head relation id → body relation ids, per rule.
    let mut edges: Vec<(usize, Vec<usize>)> = Vec::with_capacity(rules.len());
    for r in rules {
        let Some(head_rel) = r.heads.first().and_then(|h| h.relation()) else {
            continue;
        };
        if r.heads.len() != 1 {
            continue;
        }
        let h = intern(&mut ids, &mut names, head_rel);
        let body: Vec<usize> = r
            .body
            .iter()
            .filter_map(|l| l.relation())
            .map(|n| intern(&mut ids, &mut names, n))
            .collect();
        edges.push((h, body));
    }
    let mut reached = vec![false; names.len()];
    let mut queue: Vec<usize> = Vec::new();
    let mut out: BTreeSet<String> = BTreeSet::new();
    for root in roots {
        out.insert(root.clone());
        if let Some(&i) = ids.get(root.as_str()) {
            if !reached[i] {
                reached[i] = true;
                queue.push(i);
            }
        }
    }
    while let Some(i) = queue.pop() {
        for (h, body) in &edges {
            if *h != i {
                continue;
            }
            for &b in body {
                if !reached[b] {
                    reached[b] = true;
                    out.insert(names[b].to_string());
                    queue.push(b);
                }
            }
        }
    }
    out
}

/// The demand key term of a literal: an O-term's object, an ordinary
/// predicate's first argument; negation looks through to its inner
/// literal. `None` for shapes that cannot carry demand (zero-argument
/// predicates, comparisons). Public so static analysis (`fedoo-analysis`
/// absint) and the planner can reason about demand-key positions without
/// re-deriving the convention.
pub fn key_term(lit: &Literal) -> Option<&Term> {
    match lit {
        Literal::OTerm(o) => Some(&o.object),
        Literal::Pred(p) => p.args.first(),
        Literal::Neg(inner) => key_term(inner),
        Literal::Cmp { .. } => None,
    }
}

/// The demand predicate name for a relation.
fn demand_pred_of(relation: &str) -> String {
    format!("{DEMAND_PREFIX}{relation}")
}

/// Build the magic rule propagating demand from a restricted rule (head
/// relation `head_rel`, head key `head_key`) into its body literal at
/// `target` (relation `q`). Returns `None` when no safe rule exists — the
/// caller must then leave `q` unrestricted.
fn magic_rule(
    rule: &Rule,
    head_rel: &str,
    head_key: &Term,
    target: usize,
    q: &str,
) -> Option<Rule> {
    let k = key_term(&rule.body[target])?.clone();
    let mut body: Vec<Literal> = vec![Literal::Pred(Pred::new(
        demand_pred_of(head_rel),
        [head_key.clone()],
    ))];
    // Prefix: every *other* positive literal (this is the full-body
    // sideways-information-passing choice — any subset would be sound,
    // more literals means tighter demand).
    for (i, lit) in rule.body.iter().enumerate() {
        if i == target {
            continue;
        }
        if matches!(lit, Literal::OTerm(_) | Literal::Pred(_)) {
            body.push(lit.clone());
        }
    }
    // Equality comparisons that can pass bindings: include `=` literals
    // once at least one side is ground under the prefix, growing the bound
    // set to a fixpoint (mirrors the safety checker's `=`-chain closure).
    let mut bound: BTreeSet<String> = body.iter().flat_map(|l| l.vars()).collect();
    let mut eqs: Vec<(usize, &Literal)> = rule
        .body
        .iter()
        .enumerate()
        .filter(|&(i, l)| i != target && matches!(l, Literal::Cmp { op: CmpOp::Eq, .. }))
        .collect();
    loop {
        let before = eqs.len();
        eqs.retain(|(_, l)| {
            let Literal::Cmp { left, right, .. } = l else {
                return true;
            };
            let ground = |t: &Term| match t {
                Term::Val(_) => true,
                Term::Var(v) => bound.contains(v),
            };
            if ground(left) || ground(right) {
                bound.extend(l.vars());
                body.push((*l).clone());
                false
            } else {
                true
            }
        });
        if eqs.len() == before {
            break;
        }
    }
    let magic = Rule::new(Literal::Pred(Pred::new(demand_pred_of(q), [k])), body);
    check_rule(&magic).ok().map(|_| magic)
}

/// The restriction fixpoint shared by [`demand_transform`] and
/// [`demand_feasible`]: start with every derived relation restricted and
/// demote a relation whenever demand cannot be propagated into one of its
/// uses (unkeyed head, no safe magic rule, or a fully-evaluated reader).
fn restriction_fixpoint<'a>(slice: &[&'a Rule], derived: &BTreeSet<&'a str>) -> BTreeSet<&'a str> {
    let mut restricted: BTreeSet<&str> = derived.clone();
    loop {
        let mut demote: BTreeSet<&str> = BTreeSet::new();
        for rule in slice {
            let head = &rule.heads[0];
            let head_rel = head.relation().expect("sliced on head relation");
            let head_key = key_term(head);
            // A restricted relation needs a guardable head key.
            if restricted.contains(head_rel) && head_key.is_none() {
                demote.insert(head_rel);
                continue;
            }
            for (i, lit) in rule.body.iter().enumerate() {
                let Some(q) = lit.relation() else { continue };
                let Some(q) = derived.get(q) else { continue };
                if !restricted.contains(q) {
                    continue;
                }
                if !restricted.contains(head_rel) {
                    // A fully-evaluated rule reads q: q must be full too.
                    demote.insert(q);
                } else if magic_rule(rule, head_rel, head_key.unwrap(), i, q).is_none() {
                    demote.insert(q);
                }
            }
        }
        let before = restricted.len();
        for d in demote {
            restricted.remove(d);
        }
        if restricted.len() == before {
            break;
        }
    }
    restricted
}

/// Everything `demand_transform` computes short of wrapping the rewritten
/// rules into a [`Program`].
struct TransformParts {
    out: Vec<Rule>,
    demand_preds: BTreeSet<String>,
    restricted: BTreeSet<String>,
}

/// Static demand feasibility: would [`demand_transform`] succeed for
/// `goal`, and if so which relations end up demand-restricted?
///
/// This runs the exact same pipeline (closure slice, restriction
/// fixpoint, magic-rule emission, demand-stratification gate) so a cached
/// answer can never drift from the runtime transform. It exists so the
/// absint `PredicateSummary` can answer feasibility once per *program*
/// instead of the planner re-running the fixpoint per *goal* at query
/// time.
pub fn demand_feasible(rules: &[Rule], goal: &str) -> Result<BTreeSet<String>, String> {
    transform_parts(rules, goal).map(|p| p.restricted)
}

/// Demand-transform `rules` for queries against `goal`.
///
/// Returns the transformed program, or an error when the goal cannot be
/// restricted (no safe demand propagation reaches it, its head key shape
/// is unsupported, or the rewritten program is no longer stratifiable).
/// On error the caller should fall back to relevance-closure saturation.
pub fn demand_transform(rules: &[Rule], goal: &str) -> Result<DemandProgram, String> {
    let parts = transform_parts(rules, goal)?;
    Ok(DemandProgram {
        program: Program::new(parts.out),
        goal: goal.to_string(),
        demand_pred: demand_pred_of(goal),
        demand_preds: parts.demand_preds,
        restricted: parts.restricted,
    })
}

fn transform_parts(rules: &[Rule], goal: &str) -> Result<TransformParts, String> {
    // Only single-head executable rules participate; disjunctive rules are
    // representational and skipped, mirroring `Program::evaluate`.
    let executable: Vec<&Rule> = rules
        .iter()
        .filter(|r| r.heads.len() == 1 && r.heads[0].relation().is_some())
        .collect();
    for r in &executable {
        if let Some(rel) = r.heads[0].relation() {
            if rel.starts_with(DEMAND_PREFIX) {
                return Err(format!("relation `{rel}` collides with the demand prefix"));
            }
        }
    }
    let closure = relevance_closure(rules, &[goal.to_string()]);
    let slice: Vec<&Rule> = executable
        .iter()
        .copied()
        .filter(|r| {
            r.heads[0]
                .relation()
                .is_some_and(|rel| closure.contains(rel))
        })
        .collect();
    let derived: BTreeSet<&str> = slice.iter().filter_map(|r| r.heads[0].relation()).collect();
    if !derived.contains(goal) {
        return Err(format!("goal `{goal}` has no rules to restrict"));
    }

    let restricted = restriction_fixpoint(&slice, &derived);
    if !restricted.contains(goal) {
        return Err(format!("demand cannot restrict goal `{goal}` safely"));
    }

    // Emit: guarded originals + magic rules for restricted relations,
    // untouched originals for the rest.
    let mut out: Vec<Rule> = Vec::new();
    let mut seen_magic: BTreeSet<String> = BTreeSet::new();
    let mut demand_preds: BTreeSet<String> = BTreeSet::new();
    for rule in &slice {
        let head = &rule.heads[0];
        let head_rel = head.relation().expect("sliced on head relation");
        if !restricted.contains(head_rel) {
            out.push((*rule).clone());
            continue;
        }
        let head_key = key_term(head).expect("restricted relations have keyed heads");
        demand_preds.insert(demand_pred_of(head_rel));
        let mut guarded = (*rule).clone();
        guarded.body.insert(
            0,
            Literal::Pred(Pred::new(demand_pred_of(head_rel), [head_key.clone()])),
        );
        out.push(guarded);
        for (i, lit) in rule.body.iter().enumerate() {
            let Some(q) = lit.relation() else { continue };
            if !restricted.contains(q) {
                continue;
            }
            let magic = magic_rule(rule, head_rel, head_key, i, q)
                .expect("restricted targets passed the fixpoint feasibility check");
            demand_preds.insert(demand_pred_of(q));
            if seen_magic.insert(magic.to_string()) {
                out.push(magic);
            }
        }
    }

    // Demand-stratification gate: the rewrite must not have created a
    // negative cycle.
    stratify(&out).map_err(|e| format!("demand rewrite breaks stratification: {e}"))?;

    Ok(TransformParts {
        out,
        demand_preds,
        restricted: restricted.iter().map(|s| s.to_string()).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::OTermPat;

    fn pred(name: &str, args: &[&str]) -> Literal {
        Literal::pred(name, args.iter().map(|a| Term::var(*a)))
    }

    fn anc_program() -> Vec<Rule> {
        vec![
            Rule::new(pred("anc", &["x", "y"]), vec![pred("par", &["x", "y"])]),
            Rule::new(
                pred("anc", &["x", "z"]),
                vec![pred("par", &["x", "y"]), pred("anc", &["y", "z"])],
            ),
        ]
    }

    fn chain_db(n: i64) -> FactDb {
        let mut db = FactDb::new();
        for i in 0..n {
            db.insert_pred("par", vec![Value::Int(i), Value::Int(i + 1)]);
        }
        db
    }

    #[test]
    fn demand_derives_only_the_reachable_suffix() {
        let dp = demand_transform(&anc_program(), "anc").unwrap();
        assert!(dp.restricted().contains("anc"));
        let mut db = chain_db(100);
        let stats = dp
            .evaluate(&mut db, &[Value::Int(95)], EvalStrategy::SemiNaive)
            .unwrap();
        // Full saturation derives 100·101/2 = 5050 anc facts; demand from
        // key 95 recursively demands keys 95..=100, deriving only the
        // 5+4+3+2+1 facts of that suffix.
        assert_eq!(
            db.tuples_of("anc")
                .filter(|t| t[0] == Value::Int(95))
                .count(),
            5
        );
        assert_eq!(db.tuples_of("anc").count(), 15);
        assert!(stats.demanded_facts >= 1, "{stats}");
    }

    #[test]
    fn demand_agrees_with_saturation_on_the_goal_keys() {
        let prog = Program::new(anc_program());
        let mut full = chain_db(30);
        prog.evaluate(&mut full).unwrap();

        let dp = demand_transform(&anc_program(), "anc").unwrap();
        let mut dem = chain_db(30);
        let seeds = [Value::Int(3), Value::Int(17)];
        dp.evaluate(&mut dem, &seeds, EvalStrategy::SemiNaive)
            .unwrap();
        for seed in &seeds {
            let want: BTreeSet<_> = full
                .tuples_of("anc")
                .filter(|t| &t[0] == seed)
                .cloned()
                .collect();
            let got: BTreeSet<_> = dem
                .tuples_of("anc")
                .filter(|t| &t[0] == seed)
                .cloned()
                .collect();
            assert_eq!(want, got, "seed {seed:?}");
        }
    }

    #[test]
    fn demand_handles_stratified_negation() {
        // lonely(x) ⇐ node(x), ¬anc(x,_)… keep it keyed: the intersection
        // complement shape <x: A−> ⇐ <x: A>, ¬<x: AB>.
        let ot = |v: &str, c: &str| Literal::oterm(OTermPat::new(Term::var(v), c));
        let rules = vec![
            Rule::new(
                ot("x", "AB"),
                vec![
                    ot("x", "A"),
                    ot("y", "B"),
                    Literal::cmp(Term::var("y"), CmpOp::Eq, Term::var("x")),
                ],
            ),
            Rule::new(
                ot("x", "Aonly"),
                vec![ot("x", "A"), Literal::neg(ot("x", "AB"))],
            ),
        ];
        let dp = demand_transform(&rules, "Aonly").unwrap();
        assert!(dp.restricted().contains("Aonly"));
        assert!(dp.restricted().contains("AB"));
        let mut db = FactDb::new();
        for o in ["o1", "o2", "o3"] {
            db.insert_oterm(OTermPat::new(Term::val(o), "A"));
        }
        db.insert_oterm(OTermPat::new(Term::val("o2"), "B"));
        dp.evaluate(&mut db, &[Value::str("o1")], EvalStrategy::SemiNaive)
            .unwrap();
        // o1 is demanded and is A-only; o3 (also A-only) was not demanded.
        let aonly: Vec<_> = db.oterms_of("Aonly").collect();
        assert_eq!(aonly.len(), 1);
        assert_eq!(aonly[0].object, Term::val("o1"));
    }

    #[test]
    fn unrestrictable_goal_is_an_error() {
        // Zero-argument predicate heads cannot carry a demand key.
        let rules = vec![Rule::new(
            Literal::pred("flag", [] as [Term; 0]),
            vec![pred("e", &["x"])],
        )];
        assert!(demand_transform(&rules, "flag").is_err());
        assert!(demand_transform(&rules, "nosuch").is_err());
    }

    #[test]
    fn feasibility_matches_the_transform() {
        // Feasible goal: same restricted set out of both entry points.
        let restricted = demand_feasible(&anc_program(), "anc").unwrap();
        let dp = demand_transform(&anc_program(), "anc").unwrap();
        assert_eq!(&restricted, dp.restricted());
        // Infeasible goal: both reject.
        let rules = vec![Rule::new(
            Literal::pred("flag", [] as [Term; 0]),
            vec![pred("e", &["x"])],
        )];
        assert!(demand_feasible(&rules, "flag").is_err());
        assert!(demand_transform(&rules, "flag").is_err());
    }

    #[test]
    fn demand_prefix_collision_is_rejected() {
        let rules = vec![Rule::new(
            pred("__demand__p", &["x"]),
            vec![pred("e", &["x"])],
        )];
        assert!(demand_transform(&rules, "__demand__p").is_err());
    }
}
