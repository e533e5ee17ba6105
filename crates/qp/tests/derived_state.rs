//! Lineage differential test of the engines' restricted deduction states.
//!
//! An engine's planned derived scans evaluate against one state per
//! relevance closure, kept across its executions: a seed key already
//! demanded is not evaluated again, and a saturated state stays
//! saturated. This test drives a lineage through random writes and asks,
//! on every new generation, demand-seeded derived queries whose seeds
//! repeat and overlap, an unseeded query after the seeded ones, an
//! anti-join and a recursive goal, then the same queries on an older
//! generation and again on the newest. Every answer must equal both
//! `Saturate` on a fresh engine and a one-shot [`qp::execute`] of the
//! same plan over fresh caches, and the state counters must show that a
//! generation's repeated asks reuse its states (the second round derives
//! nothing and builds nothing) and that an older generation's asks leave
//! the newest generation's states alone.

use assertions::{AttrCorr, AttrOp, ClassAssertion, ClassOp, SPath};
use federation::agent::Agent;
use federation::{Fsm, IntegrationStrategy};
use oo_model::{AttrType, ClassName, InstanceStore, Oid, Schema, SchemaBuilder};
use proptest::prelude::*;
use qp::{
    Caches, DerivedStateStats, DerivedStates, PlanNode, QueryEngine, QueryStrategy, ScanCache,
};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Keys `k0 … k{KEYS-1}`: small, so seeds collide and bosses chain.
const KEYS: u8 = 6;

/// One person: (key, boss key, age).
type Person = (u8, u8, i64);
/// One course or staff member: (key, payload).
type Row = (u8, i64);

/// The classes a write can touch: (component, class, key attribute,
/// payload attribute).
const WRITABLE: [(usize, &str, &str, &str); 4] = [
    (0, "person", "ssn", "age"),
    (0, "course", "code", "credits"),
    (1, "human", "hssn", "weight"),
    (1, "staff", "sssn", "salary"),
];

/// Derived goals on top of the integrated program: `senior` is a plain
/// filter, `led` is recursive (a person whose chain of bosses reaches
/// `k0`).
const RULES: &str = "\
    <X: senior> :- <X: person | age: A>, A >= 40.\n\
    <X: led> :- <X: person | boss: B>, B = \"k0\".\n\
    <X: led> :- <X: person | boss: B>, <Y: person | ssn: B>, <Y: led>.\n";

fn schemas() -> (Schema, Schema) {
    let s1 = SchemaBuilder::new("x")
        .class("person", |c| {
            c.attr("ssn", AttrType::Str)
                .attr("boss", AttrType::Str)
                .attr("age", AttrType::Int)
        })
        .class("course", |c| {
            c.attr("code", AttrType::Str).attr("credits", AttrType::Int)
        })
        .build()
        .unwrap();
    let s2 = SchemaBuilder::new("x")
        .class("human", |c| {
            c.attr("hssn", AttrType::Str).attr("weight", AttrType::Int)
        })
        .class("staff", |c| {
            c.attr("sssn", AttrType::Str).attr("salary", AttrType::Int)
        })
        .build()
        .unwrap();
    (s1, s2)
}

fn root_engine(persons: &[Person], humans: &[Row], courses: &[Row], staff: &[Row]) -> QueryEngine {
    let (s1, s2) = schemas();
    let mut st1 = InstanceStore::new();
    for (k, b, age) in persons {
        st1.create(&s1, "person", |o| {
            o.with_attr("ssn", format!("k{k}"))
                .with_attr("boss", format!("k{b}"))
                .with_attr("age", *age)
        })
        .unwrap();
    }
    for (k, v) in courses {
        st1.create(&s1, "course", |o| {
            o.with_attr("code", format!("k{k}"))
                .with_attr("credits", *v)
        })
        .unwrap();
    }
    let mut st2 = InstanceStore::new();
    for (k, v) in humans {
        st2.create(&s2, "human", |o| {
            o.with_attr("hssn", format!("k{k}")).with_attr("weight", *v)
        })
        .unwrap();
    }
    for (k, v) in staff {
        st2.create(&s2, "staff", |o| {
            o.with_attr("sssn", format!("k{k}")).with_attr("salary", *v)
        })
        .unwrap();
    }
    let mut fsm = Fsm::new();
    fsm.register(Agent::object_oriented("a1", s1, st1), "S1")
        .unwrap();
    fsm.register(Agent::object_oriented("a2", s2, st2), "S2")
        .unwrap();
    let corr = |l: (&str, &str), r: (&str, &str)| {
        AttrCorr::new(
            SPath::attr("S1", l.0, l.1),
            AttrOp::Equiv,
            SPath::attr("S2", r.0, r.1),
        )
    };
    fsm.add_assertion(
        ClassAssertion::simple("S1", "person", ClassOp::Equiv, "S2", "human")
            .attr_corr(corr(("person", "ssn"), ("human", "hssn"))),
    );
    fsm.add_assertion(
        ClassAssertion::simple("S1", "course", ClassOp::Intersect, "S2", "staff")
            .attr_corr(corr(("course", "code"), ("staff", "sssn"))),
    );
    // Pair the n-th course with the n-th staff member, including objects
    // later writes may create.
    for n in 1..=12 {
        fsm.meta
            .pairing
            .pair(Oid::local("course", n), Oid::local("staff", n));
    }
    let mut global = fsm.integrate(IntegrationStrategy::Accumulation).unwrap();
    global.rules.extend(analysis::parse_rules(RULES).unwrap());
    let components = fsm
        .components()
        .iter()
        .map(|c| (c.schema.clone(), c.store.clone()))
        .collect();
    QueryEngine::from_parts(global, components, fsm.meta.clone())
}

/// One write to one of the [`WRITABLE`] classes.
#[derive(Debug, Clone)]
enum Write {
    Create(u8, u8, i64),
    Update(u16, i64),
    Delete(u16),
}

#[derive(Debug, Clone)]
struct Step {
    class: usize,
    write: Write,
    /// Query parameters on this step's generations.
    k: i64,
    j: u8,
    /// The older generation to ask after the step.
    back: u16,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    let write = prop_oneof![
        (0u8..KEYS, 0u8..KEYS, 0i64..60).prop_map(|(k, b, v)| Write::Create(k, b, v)),
        (any::<u16>(), 0i64..60).prop_map(|(n, v)| Write::Update(n, v)),
        any::<u16>().prop_map(Write::Delete),
    ];
    (
        0usize..WRITABLE.len(),
        write,
        0i64..60,
        0u8..KEYS,
        any::<u16>(),
    )
        .prop_map(|(class, write, k, j, back)| Step {
            class,
            write,
            k,
            j,
            back,
        })
}

/// `latest`'s components with the step's write applied.
fn next_components(latest: &QueryEngine, step: &Step) -> Vec<(Schema, InstanceStore)> {
    let mut next = latest.components().to_vec();
    let (comp, class, key, payload) = WRITABLE[step.class];
    let (schema, store) = &mut next[comp];
    let extent: Vec<Oid> = store
        .direct_extent(&ClassName::new(class))
        .iter()
        .map(|o| o.oid.clone())
        .collect();
    match step.write {
        Write::Create(k, b, v) => {
            store
                .create(schema, class, |o| {
                    let o = o.with_attr(key, format!("k{k}")).with_attr(payload, v);
                    if class == "person" {
                        o.with_attr("boss", format!("k{b}"))
                    } else {
                        o
                    }
                })
                .unwrap();
        }
        Write::Update(n, v) if !extent.is_empty() => {
            let oid = &extent[n as usize % extent.len()];
            store
                .update(schema, oid, |o| o.with_attr(payload, v))
                .unwrap();
        }
        Write::Delete(n) if !extent.is_empty() => {
            store.delete(&extent[n as usize % extent.len()]);
        }
        _ => {}
    }
    next
}

/// The queries asked on a generation, in order: seeded scans over the
/// intersection with overlapping seed sets (a range, then one key inside
/// it, then an anti-join over every course), the recursive goal seeded
/// by one key and then by a range, unseeded scans after the seeded ones,
/// and a plain filter goal.
fn queries(k: i64, j: u8) -> Vec<String> {
    vec![
        format!("?- <X: course | credits: C>, C > {k}, <X: course_staff>."),
        format!("?- <X: course | code: C>, C = \"k{j}\", <X: course_staff>."),
        "?- <X: course | code: C>, not <X: course_staff>.".to_string(),
        format!("?- <X: person | ssn: S>, S = \"k{j}\", <X: led>."),
        format!("?- <X: person | age: A>, A > {k}, <X: led>."),
        "?- <X: led>.".to_string(),
        "?- <X: course_staff>.".to_string(),
        "?- <X: person | age: A>, <X: senior>.".to_string(),
    ]
}

/// `Saturate` on a fresh engine over `engine`'s snapshot.
fn reference(engine: &QueryEngine, q: &str) -> Vec<Vec<oo_model::Value>> {
    QueryEngine::from_parts_arc(
        engine.global().clone(),
        engine.components_arc(),
        engine.meta().clone(),
    )
    .ask_text(q, QueryStrategy::Saturate)
    .unwrap_or_else(|e| panic!("saturate `{q}`: {e}"))
    .rows
}

/// The rows of `plan` executed once over `engine`'s snapshot with fresh
/// caches: the execution builds its own deduction state. `None` for a
/// plan the engine answers by full saturation.
fn one_shot(engine: &QueryEngine, plan: &qp::QueryPlan) -> Option<Vec<Vec<oo_model::Value>>> {
    if matches!(plan.root, PlanNode::FullSaturate { .. }) {
        return None;
    }
    let caches = Caches {
        scan_cache: &ScanCache::default(),
        states: &DerivedStates::default(),
    };
    let out = qp::execute(
        plan,
        engine.global(),
        engine.components(),
        engine.meta(),
        &BTreeSet::new(),
        caches,
        None,
    )
    .unwrap_or_else(|e| panic!("one-shot execution: {e}"));
    Some(out.rows)
}

/// Ask every query planned on `engine` (executing: the result cache is
/// not read) and compare with the references. Returns the derivation
/// work the asks did: (derived facts, demand facts).
fn ask_all(engine: &QueryEngine, queries: &[String]) -> (u64, u64) {
    let mut work = (0, 0);
    for q in queries {
        let got = engine
            .ask_analyze(q, QueryStrategy::Planned)
            .unwrap_or_else(|e| panic!("planned `{q}`: {e}"));
        assert_eq!(
            got.answer.rows,
            reference(engine, q),
            "planned and saturate disagree on `{q}`\n{}",
            got.plan.render_human()
        );
        if let Some(rows) = one_shot(engine, &got.plan) {
            assert_eq!(
                got.answer.rows, rows,
                "shared and one-shot disagree on `{q}`"
            );
        }
        work.0 += got.answer.stats.derived_facts;
        work.1 += got.answer.stats.demanded_facts;
    }
    work
}

fn stats(engine: &QueryEngine) -> DerivedStateStats {
    engine.derived_state_stats()
}

/// Ask `queries` twice on `engine`: the second round must reuse the
/// first round's states and derive nothing.
fn check_reuse(engine: &QueryEngine, queries: &[String]) {
    ask_all(engine, queries);
    let before = stats(engine);
    let work = ask_all(engine, queries);
    let after = stats(engine);
    assert_eq!(work, (0, 0), "a repeated ask derived again");
    assert_eq!(
        (after.builds, after.bypasses, after.entries),
        (before.builds, before.bypasses, before.entries),
        "a repeated ask did not reuse its state"
    );
    assert!(after.hits > before.hits, "{after:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn shared_derived_states_answer_like_saturate_across_a_lineage(
        persons in proptest::collection::vec((0u8..KEYS, 0u8..KEYS, 0i64..60), 0..10),
        humans in proptest::collection::vec((0u8..KEYS, 0i64..60), 0..6),
        courses in proptest::collection::vec((0u8..KEYS, 0i64..60), 0..8),
        staff in proptest::collection::vec((0u8..KEYS, 0i64..60), 0..8),
        steps in proptest::collection::vec(step_strategy(), 3..7),
    ) {
        let root = root_engine(&persons, &humans, &courses, &staff);
        check_reuse(&root, &queries(20, 1));
        let mut gens = vec![root];
        for step in &steps {
            let latest = gens.last().unwrap();
            let next = latest.successor(Arc::new(next_components(latest, step)));
            prop_assert_eq!(stats(&next), DerivedStateStats::default(), "a successor inherited states");
            let queries = queries(step.k, step.j);
            check_reuse(&next, &queries);
            gens.push(next);
            // An older generation answers for itself, reusing its own
            // states, and leaves the newest generation's states alone.
            let newest = gens.last().unwrap();
            let old = &gens[step.back as usize % (gens.len() - 1)];
            let before = stats(newest);
            check_reuse(old, &queries);
            prop_assert_eq!(stats(newest), before, "an older ask touched the newest states");
            let work = ask_all(newest, &queries);
            let after = stats(newest);
            prop_assert_eq!(work, (0, 0), "the newest states were displaced");
            prop_assert_eq!(after.builds, before.builds);
        }
        let end = stats(gens.last().unwrap());
        prop_assert!(end.hits > 0 && end.builds > 0 && end.bypasses == 0, "{:?}", end);
    }
}
