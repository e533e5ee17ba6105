//! Lineage differential test of the scan cache.
//!
//! A serving lineage is driven forward and back: every step installs a
//! new generation, the latest one plus one write to a plain class, a
//! paired class, a `Concat` source or an ∩ source, built as the successor
//! of a random engine of the lineage; one step also changes a component's
//! schema. Two lineages take the same steps: a cold one that never asks
//! `Saturate`, and a warm one that does, so its planned derived scans
//! read the maintained reference state. After every step, on the new
//! generation and on a random older one, each cached base scan (identity
//! bridges included) must equal a fresh `FactMaterializer::facts_for`,
//! and both lineages' planned answers, which read the cache and probe
//! its column indexes, must equal `Saturate` on a fresh engine.

use assertions::{AttrCorr, AttrOp, ClassAssertion, ClassOp, SPath};
use deduction::OTermPat;
use federation::agent::Agent;
use federation::{FactMaterializer, Fsm, IntegrationStrategy};
use oo_model::{AttrType, Class, ClassName, ClassType, InstanceStore, Oid, SchemaBuilder, Value};
use proptest::prelude::*;
use qp::{QueryEngine, QueryStrategy};
use std::collections::BTreeSet;
use std::sync::Arc;

/// `(class, key attribute, payload attribute)` per component. Row 0 is a
/// `Concat` source (`city`/`street` compose `address`), row 1 an ∩ source
/// (`income ∩ study_support`), row 2 a plain equivalence whose objects
/// are paired but whose facts read no partner.
const CLASSES: [[(&str, &str, &str); 3]; 2] = [
    [
        ("person", "ssn", "city"),
        ("faculty", "fssn", "income"),
        ("course", "code", "credits"),
    ],
    [
        ("human", "hssn", "street"),
        ("student", "sssn", "study_support"),
        ("staff", "tssn", "salary"),
    ],
];

/// Keys `k0 … k{KEYS-1}`; objects with the same key and number are paired.
const KEYS: u8 = 5;

fn payload(class: usize, v: i64) -> Value {
    match class {
        0 => Value::str(format!("p{v}")),
        _ => Value::Int(v),
    }
}

fn build_fsm(rows: &[(usize, usize, u8, i64)]) -> Fsm {
    let mut fsm = Fsm::new();
    for (comp, classes) in CLASSES.iter().enumerate() {
        let mut b = SchemaBuilder::new("x");
        for (i, (class, key, val)) in classes.iter().enumerate() {
            let ty = if i == 0 { AttrType::Str } else { AttrType::Int };
            b = b.class(*class, |c| c.attr(*key, AttrType::Str).attr(*val, ty));
        }
        let s = b.build().unwrap();
        let mut st = InstanceStore::new();
        for &(c, class, key, v) in rows {
            if c != comp {
                continue;
            }
            let (name, k, a) = classes[class];
            st.create(&s, name, |o| {
                o.with_attr(k, format!("k{key}"))
                    .with_attr(a, payload(class, v))
            })
            .unwrap();
        }
        let agent = Agent::object_oriented(format!("a{comp}"), s, st);
        fsm.register(agent, &format!("S{}", comp + 1)).unwrap();
    }
    let attr = |comp: usize, class: usize, which: usize| {
        let (c, k, a) = CLASSES[comp][class];
        SPath::attr(format!("S{}", comp + 1), c, [k, a][which])
    };
    let ops = [
        (ClassOp::Equiv, AttrOp::ComposedInto("address".into())),
        (ClassOp::Intersect, AttrOp::Intersect),
        (ClassOp::Equiv, AttrOp::Equiv),
    ];
    for (class, (cop, aop)) in ops.into_iter().enumerate() {
        let (left, right) = (CLASSES[0][class].0, CLASSES[1][class].0);
        fsm.add_assertion(
            ClassAssertion::simple("S1", left, cop, "S2", right)
                .attr_corr(AttrCorr::new(
                    attr(0, class, 0),
                    AttrOp::Equiv,
                    attr(1, class, 0),
                ))
                .attr_corr(AttrCorr::new(attr(0, class, 1), aop, attr(1, class, 1))),
        );
    }
    // Pair the n-th objects of each asserted class pair, including
    // objects later writes may create.
    for (class, _) in CLASSES[0].iter().enumerate() {
        for n in 1..=8 {
            fsm.meta.pairing.pair(
                Oid::local(CLASSES[0][class].0, n),
                Oid::local(CLASSES[1][class].0, n),
            );
        }
    }
    fsm
}

/// One step: write to `class` of component `comp`.
#[derive(Debug, Clone)]
struct Step {
    /// The engine the new generation is built as a successor of.
    from: u16,
    /// An older generation to check after the step.
    back: u16,
    comp: usize,
    class: usize,
    write: Write,
}

#[derive(Debug, Clone)]
enum Write {
    Create(u8, i64),
    Update(u16, i64),
    Delete(u16),
}

fn step_strategy() -> impl Strategy<Value = Step> {
    let write = prop_oneof![
        (0u8..KEYS, 0i64..30).prop_map(|(k, v)| Write::Create(k, v)),
        (any::<u16>(), 0i64..30).prop_map(|(n, v)| Write::Update(n, v)),
        any::<u16>().prop_map(Write::Delete),
    ];
    (any::<u16>(), any::<u16>(), 0usize..2, 0usize..3, write).prop_map(
        |(from, back, comp, class, write)| Step {
            from,
            back,
            comp,
            class,
            write,
        },
    )
}

/// The next generation's components: `latest`'s with the step's write,
/// and, when `schema_change`, an extra class in component 0's schema.
fn next_components(
    latest: &QueryEngine,
    step: &Step,
    schema_change: bool,
) -> Vec<(oo_model::Schema, InstanceStore)> {
    let mut next = latest.components().to_vec();
    let (name, key, val) = CLASSES[step.comp][step.class];
    let (schema, store) = &mut next[step.comp];
    let extent: Vec<Oid> = store
        .direct_extent(&ClassName::new(name))
        .iter()
        .map(|o| o.oid.clone())
        .collect();
    match step.write {
        Write::Create(k, v) => {
            store
                .create(schema, name, |o| {
                    o.with_attr(key, format!("k{k}"))
                        .with_attr(val, payload(step.class, v))
                })
                .unwrap();
        }
        Write::Update(n, v) if !extent.is_empty() => {
            let oid = &extent[n as usize % extent.len()];
            store
                .update(schema, oid, |o| o.with_attr(val, payload(step.class, v)))
                .unwrap();
        }
        Write::Delete(n) if !extent.is_empty() => {
            store.delete(&extent[n as usize % extent.len()]);
        }
        _ => {}
    }
    if schema_change {
        next[0]
            .0
            .add_class(Class::new("extra", ClassType::new()))
            .unwrap();
    }
    next
}

/// Every integrated base class with three projections each: all its
/// attributes, its first attribute, and none.
fn scans(engine: &QueryEngine) -> Vec<(String, BTreeSet<String>)> {
    let mut out = Vec::new();
    for class in engine.global().integrated.classes() {
        if class.virtual_class {
            continue;
        }
        let all: BTreeSet<String> = class.attrs.iter().map(|a| a.name.clone()).collect();
        let first: BTreeSet<String> = all.iter().take(1).cloned().collect();
        for proj in [all, first, BTreeSet::new()] {
            out.push((class.name.clone(), proj));
        }
    }
    out
}

/// Queries whose planned execution reads the scan cache: a full scan of
/// each base class, and one pushdown per attribute, an equality on key
/// attributes and a range on payloads, which probe the column indexes.
fn queries(engine: &QueryEngine) -> Vec<String> {
    let mut out = Vec::new();
    for class in engine.global().integrated.classes() {
        let g = &class.name;
        out.push(format!("?- <X: {g}>."));
        if class.virtual_class {
            continue;
        }
        for a in &class.attrs {
            let n = &a.name;
            out.push(format!("?- <X: {g} | {n}: V>."));
            match a.ty {
                AttrType::Int => out.push(format!("?- <X: {g} | {n}: V>, V >= 12.")),
                _ => out.push(format!("?- <X: {g} | {n}: V>, V = \"k2\".")),
            }
        }
    }
    out
}

fn sorted(mut facts: Vec<OTermPat>) -> Vec<OTermPat> {
    facts.sort();
    facts
}

/// Every cached base scan of `engine` against fresh materialisation.
fn check_scans(engine: &QueryEngine) {
    let comps = engine.components();
    let mat = FactMaterializer::new(engine.global(), comps, engine.meta());
    for (g, proj) in scans(engine) {
        let got = sorted(engine.base_scan_facts(&g, &proj).unwrap());
        let mut fresh = Vec::new();
        for ci in 0..comps.len() {
            fresh.extend(mat.facts_for(ci, &g, Some(&proj)).unwrap());
        }
        fresh.extend(mat.bridge_facts(Some(&g), None));
        assert_eq!(got, sorted(fresh), "cached scan of {g} {proj:?}");
    }
}

/// A new lineage over `engine`'s snapshot that shares nothing with it.
fn independent(engine: &QueryEngine) -> QueryEngine {
    QueryEngine::from_parts_arc(
        engine.global().clone(),
        engine.components_arc(),
        engine.meta().clone(),
    )
}

/// Check one generation, `cold` of the cold lineage and `warm` of the
/// warm one, both over the same snapshot.
fn check_generation(cold: &QueryEngine, warm: &QueryEngine, queries: &[String]) {
    check_scans(cold);
    check_scans(warm);
    let reference = independent(cold);
    for q in queries {
        let want = reference.ask_text(q, QueryStrategy::Saturate).unwrap().rows;
        // Cold planned answers (the result cache is not read), then the
        // result cache's.
        let planned = cold.ask_analyze(q, QueryStrategy::Planned).unwrap();
        let rendered = planned.plan.render_human();
        assert_eq!(planned.answer.rows, want, "cold {q}\n{rendered}");
        let cached = cold.ask_text(q, QueryStrategy::Planned).unwrap();
        assert_eq!(cached.rows, want, "cold cached {q}\n{rendered}");
        // The warm lineage's state may sit at another generation (a
        // planned read moves it only by store diff), then at this one.
        let planned = warm.ask_analyze(q, QueryStrategy::Planned).unwrap();
        assert_eq!(planned.answer.rows, want, "warm {q}\n{rendered}");
        let saturate = warm.ask_analyze(q, QueryStrategy::Saturate).unwrap();
        assert_eq!(saturate.answer.rows, want, "warm saturate {q}");
        let planned = warm.ask_analyze(q, QueryStrategy::Planned).unwrap();
        assert_eq!(planned.answer.rows, want, "warm synced {q}\n{rendered}");
    }
    assert!(!cold.is_warm(), "a planned ask warmed the cold lineage");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn cached_scans_match_fresh_materialisation_across_a_lineage(
        rows in proptest::collection::vec((0usize..2, 0usize..3, 0u8..KEYS, 0i64..30), 4..14),
        steps in proptest::collection::vec(step_strategy(), 6..12),
        schema_step in 0usize..6,
    ) {
        let fsm = build_fsm(&rows);
        let root = QueryEngine::connect(&fsm, IntegrationStrategy::Accumulation).unwrap();
        let warm_root = independent(&root);
        let queries = queries(&root);
        check_generation(&root, &warm_root, &queries);
        let mut gens = vec![(root, warm_root)];
        for (i, step) in steps.iter().enumerate() {
            let next = Arc::new(next_components(&gens.last().unwrap().0, step, i == schema_step));
            let (cold, warm) = &gens[step.from as usize % gens.len()];
            let next = (cold.successor(Arc::clone(&next)), warm.successor(next));
            check_generation(&next.0, &next.1, &queries);
            gens.push(next);
            let (cold, warm) = &gens[step.back as usize % gens.len()];
            check_generation(cold, warm, &queries);
        }
        let stats = gens[0].0.scan_cache_stats();
        prop_assert!(stats.hits > 0 && stats.bypasses > 0, "{:?}", stats);
    }
}

/// The outcomes the lineage test relies on, in a fixed sequence: a write
/// to a plain class patches its partition and leaves the others hitting,
/// a coupled class always bypasses, and a schema change makes its
/// component bypass.
#[test]
fn writes_patch_their_partition_and_coupled_classes_bypass() {
    let rows = [(0, 2, 1, 5), (0, 2, 2, 6), (1, 2, 1, 7), (0, 0, 1, 3)];
    let root = QueryEngine::connect(&build_fsm(&rows), IntegrationStrategy::Accumulation).unwrap();
    let course = root
        .global()
        .global_class("S1", "course")
        .unwrap()
        .to_string();
    let person = root
        .global()
        .global_class("S1", "person")
        .unwrap()
        .to_string();
    let scan = |e: &QueryEngine, g: &str| {
        let before = e.scan_cache_stats();
        e.base_scan_facts(g, &BTreeSet::new()).unwrap();
        let after = e.scan_cache_stats();
        (
            after.hits - before.hits,
            after.patches - before.patches,
            after.builds - before.builds,
            after.bypasses - before.bypasses,
        )
    };
    // Cold: one build per partition of each component (S1 holds course
    // and person objects, S2 only staff).
    assert_eq!(scan(&root, &course), (0, 0, 3, 0));
    assert_eq!(scan(&root, &course), (3, 0, 0, 0));
    // `person` is a `Concat` source: its facts read partners.
    assert_eq!(scan(&root, &person).3, 2);
    let write = Step {
        from: 0,
        back: 0,
        comp: 0,
        class: 2,
        write: Write::Update(0, 9),
    };
    let warm_root = independent(&root);
    let next = root.successor(Arc::new(next_components(&root, &write, false)));
    let warm_next = warm_root.successor(next.components_arc());
    assert_eq!(scan(&next, &course), (2, 1, 0, 0));
    check_generation(&next, &warm_next, &queries(&next));
    let changed = next.successor(Arc::new(next_components(&next, &write, true)));
    let warm_changed = warm_next.successor(changed.components_arc());
    assert_eq!(scan(&changed, &course), (1, 0, 0, 1));
    check_generation(&changed, &warm_changed, &queries(&changed));
}
