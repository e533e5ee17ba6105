//! Differential tests: the planned pipeline and the saturate-everything
//! reference evaluator must produce identical answer sets for every query
//! in the supported fragment, over randomly generated federations.
//!
//! The generator builds a two-component federation (S1 person/course,
//! S2 human/staff) with a merged class (`person == human`), an
//! intersection (`course & staff`, which generates virtual classes and
//! rules), random extents drawn from small key pools (so joins, bridges,
//! and intersections actually happen), and key-based object pairing.
//! Queries are drawn from templates covering base scans, predicate
//! pushdown, cross-component joins, derived relations, safe negation,
//! and the full-saturate fallback.

use federation::agent::Agent;
use federation::{Fsm, IntegrationStrategy};
use oo_model::{AttrType, ClassName, InstanceStore, SchemaBuilder, Value};
use proptest::prelude::*;
use qp::{QueryEngine, QueryStrategy};

use assertions::{AttrCorr, AttrOp, ClassAssertion, ClassOp, SPath};

/// One random row: (key index into a small shared pool, numeric payload).
type Row = (u8, i64);

fn build_fsm(persons: &[Row], humans: &[Row], courses: &[Row], staff: &[Row]) -> Fsm {
    let s1 = SchemaBuilder::new("x")
        .class("person", |c| {
            c.attr("ssn", AttrType::Str).attr("age", AttrType::Int)
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
    let mut st1 = InstanceStore::new();
    for (k, v) in persons {
        st1.create(&s1, "person", |o| {
            o.with_attr("ssn", format!("k{k}")).with_attr("age", *v)
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
    fsm.add_assertion(
        ClassAssertion::simple("S1", "person", ClassOp::Equiv, "S2", "human").attr_corr(
            AttrCorr::new(
                SPath::attr("S1", "person", "ssn"),
                AttrOp::Equiv,
                SPath::attr("S2", "human", "hssn"),
            ),
        ),
    );
    fsm.add_assertion(
        ClassAssertion::simple("S1", "course", ClassOp::Intersect, "S2", "staff").attr_corr(
            AttrCorr::new(
                SPath::attr("S1", "course", "code"),
                AttrOp::Equiv,
                SPath::attr("S2", "staff", "sssn"),
            ),
        ),
    );
    pair_by_key(&mut fsm, "course", "code", "staff", "sssn");
    fsm
}

/// Establish object identity between the two components by key equality.
fn pair_by_key(fsm: &mut Fsm, lclass: &str, lkey: &str, rclass: &str, rkey: &str) {
    let pairs: Vec<_> = {
        let comps = fsm.components();
        let (ls, lst) = (&comps[0].schema, &comps[0].store);
        let (rs, rst) = (&comps[1].schema, &comps[1].store);
        let lext = lst.extent(ls, &ClassName::new(lclass));
        let rext = rst.extent(rs, &ClassName::new(rclass));
        let mut out = Vec::new();
        for lo in &lext {
            let lv = lo.attr(lkey);
            if lv.is_null() {
                continue;
            }
            for ro in &rext {
                if ro.attr(rkey) == lv {
                    out.push((lo.oid.clone(), ro.oid.clone()));
                }
            }
        }
        out
    };
    for (a, b) in pairs {
        fsm.meta.pairing.pair(a, b);
    }
}

fn rows(max: usize) -> impl Strategy<Value = Vec<Row>> {
    proptest::collection::vec((0u8..6, -5i64..50), 0..max)
}

/// A fresh engine over `engine`'s federation that shares nothing with
/// it: until it asks `Saturate` (or runs a full-saturate plan), its
/// planned derived scans run the execution's own demand- or
/// closure-restricted evaluation.
fn cold_engine(engine: &QueryEngine) -> QueryEngine {
    QueryEngine::from_parts_arc(
        engine.global().clone(),
        engine.components_arc(),
        engine.meta().clone(),
    )
}

/// Ask `query` planned on a cold engine and on `warm`, whose lineage
/// holds the reference state at this snapshot (so its derived scans read
/// the maintained program), and under `Saturate` on `reference`. The
/// rows must be identical (all are normalised to sorted, deduplicated
/// value tuples). `demand` switches the cold engine's demand seeding.
fn assert_agreement(warm: &QueryEngine, reference: &QueryEngine, query: &str, demand: bool) {
    let cold = cold_engine(reference);
    cold.set_demand_enabled(demand);
    let planned = cold
        .ask_analyze(query, QueryStrategy::Planned)
        .unwrap_or_else(|e| panic!("planned `{query}`: {e}"));
    let full_saturate = planned.plan.render_human().contains("full-saturate");
    assert!(
        full_saturate || !cold.is_warm(),
        "a planned ask warmed its lineage"
    );
    let maintained = warm
        .ask_analyze(query, QueryStrategy::Planned)
        .unwrap_or_else(|e| panic!("warm planned `{query}`: {e}"));
    let saturate = reference
        .ask_text(query, QueryStrategy::Saturate)
        .unwrap_or_else(|e| panic!("saturate `{query}`: {e}"));
    assert_eq!(
        planned.answer.rows, saturate.rows,
        "cold planned and saturate disagree on `{query}`"
    );
    assert_eq!(
        maintained.answer.rows, saturate.rows,
        "warm planned and saturate disagree on `{query}`"
    );
}

/// An engine over `fsm` whose lineage holds the reference state.
fn warm_engine(fsm: &Fsm) -> QueryEngine {
    let engine = QueryEngine::connect(fsm, IntegrationStrategy::Accumulation).unwrap();
    engine
        .ask_text("?- <X: course_staff>.", QueryStrategy::Saturate)
        .unwrap();
    assert!(engine.is_warm());
    engine
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn planned_equals_saturate_on_random_federations(
        persons in rows(10),
        humans in rows(10),
        courses in rows(8),
        staff in rows(8),
        k in -10i64..60,
    ) {
        let fsm = build_fsm(&persons, &humans, &courses, &staff);
        let reference = QueryEngine::connect(&fsm, IntegrationStrategy::Accumulation).unwrap();
        let warm = warm_engine(&fsm);
        let queries = [
            // Base scan of the merged class, range pushdown.
            format!("?- <X: person | age: A>, A > {k}."),
            // Constant-equality pushdown.
            "?- <X: person | ssn: S>, S = \"k3\".".to_string(),
            // Cross-component join through a shared variable.
            "?- <X: person | ssn: S>, <Y: course | code: S, credits: K>.".to_string(),
            // Derived relation (virtual intersection class).
            "?- <X: course_staff>.".to_string(),
            // Derived + base join with a residual comparison.
            format!("?- <X: course_staff>, <X: course | credits: K>, K <= {k}."),
            // Safe negation over a derived relation (anti-join).
            "?- <X: course | code: C>, not <X: course_staff>.".to_string(),
            // Base scan feeding a derived join: the planner annotates the
            // derived scan with `demand on X` and seeds saturation from
            // the pipeline rows (magic-sets path).
            format!("?- <X: course | credits: K>, K > {k}, <X: course_staff>."),
            // Constant-keyed demand: a single seed value.
            "?- <X: course | code: C>, C = \"k2\", <X: course_staff>.".to_string(),
            // Outside the planned fragment: class variable → fallback.
            "?- <X: C>.".to_string(),
        ];
        for q in &queries {
            assert_agreement(&warm, &reference, q, true);
        }
        // The same queries with demand seeding disabled (pure relevance-
        // closure saturation) must also agree — the planner's two derived
        // evaluation modes are answer-equivalent.
        for q in &queries {
            assert_agreement(&warm, &reference, q, false);
        }
    }
}

#[test]
fn empty_extents_answer_empty_everywhere() {
    let fsm = build_fsm(&[], &[], &[], &[]);
    let engine = QueryEngine::connect(&fsm, IntegrationStrategy::Accumulation).unwrap();
    let warm = warm_engine(&fsm);
    for q in [
        "?- <X: person | age: A>.",
        "?- <X: course_staff>.",
        "?- <X: person | ssn: S>, <Y: course | code: S>.",
    ] {
        let planned = cold_engine(&engine)
            .ask_text(q, QueryStrategy::Planned)
            .unwrap();
        assert!(planned.rows.is_empty(), "{q}");
        assert_agreement(&warm, &engine, q, true);
    }
}

#[test]
fn cross_component_join_matches_by_shared_key() {
    // person k1 and course k1 share a key; person k2 has no course.
    let fsm = build_fsm(&[(1, 30), (2, 40)], &[], &[(1, 10)], &[]);
    let engine = QueryEngine::connect(&fsm, IntegrationStrategy::Accumulation).unwrap();
    let q = "?- <X: person | ssn: S>, <Y: course | code: S, credits: K>.";
    let planned = engine.ask_text(q, QueryStrategy::Planned).unwrap();
    assert_eq!(planned.rows.len(), 1);
    assert_eq!(planned.rows[0][1], Value::str("k1"));
    assert_eq!(planned.rows[0][3], Value::Int(10));
    let saturate = engine.ask_text(q, QueryStrategy::Saturate).unwrap();
    assert_eq!(planned.rows, saturate.rows);
}

#[test]
fn derived_intersection_contains_exactly_the_paired_objects() {
    // course k1 pairs with staff k1; course k5 has no staff partner.
    let fsm = build_fsm(&[], &[], &[(1, 10), (5, 20)], &[(1, 900)]);
    let engine = QueryEngine::connect(&fsm, IntegrationStrategy::Accumulation).unwrap();
    let planned = engine
        .ask_text("?- <X: course_staff>.", QueryStrategy::Planned)
        .unwrap();
    assert_eq!(planned.rows.len(), 1, "{}", planned.render_human());
    let saturate = engine
        .ask_text("?- <X: course_staff>.", QueryStrategy::Saturate)
        .unwrap();
    assert_eq!(planned.rows, saturate.rows);
    // The complementary negation query returns the unpaired course.
    let neg = cold_engine(&engine)
        .ask_text(
            "?- <X: course | code: C>, not <X: course_staff>.",
            QueryStrategy::Planned,
        )
        .unwrap();
    assert_eq!(neg.rows.len(), 1);
    assert_eq!(neg.rows[0][1], Value::str("k5"));
}

#[test]
fn demand_seeding_fires_and_agrees_on_derived_join() {
    // Six courses, two of them paired with staff: the base scan binds X,
    // the derived scan is demand-seeded from those bindings.
    let fsm = build_fsm(
        &[],
        &[],
        &[(1, 10), (2, 20), (3, 30), (4, 40), (5, 50), (0, 60)],
        &[(1, 900), (3, 901)],
    );
    let engine = QueryEngine::connect(&fsm, IntegrationStrategy::Accumulation).unwrap();
    let q = "?- <X: course | credits: K>, K > 15, <X: course_staff>.";
    let analyzed = engine.ask_analyze(q, QueryStrategy::Planned).unwrap();
    assert!(
        analyzed.plan.render_human().contains("demand on X"),
        "plan lacks demand annotation:\n{}",
        analyzed.plan.render_human()
    );
    assert!(
        analyzed.answer.stats.demanded_facts > 0,
        "demand seeding did not fire"
    );
    let saturate = engine.ask_text(q, QueryStrategy::Saturate).unwrap();
    assert_eq!(analyzed.answer.rows, saturate.rows);
    // course k3 (credits 30) is the only paired course above the cutoff.
    assert_eq!(analyzed.answer.rows.len(), 1);
}

#[test]
fn fallback_queries_agree_with_reference() {
    let fsm = build_fsm(&[(1, 30)], &[(2, 70)], &[(3, 10)], &[]);
    let engine = QueryEngine::connect(&fsm, IntegrationStrategy::Accumulation).unwrap();
    // A class variable is outside the planner's fragment: both strategies
    // must still agree (the planned path falls back to full saturation).
    let planned = engine
        .ask_text("?- <X: C>.", QueryStrategy::Planned)
        .unwrap();
    let saturate = engine
        .ask_text("?- <X: C>.", QueryStrategy::Saturate)
        .unwrap();
    assert_eq!(planned.rows, saturate.rows);
    assert!(!planned.rows.is_empty());
}
