//! Incremental-engine differential tests: after every mutation delta,
//! the three ways of answering a query must agree —
//!
//! * a cold `Planned` execution (scatter-gather over the live stores:
//!   the from-scratch reference, it never consults incremental state);
//! * the `Saturate` reference path, which now *maintains* its
//!   materialization by typed deltas (counting + DRed) instead of
//!   rebuilding per epoch;
//! * any cache entry that still claims validity under footprint
//!   checking.
//!
//! Plus the selective-invalidation regression: a mutation to component
//! S2 must not evict cached answers whose plan only reads S1, and a
//! lineage differential: successor engines share one result cache, and
//! every hit equals a fresh engine's answer and reports the fingerprint
//! planning would produce at that generation.

use federation::agent::Agent;
use federation::{Fsm, IntegrationStrategy};
use oo_model::{AttrType, ClassName, InstanceStore, Oid, SchemaBuilder, Value};
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
    fsm
}

/// One mutation against a live engine: which component, which class in
/// it, and what to do. Delete/Update aim at a live object by rank.
#[derive(Debug, Clone)]
enum Op {
    Insert {
        comp: usize,
        second: bool,
        key: u8,
        val: i64,
    },
    Delete {
        comp: usize,
        second: bool,
        nth: u16,
    },
    Update {
        comp: usize,
        second: bool,
        nth: u16,
        val: i64,
    },
}

fn class_of(comp: usize, second: bool) -> (&'static str, &'static str, &'static str) {
    // (class, key attribute, payload attribute)
    match (comp, second) {
        (0, false) => ("person", "ssn", "age"),
        (0, true) => ("course", "code", "credits"),
        (1, false) => ("human", "hssn", "weight"),
        _ => ("staff", "sssn", "salary"),
    }
}

/// Apply one op through the engine's copy-on-write store access. Returns
/// false when the op aimed at an empty extent (nothing mutated).
fn apply_op(engine: &mut QueryEngine, op: &Op) -> bool {
    let (comp, second) = match op {
        Op::Insert { comp, second, .. }
        | Op::Delete { comp, second, .. }
        | Op::Update { comp, second, .. } => (*comp, *second),
    };
    let (class, key_attr, val_attr) = class_of(comp, second);
    let schema = engine.components()[comp].0.clone();
    let pick = |store: &InstanceStore, nth: u16| -> Option<Oid> {
        let ext = store.extent(&schema, &ClassName::new(class));
        if ext.is_empty() {
            return None;
        }
        Some(ext[nth as usize % ext.len()].oid.clone())
    };
    match op {
        Op::Insert { key, val, .. } => {
            let store = engine.component_store_mut(comp).unwrap();
            store
                .create(&schema, class, |o| {
                    o.with_attr(key_attr, format!("k{key}"))
                        .with_attr(val_attr, *val)
                })
                .unwrap();
            true
        }
        Op::Delete { nth, .. } => {
            let store = engine.component_store_mut(comp).unwrap();
            match pick(store, *nth) {
                Some(oid) => {
                    store.delete(&oid).unwrap();
                    true
                }
                None => false,
            }
        }
        Op::Update { nth, val, .. } => {
            let store = engine.component_store_mut(comp).unwrap();
            match pick(store, *nth) {
                Some(oid) => {
                    store
                        .update(&schema, &oid, |o| o.with_attr(val_attr, *val))
                        .unwrap();
                    true
                }
                None => false,
            }
        }
    }
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..2, any::<bool>(), 0u8..6, -5i64..50).prop_map(|(comp, second, key, val)| {
            Op::Insert {
                comp,
                second,
                key,
                val,
            }
        }),
        (0usize..2, any::<bool>(), any::<u16>()).prop_map(|(comp, second, nth)| Op::Delete {
            comp,
            second,
            nth
        }),
        (0usize..2, any::<bool>(), any::<u16>(), -5i64..50).prop_map(|(comp, second, nth, val)| {
            Op::Update {
                comp,
                second,
                nth,
                val,
            }
        }),
    ]
}

/// After a delta: cold planned execution (`ask_analyze` bypasses the
/// cache read), the maintained saturate path, and a possibly-cached
/// planned ask must all emit identical rows.
fn assert_three_way_agreement(engine: &QueryEngine, query: &str) {
    let cold = engine
        .ask_analyze(query, QueryStrategy::Planned)
        .unwrap_or_else(|e| panic!("cold planned `{query}`: {e}"));
    assert!(!cold.answer.from_cache);
    let saturate = engine
        .ask_text(query, QueryStrategy::Saturate)
        .unwrap_or_else(|e| panic!("saturate `{query}`: {e}"));
    assert_eq!(
        cold.answer.rows, saturate.rows,
        "maintained saturate diverged from cold planned on `{query}`"
    );
    let cached = engine.ask_text(query, QueryStrategy::Planned).unwrap();
    assert_eq!(
        cached.rows, cold.answer.rows,
        "cache served stale rows for `{query}` (from_cache={})",
        cached.from_cache
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The qp-layer mutation-trace differential: random federation,
    /// random insert/delete/update trace; after every step the engine's
    /// delta-maintained saturate state, a cold planned execution, and
    /// footprint-validated cache entries agree on every query template.
    #[test]
    fn patched_answers_match_cold_recompute_on_random_traces(
        persons in proptest::collection::vec((0u8..6, -5i64..50), 0..6),
        humans in proptest::collection::vec((0u8..6, -5i64..50), 0..6),
        courses in proptest::collection::vec((0u8..6, -5i64..50), 0..5),
        staff in proptest::collection::vec((0u8..6, -5i64..50), 0..5),
        trace in proptest::collection::vec(op_strategy(), 1..7),
        k in -10i64..60,
    ) {
        let fsm = build_fsm(&persons, &humans, &courses, &staff);
        let mut engine = QueryEngine::connect(&fsm, IntegrationStrategy::Accumulation).unwrap();
        let queries = [
            format!("?- <X: person | age: A>, A > {k}."),
            "?- <X: person | ssn: S>, <Y: course | code: S, credits: K>.".to_string(),
            "?- <X: course_staff>.".to_string(),
            "?- <X: course | code: C>, not <X: course_staff>.".to_string(),
        ];
        // Warm the incremental saturate state and the cache.
        for q in &queries {
            assert_three_way_agreement(&engine, q);
        }
        for op in &trace {
            apply_op(&mut engine, op);
            for q in &queries {
                assert_three_way_agreement(&engine, q);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A serving lineage: each generation is the successor of the last,
    /// plus one random write, and all share one result cache. Each
    /// template is asked twice per generation under both strategies. The
    /// second ask must hit; both must equal a fresh engine's rows; and
    /// the hit's fingerprint must be the one a fresh engine's plan has
    /// at that generation, even when an earlier generation filled it.
    #[test]
    fn lineage_hits_report_the_plan_planning_would_produce_now(
        persons in proptest::collection::vec((0u8..6, -5i64..50), 0..6),
        humans in proptest::collection::vec((0u8..6, -5i64..50), 0..6),
        courses in proptest::collection::vec((0u8..6, -5i64..50), 0..5),
        staff in proptest::collection::vec((0u8..6, -5i64..50), 0..5),
        trace in proptest::collection::vec(op_strategy(), 1..8),
        k in -10i64..60,
    ) {
        let fsm = build_fsm(&persons, &humans, &courses, &staff);
        let mut engine = QueryEngine::connect(&fsm, IntegrationStrategy::Accumulation).unwrap();
        let queries = [
            format!("?- <X: person | age: A>, A > {k}."),
            // Reads S1 only: hits survive writes to S2.
            format!("?- <X: course | code: C, credits: K>, K <= {k}."),
            "?- <X: person | ssn: S>, <Y: course | code: S, credits: K>.".to_string(),
            "?- <X: course_staff>.".to_string(),
            "?- <X: course | code: C>, not <X: course_staff>.".to_string(),
            "?- <X: C>, <X: course | code: S>.".to_string(),
        ];
        for step in 0..=trace.len() {
            if step > 0 {
                let mut next = engine.successor(engine.components_arc());
                apply_op(&mut next, &trace[step - 1]);
                engine = next;
            }
            let fresh = QueryEngine::from_parts_arc(
                engine.global().clone(),
                engine.components_arc(),
                engine.meta().clone(),
            );
            for q in &queries {
                for strategy in [QueryStrategy::Planned, QueryStrategy::Saturate] {
                    let first = engine.ask_text(q, strategy).unwrap();
                    let second = engine.ask_text(q, strategy).unwrap();
                    let want = fresh.ask_text(q, strategy).unwrap();
                    prop_assert!(!want.from_cache);
                    prop_assert!(second.from_cache, "{} {:?} missed twice", q, strategy);
                    prop_assert_eq!(&first.rows, &want.rows, "{} {:?}", q, strategy);
                    prop_assert_eq!(&second.rows, &want.rows, "{} {:?}", q, strategy);
                    prop_assert_eq!(&first.plan_fp, &want.plan_fp, "{} {:?}", q, strategy);
                    prop_assert_eq!(&second.plan_fp, &want.plan_fp, "{} {:?}", q, strategy);
                }
            }
        }
    }
}

/// The case the lineage property relies on, pinned: a write to S2 leaves
/// the S1-only template's entry, filled a generation earlier, hitting
/// with the filling plan's fingerprint.
#[test]
fn lineage_carries_hits_across_generations() {
    let fsm = build_fsm(&[(1, 3)], &[(1, 80)], &[(2, 4)], &[(2, 1)]);
    let root = QueryEngine::connect(&fsm, IntegrationStrategy::Accumulation).unwrap();
    let q = "?- <X: course | code: C, credits: K>, K <= 10.";
    let filled = root.ask_text(q, QueryStrategy::Planned).unwrap();
    let mut next = root.successor(root.components_arc());
    let write = Op::Insert {
        comp: 1,
        second: true,
        key: 3,
        val: 5,
    };
    assert!(apply_op(&mut next, &write));
    let hit = next.ask_text(q, QueryStrategy::Planned).unwrap();
    assert!(hit.from_cache && hit.stats.footprint_saves == 1);
    assert_eq!(hit.plan_fp, filled.plan_fp);
    assert_eq!(hit.stats.plan_micros, 0);
}

/// Builds the regression federation: `book ≡ publication` spans both
/// components, while `room` lives only in S1 and is never asserted
/// against anything in S2.
fn two_scope_fsm() -> Fsm {
    let s1 = SchemaBuilder::new("x")
        .class("book", |c| {
            c.attr("title", AttrType::Str).attr("year", AttrType::Int)
        })
        .class("room", |c| {
            c.attr("rname", AttrType::Str).attr("cap", AttrType::Int)
        })
        .build()
        .unwrap();
    let mut st1 = InstanceStore::new();
    st1.create(&s1, "book", |o| {
        o.with_attr("title", "Logic").with_attr("year", 1987i64)
    })
    .unwrap();
    st1.create(&s1, "room", |o| {
        o.with_attr("rname", "aula").with_attr("cap", 120i64)
    })
    .unwrap();
    let s2 = SchemaBuilder::new("x")
        .class("publication", |c| {
            c.attr("ptitle", AttrType::Str).attr("pyear", AttrType::Int)
        })
        .build()
        .unwrap();
    let mut st2 = InstanceStore::new();
    st2.create(&s2, "publication", |o| {
        o.with_attr("ptitle", "Databases")
            .with_attr("pyear", 1999i64)
    })
    .unwrap();
    let mut fsm = Fsm::new();
    fsm.register(Agent::object_oriented("a1", s1, st1), "S1")
        .unwrap();
    fsm.register(Agent::object_oriented("a2", s2, st2), "S2")
        .unwrap();
    fsm.add_assertion(
        ClassAssertion::simple("S1", "book", ClassOp::Equiv, "S2", "publication")
            .attr_corr(AttrCorr::new(
                SPath::attr("S1", "book", "title"),
                AttrOp::Equiv,
                SPath::attr("S2", "publication", "ptitle"),
            ))
            .attr_corr(AttrCorr::new(
                SPath::attr("S1", "book", "year"),
                AttrOp::Equiv,
                SPath::attr("S2", "publication", "pyear"),
            )),
    );
    fsm
}

/// The selective-invalidation regression: mutating component S2 must
/// leave cached answers whose plans only read S1 hit-able. Before
/// footprint-aware entries, any version bump evicted every answer.
#[test]
fn s2_mutation_keeps_s1_only_answers_cached() {
    let fsm = two_scope_fsm();
    let mut engine = QueryEngine::connect(&fsm, IntegrationStrategy::Accumulation).unwrap();
    let room = engine
        .global()
        .global_class("S1", "room")
        .expect("unasserted class still integrates")
        .to_string();
    let book = engine
        .global()
        .global_class("S1", "book")
        .unwrap()
        .to_string();
    let room_q = format!("?- <X: {room} | cap: C>.");
    let book_q = format!("?- <X: {book} | title: T>.");

    let room_first = engine.ask_text(&room_q, QueryStrategy::Planned).unwrap();
    assert!(!room_first.from_cache);
    let book_first = engine.ask_text(&book_q, QueryStrategy::Planned).unwrap();

    // Mutate S2 (component index 1): the room plan never reads it.
    let s2 = engine.components()[1].0.clone();
    engine
        .component_store_mut(1)
        .unwrap()
        .create(&s2, "publication", |o| {
            o.with_attr("ptitle", "Sets").with_attr("pyear", 1960i64)
        })
        .unwrap();

    let room_again = engine.ask_text(&room_q, QueryStrategy::Planned).unwrap();
    assert!(
        room_again.from_cache,
        "S2 mutation evicted an S1-only cached answer"
    );
    assert_eq!(room_again.rows, room_first.rows);
    let stats = engine.cache_stats();
    assert!(
        stats.footprint_saves >= 1,
        "hit should be recorded as a footprint save: {stats:?}"
    );

    // The merged book class reads both components, so its entry must
    // *not* survive the same mutation.
    let book_again = engine.ask_text(&book_q, QueryStrategy::Planned).unwrap();
    assert!(!book_again.from_cache, "book answer must recompute");
    assert_eq!(book_again.rows.len(), book_first.rows.len() + 1);
    assert!(engine.cache_stats().invalidations >= 1);

    // Mutating S1 invalidates the room answer too.
    let s1 = engine.components()[0].0.clone();
    engine
        .component_store_mut(0)
        .unwrap()
        .create(&s1, "room", |o| {
            o.with_attr("rname", "lab").with_attr("cap", 30i64)
        })
        .unwrap();
    let room_third = engine.ask_text(&room_q, QueryStrategy::Planned).unwrap();
    assert!(!room_third.from_cache);
    assert_eq!(room_third.rows.len(), room_first.rows.len() + 1);
}

/// The saturate path maintains its materialization by delta after a
/// store mutation: the delta counter moves, and deletions flow through
/// (the old row disappears from the reference answer).
#[test]
fn saturate_refresh_applies_deltas_not_rebuilds() {
    let _guard = obs::test_guard();
    obs::install(obs::TimeSource::monotonic());
    let fsm = two_scope_fsm();
    let mut engine = QueryEngine::connect(&fsm, IntegrationStrategy::Accumulation).unwrap();
    let book = engine
        .global()
        .global_class("S1", "book")
        .unwrap()
        .to_string();
    let q = format!("?- <X: {book} | title: T>.");
    let first = engine.ask_text(&q, QueryStrategy::Saturate).unwrap();
    assert_eq!(first.rows.len(), 2);

    // Insert + delete in S1: both must flow through the maintained state.
    let s1 = engine.components()[0].0.clone();
    {
        let store = engine.component_store_mut(0).unwrap();
        store
            .create(&s1, "book", |o| {
                o.with_attr("title", "Proofs").with_attr("year", 2001i64)
            })
            .unwrap();
        let logic = store
            .extent(&s1, &ClassName::new("book"))
            .iter()
            .find(|o| *o.attr("title") == Value::str("Logic"))
            .map(|o| o.oid.clone())
            .unwrap();
        store.delete(&logic).unwrap();
    }
    let second = engine.ask_text(&q, QueryStrategy::Saturate).unwrap();
    assert_eq!(second.rows.len(), 2, "{}", second.render_human());
    assert!(
        second.rows.iter().any(|r| r[1] == Value::str("Proofs")),
        "insert not applied"
    );
    assert!(
        !second.rows.iter().any(|r| r[1] == Value::str("Logic")),
        "delete not applied"
    );

    let session = obs::uninstall().expect("installed above");
    assert!(
        session.metrics.counter("fedoo_deduction_delta_facts_total") >= 1,
        "saturate refresh did not go through the delta maintainer"
    );
}
