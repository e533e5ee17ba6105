//! Fault-tolerance behaviour of the query engine: partial answers with
//! completeness annotations, retry/breaker accounting, refusal of
//! unsound degradations, and the result-cache regression — a partial
//! answer served during an outage must not be replayed as complete
//! after the component recovers.

use assertions::{AttrCorr, AttrOp, ClassAssertion, ClassOp, SPath};
use federation::agent::Agent;
use federation::connector::{FaultKind, FaultPlan};
use federation::fsm::{CircuitState, Fsm, IntegrationStrategy};
use federation::policy::RetryPolicy;
use oo_model::{AttrType, InstanceStore, SchemaBuilder};
use qp::{QpError, QueryEngine, QueryStrategy};

/// Two libraries with equivalent book classes (2 + 1 objects).
fn library_fsm() -> Fsm {
    let s1 = SchemaBuilder::new("x")
        .class("book", |c| {
            c.attr("title", AttrType::Str).attr("year", AttrType::Int)
        })
        .build()
        .unwrap();
    let mut st1 = InstanceStore::new();
    st1.create(&s1, "book", |o| {
        o.with_attr("title", "Logic").with_attr("year", 1987i64)
    })
    .unwrap();
    st1.create(&s1, "book", |o| {
        o.with_attr("title", "Sets").with_attr("year", 1960i64)
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

/// Faculty ∩ student — generates a virtual class with rules, so
/// negation over the derived relation exercises the refusal path.
fn campus_fsm() -> Fsm {
    let s1 = SchemaBuilder::new("x")
        .class("faculty", |c| {
            c.attr("fssn", AttrType::Str).attr("income", AttrType::Int)
        })
        .build()
        .unwrap();
    let mut st1 = InstanceStore::new();
    st1.create(&s1, "faculty", |o| {
        o.with_attr("fssn", "123").with_attr("income", 3000i64)
    })
    .unwrap();
    st1.create(&s1, "faculty", |o| {
        o.with_attr("fssn", "999").with_attr("income", 4000i64)
    })
    .unwrap();
    let s2 = SchemaBuilder::new("x")
        .class("student", |c| {
            c.attr("ssn", AttrType::Str)
                .attr("study_support", AttrType::Int)
        })
        .build()
        .unwrap();
    let mut st2 = InstanceStore::new();
    st2.create(&s2, "student", |o| {
        o.with_attr("ssn", "123")
            .with_attr("study_support", 1000i64)
    })
    .unwrap();
    let mut fsm = Fsm::new();
    fsm.register(Agent::object_oriented("a1", s1, st1), "S1")
        .unwrap();
    fsm.register(Agent::object_oriented("a2", s2, st2), "S2")
        .unwrap();
    fsm.add_assertion(
        ClassAssertion::simple("S1", "faculty", ClassOp::Intersect, "S2", "student").attr_corr(
            AttrCorr::new(
                SPath::attr("S1", "faculty", "fssn"),
                AttrOp::Equiv,
                SPath::attr("S2", "student", "ssn"),
            ),
        ),
    );
    fsm
}

fn engine(fsm: &Fsm) -> QueryEngine {
    QueryEngine::connect(fsm, IntegrationStrategy::Accumulation).unwrap()
}

fn merged_book_query(engine: &QueryEngine) -> String {
    let g = engine.global().global_class("S1", "book").unwrap();
    format!("?- <X: {g} | title: T>.")
}

#[test]
fn component_error_degrades_to_partial_answer() {
    let fsm = library_fsm();
    let baseline = engine(&fsm);
    let text = merged_book_query(&baseline);
    let full = baseline.ask_text(&text, QueryStrategy::Planned).unwrap();
    assert_eq!(full.rows.len(), 3);

    let faulted = engine(&fsm);
    faulted.apply_fault_plan(
        FaultPlan::none().with("S2", FaultKind::Error),
        RetryPolicy::default(),
    );
    let partial = faulted.ask_text(&text, QueryStrategy::Planned).unwrap();
    assert_eq!(partial.rows.len(), 2, "{}", partial.render_human());
    assert!(partial.rows.iter().all(|r| full.rows.contains(r)), "subset");
    assert_eq!(partial.completeness.missing_components, vec!["S2"]);
    let g = faulted
        .global()
        .global_class("S1", "book")
        .unwrap()
        .to_string();
    assert!(partial.completeness.affected_classes.contains(&g));
    // Default policy: 3 attempts on the dead component = 2 retries.
    assert_eq!(partial.stats.retries, 2);
    assert_eq!(partial.stats.degraded, 1);
    // Renderings carry the completeness annotation.
    assert!(partial.render_human().contains("missing components [S2]"));
    let json = partial.render_json();
    assert!(json.contains("\"completeness\":{\"missing_components\":[\"S2\"]"));
}

/// Regression: a partial answer served during an outage must not be
/// replayed from the cache as complete after the component recovers —
/// the store versions never changed, so only refusing to cache degraded
/// answers prevents the replay.
#[test]
fn degraded_answers_are_not_cached_as_complete() {
    let fsm = library_fsm();
    let eng = engine(&fsm);
    let text = merged_book_query(&eng);
    eng.apply_fault_plan(
        FaultPlan::none().with("S2", FaultKind::Error),
        RetryPolicy::default(),
    );
    let partial = eng.ask_text(&text, QueryStrategy::Planned).unwrap();
    assert_eq!(partial.rows.len(), 2);
    assert!(!partial.completeness.is_complete());

    // The outage ends; the same query must re-execute, not replay.
    eng.clear_fault_plan();
    let recovered = eng.ask_text(&text, QueryStrategy::Planned).unwrap();
    assert!(!recovered.from_cache, "partial answer was replayed");
    assert!(recovered.completeness.is_complete());
    assert_eq!(recovered.rows.len(), 3);

    // Complete answers do cache.
    let again = eng.ask_text(&text, QueryStrategy::Planned).unwrap();
    assert!(again.from_cache);
    assert_eq!(again.rows, recovered.rows);
}

#[test]
fn transient_fault_recovers_within_policy_and_stays_complete() {
    let fsm = library_fsm();
    let eng = engine(&fsm);
    let text = merged_book_query(&eng);
    eng.apply_fault_plan(
        FaultPlan::none().with("S2", FaultKind::Transient(2)),
        RetryPolicy::default(),
    );
    let answer = eng.ask_text(&text, QueryStrategy::Planned).unwrap();
    assert!(answer.completeness.is_complete());
    assert_eq!(answer.rows.len(), 3);
    assert_eq!(answer.stats.retries, 2);
    assert_eq!(answer.stats.degraded, 0);
    // Only the virtual clock advanced; recovery is durable.
    let again = eng.ask_text(&text, QueryStrategy::Planned).unwrap();
    assert!(again.from_cache, "complete answers are cacheable");
}

#[test]
fn saturate_strategy_degrades_identically() {
    let fsm = library_fsm();
    let planned = engine(&fsm);
    let saturate = engine(&fsm);
    let text = merged_book_query(&planned);
    let plan = FaultPlan::none().with("S2", FaultKind::Error);
    planned.apply_fault_plan(plan.clone(), RetryPolicy::default());
    saturate.apply_fault_plan(plan, RetryPolicy::default());
    let p = planned.ask_text(&text, QueryStrategy::Planned).unwrap();
    let s = saturate.ask_text(&text, QueryStrategy::Saturate).unwrap();
    assert_eq!(p.rows, s.rows);
    assert_eq!(
        p.completeness.missing_components,
        s.completeness.missing_components
    );
}

#[test]
fn truncated_extent_counts_as_degraded() {
    let fsm = library_fsm();
    let eng = engine(&fsm);
    let text = merged_book_query(&eng);
    eng.apply_fault_plan(
        FaultPlan::none().with("S1", FaultKind::Truncate(1)),
        RetryPolicy::default(),
    );
    let answer = eng.ask_text(&text, QueryStrategy::Planned).unwrap();
    assert_eq!(answer.rows.len(), 2, "one S1 book lost, S2 intact");
    assert_eq!(answer.completeness.missing_components, vec!["S1"]);
    assert_eq!(answer.stats.retries, 0, "truncation succeeds, no retries");
    assert_eq!(answer.stats.degraded, 1);
}

#[test]
fn negation_over_affected_relation_is_refused() {
    let fsm = campus_fsm();
    let eng = engine(&fsm);
    // The intersection's derived relation (single-head rule head).
    let derived = eng
        .global()
        .rules
        .iter()
        .filter(|r| r.heads.len() == 1)
        .filter_map(|r| r.head().and_then(|h| h.relation()))
        .next()
        .expect("intersection generates rules")
        .to_string();
    let g_fac = eng
        .global()
        .global_class("S1", "faculty")
        .unwrap()
        .to_string();
    let text = format!("?- <X: {g_fac}>, not <X: {derived}>.");
    eng.apply_fault_plan(
        FaultPlan::none().with("S2", FaultKind::Error),
        RetryPolicy::default(),
    );
    let err = eng.ask_text(&text, QueryStrategy::Planned).unwrap_err();
    assert!(matches!(err, QpError::Unavailable(_)), "{err}");
    assert!(err.to_string().contains("degraded past policy"), "{err}");

    // Once answered while healthy, the cached *exact* answer keeps the
    // query available through a later outage: store versions are
    // unchanged, so the cache entry is still complete and correct.
    eng.clear_fault_plan();
    let healthy = eng.ask_text(&text, QueryStrategy::Planned).unwrap();
    eng.apply_fault_plan(
        FaultPlan::none().with("S2", FaultKind::Error),
        RetryPolicy::default(),
    );
    let served = eng.ask_text(&text, QueryStrategy::Planned).unwrap();
    assert!(served.from_cache);
    assert!(served.completeness.is_complete());
    assert_eq!(served.rows, healthy.rows);

    // A positive query over the same derived relation degrades fine.
    let positive = format!("?- <X: {derived}>.");
    let answer = eng.ask_text(&positive, QueryStrategy::Planned).unwrap();
    assert!(!answer.completeness.is_complete());
    assert!(answer
        .completeness
        .affected_classes
        .contains(&derived.to_string()));
}

#[test]
fn breaker_trips_are_counted_and_surfaced() {
    let fsm = library_fsm();
    let eng = engine(&fsm);
    let text = merged_book_query(&eng);
    let policy = RetryPolicy {
        breaker_threshold: 2,
        ..RetryPolicy::default()
    };
    eng.apply_fault_plan(FaultPlan::none().with("S2", FaultKind::Error), policy);
    assert!(eng
        .fault_health()
        .iter()
        .all(|h| h.state == CircuitState::Closed));
    let answer = eng.ask_text(&text, QueryStrategy::Planned).unwrap();
    assert_eq!(answer.stats.breaker_trips, 1);
    let health = eng.fault_health();
    let s2 = health.iter().find(|h| h.component == "S2").unwrap();
    assert_eq!(s2.state, CircuitState::Open);
    assert_eq!(s2.trips, 1);
    // While the breaker is open, subsequent asks short-circuit (no new
    // retries) but still degrade soundly.
    let again = eng.ask_text(&text, QueryStrategy::Planned).unwrap();
    assert!(!again.completeness.is_complete());
    assert_eq!(again.stats.retries, 0, "open breaker skips retry storms");
}

/// Regression: on a reused engine, each answer's per-query stats must
/// cover only its own execution — the second query's retry/trip/degraded
/// counters must exclude the first query's fault accounting. (Cumulative
/// totals live in the `obs` metrics registry, not here.)
#[test]
fn reused_engine_resets_fault_counters_between_queries() {
    let fsm = library_fsm();
    let eng = engine(&fsm);
    let g = eng.global().global_class("S1", "book").unwrap().to_string();
    let first = format!("?- <X: {g} | title: T>.");
    let second = format!("?- <X: {g} | title: T, year: Y>, Y >= 1987.");
    eng.apply_fault_plan(
        FaultPlan::none().with("S2", FaultKind::Transient(2)),
        RetryPolicy::default(),
    );
    let a = eng.ask_text(&first, QueryStrategy::Planned).unwrap();
    assert_eq!(a.stats.retries, 2, "transient fault costs two retries");
    assert!(a.completeness.is_complete());

    // Different query, so no cache hit: a fresh execution whose stats
    // must start from zero, not accumulate the earlier retries.
    let b = eng.ask_text(&second, QueryStrategy::Planned).unwrap();
    assert!(!b.from_cache);
    assert_eq!(b.stats.retries, 0, "second query leaked first's retries");
    assert_eq!(b.stats.breaker_trips, 0);
    assert_eq!(b.stats.degraded, 0);
    assert_eq!(eng.last_stats().unwrap().retries, 0);
}

#[test]
fn store_mutation_rebuilds_fault_session_connectors() {
    let fsm = library_fsm();
    let mut eng = engine(&fsm);
    let text = merged_book_query(&eng);
    eng.apply_fault_plan(
        FaultPlan::none().with("S2", FaultKind::Error),
        RetryPolicy::default(),
    );
    let partial = eng.ask_text(&text, QueryStrategy::Planned).unwrap();
    assert_eq!(partial.rows.len(), 2);
    // Mutate S1; the session must serve the new data (still minus S2).
    let schema = eng.components()[0].0.clone();
    eng.component_store_mut(0)
        .unwrap()
        .create(&schema, "book", |o| {
            o.with_attr("title", "Proofs").with_attr("year", 2001i64)
        })
        .unwrap();
    let partial = eng.ask_text(&text, QueryStrategy::Planned).unwrap();
    assert_eq!(partial.rows.len(), 3, "{}", partial.render_human());
    assert!(!partial.completeness.is_complete());
}

/// Degraded executions bypass the scan cache: with `S2` dark, planned
/// answers neither read nor fill it (every component scan counts as a
/// bypass). Once the plan is cleared, the first answers fill it and equal
/// a cold engine's.
#[test]
fn degraded_executions_bypass_the_scan_cache() {
    let fsm = library_fsm();
    let eng = engine(&fsm);
    let g = eng.global().global_class("S1", "book").unwrap().to_string();
    let queries = [
        format!("?- <X: {g} | title: T>."),
        format!("?- <X: {g} | title: T, year: Y>, Y >= 1970."),
        format!("?- <X: {g} | title: T>, T = \"Logic\"."),
    ];
    eng.apply_fault_plan(
        FaultPlan::none().with("S2", FaultKind::Error),
        RetryPolicy::default(),
    );
    for q in &queries {
        let partial = eng.ask_text(q, QueryStrategy::Planned).unwrap();
        assert!(!partial.completeness.is_complete(), "{q}");
    }
    let stats = eng.scan_cache_stats();
    assert_eq!(
        (stats.hits, stats.patches, stats.builds, stats.entries),
        (0, 0, 0, 0),
        "degraded executions touched the scan cache: {stats:?}"
    );
    assert!(stats.bypasses >= queries.len() as u64, "{stats:?}");

    eng.clear_fault_plan();
    let cold = engine(&fsm);
    for q in &queries {
        let got = eng.ask_text(q, QueryStrategy::Planned).unwrap();
        assert!(got.completeness.is_complete());
        let want = cold.ask_text(q, QueryStrategy::Planned).unwrap();
        assert_eq!(got.rows, want.rows, "{q}");
    }
    let stats = eng.scan_cache_stats();
    assert!(stats.builds > 0 && stats.entries > 0, "{stats:?}");
}
