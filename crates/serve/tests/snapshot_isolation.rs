//! The snapshot-isolation property: a reader pinned to generation G
//! observes exactly generation G's rows no matter how many writers
//! install G+1, G+2, … around it — and at every generation the planned
//! strategy and the saturate-everything reference agree row-for-row.
//!
//! The proptest interleaves random mutations (each installs a new
//! generation through the real protocol path) with reads from both a
//! pinned stale engine and freshly pinned current engines, then checks
//! the pinned view byte-stable and the two strategies differential.

use federation::{Agent, Fsm, IntegrationStrategy};
use oo_model::{AttrType, InstanceStore, SchemaBuilder, Value};
use proptest::prelude::*;
use qp::QueryStrategy;
use serve::{ServeConfig, Server};

fn library_fsm() -> Fsm {
    let s1 = SchemaBuilder::new("S1")
        .class("book", |c| {
            c.attr("title", AttrType::Str).attr("year", AttrType::Int)
        })
        .build()
        .unwrap();
    let mut st1 = InstanceStore::new();
    st1.create(&s1, "book", |o| {
        o.with_attr("title", "Logic").with_attr("year", 1979i64)
    })
    .unwrap();
    let s2 = SchemaBuilder::new("S2")
        .class("publication", |c| {
            c.attr("ptitle", AttrType::Str).attr("pyear", AttrType::Int)
        })
        .build()
        .unwrap();
    let mut st2 = InstanceStore::new();
    st2.create(&s2, "publication", |o| {
        o.with_attr("ptitle", "Models").with_attr("pyear", 1990i64)
    })
    .unwrap();
    let mut fsm = Fsm::new();
    fsm.register(Agent::object_oriented("a1", s1, st1), "S1")
        .unwrap();
    fsm.register(Agent::object_oriented("a2", s2, st2), "S2")
        .unwrap();
    fsm.add_assertions_text(
        "assert S1.book == S2.publication {\n\
             attr S1.book.title == S2.publication.ptitle;\n\
             attr S1.book.year == S2.publication.pyear;\n\
         }",
    )
    .unwrap();
    fsm
}

fn query_for(server: &Server) -> String {
    let (_, engine) = server.pinned_engine();
    let class = engine.global().global_class("S1", "book").unwrap();
    format!("?- <X: {class} | title: T, year: Y>.")
}

fn rows_at(engine: &qp::QueryEngine, query: &str, strategy: QueryStrategy) -> Vec<Vec<Value>> {
    let answer = engine.ask_text(query, strategy).unwrap();
    assert!(
        answer.completeness.is_complete(),
        "fault-free reads are complete"
    );
    answer.rows
}

/// One step of the interleaving.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Install a new generation with one new book (`year` varies).
    Mutate(u8),
    /// Read the current generation with both strategies and compare.
    Read,
    /// Re-pin the stale reader's query and require generation-G rows.
    StaleRead,
}

fn steps() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec(
        prop_oneof![
            (0u8..200).prop_map(Step::Mutate),
            Just(Step::Read),
            Just(Step::StaleRead),
        ],
        1..14,
    )
}

/// The mutation soak: k generations install by *delta* — each new
/// engine adopts the previous generation's maintained materialization
/// and folds in the base diff — while a reader stays pinned at every
/// intermediate generation. Afterwards every pinned reader must be
/// byte-stable (both strategies), no install may have triggered a full
/// re-saturation, and the delta work must be visible on the
/// `fedoo_deduction_delta_facts_total` counter.
#[test]
fn delta_installed_generations_keep_pinned_readers_byte_stable() {
    let _guard = obs::test_guard();
    let server = Server::connect(
        &library_fsm(),
        IntegrationStrategy::Accumulation,
        ServeConfig::default(),
    )
    .unwrap();
    let query = query_for(&server);

    // Phase 1 (counted separately): the first Saturate ask pays the one
    // full saturation that seeds the materialization.
    obs::install(obs::TimeSource::monotonic());
    let (gen0, engine0) = server.pinned_engine();
    let rows0 = rows_at(&engine0, &query, QueryStrategy::Saturate);
    let warmup = obs::uninstall().expect("installed above");
    let full_derived = warmup
        .metrics
        .counter("fedoo_deduction_facts_derived_total");
    assert_eq!(gen0.number(), 0);

    // Phase 2: k delta installs, pinning (and saturating) every
    // intermediate generation so each engine hands its state forward.
    const K: usize = 6;
    obs::install(obs::TimeSource::monotonic());
    let mut pins = vec![(engine0, rows0.clone())];
    for step in 0..K {
        let line = format!(
            "{{\"op\":\"mutate\",\"component\":0,\"class\":\"book\",\
             \"set\":{{\"title\":\"soak_{step}\",\"year\":{}}}}}",
            2000 + step
        );
        let handled = server.handle_line(&line);
        assert!(
            handled.response.starts_with("{\"ok\":true"),
            "{}",
            handled.response
        );
        let (generation, engine) = server.pinned_engine();
        assert_eq!(generation.number() as usize, step + 1);
        let rows = rows_at(&engine, &query, QueryStrategy::Saturate);
        assert_eq!(rows.len(), rows0.len() + step + 1, "each write lands once");
        pins.push((engine, rows));
    }
    let session = obs::uninstall().expect("installed above");
    let deltas = session.metrics.counter("fedoo_deduction_delta_facts_total");
    let rederived = session
        .metrics
        .counter("fedoo_deduction_facts_derived_total");
    assert!(
        deltas >= K as u64,
        "every install must flow through the delta maintainer: {deltas}"
    );
    assert_eq!(
        rederived, 0,
        "no install may pay a full re-saturation (seed cost was {full_derived})"
    );
    // Each of the K installs runs the maintainer exactly once. (The
    // per-unit apply spans are pinned in `deduction::materialize` tests —
    // this library program derives nothing from `book`, so its installs
    // touch no unit.)
    assert_eq!(
        session
            .metrics
            .counter("fedoo_deduction_maintained_deltas_total"),
        K as u64,
        "one maintained delta per install"
    );

    // Phase 3: every pinned reader is byte-stable under both strategies,
    // in spite of the shared result cache and the adopted state.
    for (engine, rows) in &pins {
        let planned = rows_at(engine, &query, QueryStrategy::Planned);
        assert_eq!(&planned, rows, "pinned planned view drifted");
        let saturate = rows_at(engine, &query, QueryStrategy::Saturate);
        assert_eq!(&saturate, rows, "pinned saturate view drifted");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn pinned_readers_never_observe_later_generations(ops in steps()) {
        // Mutations and saturations here feed the process-global obs
        // counters; hold the guard so the soak's exact counts stay its own.
        let _guard = obs::test_guard();
        let server = Server::connect(
            &library_fsm(),
            IntegrationStrategy::Accumulation,
            ServeConfig::default(),
        )
        .unwrap();
        let query = query_for(&server);

        // The stale reader: pinned at generation 0 before any writes.
        let (gen0, engine0) = server.pinned_engine();
        prop_assert_eq!(gen0.number(), 0);
        let rows0 = rows_at(&engine0, &query, QueryStrategy::Planned);

        let mut installed = 0u64;
        for (seq, op) in ops.iter().enumerate() {
            match op {
                Step::Mutate(year) => {
                    let line = format!(
                        "{{\"op\":\"mutate\",\"component\":0,\"class\":\"book\",\
                         \"set\":{{\"title\":\"new_{seq}\",\"year\":{}}}}}",
                        1900 + u64::from(*year)
                    );
                    let handled = server.handle_line(&line);
                    prop_assert!(handled.response.starts_with("{\"ok\":true"), "{}", handled.response);
                    installed += 1;
                    prop_assert_eq!(server.generation(), installed);
                }
                Step::Read => {
                    let (generation, engine) = server.pinned_engine();
                    prop_assert_eq!(generation.number(), installed);
                    // Differential per generation: the cost-based plan
                    // and the saturate-everything reference agree.
                    let planned = rows_at(&engine, &query, QueryStrategy::Planned);
                    let saturate = rows_at(&engine, &query, QueryStrategy::Saturate);
                    prop_assert_eq!(&planned, &saturate);
                    // Every installed write is visible exactly once.
                    prop_assert_eq!(planned.len() as u64, rows0.len() as u64 + installed);
                }
                Step::StaleRead => {
                    // The generation-0 pin is immutable: later installs
                    // never leak into it, with either strategy.
                    let now = rows_at(&engine0, &query, QueryStrategy::Planned);
                    prop_assert_eq!(&now, &rows0);
                    let sat = rows_at(&engine0, &query, QueryStrategy::Saturate);
                    prop_assert_eq!(&sat, &rows0);
                }
            }
        }

        // Epilogue: the stale pin still answers generation 0 even after
        // the whole interleaving, and a fresh pin sees everything.
        prop_assert_eq!(&rows_at(&engine0, &query, QueryStrategy::Planned), &rows0);
        let (_, fresh) = server.pinned_engine();
        prop_assert_eq!(
            rows_at(&fresh, &query, QueryStrategy::Planned).len() as u64,
            rows0.len() as u64 + installed
        );
    }
}
