//! How a write reaches the lineage's shared saturate state: by the
//! base-fact delta of the store diff (`mode=diff`) when every changed
//! object's fact is its own, by a base rebuild (`mode=rebuild`) when a
//! changed object feeds a concatenation origin or has a pairing partner.
//! Either way every answer equals a fresh engine's at its generation.
//!
//! Every test here installs the process-global obs sink, so each holds
//! `obs::test_guard()` and the sync counters it reads are its own.

use assertions::{AttrCorr, AttrOp, ClassAssertion, ClassOp, SPath};
use federation::{Agent, Fsm, IntegrationStrategy, MetaRegistry};
use oo_model::{AttrType, InstanceStore, Oid, SchemaBuilder, Value};
use qp::{QueryEngine, QueryStrategy};
use serve::{ServeConfig, Server};
use std::sync::Arc;

/// `S1.book ≡ S2.publication` with title/year correspondences.
fn library_fsm() -> Fsm {
    let s1 = SchemaBuilder::new("S1")
        .class("book", |c| {
            c.attr("title", AttrType::Str).attr("year", AttrType::Int)
        })
        .build()
        .unwrap();
    let mut st1 = InstanceStore::new();
    for (title, year) in [("Logic", 1979i64), ("Sets", 1985)] {
        st1.create(&s1, "book", |o| {
            o.with_attr("title", title).with_attr("year", year)
        })
        .unwrap();
    }
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

/// `S1.person ≡ S2.human` whose city and street compose into `address`:
/// a person's fact reads its partner's street.
fn address_fsm() -> Fsm {
    let s1 = SchemaBuilder::new("S1")
        .class("person", |c| {
            c.attr("ssn", AttrType::Str).attr("city", AttrType::Str)
        })
        .build()
        .unwrap();
    let mut st1 = InstanceStore::new();
    st1.create(&s1, "person", |o| {
        o.with_attr("ssn", "1").with_attr("city", "Darmstadt")
    })
    .unwrap();
    let s2 = SchemaBuilder::new("S2")
        .class("human", |c| {
            c.attr("ssn", AttrType::Str).attr("street", AttrType::Str)
        })
        .build()
        .unwrap();
    let mut st2 = InstanceStore::new();
    st2.create(&s2, "human", |o| {
        o.with_attr("ssn", "1").with_attr("street", "Dolivostr. 15")
    })
    .unwrap();
    let mut fsm = Fsm::new();
    fsm.register(Agent::object_oriented("a1", s1, st1), "S1")
        .unwrap();
    fsm.register(Agent::object_oriented("a2", s2, st2), "S2")
        .unwrap();
    fsm.add_assertion(
        ClassAssertion::simple("S1", "person", ClassOp::Equiv, "S2", "human")
            .attr_corr(AttrCorr::new(
                SPath::attr("S1", "person", "ssn"),
                AttrOp::Equiv,
                SPath::attr("S2", "human", "ssn"),
            ))
            .attr_corr(AttrCorr::new(
                SPath::attr("S1", "person", "city"),
                AttrOp::ComposedInto("address".into()),
                SPath::attr("S2", "human", "street"),
            )),
    );
    fsm.meta
        .pairing
        .pair(Oid::local("person", 1), Oid::local("human", 1));
    fsm
}

/// `(diff, rebuild)` sync counts recorded in `metrics`.
fn sync_counts(metrics: &obs::MetricsSnapshot) -> (u64, u64) {
    let count = |mode| metrics.counter(&obs::labeled("fedoo_qp_saturate_sync_total", "mode", mode));
    (count("diff"), count("rebuild"))
}

/// The saturate rows a fresh engine (no shared state) gives at
/// `engine`'s snapshot of the federation with registry `meta`.
fn fresh_rows(engine: &QueryEngine, meta: &MetaRegistry, query: &str) -> Vec<Vec<Value>> {
    QueryEngine::from_parts_arc(
        engine.global().clone(),
        engine.components_arc(),
        meta.clone(),
    )
    .ask_text(query, QueryStrategy::Saturate)
    .unwrap()
    .rows
}

/// Serve `fsm` and send `writes` mutate lines, each followed by a
/// `Saturate` read at the new generation (bypassing the result cache, so
/// every read syncs the shared state); return the sync counts.
fn write_then_saturate(fsm: &Fsm, query: &str, writes: &[String]) -> (u64, u64) {
    let server = Server::connect(
        fsm,
        IntegrationStrategy::Accumulation,
        ServeConfig::default(),
    )
    .unwrap();
    let (_, engine) = server.pinned_engine();
    engine.ask_text(query, QueryStrategy::Saturate).unwrap();
    obs::install(obs::TimeSource::monotonic());
    for line in writes {
        let handled = server.handle_line(line);
        assert!(
            handled.response.starts_with("{\"ok\":true"),
            "{}",
            handled.response
        );
        let (_, engine) = server.pinned_engine();
        let got = engine.ask_analyze(query, QueryStrategy::Saturate).unwrap();
        assert_eq!(got.answer.rows, fresh_rows(&engine, &fsm.meta, query));
    }
    sync_counts(&obs::uninstall().expect("installed above").metrics)
}

#[test]
fn library_writes_sync_by_store_diff() {
    let _guard = obs::test_guard();
    let fsm = library_fsm();
    let global = fsm.integrate(IntegrationStrategy::Accumulation).unwrap();
    let class = global.global_class("S1", "book").unwrap();
    let query = format!("?- <X: {class} | title: T, year: Y>.");
    const N: u64 = 6;
    let writes: Vec<String> = (0..N)
        .map(|i| {
            if i % 2 == 0 {
                format!(
                    "{{\"op\":\"mutate\",\"component\":0,\"class\":\"book\",\
                     \"set\":{{\"title\":\"w{i}\",\"year\":{}}}}}",
                    2000 + i
                )
            } else {
                format!(
                    "{{\"op\":\"mutate\",\"component\":1,\"class\":\"publication\",\
                     \"set\":{{\"ptitle\":\"w{i}\",\"pyear\":{}}}}}",
                    2000 + i
                )
            }
        })
        .collect();
    assert_eq!(write_then_saturate(&fsm, &query, &writes), (N, 0));
}

#[test]
fn concat_origin_writes_rebuild_the_base() {
    let _guard = obs::test_guard();
    let query = "?- <X: person | address: A>.";
    let writes: Vec<String> = (0..3)
        .map(|i| {
            format!(
                "{{\"op\":\"mutate\",\"component\":0,\"class\":\"person\",\
                 \"set\":{{\"ssn\":\"s{i}\",\"city\":\"c{i}\"}}}}"
            )
        })
        .collect();
    assert_eq!(write_then_saturate(&address_fsm(), query, &writes), (0, 3));
}

/// Updating a paired object rebuilds (its partner's facts and the
/// identity bridge read it); updating an unpaired one in the same
/// federation syncs by diff. Moving back to the first engine's snapshot
/// crosses the paired update again, so it rebuilds.
#[test]
fn paired_objects_rebuild_unpaired_ones_diff() {
    let _guard = obs::test_guard();
    let mut fsm = library_fsm();
    fsm.meta
        .pairing
        .pair(Oid::local("book", 1), Oid::local("publication", 1));
    let gen0 = QueryEngine::connect(&fsm, IntegrationStrategy::Accumulation).unwrap();
    let class = gen0.global().global_class("S1", "book").unwrap();
    let query = format!("?- <X: {class} | title: T, year: Y>.");
    gen0.ask_text(&query, QueryStrategy::Saturate).unwrap();

    let retitle = |engine: &QueryEngine, oid: Oid, title: &str| {
        let mut next = engine.components().to_vec();
        let (schema, store) = &mut next[0];
        store
            .update(schema, &oid, |o| o.with_attr("title", title))
            .unwrap();
        engine.successor(Arc::new(next))
    };
    obs::install(obs::TimeSource::monotonic());
    let gen1 = retitle(&gen0, Oid::local("book", 1), "Paired");
    let gen2 = retitle(&gen1, Oid::local("book", 2), "Unpaired");
    let mut counts = Vec::new();
    for engine in [&gen1, &gen2, &gen0] {
        let got = engine.ask_analyze(&query, QueryStrategy::Saturate).unwrap();
        assert_eq!(got.answer.rows, fresh_rows(engine, &fsm.meta, &query));
        counts.push(sync_counts(&obs::metrics_snapshot().expect("installed")));
    }
    let _ = obs::uninstall();
    // gen0 → gen1 touches the paired object; gen1 → gen2 only the
    // unpaired one; gen2 → gen0 touches both, so it rebuilds again.
    assert_eq!(counts, vec![(0, 1), (1, 1), (1, 2)]);
}

/// `S1.course ∩ S2.staff` on `code`/`sssn`, with courses 1 and 2 and
/// staff 1, and course 1 paired with staff 1: `course_staff` is derived.
fn intersect_fsm() -> Fsm {
    let s1 = SchemaBuilder::new("S1")
        .class("course", |c| {
            c.attr("code", AttrType::Str).attr("credits", AttrType::Int)
        })
        .build()
        .unwrap();
    let mut st1 = InstanceStore::new();
    for (code, credits) in [("k1", 5i64), ("k2", 6)] {
        st1.create(&s1, "course", |o| {
            o.with_attr("code", code).with_attr("credits", credits)
        })
        .unwrap();
    }
    let s2 = SchemaBuilder::new("S2")
        .class("staff", |c| {
            c.attr("sssn", AttrType::Str).attr("salary", AttrType::Int)
        })
        .build()
        .unwrap();
    let mut st2 = InstanceStore::new();
    st2.create(&s2, "staff", |o| {
        o.with_attr("sssn", "k1").with_attr("salary", 900i64)
    })
    .unwrap();
    let mut fsm = Fsm::new();
    fsm.register(Agent::object_oriented("a1", s1, st1), "S1")
        .unwrap();
    fsm.register(Agent::object_oriented("a2", s2, st2), "S2")
        .unwrap();
    fsm.add_assertion(
        ClassAssertion::simple("S1", "course", ClassOp::Intersect, "S2", "staff").attr_corr(
            AttrCorr::new(
                SPath::attr("S1", "course", "code"),
                AttrOp::Equiv,
                SPath::attr("S2", "staff", "sssn"),
            ),
        ),
    );
    fsm.meta
        .pairing
        .pair(Oid::local("course", 1), Oid::local("staff", 1));
    fsm
}

/// A planned derived read on a warm lineage reads the maintained state
/// only where that state answers for its snapshot or reaches it by store
/// diff. Past a paired object's write it evaluates its own relevance
/// closure instead: the shared base is rebuilt only by `Saturate`.
#[test]
fn planned_derived_reads_sync_only_by_diff() {
    let _guard = obs::test_guard();
    let fsm = intersect_fsm();
    let gen0 = QueryEngine::connect(&fsm, IntegrationStrategy::Accumulation).unwrap();
    let query = "?- <X: course_staff>, <X: course | credits: K>.";
    gen0.ask_text(query, QueryStrategy::Saturate).unwrap();
    assert!(gen0.is_warm());

    let recredit = |engine: &QueryEngine, n: u64, credits: i64| {
        let mut next = engine.components().to_vec();
        let (schema, store) = &mut next[0];
        store
            .update(schema, &Oid::local("course", n), |o| {
                o.with_attr("credits", credits)
            })
            .unwrap();
        engine.successor(Arc::new(next))
    };
    obs::install(obs::TimeSource::monotonic());
    let gen1 = recredit(&gen0, 2, 7);
    let gen2 = recredit(&gen1, 1, 8);
    let mut counts = Vec::new();
    for (engine, strategy) in [
        // gen0 → gen1 changes an unpaired course: a diff.
        (&gen1, QueryStrategy::Planned),
        // gen1 → gen2 changes the paired course: no sync.
        (&gen2, QueryStrategy::Planned),
        // Saturate rebuilds; a planned read then needs no sync.
        (&gen2, QueryStrategy::Saturate),
        (&gen2, QueryStrategy::Planned),
        // Back to gen0 crosses the paired write again: no sync.
        (&gen0, QueryStrategy::Planned),
    ] {
        let got = engine.ask_analyze(query, strategy).unwrap();
        assert_eq!(got.answer.rows, fresh_rows(engine, &fsm.meta, query));
        counts.push(sync_counts(&obs::metrics_snapshot().expect("installed")));
    }
    let _ = obs::uninstall();
    assert_eq!(counts, vec![(1, 0), (1, 0), (1, 1), (1, 1), (1, 1)]);
}
