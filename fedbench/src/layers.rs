//! Per-layer attribution for the traced run.
//!
//! The program's own `fedoo-obs` sink is installed for the traced lane
//! only. Between phases the benchmark drains it and folds the spans into
//! per-span self times: a span's self time is its duration minus the time
//! its child spans on the same thread cover. The program's counters are
//! summed the same way. Layers the program has no spans for are timed by
//! the benchmark itself, by calling into the layer directly
//! ([`probe_write_path`]).

use fedoo::federation::{FederationDb, GenerationStore};
use fedoo::model::Value;
use fedoo::qp::{Planner, QueryEngine, QueryStrategy};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Ring capacity of the sink. One phase must fit, so nothing is dropped.
pub const RING: usize = 1 << 20;

/// Self times and counters accumulated over a traced lane.
#[derive(Debug, Default, Clone)]
pub struct Folded {
    /// Span name → total self time, µs.
    pub self_us: BTreeMap<String, f64>,
    pub counters: BTreeMap<String, u64>,
    /// Events the sink dropped (must stay 0).
    pub dropped: u64,
    /// Begin events left without an End when a drain happened.
    pub unclosed: u64,
}

impl Folded {
    pub fn self_of(&self, name: &str) -> f64 {
        self.self_us.get(name).copied().unwrap_or(0.0)
    }

    /// Self time of every span whose name starts with `prefix`.
    pub fn self_prefix(&self, prefix: &str) -> f64 {
        self.self_us
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| v)
            .sum()
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Self time of the spans that name a layer: every span except the
    /// `serve.request` envelope, whose self time is unattributed.
    pub fn attributed_us(&self) -> f64 {
        self.self_us
            .iter()
            .filter(|(k, _)| k.as_str() != obs::report::REQUEST_SPAN)
            .map(|(_, v)| v)
            .sum()
    }

    /// Drain the installed sink into this fold and install a fresh one.
    pub fn drain_and_reinstall(&mut self) {
        self.drain();
        start();
    }

    /// Drain the installed sink into this fold, leaving none installed.
    pub fn drain(&mut self) {
        if let Some(session) = obs::uninstall() {
            self.fold(&session.trace);
            for (name, v) in &session.metrics.counters {
                *self
                    .counters
                    .entry(obs::split_labels(name).0.to_string())
                    .or_default() += v;
            }
        }
    }

    fn fold(&mut self, trace: &obs::Trace) {
        self.dropped += trace.dropped;
        // Per thread: open spans as (name, begin µs, child µs).
        let mut stacks: BTreeMap<u64, Vec<(&str, u64, u64)>> = BTreeMap::new();
        for ev in &trace.events {
            let stack = stacks.entry(ev.tid).or_default();
            match ev.phase {
                obs::Phase::Begin => stack.push((&ev.name, ev.ts_us, 0)),
                obs::Phase::End => {
                    let Some((name, begin, child)) = stack.pop() else {
                        continue;
                    };
                    let dur = ev.ts_us.saturating_sub(begin);
                    *self.self_us.entry(name.to_string()).or_default() +=
                        dur.saturating_sub(child) as f64;
                    if let Some(parent) = stack.last_mut() {
                        parent.2 += dur;
                    }
                }
                obs::Phase::Instant => {}
            }
        }
        self.unclosed += stacks.values().map(|s| s.len() as u64).sum::<u64>();
    }
}

/// Install the sink for a traced stretch.
pub fn start() {
    obs::install_with_capacity(RING, obs::TimeSource::monotonic());
}

/// Medians of direct calls into the write path's layers, µs.
#[derive(Debug, Default, Clone, Copy)]
pub struct WriteProbe {
    /// `GenerationStore::mutate`: clone, create one object, install.
    pub mutate_us: f64,
    /// `Planner::collect_extent_rows` over one generation.
    pub extent_stats_us: f64,
    /// `QueryEngine::from_parts_arc` + `adopt_saturate_state`.
    pub engine_build_us: f64,
    /// `FederationDb::build` over one generation.
    pub db_build_us: f64,
}

/// Time each layer of the write path on the library federation, `reps`
/// times each, with the sink uninstalled.
pub fn probe_write_path(lib: &crate::library::Library, reps: usize) -> WriteProbe {
    let median = crate::stats::median;
    let store = GenerationStore::new(lib.components.clone());
    let mut mutate = Vec::with_capacity(reps);
    for k in 0..reps {
        let t = Instant::now();
        let (res, _) = store.mutate(|comps| {
            let (schema, st) = &mut comps[0];
            st.create(schema, "book", |o| {
                o.with_attr("title", Value::Str(format!("probe{k}")))
                    .with_attr("year", Value::Int(1950))
            })
            .map(|_| ())
        });
        mutate.push(t.elapsed().as_secs_f64() * 1e6);
        res.expect("probe write is valid");
    }
    let gen = store.pin();
    let comps = gen.components();
    let mut extent = Vec::with_capacity(reps);
    let mut db = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        std::hint::black_box(Planner::collect_extent_rows(&comps));
        extent.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        std::hint::black_box(
            FederationDb::build(&lib.global, &comps, &lib.meta).expect("federation builds"),
        );
        db.push(t.elapsed().as_secs_f64() * 1e6);
    }
    // A donor engine with a maintained materialization, as a serving
    // generation has after its first saturate read.
    let donor = QueryEngine::from_parts_arc(
        lib.global.clone(),
        Arc::new(lib.components.clone()),
        lib.meta.clone(),
    );
    donor
        .ask_text(
            "?- <X: member | mssn: M>, M = \"ssn0\", <X: rec>.",
            QueryStrategy::Saturate,
        )
        .expect("donor saturates");
    let mut build = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        let engine =
            QueryEngine::from_parts_arc(lib.global.clone(), Arc::clone(&comps), lib.meta.clone());
        engine.adopt_saturate_state(&donor);
        build.push(t.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(engine);
    }
    WriteProbe {
        mutate_us: median(mutate),
        extent_stats_us: median(extent),
        engine_build_us: median(build),
        db_build_us: median(db),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::{Event, Phase, Trace};

    fn ev(name: &str, phase: Phase, ts_us: u64, tid: u64) -> Event {
        Event {
            name: name.into(),
            cat: "t".into(),
            phase,
            ts_us,
            tid,
            detail: None,
        }
    }

    #[test]
    fn self_time_subtracts_children_per_thread() {
        let trace = Trace {
            events: vec![
                ev("serve.request", Phase::Begin, 0, 1),
                ev("qp.plan", Phase::Begin, 10, 1),
                ev("serve.request", Phase::Begin, 12, 2),
                ev("qp.plan", Phase::End, 40, 1),
                ev("serve.request", Phase::End, 20, 2),
                ev("serve.request", Phase::End, 100, 1),
            ],
            dropped: 0,
        };
        let mut f = Folded::default();
        f.fold(&trace);
        assert_eq!(f.self_of("qp.plan"), 30.0);
        assert_eq!(f.self_of("serve.request"), 70.0 + 8.0);
        assert_eq!(f.attributed_us(), 30.0);
        assert_eq!(f.unclosed, 0);
    }
}
