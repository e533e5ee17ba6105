//! Where the optimized integration's wall time goes as n grows (§6.3):
//! per phase, the median self time of its `core.*` span over traced runs
//! of all-≡ mirrored trees (`core.integrate`'s own time is the graph and
//! relation-table build), and the growth from the smallest to the
//! largest n. The paper's O(n) holds in wall time when every phase grows
//! about as n does.
//!
//! `cargo bench -q -p fedoo-bench --bench integration_phases`

use fedoo::core::optimized::schema_integration_with_trace;
use fedoo_bench::{mirrored_trees, AssertionMix};
use std::collections::BTreeMap;
use std::time::Instant;

const SIZES: [usize; 3] = [128, 256, 512];
const RUNS: usize = 101;
const PHASES: [&str; 4] = [
    "core.analysis_gate",
    "core.pair_checks",
    "core.finalize",
    "core.integrate",
];

/// Self time per span name, µs: each span's duration minus its children's
/// on the same thread.
fn self_times(trace: &obs::Trace) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    let mut open: BTreeMap<u64, Vec<(&str, u64, u64)>> = BTreeMap::new();
    for ev in &trace.events {
        let stack = open.entry(ev.tid).or_default();
        match ev.phase {
            obs::Phase::Begin => stack.push((&ev.name, ev.ts_us, 0)),
            obs::Phase::End => {
                let Some((name, begin, child)) = stack.pop() else {
                    continue;
                };
                let dur = ev.ts_us.saturating_sub(begin);
                *out.entry(name.to_string()).or_default() += dur.saturating_sub(child);
                if let Some(parent) = stack.last_mut() {
                    parent.2 += dur;
                }
            }
            obs::Phase::Instant => {}
        }
    }
    out
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

fn main() {
    println!(
        "| n | untraced best ms | gate ms | pair checks ms | finalize ms | graphs and table ms |"
    );
    println!("|---|---|---|---|---|---|");
    let mut rows = Vec::new();
    for n in SIZES {
        let pair = mirrored_trees(n, 3, AssertionMix::all_equiv(), 42);
        let run =
            || schema_integration_with_trace(&pair.s1, &pair.s2, &pair.assertions, false).unwrap();
        let mut best = f64::MAX;
        for _ in 0..RUNS {
            let t = Instant::now();
            std::hint::black_box(run());
            best = best.min(t.elapsed().as_secs_f64() * 1e3);
        }
        let mut phases: Vec<Vec<f64>> = vec![Vec::with_capacity(RUNS); PHASES.len()];
        for _ in 0..RUNS {
            obs::install(obs::TimeSource::monotonic());
            std::hint::black_box(run());
            let trace = obs::uninstall().expect("sink installed").trace;
            let times = self_times(&trace);
            for (p, name) in PHASES.iter().enumerate() {
                phases[p].push(times.get(*name).copied().unwrap_or(0) as f64 / 1e3);
            }
        }
        let row: Vec<f64> = phases.into_iter().map(median).collect();
        println!(
            "| {n} | {best:.2} | {:.3} | {:.3} | {:.3} | {:.3} |",
            row[0], row[1], row[2], row[3]
        );
        rows.push((best, row));
    }
    let (first, last) = (&rows[0], &rows[rows.len() - 1]);
    let growth = |a: f64, b: f64| b / a;
    println!(
        "\ngrowth n = {} → {}: total {:.1}×, gate {:.1}×, pair checks {:.1}×, finalize {:.1}×, graphs and table {:.1}×",
        SIZES[0],
        SIZES[SIZES.len() - 1],
        growth(first.0, last.0),
        growth(first.1[0], last.1[0]),
        growth(first.1[1], last.1[1]),
        growth(first.1[2], last.1[2]),
        growth(first.1[3], last.1[3]),
    );
}
