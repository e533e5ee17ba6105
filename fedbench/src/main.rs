//! fedbench: the end-to-end benchmark of fedoo.
//!
//! ```text
//! cargo run --release --offline --manifest-path fedbench/Cargo.toml -- \
//!     --workload <serve_read|serve_write|integrate> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run builds its inputs from the seed, times `--seconds` of work, checks
//! every output, and prints one JSON line: `correct`, `attempted`, `failed`
//! and the metrics. With `--trace 0` the metrics are the end-to-end ones;
//! with `--trace 1` the run is split into an untraced lane and a traced lane
//! and the metrics are the per-layer ones. See README.md.

mod integrate;
mod layers;
mod library;
mod rng;
mod serve_load;
mod stats;

use library::Kind;
use serve_load::{LaneResult, Sample, ServeSpec};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

/// End-to-end metrics: every workload reports each of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("p50_us", "us"),
    ("p99_us", "us"),
];

/// Per-layer metrics of the traced run. A layer a workload does not use
/// reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("lat.point_p50_us", "us"),
    ("lat.scan_p50_us", "us"),
    ("lat.derived_p50_us", "us"),
    ("lat.write_p50_us", "us"),
    ("lat.write_p99_us", "us"),
    ("lat.integrate_equiv_ms", "ms"),
    ("lat.integrate_mixed_ms", "ms"),
    ("mem.peak_rss_mb", "MiB"),
    ("serve.request_us", "us/query"),
    ("serve.queue_us", "us/query"),
    ("serve.pin_us", "us/query"),
    ("serve.respond_us", "us/query"),
    ("serve.engine_builds", "1/query"),
    ("qp.ask_us", "us/query"),
    ("qp.plan_us", "us/query"),
    ("qp.cache_us", "us/query"),
    ("qp.cache_hit_ratio", "ratio"),
    ("qp.cache_lookups", "count"),
    ("qp.execute_us", "us/miss"),
    ("qp.rows_scanned_per_row", "ratio"),
    ("qp.footprint_saves", "1/query"),
    ("qp.extent_stats_us", "us/call"),
    ("qp.engine_build_us", "us/call"),
    ("deduction.demand_us", "us/query"),
    ("deduction.demanded_facts", "1/query"),
    ("deduction.evaluate_us", "us/query"),
    ("deduction.facts_derived", "1/query"),
    ("deduction.apply_us", "us/query"),
    ("deduction.maintained_deltas", "1/query"),
    ("deduction.rederived", "1/query"),
    ("federation.mutate_us", "us/call"),
    ("federation.db_build_us", "us/call"),
    ("federation.materialize_us", "us/query"),
    ("federation.saturate_us", "us/query"),
    ("federation.saturate_demand_us", "us/query"),
    ("analysis.absint_us", "us/query"),
    ("core.pair_checks.equiv", "count"),
    ("core.pair_checks.mixed", "count"),
    ("core.siblings_removed", "count"),
    ("core.integrate_us.equiv", "us"),
    ("core.integrate_us.mixed", "us"),
    ("core.analysis_gate_us.equiv", "us"),
    ("core.analysis_gate_us.mixed", "us"),
    ("core.pair_checks_us.equiv", "us"),
    ("core.pair_checks_us.mixed", "us"),
    ("core.path_labelling_us.equiv", "us"),
    ("core.path_labelling_us.mixed", "us"),
    ("core.finalize_us.equiv", "us"),
    ("core.finalize_us.mixed", "us"),
    ("assertions.closure_us.equiv", "us"),
    ("assertions.closure_us.mixed", "us"),
    ("setup.integrate_us", "us"),
    ("trace.attributed_share", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.dropped", "count"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds}: expected 0 < s ≤ 600"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// One run's result line.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<&'static str, f64>,
    error: Option<String>,
}

impl Report {
    fn new() -> Self {
        Report {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: BTreeMap::new(),
            error: None,
        }
    }

    fn set(&mut self, name: &'static str, value: f64) {
        self.metrics
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    fn fail(&mut self, error: Option<String>) {
        if let Some(e) = error {
            self.correct = false;
            self.error.get_or_insert(e);
        }
    }

    fn add_lane(&mut self, lane: &LaneResult) {
        self.attempted += lane.attempted();
        self.failed += lane.failed;
        self.fail(lane.error.clone());
    }

    /// The JSON line, with every metric of `catalogue` (and only those).
    fn render(&self, catalogue: &[(&str, &str)]) -> String {
        let metrics: Vec<String> = catalogue
            .iter()
            .map(|(name, unit)| {
                let v = self.metrics.get(name).copied().unwrap_or(0.0);
                format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// Peak resident set size of this process so far (VmHWM), MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fedbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match args.workload.as_str() {
        "serve_read" => serve(&args, &serve_load::SERVE_READ, process_start),
        "serve_write" => serve(&args, &serve_load::SERVE_WRITE, process_start),
        "integrate" => integrate_workload(&args, process_start),
        other => {
            eprintln!("fedbench: unknown workload `{other}` (serve_read, serve_write, integrate)");
            return ExitCode::from(2);
        }
    };
    if let Some(e) = &report.error {
        eprintln!("fedbench: check failed: {e}");
    }
    let catalogue = if args.trace { PER_LAYER } else { END_TO_END };
    println!("{}", report.render(catalogue));
    ExitCode::SUCCESS
}

/// Set-up of a serve lane: generate, integrate, connect, warm up.
fn serve_setup(seed: u64, spec: &ServeSpec) -> (library::Library, serve::Server, Option<String>) {
    let lib = library::generate(seed);
    let server = serve_load::connect(&lib);
    let err = serve_load::warm_up(&server, &lib.model, spec, seed).err();
    (lib, server, err)
}

fn is_read(s: &Sample) -> bool {
    s.kind != Kind::Write
}

fn serve(args: &Args, spec: &ServeSpec, process_start: Instant) -> Report {
    let mut r = Report::new();
    let (lib, server, err) = serve_setup(args.seed, spec);
    let setup_s = process_start.elapsed().as_secs_f64();
    r.fail(err);
    let lane_seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let plain = serve_load::run_lane(
        &server,
        &lib.model,
        spec,
        args.seed,
        lane_seconds,
        &mut || {},
    );
    r.add_lane(&plain);
    drop(server);
    if !args.trace {
        r.set("setup_s", setup_s);
        r.set("ops_per_s", plain.ops_per_s());
        r.set("p50_us", plain.p(0.5, is_read));
        r.set("p99_us", plain.p(0.99, is_read));
        return r;
    }

    // Reference figures from the untraced lane.
    r.set("mem.peak_rss_mb", peak_rss_mb());
    r.set("lat.point_p50_us", plain.p(0.5, |s| s.kind == Kind::Point));
    r.set("lat.scan_p50_us", plain.p(0.5, |s| s.kind == Kind::Scan));
    r.set(
        "lat.derived_p50_us",
        plain.p(0.5, |s| s.kind == Kind::Derived),
    );
    r.set("lat.write_p50_us", plain.p(0.5, |s| s.kind == Kind::Write));
    r.set("lat.write_p99_us", plain.p(0.99, |s| s.kind == Kind::Write));

    // The traced lane: a fresh server, its set-up traced too.
    let mut setup = layers::Folded::default();
    layers::start();
    let (lib, server, err) = serve_setup(args.seed, spec);
    setup.drain();
    r.fail(err);
    let mut fold = layers::Folded::default();
    layers::start();
    let traced = serve_load::run_lane(
        &server,
        &lib.model,
        spec,
        args.seed,
        lane_seconds,
        &mut || fold.drain_and_reinstall(),
    );
    fold.drain();
    r.add_lane(&traced);
    let probe = layers::probe_write_path(&lib, 15);

    let queries = traced.samples.iter().filter(|s| is_read(s)).count().max(1) as f64;
    let hits = traced.samples.iter().filter(|s| s.from_cache).count() as f64;
    let misses = (queries - hits).max(1.0);
    let per_q = |us: f64| us / queries;
    let count_q = |name: &str| fold.counter(name) as f64 / queries;
    r.set("serve.request_us", per_q(fold.self_of("serve.request")));
    r.set("serve.queue_us", per_q(fold.self_of("serve.queue")));
    r.set("serve.pin_us", per_q(fold.self_of("serve.pin")));
    r.set("serve.respond_us", per_q(fold.self_of("serve.respond")));
    r.set("serve.engine_builds", first_pins(&traced) / queries);
    r.set("qp.ask_us", per_q(fold.self_of("qp.ask")));
    r.set("qp.plan_us", per_q(fold.self_of("qp.plan")));
    r.set("qp.cache_us", per_q(fold.self_of("qp.cache")));
    r.set("qp.cache_hit_ratio", hits / queries);
    r.set("qp.cache_lookups", queries);
    r.set(
        "qp.execute_us",
        (fold.self_of("qp.execute") + fold.self_prefix("qp.op.")) / misses,
    );
    r.set(
        "qp.rows_scanned_per_row",
        fold.counter("fedoo_qp_rows_scanned_total") as f64
            / fold.counter("fedoo_qp_rows_emitted_total").max(1) as f64,
    );
    r.set(
        "qp.footprint_saves",
        count_q("fedoo_qp_footprint_saves_total"),
    );
    r.set("qp.extent_stats_us", probe.extent_stats_us);
    r.set("qp.engine_build_us", probe.engine_build_us);
    r.set(
        "deduction.demand_us",
        per_q(fold.self_of("deduction.demand")),
    );
    r.set(
        "deduction.demanded_facts",
        count_q("fedoo_deduction_demanded_facts_total"),
    );
    r.set(
        "deduction.evaluate_us",
        per_q(
            fold.self_of("deduction.evaluate")
                + fold.self_of("deduction.stratum")
                + fold.self_of("deduction.fire"),
        ),
    );
    r.set(
        "deduction.facts_derived",
        count_q("fedoo_deduction_facts_derived_total"),
    );
    r.set(
        "deduction.apply_us",
        per_q(fold.self_of("deduction.apply_unit")),
    );
    r.set(
        "deduction.maintained_deltas",
        count_q("fedoo_deduction_maintained_deltas_total"),
    );
    r.set(
        "deduction.rederived",
        count_q("fedoo_deduction_rederived_total"),
    );
    r.set("federation.mutate_us", probe.mutate_us);
    r.set("federation.db_build_us", probe.db_build_us);
    r.set(
        "federation.materialize_us",
        per_q(fold.self_of("federation.materialize")),
    );
    r.set(
        "federation.saturate_us",
        per_q(fold.self_of("federation.saturate")),
    );
    r.set(
        "federation.saturate_demand_us",
        per_q(fold.self_of("federation.saturate_demand")),
    );
    r.set("analysis.absint_us", per_q(fold.self_prefix("analysis.")));
    r.set("setup.integrate_us", integration_self_us(&setup));
    let client_us: f64 = traced.samples.iter().map(|s| s.micros).sum();
    r.set("trace.attributed_share", fold.attributed_us() / client_us);
    r.set(
        "trace.overhead_ratio",
        plain.ops_per_s() / traced.ops_per_s(),
    );
    finish_trace_checks(&mut r, &[&setup, &fold]);
    r
}

/// First pins of a generation, each of which builds its engine: the
/// distinct generations reads were answered at, besides the warmed-up 0.
fn first_pins(lane: &LaneResult) -> f64 {
    let gens: std::collections::BTreeSet<u64> = lane
        .samples
        .iter()
        .filter(|s| is_read(s) && s.generation > 0)
        .map(|s| s.generation)
        .collect();
    gens.len() as f64
}

/// Self time of the integration layers (core, assertions, analysis).
fn integration_self_us(f: &layers::Folded) -> f64 {
    f.self_prefix("core.") + f.self_prefix("assertions.") + f.self_prefix("analysis.")
}

fn finish_trace_checks(r: &mut Report, folds: &[&layers::Folded]) {
    let dropped: u64 = folds.iter().map(|f| f.dropped).sum();
    let unclosed: u64 = folds.iter().map(|f| f.unclosed).sum();
    r.set("trace.dropped", dropped as f64);
    if dropped > 0 || unclosed > 0 {
        r.fail(Some(format!(
            "traced run dropped {dropped} events and left {unclosed} spans open"
        )));
    }
}

fn integrate_workload(args: &Args, process_start: Instant) -> Report {
    let mut r = Report::new();
    let inputs = integrate::generate(args.seed);
    let warm_error = integrate::warm_up(&inputs, serve_load::clients());
    let setup_s = process_start.elapsed().as_secs_f64();
    r.fail(warm_error);
    let lane_seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let pairs_per_round = (inputs.equiv.len() + inputs.mixed.len()) as u64;
    let plain = integrate::run_rounds(&inputs, lane_seconds, serve_load::clients());
    r.attempted += pairs_per_round * plain.rounds.len() as u64;
    r.fail(plain.error.clone());
    r.fail(integrate::oracle_checks(args.seed).err());
    if !args.trace {
        // Timed at each pair's best (see `RoundResult::best_micros`): one
        // thread's integrations per second, and quantiles over the pairs.
        let best = plain.best_micros();
        r.set("setup_s", setup_s);
        r.set(
            "ops_per_s",
            best.len() as f64 * 1e6 / best.iter().sum::<f64>(),
        );
        r.set("p50_us", stats::median(best.clone()));
        r.set("p99_us", stats::quantile(best, 0.99));
        return r;
    }
    r.set("mem.peak_rss_mb", peak_rss_mb());
    r.set("lat.integrate_equiv_ms", plain.equiv_ms());
    r.set("lat.integrate_mixed_ms", plain.mixed_ms());

    // Traced set-up, then traced rounds folded per pair kind.
    let mut setup = layers::Folded::default();
    layers::start();
    let inputs = integrate::generate(args.seed);
    r.fail(integrate::warm_up(&inputs, serve_load::clients()));
    setup.drain();
    let (mut equiv, mut mixed) = (layers::Folded::default(), layers::Folded::default());
    // Each traced round follows an untraced round on the same thread, so
    // the overhead ratio compares like with like at the same moment.
    let (mut timed, mut untraced, mut rounds) = (0.0f64, 0.0f64, 0u64);
    while timed + untraced < lane_seconds {
        let (times, err) = integrate::round(&inputs);
        untraced += times.iter().sum::<f64>() / 1e6;
        r.fail(err);
        for (pairs, fold, all_equiv) in [
            (&inputs.equiv, &mut equiv, true),
            (&inputs.mixed, &mut mixed, false),
        ] {
            for pair in pairs {
                layers::start();
                let t = Instant::now();
                let run = integrate::integrate(pair);
                timed += t.elapsed().as_secs_f64();
                fold.drain();
                if all_equiv {
                    r.fail(integrate::check_all_equiv(pair, &run).err());
                }
            }
        }
        rounds += 1;
    }
    r.attempted += 2 * pairs_per_round * rounds;
    // Per integration of one pair of the kind.
    let runs = (rounds * integrate::PAIRS as u64) as f64;
    let per = |f: &layers::Folded, name: &str| f.self_of(name) / runs;
    let per_counter = |f: &layers::Folded, name: &str| f.counter(name) as f64 / runs;
    r.set(
        "core.pair_checks.equiv",
        per_counter(&equiv, "fedoo_core_pairs_checked_total"),
    );
    r.set(
        "core.pair_checks.mixed",
        per_counter(&mixed, "fedoo_core_pairs_checked_total"),
    );
    r.set(
        "core.siblings_removed",
        per_counter(&equiv, "fedoo_core_pairs_removed_as_siblings_total"),
    );
    let spans = [
        "core.integrate",
        "core.analysis_gate",
        "core.pair_checks",
        "core.path_labelling",
        "core.finalize",
        "assertions.closure",
    ];
    let equiv_names = [
        "core.integrate_us.equiv",
        "core.analysis_gate_us.equiv",
        "core.pair_checks_us.equiv",
        "core.path_labelling_us.equiv",
        "core.finalize_us.equiv",
        "assertions.closure_us.equiv",
    ];
    let mixed_names = [
        "core.integrate_us.mixed",
        "core.analysis_gate_us.mixed",
        "core.pair_checks_us.mixed",
        "core.path_labelling_us.mixed",
        "core.finalize_us.mixed",
        "assertions.closure_us.mixed",
    ];
    for (f, names) in [(&equiv, equiv_names), (&mixed, mixed_names)] {
        for (metric, span) in names.into_iter().zip(spans) {
            r.set(metric, per(f, span));
        }
    }
    r.set("setup.integrate_us", integration_self_us(&setup));
    let attributed = equiv.attributed_us() + mixed.attributed_us();
    r.set("trace.attributed_share", attributed / (timed * 1e6));
    r.set("trace.overhead_ratio", timed / untraced);
    finish_trace_checks(&mut r, &[&setup, &equiv, &mixed]);
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::export::{parse_json, Json};

    /// The metric lists here and in BENCHMARK.json are the same, in order.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let doc = parse_json(&text).expect("BENCHMARK.json parses");
        for (key, ours) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = doc
                .get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = ours
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
    }

    #[test]
    fn report_renders_every_metric_once() {
        let mut r = Report::new();
        r.set("p99_us", 12.5);
        r.set("setup_s", f64::NAN);
        let line = r.render(END_TO_END);
        let v = parse_json(&line).unwrap();
        let Some(Json::Obj(m)) = v.get("metrics") else {
            panic!("metrics object")
        };
        assert_eq!(m.len(), END_TO_END.len());
        assert_eq!(
            v.get("metrics")
                .and_then(|m| m.get("p99_us"))
                .and_then(|x| x.get("value")),
            Some(&Json::Num(12.5))
        );
    }
}
