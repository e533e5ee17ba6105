//! End-to-end observability: a traced serve session, analyzed offline by
//! the same `obs::report` pipeline `fedoo obs report` runs.
//!
//! Pins the request-identity contract across the whole stack:
//!
//! * every JSONL response echoes a `request_id`, and every one of those
//!   ids appears as the root of a `serve.request` span tree in the trace
//!   (so the offline report can join responses to their latency
//!   breakdown);
//! * `fedoo obs report --format json` is byte-deterministic over a fixed
//!   trace file;
//! * the report attributes the named phases (queue/plan/cache/execute/
//!   respond) for slow requests, and its exact per-tenant p99 agrees
//!   with the `stats` verb's bucketed SLO p99 within one log₂ bucket.

use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// An absolute path for a file this test writes, in cargo's per-package
/// scratch directory (which exists wherever the target directory is).
fn scratch_file(name: &str) -> String {
    Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(name)
        .to_string_lossy()
        .into_owned()
}

/// Replay `testdata/serve/slowlog.args` under an installed trace sink,
/// returning the response stream and the drained observability session.
/// The slow-log file is redirected to a scratch file of its own, so this
/// test never races the golden tests' replays of the same fixture.
fn traced_replay() -> (String, obs::Session) {
    let root = repo_root();
    let args_text = std::fs::read_to_string(root.join("testdata/serve/slowlog.args"))
        .expect("slowlog.args exists");
    let args: Vec<String> = args_text
        .split_whitespace()
        .map(|a| {
            if a == "target/slowlog_records.out" {
                scratch_file("slowlog_records.obs_report.out")
            } else {
                a.to_string()
            }
        })
        .collect();
    obs::install(obs::TimeSource::monotonic());
    let mut out = Vec::new();
    let exit = fedoo::serve::run_serve(
        &args,
        Some(&root),
        std::io::BufReader::new(&b""[..]),
        &mut out,
    )
    .expect("slowlog session replays");
    let session = obs::uninstall().expect("installed above");
    assert_eq!(exit, 0);
    (String::from_utf8(out).unwrap(), session)
}

/// Pull every `"request_id":"…"` value out of a JSONL stream, in order.
fn request_ids(stream: &str) -> Vec<String> {
    stream
        .lines()
        .filter_map(|line| {
            let at = line.find("\"request_id\":\"")? + "\"request_id\":\"".len();
            Some(line[at..].split('"').next().unwrap().to_string())
        })
        .collect()
}

/// Extract `"p99_us":N` from the named SLO phase block of a `stats`
/// response line (e.g. `slo_p99(line, "total")`).
fn slo_p99(stats_line: &str, phase: &str) -> u64 {
    let block = &stats_line[stats_line.find(&format!("\"{phase}\":{{")).expect(phase)..];
    let at = block.find("\"p99_us\":").expect("p99_us") + "\"p99_us\":".len();
    block[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("p99 digits")
}

#[test]
fn every_response_id_roots_a_span_tree() {
    let _guard = obs::test_guard();
    let (responses, session) = traced_replay();

    // Round-trip the trace through the JSONL exporter — the report must
    // work from a recorded file, not just the in-memory trace.
    let jsonl = obs::export::render_jsonl(&session.trace);
    let trace = obs::export::parse_jsonl(&jsonl).expect("exported trace parses back");
    let report = obs::report::analyze(&trace);
    assert_eq!(report.truncated, 0, "every request span closed");
    assert_eq!(report.dropped, 0, "ring must not evict in a short session");

    let responded = request_ids(&responses);
    assert_eq!(responded.len(), 7, "every response line carries an id");
    let rooted: Vec<&str> = report.requests.iter().map(|r| r.id.as_str()).collect();
    for id in &responded {
        assert!(
            rooted.contains(&id.as_str()),
            "response id `{id}` has no serve.request span tree (rooted: {rooted:?})"
        );
    }
    assert_eq!(rooted.len(), responded.len(), "no orphan request spans");

    // The join carries the answer attributes: the q-gamma query ran at
    // generation 1 with 5 rows and a cache miss.
    let gamma = report.requests.iter().find(|r| r.id == "q-gamma").unwrap();
    assert_eq!(gamma.op, "query");
    assert_eq!(gamma.tenant, "t1");
    assert_eq!(gamma.rows, 5);
    assert!(!gamma.cache_hit);
    assert!(gamma.fp.is_some(), "query requests carry a fingerprint");

    // Attribution by wall time: the slowest query request must have
    // ≥95% of its wall time attributed to named phases — the whole point
    // of the report. A scheduler delay only ever adds unattributed time,
    // wherever it lands, so the best of a few replays is the least
    // disturbed measurement; work outside every phase lowers all of them.
    let slowest_coverage = |report: &obs::report::Report| {
        let slowest = report
            .requests
            .iter()
            .filter(|r| r.op == "query")
            .max_by_key(|r| r.total_us)
            .unwrap();
        (
            slowest.coverage_pct(),
            format!(
                "`{}`: {}% of {}µs (phases {:?})",
                slowest.id,
                slowest.coverage_pct(),
                slowest.total_us,
                slowest.phases
            ),
        )
    };
    let mut measured = vec![slowest_coverage(&report)];
    while measured.iter().all(|(pct, _)| *pct < 95) && measured.len() < WALL_TIME_REPLAYS {
        let (_, session) = traced_replay();
        measured.push(slowest_coverage(&obs::report::analyze(&session.trace)));
    }
    assert!(
        measured.iter().any(|(pct, _)| *pct >= 95),
        "the slowest query attributes <95% of its wall time in every replay: {:?}",
        measured.iter().map(|(_, m)| m).collect::<Vec<_>>()
    );

    // Attribution by span structure: every query request must have ≥95%
    // of its recorded events inside the named phases, which no host load
    // can move.
    for r in report.requests.iter().filter(|r| r.op == "query") {
        let pct = structural_coverage_pct(&trace, &r.id);
        assert!(
            pct >= 95,
            "query `{}` has only {pct}% of its events inside named phases \
             (wall time {}µs, phases {:?})",
            r.id,
            r.total_us,
            r.phases
        );
    }
}

/// Replays the wall-time attribution check may take before it fails.
const WALL_TIME_REPLAYS: usize = 5;

/// The spans `obs::report` attributes a request's time to.
const PHASES: [&str; 7] = [
    obs::report::PHASE_QUEUE,
    obs::report::PHASE_PIN,
    obs::report::PHASE_PLAN,
    obs::report::PHASE_CACHE,
    obs::report::PHASE_EXECUTE,
    obs::report::PHASE_ASK,
    obs::report::PHASE_RESPOND,
];

/// Coverage of request `id`'s recorded work by the named phases, from
/// span structure: the share of the events strictly inside its
/// `serve.request` span, on its thread, that open or close a phase span
/// or sit inside one. 100 when the request recorded nothing inside.
fn structural_coverage_pct(trace: &obs::Trace, id: &str) -> u64 {
    let is_phase = |name: &str| PHASES.contains(&name);
    let mut events = trace.events.iter().skip_while(|ev| {
        !(ev.phase == obs::Phase::Begin
            && ev.name == obs::report::REQUEST_SPAN
            && ev
                .detail
                .as_deref()
                .is_some_and(|d| d.split_whitespace().any(|kv| kv == format!("id={id}"))))
    });
    let tid = events.next().expect("request span recorded").tid;
    // Spans open inside the request, innermost last.
    let mut open: Vec<&str> = Vec::new();
    let (mut inside, mut covered) = (0u64, 0u64);
    for ev in events.filter(|ev| ev.tid == tid) {
        let name = match ev.phase {
            obs::Phase::Begin => {
                open.push(&ev.name);
                &ev.name
            }
            obs::Phase::End => match open.pop() {
                Some(name) => name,
                None => break, // the request span closes
            },
            obs::Phase::Instant => "",
        };
        inside += 1;
        covered += u64::from(is_phase(name) || open.iter().any(|n| is_phase(n)));
    }
    (covered * 100).checked_div(inside).unwrap_or(100)
}

/// The structural share counts what lies outside the phases: one
/// request whose tree holds a stray span beside `serve.pin`, and
/// another thread's events, which must not count.
#[test]
fn structural_coverage_counts_events_outside_phases() {
    let ev = |name: &str, phase: obs::Phase, tid: u64, detail: Option<&str>| obs::Event {
        name: name.to_string(),
        cat: "test".to_string(),
        phase,
        ts_us: 0,
        tid,
        detail: detail.map(str::to_string),
    };
    use obs::Phase::{Begin, End, Instant};
    let events = vec![
        ev("serve.request", Begin, 1, Some("id=r1 tenant=t op=query")),
        ev("serve.pin", Begin, 1, None),
        ev("federation.mutate", Begin, 2, None),
        ev("serve.pin", End, 1, None),
        ev("stray", Begin, 1, None),
        ev("stray", End, 1, None),
        ev("qp.ask", Begin, 1, None),
        ev("qp.op.scan", Begin, 1, None),
        ev("qp.op.scan", End, 1, None),
        ev("federation.mutate", End, 2, None),
        ev("qp.ask", End, 1, None),
        ev("serve.request.done", Instant, 1, None),
        ev("serve.request", End, 1, None),
    ];
    let trace = obs::Trace { events, dropped: 0 };
    // 9 events inside r1 on its thread; the stray span's 2 and the
    // done-instant lie outside every phase.
    assert_eq!(structural_coverage_pct(&trace, "r1"), 6 * 100 / 9);
}

#[test]
fn obs_report_json_is_byte_deterministic() {
    let _guard = obs::test_guard();
    let (_, session) = traced_replay();
    let root = repo_root();
    let trace = scratch_file("obs_report_trace.jsonl");
    std::fs::write(&trace, obs::export::render_jsonl(&session.trace)).expect("write trace");

    let args: Vec<String> = ["report", &trace, "--format", "json"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let first = fedoo::obs_cmd::run_obs(&args, Some(&root)).expect("report runs");
    let second = fedoo::obs_cmd::run_obs(&args, Some(&root)).expect("report reruns");
    assert_eq!(first, second, "obs report --format json must be replayable");
    assert!(first.ends_with('\n'));
    for id in ["q-alpha", "q-beta", "q-gamma", "w-1", "s-1"] {
        assert!(first.contains(id), "report lost request `{id}`");
    }
}

/// The serving layer's bucketed SLO p99 (from the `stats` verb) and the
/// report's exact nearest-rank p99 describe the same latencies: the
/// bucket bound must sit within one log₂ bucket of the exact value.
#[test]
fn stats_slo_p99_matches_report_within_bucket_resolution() {
    let _guard = obs::test_guard();
    let (responses, session) = traced_replay();
    let report = obs::report::analyze(&session.trace);

    let stats_line = responses
        .lines()
        .find(|l| l.contains("\"op\":\"stats\""))
        .expect("session issues a stats request");
    let stats_p99 = slo_p99(stats_line, "total");

    let t1 = report.tenants.iter().find(|t| t.tenant == "t1").unwrap();
    assert_eq!(t1.count, 3, "t1 issued three queries");
    // stats_p99 is the log₂ bucket upper bound of the histogram-recorded
    // total; the report's p99 is exact span wall time measured around a
    // marginally wider window. bucket(v) ∈ [v, 2v) plus one bucket of
    // slack either way for the measurement-window skew.
    let bucket = t1.p99_us.max(1).next_power_of_two();
    assert!(
        stats_p99 >= bucket / 2 && stats_p99 <= bucket * 2,
        "stats SLO p99 {stats_p99}µs disagrees with report p99 {}µs \
         (bucket {bucket}µs) beyond bucket resolution",
        t1.p99_us
    );
}
