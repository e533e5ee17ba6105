//! Golden-file tests for `fedoo serve`.
//!
//! Each `testdata/serve/<case>.args` file holds the CLI argument list
//! (including `--session <case>.session`, the recorded JSONL request
//! stream) and `<case>.golden` the expected JSONL response stream. The
//! test replays the arguments through the same `fedoo::serve::run_serve`
//! entry point the binary uses, so the goldens pin the exact protocol
//! bytes — the CI serve-smoke job runs the built binary over the same
//! pairs.
//!
//! To regenerate after an intentional change:
//! `fedoo serve $(cat testdata/serve/<case>.args) \
//!    | sed -E 's/"micros":[0-9]+/"micros":_/g; s/_us":[0-9]+/_us":_/g' \
//!    > testdata/serve/<case>.golden`
//! (the rewrite blanks the wall-clock fields: summed query micros in
//! `stats` responses, SLO quantiles, and the slow-log phase timings).

use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// A fixture's arguments with its slow-log file `target/slowlog_records.out`
/// moved to `name` in cargo's per-package scratch directory, which exists
/// wherever the target directory is.
fn redirect_slow_log(args_text: &str, name: &str) -> Vec<String> {
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    args_text
        .split_whitespace()
        .map(|a| {
            if a == "target/slowlog_records.out" {
                path.to_string_lossy().into_owned()
            } else {
                a.to_string()
            }
        })
        .collect()
}

/// Blank the digits following `pat`. Idempotent (a `_` placeholder stays
/// a `_`), so goldens regenerated through `sed` compare clean.
fn blank_after(s: &str, pat: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(at) = rest.find(pat) {
        let (head, tail) = rest.split_at(at + pat.len());
        out.push_str(head);
        out.push('_');
        rest = tail.trim_start_matches(|c: char| c.is_ascii_digit() || c == '_');
    }
    out.push_str(rest);
    out
}

/// Blank every wall-clock value in the protocol: the summed `"micros":N`
/// in `stats` responses plus every `_us`-suffixed field (SLO quantiles in
/// `stats`, phase timings in slow-log records). The CI serve-smoke job
/// applies the same rewrite with `sed` before diffing against the built
/// binary.
fn normalize_micros(s: &str) -> String {
    blank_after(&blank_after(s, "\"micros\":"), "_us\":")
}

fn replay(case: &str) -> (u8, String, String, String) {
    let root = repo_root();
    let dir = root.join("testdata/serve");
    let args_text = std::fs::read_to_string(dir.join(format!("{case}.args")))
        .unwrap_or_else(|e| panic!("read {case}.args: {e}"));
    let args = redirect_slow_log(&args_text, "slowlog_records.out");
    let mut out = Vec::new();
    let exit = fedoo::serve::run_serve(
        &args,
        Some(&root),
        std::io::BufReader::new(&b""[..]),
        &mut out,
    )
    .expect(case);
    let golden = std::fs::read_to_string(dir.join(format!("{case}.golden")))
        .unwrap_or_else(|e| panic!("read {case}.golden: {e}"));
    (exit, String::from_utf8(out).unwrap(), golden, args_text)
}

#[test]
fn every_session_has_a_golden_and_matches() {
    let dir = repo_root().join("testdata/serve");
    let mut cases: Vec<String> = std::fs::read_dir(&dir)
        .expect("testdata/serve exists")
        .filter_map(|e| {
            let p = e.ok()?.path();
            (p.extension()? == "args").then(|| p.file_stem().unwrap().to_str().unwrap().to_string())
        })
        .collect();
    cases.sort();
    assert!(
        cases.len() >= 3,
        "expected the serve golden fixture set, found {}",
        cases.len()
    );
    for case in &cases {
        let (exit, got, want, args) = replay(case);
        assert_eq!(
            normalize_micros(&got),
            normalize_micros(&want),
            "golden mismatch for `{case}`"
        );
        // The exit code is part of the contract, derivable from the
        // fixtures themselves: a session run with --fail-on-shed whose
        // golden contains a shed response must exit 3, anything else 0.
        let want_exit = if args.contains("--fail-on-shed") && want.contains("\"code\":\"shed\"") {
            3
        } else {
            0
        };
        assert_eq!(exit, want_exit, "exit code mismatch for `{case}`");
    }
}

/// The degraded-session golden pins the serving-layer completeness
/// contract: a faulted component yields `complete:false` plus the
/// missing component's name, never silently-partial rows.
#[test]
fn degraded_golden_is_subset_sound() {
    let (exit, got, _, _) = replay("degraded");
    assert_eq!(exit, 0, "degraded is not shed: exit stays 0");
    assert!(got.contains("\"complete\":false"), "{got}");
    assert!(got.contains("\"missing_components\":[\"L2\"]"), "{got}");
    assert!(
        !got.contains("\"complete\":true"),
        "every answer in this session is partial: {got}"
    );
}

/// Replaying a session is deterministic (modulo the normalized micros).
#[test]
fn session_replay_is_deterministic() {
    let (_, a, _, _) = replay("basic");
    let (_, b, _, _) = replay("basic");
    assert_eq!(normalize_micros(&a), normalize_micros(&b));
}

/// The slow-log record stream is itself a golden: with
/// `--slow-threshold-us 0` every answered query emits one JSONL record
/// carrying its request id, plan fingerprint, and per-phase timings
/// (blanked by the normalizer — everything else is deterministic).
#[test]
fn slowlog_records_match_golden() {
    let root = repo_root();
    let dir = root.join("testdata/serve");
    let args_text = std::fs::read_to_string(dir.join("slowlog.args")).expect("slowlog.args");
    // Redirect the record file so this test never races the full-scan
    // test's replay of the same fixture.
    let out_name = "slowlog_records.test.out";
    let args = redirect_slow_log(&args_text, out_name);
    let mut out = Vec::new();
    let exit = fedoo::serve::run_serve(
        &args,
        Some(&root),
        std::io::BufReader::new(&b""[..]),
        &mut out,
    )
    .expect("slowlog session replays");
    assert_eq!(exit, 0);
    let got = std::fs::read_to_string(Path::new(env!("CARGO_TARGET_TMPDIR")).join(out_name))
        .expect("slow-log file written");
    let want = std::fs::read_to_string(dir.join("slowlog_records.golden")).expect("records golden");
    assert_eq!(
        normalize_micros(&got),
        normalize_micros(&want),
        "slow-log record golden mismatch"
    );
    // Identity join: every record's request_id is echoed by a response
    // line of the same session, so the log attributes to real requests.
    let responses = String::from_utf8(out).unwrap();
    for line in got.lines() {
        let id = line
            .split("\"request_id\":\"")
            .nth(1)
            .and_then(|rest| rest.split('"').next())
            .expect("record carries request_id");
        assert!(
            responses.contains(&format!("\"request_id\":\"{id}\"")),
            "slow-log id `{id}` missing from the response stream"
        );
    }
}

/// The live-updates golden pins the incremental-maintenance contract:
/// generation installs repair the reference materialization by typed
/// deltas. Replayed under the metrics sink, the delta counter must move
/// for both installs while staying below the cost of even one full
/// recompute — and the facts-derived counter must record exactly the
/// single seed saturation, never a per-install rebuild.
#[test]
fn live_updates_installs_by_delta_not_recompute() {
    let _guard = obs::test_guard();
    obs::install(obs::TimeSource::monotonic());
    let (exit, got, _, _) = replay("live_updates");
    let session = obs::uninstall().expect("installed above");
    assert_eq!(exit, 0);
    assert!(got.contains("\"generation\":2"), "{got}");

    let deltas = session.metrics.counter("fedoo_deduction_delta_facts_total");
    let derived = session
        .metrics
        .counter("fedoo_deduction_facts_derived_total");
    assert!(
        deltas >= 2,
        "both installs must flow through the delta maintainer: {deltas}"
    );
    assert!(
        derived >= 1,
        "the seed saturation publishes its derivation count"
    );
    assert!(
        deltas < derived,
        "per-install delta work ({deltas} physical changes) must stay below \
         one full recompute ({derived} derived facts)"
    );
    assert!(
        session.metrics.counter("fedoo_deduction_iterations_total") >= 1,
        "seed saturation publishes iterations"
    );
}
