//! # fedoo-obs — observability substrate for the federation pipeline
//!
//! One global, optionally-installed sink collects hierarchical spans and
//! instant events into a bounded ring (see [`trace`]), alongside a metrics
//! registry of counters/gauges/histograms (see [`metrics`]). Exporters in
//! [`export`] render JSONL, Chrome `trace_event`, and Prometheus text.
//!
//! ## Fast path
//!
//! Observability is disabled by default. Every entry point —
//! [`span!`], [`instant!`], [`counter!`], and the function forms — starts
//! with a single relaxed atomic load and returns immediately without
//! allocating when no sink is installed. Hot loops (rule firing, per-operator
//! execution) stay within noise; `benches/obs_overhead.rs` pins this.
//!
//! ## Usage
//!
//! ```
//! let _lock = obs::test_guard(); // serialize: the sink is process-global
//! obs::install(obs::TimeSource::monotonic());
//! {
//!     let _span = obs::span!("qp.plan", "qp", "strategy={}", "planned");
//!     obs::counter!("fedoo_qp_rows_scanned_total", 42);
//! }
//! let session = obs::uninstall().unwrap();
//! assert_eq!(session.trace.events.len(), 2); // Begin + End
//! assert_eq!(session.metrics.counter("fedoo_qp_rows_scanned_total"), 42);
//! ```
//!
//! The sink records events and metrics from *every* thread in the process,
//! not only the one that installed it. [`test_guard`] serializes only the
//! tests that also take it, so a test that asserts exact counts or the shape
//! of the whole trace must either keep to its own thread's events (emit a
//! marker [`instant!`] after [`install`] and retain the events with its
//! `tid`) or have every sibling test that emits in its binary take the guard.
//!
//! Span names follow the `<crate>.<phase>` taxonomy and metrics the
//! `fedoo_<crate>_<name>` convention documented in DESIGN.md §10.

pub mod clock;
pub mod export;
pub mod metrics;
pub mod report;
pub mod trace;

pub use clock::TimeSource;
pub use metrics::{labeled, split_labels, HistogramSnapshot, MetricsRegistry, MetricsSnapshot};
pub use trace::{Event, Phase, Trace, TraceSink};

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

// ---------------------------------------------------------------------------
// Global sink
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);

struct ObsState {
    sink: TraceSink,
    metrics: MetricsRegistry,
}

static STATE: Mutex<Option<ObsState>> = Mutex::new(None);

fn state() -> MutexGuard<'static, Option<ObsState>> {
    STATE.lock().unwrap_or_else(|e| e.into_inner())
}

/// Whether a sink is installed. A single relaxed load; this is the guard on
/// every hot-path macro, so keep it trivially inlinable.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Install the global sink with the default ring capacity. Replaces any
/// previously installed sink (its events are discarded).
pub fn install(time: TimeSource) {
    install_with_capacity(trace::DEFAULT_CAPACITY, time);
}

/// Install the global sink with an explicit ring capacity.
pub fn install_with_capacity(capacity: usize, time: TimeSource) {
    let mut guard = state();
    *guard = Some(ObsState {
        sink: TraceSink::new(capacity, time),
        metrics: MetricsRegistry::default(),
    });
    ENABLED.store(true, Ordering::SeqCst);
}

/// Everything collected between [`install`] and [`uninstall`].
pub struct Session {
    pub trace: Trace,
    pub metrics: MetricsSnapshot,
}

/// Tear down the sink and return what it collected. `None` if not installed.
pub fn uninstall() -> Option<Session> {
    let mut guard = state();
    ENABLED.store(false, Ordering::SeqCst);
    guard.take().map(|mut s| Session {
        trace: s.sink.drain(),
        metrics: s.metrics.snapshot(),
    })
}

/// Copy the current trace without tearing down the sink.
pub fn trace_snapshot() -> Option<Trace> {
    state().as_ref().map(|s| s.sink.snapshot())
}

/// Copy the current metrics without tearing down the sink.
pub fn metrics_snapshot() -> Option<MetricsSnapshot> {
    state().as_ref().map(|s| s.metrics.snapshot())
}

/// Serialize tests that install the global sink (it is process-wide state).
/// Hold the returned guard for the duration of the install/uninstall window.
///
/// The guard isolates only the tests that take it: while a sink is installed
/// it records events from every thread, including tests that emit spans or
/// counters without the guard. A test asserting exact counts or a whole-trace
/// shape must filter the trace to its own `tid`, or every sibling test in its
/// binary that emits must take this guard as well.
pub fn test_guard() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

// ---------------------------------------------------------------------------
// Thread ids
// ---------------------------------------------------------------------------

/// Small dense per-thread id: 1 for the first thread that records, then 2, …
/// (std's `ThreadId` has no stable integer accessor.)
fn tid() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

// ---------------------------------------------------------------------------
// Recording
// ---------------------------------------------------------------------------

fn record(name: &str, cat: &str, phase: Phase, detail: Option<String>) {
    let tid = tid();
    let mut guard = state();
    if let Some(s) = guard.as_mut() {
        let ts_us = s.sink.now_us();
        s.sink.push(Event {
            name: name.to_string(),
            cat: cat.to_string(),
            phase,
            ts_us,
            tid,
            detail,
        });
    }
}

/// RAII guard that emits the span's `End` event on drop. Inert (no
/// allocation, nothing recorded) when obs was disabled at span entry.
pub struct SpanGuard {
    open: Option<(&'static str, &'static str)>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((name, cat)) = self.open.take() {
            record(name, cat, Phase::End, None);
        }
    }
}

/// Start a span. Prefer the [`span!`] macro, which adds the lazy-detail form.
#[inline]
pub fn span(name: &'static str, cat: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { open: None };
    }
    record(name, cat, Phase::Begin, None);
    SpanGuard {
        open: Some((name, cat)),
    }
}

/// Start a span with a detail string built only when obs is enabled.
#[inline]
pub fn span_detail<F: FnOnce() -> String>(
    name: &'static str,
    cat: &'static str,
    detail: F,
) -> SpanGuard {
    if !enabled() {
        return SpanGuard { open: None };
    }
    record(name, cat, Phase::Begin, Some(detail()));
    SpanGuard {
        open: Some((name, cat)),
    }
}

/// Record a point-in-time event.
#[inline]
pub fn instant(name: &'static str, cat: &'static str) {
    if enabled() {
        record(name, cat, Phase::Instant, None);
    }
}

/// Record a point-in-time event with a lazily built detail string.
#[inline]
pub fn instant_detail<F: FnOnce() -> String>(name: &'static str, cat: &'static str, detail: F) {
    if enabled() {
        record(name, cat, Phase::Instant, Some(detail()));
    }
}

/// Add to a named counter (`fedoo_<crate>_<name>_total`).
#[inline]
pub fn counter_add(name: &str, delta: u64) {
    if !enabled() || delta == 0 {
        return;
    }
    if let Some(s) = state().as_mut() {
        s.metrics.counter_add(name, delta);
    }
}

/// Set a named gauge.
#[inline]
pub fn gauge_set(name: &str, value: i64) {
    if !enabled() {
        return;
    }
    if let Some(s) = state().as_mut() {
        s.metrics.gauge_set(name, value);
    }
}

/// Record a sample into a named log-bucketed histogram.
#[inline]
pub fn histogram_record(name: &str, value: u64) {
    if !enabled() {
        return;
    }
    if let Some(s) = state().as_mut() {
        s.metrics.histogram_record(name, value);
    }
}

// ---------------------------------------------------------------------------
// Macros
// ---------------------------------------------------------------------------

/// Open a span: `let _s = obs::span!("qp.plan", "qp");` or with a lazily
/// formatted detail: `obs::span!("qp.op.join", "qp", "on {} vars", n)`.
/// Bind the result — the span ends when the guard drops.
#[macro_export]
macro_rules! span {
    ($name:expr, $cat:expr) => {
        $crate::span($name, $cat)
    };
    ($name:expr, $cat:expr, $($arg:tt)+) => {
        $crate::span_detail($name, $cat, || format!($($arg)+))
    };
}

/// Record an instant event, optionally with a lazily formatted detail.
#[macro_export]
macro_rules! instant {
    ($name:expr, $cat:expr) => {
        $crate::instant($name, $cat)
    };
    ($name:expr, $cat:expr, $($arg:tt)+) => {
        $crate::instant_detail($name, $cat, || format!($($arg)+))
    };
}

/// Add to a named counter: `obs::counter!("fedoo_qp_scans_total", 1);`
#[macro_export]
macro_rules! counter {
    ($name:expr, $delta:expr) => {
        $crate::counter_add($name, $delta as u64)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_paths_are_inert() {
        let _lock = test_guard();
        assert!(uninstall().is_none());
        {
            let _s = span!("test.span", "test");
            instant!("test.instant", "test");
            counter!("fedoo_test_total", 5);
            histogram_record("fedoo_test_hist", 9);
        }
        assert!(!enabled());
        assert!(trace_snapshot().is_none());
    }

    #[test]
    fn spans_nest_and_pair() {
        let _lock = test_guard();
        install(TimeSource::monotonic());
        {
            let _outer = span!("test.outer", "test");
            {
                let _inner = span!("test.inner", "test", "depth={}", 2);
            }
            instant!("test.tick", "test", "n={}", 1);
        }
        let session = uninstall().unwrap();
        let phases: Vec<_> = session
            .trace
            .events
            .iter()
            .map(|e| (e.name.as_str(), e.phase))
            .collect();
        assert_eq!(
            phases,
            vec![
                ("test.outer", Phase::Begin),
                ("test.inner", Phase::Begin),
                ("test.inner", Phase::End),
                ("test.tick", Phase::Instant),
                ("test.outer", Phase::End),
            ]
        );
        assert!(session.trace.events[1].detail.as_deref() == Some("depth=2"));
        // timestamps are non-decreasing
        let ts: Vec<_> = session.trace.events.iter().map(|e| e.ts_us).collect();
        let mut sorted = ts.clone();
        sorted.sort_unstable();
        assert_eq!(ts, sorted);
    }

    #[test]
    fn virtual_clock_drives_timestamps() {
        use std::sync::atomic::AtomicU64;
        use std::sync::Arc;
        let _lock = test_guard();
        let cell = Arc::new(AtomicU64::new(0));
        install(TimeSource::virtual_ms(cell.clone()));
        {
            let _s = span!("test.window", "test");
            cell.store(25, Ordering::SeqCst);
        }
        let session = uninstall().unwrap();
        assert_eq!(session.trace.events[0].ts_us, 0);
        assert_eq!(session.trace.events[1].ts_us, 25_000);
    }

    #[test]
    fn metrics_accumulate_across_records() {
        let _lock = test_guard();
        install(TimeSource::monotonic());
        counter!("fedoo_test_hits_total", 2);
        counter!("fedoo_test_hits_total", 1);
        gauge_set("fedoo_test_depth", 7);
        histogram_record("fedoo_test_rows", 5);
        let session = uninstall().unwrap();
        assert_eq!(session.metrics.counter("fedoo_test_hits_total"), 3);
        assert_eq!(session.metrics.gauges["fedoo_test_depth"], 7);
        assert_eq!(session.metrics.histograms["fedoo_test_rows"].count, 1);
    }

    #[test]
    fn threads_get_distinct_tids() {
        let _lock = test_guard();
        install(TimeSource::monotonic());
        instant!("test.main", "test");
        std::thread::spawn(|| {
            instant!("test.worker", "test");
        })
        .join()
        .unwrap();
        let session = uninstall().unwrap();
        assert_eq!(session.trace.events.len(), 2);
        assert_ne!(session.trace.events[0].tid, session.trace.events[1].tid);
    }
}
