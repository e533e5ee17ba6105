//! Slow-query log: a bounded ring of structured JSONL records for
//! requests whose wall-clock exceeded a configured threshold.
//!
//! Tail latency hides in aggregates — the traffic bench's merged p99
//! says *that* the tail moved, not *which* plan moved it. Each slow
//! record therefore carries the request id (joins to the trace), the
//! plan fingerprint (joins to `fedoo obs report`'s attribution table),
//! and the per-phase split (queue/plan/cache/execute), so one grep
//! answers "what was slow and where did the time go".
//!
//! The ring is bounded ([`SlowLogConfig::capacity`]); past it the oldest
//! record is dropped and counted, never blocking the serving path. A
//! threshold of 0 logs every answered query — the golden-session fixture
//! uses that to pin the record schema. `None` (the default) disables the
//! log entirely; the serving path then costs one branch.

use crate::tenant::QueryPhases;
use qp::json_string;
use std::collections::VecDeque;
use std::sync::Mutex;

/// Slow-log knobs, part of `ServeConfig`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlowLogConfig {
    /// Log requests whose total wall-clock is ≥ this many microseconds;
    /// `None` disables the log.
    pub threshold_us: Option<u64>,
    /// Ring capacity; oldest records beyond it are dropped (and counted).
    pub capacity: usize,
}

impl Default for SlowLogConfig {
    fn default() -> Self {
        SlowLogConfig {
            threshold_us: None,
            capacity: 1024,
        }
    }
}

/// One slow request, rendered as a single JSONL line.
#[derive(Debug, Clone, PartialEq)]
pub struct SlowRecord {
    pub request_id: String,
    pub tenant: String,
    pub generation: u64,
    /// Plan fingerprint (FNV-1a/64 of the strategy and the plan; a
    /// cache hit reports the plan that filled its entry).
    pub fp: String,
    pub rows: u64,
    pub phases: QueryPhases,
    pub degraded: bool,
    pub from_cache: bool,
    /// Whether the answer was a cache hit although some component had
    /// changed since the entry was filled, all outside its footprint.
    pub footprint_save: bool,
}

impl SlowRecord {
    /// The JSONL exposition (no trailing newline). Every latency field
    /// ends in `_us` so golden tests can normalize timings uniformly.
    pub fn render(&self) -> String {
        format!(
            "{{\"request_id\":{},\"tenant\":{},\"generation\":{},\"fp\":{},\"rows\":{},\
             \"queue_us\":{},\"plan_us\":{},\"cache_us\":{},\"exec_us\":{},\"total_us\":{},\
             \"degraded\":{},\"from_cache\":{},\"footprint_save\":{}}}",
            json_string(&self.request_id),
            json_string(&self.tenant),
            self.generation,
            json_string(&self.fp),
            self.rows,
            self.phases.queue_us,
            self.phases.plan_us,
            self.phases.cache_us,
            self.phases.exec_us,
            self.phases.total_us,
            self.degraded,
            self.from_cache,
            self.footprint_save,
        )
    }
}

#[derive(Debug, Default)]
struct Ring {
    lines: VecDeque<String>,
    dropped: u64,
}

/// The bounded slow-query buffer. Records accumulate here during a
/// session; `fedoo serve --slow-log FILE` drains them at session end.
#[derive(Debug)]
pub struct SlowLog {
    cfg: SlowLogConfig,
    ring: Mutex<Ring>,
}

impl SlowLog {
    pub fn new(cfg: SlowLogConfig) -> Self {
        SlowLog {
            cfg,
            ring: Mutex::new(Ring::default()),
        }
    }

    /// Whether a request of `total_us` qualifies. Kept separate from
    /// [`SlowLog::record`] so the caller can skip building the record
    /// (it allocates) on the fast path.
    pub fn qualifies(&self, total_us: u64) -> bool {
        matches!(self.cfg.threshold_us, Some(t) if total_us >= t)
    }

    /// Append one record, evicting the oldest past capacity.
    pub fn record(&self, rec: &SlowRecord) {
        if obs::enabled() {
            obs::counter_add(
                &obs::labeled("fedoo_serve_slow_queries_total", "tenant", &rec.tenant),
                1,
            );
        }
        let mut ring = self.ring.lock().unwrap();
        while ring.lines.len() >= self.cfg.capacity.max(1) {
            ring.lines.pop_front();
            ring.dropped += 1;
        }
        ring.lines.push_back(rec.render());
    }

    /// Take every buffered line (oldest first) plus the eviction count,
    /// leaving the ring empty.
    pub fn drain(&self) -> (Vec<String>, u64) {
        let mut ring = self.ring.lock().unwrap();
        let dropped = ring.dropped;
        ring.dropped = 0;
        (std::mem::take(&mut ring.lines).into(), dropped)
    }

    pub fn len(&self) -> usize {
        self.ring.lock().unwrap().lines.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: &str, total_us: u64) -> SlowRecord {
        SlowRecord {
            request_id: id.to_string(),
            tenant: "t1".to_string(),
            generation: 0,
            fp: "00ff".to_string(),
            rows: 2,
            phases: QueryPhases {
                queue_us: 1,
                plan_us: 2,
                cache_us: 3,
                exec_us: 4,
                total_us,
            },
            degraded: false,
            from_cache: true,
            footprint_save: false,
        }
    }

    #[test]
    fn threshold_gates_and_zero_logs_everything() {
        let log = SlowLog::new(SlowLogConfig {
            threshold_us: Some(100),
            capacity: 8,
        });
        assert!(!log.qualifies(99));
        assert!(log.qualifies(100));
        let disabled = SlowLog::new(SlowLogConfig::default());
        assert!(!disabled.qualifies(u64::MAX));
        let all = SlowLog::new(SlowLogConfig {
            threshold_us: Some(0),
            capacity: 8,
        });
        assert!(all.qualifies(0));
    }

    #[test]
    fn record_schema_is_stable() {
        let line = rec("r1", 10).render();
        assert_eq!(
            line,
            "{\"request_id\":\"r1\",\"tenant\":\"t1\",\"generation\":0,\"fp\":\"00ff\",\
             \"rows\":2,\"queue_us\":1,\"plan_us\":2,\"cache_us\":3,\"exec_us\":4,\
             \"total_us\":10,\"degraded\":false,\"from_cache\":true,\"footprint_save\":false}"
        );
    }

    #[test]
    fn ring_bounds_and_counts_evictions() {
        let log = SlowLog::new(SlowLogConfig {
            threshold_us: Some(0),
            capacity: 2,
        });
        for i in 0..5 {
            log.record(&rec(&format!("r{i}"), i));
        }
        assert_eq!(log.len(), 2);
        let (lines, dropped) = log.drain();
        assert_eq!(dropped, 3);
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"request_id\":\"r3\""), "{}", lines[0]);
        assert!(lines[1].contains("\"request_id\":\"r4\""), "{}", lines[1]);
        assert!(log.is_empty());
        // Draining resets the eviction count too.
        assert_eq!(log.drain().1, 0);
    }
}
