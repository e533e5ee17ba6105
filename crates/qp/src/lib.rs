//! # fedoo-qp
//!
//! The federated query processor: ask conjunctive queries against the
//! *integrated* schema and have them answered by the component databases.
//!
//! The paper integrates heterogeneous OO schemas into one deduction-like
//! global schema (§5); its federated architecture (§3, Appendix B) then
//! evaluates global requests over the autonomous components. This crate
//! is that evaluation layer, grown into a planning query processor:
//!
//! * [`parser`] — a conjunctive query language over global classes
//!   (`?- <X: person | age: A>, A >= 30.`) with byte-offset spans;
//! * [`planner`] — validation through `fedoo-analysis`, rewriting of
//!   global literals through the origin map into per-component scan
//!   targets, predicate/projection pushdown, hash-join ordering by
//!   cardinality estimate, and goal-directed semi-naive fallback for
//!   rule-derived relations;
//! * [`plan`] — the inspectable [`QueryPlan`] tree (`Display` + JSON);
//! * [`exec`] — scatter-gather execution: component extents are read
//!   through the scan cache, batches stream into a hash-join pipeline,
//!   and per-stage counters land in [`fedoo_core::QpStats`];
//! * [`cache`] — a bounded LRU result cache keyed on the canonical query
//!   body, looked up before planning and invalidated by component store
//!   version counters;
//! * [`scan_cache`] — the lineage-shared cache of base scans'
//!   materialised facts, kept per store partition and patched by what a
//!   write changed;
//! * [`derived_state`] — an engine's restricted deduction states, which
//!   derived scans evaluate against, one per relevance closure, keeping
//!   what earlier executions derived over the engine's snapshot;
//! * [`engine`] — [`QueryEngine`], the façade tying it together, with
//!   [`QueryStrategy`] selecting the planned pipeline or the reference
//!   saturate-everything evaluator.
//!
//! The two strategies are differentially tested to return identical
//! answer sets (`tests/differential.rs`).

pub mod analyze;
pub mod cache;
pub mod degrade;
pub mod derived_state;
pub mod engine;
pub mod exec;
pub mod parser;
pub mod plan;
pub mod planner;
pub mod scan_cache;

pub use analyze::render_analyzed;
pub use cache::{CacheStats, ResultCache, SharedResultCache, DEFAULT_SHARDS};
pub use degrade::AnswerCompleteness;
pub use derived_state::{DerivedStateStats, DerivedStates};
pub use engine::{normalize_rows, value_json, AnalyzedAnswer, QueryAnswer, QueryEngine};
pub use exec::{execute, Caches, ExecOutcome, MaintainedRows, OpProfile};
pub use parser::{parse_query, GlobalQuery, ParseError, SpannedLiteral};
pub use plan::{json_string, PlanNode, QueryPlan, QueryStrategy, ScanKind, ScanNode, ScanTarget};
pub use planner::Planner;
pub use scan_cache::{ScanCache, ScanCacheStats};

use std::fmt;

/// Query-processor errors.
#[derive(Debug)]
pub enum QpError {
    /// The query text did not parse.
    Parse(ParseError),
    /// The query parsed but was rejected by static analysis (safety or
    /// schema conformance). The payload is the rendered report.
    Rejected(String),
    /// Planning failed (an internal invariant, not a user error).
    Plan(String),
    /// Components are unavailable past policy and the query cannot be
    /// answered even partially without risking unsound (superset)
    /// answers. The payload explains which literal blocks degradation.
    Unavailable(String),
    /// The underlying federation machinery failed.
    Fed(federation::FedError),
}

impl fmt::Display for QpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QpError::Parse(e) => write!(f, "{e}"),
            QpError::Rejected(r) => write!(f, "query rejected by analysis:\n{r}"),
            QpError::Plan(m) => write!(f, "planning failed: {m}"),
            QpError::Unavailable(m) => write!(f, "query degraded past policy: {m}"),
            QpError::Fed(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for QpError {}

impl From<ParseError> for QpError {
    fn from(e: ParseError) -> Self {
        QpError::Parse(e)
    }
}

impl From<federation::FedError> for QpError {
    fn from(e: federation::FedError) -> Self {
        QpError::Fed(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, QpError>;
