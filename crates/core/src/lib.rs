//! # fedoo-core
//!
//! The paper's primary contribution: integration of two heterogeneous
//! object-oriented schemas into a single **deduction-like** integrated
//! schema, driven by correspondence assertions.
//!
//! * [`integrated`] — the output model: integrated classes (merged, copied
//!   and *virtual* rule-defined classes), is-a/aggregation links, derivation
//!   rules, and the `IS(·)` provenance map;
//! * [`principles`] — the six integration principles of §5
//!   (equivalence, inclusion, intersection, disjoint, derivation, links);
//! * [`graph`] — the traversal view of a schema with the §6 virtual start
//!   node, over dense class ids;
//! * `relation_table` — one run's assertion consultations, precomputed
//!   by class id;
//! * [`naive`] — algorithm `naive_schema_integration` (pure breadth-first
//!   pair expansion, the > O(n²) baseline);
//! * [`optimized`] — algorithm `schema_integration` + `path_labelling`
//!   (breadth-first + depth-first with label/inherited-label pruning, the
//!   O(n)-average headline algorithm);
//! * [`stats`] — instrumented pair-check accounting (the paper's §6.3
//!   complexity claim is about *checks*, so counting is part of the engine
//!   API, not a benchmark hack);
//! * [`trace`] — step-by-step trace events reproducing the Appendix A
//!   sample integration.

pub mod context;
pub mod graph;
pub mod integrated;
pub mod naive;
pub mod optimized;
pub mod principles;
pub(crate) mod relation_table;
pub mod stats;
pub mod trace;

pub use analysis::{AnalysisStats, Report as AnalysisReport};
pub use context::Integrator;
pub use graph::{ClassId, SchemaGraph};
pub use integrated::{AifKind, AttrOrigin, ISAgg, ISClass, IntegratedSchema, SourceRef};
pub use naive::{naive_schema_integration, naive_schema_integration_unchecked};
pub use optimized::{schema_integration, schema_integration_with_options, IntegrationOptions};
pub use stats::{EvalStats, EvalStrategy, IntegrationStats, PipelineStats, QpStats};
pub use trace::TraceEvent;

use std::fmt;

/// Integration errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IntegrationError {
    /// An assertion references something the schemas do not define.
    BadAssertion(String),
    /// The pre-integration analysis gate found `Deny` diagnostics. The
    /// payload is the rendered report; disable the gate via
    /// [`IntegrationOptions::analysis_gate`] or
    /// [`naive::naive_schema_integration_unchecked`] to integrate anyway.
    AnalysisRejected(String),
    /// Internal invariant violation (a bug if it ever surfaces).
    Internal(String),
}

impl fmt::Display for IntegrationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IntegrationError::BadAssertion(s) => write!(f, "bad assertion: {s}"),
            IntegrationError::AnalysisRejected(s) => {
                write!(f, "rejected by pre-integration analysis:\n{s}")
            }
            IntegrationError::Internal(s) => write!(f, "internal error: {s}"),
        }
    }
}

impl std::error::Error for IntegrationError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, IntegrationError>;
