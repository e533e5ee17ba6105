//! # fedoo-analysis
//!
//! Unified static analysis & diagnostics for the federation pipeline: a
//! rustc-style framework ([`Diagnostic`] with stable `FD0xxx` [`Code`]s,
//! [`Severity`] levels, byte-offset source spans, human and JSON
//! renderers) hosting four passes:
//!
//! 1. **Program analysis** ([`analyze_program`]) — safety/allowedness via
//!    the `deduction::safety` kernel plus a predicate-dependency pass:
//!    unreachable/unused predicates, duplicate and subsumed rules, arity
//!    and member/type consistency against `oo-model` schemas. All
//!    violations are reported in one run, replacing the kernel's
//!    fail-fast `check_rule` for diagnostic purposes.
//! 2. **Assertion-set consistency** ([`analyze_assertions`],
//!    [`analyze_assertions_with_schemas`]) — equivalence-vs-disjointness
//!    contradictions through the transitive closure, derivation-assertion
//!    cycles, cardinality-constraint contradictions via the Fig. 13
//!    lattice, conflicting pairs and unresolved paths.
//! 3. **Schema lints** ([`analyze_schema`], [`analyze_schema_with_store`])
//!    — is-a cycles, dead classes, aggregation functions whose target
//!    class is never populated.
//! 4. **Abstract interpretation** ([`analyze_rules_absint`], [`summarize`])
//!    — type signatures in the is-a lattice, constant/symbol bindings,
//!    provable emptiness & dead rules, and recursion classification over
//!    rule programs; the [`ProgramSummary`] table also feeds the
//!    `fedoo-qp` planner.
//!
//! [`pre_integration_gate`] bundles the checks the integration pipelines
//! (`fedoo-core`) run before integrating: both schemas' lints plus
//! assertion consistency and cardinality checks. Path resolution
//! (FD0205) is deliberately *not* part of the gate — programmatic
//! assertion sets routinely mention only the classes they need, and the
//! pipelines already resolve paths on their own terms — but it is part of
//! the full `fedoo lint` sweep.

pub mod absint;
pub mod consistency;
pub mod diag;
pub mod program;
pub mod rules_parser;
pub mod schema_lints;

pub use absint::{
    analyze_rules_absint, summarize, ArgSummary, Binding, PredicateSummary, ProgramSummary,
    RecursionClass,
};
pub use consistency::{
    analyze_assertion_cardinalities, analyze_assertion_paths, analyze_assertions,
    analyze_assertions_with_schemas,
};
pub use diag::{AnalysisStats, Code, Diagnostic, Report, Severity};
pub use program::analyze_program;
pub use rules_parser::{parse_rules, RulesParseError};
pub use schema_lints::{
    analyze_agg_population, analyze_schema, analyze_schema_ids, analyze_schema_with_store,
};

use assertions::ClassAssertion;
use oo_model::{ClassIds, Schema};

/// The pre-integration gate: everything `fedoo-core` checks before
/// running `schema_integration` — schema lints on both inputs, assertion
/// consistency and cardinality-lattice checks. `Deny` diagnostics abort
/// integration (unless the caller disables the gate), `Warn`s are carried
/// into the run's warning list.
pub fn pre_integration_gate(s1: &Schema, s2: &Schema, assertions: &[ClassAssertion]) -> Report {
    pre_integration_gate_ids(&ClassIds::new(s1), &ClassIds::new(s2), assertions)
}

/// [`pre_integration_gate`] over prebuilt id views of the two schemas, as
/// the integration run builds them for its traversal.
pub fn pre_integration_gate_ids(
    s1: &ClassIds<'_>,
    s2: &ClassIds<'_>,
    assertions: &[ClassAssertion],
) -> Report {
    let mut report = analyze_schema_ids(s1);
    report.merge(analyze_schema_ids(s2));
    report.merge(analyze_assertions(assertions, None));
    report.merge(analyze_assertion_cardinalities(
        assertions, s1.schema, s2.schema, None,
    ));
    report.sort();
    obs::counter!("fedoo_analysis_diagnostics_total", report.iter().count());
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use assertions::ops::ClassOp;

    #[test]
    fn gate_composes_all_blocking_passes() {
        let s1 = oo_model::parse_schema_lenient(
            "schema S1 { class a <> class b <> is_a(a, b) is_a(b, a) }",
        )
        .unwrap();
        let s2 = Schema::new("S2");
        let asserts = vec![
            ClassAssertion::simple("S1", "a", ClassOp::Equiv, "S2", "x"),
            ClassAssertion::simple("S1", "a", ClassOp::Disjoint, "S2", "x"),
        ];
        let report = pre_integration_gate(&s1, &s2, &asserts);
        let codes: Vec<&str> = report.iter().map(|d| d.code.as_str()).collect();
        // Schema lint (is-a cycle), consistency (contradiction + pair
        // conflict) all present; report comes pre-sorted (deny first).
        assert!(codes.contains(&"FD0301"));
        assert!(codes.contains(&"FD0201"));
        assert!(codes.contains(&"FD0204"));
        assert!(report.has_deny());
    }

    #[test]
    fn gate_passes_clean_inputs() {
        let mut s1 = Schema::new("S1");
        let mut s2 = Schema::new("S2");
        let mut ty = oo_model::ClassType::new();
        ty.push_attribute(oo_model::AttrDef::new("n", oo_model::AttrType::Str))
            .unwrap();
        s1.add_class(oo_model::Class::new("person", ty.clone()))
            .unwrap();
        s2.add_class(oo_model::Class::new("human", ty)).unwrap();
        let asserts = vec![ClassAssertion::simple(
            "S1",
            "person",
            ClassOp::Equiv,
            "S2",
            "human",
        )];
        let report = pre_integration_gate(&s1, &s2, &asserts);
        assert!(report.is_empty(), "{}", report.render_human());
    }
}
