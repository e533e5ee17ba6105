//! Algorithm **naive_schema_integration** (§6.1).
//!
//! A queue-controlled breadth-first expansion over pairs of nodes from the
//! two schema graphs: each popped pair `(N₁, N₂)` is checked against the
//! assertion set and the corresponding integration operation is performed;
//! all pairs `(N₁ᵢ, N₂ⱼ)`, `(N₁, N₂ⱼ)` and `(N₁ᵢ, N₂)` are enqueued. With
//! `O(n)` nodes per schema this checks `O(n²)` pairs — the baseline the
//! optimized algorithm (§6.1's `schema_integration`) is measured against.

use crate::context::Integrator;
use crate::graph::{ClassId, SchemaGraph};
use crate::integrated::{IntegratedSchema, SourceRef};
use crate::stats::IntegrationStats;
use crate::trace::TraceEvent;
use crate::Result;
use assertions::{AssertionSet, PairRelation};
use oo_model::Schema;
use std::collections::{HashSet, VecDeque};

/// The result of one integration run.
#[derive(Debug, Clone)]
pub struct IntegrationRun {
    pub output: IntegratedSchema,
    pub stats: IntegrationStats,
    pub trace: Vec<TraceEvent>,
    /// Declared assertions the traversal ignored (optimized algorithm
    /// only) and non-blocking diagnostics from the pre-integration
    /// analysis gate; the paper surfaces these to the user.
    pub warnings: Vec<String>,
    /// Timing/severity counts of the pre-integration analysis gate;
    /// `None` when the gate was disabled.
    pub analysis: Option<analysis::AnalysisStats>,
}

/// Run the pre-integration analysis gate: `Deny` diagnostics abort with
/// [`crate::IntegrationError::AnalysisRejected`]; anything milder is
/// returned as warning lines alongside the gate's stats.
pub(crate) fn run_gate(
    s1: &Schema,
    s2: &Schema,
    assertions: &AssertionSet,
) -> Result<(analysis::AnalysisStats, Vec<String>)> {
    let t0 = std::time::Instant::now();
    let report = analysis::pre_integration_gate(s1, s2, assertions.as_slice());
    let stats = report.stats(t0.elapsed().as_micros().min(u64::MAX as u128) as u64);
    if report.has_deny() {
        return Err(crate::IntegrationError::AnalysisRejected(
            report.render_human(),
        ));
    }
    let warnings = report
        .iter()
        .map(|d| format!("{}[{}]: {}", d.severity, d.code, d.message))
        .collect();
    Ok((stats, warnings))
}

/// Handle one checked pair according to its assertion (shared between the
/// naive and optimized drivers' breadth-first phase).
pub(crate) fn handle_pair(
    ctx: &mut Integrator<'_>,
    c1: &str,
    c2: &str,
    relation: PairRelation,
) -> Result<()> {
    match relation {
        PairRelation::Equiv(id) => {
            ctx.merge_equivalent(id)?;
        }
        PairRelation::Incl(_) => {
            ctx.note_inclusion(
                SourceRef::new(ctx.s1.name.as_str(), c1),
                SourceRef::new(ctx.s2.name.as_str(), c2),
            );
        }
        PairRelation::InclRev(_) => {
            ctx.note_inclusion(
                SourceRef::new(ctx.s2.name.as_str(), c2),
                SourceRef::new(ctx.s1.name.as_str(), c1),
            );
        }
        PairRelation::Intersect(id) => ctx.note_intersection(id),
        PairRelation::Disjoint(id) => ctx.note_disjoint(id),
        PairRelation::Derivation(_) => {
            // A pair can participate in several derivation assertions
            // (e.g. Book → Author and Author → Book); record them all.
            for id in ctx.assertions.derivations_between(
                ctx.s1.name.as_str(),
                c1,
                ctx.s2.name.as_str(),
                c2,
            ) {
                ctx.note_derivation(id);
            }
            for id in ctx.assertions.derivations_between(
                ctx.s2.name.as_str(),
                c2,
                ctx.s1.name.as_str(),
                c1,
            ) {
                ctx.note_derivation(id);
            }
        }
        PairRelation::None => {}
    }
    Ok(())
}

pub(crate) fn relation_name(rel: &PairRelation) -> &'static str {
    match rel {
        PairRelation::Equiv(_) => "≡",
        PairRelation::Incl(_) => "⊆",
        PairRelation::InclRev(_) => "⊇",
        PairRelation::Intersect(_) => "∩",
        PairRelation::Disjoint(_) => "∅",
        PairRelation::Derivation(_) => "→",
        PairRelation::None => "no assertion",
    }
}

/// Run the naive integration of `s1` and `s2` under `assertions`.
pub fn naive_schema_integration(
    s1: &Schema,
    s2: &Schema,
    assertions: &AssertionSet,
) -> Result<IntegrationRun> {
    naive_with_trace(s1, s2, assertions, true)
}

/// Escape hatch: naive integration **without** the pre-integration
/// analysis gate, for inputs known to trip a `Deny` diagnostic on
/// purpose (or for measuring the gate's cost).
pub fn naive_schema_integration_unchecked(
    s1: &Schema,
    s2: &Schema,
    assertions: &AssertionSet,
) -> Result<IntegrationRun> {
    naive_inner(s1, s2, assertions, true, false)
}

/// Naive integration with optional trace collection (benchmarks disable
/// it).
pub fn naive_with_trace(
    s1: &Schema,
    s2: &Schema,
    assertions: &AssertionSet,
    collect_trace: bool,
) -> Result<IntegrationRun> {
    naive_inner(s1, s2, assertions, collect_trace, true)
}

fn naive_inner(
    s1: &Schema,
    s2: &Schema,
    assertions: &AssertionSet,
    collect_trace: bool,
    gate: bool,
) -> Result<IntegrationRun> {
    let (analysis, mut gate_warnings) = match gate {
        true => {
            let (stats, warnings) = run_gate(s1, s2, assertions)?;
            (Some(stats), warnings)
        }
        false => (None, Vec::new()),
    };
    let g1 = SchemaGraph::new(s1);
    let g2 = SchemaGraph::new(s2);
    let mut ctx = Integrator::new(&g1, &g2, assertions);
    ctx.collect_trace = collect_trace;

    let mut queue = PairQueue::new(g1.start(), g2.start());
    while let Some((n1, n2)) = queue.pop() {
        let kids1 = g1.children(n1);
        let kids2 = g2.children(n2);
        // Line 6: all pairs (N1i, N2j), (N1, N2j), (N1i, N2).
        for &k1 in kids1 {
            for &k2 in kids2 {
                queue.push(&mut ctx.stats, k1, k2);
            }
        }
        queue.push_right(&mut ctx.stats, n1, kids2);
        queue.push_left(&mut ctx.stats, kids1, n2);
        // Line 7: integrate according to the assertion between N1 and N2.
        if let (Some(c1), Some(c2)) = (g1.name(n1), g2.name(n2)) {
            ctx.stats.pairs_checked += 1;
            let rel = ctx.relation(n1, n2);
            ctx.push_trace(|| TraceEvent::PopPair {
                left: c1.to_string(),
                right: c2.to_string(),
                relation: relation_name(&rel).to_string(),
            });
            handle_pair(&mut ctx, c1, c2, rel)?;
        }
    }
    ctx.finalize()?;
    gate_warnings.extend(ctx.warnings);
    Ok(IntegrationRun {
        output: ctx.output,
        stats: ctx.stats,
        trace: ctx.trace,
        warnings: gate_warnings,
        analysis,
    })
}

/// The breadth-first queue `S_b` of node pairs; a pair is enqueued at most
/// once.
pub(crate) struct PairQueue {
    queue: VecDeque<(ClassId, ClassId)>,
    seen: HashSet<(ClassId, ClassId)>,
}

impl PairQueue {
    /// A queue holding the pair of start nodes.
    pub(crate) fn new(start1: ClassId, start2: ClassId) -> Self {
        PairQueue {
            queue: VecDeque::from([(start1, start2)]),
            seen: HashSet::from([(start1, start2)]),
        }
    }

    pub(crate) fn pop(&mut self) -> Option<(ClassId, ClassId)> {
        self.queue.pop_front()
    }

    pub(crate) fn push(&mut self, stats: &mut IntegrationStats, a: ClassId, b: ClassId) {
        if self.seen.insert((a, b)) {
            stats.pairs_enqueued += 1;
            self.queue.push_back((a, b));
        }
    }

    /// The one-sided pairs `(N₁, N₂ⱼ)`.
    pub(crate) fn push_right(
        &mut self,
        stats: &mut IntegrationStats,
        n1: ClassId,
        kids2: &[ClassId],
    ) {
        for &k2 in kids2 {
            self.push(stats, n1, k2);
        }
    }

    /// The one-sided pairs `(N₁ᵢ, N₂)`.
    pub(crate) fn push_left(
        &mut self,
        stats: &mut IntegrationStats,
        kids1: &[ClassId],
        n2: ClassId,
    ) {
        for &k1 in kids1 {
            self.push(stats, k1, n2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use assertions::{ClassAssertion, ClassOp};
    use oo_model::SchemaBuilder;

    fn mirror_schemas(n: usize) -> (Schema, Schema, AssertionSet) {
        // Two identical chains of n classes with pairwise equivalences.
        let mut b1 = SchemaBuilder::new("S1");
        let mut b2 = SchemaBuilder::new("S2");
        for i in 0..n {
            b1 = b1.empty_class(format!("a{i}"));
            b2 = b2.empty_class(format!("b{i}"));
        }
        for i in 1..n {
            b1 = b1.isa(format!("a{i}"), format!("a{}", i - 1));
            b2 = b2.isa(format!("b{i}"), format!("b{}", i - 1));
        }
        let s1 = b1.build().unwrap();
        let s2 = b2.build().unwrap();
        let aset = AssertionSet::build((0..n).map(|i| {
            ClassAssertion::simple("S1", format!("a{i}"), ClassOp::Equiv, "S2", format!("b{i}"))
        }))
        .unwrap();
        (s1, s2, aset)
    }

    #[test]
    fn all_pairs_checked() {
        let (s1, s2, aset) = mirror_schemas(5);
        let run = naive_schema_integration(&s1, &s2, &aset).unwrap();
        // The naive algorithm checks every class pair: n² = 25.
        assert_eq!(run.stats.pairs_checked, 25);
        // All five pairs merged.
        assert_eq!(run.stats.classes_merged, 5);
        assert_eq!(run.output.len(), 5);
    }

    #[test]
    fn quadratic_growth() {
        for n in [4usize, 8, 16] {
            let (s1, s2, aset) = mirror_schemas(n);
            let run = naive_schema_integration(&s1, &s2, &aset).unwrap();
            assert_eq!(run.stats.pairs_checked, (n * n) as u64, "n={n}");
        }
    }

    #[test]
    fn isa_chain_preserved() {
        let (s1, s2, aset) = mirror_schemas(4);
        let run = naive_schema_integration(&s1, &s2, &aset).unwrap();
        assert!(run.output.has_isa("a1", "a0"));
        assert!(run.output.has_isa("a3", "a2"));
        assert_eq!(run.output.isa_links().count(), 3);
    }

    #[test]
    fn forest_schemas_reachable_through_virtual_start() {
        // Two disconnected roots per schema: the virtual start node makes
        // every pair reachable.
        let s1 = SchemaBuilder::new("S1")
            .empty_class("r1")
            .empty_class("r2")
            .build()
            .unwrap();
        let s2 = SchemaBuilder::new("S2")
            .empty_class("q1")
            .empty_class("q2")
            .build()
            .unwrap();
        let aset = AssertionSet::build([ClassAssertion::simple(
            "S1",
            "r2",
            ClassOp::Equiv,
            "S2",
            "q2",
        )])
        .unwrap();
        let run = naive_schema_integration(&s1, &s2, &aset).unwrap();
        assert_eq!(run.stats.pairs_checked, 4);
        assert_eq!(run.stats.classes_merged, 1);
        assert_eq!(run.output.len(), 3);
    }

    #[test]
    fn no_assertions_copies_everything() {
        let (s1, s2, _) = mirror_schemas(3);
        let empty = AssertionSet::new();
        let run = naive_schema_integration(&s1, &s2, &empty).unwrap();
        assert_eq!(run.output.len(), 6);
        assert_eq!(run.stats.classes_copied, 6);
        assert_eq!(run.stats.classes_merged, 0);
    }
}
