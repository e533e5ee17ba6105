//! **Principle 6** and §6.2 — link integration.
//!
//! After traversal, the integrated schema receives:
//!
//! * every **local is-a link**, mapped through `IS(·)` ("each local link is
//!   implicitly taken as a link in the integrated schema");
//! * the links generated by the **inclusion principle**;
//!
//! and then redundant links are removed (Fig. 12): when two local links or
//! a link and a path connect the same merged endpoints, only the
//! non-redundant ones survive. Removal is transitive reduction of the
//! integrated is-a DAG, which covers both Fig. 12(a) (duplicate parallel
//! links collapse into one set entry) and Fig. 12(b) (a direct link
//! shortcutting a longer path is dropped).
//!
//! Aggregation-link constraint integration (`lcs` over the Fig. 13 lattice)
//! happens during class merging — see `super::equivalence::merge_aggs`.

use crate::context::Integrator;
use crate::reduction;
use crate::trace::TraceEvent;
use crate::Result;
use oo_model::IdHash;
use std::collections::{BTreeSet, HashSet};

/// Insert all is-a links (local + inclusion-generated), then reduce. The
/// links are collected and reduced as integrated class positions; their
/// names are written into the output once, after the reduction.
pub fn integrate_links(ctx: &mut Integrator<'_>) -> Result<()> {
    let mut seen: HashSet<(u32, u32), IdHash> = HashSet::default();
    let mut links: Vec<(u32, u32)> = Vec::new();
    for link in ctx.requested_links() {
        if seen.insert(link) {
            links.push(link);
            ctx.stats.isa_links_inserted += 1;
            if ctx.collect_trace {
                let (sub, sup) = (ctx.output.name_at(link.0), ctx.output.name_at(link.1));
                let (sub, sup) = (sub.to_string(), sup.to_string());
                ctx.trace.push(TraceEvent::IsaInserted { sub, sup });
            }
        }
    }
    // §6.2: remove redundant links (Fig. 12), reported in name order.
    let output = &ctx.output;
    let name = |&(sub, sup): &(u32, u32)| (output.name_at(sub), output.name_at(sup));
    let by_name = |x: &(u32, u32), y: &(u32, u32)| name(x).cmp(&name(y));
    let redundant = reduction::redundant(output.len(), &links, by_name);
    let mut removed: Vec<(u32, u32)> = Vec::new();
    let mut kept: Vec<(String, String)> = Vec::with_capacity(links.len());
    for (link, redundant) in links.into_iter().zip(redundant) {
        match redundant {
            true => removed.push(link),
            false => {
                let (sub, sup) = name(&link);
                kept.push((sub.to_string(), sup.to_string()));
            }
        }
    }
    removed.sort_by(by_name);
    for link in &removed {
        ctx.stats.isa_links_removed += 1;
        if ctx.collect_trace {
            let (sub, sup) = name(link);
            let (sub, sup) = (sub.to_string(), sup.to_string());
            ctx.trace.push(TraceEvent::IsaRemoved { sub, sup });
        }
    }
    ctx.output
        .set_isa(kept.into_iter().collect::<BTreeSet<_>>());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::SchemaGraph;
    use assertions::{AssertionSet, ClassAssertion, ClassOp};
    use oo_model::SchemaBuilder;

    /// Fig. 12(a): A→A' in S₁ and B→B' in S₂ with A≡B, A'≡B' — only one
    /// integrated link results.
    #[test]
    fn fig_12a_parallel_links_collapse() {
        let s1 = SchemaBuilder::new("S1")
            .empty_class("A")
            .empty_class("Ap")
            .isa("A", "Ap")
            .build()
            .unwrap();
        let s2 = SchemaBuilder::new("S2")
            .empty_class("B")
            .empty_class("Bp")
            .isa("B", "Bp")
            .build()
            .unwrap();
        let aset = AssertionSet::build([
            ClassAssertion::simple("S1", "A", ClassOp::Equiv, "S2", "B"),
            ClassAssertion::simple("S1", "Ap", ClassOp::Equiv, "S2", "Bp"),
        ])
        .unwrap();
        let mut ctx = Integrator::new(&SchemaGraph::new(&s1), &SchemaGraph::new(&s2), &aset);
        ctx.merge_equivalent(0).unwrap();
        ctx.merge_equivalent(1).unwrap();
        ctx.finalize().unwrap();
        let links: Vec<_> = ctx.output.isa_links().collect();
        assert_eq!(links, vec![&("A".to_string(), "Ap".to_string())]);
    }

    /// Fig. 12(b): A→A' direct in S₁; B→B₁→B' in S₂; A≡B, A'≡B'. The direct
    /// integrated link is removed in favour of the longer path.
    #[test]
    fn fig_12b_shortcut_removed() {
        let s1 = SchemaBuilder::new("S1")
            .empty_class("A")
            .empty_class("Ap")
            .isa("A", "Ap")
            .build()
            .unwrap();
        let s2 = SchemaBuilder::new("S2")
            .empty_class("B")
            .empty_class("B1")
            .empty_class("Bp")
            .isa("B", "B1")
            .isa("B1", "Bp")
            .build()
            .unwrap();
        let aset = AssertionSet::build([
            ClassAssertion::simple("S1", "A", ClassOp::Equiv, "S2", "B"),
            ClassAssertion::simple("S1", "Ap", ClassOp::Equiv, "S2", "Bp"),
        ])
        .unwrap();
        let mut ctx = Integrator::new(&SchemaGraph::new(&s1), &SchemaGraph::new(&s2), &aset);
        ctx.merge_equivalent(0).unwrap();
        ctx.merge_equivalent(1).unwrap();
        ctx.finalize().unwrap();
        // A → B1 → Ap; the shortcut A → Ap is gone.
        assert!(!ctx.output.has_isa("A", "Ap"));
        assert!(ctx.output.has_isa("A", "B1"));
        assert!(ctx.output.has_isa("B1", "Ap"));
        assert!(ctx.output.has_isa_path("A", "Ap"));
        assert_eq!(ctx.stats.isa_links_removed, 1);
    }

    /// Links whose endpoints merged into the same class are dropped.
    #[test]
    fn self_links_skipped() {
        let s1 = SchemaBuilder::new("S1")
            .empty_class("A")
            .empty_class("Asub")
            .isa("Asub", "A")
            .build()
            .unwrap();
        let s2 = SchemaBuilder::new("S2").empty_class("B").build().unwrap();
        // Asub ≡ B — and Asub's parent A stays separate.
        let aset = AssertionSet::build([ClassAssertion::simple(
            "S1",
            "Asub",
            ClassOp::Equiv,
            "S2",
            "B",
        )])
        .unwrap();
        let mut ctx = Integrator::new(&SchemaGraph::new(&s1), &SchemaGraph::new(&s2), &aset);
        ctx.merge_equivalent(0).unwrap();
        ctx.finalize().unwrap();
        assert!(ctx.output.has_isa("Asub", "A"));
        assert_eq!(ctx.output.isa_links().count(), 1);
    }
}
