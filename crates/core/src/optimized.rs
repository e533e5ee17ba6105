//! Algorithm **schema_integration** + **path_labelling** (§6.1) — the
//! paper's optimized integration algorithm.
//!
//! Breadth-first traversal over node pairs as in the naive algorithm, but:
//!
//! * only the diagonal child pairs `(N₁ᵢ, N₂ⱼ)` are enqueued by default;
//!   one-sided pairs are enqueued selectively per assertion case
//!   (observations 1–4 of §6.1);
//! * on `N₁ ≡ N₂`, sibling pairs `(N₁, M₂ⱼ)` / `(M₁ᵢ, N₂)` are removed
//!   from the queue (their relationships are derivable);
//! * on `N₁ ⊆ N₂`, a **depth-first** `path_labelling` walk labels the
//!   is-a paths under N₂ that N₁ is included in, generates the single
//!   non-redundant is-a link of Principle 2/Fig. 8, and the label is
//!   inherited by N₁'s subtree so all those pairs are skipped later
//!   (line 7's label test);
//! * on `∅` / `→`, neither one-sided family is expanded (observation 3);
//!   assertions declared on the pairs this hides are warned about and
//!   applied;
//! * on `∩` or no assertion, both families are expanded (observation 4).
//!
//! Every step works on the dense class ids of [`SchemaGraph`] and asks the
//! run's relation table, so a step costs O(1) amortised and allocates no
//! class name unless it records a trace event, a warning or an
//! integration operation.

use crate::context::Integrator;
use crate::graph::{ClassId, SchemaGraph};
use crate::integrated::SourceRef;
use crate::naive::{handle_pair, relation_name, IntegrationRun, PairQueue};
use crate::trace::TraceEvent;
use crate::Result;
use assertions::{AssertionSet, PairRelation};
use oo_model::Schema;
use std::collections::HashSet;

/// Per-side label state, by node: own labels and inherited labels (the
/// `<l₁·…·lₙ, l₁'·…·lₘ'>` pairs of §6.1), and the label of the last
/// `path_labelling` walk that visited the node.
struct LabelState {
    labels: Vec<Vec<u32>>,
    inherited: Vec<Vec<u32>>,
    visited: Vec<u32>,
}

impl LabelState {
    fn new(graph: &SchemaGraph<'_>) -> Self {
        let nodes = graph.len() + 1;
        LabelState {
            labels: vec![Vec::new(); nodes],
            inherited: vec![Vec::new(); nodes],
            visited: vec![0; nodes],
        }
    }
}

/// Add `label` to a node's label set; false if it was there already.
fn add_label(set: &mut Vec<u32>, label: u32) -> bool {
    let new = !set.contains(&label);
    if new {
        set.push(label);
    }
    new
}

fn intersects(a: &[u32], b: &[u32]) -> bool {
    a.iter().any(|l| b.contains(l))
}

/// Ablation switches for the optimized algorithm: each optimization can
/// be turned off independently to measure its contribution (the DESIGN.md
/// ablation benches).
#[derive(Debug, Clone, Copy)]
pub struct IntegrationOptions {
    /// Collect trace events.
    pub collect_trace: bool,
    /// Use labels/inherited labels + `path_labelling` (observation 2).
    pub labels: bool,
    /// Remove sibling pairs on equivalences (observation 1, line 10).
    pub sibling_removal: bool,
    /// Skip one-sided expansions for ∅ / → pairs (observation 3).
    pub skip_disjoint_expansion: bool,
    /// Run the pre-integration analysis gate (`fedoo-analysis`); `Deny`
    /// diagnostics abort with [`crate::IntegrationError::AnalysisRejected`].
    /// Disable as an escape hatch for inputs known to trip a lint.
    pub analysis_gate: bool,
}

impl Default for IntegrationOptions {
    fn default() -> Self {
        IntegrationOptions {
            collect_trace: true,
            labels: true,
            sibling_removal: true,
            skip_disjoint_expansion: true,
            analysis_gate: true,
        }
    }
}

/// Run the optimized integration of `s1` and `s2` under `assertions`.
pub fn schema_integration(
    s1: &Schema,
    s2: &Schema,
    assertions: &AssertionSet,
) -> Result<IntegrationRun> {
    schema_integration_with_options(s1, s2, assertions, IntegrationOptions::default())
}

/// Optimized integration with optional trace collection.
pub fn schema_integration_with_trace(
    s1: &Schema,
    s2: &Schema,
    assertions: &AssertionSet,
    collect_trace: bool,
) -> Result<IntegrationRun> {
    schema_integration_with_options(
        s1,
        s2,
        assertions,
        IntegrationOptions {
            collect_trace,
            ..IntegrationOptions::default()
        },
    )
}

/// Optimized integration with explicit ablation options.
pub fn schema_integration_with_options(
    s1: &Schema,
    s2: &Schema,
    assertions: &AssertionSet,
    options: IntegrationOptions,
) -> Result<IntegrationRun> {
    integrate(s1, s2, assertions, options, warn_ignored_subtree)
}

/// Collects the warnings for the subtree pairs that removing one sibling
/// pair prunes.
type PruneWarnings = fn(&mut Integrator<'_>, &SchemaGraph<'_>, &SchemaGraph<'_>, ClassId, ClassId);

fn integrate(
    s1: &Schema,
    s2: &Schema,
    assertions: &AssertionSet,
    options: IntegrationOptions,
    prune_warnings: PruneWarnings,
) -> Result<IntegrationRun> {
    let _span = obs::span!(
        "core.integrate",
        "core",
        "schemas={}/{} assertions={}",
        s1.name,
        s2.name,
        assertions.len()
    );
    let (analysis, mut gate_warnings) = match options.analysis_gate {
        true => {
            let _gate = obs::span!("core.analysis_gate", "core");
            let (stats, warnings) = crate::naive::run_gate(s1, s2, assertions)?;
            (Some(stats), warnings)
        }
        false => (None, Vec::new()),
    };
    let g1 = SchemaGraph::new(s1);
    let g2 = SchemaGraph::new(s2);
    let mut ctx = Integrator::new(&g1, &g2, assertions);
    ctx.collect_trace = options.collect_trace;
    let mut labels1 = LabelState::new(&g1);
    let mut labels2 = LabelState::new(&g2);
    let mut next_label: u32 = 0;

    let mut queue = PairQueue::new(g1.start(), g2.start());
    let mut cancelled: HashSet<(ClassId, ClassId)> = HashSet::new();

    let pair_span = obs::span!("core.pair_checks", "core");
    while let Some((n1, n2)) = queue.pop() {
        if cancelled.contains(&(n1, n2)) {
            ctx.stats.pairs_removed_as_siblings += 1;
            ctx.push_trace(|| TraceEvent::RemoveSiblingPair {
                left: g1.display(n1).to_string(),
                right: g2.display(n2).to_string(),
            });
            // §6.1 observation 3: an assertion declared between a removed
            // pair is "strange" — the paper informs the user and asks
            // whether it is intended. We surface the warning and honour
            // the directly declared assertion (the post-confirmation
            // behaviour); assertions buried deeper in the pruned subtree
            // are warned about but not applied.
            if let (Some(c1), Some(c2)) = (g1.name(n1), g2.name(n2)) {
                let rel = ctx.relation(n1, n2);
                if !matches!(rel, PairRelation::None) {
                    ctx.warnings.push(format!(
                        "assertion between ({c1}, {c2}) was declared although the pair was \
                         pruned by an equivalence between relatives; applying it anyway"
                    ));
                    ctx.stats.pairs_checked += 1;
                    handle_pair(&mut ctx, c1, c2, rel)?;
                }
                prune_warnings(&mut ctx, &g1, &g2, n1, n2);
            }
            continue;
        }
        let kids1 = g1.children(n1);
        let kids2 = g2.children(n2);
        // Line 6: the diagonal pairs are always enqueued.
        for &k1 in kids1 {
            for &k2 in kids2 {
                queue.push(&mut ctx.stats, k1, k2);
            }
        }
        let (c1, c2) = match (g1.name(n1), g2.name(n2)) {
            (Some(c1), Some(c2)) => (c1, c2),
            _ => {
                // The virtual start pair: the diagonal expansion above
                // already seeded every root pair; one-sided pairs through
                // the start node would leak unpruned cross pairs.
                continue;
            }
        };
        // Line 7: the label test.
        let skip_left = options.labels
            && intersects(
                &labels1.inherited[n1 as usize],
                &labels2.labels[n2 as usize],
            );
        let skip_right = options.labels
            && intersects(
                &labels1.labels[n1 as usize],
                &labels2.inherited[n2 as usize],
            );
        if skip_left || skip_right {
            ctx.stats.pairs_skipped_by_labels += 1;
            ctx.push_trace(|| TraceEvent::SkipPairLabels {
                left: c1.to_string(),
                right: c2.to_string(),
            });
            // Lines 34-35: continue expanding on the unlabelled side.
            if skip_left {
                queue.push_right(&mut ctx.stats, n1, kids2);
            } else {
                queue.push_left(&mut ctx.stats, kids1, n2);
            }
            continue;
        }
        let rel = ctx.relation_counted(n1, n2, false);
        ctx.push_trace(|| TraceEvent::PopPair {
            left: c1.to_string(),
            right: c2.to_string(),
            relation: relation_name(&rel).to_string(),
        });
        // Merge or record the principle's work; with labels on, an
        // inclusion's link comes from `path_labelling` instead.
        if !(options.labels && matches!(rel, PairRelation::Incl(_) | PairRelation::InclRev(_))) {
            handle_pair(&mut ctx, c1, c2, rel)?;
        }
        match rel {
            PairRelation::Equiv(_) => {
                // Line 10: remove sibling pairs from S_b.
                if options.sibling_removal {
                    for m2 in g2.siblings(n2) {
                        cancelled.insert((n1, m2));
                    }
                    for m1 in g1.siblings(n1) {
                        cancelled.insert((m1, n2));
                    }
                }
            }
            PairRelation::Incl(_) if options.labels => {
                // Lines 11-17: depth-first labelling of N2's subgraph.
                next_label += 1;
                ctx.stats.labels_created += 1;
                ctx.push_trace(|| TraceEvent::DfsStart {
                    n1: c1.to_string(),
                    root: c2.to_string(),
                    label: next_label,
                });
                let walk = Walk {
                    graph: &g2,
                    side: Side::SubInS1,
                    sub: n1,
                    sub_name: c1,
                    label: next_label,
                };
                path_labelling(&mut ctx, &walk, n2, &mut labels2)?;
                inherit(&mut ctx, &g1, n1, next_label, &mut labels1);
                queue.push_right(&mut ctx.stats, n1, kids2);
            }
            PairRelation::InclRev(_) if options.labels => {
                // Lines 18-24: symmetric case, N2 ⊆ N1.
                next_label += 1;
                ctx.stats.labels_created += 1;
                ctx.push_trace(|| TraceEvent::DfsStart {
                    n1: c2.to_string(),
                    root: c1.to_string(),
                    label: next_label,
                });
                let walk = Walk {
                    graph: &g1,
                    side: Side::SubInS2,
                    sub: n2,
                    sub_name: c2,
                    label: next_label,
                };
                path_labelling(&mut ctx, &walk, n1, &mut labels1)?;
                inherit(&mut ctx, &g2, n2, next_label, &mut labels2);
                queue.push_left(&mut ctx.stats, kids1, n2);
            }
            PairRelation::Disjoint(_) if !options.skip_disjoint_expansion => {
                queue.push_right(&mut ctx.stats, n1, kids2);
                queue.push_left(&mut ctx.stats, kids1, n2);
            }
            PairRelation::Disjoint(_) | PairRelation::Derivation(_) => {
                // Line 25, observation 3: rules only, no one-sided pairs.
                apply_hidden_assertions(&mut ctx, &g1, &g2, (n1, n2), rel)?;
            }
            PairRelation::Incl(_)
            | PairRelation::InclRev(_)
            | PairRelation::Intersect(_)
            | PairRelation::None => {
                // Lines 29-31 and 33, observation 4 (and the inclusion
                // ablation without labels): both families expanded.
                queue.push_right(&mut ctx.stats, n1, kids2);
                queue.push_left(&mut ctx.stats, kids1, n2);
            }
        }
    }
    drop(pair_span);
    {
        let _finalize = obs::span!("core.finalize", "core");
        ctx.finalize()?;
    }
    ctx.stats.publish();
    gate_warnings.extend(ctx.warnings);
    Ok(IntegrationRun {
        output: ctx.output,
        stats: ctx.stats,
        trace: ctx.trace,
        warnings: gate_warnings,
        analysis,
    })
}

/// The warning for a declared pair that a removed sibling pair prunes.
fn pruned_pair_warning(ca: &str, cb: &str) -> String {
    format!(
        "assertion between ({ca}, {cb}) ignored: the pair was pruned by an \
         equivalence between relatives; please confirm the assertion is intended"
    )
}

/// Collect "strange assertion" warnings for a removed sibling pair and the
/// subtree pairs its removal prunes: each declared pair of `n1`'s subtree
/// with `n2`'s, in breadth-first order of the left subtree, then of the
/// right (under multiple inheritance once per path, as the unfoldings
/// repeat a class). The table rows of the smaller subtree are read, and
/// each partner is tested against the other subtree's interval.
fn warn_ignored_subtree(
    ctx: &mut Integrator<'_>,
    g1: &SchemaGraph<'_>,
    g2: &SchemaGraph<'_>,
    n1: ClassId,
    n2: ClassId,
) {
    let (left, right) = (g1.subtree(n1), g2.subtree(n2));
    let mut hits: Vec<(ClassId, ClassId)> = Vec::new();
    if left.len() <= right.len() {
        for &a in left.iter() {
            let partners = ctx.table.left_partners(a).iter();
            hits.extend(partners.filter(|p| g2.reaches(n2, p.0)).map(|p| (a, p.0)));
        }
    } else {
        for &b in right.iter() {
            let partners = ctx.table.right_partners(b).iter();
            hits.extend(partners.filter(|p| g1.reaches(n1, p.0)).map(|p| (p.0, b)));
        }
    }
    ctx.stats.relation_lookups += left.len().min(right.len()) as u64;
    hits.retain(|&hit| hit != (n1, n2)); // the direct pair was handled above
    if hits.is_empty() {
        return;
    }
    hits.sort_unstable();
    let right_order = g2.unfolding(n2);
    for a in g1.unfolding(n1) {
        let lo = hits.partition_point(|&(x, _)| x < a);
        let hi = hits.partition_point(|&(x, _)| x <= a);
        if lo == hi {
            continue;
        }
        for &b in &right_order {
            if hits[lo..hi].binary_search(&(a, b)).is_ok() {
                let warning = pruned_pair_warning(g1.display(a), g2.display(b));
                ctx.warnings.push(warning);
            }
        }
    }
}

/// Observation 3 expands neither one-sided family under `N₁ ∅ N₂` or
/// `N₁ → N₂`, so the traversal never reaches a pair of a class below N₁
/// with N₂, or of N₁ with a class below N₂. An assertion declared on such
/// a pair is "strange" (§6.1): warn, then apply it as the naive algorithm
/// would, in name order of the left classes, then of the right ones.
fn apply_hidden_assertions(
    ctx: &mut Integrator<'_>,
    g1: &SchemaGraph<'_>,
    g2: &SchemaGraph<'_>,
    (n1, n2): (ClassId, ClassId),
    rel: PairRelation,
) -> Result<()> {
    let below_left = ctx.table.right_partners(n2).iter().map(|p| (p.0, n2));
    let below_right = ctx.table.left_partners(n1).iter().map(|p| (n1, p.0));
    let hidden: Vec<(ClassId, ClassId)> = below_left
        .filter(|&(a, _)| a != n1 && g1.reaches(n1, a))
        .chain(below_right.filter(|&(_, b)| b != n2 && g2.reaches(n2, b)))
        .collect();
    ctx.stats.relation_lookups += 2;
    for (a, b) in hidden {
        let (ca, cb) = (g1.display(a), g2.display(b));
        let hidden_rel = ctx.relation_counted(a, b, false);
        ctx.warnings.push(format!(
            "assertion between ({ca}, {cb}) was declared although the traversal does not \
             reach the pair below the {} pair ({}, {}); applying it anyway",
            relation_name(&rel),
            g1.display(n1),
            g2.display(n2)
        ));
        handle_pair(ctx, ca, cb, hidden_rel)?;
    }
    Ok(())
}

/// Which schema holds the ⊆-side class (N₁ of `path_labelling`); the walk
/// happens in the other schema.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Side {
    /// The sub class is in S1; the walked graph is S2.
    SubInS1,
    /// The sub class is in S2; the walked graph is S1.
    SubInS2,
}

/// One `path_labelling` walk: the ⊆-side class, the graph walked (the
/// other schema's) and the walk's label.
struct Walk<'g, 'a> {
    graph: &'g SchemaGraph<'a>,
    side: Side,
    sub: ClassId,
    sub_name: &'a str,
    label: u32,
}

impl Walk<'_, '_> {
    /// The `N₁ θ V` consultation, normalised so that `Incl` always means
    /// "sub ⊆ v".
    fn relation(&self, ctx: &mut Integrator<'_>, v: ClassId) -> PairRelation {
        match self.side {
            Side::SubInS1 => ctx.relation_counted(self.sub, v, true),
            Side::SubInS2 => match ctx.relation_counted(v, self.sub, true) {
                PairRelation::Incl(id) => PairRelation::InclRev(id),
                PairRelation::InclRev(id) => PairRelation::Incl(id),
                other => other,
            },
        }
    }

    /// The (S1, S2) class names of the pair `(sub, v)`.
    fn pair<'n>(&'n self, v: &'n str) -> (&'n str, &'n str) {
        match self.side {
            Side::SubInS1 => (self.sub_name, v),
            Side::SubInS2 => (v, self.sub_name),
        }
    }

    /// Record the pending `is_a(IS(sub), IS(target))` request with the
    /// correct schema sides.
    fn link(&self, ctx: &mut Integrator<'_>, target: &str) {
        let (sub_schema, sup_schema) = match self.side {
            Side::SubInS1 => (ctx.s1, ctx.s2),
            Side::SubInS2 => (ctx.s2, ctx.s1),
        };
        ctx.note_inclusion(
            SourceRef::new(sub_schema.name.as_str(), self.sub_name),
            SourceRef::new(sup_schema.name.as_str(), target),
        );
        ctx.push_trace(|| TraceEvent::IsaInserted {
            sub: self.sub_name.to_string(),
            sup: target.to_string(),
        });
    }
}

/// Algorithm **path_labelling**: depth-first traversal of the subgraph
/// rooted at `root` (in the super-side schema), labelling the nodes `V`
/// with `sub ⊆ V` or `sub ≡ V`, merging on equivalence, and generating the
/// single non-redundant is-a link of Fig. 8 where a path ends.
fn path_labelling(
    ctx: &mut Integrator<'_>,
    walk: &Walk<'_, '_>,
    root: ClassId,
    state: &mut LabelState,
) -> Result<()> {
    let _span = obs::span!(
        "core.path_labelling",
        "core",
        "sub={} label={}",
        walk.sub_name,
        walk.label
    );
    visit(ctx, walk, root, None, state)
}

fn visit(
    ctx: &mut Integrator<'_>,
    walk: &Walk<'_, '_>,
    v: ClassId,
    nearest_incl: Option<&str>,
    state: &mut LabelState,
) -> Result<()> {
    if state.visited[v as usize] == walk.label {
        return Ok(());
    }
    state.visited[v as usize] = walk.label;
    let Some(vc) = walk.graph.name(v) else {
        return Ok(());
    };
    let rel = walk.relation(ctx, v);
    ctx.push_trace(|| TraceEvent::DfsPop {
        node: vc.to_string(),
        relation: relation_name(&rel).to_string(),
    });
    match rel {
        PairRelation::Equiv(id) => {
            // Lines 10-12: label, merge, stop searching this path.
            add_label(&mut state.labels[v as usize], walk.label);
            ctx.stats.nodes_labelled += 1;
            ctx.push_trace(|| TraceEvent::Labelled {
                node: vc.to_string(),
                label: walk.label,
            });
            ctx.merge_equivalent(id)?;
        }
        PairRelation::Incl(_) => {
            // Lines 6-9: label and go deeper.
            add_label(&mut state.labels[v as usize], walk.label);
            ctx.stats.nodes_labelled += 1;
            ctx.push_trace(|| TraceEvent::Labelled {
                node: vc.to_string(),
                label: walk.label,
            });
            let kids = walk.graph.children(v);
            if kids.is_empty() {
                // Deepest ⊆ node on this path: the Fig. 8 link target.
                walk.link(ctx, vc);
            }
            // A child path that labelled or linked deeper handles its own
            // target; a child that terminated immediately records the link
            // at this node via `nearest_incl`.
            for &k in kids {
                visit(ctx, walk, k, Some(vc), state)?;
            }
        }
        PairRelation::InclRev(_) | PairRelation::Disjoint(_) | PairRelation::Derivation(_) => {
            // Lines 13-18: θ ∈ {→, ∅, ⊇}: the path ends here; backtrack to
            // the first non-* ancestor and insert the is-a link there.
            if let Some(target) = nearest_incl {
                walk.link(ctx, target);
            }
            // The rule-generating assertions are still recorded (the
            // breadth-first phase may never check this pair again).
            if !matches!(rel, PairRelation::InclRev(_)) {
                let (c1, c2) = walk.pair(vc);
                handle_pair(ctx, c1, c2, rel)?;
            }
        }
        PairRelation::Intersect(_) | PairRelation::None => {
            // Lines 19-25 (default): mark with * and go deeper; at a leaf,
            // backtrack to the first non-* node and link there. `∩` is
            // not in the paper's line-13 set, so it is treated like the
            // default, but its rules are recorded.
            if let PairRelation::Intersect(id) = rel {
                ctx.note_intersection(id);
            }
            ctx.push_trace(|| TraceEvent::Starred {
                node: vc.to_string(),
            });
            let kids = walk.graph.children(v);
            if kids.is_empty() {
                if let Some(target) = nearest_incl {
                    walk.link(ctx, target);
                }
            }
            for &k in kids {
                visit(ctx, walk, k, nearest_incl, state)?;
            }
        }
    }
    Ok(())
}

/// Propagate an inherited label to a node and its whole subtree
/// (lines 12-15 / 19-22: `inherited-labels(N) := …·l'`, transferred to all
/// child nodes).
fn inherit(
    ctx: &mut Integrator<'_>,
    graph: &SchemaGraph<'_>,
    node: ClassId,
    label: u32,
    state: &mut LabelState,
) {
    ctx.push_trace(|| TraceEvent::InheritedLabels {
        root: graph.display(node).to_string(),
        label,
    });
    let mut stack = vec![node];
    while let Some(n) = stack.pop() {
        // The label is fresh, so a node that has it was reached already.
        if add_label(&mut state.inherited[n as usize], label) {
            stack.extend_from_slice(graph.children(n));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive_schema_integration;
    use assertions::{ClassAssertion, ClassOp};
    use oo_model::SchemaBuilder;
    use std::collections::BTreeSet;

    /// The Fig. 18 schemas of Appendix A / Example 12.
    pub(crate) fn fig_18() -> (Schema, Schema, AssertionSet) {
        let s1 = SchemaBuilder::new("S1")
            .empty_class("person")
            .empty_class("student")
            .empty_class("lecturer")
            .empty_class("teaching_assistant")
            .isa("student", "person")
            .isa("lecturer", "person")
            .isa("teaching_assistant", "lecturer")
            .build()
            .unwrap();
        let s2 = SchemaBuilder::new("S2")
            .empty_class("human")
            .empty_class("employee")
            .empty_class("faculty")
            .empty_class("professor")
            .empty_class("student")
            .isa("employee", "human")
            .isa("student", "human")
            .isa("faculty", "employee")
            .isa("professor", "faculty")
            .build()
            .unwrap();
        let aset = AssertionSet::build([
            ClassAssertion::simple("S1", "person", ClassOp::Equiv, "S2", "human"),
            ClassAssertion::simple("S1", "lecturer", ClassOp::Incl, "S2", "employee"),
            ClassAssertion::simple("S1", "lecturer", ClassOp::Incl, "S2", "faculty"),
            ClassAssertion::simple("S1", "teaching_assistant", ClassOp::Incl, "S2", "employee"),
            ClassAssertion::simple("S1", "teaching_assistant", ClassOp::Incl, "S2", "faculty"),
            ClassAssertion::simple("S1", "student", ClassOp::Intersect, "S2", "faculty"),
        ])
        .unwrap();
        (s1, s2, aset)
    }

    #[test]
    fn example_12_integration_shape() {
        let (s1, s2, aset) = fig_18();
        let run = schema_integration(&s1, &s2, &aset).unwrap();
        // person/human merged.
        assert_eq!(run.output.is("S1", "person"), Some("person"));
        assert_eq!(run.output.is("S2", "human"), Some("person"));
        // lecturer ⊆ faculty: exactly one generated link to the deepest
        // applicable superclass (not to employee).
        assert!(run.output.has_isa("lecturer", "faculty"));
        assert!(!run.output.has_isa("lecturer", "employee"));
        // student ∩ faculty: three virtual classes and three rules.
        assert!(run.output.class("student_faculty").is_some());
        assert_eq!(run.stats.rules_generated, 3);
        // the intersection's complement classes exist
        assert!(run.output.class("student_").is_some());
        assert!(run.output.class("faculty_").is_some());
    }

    #[test]
    fn optimized_checks_fewer_pairs_than_naive() {
        let (s1, s2, aset) = fig_18();
        let naive = naive_schema_integration(&s1, &s2, &aset).unwrap();
        let optimized = schema_integration(&s1, &s2, &aset).unwrap();
        assert!(
            optimized.stats.total_checks() < naive.stats.pairs_checked,
            "optimized {} !< naive {}",
            optimized.stats.total_checks(),
            naive.stats.pairs_checked
        );
    }

    #[test]
    fn same_final_schema_as_naive() {
        let (s1, s2, aset) = fig_18();
        let naive = naive_schema_integration(&s1, &s2, &aset).unwrap();
        let optimized = schema_integration(&s1, &s2, &aset).unwrap();
        // Same classes.
        let nc: Vec<&str> = naive.output.classes().map(|c| c.name.as_str()).collect();
        let oc: Vec<&str> = optimized
            .output
            .classes()
            .map(|c| c.name.as_str())
            .collect();
        let mut nc2 = nc.clone();
        let mut oc2 = oc.clone();
        nc2.sort();
        oc2.sort();
        assert_eq!(nc2, oc2);
        // Same is-a links.
        let nl: BTreeSet<_> = naive.output.isa_links().cloned().collect();
        let ol: BTreeSet<_> = optimized.output.isa_links().cloned().collect();
        assert_eq!(nl, ol);
        // Same number of rules.
        assert_eq!(naive.output.rules.len(), optimized.output.rules.len());
    }

    #[test]
    fn equivalence_prunes_sibling_pairs() {
        // Fig. 15-style: one ≡ at the roots; the (N1, N2-children) and
        // (N1-children, N2) pairs are never checked.
        let s1 = SchemaBuilder::new("S1")
            .empty_class("N1")
            .empty_class("a")
            .empty_class("b")
            .isa("a", "N1")
            .isa("b", "N1")
            .build()
            .unwrap();
        let s2 = SchemaBuilder::new("S2")
            .empty_class("N2")
            .empty_class("x")
            .empty_class("y")
            .isa("x", "N2")
            .isa("y", "N2")
            .build()
            .unwrap();
        let aset = AssertionSet::build([ClassAssertion::simple(
            "S1",
            "N1",
            ClassOp::Equiv,
            "S2",
            "N2",
        )])
        .unwrap();
        let run = schema_integration(&s1, &s2, &aset).unwrap();
        // Checked: (N1,N2) + the 4 diagonal child pairs = 5.
        assert_eq!(run.stats.pairs_checked, 5);
        let naive = naive_schema_integration(&s1, &s2, &aset).unwrap();
        assert_eq!(naive.stats.pairs_checked, 9);
    }

    #[test]
    fn labels_prune_inclusion_subtrees() {
        // lecturer ⊆ employee with employee → faculty → professor chain:
        // teaching_assistant (child of lecturer) inherits the label and is
        // never checked against the labelled chain.
        let (s1, s2, aset) = fig_18();
        let run = schema_integration(&s1, &s2, &aset).unwrap();
        assert!(run.stats.pairs_skipped_by_labels > 0);
        // No checked pair involves teaching_assistant vs faculty.
        for e in &run.trace {
            if let TraceEvent::PopPair { left, right, .. } = e {
                assert!(
                    !(left == "teaching_assistant" && right == "faculty"),
                    "labelled pair was checked"
                );
            }
        }
    }

    #[test]
    fn derivation_pairs_not_expanded() {
        // S1(parent, brother) → S2(uncle): old-brother (child of brother)
        // vs uncle is not checked (observation 3).
        let s1 = SchemaBuilder::new("S1")
            .empty_class("parent")
            .empty_class("brother")
            .empty_class("old_brother")
            .isa("old_brother", "brother")
            .build()
            .unwrap();
        let s2 = SchemaBuilder::new("S2")
            .empty_class("uncle")
            .empty_class("rich_uncle")
            .isa("rich_uncle", "uncle")
            .build()
            .unwrap();
        let aset = AssertionSet::build([ClassAssertion::derivation(
            "S1",
            ["parent", "brother"],
            "S2",
            "uncle",
        )])
        .unwrap();
        let run = schema_integration(&s1, &s2, &aset).unwrap();
        for e in &run.trace {
            if let TraceEvent::PopPair { left, right, .. } = e {
                assert!(
                    !(left == "old_brother" && right == "uncle"),
                    "(old_brother, uncle) should not be checked"
                );
            }
        }
        // The derivation rule is generated exactly once.
        assert_eq!(run.stats.rules_generated, 1);
    }
}

#[cfg(test)]
mod ablation_tests {
    use super::*;
    use crate::naive::naive_schema_integration;

    /// Every ablation variant produces the same integrated schema — the
    /// options only change traversal cost, never the result.
    #[test]
    fn ablation_variants_agree_on_output() {
        let (s1, s2, aset) = super::tests::fig_18();
        let baseline = naive_schema_integration(&s1, &s2, &aset).unwrap();
        let variants = [
            IntegrationOptions::default(),
            IntegrationOptions {
                labels: false,
                ..Default::default()
            },
            IntegrationOptions {
                sibling_removal: false,
                ..Default::default()
            },
            IntegrationOptions {
                skip_disjoint_expansion: false,
                ..Default::default()
            },
            IntegrationOptions {
                collect_trace: true,
                labels: false,
                sibling_removal: false,
                skip_disjoint_expansion: false,
                ..Default::default()
            },
        ];
        let mut base_names: Vec<&str> =
            baseline.output.classes().map(|c| c.name.as_str()).collect();
        base_names.sort();
        for opts in variants {
            let run = schema_integration_with_options(&s1, &s2, &aset, opts).unwrap();
            let mut names: Vec<&str> = run.output.classes().map(|c| c.name.as_str()).collect();
            names.sort();
            assert_eq!(names, base_names, "{opts:?}");
            let bl: std::collections::BTreeSet<_> = baseline.output.isa_links().cloned().collect();
            let ol: std::collections::BTreeSet<_> = run.output.isa_links().cloned().collect();
            assert_eq!(bl, ol, "{opts:?}");
            assert_eq!(
                run.output.rules.len(),
                baseline.output.rules.len(),
                "{opts:?}"
            );
        }
    }

    /// Turning every optimization off approaches the naive check count;
    /// the full configuration stays at the optimized count.
    #[test]
    fn ablation_costs_are_ordered() {
        let (s1, s2, aset) = super::tests::fig_18();
        let full = schema_integration_with_options(
            &s1,
            &s2,
            &aset,
            IntegrationOptions {
                collect_trace: false,
                ..Default::default()
            },
        )
        .unwrap();
        let none = schema_integration_with_options(
            &s1,
            &s2,
            &aset,
            IntegrationOptions {
                collect_trace: false,
                labels: false,
                sibling_removal: false,
                skip_disjoint_expansion: false,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(full.stats.total_checks() <= none.stats.total_checks());
        let naive = naive_schema_integration(&s1, &s2, &aset).unwrap();
        assert!(none.stats.total_checks() <= naive.stats.pairs_checked);
    }
}

#[cfg(test)]
mod indexed_traversal_tests {
    use super::*;
    use crate::naive::naive_schema_integration;
    use crate::stats::IntegrationStats;
    use assertions::{ClassAssertion, ClassOp};
    use oo_model::{ClassName, SchemaBuilder};
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// The prune-warning walk as it was before the relation table: the
    /// cross product of both pruned subtrees (breadth-first, once per path
    /// under multiple inheritance), one string-keyed lookup per pair.
    fn cross_product_warnings(
        ctx: &mut Integrator<'_>,
        g1: &SchemaGraph<'_>,
        g2: &SchemaGraph<'_>,
        n1: ClassId,
        n2: ClassId,
    ) {
        fn unfold(schema: &Schema, top: &str) -> Vec<ClassName> {
            let mut out = vec![ClassName::new(top)];
            let mut i = 0;
            while i < out.len() {
                let mut kids: Vec<ClassName> =
                    schema.children(&out[i]).into_iter().cloned().collect();
                kids.sort();
                out.extend(kids);
                i += 1;
            }
            out
        }
        let (s1, s2) = (ctx.s1, ctx.s2);
        let (top1, top2) = (g1.display(n1), g2.display(n2));
        for a in unfold(s1, top1) {
            for b in unfold(s2, top2) {
                if a.as_str() == top1 && b.as_str() == top2 {
                    continue;
                }
                ctx.stats.relation_lookups += 1;
                let rel = ctx.assertions.relation(
                    s1.name.as_str(),
                    a.as_str(),
                    s2.name.as_str(),
                    b.as_str(),
                );
                if !matches!(rel, PairRelation::None) {
                    ctx.warnings
                        .push(pruned_pair_warning(a.as_str(), b.as_str()));
                }
            }
        }
    }

    /// A schema of `n` classes `{prefix}0..`: class i ≥ 1 hangs below
    /// `parents[i - 1] % i`, plus the extra is-a links `extra` (pairs
    /// reduced to "later below earlier", so the schema stays acyclic).
    fn schema(name: &str, prefix: &str, parents: &[usize], extra: &[(usize, usize)]) -> Schema {
        let n = parents.len() + 1;
        let mut b = SchemaBuilder::new(name);
        for i in 0..n {
            b = b.empty_class(format!("{prefix}{i}"));
        }
        for (i, p) in parents.iter().enumerate() {
            b = b.isa(
                format!("{prefix}{}", i + 1),
                format!("{prefix}{}", p % (i + 1)),
            );
        }
        for &(x, y) in extra {
            let (sub, sup) = (x % n, y % n);
            if sub > sup {
                b = b.isa(format!("{prefix}{sub}"), format!("{prefix}{sup}"));
            }
        }
        b.build().expect("generated schemas are acyclic")
    }

    /// Assertions `a{i} θ b{targets[i]}` for the operator codes `ops`
    /// (0 none, 1 ≡, 2 ⊆, 3 ∩, 4 ∅, 5 →); conflicting draws are dropped.
    fn assertions(n1: usize, n2: usize, ops: &[u8], targets: &[usize]) -> AssertionSet {
        let mut set = AssertionSet::new();
        for (i, (&op, &t)) in ops.iter().zip(targets).enumerate().take(n1) {
            let (a, b) = (format!("a{i}"), format!("b{}", t % n2));
            let op = match op {
                1 => ClassOp::Equiv,
                2 => ClassOp::Incl,
                3 => ClassOp::Intersect,
                4 => ClassOp::Disjoint,
                5 => {
                    let _ = set.add(ClassAssertion::derivation("S1", [a], "S2", b));
                    continue;
                }
                _ => continue,
            };
            let _ = set.add(ClassAssertion::simple("S1", a, op, "S2", b));
        }
        set
    }

    fn run_with(
        s1: &Schema,
        s2: &Schema,
        set: &AssertionSet,
        prune_warnings: PruneWarnings,
    ) -> IntegrationRun {
        let options = IntegrationOptions {
            analysis_gate: false,
            ..IntegrationOptions::default()
        };
        integrate(s1, s2, set, options, prune_warnings).unwrap()
    }

    fn parents(max_n: usize) -> impl Strategy<Value = Vec<usize>> {
        proptest::collection::vec(0usize..max_n, 0..max_n)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The indexed prune-warning walk emits the cross product's
        /// warnings, same strings in the same order, and leaves every
        /// other counter as the cross product does — on mirrored and
        /// unrelated tree pairs, with and without multiple inheritance.
        #[test]
        fn indexed_prune_warnings_match_the_cross_product(
            p1 in parents(10),
            p2 in parents(10),
            mirrored in 0u8..2,
            extra1 in proptest::collection::vec((0usize..10, 0usize..10), 0..3),
            extra2 in proptest::collection::vec((0usize..10, 0usize..10), 0..3),
            ops in proptest::collection::vec(0u8..6, 10),
            targets in proptest::collection::vec(0usize..10, 10),
        ) {
            let s1 = schema("S1", "a", &p1, &extra1);
            let s2 = match mirrored {
                1 => schema("S2", "b", &p1, &extra1),
                _ => schema("S2", "b", &p2, &extra2),
            };
            let set = assertions(s1.len(), s2.len(), &ops, &targets);
            let indexed = run_with(&s1, &s2, &set, warn_ignored_subtree);
            let oracle = run_with(&s1, &s2, &set, cross_product_warnings);
            prop_assert_eq!(&indexed.warnings, &oracle.warnings);
            let without_lookups = |s: IntegrationStats| IntegrationStats {
                relation_lookups: 0,
                ..s
            };
            prop_assert_eq!(without_lookups(indexed.stats), without_lookups(oracle.stats));
            prop_assert_eq!(indexed.trace, oracle.trace);
        }
    }

    /// Every warning an integration emits is single-spaced, the two
    /// prune warnings included (both kinds occur over these inputs).
    #[test]
    fn integration_warnings_have_no_double_spaces() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut draw = |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        let mut seen = BTreeSet::new();
        for case in 0..400 {
            let p1: Vec<usize> = (0..9).map(|_| draw(10)).collect();
            let p2: Vec<usize> = (0..9).map(|_| draw(10)).collect();
            let ops: Vec<u8> = (0..10).map(|_| draw(6) as u8).collect();
            let targets: Vec<usize> = (0..10).map(|_| draw(10)).collect();
            let s1 = schema("S1", "a", &p1, &[]);
            let s2 = schema("S2", "b", if case % 2 == 0 { &p1 } else { &p2 }, &[]);
            let set = assertions(s1.len(), s2.len(), &ops, &targets);
            let Ok(run) = schema_integration(&s1, &s2, &set) else {
                continue;
            };
            for w in run.warnings {
                assert!(!w.contains("  "), "double space in warning: {w}");
                for kind in [
                    "was declared although the pair was pruned",
                    "ignored: the pair",
                ] {
                    if w.contains(kind) {
                        seen.insert(kind);
                    }
                }
            }
        }
        assert_eq!(seen.len(), 2, "both prune warnings must occur: {seen:?}");
    }

    /// §6.1's mirrored trees of `n` classes under all-≡ assertions, with
    /// the tree shape of the §6.3 model (each class hangs below a random
    /// earlier one).
    fn all_equivalent(n: usize, seed: u64) -> (Schema, Schema, AssertionSet) {
        let mut state = seed;
        let parents: Vec<usize> = (1..n)
            .map(|i| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let lo = i % 3;
                lo.min(i - 1) + (state % (i - lo.min(i - 1)) as u64) as usize
            })
            .collect();
        let s1 = schema("S1", "a", &parents, &[]);
        let s2 = schema("S2", "b", &parents, &[]);
        let set = AssertionSet::build((0..n).map(|i| {
            ClassAssertion::simple("S1", format!("a{i}"), ClassOp::Equiv, "S2", format!("b{i}"))
        }))
        .unwrap();
        (s1, s2, set)
    }

    /// The traversal's relation lookups, prune warnings included, grow
    /// with n as its pair checks do: at most 6× from n = 128 to n = 512.
    /// The cross-product walk they replace grows quadratically and fails
    /// that bound (checked from n = 32 to n = 128, where it is cheap).
    #[test]
    fn relation_lookups_grow_linearly_on_all_equivalent_trees() {
        let lookups = |n: usize, prune_warnings: PruneWarnings| -> u64 {
            (1..=4u64)
                .map(|seed| {
                    let (s1, s2, set) = all_equivalent(n, seed * 0x9e37_79b9);
                    let run = run_with(&s1, &s2, &set, prune_warnings);
                    assert_eq!(run.stats.pairs_checked, n as u64);
                    run.stats.relation_lookups
                })
                .sum()
        };
        let (small, large) = (
            lookups(128, warn_ignored_subtree),
            lookups(512, warn_ignored_subtree),
        );
        assert!(
            large <= 6 * small,
            "relation lookups grew {small} → {large} from n = 128 to 512"
        );
        let (old_small, old_large) = (
            lookups(32, cross_product_warnings),
            lookups(128, cross_product_warnings),
        );
        assert!(
            old_large > 6 * old_small,
            "the cross product grew only {old_small} → {old_large}"
        );
    }

    /// Two mirrored chains `a0←a1←a2` and `b0←b1←b2` with `a0 ≡ b0`,
    /// `a1 ∅ b1` and `a2 ⊆ b1`: observation 3 expands no one-sided pair
    /// under `(a1, b1)`, so `(a2, b1)` is never popped. The declared
    /// inclusion is still applied, as the naive algorithm applies it, and
    /// the user is warned.
    #[test]
    fn inclusion_hidden_below_a_disjoint_pair_is_applied() {
        let s1 = schema("S1", "a", &[0, 1], &[]);
        let s2 = schema("S2", "b", &[0, 1], &[]);
        let set = AssertionSet::build([
            ClassAssertion::simple("S1", "a0", ClassOp::Equiv, "S2", "b0"),
            ClassAssertion::simple("S1", "a1", ClassOp::Disjoint, "S2", "b1"),
            ClassAssertion::simple("S1", "a2", ClassOp::Incl, "S2", "b1"),
        ])
        .unwrap();
        let naive = naive_schema_integration(&s1, &s2, &set).unwrap();
        let optimized = schema_integration(&s1, &s2, &set).unwrap();
        assert!(naive.output.has_isa("a2", "b1"));
        assert!(optimized.output.has_isa("a2", "b1"));
        let links = |run: &IntegrationRun| -> BTreeSet<(String, String)> {
            run.output.isa_links().cloned().collect()
        };
        assert_eq!(links(&naive), links(&optimized));
        assert_eq!(
            optimized.warnings,
            [
                "assertion between (a2, b1) was declared although the traversal does not \
              reach the pair below the ∅ pair (a1, b1); applying it anyway"
            ]
        );
        // The hidden pair is one more check, and still fewer than naive's.
        assert!(optimized.stats.total_checks() < naive.stats.pairs_checked);
    }
}
