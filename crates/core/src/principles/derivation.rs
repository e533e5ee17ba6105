//! **Principle 5** — integration of derivation assertions.
//!
//! For `S₁(A₁, …, Aₙ) → S₂•B`:
//!
//! 1. decompose the assertion (Figs. 9–10) so no attribute repeats within a
//!    correspondence list ([`assertions::decompose_derivation`]);
//! 2. build the **assertion graph** G: a node per path, an edge per
//!    correspondence with `rel ∈ {=, ∈, ⊆, ⊇, ∩}` (Fig. 11);
//! 3. mark each connected component with a fresh variable `xⱼ`, and build a
//!    **hyperedge** for each predicate (`with att τ Const` clauses and
//!    quoted-name correspondences such as `car-name ∩ "car-name₁"`);
//! 4. generate reverse substitutions from components and hyperedges
//!    (Definitions 5.1–5.3) and the derivation rule
//!    `Bθ₁…θⱼ ⇐ {A₁,…,Aₙ}θ₁…θⱼ, {p₁,…}δ₁…`.
//!
//! One executable refinement: for a membership correspondence
//! (`parent•Pssn# ∈ brother•brothers`) the paper's Example 9 shares a
//! single variable between the element and the set attribute; we bind the
//! set side to its own variable and emit an explicit `x ∈ xs` body literal,
//! so the rule evaluates correctly over set-valued attributes.

use crate::context::Integrator;
use crate::trace::TraceEvent;
use crate::{IntegrationError, Result};
use assertions::{decompose_derivation, AttrOp, ClassAssertion, Tau, ValueOp};
use deduction::term::NameRef;
use deduction::{CmpOp, Literal, OTermPat, Rule, Term};
use oo_model::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A node of the assertion graph: a schema-qualified path.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct GraphNode {
    /// Schema name.
    pub schema: String,
    /// Class the path is rooted at.
    pub class: String,
    /// Dotted attribute steps (flattened nested paths).
    pub attr: String,
}

impl GraphNode {
    fn key(&self) -> String {
        format!("{}•{}•{}", self.schema, self.class, self.attr)
    }
}

impl fmt::Display for GraphNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.key())
    }
}

/// A hyperedge: a predicate over one node (e.g. `car-name = "car-name1"`,
/// or a `with att τ Const` clause).
#[derive(Debug, Clone, PartialEq)]
pub struct HyperEdge {
    pub node: GraphNode,
    pub op: CmpOp,
    pub constant: Value,
}

impl fmt::Display for HyperEdge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.node, self.op.symbol(), self.constant)
    }
}

/// The assertion graph of one (decomposed) derivation assertion.
#[derive(Debug, Clone, Default)]
pub struct AssertionGraph {
    pub nodes: Vec<GraphNode>,
    /// Edges by node index.
    pub edges: Vec<(usize, usize)>,
    /// Membership edges (element idx, set idx) — drawn like ordinary edges
    /// in Fig. 11(a) but given executable `∈` semantics in the rule.
    pub membership: Vec<(usize, usize)>,
    pub hyperedges: Vec<HyperEdge>,
    /// Connected-component variable for each node (x₁, x₂, …).
    pub component_var: Vec<String>,
}

impl AssertionGraph {
    fn node_index(&mut self, n: GraphNode) -> usize {
        if let Some(i) = self.nodes.iter().position(|m| *m == n) {
            return i;
        }
        self.nodes.push(n);
        self.component_var.push(String::new());
        self.nodes.len() - 1
    }

    /// Union-find style component marking; components are numbered in
    /// order of their smallest node key for determinism.
    fn mark_components(&mut self) {
        let n = self.nodes.len();
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut Vec<usize>, i: usize) -> usize {
            if parent[i] != i {
                let r = find(parent, parent[i]);
                parent[i] = r;
            }
            parent[i]
        }
        for &(a, b) in self.edges.iter().chain(self.membership.iter()) {
            let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
            if ra != rb {
                parent[ra] = rb;
            }
        }
        // Deterministic numbering by smallest member key.
        let mut roots: BTreeMap<usize, String> = BTreeMap::new();
        for i in 0..n {
            let r = find(&mut parent, i);
            let key = self.nodes[i].key();
            roots
                .entry(r)
                .and_modify(|k| {
                    if key < *k {
                        *k = key.clone();
                    }
                })
                .or_insert(key);
        }
        let mut ordered: Vec<(String, usize)> =
            roots.iter().map(|(r, k)| (k.clone(), *r)).collect();
        ordered.sort();
        let numbering: BTreeMap<usize, usize> = ordered
            .into_iter()
            .enumerate()
            .map(|(i, (_, r))| (r, i + 1))
            .collect();
        for i in 0..n {
            let r = find(&mut parent, i);
            self.component_var[i] = format!("x{}", numbering[&r]);
        }
    }

    /// Render the graph in the style of Fig. 11.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mut by_var: BTreeMap<&str, Vec<&GraphNode>> = BTreeMap::new();
        for (i, n) in self.nodes.iter().enumerate() {
            by_var.entry(&self.component_var[i]).or_default().push(n);
        }
        for (var, nodes) in by_var {
            let names: Vec<String> = nodes.iter().map(|n| n.to_string()).collect();
            out.push_str(&format!("{var}: {{{}}}\n", names.join(", ")));
        }
        for he in &self.hyperedges {
            out.push_str(&format!("hyperedge: {he}\n"));
        }
        out
    }
}

/// Build the assertion graph for one decomposed derivation assertion.
pub fn build_assertion_graph(a: &ClassAssertion) -> AssertionGraph {
    let mut g = AssertionGraph::default();
    // Value correspondences (within one schema).
    for (schema, corrs) in [
        (&a.left_schema, &a.value_corrs_left),
        (&a.right_schema, &a.value_corrs_right),
    ] {
        for vc in corrs {
            let l = GraphNode {
                schema: schema.clone(),
                class: vc.left.class.clone(),
                attr: vc.left.steps.join("."),
            };
            let r = GraphNode {
                schema: schema.clone(),
                class: vc.right.class.clone(),
                attr: vc.right.steps.join("."),
            };
            let (li, ri) = (g.node_index(l), g.node_index(r));
            match vc.op {
                ValueOp::In => g.membership.push((li, ri)),
                ValueOp::Eq | ValueOp::Supset | ValueOp::Intersect => g.edges.push((li, ri)),
                ValueOp::Ne | ValueOp::Disjoint => {}
            }
        }
    }
    // Attribute correspondences (between schemas).
    for ac in &a.attr_corrs {
        let quoted_left = ac.left.path.quoted;
        let quoted_right = ac.right.path.quoted;
        let mk = |p: &assertions::SPath| GraphNode {
            schema: p.schema.clone(),
            class: p.class_name().to_string(),
            attr: p.path.steps.join("."),
        };
        match (quoted_left, quoted_right) {
            (false, false) => {
                let (li, ri) = (g.node_index(mk(&ac.left)), g.node_index(mk(&ac.right)));
                match ac.op {
                    AttrOp::Equiv | AttrOp::Incl | AttrOp::InclRev | AttrOp::Intersect => {
                        g.edges.push((li, ri))
                    }
                    _ => {}
                }
            }
            // A quoted side contributes a hyperedge: the value side's
            // component must equal the quoted *name* (Fig. 11(b)).
            (false, true) => {
                let li = g.node_index(mk(&ac.left));
                let name = ac.right.path.steps.last().cloned().unwrap_or_default();
                g.hyperedges.push(HyperEdge {
                    node: g.nodes[li].clone(),
                    op: CmpOp::Eq,
                    constant: Value::Str(name),
                });
            }
            (true, false) => {
                let ri = g.node_index(mk(&ac.right));
                let name = ac.left.path.steps.last().cloned().unwrap_or_default();
                g.hyperedges.push(HyperEdge {
                    node: g.nodes[ri].clone(),
                    op: CmpOp::Eq,
                    constant: Value::Str(name),
                });
            }
            (true, true) => {}
        }
        // `with att τ Const` clauses become hyperedges too.
        if let Some(w) = &ac.with_pred {
            let node = GraphNode {
                schema: w.attr.schema.clone(),
                class: w.attr.class_name().to_string(),
                attr: w.attr.path.steps.join("."),
            };
            g.node_index(node.clone());
            g.hyperedges.push(HyperEdge {
                node,
                op: tau_to_cmp(w.tau),
                constant: w.constant.clone(),
            });
        }
    }
    g.mark_components();
    g
}

fn tau_to_cmp(t: Tau) -> CmpOp {
    match t {
        Tau::Eq => CmpOp::Eq,
        Tau::Ne => CmpOp::Ne,
        Tau::Lt => CmpOp::Lt,
        Tau::Le => CmpOp::Le,
        Tau::Gt => CmpOp::Gt,
        Tau::Ge => CmpOp::Ge,
    }
}

/// Generate the derivation rule for one decomposed assertion, resolving
/// integrated class names through `resolve` (typically `IS(·)`).
pub fn derive_rule(
    a: &ClassAssertion,
    graph: &AssertionGraph,
    mut resolve: impl FnMut(&str, &str) -> String,
) -> Rule {
    // Variable of a node, with membership set-sides renamed to `…s`.
    let set_sides: BTreeSet<usize> = graph.membership.iter().map(|&(_, s)| s).collect();
    let var_of = |idx: usize| -> String {
        if set_sides.contains(&idx) {
            format!("{}s", graph.component_var[idx])
        } else {
            graph.component_var[idx].clone()
        }
    };
    // Head O-term for B. The paper writes a fresh object variable `o1`
    // for the derived instance and leaves OID creation to the platform; to
    // keep the rule range-restricted and executable we identify the derived
    // object with the *first* source class's object (consistent with the
    // §3 data mappings, which pair objects across schemas by OID).
    let head_class = resolve(&a.right_schema, &a.right_class);
    let mut head = OTermPat::new(Term::var("o2"), head_class);
    for (i, n) in graph.nodes.iter().enumerate() {
        if n.schema == a.right_schema && n.class == a.right_class && !n.attr.is_empty() {
            head = head.bind(&n.attr, Term::var(var_of(i)));
        }
    }
    // Body O-terms for A₁, …, Aₙ.
    let mut body = Vec::new();
    for (k, a_class) in a.left_classes.iter().enumerate() {
        let class = resolve(&a.left_schema, a_class);
        let mut pat = OTermPat::new(Term::var(format!("o{}", k + 2)), class);
        for (i, n) in graph.nodes.iter().enumerate() {
            if n.schema == a.left_schema && &n.class == a_class && !n.attr.is_empty() {
                pat = pat.bind(&n.attr, Term::var(var_of(i)));
            }
        }
        body.push(Literal::OTerm(pat));
    }
    // Value correspondences of the *right* schema that relate B's own
    // attributes also constrain the head; they were already unified by the
    // component marking, nothing further to add.
    // Membership literals (`x ∈ xs`).
    for &(e, s) in &graph.membership {
        body.push(Literal::cmp(
            Term::var(graph.component_var[e].clone()),
            CmpOp::In,
            Term::var(var_of(s)),
        ));
    }
    // Hyperedge predicates.
    for he in &graph.hyperedges {
        let idx = graph
            .nodes
            .iter()
            .position(|n| *n == he.node)
            .expect("hyperedge nodes are registered");
        body.push(Literal::cmp(
            Term::var(var_of(idx)),
            he.op,
            Term::Val(he.constant.clone()),
        ));
    }
    Rule::new(Literal::OTerm(head), body)
}

/// Apply Principle 5 for one pending derivation assertion: decompose,
/// build graphs, generate rules into the integrated schema.
pub fn apply(ctx: &mut Integrator<'_>, assertion_id: usize) -> Result<()> {
    let a = ctx
        .assertions
        .get(assertion_id)
        .ok_or_else(|| IntegrationError::Internal("bad assertion id".into()))?
        .clone();
    for piece in decompose_derivation(&a) {
        let graph = build_assertion_graph(&piece);
        let output = &ctx.output;
        let rule = derive_rule(&piece, &graph, |schema, class| {
            output
                .is(schema, class)
                .map(str::to_string)
                .unwrap_or_else(|| format!("IS({schema}•{class})"))
        });
        ctx.push_trace(|| TraceEvent::RuleGenerated {
            rule: rule.to_string(),
        });
        ctx.output.add_rule(rule);
        ctx.stats.rules_generated += 1;
    }
    Ok(())
}

/// Check that a generated O-term rule's class names are all resolved (no
/// `IS(S•C)` placeholders remain). Used by tests and the federation layer.
pub fn fully_resolved(rule: &Rule) -> bool {
    fn class_ok(l: &Literal) -> bool {
        match l {
            Literal::OTerm(o) => match &o.class {
                NameRef::Name(n) => !n.starts_with("IS("),
                NameRef::Var(_) => true,
            },
            Literal::Neg(inner) => class_ok(inner),
            _ => true,
        }
    }
    rule.heads.iter().all(class_ok) && rule.body.iter().all(class_ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::SchemaGraph;
    use assertions::{AssertionSet, AttrCorr, ClassAssertion, SPath, ValueCorr, WithPred};
    use oo_model::{AttrType, Path, SchemaBuilder};

    /// Example 3 / Fig. 11(a): the uncle derivation assertion.
    fn uncle_assertion() -> ClassAssertion {
        ClassAssertion::derivation("S1", ["parent", "brother"], "S2", "uncle")
            .value_corr_left(ValueCorr::new(
                Path::attr("parent", "Pssn#"),
                ValueOp::In,
                Path::attr("brother", "brothers"),
            ))
            .attr_corr(AttrCorr::new(
                SPath::attr("S1", "brother", "Bssn#"),
                AttrOp::Equiv,
                SPath::attr("S2", "uncle", "Ussn#"),
            ))
            .attr_corr(AttrCorr::new(
                SPath::attr("S1", "parent", "children"),
                AttrOp::InclRev,
                SPath::attr("S2", "uncle", "niece_nephew"),
            ))
    }

    #[test]
    fn fig_11a_components() {
        let g = build_assertion_graph(&uncle_assertion());
        assert_eq!(g.nodes.len(), 6);
        // Three components: {Pssn#, brothers} (via ∈), {Bssn#, Ussn#},
        // {children, niece_nephew}.
        let var = |schema: &str, class: &str, attr: &str| {
            let i = g
                .nodes
                .iter()
                .position(|n| n.schema == schema && n.class == class && n.attr == attr)
                .unwrap_or_else(|| panic!("{schema}.{class}.{attr} not a node"));
            g.component_var[i].clone()
        };
        assert_eq!(
            var("S1", "parent", "Pssn#"),
            var("S1", "brother", "brothers")
        );
        assert_eq!(var("S1", "brother", "Bssn#"), var("S2", "uncle", "Ussn#"));
        assert_eq!(
            var("S1", "parent", "children"),
            var("S2", "uncle", "niece_nephew")
        );
        // All three distinct.
        let vars: BTreeSet<String> = [
            var("S1", "parent", "Pssn#"),
            var("S1", "brother", "Bssn#"),
            var("S1", "parent", "children"),
        ]
        .into_iter()
        .collect();
        assert_eq!(vars.len(), 3);
    }

    /// Example 9: the generated uncle rule.
    #[test]
    fn example_9_rule() {
        let a = uncle_assertion();
        let g = build_assertion_graph(&a);
        let rule = derive_rule(&a, &g, |s, c| format!("IS({s}•{c})"));
        let text = rule.to_string();
        // Head: uncle O-term with Ussn# and niece_nephew bound to the
        // component variables (head object shared with the first source).
        assert!(text.starts_with("<o2: IS(S2•uncle)"), "{text}");
        // Ussn# shares its component variable with brother's Bssn#, and
        // niece_nephew with parent's children (Fig. 11(a)).
        let var_after = |label: &str| {
            let i = text
                .find(label)
                .unwrap_or_else(|| panic!("{label} in {text}"));
            text[i + label.len()..]
                .split([',', '>'])
                .next()
                .unwrap()
                .trim()
                .to_string()
        };
        assert_eq!(var_after("Ussn#:"), var_after("Bssn#:"), "{text}");
        assert_eq!(var_after("niece_nephew:"), var_after("children:"), "{text}");
        // Body: parent and brother O-terms plus the membership literal.
        assert!(text.contains("IS(S1•parent)"), "{text}");
        assert!(text.contains("IS(S1•brother)"), "{text}");
        assert!(text.contains("∈"), "{text}");
        // The rule is safe.
        deduction::check_rule(&rule).unwrap();
    }

    /// Example 10 / Fig. 11(b): the schematic-discrepancy rule with a
    /// hyperedge from a quoted-name correspondence.
    #[test]
    fn example_10_hyperedge_rule() {
        let fixed = ClassAssertion::derivation("S2", ["car2"], "S1", "car1")
            .attr_corr(AttrCorr::new(
                SPath::attr("S2", "car2", "time"),
                AttrOp::Equiv,
                SPath::attr("S1", "car1", "time"),
            ))
            .attr_corr(AttrCorr::new(
                SPath::attr("S2", "car2", "car-name1"),
                AttrOp::Incl,
                SPath::attr("S1", "car1", "price"),
            ))
            .attr_corr(AttrCorr::new(
                SPath::attr("S1", "car1", "car-name"),
                AttrOp::Intersect,
                SPath::new("S2", Path::parse("car2", "\"car-name1\"").unwrap()),
            ));
        let g = build_assertion_graph(&fixed);
        // car1.car-name is isolated (only in the hyperedge) — own component.
        assert_eq!(g.hyperedges.len(), 1);
        assert!(g.hyperedges[0].to_string().contains("car-name"));
        let rule = derive_rule(&fixed, &g, |s, c| format!("IS({s}•{c})"));
        let text = rule.to_string();
        // The rule carries the equality with the constant name.
        assert!(text.contains("= \"car-name1\""), "{text}");
        deduction::check_rule(&rule).unwrap();
    }

    /// `with att τ Const` becomes a comparison literal (Fig. 10 form).
    #[test]
    fn with_predicate_hyperedge() {
        let a = ClassAssertion::derivation("S2", ["car2"], "S1", "car1")
            .attr_corr(AttrCorr::new(
                SPath::attr("S2", "car2", "time"),
                AttrOp::Equiv,
                SPath::attr("S1", "car1", "time"),
            ))
            .attr_corr(
                AttrCorr::new(
                    SPath::attr("S2", "car2", "car-name1"),
                    AttrOp::Incl,
                    SPath::attr("S1", "car1", "price"),
                )
                .with(WithPred {
                    attr: SPath::attr("S1", "car1", "car-name"),
                    tau: Tau::Eq,
                    constant: Value::str("car-name1"),
                }),
            );
        let g = build_assertion_graph(&a);
        assert_eq!(g.hyperedges.len(), 1);
        let rule = derive_rule(&a, &g, |s, c| format!("IS({s}•{c})"));
        let text = rule.to_string();
        assert!(text.contains("= \"car-name1\""), "{text}");
        // car1's O-term binds time, price and car-name.
        assert!(text.contains("car-name:"), "{text}");
    }

    /// Fig. 6(b) / Example 11: nested-path derivation for Book → Author.
    #[test]
    fn example_11_nested_paths() {
        let a = ClassAssertion::derivation("S1", ["Book"], "S2", "Author")
            .attr_corr(AttrCorr::new(
                SPath::attr("S1", "Book", "ISBN"),
                AttrOp::Equiv,
                SPath::new("S2", Path::parse("Author", "book.ISBN").unwrap()),
            ))
            .attr_corr(AttrCorr::new(
                SPath::attr("S1", "Book", "title"),
                AttrOp::Equiv,
                SPath::new("S2", Path::parse("Author", "book.title").unwrap()),
            ));
        let g = build_assertion_graph(&a);
        let rule = derive_rule(&a, &g, |s, c| format!("IS({s}•{c})"));
        let text = rule.to_string();
        assert!(text.contains("book.ISBN: x1"), "{text}");
        assert!(text.contains("book.title: x2"), "{text}");
        deduction::check_rule(&rule).unwrap();
    }

    #[test]
    fn apply_records_rules_and_trace() {
        let s1 = SchemaBuilder::new("S1")
            .class("parent", |c| {
                c.attr("Pssn#", AttrType::Str)
                    .set_attr("children", AttrType::Str)
            })
            .class("brother", |c| {
                c.attr("Bssn#", AttrType::Str)
                    .set_attr("brothers", AttrType::Str)
            })
            .build()
            .unwrap();
        let s2 = SchemaBuilder::new("S2")
            .class("uncle", |c| {
                c.attr("Ussn#", AttrType::Str)
                    .set_attr("niece_nephew", AttrType::Str)
            })
            .build()
            .unwrap();
        let aset = AssertionSet::build([uncle_assertion()]).unwrap();
        let mut ctx = Integrator::new(&SchemaGraph::new(&s1), &SchemaGraph::new(&s2), &aset);
        ctx.note_derivation(0);
        ctx.finalize().unwrap();
        assert_eq!(ctx.stats.rules_generated, 1);
        // IS names resolved to the copied classes.
        let rule = &ctx.output.rules[0];
        assert!(fully_resolved(rule), "{rule}");
        assert!(rule.to_string().contains("<o2: uncle"));
    }

    #[test]
    fn render_lists_components_and_hyperedges() {
        let g = build_assertion_graph(&uncle_assertion());
        let r = g.render();
        assert!(r.contains("x1:"));
        assert!(r.contains("S2•uncle•Ussn#"));
    }
}
