//! Assertion-set consistency analysis (FD02xx).
//!
//! An assertion set is a little theory about how two schemas' real-world
//! states relate; like any theory it can be inconsistent. This pass finds:
//!
//! * **FD0201** — the equivalence/inclusion closure connects two classes
//!   that an exclusion assertion declares disjoint: `A ≡ B`, `B ⊆ C`,
//!   `A ∅ C` cannot all hold of non-empty extents.
//! * **FD0202** — derivation assertions form a cycle. Only a warning:
//!   Fig. 6 legitimately derives `Book` from `Author` *and* `Author`
//!   from `Book` — but the cycle is worth surfacing because the derived
//!   extents must then be mutually consistent.
//! * **FD0203** — an equivalence's aggregation correspondence equates two
//!   aggregation functions whose declared cardinality constraints are
//!   *incomparable* in the Fig. 13 lattice: the `lcs` relaxation then
//!   discards **both** declared bounds, a sign the correspondence is
//!   probably wrong. (Comparable constraints relax to the looser of the
//!   two — the paper's intended conflict resolution — and pass silently.)
//! * **FD0204** — two assertions claim the same class pair, or an
//!   assertion relates a class to itself (what `AssertionSet::build`
//!   rejects fail-fast, reported here exhaustively).
//! * **FD0205** — a correspondence path that does not resolve against the
//!   schemas (Definition 4.1), deduplicated: one diagnostic per problem,
//!   listing every owning assertion.

use crate::diag::{Code, Diagnostic, Report};
use assertions::ops::{AggOp, ClassOp};
use assertions::{validate_assertions, ClassAssertion};
use oo_model::{IdHash, Schema};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// A node of the correspondence graph: `(schema, class)`, borrowed from
/// the assertions.
type Node<'s> = (&'s str, &'s str);

/// Dense numbering of the nodes the assertions mention, in first-mention
/// order.
#[derive(Default)]
struct Nodes<'s> {
    ids: HashMap<Node<'s>, usize, IdHash>,
    names: Vec<Node<'s>>,
}

impl<'s> Nodes<'s> {
    fn number(&mut self, schema: &'s str, class: &'s str) -> usize {
        let next = self.names.len();
        let id = *self.ids.entry((schema, class)).or_insert(next);
        if id == next {
            self.names.push((schema, class));
        }
        id
    }

    fn get(&self, schema: &'s str, class: &'s str) -> usize {
        self.ids[&(schema, class)]
    }
}

/// Union-find over nodes, for the equivalence closure.
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, i: usize) -> usize {
        if self.parent[i] != i {
            let root = self.find(self.parent[i]);
            self.parent[i] = root;
        }
        self.parent[i]
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra] = rb;
        }
    }
}

/// How diagnostics should name an assertion (spanned source if available).
fn subject(a: &ClassAssertion, src: Option<&str>) -> String {
    a.source_ref(src)
}

/// The core pass over a raw assertion list (no schemas required):
/// FD0201, FD0202 and FD0204.
pub fn analyze_assertions(assertions: &[ClassAssertion], src: Option<&str>) -> Report {
    let mut report = Report::new();

    // --- Node numbering over every (schema, class) mentioned; per
    // assertion, the ids of its first left class and of its right class.
    let mut nodes = Nodes::default();
    let ends: Vec<(usize, usize)> = assertions
        .iter()
        .map(|a| {
            let mut first = None;
            for c in &a.left_classes {
                let id = nodes.number(&a.left_schema, c);
                first.get_or_insert(id);
            }
            let r = nodes.number(&a.right_schema, &a.right_class);
            (first.unwrap_or(r), r)
        })
        .collect();
    let n = nodes.names.len();

    // --- FD0201: equivalence/inclusion closure vs exclusions. ---
    let mut uf = UnionFind::new(n);
    // Directed ⊆ edges between union-find representatives (filled after
    // all unions, since reps move while merging).
    let mut incl_edges: Vec<(usize, usize)> = Vec::new();
    for (a, &(l, r)) in assertions.iter().zip(&ends) {
        if a.left_classes.len() != 1 {
            continue;
        }
        match a.op {
            ClassOp::Equiv => uf.union(l, r),
            ClassOp::Incl => incl_edges.push((l, r)),
            ClassOp::InclRev => incl_edges.push((r, l)),
            _ => {}
        }
    }
    // Reachability in the ⊆ preorder (nodes collapsed to equivalence
    // classes): reach[a] = every rep transitively included in.
    let mut adj: BTreeMap<usize, BTreeSet<usize>> = BTreeMap::new();
    for (l, r) in &incl_edges {
        adj.entry(uf.find(*l)).or_default().insert(uf.find(*r));
    }
    let reachable = |from: usize, to: usize, uf: &mut UnionFind| -> bool {
        let (from, to) = (uf.find(from), uf.find(to));
        if from == to {
            return true;
        }
        let mut seen = BTreeSet::new();
        let mut stack = vec![from];
        while let Some(x) = stack.pop() {
            if x == to {
                return true;
            }
            if seen.insert(x) {
                if let Some(next) = adj.get(&x) {
                    stack.extend(next.iter().copied());
                }
            }
        }
        false
    };
    for (a, &(l, r)) in assertions.iter().zip(&ends) {
        if a.op != ClassOp::Disjoint || a.left_classes.len() != 1 {
            continue;
        }
        let l_in_r = reachable(l, r, &mut uf);
        let r_in_l = reachable(r, l, &mut uf);
        if l_in_r || r_in_l {
            let how = if uf.find(l) == uf.find(r) {
                "equivalent under the ≡/⊆ closure"
            } else if l_in_r {
                "included left-in-right under the ≡/⊆ closure"
            } else {
                "included right-in-left under the ≡/⊆ closure"
            };
            report.push(
                Diagnostic::new(
                    Code::ContradictoryAssertions,
                    format!(
                        "`{}•{}` and `{}•{}` are declared disjoint but are {how}",
                        a.left_schema, a.left_classes[0], a.right_schema, a.right_class
                    ),
                )
                .with_subject(subject(a, src))
                .with_span(a.span)
                .with_note("both can only hold if the included extent is always empty".to_string()),
            );
        }
    }

    // --- FD0202: cycles among derivation assertions. ---
    let mut derive_adj: BTreeMap<usize, BTreeSet<usize>> = BTreeMap::new();
    let mut derive_owner: BTreeMap<(usize, usize), usize> = BTreeMap::new();
    for (i, (a, &(_, to))) in assertions.iter().zip(&ends).enumerate() {
        if a.op != ClassOp::Derive {
            continue;
        }
        for c in &a.left_classes {
            let from = nodes.get(&a.left_schema, c);
            // Self-loops are the FD0204 self-assertion case, not a cycle.
            if from != to {
                derive_adj.entry(from).or_default().insert(to);
                derive_owner.entry((from, to)).or_insert(i);
            }
        }
    }
    let names = &nodes.names;
    let mut reported_cycles: BTreeSet<Vec<usize>> = BTreeSet::new();
    for &start in derive_adj.keys() {
        // DFS from each source; a path returning to `start` is a cycle.
        let mut stack = vec![(start, vec![start])];
        while let Some((at, path)) = stack.pop() {
            if let Some(next) = derive_adj.get(&at) {
                for &nx in next {
                    if nx == start {
                        // Canonical form: rotate so the smallest id leads.
                        let min_pos = path
                            .iter()
                            .enumerate()
                            .min_by_key(|(_, v)| **v)
                            .map(|(i, _)| i)
                            .unwrap_or(0);
                        let mut canon = path[min_pos..].to_vec();
                        canon.extend_from_slice(&path[..min_pos]);
                        if reported_cycles.insert(canon.clone()) {
                            let mut cycle_names: Vec<String> = canon
                                .iter()
                                .map(|&v| format!("{}•{}", names[v].0, names[v].1))
                                .collect();
                            cycle_names.push(cycle_names[0].clone());
                            let owner = derive_owner[&(at, nx)];
                            report.push(
                                Diagnostic::new(
                                    Code::DerivationCycle,
                                    format!(
                                        "derivation assertions form a cycle: {}",
                                        cycle_names.join(" → ")
                                    ),
                                )
                                .with_subject(subject(&assertions[owner], src))
                                .with_span(assertions[owner].span)
                                .with_note(
                                    "mutually derived extents must be kept consistent".to_string(),
                                ),
                            );
                        }
                    } else if !path.contains(&nx) {
                        let mut p = path.clone();
                        p.push(nx);
                        stack.push((nx, p));
                    }
                }
            }
        }
    }

    // --- FD0204: conflicting pairs and self-assertions, keyed by the
    // pair's node ids in name order. ---
    let mut pair_owner: HashMap<(usize, usize), usize, IdHash> = HashMap::default();
    for (i, (a, &(l, r))) in assertions.iter().zip(&ends).enumerate() {
        if a.left_schema == a.right_schema && a.left_classes.iter().any(|c| c == &a.right_class) {
            report.push(
                Diagnostic::new(
                    Code::ConflictingPair,
                    format!(
                        "assertion relates `{}•{}` to itself",
                        a.left_schema, a.right_class
                    ),
                )
                .with_subject(subject(a, src))
                .with_span(a.span),
            );
            continue;
        }
        if a.op == ClassOp::Derive {
            continue; // derivations may coexist with anything on a pair
        }
        let key = if names[l] <= names[r] { (l, r) } else { (r, l) };
        match pair_owner.get(&key) {
            Some(&first) => report.push(
                Diagnostic::new(
                    Code::ConflictingPair,
                    format!(
                        "class pair `{}•{}` / `{}•{}` is related by more than one assertion",
                        names[key.0].0, names[key.0].1, names[key.1].0, names[key.1].1
                    ),
                )
                .with_subject(subject(a, src))
                .with_span(a.span)
                .with_note(format!("first asserted by `{}`", {
                    let s = subject(&assertions[first], src);
                    s.lines().next().unwrap_or_default().to_string()
                })),
            ),
            None => {
                pair_owner.insert(key, i);
            }
        }
    }

    report
}

/// FD0203 — cardinality-lattice contradictions, which need the schemas to
/// look up the declared constraints.
pub fn analyze_assertion_cardinalities(
    assertions: &[ClassAssertion],
    s1: &Schema,
    s2: &Schema,
    src: Option<&str>,
) -> Report {
    let mut report = Report::new();
    let schema_for = |name: &str| -> Option<&Schema> {
        if s1.name.as_str() == name {
            Some(s1)
        } else if s2.name.as_str() == name {
            Some(s2)
        } else {
            None
        }
    };
    for a in assertions {
        if a.op != ClassOp::Equiv {
            continue;
        }
        for gc in &a.agg_corrs {
            if gc.op != AggOp::Equiv {
                continue;
            }
            let left_cc = schema_for(&gc.left.schema)
                .and_then(|s| s.class_named(gc.left.class_name()))
                .and_then(|c| gc.left.member().and_then(|m| c.ty.aggregation(m)))
                .map(|g| g.cc);
            let right_cc = schema_for(&gc.right.schema)
                .and_then(|s| s.class_named(gc.right.class_name()))
                .and_then(|c| gc.right.member().and_then(|m| c.ty.aggregation(m)))
                .map(|g| g.cc);
            if let (Some(l), Some(r)) = (left_cc, right_cc) {
                if !l.le(&r) && !r.le(&l) {
                    let lcs = l.lcs(&r);
                    report.push(
                        Diagnostic::new(
                            Code::CardinalityConflict,
                            format!(
                                "equivalent aggregations `{}` {} and `{}` {} have incomparable cardinalities",
                                gc.left, l, gc.right, r
                            ),
                        )
                        .with_subject(subject(a, src))
                        .with_span(a.span)
                        .with_note(format!(
                            "the lcs relaxation `{lcs}` discards both declared bounds"
                        )),
                    );
                }
            }
        }
    }
    report
}

/// FD0205 — unresolved paths, deduplicated with owners, via the
/// assertion-level validator.
pub fn analyze_assertion_paths(
    assertions: &[ClassAssertion],
    s1: &Schema,
    s2: &Schema,
    src: Option<&str>,
) -> Report {
    let mut report = Report::new();
    for e in validate_assertions(assertions, s1, s2) {
        // Recover the owning assertion to attach its span.
        let owner = assertions.iter().find(|a| a.to_string() == e.assertion);
        let mut d = Diagnostic::new(Code::UnresolvedPath, e.problem.clone()).with_subject(
            owner
                .map(|a| subject(a, src))
                .unwrap_or_else(|| e.assertion.clone()),
        );
        if let Some(a) = owner {
            d = d.with_span(a.span);
        }
        if !e.also.is_empty() {
            d = d.with_note(format!(
                "same problem in {} other assertion(s): {}",
                e.also.len(),
                e.also
                    .iter()
                    .map(|s| s.lines().next().unwrap_or_default())
                    .collect::<Vec<_>>()
                    .join("; ")
            ));
        }
        report.push(d);
    }
    report
}

/// The full assertion-set analysis against its two schemas: core
/// consistency + cardinality lattice + path resolution.
pub fn analyze_assertions_with_schemas(
    assertions: &[ClassAssertion],
    s1: &Schema,
    s2: &Schema,
    src: Option<&str>,
) -> Report {
    let mut report = analyze_assertions(assertions, src);
    report.merge(analyze_assertion_cardinalities(assertions, s1, s2, src));
    report.merge(analyze_assertion_paths(assertions, s1, s2, src));
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use assertions::assertion::AggCorr;
    use assertions::spath::SPath;
    use oo_model::{AggDef, Cardinality, Class, ClassType, Schema};

    fn codes(report: &Report) -> Vec<&'static str> {
        report.sorted().iter().map(|d| d.code.as_str()).collect()
    }

    fn simple(l: &str, op: ClassOp, r: &str) -> ClassAssertion {
        ClassAssertion::simple("S1", l, op, "S2", r)
    }

    #[test]
    fn consistent_set_is_clean() {
        let asserts = vec![
            simple("person", ClassOp::Equiv, "human"),
            simple("student", ClassOp::Incl, "human"),
            simple("rock", ClassOp::Disjoint, "human"),
        ];
        let r = analyze_assertions(&asserts, None);
        assert!(r.is_empty(), "{}", r.render_human());
    }

    #[test]
    fn equiv_disjoint_contradiction_through_closure() {
        // person ≡ human, student ⊆ person, student ∅ human: the closure
        // places student inside human, contradicting the exclusion.
        let asserts = vec![
            simple("person", ClassOp::Equiv, "human"),
            ClassAssertion::simple("S1", "student", ClassOp::Incl, "S1", "person"),
            simple("student", ClassOp::Disjoint, "human"),
        ];
        let r = analyze_assertions(&asserts, None);
        assert_eq!(codes(&r), vec!["FD0201"]);
        assert!(r.iter().next().unwrap().message.contains("disjoint"));
    }

    #[test]
    fn direct_equiv_disjoint_contradiction() {
        // a ≡ b via one chain, a ∅ b directly (different pairs so FD0204
        // does not mask it): a ≡ c, c ≡ b, a ∅ b.
        let asserts = vec![
            simple("a", ClassOp::Equiv, "c"),
            ClassAssertion::simple("S2", "c", ClassOp::Equiv, "S1", "b"),
            ClassAssertion::simple("S1", "a", ClassOp::Disjoint, "S1", "b"),
        ];
        let r = analyze_assertions(&asserts, None);
        assert_eq!(codes(&r), vec!["FD0201"]);
        assert!(r.iter().next().unwrap().message.contains("equivalent"));
    }

    #[test]
    fn derivation_cycle_warned_not_denied() {
        // Fig. 6 shape: Book → Author and Author → Book.
        let asserts = vec![
            ClassAssertion::derivation("S1", ["Book"], "S2", "Author"),
            ClassAssertion::derivation("S2", ["Author"], "S1", "Book"),
        ];
        let r = analyze_assertions(&asserts, None);
        assert_eq!(codes(&r), vec!["FD0202"]);
        assert!(!r.has_deny());
        let d = r.iter().next().unwrap();
        assert!(d.message.contains("→"), "{}", d.message);
    }

    #[test]
    fn self_derivation_not_flagged_as_cycle_but_as_self_assertion() {
        let asserts = vec![ClassAssertion::derivation("S1", ["a"], "S1", "a")];
        let r = analyze_assertions(&asserts, None);
        assert_eq!(codes(&r), vec!["FD0204"]);
    }

    #[test]
    fn conflicting_pair_reported_for_both_orientations() {
        let asserts = vec![
            simple("a", ClassOp::Incl, "b"),
            // Same pair, opposite orientation.
            ClassAssertion::simple("S2", "b", ClassOp::Disjoint, "S1", "a"),
        ];
        let r = analyze_assertions(&asserts, None);
        // The pair conflict fires; the ⊆/∅ contradiction on the same pair
        // fires too (both genuinely hold).
        assert!(codes(&r).contains(&"FD0204"));
    }

    fn schema_with_agg(name: &str, class: &str, agg: &str, cc: Cardinality) -> Schema {
        let mut s = Schema::new(name);
        s.add_class(Class::new("target", ClassType::new())).unwrap();
        let mut ty = ClassType::new();
        ty.push_aggregation(AggDef::new(agg, "target", cc)).unwrap();
        s.add_class(Class::new(class, ty)).unwrap();
        s
    }

    #[test]
    fn incomparable_cardinalities_denied() {
        // [1:n] vs [m:1] are incomparable; lcs [m:n] discards both bounds.
        let s1 = schema_with_agg("S1", "a", "f", Cardinality::ONE_N);
        let s2 = schema_with_agg("S2", "b", "g", Cardinality::M_ONE);
        let a =
            ClassAssertion::simple("S1", "a", ClassOp::Equiv, "S2", "b").agg_corr(AggCorr::new(
                SPath::attr("S1", "a", "f"),
                AggOp::Equiv,
                SPath::attr("S2", "b", "g"),
            ));
        let r = analyze_assertion_cardinalities(&[a], &s1, &s2, None);
        assert_eq!(codes(&r), vec!["FD0203"]);
        let d = r.iter().next().unwrap();
        assert!(d.message.contains("[1:n]") && d.message.contains("[m:1]"));
        assert!(d.notes[0].contains("[m:n]"));
    }

    #[test]
    fn comparable_cardinalities_pass() {
        // [1:1] ≤ [m:1]: the paper's own Fig. 13 relaxation, not an error.
        let s1 = schema_with_agg("S1", "a", "f", Cardinality::ONE_ONE);
        let s2 = schema_with_agg("S2", "b", "g", Cardinality::M_ONE);
        let a =
            ClassAssertion::simple("S1", "a", ClassOp::Equiv, "S2", "b").agg_corr(AggCorr::new(
                SPath::attr("S1", "a", "f"),
                AggOp::Equiv,
                SPath::attr("S2", "b", "g"),
            ));
        let r = analyze_assertion_cardinalities(&[a], &s1, &s2, None);
        assert!(r.is_empty(), "{}", r.render_human());
    }

    #[test]
    fn unresolved_paths_deduplicated_with_owners() {
        let s1 = Schema::new("S1");
        let s2 = Schema::new("S2");
        // Two assertions both referencing the unknown class pair.
        let a1 = simple("ghost", ClassOp::Equiv, "b");
        let a2 = ClassAssertion::simple("S1", "ghost", ClassOp::Incl, "S2", "c");
        let r = analyze_assertion_paths(&[a1, a2], &s1, &s2, None);
        let ghost: Vec<_> = r
            .iter()
            .filter(|d| d.code == Code::UnresolvedPath && d.message.contains("`ghost`"))
            .collect();
        assert_eq!(ghost.len(), 1, "{}", r.render_human());
        assert!(ghost[0].notes.iter().any(|n| n.contains("1 other")));
    }
}
