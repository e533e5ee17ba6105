//! Property-based tests over randomly generated schema pairs: the
//! invariants the integration algorithms must preserve regardless of the
//! schema shape or the assertion mix.

use fedoo::prelude::*;
use proptest::prelude::*;

/// A random tree-shaped schema of `n` classes named `{prefix}0..` where
/// each class i ≥ 1 has a parent chosen among earlier classes.
fn tree_schema(name: &str, prefix: &str, parents: &[usize]) -> Schema {
    let n = parents.len() + 1;
    let mut b = SchemaBuilder::new(name);
    for i in 0..n {
        b = b.class(format!("{prefix}{i}"), |c| c.attr("v", AttrType::Str));
    }
    for (i, p) in parents.iter().enumerate() {
        let child = i + 1;
        b = b.isa(format!("{prefix}{child}"), format!("{prefix}{}", p % child));
    }
    b.build().expect("tree schemas are valid")
}

/// Strategy: parent indices for a tree of size n (1..=max_n).
fn parents_strategy(max_n: usize) -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(0usize..max_n, 0..max_n)
}

/// Assertion mix: for each mirrored class index, an operator code
/// (0 = none, 1 = equiv, 2 = incl, 3 = intersect, 4 = disjoint).
fn ops_strategy(max_n: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u8..5, max_n)
}

/// Ancestor `up` steps above class `i` of a `tree_schema` built from
/// `parents` (the root is its own ancestor).
fn ancestor(parents: &[usize], mut i: usize, up: usize) -> usize {
    for _ in 0..up {
        if i == 0 {
            break;
        }
        i = parents[i - 1] % i;
    }
    i
}

/// Assertions between two mirrored trees: `ops` as in
/// [`build_assertions`], except that an inclusion `aᵢ ⊆ bⱼ` targets the
/// mirror of the ancestor `ups[i]` steps above `aᵢ` (0 = `bᵢ` itself).
fn build_mirrored_assertions(parents: &[usize], ops: &[u8], ups: &[usize]) -> AssertionSet {
    let n = parents.len() + 1;
    let mut set = AssertionSet::new();
    for (i, op) in ops.iter().enumerate().take(n) {
        let a = format!("a{i}");
        let b = format!("b{i}");
        let assertion = match op {
            1 => ClassAssertion::simple("S1", &a, ClassOp::Equiv, "S2", &b),
            2 => {
                let j = ancestor(parents, i, ups[i]);
                ClassAssertion::simple("S1", &a, ClassOp::Incl, "S2", format!("b{j}"))
            }
            3 => ClassAssertion::simple("S1", &a, ClassOp::Intersect, "S2", &b),
            4 => ClassAssertion::simple("S1", &a, ClassOp::Disjoint, "S2", &b),
            _ => continue,
        };
        let _ = set.add(assertion);
    }
    set
}

fn build_assertions(n1: usize, n2: usize, ops: &[u8]) -> AssertionSet {
    let mut set = AssertionSet::new();
    for (i, op) in ops.iter().enumerate() {
        if i >= n1 || i >= n2 {
            break;
        }
        let a = format!("a{i}");
        let b = format!("b{i}");
        let assertion = match op {
            1 => ClassAssertion::simple("S1", &a, ClassOp::Equiv, "S2", &b),
            2 => ClassAssertion::simple("S1", &a, ClassOp::Incl, "S2", &b),
            3 => ClassAssertion::simple("S1", &a, ClassOp::Intersect, "S2", &b),
            4 => ClassAssertion::simple("S1", &a, ClassOp::Disjoint, "S2", &b),
            _ => continue,
        };
        // Ignore conflicts (the strategy may generate duplicates).
        let _ = set.add(assertion);
    }
    set
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Both algorithms terminate and produce identical class sets and is-a
    /// links for mirrored trees (the §6.3 model: assertions consistent with
    /// the structure) under any assertion mix, including inclusions into
    /// the mirror of an ancestor that a `∅` pair in between hides from the
    /// traversal.
    #[test]
    fn naive_and_optimized_agree(
        p1 in parents_strategy(8),
        ops in ops_strategy(8),
        ups in proptest::collection::vec(0usize..3, 8),
    ) {
        let s1 = tree_schema("S1", "a", &p1);
        let s2 = tree_schema("S2", "b", &p1);
        let set = build_mirrored_assertions(&p1, &ops, &ups);
        let naive = naive_schema_integration(&s1, &s2, &set).unwrap();
        let optimized = schema_integration(&s1, &s2, &set).unwrap();
        let mut nc: Vec<&str> = naive.output.classes().map(|c| c.name.as_str()).collect();
        let mut oc: Vec<&str> = optimized.output.classes().map(|c| c.name.as_str()).collect();
        nc.sort();
        oc.sort();
        prop_assert_eq!(nc, oc);
        let nl: std::collections::BTreeSet<_> = naive.output.isa_links().cloned().collect();
        let ol: std::collections::BTreeSet<_> = optimized.output.isa_links().cloned().collect();
        prop_assert_eq!(nl, ol);
    }

    /// The optimized algorithm never checks more pairs than the naive one
    /// (each unique pair is consulted at most once, and label/sibling
    /// pruning only removes consultations) — on any tree pair.
    #[test]
    fn optimized_never_checks_more(
        p1 in parents_strategy(8),
        p2 in parents_strategy(8),
        ops in ops_strategy(8),
    ) {
        let s1 = tree_schema("S1", "a", &p1);
        let s2 = tree_schema("S2", "b", &p2);
        let set = build_assertions(s1.len(), s2.len(), &ops);
        let naive = naive_schema_integration(&s1, &s2, &set).unwrap();
        let optimized = schema_integration(&s1, &s2, &set).unwrap();
        prop_assert!(optimized.stats.total_checks() <= naive.stats.pairs_checked,
            "optimized {} > naive {}", optimized.stats.total_checks(), naive.stats.pairs_checked);
    }

    /// Every source class has an image in the integrated schema
    /// (provenance is total), and the is-a graph of the output is acyclic.
    #[test]
    fn provenance_total_and_output_acyclic(
        p1 in parents_strategy(7),
        p2 in parents_strategy(7),
        ops in ops_strategy(7),
    ) {
        let s1 = tree_schema("S1", "a", &p1);
        let s2 = tree_schema("S2", "b", &p2);
        let set = build_assertions(s1.len(), s2.len(), &ops);
        let run = schema_integration(&s1, &s2, &set).unwrap();
        for c in s1.class_names() {
            prop_assert!(run.output.is("S1", c.as_str()).is_some(), "IS(S1.{c}) missing");
        }
        for c in s2.class_names() {
            prop_assert!(run.output.is("S2", c.as_str()).is_some(), "IS(S2.{c}) missing");
        }
        // Acyclicity: no class reaches itself through is-a links.
        for c in run.output.classes() {
            prop_assert!(!run.output.has_isa_path(&c.name, &c.name), "cycle at {}", c.name);
        }
        // Transitive reduction: no edge is implied by a longer path.
        for (sub, sup) in run.output.isa_links() {
            let mut without: fedoo::core::IntegratedSchema = run.output.clone();
            // Re-check minimality by asking for an alternative path of
            // length ≥ 2: remove is impossible through the API, so check
            // directly that no intermediate node links both ways.
            let intermediates: Vec<&str> = run
                .output
                .classes()
                .map(|c| c.name.as_str())
                .filter(|m| m != &sub.as_str() && m != &sup.as_str())
                .collect();
            for m in intermediates {
                let redundant = run.output.has_isa_path(sub, m) && run.output.has_isa_path(m, sup);
                prop_assert!(!redundant, "edge ({sub}, {sup}) redundant via {m}");
            }
            let _ = &mut without;
        }
    }

    /// Merged classes always carry both sources; copies exactly one.
    #[test]
    fn source_counts(
        p1 in parents_strategy(6),
        p2 in parents_strategy(6),
        ops in ops_strategy(6),
    ) {
        let s1 = tree_schema("S1", "a", &p1);
        let s2 = tree_schema("S2", "b", &p2);
        let set = build_assertions(s1.len(), s2.len(), &ops);
        let run = schema_integration(&s1, &s2, &set).unwrap();
        for class in run.output.classes() {
            if class.virtual_class {
                prop_assert!(class.sources.is_empty());
            } else {
                prop_assert!(
                    class.sources.len() == 1 || class.sources.len() == 2,
                    "{} has {} sources", class.name, class.sources.len()
                );
            }
        }
    }
}

/// Deterministic companion checks (not property-based): stats add up.
#[test]
fn stats_are_consistent() {
    let s1 = tree_schema("S1", "a", &[0, 0, 1, 1]);
    let s2 = tree_schema("S2", "b", &[0, 1, 1, 0]);
    let set = build_assertions(5, 5, &[1, 2, 3, 4, 0]);
    let run = schema_integration(&s1, &s2, &set).unwrap();
    // Every merged pair consumes two classes; copies the rest.
    assert_eq!(
        run.stats.classes_merged * 2 + run.stats.classes_copied,
        (s1.len() + s2.len()) as u64
    );
    // Total checks are bounded by the enqueued pairs plus DFS work.
    assert!(run.stats.pairs_checked <= run.stats.pairs_enqueued + 1);
}
