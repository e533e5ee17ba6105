//! **Principle 2** — integration of inclusion assertions.
//!
//! `if S₁•A ⊆ S₂•B then insert is_a(IS(A), IS(B))`, generalised (Fig. 8) so
//! that a chain `A ⊆ B₁, …, A ⊆ Bₙ` with `<Bᵢ₊₁ : Bᵢ>` produces **one**
//! link `is_a(IS(A), IS(Bₙ))` to the most specific superclass instead of n
//! redundant links.
//!
//! During traversal the algorithms merely *record* requested links
//! (`Integrator::note_inclusion`); the selection of the deepest
//! target happens in two complementary places:
//!
//! * `path_labelling` (optimized algorithm) walks the is-a subgraph and
//!   records only the deepest applicable target;
//! * the final link pass ([`super::links`]) performs transitive reduction,
//!   which removes any remaining redundant links (this also covers the
//!   naive algorithm, which records every asserted link).
//!
//! This module provides the deepest-target selection used by tests and by
//! the naive algorithm's post-pass.

use crate::integrated::SourceRef;
use assertions::{AssertionSet, PairRelation};
use oo_model::{ClassName, Schema};

/// Given `A ⊆ targets…` (all in `sup_schema`), choose the most specific
/// targets per Fig. 8: drop any target that is a (transitive) superclass of
/// another target.
pub fn most_specific_targets(sup_schema: &Schema, targets: &[ClassName]) -> Vec<ClassName> {
    targets
        .iter()
        .filter(|t| {
            // Keep t unless some other target is a subclass of t.
            !targets
                .iter()
                .any(|o| o != *t && sup_schema.has_isa_path(o, t))
        })
        .cloned()
        .collect()
}

/// All inclusion targets asserted for `sub` (a class of `sub_schema`)
/// within `sup_schema`.
pub fn asserted_targets(
    assertions: &AssertionSet,
    sub_schema: &Schema,
    sub: &str,
    sup_schema: &Schema,
) -> Vec<ClassName> {
    sup_schema
        .class_names()
        .filter(|b| {
            matches!(
                assertions.relation(
                    sub_schema.name.as_str(),
                    sub,
                    sup_schema.name.as_str(),
                    b.as_str()
                ),
                PairRelation::Incl(_)
            )
        })
        .cloned()
        .collect()
}

/// The source-level link requests for `sub ⊆ {targets}` after Fig. 8
/// minimisation.
pub fn minimal_links(
    assertions: &AssertionSet,
    sub_schema: &Schema,
    sub: &str,
    sup_schema: &Schema,
) -> Vec<(SourceRef, SourceRef)> {
    let targets = asserted_targets(assertions, sub_schema, sub, sup_schema);
    most_specific_targets(sup_schema, &targets)
        .into_iter()
        .map(|t| {
            (
                SourceRef::new(sub_schema.name.as_str(), sub),
                SourceRef::new(sup_schema.name.as_str(), t.as_str()),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use assertions::{ClassAssertion, ClassOp};
    use oo_model::SchemaBuilder;

    /// Example 7: professor ⊆ human and professor ⊆ employee with
    /// employee ⊆ human locally in S₂ ⇒ only is_a(professor, employee).
    #[test]
    fn example_7_single_link() {
        let s1 = SchemaBuilder::new("S1")
            .empty_class("professor")
            .build()
            .unwrap();
        let s2 = SchemaBuilder::new("S2")
            .empty_class("human")
            .empty_class("employee")
            .isa("employee", "human")
            .build()
            .unwrap();
        let aset = AssertionSet::build([
            ClassAssertion::simple("S1", "professor", ClassOp::Incl, "S2", "human"),
            ClassAssertion::simple("S1", "professor", ClassOp::Incl, "S2", "employee"),
        ])
        .unwrap();
        let links = minimal_links(&aset, &s1, "professor", &s2);
        assert_eq!(links.len(), 1);
        assert_eq!(links[0].1.class, "employee");
    }

    /// Fig. 8: a chain B₁ ← B₂ ← … ← Bₙ with A ⊆ each ⇒ only is_a(A, Bₙ).
    #[test]
    fn fig_8_chain_collapses_to_deepest() {
        let s1 = SchemaBuilder::new("S1").empty_class("A").build().unwrap();
        let mut b = SchemaBuilder::new("S2");
        for i in 1..=4 {
            b = b.empty_class(format!("B{i}"));
        }
        let s2 = b
            .isa("B2", "B1")
            .isa("B3", "B2")
            .isa("B4", "B3")
            .build()
            .unwrap();
        let aset = AssertionSet::build(
            (1..=4)
                .map(|i| ClassAssertion::simple("S1", "A", ClassOp::Incl, "S2", format!("B{i}"))),
        )
        .unwrap();
        let links = minimal_links(&aset, &s1, "A", &s2);
        assert_eq!(links.len(), 1);
        assert_eq!(links[0].1.class, "B4");
    }

    /// Unrelated targets each keep their link.
    #[test]
    fn independent_targets_kept() {
        let s1 = SchemaBuilder::new("S1").empty_class("A").build().unwrap();
        let s2 = SchemaBuilder::new("S2")
            .empty_class("X")
            .empty_class("Y")
            .build()
            .unwrap();
        let aset = AssertionSet::build([
            ClassAssertion::simple("S1", "A", ClassOp::Incl, "S2", "X"),
            ClassAssertion::simple("S1", "A", ClassOp::Incl, "S2", "Y"),
        ])
        .unwrap();
        let links = minimal_links(&aset, &s1, "A", &s2);
        assert_eq!(links.len(), 2);
    }
}
