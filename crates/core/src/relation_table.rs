//! The `N₁ θ N₂` consultations of one integration run, precomputed.
//!
//! [`AssertionSet::relation`] answers from string-keyed indexes, which costs
//! several `String` allocations per call. The traversal asks that question
//! for every pair it checks, so each run resolves the assertions between
//! its two schemas once, into a table keyed by class ids: exactly the pairs
//! some assertion relates, derivation involvement included. Every other
//! pair is [`PairRelation::None`].

use crate::graph::{ClassId, Rows, SchemaGraph};
use assertions::{AssertionSet, ClassOp, PairRelation};

/// `(s1 class, s2 class) → PairRelation` for the related pairs, with rows
/// from either side.
#[derive(Debug, Clone)]
pub struct RelationTable {
    /// Per S1 class: its related S2 classes, ascending.
    by_left: Rows<(ClassId, PairRelation)>,
    /// Per S2 class: its related S1 classes, ascending (relations still
    /// from the S1 class's point of view).
    by_right: Rows<(ClassId, PairRelation)>,
}

impl RelationTable {
    /// Resolve `assertions` between the schemas of `g1` and `g2`, giving
    /// each pair the answer [`AssertionSet::relation`] gives.
    pub fn new(g1: &SchemaGraph<'_>, g2: &SchemaGraph<'_>, assertions: &AssertionSet) -> Self {
        let (n1, n2) = (g1.schema.name.as_str(), g2.schema.name.as_str());
        // Direct assertions come first so that a pair's first entry wins
        // after the stable sort, as the index lookup precedes derivation
        // involvement in `AssertionSet::relation`.
        let mut entries: Vec<(ClassId, ClassId, PairRelation)> = Vec::new();
        let mut derivations = Vec::new();
        for (id, a) in assertions.iter().enumerate() {
            if a.op == ClassOp::Derive {
                derivations.push((id, a));
                continue;
            }
            let (l, r) = (a.left_class(), a.right_class.as_str());
            if a.left_schema == n1 && a.right_schema == n2 {
                if let (Some(x), Some(y)) = (g1.id(l), g2.id(r)) {
                    entries.push((x, y, PairRelation::of(a.op, id)));
                }
            }
            if a.left_schema == n2 && a.right_schema == n1 {
                if let (Some(x), Some(y), Some(op)) = (g1.id(r), g2.id(l), a.op.flipped()) {
                    entries.push((x, y, PairRelation::of(op, id)));
                }
            }
        }
        // A derivation relates every pair of classes it names across the
        // two schemas; the lowest assertion id wins, as in the lookup.
        for (id, a) in derivations {
            let named = |schema: &str, g: &SchemaGraph<'_>| -> Vec<ClassId> {
                let mut out = Vec::new();
                if a.left_schema == schema {
                    out.extend(a.left_classes.iter().filter_map(|c| g.id(c)));
                }
                if a.right_schema == schema {
                    out.extend(g.id(&a.right_class));
                }
                out
            };
            let right = named(n2, g2);
            for x in named(n1, g1) {
                for &y in &right {
                    entries.push((x, y, PairRelation::Derivation(id)));
                }
            }
        }
        entries.sort_by_key(|&(x, y, _)| (x, y));
        entries.dedup_by_key(|&mut (x, y, _)| (x, y));
        let by_left = Rows::new(g1.len(), entries.iter().map(|&(x, y, r)| (x, (y, r))));
        entries.sort_by_key(|&(x, y, _)| (y, x));
        let by_right = Rows::new(g2.len(), entries.iter().map(|&(x, y, r)| (y, (x, r))));
        RelationTable { by_left, by_right }
    }

    /// The relation between S1 class `x` and S2 class `y`, from `x`'s
    /// point of view.
    pub fn get(&self, x: ClassId, y: ClassId) -> PairRelation {
        let row = self.by_left.row(x);
        match row.binary_search_by_key(&y, |&(y, _)| y) {
            Ok(i) => row[i].1,
            Err(_) => PairRelation::None,
        }
    }

    /// The S2 classes some assertion relates to S1 class `x`.
    pub fn left_partners(&self, x: ClassId) -> &[(ClassId, PairRelation)] {
        self.by_left.row(x)
    }

    /// The S1 classes some assertion relates to S2 class `y`.
    pub fn right_partners(&self, y: ClassId) -> &[(ClassId, PairRelation)] {
        self.by_right.row(y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use assertions::ClassAssertion;
    use oo_model::{Schema, SchemaBuilder};

    fn schema(name: &str, classes: &[&str]) -> Schema {
        classes
            .iter()
            .fold(SchemaBuilder::new(name), |b, c| b.empty_class(*c))
            .build()
            .unwrap()
    }

    /// Every pair answers as the string-keyed lookup does, in both stored
    /// orientations and for derivation involvement.
    #[test]
    fn table_agrees_with_the_assertion_set() {
        let s1 = schema("S1", &["book", "brother", "man", "parent", "person", "x"]);
        let s2 = schema("S2", &["human", "publication", "uncle", "woman", "y"]);
        let set = AssertionSet::build([
            ClassAssertion::simple("S1", "person", ClassOp::Equiv, "S2", "human"),
            ClassAssertion::simple("S2", "publication", ClassOp::Incl, "S1", "book"),
            ClassAssertion::simple("S1", "man", ClassOp::Disjoint, "S2", "woman"),
            ClassAssertion::derivation("S1", ["parent", "brother"], "S2", "uncle"),
            ClassAssertion::derivation("S2", ["uncle", "human"], "S1", "brother"),
            ClassAssertion::simple("S1", "x", ClassOp::Intersect, "S3", "y"),
            ClassAssertion::simple("S1", "ghost", ClassOp::Equiv, "S2", "y"),
        ])
        .unwrap();
        let (g1, g2) = (SchemaGraph::new(&s1), SchemaGraph::new(&s2));
        let table = RelationTable::new(&g1, &g2, &set);
        let mut related = 0;
        for c1 in s1.class_names() {
            for c2 in s2.class_names() {
                let want = set.relation("S1", c1.as_str(), "S2", c2.as_str());
                let (x, y) = (g1.id(c1.as_str()).unwrap(), g2.id(c2.as_str()).unwrap());
                assert_eq!(table.get(x, y), want, "({c1}, {c2})");
                let listed = table.left_partners(x).iter().any(|&(p, _)| p == y);
                let listed_back = table.right_partners(y).iter().any(|&(p, _)| p == x);
                let is_related = want != PairRelation::None;
                assert_eq!((listed, listed_back), (is_related, is_related));
                related += is_related as usize;
            }
        }
        assert_eq!(related, 6);
    }
}
