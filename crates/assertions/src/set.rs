//! An indexed assertion set.
//!
//! The integration algorithm's inner loop asks, for a pair of classes
//! `(N₁, N₂)`, *which assertion relates them* (`switch N₁ θ N₂` in
//! algorithm `schema_integration`). [`AssertionSet::relation`] answers in
//! O(log n) via a pair index, with the operator mirrored when the queried
//! orientation is opposite to the stored one.

use crate::assertion::ClassAssertion;
use crate::ops::ClassOp;
use std::collections::BTreeMap;
use std::fmt;

/// The relation between a queried pair `(N₁, N₂)`, from N₁'s perspective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairRelation {
    /// `N₁ ≡ N₂`
    Equiv(usize),
    /// `N₁ ⊆ N₂`
    Incl(usize),
    /// `N₁ ⊇ N₂`
    InclRev(usize),
    /// `N₁ ∩ N₂`
    Intersect(usize),
    /// `N₁ ∅ N₂`
    Disjoint(usize),
    /// N₁ and N₂ are involved in a derivation assertion together.
    Derivation(usize),
    /// No assertion relates the pair.
    None,
}

impl PairRelation {
    /// What assertion `id` with operator `op` states about its pair, from
    /// its left class's point of view.
    pub fn of(op: ClassOp, id: usize) -> Self {
        match op {
            ClassOp::Equiv => PairRelation::Equiv(id),
            ClassOp::Incl => PairRelation::Incl(id),
            ClassOp::InclRev => PairRelation::InclRev(id),
            ClassOp::Intersect => PairRelation::Intersect(id),
            ClassOp::Disjoint => PairRelation::Disjoint(id),
            ClassOp::Derive => PairRelation::Derivation(id),
        }
    }

    /// The index of the underlying assertion, if any.
    pub fn assertion_id(&self) -> Option<usize> {
        match self {
            PairRelation::Equiv(i)
            | PairRelation::Incl(i)
            | PairRelation::InclRev(i)
            | PairRelation::Intersect(i)
            | PairRelation::Disjoint(i)
            | PairRelation::Derivation(i) => Some(*i),
            PairRelation::None => None,
        }
    }
}

/// Errors raised when building an assertion set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SetError {
    /// Two assertions relate the same class pair.
    Conflicting {
        pair: String,
        first: String,
        second: String,
    },
    /// An assertion relates a class to itself within one schema.
    SelfAssertion(String),
}

impl fmt::Display for SetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SetError::Conflicting {
                pair,
                first,
                second,
            } => write!(
                f,
                "conflicting assertions for {pair}: `{first}` vs `{second}`"
            ),
            SetError::SelfAssertion(a) => {
                write!(f, "assertion relates a class to itself: `{a}`")
            }
        }
    }
}

impl std::error::Error for SetError {}

type PairKey = (String, String, String, String);

/// A validated, indexed collection of class assertions between two (or
/// more) schemas.
#[derive(Debug, Clone, Default)]
pub struct AssertionSet {
    assertions: Vec<ClassAssertion>,
    /// (left_schema, left_class, right_schema, right_class) → assertion id,
    /// in the stored orientation.
    index: BTreeMap<PairKey, usize>,
    /// (schema, class) → derivation assertions involving it.
    derivations: BTreeMap<(String, String), Vec<usize>>,
}

impl AssertionSet {
    pub fn new() -> Self {
        AssertionSet::default()
    }

    /// Build from assertions, rejecting duplicates/conflicts on the same
    /// class pair (derivations may coexist with nothing else on a pair).
    pub fn build<I>(assertions: I) -> Result<Self, SetError>
    where
        I: IntoIterator<Item = ClassAssertion>,
    {
        let _span = obs::span!("assertions.closure", "assertions");
        let mut set = AssertionSet::new();
        for a in assertions {
            set.add(a)?;
        }
        obs::counter!("fedoo_assertions_built_total", set.assertions.len());
        Ok(set)
    }

    /// Add one assertion.
    pub fn add(&mut self, a: ClassAssertion) -> Result<(), SetError> {
        if a.left_schema == a.right_schema && a.left_classes.iter().any(|c| c == &a.right_class) {
            return Err(SetError::SelfAssertion(a.to_string()));
        }
        let id = self.assertions.len();
        if a.op == ClassOp::Derive {
            for c in &a.left_classes {
                self.derivations
                    .entry((a.left_schema.clone(), c.clone()))
                    .or_default()
                    .push(id);
            }
            self.derivations
                .entry((a.right_schema.clone(), a.right_class.clone()))
                .or_default()
                .push(id);
        } else {
            let key = (
                a.left_schema.clone(),
                a.left_class().to_string(),
                a.right_schema.clone(),
                a.right_class.clone(),
            );
            let rev_key = (key.2.clone(), key.3.clone(), key.0.clone(), key.1.clone());
            for k in [&key, &rev_key] {
                if let Some(&existing) = self.index.get(k) {
                    return Err(SetError::Conflicting {
                        pair: format!("({}, {})", k.1, k.3),
                        first: self.assertions[existing].to_string(),
                        second: a.to_string(),
                    });
                }
            }
            self.index.insert(key, id);
        }
        self.assertions.push(a);
        Ok(())
    }

    pub fn iter(&self) -> impl Iterator<Item = &ClassAssertion> {
        self.assertions.iter()
    }

    /// The assertions in insertion order, borrowed.
    pub fn as_slice(&self) -> &[ClassAssertion] {
        &self.assertions
    }

    pub fn get(&self, id: usize) -> Option<&ClassAssertion> {
        self.assertions.get(id)
    }

    pub fn len(&self) -> usize {
        self.assertions.len()
    }

    pub fn is_empty(&self) -> bool {
        self.assertions.is_empty()
    }

    /// The `N₁ θ N₂` lookup of the integration algorithms: the relation
    /// between `class1` of `schema1` and `class2` of `schema2`, *from the
    /// first argument's point of view*.
    ///
    /// Non-derivation assertions are found in either stored orientation
    /// (with the operator flipped as needed). If no direct assertion
    /// exists, a derivation assertion involving both classes yields
    /// [`PairRelation::Derivation`] (observation 3 of §6.1 treats the pair
    /// as unmatched for traversal purposes).
    pub fn relation(
        &self,
        schema1: &str,
        class1: &str,
        schema2: &str,
        class2: &str,
    ) -> PairRelation {
        let key = (
            schema1.to_string(),
            class1.to_string(),
            schema2.to_string(),
            class2.to_string(),
        );
        if let Some(&id) = self.index.get(&key) {
            return PairRelation::of(self.assertions[id].op, id);
        }
        let rev_key = (key.2, key.3, key.0, key.1);
        if let Some(&id) = self.index.get(&rev_key) {
            let flipped = self.assertions[id]
                .op
                .flipped()
                .expect("derivations are not pair-indexed");
            return PairRelation::of(flipped, id);
        }
        // Derivation involvement: both classes appear in the same
        // derivation assertion.
        if let Some(ids) = self
            .derivations
            .get(&(schema1.to_string(), class1.to_string()))
        {
            for &id in ids {
                if self.assertions[id].involves(schema2, class2) {
                    return PairRelation::Derivation(id);
                }
            }
        }
        PairRelation::None
    }

    /// All derivation assertions involving both named classes (a pair can
    /// participate in several — e.g. `Book → Author` and `Author → Book`
    /// of Fig. 6).
    pub fn derivations_between(
        &self,
        schema1: &str,
        class1: &str,
        schema2: &str,
        class2: &str,
    ) -> Vec<usize> {
        self.derivations
            .get(&(schema1.to_string(), class1.to_string()))
            .map(|ids| {
                ids.iter()
                    .copied()
                    .filter(|&id| self.assertions[id].involves(schema2, class2))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// All derivation assertions.
    pub fn derivation_assertions(&self) -> impl Iterator<Item = (usize, &ClassAssertion)> {
        self.assertions
            .iter()
            .enumerate()
            .filter(|(_, a)| a.op == ClassOp::Derive)
    }

    /// Assertions of a given operator.
    pub fn with_op(&self, op: ClassOp) -> impl Iterator<Item = &ClassAssertion> + '_ {
        self.assertions.iter().filter(move |a| a.op == op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set() -> AssertionSet {
        AssertionSet::build([
            ClassAssertion::simple("S1", "person", ClassOp::Equiv, "S2", "human"),
            ClassAssertion::simple("S1", "book", ClassOp::Incl, "S2", "publication"),
            ClassAssertion::simple("S1", "faculty", ClassOp::Intersect, "S2", "student"),
            ClassAssertion::simple("S1", "man", ClassOp::Disjoint, "S2", "woman"),
            ClassAssertion::derivation("S1", ["parent", "brother"], "S2", "uncle"),
        ])
        .unwrap()
    }

    #[test]
    fn direct_lookup() {
        let s = set();
        assert!(matches!(
            s.relation("S1", "person", "S2", "human"),
            PairRelation::Equiv(_)
        ));
        assert!(matches!(
            s.relation("S1", "book", "S2", "publication"),
            PairRelation::Incl(_)
        ));
        assert!(matches!(
            s.relation("S1", "faculty", "S2", "student"),
            PairRelation::Intersect(_)
        ));
        assert!(matches!(
            s.relation("S1", "man", "S2", "woman"),
            PairRelation::Disjoint(_)
        ));
    }

    #[test]
    fn flipped_lookup() {
        let s = set();
        // publication (S2) ⊇ book (S1), seen from publication's side.
        assert!(matches!(
            s.relation("S2", "publication", "S1", "book"),
            PairRelation::InclRev(_)
        ));
        assert!(matches!(
            s.relation("S2", "human", "S1", "person"),
            PairRelation::Equiv(_)
        ));
    }

    #[test]
    fn derivation_involvement() {
        let s = set();
        assert!(matches!(
            s.relation("S1", "parent", "S2", "uncle"),
            PairRelation::Derivation(_)
        ));
        assert!(matches!(
            s.relation("S1", "brother", "S2", "uncle"),
            PairRelation::Derivation(_)
        ));
        assert!(matches!(
            s.relation("S2", "uncle", "S1", "parent"),
            PairRelation::Derivation(_)
        ));
        // parent and human are unrelated
        assert!(matches!(
            s.relation("S1", "parent", "S2", "human"),
            PairRelation::None
        ));
    }

    #[test]
    fn conflicting_assertions_rejected() {
        let err = AssertionSet::build([
            ClassAssertion::simple("S1", "a", ClassOp::Equiv, "S2", "b"),
            ClassAssertion::simple("S1", "a", ClassOp::Disjoint, "S2", "b"),
        ])
        .unwrap_err();
        assert!(matches!(err, SetError::Conflicting { .. }));
        // also when the second is stored in the reverse orientation
        let err = AssertionSet::build([
            ClassAssertion::simple("S1", "a", ClassOp::Equiv, "S2", "b"),
            ClassAssertion::simple("S2", "b", ClassOp::Incl, "S1", "a"),
        ])
        .unwrap_err();
        assert!(matches!(err, SetError::Conflicting { .. }));
    }

    #[test]
    fn self_assertion_rejected() {
        let err =
            AssertionSet::build([ClassAssertion::simple("S1", "a", ClassOp::Equiv, "S1", "a")])
                .unwrap_err();
        assert!(matches!(err, SetError::SelfAssertion(_)));
    }

    #[test]
    fn multiple_inclusions_allowed_for_distinct_pairs() {
        // Example 7: professor ⊆ human and professor ⊆ employee coexist.
        let s = AssertionSet::build([
            ClassAssertion::simple("S1", "professor", ClassOp::Incl, "S2", "human"),
            ClassAssertion::simple("S1", "professor", ClassOp::Incl, "S2", "employee"),
        ])
        .unwrap();
        assert!(matches!(
            s.relation("S1", "professor", "S2", "human"),
            PairRelation::Incl(_)
        ));
        assert!(matches!(
            s.relation("S1", "professor", "S2", "employee"),
            PairRelation::Incl(_)
        ));
    }

    #[test]
    fn with_op_filter() {
        let s = set();
        assert_eq!(s.with_op(ClassOp::Equiv).count(), 1);
        assert_eq!(s.derivation_assertions().count(), 1);
    }
}
