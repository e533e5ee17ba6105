//! Schemas: a set of classes organised into an is-a hierarchy (§2), plus the
//! aggregation links implied by the classes' aggregation functions.
//!
//! A schema validates to a DAG of is-a links (`<C : C'>` typing O-terms)
//! whose aggregation ranges and link endpoints all resolve, and offers the
//! traversal queries the integration algorithms of §6 rely on: children,
//! parents, ancestors, descendants, roots, and is-a paths.

use crate::class::{AggDef, AttrDef, Class, ClassName};
use crate::error::ModelError;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

/// Schema name, e.g. `S1`, `S2` in the paper's assertions.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SchemaName(pub String);

impl SchemaName {
    pub fn new(s: impl Into<String>) -> Self {
        SchemaName(s.into())
    }

    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for SchemaName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for SchemaName {
    fn from(s: &str) -> Self {
        SchemaName(s.to_string())
    }
}

/// A local object-oriented schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    pub name: SchemaName,
    classes: BTreeMap<ClassName, Class>,
    /// is-a links: `(sub, super)` pairs, i.e. `is_a(sub, super)`.
    isa: BTreeSet<(ClassName, ClassName)>,
}

impl Schema {
    pub fn new(name: impl Into<SchemaName>) -> Self {
        Schema {
            name: name.into(),
            classes: BTreeMap::new(),
            isa: BTreeSet::new(),
        }
    }

    /// Add a class; duplicate names are rejected.
    pub fn add_class(&mut self, class: Class) -> Result<(), ModelError> {
        if self.classes.contains_key(&class.name) {
            return Err(ModelError::Duplicate(class.name.0.clone()));
        }
        self.classes.insert(class.name.clone(), class);
        Ok(())
    }

    /// Add an is-a link `is_a(sub, super)`. Both classes must exist and the
    /// link must not introduce a cycle.
    pub fn add_isa(
        &mut self,
        sub: impl Into<ClassName>,
        sup: impl Into<ClassName>,
    ) -> Result<(), ModelError> {
        let sub = sub.into();
        let sup = sup.into();
        for c in [&sub, &sup] {
            if !self.classes.contains_key(c) {
                return Err(ModelError::UnknownClass(c.0.clone()));
            }
        }
        if sub == sup || self.is_subclass_of(&sup, &sub) {
            return Err(ModelError::IsaCycle(sub.0));
        }
        self.isa.insert((sub, sup));
        Ok(())
    }

    /// Insert an is-a link **without** the existence and acyclicity checks
    /// of [`Schema::add_isa`]. This exists for analysis tooling (the
    /// `fedoo-analysis` schema lints) which must be able to represent an
    /// ill-formed schema in order to diagnose it; [`Schema::validate`]
    /// still reports the problems afterwards. Not for integration inputs.
    pub fn add_isa_unchecked(&mut self, sub: impl Into<ClassName>, sup: impl Into<ClassName>) {
        self.isa.insert((sub.into(), sup.into()));
    }

    pub fn class(&self, name: &ClassName) -> Option<&Class> {
        self.classes.get(name)
    }

    pub fn class_named(&self, name: &str) -> Option<&Class> {
        self.classes.get(name)
    }

    pub fn contains(&self, name: &ClassName) -> bool {
        self.classes.contains_key(name)
    }

    /// All classes, in name order (deterministic iteration).
    pub fn classes(&self) -> impl Iterator<Item = &Class> {
        self.classes.values()
    }

    pub fn class_names(&self) -> impl Iterator<Item = &ClassName> {
        self.classes.keys()
    }

    pub fn len(&self) -> usize {
        self.classes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// All is-a links `(sub, super)`.
    pub fn isa_links(&self) -> impl Iterator<Item = &(ClassName, ClassName)> {
        self.isa.iter()
    }

    /// Direct superclasses of `c`.
    pub fn parents(&self, c: &ClassName) -> Vec<&ClassName> {
        self.isa
            .iter()
            .filter(|(sub, _)| sub == c)
            .map(|(_, sup)| sup)
            .collect()
    }

    /// Direct subclasses of `c` — the "child nodes" of the §6 algorithms
    /// (the graphs there are traversed top-down along is-a links).
    pub fn children(&self, c: &ClassName) -> Vec<&ClassName> {
        self.isa
            .iter()
            .filter(|(_, sup)| sup == c)
            .map(|(sub, _)| sub)
            .collect()
    }

    /// Sibling classes: other children of any parent of `c`
    /// (the "brother nodes" of algorithm `schema_integration`, line 10).
    pub fn siblings(&self, c: &ClassName) -> Vec<ClassName> {
        let mut out = BTreeSet::new();
        for p in self.parents(c) {
            for ch in self.children(p) {
                if ch != c {
                    out.insert(ch.clone());
                }
            }
        }
        out.into_iter().collect()
    }

    /// Transitive superclasses (not including `c`).
    pub fn ancestors(&self, c: &ClassName) -> BTreeSet<ClassName> {
        self.closure(c, |s, n| s.parents(n))
    }

    /// Transitive subclasses (not including `c`).
    pub fn descendants(&self, c: &ClassName) -> BTreeSet<ClassName> {
        self.closure(c, |s, n| s.children(n))
    }

    fn closure<'a, F>(&'a self, c: &ClassName, step: F) -> BTreeSet<ClassName>
    where
        F: Fn(&'a Schema, &ClassName) -> Vec<&'a ClassName>,
    {
        let mut seen = BTreeSet::new();
        let mut queue: VecDeque<ClassName> = VecDeque::new();
        queue.push_back(c.clone());
        while let Some(n) = queue.pop_front() {
            for next in step(self, &n) {
                if seen.insert(next.clone()) {
                    queue.push_back(next.clone());
                }
            }
        }
        seen
    }

    /// `{<o:C>} ⊆ {<o':C'>}`: is `sub` a (transitive) subclass of `sup`?
    pub fn is_subclass_of(&self, sub: &ClassName, sup: &ClassName) -> bool {
        sub == sup || self.ancestors(sub).contains(sup)
    }

    /// Is there a *local* is-a path `sub ← … ← sup` of length ≥ 1?
    pub fn has_isa_path(&self, sub: &ClassName, sup: &ClassName) -> bool {
        sub != sup && self.ancestors(sub).contains(sup)
    }

    /// One is-a path `sub → … → sup` (list of class names, inclusive),
    /// if any exists. Deterministic: explores parents in name order.
    pub fn isa_path(&self, sub: &ClassName, sup: &ClassName) -> Option<Vec<ClassName>> {
        if sub == sup {
            return Some(vec![sub.clone()]);
        }
        let mut parents = self.parents(sub);
        parents.sort();
        for p in parents {
            if let Some(mut rest) = self.isa_path(p, sup) {
                let mut path = vec![sub.clone()];
                path.append(&mut rest);
                return Some(path);
            }
        }
        None
    }

    /// Upper bounds of `{a, b}` in the is-a lattice: every class `c` with
    /// `a ⊑ c` and `b ⊑ c` (reflexive, so `join(a, a) = a`).
    pub fn upper_bounds(&self, a: &ClassName, b: &ClassName) -> BTreeSet<ClassName> {
        let mut ua = self.ancestors(a);
        ua.insert(a.clone());
        let mut ub = self.ancestors(b);
        ub.insert(b.clone());
        ua.intersection(&ub).cloned().collect()
    }

    /// Lower bounds of `{a, b}`: every class `c` with `c ⊑ a` and `c ⊑ b`.
    pub fn lower_bounds(&self, a: &ClassName, b: &ClassName) -> BTreeSet<ClassName> {
        let mut da = self.descendants(a);
        da.insert(a.clone());
        let mut db = self.descendants(b);
        db.insert(b.clone());
        da.intersection(&db).cloned().collect()
    }

    /// Least upper bound of `a` and `b` in the is-a lattice, if one exists.
    /// An is-a DAG is not necessarily a lattice: with multiple minimal
    /// common ancestors (or none at all) there is no join and this returns
    /// `None` — callers fall back to ⊤.
    pub fn lattice_join(&self, a: &ClassName, b: &ClassName) -> Option<ClassName> {
        let ubs = self.upper_bounds(a, b);
        let mut minimal = ubs
            .iter()
            .filter(|c| !ubs.iter().any(|o| o != *c && self.is_subclass_of(o, c)));
        let first = minimal.next()?.clone();
        if minimal.next().is_some() {
            return None;
        }
        Some(first)
    }

    /// Greatest lower bound of `a` and `b`, if one exists (see
    /// [`Schema::lattice_join`] for the non-lattice caveat).
    pub fn lattice_meet(&self, a: &ClassName, b: &ClassName) -> Option<ClassName> {
        let lbs = self.lower_bounds(a, b);
        let mut maximal = lbs
            .iter()
            .filter(|c| !lbs.iter().any(|o| o != *c && self.is_subclass_of(c, o)));
        let first = maximal.next()?.clone();
        if maximal.next().is_some() {
            return None;
        }
        Some(first)
    }

    /// `a ⊓ b = ⊥` in the is-a lattice: no class is a (reflexive)
    /// subclass of both. Note this only speaks about the *local* lattice —
    /// federated object pairing can still place one object in two
    /// lattice-disjoint classes, so emptiness conclusions must additionally
    /// be licensed by explicit disjointness assertions.
    pub fn meet_is_empty(&self, a: &ClassName, b: &ClassName) -> bool {
        self.lower_bounds(a, b).is_empty()
    }

    /// Classes with no superclass — the roots the §6 virtual start node
    /// connects to.
    pub fn roots(&self) -> Vec<ClassName> {
        self.classes
            .keys()
            .filter(|c| self.parents(c).is_empty())
            .cloned()
            .collect()
    }

    /// All attributes of `c` including inherited ones (closest definition
    /// wins on name clashes). Returned in (inheritance-depth, name) order.
    pub fn all_attributes(&self, c: &ClassName) -> Vec<AttrDef> {
        let mut seen = BTreeSet::new();
        let mut out = Vec::new();
        let mut frontier = vec![c.clone()];
        while !frontier.is_empty() {
            let mut next = Vec::new();
            for n in &frontier {
                if let Some(class) = self.classes.get(n) {
                    for a in &class.ty.attributes {
                        if seen.insert(a.name.clone()) {
                            out.push(a.clone());
                        }
                    }
                }
                for p in self.parents(n) {
                    next.push(p.clone());
                }
            }
            next.sort();
            next.dedup();
            frontier = next;
        }
        out
    }

    /// All aggregation functions of `c` including inherited ones.
    pub fn all_aggregations(&self, c: &ClassName) -> Vec<AggDef> {
        let mut seen = BTreeSet::new();
        let mut out = Vec::new();
        let mut frontier = vec![c.clone()];
        while !frontier.is_empty() {
            let mut next = Vec::new();
            for n in &frontier {
                if let Some(class) = self.classes.get(n) {
                    for g in &class.ty.aggregations {
                        if seen.insert(g.name.clone()) {
                            out.push(g.clone());
                        }
                    }
                }
                for p in self.parents(n) {
                    next.push(p.clone());
                }
            }
            next.sort();
            next.dedup();
            frontier = next;
        }
        out
    }

    /// Validate the whole schema: aggregation ranges resolve, is-a endpoints
    /// resolve, the hierarchy is acyclic (guaranteed by construction via
    /// `add_isa`, revalidated here for schemas built by other means).
    pub fn validate(&self) -> Result<(), ModelError> {
        for class in self.classes.values() {
            for agg in &class.ty.aggregations {
                if !self.classes.contains_key(&agg.range) {
                    return Err(ModelError::UnknownClass(agg.range.0.clone()));
                }
            }
        }
        for (sub, sup) in &self.isa {
            for c in [sub, sup] {
                if !self.classes.contains_key(c) {
                    return Err(ModelError::UnknownClass(c.0.clone()));
                }
            }
        }
        // Kahn's algorithm over is-a edges to detect cycles.
        let mut indeg: BTreeMap<&ClassName, usize> = self.classes.keys().map(|c| (c, 0)).collect();
        for (_, sup) in &self.isa {
            *indeg.get_mut(sup).expect("validated above") += 1;
        }
        let mut queue: VecDeque<&ClassName> = indeg
            .iter()
            .filter(|(_, d)| **d == 0)
            .map(|(c, _)| *c)
            .collect();
        let mut visited = 0usize;
        while let Some(n) = queue.pop_front() {
            visited += 1;
            for p in self.parents(n) {
                let d = indeg.get_mut(p).expect("validated above");
                *d -= 1;
                if *d == 0 {
                    queue.push_back(p);
                }
            }
        }
        if visited != self.classes.len() {
            let cyclic = indeg
                .iter()
                .find(|(_, d)| **d > 0)
                .map(|(c, _)| c.0.clone())
                .unwrap_or_default();
            return Err(ModelError::IsaCycle(cyclic));
        }
        Ok(())
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "schema {} {{", self.name)?;
        for class in self.classes.values() {
            writeln!(f, "  class {} {}", class.name, class.ty)?;
        }
        for (sub, sup) in &self.isa {
            writeln!(f, "  is_a({sub}, {sup})")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::{AttrType, ClassType};

    fn university() -> Schema {
        // The S2 schema of Fig. 18(a): human ← employee ← faculty ← professor,
        // human ← student.
        let mut s = Schema::new("S2");
        for name in ["human", "employee", "faculty", "professor", "student"] {
            let mut ty = ClassType::new();
            ty.push_attribute(AttrDef::new("name", AttrType::Str))
                .unwrap();
            s.add_class(Class::new(name, ty)).unwrap();
        }
        s.add_isa("employee", "human").unwrap();
        s.add_isa("faculty", "employee").unwrap();
        s.add_isa("professor", "faculty").unwrap();
        s.add_isa("student", "human").unwrap();
        s.validate().unwrap();
        s
    }

    #[test]
    fn parents_children_siblings() {
        let s = university();
        let faculty = ClassName::new("faculty");
        assert_eq!(s.parents(&faculty), vec![&ClassName::new("employee")]);
        assert_eq!(s.children(&faculty), vec![&ClassName::new("professor")]);
        let employee = ClassName::new("employee");
        assert_eq!(s.siblings(&employee), vec![ClassName::new("student")]);
    }

    #[test]
    fn ancestors_and_descendants() {
        let s = university();
        let prof = ClassName::new("professor");
        let anc = s.ancestors(&prof);
        assert!(anc.contains(&ClassName::new("faculty")));
        assert!(anc.contains(&ClassName::new("employee")));
        assert!(anc.contains(&ClassName::new("human")));
        assert_eq!(anc.len(), 3);
        let desc = s.descendants(&ClassName::new("human"));
        assert_eq!(desc.len(), 4);
    }

    #[test]
    fn subclass_queries() {
        let s = university();
        assert!(s.is_subclass_of(&"professor".into(), &"human".into()));
        assert!(s.is_subclass_of(&"human".into(), &"human".into()));
        assert!(!s.has_isa_path(&"human".into(), &"human".into()));
        assert!(!s.is_subclass_of(&"human".into(), &"professor".into()));
    }

    #[test]
    fn lattice_join_and_meet() {
        let s = university();
        assert_eq!(
            s.lattice_join(&"professor".into(), &"student".into()),
            Some(ClassName::new("human"))
        );
        assert_eq!(
            s.lattice_join(&"faculty".into(), &"employee".into()),
            Some(ClassName::new("employee"))
        );
        assert_eq!(
            s.lattice_meet(&"human".into(), &"student".into()),
            Some(ClassName::new("student"))
        );
        // employee and student share no common subclass.
        assert_eq!(s.lattice_meet(&"employee".into(), &"student".into()), None);
        assert!(s.meet_is_empty(&"employee".into(), &"student".into()));
        assert!(!s.meet_is_empty(&"faculty".into(), &"employee".into()));
    }

    #[test]
    fn join_absent_without_common_ancestor() {
        let mut s = Schema::new("S");
        for n in ["a", "b"] {
            s.add_class(Class::new(n, ClassType::new())).unwrap();
        }
        assert_eq!(s.lattice_join(&"a".into(), &"b".into()), None);
        assert!(s.upper_bounds(&"a".into(), &"b".into()).is_empty());
    }

    #[test]
    fn isa_path_is_found() {
        let s = university();
        let p = s
            .isa_path(&"professor".into(), &"human".into())
            .expect("path exists");
        assert_eq!(
            p,
            vec![
                ClassName::new("professor"),
                ClassName::new("faculty"),
                ClassName::new("employee"),
                ClassName::new("human"),
            ]
        );
        assert!(s.isa_path(&"human".into(), &"professor".into()).is_none());
    }

    #[test]
    fn roots() {
        let s = university();
        assert_eq!(s.roots(), vec![ClassName::new("human")]);
    }

    #[test]
    fn cycles_rejected() {
        let mut s = university();
        assert!(matches!(
            s.add_isa("human", "professor"),
            Err(ModelError::IsaCycle(_))
        ));
        assert!(matches!(
            s.add_isa("human", "human"),
            Err(ModelError::IsaCycle(_))
        ));
    }

    #[test]
    fn unknown_links_rejected() {
        let mut s = university();
        assert!(s.add_isa("ghost", "human").is_err());
        assert!(s.add_isa("human", "ghost").is_err());
    }

    #[test]
    fn duplicate_class_rejected() {
        let mut s = university();
        let ty = ClassType::new();
        assert!(s.add_class(Class::new("human", ty)).is_err());
    }

    #[test]
    fn validate_catches_dangling_agg_range() {
        let mut s = Schema::new("S");
        let mut ty = ClassType::new();
        ty.push_aggregation(AggDef::new(
            "works_in",
            "Dept",
            crate::cardinality::Cardinality::M_ONE,
        ))
        .unwrap();
        s.add_class(Class::new("Empl", ty)).unwrap();
        assert!(matches!(s.validate(), Err(ModelError::UnknownClass(_))));
    }

    #[test]
    fn inherited_attributes() {
        let mut s = Schema::new("S");
        let mut base = ClassType::new();
        base.push_attribute(AttrDef::new("name", AttrType::Str))
            .unwrap();
        s.add_class(Class::new("person", base)).unwrap();
        let mut sub = ClassType::new();
        sub.push_attribute(AttrDef::new("salary", AttrType::Int))
            .unwrap();
        s.add_class(Class::new("employee", sub)).unwrap();
        s.add_isa("employee", "person").unwrap();
        let attrs = s.all_attributes(&"employee".into());
        let names: Vec<_> = attrs.iter().map(|a| a.name.as_str()).collect();
        assert_eq!(names, vec!["salary", "name"]);
    }

    #[test]
    fn override_shadows_inherited() {
        let mut s = Schema::new("S");
        let mut base = ClassType::new();
        base.push_attribute(AttrDef::new("id", AttrType::Str))
            .unwrap();
        s.add_class(Class::new("a", base)).unwrap();
        let mut sub = ClassType::new();
        sub.push_attribute(AttrDef::new("id", AttrType::Int))
            .unwrap();
        s.add_class(Class::new("b", sub)).unwrap();
        s.add_isa("b", "a").unwrap();
        let attrs = s.all_attributes(&"b".into());
        assert_eq!(attrs.len(), 1);
        assert_eq!(attrs[0].ty, AttrType::Int); // closest definition wins
    }

    #[test]
    fn display_lists_classes_and_links() {
        let s = university();
        let d = s.to_string();
        assert!(d.contains("class professor"));
        assert!(d.contains("is_a(student, human)"));
    }
}
