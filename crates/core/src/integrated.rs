//! The integrated schema: the output of the integration process.
//!
//! An integrated schema holds three kinds of classes:
//!
//! * **merged** classes produced by Principle 1 from equivalent pairs;
//! * **copied** classes for concepts with no equivalence assertion
//!   (default strategy 1 of §5);
//! * **virtual** classes (`IS_AB`, `IS_A−`, `IS_B−`, derivation targets)
//!   defined only by rules, referenced "by computing the body classes of
//!   the rules defining them" (Principle 3).
//!
//! Every integrated attribute records its [`AttrOrigin`] — how its values
//! are computed from component attributes (union, AIF, concatenation, …) —
//! which is what the federation layer's query processor executes.

use deduction::Rule;
use oo_model::{AttrDef, Cardinality, IdHash};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;

/// A reference to a class in a component schema.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SourceRef {
    pub schema: String,
    pub class: String,
}

impl SourceRef {
    pub fn new(schema: impl Into<String>, class: impl Into<String>) -> Self {
        SourceRef {
            schema: schema.into(),
            class: class.into(),
        }
    }
}

impl fmt::Display for SourceRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}•{}", self.schema, self.class)
    }
}

/// A reference to an attribute of a component class.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SourceAttr {
    pub schema: String,
    pub class: String,
    pub attr: String,
}

impl SourceAttr {
    pub fn new(
        schema: impl Into<String>,
        class: impl Into<String>,
        attr: impl Into<String>,
    ) -> Self {
        SourceAttr {
            schema: schema.into(),
            class: class.into(),
            attr: attr.into(),
        }
    }
}

impl fmt::Display for SourceAttr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}•{}•{}", self.schema, self.class, self.attr)
    }
}

/// The attribute-integration function of Principle 3 (`AIF`), by kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AifKind {
    /// Numeric average `(x+y)/2` — the paper's `AIF_i_s_s` example.
    Average,
    /// Prefer the left source's value when both exist.
    LeftWins,
    /// A named custom function resolved by the federation's meta-class
    /// registry (the paper allows arbitrary user-supplied methods).
    Custom(String),
}

/// How an integrated attribute's values derive from component attributes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttrOrigin {
    /// Copied verbatim from one source attribute.
    Copied(SourceAttr),
    /// `≡ / ⊆ / ⊇` merge: `value_set = ⋃ value_set(sourceᵢ)`. Binary for a
    /// single pairwise step; n-ary after multi-schema integration flattens
    /// chains of merges.
    Union(Vec<SourceAttr>),
    /// Intersection `a_b`: values computed by an AIF over paired objects.
    IntersectionCommon(SourceAttr, SourceAttr, AifKind),
    /// Intersection `a_`: `value_set(a) / value_set(b)` (set difference).
    IntersectionLeftOnly(SourceAttr, SourceAttr),
    /// Intersection `b_`: `value_set(b) / value_set(a)`.
    IntersectionRightOnly(SourceAttr, SourceAttr),
    /// `α(z)`: concatenation of the two sources (Null unless data mappings
    /// pair the owning objects).
    Concat(SourceAttr, SourceAttr),
    /// `β`: the more specific source wins; the other is dropped.
    MoreSpecific(SourceAttr),
}

impl AttrOrigin {
    /// The component attributes feeding this integrated attribute.
    pub fn sources(&self) -> Vec<&SourceAttr> {
        match self {
            AttrOrigin::Copied(a) | AttrOrigin::MoreSpecific(a) => vec![a],
            AttrOrigin::Union(list) => list.iter().collect(),
            AttrOrigin::IntersectionCommon(a, b, _)
            | AttrOrigin::IntersectionLeftOnly(a, b)
            | AttrOrigin::IntersectionRightOnly(a, b)
            | AttrOrigin::Concat(a, b) => vec![a, b],
        }
    }
}

/// An integrated aggregation function; the range is kept as a source
/// reference until [`IntegratedSchema::resolve_agg_ranges`] maps it through
/// `IS(·)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ISAgg {
    pub name: String,
    pub range_source: SourceRef,
    /// The integrated range-class name, filled in during finalisation.
    pub range: Option<String>,
    pub cc: Cardinality,
}

/// One class of the integrated schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ISClass {
    pub name: String,
    pub attrs: Vec<AttrDef>,
    pub aggs: Vec<ISAgg>,
    /// Virtual classes are defined by rules only (Principles 3–5).
    pub virtual_class: bool,
    /// Component classes this integrated class represents.
    pub sources: Vec<SourceRef>,
    /// Per-attribute derivation recipe.
    pub attr_origins: BTreeMap<String, AttrOrigin>,
}

impl ISClass {
    pub fn new(name: impl Into<String>) -> Self {
        ISClass {
            name: name.into(),
            attrs: Vec::new(),
            aggs: Vec::new(),
            virtual_class: false,
            sources: Vec::new(),
            attr_origins: BTreeMap::new(),
        }
    }

    pub fn attribute(&self, name: &str) -> Option<&AttrDef> {
        self.attrs.iter().find(|a| a.name == name)
    }

    pub fn aggregation(&self, name: &str) -> Option<&ISAgg> {
        self.aggs.iter().find(|a| a.name == name)
    }

    /// Paper-style type display:
    /// `<ssn#: string, name: string, interests: {string}, address: string>`.
    pub fn type_display(&self) -> String {
        let mut parts: Vec<String> = self
            .attrs
            .iter()
            .map(|a| format!("{}: {}", a.name, a.ty))
            .collect();
        for g in &self.aggs {
            let range = g
                .range
                .clone()
                .unwrap_or_else(|| g.range_source.to_string());
            parts.push(format!("{}: {} with {}", g.name, range, g.cc));
        }
        format!("<{}>", parts.join(", "))
    }
}

/// The integrated schema `S`.
#[derive(Debug, Clone, Default)]
pub struct IntegratedSchema {
    /// Classes in insertion order, for deterministic displays.
    classes: Vec<ISClass>,
    /// Class name → position in `classes`.
    index: HashMap<String, u32, IdHash>,
    /// is-a links `(sub, super)` between integrated class names.
    isa: BTreeSet<(String, String)>,
    /// Derivation rules attached to the schema (Principles 3–5).
    pub rules: Vec<Rule>,
    /// `IS(·)`: schema → class → position of the integrated class.
    provenance: BTreeMap<String, HashMap<String, u32, IdHash>>,
}

impl IntegratedSchema {
    pub fn new() -> Self {
        IntegratedSchema::default()
    }

    /// Room for `classes` more classes.
    pub(crate) fn reserve(&mut self, classes: usize) {
        self.classes.reserve(classes);
        self.index.reserve(classes);
    }

    /// A class name not yet taken, derived from `base`.
    pub fn fresh_name(&self, base: &str) -> String {
        if !self.index.contains_key(base) {
            return base.to_string();
        }
        for i in 2.. {
            let candidate = format!("{base}_{i}");
            if !self.index.contains_key(&candidate) {
                return candidate;
            }
        }
        unreachable!()
    }

    /// Insert a class, registering provenance for each source; panics on
    /// duplicate names (callers use [`IntegratedSchema::fresh_name`]).
    pub fn insert_class(&mut self, class: ISClass) {
        self.insert_class_at(class);
    }

    /// [`IntegratedSchema::insert_class`], returning the class's position
    /// (its insertion rank).
    pub(crate) fn insert_class_at(&mut self, class: ISClass) -> u32 {
        assert!(
            !self.index.contains_key(&class.name),
            "duplicate integrated class `{}`",
            class.name
        );
        let at = self.classes.len() as u32;
        for src in &class.sources {
            self.set_provenance(&src.schema, &src.class, at);
        }
        self.index.insert(class.name.clone(), at);
        self.classes.push(class);
        at
    }

    /// Register `IS(schema•class)` as the class at position `at`.
    pub(crate) fn set_provenance(&mut self, schema: &str, class: &str, at: u32) {
        match self.provenance.get_mut(schema) {
            Some(classes) => {
                classes.insert(class.to_string(), at);
            }
            None => {
                let mut classes = HashMap::default();
                classes.insert(class.to_string(), at);
                self.provenance.insert(schema.to_string(), classes);
            }
        }
    }

    /// Register additional provenance: `class` of `schema` is represented
    /// by the existing integrated class `is_name` (used when an
    /// equivalence chain absorbs a class into an earlier merge). A name
    /// that is not a class of the schema registers nothing.
    pub fn add_provenance(&mut self, schema: &str, class: &str, is_name: &str) {
        if let Some(&at) = self.index.get(is_name) {
            self.set_provenance(schema, class, at);
        }
    }

    /// `IS(S•A)`: the integrated class representing `class` of `schema`.
    pub fn is(&self, schema: &str, class: &str) -> Option<&str> {
        let at = *self.provenance.get(schema)?.get(class)?;
        Some(self.name_at(at))
    }

    /// The name of the class at a position.
    pub(crate) fn name_at(&self, at: u32) -> &str {
        &self.classes[at as usize].name
    }

    pub(crate) fn class_at(&self, at: u32) -> &ISClass {
        &self.classes[at as usize]
    }

    pub(crate) fn class_at_mut(&mut self, at: u32) -> &mut ISClass {
        &mut self.classes[at as usize]
    }

    pub fn class(&self, name: &str) -> Option<&ISClass> {
        self.index.get(name).map(|&at| &self.classes[at as usize])
    }

    pub fn class_mut(&mut self, name: &str) -> Option<&mut ISClass> {
        let at = *self.index.get(name)?;
        Some(&mut self.classes[at as usize])
    }

    /// Classes in insertion order.
    pub fn classes(&self) -> impl Iterator<Item = &ISClass> {
        self.classes.iter()
    }

    /// Mutable access to every class (for post-processing passes such as
    /// the multi-step origin flattening in the federation layer).
    pub fn classes_mut(&mut self) -> impl Iterator<Item = &mut ISClass> {
        self.classes.iter_mut()
    }

    pub fn len(&self) -> usize {
        self.classes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// Insert `is_a(sub, super)`; returns false when already present.
    pub fn add_isa(&mut self, sub: impl Into<String>, sup: impl Into<String>) -> bool {
        self.isa.insert((sub.into(), sup.into()))
    }

    pub fn isa_links(&self) -> impl Iterator<Item = &(String, String)> {
        self.isa.iter()
    }

    pub fn has_isa(&self, sub: &str, sup: &str) -> bool {
        self.isa.contains(&(sub.to_string(), sup.to_string()))
    }

    /// Is there a directed is-a path `sub → … → sup` (length ≥ 1)?
    pub fn has_isa_path(&self, sub: &str, sup: &str) -> bool {
        let mut stack = vec![sub];
        let mut seen = BTreeSet::new();
        while let Some(n) = stack.pop() {
            // The links are sorted by sub class: `n`'s are one range.
            let from = (n.to_string(), String::new());
            for (_, p) in self.isa.range(from..).take_while(|(s, _)| s == n) {
                if p == sup {
                    return true;
                }
                if seen.insert(p.as_str()) {
                    stack.push(p);
                }
            }
        }
        false
    }

    /// Remove redundant is-a links (Principle 6 / §6.2, Fig. 12): an edge
    /// `(a, c)` is dropped when a longer path `a → … → c` exists. This is
    /// transitive reduction of the is-a DAG, computed on ids numbering the
    /// linked names in name order (see [`crate::reduction`]). Returns the
    /// removed links in name order.
    pub fn reduce_isa(&mut self) -> Vec<(String, String)> {
        let mut names: Vec<&str> = self
            .isa
            .iter()
            .flat_map(|(sub, sup)| [sub.as_str(), sup.as_str()])
            .collect();
        names.sort_unstable();
        names.dedup();
        let id = |name: &str| names.binary_search(&name).expect("linked name") as u32;
        // The set's order is name order, and so is the ids' order.
        let links: Vec<(u32, u32)> = self.isa.iter().map(|(a, b)| (id(a), id(b))).collect();
        let redundant = crate::reduction::redundant(names.len(), &links, Ord::cmp);
        let removed: Vec<(String, String)> = self
            .isa
            .iter()
            .zip(redundant)
            .filter(|&(_, r)| r)
            .map(|(link, _)| link.clone())
            .collect();
        for link in &removed {
            self.isa.remove(link);
        }
        removed
    }

    /// Replace the is-a links (the link pass of finalisation writes them
    /// once, after reducing them on ids).
    pub(crate) fn set_isa(&mut self, links: BTreeSet<(String, String)>) {
        self.isa = links;
    }

    pub fn add_rule(&mut self, rule: Rule) {
        self.rules.push(rule);
    }

    /// Convert the integrated schema into a plain [`oo_model::Schema`] so
    /// it can participate in a further integration step (the accumulation
    /// and balanced strategies of Fig. 2). Virtual classes are carried
    /// along as ordinary classes (their defining rules travel separately);
    /// aggregations with unresolved ranges are dropped.
    pub fn to_schema(&self, name: &str) -> Result<oo_model::Schema, oo_model::ModelError> {
        use oo_model::{Class, ClassType};
        let mut schema = oo_model::Schema::new(name);
        for c in self.classes() {
            let mut ty = ClassType::new();
            for a in &c.attrs {
                ty.push_attribute(a.clone())?;
            }
            for g in &c.aggs {
                if let Some(range) = &g.range {
                    if self.index.contains_key(range) {
                        ty.push_aggregation(oo_model::AggDef::new(
                            g.name.clone(),
                            range.as_str(),
                            g.cc,
                        ))?;
                    }
                }
            }
            schema.add_class(Class::new(c.name.as_str(), ty))?;
        }
        for (sub, sup) in &self.isa {
            schema.add_isa(sub.as_str(), sup.as_str())?;
        }
        schema.validate()?;
        Ok(schema)
    }

    /// Map each aggregation's range through `IS(·)` (finalisation step).
    pub fn resolve_agg_ranges(&mut self) {
        for at in 0..self.classes.len() {
            for g in 0..self.classes[at].aggs.len() {
                let agg = &self.classes[at].aggs[g];
                if agg.range.is_none() {
                    let src = &agg.range_source;
                    let range = self.is(&src.schema, &src.class).map(str::to_string);
                    self.classes[at].aggs[g].range = range;
                }
            }
        }
    }
}

impl fmt::Display for IntegratedSchema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "integrated schema {{")?;
        for class in self.classes() {
            let kind = if class.virtual_class { "virtual " } else { "" };
            writeln!(f, "  {}class {} {}", kind, class.name, class.type_display())?;
        }
        for (sub, sup) in &self.isa {
            writeln!(f, "  is_a({sub}, {sup})")?;
        }
        for rule in &self.rules {
            writeln!(f, "  rule {rule}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oo_model::AttrType;

    fn class(name: &str, sources: &[(&str, &str)]) -> ISClass {
        let mut c = ISClass::new(name);
        c.sources = sources
            .iter()
            .map(|(s, cl)| SourceRef::new(*s, *cl))
            .collect();
        c
    }

    #[test]
    fn provenance_lookup() {
        let mut is = IntegratedSchema::new();
        is.insert_class(class("person", &[("S1", "person"), ("S2", "human")]));
        assert_eq!(is.is("S1", "person"), Some("person"));
        assert_eq!(is.is("S2", "human"), Some("person"));
        assert_eq!(is.is("S2", "ghost"), None);
    }

    #[test]
    fn fresh_names_avoid_collisions() {
        let mut is = IntegratedSchema::new();
        is.insert_class(class("x", &[("S1", "x")]));
        assert_eq!(is.fresh_name("x"), "x_2");
        is.insert_class(class("x_2", &[("S2", "x")]));
        assert_eq!(is.fresh_name("x"), "x_3");
        assert_eq!(is.fresh_name("y"), "y");
    }

    #[test]
    fn isa_paths() {
        let mut is = IntegratedSchema::new();
        for n in ["a", "b", "c"] {
            is.insert_class(class(n, &[]));
        }
        is.add_isa("a", "b");
        is.add_isa("b", "c");
        assert!(is.has_isa_path("a", "c"));
        assert!(!is.has_isa_path("c", "a"));
    }

    #[test]
    fn transitive_reduction_removes_fig_12_redundancy() {
        // a → b → c plus the redundant direct a → c.
        let mut is = IntegratedSchema::new();
        for n in ["a", "b", "c"] {
            is.insert_class(class(n, &[]));
        }
        is.add_isa("a", "b");
        is.add_isa("b", "c");
        is.add_isa("a", "c");
        let removed = is.reduce_isa();
        assert_eq!(removed, vec![("a".to_string(), "c".to_string())]);
        assert_eq!(is.isa_links().count(), 2);
        assert!(is.has_isa_path("a", "c")); // still reachable
    }

    #[test]
    fn reduction_keeps_non_redundant_links() {
        let mut is = IntegratedSchema::new();
        for n in ["a", "b", "c"] {
            is.insert_class(class(n, &[]));
        }
        is.add_isa("a", "b");
        is.add_isa("a", "c");
        assert!(is.reduce_isa().is_empty());
        assert_eq!(is.isa_links().count(), 2);
    }

    /// Transitive reduction as it was before ids: remove each link in
    /// name order, keep it unless a string-keyed walk finds another path.
    fn reduce_by_string_paths(is: &mut IntegratedSchema) -> Vec<(String, String)> {
        let links: Vec<(String, String)> = is.isa.iter().cloned().collect();
        let mut removed = Vec::new();
        for edge in links {
            is.isa.remove(&edge);
            if !is.has_isa_path(&edge.0, &edge.1) {
                is.isa.insert(edge);
            } else {
                removed.push(edge);
            }
        }
        removed
    }

    /// The id reduction removes the links the sequential string removal
    /// removes, in the same order, and leaves the same set: on random
    /// DAGs (links point from a later to an earlier name) and on random
    /// graphs that may have cycles.
    #[test]
    fn id_reduction_matches_the_string_removal() {
        let mut state = 0x1405_7b7e_f767_814fu64;
        let mut draw = |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        let (mut dag_removals, mut cyclic) = (0, 0);
        for case in 0..4000 {
            let n = 2 + draw(10);
            let mut is = IntegratedSchema::new();
            for _ in 0..draw(3 * n) {
                let (a, b) = (draw(n), draw(n));
                let acyclic = case % 2 == 0;
                if a != b && (!acyclic || a > b) {
                    is.add_isa(format!("n{a:02}"), format!("n{b:02}"));
                }
            }
            let mut oracle = is.clone();
            let want = reduce_by_string_paths(&mut oracle);
            let got = is.reduce_isa();
            assert_eq!(got, want, "case {case}");
            assert_eq!(is.isa, oracle.isa, "case {case}");
            let has_cycle = is.isa.iter().any(|(a, _)| is.has_isa_path(a, a));
            cyclic += has_cycle as usize;
            if !has_cycle {
                dag_removals += got.len();
            }
        }
        assert!(
            cyclic > 200 && dag_removals > 500,
            "{cyclic} {dag_removals}"
        );
    }

    #[test]
    fn type_display() {
        let mut c = ISClass::new("person");
        c.attrs.push(AttrDef::new("ssn#", AttrType::Str));
        c.attrs.push(AttrDef::new(
            "interests",
            AttrType::Set(Box::new(AttrType::Str)),
        ));
        c.aggs.push(ISAgg {
            name: "work_in".into(),
            range_source: SourceRef::new("S1", "dept"),
            range: Some("dept".into()),
            cc: Cardinality::M_ONE,
        });
        assert_eq!(
            c.type_display(),
            "<ssn#: string, interests: {string}, work_in: dept with [m:1]>"
        );
    }

    #[test]
    #[should_panic(expected = "duplicate integrated class")]
    fn duplicate_insert_panics() {
        let mut is = IntegratedSchema::new();
        is.insert_class(class("x", &[]));
        is.insert_class(class("x", &[]));
    }

    #[test]
    fn attr_origin_sources() {
        let a = SourceAttr::new("S1", "c", "x");
        let b = SourceAttr::new("S2", "d", "y");
        assert_eq!(AttrOrigin::Copied(a.clone()).sources().len(), 1);
        assert_eq!(
            AttrOrigin::Union(vec![a.clone(), b.clone()])
                .sources()
                .len(),
            2
        );
        assert_eq!(
            AttrOrigin::IntersectionCommon(a, b, AifKind::Average)
                .sources()
                .len(),
            2
        );
    }
}
