//! The [`Integrator`]: shared state and finalisation for both integration
//! algorithms.
//!
//! `naive_schema_integration` and `schema_integration` differ **only** in
//! how they traverse the two schema graphs and which pairs they check; the
//! actual integration work — merging, rule generation, link insertion,
//! default copying — is identical and lives here. During traversal the
//! algorithms record *pending* operations; [`Integrator::finalize`] then
//! applies the principles in dependency order:
//!
//! 1. copy every class without an equivalence merge (default strategy 1);
//! 2. intersections → virtual classes + rules (Principle 3);
//! 3. disjoints → complement rules (Principle 4);
//! 4. derivations → assertion graphs + derivation rules (Principle 5);
//! 5. is-a links: local links mapped through `IS(·)`, plus the links the
//!    inclusion principle generated, then redundant-link removal
//!    (Principles 2 and 6, §6.2);
//! 6. aggregation ranges resolved through `IS(·)`.

use crate::graph::{ClassId, SchemaGraph};
use crate::integrated::{AttrOrigin, ISAgg, ISClass, IntegratedSchema, SourceAttr, SourceRef};
use crate::principles;
use crate::relation_table::RelationTable;
use crate::stats::IntegrationStats;
use crate::trace::TraceEvent;
use crate::{IntegrationError, Result};
use assertions::{AssertionSet, PairRelation};
use oo_model::{Class, ClassIds, IdHash, Schema};
use std::collections::{BTreeSet, HashSet};

/// Marks a source slot that no integrated class represents yet.
const NONE: u32 = u32::MAX;

/// Shared integration state for one run over two schemas.
///
/// Source classes are kept as *slots*: S1 class `c` is slot `c`, S2 class
/// `c` is slot `|S1| + c` (class ids as in [`ClassIds`]). `IS(·)` is a
/// vector from slot to the integrated class's position in the output, so
/// the run never looks a class up by name; names are resolved when the
/// output is written.
pub struct Integrator<'a> {
    pub s1: &'a Schema,
    pub s2: &'a Schema,
    pub assertions: &'a AssertionSet,
    pub output: IntegratedSchema,
    pub stats: IntegrationStats,
    pub trace: Vec<TraceEvent>,
    /// Trace collection is optional; benchmarks turn it off.
    pub collect_trace: bool,
    /// "Something is strange" notifications (§6.1 observation 3): declared
    /// assertions the optimized traversal decided to ignore; the paper asks
    /// the user whether the assertion is correct or a mistake.
    pub warnings: Vec<String>,
    ids1: ClassIds<'a>,
    ids2: ClassIds<'a>,
    /// Each schema's classes by id.
    classes1: Vec<&'a Class>,
    classes2: Vec<&'a Class>,
    /// When both schemas carry the same name, `IS(·)`'s (schema, class)
    /// keys of an S2 class and the S1 class of the same name coincide: per
    /// S2 class, its slot (the S1 class's where there is one).
    alias2: Option<Vec<u32>>,
    /// `IS(·)` by slot: the integrated class's position, or `NONE`.
    is_of: Vec<u32>,
    /// Slots already merged by an equivalence, to avoid double-merging.
    merged: BitSet,
    /// `is_a(IS(sub), IS(sup))` links requested by the inclusion
    /// principle, by slot.
    pending_isa: Vec<(u32, u32)>,
    /// Assertion ids pending Principle 3 / 4 / 5 treatment.
    pending_intersections: BTreeSet<usize>,
    pending_disjoints: BTreeSet<usize>,
    pending_derivations: BTreeSet<usize>,
    /// The run's assertion consultations, keyed by (S1, S2) class ids.
    pub(crate) table: RelationTable,
    /// Pairs already counted as a check: a pair examined during the
    /// depth-first phase is never *counted* again when the breadth-first
    /// phase reaches it (each unique pair costs one check).
    counted: HashSet<(ClassId, ClassId), IdHash>,
}

/// A fixed-size set of slots.
struct BitSet(Vec<u64>);

impl BitSet {
    fn new(n: usize) -> Self {
        BitSet(vec![0; n.div_ceil(64)])
    }

    fn insert(&mut self, i: u32) {
        self.0[i as usize / 64] |= 1 << (i % 64);
    }

    fn contains(&self, i: u32) -> bool {
        self.0[i as usize / 64] & (1 << (i % 64)) != 0
    }
}

impl<'a> Integrator<'a> {
    /// A run over the schemas of `g1` (S1) and `g2` (S2).
    pub fn new(g1: &SchemaGraph<'a>, g2: &SchemaGraph<'a>, assertions: &'a AssertionSet) -> Self {
        let (ids1, ids2) = (g1.ids().clone(), g2.ids().clone());
        let slots = ids1.len() + ids2.len();
        let alias2 = (g1.schema.name == g2.schema.name).then(|| {
            (0..ids2.len() as ClassId)
                .map(|c| {
                    let name = ids2.name(c).unwrap_or_default();
                    ids1.id(name).unwrap_or(ids1.len() as u32 + c)
                })
                .collect()
        });
        let mut output = IntegratedSchema::new();
        output.reserve(slots);
        Integrator {
            s1: g1.schema,
            s2: g2.schema,
            assertions,
            table: RelationTable::new(g1, g2, assertions),
            output,
            stats: IntegrationStats::new(),
            trace: Vec::new(),
            collect_trace: true,
            warnings: Vec::new(),
            ids1,
            ids2,
            classes1: g1.schema.classes().collect(),
            classes2: g2.schema.classes().collect(),
            alias2,
            is_of: vec![NONE; slots],
            merged: BitSet::new(slots),
            pending_isa: Vec::new(),
            pending_intersections: BTreeSet::new(),
            pending_disjoints: BTreeSet::new(),
            pending_derivations: BTreeSet::new(),
            counted: HashSet::default(),
        }
    }

    /// Record a trace event; `event` runs only when the trace is collected,
    /// so an untraced run builds none of its strings.
    pub fn push_trace(&mut self, event: impl FnOnce() -> TraceEvent) {
        if self.collect_trace {
            self.trace.push(event());
        }
    }

    /// The `N₁ θ N₂` consultation for S1 class `x` and S2 class `y`. Counts
    /// a relation lookup but not a check — callers count checks according
    /// to which phase (BFS/DFS) they are in.
    pub fn relation(&mut self, x: ClassId, y: ClassId) -> PairRelation {
        self.stats.relation_lookups += 1;
        self.table.get(x, y)
    }

    /// Memoised consultation: counts one check (BFS or DFS according to
    /// `dfs`) on the first examination of the pair; later examinations are
    /// free (the relation is already known).
    pub fn relation_counted(&mut self, x: ClassId, y: ClassId, dfs: bool) -> PairRelation {
        let rel = self.relation(x, y);
        if self.counted.insert((x, y)) {
            if dfs {
                self.stats.dfs_checks += 1;
            } else {
                self.stats.pairs_checked += 1;
            }
        }
        rel
    }

    /// The slot of S1 class `c`.
    pub(crate) fn slot1(&self, c: ClassId) -> u32 {
        c
    }

    /// The slot of S2 class `c`.
    pub(crate) fn slot2(&self, c: ClassId) -> u32 {
        match &self.alias2 {
            Some(alias) => alias[c as usize],
            None => self.ids1.len() as u32 + c,
        }
    }

    /// The slot of `class` in the schema named `schema`.
    fn slot_of(&self, schema: &str, class: &str) -> Option<u32> {
        if schema == self.s1.name.as_str() {
            if let Some(c) = self.ids1.id(class) {
                return Some(self.slot1(c));
            }
        }
        if schema == self.s2.name.as_str() {
            return self.ids2.id(class).map(|c| self.slot2(c));
        }
        None
    }

    /// The (schema, class) names of a slot.
    fn source_of(&self, slot: u32) -> (&'a str, &'a str) {
        let n1 = self.ids1.len() as u32;
        match slot < n1 {
            true => (
                self.s1.name.as_str(),
                self.ids1.name(slot).unwrap_or_default(),
            ),
            false => (
                self.s2.name.as_str(),
                self.ids2.name(slot - n1).unwrap_or_default(),
            ),
        }
    }

    /// `schema.class_named(name)`, by id for the two input schemas.
    pub(crate) fn class_in(&self, schema: &'a Schema, name: &str) -> Option<&'a Class> {
        let (ids, classes) = if std::ptr::eq(schema, self.s1) {
            (&self.ids1, &self.classes1)
        } else if std::ptr::eq(schema, self.s2) {
            (&self.ids2, &self.classes2)
        } else {
            return schema.class_named(name);
        };
        ids.id(name).map(|c| classes[c as usize])
    }

    /// The class names of S1 class `x` and S2 class `y`.
    pub(crate) fn names(&self, x: ClassId, y: ClassId) -> (&'a str, &'a str) {
        (
            self.ids1.name(x).unwrap_or_default(),
            self.ids2.name(y).unwrap_or_default(),
        )
    }

    /// The transitive superclasses of `class`, a class of S1 (`left`) or
    /// of S2, as slots in name order.
    pub(crate) fn ancestor_slots(&self, left: bool, class: &str) -> Vec<u32> {
        let ids = if left { &self.ids1 } else { &self.ids2 };
        let Some(c) = ids.id(class) else {
            return Vec::new();
        };
        let mut seen = vec![false; ids.len()];
        let mut stack = vec![c];
        let mut out = Vec::new();
        while let Some(n) = stack.pop() {
            for &p in ids.parents(n) {
                if !seen[p as usize] {
                    seen[p as usize] = true;
                    out.push(p);
                    stack.push(p);
                }
            }
        }
        out.sort_unstable();
        out.into_iter()
            .map(|p| if left { self.slot1(p) } else { self.slot2(p) })
            .collect()
    }

    /// `IS(·)` of a slot: the integrated class's position.
    pub(crate) fn is_at(&self, slot: u32) -> Option<u32> {
        let at = self.is_of[slot as usize];
        (at != NONE).then_some(at)
    }

    /// Has this source class already been merged into an integrated class?
    pub fn is_merged(&self, src: &SourceRef) -> bool {
        self.slot_of(&src.schema, &src.class)
            .is_some_and(|slot| self.merged.contains(slot))
    }

    /// Apply Principle 1 to the assertion (must be an equivalence):
    /// `merging(N₁, N₂)`. Returns the integrated class name. Idempotent
    /// per assertion.
    pub fn merge_equivalent(&mut self, assertion_id: usize) -> Result<String> {
        let at = self.merge_equivalent_at(assertion_id)?;
        Ok(self.output.name_at(at).to_string())
    }

    /// [`Integrator::merge_equivalent`], returning the integrated class's
    /// position.
    pub(crate) fn merge_equivalent_at(&mut self, assertion_id: usize) -> Result<u32> {
        let set: &'a AssertionSet = self.assertions;
        let a = set
            .get(assertion_id)
            .ok_or_else(|| IntegrationError::Internal("bad assertion id".into()))?;
        let left = self.slot_of(&a.left_schema, a.left_class());
        let right = self.slot_of(&a.right_schema, &a.right_class);
        let left_is = left.and_then(|s| self.is_at(s));
        let right_is = right.and_then(|s| self.is_at(s));
        let at = match (left_is, right_is) {
            (Some(l), Some(r)) => {
                if l != r {
                    // Conflicting equivalence chains: both sides already
                    // live in different integrated classes. Keep them and
                    // surface the conflict.
                    let (l, r) = (self.output.name_at(l), self.output.name_at(r));
                    self.warnings.push(format!(
                        "equivalence `{a}` ignored: both sides are already integrated \
                         into distinct classes `{l}` and `{r}`"
                    ));
                }
                return Ok(l);
            }
            // Equivalence chain: one side already merged — absorb the
            // other into the existing class.
            (Some(l), None) => {
                principles::equivalence::absorb(self, a, l, false)?;
                l
            }
            (None, Some(r)) => {
                principles::equivalence::absorb(self, a, r, true)?;
                r
            }
            (None, None) => principles::equivalence::merge(self, a)?,
        };
        // Both classes exist: a missing one fails to merge above.
        for slot in [left, right].into_iter().flatten() {
            self.is_of[slot as usize] = at;
            self.merged.insert(slot);
        }
        self.stats.classes_merged += 1;
        if self.collect_trace {
            self.trace.push(TraceEvent::Merged {
                left: format!("{}•{}", a.left_schema, a.left_class()),
                right: format!("{}•{}", a.right_schema, a.right_class),
                name: self.output.name_at(at).to_string(),
            });
        }
        Ok(at)
    }

    /// Record an inclusion-generated link `is_a(IS(sub), IS(sup))` between
    /// two slots (Principle 2); applied at finalisation when all classes
    /// exist.
    pub(crate) fn note_inclusion(&mut self, sub: u32, sup: u32) {
        self.pending_isa.push((sub, sup));
    }

    pub fn note_intersection(&mut self, assertion_id: usize) {
        self.pending_intersections.insert(assertion_id);
    }

    pub fn note_disjoint(&mut self, assertion_id: usize) {
        self.pending_disjoints.insert(assertion_id);
    }

    pub fn note_derivation(&mut self, assertion_id: usize) {
        self.pending_derivations.insert(assertion_id);
    }

    /// Default strategy 1 (§5): copy a class with no equivalence assertion
    /// into the integrated schema verbatim.
    fn copy_class(&mut self, schema: &Schema, class: &Class, slot: u32) {
        if self.is_at(slot).is_some() {
            return;
        }
        let src = SourceRef::new(schema.name.as_str(), class.name.as_str());
        let name = self.output.fresh_name(class.name.as_str());
        let mut is_class = ISClass::new(name);
        for attr in &class.ty.attributes {
            is_class.attrs.push(attr.clone());
            is_class.attr_origins.insert(
                attr.name.clone(),
                AttrOrigin::Copied(SourceAttr::new(
                    src.schema.clone(),
                    src.class.clone(),
                    attr.name.clone(),
                )),
            );
        }
        for agg in &class.ty.aggregations {
            is_class.aggs.push(ISAgg {
                name: agg.name.clone(),
                range_source: SourceRef::new(src.schema.clone(), agg.range.as_str()),
                range: None,
                cc: agg.cc,
            });
        }
        is_class.sources.push(src);
        let at = self.output.insert_class_at(is_class);
        self.is_of[slot as usize] = at;
        self.stats.classes_copied += 1;
        if self.collect_trace {
            let class = self.output.class_at(at);
            self.trace.push(TraceEvent::Copied {
                source: class.sources[0].to_string(),
                name: class.name.clone(),
            });
        }
    }

    /// The is-a links finalisation inserts, between integrated class
    /// positions, in request order: the local links of S1, then of S2,
    /// mapped through `IS(·)`, then the inclusion principle's requests in
    /// order of their source names. Links inside one class are dropped.
    pub(crate) fn requested_links(&self) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        let mut request = |sub: u32, sup: u32| {
            if let (Some(a), Some(b)) = (self.is_at(sub), self.is_at(sup)) {
                if a != b {
                    out.push((a, b));
                }
            }
        };
        for c in 0..self.ids1.len() as ClassId {
            for &p in self.ids1.parents(c) {
                request(self.slot1(c), self.slot1(p));
            }
        }
        for c in 0..self.ids2.len() as ClassId {
            for &p in self.ids2.parents(c) {
                request(self.slot2(c), self.slot2(p));
            }
        }
        let mut pending = self.pending_isa.clone();
        pending.sort_by(|x, y| {
            let key = |&(sub, sup): &(u32, u32)| (self.source_of(sub), self.source_of(sup));
            key(x).cmp(&key(y))
        });
        pending.dedup();
        for (sub, sup) in pending {
            request(sub, sup);
        }
        out
    }

    /// Finalise the integrated schema (see module docs for the order).
    pub fn finalize(&mut self) -> Result<()> {
        // 1. defaults: copy everything not merged.
        let (s1, s2) = (self.s1, self.s2);
        for c in 0..self.classes1.len() as ClassId {
            self.copy_class(s1, self.classes1[c as usize], self.slot1(c));
        }
        for c in 0..self.classes2.len() as ClassId {
            self.copy_class(s2, self.classes2[c as usize], self.slot2(c));
        }
        // 2. intersections (Principle 3).
        for id in std::mem::take(&mut self.pending_intersections) {
            principles::intersection::apply(self, id)?;
        }
        // 3. disjoints (Principle 4).
        let disjoints = std::mem::take(&mut self.pending_disjoints);
        principles::disjoint::apply_all(self, &disjoints)?;
        // 4. derivations (Principle 5).
        for id in std::mem::take(&mut self.pending_derivations) {
            principles::derivation::apply(self, id)?;
        }
        // 5. is-a links (Principles 2 and 6, §6.2).
        principles::links::integrate_links(self)?;
        // 6. aggregation ranges through IS(·).
        self.output.resolve_agg_ranges();
        Ok(())
    }
}
