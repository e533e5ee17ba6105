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
use crate::integrated::{ISClass, IntegratedSchema, SourceRef};
use crate::principles;
use crate::relation_table::RelationTable;
use crate::stats::IntegrationStats;
use crate::trace::TraceEvent;
use crate::{IntegrationError, Result};
use assertions::{AssertionSet, PairRelation};
use oo_model::Schema;
use std::collections::{BTreeSet, HashSet};

/// Shared integration state for one run over two schemas.
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
    /// `is_a(IS(sub), IS(sup))` links requested by the inclusion principle.
    pending_isa: BTreeSet<(SourceRef, SourceRef)>,
    /// Assertion ids pending Principle 3 / 4 / 5 treatment.
    pending_intersections: BTreeSet<usize>,
    pending_disjoints: BTreeSet<usize>,
    pending_derivations: BTreeSet<usize>,
    /// Classes already merged (by source), to avoid double-merging.
    merged: BTreeSet<SourceRef>,
    /// The run's assertion consultations, keyed by (S1, S2) class ids.
    pub(crate) table: RelationTable,
    /// Pairs already counted as a check: a pair examined during the
    /// depth-first phase is never *counted* again when the breadth-first
    /// phase reaches it (each unique pair costs one check).
    counted: HashSet<(ClassId, ClassId)>,
}

impl<'a> Integrator<'a> {
    /// A run over the schemas of `g1` (S1) and `g2` (S2).
    pub fn new(g1: &SchemaGraph<'a>, g2: &SchemaGraph<'a>, assertions: &'a AssertionSet) -> Self {
        Integrator {
            s1: g1.schema,
            s2: g2.schema,
            assertions,
            table: RelationTable::new(g1, g2, assertions),
            output: IntegratedSchema::new(),
            stats: IntegrationStats::new(),
            trace: Vec::new(),
            collect_trace: true,
            warnings: Vec::new(),
            pending_isa: BTreeSet::new(),
            pending_intersections: BTreeSet::new(),
            pending_disjoints: BTreeSet::new(),
            pending_derivations: BTreeSet::new(),
            merged: BTreeSet::new(),
            counted: HashSet::new(),
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

    /// Has this source class already been merged into an integrated class?
    pub fn is_merged(&self, src: &SourceRef) -> bool {
        self.merged.contains(src)
    }

    /// Apply Principle 1 to the assertion (must be an equivalence):
    /// `merging(N₁, N₂)`. Returns the integrated class name. Idempotent
    /// per assertion.
    pub fn merge_equivalent(&mut self, assertion_id: usize) -> Result<String> {
        let a = self
            .assertions
            .get(assertion_id)
            .ok_or_else(|| IntegrationError::Internal("bad assertion id".into()))?
            .clone();
        let left_src = SourceRef::new(a.left_schema.clone(), a.left_class());
        let right_src = SourceRef::new(a.right_schema.clone(), a.right_class.clone());
        let left_is = self
            .output
            .is(&left_src.schema, &left_src.class)
            .map(str::to_string);
        let right_is = self
            .output
            .is(&right_src.schema, &right_src.class)
            .map(str::to_string);
        let name = match (left_is, right_is) {
            (Some(l), Some(r)) => {
                if l != r {
                    // Conflicting equivalence chains: both sides already
                    // live in different integrated classes. Keep them and
                    // surface the conflict.
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
                principles::equivalence::absorb(self, &a, &l, false)?;
                l
            }
            (None, Some(r)) => {
                principles::equivalence::absorb(self, &a, &r, true)?;
                r
            }
            (None, None) => principles::equivalence::merge(self, &a)?,
        };
        self.merged.insert(left_src.clone());
        self.merged.insert(right_src.clone());
        self.stats.classes_merged += 1;
        self.push_trace(|| TraceEvent::Merged {
            left: left_src.to_string(),
            right: right_src.to_string(),
            name: name.clone(),
        });
        Ok(name)
    }

    /// Record an inclusion-generated link `is_a(IS(sub), IS(sup))`
    /// (Principle 2); applied at finalisation when all classes exist.
    pub fn note_inclusion(&mut self, sub: SourceRef, sup: SourceRef) {
        self.pending_isa.insert((sub, sup));
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
    fn copy_class(&mut self, schema: &Schema, class_name: &str) -> Result<()> {
        let src = SourceRef::new(schema.name.as_str(), class_name);
        if self.merged.contains(&src) || self.output.is(&src.schema, &src.class).is_some() {
            return Ok(());
        }
        let class = schema
            .class_named(class_name)
            .ok_or_else(|| IntegrationError::Internal(format!("missing class {class_name}")))?;
        let name = self.output.fresh_name(class_name);
        let mut is_class = ISClass::new(name.clone());
        is_class.sources.push(src.clone());
        for attr in &class.ty.attributes {
            is_class.attrs.push(attr.clone());
            is_class.attr_origins.insert(
                attr.name.clone(),
                crate::integrated::AttrOrigin::Copied(crate::integrated::SourceAttr::new(
                    src.schema.clone(),
                    src.class.clone(),
                    attr.name.clone(),
                )),
            );
        }
        for agg in &class.ty.aggregations {
            is_class.aggs.push(crate::integrated::ISAgg {
                name: agg.name.clone(),
                range_source: SourceRef::new(src.schema.clone(), agg.range.as_str()),
                range: None,
                cc: agg.cc,
            });
        }
        self.output.insert_class(is_class);
        self.stats.classes_copied += 1;
        self.push_trace(|| TraceEvent::Copied {
            source: src.to_string(),
            name,
        });
        Ok(())
    }

    /// Finalise the integrated schema (see module docs for the order).
    pub fn finalize(&mut self) -> Result<()> {
        // 1. defaults: copy everything not merged.
        let s1_classes: Vec<String> = self
            .s1
            .class_names()
            .map(|c| c.as_str().to_string())
            .collect();
        let s2_classes: Vec<String> = self
            .s2
            .class_names()
            .map(|c| c.as_str().to_string())
            .collect();
        for c in &s1_classes {
            self.copy_class(self.s1, c)?;
        }
        for c in &s2_classes {
            self.copy_class(self.s2, c)?;
        }
        // 2. intersections (Principle 3).
        for id in self.pending_intersections.clone() {
            principles::intersection::apply(self, id)?;
        }
        // 3. disjoints (Principle 4).
        principles::disjoint::apply_all(self, &self.pending_disjoints.clone())?;
        // 4. derivations (Principle 5).
        for id in self.pending_derivations.clone() {
            principles::derivation::apply(self, id)?;
        }
        // 5. is-a links (Principles 2 and 6, §6.2).
        principles::links::integrate_links(self, &self.pending_isa.clone())?;
        // 6. aggregation ranges through IS(·).
        self.output.resolve_agg_ranges();
        Ok(())
    }
}
