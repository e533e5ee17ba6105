//! Instrumented accounting for the integration algorithms.
//!
//! §6.3's claim — the optimized algorithm checks Ω_h = O(n) pairs on
//! average against the naive algorithm's > O(n²) — is a claim about *pair
//! checks*, so the counters live in the engine itself and every experiment
//! reads them from here.

use std::fmt;
use std::ops::AddAssign;

// Rule-evaluation counters (fired rules, delta skips, index probes, extent
// scans) live next to the engine in `deduction`; re-exported here so
// experiments read every counter through one stats module.
pub use deduction::{EvalStats, EvalStrategy};

/// Counters collected during one integration run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IntegrationStats {
    /// Pairs popped from the breadth-first queue and actually checked
    /// against the assertion set.
    pub pairs_checked: u64,
    /// Pairs popped but skipped thanks to label pruning (line 7 / lines
    /// 34-35 of `schema_integration`).
    pub pairs_skipped_by_labels: u64,
    /// Pairs removed from the queue by the equivalence sibling rule
    /// (line 10).
    pub pairs_removed_as_siblings: u64,
    /// Pairs enqueued in total.
    pub pairs_enqueued: u64,
    /// Assertion-set consultations during depth-first `path_labelling`.
    pub dfs_checks: u64,
    /// Every relation lookup, memoised or not: each pair consultation, and
    /// each table row the prune warnings and the hidden-assertion search
    /// read. The work measure that grows with the traversal's real cost,
    /// where `total_checks` counts each unique pair once.
    pub relation_lookups: u64,
    /// Labels allocated by `path_labelling`.
    pub labels_created: u64,
    /// Nodes that received a label.
    pub nodes_labelled: u64,
    /// Classes merged by equivalence (Principle 1).
    pub classes_merged: u64,
    /// Classes copied by default strategy 1.
    pub classes_copied: u64,
    /// Virtual classes created (Principles 3–5).
    pub virtual_classes: u64,
    /// Rules generated (Principles 3–5).
    pub rules_generated: u64,
    /// is-a links inserted (before reduction).
    pub isa_links_inserted: u64,
    /// is-a links removed as redundant (Principle 6 / §6.2).
    pub isa_links_removed: u64,
}

impl IntegrationStats {
    pub fn new() -> Self {
        IntegrationStats::default()
    }

    /// Total assertion-set consultations: the cost measure of §6.3.
    pub fn total_checks(&self) -> u64 {
        self.pairs_checked + self.dfs_checks
    }

    /// Publish this run's counters onto the global metrics registry
    /// (`fedoo_core_*`, DESIGN.md §10). Makes the §6.3 O(n)-vs-O(n²)
    /// pair-check claim a visible counter in Prometheus exports.
    pub fn publish(&self) {
        if !obs::enabled() {
            return;
        }
        obs::counter_add("fedoo_core_pairs_checked_total", self.pairs_checked);
        obs::counter_add(
            "fedoo_core_pairs_skipped_by_labels_total",
            self.pairs_skipped_by_labels,
        );
        obs::counter_add(
            "fedoo_core_pairs_removed_as_siblings_total",
            self.pairs_removed_as_siblings,
        );
        obs::counter_add("fedoo_core_pairs_enqueued_total", self.pairs_enqueued);
        obs::counter_add("fedoo_core_dfs_checks_total", self.dfs_checks);
        obs::counter_add("fedoo_core_relation_lookups_total", self.relation_lookups);
        obs::counter_add("fedoo_core_total_checks_total", self.total_checks());
        obs::counter_add("fedoo_core_labels_created_total", self.labels_created);
        obs::counter_add("fedoo_core_classes_merged_total", self.classes_merged);
        obs::counter_add("fedoo_core_virtual_classes_total", self.virtual_classes);
        obs::counter_add("fedoo_core_rules_generated_total", self.rules_generated);
        obs::histogram_record("fedoo_core_checks_per_run", self.total_checks());
    }
}

impl AddAssign for IntegrationStats {
    fn add_assign(&mut self, o: Self) {
        self.pairs_checked += o.pairs_checked;
        self.pairs_skipped_by_labels += o.pairs_skipped_by_labels;
        self.pairs_removed_as_siblings += o.pairs_removed_as_siblings;
        self.pairs_enqueued += o.pairs_enqueued;
        self.dfs_checks += o.dfs_checks;
        self.relation_lookups += o.relation_lookups;
        self.labels_created += o.labels_created;
        self.nodes_labelled += o.nodes_labelled;
        self.classes_merged += o.classes_merged;
        self.classes_copied += o.classes_copied;
        self.virtual_classes += o.virtual_classes;
        self.rules_generated += o.rules_generated;
        self.isa_links_inserted += o.isa_links_inserted;
        self.isa_links_removed += o.isa_links_removed;
    }
}

impl fmt::Display for IntegrationStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "pairs checked:            {}", self.pairs_checked)?;
        writeln!(
            f,
            "pairs skipped by labels:  {}",
            self.pairs_skipped_by_labels
        )?;
        writeln!(
            f,
            "sibling pairs removed:    {}",
            self.pairs_removed_as_siblings
        )?;
        writeln!(f, "pairs enqueued:           {}", self.pairs_enqueued)?;
        writeln!(f, "DFS checks:               {}", self.dfs_checks)?;
        writeln!(f, "relation lookups:         {}", self.relation_lookups)?;
        writeln!(f, "labels created:           {}", self.labels_created)?;
        writeln!(f, "nodes labelled:           {}", self.nodes_labelled)?;
        writeln!(f, "classes merged:           {}", self.classes_merged)?;
        writeln!(f, "classes copied:           {}", self.classes_copied)?;
        writeln!(f, "virtual classes:          {}", self.virtual_classes)?;
        writeln!(f, "rules generated:          {}", self.rules_generated)?;
        writeln!(f, "is-a links inserted:      {}", self.isa_links_inserted)?;
        write!(f, "is-a links removed:       {}", self.isa_links_removed)
    }
}

/// Work counters from one planned federated query (filled in by the
/// `fedoo-qp` executor, which sits above this crate — the struct lives
/// here so `PipelineStats` can carry it without a dependency cycle).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QpStats {
    /// Facts examined by base scans across all components.
    pub rows_scanned: u64,
    /// Substitutions emitted by the final pipeline stage.
    pub rows_emitted: u64,
    /// Selection predicates pushed down into component scans.
    pub pushdown_preds: u64,
    /// Rows rejected during scans by pushed-down predicates (work the
    /// join pipeline never saw).
    pub pushdown_pruned: u64,
    /// Base scan stages executed.
    pub scans: u64,
    /// Hash-join stages executed.
    pub joins: u64,
    /// Queries answered straight from the result cache.
    pub cache_hits: u64,
    /// Queries that had to be executed.
    pub cache_misses: u64,
    /// Facts derived by the goal-directed semi-naive fallback, if it ran.
    pub derived_facts: u64,
    /// Demand facts seeded + propagated by magic-sets-restricted derived
    /// scans (0 when every derived scan evaluated its full closure).
    pub demanded_facts: u64,
    /// Component fetches re-attempted after a failure (retry policy).
    pub retries: u64,
    /// Circuit-breaker trips observed while fetching components.
    pub breaker_trips: u64,
    /// Queries answered partially because components were unavailable
    /// past policy (1 per degraded answer).
    pub degraded: u64,
    /// Wall-clock time of planning + execution, in microseconds.
    pub micros: u64,
    /// Wall-clock spent planning (validation + rewrite + join ordering).
    pub plan_micros: u64,
    /// Wall-clock spent probing (and on a miss, populating) the result
    /// cache.
    pub cache_micros: u64,
    /// Wall-clock spent executing the plan (or saturating, on the
    /// reference path). Zero for cache hits.
    pub exec_micros: u64,
    /// Cache entries that survived a generation install because the
    /// changed components were outside the entry's plan footprint
    /// (surfaced per query so the serving layer can flag the save).
    pub footprint_saves: u64,
}

impl QpStats {
    pub fn new() -> Self {
        QpStats::default()
    }

    /// Publish this query's counters onto the global metrics registry
    /// (`fedoo_qp_*`, DESIGN.md §10). The struct itself stays the per-query
    /// view — the registry accumulates across queries, which is exactly why
    /// a reused `QueryEngine` can report fresh per-query stats while the
    /// process-wide totals keep growing.
    pub fn publish(&self) {
        if !obs::enabled() {
            return;
        }
        obs::counter_add("fedoo_qp_rows_scanned_total", self.rows_scanned);
        obs::counter_add("fedoo_qp_rows_emitted_total", self.rows_emitted);
        obs::counter_add("fedoo_qp_pushdown_preds_total", self.pushdown_preds);
        obs::counter_add("fedoo_qp_pushdown_pruned_total", self.pushdown_pruned);
        obs::counter_add("fedoo_qp_scans_total", self.scans);
        obs::counter_add("fedoo_qp_joins_total", self.joins);
        obs::counter_add("fedoo_qp_cache_hits_total", self.cache_hits);
        obs::counter_add("fedoo_qp_cache_misses_total", self.cache_misses);
        obs::counter_add("fedoo_qp_derived_facts_total", self.derived_facts);
        obs::counter_add("fedoo_qp_demanded_facts_total", self.demanded_facts);
        obs::counter_add("fedoo_qp_retries_total", self.retries);
        obs::counter_add("fedoo_qp_breaker_trips_total", self.breaker_trips);
        obs::counter_add("fedoo_qp_degraded_total", self.degraded);
        obs::counter_add("fedoo_qp_footprint_saves_total", self.footprint_saves);
        obs::histogram_record("fedoo_qp_query_micros", self.micros);
        obs::histogram_record("fedoo_qp_plan_micros", self.plan_micros);
        obs::histogram_record("fedoo_qp_exec_micros", self.exec_micros);
        obs::histogram_record("fedoo_qp_rows_emitted", self.rows_emitted);
    }
}

impl AddAssign for QpStats {
    fn add_assign(&mut self, o: Self) {
        self.rows_scanned += o.rows_scanned;
        self.rows_emitted += o.rows_emitted;
        self.pushdown_preds += o.pushdown_preds;
        self.pushdown_pruned += o.pushdown_pruned;
        self.scans += o.scans;
        self.joins += o.joins;
        self.cache_hits += o.cache_hits;
        self.cache_misses += o.cache_misses;
        self.derived_facts += o.derived_facts;
        self.demanded_facts += o.demanded_facts;
        self.retries += o.retries;
        self.breaker_trips += o.breaker_trips;
        self.degraded += o.degraded;
        self.micros += o.micros;
        self.plan_micros += o.plan_micros;
        self.cache_micros += o.cache_micros;
        self.exec_micros += o.exec_micros;
        self.footprint_saves += o.footprint_saves;
    }
}

impl fmt::Display for QpStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "scanned {} rows in {} scans ({} pushdown preds pruned {} rows), \
             {} joins, emitted {} rows, {} derived facts, \
             cache {} hit / {} miss, {} µs",
            self.rows_scanned,
            self.scans,
            self.pushdown_preds,
            self.pushdown_pruned,
            self.joins,
            self.rows_emitted,
            self.derived_facts,
            self.cache_hits,
            self.cache_misses,
            self.micros
        )?;
        // Fault-tolerance counters only appear once faults happened, so
        // the healthy-path line stays unchanged.
        if self.retries + self.breaker_trips + self.degraded > 0 {
            write!(
                f,
                ", {} retries / {} breaker trips / {} degraded",
                self.retries, self.breaker_trips, self.degraded
            )?;
        }
        Ok(())
    }
}

/// Combined accounting for an integrate-then-saturate pipeline run:
/// schema-integration pair checks (§6.3) plus rule-evaluation work from
/// saturating the integrated fact base.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Present when the pre-integration analysis gate ran.
    pub analysis: Option<analysis::AnalysisStats>,
    pub integration: IntegrationStats,
    /// Present once the fact base has been saturated.
    pub evaluation: Option<EvalStats>,
    /// Present once a planned federated query has executed.
    pub query: Option<QpStats>,
}

impl fmt::Display for PipelineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.analysis {
            Some(a) => writeln!(f, "analysis:                 {a}")?,
            None => writeln!(f, "analysis:                 not run")?,
        }
        writeln!(f, "{}", self.integration)?;
        match &self.evaluation {
            Some(e) => writeln!(f, "evaluation:               {e}")?,
            None => writeln!(f, "evaluation:               not run")?,
        }
        match &self.query {
            Some(q) => write!(f, "query:                    {q}"),
            None => write!(f, "query:                    not run"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_addition() {
        let mut a = IntegrationStats::new();
        a.pairs_checked = 10;
        a.dfs_checks = 5;
        assert_eq!(a.total_checks(), 15);
        let mut b = IntegrationStats::new();
        b.pairs_checked = 1;
        b.labels_created = 2;
        a += b;
        assert_eq!(a.pairs_checked, 11);
        assert_eq!(a.labels_created, 2);
    }

    #[test]
    fn display_mentions_every_counter() {
        let s = IntegrationStats::new().to_string();
        for key in [
            "pairs checked",
            "DFS checks",
            "labels created",
            "rules generated",
        ] {
            assert!(s.contains(key), "{key} missing");
        }
    }

    #[test]
    fn qp_stats_display_mentions_faults_only_when_present() {
        let mut q = QpStats::new();
        assert!(!q.to_string().contains("degraded"));
        q.retries = 2;
        q.degraded = 1;
        let s = q.to_string();
        assert!(s.contains("2 retries"));
        assert!(s.contains("1 degraded"));
    }

    #[test]
    fn pipeline_stats_display_covers_both_phases() {
        let mut p = PipelineStats::default();
        assert!(p.to_string().contains("not run"));
        p.evaluation = Some(EvalStats::default());
        let s = p.to_string();
        assert!(s.contains("pairs checked"));
        assert!(s.contains("iterations"));
    }
}
