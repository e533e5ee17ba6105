//! The query-engine façade.
//!
//! [`QueryEngine`] owns one built federation (global schema + exported
//! component states + meta registry) and answers conjunctive queries
//! under either [`QueryStrategy`]:
//!
//! * `Planned` — parse → validate → plan → scatter-gather execute;
//! * `Saturate` — the reference path: materialise the whole federation,
//!   saturate, query the fact base.
//!
//! Both paths return the same sorted, deduplicated answer rows (the
//! differential suite enforces this), so `Saturate` is the oracle and
//! `Planned` is the optimisation.
//!
//! Either strategy first looks the answer up in the result cache, keyed
//! by `strategy | GlobalQuery::canonical()`, so a hit costs a parse and a
//! lookup: it neither validates nor plans. That is sound because an
//! engine lineage's global program is fixed (a query validates now as it
//! did when it filled the entry) and rejected or degraded answers are
//! never stored. Each entry keeps the short fingerprint of the plan that
//! filled it, which a hit reports as its `plan_fp`. A miss plans from
//! state the lineage built once (a `PlanContext`) and the engine's
//! extent statistics, shared by `Arc`.
//!
//! A serving layer builds one engine per snapshot of its store, each the
//! [`QueryEngine::successor`] of the last. Such a lineage shares one
//! global schema and meta registry, planning context, result cache,
//! scan cache and reference-evaluator state. Planned base scans read the
//! scan cache, which re-materialises only the partitions a write copied;
//! planned derived scans evaluate against the engine's own deduction
//! states, kept across its executions, so a miss pays only for the
//! demand it adds; the `Saturate` path syncs its state
//! to the asking engine's snapshot by the base-fact delta of the two
//! snapshots' store diff. So no engine copies a materialization, and a
//! read after a write costs what the write changed.

use crate::cache::{CacheStats, CachedAnswer, SharedResultCache, DEFAULT_SHARDS};
use crate::degrade::{self, AnswerCompleteness};
use crate::derived_state::{DerivedStateStats, DerivedStates};
use crate::exec;
use crate::parser::{parse_query, GlobalQuery};
use crate::plan::{PlanNode, QueryPlan, QueryStrategy, ScanKind, ScanNode};
use crate::planner::{ClosureCache, ExtentRows, PlanContext, Planner};
use crate::scan_cache::{ScanCache, ScanCacheStats};
use crate::Result;
use analysis::ProgramSummary;
use deduction::materialize::MaterializedProgram;
use deduction::{EvalStats, Literal, OTermPat, Subst, Term};
use federation::client::FsmClient;
use federation::connector::{FaultPlan, FaultyConnector, InProcessConnector, VirtualClock};
use federation::fsm::{ComponentHealth, Fsm, GlobalSchema, IntegrationStrategy};
use federation::mapping::MetaRegistry;
use federation::policy::{GuardedConnector, RetryPolicy};
use federation::{CoupledClasses, FactMaterializer, FederationDb};
use fedoo_core::{PipelineStats, QpStats};
use oo_model::{InstanceStore, Schema, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, RwLock};
use std::time::Instant;

/// One answered query.
#[derive(Debug, Clone)]
pub struct QueryAnswer {
    /// Answer columns, in query order.
    pub vars: Vec<String>,
    /// Sorted, deduplicated value rows (unbound positions are `Null`).
    pub rows: Vec<Vec<Value>>,
    pub stats: QpStats,
    pub strategy: QueryStrategy,
    pub from_cache: bool,
    /// Short (FNV-1a/64, hex) hash of the strategy and the plan that
    /// computed the answer — for a cache hit, the plan that filled the
    /// entry, stored with it. The stable per-plan-shape identity the
    /// serving layer's slow-query log and `fedoo obs report` group by.
    /// Statistics-free (see [`QueryPlan::fingerprint`]), so the same
    /// query shape hashes the same across generations and runs.
    pub plan_fp: String,
    /// Whether (and how) the answer was degraded by unavailable
    /// components. Complete for every answer computed fault-free.
    pub completeness: AnswerCompleteness,
}

impl QueryAnswer {
    /// Aligned-column table rendering.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        if !self.vars.is_empty() {
            let cells: Vec<Vec<String>> = self
                .rows
                .iter()
                .map(|r| r.iter().map(|v| v.to_string()).collect())
                .collect();
            let widths: Vec<usize> = self
                .vars
                .iter()
                .enumerate()
                .map(|(i, v)| {
                    cells
                        .iter()
                        .map(|r| r[i].len())
                        .chain([v.len()])
                        .max()
                        .unwrap_or(0)
                })
                .collect();
            let mut line = String::new();
            for (i, v) in self.vars.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:<w$}", v, w = widths[i]));
            }
            out.push_str(line.trim_end());
            out.push('\n');
            for (i, w) in widths.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                out.push_str(&"-".repeat(*w));
            }
            out.push('\n');
            for row in &cells {
                let mut line = String::new();
                for (i, c) in row.iter().enumerate() {
                    if i > 0 {
                        line.push_str("  ");
                    }
                    line.push_str(&format!("{:<w$}", c, w = widths[i]));
                }
                out.push_str(line.trim_end());
                out.push('\n');
            }
        }
        out.push_str(&format!(
            "({} row{}{})\n",
            self.rows.len(),
            if self.rows.len() == 1 { "" } else { "s" },
            if self.from_cache { ", cached" } else { "" }
        ));
        if !self.completeness.is_complete() {
            out.push_str(&format!(
                "partial answer: missing components [{}], affected classes [{}]\n",
                self.completeness.missing_components.join(", "),
                self.completeness.affected_classes.join(", ")
            ));
        }
        out
    }

    /// Deterministic JSON rendering.
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"vars\":[");
        for (i, v) in self.vars.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&crate::plan::json_string(v));
        }
        out.push_str("],\"rows\":[");
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('[');
            for (j, v) in row.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&value_json(v));
            }
            out.push(']');
        }
        out.push_str(&format!("],\"count\":{}", self.rows.len()));
        // The completeness block appears only on degraded answers, so
        // fault-free renderings are byte-identical to earlier releases.
        if !self.completeness.is_complete() {
            let list = |items: &[String]| {
                items
                    .iter()
                    .map(|s| crate::plan::json_string(s))
                    .collect::<Vec<_>>()
                    .join(",")
            };
            out.push_str(&format!(
                ",\"completeness\":{{\"missing_components\":[{}],\"affected_classes\":[{}]}}",
                list(&self.completeness.missing_components),
                list(&self.completeness.affected_classes)
            ));
        }
        out.push_str(&format!(
            ",\"strategy\":{},\"from_cache\":{}}}",
            crate::plan::json_string(self.strategy.as_str()),
            self.from_cache
        ));
        out
    }
}

/// One answered-and-profiled query: the answer, the plan that produced
/// it, and the per-operator actuals — the `--explain-analyze` payload.
#[derive(Debug, Clone)]
pub struct AnalyzedAnswer {
    pub answer: QueryAnswer,
    pub plan: QueryPlan,
    pub profile: exec::OpProfile,
}

impl AnalyzedAnswer {
    /// The annotated plan tree followed by the answer table.
    pub fn render_human(&self) -> String {
        let mut out = crate::analyze::render_analyzed(&self.plan, &self.profile);
        out.push('\n');
        out.push_str(&self.answer.render_human());
        out
    }
}

/// JSON rendering of one value.
pub fn value_json(v: &Value) -> String {
    match v {
        Value::Bool(b) => b.to_string(),
        Value::Int(i) => i.to_string(),
        Value::Real(r) if r.is_finite() => r.to_string(),
        Value::Real(_) => "null".to_string(),
        Value::Char(c) => crate::plan::json_string(&c.to_string()),
        Value::Str(s) => crate::plan::json_string(s),
        Value::Date(d) => crate::plan::json_string(&d.to_string()),
        Value::Oid(o) => crate::plan::json_string(&o.to_string()),
        Value::Set(items) => {
            let inner: Vec<String> = items.iter().map(value_json).collect();
            format!("[{}]", inner.join(","))
        }
        Value::Null => "null".to_string(),
    }
}

/// Default result-cache capacity.
const CACHE_CAPACITY: usize = 64;

/// Extent statistics — (component index, local class) → object count —
/// keyed by the component version vector they were gathered against.
type ExtentStats = (Vec<u64>, Arc<ExtentRows>);

/// An installed fault plan: one guarded fault-injecting connector per
/// component, sharing a virtual clock. Breaker and transient-fault state
/// persist across `ask` calls; a component-store mutation rebuilds the
/// connectors (and resets that state) so they serve current data.
struct FaultSession {
    plan: FaultPlan,
    policy: RetryPolicy,
    clock: VirtualClock,
    connectors: Vec<GuardedConnector>,
    versions: Vec<u64>,
}

impl FaultSession {
    fn build(plan: FaultPlan, policy: RetryPolicy, components: &[(Schema, InstanceStore)]) -> Self {
        let clock = VirtualClock::new();
        let connectors = Self::connectors(&plan, policy, &clock, components);
        let versions = components.iter().map(|(_, s)| s.version()).collect();
        FaultSession {
            plan,
            policy,
            clock,
            connectors,
            versions,
        }
    }

    fn connectors(
        plan: &FaultPlan,
        policy: RetryPolicy,
        clock: &VirtualClock,
        components: &[(Schema, InstanceStore)],
    ) -> Vec<GuardedConnector> {
        components
            .iter()
            .map(|(schema, store)| {
                let base = InProcessConnector::new(schema.clone(), store.clone());
                let faulty = FaultyConnector::new(Arc::new(base), plan, clock.clone());
                GuardedConnector::new(Arc::new(faulty), policy, clock.clone())
            })
            .collect()
    }

    /// Rebuild the connector stack if any component store has mutated
    /// since it was built.
    fn ensure_fresh(&mut self, components: &[(Schema, InstanceStore)]) {
        let versions: Vec<u64> = components.iter().map(|(_, s)| s.version()).collect();
        if versions != self.versions {
            self.connectors = Self::connectors(&self.plan, self.policy, &self.clock, components);
            self.versions = versions;
        }
    }
}

/// Reference-evaluator state behind the `Saturate` strategy, keyed by
/// the component snapshot it currently answers for.
///
/// The preferred shape is `Incremental`: a delta-maintained
/// [`MaterializedProgram`] plus the snapshot it answers for. Moving it
/// to another snapshot of the lineage diffs the two snapshots' stores,
/// turns the changed objects into a base-fact delta and applies it:
/// O(changed objects + changed derivations). Changes whose facts read
/// other objects (pairing partners, [`CoupledClasses`] origins) instead
/// rebuild the base facts and [`MaterializedProgram::sync_base`] to
/// them, O(federation objects). Programs the maintainer rejects
/// (non-stratifiable, unsafe, class-variable rules) fall back to `Full`,
/// the historical rebuild-and-saturate path.
enum SatState {
    Incremental {
        snapshot: Arc<Vec<(Schema, InstanceStore)>>,
        /// The lineage's coupled classes, computed at cold start.
        coupled: CoupledClasses,
        mat: MaterializedProgram,
    },
    Full(Vec<u64>, FederationDb),
}

/// One reference-evaluator state, shared by every engine of a store
/// lineage (see [`QueryEngine::successor`]).
type SharedSatState = Arc<Mutex<Option<SatState>>>;

/// Lock a lineage's reference-evaluator state. A panic while it was held
/// may have left it half-synced, so a poisoned state is reset to cold:
/// the next `Saturate` ask rebuilds it, and planned reads meanwhile keep
/// their own evaluation.
fn lock_sat(state: &Mutex<Option<SatState>>) -> MutexGuard<'_, Option<SatState>> {
    state.lock().unwrap_or_else(|poisoned| {
        state.clear_poison();
        let mut guard = poisoned.into_inner();
        *guard = None;
        guard
    })
}

impl SatState {
    /// Whether the state answers for the snapshot with `versions`.
    fn answers_for(&self, versions: &[u64]) -> bool {
        match self {
            SatState::Incremental { snapshot, .. } => snapshot
                .iter()
                .map(|(_, st)| st.version())
                .eq(versions.iter().copied()),
            SatState::Full(v, _) => v == versions,
        }
    }
}

/// One pass of fetching every component through the fault session.
struct FetchedFederation {
    components: Vec<(Schema, InstanceStore)>,
    /// Components that failed past policy or returned truncated extents.
    degraded: BTreeSet<String>,
    retries: u64,
    trips: u64,
}

/// A query processor bound to one built federation.
///
/// Every query entry point takes `&self`, and the engine is `Send +
/// Sync` (pinned by a compile-time assertion in the tests): wrap it in
/// an [`Arc`] and any number of threads can `ask` concurrently. Planned
/// execution against an unchanged federation is lock-free apart from
/// one sharded-cache lock and, on a miss, one `RwLock` read of the
/// extent statistics; the reference saturate path serializes on its state
/// mutex (it mutates the maintained fact base), as does an installed
/// fault session.
///
/// A serving layer builds one engine per generation of its store with
/// [`Self::successor`]. The engines of such a lineage share everything
/// that does not depend on the snapshot: the global schema and meta
/// registry, the planning context (executable rules, goal-closure cache,
/// program summary), the result cache, the scan cache and the
/// reference-evaluator state.
pub struct QueryEngine {
    /// Fixed for a lineage, so successors share it.
    global: Arc<GlobalSchema>,
    /// The component snapshot this engine answers against. Arc'd so a
    /// serving layer can share one immutable generation between the
    /// engine and its own bookkeeping without cloning stores.
    components: Arc<Vec<(Schema, InstanceStore)>>,
    /// Fixed for a lineage, so successors share it.
    meta: Arc<MetaRegistry>,
    /// Arc'd so a serving layer can share one result cache across the
    /// per-generation engines it builds: entries carry their component
    /// footprint and version vector, so a sibling generation hits only
    /// when every component the plan reads is unchanged.
    cache: Arc<SharedResultCache>,
    /// Materialised base-scan facts per store partition, shared by the
    /// lineage: an entry serves every generation that shares its
    /// partition (see [`crate::scan_cache`]).
    scan_cache: Arc<ScanCache>,
    /// Restricted deduction states of planned derived scans, one per
    /// relevance closure, kept for this engine's snapshot alone (see
    /// [`crate::derived_state`]).
    derived_states: DerivedStates,
    /// Reference evaluator state, set on first use or shared from a
    /// predecessor. One mutex for the whole saturate path of a lineage:
    /// each ask syncs the state to its own engine's versions and then
    /// reads it, so concurrent `Saturate` asks serialize here by design.
    saturate_db: OnceLock<SharedSatState>,
    /// Per-extent row counts for the planner's cardinality heuristic,
    /// gathered on the first miss after a store mutation; planners share
    /// them by `Arc`.
    extent_stats: RwLock<Option<ExtentStats>>,
    /// Work counters from the last full saturation, if one ran.
    sat_eval: Mutex<Option<EvalStats>>,
    /// Work counters from the last `ask`.
    last_stats: Mutex<Option<QpStats>>,
    /// Installed fault plan, if chaos/fault testing is active. Fetching
    /// through the fault session serializes on this mutex (breaker and
    /// transient-fault state is inherently shared).
    fault: Mutex<Option<FaultSession>>,
    /// What every planner of the lineage reads and the global program
    /// fixes: executable rules, strata, component index, the schema view
    /// queries validate against, per-goal relevance closures and the
    /// abstract-interpretation summary. Never invalidates.
    plan_context: Arc<PlanContext>,
    /// Whether planners annotate demand-seeded derived scans (on by
    /// default; benches switch it off to isolate the closure-only path).
    demand_enabled: AtomicBool,
}

impl QueryEngine {
    /// Integrate the FSM's registered components and take a snapshot of
    /// their exported states.
    pub fn connect(fsm: &Fsm, strategy: IntegrationStrategy) -> Result<Self> {
        let global = fsm.integrate(strategy)?;
        let components: Vec<(Schema, InstanceStore)> = fsm
            .components()
            .iter()
            .map(|c| (c.schema.clone(), c.store.clone()))
            .collect();
        Ok(Self::from_parts(global, components, fsm.meta.clone()))
    }

    /// Share an already-connected client's federation state.
    pub fn from_client(client: &FsmClient) -> Self {
        Self::from_parts(
            client.global.clone(),
            client.components().to_vec(),
            client.meta.clone(),
        )
    }

    pub fn from_parts(
        global: GlobalSchema,
        components: Vec<(Schema, InstanceStore)>,
        meta: MetaRegistry,
    ) -> Self {
        Self::from_parts_arc(global, Arc::new(components), meta)
    }

    /// [`Self::from_parts`] over an already-Arc'd component snapshot —
    /// the serving layer's constructor: one immutable generation is
    /// shared between the engine and the generation store without
    /// cloning a single `InstanceStore`.
    pub fn from_parts_arc(
        global: GlobalSchema,
        components: Arc<Vec<(Schema, InstanceStore)>>,
        meta: MetaRegistry,
    ) -> Self {
        let plan_context = Arc::new(PlanContext::new(&global, &components));
        Self::with_lineage(
            Arc::new(global),
            components,
            Arc::new(meta),
            Arc::new(SharedResultCache::new(CACHE_CAPACITY, DEFAULT_SHARDS)),
            plan_context,
        )
    }

    /// An engine over `components` with the given lineage-wide parts and
    /// everything else fresh.
    fn with_lineage(
        global: Arc<GlobalSchema>,
        components: Arc<Vec<(Schema, InstanceStore)>>,
        meta: Arc<MetaRegistry>,
        cache: Arc<SharedResultCache>,
        plan_context: Arc<PlanContext>,
    ) -> Self {
        QueryEngine {
            global,
            components,
            meta,
            cache,
            plan_context,
            scan_cache: Arc::default(),
            derived_states: DerivedStates::default(),
            saturate_db: OnceLock::new(),
            extent_stats: RwLock::new(None),
            sat_eval: Mutex::new(None),
            last_stats: Mutex::new(None),
            fault: Mutex::new(None),
            demand_enabled: AtomicBool::new(true),
        }
    }

    /// An engine over `components`, another snapshot of this engine's
    /// store lineage (a later or earlier generation of one serving
    /// store). Within a lineage a version number identifies a component
    /// state, which makes everything below safe to share rather than
    /// rebuild:
    ///
    /// * the global schema and meta registry, by `Arc`;
    /// * the planning context (executable rules, goal-closure cache,
    ///   program summary) — the global program is the same for every
    ///   snapshot;
    /// * the result cache — entries validate per footprint component
    ///   against the asking engine's version vector;
    /// * the scan cache — entries are keyed by the store partition they
    ///   were built from;
    /// * the reference-evaluator state — see
    ///   [`Self::adopt_saturate_state`].
    ///
    /// The demand setting carries over; an installed fault plan and the
    /// restricted deduction states, which answer for one snapshot, do
    /// not.
    pub fn successor(&self, components: Arc<Vec<(Schema, InstanceStore)>>) -> QueryEngine {
        let mut next = Self::with_lineage(
            Arc::clone(&self.global),
            components,
            Arc::clone(&self.meta),
            Arc::clone(&self.cache),
            Arc::clone(&self.plan_context),
        );
        next.scan_cache = Arc::clone(&self.scan_cache);
        next.set_demand_enabled(self.demand_enabled.load(Ordering::Relaxed));
        next.adopt_saturate_state(self);
        next
    }

    /// Replace the engine's result cache with a shared one. Sound across
    /// engines over *the same store lineage* (e.g. the generations of one
    /// serving store): entries validate per footprint component against
    /// the asking engine's version vector, and within a lineage a version
    /// number uniquely identifies a component state.
    pub fn set_shared_result_cache(&mut self, cache: Arc<SharedResultCache>) {
        self.cache = cache;
    }

    /// Share the reference-evaluator state of `prev`, an engine over
    /// another snapshot of the same store lineage. Nothing is copied:
    /// both engines lock one state, and a `Saturate` ask on either first
    /// syncs it to the asking engine's version vector by diffing base
    /// facts. The diff runs in either direction, so `prev` keeps
    /// answering for its own pinned snapshot. A no-op when this engine
    /// already holds a state (it asked `Saturate` or adopted before).
    pub fn adopt_saturate_state(&self, prev: &QueryEngine) {
        let _ = self.saturate_db.set(Arc::clone(prev.saturate_state()));
    }

    /// Whether this engine's lineage holds a reference-evaluator state:
    /// some engine of it asked `Saturate` or ran a full-saturate plan.
    /// Planned derived scans then read that state wherever it reaches
    /// the asking snapshot by a store diff.
    pub fn is_warm(&self) -> bool {
        self.saturate_db
            .get()
            .is_some_and(|state| lock_sat(state).is_some())
    }

    /// This engine's reference-evaluator state, created empty on first
    /// use unless one was adopted.
    fn saturate_state(&self) -> &SharedSatState {
        self.saturate_db.get_or_init(SharedSatState::default)
    }

    /// The engine's goal-closure cache (shared across its lineage).
    pub fn closure_cache(&self) -> ClosureCache {
        self.plan_context.closure_cache()
    }

    /// The engine's program summary, computed on first call and shared
    /// across its lineage.
    pub fn summary(&self) -> Arc<ProgramSummary> {
        Arc::clone(self.plan_context.summary())
    }

    /// Toggle demand (magic-sets) annotation of derived scans. With it
    /// off, planned execution still restricts to the relevance closure
    /// but saturates it fully — the pre-demand behaviour.
    pub fn set_demand_enabled(&self, on: bool) {
        self.demand_enabled.store(on, Ordering::Relaxed);
    }

    /// Install a fault plan: every subsequent `ask` fetches component
    /// snapshots through fault-injecting, policy-guarded connectors.
    /// Components unavailable past policy degrade the answer (or refuse
    /// the query when a partial answer would be unsound).
    pub fn apply_fault_plan(&self, plan: FaultPlan, policy: RetryPolicy) {
        *self.fault.lock().unwrap() = Some(FaultSession::build(plan, policy, &self.components));
    }

    /// Remove the installed fault plan; queries go back to direct
    /// component access.
    pub fn clear_fault_plan(&self) {
        *self.fault.lock().unwrap() = None;
    }

    /// Per-component circuit-breaker health for the installed fault
    /// session (empty without one).
    pub fn fault_health(&self) -> Vec<ComponentHealth> {
        match &*self.fault.lock().unwrap() {
            Some(s) => s.connectors.iter().map(|c| c.health()).collect(),
            None => Vec::new(),
        }
    }

    /// The fault session's virtual clock, if one is installed — lets
    /// tests advance time past breaker cooldowns deterministically.
    pub fn fault_clock(&self) -> Option<VirtualClock> {
        self.fault.lock().unwrap().as_ref().map(|s| s.clock.clone())
    }

    pub fn global(&self) -> &GlobalSchema {
        &self.global
    }

    pub fn components(&self) -> &[(Schema, InstanceStore)] {
        &self.components
    }

    pub fn meta(&self) -> &MetaRegistry {
        &self.meta
    }

    /// The Arc'd component snapshot (generation sharing).
    pub fn components_arc(&self) -> Arc<Vec<(Schema, InstanceStore)>> {
        Arc::clone(&self.components)
    }

    /// Mutable access to one component store. Mutations bump the store's
    /// version counter, which invalidates affected cache entries and the
    /// reference evaluator state on the next query. When the snapshot is
    /// shared with other holders (a pinned generation), this
    /// copy-on-writes the component vector — a shallow copy, since stores
    /// share their partitions — and sharers keep the old snapshot,
    /// exactly the generation semantics. The engine's restricted
    /// deduction states are dropped.
    pub fn component_store_mut(&mut self, idx: usize) -> Option<&mut InstanceStore> {
        self.derived_states.clear();
        Arc::make_mut(&mut self.components)
            .get_mut(idx)
            .map(|(_, store)| store)
    }

    /// Current component store version vector (the cache key epoch).
    pub fn versions(&self) -> Vec<u64> {
        self.components.iter().map(|(_, s)| s.version()).collect()
    }

    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Counters of the lineage's scan cache.
    pub fn scan_cache_stats(&self) -> ScanCacheStats {
        self.scan_cache.stats()
    }

    /// Counters of the engine's restricted deduction states.
    pub fn derived_state_stats(&self) -> DerivedStateStats {
        self.derived_states.stats()
    }

    /// The facts a planned base scan of `global_class` reads, projected
    /// on `attrs`: each component's facts through the scan cache (or
    /// materialised, where the cache is bypassed), then the identity
    /// bridges. For inspection and differential tests.
    pub fn base_scan_facts(
        &self,
        global_class: &str,
        attrs: &BTreeSet<String>,
    ) -> Result<Vec<OTermPat>> {
        let mat = FactMaterializer::new(&self.global, &self.components, &self.meta);
        let mut out = Vec::new();
        for ci in 0..self.components.len() {
            let extent =
                self.scan_cache
                    .extent(&self.global, &mat, false, ci, global_class, attrs)?;
            out.extend(extent.facts().into_iter().cloned());
        }
        out.extend(mat.bridge_facts(Some(global_class), None));
        Ok(out)
    }

    pub fn last_stats(&self) -> Option<QpStats> {
        *self.last_stats.lock().unwrap()
    }

    /// Combined pipeline accounting: integration checks, reference
    /// saturation (if it ran) and the last query's counters.
    pub fn pipeline_stats(&self) -> PipelineStats {
        PipelineStats {
            analysis: None,
            integration: self.global.total_stats,
            evaluation: *self.sat_eval.lock().unwrap(),
            query: *self.last_stats.lock().unwrap(),
        }
    }

    /// Parse query text (no validation).
    pub fn parse(&self, text: &str) -> Result<GlobalQuery> {
        Ok(parse_query(text)?)
    }

    /// Validate and plan, without executing.
    pub fn plan_for(&self, query: &GlobalQuery) -> Result<QueryPlan> {
        self.plan_with(query, self.extent_rows())
    }

    fn plan_with(&self, query: &GlobalQuery, extent_rows: Arc<ExtentRows>) -> Result<QueryPlan> {
        let mut planner =
            Planner::with_context(&self.global, Arc::clone(&self.plan_context), extent_rows);
        planner.set_demand(self.demand_enabled.load(Ordering::Relaxed));
        planner.plan(query)
    }

    /// The extent statistics of this engine's snapshot, gathered again
    /// only after a store mutation.
    fn extent_rows(&self) -> Arc<ExtentRows> {
        let versions = self.versions();
        if let Some((v, rows)) = &*self.extent_stats.read().unwrap() {
            if *v == versions {
                return Arc::clone(rows);
            }
        }
        let rows = Arc::new(Planner::collect_extent_rows(&self.components));
        *self.extent_stats.write().unwrap() = Some((versions, Arc::clone(&rows)));
        rows
    }

    /// Parse, validate and plan query text — the `--explain` entry point.
    pub fn explain(&self, text: &str) -> Result<QueryPlan> {
        let q = parse_query(text)?;
        self.plan_for(&q)
    }

    /// Parse and answer query text.
    pub fn ask_text(&self, text: &str, strategy: QueryStrategy) -> Result<QueryAnswer> {
        let _ask_span = ask_span(strategy);
        let q = parse_query(text)?;
        self.answer(&q, strategy)
    }

    /// Answer a parsed query.
    pub fn ask(&self, query: &GlobalQuery, strategy: QueryStrategy) -> Result<QueryAnswer> {
        let _ask_span = ask_span(strategy);
        self.answer(query, strategy)
    }

    /// Parse, answer, and profile query text — the `--explain-analyze`
    /// entry point. Bypasses the result cache so the profile reflects a
    /// real execution (the computed answer still populates the cache).
    pub fn ask_analyze(&self, text: &str, strategy: QueryStrategy) -> Result<AnalyzedAnswer> {
        let _ask_span = ask_span(strategy);
        let query = parse_query(text)?;
        let key = cache_key(strategy, &query);
        let (answer, plan, profile) = self.compute(&query, strategy, key, Instant::now(), 0)?;
        Ok(AnalyzedAnswer {
            answer,
            plan,
            profile,
        })
    }

    /// The cached answer when there is one, otherwise a computed one.
    fn answer(&self, query: &GlobalQuery, strategy: QueryStrategy) -> Result<QueryAnswer> {
        let start = Instant::now();
        let key = cache_key(strategy, query);
        let hit = {
            let _span = obs::span!("qp.cache", "qp", "op=get");
            self.cache.get(&key, &self.versions())
        };
        let cache_micros = start.elapsed().as_micros() as u64;
        match hit {
            Some(hit) => Ok(self.cached_answer(hit, strategy, start, cache_micros)),
            None => self
                .compute(query, strategy, key, start, cache_micros)
                .map(|(answer, ..)| answer),
        }
    }

    /// A cache hit as an answer. Only complete answers are ever stored,
    /// so a hit — even during an outage — serves the fault-free answer.
    fn cached_answer(
        &self,
        hit: CachedAnswer,
        strategy: QueryStrategy,
        start: Instant,
        cache_micros: u64,
    ) -> QueryAnswer {
        let stats = QpStats {
            cache_hits: 1,
            rows_emitted: hit.rows.len() as u64,
            micros: start.elapsed().as_micros() as u64,
            cache_micros,
            footprint_saves: u64::from(hit.footprint_save),
            ..QpStats::new()
        };
        stats.publish();
        *self.last_stats.lock().unwrap() = Some(stats);
        QueryAnswer {
            vars: hit.vars,
            rows: hit.rows,
            stats,
            strategy,
            from_cache: true,
            plan_fp: hit.plan_fp,
            completeness: AnswerCompleteness::complete(),
        }
    }

    /// Validate, plan and execute `query`, then store a complete answer
    /// under `key`. `cache_micros` is what the lookup before it took.
    fn compute(
        &self,
        query: &GlobalQuery,
        strategy: QueryStrategy,
        key: String,
        start: Instant,
        mut cache_micros: u64,
    ) -> Result<(QueryAnswer, QueryPlan, exec::OpProfile)> {
        let versions = self.versions();
        let extent_rows = self.extent_rows();
        // Both strategies validate and plan identically, so they reject
        // the same queries.
        let plan_start = Instant::now();
        let plan = {
            let _span = obs::span!("qp.plan", "qp");
            self.plan_with(query, extent_rows)?
        };
        let plan_micros = plan_start.elapsed().as_micros() as u64;
        let plan_fp = plan_fingerprint(strategy, &plan, query);

        // With a fault plan installed, fetch each component through its
        // guarded connector; components lost past policy become empty
        // extents at the same index (plan indexes stay valid) and the
        // query is vetted for subset-soundness before executing.
        let fetched = self.fetch_through_faults();
        let (fault_components, degraded, fault_retries, fault_trips) = match fetched {
            Some(f) => (Some(f.components), f.degraded, f.retries, f.trips),
            None => (None, BTreeSet::new(), 0, 0),
        };
        let completeness = if degraded.is_empty() {
            AnswerCompleteness::complete()
        } else {
            degrade::assess(&self.global, &query.body(), &degraded)?
        };

        let exec_start = Instant::now();
        let (rows, mut stats, profile) = match strategy {
            QueryStrategy::Planned if !matches!(plan.root, PlanNode::FullSaturate { .. }) => {
                let comps = fault_components.as_deref().unwrap_or(&self.components);
                // A warm lineage answers derived scans from its maintained
                // reference state when that state answers for this
                // snapshot or moves to it by a store-diff delta; otherwise
                // (and on a cold lineage) the execution keeps the
                // demand-restricted evaluation.
                let warm = self
                    .saturate_db
                    .get()
                    .filter(|state| degraded.is_empty() && lock_sat(state).is_some());
                let maintained = |lit: &Literal| -> Result<Option<Vec<Subst>>> {
                    let mut guard = lock_sat(warm.expect("only called when warm"));
                    if !self.refresh_saturate_state(&mut guard, self.versions(), false)? {
                        return Ok(None);
                    }
                    let body = std::slice::from_ref(lit);
                    Ok(Some(match guard.as_mut().expect("just synced") {
                        SatState::Incremental { mat, .. } => mat.query(body),
                        SatState::Full(_, db) => db.query(body)?,
                    }))
                };
                let caches = exec::Caches {
                    scan_cache: &self.scan_cache,
                    states: &self.derived_states,
                };
                let out = exec::execute(
                    &plan,
                    &self.global,
                    comps,
                    &self.meta,
                    &degraded,
                    caches,
                    warm.map(|_| &maintained as exec::MaintainedRows<'_>),
                )?;
                (out.rows, out.stats, out.profile)
            }
            _ => {
                let _exec_span = obs::span!("qp.execute", "qp", "op=saturate");
                let sat_start = Instant::now();
                let rows = if degraded.is_empty() {
                    // Healthy (or recovered) federation: the cached
                    // reference state over the live components is
                    // identical to the fetched snapshot.
                    self.saturate_rows(query)?
                } else {
                    // Degraded: saturate a throwaway state over the
                    // partial snapshot — never stored, so it cannot be
                    // replayed as complete later.
                    let comps = fault_components
                        .as_deref()
                        .expect("degraded implies fetched");
                    let mut db = FederationDb::build_degraded(
                        &self.global,
                        comps,
                        &self.meta,
                        None,
                        &degraded,
                    )?;
                    db.saturate()?;
                    let substs = db.query(&query.body())?;
                    normalize_rows(&substs, &plan.vars)
                };
                let op = if matches!(plan.root, PlanNode::FullSaturate { .. }) {
                    "full-saturate"
                } else {
                    "saturate"
                };
                let profile = exec::OpProfile::leaf(
                    op,
                    rows.len() as u64,
                    sat_start.elapsed().as_micros() as u64,
                );
                (rows, QpStats::new(), profile)
            }
        };
        stats.cache_misses = 1;
        stats.rows_emitted = rows.len() as u64;
        stats.exec_micros = exec_start.elapsed().as_micros() as u64;
        stats.retries += fault_retries;
        stats.breaker_trips += fault_trips;
        stats.degraded += u64::from(!completeness.is_complete());
        // Degraded answers must never be served as complete after the
        // component recovers (the version vector would still match), so
        // only complete answers enter the cache.
        if completeness.is_complete() {
            let put_start = Instant::now();
            let footprint = self.plan_footprint(&plan);
            self.cache.put(
                key,
                versions,
                footprint,
                plan_fp.clone(),
                plan.vars.clone(),
                rows.clone(),
            );
            cache_micros += put_start.elapsed().as_micros() as u64;
        }
        stats.plan_micros = plan_micros;
        stats.cache_micros = cache_micros;
        stats.micros = start.elapsed().as_micros() as u64;
        stats.publish();
        *self.last_stats.lock().unwrap() = Some(stats);
        let answer = QueryAnswer {
            vars: plan.vars.clone(),
            rows,
            stats,
            strategy,
            from_cache: false,
            plan_fp,
            completeness,
        };
        Ok((answer, plan, profile))
    }

    /// Fetch every component through the installed fault session, if
    /// any. Components that fail past policy are replaced by an empty
    /// extent at the same index and recorded as degraded; truncated
    /// snapshots keep their partial extent but are recorded too.
    fn fetch_through_faults(&self) -> Option<FetchedFederation> {
        let mut guard = self.fault.lock().unwrap();
        let session = guard.as_mut()?;
        session.ensure_fresh(&self.components);
        let mut out = FetchedFederation {
            components: Vec::with_capacity(self.components.len()),
            degraded: BTreeSet::new(),
            retries: 0,
            trips: 0,
        };
        for (i, conn) in session.connectors.iter().enumerate() {
            let name = self.components[i].0.name.as_str().to_string();
            let before = conn.stats();
            match conn.fetch() {
                Ok(snap) => {
                    if !snap.complete {
                        out.degraded.insert(name);
                    }
                    out.components.push((snap.schema, snap.store));
                }
                Err(_) => {
                    out.degraded.insert(name);
                    out.components
                        .push((self.components[i].0.clone(), InstanceStore::new()));
                }
            }
            let after = conn.stats();
            out.retries += after.retries - before.retries;
            out.trips += after.trips - before.trips;
        }
        Some(out)
    }

    /// The reference path: a delta-maintained materialization (falling
    /// back to full rebuild + saturation for programs the maintainer
    /// rejects), then a fact-base query, normalised to sorted unique
    /// rows. Serializes concurrent callers on the saturate-state mutex.
    fn saturate_rows(&self, query: &GlobalQuery) -> Result<Vec<Vec<Value>>> {
        let versions = self.versions();
        let mut guard = lock_sat(self.saturate_state());
        self.refresh_saturate_state(&mut guard, versions, true)?;
        let substs = match guard.as_mut().expect("just ensured") {
            SatState::Incremental { mat, .. } => mat.query(&query.body()),
            SatState::Full(_, db) => db.query(&query.body())?,
        };
        Ok(normalize_rows(&substs, &query.vars()))
    }

    /// Bring the reference-evaluator state to `versions`, this engine's
    /// snapshot.
    ///
    /// Incremental state at another snapshot — older or newer, since the
    /// state is shared across a lineage — moves by *delta*: the base-fact
    /// delta of the two snapshots' store diff when every changed object's
    /// fact is its own (`mode=diff`), otherwise a rebuild of the base
    /// facts (unsaturated — no rule evaluation) synced against the
    /// current base (`mode=rebuild`). Either way derived facts are
    /// repaired by counting/DRed maintenance instead of being recomputed.
    /// Cold starts attempt the incremental shape and fall back to the
    /// full rebuild-and-saturate path when the maintainer rejects the
    /// program.
    ///
    /// Without `rebuild`, only the cheap moves run — none when the state
    /// already answers, a `mode=diff` delta otherwise — and the state is
    /// left as it is when neither applies. Returns whether the state
    /// answers for `versions`.
    fn refresh_saturate_state(
        &self,
        guard: &mut Option<SatState>,
        versions: Vec<u64>,
        rebuild: bool,
    ) -> Result<bool> {
        if matches!(&*guard, Some(s) if s.answers_for(&versions)) {
            return Ok(true);
        }
        if let Some(SatState::Incremental {
            snapshot,
            coupled,
            mat,
        }) = guard.as_mut()
        {
            let delta = FactMaterializer::new(&self.global, &self.components, &self.meta)
                .delta_since(snapshot, coupled);
            if delta.is_none() && !rebuild {
                return Ok(false);
            }
            let mode = if delta.is_some() { "diff" } else { "rebuild" };
            let _span = obs::span!("qp.saturate.sync", "qp", "mode={mode}");
            let stats = match delta {
                Some(delta) => mat.apply(&delta),
                None => {
                    let next = FederationDb::build(&self.global, &self.components, &self.meta)?;
                    mat.sync_base(next.facts())
                }
            };
            if obs::enabled() {
                obs::counter_add(
                    &obs::labeled("fedoo_qp_saturate_sync_total", "mode", mode),
                    1,
                );
            }
            obs::instant!(
                "qp.saturate.delta",
                "qp",
                "+{} -{} rederived {}",
                stats.physical_inserts,
                stats.physical_removes,
                stats.rederived
            );
            *snapshot = Arc::clone(&self.components);
            return Ok(true);
        }
        if !rebuild {
            return Ok(false);
        }
        let mut db = FederationDb::build(&self.global, &self.components, &self.meta)?;
        match MaterializedProgram::new(db.program().clone(), db.facts()) {
            Ok(mat) => {
                *self.sat_eval.lock().unwrap() = Some(mat.initial_stats());
                *guard = Some(SatState::Incremental {
                    snapshot: Arc::clone(&self.components),
                    coupled: CoupledClasses::of(&self.global),
                    mat,
                });
            }
            Err(_) => {
                // Program shapes the maintainer rejects (class-variable
                // rules, non-stratifiable negation) keep the historical
                // rebuild-per-epoch behaviour.
                let eval = db.saturate()?;
                *self.sat_eval.lock().unwrap() = Some(eval);
                *guard = Some(SatState::Full(versions, db));
            }
        }
        Ok(true)
    }

    /// The component indices a plan can read, or `None` when it must be
    /// assumed to read everything (the `FullSaturate` fallback).
    ///
    /// Scan targets alone are *not* a sound footprint: materializing a
    /// global class evaluates its attribute-origin recipes, and
    /// intersection/difference/concat recipes compare value sets from the
    /// *other* source component even when no target row comes from it. So
    /// every global class a plan touches contributes all of its source
    /// components and all components feeding its attribute origins;
    /// derived scans contribute the same for every class in their
    /// relevance closure (the facts the closure can derive from).
    fn plan_footprint(&self, plan: &QueryPlan) -> Option<Vec<usize>> {
        let comp_idx = self.plan_context.comp_idx();
        let mut out = BTreeSet::new();
        if !self.node_footprint(&plan.root, comp_idx, &mut out) {
            return None;
        }
        Some(out.into_iter().collect())
    }

    /// Accumulate `node`'s readable components into `out`; `false` means
    /// the plan reads arbitrarily (no footprint can be claimed).
    fn node_footprint(
        &self,
        node: &PlanNode,
        comp_idx: &BTreeMap<String, usize>,
        out: &mut BTreeSet<usize>,
    ) -> bool {
        match node {
            PlanNode::FullSaturate { .. } => false,
            PlanNode::Seed(scan) => self.scan_footprint(scan, comp_idx, out),
            PlanNode::Filter { input, .. } => self.node_footprint(input, comp_idx, out),
            PlanNode::Join { input, scan, .. } | PlanNode::AntiJoin { input, scan, .. } => {
                self.node_footprint(input, comp_idx, out)
                    && self.scan_footprint(scan, comp_idx, out)
            }
        }
    }

    fn scan_footprint(
        &self,
        scan: &ScanNode,
        comp_idx: &BTreeMap<String, usize>,
        out: &mut BTreeSet<usize>,
    ) -> bool {
        match &scan.kind {
            ScanKind::Base { targets } => {
                for t in targets {
                    out.insert(t.comp_idx);
                }
                self.class_footprint(&scan.relation, comp_idx, out);
                true
            }
            ScanKind::Derived {
                relevant, pruned, ..
            } => {
                if *pruned {
                    return true; // reads nothing by construction
                }
                for class in relevant {
                    self.class_footprint(class, comp_idx, out);
                }
                true
            }
        }
    }

    /// All components that materializing global class `name` can read:
    /// its source extents, every component feeding an attribute origin
    /// recipe, and, with a non-empty object pairing, every component
    /// before its last source, since an identity bridge puts an object of
    /// an earlier component into the class of its partner. Unknown names
    /// (derived predicates without an integrated class) contribute
    /// nothing — their facts come from rules over other relations, which
    /// the relevance closure lists separately.
    fn class_footprint(
        &self,
        name: &str,
        comp_idx: &BTreeMap<String, usize>,
        out: &mut BTreeSet<usize>,
    ) {
        if let Some(class) = self.global.integrated.class(name) {
            let sources = class
                .sources
                .iter()
                .filter_map(|src| comp_idx.get(src.schema.as_str()).copied());
            let last = sources.clone().max();
            out.extend(sources);
            if let Some(last) = last.filter(|_| !self.meta.pairing.is_empty()) {
                out.extend(0..last);
            }
            for origin in class.attr_origins.values() {
                for src in origin.sources() {
                    if let Some(&i) = comp_idx.get(src.schema.as_str()) {
                        out.insert(i);
                    }
                }
            }
        }
    }
}

/// The `qp.ask` span an answer runs in, parsing included.
fn ask_span(strategy: QueryStrategy) -> obs::SpanGuard {
    obs::span!("qp.ask", "qp", "strategy={}", strategy.as_str())
}

/// The result-cache key of `query` under `strategy`: its canonical body,
/// so the lookup needs no plan. Texts that differ only in whitespace or
/// comments share a key; distinct bodies never do, since the canonical
/// rendering of a parsed query is unambiguous (string constants cannot
/// hold a quote).
fn cache_key(strategy: QueryStrategy, query: &GlobalQuery) -> String {
    format!("{}|{}", strategy.as_str(), query.canonical())
}

/// The short fingerprint of `plan` answering `query` under `strategy`.
/// A `FullSaturate` plan's fingerprint carries only the fallback reason
/// and the answer vars, so the canonical body is mixed in: each fallback
/// query reports its own shape.
fn plan_fingerprint(strategy: QueryStrategy, plan: &QueryPlan, query: &GlobalQuery) -> String {
    let strategy = strategy.as_str();
    short_fp(&match plan.root {
        PlanNode::FullSaturate { .. } => {
            format!("{strategy}|{}|{}", plan.fingerprint(), query.canonical())
        }
        _ => format!("{strategy}|{}", plan.fingerprint()),
    })
}

/// FNV-1a/64 of a plan's identity, rendered as 16 hex chars — short
/// enough for slow-log lines and trace details, collision-safe at any
/// plausible number of distinct plan shapes, and stable across runs (the
/// identity embeds the statistics-free plan fingerprint).
fn short_fp(key: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Project substitutions onto the answer variables, sort, deduplicate.
pub fn normalize_rows(substs: &[Subst], vars: &[String]) -> Vec<Vec<Value>> {
    let mut rows: Vec<Vec<Value>> = substs
        .iter()
        .map(|s| {
            vars.iter()
                .map(|v| s.value_of(&Term::var(v.clone())).unwrap_or(Value::Null))
                .collect()
        })
        .collect();
    rows.sort();
    rows.dedup();
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ScanKind;
    use crate::QpError;
    use assertions::{AttrCorr, AttrOp, ClassAssertion, ClassOp, SPath};
    use federation::agent::Agent;
    use oo_model::{AttrType, Oid, SchemaBuilder};

    /// Two libraries with equivalent book classes and integer years.
    fn library_fsm() -> Fsm {
        let s1 = SchemaBuilder::new("x")
            .class("book", |c| {
                c.attr("title", AttrType::Str).attr("year", AttrType::Int)
            })
            .build()
            .unwrap();
        let mut st1 = InstanceStore::new();
        st1.create(&s1, "book", |o| {
            o.with_attr("title", "Logic").with_attr("year", 1987i64)
        })
        .unwrap();
        st1.create(&s1, "book", |o| {
            o.with_attr("title", "Sets").with_attr("year", 1960i64)
        })
        .unwrap();
        let s2 = SchemaBuilder::new("x")
            .class("publication", |c| {
                c.attr("ptitle", AttrType::Str).attr("pyear", AttrType::Int)
            })
            .build()
            .unwrap();
        let mut st2 = InstanceStore::new();
        st2.create(&s2, "publication", |o| {
            o.with_attr("ptitle", "Databases")
                .with_attr("pyear", 1999i64)
        })
        .unwrap();
        let mut fsm = Fsm::new();
        fsm.register(Agent::object_oriented("a1", s1, st1), "S1")
            .unwrap();
        fsm.register(Agent::object_oriented("a2", s2, st2), "S2")
            .unwrap();
        fsm.add_assertion(
            ClassAssertion::simple("S1", "book", ClassOp::Equiv, "S2", "publication")
                .attr_corr(AttrCorr::new(
                    SPath::attr("S1", "book", "title"),
                    AttrOp::Equiv,
                    SPath::attr("S2", "publication", "ptitle"),
                ))
                .attr_corr(AttrCorr::new(
                    SPath::attr("S1", "book", "year"),
                    AttrOp::Equiv,
                    SPath::attr("S2", "publication", "pyear"),
                )),
        );
        fsm
    }

    /// Faculty ∩ student — integration generates virtual classes with
    /// rules, so queries over them exercise the derived fallback.
    fn campus_fsm() -> Fsm {
        let s1 = SchemaBuilder::new("x")
            .class("faculty", |c| {
                c.attr("fssn", AttrType::Str).attr("income", AttrType::Int)
            })
            .build()
            .unwrap();
        let mut st1 = InstanceStore::new();
        st1.create(&s1, "faculty", |o| {
            o.with_attr("fssn", "123").with_attr("income", 3000i64)
        })
        .unwrap();
        st1.create(&s1, "faculty", |o| {
            o.with_attr("fssn", "999").with_attr("income", 4000i64)
        })
        .unwrap();
        let s2 = SchemaBuilder::new("x")
            .class("student", |c| {
                c.attr("ssn", AttrType::Str)
                    .attr("study_support", AttrType::Int)
            })
            .build()
            .unwrap();
        let mut st2 = InstanceStore::new();
        st2.create(&s2, "student", |o| {
            o.with_attr("ssn", "123")
                .with_attr("study_support", 1000i64)
        })
        .unwrap();
        st2.create(&s2, "student", |o| {
            o.with_attr("ssn", "555").with_attr("study_support", 800i64)
        })
        .unwrap();
        let mut fsm = Fsm::new();
        fsm.register(Agent::object_oriented("a1", s1, st1), "S1")
            .unwrap();
        fsm.register(Agent::object_oriented("a2", s2, st2), "S2")
            .unwrap();
        fsm.add_assertion(
            ClassAssertion::simple("S1", "faculty", ClassOp::Intersect, "S2", "student").attr_corr(
                AttrCorr::new(
                    SPath::attr("S1", "faculty", "fssn"),
                    AttrOp::Equiv,
                    SPath::attr("S2", "student", "ssn"),
                ),
            ),
        );
        fsm
    }

    fn merged_class(engine: &QueryEngine) -> String {
        engine
            .global()
            .global_class("S1", "book")
            .unwrap()
            .to_string()
    }

    #[test]
    fn planned_equals_saturate_on_merged_class() {
        let fsm = library_fsm();
        let engine = QueryEngine::connect(&fsm, IntegrationStrategy::Accumulation).unwrap();
        let g = merged_class(&engine);
        let text = format!("?- <X: {g} | title: T>.");
        let planned = engine.ask_text(&text, QueryStrategy::Planned).unwrap();
        let saturate = engine.ask_text(&text, QueryStrategy::Saturate).unwrap();
        assert_eq!(planned.rows.len(), 3, "{}", planned.render_human());
        assert_eq!(planned.rows, saturate.rows);
        assert_eq!(planned.vars, vec!["X", "T"]);
    }

    #[test]
    fn ask_emits_spans_and_publishes_metrics() {
        let _guard = obs::test_guard();
        obs::install(obs::TimeSource::monotonic());
        let fsm = library_fsm();
        let engine = QueryEngine::connect(&fsm, IntegrationStrategy::Accumulation).unwrap();
        let g = merged_class(&engine);
        let text = format!("?- <X: {g} | title: T>.");
        let answer = engine.ask_text(&text, QueryStrategy::Planned).unwrap();
        let session = obs::uninstall().expect("installed above");
        let names: std::collections::BTreeSet<&str> = session
            .trace
            .events
            .iter()
            .map(|e| e.name.as_str())
            .collect();
        for expected in [
            "qp.ask",
            "qp.plan",
            "qp.execute",
            "qp.op.seed",
            "qp.op.scan",
        ] {
            assert!(
                names.contains(expected),
                "missing span {expected}: {names:?}"
            );
        }
        // `publish()` pushed this query's view into the cumulative
        // registry. Unguarded sibling tests may add to the same counters
        // while the sink is installed, hence lower bounds, not equality.
        assert!(
            session.metrics.counter("fedoo_qp_rows_emitted_total") >= answer.rows.len() as u64,
            "rows_emitted counter not published"
        );
        assert!(session.metrics.counter("fedoo_qp_cache_misses_total") >= 1);
    }

    #[test]
    fn explain_analyze_profiles_a_real_execution() {
        let fsm = library_fsm();
        let engine = QueryEngine::connect(&fsm, IntegrationStrategy::Accumulation).unwrap();
        let g = merged_class(&engine);
        let text = format!("?- <X: {g} | title: T>.");
        let analyzed = engine.ask_analyze(&text, QueryStrategy::Planned).unwrap();
        assert_eq!(analyzed.answer.rows.len(), 3);
        assert!(!analyzed.answer.from_cache);
        assert_eq!(analyzed.profile.op, "seed");
        assert_eq!(analyzed.profile.rows_out, 3);
        let rendered = analyzed.render_human();
        assert!(
            rendered.contains("(actual 3 rows,"),
            "missing actuals:\n{rendered}"
        );
        // Analyze bypassed the cache on read but still populated it.
        let again = engine.ask_text(&text, QueryStrategy::Planned).unwrap();
        assert!(again.from_cache);
        // A later analyze still reflects a real execution, not a replay.
        let re = engine.ask_analyze(&text, QueryStrategy::Planned).unwrap();
        assert!(!re.answer.from_cache);
        assert_eq!(re.answer.rows, analyzed.answer.rows);
    }

    #[test]
    fn explain_analyze_fallback_profiles_single_node() {
        let fsm = library_fsm();
        let engine = QueryEngine::connect(&fsm, IntegrationStrategy::Accumulation).unwrap();
        // A higher-order class variable forces the fallback plan.
        let text = "?- <X: C>.";
        let analyzed = engine.ask_analyze(text, QueryStrategy::Planned).unwrap();
        assert_eq!(analyzed.profile.op, "full-saturate");
        assert!(matches!(analyzed.plan.root, PlanNode::FullSaturate { .. }));
        let rendered = analyzed.render_human();
        assert!(
            rendered.contains("full-saturate fallback") && rendered.contains("(actual"),
            "fallback line missing actuals:\n{rendered}"
        );
    }

    #[test]
    fn pushdown_prunes_rows_and_shows_in_plan() {
        let fsm = library_fsm();
        let engine = QueryEngine::connect(&fsm, IntegrationStrategy::Accumulation).unwrap();
        let g = merged_class(&engine);
        let text = format!("?- <X: {g} | year: Y>, Y >= 1987.");
        let plan = engine.explain(&text).unwrap();
        assert!(
            plan.render_human().contains("pushdown[year"),
            "{}",
            plan.render_human()
        );
        let planned = engine.ask_text(&text, QueryStrategy::Planned).unwrap();
        let saturate = engine.ask_text(&text, QueryStrategy::Saturate).unwrap();
        assert_eq!(planned.rows, saturate.rows);
        assert_eq!(planned.rows.len(), 2);
        assert!(planned.stats.pushdown_preds >= 1);
        assert_eq!(planned.stats.pushdown_pruned, 1, "the 1960 book");
    }

    #[test]
    fn derived_class_goes_goal_directed() {
        let fsm = campus_fsm();
        let engine = QueryEngine::connect(&fsm, IntegrationStrategy::Accumulation).unwrap();
        // Find a rule-derived relation in the global program.
        let derived = engine
            .global()
            .rules
            .iter()
            .filter(|r| r.heads.len() == 1)
            .filter_map(|r| r.head().and_then(|h| h.relation()))
            .next()
            .expect("intersection generates rules")
            .to_string();
        let text = format!("?- <X: {derived}>.");
        let plan = engine.explain(&text).unwrap();
        let is_derived = match &plan.root {
            crate::plan::PlanNode::Seed(s) => matches!(s.kind, ScanKind::Derived { .. }),
            other => panic!("expected seed scan, got {other:?}"),
        };
        assert!(is_derived, "{}", plan.render_human());
        let planned = engine.ask_text(&text, QueryStrategy::Planned).unwrap();
        let saturate = engine.ask_text(&text, QueryStrategy::Saturate).unwrap();
        assert_eq!(planned.rows, saturate.rows);
    }

    /// A derived scan joined against a base seed is demand-seeded: the
    /// plan advertises the demand key, execution runs the magic-sets
    /// evaluation (visible in the stats and the analyze rendering), and
    /// the answer still matches the saturate oracle.
    #[test]
    fn demand_seeded_join_matches_saturate() {
        let fsm = campus_fsm();
        let engine = QueryEngine::connect(&fsm, IntegrationStrategy::Accumulation).unwrap();
        let (text, _) = campus_demand_query(&engine);
        let plan = engine.explain(&text).unwrap();
        assert!(
            plan.render_human().contains("demand on X"),
            "derived scan not demand-annotated:\n{}",
            plan.render_human()
        );
        let analyzed = engine.ask_analyze(&text, QueryStrategy::Planned).unwrap();
        let saturate = engine.ask_text(&text, QueryStrategy::Saturate).unwrap();
        assert_eq!(analyzed.answer.rows, saturate.rows);
        assert!(
            analyzed.answer.stats.demanded_facts > 0,
            "demand evaluation did not run: {:?}",
            analyzed.answer.stats
        );
        let rendered = analyzed.render_human();
        assert!(
            rendered.contains("demanded,"),
            "analyze rendering missing demand actuals:\n{rendered}"
        );
        // With demand disabled the same query still answers identically
        // through full closure saturation.
        let plain = QueryEngine::connect(&fsm, IntegrationStrategy::Accumulation).unwrap();
        plain.set_demand_enabled(false);
        let no_demand_plan = plain.explain(&text).unwrap();
        assert!(
            !no_demand_plan.render_human().contains("demand on"),
            "{}",
            no_demand_plan.render_human()
        );
        let off = plain.ask_text(&text, QueryStrategy::Planned).unwrap();
        assert_eq!(off.rows, saturate.rows);
        assert_eq!(off.stats.demanded_facts, 0);
    }

    /// A faculty scan joined to the campus intersection: its derived scan
    /// is demand-seeded on `X`.
    fn campus_demand_query(engine: &QueryEngine) -> (String, String) {
        let derived = engine
            .global()
            .rules
            .iter()
            .filter(|r| r.heads.len() == 1)
            .filter_map(|r| r.head().and_then(|h| h.relation()))
            .next()
            .expect("intersection generates rules")
            .to_string();
        let g = engine
            .global()
            .global_class("S1", "faculty")
            .unwrap()
            .to_string();
        (format!("?- <X: {g} | income: I>, <X: {derived}>."), derived)
    }

    /// The reference rows of `text`: `Saturate` on a fresh engine.
    fn reference_rows(engine: &QueryEngine, text: &str) -> Vec<Vec<Value>> {
        QueryEngine::from_parts_arc(
            engine.global().clone(),
            engine.components_arc(),
            engine.meta().clone(),
        )
        .ask_text(text, QueryStrategy::Saturate)
        .unwrap()
        .rows
    }

    /// A second execution over the same snapshot reuses the lineage's
    /// deduction state, and its seeds, all demanded by the first, run no
    /// evaluation: no `deduction.demand` span and no demand facts.
    #[test]
    fn an_already_demanded_seed_runs_no_evaluation() {
        let _guard = obs::test_guard();
        let engine =
            QueryEngine::connect(&campus_fsm(), IntegrationStrategy::Accumulation).unwrap();
        let (text, _) = campus_demand_query(&engine);
        let first = engine.ask_analyze(&text, QueryStrategy::Planned).unwrap();
        assert!(first.answer.stats.demanded_facts > 0);
        obs::install(obs::TimeSource::monotonic());
        obs::instant!("test.thread", "test");
        let again = engine.ask_analyze(&text, QueryStrategy::Planned).unwrap();
        let trace = obs::uninstall().expect("installed above").trace;
        let tid = trace
            .events
            .iter()
            .find(|e| e.name == "test.thread")
            .expect("thread marker recorded")
            .tid;
        let begins = |name: &str| {
            trace
                .events
                .iter()
                .filter(|e| e.tid == tid && e.name == name && e.phase == obs::Phase::Begin)
                .count()
        };
        assert_eq!(begins("qp.derived_state"), 1);
        assert_eq!(
            begins("deduction.demand"),
            0,
            "a demanded seed was evaluated"
        );
        assert_eq!(begins("federation.materialize"), 0, "the state was rebuilt");
        assert_eq!(again.answer.stats.demanded_facts, 0);
        assert_eq!(again.answer.stats.derived_facts, 0);
        assert_eq!(again.answer.rows, first.answer.rows);
        assert_eq!(again.answer.rows, reference_rows(&engine, &text));
        let stats = engine.derived_state_stats();
        assert_eq!((stats.builds, stats.hits, stats.entries), (1, 1, 1));
    }

    /// A degraded execution builds its state from the partial snapshot
    /// for itself: it neither reads the installed state nor installs one.
    #[test]
    fn degraded_executions_neither_read_nor_install_a_state() {
        let engine =
            QueryEngine::connect(&campus_fsm(), IntegrationStrategy::Accumulation).unwrap();
        let (text, _) = campus_demand_query(&engine);
        let dark = || {
            engine.apply_fault_plan(
                FaultPlan::none().with("S2", federation::connector::FaultKind::Error),
                RetryPolicy::default(),
            )
        };
        let counts = |s: DerivedStateStats| (s.hits, s.builds, s.bypasses, s.entries);
        dark();
        let partial = engine.ask_analyze(&text, QueryStrategy::Planned).unwrap();
        assert!(!partial.answer.completeness.is_complete());
        assert_eq!(counts(engine.derived_state_stats()), (0, 0, 1, 0));
        engine.clear_fault_plan();
        let healthy = engine.ask_analyze(&text, QueryStrategy::Planned).unwrap();
        assert_eq!(healthy.answer.rows, reference_rows(&engine, &text));
        assert_eq!(counts(engine.derived_state_stats()), (0, 1, 1, 1));
        dark();
        let partial = engine.ask_analyze(&text, QueryStrategy::Planned).unwrap();
        assert!(!partial.answer.completeness.is_complete());
        assert_eq!(counts(engine.derived_state_stats()), (0, 1, 2, 1));
    }

    /// An evaluation that fails against the installed state takes the
    /// state with it; the next execution builds a new one.
    #[test]
    fn an_evaluation_error_leaves_no_state_behind() {
        let engine =
            QueryEngine::connect(&campus_fsm(), IntegrationStrategy::Accumulation).unwrap();
        let (text, derived) = campus_demand_query(&engine);
        let plan = engine.explain(&text).unwrap();
        // A negative self-loop on the scanned relation: safe, so the
        // state keeps it, but not stratifiable, so evaluation fails.
        let mut broken = engine.global().clone();
        broken.rules.extend(
            analysis::parse_rules(&format!(
                "<X: {derived}> :- <X: {derived}>, not <X: {derived}>."
            ))
            .unwrap(),
        );
        let states = DerivedStates::default();
        let run = |global: &GlobalSchema| {
            let caches = exec::Caches {
                scan_cache: &engine.scan_cache,
                states: &states,
            };
            exec::execute(
                &plan,
                global,
                engine.components(),
                engine.meta(),
                &BTreeSet::new(),
                caches,
                None,
            )
        };
        assert!(run(&broken).is_err());
        let stats = states.stats();
        assert_eq!((stats.builds, stats.entries), (1, 0));
        let rows = run(engine.global()).unwrap().rows;
        assert_eq!(rows, reference_rows(&engine, &text));
        let stats = states.stats();
        assert_eq!((stats.builds, stats.entries), (2, 1));
    }

    /// A panic while evaluating against the installed state removes it
    /// too: the next execution builds a new one and answers correctly.
    #[test]
    fn a_panic_during_evaluation_removes_the_state() {
        let engine =
            QueryEngine::connect(&campus_fsm(), IntegrationStrategy::Accumulation).unwrap();
        let (text, _) = campus_demand_query(&engine);
        engine.ask_analyze(&text, QueryStrategy::Planned).unwrap();
        let entry = engine.derived_states.installed().pop().unwrap();
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine
                .derived_states
                .write(&entry, |_| -> Result<()> { panic!("evaluation panicked") })
        }));
        assert!(panicked.is_err());
        assert_eq!(engine.derived_state_stats().entries, 0);
        assert!(engine.derived_states.read(&entry, |_| ()).is_none());
        assert!(engine
            .derived_states
            .write(&entry, |_| Ok::<_, ()>(()))
            .is_none());
        let again = engine.ask_analyze(&text, QueryStrategy::Planned).unwrap();
        assert_eq!(again.answer.rows, reference_rows(&engine, &text));
        let stats = engine.derived_state_stats();
        assert_eq!((stats.builds, stats.entries), (2, 1));
    }

    /// A write to the engine's store drops its deduction states: asks
    /// after it answer for the new snapshot, and the engine holds only
    /// the states they built, as a fresh engine over that snapshot would.
    #[test]
    fn a_store_write_drops_the_engines_states() {
        // Faculty 123 is a student; faculty 999 becomes one when the
        // write below creates the third student.
        let mut fsm = campus_fsm();
        fsm.meta
            .pairing
            .pair(Oid::local("faculty", 1), Oid::local("student", 1));
        fsm.meta
            .pairing
            .pair(Oid::local("faculty", 2), Oid::local("student", 3));
        let mut engine = QueryEngine::connect(&fsm, IntegrationStrategy::Accumulation).unwrap();
        let (seeded, derived) = campus_demand_query(&engine);
        let unseeded = format!("?- <X: {derived}>.");
        let before = engine.ask_analyze(&seeded, QueryStrategy::Planned).unwrap();
        assert_eq!(before.answer.rows, reference_rows(&engine, &seeded));
        assert_eq!(before.answer.rows.len(), 1);
        assert_eq!(engine.derived_state_stats().entries, 1);
        let schema = engine.components()[1].0.clone();
        engine
            .component_store_mut(1)
            .unwrap()
            .create(&schema, "student", |o| {
                o.with_attr("ssn", "999").with_attr("study_support", 500i64)
            })
            .unwrap();
        assert_eq!(engine.derived_state_stats().entries, 0);
        let fresh = QueryEngine::from_parts_arc(
            engine.global().clone(),
            engine.components_arc(),
            engine.meta().clone(),
        );
        for text in [&unseeded, &seeded] {
            let got = engine.ask_analyze(text, QueryStrategy::Planned).unwrap();
            assert_eq!(got.answer.rows, reference_rows(&engine, text), "{text}");
            fresh.ask_analyze(text, QueryStrategy::Planned).unwrap();
        }
        let after = engine.ask_analyze(&seeded, QueryStrategy::Planned).unwrap();
        assert_eq!(after.answer.rows.len(), 2, "the write shows");
        assert_eq!(
            engine.derived_state_stats().entries,
            fresh.derived_state_stats().entries
        );
    }

    /// Executions that find every seed demanded read the state together:
    /// one holding the read lock does not keep another out.
    #[test]
    fn demanded_seeds_are_read_under_a_shared_lock() {
        let engine =
            QueryEngine::connect(&campus_fsm(), IntegrationStrategy::Accumulation).unwrap();
        let (text, _) = campus_demand_query(&engine);
        let first = engine.ask_analyze(&text, QueryStrategy::Planned).unwrap();
        let entry = engine.derived_states.installed().pop().unwrap();
        let again = engine
            .derived_states
            .read(&entry, |_| {
                std::thread::scope(|s| {
                    s.spawn(|| engine.ask_analyze(&text, QueryStrategy::Planned))
                        .join()
                        .unwrap()
                })
            })
            .unwrap()
            .unwrap();
        assert_eq!(again.answer.rows, first.answer.rows);
        assert_eq!(again.answer.stats.demanded_facts, 0);
    }

    /// A panic while the lineage's saturate state is locked leaves the
    /// engine serving: the state resets to cold, planned reads keep their
    /// own evaluation, and the next `Saturate` ask rebuilds it.
    #[test]
    fn a_poisoned_saturate_state_resets_and_keeps_serving() {
        let engine = Arc::new(
            QueryEngine::connect(&campus_fsm(), IntegrationStrategy::Accumulation).unwrap(),
        );
        let (text, _) = campus_demand_query(&engine);
        let want = reference_rows(&engine, &text);
        engine.ask_text(&text, QueryStrategy::Saturate).unwrap();
        assert!(engine.is_warm());
        let holder = Arc::clone(&engine);
        let panicked = std::thread::spawn(move || {
            let _state = holder.saturate_state().lock().unwrap();
            panic!("panic while holding the saturate state");
        })
        .join();
        assert!(panicked.is_err());
        assert!(engine.saturate_state().is_poisoned());
        let planned = engine.ask_analyze(&text, QueryStrategy::Planned).unwrap();
        assert_eq!(planned.answer.rows, want);
        assert!(!engine.is_warm(), "the poisoned state was reset to cold");
        let saturate = engine.ask_analyze(&text, QueryStrategy::Saturate).unwrap();
        assert_eq!(saturate.answer.rows, want);
        assert!(engine.is_warm());
        let planned = engine.ask_analyze(&text, QueryStrategy::Planned).unwrap();
        assert_eq!(planned.answer.rows, want);
    }

    /// A derived relation whose only rule reads a relation that can never
    /// hold a fact is provably empty: the planner prunes its scan (no
    /// deduction state is even built), the explain output says so, and
    /// the answer still matches the saturate oracle (zero rows).
    #[test]
    fn provably_empty_derived_scan_is_pruned() {
        let fsm = campus_fsm();
        let mut global = fsm.integrate(IntegrationStrategy::Accumulation).unwrap();
        // `ghost` has no origin extent and heads no rule, so the abstract
        // interpreter proves `phantom` empty.
        global
            .rules
            .extend(analysis::parse_rules("<X: phantom> :- <X: ghost>.").unwrap());
        let components: Vec<(Schema, InstanceStore)> = fsm
            .components()
            .iter()
            .map(|c| (c.schema.clone(), c.store.clone()))
            .collect();
        let engine = QueryEngine::from_parts(global, components, fsm.meta.clone());
        let text = "?- <X: phantom>.";
        let plan = engine.explain(text).unwrap();
        let rendered = plan.render_human();
        assert!(
            rendered.contains("pruned: provably empty"),
            "scan not pruned:\n{rendered}"
        );
        assert!(
            plan.fingerprint().contains("\"pruned\":true"),
            "pruning must be part of the fingerprint"
        );
        let planned = engine.ask_text(text, QueryStrategy::Planned).unwrap();
        let saturate = engine.ask_text(text, QueryStrategy::Saturate).unwrap();
        assert!(planned.rows.is_empty(), "{}", planned.render_human());
        assert_eq!(planned.rows, saturate.rows);
    }

    /// The abstract type signature annotates live derived scans: the
    /// campus intersection class is provably a subset of its base
    /// operands, so its scan line carries `est via type σ{…}` and the
    /// estimate is capped by the smallest origin-mapped extent.
    #[test]
    fn derived_scan_estimate_tightened_by_type_signature() {
        let fsm = campus_fsm();
        let engine = QueryEngine::connect(&fsm, IntegrationStrategy::Accumulation).unwrap();
        let derived = engine
            .global()
            .rules
            .iter()
            .filter(|r| r.heads.len() == 1)
            .filter_map(|r| r.head().and_then(|h| h.relation()))
            .next()
            .expect("intersection generates rules")
            .to_string();
        let text = format!("?- <X: {derived}>.");
        let plan = engine.explain(&text).unwrap();
        let rendered = plan.render_human();
        assert!(
            rendered.contains("est via type σ{"),
            "derived scan missing σ annotation:\n{rendered}"
        );
        let est = match &plan.root {
            PlanNode::Seed(s) => s.est_rows,
            other => panic!("expected seed scan, got {other:?}"),
        };
        // Each campus component exports two objects; the signature caps
        // the estimate at one operand extent instead of their sum.
        assert!(est <= 2, "estimate not tightened: {est}\n{rendered}");
        let planned = engine.ask_text(&text, QueryStrategy::Planned).unwrap();
        let saturate = engine.ask_text(&text, QueryStrategy::Saturate).unwrap();
        assert_eq!(planned.rows, saturate.rows);
    }

    #[test]
    fn cache_hits_until_a_store_mutation() {
        let fsm = library_fsm();
        let mut engine = QueryEngine::connect(&fsm, IntegrationStrategy::Accumulation).unwrap();
        let g = merged_class(&engine);
        let text = format!("?- <X: {g} | title: T>.");
        let first = engine.ask_text(&text, QueryStrategy::Planned).unwrap();
        assert!(!first.from_cache);
        let second = engine.ask_text(&text, QueryStrategy::Planned).unwrap();
        assert!(second.from_cache);
        assert_eq!(second.rows, first.rows);
        assert_eq!(engine.cache_stats().hits, 1);

        // Mutate component 0 — its version bumps, the entry invalidates.
        let schema = engine.components()[0].0.clone();
        engine
            .component_store_mut(0)
            .unwrap()
            .create(&schema, "book", |o| {
                o.with_attr("title", "Proofs").with_attr("year", 2001i64)
            })
            .unwrap();
        let third = engine.ask_text(&text, QueryStrategy::Planned).unwrap();
        assert!(!third.from_cache);
        assert_eq!(third.rows.len(), first.rows.len() + 1);
        assert_eq!(engine.cache_stats().invalidations, 1);
        let saturate = engine.ask_text(&text, QueryStrategy::Saturate).unwrap();
        assert_eq!(third.rows, saturate.rows);
    }

    /// A hit is a lookup: it records no `qp.plan` span and no planning
    /// time, and reports the fingerprint of the plan that filled it.
    #[test]
    fn cache_hit_does_not_plan() {
        let _guard = obs::test_guard();
        obs::install(obs::TimeSource::monotonic());
        // Sibling tests keep asking without the guard: mark this thread
        // and keep only its events.
        obs::instant!("test.thread", "test");
        let fsm = library_fsm();
        let engine = QueryEngine::connect(&fsm, IntegrationStrategy::Accumulation).unwrap();
        let g = merged_class(&engine);
        let text = format!("?- <X: {g} | year: Y>, Y >= 1987.");
        let miss = engine.ask_text(&text, QueryStrategy::Planned).unwrap();
        let hit = engine.ask_text(&text, QueryStrategy::Planned).unwrap();
        let trace = obs::uninstall().expect("installed above").trace;
        let tid = trace
            .events
            .iter()
            .find(|e| e.name == "test.thread")
            .expect("thread marker recorded")
            .tid;
        let begins = |name: &str| {
            trace
                .events
                .iter()
                .filter(|e| e.tid == tid && e.name == name && e.phase == obs::Phase::Begin)
                .count()
        };
        assert!(!miss.from_cache && hit.from_cache);
        assert_eq!(begins("qp.ask"), 2);
        assert_eq!(begins("qp.cache"), 2, "both asks look the answer up");
        assert_eq!(begins("qp.plan"), 1, "only the miss plans");
        assert_eq!(hit.stats.plan_micros, 0);
        assert_eq!(hit.stats.cache_hits, 1);
        assert_eq!(hit.plan_fp, miss.plan_fp);
        assert_eq!((hit.vars, hit.rows), (miss.vars, miss.rows));
        let planned = engine.explain(&text).unwrap();
        assert_eq!(
            miss.plan_fp,
            short_fp(&format!("planned|{}", planned.fingerprint())),
            "the fingerprint is the plan's, as before the lookup moved"
        );
    }

    /// The key is the canonical body: texts that differ only in
    /// whitespace and comments share one entry.
    #[test]
    fn whitespace_variants_share_one_entry() {
        let fsm = library_fsm();
        let engine = QueryEngine::connect(&fsm, IntegrationStrategy::Accumulation).unwrap();
        let g = merged_class(&engine);
        let first = engine
            .ask_text(&format!("?- <X: {g} | title: T>."), QueryStrategy::Planned)
            .unwrap();
        let spaced = format!("?-\n  <X:{g}|title:T>  // any title\n  .");
        let second = engine.ask_text(&spaced, QueryStrategy::Planned).unwrap();
        assert!(!first.from_cache && second.from_cache);
        assert_eq!(second.rows, first.rows);
        assert_eq!(second.plan_fp, first.plan_fp);
        assert_eq!(engine.cache.len(), 1);
    }

    /// One lineage answers `Saturate` at generation N+1, then at the
    /// still-pinned N, then at N+1 again. The engines share one
    /// reference state (no copy per generation), the state moves both
    /// ways by base-fact sync, and every answer equals a fresh engine's
    /// at that generation.
    #[test]
    fn lineage_shares_one_saturate_state_across_generations() {
        let fsm = campus_fsm();
        let gen_n = QueryEngine::connect(&fsm, IntegrationStrategy::Accumulation).unwrap();
        // The derived "faculty but not student" class: faculty minus the
        // intersection, through negation.
        let faculty = gen_n
            .global()
            .global_class("S1", "faculty")
            .unwrap()
            .to_string();
        let derived = gen_n
            .global()
            .rules
            .iter()
            .find(|r| {
                r.body.iter().any(|l| l.is_negative())
                    && r.body[0].relation() == Some(faculty.as_str())
            })
            .and_then(|r| r.head()?.relation())
            .expect("intersection generates a difference rule")
            .to_string();
        let text = format!("?- <X: {derived}>.");
        gen_n.ask_text(&text, QueryStrategy::Saturate).unwrap();

        // Generation N+1: one more faculty member.
        let mut next = gen_n.components().to_vec();
        let (schema, store) = &mut next[0];
        store
            .create(schema, "faculty", |o| {
                o.with_attr("fssn", "555").with_attr("income", 10i64)
            })
            .unwrap();
        let gen_n1 = gen_n.successor(Arc::new(next));
        assert!(Arc::ptr_eq(gen_n.saturate_state(), gen_n1.saturate_state()));

        let fresh = |e: &QueryEngine| {
            QueryEngine::from_parts_arc(e.global().clone(), e.components_arc(), (*e.meta).clone())
                .ask_text(&text, QueryStrategy::Saturate)
                .unwrap()
                .rows
        };
        let (want_n, want_n1) = (fresh(&gen_n), fresh(&gen_n1));
        assert_ne!(want_n, want_n1, "the install must change the answer");
        for (engine, want) in [(&gen_n1, &want_n1), (&gen_n, &want_n), (&gen_n1, &want_n1)] {
            // Analyze bypasses the shared result cache, so every ask
            // reads the shared reference state.
            let got = engine.ask_analyze(&text, QueryStrategy::Saturate).unwrap();
            assert_eq!(&got.answer.rows, want);
            let state = engine.saturate_state().lock().unwrap();
            match state.as_ref() {
                Some(s @ SatState::Incremental { .. }) => {
                    assert!(s.answers_for(&engine.versions()))
                }
                _ => panic!("campus program must be maintained incrementally"),
            }
        }
    }

    /// One shared state moved forward and back through random generations
    /// of a lineage, over creates, updates and deletes on both sides of
    /// the campus intersection (one pair of objects is paired, so both
    /// sync modes run). At every step the rows equal a fresh engine's,
    /// the maintained base equals the facts a full rebuild gives (what
    /// `sync_base` would set), and the maintained database equals a fresh
    /// materialization of that base.
    #[test]
    fn shared_state_syncs_to_any_generation_of_its_lineage() {
        use deduction::materialize::all_facts;
        use oo_model::Oid;
        let mut fsm = campus_fsm();
        fsm.meta
            .pairing
            .pair(Oid::local("faculty", 1), Oid::local("student", 1));
        let root = QueryEngine::connect(&fsm, IntegrationStrategy::Accumulation).unwrap();
        let faculty = root.global().global_class("S1", "faculty").unwrap();
        let mut queries = vec![format!("?- <X: {faculty} | income: I>.")];
        for r in root.global().rules.iter().filter(|r| r.heads.len() == 1) {
            let head = r.head().and_then(|h| h.relation()).unwrap();
            queries.push(format!("?- <X: {head}>."));
        }
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut draw = |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        let mut gens = vec![root];
        for step in 0..16 {
            let prev = gens.last().unwrap();
            let mut next = prev.components().to_vec();
            let ci = draw(2);
            let (class, key, num) = [
                ("faculty", "fssn", "income"),
                ("student", "ssn", "study_support"),
            ][ci];
            let (schema, store) = &mut next[ci];
            let oids: Vec<Oid> = store.iter().map(|o| o.oid.clone()).collect();
            let pick = &oids[draw(oids.len())];
            match draw(3) {
                0 => {
                    store
                        .create(schema, class, |o| {
                            o.with_attr(key, format!("k{step}"))
                                .with_attr(num, step as i64)
                        })
                        .unwrap();
                }
                1 => store
                    .update(schema, pick, |o| o.with_attr(num, 100 + step as i64))
                    .unwrap(),
                _ if oids.len() > 1 => {
                    store.delete(pick);
                }
                _ => continue,
            }
            gens.push(prev.successor(Arc::new(next)));
        }
        let coupled = CoupledClasses::of(gens[0].global());
        let (mut diffs, mut rebuilds) = (0, 0);
        for _ in 0..40 {
            let engine = &gens[draw(gens.len())];
            if let Some(SatState::Incremental { snapshot, .. }) =
                engine.saturate_state().lock().unwrap().as_ref()
            {
                let m = FactMaterializer::new(&engine.global, &engine.components, &engine.meta);
                match m.delta_since(snapshot, &coupled) {
                    Some(_) => diffs += 1,
                    None => rebuilds += 1,
                }
            }
            for q in &queries {
                let got = engine.ask_analyze(q, QueryStrategy::Saturate).unwrap();
                let fresh = QueryEngine::from_parts_arc(
                    engine.global().clone(),
                    engine.components_arc(),
                    (*engine.meta).clone(),
                );
                let want = fresh.ask_text(q, QueryStrategy::Saturate).unwrap();
                assert_eq!(got.answer.rows, want.rows, "{q}");
            }
            let guard = engine.saturate_state().lock().unwrap();
            let Some(SatState::Incremental { mat, .. }) = guard.as_ref() else {
                panic!("campus program must be maintained incrementally");
            };
            let rebuilt =
                FederationDb::build(&engine.global, &engine.components, &engine.meta).unwrap();
            let base: BTreeSet<_> = all_facts(rebuilt.facts()).into_iter().collect();
            assert_eq!(mat.base_facts(), &base);
            let reference = MaterializedProgram::new(rebuilt.program().clone(), rebuilt.facts());
            assert_eq!(mat.live_facts(), reference.unwrap().live_facts());
        }
        assert!(
            diffs > 0 && rebuilds > 0,
            "diff {diffs}, rebuild {rebuilds}"
        );
    }

    #[test]
    fn validation_rejects_bad_queries() {
        let fsm = library_fsm();
        let engine = QueryEngine::connect(&fsm, IntegrationStrategy::Accumulation).unwrap();
        let g = merged_class(&engine);
        // Unknown attribute on a known class.
        let err = engine
            .ask_text(&format!("?- <X: {g} | pages: P>."), QueryStrategy::Planned)
            .unwrap_err();
        assert!(matches!(err, QpError::Rejected(_)), "{err}");
        // Unsafe: comparison over an unbound variable.
        let err = engine
            .ask_text("?- X > 5.", QueryStrategy::Saturate)
            .unwrap_err();
        assert!(matches!(err, QpError::Rejected(_)), "{err}");
    }

    #[test]
    fn higher_order_patterns_fall_back_to_saturation() {
        let fsm = library_fsm();
        let engine = QueryEngine::connect(&fsm, IntegrationStrategy::Accumulation).unwrap();
        let text = "?- <X: C>.";
        let plan = engine.explain(text).unwrap();
        assert!(
            matches!(plan.root, PlanNode::FullSaturate { .. }),
            "{}",
            plan.render_human()
        );
        let planned = engine.ask_text(text, QueryStrategy::Planned).unwrap();
        let saturate = engine.ask_text(text, QueryStrategy::Saturate).unwrap();
        assert_eq!(planned.rows, saturate.rows);
        assert!(!planned.rows.is_empty());
    }

    /// Two fallback queries sharing variable names and fallback reason
    /// must not collide in the result cache (their plan fingerprints are
    /// identical; only the body differs), and neither may planned queries
    /// with different bodies or one body under both strategies.
    #[test]
    fn fallback_cache_distinguishes_query_bodies() {
        let fsm = library_fsm();
        let engine = QueryEngine::connect(&fsm, IntegrationStrategy::Accumulation).unwrap();
        let g = merged_class(&engine);
        // A class variable pushes both queries into the FullSaturate
        // fallback with the same reason and the same vars [X, C, A].
        let q_title = format!("?- <X: C>, <X: {g} | title: A>.");
        let q_year = format!("?- <X: C>, <X: {g} | year: A>.");
        assert!(matches!(
            engine.explain(&q_title).unwrap().root,
            PlanNode::FullSaturate { .. }
        ));
        let titles = engine.ask_text(&q_title, QueryStrategy::Planned).unwrap();
        let years = engine.ask_text(&q_year, QueryStrategy::Planned).unwrap();
        assert!(!years.from_cache, "second query served the first's rows");
        assert_ne!(titles.rows, years.rows);
        let years_sat = engine.ask_text(&q_year, QueryStrategy::Saturate).unwrap();
        assert!(!years_sat.from_cache, "strategies must not collide either");
        assert_eq!(years.rows, years_sat.rows);
        // Same body again → now it may (and should) hit.
        let again = engine.ask_text(&q_year, QueryStrategy::Planned).unwrap();
        assert!(again.from_cache);
        assert_eq!(again.rows, years.rows);
        assert_ne!(titles.plan_fp, years.plan_fp);
        assert_ne!(years.plan_fp, years_sat.plan_fp);

        // Pipeline plans: bodies differing in one constant, in literal
        // order or in a variable name are different keys.
        let bodies = [
            format!("?- <X: {g} | title: T, year: Y>, Y >= 1987."),
            format!("?- <X: {g} | title: T, year: Y>, Y >= 1988."),
            format!("?- <X: {g} | title: T, year: Y>, Y >= 1987, T != \"Sets\"."),
            format!("?- <X: {g} | year: Y, title: T>, Y >= 1987."),
            format!("?- <Z: {g} | title: T, year: Y>, Y >= 1987."),
        ];
        let mut fps = BTreeSet::new();
        for body in &bodies {
            for strategy in [QueryStrategy::Planned, QueryStrategy::Saturate] {
                let answer = engine.ask_text(body, strategy).unwrap();
                assert!(!answer.from_cache, "{body} under {strategy:?} collided");
                let fresh = QueryEngine::connect(&fsm, IntegrationStrategy::Accumulation)
                    .unwrap()
                    .ask_text(body, strategy)
                    .unwrap();
                assert_eq!(answer.rows, fresh.rows, "{body}");
                fps.insert(answer.plan_fp);
            }
        }
        // Each strategy's fingerprint differs; the bodies that plan
        // differently differ too (the reordered attributes may not).
        assert!(fps.len() >= 8, "{fps:?}");
    }

    /// The planner's extent statistics are cached per version epoch and
    /// refreshed when a store mutates, so cardinality estimates track the
    /// data without rescanning every object on every ask.
    #[test]
    fn extent_stats_refresh_on_mutation() {
        let fsm = library_fsm();
        let mut engine = QueryEngine::connect(&fsm, IntegrationStrategy::Accumulation).unwrap();
        let g = merged_class(&engine);
        let text = format!("?- <X: {g} | title: T>.");
        engine.ask_text(&text, QueryStrategy::Planned).unwrap();
        let before = engine.explain(&text).unwrap().render_json();
        let schema = engine.components()[0].0.clone();
        engine
            .component_store_mut(0)
            .unwrap()
            .create(&schema, "book", |o| {
                o.with_attr("title", "Proofs").with_attr("year", 2001i64)
            })
            .unwrap();
        engine.ask_text(&text, QueryStrategy::Planned).unwrap();
        let after = engine.explain(&text).unwrap().render_json();
        assert_ne!(before, after, "estimates should track the new extent");
        assert!(before.contains("\"rows\":2"), "{before}");
        assert!(after.contains("\"rows\":3"), "{after}");
    }

    #[test]
    fn answer_renderings_are_deterministic() {
        let fsm = library_fsm();
        let engine = QueryEngine::connect(&fsm, IntegrationStrategy::Accumulation).unwrap();
        let g = merged_class(&engine);
        let text = format!("?- <X: {g} | title: T>.");
        let a = engine.ask_text(&text, QueryStrategy::Planned).unwrap();
        let human = a.render_human();
        assert!(human.contains("X"), "{human}");
        assert!(human.contains("(3 rows)"), "{human}");
        let json = a.render_json();
        assert!(json.starts_with("{\"vars\":[\"X\",\"T\"],\"rows\":[["));
        assert!(json.ends_with("\"strategy\":\"planned\",\"from_cache\":false}"));
        assert_eq!(json.matches("\"Logic\"").count(), 1);
    }

    /// Compile-time pin: the serving layer hands `Arc<QueryEngine>` to
    /// worker threads, so losing either bound is an API break even if no
    /// test happens to exercise it.
    #[test]
    fn engine_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<QueryEngine>();
        assert_send_sync::<std::sync::Arc<QueryEngine>>();
    }

    #[test]
    fn concurrent_asks_through_arc_agree_with_single_caller() {
        let fsm = library_fsm();
        let engine = std::sync::Arc::new(
            QueryEngine::connect(&fsm, IntegrationStrategy::Accumulation).unwrap(),
        );
        let g = merged_class(&engine);
        let text = format!("?- <X: {g} | title: T>.");
        let expect = engine.ask_text(&text, QueryStrategy::Planned).unwrap().rows;
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let engine = std::sync::Arc::clone(&engine);
                let text = text.clone();
                std::thread::spawn(move || {
                    for _ in 0..25 {
                        let planned = engine.ask_text(&text, QueryStrategy::Planned).unwrap();
                        let saturate = engine.ask_text(&text, QueryStrategy::Saturate).unwrap();
                        assert_eq!(planned.rows, saturate.rows);
                        assert_eq!(planned.rows.len(), 3);
                    }
                    engine.ask_text(&text, QueryStrategy::Planned).unwrap().rows
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), expect);
        }
        // The shared cache absorbed most of the repeats without tearing.
        let stats = engine.cache_stats();
        assert!(stats.hits > 0, "{stats:?}");
    }
}
