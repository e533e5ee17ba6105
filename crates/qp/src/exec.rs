//! Scatter-gather plan execution.
//!
//! A base scan reads each component target's facts of the scanned class
//! through the lineage's [`ScanCache`]: the cache's per-partition entries,
//! read by reference, so only partitions a write copied since the last
//! scan are materialised, and an equality or range pushdown probes an
//! entry's column index instead of filtering the whole extent (a degraded
//! execution bypasses the cache and materialises each extent for the scan
//! alone). The facts are filtered by the pushed-down predicates and
//! unified into substitution batches, which stream into the hash-join
//! pipeline.
//!
//! A derived scan reads a warm engine's maintained reference state when
//! the caller passes one ([`MaintainedRows`]) and it reaches the snapshot
//! cheaply. Otherwise it is answered from a restricted deduction state: a
//! [`FederationDb`] over the union of the plan's relevance closures, whose
//! base facts are read through the scan cache. A healthy execution takes
//! that state from the engine's [`DerivedStates`], where earlier
//! executions over the same snapshot left it with everything they
//! derived, or builds and installs it, so a derived miss pays only for the
//! demand it adds. A demand-seeded scan evaluates only the seed keys the
//! state holds no demand for yet and reads the goal by its seed keys; any
//! other derived scan saturates the state once. A degraded execution
//! builds a state for itself. Every stage feeds counters into
//! [`QpStats`].
//!
//! Answers are normalised to rows of values over the plan's answer
//! variables, sorted and deduplicated — identical, by construction and by
//! the differential test suite, to what the saturate-everything reference
//! evaluator produces.

use crate::derived_state::{DerivedStates, State, StateKey};
use crate::engine::normalize_rows;
use crate::plan::{demand_key, DemandKey, PlanNode, QueryPlan, ScanKind, ScanNode, ScanTarget};
use crate::scan_cache::{Extent, ScanCache};
use crate::{QpError, Result};
use deduction::term::{Literal, OTermPat, Term};
use deduction::unify::unify_oterm_pattern;
use deduction::{key_term, FactDb, Subst, DEMAND_PREFIX};
use federation::fsm::GlobalSchema;
use federation::mapping::MetaRegistry;
use federation::{FactMaterializer, FederationDb};
use fedoo_core::QpStats;
use oo_model::{InstanceStore, Schema, Value};
use relational::query::Predicate;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::time::Instant;

/// Per-operator actuals from one execution: output rows and elapsed time
/// for every plan node, mirroring the plan tree's shape. This is what
/// `--explain-analyze` renders next to the planner's estimates.
#[derive(Debug, Clone, Default)]
pub struct OpProfile {
    /// Operator label: `seed`, `join`, `filter`, `anti-join`,
    /// `full-saturate`, or `cache`.
    pub op: &'static str,
    /// Rows this node emitted (after joining/filtering).
    pub rows_out: u64,
    /// Wall-clock time spent in this node *including* its inputs.
    pub elapsed_us: u64,
    /// Rows produced by the node's scan side (seed/join/anti-join).
    pub scan_rows: u64,
    /// Time spent in the node's scan side alone.
    pub scan_elapsed_us: u64,
    /// Demand facts (seeded + propagated) when the node's scan ran a
    /// magic-sets-restricted evaluation; 0 otherwise.
    pub demanded: u64,
    /// The pipeline input's profile (absent for seed/full-saturate).
    pub input: Option<Box<OpProfile>>,
}

impl OpProfile {
    /// A single-node profile (fallback/saturate/cache answers).
    pub fn leaf(op: &'static str, rows_out: u64, elapsed_us: u64) -> Self {
        OpProfile {
            op,
            rows_out,
            elapsed_us,
            scan_rows: rows_out,
            scan_elapsed_us: elapsed_us,
            demanded: 0,
            input: None,
        }
    }
}

/// The result of executing one plan.
#[derive(Debug, Clone)]
pub struct ExecOutcome {
    /// Answer rows over the plan's `vars`, sorted and deduplicated.
    pub rows: Vec<Vec<Value>>,
    pub stats: QpStats,
    /// Per-operator actuals, mirroring the plan tree.
    pub profile: OpProfile,
}

/// Answers one derived literal from a fully maintained fact base over the
/// execution's snapshot: a warm engine's reference state. `None` when the
/// state cannot reach the snapshot cheaply; the execution then answers
/// that scan, and every later one, from its own deduction state.
pub type MaintainedRows<'a> = &'a (dyn Fn(&Literal) -> Result<Option<Vec<Subst>>> + Sync);

/// What an execution reads and fills beyond itself: a fresh
/// [`ScanCache`] and [`DerivedStates`] make it a one-shot execution.
pub struct Caches<'a> {
    /// Base scans' materialised facts, kept for the lineage `components`
    /// belongs to.
    pub scan_cache: &'a ScanCache,
    /// Restricted deduction states of the snapshot `components`: healthy
    /// executions reuse and install them.
    pub states: &'a DerivedStates,
}

/// Execute a pipeline plan over `components`, a snapshot of the lineage
/// `caches.scan_cache` belongs to. [`PlanNode::FullSaturate`] roots are
/// the engine's job (they need the full reference evaluator) and are
/// rejected here.
///
/// `degraded` names known-incomplete components: materialisation then
/// withholds set-difference origin values that depend on degraded data,
/// keeping the answer a subset of the fault-free one, and the execution
/// neither reads nor fills the scan cache (its scans count as bypasses)
/// nor shares a deduction state. The engine's degradation analysis must
/// already have refused non-monotone queries. Derived scans read
/// `maintained` while it answers, else a restricted deduction state (see
/// `Ctx::build_derived`).
pub fn execute(
    plan: &QueryPlan,
    global: &GlobalSchema,
    components: &[(Schema, InstanceStore)],
    meta: &MetaRegistry,
    degraded: &BTreeSet<String>,
    caches: Caches<'_>,
    maintained: Option<MaintainedRows<'_>>,
) -> Result<ExecOutcome> {
    let mut ctx = Ctx {
        global,
        meta,
        plan,
        degraded,
        mat: FactMaterializer::new(global, components, meta).with_degraded(degraded.clone()),
        derived: None,
        stats: QpStats::new(),
        scan_cache: caches.scan_cache,
        states: caches.states,
        maintained,
    };
    let _exec_span = obs::span!("qp.execute", "qp", "degraded={}", degraded.len());
    let (substs, profile) = eval_node(&mut ctx, &plan.root)?;
    let mut stats = ctx.stats;
    let rows = normalize_rows(&substs, &plan.vars);
    stats.rows_emitted = rows.len() as u64;
    Ok(ExecOutcome {
        rows,
        stats,
        profile,
    })
}

/// The fact base [`FactMaterializer::materialize_projected`] builds for
/// `relevant` and `attrs`, with each component's facts of each class
/// read through `cache`.
fn cached_base(
    global: &GlobalSchema,
    mat: &FactMaterializer<'_>,
    cache: &ScanCache,
    relevant: &BTreeSet<String>,
    attrs: &BTreeSet<String>,
) -> Result<FactDb> {
    let _span = obs::span!("federation.materialize", "federation", "cached=true");
    let mut facts = FactDb::new();
    for (ci, (schema, _)) in mat.components().iter().enumerate() {
        let classes: BTreeSet<&str> = schema
            .classes()
            .filter_map(|c| mat.global_class_of(ci, c.name.as_str()))
            .filter(|g| relevant.contains(*g))
            .collect();
        for g in classes {
            let extent = cache
                .extent(global, mat, false, ci, g, attrs)
                .map_err(QpError::Fed)?;
            for fact in extent.facts() {
                facts.insert_oterm(fact.clone());
            }
        }
    }
    for fact in mat.bridge_facts(None, Some(relevant)) {
        facts.insert_oterm(fact);
    }
    Ok(facts)
}

/// Union of the relevance closures of every derived scan in the plan.
fn collect_relevant(node: &PlanNode) -> BTreeSet<String> {
    fn add(scan: &ScanNode, out: &mut BTreeSet<String>) {
        if let ScanKind::Derived { relevant, .. } = &scan.kind {
            out.extend(relevant.iter().cloned());
        }
    }
    fn walk(node: &PlanNode, out: &mut BTreeSet<String>) {
        match node {
            PlanNode::Seed(scan) => add(scan, out),
            PlanNode::Join { input, scan, .. } | PlanNode::AntiJoin { input, scan, .. } => {
                add(scan, out);
                walk(input, out);
            }
            PlanNode::Filter { input, .. } => walk(input, out),
            PlanNode::FullSaturate { .. } => {}
        }
    }
    let mut out = BTreeSet::new();
    walk(node, &mut out);
    out
}

/// Attributes the derived deduction state must materialise: every
/// attribute (or aggregation) name a relevance-closure rule mentions in
/// any literal, plus the attributes each derived scan's own pattern
/// binds. Everything else is skipped during materialisation — the
/// intersection membership rules, for instance, bind no attributes, so a
/// bare `<X: virtual_class>` goal materialises membership-only facts and
/// never computes an origin recipe.
fn derived_attr_projection(
    plan: &QueryPlan,
    global: &GlobalSchema,
    relevant: &BTreeSet<String>,
) -> BTreeSet<String> {
    fn from_literal(lit: &Literal, out: &mut BTreeSet<String>) {
        match lit {
            Literal::OTerm(o) => out.extend(
                o.bindings
                    .iter()
                    .filter_map(|b| b.name.as_name().map(str::to_string)),
            ),
            Literal::Neg(inner) => from_literal(inner, out),
            _ => {}
        }
    }
    let mut out = BTreeSet::new();
    for rule in &global.rules {
        let heads_relevant = rule
            .heads
            .iter()
            .filter_map(|h| h.relation())
            .any(|h| relevant.contains(h));
        if !heads_relevant {
            continue;
        }
        for h in &rule.heads {
            from_literal(h, &mut out);
        }
        for l in &rule.body {
            from_literal(l, &mut out);
        }
    }
    fn from_scans(node: &PlanNode, out: &mut BTreeSet<String>) {
        let add = |scan: &ScanNode, out: &mut BTreeSet<String>| {
            if matches!(scan.kind, ScanKind::Derived { .. }) {
                out.extend(scan.projection.iter().cloned());
            }
        };
        match node {
            PlanNode::Seed(scan) => add(scan, out),
            PlanNode::Join { input, scan, .. } | PlanNode::AntiJoin { input, scan, .. } => {
                add(scan, out);
                from_scans(input, out);
            }
            PlanNode::Filter { input, .. } => from_scans(input, out),
            PlanNode::FullSaturate { .. } => {}
        }
    }
    from_scans(&plan.root, &mut out);
    out
}

/// Seed keys for a demand-annotated derived scan: the distinct values of
/// the demand variable among the pipeline rows computed before the scan
/// runs, or the constant object itself. `None` for scans without demand
/// annotation (they evaluate the whole closure).
fn demand_seeds(scan: &ScanNode, on: &[String], rows: &[Subst]) -> Option<Vec<Value>> {
    if !matches!(
        &scan.kind,
        ScanKind::Derived {
            demand: Some(_),
            ..
        }
    ) {
        return None;
    }
    match demand_key(&scan.literal, on)? {
        DemandKey::Const(v) => Some(vec![v]),
        DemandKey::Var(v) => {
            let t = Term::var(v);
            let keys: BTreeSet<Value> = rows.iter().filter_map(|s| s.value_of(&t)).collect();
            Some(keys.into_iter().collect())
        }
    }
}

struct Ctx<'a> {
    global: &'a GlobalSchema,
    meta: &'a MetaRegistry,
    plan: &'a QueryPlan,
    /// Known-incomplete components.
    degraded: &'a BTreeSet<String>,
    mat: FactMaterializer<'a>,
    /// Set on the first derived scan `maintained` does not answer (see
    /// [`Ctx::build_derived`]).
    derived: Option<State>,
    stats: QpStats,
    scan_cache: &'a ScanCache,
    states: &'a DerivedStates,
    maintained: Option<MaintainedRows<'a>>,
}

impl Ctx<'_> {
    /// Set the execution's restricted deduction state, one for every
    /// derived scan, unless it is set. It covers the union of the plan's
    /// relevance closures with only the attributes the closure's rules (or
    /// the scans themselves) mention — membership-only queries skip every
    /// origin recipe — and is saturated *lazily*: demand-seeded scans run
    /// a magic-sets-restricted evaluation for their seed keys, and only a
    /// scan without demand seeding saturates the closure.
    ///
    /// A healthy execution takes the state from the engine's
    /// [`DerivedStates`]: the one an earlier execution over the same
    /// snapshot installed, with everything derived in it so far, or else
    /// one it builds from the scan cache's facts of the closure's classes
    /// and installs. A degraded execution builds a state of its own from
    /// its partial snapshot (see [`DerivedStates::acquire`]).
    fn build_derived(&mut self) -> Result<()> {
        if self.derived.is_some() {
            return Ok(());
        }
        let relevant = collect_relevant(&self.plan.root);
        if relevant.is_empty() {
            return Err(QpError::Plan("derived scan without deduction state".into()));
        }
        let attrs = derived_attr_projection(self.plan, self.global, &relevant);
        let key: StateKey = (
            relevant.iter().cloned().collect(),
            attrs.iter().cloned().collect(),
        );
        let state = self.states.acquire(key, self.degraded.is_empty(), || {
            self.fresh_state(&relevant, &attrs)
        })?;
        self.derived = Some(state);
        Ok(())
    }

    /// A restricted deduction state over `relevant` and `attrs`, nothing
    /// derived yet. Over a healthy federation its base facts are the scan
    /// cache's, so only partitions a write copied are materialised again.
    fn fresh_state(
        &self,
        relevant: &BTreeSet<String>,
        attrs: &BTreeSet<String>,
    ) -> Result<Box<FederationDb>> {
        let db = if self.degraded.is_empty() {
            let facts = cached_base(self.global, &self.mat, self.scan_cache, relevant, attrs)?;
            FederationDb::from_facts(self.global, facts, Some(relevant))
        } else {
            FederationDb::build_projected(
                self.global,
                self.mat.components(),
                self.meta,
                Some(relevant),
                self.degraded,
                Some(attrs),
            )?
        };
        Ok(Box::new(db))
    }

    /// The facts of `class` that one scan target's component sources.
    fn extent(&self, t: &ScanTarget, class: &str, proj: &BTreeSet<String>) -> Result<Extent> {
        self.scan_cache
            .extent(
                self.global,
                &self.mat,
                !self.degraded.is_empty(),
                t.comp_idx,
                class,
                proj,
            )
            .map_err(QpError::Fed)
    }
}

fn eval_node(ctx: &mut Ctx<'_>, node: &PlanNode) -> Result<(Vec<Subst>, OpProfile)> {
    let start = Instant::now();
    match node {
        PlanNode::Seed(scan) => {
            let _span = obs::span!("qp.op.seed", "qp", "relation={}", scan.relation);
            let seeds = demand_seeds(scan, &[], &[]);
            let (rows, demanded) = scan_exec(ctx, scan, seeds)?;
            let elapsed = start.elapsed().as_micros() as u64;
            let mut profile = OpProfile::leaf("seed", rows.len() as u64, elapsed);
            profile.demanded = demanded;
            Ok((rows, profile))
        }
        PlanNode::Join {
            input, scan, on, ..
        } => {
            let (left, left_prof) = eval_node(ctx, input)?;
            let _span = obs::span!("qp.op.join", "qp", "relation={} on={on:?}", scan.relation);
            let scan_start = Instant::now();
            let seeds = demand_seeds(scan, on, &left);
            let (right, demanded) = scan_exec(ctx, scan, seeds)?;
            let scan_elapsed = scan_start.elapsed().as_micros() as u64;
            ctx.stats.joins += 1;
            let out = hash_join(&left, &right, on, &scan.literal);
            let profile = OpProfile {
                op: "join",
                rows_out: out.len() as u64,
                elapsed_us: start.elapsed().as_micros() as u64,
                scan_rows: right.len() as u64,
                scan_elapsed_us: scan_elapsed,
                demanded,
                input: Some(Box::new(left_prof)),
            };
            Ok((out, profile))
        }
        PlanNode::Filter { input, cmp } => {
            let (mut rows, input_prof) = eval_node(ctx, input)?;
            let _span = obs::span!("qp.op.filter", "qp", "cmp={cmp}");
            let Literal::Cmp { left, op, right } = cmp else {
                return Err(QpError::Plan(format!("filter node holds non-cmp `{cmp}`")));
            };
            rows.retain(|s| match (s.value_of(left), s.value_of(right)) {
                (Some(l), Some(r)) => op.eval(&l, &r),
                _ => false,
            });
            let profile = OpProfile {
                op: "filter",
                rows_out: rows.len() as u64,
                elapsed_us: start.elapsed().as_micros() as u64,
                scan_rows: 0,
                scan_elapsed_us: 0,
                demanded: 0,
                input: Some(Box::new(input_prof)),
            };
            Ok((rows, profile))
        }
        PlanNode::AntiJoin { input, scan, on } => {
            let (mut rows, input_prof) = eval_node(ctx, input)?;
            let _span = obs::span!(
                "qp.op.anti_join",
                "qp",
                "relation={} on={on:?}",
                scan.relation
            );
            let scan_start = Instant::now();
            // Demand-seeding an anti-join with the pipeline's keys is
            // sound: scan keys outside the pipeline never remove a row,
            // and the demand evaluation is complete for every seeded key,
            // so the membership test below is exact.
            let seeds = demand_seeds(scan, on, &rows);
            let (right, demanded) = scan_exec(ctx, scan, seeds)?;
            let scan_elapsed = scan_start.elapsed().as_micros() as u64;
            let keys: HashSet<Vec<Value>> = right.iter().filter_map(|s| key_of(s, on)).collect();
            rows.retain(|s| match key_of(s, on) {
                Some(k) => !keys.contains(&k),
                None => true,
            });
            let profile = OpProfile {
                op: "anti-join",
                rows_out: rows.len() as u64,
                elapsed_us: start.elapsed().as_micros() as u64,
                scan_rows: right.len() as u64,
                scan_elapsed_us: scan_elapsed,
                demanded,
                input: Some(Box::new(input_prof)),
            };
            Ok((rows, profile))
        }
        PlanNode::FullSaturate { reason } => Err(QpError::Plan(format!(
            "full-saturate fallback reached the executor ({reason})"
        ))),
    }
}

/// Join-key projection: the values of `on` under one substitution.
fn key_of(s: &Subst, on: &[String]) -> Option<Vec<Value>> {
    on.iter()
        .map(|v| s.value_of(&Term::var(v.clone())))
        .collect()
}

/// Hash join: bucket the scan side on the shared variables, probe with
/// the pipeline side, merge the scan's bindings into each match.
fn hash_join(left: &[Subst], right: &[Subst], on: &[String], scan_lit: &Literal) -> Vec<Subst> {
    let scan_vars: Vec<String> = scan_lit.vars().into_iter().collect();
    let mut buckets: HashMap<Vec<Value>, Vec<&Subst>> = HashMap::new();
    for s in right {
        if let Some(key) = key_of(s, on) {
            buckets.entry(key).or_default().push(s);
        }
    }
    let mut out = Vec::new();
    for l in left {
        let Some(key) = key_of(l, on) else { continue };
        let Some(matches) = buckets.get(&key) else {
            continue;
        };
        for r in matches {
            let mut merged = l.clone();
            for v in &scan_vars {
                if merged.get(v).is_none() {
                    if let Some(t) = r.get(v) {
                        merged.bind(v.clone(), t.clone());
                    }
                }
            }
            out.push(merged);
        }
    }
    out
}

/// Filter an extent by a scan's pushdown predicates and unify the
/// survivors with its pattern: the rows, plus how many facts the extent
/// holds and how many the pushdown pruned (an index probe counts the
/// facts it skipped as pruned, so both counts are those of a full pass).
fn filter_unify(pat: &OTermPat, pushdown: &[Predicate], extent: &Extent) -> (Vec<Subst>, u64, u64) {
    let (facts, scanned, mut pruned) = extent.candidates(pushdown);
    let mut out = Vec::new();
    'facts: for fact in facts {
        for p in pushdown {
            if let Some(Term::Val(v)) = fact.binding(&p.column) {
                if !p.cmp.eval(v, &p.constant) {
                    pruned += 1;
                    continue 'facts;
                }
            }
        }
        let mut s = Subst::new();
        if unify_oterm_pattern(pat, fact, &mut s) {
            out.push(s);
        }
    }
    (out, scanned, pruned)
}

/// Run one scan: scatter base scans across component targets in
/// parallel, or probe the restricted deduction state for derived ones.
///
/// Derived scans evaluate lazily (see [`evaluate`]). Returns the rows plus
/// the demand-fact count for `--explain-analyze`.
fn scan_exec(
    ctx: &mut Ctx<'_>,
    scan: &ScanNode,
    seeds: Option<Vec<Value>>,
) -> Result<(Vec<Subst>, u64)> {
    let _span = obs::span!(
        "qp.op.scan",
        "qp",
        "relation={} pushdown={}",
        scan.relation,
        scan.pushdown.len()
    );
    ctx.stats.scans += 1;
    ctx.stats.pushdown_preds += scan.pushdown.len() as u64;
    match &scan.kind {
        ScanKind::Base { targets } => {
            let proj: BTreeSet<String> = scan.projection.iter().cloned().collect();
            let pat = match &scan.literal {
                Literal::OTerm(o) => o,
                // Predicate literals have no extensional source: engine
                // fact bases hold only materialised O-terms.
                _ => return Ok((Vec::new(), 0)),
            };
            let mut per = Vec::with_capacity(targets.len() + 1);
            for t in targets {
                let extent = ctx.extent(t, &scan.relation, &proj)?;
                per.push(filter_unify(pat, &scan.pushdown, &extent));
            }
            // Identity bridges: paired objects belong to their partner's
            // global class too, regardless of which component owns them —
            // the saturate path sees these via `materialize`, so base
            // scans must as well, filtered by the same pushdown predicates
            // as materialised facts.
            let bridges = ctx.mat.bridge_facts(Some(&scan.relation), None);
            per.push(filter_unify(pat, &scan.pushdown, &Extent::Fresh(bridges)));
            let mut rows = Vec::new();
            for (batch, scanned, pruned) in per {
                ctx.stats.rows_scanned += scanned;
                ctx.stats.pushdown_pruned += pruned;
                rows.extend(batch);
            }
            Ok((rows, 0))
        }
        ScanKind::Derived { pruned, .. } => {
            // Provably-empty relation: the planner already proved no fact
            // can ever reach it, and a fully-pruned plan may not even carry
            // deduction state — answer before touching `ctx.derived`.
            if *pruned {
                return Ok((Vec::new(), 0));
            }
            if let Some(rows_of) = ctx.maintained {
                if let Some(rows) = rows_of(&scan.literal)? {
                    ctx.stats.rows_scanned += rows.len() as u64;
                    return Ok((rows, 0));
                }
                ctx.maintained = None;
            }
            let seeds = seeds.as_deref();
            loop {
                ctx.build_derived()?;
                let (states, stats) = (ctx.states, &mut ctx.stats);
                let out = match ctx.derived.as_mut().expect("just built") {
                    State::Private(db) => Some(derive(db, scan, seeds, stats)),
                    // Executions with nothing to evaluate read together.
                    State::Shared(entry) => match states.read(entry, |db| {
                        answers(db, scan, seeds).then(|| read_goal(db, scan, seeds))
                    }) {
                        Some(Some(rows)) => Some(Ok((rows, 0))),
                        Some(None) => states.write(entry, |db| derive(db, scan, seeds, stats)),
                        None => None,
                    },
                };
                if let Some(out) = out {
                    let (rows, demanded) = out?;
                    ctx.stats.rows_scanned += rows.len() as u64;
                    return Ok((rows, demanded));
                }
                // The state failed in another execution, which removed
                // it: take the state again.
                ctx.derived = None;
            }
        }
    }
}

/// Answer a derived scan from `db`: [`evaluate`] what it lacks, then
/// [`read_goal`]. Returns the rows and the demand facts it added.
fn derive(
    db: &mut FederationDb,
    scan: &ScanNode,
    seeds: Option<&[Value]>,
    stats: &mut QpStats,
) -> Result<(Vec<Subst>, u64)> {
    let demanded = evaluate(db, scan, seeds, stats)?;
    Ok((read_goal(db, scan, seeds), demanded))
}

/// The seed keys `db` holds no `__demand__` tuple of the scan's goal for.
/// A demanded key is complete at the fixpoint.
fn undemanded(db: &FederationDb, scan: &ScanNode, keys: &[Value]) -> Vec<Value> {
    let demand = format!("{DEMAND_PREFIX}{}", scan.relation);
    keys.iter()
        .filter(|k| !db.facts().contains_pred(&demand, std::slice::from_ref(*k)))
        .cloned()
        .collect()
}

/// Whether `db` answers a derived scan as it is: it is saturated, or the
/// scan is demand-seeded (`seeds`) and every seed key is demanded.
fn answers(db: &FederationDb, scan: &ScanNode, seeds: Option<&[Value]>) -> bool {
    db.is_saturated() || seeds.is_some_and(|keys| undemanded(db, scan, keys).is_empty())
}

/// Evaluate what `db` lacks to answer a derived scan. A demand-seeded
/// scan runs the magic-sets-restricted program for its [`undemanded`]
/// seed keys, so with every key demanded no evaluation runs. Any other
/// scan, and one whose program cannot be demand-transformed, saturates
/// `db` once. Adds the work to `stats` and returns the demand facts it
/// added.
fn evaluate(
    db: &mut FederationDb,
    scan: &ScanNode,
    seeds: Option<&[Value]>,
    stats: &mut QpStats,
) -> Result<u64> {
    if db.is_saturated() {
        return Ok(0);
    }
    if let Some(keys) = seeds {
        let fresh = undemanded(db, scan, keys);
        if fresh.is_empty() {
            return Ok(0);
        }
        if let Some(eval) = db
            .saturate_demand(&scan.relation, &fresh)
            .map_err(QpError::Fed)?
        {
            stats.derived_facts += eval.facts_derived;
            stats.demanded_facts += eval.demanded_facts;
            return Ok(eval.demanded_facts);
        }
    }
    let eval = db.saturate().map_err(QpError::Fed)?;
    stats.derived_facts += eval.facts_derived;
    Ok(0)
}

/// The rows of a derived scan `db` answers: probed by the seed keys, or
/// the goal read whole.
fn read_goal(db: &FederationDb, scan: &ScanNode, seeds: Option<&[Value]>) -> Vec<Subst> {
    match seeds {
        Some(keys) => probe(db.facts(), &scan.literal, keys),
        None => db.facts().query(std::slice::from_ref(&scan.literal)),
    }
}

/// The matches of `lit` whose key term takes one of `keys`: each key is
/// bound into the literal and looked up by it, so the read costs what the
/// keys match rather than the whole relation.
fn probe(facts: &FactDb, lit: &Literal, keys: &[Value]) -> Vec<Subst> {
    let Some(Term::Var(var)) = key_term(lit) else {
        // A constant key: the literal itself is the probe.
        return facts.query(std::slice::from_ref(lit));
    };
    let mut out = Vec::new();
    for key in keys {
        let mut bound = Subst::new();
        bound.bind(var.clone(), Term::Val(key.clone()));
        for mut row in facts.query(&[bound.apply(lit)]) {
            row.bind(var.clone(), Term::Val(key.clone()));
            out.push(row);
        }
    }
    out
}
