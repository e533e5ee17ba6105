//! Parallel scatter-gather plan execution.
//!
//! Base scans fan out across their component targets with `rayon` — each
//! component's extent is materialised, filtered by the pushed-down
//! predicates, and unified into substitution batches concurrently — then
//! the batches stream into the hash-join pipeline. Derived scans are
//! answered by a single goal-directed [`FederationDb`] restricted to the
//! plan's relevance closure and saturated once per execution. Every stage
//! feeds counters into [`QpStats`].
//!
//! Answers are normalised to rows of values over the plan's answer
//! variables, sorted and deduplicated — identical, by construction and by
//! the differential test suite, to what the saturate-everything reference
//! evaluator produces.

use crate::engine::normalize_rows;
use crate::plan::{demand_key, DemandKey, PlanNode, QueryPlan, ScanKind, ScanNode};
use crate::{QpError, Result};
use deduction::term::{Literal, OTermPat, Term};
use deduction::unify::unify_oterm_pattern;
use deduction::Subst;
use federation::fsm::GlobalSchema;
use federation::mapping::MetaRegistry;
use federation::{FactMaterializer, FederationDb};
use fedoo_core::QpStats;
use oo_model::{InstanceStore, Schema, Value};
use rayon::prelude::*;
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

/// Execute a pipeline plan. [`PlanNode::FullSaturate`] roots are the
/// engine's job (they need the full reference evaluator) and are rejected
/// here.
pub fn execute(
    plan: &QueryPlan,
    global: &GlobalSchema,
    components: &[(Schema, InstanceStore)],
    meta: &MetaRegistry,
) -> Result<ExecOutcome> {
    execute_degraded(plan, global, components, meta, &BTreeSet::new())
}

/// [`execute`] over a federation with known-incomplete components
/// (schema names in `degraded`): materialisation withholds
/// set-difference origin values that depend on degraded data, keeping
/// the answer a subset of the fault-free one. The engine's degradation
/// analysis must already have refused non-monotone queries.
pub fn execute_degraded(
    plan: &QueryPlan,
    global: &GlobalSchema,
    components: &[(Schema, InstanceStore)],
    meta: &MetaRegistry,
    degraded: &BTreeSet<String>,
) -> Result<ExecOutcome> {
    let stats = QpStats::new();

    // One restricted deduction state serves every derived scan. It is
    // built over the union of the plan's relevance closures with only the
    // attributes the closure's rules (or the scans themselves) mention —
    // membership-only queries skip every origin recipe — and saturated
    // *lazily*: demand-seeded scans run a magic-sets-restricted
    // evaluation when they execute (their seeds are pipeline rows), and
    // only a scan without demand seeding pays for full closure
    // saturation.
    let relevant = collect_relevant(&plan.root);
    let derived = if relevant.is_empty() {
        None
    } else {
        let attrs = derived_attr_projection(plan, global, &relevant);
        Some(FederationDb::build_projected(
            global,
            components,
            meta,
            Some(&relevant),
            degraded,
            Some(&attrs),
        )?)
    };

    let mat = FactMaterializer::new(global, components, meta).with_degraded(degraded.clone());
    let mut ctx = Ctx {
        mat,
        derived,
        stats,
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
    mat: FactMaterializer<'a>,
    derived: Option<FederationDb>,
    stats: QpStats,
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

/// Filter `facts` by a scan's pushdown predicates and unify the
/// survivors with its pattern: the rows, plus how many facts were scanned
/// and how many the pushdown pruned.
fn filter_unify(
    pat: &OTermPat,
    pushdown: &[Predicate],
    facts: &[OTermPat],
) -> (Vec<Subst>, u64, u64) {
    let mut pruned = 0u64;
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
    (out, facts.len() as u64, pruned)
}

/// Run one scan: scatter base scans across component targets in
/// parallel, or probe the restricted deduction state for derived ones.
///
/// Derived scans saturate lazily. A demand-annotated scan with seed keys
/// runs a magic-sets-restricted evaluation over exactly those keys
/// (falling back to full saturation when the program cannot be
/// demand-transformed); any other derived scan saturates the whole
/// relevance closure once. Returns the rows plus the demand-fact count
/// for `--explain-analyze`.
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
            let mat = &ctx.mat;
            let per: Vec<Result<(Vec<Subst>, u64, u64)>> = targets
                .par_iter()
                .map(|t| {
                    let facts = mat
                        .facts_for(t.comp_idx, &scan.relation, Some(&proj))
                        .map_err(QpError::Fed)?;
                    Ok(filter_unify(pat, &scan.pushdown, &facts))
                })
                .collect();
            // Identity bridges: paired objects belong to their partner's
            // global class too, regardless of which component owns them —
            // the saturate path sees these via `materialize`, so base
            // scans must as well, filtered by the same pushdown predicates
            // as materialised facts.
            let bridges = ctx.mat.bridge_facts(Some(&scan.relation), None);
            let mut rows = Vec::new();
            for r in per
                .into_iter()
                .chain([Ok(filter_unify(pat, &scan.pushdown, &bridges))])
            {
                let (batch, scanned, pruned) = r?;
                ctx.stats.rows_scanned += scanned;
                ctx.stats.pushdown_pruned += pruned;
                rows.extend(batch);
            }
            Ok((rows, 0))
        }
        ScanKind::Derived { demand, pruned, .. } => {
            // Provably-empty relation: the planner already proved no fact
            // can ever reach it, and a fully-pruned plan may not even carry
            // deduction state — answer before touching `ctx.derived`.
            if *pruned {
                return Ok((Vec::new(), 0));
            }
            let db = ctx
                .derived
                .as_mut()
                .ok_or_else(|| QpError::Plan("derived scan without deduction state".into()))?;
            let mut demanded = 0u64;
            let mut seeded = false;
            if demand.is_some() && !db.is_saturated() {
                if let Some(seed_keys) = &seeds {
                    if let Some(eval) = db
                        .saturate_demand(&scan.relation, seed_keys)
                        .map_err(QpError::Fed)?
                    {
                        ctx.stats.derived_facts += eval.facts_derived;
                        ctx.stats.demanded_facts += eval.demanded_facts;
                        demanded = eval.demanded_facts;
                        seeded = true;
                    }
                }
            }
            if !seeded && !db.is_saturated() {
                let eval = db.saturate().map_err(QpError::Fed)?;
                ctx.stats.derived_facts += eval.facts_derived;
            }
            let rows = db.facts().query(std::slice::from_ref(&scan.literal));
            ctx.stats.rows_scanned += rows.len() as u64;
            Ok((rows, demanded))
        }
    }
}
