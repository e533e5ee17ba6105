//! The global query planner.
//!
//! Planning proceeds in four steps:
//!
//! 1. **Validate** — the query body is wrapped into a synthetic rule
//!    `query(vars) :- body` and run through `analysis::analyze_program`
//!    against the integrated schema (safety kernel + schema conformance);
//!    any `Deny` diagnostic rejects the query before any component is
//!    touched.
//! 2. **Rewrite** — each positive O-term literal over a global class is
//!    rewritten through the origin map into per-component scan targets
//!    (the local classes whose extents feed that global class). Relations
//!    that are heads of executable derivation rules become **derived**
//!    scans instead: the planner computes the relevance closure (the
//!    rule-body reachable set, magic-set style) so execution saturates
//!    only the slice of the federation the query can actually touch.
//! 3. **Push down** — comparison literals `X τ c` whose variable is
//!    attribute-bound by a base scan become `relational` selection
//!    predicates evaluated inside every such scan (and the residual
//!    filter is dropped — join unification propagates variable equality,
//!    so one enforcing scan suffices); constant attribute bindings
//!    likewise prune facts before unification. Only the attributes a
//!    literal mentions are materialised (projection pushdown).
//! 4. **Order** — scans are arranged into a left-deep hash-join chain by
//!    a greedy cardinality heuristic over per-extent row counts
//!    (equality pushdown ÷ 8, range ÷ 3); filters and anti-joins attach
//!    at the first point their variables are bound.
//!
//! Queries outside the pipeline fragment — higher-order patterns (class
//! or attribute variables), nested or non-relational negation, bodies
//! with no positive literal — degrade to a [`PlanNode::FullSaturate`]
//! fallback: always answerable, never fast.

use crate::parser::GlobalQuery;
use crate::plan::{demand_key, PlanNode, QueryPlan, ScanKind, ScanNode, ScanTarget};
use crate::{QpError, Result};
use analysis::ProgramSummary;
use deduction::term::{CmpOp, Literal, NameRef, Pred, Rule, Term};
use deduction::{check_rule, check_rule_all, relevance_closure, stratify};
use federation::fsm::GlobalSchema;
use oo_model::{InstanceStore, Schema};
use relational::query::{Cmp, Predicate};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex, OnceLock};

/// Per-goal planning facts derived from the executable program alone:
/// the relevance closure and whether the goal admits a demand rewrite.
/// Both depend only on the rules — fixed for an engine's federation — so
/// a `PlanContext` memoises them for every `Planner` built on it and
/// never invalidates entries (a store-epoch change alters extents, not
/// the program).
pub type ClosureCache = Arc<Mutex<BTreeMap<String, Arc<GoalInfo>>>>;

/// One [`ClosureCache`] entry.
#[derive(Debug)]
pub struct GoalInfo {
    /// Rule-body reachable relations from the goal (materialisation set).
    pub relevant: BTreeSet<String>,
    /// Whether `demand_transform` succeeds for the goal.
    pub demandable: bool,
}

/// Direct extent sizes: (component index, local class) → objects.
pub type ExtentRows = BTreeMap<(usize, String), u64>;

/// Everything a planner reads that the global program and the component
/// names fix: the executable rules with their derived relations and
/// strata, the component index, the integrated schema view queries are
/// validated against, the per-goal closure cache and the
/// abstract-interpretation summary. An engine builds one per store
/// lineage and shares it with every planner the lineage builds, so a
/// plan costs its own work and no rebuild of the program's.
#[derive(Debug)]
pub(crate) struct PlanContext {
    /// Executable derivation rules (single-head, safe).
    exec_rules: Vec<Rule>,
    /// Relations derived by executable rules.
    derived: BTreeSet<String>,
    /// Strata of the executable program (lowest first).
    strata: Vec<BTreeSet<String>>,
    /// Component schema name → index.
    comp_idx: BTreeMap<String, usize>,
    /// The integrated schema as a plain schema, or `None` when it is not
    /// materialisable (validation then runs the safety kernel alone).
    schema: Option<Schema>,
    /// The origin map's global classes: the summary's extensional base.
    base: BTreeSet<String>,
    closure_cache: ClosureCache,
    /// Built on first use: base-only plans never read it.
    summary: OnceLock<Arc<ProgramSummary>>,
}

impl PlanContext {
    pub(crate) fn new(global: &GlobalSchema, components: &[(Schema, InstanceStore)]) -> Self {
        let exec_rules = executable_rules(global);
        let derived = exec_rules
            .iter()
            .filter_map(|r| r.head().and_then(|h| h.relation()))
            .map(str::to_string)
            .collect();
        let strata = stratify(&exec_rules).unwrap_or_default();
        let comp_idx = components
            .iter()
            .enumerate()
            .map(|(i, (schema, _))| (schema.name.as_str().to_string(), i))
            .collect();
        PlanContext {
            exec_rules,
            derived,
            strata,
            comp_idx,
            schema: global.integrated.to_schema("global").ok(),
            base: base_relations(global),
            closure_cache: ClosureCache::default(),
            summary: OnceLock::new(),
        }
    }

    /// Component schema name → index.
    pub(crate) fn comp_idx(&self) -> &BTreeMap<String, usize> {
        &self.comp_idx
    }

    /// The per-goal closure/demand cache.
    pub(crate) fn closure_cache(&self) -> ClosureCache {
        Arc::clone(&self.closure_cache)
    }

    /// The program summary, computed on first call.
    pub(crate) fn summary(&self) -> &Arc<ProgramSummary> {
        self.summary.get_or_init(|| {
            Arc::new(summarize(
                &self.exec_rules,
                &self.base,
                self.schema.as_ref(),
            ))
        })
    }
}

/// Plans queries against one built federation.
pub struct Planner<'a> {
    global: &'a GlobalSchema,
    context: Arc<PlanContext>,
    extent_rows: Arc<ExtentRows>,
    /// Whether derived scans may be annotated for demand seeding.
    demand_enabled: bool,
}

/// The single-head, safe rules of the global program: the ones planned
/// execution evaluates.
fn executable_rules(global: &GlobalSchema) -> Vec<Rule> {
    global
        .rules
        .iter()
        .filter(|r| r.heads.len() == 1 && check_rule(r).is_ok())
        .cloned()
        .collect()
}

fn base_relations(global: &GlobalSchema) -> BTreeSet<String> {
    global.origin.values().cloned().collect()
}

fn summarize(exec: &[Rule], base: &BTreeSet<String>, schema: Option<&Schema>) -> ProgramSummary {
    let schemas: Vec<&Schema> = schema.into_iter().collect();
    analysis::summarize(exec, base, &schemas, &[])
}

/// The abstract-interpretation summary the planner consumes: the
/// executable rules interpreted over the origin map's global classes as
/// the extensional base, with the integrated schema (when materialisable)
/// as the is-a lattice. Program-derived only — safe to cache for an
/// engine's lifetime and to embed in plan fingerprints.
pub fn program_summary(global: &GlobalSchema) -> ProgramSummary {
    let schema = global.integrated.to_schema("global").ok();
    summarize(
        &executable_rules(global),
        &base_relations(global),
        schema.as_ref(),
    )
}

impl<'a> Planner<'a> {
    pub fn new(global: &'a GlobalSchema, components: &'a [(Schema, InstanceStore)]) -> Self {
        Self::with_extent_rows(global, components, Self::collect_extent_rows(components))
    }

    /// Direct extent sizes, (component index, local class) → objects —
    /// read off the stores' class indexes in O(classes), not O(objects).
    /// Callers answering repeated queries should still collect once per
    /// store-version epoch and hand the map to
    /// [`Planner::with_extent_rows`].
    pub fn collect_extent_rows(components: &[(Schema, InstanceStore)]) -> ExtentRows {
        let mut extent_rows = BTreeMap::new();
        for (i, (_, store)) in components.iter().enumerate() {
            for (class, count) in store.class_counts() {
                extent_rows.insert((i, class.as_str().to_string()), count as u64);
            }
        }
        extent_rows
    }

    /// Build a planner around pre-collected extent statistics.
    pub fn with_extent_rows(
        global: &'a GlobalSchema,
        components: &'a [(Schema, InstanceStore)],
        extent_rows: ExtentRows,
    ) -> Self {
        let context = Arc::new(PlanContext::new(global, components));
        Self::with_context(global, context, Arc::new(extent_rows))
    }

    /// A planner over a shared [`PlanContext`] built from `global`, and
    /// shared extent statistics: builds nothing.
    pub(crate) fn with_context(
        global: &'a GlobalSchema,
        context: Arc<PlanContext>,
        extent_rows: Arc<ExtentRows>,
    ) -> Self {
        Planner {
            global,
            context,
            extent_rows,
            demand_enabled: true,
        }
    }

    fn summary(&self) -> &ProgramSummary {
        self.context.summary()
    }

    /// Enable or disable demand annotation of derived scans (on by
    /// default). Disabled, derived scans evaluate their whole relevance
    /// closure — the pre-demand behaviour, kept for benchmarking.
    pub fn set_demand(&mut self, on: bool) {
        self.demand_enabled = on;
    }

    /// The goal's relevance closure and demand feasibility, computed via
    /// the interned walk in `deduction` and memoised in the shared cache.
    fn goal_info(&self, goal: &str) -> Arc<GoalInfo> {
        let cache = &self.context.closure_cache;
        if let Some(hit) = cache.lock().unwrap().get(goal) {
            return Arc::clone(hit);
        }
        let rules = &self.context.exec_rules;
        // Demand feasibility comes from the static summary (one
        // restriction fixpoint per program instead of one per goal); the
        // runtime fixpoint survives as a debug-build cross-check so a
        // summary/transform drift can never ship silently.
        let demandable = self.summary().demandable(goal).unwrap_or(false);
        debug_assert_eq!(
            demandable,
            deduction::demand_transform(rules, goal).is_ok(),
            "absint demand feasibility diverged from demand_transform for `{goal}`"
        );
        let info = Arc::new(GoalInfo {
            relevant: relevance_closure(rules, &[goal.to_string()]),
            demandable,
        });
        cache
            .lock()
            .unwrap()
            .insert(goal.to_string(), Arc::clone(&info));
        info
    }

    /// Static checks: safety kernel + conformance against the integrated
    /// schema. Rejects on any `Deny` diagnostic.
    pub fn validate(&self, query: &GlobalQuery) -> Result<()> {
        let head = Literal::Pred(Pred::new("query", query.vars().into_iter().map(Term::var)));
        let rule = Rule::new(head, query.body());
        match &self.context.schema {
            Some(schema) => {
                let mut report = analysis::analyze_program(&[rule], &[schema]);
                if report.has_deny() {
                    report.sort();
                    return Err(QpError::Rejected(report.render_human()));
                }
            }
            None => {
                // No materialisable schema view — fall back to the safety
                // kernel alone.
                let errors = check_rule_all(&rule);
                if !errors.is_empty() {
                    let msgs: Vec<String> = errors.iter().map(|e| e.to_string()).collect();
                    return Err(QpError::Rejected(msgs.join("\n")));
                }
            }
        }
        Ok(())
    }

    /// Validate and plan.
    pub fn plan(&self, query: &GlobalQuery) -> Result<QueryPlan> {
        self.validate(query)?;
        let vars = query.vars();
        let body = query.body();

        if let Some(reason) = unsupported_reason(&body) {
            return Ok(QueryPlan {
                vars,
                root: PlanNode::FullSaturate { reason },
            });
        }

        // Partition the body. Indices keep attachment order deterministic.
        let mut positives: Vec<(usize, Literal)> = Vec::new();
        let mut cmps: Vec<(usize, Literal)> = Vec::new();
        let mut negs: Vec<(usize, Literal)> = Vec::new();
        for (i, lit) in body.iter().enumerate() {
            match lit {
                Literal::Cmp { .. } => cmps.push((i, lit.clone())),
                Literal::Neg(inner) => negs.push((i, (**inner).clone())),
                _ => positives.push((i, lit.clone())),
            }
        }
        if positives.is_empty() {
            return Ok(QueryPlan {
                vars,
                root: PlanNode::FullSaturate {
                    reason: "no positive literals to seed a pipeline".into(),
                },
            });
        }

        // Which comparisons can be pushed into which positive scans?
        // `pushable[k]` = (var, predicate) for comparison literal k.
        let pushable: Vec<Option<(String, Predicate)>> =
            cmps.iter().map(|(_, lit)| as_pushable(lit)).collect();
        // A comparison may only be absorbed by *base* scans — a derived
        // scan is answered by the deduction engine, which never sees scan
        // predicates, so pushing there would silently drop the filter.
        let attr_binders: Vec<BTreeSet<String>> = positives
            .iter()
            .map(|(_, lit)| {
                if self.is_base_scan(lit) {
                    attr_bound_vars(lit)
                } else {
                    BTreeSet::new()
                }
            })
            .collect();
        let mut consumed = vec![false; cmps.len()];
        let mut extra_pushdown: Vec<Vec<Predicate>> = vec![Vec::new(); positives.len()];
        for (k, p) in pushable.iter().enumerate() {
            let Some((var, pred)) = p else { continue };
            let binders: Vec<usize> = (0..positives.len())
                .filter(|&s| attr_binders[s].contains(var))
                .collect();
            if binders.is_empty() {
                continue;
            }
            // Pushing into every binding scan maximises pruning; join
            // unification keeps the variable's value consistent across
            // scans, so the residual filter is redundant.
            for s in binders {
                let columns: Vec<&str> = attr_columns_for(&positives[s].1, var);
                for col in columns {
                    extra_pushdown[s].push(Predicate::new(col, pred.cmp, pred.constant.clone()));
                }
            }
            consumed[k] = true;
        }

        // Build scan nodes for positive literals and negated inners.
        let mut scans: Vec<ScanNode> = Vec::new();
        for (s, (_, lit)) in positives.iter().enumerate() {
            scans.push(self.scan_node(lit, std::mem::take(&mut extra_pushdown[s])));
        }
        let neg_scans: Vec<ScanNode> = negs
            .iter()
            .map(|(_, inner)| self.scan_node(inner, Vec::new()))
            .collect();

        // Greedy left-deep ordering by estimated cardinality.
        let mut remaining: Vec<usize> = (0..scans.len()).collect();
        let mut bound: BTreeSet<String> = BTreeSet::new();
        let mut attached_cmp = vec![false; cmps.len()];
        let mut attached_neg = vec![false; negs.len()];

        // On estimate ties prefer a base seed: seeding from a base extent
        // leaves derived scans downstream where they can be demand-seeded
        // by the pipeline's bindings, while a derived seed forecloses the
        // magic-sets path for itself.
        let seed_key = |i: usize| {
            (
                scans[i].est_rows,
                matches!(scans[i].kind, ScanKind::Derived { .. }),
                i,
            )
        };
        let first = *remaining
            .iter()
            .min_by_key(|&&i| seed_key(i))
            .expect("non-empty positives");
        remaining.retain(|&i| i != first);
        bound.extend(scans[first].literal.vars());
        let mut est = scans[first].est_rows;
        let mut root = PlanNode::Seed(scans[first].clone());
        root = self.attach_residuals(
            root,
            &bound,
            &cmps,
            &consumed,
            &mut attached_cmp,
            &negs,
            &neg_scans,
            &mut attached_neg,
        );

        while !remaining.is_empty() {
            // Prefer scans sharing a variable with the pipeline (equi
            // join); among those, smallest estimate. Cross products only
            // when forced.
            let shares = |i: usize| scans[i].literal.vars().iter().any(|v| bound.contains(v));
            let next = remaining
                .iter()
                .copied()
                .filter(|&i| shares(i))
                .min_by_key(|&i| (scans[i].est_rows, i))
                .or_else(|| {
                    remaining
                        .iter()
                        .copied()
                        .min_by_key(|&i| (scans[i].est_rows, i))
                })
                .expect("remaining non-empty");
            remaining.retain(|&i| i != next);
            let scan = scans[next].clone();
            let on: Vec<String> = scan
                .literal
                .vars()
                .into_iter()
                .filter(|v| bound.contains(v))
                .collect();
            bound.extend(scan.literal.vars());
            est = if on.is_empty() {
                est.saturating_mul(scan.est_rows.max(1))
            } else {
                est.max(scan.est_rows)
            };
            root = PlanNode::Join {
                input: Box::new(root),
                scan,
                on,
                est_rows: est,
            };
            root = self.attach_residuals(
                root,
                &bound,
                &cmps,
                &consumed,
                &mut attached_cmp,
                &negs,
                &neg_scans,
                &mut attached_neg,
            );
        }

        // Validation guarantees every comparison / negation variable is
        // positively bound, so nothing should be left dangling.
        for (k, done) in attached_cmp.iter().enumerate() {
            if !done && !consumed[k] {
                return Err(QpError::Plan(format!(
                    "comparison `{}` never became bound",
                    cmps[k].1
                )));
            }
        }
        for (k, done) in attached_neg.iter().enumerate() {
            if !done {
                return Err(QpError::Plan(format!(
                    "negation `¬{}` never became bound",
                    negs[k].1
                )));
            }
        }

        self.annotate_demand(&mut root);
        Ok(QueryPlan { vars, root })
    }

    /// Attach residual filters and anti-joins whose variables are bound.
    #[allow(clippy::too_many_arguments)]
    fn attach_residuals(
        &self,
        mut node: PlanNode,
        bound: &BTreeSet<String>,
        cmps: &[(usize, Literal)],
        consumed: &[bool],
        attached_cmp: &mut [bool],
        negs: &[(usize, Literal)],
        neg_scans: &[ScanNode],
        attached_neg: &mut [bool],
    ) -> PlanNode {
        for (k, (_, cmp)) in cmps.iter().enumerate() {
            if attached_cmp[k] || consumed[k] {
                continue;
            }
            if cmp.vars().iter().all(|v| bound.contains(v)) {
                attached_cmp[k] = true;
                node = PlanNode::Filter {
                    input: Box::new(node),
                    cmp: cmp.clone(),
                };
            }
        }
        for (k, (_, inner)) in negs.iter().enumerate() {
            if attached_neg[k] {
                continue;
            }
            let inner_vars = inner.vars();
            if inner_vars.iter().all(|v| bound.contains(v)) {
                attached_neg[k] = true;
                node = PlanNode::AntiJoin {
                    input: Box::new(node),
                    scan: neg_scans[k].clone(),
                    on: inner_vars.into_iter().collect(),
                };
            }
        }
        // Mark pushed-down comparisons as attached once their variable is
        // bound (they need no node of their own).
        for (k, (_, cmp)) in cmps.iter().enumerate() {
            if consumed[k] && !attached_cmp[k] && cmp.vars().iter().all(|v| bound.contains(v)) {
                attached_cmp[k] = true;
            }
        }
        node
    }

    /// Will this literal scan component extents directly (as opposed to
    /// the derived-relation deduction fallback)?
    fn is_base_scan(&self, lit: &Literal) -> bool {
        match lit.relation() {
            Some(rel) => !self.context.derived.contains(rel),
            None => false,
        }
    }

    /// Build the scan node for one positive (or negated-inner) literal.
    fn scan_node(&self, lit: &Literal, mut pushdown: Vec<Predicate>) -> ScanNode {
        let relation = lit.relation().unwrap_or_default().to_string();
        let projection: Vec<String> = match lit {
            Literal::OTerm(o) => o
                .bindings
                .iter()
                .filter_map(|b| b.name.as_name().map(str::to_string))
                .collect(),
            _ => Vec::new(),
        };

        if self.context.derived.contains(relation.as_str()) {
            // Provably-empty relations (absint reachability) never yield a
            // row under either strategy: skip deduction for them outright.
            // The verdict is program-derived, so it is fingerprint-safe.
            if self.summary().is_provably_empty(&relation) {
                return ScanNode {
                    literal: lit.clone(),
                    relation,
                    kind: ScanKind::Derived {
                        relevant: Vec::new(),
                        rules: 0,
                        stratum: 0,
                        demand: None,
                        pruned: true,
                        sigma: Vec::new(),
                    },
                    pushdown: Vec::new(),
                    projection,
                    est_rows: 0,
                };
            }
            let info = self.goal_info(&relation);
            let rules = self
                .context
                .exec_rules
                .iter()
                .filter(|r| {
                    r.head()
                        .and_then(|h| h.relation())
                        .is_some_and(|h| info.relevant.contains(h))
                })
                .count();
            let stratum = self
                .context
                .strata
                .iter()
                .position(|s| s.contains(relation.as_str()))
                .unwrap_or(0);
            let mut est_rows = self.derived_estimate(&info.relevant);
            // Type signature from the abstract interpreter: every fact of
            // this relation provably lies in each σ class's extent, so the
            // smallest such extent caps the estimate. Only classes with
            // origin-mapped component rows count — an unmapped class has
            // no measurable extent to bound by.
            let mut sigma: Vec<String> = Vec::new();
            if let Some(pred) = self.summary().get(&relation) {
                for class in pred.key_classes() {
                    let rows: u64 = self.base_targets(class).iter().map(|t| t.rows).sum();
                    if rows > 0 {
                        est_rows = est_rows.min(rows);
                        sigma.push(class.clone());
                    }
                }
            }
            return ScanNode {
                literal: lit.clone(),
                relation,
                kind: ScanKind::Derived {
                    relevant: info.relevant.iter().cloned().collect(),
                    rules,
                    stratum,
                    demand: None,
                    pruned: false,
                    sigma,
                },
                pushdown: Vec::new(),
                projection,
                est_rows,
            };
        }

        // Base scan: constant attribute bindings prune before unification.
        if let Literal::OTerm(o) = lit {
            for b in &o.bindings {
                if let (Some(name), Term::Val(v)) = (b.name.as_name(), &b.term) {
                    pushdown.push(Predicate::new(name, Cmp::Eq, v.clone()));
                }
            }
        }
        let targets = self.base_targets(&relation);
        let raw: u64 = targets.iter().map(|t| t.rows).sum();
        let mut est = raw;
        for p in &pushdown {
            est = match p.cmp {
                Cmp::Eq => est / 8,
                Cmp::Lt | Cmp::Le | Cmp::Gt | Cmp::Ge => est / 3,
                Cmp::Ne => est,
            };
        }
        if raw > 0 {
            est = est.max(1);
        }
        ScanNode {
            literal: lit.clone(),
            relation,
            kind: ScanKind::Base { targets },
            pushdown,
            projection,
            est_rows: est,
        }
    }

    /// Component extents whose origin is the given global class.
    fn base_targets(&self, global_class: &str) -> Vec<ScanTarget> {
        let mut by_comp: BTreeMap<usize, (String, Vec<String>, u64)> = BTreeMap::new();
        for ((schema, class), g) in &self.global.origin {
            if g != global_class {
                continue;
            }
            let Some(&idx) = self.context.comp_idx.get(schema.as_str()) else {
                continue;
            };
            let rows = self
                .extent_rows
                .get(&(idx, class.clone()))
                .copied()
                .unwrap_or(0);
            let entry = by_comp
                .entry(idx)
                .or_insert_with(|| (schema.clone(), Vec::new(), 0));
            entry.1.push(class.clone());
            entry.2 += rows;
        }
        by_comp
            .into_iter()
            .map(|(comp_idx, (component, mut classes, rows))| {
                // The origin map iterates in hash order; sort so the scan
                // line (and therefore `--explain` goldens and the plan
                // fingerprint) renders identically run to run.
                classes.sort();
                ScanTarget {
                    component,
                    comp_idx,
                    classes,
                    rows,
                }
            })
            .collect()
    }

    /// Annotate derived scans that can be demand-seeded: the scan's
    /// object is a constant, or a variable the pipeline has already
    /// bound when the scan runs (a join/anti-join key), and the goal
    /// admits the magic-sets rewrite. The executor re-derives the same
    /// key via [`demand_key`] to build the seed set at run time.
    fn annotate_demand(&self, node: &mut PlanNode) {
        let mark = |scan: &mut ScanNode, on: &[String]| {
            let ScanKind::Derived { demand, .. } = &mut scan.kind else {
                return;
            };
            if !self.demand_enabled || !self.goal_info(&scan.relation).demandable {
                return;
            }
            *demand = demand_key(&scan.literal, on).map(|k| k.to_string());
        };
        match node {
            PlanNode::Seed(scan) => mark(scan, &[]),
            PlanNode::Join {
                input, scan, on, ..
            }
            | PlanNode::AntiJoin { input, scan, on } => {
                self.annotate_demand(input);
                mark(scan, on);
            }
            PlanNode::Filter { input, .. } => self.annotate_demand(input),
            PlanNode::FullSaturate { .. } => {}
        }
    }

    /// Crude upper-bound estimate for a derived relation: the base rows
    /// of every relation in its relevance closure.
    fn derived_estimate(&self, relevant: &BTreeSet<String>) -> u64 {
        let base: u64 = relevant
            .iter()
            .flat_map(|rel| self.base_targets(rel))
            .map(|t| t.rows)
            .sum();
        base.max(1)
    }
}

/// Reasons a query leaves the pipeline fragment.
fn unsupported_reason(body: &[Literal]) -> Option<String> {
    fn check(lit: &Literal, negated: bool) -> Option<String> {
        match lit {
            Literal::OTerm(o) => {
                if matches!(o.class, NameRef::Var(_)) {
                    return Some("class variable in O-term".into());
                }
                if o.bindings.iter().any(|b| matches!(b.name, NameRef::Var(_))) {
                    return Some("attribute-name variable in O-term".into());
                }
                None
            }
            Literal::Pred(_) => None,
            Literal::Cmp { .. } => {
                if negated {
                    Some("negated comparison".into())
                } else {
                    None
                }
            }
            Literal::Neg(inner) => {
                if negated {
                    Some("nested negation".into())
                } else {
                    check(inner, true)
                }
            }
        }
    }
    body.iter().find_map(|l| check(l, false))
}

/// A comparison usable as a scan predicate: `Var τ const` or `const τ Var`
/// with τ ∈ {=, ≠, <, ≤, >, ≥}.
fn as_pushable(lit: &Literal) -> Option<(String, Predicate)> {
    let Literal::Cmp { left, op, right } = lit else {
        return None;
    };
    let cmp = map_op(*op)?;
    match (left, right) {
        (Term::Var(v), Term::Val(c)) => Some((v.clone(), Predicate::new("", cmp, c.clone()))),
        (Term::Val(c), Term::Var(v)) => Some((v.clone(), Predicate::new("", flip(cmp), c.clone()))),
        _ => None,
    }
}

fn map_op(op: CmpOp) -> Option<Cmp> {
    match op {
        CmpOp::Eq => Some(Cmp::Eq),
        CmpOp::Ne => Some(Cmp::Ne),
        CmpOp::Lt => Some(Cmp::Lt),
        CmpOp::Le => Some(Cmp::Le),
        CmpOp::Gt => Some(Cmp::Gt),
        CmpOp::Ge => Some(Cmp::Ge),
        CmpOp::In => None,
    }
}

/// Mirror a comparison so the variable sits on the left.
fn flip(cmp: Cmp) -> Cmp {
    match cmp {
        Cmp::Lt => Cmp::Gt,
        Cmp::Le => Cmp::Ge,
        Cmp::Gt => Cmp::Lt,
        Cmp::Ge => Cmp::Le,
        eq => eq,
    }
}

/// Variables bound by concrete attribute positions of a positive literal
/// (eligible to receive comparison pushdown).
fn attr_bound_vars(lit: &Literal) -> BTreeSet<String> {
    match lit {
        Literal::OTerm(o) => o
            .bindings
            .iter()
            .filter(|b| b.name.as_name().is_some())
            .filter_map(|b| b.term.as_var().map(str::to_string))
            .collect(),
        _ => BTreeSet::new(),
    }
}

/// Attribute columns of `lit` whose bound term is `var`.
fn attr_columns_for<'l>(lit: &'l Literal, var: &str) -> Vec<&'l str> {
    match lit {
        Literal::OTerm(o) => o
            .bindings
            .iter()
            .filter(|b| b.term.as_var() == Some(var))
            .filter_map(|b| b.name.as_name())
            .collect(),
        _ => Vec::new(),
    }
}
