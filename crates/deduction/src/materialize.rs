//! Delta-driven incremental view maintenance over [`FactDb`].
//!
//! A [`MaterializedProgram`] keeps a rule program's fixpoint *live*: after
//! an initial saturation, [`MaterializedProgram::apply`] folds a
//! [`FactDelta`] (base-fact insertions and removals) into the materialized
//! database without recomputing from scratch.
//!
//! Maintenance is split by strongly connected component of the rule
//! dependency graph ([`crate::strata::sccs`]), processed bottom-up:
//!
//! * **Non-recursive components** are maintained by **counting**: each
//!   derived fact carries the number of rule derivations supporting it
//!   (fact-combination granularity). An insertion batch adds the new
//!   derivations through the telescoping delta formula
//!   `Δ(R₁⋈…⋈Rₙ) = Σᵢ New₁..ᵢ₋₁ ⋈ ΔRᵢ ⋈ Oldᵢ₊₁..ₙ`, a deletion batch
//!   subtracts them, and a fact is removed exactly when its count reaches
//!   zero (and it is not also a base fact).
//! * **Recursive components** are maintained DRed-style: over-delete
//!   everything reachable from the deleted supports, re-derive facts that
//!   still have an alternative derivation (exact head match + body check),
//!   then run a semi-naive insertion pass for the additions.
//! * **Negation** is sound because components are processed in dependency
//!   (hence stratum) order: by the time `¬p` is evaluated, `p`'s relation
//!   has already settled, and the sign flip is handled by swapping the
//!   roles of its plus/minus sets (facts leaving `p` *enable* derivations,
//!   facts entering `p` *disable* them).
//!
//! Throughout a batch, the pre-batch ("Old") state of any relation is
//! reconstructed as `current − plus + minus`: every physical change made to
//! the database is mirrored in the per-relation `plus`/`minus` sets, so the
//! reconstruction is exact even while the batch is in flight.

use crate::eval::{EvalError, EvalStats, EvalStrategy, FactDb, Program};
use crate::safety::check_rule;
use crate::strata::{sccs, stratify};
use crate::subst::Subst;
use crate::term::{CmpOp, Literal, NameRef, OTermPat, Term};
use crate::unify::{unify_oterm_pattern, unify_terms};
use oo_model::Value;
use std::collections::{BTreeMap, BTreeSet};

/// A ground fact, in either of the database's two shapes.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Fact {
    /// A ground complex O-term (`<oid: Class | a:v, …>`).
    Class(OTermPat),
    /// A ground ordinary predicate tuple.
    Pred(String, Vec<Value>),
}

impl Fact {
    /// Build a class fact; the O-term must have a concrete class name.
    pub fn class(o: OTermPat) -> Fact {
        assert!(
            o.class.as_name().is_some(),
            "class facts need a concrete class"
        );
        Fact::Class(o)
    }

    /// Build a predicate fact.
    pub fn pred(name: impl Into<String>, tuple: Vec<Value>) -> Fact {
        Fact::Pred(name.into(), tuple)
    }

    /// The relation (class or predicate name) this fact belongs to.
    pub fn relation(&self) -> &str {
        match self {
            Fact::Class(o) => o.class.as_name().expect("constructed with a name"),
            Fact::Pred(n, _) => n,
        }
    }

    /// Convert a ground literal into a fact; `None` if non-ground or not a
    /// storable shape.
    pub fn from_literal(lit: &Literal) -> Option<Fact> {
        match lit {
            Literal::OTerm(o) => {
                let ground = o.object.as_val().is_some()
                    && o.class.as_name().is_some()
                    && o.bindings
                        .iter()
                        .all(|b| b.name.as_name().is_some() && b.term.as_val().is_some());
                ground.then(|| Fact::Class(o.clone()))
            }
            Literal::Pred(p) => {
                let tuple: Option<Vec<Value>> =
                    p.args.iter().map(|a| a.as_val().cloned()).collect();
                tuple.map(|t| Fact::Pred(p.name.clone(), t))
            }
            _ => None,
        }
    }
}

/// A batch of base-fact changes to fold into a materialization.
///
/// Removals are applied before insertions; an update is expressed as a
/// removal of the old fact plus an insertion of the new one. Inserting a
/// fact that is already a base fact, or removing one that is not, is a
/// no-op.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FactDelta {
    pub insert: Vec<Fact>,
    pub remove: Vec<Fact>,
}

impl FactDelta {
    pub fn new() -> Self {
        FactDelta::default()
    }

    pub fn insert(&mut self, f: Fact) -> &mut Self {
        self.insert.push(f);
        self
    }

    pub fn remove(&mut self, f: Fact) -> &mut Self {
        self.remove.push(f);
        self
    }

    pub fn is_empty(&self) -> bool {
        self.insert.is_empty() && self.remove.is_empty()
    }

    pub fn len(&self) -> usize {
        self.insert.len() + self.remove.len()
    }

    /// Relations named by any fact in the batch.
    pub fn touched(&self) -> BTreeSet<String> {
        self.insert
            .iter()
            .chain(&self.remove)
            .map(|f| f.relation().to_string())
            .collect()
    }
}

/// Work counters from one [`MaterializedProgram::apply`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// Facts physically added to the materialization.
    pub physical_inserts: u64,
    /// Facts physically removed from the materialization.
    pub physical_removes: u64,
    /// Over-deleted facts restored because an alternative derivation
    /// survived (the DRed re-derive step).
    pub rederived: u64,
}

impl DeltaStats {
    /// Total physical changes (the `fedoo_deduction_delta_facts_total`
    /// counter increment).
    pub fn physical_total(&self) -> u64 {
        self.physical_inserts + self.physical_removes
    }
}

/// Per-relation sets of facts added (`plus`) / removed (`minus`) so far in
/// the current batch. Invariant: `plus[r] = New(r) ∖ Old(r)` and
/// `minus[r] = Old(r) ∖ New(r)` — a fact cancelled back to its pre-batch
/// state appears in neither.
type RelSet = BTreeMap<String, BTreeSet<Fact>>;

/// Which state of a relation a body position reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    New,
    Old,
}

/// Role assignment for the non-distinguished positions of a delta join.
#[derive(Debug, Clone, Copy)]
enum Roles {
    /// Telescoping: positions before the delta read New, after read Old.
    /// Exact — required where multiplicities matter (counting).
    Telescope,
    /// Everything reads New (complete over-approximation for insertions
    /// under set semantics).
    AllNew,
    /// Everything reads Old (complete over-approximation for deletions
    /// under set semantics).
    AllOld,
}

impl Roles {
    fn role_of(self, pos: usize, delta_pos: usize) -> Role {
        match self {
            Roles::Telescope => {
                if pos < delta_pos {
                    Role::New
                } else {
                    Role::Old
                }
            }
            Roles::AllNew => Role::New,
            Roles::AllOld => Role::Old,
        }
    }
}

/// Direction of the change being enumerated at the distinguished position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dir {
    Gain,
    Loss,
}

/// What the distinguished body position ranges over.
enum DeltaAt<'a> {
    /// A positive literal restricted to an explicit fact set.
    Set(&'a BTreeSet<Fact>),
    /// A negated literal whose truth value flipped: for [`Dir::Gain`] the
    /// inner literal became absent (¬∃New ∧ ∃Old), for [`Dir::Loss`] it
    /// became present (∃New ∧ ¬∃Old). Carries the batch's flipped fact
    /// set (the relation's physical removals for a gain, insertions for a
    /// loss): every flipped binding grounds the inner literal to one of
    /// those facts, so evaluation seeds from the set instead of scanning
    /// the rest of the body unconstrained.
    NegFlip(&'a BTreeSet<Fact>),
}

/// One maintenance unit: a strongly connected component of the dependency
/// graph that owns at least one rule.
#[derive(Debug, Clone)]
struct Unit {
    relations: BTreeSet<String>,
    rule_idxs: Vec<usize>,
    /// Every relation read by the unit's rule bodies (through negation).
    reads: BTreeSet<String>,
    recursive: bool,
}

/// A compiled single-head rule.
#[derive(Debug, Clone)]
struct MRule {
    head: Literal,
    body: Vec<Literal>,
    head_rel: String,
}

/// A rule program whose fixpoint is kept materialized under base-fact
/// deltas. See the module docs for the counting / DRed split.
///
/// Deliberately not `Clone`: a serving lineage shares one maintained
/// state and moves it between snapshots with [`Self::sync_base`].
#[derive(Debug)]
pub struct MaterializedProgram {
    program: Program,
    rules: Vec<MRule>,
    units: Vec<Unit>,
    db: FactDb,
    /// Externally asserted (EDB) facts. A fact may be both base and
    /// derived; it stays live while either support remains.
    base: BTreeSet<Fact>,
    /// Derivation counts for facts of counting-maintained relations.
    counts: BTreeMap<Fact, u64>,
    /// Relations maintained by counting (non-recursive components).
    counting: BTreeSet<String>,
    /// Relations maintained by DRed (recursive components).
    recursive: BTreeSet<String>,
    /// Work counters from the initial saturation.
    init_stats: EvalStats,
}

impl MaterializedProgram {
    /// Saturate `base_db` under `program` and set up maintenance state.
    ///
    /// Fails with [`EvalError::Unsupported`] for constructs the maintainer
    /// does not handle (class- or attribute-name variables); callers should
    /// fall back to full recomputation. Disjunctive rules are skipped, as
    /// in [`Program::evaluate`].
    pub fn new(program: Program, base_db: &FactDb) -> Result<Self, EvalError> {
        let mut rules = Vec::new();
        for r in &program.rules {
            if r.heads.len() != 1 {
                continue; // representational, matches Program::evaluate
            }
            check_rule(r).map_err(|e| EvalError::Unsafe(e.to_string()))?;
            let head = r.heads[0].clone();
            for lit in std::iter::once(&head).chain(&r.body) {
                check_maintainable(lit)?;
            }
            let head_rel = head
                .relation()
                .ok_or_else(|| EvalError::Unsupported(format!("head `{head}` has no relation")))?
                .to_string();
            rules.push(MRule {
                head,
                body: r.body.clone(),
                head_rel,
            });
        }
        stratify(&program.rules).map_err(EvalError::NotStratifiable)?;

        let mut db = base_db.clone();
        let base: BTreeSet<Fact> = all_facts(&db).into_iter().collect();
        let init_stats = program.evaluate_with(&mut db, EvalStrategy::SemiNaive)?;

        // Maintenance units from the SCCs, bottom-up; purely extensional
        // components (no rules) need no maintenance.
        let mut units = Vec::new();
        for comp in sccs(&program.rules) {
            let relations: BTreeSet<String> = comp.into_iter().collect();
            let rule_idxs: Vec<usize> = rules
                .iter()
                .enumerate()
                .filter(|(_, r)| relations.contains(&r.head_rel))
                .map(|(i, _)| i)
                .collect();
            if rule_idxs.is_empty() {
                continue;
            }
            let reads: BTreeSet<String> = rule_idxs
                .iter()
                .flat_map(|&i| rules[i].body.iter())
                .filter_map(|l| l.relation().map(str::to_string))
                .collect();
            let recursive = relations.len() > 1
                || rule_idxs.iter().any(|&i| {
                    rules[i]
                        .body
                        .iter()
                        .any(|l| !l.is_negative() && l.relation() == Some(&rules[i].head_rel))
                });
            units.push(Unit {
                relations,
                rule_idxs,
                reads,
                recursive,
            });
        }
        let counting: BTreeSet<String> = units
            .iter()
            .filter(|u| !u.recursive)
            .flat_map(|u| u.relations.iter().cloned())
            .collect();
        let recursive: BTreeSet<String> = units
            .iter()
            .filter(|u| u.recursive)
            .flat_map(|u| u.relations.iter().cloned())
            .collect();

        // Initial derivation counts for the counting relations, using the
        // same matcher the delta path uses so multiplicities line up.
        let empty = RelSet::new();
        let mut counts: BTreeMap<Fact, u64> = BTreeMap::new();
        for unit in units.iter().filter(|u| !u.recursive) {
            for &ri in &unit.rule_idxs {
                let rule = &rules[ri];
                for s in eval_all(&db, &empty, &empty, &rule.body, Role::New) {
                    *counts.entry(head_fact(&rule.head, &s)).or_insert(0) += 1;
                }
            }
        }

        Ok(MaterializedProgram {
            program,
            rules,
            units,
            db,
            base,
            counts,
            counting,
            recursive,
            init_stats,
        })
    }

    /// Work counters from the initial saturation run.
    pub fn initial_stats(&self) -> EvalStats {
        self.init_stats
    }

    /// The maintained, saturated database.
    pub fn db(&self) -> &FactDb {
        &self.db
    }

    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Number of base (externally asserted) facts.
    pub fn base_len(&self) -> usize {
        self.base.len()
    }

    /// The base (externally asserted) facts.
    pub fn base_facts(&self) -> &BTreeSet<Fact> {
        &self.base
    }

    /// Is `rel` maintained by DRed (a recursive component)?
    pub fn is_recursive_relation(&self, rel: &str) -> bool {
        self.recursive.contains(rel)
    }

    /// Derivation count of a fact in a counting relation (0 otherwise).
    pub fn derivation_count(&self, f: &Fact) -> u64 {
        self.counts.get(f).copied().unwrap_or(0)
    }

    /// Query the maintained database (see [`FactDb::query`]).
    pub fn query(&self, body: &[Literal]) -> Vec<Subst> {
        self.db.query(body)
    }

    /// The set of live facts in the maintained database. Two databases
    /// with the same live facts are semantically equal even when their
    /// physical layouts (tombstones, insertion order) differ.
    pub fn live_facts(&self) -> BTreeSet<Fact> {
        all_facts(&self.db).into_iter().collect()
    }

    /// From-scratch reference: re-saturate the base facts with the
    /// program. The maintained database must always equal this.
    pub fn recompute_reference(&self) -> Result<FactDb, EvalError> {
        let mut db = FactDb::new();
        for f in &self.base {
            match f {
                Fact::Class(o) => {
                    db.insert_oterm(o.clone());
                }
                Fact::Pred(n, t) => {
                    db.insert_pred(n.clone(), t.clone());
                }
            }
        }
        self.program
            .evaluate_with(&mut db, EvalStrategy::SemiNaive)?;
        Ok(db)
    }

    /// Bring the base facts to exactly those of `base_db` (an unsaturated
    /// database): diff it against the current base and [`Self::apply`]
    /// the resulting delta. The diff runs in either direction, so the
    /// same materialization can move forward to a newer snapshot and
    /// back to an older one.
    pub fn sync_base(&mut self, base_db: &FactDb) -> DeltaStats {
        let next: BTreeSet<Fact> = all_facts(base_db).into_iter().collect();
        let delta = FactDelta {
            insert: next.difference(&self.base).cloned().collect(),
            remove: self.base.difference(&next).cloned().collect(),
        };
        self.apply(&delta)
    }

    /// Fold a batch of base-fact changes into the materialization,
    /// maintaining every derived relation. Returns physical-change
    /// counters (also published as `fedoo_deduction_delta_facts_total`).
    pub fn apply(&mut self, delta: &FactDelta) -> DeltaStats {
        let mut plus: RelSet = RelSet::new();
        let mut minus: RelSet = RelSet::new();
        let mut stats = DeltaStats::default();

        // Base phase: flip base flags; physical changes only where the
        // fact's overall liveness transitions.
        for f in &delta.remove {
            if !self.base.remove(f) {
                continue;
            }
            let rel = f.relation();
            if self.counting.contains(rel) && self.counts.get(f).copied().unwrap_or(0) > 0 {
                continue; // still derivation-supported
            }
            // Extensional, count-zero, or recursive-relation fact: remove
            // now. For recursive relations this seeds the over-deletion;
            // re-derivation restores it if rules still prove it.
            physical_remove(&mut self.db, &mut plus, &mut minus, &mut stats, f);
        }
        for f in &delta.insert {
            if !self.base.insert(f.clone()) {
                continue;
            }
            physical_insert(&mut self.db, &mut plus, &mut minus, &mut stats, f);
        }

        // Unit phase, bottom-up. A unit runs only when the batch touched a
        // relation it reads or owns.
        for u in 0..self.units.len() {
            let touched = {
                let unit = &self.units[u];
                plus.keys()
                    .chain(minus.keys())
                    .any(|k| unit.reads.contains(k) || unit.relations.contains(k))
            };
            if !touched {
                continue;
            }
            let recursive = self.units[u].recursive;
            let _unit_span = obs::span!(
                "deduction.apply_unit",
                "deduction",
                "mode={} negation={} rels={}",
                if recursive { "dred" } else { "counting" },
                u8::from(self.unit_uses_negation(u)),
                self.units[u]
                    .relations
                    .iter()
                    .cloned()
                    .collect::<Vec<_>>()
                    .join("+")
            );
            if recursive {
                self.apply_recursive(u, &mut plus, &mut minus, &mut stats);
            } else {
                self.apply_counting(u, &mut plus, &mut minus, &mut stats);
            }
        }

        if obs::enabled() {
            obs::counter_add("fedoo_deduction_delta_facts_total", stats.physical_total());
            obs::counter_add("fedoo_deduction_rederived_total", stats.rederived);
            obs::counter_add("fedoo_deduction_maintained_deltas_total", 1);
        }
        stats
    }

    /// Does any rule of unit `u` read through negation? (Tagged on the
    /// unit's apply span: negation forces the conservative delta paths.)
    fn unit_uses_negation(&self, u: usize) -> bool {
        self.units[u]
            .rule_idxs
            .iter()
            .any(|&ri| self.rules[ri].body.iter().any(Literal::is_negative))
    }

    /// Counting maintenance for a non-recursive unit: net the derivation
    /// deltas per head fact, then settle presence transitions.
    fn apply_counting(
        &mut self,
        u: usize,
        plus: &mut RelSet,
        minus: &mut RelSet,
        stats: &mut DeltaStats,
    ) {
        let mut dcount: BTreeMap<Fact, i64> = BTreeMap::new();
        {
            let unit = &self.units[u];
            for &ri in &unit.rule_idxs {
                let rule = &self.rules[ri];
                for i in 0..rule.body.len() {
                    for (dir, sign) in [(Dir::Gain, 1i64), (Dir::Loss, -1i64)] {
                        let Some(at) = delta_at(&rule.body[i], dir, plus, minus) else {
                            continue;
                        };
                        for s in eval_delta(
                            &self.db,
                            plus,
                            minus,
                            &rule.body,
                            i,
                            at,
                            dir,
                            Roles::Telescope,
                        ) {
                            *dcount.entry(head_fact(&rule.head, &s)).or_insert(0) += sign;
                        }
                    }
                }
            }
        }
        for (f, dc) in dcount {
            if dc == 0 {
                continue;
            }
            let cur = self.counts.get(&f).copied().unwrap_or(0) as i64;
            let newc = (cur + dc).max(0) as u64;
            if newc == 0 {
                self.counts.remove(&f);
            } else {
                self.counts.insert(f.clone(), newc);
            }
            if newc > 0 || self.base.contains(&f) {
                physical_insert(&mut self.db, plus, minus, stats, &f);
            } else {
                physical_remove(&mut self.db, plus, minus, stats, &f);
            }
        }
    }

    /// DRed maintenance for a recursive unit: over-delete, re-derive,
    /// then a semi-naive insertion pass.
    fn apply_recursive(
        &mut self,
        u: usize,
        plus: &mut RelSet,
        minus: &mut RelSet,
        stats: &mut DeltaStats,
    ) {
        let unit_rels = self.units[u].relations.clone();
        let rule_idxs = self.units[u].rule_idxs.clone();

        // ---- Over-delete ----------------------------------------------
        // Round 0 sources: lower-relation losses (minus of positives,
        // plus of negateds) and the unit's own base-phase removals.
        let mut frontier: RelSet = unit_rels
            .iter()
            .filter_map(|r| minus.get(r).map(|s| (r.clone(), s.clone())))
            .collect();
        let mut deleted: BTreeSet<Fact> =
            frontier.values().flat_map(|s| s.iter().cloned()).collect();
        let mut first = true;
        loop {
            let mut lost: Vec<Fact> = Vec::new();
            for &ri in &rule_idxs {
                let rule = &self.rules[ri];
                for i in 0..rule.body.len() {
                    let lit = &rule.body[i];
                    let same_unit =
                        !lit.is_negative() && lit.relation().is_some_and(|r| unit_rels.contains(r));
                    let at = if same_unit {
                        match lit.relation().and_then(|r| frontier.get(r)) {
                            Some(set) if !set.is_empty() => DeltaAt::Set(set),
                            _ => continue,
                        }
                    } else if first {
                        match delta_at(lit, Dir::Loss, plus, minus) {
                            Some(at) => at,
                            None => continue,
                        }
                    } else {
                        continue;
                    };
                    for s in eval_delta(
                        &self.db,
                        plus,
                        minus,
                        &rule.body,
                        i,
                        at,
                        Dir::Loss,
                        Roles::AllOld,
                    ) {
                        lost.push(head_fact(&rule.head, &s));
                    }
                }
            }
            let mut next: RelSet = RelSet::new();
            for f in lost {
                if self.base.contains(&f) || !db_contains(&self.db, &f) {
                    continue; // base-supported facts survive; absent ones are done
                }
                physical_remove(&mut self.db, plus, minus, stats, &f);
                deleted.insert(f.clone());
                next.entry(f.relation().to_string()).or_default().insert(f);
            }
            if next.is_empty() {
                break;
            }
            frontier = next;
            first = false;
        }

        // ---- Re-derive ------------------------------------------------
        // Restore over-deleted facts with a surviving derivation; loop
        // because a restoration can re-enable another.
        loop {
            let mut restored: Vec<Fact> = Vec::new();
            for f in &deleted {
                if self.rederivable(&rule_idxs, plus, minus, f) {
                    restored.push(f.clone());
                }
            }
            if restored.is_empty() {
                break;
            }
            for f in restored {
                deleted.remove(&f);
                physical_insert(&mut self.db, plus, minus, stats, &f);
                stats.rederived += 1;
            }
        }

        // ---- Insert ----------------------------------------------------
        // Round 0 sources: lower-relation gains (plus of positives, minus
        // of negateds) and the unit's own base-phase insertions. Later
        // rounds fire on the previous round's newly derived facts.
        let mut frontier: RelSet = unit_rels
            .iter()
            .filter_map(|r| plus.get(r).map(|s| (r.clone(), s.clone())))
            .collect();
        let mut first = true;
        loop {
            let mut gained: Vec<Fact> = Vec::new();
            for &ri in &rule_idxs {
                let rule = &self.rules[ri];
                for i in 0..rule.body.len() {
                    let lit = &rule.body[i];
                    let same_unit =
                        !lit.is_negative() && lit.relation().is_some_and(|r| unit_rels.contains(r));
                    let at = if same_unit {
                        match lit.relation().and_then(|r| frontier.get(r)) {
                            Some(set) if !set.is_empty() => DeltaAt::Set(set),
                            _ => continue,
                        }
                    } else if first {
                        match delta_at(lit, Dir::Gain, plus, minus) {
                            Some(at) => at,
                            None => continue,
                        }
                    } else {
                        continue;
                    };
                    for s in eval_delta(
                        &self.db,
                        plus,
                        minus,
                        &rule.body,
                        i,
                        at,
                        Dir::Gain,
                        Roles::AllNew,
                    ) {
                        gained.push(head_fact(&rule.head, &s));
                    }
                }
            }
            let mut next: RelSet = RelSet::new();
            for f in gained {
                if db_contains(&self.db, &f) {
                    continue;
                }
                physical_insert(&mut self.db, plus, minus, stats, &f);
                next.entry(f.relation().to_string()).or_default().insert(f);
            }
            if next.is_empty() {
                break;
            }
            frontier = next;
            first = false;
        }
    }

    /// Does any rule of the unit still derive `f` in the current (New)
    /// state? Exact head match: binding-name sets must coincide.
    fn rederivable(&self, rule_idxs: &[usize], plus: &RelSet, minus: &RelSet, f: &Fact) -> bool {
        for &ri in rule_idxs {
            let rule = &self.rules[ri];
            if rule.head_rel != f.relation() {
                continue;
            }
            let Some(seed) = head_match(&rule.head, f) else {
                continue;
            };
            let order = order_positions(&rule.body, None);
            let mut states = vec![seed];
            for &j in &order {
                if states.is_empty() {
                    break;
                }
                states = step_position(&self.db, plus, minus, &rule.body[j], Role::New, states);
            }
            if !states.is_empty() {
                return true;
            }
        }
        false
    }
}

/// Reject rule shapes the maintainer cannot track (class-name or
/// attribute-name variables, whose delta footprint is unbounded).
fn check_maintainable(lit: &Literal) -> Result<(), EvalError> {
    match lit {
        Literal::OTerm(o) => {
            if matches!(o.class, NameRef::Var(_))
                || o.bindings.iter().any(|b| b.name.as_name().is_none())
            {
                return Err(EvalError::Unsupported(format!(
                    "name variable in maintained literal `{lit}`"
                )));
            }
            Ok(())
        }
        Literal::Neg(inner) => check_maintainable(inner),
        _ => Ok(()),
    }
}

/// All live facts currently in the database.
pub fn all_facts(db: &FactDb) -> Vec<Fact> {
    let mut out = Vec::new();
    for c in db.class_names() {
        for o in db.oterms_of(c) {
            out.push(Fact::Class(o.clone()));
        }
    }
    for p in db.pred_names() {
        for t in db.tuples_of(p) {
            out.push(Fact::Pred(p.to_string(), t.clone()));
        }
    }
    out
}

fn db_contains(db: &FactDb, f: &Fact) -> bool {
    match f {
        Fact::Class(o) => db.contains_oterm(o),
        Fact::Pred(n, t) => db.contains_pred(n, t),
    }
}

/// Physically insert `f`, keeping the plus/minus invariant: a fact whose
/// removal is pending in `minus` is cancelled back to "unchanged".
fn physical_insert(
    db: &mut FactDb,
    plus: &mut RelSet,
    minus: &mut RelSet,
    stats: &mut DeltaStats,
    f: &Fact,
) {
    let inserted = match f {
        Fact::Class(o) => db.insert_oterm(o.clone()),
        Fact::Pred(n, t) => db.insert_pred(n.clone(), t.clone()),
    };
    if !inserted {
        return;
    }
    stats.physical_inserts += 1;
    let rel = f.relation().to_string();
    let cancelled = minus.get_mut(&rel).is_some_and(|s| s.remove(f));
    if !cancelled {
        plus.entry(rel).or_default().insert(f.clone());
    }
}

/// Physically remove `f`, keeping the plus/minus invariant.
fn physical_remove(
    db: &mut FactDb,
    plus: &mut RelSet,
    minus: &mut RelSet,
    stats: &mut DeltaStats,
    f: &Fact,
) {
    let removed = match f {
        Fact::Class(o) => db.remove_oterm(o),
        Fact::Pred(n, t) => db.remove_pred(n, t),
    };
    if !removed {
        return;
    }
    stats.physical_removes += 1;
    let rel = f.relation().to_string();
    let cancelled = plus.get_mut(&rel).is_some_and(|s| s.remove(f));
    if !cancelled {
        minus.entry(rel).or_default().insert(f.clone());
    }
}

/// The delta source for body position holding `lit`, if it changed in the
/// given direction. Positive literals range over their relation's
/// plus (gains) / minus (losses); negated literals flip the sign.
fn delta_at<'a>(
    lit: &Literal,
    dir: Dir,
    plus: &'a RelSet,
    minus: &'a RelSet,
) -> Option<DeltaAt<'a>> {
    match lit {
        Literal::OTerm(_) | Literal::Pred(_) => {
            let rel = lit.relation()?;
            let set = match dir {
                Dir::Gain => plus.get(rel)?,
                Dir::Loss => minus.get(rel)?,
            };
            (!set.is_empty()).then_some(DeltaAt::Set(set))
        }
        Literal::Neg(inner) => {
            let rel = inner.relation()?;
            let flipped = match dir {
                Dir::Gain => minus.get(rel)?, // facts leaving p enable ¬p
                Dir::Loss => plus.get(rel)?,  // facts entering p disable ¬p
            };
            (!flipped.is_empty()).then_some(DeltaAt::NegFlip(flipped))
        }
        Literal::Cmp { .. } => None,
    }
}

/// Instantiate the rule head under `s`; safety guarantees groundness.
fn head_fact(head: &Literal, s: &Subst) -> Fact {
    let lit = s.apply(head);
    Fact::from_literal(&lit).expect("safe rules derive ground heads")
}

/// Exact head match for re-derivation: unlike body matching (subset
/// semantics), the head must reproduce the fact exactly, so O-term
/// binding-name sets must coincide.
fn head_match(head: &Literal, f: &Fact) -> Option<Subst> {
    match (head, f) {
        (Literal::Pred(p), Fact::Pred(n, vals)) => {
            if p.name != *n || p.args.len() != vals.len() {
                return None;
            }
            let mut s = Subst::new();
            p.args
                .iter()
                .zip(vals)
                .all(|(a, v)| unify_terms(a, &Term::Val(v.clone()), &mut s))
                .then_some(s)
        }
        (Literal::OTerm(hp), Fact::Class(fo)) => {
            let hn: BTreeSet<&str> = hp
                .bindings
                .iter()
                .filter_map(|b| b.name.as_name())
                .collect();
            let fnames: BTreeSet<&str> = fo
                .bindings
                .iter()
                .filter_map(|b| b.name.as_name())
                .collect();
            if hn != fnames {
                return None;
            }
            let mut s = Subst::new();
            unify_oterm_pattern(hp, fo, &mut s).then_some(s)
        }
        _ => None,
    }
}

/// Greedy evaluation order: filters as soon as placeable (`=` passes
/// bindings sideways like the main engine), probe-able positives
/// preferred, remaining filters last.
fn order_positions(body: &[Literal], forced_first: Option<usize>) -> Vec<usize> {
    let is_filter = |l: &Literal| matches!(l, Literal::Cmp { .. } | Literal::Neg(_));
    let ground = |t: &Term, bound: &BTreeSet<String>| match t {
        Term::Val(_) => true,
        Term::Var(v) => bound.contains(v),
    };
    let placeable = |l: &Literal, bound: &BTreeSet<String>| match l {
        Literal::Cmp {
            left,
            op: CmpOp::Eq,
            right,
        } => ground(left, bound) || ground(right, bound),
        _ => l.vars().is_subset(bound),
    };
    let probeable = |l: &Literal, bound: &BTreeSet<String>| match l {
        // Indexable on either end of the tuple (`match_view` probes the
        // first-argument index when the head is bound, the last-argument
        // index when only the tail is).
        Literal::Pred(p) => {
            p.args.first().is_some_and(|t| ground(t, bound))
                || (p.args.len() >= 2 && p.args.last().is_some_and(|t| ground(t, bound)))
        }
        Literal::OTerm(o) => ground(&o.object, bound),
        _ => false,
    };
    let mut order = Vec::with_capacity(body.len());
    let mut bound: BTreeSet<String> = BTreeSet::new();
    let mut remaining: Vec<usize> = (0..body.len()).collect();
    if let Some(f) = forced_first {
        order.push(f);
        bound.extend(body[f].vars());
        remaining.retain(|&i| i != f);
    }
    while !remaining.is_empty() {
        if let Some(k) = remaining
            .iter()
            .position(|&i| is_filter(&body[i]) && placeable(&body[i], &bound))
        {
            let i = remaining.remove(k);
            bound.extend(body[i].vars());
            order.push(i);
            continue;
        }
        let pick = remaining
            .iter()
            .position(|&i| !is_filter(&body[i]) && probeable(&body[i], &bound))
            .or_else(|| remaining.iter().position(|&i| !is_filter(&body[i])));
        match pick {
            Some(k) => {
                let i = remaining.remove(k);
                bound.extend(body[i].vars());
                order.push(i);
            }
            None => {
                // Only never-placeable filters remain; evaluate them last
                // (unresolved comparisons simply drop their states).
                order.append(&mut remaining);
            }
        }
    }
    order
}

/// Enumerate matches of a positive literal in a role view, extending `s`.
/// The Old view is `db − plus + minus`.
fn match_view(
    db: &FactDb,
    plus: &RelSet,
    minus: &RelSet,
    role: Role,
    lit: &Literal,
    s: &Subst,
    out: &mut Vec<Subst>,
) {
    match lit {
        Literal::OTerm(pat) => {
            let class = pat.class.as_name().expect("maintainable literals checked");
            let rel_plus = plus.get(class).filter(|set| !set.is_empty());
            let mut consider = |fact: &OTermPat| {
                if role == Role::Old {
                    if let Some(set) = rel_plus {
                        if set.contains(&Fact::Class(fact.clone())) {
                            return;
                        }
                    }
                }
                let mut s2 = s.clone();
                if unify_oterm_pattern(pat, fact, &mut s2) {
                    out.push(s2);
                }
            };
            match s.value_of(&pat.object) {
                Some(v) => {
                    for fact in db.probe_class(class, &v) {
                        consider(fact);
                    }
                }
                None => {
                    for fact in db.oterms_of(class) {
                        consider(fact);
                    }
                }
            }
            if role == Role::Old {
                if let Some(set) = minus.get(class) {
                    for f in set {
                        if let Fact::Class(fact) = f {
                            let mut s2 = s.clone();
                            if unify_oterm_pattern(pat, fact, &mut s2) {
                                out.push(s2);
                            }
                        }
                    }
                }
            }
        }
        Literal::Pred(p) => {
            let rel_plus = plus.get(&p.name).filter(|set| !set.is_empty());
            let mut consider = |tuple: &Vec<Value>| {
                if tuple.len() != p.args.len() {
                    return;
                }
                if role == Role::Old {
                    if let Some(set) = rel_plus {
                        if set.contains(&Fact::Pred(p.name.clone(), tuple.clone())) {
                            return;
                        }
                    }
                }
                let mut s2 = s.clone();
                if p.args
                    .iter()
                    .zip(tuple)
                    .all(|(a, v)| unify_terms(a, &Term::Val(v.clone()), &mut s2))
                {
                    out.push(s2);
                }
            };
            // Probe the most selective bound position: first argument,
            // else last (arity ≥ 2 — the Δedge(y,z) ⋈ reach(x,y) shape
            // of a left-linear closure binds only the tail), else scan.
            let first_key = p.args.first().and_then(|t| s.value_of(t));
            let last_key = (p.args.len() >= 2)
                .then(|| p.args.last().and_then(|t| s.value_of(t)))
                .flatten();
            match (first_key, last_key) {
                (Some(key), _) => {
                    for tuple in db.probe_pred(&p.name, &key) {
                        consider(tuple);
                    }
                }
                (None, Some(key)) => {
                    for tuple in db.probe_pred_last(&p.name, &key) {
                        consider(tuple);
                    }
                }
                (None, None) => {
                    for tuple in db.tuples_of(&p.name) {
                        consider(tuple);
                    }
                }
            }
            if role == Role::Old {
                if let Some(set) = minus.get(&p.name) {
                    for f in set {
                        if let Fact::Pred(_, tuple) = f {
                            consider(tuple);
                        }
                    }
                }
            }
        }
        _ => {}
    }
}

/// Does the (positive) literal match anything in the role view under `s`?
fn exists_view(
    db: &FactDb,
    plus: &RelSet,
    minus: &RelSet,
    role: Role,
    lit: &Literal,
    s: &Subst,
) -> bool {
    let mut out = Vec::new();
    match_view(db, plus, minus, role, lit, s, &mut out);
    !out.is_empty()
}

/// Matches of a literal against an explicit delta fact set.
fn match_delta(set: &BTreeSet<Fact>, lit: &Literal, s: &Subst, out: &mut Vec<Subst>) {
    match lit {
        Literal::OTerm(pat) => {
            for f in set {
                if let Fact::Class(fact) = f {
                    let mut s2 = s.clone();
                    if unify_oterm_pattern(pat, fact, &mut s2) {
                        out.push(s2);
                    }
                }
            }
        }
        Literal::Pred(p) => {
            for f in set {
                if let Fact::Pred(n, tuple) = f {
                    if *n != p.name || tuple.len() != p.args.len() {
                        continue;
                    }
                    let mut s2 = s.clone();
                    if p.args
                        .iter()
                        .zip(tuple)
                        .all(|(a, v)| unify_terms(a, &Term::Val(v.clone()), &mut s2))
                    {
                        out.push(s2);
                    }
                }
            }
        }
        _ => {}
    }
}

/// Advance all states through one non-distinguished body position.
fn step_position(
    db: &FactDb,
    plus: &RelSet,
    minus: &RelSet,
    lit: &Literal,
    role: Role,
    states: Vec<Subst>,
) -> Vec<Subst> {
    let mut next = Vec::new();
    match lit {
        Literal::Cmp { left, op, right } => {
            for s in states {
                let (l, r) = (s.value_of(left), s.value_of(right));
                match (l, r) {
                    (Some(l), Some(r)) if op.eval(&l, &r) => next.push(s),
                    // `=` passes bindings sideways, as in the main engine.
                    (Some(v), None) if *op == CmpOp::Eq => {
                        if let Term::Var(name) = s.resolve(right) {
                            let mut s = s;
                            s.bind(name, Term::Val(v));
                            next.push(s);
                        }
                    }
                    (None, Some(v)) if *op == CmpOp::Eq => {
                        if let Term::Var(name) = s.resolve(left) {
                            let mut s = s;
                            s.bind(name, Term::Val(v));
                            next.push(s);
                        }
                    }
                    _ => {}
                }
            }
        }
        Literal::Neg(inner) => {
            for s in states {
                if !exists_view(db, plus, minus, role, inner, &s) {
                    next.push(s);
                }
            }
        }
        positive => {
            for s in &states {
                match_view(db, plus, minus, role, positive, s, &mut next);
            }
        }
    }
    next
}

/// Evaluate a rule body with position `i` distinguished as the delta.
#[allow(clippy::too_many_arguments)]
fn eval_delta(
    db: &FactDb,
    plus: &RelSet,
    minus: &RelSet,
    body: &[Literal],
    i: usize,
    at: DeltaAt<'_>,
    dir: Dir,
    roles: Roles,
) -> Vec<Subst> {
    // The delta position always goes first: positive deltas range over an
    // explicit fact set, and a negation flip seeds from the flipped set
    // (every flipped binding grounds the inner literal to one of its
    // facts), so in both shapes it binds the rest of the body instead of
    // leaving it to open-ended enumeration.
    let order = order_positions(body, Some(i));
    let mut states = vec![Subst::new()];
    for &j in &order {
        if states.is_empty() {
            break;
        }
        if j == i {
            let mut next = Vec::new();
            match (&at, &body[j]) {
                (DeltaAt::Set(set), lit) => {
                    for s in &states {
                        match_delta(set, lit, s, &mut next);
                    }
                }
                (DeltaAt::NegFlip(set), Literal::Neg(inner)) => {
                    let mut seeded = Vec::new();
                    for s in &states {
                        match_delta(set, inner, s, &mut seeded);
                    }
                    // The seed set over-approximates (a batch can insert
                    // and remove around the same binding); confirm the
                    // flip against the actual Old/New views.
                    for s in seeded {
                        let in_new = exists_view(db, plus, minus, Role::New, inner, &s);
                        let in_old = exists_view(db, plus, minus, Role::Old, inner, &s);
                        let pass = match dir {
                            Dir::Gain => !in_new && in_old,
                            Dir::Loss => in_new && !in_old,
                        };
                        if pass {
                            next.push(s);
                        }
                    }
                }
                _ => unreachable!("NegFlip only distinguishes negated positions"),
            }
            states = next;
        } else {
            states = step_position(db, plus, minus, &body[j], roles.role_of(j, i), states);
        }
    }
    states
}

/// Full evaluation of a body in one role view (no distinguished position):
/// the matcher used for initial counting, so delta and initial
/// multiplicities agree exactly.
fn eval_all(
    db: &FactDb,
    plus: &RelSet,
    minus: &RelSet,
    body: &[Literal],
    role: Role,
) -> Vec<Subst> {
    let order = order_positions(body, None);
    let mut states = vec![Subst::new()];
    for &j in &order {
        if states.is_empty() {
            break;
        }
        states = step_position(db, plus, minus, &body[j], role, states);
    }
    states
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Rule;

    fn ot(obj: Term, class: &str) -> OTermPat {
        OTermPat::new(obj, class)
    }

    fn pred2(name: &str, a: &str, b: &str) -> Fact {
        Fact::pred(name, vec![a.into(), b.into()])
    }

    /// Assert the maintained db equals a from-scratch recompute,
    /// comparing live fact sets (physical layout — tombstones and
    /// insertion order — legitimately differs).
    fn assert_consistent(mat: &MaterializedProgram) {
        let reference = mat.recompute_reference().unwrap();
        let live: BTreeSet<Fact> = mat.live_facts();
        let want: BTreeSet<Fact> = all_facts(&reference).into_iter().collect();
        assert_eq!(live, want, "materialization drifted");
    }

    fn ancestor_program() -> Program {
        Program::new(vec![
            Rule::new(
                Literal::pred("anc", [Term::var("x"), Term::var("y")]),
                vec![Literal::pred("par", [Term::var("x"), Term::var("y")])],
            ),
            Rule::new(
                Literal::pred("anc", [Term::var("x"), Term::var("z")]),
                vec![
                    Literal::pred("par", [Term::var("x"), Term::var("y")]),
                    Literal::pred("anc", [Term::var("y"), Term::var("z")]),
                ],
            ),
        ])
    }

    #[test]
    fn counting_insert_and_delete() {
        let _guard = obs::test_guard();
        // uncle(x,y) ⇐ parent(x,z), brother(z,y): non-recursive.
        let prog = Program::new(vec![Rule::new(
            Literal::pred("uncle", [Term::var("x"), Term::var("y")]),
            vec![
                Literal::pred("parent", [Term::var("x"), Term::var("z")]),
                Literal::pred("brother", [Term::var("z"), Term::var("y")]),
            ],
        )]);
        let mut base = FactDb::new();
        base.insert_pred("parent", vec!["john".into(), "mary".into()]);
        base.insert_pred("brother", vec!["mary".into(), "bob".into()]);
        let mut mat = MaterializedProgram::new(prog, &base).unwrap();
        assert_eq!(mat.db().tuples_of("uncle").count(), 1);

        let mut d = FactDelta::new();
        d.insert(pred2("brother", "mary", "tim"));
        let stats = mat.apply(&d);
        assert_eq!(stats.physical_inserts, 2); // the base fact + uncle(john,tim)
        assert_eq!(mat.db().tuples_of("uncle").count(), 2);
        assert_consistent(&mat);

        let mut d = FactDelta::new();
        d.remove(pred2("brother", "mary", "bob"));
        mat.apply(&d);
        assert_eq!(mat.db().tuples_of("uncle").count(), 1);
        assert_consistent(&mat);
    }

    #[test]
    fn counting_survives_shared_support() {
        let _guard = obs::test_guard();
        // Two rules derive p(x); removing one support must not remove p.
        let prog = Program::new(vec![
            Rule::new(
                Literal::pred("p", [Term::var("x")]),
                vec![Literal::pred("a", [Term::var("x")])],
            ),
            Rule::new(
                Literal::pred("p", [Term::var("x")]),
                vec![Literal::pred("b", [Term::var("x")])],
            ),
        ]);
        let mut base = FactDb::new();
        base.insert_pred("a", vec!["v".into()]);
        base.insert_pred("b", vec!["v".into()]);
        let mut mat = MaterializedProgram::new(prog, &base).unwrap();
        assert_eq!(mat.derivation_count(&Fact::pred("p", vec!["v".into()])), 2);

        let mut d = FactDelta::new();
        d.remove(Fact::pred("a", vec!["v".into()]));
        mat.apply(&d);
        assert_eq!(mat.db().tuples_of("p").count(), 1, "one support remains");
        assert_consistent(&mat);

        let mut d = FactDelta::new();
        d.remove(Fact::pred("b", vec!["v".into()]));
        mat.apply(&d);
        assert_eq!(mat.db().tuples_of("p").count(), 0);
        assert_consistent(&mat);
    }

    #[test]
    fn dred_trap_twice_derived_recursive_fact() {
        let _guard = obs::test_guard();
        // anc(a,c) holds via a→b→c and via the direct edge a→c. Deleting
        // the direct edge must keep anc(a,c) (re-derivation), deleting the
        // chain too must remove it.
        let mut base = FactDb::new();
        for (x, y) in [("a", "b"), ("b", "c"), ("a", "c")] {
            base.insert_pred("par", vec![x.into(), y.into()]);
        }
        let mut mat = MaterializedProgram::new(ancestor_program(), &base).unwrap();
        assert!(mat.is_recursive_relation("anc"));
        assert!(mat.db().contains_pred("anc", &["a".into(), "c".into()]));

        let mut d = FactDelta::new();
        d.remove(pred2("par", "a", "c"));
        let stats = mat.apply(&d);
        assert!(
            mat.db().contains_pred("anc", &["a".into(), "c".into()]),
            "alternative derivation must survive over-deletion"
        );
        assert!(stats.rederived > 0, "{stats:?}");
        assert_consistent(&mat);

        let mut d = FactDelta::new();
        d.remove(pred2("par", "a", "b"));
        mat.apply(&d);
        assert!(!mat.db().contains_pred("anc", &["a".into(), "c".into()]));
        assert_consistent(&mat);
    }

    /// The maintainer's observability contract: each apply publishes one
    /// `fedoo_deduction_maintained_deltas_total` tick plus the rederive
    /// count, and every unit that runs does so inside a
    /// `deduction.apply_unit` span tagged with its maintenance mode.
    /// The sink records every thread, so each sibling here that calls
    /// `apply` takes the obs guard too and cannot add to these counts.
    #[test]
    fn apply_emits_unit_spans_and_maintenance_counters() {
        let _guard = obs::test_guard();
        let mut base = FactDb::new();
        for (x, y) in [("a", "b"), ("b", "c"), ("a", "c")] {
            base.insert_pred("par", vec![x.into(), y.into()]);
        }
        let mut mat = MaterializedProgram::new(ancestor_program(), &base).unwrap();

        obs::install(obs::TimeSource::monotonic());
        let mut d = FactDelta::new();
        d.remove(pred2("par", "a", "c"));
        let stats = mat.apply(&d);
        let session = obs::uninstall().unwrap();
        assert_consistent(&mat);

        assert_eq!(
            session
                .metrics
                .counter("fedoo_deduction_maintained_deltas_total"),
            1
        );
        assert_eq!(
            session.metrics.counter("fedoo_deduction_rederived_total"),
            stats.rederived
        );
        assert!(stats.rederived > 0, "{stats:?}");
        let unit_details: Vec<&str> = session
            .trace
            .events
            .iter()
            .filter(|e| e.name == "deduction.apply_unit" && e.phase == obs::Phase::Begin)
            .map(|e| e.detail.as_deref().unwrap_or(""))
            .collect();
        assert_eq!(unit_details.len(), 1, "{unit_details:?}");
        assert_eq!(unit_details[0], "mode=dred negation=0 rels=anc");
    }

    #[test]
    fn recursive_insert_extends_closure() {
        let _guard = obs::test_guard();
        let mut base = FactDb::new();
        base.insert_pred("par", vec!["a".into(), "b".into()]);
        let mut mat = MaterializedProgram::new(ancestor_program(), &base).unwrap();
        assert_eq!(mat.db().tuples_of("anc").count(), 1);

        // Append b→c→d: closure grows to 6 pairs.
        let mut d = FactDelta::new();
        d.insert(pred2("par", "b", "c"));
        d.insert(pred2("par", "c", "d"));
        mat.apply(&d);
        assert_eq!(mat.db().tuples_of("anc").count(), 6);
        assert_consistent(&mat);

        // Cut the middle: only a→b and c→d remain.
        let mut d = FactDelta::new();
        d.remove(pred2("par", "b", "c"));
        mat.apply(&d);
        assert_eq!(mat.db().tuples_of("anc").count(), 2);
        assert_consistent(&mat);
    }

    #[test]
    fn negation_delta_propagates_both_ways() {
        let _guard = obs::test_guard();
        // <x: A−> ⇐ <x: A>, ¬<x: AB>;  <x: AB> ⇐ <x: A>, <x: B>
        let prog = Program::new(vec![
            Rule::new(
                Literal::oterm(ot(Term::var("x"), "AB")),
                vec![
                    Literal::oterm(ot(Term::var("x"), "A")),
                    Literal::oterm(ot(Term::var("x"), "B")),
                ],
            ),
            Rule::new(
                Literal::oterm(ot(Term::var("x"), "A-")),
                vec![
                    Literal::oterm(ot(Term::var("x"), "A")),
                    Literal::neg(Literal::oterm(ot(Term::var("x"), "AB"))),
                ],
            ),
        ]);
        let mut base = FactDb::new();
        base.insert_oterm(ot(Term::val("o1"), "A"));
        base.insert_oterm(ot(Term::val("o2"), "A"));
        base.insert_oterm(ot(Term::val("o2"), "B"));
        let mut mat = MaterializedProgram::new(prog, &base).unwrap();
        assert_eq!(mat.db().oterms_of("A-").count(), 1); // o1

        // o1 joins B → AB gains o1 → A− loses o1.
        let mut d = FactDelta::new();
        d.insert(Fact::class(ot(Term::val("o1"), "B")));
        mat.apply(&d);
        assert_eq!(mat.db().oterms_of("A-").count(), 0);
        assert_consistent(&mat);

        // o2 leaves B → AB loses o2 → A− regains o2 (o1 stays in AB,
        // since its B membership from the previous step persists).
        let mut d = FactDelta::new();
        d.remove(Fact::class(ot(Term::val("o2"), "B")));
        mat.apply(&d);
        let minus: Vec<_> = mat.db().oterms_of("A-").collect();
        assert_eq!(minus.len(), 1);
        assert_eq!(minus[0].object, Term::val("o2"));
        assert_consistent(&mat);
    }

    #[test]
    fn base_fact_in_derived_relation_survives_support_loss() {
        let _guard = obs::test_guard();
        // A base fact asserted directly into a derived relation stays live
        // when its rule support disappears, and vice versa.
        let prog = Program::new(vec![Rule::new(
            Literal::pred("p", [Term::var("x")]),
            vec![Literal::pred("a", [Term::var("x")])],
        )]);
        let mut base = FactDb::new();
        base.insert_pred("a", vec!["v".into()]);
        base.insert_pred("p", vec!["v".into()]); // also asserted as base
        let mut mat = MaterializedProgram::new(prog, &base).unwrap();

        let mut d = FactDelta::new();
        d.remove(Fact::pred("a", vec!["v".into()]));
        mat.apply(&d);
        assert!(mat.db().contains_pred("p", &["v".into()]), "base-supported");
        assert_consistent(&mat);

        let mut d = FactDelta::new();
        d.remove(Fact::pred("p", vec!["v".into()]));
        mat.apply(&d);
        assert!(!mat.db().contains_pred("p", &["v".into()]));
        assert_consistent(&mat);
    }

    #[test]
    fn update_is_remove_plus_insert() {
        let _guard = obs::test_guard();
        let prog = Program::new(vec![Rule::new(
            Literal::pred("big", [Term::var("x")]),
            vec![
                Literal::pred("n", [Term::var("x")]),
                Literal::cmp(Term::var("x"), CmpOp::Gt, Term::val(10i64)),
            ],
        )]);
        let mut base = FactDb::new();
        base.insert_pred("n", vec![Value::Int(5)]);
        let mut mat = MaterializedProgram::new(prog, &base).unwrap();
        assert_eq!(mat.db().tuples_of("big").count(), 0);

        let mut d = FactDelta::new();
        d.remove(Fact::pred("n", vec![Value::Int(5)]));
        d.insert(Fact::pred("n", vec![Value::Int(15)]));
        mat.apply(&d);
        assert_eq!(mat.db().tuples_of("big").count(), 1);
        assert_consistent(&mat);
    }

    #[test]
    fn class_variable_rules_are_rejected() {
        let mut pat = ot(Term::var("x"), "ignored");
        pat.class = NameRef::Var("C".into());
        let prog = Program::new(vec![Rule::new(
            Literal::pred("member", [Term::var("x")]),
            vec![Literal::OTerm(pat)],
        )]);
        assert!(matches!(
            MaterializedProgram::new(prog, &FactDb::new()),
            Err(EvalError::Unsupported(_))
        ));
    }

    #[test]
    fn noop_delta_changes_nothing() {
        let _guard = obs::test_guard();
        let mut base = FactDb::new();
        base.insert_pred("par", vec!["a".into(), "b".into()]);
        let mut mat = MaterializedProgram::new(ancestor_program(), &base).unwrap();
        // Re-inserting an existing base fact / removing an absent one.
        let mut d = FactDelta::new();
        d.insert(pred2("par", "a", "b"));
        d.remove(pred2("par", "x", "y"));
        let stats = mat.apply(&d);
        assert_eq!(stats.physical_total(), 0);
        assert_consistent(&mat);
    }
}
