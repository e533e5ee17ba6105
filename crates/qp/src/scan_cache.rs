//! The lineage-shared scan cache: the materialised facts of base scans,
//! kept per store partition and shared by every engine of a serving
//! lineage (see [`crate::QueryEngine::successor`]).
//!
//! An entry holds the facts of one (component, partition, global class,
//! projection): the partition's objects whose class maps to the global
//! class, each turned into its integrated O-term by
//! [`FactMaterializer::scan_fact`]. The entry is keyed by the partition's
//! address and holds a `Weak` of it, which pins the allocation: while the
//! entry lives no other partition can have that address, and a write to a
//! partition copies it to a new one (`Arc::make_mut` never writes in place
//! while a `Weak` is out). So a partition that no write copied hits in
//! every generation that shares it. A copied partition is patched from its
//! predecessor's entry, the newest one under the same partition key: the
//! fact of every object that is still the same `Arc` is reused, and only
//! the objects the write changed are materialised again.
//!
//! Each entry indexes its facts by the columns pushdown predicates
//! compare, on first use. A scan with an equality or range predicate
//! probes that index instead of filtering and unifying the whole extent.
//!
//! Three cases bypass the cache and materialise the scan's facts with
//! `FactMaterializer::facts_for`: a class whose facts read other objects
//! ([`CoupledClasses`]: partner values, value sets), a component whose
//! schema differs from the one its entries were built against, and any
//! execution over a degraded federation, whose extents may be partial.
//! Entries are dropped when no live generation holds their partition any
//! more; the sweep runs whenever an entry is added. Nothing is
//! materialised before the first scan.

use deduction::term::{OTermPat, Term};
use federation::fsm::GlobalSchema;
use federation::{CoupledClasses, FactMaterializer};
use oo_model::{merge_walk, ClassName, Object, Oid, Partition, Schema, Value};
use relational::query::{Cmp, Predicate};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};

/// One object's fact, with the object it was built from.
struct Slot {
    obj: Arc<Object>,
    fact: OTermPat,
}

/// The facts of one partition for one (component, class, projection).
pub(crate) struct Entry {
    /// The partition the facts were built from. Only its address is
    /// compared; the `Weak` keeps that address from being reused.
    part: Weak<BTreeMap<u64, Arc<Object>>>,
    /// Facts of the partition's matching objects, in OID order.
    slots: Vec<Arc<Slot>>,
    /// Column indexes, built on first probe.
    indexes: Mutex<BTreeMap<String, Arc<ColumnIndex>>>,
}

/// The positions of an entry's facts ordered by one column's value.
struct ColumnIndex {
    /// Facts binding the column to a value, sorted by that value.
    bound: Vec<u32>,
    /// Facts binding no value to the column: a pushdown never prunes them.
    unbound: Vec<u32>,
}

fn column_value<'f>(fact: &'f OTermPat, column: &str) -> Option<&'f Value> {
    match fact.binding(column) {
        Some(Term::Val(v)) => Some(v),
        _ => None,
    }
}

impl ColumnIndex {
    fn build(slots: &[Arc<Slot>], column: &str) -> Self {
        let mut keyed = Vec::with_capacity(slots.len());
        let mut unbound = Vec::new();
        for (i, slot) in slots.iter().enumerate() {
            match column_value(&slot.fact, column) {
                Some(v) => keyed.push((v, i as u32)),
                None => unbound.push(i as u32),
            }
        }
        keyed.sort_unstable_by(|a, b| a.0.cmp(b.0));
        ColumnIndex {
            bound: keyed.into_iter().map(|(_, i)| i).collect(),
            unbound,
        }
    }
}

impl Entry {
    fn is_live(&self) -> bool {
        self.part.strong_count() > 0
    }

    fn index(&self, column: &str) -> Arc<ColumnIndex> {
        if let Some(ix) = self.indexes.lock().unwrap().get(column) {
            return Arc::clone(ix);
        }
        let ix = Arc::new(ColumnIndex::build(&self.slots, column));
        self.indexes
            .lock()
            .unwrap()
            .insert(column.to_string(), Arc::clone(&ix));
        ix
    }

    /// The facts that can pass `pushdown`, plus how many of the others
    /// the first index-able predicate excludes. Without such a predicate
    /// every fact is a candidate.
    fn candidates(&self, pushdown: &[Predicate]) -> (Vec<&OTermPat>, u64) {
        let Some(p) = pushdown.iter().find(|p| p.cmp != Cmp::Ne) else {
            return (self.slots.iter().map(|s| &s.fact).collect(), 0);
        };
        let ix = self.index(&p.column);
        let value = |i: &u32| {
            column_value(&self.slots[*i as usize].fact, &p.column).expect("indexed facts bind")
        };
        let below = || ix.bound.partition_point(|i| *value(i) < p.constant);
        let upto = || ix.bound.partition_point(|i| *value(i) <= p.constant);
        let range = match p.cmp {
            Cmp::Eq => below()..upto(),
            Cmp::Lt => 0..below(),
            Cmp::Le => 0..upto(),
            Cmp::Gt => upto()..ix.bound.len(),
            Cmp::Ge => below()..ix.bound.len(),
            Cmp::Ne => unreachable!("not index-able"),
        };
        let excluded = (ix.bound.len() - range.len()) as u64;
        let facts = ix.bound[range]
            .iter()
            .chain(&ix.unbound)
            .map(|&i| &self.slots[i as usize].fact)
            .collect();
        (facts, excluded)
    }
}

/// What a base scan reads from one component.
pub(crate) enum Extent {
    /// Cached facts, one entry per partition.
    Cached(Vec<Arc<Entry>>),
    /// Facts materialised for this scan alone.
    Fresh(Vec<OTermPat>),
}

impl Extent {
    /// The facts that can pass `pushdown`, how many facts the extent
    /// holds, and how many of them an index probe already excluded.
    pub(crate) fn candidates(&self, pushdown: &[Predicate]) -> (Vec<&OTermPat>, u64, u64) {
        match self {
            Extent::Fresh(facts) => (facts.iter().collect(), facts.len() as u64, 0),
            Extent::Cached(entries) => {
                let (mut out, mut total, mut excluded) = (Vec::new(), 0, 0);
                for e in entries {
                    let (facts, ex) = e.candidates(pushdown);
                    out.extend(facts);
                    total += e.slots.len() as u64;
                    excluded += ex;
                }
                (out, total, excluded)
            }
        }
    }

    /// The facts, by reference.
    pub(crate) fn facts(&self) -> Vec<&OTermPat> {
        self.candidates(&[]).0
    }
}

/// How lookups went, summed over the cache's lifetime. One lookup per
/// (scan, component); `hits`, `patches` and `builds` count partitions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanCacheStats {
    /// Partitions whose entry was found.
    pub hits: u64,
    /// Partitions rebuilt from a predecessor's entry.
    pub patches: u64,
    /// Partitions materialised with no predecessor.
    pub builds: u64,
    /// Component scans that bypassed the cache.
    pub bypasses: u64,
    /// Entries held now.
    pub entries: u64,
}

/// (component, global class, projection).
type ScanKey = (usize, String, Vec<String>);

#[derive(Default)]
struct State {
    /// The schema each component's entries were built against.
    schemas: BTreeMap<usize, Schema>,
    /// Entries by scan and partition key, newest last.
    entries: HashMap<ScanKey, BTreeMap<Oid, Vec<Arc<Entry>>>>,
}

/// A partition the lookup found no entry for.
struct Miss<'s> {
    key: &'s Oid,
    part: &'s Partition,
    predecessor: Option<Arc<Entry>>,
}

/// The scan cache of one lineage: every engine of it shares one.
#[derive(Default)]
pub struct ScanCache {
    /// The lineage's coupled classes, computed on first scan.
    coupled: OnceLock<CoupledClasses>,
    state: Mutex<State>,
    hits: AtomicU64,
    patches: AtomicU64,
    builds: AtomicU64,
    bypasses: AtomicU64,
}

fn count(outcome: &str, n: u64) {
    if obs::enabled() {
        obs::counter_add(
            &obs::labeled("fedoo_qp_scan_cache_total", "outcome", outcome),
            n,
        );
    }
}

impl ScanCache {
    pub fn stats(&self) -> ScanCacheStats {
        let state = self.state.lock().unwrap();
        let entries = state
            .entries
            .values()
            .flat_map(|parts| parts.values())
            .map(|v| v.len() as u64)
            .sum();
        ScanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            patches: self.patches.load(Ordering::Relaxed),
            builds: self.builds.load(Ordering::Relaxed),
            bypasses: self.bypasses.load(Ordering::Relaxed),
            entries,
        }
    }

    /// The facts of `global_class` sourced from component `comp_idx`,
    /// restricted to `proj`: cached per partition, or materialised
    /// uncached when the scan must bypass the cache (`degraded` says the
    /// execution reads a degraded federation).
    pub(crate) fn extent(
        &self,
        global: &GlobalSchema,
        mat: &FactMaterializer<'_>,
        degraded: bool,
        comp_idx: usize,
        global_class: &str,
        proj: &BTreeSet<String>,
    ) -> federation::Result<Extent> {
        let Some((schema, store)) = mat.components().get(comp_idx) else {
            return Ok(Extent::Fresh(Vec::new()));
        };
        let bypass = || {
            self.bypasses.fetch_add(1, Ordering::Relaxed);
            count("bypass", 1);
            mat.facts_for(comp_idx, global_class, Some(proj))
                .map(Extent::Fresh)
        };
        if degraded {
            return bypass();
        }
        let coupled = self.coupled.get_or_init(|| CoupledClasses::of(global));
        let key: ScanKey = (
            comp_idx,
            global_class.to_string(),
            proj.iter().cloned().collect(),
        );
        let mut found = Vec::new();
        let mut misses = Vec::new();
        {
            let mut state = self.state.lock().unwrap();
            let same_schema = state
                .schemas
                .entry(comp_idx)
                .or_insert_with(|| schema.clone())
                == schema;
            if !same_schema || !mat.scan_is_local(comp_idx, global_class, coupled) {
                drop(state);
                return bypass();
            }
            let parts = state.entries.get(&key);
            for (pkey, part) in store.partitions() {
                let versions = parts.and_then(|p| p.get(pkey));
                let addr = Arc::as_ptr(part);
                match versions.and_then(|v| v.iter().find(|e| e.part.as_ptr() == addr)) {
                    Some(e) => found.push(Arc::clone(e)),
                    None => misses.push(Miss {
                        key: pkey,
                        part,
                        predecessor: versions.and_then(|v| v.last()).cloned(),
                    }),
                }
            }
        }
        let hits = found.len() as u64;
        self.hits.fetch_add(hits, Ordering::Relaxed);
        count("hit", hits);
        if misses.is_empty() {
            return Ok(Extent::Cached(found));
        }
        let _span = obs::span!(
            "qp.scan_cache",
            "qp",
            "class={global_class} comp={comp_idx} partitions={}",
            misses.len()
        );
        let mut built = Vec::with_capacity(misses.len());
        for miss in &misses {
            built.push(Arc::new(self.materialize(
                mat,
                comp_idx,
                global_class,
                proj,
                miss,
            )?));
        }
        let mut state = self.state.lock().unwrap();
        let parts = state.entries.entry(key).or_default();
        for (miss, entry) in misses.iter().zip(&built) {
            let versions = parts.entry(miss.key.clone()).or_default();
            // A concurrent scan may have added the same partition.
            if !versions.iter().any(|e| e.part.ptr_eq(&entry.part)) {
                versions.push(Arc::clone(entry));
            }
        }
        // Drop every entry whose partition no generation holds any more,
        // after unlocking: freeing an entry releases a handle per fact.
        let mut dead = Vec::new();
        for parts in state.entries.values_mut() {
            parts.retain(|_, versions| {
                let (live, gone) = std::mem::take(versions)
                    .into_iter()
                    .partition(|e| e.is_live());
                *versions = live;
                dead.extend::<Vec<_>>(gone);
                !versions.is_empty()
            });
        }
        state.entries.retain(|_, parts| !parts.is_empty());
        drop(state);
        drop(dead);
        found.extend(built);
        Ok(Extent::Cached(found))
    }

    /// Build the entry of one missed partition: patched from its
    /// predecessor's facts when there is one, else from scratch.
    fn materialize(
        &self,
        mat: &FactMaterializer<'_>,
        comp_idx: usize,
        global_class: &str,
        proj: &BTreeSet<String>,
        miss: &Miss<'_>,
    ) -> federation::Result<Entry> {
        let old: &[Arc<Slot>] = miss.predecessor.as_ref().map_or(&[], |e| &e.slots);
        let mut slots = Vec::with_capacity(old.len() + 1);
        // A partition's objects mostly share one class: remember the last
        // class's verdict instead of looking each object's class up.
        let mut last_class: Option<(&ClassName, bool)> = None;
        let mut err = None;
        merge_walk(
            miss.part.iter().map(|(n, obj)| (*n, obj)),
            old.iter().map(|s| (s.obj.oid.number(), s)),
            |new, old| {
                let Some(obj) = new else { return };
                if let Some(slot) = old.filter(|s| Arc::ptr_eq(&s.obj, obj)) {
                    slots.push(Arc::clone(slot));
                    return;
                }
                let maps = match last_class {
                    Some((class, maps)) if *class == obj.class => maps,
                    _ => {
                        let maps =
                            mat.global_class_of(comp_idx, obj.class.as_str()) == Some(global_class);
                        last_class = Some((&obj.class, maps));
                        maps
                    }
                };
                if !maps {
                    return;
                }
                match mat.scan_fact(comp_idx, obj, global_class, Some(proj)) {
                    Ok(Some(fact)) => {
                        slots.push(Arc::new(Slot {
                            obj: Arc::clone(obj),
                            fact,
                        }));
                    }
                    Ok(None) => {}
                    Err(e) => {
                        err.get_or_insert(e);
                    }
                }
            },
        );
        if let Some(e) = err {
            return Err(e);
        }
        let (counter, outcome) = match miss.predecessor {
            Some(_) => (&self.patches, "patch"),
            None => (&self.builds, "build"),
        };
        counter.fetch_add(1, Ordering::Relaxed);
        count(outcome, 1);
        Ok(Entry {
            part: Arc::downgrade(miss.part),
            slots,
            indexes: Mutex::default(),
        })
    }
}
