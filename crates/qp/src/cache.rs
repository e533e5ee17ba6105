//! Bounded LRU result cache.
//!
//! Keys are `strategy | GlobalQuery::canonical()`: the parsed query body
//! rendered one literal at a time, so texts that differ only in
//! whitespace or comments share an entry, and the engine looks the key up
//! before it plans. Each entry remembers the short fingerprint of the
//! plan that filled it (a hit reports it without planning), the component
//! [`oo_model::InstanceStore`] version counters it was computed against
//! **and the component footprint its plan reads**: a lookup invalidates
//! the entry only when a *footprint* component's version changed —
//! mutations to components the plan never scans leave the entry hit-able
//! (selective invalidation). Entries without a footprint (fallback plans
//! that may read anything) validate every component.

use oo_model::Value;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::ops::AddAssign;
use std::sync::{Mutex, MutexGuard};

/// Cache effectiveness counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    /// Entries dropped because a footprint component changed underneath
    /// them.
    pub invalidations: u64,
    /// Entries dropped to respect the capacity bound.
    pub evictions: u64,
    /// Hits served although *some* component changed — the change was
    /// outside the entry's footprint (the payoff of selective
    /// invalidation).
    pub footprint_saves: u64,
}

/// One cache hit.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedAnswer {
    pub vars: Vec<String>,
    pub rows: Vec<Vec<Value>>,
    /// Short fingerprint of the plan that filled the entry.
    pub plan_fp: String,
    /// Whether some component changed since the entry was filled, all
    /// of them outside its footprint.
    pub footprint_save: bool,
}

#[derive(Debug, Clone)]
struct Entry {
    versions: Vec<u64>,
    /// Component indices the producing plan reads; `None` = all.
    footprint: Option<Vec<usize>>,
    plan_fp: String,
    vars: Vec<String>,
    rows: Vec<Vec<Value>>,
    last_used: u64,
}

impl Entry {
    /// Is the entry still valid against the current `versions`? Only
    /// footprint components are compared.
    fn valid_for(&self, versions: &[u64]) -> bool {
        if self.versions.len() != versions.len() {
            return false;
        }
        match &self.footprint {
            None => self.versions == versions,
            Some(idxs) => idxs
                .iter()
                .all(|&i| self.versions.get(i) == versions.get(i)),
        }
    }
}

/// A bounded result cache with least-recently-used eviction.
#[derive(Debug, Default)]
pub struct ResultCache {
    capacity: usize,
    tick: u64,
    entries: BTreeMap<String, Entry>,
    stats: CacheStats,
}

impl ResultCache {
    /// A cache holding at most `capacity` answers (0 disables caching).
    pub fn new(capacity: usize) -> Self {
        ResultCache {
            capacity,
            ..ResultCache::default()
        }
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Look up a key against the current component versions.
    /// A version mismatch *within the entry's footprint* drops the entry
    /// and reports a miss; changes outside the footprint are invisible.
    pub fn get(&mut self, key: &str, versions: &[u64]) -> Option<CachedAnswer> {
        match self.entries.get_mut(key) {
            Some(e) if e.valid_for(versions) => {
                self.tick += 1;
                e.last_used = self.tick;
                self.stats.hits += 1;
                let footprint_save = e.versions != versions;
                self.stats.footprint_saves += u64::from(footprint_save);
                Some(CachedAnswer {
                    vars: e.vars.clone(),
                    rows: e.rows.clone(),
                    plan_fp: e.plan_fp.clone(),
                    footprint_save,
                })
            }
            Some(_) => {
                self.entries.remove(key);
                self.stats.invalidations += 1;
                self.stats.misses += 1;
                None
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Store an answer, evicting the least-recently-used entry if full.
    /// `footprint` is the set of component indices the producing plan
    /// reads (`None` when it must be assumed to read everything), and
    /// `plan_fp` its short fingerprint.
    pub fn put(
        &mut self,
        key: String,
        versions: Vec<u64>,
        footprint: Option<Vec<usize>>,
        plan_fp: String,
        vars: Vec<String>,
        rows: Vec<Vec<Value>>,
    ) {
        if self.capacity == 0 {
            return;
        }
        if !self.entries.contains_key(&key) && self.entries.len() >= self.capacity {
            if let Some(oldest) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                self.entries.remove(&oldest);
                self.stats.evictions += 1;
            }
        }
        self.tick += 1;
        self.entries.insert(
            key,
            Entry {
                versions,
                footprint,
                plan_fp,
                vars,
                rows,
                last_used: self.tick,
            },
        );
    }

    /// Drop every entry; the counters stay.
    fn clear(&mut self) {
        self.entries.clear();
    }
}

/// Default shard count for [`SharedResultCache`]: enough that concurrent
/// readers on a handful of tenant threads rarely contend on the same
/// mutex, small enough that the per-shard LRU bound stays meaningful.
pub const DEFAULT_SHARDS: usize = 8;

impl AddAssign for CacheStats {
    fn add_assign(&mut self, o: Self) {
        self.hits += o.hits;
        self.misses += o.misses;
        self.invalidations += o.invalidations;
        self.evictions += o.evictions;
        self.footprint_saves += o.footprint_saves;
    }
}

/// A sharded, mutex-per-shard [`ResultCache`] usable from `&self` by any
/// number of concurrent readers. Keys are hashed to a shard, so two
/// queries with different keys almost never serialize on the
/// same lock; the total capacity is split evenly across shards (each
/// shard runs its own LRU clock).
///
/// A shard whose lock was poisoned by a panicking holder is emptied and
/// serves on: its entries may be half-written, and a cache may always
/// drop what it holds.
#[derive(Debug)]
pub struct SharedResultCache {
    shards: Vec<Mutex<ResultCache>>,
}

impl SharedResultCache {
    /// A cache holding at most `capacity` answers across `shards` shards
    /// (each shard gets the ceiling of the per-shard split, so the real
    /// bound rounds up by at most `shards - 1`).
    pub fn new(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let per_shard = capacity.div_ceil(shards);
        SharedResultCache {
            shards: (0..shards)
                .map(|_| Mutex::new(ResultCache::new(per_shard)))
                .collect(),
        }
    }

    fn shard(&self, key: &str) -> &Mutex<ResultCache> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    /// Lock `shard`, emptying it first if a panic poisoned it.
    fn lock(shard: &Mutex<ResultCache>) -> MutexGuard<'_, ResultCache> {
        shard.lock().unwrap_or_else(|poisoned| {
            shard.clear_poison();
            let mut guard = poisoned.into_inner();
            guard.clear();
            guard
        })
    }

    /// [`ResultCache::get`] on the key's shard.
    pub fn get(&self, key: &str, versions: &[u64]) -> Option<CachedAnswer> {
        Self::lock(self.shard(key)).get(key, versions)
    }

    /// [`ResultCache::put`] on the key's shard.
    pub fn put(
        &self,
        key: String,
        versions: Vec<u64>,
        footprint: Option<Vec<usize>>,
        plan_fp: String,
        vars: Vec<String>,
        rows: Vec<Vec<Value>>,
    ) {
        Self::lock(self.shard(&key)).put(key, versions, footprint, plan_fp, vars, rows)
    }

    /// Aggregate counters across all shards.
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for s in &self.shards {
            total += Self::lock(s).stats();
        }
        total
    }

    /// Total entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| Self::lock(s).len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(n: i64) -> Vec<Vec<Value>> {
        vec![vec![Value::Int(n)]]
    }

    fn fp() -> String {
        "00000000000000fp".into()
    }

    #[test]
    fn hit_miss_and_version_invalidation() {
        let mut c = ResultCache::new(4);
        assert!(c.get("q1", &[1, 1]).is_none());
        c.put(
            "q1".into(),
            vec![1, 1],
            None,
            fp(),
            vec!["X".into()],
            row(7),
        );
        let hit = c.get("q1", &[1, 1]).unwrap();
        assert_eq!(hit.vars, vec!["X"]);
        assert_eq!(hit.rows, row(7));
        assert_eq!(hit.plan_fp, fp());
        assert!(!hit.footprint_save);
        // A component mutated: same key, new versions → invalidated.
        assert!(c.get("q1", &[2, 1]).is_none());
        assert!(c.is_empty());
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.invalidations), (1, 2, 1));
    }

    #[test]
    fn footprint_scopes_invalidation_to_touched_components() {
        let mut c = ResultCache::new(4);
        // The plan only reads component 0.
        c.put("q0".into(), vec![5, 5], Some(vec![0]), fp(), vec![], row(1));
        // Component 1 mutates: the entry must stay hit-able.
        let hit = c.get("q0", &[5, 9]);
        assert_eq!(hit.unwrap().rows, row(1));
        assert_eq!(c.stats().footprint_saves, 1);
        assert_eq!(c.stats().invalidations, 0);
        // Component 0 mutates: now it invalidates.
        assert!(c.get("q0", &[6, 9]).is_none());
        assert_eq!(c.stats().invalidations, 1);
    }

    #[test]
    fn footprintless_entries_validate_every_component() {
        let mut c = ResultCache::new(4);
        c.put("q".into(), vec![1, 1], None, fp(), vec![], row(1));
        assert!(c.get("q", &[1, 2]).is_none(), "fallback plans read all");
        // A mismatched vector length never validates.
        c.put("q2".into(), vec![1], Some(vec![0]), fp(), vec![], row(2));
        assert!(c.get("q2", &[1, 1]).is_none());
    }

    #[test]
    fn lru_eviction_keeps_recently_used() {
        let mut c = ResultCache::new(2);
        c.put("a".into(), vec![0], None, fp(), vec![], row(1));
        c.put("b".into(), vec![0], None, fp(), vec![], row(2));
        // Touch `a` so `b` becomes the eviction candidate.
        assert!(c.get("a", &[0]).is_some());
        c.put("c".into(), vec![0], None, fp(), vec![], row(3));
        assert_eq!(c.len(), 2);
        assert!(c.get("a", &[0]).is_some());
        assert!(c.get("b", &[0]).is_none());
        assert!(c.get("c", &[0]).is_some());
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn zero_capacity_disables_storage() {
        let mut c = ResultCache::new(0);
        c.put("a".into(), vec![0], None, fp(), vec![], row(1));
        assert!(c.get("a", &[0]).is_none());
    }

    #[test]
    fn sharded_cache_behaves_like_one_cache() {
        let c = SharedResultCache::new(16, 4);
        assert!(c.get("q1", &[1]).is_none());
        c.put("q1".into(), vec![1], None, fp(), vec!["X".into()], row(7));
        assert_eq!(c.get("q1", &[1]).unwrap().rows, row(7));
        // Version bump invalidates within the owning shard.
        assert!(c.get("q1", &[2]).is_none());
        assert!(c.is_empty());
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.invalidations), (1, 2, 1));
    }

    #[test]
    fn sharded_cache_is_usable_across_threads() {
        use std::sync::Arc;
        // Every shard has room for all 200 keys, so no put can evict
        // another thread's entry between its put and its get.
        const SHARDS: usize = 8;
        let c = Arc::new(SharedResultCache::new(200 * SHARDS, SHARDS));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for i in 0..50 {
                        let key = format!("q{t}-{i}");
                        c.put(key.clone(), vec![0], None, fp(), vec!["X".into()], row(i));
                        assert_eq!(c.get(&key, &[0]).unwrap().rows, row(i));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let stats = c.stats();
        assert_eq!(stats.hits, 200, "each thread saw its own rows");
        assert_eq!(stats.evictions, 0);
    }

    #[test]
    fn overwrite_same_key_does_not_evict() {
        let mut c = ResultCache::new(1);
        c.put("a".into(), vec![0], None, fp(), vec![], row(1));
        c.put("a".into(), vec![0], None, fp(), vec![], row(2));
        assert_eq!(c.len(), 1);
        assert_eq!(c.stats().evictions, 0);
        assert_eq!(c.get("a", &[0]).unwrap().rows, row(2));
    }

    /// A panic while a shard is locked poisons its mutex. The shard is
    /// emptied on the next lock and serves on; the other shards keep
    /// their entries.
    #[test]
    fn poisoned_shard_is_emptied_and_keeps_serving() {
        use std::sync::Arc;
        let c = Arc::new(SharedResultCache::new(64, 4));
        let keys: Vec<String> = (0..32).map(|i| format!("q{i}")).collect();
        for (i, key) in keys.iter().enumerate() {
            c.put(
                key.clone(),
                vec![0],
                None,
                fp(),
                vec!["X".into()],
                row(i as i64),
            );
        }
        let victim = keys[0].clone();
        let poisoner = {
            let c = Arc::clone(&c);
            let victim = victim.clone();
            std::thread::spawn(move || {
                let _held = c.shard(&victim).lock().unwrap();
                panic!("poison the shard");
            })
        };
        assert!(poisoner.join().is_err());
        assert!(c.shard(&victim).is_poisoned());
        assert!(
            c.get(&victim, &[0]).is_none(),
            "the poisoned shard was emptied"
        );
        assert!(!c.shard(&victim).is_poisoned());
        c.put(
            victim.clone(),
            vec![0],
            None,
            fp(),
            vec!["X".into()],
            row(99),
        );
        assert_eq!(c.get(&victim, &[0]).unwrap().rows, row(99));
        // Keys on other shards were untouched.
        let same_shard = |k: &str| std::ptr::eq(c.shard(k), c.shard(&victim));
        let (i, other) = keys
            .iter()
            .enumerate()
            .find(|(_, k)| !same_shard(k))
            .expect("32 keys span more than one of 4 shards");
        assert_eq!(c.get(other, &[0]).unwrap().rows, row(i as i64));
        assert!(c.stats().hits >= 2);
    }
}
