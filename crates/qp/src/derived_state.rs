//! An engine's store of restricted deduction states: what its planned
//! derived scans evaluate against, kept across executions.
//!
//! A derived scan is answered from a [`FederationDb`] restricted to the
//! plan's relevance closure and attribute projection, whose base facts come
//! from the scan cache. Building that state costs a pass over every fact of
//! the closure, while answering one more demand-seeded key usually costs a
//! few derivations. So an engine keeps one state per (relevance-closure
//! union, attribute projection) of its snapshot, and its executions
//! evaluate against it instead of building their own:
//!
//! * the state keeps every fact derived so far; a seed key whose
//!   `__demand__<goal>` tuple is already there is complete at the fixpoint
//!   and is not evaluated again, and a saturated state stays saturated;
//! * executions that find nothing to evaluate read the state together,
//!   under a read lock; one that adds demand or saturates takes the write
//!   lock;
//! * an evaluation error or a panic removes the entry, since a half-run
//!   evaluation may have left demand tuples whose keys are not complete.
//!
//! A state answers for one snapshot, so the store belongs to one engine:
//! successors start empty, the states go when the engine goes, and a
//! write through [`crate::QueryEngine::component_store_mut`] clears them.
//! The keys are a function of the global program (closures and attribute
//! sets), not of query constants. Degraded executions bypass the store and
//! build a state of their own, as an execution over a fresh store does.

use federation::FederationDb;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

/// (relevance-closure union, attribute projection), both sorted.
pub(crate) type StateKey = (Vec<String>, Vec<String>);

/// The restricted deduction state an execution evaluates derived scans
/// against.
pub(crate) enum State {
    /// Built for this execution alone.
    Private(Box<FederationDb>),
    /// The engine's state for the execution's key.
    Shared(Arc<StateEntry>),
}

/// One installed state.
pub(crate) struct StateEntry {
    key: StateKey,
    db: RwLock<FederationDb>,
    /// Set when an evaluation against the state failed, while `db` is
    /// write-locked: the next locker sees it.
    failed: AtomicBool,
}

impl StateEntry {
    /// Whether an evaluation against the state failed or panicked.
    fn failed(&self) -> bool {
        self.failed.load(Ordering::Relaxed) || self.db.is_poisoned()
    }
}

/// How an execution came by its deduction state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    /// The installed state.
    Hit,
    /// Built and installed.
    Build,
    /// Built for the execution alone: it is degraded.
    Bypass,
}

impl Outcome {
    fn as_str(self) -> &'static str {
        match self {
            Outcome::Hit => "hit",
            Outcome::Build => "build",
            Outcome::Bypass => "bypass",
        }
    }
}

/// How lookups went, summed over the store's lifetime: one lookup per
/// execution with a derived scan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DerivedStateStats {
    /// Executions that reused an installed state.
    pub hits: u64,
    /// Executions that built and installed a state.
    pub builds: u64,
    /// Degraded executions, which built a state of their own.
    pub bypasses: u64,
    /// States held now.
    pub entries: u64,
}

/// The deduction states of one engine's snapshot.
#[derive(Default)]
pub struct DerivedStates {
    entries: Mutex<HashMap<StateKey, Arc<StateEntry>>>,
    hits: AtomicU64,
    builds: AtomicU64,
    bypasses: AtomicU64,
}

impl DerivedStates {
    pub fn stats(&self) -> DerivedStateStats {
        DerivedStateStats {
            hits: self.hits.load(Ordering::Relaxed),
            builds: self.builds.load(Ordering::Relaxed),
            bypasses: self.bypasses.load(Ordering::Relaxed),
            entries: self.lock().len() as u64,
        }
    }

    /// Drop every state: the snapshot they were built for changed.
    pub(crate) fn clear(&mut self) {
        self.entries
            .get_mut()
            .unwrap_or_else(|e| e.into_inner())
            .clear();
    }

    fn lock(&self) -> MutexGuard<'_, HashMap<StateKey, Arc<StateEntry>>> {
        // The map is consistent at every unlock: a panic elsewhere cannot
        // leave it half-updated.
        self.entries.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The state for an execution whose plan's closure and projection are
    /// `key`: the installed one, otherwise one `build` makes, installed.
    /// Without `shareable` (a degraded execution) the built state is
    /// private.
    pub(crate) fn acquire<E>(
        &self,
        key: StateKey,
        shareable: bool,
        build: impl FnOnce() -> std::result::Result<Box<FederationDb>, E>,
    ) -> std::result::Result<State, E> {
        let found = if shareable {
            self.lock().get(&key).filter(|e| !e.failed()).cloned()
        } else {
            None
        };
        let outcome = match (&found, shareable) {
            (Some(_), _) => Outcome::Hit,
            (None, true) => Outcome::Build,
            (None, false) => Outcome::Bypass,
        };
        let _span = obs::span!(
            "qp.derived_state",
            "qp",
            "outcome={} relations={}",
            outcome.as_str(),
            key.0.len()
        );
        let state = match (found, shareable) {
            (Some(entry), _) => State::Shared(entry),
            (None, true) => State::Shared(self.install(key, build()?)),
            (None, false) => State::Private(build()?),
        };
        self.record(outcome);
        Ok(state)
    }

    /// Count an execution's outcome.
    fn record(&self, outcome: Outcome) {
        let counter = match outcome {
            Outcome::Hit => &self.hits,
            Outcome::Build => &self.builds,
            Outcome::Bypass => &self.bypasses,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        if obs::enabled() {
            obs::counter_add(
                &obs::labeled("fedoo_qp_derived_state_total", "outcome", outcome.as_str()),
                1,
            );
        }
    }

    /// Install `db` under `key`, unless an execution that built the same
    /// state concurrently installed a healthy one first: that one is kept
    /// and returned. Whatever is let go is dropped after unlocking.
    fn install(&self, key: StateKey, db: Box<FederationDb>) -> Arc<StateEntry> {
        let mut entries = self.lock();
        if let Some(e) = entries.get(&key).filter(|e| !e.failed()) {
            let kept = Arc::clone(e);
            drop(entries);
            drop(db);
            return kept;
        }
        let entry = Arc::new(StateEntry {
            key: key.clone(),
            db: RwLock::new(*db),
            failed: AtomicBool::new(false),
        });
        let failed = entries.insert(key, Arc::clone(&entry));
        drop(entries);
        drop(failed);
        entry
    }

    /// Run `f` on `entry`'s state under its read lock. `None` when the
    /// state failed in another execution.
    pub(crate) fn read<T>(
        &self,
        entry: &StateEntry,
        f: impl FnOnce(&FederationDb) -> T,
    ) -> Option<T> {
        let db = entry.db.read().ok()?;
        (!entry.failed()).then(|| f(&db))
    }

    /// Run `f` on `entry`'s state under its write lock. `None` when the
    /// state failed in another execution. An error or a panic in `f` marks
    /// the state failed and removes the entry.
    pub(crate) fn write<T, E>(
        &self,
        entry: &Arc<StateEntry>,
        f: impl FnOnce(&mut FederationDb) -> std::result::Result<T, E>,
    ) -> Option<std::result::Result<T, E>> {
        let mut db = entry.db.write().ok()?;
        if entry.failed() {
            return None;
        }
        let _unwind = RemoveOnUnwind {
            states: self,
            entry,
        };
        let out = f(&mut db);
        if out.is_err() {
            self.remove(entry);
        }
        Some(out)
    }

    /// The installed states.
    #[cfg(test)]
    pub(crate) fn installed(&self) -> Vec<Arc<StateEntry>> {
        self.lock().values().cloned().collect()
    }

    /// Mark `entry` failed and remove it if it is still installed.
    fn remove(&self, entry: &Arc<StateEntry>) {
        entry.failed.store(true, Ordering::Relaxed);
        let mut entries = self.lock();
        if entries
            .get(&entry.key)
            .is_some_and(|e| Arc::ptr_eq(e, entry))
        {
            let gone = entries.remove(&entry.key);
            drop(entries);
            drop(gone);
        }
    }
}

/// Removes an entry when the evaluation holding it unwinds.
struct RemoveOnUnwind<'a> {
    states: &'a DerivedStates,
    entry: &'a Arc<StateEntry>,
}

impl Drop for RemoveOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.states.remove(self.entry);
        }
    }
}
