//! Snapshot generations: Arc'd immutable component state for serving.
//!
//! A [`Generation`] is an immutable, reference-counted snapshot of every
//! component's `(Schema, InstanceStore)` pair. Readers [`pin`] the
//! current generation and evaluate against it for as long as they like —
//! no lock is held while they run, so any number of queries proceed
//! concurrently. Writers serialise on a single writer lock, clone the
//! component vector, apply their mutation, and atomically install the
//! result as generation N+1. The clone is shallow: an `InstanceStore`
//! shares its partitions and objects by `Arc`, so a write copies only the
//! partition and class index it touches, and dropping an old generation
//! frees only what no later one shares. A reader pinned to generation N
//! is never affected: its `Arc` keeps the old state alive until the last
//! pin drops.
//!
//! Downstream caches key off [`Generation::versions`] (the per-component
//! `InstanceStore` version counters), so a result computed under one
//! generation is served under another only where every component it
//! reads has the same version. The serving layer builds one
//! `QueryEngine` per generation over the shared `Arc`; the engines of
//! one store's generations (its lineage) share the closure cache,
//! program summary, result cache and one reference-evaluator state,
//! which each engine syncs to its own versions before reading it.
//!
//! [`pin`]: GenerationStore::pin

use oo_model::{InstanceStore, Schema};
use std::sync::{Arc, Mutex, RwLock};

/// One immutable snapshot of the federation's component state.
#[derive(Debug)]
pub struct Generation {
    number: u64,
    components: Arc<Vec<(Schema, InstanceStore)>>,
}

impl Generation {
    /// Monotonically increasing install counter (the seed state is 0).
    pub fn number(&self) -> u64 {
        self.number
    }

    /// The shared component vector. Cloning the `Arc` is how a
    /// `QueryEngine` is built over this snapshot without copying extents.
    pub fn components(&self) -> Arc<Vec<(Schema, InstanceStore)>> {
        Arc::clone(&self.components)
    }

    /// Per-component store version counters, in component order — the
    /// cache key that distinguishes this snapshot's answers.
    pub fn versions(&self) -> Vec<u64> {
        self.components.iter().map(|(_, st)| st.version()).collect()
    }
}

/// The mutable head: hands out pinned generations to readers and
/// installs successor generations for writers.
#[derive(Debug)]
pub struct GenerationStore {
    current: RwLock<Arc<Generation>>,
    /// Serialises writers so two concurrent mutations can't both clone
    /// generation N and race to install competing N+1s (one would lose
    /// its write). Readers never touch this lock.
    writer: Mutex<()>,
}

impl GenerationStore {
    /// Wrap the seed component state as generation 0.
    pub fn new(components: Vec<(Schema, InstanceStore)>) -> Self {
        GenerationStore {
            current: RwLock::new(Arc::new(Generation {
                number: 0,
                components: Arc::new(components),
            })),
            writer: Mutex::new(()),
        }
    }

    /// Pin the current generation. The returned `Arc` stays valid (and
    /// immutable) regardless of later installs.
    pub fn pin(&self) -> Arc<Generation> {
        Arc::clone(&self.current.read().unwrap())
    }

    /// The current generation number without pinning.
    pub fn current_number(&self) -> u64 {
        self.current.read().unwrap().number
    }

    /// Apply `f` to a private copy of the current component state and
    /// install the result as the next generation. Returns `f`'s value
    /// and the new generation number. Writers serialise; readers pinned
    /// to the old generation are untouched.
    pub fn mutate<T>(&self, f: impl FnOnce(&mut Vec<(Schema, InstanceStore)>) -> T) -> (T, u64) {
        let _span = obs::span!("federation.mutate", "federation");
        let _writer = self.writer.lock().unwrap();
        let base = self.pin();
        // The head and any pinned readers still share `base.components`,
        // so the writer works on its own copy. Copying a store copies
        // its partition and class-index handles, not its objects; the
        // mutation then copies only the partition it writes.
        let mut next = base.components.as_ref().clone();
        let out = f(&mut next);
        let number = base.number + 1;
        *self.current.write().unwrap() = Arc::new(Generation {
            number,
            components: Arc::new(next),
        });
        (out, number)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oo_model::{AttrType, SchemaBuilder};

    fn seed() -> Vec<(Schema, InstanceStore)> {
        let schema = SchemaBuilder::new("g")
            .class("book", |c| c.attr("title", AttrType::Str))
            .build()
            .unwrap();
        let mut store = InstanceStore::new();
        store
            .create(&schema, "book", |o| o.with_attr("title", "Logic"))
            .unwrap();
        vec![(schema, store)]
    }

    fn extent(g: &Generation) -> usize {
        g.components()[0].1.iter().count()
    }

    #[test]
    fn pinned_generation_survives_installs() {
        let gens = GenerationStore::new(seed());
        let g0 = gens.pin();
        assert_eq!(g0.number(), 0);
        assert_eq!(extent(&g0), 1);

        let ((), n) = gens.mutate(|components| {
            let (schema, store) = &mut components[0];
            store
                .create(schema, "book", |o| o.with_attr("title", "Sets"))
                .unwrap();
        });
        assert_eq!(n, 1);
        assert_eq!(gens.current_number(), 1);

        // The old pin still sees exactly the old extent and versions.
        assert_eq!(extent(&g0), 1);
        let g1 = gens.pin();
        assert_eq!(extent(&g1), 2);
        assert!(g1.versions() > g0.versions(), "store version advanced");
    }

    #[test]
    fn concurrent_readers_and_writers_never_tear() {
        let gens = std::sync::Arc::new(GenerationStore::new(seed()));
        let writer = {
            let gens = std::sync::Arc::clone(&gens);
            std::thread::spawn(move || {
                for _ in 0..20 {
                    gens.mutate(|components| {
                        let (schema, store) = &mut components[0];
                        store
                            .create(schema, "book", |o| o.with_attr("title", "More"))
                            .unwrap();
                    });
                }
            })
        };
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let gens = std::sync::Arc::clone(&gens);
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        let g = gens.pin();
                        let before = extent(&g);
                        // The pinned snapshot must be frozen: reading it
                        // twice straddling any concurrent install gives
                        // the same answer.
                        std::thread::yield_now();
                        assert_eq!(extent(&g), before);
                        assert_eq!(g.versions(), g.versions());
                    }
                })
            })
            .collect();
        writer.join().unwrap();
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(gens.current_number(), 20);
        assert_eq!(extent(&gens.pin()), 21);
    }

    #[test]
    fn writers_serialise_without_losing_installs() {
        let gens = std::sync::Arc::new(GenerationStore::new(seed()));
        let writers: Vec<_> = (0..4)
            .map(|_| {
                let gens = std::sync::Arc::clone(&gens);
                std::thread::spawn(move || {
                    for _ in 0..10 {
                        gens.mutate(|components| {
                            let (schema, store) = &mut components[0];
                            store
                                .create(schema, "book", |o| o.with_attr("title", "W"))
                                .unwrap();
                        });
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        // Every one of the 40 mutations landed in its own generation.
        assert_eq!(gens.current_number(), 40);
        assert_eq!(extent(&gens.pin()), 41);
    }
}
