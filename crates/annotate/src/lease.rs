//! Arena checkout: a shared pool of reusable [`DenseAnnotator`] arenas for
//! parallel trial execution.
//!
//! The dense engine's whole advantage is arena reuse — `reset()` costs
//! only the previous trial's footprint, while building a fresh arena costs
//! O(KG size) in zeroed bitmaps. A parallel trial runtime (one worker per
//! core, each pumping its own stream of trials) therefore wants **one
//! arena per worker, built once and leased for the worker's lifetime**,
//! not an arena per trial and not one arena fought over by every thread.
//!
//! [`DenseArenaPool`] provides exactly that: workers [`checkout`] an arena
//! at start-up (the pool builds one on demand the first time, so a pool
//! shared by N workers stabilizes at ≤ N arenas) and the [`ArenaLease`]
//! returns it — reset — when dropped. Subsequent runs over the same pool
//! reuse the warm arenas, so repeated benchmark sweeps stop paying the
//! build cost entirely.
//!
//! Not to be confused with [`pool::AnnotatorPool`](crate::pool), which
//! models *multiple human annotators voting on the same task*; this pool
//! is a memory-reuse mechanism for one simulated annotator per thread.
//!
//! [`checkout`]: DenseArenaPool::checkout

use crate::cost::CostModel;
use crate::dense::DenseAnnotator;
use crate::label_store::LabelStore;
use std::sync::{Arc, Mutex};

/// A thread-safe pool of reusable [`DenseAnnotator`] arenas over one
/// shared [`LabelStore`].
pub struct DenseArenaPool {
    store: Arc<LabelStore>,
    cost: CostModel,
    idle: Mutex<Vec<DenseAnnotator>>,
    built: Mutex<usize>,
}

impl DenseArenaPool {
    /// Pool over a shared label store; arenas are built lazily on first
    /// checkout and all carry `cost`.
    pub fn new(store: Arc<LabelStore>, cost: CostModel) -> Self {
        DenseArenaPool {
            store,
            cost,
            idle: Mutex::new(Vec::new()),
            built: Mutex::new(0),
        }
    }

    /// The shared label store the arenas read from.
    pub fn store(&self) -> &Arc<LabelStore> {
        &self.store
    }

    /// Lease an arena: reuses an idle one when available, builds a fresh
    /// one otherwise. The arena is handed out in the reset (fresh-trial)
    /// state and returns to the pool — reset again — when the lease drops.
    pub fn checkout(&self) -> ArenaLease<'_> {
        let reused = lock_unpoisoned(&self.idle).pop();
        let arena = reused.unwrap_or_else(|| {
            *lock_unpoisoned(&self.built) += 1;
            DenseAnnotator::new(self.store.clone(), self.cost)
        });
        ArenaLease {
            pool: self,
            arena: Some(arena),
        }
    }

    /// Total arenas ever built — with one long-lived lease per worker this
    /// stays at the peak concurrent worker count.
    pub fn arenas_built(&self) -> usize {
        *lock_unpoisoned(&self.built)
    }

    /// Arenas currently idle in the pool.
    pub fn idle_arenas(&self) -> usize {
        lock_unpoisoned(&self.idle).len()
    }
}

impl std::fmt::Debug for DenseArenaPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DenseArenaPool")
            .field("built", &self.arenas_built())
            .field("idle", &self.idle_arenas())
            .finish()
    }
}

/// A checked-out [`DenseAnnotator`]; derefs to the arena and returns it to
/// the pool (reset) on drop.
pub struct ArenaLease<'p> {
    pool: &'p DenseArenaPool,
    arena: Option<DenseAnnotator>,
}

impl ArenaLease<'_> {
    /// The leased arena, for contexts where deref coercion to
    /// `&mut dyn Annotator` needs a nudge.
    pub fn arena_mut(&mut self) -> &mut DenseAnnotator {
        self.arena.as_mut().expect("arena present until drop")
    }
}

impl std::ops::Deref for ArenaLease<'_> {
    type Target = DenseAnnotator;
    fn deref(&self) -> &DenseAnnotator {
        self.arena.as_ref().expect("arena present until drop")
    }
}

impl std::ops::DerefMut for ArenaLease<'_> {
    fn deref_mut(&mut self) -> &mut DenseAnnotator {
        self.arena_mut()
    }
}

/// Lock a pool mutex, shrugging off poison: the guarded state (a `Vec` of
/// arenas, a counter) is never left mid-mutation across a panic — the only
/// writes are single `push`/`pop`/`+= 1` operations — so a poisoned flag
/// carries no integrity information here. Ignoring it keeps one worker's
/// panic from cascading `checkout` panics through every sibling worker.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl Drop for ArenaLease<'_> {
    fn drop(&mut self) {
        if let Some(mut arena) = self.arena.take() {
            // A lease dropped during a panic unwind discards its arena
            // instead of pooling it: the trial died mid-annotation, so the
            // memo bitmaps, journals, and trial tombstones may be mutually
            // inconsistent — resetting relies on the journal being
            // complete, which a panic can no longer guarantee. The slot is
            // not leaked: `built` only tracks construction count, and the
            // next checkout simply builds a fresh arena.
            if std::thread::panicking() {
                return;
            }
            arena.reset();
            lock_unpoisoned(&self.pool.idle).push(arena);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotator::Annotator;
    use crate::oracle::RemOracle;
    use kg_model::implicit::ImplicitKg;

    fn pool() -> DenseArenaPool {
        let kg = ImplicitKg::new(vec![4; 50]).unwrap();
        let oracle = RemOracle::new(0.8, 3);
        let store = Arc::new(LabelStore::materialize(&kg, &oracle));
        DenseArenaPool::new(store, CostModel::default())
    }

    #[test]
    fn checkout_builds_lazily_and_reuses_on_return() {
        let pool = pool();
        assert_eq!(pool.arenas_built(), 0);
        {
            let mut a = pool.checkout();
            assert_eq!(pool.arenas_built(), 1);
            a.annotate_cluster(0, 4);
            assert!(a.seconds() > 0.0);
        }
        assert_eq!(pool.idle_arenas(), 1);
        // Second checkout reuses the arena — and gets it reset.
        let b = pool.checkout();
        assert_eq!(pool.arenas_built(), 1);
        assert_eq!(b.seconds(), 0.0);
        assert_eq!(b.triples_annotated(), 0);
    }

    #[test]
    fn concurrent_leases_build_distinct_arenas() {
        let pool = pool();
        let a = pool.checkout();
        let b = pool.checkout();
        assert_eq!(pool.arenas_built(), 2);
        assert_eq!(pool.idle_arenas(), 0);
        drop(a);
        drop(b);
        assert_eq!(pool.idle_arenas(), 2);
        // A later wave reuses both.
        let _c = pool.checkout();
        let _d = pool.checkout();
        assert_eq!(pool.arenas_built(), 2);
    }

    #[test]
    fn lease_drives_the_annotator_trait() {
        let pool = pool();
        let mut lease = pool.checkout();
        let ann: &mut dyn Annotator = lease.arena_mut();
        let tau = ann.annotate_cluster(1, 4);
        assert!(tau <= 4);
        assert_eq!(ann.entities_identified(), 1);
    }

    #[test]
    fn panicking_trial_discards_its_arena_without_poisoning_the_pool() {
        let pool = pool();
        // Warm the pool so the panicking trial checks out a *reused* arena —
        // the discard must not repool it in a half-annotated state.
        drop(pool.checkout());
        assert_eq!(pool.idle_arenas(), 1);

        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut lease = pool.checkout();
            lease.annotate_cluster(0, 4);
            panic!("trial blew up mid-annotation");
        }));
        assert!(result.is_err());

        // The arena was discarded, not leaked back into `idle` dirty.
        assert_eq!(pool.idle_arenas(), 0);
        // The pool stays fully usable: the next checkout builds fresh and
        // hands out a clean-slate arena.
        let mut lease = pool.checkout();
        assert_eq!(pool.arenas_built(), 2);
        assert_eq!(lease.seconds(), 0.0);
        assert_eq!(lease.triples_annotated(), 0);
        let tau = lease.annotate_cluster(0, 4);
        assert!(tau <= 4);
        drop(lease);
        assert_eq!(pool.idle_arenas(), 1);
    }

    #[test]
    fn workers_share_the_pool_across_threads() {
        let pool = pool();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for cluster in 0..50u32 {
                        let mut lease = pool.checkout();
                        lease.annotate_cluster(cluster, 4);
                    }
                });
            }
        });
        // Never more arenas than peak concurrency, all back home now.
        assert!(pool.arenas_built() <= 4, "built {}", pool.arenas_built());
        assert_eq!(pool.idle_arenas(), pool.arenas_built());
        let dbg = format!("{pool:?}");
        assert!(dbg.contains("DenseArenaPool"));
    }
}
