//! The parallel runtime: thread-count-invariant fan-out for every
//! evaluator in the workspace, across trials and within one.
//!
//! Experiments repeat each configuration over many seeded trials and
//! report mean ± standard deviation (§7.1.5). The old `kg-bench` runner
//! spread trials over scoped threads and merged per-thread accumulators in
//! chunk order, so the *reduction shape* — and therefore the low bits of
//! the reported mean/std — depended on how many cores the host happened to
//! have, silently contradicting its own "independent of thread count"
//! contract. [`TrialExecutor`] makes that contract real:
//!
//! * **Counter-based per-trial RNG streams** — trial `i` receives the seed
//!   [`trial_seed`]`(base_seed, i)`; what a trial computes depends only on
//!   `(base_seed, i)`, never on which worker ran it or when. (`StdRng`
//!   expands the `u64` through SplitMix64, so adjacent counters yield
//!   decorrelated streams.)
//! * **Work-stealing sharding** — workers claim indices from an atomic
//!   cursor, so a straggler never idles the other cores; the schedule is
//!   free to be nondeterministic because no result depends on it.
//!   [`TrialExecutor::map_with`] hands results back in index order.
//! * **Fixed-shape reduction** — [`tree_merge`] merges per-index results
//!   with a binary tree whose shape depends only on the item count.
//!   Aggregation is therefore **bitwise identical** at 1, 2, 4, or N
//!   workers (regression-tested at forced worker counts 1 vs 7).
//! * **Leased per-worker state** — [`TrialExecutor::run_with`] and
//!   [`TrialExecutor::map_with`] give every worker one long-lived context
//!   (e.g. a checked-out `kg_annotate::lease::DenseArenaPool` arena)
//!   reused across all the indices the worker claims, so arenas stop being
//!   rebuilt per trial.
//!
//! The same map and merge fan out one trial's sharded replay
//! ([`crate::sharded`]) over shard indices, keyed by [`shard_seed`], so
//! there is one worker pool and one worker knob for both levels.
//!
//! Worker-count resolution: an explicit [`TrialExecutor::with_workers`]
//! override wins, else the `KG_EVAL_WORKERS` environment variable (a
//! positive integer; anything else is ignored), else
//! `std::thread::available_parallelism()`. Because results are invariant
//! to the resolved count, capping workers is purely an operational choice.

use kg_stats::RunningMoments;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicU64, Ordering};

/// Environment variable capping the default worker count (a positive
/// integer). Ignored when [`TrialExecutor::with_workers`] is set.
pub const ENV_WORKERS: &str = "KG_EVAL_WORKERS";

/// The seed handed to trial `trial` of a run with `base_seed`: the plain
/// counter stream `base_seed + trial` (wrapping). Every consumer builds
/// its generator via `StdRng::seed_from_u64`, which expands the counter
/// through SplitMix64 — adjacent counters produce decorrelated streams.
///
/// This is a **stability contract**: committed artifacts and the
/// hash/dense equivalence suites replay exact seed sequences, so the
/// derivation must not change between releases.
#[inline]
pub fn trial_seed(base_seed: u64, trial: u64) -> u64 {
    base_seed.wrapping_add(trial)
}

/// The seed handed to shard `shard` of a sharded replay of a trial seeded
/// with `trial_seed`: the trial counter stream extended with a shard
/// dimension. Shard 0 reproduces `trial_seed` exactly, and higher shards
/// stride by the 64-bit golden ratio before XOR so that shard `s` of trial
/// `t` never collides with shard 0 of trial `t + s` (a plain additive
/// counter would). As with [`trial_seed`], consumers expand the value
/// through `StdRng::seed_from_u64` (SplitMix64), decorrelating adjacent
/// substreams.
///
/// Like [`trial_seed`], this is a **stability contract**: the sharded
/// replay path's committed artifacts and shard-count invariance suites
/// replay exact substream sequences, so the derivation must not change
/// between releases.
#[inline]
pub fn shard_seed(trial_seed: u64, shard: u64) -> u64 {
    trial_seed ^ shard.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Thread-count-invariant executor for repeated seeded trials.
///
/// See the [module docs](self) for the determinism guarantee. The
/// executor is a tiny value type — hold one per harness, or build one
/// ad hoc per call; all state lives on the stack of [`TrialExecutor::run`].
#[derive(Debug, Clone, Copy, Default)]
pub struct TrialExecutor {
    workers: Option<NonZeroUsize>,
}

impl TrialExecutor {
    /// Executor with the default worker resolution (`KG_EVAL_WORKERS`,
    /// else available parallelism).
    pub fn new() -> Self {
        Self::default()
    }

    /// Force an exact worker count (≥ 1), overriding the environment.
    /// Results are bitwise identical for every choice; this exists for
    /// regression tests and scaling benchmarks.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = Some(NonZeroUsize::new(workers).expect("worker count must be at least 1"));
        self
    }

    /// The worker count this executor resolves to right now (before the
    /// per-run cap at the trial count).
    pub fn workers(&self) -> usize {
        if let Some(n) = self.workers {
            return n.get();
        }
        if let Ok(v) = std::env::var(ENV_WORKERS) {
            if let Ok(n) = v.trim().parse::<usize>() {
                if n >= 1 {
                    return n;
                }
            }
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }

    /// Run `trials` seeded replications of `f`, each returning a vector of
    /// exactly `metrics` values; returns one [`RunningMoments`] per metric
    /// position, aggregated in a fixed shape (bitwise identical at any
    /// worker count).
    ///
    /// Edge cases are total: `trials == 0` returns empty accumulators
    /// (count 0, mean 0.0, std 0.0 — no NaN) without spawning a thread,
    /// and `trials == 1` runs inline on the calling thread.
    ///
    /// # Panics
    ///
    /// If `f` returns a vector whose length differs from `metrics`.
    pub fn run<F>(&self, trials: u64, base_seed: u64, metrics: usize, f: F) -> Vec<RunningMoments>
    where
        F: Fn(u64) -> Vec<f64> + Sync,
    {
        self.run_with(trials, base_seed, metrics, || (), |(), seed| f(seed))
    }

    /// [`TrialExecutor::run`] with one long-lived context per worker:
    /// `init` runs once on each worker thread (and once on the calling
    /// thread in the sequential path), and `f` receives that context for
    /// every trial the worker claims. Use it to lease expensive reusable
    /// state — a dense annotation arena, a scratch buffer — across trials
    /// instead of rebuilding it per trial.
    ///
    /// The determinism contract requires `f` to be a pure function of
    /// `(context-as-initialized, seed)`: reset any carried state at the
    /// top of the trial (e.g. `DenseAnnotator::reset`), because which
    /// trials share a context depends on the schedule.
    pub fn run_with<C, I, F>(
        &self,
        trials: u64,
        base_seed: u64,
        metrics: usize,
        init: I,
        f: F,
    ) -> Vec<RunningMoments>
    where
        I: Fn() -> C + Sync,
        F: Fn(&mut C, u64) -> Vec<f64> + Sync,
    {
        let leaves = self.map_with(trials, init, |ctx, t| {
            checked(f(ctx, trial_seed(base_seed, t)), metrics, t)
                .into_iter()
                .map(|v| RunningMoments::from_slice(&[v]))
                .collect::<Vec<_>>()
        });
        tree_merge(leaves, |left, right| {
            for (l, r) in left.iter_mut().zip(&right) {
                l.merge(r);
            }
        })
        .unwrap_or_else(|| vec![RunningMoments::new(); metrics])
    }

    /// Ordered parallel map: `f(ctx, i)` for every `i` in `0..count`,
    /// returned in index order whatever the schedule. Workers claim
    /// indices from an atomic cursor, and `init` builds one context per
    /// worker, as in [`TrialExecutor::run_with`].
    ///
    /// `count == 0` returns an empty vector without calling `init`, and a
    /// run capped at one worker (by the executor or by `count`) runs
    /// inline on the calling thread. The output is sized by `count`, so
    /// callers facing untrusted input must bound it.
    pub fn map_with<C, T, I, F>(&self, count: u64, init: I, f: F) -> Vec<T>
    where
        T: Send,
        I: Fn() -> C + Sync,
        F: Fn(&mut C, u64) -> T + Sync,
    {
        if count == 0 {
            return Vec::new();
        }
        let workers = self
            .workers()
            .min(usize::try_from(count).unwrap_or(usize::MAX));
        if workers <= 1 {
            let mut ctx = init();
            return (0..count).map(|i| f(&mut ctx, i)).collect();
        }
        let cursor = AtomicU64::new(0);
        let parts: Vec<Vec<(u64, T)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let (cursor, init, f) = (&cursor, &init, &f);
                    scope.spawn(move || {
                        let mut ctx = init();
                        let mut done = Vec::new();
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            if i >= count {
                                break;
                            }
                            done.push((i, f(&mut ctx, i)));
                        }
                        done
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        });
        // Reassemble in index order; the schedule's nondeterminism ends
        // here.
        let mut slots: Vec<Option<T>> = Vec::new();
        slots.resize_with(count as usize, || None);
        for (i, out) in parts.into_iter().flatten() {
            slots[i as usize] = Some(out);
        }
        slots
            .into_iter()
            .enumerate()
            .map(|(i, s)| s.unwrap_or_else(|| panic!("index {i} was never executed")))
            .collect()
    }
}

/// Run `trials` seeded replications of `f` on a default-resolved executor
/// — the drop-in replacement for the old `kg_bench::trials::run_trials`,
/// now thread-count-invariant.
pub fn run_trials<F>(trials: u64, base_seed: u64, metrics: usize, f: F) -> Vec<RunningMoments>
where
    F: Fn(u64) -> Vec<f64> + Sync,
{
    TrialExecutor::new().run(trials, base_seed, metrics, f)
}

#[inline]
fn checked(out: Vec<f64>, metrics: usize, trial: u64) -> Vec<f64> {
    assert_eq!(
        out.len(),
        metrics,
        "trial {trial} returned {} metrics, expected {metrics}",
        out.len()
    );
    out
}

/// Merge `items` pairwise with a binary tree over their index: each level
/// merges node `2k + 1` into node `2k`, and an odd last node passes up
/// unmerged. The shape depends only on `items.len()`, so a float result
/// is a pure function of the items — pairwise merging also keeps the Chan
/// et al. moment combination numerically tighter than a long sequential
/// fold. `None` when `items` is empty.
pub fn tree_merge<T>(items: Vec<T>, mut merge: impl FnMut(&mut T, T)) -> Option<T> {
    let mut level = items;
    while level.len() > 1 {
        let mut next = Vec::with_capacity(level.len().div_ceil(2));
        let mut nodes = level.into_iter();
        while let Some(mut left) = nodes.next() {
            if let Some(right) = nodes.next() {
                merge(&mut left, right);
            }
            next.push(left);
        }
        level = next;
    }
    level.pop()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(stats: &[RunningMoments]) -> Vec<(u64, u64, u64)> {
        stats
            .iter()
            .map(|m| (m.mean().to_bits(), m.sample_std().to_bits(), m.count()))
            .collect()
    }

    #[test]
    fn aggregates_across_trials_deterministically() {
        let f = |seed: u64| vec![seed as f64, 2.0 * seed as f64];
        let a = run_trials(100, 10, 2, f);
        let b = run_trials(100, 10, 2, f);
        assert_eq!(a[0].count(), 100);
        assert_eq!(bits(&a), bits(&b));
        // Seeds 10..110 → mean 59.5, second metric doubled.
        assert!((a[0].mean() - 59.5).abs() < 1e-9);
        assert!((a[1].mean() - 119.0).abs() < 1e-9);
    }

    #[test]
    fn bitwise_invariant_across_worker_counts() {
        // A metric with enough float texture that a reduction-shape change
        // would flip low bits: irrational-ish values at varied scales.
        let f = |seed: u64| {
            let x = (seed as f64 + 0.5).sqrt() * 1e3;
            vec![x.sin() * 1e6, 1.0 / x, x]
        };
        let reference = TrialExecutor::new().with_workers(1).run(257, 42, 3, f);
        for workers in [2, 3, 4, 7, 16, 64] {
            let got = TrialExecutor::new()
                .with_workers(workers)
                .run(257, 42, 3, f);
            assert_eq!(bits(&reference), bits(&got), "workers = {workers}");
        }
    }

    #[test]
    fn zero_trials_is_nan_free_and_spawnless() {
        let out = TrialExecutor::new()
            .with_workers(4)
            .run(0, 9, 3, |_| panic!("must not be called"));
        assert_eq!(out.len(), 3);
        for m in &out {
            assert_eq!(m.count(), 0);
            assert!(m.mean().is_finite());
            assert!(m.sample_std().is_finite());
            assert_eq!(m.mean(), 0.0);
            assert_eq!(m.sample_std(), 0.0);
        }
    }

    #[test]
    fn single_trial_runs_inline_and_is_nan_free() {
        // A forced multi-worker executor still caps at the trial count,
        // so a single trial runs on the calling thread.
        let caller = std::thread::current().id();
        let out = TrialExecutor::new().with_workers(8).run(1, 7, 1, |s| {
            assert_eq!(std::thread::current().id(), caller);
            vec![s as f64]
        });
        assert_eq!(out[0].count(), 1);
        assert_eq!(out[0].mean(), 7.0);
        assert_eq!(out[0].sample_std(), 0.0);
        assert!(out[0].sample_std().is_finite());
    }

    #[test]
    #[should_panic(expected = "expected 3")]
    fn wrong_metric_arity_panics() {
        TrialExecutor::new()
            .with_workers(1)
            .run(2, 0, 3, |_| vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "expected 2")]
    fn wrong_metric_arity_panics_across_threads_too() {
        TrialExecutor::new()
            .with_workers(2)
            .run(8, 0, 2, |_| vec![1.0]);
    }

    #[test]
    fn per_worker_context_is_reused_and_results_invariant() {
        // Context counts how many trials it served; the metric must not
        // depend on that (simulating an arena that is reset per trial).
        let run = |workers| {
            TrialExecutor::new().with_workers(workers).run_with(
                64,
                5,
                2,
                || 0u64,
                |served, seed| {
                    *served += 1;
                    assert!(*served <= 64, "context leaked across workers");
                    vec![seed as f64, (seed as f64).ln_1p()]
                },
            )
        };
        assert_eq!(bits(&run(1)), bits(&run(5)));
    }

    #[test]
    fn map_with_returns_index_order_at_any_worker_count() {
        for workers in [1, 3, 8] {
            let exec = TrialExecutor::new().with_workers(workers);
            let out = exec.map_with(50, || (), |(), i| i * i);
            assert_eq!(out, (0..50).map(|i| i * i).collect::<Vec<_>>());
            let none: Vec<u64> = exec.map_with(0, || panic!("no init for no work"), |(), i| i);
            assert!(none.is_empty());
        }
    }

    #[test]
    fn env_var_caps_default_workers() {
        // Other tests never rely on the *default* resolution, and results
        // are invariant to it anyway — only this test touches the env.
        std::env::set_var(ENV_WORKERS, "3");
        assert_eq!(TrialExecutor::new().workers(), 3);
        std::env::set_var(ENV_WORKERS, "not a number");
        let fallback = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        assert_eq!(TrialExecutor::new().workers(), fallback);
        std::env::set_var(ENV_WORKERS, "0");
        assert_eq!(TrialExecutor::new().workers(), fallback);
        std::env::set_var(ENV_WORKERS, "5");
        // An explicit override beats the environment.
        assert_eq!(TrialExecutor::new().with_workers(2).workers(), 2);
        std::env::remove_var(ENV_WORKERS);
        assert_eq!(TrialExecutor::new().workers(), fallback);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_workers_rejected() {
        let _ = TrialExecutor::new().with_workers(0);
    }

    #[test]
    fn counter_seed_contract() {
        assert_eq!(trial_seed(10, 0), 10);
        assert_eq!(trial_seed(10, 5), 15);
        assert_eq!(trial_seed(u64::MAX, 2), 1); // wraps
    }

    #[test]
    fn shard_seed_contract() {
        // Shard 0 is the unsharded trial stream.
        assert_eq!(shard_seed(12345, 0), 12345);
        // Exact golden-ratio stride values — the derivation is frozen.
        assert_eq!(shard_seed(0, 1), 0x9E37_79B9_7F4A_7C15);
        assert_eq!(
            shard_seed(7, 2),
            7 ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(2)
        );
        // No cross-trial collision of the kind an additive counter has:
        // shard s of trial t must differ from shard 0 of trial t + s.
        for t in 0..32u64 {
            for s in 1..8u64 {
                assert_ne!(
                    shard_seed(trial_seed(99, t), s),
                    shard_seed(trial_seed(99, t + s), 0),
                    "t={t} s={s}"
                );
            }
        }
    }

    #[test]
    fn tree_reduce_matches_flat_accumulation_statistically() {
        // Same observations, two shapes: values agree to fp tolerance
        // (bitwise equality is only promised across *worker counts*, which
        // share the shape — not against a sequential fold).
        let xs: Vec<f64> = (0..321).map(|i| (i as f64).cos() * 7.0 + 3.0).collect();
        let flat = RunningMoments::from_slice(&xs);
        let tree = run_trials(321, 0, 1, |s| vec![(s as f64).cos() * 7.0 + 3.0]);
        assert_eq!(tree[0].count(), flat.count());
        assert!((tree[0].mean() - flat.mean()).abs() < 1e-12);
        assert!((tree[0].sample_variance() - flat.sample_variance()).abs() < 1e-10);
    }
}
