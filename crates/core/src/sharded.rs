//! Intra-trial sharded replay: one trial's cluster walk partitioned into
//! fixed shards and fanned out across workers, bitwise identical at any
//! worker count.
//!
//! [`crate::executor::TrialExecutor`] parallelizes *across* trials; a
//! single 10^7-triple replay still ran on one core, and single-replay
//! latency is what a serving layer exposes to users. This module takes the
//! same invariance recipe one level down, into the trial itself:
//!
//! * **Fixed shard partition** — a replay of `units` cluster visits is cut
//!   into [`num_shards`]`(units)` shards of [`DEFAULT_SHARD_UNITS`] visits
//!   each. The partition is a pure function of `units`; the caller's
//!   [`TrialExecutor`] only chooses how many threads *claim* those shards.
//!   Results are therefore invariant to the worker count **by
//!   construction** — the same split the executor makes between trial
//!   count and `KG_EVAL_WORKERS`.
//! * **Counter-based shard substreams** — shard `s` draws from
//!   [`crate::executor::shard_seed`]`(trial_seed, s)`; what a shard
//!   computes depends only on `(trial_seed, s)`, never on which worker ran
//!   it or when.
//! * **Shard-local annotation scratch** — each worker leases one arena
//!   through [`DenseArenaPool::checkout`] or builds one hash annotator per
//!   shard; a leased arena is reset at every shard boundary, so a shard's
//!   memo state is self-contained.
//! * **Fixed-shape tree reduction** — per-shard aggregates (accuracy
//!   moments, labeled / correct / entity counts, cost seconds) merge with
//!   [`tree_merge`] over the *shard index*, fixing the float summation
//!   order regardless of completion schedule.
//!
//! The fan-out is [`TrialExecutor::map_with`] over shard indices — the
//! runtime that runs trials — so a sharded replay needs no thread pool or
//! worker setting of its own.
//!
//! # The one-time stream change
//!
//! Exactly as the executor re-keyed per-trial streams once to make them
//! schedule-free, sharded replay is a **different stream** from the
//! unsharded adaptive loop — and then frozen. Two deliberate differences:
//!
//! 1. The adaptive margin-of-error stopping rule of
//!    [`run_static`](crate::static_eval::run_static) is inherently
//!    sequential (each batch decides whether the next exists), so sharded
//!    replay takes a **fixed visit count** up front and the estimate is
//!    computed once at the end. Shard 0 of a 1-shard replay consumes the
//!    seed stream `shard_seed(trial_seed, 0) == trial_seed`, but the walk
//!    is batched differently from the adaptive loop, so numbers are not
//!    comparable across the two entry points — only across worker
//!    counts within this one.
//! 2. Annotation memoization is **scoped to the shard**: a cluster visited
//!    by two shards is annotated (and charged) by both. The `labeled` /
//!    `entities` / `cost_seconds` fields of [`ShardReplayReport`] are
//!    therefore sums of shard-scoped counters — deterministic and
//!    shard-partition-stable, but an upper bound on the unsharded
//!    distinct-annotation cost. The estimator itself is unaffected:
//!    accuracy draws depend only on labels, not on memo hits.

use crate::executor::{shard_seed, tree_merge, TrialExecutor};
use kg_annotate::annotator::{Annotator, SimulatedAnnotator};
use kg_annotate::cost::CostModel;
use kg_annotate::lease::DenseArenaPool;
use kg_annotate::oracle::LabelOracle;
use kg_sampling::design::Design;
use kg_sampling::twcs::floored_variance_of_mean;
use kg_sampling::PopulationIndex;
use kg_stats::srswor::sample_without_replacement_into;
use kg_stats::{PointEstimate, RunningMoments};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The shardable subset of [`Design`]: designs whose draw loop is a flat
/// sequence of independent PPS cluster visits. The adaptive /
/// stratified designs carry sequential state between draws and fall back
/// to the unsharded path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardDesign {
    /// WCS (§5.2.2): every sampled cluster fully annotated.
    FullCluster,
    /// TWCS (§5.2.3): per sampled cluster, `min{size, m}` triples drawn
    /// without replacement.
    TwoStage {
        /// Second-stage cap.
        m: usize,
    },
}

impl ShardDesign {
    /// The sharded counterpart of `design`, if its visit sequence is
    /// flat-partitionable. SRS visits triples rather than clusters and the
    /// stratified designs allocate draws across strata sequentially, so
    /// they return `None`.
    pub fn from_design(design: &Design) -> Option<Self> {
        match design {
            Design::Wcs => Some(ShardDesign::FullCluster),
            Design::Twcs { m } => Some(ShardDesign::TwoStage { m: *m }),
            _ => None,
        }
    }

    /// Report label for the design.
    pub fn name(&self) -> &'static str {
        match self {
            ShardDesign::FullCluster => "WCS/sharded",
            ShardDesign::TwoStage { .. } => "TWCS/sharded",
        }
    }
}

/// Cluster visits per shard. Part of the stream contract: changing it
/// re-keys every shard substream past the first.
pub const DEFAULT_SHARD_UNITS: usize = 256;

/// How many shards a replay of `units` visits splits into.
pub fn num_shards(units: u64) -> u64 {
    units.div_ceil(DEFAULT_SHARD_UNITS as u64)
}

/// Sharded replay on the hash engine: every shard walks on a fresh
/// [`SimulatedAnnotator`], and `exec` fans the shards out.
pub fn replay_hash(
    exec: &TrialExecutor,
    design: ShardDesign,
    index: &PopulationIndex,
    oracle: &dyn LabelOracle,
    cost: CostModel,
    units: u64,
    trial_seed: u64,
) -> ShardReplayReport {
    let parts = exec.map_with(
        num_shards(units),
        || (),
        |(), shard| {
            let mut annotator = SimulatedAnnotator::new(oracle, cost);
            run_shard(design, index, units, trial_seed, shard, &mut annotator)
        },
    );
    ShardReplayReport::from_parts(design, units, parts)
}

/// Sharded replay on the dense engine: each worker leases one arena from
/// `pool` and resets it at every shard boundary. Byte-identical to
/// [`replay_hash`] with the matching oracle and cost model.
pub fn replay_dense(
    exec: &TrialExecutor,
    design: ShardDesign,
    index: &PopulationIndex,
    pool: &DenseArenaPool,
    units: u64,
    trial_seed: u64,
) -> ShardReplayReport {
    let parts = exec.map_with(
        num_shards(units),
        || pool.checkout(),
        |lease, shard| {
            lease.reset();
            run_shard(design, index, units, trial_seed, shard, lease.arena_mut())
        },
    );
    ShardReplayReport::from_parts(design, units, parts)
}

/// Aggregates of one shard's walk; merged with [`tree_merge`] in
/// shard-index order.
#[derive(Debug, Clone, Default)]
struct ShardPart {
    accuracies: RunningMoments,
    labeled: u64,
    correct: u64,
    entities: u64,
    cost_seconds: f64,
}

impl ShardPart {
    fn merge(&mut self, other: &ShardPart) {
        self.accuracies.merge(&other.accuracies);
        self.labeled += other.labeled;
        self.correct += other.correct;
        self.entities += other.entities;
        self.cost_seconds += other.cost_seconds;
    }
}

/// Walk one shard's slice of the visit sequence on a freshly prepared
/// engine, drawing from the shard's counter-based substream.
fn run_shard(
    design: ShardDesign,
    index: &PopulationIndex,
    units: u64,
    trial_seed: u64,
    shard: u64,
    annotator: &mut dyn Annotator,
) -> ShardPart {
    let start = shard * DEFAULT_SHARD_UNITS as u64;
    let end = (start + DEFAULT_SHARD_UNITS as u64).min(units);
    let mut rng = StdRng::seed_from_u64(shard_seed(trial_seed, shard));
    let mut part = ShardPart::default();
    match design {
        ShardDesign::FullCluster => {
            // Sited draw + sited annotation: id, size, and base all come
            // from the one alias-slot line, so each visit's serial miss
            // chain is slot load → arena stamp (same fast path as
            // `WcsDesign::draw`). Stream-identical to the unsited calls —
            // same RNG consumption, same clusters.
            for _ in start..end {
                let (c, size, base) = index.sample_cluster_pps_sited(&mut rng);
                let tau = annotator.annotate_cluster_sited(c as u32, base, size);
                part.correct += u64::from(tau);
                part.accuracies.push(f64::from(tau) / size as f64);
            }
        }
        ShardDesign::TwoStage { m } => {
            // The second stage draws from the same stream, so visits stay
            // strictly interleaved: hoisting first-stage picks would move
            // their RNG calls ahead of earlier visits' subset draws.
            let mut scratch = Vec::new();
            for _ in start..end {
                let (c, size) = index.sample_cluster_pps_sized(&mut rng);
                // Inlined `annotate_cluster_subset` so the integer τ feeds
                // the `correct` aggregate; the RNG consumption is
                // identical.
                let take = size.min(m.max(1));
                sample_without_replacement_into(&mut rng, size, take, &mut scratch);
                let tau = annotator.annotate_offsets(c as u32, &scratch);
                part.correct += u64::from(tau);
                part.accuracies.push(f64::from(tau) / take as f64);
            }
        }
    }
    part.labeled = annotator.triples_annotated() as u64;
    part.entities = annotator.entities_identified() as u64;
    part.cost_seconds = annotator.seconds();
    part
}

/// The outcome of one sharded replay. All fields are bitwise invariant to
/// the worker count; see the module docs for how `labeled` /
/// `entities` / `cost_seconds` relate to the unsharded path.
#[derive(Debug, Clone)]
pub struct ShardReplayReport {
    /// Design label (e.g. `"WCS/sharded"`).
    pub design: &'static str,
    /// Cluster visits walked.
    pub units: u64,
    /// Shards the walk was partitioned into.
    pub shards: u64,
    /// Visits per shard (the partition key).
    pub shard_units: usize,
    /// The design's accuracy estimate over all visits.
    pub estimate: PointEstimate,
    /// Per-visit accuracy moments behind the estimate.
    pub accuracies: RunningMoments,
    /// Triples annotated, summed over shard-scoped memos.
    pub labeled: u64,
    /// Correct triples observed (estimator numerator, with multiplicity).
    pub correct: u64,
    /// Entities identified, summed over shard-scoped memos.
    pub entities: u64,
    /// Simulated human seconds, summed over shard-scoped memos in
    /// fixed-shape tree order.
    pub cost_seconds: f64,
}

impl ShardReplayReport {
    fn from_parts(design: ShardDesign, units: u64, parts: Vec<ShardPart>) -> Self {
        let shards = parts.len() as u64;
        let merged = tree_merge(parts, |left, right| left.merge(&right)).unwrap_or_default();
        let n = merged.accuracies.count() as usize;
        let estimate = if n == 0 {
            PointEstimate::uninformative()
        } else {
            let var = match design {
                ShardDesign::FullCluster => merged.accuracies.variance_of_mean(),
                ShardDesign::TwoStage { m } => floored_variance_of_mean(&merged.accuracies, m),
            };
            PointEstimate::new(merged.accuracies.mean(), var, n)
                .expect("plug-in variance is non-negative")
        };
        ShardReplayReport {
            design: design.name(),
            units,
            shards,
            shard_units: DEFAULT_SHARD_UNITS,
            estimate,
            accuracies: merged.accuracies,
            labeled: merged.labeled,
            correct: merged.correct,
            entities: merged.entities,
            cost_seconds: merged.cost_seconds,
        }
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "{}: μ̂={:.4} ±{:.4} (95%) over {} visits in {} shards — {} labeled, {} entities, {:.1} s",
            self.design,
            self.estimate.mean,
            self.estimate.moe(0.05).unwrap_or(f64::NAN),
            self.units,
            self.shards,
            self.labeled,
            self.entities,
            self.cost_seconds,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kg_annotate::oracle::{true_accuracy, RemOracle};
    use kg_model::implicit::ImplicitKg;
    use std::sync::Arc;

    fn setup() -> (ImplicitKg, RemOracle, PopulationIndex) {
        let kg = ImplicitKg::new((0..800).map(|i| 1 + (i % 13)).collect()).unwrap();
        let oracle = RemOracle::new(0.87, 5);
        let idx = PopulationIndex::from_population(&kg).unwrap();
        (kg, oracle, idx)
    }

    fn report_bits(r: &ShardReplayReport) -> (u64, u64, u64, u64, u64, u64, u64) {
        (
            r.estimate.mean.to_bits(),
            r.estimate.var_of_mean.to_bits(),
            r.accuracies.sample_std().to_bits(),
            r.cost_seconds.to_bits(),
            r.labeled,
            r.correct,
            r.entities,
        )
    }

    #[test]
    fn bitwise_invariant_across_shard_worker_counts_and_engines() {
        let (_, oracle, idx) = setup();
        let store = Arc::new(idx.materialize_labels(&oracle));
        let pool = DenseArenaPool::new(store, CostModel::default());
        for design in [ShardDesign::FullCluster, ShardDesign::TwoStage { m: 4 }] {
            let reference = replay_hash(
                &TrialExecutor::new().with_workers(1),
                design,
                &idx,
                &oracle,
                CostModel::default(),
                1000,
                0xFEED,
            );
            assert_eq!(reference.units, 1000);
            assert_eq!(reference.shards, 4); // 1000 visits / 256 per shard
            assert_eq!(reference.accuracies.count(), 1000);
            for workers in [2, 3, 7, 16] {
                let exec = TrialExecutor::new().with_workers(workers);
                let hash = replay_hash(
                    &exec,
                    design,
                    &idx,
                    &oracle,
                    CostModel::default(),
                    1000,
                    0xFEED,
                );
                let dense = replay_dense(&exec, design, &idx, &pool, 1000, 0xFEED);
                assert_eq!(
                    report_bits(&reference),
                    report_bits(&hash),
                    "{design:?} hash at {workers} workers"
                );
                assert_eq!(
                    report_bits(&reference),
                    report_bits(&dense),
                    "{design:?} dense at {workers} workers"
                );
            }
        }
        // One arena per peak concurrent worker, not per shard.
        assert!(pool.arenas_built() <= 16, "built {}", pool.arenas_built());
    }

    #[test]
    fn estimates_are_statistically_sane() {
        let (kg, oracle, idx) = setup();
        let truth = true_accuracy(&kg, &oracle);
        let r = replay_hash(
            &TrialExecutor::new().with_workers(3),
            ShardDesign::FullCluster,
            &idx,
            &oracle,
            CostModel::default(),
            3000,
            99,
        );
        assert!(
            (r.estimate.mean - truth).abs() < 0.03,
            "{} vs truth {truth}",
            r.estimate.mean
        );
        assert!(r.estimate.moe(0.05).unwrap() < 0.05);
        assert!(r.cost_seconds > 0.0);
        assert!(r.correct > 0 && r.labeled > 0 && r.entities > 0);
        assert!(r.summary().contains("WCS/sharded"));
    }

    #[test]
    fn shard_units_partitions_the_walk() {
        let units = DEFAULT_SHARD_UNITS as u64;
        assert_eq!(num_shards(10 * units), 10);
        assert_eq!(num_shards(10 * units + 1), 11);
        assert_eq!(num_shards(0), 0);
        // A replay that spans several shards reports the fixed shard size
        // and the partition it implies.
        let (_, oracle, idx) = setup();
        let r = replay_hash(
            &TrialExecutor::new().with_workers(1),
            ShardDesign::TwoStage { m: 3 },
            &idx,
            &oracle,
            CostModel::default(),
            3 * units - 1,
            7,
        );
        assert_eq!(r.shard_units, DEFAULT_SHARD_UNITS);
        assert_eq!(r.shards, 3);
        assert_eq!(r.accuracies.count(), 3 * units - 1);
    }

    #[test]
    fn zero_units_is_total_and_uninformative() {
        let (_, oracle, idx) = setup();
        let r = replay_hash(
            &TrialExecutor::new().with_workers(4),
            ShardDesign::FullCluster,
            &idx,
            &oracle,
            CostModel::default(),
            0,
            1,
        );
        assert_eq!(r.units, 0);
        assert_eq!(r.shards, 0);
        assert_eq!(r.estimate.units, 0);
        assert_eq!(r.labeled, 0);
        assert!(r.estimate.moe(0.05).unwrap() > 0.5);
    }

    #[test]
    fn design_mapping_covers_only_flat_walks() {
        assert_eq!(
            ShardDesign::from_design(&Design::Wcs),
            Some(ShardDesign::FullCluster)
        );
        assert_eq!(
            ShardDesign::from_design(&Design::Twcs { m: 5 }),
            Some(ShardDesign::TwoStage { m: 5 })
        );
        assert_eq!(ShardDesign::from_design(&Design::Srs), None);
        assert_eq!(ShardDesign::from_design(&Design::Rcs), None);
        assert_eq!(ShardDesign::from_design(&Design::TsRcs { m: 2 }), None);
    }
}
