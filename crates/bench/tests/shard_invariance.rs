//! Regression: intra-trial sharded replay is **bitwise independent of the
//! shard-worker count** — the shard partition is a pure function of the
//! visit count, shard substreams are counter-keyed, and per-shard
//! aggregates merge in a fixed-shape tree, so `KG_EVAL_SHARDS` (like
//! `KG_EVAL_WORKERS` one level up) is purely an operational knob.
//!
//! The same seeded replay (a 10^5-triple long-tail synthetic KG, fixed
//! WCS / TWCS visit counts) runs at forced shard-worker counts 1 and 7 on
//! both annotation engines; every reported metric must be bit-for-bit
//! equal, and the engines must agree with each other. The CI determinism
//! job additionally byte-diffs whole `repro sharded` dumps under
//! `KG_EVAL_SHARDS=1` and `=4`.

use kg_annotate::cost::CostModel;
use kg_annotate::lease::DenseArenaPool;
use kg_annotate::oracle::RemOracle;
use kg_bench::throughput::synthetic_sizes;
use kg_eval::framework::Evaluator;
use kg_eval::sharded::{ShardDesign, ShardReplayReport, ShardedReplay};
use kg_sampling::PopulationIndex;
use std::sync::Arc;

/// Every replay metric with float fields as exact bits.
fn bits(r: &ShardReplayReport) -> (u64, u64, u64, u64, u64, u64, u64, u64, u64) {
    (
        r.estimate.mean.to_bits(),
        r.estimate.var_of_mean.to_bits(),
        r.estimate.units as u64,
        r.accuracies.sample_std().to_bits(),
        r.cost_seconds.to_bits(),
        r.labeled,
        r.correct,
        r.entities,
        r.shards,
    )
}

#[test]
fn sharded_replays_are_bitwise_equal_at_1_and_7_shard_workers_on_both_engines() {
    let sizes = synthetic_sizes(100_000);
    let oracle = RemOracle::new(0.9, 20190923);
    let idx = Arc::new(PopulationIndex::from_sizes(sizes).expect("non-empty KG"));
    let store = Arc::new(idx.materialize_labels(&oracle));
    let pool = DenseArenaPool::new(store, CostModel::default());
    let units = 5_000u64;
    let trial_seed = 0x5ead;
    let one = ShardedReplay::new().with_shard_workers(1);
    let seven = ShardedReplay::new().with_shard_workers(7);

    for evaluator in [Evaluator::wcs(), Evaluator::twcs(5)] {
        let design = ShardDesign::from_design(evaluator.design()).expect("WCS/TWCS are shardable");
        let hash = |replay: &ShardedReplay| {
            replay.replay_hash(
                design,
                &idx,
                &oracle,
                CostModel::default(),
                units,
                trial_seed,
            )
        };
        // Hash engine.
        let h1 = hash(&one);
        let h7 = hash(&seven);
        assert_eq!(
            bits(&h1),
            bits(&h7),
            "{}: hash engine drifted with shard workers",
            h1.design
        );
        assert_eq!(h1.units, units);
        assert_eq!(h1.accuracies.count(), units);
        assert!((h1.estimate.mean - 0.9).abs() < 0.03);

        // Dense engine, arenas batch-leased from one shared pool.
        let d1 = one.replay_dense(design, &idx, &pool, units, trial_seed);
        let d7 = seven.replay_dense(design, &idx, &pool, units, trial_seed);
        assert_eq!(
            bits(&d1),
            bits(&d7),
            "{}: dense engine drifted with shard workers",
            d1.design
        );

        // And the engines agree with each other, bit for bit.
        assert_eq!(
            bits(&h1),
            bits(&d1),
            "{}: hash and dense engines disagree",
            h1.design
        );
    }
    assert!(
        pool.arenas_built() <= 8,
        "arenas must be batch-leased per worker, not per shard (built {})",
        pool.arenas_built()
    );
}

#[test]
fn unshardable_designs_decline_rather_than_drift() {
    for evaluator in [
        Evaluator::srs(),
        Evaluator::rcs(),
        Evaluator::twcs_size_stratified(5, 3),
    ] {
        assert!(
            ShardDesign::from_design(evaluator.design()).is_none(),
            "{:?} must not pretend to shard",
            evaluator.design()
        );
    }
}
