//! Regression: intra-trial sharded replay is **bitwise independent of the
//! worker count** and **bit-stable across commits** — the shard partition
//! is a pure function of the visit count, shard substreams are
//! counter-keyed, and per-shard aggregates merge in a fixed-shape tree, so
//! the executor's worker count is purely an operational knob.
//!
//! The same seeded replays (a 10^5-triple long-tail synthetic KG, fixed
//! WCS / TWCS visit counts) run at forced worker counts 1 and 7 on both
//! annotation engines; every reported metric must be bit-for-bit equal,
//! the engines must agree with each other, and both must match golden
//! bits recorded from the replay's own thread pool before it moved onto
//! `TrialExecutor`. The CI determinism job additionally runs this suite
//! under `KG_EVAL_WORKERS=1` and `=4`, and byte-diffs whole `repro
//! sharded` dumps across the two.

use kg_annotate::cost::CostModel;
use kg_annotate::lease::DenseArenaPool;
use kg_annotate::oracle::RemOracle;
use kg_bench::throughput::synthetic_sizes;
use kg_eval::config::EvalConfig;
use kg_eval::executor::TrialExecutor;
use kg_eval::framework::Evaluator;
use kg_eval::session::{EvaluatorKind, SessionRegistry, SessionSpec};
use kg_eval::sharded::{replay_dense, replay_hash, ShardDesign, ShardReplayReport};
use kg_model::retract::{KgEvent, Retraction};
use kg_model::update::UpdateBatch;
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

/// The pinned fields, in [`GOLDEN`] column order: bits of `mean`,
/// `var_of_mean`, `sample_std` and `cost_seconds`, then `labeled`,
/// `correct`, `entities` and `shards`.
fn golden_bits(r: &ShardReplayReport) -> [u64; 8] {
    [
        r.estimate.mean.to_bits(),
        r.estimate.var_of_mean.to_bits(),
        r.accuracies.sample_std().to_bits(),
        r.cost_seconds.to_bits(),
        r.labeled,
        r.correct,
        r.entities,
        r.shards,
    ]
}

/// Golden replays on [`index_and_oracle`]'s KG at trial seed `0x5ead`:
/// (design, visits, [`golden_bits`]). 200 visits is one shard, 4,097 is
/// 17 (an odd merge tree), 5,000 is 20.
const GOLDEN: [(ShardDesign, u64, [u64; 8]); 8] = [
    (
        ShardDesign::FullCluster,
        0,
        [0, 0x3ff0000000000000, 0, 0, 0, 0, 0, 0],
    ),
    (
        ShardDesign::FullCluster,
        200,
        [
            0x3fecb8d939cb777a,
            0x3f118cb5f7b3270f,
            0x3fbd9f512e11bf8b,
            0x40fd8f8000000000,
            4485,
            4144,
            199,
            1,
        ],
    ),
    (
        ShardDesign::FullCluster,
        4097,
        [
            0x3fecc1a4880775fd,
            0x3ec6fafb10648e96,
            0x3fbb1efe107e85c9,
            0x41436fd700000000,
            94788,
            96077,
            3954,
            17,
        ],
    ),
    (
        ShardDesign::FullCluster,
        5000,
        [
            0x3fecc2cab6387a36,
            0x3ec2fbb96aa78f83,
            0x3fbb3b2c19f97872,
            0x414809d180000000,
            117338,
            118821,
            4829,
            20,
        ],
    ),
    (
        ShardDesign::TwoStage { m: 5 },
        0,
        [0, 0x3ff0000000000000, 0, 0, 0, 0, 0, 0],
    ),
    (
        ShardDesign::TwoStage { m: 5 },
        200,
        [
            0x3fec7a32846ff511,
            0x3f1a775b5509aa3b,
            0x3fc0cea95a4ccc49,
            0x40e0252000000000,
            968,
            865,
            197,
            1,
        ],
    ),
    (
        ShardDesign::TwoStage { m: 5 },
        4097,
        [
            0x3fecbc232cbc232c,
            0x3ed4fc928a30727e,
            0x3fc253a24b2a3e20,
            0x41245c4e00000000,
            19541,
            17690,
            3970,
            17,
        ],
    ),
    (
        ShardDesign::TwoStage { m: 5 },
        5000,
        [
            0x3fecc58953420e08,
            0x3ed0ec139ff097e1,
            0x3fc22e125a47921c,
            0x4128da4400000000,
            23852,
            21610,
            4846,
            20,
        ],
    ),
];

/// Golden served audit: 1,500 visits at seed `0xA0D1` of the session
/// [`served_audit`] builds (inserts, retractions and a revision).
const GOLDEN_SERVED: [u64; 8] = [
    0x3fec8afdadce9330,
    0x3eef9a2c5768b044,
    0x3fc33e830cb66ec1,
    0x4106224000000000,
    5253,
    5971,
    1111,
    6,
];

/// A 10^5-triple long-tail synthetic KG and its 90%-accurate oracle.
fn index_and_oracle() -> (PopulationIndex, RemOracle) {
    let sizes = synthetic_sizes(100_000);
    let oracle = RemOracle::new(0.9, 20190923);
    let idx = PopulationIndex::from_sizes(sizes).expect("non-empty KG");
    (idx, oracle)
}

#[test]
fn sharded_replays_are_bitwise_equal_at_1_and_7_shard_workers_on_both_engines() {
    let (idx, oracle) = index_and_oracle();
    let idx = Arc::new(idx);
    let store = Arc::new(idx.materialize_labels(&oracle));
    let pool = DenseArenaPool::new(store, CostModel::default());
    let units = 5_000u64;
    let trial_seed = 0x5ead;
    let one = TrialExecutor::new().with_workers(1);
    let seven = TrialExecutor::new().with_workers(7);

    for evaluator in [Evaluator::wcs(), Evaluator::twcs(5)] {
        let design = ShardDesign::from_design(evaluator.design()).expect("WCS/TWCS are shardable");
        let hash = |exec: &TrialExecutor| {
            replay_hash(
                exec,
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
            "{}: hash engine drifted with workers",
            h1.design
        );
        assert_eq!(h1.units, units);
        assert_eq!(h1.accuracies.count(), units);
        assert!((h1.estimate.mean - 0.9).abs() < 0.03);

        // Dense engine, arenas leased per worker from one shared pool.
        let d1 = replay_dense(&one, design, &idx, &pool, units, trial_seed);
        let d7 = replay_dense(&seven, design, &idx, &pool, units, trial_seed);
        assert_eq!(
            bits(&d1),
            bits(&d7),
            "{}: dense engine drifted with workers",
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
        "arenas must be leased per worker, not per shard (built {})",
        pool.arenas_built()
    );
}

#[test]
fn sharded_replays_match_golden_bits_on_both_engines() {
    let (idx, oracle) = index_and_oracle();
    let store = Arc::new(idx.materialize_labels(&oracle));
    let pool = DenseArenaPool::new(store, CostModel::default());
    for (design, units, want) in GOLDEN {
        for workers in [1, 7] {
            let exec = TrialExecutor::new().with_workers(workers);
            let hash = replay_hash(
                &exec,
                design,
                &idx,
                &oracle,
                CostModel::default(),
                units,
                0x5ead,
            );
            let dense = replay_dense(&exec, design, &idx, &pool, units, 0x5ead);
            assert_eq!(
                golden_bits(&hash),
                want,
                "{design:?} hash, {units} units, {workers} workers"
            );
            assert_eq!(
                golden_bits(&dense),
                want,
                "{design:?} dense, {units} units, {workers} workers"
            );
        }
    }
}

/// A served audit on a churned session: inserts, retractions inside base
/// and inserted clusters, and a revision, on a registry whose executor
/// has `workers` workers.
fn served_audit(workers: usize) -> ShardReplayReport {
    let spec = SessionSpec {
        kind: EvaluatorKind::Reservoir { capacity: 60 },
        m: 5,
        config: EvalConfig::default(),
        seed: 20190923,
        oracle_accuracy: 0.9,
        oracle_seed: 11,
        base_sizes: (0..400).map(|i| 1 + (i % 9)).collect(),
    };
    let events = vec![
        KgEvent::Insert(UpdateBatch::from_sizes(vec![3; 60]).expect("sizes")),
        KgEvent::Retract(
            Retraction::new(vec![(2, vec![0]), (401, vec![1, 2])]).expect("retraction"),
        ),
        KgEvent::Revise(
            Retraction::new(vec![(405, vec![0, 1, 2])]).expect("retraction"),
            UpdateBatch::from_sizes(vec![5; 30]).expect("sizes"),
        ),
        KgEvent::Retract(Retraction::new(vec![(7, vec![0]), (436, vec![0])]).expect("retraction")),
    ];
    let registry = SessionRegistry::with_executor(TrialExecutor::new().with_workers(workers));
    let id = registry.register(spec).expect("valid spec");
    registry.apply_events(id, &events).expect("valid events");
    registry.audit(id, 1_500, 0xA0D1).expect("audit")
}

#[test]
fn served_audit_of_a_churned_session_matches_golden_bits() {
    for workers in [1, 7] {
        assert_eq!(
            golden_bits(&served_audit(workers)),
            GOLDEN_SERVED,
            "{workers} workers"
        );
    }
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
