//! Regression: parallel trial aggregation is **bitwise independent of the
//! worker count** — the contract the old `run_trials` documented but broke
//! by merging per-thread accumulators in chunk order.
//!
//! The same seeded workload (a 10^5-triple long-tail synthetic KG,
//! iterative TWCS evaluation) runs at forced worker counts 1 and 7 on
//! both annotation engines; every aggregated metric's mean, sample std,
//! and count must be bit-for-bit equal. The CI determinism job replays the
//! tier-1 suite (this test included) under `KG_EVAL_WORKERS=1` and `=4`
//! and additionally diffs whole `repro` metric dumps across worker counts.

use kg_annotate::annotator::SimulatedAnnotator;
use kg_annotate::cost::CostModel;
use kg_annotate::lease::DenseArenaPool;
use kg_annotate::oracle::RemOracle;
use kg_bench::throughput::synthetic_sizes;
use kg_eval::config::EvalConfig;
use kg_eval::executor::{run_trials, TrialExecutor};
use kg_eval::framework::{Evaluator, TrialAggregate};
use kg_sampling::PopulationIndex;
use kg_stats::RunningMoments;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Every metric as (mean bits, sample-std bits, count).
fn bits<'a>(stats: impl IntoIterator<Item = &'a RunningMoments>) -> Vec<(u64, u64, u64)> {
    stats
        .into_iter()
        .map(|m| (m.mean().to_bits(), m.sample_std().to_bits(), m.count()))
        .collect()
}

/// Every aggregate metric, in `TrialAggregate` field order.
fn aggregate_bits(a: &TrialAggregate) -> Vec<(u64, u64, u64)> {
    bits([
        &a.estimate,
        &a.moe,
        &a.cost_seconds,
        &a.units,
        &a.triples_annotated,
        &a.entities_identified,
        &a.converged,
    ])
}

#[test]
fn trial_aggregates_are_bitwise_equal_at_1_and_7_workers_on_both_engines() {
    let sizes = synthetic_sizes(100_000);
    let oracle = RemOracle::new(0.9, 20190923);
    let idx = Arc::new(PopulationIndex::from_sizes(sizes).expect("non-empty KG"));
    let config = EvalConfig::default();
    let evaluator = Evaluator::twcs(5);
    let trials = 24u64;
    let base_seed = 0x1ead;
    let one = TrialExecutor::new().with_workers(1);
    let seven = TrialExecutor::new().with_workers(7);

    // Hash engine: each trial by hand on a fresh annotator, in the
    // `TrialAggregate` metric order.
    let hash = |exec: &TrialExecutor| {
        exec.run(trials, base_seed, 7, |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut ann = SimulatedAnnotator::new(&oracle, CostModel::default());
            let r = evaluator
                .run_with_annotator(idx.clone(), &oracle, &mut ann, &config, &mut rng)
                .expect("prebuilt index");
            vec![
                r.estimate.mean,
                r.moe,
                r.cost_seconds,
                r.units as f64,
                r.triples_annotated as f64,
                r.entities_identified as f64,
                r.converged as u64 as f64,
            ]
        })
    };
    let h1 = hash(&one);
    let h7 = hash(&seven);
    assert_eq!(bits(&h1), bits(&h7), "hash engine drifted with workers");
    assert_eq!(h1[0].count(), trials);
    assert_eq!(h1[6].mean(), 1.0);
    assert!((h1[0].mean() - 0.9).abs() < 0.03);

    // Dense engine, arenas leased per worker from one shared pool.
    let store = Arc::new(idx.materialize_labels(&oracle));
    let pool = DenseArenaPool::new(store, CostModel::default());
    let d1 = evaluator.run_trials(&idx, &oracle, &pool, &config, &one, trials, base_seed);
    let d7 = evaluator.run_trials(&idx, &oracle, &pool, &config, &seven, trials, base_seed);
    assert_eq!(
        aggregate_bits(&d1),
        aggregate_bits(&d7),
        "dense engine drifted with workers"
    );

    // And the engines agree with each other, bit for bit.
    assert_eq!(
        bits(&h1),
        aggregate_bits(&d1),
        "hash and dense engines disagree"
    );
    assert!(
        pool.arenas_built() <= 8,
        "arenas must be per worker, not per trial (built {})",
        pool.arenas_built()
    );
}

#[test]
fn free_function_fanout_is_worker_invariant_for_arbitrary_metrics() {
    // The drop-in `run_trials` free function (what every fig/table harness
    // calls) honors the same contract for any metric closure.
    let f = |seed: u64| {
        let x = (seed as f64).sqrt() + 1.0;
        vec![x.ln(), x.recip(), (seed % 13) as f64]
    };
    let reference = TrialExecutor::new().with_workers(1).run(100, 7, 3, f);
    let defaulted = run_trials(100, 7, 3, f);
    let forced = TrialExecutor::new().with_workers(7).run(100, 7, 3, f);
    for (a, b) in reference.iter().zip(&forced) {
        assert_eq!(a.mean().to_bits(), b.mean().to_bits());
        assert_eq!(a.sample_std().to_bits(), b.sample_std().to_bits());
        assert_eq!(a.count(), b.count());
    }
    for (a, b) in reference.iter().zip(&defaulted) {
        assert_eq!(a.mean().to_bits(), b.mean().to_bits());
        assert_eq!(a.sample_std().to_bits(), b.sample_std().to_bits());
    }
}
