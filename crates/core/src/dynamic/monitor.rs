//! Continuous accuracy monitoring over a sequence of KG updates (§7.3.2).
//!
//! Drives any [`IncrementalEvaluator`] over a stream of update batches,
//! recording the per-batch estimate, MoE, and the *incremental* annotation
//! cost of absorbing each batch — the data behind Fig. 9.
//!
//! The monitor is engine-agnostic: each `apply_update` announces its batch
//! to the annotator (see [`IncrementalEvaluator`]), so the same sequence
//! runs unchanged over the hash `SimulatedAnnotator` or a growable
//! `DenseAnnotator` — the evolving-KG benchmark (`bench-report --churn`)
//! replays identical streams under both.

use crate::dynamic::IncrementalEvaluator;
use crate::executor::TrialExecutor;
use crate::sharded::{replay_hash, ShardDesign, ShardReplayReport};
use kg_annotate::annotator::Annotator;
use kg_annotate::cost::CostModel;
use kg_annotate::oracle::LabelOracle;
use kg_model::implicit::ClusterPopulation;
use kg_model::retract::KgEvent;
use kg_model::update::UpdateBatch;
use kg_sampling::PopulationIndex;
use kg_stats::error::StatsError;
use kg_stats::{PointEstimate, RunningMoments};
use rand::RngCore;

/// Per-batch monitoring record.
#[derive(Debug, Clone, Copy)]
pub struct BatchOutcome {
    /// 1-based index of the update batch.
    pub batch: usize,
    /// Estimate of `μ(G + Δ_1 + … + Δ_batch)` after absorbing the batch.
    pub estimate: PointEstimate,
    /// Achieved MoE at the monitor's α.
    pub moe: f64,
    /// Human seconds spent absorbing *this* batch.
    pub batch_cost_seconds: f64,
    /// Cumulative human seconds since monitoring began.
    pub cumulative_cost_seconds: f64,
    /// Whether the evaluator's sampling design had left its exactness
    /// regime when this estimate was produced (see
    /// [`IncrementalEvaluator::saturated`]) — `true` flags the estimate as
    /// potentially biased rather than merely wide.
    pub saturated: bool,
}

/// Apply a sequence of update batches to an incremental evaluator,
/// recording one [`BatchOutcome`] per batch.
pub fn run_sequence(
    evaluator: &mut dyn IncrementalEvaluator,
    batches: &[UpdateBatch],
    alpha: f64,
    annotator: &mut dyn Annotator,
    rng: &mut dyn RngCore,
) -> Vec<BatchOutcome> {
    record_outcomes(
        evaluator,
        batches,
        alpha,
        annotator,
        rng,
        |ev, delta, ann, rng| ev.apply_update(delta, ann, rng),
    )
}

/// Apply a churny event sequence — interleaved insertions, retractions,
/// and revisions — to an incremental evaluator, recording one
/// [`BatchOutcome`] per event.
///
/// Each event yields exactly one estimate (a revision's retraction and
/// insertion count as one event, per [`IncrementalEvaluator::apply_event`])
/// and the cost bookkeeping is identical to [`run_sequence`]: retraction
/// itself is sunk-cost-free, so an event's `batch_cost_seconds` reflects
/// only the re-annotation and top-up work it triggered.
pub fn run_event_sequence(
    evaluator: &mut dyn IncrementalEvaluator,
    events: &[KgEvent],
    alpha: f64,
    annotator: &mut dyn Annotator,
    rng: &mut dyn RngCore,
) -> Vec<BatchOutcome> {
    record_outcomes(
        evaluator,
        events,
        alpha,
        annotator,
        rng,
        |ev, event, ann, rng| ev.apply_event(event, ann, rng),
    )
}

/// The bookkeeping both sequence drivers share: apply each step, then
/// record its estimate, MoE, and the annotation seconds it cost.
fn record_outcomes<T>(
    evaluator: &mut dyn IncrementalEvaluator,
    steps: &[T],
    alpha: f64,
    annotator: &mut dyn Annotator,
    rng: &mut dyn RngCore,
    mut apply: impl FnMut(
        &mut dyn IncrementalEvaluator,
        &T,
        &mut dyn Annotator,
        &mut dyn RngCore,
    ) -> PointEstimate,
) -> Vec<BatchOutcome> {
    let mut outcomes = Vec::with_capacity(steps.len());
    let mut prev_cost = annotator.seconds();
    for (i, step) in steps.iter().enumerate() {
        let estimate = apply(evaluator, step, annotator, rng);
        let now = annotator.seconds();
        outcomes.push(BatchOutcome {
            batch: i + 1,
            estimate,
            moe: estimate.moe(alpha).expect("valid alpha"),
            batch_cost_seconds: now - prev_cost,
            cumulative_cost_seconds: now,
            saturated: evaluator.saturated(),
        });
        prev_cost = now;
    }
    outcomes
}

/// On-demand sharded audit of the *current* evolving population: build a
/// point-in-time PPS index over `pop` and run one fixed-size sharded
/// replay on it (see [`crate::sharded`]).
///
/// The incremental evaluators above amortize annotation across the update
/// stream; their estimates track the stream cheaply but at reservoir
/// fidelity. When a checkpoint needs a *full-fidelity* snapshot estimate —
/// an audit between batches — that is one large replay, exactly the shape
/// intra-trial sharding accelerates. `exec` fans the shards out: latency
/// scales with its worker count while the report stays bitwise invariant
/// to it.
pub fn audit_sharded<P: ClusterPopulation + ?Sized>(
    pop: &P,
    design: ShardDesign,
    oracle: &dyn LabelOracle,
    cost: CostModel,
    exec: &TrialExecutor,
    units: u64,
    seed: u64,
) -> Result<ShardReplayReport, StatsError> {
    let index = PopulationIndex::from_population(pop)?;
    Ok(replay_hash(exec, design, &index, oracle, cost, units, seed))
}

/// Trial-aggregated outcome of one update batch position, from
/// [`run_sequence_trials`].
#[derive(Debug, Clone)]
pub struct BatchTrialStats {
    /// 1-based index of the update batch.
    pub batch: usize,
    /// Post-batch accuracy estimates across trials.
    pub estimate: RunningMoments,
    /// Achieved MoE across trials.
    pub moe: RunningMoments,
    /// Human seconds spent absorbing this batch, across trials.
    pub batch_cost_seconds: RunningMoments,
}

/// Per-batch trial fan-out for the §6 incremental evaluators: replay the
/// same update stream under `trials` counter-based seeds on the
/// [`TrialExecutor`] and aggregate each batch position's estimate, MoE,
/// and incremental cost — bitwise identical at any worker count.
///
/// `replay` receives the trial seed and must return exactly one
/// [`BatchOutcome`] per update batch (build the evaluator + annotator of
/// your choice inside and drive [`run_sequence`]); it is how both RS and
/// SS — and both annotation engines — share one fan-out path.
pub fn run_sequence_trials<F>(
    exec: &TrialExecutor,
    trials: u64,
    base_seed: u64,
    num_batches: usize,
    replay: F,
) -> Vec<BatchTrialStats>
where
    F: Fn(u64) -> Vec<BatchOutcome> + Sync,
{
    let stats = exec.run(trials, base_seed, 3 * num_batches, |seed| {
        let outcomes = replay(seed);
        assert_eq!(
            outcomes.len(),
            num_batches,
            "replay must produce one outcome per update batch"
        );
        let mut v = Vec::with_capacity(3 * num_batches);
        for o in &outcomes {
            v.push(o.estimate.mean);
            v.push(o.moe);
            v.push(o.batch_cost_seconds);
        }
        v
    });
    (0..num_batches)
        .map(|k| BatchTrialStats {
            batch: k + 1,
            estimate: stats[3 * k],
            moe: stats[3 * k + 1],
            batch_cost_seconds: stats[3 * k + 2],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EvalConfig;
    use crate::dynamic::reservoir::ReservoirEvaluator;
    use crate::dynamic::stratified::StratifiedIncremental;
    use kg_annotate::annotator::SimulatedAnnotator;
    use kg_annotate::cost::CostModel;
    use kg_annotate::oracle::RemOracle;
    use kg_model::implicit::ImplicitKg;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn monitors_rs_over_a_sequence() {
        let base = ImplicitKg::new(vec![4; 1000]).unwrap();
        let oracle = RemOracle::new(0.9, 1);
        let mut annotator = SimulatedAnnotator::new(&oracle, CostModel::default());
        let mut rng = StdRng::seed_from_u64(1);
        let mut rs = ReservoirEvaluator::evaluate_base(
            &base,
            60,
            5,
            EvalConfig::default(),
            &mut annotator,
            &mut rng,
        );
        let batches: Vec<UpdateBatch> = (0..5)
            .map(|_| UpdateBatch::from_sizes(vec![4; 100]).unwrap())
            .collect();
        let outcomes = run_sequence(&mut rs, &batches, 0.05, &mut annotator, &mut rng);
        assert_eq!(outcomes.len(), 5);
        for (i, o) in outcomes.iter().enumerate() {
            assert_eq!(o.batch, i + 1);
            assert!(o.moe <= 0.05 + 1e-9, "batch {} moe {}", o.batch, o.moe);
            assert!((o.estimate.mean - 0.9).abs() < 0.08);
            assert!(o.batch_cost_seconds >= 0.0);
        }
        // Cumulative cost is monotone.
        assert!(outcomes
            .windows(2)
            .all(|w| w[0].cumulative_cost_seconds <= w[1].cumulative_cost_seconds));
    }

    #[test]
    fn dense_engine_drives_the_monitor_byte_identically() {
        use kg_annotate::annotator::Annotator;
        use kg_annotate::dense::DenseAnnotator;
        use kg_annotate::label_store::LabelStore;
        use std::sync::Arc;

        let base = ImplicitKg::new(vec![4; 500]).unwrap();
        let oracle = RemOracle::new(0.85, 7);
        let batches: Vec<UpdateBatch> = (0..4)
            .map(|i| UpdateBatch::from_sizes(vec![3 + (i % 2); 60]).unwrap())
            .collect();

        let run = |annotator: &mut dyn Annotator| {
            let mut rng = StdRng::seed_from_u64(11);
            let mut rs = ReservoirEvaluator::evaluate_base(
                &base,
                50,
                5,
                EvalConfig::default(),
                annotator,
                &mut rng,
            );
            run_sequence(&mut rs, &batches, 0.05, annotator, &mut rng)
        };

        let mut hash = SimulatedAnnotator::new(&oracle, CostModel::default());
        let hash_out = run(&mut hash);

        let store = Arc::new(LabelStore::materialize(&base, &oracle));
        let mut dense = DenseAnnotator::growable(store, CostModel::default(), Arc::new(oracle));
        let dense_out = run(&mut dense);

        assert_eq!(hash_out.len(), dense_out.len());
        for (h, d) in hash_out.iter().zip(&dense_out) {
            assert_eq!(h.estimate.mean.to_bits(), d.estimate.mean.to_bits());
            assert_eq!(
                h.estimate.var_of_mean.to_bits(),
                d.estimate.var_of_mean.to_bits()
            );
            assert_eq!(
                h.cumulative_cost_seconds.to_bits(),
                d.cumulative_cost_seconds.to_bits()
            );
        }
        assert_eq!(hash.seconds().to_bits(), dense.seconds().to_bits());
        assert_eq!(hash.triples_annotated(), dense.triples_annotated());
    }

    #[test]
    fn churny_event_sequences_are_engine_identical() {
        use kg_annotate::annotator::Annotator;
        use kg_annotate::dense::DenseAnnotator;
        use kg_annotate::label_store::LabelStore;
        use kg_model::retract::{KgEvent, Retraction};
        use std::sync::Arc;

        let base = ImplicitKg::new(vec![4; 500]).unwrap();
        let oracle = RemOracle::new(0.85, 29);
        // Interleaved churn: a pure insert, a pure retraction (full + partial
        // kills), a revision, and a trailing insert. Every retraction
        // addresses raw (insertion-time) offsets of distinct live triples.
        let events = vec![
            KgEvent::Insert(UpdateBatch::from_sizes(vec![3; 60]).unwrap()),
            KgEvent::Retract(
                Retraction::new(vec![
                    (2, vec![0, 1, 2, 3]), // base cluster, fully dead
                    (5, vec![1, 3]),       // base cluster, half dead
                    (500, vec![0, 1, 2]),  // delta cluster, fully dead
                ])
                .unwrap(),
            ),
            KgEvent::Revise(
                Retraction::new(vec![(7, vec![0]), (501, vec![2])]).unwrap(),
                UpdateBatch::from_sizes(vec![4; 40]).unwrap(),
            ),
            KgEvent::Insert(UpdateBatch::from_sizes(vec![2; 50]).unwrap()),
        ];

        let run = |annotator: &mut dyn Annotator| {
            let mut rng = StdRng::seed_from_u64(31);
            let mut rs = ReservoirEvaluator::evaluate_base(
                &base,
                50,
                5,
                EvalConfig::default(),
                annotator,
                &mut rng,
            );
            run_event_sequence(&mut rs, &events, 0.05, annotator, &mut rng)
        };

        let mut hash = SimulatedAnnotator::new(&oracle, CostModel::default());
        let hash_out = run(&mut hash);

        let store = Arc::new(LabelStore::materialize(&base, &oracle));
        let mut dense = DenseAnnotator::growable(store, CostModel::default(), Arc::new(oracle));
        let dense_out = run(&mut dense);

        assert_eq!(hash_out.len(), dense_out.len());
        for (h, d) in hash_out.iter().zip(&dense_out) {
            assert_eq!(
                h.estimate.mean.to_bits(),
                d.estimate.mean.to_bits(),
                "event {} estimate diverged across engines",
                h.batch
            );
            assert_eq!(
                h.estimate.var_of_mean.to_bits(),
                d.estimate.var_of_mean.to_bits()
            );
            assert_eq!(h.estimate.units, d.estimate.units);
            assert_eq!(h.moe.to_bits(), d.moe.to_bits());
            assert_eq!(
                h.cumulative_cost_seconds.to_bits(),
                d.cumulative_cost_seconds.to_bits()
            );
        }
        assert_eq!(hash.seconds().to_bits(), dense.seconds().to_bits());
        assert_eq!(hash.triples_annotated(), dense.triples_annotated());
    }

    #[test]
    fn per_batch_trial_fanout_is_worker_invariant_for_both_evaluators() {
        use crate::executor::TrialExecutor;

        let base = ImplicitKg::new(vec![4; 400]).unwrap();
        let oracle = RemOracle::new(0.9, 5);
        let batches: Vec<UpdateBatch> = (0..3)
            .map(|_| UpdateBatch::from_sizes(vec![4; 50]).unwrap())
            .collect();
        for evaluator in ["RS", "SS"] {
            let replay = |trial_seed: u64| {
                let mut annotator = SimulatedAnnotator::new(&oracle, CostModel::default());
                let mut rng = StdRng::seed_from_u64(trial_seed);
                match evaluator {
                    "RS" => {
                        let mut rs = ReservoirEvaluator::evaluate_base(
                            &base,
                            40,
                            5,
                            EvalConfig::default(),
                            &mut annotator,
                            &mut rng,
                        );
                        run_sequence(&mut rs, &batches, 0.05, &mut annotator, &mut rng)
                    }
                    _ => {
                        let est = kg_stats::PointEstimate::new(0.9, 0.0004, 60).unwrap();
                        let mut ss =
                            StratifiedIncremental::from_base(&base, est, 5, EvalConfig::default());
                        run_sequence(&mut ss, &batches, 0.05, &mut annotator, &mut rng)
                    }
                }
            };
            let one = run_sequence_trials(
                &TrialExecutor::new().with_workers(1),
                10,
                17,
                batches.len(),
                replay,
            );
            let many = run_sequence_trials(
                &TrialExecutor::new().with_workers(4),
                10,
                17,
                batches.len(),
                replay,
            );
            assert_eq!(one.len(), 3);
            for (a, b) in one.iter().zip(&many) {
                assert_eq!(a.batch, b.batch);
                assert_eq!(a.estimate.mean().to_bits(), b.estimate.mean().to_bits());
                assert_eq!(
                    a.estimate.sample_std().to_bits(),
                    b.estimate.sample_std().to_bits()
                );
                assert_eq!(a.moe.mean().to_bits(), b.moe.mean().to_bits());
                assert_eq!(
                    a.batch_cost_seconds.mean().to_bits(),
                    b.batch_cost_seconds.mean().to_bits()
                );
                assert_eq!(a.estimate.count(), 10);
                assert!((a.estimate.mean() - 0.9).abs() < 0.08, "{evaluator}");
            }
        }
    }

    #[test]
    fn churny_trial_fanout_is_worker_invariant() {
        use crate::executor::TrialExecutor;
        use kg_model::retract::{KgEvent, Retraction};

        let base = ImplicitKg::new(vec![4; 400]).unwrap();
        let oracle = RemOracle::new(0.9, 19);
        let events = vec![
            KgEvent::Insert(UpdateBatch::from_sizes(vec![4; 50]).unwrap()),
            KgEvent::Revise(
                Retraction::new(vec![(1, vec![0, 2]), (400, vec![0, 1, 2, 3])]).unwrap(),
                UpdateBatch::from_sizes(vec![3; 40]).unwrap(),
            ),
            KgEvent::Retract(Retraction::new(vec![(9, vec![1]), (402, vec![0])]).unwrap()),
        ];
        let replay = |trial_seed: u64| {
            let mut annotator = SimulatedAnnotator::new(&oracle, CostModel::default());
            let mut rng = StdRng::seed_from_u64(trial_seed);
            let mut rs = ReservoirEvaluator::evaluate_base(
                &base,
                40,
                5,
                EvalConfig::default(),
                &mut annotator,
                &mut rng,
            );
            run_event_sequence(&mut rs, &events, 0.05, &mut annotator, &mut rng)
        };
        let one = run_sequence_trials(
            &TrialExecutor::new().with_workers(1),
            10,
            29,
            events.len(),
            replay,
        );
        let many = run_sequence_trials(
            &TrialExecutor::new().with_workers(4),
            10,
            29,
            events.len(),
            replay,
        );
        assert_eq!(one.len(), events.len());
        for (a, b) in one.iter().zip(&many) {
            assert_eq!(a.estimate.mean().to_bits(), b.estimate.mean().to_bits());
            assert_eq!(a.moe.mean().to_bits(), b.moe.mean().to_bits());
            assert_eq!(
                a.batch_cost_seconds.mean().to_bits(),
                b.batch_cost_seconds.mean().to_bits()
            );
        }
    }

    #[test]
    fn sharded_audit_snapshots_the_evolved_population() {
        let mut kg = ImplicitKg::new((0..700).map(|i| 1 + (i % 11)).collect()).unwrap();
        for _ in 0..3 {
            let (next, _) = UpdateBatch::from_sizes(vec![5; 80]).unwrap().apply_to(&kg);
            kg = next;
        }
        let oracle = RemOracle::new(0.9, 3);
        let audit = |workers| {
            audit_sharded(
                &kg,
                ShardDesign::TwoStage { m: 4 },
                &oracle,
                CostModel::default(),
                &TrialExecutor::new().with_workers(workers),
                1200,
                0xA0D1,
            )
            .unwrap()
        };
        let one = audit(1);
        let many = audit(6);
        assert_eq!(one.units, 1200);
        assert!((one.estimate.mean - 0.9).abs() < 0.05);
        assert_eq!(one.estimate.mean.to_bits(), many.estimate.mean.to_bits());
        assert_eq!(one.cost_seconds.to_bits(), many.cost_seconds.to_bits());
        assert_eq!(one.labeled, many.labeled);
    }

    #[test]
    fn monitors_ss_and_costs_less_than_reannotation() {
        let base = ImplicitKg::new(vec![4; 1000]).unwrap();
        let oracle = RemOracle::new(0.9, 2);
        let mut annotator = SimulatedAnnotator::new(&oracle, CostModel::default());
        let mut rng = StdRng::seed_from_u64(2);
        let base_est = kg_stats::PointEstimate::new(0.9, 0.0004, 60).unwrap();
        let mut ss = StratifiedIncremental::from_base(&base, base_est, 5, EvalConfig::default());
        let batches: Vec<UpdateBatch> = (0..5)
            .map(|_| UpdateBatch::from_sizes(vec![4; 100]).unwrap())
            .collect();
        let outcomes = run_sequence(&mut ss, &batches, 0.05, &mut annotator, &mut rng);
        assert_eq!(outcomes.len(), 5);
        let total_hours = outcomes.last().unwrap().cumulative_cost_seconds / 3600.0;
        // Five 10%-updates should cost far less than five static runs
        // (≈ 30+ clusters × (45 + 5·25) s each ≈ 1.4 h each).
        assert!(total_hours < 3.0, "total {total_hours} h");
    }
}
