//! One-call façade over the static evaluation loop, plus its parallel
//! repeated-trial fan-out on the [`TrialExecutor`].

use crate::config::EvalConfig;
use crate::executor::TrialExecutor;
use crate::report::EvaluationReport;
use crate::static_eval::run_static;
use kg_annotate::annotator::{Annotator, SimulatedAnnotator};
use kg_annotate::cost::CostModel;
use kg_annotate::lease::DenseArenaPool;
use kg_annotate::oracle::LabelOracle;
use kg_model::implicit::ClusterPopulation;
use kg_sampling::design::Design;
use kg_sampling::stratified::StratificationStrategy;
use kg_sampling::PopulationIndex;
use kg_stats::error::StatsError;
use kg_stats::RunningMoments;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::sync::Arc;

/// Per-metric aggregates over repeated seeded evaluations, produced by
/// [`Evaluator::run_trials`]. Each field is a [`RunningMoments`] over one
/// [`EvaluationReport`] metric; `converged.mean()` is the convergence rate.
/// Aggregation runs on the [`TrialExecutor`], so every moment is bitwise
/// identical at any worker count.
#[derive(Debug, Clone)]
pub struct TrialAggregate {
    /// Trials executed.
    pub trials: u64,
    /// Accuracy estimates (`estimate.mean` per trial).
    pub estimate: RunningMoments,
    /// Achieved margins of error.
    pub moe: RunningMoments,
    /// Simulated human seconds.
    pub cost_seconds: RunningMoments,
    /// Sampling units drawn.
    pub units: RunningMoments,
    /// Distinct triples annotated.
    pub triples_annotated: RunningMoments,
    /// Distinct entities identified.
    pub entities_identified: RunningMoments,
    /// Convergence indicator (1.0 = converged).
    pub converged: RunningMoments,
}

impl TrialAggregate {
    const METRICS: usize = 7;

    fn metrics_of(report: &EvaluationReport) -> Vec<f64> {
        vec![
            report.estimate.mean,
            report.moe,
            report.cost_seconds,
            report.units as f64,
            report.triples_annotated as f64,
            report.entities_identified as f64,
            report.converged as u64 as f64,
        ]
    }

    fn from_stats(trials: u64, mut stats: Vec<RunningMoments>) -> Self {
        assert_eq!(stats.len(), Self::METRICS);
        let converged = stats.pop().expect("metric count checked");
        let entities_identified = stats.pop().expect("metric count checked");
        let triples_annotated = stats.pop().expect("metric count checked");
        let units = stats.pop().expect("metric count checked");
        let cost_seconds = stats.pop().expect("metric count checked");
        let moe = stats.pop().expect("metric count checked");
        let estimate = stats.pop().expect("metric count checked");
        TrialAggregate {
            trials,
            estimate,
            moe,
            cost_seconds,
            units,
            triples_annotated,
            entities_identified,
            converged,
        }
    }
}

/// Evaluator: a sampling design plus a cost model, runnable against any
/// population + oracle.
#[derive(Debug, Clone)]
pub struct Evaluator {
    design: Design,
    cost: CostModel,
}

impl Evaluator {
    /// Evaluator over an explicit design.
    pub fn new(design: Design) -> Self {
        Evaluator {
            design,
            cost: CostModel::default(),
        }
    }

    /// Simple random sampling (§5.1).
    pub fn srs() -> Self {
        Self::new(Design::Srs)
    }

    /// Random cluster sampling (§5.2.1).
    pub fn rcs() -> Self {
        Self::new(Design::Rcs)
    }

    /// Weighted cluster sampling (§5.2.2).
    pub fn wcs() -> Self {
        Self::new(Design::Wcs)
    }

    /// Two-stage weighted cluster sampling with cap `m` (§5.2.3). The
    /// paper's guideline: `m` in 3–5 is near-optimal across all KGs studied
    /// (§7.2.2).
    pub fn twcs(m: usize) -> Self {
        Self::new(Design::Twcs { m })
    }

    /// TWCS with size stratification (cumulative-√F, §5.3).
    pub fn twcs_size_stratified(m: usize, strata: usize) -> Self {
        Self::new(Design::StratifiedTwcs {
            m,
            strategy: StratificationStrategy::Size { strata },
        })
    }

    /// TWCS with oracle (accuracy) stratification — the Table 7 lower
    /// bound; requires the oracle to reveal expected cluster accuracies.
    pub fn twcs_oracle_stratified(m: usize, strata: usize) -> Self {
        Self::new(Design::StratifiedTwcs {
            m,
            strategy: StratificationStrategy::Oracle { strata },
        })
    }

    /// Replace the cost model (default: the paper's c1=45 s, c2=25 s).
    pub fn with_cost_model(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// The underlying design.
    pub fn design(&self) -> &Design {
        &self.design
    }

    /// Evaluate `pop`'s accuracy against `oracle` until the config's MoE
    /// target is met.
    pub fn run<P: ClusterPopulation + ?Sized>(
        &self,
        pop: &P,
        oracle: &dyn LabelOracle,
        config: &EvalConfig,
        rng: &mut dyn RngCore,
    ) -> Result<EvaluationReport, StatsError> {
        let index = Arc::new(PopulationIndex::from_population(pop)?);
        self.run_with_index(index, oracle, config, rng)
    }

    /// Evaluate over a pre-built (shared) population index — avoids
    /// rebuilding the alias table across experiment trials.
    pub fn run_with_index(
        &self,
        index: Arc<PopulationIndex>,
        oracle: &dyn LabelOracle,
        config: &EvalConfig,
        rng: &mut dyn RngCore,
    ) -> Result<EvaluationReport, StatsError> {
        let mut annotator = SimulatedAnnotator::new(oracle, self.cost);
        self.run_with_annotator(index, oracle, &mut annotator, config, rng)
    }

    /// Evaluate with a caller-supplied annotation engine — this is how the
    /// dense fast path is driven: materialize a `LabelStore` once per KG,
    /// keep one `DenseAnnotator` arena, and `reset()` it between trials
    /// instead of rebuilding hash tables. `oracle` is still consulted for
    /// stratification strategies that rank clusters by accuracy.
    ///
    /// Note the engine carries its own cost model; this evaluator's
    /// [`Evaluator::with_cost_model`] setting applies only to the
    /// annotators it constructs itself.
    pub fn run_with_annotator(
        &self,
        index: Arc<PopulationIndex>,
        oracle: &dyn LabelOracle,
        annotator: &mut dyn Annotator,
        config: &EvalConfig,
        rng: &mut dyn RngCore,
    ) -> Result<EvaluationReport, StatsError> {
        let mut design = self.design.instantiate(index, oracle);
        Ok(run_static(design.as_mut(), annotator, config, rng))
    }

    /// Run `trials` independent seeded evaluations, sharded across the
    /// executor's workers. Each worker leases one reusable dense arena from
    /// `pool` for its whole lifetime and `reset()`s it per trial, so arenas
    /// are built at most once per worker instead of once per trial. Trial
    /// `i` uses the counter-based seed
    /// [`crate::executor::trial_seed`]`(base_seed, i)` for its sampling
    /// RNG, and the aggregates are **bitwise identical at any worker
    /// count**.
    ///
    /// `oracle` is still consulted by stratification strategies that rank
    /// clusters; the leased arenas read labels, and their cost model, from
    /// the pool.
    // One parameter per independent experiment knob; bundling them into a
    // one-off struct would only rename the arity.
    #[allow(clippy::too_many_arguments)]
    pub fn run_trials(
        &self,
        index: &Arc<PopulationIndex>,
        oracle: &dyn LabelOracle,
        pool: &DenseArenaPool,
        config: &EvalConfig,
        exec: &TrialExecutor,
        trials: u64,
        base_seed: u64,
    ) -> TrialAggregate {
        let stats = exec.run_with(
            trials,
            base_seed,
            TrialAggregate::METRICS,
            || pool.checkout(),
            |arena, seed| {
                let mut rng = StdRng::seed_from_u64(seed);
                arena.reset();
                let report = self
                    .run_with_annotator(index.clone(), oracle, arena.arena_mut(), config, &mut rng)
                    .expect("static evaluation over a prebuilt index is infallible");
                TrialAggregate::metrics_of(&report)
            },
        );
        TrialAggregate::from_stats(trials, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kg_annotate::oracle::{true_accuracy, RemOracle};
    use kg_model::implicit::ImplicitKg;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn kg() -> ImplicitKg {
        ImplicitKg::new((0..3000).map(|i| 1 + (i % 15)).collect()).unwrap()
    }

    #[test]
    fn all_designs_converge_and_agree() {
        let kg = kg();
        let oracle = RemOracle::new(0.85, 12);
        let truth = true_accuracy(&kg, &oracle);
        let config = EvalConfig::default();
        for (i, eval) in [
            Evaluator::srs(),
            Evaluator::wcs(),
            Evaluator::twcs(5),
            Evaluator::twcs_size_stratified(5, 3),
            Evaluator::twcs_oracle_stratified(5, 3),
        ]
        .into_iter()
        .enumerate()
        {
            let mut rng = StdRng::seed_from_u64(100 + i as u64);
            let report = eval.run(&kg, &oracle, &config, &mut rng).unwrap();
            assert!(report.converged, "{}", report.summary());
            assert!(
                (report.estimate.mean - truth).abs() < 0.08,
                "{}: {} vs truth {}",
                report.design,
                report.estimate.mean,
                truth
            );
        }
    }

    #[test]
    fn twcs_costs_less_than_srs_on_clustered_kg() {
        // Averaged over seeds, TWCS's entity-identification savings beat
        // SRS on a KG with sizable clusters.
        let kg = kg();
        let oracle = RemOracle::new(0.9, 3);
        let config = EvalConfig::default();
        let mut srs_cost = 0.0;
        let mut twcs_cost = 0.0;
        for seed in 0..20 {
            let mut rng = StdRng::seed_from_u64(seed);
            srs_cost += Evaluator::srs()
                .run(&kg, &oracle, &config, &mut rng)
                .unwrap()
                .cost_seconds;
            let mut rng = StdRng::seed_from_u64(seed + 999);
            twcs_cost += Evaluator::twcs(4)
                .run(&kg, &oracle, &config, &mut rng)
                .unwrap()
                .cost_seconds;
        }
        assert!(
            twcs_cost < srs_cost,
            "TWCS {twcs_cost} should beat SRS {srs_cost}"
        );
    }

    #[test]
    fn custom_cost_model_scales_reported_cost() {
        let kg = kg();
        let oracle = RemOracle::new(0.9, 3);
        let config = EvalConfig::default();
        let mut rng = StdRng::seed_from_u64(5);
        let cheap = Evaluator::twcs(5)
            .with_cost_model(CostModel::new(1.0, 1.0))
            .run(&kg, &oracle, &config, &mut rng)
            .unwrap();
        let expected = cheap.entities_identified as f64 + cheap.triples_annotated as f64;
        assert!((cheap.cost_seconds - expected).abs() < 1e-9);
    }

    #[test]
    fn design_accessor_round_trips() {
        let e = Evaluator::twcs(7);
        match e.design() {
            Design::Twcs { m } => assert_eq!(*m, 7),
            other => panic!("unexpected design {other:?}"),
        }
    }

    fn aggregate_bits(a: &TrialAggregate) -> Vec<(u64, u64, u64)> {
        moments_bits([
            &a.estimate,
            &a.moe,
            &a.cost_seconds,
            &a.units,
            &a.triples_annotated,
            &a.entities_identified,
            &a.converged,
        ])
    }

    fn moments_bits<'a>(
        stats: impl IntoIterator<Item = &'a RunningMoments>,
    ) -> Vec<(u64, u64, u64)> {
        stats
            .into_iter()
            .map(|m| (m.mean().to_bits(), m.sample_std().to_bits(), m.count()))
            .collect()
    }

    /// The hash-engine reference: each trial by hand on a fresh
    /// `SimulatedAnnotator`, aggregated by the same executor reduction.
    fn hash_reference(
        eval: &Evaluator,
        idx: &Arc<PopulationIndex>,
        oracle: &RemOracle,
        config: &EvalConfig,
        exec: &TrialExecutor,
        trials: u64,
        base_seed: u64,
    ) -> Vec<RunningMoments> {
        exec.run(trials, base_seed, TrialAggregate::METRICS, |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut annotator = SimulatedAnnotator::new(oracle, CostModel::default());
            let report = eval
                .run_with_annotator(idx.clone(), oracle, &mut annotator, config, &mut rng)
                .unwrap();
            TrialAggregate::metrics_of(&report)
        })
    }

    #[test]
    fn parallel_trials_match_sequential_replay_and_worker_counts() {
        let kg = kg();
        let oracle = RemOracle::new(0.85, 12);
        let idx = Arc::new(PopulationIndex::from_population(&kg).unwrap());
        let pool = DenseArenaPool::new(
            Arc::new(idx.materialize_labels(&oracle)),
            CostModel::default(),
        );
        let config = EvalConfig::default();
        let eval = Evaluator::twcs(5);
        let trials = 12u64;
        let one = TrialExecutor::new().with_workers(1);
        let many = TrialExecutor::new().with_workers(5);
        let a = eval.run_trials(&idx, &oracle, &pool, &config, &one, trials, 400);
        let b = eval.run_trials(&idx, &oracle, &pool, &config, &many, trials, 400);
        assert_eq!(a.trials, trials);
        assert_eq!(a.converged.mean(), 1.0);
        assert_eq!(aggregate_bits(&a), aggregate_bits(&b));
        // The aggregate matches running the same seeds by hand.
        let mut by_hand = RunningMoments::new();
        for t in 0..trials {
            let mut rng = StdRng::seed_from_u64(crate::executor::trial_seed(400, t));
            let r = eval
                .run_with_index(idx.clone(), &oracle, &config, &mut rng)
                .unwrap();
            by_hand.push(r.estimate.mean);
        }
        assert!((a.estimate.mean() - by_hand.mean()).abs() < 1e-12);
        assert_eq!(a.estimate.count(), by_hand.count());
    }

    #[test]
    fn dense_trials_are_byte_identical_to_hash_at_any_worker_count() {
        let kg = kg();
        let oracle = RemOracle::new(0.85, 12);
        let idx = Arc::new(PopulationIndex::from_population(&kg).unwrap());
        let store = Arc::new(idx.materialize_labels(&oracle));
        let pool = DenseArenaPool::new(store, CostModel::default());
        let config = EvalConfig::default();
        let eval = Evaluator::wcs();
        let trials = 10u64;
        let three = TrialExecutor::new().with_workers(3);
        let hash = hash_reference(&eval, &idx, &oracle, &config, &three, trials, 77);
        let d3 = eval.run_trials(&idx, &oracle, &pool, &config, &three, trials, 77);
        let d1 = eval.run_trials(
            &idx,
            &oracle,
            &pool,
            &config,
            &TrialExecutor::new().with_workers(1),
            trials,
            77,
        );
        assert_eq!(moments_bits(&hash), aggregate_bits(&d3));
        assert_eq!(aggregate_bits(&d1), aggregate_bits(&d3));
        // Arenas were leased per worker, not per trial.
        assert!(pool.arenas_built() <= 4, "built {}", pool.arenas_built());
    }
}
