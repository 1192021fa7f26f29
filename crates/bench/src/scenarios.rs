//! Adversarial scenario sweep: every evaluator × engine cell of the
//! matrix replayed against every hostile workload family.
//!
//! `bench-report --scenarios` materializes each [`Scenario`] family from
//! `kg_datagen::scenario` — heavy-tailed sizes, accuracy drift, burst
//! churn, correlated annotator pools, heterogeneous costs — and pushes it
//! through all eight evaluators: the six static designs (SRS, RCS, WCS,
//! TWCS, TSRCS, TWCS+strat) over the **final evolved live KG**, and the
//! two §6 incremental monitors (RS, SS) replaying the **event stream**.
//! Every cell runs under both annotation engines and carries:
//!
//! * an **identity** flag — the full evaluation signature (estimates,
//!   MoE, costs, annotation accounting) byte-compared across the hash and
//!   dense engines (RS's signature is also pinned against per-item A-Res
//!   fixtures by the `offer_identity` test, via [`rs_signatures`]);
//! * a **coverage** estimate — the fraction of seeded trials whose
//!   final CI `μ̂ ± MoE` covers the scenario's exact live truth, with a
//!   `covered` flag testing ≈95% under the same binomial `3σ + 2%` band
//!   as the tier-1 coverage suites.
//!
//! The artifact is `BENCH_scenarios.json` (schema `kg-bench-scenarios/v1`);
//! CI runs `--scenarios --quick` and fails on any `"identity": false` or
//! `"covered": false`. Committed numbers come from a full run.

use crate::BenchOpts;
use kg_annotate::annotator::{Annotator, SimulatedAnnotator};
use kg_annotate::dense::DenseAnnotator;
use kg_annotate::label_store::LabelStore;
use kg_annotate::oracle::GoldLabels;
use kg_datagen::scenario::{MaterializedScenario, Scenario};
use kg_eval::config::EvalConfig;
use kg_eval::dynamic::monitor::{run_event_sequence, BatchOutcome};
use kg_eval::dynamic::reservoir::ReservoirEvaluator;
use kg_eval::dynamic::stratified::StratifiedIncremental;
use kg_eval::executor::run_trials;
use kg_eval::framework::Evaluator;
use kg_eval::report::EvaluationReport;
use kg_model::implicit::{ClusterPopulation, ImplicitKg};
use kg_sampling::PopulationIndex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

/// Second-stage sample size for the two-stage designs and monitors.
const M: usize = 10;
/// Reservoir capacity |R|.
const CAPACITY: usize = 100;
/// Strata for the stratified static design.
const STRATA: usize = 4;

/// The static designs swept over the final evolved KG.
pub const STATIC_EVALUATORS: [&str; 6] = ["SRS", "RCS", "WCS", "TWCS", "TSRCS", "TWCS+strat"];
/// The incremental monitors replaying the event stream.
pub const DYNAMIC_EVALUATORS: [&str; 2] = ["RS", "SS"];

fn sweep_config() -> EvalConfig {
    EvalConfig::default()
}

fn static_evaluator(name: &str) -> Evaluator {
    match name {
        "SRS" => Evaluator::srs(),
        "RCS" => Evaluator::rcs(),
        "WCS" => Evaluator::wcs(),
        "TWCS" => Evaluator::twcs(M),
        "TSRCS" => Evaluator::new(kg_sampling::Design::TsRcs { m: M }),
        "TWCS+strat" => Evaluator::twcs_size_stratified(M, STRATA),
        other => panic!("unknown static evaluator {other}"),
    }
}

/// One evaluator × engine cell.
#[derive(Debug, Clone)]
pub struct CellReport {
    /// Evaluator name.
    pub evaluator: &'static str,
    /// Engine name (`hash` / `dense`).
    pub engine: &'static str,
    /// Seeded trials behind the coverage estimate.
    pub trials: u64,
    /// Byte-identity across engines.
    pub identity: bool,
    /// Fraction of trials whose final CI covered the live truth.
    pub coverage: f64,
    /// `coverage` within the binomial `0.95 − 3σ − 0.02` band.
    pub covered: bool,
    /// Final estimate averaged over trials.
    pub mean_estimate: f64,
    /// Wall-clock seconds for this cell's trial loop.
    pub sec: f64,
}

/// All cells for one scenario family.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// Scenario family name.
    pub name: &'static str,
    /// Base KG triples.
    pub base_triples: u64,
    /// Live triples after the full event stream.
    pub live_triples: u64,
    /// Triples inserted / retracted across the stream.
    pub inserted: u64,
    /// Triples retracted across the stream.
    pub retracted: u64,
    /// Exact live accuracy of the evolved KG — the coverage ground truth
    /// (pool-resolved for pool scenarios).
    pub truth: f64,
    /// One cell per evaluator × engine.
    pub cells: Vec<CellReport>,
}

/// A full sweep.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Whether this was a quick (CI) run.
    pub quick: bool,
    /// Base seed.
    pub seed: u64,
    /// One report per scenario family.
    pub scenarios: Vec<ScenarioReport>,
}

/// A materialized scenario with everything the cells need precomputed.
struct SweepSetup {
    m: MaterializedScenario,
    /// Compacted live population (empty clusters dropped).
    live_kg: ImplicitKg,
    /// Live labels aligned with `live_kg`.
    gold: GoldLabels,
    live_index: Arc<PopulationIndex>,
    /// Dense store over the compacted live KG (static cells).
    live_store: Arc<LabelStore>,
    /// Event-folded store in raw coordinates (dynamic dense replays).
    evolved_store: Arc<LabelStore>,
    base_index: Arc<PopulationIndex>,
    truth: f64,
    inserted: u64,
    retracted: u64,
}

fn setup(scenario: &Scenario, target: u64, seed: u64) -> SweepSetup {
    let m = scenario.materialize(target, seed);
    let mut store = LabelStore::materialize(&m.base, m.oracle.as_ref());
    let (mut inserted, mut retracted) = (0u64, 0u64);
    for event in &m.events {
        if let Some(r) = event.retracted() {
            store.retract(r);
            retracted += r.total_retracted();
        }
        if let Some(b) = event.inserted() {
            store.extend_with_batch(b, m.oracle.as_ref());
            inserted += b.total_triples();
        }
    }
    let truth = store.true_accuracy();

    // Compact the live view: per cluster, the labels of non-retracted
    // triples in raw order; clusters churned empty are dropped.
    let mut live_sizes = Vec::with_capacity(store.num_clusters());
    let mut live_labels = Vec::with_capacity(store.num_clusters());
    for c in 0..store.num_clusters() {
        let base = store.cluster_base(c);
        let labels: Vec<bool> = (0..store.cluster_size(c) as u64)
            .filter(|&o| !store.is_retracted(base + o))
            .map(|o| store.label_at(base + o))
            .collect();
        if !labels.is_empty() {
            live_sizes.push(labels.len() as u32);
            live_labels.push(labels);
        }
    }
    let live_kg = ImplicitKg::new(live_sizes).expect("live KG is non-empty");
    let gold = GoldLabels::new(live_labels);
    let live_store = Arc::new(LabelStore::materialize(&live_kg, &gold));
    SweepSetup {
        live_index: Arc::new(PopulationIndex::from_population(&live_kg).expect("non-empty")),
        base_index: Arc::new(PopulationIndex::from_population(&m.base).expect("non-empty")),
        live_kg,
        gold,
        live_store,
        evolved_store: Arc::new(store),
        truth,
        inserted,
        retracted,
        m,
    }
}

/// One seeded static run over the compacted live KG.
fn static_report(
    s: &SweepSetup,
    evaluator: &str,
    annotator: &mut dyn Annotator,
    seed: u64,
) -> EvaluationReport {
    let mut rng = StdRng::seed_from_u64(seed);
    static_evaluator(evaluator)
        .run_with_annotator(
            s.live_index.clone(),
            &s.gold,
            annotator,
            &sweep_config(),
            &mut rng,
        )
        .expect("valid live population")
}

/// Full evaluation signature of a static run — the byte-identity payload.
fn static_signature(report: &EvaluationReport, annotator: &dyn Annotator) -> Vec<u64> {
    vec![
        report.estimate.mean.to_bits(),
        report.estimate.var_of_mean.to_bits(),
        report.estimate.units as u64,
        report.moe.to_bits(),
        report.cost_seconds.to_bits(),
        report.triples_annotated as u64,
        report.entities_identified as u64,
        annotator.seconds().to_bits(),
    ]
}

/// One seeded monitor replay of the scenario's event stream. The SS base
/// estimate resamples per seed so its frozen sampling error stays honest
/// (the ci_coverage idiom).
fn dynamic_replay(
    s: &SweepSetup,
    evaluator: &str,
    annotator: &mut dyn Annotator,
    seed: u64,
) -> Vec<BatchOutcome> {
    let config = sweep_config();
    let mut rng = StdRng::seed_from_u64(seed);
    match evaluator {
        "RS" => {
            let mut rs = ReservoirEvaluator::evaluate_base(
                &s.m.base, CAPACITY, M, config, annotator, &mut rng,
            );
            run_event_sequence(&mut rs, &s.m.events, config.alpha, annotator, &mut rng)
        }
        "SS" => {
            let report = Evaluator::twcs(M)
                .run_with_index(s.base_index.clone(), s.m.oracle.as_ref(), &config, &mut rng)
                .expect("valid base population");
            let mut ss = StratifiedIncremental::from_base(&s.m.base, report.estimate, M, config);
            run_event_sequence(&mut ss, &s.m.events, config.alpha, annotator, &mut rng)
        }
        other => panic!("unknown evaluator {other}"),
    }
}

/// Full per-event signature of a monitor replay (churn-harness idiom).
fn dynamic_signature(outcomes: &[BatchOutcome], annotator: &dyn Annotator) -> Vec<u64> {
    let mut sig: Vec<u64> = outcomes
        .iter()
        .flat_map(|o| {
            [
                o.estimate.mean.to_bits(),
                o.estimate.var_of_mean.to_bits(),
                o.estimate.units as u64,
                o.moe.to_bits(),
                o.batch_cost_seconds.to_bits(),
            ]
        })
        .collect();
    sig.push(annotator.seconds().to_bits());
    sig.push(annotator.triples_annotated() as u64);
    sig
}

/// A monitor replay's signature under each engine (hash, then dense).
fn dynamic_engine_signatures(s: &SweepSetup, evaluator: &str, seed: u64) -> [Vec<u64>; 2] {
    let cost = s.m.cost;
    let mut hash = SimulatedAnnotator::new(s.m.oracle.as_ref(), cost);
    let h = dynamic_signature(&dynamic_replay(s, evaluator, &mut hash, seed), &hash);
    let mut dense = DenseAnnotator::new(s.evolved_store.clone(), cost);
    let d = dynamic_signature(&dynamic_replay(s, evaluator, &mut dense, seed), &dense);
    [h, d]
}

/// The RS replay signature of one scenario family — exactly the payload
/// of the sweep's RS identity gate at `seed` — under each engine (hash,
/// then dense). The `offer_identity` test compares each against a golden
/// fixture recorded from the per-item A-Res reference loop.
pub fn rs_signatures(scenario: &Scenario, target: u64, seed: u64) -> [Vec<u64>; 2] {
    dynamic_engine_signatures(&setup(scenario, target, seed), "RS", seed ^ 1)
}

/// (coverage hit, estimate) of one run: does `μ̂ ± MoE` cover the truth.
fn trial_metrics(s: &SweepSetup, estimate: f64, moe: f64) -> Vec<f64> {
    vec![((estimate - s.truth).abs() <= moe) as u64 as f64, estimate]
}

fn coverage_band_lo(trials: u64) -> f64 {
    // Binomial 3σ around the nominal 95% plus 2% approximation slack —
    // the same band as the tier-1 coverage suites.
    let sigma = (0.95f64 * 0.05 / trials as f64).sqrt();
    0.95 - 3.0 * sigma - 0.02
}

/// Sweep one scenario family: all 8 evaluators × both engines.
pub fn sweep_scenario(scenario: &Scenario, target: u64, trials: u64, seed: u64) -> ScenarioReport {
    let s = setup(scenario, target, seed);
    let cost = s.m.cost;
    let lo = coverage_band_lo(trials);
    let mut cells = Vec::new();

    for evaluator in STATIC_EVALUATORS {
        // Identity gate: one seeded run byte-compared across engines.
        let identity = {
            let mut hash = SimulatedAnnotator::new(&s.gold, cost);
            let h = static_signature(&static_report(&s, evaluator, &mut hash, seed ^ 1), &hash);
            let mut dense = DenseAnnotator::new(s.live_store.clone(), cost);
            let d = static_signature(&static_report(&s, evaluator, &mut dense, seed ^ 1), &dense);
            h == d
        };
        for engine in ["hash", "dense"] {
            let t0 = Instant::now();
            let stats = run_trials(trials, seed, 2, |trial_seed| {
                let report = match engine {
                    "hash" => {
                        let mut ann = SimulatedAnnotator::new(&s.gold, cost);
                        static_report(&s, evaluator, &mut ann, trial_seed)
                    }
                    _ => {
                        let mut ann = DenseAnnotator::new(s.live_store.clone(), cost);
                        static_report(&s, evaluator, &mut ann, trial_seed)
                    }
                };
                trial_metrics(&s, report.estimate.mean, report.moe)
            });
            let coverage = stats[0].mean();
            cells.push(CellReport {
                evaluator,
                engine,
                trials,
                identity,
                coverage,
                covered: (lo..=1.0).contains(&coverage),
                mean_estimate: stats[1].mean(),
                sec: t0.elapsed().as_secs_f64(),
            });
        }
    }

    for evaluator in DYNAMIC_EVALUATORS {
        // Identity gate: one seeded replay byte-compared across engines.
        let [h, d] = dynamic_engine_signatures(&s, evaluator, seed ^ 1);
        let identity = h == d;
        for engine in ["hash", "dense"] {
            let t0 = Instant::now();
            let stats = run_trials(trials, seed, 2, |trial_seed| {
                let outcomes = match engine {
                    "hash" => {
                        let mut ann = SimulatedAnnotator::new(s.m.oracle.as_ref(), cost);
                        dynamic_replay(&s, evaluator, &mut ann, trial_seed)
                    }
                    _ => {
                        let mut ann = DenseAnnotator::new(s.evolved_store.clone(), cost);
                        dynamic_replay(&s, evaluator, &mut ann, trial_seed)
                    }
                };
                let last = outcomes.last().expect("non-empty stream");
                trial_metrics(&s, last.estimate.mean, last.moe)
            });
            let coverage = stats[0].mean();
            cells.push(CellReport {
                evaluator,
                engine,
                trials,
                identity,
                coverage,
                covered: (lo..=1.0).contains(&coverage),
                mean_estimate: stats[1].mean(),
                sec: t0.elapsed().as_secs_f64(),
            });
        }
    }

    ScenarioReport {
        name: scenario.name,
        base_triples: s.m.base.total_triples(),
        live_triples: s.live_kg.total_triples(),
        inserted: s.inserted,
        retracted: s.retracted,
        truth: s.truth,
        cells,
    }
}

/// Run the full sweep over [`Scenario::families`]. Quick mode uses
/// smaller KGs and fewer trials (CI).
pub fn run(opts: &BenchOpts) -> SweepReport {
    let (target, trials) = if opts.quick { (2_000, 48) } else { (6_000, 96) };
    SweepReport {
        quick: opts.quick,
        seed: opts.seed,
        scenarios: Scenario::families()
            .iter()
            .map(|sc| sweep_scenario(sc, target, trials, opts.seed))
            .collect(),
    }
}

/// Render the sweep as the `BENCH_scenarios.json` document
/// (schema `kg-bench-scenarios/v1`; see README § Scenario matrix).
pub fn to_json(report: &SweepReport) -> String {
    let cfg = sweep_config();
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema\": \"kg-bench-scenarios/v1\",\n");
    s.push_str(&format!("  \"quick\": {},\n", report.quick));
    s.push_str(&format!("  \"seed\": {},\n", report.seed));
    s.push_str(&format!(
        "  \"config\": {{\"target_moe\": {}, \"alpha\": {}, \"m\": {M}, \
         \"reservoir_capacity\": {CAPACITY}, \"strata\": {STRATA}}},\n",
        cfg.target_moe, cfg.alpha
    ));
    s.push_str("  \"scenarios\": [\n");
    for (i, sc) in report.scenarios.iter().enumerate() {
        s.push_str("    {\n");
        s.push_str(&format!("      \"name\": \"{}\",\n", sc.name));
        s.push_str(&format!("      \"base_triples\": {},\n", sc.base_triples));
        s.push_str(&format!("      \"live_triples\": {},\n", sc.live_triples));
        s.push_str(&format!("      \"inserted\": {},\n", sc.inserted));
        s.push_str(&format!("      \"retracted\": {},\n", sc.retracted));
        s.push_str(&format!("      \"truth\": {:.6},\n", sc.truth));
        s.push_str("      \"cells\": [\n");
        for (k, c) in sc.cells.iter().enumerate() {
            s.push_str(&format!(
                "        {{\"evaluator\": \"{}\", \"engine\": \"{}\", \"trials\": {}, \
                 \"identity\": {}, \"coverage\": {:.4}, \"covered\": {}, \
                 \"mean_estimate\": {:.6}, \"sec\": {:.4}}}{}\n",
                c.evaluator,
                c.engine,
                c.trials,
                c.identity,
                c.coverage,
                c.covered,
                c.mean_estimate,
                c.sec,
                if k + 1 < sc.cells.len() { "," } else { "" }
            ));
        }
        s.push_str("      ]\n");
        s.push_str(&format!(
            "    }}{}\n",
            if i + 1 < report.scenarios.len() {
                ","
            } else {
                ""
            }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// Human-readable table for the console.
pub fn render_table(report: &SweepReport) -> String {
    let mut s = String::new();
    for sc in &report.scenarios {
        s.push_str(&format!(
            "{}: base {} → live {} triples (+{} −{}), truth {:.4}\n",
            sc.name, sc.base_triples, sc.live_triples, sc.inserted, sc.retracted, sc.truth
        ));
        s.push_str("  evaluator   engine  trials  identity  coverage  covered  mean est   sec\n");
        for c in &sc.cells {
            s.push_str(&format!(
                "  {:<10}  {:<6}  {:>6}  {:>8}  {:>8.3}  {:>7}  {:.4}  {:>6.2}\n",
                c.evaluator,
                c.engine,
                c.trials,
                c.identity,
                c.coverage,
                c.covered,
                c.mean_estimate,
                c.sec
            ));
        }
        s.push('\n');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_sweep_cell_structure_and_identity() {
        // One benign and one hostile family at a tiny scale: the structure
        // (8 evaluators × 2 engines), identity in every cell, and the
        // engine pairs' estimates agreeing bitwise.
        let families = Scenario::families();
        for name in ["baseline", "burst_churn"] {
            let scenario = families.iter().find(|sc| sc.name == name).unwrap();
            let report = sweep_scenario(scenario, 1_200, 16, 42);
            assert_eq!(report.cells.len(), 16, "{name}");
            assert!(report.truth > 0.0 && report.truth < 1.0);
            for cell in &report.cells {
                assert!(
                    cell.identity,
                    "{name}/{}/{}: engines diverged",
                    cell.evaluator, cell.engine
                );
            }
            for pair in report.cells.chunks(2) {
                assert_eq!(pair[0].evaluator, pair[1].evaluator);
                assert_eq!(
                    pair[0].mean_estimate.to_bits(),
                    pair[1].mean_estimate.to_bits(),
                    "{name}/{}: engine estimates disagree",
                    pair[0].evaluator
                );
                assert_eq!(pair[0].coverage.to_bits(), pair[1].coverage.to_bits());
            }
        }
    }

    #[test]
    fn json_schema_and_flags_render() {
        let families = Scenario::families();
        let scenario = families.iter().find(|sc| sc.name == "baseline").unwrap();
        let report = SweepReport {
            quick: true,
            seed: 7,
            scenarios: vec![sweep_scenario(scenario, 1_200, 16, 7)],
        };
        let json = to_json(&report);
        assert!(json.contains("\"schema\": \"kg-bench-scenarios/v1\""));
        assert!(json.contains("\"identity\": true"));
        assert!(!json.contains("\"identity\": false"));
        for evaluator in STATIC_EVALUATORS.iter().chain(DYNAMIC_EVALUATORS.iter()) {
            assert!(
                json.contains(&format!("\"evaluator\": \"{evaluator}\"")),
                "{evaluator} missing from artifact"
            );
        }
        let table = render_table(&report);
        assert!(table.contains("baseline"));
    }

    #[test]
    fn pool_scenario_sweeps_against_the_pool_resolved_truth() {
        // The correlated-pool family must evaluate against the degraded
        // pool-resolved accuracy — identity in every cell and the truth
        // clearly below the gold 0.9.
        let families = Scenario::families();
        let scenario = families
            .iter()
            .find(|sc| sc.name == "correlated_pool")
            .unwrap();
        let report = sweep_scenario(scenario, 1_500, 16, 11);
        assert!(report.truth < 0.85, "pool truth {}", report.truth);
        assert!(report.cells.iter().all(|c| c.identity));
    }
}
