//! Tracked evolving-KG harness: the §6 incremental evaluators under
//! interleaved insertions **and deletions**, hash vs dense engine.
//!
//! At each base scale `bench-report --churn` generates a movie-like base
//! KG and replays the same [`ChurnGenerator`] event stream — inserts plus
//! uniformly sampled retractions of live triples — at delete fractions of
//! 0%, 25%, and 50% of the per-event insert volume, under both annotation
//! engines, writing `BENCH_churn.json` (schema `kg-bench-churn/v1`). The
//! 0% row is the paper's insert-only update stream (§7.3): its events are
//! exactly `UpdateGenerator::movie_like().sequence(..)` over the same
//! seeds.
//!
//! The headline metric is **nanoseconds per changed triple**: wall-clock
//! time of the event-application loop (base evaluation excluded) divided
//! by the stream's churn volume (triples inserted + retracted) times
//! trials. Retraction itself charges no annotation seconds — tombstones,
//! PPS weight decrements, and reservoir eviction are pure bookkeeping —
//! so the ns/Δ column isolates exactly what deletions add to the hot
//! path: overlay-aware PPS locates, live-coordinate re-annotation of
//! shrunken reservoir members, and the stratified weight corrections.
//!
//! Every measurement row carries an **identity check**: the full
//! per-event estimate/MoE/cost signature must be byte-identical across
//! the two engines. CI runs `--churn --quick` and fails on any
//! `"identity": false`. That RS's one (batched) offer path reproduces the
//! per-item A-Res reference is pinned separately, by the golden
//! [`rs_signatures`] fixtures of the `offer_identity` test.

use crate::BenchOpts;
use kg_annotate::annotator::{Annotator, SimulatedAnnotator};
use kg_annotate::cost::CostModel;
use kg_annotate::dense::DenseAnnotator;
use kg_annotate::label_store::LabelStore;
use kg_annotate::oracle::BmmOracle;
use kg_datagen::evolve::ChurnGenerator;
use kg_datagen::generator::cluster_sizes;
use kg_eval::config::EvalConfig;
use kg_eval::dynamic::monitor::{run_event_sequence, BatchOutcome};
use kg_eval::dynamic::reservoir::ReservoirEvaluator;
use kg_eval::dynamic::stratified::StratifiedIncremental;
use kg_eval::dynamic::IncrementalEvaluator;
use kg_eval::executor::run_trials;
use kg_model::implicit::{ClusterPopulation, ImplicitKg};
use kg_model::retract::KgEvent;
use kg_sampling::PopulationIndex;
use kg_stats::PointEstimate;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

/// Delete fractions swept per scale: none, quarter, half of the insert
/// volume.
pub const FRACTIONS: [f64; 3] = [0.0, 0.25, 0.5];
/// Events per stream.
pub const NUM_EVENTS: usize = 6;
/// Each event inserts this fraction of the base triple count.
pub const UPDATE_FRACTION: f64 = 0.2;
/// Second-stage sample size per drawn cluster.
const M: usize = 10;
/// Reservoir capacity |R|.
const CAPACITY: usize = 100;

fn monitor_config() -> EvalConfig {
    EvalConfig::default()
        .with_target_moe(0.01)
        .with_batch_size(100)
}

/// One (scale, fraction, evaluator, engine) measurement.
#[derive(Debug, Clone)]
pub struct ChurnMeasurement {
    /// Evaluator name (`RS` / `SS`).
    pub evaluator: &'static str,
    /// Engine name (`hash` / `dense`).
    pub engine: &'static str,
    /// Full-stream replays timed.
    pub trials: u64,
    /// Changed triples per stream: inserted + retracted.
    pub churned: u64,
    /// Wall-clock seconds in the event-application loop across all trials
    /// (base evaluation excluded).
    pub event_sec: f64,
    /// `event_sec · 1e9 / (churned · trials)`.
    pub ns_per_changed_triple: f64,
    /// Estimate after the final event, averaged over trials.
    pub mean_final_estimate: f64,
}

/// All measurements for one delete fraction at one scale.
#[derive(Debug, Clone)]
pub struct ChurnFractionReport {
    /// Delete fraction of the per-event insert volume.
    pub fraction: f64,
    /// Triples inserted across the stream.
    pub inserted: u64,
    /// Triples retracted across the stream.
    pub retracted: u64,
    /// Live triples after the full stream (base + inserted − retracted).
    pub live_triples: u64,
    /// Live accuracy of the evolved store — the coverage ground truth.
    pub true_accuracy: f64,
    /// Hash and dense engines replayed this stream byte-identically
    /// (per-event estimates, MoE, costs, annotated-triple accounting).
    pub identity: bool,
    /// Per-evaluator, per-engine timings.
    pub measurements: Vec<ChurnMeasurement>,
}

/// A full churn report.
#[derive(Debug, Clone)]
pub struct ChurnReport {
    /// Whether this was a quick (CI) run.
    pub quick: bool,
    /// Base seed used.
    pub seed: u64,
    /// Per-scale results, ascending; each sweeps [`FRACTIONS`].
    pub scales: Vec<ChurnScaleReport>,
}

/// Per-scale fraction sweep.
#[derive(Debug, Clone)]
pub struct ChurnScaleReport {
    /// Base KG triple count (~target).
    pub base_triples: u64,
    /// Base KG cluster count.
    pub base_clusters: u64,
    /// One report per delete fraction.
    pub fractions: Vec<ChurnFractionReport>,
}

struct Setup {
    base: ImplicitKg,
    oracle: BmmOracle,
    events: Vec<KgEvent>,
    base_estimate: PointEstimate,
}

fn setup(target: u64, fraction: f64, seed: u64) -> Setup {
    let clusters = ((target as f64 / 9.2) as usize).max(1);
    let sizes = cluster_sizes(clusters, target.max(clusters as u64), 1.9, 4000, seed);
    let base = ImplicitKg::new(sizes).expect("generator emits non-empty clusters");
    let per_batch = ((target as f64 * UPDATE_FRACTION) as u64).max(1);
    let events =
        ChurnGenerator::movie_like(fraction).events(&base, NUM_EVENTS, per_batch, seed ^ 0x5eed);
    // BMM needs the *raw* size of every cluster it will ever label — base
    // plus all delta-minted ones; retractions never change raw coordinates.
    let mut evolved_sizes = base.sizes().to_vec();
    for event in &events {
        if let Some(b) = event.inserted() {
            evolved_sizes.extend_from_slice(b.delta_sizes());
        }
    }
    let oracle = BmmOracle::with_defaults(Arc::new(evolved_sizes), seed ^ target);
    let idx = Arc::new(PopulationIndex::from_population(&base).expect("non-empty base"));
    let mut rng = StdRng::seed_from_u64(seed ^ 0xba5e);
    let base_estimate = kg_eval::framework::Evaluator::twcs(M)
        .run_with_index(idx, &oracle, &monitor_config(), &mut rng)
        .expect("valid base population")
        .estimate;
    Setup {
        base,
        oracle,
        events,
        base_estimate,
    }
}

/// Fold the stream over a label store: the truth (and raw label state) the
/// dense engine replays against.
fn evolved_store(s: &Setup) -> LabelStore {
    let mut store = LabelStore::materialize(&s.base, &s.oracle);
    for event in &s.events {
        if let Some(r) = event.retracted() {
            store.retract(r);
        }
        if let Some(b) = event.inserted() {
            store.extend_with_batch(b, &s.oracle);
        }
    }
    store
}

/// Replay the full stream once; returns the per-event outcomes and the
/// event-loop wall-clock seconds (base evaluation excluded).
fn replay(
    evaluator: &str,
    s: &Setup,
    config: EvalConfig,
    annotator: &mut dyn Annotator,
    trial_seed: u64,
) -> (Vec<BatchOutcome>, f64) {
    let mut rng = StdRng::seed_from_u64(trial_seed);
    let mut monitor: Box<dyn IncrementalEvaluator> = match evaluator {
        "RS" => Box::new(ReservoirEvaluator::evaluate_base(
            &s.base, CAPACITY, M, config, annotator, &mut rng,
        )),
        "SS" => Box::new(StratifiedIncremental::from_base(
            &s.base,
            s.base_estimate,
            M,
            config,
        )),
        other => panic!("unknown evaluator {other}"),
    };
    let t0 = Instant::now();
    let out = run_event_sequence(&mut *monitor, &s.events, config.alpha, annotator, &mut rng);
    (out, t0.elapsed().as_secs_f64())
}

/// The estimate after the final event of one replay.
fn final_estimate(outcomes: &[BatchOutcome]) -> f64 {
    outcomes.last().expect("non-empty stream").estimate.mean
}

/// Full per-event signature of one replay — what the identity checks
/// byte-compare across engines.
fn replay_signature(
    evaluator: &str,
    s: &Setup,
    config: EvalConfig,
    annotator: &mut dyn Annotator,
    trial_seed: u64,
) -> Vec<u64> {
    let (outcomes, _) = replay(evaluator, s, config, annotator, trial_seed);
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

/// The two annotation engines every row is timed and identity-checked
/// under.
const ENGINES: [&str; 2] = ["hash", "dense"];

/// Run `f` on a fresh hash annotator, or on the shared dense arena after
/// a journal-bounded reset.
fn on_engine<R>(
    engine: &str,
    s: &Setup,
    dense: &mut DenseAnnotator,
    f: impl FnOnce(&mut dyn Annotator) -> R,
) -> R {
    match engine {
        "hash" => f(&mut SimulatedAnnotator::new(
            &s.oracle,
            CostModel::default(),
        )),
        "dense" => {
            dense.reset();
            f(dense)
        }
        other => panic!("unknown engine {other}"),
    }
}

/// Churn volume of a stream: triples inserted plus triples retracted.
fn churn_volume(events: &[KgEvent]) -> (u64, u64) {
    let mut inserted = 0u64;
    let mut retracted = 0u64;
    for event in events {
        if let Some(b) = event.inserted() {
            inserted += b.total_triples();
        }
        if let Some(r) = event.retracted() {
            retracted += r.total_retracted();
        }
    }
    (inserted, retracted)
}

fn run_fraction(target: u64, fraction: f64, trials: u64, seed: u64) -> ChurnFractionReport {
    let s = setup(target, fraction, seed);
    let config = monitor_config();
    let (inserted, retracted) = churn_volume(&s.events);
    let churned = inserted + retracted;

    let store = evolved_store(&s);
    let live_triples = store.live_total_triples();
    let true_accuracy = store.true_accuracy();
    let mut dense = DenseAnnotator::new(Arc::new(store), CostModel::default());

    // Identity gate first: both engines must replay the stream
    // byte-identically before timing means anything.
    let identity = engines_agree_with(&s, config, &mut dense, seed);

    let mut measurements = Vec::new();
    for evaluator in ["RS", "SS"] {
        for engine in ENGINES {
            let mut run_trial = |t: u64| {
                on_engine(engine, &s, &mut dense, |ann| {
                    let (outcomes, sec) = replay(evaluator, &s, config, ann, seed ^ (t * 7919));
                    (final_estimate(&outcomes), sec)
                })
            };
            run_trial(trials); // warmup (fresh seed, untimed)
            let mut event_sec = 0.0;
            let mut est_sum = 0.0;
            for t in 0..trials {
                let (e, sec) = run_trial(t);
                est_sum += e;
                event_sec += sec;
            }
            measurements.push(ChurnMeasurement {
                evaluator,
                engine,
                trials,
                churned,
                event_sec,
                ns_per_changed_triple: event_sec * 1e9 / (churned * trials) as f64,
                mean_final_estimate: est_sum / trials as f64,
            });
        }
    }
    ChurnFractionReport {
        fraction,
        inserted,
        retracted,
        live_triples,
        true_accuracy,
        identity,
        measurements,
    }
}

fn run_scale(target: u64, trials: u64, seed: u64) -> ChurnScaleReport {
    let clusters = ((target as f64 / 9.2) as usize).max(1);
    let sizes = cluster_sizes(clusters, target.max(clusters as u64), 1.9, 4000, seed);
    let base = ImplicitKg::new(sizes).expect("generator emits non-empty clusters");
    ChurnScaleReport {
        base_triples: base.total_triples(),
        base_clusters: base.num_clusters() as u64,
        fractions: FRACTIONS
            .iter()
            .map(|&f| run_fraction(target, f, trials, seed))
            .collect(),
    }
}

/// Run the harness. Quick mode drops the 10^6 scale and shrinks trial
/// counts (CI).
pub fn run(opts: &BenchOpts) -> ChurnReport {
    let scales: &[(u64, u64)] = if opts.quick {
        // (base triples, trials)
        &[(100_000, 4)]
    } else {
        &[(100_000, 16), (1_000_000, 6)]
    };
    ChurnReport {
        quick: opts.quick,
        seed: opts.seed,
        scales: scales
            .iter()
            .map(|&(target, trials)| run_scale(target, trials, opts.seed))
            .collect(),
    }
}

/// Render the report as the `BENCH_churn.json` document
/// (schema `kg-bench-churn/v1`; see README § Evolving KGs).
pub fn to_json(report: &ChurnReport) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema\": \"kg-bench-churn/v1\",\n");
    s.push_str(&format!("  \"quick\": {},\n", report.quick));
    s.push_str(&format!("  \"seed\": {},\n", report.seed));
    s.push_str("  \"metric\": \"ns_per_changed_triple\",\n");
    let cfg = monitor_config();
    s.push_str(&format!(
        "  \"config\": {{\"target_moe\": {}, \"alpha\": {}, \"m\": {M}, \
         \"reservoir_capacity\": {CAPACITY}, \"num_events\": {NUM_EVENTS}, \
         \"update_fraction\": {UPDATE_FRACTION}, \"delete_fractions\": [0.0, 0.25, 0.5]}},\n",
        cfg.target_moe, cfg.alpha
    ));
    s.push_str("  \"scales\": [\n");
    for (i, sc) in report.scales.iter().enumerate() {
        s.push_str("    {\n");
        s.push_str(&format!("      \"base_triples\": {},\n", sc.base_triples));
        s.push_str(&format!("      \"base_clusters\": {},\n", sc.base_clusters));
        s.push_str("      \"fractions\": [\n");
        for (j, fr) in sc.fractions.iter().enumerate() {
            s.push_str("        {\n");
            s.push_str(&format!(
                "          \"delete_fraction\": {},\n",
                fr.fraction
            ));
            s.push_str(&format!("          \"inserted\": {},\n", fr.inserted));
            s.push_str(&format!("          \"retracted\": {},\n", fr.retracted));
            s.push_str(&format!(
                "          \"live_triples\": {},\n",
                fr.live_triples
            ));
            s.push_str(&format!(
                "          \"true_accuracy\": {:.6},\n",
                fr.true_accuracy
            ));
            s.push_str(&format!("          \"identity\": {},\n", fr.identity));
            s.push_str("          \"measurements\": [\n");
            for (k, m) in fr.measurements.iter().enumerate() {
                s.push_str(&format!(
                    "            {{\"evaluator\": \"{}\", \"engine\": \"{}\", \"trials\": {}, \
                     \"churned\": {}, \"event_sec\": {:.6}, \"ns_per_changed_triple\": {:.1}, \
                     \"mean_final_estimate\": {:.6}}}{}\n",
                    m.evaluator,
                    m.engine,
                    m.trials,
                    m.churned,
                    m.event_sec,
                    m.ns_per_changed_triple,
                    m.mean_final_estimate,
                    if k + 1 < fr.measurements.len() {
                        ","
                    } else {
                        ""
                    }
                ));
            }
            s.push_str("          ]\n");
            s.push_str(&format!(
                "        }}{}\n",
                if j + 1 < sc.fractions.len() { "," } else { "" }
            ));
        }
        s.push_str("      ]\n");
        s.push_str(&format!(
            "    }}{}\n",
            if i + 1 < report.scales.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// Human-readable table for the console.
pub fn render_table(report: &ChurnReport) -> String {
    let mut s = String::new();
    for sc in &report.scales {
        s.push_str(&format!(
            "base {:>9} triples, {:>8} clusters\n",
            sc.base_triples, sc.base_clusters
        ));
        for fr in &sc.fractions {
            s.push_str(&format!(
                "  delete {:>4.0}%: +{} −{} → {} live (truth {:.4}, identity: {})\n",
                fr.fraction * 100.0,
                fr.inserted,
                fr.retracted,
                fr.live_triples,
                fr.true_accuracy,
                fr.identity
            ));
            s.push_str("    eval  engine  trials   churned   event(s)      ns/Δ   final est\n");
            for m in &fr.measurements {
                s.push_str(&format!(
                    "    {:<4}  {:<6}  {:>6}  {:>8}  {:>9.4}  {:>8.1}  {:.4}\n",
                    m.evaluator,
                    m.engine,
                    m.trials,
                    m.churned,
                    m.event_sec,
                    m.ns_per_changed_triple,
                    m.mean_final_estimate
                ));
            }
        }
        s.push('\n');
    }
    s
}

/// Deterministic cross-engine agreement check: the full per-event
/// signature must be byte-identical across engines at the given delete
/// fraction (0 is the insert-only stream of the paper's §7.3).
pub fn engines_agree(target: u64, fraction: f64, seed: u64) -> bool {
    let s = setup(target, fraction, seed);
    let mut dense = DenseAnnotator::new(Arc::new(evolved_store(&s)), CostModel::default());
    engines_agree_with(&s, monitor_config(), &mut dense, seed)
}

fn engines_agree_with(
    s: &Setup,
    config: EvalConfig,
    dense: &mut DenseAnnotator,
    seed: u64,
) -> bool {
    ["RS", "SS"].iter().all(|ev| {
        let [h, d] = ENGINES.map(|engine| {
            on_engine(engine, s, dense, |ann| {
                replay_signature(ev, s, config, ann, seed ^ 1)
            })
        });
        h == d
    })
}

/// The RS offer-path signature of one churn replay, once per engine (hash,
/// then dense): per-event estimate mean, variance, MoE and cost bits, then
/// reservoir replacements, live triples, and total annotator seconds. The
/// `offer_identity` and `churn_identity` tests compare each against a
/// golden fixture recorded from the per-item A-Res reference loop.
pub fn rs_signatures(target: u64, fraction: f64, seed: u64) -> [Vec<u64>; 2] {
    let s = setup(target, fraction, seed);
    let config = monitor_config();
    let mut dense = DenseAnnotator::new(Arc::new(evolved_store(&s)), CostModel::default());
    let run = |annotator: &mut dyn Annotator| -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(seed ^ 3);
        let mut rs =
            ReservoirEvaluator::evaluate_base(&s.base, CAPACITY, M, config, annotator, &mut rng);
        let outcomes = run_event_sequence(&mut rs, &s.events, config.alpha, annotator, &mut rng);
        let mut sig: Vec<u64> = outcomes
            .iter()
            .flat_map(|o| {
                [
                    o.estimate.mean.to_bits(),
                    o.estimate.var_of_mean.to_bits(),
                    o.moe.to_bits(),
                    o.batch_cost_seconds.to_bits(),
                ]
            })
            .collect();
        sig.push(rs.replacements());
        sig.push(rs.total_triples());
        sig.push(annotator.seconds().to_bits());
        sig
    };
    ENGINES.map(|engine| on_engine(engine, &s, &mut dense, |ann| run(ann)))
}

/// Average per-stream CI coverage of the live truth across seeded churn
/// replays — the statistical backbone of the churn coverage suites.
pub fn coverage_after_churn(
    evaluator: &'static str,
    engine: &'static str,
    target: u64,
    fraction: f64,
    trials: u64,
    base_seed: u64,
) -> f64 {
    let s = setup(target, fraction, base_seed);
    let config = monitor_config();
    let evolved = evolved_store(&s);
    let truth = evolved.true_accuracy();
    let store = Arc::new(evolved);
    let stats = run_trials(trials, base_seed, 1, |trial_seed| {
        let est = match engine {
            "hash" => {
                let mut ann = SimulatedAnnotator::new(&s.oracle, CostModel::default());
                final_estimate(&replay(evaluator, &s, config, &mut ann, trial_seed).0)
            }
            "dense" => {
                let mut ann = DenseAnnotator::new(store.clone(), CostModel::default());
                final_estimate(&replay(evaluator, &s, config, &mut ann, trial_seed).0)
            }
            other => panic!("unknown engine {other}"),
        };
        vec![((est - truth).abs() <= config.target_moe) as u64 as f64]
    });
    stats[0].mean()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_churn_run_is_consistent_and_renders() {
        let report = ChurnReport {
            quick: true,
            seed: 7,
            scales: vec![run_scale(3_000, 2, 42)],
        };
        let sc = &report.scales[0];
        assert_eq!(sc.fractions.len(), FRACTIONS.len());
        for (fr, &want) in sc.fractions.iter().zip(&FRACTIONS) {
            assert_eq!(fr.fraction, want);
            assert!(fr.identity, "delete {:.0}%: engines diverged", want * 100.0);
            if want == 0.0 {
                assert_eq!(fr.retracted, 0);
            } else {
                assert!(fr.retracted > 0);
            }
            assert_eq!(
                fr.live_triples,
                sc.base_triples + fr.inserted - fr.retracted
            );
            assert_eq!(fr.measurements.len(), 4);
            for pair in fr.measurements.chunks(2) {
                assert_eq!(pair[0].evaluator, pair[1].evaluator);
                assert_eq!(
                    pair[0].mean_final_estimate.to_bits(),
                    pair[1].mean_final_estimate.to_bits(),
                    "{} at {:.0}%: engines disagree",
                    pair[0].evaluator,
                    want * 100.0
                );
            }
        }
        let json = to_json(&report);
        assert!(json.contains("\"schema\": \"kg-bench-churn/v1\""));
        assert!(json.contains("\"identity\": true"));
        assert!(!json.contains("\"identity\": false"));
        let table = render_table(&report);
        assert!(table.contains("identity: true"));
    }

    #[test]
    fn engines_agree_under_heavy_churn() {
        assert!(engines_agree(3_000, 0.5, 99));
    }

    /// The batched offer path reproduces the per-item reference's golden
    /// signature (`tests/fixtures/rs_per_item.txt`) under both engines.
    #[test]
    fn offer_modes_agree_under_churn() {
        let want: Vec<u64> = include_str!("../tests/fixtures/rs_per_item.txt")
            .lines()
            .find_map(|line| line.strip_prefix("churn/3000/0.25/99 "))
            .expect("fixture churn/3000/0.25/99")
            .split_whitespace()
            .map(|w| u64::from_str_radix(w, 16).unwrap())
            .collect();
        let [hash, dense] = rs_signatures(3_000, 0.25, 99);
        assert_eq!(hash, want, "hash diverged from the per-item reference");
        assert_eq!(dense, want, "dense diverged from the per-item reference");
    }
}
