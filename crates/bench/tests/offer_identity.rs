//! The offer-path gate: RS's one offer path — batched A-ExpJ offers
//! (`offer_batch` over each batch's cached weight prefix, the PPS frame
//! adopting that prefix as a shared segment) — must reproduce the per-item
//! A-Res reference loop (one `offer` per Δe cluster, the evicted member
//! retired and the newcomer annotated right after each acceptance) bit for
//! bit, under both annotation engines.
//!
//! The reference loop no longer ships. `fixtures/rs_per_item.txt` holds
//! its signatures, generated with `OfferMode::PerItem` at commit `7b04cf8`,
//! the last commit that carried it; hash and dense agreed on every line
//! there. Each line is a key naming the input, then the signature words in
//! hex:
//!
//! * `churn/<base triples>/<delete fraction>/<seed>` —
//!   [`kg_bench::churn::rs_signatures`] (fraction 0 is the paper's
//!   insert-only update stream);
//! * `scenario/<family>/<base triples>/<seed>` —
//!   [`kg_bench::scenarios::rs_signatures`] for every
//!   `Scenario::families()` entry, at the `--scenarios --quick` (2000) and
//!   full (6000) scales;
//! * `monitor/600/45/5/23` — [`monitor_signature`]: a 600-cluster base,
//!   reservoir capacity 45, m = 5, RNG seed 23, five insert batches.
//!
//! The stats-level proptest `kg-stats/tests/reservoir_batch_props.rs`
//! keeps the equivalence general: it replays random streams through
//! `offer_batch` and the per-item `offer` loop with interleaved annotation
//! draws. CI's determinism job runs this test at two shard counts.

use kg_annotate::annotator::{Annotator, SimulatedAnnotator};
use kg_annotate::cost::CostModel;
use kg_annotate::dense::DenseAnnotator;
use kg_annotate::label_store::LabelStore;
use kg_annotate::oracle::RemOracle;
use kg_bench::scenarios;
use kg_datagen::scenario::Scenario;
use kg_eval::config::EvalConfig;
use kg_eval::dynamic::monitor::run_sequence;
use kg_eval::dynamic::reservoir::ReservoirEvaluator;
use kg_model::implicit::ImplicitKg;
use kg_model::update::UpdateBatch;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

mod fixtures;
use fixtures::{assert_churn_matches, churn_key, fixture, fixtures};

/// Scenario scales with fixtures: `--scenarios --quick` and full.
const SCENARIO_TARGETS: [u64; 2] = [2_000, 6_000];
/// `bench-report`'s default seed, which the scenario fixtures use.
const SCENARIO_SEED: u64 = 20190923;
const MONITOR_KEY: &str = "monitor/600/45/5/23";

/// The monitor case: RS over a 600-cluster base (sizes 1..=9) and five
/// 80-cluster insert batches. Per batch: estimate mean, variance, units,
/// MoE and cost bits; then replacements, live triples, annotator seconds
/// and triples annotated.
fn monitor_signature(annotator: &mut dyn Annotator, batches: &[UpdateBatch]) -> Vec<u64> {
    let base = ImplicitKg::new((0..600).map(|i| 1 + (i % 9)).collect()).unwrap();
    let mut rng = StdRng::seed_from_u64(23);
    let mut rs =
        ReservoirEvaluator::evaluate_base(&base, 45, 5, EvalConfig::default(), annotator, &mut rng);
    let out = run_sequence(&mut rs, batches, 0.05, annotator, &mut rng);
    let mut sig: Vec<u64> = out
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
    sig.push(rs.replacements());
    sig.push(rs.total_triples());
    sig.push(annotator.seconds().to_bits());
    sig.push(annotator.triples_annotated() as u64);
    sig
}

#[test]
fn streaming_replay_is_identical_across_offer_paths() {
    assert_churn_matches(3_000, 0.0, 99);
    assert_churn_matches(8_000, 0.0, 20190923);
}

fn assert_scenarios_match(target: u64) {
    for scenario in Scenario::families() {
        let key = format!("scenario/{}/{target}/{SCENARIO_SEED}", scenario.name);
        let want = fixture(&key);
        let [hash, dense] = scenarios::rs_signatures(&scenario, target, SCENARIO_SEED);
        assert_eq!(
            hash, want,
            "{key}: hash diverged from the per-item reference"
        );
        assert_eq!(
            dense, want,
            "{key}: dense diverged from the per-item reference"
        );
    }
}

#[test]
fn scenario_replays_are_identical_across_offer_paths() {
    assert_scenarios_match(SCENARIO_TARGETS[0]);
}

#[test]
fn scenario_replays_are_identical_across_offer_paths_at_full_scale() {
    assert_scenarios_match(SCENARIO_TARGETS[1]);
}

#[test]
fn monitor_replay_is_identical_across_offer_paths() {
    let base = ImplicitKg::new((0..600).map(|i| 1 + (i % 9)).collect()).unwrap();
    let oracle = RemOracle::new(0.88, 13);
    let batches: Vec<UpdateBatch> = (0..5)
        .map(|i| UpdateBatch::from_sizes(vec![2 + (i % 3); 80]).unwrap())
        .collect();
    let mut store = LabelStore::materialize(&base, &oracle);
    for b in &batches {
        store.extend_with_batch(b, &oracle);
    }
    let want = fixture(MONITOR_KEY);
    let mut hash = SimulatedAnnotator::new(&oracle, CostModel::default());
    assert_eq!(monitor_signature(&mut hash, &batches), want, "hash");
    let mut dense = DenseAnnotator::new(Arc::new(store), CostModel::default());
    assert_eq!(monitor_signature(&mut dense, &batches), want, "dense");
}

/// Every fixture line is checked — here, or at the 3000-triple churn
/// inputs by `churn_identity` — so none can go stale unnoticed.
#[test]
fn every_fixture_is_checked() {
    let mut expected: Vec<String> = [(3_000, 0.0, 99), (8_000, 0.0, 20190923)]
        .into_iter()
        .chain([0.25, 0.5].map(|f| (3_000, f, 99)))
        .chain([0.0, 0.5].map(|f| (200_000, f, 7)))
        .map(|(t, f, s)| churn_key(t, f, s))
        .collect();
    for target in SCENARIO_TARGETS {
        for scenario in Scenario::families() {
            expected.push(format!(
                "scenario/{}/{target}/{SCENARIO_SEED}",
                scenario.name
            ));
        }
    }
    expected.push(MONITOR_KEY.to_string());
    let mut keys: Vec<String> = fixtures().into_iter().map(|(k, _)| k.to_string()).collect();
    expected.sort();
    keys.sort();
    assert_eq!(keys, expected);
}

/// Larger streams (several coarse PPS strides, thousands of Δe clusters
/// per batch, overlay compactions under heavy deletion) for the weekly
/// slow lane.
#[test]
#[ignore = "slow: larger-scale replay, run with --ignored"]
fn streaming_replay_is_identical_across_offer_paths_at_scale() {
    assert_churn_matches(200_000, 0.0, 7);
}

#[test]
#[ignore = "slow: larger-scale replay, run with --ignored"]
fn churn_replay_is_identical_across_offer_paths_at_scale() {
    assert_churn_matches(200_000, 0.5, 7);
}
