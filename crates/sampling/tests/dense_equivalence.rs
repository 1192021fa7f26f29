//! Dense-engine equivalence: the arena-backed `DenseAnnotator` over a
//! materialized `LabelStore` must be **byte-identical** — labels, cost
//! seconds, and estimator output — to the hash-based `SimulatedAnnotator`
//! reference on random cluster populations and random draw sequences,
//! across every sampling design.
//!
//! This is the safety net that lets every experiment switch to the fast
//! path: both engines charge `Cost(G') = |E'|·c1 + |G'|·c2` from their memo
//! counts (not an order-dependent float accumulation), and the designs
//! consume the RNG identically regardless of engine, so any disagreement
//! here is a real memoization or addressing bug, not float noise.

use kg_annotate::annotator::{Annotator, SimulatedAnnotator};
use kg_annotate::cost::CostModel;
use kg_annotate::dense::DenseAnnotator;
use kg_annotate::label_store::LabelStore;
use kg_annotate::oracle::RemOracle;
use kg_datagen::evolve::{ChurnGenerator, UpdateGenerator};
use kg_eval::config::EvalConfig;
use kg_eval::dynamic::monitor::{run_event_sequence, run_sequence};
use kg_eval::dynamic::reservoir::ReservoirEvaluator;
use kg_eval::dynamic::stratified::StratifiedIncremental;
use kg_model::implicit::{ClusterPopulation, ImplicitKg};
use kg_model::retract::KgEvent;
use kg_model::triple::TripleRef;
use kg_model::update::UpdateBatch;
use kg_sampling::design::Design;
use kg_sampling::stratified::StratificationStrategy;
use kg_sampling::PopulationIndex;
use kg_stats::PointEstimate;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn designs() -> Vec<Design> {
    vec![
        Design::Srs,
        Design::Rcs,
        Design::Wcs,
        Design::Twcs { m: 1 },
        Design::Twcs { m: 5 },
        Design::TsRcs { m: 4 },
        Design::StratifiedTwcs {
            m: 3,
            strategy: StratificationStrategy::Size { strata: 3 },
        },
        Design::StratifiedTwcs {
            m: 3,
            strategy: StratificationStrategy::Oracle { strata: 2 },
        },
    ]
}

// ---------------------------------------------------------------------------
// Incremental suite: the §6 evaluators over an evolving KG.
//
// The growable dense engine (store extended batch by batch through
// `Annotator::extend_population`) must be byte-identical to the hash engine
// on the *dynamic* evaluators too: per-batch estimates, cost seconds, memo
// counts, and raw labels of the delta-minted clusters. Both evaluators run
// a 10-batch `UpdateGenerator::movie_like()` sequence under both MoE
// configurations.
// ---------------------------------------------------------------------------

struct SequenceTrace {
    per_batch: Vec<(u64, u64, f64)>, // (est mean bits, est var bits, cum cost)
    seconds: f64,
    entities: usize,
    triples: usize,
}

fn run_incremental(
    evaluator: &'static str,
    base: &ImplicitKg,
    batches: &[UpdateBatch],
    config: EvalConfig,
    annotator: &mut dyn Annotator,
    seed: u64,
) -> SequenceTrace {
    let mut rng = StdRng::seed_from_u64(seed);
    let outcomes = match evaluator {
        "RS" => {
            let mut rs =
                ReservoirEvaluator::evaluate_base(base, 40, 5, config, annotator, &mut rng);
            run_sequence(&mut rs, batches, config.alpha, annotator, &mut rng)
        }
        "SS" => {
            // A frozen synthetic base estimate: identical for both engines,
            // so every difference downstream is the engines' own.
            let base_est = PointEstimate::new(0.9, 0.0004, 60).unwrap();
            let mut ss = StratifiedIncremental::from_base(base, base_est, 5, config);
            run_sequence(&mut ss, batches, config.alpha, annotator, &mut rng)
        }
        other => panic!("unknown evaluator {other}"),
    };
    SequenceTrace {
        per_batch: outcomes
            .iter()
            .map(|o| {
                (
                    o.estimate.mean.to_bits(),
                    o.estimate.var_of_mean.to_bits(),
                    o.cumulative_cost_seconds,
                )
            })
            .collect(),
        seconds: annotator.seconds(),
        entities: annotator.entities_identified(),
        triples: annotator.triples_annotated(),
    }
}

#[test]
fn incremental_evaluators_are_byte_identical_across_engines() {
    let base = ImplicitKg::new((0..800).map(|i| 1 + (i % 12)).collect()).unwrap();
    let oracle = RemOracle::new(0.88, 41);
    let batches = UpdateGenerator::movie_like().sequence(10, base.total_triples() / 10, 0x5eed);
    let configs = [
        EvalConfig::default(),
        EvalConfig::default()
            .with_target_moe(0.03)
            .with_batch_size(8),
    ];
    for (ci, config) in configs.into_iter().enumerate() {
        for evaluator in ["RS", "SS"] {
            let seed = 1000 + ci as u64;
            let mut hash = SimulatedAnnotator::new(&oracle, CostModel::default());
            let h = run_incremental(evaluator, &base, &batches, config, &mut hash, seed);

            let store = Arc::new(LabelStore::materialize(&base, &oracle));
            let mut dense = DenseAnnotator::growable(store, CostModel::default(), Arc::new(oracle));
            let d = run_incremental(evaluator, &base, &batches, config, &mut dense, seed);

            assert_eq!(h.per_batch.len(), 10, "{evaluator} config {ci}");
            for (b, (hb, db)) in h.per_batch.iter().zip(&d.per_batch).enumerate() {
                assert_eq!(hb.0, db.0, "{evaluator} config {ci} batch {b}: mean bits");
                assert_eq!(hb.1, db.1, "{evaluator} config {ci} batch {b}: var bits");
                assert_eq!(
                    hb.2.to_bits(),
                    db.2.to_bits(),
                    "{evaluator} config {ci} batch {b}: cumulative cost"
                );
            }
            assert_eq!(h.seconds.to_bits(), d.seconds.to_bits(), "{evaluator}");
            assert_eq!(h.entities, d.entities, "{evaluator}");
            assert_eq!(h.triples, d.triples, "{evaluator}");

            // The grown store labels every delta-minted triple exactly as
            // the live oracle would: the clusters the run touched are
            // filled already, and the rest fill to the same labels.
            let mut evolved_store = (**dense.store()).clone();
            for c in base.num_clusters()..evolved_store.num_clusters() {
                evolved_store.fill_cluster(c, &oracle);
            }
            assert_eq!(
                evolved_store.num_clusters(),
                base.num_clusters()
                    + batches
                        .iter()
                        .map(|b| b.num_delta_clusters())
                        .sum::<usize>()
            );
            for c in (base.num_clusters()..evolved_store.num_clusters()).step_by(97) {
                for o in 0..evolved_store.cluster_size(c).min(4) {
                    let t = TripleRef::new(c as u32, o as u32);
                    use kg_annotate::oracle::LabelOracle;
                    assert_eq!(evolved_store.label(t), oracle.label(t), "{t:?}");
                }
            }
        }
    }
}

#[test]
fn incremental_replay_over_pre_evolved_store_matches_live_growth() {
    // A trial loop over a fixed evolved sequence (the streaming benchmark's
    // shape): the store is extended once up front, and each replay reuses
    // it via reset() — extend_population sees already-covered ids and
    // no-ops. Results must equal the grow-as-you-go run.
    let base = ImplicitKg::new(vec![5; 400]).unwrap();
    let oracle = RemOracle::new(0.92, 77);
    let batches = UpdateGenerator::movie_like().sequence(6, 200, 3);
    let config = EvalConfig::default();

    let grow_store = Arc::new(LabelStore::materialize(&base, &oracle));
    let mut grown = DenseAnnotator::growable(grow_store, CostModel::default(), Arc::new(oracle));
    let g = run_incremental("RS", &base, &batches, config, &mut grown, 9);

    let mut evolved = LabelStore::materialize(&base, &oracle);
    for b in &batches {
        evolved.extend_with_batch(b, &oracle);
    }
    let mut replayed = DenseAnnotator::new(Arc::new(evolved), CostModel::default());
    for _ in 0..3 {
        replayed.reset();
        let r = run_incremental("RS", &base, &batches, config, &mut replayed, 9);
        assert_eq!(g.per_batch, r.per_batch);
        assert_eq!(g.seconds.to_bits(), r.seconds.to_bits());
        assert_eq!(g.triples, r.triples);
    }
}

// ---------------------------------------------------------------------------
// Churn suite: the §6 evaluators under interleaved inserts, deletions, and
// revisions.
//
// Retractions tombstone the annotators' live coordinate view, decrement the
// evaluators' PPS weights, and evict fully-dead reservoir members — all of
// it trial state on the engine side, so the hash and dense engines must
// remain byte-identical event by event, and replays over a pre-evolved
// store must match grow-as-you-go runs.
// ---------------------------------------------------------------------------

/// A movie-like churn stream with all three event kinds interleaved: the
/// generator emits revisions, and every third one is split into a pure
/// retraction followed by a pure insertion.
fn churn_events(
    base: &ImplicitKg,
    fraction: f64,
    count: usize,
    per_batch: u64,
    seed: u64,
) -> Vec<KgEvent> {
    let events = ChurnGenerator::movie_like(fraction).events(base, count, per_batch, seed);
    let mut out = Vec::new();
    for (i, event) in events.into_iter().enumerate() {
        match event {
            KgEvent::Revise(r, b) if i % 3 == 2 => {
                out.push(KgEvent::Retract(r));
                out.push(KgEvent::Insert(b));
            }
            event => out.push(event),
        }
    }
    out
}

fn run_churn(
    evaluator: &'static str,
    base: &ImplicitKg,
    events: &[KgEvent],
    config: EvalConfig,
    annotator: &mut dyn Annotator,
    seed: u64,
) -> SequenceTrace {
    let mut rng = StdRng::seed_from_u64(seed);
    let outcomes = match evaluator {
        "RS" => {
            let mut rs =
                ReservoirEvaluator::evaluate_base(base, 40, 5, config, annotator, &mut rng);
            run_event_sequence(&mut rs, events, config.alpha, annotator, &mut rng)
        }
        "SS" => {
            let base_est = PointEstimate::new(0.9, 0.0004, 60).unwrap();
            let mut ss = StratifiedIncremental::from_base(base, base_est, 5, config);
            run_event_sequence(&mut ss, events, config.alpha, annotator, &mut rng)
        }
        other => panic!("unknown evaluator {other}"),
    };
    SequenceTrace {
        per_batch: outcomes
            .iter()
            .map(|o| {
                (
                    o.estimate.mean.to_bits(),
                    o.estimate.var_of_mean.to_bits(),
                    o.cumulative_cost_seconds,
                )
            })
            .collect(),
        seconds: annotator.seconds(),
        entities: annotator.entities_identified(),
        triples: annotator.triples_annotated(),
    }
}

#[test]
fn churny_streams_are_byte_identical_across_engines() {
    let base = ImplicitKg::new((0..800).map(|i| 1 + (i % 12)).collect()).unwrap();
    let oracle = RemOracle::new(0.88, 43);
    for (fi, fraction) in [0.25, 0.5].into_iter().enumerate() {
        let events = churn_events(&base, fraction, 8, base.total_triples() / 10, 0x0dd);
        // All three event kinds actually appear in the stream.
        assert!(events.iter().any(|e| matches!(e, KgEvent::Insert(_))));
        assert!(events.iter().any(|e| matches!(e, KgEvent::Retract(_))));
        assert!(events.iter().any(|e| matches!(e, KgEvent::Revise(..))));
        for evaluator in ["RS", "SS"] {
            let seed = 2000 + fi as u64;
            let config = EvalConfig::default();
            let mut hash = SimulatedAnnotator::new(&oracle, CostModel::default());
            let h = run_churn(evaluator, &base, &events, config, &mut hash, seed);

            let store = Arc::new(LabelStore::materialize(&base, &oracle));
            let mut dense = DenseAnnotator::growable(store, CostModel::default(), Arc::new(oracle));
            let d = run_churn(evaluator, &base, &events, config, &mut dense, seed);

            assert_eq!(h.per_batch.len(), events.len(), "{evaluator} {fraction}");
            for (b, (hb, db)) in h.per_batch.iter().zip(&d.per_batch).enumerate() {
                assert_eq!(
                    hb.0, db.0,
                    "{evaluator} fraction {fraction} event {b}: mean bits"
                );
                assert_eq!(
                    hb.1, db.1,
                    "{evaluator} fraction {fraction} event {b}: var bits"
                );
                assert_eq!(
                    hb.2.to_bits(),
                    db.2.to_bits(),
                    "{evaluator} fraction {fraction} event {b}: cumulative cost"
                );
            }
            assert_eq!(h.seconds.to_bits(), d.seconds.to_bits(), "{evaluator}");
            assert_eq!(h.entities, d.entities, "{evaluator}");
            assert_eq!(h.triples, d.triples, "{evaluator}");
        }
    }
}

#[test]
fn churny_replay_over_pre_evolved_store_matches_live_growth() {
    // Same shape as the insert-only replay test, but with deletions in the
    // stream: tombstones are trial state cleared by reset(), so replays
    // over the pre-extended store must stay byte-identical to the
    // grow-as-you-go run — and to each other.
    let base = ImplicitKg::new(vec![5; 400]).unwrap();
    let oracle = RemOracle::new(0.92, 79);
    let events = churn_events(&base, 0.4, 6, 200, 5);
    let config = EvalConfig::default();

    let grow_store = Arc::new(LabelStore::materialize(&base, &oracle));
    let mut grown = DenseAnnotator::growable(grow_store, CostModel::default(), Arc::new(oracle));
    let g = run_churn("RS", &base, &events, config, &mut grown, 13);

    let mut evolved = LabelStore::materialize(&base, &oracle);
    for event in &events {
        if let Some(b) = event.inserted() {
            evolved.extend_with_batch(b, &oracle);
        }
    }
    let mut replayed = DenseAnnotator::new(Arc::new(evolved), CostModel::default());
    for _ in 0..3 {
        replayed.reset();
        let r = run_churn("RS", &base, &events, config, &mut replayed, 13);
        assert_eq!(g.per_batch, r.per_batch);
        assert_eq!(g.seconds.to_bits(), r.seconds.to_bits());
        assert_eq!(g.triples, r.triples);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every design, driven by both engines from the same seed, yields the
    /// same estimate (mean, variance, units) and the same cost books.
    #[test]
    fn estimators_and_costs_are_byte_identical(
        sizes in prop::collection::vec(1u32..40, 1..50),
        accuracy in 0.0f64..1.0,
        oracle_seed in 0u64..1_000_000,
        rng_seed in 0u64..1_000_000,
        batches in prop::collection::vec(1usize..12, 1..4),
    ) {
        let oracle = RemOracle::new(accuracy, oracle_seed);
        let idx = Arc::new(PopulationIndex::from_sizes(sizes).unwrap());
        let store = Arc::new(idx.materialize_labels(&oracle));
        let mut dense = DenseAnnotator::new(store, CostModel::default());

        for design in designs() {
            let mut hash_design = design.instantiate(idx.clone(), &oracle);
            let mut dense_design = design.instantiate(idx.clone(), &oracle);
            let mut hash_ann = SimulatedAnnotator::new(&oracle, CostModel::default());
            dense.reset();

            let mut hash_rng = StdRng::seed_from_u64(rng_seed);
            let mut dense_rng = StdRng::seed_from_u64(rng_seed);
            for &b in &batches {
                let h = hash_design.draw(&mut hash_rng, &mut hash_ann, b);
                let d = dense_design.draw(&mut dense_rng, &mut dense, b);
                prop_assert_eq!(h, d, "{}: drawn units diverged", design.name());
            }

            let he = hash_design.estimate();
            let de = dense_design.estimate();
            prop_assert_eq!(
                he.mean.to_bits(), de.mean.to_bits(),
                "{}: mean {} vs {}", design.name(), he.mean, de.mean
            );
            prop_assert_eq!(
                he.var_of_mean.to_bits(), de.var_of_mean.to_bits(),
                "{}: var {} vs {}", design.name(), he.var_of_mean, de.var_of_mean
            );
            prop_assert_eq!(hash_design.units(), dense_design.units());
            prop_assert_eq!(
                hash_ann.seconds().to_bits(), dense.seconds().to_bits(),
                "{}: cost {} vs {}", design.name(), hash_ann.seconds(), dense.seconds()
            );
            prop_assert_eq!(hash_ann.entities_identified(), dense.entities_identified());
            prop_assert_eq!(hash_ann.triples_annotated(), dense.triples_annotated());
        }
    }

    /// Raw label streams agree on arbitrary (repeating, interleaved)
    /// reference sequences, and so do the memo counts afterwards.
    #[test]
    fn labels_are_byte_identical(
        sizes in prop::collection::vec(1u32..30, 1..40),
        accuracy in 0.0f64..1.0,
        oracle_seed in 0u64..1_000_000,
        raw_refs in prop::collection::vec((0u32..1000, 0u32..1000), 1..120),
    ) {
        let oracle = RemOracle::new(accuracy, oracle_seed);
        let idx = Arc::new(PopulationIndex::from_sizes(sizes.clone()).unwrap());
        let store = Arc::new(idx.materialize_labels(&oracle));
        let refs: Vec<TripleRef> = raw_refs
            .into_iter()
            .map(|(c, o)| {
                let cluster = c as usize % sizes.len();
                TripleRef::new(cluster as u32, o % sizes[cluster])
            })
            .collect();

        let mut hash_ann = SimulatedAnnotator::new(&oracle, CostModel::default());
        let mut dense = DenseAnnotator::new(store, CostModel::default());
        let (mut hash_out, mut dense_out) = (Vec::new(), Vec::new());
        // Split the sequence into two batches to exercise cross-batch
        // memoization as well.
        let mid = refs.len() / 2;
        for part in [&refs[..mid], &refs[mid..]] {
            hash_ann.annotate_into(part, &mut hash_out);
            dense.annotate_into(part, &mut dense_out);
            prop_assert_eq!(&hash_out, &dense_out);
        }
        prop_assert_eq!(hash_ann.seconds().to_bits(), dense.seconds().to_bits());
        prop_assert_eq!(hash_ann.entities_identified(), dense.entities_identified());
        prop_assert_eq!(hash_ann.triples_annotated(), dense.triples_annotated());

        // Singleton API agrees too.
        for &r in refs.iter().rev() {
            prop_assert_eq!(hash_ann.annotate_one(r), dense.annotate_one(r));
        }
    }
}
