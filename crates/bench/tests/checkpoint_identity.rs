//! Checkpoint/restore byte-identity — the signature invariant of the
//! session-scoped monitor runtime.
//!
//! For both evaluator kinds (RS and SS), a monitor checkpointed after
//! *any* prefix of a churn stream and restored into a fresh registry must
//! finish the stream with estimates byte-identical to the uninterrupted
//! run — not approximately equal, `f64::to_bits` equal. Wired into the CI
//! determinism job alongside `offer_identity` and `churn_identity`, which
//! cover engine and offer-path identity at the monitor level.

use kg_eval::config::EvalConfig;
use kg_eval::session::{EvaluatorKind, SessionRegistry, SessionSpec};
use kg_model::retract::{KgEvent, Retraction};
use kg_model::update::UpdateBatch;

const SEED: u64 = 20190923;

fn spec(kind: EvaluatorKind) -> SessionSpec {
    SessionSpec {
        kind,
        m: 5,
        config: EvalConfig::default(),
        seed: SEED,
        oracle_accuracy: 0.9,
        oracle_seed: 11,
        base_sizes: (0..400).map(|i| 1 + (i % 9)).collect(),
    }
}

/// A five-event churn stream over the 400-cluster base: growth,
/// deletions inside base and inserted clusters, and a revision.
fn stream() -> Vec<KgEvent> {
    vec![
        KgEvent::Insert(UpdateBatch::from_sizes(vec![3; 60]).expect("sizes")),
        KgEvent::Retract(
            Retraction::new(vec![(2, vec![0]), (401, vec![1, 2])]).expect("retraction"),
        ),
        KgEvent::Revise(
            Retraction::new(vec![(405, vec![0, 1, 2])]).expect("retraction"),
            UpdateBatch::from_sizes(vec![5; 30]).expect("sizes"),
        ),
        KgEvent::Insert(UpdateBatch::from_sizes(vec![2; 45]).expect("sizes")),
        KgEvent::Retract(Retraction::new(vec![(7, vec![0]), (436, vec![0])]).expect("retraction")),
    ]
}

type Bits = (u64, u64, usize, bool);

fn bits(r: &kg_eval::EstimateReport) -> Bits {
    (
        r.mean.to_bits(),
        r.var_of_mean.to_bits(),
        r.units,
        r.saturated,
    )
}

/// Drive the full stream uninterrupted, one event per request.
fn uninterrupted(spec: &SessionSpec) -> Vec<Bits> {
    let registry = SessionRegistry::new();
    let id = registry.register(spec.clone()).expect("register");
    stream()
        .into_iter()
        .map(|event| bits(&registry.apply_events(id, &[event]).expect("apply")))
        .collect()
}

/// Checkpoint after `k` events, restore into a fresh registry, finish.
fn interrupted_at(spec: &SessionSpec, k: usize) -> Vec<Bits> {
    let events = stream();
    let first = SessionRegistry::new();
    let id = first.register(spec.clone()).expect("register");
    let mut out = Vec::new();
    for event in &events[..k] {
        out.push(bits(
            &first
                .apply_events(id, std::slice::from_ref(event))
                .expect("apply"),
        ));
    }
    let payload = first.checkpoint(id).expect("checkpoint");
    drop(first);

    let second = SessionRegistry::new();
    let id = second.restore(&payload).expect("restore");
    for event in &events[k..] {
        out.push(bits(
            &second
                .apply_events(id, std::slice::from_ref(event))
                .expect("apply"),
        ));
    }
    out
}

fn combos() -> [(&'static str, SessionSpec); 2] {
    [
        ("rs", spec(EvaluatorKind::Reservoir { capacity: 60 })),
        ("ss", spec(EvaluatorKind::Stratified)),
    ]
}

#[test]
fn every_checkpoint_position_restores_byte_identically() {
    let n = stream().len();
    for (name, spec) in combos() {
        let want = uninterrupted(&spec);
        for k in 0..=n {
            let got = interrupted_at(&spec, k);
            assert_eq!(
                got, want,
                "{name} diverged when checkpointed after event {k}"
            );
        }
    }
}

#[test]
fn checkpoints_are_stable_bytes() {
    // Re-encoding a restored session yields the identical payload: the
    // codec has one canonical form, so artifacts can be diffed.
    for (name, spec) in combos() {
        let registry = SessionRegistry::new();
        let id = registry.register(spec.clone()).expect("register");
        for event in &stream()[..3] {
            registry
                .apply_events(id, std::slice::from_ref(event))
                .expect("apply");
        }
        let payload = registry.checkpoint(id).expect("checkpoint");
        let fresh = SessionRegistry::new();
        let rid = fresh.restore(&payload).expect("restore");
        let again = fresh.checkpoint(rid).expect("re-checkpoint");
        assert_eq!(payload, again, "{name} payload unstable");
    }
}
