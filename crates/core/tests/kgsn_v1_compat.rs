//! `KGSN` v1 compatibility: records written while sessions could still
//! pick an annotation engine and a reservoir offer path, and before
//! sessions kept their annotation memo, must keep restoring and
//! continuing byte-identically, now that every session runs one resident
//! dense annotator on the batched path and checkpoints as `KGSN` v2.
//!
//! The fixtures under `tests/fixtures/kgsn_v1/` were generated at commit
//! `d37b21b`, the last one whose `SessionSpec` carried `engine` and
//! `offer_mode`. For each fixture, [`spec`] was registered with the
//! engine and offer path in its name (`ss_hash` and `rs_hash_batched` are
//! that commit's default spec: hash engine, batched offers), the first
//! [`CHECKPOINT_AFTER`] events of [`stream`] were applied one per request,
//! and `SessionRegistry::checkpoint` was hex-encoded into the file. The
//! remaining events were then applied one per request, and each reply's
//! `mean`/`var_of_mean` bits were recorded in [`FIXTURES`].

use kg_eval::config::EvalConfig;
use kg_eval::session::{EvaluatorKind, SessionError, SessionRegistry, SessionSpec};
use kg_model::retract::{KgEvent, Retraction};
use kg_model::update::UpdateBatch;
use kg_stats::codec::CodecError;

const CHECKPOINT_AFTER: usize = 2;

struct Fixture {
    name: &'static str,
    kind: EvaluatorKind,
    hex: &'static str,
    /// The record's engine and offer-path tag bytes (hash/per-item = 0,
    /// dense/batched = 1).
    tags: [u8; 2],
    /// `(mean, var_of_mean)` bits after each event past the checkpoint.
    next: [(u64, u64); 3],
}

const RS: EvaluatorKind = EvaluatorKind::Reservoir { capacity: 24 };
const RS_NEXT: [(u64, u64); 3] = [
    (0x3feb9855f7268ed9, 0x3f4296571f95f105),
    (0x3feb04eae234a576, 0x3f42e37d22a32523),
    (0x3febb586fb586fb4, 0x3f4320b0efa71cb3),
];

const FIXTURES: [Fixture; 4] = [
    Fixture {
        name: "rs_hash_per_item",
        kind: RS,
        hex: include_str!("fixtures/kgsn_v1/rs_hash_per_item.hex"),
        tags: [0, 0],
        next: RS_NEXT,
    },
    Fixture {
        name: "rs_dense_batched",
        kind: RS,
        hex: include_str!("fixtures/kgsn_v1/rs_dense_batched.hex"),
        tags: [1, 1],
        next: RS_NEXT,
    },
    Fixture {
        name: "rs_hash_batched",
        kind: RS,
        hex: include_str!("fixtures/kgsn_v1/rs_hash_batched.hex"),
        tags: [0, 1],
        next: RS_NEXT,
    },
    Fixture {
        name: "ss_hash",
        kind: EvaluatorKind::Stratified,
        hex: include_str!("fixtures/kgsn_v1/ss_hash.hex"),
        tags: [0, 1],
        next: [
            (0x3febc1eff01d3bce, 0x3f40d613c25330a6),
            (0x3feba6d14d7d6bfd, 0x3f4068915b72e508),
            (0x3feba6937189d2c0, 0x3f40672db418a0c5),
        ],
    },
];

fn spec(kind: EvaluatorKind) -> SessionSpec {
    SessionSpec {
        kind,
        m: 5,
        config: EvalConfig::default(),
        seed: 20190923,
        oracle_accuracy: 0.9,
        oracle_seed: 11,
        base_sizes: (0..120).map(|i| 1 + (i % 7)).collect(),
    }
}

/// Growth, deletions in base and inserted clusters, and a revision.
fn stream() -> Vec<KgEvent> {
    vec![
        KgEvent::Insert(UpdateBatch::from_sizes(vec![3; 20]).unwrap()),
        KgEvent::Retract(Retraction::new(vec![(2, vec![0]), (121, vec![1, 2])]).unwrap()),
        KgEvent::Revise(
            Retraction::new(vec![(125, vec![0, 1, 2])]).unwrap(),
            UpdateBatch::from_sizes(vec![5; 10]).unwrap(),
        ),
        KgEvent::Insert(UpdateBatch::from_sizes(vec![2; 15]).unwrap()),
        KgEvent::Retract(Retraction::new(vec![(7, vec![0]), (141, vec![0])]).unwrap()),
    ]
}

fn bytes(f: &Fixture) -> Vec<u8> {
    let hex = f.hex.trim();
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
        .collect()
}

/// Offset of the two reserved spec bytes: after the 6-byte header, the
/// kind tag, and (for RS) the 8-byte capacity.
fn reserved_at(kind: EvaluatorKind) -> usize {
    match kind {
        EvaluatorKind::Reservoir { .. } => 15,
        EvaluatorKind::Stratified => 7,
    }
}

#[test]
fn parent_records_restore_and_continue_byte_identically() {
    let events = stream();
    for f in &FIXTURES {
        let registry = SessionRegistry::new();
        let id = registry
            .restore(&bytes(f))
            .unwrap_or_else(|e| panic!("{}: {e}", f.name));
        let got: Vec<(u64, u64)> = events[CHECKPOINT_AFTER..]
            .iter()
            .map(|event| {
                let r = registry
                    .apply_events(id, std::slice::from_ref(event))
                    .unwrap();
                (r.mean.to_bits(), r.var_of_mean.to_bits())
            })
            .collect();
        assert_eq!(got, f.next, "{} diverged after restore", f.name);
    }
}

/// The recorded cumulative cost of a v1 record: its last 8 bytes.
fn recorded_cost_bits(v1: &[u8]) -> u64 {
    u64::from_le_bytes(v1[v1.len() - 8..].try_into().unwrap())
}

#[test]
fn default_spec_checkpoints_keep_the_parent_fields() {
    // A v2 record is the v1 record with version 2, without the two
    // reserved spec bytes, with the cost field holding the carried cost
    // (0 for a session registered on v2) and with the memo appended. So
    // every field the estimate stream depends on — spec, monitor state,
    // RNG cursor, batch log, tombstones, event count — keeps the parent's
    // bytes.
    for f in FIXTURES
        .iter()
        .filter(|f| matches!(f.name, "rs_hash_batched" | "ss_hash"))
    {
        let registry = SessionRegistry::new();
        let id = registry.register(spec(f.kind)).unwrap();
        for event in &stream()[..CHECKPOINT_AFTER] {
            registry
                .apply_events(id, std::slice::from_ref(event))
                .unwrap();
        }
        let v1 = bytes(f);
        let at = reserved_at(f.kind);
        let mut want = v1[..4].to_vec();
        want.extend_from_slice(&2u16.to_le_bytes());
        want.extend_from_slice(&v1[6..at]);
        want.extend_from_slice(&v1[at + 2..v1.len() - 8]);
        want.extend_from_slice(&0f64.to_bits().to_le_bytes());
        let v2 = registry.checkpoint(id).unwrap();
        assert!(v2.starts_with(&want), "{} fields changed", f.name);
        let memo = &v2[want.len()..];
        let identified = u64::from_le_bytes(memo[..8].try_into().unwrap());
        assert!(identified > 0, "{}: the memo is empty", f.name);
    }
}

#[test]
fn v1_records_revive_with_an_empty_memo_and_their_recorded_cost() {
    // A v1 record kept no memo, so the revived session starts one empty
    // and adds what it charges from then on to the record's cost.
    let events = stream();
    for f in &FIXTURES {
        let v1 = bytes(f);
        let registry = SessionRegistry::new();
        let id = registry.restore(&v1).unwrap();
        let revived = registry.estimate(id).unwrap();
        assert_eq!(
            revived.cumulative_cost_seconds.to_bits(),
            recorded_cost_bits(&v1),
            "{}: the recorded cost is lost",
            f.name
        );
        // Re-encoded as v2: the cost field carries the recorded cost and
        // both memo sections are empty (two zero lengths).
        let v2 = registry.checkpoint(id).unwrap();
        assert_eq!(v2[4..6], 2u16.to_le_bytes(), "{}", f.name);
        assert_eq!(v2[v2.len() - 16..], [0u8; 16], "{}: memo", f.name);
        assert_eq!(
            recorded_cost_bits(&v2[..v2.len() - 16]),
            recorded_cost_bits(&v1),
            "{}: carried cost",
            f.name
        );
        // The v2 record of the revived session continues exactly like the
        // revived session itself, cost included.
        let again = registry.restore(&v2).unwrap();
        for event in &events[CHECKPOINT_AFTER..] {
            let a = registry
                .apply_events(id, std::slice::from_ref(event))
                .unwrap();
            let b = registry
                .apply_events(again, std::slice::from_ref(event))
                .unwrap();
            assert_eq!(a, b, "{}: v2 re-encoding diverged", f.name);
        }
        let after = registry.estimate(id).unwrap().cumulative_cost_seconds;
        assert!(
            after > revived.cumulative_cost_seconds,
            "{}: later annotation was not charged on top",
            f.name
        );
    }
}

#[test]
fn reserved_bytes_outside_their_old_values_are_rejected() {
    for f in &FIXTURES {
        let at = reserved_at(f.kind);
        assert_eq!(bytes(f)[at..at + 2], f.tags, "{}: tag bytes", f.name);
        for at in [at, at + 1] {
            let mut bad = bytes(f);
            bad[at] = 2;
            assert!(
                matches!(
                    SessionRegistry::new().restore(&bad),
                    Err(SessionError::Codec(CodecError::Invalid { .. }))
                ),
                "{}: tag byte {at} = 2 restored",
                f.name
            );
        }
    }
}
