//! Property suite for the session spill path (`CheckpointStore` +
//! `SessionRegistry` revival), over randomized specs and event streams:
//!
//! 1. **Spill → revive → spill is byte-stable** — a session checkpointed
//!    to disk, recovered in a fresh registry, and checkpointed again
//!    reproduces the identical `KGSN` byte string, and its served
//!    estimate matches the never-spilled original bit for bit.
//! 2. **Hostile spill records fail typed and contained** — truncations,
//!    bit flips, version/magic skew of the on-disk record surface as
//!    typed errors (never a panic), the poisoned session is dropped, and
//!    co-tenant sessions are untouched.
//! 3. **The store moves arbitrary bytes faithfully** — save/load/ids
//!    round-trip any payload (the atomic-write layer is content-blind).
//! 4. **Hostile memo sections fail typed** — a `KGSN` v2 record whose
//!    annotation memo claims a length past the record, an identified
//!    cluster past the extent, or labelled bits outside the identified
//!    clusters fails to revive with a typed error, and the co-tenant is
//!    untouched.

use kg_annotate::cost::CostModel;
use kg_eval::session::{
    EvaluatorKind, LifecyclePolicy, SessionError, SessionRegistry, SessionSpec,
};
use kg_eval::{CheckpointStore, EvalConfig, TrialExecutor};
use kg_model::retract::{KgEvent, Retraction};
use kg_model::update::UpdateBatch;
use kg_stats::codec::CodecError;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Per-case scratch directory (proptest runs cases in sequence, but a
/// shared dir would alias session ids across cases).
fn scratch() -> PathBuf {
    static CASE: AtomicU64 = AtomicU64::new(0);
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("kg-spill-props-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn registry_with_store(dir: &std::path::Path) -> SessionRegistry {
    SessionRegistry::with_lifecycle(
        TrialExecutor::new().with_workers(2),
        LifecyclePolicy::default(),
        CheckpointStore::open(dir).expect("open store"),
    )
}

fn spec_from(base_sizes: Vec<u32>, seed: u64, stratified: bool) -> SessionSpec {
    SessionSpec {
        kind: if stratified {
            EvaluatorKind::Stratified
        } else {
            EvaluatorKind::Reservoir {
                capacity: 1 + (seed % 32) as usize,
            }
        },
        m: 4,
        config: EvalConfig::default(),
        seed,
        oracle_accuracy: 0.85,
        oracle_seed: seed.rotate_left(17),
        base_sizes,
    }
}

/// Turn the raw op stream into valid events: inserts pass through;
/// retract hints burn one not-yet-dead offset of the hinted base
/// cluster, skipping exhausted clusters (retractions must never
/// double-kill or run past a cluster's size).
fn events_from(base_sizes: &[u32], ops: &[(bool, u8, Vec<u32>)]) -> (Vec<KgEvent>, Vec<u32>) {
    let mut burned = vec![0u32; base_sizes.len()];
    let mut events = Vec::new();
    for (is_insert, cluster_hint, ins_sizes) in ops {
        if *is_insert && !ins_sizes.is_empty() {
            events.push(KgEvent::Insert(
                UpdateBatch::from_sizes(ins_sizes.clone()).expect("positive sizes"),
            ));
        } else {
            let c = usize::from(*cluster_hint) % base_sizes.len();
            if burned[c] < base_sizes[c] {
                events.push(KgEvent::Retract(
                    Retraction::new(vec![(c as u32, vec![burned[c]])]).expect("valid retraction"),
                ));
                burned[c] += 1;
            }
        }
    }
    (events, burned)
}

fn bits(registry: &SessionRegistry, id: u64) -> (u64, u64, usize, u64) {
    let r = registry.estimate(id).expect("estimate");
    (
        r.mean.to_bits(),
        r.var_of_mean.to_bits(),
        r.units,
        r.events_applied,
    )
}

fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"))
}

/// Locate the memo that closes a `KGSN` v2 record of a session
/// registered on v2: `(identified count offset, identified, words count
/// offset, words)`. The memo follows the carried cost, which is 0.0 for
/// such a session, and the served cost is c1 per identified cluster plus
/// c2 per labelled bit; the layout is the one whose counts agree with all
/// of that.
fn memo_layout(bytes: &[u8], cost_seconds: f64) -> (usize, usize, usize, usize) {
    let cost = CostModel::default();
    for w in 0..bytes.len() / 8 {
        let Some(words_at) = bytes.len().checked_sub(8 + 8 * w) else {
            break;
        };
        if u64_at(bytes, words_at) != w as u64 {
            continue;
        }
        let labelled: u32 = (0..w)
            .map(|i| u64_at(bytes, words_at + 8 + 8 * i).count_ones())
            .sum();
        for k in 0..words_at / 4 {
            let Some(ids_at) = words_at.checked_sub(8 + 4 * k) else {
                break;
            };
            if ids_at >= 8
                && u64_at(bytes, ids_at) == k as u64
                && u64_at(bytes, ids_at - 8) == 0f64.to_bits()
                && k as f64 * cost.c1 + f64::from(labelled) * cost.c2 == cost_seconds
            {
                return (ids_at, k, words_at, w);
            }
        }
    }
    panic!("no memo layout matches the record");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn spill_revive_spill_is_byte_stable(
        base_sizes in prop::collection::vec(1u32..6, 4..32),
        ops in prop::collection::vec(
            (any::<bool>(), any::<u8>(), prop::collection::vec(1u32..5, 1..12)),
            0..10,
        ),
        seed in any::<u64>(),
        stratified in any::<bool>(),
    ) {
        let spec = spec_from(base_sizes.clone(), seed, stratified);
        let (events, _) = events_from(&base_sizes, &ops);

        let origin = SessionRegistry::new();
        let id = origin.register(spec).expect("register");
        for event in &events {
            origin.apply_events(id, std::slice::from_ref(event)).expect("apply");
        }
        let want_bits = bits(&origin, id);
        let bytes = origin.checkpoint(id).expect("checkpoint");

        // Plant the record as a spill file and revive it elsewhere.
        let dir = scratch();
        let revived = registry_with_store(&dir);
        revived.store().unwrap().save(id, &bytes).expect("save spill");
        prop_assert_eq!(revived.recover_from_store().expect("recover"), 1);
        prop_assert!(!revived.is_live(id), "recovered sessions start spilled");
        prop_assert_eq!(bits(&revived, id), want_bits);
        prop_assert!(revived.is_live(id), "first touch revives");

        // Byte stability: revive → checkpoint reproduces the record.
        prop_assert_eq!(revived.checkpoint(id).expect("checkpoint"), bytes.clone());

        // And a second spill cycle (explicit evict) stays stable on disk.
        prop_assert!(revived.evict(id).expect("evict"));
        prop_assert_eq!(
            revived.store().unwrap().load(id).expect("load"),
            bytes.clone()
        );
        prop_assert_eq!(bits(&revived, id), want_bits);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn hostile_spill_records_fail_typed_and_leave_cotenants_alone(
        base_sizes in prop::collection::vec(1u32..6, 4..24),
        ops in prop::collection::vec(
            (any::<bool>(), any::<u8>(), prop::collection::vec(1u32..5, 1..8)),
            0..6,
        ),
        seed in any::<u64>(),
        cut_hint in any::<u64>(),
        flip_hint in any::<u64>(),
    ) {
        let dir = scratch();
        let registry = registry_with_store(&dir);
        let victim = registry
            .register(spec_from(base_sizes.clone(), seed, false))
            .expect("register victim");
        let cotenant = registry
            .register(spec_from(base_sizes.clone(), seed ^ 0x5A5A, true))
            .expect("register cotenant");
        let (events, _) = events_from(&base_sizes, &ops);
        for event in &events {
            registry.apply_events(victim, std::slice::from_ref(event)).expect("apply");
        }
        let cotenant_bits = bits(&registry, cotenant);
        prop_assert!(registry.evict(victim).expect("evict"));
        let store_path = registry.store().unwrap().path_for(victim);
        let full = std::fs::read(&store_path).expect("read spill");

        // Truncate at a random cut: typed codec error, session dropped,
        // spill file cleaned up.
        let cut = (cut_hint as usize) % full.len();
        std::fs::write(&store_path, &full[..cut]).expect("tear spill");
        match registry.estimate(victim) {
            Err(SessionError::Codec(_)) => {}
            other => prop_assert!(false, "torn spill must fail typed, got {other:?}"),
        }
        prop_assert!(matches!(
            registry.estimate(victim),
            Err(SessionError::UnknownSession(_))
        ), "poisoned session must be dropped");
        prop_assert!(!registry.store().unwrap().contains(victim));
        prop_assert_eq!(registry.stats().corrupt_dropped, 1);

        // The co-tenant never notices.
        prop_assert_eq!(bits(&registry, cotenant), cotenant_bits);

        // Wrong version / wrong magic / arbitrary bit flip: plant again
        // and poison differently — typed failure or a valid decode
        // (a flip inside an f64 payload can round-trip), never a panic.
        let store = registry.store().unwrap();
        let mut skewed = full.clone();
        skewed[4] ^= 0x10;
        store.save(victim, &skewed).expect("plant skewed");
        prop_assert_eq!(registry.recover_from_store().expect("recover"), 1);
        match registry.estimate(victim) {
            Err(SessionError::Codec(_)) => {}
            other => prop_assert!(false, "version skew must fail typed, got {other:?}"),
        }
        let mut flipped = full.clone();
        let at = (flip_hint as usize) % flipped.len();
        flipped[at] ^= 0xA5;
        store.save(victim, &flipped).expect("plant flipped");
        prop_assert_eq!(registry.recover_from_store().expect("recover"), 1);
        let _ = registry.estimate(victim); // typed error or valid decode; never a panic
        prop_assert_eq!(bits(&registry, cotenant), cotenant_bits);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn hostile_memo_sections_fail_typed(
        base_sizes in prop::collection::vec(1u32..6, 4..24),
        ops in prop::collection::vec(
            (any::<bool>(), any::<u8>(), prop::collection::vec(1u32..5, 1..8)),
            0..6,
        ),
        seed in any::<u64>(),
        stratified in any::<bool>(),
        pick in any::<u64>(),
    ) {
        let dir = scratch();
        let registry = registry_with_store(&dir);
        let victim = registry
            .register(spec_from(base_sizes.clone(), seed, stratified))
            .expect("register victim");
        let cotenant = registry
            .register(spec_from(base_sizes.clone(), seed ^ 0x5A5A, !stratified))
            .expect("register cotenant");
        let (events, _) = events_from(&base_sizes, &ops);
        for event in &events {
            registry.apply_events(victim, std::slice::from_ref(event)).expect("apply");
        }
        let cotenant_bits = bits(&registry, cotenant);
        let cost = registry.estimate(victim).expect("estimate").cumulative_cost_seconds;
        let record = registry.checkpoint(victim).expect("checkpoint");
        let (ids_at, k, words_at, w) = memo_layout(&record, cost);
        prop_assert!(k > 0 && w > 0, "the base evaluation annotates");

        let mut hostile: Vec<(Vec<u8>, bool)> = Vec::new();
        // A length past the record, in either section: typed before any
        // allocation.
        let at = if pick.is_multiple_of(2) { ids_at } else { words_at };
        let mut bad = record.clone();
        let claimed = (record.len() - at) as u64 + (pick >> 1) % 1024;
        bad[at..at + 8].copy_from_slice(&claimed.to_le_bytes());
        hostile.push((bad, true));
        // An identified cluster past the extent.
        let mut bad = record.clone();
        bad[words_at - 4..words_at].copy_from_slice(&u32::MAX.to_le_bytes());
        hostile.push((bad, false));
        // Labelled bits of a cluster that was never identified: one more
        // word than the identified ranges need.
        let mut bad = record.clone();
        bad[words_at..words_at + 8].copy_from_slice(&(w as u64 + 1).to_le_bytes());
        bad.extend_from_slice(&(1u64 << (pick % 64)).to_le_bytes());
        hostile.push((bad, false));

        prop_assert!(registry.evict(victim).expect("evict"));
        let store = registry.store().unwrap();
        for (bad, length) in hostile {
            store.save(victim, &bad).expect("plant hostile record");
            registry.recover_from_store().expect("recover");
            match registry.estimate(victim) {
                Err(SessionError::Codec(CodecError::LengthOverflow { .. })) if length => {}
                Err(SessionError::Codec(CodecError::Invalid { .. })) if !length => {}
                other => prop_assert!(false, "hostile memo must fail typed, got {other:?}"),
            }
            prop_assert!(!registry.store().unwrap().contains(victim));
            prop_assert_eq!(bits(&registry, cotenant), cotenant_bits);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_round_trips_arbitrary_payloads(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..512), 1..8),
    ) {
        let dir = scratch();
        let store = CheckpointStore::open(&dir).expect("open");
        for (i, payload) in payloads.iter().enumerate() {
            store.save(i as u64, payload).expect("save");
        }
        let ids = store.ids().expect("ids");
        prop_assert_eq!(ids.len(), payloads.len());
        for (i, payload) in payloads.iter().enumerate() {
            prop_assert_eq!(&store.load(i as u64).expect("load"), payload);
        }
        // Overwrites replace content; removals really remove.
        store.save(0, b"replacement").expect("overwrite");
        prop_assert_eq!(store.load(0).expect("load"), b"replacement".to_vec());
        prop_assert!(store.remove(0).expect("remove"));
        prop_assert!(!store.contains(0));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
