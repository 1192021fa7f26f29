//! Crash-recovery regression suite for the session lifecycle layer.
//!
//! The scenario that motivates this file: a write-through registry is
//! killed, some spill records are lost to disk corruption, and clients
//! re-register the lost tenants from their own checkpoint backups. Two
//! properties must hold:
//!
//! 1. **Ids never recycle.** A session id handed to a client must stay
//!    unique across crash/restart even when the spill records that would
//!    witness it are torn or deleted. Before the persisted id floor,
//!    `recover_from_store` advanced `next_id` only past the *surviving*
//!    records, so losing the highest-id record let `restore` re-mint a
//!    dead tenant's id — and a client holding the stale id silently
//!    received another tenant's estimates.
//! 2. **Restored tenants continue byte-identically.** After recovery plus
//!    client-side re-registration, every tenant's estimate stream matches
//!    a fault-free replay bit for bit, under eviction churn.

use kg_eval::session::{
    EvaluatorKind, LifecyclePolicy, SessionError, SessionRegistry, SessionSpec,
};
use kg_eval::{CheckpointStore, EvalConfig, TrialExecutor};
use kg_model::retract::{KgEvent, Retraction};
use kg_model::update::UpdateBatch;
use std::path::PathBuf;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kg-lifecycle-rec-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn lifecycle_registry(dir: &std::path::Path, max_live: usize) -> SessionRegistry {
    SessionRegistry::with_lifecycle(
        TrialExecutor::new().with_workers(2),
        LifecyclePolicy {
            max_live: Some(max_live),
            idle_ttl: None,
            write_through: true,
        },
        CheckpointStore::open(dir).expect("open store"),
    )
}

/// The kg-bench serve/chaos tenant families, reproduced locally: eight
/// spec shapes cycling through evaluator kind, base KG, and oracle.
fn spec_for(seed: u64, tenant: usize) -> SessionSpec {
    let f = tenant % 8;
    let kind = if f.is_multiple_of(2) {
        EvaluatorKind::Reservoir {
            capacity: 32 + 16 * ((f / 4) % 2),
        }
    } else {
        EvaluatorKind::Stratified
    };
    let base = 96 + 8 * f;
    SessionSpec {
        kind,
        m: 5,
        config: EvalConfig::default(),
        seed: seed ^ ((tenant as u64) * 0x9E37_79B9),
        oracle_accuracy: 0.84 + 0.02 * (f % 6) as f64,
        oracle_seed: 11 + f as u64,
        base_sizes: (0..base).map(|i| 1 + ((i + f) as u32) % 7).collect(),
    }
}

fn script_for(tenant: usize) -> Vec<KgEvent> {
    let base = (96 + 8 * (tenant % 8)) as u32;
    vec![
        KgEvent::Insert(UpdateBatch::from_sizes(vec![3; 6 + tenant % 4]).expect("sizes")),
        KgEvent::Retract(
            Retraction::new(vec![((tenant as u32) % base, vec![0])]).expect("retraction"),
        ),
        KgEvent::Revise(
            Retraction::new(vec![((tenant as u32 + 3) % base, vec![0])]).expect("retraction"),
            UpdateBatch::from_sizes(vec![2; 5]).expect("sizes"),
        ),
    ]
}

fn bits(r: &kg_eval::session::EstimateReport) -> (u64, u64, usize) {
    (r.mean.to_bits(), r.var_of_mean.to_bits(), r.units)
}

/// Losing the highest-id spill records must not let `restore` re-mint
/// those ids: the persisted id floor keeps minted ids unique, so a stale
/// client handle can never alias a freshly restored tenant.
#[test]
fn lost_records_never_recycle_session_ids() {
    let seed = 77u64;
    let dir = scratch("no-recycle");

    let reg = lifecycle_registry(&dir, 8);
    let ids: Vec<u64> = (0..3)
        .map(|t| reg.register(spec_for(seed, t)).unwrap())
        .collect();
    let backup = reg.checkpoint(ids[2]).unwrap();
    drop(reg);

    // The crash eats the highest-id tenant's record.
    let reg = lifecycle_registry(&dir, 8);
    std::fs::remove_file(reg.store().unwrap().path_for(ids[2])).unwrap();
    assert_eq!(reg.recover_from_store().unwrap(), 2);

    // Its client re-registers from backup: the new id must be fresh.
    let new_id = reg.restore(&backup).unwrap();
    assert!(
        !ids.contains(&new_id),
        "restore re-minted a previously issued id {new_id} (issued: {ids:?})"
    );
    // The stale handle stays dead rather than aliasing anyone.
    assert!(matches!(
        reg.estimate(ids[2]),
        Err(SessionError::UnknownSession(_))
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Full crash → recover → re-register cycle under LRU churn: every
/// tenant — revived and restored alike — continues byte-identically to
/// a fault-free replay.
#[test]
fn restored_tenants_continue_byte_identically_under_churn() {
    let seed = 4242u64;
    let tenants = 12;
    let rounds = 3;
    let victims = [5usize, 7, 11];

    // Fault-free reference.
    let local = SessionRegistry::new();
    let mut expected = Vec::new();
    for t in 0..tenants {
        let lid = local.register(spec_for(seed, t)).unwrap();
        let per_round: Vec<_> = script_for(t)
            .into_iter()
            .map(|event| {
                bits(
                    &local
                        .apply_events(lid, std::slice::from_ref(&event))
                        .unwrap(),
                )
            })
            .collect();
        expected.push(per_round);
    }

    // Round 0 under an LRU cap far below the tenant count.
    let dir = scratch("churn");
    let reg = lifecycle_registry(&dir, 4);
    let mut ids: Vec<u64> = (0..tenants)
        .map(|t| reg.register(spec_for(seed, t)).unwrap())
        .collect();
    for t in 0..tenants {
        let rep = reg
            .apply_events(ids[t], std::slice::from_ref(&script_for(t)[0]))
            .unwrap();
        assert_eq!(bits(&rep), expected[t][0], "round 0 tenant {t}");
    }

    // Clients hold checkpoint backups; the crash then eats the victims'
    // spill records.
    let backups: Vec<(usize, Vec<u8>)> = victims
        .iter()
        .map(|&v| (v, reg.checkpoint(ids[v]).unwrap()))
        .collect();
    drop(reg);
    let reg = lifecycle_registry(&dir, 4);
    for &v in &victims {
        std::fs::remove_file(reg.store().unwrap().path_for(ids[v])).unwrap();
    }
    assert_eq!(reg.recover_from_store().unwrap(), tenants - victims.len());

    // Victims re-register from backup; everyone else revives lazily.
    for (v, ck) in &backups {
        assert!(reg.estimate(ids[*v]).is_err(), "victim {v} should be gone");
        ids[*v] = reg.restore(ck).unwrap();
        let rep = reg.estimate(ids[*v]).unwrap();
        assert_eq!(bits(&rep), expected[*v][0], "restored report tenant {v}");
    }

    // Remaining rounds stay byte-identical for every tenant.
    #[allow(clippy::needless_range_loop)] // r/t index ids, scripts, and expected in lockstep
    for r in 1..rounds {
        for t in 0..tenants {
            let rep = reg
                .apply_events(ids[t], std::slice::from_ref(&script_for(t)[r]))
                .unwrap();
            assert_eq!(bits(&rep), expected[t][r], "round {r} tenant {t}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A state directory written by a build that kept bare records and
/// rotated spares: recovery adopts every record, sweeps the spares and
/// temp files, revives each session byte-identically, and later saves
/// move the records into slots without losing a request.
#[test]
fn an_older_builds_state_directory_recovers_byte_identically() {
    let seed = 91u64;
    let dir = scratch("legacy-dir");
    std::fs::create_dir_all(&dir).unwrap();
    let origin = SessionRegistry::new();
    let ids: Vec<u64> = (0..4)
        .map(|t| {
            let id = origin.register(spec_for(seed, t)).unwrap();
            origin.apply_events(id, &script_for(t)[..2]).unwrap();
            id
        })
        .collect();
    let records: Vec<Vec<u8>> = ids
        .iter()
        .map(|&id| origin.checkpoint(id).unwrap())
        .collect();
    let dead_pid = std::process::id().wrapping_add(1);
    for (&id, record) in ids.iter().zip(&records) {
        let path = dir.join(format!("session-{id}.kgsn"));
        std::fs::write(&path, record).unwrap();
        match id % 3 {
            // Killed between link and rename: one spare is the record.
            0 => {
                std::fs::hard_link(&path, dir.join(format!("session-{id}.kgsn.a"))).unwrap();
                std::fs::write(dir.join(format!("session-{id}.kgsn.b")), b"KGSN unsaved").unwrap();
            }
            1 => std::fs::write(dir.join(format!("session-{id}.kgsn.b")), b"KGSN spare").unwrap(),
            _ => std::fs::write(
                dir.join(format!("session-{id}.kgsn.{dead_pid}.tmp")),
                b"KGSN torn",
            )
            .unwrap(),
        }
    }
    let floor = ids.iter().max().unwrap() + 5;
    std::fs::write(dir.join("next-id"), floor.to_string()).unwrap();
    std::fs::write(dir.join("next-id.a"), b"3").unwrap();
    std::fs::write(dir.join(format!("next-id.{dead_pid}.tmp")), b"2").unwrap();
    std::fs::write(dir.join("session-999.kgsn.a"), b"KGSN never saved").unwrap();

    let reg = lifecycle_registry(&dir, 2);
    assert_eq!(reg.recover_from_store().unwrap(), ids.len());
    let mut left: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    left.sort();
    let mut want: Vec<String> = ids.iter().map(|id| format!("session-{id}.kgsn")).collect();
    want.push("next-id".to_string());
    want.sort();
    assert_eq!(left, want, "recovery sweeps every spare and temp file");
    for (t, (&id, record)) in ids.iter().zip(&records).enumerate() {
        assert_eq!(&reg.checkpoint(id).unwrap(), record, "tenant {t}");
        assert_eq!(
            bits(&reg.estimate(id).unwrap()),
            bits(&origin.estimate(id).unwrap())
        );
    }
    assert!(reg.register(spec_for(seed, 9)).unwrap() >= floor);

    // Write-through saves over the bare records, under eviction churn.
    for (t, &id) in ids.iter().enumerate() {
        let event = &script_for(t)[2..];
        reg.apply_events(id, event).unwrap();
        origin.apply_events(id, event).unwrap();
    }
    drop(reg);
    let reg = lifecycle_registry(&dir, 2);
    assert_eq!(reg.recover_from_store().unwrap(), ids.len() + 1);
    for &id in &ids {
        assert_eq!(
            reg.checkpoint(id).unwrap(),
            origin.checkpoint(id).unwrap(),
            "write-through over a bare record lost a request"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
