//! Concurrency stress for [`kg_eval::session`]: N tenants interleaved on
//! one shared registry (one `TrialExecutor`, interned label stores) must
//! produce estimate streams **byte-identical** to each tenant run
//! sequentially in its own isolated registry — at 1 and 4 executor
//! workers, and regardless of thread interleaving. Concurrent requests
//! on one write-through tenant leave a spill record that holds every
//! acknowledged event.

use kg_eval::config::EvalConfig;
use kg_eval::session::{EvaluatorKind, LifecyclePolicy, SessionRegistry, SessionSpec};
use kg_eval::{CheckpointStore, TrialExecutor};
use kg_model::retract::{KgEvent, Retraction};
use kg_model::update::UpdateBatch;
use std::sync::Barrier;
use std::thread;

const TENANTS: usize = 8;

fn spec_for(tenant: usize) -> SessionSpec {
    let base_clusters = 240 + 30 * (tenant % 3);
    let kind = if tenant.is_multiple_of(2) {
        EvaluatorKind::Reservoir { capacity: 40 }
    } else {
        EvaluatorKind::Stratified
    };
    SessionSpec {
        kind,
        m: 5,
        config: EvalConfig::default(),
        seed: 9000 + tenant as u64,
        oracle_accuracy: 0.85 + 0.02 * (tenant % 5) as f64,
        oracle_seed: 7 + (tenant % 3) as u64,
        base_sizes: (0..base_clusters)
            .map(|i| 1 + ((i + tenant) % 8) as u32)
            .collect(),
    }
}

fn stream_for(tenant: usize) -> Vec<KgEvent> {
    let base = (240 + 30 * (tenant % 3)) as u32;
    vec![
        KgEvent::Insert(UpdateBatch::from_sizes(vec![3; 40]).unwrap()),
        KgEvent::Retract(
            Retraction::new(vec![(tenant as u32 % 10, vec![0]), (base + 5, vec![0, 1])]).unwrap(),
        ),
        KgEvent::Revise(
            Retraction::new(vec![(base + 10, vec![2])]).unwrap(),
            UpdateBatch::from_sizes(vec![4; 25]).unwrap(),
        ),
        KgEvent::Insert(UpdateBatch::from_sizes(vec![2; 30]).unwrap()),
    ]
}

/// Everything a tenant's stream produced, bit-exactly.
type Trace = Vec<(u64, u64, usize, bool, u64)>;

fn drive(registry: &SessionRegistry, tenant: usize) -> Trace {
    let id = registry.register(spec_for(tenant)).unwrap();
    let mut trace = Vec::new();
    for event in stream_for(tenant) {
        let r = registry.apply_events(id, &[event]).unwrap();
        trace.push((
            r.mean.to_bits(),
            r.var_of_mean.to_bits(),
            r.units,
            r.saturated,
            r.live_triples,
        ));
    }
    let audit = registry.audit(id, 300, 0xBEEF ^ tenant as u64).unwrap();
    trace.push((
        audit.estimate.mean.to_bits(),
        audit.estimate.var_of_mean.to_bits(),
        audit.units as usize,
        false,
        audit.labeled,
    ));
    trace
}

fn isolated_traces(workers: usize) -> Vec<Trace> {
    (0..TENANTS)
        .map(|t| {
            let registry =
                SessionRegistry::with_executor(TrialExecutor::new().with_workers(workers));
            drive(&registry, t)
        })
        .collect()
}

fn interleaved_traces(workers: usize) -> Vec<Trace> {
    let registry = SessionRegistry::with_executor(TrialExecutor::new().with_workers(workers));
    let mut traces: Vec<Option<Trace>> = (0..TENANTS).map(|_| None).collect();
    thread::scope(|scope| {
        let registry = &registry;
        let handles: Vec<_> = (0..TENANTS)
            .map(|t| scope.spawn(move || drive(registry, t)))
            .collect();
        for (slot, handle) in traces.iter_mut().zip(handles) {
            *slot = Some(handle.join().expect("tenant thread panicked"));
        }
    });
    assert_eq!(registry.len(), TENANTS);
    traces.into_iter().map(|t| t.unwrap()).collect()
}

#[test]
fn interleaved_tenants_match_sequential_isolation_bytewise() {
    let reference = isolated_traces(1);
    for workers in [1usize, 4] {
        assert_eq!(
            isolated_traces(workers),
            reference,
            "isolated traces must be worker-invariant (workers={workers})"
        );
        assert_eq!(
            interleaved_traces(workers),
            reference,
            "interleaving leaked state across tenants (workers={workers})"
        );
    }
}

#[test]
fn checkpoints_taken_under_concurrency_restore_identically() {
    let registry = SessionRegistry::with_executor(TrialExecutor::new().with_workers(4));
    // Register + half-drive every tenant concurrently, checkpoint, then
    // finish both the live session and a restored copy in lockstep.
    let snapshots: Vec<(usize, u64, Vec<u8>)> = thread::scope(|scope| {
        let registry = &registry;
        let handles: Vec<_> = (0..TENANTS)
            .map(|t| {
                scope.spawn(move || {
                    let id = registry.register(spec_for(t)).unwrap();
                    let events = stream_for(t);
                    for event in &events[..2] {
                        registry
                            .apply_events(id, std::slice::from_ref(event))
                            .unwrap();
                    }
                    (t, id, registry.checkpoint(id).unwrap())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let fresh = SessionRegistry::new();
    for (t, live_id, bytes) in snapshots {
        let restored_id = fresh.restore(&bytes).unwrap();
        for event in &stream_for(t)[2..] {
            let live = registry
                .apply_events(live_id, std::slice::from_ref(event))
                .unwrap();
            let restored = fresh
                .apply_events(restored_id, std::slice::from_ref(event))
                .unwrap();
            assert_eq!(live.mean.to_bits(), restored.mean.to_bits(), "tenant {t}");
            assert_eq!(
                live.var_of_mean.to_bits(),
                restored.var_of_mean.to_bits(),
                "tenant {t}"
            );
            assert_eq!(live.units, restored.units, "tenant {t}");
        }
    }
}

#[test]
fn concurrent_write_through_record_holds_every_acknowledged_event() {
    const THREADS: usize = 4;
    const REQUESTS: usize = 120;
    let dir = std::env::temp_dir().join(format!("kg-stress-wt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let registry = SessionRegistry::with_lifecycle(
        TrialExecutor::new().with_workers(1),
        LifecyclePolicy {
            write_through: true,
            ..LifecyclePolicy::default()
        },
        CheckpointStore::open(&dir).unwrap(),
    );
    let id = registry.register(spec_for(0)).unwrap();
    // Every thread's requests land on the one tenant, so its saves race
    // with each other unless they are serialised.
    let start = Barrier::new(THREADS);
    let acknowledged: u64 = thread::scope(|scope| {
        let (registry, start) = (&registry, &start);
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                scope.spawn(move || {
                    start.wait();
                    let mut events = 0;
                    for r in 0..REQUESTS {
                        let request: Vec<KgEvent> = (0..1 + (t + r) % 3)
                            .map(|_| KgEvent::Insert(UpdateBatch::from_sizes(vec![2; 3]).unwrap()))
                            .collect();
                        registry.apply_events(id, &request).unwrap();
                        events += request.len() as u64;
                    }
                    events
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    assert_eq!(registry.stats().persist_failures, 0);
    let record = registry.store().unwrap().load(id).unwrap();
    let revived = SessionRegistry::new();
    let revived_id = revived.restore(&record).unwrap();
    assert_eq!(
        revived.estimate(revived_id).unwrap().events_applied,
        acknowledged,
        "the last record written is not the last acknowledged state"
    );
    assert_eq!(record, registry.checkpoint(id).unwrap());
    let _ = std::fs::remove_dir_all(&dir);
}
