//! Session-scoped monitor runtime: tenant sessions over the §6
//! incremental evaluators, with versioned checkpoint/restore.
//!
//! A [`SessionRegistry`] owns many tenant *sessions*. Each session is the
//! complete, explicit state of one accuracy monitor — a resident
//! annotator over the gross-population [`LabelStore`], an extractable
//! [`MonitorState`], and an RNG cursor — while heavyweight machinery (the
//! [`TrialExecutor`], and one materialized base [`LabelStore`] per distinct
//! base KG) is shared across tenants through an interned catalog.
//!
//! # Request model and the checkpoint invariant
//!
//! Each session owns **one resident [`DenseAnnotator`]**, built when the
//! session registers (or revives) and kept for its whole life. It holds
//! the session's gross (insert-only) [`LabelStore`], the memo of every
//! triple annotated so far, and the tombstones of every retraction. Every
//! request (a batch of [`KgEvent`]s, an estimate read, an audit) rebuilds
//! its evaluator from the session's [`MonitorState`] and drives it
//! through that annotator. Inserted clusters join the store *pending*:
//! the annotator fills a cluster's labels from the session's oracle the
//! first time it touches it (see [`kg_annotate::label_store`]), so a
//! request pays the oracle only for the clusters its monitor annotates.
//! Validation, the live-triple count and the audit's live view read the
//! annotator's tombstones; the count is O(1). Every session runs this one
//! engine on the batched reservoir offer path. Estimates are a pure
//! function of `(MonitorState, RNG cursor, oracle labels under the live
//! view)`, so a session checkpointed mid-stream
//! ([`SessionRegistry::checkpoint`]) and restored in a fresh process
//! ([`SessionRegistry::restore`]) produces **byte-identical** estimates
//! to the uninterrupted run — and the estimate stream is invariant to how
//! events are partitioned into requests.
//!
//! Annotation *cost* is exact too. The memo outlives requests, spills and
//! restores, so `cumulative_cost_seconds` is Definition 3 over the whole
//! stream, base evaluation included: each identified entity is charged
//! `c1` once and each labelled triple `c2` once, exactly as one
//! uninterrupted monitor with one annotator would charge them, however
//! the stream is split into requests. No evaluator reads the memo or the
//! cost, so keeping them changes no estimate.
//!
//! # Checkpoint format
//!
//! [`SessionRegistry::checkpoint`] emits a `KGSN` v2 record
//! ([`kg_stats::codec`]), in this order:
//!
//! 1. the full [`SessionSpec`]: kind tag (and RS capacity), `m`, the
//!    [`EvalConfig`], seed, oracle accuracy and seed, base sizes;
//! 2. the monitor-state payload (`KGMS`);
//! 3. the RNG cursor;
//! 4. the insert-batch log;
//! 5. the tombstones, by strictly increasing cluster, each with strictly
//!    increasing dead offsets;
//! 6. the event count and the *carried* cost: annotation seconds charged
//!    before the memo began, 0 for every session born on v2;
//! 7. the memo in packed form ([`PackedMemo`]): the identified clusters,
//!    then the labelled bits of exactly those clusters' raw ranges, packed
//!    back to back. `cluster_full` is derived on decode, and no dense
//!    bitset is written, so the memo costs about as many bytes as the
//!    session has annotated, not as many as its population holds.
//!
//! The session's cost is the carried cost plus the memo's Definition 3
//! charge. The label store is *not* serialized. Restore takes the base
//! store from the registry's catalog and rebuilds only the *directory* of
//! the logged batches (sizes and addresses); every logged cluster comes
//! back pending and is labelled on first touch (or when a tombstone in it
//! is re-applied). Labels are a pure function of the oracle seed, cluster
//! and offset, so the revived session is byte-deterministic, and revival
//! costs O(record) — the base copy plus the batch log — with no oracle
//! call for untouched clusters. Decoders reject unknown versions,
//! truncated payloads, and structurally inconsistent records (a memo
//! cluster past the extent, labelled bits outside the identified
//! clusters) with typed [`CodecError`]s; they never panic on hostile
//! input, and no length prefix can make them allocate past the record.
//!
//! **v1 records** still decode. A v1 spec carries two reserved bytes
//! after the kind: they once tagged an annotation engine and a reservoir
//! offer path, so they must read `0` or `1` and are otherwise ignored.
//! A v1 record has no memo and records the cost its session had charged,
//! with memos that died at every request boundary. It revives with an
//! empty memo and that cost carried: the estimate stream continues
//! byte-identically, and the cost continues from the recorded figure,
//! re-charging any triple the session labels again. Its next checkpoint
//! is a v2 record.
//!
//! # Lifecycle: eviction, spill, revival
//!
//! A registry built with [`SessionRegistry::with_lifecycle`] owns a
//! [`CheckpointStore`] and enforces a [`LifecyclePolicy`]: sessions idle
//! past the TTL, or beyond the LRU cap on in-memory sessions, are
//! checkpointed to disk and dropped from memory (*spilled*). The next
//! request against a spilled id transparently revives it — same id, same
//! RNG cursor, same estimate stream, **byte-identical** to never having
//! been evicted. Idleness is measured on a logical request-counter
//! clock, not wall time, so eviction schedules are deterministic under
//! test harnesses. A structurally corrupt spill record (torn file,
//! version skew) surfaces as a typed error and the session is dropped —
//! clients holding their own checkpoint re-register it; the registry
//! never serves a partially-decoded session.
//!
//! `write_through` additionally persists a session after every mutating
//! request, so an abrupt process kill between requests loses nothing.
//! Every save of a session — eviction, drain, write-through — encodes
//! and writes under the session's mutex, so the record on disk is always
//! the state after the last finished request;
//! [`SessionRegistry::drain_to_store`] checkpoints every live session at
//! shutdown and [`SessionRegistry::recover_from_store`] re-adopts the
//! full spilled tenant set (ids preserved) at startup.

use crate::config::EvalConfig;
use crate::dynamic::monitor::audit_sharded;
use crate::dynamic::reservoir::ReservoirEvaluator;
use crate::dynamic::state::{MonitorState, StratifiedState};
use crate::dynamic::stratified::StratifiedIncremental;
use crate::dynamic::IncrementalEvaluator;
use crate::executor::TrialExecutor;
use crate::framework::Evaluator;
use crate::sharded::{ShardDesign, ShardReplayReport};
use crate::spill::{CheckpointStore, SpillError};
use kg_annotate::annotator::Annotator;
use kg_annotate::cost::CostModel;
use kg_annotate::dense::{DenseAnnotator, PackedMemo};
use kg_annotate::label_store::LabelStore;
use kg_annotate::oracle::{LabelOracle, RemOracle};
use kg_model::implicit::ImplicitKg;
use kg_model::retract::{map_live_offset, KgEvent, Retraction};
use kg_model::triple::TripleRef;
use kg_model::update::UpdateBatch;
use kg_model::KgError;
use kg_sampling::PopulationIndex;
use kg_stats::codec::{CodecError, Decoder, Encoder};
use kg_stats::error::StatsError;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::mem;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Magic bytes of a serialized session record.
const MAGIC: [u8; 4] = *b"KGSN";
/// Current session record version: v2 carries the annotation memo.
const VERSION: u16 = 2;
/// The first session record version, still decoded (see the module docs).
const V1: u16 = 1;

const TAG_RESERVOIR: u8 = 0;
const TAG_STRATIFIED: u8 = 1;
/// The two reserved v1 spec bytes (see the module docs), by decode label.
const V1_RESERVED: [&str; 2] = ["session.engine tag", "session.offer_mode tag"];

/// Most cluster visits one [`SessionRegistry::audit`] may walk: 2^20, i.e.
/// 4,096 shards. A replay sizes its per-shard results by the shard count,
/// so an unbounded request could ask for more memory than the host has,
/// and a failed allocation aborts the whole process.
pub const MAX_AUDIT_UNITS: u64 = 1 << 20;

/// Largest base cluster a spec may declare: 2^16 triples. A cluster is
/// one entity's facts; a visit labels up to all of them.
pub const MAX_CLUSTER_SIZE: u32 = 1 << 16;

/// Most triples a spec's base KG may hold: 2^24. Registration labels
/// every base triple into a packed store (2 MiB at the cap), and a
/// failed allocation aborts the whole process.
pub const MAX_BASE_TRIPLES: u64 = 1 << 24;

/// Largest second-stage sample size `m`: a draw never takes more triples
/// than its cluster holds, and sample buffers are sized by `m`.
pub const MAX_M: usize = MAX_CLUSTER_SIZE as usize;

/// Largest reservoir capacity `|R|`: 2^16 clusters. The reservoir is
/// allocated at its capacity when the session registers.
pub const MAX_RESERVOIR_CAPACITY: usize = 1 << 16;

/// Which incremental evaluator a session runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvaluatorKind {
    /// Algorithm 1 — weighted reservoir over the insertion stream.
    Reservoir {
        /// Reservoir size `|R|`.
        capacity: usize,
    },
    /// Algorithm 2 — one stratum per update batch.
    Stratified,
}

/// Immutable description of a tenant session — everything needed to
/// rebuild its evaluator and label store from scratch.
#[derive(Debug, Clone)]
pub struct SessionSpec {
    /// Evaluator strategy.
    pub kind: EvaluatorKind,
    /// Second-stage sample size per cluster visit.
    pub m: usize,
    /// Evaluation loop configuration.
    pub config: EvalConfig,
    /// Seed of the session's sampling RNG.
    pub seed: u64,
    /// True accuracy of the session's [`RemOracle`].
    pub oracle_accuracy: f64,
    /// Label seed of the session's [`RemOracle`].
    pub oracle_seed: u64,
    /// Cluster sizes of the base KG.
    pub base_sizes: Vec<u32>,
}

/// What a session reports back for an estimate read or after a batch of
/// events.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EstimateReport {
    /// Current accuracy estimate `μ̂`.
    pub mean: f64,
    /// Variance of the estimator.
    pub var_of_mean: f64,
    /// Independent sampling units behind the estimate.
    pub units: usize,
    /// Margin of error at the session's configured `α`.
    pub moe: f64,
    /// Whether the sampling design has left its exactness regime (see
    /// [`IncrementalEvaluator::saturated`]).
    pub saturated: bool,
    /// Live (non-tombstoned) triples in the session's population.
    pub live_triples: u64,
    /// Events absorbed since registration.
    pub events_applied: u64,
    /// Simulated human seconds spent so far: Definition 3 over every
    /// triple the session has annotated, each charged once (see the
    /// module docs for sessions revived from `KGSN` v1 records).
    pub cumulative_cost_seconds: f64,
}

/// Typed failures of the session layer.
#[derive(Debug)]
pub enum SessionError {
    /// No session with the given id.
    UnknownSession(u64),
    /// The spec failed validation.
    InvalidSpec(&'static str),
    /// An event referenced triples outside the session's live population.
    InvalidEvent(&'static str),
    /// A checkpoint payload failed to decode.
    Codec(CodecError),
    /// A statistical precondition failed (degenerate population, bad α).
    Stats(StatsError),
    /// A population-shape precondition failed.
    Kg(KgError),
    /// The operation needs a checkpoint store but the registry has none.
    NoStore,
    /// The spill layer failed (missing record, filesystem error).
    Spill(SpillError),
    /// An audit asked for more than [`MAX_AUDIT_UNITS`] cluster visits.
    AuditTooLarge(u64),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::UnknownSession(id) => write!(f, "unknown session {id}"),
            SessionError::InvalidSpec(what) => write!(f, "invalid session spec: {what}"),
            SessionError::InvalidEvent(what) => write!(f, "invalid event: {what}"),
            SessionError::Codec(e) => write!(f, "checkpoint codec: {e}"),
            SessionError::Stats(e) => write!(f, "stats: {e}"),
            SessionError::Kg(e) => write!(f, "population: {e}"),
            SessionError::NoStore => write!(f, "registry has no checkpoint store"),
            SessionError::Spill(e) => write!(f, "spill: {e}"),
            SessionError::AuditTooLarge(units) => {
                write!(
                    f,
                    "audit of {units} units exceeds the cap of {MAX_AUDIT_UNITS}"
                )
            }
        }
    }
}

impl std::error::Error for SessionError {}

impl From<CodecError> for SessionError {
    fn from(e: CodecError) -> Self {
        SessionError::Codec(e)
    }
}

impl From<StatsError> for SessionError {
    fn from(e: StatsError) -> Self {
        SessionError::Stats(e)
    }
}

impl From<KgError> for SessionError {
    fn from(e: KgError) -> Self {
        SessionError::Kg(e)
    }
}

impl From<SpillError> for SessionError {
    /// A record whose every slot is torn is a corrupt checkpoint, like one
    /// that fails to decode.
    fn from(e: SpillError) -> Self {
        match e {
            SpillError::Corrupt(e) => SessionError::Codec(e),
            e => SessionError::Spill(e),
        }
    }
}

/// Either incremental evaluator, rebuilt around extracted state for the
/// duration of one request.
#[allow(clippy::large_enum_variant)] // transient per-request handle
enum Monitor {
    Reservoir(ReservoirEvaluator),
    Stratified(StratifiedIncremental),
}

impl Monitor {
    fn from_state(state: MonitorState, spec: &SessionSpec) -> Self {
        match state {
            MonitorState::Reservoir(rs) => {
                let capacity_spec = matches!(spec.kind, EvaluatorKind::Reservoir { .. });
                debug_assert!(
                    capacity_spec,
                    "state/spec kind mismatch is rejected at restore"
                );
                Monitor::Reservoir(ReservoirEvaluator::from_state(rs, spec.m, spec.config))
            }
            MonitorState::Stratified(ss) => {
                Monitor::Stratified(StratifiedIncremental::from_state(ss, spec.m, spec.config))
            }
        }
    }

    fn as_dyn(&self) -> &dyn IncrementalEvaluator {
        match self {
            Monitor::Reservoir(e) => e,
            Monitor::Stratified(e) => e,
        }
    }

    fn as_dyn_mut(&mut self) -> &mut dyn IncrementalEvaluator {
        match self {
            Monitor::Reservoir(e) => e,
            Monitor::Stratified(e) => e,
        }
    }

    fn into_state(self) -> MonitorState {
        match self {
            Monitor::Reservoir(e) => e.into_state(),
            Monitor::Stratified(e) => e.into_state(),
        }
    }
}

/// Cheap, structurally invalid stand-in used while a request temporarily
/// owns the real state. Never observable: every taker writes the real
/// state back before returning.
fn placeholder_state() -> MonitorState {
    MonitorState::Stratified(StratifiedState {
        strata: Vec::new(),
        next_cluster_id: 0,
    })
}

/// One tenant session: spec + owned mutable stream state.
struct Session {
    spec: SessionSpec,
    oracle: RemOracle,
    state: MonitorState,
    rng: StdRng,
    /// The session's one annotator, built at registration (or revival)
    /// and kept for the session's life. It owns the gross (insert-only)
    /// label store of the evolved population, whose inserted clusters
    /// stay pending until first touch; the memo of everything annotated
    /// so far; and the tombstones of every retraction.
    annotator: DenseAnnotator,
    /// Delta sizes of every insert batch applied, in order.
    batch_log: Vec<Vec<u32>>,
    events_applied: u64,
    /// Annotation seconds charged before the resident memo began: the
    /// recorded cost of a `KGSN` v1 record, whose memo was never kept;
    /// 0 for every other session.
    carried_cost: f64,
}

impl Session {
    fn store(&self) -> &LabelStore {
        self.annotator.store()
    }

    /// Definition 3 over everything this session annotated.
    fn cost_seconds(&self) -> f64 {
        self.carried_cost + self.annotator.seconds()
    }

    /// Raw (at-insertion) size of a cluster in the session's gross
    /// population, or `None` past the current extent.
    fn raw_size(&self, cluster: usize) -> Option<u64> {
        let store = self.store();
        (cluster < store.num_clusters()).then(|| store.cluster_size(cluster) as u64)
    }

    /// Reject events that address triples outside the session's gross
    /// population or re-kill already-dead triples, *before* any state is
    /// mutated. Tracks inserts pending earlier in the same request so a
    /// later event may retract from a cluster minted by an earlier one.
    fn validate_events(&self, events: &[KgEvent]) -> Result<(), SessionError> {
        let mut pending_sizes: Vec<u32> = Vec::new();
        // Offsets this request kills, checked alongside the annotator's
        // tombstones so a request costs O(its own retractions), not
        // O(session history).
        let mut killed: BTreeMap<u32, BTreeSet<u32>> = BTreeMap::new();
        let base_clusters = self.store().num_clusters();
        let tombs = self.annotator.tombstones();
        for event in events {
            if let Some(r) = event.retracted() {
                for (cluster, offsets) in r.entries() {
                    let c = *cluster as usize;
                    let raw = self.raw_size(c).or_else(|| {
                        pending_sizes
                            .get(c.checked_sub(base_clusters)?)
                            .map(|&s| s as u64)
                    });
                    let Some(raw) = raw else {
                        return Err(SessionError::InvalidEvent(
                            "retraction targets a cluster past the population extent",
                        ));
                    };
                    let dead = tombs.cluster(*cluster).unwrap_or(&[]);
                    let set = killed.entry(*cluster).or_default();
                    for &off in offsets.iter() {
                        if u64::from(off) >= raw {
                            return Err(SessionError::InvalidEvent(
                                "retraction offset exceeds the cluster's raw size",
                            ));
                        }
                        if dead.binary_search(&off).is_ok() || !set.insert(off) {
                            return Err(SessionError::InvalidEvent("triple is already retracted"));
                        }
                    }
                }
            }
            if let Some(batch) = event.inserted() {
                pending_sizes.extend_from_slice(batch.delta_sizes());
            }
        }
        Ok(())
    }

    /// Apply a request's events through the session's resident
    /// annotator, then fold the request back into owned state.
    fn apply_events(&mut self, events: &[KgEvent]) -> Result<EstimateReport, SessionError> {
        self.validate_events(events)?;
        let state = mem::replace(&mut self.state, placeholder_state());
        let mut monitor = Monitor::from_state(state, &self.spec);
        for event in events {
            monitor
                .as_dyn_mut()
                .apply_event(event, &mut self.annotator, &mut self.rng);
            if let Some(batch) = event.inserted() {
                self.batch_log.push(batch.delta_sizes().to_vec());
            }
        }
        self.events_applied += events.len() as u64;
        self.state = monitor.into_state();
        Ok(self.report())
    }

    /// Current estimate without touching the stream.
    fn report(&mut self) -> EstimateReport {
        let state = mem::replace(&mut self.state, placeholder_state());
        let monitor = Monitor::from_state(state, &self.spec);
        let estimate = monitor.as_dyn().estimate();
        let saturated = monitor.as_dyn().saturated();
        self.state = monitor.into_state();
        EstimateReport {
            mean: estimate.mean,
            var_of_mean: estimate.var_of_mean,
            units: estimate.units,
            moe: estimate
                .moe(self.spec.config.alpha)
                .expect("alpha is validated at registration"),
            saturated,
            live_triples: self.store().total_triples() - self.annotator.tombstones().dead_total(),
            events_applied: self.events_applied,
            cumulative_cost_seconds: self.cost_seconds(),
        }
    }

    /// Serialize the session as a `KGSN` v2 record.
    fn checkpoint(&self) -> Vec<u8> {
        let mut e = Encoder::with_header(MAGIC, VERSION);
        put_spec(&mut e, &self.spec);
        self.state.snapshot_into(&mut e);
        for w in self.rng.state() {
            e.put_u64(w);
        }
        e.put_usize(self.batch_log.len());
        for sizes in &self.batch_log {
            e.put_u32_slice(sizes);
        }
        let mut dead: Vec<(u32, &[u32])> = self.annotator.tombstones().iter().collect();
        dead.sort_unstable_by_key(|&(cluster, _)| cluster);
        e.put_usize(dead.len());
        for (cluster, offsets) in dead {
            e.put_u32(cluster);
            e.put_u32_slice(offsets);
        }
        e.put_u64(self.events_applied);
        e.put_f64(self.carried_cost);
        let memo = self.annotator.pack_memo();
        e.put_u32_slice(&memo.identified);
        e.put_u64_slice(&memo.labelled);
        e.finish()
    }

    /// Point-in-time **live view** of the session's population: per-cluster
    /// live sizes (gross minus tombstones), with the mapping back to raw
    /// storage coordinates. Clusters with no live triples are dropped.
    fn live_view(&self) -> LiveView {
        let store = self.store();
        let tombs = self.annotator.tombstones();
        let clusters = store.num_clusters();
        let mut sizes = Vec::with_capacity(clusters);
        let mut raw_cluster = Vec::with_capacity(clusters);
        let mut dead: Vec<Arc<[u32]>> = Vec::with_capacity(clusters);
        let empty: Arc<[u32]> = Arc::from(&[][..]);
        for c in 0..clusters {
            let raw = store.cluster_size(c) as u64;
            let dead_set = if tombs.is_empty() {
                None
            } else {
                tombs.cluster(c as u32)
            };
            let live = raw - dead_set.map_or(0, |s| s.len() as u64);
            if live == 0 {
                continue;
            }
            sizes.push(live as u32);
            raw_cluster.push(c as u32);
            dead.push(dead_set.map_or_else(|| empty.clone(), Arc::from));
        }
        LiveView {
            sizes,
            raw_cluster,
            dead,
        }
    }
}

/// A session population with tombstones folded in: live cluster sizes
/// plus the translation tables back to raw coordinates.
struct LiveView {
    /// Live size per live cluster.
    sizes: Vec<u32>,
    /// Raw cluster id per live cluster.
    raw_cluster: Vec<u32>,
    /// Sorted dead raw offsets per live cluster.
    dead: Vec<Arc<[u32]>>,
}

/// Label oracle over a [`LiveView`]: live `(cluster, offset)` coordinates
/// are translated to raw storage coordinates via the same
/// [`map_live_offset`] walk both annotation engines use, then the
/// session's oracle is consulted — so audits see exactly the labels the
/// monitor estimate is tracking.
struct LiveViewOracle {
    inner: RemOracle,
    raw_cluster: Vec<u32>,
    dead: Vec<Arc<[u32]>>,
}

impl LabelOracle for LiveViewOracle {
    fn label(&self, t: TripleRef) -> bool {
        let c = t.cluster as usize;
        let raw_offset = map_live_offset(&self.dead[c], t.offset);
        self.inner
            .label(TripleRef::new(self.raw_cluster[c], raw_offset))
    }
}

fn put_spec(e: &mut Encoder, spec: &SessionSpec) {
    match spec.kind {
        EvaluatorKind::Reservoir { capacity } => {
            e.put_u8(TAG_RESERVOIR);
            e.put_usize(capacity);
        }
        EvaluatorKind::Stratified => e.put_u8(TAG_STRATIFIED),
    }
    e.put_usize(spec.m);
    e.put_f64(spec.config.alpha);
    e.put_f64(spec.config.target_moe);
    e.put_usize(spec.config.batch_size);
    e.put_usize(spec.config.min_units);
    e.put_usize(spec.config.max_units);
    e.put_u64(spec.seed);
    e.put_f64(spec.oracle_accuracy);
    e.put_u64(spec.oracle_seed);
    e.put_u32_slice(&spec.base_sizes);
}

fn get_spec(d: &mut Decoder<'_>, version: u16) -> Result<SessionSpec, CodecError> {
    let kind = match d.get_u8("session.kind")? {
        TAG_RESERVOIR => EvaluatorKind::Reservoir {
            capacity: d.get_usize("session.capacity")?,
        },
        TAG_STRATIFIED => EvaluatorKind::Stratified,
        _ => {
            return Err(CodecError::Invalid {
                what: "session.kind tag",
            })
        }
    };
    if version == V1 {
        for what in V1_RESERVED {
            if d.get_u8(what)? > 1 {
                return Err(CodecError::Invalid { what });
            }
        }
    }
    let m = d.get_usize("session.m")?;
    let config = EvalConfig {
        alpha: d.get_f64("session.alpha")?,
        target_moe: d.get_f64("session.target_moe")?,
        batch_size: d.get_usize("session.batch_size")?,
        min_units: d.get_usize("session.min_units")?,
        max_units: d.get_usize("session.max_units")?,
    };
    let seed = d.get_u64("session.seed")?;
    let oracle_accuracy = d.get_f64("session.oracle_accuracy")?;
    let oracle_seed = d.get_u64("session.oracle_seed")?;
    let base_sizes = d.get_u32_vec("session.base_sizes")?;
    Ok(SessionSpec {
        kind,
        m,
        config,
        seed,
        oracle_accuracy,
        oracle_seed,
        base_sizes,
    })
}

/// Decoded `KGSN` record, structurally validated but not yet bound to a
/// rebuilt label store.
struct SessionRecord {
    spec: SessionSpec,
    state: MonitorState,
    rng: [u64; 4],
    batch_log: Vec<Vec<u32>>,
    /// Tombstones: strictly increasing clusters, each with strictly
    /// increasing dead offsets.
    dead: Vec<(u32, Vec<u32>)>,
    events_applied: u64,
    carried_cost: f64,
    /// Empty for a v1 record.
    memo: PackedMemo,
}

impl SessionRecord {
    fn decode(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut d = Decoder::new(bytes);
        let version = d.expect_header(MAGIC)?;
        if version != VERSION && version != V1 {
            return Err(CodecError::UnsupportedVersion {
                magic: MAGIC,
                found: version,
                supported: VERSION,
            });
        }
        let spec = get_spec(&mut d, version)?;
        let state = MonitorState::restore_from(&mut d)?;
        match (&spec.kind, &state) {
            (EvaluatorKind::Reservoir { .. }, MonitorState::Reservoir(_))
            | (EvaluatorKind::Stratified, MonitorState::Stratified(_)) => {}
            _ => {
                return Err(CodecError::Invalid {
                    what: "session state does not match the spec's evaluator kind",
                })
            }
        }
        let mut rng = [0u64; 4];
        for w in &mut rng {
            *w = d.get_u64("session.rng")?;
        }
        let num_batches = d.get_len(12, "session.batch_log")?;
        let mut batch_log = Vec::with_capacity(num_batches);
        let mut delta_clusters = 0usize;
        for _ in 0..num_batches {
            let sizes = d.get_u32_vec("session.batch_sizes")?;
            if sizes.is_empty() || sizes.contains(&0) {
                return Err(CodecError::Invalid {
                    what: "session batch log entries must be non-empty positive sizes",
                });
            }
            delta_clusters =
                delta_clusters
                    .checked_add(sizes.len())
                    .ok_or(CodecError::Invalid {
                        what: "session batch log cluster count overflows",
                    })?;
            batch_log.push(sizes);
        }
        let extent =
            spec.base_sizes
                .len()
                .checked_add(delta_clusters)
                .ok_or(CodecError::Invalid {
                    what: "session population extent overflows",
                })?;
        let state_extent = match &state {
            MonitorState::Reservoir(rs) => rs.pps.len(),
            MonitorState::Stratified(ss) => ss.next_cluster_id as usize,
        };
        if state_extent != extent {
            return Err(CodecError::Invalid {
                what: "session state extent disagrees with base + batch log",
            });
        }
        let num_dead = d.get_len(16, "session.tombstones")?;
        let mut dead = Vec::with_capacity(num_dead);
        let mut prev_cluster: Option<u32> = None;
        for _ in 0..num_dead {
            let cluster = d.get_u32("session.dead_cluster")?;
            if prev_cluster.is_some_and(|p| p >= cluster) {
                return Err(CodecError::Invalid {
                    what: "session tombstone clusters must be strictly increasing",
                });
            }
            prev_cluster = Some(cluster);
            if cluster as usize >= extent {
                return Err(CodecError::Invalid {
                    what: "session tombstone cluster past the population extent",
                });
            }
            let offsets = d.get_u32_vec("session.dead_offsets")?;
            if offsets.is_empty() || offsets.windows(2).any(|w| w[0] >= w[1]) {
                return Err(CodecError::Invalid {
                    what: "session tombstone offsets must be strictly increasing",
                });
            }
            dead.push((cluster, offsets));
        }
        let events_applied = d.get_u64("session.events_applied")?;
        let carried_cost = d.get_f64("session.cost_seconds")?;
        if !carried_cost.is_finite() || carried_cost < 0.0 {
            return Err(CodecError::Invalid {
                what: "session cost must be finite and non-negative",
            });
        }
        let mut memo = PackedMemo::default();
        if version == VERSION {
            memo.identified = d.get_u32_vec("session.memo_clusters")?;
            memo.labelled = d.get_u64_vec("session.memo_labels")?;
        }
        d.finish()?;
        Ok(SessionRecord {
            spec,
            state,
            rng,
            batch_log,
            dead,
            events_applied,
            carried_cost,
            memo,
        })
    }
}

/// Check a spec before anything is allocated for it: every field the
/// session sizes memory by is bounded (see [`MAX_CLUSTER_SIZE`],
/// [`MAX_BASE_TRIPLES`], [`MAX_M`], [`MAX_RESERVOIR_CAPACITY`]).
fn validate_spec(spec: &SessionSpec) -> Result<(), SessionError> {
    if spec.base_sizes.is_empty() {
        return Err(SessionError::InvalidSpec("base KG must have clusters"));
    }
    if spec.base_sizes.iter().any(|&s| s > MAX_CLUSTER_SIZE) {
        return Err(SessionError::InvalidSpec(
            "a base cluster exceeds MAX_CLUSTER_SIZE (65536) triples",
        ));
    }
    let triples: u64 = spec.base_sizes.iter().map(|&s| u64::from(s)).sum();
    if triples > MAX_BASE_TRIPLES {
        return Err(SessionError::InvalidSpec(
            "the base KG exceeds MAX_BASE_TRIPLES (16777216) triples",
        ));
    }
    if spec.m == 0 || spec.m > MAX_M {
        return Err(SessionError::InvalidSpec("m must lie in [1, 65536]"));
    }
    if let EvaluatorKind::Reservoir { capacity } = spec.kind {
        if capacity == 0 || capacity > MAX_RESERVOIR_CAPACITY {
            return Err(SessionError::InvalidSpec(
                "reservoir capacity must lie in [1, 65536]",
            ));
        }
    }
    if !(0.0..=1.0).contains(&spec.oracle_accuracy) {
        return Err(SessionError::InvalidSpec(
            "oracle accuracy must lie in [0, 1]",
        ));
    }
    if !(spec.config.alpha > 0.0 && spec.config.alpha < 1.0) {
        return Err(SessionError::InvalidSpec("alpha must lie in (0, 1)"));
    }
    if !(spec.config.target_moe > 0.0 && spec.config.target_moe.is_finite()) {
        return Err(SessionError::InvalidSpec("target MoE must be positive"));
    }
    if spec.config.batch_size == 0 {
        return Err(SessionError::InvalidSpec("batch size must be at least 1"));
    }
    Ok(())
}

/// Catalog key of a base KG: `(base sizes, oracle accuracy bits, oracle
/// seed)`. Every tenant registering the same key shares one materialized
/// label store — a thousand identical registrations build it once.
type CatalogKey = (Vec<u32>, u64, u64);

/// Lifecycle policy of a registry with a [`CheckpointStore`]. The default
/// policy never evicts and never write-through-persists — spill is then
/// only used by explicit [`SessionRegistry::evict`] /
/// [`SessionRegistry::drain_to_store`] calls.
#[derive(Debug, Clone, Copy, Default)]
pub struct LifecyclePolicy {
    /// LRU cap on in-memory sessions: when more than `max_live` sessions
    /// are resident, the least-recently-used idle ones are evicted to the
    /// store.
    pub max_live: Option<usize>,
    /// Idle TTL in logical clock ticks (one tick per registry operation):
    /// a session untouched for more than `idle_ttl` ticks is evicted.
    pub idle_ttl: Option<u64>,
    /// Persist every session to the store after each successful mutating
    /// request (and at registration), so an abrupt process kill between
    /// requests loses no acknowledged state.
    pub write_through: bool,
}

/// Lifecycle counters of a registry (all monotonic except `live` and
/// `spilled`, which are point-in-time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegistryStats {
    /// Sessions currently resident in memory.
    pub live: usize,
    /// Sessions currently evicted to the spill store.
    pub spilled: usize,
    /// Evictions performed (TTL, LRU, or explicit).
    pub evictions: u64,
    /// Spilled sessions revived by a request.
    pub revivals: u64,
    /// Sessions dropped because their spill record failed to decode.
    pub corrupt_dropped: u64,
    /// Failed store writes (eviction kept the session live; write-through
    /// returned success without persistence).
    pub persist_failures: u64,
}

/// A session slot: resident, or evicted to the spill store.
enum Slot {
    Live(LiveSlot),
    Spilled,
}

struct LiveSlot {
    session: Arc<Mutex<Session>>,
    /// Logical-clock stamp of the last request that touched the session.
    last_used: u64,
    /// Requests currently holding the session (eviction skips these).
    in_use: u32,
}

/// RAII access to one resident session. While a guard is alive the slot's
/// `in_use` count is positive, so the eviction sweep never checkpoints a
/// session out from under an active request.
struct SessionGuard<'r> {
    registry: &'r SessionRegistry,
    id: u64,
    session: Arc<Mutex<Session>>,
}

impl Drop for SessionGuard<'_> {
    fn drop(&mut self) {
        let mut sessions = self.registry.sessions.lock().unwrap();
        if let Some(Slot::Live(l)) = sessions.get_mut(&self.id) {
            l.in_use -= 1;
        }
    }
}

/// Registry of tenant monitor sessions sharing one [`TrialExecutor`] and
/// per-base-KG label stores.
///
/// All methods take `&self`; sessions are independently locked, so
/// requests against different tenants proceed concurrently and the
/// per-tenant estimate stream is byte-identical to driving that tenant
/// alone (see `tests/session_stress.rs`). With a [`CheckpointStore`]
/// attached, idle sessions spill to disk and revive transparently — see
/// the module docs.
pub struct SessionRegistry {
    executor: TrialExecutor,
    catalog: Mutex<BTreeMap<CatalogKey, Arc<LabelStore>>>,
    sessions: Mutex<BTreeMap<u64, Slot>>,
    next_id: AtomicU64,
    store: Option<CheckpointStore>,
    policy: LifecyclePolicy,
    /// Logical clock: one tick per registry operation. Eviction idleness
    /// is measured on this, never on wall time.
    clock: AtomicU64,
    evictions: AtomicU64,
    revivals: AtomicU64,
    corrupt_dropped: AtomicU64,
    persist_failures: AtomicU64,
}

impl Default for SessionRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl SessionRegistry {
    /// Registry with a default-sized shared executor.
    pub fn new() -> Self {
        Self::with_executor(TrialExecutor::new())
    }

    /// Registry around an explicitly sized shared executor; audits use its
    /// worker budget for shard parallelism.
    pub fn with_executor(executor: TrialExecutor) -> Self {
        SessionRegistry {
            executor,
            catalog: Mutex::new(BTreeMap::new()),
            sessions: Mutex::new(BTreeMap::new()),
            next_id: AtomicU64::new(1),
            store: None,
            policy: LifecyclePolicy::default(),
            clock: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            revivals: AtomicU64::new(0),
            corrupt_dropped: AtomicU64::new(0),
            persist_failures: AtomicU64::new(0),
        }
    }

    /// Registry with a spill store and lifecycle policy attached.
    pub fn with_lifecycle(
        executor: TrialExecutor,
        policy: LifecyclePolicy,
        store: CheckpointStore,
    ) -> Self {
        let mut registry = Self::with_executor(executor);
        if let Some(floor) = store.id_floor() {
            registry.next_id = AtomicU64::new(floor.max(1));
        }
        registry.store = Some(store);
        registry.policy = policy;
        registry
    }

    /// The shared trial executor (for callers fanning out replays of
    /// registered sessions).
    pub fn executor(&self) -> &TrialExecutor {
        &self.executor
    }

    /// The attached spill store, if any.
    pub fn store(&self) -> Option<&CheckpointStore> {
        self.store.as_ref()
    }

    /// Number of sessions (resident + spilled).
    pub fn len(&self) -> usize {
        self.sessions.lock().unwrap().len()
    }

    /// Whether the registry holds no sessions.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Ids of all sessions (resident + spilled), ascending.
    pub fn ids(&self) -> Vec<u64> {
        self.sessions.lock().unwrap().keys().copied().collect()
    }

    /// Whether a session is currently resident (as opposed to spilled or
    /// unknown).
    pub fn is_live(&self, id: u64) -> bool {
        matches!(self.sessions.lock().unwrap().get(&id), Some(Slot::Live(_)))
    }

    /// Point-in-time lifecycle counters.
    pub fn stats(&self) -> RegistryStats {
        let sessions = self.sessions.lock().unwrap();
        let live = sessions
            .values()
            .filter(|s| matches!(s, Slot::Live(_)))
            .count();
        let spilled = sessions.len() - live;
        drop(sessions);
        RegistryStats {
            live,
            spilled,
            evictions: self.evictions.load(Ordering::Relaxed),
            revivals: self.revivals.load(Ordering::Relaxed),
            corrupt_dropped: self.corrupt_dropped.load(Ordering::Relaxed),
            persist_failures: self.persist_failures.load(Ordering::Relaxed),
        }
    }

    /// Drop a session (resident or spilled, including its spill record),
    /// returning whether it existed.
    pub fn remove(&self, id: u64) -> bool {
        let existed = self.sessions.lock().unwrap().remove(&id).is_some();
        if let Some(store) = &self.store {
            let _ = store.remove(id);
        }
        existed
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    fn catalog_store(
        &self,
        spec: &SessionSpec,
        base: &ImplicitKg,
        oracle: &RemOracle,
    ) -> Arc<LabelStore> {
        let key = (
            spec.base_sizes.clone(),
            spec.oracle_accuracy.to_bits(),
            spec.oracle_seed,
        );
        let mut catalog = self.catalog.lock().unwrap();
        catalog
            .entry(key)
            .or_insert_with(|| Arc::new(LabelStore::materialize(base, oracle)))
            .clone()
    }

    /// Resolve a session for one request, reviving it from spill if
    /// needed, and pin it against eviction for the guard's lifetime.
    fn acquire(&self, id: u64) -> Result<SessionGuard<'_>, SessionError> {
        let now = self.tick();
        let mut sessions = self.sessions.lock().unwrap();
        let slot = sessions
            .get_mut(&id)
            .ok_or(SessionError::UnknownSession(id))?;
        let session = match slot {
            Slot::Live(l) => {
                l.last_used = now;
                l.in_use += 1;
                l.session.clone()
            }
            Slot::Spilled => {
                let store = self
                    .store
                    .as_ref()
                    .expect("spilled slots only exist with a store attached");
                let revived = store
                    .load(id)
                    .map_err(SessionError::from)
                    .and_then(|bytes| self.materialize(&bytes));
                let session = match revived {
                    Ok(session) => session,
                    Err(e) => {
                        // Vanished / torn / corrupt / version-skewed
                        // record: typed error, and the session is dropped
                        // rather than ever served partially decoded. Its
                        // files go too, unless reading them failed on I/O.
                        // Clients holding their own checkpoint re-register
                        // it.
                        sessions.remove(&id);
                        if !matches!(e, SessionError::Spill(SpillError::Io(_))) {
                            let _ = store.remove(id);
                        }
                        self.corrupt_dropped.fetch_add(1, Ordering::Relaxed);
                        return Err(e);
                    }
                };
                let session = Arc::new(Mutex::new(session));
                *slot = Slot::Live(LiveSlot {
                    session: session.clone(),
                    last_used: now,
                    in_use: 1,
                });
                self.revivals.fetch_add(1, Ordering::Relaxed);
                session
            }
        };
        Ok(SessionGuard {
            registry: self,
            id,
            session,
        })
    }

    fn insert(&self, session: Session) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let now = self.tick();
        let mut sessions = self.sessions.lock().unwrap();
        sessions.insert(
            id,
            Slot::Live(LiveSlot {
                session: Arc::new(Mutex::new(session)),
                last_used: now,
                in_use: 0,
            }),
        );
        // Persist the id floor before the id escapes, so a crash and
        // recovery can never re-mint it even if this session's own spill
        // record is lost. Loading the counter under the sessions lock
        // keeps concurrent writes monotonic.
        if let Some(store) = &self.store {
            let floor = self.next_id.load(Ordering::Relaxed);
            if store.record_id_floor(floor).is_err() {
                self.persist_failures.fetch_add(1, Ordering::Relaxed);
            }
        }
        id
    }

    /// Decode a `KGSN` record and rebuild the full in-memory session: the
    /// catalog's base label store plus the batch log's clusters appended
    /// *pending*. Only the store's directory is rebuilt, so revival costs
    /// O(record); each logged cluster is labelled when a later request
    /// first annotates it.
    fn materialize(&self, bytes: &[u8]) -> Result<Session, SessionError> {
        let record = SessionRecord::decode(bytes)?;
        validate_spec(&record.spec)?;
        let oracle = RemOracle::new(record.spec.oracle_accuracy, record.spec.oracle_seed);
        let base = ImplicitKg::new(record.spec.base_sizes.clone())?;
        let mut store = self.catalog_store(&record.spec, &base, &oracle);
        if !record.batch_log.is_empty() {
            let clusters = record.batch_log.iter().map(Vec::len).sum();
            let triples = record
                .batch_log
                .iter()
                .flatten()
                .map(|&s| u64::from(s))
                .sum();
            let mut grown = store.with_room(clusters, triples);
            for sizes in &record.batch_log {
                grown.append_pending(sizes);
            }
            store = Arc::new(grown);
        }
        for (cluster, dead) in &record.dead {
            let raw = store.cluster_size(*cluster as usize) as u64;
            if dead.last().is_some_and(|&off| u64::from(off) >= raw) {
                return Err(SessionError::Codec(CodecError::Invalid {
                    what: "session tombstone offset exceeds its cluster's raw size",
                }));
            }
        }
        let mut annotator = resident_annotator(store, oracle);
        annotator
            .restore_memo(&record.memo)
            .map_err(|e| CodecError::Invalid { what: e.what() })?;
        if !record.dead.is_empty() {
            let dead = Retraction::new(record.dead)?;
            annotator.retract(&dead);
        }
        Ok(Session {
            spec: record.spec,
            oracle,
            state: record.state,
            rng: StdRng::from_state(record.rng),
            annotator,
            batch_log: record.batch_log,
            events_applied: record.events_applied,
            carried_cost: record.carried_cost,
        })
    }

    /// Enforce the lifecycle policy: evict idle-expired sessions, then
    /// trim the resident set to the LRU cap. Sessions pinned by an active
    /// request are never evicted; a failed store write keeps the session
    /// resident (counted in [`RegistryStats::persist_failures`]).
    fn enforce(&self) {
        let Some(store) = &self.store else { return };
        if self.policy.max_live.is_none() && self.policy.idle_ttl.is_none() {
            return;
        }
        let now = self.clock.load(Ordering::Relaxed);
        let mut sessions = self.sessions.lock().unwrap();
        let mut victims: Vec<u64> = Vec::new();
        if let Some(ttl) = self.policy.idle_ttl {
            for (&id, slot) in sessions.iter() {
                if let Slot::Live(l) = slot {
                    if l.in_use == 0 && now.saturating_sub(l.last_used) > ttl {
                        victims.push(id);
                    }
                }
            }
        }
        if let Some(cap) = self.policy.max_live {
            let resident = sessions
                .values()
                .filter(|s| matches!(s, Slot::Live(_)))
                .count();
            let excess = resident.saturating_sub(victims.len()).saturating_sub(cap);
            if excess > 0 {
                let mut lru: Vec<(u64, u64)> = sessions
                    .iter()
                    .filter_map(|(&id, slot)| match slot {
                        Slot::Live(l) if l.in_use == 0 && !victims.contains(&id) => {
                            Some((l.last_used, id))
                        }
                        _ => None,
                    })
                    .collect();
                lru.sort_unstable();
                victims.extend(lru.into_iter().take(excess).map(|(_, id)| id));
            }
        }
        for id in victims {
            self.evict_locked(&mut sessions, store, id);
        }
    }

    /// Checkpoint a resident, unpinned session to the store and mark the
    /// slot spilled. Caller holds the sessions lock.
    fn evict_locked(
        &self,
        sessions: &mut BTreeMap<u64, Slot>,
        store: &CheckpointStore,
        id: u64,
    ) -> bool {
        let Some(slot) = sessions.get_mut(&id) else {
            return false;
        };
        let Slot::Live(l) = slot else { return false };
        if l.in_use != 0 {
            return false;
        }
        if persist(store, id, &l.session).is_err() {
            self.persist_failures.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        *slot = Slot::Spilled;
        self.evictions.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Explicitly evict one session to the spill store. Returns `false`
    /// if the session is already spilled or pinned by an active request.
    pub fn evict(&self, id: u64) -> Result<bool, SessionError> {
        let store = self.store.as_ref().ok_or(SessionError::NoStore)?;
        let mut sessions = self.sessions.lock().unwrap();
        if !sessions.contains_key(&id) {
            return Err(SessionError::UnknownSession(id));
        }
        Ok(self.evict_locked(&mut sessions, store, id))
    }

    /// Checkpoint every resident session to the spill store (sessions stay
    /// resident). The graceful-drain path: call once new requests have
    /// stopped, then exit; a fresh process recovers the full tenant set
    /// with [`SessionRegistry::recover_from_store`]. Returns the number of
    /// sessions persisted.
    pub fn drain_to_store(&self) -> Result<usize, SessionError> {
        let store = self.store.as_ref().ok_or(SessionError::NoStore)?;
        let sessions = self.sessions.lock().unwrap();
        let mut persisted = 0;
        for (&id, slot) in sessions.iter() {
            if let Slot::Live(l) = slot {
                persist(store, id, &l.session).map_err(SpillError::from)?;
                persisted += 1;
            }
        }
        Ok(persisted)
    }

    /// Adopt every session spilled in the store as a (lazily revived)
    /// spilled slot, preserving ids; `next_id` advances past the highest
    /// recovered id and past the store's persisted id floor, so ids of
    /// sessions whose records were lost or corrupted are never re-minted.
    /// The spare and temp files older builds' saves left behind are
    /// deleted ([`CheckpointStore::remove_orphaned_temps`]). Returns the
    /// number of sessions adopted.
    pub fn recover_from_store(&self) -> Result<usize, SessionError> {
        let store = self.store.as_ref().ok_or(SessionError::NoStore)?;
        store.remove_orphaned_temps().map_err(SpillError::from)?;
        let ids = store.ids().map_err(SpillError::from)?;
        let mut sessions = self.sessions.lock().unwrap();
        if let Some(floor) = store.id_floor() {
            let next = self.next_id.load(Ordering::Relaxed).max(floor);
            self.next_id.store(next, Ordering::Relaxed);
        }
        let mut adopted = 0;
        for id in ids {
            let next = self.next_id.load(Ordering::Relaxed).max(id + 1);
            self.next_id.store(next, Ordering::Relaxed);
            if let std::collections::btree_map::Entry::Vacant(v) = sessions.entry(id) {
                v.insert(Slot::Spilled);
                adopted += 1;
            }
        }
        Ok(adopted)
    }

    /// Persist a session after a successful mutating request when the
    /// policy asks for write-through.
    fn persist_write_through(&self, guard: &SessionGuard<'_>) {
        if !self.policy.write_through {
            return;
        }
        let Some(store) = &self.store else { return };
        if persist(store, guard.id, &guard.session).is_err() {
            self.persist_failures.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Evaluate the base KG under the spec and return the initial monitor
    /// state.
    fn evaluate_base(
        spec: &SessionSpec,
        base: &ImplicitKg,
        oracle: &RemOracle,
        annotator: &mut dyn Annotator,
        rng: &mut StdRng,
    ) -> Result<MonitorState, SessionError> {
        match spec.kind {
            EvaluatorKind::Reservoir { capacity } => Ok(ReservoirEvaluator::evaluate_base(
                base,
                capacity,
                spec.m,
                spec.config,
                annotator,
                rng,
            )
            .into_state()),
            EvaluatorKind::Stratified => {
                let index = Arc::new(PopulationIndex::from_population(base)?);
                let report = Evaluator::twcs(spec.m).run_with_annotator(
                    index,
                    oracle,
                    annotator,
                    &spec.config,
                    rng,
                )?;
                Ok(
                    StratifiedIncremental::from_base(base, report.estimate, spec.m, spec.config)
                        .into_state(),
                )
            }
        }
    }

    /// Register a new tenant session: evaluate its base KG and return the
    /// session id.
    pub fn register(&self, spec: SessionSpec) -> Result<u64, SessionError> {
        validate_spec(&spec)?;
        let oracle = RemOracle::new(spec.oracle_accuracy, spec.oracle_seed);
        let base = ImplicitKg::new(spec.base_sizes.clone())?;
        let store = self.catalog_store(&spec, &base, &oracle);
        let mut rng = StdRng::seed_from_u64(spec.seed);
        let mut annotator = resident_annotator(store, oracle);
        let state = Self::evaluate_base(&spec, &base, &oracle, &mut annotator, &mut rng)?;
        let id = self.insert(Session {
            spec,
            oracle,
            state,
            rng,
            annotator,
            batch_log: Vec::new(),
            events_applied: 0,
            carried_cost: 0.0,
        });
        if self.policy.write_through {
            if let Ok(guard) = self.acquire(id) {
                self.persist_write_through(&guard);
            }
        }
        self.enforce();
        Ok(id)
    }

    /// Restore a session from a `KGSN` checkpoint into this registry
    /// (typically a fresh process) and return its new id. The label store
    /// is rebuilt from the catalog's base store and the batch log's sizes,
    /// with the logged clusters pending until first touch; the estimate
    /// stream continues byte-identically to the uninterrupted session.
    pub fn restore(&self, bytes: &[u8]) -> Result<u64, SessionError> {
        let session = self.materialize(bytes)?;
        let id = self.insert(session);
        if self.policy.write_through {
            if let Ok(guard) = self.acquire(id) {
                self.persist_write_through(&guard);
            }
        }
        self.enforce();
        Ok(id)
    }

    /// Apply a request of interleaved events (inserts, retractions,
    /// revisions) to a session and return the post-request estimate.
    pub fn apply_events(
        &self,
        id: u64,
        events: &[KgEvent],
    ) -> Result<EstimateReport, SessionError> {
        let guard = self.acquire(id)?;
        let report = guard.session.lock().unwrap().apply_events(events);
        if report.is_ok() {
            self.persist_write_through(&guard);
        }
        drop(guard);
        self.enforce();
        report
    }

    /// Apply pure insertion batches — the `POST /kg/{id}/batch` shape.
    pub fn apply_batches(
        &self,
        id: u64,
        batches: &[UpdateBatch],
    ) -> Result<EstimateReport, SessionError> {
        let events: Vec<KgEvent> = batches.iter().cloned().map(KgEvent::Insert).collect();
        self.apply_events(id, &events)
    }

    /// Current estimate of a session, without consuming any RNG.
    pub fn estimate(&self, id: u64) -> Result<EstimateReport, SessionError> {
        let guard = self.acquire(id)?;
        let report = guard.session.lock().unwrap().report();
        drop(guard);
        self.enforce();
        Ok(report)
    }

    /// Serialize a session as a `KGSN` v2 checkpoint. The session stays
    /// live; restoring the bytes elsewhere resumes its exact estimate
    /// stream.
    pub fn checkpoint(&self, id: u64) -> Result<Vec<u8>, SessionError> {
        let guard = self.acquire(id)?;
        let bytes = guard.session.lock().unwrap().checkpoint();
        drop(guard);
        self.enforce();
        Ok(bytes)
    }

    /// Full-fidelity sharded audit of the session's **live** population:
    /// base plus every insert batch, with the session's tombstones folded
    /// in, so the audit measures exactly the live-view quantity the
    /// monitor estimate tracks. Live sample coordinates are mapped back to
    /// raw storage offsets through the same [`map_live_offset`] walk the
    /// annotation engines use. The shards fan out on the registry's
    /// executor, and the report is bitwise invariant to its worker count.
    /// More than [`MAX_AUDIT_UNITS`] visits is
    /// [`SessionError::AuditTooLarge`].
    pub fn audit(&self, id: u64, units: u64, seed: u64) -> Result<ShardReplayReport, SessionError> {
        if units > MAX_AUDIT_UNITS {
            return Err(SessionError::AuditTooLarge(units));
        }
        let guard = self.acquire(id)?;
        let session = guard.session.lock().unwrap();
        let view = session.live_view();
        let m = session.spec.m;
        let oracle = LiveViewOracle {
            inner: session.oracle,
            raw_cluster: view.raw_cluster,
            dead: view.dead,
        };
        drop(session);
        drop(guard);
        let population = ImplicitKg::new(view.sizes)?;
        let report = audit_sharded(
            &population,
            ShardDesign::TwoStage { m },
            &oracle,
            CostModel::default(),
            &self.executor,
            units,
            seed,
        )?;
        self.enforce();
        Ok(report)
    }
}

/// A session's resident annotator over `store`, labelling inserted
/// clusters from the session's oracle on first touch.
fn resident_annotator(store: Arc<LabelStore>, oracle: RemOracle) -> DenseAnnotator {
    DenseAnnotator::resident(store, CostModel::default(), Arc::new(oracle))
}

/// Encode a session and save it to the store, both under the session's
/// mutex. Every save of a session goes through here, so saves of one id
/// never overlap (the store rewrites one of two slots per id in place)
/// and a save never lands after a newer one: the last record written is
/// always the state of the last request that finished.
fn persist(store: &CheckpointStore, id: u64, session: &Mutex<Session>) -> std::io::Result<()> {
    let session = session.lock().unwrap();
    store.save(id, &session.checkpoint())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamic::monitor::run_event_sequence;

    fn rs_spec() -> SessionSpec {
        SessionSpec {
            kind: EvaluatorKind::Reservoir { capacity: 40 },
            m: 5,
            config: EvalConfig::default(),
            seed: 72019,
            oracle_accuracy: 0.9,
            oracle_seed: 11,
            base_sizes: (0..400).map(|i| 1 + (i % 9)).collect(),
        }
    }

    fn ss_spec() -> SessionSpec {
        SessionSpec {
            kind: EvaluatorKind::Stratified,
            ..rs_spec()
        }
    }

    fn stream() -> Vec<KgEvent> {
        vec![
            KgEvent::Insert(UpdateBatch::from_sizes(vec![3; 60]).unwrap()),
            KgEvent::Retract(Retraction::new(vec![(2, vec![0]), (401, vec![1, 2])]).unwrap()),
            KgEvent::Revise(
                Retraction::new(vec![(405, vec![0, 1, 2])]).unwrap(),
                UpdateBatch::from_sizes(vec![5; 30]).unwrap(),
            ),
            KgEvent::Insert(UpdateBatch::from_sizes(vec![2; 45]).unwrap()),
        ]
    }

    /// Estimate and cost bits of a report.
    fn bits(r: &EstimateReport) -> (u64, u64, usize, bool, u64) {
        (
            r.mean.to_bits(),
            r.var_of_mean.to_bits(),
            r.units,
            r.saturated,
            r.cumulative_cost_seconds.to_bits(),
        )
    }

    /// Definition 3 cost of the uninterrupted monitor: the spec's
    /// evaluator evaluates the base and then runs `events` through
    /// `run_event_sequence`, with one annotator kept for the whole run.
    fn monitor_cost(spec: &SessionSpec, events: &[KgEvent]) -> u64 {
        let oracle = RemOracle::new(spec.oracle_accuracy, spec.oracle_seed);
        let base = ImplicitKg::new(spec.base_sizes.clone()).unwrap();
        let store = Arc::new(LabelStore::materialize(&base, &oracle));
        let mut annotator = DenseAnnotator::growable(store, CostModel::default(), Arc::new(oracle));
        let mut rng = StdRng::seed_from_u64(spec.seed);
        let state =
            SessionRegistry::evaluate_base(spec, &base, &oracle, &mut annotator, &mut rng).unwrap();
        let mut monitor = Monitor::from_state(state, spec);
        run_event_sequence(
            monitor.as_dyn_mut(),
            events,
            spec.config.alpha,
            &mut annotator,
            &mut rng,
        );
        annotator.seconds().to_bits()
    }

    fn cost_bits(r: &EstimateReport) -> u64 {
        r.cumulative_cost_seconds.to_bits()
    }

    #[test]
    fn served_cost_is_the_uninterrupted_monitors_cost_under_churn() {
        // Insert/retract/revise churn, one event per request, and again
        // with the whole stream in one request: each charges every triple
        // once, as the one-annotator monitor does.
        for spec in [rs_spec(), ss_spec()] {
            let events = stream();
            let want = monitor_cost(&spec, &events);
            let registry = SessionRegistry::new();
            let split = registry.register(spec.clone()).unwrap();
            let whole = registry.register(spec.clone()).unwrap();
            let mut last = None;
            for event in &events {
                last = Some(
                    registry
                        .apply_events(split, std::slice::from_ref(event))
                        .unwrap(),
                );
            }
            let all = registry.apply_events(whole, &events).unwrap();
            assert_eq!(cost_bits(&last.unwrap()), want, "{:?} split", spec.kind);
            assert_eq!(cost_bits(&all), want, "{:?} whole", spec.kind);
            // The base evaluation is charged too, and reads never charge.
            let fresh = registry.register(spec.clone()).unwrap();
            assert_eq!(
                cost_bits(&registry.estimate(fresh).unwrap()),
                monitor_cost(&spec, &[]),
                "{:?} base",
                spec.kind
            );
        }
    }

    #[test]
    fn registration_is_deterministic_and_catalog_is_shared() {
        let registry = SessionRegistry::new();
        let a = registry.register(rs_spec()).unwrap();
        let b = registry.register(rs_spec()).unwrap();
        assert_eq!(registry.len(), 2);
        let ra = registry.estimate(a).unwrap();
        let rb = registry.estimate(b).unwrap();
        assert_eq!(bits(&ra), bits(&rb), "same spec must evaluate identically");
        assert_eq!(
            registry.catalog.lock().unwrap().len(),
            1,
            "one interned base store"
        );
    }

    #[test]
    fn checkpoint_restore_resumes_byte_identically_under_churn() {
        for spec in [rs_spec(), ss_spec()] {
            let events = stream();
            // Uninterrupted: one session sees all four events,
            // partitioned one per request.
            let full = SessionRegistry::new();
            let id = full.register(spec.clone()).unwrap();
            let mut want = Vec::new();
            for event in &events {
                want.push(bits(
                    &full.apply_events(id, std::slice::from_ref(event)).unwrap(),
                ));
            }
            // Interrupted after two events, restored into a fresh registry.
            let first = SessionRegistry::new();
            let id1 = first.register(spec.clone()).unwrap();
            let mut got = Vec::new();
            for event in &events[..2] {
                got.push(bits(
                    &first
                        .apply_events(id1, std::slice::from_ref(event))
                        .unwrap(),
                ));
            }
            let snapshot = first.checkpoint(id1).unwrap();
            drop(first);
            let second = SessionRegistry::new();
            let id2 = second.restore(&snapshot).unwrap();
            for event in &events[2..] {
                got.push(bits(
                    &second
                        .apply_events(id2, std::slice::from_ref(event))
                        .unwrap(),
                ));
            }
            assert_eq!(got, want, "restored stream diverged ({:?})", spec.kind);
            // The memo crossed the restore: costs agree bit for bit, with
            // each other and with the uninterrupted monitor, and so do the
            // two sessions' checkpoints.
            let restored = second.estimate(id2).unwrap();
            assert_eq!(bits(&restored), bits(&full.estimate(id).unwrap()));
            assert_eq!(cost_bits(&restored), monitor_cost(&spec, &events));
            assert_eq!(
                second.checkpoint(id2).unwrap(),
                full.checkpoint(id).unwrap()
            );
        }
    }

    #[test]
    fn request_partitioning_does_not_change_estimates() {
        let events = stream();
        let one_shot = SessionRegistry::new();
        let a = one_shot.register(rs_spec()).unwrap();
        let all = one_shot.apply_events(a, &events).unwrap();
        let split = SessionRegistry::new();
        let b = split.register(rs_spec()).unwrap();
        let mut last = None;
        for event in &events {
            last = Some(split.apply_events(b, std::slice::from_ref(event)).unwrap());
        }
        // Estimate and cost bits alike.
        assert_eq!(bits(&all), bits(&last.unwrap()));
        assert_eq!(cost_bits(&all), monitor_cost(&rs_spec(), &events));
    }

    #[test]
    fn invalid_events_are_rejected_before_any_mutation() {
        let registry = SessionRegistry::new();
        let id = registry.register(rs_spec()).unwrap();
        let before = registry.estimate(id).unwrap();
        let past_extent = KgEvent::Retract(Retraction::new(vec![(9999, vec![0])]).unwrap());
        assert!(matches!(
            registry.apply_events(id, &[past_extent]),
            Err(SessionError::InvalidEvent(_))
        ));
        let off_range = KgEvent::Retract(Retraction::new(vec![(0, vec![500])]).unwrap());
        assert!(matches!(
            registry.apply_events(id, &[off_range]),
            Err(SessionError::InvalidEvent(_))
        ));
        let double_kill = vec![
            KgEvent::Retract(Retraction::new(vec![(2, vec![0])]).unwrap()),
            KgEvent::Retract(Retraction::new(vec![(2, vec![0])]).unwrap()),
        ];
        assert!(matches!(
            registry.apply_events(id, &double_kill),
            Err(SessionError::InvalidEvent(_))
        ));
        assert_eq!(bits(&before), bits(&registry.estimate(id).unwrap()));
        assert_eq!(registry.estimate(id).unwrap().events_applied, 0);
    }

    #[test]
    fn double_kills_are_rejected_within_and_across_requests() {
        let registry = SessionRegistry::new();
        let id = registry.register(rs_spec()).unwrap();
        let kill = |cluster: u32, offset: u32| {
            KgEvent::Retract(Retraction::new(vec![(cluster, vec![offset])]).unwrap())
        };
        let already = |r: Result<EstimateReport, SessionError>| matches!(r, Err(SessionError::InvalidEvent(w)) if w.contains("already retracted"));
        // Twice within one request, the second time through a revision
        // that also targets a cluster minted earlier in the request.
        let insert = KgEvent::Insert(UpdateBatch::from_sizes(vec![2; 3]).unwrap());
        let revise = KgEvent::Revise(
            Retraction::new(vec![(3, vec![0]), (401, vec![1])]).unwrap(),
            UpdateBatch::from_sizes(vec![1]).unwrap(),
        );
        assert!(already(
            registry.apply_events(id, &[insert.clone(), kill(401, 1), revise])
        ));
        assert_eq!(registry.estimate(id).unwrap().events_applied, 0);
        // Killed by an earlier request: a fresh kill in the same request
        // does not get the stale one through, and nothing is applied.
        let first = registry.apply_events(id, &[insert, kill(3, 0)]).unwrap();
        assert_eq!(first.events_applied, 2);
        assert!(already(
            registry.apply_events(id, &[kill(4, 0), kill(3, 0)])
        ));
        let after = registry.estimate(id).unwrap();
        assert_eq!(bits(&after), bits(&first));
        assert_eq!(after.events_applied, 2);
        assert_eq!(after.live_triples, first.live_triples);
        // The untouched offsets of both clusters stay killable.
        registry
            .apply_events(id, &[kill(3, 1), kill(4, 0)])
            .unwrap();
    }

    #[test]
    fn corrupted_checkpoints_return_typed_errors() {
        let registry = SessionRegistry::new();
        let id = registry.register(rs_spec()).unwrap();
        registry.apply_events(id, &stream()).unwrap();
        let bytes = registry.checkpoint(id).unwrap();
        // Every truncation fails cleanly.
        for cut in 0..bytes.len() {
            assert!(
                registry.restore(&bytes[..cut]).is_err(),
                "truncation at {cut} must not restore"
            );
        }
        // Wrong version.
        let mut wrong = bytes.clone();
        wrong[4] = 0xEE;
        assert!(matches!(
            registry.restore(&wrong),
            Err(SessionError::Codec(CodecError::UnsupportedVersion { .. }))
        ));
        // Wrong magic.
        let mut magic = bytes.clone();
        magic[0] = b'X';
        assert!(matches!(
            registry.restore(&magic),
            Err(SessionError::Codec(CodecError::BadMagic { .. }))
        ));
        // Trailing garbage.
        let mut long = bytes.clone();
        long.push(0);
        assert!(registry.restore(&long).is_err());

        // Hostile memo sections. The memo closes the record: the
        // identified clusters (u64 count, u32 ids), then the labelled words
        // (u64 count, u64 words).
        let memo = resident(&registry, id, |s| s.annotator.pack_memo());
        let extent = resident(&registry, id, |s| s.store().num_clusters());
        let (k, w) = (memo.identified.len(), memo.labelled.len());
        assert!(k > 1 && w > 0, "the churn stream annotates");
        let ids_at = bytes.len() - (8 + 4 * k + 8 + 8 * w);
        let words_at = ids_at + 8 + 4 * k;
        let invalid = |bad: &[u8], want: &str| match registry.restore(bad) {
            Err(SessionError::Codec(CodecError::Invalid { what })) => {
                assert!(what.contains(want), "{what}")
            }
            other => panic!("{want}: {other:?}"),
        };
        // A length past the record, in either section.
        for at in [ids_at, words_at] {
            for claimed in [u64::MAX, (bytes.len() - at) as u64] {
                let mut bad = bytes.clone();
                bad[at..at + 8].copy_from_slice(&claimed.to_le_bytes());
                assert!(matches!(
                    registry.restore(&bad),
                    Err(SessionError::Codec(CodecError::LengthOverflow { .. }))
                ));
            }
        }
        // An identified cluster past the population extent.
        let mut bad = bytes.clone();
        let last = words_at - 4;
        bad[last..words_at].copy_from_slice(&(extent as u32).to_le_bytes());
        invalid(&bad, "past the population extent");
        // Identified clusters out of order.
        let mut bad = bytes.clone();
        bad.copy_within(ids_at + 8..ids_at + 12, ids_at + 12);
        invalid(&bad, "strictly increasing");
        // Labelled bits for a cluster that was not identified: a word past
        // the identified ranges, or a padding bit of the last word.
        let mut bad = bytes.clone();
        bad[words_at..words_at + 8].copy_from_slice(&(w as u64 + 1).to_le_bytes());
        bad.extend_from_slice(&1u64.to_le_bytes());
        invalid(&bad, "cover exactly the identified clusters");
        let bits: u64 = memo
            .identified
            .iter()
            .map(|&c| resident(&registry, id, |s| s.store().cluster_size(c as usize)) as u64)
            .sum();
        if !bits.is_multiple_of(64) {
            let mut bad = bytes.clone();
            let top = bad.len() - 1;
            bad[top] |= 0x80;
            invalid(&bad, "not identified");
        }
        assert_eq!(registry.len(), 1, "no hostile record was adopted");
    }

    #[test]
    fn audit_is_worker_invariant() {
        let narrow = SessionRegistry::with_executor(TrialExecutor::new().with_workers(1));
        let wide = SessionRegistry::with_executor(TrialExecutor::new().with_workers(4));
        let a = narrow.register(rs_spec()).unwrap();
        let b = wide.register(rs_spec()).unwrap();
        let batch = UpdateBatch::from_sizes(vec![3; 60]).unwrap();
        narrow
            .apply_batches(a, std::slice::from_ref(&batch))
            .unwrap();
        wide.apply_batches(b, std::slice::from_ref(&batch)).unwrap();
        let ra = narrow.audit(a, 600, 0xA0D1).unwrap();
        let rb = wide.audit(b, 600, 0xA0D1).unwrap();
        assert_eq!(ra.estimate.mean.to_bits(), rb.estimate.mean.to_bits());
        assert_eq!(
            ra.estimate.var_of_mean.to_bits(),
            rb.estimate.var_of_mean.to_bits()
        );
        assert_eq!(ra.labeled, rb.labeled);
    }

    #[test]
    fn oversized_audit_is_a_typed_error_and_the_session_keeps_serving() {
        // 2^40 visits would size a 2^32-entry shard vector (a 256 GiB
        // allocation, which aborts rather than panics); the cap refuses
        // before any work.
        let registry = SessionRegistry::with_executor(TrialExecutor::new().with_workers(2));
        let id = registry.register(rs_spec()).unwrap();
        for units in [1u64 << 40, MAX_AUDIT_UNITS + 1, u64::MAX] {
            match registry.audit(id, units, 3) {
                Err(SessionError::AuditTooLarge(got)) => assert_eq!(got, units),
                other => panic!("{units} units: {other:?}"),
            }
        }
        let report = registry.audit(id, 300, 3).unwrap();
        assert_eq!((report.units, report.shards), (300, 2));
        registry.estimate(id).unwrap();
    }

    #[test]
    fn spec_validation_rejects_nonsense() {
        let registry = SessionRegistry::new();
        let mut bad = rs_spec();
        bad.base_sizes.clear();
        assert!(matches!(
            registry.register(bad),
            Err(SessionError::InvalidSpec(_))
        ));
        let mut bad = rs_spec();
        bad.m = 0;
        assert!(matches!(
            registry.register(bad),
            Err(SessionError::InvalidSpec(_))
        ));
        let mut bad = rs_spec();
        bad.kind = EvaluatorKind::Reservoir { capacity: 0 };
        assert!(matches!(
            registry.register(bad),
            Err(SessionError::InvalidSpec(_))
        ));
        let mut bad = rs_spec();
        bad.oracle_accuracy = 1.5;
        assert!(matches!(
            registry.register(bad),
            Err(SessionError::InvalidSpec(_))
        ));
        let mut bad = rs_spec();
        bad.config.alpha = 0.0;
        assert!(matches!(
            registry.register(bad),
            Err(SessionError::InvalidSpec(_))
        ));
        // One past each bound on what a spec may make a session allocate.
        let over: [fn(&mut SessionSpec); 4] = [
            |s| s.base_sizes[0] = MAX_CLUSTER_SIZE + 1,
            |s| s.base_sizes = vec![MAX_CLUSTER_SIZE; 257],
            |s| s.m = MAX_M + 1,
            |s| {
                s.kind = EvaluatorKind::Reservoir {
                    capacity: MAX_RESERVOIR_CAPACITY + 1,
                }
            },
        ];
        for breach in over {
            let mut bad = rs_spec();
            breach(&mut bad);
            assert!(matches!(
                registry.register(bad),
                Err(SessionError::InvalidSpec(_))
            ));
        }
        assert_eq!(257 * u64::from(MAX_CLUSTER_SIZE), MAX_BASE_TRIPLES + 65536);
        assert!(registry.is_empty());
        assert!(matches!(
            registry.estimate(77),
            Err(SessionError::UnknownSession(77))
        ));
    }

    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("kg-session-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn lifecycle(dir: &std::path::Path, policy: LifecyclePolicy) -> SessionRegistry {
        SessionRegistry::with_lifecycle(
            TrialExecutor::new().with_workers(2),
            policy,
            CheckpointStore::open(dir).unwrap(),
        )
    }

    #[test]
    fn lru_eviction_and_revival_are_byte_identical() {
        let dir = scratch("lru");
        let control = SessionRegistry::new();
        let churned = lifecycle(
            &dir,
            LifecyclePolicy {
                max_live: Some(1),
                ..LifecyclePolicy::default()
            },
        );
        let ca = control.register(rs_spec()).unwrap();
        let cb = control.register(ss_spec()).unwrap();
        let a = churned.register(rs_spec()).unwrap();
        let b = churned.register(ss_spec()).unwrap();
        let pre_evict = churned.checkpoint(a).unwrap();
        for event in stream() {
            // Interleave tenants so every request revives one session and
            // evicts the other (max_live = 1).
            let want_a = control
                .apply_events(ca, std::slice::from_ref(&event))
                .unwrap();
            let want_b = control
                .apply_events(cb, std::slice::from_ref(&event))
                .unwrap();
            let got_a = churned
                .apply_events(a, std::slice::from_ref(&event))
                .unwrap();
            let got_b = churned.apply_events(b, &[event]).unwrap();
            assert_eq!(
                bits(&got_a),
                bits(&want_a),
                "eviction churn changed tenant A"
            );
            assert_eq!(
                bits(&got_b),
                bits(&want_b),
                "eviction churn changed tenant B"
            );
        }
        // Each tenant's memo crossed every spill: its cost is the
        // uninterrupted monitor's.
        for (id, spec) in [(a, rs_spec()), (b, ss_spec())] {
            assert_eq!(
                cost_bits(&churned.estimate(id).unwrap()),
                monitor_cost(&spec, &stream()),
                "{:?}",
                spec.kind
            );
        }
        let stats = churned.stats();
        assert!(stats.evictions >= 4, "expected churn, got {stats:?}");
        assert!(stats.revivals >= 4, "expected revivals, got {stats:?}");
        assert_eq!(stats.corrupt_dropped, 0);
        assert_eq!(stats.live + stats.spilled, 2);
        assert_eq!(churned.len(), 2);
        // A spill round trip leaves checkpoint bytes untouched.
        drop(pre_evict);
        assert_eq!(
            churned.checkpoint(a).unwrap(),
            control.checkpoint(ca).unwrap()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn idle_ttl_evicts_only_stale_sessions() {
        let dir = scratch("ttl");
        let registry = lifecycle(
            &dir,
            LifecyclePolicy {
                idle_ttl: Some(6),
                ..LifecyclePolicy::default()
            },
        );
        let hot = registry.register(rs_spec()).unwrap();
        let cold = registry.register(ss_spec()).unwrap();
        for _ in 0..10 {
            registry.estimate(hot).unwrap();
        }
        assert!(registry.is_live(hot), "active session must stay resident");
        assert!(!registry.is_live(cold), "idle session must spill");
        assert!(registry.store().unwrap().contains(cold));
        // Touching the cold session revives it transparently.
        registry.estimate(cold).unwrap();
        assert!(registry.is_live(cold));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn drain_and_recover_resume_the_full_tenant_set() {
        let dir = scratch("drain");
        let events = stream();
        let control = SessionRegistry::new();
        let cid = control.register(rs_spec()).unwrap();
        for event in &events {
            control
                .apply_events(cid, std::slice::from_ref(event))
                .unwrap();
        }
        let first = lifecycle(&dir, LifecyclePolicy::default());
        let a = first.register(rs_spec()).unwrap();
        let b = first.register(ss_spec()).unwrap();
        for event in &events[..2] {
            first.apply_events(a, std::slice::from_ref(event)).unwrap();
            first.apply_events(b, std::slice::from_ref(event)).unwrap();
        }
        assert_eq!(first.drain_to_store().unwrap(), 2);
        drop(first);
        // Fresh process over the same spill directory.
        let second = lifecycle(&dir, LifecyclePolicy::default());
        assert_eq!(second.recover_from_store().unwrap(), 2);
        assert_eq!(second.ids(), vec![a, b], "ids survive the restart");
        assert!(!second.is_live(a) && !second.is_live(b));
        for event in &events[2..] {
            second.apply_events(a, std::slice::from_ref(event)).unwrap();
            second.apply_events(b, std::slice::from_ref(event)).unwrap();
        }
        assert_eq!(
            bits(&second.estimate(a).unwrap()),
            bits(&control.estimate(cid).unwrap()),
            "drain/recover diverged from the uninterrupted stream"
        );
        // New registrations never collide with recovered ids.
        let fresh = second.register(rs_spec()).unwrap();
        assert!(fresh > b);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_deletes_temp_files_of_crashed_saves() {
        let dir = scratch("orphan-tmp");
        let first = lifecycle(&dir, LifecyclePolicy::default());
        let a = first.register(rs_spec()).unwrap();
        first.apply_events(a, &stream()[..1]).unwrap();
        let want = first.estimate(a).unwrap();
        assert_eq!(first.drain_to_store().unwrap(), 1);
        drop(first);
        // An older build's temp-file saves of session `a` and of a
        // never-completed session were killed before their rename.
        let dead_pid = std::process::id().wrapping_add(1);
        let orphans = [
            dir.join(format!("session-{a}.kgsn.{dead_pid}.tmp")),
            dir.join(format!("session-{}.kgsn.{dead_pid}.tmp", a + 1)),
        ];
        for orphan in &orphans {
            std::fs::write(orphan, b"KGSN torn").unwrap();
        }
        let second = lifecycle(&dir, LifecyclePolicy::default());
        assert_eq!(second.recover_from_store().unwrap(), 1);
        for orphan in &orphans {
            assert!(!orphan.exists(), "{} survived recovery", orphan.display());
        }
        assert_eq!(bits(&second.estimate(a).unwrap()), bits(&want));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_through_survives_an_abrupt_kill() {
        let dir = scratch("wt");
        let events = stream();
        let control = SessionRegistry::new();
        let cid = control.register(rs_spec()).unwrap();
        control.apply_events(cid, &events[..2]).unwrap();
        let first = lifecycle(
            &dir,
            LifecyclePolicy {
                write_through: true,
                ..LifecyclePolicy::default()
            },
        );
        let id = first.register(rs_spec()).unwrap();
        first.apply_events(id, &events[..2]).unwrap();
        // Abrupt kill: no drain call. The write-through spill must hold
        // every acknowledged request.
        drop(first);
        let second = lifecycle(&dir, LifecyclePolicy::default());
        assert_eq!(second.recover_from_store().unwrap(), 1);
        assert_eq!(
            bits(&second.estimate(id).unwrap()),
            bits(&control.estimate(cid).unwrap()),
            "write-through lost an acknowledged request"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_or_missing_spill_records_fail_typed_and_are_dropped() {
        let dir = scratch("corrupt");
        let registry = lifecycle(&dir, LifecyclePolicy::default());
        let torn = registry.register(rs_spec()).unwrap();
        let vanished = registry.register(rs_spec()).unwrap();
        let healthy = registry.register(ss_spec()).unwrap();
        let healthy_before = bits(&registry.estimate(healthy).unwrap());
        assert!(registry.evict(torn).unwrap());
        assert!(registry.evict(vanished).unwrap());
        // Tear one record mid-file; delete the other outright.
        let store = registry.store().unwrap();
        let full = std::fs::read(store.path_for(torn)).unwrap();
        std::fs::write(store.path_for(torn), &full[..full.len() / 2]).unwrap();
        std::fs::remove_file(store.path_for(vanished)).unwrap();
        assert!(matches!(
            registry.estimate(torn),
            Err(SessionError::Codec(_))
        ));
        assert!(matches!(
            registry.estimate(vanished),
            Err(SessionError::Spill(SpillError::Missing(_)))
        ));
        // Both are gone (typed error once, then unknown), the torn file is
        // cleaned up, and the healthy tenant is untouched.
        assert!(matches!(
            registry.estimate(torn),
            Err(SessionError::UnknownSession(_))
        ));
        assert!(!store.contains(torn));
        assert_eq!(registry.stats().corrupt_dropped, 2);
        assert_eq!(registry.ids(), vec![healthy]);
        assert_eq!(bits(&registry.estimate(healthy).unwrap()), healthy_before);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn explicit_evict_requires_a_store_and_skips_pinned_sessions() {
        let no_store = SessionRegistry::new();
        let id = no_store.register(rs_spec()).unwrap();
        assert!(matches!(no_store.evict(id), Err(SessionError::NoStore)));
        assert!(matches!(
            no_store.drain_to_store(),
            Err(SessionError::NoStore)
        ));
        let dir = scratch("pinned");
        let registry = lifecycle(&dir, LifecyclePolicy::default());
        assert!(matches!(
            registry.evict(42),
            Err(SessionError::UnknownSession(42))
        ));
        let id = registry.register(rs_spec()).unwrap();
        let guard = registry.acquire(id).unwrap();
        assert!(
            !registry.evict(id).unwrap(),
            "pinned session must not evict"
        );
        drop(guard);
        assert!(registry.evict(id).unwrap());
        assert!(!registry.evict(id).unwrap(), "already spilled");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn audit_measures_the_live_population() {
        // Retract every false-labeled base triple: the live population is
        // then all-true, so a live-view audit must report exactly 1.0.
        // (The old gross-population audit kept sampling retracted triples
        // and reported < 1.0 — the bug this pins down.)
        let mut spec = rs_spec();
        spec.base_sizes = (0..40).map(|i| 1 + (i % 7)).collect();
        let registry = SessionRegistry::new();
        let id = registry.register(spec.clone()).unwrap();
        let oracle = RemOracle::new(spec.oracle_accuracy, spec.oracle_seed);
        let mut entries: Vec<(u32, Vec<u32>)> = Vec::new();
        for (c, &size) in spec.base_sizes.iter().enumerate() {
            let dead: Vec<u32> = (0..size)
                .filter(|&off| !oracle.label(TripleRef::new(c as u32, off)))
                .collect();
            if !dead.is_empty() {
                entries.push((c as u32, dead));
            }
        }
        assert!(!entries.is_empty(), "oracle at 0.9 must mislabel something");
        let retract = KgEvent::Retract(Retraction::new(entries).unwrap());
        registry.apply_events(id, &[retract]).unwrap();
        let report = registry.audit(id, 200, 0xBEEF).unwrap();
        assert_eq!(
            report.estimate.mean.to_bits(),
            1.0f64.to_bits(),
            "audit sampled retracted triples: mean {}",
            report.estimate.mean
        );
    }

    #[test]
    fn audit_is_stable_across_spill_revival() {
        let dir = scratch("audit-spill");
        let control = SessionRegistry::new();
        let churned = lifecycle(
            &dir,
            LifecyclePolicy {
                max_live: Some(1),
                ..LifecyclePolicy::default()
            },
        );
        let cid = control.register(rs_spec()).unwrap();
        let id = churned.register(rs_spec()).unwrap();
        let other = churned.register(ss_spec()).unwrap();
        for event in stream() {
            control
                .apply_events(cid, std::slice::from_ref(&event))
                .unwrap();
            churned
                .apply_events(id, std::slice::from_ref(&event))
                .unwrap();
            churned.apply_events(other, &[event]).unwrap();
        }
        let want = control.audit(cid, 400, 0x5EED).unwrap();
        let got = churned.audit(id, 400, 0x5EED).unwrap();
        assert_eq!(got.estimate.mean.to_bits(), want.estimate.mean.to_bits());
        assert_eq!(
            got.estimate.var_of_mean.to_bits(),
            want.estimate.var_of_mean.to_bits()
        );
        assert_eq!(got.labeled, want.labeled);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `f` of a resident session.
    fn resident<T>(registry: &SessionRegistry, id: u64, f: impl FnOnce(&Session) -> T) -> T {
        let sessions = registry.sessions.lock().unwrap();
        let Some(Slot::Live(slot)) = sessions.get(&id) else {
            panic!("session {id} is not resident");
        };
        let session = slot.session.lock().unwrap();
        f(&session)
    }

    /// `(pending clusters, clusters)` of a resident session's label store.
    fn store_fill(registry: &SessionRegistry, id: u64) -> (usize, usize) {
        resident(registry, id, |s| {
            (s.store().pending_clusters(), s.store().num_clusters())
        })
    }

    #[test]
    fn revival_labels_logged_clusters_only_on_first_touch() {
        // Revival rebuilds the directory from the batch log and nothing
        // more: every logged cluster comes back pending, a read fills
        // none, and a request fills only clusters its monitor annotates.
        let cost = CostModel::default();
        for (tag, spec) in [("pending-rs", rs_spec()), ("pending-ss", ss_spec())] {
            let dir = scratch(tag);
            let registry = lifecycle(&dir, LifecyclePolicy::default());
            let control = SessionRegistry::new();
            let id = registry.register(spec.clone()).unwrap();
            let cid = control.register(spec.clone()).unwrap();
            let batches: Vec<UpdateBatch> = (0..5u32)
                .map(|k| UpdateBatch::from_sizes(vec![2 + k % 3; 40]).unwrap())
                .collect();
            for batch in &batches {
                registry
                    .apply_batches(id, std::slice::from_ref(batch))
                    .unwrap();
                control
                    .apply_batches(cid, std::slice::from_ref(batch))
                    .unwrap();
            }
            let logged = 5 * 40;
            let extent = spec.base_sizes.len() + logged;
            assert!(registry.evict(id).unwrap(), "{tag}");

            let read = registry.estimate(id).unwrap();
            assert_eq!(store_fill(&registry, id), (logged, extent), "{tag}");
            assert_eq!(bits(&read), bits(&control.estimate(cid).unwrap()), "{tag}");

            let insert = UpdateBatch::from_sizes(vec![3; 50]).unwrap();
            let got = registry
                .apply_batches(id, std::slice::from_ref(&insert))
                .unwrap();
            let want = control.apply_batches(cid, &[insert]).unwrap();
            assert_eq!(bits(&got), bits(&want), "{tag}");
            assert_eq!(
                got.cumulative_cost_seconds.to_bits(),
                want.cumulative_cost_seconds.to_bits(),
                "{tag}"
            );
            let (pending, clusters) = store_fill(&registry, id);
            assert_eq!(clusters, extent + 50, "{tag}");
            let filled = logged + 50 - pending;
            // Only a touch fills, and every touch identifies its cluster
            // and labels at least one of its triples, so each filled
            // cluster was charged at least c1 + c2 by this request.
            let charged = got.cumulative_cost_seconds - read.cumulative_cost_seconds;
            assert!(filled > 0, "{tag}: the insert annotated nothing");
            assert!(
                filled as f64 * (cost.c1 + cost.c2) <= charged,
                "{tag}: filled {filled} clusters for {charged} s of annotation"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
