//! In-process replays of a script: the reference registry the
//! correctness gate compares served estimates against, and the traced
//! replay that times each layer's public calls.

use crate::client::{json_field, Response};
use crate::script::{Kind, Op, Request, Script, TenantSpec};
use crate::trace::Tracer;
use kg_annotate::annotator::{Annotator, SimulatedAnnotator};
use kg_annotate::cost::CostModel;
use kg_annotate::label_store::LabelStore;
use kg_annotate::oracle::RemOracle;
use kg_eval::config::EvalConfig;
use kg_eval::dynamic::monitor::run_event_sequence;
use kg_eval::dynamic::reservoir::ReservoirEvaluator;
use kg_eval::dynamic::stratified::StratifiedIncremental;
use kg_eval::dynamic::IncrementalEvaluator;
use kg_eval::session::{LifecyclePolicy, SessionRegistry};
use kg_eval::{CheckpointStore, EstimateReport, Evaluator, TrialExecutor};
use kg_model::implicit::ImplicitKg;
use kg_model::retract::KgEvent;
use kg_model::update::UpdateBatch;
use kg_sampling::PopulationIndex;
use kg_serve::{api, http, json};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;
use std::sync::Arc;

/// FNV-1a over bytes: a compact fingerprint of the checked fields of one
/// response.
pub fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn estimate_digest(mean_bits: u64, var_bits: u64, units: u64) -> u64 {
    digest(format!("{mean_bits:016x}/{var_bits:016x}/{units}").as_bytes())
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The checked fields of a served response: `mean_bits`, `var_bits` and
/// `units` of an estimate or audit, the hex payload of a checkpoint.
/// `None` if the response is not a 2xx or lacks a field.
pub fn served_digest(op: &Op, response: &Response) -> Option<u64> {
    if !(200..300).contains(&response.status) {
        return None;
    }
    let body = response.text();
    if *op == Op::Checkpoint {
        return Some(digest(json_field(body, "checkpoint")?.as_bytes()));
    }
    let bits = |key| u64::from_str_radix(json_field(body, key)?, 16).ok();
    let units = json_field(body, "units")?.parse::<u64>().ok()?;
    Some(estimate_digest(
        bits("mean_bits")?,
        bits("var_bits")?,
        units,
    ))
}

/// Served cumulative annotation cost of a final estimate read.
pub fn served_cost_seconds(response: &Response) -> Option<f64> {
    json_field(response.text(), "cumulative_cost_seconds")?
        .parse()
        .ok()
}

fn report_digest(r: &EstimateReport) -> u64 {
    estimate_digest(r.mean.to_bits(), r.var_of_mean.to_bits(), r.units as u64)
}

/// Parse a rendered request with the service's own HTTP reader.
fn parse_request(raw: &[u8]) -> Result<http::Request, String> {
    http::read_request(&mut &raw[..]).map_err(|e| format!("benchmark request unparsable: {e:?}"))
}

/// Register every tenant through `api::handle`, the service's own
/// registration path, so specs get exactly the served defaults.
fn register_all(registry: &SessionRegistry, script: &Script) -> Result<Vec<u64>, String> {
    script
        .tenants
        .iter()
        .map(|t| {
            let raw = crate::script::http_request("POST", "/kg", &t.body());
            let (status, body) = api::handle(registry, &parse_request(&raw)?);
            match (status, body.get("id").and_then(json::Json::as_u64)) {
                (200, Some(id)) => Ok(id),
                _ => Err(format!("reference registration failed: {status} {body}")),
            }
        })
        .collect()
}

fn kg_events(op: &Op) -> Vec<KgEvent> {
    match op {
        Op::Events(events) => events.iter().map(|e| e.to_kg()).collect(),
        _ => Vec::new(),
    }
}

/// Optional span sink: the tracer and the request's root span.
pub type Trace<'a> = Option<(&'a mut Tracer, usize)>;

fn timed<T>(trace: &mut Trace<'_>, name: &'static str, request: usize, f: impl FnOnce() -> T) -> T {
    match trace {
        Some((tracer, root)) => tracer.time(name, Some(*root), request, f),
        None => f(),
    }
}

/// The reference: a plain registry (no lifecycle policy) fed the same
/// script, so spilled-and-revived sessions are checked against sessions
/// that never left memory.
pub struct Reference {
    registry: SessionRegistry,
    ids: Vec<u64>,
}

impl Reference {
    pub fn new(script: &Script) -> Result<Self, String> {
        let registry = SessionRegistry::new();
        let ids = register_all(&registry, script)?;
        Ok(Reference { registry, ids })
    }

    /// Apply request `i` and return the digest the served response must
    /// carry, plus the record when the request is a checkpoint.
    pub fn expected(
        &self,
        i: usize,
        request: &Request,
        mut trace: Trace<'_>,
    ) -> Result<(u64, Option<Vec<u8>>), String> {
        let id = self.ids[request.tenant];
        let err = |e: kg_eval::session::SessionError| format!("reference request {i}: {e}");
        Ok(match &request.op {
            Op::Events(_) => {
                let events = kg_events(&request.op);
                let report = timed(&mut trace, "session.apply", i, || {
                    self.registry.apply_events(id, &events)
                });
                (report_digest(&report.map_err(err)?), None)
            }
            Op::Estimate => {
                let report = timed(&mut trace, "session.estimate", i, || {
                    self.registry.estimate(id)
                });
                (report_digest(&report.map_err(err)?), None)
            }
            Op::Checkpoint => {
                let bytes = timed(&mut trace, "session.checkpoint", i, || {
                    self.registry.checkpoint(id)
                })
                .map_err(err)?;
                (digest(hex(&bytes).as_bytes()), Some(bytes))
            }
            Op::Audit { units, seed } => {
                let report = timed(&mut trace, "sampling.audit", i, || {
                    self.registry.audit(id, *units, *seed)
                })
                .map_err(err)?;
                let digest = estimate_digest(
                    report.estimate.mean.to_bits(),
                    report.estimate.var_of_mean.to_bits(),
                    report.units,
                );
                (digest, None)
            }
        })
    }

    /// Digest and cost of tenant `tenant`'s current estimate.
    pub fn final_estimate(
        &self,
        tenant: usize,
        mut trace: Trace<'_>,
        i: usize,
    ) -> Result<(u64, f64), String> {
        let report = timed(&mut trace, "session.estimate", i, || {
            self.registry.estimate(self.ids[tenant])
        })
        .map_err(|e| format!("reference final estimate: {e}"))?;
        Ok((report_digest(&report), report.cumulative_cost_seconds))
    }
}

/// One tenant's uninterrupted monitor: the evaluator, one resident
/// annotator whose memo survives request boundaries, and a resident
/// label store.
struct Replica {
    evaluator: Box<dyn IncrementalEvaluator>,
    annotator: SimulatedAnnotator<'static>,
    oracle: &'static RemOracle,
    rng: StdRng,
    store: LabelStore,
}

impl Replica {
    /// Evaluate the base exactly as a session registration does.
    fn new(spec: &TenantSpec) -> Result<Replica, String> {
        // Leaked (a few bytes per tenant) so the resident annotator can
        // borrow the oracle for the rest of the run.
        let oracle: &'static RemOracle = Box::leak(Box::new(RemOracle::new(
            spec.oracle_accuracy(),
            spec.oracle_seed,
        )));
        let base = ImplicitKg::new(spec.base_sizes.clone()).map_err(|e| e.to_string())?;
        let mut annotator = SimulatedAnnotator::new(oracle, CostModel::default());
        let mut rng = StdRng::seed_from_u64(spec.seed);
        let config = EvalConfig::default();
        let m = spec.m as usize;
        let evaluator: Box<dyn IncrementalEvaluator> = match spec.kind {
            Kind::Reservoir { capacity } => Box::new(ReservoirEvaluator::evaluate_base(
                &base,
                capacity as usize,
                m,
                config,
                &mut annotator,
                &mut rng,
            )),
            Kind::Stratified => {
                let index =
                    Arc::new(PopulationIndex::from_population(&base).map_err(|e| e.to_string())?);
                let report = Evaluator::twcs(m)
                    .run_with_annotator(index, oracle, &mut annotator, &config, &mut rng)
                    .map_err(|e| e.to_string())?;
                Box::new(StratifiedIncremental::from_base(
                    &base,
                    report.estimate,
                    m,
                    config,
                ))
            }
        };
        Ok(Replica {
            evaluator,
            annotator,
            oracle,
            rng,
            store: LabelStore::materialize(&base, oracle),
        })
    }
}

/// Everything the traced run keeps beside the reference: a twin registry
/// configured like the server (fed the same bytes through `api::handle`),
/// the uninterrupted monitors, and a scratch registry for restore and
/// evict timings.
pub struct TracedReplay {
    pub reference: Reference,
    twin: SessionRegistry,
    twin_ids: Vec<u64>,
    scratch: SessionRegistry,
    replicas: Vec<Replica>,
    pub tracer: Tracer,
    pub checkpoint_bytes: Vec<f64>,
    pub expected: Vec<u64>,
}

impl TracedReplay {
    /// `twin_max_live` mirrors the server's `--max-live`; twin and
    /// scratch spill stores live under `state`.
    pub fn new(
        script: &Script,
        twin_max_live: Option<usize>,
        state: &Path,
    ) -> Result<Self, String> {
        let store = |name: &str| {
            CheckpointStore::open(state.join(name)).map_err(|e| format!("spill store: {e}"))
        };
        let twin = match twin_max_live {
            Some(max_live) => SessionRegistry::with_lifecycle(
                TrialExecutor::new(),
                LifecyclePolicy {
                    max_live: Some(max_live),
                    ..LifecyclePolicy::default()
                },
                store("twin")?,
            ),
            None => SessionRegistry::new(),
        };
        let twin_ids = register_all(&twin, script)?;
        let scratch = SessionRegistry::with_lifecycle(
            TrialExecutor::new(),
            LifecyclePolicy::default(),
            store("scratch")?,
        );
        Ok(TracedReplay {
            reference: Reference::new(script)?,
            twin,
            twin_ids,
            scratch,
            replicas: script
                .tenants
                .iter()
                .map(Replica::new)
                .collect::<Result<_, _>>()?,
            tracer: Tracer::new(),
            checkpoint_bytes: Vec::new(),
            expected: Vec::new(),
        })
    }

    /// Replay request `i` in-process right after its served exchange
    /// (`exchange` in tracer nanoseconds), timing every layer under one
    /// root span, and record the digest the served response must carry.
    pub fn step(
        &mut self,
        i: usize,
        request: &Request,
        exchange: (u64, u64),
    ) -> Result<(), String> {
        let root = self
            .tracer
            .record("request", exchange.0, exchange.0, None, i);
        self.tracer
            .record("serve.exchange", exchange.0, exchange.1, Some(root), i);
        let raw = request.http(self.twin_ids[request.tenant]);
        let parsed = self
            .tracer
            .time("serve.http_read", Some(root), i, || parse_request(&raw))?;
        if !parsed.body.is_empty() {
            self.tracer
                .time("serve.json_parse", Some(root), i, || {
                    json::parse(&parsed.body)
                })
                .map_err(|e| format!("benchmark body unparsable: {e}"))?;
        }
        let twin = &self.twin;
        let (status, body) = self
            .tracer
            .time("serve.handle", Some(root), i, || api::handle(twin, &parsed));
        if status != 200 {
            return Err(format!("twin registry answered {status}: {body}"));
        }
        let expected = self.timed_reference(i, request, root)?;
        if let Op::Events(events) = &request.op {
            let kg = kg_events(&request.op);
            let replica = &mut self.replicas[request.tenant];
            let alpha = EvalConfig::default().alpha;
            self.tracer.time("monitor.apply", Some(root), i, || {
                run_event_sequence(
                    replica.evaluator.as_mut(),
                    &kg,
                    alpha,
                    &mut replica.annotator,
                    &mut replica.rng,
                )
            });
            let batches: Vec<UpdateBatch> = events
                .iter()
                .filter_map(|e| e.inserted())
                .map(|s| UpdateBatch::from_sizes(s.to_vec()).expect("positive sizes"))
                .collect();
            if !batches.is_empty() {
                self.tracer
                    .time("annotate.store_extend", Some(root), i, || {
                        for batch in &batches {
                            replica.store.extend_with_batch(batch, replica.oracle);
                        }
                    });
            }
        }
        self.tracer.spans[root].end_ns = self.tracer.now_ns();
        self.expected.push(expected);
        Ok(())
    }

    /// The reference's outcome for request `i`, timed under `root`. A
    /// checkpoint's record is also restored into, and evicted from, the
    /// scratch registry, then dropped there.
    fn timed_reference(&mut self, i: usize, request: &Request, root: usize) -> Result<u64, String> {
        let trace = Some((&mut self.tracer, root));
        let (digest, checkpoint) = self.reference.expected(i, request, trace)?;
        if let Some(bytes) = checkpoint {
            self.checkpoint_bytes.push(bytes.len() as f64);
            let scratch = &self.scratch;
            let id = self
                .tracer
                .time("session.restore", Some(root), i, || scratch.restore(&bytes))
                .map_err(|e| format!("scratch restore: {e}"))?;
            self.tracer
                .time("spill.evict", Some(root), i, || scratch.evict(id))
                .map_err(|e| format!("scratch evict: {e}"))?;
            scratch.remove(id);
        }
        Ok(digest)
    }

    /// Probe the codec, spill and audit layers on up to 32 tenants' final
    /// sessions when the script itself never reached them. Span request
    /// ids start at `first_id`.
    pub fn probe_unscripted_layers(
        &mut self,
        script: &Script,
        first_id: usize,
    ) -> Result<(), String> {
        let scripted = |f: fn(&Op) -> bool| script.requests.iter().any(|r| f(&r.op));
        let has_checkpoint = scripted(|op| *op == Op::Checkpoint);
        let has_audit = scripted(|op| matches!(op, Op::Audit { .. }));
        let n = script.tenants.len();
        let step = n.div_ceil(32);
        for (k, tenant) in (0..n).step_by(step).enumerate() {
            let i = first_id + k;
            let root = self
                .tracer
                .record("probe", self.tracer.now_ns(), 0, None, i);
            let mut probes = Vec::new();
            if !has_checkpoint {
                probes.push(Op::Checkpoint);
            }
            if !has_audit {
                probes.push(Op::Audit {
                    units: 200,
                    seed: k as u64,
                });
            }
            for op in probes {
                self.timed_reference(i, &Request { tenant, op }, root)?;
            }
            self.tracer.spans[root].end_ns = self.tracer.now_ns();
        }
        Ok(())
    }

    /// Summed annotation seconds of the uninterrupted monitors.
    pub fn monitor_cost_seconds(&self) -> f64 {
        self.replicas.iter().map(|r| r.annotator.seconds()).sum()
    }
}
