//! `--serve` mode: load-test the kg-serve accuracy-monitoring service.
//!
//! Starts the real serving stack **in-process** (the production
//! `kg_serve::serve` accept loop on an ephemeral port), then drives it
//! over actual TCP from a pool of client threads:
//!
//! 1. **Registration phase** — register `tenants` monitor sessions
//!    (quick: 1000, full: 2000) spread over eight spec families
//!    (reservoir/stratified, each over its own base KG and oracle).
//!    Families exercise the registry's catalog interning: every tenant in
//!    a family shares one materialized label store.
//! 2. **Traffic phase** — each tenant receives a deterministic
//!    insert/retract/revise event script (one event per request, so the
//!    request-partitioning invariant is on the hot path) plus an
//!    estimate read. Tenants are partitioned by client thread, so each
//!    tenant's request order is sequential and replayable.
//! 3. **Checks** — for a sample of tenants, the served estimate is
//!    byte-compared (`mean_bits`/`var_bits`) against an in-process
//!    `SessionRegistry` replay of the same spec and event script; for a
//!    smaller sample, a checkpoint is taken over HTTP, restored via
//!    `POST /kg`, and both sessions are driven one more event and must
//!    stay byte-identical. Both checks are asserted — a mismatch fails
//!    the run, not just the report.
//!
//! The JSON artifact (`BENCH_serve.json`, schema `kg-bench-serve/v1`)
//! records tenants held, request throughput, and latency percentiles
//! for both phases, plus the check outcomes.

use kg_eval::session::{EvaluatorKind, SessionRegistry, SessionSpec};
use kg_eval::EvalConfig;
use kg_model::retract::{KgEvent, Retraction};
use kg_model::update::UpdateBatch;
use std::io::{Read as _, Write as _};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::Instant;

/// Options for the serve load harness.
#[derive(Debug, Clone, Copy)]
pub struct ServeOpts {
    /// Quick mode: 1000 tenants instead of 2000 (still at the ≥1000
    /// sessions-held target).
    pub quick: bool,
    /// Base seed; tenant monitor seeds derive from it.
    pub seed: u64,
}

impl Default for ServeOpts {
    fn default() -> Self {
        ServeOpts {
            quick: false,
            seed: 20190923,
        }
    }
}

/// Throughput and latency for one phase.
#[derive(Debug, Clone, Copy)]
pub struct PhaseStats {
    /// Requests issued.
    pub requests: usize,
    /// Wall-clock for the whole phase.
    pub elapsed_sec: f64,
    /// Aggregate requests per second across all client threads.
    pub requests_per_sec: f64,
    /// Median request latency, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile request latency, milliseconds.
    pub p99_ms: f64,
}

/// Everything the serve harness measured.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Quick mode?
    pub quick: bool,
    /// Base seed.
    pub seed: u64,
    /// Client threads driving the server.
    pub clients: usize,
    /// Tenant sessions registered (and still held at the end of the run).
    pub tenants: usize,
    /// Distinct spec families (catalog-interned base KGs).
    pub spec_families: usize,
    /// Registration phase stats.
    pub registration: PhaseStats,
    /// Traffic phase stats (event posts + estimate reads).
    pub traffic: PhaseStats,
    /// Event POSTs in the traffic phase.
    pub event_posts: usize,
    /// Estimate GETs in the traffic phase.
    pub estimate_gets: usize,
    /// Sampled tenants whose served estimates were byte-compared against
    /// an in-process replay.
    pub sampled_tenants: usize,
    /// Did every sampled tenant match bytewise?
    pub estimates_match: bool,
    /// Sampled tenants taken through checkpoint → HTTP restore → resume.
    pub restored_tenants: usize,
    /// Did every restored tenant stay byte-identical to its source?
    pub restore_match: bool,
}

pub(crate) const FAMILIES: usize = 8;

pub(crate) fn spec_for(seed: u64, tenant: usize) -> SessionSpec {
    let f = tenant % FAMILIES;
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
        // Derived seeds must stay JSON-exact (≤ 2^53); the API rejects
        // anything an IEEE double cannot carry losslessly.
        seed: seed ^ ((tenant as u64) * 0x9E37_79B9),
        oracle_accuracy: 0.84 + 0.02 * (f % 6) as f64,
        oracle_seed: 11 + f as u64,
        base_sizes: (0..base).map(|i| 1 + ((i + f) as u32) % 7).collect(),
    }
}

/// The deterministic per-tenant traffic script: insert, retract, revise.
/// Retraction targets are distinct clusters (base > 3), each at offset 0
/// of a cluster whose size is ≥ 1, so the script is always valid.
pub(crate) fn script_for(tenant: usize) -> Vec<KgEvent> {
    let base = (96 + 8 * (tenant % FAMILIES)) as u32;
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

fn join_u32(sizes: &[u32]) -> String {
    let parts: Vec<String> = sizes.iter().map(u32::to_string).collect();
    parts.join(",")
}

fn entries_json(r: &Retraction) -> String {
    let parts: Vec<String> = r
        .entries()
        .iter()
        .map(|(cluster, offsets)| {
            let offs: Vec<String> = offsets.iter().map(u32::to_string).collect();
            format!(r#"{{"cluster":{cluster},"offsets":[{}]}}"#, offs.join(","))
        })
        .collect();
    parts.join(",")
}

pub(crate) fn event_json(event: &KgEvent) -> String {
    match event {
        KgEvent::Insert(batch) => {
            format!(
                r#"{{"op":"insert","sizes":[{}]}}"#,
                join_u32(batch.delta_sizes())
            )
        }
        KgEvent::Retract(r) => format!(r#"{{"op":"retract","entries":[{}]}}"#, entries_json(r)),
        KgEvent::Revise(r, batch) => format!(
            r#"{{"op":"revise","entries":[{}],"sizes":[{}]}}"#,
            entries_json(r),
            join_u32(batch.delta_sizes())
        ),
    }
}

pub(crate) fn events_body(events: &[KgEvent]) -> String {
    let parts: Vec<String> = events.iter().map(event_json).collect();
    format!(r#"{{"events":[{}]}}"#, parts.join(","))
}

pub(crate) fn spec_json(spec: &SessionSpec) -> String {
    let kind = match spec.kind {
        EvaluatorKind::Reservoir { capacity } => {
            format!(r#""kind":"reservoir","capacity":{capacity}"#)
        }
        EvaluatorKind::Stratified => r#""kind":"stratified""#.to_string(),
    };
    format!(
        r#"{{{kind},"m":{},"seed":{},"oracle_accuracy":{},"oracle_seed":{},"base_sizes":[{}]}}"#,
        spec.m,
        spec.seed,
        spec.oracle_accuracy,
        spec.oracle_seed,
        join_u32(&spec.base_sizes)
    )
}

/// One HTTP exchange against the in-process server.
fn request(addr: &str, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to kg-serve");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nhost: kg-serve\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    )
    .expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .expect("status line")
        .parse()
        .expect("numeric status");
    let body = response
        .split_once("\r\n\r\n")
        .expect("header/body separator")
        .1
        .to_string();
    (status, body)
}

fn ok(addr: &str, method: &str, path: &str, body: &str) -> String {
    let (status, body) = request(addr, method, path, body);
    assert_eq!(status, 200, "{method} {path}: {body}");
    body
}

pub(crate) fn str_field(body: &str, key: &str) -> String {
    let tag = format!("\"{key}\":\"");
    let start = body.find(&tag).unwrap_or_else(|| panic!("{key} in {body}")) + tag.len();
    let end = body[start..].find('"').expect("closing quote") + start;
    body[start..end].to_string()
}

pub(crate) fn num_field(body: &str, key: &str) -> String {
    let tag = format!("\"{key}\":");
    let start = body.find(&tag).unwrap_or_else(|| panic!("{key} in {body}")) + tag.len();
    let end = body[start..].find([',', '}']).expect("field terminator") + start;
    body[start..end].to_string()
}

/// The served-estimate fingerprint used for byte comparisons.
pub(crate) fn served_bits(body: &str) -> (String, String, String) {
    (
        str_field(body, "mean_bits"),
        str_field(body, "var_bits"),
        num_field(body, "units"),
    )
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((p / 100.0) * (sorted_ms.len() - 1) as f64).round() as usize;
    sorted_ms[idx.min(sorted_ms.len() - 1)]
}

fn phase_stats(requests: usize, elapsed_sec: f64, mut latencies_ms: Vec<f64>) -> PhaseStats {
    latencies_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    PhaseStats {
        requests,
        elapsed_sec,
        requests_per_sec: if elapsed_sec > 0.0 {
            requests as f64 / elapsed_sec
        } else {
            0.0
        },
        p50_ms: percentile(&latencies_ms, 50.0),
        p99_ms: percentile(&latencies_ms, 99.0),
    }
}

/// Run the harness at the standard scale.
pub fn run(opts: &ServeOpts) -> ServeReport {
    let tenants = if opts.quick { 1000 } else { 2000 };
    let (sampled, restored) = if opts.quick { (16, 8) } else { (32, 8) };
    run_scaled(opts, tenants, 8, sampled, restored)
}

/// Run with explicit scales (unit tests use tiny ones).
fn run_scaled(
    opts: &ServeOpts,
    tenants: usize,
    clients: usize,
    sampled: usize,
    restored: usize,
) -> ServeReport {
    let registry = Arc::new(SessionRegistry::new());
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().expect("bound address").to_string();
    {
        let registry = Arc::clone(&registry);
        thread::spawn(move || kg_serve::serve(listener, registry));
    }

    // Registration: tenants partitioned over client threads.
    let seed = opts.seed;
    let reg_start = Instant::now();
    let mut ids = vec![0u64; tenants];
    let mut reg_lat: Vec<f64> = Vec::with_capacity(tenants);
    thread::scope(|s| {
        let addr = addr.as_str();
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                s.spawn(move || {
                    let mut out = Vec::new();
                    let mut lat = Vec::new();
                    let mut t = c;
                    while t < tenants {
                        let body = spec_json(&spec_for(seed, t));
                        let t0 = Instant::now();
                        let resp = ok(addr, "POST", "/kg", &body);
                        lat.push(t0.elapsed().as_secs_f64() * 1e3);
                        let id: u64 = num_field(&resp, "id").parse().expect("numeric id");
                        out.push((t, id));
                        t += clients;
                    }
                    (out, lat)
                })
            })
            .collect();
        for h in handles {
            let (pairs, lat) = h.join().expect("registration client");
            for (t, id) in pairs {
                ids[t] = id;
            }
            reg_lat.extend(lat);
        }
    });
    let registration = phase_stats(tenants, reg_start.elapsed().as_secs_f64(), reg_lat);

    // Traffic: one event per request (request partitioning on the hot
    // path) plus an estimate read per tenant.
    let traffic_start = Instant::now();
    let mut traffic_lat: Vec<f64> = Vec::new();
    thread::scope(|s| {
        let addr = addr.as_str();
        let ids = ids.as_slice();
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                s.spawn(move || {
                    let mut lat = Vec::new();
                    let mut t = c;
                    while t < tenants {
                        let id = ids[t];
                        for event in script_for(t) {
                            let body = events_body(&[event]);
                            let t0 = Instant::now();
                            ok(addr, "POST", &format!("/kg/{id}/events"), &body);
                            lat.push(t0.elapsed().as_secs_f64() * 1e3);
                        }
                        let t0 = Instant::now();
                        ok(addr, "GET", &format!("/kg/{id}/estimate"), "");
                        lat.push(t0.elapsed().as_secs_f64() * 1e3);
                        t += clients;
                    }
                    lat
                })
            })
            .collect();
        for h in handles {
            traffic_lat.extend(h.join().expect("traffic client"));
        }
    });
    let event_posts = (0..tenants).map(|t| script_for(t).len()).sum::<usize>();
    let estimate_gets = tenants;
    let traffic = phase_stats(
        event_posts + estimate_gets,
        traffic_start.elapsed().as_secs_f64(),
        traffic_lat,
    );

    // Check 1: served estimates are byte-identical to an in-process
    // replay of the same spec + script.
    let sampled = sampled.min(tenants);
    let stride = (tenants / sampled.max(1)).max(1);
    let local = SessionRegistry::new();
    let mut estimates_match = true;
    for k in 0..sampled {
        let t = k * stride;
        let lid = local.register(spec_for(seed, t)).expect("local register");
        local
            .apply_events(lid, &script_for(t))
            .expect("local replay");
        let rep = local.estimate(lid).expect("local estimate");
        let want = (
            format!("{:016x}", rep.mean.to_bits()),
            format!("{:016x}", rep.var_of_mean.to_bits()),
            rep.units.to_string(),
        );
        let got = served_bits(&ok(&addr, "GET", &format!("/kg/{}/estimate", ids[t]), ""));
        if got != want {
            eprintln!("tenant {t}: served {got:?} != local {want:?}");
            estimates_match = false;
        }
    }
    assert!(
        estimates_match,
        "served estimates diverged from in-process evaluation"
    );

    // Check 2: checkpoint → HTTP restore → one more event stays
    // byte-identical to the source session.
    let restored = restored.min(tenants);
    let rstride = (tenants / restored.max(1)).max(1);
    let mut restore_match = true;
    for k in 0..restored {
        let t = (k * rstride + 1) % tenants;
        let id = ids[t];
        let payload = str_field(
            &ok(&addr, "POST", &format!("/kg/{id}/checkpoint"), ""),
            "checkpoint",
        );
        let resp = ok(
            &addr,
            "POST",
            "/kg",
            &format!(r#"{{"checkpoint":"{payload}"}}"#),
        );
        let rid: u64 = num_field(&resp, "id").parse().expect("restored id");
        let tail = events_body(&[KgEvent::Insert(
            UpdateBatch::from_sizes(vec![4, 4, 4]).expect("sizes"),
        )]);
        let a = served_bits(&ok(&addr, "POST", &format!("/kg/{id}/events"), &tail));
        let b = served_bits(&ok(&addr, "POST", &format!("/kg/{rid}/events"), &tail));
        if a != b {
            eprintln!("tenant {t}: restored session diverged: {a:?} != {b:?}");
            restore_match = false;
        }
    }
    assert!(
        restore_match,
        "restored sessions diverged from their source"
    );

    ServeReport {
        quick: opts.quick,
        seed,
        clients,
        tenants,
        spec_families: FAMILIES,
        registration,
        traffic,
        event_posts,
        estimate_gets,
        sampled_tenants: sampled,
        estimates_match,
        restored_tenants: restored,
        restore_match,
    }
}

/// Human-readable summary table.
pub fn render_table(r: &ServeReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "kg-serve load harness — {} tenants over {} spec families, {} clients{}\n",
        r.tenants,
        r.spec_families,
        r.clients,
        if r.quick { " (quick)" } else { "" }
    ));
    out.push_str("phase         requests    req/s   p50 ms   p99 ms\n");
    for (name, p) in [("registration", &r.registration), ("traffic", &r.traffic)] {
        out.push_str(&format!(
            "{name:<13} {:>8} {:>8.0} {:>8.3} {:>8.3}\n",
            p.requests, p.requests_per_sec, p.p50_ms, p.p99_ms
        ));
    }
    out.push_str(&format!(
        "checks: estimates_match={} ({} sampled)  restore_match={} ({} restored)\n",
        r.estimates_match, r.sampled_tenants, r.restore_match, r.restored_tenants
    ));
    out
}

fn phase_json(p: &PhaseStats) -> String {
    format!(
        r#"{{"requests":{},"elapsed_sec":{:.3},"requests_per_sec":{:.1},"p50_ms":{:.3},"p99_ms":{:.3}}}"#,
        p.requests, p.elapsed_sec, p.requests_per_sec, p.p50_ms, p.p99_ms
    )
}

/// Serialize for `BENCH_serve.json` (schema `kg-bench-serve/v1`).
pub fn to_json(r: &ServeReport) -> String {
    format!(
        "{{\n  \"schema\": \"kg-bench-serve/v1\",\n  \"quick\": {},\n  \"seed\": {},\n  \"clients\": {},\n  \"tenants\": {},\n  \"spec_families\": {},\n  \"registration\": {},\n  \"traffic\": {},\n  \"mix\": {{\"event_posts\": {}, \"estimate_gets\": {}}},\n  \"checks\": {{\"estimates_match\": {}, \"sampled_tenants\": {}, \"restore_match\": {}, \"restored_tenants\": {}}}\n}}\n",
        r.quick,
        r.seed,
        r.clients,
        r.tenants,
        r.spec_families,
        phase_json(&r.registration),
        phase_json(&r.traffic),
        r.event_posts,
        r.estimate_gets,
        r.estimates_match,
        r.sampled_tenants,
        r.restore_match,
        r.restored_tenants
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_harness_run_passes_both_checks() {
        let opts = ServeOpts {
            quick: true,
            ..Default::default()
        };
        let report = run_scaled(&opts, 16, 4, 8, 4);
        assert_eq!(report.tenants, 16);
        assert!(report.estimates_match);
        assert!(report.restore_match);
        assert_eq!(report.registration.requests, 16);
        assert_eq!(
            report.traffic.requests,
            report.event_posts + report.estimate_gets
        );
        let json = to_json(&report);
        assert!(json.contains("\"schema\": \"kg-bench-serve/v1\""));
        assert!(json.contains("\"estimates_match\": true"));
    }

    #[test]
    fn tenant_scripts_are_valid_and_deterministic() {
        for t in 0..FAMILIES * 2 {
            let spec = spec_for(20190923, t);
            assert_eq!(spec_json(&spec), spec_json(&spec_for(20190923, t)));
            let script = script_for(t);
            assert_eq!(script.len(), 3);
            assert_eq!(events_body(&script), events_body(&script_for(t)));
        }
    }
}
