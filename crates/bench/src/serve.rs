//! Tenant-fleet helpers shared by the kg-serve harnesses: the
//! resilience chaos run (`bench-report --resilience`, [`crate::chaos`])
//! and the `serve_checks` integration test, which byte-checks the
//! in-process accept loop against a local `SessionRegistry` replay.
//!
//! A fleet spreads its tenants over [`FAMILIES`] spec families
//! (reservoir/stratified, each over its own base KG and oracle), so the
//! registry's catalog interning is on the path: every tenant in a family
//! shares one materialized label store. Each tenant gets a deterministic
//! insert/retract/revise script. [`Client`] is the one HTTP client both
//! harnesses drive the server with; it parses every answer with the
//! server's own strict JSON reader ([`kg_serve::json`]).

use kg_eval::session::{EstimateReport, EvaluatorKind, SessionSpec};
use kg_eval::EvalConfig;
use kg_model::retract::{KgEvent, Retraction};
use kg_model::update::UpdateBatch;
use kg_serve::json::{self, Json};
use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::time::Duration;

/// Spec families a fleet cycles through.
pub const FAMILIES: usize = 8;

/// The spec of `tenant` in a fleet seeded by `seed`.
pub fn spec_for(seed: u64, tenant: usize) -> SessionSpec {
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
pub fn script_for(tenant: usize) -> Vec<KgEvent> {
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

fn event_json(event: &KgEvent) -> String {
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

/// A `POST /kg/{id}/events` body carrying `events`.
pub fn events_body(events: &[KgEvent]) -> String {
    let parts: Vec<String> = events.iter().map(event_json).collect();
    format!(r#"{{"events":[{}]}}"#, parts.join(","))
}

/// A `POST /kg` registration body for `spec`.
pub fn spec_json(spec: &SessionSpec) -> String {
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

/// SplitMix64 — the deterministic hash behind the chaos fault plan and
/// the client's backoff jitter.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A single-threaded HTTP client: connect/read failures, 408s, and 503s
/// are retried with capped exponential backoff and deterministic jitter;
/// anything else (including 404/500 — those are *answers* under chaos)
/// is returned to the caller. A fault-free run should see no retries.
pub struct Client {
    /// Server address; updated when a harness restarts the server.
    pub addr: String,
    seed: u64,
    /// HTTP requests issued (including retries).
    pub requests: u64,
    /// Retries forced by dropped connections, shedding, or timeouts.
    pub retries: u64,
}

impl Client {
    const MAX_ATTEMPTS: u32 = 12;

    /// A client for `addr`; `seed` drives the backoff jitter.
    pub fn new(addr: impl Into<String>, seed: u64) -> Self {
        Client {
            addr: addr.into(),
            seed,
            requests: 0,
            retries: 0,
        }
    }

    fn one_shot(&self, method: &str, path: &str, body: &str) -> Option<(u16, String)> {
        let mut stream = TcpStream::connect(&self.addr).ok()?;
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .ok()?;
        write!(
            stream,
            "{method} {path} HTTP/1.1\r\nhost: kg-serve\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
            body.len()
        )
        .ok()?;
        let mut response = String::new();
        stream.read_to_string(&mut response).ok()?;
        let status: u16 = response.split_whitespace().nth(1)?.parse().ok()?;
        let body = response.split_once("\r\n\r\n")?.1.to_string();
        Some((status, body))
    }

    /// One exchange, retried until it gets an answer; returns status and
    /// body.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> (u16, String) {
        for attempt in 0..Self::MAX_ATTEMPTS {
            self.requests += 1;
            match self.one_shot(method, path, body) {
                Some((status, body)) if status != 408 && status != 503 => {
                    return (status, body);
                }
                // Dropped connection (an injected fault or a kill racing
                // the exchange), deadline trip, or load shed: back off
                // and retry. Faults fire pre-dispatch, so the retry hits
                // unchanged state.
                _ => {
                    self.retries += 1;
                    let jitter =
                        splitmix64(self.seed ^ self.requests ^ u64::from(attempt) << 32) % 4;
                    let backoff = (2u64 << attempt.min(5)).min(50) + jitter;
                    std::thread::sleep(Duration::from_millis(backoff));
                }
            }
        }
        panic!(
            "{method} {path}: no answer after {} attempts",
            Self::MAX_ATTEMPTS
        );
    }

    /// One exchange that must answer `200`; returns the parsed body.
    pub fn ok(&mut self, method: &str, path: &str, body: &str) -> Json {
        let (status, body) = self.request(method, path, body);
        assert_eq!(status, 200, "{method} {path}: {body}");
        json::parse(body.as_bytes()).unwrap_or_else(|e| panic!("{method} {path}: {e}: {body}"))
    }
}

/// `mean_bits`, `var_bits` and `units` of an estimate, and the bits of its
/// `cumulative_cost_seconds`: the fingerprint every byte comparison uses.
/// A session's cost is Definition 3 over its event stream, however the
/// stream was split into requests or spilled, so it is compared as
/// exactly as the estimate.
pub type EstimateBits = (String, String, u64, u64);

/// The fingerprint of a served estimate (an events or estimate answer).
pub fn served_bits(doc: &Json) -> EstimateBits {
    let hex = |key: &str| {
        doc.get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("{key} in {doc:?}"))
            .to_string()
    };
    let units = doc
        .get("units")
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("units in {doc:?}"));
    let cost = doc
        .get("cumulative_cost_seconds")
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("cumulative_cost_seconds in {doc:?}"));
    (hex("mean_bits"), hex("var_bits"), units, cost.to_bits())
}

/// The fingerprint of an in-process estimate, formatted as the server
/// formats it.
pub fn local_bits(rep: &EstimateReport) -> EstimateBits {
    (
        format!("{:016x}", rep.mean.to_bits()),
        format!("{:016x}", rep.var_of_mean.to_bits()),
        rep.units as u64,
        rep.cumulative_cost_seconds.to_bits(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

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
