//! Route dispatch: HTTP requests → [`SessionRegistry`] calls → JSON.
//!
//! | Endpoint | Meaning |
//! |---|---|
//! | `POST /kg` | Register a session from a spec, **or** restore one from a `checkpoint` payload |
//! | `GET /kg` | List live session ids |
//! | `POST /kg/{id}/batch` | Apply insert batches |
//! | `POST /kg/{id}/events` | Apply interleaved insert/retract/revise events |
//! | `GET /kg/{id}/estimate` | Live accuracy estimate + MoE |
//! | `POST /kg/{id}/checkpoint` | Serialize the session (`KGSN` v1, hex) |
//! | `GET /kg/{id}/audit?units=&seed=` | Full-fidelity sharded audit |
//! | `GET /healthz` | Liveness |
//!
//! The server layer (`crate::Server`) additionally answers
//! `POST /admin/drain` (graceful shutdown) and `GET /admin/stats`
//! (serving + lifecycle counters) before requests reach this dispatcher.
//!
//! Estimate responses carry `mean_bits` / `var_bits` — the exact `f64`
//! bit patterns in hex — so clients can byte-diff estimate streams
//! without worrying about decimal round-tripping.

use crate::http::Request;
use crate::json::{parse, Json};
use kg_eval::config::EvalConfig;
use kg_eval::session::{EstimateReport, EvaluatorKind, SessionError, SessionRegistry, SessionSpec};
use kg_eval::ShardReplayReport;
use kg_model::retract::{KgEvent, Retraction};
use kg_model::update::UpdateBatch;
use kg_model::KgError;

/// Encode bytes as lowercase hex.
pub fn hex_encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push_str(&format!("{b:02x}"));
    }
    out
}

/// Decode lowercase/uppercase hex into bytes.
pub fn hex_decode(text: &str) -> Option<Vec<u8>> {
    if !text.len().is_multiple_of(2) {
        return None;
    }
    let digits = text.as_bytes();
    let mut out = Vec::with_capacity(digits.len() / 2);
    for pair in digits.chunks_exact(2) {
        let hi = (pair[0] as char).to_digit(16)?;
        let lo = (pair[1] as char).to_digit(16)?;
        out.push((hi << 4 | lo) as u8);
    }
    Some(out)
}

fn err_json(message: impl Into<String>) -> Json {
    Json::Obj(vec![("error".to_string(), Json::Str(message.into()))])
}

fn status_of(e: &SessionError) -> u16 {
    match e {
        SessionError::UnknownSession(_) => 404,
        _ => 400,
    }
}

/// Status for an operation on an *existing* session id. Here a codec or
/// spill failure is not a bad request — it means the session's spill
/// record was torn or lost, the server dropped the session, and the
/// client should restore from its own checkpoint: 500, then 404.
fn status_of_session_op(e: &SessionError) -> u16 {
    match e {
        SessionError::UnknownSession(_) => 404,
        SessionError::Codec(_) | SessionError::Spill(_) | SessionError::NoStore => 500,
        _ => 400,
    }
}

fn estimate_json(r: &EstimateReport) -> Json {
    Json::Obj(vec![
        ("mean".into(), Json::Num(r.mean)),
        (
            "mean_bits".into(),
            Json::Str(format!("{:016x}", r.mean.to_bits())),
        ),
        ("var_of_mean".into(), Json::Num(r.var_of_mean)),
        (
            "var_bits".into(),
            Json::Str(format!("{:016x}", r.var_of_mean.to_bits())),
        ),
        ("units".into(), Json::Num(r.units as f64)),
        ("moe".into(), Json::Num(r.moe)),
        ("saturated".into(), Json::Bool(r.saturated)),
        ("live_triples".into(), Json::Num(r.live_triples as f64)),
        ("events_applied".into(), Json::Num(r.events_applied as f64)),
        (
            "cumulative_cost_seconds".into(),
            Json::Num(r.cumulative_cost_seconds),
        ),
    ])
}

fn audit_json(r: &ShardReplayReport) -> Json {
    Json::Obj(vec![
        ("design".into(), Json::Str(r.design.to_string())),
        ("units".into(), Json::Num(r.units as f64)),
        ("shards".into(), Json::Num(r.shards as f64)),
        ("mean".into(), Json::Num(r.estimate.mean)),
        (
            "mean_bits".into(),
            Json::Str(format!("{:016x}", r.estimate.mean.to_bits())),
        ),
        ("var_of_mean".into(), Json::Num(r.estimate.var_of_mean)),
        (
            "var_bits".into(),
            Json::Str(format!("{:016x}", r.estimate.var_of_mean.to_bits())),
        ),
        ("labeled".into(), Json::Num(r.labeled as f64)),
        ("cost_seconds".into(), Json::Num(r.cost_seconds)),
    ])
}

fn u32_list(value: &Json, what: &'static str) -> Result<Vec<u32>, String> {
    let items = value
        .as_array()
        .ok_or_else(|| format!("{what} must be an array"))?;
    items
        .iter()
        .map(|j| {
            j.as_u64()
                .filter(|&n| n <= u64::from(u32::MAX))
                .map(|n| n as u32)
                .ok_or_else(|| format!("{what} entries must be u32 integers"))
        })
        .collect()
}

/// A numeric field that is allowed to be absent but, when present, must
/// be a JSON-exact integer (≤ 2^53 — the IEEE-double limit every JSON
/// stack shares). Silently defaulting a malformed or out-of-range value
/// would register a *different monitor* than the client asked for.
fn opt_u64(doc: &Json, key: &'static str) -> Result<Option<u64>, String> {
    match doc.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("{key} must be an integer in [0, 2^53)")),
    }
}

fn opt_f64(doc: &Json, key: &'static str) -> Result<Option<f64>, String> {
    match doc.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_f64()
            .map(Some)
            .ok_or_else(|| format!("{key} must be a number")),
    }
}

fn spec_from_json(doc: &Json) -> Result<SessionSpec, String> {
    let kind = match doc.get("kind").and_then(Json::as_str) {
        Some("reservoir") => EvaluatorKind::Reservoir {
            capacity: opt_u64(doc, "capacity")?.ok_or("reservoir specs need a capacity")? as usize,
        },
        Some("stratified") => EvaluatorKind::Stratified,
        _ => return Err("kind must be \"reservoir\" or \"stratified\"".into()),
    };
    let defaults = EvalConfig::default();
    let config = EvalConfig {
        alpha: opt_f64(doc, "alpha")?.unwrap_or(defaults.alpha),
        target_moe: opt_f64(doc, "target_moe")?.unwrap_or(defaults.target_moe),
        batch_size: opt_u64(doc, "batch_size")?.unwrap_or(defaults.batch_size as u64) as usize,
        min_units: opt_u64(doc, "min_units")?.unwrap_or(defaults.min_units as u64) as usize,
        max_units: opt_u64(doc, "max_units")?.unwrap_or(defaults.max_units as u64) as usize,
    };
    Ok(SessionSpec {
        kind,
        m: opt_u64(doc, "m")?.unwrap_or(5) as usize,
        config,
        seed: opt_u64(doc, "seed")?.unwrap_or(0),
        oracle_accuracy: opt_f64(doc, "oracle_accuracy")?.ok_or("oracle_accuracy is required")?,
        oracle_seed: opt_u64(doc, "oracle_seed")?.unwrap_or(0),
        base_sizes: u32_list(
            doc.get("base_sizes").ok_or("base_sizes is required")?,
            "base_sizes",
        )?,
    })
}

fn retraction_from_json(value: &Json) -> Result<Retraction, String> {
    let entries = value
        .as_array()
        .ok_or("entries must be an array")?
        .iter()
        .map(|entry| {
            let cluster = entry
                .get("cluster")
                .and_then(Json::as_u64)
                .filter(|&n| n <= u64::from(u32::MAX))
                .ok_or("each entry needs a u32 cluster")? as u32;
            let offsets = u32_list(
                entry.get("offsets").ok_or("each entry needs offsets")?,
                "offsets",
            )?;
            Ok((cluster, offsets))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Retraction::new(entries).map_err(|e: KgError| e.to_string())
}

fn batch_from_json(value: &Json, what: &'static str) -> Result<UpdateBatch, String> {
    UpdateBatch::from_sizes(u32_list(value, what)?).map_err(|e| e.to_string())
}

fn events_from_json(doc: &Json) -> Result<Vec<KgEvent>, String> {
    doc.get("events")
        .and_then(Json::as_array)
        .ok_or("body needs an events array")?
        .iter()
        .map(|event| match event.get("op").and_then(Json::as_str) {
            Some("insert") => Ok(KgEvent::Insert(batch_from_json(
                event.get("sizes").ok_or("insert needs sizes")?,
                "sizes",
            )?)),
            Some("retract") => Ok(KgEvent::Retract(retraction_from_json(
                event.get("entries").ok_or("retract needs entries")?,
            )?)),
            Some("revise") => Ok(KgEvent::Revise(
                retraction_from_json(event.get("entries").ok_or("revise needs entries")?)?,
                batch_from_json(event.get("sizes").ok_or("revise needs sizes")?, "sizes")?,
            )),
            _ => Err("op must be insert, retract, or revise".into()),
        })
        .collect()
}

fn session_result(result: Result<EstimateReport, SessionError>) -> (u16, Json) {
    match result {
        Ok(report) => (200, estimate_json(&report)),
        Err(e) => (status_of_session_op(&e), err_json(e.to_string())),
    }
}

/// Dispatch one parsed request against the registry.
pub fn handle(registry: &SessionRegistry, req: &Request) -> (u16, Json) {
    let segments: Vec<&str> = req.segments.iter().map(String::as_str).collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => (200, Json::Obj(vec![("ok".into(), Json::Bool(true))])),
        ("GET", ["kg"]) => (
            200,
            Json::Obj(vec![(
                "sessions".into(),
                Json::Arr(
                    registry
                        .ids()
                        .into_iter()
                        .map(|id| Json::Num(id as f64))
                        .collect(),
                ),
            )]),
        ),
        ("POST", ["kg"]) => {
            let doc = match parse(&req.body) {
                Ok(doc) => doc,
                Err(e) => return (400, err_json(e.to_string())),
            };
            let outcome = if let Some(payload) = doc.get("checkpoint").and_then(Json::as_str) {
                match hex_decode(payload) {
                    Some(bytes) => registry.restore(&bytes),
                    None => return (400, err_json("checkpoint must be hex")),
                }
            } else {
                match spec_from_json(&doc) {
                    Ok(spec) => registry.register(spec),
                    Err(e) => return (400, err_json(e)),
                }
            };
            match outcome {
                Ok(id) => (200, Json::Obj(vec![("id".into(), Json::Num(id as f64))])),
                Err(e) => (status_of(&e), err_json(e.to_string())),
            }
        }
        (method, ["kg", id, rest]) => {
            let Ok(id) = id.parse::<u64>() else {
                return (400, err_json("session id must be an integer"));
            };
            match (method, *rest) {
                ("POST", "batch") => {
                    let doc = match parse(&req.body) {
                        Ok(doc) => doc,
                        Err(e) => return (400, err_json(e.to_string())),
                    };
                    let Some(list) = doc.get("batches").and_then(Json::as_array) else {
                        return (400, err_json("body needs a batches array"));
                    };
                    let batches: Result<Vec<UpdateBatch>, String> =
                        list.iter().map(|b| batch_from_json(b, "batches")).collect();
                    match batches {
                        Ok(batches) => session_result(registry.apply_batches(id, &batches)),
                        Err(e) => (400, err_json(e)),
                    }
                }
                ("POST", "events") => {
                    let doc = match parse(&req.body) {
                        Ok(doc) => doc,
                        Err(e) => return (400, err_json(e.to_string())),
                    };
                    match events_from_json(&doc) {
                        Ok(events) => session_result(registry.apply_events(id, &events)),
                        Err(e) => (400, err_json(e)),
                    }
                }
                ("GET", "estimate") => session_result(registry.estimate(id)),
                ("POST", "checkpoint") => match registry.checkpoint(id) {
                    Ok(bytes) => (
                        200,
                        Json::Obj(vec![
                            ("id".into(), Json::Num(id as f64)),
                            ("checkpoint".into(), Json::Str(hex_encode(&bytes))),
                        ]),
                    ),
                    Err(e) => (status_of_session_op(&e), err_json(e.to_string())),
                },
                ("GET", "audit") => {
                    let units = req
                        .query_value("units")
                        .and_then(|v| v.parse::<u64>().ok())
                        .unwrap_or(600);
                    let seed = req
                        .query_value("seed")
                        .and_then(|v| v.parse::<u64>().ok())
                        .unwrap_or(0);
                    match registry.audit(id, units, seed) {
                        Ok(report) => (200, audit_json(&report)),
                        Err(e) => (status_of_session_op(&e), err_json(e.to_string())),
                    }
                }
                _ => (404, err_json("no such endpoint")),
            }
        }
        _ => (404, err_json("no such endpoint")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(method: &str, path: &str, body: &str) -> Request {
        let (path, query_text) = path.split_once('?').unwrap_or((path, ""));
        Request {
            method: method.to_string(),
            segments: path
                .split('/')
                .filter(|s| !s.is_empty())
                .map(String::from)
                .collect(),
            query: query_text
                .split('&')
                .filter(|s| !s.is_empty())
                .map(|p| {
                    let (k, v) = p.split_once('=').unwrap_or((p, ""));
                    (k.to_string(), v.to_string())
                })
                .collect(),
            body: body.as_bytes().to_vec(),
            keep_alive: true,
        }
    }

    fn register_body() -> &'static str {
        r#"{"kind":"reservoir","capacity":40,"m":5,"seed":9,"oracle_accuracy":0.9,"oracle_seed":3,"base_sizes":[3,1,4,1,5,9,2,6,5,3,5,8,9,7,9,3,2,3,8,4,6,2,6,4,3,3,8,3,2,7,9,5,0,2,8,8,4,1,9,7]}"#
    }

    #[test]
    fn register_rejects_zero_sized_clusters_and_accepts_fixed() {
        let registry = SessionRegistry::new();
        let (status, body) = handle(&registry, &request("POST", "/kg", register_body()));
        // base_sizes contains a zero → population error.
        assert_eq!(status, 400, "{body}");
        let fixed = register_body().replace(",0,", ",1,");
        let (status, body) = handle(&registry, &request("POST", "/kg", &fixed));
        assert_eq!(status, 200, "{body}");
        assert_eq!(body.get("id").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn retired_engine_and_offer_mode_fields_are_ignored() {
        let fixed = register_body().replace(",0,", ",1,");
        let legacy = fixed.replace(
            r#""kind":"reservoir","#,
            r#""kind":"reservoir","engine":"hash","offer_mode":"per_item","#,
        );
        assert_ne!(legacy, fixed);
        let estimate = |body: &str| {
            let registry = SessionRegistry::new();
            let (status, reply) = handle(&registry, &request("POST", "/kg", body));
            assert_eq!(status, 200, "{reply}");
            let id = reply.get("id").unwrap().as_u64().unwrap();
            let batch = r#"{"batches":[[3,3,3,3]]}"#;
            let (status, est) = handle(
                &registry,
                &request("POST", &format!("/kg/{id}/batch"), batch),
            );
            assert_eq!(status, 200, "{est}");
            ["mean_bits", "var_bits"].map(|k| est.get(k).unwrap().as_str().unwrap().to_string())
        };
        assert_eq!(estimate(&legacy), estimate(&fixed));
    }

    #[test]
    fn register_rejects_seeds_a_double_cannot_carry() {
        // A u64 seed above 2^53 would silently round through the JSON
        // number path; the API must refuse it rather than register a
        // different monitor than the client asked for.
        let registry = SessionRegistry::new();
        let fixed = register_body().replace(",0,", ",1,");
        let huge = fixed.replace("\"seed\":9", "\"seed\":4354685564954406625");
        let (status, body) = handle(&registry, &request("POST", "/kg", &huge));
        assert_eq!(status, 400, "{body}");
        // 2^53 + 1 rounds to 2^53 during parsing; the collided value
        // must be refused too, not silently registered.
        let huge = fixed.replace("\"seed\":9", "\"seed\":9007199254740993");
        let (status, body) = handle(&registry, &request("POST", "/kg", &huge));
        assert_eq!(status, 400, "{body}");
        assert!(body.to_string().contains("seed"), "{body}");
        let frac = fixed.replace("\"m\":5", "\"m\":5.5");
        let (status, body) = handle(&registry, &request("POST", "/kg", &frac));
        assert_eq!(status, 400, "{body}");
    }

    #[test]
    fn full_exchange_round_trips_through_json() {
        let registry = SessionRegistry::new();
        let fixed = register_body().replace(",0,", ",1,");
        let (_, body) = handle(&registry, &request("POST", "/kg", &fixed));
        let id = body.get("id").unwrap().as_u64().unwrap();

        let (status, est) = handle(
            &registry,
            &request(
                "POST",
                &format!("/kg/{id}/batch"),
                r#"{"batches":[[3,3,3,3]]}"#,
            ),
        );
        assert_eq!(status, 200, "{est}");
        assert!(est.get("mean_bits").unwrap().as_str().unwrap().len() == 16);

        let (status, est2) = handle(
            &registry,
            &request(
                "POST",
                &format!("/kg/{id}/events"),
                r#"{"events":[{"op":"retract","entries":[{"cluster":40,"offsets":[0]}]},{"op":"insert","sizes":[2,2]}]}"#,
            ),
        );
        assert_eq!(status, 200, "{est2}");
        assert_eq!(est2.get("events_applied").unwrap().as_u64(), Some(3));

        let (status, ck) = handle(
            &registry,
            &request("POST", &format!("/kg/{id}/checkpoint"), ""),
        );
        assert_eq!(status, 200, "{ck}");
        let payload = ck.get("checkpoint").unwrap().as_str().unwrap().to_string();

        // Restore through the same endpoint family and compare bits.
        let restore_body = format!(r#"{{"checkpoint":"{payload}"}}"#);
        let (status, restored) = handle(&registry, &request("POST", "/kg", &restore_body));
        assert_eq!(status, 200, "{restored}");
        let rid = restored.get("id").unwrap().as_u64().unwrap();
        let (_, a) = handle(
            &registry,
            &request("GET", &format!("/kg/{id}/estimate"), ""),
        );
        let (_, b) = handle(
            &registry,
            &request("GET", &format!("/kg/{rid}/estimate"), ""),
        );
        assert_eq!(
            a.get("mean_bits").unwrap().as_str(),
            b.get("mean_bits").unwrap().as_str()
        );
        assert_eq!(
            a.get("var_bits").unwrap().as_str(),
            b.get("var_bits").unwrap().as_str()
        );

        let (status, audit) = handle(
            &registry,
            &request("GET", &format!("/kg/{id}/audit?units=200&seed=5"), ""),
        );
        assert_eq!(status, 200, "{audit}");
        assert_eq!(audit.get("units").unwrap().as_u64(), Some(200));
    }

    #[test]
    fn unknown_sessions_and_routes_are_distinguished() {
        let registry = SessionRegistry::new();
        let (status, _) = handle(&registry, &request("GET", "/kg/99/estimate", ""));
        assert_eq!(status, 404);
        let (status, _) = handle(&registry, &request("GET", "/nope", ""));
        assert_eq!(status, 404);
        let (status, _) = handle(&registry, &request("POST", "/kg/xyz/batch", "{}"));
        assert_eq!(status, 400);
        let (status, _) = handle(&registry, &request("POST", "/kg", "not json"));
        assert_eq!(status, 400);
        let (status, _) = handle(&registry, &request("POST", "/kg", r#"{"checkpoint":"zz"}"#));
        assert_eq!(status, 400);
        let (status, _) = handle(
            &registry,
            &request("POST", "/kg", r#"{"checkpoint":"deadbeef"}"#),
        );
        assert_eq!(status, 400, "valid hex, garbage payload → codec error");
    }

    #[test]
    fn hex_round_trips() {
        let bytes: Vec<u8> = (0..=255).collect();
        assert_eq!(hex_decode(&hex_encode(&bytes)).unwrap(), bytes);
        assert!(hex_decode("abc").is_none());
        assert!(hex_decode("zz").is_none());
    }
}
