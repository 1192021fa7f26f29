//! kgperf: the kg-serve benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path kgperf/Cargo.toml -- \
//!     --workload fleet|aging|spill --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the workspace root. It builds the release `kg-serve`, then
//! drives it over TCP from one client thread in a closed loop. `--trace 0`
//! reports the end-to-end metrics, `--trace 1` the per-layer metrics of a
//! traced in-process replay. Every run checks each served estimate
//! against an in-process reference registry. The last stdout line is the
//! result as one JSON object; see `kgperf/README.md`.

mod client;
mod host;
mod pin;
mod replay;
mod script;
mod server;
mod trace;

use client::{json_field, Client};
use replay::{served_cost_seconds, served_digest, Reference, TracedReplay};
use script::{http_request, Script, Workload};
use server::Server;
use std::path::{Path, PathBuf};
use std::process::exit;
use std::time::Instant;
use trace::{median, percentile};

/// Fewest server processes an untraced run measures; it keeps starting
/// new ones, one after another, until `--seconds` have passed.
const MIN_PROCESSES: usize = 5;
/// Where results, spans and spill stores go, relative to the working
/// directory.
const OUT_DIR: &str = ".kgperf-out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().ok(),
            "--seconds" => seconds = value.parse().ok().filter(|&s: &u64| s > 0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload fleet|aging|spill is required")?,
        seed: seed.ok_or("--seed needs an unsigned integer")?,
        seconds: seconds.ok_or("--seconds needs a positive integer")?,
        trace: trace.ok_or("--trace needs 0 or 1")?,
    })
}

/// What one server process served.
struct Served {
    setup_s: f64,
    wall_s: f64,
    /// Client-observed latency of each timed request, in order.
    latencies_ms: Vec<f64>,
    /// Checked-field digest of every scripted response; `None` on a
    /// socket error, non-2xx or missing field.
    served: Vec<Option<u64>>,
    /// Digest of every tenant's final estimate read.
    finals: Vec<Option<u64>>,
    cost_seconds: f64,
    rss_mb: f64,
    connects: u64,
    bytes: u64,
    revivals: u64,
}

fn admin_stat(client: &mut Client, key: &str) -> Result<u64, String> {
    let response = client
        .exchange(&http_request("GET", "/admin/stats", ""))
        .map_err(|e| format!("/admin/stats: {e}"))?;
    json_field(response.text(), key)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("/admin/stats lacks {key}"))
}

/// Spawn a server, register every tenant (the set-up), send the warm-up
/// and timed requests, read every tenant's final estimate, and drain.
/// `after` sees each scripted request's index and exchange interval.
fn serve_script(
    bin: &Path,
    script: &Script,
    state: &Path,
    mut after: impl FnMut(usize, Instant, Instant) -> Result<(), String>,
) -> Result<Served, String> {
    let mut args: Vec<String> = script
        .workload
        .server_args()
        .iter()
        .map(|s| s.to_string())
        .collect();
    if script.workload.needs_state_dir() {
        let _ = std::fs::remove_dir_all(state);
        std::fs::create_dir_all(state).map_err(|e| format!("{}: {e}", state.display()))?;
        args.extend(["--state-dir".to_string(), state.display().to_string()]);
    }
    let started = Instant::now();
    let server = Server::spawn(bin, &args)?;
    let mut client = Client::new(server.addr);
    let mut ids = Vec::with_capacity(script.tenants.len());
    for tenant in &script.tenants {
        let response = client
            .exchange(&http_request("POST", "/kg", &tenant.body()))
            .map_err(|e| format!("registration: {e}"))?;
        let id = json_field(response.text(), "id").and_then(|v| v.parse::<u64>().ok());
        match (response.status, id) {
            (200, Some(id)) => ids.push(id),
            _ => {
                return Err(format!(
                    "registration answered {}: {}",
                    response.status,
                    response.text()
                ))
            }
        }
    }
    let setup_s = started.elapsed().as_secs_f64();

    let n = script.requests.len();
    let mut served = Vec::with_capacity(n);
    let mut latencies_ms = Vec::with_capacity(n - script.warmup);
    let (mut bytes, mut connects, mut revivals) = (0, 0, 0);
    let mut timed_from = started;
    for (i, request) in script.requests.iter().enumerate() {
        if i == script.warmup {
            revivals = admin_stat(&mut client, "revivals")?;
            connects = client.connects;
            timed_from = Instant::now();
        }
        let raw = request.http(ids[request.tenant]);
        let start = Instant::now();
        let response = client.exchange(&raw);
        let end = Instant::now();
        if i >= script.warmup {
            latencies_ms.push((end - start).as_secs_f64() * 1e3);
            bytes += raw.len() as u64 + response.as_ref().map_or(0, |r| r.bytes as u64);
        }
        served.push(response.ok().and_then(|r| served_digest(&request.op, &r)));
        after(i, start, end)?;
    }
    let wall_s = timed_from.elapsed().as_secs_f64();
    connects = client.connects - connects;
    revivals = admin_stat(&mut client, "revivals")? - revivals;

    let mut finals = Vec::with_capacity(ids.len());
    let mut cost_seconds = 0.0;
    for &id in &ids {
        let response = client.exchange(&http_request("GET", &format!("/kg/{id}/estimate"), ""));
        let response = response.ok();
        cost_seconds += response
            .as_ref()
            .and_then(served_cost_seconds)
            .unwrap_or(f64::NAN);
        finals.push(response.and_then(|r| served_digest(&script::Op::Estimate, &r)));
    }
    let rss_mb = server.peak_rss_mb()?;
    server.drain()?;
    if script.workload.needs_state_dir() {
        let _ = std::fs::remove_dir_all(state);
    }
    Ok(Served {
        setup_s,
        wall_s,
        latencies_ms,
        served,
        finals,
        cost_seconds,
        rss_mb,
        connects,
        bytes,
        revivals,
    })
}

/// Served-versus-reference comparison over the processes of a run.
struct Gate {
    attempted: u64,
    failed: u64,
}

impl Gate {
    fn check(processes: &[&Served], expected: &[u64], finals: &[u64]) -> Gate {
        let mut gate = Gate {
            attempted: 0,
            failed: 0,
        };
        for served in processes {
            for (got, want) in served
                .served
                .iter()
                .zip(expected)
                .chain(served.finals.iter().zip(finals))
            {
                gate.attempted += 1;
                if *got != Some(*want) {
                    gate.failed += 1;
                }
            }
        }
        gate
    }
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    note: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str, note: impl Into<String>) -> Metric {
    Metric {
        name,
        value,
        unit,
        note: note.into(),
    }
}

fn across(processes: &[Served], f: impl Fn(&Served) -> f64) -> f64 {
    median(&processes.iter().map(f).collect::<Vec<_>>())
}

fn late_quarter(latencies: &[f64]) -> &[f64] {
    &latencies[latencies.len() - latencies.len().div_ceil(4)..]
}

fn end_to_end(processes: &[Served], gate: &Gate) -> Vec<Metric> {
    // Medians are pooled over every timed request of the run. A shared
    // host runs whole processes in a fast or a slow mode; a median over
    // processes jumps between the modes, the pooled median moves with
    // their mix. Throughput and p90 take the median over processes, so
    // that a few processes hit by host stalls do not dominate them.
    let pool = |part: fn(&[f64]) -> &[f64]| -> Vec<f64> {
        processes
            .iter()
            .flat_map(|r| part(&r.latencies_ms).iter().copied())
            .collect()
    };
    let all = pool(|l| l);
    let late = pool(late_quarter);
    let over = format!("median over {} server processes", processes.len());
    let pooled = |n: usize, what: &str| {
        format!(
            "pooled over {} server processes, {n} timed requests{what}",
            processes.len()
        )
    };
    let each = format!(
        "{over}, {} timed requests each",
        processes[0].latencies_ms.len()
    );
    vec![
        metric(
            "setup_s",
            across(processes, |r| r.setup_s),
            "s",
            format!("{over}: spawn to LISTENING plus registering every tenant"),
        ),
        metric(
            "requests_per_s",
            across(processes, |r| r.latencies_ms.len() as f64 / r.wall_s),
            "req/s",
            each.clone(),
        ),
        metric("request_p50_ms", median(&all), "ms", pooled(all.len(), "")),
        metric(
            "request_p90_ms",
            across(processes, |r| percentile(&r.latencies_ms, 90.0)),
            "ms",
            each,
        ),
        metric(
            "late_request_p50_ms",
            median(&late),
            "ms",
            pooled(late.len(), ", the last quarter of each process"),
        ),
        metric(
            "annotation_cost_h",
            processes[0].cost_seconds / 3600.0,
            "h",
            "summed served cumulative_cost_seconds of every tenant",
        ),
        metric(
            "peak_rss_mb",
            across(processes, |r| r.rss_mb),
            "MB",
            format!("{over}: VmHWM before drain"),
        ),
        metric(
            "success_share",
            1.0 - gate.failed as f64 / gate.attempted as f64,
            "ratio",
            format!(
                "1 - failed_share; {} of {} responses failed or mismatched",
                gate.failed, gate.attempted
            ),
        ),
    ]
}

fn per_layer(
    script: &Script,
    traced: &TracedReplay,
    traced_process: &Served,
    session_cost_seconds: f64,
    untraced_p50_ms: f64,
) -> Vec<Metric> {
    let timed = |r: usize| r >= script.warmup;
    let t = &traced.tracer;
    let p50 = |name: &str| median(&t.micros(name, timed));
    let count = |name: &str| format!("{} spans", t.micros(name, timed).len());
    let us = |name: &'static str, span: &'static str| metric(name, p50(span), "us", count(span));
    let requests = traced_process.latencies_ms.len() as f64;
    let applies = t.micros("session.apply", |r| timed(r) && r < script.requests.len());
    let late = late_quarter(&applies);
    let cost_h = session_cost_seconds / 3600.0;
    let monitor_cost_h = traced.monitor_cost_seconds() / 3600.0;
    let exchange = p50("serve.exchange");
    vec![
        us("serve.exchange_p50_us", "serve.exchange"),
        us("serve.handle_p50_us", "serve.handle"),
        metric(
            "serve.transport_p50_us",
            median(&t.paired_difference("serve.exchange", "serve.handle", timed)),
            "us",
            "per-request exchange minus handle",
        ),
        metric(
            "serve.connects_per_request",
            traced_process.connects as f64 / requests,
            "count",
            format!("{} connects", traced_process.connects),
        ),
        us("serve.http_read_p50_us", "serve.http_read"),
        us("serve.json_parse_p50_us", "serve.json_parse"),
        metric(
            "serve.bytes_per_request",
            traced_process.bytes as f64 / requests,
            "bytes",
            "request plus response bytes",
        ),
        us("session.apply_p50_us", "session.apply"),
        metric(
            "session.apply_late_p50_us",
            median(late),
            "us",
            format!("last {} apply spans", late.len()),
        ),
        us("monitor.apply_p50_us", "monitor.apply"),
        metric(
            "session.overhead_p50_us",
            median(&t.paired_difference("session.apply", "monitor.apply", timed)),
            "us",
            "per-request session minus monitor apply",
        ),
        us("session.estimate_p50_us", "session.estimate"),
        us("annotate.store_extend_p50_us", "annotate.store_extend"),
        metric("annotate.cost_h", cost_h, "h", "session cumulative cost"),
        metric(
            "annotate.monitor_cost_h",
            monitor_cost_h,
            "h",
            "uninterrupted monitors, one resident annotator each",
        ),
        metric(
            "annotate.cost_overcount",
            cost_h / monitor_cost_h,
            "ratio",
            "session cost over monitor cost",
        ),
        metric(
            "codec.checkpoint_bytes",
            median(&traced.checkpoint_bytes),
            "bytes",
            format!("median of {} checkpoints", traced.checkpoint_bytes.len()),
        ),
        us("session.checkpoint_p50_us", "session.checkpoint"),
        us("session.restore_p50_us", "session.restore"),
        us("spill.evict_p50_us", "spill.evict"),
        metric(
            "spill.revivals_per_request",
            traced_process.revivals as f64 / requests,
            "ratio",
            format!("{} revivals", traced_process.revivals),
        ),
        us("sampling.audit_p50_us", "sampling.audit"),
        metric(
            "trace.overhead_ratio",
            exchange / (untraced_p50_ms * 1e3),
            "ratio",
            "traced exchange p50 over untraced request p50",
        ),
    ]
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn run() -> Result<String, String> {
    let args = parse_args()?;
    let bin = server::build()?;
    let out = PathBuf::from(OUT_DIR);
    std::fs::create_dir_all(&out).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let state = |tag: &str| out.join(format!("state-{}-{tag}", std::process::id()));
    let script = Script::generate(args.workload, args.seed, args.workload.timed_requests());
    let host = host::facts();
    println!("host {host}");
    println!(
        "workload {} seed {}: {} tenants, {} warm-up + {} timed requests per server process, closed loop, 1 client thread",
        args.workload.name(),
        args.seed,
        script.tenants.len(),
        script.warmup,
        script.requests.len() - script.warmup
    );

    // A traced run needs one untraced process for the overhead ratio.
    let (min_processes, budget) = if args.trace {
        (1, 0.0)
    } else {
        (MIN_PROCESSES, args.seconds as f64)
    };
    let measuring = Instant::now();
    let mut processes = Vec::new();
    while processes.len() < min_processes || measuring.elapsed().as_secs_f64() < budget {
        let k = processes.len();
        let served = serve_script(&bin, &script, &state(&k.to_string()), |_, _, _| Ok(()))?;
        eprintln!(
            "server process {k}: set-up {:.4} s, {:.1} req/s, p50 {:.4} ms",
            served.setup_s,
            served.latencies_ms.len() as f64 / served.wall_s,
            median(&served.latencies_ms)
        );
        processes.push(served);
    }
    let (metrics, gate) = if args.trace {
        let inproc = state("inproc");
        let _ = std::fs::remove_dir_all(&inproc);
        let max_live = (args.workload == Workload::Spill).then_some(4);
        let mut traced = TracedReplay::new(&script, max_live, &inproc)?;
        let traced_process = serve_script(&bin, &script, &state("traced"), |i, start, end| {
            let span = (traced.tracer.ns(start), traced.tracer.ns(end));
            traced.step(i, &script.requests[i], span)
        })?;
        let n = script.requests.len();
        let mut finals = Vec::with_capacity(script.tenants.len());
        let mut session_cost_seconds = 0.0;
        for t in 0..script.tenants.len() {
            let root = traced
                .tracer
                .record("final", traced.tracer.now_ns(), 0, None, n + t);
            let (digest, cost) =
                traced
                    .reference
                    .final_estimate(t, Some((&mut traced.tracer, root)), n + t)?;
            traced.tracer.spans[root].end_ns = traced.tracer.now_ns();
            finals.push(digest);
            session_cost_seconds += cost;
        }
        traced.probe_unscripted_layers(&script, n + script.tenants.len())?;
        let gate = Gate::check(&[&processes[0], &traced_process], &traced.expected, &finals);
        let metrics = per_layer(
            &script,
            &traced,
            &traced_process,
            session_cost_seconds,
            median(&processes[0].latencies_ms),
        );
        let spans = out.join(format!("{}.spans.jsonl", args.workload.name()));
        let mut file = std::io::BufWriter::new(
            std::fs::File::create(&spans).map_err(|e| format!("{}: {e}", spans.display()))?,
        );
        traced
            .tracer
            .write_jsonl(&mut file)
            .and_then(|_| std::io::Write::flush(&mut file))
            .map_err(|e| format!("{}: {e}", spans.display()))?;
        let _ = std::fs::remove_dir_all(&inproc);
        (metrics, gate)
    } else {
        let reference = Reference::new(&script)?;
        let expected = script
            .requests
            .iter()
            .enumerate()
            .map(|(i, r)| reference.expected(i, r, None).map(|(digest, _)| digest))
            .collect::<Result<Vec<_>, _>>()?;
        let finals = (0..script.tenants.len())
            .map(|t| reference.final_estimate(t, None, 0).map(|(d, _)| d))
            .collect::<Result<Vec<_>, _>>()?;
        let gate = Gate::check(&processes.iter().collect::<Vec<_>>(), &expected, &finals);
        (end_to_end(&processes, &gate), gate)
    };

    for m in &metrics {
        println!(
            "metric {} = {} {} ({})",
            m.name,
            json_number(m.value),
            m.unit,
            m.note
        );
    }
    println!(
        "failed_share = {} ({} of {} responses failed or differed from the reference)",
        gate.failed as f64 / gate.attempted as f64,
        gate.failed,
        gate.attempted
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    let result = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        gate.failed == 0,
        gate.attempted,
        gate.failed,
        body.join(",")
    );
    let record = out.join(format!(
        "{}-trace{}.json",
        args.workload.name(),
        u8::from(args.trace)
    ));
    std::fs::write(
        &record,
        format!(
            "{{\"host\":{host},\"seed\":{},\"result\":{result}}}\n",
            args.seed
        ),
    )
    .map_err(|e| format!("{}: {e}", record.display()))?;
    Ok(result)
}

fn main() {
    pin::reexec_on_client_cpu();
    match run() {
        Ok(result) => println!("{result}"),
        Err(e) => {
            eprintln!("kgperf: {e}");
            exit(1);
        }
    }
}
