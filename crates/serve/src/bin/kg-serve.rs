//! kg-serve binary: bind, announce, serve, drain.
//!
//! ```text
//! kg-serve [--addr 127.0.0.1:0] [--workers N]
//!          [--state-dir DIR] [--max-live N] [--idle-ttl TICKS]
//!          [--write-through]
//!          [--read-timeout-ms MS] [--write-timeout-ms MS]
//!          [--max-in-flight N] [--drain-deadline-ms MS]
//!          [--drain-on-stdin-eof]
//! ```
//!
//! Prints `LISTENING <addr>` to stdout once bound (harnesses scrape the
//! ephemeral port from it). With `--state-dir`, sessions spill to disk
//! under the TTL/LRU policy, every session found there at startup is
//! recovered, and a graceful drain (`POST /admin/drain`, or stdin EOF
//! with `--drain-on-stdin-eof`) checkpoints the full tenant set before
//! exit, announced as `DRAINED <n>`.

use kg_eval::session::{LifecyclePolicy, SessionRegistry};
use kg_eval::{CheckpointStore, TrialExecutor};
use kg_serve::{Server, ServerConfig};
use std::io::{Read, Write};
use std::net::TcpListener;
use std::process::exit;
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let mut addr = "127.0.0.1:0".to_string();
    let mut workers: Option<usize> = None;
    let mut state_dir: Option<String> = None;
    let mut policy = LifecyclePolicy::default();
    let mut config = ServerConfig::default();
    let mut drain_on_stdin_eof = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => match args.next() {
                Some(v) => addr = v,
                None => usage("--addr needs a value"),
            },
            "--workers" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => workers = Some(v),
                None => usage("--workers needs an integer"),
            },
            "--state-dir" => match args.next() {
                Some(v) => state_dir = Some(v),
                None => usage("--state-dir needs a path"),
            },
            "--max-live" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => policy.max_live = Some(v),
                None => usage("--max-live needs an integer"),
            },
            "--idle-ttl" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => policy.idle_ttl = Some(v),
                None => usage("--idle-ttl needs an integer (logical ticks)"),
            },
            "--write-through" => policy.write_through = true,
            "--read-timeout-ms" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => config.read_timeout = Duration::from_millis(v),
                None => usage("--read-timeout-ms needs an integer"),
            },
            "--write-timeout-ms" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => config.write_timeout = Duration::from_millis(v),
                None => usage("--write-timeout-ms needs an integer"),
            },
            "--max-in-flight" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => config.max_in_flight = v,
                None => usage("--max-in-flight needs an integer"),
            },
            "--drain-deadline-ms" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => config.drain_deadline = Duration::from_millis(v),
                None => usage("--drain-deadline-ms needs an integer"),
            },
            "--drain-on-stdin-eof" => drain_on_stdin_eof = true,
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown argument {other}")),
        }
    }
    let executor = match workers {
        Some(n) => TrialExecutor::new().with_workers(n),
        None => TrialExecutor::new(),
    };
    let registry = match &state_dir {
        Some(dir) => {
            let store = match CheckpointStore::open(dir) {
                Ok(store) => store,
                Err(e) => {
                    eprintln!("kg-serve: cannot open --state-dir {dir}: {e}");
                    exit(1);
                }
            };
            let registry = SessionRegistry::with_lifecycle(executor, policy, store);
            match registry.recover_from_store() {
                Ok(recovered) if recovered > 0 => eprintln!("recovered {recovered} sessions"),
                Ok(_) => {}
                Err(e) => {
                    eprintln!("kg-serve: recovery scan failed: {e}");
                    exit(1);
                }
            }
            registry
        }
        None => {
            if policy.max_live.is_some() || policy.idle_ttl.is_some() || policy.write_through {
                usage("--max-live/--idle-ttl/--write-through need --state-dir");
            }
            SessionRegistry::with_executor(executor)
        }
    };
    let listener = match TcpListener::bind(&addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("kg-serve: cannot bind {addr}: {e}");
            exit(1);
        }
    };
    let local = listener
        .local_addr()
        .expect("bound listener has an address");
    println!("LISTENING {local}");
    std::io::stdout().flush().expect("stdout");
    let server = match Server::start(listener, Arc::new(registry), config, None) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("kg-serve: cannot start accept loop: {e}");
            exit(1);
        }
    };
    if drain_on_stdin_eof {
        // Opt-in process drain signal without OS signal handlers (the
        // workspace forbids unsafe code): the supervisor holds our stdin
        // pipe and closes it to request shutdown.
        let controller = server.controller();
        std::thread::spawn(move || {
            let mut sink = [0u8; 1024];
            let mut stdin = std::io::stdin();
            while matches!(stdin.read(&mut sink), Ok(n) if n > 0) {}
            controller.request_drain();
        });
    }
    let outcome = server.join();
    println!("DRAINED {}", outcome.persisted);
    if outcome.stragglers > 0 {
        eprintln!(
            "kg-serve: {} exchanges in progress outlived the drain deadline",
            outcome.stragglers
        );
    }
}

fn usage(problem: &str) -> ! {
    if !problem.is_empty() {
        eprintln!("kg-serve: {problem}");
    }
    eprintln!(
        "usage: kg-serve [--addr HOST:PORT] [--workers N] [--state-dir DIR] \
         [--max-live N] [--idle-ttl TICKS] [--write-through] \
         [--read-timeout-ms MS] [--write-timeout-ms MS] [--max-in-flight N] \
         [--drain-deadline-ms MS] [--drain-on-stdin-eof]"
    );
    exit(if problem.is_empty() { 0 } else { 2 });
}
