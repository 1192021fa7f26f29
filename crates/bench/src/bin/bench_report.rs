//! `bench-report` — run one tracked benchmark harness and write its JSON
//! artifact.
//!
//! Usage:
//!   bench-report [--parallel | --churn | --scenarios | --resilience] [--quick] [--seed N] [--out PATH]
//!
//! | flag | harness | artifact (schema) |
//! |---|---|---|
//! | *(none)* | static SRS/WCS/TWCS trial loops, hash vs dense engine | `BENCH_throughput.json` (`kg-bench-throughput/v1`) |
//! | `--parallel` | `TrialExecutor` worker sweep (1/2/4/8) over static TWCS and one sharded replay, each cell timed 5 times (median, IQR), with the bitwise worker-count-invariance check | `BENCH_parallel.json` (`kg-bench-parallel/v3`) |
//! | `--churn` | the §6 incremental evaluators (RS/SS) over evolving-KG event streams at 0%/25%/50% delete fractions — 0% is the paper's insert-only stream — with per-fraction cross-engine and cross-offer-path identity checks | `BENCH_churn.json` (`kg-bench-churn/v1`) |
//! | `--scenarios` | the adversarial scenario matrix: every `kg_datagen::scenario` family through all eight evaluators under both engines, with per-cell identity and CI-coverage flags | `BENCH_scenarios.json` (`kg-bench-scenarios/v1`) |
//! | `--resilience` | the deterministic kg-serve chaos harness: seeded connection faults, abrupt kills, spill sabotage, and a drain→restart cycle, every served estimate byte-checked against a fault-free replay | `BENCH_resilience.json` (`kg-bench-resilience/v1`) |
//!
//! Served latency is measured by `kgperf` (see `kgperf/README.md`); the
//! served-estimate byte checks run as the `serve_checks` test.
//!
//! `--quick` shrinks scales and trial counts (CI); `--out` overrides the
//! default artifact path in the working directory. Artifacts are written
//! atomically (temp file + rename), so an interrupted run never leaves a
//! truncated JSON. Run release: `cargo run --release -p kg-bench --bin
//! bench-report`.

use kg_bench::{chaos, churn, parallel, scenarios, throughput, BenchOpts};
use kg_stats::atomicfile::write_atomic;

/// A harness run: the console table and the JSON artifact.
type Run = fn(&BenchOpts) -> (String, String);

macro_rules! harness {
    ($module:ident) => {
        |opts: &BenchOpts| {
            let report = $module::run(opts);
            ($module::render_table(&report), $module::to_json(&report))
        }
    };
}

/// Each mode flag, its harness, and its default artifact path. The first
/// row is the default mode and has no flag.
const MODES: [(&str, Run, &str); 5] = [
    ("", harness!(throughput), "BENCH_throughput.json"),
    ("--parallel", harness!(parallel), "BENCH_parallel.json"),
    ("--churn", harness!(churn), "BENCH_churn.json"),
    ("--scenarios", harness!(scenarios), "BENCH_scenarios.json"),
    ("--resilience", harness!(chaos), "BENCH_resilience.json"),
];

const USAGE: &str = "bench-report [--parallel | --churn | --scenarios | --resilience] [--quick] [--seed N] [--out PATH]";

fn main() {
    let mut opts = BenchOpts::default();
    let mut out: Option<String> = None;
    let mut mode = &MODES[0];
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => opts.quick = true,
            "--seed" => {
                opts.seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--seed needs an integer"));
            }
            "--out" => {
                out = Some(args.next().unwrap_or_else(|| die("--out needs a path")));
            }
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                return;
            }
            flag => {
                mode = MODES[1..]
                    .iter()
                    .find(|(f, _, _)| *f == flag)
                    .unwrap_or_else(|| die(&format!("unknown argument {flag}")));
            }
        }
    }
    #[cfg(debug_assertions)]
    eprintln!("warning: debug build — run with --release for meaningful numbers");

    let (_, run, default_out) = mode;
    let (table, json) = run(&opts);
    let out = out.unwrap_or_else(|| default_out.to_string());
    print!("{table}");
    write_atomic(&out, &json).unwrap_or_else(|e| die(&format!("write {out}: {e}")));
    println!("wrote {out}");
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}
