//! `repro` — regenerate the paper's tables and figures.
//!
//! Usage:
//!
//! ```text
//! repro [--quick] [--trials-scale X] [--seed N] <experiment>...
//! repro all
//! ```
//!
//! Experiments: fig1 fig3 fig4 fig5 fig6 fig7 fig8 fig9
//!              table3 table4 table5 table6 table7 table8

use kg_bench::{run_experiment, Opts, EXPERIMENTS};
use std::time::Instant;

fn main() {
    let mut opts = Opts::default();
    let mut ids: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => opts.quick = true,
            "--trials-scale" => {
                opts.trial_scale = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--trials-scale needs a number"));
            }
            "--seed" => {
                opts.seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--seed needs an integer"));
            }
            "--help" | "-h" => {
                usage();
                return;
            }
            other if other.starts_with('-') => die(&format!("unknown flag {other}")),
            other => ids.push(other.to_string()),
        }
    }
    if ids.is_empty() {
        usage();
        std::process::exit(2);
    }
    if ids.iter().any(|i| i == "all") {
        ids = EXPERIMENTS.iter().map(|s| s.to_string()).collect();
    }
    for id in &ids {
        let start = Instant::now();
        match run_experiment(id, &opts) {
            Some(report) => {
                println!("=== {id} ===");
                println!("{report}");
                println!("[{id} took {:.1}s]\n", start.elapsed().as_secs_f64());
            }
            None => die(&format!(
                "unknown experiment `{id}` (known: {})",
                EXPERIMENTS.join(", ")
            )),
        }
    }
}

fn usage() {
    eprintln!(
        "repro — regenerate the paper's tables and figures\n\n\
         usage: repro [--quick] [--trials-scale X] [--seed N] <experiment>... | all\n\
         experiments: {}",
        EXPERIMENTS.join(" ")
    );
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}
