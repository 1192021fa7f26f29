//! # kg-bench — experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation (§7). Each
//! experiment is a module with `run(&Opts) -> String`; the `repro` binary
//! dispatches by id (`fig1` … `fig9`, `table3` … `table8`, `all`).
//!
//! Absolute numbers are *simulated human hours* under the paper's fitted
//! cost function (c1 = 45 s, c2 = 25 s); what must match the paper is the
//! **shape** of each result — who wins, by what factor, where crossovers
//! fall. `EXPERIMENTS.md` records paper-vs-measured per experiment.

#![forbid(unsafe_code)]

pub mod ablation;
pub mod chaos;
pub mod churn;
pub mod fig1;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod granular;
pub mod parallel;
pub mod scenarios;
pub mod serve;
pub mod sharded;
pub mod table;
pub mod table3;
pub mod table4;
pub mod table5;
pub mod table6;
pub mod table7;
pub mod table8;
pub mod throughput;
pub mod trials;

/// Options shared by every `bench-report` harness.
#[derive(Debug, Clone, Copy)]
pub struct BenchOpts {
    /// Quick mode: the harness's smaller CI scale.
    pub quick: bool,
    /// Base RNG seed; every scale, stream and trial derives from it.
    pub seed: u64,
}

impl Default for BenchOpts {
    fn default() -> Self {
        BenchOpts {
            quick: false,
            seed: Opts::default().seed,
        }
    }
}

/// Experiment options shared by all modules.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Trial multiplier: 1.0 = each experiment's default trial count
    /// (chosen to finish in minutes on a laptop core; the paper uses 1000
    /// everywhere — pass `--trials-scale 5` upward to match it on the small
    /// KGs).
    pub trial_scale: f64,
    /// Quick mode: shrink populations and trial counts ~10× for smoke runs
    /// and CI.
    pub quick: bool,
    /// Base RNG seed; every trial derives its own seed from this.
    pub seed: u64,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            trial_scale: 1.0,
            quick: false,
            seed: 20190923, // VLDB 2019 camera-ready month
        }
    }
}

impl Opts {
    /// Scale an experiment's default trial count, with a floor of 8.
    pub fn trials(&self, default: u64) -> u64 {
        let base = if self.quick {
            (default / 10).max(8)
        } else {
            default
        };
        ((base as f64 * self.trial_scale) as u64).max(8)
    }
}

/// All experiment ids in presentation order.
pub const EXPERIMENTS: &[&str] = &[
    "fig1", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "table3", "table4", "table5",
    "table6", "table7", "table8", "ablation", "granular", "sharded",
];

/// Run one experiment by id.
pub fn run_experiment(id: &str, opts: &Opts) -> Option<String> {
    let out = match id {
        "fig1" => fig1::run(opts),
        "fig3" => fig3::run(opts),
        "fig4" => fig4::run(opts),
        "fig5" => fig5::run(opts),
        "fig6" => fig6::run(opts),
        "fig7" => fig7::run(opts),
        "fig8" => fig8::run(opts),
        "fig9" => fig9::run(opts),
        "table3" => table3::run(opts),
        "table4" => table4::run(opts),
        "table5" => table5::run(opts),
        "table6" => table6::run(opts),
        "table7" => table7::run(opts),
        "table8" => table8::run(opts),
        "ablation" => ablation::run(opts),
        "granular" => granular::run(opts),
        "sharded" => sharded::run(opts),
        _ => return None,
    };
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_experiment_is_none() {
        assert!(run_experiment("fig2", &Opts::default()).is_none());
        assert!(run_experiment("", &Opts::default()).is_none());
    }

    #[test]
    fn opts_trials_scaling() {
        let mut o = Opts::default();
        assert_eq!(o.trials(1000), 1000);
        o.quick = true;
        assert_eq!(o.trials(1000), 100);
        o.trial_scale = 0.0;
        assert_eq!(o.trials(1000), 8); // floor
    }

    #[test]
    fn catalog_is_complete() {
        // Every listed id dispatches (checked cheaply via fig4/table8 which
        // are instant; the rest compile-time match the same function).
        assert_eq!(EXPERIMENTS.len(), 17);
        assert!(EXPERIMENTS.contains(&"table8"));
        assert!(EXPERIMENTS.contains(&"sharded"));
    }
}
