//! Tracked parallel-scaling harness: the static TWCS workload on the
//! [`kg_eval::executor::TrialExecutor`] at forced worker counts, plus an
//! **intra-trial** shard sweep of [`kg_eval::sharded`] replays on the same
//! executor.
//!
//! `bench-report --parallel` times the same seeded trial set — iterative
//! TWCS(m=5) evaluation to a tight ε = 1% MoE target, the configuration
//! whose per-trial sample is large enough to be annotation-bound — at 1,
//! 2, 4, and 8 workers, under both annotation engines (fresh hash
//! annotator per trial vs one leased dense arena per worker). Schema v2
//! adds a second sweep one level down: a single fixed-size WCS sharded
//! replay at 1, 2, 4, and 8 *shard workers* per scale, measuring
//! single-replay latency rather than trial throughput. Schema v3 times
//! every cell in [`TIMED_RUNS`] samples, each repeating the cell for at
//! least [`MIN_SAMPLE_SEC`], and records the median and IQR of the time
//! per iteration; the speedups divide medians. The artifact is `BENCH_parallel.json` (schema
//! `kg-bench-parallel/v3`).
//!
//! Two properties are recorded per sweep, and both matter:
//!
//! * **scaling** — trials/sec (or replay visits/sec) per worker count,
//!   with speedups relative to the 1-worker row. Wall-clock scaling is a
//!   property of the *host*: the committed baseline was generated inside a
//!   single-hardware-thread container (`host_workers: 1`, `affinity`
//!   recorded alongside), where the honest curve is flat; the CI
//!   determinism job regenerates the artifact on multi-core runners, where
//!   the curve is the point.
//! * **invariance** — the aggregated estimate mean/std must be **bitwise
//!   identical across every worker count and both engines**. This is the
//!   correctness half of both contracts (across trials, and across the
//!   workers that claim one replay's shards) and is asserted by
//!   [`ParallelScaleReport::bitwise_invariant`] /
//!   [`ParallelScaleReport::engines_agree`] and their
//!   [`ShardSweep`] counterparts, which the JSON records.

use crate::throughput::synthetic_sizes;
use crate::BenchOpts;
use kg_annotate::cost::CostModel;
use kg_annotate::lease::DenseArenaPool;
use kg_annotate::oracle::RemOracle;
use kg_eval::config::EvalConfig;
use kg_eval::executor::TrialExecutor;
use kg_eval::framework::Evaluator;
use kg_eval::sharded::{num_shards, replay_dense, replay_hash, ShardDesign, DEFAULT_SHARD_UNITS};
use kg_sampling::PopulationIndex;
use kg_stats::RunningMoments;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

/// Forced worker counts of the scaling sweep.
pub const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Forced shard-worker counts of the intra-trial sweep.
pub const SHARD_WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Second-stage cap of the TWCS workload.
pub const M: usize = 5;
/// Timed samples of every cell; a cell reports their median and IQR.
pub const TIMED_RUNS: usize = 5;
/// Minimum wall time of one timed sample: a sample repeats its cell until
/// it has run this long, so a ratio of two cells resolves more than the
/// host's scheduling noise.
pub const MIN_SAMPLE_SEC: f64 = 0.1;

/// The CPUs this process may run on (`Cpus_allowed_list` from
/// `/proc/self/status`), or `"unknown"` where unavailable — context for
/// reading the scaling curves next to `host_workers`.
pub fn cpu_affinity() -> String {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("Cpus_allowed_list:"))
                .map(|l| l.split(':').nth(1).unwrap_or("").trim().to_string())
        })
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn workload_config() -> EvalConfig {
    // ε = 1% sizes per-trial samples into the thousands of units, making
    // each trial annotation-bound; batch 25 keeps stop-rule overhead low.
    EvalConfig::default()
        .with_target_moe(0.01)
        .with_batch_size(25)
}

/// One (engine, worker-count) measurement.
#[derive(Debug, Clone)]
pub struct WorkerMeasurement {
    /// Engine name (`hash` / `dense`).
    pub engine: &'static str,
    /// Forced worker count.
    pub workers: usize,
    /// Trials executed.
    pub trials: u64,
    /// Median wall-clock seconds for the whole trial set.
    pub elapsed_sec: f64,
    /// Interquartile range of the timed runs' seconds.
    pub elapsed_iqr_sec: f64,
    /// `trials / elapsed_sec`.
    pub trials_per_sec: f64,
    /// Aggregated estimate mean — must be bitwise identical across rows.
    pub mean_estimate: f64,
    /// Aggregated estimate sample std — must be bitwise identical too.
    pub std_estimate: f64,
    /// Mean simulated human seconds per trial (sanity: workload size).
    pub mean_cost_seconds: f64,
}

/// One (engine, shard-worker-count) cell of the intra-trial sweep.
#[derive(Debug, Clone)]
pub struct ShardMeasurement {
    /// Engine name (`hash` / `dense`).
    pub engine: &'static str,
    /// Forced worker count of the executor the replay fans out on.
    pub shard_workers: usize,
    /// Median wall-clock seconds for the single sharded replay.
    pub elapsed_sec: f64,
    /// Interquartile range of the timed runs' seconds.
    pub elapsed_iqr_sec: f64,
    /// `units / elapsed_sec` — cluster visits per second.
    pub visits_per_sec: f64,
    /// Replay estimate mean — must be bitwise identical across rows.
    pub estimate_mean: f64,
    /// Replay estimator variance — must be bitwise identical too.
    pub estimate_var: f64,
    /// Simulated human seconds of the replay (bitwise-checked as well).
    pub cost_seconds: f64,
}

/// The intra-trial shard sweep at one KG scale: one fixed-size WCS sharded
/// replay per (engine, shard-worker-count) cell.
#[derive(Debug, Clone)]
pub struct ShardSweep {
    /// Cluster visits per replay.
    pub units: u64,
    /// Shards the fixed partition yields.
    pub shards: u64,
    /// Visits per shard (the partition key).
    pub shard_units: usize,
    /// Per-engine, per-shard-worker-count measurements.
    pub measurements: Vec<ShardMeasurement>,
}

impl ShardSweep {
    fn cell(&self, engine: &str, shard_workers: usize) -> Option<&ShardMeasurement> {
        self.measurements
            .iter()
            .find(|m| m.engine == engine && m.shard_workers == shard_workers)
    }

    /// Replay speedup of `shard_workers` over the 1-worker row (medians).
    pub fn speedup(&self, engine: &str, shard_workers: usize) -> Option<f64> {
        Some(self.cell(engine, 1)?.elapsed_sec / self.cell(engine, shard_workers)?.elapsed_sec)
    }

    /// Whether every shard-worker count produced bitwise-identical
    /// estimate mean/variance and cost within each engine — the sharded
    /// replay's invariance contract.
    pub fn bitwise_invariant(&self) -> bool {
        for engine in ["hash", "dense"] {
            let rows: Vec<_> = self
                .measurements
                .iter()
                .filter(|m| m.engine == engine)
                .collect();
            if !rows.windows(2).all(|w| {
                w[0].estimate_mean.to_bits() == w[1].estimate_mean.to_bits()
                    && w[0].estimate_var.to_bits() == w[1].estimate_var.to_bits()
                    && w[0].cost_seconds.to_bits() == w[1].cost_seconds.to_bits()
            }) {
                return false;
            }
        }
        true
    }

    /// Whether hash and dense agree bitwise at every shard-worker count.
    pub fn engines_agree(&self) -> bool {
        SHARD_WORKER_COUNTS
            .iter()
            .all(|&w| match (self.cell("hash", w), self.cell("dense", w)) {
                (Some(h), Some(d)) => {
                    h.estimate_mean.to_bits() == d.estimate_mean.to_bits()
                        && h.estimate_var.to_bits() == d.estimate_var.to_bits()
                        && h.cost_seconds.to_bits() == d.cost_seconds.to_bits()
                }
                _ => false,
            })
    }
}

/// All measurements at one KG scale.
#[derive(Debug, Clone)]
pub struct ParallelScaleReport {
    /// Target (and ~actual) triple count.
    pub triples: u64,
    /// Cluster count of the synthetic KG.
    pub clusters: u64,
    /// Trials per (engine, worker-count) cell.
    pub trials: u64,
    /// One-time `LabelStore` materialization seconds (dense engine only).
    pub store_build_sec: f64,
    /// Per-engine, per-worker-count measurements.
    pub measurements: Vec<WorkerMeasurement>,
    /// The intra-trial shard sweep at this scale (since schema v2).
    pub shard_sweep: ShardSweep,
}

impl ParallelScaleReport {
    fn cell(&self, engine: &str, workers: usize) -> Option<&WorkerMeasurement> {
        self.measurements
            .iter()
            .find(|m| m.engine == engine && m.workers == workers)
    }

    /// Speedup of `workers` over the 1-worker row for one engine
    /// (medians).
    pub fn speedup(&self, engine: &str, workers: usize) -> Option<f64> {
        Some(self.cell(engine, 1)?.elapsed_sec / self.cell(engine, workers)?.elapsed_sec)
    }

    /// Speedup of `workers` over 1 worker with both engines' trial sets
    /// combined (sums of medians).
    pub fn combined_speedup(&self, workers: usize) -> Option<f64> {
        let total =
            |w: usize| Some(self.cell("hash", w)?.elapsed_sec + self.cell("dense", w)?.elapsed_sec);
        Some(total(1)? / total(workers)?)
    }

    /// Whether every worker count produced bitwise-identical estimate
    /// mean/std within each engine — the executor's invariance contract.
    pub fn bitwise_invariant(&self) -> bool {
        for engine in ["hash", "dense"] {
            let rows: Vec<_> = self
                .measurements
                .iter()
                .filter(|m| m.engine == engine)
                .collect();
            if !rows.windows(2).all(|w| {
                w[0].mean_estimate.to_bits() == w[1].mean_estimate.to_bits()
                    && w[0].std_estimate.to_bits() == w[1].std_estimate.to_bits()
            }) {
                return false;
            }
        }
        true
    }

    /// Whether hash and dense agree bitwise at every worker count (they
    /// replay identical draw sequences, so they must).
    pub fn engines_agree(&self) -> bool {
        WORKER_COUNTS
            .iter()
            .all(|&w| match (self.cell("hash", w), self.cell("dense", w)) {
                (Some(h), Some(d)) => {
                    h.mean_estimate.to_bits() == d.mean_estimate.to_bits()
                        && h.std_estimate.to_bits() == d.std_estimate.to_bits()
                }
                _ => false,
            })
    }
}

/// A full parallel-scaling report.
#[derive(Debug, Clone)]
pub struct ParallelReport {
    /// Whether this was a quick (CI) run.
    pub quick: bool,
    /// Base seed used.
    pub seed: u64,
    /// The host's default worker resolution (available parallelism unless
    /// `KG_EVAL_WORKERS` caps it) — the context for reading the curves.
    pub host_workers: usize,
    /// CPU affinity mask of the run ([`cpu_affinity`]).
    pub affinity: String,
    /// Per-scale results, ascending.
    pub scales: Vec<ParallelScaleReport>,
}

/// Time `cell` over [`TIMED_RUNS`] samples, each repeating it until the
/// sample has run for [`MIN_SAMPLE_SEC`], and return the median and IQR
/// of the seconds per iteration, with the last iteration's output. The
/// cell is deterministic, so every iteration's output is the same.
fn timed<T>(mut cell: impl FnMut() -> T) -> (f64, f64, T) {
    let mut secs = Vec::with_capacity(TIMED_RUNS);
    let mut out = None;
    for _ in 0..TIMED_RUNS {
        let t0 = Instant::now();
        let mut iterations = 0u32;
        while iterations == 0 || t0.elapsed().as_secs_f64() < MIN_SAMPLE_SEC {
            out = Some(cell());
            iterations += 1;
        }
        secs.push(t0.elapsed().as_secs_f64() / f64::from(iterations));
    }
    secs.sort_by(f64::total_cmp);
    // Linear-interpolated quantiles over the sorted runs.
    let quantile = |q: f64| {
        let pos = q * (secs.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        secs[lo] + (secs[hi] - secs[lo]) * (pos - lo as f64)
    };
    let iqr = quantile(0.75) - quantile(0.25);
    (quantile(0.5), iqr, out.expect("TIMED_RUNS is at least 1"))
}

fn run_scale(target: u64, trials: u64, replay_units: u64, seed: u64) -> ParallelScaleReport {
    let sizes = synthetic_sizes(target);
    let oracle = RemOracle::new(0.9, seed ^ target);
    let idx = Arc::new(PopulationIndex::from_sizes(sizes).expect("non-empty synthetic KG"));

    let t0 = Instant::now();
    let store = Arc::new(idx.materialize_labels(&oracle));
    let store_build_sec = t0.elapsed().as_secs_f64();
    let pool = DenseArenaPool::new(store, CostModel::default());

    let config = workload_config();
    let evaluator = Evaluator::twcs(M);
    let base_seed = seed ^ 0x9a11;

    let mut measurements = Vec::new();
    for engine in ["hash", "dense"] {
        // (estimate, cost seconds) moments per cell. The hash rows drive
        // the executor directly with a fresh hash annotator per trial
        // (`run_with_index`) — the reference the dense rows must match bit
        // for bit.
        let run = |workers: usize, n: u64| -> [RunningMoments; 2] {
            let exec = TrialExecutor::new().with_workers(workers);
            match engine {
                "hash" => {
                    let stats = exec.run(n, base_seed, 2, |seed| {
                        let mut rng = StdRng::seed_from_u64(seed);
                        let report = evaluator
                            .run_with_index(idx.clone(), &oracle, &config, &mut rng)
                            .expect("static evaluation over a prebuilt index is infallible");
                        vec![report.estimate.mean, report.cost_seconds]
                    });
                    stats.try_into().expect("two metrics")
                }
                _ => {
                    let agg =
                        evaluator.run_trials(&idx, &oracle, &pool, &config, &exec, n, base_seed);
                    [agg.estimate, agg.cost_seconds]
                }
            }
        };
        // Untimed full-size warmup at both sweep endpoints: page faults,
        // branch training, allocator free lists, and arena builds all
        // reach steady state before the first timed cell, so the 1-worker
        // baseline is not penalized for running first.
        run(1, trials);
        run(*WORKER_COUNTS.last().expect("non-empty sweep"), trials);
        for workers in WORKER_COUNTS {
            let (median, iqr, [estimate, cost]) = timed(|| run(workers, trials));
            measurements.push(WorkerMeasurement {
                engine,
                workers,
                trials,
                elapsed_sec: median,
                elapsed_iqr_sec: iqr,
                trials_per_sec: trials as f64 / median,
                mean_estimate: estimate.mean(),
                std_estimate: estimate.sample_std(),
                mean_cost_seconds: cost.mean(),
            });
        }
    }
    // Intra-trial sweep: one fixed-size WCS sharded replay per cell —
    // WCS because its full-cluster visits are the dense engine's SIMD
    // fast path, so this measures single-replay latency on the hottest
    // kernel. The replay seed is fixed; only the claiming thread count
    // varies, so every cell must agree bitwise.
    let replay_seed = seed ^ 0x51AD;
    let mut shard_measurements = Vec::new();
    for engine in ["hash", "dense"] {
        let run = |shard_workers: usize| {
            let exec = TrialExecutor::new().with_workers(shard_workers);
            match engine {
                "hash" => replay_hash(
                    &exec,
                    ShardDesign::FullCluster,
                    &idx,
                    &oracle,
                    CostModel::default(),
                    replay_units,
                    replay_seed,
                ),
                _ => replay_dense(
                    &exec,
                    ShardDesign::FullCluster,
                    &idx,
                    &pool,
                    replay_units,
                    replay_seed,
                ),
            }
        };
        // Untimed warmup at both endpoints, as above.
        run(1);
        run(*SHARD_WORKER_COUNTS.last().expect("non-empty sweep"));
        for shard_workers in SHARD_WORKER_COUNTS {
            let (median, iqr, r) = timed(|| run(shard_workers));
            shard_measurements.push(ShardMeasurement {
                engine,
                shard_workers,
                elapsed_sec: median,
                elapsed_iqr_sec: iqr,
                visits_per_sec: replay_units as f64 / median,
                estimate_mean: r.estimate.mean,
                estimate_var: r.estimate.var_of_mean,
                cost_seconds: r.cost_seconds,
            });
        }
    }
    ParallelScaleReport {
        triples: idx.total_triples(),
        clusters: idx.num_clusters() as u64,
        trials,
        store_build_sec,
        measurements,
        shard_sweep: ShardSweep {
            units: replay_units,
            shards: num_shards(replay_units),
            shard_units: DEFAULT_SHARD_UNITS,
            measurements: shard_measurements,
        },
    }
}

/// Run the harness. Quick mode shrinks scales and trial counts (CI).
pub fn run(opts: &BenchOpts) -> ParallelReport {
    let scales: &[(u64, u64, u64)] = if opts.quick {
        // (target triples, trials per cell, visits per sharded replay)
        &[(100_000, 32, 2_000), (1_000_000, 16, 4_000)]
    } else {
        &[(1_000_000, 128, 20_000), (10_000_000, 48, 40_000)]
    };
    ParallelReport {
        quick: opts.quick,
        seed: opts.seed,
        host_workers: TrialExecutor::new().workers(),
        affinity: cpu_affinity(),
        scales: scales
            .iter()
            .map(|&(target, trials, replay_units)| {
                run_scale(target, trials, replay_units, opts.seed)
            })
            .collect(),
    }
}

/// Render the report as the `BENCH_parallel.json` document
/// (schema `kg-bench-parallel/v3`; see README § Parallel execution).
pub fn to_json(report: &ParallelReport) -> String {
    let cfg = workload_config();
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema\": \"kg-bench-parallel/v3\",\n");
    s.push_str(&format!("  \"quick\": {},\n", report.quick));
    s.push_str(&format!("  \"seed\": {},\n", report.seed));
    s.push_str(&format!("  \"host_workers\": {},\n", report.host_workers));
    s.push_str(&format!("  \"affinity\": \"{}\",\n", report.affinity));
    s.push_str("  \"metric\": \"trials_per_second\",\n");
    s.push_str(&format!(
        "  \"timing\": {{\"runs_per_cell\": {TIMED_RUNS}, \"min_sample_sec\": {MIN_SAMPLE_SEC}, \"elapsed_sec\": \"median seconds per iteration\", \"elapsed_iqr_sec\": \"q3 - q1\"}},\n"
    ));
    s.push_str(&format!(
        "  \"workload\": {{\"design\": \"TWCS\", \"m\": {M}, \"target_moe\": {}, \
         \"alpha\": {}, \"batch_size\": {}}},\n",
        cfg.target_moe, cfg.alpha, cfg.batch_size
    ));
    s.push_str("  \"scales\": [\n");
    for (i, sc) in report.scales.iter().enumerate() {
        s.push_str("    {\n");
        s.push_str(&format!("      \"triples\": {},\n", sc.triples));
        s.push_str(&format!("      \"clusters\": {},\n", sc.clusters));
        s.push_str(&format!("      \"trials\": {},\n", sc.trials));
        s.push_str(&format!(
            "      \"store_build_sec\": {:.6},\n",
            sc.store_build_sec
        ));
        s.push_str("      \"measurements\": [\n");
        for (j, m) in sc.measurements.iter().enumerate() {
            s.push_str(&format!(
                "        {{\"engine\": \"{}\", \"workers\": {}, \"trials\": {}, \
                 \"elapsed_sec\": {:.6}, \"elapsed_iqr_sec\": {:.6}, \"trials_per_sec\": {:.1}, \
                 \"mean_estimate\": {:.9}, \"std_estimate\": {:.9}, \
                 \"mean_cost_seconds\": {:.3}}}{}\n",
                m.engine,
                m.workers,
                m.trials,
                m.elapsed_sec,
                m.elapsed_iqr_sec,
                m.trials_per_sec,
                m.mean_estimate,
                m.std_estimate,
                m.mean_cost_seconds,
                if j + 1 < sc.measurements.len() {
                    ","
                } else {
                    ""
                }
            ));
        }
        s.push_str("      ],\n");
        let sweep = |engine: &str| -> Vec<String> {
            WORKER_COUNTS
                .iter()
                .skip(1)
                .filter_map(|&w| sc.speedup(engine, w).map(|x| format!("\"{w}\": {x:.2}")))
                .collect()
        };
        s.push_str(&format!(
            "      \"speedup_over_1_worker\": {{\"hash\": {{{}}}, \"dense\": {{{}}}, \
             \"combined\": {{{}}}}},\n",
            sweep("hash").join(", "),
            sweep("dense").join(", "),
            WORKER_COUNTS
                .iter()
                .skip(1)
                .filter_map(|&w| sc.combined_speedup(w).map(|x| format!("\"{w}\": {x:.2}")))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        s.push_str(&format!(
            "      \"bitwise_invariant\": {},\n",
            sc.bitwise_invariant()
        ));
        s.push_str(&format!(
            "      \"engines_agree\": {},\n",
            sc.engines_agree()
        ));
        let sw = &sc.shard_sweep;
        s.push_str("      \"intra_trial\": {\n");
        s.push_str("        \"metric\": \"replay_visits_per_second\",\n");
        s.push_str(&format!(
            "        \"design\": \"WCS\", \"units\": {}, \"shards\": {}, \"shard_units\": {},\n",
            sw.units, sw.shards, sw.shard_units
        ));
        s.push_str("        \"measurements\": [\n");
        for (j, m) in sw.measurements.iter().enumerate() {
            s.push_str(&format!(
                "          {{\"engine\": \"{}\", \"shard_workers\": {}, \
                 \"elapsed_sec\": {:.6}, \"elapsed_iqr_sec\": {:.6}, \"visits_per_sec\": {:.1}, \
                 \"estimate_mean\": {:.9}, \"estimate_var\": {:.12}, \
                 \"cost_seconds\": {:.3}}}{}\n",
                m.engine,
                m.shard_workers,
                m.elapsed_sec,
                m.elapsed_iqr_sec,
                m.visits_per_sec,
                m.estimate_mean,
                m.estimate_var,
                m.cost_seconds,
                if j + 1 < sw.measurements.len() {
                    ","
                } else {
                    ""
                }
            ));
        }
        s.push_str("        ],\n");
        let shard_sweep_speedups = |engine: &str| -> Vec<String> {
            SHARD_WORKER_COUNTS
                .iter()
                .skip(1)
                .filter_map(|&w| sw.speedup(engine, w).map(|x| format!("\"{w}\": {x:.2}")))
                .collect()
        };
        s.push_str(&format!(
            "        \"speedup_over_1_shard_worker\": {{\"hash\": {{{}}}, \"dense\": {{{}}}}},\n",
            shard_sweep_speedups("hash").join(", "),
            shard_sweep_speedups("dense").join(", ")
        ));
        s.push_str(&format!(
            "        \"bitwise_invariant\": {},\n",
            sw.bitwise_invariant()
        ));
        s.push_str(&format!(
            "        \"engines_agree\": {}\n",
            sw.engines_agree()
        ));
        s.push_str("      }\n");
        s.push_str(&format!(
            "    }}{}\n",
            if i + 1 < report.scales.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// Human-readable table for the console.
pub fn render_table(report: &ParallelReport) -> String {
    let mut s = format!(
        "parallel scaling — TWCS(m={M}) to MoE 1%, host workers {} (affinity {}), \
         elapsed = median per iteration of {TIMED_RUNS} samples of >= {MIN_SAMPLE_SEC}s\n",
        report.host_workers, report.affinity
    );
    for sc in &report.scales {
        s.push_str(&format!(
            "scale {:>9} triples, {:>8} clusters, {} trials/cell (store {:.3}s)\n",
            sc.triples, sc.clusters, sc.trials, sc.store_build_sec
        ));
        s.push_str("  engine  workers   elapsed(s)   trials/s     estimate (mean±std)\n");
        for m in &sc.measurements {
            s.push_str(&format!(
                "  {:<6}  {:>7}  {:>11.4}  {:>9.1}     {:.6}±{:.6}\n",
                m.engine,
                m.workers,
                m.elapsed_sec,
                m.trials_per_sec,
                m.mean_estimate,
                m.std_estimate
            ));
        }
        for w in WORKER_COUNTS.iter().skip(1) {
            if let Some(x) = sc.combined_speedup(*w) {
                s.push_str(&format!("  combined speedup at {w} workers: {x:.2}x\n"));
            }
        }
        s.push_str(&format!(
            "  bitwise invariant across worker counts: {}; engines agree: {}\n",
            sc.bitwise_invariant(),
            sc.engines_agree()
        ));
        let sw = &sc.shard_sweep;
        s.push_str(&format!(
            "  intra-trial WCS replay: {} visits in {} shards of {}\n",
            sw.units, sw.shards, sw.shard_units
        ));
        s.push_str("  engine  shard-workers   elapsed(s)   visits/s\n");
        for m in &sw.measurements {
            s.push_str(&format!(
                "  {:<6}  {:>13}  {:>11.4}  {:>9.1}\n",
                m.engine, m.shard_workers, m.elapsed_sec, m.visits_per_sec
            ));
        }
        s.push_str(&format!(
            "  sharded replay bitwise invariant: {}; engines agree: {}\n\n",
            sw.bitwise_invariant(),
            sw.engines_agree()
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_run_is_invariant_across_workers_and_engines() {
        let sc = run_scale(5_000, 6, 700, 42);
        assert!(sc.triples >= 5_000);
        assert_eq!(sc.measurements.len(), 2 * WORKER_COUNTS.len());
        assert!(sc.bitwise_invariant(), "worker counts disagree: {sc:?}");
        assert!(sc.engines_agree(), "engines disagree: {sc:?}");
        assert!(sc.speedup("hash", 4).is_some());
        assert!(sc.combined_speedup(2).is_some());
        // The workload converged somewhere sensible.
        let m = &sc.measurements[0];
        assert!((m.mean_estimate - 0.9).abs() < 0.05, "{}", m.mean_estimate);
        assert!(m.mean_cost_seconds > 0.0);
        // The intra-trial sweep ran both engines at every cell and is
        // invariant to the shard-worker count.
        let sw = &sc.shard_sweep;
        assert_eq!(sw.units, 700);
        assert_eq!(sw.shards, 3); // 700 visits / 256 per shard
        assert_eq!(sw.measurements.len(), 2 * SHARD_WORKER_COUNTS.len());
        assert!(sw.bitwise_invariant(), "shard workers disagree: {sw:?}");
        assert!(sw.engines_agree(), "sharded engines disagree: {sw:?}");
        assert!(sw.speedup("dense", 8).is_some());
        let report = ParallelReport {
            quick: true,
            seed: 42,
            host_workers: TrialExecutor::new().workers(),
            affinity: cpu_affinity(),
            scales: vec![sc],
        };
        assert!(!report.affinity.is_empty());
        let json = to_json(&report);
        assert!(json.contains("\"schema\": \"kg-bench-parallel/v3\""));
        assert!(json.contains("\"elapsed_iqr_sec\": "));
        assert!(json.contains("\"affinity\": \""));
        assert!(json.contains("\"bitwise_invariant\": true"));
        assert!(!json.contains("\"bitwise_invariant\": false"));
        assert!(json.contains("\"engines_agree\": true"));
        assert!(json.contains("speedup_over_1_worker"));
        assert!(json.contains("\"intra_trial\""));
        assert!(json.contains("speedup_over_1_shard_worker"));
        let table = render_table(&report);
        assert!(table.contains("combined speedup at 4 workers"));
        assert!(table.contains("intra-trial WCS replay"));
    }
}
