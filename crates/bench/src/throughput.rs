//! Tracked throughput harness: hash vs dense annotation engine on the hot
//! sampling designs, at three synthetic-KG scales.
//!
//! This is the perf trajectory of the repository: `bench-report` (the
//! binary over this module) times SRS, WCS, and TWCS(5) trial loops —
//! exactly the loops every Table 3–7 / Fig. 5–9 experiment pumps millions
//! of annotations through — under both engines and writes the results to
//! `BENCH_throughput.json`, which CI regenerates and uploads on every PR
//! and whose committed baseline future PRs diff against.
//!
//! The headline metric is **annotated triples per second**: distinct
//! triples charged to the simulated annotator, divided by wall-clock time
//! of the full trial loop (including per-trial engine setup — a fresh pair
//! of hash tables for the hash engine, an O(1) `reset` for the dense
//! arena). One-time per-KG costs (population index, label store) are
//! reported separately, since real experiments amortize them over ~1000
//! trials.

use crate::BenchOpts;
use kg_annotate::annotator::{Annotator, SimulatedAnnotator};
use kg_annotate::cost::CostModel;
use kg_annotate::dense::DenseAnnotator;
use kg_annotate::oracle::RemOracle;
use kg_sampling::design::Design;
use kg_sampling::PopulationIndex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

/// One (scale, design, engine) measurement.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Design name (`SRS` / `WCS` / `TWCS`).
    pub design: &'static str,
    /// Engine name (`hash` / `dense`).
    pub engine: &'static str,
    /// Trials timed.
    pub trials: u64,
    /// Sampling units drawn across all trials.
    pub units: u64,
    /// Distinct triples annotated across all trials.
    pub annotated: u64,
    /// Wall-clock seconds for the whole trial loop.
    pub elapsed_sec: f64,
    /// `annotated / elapsed_sec`.
    pub annotated_per_sec: f64,
    /// Mean of the trial estimates (sanity: engines must agree).
    pub mean_estimate: f64,
}

/// All measurements at one KG scale.
#[derive(Debug, Clone)]
pub struct ScaleReport {
    /// Target (and ~actual) triple count.
    pub triples: u64,
    /// Cluster count of the synthetic KG.
    pub clusters: u64,
    /// One-time `PopulationIndex` build seconds.
    pub index_build_sec: f64,
    /// One-time `LabelStore` materialization seconds (dense engine only).
    pub store_build_sec: f64,
    /// Per-design, per-engine measurements.
    pub measurements: Vec<Measurement>,
}

impl ScaleReport {
    /// dense / hash throughput ratio for one design at this scale.
    pub fn speedup(&self, design: &str) -> Option<f64> {
        let get = |engine: &str| {
            self.measurements
                .iter()
                .find(|m| m.design == design && m.engine == engine)
                .map(|m| m.annotated_per_sec)
        };
        Some(get("dense")? / get("hash")?)
    }
}

/// A full throughput report.
#[derive(Debug, Clone)]
pub struct ThroughputReport {
    /// Whether this was a quick (CI) run.
    pub quick: bool,
    /// Base seed used.
    pub seed: u64,
    /// Per-scale results, ascending.
    pub scales: Vec<ScaleReport>,
}

/// Long-tail synthetic cluster sizes totalling ≈ `target` triples: mostly
/// small clusters (1–13) with a sprinkling of 120-triple heads, matching
/// the shape the paper's KGs exhibit (Table 3) and keeping `triple_at` on
/// its general binary-search path.
pub fn synthetic_sizes(target: u64) -> Vec<u32> {
    let mut sizes = Vec::new();
    let mut total = 0u64;
    let mut i = 0u64;
    while total < target {
        let s = if i.is_multiple_of(97) {
            120
        } else {
            1 + (i % 13) as u32
        };
        sizes.push(s);
        total += s as u64;
        i += 1;
    }
    sizes
}

struct DesignSpec {
    design: Design,
    name: &'static str,
    /// Sampling units per trial (triples for SRS, clusters otherwise),
    /// sized so each trial annotates a few thousand triples.
    units: usize,
}

fn specs() -> Vec<DesignSpec> {
    vec![
        DesignSpec {
            design: Design::Srs,
            name: "SRS",
            units: 3000,
        },
        DesignSpec {
            design: Design::Wcs,
            name: "WCS",
            units: 300,
        },
        DesignSpec {
            design: Design::Twcs { m: 5 },
            name: "TWCS",
            units: 600,
        },
    ]
}

/// Run the harness. Quick mode drops the 10^7 scale and shrinks trial
/// counts (CI).
pub fn run(opts: &BenchOpts) -> ThroughputReport {
    let scales: &[(u64, u64)] = if opts.quick {
        // (target triples, trials)
        &[(100_000, 12), (1_000_000, 6)]
    } else {
        &[(100_000, 48), (1_000_000, 16), (10_000_000, 5)]
    };
    let mut reports = Vec::new();
    for &(target, trials) in scales {
        reports.push(run_scale(target, trials, opts.seed));
    }
    ThroughputReport {
        quick: opts.quick,
        seed: opts.seed,
        scales: reports,
    }
}

fn run_scale(target: u64, trials: u64, seed: u64) -> ScaleReport {
    let sizes = synthetic_sizes(target);
    let oracle = RemOracle::new(0.9, seed ^ target);

    let t0 = Instant::now();
    let idx = Arc::new(PopulationIndex::from_sizes(sizes).unwrap());
    let index_build_sec = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let store = Arc::new(idx.materialize_labels(&oracle));
    let store_build_sec = t0.elapsed().as_secs_f64();

    let mut dense = DenseAnnotator::new(store, CostModel::default());
    let mut measurements = Vec::new();
    for spec in specs() {
        // Hash engine: a fresh SimulatedAnnotator per trial, as every
        // pre-dense experiment in this repository ran. One untimed warmup
        // trial per engine takes page faults and branch training out of
        // the measurement.
        let run_hash = |t: u64| -> (u64, u64, f64) {
            let mut rng = StdRng::seed_from_u64(seed ^ (t * 7919));
            let mut design = spec.design.instantiate(idx.clone(), &oracle);
            let mut ann = SimulatedAnnotator::new(&oracle, CostModel::default());
            let units = design.draw(&mut rng, &mut ann, spec.units) as u64;
            (
                units,
                ann.triples_annotated() as u64,
                design.estimate().mean,
            )
        };
        run_hash(trials); // warmup (fresh seed, untimed)
        let mut units = 0u64;
        let mut annotated = 0u64;
        let mut est_sum = 0.0;
        let t0 = Instant::now();
        for t in 0..trials {
            let (u, a, e) = run_hash(t);
            units += u;
            annotated += a;
            est_sum += e;
        }
        let elapsed = t0.elapsed().as_secs_f64();
        measurements.push(Measurement {
            design: spec.name,
            engine: "hash",
            trials,
            units,
            annotated,
            elapsed_sec: elapsed,
            annotated_per_sec: annotated as f64 / elapsed,
            mean_estimate: est_sum / trials as f64,
        });

        // Dense engine: one shared arena, journal-bounded reset per trial.
        let mut run_dense = |t: u64| -> (u64, u64, f64) {
            let mut rng = StdRng::seed_from_u64(seed ^ (t * 7919));
            let mut design = spec.design.instantiate(idx.clone(), &oracle);
            dense.reset();
            let units = design.draw(&mut rng, &mut dense, spec.units) as u64;
            (
                units,
                dense.triples_annotated() as u64,
                design.estimate().mean,
            )
        };
        run_dense(trials); // warmup (fresh seed, untimed)
        let mut units = 0u64;
        let mut annotated = 0u64;
        let mut est_sum = 0.0;
        let t0 = Instant::now();
        for t in 0..trials {
            let (u, a, e) = run_dense(t);
            units += u;
            annotated += a;
            est_sum += e;
        }
        let elapsed = t0.elapsed().as_secs_f64();
        measurements.push(Measurement {
            design: spec.name,
            engine: "dense",
            trials,
            units,
            annotated,
            elapsed_sec: elapsed,
            annotated_per_sec: annotated as f64 / elapsed,
            mean_estimate: est_sum / trials as f64,
        });
    }
    ScaleReport {
        triples: idx.total_triples(),
        clusters: idx.num_clusters() as u64,
        index_build_sec,
        store_build_sec,
        measurements,
    }
}

/// Render the report as the `BENCH_throughput.json` document
/// (schema `kg-bench-throughput/v1`; see README § Performance).
pub fn to_json(report: &ThroughputReport) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema\": \"kg-bench-throughput/v1\",\n");
    s.push_str(&format!("  \"quick\": {},\n", report.quick));
    s.push_str(&format!("  \"seed\": {},\n", report.seed));
    s.push_str("  \"metric\": \"annotated_triples_per_second\",\n");
    s.push_str("  \"scales\": [\n");
    for (i, sc) in report.scales.iter().enumerate() {
        s.push_str("    {\n");
        s.push_str(&format!("      \"triples\": {},\n", sc.triples));
        s.push_str(&format!("      \"clusters\": {},\n", sc.clusters));
        s.push_str(&format!(
            "      \"index_build_sec\": {:.6},\n",
            sc.index_build_sec
        ));
        s.push_str(&format!(
            "      \"store_build_sec\": {:.6},\n",
            sc.store_build_sec
        ));
        s.push_str("      \"measurements\": [\n");
        for (j, m) in sc.measurements.iter().enumerate() {
            s.push_str(&format!(
                "        {{\"design\": \"{}\", \"engine\": \"{}\", \"trials\": {}, \
                 \"units\": {}, \"annotated\": {}, \"elapsed_sec\": {:.6}, \
                 \"annotated_per_sec\": {:.1}, \"mean_estimate\": {:.6}}}{}\n",
                m.design,
                m.engine,
                m.trials,
                m.units,
                m.annotated,
                m.elapsed_sec,
                m.annotated_per_sec,
                m.mean_estimate,
                if j + 1 < sc.measurements.len() {
                    ","
                } else {
                    ""
                }
            ));
        }
        s.push_str("      ],\n");
        s.push_str("      \"speedup_dense_over_hash\": {");
        let names: Vec<String> = specs()
            .iter()
            .filter_map(|sp| {
                sc.speedup(sp.name)
                    .map(|x| format!("\"{}\": {:.2}", sp.name, x))
            })
            .collect();
        s.push_str(&names.join(", "));
        s.push_str("}\n");
        s.push_str(&format!(
            "    }}{}\n",
            if i + 1 < report.scales.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// Human-readable table for the console.
pub fn render_table(report: &ThroughputReport) -> String {
    let mut s = String::new();
    for sc in &report.scales {
        s.push_str(&format!(
            "scale {:>9} triples, {:>8} clusters  (index {:.3}s, label store {:.3}s)\n",
            sc.triples, sc.clusters, sc.index_build_sec, sc.store_build_sec
        ));
        s.push_str(
            "  design  engine  trials      units  annotated   elapsed(s)  annotated/s   est\n",
        );
        for m in &sc.measurements {
            s.push_str(&format!(
                "  {:<6}  {:<6}  {:>6}  {:>9}  {:>9}  {:>11.4}  {:>11.0}  {:.4}\n",
                m.design,
                m.engine,
                m.trials,
                m.units,
                m.annotated,
                m.elapsed_sec,
                m.annotated_per_sec,
                m.mean_estimate
            ));
        }
        for sp in specs() {
            if let Some(x) = sc.speedup(sp.name) {
                s.push_str(&format!("  {:<6} dense/hash speedup: {:.2}x\n", sp.name, x));
            }
        }
        s.push('\n');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_sizes_hit_target() {
        let sizes = synthetic_sizes(100_000);
        let total: u64 = sizes.iter().map(|&s| s as u64).sum();
        assert!((100_000..100_200).contains(&total), "total {total}");
        assert!(sizes.contains(&120));
    }

    #[test]
    fn tiny_run_produces_consistent_report() {
        // A micro-scale smoke run: engines agree on estimates and distinct
        // annotated counts; JSON and table render.
        let report = ThroughputReport {
            quick: true,
            seed: 1,
            scales: vec![run_scale(5_000, 2, 42)],
        };
        let sc = &report.scales[0];
        assert!(sc.triples >= 5_000);
        assert_eq!(sc.measurements.len(), 6);
        for pair in sc.measurements.chunks(2) {
            assert_eq!(pair[0].design, pair[1].design);
            assert_eq!(pair[0].engine, "hash");
            assert_eq!(pair[1].engine, "dense");
            assert_eq!(pair[0].annotated, pair[1].annotated, "{}", pair[0].design);
            assert!(
                (pair[0].mean_estimate - pair[1].mean_estimate).abs() < 1e-12,
                "{}: {} vs {}",
                pair[0].design,
                pair[0].mean_estimate,
                pair[1].mean_estimate
            );
        }
        let json = to_json(&report);
        assert!(json.contains("\"schema\": \"kg-bench-throughput/v1\""));
        assert!(json.contains("speedup_dense_over_hash"));
        let table = render_table(&report);
        assert!(table.contains("dense/hash speedup"));
    }
}
