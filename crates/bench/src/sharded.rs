//! Sharded-replay determinism experiment: exact metric dump of intra-trial
//! sharded replays on a **default** (environment-resolved) executor.
//!
//! Sharded replay fans out on the same [`TrialExecutor`] as the trial
//! runtime, so the CI determinism job covers it with the worker-count
//! matrix it already runs: `repro sharded` under `KG_EVAL_WORKERS=1` and
//! `=4`, byte-diffed. Every number
//! below is printed with full bit fidelity (hex-encoded f64 bits next to
//! the rounded decimal), so a single low-bit divergence anywhere in the
//! sharded walk, merge tree, or kernel layer fails the diff.

use crate::table::TextTable;
use crate::throughput::synthetic_sizes;
use crate::Opts;
use kg_annotate::cost::CostModel;
use kg_annotate::lease::DenseArenaPool;
use kg_annotate::oracle::RemOracle;
use kg_eval::executor::TrialExecutor;
use kg_eval::sharded::{replay_dense, replay_hash, ShardDesign, DEFAULT_SHARD_UNITS};
use kg_sampling::PopulationIndex;
use std::sync::Arc;

/// Run the experiment: both designs × both engines over two synthetic
/// scales, replayed with the default worker resolution.
pub fn run(opts: &Opts) -> String {
    let scales: &[(u64, u64)] = if opts.quick {
        // (target triples, visits per replay)
        &[(50_000, 1_500), (200_000, 3_000)]
    } else {
        &[(200_000, 6_000), (2_000_000, 12_000)]
    };
    let exec = TrialExecutor::new();
    let mut table = TextTable::new(vec![
        "scale",
        "design",
        "engine",
        "shards",
        "estimate",
        "moe95",
        "labeled",
        "correct",
        "entities",
        "cost_bits",
    ]);
    for &(target, units) in scales {
        let sizes = synthetic_sizes(target);
        let oracle = RemOracle::new(0.9, opts.seed ^ target);
        let idx = PopulationIndex::from_sizes(sizes).expect("non-empty synthetic KG");
        let store = Arc::new(idx.materialize_labels(&oracle));
        let pool = DenseArenaPool::new(store, CostModel::default());
        for design in [ShardDesign::FullCluster, ShardDesign::TwoStage { m: 5 }] {
            for engine in ["hash", "dense"] {
                let r = match engine {
                    "hash" => replay_hash(
                        &exec,
                        design,
                        &idx,
                        &oracle,
                        CostModel::default(),
                        units,
                        opts.seed ^ 0x51AD,
                    ),
                    _ => replay_dense(&exec, design, &idx, &pool, units, opts.seed ^ 0x51AD),
                };
                table.row(vec![
                    format!("{target}"),
                    r.design.to_string(),
                    engine.to_string(),
                    format!("{}", r.shards),
                    format!("{:.9}={:016x}", r.estimate.mean, r.estimate.mean.to_bits()),
                    format!(
                        "{:.9}={:016x}",
                        r.estimate.moe(0.05).expect("valid alpha"),
                        r.estimate.moe(0.05).expect("valid alpha").to_bits()
                    ),
                    format!("{}", r.labeled),
                    format!("{}", r.correct),
                    format!("{}", r.entities),
                    format!("{:016x}", r.cost_seconds.to_bits()),
                ]);
            }
        }
    }
    format!(
        "sharded replay determinism dump (shard_units {}; results must be \
         byte-identical at any KG_EVAL_WORKERS)\n{}",
        DEFAULT_SHARD_UNITS,
        table.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dump_is_reproducible_and_engine_agnostic() {
        let opts = Opts {
            quick: true,
            ..Opts::default()
        };
        let a = run(&opts);
        let b = run(&opts);
        assert_eq!(a, b, "same opts must reproduce byte-identically");
        // Hash and dense rows must carry identical metric columns: strip
        // the engine column and compare pairs.
        let rows: Vec<&str> = a.lines().filter(|l| l.contains("/sharded")).collect();
        assert!(!rows.is_empty());
        for pair in rows.chunks(2) {
            if let [h, d] = pair {
                // Column padding differs with engine-name width, so
                // normalize whitespace as well as the engine label.
                let strip = |s: &str| {
                    s.replace("hash", "X")
                        .replace("dense", "X")
                        .split_whitespace()
                        .collect::<Vec<_>>()
                        .join(" ")
                };
                assert_eq!(strip(h), strip(d), "engines diverged");
            }
        }
    }
}
