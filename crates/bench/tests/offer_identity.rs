//! Byte-identity gate for the sublinear streaming skeleton on the paper's
//! insert-only update stream (the churn harness at delete fraction 0): a
//! full RS replay must produce bitwise-identical per-event estimates,
//! costs, and reservoir accounting whether the reservoir is driven by the
//! batched offer path (`offer_batch` + bulk PPS appends over the batch's
//! cached weight prefix) or the per-item reference loop — under both
//! annotation engines. CI's determinism job runs this test; the same
//! check is recorded into `BENCH_churn.json`'s fraction-0 rows by
//! `bench-report --churn`.

use kg_bench::churn::offer_modes_agree;

#[test]
fn streaming_replay_is_identical_across_offer_paths() {
    assert!(offer_modes_agree(3_000, 0.0, 99));
    assert!(offer_modes_agree(8_000, 0.0, 20190923));
}

/// Larger stream (several coarse PPS strides, thousands of Δe clusters per
/// batch) for the weekly slow lane.
#[test]
#[ignore = "slow: larger-scale replay, run with --ignored"]
fn streaming_replay_is_identical_across_offer_paths_at_scale() {
    assert!(offer_modes_agree(200_000, 0.0, 7));
}
