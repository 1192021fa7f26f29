//! Byte-identity gate for the deletion-aware evolving path: a full churn
//! replay — insertions, retractions, and revisions — must produce
//! bitwise-identical per-event estimates, costs, and reservoir accounting
//! across the two annotation engines, at every delete fraction. CI's
//! determinism job runs this test; the same check is recorded into
//! `BENCH_churn.json` by `bench-report --churn`. RS's one offer path must
//! also match the retired per-item reference, recorded as golden fixtures
//! (see `offer_identity`), at every delete fraction.

use kg_bench::churn::{engines_agree, FRACTIONS};

mod fixtures;
use fixtures::assert_churn_matches;

#[test]
fn churn_replay_is_identical_across_engines_at_every_fraction() {
    for &fraction in &FRACTIONS {
        assert!(
            engines_agree(3_000, fraction, 99),
            "engines diverged at delete fraction {fraction}"
        );
    }
    assert!(engines_agree(8_000, 0.5, 20190923));
}

#[test]
fn churn_replay_is_identical_across_offer_paths() {
    for &fraction in &FRACTIONS {
        assert_churn_matches(3_000, fraction, 99);
    }
}

/// Larger stream (several coarse PPS strides, overlay compactions under
/// heavy deletion) for the weekly slow lane.
#[test]
#[ignore = "slow: larger-scale replay, run with --ignored"]
fn churn_replay_is_identical_at_scale() {
    assert!(engines_agree(200_000, 0.5, 7));
}
