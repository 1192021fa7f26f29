//! # kg-stats — statistics substrate for KG accuracy evaluation
//!
//! This crate implements, from scratch, every piece of statistical machinery
//! needed by the sampling-and-estimation framework of *Efficient Knowledge
//! Graph Accuracy Evaluation* (Gao et al., VLDB 2019):
//!
//! * [`normal`] — the standard Normal distribution: `erf`/`erfc`, CDF,
//!   inverse CDF (probit), and the critical values `z_{α/2}` used by every
//!   confidence interval in the paper (Eq. 1).
//! * [`ci`] — point estimates with standard errors, margins of error, and
//!   two-sided confidence intervals.
//! * [`moments`] — numerically stable streaming mean/variance (Welford), with
//!   parallel merge, used to aggregate per-cluster accuracies and repeated
//!   experiment trials.
//! * [`srswor`] — simple random sampling *without* replacement (Floyd's
//!   algorithm and partial Fisher–Yates), the second-stage sampler of TWCS.
//! * [`alias`] — Walker/Vose alias tables for O(1) weighted sampling *with*
//!   replacement, the first-stage sampler of WCS/TWCS (clusters drawn with
//!   probability proportional to size, §5.2.2).
//! * [`pps`] — growable prefix-sum PPS sampling: O(log N) draws with O(1)
//!   shared-segment appends, so evolving-KG evaluators absorb update batches
//!   without rebuilding an alias table over the whole grown population.
//! * [`reservoir`] — the weighted reservoir of Efraimidis–Spirakis
//!   (Algorithm A-Res, with exponential-jump skipping), the engine of the
//!   paper's Algorithm 1.
//! * [`stratify`] — the Dalenius–Hodges cumulative-√F stratification rule and
//!   proportional/Neyman sample allocation (§5.3).
//! * [`distr`] — non-uniform variate generation (Normal, LogNormal, Binomial,
//!   bounded Zipf, Exponential). These normally live in `rand_distr`; they are
//!   re-implemented here because the reproduction restricts external crates
//!   and because the experiment generators need deterministic, documented
//!   samplers.
//! * [`histogram`] — fixed-width histograms and empirical quantiles for
//!   dataset characterization and report tables.
//! * [`codec`] — hand-rolled versioned binary codec (magic + version header,
//!   length-prefixed sequences, exact u64 float bit patterns) backing the
//!   `snapshot()/restore()` pairs on [`WeightedReservoirExpJ`],
//!   [`GrowablePps`], and [`RunningMoments`], so monitor state survives
//!   process restarts bitwise.
//! * [`atomicfile`] — temp-file + rename writes, shared by benchmark
//!   artifacts and the session spill store so neither ever exposes a
//!   torn file to a reader.
//!
//! Everything is deterministic given a seeded RNG and has no global state.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod alias;
pub mod atomicfile;
pub mod ci;
pub mod codec;
pub mod distr;
pub mod error;
pub mod fastset;
pub mod histogram;
pub mod moments;
pub mod normal;
pub mod pps;
pub mod reservoir;
pub mod srswor;
pub mod stratify;

pub use alias::AliasTable;
pub use atomicfile::write_atomic;
pub use ci::{ConfidenceInterval, PointEstimate};
pub use codec::{CodecError, Decoder, Encoder};
pub use error::StatsError;
pub use histogram::Histogram;
pub use moments::RunningMoments;
pub use normal::{erf, erfc, normal_cdf, normal_quantile, z_critical};
pub use pps::GrowablePps;
pub use reservoir::{WeightedReservoir, WeightedReservoirExpJ};
pub use stratify::{cum_sqrt_f_boundaries, Allocation, StratumBounds};

/// Shared test-only RNG shims for the `ln(0)` edge regressions.
#[cfg(test)]
pub(crate) mod testrng {
    /// Plays a fixed script of raw RNG words, then returns zero forever —
    /// the forced-zero shim used to pin down every `ln(0)` guard
    /// (reservoir skip draws, geometric skipping) without hanging on a
    /// redraw loop.
    pub struct ScriptedRng {
        script: Vec<u64>,
        pos: usize,
    }

    impl ScriptedRng {
        /// Shim that plays `script` and then zeros.
        pub fn new(script: Vec<u64>) -> Self {
            ScriptedRng { script, pos: 0 }
        }

        /// Raw words consumed so far.
        pub fn consumed(&self) -> usize {
            self.pos
        }
    }

    impl rand::RngCore for ScriptedRng {
        fn next_u32(&mut self) -> u32 {
            self.next_u64() as u32
        }
        fn next_u64(&mut self) -> u64 {
            let v = self.script.get(self.pos).copied().unwrap_or(0);
            self.pos += 1;
            v
        }
    }

    /// Raw word whose `gen::<f64>()` image is `u` (53-bit grid).
    pub fn word_for(u: f64) -> u64 {
        ((u * (1u64 << 53) as f64) as u64) << 11
    }
}
