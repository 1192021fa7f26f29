//! Extractable, serializable monitor state.
//!
//! Everything a running incremental evaluator mutates lives here, split
//! out of the evaluator structs so a session layer can own it: the
//! evaluators ([`super::reservoir::ReservoirEvaluator`],
//! [`super::stratified::StratifiedIncremental`]) are thin logic over a
//! `&mut` of these states, and [`MonitorState`] serializes the whole
//! bundle through the `kg_stats::codec` wire format (`KGMS` records).
//!
//! The contract is the repo's signature invariant extended across process
//! boundaries: a monitor whose [`MonitorState`] (plus RNG cursor) is
//! snapshotted mid-stream and restored in a fresh process produces
//! **byte-identical** estimates to the uninterrupted run. That holds
//! because estimates are a pure function of (monitor state, RNG stream,
//! oracle labels): annotation *memoization* lives in the annotator and
//! affects only cost accounting, never a label or an RNG draw.

use kg_stats::codec::{CodecError, Decoder, Encoder};
use kg_stats::pps::GrowablePps;
use kg_stats::reservoir::WeightedReservoirExpJ;
use kg_stats::{PointEstimate, RunningMoments};
use std::collections::BTreeMap;

/// Every mutable field of the reservoir (RS) evaluator.
#[derive(Clone)]
pub struct ReservoirState {
    /// A-ExpJ weighted reservoir of cluster ids.
    pub(crate) reservoir: WeightedReservoirExpJ<u32>,
    /// Second-stage accuracy of each current reservoir member. Ordered by
    /// cluster id so the estimate's summation order is deterministic (a
    /// hash map would make the last float bits depend on its random
    /// state).
    pub(crate) member_accuracy: BTreeMap<u32, f64>,
    /// Top-up accuracies drawn from the current KG state (cleared on each
    /// update because their sampling frame becomes stale).
    pub(crate) extras: Vec<f64>,
    /// Evolving KG skeleton: PPS frame over every cluster seen so far,
    /// doubling as the size table (`pps.weight(c)` is cluster `c`'s size).
    pub(crate) pps: GrowablePps,
    /// Largest cluster weight ever *appended* to the stream (base or
    /// update), powering the saturation flag. Monotone — retractions never
    /// lower it, which keeps the flag conservative under churn: once a
    /// cluster big enough to saturate its inclusion probability has been
    /// seen, the plain-mean estimate's exactness argument is suspect for
    /// the rest of the stream.
    pub(crate) max_gross_weight: u64,
}

impl ReservoirState {
    /// Whether some cluster's reservoir inclusion probability has
    /// saturated: `K·w/W ≥ 1` for reservoir capacity `K`, some appended
    /// cluster weight `w`, and live total `W`. Beyond this point the RS
    /// plug-in plain-mean estimate of the weighted reservoir sample is no
    /// longer exact (the PR 8 drift-family bias, ≈ +0.02 on the repro
    /// stream), so the monitor surfaces the flag instead of silently
    /// biasing.
    pub fn saturated(&self) -> bool {
        let live = self.pps.total();
        live > 0
            && (self.reservoir.capacity() as u128) * (self.max_gross_weight as u128) >= live as u128
    }
}

/// One stratum of the stratified (SS) evaluator: a segment of the evolving
/// KG with its (possibly frozen) estimate.
#[derive(Clone)]
pub(crate) struct StratumEval {
    /// Global cluster id of the stratum's first cluster — strata partition
    /// the id space into contiguous runs, so a retraction routes to its
    /// stratum by binary search over these.
    pub(crate) first_cluster: u32,
    /// Clusters minted by the stratum's batch.
    pub(crate) num_clusters: u32,
    /// **Live** triples in the stratum (its weight numerator) —
    /// decremented by retractions.
    pub(crate) triples: u64,
    /// Estimate source: frozen (reused from a previous round) or live
    /// accumulation.
    pub(crate) state: StratumState,
}

/// Frozen-or-live estimate source of one stratum.
#[derive(Clone)]
pub(crate) enum StratumState {
    /// Reused verbatim; never sampled again. Retractions only shrink the
    /// stratum's weight — Algorithm 2 never revisits its sample.
    Frozen(PointEstimate),
    /// The stratum currently being sampled.
    Live {
        /// PPS frame over the stratum's cluster sizes — adopts the batch's
        /// cached weight prefix as a shared segment, O(1) to build, and
        /// doubles as the live size table (`pps.weight(local)`), so
        /// retraction decrements flow straight into the sampling frame.
        pps: GrowablePps,
        /// Per-draw second-stage accuracies.
        accs: RunningMoments,
    },
}

impl StratumEval {
    /// The stratum's current estimate (frozen verbatim, or the live
    /// accumulator's plug-in with the conservative small-n fallback).
    pub(crate) fn estimate(&self, m: usize) -> PointEstimate {
        match &self.state {
            StratumState::Frozen(e) => *e,
            StratumState::Live { accs, .. } => {
                let n = accs.count() as usize;
                if n < 2 {
                    // Conservative until the within-stratum variance is
                    // estimable, mirroring `kg_sampling::stratified`.
                    PointEstimate::new(if n == 1 { accs.mean() } else { 0.5 }, 0.25, n)
                        .expect("constant variance is valid")
                } else {
                    PointEstimate::new(
                        accs.mean(),
                        kg_sampling::twcs::floored_variance_of_mean(accs, m),
                        n,
                    )
                    .expect("plug-in variance is non-negative")
                }
            }
        }
    }
}

/// Every mutable field of the stratified (SS) evaluator.
#[derive(Clone)]
pub struct StratifiedState {
    /// Base stratum plus one per applied update, contiguous in cluster-id
    /// space; only the last may be live.
    pub(crate) strata: Vec<StratumEval>,
    /// Next cluster id an update batch will mint.
    pub(crate) next_cluster_id: u32,
}

/// The complete extractable state of one monitor — what a session owns,
/// checkpoints, and restores.
#[derive(Clone)]
#[allow(clippy::large_enum_variant)] // short-lived handle, never stored in bulk
pub enum MonitorState {
    /// Reservoir (RS) monitor state.
    Reservoir(ReservoirState),
    /// Stratified (SS) monitor state.
    Stratified(StratifiedState),
}

const TAG_RESERVOIR: u8 = 0;
const TAG_STRATIFIED: u8 = 1;
const TAG_FROZEN: u8 = 0;
const TAG_LIVE: u8 = 1;

fn put_estimate(e: &mut Encoder, est: &PointEstimate) {
    e.put_f64(est.mean);
    e.put_f64(est.var_of_mean);
    e.put_usize(est.units);
}

fn get_estimate(d: &mut Decoder<'_>) -> Result<PointEstimate, CodecError> {
    let mean = d.get_f64("estimate mean")?;
    let var = d.get_f64("estimate var_of_mean")?;
    let units = d.get_usize("estimate units")?;
    PointEstimate::new(mean, var, units).map_err(|_| CodecError::Invalid {
        what: "estimate variance must be finite and non-negative",
    })
}

fn get_accuracy(d: &mut Decoder<'_>, what: &'static str) -> Result<f64, CodecError> {
    let v = d.get_f64(what)?;
    if !(0.0..=1.0).contains(&v) {
        return Err(CodecError::Invalid {
            what: "accuracies must lie in [0, 1]",
        });
    }
    Ok(v)
}

impl MonitorState {
    /// Record magic for monitor-state snapshots.
    pub const MAGIC: [u8; 4] = *b"KGMS";
    /// Current snapshot format version.
    pub const VERSION: u16 = 1;

    /// Serialize into a standalone `KGMS` v1 record. Composes the `KGRV` /
    /// `KGPP` / `KGRM` payloads of the nested statistics state, so the
    /// bytes are bitwise — floats travel as exact bit patterns.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut e = Encoder::with_header(Self::MAGIC, Self::VERSION);
        self.snapshot_into(&mut e);
        e.finish()
    }

    /// Restore from a standalone `KGMS` record. Typed error on corrupt,
    /// truncated, or unknown-version input — never a panic.
    pub fn restore(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut d = Decoder::new(bytes);
        let version = d.expect_header(Self::MAGIC)?;
        if version != Self::VERSION {
            return Err(CodecError::UnsupportedVersion {
                magic: Self::MAGIC,
                found: version,
                supported: Self::VERSION,
            });
        }
        let state = Self::restore_from(&mut d)?;
        d.finish()?;
        Ok(state)
    }

    /// Append the headerless payload (for embedding in session records).
    pub fn snapshot_into(&self, e: &mut Encoder) {
        match self {
            MonitorState::Reservoir(rs) => {
                e.put_u8(TAG_RESERVOIR);
                rs.reservoir.snapshot_into(e);
                e.put_usize(rs.member_accuracy.len());
                for (&c, &acc) in &rs.member_accuracy {
                    e.put_u32(c);
                    e.put_f64(acc);
                }
                e.put_usize(rs.extras.len());
                for &acc in &rs.extras {
                    e.put_f64(acc);
                }
                rs.pps.snapshot_into(e);
                e.put_u64(rs.max_gross_weight);
            }
            MonitorState::Stratified(ss) => {
                e.put_u8(TAG_STRATIFIED);
                e.put_u32(ss.next_cluster_id);
                e.put_usize(ss.strata.len());
                for s in &ss.strata {
                    e.put_u32(s.first_cluster);
                    e.put_u32(s.num_clusters);
                    e.put_u64(s.triples);
                    match &s.state {
                        StratumState::Frozen(est) => {
                            e.put_u8(TAG_FROZEN);
                            put_estimate(e, est);
                        }
                        StratumState::Live { pps, accs } => {
                            e.put_u8(TAG_LIVE);
                            pps.snapshot_into(e);
                            accs.snapshot_into(e);
                        }
                    }
                }
            }
        }
    }

    /// Decode the headerless payload written by [`Self::snapshot_into`].
    pub fn restore_from(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        match d.get_u8("monitor state tag")? {
            TAG_RESERVOIR => {
                let reservoir = WeightedReservoirExpJ::<u32>::restore_from(d)?;
                let n = d.get_len(12, "reservoir member accuracies")?;
                let mut member_accuracy = BTreeMap::new();
                let mut prev: Option<u32> = None;
                for _ in 0..n {
                    let c = d.get_u32("member cluster id")?;
                    if prev.is_some_and(|p| p >= c) {
                        return Err(CodecError::Invalid {
                            what: "member accuracies must be sorted by cluster id",
                        });
                    }
                    prev = Some(c);
                    member_accuracy.insert(c, get_accuracy(d, "member accuracy")?);
                }
                let n = d.get_len(8, "top-up accuracies")?;
                let mut extras = Vec::with_capacity(n);
                for _ in 0..n {
                    extras.push(get_accuracy(d, "top-up accuracy")?);
                }
                let pps = GrowablePps::restore_from(d)?;
                let max_gross_weight = d.get_u64("max gross weight")?;
                for &c in member_accuracy.keys() {
                    if (c as usize) >= pps.len() {
                        return Err(CodecError::Invalid {
                            what: "reservoir member outside the PPS frame",
                        });
                    }
                }
                Ok(MonitorState::Reservoir(ReservoirState {
                    reservoir,
                    member_accuracy,
                    extras,
                    pps,
                    max_gross_weight,
                }))
            }
            TAG_STRATIFIED => {
                let next_cluster_id = d.get_u32("next cluster id")?;
                let n = d.get_len(17, "strata")?;
                if n == 0 {
                    return Err(CodecError::Invalid {
                        what: "stratified state requires at least the base stratum",
                    });
                }
                let mut strata = Vec::with_capacity(n);
                let mut expect_first = 0u32;
                for i in 0..n {
                    let first_cluster = d.get_u32("stratum first cluster")?;
                    let num_clusters = d.get_u32("stratum cluster count")?;
                    let triples = d.get_u64("stratum triples")?;
                    if first_cluster != expect_first {
                        return Err(CodecError::Invalid {
                            what: "strata must partition the cluster id space contiguously",
                        });
                    }
                    expect_first =
                        expect_first
                            .checked_add(num_clusters)
                            .ok_or(CodecError::Invalid {
                                what: "stratum cluster ids overflow u32",
                            })?;
                    let state = match d.get_u8("stratum state tag")? {
                        TAG_FROZEN => StratumState::Frozen(get_estimate(d)?),
                        TAG_LIVE => {
                            if i + 1 != n {
                                return Err(CodecError::Invalid {
                                    what: "only the last stratum may be live",
                                });
                            }
                            let pps = GrowablePps::restore_from(d)?;
                            if pps.len() != num_clusters as usize {
                                return Err(CodecError::Invalid {
                                    what: "live stratum frame must cover its clusters",
                                });
                            }
                            let accs = RunningMoments::restore_from(d)?;
                            StratumState::Live { pps, accs }
                        }
                        _ => {
                            return Err(CodecError::Invalid {
                                what: "stratum state tag must be 0 or 1",
                            })
                        }
                    };
                    strata.push(StratumEval {
                        first_cluster,
                        num_clusters,
                        triples,
                        state,
                    });
                }
                if expect_first != next_cluster_id {
                    return Err(CodecError::Invalid {
                        what: "next cluster id must follow the last stratum",
                    });
                }
                Ok(MonitorState::Stratified(StratifiedState {
                    strata,
                    next_cluster_id,
                }))
            }
            _ => Err(CodecError::Invalid {
                what: "monitor state tag must be 0 (reservoir) or 1 (stratified)",
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EvalConfig;
    use crate::dynamic::reservoir::ReservoirEvaluator;
    use crate::dynamic::stratified::StratifiedIncremental;
    use crate::dynamic::IncrementalEvaluator;
    use kg_annotate::annotator::SimulatedAnnotator;
    use kg_annotate::cost::CostModel;
    use kg_annotate::oracle::RemOracle;
    use kg_model::implicit::ImplicitKg;
    use kg_model::update::UpdateBatch;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rs_state() -> MonitorState {
        let base = ImplicitKg::new((0..600).map(|i| 1 + (i % 9)).collect()).unwrap();
        let oracle = RemOracle::new(0.9, 3);
        let mut annotator = SimulatedAnnotator::new(&oracle, CostModel::default());
        let mut rng = StdRng::seed_from_u64(5);
        let mut rs = ReservoirEvaluator::evaluate_base(
            &base,
            40,
            5,
            EvalConfig::default(),
            &mut annotator,
            &mut rng,
        );
        let delta = UpdateBatch::from_sizes(vec![3; 80]).unwrap();
        rs.apply_update(&delta, &mut annotator, &mut rng);
        rs.into_state()
    }

    fn ss_state() -> MonitorState {
        let base = ImplicitKg::new(vec![4; 500]).unwrap();
        let oracle = RemOracle::new(0.9, 7);
        let mut annotator = SimulatedAnnotator::new(&oracle, CostModel::default());
        let mut rng = StdRng::seed_from_u64(9);
        let est = PointEstimate::new(0.9, 0.0004, 60).unwrap();
        let mut ss = StratifiedIncremental::from_base(&base, est, 5, EvalConfig::default());
        let delta = UpdateBatch::from_sizes(vec![4; 60]).unwrap();
        ss.apply_update(&delta, &mut annotator, &mut rng);
        ss.into_state()
    }

    #[test]
    fn monitor_state_round_trip_is_byte_stable() {
        for state in [rs_state(), ss_state()] {
            let bytes = state.snapshot();
            let restored = MonitorState::restore(&bytes).unwrap();
            assert_eq!(restored.snapshot(), bytes, "round-trip not byte-stable");
            // Every truncation is a typed error, never a panic.
            for cut in 0..bytes.len() {
                assert!(MonitorState::restore(&bytes[..cut]).is_err(), "cut {cut}");
            }
            let mut bad = bytes.clone();
            bad[4] = 0xEE;
            assert!(matches!(
                MonitorState::restore(&bad),
                Err(CodecError::UnsupportedVersion { .. })
            ));
            let mut bad = bytes.clone();
            bad[6] = 7; // monitor tag
            assert!(matches!(
                MonitorState::restore(&bad),
                Err(CodecError::Invalid { .. })
            ));
        }
    }

    #[test]
    fn restored_evaluator_estimates_identically() {
        let (a, b) = match (
            rs_state(),
            MonitorState::restore(&rs_state().snapshot()).unwrap(),
        ) {
            (MonitorState::Reservoir(a), MonitorState::Reservoir(b)) => (a, b),
            _ => panic!("reservoir state expected"),
        };
        let cfg = EvalConfig::default();
        let orig = ReservoirEvaluator::from_state(a, 5, cfg);
        let restored = ReservoirEvaluator::from_state(b, 5, cfg);
        let (ea, eb) = (orig.estimate(), restored.estimate());
        assert_eq!(ea.mean.to_bits(), eb.mean.to_bits());
        assert_eq!(ea.var_of_mean.to_bits(), eb.var_of_mean.to_bits());
        assert_eq!(ea.units, eb.units);
        assert_eq!(orig.saturated(), restored.saturated());
    }
}
