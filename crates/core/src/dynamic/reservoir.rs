//! Reservoir Incremental Evaluation (§6.1, Algorithm 1).
//!
//! A fixed-size weighted reservoir of entity clusters is maintained as the
//! KG grows: every insertion group `Δe` is offered with key
//! `Rand(0,1)^{1/|Δe|}` and replaces the reservoir's minimum-key member when
//! it wins. Only the (few) clusters that enter the reservoir need fresh
//! annotation; evicted clusters' annotations are retired. When the
//! post-update estimate misses the MoE target, extra weighted cluster draws
//! from the *current* KG state top the sample up, exactly as the paper
//! prescribes ("we again run Static Evaluation on G + Δ … iteratively
//! until MoE is no more than ε").
//!
//! All mutable state lives in [`ReservoirState`] (see
//! [`crate::dynamic::state`]): the evaluator is thin logic over it, so a
//! session can extract, checkpoint, and restore the state mid-stream with
//! byte-identical estimates thereafter.

use crate::config::EvalConfig;
use crate::dynamic::state::{MonitorState, ReservoirState};
use crate::dynamic::IncrementalEvaluator;
use kg_annotate::annotator::Annotator;
use kg_model::implicit::ImplicitKg;
use kg_model::retract::Retraction;
use kg_model::update::UpdateBatch;
use kg_sampling::twcs::annotate_cluster_subset;
use kg_stats::pps::GrowablePps;
use kg_stats::reservoir::{OfferOutcome, WeightedReservoirExpJ};
use kg_stats::{PointEstimate, RunningMoments};
use rand::RngCore;
use std::collections::{BTreeMap, BTreeSet};

/// Reservoir-based incremental evaluator (RS in §7.3).
///
/// Engine-agnostic: `apply_update` announces each batch to the annotator
/// via [`Annotator::extend_population`] before touching its delta-minted
/// ids, so the dense arena grows in lock-step and either engine drives the
/// evaluator identically. Per-batch skeleton work is **sublinear in |Δ|**:
/// the A-ExpJ reservoir binary-searches each jump's landing index over the
/// batch's cached weight prefix instead of subtract-and-compare per
/// cluster, and the [`GrowablePps`] top-up
/// frame *adopts* the same prefix as an `Arc`-shared segment in O(1) — no
/// weight is copied, nothing is rebuilt over the whole evolved KG, and the
/// per-cluster loop disappears from the hot path entirely.
pub struct ReservoirEvaluator {
    m: usize,
    config: EvalConfig,
    /// Every mutable field — extractable for checkpoint/restore.
    pub(crate) state: ReservoirState,
    /// Reusable second-stage offset buffer (pure scratch — not state).
    scratch: Vec<usize>,
}

impl ReservoirEvaluator {
    /// Initialize over the base KG: stream all base clusters through the
    /// reservoir, annotate its members, and top up to the MoE target.
    ///
    /// `capacity` is the reservoir size `|R|` (the paper sizes it like a
    /// static TWCS first-stage sample).
    pub fn evaluate_base(
        base: &ImplicitKg,
        capacity: usize,
        m: usize,
        config: EvalConfig,
        annotator: &mut dyn Annotator,
        rng: &mut dyn RngCore,
    ) -> Self {
        let mut reservoir = WeightedReservoirExpJ::new(capacity);
        let pps = GrowablePps::from_sizes(base.sizes()).expect("cluster sizes are positive");
        // The PPS frame's prefix sums double as the base stream's
        // cumulative weights: one binary search per acceptance replaces N
        // subtract-and-compare offers.
        reservoir.offer_batch(rng, pps.prefix(), |c| c as u32, |_, _, _| {});
        let mut this = ReservoirEvaluator {
            m,
            config,
            state: ReservoirState {
                reservoir,
                member_accuracy: BTreeMap::new(),
                extras: Vec::new(),
                pps,
                max_gross_weight: base.sizes().iter().copied().max().unwrap_or(0).into(),
            },
            scratch: Vec::with_capacity(m),
        };
        this.annotate_new_members(annotator, rng);
        this.top_up(annotator, rng);
        this
    }

    /// Rebuild an evaluator around restored [`ReservoirState`] — the
    /// checkpoint/restore path. `m` and `config` are spec, not state: the
    /// session record carries them alongside the state bytes.
    pub fn from_state(state: ReservoirState, m: usize, config: EvalConfig) -> Self {
        ReservoirEvaluator {
            m,
            config,
            state,
            scratch: Vec::with_capacity(m),
        }
    }

    /// Borrow the extractable state.
    pub fn state(&self) -> &ReservoirState {
        &self.state
    }

    /// Extract the state, consuming the evaluator.
    pub fn into_state(self) -> MonitorState {
        MonitorState::Reservoir(self.state)
    }

    /// Shift every *currently annotated* accuracy by `bias` (clamped to
    /// `[0, 1]`), emulating an unlucky initial sample whose estimate is off
    /// by `bias` — the Fig. 9-2/9-3 fault-tolerance scenario. Future
    /// annotations (update insertions, top-ups) are unaffected, so RS
    /// recovers as biased members are evicted and diluted, while the same
    /// bias frozen into a stratified evaluator's base estimate persists.
    pub fn inject_initial_bias(&mut self, bias: f64) {
        for acc in self.state.member_accuracy.values_mut() {
            *acc = (*acc + bias).clamp(0.0, 1.0);
        }
        for acc in &mut self.state.extras {
            *acc = (*acc + bias).clamp(0.0, 1.0);
        }
    }

    /// Number of reservoir replacement events so far (Proposition 3).
    pub fn replacements(&self) -> u64 {
        self.state.reservoir.replacements()
    }

    /// Reservoir capacity `|R|`.
    pub fn capacity(&self) -> usize {
        self.state.reservoir.capacity()
    }

    /// Current **live** triples in the evolved KG skeleton — insertions
    /// minus retractions.
    pub fn total_triples(&self) -> u64 {
        self.state.pps.total()
    }

    fn annotate_new_members(&mut self, annotator: &mut dyn Annotator, rng: &mut dyn RngCore) {
        let members: Vec<u32> = self.state.reservoir.iter().map(|k| k.item).collect();
        for c in members {
            if !self.state.member_accuracy.contains_key(&c) {
                let acc = annotate_cluster_subset(
                    c,
                    self.state.pps.weight(c as usize) as usize,
                    self.m,
                    rng,
                    annotator,
                    &mut self.scratch,
                );
                self.state.member_accuracy.insert(c, acc);
            }
        }
    }

    fn moments(&self) -> RunningMoments {
        self.state
            .member_accuracy
            .values()
            .copied()
            .chain(self.state.extras.iter().copied())
            .collect()
    }

    /// Draw additional PPS cluster samples from the current KG state until
    /// the MoE target and the CLT minimum are met.
    fn top_up(&mut self, annotator: &mut dyn Annotator, rng: &mut dyn RngCore) {
        loop {
            let est = self.estimate();
            let n = self.state.member_accuracy.len() + self.state.extras.len();
            let moe = est.moe(self.config.alpha).expect("valid alpha");
            if n >= self.config.min_units && moe <= self.config.target_moe {
                break;
            }
            if n >= self.config.max_units {
                break;
            }
            assert!(!self.state.pps.is_empty(), "non-empty evolved KG");
            for _ in 0..self.config.batch_size {
                let c = self.state.pps.sample(rng) as u32;
                let acc = annotate_cluster_subset(
                    c,
                    self.state.pps.weight(c as usize) as usize,
                    self.m,
                    rng,
                    annotator,
                    &mut self.scratch,
                );
                self.state.extras.push(acc);
            }
        }
    }
}

impl IncrementalEvaluator for ReservoirEvaluator {
    fn apply_update(
        &mut self,
        delta: &UpdateBatch,
        annotator: &mut dyn Annotator,
        rng: &mut dyn RngCore,
    ) -> PointEstimate {
        // Announce the batch before annotating any of its fresh ids, so a
        // materialized engine can grow its label state (no-op for the hash
        // engine, and for replays over a pre-evolved store).
        annotator.extend_population(self.state.pps.len() as u32, delta);
        // Stale after growth: extras were drawn from the previous frame.
        self.state.extras.clear();
        let batch_max = delta.delta_sizes().iter().copied().max().unwrap_or(0);
        self.state.max_gross_weight = self.state.max_gross_weight.max(batch_max.into());
        // O(1) skeleton growth: the batch's cached weight prefix is adopted
        // as a shared PPS segment (no weight copied), then one binary search
        // per reservoir acceptance replaces the offer call per Δe cluster.
        // Annotation draws interleave with the offer stream through the
        // callback — evict, then annotate the newcomer, before the next
        // jump — the RNG order of Algorithm 1's one-offer-per-Δe loop,
        // which the `offer_identity` fixtures pin.
        let first = self.state.pps.len() as u32;
        self.state
            .pps
            .extend_shared(delta.weight_prefix_shared())
            .expect("Δe groups are non-empty");
        let m = self.m;
        let ReservoirState {
            reservoir,
            member_accuracy,
            ..
        } = &mut self.state;
        let scratch = &mut self.scratch;
        let delta_sizes = delta.delta_sizes();
        reservoir.offer_batch(
            rng,
            delta.weight_prefix(),
            |i| first + i as u32,
            |rng, i, outcome| {
                if let OfferOutcome::Replaced(evicted) = &outcome {
                    member_accuracy.remove(&evicted.item);
                }
                let acc = annotate_cluster_subset(
                    first + i as u32,
                    delta_sizes[i] as usize,
                    m,
                    rng,
                    &mut *annotator,
                    scratch,
                );
                member_accuracy.insert(first + i as u32, acc);
            },
        );
        self.top_up(annotator, rng);
        self.estimate()
    }

    fn apply_retraction(
        &mut self,
        retraction: &Retraction,
        annotator: &mut dyn Annotator,
        rng: &mut dyn RngCore,
    ) -> PointEstimate {
        // Tombstone the annotator's view first: every re-annotation below
        // must address the post-retraction live coordinate space.
        annotator.retract(retraction);
        // Decrement the skeleton's weights — the PPS overlay keeps the
        // Arc-shared segments intact and compacts only when dead weight
        // crosses its threshold. Entries are sorted by cluster, so this
        // walk (and everything derived from it) is deterministic.
        let mut fully_dead: BTreeSet<u32> = BTreeSet::new();
        for (cluster, offsets) in retraction.entries() {
            self.state
                .pps
                .decrement(*cluster as usize, offsets.len() as u64)
                .expect("retraction addresses live triples of known clusters");
            if self.state.pps.weight(*cluster as usize) == 0 {
                fully_dead.insert(*cluster);
            }
        }
        // Evict fully-dead reservoir members: their cluster no longer
        // exists in the live KG, so their annotations are retired (the
        // cost stays sunk) and the reservoir re-enters fill mode if it
        // dropped below capacity.
        if !fully_dead.is_empty() {
            self.state.reservoir.retain(|c| !fully_dead.contains(c));
            for c in &fully_dead {
                self.state.member_accuracy.remove(c);
            }
        }
        // Partially-dead members keep their seat (their survival keys are
        // still valid for the reduced weight, conditional on having won)
        // but their second-stage accuracy was sampled from a frame that
        // included now-dead triples — re-annotate over the live remainder.
        for (cluster, _) in retraction.entries() {
            if fully_dead.contains(cluster) || !self.state.member_accuracy.contains_key(cluster) {
                continue;
            }
            let acc = annotate_cluster_subset(
                *cluster,
                self.state.pps.weight(*cluster as usize) as usize,
                self.m,
                rng,
                annotator,
                &mut self.scratch,
            );
            self.state.member_accuracy.insert(*cluster, acc);
        }
        // Extras were drawn from the pre-retraction frame — stale now.
        self.state.extras.clear();
        if self.state.pps.total() > 0 {
            self.top_up(annotator, rng);
        }
        self.estimate()
    }

    fn estimate(&self) -> PointEstimate {
        let moments = self.moments();
        let n = moments.count() as usize;
        if n == 0 {
            return PointEstimate::uninformative();
        }
        PointEstimate::new(
            moments.mean(),
            kg_sampling::twcs::floored_variance_of_mean(&moments, self.m),
            n,
        )
        .expect("plug-in variance is non-negative")
    }

    fn saturated(&self) -> bool {
        self.state.saturated()
    }

    fn name(&self) -> &'static str {
        "RS"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kg_annotate::annotator::SimulatedAnnotator;
    use kg_annotate::cost::CostModel;
    use kg_annotate::oracle::{true_accuracy, RemOracle};
    use kg_model::implicit::ClusterPopulation;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn base_kg() -> ImplicitKg {
        ImplicitKg::new((0..2000).map(|i| 1 + (i % 10)).collect()).unwrap()
    }

    #[test]
    fn base_evaluation_meets_moe() {
        let base = base_kg();
        let oracle = RemOracle::new(0.9, 1);
        let mut annotator = SimulatedAnnotator::new(&oracle, CostModel::default());
        let mut rng = StdRng::seed_from_u64(1);
        let eval = ReservoirEvaluator::evaluate_base(
            &base,
            60,
            5,
            EvalConfig::default(),
            &mut annotator,
            &mut rng,
        );
        let est = eval.estimate();
        assert!(est.moe(0.05).unwrap() <= 0.05);
        let truth = true_accuracy(&base, &oracle);
        assert!((est.mean - truth).abs() < 0.08);
        assert_eq!(eval.capacity(), 60);
    }

    #[test]
    fn update_annotation_is_incremental() {
        let base = base_kg();
        let oracle = RemOracle::new(0.9, 2);
        let mut annotator = SimulatedAnnotator::new(&oracle, CostModel::default());
        let mut rng = StdRng::seed_from_u64(2);
        let mut eval = ReservoirEvaluator::evaluate_base(
            &base,
            60,
            5,
            EvalConfig::default(),
            &mut annotator,
            &mut rng,
        );
        let cost_before = annotator.seconds();
        // Small update (~5% of base): incremental cost should be far below
        // the base evaluation cost.
        let delta = UpdateBatch::from_sizes(vec![5; 100]).unwrap();
        let est = eval.apply_update(&delta, &mut annotator, &mut rng);
        let cost_delta = annotator.seconds() - cost_before;
        assert!(est.moe(0.05).unwrap() <= 0.05);
        assert!(
            cost_delta < cost_before * 0.5,
            "incremental {cost_delta} vs base {cost_before}"
        );
        assert_eq!(eval.total_triples(), base.total_triples() + 500);
    }

    #[test]
    fn replacement_count_bounded_by_proposition_3() {
        let base = base_kg();
        let oracle = RemOracle::new(0.9, 3);
        let mut annotator = SimulatedAnnotator::new(&oracle, CostModel::default());
        let mut rng = StdRng::seed_from_u64(3);
        let mut eval = ReservoirEvaluator::evaluate_base(
            &base,
            50,
            5,
            EvalConfig::default(),
            &mut annotator,
            &mut rng,
        );
        let after_base = eval.replacements();
        // Double the cluster count: E[new replacements] ≈ |R|·ln 2 ≈ 35.
        let delta = UpdateBatch::from_sizes(vec![5; 2000]).unwrap();
        eval.apply_update(&delta, &mut annotator, &mut rng);
        let growth = eval.replacements() - after_base;
        // Generous bound: 3× the expectation.
        assert!(
            growth < 3 * 50,
            "replacements grew by {growth}, expected ≈ 50·ln2 ≈ 35"
        );
    }

    #[test]
    fn retraction_evicts_dead_members_and_shrinks_the_frame() {
        use kg_model::retract::Retraction;

        let base = base_kg();
        let oracle = RemOracle::new(0.9, 11);
        let mut annotator = SimulatedAnnotator::new(&oracle, CostModel::default());
        let mut rng = StdRng::seed_from_u64(7);
        let mut eval = ReservoirEvaluator::evaluate_base(
            &base,
            60,
            5,
            EvalConfig::default(),
            &mut annotator,
            &mut rng,
        );
        let live_before = eval.total_triples();
        // Fully retract one reservoir member and partially retract another.
        let members: Vec<u32> = {
            let mut m: Vec<u32> = eval.state.member_accuracy.keys().copied().collect();
            m.sort_unstable();
            m
        };
        let full = members[0];
        let partial = *members
            .iter()
            .find(|&&c| eval.state.pps.weight(c as usize) >= 2 && c != full)
            .expect("some member has ≥ 2 triples");
        let full_size = eval.state.pps.weight(full as usize) as u32;
        let r =
            Retraction::new(vec![(full, (0..full_size).collect()), (partial, vec![0])]).unwrap();
        let est = eval.apply_retraction(&r, &mut annotator, &mut rng);
        assert_eq!(eval.total_triples(), live_before - u64::from(full_size) - 1);
        // The fully-dead cluster left the reservoir and the sample; the
        // partially-dead one kept its seat with a refreshed accuracy.
        assert!(!eval.state.member_accuracy.contains_key(&full));
        assert!(eval.state.member_accuracy.contains_key(&partial));
        assert_eq!(eval.state.pps.weight(full as usize), 0);
        assert!(est.moe(0.05).unwrap() <= 0.05);
        // Later updates still work over the decremented frame.
        let delta = UpdateBatch::from_sizes(vec![5; 50]).unwrap();
        let est = eval.apply_update(&delta, &mut annotator, &mut rng);
        assert!(est.moe(0.05).unwrap() <= 0.05);
    }

    #[test]
    fn estimate_tracks_changed_accuracy() {
        // Base at 90%, then a large bad update (accuracy 0%) drags overall
        // accuracy down; RS should follow.
        use kg_annotate::piecewise::PiecewiseOracle;
        let base = ImplicitKg::new(vec![4; 1000]).unwrap(); // 4000 triples
        let mut oracle = PiecewiseOracle::new(Box::new(RemOracle::new(0.9, 4)));
        oracle.push_segment(1000, Box::new(RemOracle::new(0.0, 5)));
        let mut annotator = SimulatedAnnotator::new(&oracle, CostModel::default());
        let mut rng = StdRng::seed_from_u64(4);
        let mut eval = ReservoirEvaluator::evaluate_base(
            &base,
            60,
            5,
            EvalConfig::default(),
            &mut annotator,
            &mut rng,
        );
        // Update: 4000 more triples, all wrong → overall ≈ 45%.
        let delta = UpdateBatch::from_sizes(vec![4; 1000]).unwrap();
        let est = eval.apply_update(&delta, &mut annotator, &mut rng);
        assert!(
            (est.mean - 0.45).abs() < 0.08,
            "estimate {} should approach 0.45",
            est.mean
        );
    }

    #[test]
    fn saturation_flag_fires_when_a_cluster_overflows_its_inclusion_probability() {
        // The PR 8 drift-family repro in miniature: a modest base whose
        // largest cluster is far below K·w/W = 1, then one giant update
        // cluster (the movie-profile cap) that saturates it.
        let base = ImplicitKg::new((0..600).map(|i| 1 + (i % 12)).collect()).unwrap();
        let oracle = RemOracle::new(0.9, 21);
        let mut annotator = SimulatedAnnotator::new(&oracle, CostModel::default());
        let mut rng = StdRng::seed_from_u64(31);
        let mut eval = ReservoirEvaluator::evaluate_base(
            &base,
            60,
            5,
            EvalConfig::default(),
            &mut annotator,
            &mut rng,
        );
        assert!(
            !eval.saturated(),
            "base max weight 12 at K=60 over {} triples must not saturate",
            eval.total_triples()
        );
        let delta = UpdateBatch::from_sizes(vec![4000]).unwrap();
        eval.apply_update(&delta, &mut annotator, &mut rng);
        assert!(
            eval.saturated(),
            "a 4000-triple cluster at K=60 over {} live triples saturates K·w/W",
            eval.total_triples()
        );
        // Conservative under churn: the flag stays up even after the giant
        // cluster is fully retracted, because the biased draws already
        // happened.
        use kg_model::retract::Retraction;
        let giant = 600u32;
        let r = Retraction::new(vec![(giant, (0..4000).collect())]).unwrap();
        eval.apply_retraction(&r, &mut annotator, &mut rng);
        assert!(eval.saturated(), "saturation is monotone under retraction");
    }
}
