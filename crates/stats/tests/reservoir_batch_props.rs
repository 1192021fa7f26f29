//! Property suite: `WeightedReservoirExpJ::offer_batch` is **bitwise
//! stream-identical** to the per-item `offer` loop — same reservoir
//! members and keys, same eviction sequence, same `offered()` /
//! `replacements()` accounting, and the same RNG stream position — over
//! randomized integer weight streams, capacities (including capacity
//! exceeding the stream), and arbitrary batch partitions.
//!
//! Both replays drive a member model the way the §6 RS evaluator does:
//! each acceptance first retires the evicted item, then "annotates" the
//! newcomer by consuming RNG words from the same stream the reservoir
//! draws from (`annotate` below stands in for the second-stage sample).
//! The per-item loop does this right after each accepting `offer`; the
//! batched path inside `on_accept`. So the property also pins where the
//! callback's draws interleave with the jump draws — the contract the
//! evaluator relies on, stated without any KG machinery.

use kg_stats::reservoir::{OfferOutcome, WeightedReservoirExpJ};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::collections::BTreeMap;

/// Accept/evict event: `(stream_index, evicted_item_and_key_bits)`.
type Event = (u32, Option<(u32, u64)>);
/// Item → digest of the RNG words its annotation consumed.
type Members = BTreeMap<u32, u64>;
/// A replay's observables: final reservoir, event log, member model, next
/// RNG word.
type Replay = (WeightedReservoirExpJ<u32>, Vec<Event>, Members, u64);

/// Apply one acceptance to the member model: retire the evicted item
/// (which must be a member), then draw `1 + weight % 5` RNG words for the
/// newcomer — a weight-dependent count, like a second-stage sample of
/// `min(m, |Δe|)` triples.
fn accept(
    rng: &mut dyn RngCore,
    members: &mut Members,
    events: &mut Vec<Event>,
    item: u32,
    weight: u32,
    outcome: OfferOutcome<u32>,
) {
    match outcome {
        OfferOutcome::Inserted => events.push((item, None)),
        OfferOutcome::Replaced(e) => {
            assert!(members.remove(&e.item).is_some(), "evicted a non-member");
            events.push((item, Some((e.item, e.key.to_bits()))));
        }
        OfferOutcome::Rejected => unreachable!("rejections are not acceptances"),
    }
    let digest = (0..1 + weight % 5).fold(0u64, |d, _| d.rotate_left(7) ^ rng.next_u64());
    members.insert(item, digest);
}

/// Replay `weights` through a per-item loop, annotating after each
/// accepting offer.
fn replay_per_item(weights: &[u32], capacity: usize, seed: u64) -> Replay {
    replay(weights, capacity, seed, &[], false, 0)
}

/// Replay the same stream through `offer_batch`, split at `batch_lens`.
fn replay_batched(weights: &[u32], capacity: usize, seed: u64, batch_lens: &[usize]) -> Replay {
    replay(weights, capacity, seed, batch_lens, true, 0)
}

/// Replay `weights` split at `batch_lens` (the remainder is one batch),
/// through `offer_batch` when `batched`, else through the per-item loop.
/// With `kill_every > 0`, every batch is followed by a retraction of the
/// members whose item is a multiple of `kill_every` — the RS evaluator's
/// eviction of fully-dead clusters, which resets the pending jump — and
/// the member model drops them too.
fn replay(
    weights: &[u32],
    capacity: usize,
    seed: u64,
    batch_lens: &[usize],
    batched: bool,
    kill_every: u32,
) -> Replay {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut r = WeightedReservoirExpJ::new(capacity);
    let mut events = Vec::new();
    let mut members = Members::new();
    let mut start = 0usize;
    let mut lens = batch_lens
        .iter()
        .copied()
        .chain(std::iter::repeat(weights.len()));
    while start < weights.len() {
        let end = (start + lens.next().expect("endless")).min(weights.len());
        if end == start {
            continue;
        }
        if batched {
            let mut prefix = Vec::with_capacity(end - start + 1);
            let mut acc = 0u64;
            prefix.push(0);
            for &w in &weights[start..end] {
                acc += w as u64;
                prefix.push(acc);
            }
            r.offer_batch(
                &mut rng,
                &prefix,
                |i| (start + i) as u32,
                |rng, i, outcome| {
                    let (item, w) = ((start + i) as u32, weights[start + i]);
                    accept(rng, &mut members, &mut events, item, w, outcome);
                },
            );
        } else {
            for (i, &w) in weights.iter().enumerate().take(end).skip(start) {
                match r.offer(&mut rng, i as u32, w as f64) {
                    OfferOutcome::Rejected => {}
                    outcome => accept(&mut rng, &mut members, &mut events, i as u32, w, outcome),
                }
            }
        }
        if kill_every > 0 {
            for dead in r.retain(|&item| !item.is_multiple_of(kill_every)) {
                assert!(
                    members.remove(&dead.item).is_some(),
                    "retracted a non-member"
                );
            }
        }
        start = end;
    }
    (r, events, members, rng.next_u64())
}

fn sorted_members(r: &WeightedReservoirExpJ<u32>) -> Vec<(u32, u64)> {
    let mut v: Vec<(u32, u64)> = r.iter().map(|k| (k.item, k.key.to_bits())).collect();
    v.sort_unstable();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(80))]

    /// The batched offer path must be indistinguishable from the per-item
    /// loop in every observable — annotation draws interleaved after each
    /// acceptance included — for any partition of the stream into batches
    /// (zero-length batches allowed — they are no-ops).
    #[test]
    fn offer_batch_is_bitwise_identical_to_per_item(
        weights in prop::collection::vec(1u32..5_000, 0..400),
        capacity in 1usize..48,
        batch_lens in prop::collection::vec(0usize..90, 1..12),
        seed in any::<u64>(),
    ) {
        let (r_a, ev_a, m_a, rng_a) = replay_per_item(&weights, capacity, seed);
        let (r_b, ev_b, m_b, rng_b) = replay_batched(&weights, capacity, seed, &batch_lens);
        prop_assert_eq!(&ev_a, &ev_b, "accept/evict sequences diverged");
        prop_assert_eq!(sorted_members(&r_a), sorted_members(&r_b), "members diverged");
        prop_assert_eq!(&m_a, &m_b, "annotated member models diverged");
        let in_reservoir: Vec<u32> = sorted_members(&r_a).iter().map(|&(item, _)| item).collect();
        let annotated: Vec<u32> = m_a.keys().copied().collect();
        prop_assert_eq!(in_reservoir, annotated, "member model out of step with the reservoir");
        prop_assert_eq!(r_a.offered(), r_b.offered(), "offered() diverged");
        prop_assert_eq!(r_a.replacements(), r_b.replacements());
        prop_assert_eq!(r_a.len(), r_b.len());
        prop_assert_eq!(rng_a, rng_b, "RNG stream positions diverged");
    }

    /// Capacity at or above the stream length: everything is inserted in
    /// order by both paths and the reservoir never evicts.
    #[test]
    fn capacity_exceeding_stream_inserts_everything(
        weights in prop::collection::vec(1u32..1_000, 1..60),
        extra in 0usize..20,
        seed in any::<u64>(),
    ) {
        let capacity = weights.len() + extra;
        let (r_a, ev_a, m_a, rng_a) = replay_per_item(&weights, capacity, seed);
        let (r_b, ev_b, m_b, rng_b) = replay_batched(&weights, capacity, seed, &[7, 1, 30]);
        prop_assert_eq!(r_a.len(), weights.len());
        prop_assert_eq!(r_b.len(), weights.len());
        prop_assert_eq!(r_a.replacements(), 0);
        prop_assert_eq!(ev_a.len(), weights.len(), "every item inserted, none evicted");
        prop_assert_eq!(&ev_a, &ev_b);
        prop_assert_eq!(sorted_members(&r_a), sorted_members(&r_b));
        prop_assert_eq!(m_a.len(), weights.len());
        prop_assert_eq!(&m_a, &m_b);
        prop_assert_eq!(r_a.offered(), weights.len() as u64);
        prop_assert_eq!(r_b.offered(), weights.len() as u64);
        prop_assert_eq!(rng_a, rng_b);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(60))]

    /// Retractions between batches (fully-dead members leave the
    /// reservoir, which drops back into fill mode and redraws its jump)
    /// keep the two paths in lockstep — the churn half of the RS
    /// evaluator's contract.
    #[test]
    fn offer_batch_matches_per_item_across_retractions(
        weights in prop::collection::vec(1u32..5_000, 0..400),
        capacity in 1usize..48,
        batch_lens in prop::collection::vec(1usize..90, 1..12),
        kill_every in 2u32..7,
        seed in any::<u64>(),
    ) {
        let (r_a, ev_a, m_a, rng_a) =
            replay(&weights, capacity, seed, &batch_lens, false, kill_every);
        let (r_b, ev_b, m_b, rng_b) =
            replay(&weights, capacity, seed, &batch_lens, true, kill_every);
        prop_assert_eq!(&ev_a, &ev_b, "accept/evict sequences diverged");
        prop_assert_eq!(sorted_members(&r_a), sorted_members(&r_b), "members diverged");
        prop_assert_eq!(&m_a, &m_b, "annotated member models diverged");
        prop_assert_eq!(r_a.offered(), r_b.offered());
        prop_assert_eq!(r_a.replacements(), r_b.replacements());
        prop_assert_eq!(rng_a, rng_b, "RNG stream positions diverged");
    }
}

/// Zero weights are rejected identically: the per-item path asserts on the
/// weight, the batched path asserts on the (therefore non-increasing)
/// prefix — both with the "positive" weight contract in the message.
#[test]
#[should_panic(expected = "positive")]
fn per_item_rejects_zero_weight() {
    let mut rng = StdRng::seed_from_u64(1);
    let mut r = WeightedReservoirExpJ::new(2);
    r.offer(&mut rng, 0u32, 0.0);
}

#[test]
#[should_panic(expected = "positive")]
fn offer_batch_rejects_zero_weight() {
    let mut rng = StdRng::seed_from_u64(1);
    let mut r = WeightedReservoirExpJ::new(2);
    // Item 1 has weight prefix[2] - prefix[1] == 0.
    r.offer_batch(&mut rng, &[0, 4, 4, 9], |i| i as u32, |_, _, _| {});
}
