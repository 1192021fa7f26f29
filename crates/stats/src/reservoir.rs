//! Weighted reservoir sampling over (possibly unbounded) streams.
//!
//! * [`WeightedReservoir`] — Efraimidis & Spirakis' Algorithm A-Res
//!   (*Weighted random sampling with a reservoir*, IPL 2006, the paper's
//!   reference \[14\]): each item receives the key `k = u^{1/w}` with
//!   `u ~ U(0,1)`; the reservoir keeps the `n` largest keys. This is exactly
//!   the primitive used by the paper's Algorithm 1 (Reservoir-based
//!   Incremental Sample Update on Evolving KG), where an insertion batch
//!   `Δe` gets key `rand(0,1)^{1/|Δe|}` and replaces the reservoir's minimum
//!   key if larger.
//! * [`WeightedReservoirExpJ`] — the same sampler with exponential jumps
//!   (A-ExpJ), plus [`WeightedReservoirExpJ::offer_batch`] over a
//!   cumulative-weight slice: the one offer path of the §6 RS evaluator.
//!
//! The expected number of reservoir replacements over a stream growing from
//! `N_i` to `N_j` items is `O(|R| · log(N_j/N_i))` (paper Proposition 3);
//! [`WeightedReservoir::replacements`] lets callers verify and bound the
//! incremental re-annotation cost.

use crate::codec::{CodecError, Decoder, Encoder};
use rand::Rng;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A reservoir slot: an item plus its A-Res key.
#[derive(Debug, Clone)]
pub struct Keyed<T> {
    /// The sampled item.
    pub item: T,
    /// Its A-Res key `u^{1/w}` in `(0, 1)`.
    pub key: f64,
}

/// Min-heap wrapper: order by key ascending so the heap root is the smallest
/// key (the replacement candidate).
#[derive(Debug, Clone)]
struct MinKey<T>(Keyed<T>);

impl<T> PartialEq for MinKey<T> {
    fn eq(&self, other: &Self) -> bool {
        self.0.key == other.0.key
    }
}
impl<T> Eq for MinKey<T> {}
impl<T> PartialOrd for MinKey<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for MinKey<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap; we want the min key on top.
        // Keys are finite floats in (0,1]; total order via partial_cmp is
        // safe because we never store NaN.
        other
            .0
            .key
            .partial_cmp(&self.0.key)
            .expect("reservoir keys are never NaN")
    }
}

/// Weighted reservoir (Efraimidis–Spirakis A-Res) of fixed capacity `n`.
///
/// Holding clusters with weight = cluster size, the reservoir is a weighted
/// random sample usable as the first stage of TWCS on an evolving KG.
#[derive(Debug, Clone)]
pub struct WeightedReservoir<T> {
    capacity: usize,
    heap: BinaryHeap<MinKey<T>>,
    replacements: u64,
    offered: u64,
}

impl<T> WeightedReservoir<T> {
    /// New weighted reservoir with the given capacity. Panics on zero
    /// capacity.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "reservoir capacity must be positive");
        WeightedReservoir {
            capacity,
            heap: BinaryHeap::with_capacity(capacity + 1),
            replacements: 0,
            offered: 0,
        }
    }

    /// Offer an item with positive weight. The [`OfferOutcome`] says
    /// whether the reservoir had room ([`OfferOutcome::Inserted`]), the
    /// item displaced the minimum-key member, which it returns so the
    /// caller can retire its annotations ([`OfferOutcome::Replaced`]), or
    /// the item was rejected ([`OfferOutcome::Rejected`]);
    /// [`OfferOutcome::accepted`] folds the first two.
    pub fn offer<R: Rng + ?Sized>(&mut self, rng: &mut R, item: T, weight: f64) -> OfferOutcome<T> {
        assert!(
            weight > 0.0 && weight.is_finite(),
            "reservoir weights must be positive and finite (got {weight})"
        );
        self.offered += 1;
        // u ∈ (0,1): rand's gen::<f64>() yields [0,1); clamp zero away so
        // key is never exactly 0 (which would always lose) nor NaN. A
        // clamp, not a redraw loop: a degenerate RngCore returning zero
        // forever would hang a loop, while the clamp yields the smallest
        // positive key — the correct limit for a zero draw.
        let u = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        let key = u.powf(1.0 / weight);
        if self.heap.len() < self.capacity {
            self.heap.push(MinKey(Keyed { item, key }));
            return OfferOutcome::Inserted;
        }
        let min = self
            .heap
            .peek()
            .expect("non-empty reservoir at capacity")
            .0
            .key;
        if key > min {
            let evicted = self.heap.pop().expect("peeked above").0;
            self.heap.push(MinKey(Keyed { item, key }));
            self.replacements += 1;
            OfferOutcome::Replaced(evicted)
        } else {
            OfferOutcome::Rejected
        }
    }

    /// Current smallest key (the next replacement threshold), if full.
    pub fn min_key(&self) -> Option<f64> {
        self.heap.peek().map(|m| m.0.key)
    }

    /// Number of items currently held.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the reservoir holds no items.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Whether the reservoir reached capacity.
    pub fn is_full(&self) -> bool {
        self.heap.len() == self.capacity
    }

    /// Reservoir capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of replacement events since creation (Proposition 3 bound).
    pub fn replacements(&self) -> u64 {
        self.replacements
    }

    /// Total items offered.
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// Iterate over current members (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = &Keyed<T>> {
        self.heap.iter().map(|m| &m.0)
    }

    /// Drain the reservoir into a vector of keyed items (arbitrary order).
    pub fn into_items(self) -> Vec<Keyed<T>> {
        self.heap.into_iter().map(|m| m.0).collect()
    }

    /// Remove every member failing `keep`, returning the removed keyed
    /// items (arbitrary order). Used when stream items are *retracted*:
    /// a deleted cluster can no longer represent the population.
    ///
    /// Survivors keep their A-Res keys — conditional on surviving, each
    /// key is still a valid `u^(1/w)` variate, so the reservoir remains a
    /// weighted sample of the retained stream and future replacement
    /// behavior is untouched. The freed slots refill from subsequent
    /// offers exactly like the initial fill phase.
    pub fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) -> Vec<Keyed<T>> {
        let members = std::mem::take(&mut self.heap).into_vec();
        let mut removed = Vec::new();
        let mut kept = Vec::with_capacity(members.len());
        for m in members {
            if keep(&m.0.item) {
                kept.push(m);
            } else {
                removed.push(m.0);
            }
        }
        self.heap = BinaryHeap::from(kept);
        removed
    }

    /// Replace the minimum-key member with `(item, key)` unconditionally
    /// (A-ExpJ already conditioned the key to beat the threshold),
    /// returning the evicted member. Panics if the reservoir is not full.
    fn replace_min(&mut self, item: T, key: f64) -> Keyed<T> {
        assert!(self.is_full(), "replace_min requires a full reservoir");
        let evicted = self.heap.pop().expect("full reservoir").0;
        self.heap.push(MinKey(Keyed { item, key }));
        self.replacements += 1;
        self.offered += 1;
        evicted
    }
}

/// Weighted reservoir with **exponential jumps** (Efraimidis–Spirakis
/// Algorithm A-ExpJ): distributionally identical to [`WeightedReservoir`]
/// (A-Res) but skips over stream items without drawing a random number for
/// each — O(k·log(n/k)) RNG calls instead of O(n). For the 14.5M-cluster
/// MOVIE-FULL stream with a 60-slot reservoir that is ~900 variates
/// instead of 14.5M.
///
/// Skipped items never materialize (that is the whole point), but items
/// *evicted* from the reservoir do — [`WeightedReservoirExpJ::offer`]
/// reports the same [`OfferOutcome`] as A-Res, so the §6 incremental
/// evaluator can retire evicted annotations while paying O(1) per skipped
/// stream item instead of a `powf` + RNG draw for each.
///
/// [`WeightedReservoirExpJ::offer_batch`] goes one step further for
/// integer-weight streams: it binary-searches each jump's landing index
/// over a cumulative-weight slice, erasing even the O(1)-per-item
/// subtract-and-compare while staying bitwise stream-identical to the
/// per-item loop.
#[derive(Debug, Clone)]
pub struct WeightedReservoirExpJ<T> {
    inner: WeightedReservoir<T>,
    /// Remaining weight to skip before the next insertion; `None` until the
    /// reservoir fills.
    skip: Option<f64>,
}

/// Below 2^53, subtracting an integer weight from an f64 skip is exact
/// (the result is an integer multiple of the minuend's ulp ≤ 1), so the
/// batched binary search over integer prefix sums reproduces the per-item
/// subtraction chain bit-for-bit. At or above it, fall back per-item.
const EXACT_SKIP_LIMIT: f64 = (1u64 << 53) as f64;

/// Batch prefix spans must also stay exactly representable.
const EXACT_WEIGHT_LIMIT: u64 = 1 << 53;

impl<T> WeightedReservoirExpJ<T> {
    /// New A-ExpJ reservoir of the given capacity.
    pub fn new(capacity: usize) -> Self {
        WeightedReservoirExpJ {
            inner: WeightedReservoir::new(capacity),
            skip: None,
        }
    }

    fn draw_skip<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        let t_w = self.inner.min_key().expect("full reservoir");
        let r = rng.gen::<f64>();
        // X_w = ln(r) / ln(T_w): total incoming weight to skip. The ln(0)
        // edges are guarded instead of redrawn: `gen::<f64>()` covers
        // [0, 1), so `r == 0.0` is one draw in 2^53 — the old redraw loop
        // would hang forever on a degenerate RngCore that keeps returning
        // zero — and it is exactly the "skip the rest of the stream"
        // limit. `T_w == 1.0` (a conditioned key that rounded up to 1.0)
        // means no key in (0, 1] can ever beat the threshold, where
        // `ln(r)/ln(1.0)` would produce a wrong-signed infinity that
        // *accepts* every item. Both edges map to an infinite skip.
        self.skip = Some(if r > 0.0 && t_w < 1.0 {
            r.ln() / t_w.ln()
        } else {
            f64::INFINITY
        });
    }

    /// Offer one item with positive weight. The outcome mirrors A-Res:
    /// skipped items report [`OfferOutcome::Rejected`], jump-crossing items
    /// report the member they displaced.
    pub fn offer<R: Rng + ?Sized>(&mut self, rng: &mut R, item: T, weight: f64) -> OfferOutcome<T> {
        assert!(
            weight > 0.0 && weight.is_finite(),
            "reservoir weights must be positive and finite (got {weight})"
        );
        if !self.inner.is_full() {
            // Fill phase behaves exactly like A-Res.
            let outcome = self.inner.offer(rng, item, weight);
            if self.inner.is_full() {
                self.draw_skip(rng);
            }
            return outcome;
        }
        let skip = self.skip.as_mut().expect("set when reservoir filled");
        if *skip > weight {
            *skip -= weight;
            return OfferOutcome::Rejected;
        }
        let evicted = self.accept_jump(rng, item, weight);
        OfferOutcome::Replaced(evicted)
    }

    /// The jump-crossing insertion shared by [`Self::offer`] and
    /// [`Self::offer_batch`]: insert `item` with a key conditioned to beat
    /// the current threshold, `k ~ U(T_w^w, 1)^(1/w)`, then draw the next
    /// skip. Keeping this in one place is what makes the two offer paths
    /// bitwise identical by construction rather than by parallel
    /// maintenance.
    fn accept_jump<R: Rng + ?Sized>(&mut self, rng: &mut R, item: T, weight: f64) -> Keyed<T> {
        let t_w = self.inner.min_key().expect("full reservoir");
        let lo = t_w.powf(weight);
        let u = lo + rng.gen::<f64>() * (1.0 - lo);
        let key = u.powf(1.0 / weight);
        let evicted = self.inner.replace_min(item, key);
        self.draw_skip(rng);
        evicted
    }

    /// Offer a whole batch of integer-weight items, **bitwise
    /// stream-identical** to calling [`Self::offer`] once per item.
    ///
    /// `prefix` is the batch's cumulative-weight slice: item `i` has weight
    /// `prefix[i + 1] - prefix[i]` (so `prefix.len()` is the batch size
    /// plus one, and `prefix[0]` is an arbitrary base — batch prefixes
    /// start at 0, shared population prefixes at any offset). The weights
    /// must be positive, i.e. `prefix` strictly increasing, exactly as the
    /// per-item path asserts.
    ///
    /// Instead of one call per stream item, the skip phase binary-searches
    /// each exponential jump's landing index over `prefix` — O(a·log n)
    /// for `a` acceptances over `n` items, rather than O(n) subtract-and-
    /// compare iterations. Because the weights are integers and the prefix
    /// sums stay below 2^53, the per-item loop's sequential `skip -= w`
    /// subtractions are all exact, so the landing comparison
    /// `skip <= prefix[j+1] - prefix[i]` reproduces them bit-for-bit —
    /// same RNG draws, same insertions, same eviction order, same residual
    /// skip. The rare exactness gaps — a skip ≥ 2^53, or a batch whose
    /// total weight reaches 2^53 — automatically fall back to the per-item
    /// loop, keeping the identity unconditional.
    ///
    /// `item(i)` materializes the item at batch index `i` (only called for
    /// accepted items); `on_accept(rng, i, outcome)` fires for each
    /// accepted item in stream order, with the RNG handed back so callers
    /// can interleave their own draws exactly where the per-item loop
    /// would (annotating a freshly inserted cluster, say). Skipped items
    /// report nothing, just as they consume nothing.
    pub fn offer_batch<R, G, F>(
        &mut self,
        rng: &mut R,
        prefix: &[u64],
        mut item: G,
        mut on_accept: F,
    ) where
        R: Rng + ?Sized,
        G: FnMut(usize) -> T,
        F: FnMut(&mut R, usize, OfferOutcome<T>),
    {
        assert!(!prefix.is_empty(), "prefix must hold at least a base entry");
        let n = prefix.len() - 1;
        debug_assert!(
            prefix.windows(2).all(|w| w[0] < w[1]),
            "reservoir weights must be positive and finite (prefix strictly increasing)"
        );
        if prefix[n] - prefix[0] >= EXACT_WEIGHT_LIMIT {
            // A batch this heavy (≥ 2^53 total weight) can make the
            // integer-exactness argument fail for `(p - base) as f64`
            // itself, so the binary-search shortcut is off the table:
            // degrade to the per-item loop for the whole batch — the
            // identity's definition, just without the speedup.
            for i in 0..n {
                let w = (prefix[i + 1] - prefix[i]) as f64;
                match self.offer(rng, item(i), w) {
                    OfferOutcome::Rejected => {}
                    outcome => on_accept(rng, i, outcome),
                }
            }
            return;
        }
        let mut i = 0;
        // Fill phase: each insertion draws a key, so per-item is already
        // optimal (and is what keeps the RNG stream aligned).
        while i < n && !self.inner.is_full() {
            let w = (prefix[i + 1] - prefix[i]) as f64;
            let outcome = self.offer(rng, item(i), w);
            on_accept(rng, i, outcome);
            i += 1;
        }
        while i < n {
            let skip = *self.skip.as_ref().expect("full reservoir has a skip");
            if skip.is_infinite() {
                // ln(0)-edge skip: the per-item loop would subtract every
                // weight from ∞ and reject everything; ∞ - x == ∞, so the
                // residual is already correct.
                return;
            }
            if skip < EXACT_SKIP_LIMIT {
                let base = prefix[i];
                // Landing index: first j with skip <= prefix[j+1] - base,
                // the exact negation of the per-item skip test
                // `skip - (prefix[j] - base) > w_j`.
                let j = i + prefix[i + 1..].partition_point(|&p| ((p - base) as f64) < skip);
                if j == n {
                    // Whole remainder skipped: one exact subtraction equals
                    // the per-item subtraction chain.
                    *self.skip.as_mut().expect("checked above") = skip - (prefix[n] - base) as f64;
                    return;
                }
                let w = (prefix[j + 1] - prefix[j]) as f64;
                // Jump-crossing insertion — the same shared accept path
                // the per-item loop takes.
                let evicted = self.accept_jump(rng, item(j), w);
                on_accept(rng, j, OfferOutcome::Replaced(evicted));
                i = j + 1;
            } else {
                // Pathological finite skip (≥ 2^53): sequential f64
                // subtraction may round, so exactness of the binary-search
                // shortcut is no longer guaranteed — take the per-item
                // step, which is the identity's definition.
                let w = (prefix[i + 1] - prefix[i]) as f64;
                match self.offer(rng, item(i), w) {
                    OfferOutcome::Rejected => {}
                    outcome => on_accept(rng, i, outcome),
                }
                i += 1;
            }
        }
    }

    /// Items currently held, with their keys.
    pub fn iter(&self) -> impl Iterator<Item = &Keyed<T>> {
        self.inner.iter()
    }

    /// Number of items held.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether the reservoir holds no items.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Replacement events since creation.
    pub fn replacements(&self) -> u64 {
        self.inner.replacements()
    }

    /// Items that entered the reservoir (fill-phase insertions plus
    /// replacements). Skipped items are *not* counted — they never
    /// materialize, which is the algorithm's whole point — so this equals
    /// the inner A-Res reservoir's accounting, not the stream length.
    pub fn offered(&self) -> u64 {
        self.inner.offered()
    }

    /// Reservoir capacity.
    pub fn capacity(&self) -> usize {
        self.inner.capacity()
    }

    /// Remove every member failing `keep` (a retraction of stream items),
    /// returning the removed keyed items. See
    /// [`WeightedReservoir::retain`] for why survivors keep their keys.
    ///
    /// Any pending exponential jump is discarded when members are actually
    /// removed: the jump was drawn against a threshold `T_w` that may just
    /// have left the reservoir. With the reservoir below capacity the
    /// offer path re-enters the fill phase, and a fresh jump is drawn from
    /// the new threshold the moment it refills — the same deterministic
    /// sequence a reservoir that had never reached capacity would produce.
    pub fn retain(&mut self, keep: impl FnMut(&T) -> bool) -> Vec<Keyed<T>> {
        let removed = self.inner.retain(keep);
        if !removed.is_empty() {
            self.skip = None;
        }
        removed
    }
}

impl WeightedReservoirExpJ<u32> {
    /// Record magic for standalone snapshots.
    pub const MAGIC: [u8; 4] = *b"KGRV";
    /// Current snapshot format version.
    pub const VERSION: u16 = 1;

    /// Serialize into a standalone `KGRV` v1 record (see [`crate::codec`]).
    ///
    /// Members are written in the heap's internal vec order. Restoring
    /// re-heapifies that vec, and heapify (`sift_down` over an
    /// already-valid heap layout) performs zero swaps — so
    /// snapshot→restore→snapshot is byte-stable and the restored reservoir
    /// replays the exact pop/push order of the original.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut e = Encoder::with_header(Self::MAGIC, Self::VERSION);
        self.snapshot_into(&mut e);
        e.finish()
    }

    /// Restore from a standalone `KGRV` record. Typed error on corrupt,
    /// truncated, or unknown-version input — never a panic, even for
    /// hostile payloads (NaN keys would poison the heap's total order and
    /// are rejected up front).
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
        let r = Self::restore_from(&mut d)?;
        d.finish()?;
        Ok(r)
    }

    /// Append the headerless field payload (for embedding in composite
    /// records like `MonitorState`).
    pub fn snapshot_into(&self, e: &mut Encoder) {
        e.put_usize(self.inner.capacity);
        e.put_u64(self.inner.replacements);
        e.put_u64(self.inner.offered);
        e.put_usize(self.inner.heap.len());
        for m in self.inner.heap.iter() {
            e.put_u32(m.0.item);
            e.put_f64(m.0.key);
        }
        match self.skip {
            Some(s) => {
                e.put_u8(1);
                e.put_f64(s);
            }
            None => e.put_u8(0),
        }
    }

    /// Decode the headerless field payload written by
    /// [`Self::snapshot_into`].
    pub fn restore_from(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let capacity = d.get_usize("reservoir capacity")?;
        if capacity == 0 {
            return Err(CodecError::Invalid {
                what: "reservoir capacity must be positive",
            });
        }
        let replacements = d.get_u64("reservoir replacements")?;
        let offered = d.get_u64("reservoir offered")?;
        let len = d.get_len(12, "reservoir members")?;
        if len > capacity {
            return Err(CodecError::Invalid {
                what: "reservoir holds more members than its capacity",
            });
        }
        let mut members = Vec::with_capacity(len);
        for _ in 0..len {
            let item = d.get_u32("reservoir member item")?;
            let key = d.get_f64("reservoir member key")?;
            if !(key > 0.0 && key <= 1.0) {
                return Err(CodecError::Invalid {
                    what: "reservoir key must lie in (0, 1]",
                });
            }
            members.push(MinKey(Keyed { item, key }));
        }
        let skip = match d.get_u8("reservoir skip flag")? {
            0 => None,
            1 => {
                let s = d.get_f64("reservoir skip")?;
                if s.is_nan() || s <= 0.0 {
                    return Err(CodecError::Invalid {
                        what: "reservoir skip must be positive (or +inf)",
                    });
                }
                Some(s)
            }
            _ => {
                return Err(CodecError::Invalid {
                    what: "reservoir skip flag must be 0 or 1",
                })
            }
        };
        if skip.is_some() && len < capacity {
            return Err(CodecError::Invalid {
                what: "pending skip requires a full reservoir",
            });
        }
        // Heapify of an already-valid heap layout performs zero swaps, so
        // a faithful snapshot restores to the identical internal order; a
        // corrupted-but-decodable member list still heapifies into *some*
        // valid heap rather than panicking.
        let heap = BinaryHeap::from(members);
        Ok(WeightedReservoirExpJ {
            inner: WeightedReservoir {
                capacity,
                heap,
                replacements,
                offered,
            },
            skip,
        })
    }
}

/// Result of offering an item to a [`WeightedReservoir`].
#[derive(Debug, Clone)]
pub enum OfferOutcome<T> {
    /// Reservoir had spare capacity; item inserted.
    Inserted,
    /// Item displaced the previous minimum-key member (returned).
    Replaced(Keyed<T>),
    /// Item's key did not beat the minimum; reservoir unchanged.
    Rejected,
}

impl<T> OfferOutcome<T> {
    /// Whether the offered item ended up in the reservoir.
    pub fn accepted(&self) -> bool {
        !matches!(self, OfferOutcome::Rejected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    #[test]
    fn weighted_single_slot_inclusion_proportional_to_weight() {
        // With capacity 1 and weights {1, 3}, item 1 should win with
        // probability 3/4 = P(u2^(1/3) > u1).
        let mut rng = StdRng::seed_from_u64(13);
        let trials = 40_000;
        let mut wins = 0u32;
        for _ in 0..trials {
            let mut r = WeightedReservoir::new(1);
            r.offer(&mut rng, 0usize, 1.0);
            r.offer(&mut rng, 1usize, 3.0);
            if r.iter().next().unwrap().item == 1 {
                wins += 1;
            }
        }
        let freq = wins as f64 / trials as f64;
        assert!((freq - 0.75).abs() < 0.01, "freq {freq}");
    }

    #[test]
    fn weighted_fills_then_replaces() {
        let mut rng = StdRng::seed_from_u64(14);
        let mut r = WeightedReservoir::new(2);
        assert!(matches!(
            r.offer(&mut rng, 'a', 1.0),
            OfferOutcome::Inserted
        ));
        assert!(matches!(
            r.offer(&mut rng, 'b', 1.0),
            OfferOutcome::Inserted
        ));
        assert!(r.is_full());
        // A huge weight forces a key ~1, nearly always replacing.
        let mut replaced = false;
        for _ in 0..20 {
            if let OfferOutcome::Replaced(_) = r.offer(&mut rng, 'c', 1e12) {
                replaced = true;
                break;
            }
        }
        assert!(replaced);
        assert_eq!(r.len(), 2);
        assert!(r.replacements() >= 1);
    }

    #[test]
    fn min_key_is_really_the_minimum() {
        let mut rng = StdRng::seed_from_u64(15);
        let mut r = WeightedReservoir::new(5);
        for i in 0..50 {
            r.offer(&mut rng, i, 1.0 + (i % 7) as f64);
        }
        let min = r.min_key().unwrap();
        for k in r.iter() {
            assert!(k.key >= min);
        }
    }

    #[test]
    fn replacement_count_grows_logarithmically() {
        // Proposition 3: replacements ≈ |R| * ln(Nj/Ni) after the reservoir
        // is full. Stream 100k equal-weight items into capacity 50:
        // expected replacements ≈ 50 * ln(100000/50) ≈ 380.
        let mut rng = StdRng::seed_from_u64(16);
        let mut r = WeightedReservoir::new(50);
        for i in 0..100_000 {
            r.offer(&mut rng, i, 1.0);
        }
        let expect = 50.0 * (100_000.0_f64 / 50.0).ln();
        let got = r.replacements() as f64;
        assert!(
            (got - expect).abs() < expect * 0.25,
            "replacements {got} vs expected {expect}"
        );
    }

    #[test]
    fn weighted_inclusion_monotone_in_weight() {
        // Items with weight 5 should be included more often than weight 1.
        let mut rng = StdRng::seed_from_u64(17);
        let trials = 5_000;
        let mut heavy = 0u32;
        let mut light = 0u32;
        for _ in 0..trials {
            let mut r = WeightedReservoir::new(10);
            for i in 0..100usize {
                let w = if i < 50 { 5.0 } else { 1.0 };
                r.offer(&mut rng, i, w);
            }
            for k in r.iter() {
                if k.item < 50 {
                    heavy += 1;
                } else {
                    light += 1;
                }
            }
        }
        assert!(
            heavy as f64 > 2.5 * light as f64,
            "heavy {heavy} vs light {light}"
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_weight_is_rejected() {
        let mut rng = StdRng::seed_from_u64(18);
        let mut r = WeightedReservoir::new(1);
        r.offer(&mut rng, 0, 0.0);
    }

    #[test]
    fn expj_matches_ares_inclusion_probabilities() {
        // Heavy items (weight 5) vs light (weight 1): both algorithms must
        // include heavies at the same rate.
        let inclusion = |expj: bool, trials: u64| -> f64 {
            let mut rng = StdRng::seed_from_u64(31);
            let mut heavy_hits = 0u64;
            for _ in 0..trials {
                let heavies: Vec<usize> = if expj {
                    let mut r = WeightedReservoirExpJ::new(10);
                    for i in 0..200usize {
                        r.offer(&mut rng, i, if i % 4 == 0 { 5.0 } else { 1.0 });
                    }
                    r.iter().map(|k| k.item).filter(|&i| i % 4 == 0).collect()
                } else {
                    let mut r = WeightedReservoir::new(10);
                    for i in 0..200usize {
                        r.offer(&mut rng, i, if i % 4 == 0 { 5.0 } else { 1.0 });
                    }
                    r.iter().map(|k| k.item).filter(|&i| i % 4 == 0).collect()
                };
                heavy_hits += heavies.len() as u64;
            }
            heavy_hits as f64 / trials as f64
        };
        let trials = 3000;
        let a_res = inclusion(false, trials);
        let a_expj = inclusion(true, trials);
        assert!(
            (a_res - a_expj).abs() < 0.25,
            "A-Res {a_res} vs A-ExpJ {a_expj} heavy items per reservoir"
        );
    }

    #[test]
    fn expj_reports_evictions_like_ares() {
        let mut rng = StdRng::seed_from_u64(33);
        let mut r = WeightedReservoirExpJ::new(5);
        let mut members: std::collections::BTreeSet<u32> = (0..5).collect();
        for i in 0..5u32 {
            assert!(matches!(
                r.offer(&mut rng, i, 1.0 + i as f64),
                OfferOutcome::Inserted
            ));
        }
        let mut replaced = 0u64;
        for i in 5..5_000u32 {
            match r.offer(&mut rng, i, 1.0 + (i % 7) as f64) {
                OfferOutcome::Inserted => panic!("reservoir already full"),
                OfferOutcome::Replaced(evicted) => {
                    assert!(members.remove(&evicted.item), "evicted non-member");
                    members.insert(i);
                    replaced += 1;
                }
                OfferOutcome::Rejected => {}
            }
        }
        assert_eq!(replaced, r.replacements());
        assert_eq!(r.capacity(), 5);
        let held: std::collections::BTreeSet<u32> = r.iter().map(|k| k.item).collect();
        assert_eq!(held, members, "outcome bookkeeping tracks membership");
    }

    #[test]
    fn expj_uses_far_fewer_rng_draws_conceptually() {
        // Structural check: after a long equal-weight stream the skip value
        // is positive and the reservoir is full with valid keys.
        let mut rng = StdRng::seed_from_u64(32);
        let mut r = WeightedReservoirExpJ::new(20);
        for i in 0..50_000 {
            r.offer(&mut rng, i, 1.0);
        }
        assert_eq!(r.len(), 20);
        assert!(!r.is_empty());
        assert!(r.replacements() > 0);
        for k in r.iter() {
            assert!(k.key > 0.0 && k.key <= 1.0, "key {}", k.key);
        }
        // Replacement count should match A-Res's O(k·ln(n/k)) expectation.
        let expect = 20.0 * (50_000.0_f64 / 20.0).ln();
        let got = r.replacements() as f64;
        assert!(
            (got - expect).abs() < expect * 0.35,
            "replacements {got} vs expected {expect}"
        );
    }

    use crate::testrng::{word_for, ScriptedRng};

    #[test]
    fn forced_zero_rng_draw_skip_is_guarded_not_hung() {
        // Fill draws get real entropy; the post-fill skip draw gets a hard
        // zero. The old redraw loop would spin forever here; the guard maps
        // it to an infinite skip that rejects the rest of the stream.
        let mut rng = ScriptedRng::new(vec![word_for(0.5), word_for(0.25)]);
        let mut r = WeightedReservoirExpJ::new(2);
        assert!(matches!(
            r.offer(&mut rng, 'a', 3.0),
            OfferOutcome::Inserted
        ));
        assert!(matches!(
            r.offer(&mut rng, 'b', 5.0),
            OfferOutcome::Inserted
        ));
        // Reservoir filled → draw_skip consumed the zero word.
        for i in 0..10_000u32 {
            assert!(matches!(
                r.offer(&mut rng, 'c', 1.0 + (i % 9) as f64),
                OfferOutcome::Rejected
            ));
        }
        assert_eq!(r.len(), 2);
        assert_eq!(r.replacements(), 0);
        // The batched path short-circuits the same infinite skip.
        let prefix: Vec<u64> = (0..=100u64).map(|i| i * 3).collect();
        r.offer_batch(&mut rng, &prefix, |_| 'd', |_, _, _| panic!("must reject"));
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn offer_batch_matches_per_item_stream() {
        // Long mixed-weight stream split into irregular batches: members,
        // keys, eviction order, counters, and RNG position must all match
        // the per-item loop bit-for-bit.
        let weights: Vec<u32> = (0..5_000u32).map(|i| 1 + (i * 7919) % 97).collect();
        let mut rng_a = StdRng::seed_from_u64(77);
        let mut rng_b = StdRng::seed_from_u64(77);
        let mut per_item = WeightedReservoirExpJ::new(25);
        let mut batched = WeightedReservoirExpJ::new(25);
        let mut evictions_a: Vec<(u32, u64)> = Vec::new();
        let mut evictions_b: Vec<(u32, u64)> = Vec::new();
        let mut start = 0usize;
        for batch_len in [1usize, 3, 250, 4, 1200, 100, 3442] {
            let end = (start + batch_len).min(weights.len());
            for (i, &w) in weights[start..end].iter().enumerate() {
                if let OfferOutcome::Replaced(e) =
                    per_item.offer(&mut rng_a, (start + i) as u32, w as f64)
                {
                    evictions_a.push((e.item, e.key.to_bits()));
                }
            }
            let mut prefix = Vec::with_capacity(end - start + 1);
            prefix.push(0u64);
            let mut acc = 0u64;
            for &w in &weights[start..end] {
                acc += w as u64;
                prefix.push(acc);
            }
            batched.offer_batch(
                &mut rng_b,
                &prefix,
                |i| (start + i) as u32,
                |_, _, outcome| {
                    if let OfferOutcome::Replaced(e) = outcome {
                        evictions_b.push((e.item, e.key.to_bits()));
                    }
                },
            );
            start = end;
        }
        assert_eq!(evictions_a, evictions_b, "eviction sequences diverged");
        assert_eq!(per_item.replacements(), batched.replacements());
        assert_eq!(per_item.offered(), batched.offered());
        let members = |r: &WeightedReservoirExpJ<u32>| {
            let mut v: Vec<(u32, u64)> = r.iter().map(|k| (k.item, k.key.to_bits())).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(members(&per_item), members(&batched));
        assert_eq!(rng_a.next_u64(), rng_b.next_u64(), "RNG streams diverged");
    }

    #[test]
    fn offer_batch_heavy_batch_falls_back_to_per_item() {
        // Total batch weight ≥ 2^53: the integer-exactness argument no
        // longer covers the prefix casts, so the whole batch must degrade
        // to the per-item loop — still byte-identical to calling offer
        // once per item, just without the shortcut.
        let weights: [u64; 4] = [1 << 52, 1 << 52, 7, 1 << 40];
        let mut prefix = vec![0u64];
        for &w in &weights {
            prefix.push(prefix.last().unwrap() + w);
        }
        assert!(prefix[4] >= (1 << 53));
        let mut rng_a = StdRng::seed_from_u64(5);
        let mut rng_b = StdRng::seed_from_u64(5);
        let mut a = WeightedReservoirExpJ::new(2);
        let mut b = WeightedReservoirExpJ::new(2);
        for (i, &w) in weights.iter().enumerate() {
            a.offer(&mut rng_a, i as u32, w as f64);
        }
        let mut accepted = Vec::new();
        b.offer_batch(
            &mut rng_b,
            &prefix,
            |i| i as u32,
            |_, i, _| accepted.push(i),
        );
        let members = |r: &WeightedReservoirExpJ<u32>| {
            let mut v: Vec<(u32, u64)> = r.iter().map(|k| (k.item, k.key.to_bits())).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(members(&a), members(&b));
        assert_eq!(a.replacements(), b.replacements());
        assert_eq!(a.offered(), b.offered());
        assert!(accepted.len() >= 2, "fill inserts always reported");
        assert_eq!(rng_a.next_u64(), rng_b.next_u64(), "RNG streams diverged");
    }

    #[test]
    fn offer_batch_with_capacity_exceeding_stream_inserts_all() {
        let mut rng = StdRng::seed_from_u64(41);
        let mut r = WeightedReservoirExpJ::new(64);
        let prefix: Vec<u64> = (0..=10u64).map(|i| i * 5).collect();
        let mut accepted = Vec::new();
        r.offer_batch(&mut rng, &prefix, |i| i, |_, i, _| accepted.push(i));
        assert_eq!(accepted, (0..10).collect::<Vec<_>>());
        assert_eq!(r.len(), 10);
        assert_eq!(r.offered(), 10);
    }

    #[test]
    fn retain_removes_members_and_keeps_survivor_keys() {
        let mut rng = StdRng::seed_from_u64(23);
        let mut r = WeightedReservoir::new(6);
        for i in 0..6u32 {
            r.offer(&mut rng, i, 1.0 + i as f64);
        }
        let before: Vec<(u32, u64)> = {
            let mut v: Vec<_> = r.iter().map(|k| (k.item, k.key.to_bits())).collect();
            v.sort_unstable();
            v
        };
        let removed = r.retain(|&i| i % 2 == 0);
        let mut gone: Vec<u32> = removed.iter().map(|k| k.item).collect();
        gone.sort_unstable();
        assert_eq!(gone, vec![1, 3, 5]);
        assert_eq!(r.len(), 3);
        assert!(!r.is_full());
        // Survivors keep their exact keys.
        for k in r.iter() {
            assert!(before.contains(&(k.item, k.key.to_bits())));
        }
        // Freed slots refill like the initial fill phase.
        r.offer(&mut rng, 100, 2.0);
        assert_eq!(r.len(), 4);
        // Retaining everything removes nothing.
        assert!(r.retain(|_| true).is_empty());
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn expj_retain_resets_pending_jump_and_refills() {
        let mut rng = StdRng::seed_from_u64(31);
        let mut r = WeightedReservoirExpJ::new(4);
        for i in 0..50u32 {
            r.offer(&mut rng, i, 1.0 + (i % 7) as f64);
        }
        assert_eq!(r.len(), 4);
        let survivors: Vec<u32> = r.iter().map(|k| k.item).collect();
        let victim = survivors[0];
        let removed = r.retain(|&i| i != victim);
        assert_eq!(removed.len(), 1);
        assert_eq!(removed[0].item, victim);
        assert_eq!(r.len(), 3);
        // Below capacity again: the next offer is a fill-phase insert.
        let outcome = r.offer(&mut rng, 999, 3.0);
        assert!(outcome.accepted());
        assert_eq!(r.len(), 4);
        // Back at capacity the stream keeps flowing (jump re-armed).
        let mut accepted_any = false;
        for i in 1000..4000u32 {
            if r.offer(&mut rng, i, 1.0 + (i % 5) as f64).accepted() {
                accepted_any = true;
            }
        }
        assert!(accepted_any, "re-armed reservoir never accepted again");
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn snapshot_restore_replays_identically() {
        // Checkpoint a reservoir mid-stream; the restored copy must replay
        // the rest of the stream bit-for-bit (members, keys, eviction
        // order, counters) — the serving layer's core invariant.
        let mut rng = StdRng::seed_from_u64(91);
        let mut r = WeightedReservoirExpJ::new(8);
        for i in 0..500u32 {
            r.offer(&mut rng, i, 1.0 + (i % 13) as f64);
        }
        let bytes = r.snapshot();
        let mut restored = WeightedReservoirExpJ::<u32>::restore(&bytes).unwrap();
        assert_eq!(restored.snapshot(), bytes, "round-trip not byte-stable");

        let mut rng_a = StdRng::seed_from_u64(17);
        let mut rng_b = StdRng::seed_from_u64(17);
        let mut ev_a = Vec::new();
        let mut ev_b = Vec::new();
        for i in 500..3000u32 {
            let w = 1.0 + (i % 11) as f64;
            if let OfferOutcome::Replaced(e) = r.offer(&mut rng_a, i, w) {
                ev_a.push((e.item, e.key.to_bits()));
            }
            if let OfferOutcome::Replaced(e) = restored.offer(&mut rng_b, i, w) {
                ev_b.push((e.item, e.key.to_bits()));
            }
        }
        assert_eq!(ev_a, ev_b, "post-restore eviction streams diverged");
        assert_eq!(r.replacements(), restored.replacements());
        let members = |r: &WeightedReservoirExpJ<u32>| {
            r.iter()
                .map(|k| (k.item, k.key.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(members(&r), members(&restored));
    }

    #[test]
    fn snapshot_restore_mid_fill_reservoir() {
        // Below capacity: no skip yet, fill phase must resume.
        let mut rng = StdRng::seed_from_u64(93);
        let mut r = WeightedReservoirExpJ::new(16);
        for i in 0..5u32 {
            r.offer(&mut rng, i, 2.0);
        }
        let bytes = r.snapshot();
        let mut restored = WeightedReservoirExpJ::<u32>::restore(&bytes).unwrap();
        assert_eq!(restored.snapshot(), bytes);
        assert_eq!(restored.len(), 5);
        assert!(restored.offer(&mut rng, 99, 1.0).accepted());
    }

    #[test]
    fn restore_rejects_corrupt_payloads_with_typed_errors() {
        let mut rng = StdRng::seed_from_u64(95);
        let mut r = WeightedReservoirExpJ::new(4);
        for i in 0..40u32 {
            r.offer(&mut rng, i, 1.0 + (i % 3) as f64);
        }
        let bytes = r.snapshot();
        // Every truncation errors, never panics.
        for cut in 0..bytes.len() {
            assert!(WeightedReservoirExpJ::<u32>::restore(&bytes[..cut]).is_err());
        }
        // Wrong version.
        let mut wrong = bytes.clone();
        wrong[4] = 0xFF;
        assert!(matches!(
            WeightedReservoirExpJ::<u32>::restore(&wrong),
            Err(CodecError::UnsupportedVersion { .. })
        ));
        // NaN key would poison the heap order: must be rejected up front.
        // Member records start after capacity+replacements+offered+len
        // (6-byte header + 4×8 bytes); the key is 4 bytes into a record.
        let key_off = 6 + 32 + 4;
        let mut nan = bytes.clone();
        nan[key_off..key_off + 8].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
        assert!(matches!(
            WeightedReservoirExpJ::<u32>::restore(&nan),
            Err(CodecError::Invalid { .. })
        ));
    }

    #[test]
    fn into_items_returns_all_members() {
        let mut rng = StdRng::seed_from_u64(19);
        let mut r = WeightedReservoir::new(4);
        for i in 0..4 {
            r.offer(&mut rng, i, 2.0);
        }
        let items = r.into_items();
        assert_eq!(items.len(), 4);
        let mut ids: Vec<_> = items.iter().map(|k| k.item).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }
}
