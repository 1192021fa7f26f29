//! Growable probability-proportional-to-size sampling over prefix sums.
//!
//! [`AliasTable`](crate::alias::AliasTable) gives O(1) PPS draws but must be
//! rebuilt from scratch — O(N) — whenever a weight is appended, which is
//! exactly what an evolving KG does on every update batch. [`GrowablePps`]
//! trades the O(1) draw for an O(log N) binary search over prefix sums and
//! in exchange grows in **O(1) per batch**: the base population is built
//! once into a flat *head* ([`GrowablePps::from_sizes`]), and
//! [`GrowablePps::extend_shared`] adopts each later batch's already
//! materialized cumulative-weight slice (an evolving-KG `UpdateBatch` caches
//! its Δ prefix once at construction) as an `Arc`'d tail segment, with no
//! copy at all. This is what makes the §6 evaluators' per-batch stream
//! bookkeeping sublinear in |Δ| — the only per-batch PPS cost is pushing one
//! segment descriptor.
//!
//! A draw picks a uniform triple index in `[0, M)` and maps it to its
//! cluster, so cluster `i` is selected with probability `M_i / M` — the same
//! first-stage distribution as the alias table (the realized draw *streams*
//! differ; both are exact PPS). The flat and segmented layouts locate the
//! same item for every cumulative position, so how a population was split
//! into head and segments never disturbs a single draw.
//!
//! **Deletions** ride on top as a pending-decrement overlay
//! ([`GrowablePps::decrement`]): the head prefix and the `Arc`-shared
//! segments stay append-only (other holders of a segment are unaffected),
//! while a small sorted side table records how much weight each touched
//! item has lost. Draws then address the **live** cumulative space — item
//! `i` is selected with probability `live_i / live_total`, fully-dead items
//! are never selected — at the cost of one extra binary search per draw
//! while the overlay is non-empty. When dead weight crosses a quarter of
//! the gross total, the sampler **compacts**: the live weights are rebuilt
//! into a fresh flat head (fully-dead items become zero-width plateau
//! entries so item indices never shift), the overlay empties, and draws
//! return to the overlay-free fast path. Locating over the compacted
//! plateau prefix is exact: `partition_point(p <= t)` lands past every
//! zero-width entry, so a dead item's empty span can never be selected.

use crate::codec::{CodecError, Decoder, Encoder};
use crate::error::StatsError;
use rand::Rng;
use std::sync::Arc;

/// Sampled stride of the coarse level: one coarse entry per `STRIDE` items.
/// 64 keeps the fine window at one-to-few cache lines while the coarse
/// level for a million-cluster KG is ~125 KB — hot across a draw loop,
/// where the full prefix array (8 MB) is not.
const STRIDE: usize = 64;

/// An `Arc`-shared tail segment: one adopted batch of cumulative weights.
#[derive(Debug, Clone)]
struct Segment {
    /// Total weight of every item before this segment.
    abs_start: u64,
    /// Global index of the segment's first item.
    first_item: usize,
    /// The adopted cumulative-weight slice (`local[0]` is an arbitrary
    /// base; item `j` of the segment weighs `local[j+1] - local[j]`).
    local: Arc<[u64]>,
}

/// Prefix-sum PPS sampler over a growing list of integer weights.
///
/// Layout: a flat **head** (coarse + fine two-level search: draws
/// binary-search a coarse array holding every `STRIDE`-th prefix, then
/// finish inside one `STRIDE`-item window) plus zero or more `Arc`-shared
/// **tail segments** adopted whole in O(1).
#[derive(Debug, Clone)]
pub struct GrowablePps {
    /// `prefix[i]` = total weight of head items `0..i`;
    /// `prefix.len() == head_items + 1`.
    prefix: Vec<u64>,
    /// `coarse[j] = prefix[j * STRIDE]`, maintained on growth.
    coarse: Vec<u64>,
    /// Shared tail segments, ascending.
    segments: Vec<Segment>,
    /// Cached **gross** total weight (head + all segments, before any
    /// decrements). The live total is `total - dead_weight()`.
    total: u64,
    /// Cached item count (head + all segments).
    items: usize,
    /// Pending-decrement overlay: item indices with dead weight, sorted.
    dead_items: Vec<usize>,
    /// `dead_cum[k]` = total dead weight of `dead_items[0..k]`
    /// (`dead_cum.len() == dead_items.len() + 1`, starting at 0).
    dead_cum: Vec<u64>,
}

impl Default for GrowablePps {
    fn default() -> Self {
        Self::new()
    }
}

impl GrowablePps {
    /// Empty sampler (draws panic until a segment is adopted).
    pub fn new() -> Self {
        GrowablePps {
            prefix: vec![0],
            coarse: vec![0],
            segments: Vec::new(),
            total: 0,
            items: 0,
            dead_items: Vec::new(),
            dead_cum: vec![0],
        }
    }

    /// Sampler whose head holds `sizes`, built in one pass. Zero weights
    /// are rejected — a zero-size cluster cannot be drawn and would
    /// silently skew offsets.
    pub fn from_sizes(sizes: &[u32]) -> Result<Self, StatsError> {
        let mut prefix = Vec::with_capacity(sizes.len() + 1);
        prefix.push(0u64);
        let mut acc = 0u64;
        for &s in sizes {
            if s == 0 {
                return Err(StatsError::invalid("size", "> 0", 0.0));
            }
            acc += s as u64;
            prefix.push(acc);
        }
        let mut this = Self::new();
        this.prefix = prefix;
        this.total = acc;
        this.items = sizes.len();
        this.sync_coarse();
        Ok(this)
    }

    /// Sampler that **adopts** a shared cumulative-weight slice as its
    /// single segment — O(1), no copy. The §6 stratified evaluator builds
    /// each stratum's frame this way straight from the update batch's
    /// cached prefix.
    pub fn shared(prefix: Arc<[u64]>) -> Result<Self, StatsError> {
        let mut this = Self::new();
        this.extend_shared(prefix)?;
        Ok(this)
    }

    /// Adopt a shared cumulative-weight slice as a tail segment — **O(1)
    /// per batch**, no copy: the evolving-KG skeleton cost of growing the
    /// sampling frame by an update batch is one descriptor push. The slice
    /// must be strictly increasing (positive integer weights; an
    /// `UpdateBatch` guarantees this at construction — debug builds
    /// verify). A slice of length ≤ 1 (an empty batch) is a no-op.
    pub fn extend_shared(&mut self, prefix: Arc<[u64]>) -> Result<(), StatsError> {
        if prefix.is_empty() {
            return Err(StatsError::invalid("prefix", "non-empty", 0.0));
        }
        let added = prefix.len() - 1;
        if added == 0 {
            return Ok(());
        }
        // All validation happens before the first mutation, so a rejected
        // adoption leaves totals, item counts, and the segment list exactly
        // as they were. The O(1) endpoint check catches a batch
        // with non-positive net weight even in release builds; the O(n)
        // per-step strictness scan stays a debug assertion because every
        // `UpdateBatch` guarantees it at construction.
        if prefix[added] <= prefix[0] {
            return Err(StatsError::invalid(
                "prefix",
                "strictly increasing (positive total weight)",
                (prefix[added] as i128 - prefix[0] as i128) as f64,
            ));
        }
        debug_assert!(
            prefix.windows(2).all(|w| w[0] < w[1]),
            "shared segment weights must be positive (prefix strictly increasing)"
        );
        let weight = prefix[added] - prefix[0];
        self.segments.push(Segment {
            abs_start: self.total,
            first_item: self.items,
            local: prefix,
        });
        self.total += weight;
        self.items += added;
        Ok(())
    }

    /// Top up the coarse level after the head was (re)built, restoring the
    /// invariant `coarse[j] == prefix[j * STRIDE]`.
    fn sync_coarse(&mut self) {
        let mut j = self.coarse.len();
        while j * STRIDE < self.prefix.len() {
            self.coarse.push(self.prefix[j * STRIDE]);
            j += 1;
        }
    }

    /// The head's cumulative-weight slice: `prefix()[i]` is the total
    /// weight of items `0..i` (length `len() + 1` while no shared segment
    /// has been adopted, starting at 0). This is exactly the shape
    /// [`WeightedReservoirExpJ::offer_batch`] consumes, so a population
    /// indexed for PPS draws can drive batched reservoir offers with no
    /// extra materialization.
    ///
    /// [`WeightedReservoirExpJ::offer_batch`]:
    /// crate::reservoir::WeightedReservoirExpJ::offer_batch
    pub fn prefix(&self) -> &[u64] {
        &self.prefix
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.items
    }

    /// Whether no items have been appended.
    pub fn is_empty(&self) -> bool {
        self.items == 0
    }

    /// Total **live** weight `M` — gross appended weight minus every
    /// pending decrement. Equal to the gross total while nothing has been
    /// retracted.
    pub fn total(&self) -> u64 {
        self.total - self.dead_weight()
    }

    /// Total weight removed by [`GrowablePps::decrement`] since the last
    /// compaction (the pending overlay mass).
    pub fn dead_weight(&self) -> u64 {
        *self.dead_cum.last().expect("dead_cum non-empty")
    }

    /// **Live** weight of item `i` (head or segment, minus its pending
    /// decrements). O(log) at worst; fully-dead items report 0. Panics out
    /// of range.
    pub fn weight(&self, i: usize) -> u64 {
        self.gross_weight(i) - self.dead_of(i)
    }

    /// Weight of item `i` as appended, before any decrements.
    fn gross_weight(&self, i: usize) -> u64 {
        let head_items = self.prefix.len() - 1;
        if i < head_items {
            return self.prefix[i + 1] - self.prefix[i];
        }
        assert!(i < self.items, "item {i} out of range ({})", self.items);
        let si = self.segments.partition_point(|s| s.first_item <= i) - 1;
        let s = &self.segments[si];
        let j = i - s.first_item;
        s.local[j + 1] - s.local[j]
    }

    /// Pending dead weight of item `i`.
    fn dead_of(&self, i: usize) -> u64 {
        match self.dead_items.binary_search(&i) {
            Ok(k) => self.dead_cum[k + 1] - self.dead_cum[k],
            Err(_) => 0,
        }
    }

    /// Remove `w` units of weight from item `i` — a retraction of `w`
    /// triples from cluster `i`. The stored prefix arrays (including
    /// `Arc`-shared segments, whose other holders are unaffected) are not
    /// touched; the loss is recorded in the pending-decrement overlay and
    /// every subsequent draw addresses the live weights. Errors (leaving
    /// the sampler unchanged) if `i` is out of range, `w` is zero, or `w`
    /// exceeds item `i`'s current live weight.
    ///
    /// When accumulated dead weight crosses a quarter of the gross total,
    /// the sampler compacts into a fresh flat head and the overlay
    /// empties; see the module docs.
    pub fn decrement(&mut self, i: usize, w: u64) -> Result<(), StatsError> {
        if i >= self.items {
            return Err(StatsError::invalid("item", "< len()", i as f64));
        }
        if w == 0 {
            return Err(StatsError::invalid("w", "> 0", 0.0));
        }
        let live = self.weight(i);
        if w > live {
            return Err(StatsError::invalid("w", "<= live weight of item", w as f64));
        }
        let k = self.dead_items.partition_point(|&d| d < i);
        if self.dead_items.get(k) != Some(&i) {
            self.dead_items.insert(k, i);
            let run = self.dead_cum[k];
            self.dead_cum.insert(k + 1, run);
        }
        for c in &mut self.dead_cum[k + 1..] {
            *c += w;
        }
        if self.dead_weight() * 4 > self.total {
            self.compact();
        }
        Ok(())
    }

    /// Cumulative **gross** weight of items `0..j` (`0 <= j <= items`),
    /// whichever mix of head and segments holds them.
    fn gross_prefix(&self, j: usize) -> u64 {
        let head_items = self.prefix.len() - 1;
        if j <= head_items {
            return self.prefix[j];
        }
        let si = self.segments.partition_point(|s| s.first_item < j) - 1;
        let s = &self.segments[si];
        s.abs_start + (s.local[j - s.first_item] - s.local[0])
    }

    /// Total pending dead weight of items `0..j`.
    fn dead_before(&self, j: usize) -> u64 {
        let k = self.dead_items.partition_point(|&d| d < j);
        self.dead_cum[k]
    }

    /// Cumulative **live** weight of items `0..=j` — the exclusive end of
    /// item `j`'s span in live cumulative space.
    fn live_end(&self, j: usize) -> u64 {
        self.gross_prefix(j + 1) - self.dead_before(j + 1)
    }

    /// Fold the pending overlay into a fresh flat head: item `j`'s stored
    /// weight becomes its live weight, with fully-dead items kept as
    /// zero-width plateau entries so item indices (cluster ids) never
    /// shift. Segments are released; later batches append new segments
    /// past the rebuilt head.
    fn compact(&mut self) {
        let mut prefix = Vec::with_capacity(self.items + 1);
        prefix.push(0u64);
        let mut acc = 0u64;
        for j in 0..self.items {
            acc += self.weight(j);
            prefix.push(acc);
        }
        self.prefix = prefix;
        self.coarse.clear();
        self.coarse.push(0);
        self.sync_coarse();
        self.segments.clear();
        self.dead_items.clear();
        self.dead_cum.clear();
        self.dead_cum.push(0);
        self.total = acc;
    }

    /// Draw an item index with probability proportional to its **live**
    /// weight. Panics if empty or if every unit of weight has been
    /// decremented away (guard with [`GrowablePps::is_empty`] /
    /// [`GrowablePps::total`]).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        assert!(!self.is_empty(), "cannot sample from an empty PPS sampler");
        assert!(
            self.total() > 0,
            "cannot sample from a PPS sampler with no live weight"
        );
        let t = rng.gen_range(0..self.total());
        self.locate(t)
    }

    /// Index of the item whose **live** weight span contains live
    /// cumulative position `t` — identical to a flat `partition_point`
    /// over the logical live prefix sums, whichever mix of head, segments,
    /// and pending decrements holds the items.
    fn locate(&self, t: u64) -> usize {
        if !self.dead_items.is_empty() {
            // Overlay path: binary-search live item ends. `live_end` is
            // non-decreasing, and the first item whose end exceeds `t` has
            // positive live width (a fully-dead item shares its end with
            // its predecessor, so it can never be the first to exceed).
            let mut lo = 0usize;
            let mut hi = self.items;
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if self.live_end(mid) <= t {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            debug_assert!(lo < self.items);
            return lo;
        }
        let head_total = *self.prefix.last().expect("prefix non-empty");
        if t < head_total {
            // Coarse level: the window holding t (hot memory).
            let j = self.coarse.partition_point(|&p| p <= t) - 1;
            // Fine level: at most STRIDE entries of the full prefix array.
            let lo = j * STRIDE;
            let hi = ((j + 1) * STRIDE + 1).min(self.prefix.len());
            let window = &self.prefix[lo..hi];
            let i = lo + window.partition_point(|&p| p <= t) - 1;
            debug_assert!(self.prefix[i] <= t && t < self.prefix[i + 1]);
            return i;
        }
        // Segment level: the (few, hot) descriptors, then one local search.
        let si = self.segments.partition_point(|s| s.abs_start <= t) - 1;
        let s = &self.segments[si];
        let local_t = t - s.abs_start;
        let base = s.local[0];
        s.first_item + s.local.partition_point(|&p| p - base <= local_t) - 1
    }

    /// Record magic for standalone snapshots.
    pub const MAGIC: [u8; 4] = *b"KGPP";
    /// Current snapshot format version.
    pub const VERSION: u16 = 1;

    /// Serialize into a standalone `KGPP` v1 record (see [`crate::codec`]):
    /// the head prefix, every `Arc`-shared segment's contents, and the full
    /// pending-decrement overlay. Restoring materializes fresh `Arc`s over
    /// the same integers — [`Self::locate`] depends only on contents, so
    /// the restored sampler is draw-for-draw identical.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut e = Encoder::with_header(Self::MAGIC, Self::VERSION);
        self.snapshot_into(&mut e);
        e.finish()
    }

    /// Restore from a standalone `KGPP` record, re-deriving the coarse
    /// level and validating every structural invariant (monotone prefixes,
    /// segment chaining, overlay bounds) so a corrupted payload yields a
    /// typed error rather than a sampler that panics later.
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
        let pps = Self::restore_from(&mut d)?;
        d.finish()?;
        Ok(pps)
    }

    /// Append the headerless field payload (for embedding in composite
    /// records like `MonitorState`).
    pub fn snapshot_into(&self, e: &mut Encoder) {
        e.put_u64_slice(&self.prefix);
        e.put_usize(self.segments.len());
        for s in &self.segments {
            e.put_u64(s.abs_start);
            e.put_usize(s.first_item);
            e.put_u64_slice(&s.local);
        }
        e.put_usize_slice(&self.dead_items);
        e.put_u64_slice(&self.dead_cum);
        e.put_u64(self.total);
        e.put_usize(self.items);
    }

    /// Decode the headerless field payload written by
    /// [`Self::snapshot_into`].
    pub fn restore_from(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let prefix = d.get_u64_vec("pps head prefix")?;
        if prefix.first() != Some(&0) {
            return Err(CodecError::Invalid {
                what: "pps head prefix must start at 0",
            });
        }
        // Non-decreasing, not strictly increasing: compaction leaves
        // zero-width plateau entries for fully-dead items.
        if prefix.windows(2).any(|w| w[0] > w[1]) {
            return Err(CodecError::Invalid {
                what: "pps head prefix must be non-decreasing",
            });
        }
        let head_items = prefix.len() - 1;
        let head_total = *prefix.last().expect("checked non-empty");

        let num_segments = d.get_len(24, "pps segments")?;
        let mut segments = Vec::with_capacity(num_segments);
        let mut next_item = head_items;
        let mut next_start = head_total;
        for _ in 0..num_segments {
            let abs_start = d.get_u64("pps segment abs_start")?;
            let first_item = d.get_usize("pps segment first_item")?;
            let local = d.get_u64_vec("pps segment local prefix")?;
            if local.len() < 2 {
                return Err(CodecError::Invalid {
                    what: "pps segment must hold at least one item",
                });
            }
            if local.windows(2).any(|w| w[0] >= w[1]) {
                return Err(CodecError::Invalid {
                    what: "pps segment prefix must be strictly increasing",
                });
            }
            if abs_start != next_start || first_item != next_item {
                return Err(CodecError::Invalid {
                    what: "pps segment chain is inconsistent",
                });
            }
            next_item += local.len() - 1;
            next_start += local[local.len() - 1] - local[0];
            segments.push(Segment {
                abs_start,
                first_item,
                local: local.into(),
            });
        }
        let dead_items = d.get_usize_vec("pps dead items")?;
        let dead_cum = d.get_u64_vec("pps dead cum")?;
        let total = d.get_u64("pps total")?;
        let items = d.get_usize("pps items")?;
        if items != next_item || total != next_start {
            return Err(CodecError::Invalid {
                what: "pps totals disagree with prefix contents",
            });
        }
        if dead_cum.len() != dead_items.len() + 1 || dead_cum.first() != Some(&0) {
            return Err(CodecError::Invalid {
                what: "pps dead overlay must carry one cumulative entry per item plus base 0",
            });
        }
        if dead_items.windows(2).any(|w| w[0] >= w[1])
            || dead_items.last().is_some_and(|&i| i >= items)
        {
            return Err(CodecError::Invalid {
                what: "pps dead items must be strictly increasing and in range",
            });
        }
        if dead_cum.windows(2).any(|w| w[0] >= w[1]) {
            return Err(CodecError::Invalid {
                what: "pps dead cum must be strictly increasing (positive decrements)",
            });
        }
        let mut pps = GrowablePps {
            prefix,
            coarse: Vec::new(),
            segments,
            total,
            items,
            dead_items,
            dead_cum,
        };
        // Every dead span must fit inside its item's gross weight, or
        // `weight()` would underflow.
        for k in 0..pps.dead_items.len() {
            let dead = pps.dead_cum[k + 1] - pps.dead_cum[k];
            if dead > pps.gross_weight(pps.dead_items[k]) {
                return Err(CodecError::Invalid {
                    what: "pps dead weight exceeds item's gross weight",
                });
            }
        }
        // The coarse level is derived state: rebuild it instead of trusting
        // (or shipping) it.
        pps.coarse.push(0);
        pps.sync_coarse();
        Ok(pps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn frequencies_proportional_to_weights() {
        let pps = GrowablePps::from_sizes(&[1, 3, 6]).unwrap();
        assert_eq!(pps.len(), 3);
        assert_eq!(pps.total(), 10);
        let mut rng = StdRng::seed_from_u64(5);
        let mut counts = [0u32; 3];
        let trials = 100_000;
        for _ in 0..trials {
            counts[pps.sample(&mut rng)] += 1;
        }
        for (i, &w) in [1u32, 3, 6].iter().enumerate() {
            let freq = counts[i] as f64 / trials as f64;
            let expect = w as f64 / 10.0;
            assert!((freq - expect).abs() < 0.01, "item {i}: {freq} vs {expect}");
        }
    }

    #[test]
    fn growth_preserves_earlier_items_and_reweights() {
        let mut pps = GrowablePps::from_sizes(&[5, 5]).unwrap();
        pps.extend_shared(vec![0u64, 10].into()).unwrap();
        assert_eq!(pps.len(), 3);
        assert_eq!(pps.total(), 20);
        let mut rng = StdRng::seed_from_u64(9);
        let mut last = 0u32;
        for _ in 0..40_000 {
            if pps.sample(&mut rng) == 2 {
                last += 1;
            }
        }
        let freq = last as f64 / 40_000.0;
        assert!((freq - 0.5).abs() < 0.01, "freq {freq}");
    }

    #[test]
    fn zero_weights_rejected_and_empty_guarded() {
        assert!(GrowablePps::from_sizes(&[1, 0]).is_err());
        assert!(GrowablePps::from_sizes(&[0, 1]).is_err());
        let mut pps = GrowablePps::new();
        assert!(pps.is_empty());
        assert_eq!(pps.total(), 0);
        pps.extend_shared(vec![0u64, 4].into()).unwrap();
        assert!(!pps.is_empty());
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(pps.sample(&mut rng), 0);
    }

    #[test]
    fn two_level_locate_agrees_with_flat_search_across_strides() {
        // Enough items to span several coarse blocks, with irregular
        // weights straddling block boundaries; every cumulative position
        // must resolve to the same item a flat partition_point would give.
        let check = |pps: &GrowablePps| {
            for t in 0..pps.total() {
                let flat = pps.prefix.partition_point(|&p| p <= t) - 1;
                assert_eq!(pps.locate(t), flat, "t {t}");
            }
        };
        let mut sizes: Vec<u32> = (0..300u32).map(|i| 1 + i % 7).collect();
        check(&GrowablePps::from_sizes(&sizes).unwrap());
        sizes.push(1000);
        sizes.extend_from_slice(&[2; 150]);
        let pps = GrowablePps::from_sizes(&sizes).unwrap();
        check(&pps);
        assert_eq!(pps.len(), 451);
    }

    #[test]
    fn bulk_appends_match_push_loop_exactly() {
        // The one-pass head build must yield exactly the prefix AND coarse
        // arrays of appending one item at a time, across stride
        // boundaries.
        let sizes: Vec<u32> = (0..777u32).map(|i| 1 + (i * 31) % 11).collect();
        let mut prefix = vec![0u64];
        let mut coarse = vec![0u64];
        for &s in &sizes {
            let next = prefix.last().unwrap() + s as u64;
            prefix.push(next);
            if (prefix.len() - 1).is_multiple_of(STRIDE) {
                coarse.push(next);
            }
        }
        let bulk = GrowablePps::from_sizes(&sizes).unwrap();
        assert_eq!(bulk.prefix, prefix);
        assert_eq!(bulk.coarse, coarse);
        assert_eq!(bulk.prefix(), &prefix[..]);
        assert_eq!(bulk.total(), *prefix.last().unwrap());
        assert_eq!(bulk.len(), sizes.len());
    }

    #[test]
    fn shared_segments_locate_identically_to_flat_growth() {
        // The same logical weights as (a) one flat head and (b) head +
        // adopted Arc segments must agree on every cumulative position,
        // every item weight, and the totals — this is what makes O(1)
        // batch adoption invisible to the draw stream.
        let head_sizes: Vec<u32> = (0..150u32).map(|i| 1 + (i * 13) % 17).collect();
        let batch_a: Vec<u32> = (0..70u32).map(|i| 1 + (i * 7) % 23).collect();
        let batch_b: Vec<u32> = vec![3; 90];

        let all: Vec<u32> = [&head_sizes[..], &batch_a, &batch_b].concat();
        let flat = GrowablePps::from_sizes(&all).unwrap();

        let to_prefix = |sizes: &[u32]| -> Arc<[u64]> {
            let mut p = vec![0u64];
            let mut acc = 0u64;
            for &s in sizes {
                acc += s as u64;
                p.push(acc);
            }
            p.into()
        };
        let mut seg = GrowablePps::from_sizes(&head_sizes).unwrap();
        seg.extend_shared(to_prefix(&batch_a)).unwrap();
        seg.extend_shared(to_prefix(&batch_b)).unwrap();

        assert_eq!(flat.total(), seg.total());
        assert_eq!(flat.len(), seg.len());
        for t in 0..flat.total() {
            assert_eq!(flat.locate(t), seg.locate(t), "t {t}");
        }
        for i in 0..flat.len() {
            assert_eq!(flat.weight(i), seg.weight(i), "item {i}");
        }
        // A purely shared sampler (empty head) also locates correctly.
        let only = GrowablePps::shared(to_prefix(&batch_a)).unwrap();
        assert_eq!(only.len(), batch_a.len());
        let flat_a = GrowablePps::from_sizes(&batch_a).unwrap();
        for t in 0..only.total() {
            assert_eq!(only.locate(t), flat_a.locate(t), "t {t}");
        }
        // Empty shared batches are no-ops.
        let before = seg.len();
        seg.extend_shared(vec![0u64].into()).unwrap();
        assert_eq!(seg.len(), before);
        assert!(GrowablePps::shared(Vec::new().into()).is_err());
    }

    #[test]
    fn shared_sampler_draw_stream_matches_flat() {
        // Same seed, same draws: adopting segments must not disturb the
        // realized sample stream at all.
        let sizes: Vec<u32> = (0..200u32).map(|i| 1 + (i * 11) % 31).collect();
        let flat = GrowablePps::from_sizes(&[&sizes[..], &[9; 40]].concat()).unwrap();
        let mut p = vec![0u64];
        let mut acc = 0u64;
        for _ in 0..40 {
            acc += 9;
            p.push(acc);
        }
        let mut seg = GrowablePps::from_sizes(&sizes).unwrap();
        seg.extend_shared(p.into()).unwrap();
        let mut rng_a = StdRng::seed_from_u64(33);
        let mut rng_b = StdRng::seed_from_u64(33);
        for _ in 0..10_000 {
            assert_eq!(flat.sample(&mut rng_a), seg.sample(&mut rng_b));
        }
    }

    #[test]
    fn bulk_append_errors_leave_sampler_unchanged() {
        // A zero weight anywhere fails the one-pass head build, and a
        // rejected adoption past a multi-stride head leaves the head's
        // prefix and coarse arrays untouched.
        for bad in [&[0u32, 3, 4][..], &[3, 0, 4], &[3, 4, 0]] {
            assert!(GrowablePps::from_sizes(bad).is_err(), "{bad:?}");
        }
        let mut pps = GrowablePps::from_sizes(&(1..=200).collect::<Vec<u32>>()).unwrap();
        let before_prefix = pps.prefix.clone();
        let before_coarse = pps.coarse.clone();
        assert!(pps.extend_shared(vec![9u64, 4].into()).is_err());
        assert!(pps.extend_shared(vec![7u64, 7].into()).is_err());
        assert!(pps.extend_shared(Vec::new().into()).is_err());
        assert_eq!(pps.prefix, before_prefix);
        assert_eq!(pps.coarse, before_coarse);
        assert_eq!(pps.len(), 200);
        assert_eq!(pps.total(), 20_100);
    }

    #[test]
    fn prefix_base_offset_is_respected() {
        // A shared prefix starting at a non-zero base adopts the same
        // diffs as one starting at zero.
        let mut a = GrowablePps::from_sizes(&[10]).unwrap();
        let mut b = a.clone();
        a.extend_shared(vec![0u64, 2, 7].into()).unwrap();
        b.extend_shared(vec![100u64, 102, 107].into()).unwrap();
        assert_eq!(a.total(), 17);
        assert_eq!(b.total(), 17);
        assert_eq!(a.len(), 3);
        for (i, w) in [10, 2, 5].into_iter().enumerate() {
            assert_eq!(a.weight(i), w);
            assert_eq!(b.weight(i), w);
        }
        for t in 0..17 {
            assert_eq!(a.locate(t), b.locate(t), "t {t}");
        }
    }

    #[test]
    #[should_panic(expected = "empty PPS sampler")]
    fn sampling_empty_panics() {
        let pps = GrowablePps::new();
        let mut rng = StdRng::seed_from_u64(2);
        pps.sample(&mut rng);
    }

    /// Reference live prefix: cumulative live weights with zero-width
    /// plateaus for fully-dead items — the flat rebuild the overlay must
    /// be draw-identical to.
    fn live_prefix(pps: &GrowablePps) -> Vec<u64> {
        let mut p = vec![0u64];
        let mut acc = 0u64;
        for i in 0..pps.len() {
            acc += pps.weight(i);
            p.push(acc);
        }
        p
    }

    fn assert_locates_like_flat(pps: &GrowablePps) {
        let live = live_prefix(pps);
        assert_eq!(*live.last().unwrap(), pps.total());
        for t in 0..pps.total() {
            let flat = live.partition_point(|&p| p <= t) - 1;
            assert_eq!(pps.locate(t), flat, "t {t}");
        }
    }

    #[test]
    fn decrement_reduces_live_weight_and_total() {
        let mut pps = GrowablePps::from_sizes(&[4, 6, 2]).unwrap();
        pps.decrement(1, 2).unwrap();
        assert_eq!(pps.weight(1), 4);
        assert_eq!(pps.total(), 10);
        assert_eq!(pps.dead_weight(), 2);
        // A second decrement on the same item accumulates.
        pps.decrement(1, 1).unwrap();
        assert_eq!(pps.weight(1), 3);
        assert_eq!(pps.total(), 9);
        // Untouched items keep their gross weight.
        assert_eq!(pps.weight(0), 4);
        assert_eq!(pps.weight(2), 2);
    }

    #[test]
    fn decrement_validates_and_leaves_sampler_unchanged_on_error() {
        let mut pps = GrowablePps::from_sizes(&[4, 6]).unwrap();
        pps.decrement(0, 1).unwrap();
        let before_total = pps.total();
        assert!(pps.decrement(2, 1).is_err()); // out of range
        assert!(pps.decrement(0, 0).is_err()); // zero
        assert!(pps.decrement(0, 4).is_err()); // exceeds live weight (3)
        assert_eq!(pps.total(), before_total);
        assert_eq!(pps.weight(0), 3);
        // Decrementing down to exactly zero is allowed; the item just can
        // never be drawn again.
        pps.decrement(0, 3).unwrap();
        assert_eq!(pps.weight(0), 0);
        assert!(pps.decrement(0, 1).is_err());
    }

    #[test]
    fn overlay_locate_matches_flat_live_reference() {
        // Head + two adopted segments, then decrements spread across all
        // three regions, including full kills: every live cumulative
        // position must resolve exactly as a flat rebuild would.
        let to_prefix = |sizes: &[u32]| -> Arc<[u64]> {
            let mut p = vec![0u64];
            let mut acc = 0u64;
            for &s in sizes {
                acc += s as u64;
                p.push(acc);
            }
            p.into()
        };
        let head: Vec<u32> = (0..130u32).map(|i| 1 + (i * 13) % 9).collect();
        let seg_a: Vec<u32> = (0..40u32).map(|i| 1 + (i * 5) % 7).collect();
        let seg_b: Vec<u32> = vec![2; 50];
        let mut pps = GrowablePps::from_sizes(&head).unwrap();
        pps.extend_shared(to_prefix(&seg_a)).unwrap();
        pps.extend_shared(to_prefix(&seg_b)).unwrap();
        assert_locates_like_flat(&pps);
        // Partial decrements in head and both segments.
        pps.decrement(0, 1).unwrap();
        pps.decrement(65, 1).unwrap();
        pps.decrement(135, 2).unwrap();
        pps.decrement(200, 1).unwrap();
        assert_locates_like_flat(&pps);
        // Full kills, including adjacent runs and the last item.
        let n = pps.len();
        for i in [3usize, 4, 5, 140, n - 1] {
            let w = pps.weight(i);
            pps.decrement(i, w).unwrap();
        }
        assert_locates_like_flat(&pps);
        // Draw stream is identical to sampling the flat live reference.
        let live = live_prefix(&pps);
        let mut rng_a = StdRng::seed_from_u64(77);
        let mut rng_b = StdRng::seed_from_u64(77);
        for _ in 0..5_000 {
            let t = rng_b.gen_range(0..*live.last().unwrap());
            let expect = live.partition_point(|&p| p <= t) - 1;
            assert_eq!(pps.sample(&mut rng_a), expect);
        }
    }

    #[test]
    fn compaction_folds_overlay_and_reopens_item_growth() {
        let to_prefix = |sizes: &[u32]| -> Arc<[u64]> {
            let mut p = vec![0u64];
            let mut acc = 0u64;
            for &s in sizes {
                acc += s as u64;
                p.push(acc);
            }
            p.into()
        };
        let mut pps = GrowablePps::from_sizes(&[10; 20]).unwrap();
        pps.extend_shared(to_prefix(&[10; 20])).unwrap();
        let live_before: Vec<u64> = (0..pps.len()).map(|i| pps.weight(i)).collect();
        // Kill whole items until dead weight crosses a quarter of gross
        // (400): the 11th full kill (110 > 100) triggers compaction.
        for i in 0..11 {
            pps.decrement(2 * i, 10).unwrap();
        }
        assert_eq!(pps.dead_weight(), 0, "overlay folded away");
        assert_eq!(pps.total(), 290);
        assert_eq!(pps.len(), 40, "item indices survive compaction");
        for (i, &w) in live_before.iter().enumerate() {
            let expect = if i < 22 && i % 2 == 0 { 0 } else { w };
            assert_eq!(pps.weight(i), expect, "item {i}");
        }
        assert_locates_like_flat(&pps);
        // Compaction released the segments: growth resumes with a fresh
        // segment, and new items land at fresh indices past the plateau
        // prefix.
        pps.extend_shared(to_prefix(&[7])).unwrap();
        assert_eq!(pps.len(), 41);
        assert_eq!(pps.weight(40), 7);
        assert_eq!(pps.total(), 297);
        assert_locates_like_flat(&pps);
        // And further decrements start a fresh overlay.
        pps.decrement(40, 3).unwrap();
        assert_eq!(pps.weight(40), 4);
        assert_locates_like_flat(&pps);
    }

    #[test]
    fn decremented_sampler_never_draws_dead_items() {
        let mut pps = GrowablePps::from_sizes(&[5, 1, 5, 1, 5]).unwrap();
        pps.decrement(1, 1).unwrap();
        pps.decrement(3, 1).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..2_000 {
            let i = pps.sample(&mut rng);
            assert!(i.is_multiple_of(2), "drew dead item {i}");
        }
        // Frequencies follow the live weights (uniform thirds here).
        let mut counts = [0u32; 5];
        for _ in 0..30_000 {
            counts[pps.sample(&mut rng)] += 1;
        }
        for i in [0, 2, 4] {
            let freq = counts[i] as f64 / 30_000.0;
            assert!((freq - 1.0 / 3.0).abs() < 0.02, "item {i}: {freq}");
        }
    }

    #[test]
    fn shared_adoption_failures_leave_sampler_unchanged() {
        // Forced mid-validation failures for extend_shared: the endpoint
        // check fires before any state is touched, so totals, item count,
        // and the draw stream are exactly those of a never-failed sampler.
        let mut pps = GrowablePps::from_sizes(&[3, 4]).unwrap();
        pps.extend_shared(vec![0u64, 2, 5].into()).unwrap();
        let before_prefix = pps.prefix.clone();
        let before_segments = pps.segments.len();
        assert!(pps.extend_shared(vec![9u64, 4].into()).is_err()); // decreasing
        assert!(pps.extend_shared(vec![7u64, 7].into()).is_err()); // zero net
        assert!(pps.extend_shared(Vec::new().into()).is_err()); // empty
        assert_eq!(pps.prefix, before_prefix);
        assert_eq!(pps.segments.len(), before_segments);
        assert_eq!(pps.total(), 12);
        assert_eq!(pps.len(), 4);
        // Growth after the failures matches a sampler that never failed.
        pps.extend_shared(vec![0u64, 6].into()).unwrap();
        let mut clean = GrowablePps::from_sizes(&[3, 4]).unwrap();
        clean.extend_shared(vec![0u64, 2, 5].into()).unwrap();
        clean.extend_shared(vec![0u64, 6].into()).unwrap();
        assert_eq!(pps.total(), clean.total());
        assert_eq!(pps.len(), clean.len());
        for t in 0..pps.total() {
            assert_eq!(pps.locate(t), clean.locate(t), "t {t}");
        }
    }

    #[test]
    fn snapshot_restore_is_draw_identical_across_layouts() {
        // Head + shared segments + dead overlay (partial and full kills):
        // the restored sampler must be byte-stable under re-snapshot and
        // draw-for-draw identical to the original.
        let to_prefix = |sizes: &[u32]| -> Arc<[u64]> {
            let mut p = vec![0u64];
            let mut acc = 0u64;
            for &s in sizes {
                acc += s as u64;
                p.push(acc);
            }
            p.into()
        };
        let head: Vec<u32> = (0..130u32).map(|i| 1 + (i * 13) % 9).collect();
        let mut pps = GrowablePps::from_sizes(&head).unwrap();
        pps.extend_shared(to_prefix(&[3; 40])).unwrap();
        pps.extend_shared(to_prefix(
            &(0..25u32).map(|i| 1 + i % 5).collect::<Vec<_>>(),
        ))
        .unwrap();
        pps.decrement(7, 2).unwrap();
        pps.decrement(140, 3).unwrap(); // full kill inside segment A
        pps.decrement(180, 1).unwrap();
        let bytes = pps.snapshot();
        let restored = GrowablePps::restore(&bytes).unwrap();
        assert_eq!(restored.snapshot(), bytes, "round-trip not byte-stable");
        assert_eq!(restored.total(), pps.total());
        assert_eq!(restored.len(), pps.len());
        assert_eq!(restored.coarse, pps.coarse, "coarse level re-derived");
        for t in 0..pps.total() {
            assert_eq!(restored.locate(t), pps.locate(t), "t {t}");
        }
        let mut rng_a = StdRng::seed_from_u64(55);
        let mut rng_b = StdRng::seed_from_u64(55);
        for _ in 0..3_000 {
            assert_eq!(pps.sample(&mut rng_a), restored.sample(&mut rng_b));
        }
        // A compacted sampler (plateau head entries) round-trips too.
        let mut compacted = GrowablePps::from_sizes(&[10; 40]).unwrap();
        for i in 0..11 {
            compacted.decrement(2 * i, 10).unwrap();
        }
        assert_eq!(compacted.dead_weight(), 0, "compaction fired");
        let bytes = compacted.snapshot();
        let restored = GrowablePps::restore(&bytes).unwrap();
        assert_eq!(restored.snapshot(), bytes);
        for t in 0..compacted.total() {
            assert_eq!(restored.locate(t), compacted.locate(t), "t {t}");
        }
    }

    #[test]
    fn restore_rejects_structural_corruption() {
        let mut pps = GrowablePps::from_sizes(&[4, 6, 2]).unwrap();
        pps.extend_shared(vec![0u64, 5, 9].into()).unwrap();
        pps.decrement(1, 2).unwrap();
        let bytes = pps.snapshot();
        // Every truncation is a typed error, never a panic.
        for cut in 0..bytes.len() {
            assert!(GrowablePps::restore(&bytes[..cut]).is_err(), "cut {cut}");
        }
        // Wrong magic and wrong version.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(matches!(
            GrowablePps::restore(&bad),
            Err(CodecError::BadMagic { .. })
        ));
        let mut bad = bytes.clone();
        bad[4] = 9;
        assert!(matches!(
            GrowablePps::restore(&bad),
            Err(CodecError::UnsupportedVersion { .. })
        ));
        // A decreasing head prefix (first entries after the 8-byte length
        // at offset 6) violates monotonicity.
        let mut bad = bytes.clone();
        bad[14..22].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            GrowablePps::restore(&bad),
            Err(CodecError::Invalid { .. })
        ));
        // Trailing garbage is rejected.
        let mut bad = bytes.clone();
        bad.push(0);
        assert!(matches!(
            GrowablePps::restore(&bad),
            Err(CodecError::TrailingBytes { .. })
        ));
    }
}
