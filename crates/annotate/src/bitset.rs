//! Packed bit-set kernels: the multi-word building blocks under the dense
//! annotation engine.
//!
//! [`BitsetJournal`] is one packed bit-set plus a **touched-span journal**
//! for cheap trial resets. The original journal recorded every touched
//! word individually and both `set_range` and `reset` walked the set one
//! 64-bit word at a time; the kernels here process words in batches the
//! optimizer can unroll and vectorize (plain stable Rust — `chunks_exact`
//! over `u64` words, batched `count_ones`, slice `fill` — no unstable
//! features, no intrinsics):
//!
//! * [`BitsetJournal::set_range`] splits a bit range into head mask /
//!   whole-word interior / tail mask. The interior is counted with a
//!   batched popcount (`fresh = 64·len − ones-before`) and stamped with a
//!   single `fill(u64::MAX)` (a `memset`), instead of a per-word
//!   mask-build / test / journal-push loop.
//! * [`BitsetJournal::reset`] zeroes one **span** (`fill(0)`, again a
//!   `memset`) per journal entry, so reset cost scales with the number of
//!   contiguous regions a trial touched, not the number of words.
//! * [`popcount_range`] is the read-only sibling: population count over an
//!   arbitrary bit range, 8 words per iteration.
//!
//! The span journal may **over-cover**: a span is recorded per mutating
//! call, so two calls overlapping the same words can journal those words
//! twice, and a span can include words that were already set. That is
//! harmless by construction — reset only ever writes zeros, and zeroing
//! an already-zero word is a no-op — and it is what lets `set_range`
//! journal one span per call instead of testing every interior word for
//! the 0 → nonzero flip.
//!
//! A set that is never reset — a session's resident memo, which lives as
//! long as the session — is built [`BitsetJournal::unjournaled`]: it
//! records no spans and holds no journal capacity, and a reset (should
//! one happen) zeroes every word.

/// One packed bit-set with a touched-span journal for cheap resets.
///
/// Used by `DenseAnnotator` for its three memo bitmaps; exposed so the
/// property suite (`tests/bitset_props.rs`) can exercise the kernels
/// against a naive model, and for any other consumer that wants
/// journaled, range-oriented bit stamping.
#[derive(Debug, Default, Clone)]
pub struct BitsetJournal {
    words: Vec<u64>,
    /// Touched spans `(first_word, word_count)` recorded since the last
    /// reset, one per journaling call site. Every word that holds a set
    /// bit is covered by at least one span; spans may overlap each other
    /// and words that were never flipped (over-coverage is harmless — see
    /// the module docs). `None` for an [unjournaled](Self::unjournaled)
    /// set.
    spans: Option<Vec<(u32, u32)>>,
}

impl BitsetJournal {
    /// Empty set covering `bits` bits (all clear), journaling the spans
    /// it touches so [`BitsetJournal::reset`] costs the touched footprint.
    pub fn with_capacity(bits: u64) -> Self {
        BitsetJournal {
            words: vec![0; bits.div_ceil(64) as usize],
            spans: Some(Vec::new()),
        }
    }

    /// Empty set covering `bits` bits that keeps no journal: for sets
    /// that live without resets, where a journal would only grow.
    pub fn unjournaled(bits: u64) -> Self {
        BitsetJournal {
            words: vec![0; bits.div_ceil(64) as usize],
            spans: None,
        }
    }

    /// Capacity in bits (a multiple of 64).
    pub fn capacity(&self) -> u64 {
        self.words.len() as u64 * 64
    }

    /// Whether bit `i` is set.
    #[inline]
    pub fn get(&self, i: u64) -> bool {
        self.words[(i >> 6) as usize] >> (i & 63) & 1 != 0
    }

    /// Set bit `i`; returns whether it was previously clear.
    #[inline]
    pub fn set(&mut self, i: u64) -> bool {
        let wi = (i >> 6) as usize;
        let w = self.words[wi];
        let bit = 1u64 << (i & 63);
        if w & bit != 0 {
            return false;
        }
        if w == 0 {
            self.push_span(wi as u32, 1);
        }
        self.words[wi] = w | bit;
        true
    }

    /// Set every bit in `[start, end)`; returns how many were previously
    /// clear. Multi-word ranges take the head/interior/tail kernel: the
    /// interior's fresh count is `64·words − ones-before` from a batched
    /// popcount, and the stamp itself is one `fill(u64::MAX)`.
    #[inline]
    pub fn set_range(&mut self, start: u64, end: u64) -> u64 {
        debug_assert!(start <= end);
        if start >= end {
            return 0;
        }
        let w0 = (start >> 6) as usize;
        let wl = ((end - 1) >> 6) as usize;
        let head_mask = !0u64 << (start & 63);
        let tail_mask = !0u64 >> (63 - ((end - 1) & 63));
        let fresh = if w0 == wl {
            let mask = head_mask & tail_mask;
            let w = self.words[w0];
            self.words[w0] = w | mask;
            u64::from((mask & !w).count_ones())
        } else {
            let w = self.words[w0];
            self.words[w0] = w | head_mask;
            let mut fresh = u64::from((head_mask & !w).count_ones());
            let interior = &mut self.words[w0 + 1..wl];
            fresh += 64 * interior.len() as u64 - popcount_words(interior);
            interior.fill(u64::MAX);
            let w = self.words[wl];
            self.words[wl] = w | tail_mask;
            fresh + u64::from((tail_mask & !w).count_ones())
        };
        if fresh > 0 {
            // One journal entry per mutating call covers every word that
            // could have flipped 0 → nonzero (fresh == 0 means no word
            // changed at all, so nothing needs journaling).
            self.push_span(w0 as u32, (wl - w0 + 1) as u32);
        }
        fresh
    }

    /// Population count over the bit range `[start, end)`.
    #[inline]
    pub fn count_range(&self, start: u64, end: u64) -> u64 {
        popcount_range(&self.words, start, end)
    }

    /// Zero every journaled span — one `memset` per span, so the cost
    /// scales with how many contiguous regions were touched since the last
    /// reset, not with capacity or even touched-word count. An
    /// unjournaled set zeroes every word.
    #[inline]
    pub fn reset(&mut self) {
        let Some(spans) = &mut self.spans else {
            self.words.fill(0);
            return;
        };
        for &(start, len) in spans.iter() {
            let s = start as usize;
            // Direct stores for the dominant tiny spans (random single-bit
            // journal entries): `fill` on a runtime-length slice lowers to
            // a libc `memset` call, whose fixed overhead swamps a 1–2 word
            // zeroing.
            if len <= 2 {
                self.words[s] = 0;
                if len == 2 {
                    self.words[s + 1] = 0;
                }
            } else {
                self.words[s..s + len as usize].fill(0);
            }
        }
        spans.clear();
    }

    /// Grow the word arena to cover `bits` (appended words start clear, so
    /// the span journal and any in-flight trial state stay valid —
    /// mid-sequence growth preserves the memo, which is exactly what
    /// incremental evaluation reuses across batches).
    #[inline]
    pub fn grow(&mut self, bits: u64) {
        let words = bits.div_ceil(64) as usize;
        if words > self.words.len() {
            self.words.resize(words, 0);
        }
    }

    /// Journal entries currently recorded (diagnostic; resets scale with
    /// this, not with words). Always 0 for an unjournaled set.
    pub fn journaled_spans(&self) -> usize {
        self.spans.as_ref().map_or(0, Vec::len)
    }

    /// Indices of the set bits, ascending.
    pub fn ones(&self) -> impl Iterator<Item = u64> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut rest = w;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros();
                    rest &= rest - 1;
                    ((wi as u64) << 6) | u64::from(bit)
                })
            })
        })
    }

    /// The `len ≤ 64` bits starting at bit `start`, least significant
    /// first.
    #[inline]
    pub fn bits_at(&self, start: u64, len: u32) -> u64 {
        read_bits(&self.words, start, len)
    }

    /// Set the `len ≤ 64` bits starting at bit `start` that are set in
    /// `bits` (bits at `len` and above must be clear); returns how many
    /// were previously clear.
    #[inline]
    pub fn or_bits(&mut self, start: u64, len: u32, bits: u64) -> u64 {
        debug_assert!(len <= 64 && (len == 64 || bits >> len == 0));
        if bits == 0 {
            return 0;
        }
        let wi = (start >> 6) as usize;
        let shift = (start & 63) as u32;
        let lo = bits << shift;
        let mut fresh = u64::from((lo & !self.words[wi]).count_ones());
        self.words[wi] |= lo;
        let mut touched = 1;
        if shift + len > 64 {
            let hi = bits >> (64 - shift);
            fresh += u64::from((hi & !self.words[wi + 1]).count_ones());
            self.words[wi + 1] |= hi;
            touched = 2;
        }
        if fresh > 0 {
            self.push_span(wi as u32, touched);
        }
        fresh
    }

    /// Record `(start, len)` — one plain push. Deliberately no
    /// merge-with-previous check: the `w == 0` / `fresh > 0` gates at the
    /// call sites already cap the journal at one entry per word (for
    /// `set`) or per mutating call (for `set_range`), and a
    /// compare-with-tail here costs a dependent load plus two branches on
    /// the hottest path in the tree (measured ~20% of a full-cluster
    /// visit) for no asymptotic gain.
    #[inline]
    fn push_span(&mut self, start: u32, len: u32) {
        if let Some(spans) = &mut self.spans {
            spans.push((start, len));
        }
    }
}

/// The `len ≤ 64` bits of packed `words` starting at bit `start`, least
/// significant first. Shared by [`BitsetJournal::bits_at`] and the packed
/// memo codec.
#[inline]
pub fn read_bits(words: &[u64], start: u64, len: u32) -> u64 {
    debug_assert!(len <= 64);
    if len == 0 {
        return 0;
    }
    let wi = (start >> 6) as usize;
    let shift = (start & 63) as u32;
    let mut v = words[wi] >> shift;
    if shift + len > 64 {
        v |= words[wi + 1] << (64 - shift);
    }
    if len < 64 {
        v & ((1u64 << len) - 1)
    } else {
        v
    }
}

/// Batched population count over whole words: 8 per iteration, which the
/// optimizer unrolls into straight-line `popcnt` chains (or vectorizes
/// where the target supports it).
#[inline]
fn popcount_words(words: &[u64]) -> u64 {
    let mut chunks = words.chunks_exact(8);
    let mut total = 0u64;
    for c in &mut chunks {
        let mut t = 0u64;
        for &w in c {
            t += u64::from(w.count_ones());
        }
        total += t;
    }
    for &w in chunks.remainder() {
        total += u64::from(w.count_ones());
    }
    total
}

/// Population count of the bit range `[start, end)` over packed `words`.
///
/// Head and tail partial words are masked; the interior goes through the
/// batched whole-word kernel. Shared by [`BitsetJournal::count_range`] and
/// the label store's τ counting.
#[inline]
pub fn popcount_range(words: &[u64], start: u64, end: u64) -> u64 {
    debug_assert!(start <= end);
    if start >= end {
        return 0;
    }
    let w0 = (start >> 6) as usize;
    let wl = ((end - 1) >> 6) as usize;
    let head_mask = !0u64 << (start & 63);
    let tail_mask = !0u64 >> (63 - ((end - 1) & 63));
    if w0 == wl {
        return u64::from((words[w0] & head_mask & tail_mask).count_ones());
    }
    u64::from((words[w0] & head_mask).count_ones())
        + popcount_words(&words[w0 + 1..wl])
        + u64::from((words[wl] & tail_mask).count_ones())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_range_counts_only_fresh_bits_across_word_boundaries() {
        let mut bm = BitsetJournal::with_capacity(200);
        assert!(bm.set(70));
        // Range spanning three words, one bit pre-set.
        assert_eq!(bm.set_range(60, 190), 129);
        assert_eq!(bm.set_range(60, 190), 0);
        // Full-word interior span.
        assert_eq!(bm.set_range(0, 60), 60);
        bm.reset();
        assert!((0..200).all(|i| !bm.get(i)));
        assert_eq!(bm.journaled_spans(), 0);
        assert_eq!(bm.set_range(0, 64), 64);
    }

    #[test]
    fn empty_range_is_a_no_op_and_journals_nothing() {
        let mut bm = BitsetJournal::with_capacity(128);
        assert_eq!(bm.set_range(50, 50), 0);
        assert_eq!(bm.set_range(128, 128), 0);
        assert_eq!(bm.journaled_spans(), 0);
    }

    #[test]
    fn adjacent_stamps_journal_once_per_call_and_reset_clean() {
        let mut bm = BitsetJournal::with_capacity(64 * 10);
        assert_eq!(bm.set_range(0, 130), 130);
        assert_eq!(bm.set_range(130, 320), 190);
        // One entry per mutating call; re-stamping the same region adds
        // nothing (fresh == 0 journals nothing).
        assert_eq!(bm.journaled_spans(), 2);
        assert_eq!(bm.set_range(0, 320), 0);
        assert_eq!(bm.journaled_spans(), 2);
        bm.reset();
        assert_eq!(bm.count_range(0, 640), 0);
    }

    #[test]
    fn count_range_matches_per_bit_reads() {
        let mut bm = BitsetJournal::with_capacity(64 * 20);
        for i in (0..64 * 20).step_by(3) {
            bm.set(i);
        }
        for (a, b) in [(0, 0), (0, 1), (5, 129), (63, 64), (64, 1217), (0, 1280)] {
            let naive = (a..b).filter(|&i| bm.get(i)).count() as u64;
            assert_eq!(bm.count_range(a, b), naive, "[{a}, {b})");
        }
    }

    #[test]
    fn popcount_range_on_raw_words() {
        let words = [u64::MAX, 0, 0b1011, u64::MAX, u64::MAX];
        assert_eq!(popcount_range(&words, 0, 64), 64);
        assert_eq!(popcount_range(&words, 0, 320), 64 + 3 + 128);
        assert_eq!(popcount_range(&words, 128, 132), 3);
        assert_eq!(popcount_range(&words, 10, 10), 0);
        assert_eq!(popcount_range(&words, 63, 65), 1);
    }

    #[test]
    fn unjournaled_sets_keep_no_journal_and_reset_every_word() {
        let mut bm = BitsetJournal::unjournaled(64 * 4);
        assert!(bm.set(3));
        assert_eq!(bm.set_range(60, 200), 140);
        assert_eq!(bm.or_bits(250, 6, 0b101), 2);
        assert_eq!(bm.journaled_spans(), 0);
        bm.grow(64 * 8);
        assert!(bm.get(199) && bm.get(252) && !bm.get(251));
        bm.reset();
        assert_eq!(bm.count_range(0, 64 * 8), 0);
    }

    #[test]
    fn ones_bits_at_and_or_bits_agree_with_per_bit_reads() {
        let mut bm = BitsetJournal::with_capacity(64 * 4);
        let set = [0u64, 5, 63, 64, 100, 127, 128, 255];
        for &i in &set {
            bm.set(i);
        }
        assert_eq!(bm.ones().collect::<Vec<_>>(), set);
        for (start, len) in [
            (0u64, 64u32),
            (1, 63),
            (60, 10),
            (100, 64),
            (192, 64),
            (5, 0),
        ] {
            let naive = (0..u64::from(len))
                .filter(|&k| bm.get(start + k))
                .fold(0u64, |acc, k| acc | 1 << k);
            assert_eq!(bm.bits_at(start, len), naive, "[{start}, +{len})");
        }
        // OR-ing a span back into a clear set reproduces it, counting
        // only the fresh bits, and journals the touched words.
        let mut copy = BitsetJournal::with_capacity(64 * 4);
        let mut fresh = 0;
        for start in (0..256).step_by(40) {
            let len = 40.min(256 - start) as u32;
            fresh += copy.or_bits(start, len, bm.bits_at(start, len));
        }
        assert_eq!(fresh, set.len() as u64);
        assert_eq!(copy.ones().collect::<Vec<_>>(), set);
        assert_eq!(copy.or_bits(60, 10, bm.bits_at(60, 10)), 0);
        copy.reset();
        assert_eq!(copy.count_range(0, 256), 0);
    }

    #[test]
    fn grow_preserves_bits_and_journal() {
        let mut bm = BitsetJournal::with_capacity(64);
        bm.set(63);
        bm.grow(64 * 4);
        assert_eq!(bm.capacity(), 64 * 4);
        assert!(bm.get(63));
        assert_eq!(bm.set_range(63, 200), 136);
        bm.reset();
        assert_eq!(bm.count_range(0, 256), 0);
    }
}
