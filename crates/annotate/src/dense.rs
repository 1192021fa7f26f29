//! The dense annotation engine: zero-allocation memoization over a
//! materialized [`LabelStore`].
//!
//! The hash-based [`SimulatedAnnotator`](crate::annotator::SimulatedAnnotator)
//! pays, per annotated triple, a SipHash `HashMap` insert, a `HashSet`
//! probe, and a virtual oracle call — and every *trial* of a 1000-trial
//! experiment rebuilds those tables from scratch. [`DenseAnnotator`]
//! replaces all of it with three packed bitmaps (identified-entities,
//! labeled-triples, fully-labeled-clusters) over the store's dense index
//! space:
//!
//! * **memoization** is a bit test — no hashing, no probing, and at one
//!   bit per triple the whole memo for a 10^6-triple KG is ~125 KB, small
//!   enough to stay cache-resident where a 4-byte-per-entry table thrashes;
//! * **labels** come from the store's packed bitset — no virtual dispatch.
//!   Clusters an evolving population appended *pending* (see
//!   [`crate::label_store`]) are filled from the growth oracle the first
//!   time the arena touches them;
//! * **reset** between trials zeroes only the spans the trial actually
//!   touched (each mutating call logs one span in the bitmap's journal),
//!   so the arena is reused across trials at a cost proportional to the
//!   trial's own sample — independent of KG size — instead of
//!   reallocating and rehashing;
//! * **cluster fast path**: a fully-annotated cluster re-drawn by WCS (a
//!   with-replacement design!) answers from the precomputed `τ_i`, and a
//!   first full-cluster visit stamps its bits through the multi-word
//!   [`BitsetJournal::set_range`] kernel (head mask / `memset` interior /
//!   tail mask — see [`crate::bitset`]).
//!
//! Cost accounting is the same `Cost(G') = |E'|·c1 + |G'|·c2` (Definition
//! 3) derived from the memo counts, so on identical draw sequences the two
//! engines report byte-identical seconds.

use crate::annotator::Annotator;
use crate::bitset::{read_bits, BitsetJournal};
use crate::cost::CostModel;
use crate::label_store::LabelStore;
use crate::oracle::LabelOracle;
use kg_model::retract::{map_live_offset, Retraction, TombstoneMap};
use kg_model::triple::TripleRef;
use kg_model::update::UpdateBatch;
use std::collections::HashMap;
use std::sync::Arc;

/// Error from [`DenseAnnotator::try_extend_population`]: the update batch
/// cannot be reconciled with the engine's label store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DenseGrowthError {
    /// The batch's id range cannot be reconciled with the store: it starts
    /// past the end (leaving an unlabeled gap) or straddles it.
    IdGap {
        /// The next cluster id the store can mint.
        expected: u32,
        /// The id the batch claims.
        first_cluster: u32,
    },
    /// The batch mints fresh ids but the engine was built without a growth
    /// oracle ([`DenseAnnotator::new`]); use [`DenseAnnotator::growable`]
    /// or extend explicitly via [`DenseAnnotator::extend_with_batch`].
    NoGrowthOracle,
    /// Replay over a pre-evolved store found a cluster whose materialized
    /// size differs from the batch's `Δe` size — the replayed sequence is
    /// not the one the store was evolved with. Checked positions in
    /// release: range total and both boundary clusters (see
    /// [`DenseAnnotator::try_extend_population`]); the full scan runs
    /// under debug assertions.
    SizeMismatch {
        /// The conflicting cluster id.
        cluster: u32,
        /// Its size in the store.
        store: u32,
        /// Its size in the batch.
        batch: u32,
    },
}

impl std::fmt::Display for DenseGrowthError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DenseGrowthError::IdGap {
                expected,
                first_cluster,
            } => write!(
                f,
                "update batch starts at cluster {first_cluster} but the label store \
                 ends at {expected}: batches must arrive in order"
            ),
            DenseGrowthError::NoGrowthOracle => write!(
                f,
                "dense annotator has no growth oracle for delta-minted clusters; \
                 build it with DenseAnnotator::growable or call extend_with_batch"
            ),
            DenseGrowthError::SizeMismatch {
                cluster,
                store,
                batch,
            } => write!(
                f,
                "replayed batch disagrees with the evolved label store: cluster \
                 {cluster} has {store} triples materialized but {batch} in the batch"
            ),
        }
    }
}

impl std::error::Error for DenseGrowthError {}

/// A dense arena's memo in the compact form a session checkpoint stores
/// ([`DenseAnnotator::pack_memo`], [`DenseAnnotator::restore_memo`]).
///
/// Every labelled triple lies in an identified cluster (annotation
/// identifies a cluster before it labels any of its triples), so the
/// memo needs only the identified clusters and, for each, the labelled
/// bits of its raw range — not the arena's dense bitmaps, which cover
/// the whole population. The third bitmap, `cluster_full`, is a cache
/// and is derived on restore.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PackedMemo {
    /// Identified clusters, strictly increasing.
    pub identified: Vec<u32>,
    /// The labelled bits of each identified cluster's raw range, in
    /// cluster order and packed back to back, least significant bit
    /// first. The bits past the last range, up to the word boundary, are
    /// clear.
    pub labelled: Vec<u64>,
}

/// Why a [`PackedMemo`] does not fit an arena's label store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoError {
    /// Identified clusters are not strictly increasing.
    Unordered,
    /// An identified cluster lies past the store's extent.
    PastExtent,
    /// The labelled words do not cover exactly the identified ranges.
    Length,
    /// A labelled bit lies past the identified ranges, i.e. in a cluster
    /// that was never identified.
    Unidentified,
}

impl MemoError {
    /// A short static description, for typed codec errors.
    pub fn what(self) -> &'static str {
        match self {
            MemoError::Unordered => "memo clusters must be strictly increasing",
            MemoError::PastExtent => "memo cluster past the population extent",
            MemoError::Length => "memo labels must cover exactly the identified clusters",
            MemoError::Unidentified => "memo labels a triple of a cluster that was not identified",
        }
    }
}

impl std::fmt::Display for MemoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.what())
    }
}

impl std::error::Error for MemoError {}

/// Append the `len ≤ 64` low bits of `bits` to a packed stream that holds
/// `at` bits so far.
fn append_bits(words: &mut Vec<u64>, at: u64, len: u32, bits: u64) {
    let shift = (at & 63) as u32;
    if shift == 0 {
        words.push(bits);
        return;
    }
    *words.last_mut().expect("a partial word exists") |= bits << shift;
    if shift + len > 64 {
        words.push(bits >> (64 - shift));
    }
}

/// Dense annotator arena: label store + cost accounting + bitmap memo.
///
/// # Population scope
///
/// The arena covers the store's current population and **grows with it**:
/// evolving-KG update batches append delta-minted cluster ids through
/// [`DenseAnnotator::extend_with_batch`] (explicit oracle, labels filled at
/// once) or the [`Annotator::extend_population`] hook (growth oracle
/// configured via [`DenseAnnotator::growable`]), which the §6 incremental
/// evaluators invoke before annotating a batch — so the dense engine
/// drives the dynamic evaluators exactly like the hash engine does. Ids
/// beyond the store that were never announced through either path are
/// still a logic error (no labels exist for them);
/// [`DenseAnnotator::try_extend_population`] is the checked variant that
/// reports misuse as a typed [`DenseGrowthError`] instead of panicking.
///
/// # Labels on first touch
///
/// The hook appends the batch's clusters *pending*: only the store's
/// directory grows, in O(|Δe|). Every annotation call and
/// [`Annotator::retract`] fills a pending cluster from the growth oracle
/// before reading it, so a session that revives its store from a batch
/// log pays the oracle only for the clusters it annotates. Filling
/// writes into the store, so it needs the arena to own the store alone
/// and to carry a growth oracle. Touching a pending cluster of a shared
/// store, or without an oracle, is a caller logic error and panics; the
/// arena never copies a shared store to fill it.
pub struct DenseAnnotator {
    store: Arc<LabelStore>,
    cost: CostModel,
    /// Labels delta-minted clusters on first touch after the population
    /// grows ([`Annotator::extend_population`]); `None` for fixed
    /// populations.
    growth_oracle: Option<Arc<dyn LabelOracle + Send + Sync>>,
    /// Per-cluster identification bits.
    identified: BitsetJournal,
    /// Per-triple validation bits (global index space).
    labeled: BitsetJournal,
    /// Per-cluster "every triple labeled" bits (WCS/RCS fast path).
    cluster_full: BitsetJournal,
    n_identified: usize,
    n_labeled: usize,
    /// **Trial-state** tombstones ([`Annotator::retract`]): per-cluster
    /// sorted dead raw offsets. Deliberately *not* part of the shared
    /// [`LabelStore`]: the store stays the raw-label arena
    /// (replayed trials would otherwise observe final tombstone state
    /// mid-stream and diverge from the hash reference), and a trial
    /// [`DenseAnnotator::reset`] drops them in O(retractions this trial).
    /// A [resident](DenseAnnotator::resident) arena keeps them for the
    /// population's life.
    tombs: TombstoneMap,
    /// Correct-label count among each cluster's dead triples, maintained by
    /// [`Annotator::retract`] so the cluster fast path can answer live τ as
    /// `raw τ_i − dead τ_i` without rescanning.
    dead_tau: HashMap<u32, u32>,
}

impl DenseAnnotator {
    /// New arena over a shared label store. Allocates the bitmaps once;
    /// reuse the arena across trials via [`DenseAnnotator::reset`].
    pub fn new(store: Arc<LabelStore>, cost: CostModel) -> Self {
        Self::with_bitmaps(store, cost, None, BitsetJournal::with_capacity)
    }

    fn with_bitmaps(
        store: Arc<LabelStore>,
        cost: CostModel,
        growth_oracle: Option<Arc<dyn LabelOracle + Send + Sync>>,
        bitmap: fn(u64) -> BitsetJournal,
    ) -> Self {
        let n = store.num_clusters() as u64;
        let m = store.total_triples();
        DenseAnnotator {
            cost,
            growth_oracle,
            identified: bitmap(n),
            labeled: bitmap(m),
            cluster_full: bitmap(n),
            n_identified: 0,
            n_labeled: 0,
            tombs: TombstoneMap::new(),
            dead_tau: HashMap::new(),
            store,
        }
    }

    /// New arena for an **evolving** population: like [`DenseAnnotator::new`]
    /// but with a growth oracle that labels delta-minted clusters, on first
    /// touch, after an incremental evaluator announces an update batch via
    /// [`Annotator::extend_population`]. The oracle must be the one the
    /// store's filled clusters were labelled with.
    pub fn growable(
        store: Arc<LabelStore>,
        cost: CostModel,
        oracle: Arc<dyn LabelOracle + Send + Sync>,
    ) -> Self {
        Self::with_bitmaps(store, cost, Some(oracle), BitsetJournal::with_capacity)
    }

    /// A **resident** arena: like [`DenseAnnotator::growable`], but meant
    /// to live as long as the population it annotates (a served session)
    /// and never be reset, so its bitmaps keep no reset journal. Its memo
    /// and tombstones accumulate over the whole event stream, so
    /// [`Annotator::seconds`] is Definition 3 over everything annotated
    /// since the arena was built. A [`DenseAnnotator::reset`] still works,
    /// at O(capacity).
    pub fn resident(
        store: Arc<LabelStore>,
        cost: CostModel,
        oracle: Arc<dyn LabelOracle + Send + Sync>,
    ) -> Self {
        Self::with_bitmaps(store, cost, Some(oracle), BitsetJournal::unjournaled)
    }

    /// Append an update batch's clusters to the arena with their labels
    /// filled at once: the label store is extended
    /// (`LabelStore::extend_with_batch`, amortized O(|Δ|)) and the three
    /// bitmaps grow to cover the new ids, preserving every journal
    /// entry and memo bit — annotations from earlier batches stay reusable,
    /// which is the whole point of incremental evaluation.
    ///
    /// The store `Arc` is made unique first (copy-on-write): if other
    /// holders share it they keep the pre-batch snapshot. Hold the arena as
    /// the sole owner across an update sequence to grow strictly in place.
    pub fn extend_with_batch<O: LabelOracle + ?Sized>(&mut self, delta: &UpdateBatch, oracle: &O) {
        Arc::make_mut(&mut self.store).extend_with_batch(delta, oracle);
        self.grow_bitmaps();
    }

    /// Checked core of [`Annotator::extend_population`]: grow for a batch
    /// minting ids at `first_cluster` — its clusters are appended pending
    /// (`LabelStore::append_pending`, O(|Δe|)) and filled on first touch —
    /// no-op for a batch the store already covers (deterministic replay
    /// over a pre-evolved store), and a typed error for id gaps, replay
    /// shape mismatches, or growth without an oracle.
    ///
    /// Like [`DenseAnnotator::extend_with_batch`], growth makes the store
    /// `Arc` unique first (copy-on-write).
    ///
    /// Replay verification is O(1) in release: the covered range's triple
    /// total plus its first and last cluster sizes must match the batch.
    /// A wrong sequence whose mismatches compensate across *interior*
    /// clusters only (equal total, equal boundary sizes) is not detected
    /// here in release — the full per-cluster scan runs under debug
    /// assertions, because an O(|Δ|) prefix walk per batch would tax every
    /// dense trial at scale for a pure caller-logic error.
    pub fn try_extend_population(
        &mut self,
        first_cluster: u32,
        delta: &UpdateBatch,
    ) -> Result<(), DenseGrowthError> {
        let n = self.store.num_clusters() as u32;
        let sizes = delta.delta_sizes();
        if sizes.is_empty() {
            return Ok(());
        }
        if first_cluster > n || (first_cluster < n && n - first_cluster < sizes.len() as u32) {
            // A gap past the store end, or a batch straddling it: either
            // way the id range cannot be reconciled.
            return Err(DenseGrowthError::IdGap {
                expected: n,
                first_cluster,
            });
        }
        if first_cluster < n {
            // Replay: the ids are already materialized. O(1) shape check —
            // range total plus both boundary clusters (catches wrong
            // sequences, reorderings, and off-by-one shifts).
            let first = first_cluster as usize;
            let last = first + sizes.len() - 1;
            let lo = self.store.cluster_base(first);
            let hi = self.store.cluster_base(last) + self.store.cluster_size(last) as u64;
            let boundary_mismatch = |j: usize| {
                let have = self.store.cluster_size(first + j) as u32;
                (have != sizes[j]).then_some((first_cluster + j as u32, have, sizes[j]))
            };
            if let Some((cluster, have, batch)) = (hi - lo != delta.total_triples())
                .then(|| {
                    // Locate one offending cluster for the report.
                    sizes
                        .iter()
                        .enumerate()
                        .map(|(j, &s)| {
                            let c = first_cluster + j as u32;
                            (c, self.store.cluster_size(c as usize) as u32, s)
                        })
                        .find(|&(_, have, s)| have != s)
                        .expect("total mismatch implies a cluster mismatch")
                })
                .or_else(|| boundary_mismatch(0))
                .or_else(|| boundary_mismatch(sizes.len() - 1))
            {
                return Err(DenseGrowthError::SizeMismatch {
                    cluster,
                    store: have,
                    batch,
                });
            }
            #[cfg(debug_assertions)]
            for (j, &s) in sizes.iter().enumerate() {
                let cluster = first_cluster + j as u32;
                debug_assert_eq!(
                    self.store.cluster_size(cluster as usize) as u32,
                    s,
                    "replayed batch shape diverges at cluster {cluster}"
                );
            }
            return Ok(());
        }
        if self.growth_oracle.is_none() {
            return Err(DenseGrowthError::NoGrowthOracle);
        }
        Arc::make_mut(&mut self.store).append_pending(delta.delta_sizes());
        self.grow_bitmaps();
        Ok(())
    }

    /// Resize the three bitmaps to the store's current dimensions.
    fn grow_bitmaps(&mut self) {
        let n = self.store.num_clusters() as u64;
        self.identified.grow(n);
        self.cluster_full.grow(n);
        self.labeled.grow(self.store.total_triples());
    }

    /// Forget everything annotated so far, zeroing only the memo words the
    /// trial touched: cost proportional to the trial's sample, independent
    /// of the KG size, with all capacity retained.
    pub fn reset(&mut self) {
        self.identified.reset();
        self.labeled.reset();
        self.cluster_full.reset();
        self.n_identified = 0;
        self.n_labeled = 0;
        // Tombstones are trial state: a replay re-applies its retraction
        // events from scratch, so clearing here (O(retracted clusters),
        // capacity kept) keeps reset footprint-proportional.
        self.tombs.clear();
        self.dead_tau.clear();
    }

    /// The shared label store.
    pub fn store(&self) -> &Arc<LabelStore> {
        &self.store
    }

    /// The cost model in use.
    pub fn cost_model(&self) -> CostModel {
        self.cost
    }

    /// The tombstones retracted into this arena so far.
    pub fn tombstones(&self) -> &TombstoneMap {
        &self.tombs
    }

    /// The memo in compact form: the identified clusters and the
    /// labelled bits of exactly their raw ranges. Costs O(clusters / 64 +
    /// identified triples); see [`PackedMemo`].
    pub fn pack_memo(&self) -> PackedMemo {
        let mut memo = PackedMemo {
            identified: Vec::with_capacity(self.n_identified),
            labelled: Vec::new(),
        };
        let mut len = 0u64;
        for c in self.identified.ones() {
            memo.identified.push(c as u32);
            let base = self.store.cluster_base(c as usize);
            let size = self.store.cluster_size(c as usize) as u64;
            let mut done = 0u64;
            while done < size {
                let take = (size - done).min(64) as u32;
                let bits = self.labeled.bits_at(base + done, take);
                append_bits(&mut memo.labelled, len, take, bits);
                len += u64::from(take);
                done += u64::from(take);
            }
        }
        memo
    }

    /// Lay a [`PackedMemo`] into a fresh arena over the store it was
    /// packed from (or one with the same directory), so the arena charges
    /// exactly as the packing arena would have. `cluster_full` is derived:
    /// a cluster is full when every one of its raw triples is labelled.
    /// The memo is checked whole before anything is written, and a memo
    /// that does not fit the store is a typed [`MemoError`].
    pub fn restore_memo(&mut self, memo: &PackedMemo) -> Result<(), MemoError> {
        debug_assert_eq!((self.n_identified, self.n_labeled), (0, 0), "fresh arena");
        let clusters = self.store.num_clusters() as u64;
        let mut bits = 0u64;
        let mut prev: Option<u32> = None;
        for &c in &memo.identified {
            if prev.is_some_and(|p| p >= c) {
                return Err(MemoError::Unordered);
            }
            if u64::from(c) >= clusters {
                return Err(MemoError::PastExtent);
            }
            prev = Some(c);
            bits += self.store.cluster_size(c as usize) as u64;
        }
        if memo.labelled.len() as u64 != bits.div_ceil(64) {
            return Err(MemoError::Length);
        }
        if !bits.is_multiple_of(64) && memo.labelled.last().is_some_and(|&w| w >> (bits % 64) != 0)
        {
            return Err(MemoError::Unidentified);
        }
        let mut at = 0u64;
        for &c in &memo.identified {
            let base = self.store.cluster_base(c as usize);
            let size = self.store.cluster_size(c as usize) as u64;
            if self.identified.set(u64::from(c)) {
                self.n_identified += 1;
            }
            let mut fresh = 0u64;
            let mut done = 0u64;
            while done < size {
                let take = (size - done).min(64) as u32;
                let word = read_bits(&memo.labelled, at + done, take);
                fresh += self.labeled.or_bits(base + done, take, word);
                done += u64::from(take);
            }
            if fresh == size {
                self.cluster_full.set(u64::from(c));
            }
            self.n_labeled += fresh as usize;
            at += size;
        }
        Ok(())
    }

    /// Touch a cluster before reading its labels: fill it if pending, and
    /// charge entity identification if it is new this trial.
    #[inline]
    fn touch(&mut self, cluster: u32) {
        self.fill_if_pending(cluster);
        if self.identified.set(cluster as u64) {
            self.n_identified += 1;
        }
    }

    /// Fill a pending cluster's labels from the growth oracle. Stores with
    /// no pending cluster pay one predictable branch.
    #[inline]
    fn fill_if_pending(&mut self, cluster: u32) {
        if self.store.is_pending(cluster as usize) {
            self.fill(cluster);
        }
    }

    #[cold]
    #[inline(never)]
    fn fill(&mut self, cluster: u32) {
        let oracle = self
            .growth_oracle
            .as_deref()
            .expect("pending cluster touched by a dense annotator without a growth oracle");
        Arc::get_mut(&mut self.store)
            .expect("pending cluster touched through a shared label store")
            .fill_cluster(cluster as usize, oracle);
    }

    /// Mark one global triple validated if new; returns its label.
    #[inline]
    fn validate(&mut self, global: u64) -> bool {
        if self.labeled.set(global) {
            self.n_labeled += 1;
        }
        self.store.label_at(global)
    }
}

impl Annotator for DenseAnnotator {
    fn annotate_into(&mut self, refs: &[TripleRef], out: &mut Vec<bool>) {
        out.clear();
        out.reserve(refs.len());
        for &r in refs {
            self.touch(r.cluster);
            let g = self.store.global_index(r);
            out.push(self.validate(g));
        }
    }

    fn annotate_indexed_into(&mut self, refs: &[TripleRef], globals: &[u64], out: &mut Vec<bool>) {
        debug_assert_eq!(refs.len(), globals.len());
        out.clear();
        out.reserve(refs.len());
        for (&r, &g) in refs.iter().zip(globals) {
            debug_assert_eq!(g, self.store.global_index(r));
            self.touch(r.cluster);
            out.push(self.validate(g));
        }
    }

    fn annotate_one(&mut self, r: TripleRef) -> bool {
        self.touch(r.cluster);
        let g = self.store.global_index(r);
        self.validate(g)
    }

    fn annotate_cluster_sited(&mut self, cluster: u32, base: u64, size: usize) -> u32 {
        // Fast path for PPS draw loops that carry the cluster's base in the
        // alias slot: the arena stamp `[base, base + size)` depends only on
        // values the caller already has, so the only store access left on
        // the visit's serial chain is the τ read — one dependent load
        // shallower than `annotate_cluster`, which must fetch the base from
        // the cluster directory before it can touch the arena.
        if self.tombs.is_empty() {
            debug_assert_eq!(size, self.store.cluster_size(cluster as usize));
            debug_assert_eq!(base, self.store.cluster_base(cluster as usize));
            self.touch(cluster);
            if self.cluster_full.set(cluster as u64) {
                self.n_labeled += self.labeled.set_range(base, base + size as u64) as usize;
            }
            return self.store.cluster_tau(cluster as usize);
        }
        // Tombstones present: `size` is the live size and the stamp must
        // skip dead offsets — take the full path (the base hint is
        // recomputed there).
        self.annotate_cluster(cluster, size)
    }

    fn annotate_cluster(&mut self, cluster: u32, size: usize) -> u32 {
        let c = cluster as usize;
        // `dead_in` is a hash probe; skip it on the overwhelmingly common
        // tombstone-free path (one integer compare) — this sits inside
        // every full-cluster visit of every WCS/RCS trial.
        let dead_n = if self.tombs.is_empty() {
            0
        } else {
            self.tombs.dead_in(cluster) as usize
        };
        if dead_n == 0 {
            debug_assert_eq!(size, self.store.cluster_size(c));
            self.touch(cluster);
            if self.cluster_full.set(cluster as u64) {
                // First full visit this trial: stamp the cluster's bit
                // range a word at a time; mixed access (a TWCS subset
                // followed by a full WCS draw of the same cluster) stays
                // exactly charged.
                let base = self.store.cluster_base(c);
                self.n_labeled += self.labeled.set_range(base, base + size as u64) as usize;
            }
            return self.store.cluster_tau(c);
        }
        // Tombstoned cluster: `size` is the LIVE size; only surviving raw
        // offsets are stamped, and live τ answers from raw τ_i minus the
        // dead correct count — the same distinct-triple set and count the
        // hash reference produces.
        debug_assert_eq!(size + dead_n, self.store.cluster_size(c));
        self.touch(cluster);
        if self.cluster_full.set(cluster as u64) {
            let base = self.store.cluster_base(c);
            let raw_size = self.store.cluster_size(c) as u32;
            let Self {
                tombs,
                labeled,
                n_labeled,
                ..
            } = self;
            let dead = tombs.cluster(cluster).expect("dead_n > 0");
            let mut di = 0usize;
            for o in 0..raw_size {
                if dead.get(di) == Some(&o) {
                    di += 1;
                    continue;
                }
                if labeled.set(base + o as u64) {
                    *n_labeled += 1;
                }
            }
        }
        self.store.cluster_tau(c) - self.dead_tau.get(&cluster).copied().unwrap_or(0)
    }

    fn annotate_offsets(&mut self, cluster: u32, offsets: &[usize]) -> u32 {
        // LIVE offsets: translated through the trial tombstones (identity
        // for untombstoned clusters, the overwhelmingly common case).
        self.touch(cluster);
        let base = self.store.cluster_base(cluster as usize);
        let Self {
            store,
            tombs,
            labeled,
            n_labeled,
            ..
        } = self;
        let dead: &[u32] = if tombs.is_empty() {
            &[]
        } else {
            tombs.cluster(cluster).unwrap_or(&[])
        };
        let mut tau = 0u32;
        for &o in offsets {
            let g = base + map_live_offset(dead, o as u32) as u64;
            if labeled.set(g) {
                *n_labeled += 1;
            }
            tau += store.label_at(g) as u32;
        }
        tau
    }

    fn seconds(&self) -> f64 {
        self.n_identified as f64 * self.cost.c1 + self.n_labeled as f64 * self.cost.c2
    }

    fn entities_identified(&self) -> usize {
        self.n_identified
    }

    fn triples_annotated(&self) -> usize {
        self.n_labeled
    }

    fn extend_population(&mut self, first_cluster: u32, delta: &UpdateBatch) {
        self.try_extend_population(first_cluster, delta)
            .unwrap_or_else(|e| panic!("dense annotator cannot absorb update batch: {e}"));
    }

    fn retract(&mut self, retraction: &Retraction) {
        // Count the correct labels among the dying triples (from the raw
        // store — deterministic, independent of annotation history) so the
        // cluster fast path can answer live τ without rescanning; then
        // record the tombstones. Memo bits are untouched: sunk cost.
        for (cluster, offsets) in retraction.entries() {
            self.fill_if_pending(*cluster);
            let base = self.store.cluster_base(*cluster as usize);
            let mut dead_correct = 0u32;
            for &o in offsets.iter() {
                dead_correct += self.store.label_at(base + o as u64) as u32;
            }
            if dead_correct > 0 {
                *self.dead_tau.entry(*cluster).or_insert(0) += dead_correct;
            }
        }
        self.tombs.apply(retraction);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotator::SimulatedAnnotator;
    use crate::oracle::{GoldLabels, RemOracle};
    use kg_model::implicit::ImplicitKg;

    fn store() -> Arc<LabelStore> {
        let gold = GoldLabels::new(vec![
            vec![true, false, true], // cluster 0
            vec![true],              // cluster 1
            vec![false, false],      // cluster 2
        ]);
        let kg = ImplicitKg::new(vec![3, 1, 2]).unwrap();
        Arc::new(LabelStore::materialize(&kg, &gold))
    }

    #[test]
    fn matches_hash_annotator_on_mixed_workload() {
        let store = store();
        let gold = GoldLabels::new(vec![
            vec![true, false, true],
            vec![true],
            vec![false, false],
        ]);
        let cost = CostModel::new(45.0, 25.0);
        let mut dense = DenseAnnotator::new(store, cost);
        let mut hash = SimulatedAnnotator::new(&gold, cost);

        let refs = [
            TripleRef::new(2, 1),
            TripleRef::new(0, 0),
            TripleRef::new(2, 1), // repeat
        ];
        let mut dout = Vec::new();
        let mut hout = Vec::new();
        dense.annotate_into(&refs, &mut dout);
        hash.annotate_into(&refs, &mut hout);
        assert_eq!(dout, hout);

        assert_eq!(dense.annotate_cluster(0, 3), hash.annotate_cluster(0, 3));
        assert_eq!(
            dense.annotate_offsets(1, &[0]),
            hash.annotate_offsets(1, &[0])
        );
        assert_eq!(dense.annotate_one(TripleRef::new(2, 0)), {
            hash.annotate_one(TripleRef::new(2, 0))
        });
        assert_eq!(dense.seconds(), hash.seconds());
        assert_eq!(dense.entities_identified(), hash.entities_identified());
        assert_eq!(dense.triples_annotated(), hash.triples_annotated());
    }

    #[test]
    fn repeats_and_full_cluster_fast_path_are_free() {
        let store = store();
        let mut a = DenseAnnotator::new(store, CostModel::new(45.0, 25.0));
        let tau = a.annotate_cluster(0, 3);
        assert_eq!(tau, 2);
        let cost = a.seconds();
        assert!((cost - (45.0 + 3.0 * 25.0)).abs() < 1e-9);
        // Re-draws (WCS samples with replacement) answer from τ_i.
        assert_eq!(a.annotate_cluster(0, 3), 2);
        assert_eq!(a.annotate_offsets(0, &[1, 2]), 1);
        assert_eq!(a.seconds(), cost);
        assert_eq!(a.triples_annotated(), 3);
        assert_eq!(a.entities_identified(), 1);
    }

    #[test]
    fn subset_then_full_cluster_charges_exactly_once() {
        let store = store();
        let mut a = DenseAnnotator::new(store, CostModel::new(45.0, 25.0));
        assert_eq!(a.annotate_offsets(0, &[1]), 0);
        assert!((a.seconds() - (45.0 + 25.0)).abs() < 1e-9);
        // Full draw of the same cluster pays only the two missing triples.
        assert_eq!(a.annotate_cluster(0, 3), 2);
        assert!((a.seconds() - (45.0 + 3.0 * 25.0)).abs() < 1e-9);
        assert_eq!(a.triples_annotated(), 3);
    }

    #[test]
    fn reset_is_a_fresh_trial() {
        let store = store();
        let mut a = DenseAnnotator::new(store, CostModel::default());
        a.annotate_cluster(0, 3);
        a.annotate_one(TripleRef::new(1, 0));
        assert!(a.seconds() > 0.0);
        a.reset();
        assert_eq!(a.seconds(), 0.0);
        assert_eq!(a.entities_identified(), 0);
        assert_eq!(a.triples_annotated(), 0);
        // Previously annotated triples are charged again after reset.
        a.annotate_one(TripleRef::new(0, 0));
        assert_eq!(a.triples_annotated(), 1);
        assert_eq!(a.entities_identified(), 1);
        // And repeated resets keep the journal bounded.
        for _ in 0..5 {
            a.reset();
            assert_eq!(a.annotate_cluster(2, 2), 0);
            assert_eq!(a.triples_annotated(), 2);
        }
    }

    #[test]
    fn store_and_cost_accessors() {
        let store = store();
        let a = DenseAnnotator::new(store.clone(), CostModel::default());
        assert!(Arc::ptr_eq(a.store(), &store));
        assert_eq!(a.cost_model(), CostModel::default());
    }

    #[test]
    fn appended_ids_grow_the_arena_instead_of_panicking() {
        // Regression for the footgun the old doc comment warned about: an
        // incremental evaluator mints cluster ids past the materialized
        // snapshot and annotates them. Pre-growth this panicked with an
        // index out of bounds; now the batch grows store + bitmaps and the
        // delta ids are first-class.
        let kg = ImplicitKg::new(vec![4; 10]).unwrap();
        let oracle = RemOracle::new(0.8, 3);
        let store = Arc::new(LabelStore::materialize(&kg, &oracle));
        let mut dense =
            DenseAnnotator::growable(store, CostModel::new(45.0, 25.0), Arc::new(oracle));
        let mut hash = SimulatedAnnotator::new(&oracle, CostModel::new(45.0, 25.0));

        // Annotate some base clusters first (their memo must survive).
        assert_eq!(dense.annotate_cluster(3, 4), hash.annotate_cluster(3, 4));

        // A batch arrives, minting ids 10 and 11.
        let delta = UpdateBatch::from_sizes(vec![7, 200]).unwrap();
        dense.extend_population(10, &delta);
        assert_eq!(dense.store().num_clusters(), 12);
        assert_eq!(dense.annotate_cluster(10, 7), hash.annotate_cluster(10, 7));
        assert_eq!(
            dense.annotate_offsets(11, &[0, 63, 64, 199]),
            hash.annotate_offsets(11, &[0, 63, 64, 199])
        );
        // Base memo survived growth: re-drawing cluster 3 is still free.
        let cost = dense.seconds();
        dense.annotate_cluster(3, 4);
        assert_eq!(dense.seconds(), cost);
        assert_eq!(dense.seconds(), {
            hash.annotate_cluster(3, 4);
            hash.seconds()
        });
        assert_eq!(dense.triples_annotated(), hash.triples_annotated());
        assert_eq!(dense.entities_identified(), hash.entities_identified());
        // The hash engine treats the same hook as a no-op.
        hash.extend_population(12, &UpdateBatch::from_sizes(vec![1]).unwrap());
    }

    #[test]
    fn replay_over_pre_evolved_store_is_a_no_op() {
        let kg = ImplicitKg::new(vec![2; 5]).unwrap();
        let oracle = RemOracle::new(0.6, 9);
        let mut store = LabelStore::materialize(&kg, &oracle);
        let delta = UpdateBatch::from_sizes(vec![3, 1]).unwrap();
        store.extend_with_batch(&delta, &oracle);
        // No growth oracle needed: the store already covers the replayed ids.
        let mut dense = DenseAnnotator::new(Arc::new(store), CostModel::default());
        assert_eq!(dense.try_extend_population(5, &delta), Ok(()));
        assert_eq!(dense.store().num_clusters(), 7);
        assert_eq!(dense.annotate_cluster(5, 3), {
            let mut h = SimulatedAnnotator::new(&oracle, CostModel::default());
            h.annotate_cluster(5, 3)
        });
    }

    #[test]
    fn checked_growth_reports_typed_errors() {
        let kg = ImplicitKg::new(vec![2; 5]).unwrap();
        let oracle = RemOracle::new(0.6, 9);
        let store = Arc::new(LabelStore::materialize(&kg, &oracle));
        let mut fixed = DenseAnnotator::new(store.clone(), CostModel::default());
        let delta = UpdateBatch::from_sizes(vec![3]).unwrap();
        // Fresh ids without a growth oracle.
        assert_eq!(
            fixed.try_extend_population(5, &delta),
            Err(DenseGrowthError::NoGrowthOracle)
        );
        // Id gap (batch skips id 5) and straddling ranges.
        assert_eq!(
            fixed.try_extend_population(6, &delta),
            Err(DenseGrowthError::IdGap {
                expected: 5,
                first_cluster: 6
            })
        );
        assert_eq!(
            fixed.try_extend_population(4, &UpdateBatch::from_sizes(vec![2, 9]).unwrap()),
            Err(DenseGrowthError::IdGap {
                expected: 5,
                first_cluster: 4
            })
        );
        // Replay whose shape disagrees with the materialized snapshot.
        assert_eq!(
            fixed.try_extend_population(4, &UpdateBatch::from_sizes(vec![9]).unwrap()),
            Err(DenseGrowthError::SizeMismatch {
                cluster: 4,
                store: 2,
                batch: 9
            })
        );
        // A reordered replay with the *same total* is still rejected: the
        // boundary clusters are checked even when the range total matches.
        let kg2 = ImplicitKg::new(vec![2; 3]).unwrap();
        let mut store2 = LabelStore::materialize(&kg2, &oracle);
        store2.extend_with_batch(&UpdateBatch::from_sizes(vec![3, 2, 1]).unwrap(), &oracle);
        let mut evolved = DenseAnnotator::new(Arc::new(store2), CostModel::default());
        assert_eq!(
            evolved.try_extend_population(3, &UpdateBatch::from_sizes(vec![1, 2, 3]).unwrap()),
            Err(DenseGrowthError::SizeMismatch {
                cluster: 3,
                store: 3,
                batch: 1
            })
        );
        // Empty batches are always fine.
        assert_eq!(
            fixed.try_extend_population(42, &UpdateBatch::from_sizes(vec![]).unwrap()),
            Ok(())
        );
        // Errors render actionable messages.
        let msg = DenseGrowthError::NoGrowthOracle.to_string();
        assert!(msg.contains("growable"), "{msg}");
    }

    #[test]
    fn retraction_matches_hash_engine_on_live_addressing() {
        let kg = ImplicitKg::new(vec![6, 3, 5]).unwrap();
        let oracle = RemOracle::new(0.7, 13);
        let store = Arc::new(LabelStore::materialize(&kg, &oracle));
        let cost = CostModel::new(45.0, 25.0);
        let mut dense = DenseAnnotator::new(store, cost);
        let mut hash = SimulatedAnnotator::new(&oracle, cost);

        // Annotate some of cluster 0 before anything dies (sunk cost).
        assert_eq!(dense.annotate_offsets(0, &[1, 4]), {
            hash.annotate_offsets(0, &[1, 4])
        });
        let r = Retraction::new(vec![(0, vec![0, 4]), (2, vec![2])]).unwrap();
        dense.retract(&r);
        hash.retract(&r);
        assert_eq!(dense.seconds(), hash.seconds(), "retraction is free");
        // Live full-cluster visits agree on τ, cost, and memo counts.
        assert_eq!(dense.annotate_cluster(0, 4), hash.annotate_cluster(0, 4));
        assert_eq!(dense.annotate_cluster(2, 4), hash.annotate_cluster(2, 4));
        assert_eq!(dense.seconds(), hash.seconds());
        assert_eq!(dense.triples_annotated(), hash.triples_annotated());
        // Live subset addressing agrees too (and re-visits stay free).
        assert_eq!(dense.annotate_offsets(0, &[0, 3]), {
            hash.annotate_offsets(0, &[0, 3])
        });
        assert_eq!(dense.annotate_offsets(2, &[1, 3]), {
            hash.annotate_offsets(2, &[1, 3])
        });
        assert_eq!(dense.seconds(), hash.seconds());
        // Untouched cluster 1 keeps identity addressing.
        assert_eq!(dense.annotate_cluster(1, 3), hash.annotate_cluster(1, 3));
        assert_eq!(dense.seconds(), hash.seconds());
        assert_eq!(dense.entities_identified(), hash.entities_identified());
    }

    #[test]
    fn stacked_retractions_shrink_the_live_view_consistently() {
        let kg = ImplicitKg::new(vec![8]).unwrap();
        let oracle = RemOracle::new(0.5, 21);
        let store = Arc::new(LabelStore::materialize(&kg, &oracle));
        let cost = CostModel::new(45.0, 25.0);
        let mut dense = DenseAnnotator::new(store, cost);
        let mut hash = SimulatedAnnotator::new(&oracle, cost);
        // Full visit, then two successive retractions of the same cluster.
        assert_eq!(dense.annotate_cluster(0, 8), hash.annotate_cluster(0, 8));
        let r1 = Retraction::new(vec![(0, vec![1, 5])]).unwrap();
        dense.retract(&r1);
        hash.retract(&r1);
        assert_eq!(dense.annotate_cluster(0, 6), hash.annotate_cluster(0, 6));
        // Second retraction addresses RAW offsets of previously-live
        // triples (raw 0 and raw 7).
        let r2 = Retraction::new(vec![(0, vec![0, 7])]).unwrap();
        dense.retract(&r2);
        hash.retract(&r2);
        assert_eq!(dense.annotate_cluster(0, 4), hash.annotate_cluster(0, 4));
        assert_eq!(dense.annotate_offsets(0, &[0, 1, 2, 3]), {
            hash.annotate_offsets(0, &[0, 1, 2, 3])
        });
        // Everything was memoized pre-retraction: no new charges at all.
        assert_eq!(dense.seconds(), hash.seconds());
        assert_eq!(dense.triples_annotated(), 8);
        assert_eq!(hash.triples_annotated(), 8);
    }

    #[test]
    fn reset_clears_tombstones_for_the_next_replay() {
        let kg = ImplicitKg::new(vec![4, 2]).unwrap();
        let oracle = RemOracle::new(0.6, 5);
        let store = Arc::new(LabelStore::materialize(&kg, &oracle));
        let mut dense = DenseAnnotator::new(store.clone(), CostModel::default());
        let r = Retraction::new(vec![(0, vec![0, 2])]).unwrap();
        dense.retract(&r);
        let live_tau = dense.annotate_cluster(0, 2);
        dense.reset();
        // Fresh trial: the full raw cluster is live again.
        assert_eq!(dense.annotate_cluster(0, 4), store.cluster_tau(0));
        assert_eq!(dense.triples_annotated(), 4);
        // And replaying the retraction reproduces the first trial exactly.
        dense.reset();
        dense.retract(&r);
        assert_eq!(dense.annotate_cluster(0, 2), live_tau);
        assert_eq!(dense.triples_annotated(), 2);
    }

    /// A resident arena over a base of 30 clusters grown by a pending
    /// batch, after mixed annotation and a retraction.
    fn annotated_resident() -> (DenseAnnotator, UpdateBatch) {
        let kg = ImplicitKg::new((0..30).map(|i| 1 + i % 70).collect()).unwrap();
        let oracle = RemOracle::new(0.7, 17);
        let store = Arc::new(LabelStore::materialize(&kg, &oracle));
        let mut a = DenseAnnotator::resident(store, CostModel::default(), Arc::new(oracle));
        let delta = UpdateBatch::from_sizes(vec![3, 90, 1, 65]).unwrap();
        a.extend_population(30, &delta);
        a.annotate_cluster(29, 30);
        a.annotate_offsets(3, &[0, 2]);
        a.annotate_cluster(31, 90);
        a.annotate_one(TripleRef::new(33, 64));
        a.retract(&Retraction::new(vec![(31, vec![4, 5]), (12, vec![0])]).unwrap());
        a.annotate_cluster(12, 12);
        (a, delta)
    }

    #[test]
    fn packed_memo_restores_the_same_charges() {
        let (mut a, delta) = annotated_resident();
        let memo = a.pack_memo();
        assert_eq!(memo.identified, vec![3, 12, 29, 31, 33]);
        // A fresh arena over the same directory: the labelled clusters
        // come back pending, as a revived session's do.
        let kg = ImplicitKg::new((0..30).map(|i| 1 + i % 70).collect()).unwrap();
        let oracle = RemOracle::new(0.7, 17);
        let mut store = LabelStore::materialize(&kg, &oracle);
        store.append_pending(delta.delta_sizes());
        let mut b =
            DenseAnnotator::resident(Arc::new(store), CostModel::default(), Arc::new(oracle));
        b.restore_memo(&memo).unwrap();
        b.retract(&Retraction::new(vec![(12, vec![0]), (31, vec![4, 5])]).unwrap());
        assert_eq!(b.seconds(), a.seconds());
        assert_eq!(b.pack_memo(), memo);
        // Both charge the same from here on: memoized triples stay free.
        for arena in [&mut a, &mut b] {
            arena.annotate_cluster(31, 88);
            arena.annotate_cluster(29, 30);
            arena.annotate_offsets(33, &[0, 64]);
            arena.annotate_cluster(3, 4);
        }
        assert_eq!(b.seconds(), a.seconds());
        assert_eq!(b.triples_annotated(), a.triples_annotated());
        assert_eq!(b.entities_identified(), a.entities_identified());
    }

    #[test]
    fn hostile_packed_memos_are_typed_errors() {
        let (a, _) = annotated_resident();
        let memo = a.pack_memo();
        let fresh = || {
            let store = a.store().clone();
            DenseAnnotator::resident(
                store,
                CostModel::default(),
                Arc::new(RemOracle::new(0.7, 17)),
            )
        };
        let mut bad = memo.clone();
        bad.identified.swap(0, 1);
        assert_eq!(fresh().restore_memo(&bad), Err(MemoError::Unordered));
        let mut bad = memo.clone();
        *bad.identified.last_mut().unwrap() = 34;
        assert_eq!(fresh().restore_memo(&bad), Err(MemoError::PastExtent));
        let mut bad = memo.clone();
        bad.labelled.push(1);
        assert_eq!(fresh().restore_memo(&bad), Err(MemoError::Length));
        let mut bad = memo.clone();
        *bad.labelled.last_mut().unwrap() |= 1 << 63;
        assert_eq!(fresh().restore_memo(&bad), Err(MemoError::Unidentified));
        let mut ok = fresh();
        ok.restore_memo(&memo).unwrap();
        assert_eq!(ok.seconds(), a.seconds());
    }

    #[test]
    fn works_with_procedural_oracles() {
        let kg = ImplicitKg::new(vec![5; 40]).unwrap();
        let rem = RemOracle::new(0.8, 7);
        let store = Arc::new(LabelStore::materialize(&kg, &rem));
        let mut a = DenseAnnotator::new(store.clone(), CostModel::default());
        let mut tau = 0;
        for c in 0..40u32 {
            tau += a.annotate_cluster(c, 5);
        }
        assert_eq!(tau as f64 / 200.0, store.true_accuracy());
        assert_eq!(a.triples_annotated(), 200);
    }
}
