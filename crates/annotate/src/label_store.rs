//! Dense, materialized label storage: one bit per triple, addressed by the
//! population's global triple index.
//!
//! Every trial of every experiment consults the same oracle about the same
//! triples; materializing the labels **once per KG** into a packed bitset
//! turns the per-triple `&dyn LabelOracle` virtual call plus procedural
//! hashing (REM/BMM) or nested-`Vec` indirection (gold labels) into a single
//! indexed bit test. A fully filled store is read-only and `Sync`, so one
//! `Arc` is shared across all trials (and threads) of an experiment.
//!
//! # Lazy growth
//!
//! An evolving population grows the store in two parts. The **directory**
//! (prefix sums, per-cluster base and size, the bitset length) is appended
//! eagerly by [`LabelStore::append_pending`]; each new cluster's label bits
//! and `τ_i` are *pending* until [`LabelStore::fill_cluster`] consults the
//! oracle for it. Labels are a pure function of `(oracle, cluster, offset)`,
//! so a cluster filled late holds exactly the bits an eager fill would
//! have written. [`DenseAnnotator`](crate::dense::DenseAnnotator) fills a
//! cluster the first time it touches it, so a revived session pays for
//! the clusters its requests annotate, not for its whole batch history.
//! [`LabelStore::extend_with_batch`] appends and fills at once. Stores
//! built by [`LabelStore::materialize`] have no pending clusters, and the
//! readers pay one predictable branch on the store's pending count.
//!
//! Global addressing reuses the same prefix-sum layout as
//! `kg_sampling::PopulationIndex` — triple `(c, o)` lives at
//! `prefix[c] + o` — and the prefix vector itself is shared via `Arc` when
//! the store is built from an existing index
//! (`PopulationIndex::materialize_labels`).

use crate::bitset::popcount_range;
use crate::oracle::LabelOracle;
use kg_model::implicit::ClusterPopulation;
use kg_model::retract::Retraction;
use kg_model::triple::TripleRef;
use kg_model::update::UpdateBatch;
use std::sync::Arc;

/// `τ_i` sentinel of a pending cluster: its label bits are not filled yet.
/// No real cluster reaches it, since [`LabelStore::append_pending`] caps
/// cluster sizes below it.
const PENDING: u32 = u32::MAX;

/// Per-cluster directory record: everything the full-cluster annotation
/// fast path needs — base global index, correct count `τ_i`, and size —
/// in one 16-byte load. The hot WCS loop visits clusters in random order,
/// so each visit's metadata reads are cache misses; folding three
/// parallel-array lookups (`prefix[c]`, `prefix[c+1]`, `tau[c]`) into one
/// record turns three potential misses into one.
#[derive(Debug, Clone, Copy)]
struct ClusterDir {
    /// Global index of the cluster's first triple (`prefix[c]`).
    base: u64,
    /// Correct-triple count `τ_i` ([`PENDING`] until filled).
    tau: u32,
    /// Cluster size `M_i`.
    size: u32,
}

/// Packed per-triple labels for a clustered population, with per-cluster
/// correct counts (`τ_i`) computed when a cluster is filled (see the
/// module docs on lazy growth).
#[derive(Debug, Clone)]
pub struct LabelStore {
    /// Packed labels, bit `g` = label of the triple with global index `g`.
    bits: Vec<u64>,
    /// Prefix sums over cluster sizes: `prefix[c]` is the global index of
    /// cluster `c`'s first triple; `prefix[N]` is the total `M`.
    prefix: Arc<Vec<u64>>,
    /// Per-cluster directory records (base, τ_i, size).
    dir: Vec<ClusterDir>,
    /// Dense τ_i mirror of `dir` for the full-cluster visit fast path:
    /// 16 entries per cache line against the directory's 4, and small
    /// enough (4 bytes/cluster) to stay cache-resident at scales where the
    /// 16-byte directory records spill to DRAM. `cluster_tau` is the one
    /// load left on a sited PPS visit's dependent chain after the alias
    /// slot, so its cache density directly bounds visit throughput.
    taus: Vec<u32>,
    /// Total correct triples `τ` over the filled clusters.
    correct: u64,
    /// Clusters whose labels are not filled yet (τ is [`PENDING`]).
    pending: usize,
    /// Tombstone bitmap, same global addressing as `bits` (empty until the
    /// first [`LabelStore::retract`] — insert-only stores pay nothing).
    dead: Vec<u64>,
    /// Total retracted triples.
    dead_total: u64,
    /// Retracted triples whose label was `true`.
    dead_correct: u64,
}

impl LabelStore {
    /// Materialize an oracle over a population (prefix sums built here).
    pub fn materialize<P: ClusterPopulation + ?Sized, O: LabelOracle + ?Sized>(
        pop: &P,
        oracle: &O,
    ) -> Self {
        let n = pop.num_clusters();
        let mut prefix = Vec::with_capacity(n + 1);
        let mut acc = 0u64;
        prefix.push(0);
        for c in 0..n {
            acc += pop.cluster_size(c) as u64;
            prefix.push(acc);
        }
        Self::from_prefix(Arc::new(prefix), oracle)
    }

    /// Materialize an oracle over an existing prefix-sum layout (shared
    /// with a sampling index, so the two agree on global addressing by
    /// construction).
    pub fn from_prefix<O: LabelOracle + ?Sized>(prefix: Arc<Vec<u64>>, oracle: &O) -> Self {
        assert!(
            !prefix.is_empty() && prefix[0] == 0,
            "prefix sums must start at 0"
        );
        let n = prefix.len() - 1;
        let total = prefix[n];
        let mut bits = vec![0u64; total.div_ceil(64) as usize];
        let mut dir = Vec::with_capacity(n);
        let mut taus = Vec::with_capacity(n);
        let mut correct = 0u64;
        for c in 0..n {
            let base = prefix[c];
            let size = (prefix[c + 1] - base) as usize;
            for o in 0..size {
                if oracle.label(TripleRef::new(c as u32, o as u32)) {
                    let g = base + o as u64;
                    bits[(g >> 6) as usize] |= 1u64 << (g & 63);
                }
            }
            // τ_i from the packed bits via the batched popcount kernel —
            // the oracle loop stays a pure bit-setter.
            let tau = popcount_range(&bits, base, base + size as u64) as u32;
            dir.push(ClusterDir {
                base,
                tau,
                size: size as u32,
            });
            taus.push(tau);
            correct += tau as u64;
        }
        LabelStore {
            bits,
            prefix,
            dir,
            taus,
            correct,
            pending: 0,
            dead: Vec::new(),
            dead_total: 0,
            dead_correct: 0,
        }
    }

    /// Append an update batch's `Δe` clusters and fill them: the packed
    /// bitset, the prefix sums, and the per-cluster `τ_i` grow in
    /// amortized O(|Δ|), minting cluster ids `N, N+1, …` for the batch
    /// groups in order — the same id assignment as [`UpdateBatch::apply_to`]
    /// and the §6 incremental evaluators. The oracle is consulted exactly
    /// once per inserted triple, with the *global* new cluster id, so a
    /// store extended batch by batch is bit-identical to one materialized
    /// over the fully evolved KG from scratch.
    ///
    /// This is [`LabelStore::append_pending`] followed by
    /// [`LabelStore::fill_cluster`] on every appended cluster.
    pub fn extend_with_batch<O: LabelOracle + ?Sized>(&mut self, delta: &UpdateBatch, oracle: &O) {
        let first = self.num_clusters();
        self.append_pending(delta.delta_sizes());
        for cluster in first..self.num_clusters() {
            self.fill_cluster(cluster, oracle);
        }
    }

    /// Append `Δe` clusters of the given sizes as **pending**: the prefix
    /// sums, the directory records and the bitset length grow in amortized
    /// O(|Δ| / 64 + |Δe|), and no oracle is consulted. Ids are minted as in
    /// [`LabelStore::extend_with_batch`]. A pending cluster's sizes and
    /// addresses are final; its labels and `τ_i` are not readable until
    /// [`LabelStore::fill_cluster`] fills it. Every size must be positive,
    /// as [`UpdateBatch`] and the session decoder guarantee.
    ///
    /// Held uniquely, the prefix sums grow in place; shared with a
    /// base-snapshot sampling index they are copied once (copy-on-write)
    /// and the sharer keeps addressing the base, whose cluster ids never
    /// change.
    pub fn append_pending(&mut self, sizes: &[u32]) {
        if sizes.is_empty() {
            return;
        }
        assert!(
            sizes.iter().all(|&size| size > 0 && size < PENDING),
            "cluster sizes outside the label store's range"
        );
        let prefix = Arc::make_mut(&mut self.prefix);
        let mut end = *prefix.last().expect("prefix non-empty");
        prefix.extend(sizes.iter().map(|&size| {
            end += u64::from(size);
            end
        }));
        let bases = prefix[prefix.len() - 1 - sizes.len()..].iter();
        self.dir
            .extend(bases.zip(sizes).map(|(&base, &size)| ClusterDir {
                base,
                tau: PENDING,
                size,
            }));
        self.taus.resize(self.taus.len() + sizes.len(), PENDING);
        let words = end.div_ceil(64) as usize;
        self.bits.resize(words, 0);
        if !self.dead.is_empty() {
            self.dead.resize(words, 0);
        }
        self.pending += sizes.len();
    }

    /// A copy of this store with room for `clusters` more clusters holding
    /// `triples` more triples, so a run of [`LabelStore::append_pending`]
    /// calls — a session's batch log at revival over a shared catalog
    /// store — copies the store once and never reallocates. Each buffer
    /// gets the capacity that appending to a clone would have doubled it
    /// to, so the copy holds no more memory than the appends it replaces.
    pub fn with_room(&self, clusters: usize, triples: u64) -> LabelStore {
        let words = (self.total_triples() + triples).div_ceil(64) as usize;
        let grow = words - self.bits.len();
        LabelStore {
            bits: copy_with_room(&self.bits, grow),
            prefix: Arc::new(copy_with_room(&self.prefix, clusters)),
            dir: copy_with_room(&self.dir, clusters),
            taus: copy_with_room(&self.taus, clusters),
            dead: if self.dead.is_empty() {
                Vec::new()
            } else {
                copy_with_room(&self.dead, grow)
            },
            ..*self
        }
    }

    /// Fill a pending cluster's label bits and `τ_i` from the oracle,
    /// consulting it once per triple. A no-op for a filled cluster.
    pub fn fill_cluster<O: LabelOracle + ?Sized>(&mut self, cluster: usize, oracle: &O) {
        if self.taus[cluster] != PENDING {
            return;
        }
        let ClusterDir { base, size, .. } = self.dir[cluster];
        for o in 0..size {
            if oracle.label(TripleRef::new(cluster as u32, o)) {
                let g = base + o as u64;
                self.bits[(g >> 6) as usize] |= 1u64 << (g & 63);
            }
        }
        // τ_i from the packed bits via the batched popcount kernel — the
        // oracle loop stays a pure bit-setter.
        let tau = popcount_range(&self.bits, base, base + size as u64) as u32;
        self.dir[cluster].tau = tau;
        self.taus[cluster] = tau;
        self.correct += tau as u64;
        self.pending -= 1;
    }

    /// Whether a cluster's labels are still pending. One branch on the
    /// store's pending count for stores that have none.
    #[inline]
    pub fn is_pending(&self, cluster: usize) -> bool {
        self.pending != 0 && self.taus[cluster] == PENDING
    }

    /// Number of clusters whose labels are still pending.
    pub fn pending_clusters(&self) -> usize {
        self.pending
    }

    /// Number of clusters `N`.
    pub fn num_clusters(&self) -> usize {
        self.prefix.len() - 1
    }

    /// Total triples `M`.
    pub fn total_triples(&self) -> u64 {
        *self.prefix.last().expect("prefix non-empty")
    }

    /// Size of one cluster.
    #[inline]
    pub fn cluster_size(&self, cluster: usize) -> usize {
        self.dir[cluster].size as usize
    }

    /// Global triple index of a reference.
    #[inline]
    pub fn global_index(&self, t: TripleRef) -> u64 {
        self.prefix[t.cluster as usize] + t.offset as u64
    }

    /// Global index of a cluster's first triple.
    #[inline]
    pub fn cluster_base(&self, cluster: usize) -> u64 {
        self.dir[cluster].base
    }

    /// Label of the triple at a global index. A triple of a pending
    /// cluster reads `false` until the cluster is filled.
    #[inline]
    pub fn label_at(&self, global: u64) -> bool {
        debug_assert!(global < self.total_triples());
        self.bits[(global >> 6) as usize] >> (global & 63) & 1 != 0
    }

    /// Correct count `τ_i` of one filled cluster (served from the dense τ
    /// mirror — see the `taus` field note).
    #[inline]
    pub fn cluster_tau(&self, cluster: usize) -> u32 {
        debug_assert!(!self.is_pending(cluster), "τ of pending cluster {cluster}");
        self.taus[cluster]
    }

    /// Exact **live** population accuracy `μ(G) = τ / M` over the
    /// surviving triples (free: counted at build and maintained by
    /// [`LabelStore::retract`]). Equal to the raw accuracy while nothing
    /// has been retracted. Exact only once no cluster is pending
    /// (debug-asserted).
    pub fn true_accuracy(&self) -> f64 {
        debug_assert_eq!(self.pending, 0, "true accuracy over pending clusters");
        let m = self.total_triples() - self.dead_total;
        if m == 0 {
            0.0
        } else {
            (self.correct - self.dead_correct) as f64 / m as f64
        }
    }

    /// Mark triples dead for **truth accounting**. The labels themselves
    /// are *not* erased — raw global addressing, [`LabelStore::label_at`],
    /// and the per-cluster raw `τ_i` stay valid, so a retracted store can
    /// still back a dense annotation arena (whose per-trial tombstones are
    /// replayed independently). Only the live aggregates move:
    /// [`LabelStore::true_accuracy`] and
    /// [`LabelStore::live_total_triples`] now describe the surviving
    /// population. Retracting the same triple twice, or from a pending
    /// cluster, is a caller bug (debug-asserted).
    pub fn retract(&mut self, retraction: &Retraction) {
        if self.dead.is_empty() {
            self.dead = vec![0u64; self.bits.len()];
        }
        for (cluster, offsets) in retraction.entries() {
            debug_assert!(
                !self.is_pending(*cluster as usize),
                "retraction from pending cluster"
            );
            let base = self.cluster_base(*cluster as usize);
            let size = self.cluster_size(*cluster as usize);
            for &o in offsets.iter() {
                assert!((o as usize) < size, "retracted offset out of range");
                let g = base + o as u64;
                let (w, b) = ((g >> 6) as usize, 1u64 << (g & 63));
                debug_assert_eq!(self.dead[w] & b, 0, "triple retracted twice");
                self.dead[w] |= b;
                self.dead_total += 1;
                self.dead_correct += self.label_at(g) as u64;
            }
        }
    }

    /// Number of surviving (non-retracted) triples.
    pub fn live_total_triples(&self) -> u64 {
        self.total_triples() - self.dead_total
    }

    /// Whether the triple at a global index has been retracted.
    #[inline]
    pub fn is_retracted(&self, global: u64) -> bool {
        if self.dead.is_empty() {
            return false;
        }
        self.dead[(global >> 6) as usize] >> (global & 63) & 1 != 0
    }

    /// The shared prefix-sum vector.
    pub fn prefix_sums(&self) -> &Arc<Vec<u64>> {
        &self.prefix
    }
}

/// A copy of `v` with room for `additional` more items: the capacity a
/// clone of `v` would double to while they were pushed one by one.
fn copy_with_room<T: Copy>(v: &[T], additional: usize) -> Vec<T> {
    let len = v.len() + additional;
    let mut cap = v.len().max(4);
    while cap < len {
        cap *= 2;
    }
    let mut out = Vec::with_capacity(cap);
    out.extend_from_slice(v);
    out
}

impl LabelOracle for LabelStore {
    fn label(&self, t: TripleRef) -> bool {
        debug_assert!(
            !self.is_pending(t.cluster as usize),
            "label of pending {t:?}"
        );
        self.label_at(self.global_index(t))
    }

    fn cluster_accuracy(&self, cluster: u32, size: usize) -> f64 {
        if size == 0 {
            return 0.0;
        }
        debug_assert_eq!(size, self.cluster_size(cluster as usize));
        debug_assert!(
            !self.is_pending(cluster as usize),
            "pending cluster {cluster}"
        );
        self.dir[cluster as usize].tau as f64 / size as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{true_accuracy, GoldLabels, RemOracle};
    use kg_model::implicit::ImplicitKg;

    #[test]
    fn materialized_store_agrees_with_oracle() {
        let kg = ImplicitKg::new(vec![3, 1, 70, 2]).unwrap();
        let oracle = RemOracle::new(0.6, 9);
        let store = LabelStore::materialize(&kg, &oracle);
        assert_eq!(store.num_clusters(), 4);
        assert_eq!(store.total_triples(), 76);
        for c in 0..4usize {
            assert_eq!(store.cluster_size(c), kg.cluster_size(c));
            let mut tau = 0;
            for o in 0..kg.cluster_size(c) as u32 {
                let t = TripleRef::new(c as u32, o);
                assert_eq!(store.label(t), oracle.label(t), "{t:?}");
                tau += store.label(t) as u32;
            }
            assert_eq!(store.cluster_tau(c), tau);
            assert_eq!(
                store.cluster_accuracy(c as u32, kg.cluster_size(c)),
                tau as f64 / kg.cluster_size(c) as f64
            );
        }
        assert!((store.true_accuracy() - true_accuracy(&kg, &oracle)).abs() < 1e-15);
    }

    #[test]
    fn global_addressing_matches_prefix_layout() {
        let gold = GoldLabels::new(vec![vec![true, false], vec![false], vec![true, true]]);
        let kg = ImplicitKg::new(vec![2, 1, 2]).unwrap();
        let store = LabelStore::materialize(&kg, &gold);
        assert_eq!(store.global_index(TripleRef::new(0, 1)), 1);
        assert_eq!(store.global_index(TripleRef::new(1, 0)), 2);
        assert_eq!(store.global_index(TripleRef::new(2, 1)), 4);
        assert_eq!(store.cluster_base(2), 3);
        let expected = [true, false, false, true, true];
        for (g, &e) in expected.iter().enumerate() {
            assert_eq!(store.label_at(g as u64), e, "global {g}");
        }
    }

    #[test]
    fn shared_prefix_construction() {
        let prefix = Arc::new(vec![0u64, 4, 9]);
        let oracle = RemOracle::new(0.5, 3);
        let store = LabelStore::from_prefix(prefix.clone(), &oracle);
        assert!(Arc::ptr_eq(store.prefix_sums(), &prefix));
        assert_eq!(store.num_clusters(), 2);
        assert_eq!(store.cluster_size(0), 4);
        assert_eq!(store.cluster_size(1), 5);
    }

    #[test]
    fn batch_extension_matches_from_scratch_materialization() {
        // Extending batch by batch must equal materializing the fully
        // evolved KG in one go: same bits, τ_i, totals, accuracy.
        let oracle = RemOracle::new(0.7, 21);
        let base = ImplicitKg::new(vec![3, 5, 2]).unwrap();
        let mut grown = LabelStore::materialize(&base, &oracle);
        let b1 = UpdateBatch::from_sizes(vec![4, 1]).unwrap();
        let b2 = UpdateBatch::from_sizes(vec![130]).unwrap(); // spans words
        grown.extend_with_batch(&b1, &oracle);
        grown.extend_with_batch(&b2, &oracle);

        let (evolved, _) = b2.apply_to(&b1.apply_to(&base).0);
        let scratch = LabelStore::materialize(&evolved, &oracle);
        assert_eq!(grown.num_clusters(), scratch.num_clusters());
        assert_eq!(grown.total_triples(), scratch.total_triples());
        assert_eq!(grown.true_accuracy(), scratch.true_accuracy());
        for c in 0..grown.num_clusters() {
            assert_eq!(grown.cluster_size(c), scratch.cluster_size(c), "{c}");
            assert_eq!(grown.cluster_tau(c), scratch.cluster_tau(c), "{c}");
        }
        for g in 0..grown.total_triples() {
            assert_eq!(grown.label_at(g), scratch.label_at(g), "global {g}");
        }
    }

    #[test]
    fn pending_clusters_fill_to_the_eager_labels() {
        let oracle = RemOracle::new(0.6, 17);
        let base = ImplicitKg::new(vec![3, 5]).unwrap();
        let batch = UpdateBatch::from_sizes(vec![70, 2, 9]).unwrap(); // spans words
        let mut eager = LabelStore::materialize(&base, &oracle);
        eager.extend_with_batch(&batch, &oracle);
        let mut lazy = LabelStore::materialize(&base, &oracle)
            .with_room(batch.num_delta_clusters(), batch.total_triples());
        lazy.append_pending(batch.delta_sizes());
        // The directory is final at once; only labels wait.
        assert_eq!(lazy.pending_clusters(), 3);
        assert_eq!(lazy.total_triples(), eager.total_triples());
        assert_eq!(lazy.prefix_sums(), eager.prefix_sums());
        assert!(!lazy.is_pending(1) && lazy.is_pending(2) && lazy.is_pending(4));
        // Filling out of order, and twice, lands on the eager bits.
        lazy.fill_cluster(3, &oracle);
        lazy.fill_cluster(3, &oracle);
        assert_eq!(lazy.pending_clusters(), 2);
        assert_eq!(lazy.cluster_tau(3), eager.cluster_tau(3));
        lazy.fill_cluster(4, &oracle);
        lazy.fill_cluster(2, &oracle);
        assert_eq!(lazy.pending_clusters(), 0);
        assert_eq!(lazy.true_accuracy(), eager.true_accuracy());
        for c in 0..eager.num_clusters() {
            assert_eq!(lazy.cluster_tau(c), eager.cluster_tau(c), "{c}");
        }
        for g in 0..eager.total_triples() {
            assert_eq!(lazy.label_at(g), eager.label_at(g), "global {g}");
        }
    }

    #[test]
    fn extension_leaves_shared_base_prefix_untouched() {
        let oracle = RemOracle::new(0.5, 4);
        let base_prefix = Arc::new(vec![0u64, 4, 9]);
        let mut store = LabelStore::from_prefix(base_prefix.clone(), &oracle);
        // Empty batch: no-op, still sharing.
        store.extend_with_batch(&UpdateBatch::from_sizes(vec![]).unwrap(), &oracle);
        assert!(Arc::ptr_eq(store.prefix_sums(), &base_prefix));
        // Real growth copies once; the sharer keeps the base snapshot.
        store.extend_with_batch(&UpdateBatch::from_sizes(vec![6]).unwrap(), &oracle);
        assert_eq!(&**base_prefix, &[0, 4, 9]);
        assert_eq!(&**store.prefix_sums(), &[0, 4, 9, 15]);
        assert_eq!(store.num_clusters(), 3);
        assert_eq!(store.cluster_size(2), 6);
        // Further growth extends the now uniquely held copy.
        store.extend_with_batch(&UpdateBatch::from_sizes(vec![2]).unwrap(), &oracle);
        assert_eq!(store.total_triples(), 17);
        assert_eq!(&**base_prefix, &[0, 4, 9]);
    }

    #[test]
    fn retraction_moves_live_accuracy_but_keeps_raw_labels() {
        // Third label group feeds the post-retraction growth below.
        let gold = GoldLabels::new(vec![
            vec![true, false, true],
            vec![false, true],
            vec![true, false],
        ]);
        let kg = ImplicitKg::new(vec![3, 2]).unwrap();
        let mut store = LabelStore::materialize(&kg, &gold);
        assert_eq!(store.true_accuracy(), 3.0 / 5.0);
        // Retract one correct (0,0) and one incorrect (1,0) triple.
        store.retract(&Retraction::new(vec![(0, vec![0]), (1, vec![0])]).unwrap());
        assert_eq!(store.live_total_triples(), 3);
        assert_eq!(store.true_accuracy(), 2.0 / 3.0);
        assert!(store.is_retracted(0));
        assert!(!store.is_retracted(1));
        assert!(store.is_retracted(3));
        // Raw addressing is untouched: labels, τ_i, sizes all raw.
        assert_eq!(store.total_triples(), 5);
        assert_eq!(store.cluster_size(0), 3);
        assert_eq!(store.cluster_tau(0), 2);
        assert!(store.label_at(0));
        // Growth after retraction keeps both books straight.
        store.extend_with_batch(&UpdateBatch::from_sizes(vec![2]).unwrap(), &gold);
        assert_eq!(store.total_triples(), 7);
        assert_eq!(store.live_total_triples(), 5);
        assert!(!store.is_retracted(5));
        // And a retraction in the new region works: killing all of cluster
        // 2 leaves exactly the 3 survivors of clusters 0/1 (2 correct).
        store.retract(&Retraction::new(vec![(2, vec![0, 1])]).unwrap());
        assert_eq!(store.live_total_triples(), 3);
        assert_eq!(store.true_accuracy(), 2.0 / 3.0);
    }

    #[test]
    fn empty_population_store() {
        let kg = ImplicitKg::new(vec![]).unwrap();
        let oracle = RemOracle::new(0.9, 1);
        let store = LabelStore::materialize(&kg, &oracle);
        assert_eq!(store.total_triples(), 0);
        assert_eq!(store.true_accuracy(), 0.0);
    }
}
