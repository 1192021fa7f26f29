//! Evolving-KG updates (§2.1, §6 of the paper).
//!
//! Changes arrive as batches `Δ` of triple insertions. Insertions are
//! clustered by subject id into `Δe` groups; following the paper's
//! Algorithm 1, every `Δe` is treated as a **new, independent cluster**,
//! even when the subject already exists in `G` — this keeps previously
//! assigned cluster weights constant, which is what makes the weighted
//! reservoir update correct ("though we may break an entity cluster into
//! several disjoint sub-clusters over time, it does not change the
//! properties of weighted reservoir sampling or TWCS").

use crate::error::KgError;
use crate::implicit::ImplicitKg;
use std::collections::HashMap;
use std::sync::Arc;

/// A batch of triple insertions, already clustered by subject: element `j`
/// is `|Δe_j|`, the number of inserted triples about subject `e_j`.
///
/// Alongside the sizes, the batch materializes its **cumulative weight
/// prefix** once at construction (`weight_prefix()[j]` = triples in groups
/// `0..j`): the batched reservoir offers and bulk PPS appends of the §6
/// evaluators consume that slice directly, so replaying the same batch
/// across trials and engines never recomputes per-item running sums. Both
/// arrays are `Arc`-shared — cloning a batch (or handing its sizes to a
/// stratum) is a refcount bump, not an O(|Δ|) copy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdateBatch {
    delta_sizes: Arc<[u32]>,
    prefix: Arc<[u64]>,
    total: u64,
}

impl UpdateBatch {
    /// Build from per-`Δe` sizes. Empty groups are rejected. One fused
    /// pass validates, totals, and materializes the weight prefix.
    pub fn from_sizes(delta_sizes: Vec<u32>) -> Result<Self, KgError> {
        let mut prefix = Vec::with_capacity(delta_sizes.len() + 1);
        prefix.push(0u64);
        let mut total = 0u64;
        for (i, &s) in delta_sizes.iter().enumerate() {
            if s == 0 {
                return Err(KgError::OffsetOutOfRange {
                    cluster: i,
                    offset: 0,
                    size: 0,
                });
            }
            total += s as u64;
            prefix.push(total);
        }
        Ok(UpdateBatch {
            delta_sizes: delta_sizes.into(),
            prefix: prefix.into(),
            total,
        })
    }

    /// Build from per-`Δe` sizes, silently dropping zero-size groups
    /// instead of rejecting them.
    ///
    /// This is the normalization applied to *derived* size vectors —
    /// grouping pipelines, churn generators, or profile samplers whose
    /// arithmetic can legitimately produce empty groups. A zero-size `Δe`
    /// carries no triples, no weight, and no sampling mass, so the only
    /// consistent treatment is for it to never become a cluster at all:
    /// cluster ids stay dense and `apply_to` accounting is unaffected.
    /// Hand-authored size vectors should use [`UpdateBatch::from_sizes`],
    /// where a zero is a bug worth surfacing.
    pub fn from_sizes_pruned(delta_sizes: Vec<u32>) -> Self {
        let pruned: Vec<u32> = delta_sizes.into_iter().filter(|&s| s > 0).collect();
        Self::from_sizes(pruned).expect("zero-size groups were pruned")
    }

    /// Cluster raw insertions by subject id (the `Δe` grouping of §2.1).
    /// `subjects[k]` is the subject id of the `k`-th inserted triple.
    ///
    /// Grouping counts occurrences, so every group it produces has size
    /// ≥ 1; it is nevertheless routed through the same zero-pruning
    /// normalization as [`UpdateBatch::from_sizes_pruned`] so that both
    /// derived-batch paths share one construction invariant.
    pub fn group_by_subject(subjects: &[u32]) -> Self {
        let mut counts: HashMap<u32, u32> = HashMap::new();
        for &s in subjects {
            *counts.entry(s).or_insert(0) += 1;
        }
        // Deterministic order: by subject id.
        let mut pairs: Vec<(u32, u32)> = counts.into_iter().collect();
        pairs.sort_unstable();
        let delta_sizes: Vec<u32> = pairs.into_iter().map(|(_, c)| c).collect();
        Self::from_sizes_pruned(delta_sizes)
    }

    /// Per-`Δe` sizes.
    pub fn delta_sizes(&self) -> &[u32] {
        &self.delta_sizes
    }

    /// Per-`Δe` sizes as a shared handle — O(1) to hold onto (the §6
    /// stratified evaluator keeps one per stratum).
    pub fn delta_sizes_shared(&self) -> Arc<[u32]> {
        Arc::clone(&self.delta_sizes)
    }

    /// The batch's cumulative weight prefix, materialized once at
    /// construction: `weight_prefix()[j]` is the number of inserted
    /// triples in groups `0..j` (length `num_delta_clusters() + 1`,
    /// starting at 0, strictly increasing). This is the exact shape
    /// consumed by `WeightedReservoirExpJ::offer_batch` in kg-stats.
    pub fn weight_prefix(&self) -> &[u64] {
        &self.prefix
    }

    /// The cumulative weight prefix as a shared handle — O(1). This is
    /// what lets `GrowablePps::extend_shared` adopt a whole batch into a
    /// sampling frame without copying a single weight, and what the
    /// stratified evaluator builds each stratum's frame from.
    pub fn weight_prefix_shared(&self) -> Arc<[u64]> {
        Arc::clone(&self.prefix)
    }

    /// Number of `Δe` groups (new clusters).
    pub fn num_delta_clusters(&self) -> usize {
        self.delta_sizes.len()
    }

    /// Total inserted triples `|Δ|`.
    pub fn total_triples(&self) -> u64 {
        self.total
    }

    /// Apply to an implicit KG, producing `G + Δ` with the `Δe` groups
    /// appended as fresh clusters. Returns the evolved KG and the index of
    /// the first appended cluster.
    pub fn apply_to(&self, base: &ImplicitKg) -> (ImplicitKg, usize) {
        let first_new = base.num_clusters_raw();
        let mut sizes = base.sizes().to_vec();
        sizes.extend_from_slice(&self.delta_sizes);
        let evolved = ImplicitKg::new(sizes).expect("both inputs validated non-zero sizes");
        (evolved, first_new)
    }

    /// Append this batch's `Δe` clusters to a shared prefix-sum snapshot
    /// (`prefix[c]` = global index of cluster `c`'s first triple,
    /// `prefix[N]` = total triples `M`), in place.
    ///
    /// When the caller holds the only strong reference the existing
    /// allocation is extended — amortized O(|Δ|) per batch, nothing
    /// rebuilt. A prefix still shared with other holders (say, a sampling
    /// index over the base snapshot) is copied once on first growth
    /// (`Arc::make_mut` copy-on-write); the other holders keep addressing
    /// the base snapshot, which is exactly the §6 contract — previously
    /// assigned cluster ids and weights never change.
    pub fn extend_prefix(&self, prefix: &mut Arc<Vec<u64>>) {
        assert!(
            !prefix.is_empty() && prefix[0] == 0,
            "prefix sums must start at 0"
        );
        if self.delta_sizes.is_empty() {
            return;
        }
        let out = Arc::make_mut(prefix);
        out.reserve(self.delta_sizes.len());
        let base = *out.last().expect("checked non-empty");
        // Bulk offset-add from the batch's cached prefix — no per-item
        // running sum.
        out.extend(self.prefix[1..].iter().map(|&p| base + p));
    }
}

impl ImplicitKg {
    fn num_clusters_raw(&self) -> usize {
        self.sizes().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::implicit::ClusterPopulation;

    #[test]
    fn grouping_counts_per_subject() {
        let batch = UpdateBatch::group_by_subject(&[7, 3, 7, 7, 3, 9]);
        assert_eq!(batch.delta_sizes(), &[2, 3, 1]); // subjects 3, 7, 9
        assert_eq!(batch.num_delta_clusters(), 3);
        assert_eq!(batch.total_triples(), 6);
    }

    #[test]
    fn from_sizes_validates() {
        assert!(UpdateBatch::from_sizes(vec![1, 2]).is_ok());
        assert!(UpdateBatch::from_sizes(vec![1, 0]).is_err());
        let empty = UpdateBatch::from_sizes(vec![]).unwrap();
        assert_eq!(empty.total_triples(), 0);
        assert_eq!(empty.weight_prefix(), &[0]);
    }

    #[test]
    fn weight_prefix_is_the_cumulative_sizes() {
        let batch = UpdateBatch::from_sizes(vec![3, 1, 4, 1, 5]).unwrap();
        assert_eq!(batch.weight_prefix(), &[0, 3, 4, 8, 9, 14]);
        assert_eq!(
            *batch.weight_prefix().last().unwrap(),
            batch.total_triples()
        );
        assert_eq!(batch.weight_prefix().len(), batch.num_delta_clusters() + 1);
        // Grouping materializes the same prefix as from_sizes.
        let grouped = UpdateBatch::group_by_subject(&[7, 3, 7, 7, 3, 9]);
        assert_eq!(grouped.weight_prefix(), &[0, 2, 5, 6]);
        // Shared handles alias the batch's own storage.
        let sizes = batch.delta_sizes_shared();
        assert_eq!(&*sizes, batch.delta_sizes());
        assert_eq!(Arc::strong_count(&sizes), 2);
    }

    #[test]
    fn apply_appends_new_clusters() {
        let base = ImplicitKg::new(vec![4, 4]).unwrap();
        let batch = UpdateBatch::from_sizes(vec![2, 6]).unwrap();
        let (evolved, first_new) = batch.apply_to(&base);
        assert_eq!(first_new, 2);
        assert_eq!(evolved.num_clusters(), 4);
        assert_eq!(evolved.total_triples(), 16);
        assert_eq!(evolved.cluster_size(3), 6);
        // Base clusters untouched.
        assert_eq!(evolved.cluster_size(0), 4);
    }

    #[test]
    fn empty_batch_is_a_no_op_everywhere() {
        let empty = UpdateBatch::from_sizes(vec![]).unwrap();
        assert_eq!(empty.num_delta_clusters(), 0);
        assert_eq!(empty.total_triples(), 0);
        assert_eq!(empty.delta_sizes(), &[] as &[u32]);
        // Applying an empty batch evolves nothing.
        let base = ImplicitKg::new(vec![3, 2]).unwrap();
        let (evolved, first_new) = empty.apply_to(&base);
        assert_eq!(first_new, 2);
        assert_eq!(evolved.num_clusters(), 2);
        assert_eq!(evolved.total_triples(), base.total_triples());
        // Extending a prefix snapshot leaves it untouched (no CoW either).
        let prefix = Arc::new(vec![0u64, 3, 5]);
        let mut shared = prefix.clone();
        empty.extend_prefix(&mut shared);
        assert!(Arc::ptr_eq(&shared, &prefix));
        // Grouping an empty insertion stream yields the empty batch.
        assert_eq!(UpdateBatch::group_by_subject(&[]), empty);
    }

    #[test]
    fn pruned_construction_drops_zero_size_groups() {
        // Zero-size Δe groups vanish instead of erroring: the pruned batch
        // is indistinguishable from one built without the zeros.
        let pruned = UpdateBatch::from_sizes_pruned(vec![2, 0, 3, 0]);
        assert_eq!(pruned, UpdateBatch::from_sizes(vec![2, 3]).unwrap());
        assert_eq!(pruned.num_delta_clusters(), 2);
        assert_eq!(pruned.total_triples(), 5);
        assert_eq!(pruned.weight_prefix(), &[0, 2, 5]);
        // All-zero input collapses to the empty batch …
        let all_dead = UpdateBatch::from_sizes_pruned(vec![0, 0]);
        assert_eq!(all_dead, UpdateBatch::from_sizes(vec![]).unwrap());
        // … and apply_to accounting treats it as a pure no-op: no clusters
        // minted, no triples added, first_new still past the base.
        let base = ImplicitKg::new(vec![4, 1]).unwrap();
        let (evolved, first_new) = all_dead.apply_to(&base);
        assert_eq!(first_new, 2);
        assert_eq!(evolved.num_clusters(), 2);
        assert_eq!(evolved.total_triples(), base.total_triples());
        // The strict constructor still rejects what pruning would hide.
        assert!(UpdateBatch::from_sizes(vec![2, 0, 3]).is_err());
    }

    #[test]
    fn group_by_subject_never_mints_empty_clusters() {
        // Counting guarantees positivity, and the shared pruned path keeps
        // it that way even for degenerate inputs.
        for subjects in [vec![], vec![0u32], vec![3, 3, 3], vec![1, 2, 1, 2]] {
            let batch = UpdateBatch::group_by_subject(&subjects);
            assert!(batch.delta_sizes().iter().all(|&s| s > 0));
            assert_eq!(batch.total_triples(), subjects.len() as u64);
        }
    }

    #[test]
    fn group_by_subject_with_duplicates_is_order_insensitive() {
        // Duplicate subjects, arbitrary interleaving: the Δe grouping only
        // depends on the multiset of subject ids.
        let a = UpdateBatch::group_by_subject(&[9, 1, 9, 9, 1, 4, 9]);
        let b = UpdateBatch::group_by_subject(&[1, 1, 4, 9, 9, 9, 9]);
        assert_eq!(a, b);
        assert_eq!(a.delta_sizes(), &[2, 1, 4]); // subjects 1, 4, 9
        assert_eq!(a.total_triples(), 7);
        // All-duplicate stream collapses into a single Δe cluster.
        let one = UpdateBatch::group_by_subject(&[5; 6]);
        assert_eq!(one.delta_sizes(), &[6]);
        assert_eq!(one.num_delta_clusters(), 1);
    }

    #[test]
    fn merging_into_existing_subjects_still_mints_new_clusters() {
        // A batch whose subjects all already exist in G: under Algorithm 1
        // every Δe is still a fresh cluster (sub-clusters over time), so
        // the evolved KG grows by the batch's cluster count, and the base
        // cluster sizes are never edited in place.
        let base = ImplicitKg::new(vec![10, 20]).unwrap();
        let merge = UpdateBatch::group_by_subject(&[0, 0, 1]); // both exist
        let (evolved, first_new) = merge.apply_to(&base);
        assert_eq!(first_new, 2);
        assert_eq!(evolved.num_clusters(), 4);
        assert_eq!(evolved.cluster_size(0), 10);
        assert_eq!(evolved.cluster_size(1), 20);
        assert_eq!(evolved.cluster_size(2), 2); // Δe of subject 0
        assert_eq!(evolved.cluster_size(3), 1); // Δe of subject 1
                                                // Brand-new subjects behave identically: id assignment is by
                                                // position, not subject identity.
        let mint = UpdateBatch::group_by_subject(&[99, 98]);
        let (evolved2, first2) = mint.apply_to(&evolved);
        assert_eq!(first2, 4);
        assert_eq!(evolved2.num_clusters(), 6);
    }

    #[test]
    fn apply_to_accounts_every_inserted_triple() {
        let base = ImplicitKg::new(vec![7, 1, 2]).unwrap();
        let batch = UpdateBatch::from_sizes(vec![4, 4, 1]).unwrap();
        let (evolved, _) = batch.apply_to(&base);
        assert_eq!(
            evolved.total_triples(),
            base.total_triples() + batch.total_triples()
        );
        // Chaining batches keeps the running total exact.
        let mut kg = evolved;
        let mut expect = kg.total_triples();
        for seed in 0..4u32 {
            let b = UpdateBatch::from_sizes(vec![1 + seed, 2]).unwrap();
            expect += b.total_triples();
            kg = b.apply_to(&kg).0;
            assert_eq!(kg.total_triples(), expect);
        }
    }

    #[test]
    fn extend_prefix_matches_apply_to_layout() {
        let base = ImplicitKg::new(vec![4, 4]).unwrap();
        let batch = UpdateBatch::from_sizes(vec![2, 6]).unwrap();
        let mut prefix = Arc::new(vec![0u64, 4, 8]);
        batch.extend_prefix(&mut prefix);
        assert_eq!(&**prefix, &[0, 4, 8, 10, 16]);
        // A uniquely held Arc is extended in place (no reallocation of the
        // Arc itself), a shared one is copied once and the sharer keeps the
        // base snapshot.
        let shared = prefix.clone();
        let batch2 = UpdateBatch::from_sizes(vec![5]).unwrap();
        let mut grown = prefix;
        batch2.extend_prefix(&mut grown);
        assert_eq!(&**grown, &[0, 4, 8, 10, 16, 21]);
        assert_eq!(&**shared, &[0, 4, 8, 10, 16]);
        assert!(!Arc::ptr_eq(&grown, &shared));
        // Totals agree with apply_to.
        let (evolved, _) = batch2.apply_to(&batch.apply_to(&base).0);
        assert_eq!(*grown.last().unwrap(), evolved.total_triples());
    }

    #[test]
    fn repeated_subject_insertions_form_one_delta_cluster_per_batch() {
        // Enriching an existing entity: within one batch it is one Δe …
        let b1 = UpdateBatch::group_by_subject(&[5, 5, 5]);
        assert_eq!(b1.num_delta_clusters(), 1);
        // … and a later batch for the same entity forms a *separate* new
        // cluster (paper: sub-clusters over time are fine).
        let b2 = UpdateBatch::group_by_subject(&[5]);
        let base = ImplicitKg::new(vec![10]).unwrap();
        let (g1, _) = b1.apply_to(&base);
        let (g2, _) = b2.apply_to(&g1);
        assert_eq!(g2.num_clusters(), 3);
    }
}
