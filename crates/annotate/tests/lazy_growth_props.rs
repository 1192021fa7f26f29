//! Property suite for lazy label growth: a [`DenseAnnotator`] whose store
//! grows *pending* and fills each cluster on first touch must be
//! indistinguishable from one whose store is filled when it grows.
//!
//! 1. **Same answers** — over random bases, random insert batches and a
//!    random interleaving of every touch point (`annotate_into`,
//!    `annotate_indexed_into`, `annotate_one`, `annotate_cluster`,
//!    `annotate_cluster_sited`, `annotate_offsets`, `retract`, `reset`),
//!    both engines return the same labels and `τ`, and `seconds()`,
//!    entity and triple counts stay bit-equal after every step.
//! 2. **First touch fills, nothing else does** — after every step, an
//!    appended cluster is pending exactly when no step has touched it.
//! 3. **Filled equals materialized** — once every cluster is touched, the
//!    lazy store equals `LabelStore::materialize` over the evolved KG,
//!    bit for bit and in `τ_i` and `true_accuracy`.

use kg_annotate::annotator::Annotator;
use kg_annotate::cost::CostModel;
use kg_annotate::dense::DenseAnnotator;
use kg_annotate::label_store::LabelStore;
use kg_annotate::oracle::RemOracle;
use kg_model::implicit::ImplicitKg;
use kg_model::retract::Retraction;
use kg_model::triple::TripleRef;
use kg_model::update::UpdateBatch;
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;

/// One step of the interleaving. Cluster and offset picks are raw words,
/// reduced modulo the extent current when the step runs.
#[derive(Debug, Clone)]
struct Step {
    kind: u8,
    cluster: u32,
    picks: Vec<u32>,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    (
        0u8..20,
        any::<u32>(),
        proptest::collection::vec(any::<u32>(), 0..6),
    )
        .prop_map(|(kind, cluster, picks)| Step {
            kind,
            cluster,
            picks,
        })
}

/// The two engines and the model they are checked against.
struct Pair {
    eager: DenseAnnotator,
    lazy: DenseAnnotator,
    oracle: RemOracle,
    /// Raw cluster sizes of the current extent.
    sizes: Vec<u32>,
    /// Dead raw offsets per cluster in this trial.
    dead: Vec<BTreeSet<u32>>,
    /// Whether a step has touched the cluster since it was appended.
    touched: Vec<bool>,
    /// First cluster id appended by a batch.
    base_clusters: usize,
}

impl Pair {
    fn new(base: &[u32], oracle: RemOracle) -> Self {
        let kg = ImplicitKg::new(base.to_vec()).unwrap();
        let store = Arc::new(LabelStore::materialize(&kg, &oracle));
        let cost = CostModel::new(45.0, 25.0);
        Pair {
            eager: DenseAnnotator::new(store.clone(), cost),
            lazy: DenseAnnotator::growable(store, cost, Arc::new(oracle)),
            oracle,
            sizes: base.to_vec(),
            dead: vec![BTreeSet::new(); base.len()],
            touched: vec![true; base.len()],
            base_clusters: base.len(),
        }
    }

    fn grow(&mut self, batch: &UpdateBatch) {
        let first = self.sizes.len() as u32;
        self.eager.extend_with_batch(batch, &self.oracle);
        self.lazy.extend_population(first, batch);
        for &size in batch.delta_sizes() {
            self.sizes.push(size);
            self.dead.push(BTreeSet::new());
            self.touched.push(false);
        }
        assert_eq!(self.lazy.store().num_clusters(), self.sizes.len());
    }

    fn live(&self, c: usize) -> usize {
        self.sizes[c] as usize - self.dead[c].len()
    }

    /// Run one step on both engines and check everything observable.
    fn step(&mut self, step: &Step) {
        let n = self.sizes.len();
        let c = step.cluster as usize % n;
        let raw = self.sizes[c];
        match step.kind {
            // Raw-coordinate label reads, one cluster per pick.
            0..=2 => {
                let refs: Vec<TripleRef> = step
                    .picks
                    .iter()
                    .map(|&p| {
                        let c = (step.cluster as usize + p as usize % 3) % n;
                        TripleRef::new(c as u32, p % self.sizes[c])
                    })
                    .collect();
                let (mut want, mut got) = (Vec::new(), Vec::new());
                if step.kind == 2 {
                    let globals: Vec<u64> = refs
                        .iter()
                        .map(|&r| self.eager.store().global_index(r))
                        .collect();
                    self.eager.annotate_indexed_into(&refs, &globals, &mut want);
                    self.lazy.annotate_indexed_into(&refs, &globals, &mut got);
                } else {
                    self.eager.annotate_into(&refs, &mut want);
                    self.lazy.annotate_into(&refs, &mut got);
                }
                assert_eq!(got, want, "labels of {refs:?}");
                for r in refs {
                    self.touched[r.cluster as usize] = true;
                }
            }
            3 => {
                let r = TripleRef::new(c as u32, step.picks.first().copied().unwrap_or(0) % raw);
                assert_eq!(
                    self.lazy.annotate_one(r),
                    self.eager.annotate_one(r),
                    "{r:?}"
                );
                self.touched[c] = true;
            }
            4..=6 => {
                let size = self.live(c);
                if size == 0 {
                    return;
                }
                let want = self.eager.annotate_cluster(c as u32, size);
                assert_eq!(self.lazy.annotate_cluster(c as u32, size), want, "τ of {c}");
                self.touched[c] = true;
            }
            7..=9 => {
                let size = self.live(c);
                if size == 0 {
                    return;
                }
                let base = self.eager.store().cluster_base(c);
                let want = self.eager.annotate_cluster_sited(c as u32, base, size);
                let got = self.lazy.annotate_cluster_sited(c as u32, base, size);
                assert_eq!(got, want, "sited τ of {c}");
                self.touched[c] = true;
            }
            10..=12 => {
                let size = self.live(c);
                if size == 0 {
                    return;
                }
                let offsets: Vec<usize> = step.picks.iter().map(|&p| p as usize % size).collect();
                let want = self.eager.annotate_offsets(c as u32, &offsets);
                let got = self.lazy.annotate_offsets(c as u32, &offsets);
                assert_eq!(got, want, "τ of {c} at live {offsets:?}");
                self.touched[c] = true;
            }
            13..=17 => {
                // Kill distinct live raw offsets of one cluster.
                let kills: BTreeSet<u32> = step
                    .picks
                    .iter()
                    .map(|&p| p % raw)
                    .filter(|o| !self.dead[c].contains(o))
                    .collect();
                if kills.is_empty() {
                    return;
                }
                let r = Retraction::new(vec![(c as u32, kills.iter().copied().collect())]).unwrap();
                self.eager.retract(&r);
                self.lazy.retract(&r);
                self.dead[c].extend(kills);
                self.touched[c] = true;
            }
            _ => {
                // A fresh trial: memos and tombstones go, fills stay.
                self.eager.reset();
                self.lazy.reset();
                self.dead.iter_mut().for_each(BTreeSet::clear);
            }
        }
        self.check();
    }

    fn check(&self) {
        assert_eq!(
            self.lazy.seconds().to_bits(),
            self.eager.seconds().to_bits()
        );
        assert_eq!(
            self.lazy.entities_identified(),
            self.eager.entities_identified()
        );
        assert_eq!(
            self.lazy.triples_annotated(),
            self.eager.triples_annotated()
        );
        let store = self.lazy.store();
        let untouched = self.touched.iter().filter(|&&t| !t).count();
        assert_eq!(store.pending_clusters(), untouched);
        for c in self.base_clusters..self.sizes.len() {
            assert_eq!(store.is_pending(c), !self.touched[c], "cluster {c}");
        }
        assert_eq!(self.eager.store().pending_clusters(), 0);
    }

    /// Touch every cluster, then compare the lazy store with one
    /// materialized over the evolved KG.
    fn fill_and_compare(mut self) {
        self.lazy.reset();
        for (c, &size) in self.sizes.iter().enumerate() {
            self.lazy.annotate_cluster(c as u32, size as usize);
        }
        let kg = ImplicitKg::new(self.sizes.clone()).unwrap();
        let scratch = LabelStore::materialize(&kg, &self.oracle);
        let lazy = self.lazy.store();
        assert_eq!(lazy.pending_clusters(), 0);
        assert_eq!(lazy.prefix_sums(), scratch.prefix_sums());
        assert_eq!(
            lazy.true_accuracy().to_bits(),
            scratch.true_accuracy().to_bits()
        );
        for c in 0..scratch.num_clusters() {
            assert_eq!(lazy.cluster_size(c), scratch.cluster_size(c), "{c}");
            assert_eq!(lazy.cluster_tau(c), scratch.cluster_tau(c), "{c}");
        }
        for g in 0..scratch.total_triples() {
            assert_eq!(lazy.label_at(g), scratch.label_at(g), "global {g}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lazy_growth_is_indistinguishable_from_eager_growth(
        base in proptest::collection::vec(1u32..9, 1..12),
        batches in proptest::collection::vec(
            proptest::collection::vec(1u32..80, 1..6),
            1..5,
        ),
        steps in proptest::collection::vec(
            proptest::collection::vec(step_strategy(), 0..8),
            5,
        ),
        accuracy in 0.05f64..0.95,
        seed in any::<u64>(),
    ) {
        let mut pair = Pair::new(&base, RemOracle::new(accuracy, seed));
        // Steps before the first batch, then after each one.
        for step in &steps[0] {
            pair.step(step);
        }
        for (sizes, burst) in batches.iter().zip(&steps[1..]) {
            pair.grow(&UpdateBatch::from_sizes(sizes.clone()).unwrap());
            pair.check();
            for step in burst {
                pair.step(step);
            }
        }
        pair.fill_and_compare();
    }

    #[test]
    fn an_untouched_store_stays_pending(
        base in proptest::collection::vec(1u32..9, 1..6),
        batches in proptest::collection::vec(
            proptest::collection::vec(1u32..80, 1..6),
            1..5,
        ),
    ) {
        // Growth alone consults no oracle: every appended cluster is
        // pending, and the directory already matches the evolved KG.
        let mut pair = Pair::new(&base, RemOracle::new(0.7, 3));
        for sizes in &batches {
            pair.grow(&UpdateBatch::from_sizes(sizes.clone()).unwrap());
        }
        let appended = pair.sizes.len() - base.len();
        prop_assert_eq!(pair.lazy.store().pending_clusters(), appended);
        let kg = ImplicitKg::new(pair.sizes.clone()).unwrap();
        let scratch = LabelStore::materialize(&kg, &pair.oracle);
        prop_assert_eq!(pair.lazy.store().prefix_sums(), scratch.prefix_sums());
        pair.check();
        pair.fill_and_compare();
    }
}
