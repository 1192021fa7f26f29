//! Deletions and revisions for evolving KGs: [`Retraction`], [`KgEvent`],
//! and the tombstone bookkeeping shared by every annotation engine.
//!
//! The insert-only evolving model ([`crate::update::UpdateBatch`]) can only
//! mint clusters; real evolving graphs also *retract* facts (entity merges,
//! spam removal, fact revision). A [`Retraction`] names dead triples by
//! their **raw** position — `(cluster, offset-at-insertion-time)` — which
//! never changes once assigned, exactly like cluster ids. Engines keep the
//! raw population immutable (memo tables, label stores, packed bitmaps all
//! stay append-only) and overlay a [`TombstoneMap`] of dead offsets on top.
//!
//! The one subtlety is addressing: samplers see the *live* cluster — a
//! cluster of raw size 5 with offsets {1, 3} dead has live size 3, and a
//! second-stage draw of live offset 2 must reach raw offset 4. The mapping
//! is [`map_live_offset`], and both the hash and dense engines call this
//! exact function so that their byte-identity is preserved by construction.

use std::collections::HashMap;
use std::sync::Arc;

use crate::error::KgError;
use crate::update::UpdateBatch;

/// A batch of triple deletions, addressed by raw `(cluster, offset)`.
///
/// Offsets are positions within the cluster *as inserted* (0-based, dense),
/// i.e. the same coordinates used by [`crate::triple::TripleRef`]. A
/// retraction never renumbers survivors: engines overlay tombstones and
/// translate live offsets on demand via [`map_live_offset`].
///
/// Invariants (enforced by [`Retraction::new`]):
/// * entries are sorted by strictly ascending cluster id;
/// * each entry's offsets are sorted, unique, and non-empty;
/// * the batch as a whole is non-empty.
#[derive(Debug, Clone)]
pub struct Retraction {
    entries: Vec<(u32, Arc<[u32]>)>,
    total: u64,
}

impl Retraction {
    /// Builds a retraction from per-cluster raw offsets.
    ///
    /// Input entries may be in any order and offsets unsorted; they are
    /// sorted here. Returns an error if the batch is empty, a cluster
    /// appears twice, or a cluster's offset list is empty or contains a
    /// duplicate.
    pub fn new(mut entries: Vec<(u32, Vec<u32>)>) -> Result<Self, KgError> {
        if entries.is_empty() {
            return Err(KgError::EmptyRetraction);
        }
        entries.sort_by_key(|(c, _)| *c);
        let mut out: Vec<(u32, Arc<[u32]>)> = Vec::with_capacity(entries.len());
        let mut total = 0u64;
        for (i, (cluster, mut offsets)) in entries.into_iter().enumerate() {
            if i > 0 && out[i - 1].0 == cluster {
                return Err(KgError::DuplicateRetraction {
                    cluster: cluster as usize,
                });
            }
            if offsets.is_empty() {
                return Err(KgError::EmptyRetraction);
            }
            offsets.sort_unstable();
            if offsets.windows(2).any(|w| w[0] == w[1]) {
                return Err(KgError::DuplicateRetraction {
                    cluster: cluster as usize,
                });
            }
            total += offsets.len() as u64;
            out.push((cluster, offsets.into()));
        }
        Ok(Retraction {
            entries: out,
            total,
        })
    }

    /// Per-cluster entries, sorted by ascending cluster id; each offset
    /// slice is sorted, unique, and non-empty.
    pub fn entries(&self) -> &[(u32, Arc<[u32]>)] {
        &self.entries
    }

    /// Total number of retracted triples across all clusters.
    pub fn total_retracted(&self) -> u64 {
        self.total
    }

    /// Number of clusters touched by this retraction.
    pub fn num_clusters(&self) -> usize {
        self.entries.len()
    }
}

/// One step of an evolving-KG stream: an insertion batch, a retraction, or
/// a revision (retraction followed by insertion, evaluated as one event).
#[derive(Debug, Clone)]
pub enum KgEvent {
    /// Pure insertion — the classic [`UpdateBatch`] path.
    Insert(UpdateBatch),
    /// Pure deletion of existing triples.
    Retract(Retraction),
    /// A revision: the retraction is applied first, then the insertion.
    /// Only one estimate is produced, after both halves.
    Revise(Retraction, UpdateBatch),
}

impl KgEvent {
    /// Net change in live triple count produced by this event.
    pub fn net_triples(&self) -> i64 {
        match self {
            KgEvent::Insert(b) => b.total_triples() as i64,
            KgEvent::Retract(r) => -(r.total_retracted() as i64),
            KgEvent::Revise(r, b) => b.total_triples() as i64 - r.total_retracted() as i64,
        }
    }

    /// Number of triples *inserted* by this event (0 for pure retractions).
    pub fn inserted_triples(&self) -> u64 {
        match self {
            KgEvent::Insert(b) => b.total_triples(),
            KgEvent::Retract(_) => 0,
            KgEvent::Revise(_, b) => b.total_triples(),
        }
    }

    /// The event's insertion batch, if any.
    pub fn inserted(&self) -> Option<&UpdateBatch> {
        match self {
            KgEvent::Insert(b) | KgEvent::Revise(_, b) => Some(b),
            KgEvent::Retract(_) => None,
        }
    }

    /// The event's retraction, if any.
    pub fn retracted(&self) -> Option<&Retraction> {
        match self {
            KgEvent::Retract(r) | KgEvent::Revise(r, _) => Some(r),
            KgEvent::Insert(_) => None,
        }
    }
}

/// Accumulated tombstones: for each touched cluster, the sorted raw offsets
/// of its dead triples.
///
/// Both annotation engines hold one of these as **trial** state (cleared on
/// replay reset) and consult it when translating live sampling coordinates
/// to raw storage coordinates — see [`map_live_offset`]. A served session's
/// resident arena keeps one for the session's whole life, as the session's
/// only record of what died.
#[derive(Debug, Clone, Default)]
pub struct TombstoneMap {
    per_cluster: HashMap<u32, Vec<u32>>,
    dead_total: u64,
}

impl TombstoneMap {
    /// An empty map (no tombstones).
    pub fn new() -> Self {
        Self::default()
    }

    /// Merges a retraction into the map, keeping each cluster's dead-offset
    /// list sorted. Offsets already present are a caller bug (a triple
    /// cannot die twice); debug builds assert this.
    pub fn apply(&mut self, retraction: &Retraction) {
        for (cluster, offsets) in retraction.entries() {
            let dead = self.per_cluster.entry(*cluster).or_default();
            debug_assert!(
                offsets.iter().all(|o| dead.binary_search(o).is_err()),
                "offset retracted twice in cluster {cluster}"
            );
            dead.extend_from_slice(offsets);
            dead.sort_unstable();
        }
        self.dead_total += retraction.total_retracted();
    }

    /// The sorted dead offsets of `cluster`, or `None` if it has no
    /// tombstones.
    pub fn cluster(&self, cluster: u32) -> Option<&[u32]> {
        self.per_cluster.get(&cluster).map(|v| v.as_slice())
    }

    /// Number of dead triples in `cluster`.
    pub fn dead_in(&self, cluster: u32) -> u64 {
        self.per_cluster.get(&cluster).map_or(0, |v| v.len() as u64)
    }

    /// Every cluster with tombstones and its sorted dead offsets, in no
    /// particular order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &[u32])> {
        self.per_cluster.iter().map(|(&c, v)| (c, v.as_slice()))
    }

    /// Total dead triples across all clusters.
    pub fn dead_total(&self) -> u64 {
        self.dead_total
    }

    /// True when no triple has been retracted.
    pub fn is_empty(&self) -> bool {
        self.dead_total == 0
    }

    /// Drops every tombstone (used by trial `reset()`); capacity is kept.
    pub fn clear(&mut self) {
        self.per_cluster.clear();
        self.dead_total = 0;
    }
}

/// Translates a **live** offset (position among surviving triples) to the
/// **raw** offset (position at insertion time) given the cluster's sorted
/// dead-offset list.
///
/// Walking the dead list in order, every tombstone at or below the current
/// candidate shifts it up by one; the first tombstone strictly above it
/// cannot affect it (nor can any later one, since the list is sorted).
///
/// ```
/// use kg_model::retract::map_live_offset;
/// // raw cluster [0,1,2,3,4] with 1 and 3 dead → live view [0,2,4]
/// assert_eq!(map_live_offset(&[1, 3], 0), 0);
/// assert_eq!(map_live_offset(&[1, 3], 1), 2);
/// assert_eq!(map_live_offset(&[1, 3], 2), 4);
/// ```
pub fn map_live_offset(dead_sorted: &[u32], live: u32) -> u32 {
    let mut raw = live;
    for &d in dead_sorted {
        if d <= raw {
            raw += 1;
        } else {
            break;
        }
    }
    raw
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::update::UpdateBatch;

    #[test]
    fn new_sorts_clusters_and_offsets() {
        let r = Retraction::new(vec![(7, vec![3, 1]), (2, vec![0])]).unwrap();
        assert_eq!(r.num_clusters(), 2);
        assert_eq!(r.entries()[0].0, 2);
        assert_eq!(&*r.entries()[1].1, &[1, 3]);
        assert_eq!(r.total_retracted(), 3);
    }

    #[test]
    fn new_rejects_empty_and_duplicates() {
        assert!(Retraction::new(vec![]).is_err());
        assert!(Retraction::new(vec![(0, vec![])]).is_err());
        assert!(Retraction::new(vec![(0, vec![1, 1])]).is_err());
        assert!(Retraction::new(vec![(0, vec![1]), (0, vec![2])]).is_err());
    }

    #[test]
    fn tombstone_map_merges_sorted() {
        let mut t = TombstoneMap::new();
        assert!(t.is_empty());
        t.apply(&Retraction::new(vec![(4, vec![5])]).unwrap());
        t.apply(&Retraction::new(vec![(4, vec![1, 9]), (8, vec![0])]).unwrap());
        assert_eq!(t.cluster(4).unwrap(), &[1, 5, 9]);
        assert_eq!(t.dead_in(4), 3);
        assert_eq!(t.dead_in(8), 1);
        assert_eq!(t.dead_in(99), 0);
        assert_eq!(t.dead_total(), 4);
        t.clear();
        assert!(t.is_empty());
        assert!(t.cluster(4).is_none());
    }

    #[test]
    fn live_to_raw_mapping_skips_tombstones() {
        // No tombstones → identity.
        for live in 0..10 {
            assert_eq!(map_live_offset(&[], live), live);
        }
        // Raw size 6, dead {0, 2, 3}: live view is raws [1, 4, 5].
        let dead = [0, 2, 3];
        assert_eq!(map_live_offset(&dead, 0), 1);
        assert_eq!(map_live_offset(&dead, 1), 4);
        assert_eq!(map_live_offset(&dead, 2), 5);
        // The map over all live offsets is a bijection onto raw survivors.
        let dead = [1, 3, 6, 7];
        let raws: Vec<u32> = (0..6).map(|l| map_live_offset(&dead, l)).collect();
        assert_eq!(raws, vec![0, 2, 4, 5, 8, 9]);
    }

    #[test]
    fn event_accounting() {
        let batch = UpdateBatch::from_sizes(vec![2, 3]).unwrap();
        let r = Retraction::new(vec![(0, vec![0, 1])]).unwrap();
        assert_eq!(KgEvent::Insert(batch.clone()).net_triples(), 5);
        assert_eq!(KgEvent::Retract(r.clone()).net_triples(), -2);
        let rev = KgEvent::Revise(r, batch);
        assert_eq!(rev.net_triples(), 3);
        assert_eq!(rev.inserted_triples(), 5);
    }
}
