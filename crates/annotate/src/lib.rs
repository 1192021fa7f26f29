//! # kg-annotate — annotation simulation substrate
//!
//! The paper's evaluation cost is *human time*: identifying the entity
//! behind a subject id (**Entity Identification**, average cost `c1`) and
//! verifying one relationship (**Relationship Validation**, average cost
//! `c2`) — §3. Every experiment in the paper beyond two manually measured
//! rows is computed with the fitted cost function `Cost(G') = |E'|·c1 +
//! |G'|·c2` (Definition 3, with c1 = 45 s and c2 = 25 s fitted in §7.1.3).
//!
//! This crate simulates that annotation process exactly:
//!
//! * [`cost::CostModel`] — the two-parameter cost function plus a
//!   least-squares fitter reproducing §7.1.3 / Fig. 4.
//! * [`oracle`] — label oracles: materialized gold labels, the Random Error
//!   Model, and the Binomial Mixture Model (Eq. 15) with its sigmoid
//!   accuracy-vs-cluster-size link. All oracles are deterministic given a
//!   seed, so 1000-trial experiments are reproducible.
//! * [`task`] — evaluation tasks: sampled triples grouped by subject, the
//!   unit of work handed to an annotator (Table 1's Task1 vs Task2).
//! * [`annotator::SimulatedAnnotator`] — walks evaluation tasks charging
//!   `c1` for each *newly identified* entity and `c2` per triple, memoizing
//!   both so re-sampled triples are never double-charged (matching the
//!   paper's practice of grouping SRS samples by subject id, §5.1, and
//!   reusing annotations across reservoir updates, §6).
//! * [`annotator::Annotator`] — the engine trait behind which the hash
//!   reference above and the zero-allocation fast path coexist:
//!   [`label_store::LabelStore`] materializes any oracle into a packed
//!   bitset indexed by global triple index, and [`dense::DenseAnnotator`]
//!   memoizes via packed bitmaps with a touched-span journal
//!   ([`bitset::BitsetJournal`], multi-word `set_range`/`reset` kernels),
//!   so one arena serves every trial with resets costing only the trial's
//!   footprint.
//! * [`lease::DenseArenaPool`] — arena checkout for parallel trial
//!   runtimes: each worker leases one reusable dense arena for its
//!   lifetime instead of rebuilding per trial.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod annotator;
pub mod bitset;
pub mod cost;
pub mod dense;
pub mod label_store;
pub mod lease;
pub mod oracle;
pub mod piecewise;
pub mod pool;
pub mod task;

pub use annotator::{Annotator, SimulatedAnnotator};
pub use bitset::BitsetJournal;
pub use cost::CostModel;
pub use dense::{DenseAnnotator, DenseGrowthError, MemoError, PackedMemo};
pub use label_store::LabelStore;
pub use lease::{ArenaLease, DenseArenaPool};
pub use oracle::{BmmOracle, GoldLabels, LabelOracle, RemOracle};
pub use piecewise::PiecewiseOracle;
pub use pool::{AnnotatorPool, AnnotatorProfile, PoolOracle, TieBreak};
pub use task::EvaluationTask;
