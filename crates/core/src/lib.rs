//! # kg-eval — the iterative KG accuracy evaluation framework
//!
//! The paper's primary contribution (§4, Fig. 2): an iterative
//! sample–annotate–estimate–check loop that stops as soon as the estimate's
//! margin of error drops below the user's threshold ε at confidence level
//! 1−α — no oversampling, no wasted human annotations, always an unbiased
//! estimate with a statistical guarantee.
//!
//! * [`config::EvalConfig`] — ε, α, batch size, and the CLT minimum-sample
//!   rule of thumb (n > 30).
//! * [`static_eval::run_static`] — the Fig. 2 loop over any
//!   [`kg_sampling::design::StaticDesign`].
//! * [`framework::Evaluator`] — one-call façade: pick a design, hand it a
//!   population and an oracle, get an [`report::EvaluationReport`].
//! * [`executor::TrialExecutor`] — the parallel repeated-trial runtime:
//!   shards seeded trials across workers with counter-based RNG streams
//!   and a fixed-shape reduction, so aggregated mean/std are **bitwise
//!   identical at any worker count**; every evaluator's trial fan-out
//!   (static, granular, RS/SS replays, the benchmark harnesses) runs on
//!   it.
//! * [`sharded`] — intra-trial sharded replay: one trial's cluster walk
//!   partitioned into fixed shards with counter-based shard substreams,
//!   fanned out on the same [`executor::TrialExecutor`] and merged in the
//!   same fixed shape, bitwise identical at any worker count.
//! * [`dynamic`] — evolving-KG evaluation (§6): reservoir incremental
//!   evaluation (Algorithm 1) and stratified incremental evaluation
//!   (Algorithm 2), plus a monitor driving either over a sequence of
//!   update batches (§7.3.2).
//! * [`granular`] — per-predicate accuracy evaluation with a shared
//!   annotator (the paper's §9 future-work direction).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
pub mod dynamic;
pub mod executor;
pub mod framework;
pub mod granular;
pub mod report;
pub mod session;
pub mod sharded;
pub mod spill;
pub mod static_eval;

pub use config::EvalConfig;
pub use executor::TrialExecutor;
pub use framework::Evaluator;
pub use report::EvaluationReport;
pub use session::{EstimateReport, SessionRegistry, SessionSpec};
pub use sharded::{ShardDesign, ShardReplayReport};
pub use spill::CheckpointStore;
