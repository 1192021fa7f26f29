//! Atomic benchmark-artifact writes.
//!
//! `bench-report` used to write `BENCH_*.json` in place, so a run
//! interrupted mid-write (Ctrl-C, OOM-kill, CI timeout) left a truncated
//! artifact that the next diff would misread as a real regression. The
//! temp-file + rename implementation now lives in
//! [`kg_stats::atomicfile`]; this module re-exports it so every bench
//! call site keeps its historical path.

pub use kg_stats::atomicfile::write_atomic;
