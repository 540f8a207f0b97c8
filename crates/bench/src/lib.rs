//! Experiment harness library.
//!
//! The `exp_*` binaries in `src/bin/` regenerate every figure and
//! quantitative claim of the paper (see DESIGN.md's experiment index and
//! EXPERIMENTS.md for paper-vs-measured); host time is `benchmark/`'s
//! business, not this crate's. Shared workload builders live here.

pub mod metrics;
pub mod workloads;
