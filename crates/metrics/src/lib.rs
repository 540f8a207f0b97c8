//! Measurement utilities shared by the experiment harnesses.
//!
//! The paper's arguments are quantitative even where it prints no
//! numbers: the space-time product of Figure 3, storage-utilization
//! levels "shown by analysis or experimentation" (Wald), fragmentation
//! comparisons, and addressing-overhead claims. This crate provides the
//! small, dependency-free measurement kit those experiments need:
//!
//! * [`histogram::Histogram`] — linear- or log-bucketed histograms with
//!   percentile queries, recorded by `&mut` with plain adds or by `&`
//!   from any number of threads with relaxed atomics;
//! * [`spacetime::SpaceTimeMeter`] — the space-time integral of Figure 3,
//!   split into *active* and *page-wait* components;
//! * [`table::Table`] — fixed-width table rendering so every experiment
//!   binary prints paper-style rows;
//! * [`mod@sparkline`] — one-line curve rendering so a heatmap row (the
//!   heap shapes of E18) can be read at a glance.

pub mod histogram;
pub mod spacetime;
pub mod sparkline;
pub mod table;

pub use histogram::{BucketSpec, Histogram};
pub use spacetime::SpaceTimeReport;
pub use table::Table;
