//! Always-on production telemetry over the probe spine.
//!
//! The probe vocabulary (`dsa-probe`) can already *count* events
//! ([`CountingProbe`]/[`SharedProbe`]) or *record everything*
//! (`JsonlRecorder`). Neither is what a production allocator runs with:
//! counters hide distributions and history, full traces cost too much
//! to leave on. This crate is the middle ground — instrumentation cheap
//! enough to never turn off, informative enough to debug a degradation
//! after the fact:
//!
//! * [`FlightRecorder`] — fixed-capacity, lock-free per-thread ring
//!   buffers of recent probe events in a compact fixed-width encoding
//!   (no allocation on the hot path), with a merged chronological
//!   [`FlightRecorder::drain`]. When a fault-injection run, an
//!   `ArenaError::Exhausted`, or a degradation ladder fires, the last-N
//!   events are the postmortem.
//! * [`TelemetryProbe`] — the always-on sink: [`SharedProbe`] counters
//!   *plus* four [`dsa_metrics::Histogram`]s over the standard
//!   geometries (alloc size, hole-search length, inter-fault gap, fetch
//!   latency), safe for any number of emitting threads and, held by
//!   `&mut`, the sequential distribution sink of a single run.
//! * [`HeatmapSampler`] — periodic compact snapshots of the free-list
//!   hole map, tabulated as heap-shape-over-time heatmaps via
//!   `dsa-metrics::sparkline`.
//! * [`TelemetrySnapshot`] — the exporter registry: counters, gauges
//!   and histograms rendered as Prometheus text exposition format or
//!   JSON (the `--metrics-out` flag of every experiment binary).
//!
//! [`CountingProbe`]: dsa_probe::CountingProbe
//! [`SharedProbe`]: dsa_probe::SharedProbe

pub mod export;
pub mod flight;
pub mod heatmap;
pub mod probe;

pub use export::TelemetrySnapshot;
pub use flight::{FlightHandle, FlightRecorder};
pub use heatmap::{HeatFrame, HeatmapSampler};
pub use probe::TelemetryProbe;
