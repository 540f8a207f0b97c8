//! The registry: every experiment's name, the flags it reads, its
//! `E…:` heading and its `run`. The name is the module's, the binary's
//! and the golden file's.
//!
//! An experiment prints nothing and never exits: what it has to say
//! goes into its [`Report`]'s named tables or its [`Failure`], and the
//! process edge (`crate::main`) does the rest. Its `expect`s assert the
//! simulated system's own invariants, so a clean run is itself a check.
#![deny(clippy::print_stdout, clippy::exit)]
#![allow(clippy::expect_used, clippy::unwrap_used)]

use std::path::Path;

use dsa_metrics::table::Table;
use dsa_probe::JsonlRecorder;

use crate::cli::{FlagSpec, CHAOS, FLIGHT_RECORDER, JOBS, METRICS_OUT, TRACE_OUT};
use crate::{Args, Failure, Report};

/// One experiment of the registry.
pub struct Experiment {
    /// The experiment's name, e.g. `exp_01_artificial_contiguity`.
    pub name: &'static str,
    /// The flags its binary accepts: those `run` reads, then the
    /// edge's `--metrics-out`.
    pub flags: &'static [FlagSpec],
    /// Runs the experiment on parsed flags.
    pub run: fn(&Args) -> Result<Report, Failure>,
}

/// The registered experiment called `name`; panics when there is none.
#[must_use]
pub fn experiment(name: &str) -> &'static Experiment {
    EXPERIMENTS
        .iter()
        .find(|e| e.name == name)
        .unwrap_or_else(|| panic!("no experiment named {name}"))
}

/// Writes `rec` to the `--trace-out` path and registers where it went,
/// with how many events it holds and dropped, as table `trace_out`.
fn trace_out(rep: &mut Report, rec: &JsonlRecorder, path: &Path) {
    rec.write_to(path).expect("writable --trace-out path");
    let mut t = Table::new(&["trace-out", "events", "dropped"]);
    t.row_owned(vec![
        path.display().to_string(),
        rec.len().to_string(),
        rec.dropped().to_string(),
    ]);
    rep.table("trace_out", t);
}

macro_rules! registry {
    ($($name:ident: [$($flag:expr),*] $heading:literal,)*) => {
        $(mod $name;)*

        /// Every experiment, in order, with the flags its `run` reads.
        pub const EXPERIMENTS: &[Experiment] = &[$(Experiment {
            name: stringify!($name),
            flags: &[$($flag,)* METRICS_OUT],
            run: |args| {
                let mut rep = Report::new(stringify!($name), $heading);
                $name::run(args, &mut rep)?;
                Ok(rep)
            },
        }),*];
    };
}

registry![
    exp_01_artificial_contiguity: [JOBS]
        "E1: artificial contiguity (Figures 1 and 2)",
    exp_02_space_time: [JOBS]
        "E2: storage utilization with demand paging (Figure 3)",
    exp_03_mapping_overhead: [JOBS]
        "E3: two-level mapping overhead vs associative-memory size (Figure 4)",
    exp_04_replacement: [JOBS, TRACE_OUT]
        "E4: replacement strategies — fault rate vs core size",
    exp_05_placement: [JOBS, TRACE_OUT]
        "E5: placement strategies under steady allocation churn",
    exp_06_faults: [JOBS, FLIGHT_RECORDER]
        "E6b: graceful degradation under injected storage faults",
    exp_06_page_size: [JOBS]
        "E6: the page-size dilemma (paging obscures fragmentation)",
    exp_07_compaction: [JOBS]
        "E7: compaction — corrective data movement vs accepted fragmentation",
    exp_08_advice: [JOBS]
        "E8: the value (and danger) of predictive information",
    exp_09_machine_survey: [JOBS]
        "E9: the seven appendix machines under one workload",
    exp_10_name_spaces: [JOBS]
        "E10: segment-name bookkeeping — symbolic vs linear dictionaries",
    exp_11_multics_dual: [JOBS]
        "E11: the MULTICS dual page size (64 + 1024 words)",
    exp_12_atlas_learning: [JOBS]
        "E12: the ATLAS learning program vs period regularity",
    exp_13_bounds: [JOBS]
        "E13: bounds checking across the seven machines",
    exp_14_promotion: [JOBS]
        "E14: promotion between directly addressable storage levels",
    exp_15_sharing: [JOBS]
        "E15: segments as the unit of protection and sharing",
    exp_16_load_control: [JOBS]
        "E16: independent vs integrated scheduling and storage allocation",
    exp_17_drum_queueing: [JOBS]
        "E17: FIFO vs shortest-latency-first drum queueing",
    exp_18_concurrency: [FLIGHT_RECORDER]
        "E18: concurrent allocation service — scaling with shard count",
    exp_19_overload: [JOBS, FLIGHT_RECORDER, CHAOS]
        "E19: overload-hardened service — collapse vs graceful saturation",
    exp_20_trace_scale: [exp_20_trace_scale::REFS, exp_20_trace_scale::MAX_RSS_MB]
        "E20: trace scale — streamed references, constant memory",
    exp_21_global_alloc: [exp_21_global_alloc::OPS]
        "E21: a real allocator — slab classes and magazines, judged by their books",
    exp_22_tenant_sweep: [JOBS, exp_22_tenant_sweep::TENANTS]
        "E22: population-scale multi-tenant scheduling",
];
