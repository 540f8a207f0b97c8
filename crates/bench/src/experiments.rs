//! The registry: every experiment's name, the flags it reads, and its
//! `run`. The name is the module's, the binary's and the golden file's.
//!
//! An experiment prints nothing and never exits: what it has to say
//! goes into its [`Report`] or its [`Failure`], and the process edge
//! (`crate::main`) does the rest. Its `expect`s assert the simulated
//! system's own invariants, so a clean run is itself a check.
#![deny(clippy::print_stdout, clippy::exit)]
#![allow(clippy::expect_used, clippy::unwrap_used)]

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

macro_rules! registry {
    ($($name:ident: [$($flag:expr),*],)*) => {
        $(mod $name;)*

        /// Every experiment, in order, with the flags its `run` reads.
        pub const EXPERIMENTS: &[Experiment] = &[$(Experiment {
            name: stringify!($name),
            flags: &[$($flag,)* METRICS_OUT],
            run: |args| {
                let mut rep = Report::new(stringify!($name));
                $name::run(args, &mut rep)?;
                Ok(rep)
            },
        }),*];
    };
}

registry![
    exp_01_artificial_contiguity: [JOBS],
    exp_02_space_time: [JOBS],
    exp_03_mapping_overhead: [JOBS],
    exp_04_replacement: [JOBS, TRACE_OUT],
    exp_05_placement: [JOBS, TRACE_OUT],
    exp_06_faults: [JOBS, FLIGHT_RECORDER],
    exp_06_page_size: [JOBS],
    exp_07_compaction: [JOBS],
    exp_08_advice: [JOBS],
    exp_09_machine_survey: [JOBS],
    exp_10_name_spaces: [JOBS],
    exp_11_multics_dual: [JOBS],
    exp_12_atlas_learning: [JOBS],
    exp_13_bounds: [JOBS],
    exp_14_promotion: [JOBS],
    exp_15_sharing: [JOBS],
    exp_16_load_control: [JOBS],
    exp_17_drum_queueing: [JOBS],
    exp_18_concurrency: [FLIGHT_RECORDER],
    exp_19_overload: [JOBS, FLIGHT_RECORDER, CHAOS],
    exp_20_trace_scale: [exp_20_trace_scale::REFS, exp_20_trace_scale::MAX_RSS_MB],
    exp_21_global_alloc: [exp_21_global_alloc::OPS],
    exp_22_tenant_sweep: [JOBS, exp_22_tenant_sweep::TENANTS],
];
