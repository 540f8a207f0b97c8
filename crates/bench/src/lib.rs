//! Experiment harness library.
//!
//! Each experiment in [`EXPERIMENTS`] regenerates a figure or a
//! quantitative claim of the paper (see DESIGN.md's experiment index
//! and EXPERIMENTS.md for paper-vs-measured); host time is
//! `benchmark/`'s business, not this crate's. An experiment is a
//! function from parsed flags to a [`Report`], so a test runs it
//! in-process and reads its output as data. [`main`] is the one process
//! edge; each `exp_*` binary in `src/bin/` is [`experiment_main!`].

#[macro_use]
mod report;
mod cli;
mod experiments;
mod workloads;

use std::process::ExitCode;

use cli::{usage, METRICS_OUT};
pub use cli::{ArgError, Args, FlagSpec};
pub use experiments::{experiment, Experiment, EXPERIMENTS};
pub use report::{Failure, Report};

/// Runs the experiment `name` as a process: parses the arguments once,
/// answers `--help` (exit 0) and a bad argument (exit 2), prints the
/// report, writes `--metrics-out`, and exits a [`Failure`] with its
/// code and message.
#[must_use]
pub fn main(name: &str) -> ExitCode {
    let exp = experiment(name);
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv, exp.flags) {
        Ok(args) => args,
        Err(ArgError::Help) => {
            print!("{}", usage(name, exp.flags));
            return ExitCode::SUCCESS;
        }
        Err(ArgError::Unknown(msg)) => {
            eprintln!("{msg}");
            eprint!("{}", usage(name, exp.flags));
            return ExitCode::from(2);
        }
        Err(ArgError::Malformed(msg)) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let report = match (exp.run)(&args) {
        Ok(report) => report,
        Err(failure) => {
            eprintln!("{}", failure.message);
            return ExitCode::from(failure.code);
        }
    };
    print!("{}", report.stdout());
    if let Some(path) = args.path(METRICS_OUT) {
        let metrics = &report.metrics;
        if let Err(e) = metrics.write(&path) {
            eprintln!("metrics: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        eprintln!(
            "metrics: wrote {} series to {}",
            metrics.len(),
            path.display()
        );
    }
    ExitCode::SUCCESS
}

/// The `main` of an `exp_*` binary: [`main`] for the experiment the
/// binary is named after.
#[macro_export]
macro_rules! experiment_main {
    () => {
        fn main() -> std::process::ExitCode {
            $crate::main(env!("CARGO_BIN_NAME"))
        }
    };
}
