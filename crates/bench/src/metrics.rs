//! End-of-run metrics emission shared by every experiment binary.
//!
//! Each `exp_*` binary builds a [`TelemetrySnapshot`] namespaced by its
//! own name, registers whatever it already prints (result tables, probe
//! counters, distributions), and calls [`emit`] last. If the user
//! passed `--metrics-out PATH` the registered series are written there
//! — JSON for a `.json` path, Prometheus text exposition otherwise —
//! and nothing is written at all when the flag is absent, so the
//! binaries' stdout stays byte-identical to the golden gauntlet.
//!
//! Every binary registers in its deterministic print order, so the
//! emitted file is byte-stable across runs and across `--jobs`
//! settings.

use dsa_telemetry::{FlightRecorder, TelemetrySnapshot};

/// Writes `snapshot` to the `--metrics-out` path, if one was given on
/// the command line. No flag, no file, no output.
pub fn emit(snapshot: &TelemetrySnapshot) {
    let Some(path) = dsa_exec::cli::metrics_out_from_env() else {
        return;
    };
    match snapshot.write(&path) {
        Ok(()) => eprintln!(
            "metrics: wrote {} series to {}",
            snapshot.len(),
            path.display()
        ),
        Err(e) => {
            eprintln!("metrics: cannot write {}: {e}", path.display());
            std::process::exit(2);
        }
    }
}

/// The flight recorder requested by `--flight-recorder N`, if any.
/// Every binary calls this once and tees the returned recorder's
/// handles into its probe sinks; with no flag there is no recorder
/// and the tee leg const-folds away behind `NullProbe`-style checks.
#[must_use]
pub fn flight_recorder_from_env() -> Option<FlightRecorder> {
    dsa_exec::cli::flight_recorder_from_env().map(FlightRecorder::new)
}
