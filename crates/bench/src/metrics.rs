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

use dsa_exec::cli;
use dsa_telemetry::{FlightRecorder, TelemetrySnapshot};

/// Writes `snapshot` to the `--metrics-out` path, if one was given on
/// the command line. No flag, no file, no output.
pub fn emit(snapshot: &TelemetrySnapshot) {
    let Some(path) = cli::path_flag_from_env(cli::METRICS_OUT) else {
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

/// The flight recorder requested by `--flight-recorder N`, if any. The
/// binaries that dump a postmortem (exp_06_faults, exp_18, exp_19)
/// accept the flag as an extra [`cli::FLIGHT_RECORDER`] and call this
/// once: exp_06_faults replays its worst cell into the recorder only
/// when one is requested, exp_18 and exp_19 resize the recorder they
/// always attach.
#[must_use]
pub fn flight_recorder_from_env() -> Option<FlightRecorder> {
    cli::count_flag_from_env(cli::FLIGHT_RECORDER).map(FlightRecorder::new)
}
