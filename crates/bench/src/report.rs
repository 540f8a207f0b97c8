//! What an experiment returns: its stdout, its named tables and its
//! end-of-run metrics, as data.

use dsa_metrics::table::Table;
use dsa_telemetry::TelemetrySnapshot;

/// `println!` into a [`Report`]'s stdout.
macro_rules! outln {
    ($r:expr $(, $($arg:tt)*)?) => {{
        use std::fmt::Write as _;
        // Writing to a `String` cannot fail.
        let _ = writeln!($r.stdout $(, $($arg)*)?);
    }};
}

/// One experiment run's result. Its stdout is what the experiment's
/// binary prints, byte for byte; every table in it is also kept, by
/// name, and lifted into the metrics.
pub struct Report {
    pub(crate) stdout: String,
    tables: Vec<(String, Table)>,
    /// What `--metrics-out` writes: the tables' cells, and whatever
    /// series the experiment adds.
    pub metrics: TelemetrySnapshot,
}

impl Report {
    /// An empty report whose metrics are namespaced by `name`.
    pub(crate) fn new(name: &str) -> Report {
        Report {
            stdout: String::new(),
            tables: Vec::new(),
            metrics: TelemetrySnapshot::new(name),
        }
    }

    /// Renders `table` into the stdout, lifts its cells into the
    /// metrics under `name`, and keeps it.
    pub(crate) fn table(&mut self, name: &str, table: Table) {
        outln!(self, "{table}");
        self.metrics.table(name, &table);
        self.tables.push((name.to_owned(), table));
    }

    /// Everything the experiment printed.
    #[must_use]
    pub fn stdout(&self) -> &str {
        &self.stdout
    }

    /// The table registered under `name`, if any.
    #[must_use]
    pub fn table_named(&self, name: &str) -> Option<&Table> {
        self.tables.iter().find(|(n, _)| n == name).map(|(_, t)| t)
    }
}

/// A verdict cell: `yes`, or a loud `NO`.
pub(crate) fn yes(b: bool) -> &'static str {
    if b {
        "yes"
    } else {
        "NO"
    }
}

/// An experiment run that failed a check it makes of its host: the
/// message for stderr and the process exit code.
#[derive(Debug)]
pub struct Failure {
    /// The exit code.
    pub code: u8,
    /// The message, without a trailing newline.
    pub message: String,
}
