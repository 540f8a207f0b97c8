//! What an experiment returns: its heading, its named tables and its
//! end-of-run metrics, as data.

use std::fmt;

use dsa_metrics::table::Table;
use dsa_telemetry::TelemetrySnapshot;

/// One experiment run's result: the experiment's `E…:` heading and
/// every table it registered, by name, in order. Its [`Display`] is
/// what the experiment's binary prints, byte for byte; every table is
/// also lifted into the metrics.
///
/// [`Display`]: fmt::Display
pub struct Report {
    heading: &'static str,
    tables: Vec<(String, Table)>,
    /// What `--metrics-out` writes: the tables' cells, and whatever
    /// series the experiment adds.
    pub metrics: TelemetrySnapshot,
}

impl Report {
    /// An empty report under `heading` whose metrics are namespaced by
    /// `name`.
    pub(crate) fn new(name: &str, heading: &'static str) -> Report {
        Report {
            heading,
            tables: Vec::new(),
            metrics: TelemetrySnapshot::new(name),
        }
    }

    /// Lifts `table`'s cells into the metrics under `name`, and keeps
    /// it for the output.
    pub(crate) fn table(&mut self, name: &str, table: Table) {
        self.metrics.table(name, &table);
        self.tables.push((name.to_owned(), table));
    }

    /// The table registered under `name`, if any.
    #[must_use]
    pub fn table_named(&self, name: &str) -> Option<&Table> {
        self.tables.iter().find(|(n, _)| n == name).map(|(_, t)| t)
    }
}

/// The heading, then each registered table in order, a blank line
/// before each.
impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.heading)?;
        for (_, table) in &self.tables {
            write!(f, "\n{table}")?;
        }
        Ok(())
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
