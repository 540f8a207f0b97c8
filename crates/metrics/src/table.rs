//! Fixed-width table rendering for experiment output.
//!
//! Every `exp_*` binary prints its results as rows of a plain-text table
//! so that EXPERIMENTS.md can quote them verbatim.

use core::fmt;

/// Alignment of a column's cells.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Align {
    /// Left-aligned (labels).
    Left,
    /// Right-aligned (numbers).
    Right,
}

/// A simple fixed-width text table.
///
/// # Examples
///
/// ```
/// use dsa_metrics::table::Table;
///
/// let mut t = Table::new(&["policy", "faults"]);
/// t.row_owned(vec!["LRU".into(), "123".into()]);
/// t.row_owned(vec!["FIFO".into(), "154".into()]);
/// let s = t.to_string();
/// assert!(s.contains("policy"));
/// assert!(s.contains("154"));
/// ```
#[derive(Clone, Debug)]
pub struct Table {
    headers: Vec<String>,
    aligns: Vec<Align>,
    rows: Vec<Vec<String>>,
    title: Option<String>,
}

impl Table {
    /// Creates a table with the given column headers. The first column is
    /// left-aligned, the rest right-aligned (the common label+numbers
    /// shape).
    #[must_use]
    pub fn new(headers: &[&str]) -> Table {
        let aligns = headers
            .iter()
            .enumerate()
            .map(|(i, _)| if i == 0 { Align::Left } else { Align::Right })
            .collect();
        Table {
            headers: headers.iter().map(|s| (*s).to_owned()).collect(),
            aligns,
            rows: Vec::new(),
            title: None,
        }
    }

    /// Sets a title line printed above the table.
    #[must_use]
    pub fn with_title(mut self, title: &str) -> Table {
        self.title = Some(title.to_owned());
        self
    }

    /// Appends a row of already-owned cells (convenient with `format!`).
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn row_owned(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "cell count mismatch");
        self.rows.push(cells);
    }

    /// The column headers, in order.
    #[must_use]
    pub fn headers(&self) -> &[String] {
        &self.headers
    }

    /// The data rows, in insertion order.
    #[must_use]
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// The title, if one was set.
    #[must_use]
    pub fn title(&self) -> Option<&str> {
        self.title.as_deref()
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ncols = self.headers.len();
        // Widths count chars, as `{:<width$}` pads by them.
        let width = |s: &String| s.chars().count();
        let mut widths: Vec<usize> = self.headers.iter().map(width).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(width(cell));
            }
        }
        if let Some(title) = &self.title {
            writeln!(f, "## {title}")?;
        }
        let write_row = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            for i in 0..ncols {
                if i > 0 {
                    write!(f, "  ")?;
                }
                match self.aligns[i] {
                    Align::Left => write!(f, "{:<width$}", cells[i], width = widths[i])?,
                    Align::Right => write!(f, "{:>width$}", cells[i], width = widths[i])?,
                }
            }
            writeln!(f)
        };
        write_row(f, &self.headers)?;
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            write_row(f, row)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(&["name", "value"]);
        t.row_owned(vec!["a".into(), "1".into()]);
        t.row_owned(vec!["longer".into(), "12345".into()]);
        let s = t.to_string();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[0], "name    value");
        assert_eq!(lines[2], "a           1");
        assert_eq!(lines[3], "longer  12345");
    }

    #[test]
    fn title_is_printed() {
        let t = Table::new(&["x"]).with_title("E4 replacement");
        assert!(t.to_string().starts_with("## E4 replacement"));
    }

    #[test]
    #[should_panic(expected = "cell count mismatch")]
    fn wrong_arity_panics() {
        let mut t = Table::new(&["a", "b"]);
        t.row_owned(vec!["only-one".into()]);
    }
}
