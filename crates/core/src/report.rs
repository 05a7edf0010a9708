//! Plain-text and CSV table formatting for experiment output.

use std::fmt;

/// A simple column-aligned text table that can also be exported as CSV.
///
/// Used by the table/figure generators so that every experiment binary
/// prints its data in the same shape the paper reports it (rows of a table,
/// series of a figure) and can also be piped into plotting tools.
///
/// # Example
///
/// ```
/// use dae_core::TextTable;
///
/// let mut table = TextTable::new(vec!["program".into(), "LHE".into()]);
/// table.push_row(vec!["FLO52Q".into(), "0.86".into()]);
/// table.push_row(vec!["TRACK".into(), "0.21".into()]);
/// let text = table.to_string();
/// assert!(text.contains("FLO52Q"));
/// assert_eq!(table.to_csv().lines().count(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    #[must_use]
    pub fn new(headers: Vec<String>) -> Self {
        TextTable {
            headers,
            rows: Vec::new(),
        }
    }

    /// Appends a row.  Rows shorter than the header are padded with empty
    /// cells; longer rows are allowed (extra cells get minimal width).
    pub fn push_row(&mut self, row: Vec<String>) {
        self.rows.push(row);
    }

    /// Renders the table as comma-separated values (headers first).  Cells
    /// containing commas or quotes are quoted.
    #[must_use]
    pub fn to_csv(&self) -> String {
        fn escape(cell: &str) -> String {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        }
        let mut out = String::new();
        out.push_str(
            &self
                .headers
                .iter()
                .map(|h| escape(h))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }

    fn column_widths(&self) -> Vec<usize> {
        let columns = self
            .headers
            .len()
            .max(self.rows.iter().map(Vec::len).max().unwrap_or(0));
        let mut widths = vec![0usize; columns];
        for (i, h) in self.headers.iter().enumerate() {
            widths[i] = widths[i].max(h.len());
        }
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        widths
    }
}

impl fmt::Display for TextTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let widths = self.column_widths();
        let write_row = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            let mut line = String::new();
            for (i, width) in widths.iter().enumerate() {
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{cell:>width$}"));
            }
            writeln!(f, "{}", line.trim_end())
        };
        write_row(f, &self.headers)?;
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1);
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            write_row(f, row)?;
        }
        Ok(())
    }
}

/// Formats a floating point value the way the paper's tables do (three
/// significant decimals, `-` for missing values).
#[must_use]
pub(crate) fn fmt_metric(value: Option<f64>) -> String {
    match value {
        Some(v) => format!("{v:.3}"),
        None => "-".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TextTable {
        let mut t = TextTable::new(vec!["a".into(), "bb".into(), "ccc".into()]);
        t.push_row(vec!["1".into(), "22".into(), "333".into()]);
        t.push_row(vec!["long-cell".into(), "2".into(), "3".into()]);
        t
    }

    #[test]
    fn display_aligns_columns() {
        let text = sample().to_string();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[1].starts_with('-'));
        assert!(lines[2].contains("333"));
    }

    #[test]
    fn csv_has_header_plus_rows() {
        let csv = sample().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "a,bb,ccc");
        assert_eq!(lines[1], "1,22,333");
    }

    #[test]
    fn csv_escapes_awkward_cells() {
        let mut t = TextTable::new(vec!["x".into()]);
        t.push_row(vec!["a,b".into()]);
        t.push_row(vec!["say \"hi\"".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"a,b\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    fn short_rows_are_padded() {
        let mut t = TextTable::new(vec!["a".into(), "b".into()]);
        t.push_row(vec!["only".into()]);
        let text = t.to_string();
        assert!(text.contains("only"));
        assert_eq!(t.rows.len(), 1);
    }

    #[test]
    fn metric_formatting() {
        assert_eq!(fmt_metric(Some(0.12345)), "0.123");
        assert_eq!(fmt_metric(None), "-");
    }
}
