//! Minimal CSV/series export for plotting the experiment results, and the
//! numeric-row parser behind trace replay
//! ([`crate::scenario::LoadScenario::from_trace_csv`]).
//!
//! Hand-rolled on purpose: the workspace's only external dependencies are
//! `rand` and `proptest` (vendored stand-ins), and the needs here are a
//! header plus numeric rows.

use std::fmt::Write as FmtWrite;

use crate::SimError;

/// Renders a CSV document from a header and rows of optional numbers
/// (empty cells for `None` — gnuplot and pandas both treat them as
/// missing data, which is how skipped frames appear in the encoding-time
/// figures).
///
/// # Example
///
/// ```
/// use fgqos_sim::csv::render_csv;
///
/// let doc = render_csv(
///     &["frame", "mcycle"],
///     [vec![Some(0.0), Some(311.5)], vec![Some(1.0), None]].into_iter(),
/// );
/// assert_eq!(doc, "frame,mcycle\n0,311.5\n1,\n");
/// ```
pub fn render_csv<I>(header: &[&str], rows: I) -> String
where
    I: Iterator<Item = Vec<Option<f64>>>,
{
    let mut out = String::new();
    out.push_str(&header.join(","));
    out.push('\n');
    for row in rows {
        let mut first = true;
        for cell in row {
            if !first {
                out.push(',');
            }
            first = false;
            if let Some(v) = cell {
                if (v.fract()).abs() < f64::EPSILON && v.abs() < 1e15 {
                    let _ = write!(out, "{}", v as i64);
                } else {
                    let _ = write!(out, "{v}");
                }
            }
        }
        out.push('\n');
    }
    out
}

/// A parsed CSV document: the header names and the numeric rows (empty
/// cells become `None`, mirroring [`render_csv`]).
#[derive(Debug, Clone, PartialEq)]
pub struct CsvDoc {
    /// Column names from the header line.
    pub header: Vec<String>,
    /// Numeric rows, each as long as the header.
    pub rows: Vec<Vec<Option<f64>>>,
    /// 1-based file line of each data row (comment and blank lines are
    /// skipped but still counted, so diagnostics name real file lines).
    pub lines: Vec<usize>,
}

impl CsvDoc {
    /// Index of the column named `name`.
    ///
    /// # Errors
    ///
    /// [`SimError::Parse`] when the header lacks the column.
    pub fn column(&self, name: &str) -> Result<usize, SimError> {
        self.header
            .iter()
            .position(|h| h == name)
            .ok_or_else(|| SimError::Parse(format!("missing column `{name}`")))
    }

    /// The 1-based file line data row `row` came from.
    #[must_use]
    pub fn line(&self, row: usize) -> usize {
        self.lines[row]
    }

    /// The value at `(row, column)`.
    ///
    /// # Errors
    ///
    /// [`SimError::Parse`] when the cell is empty.
    pub fn required(&self, row: usize, col: usize) -> Result<f64, SimError> {
        self.rows[row][col].ok_or_else(|| {
            SimError::Parse(format!(
                "line {}: empty cell in column `{}`",
                self.lines[row], self.header[col]
            ))
        })
    }
}

/// Parses a header + numeric-rows CSV document, the inverse of
/// [`render_csv`]. Blank lines and `#` comment lines are skipped; every
/// data row must have exactly as many cells as the header.
///
/// # Errors
///
/// [`SimError::Parse`] on a missing header, ragged rows, or non-numeric
/// cells.
///
/// # Example
///
/// ```
/// use fgqos_sim::csv::parse_csv;
///
/// let doc = parse_csv("frame,mcycle\n0,311.5\n1,\n").unwrap();
/// assert_eq!(doc.header, ["frame", "mcycle"]);
/// assert_eq!(doc.rows[0], [Some(0.0), Some(311.5)]);
/// assert_eq!(doc.rows[1], [Some(1.0), None]);
/// ```
pub fn parse_csv(text: &str) -> Result<CsvDoc, SimError> {
    // Keep original 1-based line numbers through the filter so every
    // diagnostic names the actual file line.
    let mut lines = text
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.trim()))
        .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'));
    let header: Vec<String> = lines
        .next()
        .ok_or_else(|| SimError::Parse("empty document: no header line".to_owned()))?
        .1
        .split(',')
        .map(|h| h.trim().to_owned())
        .collect();
    let mut rows = Vec::new();
    let mut row_lines = Vec::new();
    for (line_no, line) in lines {
        let cells: Vec<&str> = line.split(',').collect();
        if cells.len() != header.len() {
            return Err(SimError::Parse(format!(
                "line {line_no}: {} cells, header has {}",
                cells.len(),
                header.len()
            )));
        }
        let row = cells
            .iter()
            .map(|c| {
                let c = c.trim();
                if c.is_empty() {
                    Ok(None)
                } else {
                    c.parse::<f64>()
                        .map(Some)
                        .map_err(|_| SimError::Parse(format!("line {line_no}: bad number `{c}`")))
                }
            })
            .collect::<Result<Vec<Option<f64>>, SimError>>()?;
        rows.push(row);
        row_lines.push(line_no);
    }
    Ok(CsvDoc {
        header,
        rows,
        lines: row_lines,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_renders_missing_cells() {
        let doc = render_csv(
            &["a", "b"],
            [vec![Some(1.0), None], vec![None, Some(2.5)]].into_iter(),
        );
        assert_eq!(doc, "a,b\n1,\n,2.5\n");
    }

    #[test]
    fn csv_integers_render_without_decimals() {
        let doc = render_csv(&["x"], [vec![Some(320.0)]].into_iter());
        assert_eq!(doc, "x\n320\n");
    }

    #[test]
    fn parse_inverts_render() {
        let rows = vec![vec![Some(1.0), None], vec![Some(2.5), Some(-3.25)]];
        let doc = render_csv(&["a", "b"], rows.clone().into_iter());
        let parsed = parse_csv(&doc).unwrap();
        assert_eq!(parsed.header, ["a", "b"]);
        assert_eq!(parsed.rows, rows);
    }

    #[test]
    fn parse_skips_comments_and_blank_lines() {
        let doc = parse_csv("# a comment\n\nx,y\n1,2\n\n# trailing\n3,4\n").unwrap();
        assert_eq!(doc.rows.len(), 2);
        assert_eq!(doc.column("y").unwrap(), 1);
        assert_eq!(doc.required(1, 0).unwrap(), 3.0);
        // Diagnostics name actual file lines, counting skipped ones.
        assert_eq!(doc.line(0), 4);
        assert_eq!(doc.line(1), 7);
    }

    #[test]
    fn parse_errors_name_the_actual_file_line() {
        let err = parse_csv("# comment\n\nx\n1\nbad\n").unwrap_err();
        assert!(err.to_string().contains("line 5"), "wrong line in: {err}");
        let doc = parse_csv("# c\nx,y\n1,\n").unwrap();
        let err = doc.required(0, 1).unwrap_err();
        assert!(
            err.to_string().contains("line 3") && err.to_string().contains('y'),
            "wrong location in: {err}"
        );
    }

    #[test]
    fn parse_rejects_bad_documents() {
        assert!(matches!(parse_csv(""), Err(SimError::Parse(_))));
        assert!(matches!(parse_csv("a,b\n1\n"), Err(SimError::Parse(_))));
        assert!(matches!(
            parse_csv("a\nnot-a-number\n"),
            Err(SimError::Parse(_))
        ));
        let doc = parse_csv("a,b\n1,\n").unwrap();
        assert!(doc.column("missing").is_err());
        assert!(doc.required(0, 1).is_err());
    }
}
