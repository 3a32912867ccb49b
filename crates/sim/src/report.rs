//! Plain-text table rendering for `tage-bench --paper` and the
//! `estimators` binary.

use core::fmt::Write as _;

/// A simple fixed-width text table builder for paper-style tables.
///
/// # Example
///
/// ```
/// use tage_sim::report::TextTable;
///
/// let mut table = TextTable::new(vec!["trace", "MPKI"]);
/// table.row(vec!["FP-1".to_string(), "0.42".to_string()]);
/// let rendered = table.render();
/// assert!(rendered.contains("FP-1"));
/// assert!(rendered.contains("MPKI"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new(headers: Vec<&str>) -> Self {
        TextTable {
            headers: headers.into_iter().map(str::to_string).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row. Rows shorter than the header are padded with empty
    /// cells; longer rows are truncated.
    pub fn row(&mut self, mut cells: Vec<String>) {
        cells.resize(self.headers.len(), String::new());
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let write_row = |cells: &[String], out: &mut String| {
            for (i, cell) in cells.iter().enumerate() {
                let _ = write!(out, "| {:<width$} ", cell, width = widths[i]);
            }
            out.push_str("|\n");
        };
        write_row(&self.headers, &mut out);
        for (i, width) in widths.iter().enumerate() {
            let _ = write!(out, "|{:-<w$}", "", w = width + 2);
            if i == widths.len() - 1 {
                out.push_str("|\n");
            }
        }
        for row in &self.rows {
            write_row(row, &mut out);
        }
        out
    }
}

/// Formats a fraction as the paper does in Tables 2/3 (three decimals).
pub fn fraction(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a misprediction rate in MKP with no decimals (paper style).
pub fn mkp(x: f64) -> String {
    format!("{x:.0}")
}

/// Formats an MPKI value with two decimals.
pub fn mpki(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a probability as `1/n` when it is (close to) a power of two, or
/// as a decimal otherwise.
pub fn probability(p: f64) -> String {
    if p <= 0.0 {
        return "0".to_string();
    }
    let inverse = 1.0 / p;
    let rounded = inverse.round();
    if (inverse - rounded).abs() < 1e-9 && rounded >= 1.0 {
        format!("1/{}", rounded as u64)
    } else {
        format!("{p:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_columns() {
        let mut t = TextTable::new(vec!["name", "value"]);
        t.row(vec!["a-very-long-name".to_string(), "1".to_string()]);
        t.row(vec!["b".to_string(), "2".to_string()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // All lines have the same width.
        assert!(lines.windows(2).all(|w| w[0].len() == w[1].len()), "{s}");
    }

    #[test]
    fn short_and_long_rows_are_normalised() {
        let mut t = TextTable::new(vec!["a", "b", "c"]);
        t.row(vec!["1".to_string()]);
        t.row(vec![
            "1".to_string(),
            "2".to_string(),
            "3".to_string(),
            "4".to_string(),
        ]);
        let s = t.render();
        assert!(s.contains("| 1 "));
        assert!(!s.contains('4'), "overflow cell should be dropped: {s}");
    }

    #[test]
    fn formatters() {
        assert_eq!(fraction(0.69), "0.690");
        assert_eq!(mkp(306.4), "306");
        assert_eq!(mpki(4.214), "4.21");
        assert_eq!(probability(1.0 / 128.0), "1/128");
        assert_eq!(probability(1.0), "1/1");
        assert_eq!(probability(0.0), "0");
        assert_eq!(probability(0.3), "0.3000");
    }
}
