//! Small shared helpers for the experiment binaries.

/// A rendered experiment table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    /// Table title (figure/table id + caption).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table.
    #[must_use]
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(ToString::to_string).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width does not match the headers; use
    /// [`Table::try_push`] to handle that case gracefully.
    // Deliberate convenience panic over try_push (sigma-lint D2 waived
    // for this file in lint.toml).
    #[allow(clippy::expect_used)]
    pub fn push(&mut self, row: Vec<String>) {
        self.try_push(row).expect("row width must match headers");
    }

    /// Appends a row, rejecting rows whose width does not match the
    /// headers.
    ///
    /// # Errors
    ///
    /// Returns [`RowWidthError`] when `row.len() != self.headers.len()`;
    /// the table is left unchanged.
    pub fn try_push(&mut self, row: Vec<String>) -> Result<(), RowWidthError> {
        if row.len() != self.headers.len() {
            return Err(RowWidthError { expected: self.headers.len(), got: row.len() });
        }
        self.rows.push(row);
        Ok(())
    }

    /// Renders as CSV (header row first). Cells containing commas,
    /// quotes or CR/LF are quoted.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let escape = |cell: &str| -> String {
            if cell.contains(',')
                || cell.contains('"')
                || cell.contains('\n')
                || cell.contains('\r')
            {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let mut out = String::new();
        out.push_str(&self.headers.iter().map(|h| escape(h)).collect::<Vec<_>>().join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }

    /// Renders as JSON: `{"title": ..., "rows": [{header: cell, ...}]}`.
    /// Field order is fixed (headers in table order), so equal tables
    /// render byte-identically.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"title\": {},\n", sigma_telemetry::json::quote(&self.title)));
        out.push_str("  \"rows\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            out.push_str("    {");
            for (j, (h, c)) in self.headers.iter().zip(row).enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!(
                    "{}: {}",
                    sigma_telemetry::json::quote(h),
                    sigma_telemetry::json::quote(c)
                ));
            }
            out.push_str(if i + 1 < self.rows.len() { "},\n" } else { "}\n" });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// A filesystem-friendly slug of the title (for CSV file names).
    #[must_use]
    pub fn slug(&self) -> String {
        self.title
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c.to_ascii_lowercase() } else { '_' })
            .collect::<String>()
            .split('_')
            .filter(|s| !s.is_empty())
            .collect::<Vec<_>>()
            .join("_")
    }

    /// Renders with aligned columns.
    #[must_use]
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let line = |cells: &[String], widths: &[usize]| -> String {
            cells.iter().zip(widths).map(|(c, w)| format!("{c:>w$}")).collect::<Vec<_>>().join("  ")
        };
        out.push_str(&line(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&line(row, &widths));
            out.push('\n');
        }
        out
    }
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

/// A row whose width does not match the table's headers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowWidthError {
    /// Header count of the table.
    pub expected: usize,
    /// Width of the rejected row.
    pub got: usize,
}

impl std::fmt::Display for RowWidthError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "row width {} does not match {} headers", self.got, self.expected)
    }
}

impl std::error::Error for RowWidthError {}

/// Geometric mean of a slice of positive values.
///
/// # Panics
///
/// Panics if `xs` is empty or any element is non-positive.
#[must_use]
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geomean of empty slice");
    assert!(xs.iter().all(|x| *x > 0.0), "geomean requires positive values");
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Formats a cycle count compactly.
#[must_use]
pub fn fmt_cycles(c: u64) -> String {
    if c >= 10_000_000 {
        format!("{:.1}M", c as f64 / 1e6)
    } else if c >= 10_000 {
        format!("{:.1}k", c as f64 / 1e3)
    } else {
        c.to_string()
    }
}

/// Formats a ratio as `x.xx×`.
#[must_use]
pub fn fmt_x(r: f64) -> String {
    format!("{r:.2}x")
}

/// Formats a fraction as a percentage.
#[must_use]
pub fn fmt_pct(f: f64) -> String {
    format!("{:.1}%", f * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("Fig. X", &["name", "value"]);
        t.push(vec!["a".into(), "1".into()]);
        t.push(vec!["long-name".into(), "22".into()]);
        let r = t.render();
        assert!(r.contains("Fig. X"));
        assert!(r.lines().count() >= 4);
        let widths: Vec<usize> = r.lines().map(str::len).collect();
        assert_eq!(widths[1], widths[3], "rows align with headers");
    }

    #[test]
    fn csv_escapes_and_slugs() {
        let mut t = Table::new("Fig. 6b — FAN, etc.", &["a,b", "c"]);
        t.push(vec!["x\"y".into(), "plain".into()]);
        let csv = t.to_csv();
        assert!(csv.starts_with("\"a,b\",c\n"));
        assert!(csv.contains("\"x\"\"y\",plain"));
        assert_eq!(t.slug(), "fig_6b_fan_etc");
    }

    #[test]
    fn geomean_values() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[5.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt_cycles(999), "999");
        assert_eq!(fmt_cycles(25_000), "25.0k");
        assert_eq!(fmt_cycles(12_000_000), "12.0M");
        assert_eq!(fmt_x(2.0), "2.00x");
        assert_eq!(fmt_pct(0.825), "82.5%");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new("t", &["a", "b"]);
        t.push(vec!["only-one".into()]);
    }

    #[test]
    fn try_push_reports_width_mismatch() {
        let mut t = Table::new("t", &["a", "b"]);
        let err = t.try_push(vec!["only-one".into()]).unwrap_err();
        assert_eq!(err, RowWidthError { expected: 2, got: 1 });
        assert!(err.to_string().contains("row width 1"));
        assert!(t.rows.is_empty(), "failed push must not mutate the table");
        assert!(t.try_push(vec!["x".into(), "y".into()]).is_ok());
        assert_eq!(t.rows.len(), 1);
    }

    #[test]
    fn csv_quotes_carriage_returns() {
        let mut t = Table::new("t", &["a"]);
        t.push(vec!["line\rbreak".into()]);
        assert!(t.to_csv().contains("\"line\rbreak\""));
    }

    #[test]
    fn json_rendering_is_valid_and_ordered() {
        let mut t = Table::new("T \"quoted\"", &["x", "y"]);
        t.push(vec!["a\nb".into(), "c".into()]);
        let j = t.to_json();
        assert!(j.contains("\"title\": \"T \\\"quoted\\\"\""));
        assert!(j.contains("{\"x\": \"a\\nb\", \"y\": \"c\"}"));
    }
}
