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

/// One mode of a binary: its name, its usage line, and the flags of that
/// line, each with whether it takes a value.
#[derive(Debug)]
struct Mode {
    name: String,
    usage: String,
    flags: Vec<(String, bool)>,
}

/// A binary's command line: one usage line per mode, read through
/// [`Args`]. `--help` and the reader take a mode's flags from its usage
/// line alone. In it, a word that starts with `-` (after any `[`) is a
/// flag, and the next word is that flag's value unless the flag's `[`
/// group closed or the word opens a new one. The first mode is the
/// default; every other mode's line starts with the token that selects
/// it (`--sweep`, `trace`, `--engine NAME`), and naming two is an error.
#[derive(Debug)]
pub struct Cli {
    bin: String,
    help_exit: i32,
    modes: Vec<Mode>,
}

impl Cli {
    /// A binary whose default mode is called `name` (empty when it is the
    /// only mode) and takes the flags of `usage`. `--help` prints every
    /// mode's line and exits with `help_exit`, on stdout when that is 0.
    #[must_use]
    pub fn new(bin: &str, help_exit: i32, name: &str, usage: &str) -> Self {
        let cli = Self { bin: bin.to_string(), help_exit, modes: Vec::new() };
        cli.with_mode(name, usage)
    }

    /// Adds a mode, selected by the first word of `usage`.
    #[must_use]
    pub fn mode(self, usage: &str) -> Self {
        self.with_mode(usage.split_whitespace().next().unwrap_or_default(), usage)
    }

    fn with_mode(mut self, name: &str, usage: &str) -> Self {
        let mut flags: Vec<(String, bool)> = Vec::new();
        let mut open = false; // the last word was a flag that may take a value
        for word in usage.split_whitespace() {
            let bare = word.trim_start_matches('[');
            if bare.starts_with('-') || bare == name {
                flags.push((bare.trim_end_matches([']', '.']).to_string(), false));
                open = !word.ends_with(']');
            } else if let Some(flag) = flags.last_mut().filter(|_| open && bare == word) {
                (flag.1, open) = (true, false);
            }
        }
        self.modes.push(Mode { name: name.to_string(), usage: usage.to_string(), flags });
        self
    }

    /// Every mode's usage line.
    fn usage(&self) -> String {
        let lines: Vec<String> =
            self.modes.iter().map(|m| format!("{} {}", self.bin, m.usage)).collect();
        format!("usage: {}", lines.join("\n       "))
    }

    /// Reads the process arguments, printing the usage and exiting on
    /// `--help` or `-h`, and exiting 2 when they name two modes.
    #[must_use]
    pub fn from_env(&self) -> Args<'_> {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        if argv.iter().any(|a| a == "--help" || a == "-h") {
            if self.help_exit == 0 {
                println!("{}", self.usage());
            } else {
                eprintln!("{}", self.usage());
            }
            std::process::exit(self.help_exit);
        }
        self.parse(argv).unwrap_or_else(|msg| exit_usage(&msg))
    }

    /// Pairs each flag of `argv` with its value and selects the mode.
    ///
    /// # Errors
    ///
    /// Returns a message with every usage line when `argv` names two modes.
    pub(crate) fn parse(&self, argv: Vec<String>) -> Result<Args<'_>, String> {
        let takes_value =
            |t: &str| self.modes.iter().flat_map(|m| &m.flags).any(|f| f.0 == t && f.1);
        let mut items = Vec::new();
        let mut tokens = argv.into_iter();
        while let Some(token) = tokens.next() {
            let value = if takes_value(&token) { tokens.next() } else { None };
            items.push((token, value));
        }
        let named: Vec<&Mode> =
            self.modes[1..].iter().filter(|m| items.iter().any(|(t, _)| *t == m.name)).collect();
        let mode = match named[..] {
            [] => &self.modes[0],
            [mode] => {
                // A selecting switch says nothing more; `--engine NAME`
                // is read by its mode.
                if !mode.flags[0].1 {
                    items.retain(|(t, _)| *t != mode.name);
                }
                mode
            }
            [a, b, ..] => {
                let (bin, usage) = (&self.bin, self.usage());
                return Err(format!(
                    "{bin}: {} and {} are two modes; give one\n{usage}",
                    a.name, b.name
                ));
            }
        };
        Ok(Args { bin: &self.bin, mode, items, error: None })
    }
}

/// One mode's arguments, taken flag by flag. Taking a flag not on the
/// mode's usage line panics, so help and reading cannot drift;
/// [`Args::finish`] reports the first bad value, or else whatever no flag
/// took.
#[derive(Debug)]
pub struct Args<'a> {
    bin: &'a str,
    mode: &'a Mode,
    items: Vec<(String, Option<String>)>,
    error: Option<String>,
}

impl<'a> Args<'a> {
    /// The selected mode's name.
    #[must_use]
    pub fn mode(&self) -> &'a str {
        &self.mode.name
    }

    /// Takes every `name` switch: whether one was given.
    pub fn switch(&mut self, name: &str) -> bool {
        !self.taken(name, false).is_empty()
    }

    /// Takes every `name` flag and returns its last value.
    pub fn value<T: std::str::FromStr>(&mut self, name: &str) -> Option<T>
    where
        T::Err: std::fmt::Display,
    {
        self.values(name).pop()
    }

    /// Takes every `name` flag and returns its values in order.
    pub fn values<T: std::str::FromStr>(&mut self, name: &str) -> Vec<T>
    where
        T::Err: std::fmt::Display,
    {
        let mut out = Vec::new();
        for value in self.taken(name, true) {
            match value.map(|v| v.parse().map_err(|e| format!("{name} {v}: {e}"))) {
                Some(Ok(v)) => out.push(v),
                Some(Err(msg)) => self.fail(&msg),
                None => self.fail(&format!("{name} needs a value")),
            }
        }
        out
    }

    /// Takes the first argument that is not a flag, parsed as the `name`
    /// operand of the mode's usage line (`[COUNT]`).
    pub fn positional<T: std::str::FromStr>(&mut self, name: &str) -> Option<T>
    where
        T::Err: std::fmt::Display,
    {
        assert!(self.mode.usage.contains(name), "{name} is not in `{}`", self.mode.usage);
        let at = self.items.iter().position(|(t, v)| v.is_none() && !t.starts_with('-'))?;
        let (token, _) = self.items.remove(at);
        token.parse().map_err(|e| self.fail(&format!("{name} {token}: {e}"))).ok()
    }

    /// Takes the `name` flag's last value, which must be one of `choices`.
    pub fn choice(&mut self, name: &str, choices: &[&'static str]) -> Option<&'static str> {
        let value: String = self.value(name)?;
        let choice = choices.iter().copied().find(|c| *c == value);
        if choice.is_none() {
            self.fail(&format!("{name} {value}: expected one of {}", choices.join(", ")));
        }
        choice
    }

    /// Records a usage error for [`Args::finish`], unless one is recorded.
    pub fn fail(&mut self, problem: &str) {
        self.error.get_or_insert_with(|| problem.to_string());
    }

    fn taken(&mut self, name: &str, value: bool) -> Vec<Option<String>> {
        let mode = self.mode;
        assert!(
            mode.flags.contains(&(name.to_string(), value)),
            "{name} is not in `{}`",
            mode.usage
        );
        let (taken, kept) =
            std::mem::take(&mut self.items).into_iter().partition(|(t, _)| t == name);
        self.items = kept;
        taken.into_iter().map(|(_, v): (String, _)| v).collect()
    }

    /// Ends the reading.
    ///
    /// # Errors
    ///
    /// Returns the first bad value, or else the first argument no flag
    /// took, with the mode and its usage line.
    pub fn finish(self) -> Result<(), String> {
        let left = self.items.first().map(|(token, _)| format!("unexpected {token}"));
        let Some(problem) = self.error.or(left) else { return Ok(()) };
        let (bin, mode) = (self.bin, &self.mode.name);
        let at = if mode.is_empty() { String::new() } else { format!(" {mode} mode") };
        Err(format!("{bin}{at}: {problem}\nusage: {bin} {}", self.mode.usage))
    }
}

/// Prints a usage error and exits with status 2.
pub fn exit_usage(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2)
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

    fn cli() -> Cli {
        Cli::new("t", 2, "plain", "[--n N] [--quiet] [--tag T]...")
            .mode("--go [--n N] [--fast]")
            .mode("show --from PATH")
    }

    fn args_of<'a>(cli: &'a Cli, argv: &[&str]) -> Args<'a> {
        cli.parse(argv.iter().map(ToString::to_string).collect()).unwrap()
    }

    #[test]
    fn usage_lines_declare_switches_and_values() {
        let c = cli();
        let flags = |i: usize| -> Vec<(&str, bool)> {
            c.modes[i].flags.iter().map(|(f, v)| (f.as_str(), *v)).collect()
        };
        assert_eq!(flags(0), [("--n", true), ("--quiet", false), ("--tag", true)]);
        assert_eq!(flags(1), [("--go", false), ("--n", true), ("--fast", false)]);
        assert_eq!(flags(2), [("show", false), ("--from", true)]);
        assert_eq!(
            c.usage(),
            "usage: t [--n N] [--quiet] [--tag T]...\n       t --go [--n N] [--fast]\n       \
             t show --from PATH"
        );
    }

    #[test]
    fn flags_are_taken_with_the_last_value_winning() {
        let c = cli();
        let mut a = args_of(&c, &["--tag", "x", "--n", "1", "--quiet", "--n", "2", "--tag", "y"]);
        assert_eq!(a.mode(), "plain");
        assert_eq!(a.value::<u32>("--n"), Some(2));
        assert!(a.switch("--quiet"));
        assert_eq!(a.values::<String>("--tag"), ["x", "y"]);
        assert!(a.finish().is_ok());
    }

    #[test]
    fn finish_names_the_problem_the_mode_and_its_usage() {
        let c = cli();
        let mut a = args_of(&c, &["--go", "--quiet"]);
        assert_eq!(a.mode(), "--go");
        assert!(!a.switch("--fast"));
        assert_eq!(
            a.finish().unwrap_err(),
            "t --go mode: unexpected --quiet\nusage: t --go [--n N] [--fast]"
        );
        let first_line = |argv: &[&str]| {
            let mut a = args_of(&c, argv);
            let _ = a.value::<u32>("--n");
            a.finish().unwrap_err().lines().next().unwrap_or_default().to_string()
        };
        assert_eq!(
            first_line(&["--n", "x", "--bogus"]),
            "t plain mode: --n x: invalid digit found in string"
        );
        assert_eq!(first_line(&["--n"]), "t plain mode: --n needs a value");
    }

    #[test]
    fn a_value_selects_no_mode_and_two_modes_are_refused() {
        let c = cli();
        let mut a = args_of(&c, &["show", "--from", "--go"]);
        assert_eq!(a.mode(), "show");
        assert_eq!(a.value::<String>("--from").as_deref(), Some("--go"));
        assert!(a.finish().is_ok());
        let err = c.parse(vec!["--go".into(), "show".into()]).unwrap_err();
        assert!(err.starts_with("t: --go and show are two modes"), "{err}");
    }

    #[test]
    #[should_panic(expected = "--fast is not in `[--n N] [--quiet] [--tag T]...`")]
    fn reading_an_undeclared_flag_is_a_programming_error() {
        let c = cli();
        args_of(&c, &[]).switch("--fast");
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
