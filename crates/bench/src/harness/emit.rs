//! The shared figure-binary entry point: every `src/bin/figNN_*` binary
//! hands its tables here instead of hand-rolling print/CSV loops.
//!
//! Flags understood by every figure binary ([`EMIT_FLAGS`]):
//!
//! * `--csv <dir>` — also write each table as `<slug>.csv`;
//! * `--json <dir>` — also write each table as `<slug>.json`;
//! * `--quiet` — suppress the text rendering (files only).

use crate::harness::cache::write_atomic;
use crate::util::{exit_usage, Args, Cli, Table};
use std::path::Path;

/// The usage of the emit flags.
pub const EMIT_FLAGS: &str = "[--csv DIR] [--json DIR] [--quiet]";

/// Where a binary's tables go: the text rendering and any file exports.
#[derive(Debug, Default)]
pub struct Emit {
    csv_dir: Option<String>,
    json_dir: Option<String>,
    quiet: bool,
}

impl Emit {
    /// Takes the [`EMIT_FLAGS`] from `args`.
    pub fn read(args: &mut Args<'_>) -> Self {
        Self {
            csv_dir: args.value("--csv"),
            json_dir: args.value("--json"),
            quiet: args.switch("--quiet"),
        }
    }

    /// Renders `tables` to `out` unless quiet, and to the CSV/JSON
    /// directories asked for.
    ///
    /// # Errors
    ///
    /// Returns a message on file I/O failure.
    pub fn write(&self, tables: &[Table], out: &mut dyn std::io::Write) -> Result<(), String> {
        for dir in [&self.csv_dir, &self.json_dir].into_iter().flatten() {
            std::fs::create_dir_all(dir).map_err(|e| format!("create {dir}: {e}"))?;
        }
        for table in tables {
            if !self.quiet {
                writeln!(out, "{table}").map_err(|e| e.to_string())?;
            }
            // Atomic (temp + sync + rename) like every other harness
            // artifact: a consumer never observes a half-written export.
            if let Some(dir) = &self.csv_dir {
                let path = Path::new(dir).join(format!("{}.csv", table.slug()));
                write_atomic(&path, table.to_csv().as_bytes())
                    .map_err(|e| format!("write {}: {e}", path.display()))?;
            }
            if let Some(dir) = &self.json_dir {
                let path = Path::new(dir).join(format!("{}.json", table.slug()));
                write_atomic(&path, table.to_json().as_bytes())
                    .map_err(|e| format!("write {}: {e}", path.display()))?;
            }
        }
        Ok(())
    }
}

/// The figure-binary `main` body: emits `tables` to stdout per the
/// process arguments, exiting with status 2 on a usage or I/O error.
pub fn emit_tables(tables: &[Table]) {
    let argv0 = std::env::args().next().unwrap_or_default();
    let bin = Path::new(&argv0).file_name().map_or(argv0.clone(), |f| f.to_string_lossy().into());
    let cli = Cli::new(&bin, 2, "", EMIT_FLAGS);
    let mut args = cli.from_env();
    let emit = Emit::read(&mut args);
    args.finish().unwrap_or_else(|msg| exit_usage(&msg));
    emit.write(tables, &mut std::io::stdout()).unwrap_or_else(|msg| exit_usage(&msg));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("Fig. T — sample", &["a", "b"]);
        t.push(vec!["1".into(), "2".into()]);
        t
    }

    /// Reads `argv` as a figure binary does.
    fn emit_of(argv: &[&str]) -> Result<Emit, String> {
        let cli = Cli::new("fig", 2, "", EMIT_FLAGS);
        let mut args = cli.parse(argv.iter().map(ToString::to_string).collect())?;
        let emit = Emit::read(&mut args);
        args.finish().map(|()| emit)
    }

    #[test]
    fn text_emission_renders_tables() {
        let mut out = Vec::new();
        emit_of(&[]).unwrap().write(&[sample()], &mut out).unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.contains("Fig. T"));
    }

    #[test]
    fn quiet_plus_files_writes_csv_and_json() {
        let dir = std::env::temp_dir().join("sigma_emit_test");
        let _ = std::fs::remove_dir_all(&dir);
        let d = dir.to_string_lossy().to_string();
        let mut out = Vec::new();
        let emit = emit_of(&["--quiet", "--csv", &d, "--json", &d]).unwrap();
        emit.write(&[sample()], &mut out).unwrap();
        assert!(out.is_empty(), "quiet must suppress text");
        let slug = sample().slug();
        assert_eq!(
            std::fs::read_to_string(dir.join(format!("{slug}.csv"))).unwrap(),
            sample().to_csv()
        );
        assert_eq!(
            std::fs::read_to_string(dir.join(format!("{slug}.json"))).unwrap(),
            sample().to_json()
        );
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "atomic writes leave no temp files: {leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_flags_are_rejected() {
        let err = emit_of(&["--nope"]).unwrap_err();
        assert!(err.contains("--nope") && err.contains(EMIT_FLAGS), "{err}");
        assert!(emit_of(&["--csv"]).unwrap_err().contains("--csv needs a value"));
    }
}
