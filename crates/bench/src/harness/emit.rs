//! The shared figure-binary entry point: every `src/bin/figNN_*` binary
//! hands its tables here instead of hand-rolling print/CSV loops.
//!
//! Flags understood by every figure binary:
//!
//! * `--csv <dir>` — also write each table as `<slug>.csv`;
//! * `--json <dir>` — also write each table as `<slug>.json`;
//! * `--quiet` — suppress the text rendering (files only).

use crate::harness::cache::write_atomic;
use crate::util::Table;
use std::path::Path;

#[derive(Debug, Default)]
struct EmitOptions {
    csv_dir: Option<String>,
    json_dir: Option<String>,
    quiet: bool,
}

impl EmitOptions {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut opts = EmitOptions::default();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--csv" => {
                    i += 1;
                    opts.csv_dir = Some(args.get(i).ok_or("--csv needs a directory")?.clone());
                }
                "--json" => {
                    i += 1;
                    opts.json_dir = Some(args.get(i).ok_or("--json needs a directory")?.clone());
                }
                "--quiet" => opts.quiet = true,
                other => return Err(format!("unknown flag {other}")),
            }
            i += 1;
        }
        Ok(opts)
    }
}

/// Renders tables to `out` and optionally to CSV/JSON files, per `args`.
///
/// # Errors
///
/// Returns a message on unknown flags or file I/O failure.
pub fn emit_tables_with(
    tables: &[Table],
    args: &[String],
    out: &mut dyn std::io::Write,
) -> Result<(), String> {
    let opts = EmitOptions::parse(args)?;
    for dir in [&opts.csv_dir, &opts.json_dir].into_iter().flatten() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {dir}: {e}"))?;
    }
    for table in tables {
        if !opts.quiet {
            writeln!(out, "{table}").map_err(|e| e.to_string())?;
        }
        // Atomic (temp + sync + rename) like every other harness
        // artifact: a consumer never observes a half-written export.
        if let Some(dir) = &opts.csv_dir {
            let path = Path::new(dir).join(format!("{}.csv", table.slug()));
            write_atomic(&path, table.to_csv().as_bytes())
                .map_err(|e| format!("write {}: {e}", path.display()))?;
        }
        if let Some(dir) = &opts.json_dir {
            let path = Path::new(dir).join(format!("{}.json", table.slug()));
            write_atomic(&path, table.to_json().as_bytes())
                .map_err(|e| format!("write {}: {e}", path.display()))?;
        }
    }
    Ok(())
}

/// The figure-binary `main` body: emits `tables` to stdout per the
/// process arguments, exiting with status 2 on a usage error.
pub fn emit_tables(tables: &[Table]) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(msg) = emit_tables_with(tables, &args, &mut std::io::stdout()) {
        eprintln!("{msg} (flags: [--csv DIR] [--json DIR] [--quiet])");
        std::process::exit(2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("Fig. T — sample", &["a", "b"]);
        t.push(vec!["1".into(), "2".into()]);
        t
    }

    #[test]
    fn text_emission_renders_tables() {
        let mut out = Vec::new();
        emit_tables_with(&[sample()], &[], &mut out).unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.contains("Fig. T"));
    }

    #[test]
    fn quiet_plus_files_writes_csv_and_json() {
        let dir = std::env::temp_dir().join("sigma_emit_test");
        let _ = std::fs::remove_dir_all(&dir);
        let d = dir.to_string_lossy().to_string();
        let mut out = Vec::new();
        emit_tables_with(
            &[sample()],
            &["--quiet".into(), "--csv".into(), d.clone(), "--json".into(), d.clone()],
            &mut out,
        )
        .unwrap();
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
        let mut out = Vec::new();
        let err = emit_tables_with(&[sample()], &["--nope".into()], &mut out).unwrap_err();
        assert!(err.contains("--nope"));
        assert!(emit_tables_with(&[sample()], &["--csv".into()], &mut out).is_err());
    }
}
