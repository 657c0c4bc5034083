//! `sigma-lint` — workspace determinism & numeric-safety analyzer.
//!
//! Reproducing SIGMA's headline numbers (Fig. 12 speedups, Table-II
//! phase breakdowns, energy/area) requires the simulator to be
//! bit-deterministic and overflow-free. The runtime harness already
//! enforces byte-identical sweep output; this crate enforces the same
//! invariants *statically*, before code runs, with nine domain lints
//! (see [`rules`]) over a hand-rolled comment/string-aware lexer (see
//! [`lexer`]). D1–D6 are token-local per file; D7–D9 run a second,
//! workspace-wide phase over a brace-tree scope pass (see [`scopes`])
//! that checks every lock against one declared order
//! ([`rules::LOCKS`]). Waivers live in the repo-root `lint.toml` (see
//! [`waivers`]); any unwaived finding fails CI. Findings render as text
//! or as SARIF 2.1.0 for inline CI annotations (see [`sarif`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented
    )
)]

pub mod lexer;
pub mod rules;
pub mod sarif;
pub mod scopes;
pub mod waivers;

use std::fs;
use std::path::{Path, PathBuf};

pub use rules::{check_concurrency, check_file, FilePolicy, FileRole, Finding, Lint};
pub use sarif::report_to_sarif;
pub use waivers::{parse_waivers, Waiver, WaiverError};

/// Maximum number of waivers `lint.toml` may carry (`--check-waivers`
/// fails the build past this): exemptions are debt, and five is the
/// documented ceiling before a rule gets fixed or redesigned.
pub const WAIVER_BUDGET: usize = 5;

/// Crates whose library code feeds `RunRecord`/`CycleStats` output and
/// therefore must be free of nondeterminism sources (lint D1).
pub const DETERMINISM_CRITICAL_CRATES: &[&str] =
    &["core", "interconnect", "matrix", "baselines", "energy", "workloads", "telemetry"];

/// Files allowed to contain `unsafe` (lint D4). Today: the counting
/// global allocator used by the zero-allocation hot-loop test.
pub const UNSAFE_ALLOWLIST: &[&str] = &["crates/core/tests/alloc_free.rs"];

/// Directory names never scanned (vendored shims, build output,
/// committed results).
const SKIP_DIRS: &[&str] = &["target", "vendor", ".git", "results"];

/// An I/O or configuration failure (distinct from lint findings).
#[derive(Debug)]
pub struct AnalyzerError(pub String);

impl std::fmt::Display for AnalyzerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for AnalyzerError {}

impl From<WaiverError> for AnalyzerError {
    fn from(e: WaiverError) -> Self {
        AnalyzerError(e.to_string())
    }
}

/// Outcome of a full workspace scan, after waivers are applied.
#[derive(Debug, Default)]
pub struct Report {
    /// Findings not covered by any waiver — these fail the build.
    pub findings: Vec<Finding>,
    /// Findings suppressed by a `lint.toml` waiver.
    pub waived: Vec<Finding>,
    /// Parsed waivers, in file order.
    pub waivers: Vec<Waiver>,
    /// Waivers that covered zero findings (stale; `--check-waivers`
    /// turns these into an error so dead exemptions get pruned).
    pub stale_waivers: Vec<Waiver>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Whether the scan should fail the build. With `check_waivers`,
    /// stale waivers and a waiver list over [`WAIVER_BUDGET`] also fail.
    #[must_use]
    pub fn clean(&self, check_waivers: bool) -> bool {
        self.findings.is_empty()
            && (!check_waivers
                || (self.stale_waivers.is_empty() && self.waivers.len() <= WAIVER_BUDGET))
    }
}

/// Scans the workspace rooted at `root`, applying waivers from
/// `root/lint.toml` when present.
pub fn run(root: &Path) -> Result<Report, AnalyzerError> {
    let waivers = match fs::read_to_string(root.join("lint.toml")) {
        Ok(src) => parse_waivers(&src)?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(AnalyzerError(format!("lint.toml: {e}"))),
    };
    run_with_waivers(root, waivers)
}

/// Scans the workspace with an explicit waiver list (used by tests).
pub fn run_with_waivers(root: &Path, waivers: Vec<Waiver>) -> Result<Report, AnalyzerError> {
    let files = workspace_files(root)?;
    let mut report = Report { waivers: waivers.clone(), ..Report::default() };
    report.files_scanned = files.len();

    let mut used = vec![false; waivers.len()];
    let mut sources = Vec::with_capacity(files.len());
    for (policy, abs) in files {
        let src = fs::read_to_string(&abs)
            .map_err(|e| AnalyzerError(format!("{}: {e}", abs.display())))?;
        sources.push((policy, src));
    }
    let mut all = Vec::new();
    for (policy, src) in &sources {
        all.extend(check_file(policy, src));
    }
    all.extend(check_concurrency(&sources));
    all.sort_by(|a, b| {
        (&a.path, a.line, a.lint, &a.token).cmp(&(&b.path, b.line, b.lint, &b.token))
    });

    for finding in all {
        match waivers.iter().position(|w| w.covers(&finding)) {
            Some(i) => {
                used[i] = true;
                report.waived.push(finding);
            }
            None => report.findings.push(finding),
        }
    }
    report.stale_waivers =
        waivers.iter().zip(&used).filter(|(_, &u)| !u).map(|(w, _)| w.clone()).collect();
    Ok(report)
}

/// Enumerates every `.rs` file under the workspace with its lint
/// policy. Deterministic order (sorted directory walks).
pub fn workspace_files(root: &Path) -> Result<Vec<(FilePolicy, PathBuf)>, AnalyzerError> {
    let mut out = Vec::new();
    // Root facade crate (src/) plus every member under crates/.
    collect_crate(root, root, "sigma", &mut out)?;
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for dir in sorted_dirs(&crates_dir)? {
            let name = dir.file_name().and_then(|n| n.to_str()).unwrap_or_default().to_string();
            collect_crate(root, &dir, &name, &mut out)?;
        }
    }
    Ok(out)
}

/// Collects the `.rs` files of one crate rooted at `crate_dir`.
fn collect_crate(
    repo_root: &Path,
    crate_dir: &Path,
    crate_name: &str,
    out: &mut Vec<(FilePolicy, PathBuf)>,
) -> Result<(), AnalyzerError> {
    let determinism_critical = DETERMINISM_CRITICAL_CRATES.contains(&crate_name);
    for (sub, base_role) in [
        ("src", FileRole::Lib),
        ("tests", FileRole::TestOrBench),
        ("benches", FileRole::TestOrBench),
        ("examples", FileRole::TestOrBench),
    ] {
        let dir = crate_dir.join(sub);
        if !dir.is_dir() {
            continue;
        }
        let mut files = Vec::new();
        walk(&dir, &mut files)?;
        for abs in files {
            let rel = relative_path(repo_root, &abs);
            let role = if base_role == FileRole::Lib
                && (rel.contains("/src/bin/") || rel.ends_with("/src/main.rs"))
            {
                FileRole::Bin
            } else {
                base_role
            };
            let policy = FilePolicy {
                unsafe_allowed: UNSAFE_ALLOWLIST.contains(&rel.as_str()),
                determinism_critical: determinism_critical && role == FileRole::Lib,
                path: rel,
                role,
            };
            out.push((policy, abs));
        }
    }
    Ok(())
}

/// Recursively collects `.rs` files in sorted order, skipping
/// [`SKIP_DIRS`].
fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), AnalyzerError> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)
        .map_err(|e| AnalyzerError(format!("{}: {e}", dir.display())))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or_default();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name) {
                walk(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn sorted_dirs(dir: &Path) -> Result<Vec<PathBuf>, AnalyzerError> {
    let mut dirs: Vec<PathBuf> = fs::read_dir(dir)
        .map_err(|e| AnalyzerError(format!("{}: {e}", dir.display())))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    dirs.sort();
    Ok(dirs)
}

/// Repo-relative path with forward slashes (stable across platforms,
/// usable as a waiver key).
fn relative_path(root: &Path, abs: &Path) -> String {
    let rel = abs.strip_prefix(root).unwrap_or(abs);
    rel.components().map(|c| c.as_os_str().to_string_lossy()).collect::<Vec<_>>().join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_paths_use_forward_slashes() {
        let root = Path::new("/repo");
        let abs = Path::new("/repo/crates/core/src/lib.rs");
        assert_eq!(relative_path(root, abs), "crates/core/src/lib.rs");
    }

    #[test]
    fn report_clean_logic() {
        let mut r = Report::default();
        assert!(r.clean(true));
        r.stale_waivers.push(Waiver { path: "x.rs".into(), lint: Lint::D1, reason: "r".into() });
        assert!(r.clean(false));
        assert!(!r.clean(true));
    }

    #[test]
    fn waiver_budget_is_enforced_only_under_check_waivers() {
        let mut r = Report::default();
        for i in 0..WAIVER_BUDGET + 1 {
            r.waivers.push(Waiver { path: format!("f{i}.rs"), lint: Lint::D2, reason: "r".into() });
        }
        assert!(r.clean(false), "budget only applies with --check-waivers");
        assert!(!r.clean(true), "a sixth waiver must fail --check-waivers");
        r.waivers.pop();
        assert!(r.clean(true), "exactly five waivers is within budget");
    }
}
