//! `sigma-lint` CLI.
//!
//! ```text
//! cargo run -p sigma-lint                 # human-readable report, exit 1 on findings
//! cargo run -p sigma-lint -- --sarif    # SARIF 2.1.0 log of unwaived findings on stdout
//! cargo run -p sigma-lint -- --check-waivers   # also fail on stale/over-budget waivers
//! cargo run -p sigma-lint -- --root PATH # scan a different workspace root
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut sarif = false;
    let mut check_waivers = false;
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--sarif" => sarif = true,
            "--check-waivers" => check_waivers = true,
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => {
                    eprintln!("sigma-lint: --root needs a path");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!(
                    "sigma-lint: workspace determinism, numeric-safety & concurrency analyzer\n\
                     \n\
                     USAGE: sigma-lint [--sarif] [--check-waivers] [--root PATH]\n\
                     \n\
                     Lints:"
                );
                for lint in sigma_lint::Lint::ALL {
                    println!("  {}  {}", lint.name(), lint.description());
                }
                println!(
                    "\n\
                     D1-D6 are per-file token rules; D7-D9 run a workspace-wide\n\
                     scope phase that checks every lock against the one declared\n\
                     order in LOCKS (crates/lint/src/rules.rs).\n\
                     --sarif prints the unwaived findings as a SARIF 2.1.0 log;\n\
                     the text report also counts waived findings and stale waivers.\n\
                     Waivers: lint.toml at the workspace root ([[waiver]] with\n\
                     path/lint/reason; empty reasons are rejected; --check-waivers\n\
                     enforces a budget of {} waivers).\n\
                     Exit codes: 0 clean, 1 unwaived findings (or stale/over-budget\n\
                     waivers with --check-waivers), 2 usage or I/O error.",
                    sigma_lint::WAIVER_BUDGET
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("sigma-lint: unknown flag `{other}` (try --help)");
                return ExitCode::from(2);
            }
        }
    }

    let root = root.unwrap_or_else(find_workspace_root);
    let report = match sigma_lint::run(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("sigma-lint: {e}");
            return ExitCode::from(2);
        }
    };

    if sarif {
        print!("{}", sigma_lint::report_to_sarif(&report));
    } else {
        for f in &report.findings {
            println!("{f}");
        }
        for w in &report.stale_waivers {
            let fate = if check_waivers { "error" } else { "warning" };
            println!(
                "lint.toml: {fate}: stale waiver ({} {}) matched no findings — remove it",
                w.path,
                w.lint.name()
            );
        }
        if check_waivers && report.waivers.len() > sigma_lint::WAIVER_BUDGET {
            println!(
                "lint.toml: error: {} waivers exceed the budget of {} — fix findings \
                 instead of stacking exemptions",
                report.waivers.len(),
                sigma_lint::WAIVER_BUDGET
            );
        }
        println!(
            "sigma-lint: {} file(s) scanned, {} finding(s), {} waived, {} stale waiver(s)",
            report.files_scanned,
            report.findings.len(),
            report.waived.len(),
            report.stale_waivers.len()
        );
    }

    if report.clean(check_waivers) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Walks up from the current directory to the first dir containing a
/// workspace `Cargo.toml` with a `crates/` directory; falls back to `.`.
fn find_workspace_root() -> PathBuf {
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return dir;
        }
        if !dir.pop() {
            return PathBuf::from(".");
        }
    }
}
