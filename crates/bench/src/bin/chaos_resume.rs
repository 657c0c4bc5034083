//! Chaos gate for crash-safe resumable sweeps: SIGKILL a child sweep at
//! seeded cell counts, resume from its journal, and demand the final
//! records be **byte-identical** to an uninterrupted run.
//!
//! Protocol:
//!
//! * the parent (default mode) computes the uninterrupted baseline
//!   in-process, then for each seeded kill point spawns *itself* with
//!   `--child --journal PATH`;
//! * the child runs the same sweep through [`Sweep::resume`], with each
//!   engine wrapped in a pacing shim so the journal grows one line every
//!   few tens of milliseconds;
//! * the parent polls the journal's completed-line count and delivers
//!   SIGKILL (`Child::kill`) the moment the seeded threshold is crossed —
//!   possibly mid-append, which is exactly the torn-tail crash the
//!   journal's replay tolerates;
//! * the parent then resumes the sweep in-process and self-gates: the
//!   resumed records, their CSV rendering, and their JSON rendering must
//!   all equal the baseline byte for byte, across every kill point.
//!
//! ```sh
//! cargo run -p sigma-bench --bin chaos_resume -- --smoke
//! ```
//!
//! Flags: `--smoke` (shorter pacing for CI; same number of kill points).
//! The child takes only `--child --journal PATH [--pace-ms MS]`; any
//! other flag, in either mode, exits 2 with the mode's usage line.
//! Exits non-zero if any kill point fails to resume byte-identically.

use sigma_bench::harness::{
    default_registry, demo_suite, derive_seed, records_table, records_to_json, EngineEntry, Sweep,
};
use sigma_bench::util::{exit_usage, Cli};
use sigma_core::{Engine, EngineError, EngineRun};
use sigma_matrix::SparseMatrix;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Slugs of the registry engines the gate sweeps (fast functional ones,
/// so the paced child is dominated by the pacing, not the engines).
const FLEET_SLUGS: [&str; 3] = ["eie", "scnn", "cambricon-x"];

/// Seeded kill points per run. The ISSUE acceptance gate wants the
/// resume proven across at least five distinct crash cells.
const KILL_POINTS: u64 = 6;

/// A shim that stalls before delegating, so the child's journal grows
/// slowly enough for the parent to aim its SIGKILL at a specific cell
/// count. Name and numbers pass straight through: pacing changes wall
/// time only, never records (records carry no wall time).
struct PacedEngine {
    inner: std::sync::Arc<dyn Engine>,
    pace: Duration,
}

impl Engine for PacedEngine {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn pes(&self) -> usize {
        self.inner.pes()
    }

    fn run(&self, a: &SparseMatrix, b: &SparseMatrix) -> Result<EngineRun, EngineError> {
        std::thread::sleep(self.pace);
        self.inner.run(a, b)
    }
}

/// The gate's engine fleet, optionally paced (child mode).
fn fleet(pace: Option<Duration>) -> Vec<EngineEntry> {
    default_registry()
        .into_iter()
        .filter(|e| FLEET_SLUGS.contains(&e.slug.as_str()))
        .map(|e| match pace {
            Some(pace) => {
                EngineEntry::new(e.slug.clone(), Box::new(PacedEngine { inner: e.engine, pace }))
            }
            None => e,
        })
        .collect()
}

/// The gate's sweep: single-threaded so the child's journal grows one
/// line at a time and kill points land on exact cell counts.
fn sweep() -> Sweep {
    Sweep::new(demo_suite()).with_seed(0xC4A5_0FF1).with_threads(1)
}

/// Completed journal lines (newline-terminated only — a torn tail is an
/// in-flight append, not a completed cell).
fn journal_lines(path: &Path) -> usize {
    std::fs::read(path).map_or(0, |raw| raw.iter().filter(|&&b| b == b'\n').count())
}

/// Child mode: run the journaled sweep with paced engines, then exit.
/// (The parent usually SIGKILLs this process before it gets far.)
fn run_child(journal: &Path, pace: Duration) -> i32 {
    match sweep().resume(&fleet(Some(pace)), journal) {
        Ok(_) => 0,
        Err(e) => {
            eprintln!("chaos_resume --child: {e}");
            1
        }
    }
}

/// One parent-side kill point: spawn the child, SIGKILL it once the
/// journal holds `kill_after` completed cells, resume in-process, and
/// compare every rendering against the baseline.
fn run_kill_point(
    exe: &Path,
    journal: &PathBuf,
    pace: Duration,
    kill_after: usize,
    baseline_csv: &str,
    baseline_json: &str,
) -> Result<(usize, u64), String> {
    let _ = std::fs::remove_file(journal);
    let mut child = std::process::Command::new(exe)
        .arg("--child")
        .arg("--journal")
        .arg(journal)
        .arg("--pace-ms")
        .arg(pace.as_millis().to_string())
        .spawn()
        .map_err(|e| format!("could not spawn child: {e}"))?;
    // Poll the journal and deliver SIGKILL the moment the threshold is
    // crossed. The deadline covers the pathological case of a wedged
    // child; the child normally paces through the grid well within it.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if journal_lines(journal) >= kill_after {
            break;
        }
        if let Ok(Some(_)) = child.try_wait() {
            break; // finished before the threshold: resume is all-hits
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            return Err("child never reached the kill threshold".to_string());
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    // On Unix, `Child::kill` is SIGKILL: no destructors, no flushing —
    // the journal is whatever the fsynced appends made durable.
    let _ = child.kill();
    let _ = child.wait();
    let survivors = journal_lines(journal);

    let outcome = sweep()
        .resume(&fleet(None), journal)
        .map_err(|e| format!("resume after kill failed: {e}"))?;
    let csv = records_table("sweep", &outcome.records).to_csv();
    let json = records_to_json(&outcome.records);
    if csv != baseline_csv {
        return Err(format!(
            "CSV diverged after killing at {kill_after} cells ({survivors} journaled)"
        ));
    }
    if json != baseline_json {
        return Err(format!(
            "JSON diverged after killing at {kill_after} cells ({survivors} journaled)"
        ));
    }
    Ok((survivors, outcome.resume_hits))
}

fn main() {
    let cli = Cli::new("chaos_resume", 0, "parent", "[--smoke]")
        .mode("--child --journal PATH [--pace-ms MS]");
    let mut args = cli.from_env();
    if args.mode() == "--child" {
        let journal: Option<PathBuf> = args.value("--journal");
        let pace_ms = args.value("--pace-ms").unwrap_or(25);
        args.finish().unwrap_or_else(|msg| exit_usage(&msg));
        let journal =
            journal.unwrap_or_else(|| exit_usage("chaos_resume --child requires --journal PATH"));
        std::process::exit(run_child(&journal, Duration::from_millis(pace_ms)));
    }
    let smoke = args.switch("--smoke");
    args.finish().unwrap_or_else(|msg| exit_usage(&msg));

    let pace = Duration::from_millis(if smoke { 15 } else { 40 });
    let Ok(exe) = std::env::current_exe() else {
        eprintln!("chaos_resume: cannot locate own executable");
        std::process::exit(2);
    };
    let engines = fleet(None);
    let baseline = sweep().run(&engines);
    let baseline_csv = records_table("sweep", &baseline).to_csv();
    let baseline_json = records_to_json(&baseline);
    let cells = baseline.len();
    println!("chaos_resume: grid of {cells} cells, {KILL_POINTS} seeded kill points");

    let dir = std::env::temp_dir().join("sigma_chaos_resume");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("chaos_resume: cannot create {}: {e}", dir.display());
        std::process::exit(2);
    }
    let journal = dir.join(format!("chaos_{}.journal", std::process::id()));

    let mut failed = false;
    for i in 0..KILL_POINTS {
        // Seeded spread over the interior of the grid: never 0 (trivial)
        // and never the full grid (no crash), both covered implicitly by
        // the resume unit tests.
        let kill_after = 1 + (derive_seed(0xDEAD_C4A5, i) as usize) % (cells - 1);
        match run_kill_point(&exe, &journal, pace, kill_after, &baseline_csv, &baseline_json) {
            Ok((survivors, hits)) => println!(
                "kill point {i}: SIGKILL at {kill_after} cells -> {survivors} journaled, \
                 {hits} replayed, output byte-identical"
            ),
            Err(msg) => {
                eprintln!("kill point {i}: FAIL: {msg}");
                failed = true;
            }
        }
    }
    let _ = std::fs::remove_file(&journal);
    if failed {
        eprintln!("chaos_resume: FAIL");
        std::process::exit(1);
    }
    println!("chaos_resume: PASS ({KILL_POINTS} kill points byte-identical)");
}
