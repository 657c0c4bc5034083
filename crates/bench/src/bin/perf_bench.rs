//! Simulator perf-regression gate: cycles-simulated-per-second.
//!
//! Runs the fixed benchmark ladder from [`sigma_bench::perf`] (dense,
//! sparse, and irregular GEMMs at 128–16K PEs), prints a throughput table,
//! and maintains the committed `BENCH_sim.json` baseline at the repo root.
//!
//! ```sh
//! cargo run --release -p sigma-bench --bin perf_bench            # refresh baseline
//! cargo run --release -p sigma-bench --bin perf_bench -- --check # regression gate
//! ```
//!
//! Modes:
//!
//! * default — measure the full ladder and (re)write `BENCH_sim.json`;
//! * `--check` — measure and compare against the committed baseline
//!   without writing; exits non-zero when any case regresses by more than
//!   the tolerance (15%, tightened to 10% for the ≥4K-PE cases; 30% under
//!   `--smoke`, whose low rep count is noisier);
//! * `--smoke` — CI subset: the small end of the ladder at low rep count;
//! * `--dse-warm` — the run-cache leg: sweep a DSE-style grid cold (empty
//!   cache), then warm (same store), demand byte-identical CSV/JSON against
//!   an uncached run, exact hit and miss counts, and a ≥ 50x
//!   warm-over-cold cells/sec speedup;
//! * `--recorder-check` — the flight-recorder zero-overhead gate: the same
//!   sweep with no recorder, a disabled recorder handle, and an enabled
//!   recorder must render byte-identical records/CSV/JSON, and the enabled
//!   leg's engine-run span count must equal the cells it executed;
//! * `--out PATH` — override the baseline location;
//! * `--quiet` — suppress the table.
//!
//! Each mode takes only its own flags, as `--help` lists them: the
//! `--dse-warm` and `--recorder-check` modes take `--smoke` and
//! `--quiet`, and only the default ladder takes `--check`
//! and `--out`. Any other flag, or two modes at once, exits 2 with the
//! mode's usage line.
//!
//! `--check` requires an optimized build: debug timings are an order of
//! magnitude off the committed numbers, so an unoptimized gate run warns
//! and skips the comparison. The `--dse-warm` speedup gate skips under
//! debug the same way (the parity and hit/miss checks always run).

use sigma_bench::harness::{
    default_registry, demo_suite, records_table, records_to_json, RunCache, Sweep,
};
use sigma_bench::perf::{cases, measure, parse_baseline, to_json, PerfMeasurement};
use sigma_bench::util::{exit_usage, Cli, Table};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

/// Timed repetitions per case: best-of-3 normally, best-of-2 for smoke.
const FULL_REPS: usize = 3;
const SMOKE_REPS: usize = 2;

fn default_baseline_path() -> PathBuf {
    // crates/bench -> crates -> repo root.
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join("BENCH_sim.json")
}

/// The warm-over-cold cells/sec floor the `--dse-warm` leg must clear.
const DSE_WARM_MIN_SPEEDUP: f64 = 50.0;

/// `--dse-warm`: the run-cache bench leg. Sweeps a DSE-style grid (the
/// engine registry over demo workloads) three ways — uncached, cold cache,
/// warm cache — and demands:
///
/// 1. CSV and JSON renderings byte-identical across all three, with the
///    cold pass missing every cell and each warm pass hitting every cell;
/// 2. warm cells/sec ≥ [`DSE_WARM_MIN_SPEEDUP`] x cold (release builds
///    only — debug timings skip the gate exactly like `--check`).
#[allow(clippy::too_many_lines)]
fn run_dse_warm(smoke: bool, quiet: bool) -> ExitCode {
    // A DSE-style grid with enough simulation work per cell that the
    // cold/warm separation is timing-stable; smoke keeps the demo scale.
    let workloads: Vec<_> = if smoke {
        demo_suite().into_iter().take(1).collect()
    } else {
        use sigma_core::model::GemmProblem;
        use sigma_matrix::GemmShape;
        vec![
            sigma_bench::harness::WorkloadSpec::new(
                "dse dense 64x64x64",
                GemmProblem::dense(GemmShape::new(64, 64, 64)),
            ),
            sigma_bench::harness::WorkloadSpec::new(
                "dse sparse 96x96x96 (50%/80%)",
                GemmProblem::sparse(GemmShape::new(96, 96, 96), 0.5, 0.2),
            ),
            sigma_bench::harness::WorkloadSpec::new(
                "dse irregular 48x128x32 (30%/50%)",
                GemmProblem::sparse(GemmShape::new(48, 128, 32), 0.7, 0.5),
            ),
        ]
    };
    let engines = default_registry();
    let cells = engines.len() * workloads.len();
    let store =
        std::env::temp_dir().join(format!("sigma_perf_dse_warm_{}.cache", std::process::id()));
    let _ = std::fs::remove_file(&store);

    let sweep = Sweep::new(workloads.clone()).with_seed(33).with_threads(4);
    let t0 = std::time::Instant::now();
    let uncached = sweep.run(&engines);
    let uncached_secs = t0.elapsed().as_secs_f64();

    let cache = match RunCache::open(&store, 4096) {
        Ok(c) => Arc::new(c),
        Err(e) => {
            eprintln!("perf_bench: cannot open cache store {}: {e}", store.display());
            return ExitCode::FAILURE;
        }
    };
    let cached_sweep = sweep.with_cache(Arc::clone(&cache));
    let t1 = std::time::Instant::now();
    let cold = cached_sweep.run(&engines);
    let cold_secs = t1.elapsed().as_secs_f64();
    // Warm timing is best-of-3, like every other leg in this binary.
    let mut warm_secs = f64::INFINITY;
    let mut warm = Vec::new();
    for _ in 0..3 {
        let t2 = std::time::Instant::now();
        warm = cached_sweep.run(&engines);
        warm_secs = warm_secs.min(t2.elapsed().as_secs_f64());
    }
    let _ = std::fs::remove_file(&store);

    // Gate 1: byte-identical artifacts, uncached vs cold vs warm.
    let parity = [("cold", &cold), ("warm", &warm)];
    for (leg, records) in parity {
        if records_to_json(records) != records_to_json(&uncached)
            || records_table("dse", records).to_csv() != records_table("dse", &uncached).to_csv()
        {
            eprintln!("perf_bench: DSE-WARM PARITY FAILURE: {leg} run differs from uncached");
            return ExitCode::FAILURE;
        }
    }
    let stats = cache.stats();
    if stats.misses != cells as u64 || stats.hits != 3 * cells as u64 {
        eprintln!(
            "perf_bench: DSE-WARM CACHE FAILURE: expected {cells} misses then {} hits, \
             got {} misses / {} hits",
            3 * cells,
            stats.misses,
            stats.hits
        );
        return ExitCode::FAILURE;
    }

    // Gate 2: the speedup floor (skipped on debug timings, like --check).
    let cold_rate = cells as f64 / cold_secs.max(1e-9);
    let warm_rate = cells as f64 / warm_secs.max(1e-9);
    let speedup = warm_rate / cold_rate;
    if !quiet {
        let mut t = Table::new(
            "perf_bench - dse_warm (sweep cells per second)",
            &["leg", "cells", "wall_ms", "cells/s"],
        );
        for (leg, secs) in [("uncached", uncached_secs), ("cold", cold_secs), ("warm", warm_secs)] {
            t.push(vec![
                leg.to_string(),
                cells.to_string(),
                format!("{:.2}", secs * 1e3),
                format!("{:.1}", cells as f64 / secs.max(1e-9)),
            ]);
        }
        print!("{t}");
    }
    if cfg!(debug_assertions) {
        eprintln!(
            "perf_bench: dse-warm speedup gate skipped: unoptimized build timings are not \
             comparable (measured {speedup:.1}x; rerun with --release)"
        );
        return ExitCode::SUCCESS;
    }
    if speedup < DSE_WARM_MIN_SPEEDUP {
        eprintln!(
            "perf_bench: DSE-WARM REGRESSION: warm sweep is only {speedup:.1}x cold \
             (floor {DSE_WARM_MIN_SPEEDUP:.0}x): {cells} cells, cold {:.2} ms ({cold_rate:.1} \
             cells/s), warm {:.2} ms ({warm_rate:.1} cells/s), uncached {:.2} ms",
            cold_secs * 1e3,
            warm_secs * 1e3,
            uncached_secs * 1e3
        );
        return ExitCode::FAILURE;
    }
    eprintln!("perf_bench: dse-warm passed ({speedup:.0}x warm-over-cold, parity byte-identical)");
    ExitCode::SUCCESS
}

/// `--recorder-check`: the flight-recorder zero-overhead gate. Sweeps
/// the same grid three ways — no recorder attached, an explicitly
/// disabled recorder handle, and an enabled recorder on a real
/// monotonic clock — and demands:
///
/// 1. records plus rendered CSV/JSON byte-identical across all three
///    (wall-clock observation may never perturb results);
/// 2. the enabled leg really recorded: its engine-run span count equals
///    the cells it executed (every cell, since no cache is attached).
fn run_recorder_check(smoke: bool, quiet: bool) -> ExitCode {
    use sigma_telemetry::FlightRecorder;
    let workloads: Vec<_> =
        if smoke { demo_suite().into_iter().take(2).collect() } else { demo_suite() };
    let engines = default_registry();
    let sweep = Sweep::new(workloads).with_seed(41).with_threads(4);
    let base = sweep.run(&engines);
    let off = sweep.clone().with_flight_recorder(FlightRecorder::off()).run(&engines);
    let epoch = std::time::Instant::now();
    let recorder = FlightRecorder::with_clock(65_536, move || {
        u64::try_from(epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
    });
    let on = sweep.with_flight_recorder(recorder.clone()).run(&engines);
    for (leg, records) in [("recorder-off", &off), ("recorder-on", &on)] {
        if *records != base
            || records_to_json(records) != records_to_json(&base)
            || records_table("rec", records).to_csv() != records_table("rec", &base).to_csv()
        {
            eprintln!(
                "perf_bench: RECORDER PARITY FAILURE: {leg} run differs from the \
                 no-recorder run"
            );
            return ExitCode::FAILURE;
        }
    }
    let snap = recorder.snapshot();
    let executed = on.len() as u64;
    let engine_runs = snap.stage("engine_run").map_or(0, |h| h.count);
    if engine_runs != executed {
        eprintln!(
            "perf_bench: RECORDER RECONCILE FAILURE: {engine_runs} engine-run spans vs \
             {executed} executed cells"
        );
        return ExitCode::FAILURE;
    }
    if !quiet {
        eprintln!(
            "perf_bench: recorder-check passed ({} cells byte-identical across three legs, \
             {engine_runs} engine runs recorded)",
            base.len()
        );
    }
    ExitCode::SUCCESS
}

/// Per-case regression tolerance. Smoke runs use a loose 30% (two reps are
/// noisy); full runs use 15%, tightened to 10% for the ≥4K-PE cases whose
/// wall times are long enough to be timing-stable.
fn tolerance(smoke: bool, pes: usize) -> f64 {
    if smoke {
        0.30
    } else if pes >= 4096 {
        0.10
    } else {
        0.15
    }
}

fn render(measurements: &[PerfMeasurement], baseline: &[(String, f64)]) -> Table {
    let mut t = Table::new(
        "perf_bench - simulated cycles per second",
        &["case", "pes", "gemm", "dataflow", "cycles", "wall_ms", "Mcyc/s", "vs baseline"],
    );
    for m in measurements {
        let vs = baseline.iter().find(|(n, _)| n == m.case.name).map_or_else(
            || "-".to_string(),
            |(_, old)| format!("{:+.1}%", 100.0 * (m.cycles_per_sec / old - 1.0)),
        );
        t.push(vec![
            m.case.name.to_string(),
            m.case.pes().to_string(),
            m.case.shape(),
            m.case.dataflow.name().to_string(),
            m.cycles.to_string(),
            format!("{:.2}", m.best_secs * 1e3),
            format!("{:.3}", m.cycles_per_sec / 1e6),
            vs,
        ]);
    }
    t
}

fn main() -> ExitCode {
    let cli = Cli::new("perf_bench", 0, "ladder", "[--check] [--smoke] [--quiet] [--out PATH]")
        .mode("--dse-warm [--smoke] [--quiet]")
        .mode("--recorder-check [--smoke] [--quiet]");
    let mut args = cli.from_env();
    let mode = args.mode();
    let smoke = args.switch("--smoke");
    let quiet = args.switch("--quiet");
    let (check, out) = if mode == "ladder" {
        (args.switch("--check"), args.value("--out"))
    } else {
        (false, None)
    };
    args.finish().unwrap_or_else(|msg| exit_usage(&msg));
    match mode {
        "--dse-warm" => return run_dse_warm(smoke, quiet),
        "--recorder-check" => return run_recorder_check(smoke, quiet),
        _ => {}
    }

    let baseline_path: PathBuf = out.unwrap_or_else(default_baseline_path);
    let reps = if smoke { SMOKE_REPS } else { FULL_REPS };
    let ladder: Vec<_> = cases().into_iter().filter(|c| !smoke || c.smoke).collect();
    let baseline_text = std::fs::read_to_string(&baseline_path).unwrap_or_default();
    let baseline = parse_baseline(&baseline_text);

    let mut measurements = Vec::with_capacity(ladder.len());
    for case in &ladder {
        if !quiet {
            eprintln!("perf_bench: timing {} ({} PEs, {})...", case.name, case.pes(), case.shape());
        }
        measurements.push(measure(case, reps).expect("ladder case must simulate"));
    }

    if !quiet {
        print!("{}", render(&measurements, &baseline));
    }

    if check {
        if cfg!(debug_assertions) {
            eprintln!(
                "perf_bench: --check skipped: unoptimized build timings are not comparable \
                 to the committed baseline (rerun with --release)"
            );
            return ExitCode::SUCCESS;
        }
        if baseline.is_empty() {
            eprintln!(
                "perf_bench: no baseline at {} - run perf_bench without --check to create it",
                baseline_path.display()
            );
            return ExitCode::FAILURE;
        }
        let mut regressed = false;
        for m in &measurements {
            let Some((_, old)) = baseline.iter().find(|(n, _)| n == m.case.name) else {
                eprintln!("perf_bench: note: case {} has no baseline entry yet", m.case.name);
                continue;
            };
            let tol = tolerance(smoke, m.case.pes());
            let ratio = m.cycles_per_sec / old;
            if ratio < 1.0 - tol {
                eprintln!(
                    "perf_bench: REGRESSION {}: {:.0} cyc/s vs baseline {:.0} ({:.1}% slower, \
                     tolerance {:.0}%)",
                    m.case.name,
                    m.cycles_per_sec,
                    old,
                    100.0 * (1.0 - ratio),
                    100.0 * tol,
                );
                regressed = true;
            }
        }
        if regressed {
            return ExitCode::FAILURE;
        }
        if !quiet {
            eprintln!(
                "perf_bench: check passed (tolerance {:.0}%; {:.0}% at >=4K PEs)",
                100.0 * tolerance(smoke, 0),
                100.0 * tolerance(smoke, 4096),
            );
        }
        return ExitCode::SUCCESS;
    }
    let json = to_json(&measurements);
    if let Err(e) = std::fs::write(&baseline_path, &json) {
        eprintln!("perf_bench: cannot write {}: {e}", baseline_path.display());
        return ExitCode::FAILURE;
    }
    if !quiet {
        eprintln!("perf_bench: baseline written to {}", baseline_path.display());
    }
    ExitCode::SUCCESS
}
