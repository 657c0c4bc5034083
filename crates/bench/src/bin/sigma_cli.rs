//! `sigma_cli` — run an arbitrary GEMM through the SIGMA models and the
//! unified engine fleet from the command line.
//!
//! ```sh
//! # Analytic SIGMA (per-dataflow Table-II stats + TPU baseline):
//! cargo run -p sigma-bench --bin sigma_cli -- \
//!     --m 1024 --n 1024 --k 1024 --input-sparsity 0.5 --weight-sparsity 0.8 \
//!     --dpes 128 --dpe-size 128 --bandwidth 128 [--functional] [--energy]
//!
//! # Any registered engine, by name, on materialized operands:
//! cargo run -p sigma-bench --bin sigma_cli -- --engine eie --m 48 --n 48 --k 48
//!
//! # The whole fleet over the demo suite, in parallel:
//! cargo run -p sigma-bench --bin sigma_cli -- --sweep [--threads 4] [--seed 7] [--output json]
//!
//! # A Perfetto-loadable Chrome trace of one functional SIGMA run:
//! cargo run -p sigma-bench --bin sigma_cli -- trace --out run.trace.json \
//!     [--m M --n N --k K --input-sparsity S --weight-sparsity S] [--telemetry]
//! ```
//!
//! `--list-engines` prints the registry's slugs. Each mode takes only its
//! own flags, as `--help` lists them: a flag of another mode, a misspelled
//! flag, a value that does not parse or two modes at once exit 2 with the
//! mode's usage line. So `--telemetry` belongs to `trace` alone, where it
//! prints the run's work counts and the simulator's histograms; a sweep is
//! recorded with `--flight-recorder` (below).
//!
//! `--resume JOURNAL` makes `--sweep` crash-safe: every completed cell is
//! appended (and fsynced) to the journal as it finishes, cells already in
//! the journal replay instead of re-running, and the output is
//! byte-identical to an uninterrupted sweep — kill the process at any
//! point and rerun the same command to pick up where it left off.
//!
//! `--cache STORE` attaches the persistent content-addressed run cache:
//! cells seen by *any* previous sweep or invocation sharing the store are
//! served from it instead of re-simulated, with byte-identical output
//! (`--cache-cap N` bounds resident entries, default 4096), and prints
//! one `[cache] … hits, … misses, … evictions` line to stderr afterwards.
//!
//! `--flight-recorder LOG` is the one switch that records a sweep: it
//! turns on the flight recorder (the sweep's one wall clock) with a live
//! progress line on a terminal, times every engine run, operand
//! materialization, queue wait, journal append + fsync, and cache
//! probe/insert on a monotonic process clock, and persists — atomically
//! — a JSONL event log, alongside per-stage latency histograms and
//! periodic gauge snapshots. The recorder lives entirely at this harness
//! edge (the clock is injected), so library crates stay deterministic,
//! and the records carry no wall time, so the sweep's CSV/JSON output is
//! byte-identical with or without it.
//!
//! `report --from LOG` is the one reader of that log. It prints the
//! per-stage latency table, the per-engine `engine_run` table (count,
//! sum and max over the retained spans), the slowest cell and the
//! dropped-span count, and converts the log into a Perfetto-loadable
//! Chrome trace (one track per worker thread; journal and cache on named
//! tracks; gauges as counter series), self-validated before it is
//! written with `--out`.
//! `--metrics json|prom` instead re-exports the log's counters, gauges,
//! and histograms as a `MetricsReport` JSON or Prometheus-text document.

use std::sync::Arc;

use sigma_baselines::{GemmAccelerator, SystolicArray};
use sigma_bench::harness::{
    build_report, default_registry, demo_suite, engine_by_name, read_event_log, records_table,
    records_to_json, write_event_log, RunCache, Sweep, WorkloadSpec,
};
use sigma_bench::util::{exit_usage, Args, Cli};
use sigma_core::model::{estimate, estimate_best, GemmProblem};
use sigma_core::{validate_chrome_trace, Dataflow, SigmaConfig, SigmaSim};
use sigma_energy::EnergyBreakdown;
use sigma_matrix::gen::{sparse_uniform, Density};
use sigma_matrix::GemmShape;
use sigma_telemetry::FlightRecorder;
use sigma_workloads::materialize;

/// The GEMM flags of the analytic, `--engine` and `trace` modes.
const GEMM: &str = "[--m M] [--n N] [--k K] [--input-sparsity S] [--weight-sparsity S]";

/// The modes and their flags.
fn cli() -> Cli {
    Cli::new(
        "sigma_cli",
        2,
        "analytic",
        &format!("{GEMM} [--dpes D] [--dpe-size P] [--bandwidth W] [--functional] [--energy]"),
    )
    .mode(&format!("--engine NAME {GEMM} [--seed S]"))
    .mode(
        "--sweep [--workload M:N:K[:da[:db]]]... [--threads T] [--seed S] \
         [--output text|csv|json] [--resume JOURNAL] [--cache STORE] [--cache-cap N] \
         [--flight-recorder LOG.jsonl]",
    )
    .mode(&format!("trace [--out TRACE.json] {GEMM} [--seed S] [--telemetry]"))
    .mode("report --from LOG.jsonl [--out TRACE.json] [--metrics json|prom]")
    .mode("--list-engines")
}

/// A GEMM problem as the [`GEMM`] flags give it.
struct Gemm {
    shape: GemmShape,
    input_sparsity: f64,
    weight_sparsity: f64,
}

impl Gemm {
    /// Takes the [`GEMM`] flags (default: dense 1024 x 1024 x 1024).
    fn read(args: &mut Args<'_>) -> Self {
        let mut dim = |flag| args.value(flag).unwrap_or(1024);
        let shape = GemmShape::new(dim("--m"), dim("--n"), dim("--k"));
        let input_sparsity = args.value("--input-sparsity").unwrap_or(0.0);
        let weight_sparsity = args.value("--weight-sparsity").unwrap_or(0.0);
        if !(0.0..1.0).contains(&input_sparsity) || !(0.0..1.0).contains(&weight_sparsity) {
            args.fail("sparsities must be in [0, 1)");
        }
        Self { shape, input_sparsity, weight_sparsity }
    }

    /// The shape with every dimension capped at `cap`.
    fn capped(&self, cap: usize) -> GemmShape {
        GemmShape::new(self.shape.m.min(cap), self.shape.n.min(cap), self.shape.k.min(cap))
    }

    /// The problem on `shape`, at this GEMM's densities.
    fn problem(&self, shape: GemmShape) -> GemmProblem {
        GemmProblem::sparse(shape, 1.0 - self.input_sparsity, 1.0 - self.weight_sparsity)
    }
}

/// `--list-engines`: the registry's vocabulary.
fn list_engines(args: Args<'_>) -> i32 {
    args.finish().unwrap_or_else(|msg| exit_usage(&msg));
    println!("registered engines (use with --engine):");
    for entry in default_registry() {
        println!("  {:<16} {}", entry.slug, entry.engine.name());
    }
    0
}

/// `--engine NAME`: one functional engine on materialized operands.
fn run_engine(mut args: Args<'_>) -> i32 {
    let name: String = args.value("--engine").unwrap_or_default();
    let gemm = Gemm::read(&mut args);
    let seed = args.value("--seed").unwrap_or(1);
    args.finish().unwrap_or_else(|msg| exit_usage(&msg));
    let Some(engine) = engine_by_name(&name) else {
        eprintln!("unknown engine {name:?}; try --list-engines");
        return 2;
    };
    // Functional engines move every operand element; cap the materialized
    // problem like --functional does so arbitrary shapes stay tractable.
    let shape = gemm.capped(128);
    if shape != gemm.shape {
        println!("(functional run capped to {shape})");
    }
    let (a, b) = materialize(&gemm.problem(shape), seed);
    match engine.run(&a, &b) {
        Ok(run) => {
            let reference = a.to_dense().matmul(&b.to_dense());
            let ok = run.result.approx_eq(&reference, 1e-3 * shape.k as f32);
            println!("{} on {shape} (seed {seed})", engine.name());
            println!("  {}", run.stats);
            println!("  verified vs reference GEMM: {}", if ok { "PASS" } else { "FAIL" });
            i32::from(!ok)
        }
        Err(e) => {
            eprintln!("{}: {e}", engine.name());
            1
        }
    }
}

/// `trace`: one functional SIGMA run rendered as a Chrome trace-event
/// document, self-validated before it is written (track totals must
/// equal the run's Table-II phase totals).
fn run_trace(mut args: Args<'_>) -> i32 {
    let out: Option<String> = args.value("--out");
    let gemm = Gemm::read(&mut args);
    let seed = args.value("--seed").unwrap_or(1);
    let telemetry = args.switch("--telemetry");
    args.finish().unwrap_or_else(|msg| exit_usage(&msg));
    let shape = gemm.capped(64);
    if shape != gemm.shape {
        eprintln!("(traced functional run capped to {shape})");
    }
    let (a, b) = materialize(&gemm.problem(shape), seed);
    let cfg =
        SigmaConfig::new(4, 16, 64, Dataflow::WeightStationary).unwrap().with_telemetry(telemetry);
    let sim = SigmaSim::new(cfg).unwrap();
    let (run, trace) = match sim.run_gemm_traced(&a, &b) {
        Ok(pair) => pair,
        Err(e) => {
            eprintln!("trace: {e}");
            return 1;
        }
    };

    let process = format!("SIGMA 4x16 {shape} seed {seed}");
    let json = trace.to_chrome_trace(&process).to_json();
    let summary = match validate_chrome_trace(&json) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("trace: generated document failed validation: {e}");
            return 1;
        }
    };
    let phases = [
        ("phase: load", run.stats.loading_cycles),
        ("phase: stream", run.stats.streaming_cycles),
        ("phase: drain", run.stats.add_cycles),
    ];
    for (track, cycles) in phases {
        if summary.track(track) != Some(cycles) {
            eprintln!(
                "trace: track {track:?} sums to {:?}, stats say {cycles}",
                summary.track(track)
            );
            return 1;
        }
    }

    match &out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &json) {
                eprintln!("trace: cannot write {path}: {e}");
                return 1;
            }
            eprintln!(
                "wrote {path}: {} spans, {} counter samples, {} cycles \
                 (load {}, stream {}, drain {}) — open at ui.perfetto.dev",
                summary.span_count,
                summary.counter_count,
                run.stats.total_cycles(),
                run.stats.loading_cycles,
                run.stats.streaming_cycles,
                run.stats.add_cycles
            );
        }
        None => print!("{json}"),
    }
    if telemetry {
        let s = &run.stats;
        eprintln!(
            "work counts: stream_steps {} fan_adds {} fan_cluster_sums {} stationary_dropped {} \
             sram_stationary_reads {} sram_streaming_reads {} benes_loads {}",
            s.stream_steps,
            s.fan_adds,
            s.fan_cluster_sums,
            s.stationary_dropped,
            s.mapped_nonzeros,
            s.sram_reads - s.mapped_nonzeros,
            s.route_cache_hits + s.route_cache_misses
        );
        eprintln!("telemetry histograms:\n{}", sim.telemetry_handle().snapshot().to_json());
    }
    0
}

/// `report --from LOG`: converts a flight-recorder event log into a
/// validated Perfetto trace (written with `--out`) plus the per-stage
/// latency table, the per-engine `engine_run` table, the slowest cell
/// and the dropped-span count; `--metrics json|prom` re-exports the log's
/// counters, gauges, and histograms instead. Exits non-zero if the log
/// is unreadable or the built trace fails its own validator.
fn run_report(mut args: Args<'_>) -> i32 {
    let from: Option<String> = args.value("--from");
    let out: Option<String> = args.value("--out");
    let metrics = args.choice("--metrics", &["json", "prom", "prometheus"]);
    args.finish().unwrap_or_else(|msg| exit_usage(&msg));
    let Some(path) = &from else {
        eprintln!("report needs --from LOG.jsonl (an event log from --sweep --flight-recorder)");
        return 2;
    };
    let log = match read_event_log(std::path::Path::new(path)) {
        Ok(log) => log,
        Err(e) => {
            eprintln!("report: cannot read {path}: {e}");
            return 1;
        }
    };
    for w in &log.warnings {
        eprintln!("[report] {w}");
    }
    let report = match build_report(&log) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("report: built trace failed validation: {e}");
            return 1;
        }
    };
    match metrics {
        Some("json") => print!("{}", log.metrics_report().to_json()),
        Some(_) => print!("{}", log.metrics_report().to_prometheus()),
        None => {
            println!("{}", report.table.render());
            println!("{}", report.engines.render());
            match log.slowest_cell() {
                Some(span) => {
                    println!("[report] slowest cell: {} ({} us)", span.label, span.dur_us)
                }
                None => println!("[report] slowest cell: none (no engine_run span retained)"),
            }
            let partial = " (the engine table and the slowest cell cover only the retained spans)";
            let note = if log.dropped_spans > 0 { partial } else { "" };
            println!("[report] dropped spans: {}{note}", log.dropped_spans);
        }
    }
    if let Some(out) = &out {
        if let Err(e) = std::fs::write(out, &report.trace_json) {
            eprintln!("report: cannot write {out}: {e}");
            return 1;
        }
        eprintln!(
            "wrote {out}: {} spans, {} counter samples across {} tracks \
             — open at ui.perfetto.dev",
            report.summary.span_count,
            report.summary.counter_count,
            report.summary.track_durations.len()
        );
    }
    0
}

/// `--sweep`: the whole registry over the demo suite (or `--workload`s).
fn run_sweep(mut args: Args<'_>) -> i32 {
    let mut workloads: Vec<WorkloadSpec> = args.values("--workload");
    let threads: Option<usize> = args.value("--threads");
    let seed = args.value("--seed").unwrap_or(1);
    let output = args.choice("--output", &["text", "csv", "json"]);
    let resume: Option<String> = args.value("--resume");
    let cache_path: Option<String> = args.value("--cache");
    let cache_cap = args.value("--cache-cap").unwrap_or(4096);
    let flight_log: Option<String> = args.value("--flight-recorder");
    args.finish().unwrap_or_else(|msg| exit_usage(&msg));
    if workloads.is_empty() {
        workloads = demo_suite();
    }
    // The flight recorder's wall clock — the sweep's only one — is
    // injected here, at the harness edge: a monotonic microsecond counter
    // since process start. Without `--flight-recorder` the recorder is a
    // `None` handle and every recording call below is an inlined early
    // return.
    let epoch = std::time::Instant::now();
    let recorder = if flight_log.is_some() {
        let clock = move || u64::try_from(epoch.elapsed().as_micros()).unwrap_or(u64::MAX);
        FlightRecorder::with_clock(65_536, clock)
    } else {
        FlightRecorder::off()
    };
    // The event log's counters: the resume and cache tallies of this
    // sweep, collected once it is done.
    let mut tallies: Vec<(&str, u64)> = Vec::new();
    let mut sweep = Sweep::new(workloads).with_seed(seed).with_flight_recorder(recorder.clone());
    if let Some(t) = threads {
        sweep = sweep.with_threads(t);
    }
    let mut warned = 0;
    let cache = match &cache_path {
        Some(path) => match RunCache::open(std::path::Path::new(path), cache_cap) {
            Ok(cache) => {
                let cache = Arc::new(cache.with_flight_recorder(recorder.clone()));
                for warning in cache.warnings() {
                    eprintln!("[cache] {warning}");
                    warned += 1;
                }
                sweep = sweep.with_cache(Arc::clone(&cache));
                let before = cache.stats();
                Some((cache, before))
            }
            Err(e) => {
                eprintln!("cannot open cache {path}: {e}");
                return 1;
            }
        },
        None => None,
    };
    let records = match &resume {
        Some(path) => {
            // Crash-safe mode: completed cells replay from the journal,
            // fresh cells are appended durably as they finish, and the
            // records are byte-identical to an uninterrupted run.
            match sweep.resume(&default_registry(), std::path::Path::new(path)) {
                Ok(outcome) => {
                    for warning in &outcome.warnings {
                        eprintln!("[resume] {warning}");
                    }
                    eprintln!(
                        "[resume] {} cells replayed from {path}, {} executed",
                        outcome.resume_hits, outcome.cells_executed
                    );
                    tallies.push(("cells_executed", outcome.cells_executed));
                    tallies.push(("resume_hits", outcome.resume_hits));
                    outcome.records
                }
                Err(e) => {
                    eprintln!("cannot resume from {path}: {e}");
                    return 1;
                }
            }
        }
        None => sweep.run(&default_registry()),
    };
    if let Some((cache, before)) = &cache {
        for warning in cache.warnings().iter().skip(warned) {
            eprintln!("[cache] {warning}");
        }
        let s = cache.stats();
        tallies.push(("cache_hits", s.hits - before.hits));
        tallies.push(("cache_misses", s.misses - before.misses));
        tallies.push(("cache_evictions", s.evictions - before.evictions));
        let probes = s.hits + s.misses;
        let hit_rate = if probes == 0 { 0.0 } else { 100.0 * s.hits as f64 / probes as f64 };
        eprintln!(
            "[cache] {} entries in {} (cap {}): {} hits, {} misses \
             ({hit_rate:.1}% hit rate), {} evictions",
            s.entries,
            cache.path().display(),
            cache.capacity(),
            s.hits,
            s.misses,
            s.evictions
        );
    }
    if let Some(path) = &flight_log {
        let flight = recorder.snapshot();
        let process = format!("sigma sweep seed {seed}");
        if let Err(e) = write_event_log(std::path::Path::new(path), &process, &flight, &tallies) {
            eprintln!("cannot write flight log {path}: {e}");
            return 1;
        }
        eprintln!(
            "[flight] wrote {path}: {} spans retained ({} dropped), {} gauge snapshots \
             — render with `sigma_cli report --from {path}`",
            flight.spans.len(),
            flight.dropped_spans,
            flight.snaps.len()
        );
    }
    match output {
        Some("csv") => print!("{}", records_table("Engine sweep", &records).to_csv()),
        Some("json") => print!("{}", records_to_json(&records)),
        _ => println!("{}", records_table("Engine sweep", &records)),
    }
    i32::from(records.iter().any(|r| !r.verified))
}

/// The analytic default: per-dataflow Table-II estimates, the TPU
/// baseline, and optionally the energy split and a functional check.
fn run_analytic(mut args: Args<'_>) -> i32 {
    let gemm = Gemm::read(&mut args);
    let dpes = args.value("--dpes").unwrap_or(128);
    let dpe_size = args.value("--dpe-size").unwrap_or(128);
    let bandwidth = args.value("--bandwidth").unwrap_or(128);
    let functional = args.switch("--functional");
    let energy = args.switch("--energy");
    args.finish().unwrap_or_else(|msg| exit_usage(&msg));

    let shape = gemm.shape;
    let p = gemm.problem(shape);
    let cfg = match SigmaConfig::new(dpes, dpe_size, bandwidth, Dataflow::WeightStationary)
        .and_then(|c| c.with_stream_bandwidth(dpes * dpe_size))
    {
        Ok(c) => c,
        Err(e) => {
            eprintln!("bad configuration: {e}");
            return 2;
        }
    };

    println!(
        "GEMM {shape} | input sparsity {:.0}% | weight sparsity {:.0}% | SIGMA {} x Flex-DPE-{}",
        gemm.input_sparsity * 100.0,
        gemm.weight_sparsity * 100.0,
        dpes,
        dpe_size
    );
    println!();
    for df in Dataflow::ALL {
        let s = estimate(&cfg.with_dataflow(df), &p);
        println!("  {df:>14}: {s}");
    }
    let (best_df, best) = estimate_best(&cfg, &p);
    println!("\n  best dataflow: {best_df} ({} cycles)", best.total_cycles());

    let tpu = SystolicArray::new(128, 128);
    let t = tpu.simulate(&p);
    println!(
        "  TPU 128x128  : {} cycles -> SIGMA speedup {:.2}x",
        t.total_cycles(),
        t.total_cycles() as f64 / best.total_cycles() as f64
    );

    if energy {
        let b = EnergyBreakdown::from_stats(&best, dpe_size);
        println!("\n  energy breakdown ({:.3} mJ total):", b.total_j() * 1e3);
        for (label, j) in b.rows() {
            println!("    {label:>10}: {:>8.3} mJ ({:>4.1}%)", j * 1e3, 100.0 * j / b.total_j());
        }
    }

    if functional {
        let GemmShape { m: fm, n: fn_, k: fk } = gemm.capped(64);
        let a = sparse_uniform(fm, fk, Density::new(1.0 - gemm.input_sparsity).unwrap(), 1);
        let b = sparse_uniform(fk, fn_, Density::new(1.0 - gemm.weight_sparsity).unwrap(), 2);
        let sim = SigmaSim::new(SigmaConfig::new(4, 16, 64, Dataflow::WeightStationary).unwrap())
            .unwrap();
        let (df, run) = sim.run_best_stationary(&a, &b).unwrap();
        let reference = a.to_dense().matmul(&b.to_dense());
        let ok = run.result.approx_eq(&reference, 1e-3 * fk as f32);
        println!(
            "\n  functional check on {fm}x{fk}x{fn_} (4 x Flex-DPE-16, {df}): {}",
            if ok { "PASS" } else { "FAIL" }
        );
        return i32::from(!ok);
    }
    0
}

fn main() {
    let cli = cli();
    let args = cli.from_env();
    std::process::exit(match args.mode() {
        "--list-engines" => list_engines(args),
        "--engine" => run_engine(args),
        "trace" => run_trace(args),
        "report" => run_report(args),
        "--sweep" => run_sweep(args),
        _ => run_analytic(args),
    });
}
