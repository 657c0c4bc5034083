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
//! `--list-engines` prints the registry's slugs. `--telemetry` belongs to
//! `trace` alone, where it prints the simulator registry's snapshot; a
//! sweep is recorded with `--flight-recorder` (below), and `--sweep
//! --telemetry` is refused.
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
use sigma_core::model::{estimate, estimate_best, GemmProblem};
use sigma_core::{validate_chrome_trace, Dataflow, SigmaConfig, SigmaSim};
use sigma_energy::EnergyBreakdown;
use sigma_matrix::gen::{sparse_uniform, Density};
use sigma_matrix::GemmShape;
use sigma_telemetry::FlightRecorder;
use sigma_workloads::materialize;

#[derive(Debug)]
struct Args {
    m: usize,
    n: usize,
    k: usize,
    input_sparsity: f64,
    weight_sparsity: f64,
    dpes: usize,
    dpe_size: usize,
    bandwidth: usize,
    functional: bool,
    energy: bool,
    engine: Option<String>,
    list_engines: bool,
    sweep: bool,
    trace: bool,
    telemetry: bool,
    resume: Option<String>,
    cache: Option<String>,
    cache_cap: usize,
    flight_recorder: Option<String>,
    report: bool,
    from: Option<String>,
    metrics: Option<MetricsOut>,
    out: Option<String>,
    threads: Option<usize>,
    seed: u64,
    output: Output,
    workloads: Vec<String>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Output {
    Text,
    Csv,
    Json,
}

/// `report --metrics` export format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MetricsOut {
    Json,
    Prometheus,
}

impl Args {
    fn parse() -> Result<Self, String> {
        let mut args = Args {
            m: 1024,
            n: 1024,
            k: 1024,
            input_sparsity: 0.0,
            weight_sparsity: 0.0,
            dpes: 128,
            dpe_size: 128,
            bandwidth: 128,
            functional: false,
            energy: false,
            engine: None,
            list_engines: false,
            sweep: false,
            resume: None,
            cache: None,
            cache_cap: 4096,
            flight_recorder: None,
            report: false,
            from: None,
            metrics: None,
            trace: false,
            telemetry: false,
            out: None,
            threads: None,
            seed: 1,
            output: Output::Text,
            workloads: Vec::new(),
        };
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < argv.len() {
            let flag = argv[i].as_str();
            let mut take = |field: &mut dyn FnMut(&str) -> Result<(), String>| {
                i += 1;
                let v = argv.get(i).ok_or_else(|| format!("{flag} needs a value"))?;
                field(v)
            };
            match flag {
                "--m" => take(&mut |v| {
                    args.m = v.parse().map_err(|e| format!("--m: {e}"))?;
                    Ok(())
                })?,
                "--n" => take(&mut |v| {
                    args.n = v.parse().map_err(|e| format!("--n: {e}"))?;
                    Ok(())
                })?,
                "--k" => take(&mut |v| {
                    args.k = v.parse().map_err(|e| format!("--k: {e}"))?;
                    Ok(())
                })?,
                "--input-sparsity" => take(&mut |v| {
                    args.input_sparsity =
                        v.parse().map_err(|e| format!("--input-sparsity: {e}"))?;
                    Ok(())
                })?,
                "--weight-sparsity" => take(&mut |v| {
                    args.weight_sparsity =
                        v.parse().map_err(|e| format!("--weight-sparsity: {e}"))?;
                    Ok(())
                })?,
                "--dpes" => take(&mut |v| {
                    args.dpes = v.parse().map_err(|e| format!("--dpes: {e}"))?;
                    Ok(())
                })?,
                "--dpe-size" => take(&mut |v| {
                    args.dpe_size = v.parse().map_err(|e| format!("--dpe-size: {e}"))?;
                    Ok(())
                })?,
                "--bandwidth" => take(&mut |v| {
                    args.bandwidth = v.parse().map_err(|e| format!("--bandwidth: {e}"))?;
                    Ok(())
                })?,
                "--engine" => take(&mut |v| {
                    args.engine = Some(v.to_string());
                    Ok(())
                })?,
                "--threads" => take(&mut |v| {
                    args.threads = Some(v.parse().map_err(|e| format!("--threads: {e}"))?);
                    Ok(())
                })?,
                "--seed" => take(&mut |v| {
                    args.seed = v.parse().map_err(|e| format!("--seed: {e}"))?;
                    Ok(())
                })?,
                "--workload" => take(&mut |v| {
                    args.workloads.push(v.to_string());
                    Ok(())
                })?,
                "--output" => take(&mut |v| {
                    args.output = match v {
                        "text" => Output::Text,
                        "csv" => Output::Csv,
                        "json" => Output::Json,
                        other => return Err(format!("--output: unknown format {other}")),
                    };
                    Ok(())
                })?,
                "--resume" => take(&mut |v| {
                    args.resume = Some(v.to_string());
                    Ok(())
                })?,
                "--cache" => take(&mut |v| {
                    args.cache = Some(v.to_string());
                    Ok(())
                })?,
                "--cache-cap" => take(&mut |v| {
                    args.cache_cap = v.parse().map_err(|e| format!("--cache-cap: {e}"))?;
                    Ok(())
                })?,
                "--flight-recorder" => take(&mut |v| {
                    args.flight_recorder = Some(v.to_string());
                    Ok(())
                })?,
                "--from" => take(&mut |v| {
                    args.from = Some(v.to_string());
                    Ok(())
                })?,
                "--metrics" => take(&mut |v| {
                    args.metrics = match v {
                        "json" => Some(MetricsOut::Json),
                        "prom" | "prometheus" => Some(MetricsOut::Prometheus),
                        other => return Err(format!("--metrics: unknown format {other}")),
                    };
                    Ok(())
                })?,
                "--out" => take(&mut |v| {
                    args.out = Some(v.to_string());
                    Ok(())
                })?,
                "--functional" => args.functional = true,
                "--energy" => args.energy = true,
                "--list-engines" => args.list_engines = true,
                "--sweep" => args.sweep = true,
                "--telemetry" => args.telemetry = true,
                "trace" => args.trace = true,
                "report" => args.report = true,
                "--help" | "-h" => {
                    return Err("usage: sigma_cli [--m M] [--n N] [--k K] \
                        [--input-sparsity S] [--weight-sparsity S] \
                        [--dpes D] [--dpe-size P] [--bandwidth W] \
                        [--functional] [--energy] \
                        | --engine NAME [--seed S] \
                        | --sweep [--workload M:N:K[:da[:db]]]... [--threads T] [--seed S] \
                        [--output text|csv|json] [--resume JOURNAL] \
                        [--cache STORE] [--cache-cap N] \
                        [--flight-recorder LOG.jsonl] \
                        | trace [--out TRACE.json] [--telemetry] [--seed S] \
                        | report --from LOG.jsonl [--out TRACE.json] \
                        [--metrics json|prom] \
                        | --list-engines"
                        .to_string())
                }
                other => return Err(format!("unknown flag {other} (try --help)")),
            }
            i += 1;
        }
        if !(0.0..1.0).contains(&args.input_sparsity) || !(0.0..1.0).contains(&args.weight_sparsity)
        {
            return Err("sparsities must be in [0, 1)".to_string());
        }
        Ok(args)
    }
}

/// `--list-engines`: the registry's vocabulary.
fn list_engines() {
    println!("registered engines (use with --engine):");
    for entry in default_registry() {
        println!("  {:<16} {}", entry.slug, entry.engine.name());
    }
}

/// `--engine NAME`: one functional engine on materialized operands.
fn run_engine(args: &Args) -> i32 {
    let Some(engine) = engine_by_name(args.engine.as_deref().unwrap_or_default()) else {
        eprintln!(
            "unknown engine {:?}; try --list-engines",
            args.engine.as_deref().unwrap_or_default()
        );
        return 2;
    };
    // Functional engines move every operand element; cap the materialized
    // problem like --functional does so arbitrary shapes stay tractable.
    let cap = 128usize;
    let shape = GemmShape::new(args.m.min(cap), args.n.min(cap), args.k.min(cap));
    if (shape.m, shape.n, shape.k) != (args.m, args.n, args.k) {
        println!("(functional run capped to {shape})");
    }
    let p = GemmProblem::sparse(shape, 1.0 - args.input_sparsity, 1.0 - args.weight_sparsity);
    let (a, b) = materialize(&p, args.seed);
    match engine.run(&a, &b) {
        Ok(run) => {
            let reference = a.to_dense().matmul(&b.to_dense());
            let ok = run.result.approx_eq(&reference, 1e-3 * shape.k as f32);
            println!("{} on {shape} (seed {})", engine.name(), args.seed);
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

/// Parses a `--workload M:N:K[:da[:db]]` spec.
fn parse_workload(spec: &str) -> Result<WorkloadSpec, String> {
    let parts: Vec<&str> = spec.split(':').collect();
    if !(3..=5).contains(&parts.len()) {
        return Err(format!("--workload {spec}: expected M:N:K[:density_a[:density_b]]"));
    }
    let dim = |i: usize| -> Result<usize, String> {
        match parts[i].parse::<usize>() {
            Ok(0) => Err(format!("--workload {spec}: dimensions must be non-zero")),
            Ok(d) => Ok(d),
            Err(e) => Err(format!("--workload {spec}: {e}")),
        }
    };
    let den = |i: usize| -> Result<f64, String> {
        parts.get(i).map_or(Ok(1.0), |s| s.parse().map_err(|e| format!("--workload {spec}: {e}")))
    };
    let shape = GemmShape::new(dim(0)?, dim(1)?, dim(2)?);
    let (da, db) = (den(3)?, den(4)?);
    if !(0.0..=1.0).contains(&da) || !(0.0..=1.0).contains(&db) {
        return Err(format!("--workload {spec}: densities must be in [0, 1]"));
    }
    Ok(WorkloadSpec::new(spec, GemmProblem::sparse(shape, da, db)))
}

/// `trace`: one functional SIGMA run rendered as a Chrome trace-event
/// document, self-validated before it is written (track totals must
/// equal the run's Table-II phase totals).
fn run_trace(args: &Args) -> i32 {
    let cap = 64usize;
    let shape = GemmShape::new(args.m.min(cap), args.n.min(cap), args.k.min(cap));
    if (shape.m, shape.n, shape.k) != (args.m, args.n, args.k) {
        eprintln!("(traced functional run capped to {shape})");
    }
    let p = GemmProblem::sparse(shape, 1.0 - args.input_sparsity, 1.0 - args.weight_sparsity);
    let (a, b) = materialize(&p, args.seed);
    let cfg = SigmaConfig::new(4, 16, 64, Dataflow::WeightStationary)
        .unwrap()
        .with_telemetry(args.telemetry);
    let sim = SigmaSim::new(cfg).unwrap();
    let (run, trace) = match sim.run_gemm_traced(&a, &b) {
        Ok(pair) => pair,
        Err(e) => {
            eprintln!("trace: {e}");
            return 1;
        }
    };

    let process = format!("SIGMA 4x16 {shape} seed {}", args.seed);
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

    match &args.out {
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
    if args.telemetry {
        let handle = sim.telemetry_handle();
        eprintln!("telemetry snapshot:\n{}", handle.snapshot().to_json());
    }
    0
}

/// `report --from LOG`: converts a flight-recorder event log into a
/// validated Perfetto trace (written with `--out`) plus the per-stage
/// latency table, the per-engine `engine_run` table, the slowest cell
/// and the dropped-span count; `--metrics json|prom` re-exports the log's
/// counters, gauges, and histograms instead. Exits non-zero if the log
/// is unreadable or the built trace fails its own validator.
fn run_report(args: &Args) -> i32 {
    let Some(path) = &args.from else {
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
    match args.metrics {
        Some(MetricsOut::Json) => print!("{}", log.metrics_report().to_json()),
        Some(MetricsOut::Prometheus) => print!("{}", log.metrics_report().to_prometheus()),
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
    if let Some(out) = &args.out {
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
fn run_sweep(args: &Args) -> i32 {
    if args.telemetry || args.out.is_some() {
        eprintln!(
            "--sweep takes no --telemetry or --out: record it with --flight-recorder LOG, \
             then read the log with `sigma_cli report --from LOG`"
        );
        return 2;
    }
    let workloads = if args.workloads.is_empty() {
        demo_suite()
    } else {
        match args.workloads.iter().map(|s| parse_workload(s)).collect() {
            Ok(w) => w,
            Err(msg) => {
                eprintln!("{msg}");
                return 2;
            }
        }
    };
    // The flight recorder's wall clock — the sweep's only one — is
    // injected here, at the harness edge: a monotonic microsecond counter
    // since process start. Without `--flight-recorder` the recorder is a
    // `None` handle and every recording call below is an inlined early
    // return.
    let epoch = std::time::Instant::now();
    let recorder = if args.flight_recorder.is_some() {
        let clock = move || u64::try_from(epoch.elapsed().as_micros()).unwrap_or(u64::MAX);
        FlightRecorder::with_clock(65_536, clock)
    } else {
        FlightRecorder::off()
    };
    // The event log's counters: the resume and cache tallies of this
    // sweep, collected once it is done.
    let mut tallies: Vec<(&str, u64)> = Vec::new();
    let mut sweep =
        Sweep::new(workloads).with_seed(args.seed).with_flight_recorder(recorder.clone());
    if let Some(t) = args.threads {
        sweep = sweep.with_threads(t);
    }
    let mut warned = 0;
    let cache = match &args.cache {
        Some(path) => match RunCache::open(std::path::Path::new(path), args.cache_cap) {
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
    let records = match &args.resume {
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
    if let Some(path) = &args.flight_recorder {
        let flight = recorder.snapshot();
        let process = format!("sigma sweep seed {}", args.seed);
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
    match args.output {
        Output::Text => println!("{}", records_table("Engine sweep", &records)),
        Output::Csv => print!("{}", records_table("Engine sweep", &records).to_csv()),
        Output::Json => print!("{}", records_to_json(&records)),
    }
    i32::from(records.iter().any(|r| !r.verified))
}

fn main() {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };

    if args.list_engines {
        list_engines();
        return;
    }
    if args.engine.is_some() {
        std::process::exit(run_engine(&args));
    }
    if args.trace {
        std::process::exit(run_trace(&args));
    }
    if args.report {
        std::process::exit(run_report(&args));
    }
    if args.sweep {
        std::process::exit(run_sweep(&args));
    }

    let shape = GemmShape::new(args.m, args.n, args.k);
    let p = GemmProblem::sparse(shape, 1.0 - args.input_sparsity, 1.0 - args.weight_sparsity);
    let cfg = match SigmaConfig::new(
        args.dpes,
        args.dpe_size,
        args.bandwidth,
        Dataflow::WeightStationary,
    )
    .and_then(|c| c.with_stream_bandwidth(args.dpes * args.dpe_size))
    {
        Ok(c) => c,
        Err(e) => {
            eprintln!("bad configuration: {e}");
            std::process::exit(2);
        }
    };

    println!(
        "GEMM {shape} | input sparsity {:.0}% | weight sparsity {:.0}% | SIGMA {} x Flex-DPE-{}",
        args.input_sparsity * 100.0,
        args.weight_sparsity * 100.0,
        args.dpes,
        args.dpe_size
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

    if args.energy {
        let b = EnergyBreakdown::from_stats(&best, args.dpe_size);
        println!("\n  energy breakdown ({:.3} mJ total):", b.total_j() * 1e3);
        for (label, j) in b.rows() {
            println!("    {label:>10}: {:>8.3} mJ ({:>4.1}%)", j * 1e3, 100.0 * j / b.total_j());
        }
    }

    if args.functional {
        let cap = 64usize;
        let fm = args.m.min(cap);
        let fn_ = args.n.min(cap);
        let fk = args.k.min(cap);
        let a = sparse_uniform(fm, fk, Density::new(1.0 - args.input_sparsity).unwrap(), 1);
        let b = sparse_uniform(fk, fn_, Density::new(1.0 - args.weight_sparsity).unwrap(), 2);
        let sim = SigmaSim::new(SigmaConfig::new(4, 16, 64, Dataflow::WeightStationary).unwrap())
            .unwrap();
        let (df, run) = sim.run_best_stationary(&a, &b).unwrap();
        let reference = a.to_dense().matmul(&b.to_dense());
        let ok = run.result.approx_eq(&reference, 1e-3 * fk as f32);
        println!(
            "\n  functional check on {fm}x{fk}x{fn_} (4 x Flex-DPE-16, {df}): {}",
            if ok { "PASS" } else { "FAIL" }
        );
        if !ok {
            std::process::exit(1);
        }
    }
}
