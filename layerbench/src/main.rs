//! Layered benchmark of the SIGMA reproduction.
//!
//! One process runs one workload for a fixed wall-clock budget and prints
//! every metric by name with its unit, then one JSON object as the last
//! line of standard output:
//!
//! ```text
//! layerbench --workload train_stationary --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with telemetry and the
//! flight recorder off. `--trace 1` runs the same steps, alternating
//! untraced steps with traced ones, and then times calls into each layer's
//! public functions to report the per-layer metrics. See `README.md` next
//! to this package for the workloads, the metrics and how they relate.

mod engines;
mod probe;
mod stats;
mod sweep;

use std::io::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Set-ups per run: one before the timed phase and the rest spread evenly
/// across it, so `setup_s`, their median, samples the same stretch of
/// host time as the step metrics.
const SETUPS: usize = 10;

/// The timed phase never stops before this many steps, so the p90 of the
/// step times always has at least ten samples beyond it.
pub const MIN_STEPS: usize = 100;

/// Hard ceiling on the timed phase, far above any configured run length,
/// so a pathologically slow build still exits within the time limit.
const MAX_TIMED: Duration = Duration::from_secs(120);

/// The benchmark's workloads, one per process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Training steps on the stationary dataflows.
    TrainStationary,
    /// The same step shapes on the No-Local-Reuse dataflow.
    NlrWave,
    /// ABFT-checked GEMMs under seeded fault plans.
    FaultAbft,
    /// A cached design-space-exploration sweep, cold and warm passes.
    SweepDse,
}

impl WorkloadKind {
    /// Every workload: those `BENCHMARK.json` lists, in its order, then
    /// `fault_abft` and `sweep_dse`, which run only on demand (see
    /// `README.md`).
    pub const ALL: [WorkloadKind; 4] = [
        WorkloadKind::TrainStationary,
        WorkloadKind::NlrWave,
        WorkloadKind::FaultAbft,
        WorkloadKind::SweepDse,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::TrainStationary => "train_stationary",
            WorkloadKind::NlrWave => "nlr_wave",
            WorkloadKind::FaultAbft => "fault_abft",
            WorkloadKind::SweepDse => "sweep_dse",
        }
    }

    fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What one step produced, as seen by the timing loop.
#[derive(Debug, Clone, Default)]
pub struct StepOutcome {
    /// Host seconds of the step's user-visible work (the step-time
    /// distribution): a training step, a checked fault step, or a warm
    /// sweep pass.
    pub step_secs: f64,
    /// Host seconds over which `sim_cycles` were simulated: the step
    /// itself, or the step's cold sweep pass if it ran one.
    pub sim_secs: Option<f64>,
    /// Table II cycles the modelled machines took in this step.
    pub sim_cycles: u64,
    /// Operations attempted (GEMMs, or sweep cells).
    pub attempted: u64,
    /// Operations that failed their output check.
    pub failed: u64,
    /// Digest of the step's deterministic outputs.
    pub digest: u64,
    /// Cells per sweep pass (zero for engine workloads).
    pub cells: u64,
}

/// A workload instance after set-up: steps can be run repeatedly on the
/// same generated inputs.
pub trait Workload {
    /// Runs one step. `traced` turns on engine telemetry and the harness
    /// flight recorder for this step only.
    fn step(&mut self, traced: bool) -> StepOutcome;

    /// The per-layer probe inputs this workload exercises.
    fn probe_set(&self) -> probe::ProbeSet;
}

struct Args {
    workload: WorkloadKind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(WorkloadKind::parse(&v).ok_or_else(|| format!("unknown workload {v}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds.is_finite() && seconds > 0.0) {
                    return Err("--seconds must be a positive number".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v}")),
                };
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

fn setup(kind: WorkloadKind, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match kind {
        WorkloadKind::TrainStationary => Box::new(engines::EngineBench::train_stationary(seed)?),
        WorkloadKind::NlrWave => Box::new(engines::EngineBench::nlr_wave(seed)?),
        WorkloadKind::FaultAbft => Box::new(engines::EngineBench::fault_abft(seed)?),
        WorkloadKind::SweepDse => Box::new(sweep::SweepBench::new(seed)?),
    })
}

/// A fixed pure-Rust kernel timed between steps. Its time depends only on
/// the host, so a shift in it next to a shift in a metric points at the
/// machine, not the program. Reported only; no metric is divided by it.
fn calib_kernel() -> f64 {
    let t = Instant::now();
    let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15u64);
    let mut acc = 0.0f64;
    for i in 0..200_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc += (x >> 40) as f64 * 1e-9 + i as f64 * 1e-12;
    }
    std::hint::black_box(acc);
    t.elapsed().as_secs_f64() * 1e3
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("VmHWM missing from /proc/self/status")?;
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("bad VmHWM line {line:?}: {e}"))?;
    Ok(kb / 1024.0)
}

/// The metrics of one run, in print order, and the totals behind the
/// JSON summary.
struct Report {
    metrics: Vec<(&'static str, f64, &'static str)>,
    attempted: u64,
    failed: u64,
    correct: bool,
}

impl Report {
    fn print(&self) {
        let mut out = std::io::stdout().lock();
        for (name, value, unit) in &self.metrics {
            let _ = writeln!(out, "metric {name} {value} {unit}");
        }
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            body.join(", ")
        );
    }
}

fn run(args: &Args) -> Result<Report, String> {
    let started = Instant::now();
    println!(
        "workload {} seed {} seconds {} trace {} threads {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    );

    // Set-up: inputs, references, simulators or sweep grid, and one
    // untimed warm-up step. Every set-up's warm-up step, and every later
    // step, must repeat the first warm-up step's digest.
    let timed_setup = || -> Result<(Box<dyn Workload>, StepOutcome, f64), String> {
        let t = Instant::now();
        let mut w = setup(args.workload, args.seed)?;
        let warm = w.step(false);
        Ok((w, warm, t.elapsed().as_secs_f64()))
    };
    let (mut w, warm, secs) = timed_setup()?;
    let mut setup_secs = vec![secs];
    let expected = warm.digest;
    let mut attempted = warm.attempted;
    let mut failed = warm.failed;
    let mut digest_ok = warm.failed == 0;

    // Timed phase. In trace mode odd steps are traced, even steps not;
    // otherwise the remaining set-ups interleave with the steps.
    let budget = Duration::from_secs_f64(args.seconds).min(MAX_TIMED);
    let setups = if args.trace { 1 } else { SETUPS };
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut calib = Vec::new();
    let t0 = Instant::now();
    let mut n = 0usize;
    while (t0.elapsed() < budget || plain.len() < MIN_STEPS) && t0.elapsed() < MAX_TIMED {
        #[allow(clippy::cast_precision_loss)]
        if setup_secs.len() < setups
            && t0.elapsed() >= budget.mul_f64(setup_secs.len() as f64 / setups as f64)
        {
            drop(w);
            let (fresh, warm, secs) = timed_setup()?;
            w = fresh;
            setup_secs.push(secs);
            attempted += warm.attempted;
            failed += warm.failed;
            if warm.digest != expected {
                digest_ok = false;
                eprintln!("layerbench: set-up {} warm-up digest differs", setup_secs.len());
            }
            continue;
        }
        calib.push(calib_kernel());
        let is_traced = args.trace && n % 2 == 1;
        let s = w.step(is_traced);
        attempted += s.attempted;
        failed += s.failed;
        if s.digest != expected {
            digest_ok = false;
            failed += s.attempted - s.failed;
            eprintln!(
                "layerbench: step {n} digest {:016x} differs from warm-up digest {expected:016x}",
                s.digest
            );
        }
        if is_traced {
            traced.push(s)
        } else {
            plain.push(s)
        }
        n += 1;
    }
    if plain.len() < MIN_STEPS {
        return Err(format!(
            "only {} untraced steps ran within {MAX_TIMED:?}; the p90 needs {MIN_STEPS}",
            plain.len()
        ));
    }
    let step_ms: Vec<f64> = plain.iter().map(|s| s.step_secs * 1e3).collect();
    // Throughput over the timed phase: all simulated cycles over the host
    // seconds that simulated them. The host alternates between faster and
    // slower stretches lasting seconds; this mean moves in proportion to
    // their mix, where the step median jumps between them.
    let (cycles, sim_secs, sim_steps) = plain
        .iter()
        .filter_map(|s| s.sim_secs.map(|t| (s.sim_cycles, t)))
        .fold((0u64, 0.0f64, 0u64), |(c, t, n), (dc, dt)| (c + dc, t + dt, n + 1));
    let p90 = stats::tail(&step_ms, 0.9).ok_or("step_ms p90 has fewer than 10 samples beyond")?;
    println!("samples step_ms {} p90_beyond {}", step_ms.len(), p90.beyond);
    println!(
        "calib_ms {} ms (drift diagnostic, report only; median of {} timed between steps)",
        stats::median(&calib),
        calib.len()
    );
    if warm.cells > 0 {
        let cells = warm.cells as f64;
        println!("cold_cells_per_s {} cells/s", cells * sim_steps as f64 / sim_secs);
        println!("warm_cells_per_s {} cells/s", cells / stats::median(&step_ms) * 1e3);
    }
    println!(
        "fail_ratio {} ({failed} of {attempted} {})",
        failed as f64 / attempted.max(1) as f64,
        if warm.cells > 0 { "cells" } else { "GEMMs" }
    );
    println!("digest {expected:016x}");

    let correct = digest_ok && failed == 0;
    let metrics = if args.trace {
        let overhead = {
            let t: Vec<f64> = traced.iter().map(|s| s.step_secs).collect();
            let p: Vec<f64> = plain.iter().map(|s| s.step_secs).collect();
            stats::median(&t) / stats::median(&p) - 1.0
        };
        let mut probe = probe::run(args.seed, &w.probe_set())?;
        probe.push(("telemetry.trace_overhead", overhead, "ratio"));
        probe
    } else {
        vec![
            ("setup_s", stats::median(&setup_secs), "s"),
            ("sim_cycles_per_s", cycles as f64 / sim_secs, "cycles/s"),
            ("step_ms_p50", stats::median(&step_ms), "ms"),
            ("step_ms_p90", p90.value, "ms"),
            ("peak_rss_mb", peak_rss_mb()?, "MiB"),
            ("sim_cycles", warm.sim_cycles as f64, "cycles"),
        ]
    };
    eprintln!(
        "layerbench: {} finished in {:.1} s",
        args.workload.name(),
        started.elapsed().as_secs_f64()
    );
    Ok(Report { metrics, attempted, failed, correct })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("layerbench: {e}");
            eprintln!(
                "usage: layerbench --workload <train_stationary|nlr_wave|fault_abft|sweep_dse> \
                 [--seed N] [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            report.print();
            if report.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("layerbench: outputs were wrong; see the failures above");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("layerbench: {e}");
            ExitCode::FAILURE
        }
    }
}
