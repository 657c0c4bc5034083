//! The `sweep_dse` workload: a design-space-exploration grid run through
//! the harness's `Sweep`, `RunCache` and journal, on one worker thread.
//!
//! Every step is a warm pass, and every fourth step starts with a cold pass.
//! A cold pass is a journaled `Sweep::resume` on a fresh store directory, so
//! every cell executes, is journaled (append and fsync) and inserted into
//! the cache store. A warm pass reopens the last cold pass's store from disk
//! and runs `Sweep::run` on it, so every cell is a cache hit. Every pass
//! renders CSV and JSON, which must be byte-identical.

use crate::engines::{scaled_layers, sigma_config, Digest, Gemm};
use crate::probe::ProbeSet;
use crate::{StepOutcome, Workload};
use sigma_baselines::{AnalyticEngine, GpuEngine, GpuPrecision, SystolicArray};
use sigma_bench::harness::{
    derive_seed, records_table, records_to_json, CacheStats, EngineEntry, RunCache, RunRecord,
    RunStatus, SigmaAnalytic, Sweep, WorkloadSpec,
};
use sigma_core::{Dataflow, SigmaSim};
use sigma_telemetry::FlightRecorder;
use sigma_workloads::SparsityProfile;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Sweep worker threads. The machine has two cores, but the second is
/// shared with the host's other work: on two threads the cold-pass rate
/// moved 15-33% between identical runs, on one thread half as much.
const THREADS: usize = 1;

/// The grid's GEMMs are the Fig. 1b layers divided by this, half the
/// engine workloads' divisor, so that a cold pass's compute outweighs its
/// two fsyncs per cell: fsync latency moved 3-4x between runs on the
/// development machine, and at the engine workloads' scale it was a third
/// of the cold pass.
const GRID_SCALE: usize = 8;

/// Cache capacity: far above the grid, so nothing is evicted.
const CACHE_CAPACITY: usize = 4096;

/// A cold pass starts every this-many steps; every step runs a warm pass.
/// Cold passes cost some 50 warm ones, so this keeps a run at well over
/// 100 steps while still timing a cold pass every second or so.
const COLD_EVERY: u64 = 4;

/// Slug of the one functional SIGMA engine in the grid.
const SIGMA_SLUG: &str = "sigma-1k";

/// A directory under the working directory that is removed, with
/// everything in it, when dropped.
#[derive(Debug)]
pub struct TempDir(PathBuf);

impl TempDir {
    /// Creates a fresh, uniquely named directory under
    /// `./.layerbench_tmp/`.
    pub fn new() -> Result<Self, String> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = std::env::current_dir()
            .map_err(|e| format!("no working directory: {e}"))?
            .join(".layerbench_tmp")
            .join(format!("{}-{n}", std::process::id()));
        std::fs::create_dir_all(&path)
            .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        Ok(Self(path))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Remove the shared parent too once the last run left it empty.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// One pass over the grid, timed from opening the store to rendering.
#[derive(Debug)]
pub struct Pass {
    /// Host seconds: open the store, run every cell, render.
    pub secs: f64,
    /// Host seconds spent rendering CSV and JSON.
    pub render_secs: f64,
    /// Cache traffic of the pass.
    pub cache: CacheStats,
    /// The grid's records.
    pub records: Vec<RunRecord>,
    csv: String,
    json: String,
}

/// The DSE workload after set-up.
#[derive(Debug)]
pub struct SweepBench {
    seed: u64,
    workloads: Vec<WorkloadSpec>,
    engines: Vec<EngineEntry>,
    tmp: TempDir,
    /// Cold passes run so far; names each store directory.
    cold_passes: u64,
    /// Steps run so far; every [`COLD_EVERY`]-th starts with a cold pass.
    steps: u64,
    /// The store the last cold pass filled, and its CSV and JSON.
    store: Option<(PathBuf, String, String)>,
}

/// The grid's workloads: the benchmarked Fig. 1b forward GEMMs, each at
/// one of the Fig. 12b sparsity profiles.
fn grid_workloads() -> Result<Vec<WorkloadSpec>, String> {
    let profiles = SparsityProfile::fig12b_sweep();
    Ok(scaled_layers(GRID_SCALE)?
        .into_iter()
        .enumerate()
        .map(|(i, (name, shape))| {
            let (tag, profile) = profiles[i % profiles.len()];
            WorkloadSpec::new(format!("{name} {tag}"), profile.problem(shape))
        })
        .collect())
}

/// The grid's engines: six analytic models and one functional SIGMA.
fn grid_engines() -> Vec<EngineEntry> {
    let sigma_analytic = |pes| {
        Box::new(AnalyticEngine::new(SigmaAnalytic::new(sigma_config(
            pes,
            Dataflow::WeightStationary,
        ))))
    };
    vec![
        EngineEntry::new("tpu-32", Box::new(AnalyticEngine::new(SystolicArray::new(32, 32)))),
        EngineEntry::new("tpu-128", Box::new(AnalyticEngine::new(SystolicArray::new(128, 128)))),
        EngineEntry::new("gpu-fp16", Box::new(GpuEngine::new(GpuPrecision::Fp16Tensor))),
        EngineEntry::new("gpu-fp32", Box::new(GpuEngine::new(GpuPrecision::Fp32))),
        EngineEntry::new("sigma-analytic-1k", sigma_analytic(1024)),
        EngineEntry::new("sigma-analytic-4k", sigma_analytic(4096)),
        EngineEntry::new(
            SIGMA_SLUG,
            Box::new(SigmaSim::new_clamped(sigma_config(1024, Dataflow::WeightStationary))),
        ),
    ]
}

fn render(records: &[RunRecord]) -> (String, String) {
    (records_table("sweep_dse", records).to_csv(), records_to_json(records))
}

/// Checks that every cell ended `ok` with a verified result.
fn check_cells(records: &[RunRecord]) -> Result<(), String> {
    match records.iter().find(|r| r.status != RunStatus::Ok || !r.verified) {
        Some(bad) => Err(format!(
            "cell {} x {} ended {} (verified {}): {}",
            bad.engine_slug,
            bad.workload,
            bad.status,
            bad.verified,
            bad.error.as_deref().unwrap_or("")
        )),
        None => Ok(()),
    }
}

impl SweepBench {
    /// Builds the grid and the run's temporary store directory.
    pub fn new(seed: u64) -> Result<Self, String> {
        Ok(Self {
            seed,
            workloads: grid_workloads()?,
            engines: grid_engines(),
            tmp: TempDir::new()?,
            cold_passes: 0,
            steps: 0,
            store: None,
        })
    }

    /// Cells in one pass.
    pub fn cells(&self) -> usize {
        self.workloads.len() * self.engines.len()
    }

    /// One pass over the grid on the cache store in `dir`: journaled when
    /// `journaled`, a plain cached run otherwise.
    fn pass(&self, dir: &Path, journaled: bool, recorder: &FlightRecorder) -> Result<Pass, String> {
        let t = Instant::now();
        let store = dir.join("cells.cache");
        let cache = RunCache::open(&store, CACHE_CAPACITY)
            .map_err(|e| format!("cannot open cache {}: {e}", store.display()))?
            .with_flight_recorder(recorder.clone());
        let cache = Arc::new(cache);
        let sweep = Sweep::new(self.workloads.clone())
            .with_seed(self.seed)
            .with_threads(THREADS)
            .with_cache(Arc::clone(&cache))
            .with_flight_recorder(recorder.clone());
        let records = if journaled {
            let journal = dir.join("cold.journal");
            let outcome = sweep
                .resume(&self.engines, &journal)
                .map_err(|e| format!("sweep over {} failed: {e}", journal.display()))?;
            if let Some(w) = outcome.warnings.first() {
                return Err(format!("sweep warned: {w}"));
            }
            outcome.records
        } else {
            sweep.run(&self.engines)
        };
        let r = Instant::now();
        let (csv, json) = render(&records);
        let render_secs = r.elapsed().as_secs_f64();
        let secs = t.elapsed().as_secs_f64();
        check_cells(&records)?;
        Ok(Pass { secs, render_secs, cache: cache.stats(), records, csv, json })
    }

    /// A cold pass: a journaled sweep on a fresh store directory, which
    /// replaces (and deletes) the previous one. Every cell must miss.
    pub fn cold(&mut self, recorder: &FlightRecorder) -> Result<Pass, String> {
        self.cold_passes += 1;
        let dir = self.tmp.path().join(format!("store-{}", self.cold_passes));
        std::fs::create_dir(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        if let Some((old, _, _)) = self.store.take() {
            std::fs::remove_dir_all(&old)
                .map_err(|e| format!("cannot remove {}: {e}", old.display()))?;
        }
        let pass = self.pass(&dir, true, recorder)?;
        let cells = self.cells() as u64;
        if pass.cache.misses != cells {
            return Err(format!("cold pass missed {} of {cells} cells", pass.cache.misses));
        }
        self.store = Some((dir, pass.csv.clone(), pass.json.clone()));
        Ok(pass)
    }

    /// A warm pass: reopen the last cold pass's store and run on it. Every
    /// cell must hit, and the renderings must equal the cold pass's bytes.
    pub fn warm(&self, recorder: &FlightRecorder) -> Result<Pass, String> {
        let (dir, csv, json) = self.store.as_ref().ok_or("no cold pass has filled a store")?;
        let pass = self.pass(dir, false, recorder)?;
        let cells = self.cells() as u64;
        if pass.cache.hits != cells {
            return Err(format!("warm pass hit {} of {cells} cells", pass.cache.hits));
        }
        if pass.csv != *csv || pass.json != *json {
            return Err("warm pass rendered differently from the cold pass".into());
        }
        Ok(pass)
    }

    fn try_step(&mut self, recorder: &FlightRecorder) -> Result<StepOutcome, String> {
        let cold =
            if self.steps.is_multiple_of(COLD_EVERY) { Some(self.cold(recorder)?) } else { None };
        self.steps += 1;
        let warm = self.warm(recorder)?;
        let cells = self.cells() as u64;
        let mut digest = Digest::default();
        digest.bytes(warm.csv.as_bytes());
        digest.bytes(warm.json.as_bytes());
        Ok(StepOutcome {
            step_secs: warm.secs,
            sim_secs: cold.as_ref().map(|c| c.secs),
            sim_cycles: warm.records.iter().map(|r| r.total_cycles).sum(),
            attempted: if cold.is_some() { 2 * cells } else { cells },
            failed: 0,
            digest: digest.value(),
            cells,
        })
    }
}

/// A flight recorder on a microsecond clock starting now.
pub fn recorder() -> FlightRecorder {
    let epoch = Instant::now();
    #[allow(clippy::cast_possible_truncation)]
    FlightRecorder::with_clock(1 << 14, move || epoch.elapsed().as_micros() as u64)
}

impl Workload for SweepBench {
    fn step(&mut self, traced: bool) -> StepOutcome {
        let rec = if traced { recorder() } else { FlightRecorder::off() };
        self.try_step(&rec).unwrap_or_else(|e| {
            eprintln!("layerbench: sweep pass failed: {e}");
            let cells = self.cells() as u64;
            StepOutcome { attempted: cells, failed: cells, cells, ..StepOutcome::default() }
        })
    }

    fn probe_set(&self) -> ProbeSet {
        let cfg = sigma_config(1024, Dataflow::WeightStationary);
        let gemms = self
            .workloads
            .iter()
            .enumerate()
            .map(|(i, w)| {
                let label = format!("{SIGMA_SLUG} x {}", w.name);
                Gemm::new(label, w.problem, derive_seed(self.seed, i as u64), cfg)
            })
            .collect();
        ProbeSet { gemms }
    }
}
