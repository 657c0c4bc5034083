//! The parallel sweep driver: a workload suite fanned across a fleet of
//! engines on scoped threads.
//!
//! Determinism contract: operands are materialized, on first use, from
//! seeds derived only from the sweep seed and the workload index, jobs are
//! indexed `engine-major x workload-minor`, and [`par_map`] returns
//! results in job order regardless of thread count — so a parallel sweep
//! is byte-identical to a serial one.
//!
//! Panic isolation: each (engine, workload) cell is one inline call,
//! `catch_unwind(|| engine.run(a, b))`, on the [`par_map`] worker that
//! claimed it, so a panicking engine yields a `status=panic` record and
//! every other cell is unaffected — a sweep never dies because one
//! engine does. Every engine is deterministic, so a cell's record is the
//! same on every host and a failed cell is never retried: retrying would
//! only reproduce it. No cell has a time budget either; a cell runs to
//! completion.
//!
//! Crash-safety contract: [`Sweep::resume`] drives the same grid through
//! the same loop as [`Sweep::run`], with a write-ahead journal — a
//! [`RunCache`] store that never evicts — as the first store each cell
//! checks: completed cells replay from disk, missing cells run and are
//! appended durably, and its final records are byte-identical to an
//! uninterrupted [`Sweep::run`]. A sweep that hangs or is killed is
//! recovered by killing it and running [`Sweep::resume`] on the same
//! journal.

use crate::harness::cache::{CellKey, RunCache};
use crate::harness::record::{RunRecord, RunStatus};
use crate::harness::registry::EngineEntry;
use sigma_core::model::GemmProblem;
use sigma_core::{Engine, GemmRun};
use sigma_matrix::{GemmShape, Matrix, SparseMatrix};
use sigma_telemetry::{FlightRecorder, Gauge, Stage};
use sigma_workloads::materialize;
use std::cell::Cell;
use std::io::IsTerminal;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Once, OnceLock};
use std::time::Duration;

/// One named workload of a sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Display name (goes into the `workload` record column).
    pub name: String,
    /// The GEMM problem (shape + densities) to materialize.
    pub problem: GemmProblem,
}

impl WorkloadSpec {
    /// Creates a workload.
    #[must_use]
    pub fn new(name: impl Into<String>, problem: GemmProblem) -> Self {
        Self { name: name.into(), problem }
    }
}

/// Parses `M:N:K[:density_a[:density_b]]` (densities default to 1), the
/// form `sigma_cli --sweep --workload` takes; the spec is the name.
impl std::str::FromStr for WorkloadSpec {
    type Err = String;

    fn from_str(spec: &str) -> Result<Self, String> {
        let parts: Vec<&str> = spec.split(':').collect();
        if !(3..=5).contains(&parts.len()) {
            return Err("expected M:N:K[:density_a[:density_b]]".to_string());
        }
        let dim = |i: usize| match parts[i].parse::<usize>() {
            Ok(0) => Err("dimensions must be non-zero".to_string()),
            d => d.map_err(|e| e.to_string()),
        };
        let den =
            |i: usize| parts.get(i).map_or(Ok(1.0), |s| s.parse().map_err(|e| format!("{e}")));
        let (shape, da, db) = (GemmShape::new(dim(0)?, dim(1)?, dim(2)?), den(3)?, den(4)?);
        if !(0.0..=1.0).contains(&da) || !(0.0..=1.0).contains(&db) {
            return Err("densities must be in [0, 1]".to_string());
        }
        Ok(Self::new(spec, GemmProblem::sparse(shape, da, db)))
    }
}

/// Derives the seed for workload `index` from the sweep seed
/// (SplitMix64), so per-workload operands are independent of engine
/// order and thread count.
#[must_use]
pub fn derive_seed(global: u64, index: u64) -> u64 {
    let mut z = global ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Maps `f` over `items` on up to `threads` scoped worker threads,
/// returning results in input order (a worker pool over an atomic index
/// counter; results are re-sorted by index, so the order — and anything
/// derived from it — is independent of scheduling).
///
/// # Panics
///
/// Propagates a panic from `f`.
pub fn par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let threads = threads.clamp(1, items.len().max(1));
    if threads == 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let next = AtomicUsize::new(0);
    let chunks: Vec<Vec<(usize, R)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut got = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        got.push((i, f(i, &items[i])));
                    }
                    got
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(v) => v,
                // A worker panicking is a harness bug (cells are already
                // panic-contained); propagate the original payload.
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });
    let mut all: Vec<(usize, R)> = chunks.into_iter().flatten().collect();
    all.sort_by_key(|(i, _)| *i);
    all.into_iter().map(|(_, r)| r).collect()
}

thread_local! {
    /// Whether this thread is inside a sweep cell's `catch_unwind`; the
    /// quiet panic hook keys off it.
    static IN_CELL: Cell<bool> = const { Cell::new(false) };
}

/// Installs (once per process) a panic hook that suppresses the default
/// backtrace printout for panics raised inside a sweep cell — those
/// panics are caught, recorded as `status=panic`, and surfaced in the
/// record's `error` column instead. Every other panic, on any thread,
/// keeps the previous hook's behavior.
fn install_quiet_panic_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !IN_CELL.with(Cell::get) {
                previous(info);
            }
        }));
    });
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Runs `engine` on `(a, b)` on the calling thread behind
/// `catch_unwind`: an engine error or a caught panic becomes the failed
/// cell's status and message.
fn run_engine(
    engine: &dyn Engine,
    a: &SparseMatrix,
    b: &SparseMatrix,
) -> Result<GemmRun, (RunStatus, String)> {
    install_quiet_panic_hook();
    let outer = IN_CELL.replace(true);
    let outcome = catch_unwind(AssertUnwindSafe(|| engine.run(a, b)));
    IN_CELL.set(outer);
    match outcome {
        Ok(Ok(run)) => Ok(run),
        Ok(Err(e)) => Err((RunStatus::Error, e.to_string())),
        Err(payload) => Err((RunStatus::Panic, panic_message(payload.as_ref()))),
    }
}

/// A deterministic (engine x workload) sweep.
#[derive(Debug, Clone)]
pub struct Sweep {
    workloads: Vec<WorkloadSpec>,
    seed: u64,
    threads: usize,
    recorder: FlightRecorder,
    cache: Option<Arc<RunCache>>,
}

impl Sweep {
    /// Creates a sweep over `workloads` with the default seed and a
    /// thread count taken from the machine (capped at 8).
    #[must_use]
    pub fn new(workloads: Vec<WorkloadSpec>) -> Self {
        let threads =
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get).min(8);
        Self {
            workloads,
            seed: 0x0053_4947_4d41,
            threads,
            recorder: FlightRecorder::off(),
            cache: None,
        }
    }

    /// Overrides the sweep seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the worker-thread count (1 = serial).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Attaches a [`FlightRecorder`], the sweep's only wall clock: engine
    /// runs, operand materializations, and queue waits are recorded as
    /// thread-tagged spans and per-stage latency histograms, the sweep
    /// maintains the `cells_total` / `cells_completed` gauges (plus
    /// `cache_entries` when a cache is attached) with periodic
    /// snapshots, and a live one-line progress counter goes to stderr
    /// when stderr is a terminal. Records never carry wall time, so they —
    /// and their rendered CSV/JSON — are byte-identical with the
    /// recorder on, off, or never attached. Engine-run spans are
    /// labelled `"{slug}: {workload}"`, which is how
    /// [`engine_table`](crate::harness::flight::engine_table) splits the
    /// sweep's wall time by engine.
    ///
    /// The recorder's clock is injected by the caller (the `sigma_cli`
    /// harness passes a monotonic epoch), keeping wall-clock reads out
    /// of determinism-critical library crates.
    #[must_use]
    pub fn with_flight_recorder(mut self, recorder: FlightRecorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Attaches a shared content-addressed [`RunCache`]: every cell
    /// looks it up before executing (a verified hit replaces the
    /// simulation with one map lookup), and executed `ok` cells are
    /// inserted. Records are byte-identical to an uncached run by key
    /// construction: the [`CellKey`] covers every result-affecting knob,
    /// so a hit can only serve the bytes the engine would have produced.
    #[must_use]
    pub fn with_cache(mut self, cache: Arc<RunCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// The attached run cache, if any.
    #[must_use]
    pub fn cache(&self) -> Option<&Arc<RunCache>> {
        self.cache.as_ref()
    }

    /// The sweep seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The workloads.
    #[must_use]
    pub fn workloads(&self) -> &[WorkloadSpec] {
        &self.workloads
    }

    /// Runs every engine on every workload (engine-major record order),
    /// verifying each result against the reference GEMM.
    #[must_use]
    pub fn run(&self, engines: &[EngineEntry]) -> Vec<RunRecord> {
        self.execute(engines, None).0
    }

    /// Resumes (or starts) a journaled sweep: cells whose key is already
    /// in the journal at `journal_path` replay from disk, missing cells
    /// run and are appended durably as they complete, and the journal is
    /// compacted atomically at the end. The returned records are
    /// byte-identical to an uninterrupted [`Sweep::run`] — a sweep
    /// killed at *any* point loses at most its in-flight cells.
    ///
    /// The journal is a [`RunCache`] store that never evicts and
    /// memoizes every cell, whatever its status, so it is checked first;
    /// an attached shared cache is checked second and, as in
    /// [`Sweep::run`], memoizes only `ok` records.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors opening or compacting the journal. A
    /// *corrupt* journal never errors — bad lines are skipped with a
    /// warning in the outcome and their cells simply rerun.
    pub fn resume(
        &self,
        engines: &[EngineEntry],
        journal_path: &Path,
    ) -> std::io::Result<ResumeOutcome> {
        let journal =
            RunCache::open(journal_path, usize::MAX)?.with_flight_recorder(self.recorder.clone());
        let (records, cells_executed) = self.execute(engines, Some(&journal));
        // Rewrite the journal to exactly the final grid: duplicates,
        // skipped garbage, and torn tails are dropped.
        journal.compact()?;
        Ok(ResumeOutcome {
            records,
            cells_executed,
            resume_hits: journal.stats().hits,
            warnings: journal.warnings(),
        })
    }

    /// One lazily-materialized slot per workload. Seeds are derived
    /// eagerly (they feed cell keys and journal replay), but operands and
    /// the dense reference product wait for the first cell that actually
    /// executes — a fully-warm cached sweep never pays for either.
    fn prepare(&self) -> Vec<LazyPrepared> {
        (0..self.workloads.len())
            .map(|wi| LazyPrepared {
                seed: derive_seed(self.seed, wi as u64),
                cell: OnceLock::new(),
            })
            .collect()
    }

    /// The engine-major job grid.
    fn jobs(&self, engines: &[EngineEntry]) -> Vec<(usize, usize)> {
        (0..engines.len())
            .flat_map(|ei| (0..self.workloads.len()).map(move |wi| (ei, wi)))
            .collect()
    }

    /// Runs one (engine, workload) cell to its record: one engine run,
    /// then verification against the reference GEMM.
    fn run_cell(&self, entry: &EngineEntry, w: &WorkloadSpec, input: &Prepared) -> RunRecord {
        // The span label is only built when the recorder is on, so a
        // recorder-free cell allocates nothing extra.
        let label = self.recorder.is_enabled().then(|| format!("{}: {}", entry.slug, w.name));
        let t0 = self.recorder.now_us();
        let outcome = run_engine(entry.engine.as_ref(), &input.a, &input.b);
        self.recorder.span_since(Stage::EngineRun, label.as_deref().unwrap_or(""), t0);
        // The operand footprint is derived from nnz alone, so it is
        // deterministic.
        let mem_est_bytes = operand_footprint_bytes(&input.a, &input.b);
        let (name, pes) = (entry.engine.name(), entry.engine.pes());
        match outcome {
            Ok(run) => RunRecord::from_run(
                &entry.slug,
                &name,
                pes,
                &w.name,
                &w.problem,
                input.seed,
                &run,
                f64::from(run.result.max_abs_diff(&input.reference)),
                run.result.approx_eq(&input.reference, input.tol),
                mem_est_bytes,
            ),
            Err((status, msg)) => RunRecord::from_failure(
                &entry.slug,
                &name,
                pes,
                &w.name,
                &w.problem,
                input.seed,
                status,
                msg,
                mem_est_bytes,
            ),
        }
    }

    /// The one sweep loop behind [`Sweep::run`] and [`Sweep::resume`]:
    /// each cell is resolved by [`Sweep::resolve`] on a [`par_map`]
    /// worker, with a queue-wait span, the progress gauges and the live
    /// progress line around it. Returns the records and the number of
    /// cells whose engine ran.
    fn execute(
        &self,
        engines: &[EngineEntry],
        journal: Option<&RunCache>,
    ) -> (Vec<RunRecord>, u64) {
        let prepared = self.prepare();
        let jobs = self.jobs(engines);
        let total = jobs.len();
        let completed = AtomicUsize::new(0);
        let executed = AtomicU64::new(0);
        // Queue wait, elapsed time and ETA are all measured from one
        // shared stamp at dispatch: a cell's wait is how long after the
        // sweep started a worker first picked it up.
        let dispatched_us = self.recorder.now_us();
        self.recorder.gauge_set(Gauge::CellsTotal, total as u64);
        self.recorder.gauge_set(Gauge::CellsCompleted, 0);
        self.recorder.snap();
        let snap_every = (total / 16).max(1);
        // The progress line is for a person watching a terminal; a
        // recorded sweep whose stderr is a pipe or a file stays quiet.
        let progress = std::io::stderr().is_terminal();
        let records = par_map(&jobs, self.threads, |_, &(ei, wi)| {
            let entry = &engines[ei];
            let w = &self.workloads[wi];
            if self.recorder.is_enabled() {
                let label = format!("{}: {}", entry.slug, w.name);
                self.recorder.span_since(Stage::QueueWait, &label, dispatched_us);
            }
            let (record, ran) = self.resolve(entry, w, &prepared[wi], journal);
            executed.fetch_add(u64::from(ran), Ordering::Relaxed);
            if self.recorder.is_enabled() {
                let done = completed.fetch_add(1, Ordering::Relaxed) + 1;
                self.recorder.gauge_set(Gauge::CellsCompleted, done as u64);
                if let Some(cache) = &self.cache {
                    self.recorder.gauge_set(Gauge::CacheEntries, cache.stats().entries);
                }
                if done.is_multiple_of(snap_every) || done == total {
                    self.recorder.snap();
                }
                if progress {
                    let elapsed =
                        Duration::from_micros(self.recorder.now_us().saturating_sub(dispatched_us))
                            .as_secs_f64();
                    let eta = if done > 0 && done < total {
                        elapsed / done as f64 * (total - done) as f64
                    } else {
                        0.0
                    };
                    eprint!(
                        "\r[sweep] {done}/{total} cells | {elapsed:.1}s elapsed, eta {eta:.1}s ({}: {})",
                        entry.slug, w.name
                    );
                    if done == total {
                        eprintln!();
                    }
                }
            }
            record
        });
        (records, executed.into_inner())
    }

    /// One cell's record from the first store that holds it — the
    /// journal, then the attached cache — or else from the engine. Only
    /// `ok` records go into the cache: a panic or error cell re-runs
    /// every time. The journal takes every record, whatever its status.
    /// A stored record returns before the workload's operands are ever
    /// materialized. The flag is whether the engine ran.
    fn resolve(
        &self,
        entry: &EngineEntry,
        w: &WorkloadSpec,
        lazy: &LazyPrepared,
        journal: Option<&RunCache>,
    ) -> (RunRecord, bool) {
        let cache = self.cache.as_deref();
        if journal.is_none() && cache.is_none() {
            return (self.run_cell(entry, w, self.force_timed(lazy, w)), true);
        }
        let key = CellKey::for_engine(&entry.slug, entry.engine.as_ref(), w, lazy.seed);
        if let Some(done) = journal.and_then(|j| j.lookup(&key)) {
            return (done, false);
        }
        let (record, ran) = match cache.and_then(|c| c.lookup(&key)) {
            Some(hit) => (hit, false),
            None => {
                let record = self.run_cell(entry, w, self.force_timed(lazy, w));
                if let Some(cache) = cache.filter(|_| record.status == RunStatus::Ok) {
                    cache.insert(&key, &record);
                }
                (record, true)
            }
        };
        if let Some(journal) = journal {
            // Append (and fsync) before the cell counts as complete: once
            // a record is visible to the caller it must survive a
            // SIGKILL. An append failure degrades to a warning — the cell
            // just re-runs next time.
            journal.insert(&key, &record);
        }
        (record, ran)
    }

    /// [`LazyPrepared::force`] with a [`Stage::Materialize`] span around
    /// the first (materializing) call. Already-materialized slots — and
    /// every call with the recorder off — go straight through, so the
    /// `materialize` histogram counts workloads materialized, not cells
    /// run. (Two racing first callers may both record; the loser's span
    /// measures its block on the winner, which is still time spent
    /// waiting on materialization.)
    fn force_timed<'a>(&self, lazy: &'a LazyPrepared, w: &WorkloadSpec) -> &'a Prepared {
        if !self.recorder.is_enabled() || lazy.cell.get().is_some() {
            return lazy.force(w);
        }
        let t0 = self.recorder.now_us();
        let prepared = lazy.force(w);
        self.recorder.span_since(Stage::Materialize, &w.name, t0);
        prepared
    }
}

/// One workload's materialized inputs: operands, the dense reference
/// product, and the verification tolerance.
struct Prepared {
    seed: u64,
    a: SparseMatrix,
    b: SparseMatrix,
    reference: Matrix,
    tol: f32,
}

/// A [`Prepared`] slot that materializes on first use (thread-safe; racing
/// cells block on the one materializer). The seed is available without
/// forcing, so cache/journal keys never trigger materialization.
struct LazyPrepared {
    seed: u64,
    cell: OnceLock<Prepared>,
}

impl LazyPrepared {
    /// The materialized inputs, computing them on the first call. Pure in
    /// `(workload, seed)`, so laziness cannot perturb records.
    fn force(&self, w: &WorkloadSpec) -> &Prepared {
        self.cell.get_or_init(|| {
            let (a, b) = materialize(&w.problem, self.seed);
            let reference = a.to_dense().matmul(&b.to_dense());
            // Accumulation-order slack grows with the contraction
            // length, like the agreement tests elsewhere.
            let tol = 1e-3 * w.problem.shape.k.max(1) as f32;
            Prepared { seed: self.seed, a, b, reference, tol }
        })
    }
}

/// What [`Sweep::resume`] produced, beyond the records themselves.
#[derive(Debug)]
pub struct ResumeOutcome {
    /// The full grid, engine-major — byte-identical to [`Sweep::run`].
    pub records: Vec<RunRecord>,
    /// Cells whose engine ran in *this* invocation (not those served by
    /// the journal or the shared cache).
    pub cells_executed: u64,
    /// Cells replayed from the journal: its lookup hits.
    pub resume_hits: u64,
    /// Replay and append warnings (corrupt lines skipped, ...).
    pub warnings: Vec<String>,
}

/// Deterministic estimate of a cell's operand working set: compressed
/// non-zero values plus the one-bit-per-position bitmaps SIGMA's
/// controller scans (Sec. IV-D). A proxy for resident memory that is a
/// pure function of the operands, so it is identical across machines,
/// thread counts, and telemetry settings.
fn operand_footprint_bytes(a: &SparseMatrix, b: &SparseMatrix) -> u64 {
    let values = 4 * (a.nnz() + b.nnz()) as u64;
    let bitmaps = ((a.rows() * a.cols() + b.rows() * b.cols()) as u64).div_ceil(8);
    values + bitmaps
}

/// A small functional-scale suite (dense, paper-sparse, irregular, tall)
/// used by `sigma_cli --sweep` and the harness tests.
#[must_use]
pub fn demo_suite() -> Vec<WorkloadSpec> {
    vec![
        WorkloadSpec::new("dense 32x32x32", GemmProblem::dense(GemmShape::new(32, 32, 32))),
        WorkloadSpec::new(
            "sparse 48x48x48 (50%/80%)",
            GemmProblem::sparse(GemmShape::new(48, 48, 48), 0.5, 0.2),
        ),
        WorkloadSpec::new(
            "irregular 24x64x16 (30%/50%)",
            GemmProblem::sparse(GemmShape::new(24, 64, 16), 0.7, 0.5),
        ),
        WorkloadSpec::new(
            "tall 64x8x40 (70%/70%)",
            GemmProblem::sparse(GemmShape::new(64, 8, 40), 0.3, 0.3),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::registry::default_registry;

    #[test]
    fn par_map_preserves_input_order() {
        let items: Vec<usize> = (0..97).collect();
        let doubled = par_map(&items, 7, |i, &x| {
            assert_eq!(i, x);
            x * 2
        });
        assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        assert_eq!(par_map(&items, 1, |_, &x| x), items);
        assert!(par_map(&[] as &[usize], 4, |_, &x| x).is_empty());
    }

    #[test]
    fn derived_seeds_are_spread() {
        let seeds: Vec<u64> = (0..16).map(|i| derive_seed(42, i)).collect();
        let mut uniq = seeds.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), seeds.len());
        assert_ne!(derive_seed(42, 0), derive_seed(43, 0));
    }

    #[test]
    fn par_map_really_runs_jobs_on_concurrent_threads() {
        // Four items, four workers, and a barrier only all four jobs
        // together can pass: the map can only complete if every job is
        // simultaneously in flight on its own thread.
        use std::sync::{Barrier, Mutex};
        let barrier = Barrier::new(4);
        let seen = Mutex::new(Vec::new());
        let items = [0u8; 4];
        par_map(&items, 4, |_, _| {
            seen.lock().unwrap().push(std::thread::current().id());
            barrier.wait();
        });
        let ids: std::collections::HashSet<_> = seen.into_inner().unwrap().into_iter().collect();
        assert_eq!(ids.len(), 4, "expected 4 distinct worker threads");
    }

    #[test]
    fn parallel_sweep_equals_serial_sweep() {
        let engines: Vec<_> =
            default_registry().into_iter().filter(|e| e.slug != "sigma").take(4).collect();
        let sweep =
            Sweep::new(demo_suite().into_iter().take(2).collect()).with_seed(9).with_threads(4);
        assert_eq!(sweep.run(&engines), sweep.clone().with_threads(1).run(&engines));
    }

    /// The acceptance scenario: the full 11-engine registry plus one
    /// deliberately panicking engine, swept on one thread (cells run on
    /// the caller's own thread) and on four. The sweep completes, the
    /// panicking cells (and only those) report `status=panic` with the
    /// payload in `error`, every healthy cell is byte-identical to a
    /// panic-free sweep, and both thread counts give identical records.
    #[test]
    fn chaos_engines_degrade_to_status_rows_without_poisoning_the_sweep() {
        use crate::harness::chaos::PanickingEngine;
        let clean = default_registry();
        let mut fleet = default_registry();
        fleet.push(EngineEntry::new("chaos-panic", Box::new(PanickingEngine)));
        let suite = demo_suite().into_iter().take(2).collect::<Vec<_>>();
        let workloads = suite.len();
        let sweep = Sweep::new(suite);
        let baseline = sweep.clone().with_threads(4).run(&clean);
        let runs: Vec<Vec<RunRecord>> =
            [1, 4].iter().map(|&t| sweep.clone().with_threads(t).run(&fleet)).collect();
        for records in &runs {
            assert_eq!(records.len(), (clean.len() + 1) * workloads);
            for r in records {
                if r.engine_slug == "chaos-panic" {
                    assert_eq!(r.status, RunStatus::Panic, "{}", r.workload);
                    assert!(r.error.as_deref().unwrap().contains("deliberate panic"));
                } else {
                    assert_eq!(r.status, RunStatus::Ok, "{}", r.engine_slug);
                }
            }
            // The healthy cells are byte-identical to a panic-free sweep.
            let ok_rows: Vec<_> =
                records.iter().filter(|r| r.status == RunStatus::Ok).cloned().collect();
            assert_eq!(ok_rows, baseline);
        }
        assert_eq!(runs[0], runs[1], "thread count must not change a record");
    }

    fn journal_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("sigma_sweep_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}_{}.journal", std::process::id()))
    }

    /// Tentpole acceptance: a resumed sweep's records are byte-identical
    /// to an uninterrupted run, whatever prefix of the journal survived.
    #[test]
    fn resume_replays_the_journal_and_matches_an_uninterrupted_run() {
        let engines: Vec<_> = default_registry()
            .into_iter()
            .filter(|e| e.slug == "eie" || e.slug == "scnn" || e.slug == "cambricon-x")
            .collect();
        let suite = demo_suite().into_iter().take(2).collect::<Vec<_>>();
        let sweep = Sweep::new(suite).with_seed(11).with_threads(2);
        let baseline = sweep.run(&engines);

        // Fresh resume: no journal yet, every cell executes + journals.
        let path = journal_path("resume_fresh");
        let _ = std::fs::remove_file(&path);
        let first = sweep.resume(&engines, &path).unwrap();
        assert_eq!(first.records, baseline);
        assert_eq!(first.cells_executed, baseline.len() as u64);
        assert_eq!(first.resume_hits, 0);
        assert!(first.warnings.is_empty(), "{:?}", first.warnings);

        // Second resume: everything replays, nothing re-executes.
        let second = sweep.resume(&engines, &path).unwrap();
        assert_eq!(second.records, baseline);
        assert_eq!(second.cells_executed, 0);
        assert_eq!(second.resume_hits, baseline.len() as u64);

        // Simulated crash: keep only a prefix of the journal (as a
        // SIGKILL mid-sweep would), resume, and demand byte-identity —
        // including the rendered CSV/JSON artifacts.
        let text = std::fs::read_to_string(&path).unwrap();
        let keep: String = text.lines().take(2).map(|l| format!("{l}\n")).collect();
        std::fs::write(&path, keep).unwrap();
        let resumed = sweep.resume(&engines, &path).unwrap();
        assert_eq!(resumed.resume_hits, 2);
        assert_eq!(resumed.cells_executed, baseline.len() as u64 - 2);
        assert_eq!(resumed.records, baseline);
        assert_eq!(
            crate::harness::record::records_to_json(&resumed.records),
            crate::harness::record::records_to_json(&baseline)
        );
        assert_eq!(
            crate::harness::record::records_table("sweep", &resumed.records).to_csv(),
            crate::harness::record::records_table("sweep", &baseline).to_csv()
        );
        let _ = std::fs::remove_file(&path);
    }

    /// Satellite 3 acceptance: corruption in every class (torn tail,
    /// garbage bytes, duplicates, stale schema) resumes cleanly — the
    /// damaged cells just rerun.
    #[test]
    fn resume_survives_a_corrupted_journal() {
        use std::io::Write;
        let engines: Vec<_> = default_registry().into_iter().filter(|e| e.slug == "eie").collect();
        let suite = demo_suite().into_iter().take(2).collect::<Vec<_>>();
        let sweep = Sweep::new(suite).with_seed(5).with_threads(1);
        let baseline = sweep.run(&engines);
        let path = journal_path("resume_corrupt");
        let _ = std::fs::remove_file(&path);
        let _ = sweep.resume(&engines, &path).unwrap();
        // Vandalize: garbage line, stale schema, duplicate of line 1,
        // then tear the final line.
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        let mut f = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"\xfe\xffgarbage\n").unwrap();
        f.write_all(b"{\"schema\": 0, \"key\": \"00\", \"record\": {}}\n").unwrap();
        f.write_all(format!("{}\n", lines[0]).as_bytes()).unwrap();
        f.write_all(&lines[1].as_bytes()[..lines[1].len() / 2]).unwrap();
        drop(f);
        let resumed = sweep.resume(&engines, &path).unwrap();
        assert_eq!(resumed.records, baseline);
        assert_eq!(resumed.resume_hits, 2, "both intact lines still replay");
        assert!(resumed.warnings.len() >= 3, "{:?}", resumed.warnings);
        // Compaction scrubbed the damage: the next resume is all hits.
        let clean = sweep.resume(&engines, &path).unwrap();
        assert_eq!(clean.resume_hits, baseline.len() as u64);
        assert!(clean.warnings.is_empty(), "{:?}", clean.warnings);
        let _ = std::fs::remove_file(&path);
    }

    /// Proptest-style sweep over every possible crash point: truncating
    /// the journal after any byte count still resumes to byte-identical
    /// records.
    #[test]
    fn resume_is_byte_identical_from_any_crash_point() {
        let engines: Vec<_> = default_registry().into_iter().filter(|e| e.slug == "eie").collect();
        let suite = demo_suite().into_iter().take(2).collect::<Vec<_>>();
        let sweep = Sweep::new(suite).with_seed(21).with_threads(1);
        let baseline = sweep.run(&engines);
        let path = journal_path("resume_crashpoints");
        let _ = std::fs::remove_file(&path);
        let _ = sweep.resume(&engines, &path).unwrap();
        let full = std::fs::read(&path).unwrap();
        // A deterministic spread of crash offsets, including both ends.
        let offsets: Vec<usize> =
            (0..=8).map(|i| i * full.len() / 8).chain([1, full.len() - 1]).collect();
        for cut in offsets {
            std::fs::write(&path, &full[..cut]).unwrap();
            let resumed = sweep.resume(&engines, &path).unwrap();
            assert_eq!(resumed.records, baseline, "crash at byte {cut}");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_outcome_counts_appends_and_hits() {
        let engines: Vec<_> = default_registry().into_iter().filter(|e| e.slug == "eie").collect();
        let suite = demo_suite().into_iter().take(2).collect::<Vec<_>>();
        let sweep = Sweep::new(suite).with_seed(2).with_threads(1);
        let path = journal_path("resume_telemetry");
        let _ = std::fs::remove_file(&path);
        let first = sweep.resume(&engines, &path).unwrap();
        assert_eq!((first.cells_executed, first.resume_hits), (2, 0));
        let second = sweep.resume(&engines, &path).unwrap();
        assert_eq!(second.cells_executed, 0, "second pass executes nothing");
        assert_eq!(second.resume_hits, 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn records_are_engine_major_and_verified() {
        let engines: Vec<_> = default_registry()
            .into_iter()
            .filter(|e| e.slug == "eie" || e.slug == "scnn")
            .collect();
        let suite = demo_suite().into_iter().take(2).collect::<Vec<_>>();
        let records = Sweep::new(suite.clone()).with_threads(2).run(&engines);
        assert_eq!(records.len(), engines.len() * suite.len());
        assert_eq!(records[0].engine_slug, "eie");
        assert_eq!(records[1].engine_slug, "eie");
        assert_eq!(records[2].engine_slug, "scnn");
        assert!(records.iter().all(|r| r.verified), "all demo runs verify");
        // Same workload -> same operands -> same seed for every engine.
        assert_eq!(records[0].seed, records[2].seed);
    }

    #[test]
    fn par_map_propagates_a_mid_pool_panic() {
        // One job out of many panics while the pool is saturated; the
        // original payload must surface from par_map, not a join error.
        let items: Vec<usize> = (0..32).collect();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            par_map(&items, 4, |_, &x| {
                assert_ne!(x, 17, "deliberate mid-pool panic");
                x
            })
        }));
        let payload = caught.expect_err("the panic must propagate");
        assert!(panic_message(payload.as_ref()).contains("deliberate mid-pool panic"));
    }

    #[test]
    fn par_map_clamps_threads_to_the_item_count() {
        // More workers than items: the clamp means no worker spins on an
        // empty index range, and order/results are unaffected.
        let items = [10usize, 20, 30];
        assert_eq!(par_map(&items, 64, |_, &x| x + 1), vec![11, 21, 31]);
        assert_eq!(par_map(&[42usize], 8, |i, &x| (i, x)), vec![(0, 42)]);
        // Zero requested threads degrades to serial, not a panic.
        assert_eq!(par_map(&items, 0, |_, &x| x), items.to_vec());
    }

    fn cache_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("sigma_sweep_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}_{}.cache", std::process::id()))
    }

    /// Tentpole acceptance: cold-cached, warm-cached, and uncached runs
    /// of the same sweep produce byte-identical records — and rendered
    /// CSV/JSON artifacts — while the warm run executes nothing.
    #[test]
    fn cached_sweep_is_byte_identical_to_uncached() {
        let engines: Vec<_> = default_registry()
            .into_iter()
            .filter(|e| e.slug == "eie" || e.slug == "scnn")
            .collect();
        let suite = demo_suite().into_iter().take(2).collect::<Vec<_>>();
        let cells = (engines.len() * suite.len()) as u64;
        let uncached = Sweep::new(suite.clone()).with_seed(13).with_threads(2).run(&engines);

        let path = cache_path("parity");
        let _ = std::fs::remove_file(&path);
        let cache = Arc::new(RunCache::open(&path, 64).unwrap());
        let sweep = Sweep::new(suite).with_seed(13).with_threads(2).with_cache(Arc::clone(&cache));

        let cold = sweep.run(&engines);
        assert_eq!(cold, uncached, "a cold cache must not perturb records");
        assert_eq!(cache.stats().misses, cells);
        assert_eq!(cache.stats().hits, 0);

        let warm = sweep.run(&engines);
        assert_eq!(warm, uncached, "a warm cache must replay bit-exactly");
        assert_eq!(cache.stats().hits, cells, "warm run is all hits");
        assert_eq!(cache.stats().misses, cells, "no new misses when warm");
        assert_eq!(
            crate::harness::record::records_to_json(&warm),
            crate::harness::record::records_to_json(&uncached)
        );
        assert_eq!(
            crate::harness::record::records_table("sweep", &warm).to_csv(),
            crate::harness::record::records_table("sweep", &uncached).to_csv()
        );

        // And the persisted store replays across a reopen, too.
        drop(sweep);
        drop(cache);
        let reopened = Arc::new(RunCache::open(&path, 64).unwrap());
        let rewarmed = Sweep::new(demo_suite().into_iter().take(2).collect())
            .with_seed(13)
            .with_threads(2)
            .with_cache(Arc::clone(&reopened))
            .run(&engines);
        assert_eq!(rewarmed, uncached);
        assert_eq!(reopened.stats().hits, cells, "reopened store served every cell");
        let _ = std::fs::remove_file(&path);
    }

    /// Flight-recorder acceptance: span/histogram counts reconcile with
    /// the grid (queue waits == engine runs == cells, materializations ==
    /// workloads), gauges land on their final
    /// values, and an *enabled* recorder does not perturb records.
    #[test]
    fn flight_recorder_spans_reconcile_with_the_grid() {
        use std::sync::atomic::AtomicU64;
        let engines: Vec<_> = default_registry()
            .into_iter()
            .filter(|e| e.slug == "eie" || e.slug == "scnn")
            .collect();
        let suite = demo_suite().into_iter().take(2).collect::<Vec<_>>();
        let cells = (engines.len() * suite.len()) as u64;
        let tick = Arc::new(AtomicU64::new(0));
        let clock = {
            let tick = Arc::clone(&tick);
            move || tick.fetch_add(7, Ordering::Relaxed)
        };
        let recorder = FlightRecorder::with_clock(4096, clock);
        let plain = Sweep::new(suite.clone()).with_seed(13).with_threads(2).run(&engines);
        let recorded = Sweep::new(suite)
            .with_seed(13)
            .with_threads(2)
            .with_flight_recorder(recorder.clone())
            .run(&engines);
        assert_eq!(recorded, plain, "an enabled recorder must not perturb records");
        let snap = recorder.snapshot();
        assert!(snap.enabled);
        assert_eq!(snap.dropped_spans, 0);
        assert_eq!(snap.stage("queue_wait").map_or(0, |h| h.count), cells);
        assert_eq!(snap.stage("engine_run").map_or(0, |h| h.count), cells);
        // One span per workload, plus at most one extra per racing
        // first-caller (the loser times its block on the winner).
        let materialized = snap.stage("materialize").map_or(0, |h| h.count);
        assert!(
            (2..=cells).contains(&materialized),
            "materializations {materialized} outside [2, {cells}]"
        );
        assert_eq!(recorder.gauge(Gauge::CellsTotal), cells);
        assert_eq!(recorder.gauge(Gauge::CellsCompleted), cells);
        assert!(!snap.snaps.is_empty(), "periodic snapshots were taken");
        // Every queue wait and engine run left a span in the buffer.
        assert!(snap.spans.len() as u64 >= 2 * cells);
    }

    /// A *disabled* recorder is the default: `with_flight_recorder(off)`
    /// is indistinguishable — records and rendered artifacts
    /// byte-identical — from never attaching one.
    #[test]
    fn disabled_recorder_is_byte_identical_to_no_recorder() {
        let engines: Vec<_> = default_registry().into_iter().filter(|e| e.slug == "eie").collect();
        let suite = demo_suite().into_iter().take(2).collect::<Vec<_>>();
        let plain = Sweep::new(suite.clone()).with_seed(23).with_threads(2).run(&engines);
        let off = Sweep::new(suite)
            .with_seed(23)
            .with_threads(2)
            .with_flight_recorder(FlightRecorder::off())
            .run(&engines);
        assert_eq!(off, plain);
        assert_eq!(
            crate::harness::record::records_to_json(&off),
            crate::harness::record::records_to_json(&plain)
        );
        assert_eq!(
            crate::harness::record::records_table("sweep", &off).to_csv(),
            crate::harness::record::records_table("sweep", &plain).to_csv()
        );
    }

    /// Resume consults the shared cache after its own journal: a warm
    /// cache means a fresh journal resumes without executing anything,
    /// and the journal still appends, and then persists, the full grid.
    #[test]
    fn resume_consults_the_cache_before_executing() {
        let engines: Vec<_> = default_registry().into_iter().filter(|e| e.slug == "eie").collect();
        let suite = demo_suite().into_iter().take(2).collect::<Vec<_>>();
        let baseline = Sweep::new(suite.clone()).with_seed(17).with_threads(1).run(&engines);

        let store = cache_path("resume_warm");
        let _ = std::fs::remove_file(&store);
        let cache = Arc::new(RunCache::open(&store, 64).unwrap());
        let sweep = Sweep::new(suite).with_seed(17).with_threads(1).with_cache(Arc::clone(&cache));
        let _ = sweep.run(&engines); // warm the cache
        let warm_hwm = cache.stats();

        let path = journal_path("resume_cached");
        let _ = std::fs::remove_file(&path);
        let outcome = sweep.resume(&engines, &path).unwrap();
        assert_eq!(outcome.records, baseline);
        assert_eq!(outcome.resume_hits, 0, "the journal was fresh");
        assert_eq!(outcome.cells_executed, 0, "cache hits are not re-executed");
        let journaled = std::fs::read_to_string(&path).unwrap().lines().count();
        assert_eq!(journaled, baseline.len(), "every cell was journaled");
        assert_eq!(
            cache.stats().hits,
            warm_hwm.hits + baseline.len() as u64,
            "every cell resolved as a cache hit"
        );
        // Compaction persisted the grid: the next resume is all journal hits.
        let replayed = sweep.resume(&engines, &path).unwrap();
        assert_eq!(replayed.resume_hits, baseline.len() as u64);
        assert_eq!(replayed.records, baseline);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&store);
    }

    /// A recorded resume runs the same loop as a recorded run: one
    /// queue-wait span per cell, one engine-run span per executed cell,
    /// and the completed-cells gauge at the grid size when it is done.
    #[test]
    fn recorded_resume_spans_every_cell_like_a_run() {
        use std::sync::atomic::AtomicU64;
        let engines: Vec<_> = default_registry()
            .into_iter()
            .filter(|e| e.slug == "eie" || e.slug == "scnn")
            .collect();
        let suite = demo_suite().into_iter().take(2).collect::<Vec<_>>();
        let cells = (engines.len() * suite.len()) as u64;
        let recorded = |recorder: &FlightRecorder| {
            Sweep::new(suite.clone())
                .with_seed(31)
                .with_threads(2)
                .with_flight_recorder(recorder.clone())
        };
        let ticking = || {
            let tick = Arc::new(AtomicU64::new(0));
            FlightRecorder::with_clock(4096, move || tick.fetch_add(7, Ordering::Relaxed))
        };
        let path = journal_path("resume_recorded");
        let _ = std::fs::remove_file(&path);

        let fresh = ticking();
        let first = recorded(&fresh).resume(&engines, &path).unwrap();
        assert_eq!(first.cells_executed, cells);
        let snap = fresh.snapshot();
        assert_eq!(snap.stage("queue_wait").map_or(0, |h| h.count), cells);
        assert_eq!(snap.stage("engine_run").map_or(0, |h| h.count), cells);
        assert_eq!(fresh.gauge(Gauge::CellsCompleted), cells);
        assert_eq!(fresh.gauge(Gauge::CellsTotal), cells);
        assert!(snap.snaps.len() > 1, "periodic snapshots were taken");

        // A partial journal: every cell still waits in the queue once,
        // and only the cells the journal lacked run their engine.
        let text = std::fs::read_to_string(&path).unwrap();
        let keep: String = text.lines().take(1).map(|l| format!("{l}\n")).collect();
        std::fs::write(&path, keep).unwrap();
        let partial = ticking();
        let resumed = recorded(&partial).resume(&engines, &path).unwrap();
        assert_eq!((resumed.resume_hits, resumed.cells_executed), (1, cells - 1));
        assert_eq!(resumed.records, first.records);
        let snap = partial.snapshot();
        assert_eq!(snap.stage("queue_wait").map_or(0, |h| h.count), cells);
        assert_eq!(snap.stage("engine_run").map_or(0, |h| h.count), cells - 1);
        assert_eq!(partial.gauge(Gauge::CellsCompleted), cells);
        let _ = std::fs::remove_file(&path);
    }
}
