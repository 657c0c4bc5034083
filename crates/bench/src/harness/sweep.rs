//! The parallel sweep driver: a workload suite fanned across a fleet of
//! engines on scoped threads.
//!
//! Determinism contract: operands are materialized up front from seeds
//! derived only from the sweep seed and the workload index, jobs are
//! indexed `engine-major x workload-minor`, and [`par_map`] returns
//! results in job order regardless of thread count — so a parallel sweep
//! is byte-identical to a serial one.
//!
//! Degradation contract: each (engine, workload) cell runs on its own
//! watchdog thread behind `catch_unwind`, so a panicking engine yields a
//! `status=panic` record, a wedged engine yields `status=timeout` once
//! the budget lapses, and every other cell is unaffected — a sweep never
//! dies because one engine does. On timeout the watchdog first cancels
//! the cell's [`CancelToken`] and waits a bounded grace period:
//! cooperative engines (the SIGMA simulator polls the token at fold
//! boundaries) return promptly and the worker thread is *joined*, so the
//! live-thread count stays bounded no matter how many cells time out.
//! Only a non-cooperative engine (one that never polls, like
//! [`WedgingEngine`]) leaves its thread running detached until it
//! returns on its own — Rust has no safe forced thread cancellation.
//! A cell whose budget lapses *twice* is degraded: the sweep reruns it
//! on the analytic SIGMA model and records `status=degraded` with the
//! fallback's numbers, so a sweep always terminates with a full grid.
//!
//! Crash-safety contract: [`Sweep::resume`] drives the same grid through
//! a write-ahead journal — a [`RunCache`] store that never evicts —
//! completed cells replay from disk, missing cells run and are appended
//! durably, and its final records are byte-identical to an uninterrupted
//! [`Sweep::run`].
//!
//! [`WedgingEngine`]: crate::harness::chaos::WedgingEngine

use crate::harness::analytic::SigmaAnalytic;
use crate::harness::cache::{CellKey, Lookup, RunCache};
use crate::harness::record::{CellProfile, RunRecord, RunStatus};
use crate::harness::registry::EngineEntry;
use sigma_baselines::AnalyticEngine;
use sigma_core::model::GemmProblem;
use sigma_core::{CancelToken, Engine, EngineError, EngineRun};
use sigma_matrix::{GemmShape, Matrix, SparseMatrix};
use sigma_telemetry::{FlightRecorder, Gauge, Stage};
use sigma_workloads::materialize;
use std::io::IsTerminal;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Once, OnceLock};
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

/// Name given to per-cell watchdog threads; the quiet panic hook keys
/// off it so deliberate chaos-engine panics don't spam stderr.
const CELL_THREAD_NAME: &str = "sweep-cell";

/// Installs (once per process) a panic hook that suppresses the default
/// backtrace printout for panics on [`CELL_THREAD_NAME`] threads — those
/// panics are caught, recorded as `status=panic`, and surfaced in the
/// record's `error` column instead. All other threads keep the previous
/// hook's behavior.
fn install_quiet_panic_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if std::thread::current().name() != Some(CELL_THREAD_NAME) {
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

/// How one attempt at one (engine, workload) cell ended.
enum CellOutcome {
    /// The engine returned a run.
    Done(Box<EngineRun>),
    /// The cell failed; carry the status and a message for the record.
    Failed(RunStatus, String),
}

/// Cell worker threads currently alive (spawned and not yet exited),
/// across every sweep in the process.
static LIVE_CELL_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Decrements the live-thread counters when a cell worker exits, however
/// it exits (normal return, caught panic, cancellation).
struct LiveThreadGuard {
    local: Arc<AtomicUsize>,
}

impl LiveThreadGuard {
    fn enter(local: &Arc<AtomicUsize>) -> Self {
        LIVE_CELL_THREADS.fetch_add(1, Ordering::SeqCst);
        local.fetch_add(1, Ordering::SeqCst);
        Self { local: Arc::clone(local) }
    }
}

impl Drop for LiveThreadGuard {
    fn drop(&mut self) {
        LIVE_CELL_THREADS.fetch_sub(1, Ordering::SeqCst);
        self.local.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Cell worker threads currently alive across the whole process.
///
/// After a sweep over cooperative engines returns, this settles back to
/// its pre-sweep value even when cells timed out — the watchdog cancels
/// and joins them. Only non-cooperative engines (never polling their
/// [`CancelToken`]) can hold it elevated.
#[must_use]
pub fn live_cell_threads() -> usize {
    LIVE_CELL_THREADS.load(Ordering::SeqCst)
}

/// Runs one attempt of `engine` on `(a, b)` on a dedicated watchdog
/// thread, converting panics and budget overruns into [`CellOutcome`]s.
///
/// On a budget overrun the watchdog cancels the cell's [`CancelToken`]
/// and waits up to `grace` for the engine to notice (cooperative engines
/// poll at fold boundaries), joining the thread instead of leaking it.
/// The cell is recorded `timeout` either way — the budget was exceeded —
/// so cancellation changes resource usage, never records.
fn attempt_cell(
    engine: &Arc<dyn Engine>,
    a: &Arc<SparseMatrix>,
    b: &Arc<SparseMatrix>,
    budget: Option<Duration>,
    grace: Duration,
    live: &Arc<AtomicUsize>,
    flight: (&FlightRecorder, &str),
) -> CellOutcome {
    let (recorder, label) = flight;
    install_quiet_panic_hook();
    let engine = Arc::clone(engine);
    let (a, b) = (Arc::clone(a), Arc::clone(b));
    let cancel = CancelToken::new();
    let token = cancel.clone();
    let live = Arc::clone(live);
    let (tx, rx) = mpsc::channel();
    let spawned = std::thread::Builder::new().name(CELL_THREAD_NAME.to_string()).spawn(move || {
        let _guard = LiveThreadGuard::enter(&live);
        let outcome = catch_unwind(AssertUnwindSafe(|| engine.run_cancellable(&a, &b, &token)));
        // The receiver may have given up (timeout); a failed send is fine.
        let _ = tx.send(outcome);
    });
    if spawned.is_err() {
        return CellOutcome::Failed(RunStatus::Error, "could not spawn watchdog thread".into());
    }
    let received = match budget {
        Some(budget) => match rx.recv_timeout(budget) {
            Ok(outcome) => outcome,
            Err(_) => {
                // Budget exceeded: ask the engine to stop at its next
                // fold boundary, then wait a grace period so cooperative
                // engines' threads are reaped rather than leaked. The
                // flight-recorder span covers cancel-to-reap (or grace
                // expiry), i.e. how long the watchdog actually waited.
                let t0 = recorder.now_us();
                cancel.cancel();
                let _ = rx.recv_timeout(grace);
                recorder.span_since(Stage::WatchdogCancel, label, t0);
                let budget_ms = u64::try_from(budget.as_millis()).unwrap_or(u64::MAX);
                let msg = EngineError::Timeout { budget_ms }.to_string();
                return CellOutcome::Failed(RunStatus::Timeout, msg);
            }
        },
        None => match rx.recv() {
            Ok(outcome) => outcome,
            // Only reachable if the cell thread died without sending.
            Err(_) => return CellOutcome::Failed(RunStatus::Panic, "cell thread died".into()),
        },
    };
    match received {
        Ok(Ok(run)) => CellOutcome::Done(Box::new(run)),
        Ok(Err(e)) => CellOutcome::Failed(RunStatus::Error, e.to_string()),
        Err(payload) => CellOutcome::Failed(RunStatus::Panic, panic_message(payload.as_ref())),
    }
}

/// A deterministic (engine x workload) sweep.
#[derive(Debug, Clone)]
pub struct Sweep {
    workloads: Vec<WorkloadSpec>,
    seed: u64,
    threads: usize,
    budget: Option<Duration>,
    retries: u32,
    backoff: Duration,
    cancel_grace: Duration,
    recorder: FlightRecorder,
    live: Arc<AtomicUsize>,
    cache: Option<Arc<RunCache>>,
}

impl Sweep {
    /// Creates a sweep over `workloads` with the default seed, a thread
    /// count taken from the machine (capped at 8), a 30 s per-cell
    /// watchdog budget, and no retries.
    #[must_use]
    pub fn new(workloads: Vec<WorkloadSpec>) -> Self {
        let threads =
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get).min(8);
        Self {
            workloads,
            seed: 0x0053_4947_4d41,
            threads,
            budget: Some(Duration::from_secs(30)),
            retries: 0,
            backoff: Duration::from_millis(25),
            cancel_grace: Duration::from_millis(250),
            recorder: FlightRecorder::off(),
            live: Arc::new(AtomicUsize::new(0)),
            cache: None,
        }
    }

    /// Cell worker threads of *this* sweep (and its clones) currently
    /// alive. After a run over cooperative engines this settles back to
    /// zero even when cells timed out — the watchdog cancels and joins
    /// them; see the free function [`live_cell_threads`] for the
    /// process-wide count.
    #[must_use]
    pub fn live_threads(&self) -> usize {
        self.live.load(Ordering::SeqCst)
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

    /// Overrides the per-cell watchdog budget (`None` = wait forever).
    #[must_use]
    pub fn with_budget(mut self, budget: Option<Duration>) -> Self {
        self.budget = budget;
        self
    }

    /// Allows up to `retries` extra attempts for a cell that panicked,
    /// errored, or timed out (the record keeps the *last* outcome).
    ///
    /// Retries are spaced by deterministic seeded exponential backoff
    /// (see [`Sweep::with_backoff`]), and a cell whose budget lapses on
    /// two attempts is degraded to the analytic model instead of burning
    /// further budget (`status=degraded`).
    #[must_use]
    pub fn with_retries(mut self, retries: u32) -> Self {
        self.retries = retries;
        self
    }

    /// Overrides the base retry backoff (default 25 ms; `Duration::ZERO`
    /// disables sleeping entirely).
    ///
    /// Attempt `n`'s delay is `backoff * 2^(n-1)` (exponent capped at 5)
    /// plus a jitter in `[0, backoff)` derived deterministically from
    /// the sweep seed and the cell's coordinates — so two runs of the
    /// same sweep back off identically, but a fleet of flaky cells does
    /// not retry in lockstep.
    #[must_use]
    pub fn with_backoff(mut self, backoff: Duration) -> Self {
        self.backoff = backoff;
        self
    }

    /// Overrides the post-cancellation grace period (default 250 ms) the
    /// watchdog waits for a timed-out engine to notice its
    /// [`CancelToken`] before detaching the thread.
    #[must_use]
    pub fn with_cancel_grace(mut self, grace: Duration) -> Self {
        self.cancel_grace = grace;
        self
    }

    /// Attaches a [`FlightRecorder`], the sweep's only wall clock:
    /// watchdogged attempts, retry backoffs, watchdog cancellations,
    /// operand materializations, and queue waits are recorded as
    /// thread-tagged spans and per-stage latency histograms, the sweep
    /// maintains the `cells_total` / `cells_completed` /
    /// `live_cell_threads` gauges (plus `cache_entries` when a cache is
    /// attached) with periodic snapshots, and a live one-line progress
    /// counter goes to stderr. Records never carry wall time, so they —
    /// and their rendered CSV/JSON — are byte-identical with the
    /// recorder on, off, or never attached.
    /// [`SweepProfile`](crate::harness::profile::SweepProfile) folds the
    /// records and the recorder's snapshot into a timing summary.
    ///
    /// The recorder's clock is injected by the caller (the `sigma_cli`
    /// harness passes a monotonic epoch), keeping wall-clock reads out
    /// of determinism-critical library crates.
    #[must_use]
    pub fn with_flight_recorder(mut self, recorder: FlightRecorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// The attached flight recorder (disabled unless
    /// [`Sweep::with_flight_recorder`] was called).
    #[must_use]
    pub fn flight_recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Attaches a shared content-addressed [`RunCache`]: every cell
    /// probes it before executing (a verified hit replaces the
    /// simulation with one map lookup), executed cells are inserted,
    /// and identical in-flight cells — here or in any concurrent sweep
    /// sharing the cache — coalesce onto one executor. Records are
    /// byte-identical to an uncached run by key construction: the
    /// [`CellKey`] covers every result-affecting knob, so a hit can
    /// only serve the bytes the engine would have produced.
    #[must_use]
    pub fn with_cache(mut self, cache: Arc<RunCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Detaches any attached run cache (cells always execute).
    #[must_use]
    pub fn without_cache(mut self) -> Self {
        self.cache = None;
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
        self.execute(engines, self.threads)
    }

    /// Serial variant of [`Sweep::run`] — same records, one thread.
    #[must_use]
    pub fn run_serial(&self, engines: &[EngineEntry]) -> Vec<RunRecord> {
        self.execute(engines, 1)
    }

    /// Resumes (or starts) a journaled sweep: cells whose key is already
    /// in the journal at `journal_path` replay from disk, missing cells
    /// run and are appended durably as they complete, and the journal is
    /// compacted atomically at the end. The returned records are
    /// byte-identical to an uninterrupted [`Sweep::run`] — a sweep
    /// killed at *any* point loses at most its in-flight cells.
    ///
    /// The journal is a [`RunCache`] store that never evicts and
    /// memoizes every cell, whatever its status, so it is probed first;
    /// an attached shared cache is probed second and, as in
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
        let prepared = self.prepare();
        let jobs = self.jobs(engines);
        let executed = AtomicU64::new(0);
        let results: Vec<(RunRecord, bool)> = par_map(&jobs, self.threads, |_, &(ei, wi)| {
            let (entry, w, lazy) = (&engines[ei], &self.workloads[wi], &prepared[wi]);
            let key = CellKey::for_engine(&entry.slug, entry.engine.as_ref(), w, lazy.seed);
            match journal.lookup(&key) {
                Lookup::Hit(done) => (*done, true),
                Lookup::Miss(lease) => {
                    let (record, ran) = self.run_cell_cached(entry, ei, wi, w, lazy);
                    executed.fetch_add(u64::from(ran), Ordering::Relaxed);
                    // Append (and fsync) before reporting the cell
                    // complete: once a record is visible to the caller it
                    // must survive a SIGKILL. An append failure degrades
                    // to a warning — the cell just re-runs next time.
                    lease.fulfill(&record);
                    (record, false)
                }
            }
        });
        // Resume has no live progress line; still leave one final gauge
        // sample so a recorded resume renders counter tracks.
        self.recorder.gauge_set(Gauge::CellsTotal, jobs.len() as u64);
        self.recorder.gauge_set(Gauge::CellsCompleted, jobs.len() as u64);
        self.recorder.snap();
        let resume_hits = results.iter().filter(|(_, hit)| *hit).count() as u64;
        let records: Vec<RunRecord> = results.into_iter().map(|(r, _)| r).collect();
        let degraded_cells =
            records.iter().filter(|r| r.status == RunStatus::Degraded).count() as u64;
        let journal_appends = executed.into_inner();
        // Rewrite the journal to exactly the final grid: duplicates,
        // skipped garbage, and torn tails are dropped.
        journal.compact()?;
        let warnings = journal.warnings();
        Ok(ResumeOutcome { records, journal_appends, resume_hits, degraded_cells, warnings })
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

    /// Deterministic backoff before retry attempt `attempt` (the second
    /// execution is attempt 2): exponential in the attempt number with
    /// seeded jitter, a pure function of (sweep seed, cell coordinates,
    /// attempt).
    fn backoff_delay(&self, ei: usize, wi: usize, attempt: u32) -> Duration {
        if self.backoff.is_zero() {
            return Duration::ZERO;
        }
        let exp = 2u32.saturating_pow(attempt.saturating_sub(2).min(5));
        let base = self.backoff.saturating_mul(exp);
        let cell_seed = self.seed ^ ((ei as u64) << 32) ^ (wi as u64);
        let jitter_span = u64::try_from(self.backoff.as_nanos()).unwrap_or(u64::MAX).max(1);
        let jitter_ns = derive_seed(cell_seed, u64::from(attempt)) % jitter_span;
        base.saturating_add(Duration::from_nanos(jitter_ns))
    }

    /// Runs one (engine, workload) cell to a final record: watchdogged
    /// attempts with deterministic backoff between them, then — if the
    /// budget lapsed on two or more attempts — the graceful-degradation
    /// ladder onto the analytic SIGMA model.
    fn run_cell(
        &self,
        entry: &EngineEntry,
        ei: usize,
        wi: usize,
        w: &WorkloadSpec,
        input: &Prepared,
    ) -> RunRecord {
        // The span label is only built when the recorder is on, so a
        // recorder-free cell allocates nothing extra.
        let owned_label = self.recorder.is_enabled().then(|| format!("{}: {}", entry.slug, w.name));
        let label = owned_label.as_deref().unwrap_or("");
        let mut t0 = self.recorder.now_us();
        let mut outcome = attempt_cell(
            &entry.engine,
            &input.a,
            &input.b,
            self.budget,
            self.cancel_grace,
            &self.live,
            (&self.recorder, label),
        );
        self.recorder.span_since(Stage::EngineRun, label, t0);
        let mut attempts: u32 = 1;
        let mut timeouts = u32::from(matches!(outcome, CellOutcome::Failed(RunStatus::Timeout, _)));
        while attempts <= self.retries && matches!(outcome, CellOutcome::Failed(..)) {
            attempts += 1;
            t0 = self.recorder.now_us();
            std::thread::sleep(self.backoff_delay(ei, wi, attempts));
            self.recorder.span_since(Stage::RetryBackoff, label, t0);
            t0 = self.recorder.now_us();
            outcome = attempt_cell(
                &entry.engine,
                &input.a,
                &input.b,
                self.budget,
                self.cancel_grace,
                &self.live,
                (&self.recorder, label),
            );
            self.recorder.span_since(Stage::EngineRun, label, t0);
            timeouts += u32::from(matches!(outcome, CellOutcome::Failed(RunStatus::Timeout, _)));
        }
        // Graceful degradation: a cell that exhausted its budget twice
        // is not going to finish — rerun it on the analytic model so the
        // sweep still terminates with a full grid. The record keeps the
        // original engine's slug (the grid cell), carries the fallback's
        // name and numbers, and is marked `degraded`.
        let mut degraded_from = None;
        if timeouts >= 2 {
            if let CellOutcome::Failed(RunStatus::Timeout, msg) = &outcome {
                let fallback: Arc<dyn Engine> =
                    Arc::new(AnalyticEngine::new(SigmaAnalytic::paper()));
                let tf = self.recorder.now_us();
                let fb = attempt_cell(
                    &fallback,
                    &input.a,
                    &input.b,
                    self.budget,
                    self.cancel_grace,
                    &self.live,
                    (&self.recorder, label),
                );
                self.recorder.span_since(Stage::EngineRun, label, tf);
                if let CellOutcome::Done(run) = fb {
                    degraded_from =
                        Some((format!("{msg}; degraded to analytic fallback"), fallback));
                    attempts += 1;
                    outcome = CellOutcome::Done(run);
                }
            }
        }
        // The operand footprint is derived from nnz alone, so it is
        // deterministic.
        let profile =
            CellProfile { attempts, mem_est_bytes: operand_footprint_bytes(&input.a, &input.b) };
        match outcome {
            CellOutcome::Done(run) => {
                let (name, pes) = match &degraded_from {
                    Some((_, fallback)) => (fallback.name(), fallback.pes()),
                    None => (entry.engine.name(), entry.engine.pes()),
                };
                let max_abs_err = f64::from(run.result.max_abs_diff(&input.reference));
                let verified = run.result.approx_eq(&input.reference, input.tol);
                let mut record = RunRecord::from_run(
                    &entry.slug,
                    &name,
                    pes,
                    &w.name,
                    &w.problem,
                    input.seed,
                    &run,
                    max_abs_err,
                    verified,
                    profile,
                );
                if let Some((why, _)) = degraded_from {
                    record.status = RunStatus::Degraded;
                    record.error = Some(why);
                }
                record
            }
            CellOutcome::Failed(status, msg) => RunRecord::from_failure(
                &entry.slug,
                &entry.engine.name(),
                entry.engine.pes(),
                &w.name,
                &w.problem,
                input.seed,
                status,
                msg,
                profile,
            ),
        }
    }

    fn execute(&self, engines: &[EngineEntry], threads: usize) -> Vec<RunRecord> {
        let prepared = self.prepare();
        let jobs = self.jobs(engines);
        let total = jobs.len();
        let completed = AtomicUsize::new(0);
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
        par_map(&jobs, threads, |_, &(ei, wi)| {
            let entry = &engines[ei];
            let w = &self.workloads[wi];
            if self.recorder.is_enabled() {
                let label = format!("{}: {}", entry.slug, w.name);
                self.recorder.span_since(Stage::QueueWait, &label, dispatched_us);
            }
            let (record, _) = self.run_cell_cached(entry, ei, wi, w, &prepared[wi]);
            if self.recorder.is_enabled() {
                let done = completed.fetch_add(1, Ordering::Relaxed) + 1;
                self.recorder.gauge_set(Gauge::CellsCompleted, done as u64);
                self.recorder
                    .gauge_set(Gauge::LiveCellThreads, self.live.load(Ordering::SeqCst) as u64);
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
        })
    }

    /// Runs one cell through the attached [`RunCache`], if any: probe
    /// first (coalescing with any identical in-flight cell), execute on
    /// a miss, and memoize the result. Only `ok` records are inserted —
    /// a panic/timeout/error record would pin a transient failure, so
    /// those cells re-execute every time (the abandoned lease hands
    /// execution to any coalesced waiter). A hit returns before the
    /// workload's operands are ever materialized. The flag is whether
    /// the cell executed (false for a hit).
    fn run_cell_cached(
        &self,
        entry: &EngineEntry,
        ei: usize,
        wi: usize,
        w: &WorkloadSpec,
        lazy: &LazyPrepared,
    ) -> (RunRecord, bool) {
        let Some(cache) = &self.cache else {
            return (self.run_cell(entry, ei, wi, w, self.force_timed(lazy, w)), true);
        };
        let key = CellKey::for_engine(&entry.slug, entry.engine.as_ref(), w, lazy.seed);
        match cache.lookup(&key) {
            Lookup::Hit(record) => (*record, false),
            Lookup::Miss(lease) => {
                let record = self.run_cell(entry, ei, wi, w, self.force_timed(lazy, w));
                if record.status == RunStatus::Ok {
                    lease.fulfill(&record);
                }
                (record, true)
            }
        }
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
    a: Arc<SparseMatrix>,
    b: Arc<SparseMatrix>,
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
            Prepared { seed: self.seed, a: Arc::new(a), b: Arc::new(b), reference, tol }
        })
    }
}

/// What [`Sweep::resume`] produced, beyond the records themselves.
#[derive(Debug)]
pub struct ResumeOutcome {
    /// The full grid, engine-major — byte-identical to [`Sweep::run`].
    pub records: Vec<RunRecord>,
    /// Cells executed (and durably journaled) by *this* invocation.
    pub journal_appends: u64,
    /// Cells replayed from the journal instead of re-executed.
    pub resume_hits: u64,
    /// Cells (replayed or fresh) that degraded to the analytic model.
    pub degraded_cells: u64,
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
        assert_eq!(sweep.run(&engines), sweep.run_serial(&engines));
    }

    /// The acceptance scenario: the full 11-engine registry plus one
    /// deliberately panicking and one deliberately wedged engine. The
    /// sweep completes, those cells (and only those) report
    /// `status=panic` / `status=timeout`, and every healthy cell is
    /// byte-identical to a chaos-free sweep.
    #[test]
    fn chaos_engines_degrade_to_status_rows_without_poisoning_the_sweep() {
        use crate::harness::chaos::{PanickingEngine, WedgingEngine};
        let clean = default_registry();
        let mut fleet = default_registry();
        fleet.push(EngineEntry::new("chaos-panic", Box::new(PanickingEngine)));
        fleet.push(EngineEntry::new(
            "chaos-wedge",
            Box::new(WedgingEngine::new(Duration::from_secs(60))),
        ));
        let suite = demo_suite().into_iter().take(2).collect::<Vec<_>>();
        let workloads = suite.len();
        let sweep = Sweep::new(suite).with_threads(4).with_budget(Some(Duration::from_secs(2)));
        let records = sweep.run(&fleet);
        let baseline = sweep.run(&clean);
        assert_eq!(records.len(), (clean.len() + 2) * workloads);
        for r in &records {
            match r.engine_slug.as_str() {
                "chaos-panic" => {
                    assert_eq!(r.status, RunStatus::Panic, "{}", r.workload);
                    assert!(r.error.as_deref().unwrap().contains("deliberate panic"));
                }
                "chaos-wedge" => {
                    assert_eq!(r.status, RunStatus::Timeout, "{}", r.workload);
                    assert!(r.error.as_deref().unwrap().contains("watchdog"));
                }
                _ => assert_eq!(r.status, RunStatus::Ok, "{}", r.engine_slug),
            }
        }
        // The healthy cells are byte-identical to a chaos-free sweep.
        let ok_rows: Vec<_> =
            records.iter().filter(|r| r.status == RunStatus::Ok).cloned().collect();
        assert_eq!(ok_rows, baseline);
    }

    #[test]
    fn retries_recover_flaky_cells() {
        use crate::harness::chaos::FlakyEngine;
        let suite = vec![demo_suite().remove(0)];
        let flaky_fleet = || vec![EngineEntry::new("chaos-flaky", Box::new(FlakyEngine::new(2)))];
        let no_retry = Sweep::new(suite.clone()).with_threads(1).run(&flaky_fleet());
        assert_eq!(no_retry[0].status, RunStatus::Panic);
        let with_retry = Sweep::new(suite).with_threads(1).with_retries(2).run(&flaky_fleet());
        assert_eq!(with_retry[0].status, RunStatus::Ok);
        assert!(with_retry[0].verified);
    }

    #[test]
    fn backoff_delays_are_deterministic_and_exponential() {
        let sweep = Sweep::new(demo_suite()).with_seed(3);
        let d2 = sweep.backoff_delay(1, 2, 2);
        let d3 = sweep.backoff_delay(1, 2, 3);
        let d4 = sweep.backoff_delay(1, 2, 4);
        // Pure function of (seed, cell, attempt).
        assert_eq!(d2, sweep.backoff_delay(1, 2, 2));
        // Exponential envelope: attempt n's base doubles, jitter < base.
        assert!(d3 > d2, "{d3:?} vs {d2:?}");
        assert!(d4 > d3, "{d4:?} vs {d3:?}");
        assert!(d4 < Duration::from_millis(25 * 4 + 25));
        // Different cells jitter differently (with overwhelming odds).
        let other = Sweep::new(demo_suite()).with_seed(3).backoff_delay(0, 0, 2);
        assert_ne!(d2, other);
        // Zero base disables sleeping entirely.
        let quiet = Sweep::new(demo_suite()).with_backoff(Duration::ZERO);
        assert_eq!(quiet.backoff_delay(1, 2, 2), Duration::ZERO);
    }

    /// Satellite 1 acceptance: N cooperative timeouts leave no lingering
    /// watchdog threads — the cancel + grace join reaps every one.
    #[test]
    fn cooperative_timeouts_leave_a_bounded_thread_count() {
        use crate::harness::chaos::SpinningEngine;
        let fleet = vec![
            EngineEntry::new("chaos-spin-a", Box::new(SpinningEngine::default())),
            EngineEntry::new("chaos-spin-b", Box::new(SpinningEngine::default())),
        ];
        let suite = demo_suite().into_iter().take(3).collect::<Vec<_>>();
        let cells = fleet.len() * suite.len();
        let sweep = Sweep::new(suite)
            .with_threads(2)
            .with_budget(Some(Duration::from_millis(50)))
            .with_cancel_grace(Duration::from_secs(2));
        let records = sweep.run(&fleet);
        assert_eq!(records.len(), cells);
        assert!(records.iter().all(|r| r.status == RunStatus::Timeout));
        // Every worker was joined within its grace period; allow a brief
        // scheduling window for the last guard to drop. (The per-sweep
        // counter is used because concurrently running tests park their
        // own — deliberately non-cooperative — threads in the global one.)
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while sweep.live_threads() > 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(sweep.live_threads(), 0, "timed-out cooperative cells must be reaped");
    }

    /// Tentpole acceptance: a cell that exhausts its budget twice falls
    /// back to the analytic model and is recorded `degraded`, with the
    /// fallback's name and numbers under the original engine's slug.
    #[test]
    fn repeated_timeouts_degrade_to_the_analytic_model() {
        use crate::harness::chaos::SpinningEngine;
        let fleet = vec![EngineEntry::new("chaos-spin", Box::new(SpinningEngine::default()))];
        let suite = vec![demo_suite().remove(0)];
        let records = Sweep::new(suite)
            .with_threads(1)
            .with_budget(Some(Duration::from_millis(40)))
            .with_cancel_grace(Duration::from_secs(2))
            .with_retries(1)
            .with_backoff(Duration::ZERO)
            .run(&fleet);
        let r = &records[0];
        assert_eq!(r.status, RunStatus::Degraded);
        assert_eq!(r.engine_slug, "chaos-spin", "grid cell keeps the original slug");
        assert!(r.engine.contains("[analytic]"), "{}", r.engine);
        assert!(r.error.as_deref().unwrap_or("").contains("degraded to analytic fallback"));
        assert_eq!(r.attempts, 3, "two budgeted attempts plus the fallback");
        assert!(r.verified, "the analytic fallback computes the real product");
        assert!(r.total_cycles > 0, "the record carries the fallback's numbers");
        // Without retries there is a single timeout attempt: no ladder.
        let single = Sweep::new(vec![demo_suite().remove(0)])
            .with_threads(1)
            .with_budget(Some(Duration::from_millis(40)))
            .with_cancel_grace(Duration::from_secs(2))
            .run(&fleet);
        assert_eq!(single[0].status, RunStatus::Timeout);
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
        assert_eq!(first.journal_appends, baseline.len() as u64);
        assert_eq!(first.resume_hits, 0);
        assert!(first.warnings.is_empty(), "{:?}", first.warnings);

        // Second resume: everything replays, nothing re-executes.
        let second = sweep.resume(&engines, &path).unwrap();
        assert_eq!(second.records, baseline);
        assert_eq!(second.journal_appends, 0);
        assert_eq!(second.resume_hits, baseline.len() as u64);

        // Simulated crash: keep only a prefix of the journal (as a
        // SIGKILL mid-sweep would), resume, and demand byte-identity —
        // including the rendered CSV/JSON artifacts.
        let text = std::fs::read_to_string(&path).unwrap();
        let keep: String = text.lines().take(2).map(|l| format!("{l}\n")).collect();
        std::fs::write(&path, keep).unwrap();
        let resumed = sweep.resume(&engines, &path).unwrap();
        assert_eq!(resumed.resume_hits, 2);
        assert_eq!(resumed.journal_appends, baseline.len() as u64 - 2);
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
    fn resume_outcome_counts_appends_hits_and_degradations() {
        let engines: Vec<_> = default_registry().into_iter().filter(|e| e.slug == "eie").collect();
        let suite = demo_suite().into_iter().take(2).collect::<Vec<_>>();
        let sweep = Sweep::new(suite).with_seed(2).with_threads(1);
        let path = journal_path("resume_telemetry");
        let _ = std::fs::remove_file(&path);
        let first = sweep.resume(&engines, &path).unwrap();
        assert_eq!((first.journal_appends, first.resume_hits), (2, 0));
        let second = sweep.resume(&engines, &path).unwrap();
        assert_eq!(second.journal_appends, 0, "second pass appends nothing");
        assert_eq!(second.resume_hits, 2);
        assert_eq!(second.degraded_cells, 0);
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

    #[test]
    fn par_map_jobs_observe_cancellation_at_cell_boundaries() {
        // Sweep cells poll a CancelToken at fold boundaries; model that
        // contract directly: job 3 trips a shared token, and every job
        // scheduled after the trip skips its work. par_map itself must
        // still return a full, input-ordered result vector.
        let token = CancelToken::new();
        let items: Vec<usize> = (0..24).collect();
        let results = par_map(&items, 2, |_, &x| {
            if x == 3 {
                token.cancel();
            }
            if token.is_cancelled() {
                None
            } else {
                Some(x)
            }
        });
        assert_eq!(results.len(), items.len(), "cancellation skips work, never drops slots");
        assert_eq!(results[3], None, "the cancelling job observes its own trip");
        let after_trip = &results[4..];
        assert!(
            after_trip.iter().filter(|r| r.is_none()).count() >= after_trip.len() - 1,
            "jobs claimed after the trip see the cancelled token (at most one was in flight)"
        );
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

    /// Tentpole acceptance: identical cells scheduled concurrently in
    /// one grid execute exactly once — duplicates resolve as hits or
    /// in-flight coalesces, never as recomputation.
    #[test]
    fn duplicate_cells_in_one_sweep_execute_exactly_once() {
        let mut fleet: Vec<_> =
            default_registry().into_iter().filter(|e| e.slug == "eie").collect();
        let twin = Arc::clone(&fleet[0].engine);
        // Same slug + same engine => identical CellKey for every workload.
        fleet.push(EngineEntry { slug: "eie".into(), engine: Arc::clone(&twin) });
        fleet.push(EngineEntry { slug: "eie".into(), engine: twin });
        let suite = demo_suite().into_iter().take(2).collect::<Vec<_>>();
        let unique = suite.len() as u64;
        let total = (fleet.len() * suite.len()) as u64;

        let path = cache_path("dedup");
        let _ = std::fs::remove_file(&path);
        let cache = Arc::new(RunCache::open(&path, 64).unwrap());
        let records = Sweep::new(suite)
            .with_seed(29)
            .with_threads(4)
            .with_cache(Arc::clone(&cache))
            .run(&fleet);
        assert_eq!(records.len(), total as usize);
        let stats = cache.stats();
        assert_eq!(stats.misses, unique, "each unique cell executes exactly once");
        assert_eq!(stats.insertions, unique);
        assert_eq!(
            stats.hits + stats.coalesced,
            total - unique,
            "every duplicate was served from the cache or an in-flight lease"
        );
        // Triplicate rows are bit-identical — they are the same record.
        assert_eq!(records[0], records[2]);
        assert_eq!(records[0], records[4]);
        let _ = std::fs::remove_file(&path);
    }

    /// Flight-recorder acceptance: span/histogram counts reconcile with
    /// the grid (queue waits == cells, engine runs == total attempts,
    /// materializations == workloads), gauges land on their final
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
        let attempts: u64 = recorded.iter().map(|r| u64::from(r.attempts)).sum();
        assert_eq!(snap.stage("engine_run").map_or(0, |h| h.count), attempts);
        // One span per workload, plus at most one extra per racing
        // first-caller (the loser times its block on the winner).
        let materialized = snap.stage("materialize").map_or(0, |h| h.count);
        assert!(
            (2..=cells).contains(&materialized),
            "materializations {materialized} outside [2, {cells}]"
        );
        assert_eq!(snap.stage("retry_backoff").map_or(0, |h| h.count), 0, "no retries happened");
        assert_eq!(recorder.gauge(Gauge::CellsTotal), cells);
        assert_eq!(recorder.gauge(Gauge::CellsCompleted), cells);
        assert!(!snap.snaps.is_empty(), "periodic snapshots were taken");
        // Every queue wait and engine run left a span in the buffer.
        assert!(snap.spans.len() as u64 >= cells + attempts);
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
    /// and the journal still persists the full grid.
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
        assert_eq!(outcome.journal_appends, 0, "cache hits are not re-executed");
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
}
