//! Functional cycle-level execution of GEMMs on SIGMA.
//!
//! [`SigmaSim::run_gemm`] pushes real `f32` operands through the modeled
//! pipeline — sparsity controller → (Benes-modeled) distribution →
//! multipliers → per-Flex-DPE FAN reduction → output accumulation — and
//! returns both the numeric result and the exact Table-II cycle
//! accounting. The numeric result is tree-reduced in the same association
//! order as the hardware, and the test suite asserts it matches the
//! reference GEMM.

use crate::config::{Dataflow, SigmaConfig, SigmaError};
use crate::controller::{ControllerPlan, Operand};
use crate::fault::{FaultCounters, FaultInjector, FaultPlan, FaultReport};
use crate::flex_dpe::FlexDpe;
use crate::stats::CycleStats;
use crate::trace::{Phase, Trace};
use sigma_interconnect::{AdderFault, Fan, FanProgram, FanScratch};
use sigma_matrix::abft::{check_product, correct_single, residual_tolerance, AbftVerdict};
use sigma_matrix::{Bitmap, Matrix, SparseMatrix};
use sigma_telemetry::{Hist, Telemetry};

/// Consecutive streamed steps per block of the stationary datapath: each
/// Flex-DPE replays its FAN program once per block, over this many lanes
/// (32, the width the replay is compiled for). A 128-multiplier unit's
/// tile is then 128 x 32 f32 = 16 KiB.
const BLOCK_STEPS: usize = FanProgram::BLOCK_LANES;

/// The outcome of one GEMM on any engine: the numeric product and the
/// cycle accounting. (A cycle-stamped trace of a SIGMA run comes from
/// [`SigmaSim::run_gemm_traced`], outside the harness.)
#[derive(Debug, Clone, PartialEq)]
pub struct GemmRun {
    /// The computed `M x N` product.
    pub result: Matrix,
    /// Table-II latency and utilization metrics.
    pub stats: CycleStats,
}

/// How [`SigmaSim::run_gemm_checked`] recovers from detected faults.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryPolicy {
    /// Full re-executions allowed after a failed correction (bounded
    /// recompute; 0 disables recompute entirely).
    pub max_recomputes: u32,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        Self { max_recomputes: 2 }
    }
}

/// A SIGMA instance ready to execute GEMMs functionally.
#[derive(Debug, Clone)]
pub struct SigmaSim {
    config: SigmaConfig,
    fan: Fan,
    telemetry: Telemetry,
    /// Test builds only: run stationary folds on the lockstep tick oracle
    /// ([`SigmaSim::run_stationary_lockstep`]) instead of the fold loop,
    /// and find NLR pairs with the dense scan ([`nlr_pairs_dense`]).
    #[cfg(test)]
    tick_oracle: bool,
}

impl SigmaSim {
    /// Creates a simulator for the given configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SigmaError::DpeSizeNotPowerOfTwo`] if the configured
    /// Flex-DPE size cannot host the FAN/Benes networks (guarded already
    /// by [`SigmaConfig::new`], re-checked here for defense in depth).
    pub fn new(config: SigmaConfig) -> Result<Self, SigmaError> {
        let fan = Fan::new(config.dpe_size())
            .map_err(|_| SigmaError::DpeSizeNotPowerOfTwo(config.dpe_size()))?;
        let telemetry = if config.telemetry() { Telemetry::enabled() } else { Telemetry::off() };
        Ok(Self {
            config,
            fan,
            telemetry,
            #[cfg(test)]
            tick_oracle: false,
        })
    }

    /// Creates a simulator, clamping the configured Flex-DPE size to a
    /// valid FAN/Benes geometry instead of failing. A configuration from
    /// [`SigmaConfig::new`] / [`SigmaConfig::clamped`] is always valid,
    /// making this constructor exact for them; prefer [`SigmaSim::new`]
    /// when invalid input should be reported.
    #[must_use]
    pub fn new_clamped(config: SigmaConfig) -> Self {
        let fan = Fan::new_clamped(config.dpe_size());
        let telemetry = if config.telemetry() { Telemetry::enabled() } else { Telemetry::off() };
        Self {
            config,
            fan,
            telemetry,
            #[cfg(test)]
            tick_oracle: false,
        }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &SigmaConfig {
        &self.config
    }

    /// The simulator's histogram registry — disabled (recording is a
    /// no-op) unless the configuration asked for telemetry
    /// ([`SigmaConfig::with_telemetry`]). Histograms accumulate over every
    /// run of this simulator; the work counts of one run are in its
    /// [`CycleStats`].
    #[must_use]
    pub fn telemetry_handle(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Executes `C = A x B` with the configured dataflow.
    ///
    /// # Errors
    ///
    /// Returns [`SigmaError::DimensionMismatch`] when `A.cols() != B.rows()`.
    pub fn run_gemm(&self, a: &SparseMatrix, b: &SparseMatrix) -> Result<GemmRun, SigmaError> {
        self.run_gemm_impl(Operand::new(a), Operand::new(b), None, None)
    }

    /// Like [`SigmaSim::run_gemm`], but also returns a cycle-stamped
    /// [`Trace`] of every load / streaming step / drain event, validated
    /// to be consistent with the returned stats.
    ///
    /// # Errors
    ///
    /// Returns [`SigmaError::DimensionMismatch`] when `A.cols() != B.rows()`.
    pub fn run_gemm_traced(
        &self,
        a: &SparseMatrix,
        b: &SparseMatrix,
    ) -> Result<(GemmRun, Trace), SigmaError> {
        let mut trace = Trace::new();
        let run = self.run_gemm_impl(Operand::new(a), Operand::new(b), Some(&mut trace), None)?;
        Ok((run, trace))
    }

    /// Runs `C = A x B` on the configured dataflow, where `a` (`M x K`)
    /// and `b` (`K x N`) are stored matrices read in either orientation,
    /// so the training GEMMs `A^T x B` and `A x B^T` copy nothing.
    fn run_gemm_impl(
        &self,
        a: Operand<'_>,
        b: Operand<'_>,
        trace: Option<&mut Trace>,
        faults: Option<&mut FaultInjector<'_>>,
    ) -> Result<GemmRun, SigmaError> {
        if a.cols() != b.rows() {
            return Err(SigmaError::DimensionMismatch { k_a: a.cols(), k_b: b.rows() });
        }
        if !a.matrix.all_finite() {
            return Err(SigmaError::NonFiniteInput { operand: "A" });
        }
        if !b.matrix.all_finite() {
            return Err(SigmaError::NonFiniteInput { operand: "B" });
        }
        let (m, n) = (a.rows(), b.cols());
        // IS: MK stationary (groups = rows m), KN streaming (steps = n).
        // WS: KN stationary with its columns n as the groups, and MK
        // streaming contraction-major with its rows m as the steps.
        let (stationary, streaming) = match self.config.dataflow() {
            Dataflow::InputStationary => (a, b),
            Dataflow::WeightStationary => (b.t(), a.t()),
            Dataflow::NoLocalReuse => return Ok(self.run_no_local_reuse(a, b, trace, faults)),
        };
        let mut out = Matrix::zeros(m, n);
        let stats =
            self.run_stationary(stationary, streaming, trace, faults, out.as_mut_slice())?;
        Ok(GemmRun { result: out, stats })
    }

    /// Training backward pass for weights: computes `A^T x B` (the
    /// `(MK)^T x MN` weight-gradient GEMM of Sec. I) on the accelerator.
    /// `A` is `K x M`-shaped as stored (i.e. the forward activation
    /// matrix). The controller reads it in the transposed role, as it
    /// stores it: no transposed copy is made. Results, stats and traces
    /// are [`SigmaSim::run_gemm`]'s on `A`'s [`SparseMatrix::transposed`]
    /// copy.
    ///
    /// # Errors
    ///
    /// Returns [`SigmaError::DimensionMismatch`] when `a.rows() != b.rows()`.
    pub fn run_gemm_at(&self, a: &SparseMatrix, b: &SparseMatrix) -> Result<GemmRun, SigmaError> {
        self.run_gemm_impl(Operand::new(a).t(), Operand::new(b), None, None)
    }

    /// Training backward pass for inputs: computes `A x B^T` (the
    /// `MN x (KN)^T` input-gradient GEMM of Sec. I) on the accelerator,
    /// reading the stored `B` in the transposed role, like
    /// [`SigmaSim::run_gemm_at`].
    ///
    /// # Errors
    ///
    /// Returns [`SigmaError::DimensionMismatch`] when `a.cols() != b.cols()`.
    pub fn run_gemm_bt(&self, a: &SparseMatrix, b: &SparseMatrix) -> Result<GemmRun, SigmaError> {
        self.run_gemm_impl(Operand::new(a), Operand::new(b).t(), None, None)
    }

    /// Runs the GEMM under both stationary dataflows and returns the one
    /// with the lower total latency, as the paper's evaluation does
    /// ("we run both dataflows and report the higher performing dataflow").
    ///
    /// # Errors
    ///
    /// Returns [`SigmaError::DimensionMismatch`] when `A.cols() != B.rows()`.
    pub fn run_best_stationary(
        &self,
        a: &SparseMatrix,
        b: &SparseMatrix,
    ) -> Result<(Dataflow, GemmRun), SigmaError> {
        let ws =
            Self::new(self.config.with_dataflow(Dataflow::WeightStationary))?.run_gemm(a, b)?;
        let is = Self::new(self.config.with_dataflow(Dataflow::InputStationary))?.run_gemm(a, b)?;
        if ws.stats.total_cycles() <= is.stats.total_cycles() {
            Ok((Dataflow::WeightStationary, ws))
        } else {
            Ok((Dataflow::InputStationary, is))
        }
    }

    /// Executes `C = A x B` with a [`FaultPlan`] armed: faults fire at
    /// their sites, and the returned [`FaultReport`] lists what fired,
    /// stamped with cycle and site. No detection or recovery is attempted
    /// — use [`SigmaSim::run_gemm_checked`] for the ABFT-protected path.
    ///
    /// An empty plan makes this byte-identical to [`SigmaSim::run_gemm`]
    /// (asserted by property tests in the bench crate).
    ///
    /// # Errors
    ///
    /// Same as [`SigmaSim::run_gemm`].
    pub fn run_gemm_with_faults(
        &self,
        a: &SparseMatrix,
        b: &SparseMatrix,
        plan: &FaultPlan,
    ) -> Result<(GemmRun, FaultReport), SigmaError> {
        let mut injector = FaultInjector::new(plan);
        let (a, b) = (Operand::new(a), Operand::new(b));
        let mut run = self.run_gemm_impl(a, b, None, Some(&mut injector))?;
        let report = injector.into_report();
        run.stats.faults_injected = report.counters.injected;
        Ok((run, report))
    }

    /// Executes `C = A x B` with a [`FaultPlan`] armed *and* the ABFT
    /// row/column checksums watching the result, at the
    /// [`residual_tolerance`] of its shape: detected corruptions are
    /// corrected in place when single-site, otherwise the GEMM is
    /// recomputed up to [`RecoveryPolicy::max_recomputes`] times (transient
    /// faults stay consumed across recomputes; stuck-at defects keep
    /// firing). The returned stats merge the cycle cost of every attempt
    /// and carry the fault counters; the report additionally says whether
    /// the faults had any numeric effect and how many attempts ran.
    ///
    /// # Errors
    ///
    /// Same as [`SigmaSim::run_gemm`].
    pub fn run_gemm_checked(
        &self,
        a: &SparseMatrix,
        b: &SparseMatrix,
        plan: &FaultPlan,
        policy: &RecoveryPolicy,
    ) -> Result<(GemmRun, FaultReport), SigmaError> {
        let ad = a.to_dense();
        let bd = b.to_dense();
        let tol = residual_tolerance(a.rows(), b.cols(), a.cols());
        // Ground truth for escape accounting: the fault-free execution has
        // the identical accumulation order, so agreement is exact up to
        // the faults themselves. Only needed when faults are armed.
        let (a, b) = (Operand::new(a), Operand::new(b));
        let baseline =
            if plan.is_empty() { None } else { Some(self.run_gemm_impl(a, b, None, None)?) };

        let mut injector = FaultInjector::new(plan);
        let mut counters = FaultCounters::default();
        let mut attempts = 0u32;
        let mut numeric_effect = false;
        let mut merged: Option<CycleStats> = None;
        let (mut current, clean) = loop {
            attempts += 1;
            let mut run = self.run_gemm_impl(a, b, None, Some(&mut injector))?;
            merged = Some(match merged {
                Some(m) => m.merged(&run.stats),
                None => run.stats,
            });
            if attempts == 1 {
                if let Some(base) = &baseline {
                    numeric_effect =
                        !run.result.all_finite() || run.result.max_abs_diff(&base.result) > tol;
                }
            }
            match check_product(&ad, &bd, &run.result, tol) {
                AbftVerdict::Clean => break (run, true),
                AbftVerdict::SingleSite { row, col, delta } => {
                    counters.detected += 1;
                    correct_single(&mut run.result, row, col, delta);
                    if check_product(&ad, &bd, &run.result, tol).is_clean() {
                        counters.corrected += 1;
                        break (run, true);
                    }
                }
                AbftVerdict::MultiSite { .. } => {
                    counters.detected += 1;
                }
            }
            if attempts > policy.max_recomputes {
                break (run, false);
            }
        };
        // A recompute that came back clean is a successful remediation.
        if clean && attempts > 1 && counters.corrected == 0 {
            counters.corrected += 1;
        }
        // Escape accounting against ground truth: a final result that
        // still disagrees with the fault-free execution escaped recovery —
        // whether the checksums missed it or the recompute budget ran out.
        if let Some(base) = &baseline {
            let wrong =
                !current.result.all_finite() || current.result.max_abs_diff(&base.result) > tol;
            if wrong {
                counters.escaped += 1;
            }
        }

        counters.injected = injector.fired().len() as u64;
        let mut stats = merged.unwrap_or_default();
        stats.faults_injected = counters.injected;
        stats.faults_detected = counters.detected;
        stats.faults_corrected = counters.corrected;
        stats.faults_escaped = counters.escaped;
        current.stats = stats;
        let report =
            FaultReport { fired: injector.into_report().fired, counters, attempts, numeric_effect };
        Ok((current, report))
    }

    /// Canonical stationary execution: `stationary` is `G x K` (one FAN
    /// cluster per row), `streaming` is `K x S` (one streamed vector per
    /// step), each a stored matrix in either orientation ([`Operand`]).
    /// Cluster sums accumulate into `out`, the caller's zeroed row-major
    /// result ([`SigmaSim::output_strides`] places each `(group, step)`
    /// cell in it).
    ///
    /// One loop walks the plan's folds, and each fold runs the paper's
    /// Table II phases in order: load, stream, then add (the FAN drain),
    /// none overlapped with another. A cycle cursor advances by each
    /// phase's cost, so the work inside a phase never ticks cycle by
    /// cycle:
    ///
    /// * **Per-fold send counts are batched word-level**: one walk over
    ///   the streaming bitmap's occupancy words yields every step's send
    ///   count instead of probing one (contraction, step) bit at a time.
    ///   Stored `K x S`, the fold's contraction rows are added a word at
    ///   a time into bit-sliced per-step counters
    ///   ([`Bitmap::col_count_ones_in_rows`], O(K·S/64 + S·log K));
    ///   stored `S x K`, each step's row is ANDed with the fold's
    ///   contraction set and counted ([`Bitmap::row_count_ones_masked`],
    ///   O(S·K/64)).
    /// * **Dead steps are bitwise no-ops**: a step with zero sends
    ///   streams only `+0.0` operands, every product is `±0.0`, and every
    ///   FAN add and output accumulation is a bitwise no-op (output cells
    ///   can never hold `-0.0`, and `x + ±0.0 == x` bitwise for every
    ///   non-`-0.0` `x`). A block of [`BLOCK_STEPS`] steps that are all
    ///   dead is skipped entirely; a dead step inside a live block runs
    ///   with its neighbours, adding `±0.0`. Either way the cycle is
    ///   charged in bulk, surfacing as
    ///   [`CycleStats::idle_cycles_skipped`].
    /// * **Live steps run a block at a time**: each active unit walks the
    ///   fold's live blocks of consecutive steps ([`FlexDpe::step_block`]),
    ///   multiplying from a dense row-major `K x S` copy of the streaming
    ///   operand and replaying its compiled FAN schedule once per block
    ///   over contiguous lanes. Each cluster's lanes then add straight
    ///   into its cells of the result. Per output cell the f32 ops and
    ///   their order are a step-at-a-time walk's.
    /// * **The drain is one charge**: the fold's add latency is
    ///   [`FlexDpe::drain_cycles`] (the FAN's latency-until-quiescent, a
    ///   constant of the layout), not a per-tick countdown.
    ///
    /// An armed, non-empty injector changes four things. Bitmap-word
    /// corruptions hit the streaming metadata *before* the controller
    /// plans, and the streaming copy reads through the corrupted bitmap (a
    /// cleared bit reads as zero). A corrupted word is a word of the
    /// canonical `K x S` bitmap, whatever the stored orientation. Every
    /// step runs as a one-lane block of [`FlexDpe::step_block`], armed
    /// with the injector, because fault stamps are per step. Dead steps
    /// run too: a fault can fire on a dead step and turn its `+0.0` into
    /// a live value, so the fast-forward is only sound with no injector
    /// (dead cycles are still counted as skipped). A fault is stamped
    /// with the total cycle count at the end of its step. And each fold's
    /// fired faults are stable-sorted by cycle, which restores the
    /// step-major order of a cycle-by-cycle walk. An empty injector takes
    /// the clean path unchanged.
    ///
    /// A cycle-by-cycle tick loop with the same outer shape,
    /// `SigmaSim::run_stationary_lockstep`, survives in the unit tests as
    /// the bitwise oracle for results, stats, traces and fault reports.
    fn run_stationary(
        &self,
        stationary: Operand<'_>,
        streaming: Operand<'_>,
        mut trace: Option<&mut Trace>,
        faults: Option<&mut FaultInjector<'_>>,
        out: &mut [f32],
    ) -> Result<CycleStats, SigmaError> {
        #[cfg(test)]
        if self.tick_oracle {
            let (stationary, streaming) = (stationary.to_matrix(), streaming.to_matrix());
            return self.run_stationary_lockstep(&stationary, &streaming, trace, faults, out);
        }
        let mut faults = faults.filter(|inj| !inj.is_empty());
        let pes = self.config.total_pes();
        let bw = self.config.input_bandwidth() as u64;
        let stream_bw = self.config.stream_bandwidth() as u64;
        let dpe = self.config.dpe_size();
        let steps = streaming.cols();
        let kdim = streaming.rows();
        let by_step = streaming.transposed;
        let (group_stride, step_stride) = self.output_strides(stationary.rows(), steps);

        let stored = streaming.matrix.bitmap();
        let corrupted =
            faults.as_deref_mut().and_then(|inj| inj.corrupt_bitmap(stored, by_step, 0));
        let stream_bitmap: &Bitmap = corrupted.as_ref().unwrap_or(stored);

        let plan = ControllerPlan::build_oriented(
            stationary,
            stream_bitmap,
            by_step,
            pes,
            self.config.packing_order(),
        );

        // The streaming operand, dense and row-major in the canonical
        // `K x S` orientation: contraction `c`'s operands over a block of
        // steps are one contiguous run.
        let mut stream = vec![0.0f32; kdim * steps];
        for (r, c, v) in streaming.matrix.iter() {
            if corrupted.is_none() || stream_bitmap.get(r, c) {
                let (k, step) = if by_step { (c, r) } else { (r, c) };
                stream[k * steps + step] = v;
            }
        }

        let mut stats = CycleStats { pes: pes as u64, ..CycleStats::default() };
        let mut engines: Vec<FlexDpe> = Vec::new();
        let mut local_ids: Vec<Option<u32>> = vec![None; dpe];
        let mut tile = vec![0.0f32; dpe * BLOCK_STEPS];
        let mut fanout_scratch: Vec<usize> = Vec::new();
        // The FAN's adders and forwarding links, for the occupancy
        // histograms; counting the links walks the topology, so only a
        // recording run does it.
        let fan_capacity = self.telemetry.is_enabled().then(|| {
            (self.fan.adder_count().max(1) as u64, self.fan.forwarding_link_count().max(1) as u64)
        });
        // Per-step send counts for the current fold, recomputed word-level
        // per fold (see above), the fold's contraction set when the
        // streaming operand is stored by step, and — with faults armed —
        // each step's end-of-step total cycle count. Reused across folds.
        let mut sends_buf: Vec<u64> = vec![0; steps];
        let mut fold_ks: Vec<u64> = vec![0; if by_step { kdim.div_ceil(64) } else { 0 }];
        let mut step_end: Vec<u64> = Vec::new();

        let mut cycle = 0u64;
        for (f, fold) in plan.folds.iter().enumerate() {
            let occupied = fold.occupied();
            stats.folds += 1;
            stats.mapped_nonzeros += occupied as u64;
            stats.occupied_slots += occupied as u64;
            let load = (occupied as u64).div_ceil(bw);
            stats.loading_cycles += load;
            if let Some(t) = trace.as_deref_mut() {
                t.record(Phase::Load, f as u64, None, load);
            }
            stats.sram_reads += occupied as u64;
            if self.telemetry.is_enabled() {
                fanout_scratch.clear();
                fanout_scratch.extend(fold.elements.iter().map(|e| e.contraction));
                fanout_scratch.sort_unstable();
                let mut i = 0;
                while i < fanout_scratch.len() {
                    let mut j = i + 1;
                    while j < fanout_scratch.len() && fanout_scratch[j] == fanout_scratch[i] {
                        j += 1;
                    }
                    self.telemetry.observe(Hist::MulticastFanout, (j - i) as u64);
                    i = j;
                }
            }
            let active_dpes = occupied.div_ceil(dpe);
            while engines.len() < active_dpes {
                engines.push(FlexDpe::new(dpe)?);
            }
            for (d, unit) in engines.iter_mut().enumerate().take(active_dpes) {
                let lo = d * dpe;
                let hi = (lo + dpe).min(occupied);
                local_ids.fill(None);
                local_ids[..hi - lo].copy_from_slice(&fold.vec_ids[lo..hi]);
                unit.load(&fold.elements[lo..hi], &local_ids)?;
                let occupancy_pct = ((hi - lo) * 100 / dpe) as u64;
                self.telemetry.observe(Hist::MultiplierOccupancyPct, occupancy_pct);
            }
            cycle += load;

            // Word-level send counting: one pass over the occupancy words
            // of this fold's contraction rows, or of every step's row
            // masked by the fold's contractions.
            if by_step {
                fold_ks.fill(0);
                for &k in &fold.distinct_contractions {
                    fold_ks[k / 64] |= 1 << (k % 64);
                }
                for (step, sends) in sends_buf.iter_mut().enumerate() {
                    *sends = stream_bitmap.row_count_ones_masked(step, &fold_ks) as u64;
                }
            } else {
                stream_bitmap.col_count_ones_in_rows(&fold.distinct_contractions, &mut sends_buf);
            }
            // Pass 1 — per-step accounting in step order: cycle charges,
            // trace records, and the dead-step fast-forward (every
            // streamed operand of a dead step is +0.0, so the whole
            // datapath is a bitwise no-op: charge the cycle, skip the
            // work).
            let mut fold_stream = 0u64;
            let mut fold_sends = 0u64;
            let mut dead_steps = 0u64;
            step_end.clear();
            for (step, &sends) in sends_buf.iter().enumerate() {
                let step_cycles = sends.div_ceil(stream_bw).max(1);
                fold_stream += step_cycles;
                if let Some(t) = trace.as_deref_mut() {
                    t.record(Phase::Stream, f as u64, Some(step), step_cycles);
                }
                if faults.is_some() {
                    step_end.push(cycle + fold_stream);
                }
                if sends == 0 {
                    dead_steps += step_cycles;
                    continue;
                }
                fold_sends += sends;
                self.telemetry.observe(Hist::StreamStepCycles, step_cycles);
            }
            // Pass 2 — the datapath, unit-outer so each unit's stationary
            // state stays cache-resident across the whole fold: per live
            // block, or per step with faults armed. Per output cell the
            // accumulation order is unchanged (fold-major, then
            // unit-major: within a fold each cluster touches a cell at
            // most once per step), so results match a step-outer walk
            // bitwise.
            let mut fold_useful = 0u64;
            let first_fired = faults.as_deref().map_or(0, |inj| inj.fired().len());
            let block = if faults.is_some() { 1 } else { BLOCK_STEPS };
            for (d, unit) in engines.iter_mut().enumerate().take(active_dpes) {
                for s0 in (0..steps).step_by(block) {
                    let lanes = block.min(steps - s0);
                    let dead = sends_buf[s0..s0 + lanes].iter().all(|&n| n == 0);
                    if dead && faults.is_none() {
                        continue;
                    }
                    let armed = faults.as_deref_mut().map(|inj| (inj, d, step_end[s0]));
                    let useful = unit.step_block(&stream[s0..], steps, lanes, &mut tile, armed)?;
                    fold_useful += useful as u64;
                    for (vec_id, slot) in unit.outputs() {
                        let group = fold.cluster_groups[vec_id as usize];
                        let cell = group * group_stride + s0 * step_stride;
                        let sums = &tile[slot * lanes..][..lanes];
                        for (j, &p) in sums.iter().enumerate() {
                            out[cell + j * step_stride] += p;
                        }
                    }
                }
            }
            if let Some(inj) = faults.as_deref_mut() {
                inj.sort_fired_since(first_fired);
            }
            stats.streaming_cycles += fold_stream;
            stats.sram_reads += fold_sends;
            stats.issued_macs += occupied as u128 * steps as u128;
            stats.useful_macs += u128::from(fold_useful);
            stats.idle_cycles_skipped += dead_steps;
            // Dead steps all cost exactly one cycle.
            self.telemetry.observe_n(Hist::StreamStepCycles, 1, dead_steps);
            // Every step of a fold does its unit's FAN work, dead or live.
            let fold_steps = steps as u64;
            for unit in engines.iter().take(active_dpes) {
                let (adds, sums) = unit.fan_work_per_step();
                stats.stream_steps += fold_steps;
                stats.fan_adds += adds * fold_steps;
                stats.fan_cluster_sums += sums * fold_steps;
                if let Some((adders, links)) = fan_capacity {
                    let adder_pct = adds * 100 / adders;
                    self.telemetry.observe_n(Hist::FanAdderOccupancyPct, adder_pct, fold_steps);
                    let link_pct = sums * 100 / links;
                    self.telemetry.observe_n(Hist::FanLinkOccupancyPct, link_pct, fold_steps);
                }
            }
            cycle += fold_stream;

            // The fold's add latency is the slowest unit's
            // latency-until-quiescent — a constant of the loaded layout,
            // so no per-tick countdown is needed.
            let drain = if steps == 0 {
                0
            } else {
                engines.iter().take(active_dpes).map(FlexDpe::drain_cycles).max().unwrap_or(0)
            };
            stats.add_cycles += drain;
            if let Some(t) = trace.as_deref_mut() {
                t.record(Phase::Drain, f as u64, None, drain);
            }
            cycle += drain;
        }
        debug_assert_eq!(
            cycle,
            stats.total_cycles(),
            "fold cursor and Table-II accounting must agree"
        );
        for unit in &engines {
            let (hits, misses) = unit.route_counts();
            stats.route_cache_hits += hits;
            stats.route_cache_misses += misses;
        }
        stats.stationary_dropped = plan.dropped_stationary;
        Ok(stats)
    }

    /// Strides `(group, step)` of the stationary output in the row-major
    /// `M x N` result. IS groups are the rows (M) and its steps the columns
    /// (N); WS groups are the columns and its steps the rows.
    fn output_strides(&self, groups: usize, steps: usize) -> (usize, usize) {
        if self.config.dataflow() == Dataflow::WeightStationary {
            (1, groups)
        } else {
            (steps, 1)
        }
    }

    /// The No-Local-Reuse dataflow (Fig. 4e): only useful multiplication
    /// pairs stream; nothing is stationary. Pairs are grouped by output
    /// element into FAN clusters and packed into full-array waves.
    ///
    /// One streaming pass that stores no pair. Pairs are found on
    /// compressed metadata, the inner-product case of sparse GEMM: the
    /// rows of A and the columns of B are packed into k-aligned `u64`
    /// occupancy words beside dense value rows ([`pack_nlr_operand`]). Every
    /// output `(i, j)` ANDs its two word rows a word at a time and walks
    /// the set bits with `trailing_zeros`; a pair's operands are then two
    /// plain loads at its contraction index. Cost scales with `m·n·k/64`
    /// words plus the useful pairs, not `m·n·k`, and scratch memory with
    /// `(m+n)·k`. Within each output, pairs come out in ascending k, the
    /// order of a dense `(i, j, k)` scan.
    ///
    /// Each product goes straight into a wave bounded at `pes` slots
    /// ([`NlrWave`]), which is reduced in place whenever it fills: per
    /// Flex-DPE chunk, each run of one output's pairs is one FAN cluster,
    /// and all of the chunk's clusters are summed in one pass of
    /// [`Fan::reduce_chunk`]. An output that fills a wave continues in
    /// the next one. Waves, clusters, f32 sums, stats and traces are
    /// those of listing every pair and cutting the list into `pes`-sized
    /// waves.
    ///
    /// Fault support covers [`crate::fault::FaultSite::MultiplierOutput`]
    /// and [`crate::fault::FaultSite::FanAdder`]; NLR has no stationary
    /// metadata or per-slot Benes delivery to corrupt.
    fn run_no_local_reuse(
        &self,
        a: Operand<'_>,
        b: Operand<'_>,
        trace: Option<&mut Trace>,
        faults: Option<&mut FaultInjector<'_>>,
    ) -> GemmRun {
        let mut wave = NlrWave::new(self, a.rows(), b.cols(), trace, faults);
        #[cfg(test)]
        if self.tick_oracle {
            nlr_pairs_dense(&a.to_matrix(), &b.to_matrix(), &mut wave);
        } else {
            stream_nlr_pairs(a, b, &mut wave);
        }
        #[cfg(not(test))]
        stream_nlr_pairs(a, b, &mut wave);
        wave.finish()
    }
}

/// Packs one NLR operand's `(vector, contraction, value)` entries into
/// `vectors` vectors over a contraction of length `k`: per vector,
/// `ceil(k / 64)` occupancy words for word-level intersection (bit
/// `c % 64` of word `c / 64` marks a stored value at contraction `c`), and
/// `k` values stored densely, so the value at `c` is a plain load.
fn pack_nlr_operand(
    vectors: usize,
    k: usize,
    entries: impl Iterator<Item = (usize, usize, f32)>,
) -> (Vec<u64>, Vec<f32>) {
    let words = k.div_ceil(64);
    let mut bits = vec![0u64; vectors * words];
    let mut values = vec![0.0f32; vectors * k];
    for (r, c, v) in entries {
        bits[r * words + c / 64] |= 1 << (c % 64);
        values[r * k + c] = v;
    }
    (bits, values)
}

/// Streams every NLR pair's product `a[i,k] · b[k,j]`, both operands
/// stored, into `wave`, ordered by output `(i, j)` and then ascending `k`.
/// Each operand is read in its stored row-major order.
fn stream_nlr_pairs(a: Operand<'_>, b: Operand<'_>, wave: &mut NlrWave<'_, '_>) {
    let (k, n) = (a.cols(), b.cols());
    if k == 0 {
        return;
    }
    let (row_bits, row_values) = pack_nlr_operand(a.rows(), k, a.entries());
    let (col_bits, col_values) = pack_nlr_operand(n, k, b.t().entries());
    let words = k.div_ceil(64);
    let a_rows = row_bits.chunks_exact(words).zip(row_values.chunks_exact(k));
    for (i, (row, x)) in a_rows.enumerate() {
        if row.iter().all(|&w| w == 0) {
            continue;
        }
        let b_cols = col_bits.chunks_exact(words).zip(col_values.chunks_exact(k));
        for (j, (col, y)) in b_cols.enumerate() {
            wave.begin_output(i * n + j);
            for (w, (&p, &q)) in row.iter().zip(col).enumerate() {
                let mut both = p & q;
                while both != 0 {
                    let c = w * 64 + both.trailing_zeros() as usize;
                    both &= both - 1;
                    wave.push(x[c] * y[c]);
                }
            }
        }
    }
}

/// The dense `(i, j, k)` scan [`stream_nlr_pairs`] replaces, feeding the
/// same wave: the bitwise oracle for pair order and values. A pair is two
/// stored operands, read from the bitmaps. Sharing the wave keeps the
/// reduction, and so every bit of every sum, common to both pair sources.
#[cfg(test)]
fn nlr_pairs_dense(a: &SparseMatrix, b: &SparseMatrix, wave: &mut NlrWave<'_, '_>) {
    let (a_d, b_d) = (a.to_dense(), b.to_dense());
    for i in 0..a.rows() {
        for j in 0..b.cols() {
            wave.begin_output(i * b.cols() + j);
            for k in 0..a.cols() {
                if a.bitmap().get(i, k) && b.bitmap().get(k, j) {
                    wave.push(a_d.get(i, k) * b_d.get(k, j));
                }
            }
        }
    }
}

/// The bounded wave NLR pairs stream into. It holds up to `pes` products
/// and one `(output, end)` entry per run of one output's pairs; a run
/// holds at least one product, so neither buffer ever grows. A full wave
/// is reduced in place and emptied ([`NlrWave::flush`]).
struct NlrWave<'r, 'p> {
    sim: &'r SigmaSim,
    trace: Option<&'r mut Trace>,
    faults: Option<&'r mut FaultInjector<'p>>,
    /// One product slot per PE; the first `len` are filled.
    products: Vec<f32>,
    len: usize,
    /// The wave's closed runs in slot order: run `r` covers the slots from
    /// the previous run's end up to `end`, all pairs of the output at flat
    /// index `output` (`i·n + j`).
    runs: Vec<(u32, u32)>,
    /// The flat output index of the open run, and its first slot.
    output: u32,
    run_start: usize,
    /// The stuck adders armed on the chunk being reduced.
    adder_faults: Vec<AdderFault>,
    /// The FAN's subtree sums of the chunk being reduced.
    scratch: FanScratch,
    out: Matrix,
    stats: CycleStats,
}

impl<'r, 'p> NlrWave<'r, 'p> {
    fn new(
        sim: &'r SigmaSim,
        rows: usize,
        cols: usize,
        trace: Option<&'r mut Trace>,
        faults: Option<&'r mut FaultInjector<'p>>,
    ) -> Self {
        let pes = sim.config.total_pes();
        let fits = |n: usize| u32::try_from(n).is_ok();
        assert!(fits(rows * cols) && fits(pes), "NLR indexes outputs and slots in 32 bits");
        Self {
            sim,
            trace,
            faults,
            products: vec![0.0; pes],
            len: 0,
            runs: Vec::with_capacity(pes),
            output: 0,
            run_start: 0,
            adder_faults: Vec::new(),
            scratch: FanScratch::default(),
            out: Matrix::zeros(rows, cols),
            stats: CycleStats { pes: pes as u64, ..CycleStats::default() },
        }
    }

    /// Starts the run of the pairs of the output at flat index `output`
    /// (`i·n + j`), closing the previous run.
    #[inline]
    fn begin_output(&mut self, output: usize) {
        self.close_run();
        // In range: `new` checked that every output index fits.
        self.output = output as u32;
    }

    #[inline]
    fn close_run(&mut self) {
        if self.len > self.run_start {
            self.runs.push((self.output, self.len as u32));
            self.run_start = self.len;
        }
    }

    /// Adds one product to the open run, issuing the wave once it is full.
    #[inline]
    fn push(&mut self, product: f32) {
        self.products[self.len] = product;
        self.len += 1;
        if self.len == self.products.len() {
            self.flush();
        }
    }

    /// Issues the filled part of the wave and empties it; the open run's
    /// output continues in the next wave. Wave boundaries are NLR's fold
    /// boundaries. The wave streams two operands per multiplier, then,
    /// per `dpe`-wide chunk: multiplier faults, adder faults, and one
    /// [`Fan::reduce_chunk`] pass whose clusters are the run pieces inside
    /// the chunk, at chunk-local leaves, each sum added to its output,
    /// left to right. The FAN drain is the chunks' slowest cluster.
    ///
    /// Never inlined: both pair sources share this one reduction, so
    /// their sums agree to the bit, NaN payloads included.
    #[inline(never)]
    fn flush(&mut self) {
        self.close_run();
        let sim = self.sim;
        let len = self.len;
        let fold = self.stats.folds;
        let stats = &mut self.stats;
        stats.folds += 1;
        // Two operands per multiplier must be distributed.
        let stream_cycles = (2 * len as u64).div_ceil(sim.config.stream_bandwidth() as u64).max(1);
        stats.streaming_cycles += stream_cycles;
        stats.sram_reads += 2 * len as u64;
        stats.stream_steps += 1;
        if let Some(t) = self.trace.as_deref_mut() {
            t.record(Phase::Stream, fold, Some(0), stream_cycles);
        }

        let dpe = sim.config.dpe_size();
        let cycle = stats.total_cycles();
        let (mut drain, mut clusters) = (0u64, 0u64);
        let (mut run, mut start) = (0usize, 0usize);
        let out = self.out.as_mut_slice();
        for (d, base) in (0..len).step_by(dpe).enumerate() {
            let chunk_end = len.min(base + dpe);
            let chunk = &mut self.products[base..chunk_end];
            self.adder_faults.clear();
            if let Some(inj) = self.faults.as_deref_mut() {
                for (slot, p) in chunk.iter_mut().enumerate() {
                    *p = inj.apply_multiplier(d, slot, *p, cycle);
                }
                inj.adder_faults(d, cycle, &mut self.adder_faults);
            }
            let runs = &self.runs;
            let pieces = std::iter::from_fn(|| {
                (start < chunk_end).then(|| {
                    let (output, end) = runs[run];
                    let stop = chunk_end.min(end as usize);
                    run += usize::from(stop == end as usize);
                    let piece = (start - base, stop - 1 - base, output as usize);
                    start = stop;
                    piece
                })
            });
            let add = |output: usize, sum: f32, cycles: u64| {
                out[output] += sum;
                drain = drain.max(cycles);
                clusters += 1;
            };
            sim.fan.reduce_chunk(chunk, pieces, &self.adder_faults, &mut self.scratch, add);
        }
        // Every run piece of `m` products takes `m − 1` adds.
        let adds = len as u64 - clusters;
        stats.add_cycles += drain;
        stats.fan_adds += adds;
        stats.fan_cluster_sums += clusters;
        if let Some(t) = self.trace.as_deref_mut() {
            t.record(Phase::Drain, fold, None, drain);
        }
        self.stats.useful_macs += len as u128;
        self.len = 0;
        self.run_start = 0;
        self.runs.clear();
    }

    /// Issues the last, partial wave and returns the run. A GEMM without a
    /// useful pair issues no wave.
    fn finish(mut self) -> GemmRun {
        if self.len > 0 {
            self.flush();
        }
        let stats = CycleStats { issued_macs: self.stats.useful_macs, ..self.stats };
        GemmRun { result: self.out, stats }
    }
}

#[cfg(test)]
impl SigmaSim {
    /// The lockstep tick loop: every Flex-DPE steps on every streaming
    /// cycle through [`FlexDpe::step_reference`], and faults are stamped
    /// with the running total cycle count. The bitwise oracle for
    /// [`SigmaSim::run_stationary`]: same results, stats, traces and fault
    /// reports. It counts the work fields its own way: steps, FAN adds and
    /// cluster sums per tick from each reference step's reduction, and the
    /// dropped stationary non-zeros from the streaming metadata. Histograms
    /// are not recorded: nothing compares them.
    ///
    /// With an armed injector, bitmap-word corruptions are applied to the
    /// streaming metadata *before* the controller plans (the controller
    /// then believes the corrupted occupancy, skipping values whose bits
    /// were cleared), and datapath faults fire inside each Flex-DPE step.
    fn run_stationary_lockstep(
        &self,
        stationary: &SparseMatrix,
        streaming: &SparseMatrix,
        mut trace: Option<&mut Trace>,
        mut faults: Option<&mut FaultInjector<'_>>,
        out: &mut [f32],
    ) -> Result<CycleStats, SigmaError> {
        let pes = self.config.total_pes();
        let bw = self.config.input_bandwidth() as u64;
        let stream_bw = self.config.stream_bandwidth() as u64;
        let dpe = self.config.dpe_size();
        let steps = streaming.cols();
        let (group_stride, step_stride) = self.output_strides(stationary.rows(), steps);

        // A corrupted copy of the streaming bitmap, when the plan says so.
        // The controller and the compressed-stream reads both consult the
        // corrupted metadata; the true values are untouched.
        let corrupted =
            faults.as_deref_mut().and_then(|inj| inj.corrupt_bitmap(streaming.bitmap(), false, 0));
        let stream_bitmap: &Bitmap = corrupted.as_ref().unwrap_or_else(|| streaming.bitmap());

        let plan = ControllerPlan::build_with_order(
            stationary,
            stream_bitmap,
            pes,
            self.config.packing_order(),
        );
        let stream_dense = streaming.to_dense();

        let mut stats = CycleStats { pes: pes as u64, ..CycleStats::default() };
        let mut engines: Vec<FlexDpe> = Vec::new();
        let mut local_ids: Vec<Option<u32>> = vec![None; dpe];
        let no_faults = FaultPlan::none();

        for fold in &plan.folds {
            let occupied = fold.occupied();
            stats.folds += 1;
            stats.mapped_nonzeros += occupied as u64;
            stats.occupied_slots += occupied as u64;
            let load = (occupied as u64).div_ceil(bw);
            stats.loading_cycles += load;
            if let Some(t) = trace.as_deref_mut() {
                t.record(Phase::Load, stats.folds - 1, None, load);
            }
            stats.sram_reads += occupied as u64;

            // Load each active Flex-DPE with its slice of the fold
            // (Fig. 5 Step iv: unicast into the multiplier buffers).
            let active_dpes = occupied.div_ceil(dpe);
            while engines.len() < active_dpes {
                engines.push(FlexDpe::new(dpe)?);
            }
            for (d, unit) in engines.iter_mut().enumerate().take(active_dpes) {
                let lo = d * dpe;
                let hi = (lo + dpe).min(occupied);
                local_ids.fill(None);
                local_ids[..hi - lo].copy_from_slice(&fold.vec_ids[lo..hi]);
                unit.load(&fold.elements[lo..hi], &local_ids)?;
            }

            let mut last_step_drain = 0u64;
            for step in 0..steps {
                // Bandwidth: only the non-zero streaming values among this
                // fold's needed contraction indices are read and sent.
                let sends = fold
                    .distinct_contractions
                    .iter()
                    .filter(|&&k| stream_bitmap.get(k, step))
                    .count() as u64;
                let step_cycles = sends.div_ceil(stream_bw).max(1);
                stats.streaming_cycles += step_cycles;
                stats.sram_reads += sends;
                stats.issued_macs += occupied as u128;
                if sends == 0 {
                    // A dead step: no operand is streamed, but the cycle is
                    // still spent. The fold loop fast-forwards these; the
                    // oracle executes them and counts them identically.
                    stats.idle_cycles_skipped += step_cycles;
                }
                if let Some(t) = trace.as_deref_mut() {
                    t.record(Phase::Stream, stats.folds - 1, Some(step), step_cycles);
                }

                // Multiply + reduce on each Flex-DPE.
                last_step_drain = 0;
                for (d, unit) in engines.iter_mut().enumerate().take(active_dpes) {
                    // The compressed stream is fetched per the (possibly
                    // corrupted) metadata: a cleared bit reads as zero.
                    let operand = |k: usize| {
                        if stream_bitmap.get(k, step) {
                            stream_dense.get(k, step)
                        } else {
                            0.0
                        }
                    };
                    let cycle = stats.total_cycles();
                    let step_out = match faults.as_deref_mut() {
                        Some(inj) => unit.step_reference(&operand, inj, d, cycle)?,
                        None => {
                            let mut clean = FaultInjector::new(&no_faults);
                            unit.step_reference(&operand, &mut clean, d, cycle)?
                        }
                    };
                    stats.useful_macs += step_out.useful_macs as u128;
                    stats.stream_steps += 1;
                    stats.fan_adds += step_out.reduction.adds_performed as u64;
                    stats.fan_cluster_sums += step_out.reduction.sums.len() as u64;
                    last_step_drain = last_step_drain.max(step_out.reduction.critical_cycles);
                    for s in &step_out.reduction.sums {
                        let group = fold.cluster_groups[s.vec_id as usize];
                        out[group * group_stride + step * step_stride] += s.value;
                    }
                }
            }
            // Table II add latency: the last wave's reduction must drain
            // before the next stationary fold loads.
            stats.add_cycles += last_step_drain;
            if let Some(t) = trace.as_deref_mut() {
                t.record(Phase::Drain, stats.folds - 1, None, last_step_drain);
            }
        }
        for unit in &engines {
            let (hits, misses) = unit.route_counts();
            stats.route_cache_hits += hits;
            stats.route_cache_misses += misses;
        }
        // A stationary non-zero is dropped when its contraction row of the
        // (possibly corrupted) streaming metadata is empty.
        let partnerless = |k: usize| (0..steps).all(|step| !stream_bitmap.get(k, step));
        stats.stationary_dropped =
            stationary.iter().filter(|&(_, k, _)| partnerless(k)).count() as u64;
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigma_matrix::gen::{sparse_uniform, Density};

    fn cfg(dpes: usize, size: usize, bw: usize, df: Dataflow) -> SigmaSim {
        SigmaSim::new(SigmaConfig::new(dpes, size, bw, df).unwrap()).unwrap()
    }

    fn check_correct(sim: &SigmaSim, m: usize, k: usize, n: usize, da: f64, db: f64, seed: u64) {
        let a = sparse_uniform(m, k, Density::new(da).unwrap(), seed);
        let b = sparse_uniform(k, n, Density::new(db).unwrap(), seed + 1000);
        let run = sim.run_gemm(&a, &b).unwrap();
        let reference = a.to_dense().matmul(&b.to_dense());
        let tol = 1e-3 * k as f32;
        assert!(
            run.result.approx_eq(&reference, tol),
            "mismatch {} (max diff {})",
            sim.config().dataflow(),
            run.result.max_abs_diff(&reference)
        );
    }

    #[test]
    fn input_stationary_correct_across_densities() {
        let sim = cfg(4, 8, 8, Dataflow::InputStationary);
        for (i, d) in [0.0, 0.1, 0.3, 0.5, 0.8, 1.0].iter().enumerate() {
            check_correct(&sim, 7, 12, 5, *d, 0.6, 42 + i as u64);
        }
    }

    /// The same simulator, with stationary folds on the lockstep tick
    /// oracle and NLR pairs from the dense scan.
    fn oracle(sim: &SigmaSim) -> SigmaSim {
        SigmaSim { tick_oracle: true, ..sim.clone() }
    }

    fn assert_bits_eq(x: &Matrix, y: &Matrix, ctx: &str) {
        assert_eq!((x.rows(), x.cols()), (y.rows(), y.cols()), "{ctx}");
        for (i, (p, q)) in x.as_slice().iter().zip(y.as_slice()).enumerate() {
            assert_eq!(p.to_bits(), q.to_bits(), "{ctx}: element {i} ({p} vs {q})");
        }
    }

    /// The `perf_bench` ladder's 128- and 512-PE cases, built as
    /// `PerfCase::sim` / `PerfCase::operands` build them: geometry, shape,
    /// densities, stream bandwidth = PEs, operands seeded by case name.
    fn ladder_cases() -> Vec<(&'static str, SigmaSim, SparseMatrix, SparseMatrix)> {
        let case = |name: &'static str, dpes: usize, size: usize, mkn: [usize; 3], da, db| {
            let seed = name.bytes().fold(0xD6E8_FEB8_6659_FD93_u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3)
            });
            let [m, k, n] = mkn;
            let a = sparse_uniform(m, k, Density::clamped(da), seed);
            let b = sparse_uniform(k, n, Density::clamped(db), seed ^ 0xA5A5_A5A5);
            let cfg = SigmaConfig::clamped(dpes, size, size, Dataflow::WeightStationary)
                .with_stream_bandwidth_clamped(dpes * size);
            (name, SigmaSim::new_clamped(cfg), a, b)
        };
        vec![
            case("dense_128", 4, 32, [48, 32, 32], 1.0, 1.0),
            case("sparse_512", 8, 64, [96, 64, 48], 0.5, 0.3),
        ]
    }

    /// Runs whose streamed step counts straddle [`BLOCK_STEPS`] (1, 31,
    /// 32, 33 and 70 steps) on WS and IS. Steps 3 and 30 are dead inside
    /// live blocks, and at 70 steps so is every step from 32 on but 69:
    /// an all-dead block between live ones, then a last block whose only
    /// live step is its last lane. At 33 steps the last block is one live
    /// lane.
    fn block_edge_cases() -> Vec<(String, SigmaSim, SparseMatrix, SparseMatrix)> {
        let mut runs = Vec::new();
        for df in [Dataflow::WeightStationary, Dataflow::InputStationary] {
            for steps in [1, 31, 32, 33, 70] {
                let dead = |s: usize| s == 3 || s == 30 || (steps == 70 && s >= 32 && s != 69);
                let seed = 900 + steps as u64;
                // WS streams A's rows, IS streams B's columns.
                let (a, b) = if df == Dataflow::WeightStationary {
                    let a = sparse_uniform(steps, 14, Density::new(0.4).unwrap(), seed).to_dense();
                    let a =
                        Matrix::from_fn(steps, 14, |r, c| if dead(r) { 0.0 } else { a.get(r, c) });
                    (
                        SparseMatrix::from_dense(&a),
                        sparse_uniform(14, 9, Density::new(0.6).unwrap(), seed + 1),
                    )
                } else {
                    let b = sparse_uniform(14, steps, Density::new(0.4).unwrap(), seed).to_dense();
                    let b =
                        Matrix::from_fn(14, steps, |r, c| if dead(c) { 0.0 } else { b.get(r, c) });
                    (
                        sparse_uniform(9, 14, Density::new(0.6).unwrap(), seed + 1),
                        SparseMatrix::from_dense(&b),
                    )
                };
                let sim = cfg(4, 8, 8, df);
                runs.push((format!("{df} {steps} steps"), sim, a, b));
            }
        }
        runs
    }

    /// Operands near `f32::MAX`: products overflow to `±inf` and clusters
    /// that add `inf` to `-inf` turn NaN, on WS and IS.
    fn overflow_cases() -> Vec<(String, SigmaSim, SparseMatrix, SparseMatrix)> {
        let huge = |rows, cols, seed: u64| {
            let pattern = sparse_uniform(rows, cols, Density::new(0.7).unwrap(), seed).to_dense();
            SparseMatrix::from_dense(&Matrix::from_fn(rows, cols, |r, c| {
                let v = pattern.get(r, c);
                if v == 0.0 || (r + c) % 3 == 0 {
                    v
                } else {
                    let sign = if (5 * r + c) % 2 == 0 { 1.0 } else { -1.0 };
                    sign * f32::MAX * (0.25 + 0.5 * v.fract())
                }
            }))
        };
        [Dataflow::WeightStationary, Dataflow::InputStationary]
            .into_iter()
            .map(|df| {
                (format!("{df} overflow"), cfg(4, 8, 8, df), huge(40, 12, 77), huge(12, 37, 78))
            })
            .collect()
    }

    #[test]
    fn event_and_lockstep_paths_are_bitwise_identical() {
        // The fold loop must be indistinguishable from the tick-loop
        // oracle: same outputs (bitwise), same stats (including the idle
        // counter — the oracle executes dead steps, the fold loop skips
        // them, both charge them), same trace event sequence.
        let mut runs: Vec<(String, SigmaSim, SparseMatrix, SparseMatrix)> = Vec::new();
        for df in [Dataflow::WeightStationary, Dataflow::InputStationary] {
            for (i, &(da, db)) in
                [(0.05, 0.1), (0.3, 0.6), (1.0, 1.0), (0.5, 0.02)].iter().enumerate()
            {
                let cfg = SigmaConfig::new(4, 8, 8, df).unwrap();
                let seed = 500 + i as u64;
                let a = sparse_uniform(9, 14, Density::new(da).unwrap(), seed);
                let b = sparse_uniform(14, 11, Density::new(db).unwrap(), seed + 1);
                let ctx = format!("{df} densities ({da},{db})");
                runs.push((ctx, SigmaSim::new(cfg).unwrap(), a, b));
                if da <= 0.05 || db <= 0.05 {
                    let (_, sim, a, b) = runs.last().unwrap();
                    assert!(
                        sim.run_gemm(a, b).unwrap().stats.idle_cycles_skipped > 0,
                        "very sparse runs must have dead cycles to skip"
                    );
                }
            }
        }
        for (name, sim, a, b) in ladder_cases() {
            runs.push((name.to_string(), sim, a, b));
        }
        let edges = block_edge_cases();
        for (ctx, sim, a, b) in &edges {
            let stats = sim.run_gemm(a, b).unwrap().stats;
            assert!(
                stats.idle_cycles_skipped > 0 || ctx.ends_with(" 1 steps"),
                "{ctx}: no dead step"
            );
        }
        runs.extend(edges);
        let overflow = overflow_cases();
        for (ctx, sim, a, b) in &overflow {
            let result = sim.run_gemm(a, b).unwrap().result;
            let specials = |f: fn(&f32) -> bool| result.as_slice().iter().filter(|v| f(v)).count();
            assert!(specials(|v| v.is_infinite()) > 0 && specials(|v| v.is_nan()) > 0, "{ctx}");
        }
        runs.extend(overflow);
        for (ctx, event, a, b) in &runs {
            let (run_e, trace_e) = event.run_gemm_traced(a, b).unwrap();
            let (run_l, trace_l) = oracle(event).run_gemm_traced(a, b).unwrap();
            assert_eq!(run_e.stats, run_l.stats, "{ctx}");
            assert_eq!(trace_e, trace_l, "{ctx}");
            assert_bits_eq(&run_e.result, &run_l.result, ctx);
            assert!(run_e.stats.idle_cycles_skipped <= run_e.stats.streaming_cycles);
        }
    }

    /// Runs `plan` checked on the fold loop and on the oracle and
    /// demands identical counters, fired lists (order and cycle stamps),
    /// attempts, numeric effect, merged stats and result bits. Returns
    /// the fold loop's outcome for case-specific checks.
    fn assert_fault_parity(
        sim: &SigmaSim,
        a: &SparseMatrix,
        b: &SparseMatrix,
        plan: &FaultPlan,
        policy: &RecoveryPolicy,
        ctx: &str,
    ) -> (GemmRun, FaultReport) {
        let (run_e, rep_e) = sim.run_gemm_checked(a, b, plan, policy).unwrap();
        let (run_l, rep_l) = oracle(sim).run_gemm_checked(a, b, plan, policy).unwrap();
        assert_eq!(rep_e, rep_l, "{ctx}");
        assert_eq!(run_e.stats, run_l.stats, "{ctx}");
        assert_bits_eq(&run_e.result, &run_l.result, ctx);
        (run_e, rep_e)
    }

    #[test]
    fn fault_injection_parity_between_event_path_and_tick_oracle() {
        use crate::fault::{FaultKind, FaultSite};
        use sigma_interconnect::StuckLevel;
        let policy = RecoveryPolicy::default();
        // Every fault kind, on every site that exercises it, on both
        // stationary dataflows over seeded operands and sites.
        for seed in 0..8u64 {
            let s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(0x1234_5678);
            let m = 6 + (s % 7) as usize;
            let k = 8 + ((s >> 8) % 9) as usize;
            let n = 5 + ((s >> 16) % 8) as usize;
            let da = 0.2 + 0.1 * ((s >> 24) % 8) as f64;
            let db = 0.2 + 0.1 * ((s >> 32) % 8) as f64;
            let a = sparse_uniform(m, k, Density::new(da).unwrap(), s);
            let b = sparse_uniform(k, n, Density::new(db).unwrap(), s ^ 0xABCD);
            let dpe = (s >> 40) as usize % 4;
            let slot = (s >> 44) as usize % 8;
            let bit = 20 + ((s >> 48) % 11) as u32;
            let level = if s & 1 == 0 { StuckLevel::One } else { StuckLevel::Zero };
            let plans = [
                (FaultSite::MultiplierOutput { dpe, slot }, FaultKind::TransientFlip { bit }),
                (FaultSite::MultiplierOutput { dpe, slot }, FaultKind::StuckBit { bit, level }),
                (FaultSite::FanAdder { dpe, adder: slot % 7 }, FaultKind::StuckBit { bit, level }),
                (FaultSite::BenesPort { dpe, port: slot }, FaultKind::TransientFlip { bit }),
                (FaultSite::BenesPort { dpe, port: slot }, FaultKind::DroppedPort),
                (
                    FaultSite::BenesPort { dpe, port: slot },
                    FaultKind::MisroutedPort { from: (s >> 52) as usize % 8 },
                ),
                (
                    FaultSite::BitmapWord { word: (s >> 56) as usize % 3 },
                    FaultKind::CorruptWord { mask: 0x0f0f_0f0f_0f0f_0f0f << (s % 4) },
                ),
            ];
            for df in [Dataflow::WeightStationary, Dataflow::InputStationary] {
                let sim = SigmaSim::new(SigmaConfig::new(4, 8, 8, df).unwrap()).unwrap();
                for (site, kind) in plans {
                    let plan = FaultPlan::single(site, kind);
                    let ctx = format!("seed {seed} {df} {site} {kind:?}");
                    assert_fault_parity(&sim, &a, &b, &plan, &policy, &ctx);
                }
            }
        }
    }

    /// Why no fault stamp from a fold after fold 0 can reach a report: a
    /// fault is recorded once, at its first firing; a faulted run steps
    /// every loaded unit through every streamed step; a plan of two or
    /// more folds fills fold 0 in either packing order; and a stuck FAN
    /// adder fires when its unit reduces, whether or not a cluster spans
    /// it. So every multiplier, Benes port and adder site first fires in
    /// fold 0. This pins that, with the fold-0 stamps against the oracle;
    /// a fault model that leaves a site idle in fold 0 fails here, and
    /// that site's later-fold stamp then needs its own oracle comparison.
    #[test]
    fn every_armed_site_first_fires_in_fold_zero() {
        use crate::fault::{FaultKind, FaultSite};
        use sigma_interconnect::StuckLevel;
        let a = sparse_uniform(7, 9, Density::new(0.5).unwrap(), 81);
        let b = sparse_uniform(9, 5, Density::new(0.6).unwrap(), 82);
        let stuck = FaultKind::StuckBit { bit: 22, level: StuckLevel::One };
        let mut sites = Vec::new();
        for dpe in 0..2 {
            for slot in 0..4 {
                sites.push((FaultSite::MultiplierOutput { dpe, slot }, stuck));
                sites.push((FaultSite::BenesPort { dpe, port: slot }, FaultKind::DroppedPort));
            }
            for adder in 0..3 {
                sites.push((FaultSite::FanAdder { dpe, adder }, stuck));
            }
        }
        for df in [Dataflow::WeightStationary, Dataflow::InputStationary] {
            for order in [crate::PackingOrder::GroupMajor, crate::PackingOrder::ContractionMajor] {
                let config = SigmaConfig::new(2, 4, 4, df).unwrap().with_packing_order(order);
                let sim = SigmaSim::new(config).unwrap();
                let (clean, trace) = sim.run_gemm_traced(&a, &b).unwrap();
                assert!(clean.stats.folds >= 3, "{df} {order:?}: several folds");
                let fold0_end = trace
                    .events()
                    .iter()
                    .filter(|e| e.fold == 0)
                    .map(|e| e.start + e.cycles)
                    .max()
                    .unwrap();
                for &(site, kind) in &sites {
                    let plan = FaultPlan::single(site, kind);
                    let ctx = format!("{df} {order:?} {site}");
                    let policy = RecoveryPolicy::default();
                    let (_, report) = assert_fault_parity(&sim, &a, &b, &plan, &policy, &ctx);
                    assert_eq!(report.fired.len(), 1, "{ctx}");
                    assert!(report.fired[0].cycle <= fold0_end, "{ctx}: fired after fold 0");
                }
            }
        }
    }

    #[test]
    fn streaming_flip_on_a_dead_step_matches_the_oracle() {
        use crate::fault::{FaultKind, FaultSite};
        // Very sparse streaming operand with its first streamed vector all
        // zero: step 0 of every fold is dead, yet a transient Benes flip
        // fires there (the first time the port delivers) and turns a +0.0
        // operand into a live one. The fold loop must execute the step
        // the clean path fast-forwards, and stamp it like the tick loop.
        let dense_a = sparse_uniform(12, 14, Density::new(0.6).unwrap(), 71);
        let dense_b = sparse_uniform(14, 10, Density::new(0.6).unwrap(), 72);
        for df in [Dataflow::WeightStationary, Dataflow::InputStationary] {
            // WS streams A's rows, IS streams B's columns.
            let (a, b) = if df == Dataflow::WeightStationary {
                let mut s = sparse_uniform(12, 14, Density::new(0.05).unwrap(), 73).to_dense();
                for c in 0..14 {
                    s.set(0, c, 0.0);
                }
                (SparseMatrix::from_dense(&s), dense_b.clone())
            } else {
                let mut s = sparse_uniform(14, 10, Density::new(0.05).unwrap(), 74).to_dense();
                for r in 0..14 {
                    s.set(r, 0, 0.0);
                }
                (dense_a.clone(), SparseMatrix::from_dense(&s))
            };
            let sim = cfg(4, 8, 8, df);
            let (clean, trace) = sim.run_gemm_traced(&a, &b).unwrap();
            assert!(clean.stats.idle_cycles_skipped > 0, "{df}: step 0 is dead");
            let plan = FaultPlan::single(
                FaultSite::BenesPort { dpe: 0, port: 0 },
                FaultKind::TransientFlip { bit: 30 },
            );
            let ctx = format!("dead-step flip {df}");
            let (_, report) =
                assert_fault_parity(&sim, &a, &b, &plan, &RecoveryPolicy::default(), &ctx);
            let step0 = trace
                .events()
                .iter()
                .find(|e| e.phase == Phase::Stream && e.fold == 0 && e.step == Some(0))
                .unwrap();
            assert_eq!(report.fired.len(), 1, "{ctx}");
            assert_eq!(report.fired[0].cycle, step0.start + step0.cycles, "{ctx}");
            assert!(report.numeric_effect, "{ctx}: the flipped zero reached the output");
            let (single, _) = sim.run_gemm_with_faults(&a, &b, &plan).unwrap();
            assert!(single.stats.useful_macs > clean.stats.useful_macs, "{ctx}");
            assert_eq!(single.stats.idle_cycles_skipped, clean.stats.idle_cycles_skipped);
        }
    }

    #[test]
    fn same_step_faults_on_two_dpes_keep_the_tick_order() {
        use crate::fault::{FaultKind, FaultSite};
        // Listed dpe 1 first: the tick loop still fires dpe 0 first within
        // a step, and the fold loop must report the same order.
        let a = sparse_uniform(10, 12, Density::new(0.9).unwrap(), 81);
        let b = sparse_uniform(12, 9, Density::new(0.9).unwrap(), 82);
        for df in [Dataflow::WeightStationary, Dataflow::InputStationary] {
            let sim = cfg(4, 8, 8, df);
            let plan = FaultPlan::single(
                FaultSite::MultiplierOutput { dpe: 1, slot: 2 },
                FaultKind::TransientFlip { bit: 27 },
            )
            .with_event(
                FaultSite::MultiplierOutput { dpe: 0, slot: 3 },
                FaultKind::TransientFlip { bit: 26 },
            );
            let ctx = format!("two dpes {df}");
            let (_, report) =
                assert_fault_parity(&sim, &a, &b, &plan, &RecoveryPolicy::default(), &ctx);
            assert_eq!(report.fired.len(), 2, "{ctx}");
            assert_eq!(report.fired[0].cycle, report.fired[1].cycle, "{ctx}: same step");
            assert_eq!(report.fired[0].site, FaultSite::MultiplierOutput { dpe: 0, slot: 3 });
        }
    }

    #[test]
    fn stuck_adder_recomputes_match_the_oracle() {
        use crate::fault::{FaultKind, FaultSite};
        let a = sparse_uniform(10, 12, Density::new(0.7).unwrap(), 51);
        let b = sparse_uniform(12, 9, Density::new(0.8).unwrap(), 52);
        let plan = FaultPlan::single(
            FaultSite::FanAdder { dpe: 0, adder: 4 },
            FaultKind::StuckBit { bit: 31, level: sigma_interconnect::StuckLevel::One },
        );
        let policy = RecoveryPolicy { max_recomputes: 2 };
        for df in [Dataflow::WeightStationary, Dataflow::InputStationary] {
            let sim = cfg(2, 8, 16, df);
            let ctx = format!("stuck adder {df}");
            let (_, report) = assert_fault_parity(&sim, &a, &b, &plan, &policy, &ctx);
            assert_eq!(report.attempts, 3, "{ctx}: the stuck adder survives every recompute");
            assert_eq!(report.counters.escaped, 1, "{ctx}");
        }
    }

    /// `m` with its stored pattern widened by every `(r, c)` where
    /// `(r + 2c) % 5 == 0`, holding `+0.0` or `-0.0` there: explicit zeros
    /// only [`SparseMatrix::from_parts`] can store.
    fn with_stored_zeros(m: &SparseMatrix) -> SparseMatrix {
        let dense = m.to_dense();
        let mut bitmap = Bitmap::new(m.rows(), m.cols());
        let mut values = Vec::new();
        for r in 0..m.rows() {
            for c in 0..m.cols() {
                let v = dense.get(r, c);
                if v != 0.0 || (r + 2 * c) % 5 == 0 {
                    bitmap.set(r, c, true);
                    values.push(if v != 0.0 {
                        v
                    } else if c % 2 == 0 {
                        0.0
                    } else {
                        -0.0
                    });
                }
            }
        }
        SparseMatrix::from_parts(bitmap, values)
    }

    /// Which operand a GEMM reads in the transposed role.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Role {
        /// `A x B`, as stored ([`SigmaSim::run_gemm`]).
        Plain,
        /// `A^T x B` ([`SigmaSim::run_gemm_at`]).
        At,
        /// `A x B^T` ([`SigmaSim::run_gemm_bt`]).
        Bt,
    }

    /// Runs `role`'s GEMM on the stored `a` and `b`, traced and with
    /// `plan` armed: everything a public `run_gemm*` entry point computes,
    /// plus the trace and the fault report.
    fn run_role(
        sim: &SigmaSim,
        role: Role,
        a: &SparseMatrix,
        b: &SparseMatrix,
        plan: &FaultPlan,
    ) -> (GemmRun, Trace, FaultReport) {
        let (a, b) = (Operand::new(a), Operand::new(b));
        let (a, b) = match role {
            Role::Plain => (a, b),
            Role::At => (a.t(), b),
            Role::Bt => (a, b.t()),
        };
        let mut trace = Trace::new();
        let mut injector = FaultInjector::new(plan);
        let run = sim.run_gemm_impl(a, b, Some(&mut trace), Some(&mut injector)).unwrap();
        (run, trace, injector.into_report())
    }

    fn assert_runs_eq(
        x: &(GemmRun, Trace, FaultReport),
        y: &(GemmRun, Trace, FaultReport),
        ctx: &str,
    ) {
        assert_eq!(x.0.stats, y.0.stats, "{ctx}");
        assert_eq!(x.1, y.1, "{ctx}");
        assert_eq!(x.2, y.2, "{ctx}");
        assert_bits_eq(&x.0.result, &y.0.result, ctx);
    }

    #[test]
    fn transposed_roles_match_explicit_transposes_and_the_oracle() {
        use crate::fault::{FaultKind, FaultSite};
        // A streaming-metadata upset, which WS maps onto a stored
        // operand read transposed, and a multiplier flip NLR sees too.
        let plans = [
            FaultPlan::none(),
            FaultPlan::single(
                FaultSite::BitmapWord { word: 1 },
                FaultKind::CorruptWord { mask: 0x00ff_00f0_0f00_ff0f },
            ),
            FaultPlan::single(
                FaultSite::MultiplierOutput { dpe: 0, slot: 2 },
                FaultKind::TransientFlip { bit: 27 },
            ),
        ];
        let mut corrupted = 0;
        for df in [Dataflow::WeightStationary, Dataflow::InputStationary, Dataflow::NoLocalReuse] {
            let sim = SigmaSim::new(SigmaConfig::new(4, 8, 8, df).unwrap()).unwrap();
            for seed in 0..4u64 {
                let (m, k, n) = (9 + seed as usize, 14 + 3 * seed as usize, 7 + 2 * seed as usize);
                let density = |i: u64| Density::new(0.2 + 0.15 * ((seed + i) % 5) as f64).unwrap();
                // Stored K x M and N x K, as dW and dX read them.
                let a_km = sparse_uniform(k, m, density(0), 700 + seed);
                let b_kn = sparse_uniform(k, n, density(1), 710 + seed);
                let a_mk = sparse_uniform(m, k, density(2), 720 + seed);
                let b_nk = sparse_uniform(n, k, density(3), 730 + seed);
                for (p, plan) in plans.iter().enumerate() {
                    let cases = [
                        (Role::At, &a_km, &b_kn, a_km.transposed(), b_kn.clone()),
                        (Role::Bt, &a_mk, &b_nk, a_mk.clone(), b_nk.transposed()),
                    ];
                    for (role, a, b, a_explicit, b_explicit) in cases {
                        let ctx = format!("{df} seed {seed} {role:?} plan {p}");
                        let got = run_role(&sim, role, a, b, plan);
                        let want = run_role(&sim, Role::Plain, &a_explicit, &b_explicit, plan);
                        assert_runs_eq(&got, &want, &ctx);
                        let tick = run_role(&oracle(&sim), role, a, b, plan);
                        assert_runs_eq(&got, &tick, &format!("{ctx} oracle"));
                        if plan.is_empty() {
                            let public = match role {
                                Role::At => sim.run_gemm_at(a, b),
                                _ => sim.run_gemm_bt(a, b),
                            };
                            assert_eq!(public.unwrap().stats, got.0.stats, "{ctx}");
                        }
                        if p == 1 && df != Dataflow::NoLocalReuse {
                            corrupted += usize::from(!got.2.fired.is_empty());
                        }
                    }
                }
            }
        }
        assert_eq!(corrupted, 2 * 4 * 2, "every bitmap upset must fire");
    }

    #[test]
    fn stored_zeros_are_occupied_operands_in_every_role() {
        // The bitmap is the occupancy: a stored `±0.0` takes a multiplier
        // (stationary), a send (streaming) or an NLR pair like any other
        // stored value, in every role. Results stay products of the
        // values; the stats count the zeros.
        let a_mk = with_stored_zeros(&sparse_uniform(9, 14, Density::new(0.4).unwrap(), 61));
        let b_kn = with_stored_zeros(&sparse_uniform(14, 11, Density::new(0.5).unwrap(), 62));
        let zero_free = |m: &SparseMatrix| SparseMatrix::from_dense(&m.to_dense());
        let reference = a_mk.to_dense().matmul(&b_kn.to_dense());
        for df in [Dataflow::WeightStationary, Dataflow::InputStationary, Dataflow::NoLocalReuse] {
            let sim = cfg(4, 8, 8, df);
            let none = FaultPlan::none();
            let plain = run_role(&sim, Role::Plain, &a_mk, &b_kn, &none);
            let (a_km, b_nk) = (a_mk.transposed(), b_kn.transposed());
            for (role, a, b) in
                [(Role::Plain, &a_mk, &b_kn), (Role::At, &a_km, &b_kn), (Role::Bt, &a_mk, &b_nk)]
            {
                let ctx = format!("{df} {role:?}");
                let got = run_role(&sim, role, a, b, &none);
                assert_runs_eq(&got, &run_role(&oracle(&sim), role, a, b, &none), &ctx);
                assert_runs_eq(&got, &plain, &ctx);
                assert!(got.0.result.approx_eq(&reference, 1e-3), "{ctx}");
            }
            let clean = sim.run_gemm(&zero_free(&a_mk), &zero_free(&b_kn)).unwrap().stats;
            if df == Dataflow::NoLocalReuse {
                assert!(plain.0.stats.useful_macs > clean.useful_macs, "{df}");
            } else {
                assert!(plain.0.stats.mapped_nonzeros > clean.mapped_nonzeros, "{df}");
                assert!(plain.0.stats.sram_reads > clean.sram_reads, "{df}");
            }
        }
    }

    /// NLR operand pairs over an empty contraction and every length that
    /// straddles a bitset word edge: random, dense, all-zero, with an
    /// empty row of A
    /// and an empty column of B, and with stored `±0.0` values.
    fn nlr_operand_cases() -> Vec<(String, SparseMatrix, SparseMatrix)> {
        let mut cases = Vec::new();
        for (t, k) in [0usize, 1, 63, 64, 65, 130].into_iter().enumerate() {
            let seed = 900 + 10 * t as u64;
            let (m, n) = (7, 6);
            for (da, db) in [(0.3, 0.4), (1.0, 1.0), (0.0, 0.6), (0.6, 0.0)] {
                let a = sparse_uniform(m, k, Density::new(da).unwrap(), seed);
                let b = sparse_uniform(k, n, Density::new(db).unwrap(), seed + 1);
                cases.push((format!("k={k} densities ({da},{db})"), a, b));
            }
            let mut a = sparse_uniform(m, k, Density::new(0.5).unwrap(), seed + 2).to_dense();
            let mut b = sparse_uniform(k, n, Density::new(0.5).unwrap(), seed + 3).to_dense();
            for kk in 0..k {
                a.set(2, kk, 0.0);
                b.set(kk, 3, 0.0);
            }
            let (a, b) = (SparseMatrix::from_dense(&a), SparseMatrix::from_dense(&b));
            cases.push((
                format!("k={k} stored zeros"),
                with_stored_zeros(&a),
                with_stored_zeros(&b),
            ));
            cases.push((format!("k={k} empty row and column"), a, b));
        }
        cases.extend(nlr_wave_edge_cases());
        cases
    }

    /// Operands whose outputs end on the wave and chunk edges of both NLR
    /// test geometries (16 PEs as 2×8, 64 PEs as 4×16). A's rows 0 and 2
    /// are dense and row 1 is empty, so row 0's outputs end after 16, 24,
    /// 64, 264 and 272 pairs, and row 2's after 272 more of each:
    /// - 16 ends a 16-PE wave and a 16-wide chunk;
    /// - 24 ends an 8-wide chunk inside a 16-PE wave;
    /// - 64 ends a wave of either size;
    /// - output (0, 3) spans waves 64..264, at least 4 of either size.
    ///
    /// A last case has non-zeros on disjoint contractions: no pairs.
    fn nlr_wave_edge_cases() -> Vec<(String, SparseMatrix, SparseMatrix)> {
        let k = 230;
        let mut a = Matrix::zeros(3, k);
        for kk in 0..k {
            a.set(0, kk, 1.0 + kk as f32 / 64.0);
            a.set(2, kk, -0.5 - kk as f32 / 128.0);
        }
        let mut b = Matrix::zeros(k, 5);
        for (j, pairs) in [16, 8, 40, 200, 8].into_iter().enumerate() {
            for t in 0..pairs {
                let kk = (13 * j + t) % k;
                b.set(kk, j, if t % 3 == 0 { -0.75 } else { 0.25 + t as f32 / 32.0 });
            }
        }
        let mut even = Matrix::zeros(4, k);
        let mut odd = Matrix::zeros(k, 3);
        for kk in (0..k).step_by(2) {
            even.set(kk % 4, kk, 1.5);
            odd.set(kk + 1, (kk + 1) % 3, 2.5);
        }
        vec![
            (
                "wave and chunk edges".to_string(),
                SparseMatrix::from_dense(&a),
                SparseMatrix::from_dense(&b),
            ),
            (
                "no pairs".to_string(),
                SparseMatrix::from_dense(&even),
                SparseMatrix::from_dense(&odd),
            ),
        ]
    }

    #[test]
    fn nlr_pair_enumeration_matches_the_dense_oracle() {
        for (ctx, a, b) in nlr_operand_cases() {
            for sim in
                [cfg(2, 8, 16, Dataflow::NoLocalReuse), cfg(4, 16, 8, Dataflow::NoLocalReuse)]
            {
                let (run, trace) = sim.run_gemm_traced(&a, &b).unwrap();
                let (run_o, trace_o) = oracle(&sim).run_gemm_traced(&a, &b).unwrap();
                assert_eq!(run.stats, run_o.stats, "{ctx}");
                assert_eq!(trace, trace_o, "{ctx}");
                assert_bits_eq(&run.result, &run_o.result, &ctx);
                // Every wave but the last is full.
                let pes = sim.config().total_pes() as u128;
                assert_eq!(u128::from(run.stats.folds), run.stats.useful_macs.div_ceil(pes));
                match ctx.as_str() {
                    "wave and chunk edges" => assert_eq!(run.stats.useful_macs, 544),
                    "no pairs" => {
                        assert_eq!(run.stats.useful_macs, 0);
                        assert!(trace.events().is_empty(), "a GEMM without pairs issues no wave");
                    }
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn nlr_fault_paths_match_the_dense_oracle() {
        use crate::fault::{FaultKind, FaultSite};
        use sigma_interconnect::StuckLevel;
        let plans = [
            FaultPlan::single(
                FaultSite::MultiplierOutput { dpe: 0, slot: 3 },
                FaultKind::TransientFlip { bit: 27 },
            ),
            FaultPlan::single(
                FaultSite::MultiplierOutput { dpe: 1, slot: 5 },
                FaultKind::StuckBit { bit: 30, level: StuckLevel::One },
            ),
            FaultPlan::single(
                FaultSite::FanAdder { dpe: 0, adder: 3 },
                FaultKind::StuckBit { bit: 31, level: StuckLevel::One },
            )
            .with_event(
                FaultSite::FanAdder { dpe: 1, adder: 6 },
                FaultKind::StuckBit { bit: 2, level: StuckLevel::Zero },
            )
            .with_event(
                FaultSite::MultiplierOutput { dpe: 1, slot: 0 },
                FaultKind::TransientFlip { bit: 29 },
            ),
        ];
        let policy = RecoveryPolicy::default();
        let sim = cfg(2, 8, 16, Dataflow::NoLocalReuse);
        let mut fired = 0usize;
        for (ctx, a, b) in nlr_operand_cases() {
            for (p, plan) in plans.iter().enumerate() {
                let ctx = format!("{ctx} plan {p}");
                let (run, rep) = sim.run_gemm_with_faults(&a, &b, plan).unwrap();
                let (run_o, rep_o) = oracle(&sim).run_gemm_with_faults(&a, &b, plan).unwrap();
                assert_eq!(rep, rep_o, "{ctx}");
                assert_eq!(run.stats, run_o.stats, "{ctx}");
                assert_bits_eq(&run.result, &run_o.result, &ctx);
                fired += rep.fired.len();
                assert_fault_parity(&sim, &a, &b, plan, &policy, &ctx);
            }
        }
        assert!(fired > 50, "the plans must fire on most cases ({fired} fired)");
    }

    #[test]
    fn weight_stationary_correct_across_densities() {
        let sim = cfg(4, 8, 8, Dataflow::WeightStationary);
        for (i, d) in [0.0, 0.2, 0.5, 0.9, 1.0].iter().enumerate() {
            check_correct(&sim, 6, 10, 9, 0.7, *d, 99 + i as u64);
        }
    }

    #[test]
    fn no_local_reuse_correct() {
        let sim = cfg(2, 8, 16, Dataflow::NoLocalReuse);
        check_correct(&sim, 5, 9, 6, 0.4, 0.5, 7);
        check_correct(&sim, 3, 4, 3, 1.0, 1.0, 8);
    }

    #[test]
    fn irregular_shapes_correct() {
        let sim = cfg(2, 16, 16, Dataflow::InputStationary);
        check_correct(&sim, 1, 40, 3, 0.5, 0.5, 11); // tall-skinny contraction
        check_correct(&sim, 17, 2, 23, 0.8, 0.8, 12); // fat-short
    }

    #[test]
    fn dense_regular_full_utilization() {
        let sim = cfg(2, 8, 16, Dataflow::InputStationary);
        let a = sparse_uniform(4, 4, Density::DENSE, 1);
        let b = sparse_uniform(4, 4, Density::DENSE, 2);
        let run = sim.run_gemm(&a, &b).unwrap();
        assert_eq!(run.stats.stationary_utilization(), 1.0);
        assert_eq!(run.stats.folds, 1);
        assert_eq!(run.stats.useful_macs, 64);
        assert_eq!(run.stats.issued_macs, 64);
        assert_eq!(run.stats.compute_efficiency(), 1.0);
    }

    #[test]
    fn sparse_stationary_maps_only_nonzeros() {
        let sim = cfg(2, 8, 16, Dataflow::InputStationary);
        let a = sparse_uniform(8, 8, Density::new(0.25).unwrap(), 3);
        let b = sparse_uniform(8, 8, Density::DENSE, 4);
        let run = sim.run_gemm(&a, &b).unwrap();
        // 16 non-zeros on 16 PEs: one fold, 100% stationary utilization.
        assert_eq!(run.stats.stationary_utilization(), 1.0);
        assert_eq!(run.stats.mapped_nonzeros, 16);
        assert_eq!(run.stats.folds, 1);
    }

    #[test]
    fn streaming_sparsity_limits_compute_efficiency() {
        let sim = cfg(2, 8, 1024, Dataflow::InputStationary);
        let a = sparse_uniform(4, 4, Density::DENSE, 5);
        let b = sparse_uniform(4, 64, Density::new(0.3).unwrap(), 6);
        let run = sim.run_gemm(&a, &b).unwrap();
        let eff = run.stats.compute_efficiency();
        assert!((0.15..=0.45).contains(&eff), "compute efficiency {eff} should track ~0.3");
    }

    #[test]
    fn folding_when_stationary_exceeds_pes() {
        let sim = cfg(2, 4, 8, Dataflow::InputStationary);
        let a = sparse_uniform(8, 8, Density::DENSE, 7); // 64 nnz on 8 PEs
        let b = sparse_uniform(8, 4, Density::DENSE, 8);
        let run = sim.run_gemm(&a, &b).unwrap();
        assert_eq!(run.stats.folds, 8);
        let reference = a.to_dense().matmul(&b.to_dense());
        assert!(run.result.approx_eq(&reference, 1e-2));
    }

    #[test]
    fn bandwidth_serializes_loading() {
        let wide = cfg(2, 8, 16, Dataflow::InputStationary);
        let narrow = cfg(2, 8, 2, Dataflow::InputStationary);
        let a = sparse_uniform(4, 4, Density::DENSE, 9);
        let b = sparse_uniform(4, 4, Density::DENSE, 10);
        let fast = wide.run_gemm(&a, &b).unwrap().stats;
        let slow = narrow.run_gemm(&a, &b).unwrap().stats;
        assert!(slow.loading_cycles > fast.loading_cycles);
        assert!(slow.total_cycles() > fast.total_cycles());
    }

    #[test]
    fn best_stationary_picks_lower_latency() {
        let sim = cfg(2, 8, 8, Dataflow::WeightStationary);
        // Very sparse A, dense B: keeping the sparser matrix stationary
        // (input-stationary) needs fewer folds.
        let a = sparse_uniform(32, 16, Density::new(0.1).unwrap(), 13);
        let b = sparse_uniform(16, 32, Density::DENSE, 14);
        let (df, run) = sim.run_best_stationary(&a, &b).unwrap();
        let ws = cfg(2, 8, 8, Dataflow::WeightStationary).run_gemm(&a, &b).unwrap();
        let is = cfg(2, 8, 8, Dataflow::InputStationary).run_gemm(&a, &b).unwrap();
        let best = ws.stats.total_cycles().min(is.stats.total_cycles());
        assert_eq!(run.stats.total_cycles(), best);
        assert!(df == Dataflow::WeightStationary || df == Dataflow::InputStationary);
    }

    #[test]
    fn contraction_major_packing_is_correct_and_cuts_sram_traffic() {
        use crate::controller::PackingOrder;
        // Narrow stream bandwidth: per-step sends dominate streaming.
        let base = SigmaConfig::new(2, 16, 4, Dataflow::InputStationary).unwrap();
        let gm = SigmaSim::new(base).unwrap();
        let cm = SigmaSim::new(base.with_packing_order(PackingOrder::ContractionMajor)).unwrap();
        let a = sparse_uniform(64, 16, Density::DENSE, 71); // 1024 nnz, 32 folds
        let b = sparse_uniform(16, 12, Density::DENSE, 72);
        let g = gm.run_gemm(&a, &b).unwrap();
        let c = cm.run_gemm(&a, &b).unwrap();
        let reference = a.to_dense().matmul(&b.to_dense());
        assert!(g.result.approx_eq(&reference, 1e-2));
        assert!(c.result.approx_eq(&reference, 1e-2));
        // Same folds, but contraction-major folds hold fewer distinct k,
        // so each streamed value multicasts wider: fewer SRAM reads and
        // fewer streaming cycles at narrow bandwidth.
        assert_eq!(g.stats.folds, c.stats.folds);
        assert!(
            c.stats.sram_reads < g.stats.sram_reads,
            "cm {} vs gm {}",
            c.stats.sram_reads,
            g.stats.sram_reads
        );
        assert!(c.stats.streaming_cycles <= g.stats.streaming_cycles);
    }

    #[test]
    fn trace_is_consistent_with_stats() {
        let sim = cfg(2, 8, 4, Dataflow::InputStationary);
        let a = sparse_uniform(10, 12, Density::new(0.6).unwrap(), 61);
        let b = sparse_uniform(12, 7, Density::new(0.5).unwrap(), 62);
        let (run, trace) = sim.run_gemm_traced(&a, &b).unwrap();
        assert!(trace.consistent_with(&run.stats), "trace:\n{}", trace.fold_summary());
        // Traced and untraced runs are identical.
        let plain = sim.run_gemm(&a, &b).unwrap();
        assert_eq!(plain, run);
        // One load + one drain per fold, `steps` stream events per fold.
        let folds = run.stats.folds as usize;
        let loads = trace.events().iter().filter(|e| e.phase == crate::trace::Phase::Load).count();
        assert_eq!(loads, folds);
        let streams =
            trace.events().iter().filter(|e| e.phase == crate::trace::Phase::Stream).count();
        assert_eq!(streams, folds * 7);
    }

    #[test]
    fn backward_pass_gemms_match_reference() {
        let sim = cfg(2, 8, 16, Dataflow::InputStationary);
        // dW = X^T dY with X: K x M-shaped storage (rows shared).
        let x = sparse_uniform(10, 6, Density::new(0.6).unwrap(), 21);
        let dy = sparse_uniform(10, 7, Density::new(0.6).unwrap(), 22);
        let run = sim.run_gemm_at(&x, &dy).unwrap();
        let reference = x.to_dense().matmul_at(&dy.to_dense());
        assert!(run.result.approx_eq(&reference, 1e-3));

        // dX = dY W^T with shared columns.
        let dy2 = sparse_uniform(5, 9, Density::new(0.7).unwrap(), 23);
        let w = sparse_uniform(8, 9, Density::new(0.7).unwrap(), 24);
        let run2 = sim.run_gemm_bt(&dy2, &w).unwrap();
        let reference2 = dy2.to_dense().matmul_bt(&w.to_dense());
        assert!(run2.result.approx_eq(&reference2, 1e-3));
    }

    #[test]
    fn backward_pass_dimension_checks() {
        let sim = cfg(2, 8, 16, Dataflow::InputStationary);
        let a = sparse_uniform(4, 5, Density::DENSE, 1);
        let b = sparse_uniform(6, 5, Density::DENSE, 2);
        assert!(sim.run_gemm_at(&a, &b).is_err()); // rows 4 vs 6
        assert!(sim.run_gemm_bt(&a, &b).is_ok()); // cols 5 == 5
        let c = sparse_uniform(6, 7, Density::DENSE, 3);
        assert!(sim.run_gemm_bt(&a, &c).is_err()); // cols 5 vs 7
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let sim = cfg(2, 8, 8, Dataflow::InputStationary);
        let a = sparse_uniform(4, 5, Density::DENSE, 1);
        let b = sparse_uniform(6, 4, Density::DENSE, 2);
        assert_eq!(
            sim.run_gemm(&a, &b).unwrap_err(),
            SigmaError::DimensionMismatch { k_a: 5, k_b: 6 }
        );
    }

    #[test]
    fn zero_matrix_yields_zero_result_and_no_folds() {
        let sim = cfg(2, 8, 8, Dataflow::InputStationary);
        let a = sparse_uniform(4, 4, Density::new(0.0).unwrap(), 1);
        let b = sparse_uniform(4, 4, Density::DENSE, 2);
        let run = sim.run_gemm(&a, &b).unwrap();
        assert_eq!(run.result, Matrix::zeros(4, 4));
        assert_eq!(run.stats.folds, 0);
        assert_eq!(run.stats.total_cycles(), 0);
    }

    #[test]
    fn no_local_reuse_has_no_loading() {
        let sim = cfg(2, 8, 8, Dataflow::NoLocalReuse);
        let a = sparse_uniform(6, 6, Density::new(0.5).unwrap(), 3);
        let b = sparse_uniform(6, 6, Density::new(0.5).unwrap(), 4);
        let run = sim.run_gemm(&a, &b).unwrap();
        assert_eq!(run.stats.loading_cycles, 0);
        assert_eq!(run.stats.useful_macs, run.stats.issued_macs);
    }

    #[test]
    fn non_finite_inputs_rejected() {
        let sim = cfg(2, 8, 8, Dataflow::InputStationary);
        let mut bad = Matrix::zeros(4, 4);
        bad.set(1, 2, f32::NAN);
        let a = SparseMatrix::from_dense(&bad);
        let b = sparse_uniform(4, 4, Density::DENSE, 2);
        assert_eq!(sim.run_gemm(&a, &b).unwrap_err(), SigmaError::NonFiniteInput { operand: "A" });
        let mut inf = Matrix::zeros(4, 4);
        inf.set(0, 0, f32::INFINITY);
        let b_bad = SparseMatrix::from_dense(&inf);
        let good = sparse_uniform(4, 4, Density::DENSE, 3);
        assert_eq!(
            sim.run_gemm(&good, &b_bad).unwrap_err(),
            SigmaError::NonFiniteInput { operand: "B" }
        );
    }

    fn fault_fixture(df: Dataflow) -> (SigmaSim, SparseMatrix, SparseMatrix) {
        let sim = cfg(2, 8, 16, df);
        let a = sparse_uniform(10, 12, Density::new(0.7).unwrap(), 51);
        let b = sparse_uniform(12, 9, Density::new(0.8).unwrap(), 52);
        (sim, a, b)
    }

    #[test]
    fn empty_plan_is_byte_identical() {
        for df in [Dataflow::InputStationary, Dataflow::WeightStationary, Dataflow::NoLocalReuse] {
            let (sim, a, b) = fault_fixture(df);
            let plain = sim.run_gemm(&a, &b).unwrap();
            let (faulted, report) = sim.run_gemm_with_faults(&a, &b, &FaultPlan::none()).unwrap();
            assert_eq!(plain, faulted, "{df}");
            assert!(report.fired.is_empty());
        }
    }

    #[test]
    fn transient_flip_is_detected_and_recovered() {
        let (sim, a, b) = fault_fixture(Dataflow::InputStationary);
        let clean = sim.run_gemm(&a, &b).unwrap();
        // Flip an exponent bit of the first multiplier's output: a large,
        // detectable corruption.
        let plan = FaultPlan::single(
            crate::fault::FaultSite::MultiplierOutput { dpe: 0, slot: 0 },
            crate::fault::FaultKind::TransientFlip { bit: 26 },
        );
        let (run, report) =
            sim.run_gemm_checked(&a, &b, &plan, &RecoveryPolicy::default()).unwrap();
        assert_eq!(report.counters.injected, 1);
        assert!(report.counters.detected >= 1, "report: {report:?}");
        assert!(report.counters.corrected >= 1, "report: {report:?}");
        assert_eq!(report.counters.escaped, 0);
        assert!(report.numeric_effect);
        // Recovery restored the fault-free result (the subtracted residual
        // is itself a float estimate, so equality holds to the ABFT
        // tolerance, not bitwise).
        let tol = sigma_matrix::abft::residual_tolerance(10, 9, 12);
        assert!(run.result.approx_eq(&clean.result, tol));
        assert_eq!(run.stats.faults_corrected, report.counters.corrected);
    }

    #[test]
    fn stuck_adder_exhausts_recompute_and_escapes() {
        let (sim, a, b) = fault_fixture(Dataflow::InputStationary);
        // A persistent sign-stuck adder near the FAN root corrupts a whole
        // cluster every cycle: multi-site, uncorrectable, survives
        // recompute.
        let plan = FaultPlan::single(
            crate::fault::FaultSite::FanAdder { dpe: 0, adder: 4 },
            crate::fault::FaultKind::StuckBit {
                bit: 31,
                level: sigma_interconnect::StuckLevel::One,
            },
        );
        let policy = RecoveryPolicy { max_recomputes: 1 };
        let (run, report) = sim.run_gemm_checked(&a, &b, &plan, &policy).unwrap();
        assert!(report.counters.detected >= 1, "report: {report:?}");
        assert_eq!(report.counters.escaped, 1, "report: {report:?}");
        assert_eq!(report.attempts, 2); // initial + 1 recompute
        assert_eq!(run.stats.faults_escaped, 1);
    }

    #[test]
    fn bitmap_corruption_perturbs_the_plan() {
        let (sim, a, b) = fault_fixture(Dataflow::InputStationary);
        let clean = sim.run_gemm(&a, &b).unwrap();
        // Clear/flip the first metadata word of the streaming operand:
        // the controller drops (or invents) streamed values.
        let plan = FaultPlan::single(
            crate::fault::FaultSite::BitmapWord { word: 0 },
            crate::fault::FaultKind::CorruptWord { mask: u64::MAX },
        );
        let (run, report) = sim.run_gemm_with_faults(&a, &b, &plan).unwrap();
        assert_eq!(report.fired.len(), 1);
        assert!(
            run.result.max_abs_diff(&clean.result) > 0.0,
            "flipping a dense streaming word must change the result"
        );
    }

    #[test]
    fn bitmap_corruption_that_flips_nothing_is_not_injected() {
        use crate::fault::{FaultKind, FaultSite};
        // The fault campaign's smoke shape (M=10, N=9, K=12): both
        // dataflows stream a two-word bitmap (WS 12x10, IS 12x9 bits), so
        // words 2 and 3 do not exist and bit 60 of word 1 lies past the
        // logical end. Such a corruption changes nothing and must not
        // count as injected.
        let a = sparse_uniform(10, 12, Density::new(0.6).unwrap(), 91);
        let b = sparse_uniform(12, 9, Density::new(0.7).unwrap(), 92);
        for df in [Dataflow::WeightStationary, Dataflow::InputStationary] {
            let sim = cfg(4, 8, 32, df);
            let clean = sim.run_gemm(&a, &b).unwrap();
            for (word, mask) in [(2, 1u64), (3, 1 << 7), (1, 1 << 60)] {
                let plan = FaultPlan::single(
                    FaultSite::BitmapWord { word },
                    FaultKind::CorruptWord { mask },
                );
                let ctx = format!("{df} word {word} mask {mask:#x}");
                let (run, report) = sim.run_gemm_with_faults(&a, &b, &plan).unwrap();
                assert_eq!(report.counters.injected, 0, "{ctx}");
                assert!(report.fired.is_empty(), "{ctx}");
                assert_eq!(run.stats, clean.stats, "{ctx}");
                assert_bits_eq(&run.result, &clean.result, &ctx);
                let (_, checked) =
                    assert_fault_parity(&sim, &a, &b, &plan, &RecoveryPolicy::default(), &ctx);
                assert_eq!(checked.counters, crate::fault::FaultCounters::default(), "{ctx}");
            }
        }
    }

    #[test]
    fn dropped_port_fires_with_site_and_cycle() {
        let (sim, a, b) = fault_fixture(Dataflow::WeightStationary);
        let plan = FaultPlan::single(
            crate::fault::FaultSite::BenesPort { dpe: 0, port: 2 },
            crate::fault::FaultKind::DroppedPort,
        );
        let (_, report) = sim.run_gemm_with_faults(&a, &b, &plan).unwrap();
        assert_eq!(report.fired.len(), 1);
        assert_eq!(report.fired[0].site, crate::fault::FaultSite::BenesPort { dpe: 0, port: 2 });
    }

    #[test]
    fn checked_run_without_faults_is_clean_and_uncounted() {
        let (sim, a, b) = fault_fixture(Dataflow::InputStationary);
        let (run, report) =
            sim.run_gemm_checked(&a, &b, &FaultPlan::none(), &RecoveryPolicy::default()).unwrap();
        assert_eq!(report.counters, crate::fault::FaultCounters::default());
        assert_eq!(report.attempts, 1);
        assert!(!report.numeric_effect);
        assert_eq!(run.result, sim.run_gemm(&a, &b).unwrap().result);
        assert_eq!(run.stats.faults_injected, 0);
    }

    #[test]
    fn route_cache_stats_surface_in_cycle_stats() {
        let sim = cfg(2, 4, 8, Dataflow::InputStationary);
        let a = sparse_uniform(8, 8, Density::DENSE, 7); // 64 nnz on 8 PEs: 8 folds
        let b = sparse_uniform(8, 4, Density::DENSE, 8);
        let run = sim.run_gemm(&a, &b).unwrap();
        // 16 full-prefix loads over two units: each unit misses once.
        assert_eq!(run.stats.route_cache_misses, 2);
        assert_eq!(run.stats.route_cache_hits, 14);
    }

    /// `(stream_steps, fan_adds, fan_cluster_sums, stationary_dropped)`,
    /// then the derived SRAM stationary reads, SRAM streaming reads and
    /// Benes loads, then `(count, sum, max)` per histogram in
    /// [`Hist::ALL`] order.
    type WorkPins = ([u64; 4], [u64; 3], [(u64, u64, u64); 5]);

    /// Fixed IS, WS and NLR GEMMs with pinned work counts. The pins are
    /// what the telemetry registry's seven counters and five histograms
    /// read on these GEMMs at `90617d3`, the last commit where the counts
    /// lived in the registry, so they show that moving the counts into
    /// [`CycleStats`] kept each one's meaning. The operands have an empty
    /// row and column each: a dead streamed step and dropped stationary
    /// non-zeros on both stationary dataflows. IS runs 4 folds, WS 2 and
    /// NLR 11 waves. Telemetry stays observational: a recording simulator
    /// returns the same run, bit for bit.
    #[test]
    fn work_counts_are_pinned_and_telemetry_is_observational() {
        let mut a = sparse_uniform(10, 12, Density::new(0.6).unwrap(), 61).to_dense();
        let mut b = sparse_uniform(12, 7, Density::new(0.5).unwrap(), 62).to_dense();
        for k in 0..12 {
            a.set(2, k, 0.0); // a dead WS step
            b.set(k, 3, 0.0); // a dead IS step
        }
        for r in 0..10 {
            a.set(r, 7, 0.0); // drops B's row 7 on WS
        }
        for c in 0..7 {
            b.set(5, c, 0.0); // drops A's column 5 on IS
        }
        let (a, b) = (SparseMatrix::from_dense(&a), SparseMatrix::from_dense(&b));
        let cases: [(Dataflow, u64, WorkPins); 3] = [
            (
                Dataflow::InputStationary,
                4,
                (
                    [49, 294, 98, 4],
                    [56, 107, 7],
                    [(35, 56, 3), (7, 700, 100), (49, 4172, 100), (49, 1218, 37), (28, 28, 1)],
                ),
            ),
            (
                Dataflow::WeightStationary,
                2,
                (
                    [40, 220, 80, 4],
                    [30, 99, 4],
                    [(18, 30, 3), (4, 375, 100), (40, 3120, 85), (40, 990, 37), (20, 20, 1)],
                ),
            ),
            (Dataflow::NoLocalReuse, 11, ([11, 106, 66, 0], [0, 344, 0], [(0, 0, 0); 5])),
        ];
        for (dataflow, folds, (counts, derived, hists)) in cases {
            let base = SigmaConfig::new(2, 8, 16, dataflow).unwrap();
            let plain = SigmaSim::new(base).unwrap();
            let tele = SigmaSim::new(base.with_telemetry(true)).unwrap();
            let p = plain.run_gemm(&a, &b).unwrap();
            let t = tele.run_gemm(&a, &b).unwrap();
            assert_eq!(p, t, "{dataflow}: telemetry is observational only");
            assert_eq!(oracle(&plain).run_gemm(&a, &b).unwrap().stats, p.stats, "{dataflow}");
            let s = p.stats;
            assert_eq!(s.folds, folds, "{dataflow}");
            assert_eq!(
                [s.stream_steps, s.fan_adds, s.fan_cluster_sums, s.stationary_dropped],
                counts,
                "{dataflow}"
            );
            let benes_loads = s.route_cache_hits + s.route_cache_misses;
            let derived_now = [s.mapped_nonzeros, s.sram_reads - s.mapped_nonzeros, benes_loads];
            assert_eq!(derived_now, derived, "{dataflow}");
            if dataflow != Dataflow::NoLocalReuse {
                assert!(s.idle_cycles_skipped > 0, "{dataflow}: the fixture has a dead step");
            }
            assert!(!plain.telemetry_handle().snapshot().enabled);
            let snap = tele.telemetry_handle().snapshot();
            assert!(snap.enabled);
            let recorded: Vec<_> = snap.hists.iter().map(|h| (h.count, h.sum, h.max)).collect();
            assert_eq!(recorded, hists, "{dataflow}");
        }
    }

    #[test]
    fn no_local_reuse_bandwidth_serialization() {
        // NLR needs 2 operands per multiplier: with bw == pes it takes ~2x
        // the streaming cycles of the pair count / pes.
        let sim = cfg(2, 4, 8, Dataflow::NoLocalReuse);
        let a = sparse_uniform(8, 8, Density::DENSE, 5);
        let b = sparse_uniform(8, 8, Density::DENSE, 6);
        let run = sim.run_gemm(&a, &b).unwrap();
        let pairs = 8u64 * 8 * 8;
        assert_eq!(run.stats.streaming_cycles, 2 * pairs / 8);
    }
}
