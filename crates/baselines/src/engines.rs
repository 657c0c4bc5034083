//! [`Engine`] implementations for every baseline accelerator.
//!
//! The experiment harness drives all designs — SIGMA (whose impl lives in
//! `sigma-core`) plus the eight baselines here — through the one
//! object-safe [`Engine`] trait: the two systolic dataflows, EIE,
//! OuterSPACE, SCNN, Cambricon-X, Eyeriss v2, the packed (column-combined)
//! systolic array, and the V100 roofline model. Analytic
//! [`GemmAccelerator`] models are adapted via [`AnalyticEngine`].
//!
//! Each adapter maps its engine's native latency terms onto the paper's
//! Table-II [`CycleStats`] buckets so every design reports through one
//! record schema: load-like phases into `loading_cycles`, pipelined
//! compute into `streaming_cycles`, serialized post-compute phases into
//! `add_cycles`.

use crate::cambricon_functional::CambriconSim;
use crate::eie_functional::EieSim;
use crate::eyeriss_functional::EyerissV2Sim;
use crate::gpu::{GpuModel, GpuPrecision};
use crate::outerspace_functional::OuterProductSim;
use crate::packed_functional::run_packed_gemm;
use crate::scnn_functional::ScnnSim;
use crate::systolic_functional::SystolicSim;
use crate::GemmAccelerator;
use sigma_core::model::GemmProblem;
use sigma_core::{CycleStats, Engine, EngineError, GemmRun};
use sigma_matrix::{GemmShape, SparseMatrix};

/// Useful (both-operands-non-zero) MACs of `A x B`, from the bitmaps:
/// `Σ_k nnz(A[:,k]) * nnz(B[k,:])`.
#[must_use]
pub fn useful_macs(a: &SparseMatrix, b: &SparseMatrix) -> u128 {
    (0..a.cols())
        .map(|k| a.bitmap().col_count_ones(k) as u128 * b.bitmap().row_count_ones(k) as u128)
        .sum()
}

fn check_dims(a: &SparseMatrix, b: &SparseMatrix) -> Result<(), EngineError> {
    if a.cols() != b.rows() {
        return Err(EngineError::DimensionMismatch { k_a: a.cols(), k_b: b.rows() });
    }
    sigma_core::validate_finite(a, b)
}

/// The [`GemmProblem`] an operand pair actually poses: its shape and its
/// *measured* densities.
#[must_use]
pub fn problem_of(a: &SparseMatrix, b: &SparseMatrix) -> GemmProblem {
    let shape = GemmShape::new(a.rows(), b.cols(), a.cols());
    let da =
        if a.rows() * a.cols() == 0 { 0.0 } else { a.nnz() as f64 / (a.rows() * a.cols()) as f64 };
    let db =
        if b.rows() * b.cols() == 0 { 0.0 } else { b.nnz() as f64 / (b.rows() * b.cols()) as f64 };
    GemmProblem::sparse(shape, da, db)
}

/// Which stationary mapping a [`SystolicEngine`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystolicMapping {
    /// Weights stationary, activations streamed (the TPU default).
    WeightStationary,
    /// Outputs stationary, both operands streamed.
    OutputStationary,
}

/// The functional rigid systolic array behind one [`Engine`] face.
#[derive(Debug, Clone, Copy)]
pub struct SystolicEngine {
    rows: usize,
    cols: usize,
    mapping: SystolicMapping,
}

impl SystolicEngine {
    /// An `rows x cols` weight-stationary array.
    #[must_use]
    pub fn weight_stationary(rows: usize, cols: usize) -> Self {
        Self { rows, cols, mapping: SystolicMapping::WeightStationary }
    }

    /// An `rows x cols` output-stationary array.
    #[must_use]
    pub fn output_stationary(rows: usize, cols: usize) -> Self {
        Self { rows, cols, mapping: SystolicMapping::OutputStationary }
    }
}

impl Engine for SystolicEngine {
    fn name(&self) -> String {
        let tag = match self.mapping {
            SystolicMapping::WeightStationary => "WS",
            SystolicMapping::OutputStationary => "OS",
        };
        format!("Systolic {}x{} ({tag})", self.rows, self.cols)
    }

    fn pes(&self) -> usize {
        self.rows * self.cols
    }

    fn run(&self, a: &SparseMatrix, b: &SparseMatrix) -> Result<GemmRun, EngineError> {
        check_dims(a, b)?;
        let (ad, bd) = (a.to_dense(), b.to_dense());
        let sim = SystolicSim::new(self.rows, self.cols);
        let run = match self.mapping {
            SystolicMapping::WeightStationary => sim.run_gemm(&ad, &bd),
            SystolicMapping::OutputStationary => sim.run_gemm_output_stationary(&ad, &bd),
        };
        let (m, n, k) = (a.rows(), b.cols(), a.cols());
        let stats = CycleStats {
            streaming_cycles: run.cycles,
            folds: run.folds,
            useful_macs: useful_macs(a, b),
            issued_macs: (m * n * k) as u128, // a rigid array issues every slot
            mapped_nonzeros: b.nnz() as u64,
            occupied_slots: (k * n) as u64, // stationary tile slots incl. zeros
            pes: (self.rows * self.cols) as u64,
            ..CycleStats::default()
        };
        Ok(GemmRun { result: run.result, stats })
    }
}

/// EIE behind the [`Engine`] face.
#[derive(Debug, Clone, Copy)]
pub struct EieEngine {
    pes: usize,
    macs_per_cycle: usize,
}

impl EieEngine {
    /// `pes` PEs, each consuming `macs_per_cycle` matches per broadcast
    /// cycle.
    #[must_use]
    pub fn new(pes: usize, macs_per_cycle: usize) -> Self {
        Self { pes, macs_per_cycle }
    }
}

impl Engine for EieEngine {
    fn name(&self) -> String {
        format!("EIE ({} PE)", self.pes)
    }

    fn pes(&self) -> usize {
        self.pes
    }

    fn run(&self, a: &SparseMatrix, b: &SparseMatrix) -> Result<GemmRun, EngineError> {
        check_dims(a, b)?;
        let run = EieSim::new(self.pes, self.macs_per_cycle).run_gemm(&a.to_dense(), &b.to_dense());
        let stats = CycleStats {
            streaming_cycles: run.cycles,
            useful_macs: u128::from(run.macs),
            issued_macs: u128::from(run.macs), // only non-zero matches issue
            mapped_nonzeros: b.nnz() as u64,
            occupied_slots: b.nnz() as u64, // CSC stores only non-zeros
            pes: self.pes as u64,
            ..CycleStats::default()
        };
        Ok(GemmRun { result: run.result, stats })
    }
}

/// OuterSPACE behind the [`Engine`] face.
#[derive(Debug, Clone, Copy)]
pub struct OuterSpaceEngine {
    multipliers: usize,
    merge_throughput: usize,
}

impl OuterSpaceEngine {
    /// `multipliers` parallel multipliers, merging `merge_throughput`
    /// partial products per cycle.
    #[must_use]
    pub fn new(multipliers: usize, merge_throughput: usize) -> Self {
        Self { multipliers, merge_throughput }
    }
}

impl Engine for OuterSpaceEngine {
    fn name(&self) -> String {
        format!("OuterSPACE ({} mult)", self.multipliers)
    }

    fn pes(&self) -> usize {
        self.multipliers
    }

    fn run(&self, a: &SparseMatrix, b: &SparseMatrix) -> Result<GemmRun, EngineError> {
        check_dims(a, b)?;
        let run = OuterProductSim::new(self.multipliers, self.merge_throughput)
            .run_gemm(&a.to_dense(), &b.to_dense());
        let stats = CycleStats {
            streaming_cycles: run.multiply_cycles,
            add_cycles: run.merge_cycles, // the serialized merge phase
            useful_macs: u128::from(run.partial_products),
            issued_macs: u128::from(run.partial_products),
            pes: self.multipliers as u64,
            ..CycleStats::default()
        };
        Ok(GemmRun { result: run.result, stats })
    }
}

/// SCNN behind the [`Engine`] face.
#[derive(Debug, Clone, Copy)]
pub struct ScnnEngine {
    mults_per_cycle: usize,
    banks: usize,
}

impl ScnnEngine {
    /// `mults_per_cycle` cartesian-product multipliers scattering into
    /// `banks` accumulator banks.
    #[must_use]
    pub fn new(mults_per_cycle: usize, banks: usize) -> Self {
        Self { mults_per_cycle, banks }
    }
}

impl Engine for ScnnEngine {
    fn name(&self) -> String {
        format!("SCNN ({} mult, {} banks)", self.mults_per_cycle, self.banks)
    }

    fn pes(&self) -> usize {
        self.mults_per_cycle
    }

    fn run(&self, a: &SparseMatrix, b: &SparseMatrix) -> Result<GemmRun, EngineError> {
        check_dims(a, b)?;
        let run =
            ScnnSim::new(self.mults_per_cycle, self.banks).run_gemm(&a.to_dense(), &b.to_dense());
        let stats = CycleStats {
            streaming_cycles: run.total_cycles(), // pipeline pace = slower stage
            useful_macs: u128::from(run.macs),
            issued_macs: u128::from(run.macs),
            pes: self.mults_per_cycle as u64,
            ..CycleStats::default()
        };
        Ok(GemmRun { result: run.result, stats })
    }
}

/// Cambricon-X behind the [`Engine`] face.
#[derive(Debug, Clone, Copy)]
pub struct CambriconEngine {
    pes: usize,
    lanes: usize,
}

impl CambriconEngine {
    /// `pes` PEs, each with `lanes` synapse-selector lanes.
    #[must_use]
    pub fn new(pes: usize, lanes: usize) -> Self {
        Self { pes, lanes }
    }
}

impl Engine for CambriconEngine {
    fn name(&self) -> String {
        format!("Cambricon-X ({} PE x {})", self.pes, self.lanes)
    }

    fn pes(&self) -> usize {
        self.pes * self.lanes
    }

    fn run(&self, a: &SparseMatrix, b: &SparseMatrix) -> Result<GemmRun, EngineError> {
        check_dims(a, b)?;
        let run = CambriconSim::new(self.pes, self.lanes).run_gemm(&a.to_dense(), &b.to_dense());
        let stats = CycleStats {
            streaming_cycles: run.cycles,
            useful_macs: useful_macs(a, b),
            issued_macs: u128::from(run.issued_macs), // dense activations issue
            mapped_nonzeros: b.nnz() as u64,
            occupied_slots: b.nnz() as u64,
            pes: (self.pes * self.lanes) as u64,
            ..CycleStats::default()
        };
        Ok(GemmRun { result: run.result, stats })
    }
}

/// Eyeriss v2 behind the [`Engine`] face.
#[derive(Debug, Clone, Copy)]
pub struct EyerissEngine {
    pes: usize,
    buffer_words: usize,
    fetch_bandwidth: usize,
}

impl EyerissEngine {
    /// `pes` PEs fed from a `buffer_words` global buffer at
    /// `fetch_bandwidth` words per cycle.
    #[must_use]
    pub fn new(pes: usize, buffer_words: usize, fetch_bandwidth: usize) -> Self {
        Self { pes, buffer_words, fetch_bandwidth }
    }
}

impl Engine for EyerissEngine {
    fn name(&self) -> String {
        format!("Eyeriss v2 ({} PE)", self.pes)
    }

    fn pes(&self) -> usize {
        self.pes
    }

    fn run(&self, a: &SparseMatrix, b: &SparseMatrix) -> Result<GemmRun, EngineError> {
        check_dims(a, b)?;
        let run = EyerissV2Sim::new(self.pes, self.buffer_words, self.fetch_bandwidth)
            .run_gemm(&a.to_dense(), &b.to_dense());
        // Fetches count as loading only when they serialize (buffer
        // overflow); a buffered run hides them under compute.
        let stats = CycleStats {
            loading_cycles: run.total_cycles() - run.compute_cycles.min(run.total_cycles()),
            streaming_cycles: run.compute_cycles.min(run.total_cycles()),
            useful_macs: u128::from(run.macs),
            issued_macs: u128::from(run.macs),
            sram_reads: run.fetch_cycles * self.fetch_bandwidth as u64,
            pes: self.pes as u64,
            ..CycleStats::default()
        };
        Ok(GemmRun { result: run.result, stats })
    }
}

/// The packed (column-combined) systolic array behind the [`Engine`]
/// face: weights are column-packed with a zero conflict budget (lossless)
/// and the packed matrix runs on a rigid weight-stationary array.
#[derive(Debug, Clone, Copy)]
pub struct PackedSystolicEngine {
    rows: usize,
    cols: usize,
    max_combine: usize,
}

impl PackedSystolicEngine {
    /// An `rows x cols` array packing up to `max_combine` weight columns
    /// per physical column.
    #[must_use]
    pub fn new(rows: usize, cols: usize, max_combine: usize) -> Self {
        Self { rows, cols, max_combine }
    }
}

impl Engine for PackedSystolicEngine {
    fn name(&self) -> String {
        format!("Packed systolic {}x{} (combine {})", self.rows, self.cols, self.max_combine)
    }

    fn pes(&self) -> usize {
        self.rows * self.cols
    }

    fn run(&self, a: &SparseMatrix, b: &SparseMatrix) -> Result<GemmRun, EngineError> {
        check_dims(a, b)?;
        let (ad, bd) = (a.to_dense(), b.to_dense());
        let (result, packing) = run_packed_gemm(&ad, &bd, self.max_combine);
        // Latency: the same array streaming the packed (narrower) weight
        // matrix; numerics come from the scatter-correct packed run above.
        let (packed, _) = crate::packed_functional::pack_weights(&bd, &packing);
        let timing = SystolicSim::new(self.rows, self.cols).run_gemm(&ad, &packed);
        let k = a.cols();
        let stats = CycleStats {
            streaming_cycles: timing.cycles,
            folds: timing.folds,
            useful_macs: useful_macs(a, b),
            issued_macs: (a.rows() * packing.groups.len() * k) as u128,
            mapped_nonzeros: b.nnz() as u64,
            occupied_slots: (k * packing.groups.len()) as u64,
            pes: (self.rows * self.cols) as u64,
            ..CycleStats::default()
        };
        Ok(GemmRun { result, stats })
    }
}

/// The V100 GPU roofline model behind the [`Engine`] face.
///
/// The GPU baseline is analytic (Sec. III measures silicon): the numeric
/// product is computed by the reference GEMM, and the cycle count
/// converts the modeled kernel time at the V100 boost clock.
#[derive(Debug, Clone, Copy)]
pub struct GpuEngine {
    precision: GpuPrecision,
}

/// V100 boost clock used to convert modeled seconds into cycles.
pub const V100_CLOCK_HZ: f64 = 1.53e9;

/// CUDA cores on a V100 (the GPU's "PE" count for normalization).
pub const V100_CUDA_CORES: usize = 5120;

impl GpuEngine {
    /// A V100 at the given precision.
    #[must_use]
    pub fn new(precision: GpuPrecision) -> Self {
        Self { precision }
    }
}

impl Engine for GpuEngine {
    fn name(&self) -> String {
        format!("V100 ({:?})", self.precision)
    }

    fn pes(&self) -> usize {
        V100_CUDA_CORES
    }

    fn run(&self, a: &SparseMatrix, b: &SparseMatrix) -> Result<GemmRun, EngineError> {
        check_dims(a, b)?;
        let p = problem_of(a, b);
        let seconds = GpuModel::default().dense_gemm_time_s(p.shape, self.precision);
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let cycles = (seconds * V100_CLOCK_HZ).ceil() as u64;
        let stats = CycleStats {
            streaming_cycles: cycles,
            useful_macs: useful_macs(a, b),
            issued_macs: p.shape.macs(), // dense kernels issue everything
            pes: V100_CUDA_CORES as u64,
            ..CycleStats::default()
        };
        Ok(GemmRun { result: a.to_dense().matmul(&b.to_dense()), stats })
    }
}

/// Adapts any analytic [`GemmAccelerator`] into an [`Engine`]: the cycle
/// model runs on the operands' measured shape/densities, and the numeric
/// product comes from the reference GEMM (analytic models move no data).
#[derive(Debug, Clone)]
pub struct AnalyticEngine<A> {
    inner: A,
}

impl<A: GemmAccelerator> AnalyticEngine<A> {
    /// Wraps an analytic model.
    #[must_use]
    pub fn new(inner: A) -> Self {
        Self { inner }
    }

    /// The wrapped model.
    #[must_use]
    pub fn inner(&self) -> &A {
        &self.inner
    }
}

impl<A: GemmAccelerator + Send + Sync> Engine for AnalyticEngine<A> {
    fn name(&self) -> String {
        format!("{} [analytic]", self.inner.name())
    }

    fn pes(&self) -> usize {
        self.inner.pes()
    }

    fn run(&self, a: &SparseMatrix, b: &SparseMatrix) -> Result<GemmRun, EngineError> {
        check_dims(a, b)?;
        let stats = self.inner.simulate(&problem_of(a, b));
        Ok(GemmRun { result: a.to_dense().matmul(&b.to_dense()), stats })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::{SparseAccelerator, SparseAcceleratorKind};
    use crate::systolic::SystolicArray;
    use sigma_matrix::gen::{sparse_uniform, Density};

    fn operands(seed: u64) -> (SparseMatrix, SparseMatrix) {
        let a = sparse_uniform(9, 12, Density::new(0.5).unwrap(), seed);
        let b = sparse_uniform(12, 7, Density::new(0.4).unwrap(), seed + 100);
        (a, b)
    }

    fn all_functional_engines() -> Vec<Box<dyn Engine>> {
        vec![
            Box::new(SystolicEngine::weight_stationary(4, 4)),
            Box::new(SystolicEngine::output_stationary(4, 4)),
            Box::new(EieEngine::new(4, 2)),
            Box::new(OuterSpaceEngine::new(8, 4)),
            Box::new(ScnnEngine::new(8, 4)),
            Box::new(CambriconEngine::new(4, 4)),
            Box::new(EyerissEngine::new(4, 1 << 16, 8)),
            Box::new(PackedSystolicEngine::new(4, 4, 8)),
        ]
    }

    #[test]
    fn every_functional_engine_matches_the_reference() {
        let (a, b) = operands(42);
        let reference = a.to_dense().matmul(&b.to_dense());
        for engine in all_functional_engines() {
            let run = engine.run(&a, &b).unwrap();
            assert!(
                run.result.approx_eq(&reference, 1e-3 * 12.0),
                "{} disagrees (max diff {})",
                engine.name(),
                run.result.max_abs_diff(&reference)
            );
            assert!(run.stats.total_cycles() > 0, "{} reports zero cycles", engine.name());
            assert!(engine.pes() > 0);
        }
    }

    #[test]
    fn every_engine_rejects_non_finite_operands() {
        use sigma_matrix::Matrix;
        let mut bad_dense = Matrix::zeros(4, 5);
        bad_dense.set(2, 3, f32::NAN);
        let bad = SparseMatrix::from_dense(&bad_dense);
        let good = sparse_uniform(5, 4, Density::DENSE, 3);
        let mut engines = all_functional_engines();
        engines.push(Box::new(GpuEngine::new(GpuPrecision::Fp16Tensor)));
        engines.push(Box::new(AnalyticEngine::new(SystolicArray::new(8, 8))));
        for engine in engines {
            let err = engine.run(&bad, &good).unwrap_err();
            assert!(
                matches!(err, EngineError::Numeric(_)),
                "{} accepted a NaN operand: {err:?}",
                engine.name()
            );
        }
    }

    #[test]
    fn every_engine_rejects_dimension_mismatch() {
        let a = sparse_uniform(4, 5, Density::DENSE, 1);
        let b = sparse_uniform(6, 4, Density::DENSE, 2);
        let mut engines = all_functional_engines();
        engines.push(Box::new(GpuEngine::new(GpuPrecision::Fp16Tensor)));
        engines.push(Box::new(AnalyticEngine::new(SystolicArray::new(8, 8))));
        for engine in engines {
            assert_eq!(
                engine.run(&a, &b).unwrap_err(),
                EngineError::DimensionMismatch { k_a: 5, k_b: 6 },
                "{} accepted mismatched operands",
                engine.name()
            );
        }
    }

    #[test]
    fn useful_macs_counts_pairs() {
        let (a, b) = operands(7);
        let (ad, bd) = (a.to_dense(), b.to_dense());
        let mut expected = 0u128;
        for i in 0..ad.rows() {
            for j in 0..bd.cols() {
                for k in 0..ad.cols() {
                    if ad.get(i, k) != 0.0 && bd.get(k, j) != 0.0 {
                        expected += 1;
                    }
                }
            }
        }
        assert_eq!(useful_macs(&a, &b), expected);
    }

    #[test]
    fn analytic_adapter_reports_model_stats() {
        let (a, b) = operands(3);
        let engine = AnalyticEngine::new(SparseAccelerator::new(SparseAcceleratorKind::Eie, 64));
        let run = engine.run(&a, &b).unwrap();
        let direct =
            SparseAccelerator::new(SparseAcceleratorKind::Eie, 64).simulate(&problem_of(&a, &b));
        assert_eq!(run.stats, direct);
        assert!(engine.name().contains("[analytic]"));
        assert_eq!(engine.pes(), 64);
    }

    #[test]
    fn gpu_engine_scales_with_problem_size() {
        let small = {
            let a = sparse_uniform(16, 16, Density::DENSE, 1);
            let b = sparse_uniform(16, 16, Density::DENSE, 2);
            GpuEngine::new(GpuPrecision::Fp16Tensor).run(&a, &b).unwrap().stats.total_cycles()
        };
        let big = {
            let a = sparse_uniform(512, 512, Density::DENSE, 3);
            let b = sparse_uniform(512, 512, Density::DENSE, 4);
            GpuEngine::new(GpuPrecision::Fp16Tensor).run(&a, &b).unwrap().stats.total_cycles()
        };
        assert!(big > small, "bigger GEMM must cost more GPU cycles ({big} vs {small})");
    }

    #[test]
    fn packed_engine_beats_plain_systolic_on_sparse_weights() {
        // 80% weight sparsity: column combining shrinks the streamed
        // width, so the packed array finishes sooner.
        let a = sparse_uniform(16, 16, Density::DENSE, 11);
        let b = sparse_uniform(16, 16, Density::new(0.2).unwrap(), 12);
        let plain = SystolicEngine::weight_stationary(4, 4).run(&a, &b).unwrap();
        let packed = PackedSystolicEngine::new(4, 4, 8).run(&a, &b).unwrap();
        assert!(
            packed.stats.total_cycles() < plain.stats.total_cycles(),
            "packed {} vs plain {}",
            packed.stats.total_cycles(),
            plain.stats.total_cycles()
        );
    }
}
