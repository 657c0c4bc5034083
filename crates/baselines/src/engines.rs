//! [`Engine`] implementations for every baseline accelerator.
//!
//! The experiment harness drives all designs — SIGMA (whose impl lives in
//! `sigma-core`) plus the eight baselines here — through the one
//! object-safe [`Engine`] trait: the two systolic dataflows, EIE,
//! OuterSPACE, SCNN, Cambricon-X, Eyeriss v2, the packed (column-combined)
//! systolic array, and the V100 roofline model. Analytic
//! [`GemmAccelerator`] models are adapted via [`AnalyticEngine`].
//!
//! Each functional engine owns its parameters and its datapath (in its
//! own module) and fills Table-II [`CycleStats`] directly, so every
//! design reports through one record schema: load-like phases into
//! `loading_cycles`, pipelined compute into `streaming_cycles`,
//! serialized post-compute phases into `add_cycles`. The `impl Engine`
//! blocks all sit here, behind one operand check.

use crate::gpu::{GpuModel, GpuPrecision};
use crate::{
    CambriconEngine, EieEngine, EyerissEngine, GemmAccelerator, OuterSpaceEngine,
    PackedSystolicEngine, ScnnEngine, SystolicEngine, SystolicMapping,
};
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
        Ok(self.gemm(a, b))
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
        Ok(self.gemm(a, b))
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
        Ok(self.gemm(a, b))
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
        Ok(self.gemm(a, b))
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
        Ok(self.gemm(a, b))
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
        Ok(self.gemm(a, b))
    }
}

impl Engine for PackedSystolicEngine {
    fn name(&self) -> String {
        let (rows, cols) = (self.array.rows, self.array.cols);
        format!("Packed systolic {rows}x{cols} (combine {})", self.max_combine)
    }

    fn pes(&self) -> usize {
        self.array.pes()
    }

    fn run(&self, a: &SparseMatrix, b: &SparseMatrix) -> Result<GemmRun, EngineError> {
        check_dims(a, b)?;
        Ok(self.gemm(a, b))
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
