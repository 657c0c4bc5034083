//! V100 GPU model for the motivation figures (Figs. 2 and 3).
//!
//! The paper *measures* a V100; we cannot, so this is a tiling/roofline
//! substitution (see `DESIGN.md`): GEMM time is the max of a compute term
//! (peak FLOPs derated by tile-quantization utilization) and a memory
//! term (operand traffic over HBM bandwidth), plus a fixed kernel-launch
//! overhead. cuSPARSE SpMM is modeled as FP32-only, single-sparse-operand
//! and index-traffic-bound, reproducing the observed ~4x efficiency drop
//! versus dense FP32 on unstructured sparsity.

use sigma_matrix::GemmShape;

/// Numeric precision / engine selection on the modeled V100.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GpuPrecision {
    /// FP32 CUDA cores (15.7 TFLOPS peak).
    Fp32,
    /// FP16 tensor cores (125 TFLOPS peak).
    Fp16Tensor,
}

impl GpuPrecision {
    /// Peak throughput in FLOP/s.
    #[must_use]
    pub fn peak_flops(&self) -> f64 {
        match self {
            GpuPrecision::Fp32 => 15.7e12,
            GpuPrecision::Fp16Tensor => 125.0e12,
        }
    }

    /// The (M, N, K) tile a thread-block computes; utilization losses come
    /// from quantizing the GEMM to these tiles across 80 SMs.
    #[must_use]
    pub fn tile(&self) -> (usize, usize, usize) {
        match self {
            GpuPrecision::Fp32 => (64, 64, 8),
            GpuPrecision::Fp16Tensor => (128, 128, 32),
        }
    }

    /// Bytes per element.
    #[must_use]
    pub fn bytes(&self) -> f64 {
        match self {
            GpuPrecision::Fp32 => 4.0,
            GpuPrecision::Fp16Tensor => 2.0,
        }
    }
}

/// A roofline + tile-quantization model of one V100 card.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuModel {
    /// HBM2 bandwidth in bytes/s.
    pub hbm_bw: f64,
    /// Number of streaming multiprocessors.
    pub sms: usize,
    /// Fixed kernel launch + tail latency in seconds.
    pub launch_overhead_s: f64,
}

impl GpuModel {
    /// The V100 instance used throughout (900 GB/s HBM2, 80 SMs).
    #[must_use]
    pub fn v100() -> Self {
        Self { hbm_bw: 900.0e9, sms: 80, launch_overhead_s: 5.0e-6 }
    }

    /// Seconds to run a dense GEMM at the given precision.
    #[must_use]
    pub fn dense_gemm_time_s(&self, shape: GemmShape, prec: GpuPrecision) -> f64 {
        let flops = 2.0 * shape.macs() as f64;
        let compute = flops / (prec.peak_flops() * self.tile_utilization(shape, prec));
        let bytes = (shape.mk_elems() + shape.kn_elems() + shape.mn_elems()) as f64 * prec.bytes();
        let memory = bytes / self.hbm_bw;
        compute.max(memory) + self.launch_overhead_s
    }

    /// Fraction of issued tile work that is real work: tile quantization
    /// across M/N/K plus SM-count quantization of the tile grid.
    #[must_use]
    pub fn tile_utilization(&self, shape: GemmShape, prec: GpuPrecision) -> f64 {
        let (tm, tn, tk) = prec.tile();
        let quant = |d: usize, t: usize| d as f64 / (d.div_ceil(t) * t) as f64;
        let tile_frac = quant(shape.m, tm) * quant(shape.n, tn) * quant(shape.k, tk);
        let tiles = shape.m.div_ceil(tm) * shape.n.div_ceil(tn);
        let wave_frac = tiles as f64 / (tiles.div_ceil(self.sms) * self.sms) as f64;
        tile_frac * wave_frac
    }

    /// Achieved fraction of peak for a dense GEMM (what Fig. 3a plots).
    #[must_use]
    pub fn dense_efficiency(&self, shape: GemmShape, prec: GpuPrecision) -> f64 {
        let flops = 2.0 * shape.macs() as f64;
        flops / prec.peak_flops() / self.dense_gemm_time_s(shape, prec)
    }

    /// Seconds to run a cuSPARSE-style SpMM: one operand sparse
    /// (unstructured CSR), FP32 only. Index-chasing and uncoalesced
    /// gathers keep the effective compute rate ~4x below dense FP32
    /// while still reading the dense operand tile-by-tile.
    ///
    /// `sparse_density` is the non-zero fraction of the sparse operand.
    #[must_use]
    pub fn cusparse_spmm_time_s(&self, shape: GemmShape, sparse_density: f64) -> f64 {
        let useful_flops = 2.0 * shape.macs() as f64 * sparse_density;
        // Effective compute rate: dense FP32 derated 4x (observed average
        // in the paper's Fig. 3b) and by tile quantization.
        let eff_rate = GpuPrecision::Fp32.peak_flops()
            * self.tile_utilization(shape, GpuPrecision::Fp32)
            / 4.0;
        let compute = useful_flops / eff_rate;
        // Memory: CSR values + column indices + the dense operand re-read
        // once per row-panel.
        let nnz = shape.mk_elems() as f64 * sparse_density;
        let bytes = nnz * 8.0 + (shape.kn_elems() + shape.mn_elems()) as f64 * 4.0;
        let memory = bytes / self.hbm_bw;
        compute.max(memory) + self.launch_overhead_s
    }

    /// Achieved fraction of FP32 peak for the SpMM, counting *useful*
    /// FLOPs only (Fig. 3b's metric).
    #[must_use]
    pub fn cusparse_efficiency(&self, shape: GemmShape, sparse_density: f64) -> f64 {
        let useful = 2.0 * shape.macs() as f64 * sparse_density;
        useful / GpuPrecision::Fp32.peak_flops() / self.cusparse_spmm_time_s(shape, sparse_density)
    }

    /// Seconds for a memory-bound elementwise/normalization op touching
    /// `elements` values `passes` times (used by the Fig. 2 op-breakdown
    /// model).
    #[must_use]
    pub fn elementwise_time_s(&self, elements: u64, passes: f64) -> f64 {
        elements as f64 * 4.0 * passes / self.hbm_bw + self.launch_overhead_s
    }
}

impl Default for GpuModel {
    fn default() -> Self {
        Self::v100()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regular_gemm_reaches_paper_efficiency() {
        // The paper: dense regular (2k, 2k, 2k) FP16 reaches up to 76%.
        let gpu = GpuModel::v100();
        let eff = gpu.dense_efficiency(GemmShape::new(2048, 2048, 2048), GpuPrecision::Fp16Tensor);
        assert!((0.6..=1.0).contains(&eff), "regular FP16 efficiency {eff}");
    }

    #[test]
    fn irregular_gemms_lose_efficiency() {
        let gpu = GpuModel::v100();
        let regular =
            gpu.dense_efficiency(GemmShape::new(2048, 2048, 2048), GpuPrecision::Fp16Tensor);
        // GNMT/Transformer decode shapes from Fig. 1b: small batch (M) or
        // small contraction (K) dimensions strand tensor-core tiles.
        for shape in [
            GemmShape::new(128, 2048, 4096),
            GemmShape::new(320, 3072, 4096),
            GemmShape::new(35, 2560, 4096),
            GemmShape::new(2048, 4096, 32),
        ] {
            let eff = gpu.dense_efficiency(shape, GpuPrecision::Fp16Tensor);
            assert!(eff < regular, "{shape} should be below regular ({eff} vs {regular})");
        }
    }

    #[test]
    fn fp16_tensor_cores_beat_fp32() {
        let gpu = GpuModel::v100();
        let shape = GemmShape::new(1024, 1024, 1024);
        assert!(
            gpu.dense_gemm_time_s(shape, GpuPrecision::Fp16Tensor)
                < gpu.dense_gemm_time_s(shape, GpuPrecision::Fp32)
        );
    }

    #[test]
    fn cusparse_efficiency_is_fraction_of_dense() {
        // Fig. 3b: ~4x lower efficiency than dense FP32 on average.
        let gpu = GpuModel::v100();
        let shape = GemmShape::new(2048, 2048, 2048);
        let dense = gpu.dense_efficiency(shape, GpuPrecision::Fp32);
        for density in [0.5, 0.2] {
            let sp = gpu.cusparse_efficiency(shape, density);
            let ratio = dense / sp;
            assert!((2.0..=8.0).contains(&ratio), "dense/sparse ratio {ratio} at {density}");
        }
    }

    #[test]
    fn small_gemms_are_launch_bound() {
        let gpu = GpuModel::v100();
        let t = gpu.dense_gemm_time_s(GemmShape::new(32, 32, 32), GpuPrecision::Fp16Tensor);
        assert!(t >= gpu.launch_overhead_s);
        let eff = gpu.dense_efficiency(GemmShape::new(32, 32, 32), GpuPrecision::Fp16Tensor);
        assert!(eff < 0.02, "tiny GEMMs must be inefficient, got {eff}");
    }

    #[test]
    fn tile_utilization_bounds() {
        let gpu = GpuModel::v100();
        for shape in [GemmShape::new(1, 1, 1), GemmShape::new(4096, 4096, 4096)] {
            for prec in [GpuPrecision::Fp32, GpuPrecision::Fp16Tensor] {
                let u = gpu.tile_utilization(shape, prec);
                assert!((0.0..=1.0).contains(&u));
            }
        }
        // Aligned shapes hit 100% tile utilization.
        let aligned =
            gpu.tile_utilization(GemmShape::new(1280, 1024, 1024), GpuPrecision::Fp16Tensor);
        assert!((aligned - 1.0).abs() < 1e-12);
    }

    #[test]
    fn elementwise_is_bandwidth_bound() {
        let gpu = GpuModel::v100();
        let t = gpu.elementwise_time_s(1_000_000, 2.0);
        assert!(t > 8.0e6 / 900.0e9);
    }
}
