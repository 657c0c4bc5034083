//! Dense and sparse matrix substrate for the SIGMA reproduction.
//!
//! The SIGMA accelerator ([Qin et al., HPCA 2020]) operates on GEMMs whose
//! operands are dense or unstructured-sparse `f32` matrices. This crate
//! provides everything the simulator and the baseline models need to talk
//! about those operands:
//!
//! * [`Matrix`] — a row-major dense `f32` matrix with the reference GEMM
//!   used to verify the simulated datapath ([`Matrix::matmul`],
//!   [`Matrix::matmul_at`], [`Matrix::matmul_bt`]): one row-streaming
//!   kernel in which every output element adds its products in
//!   ascending-`k` order from `+0.0`.
//! * [`Bitmap`] — the bit-packed occupancy map SIGMA uses as its on-chip
//!   compression format (Sec. IV-C of the paper).
//! * [`SparseMatrix`] — values + bitmap, the operand representation consumed
//!   by the SIGMA sparsity controller.
//! * [`formats`] — CSR / CSC / COO / RLC / bitmap encoders with exact
//!   metadata-size accounting, reproducing the paper's Fig. 7 comparison.
//! * [`gen`] — reproducible random sparse-matrix generators used by the
//!   workload suite.
//!
//! # Example
//!
//! ```
//! use sigma_matrix::{Matrix, SparseMatrix};
//! use sigma_matrix::gen::{sparse_uniform, Density};
//!
//! let a = sparse_uniform(4, 6, Density::new(0.5).unwrap(), 7);
//! let b = sparse_uniform(6, 3, Density::new(0.8).unwrap(), 8);
//! let c = a.to_dense().matmul(&b.to_dense());
//! assert_eq!((c.rows(), c.cols()), (4, 3));
//! let a2 = SparseMatrix::from_dense(&a.to_dense());
//! assert_eq!(a2.nnz(), a.nnz());
//! ```
//!
//! [Qin et al., HPCA 2020]: https://doi.org/10.1109/HPCA47549.2020.00015

#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented
    )
)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod abft;
mod bitmap;
mod dense;
mod error;
pub mod formats;
pub mod gen;
mod sparse;

pub use abft::AbftVerdict;
pub use bitmap::{Bitmap, OnesIter};
pub use dense::Matrix;
pub use error::{DimensionError, MatrixError};
pub use sparse::SparseMatrix;

/// Dimensions of a GEMM `C[M,N] = A[M,K] x B[K,N]`, in the paper's (M, N, K)
/// nomenclature (Fig. 1a).
///
/// `M` is the number of rows of the output, `N` the number of columns, and
/// `K` the contracted dimension.
///
/// ```
/// use sigma_matrix::GemmShape;
/// let g = GemmShape::new(128, 256, 64);
/// assert_eq!(g.macs(), 128 * 256 * 64);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GemmShape {
    /// Rows of `A` and of the output `C`.
    pub m: usize,
    /// Columns of `B` and of the output `C`.
    pub n: usize,
    /// Columns of `A` / rows of `B` (the contracted dimension).
    pub k: usize,
}

impl GemmShape {
    /// Creates a new GEMM shape.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero; a zero-sized GEMM is meaningless for
    /// the accelerator models.
    #[must_use]
    pub fn new(m: usize, n: usize, k: usize) -> Self {
        assert!(m > 0 && n > 0 && k > 0, "GEMM dimensions must be non-zero");
        Self { m, n, k }
    }

    /// Total number of multiply-accumulate operations in a dense execution.
    #[must_use]
    pub fn macs(&self) -> u128 {
        self.m as u128 * self.n as u128 * self.k as u128
    }

    /// Elements of the `A` (`MK`) operand.
    #[must_use]
    pub fn mk_elems(&self) -> usize {
        self.m * self.k
    }

    /// Elements of the `B` (`KN`) operand.
    #[must_use]
    pub fn kn_elems(&self) -> usize {
        self.k * self.n
    }

    /// Elements of the output (`MN`).
    #[must_use]
    pub fn mn_elems(&self) -> usize {
        self.m * self.n
    }

    /// `true` when the GEMM is square in all three dimensions, the "dense
    /// regular" case of the paper's Fig. 4b.
    #[must_use]
    pub fn is_regular(&self) -> bool {
        self.m == self.n && self.n == self.k
    }

    /// Aspect ratio max(dim)/min(dim); large values indicate the tall-skinny
    /// or fat-short irregular GEMMs of Sec. II.
    #[must_use]
    pub fn irregularity(&self) -> f64 {
        let mx = self.m.max(self.n).max(self.k) as f64;
        let mn = self.m.min(self.n).min(self.k) as f64;
        mx / mn
    }
}

impl std::fmt::Display for GemmShape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}-{}-{}", self.m, self.n, self.k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gemm_shape_macs() {
        let g = GemmShape::new(2, 3, 4);
        assert_eq!(g.macs(), 24);
        assert_eq!(g.mk_elems(), 8);
        assert_eq!(g.kn_elems(), 12);
        assert_eq!(g.mn_elems(), 6);
    }

    #[test]
    fn gemm_shape_regularity() {
        assert!(GemmShape::new(8, 8, 8).is_regular());
        assert!(!GemmShape::new(8, 8, 4).is_regular());
        let irr = GemmShape::new(16, 500_000, 1024);
        assert!(irr.irregularity() > 30_000.0);
    }

    #[test]
    fn gemm_shape_display() {
        assert_eq!(GemmShape::new(1024, 16, 500_000).to_string(), "1024-16-500000");
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn gemm_shape_zero_dim_panics() {
        let _ = GemmShape::new(0, 1, 1);
    }
}
