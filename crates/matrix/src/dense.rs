//! Row-major dense `f32` matrix with reference GEMM kernels.

use crate::{DimensionError, MatrixError};

/// A row-major dense `f32` matrix.
///
/// This is the "golden" operand representation: the cycle-level simulators
/// in `sigma-core` compute their numeric results through modeled hardware
/// and are checked against [`Matrix::matmul`] and friends.
///
/// ```
/// use sigma_matrix::Matrix;
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Matrix::identity(2);
/// assert_eq!(a.matmul(&b), a);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix of zeros.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a matrix from a row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::DataLength`] if `data.len() != rows * cols`,
    /// or [`MatrixError::NonFinite`] if the buffer contains a NaN or
    /// infinite value.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self, MatrixError> {
        if data.len() != rows * cols {
            return Err(MatrixError::DataLength { expected: rows * cols, actual: data.len() });
        }
        if let Some(index) = data.iter().position(|v| !v.is_finite()) {
            return Err(MatrixError::NonFinite { index });
        }
        Ok(Self { rows, cols, data })
    }

    /// Creates a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have unequal lengths or `rows` is empty.
    #[must_use]
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        assert!(!rows.is_empty(), "matrix must have at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "all rows must have equal length");
            data.extend_from_slice(r);
        }
        Self { rows: rows.len(), cols, data }
    }

    /// Creates the `n x n` identity matrix.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Creates a matrix where element `(r, c)` is `f(r, c)`.
    #[must_use]
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` if the matrix holds no elements.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows` or `c >= cols`.
    #[must_use]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of bounds");
        self.data[r * self.cols + c]
    }

    /// Sets the element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows` or `c >= cols`.
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of bounds");
        self.data[r * self.cols + c] = v;
    }

    /// Borrow of row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    #[must_use]
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row {r} out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Column `c` collected into a `Vec`.
    ///
    /// # Panics
    ///
    /// Panics if `c >= cols`.
    #[must_use]
    pub fn col(&self, c: usize) -> Vec<f32> {
        assert!(c < self.cols, "col {c} out of bounds");
        (0..self.rows).map(|r| self.get(r, c)).collect()
    }

    /// Underlying row-major buffer.
    #[must_use]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Underlying row-major buffer, mutable.
    #[must_use]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix and returns the row-major buffer.
    #[must_use]
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Number of non-zero elements.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.data.iter().filter(|v| **v != 0.0).count()
    }

    /// Fraction of elements that are zero, in `[0, 1]`.
    #[must_use]
    pub fn sparsity(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        1.0 - self.nnz() as f64 / self.data.len() as f64
    }

    /// Returns the transpose.
    #[must_use]
    pub fn transposed(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |r, c| self.get(c, r))
    }

    /// Reference GEMM: `self[M,K] x rhs[K,N] -> [M,N]`.
    ///
    /// Numerical ground truth: each output element starts at `+0.0` and adds
    /// its products in ascending-`k` order, with no zero-skipping or fused
    /// multiply-add. The kernel streams rows of `rhs` and the output (i-k-j).
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`. Use [`Matrix::try_matmul`] for
    /// a fallible variant.
    // Deliberate panicking convenience mirroring std indexing/ops;
    // try_matmul is the checked API (sigma-lint D2 waived in lint.toml).
    #[allow(clippy::expect_used)]
    #[must_use]
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        self.try_matmul(rhs).expect("matmul dimension mismatch")
    }

    /// Fallible GEMM.
    ///
    /// # Errors
    ///
    /// Returns a [`DimensionError`] if the inner dimensions disagree.
    pub fn try_matmul(&self, rhs: &Matrix) -> Result<Matrix, DimensionError> {
        if self.cols != rhs.rows {
            return Err(DimensionError {
                op: "matmul",
                lhs: (self.rows, self.cols),
                rhs: (rhs.rows, rhs.cols),
            });
        }
        let (k, n) = (self.cols, rhs.cols);
        let mut out = Matrix::zeros(self.rows, n);
        // `chunks_exact(0)` panics; with K = 0 or N = 0 the zeros are the product.
        if k == 0 || n == 0 {
            return Ok(out);
        }
        for (a_row, c_row) in self.data.chunks_exact(k).zip(out.data.chunks_exact_mut(n)) {
            for (&a, b_row) in a_row.iter().zip(rhs.data.chunks_exact(n)) {
                for (c, &b) in c_row.iter_mut().zip(b_row) {
                    *c += a * b;
                }
            }
        }
        Ok(out)
    }

    /// Training backward-pass GEMM `(A)^T x B`: `self[K,M]^T x rhs[K,N] -> [M,N]`.
    ///
    /// This is the `(MK)^T x MN` weight-gradient product of Sec. I, with the
    /// same per-element order as [`Matrix::matmul`].
    ///
    /// # Panics
    ///
    /// Panics if `self.rows() != rhs.rows()`.
    #[must_use]
    pub fn matmul_at(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.rows, rhs.rows, "matmul_at requires equal row counts");
        self.transposed().matmul(rhs)
    }

    /// Training backward-pass GEMM `A x (B)^T`: `self[M,K] x rhs[N,K]^T -> [M,N]`.
    ///
    /// This is the `MN x (KN)^T` input-gradient product of Sec. I, with the
    /// same per-element order as [`Matrix::matmul`].
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.cols()`.
    #[must_use]
    pub fn matmul_bt(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.cols, "matmul_bt requires equal column counts");
        self.matmul(&rhs.transposed())
    }

    /// `true` if every element is finite (no NaN or infinity). A
    /// reduction with no early exit, so it vectorizes.
    #[must_use]
    pub fn all_finite(&self) -> bool {
        self.data.iter().fold(true, |ok, v| ok & v.is_finite())
    }

    /// Maximum absolute element-wise difference to another matrix.
    ///
    /// Useful for comparing tree-reduced (simulator) results against the
    /// linearly-accumulated reference, where f32 rounding may differ.
    /// Cells with identical bits differ by 0 (so matching infinities agree);
    /// any other NaN difference makes the result NaN, which no `tol` accepts.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    #[must_use]
    pub fn max_abs_diff(&self, other: &Matrix) -> f32 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols), "shape mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| if a.to_bits() == b.to_bits() { 0.0 } else { (a - b).abs() })
            .fold(0.0f32, |max, d| if d > max || d.is_nan() { d } else { max })
    }

    /// `true` if every element differs from `other` by at most `tol`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    #[must_use]
    pub fn approx_eq(&self, other: &Matrix, tol: f32) -> bool {
        self.max_abs_diff(other) <= tol
    }
}

impl std::fmt::Display for Matrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for r in 0..self.rows {
            for c in 0..self.cols {
                if c > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{:8.3}", self.get(r, c))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SparseMatrix;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn seq(rows: usize, cols: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| (r * cols + c) as f32 + 1.0)
    }

    /// The i-j-k triple loop that defined the reference GEMM before the
    /// row-streaming kernel: the bitwise oracle for it.
    fn oracle_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        assert_eq!(a.cols(), b.rows());
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut acc = 0.0f32;
                for k in 0..a.cols() {
                    acc += a.get(i, k) * b.get(k, j);
                }
                out.set(i, j, acc);
            }
        }
        out
    }

    /// A kernel that skips zero entries of `a`: it drops `0 * inf = NaN`
    /// and must fail the oracle comparison.
    fn zero_skipping_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for k in 0..a.cols() {
                let x = a.get(i, k);
                if x == 0.0 {
                    continue;
                }
                for j in 0..b.cols() {
                    out.set(i, j, out.get(i, j) + x * b.get(k, j));
                }
            }
        }
        out
    }

    /// First cell where `got` departs from `want`: bits must match wherever
    /// the oracle is not NaN; where it is NaN, `got` must be some NaN
    /// (vector and scalar adds may keep different NaN payloads).
    fn oracle_mismatch(got: &Matrix, want: &Matrix) -> Option<(usize, f32, f32)> {
        assert_eq!((got.rows(), got.cols()), (want.rows(), want.cols()));
        got.as_slice().iter().zip(want.as_slice()).enumerate().find_map(|(i, (&g, &w))| {
            let ok = if w.is_nan() { g.is_nan() } else { g.to_bits() == w.to_bits() };
            (!ok).then_some((i, g, w))
        })
    }

    /// Values that stress bitwise identity: signed zeros, subnormals,
    /// magnitudes whose products overflow, and (when `infs`) `±inf`.
    fn nasty(rows: usize, cols: usize, infs: bool, rng: &mut StdRng) -> Matrix {
        Matrix::from_fn(rows, cols, |_, _| match rng.gen_range(0u32..20) {
            0..=2 => 0.0,
            3 => -0.0,
            4 => f32::from_bits(rng.gen_range(1..0x0080_0000)),
            5 => -f32::from_bits(rng.gen_range(1..0x0080_0000)),
            6 => rng.gen_range(1.0e37f32..3.0e38),
            7 => -rng.gen_range(1.0e37f32..3.0e38),
            8 if infs => f32::INFINITY,
            9 if infs => f32::NEG_INFINITY,
            _ => rng.gen_range(-2.0f32..2.0),
        })
    }

    /// `(m, k, n)` shapes: every zero dimension, 1x1, odd sizes, long `k`.
    const ORACLE_SHAPES: [(usize, usize, usize); 12] = [
        (0, 3, 4),
        (3, 0, 4),
        (3, 4, 0),
        (0, 0, 0),
        (1, 1, 1),
        (1, 7, 1),
        (3, 5, 7),
        (7, 13, 9),
        (9, 1, 11),
        (5, 64, 65),
        (4, 257, 3),
        (3, 300, 17),
    ];

    #[test]
    fn every_reference_gemm_matches_the_triple_loop_oracle_bitwise() {
        let mut rng = StdRng::seed_from_u64(0x5167_a001);
        for seed_case in 0..4 {
            for &(m, k, n) in &ORACLE_SHAPES {
                let a = nasty(m, k, false, &mut rng);
                let b = nasty(k, n, true, &mut rng);
                let want = oracle_matmul(&a, &b);
                let at = a.transposed();
                let bt = b.transposed();
                let cases = [
                    ("matmul", a.matmul(&b)),
                    ("try_matmul", a.try_matmul(&b).unwrap()),
                    ("matmul_at", at.matmul_at(&b)),
                    ("matmul_bt", a.matmul_bt(&bt)),
                ];
                for (name, got) in cases {
                    assert_eq!(
                        oracle_mismatch(&got, &want),
                        None,
                        "{name} case {seed_case} shape {m}x{k}x{n}"
                    );
                }
            }
        }
    }

    #[test]
    fn the_oracle_comparison_rejects_a_zero_skipping_kernel() {
        let mut rng = StdRng::seed_from_u64(0x5167_a001);
        let mut caught = 0;
        for &(m, k, n) in &ORACLE_SHAPES {
            let a = nasty(m, k, false, &mut rng);
            let b = nasty(k, n, true, &mut rng);
            let want = oracle_matmul(&a, &b);
            caught += usize::from(oracle_mismatch(&zero_skipping_matmul(&a, &b), &want).is_some());
        }
        assert!(caught > 0, "a zero-skipping kernel must disagree with the oracle");
        // The minimal witness: `0 * inf` is NaN in the oracle, skipped here.
        let a = Matrix::from_rows(&[&[0.0, 1.0]]);
        let b = Matrix::from_rows(&[&[f32::INFINITY], &[2.0]]);
        assert!(a.matmul(&b).get(0, 0).is_nan());
        assert_eq!(oracle_mismatch(&a.matmul(&b), &oracle_matmul(&a, &b)), None);
        assert!(oracle_mismatch(&zero_skipping_matmul(&a, &b), &oracle_matmul(&a, &b)).is_some());
    }

    #[test]
    fn max_abs_diff_propagates_nan_and_accepts_identical_bits() {
        let a = seq(2, 2);
        let mut nan = a.clone();
        nan.set(0, 1, f32::NAN);
        assert!(nan.max_abs_diff(&a).is_nan());
        assert!(a.max_abs_diff(&nan).is_nan());
        assert!(!nan.approx_eq(&a, 1.0e6));
        assert!(!a.approx_eq(&nan, f32::INFINITY));
        // Matching infinities (identical bits) agree; opposite ones do not.
        let mut inf = a.clone();
        inf.set(1, 0, f32::INFINITY);
        assert_eq!(inf.max_abs_diff(&inf.clone()), 0.0);
        assert!(inf.approx_eq(&inf.clone(), 0.0));
        let mut neg = a.clone();
        neg.set(1, 0, f32::NEG_INFINITY);
        assert_eq!(inf.max_abs_diff(&neg), f32::INFINITY);
        assert!(!inf.approx_eq(&neg, 1.0e6));
        assert!(inf.max_abs_diff(&a).is_infinite());
        // A NaN on both sides is still a NaN difference, not agreement by
        // value; only an identical bit pattern counts as equal.
        assert_eq!(nan.max_abs_diff(&nan.clone()), 0.0);
        let mut other_nan = a.clone();
        other_nan.set(0, 1, -f32::NAN);
        assert!(nan.max_abs_diff(&other_nan).is_nan());
        // Signed zeros differ by 0.
        let pz = Matrix::zeros(1, 1);
        let nz = Matrix::from_rows(&[&[-0.0]]);
        assert_eq!(pz.max_abs_diff(&nz), 0.0);
    }

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.nnz(), 0);
        assert_eq!(z.sparsity(), 1.0);
        let i = Matrix::identity(3);
        assert_eq!(i.nnz(), 3);
        assert_eq!(i.get(1, 1), 1.0);
        assert_eq!(i.get(0, 1), 0.0);
    }

    #[test]
    fn from_vec_length_check() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
        assert!(matches!(
            Matrix::from_vec(2, 2, vec![1.0; 3]),
            Err(MatrixError::DataLength { expected: 4, actual: 3 })
        ));
    }

    #[test]
    fn from_vec_rejects_non_finite() {
        assert!(matches!(
            Matrix::from_vec(1, 3, vec![1.0, f32::NAN, 2.0]),
            Err(MatrixError::NonFinite { index: 1 })
        ));
        assert!(matches!(
            Matrix::from_vec(2, 2, vec![0.0, 1.0, 2.0, f32::INFINITY]),
            Err(MatrixError::NonFinite { index: 3 })
        ));
        assert!(matches!(
            Matrix::from_vec(1, 1, vec![f32::NEG_INFINITY]),
            Err(MatrixError::NonFinite { index: 0 })
        ));
    }

    #[test]
    fn all_finite_flags_bad_values() {
        let mut m = seq(2, 2);
        assert!(m.all_finite());
        m.set(0, 1, f32::NAN);
        assert!(!m.all_finite());
    }

    #[test]
    fn all_finite_finds_a_bad_value_anywhere() {
        for len in 0..=67usize {
            let mut m = Matrix::zeros(1, len);
            for i in 0..len {
                m.set(0, i, 1.0 + i as f32);
            }
            assert!(m.all_finite() && SparseMatrix::from_dense(&m).all_finite(), "len {len}");
            let positions = if len == 0 { vec![] } else { vec![0, len / 2, len - 1] };
            for at in positions {
                for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
                    let mut m = m.clone();
                    m.set(0, at, bad);
                    assert!(!m.all_finite(), "{bad} at {at} of {len}");
                    assert!(!SparseMatrix::from_dense(&m).all_finite(), "{bad} at {at} of {len}");
                }
            }
        }
    }

    #[test]
    fn matmul_known_result() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = seq(3, 5);
        assert_eq!(a.matmul(&Matrix::identity(5)), a);
        assert_eq!(Matrix::identity(3).matmul(&a), a);
    }

    #[test]
    fn try_matmul_rejects_mismatch() {
        let a = seq(2, 3);
        let b = seq(4, 2);
        let err = a.try_matmul(&b).unwrap_err();
        assert_eq!(err.op, "matmul");
    }

    #[test]
    fn transpose_involution() {
        let a = seq(3, 4);
        assert_eq!(a.transposed().transposed(), a);
        assert_eq!(a.transposed().get(2, 1), a.get(1, 2));
    }

    #[test]
    fn matmul_at_matches_explicit_transpose() {
        let a = seq(4, 3); // K=4, M=3
        let b = seq(4, 5); // K=4, N=5
        assert_eq!(a.matmul_at(&b), a.transposed().matmul(&b));
    }

    #[test]
    fn matmul_bt_matches_explicit_transpose() {
        let a = seq(3, 4); // M=3, K=4
        let b = seq(5, 4); // N=5, K=4
        assert_eq!(a.matmul_bt(&b), a.matmul(&b.transposed()));
    }

    #[test]
    fn row_col_access() {
        let a = seq(2, 3);
        assert_eq!(a.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(a.col(2), vec![3.0, 6.0]);
    }

    #[test]
    fn sparsity_counts() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[2.0, 0.0]]);
        assert_eq!(a.nnz(), 2);
        assert!((a.sparsity() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn max_abs_diff_and_approx_eq() {
        let a = seq(2, 2);
        let mut b = a.clone();
        b.set(1, 1, b.get(1, 1) + 0.5);
        assert_eq!(a.max_abs_diff(&b), 0.5);
        assert!(a.approx_eq(&b, 0.5));
        assert!(!a.approx_eq(&b, 0.4));
    }

    #[test]
    fn display_formats_rows() {
        let s = seq(2, 2).to_string();
        assert_eq!(s.lines().count(), 2);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        let _ = Matrix::zeros(1, 1).get(1, 0);
    }
}
