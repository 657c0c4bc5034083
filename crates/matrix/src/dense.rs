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
    /// This is the straightforward triple loop; it defines numerical ground
    /// truth (per-output-element left-to-right accumulation order).
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
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for j in 0..rhs.cols {
                let mut acc = 0.0f32;
                for k in 0..self.cols {
                    acc += self.get(i, k) * rhs.get(k, j);
                }
                out.set(i, j, acc);
            }
        }
        Ok(out)
    }

    /// Training backward-pass GEMM `(A)^T x B`: `self[K,M]^T x rhs[K,N] -> [M,N]`.
    ///
    /// This is the `(MK)^T x MN` weight-gradient product of Sec. I without
    /// materializing the transpose.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows() != rhs.rows()`.
    #[must_use]
    pub fn matmul_at(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.rows, rhs.rows, "matmul_at requires equal row counts");
        let mut out = Matrix::zeros(self.cols, rhs.cols);
        for i in 0..self.cols {
            for j in 0..rhs.cols {
                let mut acc = 0.0f32;
                for k in 0..self.rows {
                    acc += self.get(k, i) * rhs.get(k, j);
                }
                out.set(i, j, acc);
            }
        }
        out
    }

    /// Training backward-pass GEMM `A x (B)^T`: `self[M,K] x rhs[N,K]^T -> [M,N]`.
    ///
    /// This is the `MN x (KN)^T` input-gradient product of Sec. I without
    /// materializing the transpose.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.cols()`.
    #[must_use]
    pub fn matmul_bt(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.cols, "matmul_bt requires equal column counts");
        let mut out = Matrix::zeros(self.rows, rhs.rows);
        for i in 0..self.rows {
            for j in 0..rhs.rows {
                let mut acc = 0.0f32;
                for k in 0..self.cols {
                    acc += self.get(i, k) * rhs.get(j, k);
                }
                out.set(i, j, acc);
            }
        }
        out
    }

    /// `true` if every element is finite (no NaN or infinity).
    #[must_use]
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Maximum absolute element-wise difference to another matrix.
    ///
    /// Useful for comparing tree-reduced (simulator) results against the
    /// linearly-accumulated reference, where f32 rounding may differ.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    #[must_use]
    pub fn max_abs_diff(&self, other: &Matrix) -> f32 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols), "shape mismatch");
        self.data.iter().zip(&other.data).map(|(a, b)| (a - b).abs()).fold(0.0f32, f32::max)
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

    fn seq(rows: usize, cols: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| (r * cols + c) as f32 + 1.0)
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
