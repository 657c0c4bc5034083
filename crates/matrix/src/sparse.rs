//! Bitmap-compressed sparse matrix — SIGMA's operand representation.

use crate::{Bitmap, Matrix};

/// A sparse matrix in SIGMA's bitmap format: the non-zero values in
/// row-major order plus a [`Bitmap`] marking their positions (Sec. IV-C).
///
/// The invariant maintained by all constructors is that
/// `values.len() == bitmap.count_ones()` and the k-th value corresponds to
/// the k-th set bit in row-major order.
///
/// ```
/// use sigma_matrix::{Matrix, SparseMatrix};
/// let d = Matrix::from_rows(&[&[0.0, 2.0], &[3.0, 0.0]]);
/// let s = SparseMatrix::from_dense(&d);
/// assert_eq!(s.nnz(), 2);
/// assert_eq!(s.to_dense(), d);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SparseMatrix {
    bitmap: Bitmap,
    values: Vec<f32>,
}

impl SparseMatrix {
    /// Compresses a dense matrix, dropping exact zeros.
    #[must_use]
    pub fn from_dense(m: &Matrix) -> Self {
        let mut bitmap = Bitmap::new(m.rows(), m.cols());
        let mut values = Vec::with_capacity(m.nnz());
        for r in 0..m.rows() {
            for c in 0..m.cols() {
                let v = m.get(r, c);
                if v != 0.0 {
                    bitmap.set(r, c, true);
                    values.push(v);
                }
            }
        }
        Self { bitmap, values }
    }

    /// Builds a sparse matrix from parts.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != bitmap.count_ones()` — the representation
    /// invariant of the format.
    #[must_use]
    pub fn from_parts(bitmap: Bitmap, values: Vec<f32>) -> Self {
        assert_eq!(
            values.len(),
            bitmap.count_ones(),
            "value count must equal number of set bitmap bits"
        );
        Self { bitmap, values }
    }

    /// Decompresses to a dense matrix.
    #[must_use]
    pub fn to_dense(&self) -> Matrix {
        let cols = self.cols();
        let mut m = Matrix::zeros(self.rows(), cols);
        let data = m.as_mut_slice();
        for ((r, c), v) in self.bitmap.iter_ones().zip(&self.values) {
            data[r * cols + c] = *v;
        }
        m
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.bitmap.rows()
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.bitmap.cols()
    }

    /// The occupancy bitmap.
    #[must_use]
    pub fn bitmap(&self) -> &Bitmap {
        &self.bitmap
    }

    /// The non-zero values in row-major order.
    #[must_use]
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Number of stored non-zeros.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// `true` if every stored value is finite (no NaN or infinity). A
    /// reduction with no early exit, so it vectorizes.
    #[must_use]
    pub fn all_finite(&self) -> bool {
        self.values.iter().fold(true, |ok, v| ok & v.is_finite())
    }

    /// Fraction of elements that are zero, in `[0, 1]`.
    #[must_use]
    pub fn sparsity(&self) -> f64 {
        1.0 - self.bitmap.density()
    }

    /// Element at `(r, c)`, reconstructing zeros.
    ///
    /// This walks the row to find the value's rank, so it is `O(cols)`; the
    /// simulators use [`SparseMatrix::to_dense`] or iterate instead when on
    /// a hot path.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[must_use]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        if !self.bitmap.get(r, c) {
            return 0.0;
        }
        // Rank of the set bit at (r, c) among all set bits in row-major order.
        let mut rank = 0usize;
        for rr in 0..r {
            rank += self.bitmap.row_count_ones(rr);
        }
        rank += (0..c).filter(|&cc| self.bitmap.get(r, cc)).count();
        self.values[rank]
    }

    /// Iterator over `(row, col, value)` of the stored non-zeros in
    /// row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f32)> + '_ {
        self.bitmap.iter_ones().zip(&self.values).map(|((r, c), v)| (r, c, *v))
    }

    /// The transpose of this sparse matrix. The bitmap is the occupancy,
    /// so every stored value moves, a stored `+0.0` or `-0.0` included.
    ///
    /// Column counts give each transposed row's first value slot; one
    /// row-major pass then places every value, so rows of the transpose
    /// fill in ascending column order without a dense round trip.
    #[must_use]
    pub fn transposed(&self) -> SparseMatrix {
        let cols = self.cols();
        let mut next = vec![0usize; cols + 1];
        for (_, c) in self.bitmap.iter_ones() {
            next[c + 1] += 1;
        }
        for c in 0..cols {
            next[c + 1] += next[c];
        }
        let mut bitmap = Bitmap::new(cols, self.rows());
        let mut values = vec![0.0; self.nnz()];
        for (r, c, v) in self.iter() {
            bitmap.set(c, r, true);
            values[next[c]] = v;
            next[c] += 1;
        }
        Self { bitmap, values }
    }

    /// Total compressed footprint in bits: 32 bits per non-zero value plus
    /// one metadata bit per element (the quantity plotted in Fig. 7 when the
    /// "Bitmap" format is selected).
    #[must_use]
    pub fn storage_bits(&self) -> u64 {
        self.values.len() as u64 * 32 + self.bitmap.metadata_bits()
    }
}

impl From<&Matrix> for SparseMatrix {
    fn from(m: &Matrix) -> Self {
        SparseMatrix::from_dense(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_rows(&[&[0.0, 1.5, 0.0, 2.5], &[0.0, 0.0, 0.0, 0.0], &[3.5, 0.0, 0.0, 4.5]])
    }

    #[test]
    fn roundtrip_dense_sparse_dense() {
        let d = sample();
        let s = SparseMatrix::from_dense(&d);
        assert_eq!(s.nnz(), 4);
        assert_eq!(s.to_dense(), d);
    }

    #[test]
    fn values_are_row_major() {
        let s = SparseMatrix::from_dense(&sample());
        assert_eq!(s.values(), &[1.5, 2.5, 3.5, 4.5]);
    }

    #[test]
    fn get_reconstructs_zeros_and_values() {
        let s = SparseMatrix::from_dense(&sample());
        assert_eq!(s.get(0, 0), 0.0);
        assert_eq!(s.get(0, 3), 2.5);
        assert_eq!(s.get(2, 0), 3.5);
        assert_eq!(s.get(1, 2), 0.0);
    }

    #[test]
    fn iter_yields_triples() {
        let s = SparseMatrix::from_dense(&sample());
        let v: Vec<_> = s.iter().collect();
        assert_eq!(v[0], (0, 1, 1.5));
        assert_eq!(v[3], (2, 3, 4.5));
    }

    #[test]
    fn sparsity_computed() {
        let s = SparseMatrix::from_dense(&sample());
        assert!((s.sparsity() - (1.0 - 4.0 / 12.0)).abs() < 1e-12);
    }

    #[test]
    fn transpose_roundtrip() {
        let s = SparseMatrix::from_dense(&sample());
        assert_eq!(s.transposed().transposed().to_dense(), sample());
    }

    #[test]
    fn transposed_moves_every_stored_value() {
        use crate::gen::{sparse_uniform, Density};
        for seed in 0..24u64 {
            let (rows, cols) = (1 + (seed * 7) as usize % 13, 1 + (seed * 5) as usize % 71);
            let density = Density::new([0.0, 0.1, 0.5, 1.0][seed as usize % 4]).unwrap();
            let m = sparse_uniform(rows, cols, density, seed);
            // Widen the pattern with explicit `+0.0` / `-0.0` values.
            let mut bitmap = m.bitmap().clone();
            let dense = m.to_dense();
            let mut values = Vec::new();
            for r in 0..rows {
                for c in 0..cols {
                    if (r * 3 + c) % 4 == 0 {
                        bitmap.set(r, c, true);
                    }
                    if bitmap.get(r, c) {
                        let v = dense.get(r, c);
                        values.push(if v != 0.0 || r % 2 == 0 { v } else { -0.0 });
                    }
                }
            }
            let bits =
                |x: &SparseMatrix| x.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            for s in [m, SparseMatrix::from_parts(bitmap, values)] {
                let got = s.transposed();
                assert_eq!(got.bitmap(), &s.bitmap().transposed(), "seed {seed}");
                let want: Vec<u32> =
                    got.bitmap().iter_ones().map(|(c, r)| s.get(r, c).to_bits()).collect();
                assert_eq!(bits(&got), want, "seed {seed}");
                assert_eq!(got.transposed(), s, "seed {seed}");
                // Without stored zeros it is the dense round trip.
                if s.values().iter().all(|&v| v != 0.0) {
                    let dense = SparseMatrix::from_dense(&s.to_dense().transposed());
                    assert_eq!(bits(&got), bits(&dense), "seed {seed}");
                    assert_eq!(got.bitmap(), dense.bitmap(), "seed {seed}");
                }
            }
        }
    }

    #[test]
    fn storage_bits_accounting() {
        let s = SparseMatrix::from_dense(&sample());
        assert_eq!(s.storage_bits(), 4 * 32 + 12);
    }

    #[test]
    #[should_panic(expected = "set bitmap bits")]
    fn from_parts_checks_invariant() {
        let _ = SparseMatrix::from_parts(Bitmap::new(2, 2), vec![1.0]);
    }
}
