//! Reproducible random matrix generators for workloads and tests.
//!
//! The SIGMA evaluation induces *unstructured* random sparsity at controlled
//! densities (Sec. VI-A: inputs ~10–50% sparse, weights ~80% sparse). These
//! generators produce that kind of operand deterministically from a seed.
//!
//! # Draw order
//!
//! Every pin and figure depends on which draws a generator takes from its
//! seeded stream, and in what order. [`sparse_uniform`] shuffles all
//! `rows * cols` row-major positions with one `bounded_u64(i + 1)` draw
//! for each `i` from `rows * cols - 1` down to 1, keeps the first `nnz`,
//! then takes `nnz` value draws, stored in row-major position order.
//! [`sparse_row_balanced`] does the same per row: the row's shuffle, then
//! that row's values. [`bitmap_bernoulli`] takes one `gen_bool` draw per
//! element in row-major order. A value never depends on its position, so
//! the kept positions need no sort: each sets its bitmap bit directly.

use crate::{Bitmap, Matrix, SparseMatrix};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// A validated density (fraction of non-zero elements) in `[0, 1]`.
///
/// ```
/// use sigma_matrix::gen::Density;
/// let d = Density::new(0.2).unwrap();
/// assert_eq!(d.value(), 0.2);
/// assert_eq!(d.sparsity(), 0.8);
/// assert!(Density::new(1.5).is_none());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Density(f64);

impl Density {
    /// Fully dense (no zeros).
    pub const DENSE: Density = Density(1.0);

    /// Creates a density, returning `None` when outside `[0, 1]` or NaN.
    #[must_use]
    pub fn new(value: f64) -> Option<Self> {
        if (0.0..=1.0).contains(&value) {
            Some(Self(value))
        } else {
            None
        }
    }

    /// Creates a density, clamping `value` into `[0, 1]` (NaN becomes 0)
    /// instead of failing. Exact for already-valid values; prefer
    /// [`Density::new`] when invalid input should be reported.
    #[must_use]
    pub fn clamped(value: f64) -> Self {
        if value.is_nan() {
            Self(0.0)
        } else {
            Self(value.clamp(0.0, 1.0))
        }
    }

    /// Creates a density from a sparsity level (fraction of zeros).
    ///
    /// `Density::from_sparsity(0.8)` is the paper's "80% sparse".
    #[must_use]
    pub fn from_sparsity(sparsity: f64) -> Option<Self> {
        Self::new(1.0 - sparsity)
    }

    /// The non-zero fraction.
    #[must_use]
    pub fn value(&self) -> f64 {
        self.0
    }

    /// The zero fraction (`1 - density`).
    #[must_use]
    pub fn sparsity(&self) -> f64 {
        1.0 - self.0
    }
}

impl Default for Density {
    fn default() -> Self {
        Density::DENSE
    }
}

impl std::fmt::Display for Density {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.0}% dense", self.0 * 100.0)
    }
}

/// Generates a dense matrix with values uniform in `(0.5, 1.5)`.
///
/// Values are bounded away from zero so that `nnz` is exact and f32 rounding
/// in long tree reductions stays well-conditioned in tests.
#[must_use]
pub fn dense_uniform(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    Matrix::from_fn(rows, cols, |_, _| rng.gen_range(0.5..1.5))
}

/// Generates a sparse matrix with an *exact* number of non-zeros:
/// `round(density * rows * cols)` positions chosen uniformly without
/// replacement, values uniform in `(0.5, 1.5)`.
///
/// Draw order: a Fisher–Yates shuffle of the `rows * cols` row-major
/// positions (one `bounded_u64(i + 1)` draw for each `i` from
/// `rows * cols - 1` down to 1) whose first `nnz` entries are kept, then
/// `nnz` value draws in row-major order.
#[must_use]
pub fn sparse_uniform(rows: usize, cols: usize, density: Density, seed: u64) -> SparseMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let total = rows * cols;
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let nnz = ((density.value() * total as f64).round() as usize).min(total);
    let mut positions: Vec<usize> = (0..total).collect();
    positions.shuffle(&mut rng);
    let mut bitmap = Bitmap::new(rows, cols);
    set_positions(bitmap.words_mut(), &positions[..nnz], 0);
    let values = (0..nnz).map(|_| rng.gen_range(0.5..1.5)).collect();
    SparseMatrix::from_parts(bitmap, values)
}

/// Sets row-major bit `offset + p` of the packed words for each `p`.
fn set_positions(words: &mut [u64], positions: &[usize], offset: usize) {
    for &p in positions {
        let bit = offset + p;
        words[bit >> 6] |= 1 << (bit & 63);
    }
}

/// Generates only the occupancy bitmap, with each bit set independently
/// with probability `density` (Bernoulli), one `gen_bool` draw per
/// element in row-major order. Used by tests that check closed-form
/// metadata expectations against an exact scan.
#[must_use]
pub fn bitmap_bernoulli(rows: usize, cols: usize, density: Density, seed: u64) -> Bitmap {
    let mut rng = StdRng::seed_from_u64(seed);
    let total = rows * cols;
    let mut bm = Bitmap::new(rows, cols);
    for (w, word) in bm.words_mut().iter_mut().enumerate() {
        for b in 0..(total - 64 * w).min(64) {
            *word |= u64::from(rng.gen_bool(density.value())) << b;
        }
    }
    bm
}

/// Generates a sparse matrix with *structured* (balanced per-row) sparsity:
/// every row has exactly `round(density * cols)` non-zeros. Used to contrast
/// structured-sparsity hardware (e.g. Cambricon-X-style) with SIGMA's
/// unstructured support.
///
/// Draw order, row by row: the row's shuffle of its `cols` columns (as in
/// [`sparse_uniform`]), then that row's values in column order.
#[must_use]
pub fn sparse_row_balanced(rows: usize, cols: usize, density: Density, seed: u64) -> SparseMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let per_row = ((density.value() * cols as f64).round() as usize).min(cols);
    let mut bitmap = Bitmap::new(rows, cols);
    let mut values = Vec::with_capacity(per_row * rows);
    let mut cs: Vec<usize> = Vec::with_capacity(cols);
    for r in 0..rows {
        cs.clear();
        cs.extend(0..cols);
        cs.shuffle(&mut rng);
        set_positions(bitmap.words_mut(), &cs[..per_row], r * cols);
        values.extend((0..per_row).map(|_| rng.gen_range(0.5f32..1.5)));
    }
    SparseMatrix::from_parts(bitmap, values)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The generator bodies before the draw-order rewrite, kept as
    // bit-for-bit oracles: same stream, sorted positions, per-bit `set`.
    fn sparse_uniform_oracle(
        rows: usize,
        cols: usize,
        density: Density,
        seed: u64,
    ) -> SparseMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let total = rows * cols;
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let nnz = ((density.value() * total as f64).round() as usize).min(total);
        let mut positions: Vec<usize> = (0..total).collect();
        positions.shuffle(&mut rng);
        positions.truncate(nnz);
        positions.sort_unstable();
        let mut bitmap = Bitmap::new(rows, cols);
        let mut values = Vec::with_capacity(nnz);
        for p in positions {
            bitmap.set(p / cols, p % cols, true);
            values.push(rng.gen_range(0.5..1.5));
        }
        SparseMatrix::from_parts(bitmap, values)
    }

    fn bitmap_bernoulli_oracle(rows: usize, cols: usize, density: Density, seed: u64) -> Bitmap {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut bm = Bitmap::new(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                if rng.gen_bool(density.value()) {
                    bm.set(r, c, true);
                }
            }
        }
        bm
    }

    fn sparse_row_balanced_oracle(
        rows: usize,
        cols: usize,
        density: Density,
        seed: u64,
    ) -> SparseMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let per_row = ((density.value() * cols as f64).round() as usize).min(cols);
        let mut bitmap = Bitmap::new(rows, cols);
        let mut values = Vec::with_capacity(per_row * rows);
        for r in 0..rows {
            let mut cs: Vec<usize> = (0..cols).collect();
            cs.shuffle(&mut rng);
            cs.truncate(per_row);
            cs.sort_unstable();
            for c in cs {
                bitmap.set(r, c, true);
                values.push(rng.gen_range(0.5..1.5));
            }
        }
        SparseMatrix::from_parts(bitmap, values)
    }

    /// Shapes with one row or one column, `rows * cols` on both sides of
    /// the 64- and 128-bit word boundaries, and an empty and a larger one.
    const ORACLE_SHAPES: [(usize, usize); 12] = [
        (1, 1),
        (1, 63),
        (64, 1),
        (1, 65),
        (7, 9),
        (8, 8),
        (5, 13),
        (1, 127),
        (128, 1),
        (3, 43),
        (0, 5),
        (37, 53),
    ];
    const ORACLE_DENSITIES: [f64; 5] = [0.0, 1.0, 0.2, 0.5, 0.3];
    const ORACLE_SEEDS: [u64; 3] = [1, 7, 7919];

    fn value_bits(s: &SparseMatrix) -> Vec<u32> {
        s.values().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn generators_match_their_oracles_bit_for_bit() {
        // `Bitmap`'s equality compares the shape and the packed words.
        let mut half_rounded = 0;
        for (rows, cols) in ORACLE_SHAPES {
            for d in ORACLE_DENSITIES {
                let density = Density::new(d).unwrap();
                if (d * (rows * cols) as f64).fract() == 0.5 {
                    half_rounded += 1;
                }
                for seed in ORACLE_SEEDS {
                    let case = format!("{rows}x{cols} at {d}, seed {seed}");
                    let (new, old) = (
                        sparse_uniform(rows, cols, density, seed),
                        sparse_uniform_oracle(rows, cols, density, seed),
                    );
                    assert_eq!(new.bitmap(), old.bitmap(), "sparse_uniform {case}");
                    assert_eq!(value_bits(&new), value_bits(&old), "sparse_uniform {case}");
                    let (new, old) = (
                        sparse_row_balanced(rows, cols, density, seed),
                        sparse_row_balanced_oracle(rows, cols, density, seed),
                    );
                    assert_eq!(new.bitmap(), old.bitmap(), "sparse_row_balanced {case}");
                    assert_eq!(value_bits(&new), value_bits(&old), "sparse_row_balanced {case}");
                    assert_eq!(
                        bitmap_bernoulli(rows, cols, density, seed),
                        bitmap_bernoulli_oracle(rows, cols, density, seed),
                        "bitmap_bernoulli {case}"
                    );
                }
            }
        }
        assert!(half_rounded > 0, "no case has density * rows * cols ending in .5");
    }

    #[test]
    fn density_validation() {
        assert!(Density::new(-0.1).is_none());
        assert!(Density::new(f64::NAN).is_none());
        assert_eq!(Density::from_sparsity(0.8).unwrap().value(), 1.0 - 0.8);
        assert_eq!(Density::default(), Density::DENSE);
        assert_eq!(Density::new(0.25).unwrap().to_string(), "25% dense");
    }

    #[test]
    fn dense_uniform_has_no_zeros() {
        let m = dense_uniform(16, 16, 42);
        assert_eq!(m.nnz(), 256);
        assert!(m.as_slice().iter().all(|v| *v > 0.5 && *v < 1.5));
    }

    #[test]
    fn sparse_uniform_exact_nnz() {
        let s = sparse_uniform(20, 30, Density::new(0.3).unwrap(), 7);
        assert_eq!(s.nnz(), (0.3f64 * 600.0).round() as usize);
        assert_eq!(s.rows(), 20);
        assert_eq!(s.cols(), 30);
    }

    #[test]
    fn sparse_uniform_is_deterministic() {
        let a = sparse_uniform(10, 10, Density::new(0.5).unwrap(), 99);
        let b = sparse_uniform(10, 10, Density::new(0.5).unwrap(), 99);
        assert_eq!(a, b);
        let c = sparse_uniform(10, 10, Density::new(0.5).unwrap(), 100);
        assert_ne!(a, c);
    }

    #[test]
    fn sparse_uniform_extremes() {
        let empty = sparse_uniform(8, 8, Density::new(0.0).unwrap(), 1);
        assert_eq!(empty.nnz(), 0);
        let full = sparse_uniform(8, 8, Density::DENSE, 1);
        assert_eq!(full.nnz(), 64);
    }

    #[test]
    fn bernoulli_density_close() {
        let bm = bitmap_bernoulli(200, 200, Density::new(0.3).unwrap(), 5);
        let d = bm.density();
        assert!((d - 0.3).abs() < 0.02, "observed density {d}");
    }

    #[test]
    fn row_balanced_rows_equal() {
        let s = sparse_row_balanced(10, 40, Density::new(0.25).unwrap(), 3);
        for r in 0..10 {
            assert_eq!(s.bitmap().row_count_ones(r), 10);
        }
    }
}
