//! Algorithm-based fault tolerance (ABFT) checksums for GEMM.
//!
//! The classic Huang–Abraham scheme: for `C = A·B`, the row sums of `C`
//! must equal `A · (B·1)` and the column sums must equal `(1ᵀ·A) · B`,
//! where `1` is the all-ones vector. Both sides are `O(MK + KN + MN)` to
//! evaluate — asymptotically free next to the `O(MNK)` product — and a
//! single corrupted output element `C[i][j]` perturbs exactly one row
//! residual (`i`) and one column residual (`j`) by the same delta, so it
//! can be *located* and *corrected* in place, not just detected.
//!
//! SIGMA targets DNN training, where a silent datapath error poisons
//! every downstream iteration; these checksums are the detection half of
//! the fault-tolerance story (the injection half lives in `sigma-core`).
//!
//! Floating-point accumulation makes the residuals non-zero even for a
//! correct product, so every check takes a tolerance;
//! [`residual_tolerance`] scales one from the problem shape the same way
//! the harness scales its verification tolerance with `K`.

use crate::Matrix;

/// Outcome of an ABFT checksum pass over a candidate product.
#[derive(Debug, Clone, PartialEq)]
pub enum AbftVerdict {
    /// All residuals within tolerance.
    Clean,
    /// Exactly one row and one column residual out of tolerance: the
    /// signature of a single corrupted element.
    SingleSite {
        /// Row of the corrupted element.
        row: usize,
        /// Column of the corrupted element.
        col: usize,
        /// Observed-minus-expected delta at that element (subtract it to
        /// correct, see [`correct_single`]).
        delta: f32,
    },
    /// More than one row and/or column flagged: multiple corruptions (or
    /// corruptions that cancel within a line). Not locatable by this
    /// scheme — the caller must recompute.
    MultiSite {
        /// Rows whose residuals are out of tolerance.
        rows: Vec<usize>,
        /// Columns whose residuals are out of tolerance.
        cols: Vec<usize>,
    },
}

impl AbftVerdict {
    /// `true` when the check found nothing wrong.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        matches!(self, AbftVerdict::Clean)
    }
}

/// A residual tolerance scaled from the problem shape.
///
/// A correct f32 product keeps each checksum residual within roughly
/// `eps · terms · magnitude`, where `terms ~ K·max(M,N)` values of
/// magnitude ~1 (the generators draw from `(0.5, 1.5)`) enter each
/// residual sum. The factor below leaves more than an order of magnitude
/// of headroom over that bound while staying far below the delta of any
/// fault worth detecting.
#[must_use]
pub fn residual_tolerance(m: usize, n: usize, k: usize) -> f32 {
    let terms = (k.max(1) * m.max(n).max(1)) as f32;
    (4e-6 * terms).max(1e-4)
}

/// Runs the row/column checksum test on a candidate product `c ≈ a·b`.
///
/// Residuals whose magnitude exceeds `tol` — or that are NaN/infinite —
/// flag their row or column; the pattern of flagged lines yields the
/// verdict.
///
/// Every matrix is read a row at a time. Column checksums keep one
/// running sum per column, so each checksum still adds its terms in
/// ascending index order from the value `f32`'s `Sum` starts at: the
/// sign of a zero sum and the payload of a NaN are those of summing each
/// line with an iterator.
///
/// # Panics
///
/// Panics if the shapes are inconsistent (`a: M×K`, `b: K×N`, `c: M×N`).
#[must_use]
pub fn check_product(a: &Matrix, b: &Matrix, c: &Matrix, tol: f32) -> AbftVerdict {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    assert_eq!(b.rows(), k, "inner dimensions disagree");
    assert_eq!((c.rows(), c.cols()), (m, n), "product shape disagrees");
    let start: f32 = std::iter::empty::<f32>().sum();

    // B's row sums (the `B·1` column checksum vector).
    let b_row_sums: Vec<f32> = (0..k).map(|kk| b.row(kk).iter().sum()).collect();
    // A's column sums (the `1ᵀ·A` row checksum vector), and C's.
    let col_sums = |x: &Matrix| {
        let mut sums = vec![start; x.cols()];
        for i in 0..x.rows() {
            for (s, &v) in sums.iter_mut().zip(x.row(i)) {
                *s += v;
            }
        }
        sums
    };
    let a_col_sums = col_sums(a);

    // A NaN residual must flag its line too.
    let out_of_tol = |r: f32| !r.is_finite() || r.abs() > tol;

    let mut rows = Vec::new();
    let mut row_delta = 0.0f32;
    for i in 0..m {
        let observed: f32 = c.row(i).iter().sum();
        let expected: f32 = a.row(i).iter().zip(&b_row_sums).map(|(x, s)| x * s).sum();
        let r = observed - expected;
        if out_of_tol(r) {
            rows.push(i);
            row_delta = r;
        }
    }

    let observed = col_sums(c);
    let mut expected = vec![start; n];
    for (kk, s) in a_col_sums.iter().enumerate() {
        for (e, y) in expected.iter_mut().zip(b.row(kk)) {
            *e += s * y;
        }
    }
    let cols: Vec<usize> = (0..n).filter(|&j| out_of_tol(observed[j] - expected[j])).collect();

    match (rows.len(), cols.len()) {
        (0, 0) => AbftVerdict::Clean,
        (1, 1) => AbftVerdict::SingleSite { row: rows[0], col: cols[0], delta: row_delta },
        _ => AbftVerdict::MultiSite { rows, cols },
    }
}

/// Corrects a located single-site error in place: subtracts `delta` from
/// `c[row][col]`. Callers should re-run [`check_product`] afterwards —
/// a NaN/infinity corruption is located but not recoverable by
/// subtraction.
///
/// # Panics
///
/// Panics if `(row, col)` is out of bounds.
pub fn correct_single(c: &mut Matrix, row: usize, col: usize, delta: f32) {
    let fixed = c.get(row, col) - delta;
    c.set(row, col, if fixed.is_finite() { fixed } else { 0.0 });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{dense_uniform, Density};

    fn product(m: usize, n: usize, k: usize, seed: u64) -> (Matrix, Matrix, Matrix) {
        let a = dense_uniform(m, k, seed);
        let b = dense_uniform(k, n, seed ^ 0xabcd);
        let c = a.matmul(&b);
        (a, b, c)
    }

    /// The column-walking check that [`check_product`] replaced, kept as
    /// its oracle: every checksum through bounds-checked `get`, each line
    /// summed by an iterator.
    fn check_product_by_columns(a: &Matrix, b: &Matrix, c: &Matrix, tol: f32) -> AbftVerdict {
        let (m, k, n) = (a.rows(), a.cols(), b.cols());
        let b_row_sums: Vec<f32> = (0..k).map(|kk| (0..n).map(|j| b.get(kk, j)).sum()).collect();
        let a_col_sums: Vec<f32> = (0..k).map(|kk| (0..m).map(|i| a.get(i, kk)).sum()).collect();
        let out_of_tol = |r: f32| !r.is_finite() || r.abs() > tol;
        let mut rows = Vec::new();
        let mut row_delta = 0.0f32;
        for i in 0..m {
            let observed: f32 = (0..n).map(|j| c.get(i, j)).sum();
            let expected: f32 = b_row_sums.iter().enumerate().map(|(kk, s)| a.get(i, kk) * s).sum();
            let r = observed - expected;
            if out_of_tol(r) {
                rows.push(i);
                row_delta = r;
            }
        }
        let mut cols = Vec::new();
        for j in 0..n {
            let observed: f32 = (0..m).map(|i| c.get(i, j)).sum();
            let expected: f32 = a_col_sums.iter().enumerate().map(|(kk, s)| s * b.get(kk, j)).sum();
            if out_of_tol(observed - expected) {
                cols.push(j);
            }
        }
        match (rows.len(), cols.len()) {
            (0, 0) => AbftVerdict::Clean,
            (1, 1) => AbftVerdict::SingleSite { row: rows[0], col: cols[0], delta: row_delta },
            _ => AbftVerdict::MultiSite { rows, cols },
        }
    }

    /// Verdicts with `delta` compared by bits, so a NaN delta must carry
    /// the same payload and a zero the same sign.
    fn verdict_bits(v: &AbftVerdict) -> (AbftVerdict, Option<u32>) {
        match *v {
            AbftVerdict::SingleSite { row, col, delta } => {
                (AbftVerdict::SingleSite { row, col, delta: 0.0 }, Some(delta.to_bits()))
            }
            ref other => (other.clone(), None),
        }
    }

    #[test]
    fn row_streaming_check_matches_the_column_walk() {
        let mut checked = 0;
        for seed in 0..12u64 {
            let (m, n, k) = (1 + seed as usize % 7, 1 + (seed as usize * 5) % 9, seed as usize % 6);
            let (a, b, clean) = product(m, n, k, seed);
            let tol = residual_tolerance(m, n, k);
            let (i, j) = (seed as usize % m, (seed as usize * 3) % n);
            let mut cases = vec![clean.clone()];
            for v in [f32::NAN, -f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.0, -0.0] {
                let mut c = clean.clone();
                c.set(i, j, v);
                cases.push(c);
            }
            // A NaN with a payload of its own, a single-site offset, and
            // a second site in another row and column.
            let mut c = clean.clone();
            c.set(i, j, f32::from_bits(0x7fc0_1234));
            cases.push(c);
            let mut c = clean.clone();
            c.set(i, j, c.get(i, j) + 3.0);
            cases.push(c.clone());
            c.set((i + 1) % m, (j + 1) % n, -5.0);
            cases.push(c);
            // Operands with negative zeros and infinities of their own.
            let signed =
                Matrix::from_fn(m, k, |r, q| if (r + q) % 3 == 0 { -0.0 } else { a.get(r, q) });
            let mut huge = b.clone();
            if k > 0 {
                huge.set(0, 0, f32::INFINITY);
            }
            for (x, y) in [(&a, &b), (&signed, &b), (&a, &huge)] {
                for c in &cases {
                    let got = check_product(x, y, c, tol);
                    let want = check_product_by_columns(x, y, c, tol);
                    assert_eq!(verdict_bits(&got), verdict_bits(&want), "seed {seed}");
                    checked += 1;
                }
            }
        }
        assert_eq!(checked, 12 * 3 * 10);
    }

    #[test]
    fn clean_product_passes() {
        for seed in 0..8 {
            let (a, b, c) = product(12, 9, 17, seed);
            let tol = residual_tolerance(12, 9, 17);
            assert_eq!(check_product(&a, &b, &c, tol), AbftVerdict::Clean, "seed {seed}");
        }
    }

    #[test]
    fn sparse_clean_product_passes() {
        let a = crate::gen::sparse_uniform(16, 20, Density::new(0.3).unwrap(), 3).to_dense();
        let b = crate::gen::sparse_uniform(20, 10, Density::new(0.5).unwrap(), 4).to_dense();
        let c = a.matmul(&b);
        assert!(check_product(&a, &b, &c, residual_tolerance(16, 10, 20)).is_clean());
    }

    #[test]
    fn single_corruption_is_located_and_corrected() {
        let (a, b, mut c) = product(10, 11, 13, 42);
        let tol = residual_tolerance(10, 11, 13);
        let clean = c.clone();
        c.set(3, 7, c.get(3, 7) + 2.5);
        match check_product(&a, &b, &c, tol) {
            AbftVerdict::SingleSite { row, col, delta } => {
                assert_eq!((row, col), (3, 7));
                assert!((delta - 2.5).abs() < tol, "delta {delta}");
                correct_single(&mut c, row, col, delta);
                assert!(c.approx_eq(&clean, tol));
                assert!(check_product(&a, &b, &c, tol).is_clean());
            }
            v => panic!("expected SingleSite, got {v:?}"),
        }
    }

    #[test]
    fn nan_corruption_is_flagged() {
        let (a, b, mut c) = product(6, 6, 6, 7);
        c.set(2, 2, f32::NAN);
        let v = check_product(&a, &b, &c, residual_tolerance(6, 6, 6));
        assert!(matches!(v, AbftVerdict::SingleSite { row: 2, col: 2, .. }), "got {v:?}");
    }

    #[test]
    fn two_errors_in_one_row_are_multi_site() {
        let (a, b, mut c) = product(8, 8, 8, 9);
        c.set(1, 2, c.get(1, 2) + 1.0);
        c.set(1, 5, c.get(1, 5) + 1.0);
        match check_product(&a, &b, &c, residual_tolerance(8, 8, 8)) {
            AbftVerdict::MultiSite { cols, .. } => assert_eq!(cols, vec![2, 5]),
            v => panic!("expected MultiSite, got {v:?}"),
        }
    }

    #[test]
    fn scattered_errors_are_multi_site() {
        let (a, b, mut c) = product(8, 8, 8, 10);
        c.set(0, 0, c.get(0, 0) + 1.0);
        c.set(4, 6, c.get(4, 6) - 3.0);
        assert!(matches!(
            check_product(&a, &b, &c, residual_tolerance(8, 8, 8)),
            AbftVerdict::MultiSite { .. }
        ));
    }

    #[test]
    fn sub_tolerance_perturbation_is_benign() {
        let (a, b, mut c) = product(8, 8, 8, 11);
        let tol = residual_tolerance(8, 8, 8);
        c.set(2, 3, c.get(2, 3) + tol / 10.0);
        assert!(check_product(&a, &b, &c, tol).is_clean());
    }

    #[test]
    fn tolerance_scales_with_shape() {
        assert!(residual_tolerance(128, 128, 128) > residual_tolerance(8, 8, 8));
        assert!(residual_tolerance(0, 0, 0) >= 1e-4);
    }

    #[test]
    fn correct_single_sanitizes_non_finite() {
        let (_, _, mut c) = product(4, 4, 4, 12);
        c.set(1, 1, f32::INFINITY);
        correct_single(&mut c, 1, 1, f32::INFINITY);
        assert!(c.all_finite());
    }
}
