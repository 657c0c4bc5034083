//! Column combining (Kung et al., ASPLOS 2019) — the "Packed Systolic"
//! baseline, implemented as a real packing algorithm timed by the
//! functional systolic array's fold formula.
//!
//! The idea: a sparse weight matrix's columns are greedily *combined*
//! into groups whose non-zero patterns (mostly) don't collide on the
//! same row; each group occupies a single physical systolic column whose
//! PEs carry per-weight column indices. Combining removes zero rows of
//! compute but only works up to a packing factor (the paper caps the
//! benefit at ~4x, and conflicts force pruning or serialization — here
//! we take the standard "prune conflicts" variant, which makes the
//! computation *approximate* unless the column patterns are disjoint).
//!
//! [`PackedSystolicEngine`] packs with a zero conflict budget (lossless),
//! computes the scatter-correct packed product, and charges the folds a
//! rigid weight-stationary array takes over the packed matrix. This
//! grounds the analytic `SparseAcceleratorKind::PackedSystolic` model:
//! weight-sparsity-only benefit, capped packing, activations dense.

use crate::engines::useful_macs;
use crate::SystolicEngine;
use sigma_core::{CycleStats, GemmRun};
use sigma_matrix::{Matrix, SparseMatrix};

/// The packed (column-combined) systolic array: an `rows x cols`
/// weight-stationary array streaming the packed weight matrix.
#[derive(Debug, Clone, Copy)]
pub struct PackedSystolicEngine {
    pub(crate) array: SystolicEngine,
    pub(crate) max_combine: usize,
}

impl PackedSystolicEngine {
    /// An `rows x cols` array packing up to `max_combine` weight columns
    /// per physical column.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero.
    #[must_use]
    pub fn new(rows: usize, cols: usize, max_combine: usize) -> Self {
        assert!(max_combine > 0, "max_combine must be non-zero");
        Self { array: SystolicEngine::weight_stationary(rows, cols), max_combine }
    }

    /// The datapath behind [`sigma_core::Engine::run`] on checked
    /// operands. The weights are packed once: the scatter-correct packed
    /// product gives the numerics, and the array's fold formula over the
    /// packed (narrower) weight matrix gives the latency.
    pub(crate) fn gemm(&self, a: &SparseMatrix, b: &SparseMatrix) -> GemmRun {
        let (ad, bd) = (a.to_dense(), b.to_dense());
        let packing = combine_columns(&bd, self.max_combine, 0);
        let column_of = pack_weights(&bd, &packing);
        let result = packed_product(&ad, &bd, &column_of);
        let k = a.cols();
        let groups = packing.groups.len();
        let mut stats = CycleStats {
            useful_macs: useful_macs(a, b),
            issued_macs: (a.rows() * groups * k) as u128,
            mapped_nonzeros: b.nnz() as u64,
            occupied_slots: (k * groups) as u64,
            pes: (self.array.rows * self.array.cols) as u64,
            ..CycleStats::default()
        };
        self.array.charge_weight_stationary(a.rows(), k, groups, &mut stats);
        GemmRun { result, stats }
    }
}

/// The result of packing a sparse matrix's columns.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnPacking {
    /// `groups[g]` lists the original column indices packed into
    /// physical column `g`.
    pub groups: Vec<Vec<usize>>,
    /// Non-zeros dropped because two combined columns collided on a row
    /// (the lossy part of column combining; training recovers these).
    pub conflicts_pruned: usize,
    /// Total non-zeros retained.
    pub retained: usize,
}

impl ColumnPacking {
    /// Packing factor achieved: original columns per physical column.
    #[must_use]
    pub fn packing_factor(&self) -> f64 {
        if self.groups.is_empty() {
            return 1.0;
        }
        let total: usize = self.groups.iter().map(Vec::len).sum();
        total as f64 / self.groups.len() as f64
    }
}

/// Greedily combines the columns of `w` (a `K x N` weight matrix) into
/// groups of at most `max_combine` columns, first-fit by conflict count:
/// a column joins the first group where it collides on fewer than
/// `conflict_budget` rows; colliding entries of the *joining* column are
/// pruned.
#[must_use]
pub fn combine_columns(w: &Matrix, max_combine: usize, conflict_budget: usize) -> ColumnPacking {
    assert!(max_combine >= 1, "max_combine must be at least 1");
    let (k, n) = (w.rows(), w.cols());
    // occupancy[g][r] = true when group g already has a weight on row r.
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut occupancy: Vec<Vec<bool>> = Vec::new();
    let mut pruned = 0usize;
    let mut retained = 0usize;

    for col in 0..n {
        let pattern: Vec<usize> = (0..k).filter(|&r| w.get(r, col) != 0.0).collect();
        let mut placed = false;
        for (g, occ) in occupancy.iter_mut().enumerate() {
            if groups[g].len() >= max_combine {
                continue;
            }
            let conflicts = pattern.iter().filter(|&&r| occ[r]).count();
            if conflicts <= conflict_budget {
                for &r in &pattern {
                    if occ[r] {
                        pruned += 1;
                    } else {
                        occ[r] = true;
                        retained += 1;
                    }
                }
                groups[g].push(col);
                placed = true;
                break;
            }
        }
        if !placed {
            let mut occ = vec![false; k];
            for &r in &pattern {
                occ[r] = true;
            }
            retained += pattern.len();
            groups.push(vec![col]);
            occupancy.push(occ);
        }
    }
    ColumnPacking { groups, conflicts_pruned: pruned, retained }
}

/// Maps each PE of the packed array to its weight: `column_of[g][r]` is
/// the original output column whose weight the PE at `(r, g)` holds (or
/// `None` when no weight is packed there). The packed array has
/// `groups.len()` physical columns instead of `N`.
fn pack_weights(w: &Matrix, packing: &ColumnPacking) -> Vec<Vec<Option<usize>>> {
    let k = w.rows();
    let mut column_of: Vec<Vec<Option<usize>>> = vec![vec![None; k]; packing.groups.len()];
    for (g, members) in packing.groups.iter().enumerate() {
        for &col in members {
            for (r, slot) in column_of[g].iter_mut().enumerate() {
                if w.get(r, col) != 0.0 && slot.is_none() {
                    *slot = Some(col);
                }
            }
        }
    }
    column_of
}

/// `C = A x W` on the packed array: activations stream densely; each
/// packed column's per-row products scatter to their original output
/// columns (exact when no conflicts were pruned).
fn packed_product(a: &Matrix, w: &Matrix, column_of: &[Vec<Option<usize>>]) -> Matrix {
    let (m, k) = (a.rows(), a.cols());
    let mut out = Matrix::zeros(m, w.cols());
    for col_map in column_of {
        for mm in 0..m {
            for (r, dest) in col_map.iter().enumerate().take(k) {
                if let Some(dest) = dest {
                    let wv = w.get(r, *dest);
                    out.set(mm, *dest, out.get(mm, *dest) + a.get(mm, r) * wv);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigma_core::Engine;
    use sigma_matrix::gen::{sparse_uniform, Density};

    #[test]
    fn disjoint_columns_pack_losslessly() {
        // Columns with disjoint row patterns combine with no pruning.
        let w = Matrix::from_rows(&[
            &[1.0, 0.0, 0.0, 2.0],
            &[0.0, 3.0, 0.0, 0.0],
            &[0.0, 0.0, 4.0, 0.0],
            &[5.0, 0.0, 0.0, 0.0],
        ]);
        let p = combine_columns(&w, 4, 0);
        assert_eq!(p.conflicts_pruned, 0);
        assert!(p.packing_factor() > 1.0, "factor {}", p.packing_factor());
        assert_eq!(p.retained, w.nnz());
    }

    #[test]
    fn packed_gemm_exact_with_zero_budget_when_disjoint() {
        let w = Matrix::from_rows(&[&[1.0, 0.0, 0.0], &[0.0, 3.0, 0.0], &[0.0, 0.0, 4.0]]);
        let a = sparse_uniform(5, 3, Density::DENSE, 1);
        let run =
            PackedSystolicEngine::new(4, 4, 4).run(&a, &SparseMatrix::from_dense(&w)).unwrap();
        assert!(run.result.approx_eq(&a.to_dense().matmul(&w), 1e-5));
        // Three disjoint columns fit one physical column: K x 1 slots.
        assert_eq!(run.stats.occupied_slots, 3);
    }

    #[test]
    fn sparser_weights_pack_tighter() {
        let sparse = sparse_uniform(64, 64, Density::new(0.1).unwrap(), 2).to_dense();
        let denser = sparse_uniform(64, 64, Density::new(0.5).unwrap(), 3).to_dense();
        let ps = combine_columns(&sparse, 8, 0);
        let pd = combine_columns(&denser, 8, 0);
        assert!(
            ps.packing_factor() > pd.packing_factor(),
            "sparse {} vs dense {}",
            ps.packing_factor(),
            pd.packing_factor()
        );
        assert!(ps.packing_factor() > 2.0);
    }

    #[test]
    fn max_combine_caps_the_factor() {
        let w = sparse_uniform(64, 64, Density::new(0.05).unwrap(), 4).to_dense();
        let p = combine_columns(&w, 4, 0);
        assert!(p.packing_factor() <= 4.0 + 1e-9);
        for g in &p.groups {
            assert!(g.len() <= 4);
        }
    }

    #[test]
    fn every_column_lands_exactly_once() {
        let w = sparse_uniform(32, 40, Density::new(0.2).unwrap(), 5).to_dense();
        let p = combine_columns(&w, 6, 0);
        let mut seen = vec![false; 40];
        for g in &p.groups {
            for &c in g {
                assert!(!seen[c], "column {c} packed twice");
                seen[c] = true;
            }
        }
        assert!(seen.into_iter().all(|s| s));
    }

    #[test]
    fn packed_cycles_match_the_functional_pass_over_the_packed_weights() {
        // The packed engine charges its latency by the fold formula; the
        // functional weight-stationary pass over the packed `K x groups`
        // matrix must count the same cycles and folds. K and N straddle
        // the 4x4 array, and M = 0 and M = 1 are the formula's edges.
        let array = SystolicEngine::weight_stationary(4, 4);
        let engine = PackedSystolicEngine::new(4, 4, 2);
        for (m, k, n, seed) in [(0, 7, 11, 1u64), (1, 7, 11, 2), (1, 4, 4, 3), (5, 9, 13, 4)] {
            for density in [0.3, 1.0] {
                let a = sparse_uniform(m, k, Density::DENSE, seed);
                let w = sparse_uniform(k, n, Density::new(density).unwrap(), seed + 10);
                let wd = w.to_dense();
                let column_of = pack_weights(&wd, &combine_columns(&wd, 2, 0));
                let mut packed = Matrix::zeros(k, column_of.len());
                for (g, rows) in column_of.iter().enumerate() {
                    for (r, col) in rows.iter().enumerate() {
                        if let Some(col) = col {
                            packed.set(r, g, wd.get(r, *col));
                        }
                    }
                }
                let mut want = CycleStats::default();
                let _ = array.weight_stationary_pass(&a.to_dense(), &packed, &mut want);
                let got = engine.run(&a, &w).unwrap().stats;
                let at = format!("m={m} k={k} n={n} density={density}");
                assert!(want.folds > 1 || (k, n) == (4, 4), "{at}: too few folds");
                assert_eq!(got.folds, want.folds, "{at}");
                assert_eq!(got.streaming_cycles, want.streaming_cycles, "{at}");
                assert_eq!(got.total_cycles(), want.total_cycles(), "{at}");
            }
        }
    }

    #[test]
    fn zero_budget_packing_is_always_exact() {
        // With conflict_budget 0 nothing is pruned, so the packed GEMM is
        // exact for any operand.
        let w = sparse_uniform(24, 24, Density::new(0.15).unwrap(), 6);
        let a = sparse_uniform(10, 24, Density::new(0.8).unwrap(), 7);
        let run = PackedSystolicEngine::new(4, 4, 8).run(&a, &w).unwrap();
        assert!(run.result.approx_eq(&a.to_dense().matmul(&w.to_dense()), 1e-4));
        // And the packed array is narrower than the original: fewer
        // than 24 physical columns of K slots each.
        assert!(run.stats.occupied_slots < 24 * 24, "{}", run.stats.occupied_slots);
    }
}
