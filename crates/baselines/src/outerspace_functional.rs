//! A functional outer-product engine (OuterSPACE-style, Pal et al.,
//! HPCA 2018): the multiply phase forms rank-1 outer products
//! `A[:,k] ⊗ B[k,:]` touching only non-zero pairs, then a merge phase
//! sorts/accumulates the partial products into the output.
//!
//! The multiply phase is embarrassingly parallel and perfectly sparse —
//! no wasted multiplies ever. The cost center is the merge: every
//! partial product must be routed to and combined at its output location,
//! at a sustained merge throughput well below the multiplier count (the
//! structural term of the analytic model).

use sigma_core::{CycleStats, GemmRun};
use sigma_matrix::{Matrix, SparseMatrix};

/// A functional outer-product GEMM engine.
#[derive(Debug, Clone, Copy)]
pub struct OuterSpaceEngine {
    pub(crate) multipliers: usize,
    /// Partial products merged per cycle (sustained).
    merge_throughput: usize,
}

impl OuterSpaceEngine {
    /// `multipliers` parallel multipliers, merging `merge_throughput`
    /// partial products per cycle.
    ///
    /// # Panics
    ///
    /// Panics if either parameter is zero.
    #[must_use]
    pub fn new(multipliers: usize, merge_throughput: usize) -> Self {
        assert!(multipliers > 0 && merge_throughput > 0, "parameters must be non-zero");
        Self { multipliers, merge_throughput }
    }

    /// The datapath behind [`sigma_core::Engine::run`] on checked
    /// operands: `C = sum_k A[:,k] ⊗ B[k,:]`. The multiply phase (useful
    /// pairs over the multiplier pool) streams; the serialized merge
    /// phase (partial products over the merge throughput) is the add
    /// phase, as in OuterSPACE's two-phase execution.
    pub(crate) fn gemm(&self, a: &SparseMatrix, b: &SparseMatrix) -> GemmRun {
        let (a, b) = (a.to_dense(), b.to_dense());
        let (m, k, n) = (a.rows(), a.cols(), b.cols());

        // Multiply phase: enumerate non-zero pairs per rank-1 update.
        let mut out = Matrix::zeros(m, n);
        let mut pairs = 0u64;
        for kk in 0..k {
            // Gather the non-zeros of A's column and B's row once.
            let col: Vec<(usize, f32)> = (0..m)
                .filter_map(|mm| {
                    let v = a.get(mm, kk);
                    (v != 0.0).then_some((mm, v))
                })
                .collect();
            let row: Vec<(usize, f32)> = (0..n)
                .filter_map(|nn| {
                    let v = b.get(kk, nn);
                    (v != 0.0).then_some((nn, v))
                })
                .collect();
            for &(mm, av) in &col {
                for &(nn, bv) in &row {
                    out.set(mm, nn, out.get(mm, nn) + av * bv);
                    pairs += 1;
                }
            }
        }

        let stats = CycleStats {
            streaming_cycles: pairs.div_ceil(self.multipliers as u64).max(u64::from(pairs > 0)),
            add_cycles: pairs.div_ceil(self.merge_throughput as u64),
            useful_macs: u128::from(pairs),
            issued_macs: u128::from(pairs),
            pes: self.multipliers as u64,
            ..CycleStats::default()
        };
        GemmRun { result: out, stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigma_core::Engine;
    use sigma_matrix::gen::{sparse_uniform, Density};

    fn operand(rows: usize, cols: usize, density: f64, seed: u64) -> SparseMatrix {
        sparse_uniform(rows, cols, Density::new(density).unwrap(), seed)
    }

    #[test]
    fn computes_correct_product() {
        let a = operand(7, 9, 0.4, 1);
        let b = operand(9, 5, 0.4, 2);
        let run = OuterSpaceEngine::new(16, 4).run(&a, &b).unwrap();
        assert!(run.result.approx_eq(&a.to_dense().matmul(&b.to_dense()), 1e-4));
    }

    #[test]
    fn pairs_equal_useful_macs() {
        let a = operand(6, 6, 0.5, 3);
        let b = operand(6, 6, 0.5, 4);
        let run = OuterSpaceEngine::new(8, 2).run(&a, &b).unwrap();
        let (a, b) = (a.to_dense(), b.to_dense());
        let mut expected = 0u128;
        for m in 0..6 {
            for n in 0..6 {
                for k in 0..6 {
                    if a.get(m, k) != 0.0 && b.get(k, n) != 0.0 {
                        expected += 1;
                    }
                }
            }
        }
        assert_eq!(run.stats.useful_macs, expected);
    }

    #[test]
    fn merge_phase_dominates_at_low_throughput() {
        let a = operand(16, 16, 0.5, 5);
        let b = operand(16, 16, 0.5, 6);
        let stats = OuterSpaceEngine::new(64, 16).run(&a, &b).unwrap().stats;
        assert!(stats.add_cycles > stats.streaming_cycles);
        // The 4x throughput gap matches the analytic model's 0.25 factor.
        assert_eq!(u128::from(stats.add_cycles), stats.useful_macs.div_ceil(16));
    }

    #[test]
    fn empty_operands_cost_nothing() {
        let a = SparseMatrix::from_dense(&Matrix::zeros(4, 4));
        let b = operand(4, 4, 1.0, 9);
        let run = OuterSpaceEngine::new(8, 2).run(&a, &b).unwrap();
        assert_eq!(run.stats.useful_macs, 0);
        assert_eq!(run.stats.total_cycles(), 0);
        assert_eq!(run.result, Matrix::zeros(4, 4));
    }

    #[test]
    fn sparsity_in_both_operands_multiplies_savings() {
        let engine = OuterSpaceEngine::new(4, 4);
        let dense_pair = {
            let (a, b) = (operand(12, 12, 1.0, 10), operand(12, 12, 1.0, 11));
            engine.run(&a, &b).unwrap().stats.total_cycles()
        };
        let sparse_pair = {
            let (a, b) = (operand(12, 12, 0.3, 12), operand(12, 12, 0.3, 13));
            engine.run(&a, &b).unwrap().stats.total_cycles()
        };
        // ~0.09x the work.
        assert!((sparse_pair as f64) < 0.2 * dense_pair as f64);
    }
}
