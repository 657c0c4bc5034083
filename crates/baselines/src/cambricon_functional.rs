//! A functional Cambricon-X-style engine (Zhang et al., MICRO 2016):
//! PEs hold *compressed weights* with step indexes; a central indexing
//! module selects, per cycle, the activations matching each PE's next
//! weight group. Weight zeros are skipped; activations are fetched
//! densely (no activation-sparsity support — the design's Table III
//! limitation).
//!
//! Per output neuron (column of `B`), the PE walks its compressed weight
//! list in groups of `lanes` (the 16-wide synapse selectors of the real
//! design); each group costs one cycle plus the indexing overhead.

use crate::engines::useful_macs;
use sigma_core::{CycleStats, GemmRun};
use sigma_matrix::{Matrix, SparseMatrix};

/// A functional Cambricon-X-style weight-sparse engine.
#[derive(Debug, Clone, Copy)]
pub struct CambriconEngine {
    pub(crate) pes: usize,
    /// Synapse-selector width: weights consumed per PE per cycle.
    pub(crate) lanes: usize,
}

impl CambriconEngine {
    /// `pes` PEs, each with `lanes` synapse-selector lanes.
    ///
    /// # Panics
    ///
    /// Panics if either parameter is zero.
    #[must_use]
    pub fn new(pes: usize, lanes: usize) -> Self {
        assert!(pes > 0 && lanes > 0, "parameters must be non-zero");
        Self { pes, lanes }
    }

    /// The datapath behind [`sigma_core::Engine::run`] on checked
    /// operands: output columns stripe across PEs; each PE holds its
    /// columns' non-zero weights (with step indexes) and, for every
    /// activation row `m`, walks them `lanes` at a time. The busiest PE
    /// paces the array; activations issue densely.
    pub(crate) fn gemm(&self, a: &SparseMatrix, b: &SparseMatrix) -> GemmRun {
        let (useful, b_nnz) = (useful_macs(a, b), b.nnz() as u64);
        let (a, b) = (a.to_dense(), b.to_dense());
        let (m, k, n) = (a.rows(), a.cols(), b.cols());

        // Compress each output column's weights: (k, w) pairs.
        let compressed: Vec<Vec<(usize, f32)>> = (0..n)
            .map(|nn| {
                (0..k)
                    .filter_map(|kk| {
                        let w = b.get(kk, nn);
                        (w != 0.0).then_some((kk, w))
                    })
                    .collect()
            })
            .collect();

        let mut out = Matrix::zeros(m, n);
        let mut issued = 0u64;
        // Per activation row, every PE walks its columns' weight lists;
        // the busiest PE paces the array.
        let mut per_pe_cycles = vec![0u64; self.pes];
        for (nn, weights) in compressed.iter().enumerate() {
            let pe = nn % self.pes;
            let groups = weights.len().div_ceil(self.lanes) as u64;
            per_pe_cycles[pe] += groups * m as u64;
            issued += (weights.len() * m) as u64;
            for mm in 0..m {
                let mut acc = 0.0f32;
                for &(kk, w) in weights {
                    acc += a.get(mm, kk) * w;
                }
                out.set(mm, nn, acc);
            }
        }
        let stats = CycleStats {
            streaming_cycles: per_pe_cycles.into_iter().max().unwrap_or(0),
            useful_macs: useful,
            issued_macs: u128::from(issued), // dense activations issue
            mapped_nonzeros: b_nnz,
            occupied_slots: b_nnz,
            pes: (self.pes * self.lanes) as u64,
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
        let a = operand(6, 10, 0.6, 1);
        let b = operand(10, 7, 0.3, 2);
        let run = CambriconEngine::new(4, 4).run(&a, &b).unwrap();
        assert!(run.result.approx_eq(&a.to_dense().matmul(&b.to_dense()), 1e-4));
    }

    #[test]
    fn weight_sparsity_cuts_cycles() {
        let a = operand(8, 16, 1.0, 3);
        let dense_w = operand(16, 8, 1.0, 4);
        let sparse_w = operand(16, 8, 0.25, 5);
        let engine = CambriconEngine::new(4, 4);
        let d = engine.run(&a, &dense_w).unwrap().stats;
        let s = engine.run(&a, &sparse_w).unwrap().stats;
        assert!(s.total_cycles() < d.total_cycles());
        assert!(s.issued_macs < d.issued_macs);
    }

    #[test]
    fn activation_sparsity_is_ignored() {
        // Same weights, sparser activations: identical cycle count (the
        // design cannot skip activation zeros).
        let w = operand(12, 6, 0.5, 6);
        let dense_a = operand(8, 12, 1.0, 7);
        let sparse_a = operand(8, 12, 0.2, 8);
        let engine = CambriconEngine::new(4, 4);
        assert_eq!(
            engine.run(&dense_a, &w).unwrap().stats.total_cycles(),
            engine.run(&sparse_a, &w).unwrap().stats.total_cycles()
        );
    }

    #[test]
    fn lane_width_amortizes_weight_walks() {
        let a = operand(4, 32, 1.0, 9);
        let w = operand(32, 4, 1.0, 10);
        let narrow = CambriconEngine::new(2, 4).run(&a, &w).unwrap();
        let wide = CambriconEngine::new(2, 16).run(&a, &w).unwrap();
        assert!(wide.stats.total_cycles() < narrow.stats.total_cycles());
        assert!(wide.result.approx_eq(&narrow.result, 1e-5));
    }

    #[test]
    fn striping_imbalance_paces_the_array() {
        // One heavy column among light ones: the PE owning it dominates.
        let mut b = Matrix::zeros(16, 4);
        for kk in 0..16 {
            b.set(kk, 0, 1.0); // column 0: 16 weights
        }
        b.set(0, 1, 1.0); // others: 1 weight
        b.set(0, 2, 1.0);
        b.set(0, 3, 1.0);
        let a = operand(4, 16, 1.0, 11);
        let run = CambriconEngine::new(4, 4).run(&a, &SparseMatrix::from_dense(&b)).unwrap();
        // PE 0 walks ceil(16/4)=4 groups x 4 rows = 16 cycles; others 4.
        assert_eq!(run.stats.total_cycles(), 16);
    }
}
