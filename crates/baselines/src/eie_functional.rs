//! A functional EIE-style engine (Han et al., ISCA 2016): CSC-compressed
//! stationary weights striped across PEs, non-zero activations broadcast
//! one per cycle, temporal (in-place) accumulation in per-PE output
//! registers.
//!
//! This is the machine the analytic [`crate::SparseAccelerator`] EIE model
//! summarizes; here real values move so we can verify the numerics and
//! ground the model's two structural terms:
//!
//! * the **broadcast bottleneck** — one non-zero activation (column of
//!   `A`) is broadcast per cycle; PEs with no matching weight idle;
//! * **load imbalance** — output rows are statically striped over PEs, so
//!   the busiest PE sets the pace of each broadcast.
//!
//! For a GEMM `C = A x B` the engine keeps `B` (weights) stationary in
//! CSC form striped row-cyclically... more precisely: output columns `n`
//! are striped across PEs; PE `p` owns every column `n ≡ p (mod P)` and
//! stores the non-zeros of `B[:, n]` indexed by `k`. When activation
//! `A[m, k]` is broadcast, each PE multiplies it with its stored
//! non-zeros of row `k` and accumulates into its output registers.

use sigma_core::{CycleStats, GemmRun};
use sigma_matrix::{Matrix, SparseMatrix};

/// A functional EIE-style sparse engine with `pes` processing elements,
/// each able to perform `macs_per_cycle` multiply-accumulates per cycle
/// against a broadcast activation.
#[derive(Debug, Clone, Copy)]
pub struct EieEngine {
    pub(crate) pes: usize,
    macs_per_cycle: usize,
}

impl EieEngine {
    /// `pes` PEs, each consuming `macs_per_cycle` matches per broadcast
    /// cycle.
    ///
    /// # Panics
    ///
    /// Panics if either parameter is zero.
    #[must_use]
    pub fn new(pes: usize, macs_per_cycle: usize) -> Self {
        assert!(pes > 0 && macs_per_cycle > 0, "parameters must be non-zero");
        Self { pes, macs_per_cycle }
    }

    /// The datapath behind [`sigma_core::Engine::run`] on checked
    /// operands: zero activations are never broadcast and zero weights
    /// are never stored, so every issued MAC is useful. Broadcast cycles
    /// (one per non-zero activation, stretched when the busiest PE needs
    /// several cycles to consume its matches) are the streaming phase.
    pub(crate) fn gemm(&self, a: &SparseMatrix, b: &SparseMatrix) -> GemmRun {
        let b_nnz = b.nnz() as u64;
        let (a, b) = (a.to_dense(), b.to_dense());
        let (m, k, n) = (a.rows(), a.cols(), b.cols());

        // Stationary weights: per PE, per contraction row k, the list of
        // (owned-column local index, weight) non-zeros.
        let mut owned: Vec<Vec<Vec<(usize, f32)>>> = vec![vec![Vec::new(); k]; self.pes];
        for nn in 0..n {
            let pe = nn % self.pes;
            for (kk, bucket) in owned[pe].iter_mut().enumerate() {
                let w = b.get(kk, nn);
                if w != 0.0 {
                    bucket.push((nn, w));
                }
            }
        }

        let mut out = Matrix::zeros(m, n);
        let mut cycles = 0u64;
        let mut macs = 0u64;

        // Stream activations row by row (one output row at a time), and
        // within a row broadcast each non-zero activation.
        for mm in 0..m {
            for kk in 0..k {
                let act = a.get(mm, kk);
                if act == 0.0 {
                    continue; // activation sparsity: skipped entirely
                }
                // Each PE consumes its matches; the busiest PE sets the
                // number of cycles this broadcast occupies.
                let mut busiest = 0usize;
                let mut total = 0usize;
                for pe in &owned {
                    let matches = &pe[kk];
                    busiest = busiest.max(matches.len());
                    total += matches.len();
                    for &(nn, w) in matches {
                        out.set(mm, nn, out.get(mm, nn) + act * w);
                    }
                }
                macs += total as u64;
                cycles += (busiest.div_ceil(self.macs_per_cycle) as u64).max(1);
            }
        }
        let stats = CycleStats {
            streaming_cycles: cycles,
            useful_macs: u128::from(macs),
            issued_macs: u128::from(macs), // only non-zero matches issue
            mapped_nonzeros: b_nnz,
            occupied_slots: b_nnz, // CSC stores only non-zeros
            pes: self.pes as u64,
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
        let a = operand(6, 8, 0.4, 1);
        let b = operand(8, 6, 0.3, 2);
        let run = EieEngine::new(4, 1).run(&a, &b).unwrap();
        assert!(run.result.approx_eq(&a.to_dense().matmul(&b.to_dense()), 1e-4));
    }

    #[test]
    fn only_useful_macs_performed() {
        let a = operand(5, 6, 0.5, 3);
        let b = operand(6, 5, 0.5, 4);
        let run = EieEngine::new(4, 1).run(&a, &b).unwrap();
        // Exact useful-pair count.
        let (a, b) = (a.to_dense(), b.to_dense());
        let mut expected = 0u128;
        for m in 0..5 {
            for n in 0..5 {
                for k in 0..6 {
                    if a.get(m, k) != 0.0 && b.get(k, n) != 0.0 {
                        expected += 1;
                    }
                }
            }
        }
        assert_eq!(run.stats.useful_macs, expected);
        assert_eq!(run.stats.issued_macs, expected);
    }

    #[test]
    fn broadcast_is_the_floor() {
        // With many PEs and few output columns, each broadcast occupies
        // one cycle regardless: cycles == number of non-zero activations.
        let a = operand(10, 12, 0.5, 5);
        let b = operand(12, 4, 1.0, 6);
        let run = EieEngine::new(64, 1).run(&a, &b).unwrap();
        assert_eq!(run.stats.total_cycles(), a.nnz() as u64);
        // Most PEs idle: the useful work would fill under a quarter of
        // the broadcast cycles at full array width.
        let efficiency = run.stats.compute_efficiency();
        assert!(efficiency < 0.25, "compute efficiency {efficiency}");
    }

    #[test]
    fn zero_activations_are_skipped() {
        let engine = EieEngine::new(4, 1);
        let dense_a = operand(8, 8, 1.0, 7);
        let sparse_a = operand(8, 8, 0.25, 8);
        let b = operand(8, 8, 0.5, 9);
        let dense_run = engine.run(&dense_a, &b).unwrap();
        let sparse_run = engine.run(&sparse_a, &b).unwrap();
        assert!(sparse_run.stats.total_cycles() < dense_run.stats.total_cycles() / 2);
    }

    #[test]
    fn wider_pes_amortize_matches() {
        let a = operand(6, 6, 1.0, 10);
        let b = operand(6, 64, 1.0, 11);
        // 2 PEs x 1 MAC: 32 matches per PE per broadcast -> 32 cycles each.
        let slow = EieEngine::new(2, 1).run(&a, &b).unwrap();
        let fast = EieEngine::new(2, 8).run(&a, &b).unwrap();
        assert_eq!(slow.stats.total_cycles(), 36 * 32);
        assert_eq!(fast.stats.total_cycles(), 36 * 4);
        assert!(fast.result.approx_eq(&slow.result, 1e-4));
    }

    #[test]
    fn functional_cycles_track_analytic_broadcast_term() {
        // The analytic EIE model charges da*M*K/64 broadcasts (64-lane
        // bus); the functional engine with 1 broadcast/cycle matches the
        // un-laned count — the structural term, up to the lane constant.
        let a = operand(32, 32, 0.5, 12);
        let b = operand(32, 16, 0.5, 13);
        let run = EieEngine::new(256, 1).run(&a, &b).unwrap();
        assert_eq!(run.stats.total_cycles(), a.nnz() as u64);
    }
}
