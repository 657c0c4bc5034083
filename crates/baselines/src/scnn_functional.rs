//! A functional SCNN-style engine (Parashar et al., ISCA 2017): each PE
//! takes a vector of `F` non-zero weights and a vector of `I` non-zero
//! activations per cycle and computes their full `F x I` cartesian
//! product; the partial products then cross a crossbar into banked
//! accumulator memories, where *bank conflicts* serialize writes.
//!
//! On convolutions the cartesian product is always useful; on GEMM
//! (a 1x1 convolution) two products are useful only if they belong to
//! the same output — they always do here because we pair an activation
//! `A[m, k]` with weights `B[k, :]` (same `k`), so products target
//! different outputs and the *crossbar scatter*, not the multiplier,
//! becomes the bottleneck. That is exactly the structural claim of the
//! paper's Table III and our analytic SCNN model.

use sigma_core::{CycleStats, GemmRun};
use sigma_matrix::{Matrix, SparseMatrix};

/// A functional SCNN-style cartesian-product engine.
#[derive(Debug, Clone, Copy)]
pub struct ScnnEngine {
    /// Multipliers per cycle (the F x I array, e.g. 16 for 4x4).
    pub(crate) mults_per_cycle: usize,
    /// Accumulator banks (each accepts one write per cycle).
    pub(crate) banks: usize,
}

impl ScnnEngine {
    /// `mults_per_cycle` cartesian-product multipliers scattering into
    /// `banks` accumulator banks.
    ///
    /// # Panics
    ///
    /// Panics if either parameter is zero.
    #[must_use]
    pub fn new(mults_per_cycle: usize, banks: usize) -> Self {
        assert!(mults_per_cycle > 0 && banks > 0, "parameters must be non-zero");
        Self { mults_per_cycle, banks }
    }

    /// The datapath behind [`sigma_core::Engine::run`] on checked
    /// operands, skipping zeros in both.
    ///
    /// Per contraction index `k`, the non-zero activations of `A[:, k]`
    /// and non-zero weights of `B[k, :]` form a cartesian product; each
    /// cycle issues up to `mults_per_cycle` products, whose writes are
    /// then scheduled onto the banks (output `(m, n)` lives in bank
    /// `(m * N + n) % banks`); conflicting writes serialize. The pipeline
    /// streams at the pace of its slower stage, multiplier or banks.
    pub(crate) fn gemm(&self, a: &SparseMatrix, b: &SparseMatrix) -> GemmRun {
        let (a, b) = (a.to_dense(), b.to_dense());
        let (m, k, n) = (a.rows(), a.cols(), b.cols());
        let mut out = Matrix::zeros(m, n);
        let mut macs = 0u64;
        let mut multiply_cycles = 0u64;
        let mut accumulate_cycles = 0u64;

        for kk in 0..k {
            let acts: Vec<(usize, f32)> = (0..m)
                .filter_map(|mm| {
                    let v = a.get(mm, kk);
                    (v != 0.0).then_some((mm, v))
                })
                .collect();
            let wts: Vec<(usize, f32)> = (0..n)
                .filter_map(|nn| {
                    let v = b.get(kk, nn);
                    (v != 0.0).then_some((nn, v))
                })
                .collect();
            if acts.is_empty() || wts.is_empty() {
                continue;
            }
            // Issue the cartesian product in multiplier-wide waves.
            let products: Vec<(usize, usize, f32)> = acts
                .iter()
                .flat_map(|&(mm, av)| wts.iter().map(move |&(nn, wv)| (mm, nn, av * wv)))
                .collect();
            macs += products.len() as u64;
            for wave in products.chunks(self.mults_per_cycle) {
                multiply_cycles += 1;
                // Bank scheduling: the most-contended bank sets the
                // cycles this wave needs to drain.
                let mut per_bank = vec![0u64; self.banks];
                for &(mm, nn, pv) in wave {
                    out.set(mm, nn, out.get(mm, nn) + pv);
                    per_bank[(mm * n + nn) % self.banks] += 1;
                }
                let drain = per_bank.iter().copied().max().unwrap_or(0);
                accumulate_cycles += drain.max(1);
            }
        }
        let stats = CycleStats {
            streaming_cycles: multiply_cycles.max(accumulate_cycles),
            useful_macs: u128::from(macs),
            issued_macs: u128::from(macs),
            pes: self.mults_per_cycle as u64,
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
        let b = operand(9, 6, 0.4, 2);
        let run = ScnnEngine::new(16, 8).run(&a, &b).unwrap();
        assert!(run.result.approx_eq(&a.to_dense().matmul(&b.to_dense()), 1e-4));
    }

    #[test]
    fn macs_are_exactly_the_useful_pairs() {
        let a = operand(6, 5, 0.5, 3);
        let b = operand(5, 6, 0.5, 4);
        let run = ScnnEngine::new(4, 4).run(&a, &b).unwrap();
        let (a, b) = (a.to_dense(), b.to_dense());
        let mut expected = 0u128;
        for mm in 0..6 {
            for nn in 0..6 {
                for kk in 0..5 {
                    if a.get(mm, kk) != 0.0 && b.get(kk, nn) != 0.0 {
                        expected += 1;
                    }
                }
            }
        }
        assert_eq!(run.stats.useful_macs, expected);
    }

    #[test]
    fn bank_conflicts_make_accumulation_the_bottleneck() {
        // Few banks vs wide multiplier array: scatter dominates. Each
        // k issues 16 x 16 products in 16 waves of 16 multiplies; a wave
        // is one activation against all 16 weights, and its 16 writes
        // land 8 deep in each of the 2 banks.
        let a = operand(16, 8, 1.0, 5);
        let b = operand(8, 16, 1.0, 6);
        let stats = ScnnEngine::new(16, 2).run(&a, &b).unwrap().stats;
        let waves = (stats.useful_macs / 16) as u64;
        assert_eq!(waves, 8 * 16, "multiplier-bound cycles");
        assert_eq!(stats.total_cycles(), 8 * waves, "bank-bound cycles");
    }

    #[test]
    fn many_banks_remove_the_conflicts() {
        let a = operand(8, 8, 0.5, 7);
        let b = operand(8, 8, 0.5, 8);
        let few = ScnnEngine::new(16, 2).run(&a, &b).unwrap();
        let many = ScnnEngine::new(16, 256).run(&a, &b).unwrap();
        assert!(many.stats.total_cycles() <= few.stats.total_cycles());
        assert!(many.result.approx_eq(&few.result, 1e-5));
    }

    #[test]
    fn sparsity_skips_work_entirely() {
        // 0.3 x 0.3 density leaves ~9% of the useful MACs; bank-conflict
        // serialization keeps the realized cycle ratio above that, but it
        // must still sit well below dense. Averaged over seeds so a single
        // unlucky conflict pattern cannot flip the verdict.
        let engine = ScnnEngine::new(8, 8);
        let dense = {
            let (a, b) = (operand(12, 12, 1.0, 9), operand(12, 12, 1.0, 10));
            engine.run(&a, &b).unwrap().stats.total_cycles()
        };
        let seeds = [11u64, 21, 31, 41];
        let sparse_avg = seeds
            .iter()
            .map(|&s| {
                let (a, b) = (operand(12, 12, 0.3, s), operand(12, 12, 0.3, s + 1));
                engine.run(&a, &b).unwrap().stats.total_cycles() as f64
            })
            .sum::<f64>()
            / seeds.len() as f64;
        assert!(sparse_avg < 0.25 * dense as f64, "sparse avg {sparse_avg} vs dense {dense}");
    }

    #[test]
    fn empty_rows_cost_nothing() {
        let a = SparseMatrix::from_dense(&Matrix::zeros(4, 4));
        let b = operand(4, 4, 1.0, 13);
        let run = ScnnEngine::new(4, 4).run(&a, &b).unwrap();
        assert_eq!(run.stats.total_cycles(), 0);
        assert_eq!(run.stats.useful_macs, 0);
    }
}
