//! [`SystolicEngine`]: a *functional* rigid systolic array, where real
//! values move through real PE registers cycle by cycle, exactly like
//! the TPU-style baseline the analytic model summarizes.
//!
//! Weight-stationary: each PE holds one stationary weight; activations
//! enter at the left edge with a one-cycle skew per row and propagate
//! rightward; partial sums propagate downward, accumulating one `a·w`
//! per row; finished sums fall out of the bottom edge. GEMMs larger than
//! the array run as fold tiles over (K, N), with K-folds accumulating
//! into the output. Output-stationary folds over (M, N) tiles instead.
//!
//! A run returns both the numeric product (verified against the
//! reference GEMM in tests) and the exact cycle count, which matches the
//! SCALE-sim-style analytic formula `2R + C + M − 2` per fold — that
//! agreement is itself a test, tying the analytic baseline model to real
//! hardware behavior.

use crate::engines::useful_macs;
use sigma_core::{CycleStats, GemmRun};
use sigma_matrix::{Matrix, SparseMatrix};

/// Which stationary mapping a [`SystolicEngine`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystolicMapping {
    /// Weights stationary, activations streamed (the TPU default).
    WeightStationary,
    /// Outputs stationary, both operands streamed.
    OutputStationary,
}

/// A functional rigid `rows x cols` systolic array in one of the two
/// [`SystolicMapping`]s.
#[derive(Debug, Clone, Copy)]
pub struct SystolicEngine {
    pub(crate) rows: usize,
    pub(crate) cols: usize,
    pub(crate) mapping: SystolicMapping,
}

impl SystolicEngine {
    /// An `rows x cols` weight-stationary array.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn weight_stationary(rows: usize, cols: usize) -> Self {
        Self::new(rows, cols, SystolicMapping::WeightStationary)
    }

    /// An `rows x cols` output-stationary array.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn output_stationary(rows: usize, cols: usize) -> Self {
        Self::new(rows, cols, SystolicMapping::OutputStationary)
    }

    fn new(rows: usize, cols: usize, mapping: SystolicMapping) -> Self {
        assert!(rows > 0 && cols > 0, "array dimensions must be non-zero");
        Self { rows, cols, mapping }
    }

    /// The datapath behind [`sigma_core::Engine::run`] on checked
    /// operands: every slot of the rigid array issues, zeros included.
    pub(crate) fn gemm(&self, a: &SparseMatrix, b: &SparseMatrix) -> GemmRun {
        let (ad, bd) = (a.to_dense(), b.to_dense());
        let (m, n, k) = (a.rows(), b.cols(), a.cols());
        let mut stats = CycleStats {
            useful_macs: useful_macs(a, b),
            issued_macs: (m * n * k) as u128, // a rigid array issues every slot
            mapped_nonzeros: b.nnz() as u64,
            occupied_slots: (k * n) as u64, // stationary tile slots incl. zeros
            pes: (self.rows * self.cols) as u64,
            ..CycleStats::default()
        };
        let result = match self.mapping {
            SystolicMapping::WeightStationary => self.weight_stationary_pass(&ad, &bd, &mut stats),
            SystolicMapping::OutputStationary => self.output_stationary_pass(&ad, &bd, &mut stats),
        };
        GemmRun { result, stats }
    }

    /// Runs `C = A[MxK] x B[KxN]` with `B` stationary, folding over
    /// `(K, N)` tiles; adds each fold's weight load (`R`) plus its
    /// streaming pipeline to `stats.streaming_cycles`, and the folds to
    /// `stats.folds`.
    pub(crate) fn weight_stationary_pass(
        &self,
        a: &Matrix,
        b: &Matrix,
        stats: &mut CycleStats,
    ) -> Matrix {
        let (m, k, n) = (a.rows(), a.cols(), b.cols());
        let mut out = Matrix::zeros(m, n);
        for (k0, kr, n0, nc) in self.weight_folds(k, n) {
            stats.streaming_cycles += self.run_fold(a, b, &mut out, k0, kr, n0, nc);
            stats.folds += 1;
        }
        out
    }

    /// The `(k0, kr, n0, nc)` tiles a `K x N` stationary matrix folds
    /// into, K-major: each K-fold's N-folds in turn.
    fn weight_folds(
        &self,
        k: usize,
        n: usize,
    ) -> impl Iterator<Item = (usize, usize, usize, usize)> {
        let (rows, cols) = (self.rows, self.cols);
        (0..k).step_by(rows).flat_map(move |k0| {
            (0..n).step_by(cols).map(move |n0| (k0, (k - k0).min(rows), n0, (n - n0).min(cols)))
        })
    }

    /// Charges the cycles and folds of [`SystolicEngine::weight_stationary_pass`]
    /// over an `m x k` by `k x n` GEMM without moving any value: the same
    /// `(K, N)` tiling, each fold costing [`SystolicEngine::fold_cycles`].
    pub(crate) fn charge_weight_stationary(
        &self,
        m: usize,
        k: usize,
        n: usize,
        stats: &mut CycleStats,
    ) {
        for (_, kr, _, nc) in self.weight_folds(k, n) {
            stats.streaming_cycles += self.fold_cycles(m, kr, nc);
            stats.folds += 1;
        }
    }

    /// The cycle count [`SystolicEngine::run_fold`] returns for a `kr x nc`
    /// fold streaming `m` activation rows: the `R`-cycle weight load, then
    /// the last psum, for row `m - 1` in column `nc - 1`, leaves the
    /// bottom edge after `m + kr + nc - 2` cycles. With no rows to stream
    /// the fold is the load alone.
    fn fold_cycles(&self, m: usize, kr: usize, nc: usize) -> u64 {
        let stream = if m == 0 { 0 } else { m + kr + nc - 2 };
        (self.rows + stream) as u64
    }

    /// Executes one stationary fold and returns its cycle count.
    #[allow(clippy::too_many_arguments)]
    fn run_fold(
        &self,
        a: &Matrix,
        b: &Matrix,
        out: &mut Matrix,
        k0: usize,
        kr: usize,
        n0: usize,
        nc: usize,
    ) -> u64 {
        let m = a.rows();
        // Weight load: store-and-forward down all R rows.
        let mut cycles = self.rows as u64;

        // Stationary weights for this tile.
        let mut w = vec![vec![0.0f32; nc]; kr];
        for (r, row) in w.iter_mut().enumerate() {
            for (c, val) in row.iter_mut().enumerate() {
                *val = b.get(k0 + r, n0 + c);
            }
        }

        // PE pipeline registers, plus the next cycle's register file: each
        // cycle writes every next-state register from the current state,
        // then the two files swap.
        let mut a_reg = vec![vec![0.0f32; nc]; kr];
        let mut p_reg = vec![vec![0.0f32; nc]; kr];
        let mut new_a = vec![vec![0.0f32; nc]; kr];
        let mut new_p = vec![vec![0.0f32; nc]; kr];
        let mut collected = 0usize;
        let total_outputs = m * nc;
        let mut t = 0u64;
        // Activation m enters row r at cycle m + r; the finished psum for
        // (m, column c) leaves the bottom PE's register at m + kr + c.
        while collected < total_outputs {
            // Compute this cycle's register updates from the previous
            // state, so every read sees time t-1 values.
            for r in 0..kr {
                for c in 0..nc {
                    let a_in = if c == 0 {
                        // Left edge: skewed feed.
                        let tt = t as i64 - r as i64;
                        if tt >= 0 && (tt as usize) < m {
                            a.get(tt as usize, k0 + r)
                        } else {
                            0.0
                        }
                    } else {
                        a_reg[r][c - 1]
                    };
                    let p_in = if r == 0 { 0.0 } else { p_reg[r - 1][c] };
                    new_a[r][c] = a_in;
                    new_p[r][c] = p_in + a_in * w[r][c];
                }
            }
            std::mem::swap(&mut a_reg, &mut new_a);
            std::mem::swap(&mut p_reg, &mut new_p);
            t += 1;
            // After the update at cycle t-1 -> t, the bottom register of
            // column c holds the finished psum for activation row
            // m = t - kr - c when that index is valid.
            for (c, bottom) in p_reg[kr - 1].iter().enumerate() {
                let mm = t as i64 - kr as i64 - c as i64;
                if mm >= 0 && (mm as usize) < m {
                    let mm = mm as usize;
                    out.set(mm, n0 + c, out.get(mm, n0 + c) + bottom);
                    collected += 1;
                }
            }
        }
        cycles += t;
        cycles
    }

    /// Runs `C = A[MxK] x B[KxN]` in the *output-stationary* dataflow:
    /// each PE owns one output element, `A` streams from the left
    /// (row-skewed), `B` from the top (column-skewed), and finished
    /// outputs shift down their columns to drain. Folds tile `(M, N)`;
    /// their cycles and count land in `stats` as in
    /// [`SystolicEngine::weight_stationary_pass`].
    fn output_stationary_pass(&self, a: &Matrix, b: &Matrix, stats: &mut CycleStats) -> Matrix {
        let (m, k, n) = (a.rows(), a.cols(), b.cols());
        let mut out = Matrix::zeros(m, n);
        let mut m0 = 0;
        while m0 < m {
            let mr = (m - m0).min(self.rows);
            let mut n0 = 0;
            while n0 < n {
                let nc = (n - n0).min(self.cols);
                stats.streaming_cycles += self.run_fold_os(a, b, &mut out, m0, mr, n0, nc, k);
                stats.folds += 1;
                n0 += nc;
            }
            m0 += mr;
        }
        out
    }

    /// One output-stationary fold; returns its cycle count.
    #[allow(clippy::too_many_arguments)]
    fn run_fold_os(
        &self,
        a: &Matrix,
        b: &Matrix,
        out: &mut Matrix,
        m0: usize,
        mr: usize,
        n0: usize,
        nc: usize,
        k: usize,
    ) -> u64 {
        // Pipeline registers: a travels right, b travels down, psums stay.
        // Each cycle writes the whole next register file, then swaps.
        let mut a_reg = vec![vec![0.0f32; nc]; mr];
        let mut b_reg = vec![vec![0.0f32; nc]; mr];
        let mut new_a = vec![vec![0.0f32; nc]; mr];
        let mut new_b = vec![vec![0.0f32; nc]; mr];
        let mut acc = vec![vec![0.0f32; nc]; mr];

        // PE (r, c) receives a[m0+r][k'] and b[k'][n0+c] simultaneously at
        // cycle k' + r + c; the last PE finishes at (k-1) + (mr-1) + (nc-1).
        let stream_cycles = (k as u64) + (mr as u64 - 1) + (nc as u64 - 1);
        for t in 0..stream_cycles {
            for r in 0..mr {
                for c in 0..nc {
                    let a_in = if c == 0 {
                        let kk = t as i64 - r as i64;
                        if kk >= 0 && (kk as usize) < k {
                            a.get(m0 + r, kk as usize)
                        } else {
                            0.0
                        }
                    } else {
                        a_reg[r][c - 1]
                    };
                    let b_in = if r == 0 {
                        let kk = t as i64 - c as i64;
                        if kk >= 0 && (kk as usize) < k {
                            b.get(kk as usize, n0 + c)
                        } else {
                            0.0
                        }
                    } else {
                        b_reg[r - 1][c]
                    };
                    acc[r][c] += a_in * b_in;
                    new_a[r][c] = a_in;
                    new_b[r][c] = b_in;
                }
            }
            std::mem::swap(&mut a_reg, &mut new_a);
            std::mem::swap(&mut b_reg, &mut new_b);
        }
        for (r, row) in acc.iter().enumerate() {
            for (c, v) in row.iter().enumerate() {
                out.set(m0 + r, n0 + c, out.get(m0 + r, n0 + c) + v);
            }
        }
        // Drain: outputs shift down the columns (mr cycles).
        stream_cycles + mr as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigma_core::Engine;
    use sigma_matrix::gen::{dense_uniform, sparse_uniform, Density};

    fn run(engine: SystolicEngine, a: &Matrix, b: &Matrix) -> GemmRun {
        engine.run(&SparseMatrix::from_dense(a), &SparseMatrix::from_dense(b)).unwrap()
    }

    #[test]
    fn single_fold_correct_and_timed() {
        let a = dense_uniform(6, 4, 1);
        let b = dense_uniform(4, 4, 2);
        let run = run(SystolicEngine::weight_stationary(4, 4), &a, &b);
        assert!(run.result.approx_eq(&a.matmul(&b), 1e-4));
        assert_eq!(run.stats.folds, 1);
        // R + (M - 1) + (kr - 1) + (nc - 1) + 1 = 4 + 5 + 3 + 3 + 1
        // = 2R + C + M - 2 = 16, all of it streaming.
        assert_eq!(run.stats.total_cycles(), 16);
        assert_eq!(run.stats.streaming_cycles, 16);
    }

    #[test]
    fn multi_fold_accumulates_k_tiles() {
        let a = dense_uniform(5, 10, 3); // K = 10: three K-folds
        let b = dense_uniform(10, 7, 4); // N = 7: two N-folds
        let run = run(SystolicEngine::weight_stationary(4, 4), &a, &b);
        assert!(run.result.approx_eq(&a.matmul(&b), 1e-3));
        assert_eq!(run.stats.folds, 6);
    }

    #[test]
    fn sparse_inputs_still_correct_but_not_faster() {
        let engine = SystolicEngine::weight_stationary(4, 4);
        let a = sparse_uniform(6, 8, Density::new(0.3).unwrap(), 5).to_dense();
        let b = sparse_uniform(8, 6, Density::new(0.3).unwrap(), 6).to_dense();
        let dense_a = dense_uniform(6, 8, 7);
        let dense_b = dense_uniform(8, 6, 8);
        let sparse_run = run(engine, &a, &b);
        let dense_run = run(engine, &dense_a, &dense_b);
        assert!(sparse_run.result.approx_eq(&a.matmul(&b), 1e-3));
        // The rigid array cannot skip zeros: identical cycle count.
        assert_eq!(sparse_run.stats.total_cycles(), dense_run.stats.total_cycles());
    }

    #[test]
    fn functional_matches_analytic_model_totals() {
        // The functional machine and the analytic SystolicArray model
        // agree on total cycles for single-tile-per-fold GEMMs.
        use crate::systolic::SystolicArray;
        use sigma_core::model::GemmProblem;
        use sigma_matrix::GemmShape;
        let model = SystolicArray::new(8, 8);
        for (m, k, n) in [(8usize, 8usize, 8usize), (12, 8, 8), (20, 8, 8)] {
            let a = dense_uniform(m, k, 11);
            let b = dense_uniform(k, n, 12);
            let run = run(SystolicEngine::weight_stationary(8, 8), &a, &b);
            let est =
                model.simulate_weight_stationary(&GemmProblem::dense(GemmShape::new(m, n, k)));
            assert_eq!(
                run.stats.total_cycles(),
                est.total_cycles(),
                "functional vs analytic on {m}-{n}-{k}"
            );
        }
    }

    #[test]
    fn output_stationary_correct_single_fold() {
        let a = dense_uniform(4, 6, 21);
        let b = dense_uniform(6, 4, 22);
        let run = run(SystolicEngine::output_stationary(4, 4), &a, &b);
        assert!(run.result.approx_eq(&a.matmul(&b), 1e-4));
        assert_eq!(run.stats.folds, 1);
        // K + (mr-1) + (nc-1) streaming + mr drain = 6 + 3 + 3 + 4.
        assert_eq!(run.stats.total_cycles(), 16);
    }

    #[test]
    fn output_stationary_folds_over_outputs() {
        let a = dense_uniform(10, 5, 23);
        let b = dense_uniform(5, 9, 24);
        let run = run(SystolicEngine::output_stationary(4, 4), &a, &b);
        assert!(run.result.approx_eq(&a.matmul(&b), 1e-3));
        assert_eq!(run.stats.folds, 3 * 3);
    }

    #[test]
    fn dataflow_choice_depends_on_shape() {
        let (ws, os) =
            (SystolicEngine::weight_stationary(8, 8), SystolicEngine::output_stationary(8, 8));
        // Long-K GEMM: output-stationary avoids K-folding entirely.
        let a = dense_uniform(8, 64, 25);
        let b = dense_uniform(64, 8, 26);
        let (ws1, os1) = (run(ws, &a, &b), run(os, &a, &b));
        assert!(os1.result.approx_eq(&ws1.result, 1e-2));
        let (ws1, os1) = (ws1.stats.total_cycles(), os1.stats.total_cycles());
        assert!(os1 < ws1, "OS {os1} should beat WS {ws1} on long-K");
        // Large-M, small-K: weight-stationary wins (one weight load, long
        // stream vs many output tiles).
        let a2 = dense_uniform(64, 8, 27);
        let b2 = dense_uniform(8, 8, 28);
        let (ws2, os2) =
            (run(ws, &a2, &b2).stats.total_cycles(), run(os, &a2, &b2).stats.total_cycles());
        assert!(ws2 < os2, "WS {ws2} should beat OS {os2}");
    }

    #[test]
    fn identity_weights_pass_inputs_through() {
        let a = dense_uniform(3, 4, 9);
        let run = run(SystolicEngine::weight_stationary(4, 4), &a, &Matrix::identity(4));
        assert!(run.result.approx_eq(&a, 1e-6));
    }

    #[test]
    fn irregular_small_tile_costs_like_full_array_load() {
        // A 2-column stationary tile still pays the full R-cycle load:
        // the rigidity SIGMA's O(1) loading avoids.
        let a = dense_uniform(4, 8, 13);
        let b = dense_uniform(8, 2, 14);
        let run = run(SystolicEngine::weight_stationary(8, 8), &a, &b);
        assert!(run.stats.total_cycles() >= 8, "must include the 8-cycle weight load");
        assert!(run.result.approx_eq(&a.matmul(&b), 1e-4));
    }
}
