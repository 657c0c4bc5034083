//! A functional Eyeriss v2-style engine (Chen et al., JETCAS 2019):
//! clusters of PEs under a hierarchical two-level NoC, row-stationary+
//! dataflow with CSC-compressed operands so zeros in *both* matrices are
//! skipped, and a global buffer that — when both operands fit — lets the
//! engine read each operand from SRAM exactly once.
//!
//! The structural behaviors the analytic model summarizes, reproduced
//! here with real data movement:
//!
//! * per-PE work is the useful MACs of its output stripe (CSC
//!   intersection), so the *busiest* PE paces the array;
//! * the hierarchical NoC delivers each needed operand word once per
//!   cluster (multicast within a cluster);
//! * when the operands overflow the global buffer, the streamed operand
//!   is re-fetched once per output-row tile — the "buffer cliff" that
//!   lets Eyeriss v2 win small GEMMs against SIGMA and lose big ones.

use sigma_core::{CycleStats, GemmRun};
use sigma_matrix::{Matrix, SparseMatrix};

/// A functional Eyeriss v2-style engine.
#[derive(Debug, Clone, Copy)]
pub struct EyerissEngine {
    pub(crate) pes: usize,
    /// Global buffer capacity in operand words.
    buffer_words: usize,
    /// SRAM fetch bandwidth in words per cycle.
    fetch_bandwidth: usize,
}

impl EyerissEngine {
    /// `pes` PEs fed from a `buffer_words` global buffer at
    /// `fetch_bandwidth` words per cycle.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero.
    #[must_use]
    pub fn new(pes: usize, buffer_words: usize, fetch_bandwidth: usize) -> Self {
        assert!(pes > 0 && buffer_words > 0 && fetch_bandwidth > 0, "parameters must be non-zero");
        Self { pes, buffer_words, fetch_bandwidth }
    }

    /// The datapath behind [`sigma_core::Engine::run`] on checked
    /// operands, with output rows striped over PEs. Compute (the busiest
    /// PE's useful MACs) streams; SRAM fetches (global buffer fills,
    /// re-fetches included) hide under compute when both operands fit
    /// the buffer, and otherwise serialize as loading.
    pub(crate) fn gemm(&self, a: &SparseMatrix, b: &SparseMatrix) -> GemmRun {
        let (a, b) = (a.to_dense(), b.to_dense());
        let (m, k, n) = (a.rows(), a.cols(), b.cols());

        // Compressed row view of A and row view of B (CSC-equivalent for
        // this access pattern).
        let a_rows: Vec<Vec<(usize, f32)>> = (0..m)
            .map(|mm| {
                (0..k)
                    .filter_map(|kk| {
                        let v = a.get(mm, kk);
                        (v != 0.0).then_some((kk, v))
                    })
                    .collect()
            })
            .collect();
        let b_rows: Vec<Vec<(usize, f32)>> = (0..k)
            .map(|kk| {
                (0..n)
                    .filter_map(|nn| {
                        let v = b.get(kk, nn);
                        (v != 0.0).then_some((nn, v))
                    })
                    .collect()
            })
            .collect();

        let a_words = a_rows.iter().map(Vec::len).sum::<usize>();
        let b_words = b_rows.iter().map(Vec::len).sum::<usize>();
        let fits = a_words + b_words <= self.buffer_words;

        // Compute: PE p owns output rows m ≡ p (mod pes); its work is the
        // useful MACs of those rows.
        let mut out = Matrix::zeros(m, n);
        let mut per_pe = vec![0u64; self.pes];
        let mut macs = 0u64;
        for (mm, arow) in a_rows.iter().enumerate() {
            let pe = mm % self.pes;
            for &(kk, av) in arow {
                for &(nn, bv) in &b_rows[kk] {
                    out.set(mm, nn, out.get(mm, nn) + av * bv);
                    per_pe[pe] += 1;
                    macs += 1;
                }
            }
        }
        let compute_cycles = per_pe.into_iter().max().unwrap_or(0);

        // Fetch: one fill when buffered; otherwise B re-fetches once per
        // output-row tile (tiles of `pes` rows stream against it).
        let row_tiles = m.div_ceil(self.pes).max(1) as u64;
        let fetched_words = if fits {
            (a_words + b_words) as u64
        } else {
            a_words as u64 + b_words as u64 * row_tiles
        };
        let fetch_cycles = fetched_words.div_ceil(self.fetch_bandwidth as u64);

        let stats = CycleStats {
            loading_cycles: if fits {
                fetch_cycles.saturating_sub(compute_cycles)
            } else {
                fetch_cycles
            },
            streaming_cycles: compute_cycles,
            useful_macs: u128::from(macs),
            issued_macs: u128::from(macs),
            sram_reads: fetch_cycles * self.fetch_bandwidth as u64,
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

    /// SRAM fetch cycles of a run at `fetch_bandwidth` words per cycle.
    fn fetch_cycles(stats: &CycleStats, fetch_bandwidth: u64) -> u64 {
        stats.sram_reads / fetch_bandwidth
    }

    #[test]
    fn computes_correct_product() {
        let a = operand(9, 11, 0.4, 1);
        let b = operand(11, 7, 0.4, 2);
        let run = EyerissEngine::new(8, 1 << 16, 16).run(&a, &b).unwrap();
        assert!(run.result.approx_eq(&a.to_dense().matmul(&b.to_dense()), 1e-4));
        // Buffered: the fetches hide under compute.
        let fetch = fetch_cycles(&run.stats, 16);
        assert_eq!(run.stats.loading_cycles, fetch.saturating_sub(run.stats.streaming_cycles));
    }

    #[test]
    fn exploits_both_sparsities() {
        let engine = EyerissEngine::new(8, 1 << 16, 16);
        let dense = {
            let (a, b) = (operand(16, 16, 1.0, 3), operand(16, 16, 1.0, 4));
            engine.run(&a, &b).unwrap().stats.streaming_cycles
        };
        let sparse = {
            let (a, b) = (operand(16, 16, 0.3, 5), operand(16, 16, 0.3, 6));
            engine.run(&a, &b).unwrap().stats.streaming_cycles
        };
        assert!((sparse as f64) < 0.3 * dense as f64, "{sparse} vs {dense}");
    }

    #[test]
    fn buffer_cliff_serializes_refetches() {
        // Same GEMM, two buffer sizes: overflowing multiplies fetch work
        // and stops it hiding behind compute.
        let a = operand(64, 32, 0.5, 7);
        let b = operand(32, 64, 0.5, 8);
        let big = EyerissEngine::new(8, 1 << 20, 8).run(&a, &b).unwrap();
        let small = EyerissEngine::new(8, 64, 8).run(&a, &b).unwrap();
        let (big_fetch, small_fetch) = (fetch_cycles(&big.stats, 8), fetch_cycles(&small.stats, 8));
        assert_eq!(big.stats.loading_cycles, big_fetch.saturating_sub(big.stats.streaming_cycles));
        assert_eq!(small.stats.loading_cycles, small_fetch, "an overflow serializes every fetch");
        assert!(small.stats.total_cycles() > big.stats.total_cycles());
        assert!(small_fetch > big_fetch);
        assert!(big.result.approx_eq(&small.result, 1e-5));
    }

    #[test]
    fn stripe_imbalance_paces_compute() {
        // Row 0 dense, the rest empty: PE 0 does all the work.
        let mut a = Matrix::zeros(8, 8);
        for kk in 0..8 {
            a.set(0, kk, 1.0);
        }
        let b = operand(8, 8, 1.0, 9);
        let run =
            EyerissEngine::new(8, 1 << 16, 64).run(&SparseMatrix::from_dense(&a), &b).unwrap();
        assert_eq!(run.stats.streaming_cycles, 64); // 8 k-entries x 8 outputs on PE 0
        assert_eq!(run.stats.useful_macs, 64);
    }

    #[test]
    fn buffered_fetch_hides_behind_compute() {
        let a = operand(32, 32, 1.0, 10);
        let b = operand(32, 32, 1.0, 11);
        let stats = EyerissEngine::new(4, 1 << 20, 4).run(&a, &b).unwrap().stats;
        // Compute dominates: total == compute, no fetch cycle exposed.
        assert!(fetch_cycles(&stats, 4) < stats.streaming_cycles);
        assert_eq!(stats.loading_cycles, 0);
        assert_eq!(stats.total_cycles(), stats.streaming_cycles);
    }
}
