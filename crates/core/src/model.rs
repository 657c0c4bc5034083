//! Analytic cycle model — the same Table-II accounting as the functional
//! engine, computed from shapes and densities alone.
//!
//! The paper's evaluation GEMMs reach dimensions of 500 000; simulating
//! them element by element is pointless when the latency structure is
//! regular. This estimator reproduces the functional engine's accounting
//! in expectation and is cross-validated against it on small GEMMs in
//! `tests/` (the two must agree within a few percent).

use crate::config::{Dataflow, SigmaConfig};
use crate::stats::CycleStats;
use sigma_interconnect::log2_ceil;
use sigma_matrix::GemmShape;

/// A GEMM described by shape and operand densities — the unit of work for
/// the analytic models (SIGMA's and the baselines').
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GemmProblem {
    /// The (M, N, K) dimensions.
    pub shape: GemmShape,
    /// Density (non-zero fraction) of the `MK` operand.
    pub density_a: f64,
    /// Density (non-zero fraction) of the `KN` operand.
    pub density_b: f64,
}

impl GemmProblem {
    /// A fully dense problem.
    #[must_use]
    pub fn dense(shape: GemmShape) -> Self {
        Self { shape, density_a: 1.0, density_b: 1.0 }
    }

    /// A sparse problem with the given densities.
    ///
    /// # Panics
    ///
    /// Panics if a density is outside `[0, 1]`.
    #[must_use]
    pub fn sparse(shape: GemmShape, density_a: f64, density_b: f64) -> Self {
        assert!((0.0..=1.0).contains(&density_a), "density_a out of range");
        assert!((0.0..=1.0).contains(&density_b), "density_b out of range");
        Self { shape, density_a, density_b }
    }

    /// Expected useful (both-operands-non-zero) MACs.
    #[must_use]
    pub fn useful_macs(&self) -> f64 {
        self.density_a * self.density_b * self.shape.macs() as f64
    }
}

/// Estimates the Table-II stats of running `p` on a SIGMA `config`.
#[must_use]
pub fn estimate(config: &SigmaConfig, p: &GemmProblem) -> CycleStats {
    match config.dataflow() {
        Dataflow::InputStationary => {
            estimate_stationary(config, p.shape.m, p.shape.k, p.shape.n, p.density_a, p.density_b)
        }
        Dataflow::WeightStationary => {
            estimate_stationary(config, p.shape.n, p.shape.k, p.shape.m, p.density_b, p.density_a)
        }
        Dataflow::NoLocalReuse => estimate_no_local_reuse(config, p),
    }
}

/// Estimates both stationary dataflows and returns the better (the paper's
/// evaluation methodology).
#[must_use]
pub fn estimate_best(config: &SigmaConfig, p: &GemmProblem) -> (Dataflow, CycleStats) {
    let ws = estimate(&config.with_dataflow(Dataflow::WeightStationary), p);
    let is = estimate(&config.with_dataflow(Dataflow::InputStationary), p);
    if ws.total_cycles() <= is.total_cycles() {
        (Dataflow::WeightStationary, ws)
    } else {
        (Dataflow::InputStationary, is)
    }
}

/// Canonical stationary estimate: `groups x k` stationary at density
/// `d_stat`, `k x steps` streaming at density `d_str`.
fn estimate_stationary(
    config: &SigmaConfig,
    groups: usize,
    k: usize,
    steps: usize,
    d_stat: f64,
    d_str: f64,
) -> CycleStats {
    let pes = config.total_pes() as f64;
    let bw = config.input_bandwidth() as f64;
    let stream_bw = config.stream_bandwidth() as f64;

    // REGOR: a contraction column survives if any of `steps` streaming
    // elements in its row is non-zero.
    let p_keep = 1.0 - (1.0 - d_str).powi(steps.min(10_000) as i32);
    let k_live = k as f64 * p_keep;
    let nnz = (d_stat * groups as f64 * k_live).round();
    if nnz < 1.0 {
        return CycleStats { pes: config.total_pes() as u64, ..CycleStats::default() };
    }

    let folds = (nnz / pes).ceil();
    let full_fold_occupancy = nnz.min(pes);

    // Loading: each fold's occupants unicast at `bw` words/cycle, not
    // overlapped with streaming (Table II).
    let loading = {
        let rem = nnz - (folds - 1.0).max(0.0) * pes;
        (folds - 1.0).max(0.0) * (pes / bw).ceil() + (rem / bw).ceil()
    };

    // Distinct contraction indices resident in a fold of `occupancy`
    // elements. Group-major: the fold covers `occupancy / elems_per_row`
    // consecutive groups; column k appears unless all those rows miss it.
    // Contraction-major: the fold is a k-slice across all groups, so each
    // live column contributes ~`d_stat * groups` elements. A fold can
    // never hold more distinct columns than elements.
    let elems_per_row = (d_stat * k_live).max(1e-9);
    let elems_per_column = (d_stat * groups as f64).max(1e-9);
    let packing = config.packing_order();
    let k_in_fold = move |occupancy: f64| -> f64 {
        match packing {
            crate::controller::PackingOrder::GroupMajor => {
                let rows = (occupancy / elems_per_row).max(1.0).min(groups as f64);
                (k_live * (1.0 - (1.0 - d_stat).powf(rows))).min(occupancy)
            }
            crate::controller::PackingOrder::ContractionMajor => {
                (occupancy / elems_per_column).ceil().clamp(1.0, k_live).min(occupancy)
            }
        }
    };

    // Streaming: per step, the non-zero streaming values among the fold's
    // resident columns are sent (min 1 cycle per step). The partial last
    // fold holds fewer columns, so it is modeled separately.
    let full_folds = (folds - 1.0).max(0.0);
    let last_occupancy = nnz - full_folds * pes;
    let cycles_per_step_full = (k_in_fold(full_fold_occupancy) * d_str / stream_bw).ceil().max(1.0);
    let cycles_per_step_last = (k_in_fold(last_occupancy) * d_str / stream_bw).ceil().max(1.0);
    let sends_per_step =
        (full_folds * k_in_fold(full_fold_occupancy) + k_in_fold(last_occupancy)) * d_str / folds;
    let streaming = (full_folds * cycles_per_step_full + cycles_per_step_last) * steps as f64;

    let useful = nnz * steps as f64 * d_str;
    let issued = nnz * steps as f64;
    // Per-fold drain: the FAN completes a cluster of size s in
    // ~ceil(log2(s)) + 1 levels (0 for singletons, capped by the tree
    // depth). Cluster size depends on the packing order: a group's full
    // row for group-major, its slice within the fold for
    // contraction-major.
    let cluster_size = match config.packing_order() {
        crate::controller::PackingOrder::GroupMajor => elems_per_row.min(full_fold_occupancy),
        crate::controller::PackingOrder::ContractionMajor => {
            (full_fold_occupancy / (groups as f64).min(full_fold_occupancy)).max(1.0)
        }
    };
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let drain_per_fold = if cluster_size <= 1.0 {
        0
    } else {
        log2_ceil(cluster_size.ceil() as usize).min(log2_ceil(config.dpe_size()))
    };
    let add = folds * f64::from(drain_per_fold);
    let sram = nnz + folds * steps as f64 * sends_per_step;

    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    CycleStats {
        loading_cycles: loading as u64,
        streaming_cycles: streaming as u64,
        add_cycles: add as u64,
        folds: folds as u64,
        useful_macs: useful as u128,
        issued_macs: issued as u128,
        mapped_nonzeros: nnz as u64,
        occupied_slots: nnz as u64,
        pes: config.total_pes() as u64,
        sram_reads: sram as u64,
        ..CycleStats::default()
    }
}

fn estimate_no_local_reuse(config: &SigmaConfig, p: &GemmProblem) -> CycleStats {
    let pes = config.total_pes() as f64;
    let stream_bw = config.stream_bandwidth() as f64;
    let pairs = p.useful_macs();
    if pairs < 1.0 {
        return CycleStats { pes: config.total_pes() as u64, ..CycleStats::default() };
    }
    let waves = (pairs / pes).ceil();
    let streaming = (2.0 * pairs / stream_bw).ceil().max(waves);
    let add = waves * f64::from(log2_ceil(config.dpe_size()));
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    CycleStats {
        loading_cycles: 0,
        streaming_cycles: streaming as u64,
        add_cycles: add as u64,
        folds: waves as u64,
        useful_macs: pairs as u128,
        issued_macs: pairs as u128,
        mapped_nonzeros: 0,
        occupied_slots: 0,
        pes: config.total_pes() as u64,
        sram_reads: (2.0 * pairs) as u64,
        ..CycleStats::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SigmaConfig;

    fn cfg(df: Dataflow) -> SigmaConfig {
        SigmaConfig::new(4, 16, 16, df).unwrap()
    }

    #[test]
    fn dense_regular_estimate() {
        let p = GemmProblem::dense(GemmShape::new(64, 64, 64));
        let full_bw = SigmaConfig::new(4, 16, 64, Dataflow::InputStationary).unwrap();
        let s = estimate(&full_bw, &p);
        // 4096 stationary nnz on 64 PEs: 64 folds.
        assert_eq!(s.folds, 64);
        assert_eq!(s.mapped_nonzeros, 4096);
        assert_eq!(s.useful_macs, 64 * 64 * 64);
        assert_eq!(s.stationary_utilization(), 1.0);
        assert!(s.compute_efficiency() > 0.9);
        // At a quarter of the bandwidth, each step serializes 4x.
        let starved = estimate(&cfg(Dataflow::InputStationary), &p);
        assert!(starved.streaming_cycles >= 4 * s.streaming_cycles - 4);
        assert!((starved.compute_efficiency() - 0.25).abs() < 0.01);
    }

    #[test]
    fn sparsity_reduces_folds_and_latency() {
        let shape = GemmShape::new(64, 64, 64);
        let dense = estimate(&cfg(Dataflow::InputStationary), &GemmProblem::dense(shape));
        let sparse =
            estimate(&cfg(Dataflow::InputStationary), &GemmProblem::sparse(shape, 0.2, 1.0));
        assert!(sparse.folds < dense.folds);
        assert!(sparse.total_cycles() < dense.total_cycles());
        assert_eq!(sparse.stationary_utilization(), 1.0);
    }

    #[test]
    fn weight_stationary_swaps_roles() {
        let p = GemmProblem::sparse(GemmShape::new(8, 128, 32), 1.0, 0.5);
        let ws = estimate(&cfg(Dataflow::WeightStationary), &p);
        let is = estimate(&cfg(Dataflow::InputStationary), &p);
        // WS maps KN (sparse, 0.5 * 4096 = 2048 nnz), IS maps MK (256 nnz).
        assert_eq!(ws.mapped_nonzeros, 2048);
        assert_eq!(is.mapped_nonzeros, 256);
    }

    #[test]
    fn estimate_best_picks_min_latency() {
        let p = GemmProblem::sparse(GemmShape::new(512, 32, 64), 1.0, 1.0);
        let (df, s) = estimate_best(&cfg(Dataflow::WeightStationary), &p);
        let ws = estimate(&cfg(Dataflow::WeightStationary), &p);
        let is = estimate(&cfg(Dataflow::InputStationary), &p);
        assert_eq!(s.total_cycles(), ws.total_cycles().min(is.total_cycles()));
        assert!(matches!(df, Dataflow::WeightStationary | Dataflow::InputStationary));
    }

    #[test]
    fn nlr_pays_double_bandwidth() {
        let p = GemmProblem::dense(GemmShape::new(16, 16, 16));
        let s = estimate(&cfg(Dataflow::NoLocalReuse), &p);
        assert_eq!(s.loading_cycles, 0);
        assert_eq!(s.useful_macs, s.issued_macs);
        // 4096 pairs * 2 operands / 16 words per cycle.
        assert_eq!(s.streaming_cycles, 512);
    }

    #[test]
    fn zero_density_yields_empty_stats() {
        let p = GemmProblem::sparse(GemmShape::new(16, 16, 16), 0.0, 1.0);
        let s = estimate(&cfg(Dataflow::InputStationary), &p);
        assert_eq!(s.total_cycles(), 0);
        assert_eq!(s.folds, 0);
        let n = estimate(&cfg(Dataflow::NoLocalReuse), &p);
        assert_eq!(n.total_cycles(), 0);
    }

    #[test]
    fn big_irregular_gemm_is_cheap_to_estimate() {
        // The paper's 1024-16-500000 monster runs instantly here.
        let p = GemmProblem::sparse(GemmShape::new(1024, 16, 500_000), 0.2, 0.5);
        let cfg = SigmaConfig::paper();
        let s = estimate(&cfg, &p);
        assert!(s.total_cycles() > 0);
        assert!(s.folds > 1);
        assert_eq!(s.stationary_utilization(), 1.0);
    }

    #[test]
    fn contraction_major_estimate_tracks_functional() {
        use crate::controller::PackingOrder;
        use crate::engine::SigmaSim;
        use sigma_matrix::gen::{sparse_uniform, Density};
        let cfg = SigmaConfig::new(2, 16, 4, Dataflow::InputStationary)
            .unwrap()
            .with_packing_order(PackingOrder::ContractionMajor);
        let a = sparse_uniform(64, 16, Density::DENSE, 71);
        let b = sparse_uniform(16, 12, Density::DENSE, 72);
        let run = SigmaSim::new(cfg).unwrap().run_gemm(&a, &b).unwrap();
        let est = estimate(&cfg, &GemmProblem::dense(GemmShape::new(64, 12, 16)));
        let f = run.stats.total_cycles() as f64;
        let e = est.total_cycles() as f64;
        assert!((f - e).abs() / f < 0.2, "functional {f} vs analytic {e}");
        // And the CM estimate streams less than the GM estimate at this
        // narrow bandwidth.
        let gm = estimate(
            &cfg.with_packing_order(PackingOrder::GroupMajor),
            &GemmProblem::dense(GemmShape::new(64, 12, 16)),
        );
        assert!(est.streaming_cycles < gm.streaming_cycles);
    }

    #[test]
    #[should_panic(expected = "density_a out of range")]
    fn sparse_validates_density() {
        let _ = GemmProblem::sparse(GemmShape::new(2, 2, 2), 1.5, 0.5);
    }
}
