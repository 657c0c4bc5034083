#![allow(clippy::needless_range_loop)]

//! Cross-validation tests for the SIGMA core:
//!
//! 1. the functional engine computes numerically-correct GEMMs for every
//!    dataflow / shape / density combination (property-tested);
//! 2. the analytic model agrees with the functional engine's accounting;
//! 3. the distribution patterns the controller emits are routable on the
//!    real Benes network model.

use proptest::prelude::*;
use sigma_core::model::{estimate, GemmProblem};
use sigma_core::{ControllerPlan, Dataflow, SigmaConfig, SigmaSim};
use sigma_interconnect::BenesNetwork;
use sigma_matrix::gen::{sparse_uniform, Density};
use sigma_matrix::GemmShape;

fn sim(dpes: usize, size: usize, bw: usize, df: Dataflow) -> SigmaSim {
    SigmaSim::new(SigmaConfig::new(dpes, size, bw, df).unwrap()).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn functional_matches_reference_all_dataflows(
        m in 1usize..14,
        k in 1usize..14,
        n in 1usize..14,
        da10 in 0u8..=10,
        db10 in 0u8..=10,
        seed in any::<u64>()
    ) {
        let a = sparse_uniform(m, k, Density::new(f64::from(da10) / 10.0).unwrap(), seed);
        let b = sparse_uniform(k, n, Density::new(f64::from(db10) / 10.0).unwrap(), seed ^ 0xabc);
        let reference = a.to_dense().matmul(&b.to_dense());
        let tol = 1e-3 * k as f32;
        for df in Dataflow::ALL {
            let run = sim(2, 8, 8, df).run_gemm(&a, &b).unwrap();
            prop_assert!(
                run.result.approx_eq(&reference, tol),
                "{df}: max diff {}", run.result.max_abs_diff(&reference)
            );
        }
    }

    #[test]
    fn functional_and_analytic_agree_on_structure(
        m in 2usize..12,
        k in 2usize..12,
        n in 2usize..12,
        seed in any::<u64>()
    ) {
        // Dense problems: the analytic expectations are exact except for
        // boundary rounding.
        let a = sparse_uniform(m, k, Density::DENSE, seed);
        let b = sparse_uniform(k, n, Density::DENSE, seed ^ 0x5e5e);
        let cfg = SigmaConfig::new(2, 8, 8, Dataflow::InputStationary).unwrap();
        let run = SigmaSim::new(cfg).unwrap().run_gemm(&a, &b).unwrap();
        let est = estimate(&cfg, &GemmProblem::dense(GemmShape::new(m, n, k)));
        prop_assert_eq!(run.stats.folds, est.folds);
        prop_assert_eq!(run.stats.mapped_nonzeros, est.mapped_nonzeros);
        prop_assert_eq!(run.stats.useful_macs, est.useful_macs);
        prop_assert_eq!(run.stats.loading_cycles, est.loading_cycles);
        // Streaming may differ slightly at fold boundaries (expected
        // distinct-column count vs. exact); require 15% agreement.
        let f = run.stats.streaming_cycles as f64;
        let e = est.streaming_cycles as f64;
        prop_assert!((f - e).abs() / f.max(1.0) < 0.15, "streaming {f} vs estimate {e}");
    }

    #[test]
    fn analytic_tracks_functional_on_sparse(
        seed in any::<u64>(),
        da10 in 2u8..=10,
        db10 in 2u8..=10,
    ) {
        let (m, k, n) = (24, 24, 24);
        let da = f64::from(da10) / 10.0;
        let db = f64::from(db10) / 10.0;
        let a = sparse_uniform(m, k, Density::new(da).unwrap(), seed);
        let b = sparse_uniform(k, n, Density::new(db).unwrap(), seed ^ 0x77);
        let cfg = SigmaConfig::new(4, 16, 32, Dataflow::InputStationary).unwrap();
        let run = SigmaSim::new(cfg).unwrap().run_gemm(&a, &b).unwrap();
        let est = estimate(&cfg, &GemmProblem::sparse(GemmShape::new(m, n, k), da, db));
        let f = run.stats.total_cycles() as f64;
        let e = est.total_cycles() as f64;
        prop_assert!(
            (f - e).abs() / f.max(1.0) < 0.35,
            "total cycles: functional {f} vs analytic {e} (da={da}, db={db})"
        );
    }
}

/// Within one FAN cluster, a streaming step's distribution is a monotone
/// multicast (contraction indices increase along the cluster's packed
/// slots), so each cluster's slice of the per-step pattern routes on the
/// Benes in one pass.
#[test]
fn per_cluster_streaming_patterns_are_monotone_and_routable() {
    let a = sparse_uniform(12, 16, Density::new(0.5).unwrap(), 5);
    let b = sparse_uniform(16, 6, Density::new(0.6).unwrap(), 6);
    let plan = ControllerPlan::build(&a, b.bitmap(), 32);
    let net = BenesNetwork::new(32).unwrap();
    for fold in &plan.folds {
        // Streaming arrival order: sorted distinct contraction indices.
        let rank_of =
            |k: usize| fold.distinct_contractions.binary_search(&k).expect("k present in fold");
        // Build one request per cluster; verify monotonicity and route it.
        let mut cluster_start = 0usize;
        while cluster_start < fold.occupied() {
            let cid = fold.vec_ids[cluster_start];
            let mut cluster_end = cluster_start;
            while cluster_end < fold.occupied() && fold.vec_ids[cluster_end] == cid {
                cluster_end += 1;
            }
            let mut req: Vec<Option<usize>> = vec![None; 32];
            for slot in cluster_start..cluster_end {
                req[slot] = Some(rank_of(fold.elements[slot].contraction));
            }
            let cfg = net
                .route_monotone_multicast(&req)
                .expect("per-cluster streaming request must be monotone");
            let inputs: Vec<Option<usize>> = (0..32).map(Some).collect();
            let out = cfg.apply(&inputs);
            for slot in cluster_start..cluster_end {
                assert_eq!(out[slot], req[slot]);
            }
            cluster_start = cluster_end;
        }
    }
}

/// Big-picture smoke test: the paper's flagship sparse-irregular scenario
/// runs functionally on a scaled-down instance with the expected
/// qualitative behaviour.
#[test]
fn sparse_irregular_end_to_end() {
    let sim = sim(4, 16, 64, Dataflow::InputStationary);
    // Tall-skinny sparse A (80% sparse), small dense-ish B.
    let a = sparse_uniform(64, 24, Density::from_sparsity(0.8).unwrap(), 11);
    let b = sparse_uniform(24, 10, Density::from_sparsity(0.3).unwrap(), 12);
    let run = sim.run_gemm(&a, &b).unwrap();
    let reference = a.to_dense().matmul(&b.to_dense());
    assert!(run.result.approx_eq(&reference, 0.05));
    assert_eq!(run.stats.stationary_utilization(), 1.0);
    // Compute efficiency tracks the streaming density (~0.7).
    let eff = run.stats.compute_efficiency();
    assert!((0.5..=0.9).contains(&eff), "compute efficiency {eff}");
}
