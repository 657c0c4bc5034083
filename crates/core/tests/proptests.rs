//! Property-based tests on the controller, Flex-DPE and DPU invariants.

use proptest::prelude::*;
use sigma_core::model::GemmProblem;
use sigma_core::{ControllerPlan, DpeStep, DpuAllocator, Engine, FlexDpe, SigmaConfig, SigmaSim};
use sigma_matrix::gen::{sparse_uniform, Density};
use sigma_matrix::GemmShape;

fn density(x: u8) -> Density {
    Density::new(f64::from(x) / 10.0).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every mapped stationary element has at least one streaming partner
    /// (REGOR never maps useless work), and every dropped element has
    /// none.
    #[test]
    fn controller_maps_exactly_the_useful_elements(
        g in 1usize..10, k in 1usize..10, s in 1usize..10,
        d_stat in 1u8..=10, d_str in 0u8..=10, seed in any::<u64>()
    ) {
        let stationary = sparse_uniform(g, k, density(d_stat), seed);
        let streaming = sparse_uniform(k, s, density(d_str), seed ^ 0x9a);
        let plan = ControllerPlan::build(&stationary, streaming.bitmap(), 64);

        let mapped: usize = plan.folds.iter().map(sigma_core::Fold::occupied).sum();
        prop_assert_eq!(mapped as u64, plan.stationary_prime_nnz);
        prop_assert_eq!(
            plan.stationary_prime_nnz + plan.dropped_stationary,
            stationary.nnz() as u64
        );
        for fold in &plan.folds {
            for e in &fold.elements {
                prop_assert!(
                    streaming.bitmap().row_count_ones(e.contraction) > 0,
                    "mapped element with no streaming partner at k={}", e.contraction
                );
            }
        }
    }

    /// Clusters within every fold are contiguous and ordered, and their
    /// groups strictly increase.
    #[test]
    fn controller_clusters_are_contiguous_and_ordered(
        g in 1usize..12, k in 1usize..12, seed in any::<u64>()
    ) {
        let stationary = sparse_uniform(g, k, density(6), seed);
        let streaming = sparse_uniform(k, 4, density(8), seed ^ 0x77);
        let plan = ControllerPlan::build(&stationary, streaming.bitmap(), 8);
        for fold in &plan.folds {
            // vec_ids must be a non-decreasing run of cluster ids then None.
            let mut last: Option<u32> = None;
            for (i, id) in fold.vec_ids.iter().enumerate() {
                match (last, id) {
                    (Some(l), Some(cur)) => {
                        prop_assert!(*cur == l || *cur == l + 1, "cluster jump at {i}");
                    }
                    (None, Some(cur)) => prop_assert_eq!(*cur, 0),
                    (_, None) => {
                        prop_assert!(fold.vec_ids[i..].iter().all(Option::is_none));
                        break;
                    }
                }
                if let Some(cur) = id {
                    last = Some(*cur);
                }
            }
            // Groups strictly increase across clusters within a fold.
            for w in fold.cluster_groups.windows(2) {
                prop_assert!(w[0] < w[1]);
            }
        }
    }

    /// A Flex-DPE step computes exactly the per-cluster dot products of
    /// its stationary buffer against the streamed vector.
    #[test]
    fn flex_dpe_step_matches_dot_products(
        seed in any::<u64>(), d in 2u8..=10
    ) {
        let stationary = sparse_uniform(4, 8, density(d), seed);
        let streaming = sparse_uniform(8, 1, density(8), seed ^ 0x3c3c);
        let plan = ControllerPlan::build(&stationary, streaming.bitmap(), 16);
        let stream_dense = streaming.to_dense();

        if let Some(fold) = plan.folds.first() {
            let mut dpe = FlexDpe::new(16).unwrap();
            dpe.load(&fold.elements, &fold.vec_ids).unwrap();
            let column: Vec<f32> = (0..8).map(|kk| stream_dense.get(kk, 0)).collect();
            let mut step = DpeStep::default();
            dpe.step_compiled(&column, &mut step).unwrap();

            // Expected per-cluster partial dot products from the fold's
            // own elements (a group may span folds, so the cluster sum is
            // the partial over this fold's slice).
            for s in &step.reduction.sums {
                let expect: f32 = fold
                    .elements
                    .iter()
                    .zip(&fold.vec_ids)
                    .filter(|(_, id)| **id == Some(s.vec_id))
                    .map(|(e, _)| e.value * stream_dense.get(e.contraction, 0))
                    .sum();
                prop_assert!((s.value - expect).abs() < 1e-3,
                    "cluster {} sum {} vs {}", s.vec_id, s.value, expect);
            }
        }
    }

    /// DPU partitions always cover the pool exactly, with every GEMM
    /// getting at least one Flex-DPE.
    #[test]
    fn dpu_partition_invariants(
        sizes in proptest::collection::vec((1usize..64, 1usize..64, 1usize..64), 1..8)
    ) {
        let cfg = SigmaConfig::new(8, 16, 16, sigma_core::Dataflow::WeightStationary).unwrap();
        let alloc = DpuAllocator::new(cfg);
        let problems: Vec<GemmProblem> = sizes
            .iter()
            .map(|&(m, n, k)| GemmProblem::dense(GemmShape::new(m, n, k)))
            .collect();
        let shares = alloc.partition(&problems).unwrap();
        prop_assert_eq!(shares.iter().sum::<usize>(), 8);
        prop_assert!(shares.iter().all(|&s| s >= 1));
    }

    /// Benes route caching is invisible: the same GEMM run with the route
    /// cache enabled and disabled produces byte-identical [`EngineRun`]s
    /// (result matrix, cycle stats, and trace) across random sparse and
    /// irregular shapes, dataflows, and PE configurations.
    #[test]
    fn route_cache_runs_are_byte_identical_to_cold_routing(
        m in 1usize..24, k in 1usize..20, n in 1usize..24,
        d_a in 0u8..=10, d_b in 0u8..=10,
        dpes in 1usize..5, log_size in 1u32..5,
        seed in any::<u64>()
    ) {
        let dataflow = match seed % 3 {
            0 => sigma_core::Dataflow::WeightStationary,
            1 => sigma_core::Dataflow::InputStationary,
            _ => sigma_core::Dataflow::NoLocalReuse,
        };
        let a = sparse_uniform(m, k, density(d_a), seed);
        let b = sparse_uniform(k, n, density(d_b), seed ^ 0x5bd1_e995);
        let cfg = SigmaConfig::new(dpes, 1 << log_size, 1 << log_size, dataflow).unwrap();

        let cached = Engine::run(&SigmaSim::new(cfg).unwrap(), &a, &b).unwrap();
        let mut cold =
            Engine::run(&SigmaSim::new(cfg.with_route_cache(false)).unwrap(), &a, &b).unwrap();

        // The route-cache hit/miss counters observe the caching itself, so
        // they are the one legitimate difference: cold routing never hits.
        prop_assert_eq!(cold.stats.route_cache_hits, 0);
        prop_assert_eq!(
            cold.stats.route_cache_misses,
            cached.stats.route_cache_hits + cached.stats.route_cache_misses
        );
        cold.stats.route_cache_hits = cached.stats.route_cache_hits;
        cold.stats.route_cache_misses = cached.stats.route_cache_misses;
        prop_assert!(cached == cold, "cached and cold runs diverged");
        // Belt and braces: the numeric results are bitwise equal, not
        // merely PartialEq-equal (PartialEq on f32 would accept -0.0 == 0.0).
        for i in 0..cached.result.rows() {
            for j in 0..cached.result.cols() {
                prop_assert_eq!(
                    cached.result.get(i, j).to_bits(),
                    cold.result.get(i, j).to_bits(),
                    "bit divergence at ({}, {})", i, j
                );
            }
        }
    }
}
