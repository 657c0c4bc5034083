//! Property-based tests for the baseline machines, run through
//! `Engine::run` on sparse operands.

use proptest::prelude::*;
use sigma_baselines::{
    combine_columns, CambriconEngine, EieEngine, EyerissEngine, OuterSpaceEngine, ScnnEngine,
    SystolicArray, SystolicEngine,
};
use sigma_core::model::GemmProblem;
use sigma_core::Engine;
use sigma_matrix::gen::{sparse_uniform, Density};
use sigma_matrix::GemmShape;

fn density(x: u8) -> Density {
    Density::new(f64::from(x) / 10.0).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The functional weight-stationary systolic machine agrees with the
    /// analytic SCALE-sim formula whenever the stationary operand fits in
    /// one tile per fold dimension.
    #[test]
    fn functional_systolic_matches_analytic_formula(
        m in 1usize..20, seed in any::<u64>()
    ) {
        let (r, c) = (8usize, 8usize);
        let a = sparse_uniform(m, r, Density::DENSE, seed);
        let b = sparse_uniform(r, c, Density::DENSE, seed ^ 1);
        let run = SystolicEngine::weight_stationary(r, c).run(&a, &b).unwrap();
        let est = SystolicArray::new(r, c)
            .simulate_weight_stationary(&GemmProblem::dense(GemmShape::new(m, c, r)));
        prop_assert_eq!(run.stats.total_cycles(), est.total_cycles());
        prop_assert!(run.result.approx_eq(&a.to_dense().matmul(&b.to_dense()), 1e-3));
    }

    /// Column combining never loses non-zeros at zero conflict budget,
    /// never exceeds the combine cap, and its factor improves (weakly)
    /// as sparsity grows.
    #[test]
    fn column_combining_invariants(
        d10 in 1u8..=9, seed in any::<u64>(), cap in 2usize..8
    ) {
        let w = sparse_uniform(24, 24, density(d10), seed).to_dense();
        let p = combine_columns(&w, cap, 0);
        prop_assert_eq!(p.conflicts_pruned, 0);
        prop_assert_eq!(p.retained, w.nnz());
        prop_assert!(p.groups.iter().all(|g| g.len() <= cap));
        let cols: usize = p.groups.iter().map(Vec::len).sum();
        prop_assert_eq!(cols, 24);
        prop_assert!(p.packing_factor() >= 1.0 - 1e-12);
    }

    /// EIE and Eyeriss v2 both skip zero work: cycles scale (weakly)
    /// monotonically with activation density at fixed weights.
    #[test]
    fn sparse_engines_scale_with_density(seed in any::<u64>()) {
        let b = sparse_uniform(12, 12, density(5), seed);
        let sparse_a = sparse_uniform(12, 12, density(2), seed ^ 2);
        let dense_a = sparse_uniform(12, 12, density(9), seed ^ 3);
        let cycles = |engine: &dyn Engine, a| engine.run(a, &b).unwrap().stats.streaming_cycles;
        let eie = EieEngine::new(8, 1);
        prop_assert!(cycles(&eie, &sparse_a) <= cycles(&eie, &dense_a));
        let eye = EyerissEngine::new(8, 1 << 16, 16);
        prop_assert!(cycles(&eye, &sparse_a) <= cycles(&eye, &dense_a));
    }

    /// SCNN's and OuterSPACE's useful-MAC counts agree exactly (both
    /// enumerate the same nonzero pairs).
    #[test]
    fn pair_counts_agree(
        da in 1u8..=9, db in 1u8..=9, seed in any::<u64>()
    ) {
        let a = sparse_uniform(10, 8, density(da), seed);
        let b = sparse_uniform(8, 10, density(db), seed ^ 5);
        let scnn = ScnnEngine::new(16, 8).run(&a, &b).unwrap();
        let osp = OuterSpaceEngine::new(16, 8).run(&a, &b).unwrap();
        prop_assert_eq!(scnn.stats.useful_macs, osp.stats.useful_macs);
        prop_assert!(scnn.result.approx_eq(&osp.result, 1e-3));
    }

    /// Cambricon-X issued MACs equal weight-nnz x M regardless of
    /// activation pattern.
    #[test]
    fn cambricon_issue_count(
        da in 1u8..=10, db in 1u8..=10, seed in any::<u64>()
    ) {
        let a = sparse_uniform(7, 9, density(da), seed);
        let b = sparse_uniform(9, 6, density(db), seed ^ 7);
        let run = CambriconEngine::new(4, 4).run(&a, &b).unwrap();
        prop_assert_eq!(run.stats.issued_macs, b.nnz() as u128 * 7);
        prop_assert!(run.result.approx_eq(&a.to_dense().matmul(&b.to_dense()), 1e-3));
    }
}
