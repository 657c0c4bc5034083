//! Every functional machine in the repository — SIGMA's Flex-DPE engine,
//! both systolic dataflows, EIE, OuterSPACE, SCNN, Cambricon-X, Eyeriss
//! v2 and the packed (column-combined) systolic — must compute the same
//! numeric product on the same sparse operands through `Engine::run`.
//! Nine independent datapaths agreeing is strong evidence each one moves
//! data correctly.

use proptest::prelude::*;
use sigma_baselines::{
    CambriconEngine, EieEngine, EyerissEngine, OuterSpaceEngine, PackedSystolicEngine, ScnnEngine,
    SystolicEngine,
};
use sigma_core::{Dataflow, Engine, SigmaConfig, SigmaSim};
use sigma_matrix::gen::{sparse_uniform, Density};
use sigma_matrix::SparseMatrix;

fn agree_on(m: usize, k: usize, n: usize, da: f64, db: f64, seed: u64) {
    let a = sparse_uniform(m, k, Density::new(da).unwrap(), seed);
    let b = sparse_uniform(k, n, Density::new(db).unwrap(), seed ^ 0xbeef);
    let reference = a.to_dense().matmul(&b.to_dense());
    let tol = 1e-3 * k as f32;

    let engines: Vec<Box<dyn Engine>> = vec![
        Box::new(
            SigmaSim::new(SigmaConfig::new(2, 16, 32, Dataflow::WeightStationary).unwrap())
                .unwrap(),
        ),
        Box::new(SystolicEngine::weight_stationary(4, 4)),
        Box::new(SystolicEngine::output_stationary(4, 4)),
        Box::new(EieEngine::new(4, 2)),
        Box::new(OuterSpaceEngine::new(8, 4)),
        Box::new(ScnnEngine::new(8, 4)),
        Box::new(CambriconEngine::new(4, 4)),
        Box::new(EyerissEngine::new(4, 1 << 16, 8)),
        // A zero conflict budget keeps column combining lossless.
        Box::new(PackedSystolicEngine::new(4, 4, 8)),
    ];
    for engine in engines {
        let run = engine.run(&a, &b).unwrap();
        assert!(run.result.approx_eq(&reference, tol), "{} disagrees", engine.name());
    }

    // Round-trip sanity on the sparse representation used throughout.
    let dense = a.to_dense();
    assert_eq!(SparseMatrix::from_dense(&dense).to_dense(), dense);
}

#[test]
fn all_engines_agree_on_fixed_cases() {
    agree_on(8, 8, 8, 1.0, 1.0, 1);
    agree_on(12, 7, 9, 0.5, 0.3, 2);
    agree_on(5, 16, 4, 0.2, 0.8, 3);
    agree_on(1, 10, 13, 0.7, 0.5, 4);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn all_engines_agree_on_random_gemms(
        m in 1usize..12,
        k in 1usize..12,
        n in 1usize..12,
        da10 in 1u8..=10,
        db10 in 1u8..=10,
        seed in any::<u64>()
    ) {
        agree_on(m, k, n, f64::from(da10) / 10.0, f64::from(db10) / 10.0, seed);
    }
}
