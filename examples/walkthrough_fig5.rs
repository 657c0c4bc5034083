//! The paper's Fig. 5 walkthrough, executed step by step: from two
//! bitmap-compressed matrices to a mapped, streaming Flex-DPU — printing
//! the REGOR registers, the stationary′ bitmap, the fold/cluster
//! assignment, the SRC–DEST tables with their naive routing offsets, the
//! output bitmap, and finally the computed product.
//!
//! ```sh
//! cargo run --example walkthrough_fig5
//! ```

use sigma::arch::{ControllerPlan, DpeStep, FlexDpe};
use sigma::matrix::{Matrix, SparseMatrix};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Step i: two bitmap-compressed matrices. MK (4x4) is stationary,
    // KN (4x3) streams — the M-sta, N-str dataflow of Fig. 5.
    let mk = Matrix::from_rows(&[
        &[1.0, 0.0, 2.0, 0.0],
        &[0.0, 3.0, 0.0, 0.0],
        &[4.0, 0.0, 0.0, 5.0],
        &[0.0, 0.0, 6.0, 0.0],
    ]);
    let kn = Matrix::from_rows(&[
        &[1.0, 0.0, 2.0],
        &[0.0, 3.0, 0.0],
        &[4.0, 5.0, 0.0],
        &[0.0, 0.0, 0.0], // row k=3 is all zero: REGOR will drop its users
    ]);
    let stationary = SparseMatrix::from_dense(&mk);
    let streaming = SparseMatrix::from_dense(&kn);
    println!("Step i — compressed operands");
    println!("  stationary (MK) bitmap:\n{:?}", stationary.bitmap());
    println!("  streaming  (KN) bitmap:\n{:?}", streaming.bitmap());

    // Step ii: REGOR row-ORs + AND -> stationary'.
    let n_mult = 4; // multipliers per Flex-DPE in the figure
    let plan = ControllerPlan::build(&stationary, streaming.bitmap(), 2 * n_mult);
    println!("Step ii — REGOR (row-wise OR of the streaming bitmap): {:?}", plan.stream_or);
    println!(
        "  stationary' keeps {} of {} non-zeros ({} dropped: k=3 never streams)",
        plan.stationary_prime_nnz,
        stationary.nnz(),
        plan.dropped_stationary
    );

    // Steps iii-v: counters, folds, clusters.
    println!("Step iii/v — folds and cluster (vecID) assignment:");
    for (f, fold) in plan.folds.iter().enumerate() {
        println!(
            "  fold {f}: {} elements, clusters (rows) {:?}, vecIDs {:?}",
            fold.occupied(),
            fold.cluster_groups,
            &fold.vec_ids[..fold.occupied()]
        );
    }

    // Step v/vi: SRC-DEST tables and naive routing offsets per streamed
    // column.
    for step in 0..streaming.cols() {
        for dpe in 0..2 {
            let table = plan.src_dest_table(0, dpe, n_mult, streaming.bitmap(), step);
            if table.is_empty() {
                continue;
            }
            let offsets: Vec<i64> =
                table.iter().map(|&(s, d)| ControllerPlan::routing_offset(s, d)).collect();
            println!(
                "Step v/vi — column {step}, Flex-DPE {dpe}: SRC-DEST {table:?} -> offsets {offsets:?}"
            );
        }
    }

    // Step v: output bitmap.
    let out_bm = plan.output_bitmap(streaming.bitmap(), mk.rows());
    println!("Step v — output bitmap (which C elements get non-zero work):\n{out_bm:?}");

    // Step vii: stream through real Flex-DPE hardware models.
    println!("Step vii — streaming through two Flex-DPE-4 units:");
    let fold = &plan.folds[0];
    let mut result = Matrix::zeros(mk.rows(), kn.cols());
    let kn_dense = streaming.to_dense();
    for dpe_idx in 0..fold.occupied().div_ceil(n_mult) {
        let lo = dpe_idx * n_mult;
        let hi = (lo + n_mult).min(fold.occupied());
        let mut unit = FlexDpe::new(n_mult)?;
        let mut ids = vec![None; n_mult];
        ids[..hi - lo].copy_from_slice(&fold.vec_ids[lo..hi]);
        unit.load(&fold.elements[lo..hi], &ids)?;
        let mut out = DpeStep::default();
        for step in 0..kn.cols() {
            let column: Vec<f32> = (0..kn.rows()).map(|k| kn_dense.get(k, step)).collect();
            unit.step_compiled(&column, &mut out)?;
            for s in &out.reduction.sums {
                let row = fold.cluster_groups[s.vec_id as usize];
                result.set(row, step, result.get(row, step) + s.value);
            }
        }
    }
    println!("  computed C = A x B:\n{result}");
    let reference = mk.matmul(&kn);
    assert!(result.approx_eq(&reference, 1e-5));
    println!("  matches the reference GEMM. ✓");
    Ok(())
}
