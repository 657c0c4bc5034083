//! Baseline accelerator models for the SIGMA evaluation (Sec. VI-A).
//!
//! The paper compares SIGMA against a TPU-style systolic array (modeled
//! with SCALE-sim) and six sparse accelerators — EIE, SCNN, OuterSPACE,
//! Eyeriss v2, Packed Systolic and Cambricon-X — all normalized to
//! 16384 PEs, plus V100 GPU measurements for the motivation figures.
//!
//! Like the paper's own infrastructure, the sparse-accelerator baselines
//! are *analytic cycle models*: each one charges the latency terms implied
//! by its published microarchitecture (its dataflow, which operand's
//! sparsity it can exploit, and its documented bottleneck from the paper's
//! Table III). The systolic model reproduces SCALE-sim's weight-stationary
//! fold/skew arithmetic exactly, and the GPU model is a tiling/roofline
//! model of a V100 (a substitution for the paper's silicon measurements —
//! see `DESIGN.md`).
//!
//! Each design also has one *functional* [`Engine`](sigma_core::Engine)
//! type that moves real values through its datapath and reports its
//! cycles as [`CycleStats`]: [`SystolicEngine`] (weight- and
//! output-stationary), [`PackedSystolicEngine`] (column combining),
//! [`EieEngine`], [`OuterSpaceEngine`], [`ScnnEngine`],
//! [`CambriconEngine`] and [`EyerissEngine`]. [`GpuEngine`] and
//! [`AnalyticEngine`] put the analytic models behind the same trait.

#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented
    )
)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cambricon_functional;
mod eie_functional;
pub mod engines;
mod eyeriss_functional;
pub mod gpu;
mod outerspace_functional;
mod packed_functional;
mod scnn_functional;
pub mod sparse;
pub mod systolic;
mod systolic_functional;

pub use cambricon_functional::CambriconEngine;
pub use eie_functional::EieEngine;
pub use engines::{useful_macs, AnalyticEngine, GpuEngine};
pub use eyeriss_functional::EyerissEngine;
pub use gpu::{GpuModel, GpuPrecision};
pub use outerspace_functional::OuterSpaceEngine;
pub use packed_functional::{combine_columns, ColumnPacking, PackedSystolicEngine};
pub use scnn_functional::ScnnEngine;
pub use sparse::{SparseAccelerator, SparseAcceleratorKind};
pub use systolic::SystolicArray;
pub use systolic_functional::{SystolicEngine, SystolicMapping};

use sigma_core::model::GemmProblem;
use sigma_core::CycleStats;

/// A GEMM accelerator that can be driven by the experiment harness.
///
/// Implementors return Table-II style [`CycleStats`]; total cycles are the
/// comparison currency across all designs.
pub trait GemmAccelerator {
    /// Human-readable design name (used in figure legends).
    fn name(&self) -> String;

    /// Number of PEs (for normalization checks).
    fn pes(&self) -> usize;

    /// Simulates one GEMM and returns its cycle accounting.
    fn simulate(&self, problem: &GemmProblem) -> CycleStats;
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigma_matrix::GemmShape;

    #[test]
    fn trait_objects_are_usable() {
        let designs: Vec<Box<dyn GemmAccelerator>> = vec![
            Box::new(SystolicArray::new(128, 128)),
            Box::new(SparseAccelerator::new(SparseAcceleratorKind::Eie, 16384)),
        ];
        let p = GemmProblem::dense(GemmShape::new(256, 256, 256));
        for d in designs {
            let s = d.simulate(&p);
            assert!(s.total_cycles() > 0, "{} produced zero cycles", d.name());
            assert!(d.pes() > 0);
        }
    }
}
