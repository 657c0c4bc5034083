//! The SIGMA accelerator simulator: Flex-DPE, Flex-DPU, sparsity
//! controller and cycle-level GEMM execution.
//!
//! This crate implements the paper's primary contribution (Sec. IV of
//! [Qin et al., HPCA 2020]): a GEMM engine built from **Flexible Dot
//! Product Engines** — 1-D arrays of multipliers fed by a non-blocking
//! Benes distribution network and drained by the FAN reduction tree —
//! grouped dynamically into **Flexible Dot Product Units** over a simple
//! mesh NoC.
//!
//! The simulator has two complementary paths:
//!
//! * [`SigmaSim::run_gemm`] — a *functional* cycle-level execution: real
//!   `f32` operands move through the modeled controller → distribution →
//!   multipliers → FAN pipeline, producing both the numeric product
//!   (verified against the reference GEMM) and exact [`CycleStats`].
//! * [`model::estimate`] — an analytic model producing the same
//!   [`CycleStats`] from shapes and densities alone, used for the paper's
//!   enormous evaluation GEMMs (dimensions up to 500 000) where functional
//!   simulation is unnecessary. The two paths are cross-validated against
//!   each other in the test suite.
//!
//! The latency decomposition follows the paper's Table II exactly:
//! loading latency (stationary fill, not overlapped), streaming latency
//! (pipelined distribution + multiply + reduce), and add latency (the
//! final FAN drain before the next fold).
//!
//! # Quick example
//!
//! ```
//! use sigma_core::{Dataflow, SigmaConfig, SigmaSim};
//! use sigma_matrix::gen::{sparse_uniform, Density};
//!
//! let cfg = SigmaConfig::new(4, 16, 16, Dataflow::WeightStationary)?;
//! let sim = SigmaSim::new(cfg)?;
//! let a = sparse_uniform(12, 20, Density::new(0.5).unwrap(), 1);
//! let b = sparse_uniform(20, 9, Density::from_sparsity(0.8).unwrap(), 2);
//! let run = sim.run_gemm(&a, &b)?;
//! let reference = a.to_dense().matmul(&b.to_dense());
//! assert!(run.result.approx_eq(&reference, 1e-3));
//! assert!(run.stats.stationary_utilization() > 0.99); // only non-zeros mapped
//! # Ok::<(), sigma_core::SigmaError>(())
//! ```
//!
//! [Qin et al., HPCA 2020]: https://doi.org/10.1109/HPCA47549.2020.00015

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

pub mod config;
pub mod controller;
pub mod dpu;
pub mod engine;
pub mod engine_api;
pub mod fault;
pub mod flex_dpe;
pub mod model;
pub mod noc;
pub mod stats;
pub mod trace;

pub use config::{Dataflow, SigmaConfig, SigmaError};
pub use controller::{ControllerPlan, Fold, MappedElement, PackingOrder};
pub use dpu::{DpuAllocation, DpuAllocator, PartitionPolicy};
pub use engine::{GemmRun, RecoveryPolicy, SigmaSim};
pub use engine_api::{validate_finite, Engine, EngineError};
pub use fault::{
    FaultCounters, FaultEvent, FaultInjector, FaultKind, FaultPlan, FaultReport, FaultSite,
    FiredFault,
};
pub use flex_dpe::{DpeStep, FlexDpe};
pub use noc::{MeshNoc, NocStats};
pub use sigma_telemetry::{
    validate_chrome_trace, ChromeTrace, Hist, HistSummary, Telemetry, TelemetrySnapshot,
    TraceSummary,
};
pub use stats::CycleStats;
pub use trace::{Phase, Trace, TraceEvent};
