//! The unified engine abstraction every simulated accelerator implements.
//!
//! The paper's evaluation (Sec. VI) drives one SIGMA configuration and
//! seven baseline designs over the same GEMM suite. [`Engine`] is the one
//! entry point the experiment harness uses for all of them: sparse
//! operands in, an [`EngineRun`] (numeric product + Table-II
//! [`CycleStats`]) out. The trait is object-safe and
//! `Send + Sync`, so a heterogeneous fleet of boxed engines can be fanned
//! across threads by a sweep driver.

use crate::config::SigmaError;
use crate::engine::SigmaSim;
use crate::stats::CycleStats;
use sigma_matrix::{Matrix, SparseMatrix};
use sigma_telemetry::TelemetrySnapshot;

/// The outcome of one GEMM on any engine: the numeric product and the
/// cycle accounting. (A cycle-stamped trace of a SIGMA run comes from
/// [`SigmaSim::run_gemm_traced`], outside the harness.)
#[derive(Debug, Clone, PartialEq)]
pub struct EngineRun {
    /// The computed `M x N` product.
    pub result: Matrix,
    /// Table-II style latency and utilization metrics.
    pub stats: CycleStats,
}

impl EngineRun {
    /// Wraps a result and its stats.
    #[must_use]
    pub fn new(result: Matrix, stats: CycleStats) -> Self {
        Self { result, stats }
    }
}

/// Why an engine refused to run a GEMM. A panic is not one of these:
/// the sweep catches it and records the cell's status as a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// `A.cols() != B.rows()`.
    DimensionMismatch {
        /// Contraction length of the left operand.
        k_a: usize,
        /// Contraction length of the right operand.
        k_b: usize,
    },
    /// The engine's configuration cannot execute this problem.
    Config(String),
    /// An operand (or an intermediate) contains NaN or infinity; the
    /// functional models only define behaviour over finite values.
    Numeric(String),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::DimensionMismatch { k_a, k_b } => {
                write!(f, "dimension mismatch: A has K={k_a}, B has K={k_b}")
            }
            EngineError::Config(msg) => write!(f, "engine configuration error: {msg}"),
            EngineError::Numeric(msg) => write!(f, "non-finite value: {msg}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<SigmaError> for EngineError {
    fn from(e: SigmaError) -> Self {
        match e {
            SigmaError::DimensionMismatch { k_a, k_b } => {
                EngineError::DimensionMismatch { k_a, k_b }
            }
            SigmaError::NonFiniteInput { .. } => EngineError::Numeric(e.to_string()),
            other => EngineError::Config(other.to_string()),
        }
    }
}

/// Rejects GEMM operands containing NaN or infinity.
///
/// Every engine's `run` calls this before touching the datapath: a NaN
/// silently propagates through a functional model and poisons the sweep's
/// verification, so it is an input error, not a numeric result.
///
/// # Errors
///
/// Returns [`EngineError::Numeric`] naming the offending operand.
pub fn validate_finite(a: &SparseMatrix, b: &SparseMatrix) -> Result<(), EngineError> {
    if !a.all_finite() {
        return Err(EngineError::Numeric("operand A contains NaN or infinity".into()));
    }
    if !b.all_finite() {
        return Err(EngineError::Numeric("operand B contains NaN or infinity".into()));
    }
    Ok(())
}

/// A GEMM engine the experiment harness can drive.
///
/// Implementations exist for the functional SIGMA simulator (this crate)
/// and for every baseline accelerator (`sigma-baselines`), so one sweep
/// loop covers the whole evaluation. The trait is object-safe; sweeps
/// hold `Box<dyn Engine>` and may call [`Engine::run`] from multiple
/// threads (`&self`, `Send + Sync`).
pub trait Engine: Send + Sync {
    /// Human-readable design name (used in legends, CSV rows, and the
    /// CLI's `--engine` lookup).
    fn name(&self) -> String;

    /// Number of processing elements (the normalization currency of the
    /// paper's comparisons).
    fn pes(&self) -> usize;

    /// Executes `C = A x B`, returning the product and cycle accounting.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::DimensionMismatch`] when
    /// `a.cols() != b.rows()`, or [`EngineError::Config`] when the
    /// engine cannot execute the problem.
    fn run(&self, a: &SparseMatrix, b: &SparseMatrix) -> Result<EngineRun, EngineError>;

    /// A snapshot of the engine's telemetry registry, when the engine
    /// records one and it is enabled. Analytic baselines (and engines
    /// built without telemetry) return `None` — the default.
    fn telemetry(&self) -> Option<TelemetrySnapshot> {
        None
    }

    /// Canonical revision string for this engine's *result-affecting*
    /// configuration: two engines with equal fingerprints must produce
    /// bitwise-identical [`EngineRun`]s on identical operands. Result
    /// caches fold this into the content key, so a configuration knob
    /// (or model revision) that changes outputs without changing the
    /// display name still invalidates cached cells.
    ///
    /// The default covers engines whose only knob is their PE count;
    /// engines with richer configuration (e.g. [`SigmaSim`]) override it
    /// with a full canonical key.
    fn fingerprint(&self) -> String {
        format!("{}#pes={}", self.name(), self.pes())
    }
}

impl<E: Engine + ?Sized> Engine for &E {
    fn name(&self) -> String {
        (**self).name()
    }
    fn pes(&self) -> usize {
        (**self).pes()
    }
    fn run(&self, a: &SparseMatrix, b: &SparseMatrix) -> Result<EngineRun, EngineError> {
        (**self).run(a, b)
    }
    fn telemetry(&self) -> Option<TelemetrySnapshot> {
        (**self).telemetry()
    }
    fn fingerprint(&self) -> String {
        (**self).fingerprint()
    }
}

impl<E: Engine + ?Sized> Engine for Box<E> {
    fn name(&self) -> String {
        (**self).name()
    }
    fn pes(&self) -> usize {
        (**self).pes()
    }
    fn run(&self, a: &SparseMatrix, b: &SparseMatrix) -> Result<EngineRun, EngineError> {
        (**self).run(a, b)
    }
    fn telemetry(&self) -> Option<TelemetrySnapshot> {
        (**self).telemetry()
    }
    fn fingerprint(&self) -> String {
        (**self).fingerprint()
    }
}

impl Engine for SigmaSim {
    fn name(&self) -> String {
        format!(
            "SIGMA {}x{} ({})",
            self.config().num_dpes(),
            self.config().dpe_size(),
            self.config().dataflow().name()
        )
    }

    fn pes(&self) -> usize {
        self.config().total_pes()
    }

    fn run(&self, a: &SparseMatrix, b: &SparseMatrix) -> Result<EngineRun, EngineError> {
        let run = self.run_gemm(a, b)?;
        Ok(EngineRun::new(run.result, run.stats))
    }

    fn telemetry(&self) -> Option<TelemetrySnapshot> {
        let handle = self.telemetry_handle();
        handle.is_enabled().then(|| handle.snapshot())
    }

    fn fingerprint(&self) -> String {
        format!("sigma-sim/{}", self.config().canonical_key())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Dataflow, SigmaConfig};
    use sigma_matrix::gen::{sparse_uniform, Density};

    fn sim() -> SigmaSim {
        SigmaSim::new(SigmaConfig::new(2, 8, 16, Dataflow::WeightStationary).unwrap()).unwrap()
    }

    #[test]
    fn sigma_runs_through_the_trait_object() {
        let engine: Box<dyn Engine> = Box::new(sim());
        assert!(engine.name().starts_with("SIGMA 2x8"));
        assert_eq!(engine.pes(), 16);
        let a = sparse_uniform(6, 9, Density::new(0.5).unwrap(), 3);
        let b = sparse_uniform(9, 5, Density::new(0.5).unwrap(), 4);
        let run = engine.run(&a, &b).unwrap();
        let reference = a.to_dense().matmul(&b.to_dense());
        assert!(run.result.approx_eq(&reference, 1e-3 * 9.0));
        assert!(run.stats.total_cycles() > 0);
    }

    #[test]
    fn trait_run_matches_direct_run() {
        let s = sim();
        let a = sparse_uniform(7, 11, Density::new(0.4).unwrap(), 8);
        let b = sparse_uniform(11, 6, Density::new(0.7).unwrap(), 9);
        let via_trait = Engine::run(&s, &a, &b).unwrap();
        let direct = s.run_gemm(&a, &b).unwrap();
        assert_eq!(via_trait.result, direct.result);
        assert_eq!(via_trait.stats, direct.stats);
    }

    #[test]
    fn dimension_mismatch_surfaces_as_engine_error() {
        let a = sparse_uniform(4, 5, Density::DENSE, 1);
        let b = sparse_uniform(6, 4, Density::DENSE, 2);
        let err = Engine::run(&sim(), &a, &b).unwrap_err();
        assert_eq!(err, EngineError::DimensionMismatch { k_a: 5, k_b: 6 });
        assert!(err.to_string().contains("dimension mismatch"));
    }

    #[test]
    fn telemetry_snapshot_flows_through_the_trait() {
        let cfg = SigmaConfig::new(2, 8, 16, Dataflow::WeightStationary).unwrap();
        let off: Box<dyn Engine> = Box::new(SigmaSim::new(cfg).unwrap());
        assert!(off.telemetry().is_none(), "disabled telemetry reports None");
        let on: Box<dyn Engine> = Box::new(SigmaSim::new(cfg.with_telemetry(true)).unwrap());
        let a = sparse_uniform(6, 9, Density::new(0.5).unwrap(), 3);
        let b = sparse_uniform(9, 5, Density::new(0.5).unwrap(), 4);
        on.run(&a, &b).unwrap();
        let snap = on.telemetry().expect("enabled telemetry reports a snapshot");
        assert!(snap.enabled);
        assert!(snap.counter("stream_steps").unwrap() > 0);
    }

    #[test]
    fn references_and_boxes_are_engines_too() {
        let s = sim();
        let by_ref: &dyn Engine = &s;
        assert_eq!(by_ref.pes(), (&by_ref).pes());
        let boxed: Box<dyn Engine> = Box::new(sim());
        assert_eq!(boxed.name(), by_ref.name());
    }

    #[test]
    fn sigma_fingerprint_tracks_result_affecting_knobs() {
        let cfg = SigmaConfig::new(2, 8, 16, Dataflow::WeightStationary).unwrap();
        let base = SigmaSim::new(cfg).unwrap().fingerprint();
        assert!(base.starts_with("sigma-sim/c3;"), "versioned prefix: {base}");
        // Knobs that change results must change the fingerprint...
        let repacked = SigmaSim::new(cfg.with_packing_order(crate::PackingOrder::ContractionMajor));
        assert_ne!(base, repacked.unwrap().fingerprint());
        // ...while observational telemetry must not.
        let observed = SigmaSim::new(cfg.with_telemetry(true)).unwrap();
        assert_eq!(base, observed.fingerprint());
    }

    #[test]
    fn fingerprint_forwards_through_refs_and_boxes() {
        let s = sim();
        let direct = s.fingerprint();
        let by_ref: &dyn Engine = &s;
        assert_eq!(by_ref.fingerprint(), direct);
        let boxed: Box<dyn Engine> = Box::new(sim());
        assert_eq!(boxed.fingerprint(), direct);
    }

    #[test]
    fn default_fingerprint_names_the_engine_and_pe_count() {
        struct Toy;
        impl Engine for Toy {
            fn name(&self) -> String {
                "Toy".into()
            }
            fn pes(&self) -> usize {
                64
            }
            fn run(&self, _: &SparseMatrix, _: &SparseMatrix) -> Result<EngineRun, EngineError> {
                Err(EngineError::Config("toy".into()))
            }
        }
        assert_eq!(Toy.fingerprint(), "Toy#pes=64");
    }
}
