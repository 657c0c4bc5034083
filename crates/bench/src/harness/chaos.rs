//! A deliberately misbehaving engine for hardening the sweep harness.
//!
//! It does not belong in [`default_registry`]; only the sweep's own tests
//! splice it into a fleet, to prove that one bad engine cannot take down
//! a sweep — its cell is recorded as `panic` and every other cell stays
//! byte-identical.
//!
//! [`default_registry`]: super::registry::default_registry

use sigma_core::{Engine, EngineError, EngineRun};
use sigma_matrix::SparseMatrix;

/// An engine that panics on every [`Engine::run`] call.
///
/// Models a latent `unwrap()`/index bug tripping on a hostile workload.
#[derive(Debug, Default)]
pub struct PanickingEngine;

impl Engine for PanickingEngine {
    fn name(&self) -> String {
        "Chaos (panics)".to_string()
    }

    fn pes(&self) -> usize {
        1
    }

    // Deliberate: this engine exists to prove the sweep contains panics
    // (sigma-lint D2 waived for this file in lint.toml).
    #[allow(clippy::panic)]
    fn run(&self, a: &SparseMatrix, b: &SparseMatrix) -> Result<EngineRun, EngineError> {
        sigma_core::validate_finite(a, b)?;
        panic!("chaos: deliberate panic from PanickingEngine");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigma_matrix::gen::{sparse_uniform, Density};

    #[test]
    fn panicking_engine_panics() {
        let d = Density::new(0.5).unwrap();
        let (a, b) = (sparse_uniform(3, 5, d, 7), sparse_uniform(5, 4, d, 8));
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = PanickingEngine.run(&a, &b);
        }));
        assert!(caught.is_err());
    }
}
