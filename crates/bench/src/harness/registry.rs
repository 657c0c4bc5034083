//! The engine registry: every functional engine of the evaluation,
//! buildable by a stable slug.
//!
//! All entries are sized to the same ~64-PE class so their cycle counts
//! are comparable (the analytic TPU rides along at its native 16384 PEs
//! for speedup baselines). The slugs are the `sigma_cli --engine` and
//! sweep-record vocabulary — keep them stable.

use sigma_baselines::{
    AnalyticEngine, CambriconEngine, EieEngine, EyerissEngine, GpuEngine, GpuPrecision,
    OuterSpaceEngine, PackedSystolicEngine, ScnnEngine, SystolicArray, SystolicEngine,
};
use sigma_core::{Dataflow, Engine, SigmaConfig, SigmaSim};
use std::sync::Arc;

/// A registered engine: a stable slug plus the shared engine itself.
///
/// Engines are held behind [`Arc`] so several entries (duplicate grid
/// cells, or a wrapping shim) can share one engine without cloning it.
pub struct EngineEntry {
    /// Stable lookup key (e.g. `"sigma"`, `"eie"`).
    pub slug: String,
    /// The engine.
    pub engine: Arc<dyn Engine>,
}

impl std::fmt::Debug for EngineEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineEntry")
            .field("slug", &self.slug)
            .field("engine", &self.engine.name())
            .finish()
    }
}

impl EngineEntry {
    /// Creates an entry.
    #[must_use]
    pub fn new(slug: impl Into<String>, engine: Box<dyn Engine>) -> Self {
        Self { slug: slug.into(), engine: Arc::from(engine) }
    }
}

fn sigma_64pe() -> Box<dyn Engine> {
    // Static geometry, known-good by construction: clamped() is exact.
    let cfg = SigmaConfig::clamped(4, 16, 64, Dataflow::WeightStationary);
    Box::new(SigmaSim::new_clamped(cfg))
}

/// The default fleet: SIGMA plus every baseline, all in the 64-PE class
/// (the analytic TPU at its native size).
#[must_use]
pub fn default_registry() -> Vec<EngineEntry> {
    vec![
        EngineEntry::new("sigma", sigma_64pe()),
        EngineEntry::new("systolic-ws", Box::new(SystolicEngine::weight_stationary(8, 8))),
        EngineEntry::new("systolic-os", Box::new(SystolicEngine::output_stationary(8, 8))),
        EngineEntry::new("packed-systolic", Box::new(PackedSystolicEngine::new(8, 8, 8))),
        EngineEntry::new("eie", Box::new(EieEngine::new(64, 1))),
        EngineEntry::new("outerspace", Box::new(OuterSpaceEngine::new(64, 16))),
        EngineEntry::new("scnn", Box::new(ScnnEngine::new(64, 16))),
        EngineEntry::new("cambricon-x", Box::new(CambriconEngine::new(16, 4))),
        EngineEntry::new("eyeriss-v2", Box::new(EyerissEngine::new(64, 1 << 20, 64))),
        EngineEntry::new("gpu-v100", Box::new(GpuEngine::new(GpuPrecision::Fp16Tensor))),
        EngineEntry::new(
            "tpu-analytic",
            Box::new(AnalyticEngine::new(SystolicArray::new(128, 128))),
        ),
    ]
}

/// Builds one engine by slug (the `sigma_cli --engine` lookup).
#[must_use]
pub fn engine_by_name(slug: &str) -> Option<Arc<dyn Engine>> {
    default_registry().into_iter().find(|e| e.slug == slug).map(|e| e.engine)
}

/// All registered slugs, in registry order.
#[must_use]
pub fn engine_names() -> Vec<String> {
    default_registry().into_iter().map(|e| e.slug).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_sigma_and_every_baseline() {
        let names = engine_names();
        for expected in [
            "sigma",
            "systolic-ws",
            "systolic-os",
            "packed-systolic",
            "eie",
            "outerspace",
            "scnn",
            "cambricon-x",
            "eyeriss-v2",
            "gpu-v100",
            "tpu-analytic",
        ] {
            assert!(names.iter().any(|n| n == expected), "missing {expected}");
        }
        assert_eq!(names.len(), 11);
    }

    #[test]
    fn slugs_are_unique_and_resolve() {
        let names = engine_names();
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate slug");
        for n in &names {
            assert!(engine_by_name(n).is_some(), "{n} does not resolve");
        }
        assert!(engine_by_name("no-such-engine").is_none());
    }
}
