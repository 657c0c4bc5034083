//! Distribution-network design alternatives (Sec. IV-A-1 discussion).
//!
//! The paper justifies the Benes choice by contrasting it with a crossbar
//! (equally non-blocking but `O(N²)` cost), and with blocking designs —
//! buses, trees, butterflies, meshes — that are cheap in wires but
//! serialize conflicting transfers. These small analytic models expose the
//! cost and delay trade-offs used in the design-choice discussion and the
//! DSE bench.

use crate::log2_ceil;

/// Distribution-network design points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DistributionKind {
    /// Non-blocking N×N crossbar.
    Crossbar,
    /// Benes network (SIGMA's choice).
    Benes,
    /// Single shared bus: one unique value broadcast per cycle.
    Bus,
    /// Butterfly: log-stage blocking network.
    Butterfly,
    /// 2-D mesh (store-and-forward between neighbors).
    Mesh,
}

impl DistributionKind {
    /// All design points.
    pub const ALL: [DistributionKind; 5] = [
        DistributionKind::Crossbar,
        DistributionKind::Benes,
        DistributionKind::Bus,
        DistributionKind::Butterfly,
        DistributionKind::Mesh,
    ];

    /// Display name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            DistributionKind::Crossbar => "Crossbar",
            DistributionKind::Benes => "Benes",
            DistributionKind::Bus => "Bus",
            DistributionKind::Butterfly => "Butterfly",
            DistributionKind::Mesh => "Mesh",
        }
    }

    /// `true` when any source-to-destination pattern routes without
    /// intermediate contention.
    #[must_use]
    pub fn is_non_blocking(&self) -> bool {
        matches!(self, DistributionKind::Crossbar | DistributionKind::Benes)
    }
}

impl std::fmt::Display for DistributionKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Analytic cost/latency model of one distribution design over `n` ports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DistributionModel {
    kind: DistributionKind,
    size: usize,
}

impl DistributionModel {
    /// Creates a model over `size` destination ports.
    ///
    /// # Panics
    ///
    /// Panics if `size == 0`.
    #[must_use]
    pub fn new(kind: DistributionKind, size: usize) -> Self {
        assert!(size > 0, "distribution network size must be non-zero");
        Self { kind, size }
    }

    /// The design point.
    #[must_use]
    pub fn kind(&self) -> DistributionKind {
        self.kind
    }

    /// Number of destination ports.
    #[must_use]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Switching elements (crosspoints or 2×2 switches) — the dominant
    /// area/wire cost driver.
    #[must_use]
    pub fn switch_cost(&self) -> u64 {
        let n = self.size as u64;
        match self.kind {
            DistributionKind::Crossbar => n * n,
            DistributionKind::Benes => u64::from(2 * log2_ceil(self.size).max(1) - 1) * n / 2,
            DistributionKind::Bus => n, // one tap per port
            DistributionKind::Butterfly => u64::from(log2_ceil(self.size).max(1)) * n / 2,
            DistributionKind::Mesh => n, // one small router per port
        }
    }

    /// Cycles to deliver `unique_values` distinct values to their
    /// destinations (multicast of the same value counts once).
    ///
    /// Non-blocking designs deliver everything in one traversal; the bus
    /// serializes per unique value; a mesh pays hop distance. The
    /// butterfly's flat 2 cycles is an unmeasured assumption: a blocking
    /// single-path network is taken to cost about twice a non-blocking
    /// traversal, whatever the request pattern, and no router here checks
    /// that against real conflict waves.
    #[must_use]
    pub fn delivery_cycles(&self, unique_values: u64) -> u64 {
        match self.kind {
            DistributionKind::Crossbar | DistributionKind::Benes => 1,
            DistributionKind::Bus => unique_values.max(1),
            DistributionKind::Butterfly => 2,
            DistributionKind::Mesh => {
                // Worst-case Manhattan distance across a sqrt(N) x sqrt(N) grid.
                let side = (self.size as f64).sqrt().ceil() as u64;
                2 * side.max(1) - 1
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crossbar_cost_is_quadratic() {
        let xb = DistributionModel::new(DistributionKind::Crossbar, 128);
        let benes = DistributionModel::new(DistributionKind::Benes, 128);
        assert_eq!(xb.switch_cost(), 128 * 128);
        assert_eq!(benes.switch_cost(), 13 * 64);
        assert!(benes.switch_cost() < xb.switch_cost());
    }

    #[test]
    fn non_blocking_classification() {
        assert!(DistributionKind::Benes.is_non_blocking());
        assert!(DistributionKind::Crossbar.is_non_blocking());
        assert!(!DistributionKind::Bus.is_non_blocking());
        assert!(!DistributionKind::Butterfly.is_non_blocking());
        assert!(!DistributionKind::Mesh.is_non_blocking());
    }

    #[test]
    fn bus_serializes_unique_values() {
        let bus = DistributionModel::new(DistributionKind::Bus, 64);
        assert_eq!(bus.delivery_cycles(1), 1);
        assert_eq!(bus.delivery_cycles(64), 64);
        let benes = DistributionModel::new(DistributionKind::Benes, 64);
        assert_eq!(benes.delivery_cycles(64), 1);
    }

    #[test]
    fn mesh_pays_hop_distance() {
        let mesh = DistributionModel::new(DistributionKind::Mesh, 64);
        assert_eq!(mesh.delivery_cycles(8), 15); // 8x8 grid: 2*8 - 1
    }

    #[test]
    fn names_and_all() {
        assert_eq!(DistributionKind::ALL.len(), 5);
        assert_eq!(DistributionKind::Benes.to_string(), "Benes");
    }
}
