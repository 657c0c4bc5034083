//! The inter-Flex-DPE NoC (Sec. IV-B): simple switches at each Flex-DPE
//! intersection, statically configured when a GEMM is mapped.
//!
//! There is no dynamic routing or flow control — configuration happens
//! once per mapping, which is what keeps the switches tiny. The model
//! charges what a batch run needs: writing each member switch of a
//! Flex-DPU once, and merging each fold's boundary partial sums over the
//! DPU's bus-like chain.

use std::ops::Range;

/// Traffic accounting for NoC operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NocStats {
    /// Link traversals consumed.
    pub hops: u64,
    /// Cycles of serialization on the configured path (one word per link
    /// per cycle).
    pub cycles: u64,
    /// Switches whose static configuration was (re)written.
    pub switches_configured: u64,
}

impl NocStats {
    /// Combines two accounting records.
    #[must_use]
    pub fn merged(&self, other: &NocStats) -> NocStats {
        NocStats {
            hops: self.hops + other.hops,
            cycles: self.cycles.max(other.cycles),
            switches_configured: self.switches_configured + other.switches_configured,
        }
    }
}

/// The per-Flex-DPE switches of one SIGMA instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeshNoc {
    dpes: usize,
}

impl MeshNoc {
    /// Creates the switches for `dpes` Flex-DPEs.
    ///
    /// # Panics
    ///
    /// Panics if `dpes == 0`.
    #[must_use]
    pub fn new(dpes: usize) -> Self {
        assert!(dpes > 0, "mesh needs at least one DPE");
        Self { dpes }
    }

    /// Statically configures a contiguous DPU: every member switch is
    /// written once.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the mesh.
    #[must_use]
    pub fn configure_dpu(&self, dpu: &Range<usize>) -> NocStats {
        assert!(dpu.end <= self.dpes, "DPU range exceeds mesh");
        NocStats { hops: 0, cycles: 0, switches_configured: dpu.len() as u64 }
    }

    /// Cycles to merge one boundary partial sum from each DPE of a DPU
    /// into the output buffer at the DPU head — the cross-DPE cluster
    /// merge the Fig. 9 DSE charges.
    #[must_use]
    pub fn merge_boundary_partials(&self, dpu: &Range<usize>) -> NocStats {
        assert!(!dpu.is_empty() && dpu.end <= self.dpes, "invalid DPU range");
        let members = dpu.len() as u64;
        // One partial per member beyond the first, serialized on the bus.
        NocStats {
            hops: members.saturating_sub(1),
            cycles: members.saturating_sub(1).max(1),
            switches_configured: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dpu_configuration_touches_each_switch_once() {
        let noc = MeshNoc::new(16);
        let s = noc.configure_dpu(&(4..12));
        assert_eq!(s.switches_configured, 8);
        assert_eq!(s.cycles, 0);
    }

    #[test]
    fn boundary_merge_serializes_members() {
        let noc = MeshNoc::new(16);
        assert_eq!(noc.merge_boundary_partials(&(0..8)).cycles, 7);
        assert_eq!(noc.merge_boundary_partials(&(0..1)).cycles, 1);
    }

    #[test]
    fn stats_merge() {
        let a = NocStats { hops: 3, cycles: 5, switches_configured: 2 };
        let b = NocStats { hops: 1, cycles: 7, switches_configured: 1 };
        let m = a.merged(&b);
        assert_eq!(m.hops, 4);
        assert_eq!(m.cycles, 7); // parallel paths: max
        assert_eq!(m.switches_configured, 3);
    }
}
