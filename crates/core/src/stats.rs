//! Cycle accounting per the paper's Table II.

/// The latency decomposition and utilization metrics of Table II.
///
/// * **Loading latency** — cycles loading the stationary matrix; not
///   overlapped with compute.
/// * **Streaming latency** — cycles streaming the non-stationary matrix
///   through the distribution network; overlaps with multiply and
///   accumulation.
/// * **Add latency** — the last reduction drain before the next stationary
///   fold loads; not overlapped.
/// * **Stat. utilization** — fraction of occupied PE slots holding
///   non-zeros after the stationary matrix is mapped.
/// * **Compute efficiency** — useful (non-zero) MAC latency over streaming
///   latency.
/// * **Overall efficiency** — useful MAC latency over total latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CycleStats {
    /// Cycles spent loading stationary folds (not overlapped).
    pub loading_cycles: u64,
    /// Cycles spent streaming the moving matrix (pipelined with compute).
    pub streaming_cycles: u64,
    /// Cycles spent draining the final reduction of each fold.
    pub add_cycles: u64,
    /// Number of stationary folds executed.
    pub folds: u64,
    /// Multiplications where both operands were non-zero.
    pub useful_macs: u128,
    /// Total multiplications issued (a mapped zero still burns a slot).
    pub issued_macs: u128,
    /// Non-zero stationary elements mapped (summed over folds).
    pub mapped_nonzeros: u64,
    /// PE slots occupied by the stationary mapping (summed over folds);
    /// for rigid arrays this includes mapped zeros.
    pub occupied_slots: u64,
    /// Total PEs in the engine.
    pub pes: u64,
    /// Words read from SRAM (each unique word once; multicast is free).
    pub sram_reads: u64,
    /// Flex-DPE loads of a prefix length the unit had loaded before: the
    /// loads whose switch settings a memoizing controller would replay.
    pub route_cache_hits: u64,
    /// First loads of a prefix length on a Flex-DPE: the loads a
    /// memoizing controller would have to configure.
    pub route_cache_misses: u64,
    /// Streaming cycles whose step carried no non-zero streamed operands —
    /// dead cycles the event scheduler fast-forwards in O(1). They remain
    /// part of [`CycleStats::streaming_cycles`] (and thus total cycles).
    /// A fault-injected run executes them (a fault may fire there) and
    /// counts them identically.
    pub idle_cycles_skipped: u64,
    /// Fault events that fired during the run (zero unless a
    /// [`FaultPlan`](crate::fault::FaultPlan) was armed).
    pub faults_injected: u64,
    /// Fault effects the ABFT checksums detected.
    pub faults_detected: u64,
    /// Fault effects remediated (in-place correction or recompute) with the
    /// final result verified correct.
    pub faults_corrected: u64,
    /// Fault effects that left the final result wrong — either undetected
    /// by the checksums or uncorrectable within the recompute budget.
    pub faults_escaped: u64,
}

impl CycleStats {
    /// Total latency: loading + streaming + add (Table II).
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.loading_cycles + self.streaming_cycles + self.add_cycles
    }

    /// Percent of occupied stationary slots holding non-zeros.
    ///
    /// SIGMA maps only non-zeros, so this is 1.0 by construction; rigid
    /// arrays that must map zeros report the non-zero fraction.
    #[must_use]
    pub fn stationary_utilization(&self) -> f64 {
        if self.occupied_slots == 0 {
            return 0.0;
        }
        self.mapped_nonzeros as f64 / self.occupied_slots as f64
    }

    /// Useful MAC latency: the cycles the useful work would take at full
    /// array width.
    #[must_use]
    pub fn useful_mac_cycles(&self) -> f64 {
        if self.pes == 0 {
            return 0.0;
        }
        self.useful_macs as f64 / self.pes as f64
    }

    /// Useful MAC latency / streaming latency (Table II).
    #[must_use]
    pub fn compute_efficiency(&self) -> f64 {
        if self.streaming_cycles == 0 {
            return 0.0;
        }
        (self.useful_mac_cycles() / self.streaming_cycles as f64).min(1.0)
    }

    /// Useful MAC latency / total latency (Table II).
    #[must_use]
    pub fn overall_efficiency(&self) -> f64 {
        let total = self.total_cycles();
        if total == 0 {
            return 0.0;
        }
        (self.useful_mac_cycles() / total as f64).min(1.0)
    }

    /// Merges the accounting of two runs (e.g. two GEMMs back to back, or
    /// the per-DPU pieces of a multi-GEMM schedule).
    #[must_use]
    pub fn merged(&self, other: &CycleStats) -> CycleStats {
        CycleStats {
            loading_cycles: self.loading_cycles + other.loading_cycles,
            streaming_cycles: self.streaming_cycles + other.streaming_cycles,
            add_cycles: self.add_cycles + other.add_cycles,
            folds: self.folds + other.folds,
            useful_macs: self.useful_macs + other.useful_macs,
            issued_macs: self.issued_macs + other.issued_macs,
            mapped_nonzeros: self.mapped_nonzeros + other.mapped_nonzeros,
            occupied_slots: self.occupied_slots + other.occupied_slots,
            pes: self.pes.max(other.pes),
            sram_reads: self.sram_reads + other.sram_reads,
            route_cache_hits: self.route_cache_hits + other.route_cache_hits,
            route_cache_misses: self.route_cache_misses + other.route_cache_misses,
            idle_cycles_skipped: self.idle_cycles_skipped + other.idle_cycles_skipped,
            faults_injected: self.faults_injected + other.faults_injected,
            faults_detected: self.faults_detected + other.faults_detected,
            faults_corrected: self.faults_corrected + other.faults_corrected,
            faults_escaped: self.faults_escaped + other.faults_escaped,
        }
    }
}

impl std::fmt::Display for CycleStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "load {} + stream {} + add {} = {} cycles | folds {} | stat-util {:.1}% | \
             compute-eff {:.1}% | overall-eff {:.1}%",
            self.loading_cycles,
            self.streaming_cycles,
            self.add_cycles,
            self.total_cycles(),
            self.folds,
            100.0 * self.stationary_utilization(),
            100.0 * self.compute_efficiency(),
            100.0 * self.overall_efficiency(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CycleStats {
        CycleStats {
            loading_cycles: 100,
            streaming_cycles: 800,
            add_cycles: 100,
            folds: 2,
            useful_macs: 64_000,
            issued_macs: 80_000,
            mapped_nonzeros: 90,
            occupied_slots: 100,
            pes: 100,
            sram_reads: 5_000,
            route_cache_hits: 7,
            route_cache_misses: 3,
            ..CycleStats::default()
        }
    }

    #[test]
    fn totals_and_ratios() {
        let s = sample();
        assert_eq!(s.total_cycles(), 1000);
        assert!((s.stationary_utilization() - 0.9).abs() < 1e-12);
        assert!((s.useful_mac_cycles() - 640.0).abs() < 1e-12);
        assert!((s.compute_efficiency() - 0.8).abs() < 1e-12);
        assert!((s.overall_efficiency() - 0.64).abs() < 1e-12);
    }

    #[test]
    fn efficiency_capped_at_one() {
        let mut s = sample();
        s.useful_macs = 10_000_000;
        assert_eq!(s.compute_efficiency(), 1.0);
        assert_eq!(s.overall_efficiency(), 1.0);
    }

    #[test]
    fn zero_division_guards() {
        let s = CycleStats::default();
        assert_eq!(s.total_cycles(), 0);
        assert_eq!(s.stationary_utilization(), 0.0);
        assert_eq!(s.compute_efficiency(), 0.0);
        assert_eq!(s.overall_efficiency(), 0.0);
    }

    #[test]
    fn merge_adds_counters() {
        let s = sample().merged(&sample());
        assert_eq!(s.total_cycles(), 2000);
        assert_eq!(s.folds, 4);
        assert_eq!(s.useful_macs, 128_000);
        assert_eq!(s.pes, 100);
        assert_eq!(s.route_cache_hits, 14);
        assert_eq!(s.route_cache_misses, 6);
    }

    #[test]
    fn display_mentions_all_phases() {
        let txt = sample().to_string();
        assert!(txt.contains("load 100"));
        assert!(txt.contains("stream 800"));
        assert!(txt.contains("overall-eff"));
    }
}
