//! The histogram registry: a fixed vocabulary of power-of-two-bucketed
//! histograms behind a cheaply cloneable handle.
//!
//! The vocabulary is a closed enum rather than string keys so recording
//! is an array index + atomic adds — no hashing, no locking, no
//! allocation — and so the set of instrumentation sites is reviewable in
//! one place.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::json::quote;

/// Histograms recorded by the simulator. Values land in power-of-two
/// buckets (0, 1, 2, 3–4, 5–8, ...), which suits both cycle counts and
/// the 0–100 occupancy percentages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hist {
    /// Multicast fan-out: multipliers fed by one streamed SRAM read.
    MulticastFanout,
    /// Per-Flex-DPE multiplier occupancy at fold load, in percent.
    MultiplierOccupancyPct,
    /// Per-step FAN adder occupancy (adds performed / adders), percent.
    FanAdderOccupancyPct,
    /// Per-step FAN forwarding-link occupancy (cluster sums routed out /
    /// forwarding links), in percent.
    FanLinkOccupancyPct,
    /// Cycles per streaming step (bandwidth serialization).
    StreamStepCycles,
}

impl Hist {
    /// Every histogram, in emission order.
    pub const ALL: [Hist; 5] = [
        Hist::MulticastFanout,
        Hist::MultiplierOccupancyPct,
        Hist::FanAdderOccupancyPct,
        Hist::FanLinkOccupancyPct,
        Hist::StreamStepCycles,
    ];

    /// Stable snake_case name (CSV/JSON key).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Hist::MulticastFanout => "multicast_fanout",
            Hist::MultiplierOccupancyPct => "multiplier_occupancy_pct",
            Hist::FanAdderOccupancyPct => "fan_adder_occupancy_pct",
            Hist::FanLinkOccupancyPct => "fan_link_occupancy_pct",
            Hist::StreamStepCycles => "stream_step_cycles",
        }
    }
}

/// Power-of-two histogram buckets: index 0 holds zeros, index `i >= 1`
/// holds values in `(2^(i-2), 2^(i-1)]`, with the last bucket open-ended.
pub(crate) const HIST_BUCKETS: usize = 18;

/// Bucket index for a value (see [`HIST_BUCKETS`]).
#[inline]
pub(crate) fn bucket_of(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        // ceil(log2(value)) + 1, so bucket i covers (2^(i-2), 2^(i-1)].
        ((65 - (value - 1).leading_zeros()) as usize).min(HIST_BUCKETS - 1)
    }
}

/// Inclusive lower bound of a bucket, for display.
pub(crate) fn bucket_floor(index: usize) -> u64 {
    match index {
        0 => 0,
        1 => 1,
        i => (1 << (i - 2)) + 1,
    }
}

#[derive(Debug)]
pub(crate) struct HistCells {
    pub(crate) buckets: [AtomicU64; HIST_BUCKETS],
    pub(crate) count: AtomicU64,
    pub(crate) sum: AtomicU64,
    pub(crate) max: AtomicU64,
}

impl HistCells {
    pub(crate) fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    #[inline]
    pub(crate) fn observe(&self, value: u64) {
        self.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    #[inline]
    fn observe_n(&self, value: u64, n: u64) {
        self.buckets[bucket_of(value)].fetch_add(n, Ordering::Relaxed);
        self.count.fetch_add(n, Ordering::Relaxed);
        self.sum.fetch_add(value.saturating_mul(n), Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Flattens the cells into a [`HistSummary`] under `name`.
    pub(crate) fn summary(&self, name: &'static str) -> HistSummary {
        HistSummary {
            name,
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
        }
    }
}

/// The shared registry cells behind an enabled [`Telemetry`] handle.
#[derive(Debug)]
struct Registry {
    hists: [HistCells; Hist::ALL.len()],
}

impl Registry {
    fn new() -> Self {
        Self { hists: std::array::from_fn(|_| HistCells::new()) }
    }
}

/// A cheaply cloneable telemetry handle.
///
/// Disabled (the default) it is a `None` and every recording call is an
/// inlined no-op; enabled it shares one atomic `Registry` across all
/// clones.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Registry>>,
}

impl Telemetry {
    /// A disabled handle: recording is a no-op, snapshots are empty.
    #[must_use]
    pub fn off() -> Self {
        Self { inner: None }
    }

    /// An enabled handle with a fresh, zeroed registry.
    #[must_use]
    pub fn enabled() -> Self {
        Self { inner: Some(Arc::new(Registry::new())) }
    }

    /// Whether recording does anything.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Records one histogram observation. No-op when disabled.
    #[inline]
    pub fn observe(&self, hist: Hist, value: u64) {
        if let Some(reg) = &self.inner {
            reg.hists[hist as usize].observe(value);
        }
    }

    /// Records `n` identical histogram observations in one shot —
    /// bucket, count, sum, and max land exactly as `n` calls to
    /// [`Telemetry::observe`] would. This is how the stationary engine
    /// accumulates per-step occupancy metrics whose value is constant
    /// across a whole fold without visiting every step. No-op when
    /// disabled or when `n == 0`.
    #[inline]
    pub fn observe_n(&self, hist: Hist, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        if let Some(reg) = &self.inner {
            reg.hists[hist as usize].observe_n(value, n);
        }
    }

    /// A point-in-time copy of the registry. Disabled handles return a
    /// snapshot with `enabled = false` and every histogram empty.
    #[must_use]
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let hists = Hist::ALL
            .iter()
            .enumerate()
            .map(|(hi, &h)| {
                let (count, sum, max, buckets) = self.inner.as_ref().map_or_else(
                    || (0, 0, 0, vec![0; HIST_BUCKETS]),
                    |reg| {
                        let cells = &reg.hists[hi];
                        (
                            cells.count.load(Ordering::Relaxed),
                            cells.sum.load(Ordering::Relaxed),
                            cells.max.load(Ordering::Relaxed),
                            cells.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
                        )
                    },
                );
                HistSummary { name: h.name(), count, sum, max, buckets }
            })
            .collect();
        TelemetrySnapshot { enabled: self.is_enabled(), hists }
    }
}

/// One histogram, flattened for reporting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSummary {
    /// Stable metric name.
    pub name: &'static str,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Largest observed value.
    pub max: u64,
    /// Occupancy per power-of-two bucket (see [`Hist`]).
    pub buckets: Vec<u64>,
}

impl HistSummary {
    /// Mean observed value (0.0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        {
            self.sum as f64 / self.count as f64
        }
    }
}

/// A point-in-time copy of every histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetrySnapshot {
    /// Whether the source handle was recording.
    pub enabled: bool,
    /// One summary per histogram, in [`Hist::ALL`] order.
    pub hists: Vec<HistSummary>,
}

impl TelemetrySnapshot {
    /// Looks a histogram up by name.
    #[must_use]
    pub fn hist(&self, name: &str) -> Option<&HistSummary> {
        self.hists.iter().find(|h| h.name == name)
    }

    /// Renders the snapshot as a JSON object (hand-rolled; the workspace
    /// has no serde). Stable key order, so identical runs render
    /// byte-identically.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"enabled\": {},\n", self.enabled));
        out.push_str("  \"histograms\": [\n");
        for (i, h) in self.hists.iter().enumerate() {
            let nonzero: Vec<String> = h
                .buckets
                .iter()
                .enumerate()
                .filter(|(_, &n)| n > 0)
                .map(|(bi, &n)| format!("{{\"ge\": {}, \"count\": {n}}}", bucket_floor(bi)))
                .collect();
            out.push_str(&format!(
                "    {{\"name\": {}, \"count\": {}, \"sum\": {}, \"max\": {}, \
                 \"mean\": {:.3}, \"buckets\": [{}]}}{}\n",
                quote(h.name),
                h.count,
                h.sum,
                h.max,
                h.mean(),
                nonzero.join(", "),
                if i + 1 < self.hists.len() { "," } else { "" },
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing() {
        let t = Telemetry::off();
        assert!(!t.is_enabled());
        t.observe(Hist::MulticastFanout, 3);
        t.observe_n(Hist::StreamStepCycles, 2, 4);
        let snap = t.snapshot();
        assert!(!snap.enabled);
        assert_eq!(snap.hist("stream_step_cycles").unwrap().count, 0);
        assert_eq!(snap.hist("multicast_fanout").unwrap().count, 0);
    }

    #[test]
    fn histograms_accumulate_across_clones() {
        let t = Telemetry::enabled();
        let u = t.clone();
        t.observe(Hist::MulticastFanout, 2);
        u.observe(Hist::MulticastFanout, 3);
        let h = t.snapshot().hist("multicast_fanout").unwrap().clone();
        assert_eq!((h.count, h.sum, h.max), (2, 5, 3));
    }

    #[test]
    fn histogram_buckets_and_moments() {
        let t = Telemetry::enabled();
        for v in [0u64, 1, 2, 3, 4, 8, 100] {
            t.observe(Hist::StreamStepCycles, v);
        }
        let snap = t.snapshot();
        let h = snap.hist("stream_step_cycles").unwrap();
        assert_eq!(h.count, 7);
        assert_eq!(h.sum, 118);
        assert_eq!(h.max, 100);
        assert!((h.mean() - 118.0 / 7.0).abs() < 1e-9);
        assert_eq!(h.buckets[0], 1); // the zero
        assert_eq!(h.buckets[1], 1); // 1
        assert_eq!(h.buckets[2], 1); // 2
        assert_eq!(h.buckets[3], 2); // 3..=4
        assert_eq!(h.buckets[4], 1); // 5..=8
        assert_eq!(h.buckets[8], 1); // 65..=128
    }

    #[test]
    fn observe_n_is_equivalent_to_n_observes() {
        let batched = Telemetry::enabled();
        let looped = Telemetry::enabled();
        for (value, n) in [(0u64, 3u64), (1, 7), (4, 2), (100, 5), (13, 0)] {
            batched.observe_n(Hist::StreamStepCycles, value, n);
            for _ in 0..n {
                looped.observe(Hist::StreamStepCycles, value);
            }
        }
        let b = batched.snapshot();
        let l = looped.snapshot();
        assert_eq!(b.hist("stream_step_cycles"), l.hist("stream_step_cycles"));
    }

    #[test]
    fn bucket_edges() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 3);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(5), 4);
        assert_eq!(bucket_of(u64::MAX), HIST_BUCKETS - 1);
        assert_eq!(bucket_floor(0), 0);
        assert_eq!(bucket_floor(1), 1);
        assert_eq!(bucket_floor(3), 3);
        assert_eq!(bucket_floor(4), 5);
    }

    #[test]
    fn names_are_unique_and_snapshot_json_is_stable() {
        let names: Vec<&str> = Hist::ALL.iter().map(|h| h.name()).collect();
        let mut uniq = names.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), names.len());

        let t = Telemetry::enabled();
        t.observe(Hist::MulticastFanout, 2);
        let j1 = t.snapshot().to_json();
        let j2 = t.snapshot().to_json();
        assert_eq!(j1, j2);
        assert!(j1.contains("{\"name\": \"multicast_fanout\", \"count\": 1, \"sum\": 2"));
        assert!(!j1.contains("counters"));
    }
}
