//! The harness flight recorder: wall-clock spans, per-stage latency
//! histograms, gauges, and a [`MetricsReport`] with JSON and Prometheus
//! text exposition.
//!
//! Simulated time (cycles, counters, Chrome traces of the epoch
//! scheduler) is covered by [`crate::registry`] and [`crate::perfetto`].
//! This module covers *wall-clock* time in the experiment harness: how
//! long a sweep cell waited in the queue, how long the engine ran, how
//! long a journal fsync or a cache probe took. Those latencies are
//! inherently nondeterministic, so the recorder never touches result
//! data — it feeds a side-channel event log and stderr only.
//!
//! # Clock injection and the D1 determinism contract
//!
//! `sigma-telemetry` is a determinism-critical crate: the `sigma-lint`
//! D1 rule bans `Instant`/`SystemTime` in its library code so that no
//! simulation result can ever depend on wall time. The recorder
//! therefore owns no clock. The harness edge (`sigma_cli`, which is
//! *not* determinism-critical) injects a monotonic microsecond closure
//! at construction, and every timestamp flows through it. Library code
//! stays clock-free; wall time enters in exactly one audited place.
//!
//! # Zero overhead when disabled
//!
//! [`FlightRecorder`] follows the [`crate::Telemetry`] handle design: a
//! disabled recorder is an `Option::None` and every recording call is an
//! inlined early return — no allocation, no atomics, no lock. This is
//! what makes it safe to leave compiled into the sweep hot path: with
//! the recorder off, sweep output is byte-identical to a build that
//! never heard of it (asserted by `perf_bench --recorder-check`).

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use crate::json::quote;
use crate::registry::{bucket_ceil, bucket_floor, bucket_of, HistCells, HIST_BUCKETS};
use crate::{HistSummary, TelemetrySnapshot};

/// Harness pipeline stages timed by the flight recorder.
///
/// Each stage owns one power-of-two latency histogram (microseconds)
/// and tags the spans recorded for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// A sweep cell waiting between sweep start and a worker claiming it.
    QueueWait,
    /// Lazy workload materialization (operand generation + reference).
    Materialize,
    /// One engine run on a cell.
    EngineRun,
    /// Run-store line write (a resume journal or a shared cache).
    JournalAppend,
    /// Run-store `sync_data` to stable storage.
    JournalFsync,
    /// Run-cache lookup (including any in-flight coalescing wait).
    CacheProbe,
    /// Run-cache insert (append + index update + amortized compaction).
    CacheInsert,
}

impl Stage {
    /// Every stage, in emission order.
    pub const ALL: [Stage; 7] = [
        Stage::QueueWait,
        Stage::Materialize,
        Stage::EngineRun,
        Stage::JournalAppend,
        Stage::JournalFsync,
        Stage::CacheProbe,
        Stage::CacheInsert,
    ];

    /// Stable snake_case name (JSONL/Prometheus key).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Stage::QueueWait => "queue_wait",
            Stage::Materialize => "materialize",
            Stage::EngineRun => "engine_run",
            Stage::JournalAppend => "journal_append",
            Stage::JournalFsync => "journal_fsync",
            Stage::CacheProbe => "cache_probe",
            Stage::CacheInsert => "cache_insert",
        }
    }

    /// Inverse of [`Stage::name`], for event-log readers.
    #[must_use]
    pub fn parse(name: &str) -> Option<Stage> {
        Stage::ALL.iter().copied().find(|s| s.name() == name)
    }
}

/// Instantaneous (non-monotonic) levels sampled by periodic snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gauge {
    /// Sweep cells completed so far.
    CellsCompleted,
    /// Total cells the sweep will run.
    CellsTotal,
    /// Entries resident in the run cache.
    CacheEntries,
}

impl Gauge {
    /// Every gauge, in emission order.
    pub const ALL: [Gauge; 3] = [Gauge::CellsCompleted, Gauge::CellsTotal, Gauge::CacheEntries];

    /// Stable snake_case name (JSONL/Prometheus key).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Gauge::CellsCompleted => "cells_completed",
            Gauge::CellsTotal => "cells_total",
            Gauge::CacheEntries => "cache_entries",
        }
    }

    /// Inverse of [`Gauge::name`], for event-log readers.
    #[must_use]
    pub fn parse(name: &str) -> Option<Gauge> {
        Gauge::ALL.iter().copied().find(|g| g.name() == name)
    }
}

/// One completed wall-clock span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// The pipeline stage this span timed.
    pub stage: Stage,
    /// Human label ("eie: dense 64", journal key prefix, ...).
    pub label: String,
    /// Recorder-local tag of the recording thread (dense, first-use order).
    pub thread: u64,
    /// Start, microseconds on the injected clock.
    pub start_us: u64,
    /// Duration, microseconds (saturating; never negative).
    pub dur_us: u64,
}

/// One periodic sample of every gauge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapRecord {
    /// Sample time, microseconds on the injected clock.
    pub ts_us: u64,
    /// `(name, value)` per gauge, in [`Gauge::ALL`] order.
    pub gauges: Vec<(&'static str, u64)>,
}

/// The injected monotonic clock: microseconds since an epoch the
/// harness picks (typically process start).
pub type Clock = Box<dyn Fn() -> u64 + Send + Sync>;

struct FlightInner {
    clock: Clock,
    capacity: usize,
    spans: Mutex<Vec<SpanRecord>>,
    dropped: AtomicU64,
    stages: [HistCells; Stage::ALL.len()],
    gauges: [AtomicU64; Gauge::ALL.len()],
    snaps: Mutex<Vec<SnapRecord>>,
    next_thread: AtomicU64,
}

impl std::fmt::Debug for FlightInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightInner")
            .field("capacity", &self.capacity)
            .field("dropped", &self.dropped.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

thread_local! {
    /// Recorder-assigned dense thread tag; `u64::MAX` means unassigned.
    /// Thread-local (not keyed by `std::thread::ThreadId`, which the D1
    /// lint bans here) so tags are small, dense integers usable directly
    /// as Perfetto track ids.
    static THREAD_TAG: Cell<u64> = const { Cell::new(u64::MAX) };
}

/// A cheaply cloneable wall-clock span/latency recorder.
///
/// Disabled (the default) every call is an inlined no-op; enabled it
/// shares one bounded span buffer, one latency histogram per [`Stage`],
/// and one cell per [`Gauge`] across all clones. See the module docs
/// for the clock-injection and zero-overhead contracts.
#[derive(Debug, Clone, Default)]
pub struct FlightRecorder {
    inner: Option<Arc<FlightInner>>,
}

impl FlightRecorder {
    /// A disabled handle: recording is a no-op, snapshots are empty.
    #[must_use]
    pub fn off() -> Self {
        Self { inner: None }
    }

    /// An enabled handle holding at most `capacity` spans (further spans
    /// still land in the stage histograms but are counted as dropped),
    /// timed by the injected monotonic microsecond `clock`.
    #[must_use]
    pub fn with_clock(capacity: usize, clock: impl Fn() -> u64 + Send + Sync + 'static) -> Self {
        Self {
            inner: Some(Arc::new(FlightInner {
                clock: Box::new(clock),
                capacity,
                spans: Mutex::new(Vec::new()),
                dropped: AtomicU64::new(0),
                stages: std::array::from_fn(|_| HistCells::new()),
                gauges: std::array::from_fn(|_| AtomicU64::new(0)),
                snaps: Mutex::new(Vec::new()),
                next_thread: AtomicU64::new(0),
            })),
        }
    }

    /// Whether recording does anything.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Current time on the injected clock, microseconds. Returns 0 when
    /// disabled so callers can unconditionally capture a start stamp.
    #[inline]
    #[must_use]
    pub fn now_us(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| (i.clock)())
    }

    /// The recording thread's dense tag, assigned on first use.
    fn thread_tag(inner: &FlightInner) -> u64 {
        THREAD_TAG.with(|c| {
            let tag = c.get();
            if tag != u64::MAX {
                return tag;
            }
            let tag = inner.next_thread.fetch_add(1, Ordering::Relaxed);
            c.set(tag);
            tag
        })
    }

    /// Records a completed span from `start_us` to `end_us` and lands
    /// its duration in the stage's latency histogram. The histogram
    /// always records; the span itself is dropped (and counted) once the
    /// bounded buffer is full. No-op when disabled.
    pub fn record_span(&self, stage: Stage, label: &str, start_us: u64, end_us: u64) {
        let Some(inner) = &self.inner else { return };
        let dur = end_us.saturating_sub(start_us);
        inner.stages[stage as usize].observe(dur);
        let mut spans = inner.spans.lock().unwrap_or_else(PoisonError::into_inner);
        if spans.len() >= inner.capacity {
            inner.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        spans.push(SpanRecord {
            stage,
            label: label.to_string(),
            thread: Self::thread_tag(inner),
            start_us,
            dur_us: dur,
        });
    }

    /// Records a span from `start_us` until now on the injected clock.
    pub fn span_since(&self, stage: Stage, label: &str, start_us: u64) {
        if self.inner.is_some() {
            self.record_span(stage, label, start_us, self.now_us());
        }
    }

    /// Sets a gauge to an absolute level. No-op when disabled.
    #[inline]
    pub fn gauge_set(&self, gauge: Gauge, value: u64) {
        if let Some(inner) = &self.inner {
            inner.gauges[gauge as usize].store(value, Ordering::Relaxed);
        }
    }

    /// Adds to a gauge. No-op when disabled.
    #[inline]
    pub fn gauge_add(&self, gauge: Gauge, by: u64) {
        if let Some(inner) = &self.inner {
            inner.gauges[gauge as usize].fetch_add(by, Ordering::Relaxed);
        }
    }

    /// Current gauge level (0 when disabled).
    #[must_use]
    pub fn gauge(&self, gauge: Gauge) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.gauges[gauge as usize].load(Ordering::Relaxed))
    }

    /// Samples every gauge at the current clock time. The sample series
    /// becomes Perfetto counter tracks in `sigma_cli report`. No-op when
    /// disabled.
    pub fn snap(&self) {
        let Some(inner) = &self.inner else { return };
        let ts_us = (inner.clock)();
        let gauges = Gauge::ALL
            .iter()
            .map(|&g| (g.name(), inner.gauges[g as usize].load(Ordering::Relaxed)))
            .collect();
        let mut snaps = inner.snaps.lock().unwrap_or_else(PoisonError::into_inner);
        if snaps.len() < inner.capacity {
            snaps.push(SnapRecord { ts_us, gauges });
        }
    }

    /// Spans rejected by the bounded buffer so far.
    #[must_use]
    pub fn dropped_spans(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.dropped.load(Ordering::Relaxed))
    }

    /// A point-in-time copy of everything recorded. Disabled handles
    /// return an empty snapshot with `enabled = false`.
    #[must_use]
    pub fn snapshot(&self) -> FlightSnapshot {
        let Some(inner) = &self.inner else {
            return FlightSnapshot {
                enabled: false,
                spans: Vec::new(),
                dropped_spans: 0,
                stages: Stage::ALL
                    .iter()
                    .map(|&s| HistSummary {
                        name: s.name(),
                        count: 0,
                        sum: 0,
                        max: 0,
                        buckets: vec![0; HIST_BUCKETS],
                    })
                    .collect(),
                gauges: Gauge::ALL.iter().map(|&g| (g.name(), 0)).collect(),
                snaps: Vec::new(),
            };
        };
        FlightSnapshot {
            enabled: true,
            spans: inner.spans.lock().unwrap_or_else(PoisonError::into_inner).clone(),
            dropped_spans: inner.dropped.load(Ordering::Relaxed),
            stages: Stage::ALL
                .iter()
                .map(|&s| inner.stages[s as usize].summary(s.name()))
                .collect(),
            gauges: Gauge::ALL
                .iter()
                .map(|&g| (g.name(), inner.gauges[g as usize].load(Ordering::Relaxed)))
                .collect(),
            snaps: inner.snaps.lock().unwrap_or_else(PoisonError::into_inner).clone(),
        }
    }
}

/// A point-in-time copy of a [`FlightRecorder`]'s state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightSnapshot {
    /// Whether the source recorder was recording.
    pub enabled: bool,
    /// Every retained span, in recording order.
    pub spans: Vec<SpanRecord>,
    /// Spans rejected by the bounded buffer.
    pub dropped_spans: u64,
    /// One latency summary per stage, in [`Stage::ALL`] order
    /// (microsecond values in power-of-two buckets).
    pub stages: Vec<HistSummary>,
    /// `(name, level)` per gauge, in [`Gauge::ALL`] order.
    pub gauges: Vec<(&'static str, u64)>,
    /// Periodic gauge samples, in recording order.
    pub snaps: Vec<SnapRecord>,
}

impl FlightSnapshot {
    /// Looks a stage latency summary up by name.
    #[must_use]
    pub fn stage(&self, name: &str) -> Option<&HistSummary> {
        self.stages.iter().find(|h| h.name == name)
    }

    /// Looks a gauge level up by name.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

/// One histogram inside a [`MetricsReport`], with an owned name so
/// reports can be rebuilt from parsed event logs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReportHist {
    /// Metric name (snake_case).
    pub name: String,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Largest observed value.
    pub max: u64,
    /// Occupancy per power-of-two bucket (same geometry as
    /// [`crate::Hist`]; the last bucket is open-ended).
    pub buckets: Vec<u64>,
}

impl ReportHist {
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

    /// Records one observation (used when rebuilding from raw samples).
    pub fn observe(&mut self, value: u64) {
        if self.buckets.len() < HIST_BUCKETS {
            self.buckets.resize(HIST_BUCKETS, 0);
        }
        self.buckets[bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }
}

impl From<&HistSummary> for ReportHist {
    fn from(h: &HistSummary) -> Self {
        ReportHist {
            name: h.name.to_string(),
            count: h.count,
            sum: h.sum,
            max: h.max,
            buckets: h.buckets.clone(),
        }
    }
}

/// A merged metrics view — counters, gauges, histograms — rendered as
/// JSON or Prometheus text exposition with deterministic (sorted-name)
/// ordering. This is the payload a future `sigma-serve` metrics
/// endpoint serves; today `sigma_cli report --metrics` prints it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsReport {
    /// `(name, value)` monotonic counters.
    pub counters: Vec<(String, u64)>,
    /// `(name, level)` gauges.
    pub gauges: Vec<(String, u64)>,
    /// Histograms (stage latencies and simulator histograms alike).
    pub hists: Vec<ReportHist>,
}

impl MetricsReport {
    /// Builds a report from a registry snapshot plus a flight snapshot:
    /// registry counters and histograms, flight gauges and stage
    /// latency histograms.
    #[must_use]
    pub fn from_snapshots(telemetry: &TelemetrySnapshot, flight: &FlightSnapshot) -> Self {
        let mut report = MetricsReport::default();
        for (name, v) in &telemetry.counters {
            report.counters.push(((*name).to_string(), *v));
        }
        for h in &telemetry.hists {
            report.hists.push(ReportHist::from(h));
        }
        for (name, v) in &flight.gauges {
            report.gauges.push(((*name).to_string(), *v));
        }
        for h in &flight.stages {
            report.hists.push(ReportHist::from(h));
        }
        report
    }

    /// Merges `other` into `self`: counters and histogram cells sum by
    /// name, gauges keep the elementwise maximum (the high-water mark —
    /// the meaningful combination for levels sampled over disjoint
    /// intervals). Names absent on either side are adopted. Merging an
    /// empty report is the identity.
    pub fn merge(&mut self, other: &MetricsReport) {
        for (name, v) in &other.counters {
            match self.counters.iter_mut().find(|(n, _)| n == name) {
                Some((_, mine)) => *mine = mine.saturating_add(*v),
                None => self.counters.push((name.clone(), *v)),
            }
        }
        for (name, v) in &other.gauges {
            match self.gauges.iter_mut().find(|(n, _)| n == name) {
                Some((_, mine)) => *mine = (*mine).max(*v),
                None => self.gauges.push((name.clone(), *v)),
            }
        }
        for h in &other.hists {
            match self.hists.iter_mut().find(|mine| mine.name == h.name) {
                Some(mine) => {
                    mine.count += h.count;
                    mine.sum = mine.sum.saturating_add(h.sum);
                    mine.max = mine.max.max(h.max);
                    if mine.buckets.len() < h.buckets.len() {
                        mine.buckets.resize(h.buckets.len(), 0);
                    }
                    for (b, add) in mine.buckets.iter_mut().zip(&h.buckets) {
                        *b += add;
                    }
                }
                None => self.hists.push(h.clone()),
            }
        }
    }

    /// A copy with counters, gauges, and histograms sorted by name —
    /// the canonical order every exporter uses.
    #[must_use]
    pub fn sorted(&self) -> MetricsReport {
        let mut s = self.clone();
        s.counters.sort_by(|a, b| a.0.cmp(&b.0));
        s.gauges.sort_by(|a, b| a.0.cmp(&b.0));
        s.hists.sort_by(|a, b| a.name.cmp(&b.name));
        s
    }

    /// Renders the report as a JSON object (hand-rolled; the workspace
    /// has no serde). Entries are sorted by name, so two reports with
    /// the same content render byte-identically regardless of insertion
    /// order.
    #[must_use]
    pub fn to_json(&self) -> String {
        let s = self.sorted();
        let mut out = String::from("{\n  \"counters\": {");
        for (i, (name, v)) in s.counters.iter().enumerate() {
            out.push_str(&format!("{}{}: {v}", if i == 0 { "" } else { ", " }, quote(name)));
        }
        out.push_str("},\n  \"gauges\": {");
        for (i, (name, v)) in s.gauges.iter().enumerate() {
            out.push_str(&format!("{}{}: {v}", if i == 0 { "" } else { ", " }, quote(name)));
        }
        out.push_str("},\n  \"histograms\": [\n");
        for (i, h) in s.hists.iter().enumerate() {
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
                quote(&h.name),
                h.count,
                h.sum,
                h.max,
                h.mean(),
                nonzero.join(", "),
                if i + 1 < s.hists.len() { "," } else { "" },
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Renders the report in the Prometheus text exposition format
    /// (version 0.0.4): `sigma_`-prefixed families sorted by name,
    /// histograms as cumulative `_bucket{le="..."}` series with `_sum`
    /// and `_count`.
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        let s = self.sorted();
        let mut out = String::new();
        for (name, v) in &s.counters {
            out.push_str(&format!("# TYPE sigma_{name} counter\nsigma_{name} {v}\n"));
        }
        for (name, v) in &s.gauges {
            out.push_str(&format!("# TYPE sigma_{name} gauge\nsigma_{name} {v}\n"));
        }
        for h in &s.hists {
            let name = &h.name;
            out.push_str(&format!("# TYPE sigma_{name} histogram\n"));
            let mut cumulative = 0u64;
            for (bi, &n) in h.buckets.iter().enumerate() {
                cumulative += n;
                let le = if bi + 1 == h.buckets.len() {
                    "+Inf".to_string()
                } else {
                    bucket_ceil(bi).map_or_else(|| "+Inf".to_string(), |c| c.to_string())
                };
                out.push_str(&format!("sigma_{name}_bucket{{le=\"{le}\"}} {cumulative}\n"));
            }
            out.push_str(&format!("sigma_{name}_sum {}\n", h.sum));
            out.push_str(&format!("sigma_{name}_count {}\n", h.count));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Telemetry;

    /// A deterministic test clock ticking 10µs per call.
    fn ticking() -> FlightRecorder {
        let t = Arc::new(AtomicU64::new(0));
        FlightRecorder::with_clock(1024, move || t.fetch_add(10, Ordering::Relaxed))
    }

    #[test]
    fn stage_and_gauge_names_are_unique_and_parse_roundtrips() {
        let mut names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        names.extend(Gauge::ALL.iter().map(|g| g.name()));
        let mut uniq = names.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), names.len());
        for s in Stage::ALL {
            assert_eq!(Stage::parse(s.name()), Some(s));
        }
        for g in Gauge::ALL {
            assert_eq!(Gauge::parse(g.name()), Some(g));
        }
        assert_eq!(Stage::parse("nope"), None);
        assert_eq!(Gauge::parse("nope"), None);
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let r = FlightRecorder::off();
        assert!(!r.is_enabled());
        assert_eq!(r.now_us(), 0);
        r.record_span(Stage::EngineRun, "x", 0, 5);
        r.span_since(Stage::CacheProbe, "y", 0);
        r.gauge_set(Gauge::CellsTotal, 7);
        r.gauge_add(Gauge::CellsCompleted, 1);
        r.snap();
        assert_eq!(r.gauge(Gauge::CellsTotal), 0);
        assert_eq!(r.dropped_spans(), 0);
        let snap = r.snapshot();
        assert!(!snap.enabled);
        assert!(snap.spans.is_empty());
        assert!(snap.snaps.is_empty());
        assert_eq!(snap.stage("engine_run").map(|h| h.count), Some(0));
        assert_eq!(snap.gauge("cells_total"), Some(0));
    }

    #[test]
    fn spans_land_in_stage_histograms_at_bucket_boundaries() {
        let r = ticking();
        // Durations 0, 1, bucket-edge pair around 2^15, and u64::MAX.
        for dur in [0u64, 1, 1 << 15, (1 << 15) + 1, u64::MAX] {
            r.record_span(Stage::EngineRun, "cell", 0, dur);
        }
        let snap = r.snapshot();
        let h = snap.stage("engine_run").unwrap();
        assert_eq!(h.count, 5);
        assert_eq!(h.max, u64::MAX);
        assert_eq!(h.buckets[0], 1); // 0
        assert_eq!(h.buckets[1], 1); // 1
        assert_eq!(h.buckets[16], 1); // 2^15 closes bucket 16
        assert_eq!(h.buckets[17], 2); // 2^15 + 1 and u64::MAX both open-ended
        assert_eq!(snap.stage("cache_probe").unwrap().count, 0);
    }

    #[test]
    fn span_buffer_is_bounded_but_histograms_keep_counting() {
        let t = Arc::new(AtomicU64::new(0));
        let r = FlightRecorder::with_clock(2, move || t.fetch_add(1, Ordering::Relaxed));
        for i in 0..5u64 {
            r.record_span(Stage::JournalAppend, "a", i, i + 1);
        }
        let snap = r.snapshot();
        assert_eq!(snap.spans.len(), 2);
        assert_eq!(snap.dropped_spans, 3);
        assert_eq!(r.dropped_spans(), 3);
        assert_eq!(snap.stage("journal_append").unwrap().count, 5);
    }

    #[test]
    fn span_since_uses_injected_clock_and_saturates() {
        let r = ticking();
        let t0 = r.now_us(); // 0
        r.span_since(Stage::CacheProbe, "probe", t0); // now = 10
        r.record_span(Stage::CacheProbe, "clamped", 50, 20); // end < start
        let snap = r.snapshot();
        assert_eq!(snap.spans[0].start_us, 0);
        assert_eq!(snap.spans[0].dur_us, 10);
        assert_eq!(snap.spans[1].dur_us, 0);
    }

    #[test]
    fn threads_get_distinct_dense_tags() {
        let r = ticking();
        r.record_span(Stage::EngineRun, "main", 0, 1);
        let r2 = r.clone();
        std::thread::spawn(move || r2.record_span(Stage::EngineRun, "worker", 0, 1))
            .join()
            .unwrap();
        let snap = r.snapshot();
        assert_eq!(snap.spans.len(), 2);
        assert_ne!(snap.spans[0].thread, snap.spans[1].thread);
    }

    #[test]
    fn gauges_and_snaps_sample_current_levels() {
        let r = ticking();
        r.gauge_set(Gauge::CellsTotal, 32);
        r.gauge_add(Gauge::CellsCompleted, 3);
        r.snap();
        r.gauge_add(Gauge::CellsCompleted, 4);
        r.snap();
        assert_eq!(r.gauge(Gauge::CellsCompleted), 7);
        let snap = r.snapshot();
        assert_eq!(snap.snaps.len(), 2);
        assert!(snap.snaps[0].ts_us < snap.snaps[1].ts_us);
        let find = |s: &SnapRecord, n: &str| {
            s.gauges.iter().find(|(g, _)| *g == n).map(|(_, v)| *v).unwrap()
        };
        assert_eq!(find(&snap.snaps[0], "cells_completed"), 3);
        assert_eq!(find(&snap.snaps[1], "cells_completed"), 7);
        assert_eq!(find(&snap.snaps[1], "cells_total"), 32);
        assert_eq!(snap.gauge("cells_completed"), Some(7));
    }

    #[test]
    fn metrics_report_orders_deterministically() {
        // Same content, opposite insertion order.
        let mut a = MetricsReport::default();
        a.counters.push(("zeta".into(), 1));
        a.counters.push(("alpha".into(), 2));
        a.gauges.push(("g2".into(), 9));
        a.gauges.push(("g1".into(), 8));
        a.hists.push(ReportHist {
            name: "late".into(),
            count: 1,
            sum: 4,
            max: 4,
            buckets: vec![0, 0, 0, 1],
        });
        a.hists.push(ReportHist {
            name: "early".into(),
            count: 0,
            sum: 0,
            max: 0,
            buckets: vec![],
        });
        let b = MetricsReport {
            counters: a.counters.iter().rev().cloned().collect(),
            gauges: a.gauges.iter().rev().cloned().collect(),
            hists: a.hists.iter().rev().cloned().collect(),
        };
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.to_prometheus(), b.to_prometheus());
        let json = a.to_json();
        assert!(json.find("\"alpha\": 2").unwrap() < json.find("\"zeta\": 1").unwrap());
        assert!(json.find("\"early\"").unwrap() < json.find("\"late\"").unwrap());
        let prom = a.to_prometheus();
        assert!(prom.find("sigma_g1 8").unwrap() < prom.find("sigma_g2 9").unwrap());
    }

    /// Names read from an event log reach the JSON export: a counter,
    /// gauge or histogram named with a quote and a backslash must still
    /// render a document the shared parser reads back name for name.
    #[test]
    fn report_json_escapes_names() {
        let odd = "a\"b\\c";
        let report = MetricsReport {
            counters: vec![(odd.to_string(), 1)],
            gauges: vec![(odd.to_string(), 2)],
            hists: vec![ReportHist {
                name: odd.to_string(),
                count: 1,
                sum: 3,
                max: 3,
                buckets: vec![0, 0, 1],
            }],
        };
        let doc = crate::json::parse(&report.to_json()).unwrap();
        let member = |section: &str| doc.get(section).unwrap().as_object().unwrap()[0].0.clone();
        assert_eq!(member("counters"), odd);
        assert_eq!(member("gauges"), odd);
        let hist = &doc.get("histograms").unwrap().as_array().unwrap()[0];
        assert_eq!(hist.get("name").unwrap().as_str(), Some(odd));
    }

    #[test]
    fn prometheus_histograms_are_cumulative_with_inf_tail() {
        let tele = Telemetry::off();
        let r = ticking();
        for dur in [0u64, 1, 1, 3] {
            r.record_span(Stage::CacheProbe, "p", 0, dur);
        }
        let report = MetricsReport::from_snapshots(&tele.snapshot(), &r.snapshot());
        let prom = report.to_prometheus();
        assert!(prom.contains("# TYPE sigma_cache_probe histogram"));
        assert!(prom.contains("sigma_cache_probe_bucket{le=\"0\"} 1"));
        assert!(prom.contains("sigma_cache_probe_bucket{le=\"1\"} 3"));
        assert!(prom.contains("sigma_cache_probe_bucket{le=\"4\"} 4"));
        assert!(prom.contains("sigma_cache_probe_bucket{le=\"+Inf\"} 4"));
        assert!(prom.contains("sigma_cache_probe_sum 5"));
        assert!(prom.contains("sigma_cache_probe_count 4"));
    }

    #[test]
    fn empty_report_merge_is_identity_both_ways() {
        let tele = Telemetry::enabled();
        tele.add(crate::Counter::CacheHits, 5);
        let r = ticking();
        r.record_span(Stage::EngineRun, "x", 0, 7);
        r.gauge_set(Gauge::CellsTotal, 3);
        let full = MetricsReport::from_snapshots(&tele.snapshot(), &r.snapshot());
        let empty = MetricsReport::from_snapshots(
            &Telemetry::off().snapshot(),
            &FlightRecorder::off().snapshot(),
        );

        // full ∪ empty == full (counters/hists sum with zeros, gauges max
        // with zeros).
        let mut merged = full.clone();
        merged.merge(&empty);
        assert_eq!(merged.to_json(), full.to_json());
        assert_eq!(merged.to_prometheus(), full.to_prometheus());

        // empty ∪ full == full, modulo nothing: same rendering.
        let mut other = empty.clone();
        other.merge(&full);
        assert_eq!(other.to_json(), full.to_json());

        // A default (no families at all) merge adopts everything.
        let mut blank = MetricsReport::default();
        blank.merge(&full);
        assert_eq!(blank.to_json(), full.to_json());
    }

    #[test]
    fn merge_sums_counters_and_hists_and_maxes_gauges() {
        let mk = |hits: u64, dur: u64, done: u64| {
            let tele = Telemetry::enabled();
            tele.add(crate::Counter::CacheHits, hits);
            let r = ticking();
            r.record_span(Stage::EngineRun, "x", 0, dur);
            r.gauge_set(Gauge::CellsCompleted, done);
            MetricsReport::from_snapshots(&tele.snapshot(), &r.snapshot())
        };
        let mut a = mk(2, 4, 5);
        let b = mk(3, 4, 1);
        a.merge(&b);
        assert!(a.to_json().contains("\"cache_hits\": 5"));
        assert!(a.to_json().contains("\"cells_completed\": 5"));
        let h = a.hists.iter().find(|h| h.name == "engine_run").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 8);
        assert_eq!(h.buckets[bucket_of(4)], 2);
    }

    #[test]
    fn report_hist_observe_matches_hist_cells() {
        let mut rh = ReportHist { name: "x".into(), count: 0, sum: 0, max: 0, buckets: Vec::new() };
        let cells = HistCells::new();
        for v in [0u64, 1, 5, 1 << 12, u64::MAX] {
            rh.observe(v);
            cells.observe(v);
        }
        let summary = cells.summary("x");
        assert_eq!(rh.count, summary.count);
        assert_eq!(rh.max, summary.max);
        assert_eq!(rh.buckets, summary.buckets);
    }
}
