//! Lightweight observability for the SIGMA simulator: a histogram
//! registry (power-of-two-bucketed distributions), a Chrome
//! trace-event (Perfetto-loadable) JSON exporter, and a wall-clock
//! [`flight`] recorder (thread-tagged spans, per-stage latency
//! histograms, gauges, and a JSON/Prometheus [`MetricsReport`]) whose
//! clock is injected by the harness so library code stays
//! deterministic.
//!
//! The simulator's exact work counts are not here: they are plain fields
//! of each run's `CycleStats` in `sigma-core`, always on. The registry
//! follows the fault injector's zero-overhead-when-disabled
//! design: a [`Telemetry`] handle is an `Option<Arc<..>>` — a disabled
//! handle is a `None` and every recording call is an inlined early
//! return, so the hot simulation loops pay nothing when telemetry is off
//! (asserted by the counting-allocator test in `sigma-core` and the
//! `perf_bench --check` gate). An enabled handle records through
//! pre-sized `AtomicU64` arrays: recording takes `&self`, never
//! allocates, and is safe from the `Send + Sync` engine fleet.
//!
//! The workspace has no registry access (and no serde), so [`json`]
//! holds its one JSON codec — value type, parser and string escaper —
//! which the exporters here, the bench harness and the linter share.

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

pub mod flight;
pub mod json;
pub mod perfetto;
pub mod registry;

pub use flight::{
    FlightRecorder, FlightSnapshot, Gauge, MetricsReport, ReportHist, SnapRecord, SpanRecord, Stage,
};
pub use perfetto::{validate_chrome_trace, ChromeTrace, TraceSummary};
pub use registry::{Hist, HistSummary, Telemetry, TelemetrySnapshot};
