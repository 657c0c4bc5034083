//! The shared experiment harness: one registry of [`Engine`]s, one sweep
//! driver, one record schema.
//!
//! Every figure module and binary used to carry its own per-engine
//! driving loop; they now all go through this module:
//!
//! * [`registry`] — the named fleet of functional engines (SIGMA plus
//!   all baselines) buildable by slug, for `sigma_cli --engine` and the
//!   cross-engine agreement tests;
//! * [`sweep`] — the parallel sweep driver: a workload suite fanned
//!   across engines on scoped threads, with deterministic per-workload
//!   seeding, results in a thread-count-independent order, and per-cell
//!   panic isolation (`status` column: `ok | error | panic`);
//! * [`cache`] — the run store, [`RunCache`]: fsynced, checksummed
//!   canonical-JSON lines keyed by verified 128-bit [`CellKey`]s, with
//!   tolerant replay, atomic compaction and LRU eviction; a lookup never
//!   blocks. It is both the cross-sweep cache behind `Sweep::with_cache`
//!   / `sigma_cli --cache` and, never evicting, the write-ahead journal
//!   behind `Sweep::resume` / `sigma_cli --resume`;
//! * [`flight`] — the flight-recorder event log (JSONL persistence for
//!   a sweep's wall-clock spans, stage latency histograms, and gauges)
//!   and the `sigma_cli report` builder that turns a log into a
//!   validated Perfetto trace plus per-stage and per-engine latency
//!   tables — the one place a sweep's wall time is read back;
//! * [`chaos`] — a deliberately panicking engine used to prove the
//!   sweep's panic isolation;
//! * [`record`] — the structured [`RunRecord`] row every sweep produces,
//!   rendered via [`Table`](crate::util::Table) (text/CSV) or JSON;
//! * [`analytic`] — [`SigmaAnalytic`], the best-dataflow analytic SIGMA
//!   model behind the same [`GemmAccelerator`] face as the analytic
//!   baselines, so figure modules stop re-deriving it;
//! * [`emit`] — the common figure-binary entry point (`--csv`, `--json`,
//!   `--quiet`).
//!
//! [`Engine`]: sigma_core::Engine
//! [`GemmAccelerator`]: sigma_baselines::GemmAccelerator

pub mod analytic;
pub mod cache;
pub mod chaos;
pub mod emit;
pub mod flight;
pub mod record;
pub mod registry;
pub mod sweep;

pub use analytic::{speedup_over, SigmaAnalytic};
pub use cache::{
    fnv1a_64, write_atomic, CacheStats, CellKey, RunCache, CELL_KEY_REVISION, STORE_SCHEMA,
};
pub use chaos::PanickingEngine;
pub use emit::{emit_tables, emit_tables_with};
pub use flight::{
    build_report, engine_table, parse_event_log, read_event_log, render_event_log, stage_table,
    write_event_log, EventLog, FlightReport, SnapSample, FLIGHT_SCHEMA,
};
pub use record::{records_table, records_to_json, RunRecord, RunStatus};
pub use registry::{default_registry, engine_by_name, engine_names, EngineEntry};
pub use sweep::{demo_suite, derive_seed, par_map, ResumeOutcome, Sweep, WorkloadSpec};
