//! End-to-end contract for the flight recorder (ISSUE 9 acceptance):
//! a ≥ 32-cell sweep recorded with an enabled recorder must round-trip
//! through the JSONL event log into a Perfetto trace that passes
//! `validate_chrome_trace`, its per-stage histogram counts must
//! reconcile with the sweep's own cell and cache counters, and a
//! disabled recorder must leave the sweep's outputs byte-identical.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sigma_bench::harness::{
    build_report, default_registry, demo_suite, read_event_log, records_table, records_to_json,
    write_event_log, RunCache, Sweep,
};
use sigma_telemetry::{FlightRecorder, Gauge, Stage};

/// A deterministic injected clock: strictly increasing, no wall time.
fn tick_clock() -> impl Fn() -> u64 + Send + Sync + 'static {
    let tick = Arc::new(AtomicU64::new(0));
    move || tick.fetch_add(13, Ordering::Relaxed)
}

#[test]
fn recorded_sweep_round_trips_into_a_validated_trace() {
    let workloads = demo_suite();
    let engines = default_registry();
    let cells = (engines.len() * workloads.len()) as u64;
    assert!(cells >= 32, "acceptance demands a >= 32-cell grid, got {cells}");

    let recorder = FlightRecorder::with_clock(65_536, tick_clock());
    let records = Sweep::new(workloads)
        .with_seed(7)
        .with_threads(2)
        .with_flight_recorder(recorder.clone())
        .run(&engines);
    assert_eq!(records.len() as u64, cells);

    let dir = std::env::temp_dir().join("sigma_flight_it");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("sweep.flight.jsonl");
    let flight = recorder.snapshot();
    write_event_log(&path, "flight integration", &flight, &[]).unwrap();

    let log = read_event_log(&path).unwrap();
    assert!(log.warnings.is_empty(), "clean log must parse warning-free: {:?}", log.warnings);
    assert_eq!(log.dropped_spans, 0, "65k-span capacity must hold a demo grid");

    // Per-stage counts reconcile with the sweep's own counters.
    let count = |s: Stage| log.stage(s).map_or(0, |h| h.count);
    assert_eq!(count(Stage::QueueWait), cells, "one queue-wait span per cell");
    assert_eq!(count(Stage::EngineRun), cells, "one engine-run span per executed cell");
    assert_eq!(count(Stage::CacheProbe), 0, "no cache attached, no probes");
    // The log carries the sweep's own tallies (none without a store) and
    // its stage histograms, not the simulator's registry.
    assert!(log.counters.is_empty(), "{:?}", log.counters);
    assert!(log.hists.iter().all(|h| Stage::ALL.iter().any(|s| s.name() == h.name)));

    // Gauges landed at the final grid state.
    assert_eq!(log.gauges.iter().find(|(n, _)| n == "cells_total").map(|(_, v)| *v), Some(cells));
    assert_eq!(
        log.gauges.iter().find(|(n, _)| n == "cells_completed").map(|(_, v)| *v),
        Some(cells)
    );
    assert!(!log.snaps.is_empty(), "execute() emits periodic gauge snapshots");

    // The rendered trace self-validates in build_report; spot-check shape.
    let report = build_report(&log).expect("trace must pass validate_chrome_trace");
    assert!(report.summary.span_count > 0);
    assert!(report.summary.counter_count as usize >= Gauge::ALL.len());
    let rendered = report.table.render();
    assert!(rendered.contains("engine_run"), "stage table lists every stage:\n{rendered}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cached_sweep_probes_reconcile_with_cache_stats() {
    let workloads = demo_suite();
    let engines = default_registry();

    let dir = std::env::temp_dir().join("sigma_flight_cache_it");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let recorder = FlightRecorder::with_clock(65_536, tick_clock());
    let cache = Arc::new(
        RunCache::open(&dir.join("cache.jsonl"), 256)
            .unwrap()
            .with_flight_recorder(recorder.clone()),
    );
    let sweep = Sweep::new(workloads)
        .with_seed(7)
        .with_flight_recorder(recorder.clone())
        .with_cache(Arc::clone(&cache));
    let cold = sweep.run(&engines);
    let warm = sweep.run(&engines);
    assert_eq!(records_to_json(&cold), records_to_json(&warm));

    let stats = cache.stats();
    let snap = recorder.snapshot();
    let count = |s: Stage| snap.stage(s.name()).map_or(0, |h| h.count);
    assert_eq!(
        count(Stage::CacheProbe),
        stats.hits + stats.misses,
        "every lookup outcome times exactly one probe span"
    );
    assert_eq!(count(Stage::CacheInsert), stats.insertions);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn disabled_recorder_leaves_outputs_byte_identical() {
    let workloads: Vec<_> = demo_suite().into_iter().take(2).collect();
    let engines = default_registry();
    let plain = Sweep::new(workloads.clone()).with_seed(7).run(&engines);
    let off = Sweep::new(workloads)
        .with_seed(7)
        .with_flight_recorder(FlightRecorder::off())
        .run(&engines);
    assert_eq!(plain, off);
    assert_eq!(records_to_json(&plain), records_to_json(&off));
    assert_eq!(
        records_table("flight parity", &plain).to_csv(),
        records_table("flight parity", &off).to_csv()
    );
}
