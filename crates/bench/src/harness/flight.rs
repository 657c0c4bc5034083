//! Flight-recorder event log and report builder.
//!
//! A recorded sweep persists its [`FlightSnapshot`] (spans, stage
//! latency histograms, gauges, periodic snapshots) plus the telemetry
//! registry's counters as one append-friendly JSONL file, written
//! atomically through [`write_atomic`](crate::harness::cache::write_atomic)
//! so a crash can never leave a torn log (the same D6 contract as the
//! run store). `sigma_cli report --from PATH` reads the log back —
//! tolerantly, like store replay: damaged lines become warnings, not
//! errors — and converts it into a Chrome trace-event JSON (one track
//! per recorded worker thread; journal and cache activity on fixed
//! named tracks; gauge snapshots as counter series) that is
//! self-validated with [`validate_chrome_trace`] before it is written,
//! plus an aggregate per-stage latency table.
//!
//! Line kinds, one JSON object per line:
//!
//! | kind      | payload                                            |
//! |-----------|----------------------------------------------------|
//! | `meta`    | schema version, process name, dropped-span count   |
//! | `counter` | one telemetry-registry counter                     |
//! | `gauge`   | one gauge's final level                            |
//! | `hist`    | one histogram (stage latencies and simulator hists)|
//! | `snap`    | one periodic gauge sample                          |
//! | `span`    | one thread-tagged wall-clock span                  |

use crate::harness::cache::write_atomic;
use crate::util::Table;
use sigma_telemetry::json::{self, quote, Json};
use sigma_telemetry::{
    validate_chrome_trace, ChromeTrace, FlightSnapshot, MetricsReport, ReportHist, SpanRecord,
    Stage, TelemetrySnapshot, TraceSummary,
};
use std::path::Path;

/// Event-log schema version; bump on breaking layout changes.
pub const FLIGHT_SCHEMA: u32 = 1;

/// Fixed trace track for journal append/fsync spans.
const JOURNAL_TID: u64 = 1001;
/// Fixed trace track for cache probe/insert spans.
const CACHE_TID: u64 = 1002;

/// Renders the event log for one recorded run: meta line first, then
/// counters, gauges, histograms, snapshots, and spans, each on its own
/// line. Deterministic given the snapshots.
#[must_use]
pub fn render_event_log(
    process: &str,
    flight: &FlightSnapshot,
    telemetry: &TelemetrySnapshot,
) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{{\"kind\": \"meta\", \"schema\": {FLIGHT_SCHEMA}, \"process\": {}, \"dropped_spans\": {}}}\n",
        quote(process),
        flight.dropped_spans
    ));
    for (name, v) in &telemetry.counters {
        out.push_str(&format!(
            "{{\"kind\": \"counter\", \"name\": {}, \"value\": {v}}}\n",
            quote(name)
        ));
    }
    for (name, v) in &flight.gauges {
        out.push_str(&format!(
            "{{\"kind\": \"gauge\", \"name\": {}, \"value\": {v}}}\n",
            quote(name)
        ));
    }
    for h in telemetry
        .hists
        .iter()
        .map(ReportHist::from)
        .chain(flight.stages.iter().map(ReportHist::from))
    {
        let buckets: Vec<String> = h.buckets.iter().map(u64::to_string).collect();
        out.push_str(&format!(
            "{{\"kind\": \"hist\", \"name\": {}, \"count\": {}, \"sum\": {}, \"max\": {}, \"buckets\": [{}]}}\n",
            quote(&h.name),
            h.count,
            h.sum,
            h.max,
            buckets.join(", ")
        ));
    }
    for s in &flight.snaps {
        let gauges: Vec<String> =
            s.gauges.iter().map(|(n, v)| format!("{}: {v}", quote(n))).collect();
        out.push_str(&format!(
            "{{\"kind\": \"snap\", \"ts_us\": {}, \"gauges\": {{{}}}}}\n",
            s.ts_us,
            gauges.join(", ")
        ));
    }
    for sp in &flight.spans {
        out.push_str(&format!(
            "{{\"kind\": \"span\", \"stage\": {}, \"label\": {}, \"thread\": {}, \"start_us\": {}, \"dur_us\": {}}}\n",
            quote(sp.stage.name()),
            quote(&sp.label),
            sp.thread,
            sp.start_us,
            sp.dur_us
        ));
    }
    out
}

/// Writes the event log atomically (temp + sync + rename), so readers
/// and crash recovery never see a torn file.
///
/// # Errors
///
/// Propagates I/O errors from the atomic write.
pub fn write_event_log(
    path: &Path,
    process: &str,
    flight: &FlightSnapshot,
    telemetry: &TelemetrySnapshot,
) -> std::io::Result<()> {
    write_atomic(path, render_event_log(process, flight, telemetry).as_bytes())
}

/// One periodic gauge sample read back from an event log (the owned
/// mirror of [`sigma_telemetry::SnapRecord`], whose names are static).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapSample {
    /// Sample time, microseconds on the recording clock.
    pub ts_us: u64,
    /// `(name, level)` per gauge.
    pub gauges: Vec<(String, u64)>,
}

/// A parsed flight-recorder event log.
#[derive(Debug, Clone, Default)]
pub struct EventLog {
    /// Schema version from the meta line (0 when the meta line is lost).
    pub schema: u32,
    /// Process name from the meta line.
    pub process: String,
    /// Spans the recorder's bounded buffer rejected.
    pub dropped_spans: u64,
    /// Telemetry-registry counters.
    pub counters: Vec<(String, u64)>,
    /// Final gauge levels.
    pub gauges: Vec<(String, u64)>,
    /// Histograms (stage latencies and simulator histograms alike).
    pub hists: Vec<ReportHist>,
    /// Periodic gauge samples, in recording order.
    pub snaps: Vec<SnapSample>,
    /// Retained spans, in recording order.
    pub spans: Vec<SpanRecord>,
    /// Damaged or unknown lines, skipped with a note.
    pub warnings: Vec<String>,
}

impl EventLog {
    /// The per-stage latency histogram for `stage`, if recorded.
    #[must_use]
    pub fn stage(&self, stage: Stage) -> Option<&ReportHist> {
        self.hists.iter().find(|h| h.name == stage.name())
    }

    /// Rebuilds a [`MetricsReport`] (counters + gauges + histograms)
    /// from the parsed log, sorted for deterministic export.
    #[must_use]
    pub fn metrics_report(&self) -> MetricsReport {
        MetricsReport {
            counters: self.counters.clone(),
            gauges: self.gauges.clone(),
            hists: self.hists.clone(),
        }
        .sorted()
    }
}

/// Required u64 field on a parsed JSON object.
fn num(obj: &Json, name: &str) -> Result<u64, String> {
    obj.get(name)
        .ok_or_else(|| format!("missing field {name:?}"))?
        .number()
        .ok_or_else(|| format!("field {name:?} is not a u64"))
}

/// Required string field on a parsed JSON object.
fn text(obj: &Json, name: &str) -> Result<String, String> {
    Ok(obj
        .get(name)
        .ok_or_else(|| format!("missing field {name:?}"))?
        .as_str()
        .ok_or_else(|| format!("field {name:?} is not a string"))?
        .to_string())
}

/// Folds one parsed line into the log; the caller turns errors into
/// warnings so one bad line never loses the rest.
fn apply_line(log: &mut EventLog, line: &str) -> Result<(), String> {
    let obj = &json::parse(line)?;
    if obj.as_object().is_none() {
        return Err("line is not a JSON object".to_string());
    }
    match text(obj, "kind")?.as_str() {
        "meta" => {
            log.schema = u32::try_from(num(obj, "schema")?)
                .map_err(|_| "schema out of range".to_string())?;
            if log.schema != FLIGHT_SCHEMA {
                return Err(format!(
                    "unsupported schema {} (expected {FLIGHT_SCHEMA})",
                    log.schema
                ));
            }
            log.process = text(obj, "process")?;
            log.dropped_spans = num(obj, "dropped_spans")?;
        }
        "counter" => log.counters.push((text(obj, "name")?, num(obj, "value")?)),
        "gauge" => log.gauges.push((text(obj, "name")?, num(obj, "value")?)),
        "hist" => {
            let buckets = obj
                .get("buckets")
                .and_then(Json::as_array)
                .ok_or("buckets is not an array")?
                .iter()
                .map(|b| b.number().ok_or_else(|| "bucket is not a u64".to_string()))
                .collect::<Result<Vec<u64>, String>>()?;
            log.hists.push(ReportHist {
                name: text(obj, "name")?,
                count: num(obj, "count")?,
                sum: num(obj, "sum")?,
                max: num(obj, "max")?,
                buckets,
            });
        }
        "snap" => {
            let gauges = obj
                .get("gauges")
                .and_then(Json::as_object)
                .ok_or("gauges is not an object")?
                .iter()
                .map(|(name, v)| {
                    let v = v.number().ok_or_else(|| format!("gauge {name:?} is not a u64"))?;
                    Ok((name.clone(), v))
                })
                .collect::<Result<Vec<(String, u64)>, String>>()?;
            log.snaps.push(SnapSample { ts_us: num(obj, "ts_us")?, gauges });
        }
        "span" => {
            let stage_name = text(obj, "stage")?;
            let stage =
                Stage::parse(&stage_name).ok_or_else(|| format!("unknown stage {stage_name:?}"))?;
            log.spans.push(SpanRecord {
                stage,
                label: text(obj, "label")?,
                thread: num(obj, "thread")?,
                start_us: num(obj, "start_us")?,
                dur_us: num(obj, "dur_us")?,
            });
        }
        other => return Err(format!("unknown line kind {other:?}")),
    }
    Ok(())
}

/// Parses an event log, skipping damaged lines with a warning — the
/// same tolerance contract as run-store replay.
#[must_use]
pub fn parse_event_log(textual: &str) -> EventLog {
    let mut log = EventLog::default();
    for (i, line) in textual.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        if let Err(e) = apply_line(&mut log, line) {
            log.warnings.push(format!("line {}: {e}", i + 1));
        }
    }
    if log.schema == 0 {
        log.warnings.push("no valid meta line".to_string());
    }
    log
}

/// Reads and parses an event log from disk.
///
/// # Errors
///
/// Propagates I/O errors; a *damaged* log never errors — bad lines are
/// skipped with warnings.
pub fn read_event_log(path: &Path) -> std::io::Result<EventLog> {
    Ok(parse_event_log(&std::fs::read_to_string(path)?))
}

/// The fixed named track, if any, a stage's spans belong on; worker
/// stages return `None` and land on the recording thread's own track.
fn stage_track(stage: Stage) -> Option<(u64, &'static str)> {
    match stage {
        Stage::JournalAppend | Stage::JournalFsync => Some((JOURNAL_TID, "journal")),
        Stage::CacheProbe | Stage::CacheInsert => Some((CACHE_TID, "cache")),
        Stage::QueueWait | Stage::Materialize | Stage::EngineRun => None,
    }
}

/// What [`build_report`] produced from one event log.
#[derive(Debug, Clone)]
pub struct FlightReport {
    /// The Chrome trace-event JSON (already validated).
    pub trace_json: String,
    /// The validator's summary of that JSON.
    pub summary: TraceSummary,
    /// Aggregate per-stage latency table (one row per [`Stage`]).
    pub table: Table,
}

/// Converts a parsed event log into a validated Chrome trace plus the
/// per-stage latency table. Worker threads become one track each (in
/// first-span order); journal and cache spans go to fixed named
/// tracks; every periodic gauge sample becomes a counter event.
///
/// # Errors
///
/// Returns the validator's message if the built trace does not pass
/// [`validate_chrome_trace`] — a report is never written unvalidated.
pub fn build_report(log: &EventLog) -> Result<FlightReport, String> {
    let process = if log.process.is_empty() { "sigma flight" } else { &log.process };
    let mut trace = ChromeTrace::new(process);
    let mut workers: Vec<u64> = Vec::new();
    let mut named: Vec<u64> = Vec::new();
    for sp in &log.spans {
        let tid = match stage_track(sp.stage) {
            Some((tid, name)) => {
                if !named.contains(&tid) {
                    named.push(tid);
                    trace.thread(tid, name);
                }
                tid
            }
            None => {
                let idx = workers.iter().position(|t| *t == sp.thread).unwrap_or_else(|| {
                    workers.push(sp.thread);
                    let idx = workers.len() - 1;
                    trace.thread(1 + idx as u64, format!("worker {idx}"));
                    idx
                });
                1 + idx as u64
            }
        };
        let name = if sp.label.is_empty() {
            sp.stage.name().to_string()
        } else {
            format!("{}: {}", sp.stage.name(), sp.label)
        };
        trace.span(tid, name, sp.start_us, sp.dur_us);
    }
    for snap in &log.snaps {
        for (name, v) in &snap.gauges {
            trace.counter(name.clone(), snap.ts_us, *v);
        }
    }
    let trace_json = trace.to_json();
    let summary = validate_chrome_trace(&trace_json)?;
    Ok(FlightReport { trace_json, summary, table: stage_table(log) })
}

/// The aggregate per-stage latency table: one row per [`Stage`], in
/// [`Stage::ALL`] order, zero rows included so the shape is fixed.
#[must_use]
pub fn stage_table(log: &EventLog) -> Table {
    let mut table = Table::new("flight stages", &["stage", "count", "sum_us", "mean_us", "max_us"]);
    for stage in Stage::ALL {
        let (count, sum, mean, max) =
            log.stage(stage).map_or((0, 0, 0.0, 0), |h| (h.count, h.sum, h.mean(), h.max));
        table.push(vec![
            stage.name().to_string(),
            count.to_string(),
            sum.to_string(),
            format!("{mean:.1}"),
            max.to_string(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigma_telemetry::{Counter, FlightRecorder, Gauge, Telemetry};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn demo_recorder() -> FlightRecorder {
        let tick = Arc::new(AtomicU64::new(0));
        FlightRecorder::with_clock(128, move || tick.fetch_add(5, Ordering::Relaxed))
    }

    fn demo_snapshots() -> (FlightSnapshot, TelemetrySnapshot) {
        let recorder = demo_recorder();
        let t0 = recorder.now_us();
        recorder.span_since(Stage::Materialize, "dense 32", t0);
        let t1 = recorder.now_us();
        recorder.span_since(Stage::EngineRun, "eie: dense 32", t1);
        let t2 = recorder.now_us();
        recorder.span_since(Stage::JournalAppend, "dense 32", t2);
        let t3 = recorder.now_us();
        recorder.span_since(Stage::CacheProbe, "hit", t3);
        recorder.gauge_set(Gauge::CellsTotal, 4);
        recorder.gauge_set(Gauge::CellsCompleted, 2);
        recorder.snap();
        let registry = Telemetry::enabled();
        registry.add(Counter::CacheHits, 3);
        (recorder.snapshot(), registry.snapshot())
    }

    #[test]
    fn event_log_round_trips_through_render_and_parse() {
        let (flight, telemetry) = demo_snapshots();
        let log = parse_event_log(&render_event_log("sigma sweep", &flight, &telemetry));
        assert!(log.warnings.is_empty(), "{:?}", log.warnings);
        assert_eq!(log.schema, FLIGHT_SCHEMA);
        assert_eq!(log.process, "sigma sweep");
        assert_eq!(log.spans, flight.spans);
        assert_eq!(log.snaps.len(), 1);
        assert_eq!(log.stage(Stage::EngineRun).map_or(0, |h| h.count), 1);
        assert_eq!(log.counters.iter().find(|(n, _)| n == "cache_hits").map(|(_, v)| *v), Some(3));
        assert_eq!(log.gauges.iter().find(|(n, _)| n == "cells_total").map(|(_, v)| *v), Some(4));
        // The rebuilt metrics report exports cleanly both ways.
        let report = log.metrics_report();
        assert!(report.to_json().contains("\"cache_hits\": 3"));
        assert!(report.to_prometheus().contains("sigma_cache_hits 3"));
    }

    #[test]
    fn damaged_lines_become_warnings_not_errors() {
        let (flight, telemetry) = demo_snapshots();
        let mut textual = render_event_log("sigma sweep", &flight, &telemetry);
        textual.push_str("not json at all\n");
        textual.push_str("{\"kind\": \"mystery\", \"x\": 1}\n");
        textual.push_str("{\"kind\": \"span\", \"stage\": \"nonsense\", \"label\": \"x\", \"thread\": 0, \"start_us\": 0, \"dur_us\": 1}\n");
        let log = parse_event_log(&textual);
        assert_eq!(log.warnings.len(), 3, "{:?}", log.warnings);
        assert_eq!(log.spans, flight.spans, "intact lines all survive");
    }

    #[test]
    fn missing_meta_line_is_flagged() {
        let log =
            parse_event_log("{\"kind\": \"gauge\", \"name\": \"cells_total\", \"value\": 1}\n");
        assert_eq!(log.schema, 0);
        assert!(log.warnings.iter().any(|w| w.contains("meta")), "{:?}", log.warnings);
    }

    #[test]
    fn report_routes_stages_to_named_tracks_and_validates() {
        let (flight, telemetry) = demo_snapshots();
        let log = parse_event_log(&render_event_log("sigma sweep", &flight, &telemetry));
        let report = build_report(&log).unwrap();
        assert_eq!(report.summary.span_count, flight.spans.len());
        // One counter sample per gauge in the one snapshot.
        assert_eq!(report.summary.counter_count, Gauge::ALL.len());
        assert!(report.summary.track("journal").is_some(), "journal spans get a named track");
        assert!(report.summary.track("cache").is_some(), "cache spans get a named track");
        assert!(report.summary.track("worker 0").is_some(), "worker spans get a worker track");
        // The latency table has one row per stage, zeros included.
        assert_eq!(report.table.to_csv().lines().count(), 1 + Stage::ALL.len());
        assert!(report.table.to_csv().contains("engine_run,1,"));
    }

    #[test]
    fn write_event_log_is_atomic_and_readable() {
        let dir = std::env::temp_dir().join("sigma_flight_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("log_{}.flight.jsonl", std::process::id()));
        let (flight, telemetry) = demo_snapshots();
        write_event_log(&path, "sigma sweep", &flight, &telemetry).unwrap();
        let log = read_event_log(&path).unwrap();
        assert!(log.warnings.is_empty(), "{:?}", log.warnings);
        assert_eq!(log.spans, flight.spans);
        let _ = std::fs::remove_file(&path);
    }
}
