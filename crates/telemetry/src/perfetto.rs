//! Chrome trace-event JSON export (loadable in `ui.perfetto.dev` or
//! `chrome://tracing`) plus a validator that reads it back.
//!
//! The builder emits the JSON object form of the trace-event format:
//! `{"traceEvents": [...]}` with `"M"` metadata events naming the
//! process/threads, `"X"` complete events for spans (one simulated cycle
//! maps to one microsecond of trace time, so durations read directly as
//! cycles), and `"C"` counter events for metric timelines. One event per
//! line keeps the document diffable; the validator parses it whole with
//! the shared [`json`] codec.

use crate::json::{self, quote, Json};
use std::collections::BTreeMap;

/// One buffered trace event, rendered lazily by [`ChromeTrace::to_json`].
#[derive(Debug, Clone, PartialEq)]
enum Event {
    /// `"M"` thread_name metadata.
    ThreadName { tid: u64, name: String },
    /// `"X"` complete event: a span on a thread track.
    Span { tid: u64, name: String, ts: u64, dur: u64 },
    /// `"C"` counter sample.
    Counter { name: String, ts: u64, value: u64 },
}

/// A Chrome trace-event JSON document under construction.
///
/// All events share one process (`pid` 1) named at construction; spans
/// land on numbered threads that [`ChromeTrace::thread`] gives names
/// (Perfetto renders each named thread as its own track).
#[derive(Debug, Clone, PartialEq)]
pub struct ChromeTrace {
    process: String,
    events: Vec<Event>,
}

impl ChromeTrace {
    /// Starts an empty trace for a process with the given display name.
    #[must_use]
    pub fn new(process: impl Into<String>) -> Self {
        Self { process: process.into(), events: Vec::new() }
    }

    /// Names a thread track. Call once per `tid` before adding its spans.
    pub fn thread(&mut self, tid: u64, name: impl Into<String>) {
        self.events.push(Event::ThreadName { tid, name: name.into() });
    }

    /// Adds a complete ("X") span on thread `tid`, starting at `ts` and
    /// lasting `dur` (simulated cycles, rendered as microseconds).
    pub fn span(&mut self, tid: u64, name: impl Into<String>, ts: u64, dur: u64) {
        self.events.push(Event::Span { tid, name: name.into(), ts, dur });
    }

    /// Adds a counter ("C") sample.
    pub fn counter(&mut self, name: impl Into<String>, ts: u64, value: u64) {
        self.events.push(Event::Counter { name: name.into(), ts, value });
    }

    /// Number of buffered events (metadata included).
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace holds no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Renders the trace-event JSON document. One event per line (see the
    /// module docs); deterministic, so identical traces render
    /// byte-identically.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n\"traceEvents\": [\n");
        let mut lines: Vec<String> = Vec::with_capacity(self.events.len() + 1);
        lines.push(format!(
            "{{\"ph\": \"M\", \"pid\": 1, \"name\": \"process_name\", \
             \"args\": {{\"name\": {}}}}}",
            quote(&self.process)
        ));
        for e in &self.events {
            lines.push(match e {
                Event::ThreadName { tid, name } => format!(
                    "{{\"ph\": \"M\", \"pid\": 1, \"tid\": {tid}, \"name\": \"thread_name\", \
                     \"args\": {{\"name\": {}}}}}",
                    quote(name)
                ),
                Event::Span { tid, name, ts, dur } => format!(
                    "{{\"ph\": \"X\", \"pid\": 1, \"tid\": {tid}, \"ts\": {ts}, \"dur\": {dur}, \
                     \"name\": {}}}",
                    quote(name)
                ),
                Event::Counter { name, ts, value } => format!(
                    "{{\"ph\": \"C\", \"pid\": 1, \"ts\": {ts}, \"name\": {}, \
                     \"args\": {{\"value\": {value}}}}}",
                    quote(name)
                ),
            });
        }
        out.push_str(&lines.join(",\n"));
        out.push_str("\n],\n\"displayTimeUnit\": \"ms\"\n}\n");
        out
    }
}

/// What [`validate_chrome_trace`] extracts from an exported document.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSummary {
    /// Number of `"X"` span events.
    pub span_count: usize,
    /// Number of `"C"` counter samples.
    pub counter_count: usize,
    /// Summed span durations per named thread track.
    pub track_durations: Vec<(String, u64)>,
    /// Summed span durations over every track.
    pub total_duration: u64,
    /// Largest `ts + dur` seen (the trace horizon).
    pub end_ts: u64,
}

impl TraceSummary {
    /// Total span duration on one named track (None if the track is
    /// absent).
    #[must_use]
    pub fn track(&self, name: &str) -> Option<u64> {
        self.track_durations.iter().find(|(n, _)| n == name).map(|(_, d)| *d)
    }
}

/// Parses a document produced by [`ChromeTrace::to_json`] and checks
/// its schema: the `traceEvents` envelope is present, every event
/// carries a phase, spans carry `tid`/`ts`/`dur`/`name`, counters carry
/// a value, and every span's thread is named. Returns per-track
/// duration totals for cross-checking against `CycleStats`.
///
/// # Errors
///
/// Returns a message describing the first schema violation found.
pub fn validate_chrome_trace(doc: &str) -> Result<TraceSummary, String> {
    let doc = json::parse(doc)?;
    if doc.as_object().is_none() {
        return Err("document is not a JSON object".into());
    }
    let events =
        doc.get("traceEvents").and_then(Json::as_array).ok_or("missing \"traceEvents\" array")?;

    let mut thread_names: BTreeMap<u64, String> = BTreeMap::new();
    let mut per_tid: Vec<(u64, u64)> = Vec::new();
    let mut span_count = 0usize;
    let mut counter_count = 0usize;
    let mut total = 0u64;
    let mut end_ts = 0u64;

    for (i, event) in events.iter().enumerate() {
        let num = |key: &str, what: &str| {
            event.get(key).and_then(Json::number::<u64>).ok_or_else(|| format!("event {i}: {what}"))
        };
        let text = |key: &str, what: &str| {
            event.get(key).and_then(Json::as_str).ok_or_else(|| format!("event {i}: {what}"))
        };
        match text("ph", "lacks a phase")? {
            "M" => {
                if text("name", "metadata without name")? == "thread_name" {
                    let tid = num("tid", "thread_name lacks tid")?;
                    let display = event
                        .get("args")
                        .and_then(|a| a.get("name"))
                        .and_then(Json::as_str)
                        .ok_or(format!("event {i}: thread_name args lack a name"))?;
                    thread_names.insert(tid, display.to_string());
                }
            }
            "X" => {
                let tid = num("tid", "span lacks tid")?;
                let ts = num("ts", "span lacks ts")?;
                let dur = num("dur", "span lacks dur")?;
                text("name", "span lacks name")?;
                span_count += 1;
                total += dur;
                end_ts = end_ts.max(ts + dur);
                match per_tid.iter_mut().find(|(t, _)| *t == tid) {
                    Some((_, d)) => *d += dur,
                    None => per_tid.push((tid, dur)),
                }
            }
            "C" => {
                num("ts", "counter lacks ts")?;
                event
                    .get("args")
                    .and_then(|a| a.get("value"))
                    .and_then(Json::number::<u64>)
                    .ok_or(format!("event {i}: counter lacks value"))?;
                counter_count += 1;
            }
            other => return Err(format!("event {i}: unknown event phase {other:?}")),
        }
    }

    let mut track_durations = Vec::with_capacity(per_tid.len());
    for (tid, dur) in per_tid {
        let name = thread_names
            .get(&tid)
            .cloned()
            .ok_or(format!("span thread {tid} has no thread_name metadata"))?;
        track_durations.push((name, dur));
    }
    Ok(TraceSummary { span_count, counter_count, track_durations, total_duration: total, end_ts })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ChromeTrace {
        let mut ct = ChromeTrace::new("sigma");
        ct.thread(1, "phase: load");
        ct.thread(2, "phase: stream");
        ct.span(1, "fold 0", 0, 4);
        ct.span(2, "fold 0 step 0", 4, 2);
        ct.span(2, "fold 0 step 1", 6, 3);
        ct.counter("cycles: stream", 9, 5);
        ct
    }

    #[test]
    fn export_validates_and_sums_tracks() {
        let json = sample().to_json();
        let summary = validate_chrome_trace(&json).unwrap();
        assert_eq!(summary.span_count, 3);
        assert_eq!(summary.counter_count, 1);
        assert_eq!(summary.track("phase: load"), Some(4));
        assert_eq!(summary.track("phase: stream"), Some(5));
        assert_eq!(summary.track("phase: drain"), None);
        assert_eq!(summary.total_duration, 9);
        assert_eq!(summary.end_ts, 9);
    }

    #[test]
    fn export_is_deterministic_and_escaped() {
        let mut ct = ChromeTrace::new("quote\"back\\slash\nline");
        ct.thread(1, "t");
        ct.span(1, "s", 0, 1);
        let j = ct.to_json();
        assert_eq!(j, ct.to_json());
        assert!(j.contains("quote\\\"back\\\\slash\\nline"));
        validate_chrome_trace(&j).unwrap();
    }

    /// A thread name holding a quote must come back whole: the
    /// validator reads the document with the shared parser, not by
    /// scanning to the next quote character.
    #[test]
    fn quoted_thread_names_round_trip() {
        let mut ct = ChromeTrace::new("p");
        ct.thread(1, "a\"b");
        ct.thread(2, "back\\slash");
        ct.span(1, "s", 0, 3);
        ct.span(2, "t", 3, 4);
        let summary = validate_chrome_trace(&ct.to_json()).unwrap();
        assert_eq!(summary.track("a\"b"), Some(3));
        assert_eq!(summary.track("back\\slash"), Some(4));
    }

    #[test]
    fn empty_trace_still_validates() {
        let ct = ChromeTrace::new("empty");
        assert!(ct.is_empty());
        assert_eq!(ct.len(), 0);
        let summary = validate_chrome_trace(&ct.to_json()).unwrap();
        assert_eq!(summary.span_count, 0);
        assert_eq!(summary.total_duration, 0);
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{\"events\": []}").is_err());
        let missing_meta = "{\n\"traceEvents\": [\n\
            {\"ph\": \"X\", \"pid\": 1, \"tid\": 9, \"ts\": 0, \"dur\": 1, \"name\": \"s\"}\n\
            ],\n\"displayTimeUnit\": \"ms\"\n}\n";
        let err = validate_chrome_trace(missing_meta).unwrap_err();
        assert!(err.contains("thread 9"), "{err}");
        let bad_phase = "{\n\"traceEvents\": [\n{\"ph\": \"Q\", \"name\": \"s\"}\n],\n}";
        assert!(validate_chrome_trace(bad_phase).is_err());
    }

    #[test]
    fn zero_duration_spans_are_legal() {
        let mut ct = ChromeTrace::new("p");
        ct.thread(1, "t");
        ct.span(1, "empty load", 0, 0);
        let summary = validate_chrome_trace(&ct.to_json()).unwrap();
        assert_eq!(summary.span_count, 1);
        assert_eq!(summary.track("t"), Some(0));
    }
}
