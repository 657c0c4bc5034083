//! Sweep-level telemetry aggregation: the `telemetry_summary.json`
//! artifact a recorded sweep drops next to its CSV.
//!
//! The summary is a pure fold over the sweep's [`RunRecord`]s — status,
//! the operand-footprint proxy and cycles — plus the flight recorder's
//! [`FlightSnapshot`], the sweep's one wall clock. Records carry no wall
//! time, so every timing field comes from the recorder's `engine_run`
//! stage: the totals from its histogram (complete even when the span
//! buffer overflowed), the per-cell attribution from the retained spans,
//! matched to records by the `"{slug}: {workload}"` label the sweep gives
//! them. Like every other artifact in the harness it is rendered with
//! hand-rolled JSON in a fixed key order.

use crate::harness::record::{RunRecord, RunStatus};
use sigma_telemetry::json::quote;
use sigma_telemetry::{FlightSnapshot, Stage};
use std::collections::HashMap;

/// Aggregate profile of one engine across all its sweep cells.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EngineProfile {
    /// Registry slug of the engine.
    pub slug: String,
    /// Cells the engine ran (one per workload).
    pub cells: usize,
    /// Cells that terminated `ok`.
    pub ok: usize,
    /// Summed retained `engine_run` span time of the engine's cells, in
    /// milliseconds (cache and journal hits run no engine and add 0).
    pub wall_ms: f64,
    /// Summed total cycles over the engine's `ok` cells.
    pub total_cycles: u64,
}

/// Aggregate profile of a whole sweep, built by [`SweepProfile::new`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SweepProfile {
    /// Total (engine, workload) cells.
    pub cells: usize,
    /// Cells that terminated `ok`.
    pub ok: usize,
    /// Cells the engine refused with an error.
    pub errors: usize,
    /// Cells that panicked.
    pub panics: usize,
    /// Summed engine-run time across the sweep, in milliseconds (the
    /// `engine_run` histogram's sum).
    pub total_wall_ms: f64,
    /// Longest single engine run, in milliseconds (the `engine_run`
    /// histogram's max).
    pub max_wall_ms: f64,
    /// Label (`"<engine_slug>: <workload>"`) of the longest retained
    /// `engine_run` span (empty when none was retained).
    pub slowest_cell: String,
    /// Spans the recorder's bounded buffer rejected. When non-zero, the
    /// span-derived fields (`slowest_cell`, per-engine `wall_ms`) cover
    /// only the retained spans; the histogram totals stay complete.
    pub dropped_spans: u64,
    /// Largest per-cell operand-footprint estimate, in bytes.
    pub peak_mem_est_bytes: u64,
    /// Per-engine aggregates, in order of first appearance (engine-major
    /// sweeps keep this equal to fleet order).
    pub engines: Vec<EngineProfile>,
}

/// Microseconds on the recorder's clock to milliseconds.
fn ms(us: u64) -> f64 {
    us as f64 / 1e3
}

impl SweepProfile {
    /// Folds a sweep's records and its flight recorder's snapshot into
    /// an aggregate profile. A disabled recorder's snapshot leaves every
    /// timing field zero.
    #[must_use]
    pub fn new(records: &[RunRecord], flight: &FlightSnapshot) -> Self {
        let mut profile = SweepProfile { dropped_spans: flight.dropped_spans, ..Self::default() };
        if let Some(h) = flight.stage(Stage::EngineRun.name()) {
            profile.total_wall_ms = ms(h.sum);
            profile.max_wall_ms = ms(h.max);
        }
        // Retained engine-run time per cell label; the first longest
        // span names the slowest cell.
        let engine_runs = || flight.spans.iter().filter(|s| s.stage == Stage::EngineRun);
        let mut cell_us: HashMap<&str, u64> = HashMap::new();
        for span in engine_runs() {
            *cell_us.entry(span.label.as_str()).or_default() += span.dur_us;
        }
        if let Some(span) = engine_runs().rev().max_by_key(|s| s.dur_us) {
            profile.slowest_cell.clone_from(&span.label);
        }
        for r in records {
            profile.cells += 1;
            match r.status {
                RunStatus::Ok => profile.ok += 1,
                RunStatus::Error => profile.errors += 1,
                RunStatus::Panic => profile.panics += 1,
            }
            profile.peak_mem_est_bytes = profile.peak_mem_est_bytes.max(r.mem_est_bytes);

            let idx = match profile.engines.iter().position(|e| e.slug == r.engine_slug) {
                Some(i) => i,
                None => {
                    let slug = r.engine_slug.clone();
                    profile.engines.push(EngineProfile { slug, ..EngineProfile::default() });
                    profile.engines.len() - 1
                }
            };
            let engine = &mut profile.engines[idx];
            engine.cells += 1;
            // Taken, not read: duplicate cells share a label, and their
            // spans are counted once.
            let label = format!("{}: {}", r.engine_slug, r.workload);
            engine.wall_ms += ms(cell_us.remove(label.as_str()).unwrap_or(0));
            if r.status == RunStatus::Ok {
                engine.ok += 1;
                engine.total_cycles += r.total_cycles;
            }
        }
        profile
    }

    /// Renders the profile as the `telemetry_summary.json` document.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512 + 160 * self.engines.len());
        out.push_str("{\n");
        out.push_str(&format!("  \"cells\": {},\n", self.cells));
        out.push_str(&format!(
            "  \"status\": {{\"ok\": {}, \"error\": {}, \"panic\": {}}},\n",
            self.ok, self.errors, self.panics
        ));
        out.push_str(&format!("  \"total_wall_ms\": {:.3},\n", self.total_wall_ms));
        out.push_str(&format!("  \"max_wall_ms\": {:.3},\n", self.max_wall_ms));
        out.push_str(&format!("  \"slowest_cell\": {},\n", quote(&self.slowest_cell)));
        out.push_str(&format!("  \"dropped_spans\": {},\n", self.dropped_spans));
        out.push_str(&format!("  \"peak_mem_est_bytes\": {},\n", self.peak_mem_est_bytes));
        out.push_str("  \"engines\": [\n");
        for (i, e) in self.engines.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"slug\": {}, \"cells\": {}, \"ok\": {}, \"wall_ms\": {:.3}, \
                 \"total_cycles\": {}}}{}\n",
                quote(&e.slug),
                e.cells,
                e.ok,
                e.wall_ms,
                e.total_cycles,
                if i + 1 == self.engines.len() { "" } else { "," }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigma_core::model::GemmProblem;
    use sigma_matrix::GemmShape;
    use sigma_telemetry::FlightRecorder;

    fn failure(slug: &str, workload: &str, status: RunStatus, mem_est_bytes: u64) -> RunRecord {
        RunRecord::from_failure(
            slug,
            "Engine",
            64,
            workload,
            &GemmProblem::dense(GemmShape::new(4, 4, 4)),
            7,
            status,
            "boom".into(),
            mem_est_bytes,
        )
    }

    /// A recorder holding at most `capacity` spans, fed `engine_run`
    /// spans of the given `(label, microseconds)`.
    fn recorded(capacity: usize, spans: &[(&str, u64)]) -> FlightSnapshot {
        let rec = FlightRecorder::with_clock(capacity, || 0);
        for &(label, us) in spans {
            rec.record_span(Stage::EngineRun, label, 0, us);
        }
        rec.snapshot()
    }

    #[test]
    fn profile_aggregates_status_and_wall_time() {
        let records = vec![
            failure("a", "w0", RunStatus::Ok, 100),
            failure("a", "w1", RunStatus::Error, 400),
            failure("b", "w0", RunStatus::Panic, 100),
        ];
        let flight = recorded(64, &[("a: w0", 2000), ("a: w1", 2500), ("b: w0", 1000)]);
        let p = SweepProfile::new(&records, &flight);
        assert_eq!(p.cells, 3);
        assert_eq!((p.ok, p.errors, p.panics), (1, 1, 1));
        assert!((p.total_wall_ms - 5.5).abs() < 1e-9);
        assert!((p.max_wall_ms - 2.5).abs() < 1e-9);
        assert_eq!(p.slowest_cell, "a: w1");
        assert_eq!(p.dropped_spans, 0);
        assert_eq!(p.peak_mem_est_bytes, 400);
        assert_eq!(p.engines.len(), 2);
        assert_eq!(p.engines[0].slug, "a");
        assert_eq!(p.engines[0].cells, 2);
        assert!((p.engines[0].wall_ms - 4.5).abs() < 1e-9);
        assert_eq!(p.engines[1].cells, 1);
        assert!((p.engines[1].wall_ms - 1.0).abs() < 1e-9);
    }

    #[test]
    fn dropped_spans_keep_the_histogram_totals() {
        let records =
            vec![failure("a", "w0", RunStatus::Ok, 0), failure("a", "w1", RunStatus::Ok, 0)];
        let flight = recorded(1, &[("a: w0", 1000), ("a: w1", 3000)]);
        let p = SweepProfile::new(&records, &flight);
        assert_eq!(p.dropped_spans, 1);
        assert!((p.total_wall_ms - 4.0).abs() < 1e-9, "the histogram saw both runs");
        assert!((p.max_wall_ms - 3.0).abs() < 1e-9);
        assert_eq!(p.slowest_cell, "a: w0", "only the retained span is attributed");
        assert!((p.engines[0].wall_ms - 1.0).abs() < 1e-9);
        assert!(p.to_json().contains("\"dropped_spans\": 1,"));
    }

    #[test]
    fn a_disabled_recorder_leaves_timing_at_zero() {
        let records = vec![failure("a", "w0", RunStatus::Ok, 0)];
        let p = SweepProfile::new(&records, &FlightRecorder::off().snapshot());
        assert_eq!((p.total_wall_ms, p.max_wall_ms, p.engines[0].wall_ms), (0.0, 0.0, 0.0));
        assert_eq!(p.slowest_cell, "");
        assert_eq!(p.cells, 1);
    }

    #[test]
    fn json_rendering_is_stable_and_scannable() {
        let records = vec![failure("sigma", "dense", RunStatus::Ok, 0)];
        let flight = recorded(64, &[("sigma: dense", 1500)]);
        let json = SweepProfile::new(&records, &flight).to_json();
        assert!(json.starts_with("{\n  \"cells\": 1,\n"));
        assert!(json.contains("\"slowest_cell\": \"sigma: dense\""));
        assert!(json.contains("\"total_wall_ms\": 1.500"));
        assert!(json.contains("\"dropped_spans\": 0,"));
        assert!(json.contains("\"slug\": \"sigma\""));
        assert!(json.ends_with("  ]\n}\n"));
        // Identical input renders byte-identically.
        assert_eq!(json, SweepProfile::new(&records, &flight).to_json());
    }
}
