//! Sweep-level telemetry aggregation: the `telemetry_summary.json`
//! artifact a telemetry-enabled sweep drops next to its CSV.
//!
//! The summary is a pure fold over the sweep's [`RunRecord`]s — wall
//! time, retry pressure, the operand-footprint proxy, and the Benes
//! route-cache economy — grouped overall and per engine. Like every
//! other artifact in the harness it is rendered with hand-rolled JSON in
//! a fixed key order, so two identical sweeps summarize byte-identically.

use crate::harness::record::{RunRecord, RunStatus};
use sigma_telemetry::json::quote;

/// Aggregate profile of one engine across all its sweep cells.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineProfile {
    /// Registry slug of the engine.
    pub slug: String,
    /// Cells the engine ran (one per workload).
    pub cells: usize,
    /// Cells that terminated `ok`.
    pub ok: usize,
    /// Summed wall-clock time of the engine's cells, in milliseconds.
    pub wall_ms: f64,
    /// Summed total cycles over the engine's `ok` cells.
    pub total_cycles: u64,
    /// Summed Benes route-cache hits over the engine's cells.
    pub route_cache_hits: u64,
    /// Summed Benes route-cache misses over the engine's cells.
    pub route_cache_misses: u64,
}

/// Aggregate profile of a whole sweep, built by [`SweepProfile::from_records`].
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
    /// Cells that exceeded the watchdog budget.
    pub timeouts: usize,
    /// Cells that fell back to the analytic model after exhausting their
    /// budget repeatedly (`status=degraded`).
    pub degraded: usize,
    /// Cells that needed more than one attempt.
    pub retried_cells: usize,
    /// Summed attempts across all cells (= cells when nothing retried).
    pub total_attempts: u64,
    /// Summed wall-clock time across all cells, in milliseconds.
    pub total_wall_ms: f64,
    /// Wall-clock time of the slowest cell, in milliseconds.
    pub max_wall_ms: f64,
    /// `"<engine_slug>/<workload>"` of the slowest cell (empty when no
    /// cell recorded wall time).
    pub slowest_cell: String,
    /// Largest per-cell operand-footprint estimate, in bytes.
    pub peak_mem_est_bytes: u64,
    /// Summed Benes route-cache hits across all cells.
    pub route_cache_hits: u64,
    /// Summed Benes route-cache misses across all cells.
    pub route_cache_misses: u64,
    /// Per-engine aggregates, in order of first appearance (engine-major
    /// sweeps keep this equal to fleet order).
    pub engines: Vec<EngineProfile>,
}

impl SweepProfile {
    /// Folds a sweep's records into an aggregate profile.
    #[must_use]
    pub fn from_records(records: &[RunRecord]) -> Self {
        let mut profile = SweepProfile::default();
        for r in records {
            profile.cells += 1;
            match r.status {
                RunStatus::Ok => profile.ok += 1,
                RunStatus::Error => profile.errors += 1,
                RunStatus::Panic => profile.panics += 1,
                RunStatus::Timeout => profile.timeouts += 1,
                RunStatus::Degraded => profile.degraded += 1,
            }
            if r.attempts > 1 {
                profile.retried_cells += 1;
            }
            profile.total_attempts += u64::from(r.attempts);
            profile.total_wall_ms += r.wall_ms;
            if r.wall_ms > profile.max_wall_ms {
                profile.max_wall_ms = r.wall_ms;
                profile.slowest_cell = format!("{}/{}", r.engine_slug, r.workload);
            }
            profile.peak_mem_est_bytes = profile.peak_mem_est_bytes.max(r.mem_est_bytes);
            profile.route_cache_hits += r.route_cache_hits;
            profile.route_cache_misses += r.route_cache_misses;

            let idx = match profile.engines.iter().position(|e| e.slug == r.engine_slug) {
                Some(i) => i,
                None => {
                    profile.engines.push(EngineProfile {
                        slug: r.engine_slug.clone(),
                        cells: 0,
                        ok: 0,
                        wall_ms: 0.0,
                        total_cycles: 0,
                        route_cache_hits: 0,
                        route_cache_misses: 0,
                    });
                    profile.engines.len() - 1
                }
            };
            let engine = &mut profile.engines[idx];
            engine.cells += 1;
            engine.wall_ms += r.wall_ms;
            engine.route_cache_hits += r.route_cache_hits;
            engine.route_cache_misses += r.route_cache_misses;
            if r.status == RunStatus::Ok {
                engine.ok += 1;
                engine.total_cycles += r.total_cycles;
            }
        }
        profile
    }

    /// Fraction of Benes route lookups served from the cache, in [0, 1]
    /// (0 when no lookup was recorded).
    #[must_use]
    pub fn route_cache_hit_rate(&self) -> f64 {
        let lookups = self.route_cache_hits + self.route_cache_misses;
        if lookups == 0 {
            0.0
        } else {
            self.route_cache_hits as f64 / lookups as f64
        }
    }

    /// Renders the profile as the `telemetry_summary.json` document.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512 + 160 * self.engines.len());
        out.push_str("{\n");
        out.push_str(&format!("  \"cells\": {},\n", self.cells));
        out.push_str(&format!(
            "  \"status\": {{\"ok\": {}, \"error\": {}, \"panic\": {}, \"timeout\": {}, \
             \"degraded\": {}}},\n",
            self.ok, self.errors, self.panics, self.timeouts, self.degraded
        ));
        out.push_str(&format!("  \"retried_cells\": {},\n", self.retried_cells));
        out.push_str(&format!("  \"total_attempts\": {},\n", self.total_attempts));
        out.push_str(&format!("  \"total_wall_ms\": {:.3},\n", self.total_wall_ms));
        out.push_str(&format!("  \"max_wall_ms\": {:.3},\n", self.max_wall_ms));
        out.push_str(&format!("  \"slowest_cell\": {},\n", quote(&self.slowest_cell)));
        out.push_str(&format!("  \"peak_mem_est_bytes\": {},\n", self.peak_mem_est_bytes));
        out.push_str(&format!(
            "  \"route_cache\": {{\"hits\": {}, \"misses\": {}, \"hit_rate\": {:.6}}},\n",
            self.route_cache_hits,
            self.route_cache_misses,
            self.route_cache_hit_rate()
        ));
        out.push_str("  \"engines\": [\n");
        for (i, e) in self.engines.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"slug\": {}, \"cells\": {}, \"ok\": {}, \"wall_ms\": {:.3}, \
                 \"total_cycles\": {}, \"route_cache_hits\": {}, \"route_cache_misses\": {}}}{}\n",
                quote(&e.slug),
                e.cells,
                e.ok,
                e.wall_ms,
                e.total_cycles,
                e.route_cache_hits,
                e.route_cache_misses,
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
    use crate::harness::record::CellProfile;
    use sigma_core::model::GemmProblem;
    use sigma_matrix::GemmShape;

    fn failure(slug: &str, workload: &str, status: RunStatus, profile: CellProfile) -> RunRecord {
        RunRecord::from_failure(
            slug,
            "Engine",
            64,
            workload,
            &GemmProblem::dense(GemmShape::new(4, 4, 4)),
            7,
            status,
            "boom".into(),
            profile,
        )
    }

    #[test]
    fn profile_aggregates_status_retries_and_wall_time() {
        let records = vec![
            failure(
                "a",
                "w0",
                RunStatus::Ok,
                CellProfile { wall_ms: 2.0, attempts: 1, mem_est_bytes: 100 },
            ),
            failure(
                "a",
                "w1",
                RunStatus::Timeout,
                CellProfile { wall_ms: 5.0, attempts: 3, mem_est_bytes: 400 },
            ),
            failure(
                "b",
                "w0",
                RunStatus::Panic,
                CellProfile { wall_ms: 1.0, attempts: 2, mem_est_bytes: 100 },
            ),
        ];
        let p = SweepProfile::from_records(&records);
        assert_eq!(p.cells, 3);
        assert_eq!((p.ok, p.errors, p.panics, p.timeouts, p.degraded), (1, 0, 1, 1, 0));
        assert_eq!(p.retried_cells, 2);
        assert_eq!(p.total_attempts, 6);
        assert!((p.total_wall_ms - 8.0).abs() < 1e-9);
        assert!((p.max_wall_ms - 5.0).abs() < 1e-9);
        assert_eq!(p.slowest_cell, "a/w1");
        assert_eq!(p.peak_mem_est_bytes, 400);
        assert_eq!(p.engines.len(), 2);
        assert_eq!(p.engines[0].slug, "a");
        assert_eq!(p.engines[0].cells, 2);
        assert_eq!(p.engines[1].cells, 1);
    }

    #[test]
    fn route_cache_hit_rate_handles_zero_lookups() {
        let p = SweepProfile::default();
        assert_eq!(p.route_cache_hit_rate(), 0.0);
        let q = SweepProfile { route_cache_hits: 3, route_cache_misses: 1, ..p };
        assert!((q.route_cache_hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn json_rendering_is_stable_and_scannable() {
        let records = vec![failure(
            "sigma",
            "dense",
            RunStatus::Ok,
            CellProfile { wall_ms: 1.5, attempts: 1, mem_est_bytes: 64 },
        )];
        let json = SweepProfile::from_records(&records).to_json();
        assert!(json.starts_with("{\n  \"cells\": 1,\n"));
        assert!(json.contains("\"slowest_cell\": \"sigma/dense\""));
        assert!(json.contains("\"total_wall_ms\": 1.500"));
        assert!(json.contains("\"slug\": \"sigma\""));
        assert!(json.ends_with("  ]\n}\n"));
        // Identical input renders byte-identically.
        assert_eq!(json, SweepProfile::from_records(&records).to_json());
    }
}
