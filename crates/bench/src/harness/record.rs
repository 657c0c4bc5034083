//! The structured result row every sweep produces, and its CSV/JSON
//! renderings.

use crate::util::Table;
use sigma_core::model::GemmProblem;
use sigma_core::EngineRun;
use sigma_telemetry::json::{quote, Json};

/// Revision of the [`RunRecord`] layout itself (fields, column order,
/// rendering). Content keys fold it in, so bumping it when a field is
/// added or re-rendered invalidates every persisted cell instead of
/// replaying records whose layout no longer matches this code.
pub const RECORD_SCHEMA: u32 = 3;

/// How an (engine, workload) cell terminated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunStatus {
    /// The engine returned a result.
    Ok,
    /// The engine refused the problem with an [`EngineError`]
    /// (dimension mismatch, config limit, non-finite operand, ...).
    ///
    /// [`EngineError`]: sigma_core::EngineError
    Error,
    /// The engine panicked; the sweep caught it and carried on.
    Panic,
}

impl RunStatus {
    /// Parses the CSV/JSON rendering back into a status (journal replay).
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "ok" => Some(RunStatus::Ok),
            "error" => Some(RunStatus::Error),
            "panic" => Some(RunStatus::Panic),
            _ => None,
        }
    }
}

impl std::fmt::Display for RunStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            RunStatus::Ok => "ok",
            RunStatus::Error => "error",
            RunStatus::Panic => "panic",
        })
    }
}

/// One (engine, workload) execution, flattened for CSV/JSON emission.
///
/// Field order here is the column order of [`records_table`] and the key
/// order of [`records_to_json`]; both are fixed so two identical sweeps
/// render byte-identically.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Registry slug of the engine.
    pub engine_slug: String,
    /// Human-readable engine name.
    pub engine: String,
    /// Workload name.
    pub workload: String,
    /// GEMM rows.
    pub m: usize,
    /// GEMM columns.
    pub n: usize,
    /// Contraction length.
    pub k: usize,
    /// Density of the MK operand.
    pub density_a: f64,
    /// Density of the KN operand.
    pub density_b: f64,
    /// Seed the operands were materialized from.
    pub seed: u64,
    /// PEs in the engine.
    pub pes: usize,
    /// Table-II loading cycles.
    pub loading_cycles: u64,
    /// Table-II streaming cycles.
    pub streaming_cycles: u64,
    /// Table-II add cycles.
    pub add_cycles: u64,
    /// Total cycles.
    pub total_cycles: u64,
    /// Stationary folds executed.
    pub folds: u64,
    /// Useful (both-non-zero) MACs.
    pub useful_macs: u128,
    /// Issued MACs.
    pub issued_macs: u128,
    /// Stationary utilization in [0, 1].
    pub stationary_utilization: f64,
    /// Compute efficiency in [0, 1].
    pub compute_efficiency: f64,
    /// Overall efficiency in [0, 1].
    pub overall_efficiency: f64,
    /// Max absolute element error vs the reference GEMM.
    pub max_abs_err: f64,
    /// Whether the result matched the reference within tolerance.
    pub verified: bool,
    /// How the cell terminated (`ok | error | panic`).
    pub status: RunStatus,
    /// Fault events that fired during the run (fault campaigns only).
    pub faults_injected: u64,
    /// Fault effects detected by the ABFT checksums.
    pub faults_detected: u64,
    /// Fault effects remediated with the result verified correct.
    pub faults_corrected: u64,
    /// Fault effects that left the final result wrong.
    pub faults_escaped: u64,
    /// Dead streaming cycles (no non-zero operand) the stationary engine
    /// fast-forwarded; still included in `streaming_cycles`/`total_cycles`.
    pub idle_cycles_skipped: u64,
    /// Deterministic operand-memory proxy in bytes (wall time is the
    /// flight recorder's, never a record's).
    pub mem_est_bytes: u64,
    /// Engine error or panic message, when the cell failed.
    pub error: Option<String>,
}

impl RunRecord {
    /// Column headers, in field order.
    pub const HEADERS: [&'static str; 30] = [
        "engine_slug",
        "engine",
        "workload",
        "m",
        "n",
        "k",
        "density_a",
        "density_b",
        "seed",
        "pes",
        "loading_cycles",
        "streaming_cycles",
        "add_cycles",
        "total_cycles",
        "folds",
        "useful_macs",
        "issued_macs",
        "stationary_utilization",
        "compute_efficiency",
        "overall_efficiency",
        "max_abs_err",
        "verified",
        "status",
        "faults_injected",
        "faults_detected",
        "faults_corrected",
        "faults_escaped",
        "idle_cycles_skipped",
        "mem_est_bytes",
        "error",
    ];

    /// Builds a record from a successful engine run; `mem_est_bytes` is
    /// the cell's deterministic operand-footprint proxy.
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub fn from_run(
        slug: &str,
        engine_name: &str,
        pes: usize,
        workload: &str,
        problem: &GemmProblem,
        seed: u64,
        run: &EngineRun,
        max_abs_err: f64,
        verified: bool,
        mem_est_bytes: u64,
    ) -> Self {
        let s = &run.stats;
        Self {
            engine_slug: slug.to_string(),
            engine: engine_name.to_string(),
            workload: workload.to_string(),
            m: problem.shape.m,
            n: problem.shape.n,
            k: problem.shape.k,
            density_a: problem.density_a,
            density_b: problem.density_b,
            seed,
            pes,
            loading_cycles: s.loading_cycles,
            streaming_cycles: s.streaming_cycles,
            add_cycles: s.add_cycles,
            total_cycles: s.total_cycles(),
            folds: s.folds,
            useful_macs: s.useful_macs,
            issued_macs: s.issued_macs,
            stationary_utilization: s.stationary_utilization(),
            compute_efficiency: s.compute_efficiency(),
            overall_efficiency: s.overall_efficiency(),
            max_abs_err,
            verified,
            status: RunStatus::Ok,
            faults_injected: s.faults_injected,
            faults_detected: s.faults_detected,
            faults_corrected: s.faults_corrected,
            faults_escaped: s.faults_escaped,
            idle_cycles_skipped: s.idle_cycles_skipped,
            mem_est_bytes,
            error: None,
        }
    }

    /// Builds a record for an engine that refused the problem.
    #[must_use]
    pub fn from_error(
        slug: &str,
        engine_name: &str,
        pes: usize,
        workload: &str,
        problem: &GemmProblem,
        seed: u64,
        error: String,
    ) -> Self {
        Self::from_failure(
            slug,
            engine_name,
            pes,
            workload,
            problem,
            seed,
            RunStatus::Error,
            error,
            0,
        )
    }

    /// Builds a record for a cell that did not produce a result: an
    /// engine error or a caught panic.
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub fn from_failure(
        slug: &str,
        engine_name: &str,
        pes: usize,
        workload: &str,
        problem: &GemmProblem,
        seed: u64,
        status: RunStatus,
        error: String,
        mem_est_bytes: u64,
    ) -> Self {
        Self {
            engine_slug: slug.to_string(),
            engine: engine_name.to_string(),
            workload: workload.to_string(),
            m: problem.shape.m,
            n: problem.shape.n,
            k: problem.shape.k,
            density_a: problem.density_a,
            density_b: problem.density_b,
            seed,
            pes,
            loading_cycles: 0,
            streaming_cycles: 0,
            add_cycles: 0,
            total_cycles: 0,
            folds: 0,
            useful_macs: 0,
            issued_macs: 0,
            stationary_utilization: 0.0,
            compute_efficiency: 0.0,
            overall_efficiency: 0.0,
            max_abs_err: f64::INFINITY,
            verified: false,
            status,
            faults_injected: 0,
            faults_detected: 0,
            faults_corrected: 0,
            faults_escaped: 0,
            idle_cycles_skipped: 0,
            mem_est_bytes,
            error: Some(error),
        }
    }

    /// The record as one table row, in [`Self::HEADERS`] order.
    #[must_use]
    pub fn row(&self) -> Vec<String> {
        vec![
            self.engine_slug.clone(),
            self.engine.clone(),
            self.workload.clone(),
            self.m.to_string(),
            self.n.to_string(),
            self.k.to_string(),
            format!("{:?}", self.density_a),
            format!("{:?}", self.density_b),
            self.seed.to_string(),
            self.pes.to_string(),
            self.loading_cycles.to_string(),
            self.streaming_cycles.to_string(),
            self.add_cycles.to_string(),
            self.total_cycles.to_string(),
            self.folds.to_string(),
            self.useful_macs.to_string(),
            self.issued_macs.to_string(),
            format!("{:.6}", self.stationary_utilization),
            format!("{:.6}", self.compute_efficiency),
            format!("{:.6}", self.overall_efficiency),
            format!("{:e}", self.max_abs_err),
            self.verified.to_string(),
            self.status.to_string(),
            self.faults_injected.to_string(),
            self.faults_detected.to_string(),
            self.faults_corrected.to_string(),
            self.faults_escaped.to_string(),
            self.idle_cycles_skipped.to_string(),
            self.mem_est_bytes.to_string(),
            self.error.clone().unwrap_or_default(),
        ]
    }

    /// The record as one JSON object (stable key order).
    #[must_use]
    pub fn to_json(&self) -> String {
        let kv: Vec<(&str, String)> = vec![
            ("engine_slug", quote(&self.engine_slug)),
            ("engine", quote(&self.engine)),
            ("workload", quote(&self.workload)),
            ("m", self.m.to_string()),
            ("n", self.n.to_string()),
            ("k", self.k.to_string()),
            ("density_a", format!("{:?}", self.density_a)),
            ("density_b", format!("{:?}", self.density_b)),
            ("seed", self.seed.to_string()),
            ("pes", self.pes.to_string()),
            ("loading_cycles", self.loading_cycles.to_string()),
            ("streaming_cycles", self.streaming_cycles.to_string()),
            ("add_cycles", self.add_cycles.to_string()),
            ("total_cycles", self.total_cycles.to_string()),
            ("folds", self.folds.to_string()),
            ("useful_macs", self.useful_macs.to_string()),
            ("issued_macs", self.issued_macs.to_string()),
            ("stationary_utilization", format!("{:?}", self.stationary_utilization)),
            ("compute_efficiency", format!("{:?}", self.compute_efficiency)),
            ("overall_efficiency", format!("{:?}", self.overall_efficiency)),
            (
                "max_abs_err",
                if self.max_abs_err.is_finite() {
                    format!("{:?}", self.max_abs_err)
                } else {
                    "null".to_string()
                },
            ),
            ("verified", self.verified.to_string()),
            ("status", quote(&self.status.to_string())),
            ("faults_injected", self.faults_injected.to_string()),
            ("faults_detected", self.faults_detected.to_string()),
            ("faults_corrected", self.faults_corrected.to_string()),
            ("faults_escaped", self.faults_escaped.to_string()),
            ("idle_cycles_skipped", self.idle_cycles_skipped.to_string()),
            ("mem_est_bytes", self.mem_est_bytes.to_string()),
            ("error", self.error.as_deref().map_or_else(|| "null".to_string(), quote)),
        ];
        let body: Vec<String> = kv.into_iter().map(|(k, v)| format!("{}: {v}", quote(k))).collect();
        format!("{{{}}}", body.join(", "))
    }

    /// Rebuilds a record from its [`RunRecord::to_json`] object. Every
    /// field round-trips exactly (floats are written with `{:?}`, the
    /// shortest text that parses back to the same bits), with one
    /// documented exception: a non-finite `max_abs_err` is written as
    /// `null` and reads back as `+inf`, the sentinel every failure
    /// record uses.
    ///
    /// # Errors
    ///
    /// Names the first missing or mistyped field.
    pub fn from_json(obj: &Json) -> Result<Self, String> {
        fn field<'a>(obj: &'a Json, name: &str) -> Result<&'a Json, String> {
            obj.get(name).ok_or_else(|| format!("missing field {name:?}"))
        }
        fn text(obj: &Json, name: &str) -> Result<String, String> {
            field(obj, name)?.as_str().map(str::to_string).ok_or(format!("{name} is not a string"))
        }
        fn num<T: std::str::FromStr>(obj: &Json, name: &str) -> Result<T, String> {
            field(obj, name)?
                .number()
                .ok_or(format!("{name} is not a number of the expected width"))
        }
        let status_name = text(obj, "status")?;
        let status =
            RunStatus::parse(&status_name).ok_or(format!("unknown status {status_name:?}"))?;
        let max_abs_err = match field(obj, "max_abs_err")? {
            Json::Null => f64::INFINITY,
            other => other.number().ok_or("max_abs_err is not a number")?,
        };
        let error = match field(obj, "error")? {
            Json::Null => None,
            other => Some(other.as_str().ok_or("error is not a string")?.to_string()),
        };
        Ok(RunRecord {
            engine_slug: text(obj, "engine_slug")?,
            engine: text(obj, "engine")?,
            workload: text(obj, "workload")?,
            m: num(obj, "m")?,
            n: num(obj, "n")?,
            k: num(obj, "k")?,
            density_a: num(obj, "density_a")?,
            density_b: num(obj, "density_b")?,
            seed: num(obj, "seed")?,
            pes: num(obj, "pes")?,
            loading_cycles: num(obj, "loading_cycles")?,
            streaming_cycles: num(obj, "streaming_cycles")?,
            add_cycles: num(obj, "add_cycles")?,
            total_cycles: num(obj, "total_cycles")?,
            folds: num(obj, "folds")?,
            useful_macs: num(obj, "useful_macs")?,
            issued_macs: num(obj, "issued_macs")?,
            stationary_utilization: num(obj, "stationary_utilization")?,
            compute_efficiency: num(obj, "compute_efficiency")?,
            overall_efficiency: num(obj, "overall_efficiency")?,
            max_abs_err,
            verified: field(obj, "verified")?.as_bool().ok_or("verified is not a boolean")?,
            status,
            faults_injected: num(obj, "faults_injected")?,
            faults_detected: num(obj, "faults_detected")?,
            faults_corrected: num(obj, "faults_corrected")?,
            faults_escaped: num(obj, "faults_escaped")?,
            idle_cycles_skipped: num(obj, "idle_cycles_skipped")?,
            mem_est_bytes: num(obj, "mem_est_bytes")?,
            error,
        })
    }
}

/// Renders records as a [`Table`] (text and CSV come for free).
#[must_use]
pub fn records_table(title: impl Into<String>, records: &[RunRecord]) -> Table {
    let mut t = Table::new(title, &RunRecord::HEADERS);
    for r in records {
        t.push(r.row());
    }
    t
}

/// Renders records as a JSON array, one object per record, stable key
/// order — byte-identical for identical sweeps.
#[must_use]
pub fn records_to_json(records: &[RunRecord]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str("  ");
        out.push_str(&r.to_json());
        out.push_str(if i + 1 < records.len() { ",\n" } else { "\n" });
    }
    out.push_str("]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigma_core::CycleStats;
    use sigma_matrix::{GemmShape, Matrix};

    fn sample() -> RunRecord {
        let p = GemmProblem::sparse(GemmShape::new(4, 5, 6), 0.5, 0.25);
        let run = EngineRun::new(
            Matrix::zeros(4, 5),
            CycleStats { streaming_cycles: 10, pes: 8, ..CycleStats::default() },
        );
        RunRecord::from_run("eng", "Engine", 8, "wl", &p, 7, &run, 1e-6, true, 0)
    }

    #[test]
    fn row_width_matches_headers() {
        assert_eq!(sample().row().len(), RunRecord::HEADERS.len());
        let p = GemmProblem::dense(GemmShape::new(2, 2, 2));
        let err = RunRecord::from_error("e", "E", 1, "w", &p, 0, "boom".into());
        assert_eq!(err.row().len(), RunRecord::HEADERS.len());
        assert!(!err.verified);
        assert_eq!(err.status, RunStatus::Error);
    }

    #[test]
    fn status_column_reflects_failure_kind() {
        let p = GemmProblem::dense(GemmShape::new(2, 2, 2));
        let panic =
            RunRecord::from_failure("e", "E", 1, "w", &p, 0, RunStatus::Panic, "kaboom".into(), 0);
        let status_col = RunRecord::HEADERS.iter().position(|h| *h == "status").unwrap();
        assert_eq!(panic.row()[status_col], "panic");
        assert_eq!(sample().row()[status_col], "ok");
        assert!(panic.to_json().contains("\"status\": \"panic\""));
    }

    #[test]
    fn json_is_stable_and_escapes() {
        let r = sample();
        assert_eq!(r.to_json(), r.clone().to_json());
        let j = records_to_json(&[r.clone(), r]);
        assert!(j.starts_with("[\n"));
        assert!(j.ends_with("]\n"));
        assert!(j.contains("\"engine_slug\": \"eng\""));
        assert!(j.contains("\"error\": null"));
        assert_eq!(j.matches("\"total_cycles\"").count(), 2);
    }

    #[test]
    fn footprint_and_idle_skip_columns_render() {
        let mut r = sample();
        for gone in ["wall_ms", "attempts", "route_cache_hits", "route_cache_misses"] {
            assert!(!RunRecord::HEADERS.contains(&gone), "records carry no {gone} column");
        }
        r.mem_est_bytes = 4096;
        r.idle_cycles_skipped = 17;
        let row = r.row();
        let col = |name: &str| RunRecord::HEADERS.iter().position(|h| *h == name).unwrap();
        assert_eq!(row[col("mem_est_bytes")], "4096");
        assert_eq!(row[col("idle_cycles_skipped")], "17");
        assert!(r.to_json().contains("\"idle_cycles_skipped\": 17"));
    }

    #[test]
    fn table_rendering_round_trips() {
        let t = records_table("sweep", &[sample()]);
        assert_eq!(t.headers.len(), RunRecord::HEADERS.len());
        assert_eq!(t.rows.len(), 1);
        assert!(t.to_csv().lines().count() == 2);
    }
}
