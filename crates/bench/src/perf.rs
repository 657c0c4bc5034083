//! Simulator throughput measurement: cycles-simulated-per-second.
//!
//! The ROADMAP grades this repo against "as fast as the hardware allows";
//! this module is the measuring stick. [`cases`] defines a fixed ladder of
//! dense/sparse/irregular GEMMs from 128 to 16K PEs, [`measure`] times
//! [`SigmaSim::run_gemm`](sigma_core::SigmaSim) over each with best-of-N
//! wall-clock timing (no criterion dependency — plain `Instant` loops keep
//! the binary usable offline), and [`to_json`]/[`parse_baseline`] round-trip
//! the committed `BENCH_sim.json` baseline that `perf_bench --check`
//! compares against.
//!
//! The figure of merit is **simulated cycles per wall-clock second**
//! (`stats.total_cycles() / best_seconds`): it normalizes across workload
//! shapes, so a regression means the simulator itself got slower, not that
//! the modeled machine changed.

use sigma_core::{Dataflow, SigmaConfig, SigmaError, SigmaSim};
use sigma_matrix::gen::{sparse_uniform, Density};
use sigma_matrix::SparseMatrix;
use sigma_telemetry::json::{self, Json};
use std::time::Instant;

/// One benchmark workload: a SIGMA geometry plus a GEMM shape/density.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfCase {
    /// Stable case identifier (the baseline key in `BENCH_sim.json`).
    pub name: &'static str,
    /// Flex-DPE count.
    pub num_dpes: usize,
    /// Multipliers per Flex-DPE.
    pub dpe_size: usize,
    /// Dataflow to run.
    pub dataflow: Dataflow,
    /// GEMM `M` dimension.
    pub m: usize,
    /// GEMM `K` (contraction) dimension.
    pub k: usize,
    /// GEMM `N` dimension.
    pub n: usize,
    /// Density of the `M x K` operand.
    pub density_a: f64,
    /// Density of the `K x N` operand.
    pub density_b: f64,
    /// Whether the case runs in `--smoke` mode (CI keeps to the small end
    /// of the ladder).
    pub smoke: bool,
}

impl PerfCase {
    /// Total multipliers in the configured array.
    #[must_use]
    pub fn pes(&self) -> usize {
        self.num_dpes * self.dpe_size
    }

    /// `MxKxN` shape string for display.
    #[must_use]
    pub fn shape(&self) -> String {
        format!("{}x{}x{}", self.m, self.k, self.n)
    }

    /// Deterministic operands for this case (seeded by the case name).
    #[must_use]
    pub fn operands(&self) -> (SparseMatrix, SparseMatrix) {
        let seed = self.name.bytes().fold(0xD6E8_FEB8_6659_FD93_u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3)
        });
        let da = Density::clamped(self.density_a);
        let db = Density::clamped(self.density_b);
        let a = sparse_uniform(self.m, self.k, da, seed);
        let b = sparse_uniform(self.k, self.n, db, seed ^ 0xA5A5_A5A5);
        (a, b)
    }

    /// The simulator for this case.
    ///
    /// Every ladder geometry is valid, so the clamped constructors build
    /// it exactly; they only exist to keep this path infallible.
    #[must_use]
    pub fn sim(&self) -> SigmaSim {
        let cfg = SigmaConfig::clamped(self.num_dpes, self.dpe_size, self.dpe_size, self.dataflow)
            .with_stream_bandwidth_clamped(self.pes());
        SigmaSim::new_clamped(cfg)
    }
}

/// The fixed benchmark ladder: dense/sparse/irregular shapes at 128, 512,
/// 1K, 4K, and 16K PEs. `sparse_irregular_4k` is the acceptance-gate case.
#[must_use]
pub fn cases() -> Vec<PerfCase> {
    vec![
        PerfCase {
            name: "dense_128",
            num_dpes: 4,
            dpe_size: 32,
            dataflow: Dataflow::WeightStationary,
            m: 48,
            k: 32,
            n: 32,
            density_a: 1.0,
            density_b: 1.0,
            smoke: true,
        },
        PerfCase {
            name: "sparse_512",
            num_dpes: 8,
            dpe_size: 64,
            dataflow: Dataflow::WeightStationary,
            m: 96,
            k: 64,
            n: 48,
            density_a: 0.5,
            density_b: 0.3,
            smoke: true,
        },
        PerfCase {
            name: "irregular_1k",
            num_dpes: 8,
            dpe_size: 128,
            dataflow: Dataflow::InputStationary,
            m: 120,
            k: 56,
            n: 72,
            density_a: 0.4,
            density_b: 0.85,
            smoke: true,
        },
        PerfCase {
            name: "sparse_irregular_4k",
            num_dpes: 32,
            dpe_size: 128,
            dataflow: Dataflow::WeightStationary,
            m: 384,
            k: 192,
            n: 320,
            density_a: 0.45,
            density_b: 0.25,
            smoke: true,
        },
        PerfCase {
            name: "nlr_sparse_1k",
            num_dpes: 8,
            dpe_size: 128,
            dataflow: Dataflow::NoLocalReuse,
            m: 96,
            k: 80,
            n: 96,
            density_a: 0.5,
            density_b: 0.2,
            smoke: true,
        },
        PerfCase {
            name: "dense_16k",
            num_dpes: 128,
            dpe_size: 128,
            dataflow: Dataflow::WeightStationary,
            m: 128,
            k: 128,
            n: 256,
            density_a: 1.0,
            density_b: 1.0,
            smoke: false,
        },
        PerfCase {
            name: "sparse_16k",
            num_dpes: 128,
            dpe_size: 128,
            dataflow: Dataflow::WeightStationary,
            m: 256,
            k: 128,
            n: 512,
            density_a: 0.5,
            density_b: 0.3,
            smoke: false,
        },
    ]
}

/// One timed case: simulated cycles per run and best-of-`reps` wall time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfMeasurement {
    /// The case that was run.
    pub case: PerfCase,
    /// Simulated cycles per `run_gemm` call (`stats.total_cycles()`).
    pub cycles: u64,
    /// Best (minimum) wall-clock seconds over the measurement reps.
    pub best_secs: f64,
    /// The figure of merit: `cycles / best_secs`.
    pub cycles_per_sec: f64,
    /// Number of timed repetitions.
    pub reps: usize,
}

/// Times one case: `reps` timed calls (after one untimed warmup), keeping
/// the minimum wall time. Operand generation and simulator construction are
/// excluded from the timed region.
///
/// # Errors
///
/// Returns the simulator's error if the case fails to run — every ladder
/// case is a valid GEMM, so failure is a simulator bug worth a loud stop
/// at the caller.
pub fn measure(case: &PerfCase, reps: usize) -> Result<PerfMeasurement, SigmaError> {
    let reps = reps.max(1);
    let (a, b) = case.operands();
    let sim = case.sim();
    let warm = sim.run_gemm(&a, &b)?;
    let cycles = warm.stats.total_cycles();
    let mut best_secs = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        let run = sim.run_gemm(&a, &b)?;
        let secs = t.elapsed().as_secs_f64();
        assert_eq!(run.stats, warm.stats, "simulation must be deterministic");
        std::hint::black_box(&run.result);
        best_secs = best_secs.min(secs);
    }
    let best_secs = best_secs.max(1e-9);
    #[allow(clippy::cast_precision_loss)]
    let cycles_per_sec = cycles as f64 / best_secs;
    Ok(PerfMeasurement { case: *case, cycles, best_secs, cycles_per_sec, reps })
}

/// Renders measurements as the `BENCH_sim.json` baseline. One case per
/// line so [`parse_baseline`] can stay a dependency-free line scanner;
/// `cycles_per_sec` is emitted in fixed-point notation for the same reason.
#[must_use]
pub fn to_json(measurements: &[PerfMeasurement]) -> String {
    let mut out = String::from("{\n  \"schema\": 1,\n  \"bench\": \"sim_cycles_per_second\",\n");
    out.push_str("  \"cases\": [\n");
    for (i, m) in measurements.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"pes\": {}, \"dataflow\": \"{}\", \"m\": {}, \
             \"k\": {}, \"n\": {}, \"density_a\": {}, \"density_b\": {}, \"cycles\": {}, \
             \"wall_ms\": {:.3}, \"cycles_per_sec\": {:.1}}}{}\n",
            m.case.name,
            m.case.pes(),
            m.case.dataflow.name(),
            m.case.m,
            m.case.k,
            m.case.n,
            m.case.density_a,
            m.case.density_b,
            m.cycles,
            m.best_secs * 1e3,
            m.cycles_per_sec,
            if i + 1 < measurements.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Extracts `(name, cycles_per_sec)` pairs, in file order, from a
/// `BENCH_sim.json` produced by [`to_json`]. A document that does not
/// parse, or has no `cases` array, yields no pairs; so does a case
/// lacking either field.
#[must_use]
pub fn parse_baseline(doc: &str) -> Vec<(String, f64)> {
    let Ok(doc) = json::parse(doc) else { return Vec::new() };
    doc.get("cases")
        .and_then(Json::as_array)
        .unwrap_or_default()
        .iter()
        .filter_map(|case| {
            let name = case.get("name")?.as_str()?;
            Some((name.to_string(), case.get("cycles_per_sec")?.number::<f64>()?))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_covers_128_to_16k_pes() {
        let cs = cases();
        assert!(cs.iter().any(|c| c.pes() == 128));
        assert!(cs.iter().any(|c| c.pes() == 16384));
        assert!(cs.iter().any(|c| c.name == "sparse_irregular_4k" && c.pes() == 4096));
        let smoke: Vec<_> = cs.iter().filter(|c| c.smoke).collect();
        assert!(!smoke.is_empty() && smoke.len() < cs.len());
    }

    #[test]
    fn case_names_are_unique() {
        let cs = cases();
        for (i, a) in cs.iter().enumerate() {
            for b in &cs[i + 1..] {
                assert_ne!(a.name, b.name);
            }
        }
    }

    #[test]
    fn operands_are_deterministic_and_shaped() {
        let c = &cases()[0];
        let (a1, b1) = c.operands();
        let (a2, b2) = c.operands();
        assert_eq!(a1, a2);
        assert_eq!(b1, b2);
        assert_eq!((a1.rows(), a1.cols()), (c.m, c.k));
        assert_eq!((b1.rows(), b1.cols()), (c.k, c.n));
    }

    #[test]
    fn measure_smallest_case_yields_positive_throughput() {
        let c = cases().into_iter().find(|c| c.name == "dense_128").unwrap();
        let m = measure(&c, 1).unwrap();
        assert!(m.cycles > 0);
        assert!(m.cycles_per_sec > 0.0);
        assert_eq!(m.reps, 1);
    }

    #[test]
    fn json_round_trips_through_the_parser() {
        let c = cases().into_iter().find(|c| c.name == "dense_128").unwrap();
        let m = PerfMeasurement {
            case: c,
            cycles: 1234,
            best_secs: 0.5,
            cycles_per_sec: 2468.0,
            reps: 3,
        };
        let json = to_json(&[m]);
        let parsed = parse_baseline(&json);
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].0, "dense_128");
        assert!((parsed[0].1 - 2468.0).abs() < 0.1);
    }

    #[test]
    fn parser_ignores_documents_without_cases() {
        assert!(parse_baseline("{\n  \"schema\": 1\n}\n").is_empty());
        assert!(parse_baseline("not json").is_empty());
    }

    /// The committed baseline reads back as its seven ladder cases, each
    /// with the throughput written on its own line of the file.
    #[test]
    fn committed_baseline_yields_every_case() {
        let text = include_str!("../../../BENCH_sim.json");
        let pairs = parse_baseline(text);
        let names: Vec<&str> = pairs.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            [
                "dense_128",
                "sparse_512",
                "irregular_1k",
                "sparse_irregular_4k",
                "nlr_sparse_1k",
                "dense_16k",
                "sparse_16k"
            ]
        );
        for (name, cps) in &pairs {
            let line = text.lines().find(|l| l.contains(&format!("\"name\": \"{name}\""))).unwrap();
            assert!(line.contains(&format!("\"cycles_per_sec\": {cps:.1}")), "{name}: {line}");
        }
    }
}
