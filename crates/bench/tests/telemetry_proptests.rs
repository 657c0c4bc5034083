//! Property tests tying traces, stats, and the Perfetto exporter
//! together across the whole engine fleet.
//!
//! Two contracts:
//!
//! 1. A traced SIGMA run returns a [`Trace`](sigma_core::Trace) whose
//!    per-phase totals reconcile with its
//!    [`CycleStats`](sigma_core::CycleStats) — the trace is the
//!    authoritative decomposition of the Table-II totals, not decoration
//!    — and tracing is observational: the traced run equals the untraced
//!    one the harness's engines execute.
//! 2. The Chrome trace-event rendering of any such trace must pass the
//!    scanner validator, and its per-phase track durations must sum back
//!    to the stats' phase totals (and overall total) exactly.

use proptest::prelude::*;
use sigma_core::model::GemmProblem;
use sigma_core::{validate_chrome_trace, Dataflow, SigmaConfig, SigmaSim};
use sigma_matrix::GemmShape;
use sigma_workloads::materialize;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Contract 1 on every dataflow: each trace is consistent with its
    /// run's stats, and the traced run equals the untraced one, across
    /// random shapes and sparsities.
    #[test]
    fn every_dataflow_trace_reconciles_with_its_stats(
        m in 1usize..20, n in 1usize..20, k in 1usize..16,
        da in 0u8..=10, db in 0u8..=10, seed in any::<u64>()
    ) {
        let p = GemmProblem::sparse(
            GemmShape::new(m, n, k),
            f64::from(da) / 10.0,
            f64::from(db) / 10.0,
        );
        let (a, b) = materialize(&p, seed);
        for dataflow in Dataflow::ALL {
            let sim = SigmaSim::new(SigmaConfig::new(2, 8, 16, dataflow).unwrap()).unwrap();
            let (run, trace) = sim.run_gemm_traced(&a, &b).unwrap();
            prop_assert!(
                trace.consistent_with(&run.stats),
                "{dataflow} returned an inconsistent trace \
                 (load {} stream {} drain {} vs stats {})",
                trace.phase_cycles(sigma_core::Phase::Load),
                trace.phase_cycles(sigma_core::Phase::Stream),
                trace.phase_cycles(sigma_core::Phase::Drain),
                run.stats.total_cycles()
            );
            prop_assert_eq!(&run, &sim.run_gemm(&a, &b).unwrap(), "{} traced != untraced", dataflow);
        }
    }

    /// Contract 2: the Perfetto export of a SIGMA trace survives
    /// validation and its track durations sum to the stats totals, for
    /// every dataflow and random geometry.
    #[test]
    fn chrome_trace_tracks_sum_to_cycle_stats(
        m in 1usize..24, n in 1usize..24, k in 1usize..20,
        da in 0u8..=10, db in 0u8..=10,
        dpes in 1usize..4, log_size in 2u32..5,
        seed in any::<u64>()
    ) {
        let dataflow = match seed % 3 {
            0 => Dataflow::WeightStationary,
            1 => Dataflow::InputStationary,
            _ => Dataflow::NoLocalReuse,
        };
        let p = GemmProblem::sparse(
            GemmShape::new(m, n, k),
            f64::from(da) / 10.0,
            f64::from(db) / 10.0,
        );
        let (a, b) = materialize(&p, seed);
        let cfg = SigmaConfig::new(dpes, 1 << log_size, 1 << log_size, dataflow).unwrap();
        let sim = SigmaSim::new(cfg).unwrap();
        let (run, trace) = sim.run_gemm_traced(&a, &b).unwrap();

        let json = trace.to_chrome_trace("proptest").to_json();
        let summary = validate_chrome_trace(&json);
        prop_assert!(summary.is_ok(), "invalid chrome trace: {:?}", summary.err());
        let summary = summary.unwrap();

        prop_assert_eq!(
            summary.track("phase: load").unwrap_or(0),
            run.stats.loading_cycles
        );
        prop_assert_eq!(
            summary.track("phase: stream").unwrap_or(0),
            run.stats.streaming_cycles
        );
        prop_assert_eq!(
            summary.track("phase: drain").unwrap_or(0),
            run.stats.add_cycles
        );
        prop_assert_eq!(summary.total_duration, run.stats.total_cycles());
        prop_assert_eq!(summary.span_count, trace.events().len());
    }
}
