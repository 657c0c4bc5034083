//! The traced run's per-layer metrics.
//!
//! Each metric times calls into one layer's public functions from the
//! benchmark's own code, on the workload's own GEMMs: spans sit around the
//! calls, not inside the program. Every workload reports every metric, so
//! a layer a workload does not lean on is still measured on its inputs.

use crate::engines::{fault_plan, Gemm};
use crate::stats::median;
use crate::sweep::{recorder, SweepBench};
use sigma_core::{
    ControllerPlan, CycleStats, Dataflow, DpeStep, FlexDpe, RecoveryPolicy, SigmaSim,
};
use sigma_interconnect::{BenesNetwork, Fan, FanReduction, FanScratch, RouteCache};
use sigma_matrix::abft::check_product;
use sigma_matrix::SparseMatrix;
use sigma_workloads::materialize;
use std::hint::black_box;
use std::time::Instant;

/// The workload's GEMMs, with the SIGMA instance each runs on.
#[derive(Debug, Clone)]
pub struct ProbeSet {
    /// GEMMs in step order.
    pub gemms: Vec<Gemm>,
}

/// One per-layer metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// Repetitions of each timed probe; the median is reported.
const REPS: usize = 5;

/// Checked GEMMs in the fault probe (the `fault_abft` step's count).
const FAULT_GEMMS: usize = 9;

/// Cold-then-warm sweep pass pairs in the harness probe.
const HARNESS_PAIRS: usize = 4;

/// Upper bound on the Flex-DPE loads each component probe replays, which
/// keeps the traced run short on the larger workloads.
const MAX_UNITS: usize = 256;

/// Median over [`REPS`] repetitions of `f`'s seconds divided by `calls`.
fn per_call(calls: usize, mut f: impl FnMut() -> f64) -> f64 {
    let reps: Vec<f64> = (0..REPS).map(|_| f() / calls.max(1) as f64).collect();
    median(&reps)
}

fn time(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

/// `(stationary, streaming)` in the orientation the controller maps for
/// `dataflow`: M-sta keeps `A` stationary; N-sta (and the NLR path, which
/// has no plan of its own) keep `B^T` stationary and stream `A^T`.
fn canonical(g: &Gemm, dataflow: Dataflow) -> (SparseMatrix, SparseMatrix) {
    match dataflow {
        Dataflow::InputStationary => (g.a.clone(), g.b.clone()),
        _ => (g.b.transposed(), g.a.transposed()),
    }
}

/// One Flex-DPE load: its stationary elements, local cluster ids, and the
/// GEMM whose dense streamed columns it multiplies against.
struct UnitLoad {
    elements: Vec<sigma_core::MappedElement>,
    vec_ids: Vec<Option<u32>>,
    gemm: usize,
}

/// Every GEMM's streamed operand as dense contraction-indexed columns, the
/// form `FlexDpe::step_compiled` consumes.
fn stream_columns(oriented: &[(SparseMatrix, SparseMatrix)]) -> Vec<Vec<Vec<f32>>> {
    oriented
        .iter()
        .map(|(_, s)| (0..s.cols()).map(|c| (0..s.rows()).map(|r| s.get(r, c)).collect()).collect())
        .collect()
}

/// Splits every fold of every GEMM's plan into per-Flex-DPE loads, as the
/// event scheduler does, keeping at most [`MAX_UNITS`].
fn unit_loads(gemms: &[Gemm], plans: &[ControllerPlan]) -> Vec<UnitLoad> {
    let mut units = Vec::new();
    for (gemm, (g, plan)) in gemms.iter().zip(plans).enumerate() {
        let dpe = g.config.dpe_size();
        for fold in &plan.folds {
            for lo in (0..fold.occupied()).step_by(dpe) {
                let hi = (lo + dpe).min(fold.occupied());
                let mut vec_ids = vec![None; dpe];
                vec_ids[..hi - lo].copy_from_slice(&fold.vec_ids[lo..hi]);
                units.push(UnitLoad { elements: fold.elements[lo..hi].to_vec(), vec_ids, gemm });
                if units.len() == MAX_UNITS {
                    return units;
                }
            }
        }
    }
    units
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Runs every per-layer probe and returns the metrics in print order.
#[allow(clippy::too_many_lines)]
pub fn run(seed: u64, set: &ProbeSet) -> Result<Vec<Metric>, String> {
    let gemms = &set.gemms;
    let n = gemms.len();
    let mut m: Vec<Metric> = Vec::new();

    // sigma-workloads / sigma-matrix.
    m.push((
        "matrix.materialize_ms",
        per_call(n, || {
            time(|| {
                gemms.iter().for_each(|g| {
                    black_box(materialize(&g.problem, g.seed));
                })
            })
        }) * 1e3,
        "ms",
    ));
    m.push((
        "matrix.reference_ms",
        per_call(n, || {
            time(|| {
                gemms.iter().for_each(|g| {
                    black_box(g.a.to_dense().matmul(&g.b.to_dense()));
                })
            })
        }) * 1e3,
        "ms",
    ));
    let dense: Vec<_> = gemms.iter().map(|g| (g.a.to_dense(), g.b.to_dense())).collect();
    let mut abft_clean = true;
    m.push((
        "matrix.abft_check_ms",
        per_call(n, || {
            time(|| {
                for (g, (a, b)) in gemms.iter().zip(&dense) {
                    abft_clean &= check_product(a, b, &g.reference, g.tol).is_clean();
                }
            })
        }) * 1e3,
        "ms",
    ));
    if !abft_clean {
        return Err("ABFT flagged a reference product".into());
    }

    // sigma-core controller.
    let oriented: Vec<_> = gemms.iter().map(|g| canonical(g, g.config.dataflow())).collect();
    let build = |(g, (stat, stream)): (&Gemm, &(SparseMatrix, SparseMatrix))| {
        ControllerPlan::build(stat, stream.bitmap(), g.config.total_pes())
    };
    m.push((
        "core.plan_build_us",
        per_call(n, || {
            time(|| {
                gemms.iter().zip(&oriented).for_each(|x| {
                    black_box(build(x));
                })
            })
        }) * 1e6,
        "us",
    ));
    let plans: Vec<ControllerPlan> = gemms.iter().zip(&oriented).map(build).collect();

    // sigma-interconnect: the per-unit loading routes, cold and cached,
    // and the FAN reduction of each unit's products.
    let units = unit_loads(gemms, &plans);
    let dpe = gemms.first().map_or(128, |g| g.config.dpe_size());
    let net = BenesNetwork::new(dpe).map_err(|e| format!("Benes network of {dpe}: {e}"))?;
    let requests: Vec<Vec<Option<usize>>> = units
        .iter()
        .map(|u| (0..dpe).map(|i| (i < u.elements.len()).then_some(i)).collect())
        .collect();
    let mut route_ok = true;
    m.push((
        "interconnect.route_cold_us",
        per_call(requests.len(), || {
            time(|| {
                for r in &requests {
                    route_ok &= black_box(net.route_monotone_multicast(r)).is_ok();
                }
            })
        }) * 1e6,
        "us",
    ));
    let mut cache = RouteCache::new();
    for r in &requests {
        route_ok &= cache.route_monotone_multicast(&net, r).is_ok();
    }
    let warm_hits = cache.hits();
    m.push((
        "interconnect.route_hot_us",
        per_call(requests.len(), || {
            time(|| {
                for r in &requests {
                    route_ok &= black_box(cache.route_monotone_multicast(&net, r)).is_ok();
                }
            })
        }) * 1e6,
        "us",
    ));
    if !route_ok || cache.hits() - warm_hits != (REPS * requests.len()) as u64 {
        return Err("a loading route failed, or a warmed route cache missed".into());
    }
    let fan = Fan::new(dpe).map_err(|e| format!("FAN of {dpe}: {e}"))?;
    let products: Vec<Vec<f32>> = units
        .iter()
        .map(|u| {
            let mut p = vec![0.0f32; dpe];
            for (slot, e) in u.elements.iter().enumerate() {
                p[slot] = e.value;
            }
            p
        })
        .collect();
    let mut scratch = FanScratch::default();
    let mut red = FanReduction::default();
    let mut fan_ok = true;
    m.push((
        "interconnect.fan_reduce_ns",
        per_call(units.len(), || {
            time(|| {
                for (u, p) in units.iter().zip(&products) {
                    fan_ok &= fan.reduce_into(p, &u.vec_ids, &[], &mut scratch, &mut red).is_ok();
                    black_box(&red);
                }
            })
        }) * 1e9,
        "ns",
    ));
    if !fan_ok {
        return Err("FAN reduction rejected a controller-built layout".into());
    }

    // sigma-core Flex-DPE: load each unit, then time the compiled steps.
    let mut unit = FlexDpe::new(dpe).map_err(|e| format!("Flex-DPE of {dpe}: {e}"))?;
    let mut out = DpeStep::default();
    let columns = stream_columns(&oriented);
    let steps: usize = units.iter().map(|u| columns[u.gemm].len()).sum();
    let mut step_err = None;
    m.push((
        "core.dpe_step_ns",
        per_call(steps, || {
            let mut secs = 0.0;
            for u in &units {
                if let Err(e) = unit.load(&u.elements, &u.vec_ids) {
                    step_err = Some(e);
                }
                secs += time(|| {
                    for col in &columns[u.gemm] {
                        if let Err(e) = unit.step_compiled(col, &mut out) {
                            step_err = Some(e);
                        }
                        black_box(&out);
                    }
                });
            }
            secs
        }) * 1e9,
        "ns",
    ));
    if let Some(e) = step_err {
        return Err(format!("Flex-DPE step failed: {e}"));
    }

    // sigma-core engine: every GEMM under each dataflow, checked against
    // its reference; the workload's own dataflow gives the cycle split.
    let mut own = CycleStats::default();
    let mut nlr_macs = 0u128;
    let mut nlr_secs = 0.0;
    for (name, dataflow) in [
        ("core.run_gemm_ms.n_sta", Dataflow::WeightStationary),
        ("core.run_gemm_ms.m_sta", Dataflow::InputStationary),
        ("core.run_gemm_ms.nlr", Dataflow::NoLocalReuse),
    ] {
        let sims: Vec<SigmaSim> = gemms
            .iter()
            .map(|g| SigmaSim::new(g.config.with_dataflow(dataflow)))
            .collect::<Result<_, _>>()
            .map_err(|e| format!("cannot build SIGMA: {e}"))?;
        let mut failure = None;
        let (mut all, mut mine) = (CycleStats::default(), CycleStats::default());
        let ms = per_call(n, || {
            (all, mine) = (CycleStats::default(), CycleStats::default());
            let mut secs = 0.0;
            for (g, sim) in gemms.iter().zip(&sims) {
                let t = Instant::now();
                let run = sim.run_gemm(&g.a, &g.b);
                secs += t.elapsed().as_secs_f64();
                match run {
                    Ok(r) if g.check(&r.result) => {
                        all = all.merged(&r.stats);
                        if g.config.dataflow() == dataflow {
                            mine = mine.merged(&r.stats);
                        }
                    }
                    Ok(_) => failure = Some(format!("{} on {dataflow}: wrong result", g.label)),
                    Err(e) => failure = Some(format!("{} on {dataflow}: {e}", g.label)),
                }
            }
            secs
        }) * 1e3;
        if let Some(f) = failure {
            return Err(f);
        }
        if dataflow == Dataflow::NoLocalReuse {
            nlr_macs = all.useful_macs;
            nlr_secs = ms * 1e-3 * n as f64;
        }
        own = own.merged(&mine);
        m.push((name, ms, "ms"));
    }
    #[allow(clippy::cast_precision_loss)]
    let f = |x: u64| x as f64;
    m.push(("core.folds", f(own.folds), "count"));
    m.push(("core.load_cycles", f(own.loading_cycles), "cycles"));
    m.push(("core.stream_cycles", f(own.streaming_cycles), "cycles"));
    m.push(("core.add_cycles", f(own.add_cycles), "cycles"));
    m.push((
        "core.idle_skip_ratio",
        ratio(f(own.idle_cycles_skipped), f(own.streaming_cycles)),
        "ratio",
    ));
    #[allow(clippy::cast_precision_loss)]
    m.push((
        "core.useful_mac_ratio",
        ratio(own.useful_macs as f64, own.issued_macs as f64),
        "ratio",
    ));
    m.push((
        "interconnect.route_hit_ratio",
        ratio(f(own.route_cache_hits), f(own.route_cache_hits + own.route_cache_misses)),
        "ratio",
    ));
    #[allow(clippy::cast_precision_loss)]
    m.push(("core.nlr_ns_per_pair", ratio(nlr_secs * 1e9, nlr_macs as f64), "ns"));

    m.extend(fault_probe(seed, &gemms[..n.min(FAULT_GEMMS)])?);
    m.extend(harness_probe(seed)?);
    Ok(m)
}

/// `run_gemm_checked` under the seeded fault plans against `run_gemm` on
/// the same machines.
fn fault_probe(seed: u64, gemms: &[Gemm]) -> Result<Vec<Metric>, String> {
    let sims: Vec<SigmaSim> = gemms
        .iter()
        .map(|g| SigmaSim::new(g.config))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("cannot build SIGMA: {e}"))?;
    let plans: Vec<_> = (0..gemms.len()).map(|i| fault_plan(seed, i)).collect();
    let policy = RecoveryPolicy::default();
    let n = gemms.len();
    let mut counters = [0u64; 5];
    let mut failure = None;
    let checked = per_call(n, || {
        counters = [0; 5];
        let mut secs = 0.0;
        for ((g, sim), plan) in gemms.iter().zip(&sims).zip(&plans) {
            let t = Instant::now();
            let run = sim.run_gemm_checked(&g.a, &g.b, plan, &policy);
            secs += t.elapsed().as_secs_f64();
            match run {
                Ok((run, report)) => {
                    let c = report.counters;
                    for (acc, x) in counters.iter_mut().zip([
                        u64::from(report.attempts),
                        c.injected,
                        c.detected,
                        c.corrected,
                        c.escaped,
                    ]) {
                        *acc += x;
                    }
                    if c.escaped == 0 && !g.check(&run.result) {
                        failure = Some(format!("{}: recovered result is wrong", g.label));
                    }
                }
                Err(e) => failure = Some(format!("{}: checked run failed: {e}", g.label)),
            }
        }
        secs
    }) * 1e3;
    let clean = per_call(n, || {
        time(|| {
            for (g, sim) in gemms.iter().zip(&sims) {
                if black_box(sim.run_gemm(&g.a, &g.b)).is_err() {
                    failure = Some(format!("{}: clean run failed", g.label));
                }
            }
        })
    }) * 1e3;
    if let Some(f) = failure {
        return Err(f);
    }
    #[allow(clippy::cast_precision_loss)]
    let [attempts, injected, detected, corrected, escaped] = counters.map(|x| x as f64);
    Ok(vec![
        ("fault.checked_run_ms", checked, "ms"),
        ("fault.clean_run_ms", clean, "ms"),
        ("fault.attempts_per_gemm", ratio(attempts, n as f64), "count"),
        ("fault.injected", injected, "count"),
        ("fault.detected", detected, "count"),
        ("fault.corrected", corrected, "count"),
        ("fault.escaped", escaped, "count"),
    ])
}

/// Cold-then-warm passes of the `sweep_dse` grid with the flight recorder
/// on: per-stage mean latencies, cache economy and render time.
fn harness_probe(seed: u64) -> Result<Vec<Metric>, String> {
    let mut bench = SweepBench::new(seed)?;
    let rec = recorder();
    let mut cold = Vec::new();
    let mut warm = Vec::new();
    let mut render = 0.0;
    let (mut hits, mut lookups) = (0u64, 0u64);
    for _ in 0..HARNESS_PAIRS {
        let c = bench.cold(&rec)?;
        let w = bench.warm(&rec)?;
        cold.push(c.secs);
        warm.push(w.secs);
        render += c.render_secs + w.render_secs;
        for stats in [c.cache, w.cache] {
            hits += stats.hits;
            lookups += stats.hits + stats.misses + stats.coalesced;
        }
    }
    let snap = rec.snapshot();
    let stage_ms = |stage: &str| snap.stage(stage).map_or(0.0, |h| h.mean() / 1e3);
    #[allow(clippy::cast_precision_loss)]
    let cells = bench.cells() as f64;
    #[allow(clippy::cast_precision_loss)]
    Ok(vec![
        ("harness.queue_wait_ms", stage_ms("queue_wait"), "ms"),
        ("harness.materialize_ms", stage_ms("materialize"), "ms"),
        ("harness.engine_run_ms", stage_ms("engine_run"), "ms"),
        ("harness.journal_append_ms", stage_ms("journal_append"), "ms"),
        ("harness.journal_fsync_ms", stage_ms("journal_fsync"), "ms"),
        ("harness.cache_insert_ms", stage_ms("cache_insert"), "ms"),
        ("harness.cache_probe_ms", stage_ms("cache_probe"), "ms"),
        ("harness.cache_hit_ratio", ratio(hits as f64, lookups as f64), "ratio"),
        ("harness.render_ms", render / (2 * HARNESS_PAIRS) as f64 * 1e3, "ms"),
        ("harness.cold_cells_per_s", cells / median(&cold), "cells/s"),
        ("harness.warm_cells_per_s", cells / median(&warm), "cells/s"),
    ])
}
