//! The engine workloads: `train_stationary`, `nlr_wave` and `fault_abft`.
//!
//! A step runs every GEMM of the workload once on its own SIGMA instance,
//! one thread, and compares each result with the dense reference product
//! computed at set-up.

use crate::probe::ProbeSet;
use crate::{StepOutcome, Workload};
use sigma_bench::harness::derive_seed;
use sigma_core::model::GemmProblem;
use sigma_core::{
    CycleStats, Dataflow, FaultKind, FaultPlan, FaultSite, GemmRun, RecoveryPolicy, SigmaConfig,
    SigmaError, SigmaSim,
};
use sigma_interconnect::StuckLevel;
use sigma_matrix::abft::residual_tolerance;
use sigma_matrix::{GemmShape, Matrix, SparseMatrix};
use sigma_workloads::training::training_gemms;
use sigma_workloads::{fig1b_suite, materialize, SparsityProfile, Workload as Model};
use std::time::Instant;

/// Fig. 1b layers the training step is built from: (model, layer name).
const LAYERS: [(Model, &str); 7] = [
    (Model::Transformer, "QKV proj (fwd)"),
    (Model::Transformer, "FFN-1"),
    (Model::Transformer, "FFN-2"),
    (Model::Gnmt, "encoder LSTM gates"),
    (Model::Gnmt, "attention score"),
    (Model::DeepBench, "lstm 1760 b128"),
    (Model::DeepBench, "conv-as-gemm"),
];

/// Every Fig. 1b dimension is divided by this (rounding up), so a step
/// stays in the tens of milliseconds while keeping each layer's aspect.
pub const SCALE: usize = 16;

/// Multipliers per Flex-DPE in every benchmarked SIGMA instance.
const DPE_SIZE: usize = 128;

/// SIGMA sizes the step's GEMMs rotate through (1K to 4K PEs).
const PES: [usize; 3] = [1024, 2048, 4096];

/// The `fault_abft` step takes the Transformer layers only: the checked
/// path runs a clean baseline, the lockstep loop and ABFT per GEMM.
const FAULT_LAYERS: usize = 3;

/// Incremental FNV-1a over 64-bit words.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds `bytes` into the digest.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds one word into the digest.
    pub fn word(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    /// Folds the deterministic counters of one run into the digest.
    pub fn stats(&mut self, s: &CycleStats) {
        for x in [
            s.total_cycles(),
            s.loading_cycles,
            s.streaming_cycles,
            s.add_cycles,
            s.folds,
            s.route_cache_hits,
            s.route_cache_misses,
            s.idle_cycles_skipped,
            s.faults_injected,
            s.faults_detected,
            s.faults_corrected,
            s.faults_escaped,
        ] {
            self.word(x);
        }
        #[allow(clippy::cast_possible_truncation)]
        self.word(s.useful_macs as u64);
    }

    /// Folds every element of a result, bit for bit.
    pub fn matrix(&mut self, m: &Matrix) {
        for &v in m.as_slice() {
            self.word(u64::from(v.to_bits()));
        }
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// One GEMM of a workload with its inputs, reference and machine.
#[derive(Debug, Clone)]
pub struct Gemm {
    /// Layer and training-GEMM label, for error messages.
    pub label: String,
    /// Shape and densities the operands were generated from.
    pub problem: GemmProblem,
    /// Seed the operands were generated from.
    pub seed: u64,
    /// The `M x K` operand.
    pub a: SparseMatrix,
    /// The `K x N` operand.
    pub b: SparseMatrix,
    /// Dense reference product.
    pub reference: Matrix,
    /// Largest element error accepted against the reference.
    pub tol: f32,
    /// The SIGMA instance this GEMM runs on.
    pub config: SigmaConfig,
}

impl Gemm {
    /// Generates the operands of `problem` from `seed` and their reference
    /// product.
    pub fn new(label: String, problem: GemmProblem, seed: u64, config: SigmaConfig) -> Self {
        let (a, b) = materialize(&problem, seed);
        let reference = a.to_dense().matmul(&b.to_dense());
        let GemmShape { m, n, k } = problem.shape;
        let tol = residual_tolerance(m, n, k);
        Self { label, problem, seed, a, b, reference, tol, config }
    }

    /// Whether `result` matches the reference product.
    pub fn check(&self, result: &Matrix) -> bool {
        result.rows() == self.reference.rows()
            && result.cols() == self.reference.cols()
            && result.all_finite()
            && result.max_abs_diff(&self.reference) <= self.tol
    }
}

/// A SIGMA instance of `pes` multipliers in 128-wide Flex-DPEs.
pub fn sigma_config(pes: usize, dataflow: Dataflow) -> SigmaConfig {
    SigmaConfig::clamped(pes / DPE_SIZE, DPE_SIZE, DPE_SIZE, dataflow)
        .with_stream_bandwidth_clamped(pes)
}

/// The benchmarked Fig. 1b layers as `(label, forward shape)`, each
/// dimension divided by `scale`.
pub fn scaled_layers(scale: usize) -> Result<Vec<(String, GemmShape)>, String> {
    let suite = fig1b_suite();
    LAYERS
        .iter()
        .map(|(model, name)| {
            let s = suite
                .iter()
                .find(|g| g.workload == *model && g.layer == *name)
                .ok_or_else(|| format!("Fig. 1b suite has no {model}/{name} layer"))?
                .shape;
            let fwd = GemmShape::new(s.m.div_ceil(scale), s.n.div_ceil(scale), s.k.div_ceil(scale));
            Ok((format!("{model}/{name}"), fwd))
        })
        .collect()
}

/// The training step's GEMMs: forward, dX and dW of the first `layers`
/// scaled-down layers at `profile`'s sparsity. `dataflow(i)` picks the
/// dataflow of the `i`-th GEMM.
pub fn training_step(
    seed: u64,
    layers: usize,
    profile: SparsityProfile,
    dataflow: impl Fn(usize) -> Dataflow,
) -> Result<Vec<Gemm>, String> {
    let mut gemms = Vec::new();
    for (name, fwd) in scaled_layers(SCALE)?.into_iter().take(layers) {
        for (shape, pass) in training_gemms(fwd).into_iter().zip(["fwd", "dX", "dW"]) {
            let i = gemms.len();
            let cfg = sigma_config(PES[i % PES.len()], dataflow(i));
            let label = format!("{name} {pass} {}x{}x{}", shape.m, shape.n, shape.k);
            let problem = profile.problem(shape);
            gemms.push(Gemm::new(label, problem, derive_seed(seed, i as u64), cfg));
        }
    }
    Ok(gemms)
}

/// The seeded fault plan of the `i`-th checked GEMM. GEMMs rotate through
/// three fault classes, each in the first Flex-DPE at a seeded site among
/// the first eight slots, which the first fold always occupies:
///
/// * a transient multiplier-output flip of exponent bit 24, 25 or 26;
/// * a FAN adder with one of mantissa bits 0-3 stuck;
/// * a transient flip of exponent bit 24, 25 or 26 on a Benes output port.
///
/// With dense streamed operands every flip lands on a non-zero value and
/// multiplies or divides it by 4, 16 or 256, far beyond the ABFT
/// tolerance, so it is always detected and corrected in place. A stuck
/// low mantissa bit stays within the tolerance. Recovery therefore takes
/// the same path whatever the seed, which keeps the step's work, and
/// `sim_cycles`, independent of it. A stuck high bit would corrupt every
/// sum through the adder on every recompute and escape by design.
pub fn fault_plan(seed: u64, i: usize) -> FaultPlan {
    let r = |salt: u64| derive_seed(seed ^ 0xFA17, (i as u64) * 8 + salt);
    #[allow(clippy::cast_possible_truncation)]
    let pick = |salt: u64, n: usize| (r(salt) % n as u64) as usize;
    #[allow(clippy::cast_possible_truncation)]
    let flip = FaultKind::TransientFlip { bit: 24 + pick(0, 3) as u32 };
    let slot = pick(1, 8);
    match i % 3 {
        0 => FaultPlan::single(FaultSite::MultiplierOutput { dpe: 0, slot }, flip),
        1 => FaultPlan::single(
            FaultSite::FanAdder { dpe: 0, adder: 1 + pick(2, DPE_SIZE - 1) },
            FaultKind::StuckBit {
                #[allow(clippy::cast_possible_truncation)]
                bit: pick(3, 4) as u32,
                level: if r(4) % 2 == 0 { StuckLevel::Zero } else { StuckLevel::One },
            },
        ),
        _ => FaultPlan::single(FaultSite::BenesPort { dpe: 0, port: slot }, flip),
    }
}

/// An engine workload after set-up.
#[derive(Debug)]
pub struct EngineBench {
    gemms: Vec<Gemm>,
    sims: Vec<SigmaSim>,
    traced_sims: Vec<SigmaSim>,
    /// Armed fault plans, one per GEMM (`fault_abft` only).
    faults: Option<Vec<FaultPlan>>,
    policy: RecoveryPolicy,
}

impl EngineBench {
    fn new(gemms: Vec<Gemm>, faults: Option<Vec<FaultPlan>>) -> Result<Self, String> {
        let build = |g: &Gemm, telemetry: bool| {
            SigmaSim::new(g.config.with_telemetry(telemetry))
                .map_err(|e| format!("{}: cannot build SIGMA: {e}", g.label))
        };
        let sims = gemms.iter().map(|g| build(g, false)).collect::<Result<_, _>>()?;
        let traced_sims = gemms.iter().map(|g| build(g, true)).collect::<Result<_, _>>()?;
        Ok(Self { gemms, sims, traced_sims, faults, policy: RecoveryPolicy::default() })
    }

    /// Training steps at the paper's sparsity (50% inputs, 80% weights)
    /// on the stationary dataflows, alternating N-sta/M-str and
    /// M-sta/N-str GEMM by GEMM.
    pub fn train_stationary(seed: u64) -> Result<Self, String> {
        let df = |i: usize| {
            if i.is_multiple_of(2) {
                Dataflow::WeightStationary
            } else {
                Dataflow::InputStationary
            }
        };
        let gemms = training_step(seed, LAYERS.len(), SparsityProfile::PAPER_SPARSE, df)?;
        Self::new(gemms, None)
    }

    /// The same step on the No-Local-Reuse dataflow.
    pub fn nlr_wave(seed: u64) -> Result<Self, String> {
        let nlr = |_| Dataflow::NoLocalReuse;
        Self::new(training_step(seed, LAYERS.len(), SparsityProfile::PAPER_SPARSE, nlr)?, None)
    }

    /// ABFT-checked GEMMs under seeded fault plans: 80%-sparse weights
    /// stationary (N-sta/M-str), dense activations and gradients streamed.
    pub fn fault_abft(seed: u64) -> Result<Self, String> {
        let dense_streamed = SparsityProfile::new(0.0, 0.8);
        let gemms =
            training_step(seed, FAULT_LAYERS, dense_streamed, |_| Dataflow::WeightStationary)?;
        let plans = (0..gemms.len()).map(|i| fault_plan(seed, i)).collect();
        Self::new(gemms, Some(plans))
    }

    fn run_one(&self, i: usize, traced: bool) -> Result<GemmRun, SigmaError> {
        let g = &self.gemms[i];
        let sim = if traced { &self.traced_sims[i] } else { &self.sims[i] };
        match &self.faults {
            Some(plans) => sim.run_gemm_checked(&g.a, &g.b, &plans[i], &self.policy).map(|r| r.0),
            None => sim.run_gemm(&g.a, &g.b),
        }
    }
}

impl Workload for EngineBench {
    fn step(&mut self, traced: bool) -> StepOutcome {
        let t = Instant::now();
        let runs: Vec<_> = (0..self.gemms.len()).map(|i| self.run_one(i, traced)).collect();
        let secs = t.elapsed().as_secs_f64();

        let mut out =
            StepOutcome { step_secs: secs, sim_secs: Some(secs), ..StepOutcome::default() };
        let mut digest = Digest::default();
        for (g, run) in self.gemms.iter().zip(&runs) {
            out.attempted += 1;
            match run {
                Ok(run) => {
                    out.sim_cycles += run.stats.total_cycles();
                    digest.stats(&run.stats);
                    digest.matrix(&run.result);
                    if run.stats.faults_escaped > 0 || !g.check(&run.result) {
                        out.failed += 1;
                        eprintln!(
                            "layerbench: {} failed its output check (max error {}, tolerance {}, \
                             escaped faults {})",
                            g.label,
                            run.result.max_abs_diff(&g.reference),
                            g.tol,
                            run.stats.faults_escaped
                        );
                    }
                }
                Err(e) => {
                    out.failed += 1;
                    digest.word(u64::MAX);
                    eprintln!("layerbench: {} returned an error: {e}", g.label);
                }
            }
        }
        out.digest = digest.value();
        out
    }

    fn probe_set(&self) -> ProbeSet {
        ProbeSet { gemms: self.gemms.clone() }
    }
}
