//! Fault-injection campaign: sweeps fault sites across engines and
//! reports ABFT coverage.
//!
//! Two legs:
//!
//! * **SIGMA microarchitectural leg** — seeded single-site faults
//!   (multiplier transients, FAN stuck-at bits, Benes port drops /
//!   misroutes / operand flips, bitmap-word corruption) injected into
//!   the cycle-accurate SIGMA datapath via
//!   [`SigmaSim::run_gemm_checked`], per dataflow;
//! * **output-corruption leg** — every registry engine runs clean, then
//!   one result element takes a single bit flip and the row/column
//!   checksums must flag (and, at single-site granularity, locate and
//!   repair) it.
//!
//! The binary self-checks and exits non-zero unless:
//!
//! * transient single-site faults with a numeric effect are detected at
//!   >= 99%, and
//! * fault-free control runs raise zero false positives.
//!
//! ```sh
//! cargo run -p sigma-bench --bin fault_campaign -- --smoke
//! ```
//!
//! Flags: `--smoke` (tiny trial counts for CI), plus the common
//! `--csv DIR` / `--json DIR` / `--quiet` emit flags. They are read
//! before the campaign runs: any other flag exits 2 at once.

use sigma_bench::harness::{default_registry, derive_seed, Emit, EMIT_FLAGS};
use sigma_bench::util::{exit_usage, Cli, Table};
use sigma_core::fault::{FaultKind, FaultPlan, FaultSite, StuckLevel};
use sigma_core::model::GemmProblem;
use sigma_core::{Dataflow, RecoveryPolicy, SigmaConfig, SigmaSim};
use sigma_interconnect::flip_bit;
use sigma_matrix::abft::{check_product, correct_single, residual_tolerance, AbftVerdict};
use sigma_matrix::GemmShape;
use sigma_workloads::materialize;

/// Per-(site-class, target) tally of one campaign cell.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    trials: u64,
    fired: u64,
    numeric: u64,
    detected: u64,
    corrected: u64,
    escaped: u64,
}

impl Tally {
    fn row(&self, class: &str, target: &str) -> Vec<String> {
        let rate = if self.numeric == 0 {
            "n/a".to_string()
        } else {
            format!("{:.1}%", 100.0 * self.detected as f64 / self.numeric as f64)
        };
        vec![
            class.to_string(),
            target.to_string(),
            self.trials.to_string(),
            self.fired.to_string(),
            self.numeric.to_string(),
            self.detected.to_string(),
            self.corrected.to_string(),
            self.escaped.to_string(),
            rate,
        ]
    }
}

/// The fault-site classes of the SIGMA leg. Transient classes feed the
/// >= 99% detection gate; persistent classes are reported for coverage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SiteClass {
    MultTransient,
    MultStuck,
    FanStuck,
    BenesFlip,
    BenesDrop,
    BenesMisroute,
    BitmapCorrupt,
}

impl SiteClass {
    const ALL: [SiteClass; 7] = [
        SiteClass::MultTransient,
        SiteClass::MultStuck,
        SiteClass::FanStuck,
        SiteClass::BenesFlip,
        SiteClass::BenesDrop,
        SiteClass::BenesMisroute,
        SiteClass::BitmapCorrupt,
    ];

    fn label(self) -> &'static str {
        match self {
            SiteClass::MultTransient => "mult transient flip",
            SiteClass::MultStuck => "mult stuck-at bit",
            SiteClass::FanStuck => "fan-adder stuck-at bit",
            SiteClass::BenesFlip => "benes operand flip",
            SiteClass::BenesDrop => "benes dropped port",
            SiteClass::BenesMisroute => "benes misrouted port",
            SiteClass::BitmapCorrupt => "bitmap word corruption",
        }
    }

    /// Transient single-event classes: exactly the gate population.
    fn is_transient(self) -> bool {
        matches!(self, SiteClass::MultTransient | SiteClass::BenesFlip | SiteClass::BitmapCorrupt)
    }

    /// Whether the datapath of `df` exercises this site class at all
    /// (the NLR path bypasses the Benes distribution and the bitmap
    /// streaming plan).
    fn reachable_under(self, df: Dataflow) -> bool {
        match self {
            SiteClass::MultTransient | SiteClass::MultStuck | SiteClass::FanStuck => true,
            SiteClass::BenesFlip
            | SiteClass::BenesDrop
            | SiteClass::BenesMisroute
            | SiteClass::BitmapCorrupt => df != Dataflow::NoLocalReuse,
        }
    }

    /// Builds the single-event plan for one trial from a seed.
    fn plan(self, s: u64, dpes: usize, dpe_size: usize) -> FaultPlan {
        let dpe = (s >> 8) as usize % dpes;
        let slot = (s >> 16) as usize % dpe_size;
        let adder = (s >> 24) as usize % (dpe_size - 1);
        let port = (s >> 32) as usize % dpe_size;
        // Mantissa-high / exponent-low bits: large enough deltas to have
        // a numeric effect on most (not all) operands.
        let bit = 20 + (s >> 40) as u32 % 11;
        let level = if s & 1 == 0 { StuckLevel::One } else { StuckLevel::Zero };
        match self {
            SiteClass::MultTransient => FaultPlan::single(
                FaultSite::MultiplierOutput { dpe, slot },
                FaultKind::TransientFlip { bit },
            ),
            SiteClass::MultStuck => FaultPlan::single(
                FaultSite::MultiplierOutput { dpe, slot },
                FaultKind::StuckBit { bit, level },
            ),
            SiteClass::FanStuck => FaultPlan::single(
                FaultSite::FanAdder { dpe, adder },
                FaultKind::StuckBit { bit, level },
            ),
            SiteClass::BenesFlip => FaultPlan::single(
                FaultSite::BenesPort { dpe, port },
                FaultKind::TransientFlip { bit },
            ),
            SiteClass::BenesDrop => {
                FaultPlan::single(FaultSite::BenesPort { dpe, port }, FaultKind::DroppedPort)
            }
            SiteClass::BenesMisroute => FaultPlan::single(
                FaultSite::BenesPort { dpe, port },
                FaultKind::MisroutedPort { from: (s >> 36) as usize % dpe_size },
            ),
            SiteClass::BitmapCorrupt => FaultPlan::single(
                FaultSite::BitmapWord { word: (s >> 48) as usize % 4 },
                FaultKind::CorruptWord { mask: 1u64 << ((s >> 52) % 64) },
            ),
        }
    }
}

/// Everything the gate needs, accumulated across the legs.
#[derive(Debug, Default)]
struct Gate {
    transient_numeric: u64,
    transient_detected: u64,
    false_positives: u64,
}

struct CampaignConfig {
    trials_per_cell: u64,
    controls_per_target: u64,
    problem: GemmProblem,
}

impl CampaignConfig {
    fn new(smoke: bool) -> Self {
        let shape = if smoke { GemmShape::new(10, 9, 12) } else { GemmShape::new(18, 14, 20) };
        Self {
            trials_per_cell: if smoke { 3 } else { 12 },
            controls_per_target: if smoke { 2 } else { 6 },
            problem: GemmProblem::sparse(shape, 0.6, 0.7),
        }
    }
}

/// The SIGMA microarchitectural leg: site classes x dataflows through
/// the cycle-accurate datapath with ABFT-checked recovery.
fn sigma_leg(cc: &CampaignConfig, gate: &mut Gate) -> Table {
    const DPES: usize = 4;
    const DPE_SIZE: usize = 8;
    let policy = RecoveryPolicy::default();
    let mut table = Table::new(
        "Fault campaign — SIGMA microarchitectural sites (ABFT-checked runs)",
        &[
            "site_class",
            "target",
            "trials",
            "fired",
            "numeric_effect",
            "detected",
            "corrected",
            "escaped",
            "detection_rate",
        ],
    );
    for df in Dataflow::ALL {
        let cfg = SigmaConfig::new(DPES, DPE_SIZE, DPES * DPE_SIZE, df)
            .expect("static campaign config is valid");
        let sim = SigmaSim::new(cfg).expect("static campaign config is valid");
        let target = format!("sigma {df}");

        // Fault-free controls: any detection here is a false positive.
        for t in 0..cc.controls_per_target {
            let seed = derive_seed(0xC0_0F_0F + t, 0x5151);
            let (a, b) = materialize(&cc.problem, seed);
            let (_, report) = sim
                .run_gemm_checked(&a, &b, &FaultPlan::none(), &policy)
                .expect("fault-free control run must succeed");
            gate.false_positives += report.counters.detected;
        }

        for class in SiteClass::ALL {
            if !class.reachable_under(df) {
                continue;
            }
            let mut tally = Tally::default();
            for t in 0..cc.trials_per_cell {
                let s = derive_seed(0xFA_17 + t, ((df as u64) << 8) | class as u64);
                let (a, b) = materialize(&cc.problem, s);
                let plan = class.plan(s, DPES, DPE_SIZE);
                let (_, report) = sim
                    .run_gemm_checked(&a, &b, &plan, &policy)
                    .expect("campaign operands are valid");
                tally.trials += 1;
                tally.fired += u64::from(!report.fired.is_empty());
                tally.numeric += u64::from(report.numeric_effect);
                tally.detected += u64::from(report.counters.detected > 0);
                tally.corrected += u64::from(report.counters.corrected > 0);
                tally.escaped += u64::from(report.counters.escaped > 0);
                if class.is_transient() && report.numeric_effect {
                    gate.transient_numeric += 1;
                    gate.transient_detected += u64::from(report.counters.detected > 0);
                }
            }
            table.push(tally.row(class.label(), &target));
        }
    }
    table
}

/// The output-corruption leg: every registry engine runs clean (false-
/// positive control), then one result element takes a transient bit
/// flip and the checksums must flag — and at single-site granularity,
/// locate and repair — it.
fn output_corruption_leg(cc: &CampaignConfig, gate: &mut Gate) -> Table {
    let mut table = Table::new(
        "Fault campaign — output corruption across the engine fleet (ABFT checksums)",
        &[
            "site_class",
            "target",
            "trials",
            "fired",
            "numeric_effect",
            "detected",
            "corrected",
            "escaped",
            "detection_rate",
        ],
    );
    let shape = cc.problem.shape;
    let tol = residual_tolerance(shape.m, shape.n, shape.k);
    for entry in default_registry() {
        let mut tally = Tally::default();
        for t in 0..cc.trials_per_cell {
            let s = derive_seed(0xAB_F7 + t, 0x1000 + tally.trials);
            let (a, b) = materialize(&cc.problem, s);
            let Ok(run) = entry.engine.run(&a, &b) else {
                // An engine refusing the campaign problem contributes no
                // trials (the registry fleet accepts these shapes today).
                continue;
            };
            let (ad, bd) = (a.to_dense(), b.to_dense());
            if !check_product(&ad, &bd, &run.result, tol).is_clean() {
                gate.false_positives += 1;
            }
            let row = (s >> 5) as usize % shape.m;
            let col = (s >> 17) as usize % shape.n;
            let bit = 20 + (s >> 41) as u32 % 11;
            let mut corrupted = run.result.clone();
            let clean_value = corrupted.get(row, col);
            corrupted.set(row, col, flip_bit(clean_value, bit));
            let delta = corrupted.get(row, col) - clean_value;
            let numeric = delta.is_nan() || delta.abs() > tol;
            tally.trials += 1;
            tally.fired += 1;
            tally.numeric += u64::from(numeric);
            let verdict = check_product(&ad, &bd, &corrupted, tol);
            let detected = !verdict.is_clean();
            tally.detected += u64::from(detected);
            if let AbftVerdict::SingleSite { row: r, col: c, delta } = verdict {
                correct_single(&mut corrupted, r, c, delta);
                if check_product(&ad, &bd, &corrupted, tol).is_clean() {
                    tally.corrected += 1;
                }
            }
            tally.escaped += u64::from(numeric && !detected);
            if numeric {
                gate.transient_numeric += 1;
                gate.transient_detected += u64::from(detected);
            }
        }
        table.push(tally.row("output bit flip", &entry.slug));
    }
    table
}

fn main() {
    let cli = Cli::new("fault_campaign", 2, "", &format!("[--smoke] {EMIT_FLAGS}"));
    let mut args = cli.from_env();
    let smoke = args.switch("--smoke");
    let emit = Emit::read(&mut args);
    args.finish().unwrap_or_else(|msg| exit_usage(&msg));

    let cc = CampaignConfig::new(smoke);
    let mut gate = Gate::default();
    let tables = [sigma_leg(&cc, &mut gate), output_corruption_leg(&cc, &mut gate)];
    emit.write(&tables, &mut std::io::stdout()).unwrap_or_else(|msg| exit_usage(&msg));

    let rate = if gate.transient_numeric == 0 {
        1.0
    } else {
        gate.transient_detected as f64 / gate.transient_numeric as f64
    };
    println!(
        "gate: transient detection {}/{} ({:.1}%), false positives {}",
        gate.transient_detected,
        gate.transient_numeric,
        100.0 * rate,
        gate.false_positives,
    );
    let mut failed = false;
    if rate < 0.99 {
        eprintln!("FAIL: transient single-site detection below 99%");
        failed = true;
    }
    if gate.false_positives > 0 {
        eprintln!("FAIL: ABFT flagged {} fault-free run(s)", gate.false_positives);
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!("fault campaign: PASS");
}
