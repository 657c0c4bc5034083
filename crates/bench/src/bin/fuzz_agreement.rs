//! Randomized functional-agreement fuzzer: runs random sparse GEMMs
//! through every registered engine — plus extra SIGMA configurations
//! covering all dataflows and both packing orders — and checks each
//! result against the reference GEMM, exiting non-zero on the first
//! disagreement.
//!
//! ```sh
//! cargo run -p sigma-bench --bin fuzz_agreement -- 200
//! ```
//!
//! The one argument is the GEMM count (default 100). A count that does
//! not parse, or any other argument, exits 2 with the usage line before
//! any GEMM runs.

use sigma_bench::harness::{default_registry, EngineEntry};
use sigma_bench::util::{exit_usage, Cli};
use sigma_core::{Dataflow, PackingOrder, SigmaConfig, SigmaSim};
use sigma_matrix::gen::{sparse_uniform, Density};

/// The fleet under test: the shared registry plus SIGMA variants that
/// the registry's single entry does not cover (every dataflow x packing
/// order on a deliberately small, fold-prone machine).
fn fleet() -> Vec<EngineEntry> {
    let mut entries = default_registry();
    for df in Dataflow::ALL {
        for order in [PackingOrder::GroupMajor, PackingOrder::ContractionMajor] {
            let cfg = SigmaConfig::new(2, 8, 8, df).unwrap().with_packing_order(order);
            entries.push(EngineEntry::new(
                format!("sigma-2x8-{df}-{order:?}").to_lowercase(),
                Box::new(SigmaSim::new(cfg).unwrap()),
            ));
        }
    }
    entries
}

fn main() {
    let cli = Cli::new("fuzz_agreement", 2, "", "[COUNT]");
    let mut args = cli.from_env();
    let iters: u64 = args.positional("COUNT").unwrap_or(100);
    args.finish().unwrap_or_else(|msg| exit_usage(&msg));
    let fleet = fleet();
    let mut state = 0x1234_5678_9abc_def0u64;
    let mut rng = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state >> 33
    };
    let mut runs = 0u64;
    for i in 0..iters {
        let m = (rng() % 14 + 1) as usize;
        let k = (rng() % 14 + 1) as usize;
        let n = (rng() % 14 + 1) as usize;
        let da = (rng() % 11) as f64 / 10.0;
        let db = (rng() % 11) as f64 / 10.0;
        let seed = rng();
        let a = sparse_uniform(m, k, Density::new(da).unwrap(), seed);
        let b = sparse_uniform(k, n, Density::new(db).unwrap(), seed ^ 0xf00d);
        let reference = a.to_dense().matmul(&b.to_dense());
        let tol = 1e-3 * k as f32;
        for entry in &fleet {
            let run = match entry.engine.run(&a, &b) {
                Ok(run) => run,
                Err(e) => {
                    eprintln!(
                        "ERROR iter {i}: {m}x{k}x{n} da={da} db={db} seed={seed} \
                         engine={}: {e}",
                        entry.slug
                    );
                    std::process::exit(1);
                }
            };
            runs += 1;
            if !run.result.approx_eq(&reference, tol) {
                eprintln!(
                    "MISMATCH iter {i}: {m}x{k}x{n} da={da} db={db} seed={seed} \
                     engine={} (max diff {})",
                    entry.slug,
                    run.result.max_abs_diff(&reference)
                );
                std::process::exit(1);
            }
        }
    }
    println!(
        "fuzz_agreement: {iters} random GEMMs x {} engines all agree ({runs} runs)",
        fleet.len()
    );
}
