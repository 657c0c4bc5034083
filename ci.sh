#!/usr/bin/env sh
# The CI pipeline: formatting, lints, build, tests and the identity and
# perf gates. CI runs this script as its one step; run it from the repo
# root the same way: ./ci.sh
set -eux

cargo fmt --all -- --check
cargo clippy --workspace --all-targets -- -D warnings
# Static analysis gate: sigma-lint scans the workspace (including the
# stationary engine crates/core/src/engine.rs — the D-rules are what
# keep its cycle accounting deterministic) for nondeterminism sources,
# panicking library code, truncating counter casts, unsafe outside
# UNSAFE_ALLOWLIST, unvalidated Engine impls, and — via the
# workspace-wide scope phase — locks taken out of the one order that
# LOCKS declares or missing from it (D7), blocking I/O under a live
# guard (D8), and unbalanced flight-recorder spans (D9).
# --check-waivers also fails on stale lint.toml waivers and on a waiver
# list past the budget of five; the SARIF log of unwaived findings is
# the one machine-readable report (CI uploads it for inline PR
# annotations).
cargo run -q -p sigma-lint -- --check-waivers
cargo run -q -p sigma-lint -- --sarif > /tmp/sigma_lint.sarif
# Lint tests: each rule D1-D9 planted into a live workspace file must
# produce its exact finding list, and the waiver budget must hold.
cargo test -q -p sigma-lint
# Rustdoc gate: the workspace crates document without a warning (the
# vendored test shims are excluded).
RUSTDOCFLAGS="-D warnings" cargo doc -q --workspace --no-deps --exclude rand --exclude proptest
cargo build --workspace --release
cargo test --workspace -q
# Release test leg: the bitwise oracle tests of the FAN and the engine
# also run optimized, where vectorized and scalar float code may part
# ways (NaN payloads) and a debug build would not show it.
cargo test --release -q -p sigma-interconnect -p sigma-core
cargo run -q -p sigma-bench --bin fault_campaign -- --smoke --quiet
# Crash-safety gate: SIGKILL a journaled child sweep at seeded cell
# counts, resume from the surviving journal, and demand the final
# CSV/JSON renderings be byte-identical to an uninterrupted run.
cargo run -q --release -p sigma-bench --bin chaos_resume -- --smoke
# Figure identity gate: every all_figures table must match the committed
# results/csv byte for byte, and the all_figures, ablations and
# tables_qualitative text must match results/*.txt; a change that moves a
# figure regenerates them in the same commit and says why.
rm -rf /tmp/sigma_ci_figs
cargo run -q --release -p sigma-bench --bin all_figures -- --csv /tmp/sigma_ci_figs \
    > /tmp/sigma_ci_all_figures.txt
diff -r /tmp/sigma_ci_figs results/csv
diff /tmp/sigma_ci_all_figures.txt results/all_figures.txt
cargo run -q --release -p sigma-bench --bin ablations > /tmp/sigma_ci_ablations.txt
diff /tmp/sigma_ci_ablations.txt results/ablations.txt
cargo run -q --release -p sigma-bench --bin tables_qualitative > /tmp/sigma_ci_tables.txt
diff /tmp/sigma_ci_tables.txt results/tables.txt
# Sweep identity gate: every registry engine on the demo workloads, with
# each Table-II phase, folds, MACs and max_abs_err, must match the
# committed results/sweep renderings byte for byte.
cargo run -q --release -p sigma-bench --bin sigma_cli -- --sweep --seed 7 --output csv \
    > /tmp/sigma_ci_sweep.csv
diff /tmp/sigma_ci_sweep.csv results/sweep/seed7.csv
cargo run -q --release -p sigma-bench --bin sigma_cli -- --sweep --seed 7 --output json \
    > /tmp/sigma_ci_sweep.json
diff /tmp/sigma_ci_sweep.json results/sweep/seed7.json
# Fault-campaign identity gate: the full campaign's tables must match the
# committed results/fault_campaign byte for byte.
rm -rf /tmp/sigma_ci_faults
cargo run -q --release -p sigma-bench --bin fault_campaign -- --csv /tmp/sigma_ci_faults --quiet
diff -r /tmp/sigma_ci_faults results/fault_campaign
# Engine identity gate: layerbench's digest folds the stats and result
# bits of every GEMM in a training step, so these pins catch any change
# to what the stationary and No-Local-Reuse engines compute; fault_abft
# runs the faulted step and its clean baseline inside run_gemm_checked;
# sweep_dse folds the sweep CSV/JSON bytes, which hold every analytic
# engine's product and each cell's error against the reference GEMM.
# A change that moves one on purpose re-pins it in the same commit and
# says why.
for pin in train_stationary:1:a7276609add1ba4f train_stationary:7919:32d2406d431e7258 \
    nlr_wave:1:4948c77f8a833b59 nlr_wave:7919:423adcb017cecae1 \
    fault_abft:1:c891eea38845f387 fault_abft:7919:c2db93611cc2eb1a \
    sweep_dse:1:c105f695cc6bac7a sweep_dse:7919:aadbb4ef87bc9c53; do
    workload=${pin%%:*}
    seed=${pin#*:}
    seed=${seed%%:*}
    cargo run -q --release --offline --manifest-path layerbench/Cargo.toml -- \
        --workload "$workload" --seed "$seed" --seconds 0.1 > /tmp/sigma_ci_layerbench.txt
    grep -qx "digest ${pin##*:}" /tmp/sigma_ci_layerbench.txt
done
# Telemetry smoke leg: the trace subcommand must emit a Chrome trace that
# passes its own validator, and with --telemetry print the run's work
# counts and the simulator's histograms to stderr.
cargo run -q --release -p sigma-bench --bin sigma_cli -- trace \
    --out /tmp/sigma_ci.trace.json --m 24 --n 24 --k 24 \
    --input-sparsity 0.5 --weight-sparsity 0.5 --telemetry 2> /tmp/sigma_ci.telemetry.txt
grep -q '"traceEvents"' /tmp/sigma_ci.trace.json
grep -q '^work counts: stream_steps [1-9]' /tmp/sigma_ci.telemetry.txt
grep -q '"multicast_fanout"' /tmp/sigma_ci.telemetry.txt
# Foreign-flag leg: each mode takes only its own flags, so an --engine run
# given the sweep's --flight-recorder and --cache and trace's --telemetry
# must exit 2 before any work and leave neither the log nor the store.
rm -rf /tmp/sigma_ci_foreign.jsonl /tmp/sigma_ci_foreign.cache
status=0
cargo run -q --release -p sigma-bench --bin sigma_cli -- --engine eie --m 8 --n 8 --k 8 \
    --flight-recorder /tmp/sigma_ci_foreign.jsonl --cache /tmp/sigma_ci_foreign.cache \
    --telemetry || status=$?
test "$status" -eq 2
test ! -e /tmp/sigma_ci_foreign.jsonl
test ! -e /tmp/sigma_ci_foreign.cache
# Run-cache parity gate: the same sweep cold (empty store), warm (reused
# store) and cache-disabled must render byte-identical CSV and JSON — a
# cache hit may only ever serve the bytes the engine would produce.
rm -f /tmp/sigma_ci_cache.store
cargo run -q --release -p sigma-bench --bin sigma_cli -- --sweep \
    --workload 16:16:16:0.5:0.5 --cache /tmp/sigma_ci_cache.store \
    --output csv > /tmp/sigma_ci_cache_cold.csv
cargo run -q --release -p sigma-bench --bin sigma_cli -- --sweep \
    --workload 16:16:16:0.5:0.5 --cache /tmp/sigma_ci_cache.store \
    --output csv > /tmp/sigma_ci_cache_warm.csv
cargo run -q --release -p sigma-bench --bin sigma_cli -- --sweep \
    --workload 16:16:16:0.5:0.5 --output csv > /tmp/sigma_ci_cache_off.csv
grep -q 'idle_cycles_skipped' /tmp/sigma_ci_cache_off.csv
cargo run -q --release -p sigma-bench --bin sigma_cli -- --sweep \
    --workload 16:16:16:0.5:0.5 --cache /tmp/sigma_ci_cache.store \
    --output json > /tmp/sigma_ci_cache_warm.json
cargo run -q --release -p sigma-bench --bin sigma_cli -- --sweep \
    --workload 16:16:16:0.5:0.5 --output json > /tmp/sigma_ci_cache_off.json
cmp /tmp/sigma_ci_cache_cold.csv /tmp/sigma_ci_cache_warm.csv
cmp /tmp/sigma_ci_cache_cold.csv /tmp/sigma_ci_cache_off.csv
cmp /tmp/sigma_ci_cache_warm.json /tmp/sigma_ci_cache_off.json
rm -f /tmp/sigma_ci_cache.store
# Flight-recorder smoke leg: a recorded sweep must drop an event log
# whose rendered Perfetto trace passes validate_chrome_trace, whose
# per-stage table shows non-zero engine_run and queue_wait counts, and
# whose report splits engine time by engine; its CSV must stay
# byte-identical to the plain run above (records carry no wall time).
cargo run -q --release -p sigma-bench --bin sigma_cli -- --sweep \
    --workload 16:16:16:0.5:0.5 --flight-recorder /tmp/sigma_ci_flight.jsonl \
    --output csv > /tmp/sigma_ci_flight_on.csv
cargo run -q --release -p sigma-bench --bin sigma_cli -- report \
    --from /tmp/sigma_ci_flight.jsonl \
    --out /tmp/sigma_ci_flight.trace.json > /tmp/sigma_ci_flight_report.txt
grep -q '"traceEvents"' /tmp/sigma_ci_flight.trace.json
grep -Eq '^ *engine_run +[1-9]' /tmp/sigma_ci_flight_report.txt
grep -Eq '^ *queue_wait +[1-9]' /tmp/sigma_ci_flight_report.txt
grep -q '^== flight engines ==' /tmp/sigma_ci_flight_report.txt
cmp /tmp/sigma_ci_flight_on.csv /tmp/sigma_ci_cache_off.csv
# Recorder overhead gate: no recorder, a disabled handle, and an enabled
# recorder must render byte-identical sweep records/CSV/JSON, and the
# enabled leg's engine-run spans must equal the cells it executed.
# A recorded sweep writes its progress line only to a terminal, so the
# --quiet run must leave stderr empty.
cargo run -q --release -p sigma-bench --bin perf_bench -- --recorder-check --smoke --quiet \
    2> /tmp/sigma_ci_recorder_check.err
test ! -s /tmp/sigma_ci_recorder_check.err
# The two host-timing legs run last, so a slow host that fails one of
# them cannot hide the deterministic legs above.
# Perf regression gate: compare simulated-cycles-per-second against the
# committed BENCH_sim.json baseline (release build; the check self-skips
# in debug builds where timings are incomparable).
cargo run -q --release -p sigma-bench --bin perf_bench -- --check --smoke
# Run-cache bench leg: cold, warm and uncached sweeps must render the
# same bytes, the cold pass must miss and each warm pass hit every cell,
# and warm-sweep throughput must be >= 50x cold (the gate self-skips the
# speedup ratio in debug builds, like --check).
cargo run -q --release -p sigma-bench --bin perf_bench -- --dse-warm --smoke --quiet
