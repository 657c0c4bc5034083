#!/usr/bin/env sh
# Local mirror of the CI pipeline: formatting, lints, build, tests.
# Run from the repo root: ./ci.sh
set -eux

cargo fmt --all -- --check
cargo clippy --workspace --all-targets -- -D warnings
# Static analysis gate: sigma-lint scans the workspace (including the
# event-scheduler module crates/core/src/sched.rs — the D-rules are what
# keep the epoch queue deterministic) for nondeterminism sources,
# panicking library code, truncating counter casts, unsafe outside the
# allowlist, unvalidated Engine impls, and — via the workspace-wide
# scope/lock-graph phase — lock-order inversions (D7), blocking I/O
# under a live guard (D8), and unbalanced flight-recorder spans (D9).
# --check-waivers also fails on stale lint.toml waivers and on a waiver
# list past the budget of five; the JSON and SARIF reports are kept as
# CI artifacts (the SARIF one feeds GitHub's inline PR annotations).
cargo run -q -p sigma-lint -- --check-waivers
cargo run -q -p sigma-lint -- --json > /tmp/sigma_lint_report.json
cargo run -q -p sigma-lint -- --sarif > /tmp/sigma_lint.sarif
# Lint-fixtures leg: the analyzer's own corpus (known-good and
# known-bad lock orders, blocking-under-guard, unbalanced spans, the
# waiver budget) must keep producing its exact finding lists.
cargo test -q -p sigma-lint
cargo build --workspace --release
cargo test --workspace -q
cargo run -q -p sigma-bench --bin fault_campaign -- --smoke --quiet
# Crash-safety gate: SIGKILL a journaled child sweep at seeded cell
# counts, resume from the surviving journal, and demand the final
# CSV/JSON renderings be byte-identical to an uninterrupted run.
cargo run -q --release -p sigma-bench --bin chaos_resume -- --smoke
# Figure identity gate: every all_figures table must match the committed
# results/csv byte for byte; a change that moves a figure regenerates
# results/csv in the same commit and says why.
rm -rf /tmp/sigma_ci_figs
cargo run -q --release -p sigma-bench --bin all_figures -- --csv /tmp/sigma_ci_figs --quiet
diff -r /tmp/sigma_ci_figs results/csv
# Perf regression gate: compare simulated-cycles-per-second against the
# committed BENCH_sim.json baseline (release build; the check self-skips
# in debug builds where timings are incomparable).
cargo run -q --release -p sigma-bench --bin perf_bench -- --check --smoke
# Telemetry smoke leg: the trace subcommand must emit a Chrome trace that
# passes its own validator, and a telemetry sweep must surface the new
# profiling columns and drop a telemetry_summary.json.
cargo run -q --release -p sigma-bench --bin sigma_cli -- trace \
    --out /tmp/sigma_ci.trace.json --m 24 --n 24 --k 24 \
    --input-sparsity 0.5 --weight-sparsity 0.5
grep -q '"traceEvents"' /tmp/sigma_ci.trace.json
cargo run -q --release -p sigma-bench --bin sigma_cli -- --sweep --telemetry \
    --workload 16:16:16:0.5:0.5 --output csv \
    --out /tmp/sigma_ci_telemetry_summary.json > /tmp/sigma_ci_sweep.csv
grep -q 'route_cache_hits' /tmp/sigma_ci_sweep.csv
grep -q 'wall_ms' /tmp/sigma_ci_sweep.csv
grep -q '"route_cache"' /tmp/sigma_ci_telemetry_summary.json
# Run-cache parity gate: the same sweep cold (empty store), warm (reused
# store), and cache-disabled must render byte-identical CSV and JSON —
# a cache hit may only ever serve the bytes the engine would produce.
rm -f /tmp/sigma_ci_cache.store
cargo run -q --release -p sigma-bench --bin sigma_cli -- --sweep \
    --workload 16:16:16:0.5:0.5 --cache /tmp/sigma_ci_cache.store \
    --cache-stats --output csv > /tmp/sigma_ci_cache_cold.csv
cargo run -q --release -p sigma-bench --bin sigma_cli -- --sweep \
    --workload 16:16:16:0.5:0.5 --cache /tmp/sigma_ci_cache.store \
    --cache-stats --output csv > /tmp/sigma_ci_cache_warm.csv
cargo run -q --release -p sigma-bench --bin sigma_cli -- --sweep \
    --workload 16:16:16:0.5:0.5 --output csv > /tmp/sigma_ci_cache_off.csv
cargo run -q --release -p sigma-bench --bin sigma_cli -- --sweep \
    --workload 16:16:16:0.5:0.5 --cache /tmp/sigma_ci_cache.store \
    --output json > /tmp/sigma_ci_cache_warm.json
cargo run -q --release -p sigma-bench --bin sigma_cli -- --sweep \
    --workload 16:16:16:0.5:0.5 --output json > /tmp/sigma_ci_cache_off.json
cmp /tmp/sigma_ci_cache_cold.csv /tmp/sigma_ci_cache_warm.csv
cmp /tmp/sigma_ci_cache_cold.csv /tmp/sigma_ci_cache_off.csv
cmp /tmp/sigma_ci_cache_warm.json /tmp/sigma_ci_cache_off.json
rm -f /tmp/sigma_ci_cache.store
# Run-cache bench leg: warm-sweep throughput must be >= 50x cold, with
# exactly-once execution for in-flight duplicate cells (the gate
# self-skips the speedup ratio in debug builds, like --check).
cargo run -q --release -p sigma-bench --bin perf_bench -- --dse-warm --smoke --quiet
# Flight-recorder smoke leg: a recorded sweep must drop an event log
# whose rendered Perfetto trace passes validate_chrome_trace with
# non-zero per-stage totals (the report only prints `stage X: count=`
# lines for stages that recorded spans), and the same sweep with the
# recorder off must stay byte-identical to the plain run above.
cargo run -q --release -p sigma-bench --bin sigma_cli -- --sweep \
    --workload 16:16:16:0.5:0.5 --flight-recorder /tmp/sigma_ci_flight.jsonl \
    --output csv > /tmp/sigma_ci_flight_on.csv
cargo run -q --release -p sigma-bench --bin sigma_cli -- report \
    --from /tmp/sigma_ci_flight.jsonl \
    --out /tmp/sigma_ci_flight.trace.json > /tmp/sigma_ci_flight_report.txt
grep -q '"traceEvents"' /tmp/sigma_ci_flight.trace.json
grep -q 'stage engine_run: count=' /tmp/sigma_ci_flight_report.txt
grep -q 'stage queue_wait: count=' /tmp/sigma_ci_flight_report.txt
cmp /tmp/sigma_ci_flight_on.csv /tmp/sigma_ci_cache_off.csv
# Recorder overhead gate: no recorder, a disabled handle, and an enabled
# recorder must render byte-identical sweep records/CSV/JSON, and the
# enabled leg's engine-run spans must reconcile with the grid's attempts.
cargo run -q --release -p sigma-bench --bin perf_bench -- --recorder-check --smoke --quiet
