//! `sigma_cli --sweep --resume` over a shared `--cache` that an earlier
//! sweep filled: no cell executes, the journal still takes the whole
//! grid, and the flight-recorder event log carries the sweep's own
//! tallies, each named after what it counts, with every store span
//! labelled by the store it belongs to.

use std::path::Path;
use std::process::Command;

use sigma_bench::harness::{default_registry, read_event_log};
use sigma_telemetry::Stage;

/// Runs `sigma_cli` to success and returns its stdout and stderr.
fn sigma_cli(args: &[&str]) -> (String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_sigma_cli")).args(args).output().unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(out.status.success(), "sigma_cli {args:?} failed:\n{stderr}");
    (String::from_utf8(out.stdout).unwrap(), stderr)
}

fn text(path: &Path) -> &str {
    path.to_str().unwrap()
}

#[test]
fn resume_over_a_prefilled_cache_executes_nothing_and_logs_its_tallies() {
    let dir = std::env::temp_dir().join(format!("sigma_cli_resume_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (cache, journal, log) =
        (dir.join("cells.cache"), dir.join("sweep.journal"), dir.join("sweep.flight.jsonl"));
    let sweep = ["--sweep", "--workload", "16:16:16:0.5:0.5", "--output", "csv"];
    let cells = default_registry().len() as u64;

    let (filled, _) = sigma_cli(&[&sweep[..], &["--cache", text(&cache)]].concat());
    let (resumed, stderr) = sigma_cli(
        &[
            &sweep[..],
            &["--cache", text(&cache), "--resume", text(&journal)],
            &["--flight-recorder", text(&log)],
        ]
        .concat(),
    );
    assert_eq!(resumed, filled, "a resume renders the same bytes");
    let summary = format!("[resume] 0 cells replayed from {}, 0 executed", text(&journal));
    assert!(stderr.contains(&summary), "{stderr}");
    let journaled = std::fs::read_to_string(&journal).unwrap().lines().count() as u64;
    assert_eq!(journaled, cells, "the journal holds the whole grid");

    let log = read_event_log(&log).unwrap();
    assert!(log.warnings.is_empty(), "{:?}", log.warnings);
    let counters: Vec<(&str, u64)> =
        log.counters.iter().map(|(name, v)| (name.as_str(), *v)).collect();
    assert_eq!(
        counters,
        [
            ("cells_executed", 0),
            ("resume_hits", 0),
            ("cache_hits", cells),
            ("cache_misses", 0),
            ("cache_evictions", 0),
        ]
    );
    let count = |s: Stage| log.stage(s).map_or(0, |h| h.count);
    assert_eq!(count(Stage::QueueWait), cells);
    assert_eq!(count(Stage::EngineRun), 0, "every cell came from the cache");
    assert_eq!(count(Stage::CacheInsert), cells, "every cell went into the journal");

    // Each store's spans carry its file name, so they reconcile per
    // store: probes with its hits + misses, inserts with its insertions.
    let tally = |name: &str| counters.iter().find(|(n, _)| *n == name).map(|(_, v)| *v).unwrap();
    let spans = |stage: Stage, label: &dyn Fn(&str) -> bool| {
        log.spans.iter().filter(|s| s.stage == stage && label(&s.label)).count() as u64
    };
    let probes = |label: &str| spans(Stage::CacheProbe, &|l| l == label);
    let inserts = |file: &str| spans(Stage::CacheInsert, &|l| l.starts_with(&format!("{file}: ")));
    assert_eq!(probes("cells.cache hit"), tally("cache_hits"));
    assert_eq!(probes("cells.cache miss"), tally("cache_misses"));
    assert_eq!(inserts("cells.cache"), 0, "a warm cache takes no insert");
    assert_eq!(probes("sweep.journal hit"), tally("resume_hits"));
    assert_eq!(probes("sweep.journal miss"), cells - tally("resume_hits"));
    assert_eq!(inserts("sweep.journal"), journaled, "one insert per journal line");
    assert_eq!(
        probes("cells.cache hit")
            + probes("cells.cache miss")
            + probes("sweep.journal hit")
            + probes("sweep.journal miss"),
        count(Stage::CacheProbe),
        "every probe span names its store"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
