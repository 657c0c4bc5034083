//! `sigma_cli --sweep --flight-recorder LOG`, then `sigma_cli report
//! --from LOG`: the log alone says where the sweep's engine time went,
//! split by engine so that the split sums to the `engine_run` stage, and
//! down to the slowest cell. A recorded sweep prints the same CSV as a
//! plain one, and `--sweep --telemetry` is refused.

use std::process::{Command, Output};

use sigma_bench::harness::default_registry;

fn sigma_cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sigma_cli")).args(args).output().unwrap()
}

/// Runs `sigma_cli` to success and returns its stdout.
fn stdout_of(args: &[&str]) -> String {
    let out = sigma_cli(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "sigma_cli {args:?} failed:\n{stderr}");
    String::from_utf8(out.stdout).unwrap()
}

/// The data rows of the rendered table titled `title`, split on
/// whitespace (no cell of the report's tables holds a space).
fn table_rows<'a>(report: &'a str, title: &str) -> Vec<Vec<&'a str>> {
    let heading = format!("== {title} ==");
    report
        .lines()
        .skip_while(|l| *l != heading)
        .skip(3)
        .take_while(|l| !l.is_empty())
        .map(|l| l.split_whitespace().collect())
        .collect()
}

#[test]
fn report_splits_engine_time_by_engine_and_names_the_slowest_cell() {
    let dir = std::env::temp_dir().join(format!("sigma_cli_report_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let log = dir.join("sweep.flight.jsonl");
    let log = log.to_str().unwrap();
    let workloads = ["16:16:16:0.5:0.5", "24:8:16"];
    let sweep = ["--sweep", "--workload", workloads[0], "--workload", workloads[1]];
    let sweep = [&sweep[..], &["--output", "csv"]].concat();

    let recorded = stdout_of(&[&sweep[..], &["--flight-recorder", log]].concat());
    assert_eq!(recorded, stdout_of(&sweep), "a recorded sweep prints the plain bytes");
    let report = stdout_of(&["report", "--from", log]);

    let stages = table_rows(&report, "flight stages");
    let engine_run = stages.iter().find(|r| r[0] == "engine_run").expect("an engine_run row");
    let (stage_count, stage_sum): (u64, u64) =
        (engine_run[1].parse().unwrap(), engine_run[2].parse().unwrap());
    let cells = (default_registry().len() * workloads.len()) as u64;
    assert_eq!(stage_count, cells, "{report}");

    // One row per engine, whose counts and sums add up to the stage's.
    let engines = table_rows(&report, "flight engines");
    let slugs: Vec<String> = default_registry().into_iter().map(|e| e.slug).collect();
    let mut listed: Vec<&str> = engines.iter().map(|r| r[0]).collect();
    let mut expected: Vec<&str> = slugs.iter().map(String::as_str).collect();
    listed.sort_unstable();
    expected.sort_unstable();
    assert_eq!(listed, expected, "{report}");
    let column = |i: usize| engines.iter().map(|r| r[i].parse::<u64>().unwrap()).sum::<u64>();
    assert_eq!(column(1), stage_count, "{report}");
    assert_eq!(column(2), stage_sum, "{report}");

    let slowest = report
        .lines()
        .find_map(|l| l.strip_prefix("[report] slowest cell: "))
        .and_then(|l| l.rsplit_once(" ("))
        .map(|(label, _)| label)
        .expect("a slowest-cell line");
    let grid: Vec<String> =
        slugs.iter().flat_map(|s| workloads.iter().map(move |w| format!("{s}: {w}"))).collect();
    assert!(grid.iter().any(|cell| cell == slowest), "{slowest:?} is not a grid cell");
    assert!(report.contains("[report] dropped spans: 0\n"), "{report}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_sweep_refuses_telemetry_and_names_the_flight_recorder() {
    let out = sigma_cli(&["--sweep", "--workload", "8:8:8", "--telemetry"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing runs");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("--flight-recorder"), "{stderr}");
}
