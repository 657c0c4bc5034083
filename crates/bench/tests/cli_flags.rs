//! Each mode of the bench binaries takes only its own flags. A flag of
//! another mode, a misspelled flag and a value that does not parse all
//! exit 2 before any work, with a message that names the flag and the
//! mode; `--help` keeps each binary's exit status.

use std::path::PathBuf;
use std::process::{Command, Output};

const SIGMA_CLI: &str = env!("CARGO_BIN_EXE_sigma_cli");
const PERF_BENCH: &str = env!("CARGO_BIN_EXE_perf_bench");
const CHAOS_RESUME: &str = env!("CARGO_BIN_EXE_chaos_resume");
const FAULT_CAMPAIGN: &str = env!("CARGO_BIN_EXE_fault_campaign");
const FIG01: &str = env!("CARGO_BIN_EXE_fig01_workloads");
const FUZZ: &str = env!("CARGO_BIN_EXE_fuzz_agreement");

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().unwrap()
}

/// Runs `bin` and asserts a usage error: status 2, nothing on stdout,
/// and a message that holds each of `names`.
fn refused(bin: &str, args: &[&str], names: &[&str]) {
    let out = run(bin, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}:\n{stderr}");
    assert!(out.stdout.is_empty(), "{bin} {args:?} did work before refusing");
    for name in names {
        assert!(stderr.contains(name), "{bin} {args:?} does not name {name}:\n{stderr}");
    }
}

/// One mode: its name in messages, the arguments that select it, and a
/// flag of another mode, a misspelled flag and a malformed value, each
/// with the token the message must name. A mode with no flag that takes
/// a value gets a stray value instead.
struct Mode {
    name: &'static str,
    select: &'static [&'static str],
    foreign: Option<(&'static [&'static str], &'static str)>,
    misspelled: (&'static [&'static str], &'static str),
    malformed: (&'static [&'static str], &'static str),
}

fn check_modes(bin: &str, modes: &[Mode]) {
    for mode in modes {
        let cases = [mode.foreign, Some(mode.misspelled), Some(mode.malformed)];
        for (extra, token) in cases.into_iter().flatten() {
            let args = [mode.select, extra].concat();
            refused(bin, &args, &[token, &format!("{} mode", mode.name)]);
        }
    }
}

#[test]
fn every_sigma_cli_mode_refuses_what_is_not_its_own() {
    check_modes(
        SIGMA_CLI,
        &[
            Mode {
                name: "analytic",
                select: &["--m", "8"],
                foreign: Some((&["--threads", "4"], "--threads")),
                misspelled: (&["--energyy"], "--energyy"),
                malformed: (&["--dpes", "x"], "--dpes x"),
            },
            Mode {
                name: "--engine",
                select: &["--engine", "eie", "--m", "8"],
                foreign: Some((&["--telemetry"], "--telemetry")),
                misspelled: (&["--sed", "3"], "--sed"),
                malformed: (&["--k", "eight"], "--k eight"),
            },
            Mode {
                name: "--sweep",
                select: &["--sweep", "--workload", "8:8:8"],
                foreign: Some((&["--telemetry"], "--telemetry")),
                misspelled: (&["--thread", "4"], "--thread"),
                malformed: (&["--threads", "x"], "--threads x"),
            },
            Mode {
                name: "trace",
                select: &["trace", "--m", "8"],
                foreign: Some((&["--output", "csv"], "--output")),
                misspelled: (&["--telemetri"], "--telemetri"),
                malformed: (&["--seed", "abc"], "--seed abc"),
            },
            Mode {
                name: "report",
                select: &["report", "--from", "trace"],
                foreign: Some((&["--seed", "1"], "--seed")),
                misspelled: (&["--metric"], "--metric"),
                // `--metrics` is a switch, so a value after it is stray.
                malformed: (&["--metrics", "json"], "unexpected json"),
            },
            Mode {
                name: "--list-engines",
                select: &["--list-engines"],
                foreign: Some((&["--m", "8"], "--m")),
                misspelled: (&["--verbose"], "--verbose"),
                malformed: (&["8"], "8"),
            },
        ],
    );
}

#[test]
fn the_engine_mode_writes_no_log_and_no_store() {
    let dir = std::env::temp_dir().join(format!("sigma_cli_flags_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (log, store): (PathBuf, PathBuf) = (dir.join("x.jsonl"), dir.join("c"));
    let (l, c) = (log.to_str().unwrap(), store.to_str().unwrap());
    let engine = ["--engine", "eie", "--m", "8", "--n", "8", "--k", "8"];
    refused(SIGMA_CLI, &[&engine[..], &["--flight-recorder", l]].concat(), &["--flight-recorder"]);
    refused(SIGMA_CLI, &[&engine[..], &["--cache", c]].concat(), &["--cache", "--engine mode"]);
    refused(
        SIGMA_CLI,
        &[&engine[..], &["--flight-recorder", l, "--cache", c, "--telemetry"]].concat(),
        &["--engine mode"],
    );
    assert!(!log.exists() && !store.exists(), "a refused run leaves no file");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn two_modes_at_once_are_refused() {
    refused(SIGMA_CLI, &["--sweep", "--engine", "eie"], &["--engine", "--sweep", "two modes"]);
    refused(SIGMA_CLI, &["trace", "report", "--from", "x"], &["trace", "report", "two modes"]);
    refused(PERF_BENCH, &["--dse-warm", "--recorder-check"], &["--dse-warm", "--recorder-check"]);
    // A mode's name given as a flag's value selects nothing.
    let out = run(SIGMA_CLI, &["report", "--from", "--sweep"]);
    assert_eq!(out.status.code(), Some(1), "{}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn every_perf_bench_mode_refuses_what_is_not_its_own() {
    check_modes(
        PERF_BENCH,
        &[
            // Every flag of another perf_bench mode is a ladder flag too.
            Mode {
                name: "ladder",
                select: &["--smoke"],
                foreign: None,
                misspelled: (&["--chek"], "--chek"),
                malformed: (&["--out"], "--out needs a value"),
            },
            Mode {
                name: "--dse-warm",
                select: &["--dse-warm", "--smoke"],
                foreign: Some((&["--out", "o.json"], "--out")),
                misspelled: (&["--quiett"], "--quiett"),
                malformed: (&["3"], "3"),
            },
            Mode {
                name: "--recorder-check",
                select: &["--recorder-check", "--smoke"],
                foreign: Some((&["--check"], "--check")),
                misspelled: (&["--smok"], "--smok"),
                malformed: (&["yes"], "yes"),
            },
        ],
    );
}

#[test]
fn perf_bench_has_no_telemetry_mode() {
    refused(PERF_BENCH, &["--telemetry", "--smoke"], &["--telemetry", "ladder mode"]);
    let help = run(PERF_BENCH, &["--help"]);
    let text = String::from_utf8_lossy(&[help.stdout, help.stderr].concat()).into_owned();
    assert!(!text.contains("--telemetry"), "perf_bench --help still lists --telemetry:\n{text}");
}

#[test]
fn sigma_cli_sweep_has_no_cache_cap() {
    let sweep = ["--sweep", "--workload", "8:8:8", "--cache-cap", "16"];
    refused(SIGMA_CLI, &sweep, &["--cache-cap", "--sweep mode"]);
    let help = run(SIGMA_CLI, &["--help"]);
    let text = String::from_utf8_lossy(&[help.stdout, help.stderr].concat()).into_owned();
    assert!(text.contains("--cache STORE"), "sigma_cli --help lost --cache:\n{text}");
    assert!(!text.contains("--cache-cap"), "sigma_cli --help still lists --cache-cap:\n{text}");
}

#[test]
fn both_chaos_resume_modes_refuse_what_is_not_their_own() {
    check_modes(
        CHAOS_RESUME,
        &[
            Mode {
                name: "parent",
                select: &["--smoke"],
                foreign: Some((&["--pace-ms", "abc"], "--pace-ms")),
                misspelled: (&["--smokee"], "--smokee"),
                malformed: (&["--journal"], "--journal"),
            },
            Mode {
                name: "--child",
                select: &["--child", "--journal", "unused.journal"],
                foreign: Some((&["--smoke"], "--smoke")),
                misspelled: (&["--pace", "5"], "--pace"),
                malformed: (&["--pace-ms", "abc"], "--pace-ms abc"),
            },
        ],
    );
}

#[test]
fn fault_campaign_and_figure_binaries_parse_before_they_work() {
    refused(FAULT_CAMPAIGN, &["--smoke", "--nope"], &["--nope", "--smoke"]);
    refused(FAULT_CAMPAIGN, &["--smoke", "--csv"], &["--csv needs a value"]);
    refused(FIG01, &["--quiet", "--smoke"], &["--smoke", "--csv DIR"]);
}

#[test]
fn fuzz_agreement_takes_one_count() {
    refused(FUZZ, &["abc"], &["COUNT abc", "usage: fuzz_agreement [COUNT]"]);
    refused(FUZZ, &["3", "--bogus"], &["unexpected --bogus", "usage: fuzz_agreement [COUNT]"]);
    refused(FUZZ, &["3", "4"], &["unexpected 4"]);
    let out = run(FUZZ, &["2"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("fuzz_agreement: 2 random GEMMs"));
}

#[test]
fn help_lists_every_mode_and_keeps_each_exit_status() {
    let cases: [(&str, i32, &[&str]); 5] = [
        (SIGMA_CLI, 2, &["--engine NAME", "--sweep", "trace", "report --from", "--list-engines"]),
        (PERF_BENCH, 0, &["--check", "--dse-warm", "--recorder-check"]),
        (CHAOS_RESUME, 0, &["--smoke", "--child --journal PATH"]),
        (FAULT_CAMPAIGN, 2, &["--smoke", "--quiet"]),
        (FIG01, 2, &["--csv DIR"]),
    ];
    for (bin, code, lines) in cases {
        let out = run(bin, &["--help"]);
        assert_eq!(out.status.code(), Some(code), "{bin} --help");
        let text = [out.stdout, out.stderr].concat();
        let text = String::from_utf8_lossy(&text);
        for line in lines {
            assert!(text.contains(line), "{bin} --help lacks {line}:\n{text}");
        }
    }
}
