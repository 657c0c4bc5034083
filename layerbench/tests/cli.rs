//! End-to-end checks of the benchmark binary against `BENCHMARK.json`.
//!
//! The binary runs at least 100 steps per run, so run these with
//! `cargo test --release --manifest-path layerbench/Cargo.toml`.

use std::process::Command;

/// The workloads `BENCHMARK.json` lists; `fault_abft` and `sweep_dse` run
/// only on demand.
const LISTED: [&str; 2] = ["train_stationary", "nlr_wave"];

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root")
}

/// The string values of `"key": "..."` pairs between `from` and `to`
/// (one object per line, as `BENCHMARK.json` is laid out).
fn values(text: &str, from: &str, to: &str, key: &str) -> Vec<String> {
    let start = text.find(from).unwrap_or_else(|| panic!("{from} missing"));
    let end = text[start..].find(to).map_or(text.len(), |i| start + i);
    let pat = format!("\"{key}\": \"");
    text[start..end]
        .lines()
        .filter_map(|l| {
            let i = l.find(&pat)? + pat.len();
            let j = l[i..].find('"')?;
            Some(l[i..i + j].to_string())
        })
        .collect()
}

struct Run {
    stdout: String,
    /// `(name, unit)` of every metric in the final JSON line.
    metrics: Vec<(String, String)>,
}

impl Run {
    fn line(&self, prefix: &str) -> &str {
        self.stdout
            .lines()
            .find(|l| l.starts_with(prefix))
            .unwrap_or_else(|| panic!("no {prefix:?} line in:\n{}", self.stdout))
    }

    fn digest(&self) -> String {
        self.line("digest ").to_string()
    }
}

fn run(workload: &str, seed: u64, trace: u8) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_layerbench"))
        .args(["--workload", workload, "--seed", &seed.to_string(), "--seconds", "0.5"])
        .args(["--trace", &trace.to_string()])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} exited with {}:\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("some output").to_string();
    assert!(last.starts_with("{\"correct\": true, "), "bad summary line {last}");
    let names: Vec<(String, String)> = stdout
        .lines()
        .filter_map(|l| l.strip_prefix("metric "))
        .map(|l| {
            let parts: Vec<&str> = l.split(' ').collect();
            assert_eq!(parts.len(), 3, "metric line {l:?} is not `name value unit`");
            let value: f64 = parts[1].parse().expect("numeric metric value");
            assert!(value.is_finite(), "{} is not finite", parts[0]);
            assert!(last.contains(&format!("\"{}\": {{\"value\": {value}, ", parts[0])));
            (parts[0].to_string(), parts[2].to_string())
        })
        .collect();
    Run { stdout, metrics: names }
}

fn declared(section: &str, next: &str) -> Vec<(String, String)> {
    let json = benchmark_json();
    let names = values(&json, section, next, "name");
    let units = values(&json, section, next, "unit");
    assert_eq!(names.len(), units.len());
    names.into_iter().zip(units).collect()
}

#[test]
fn metric_names_are_well_formed_and_match_benchmark_json() {
    let ok = |s: &str| {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let end_to_end = declared("\"end_to_end\"", "\"per_layer\"");
    let per_layer = declared("\"per_layer\"", "\u{0}");
    for (name, _) in end_to_end.iter().chain(&per_layer) {
        assert!(ok(name), "metric name {name:?} is outside [A-Za-z0-9_.-]+");
    }
    assert_eq!(run("train_stationary", 1, 0).metrics, end_to_end);
    assert_eq!(run("train_stationary", 1, 1).metrics, per_layer);
}

#[test]
fn every_reported_tail_percentile_has_ten_samples_beyond_it() {
    let r = run("train_stationary", 3, 0);
    let line = r.line("samples step_ms ");
    let beyond: usize = line
        .rsplit(' ')
        .next()
        .and_then(|x| x.parse().ok())
        .unwrap_or_else(|| panic!("bad samples line {line:?}"));
    assert!(beyond >= 10, "{line}");
}

#[test]
fn digest_repeats_across_invocations_and_with_tracing() {
    for workload in ["train_stationary", "fault_abft", "sweep_dse"] {
        let first = run(workload, 11, 0).digest();
        assert_eq!(run(workload, 11, 0).digest(), first, "{workload} digest moved between runs");
        assert_eq!(run(workload, 11, 1).digest(), first, "{workload} traced run diverged");
        assert_ne!(run(workload, 12, 0).digest(), first, "{workload} ignored its seed");
    }
}

#[test]
fn every_workload_gives_its_reason_and_a_held_out_seed() {
    let json = benchmark_json();
    let names = values(&json, "\"workloads\"", "\"end_to_end\"", "name");
    let whys = values(&json, "\"workloads\"", "\"end_to_end\"", "why");
    assert_eq!(names, LISTED);
    assert_eq!(whys.len(), LISTED.len());
    for (name, why) in names.iter().zip(&whys) {
        assert!(!why.trim().is_empty() && why.len() <= 200, "{name}: bad why {why:?}");
        assert!(why.contains("Held-out seed "), "{name}: no held-out seed named");
    }
}
