//! End-to-end analyzer tests: a synthetic workspace seeded with one
//! violation per lint must produce findings with exact `file:line`
//! coordinates; each rule D1–D9 must fire on its bug planted into a live
//! workspace file; and the real workspace this crate ships in must scan
//! clean (every remaining finding waived in `lint.toml`).

use sigma_lint::{parse_waivers, run, run_with_waivers, Lint, Waiver};
use std::fs;
use std::path::{Path, PathBuf};

/// A scratch workspace under the target-adjacent temp dir, removed on
/// drop so reruns start clean.
struct FixtureWorkspace {
    root: PathBuf,
}

impl FixtureWorkspace {
    fn new(tag: &str) -> Self {
        let root =
            std::env::temp_dir().join(format!("sigma-lint-fixture-{}-{tag}", std::process::id()));
        if root.exists() {
            fs::remove_dir_all(&root).ok();
        }
        fs::create_dir_all(&root).unwrap();
        Self { root }
    }

    fn write(&self, rel: &str, contents: &str) {
        let path = self.root.join(rel);
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(path, contents).unwrap();
    }
}

impl Drop for FixtureWorkspace {
    fn drop(&mut self) {
        fs::remove_dir_all(&self.root).ok();
    }
}

/// Library source for a determinism-critical crate seeding D1–D5, with
/// line numbers pinned by the literal layout below.
const SEEDED_CORE_LIB: &str = "\
use std::collections::HashMap;            // line 1: D1 (hash iteration order)
use std::time::Instant;                   // line 2: D1 (wall clock)

pub fn cycles_total(total_cycles: u64) -> u32 {
    let t = Instant::now();               // line 5: D1
    let _ = t;
    total_cycles as u32                   // line 7: D3 (truncating counter cast)
}

pub fn lookup(m: &HashMap<u32, u32>) -> u32 {
    *m.get(&0).unwrap()                   // line 11: D2
}

pub unsafe fn poke(p: *mut u8) {          // line 14: D4
    let _ = p;
}

pub trait Engine {
    fn run(&self);
}

pub struct Broken;

impl Engine for Broken {                  // line 24: D5 (no validate_finite)
    fn run(&self) {}
}
";

fn seeded_workspace(tag: &str) -> FixtureWorkspace {
    let ws = FixtureWorkspace::new(tag);
    ws.write("Cargo.toml", "[workspace]\nmembers = [\"crates/core\"]\n");
    ws.write("crates/core/Cargo.toml", "[package]\nname = \"core\"\n");
    ws.write("crates/core/src/lib.rs", SEEDED_CORE_LIB);
    ws
}

#[test]
fn seeded_workspace_produces_every_lint_with_exact_lines() {
    let ws = seeded_workspace("all-lints");
    let report = run_with_waivers(&ws.root, Vec::new()).unwrap();

    assert_eq!(report.files_scanned, 1);
    assert!(!report.clean(false));

    let hits: Vec<(Lint, u32, &str)> =
        report.findings.iter().map(|f| (f.lint, f.line, f.token.as_str())).collect();
    // D1 fires on the HashMap import, the Instant import, and the call.
    assert!(hits.contains(&(Lint::D1, 1, "HashMap")), "{hits:?}");
    assert!(hits.contains(&(Lint::D1, 10, "HashMap")), "{hits:?}");
    assert!(hits.contains(&(Lint::D1, 5, "Instant")), "{hits:?}");
    assert!(hits.contains(&(Lint::D2, 11, ".unwrap()")), "{hits:?}");
    assert!(hits.contains(&(Lint::D3, 7, "total_cycles as u32")), "{hits:?}");
    assert!(hits.contains(&(Lint::D4, 14, "unsafe")), "{hits:?}");
    assert!(hits.iter().any(|(l, _, _)| *l == Lint::D5), "{hits:?}");

    // Every finding names the repo-relative fixture file.
    for f in &report.findings {
        assert_eq!(f.path, "crates/core/src/lib.rs");
        assert!(f.line >= 1);
        assert!(!f.hint.is_empty());
        // The rendered diagnostic is file:line-addressable.
        let rendered = f.to_string();
        assert!(
            rendered.starts_with(&format!("crates/core/src/lib.rs:{}: ", f.line)),
            "{rendered}"
        );
    }
}

#[test]
fn test_code_in_the_same_file_is_exempt_from_d2() {
    let ws = FixtureWorkspace::new("cfg-test");
    ws.write("Cargo.toml", "[workspace]\n");
    ws.write("crates/core/Cargo.toml", "[package]\n");
    ws.write(
        "crates/core/src/lib.rs",
        "pub fn ok() {}\n\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        \
         Some(1).unwrap();\n    }\n}\n",
    );
    let report = run_with_waivers(&ws.root, Vec::new()).unwrap();
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}

#[test]
fn waivers_suppress_and_go_stale() {
    let ws = seeded_workspace("waivers");
    let cover_d3 =
        Waiver { path: "crates/core/src/lib.rs".into(), lint: Lint::D3, reason: "fixture".into() };
    let stale = Waiver {
        path: "crates/core/src/nonexistent.rs".into(),
        lint: Lint::D1,
        reason: "covers nothing".into(),
    };
    let report = run_with_waivers(&ws.root, vec![cover_d3, stale.clone()]).unwrap();

    assert!(report.findings.iter().all(|f| f.lint != Lint::D3), "D3 should be waived");
    assert!(report.waived.iter().any(|f| f.lint == Lint::D3));
    assert_eq!(report.stale_waivers, vec![stale]);
    assert!(!report.clean(true), "stale waiver must fail --check-waivers");
}

#[test]
fn lint_toml_on_disk_is_honored_and_bad_toml_is_an_error() {
    let ws = seeded_workspace("lint-toml");
    ws.write(
        "lint.toml",
        "[[waiver]]\npath = \"crates/core/src/lib.rs\"\nlint = \"D4\"\nreason = \"fixture allocator\"\n",
    );
    let report = run(&ws.root).unwrap();
    assert!(report.findings.iter().all(|f| f.lint != Lint::D4));
    assert!(report.waived.iter().any(|f| f.lint == Lint::D4));

    ws.write("lint.toml", "[[waiver]]\npath = \"x.rs\"\nlint = \"D1\"\nreason = \"\"\n");
    assert!(run(&ws.root).is_err(), "empty reason must be rejected");
}

#[test]
fn bin_and_test_targets_are_exempt_from_d2_but_not_d4() {
    let ws = FixtureWorkspace::new("roles");
    ws.write("Cargo.toml", "[workspace]\n");
    ws.write("crates/core/Cargo.toml", "[package]\n");
    ws.write("crates/core/src/lib.rs", "pub fn ok() {}\n");
    ws.write("crates/core/src/bin/tool.rs", "fn main() { Some(1).unwrap(); }\n");
    ws.write(
        "crates/core/tests/it.rs",
        "#[test]\nfn t() {\n    Some(1).unwrap();\n    unsafe { std::hint::unreachable_unchecked() };\n}\n",
    );
    let report = run_with_waivers(&ws.root, Vec::new()).unwrap();
    assert!(report.findings.iter().all(|f| f.lint != Lint::D2), "{:?}", report.findings);
    // unsafe outside the allowlist is flagged even in tests.
    assert!(
        report.findings.iter().any(|f| f.lint == Lint::D4 && f.path == "crates/core/tests/it.rs"),
        "{:?}",
        report.findings
    );
}

#[test]
fn harness_persistence_writes_must_be_atomic() {
    let ws = FixtureWorkspace::new("d6");
    ws.write("Cargo.toml", "[workspace]\n");
    ws.write("crates/bench/Cargo.toml", "[package]\n");
    ws.write(
        "crates/bench/src/harness/store.rs",
        "pub fn save(path: &std::path::Path, data: &[u8]) -> std::io::Result<()> {\n    \
         std::fs::write(path, data)\n}\n\npub fn save_temp(tmp: &std::path::Path, data: &[u8]) \
         -> std::io::Result<()> {\n    std::fs::write(tmp, data)\n}\n",
    );
    let report = run_with_waivers(&ws.root, Vec::new()).unwrap();
    let d6: Vec<_> = report.findings.iter().filter(|f| f.lint == Lint::D6).collect();
    // The direct write is flagged; the temp-sibling write is the
    // sanctioned half of write-then-rename and passes.
    assert_eq!(d6.len(), 1, "{:?}", report.findings);
    assert_eq!((d6[0].line, d6[0].token.as_str()), (2, "fs::write"));
}

#[test]
fn a_sixth_waiver_breaks_the_budget_under_check_waivers() {
    let ws = FixtureWorkspace::new("budget");
    ws.write("Cargo.toml", "[workspace]\n");
    ws.write("crates/core/Cargo.toml", "[package]\n");
    let mut waivers = Vec::new();
    for i in 0..6 {
        let rel = format!("crates/core/src/m{i}.rs");
        ws.write(&rel, "pub fn f() { Some(1).unwrap(); }\n");
        waivers.push(Waiver { path: rel, lint: Lint::D2, reason: "fixture".into() });
    }
    let report = run_with_waivers(&ws.root, waivers).unwrap();
    // Every waiver is live and every finding covered — only the budget
    // is violated.
    assert!(report.findings.is_empty(), "{:?}", report.findings);
    assert!(report.stale_waivers.is_empty(), "{:?}", report.stale_waivers);
    assert!(report.clean(false), "budget only applies under --check-waivers");
    assert!(!report.clean(true), "a sixth waiver must fail --check-waivers");
}

#[test]
fn the_shipping_workspace_scans_clean() {
    // crates/lint/ -> crates/ -> repo root.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap().parent().unwrap();
    let report = run(root).unwrap();
    assert!(
        report.findings.is_empty(),
        "unwaived findings in the shipping workspace:\n{}",
        report.findings.iter().map(ToString::to_string).collect::<Vec<_>>().join("\n")
    );
    assert!(report.stale_waivers.is_empty(), "stale waivers: {:?}", report.stale_waivers);
    assert!(report.files_scanned > 50, "suspiciously few files: {}", report.files_scanned);
    // The waiver budget from the PR acceptance bar.
    assert!(report.waivers.len() <= 5, "waiver budget exceeded: {}", report.waivers.len());
    assert!(report.waivers.iter().all(|w| !w.reason.trim().is_empty()));
}

/// One rule's bug planted into a live workspace file. The file is read
/// through `include_str!`, so the plant follows the file as it changes.
struct Plant {
    /// What the plant shows.
    name: &'static str,
    /// Repo-relative path of the live file.
    path: &'static str,
    /// The live file's source.
    src: &'static str,
    /// Text that must occur exactly once in `src`.
    anchor: &'static str,
    /// The text that replaces `anchor`.
    replacement: &'static str,
    /// Every unwaived finding the planted file must produce.
    expect: &'static [(Lint, u32)],
}

const ENGINE: (&str, &str) =
    ("crates/core/src/engine.rs", include_str!("../../core/src/engine.rs"));
const ENGINES: (&str, &str) =
    ("crates/baselines/src/engines.rs", include_str!("../../baselines/src/engines.rs"));
const CHAOS: (&str, &str) =
    ("crates/bench/src/harness/chaos.rs", include_str!("../../bench/src/harness/chaos.rs"));
const CACHE: (&str, &str) =
    ("crates/bench/src/harness/cache.rs", include_str!("../../bench/src/harness/cache.rs"));

/// Anchors in `RunCache::lookup` and `RunCache::insert`; the
/// `_UNDER_STATE` ones sit where the `state` guard is live.
const LOOKUP_UNDER_STATE: &str = "        // The canonical comparison is the hit condition;";
const LOOKUP_RECORD: &str =
    "        self.recorder.span_since(Stage::CacheProbe, label, t0);\n        hit\n";
const INSERT_UNDER_STATE: &str = "        state.stats.insertions += 1;";
const INSERT_STORE: &str = "I/O lock only.\n        let mut store = self.lock_store();";

fn plant(
    name: &'static str,
    (path, src): (&'static str, &'static str),
    anchor: &'static str,
    replacement: &'static str,
    expect: &'static [(Lint, u32)],
) -> Plant {
    Plant { name, path, src, anchor, replacement, expect }
}

fn plants() -> Vec<Plant> {
    use Lint::*;
    let faults = "        let mut faults = faults.filter(|inj| !inj.is_empty());";
    vec![
        plant(
            "D1: a wall-clock read in SigmaSim::run_stationary",
            ENGINE,
            faults,
            "        let _t = Instant::now();\n        let mut faults = faults.filter(|inj| !inj.is_empty());",
            &[(D1, 421)],
        ),
        plant(
            "D2: an unwrap in SigmaSim::run_stationary",
            ENGINE,
            "let stream_bitmap: &Bitmap = corrupted.as_ref().unwrap_or(stored);",
            "let stream_bitmap: &Bitmap = corrupted.as_ref().unwrap();",
            &[(D2, 434)],
        ),
        plant(
            "D3: a streaming-cycle count narrowed to u32",
            ENGINE,
            "            stats.streaming_cycles += fold_stream;",
            "            stats.streaming_cycles += fold_stream;\n            let _narrow = stats.streaming_cycles as u32;",
            &[(D3, 588)],
        ),
        plant(
            "D4: an unsafe block in the stationary engine",
            ENGINE,
            faults,
            "        let mut faults = unsafe { faults.filter(|inj| !inj.is_empty()) };",
            &[(D4, 421)],
        ),
        plant(
            "D5: the chaos engine without validate_finite",
            CHAOS,
            "        sigma_core::validate_finite(a, b)?;\n",
            "",
            &[(D5, 19)],
        ),
        plant(
            "D5: the shared check_dims helper without validate_finite",
            ENGINES,
            "    sigma_core::validate_finite(a, b)\n}",
            "    Ok(())\n}",
            &[
                (D5, 54),
                (D5, 73),
                (D5, 88),
                (D5, 103),
                (D5, 118),
                (D5, 133),
                (D5, 148),
                (D5, 188),
                (D5, 236),
            ],
        ),
        plant(
            "D6: RunCache::compact_store writing the store in place",
            CACHE,
            "        write_atomic(&self.path, content.as_bytes())?;",
            "        std::fs::write(&self.path, content.as_bytes())?;",
            &[(D6, 630)],
        ),
        plant(
            "D7: RunCache::lookup re-entering state",
            CACHE,
            LOOKUP_UNDER_STATE,
            "        let again = self.lock();\n        // The canonical comparison is the hit condition;",
            &[(D7, 503)],
        ),
        plant(
            "D7: RunCache::lookup taking store under state",
            CACHE,
            LOOKUP_UNDER_STATE,
            "        let store = self.store.lock();\n        // The canonical comparison is the hit condition;",
            &[(D7, 503)],
        ),
        plant(
            "D7: RunCache::lookup taking store under state through lock_store",
            CACHE,
            LOOKUP_UNDER_STATE,
            "        let store = self.lock_store();\n        // The canonical comparison is the hit condition;",
            &[(D7, 503)],
        ),
        plant(
            "D7: RunCache::compact_store re-taking the store its parameter holds",
            CACHE,
            "    fn compact_store(&self, store: &mut StoreState) -> std::io::Result<()> {\n",
            "    fn compact_store(&self, store: &mut StoreState) -> std::io::Result<()> {\n        \
             let again = self.lock_store();\n",
            &[(D7, 616)],
        ),
        plant(
            "D7 (clean): `let _ =` drops a store guard at once in RunCache::insert",
            CACHE,
            INSERT_STORE,
            "I/O lock only.\n        let _ = self.lock_store();\n        let mut store = self.lock_store();",
            &[],
        ),
        plant(
            "D8: a sleep under state in RunCache::insert",
            CACHE,
            INSERT_UNDER_STATE,
            "        std::thread::sleep(std::time::Duration::from_millis(1));\n        state.stats.insertions += 1;",
            &[(D8, 567)],
        ),
        plant(
            "D8: a sync_data under state in RunCache::insert",
            CACHE,
            INSERT_UNDER_STATE,
            "        file.sync_data().ok();\n        state.stats.insertions += 1;",
            &[(D8, 567)],
        ),
        plant(
            "D8: a compaction, which fsyncs, under state in RunCache::lookup",
            CACHE,
            LOOKUP_UNDER_STATE,
            "        self.compact().ok();\n        // The canonical comparison is the hit condition;",
            &[(D8, 503)],
        ),
        plant(
            "D9: a `?` between begin and record in RunCache::append",
            CACHE,
            "        let wrote = store.file.write_all(line.as_bytes());\n        \
             self.recorder.span_since(Stage::JournalAppend, label, t0);\n        wrote?;",
            "        store.file.write_all(line.as_bytes())?;\n        \
             self.recorder.span_since(Stage::JournalAppend, label, t0);",
            &[(D9, 603)],
        ),
        plant(
            "D9: RunCache::lookup never recording its span (its counters lose it too)",
            CACHE,
            LOOKUP_RECORD,
            "        hit\n",
            &[(D9, 499), (D9, 513), (D9, 516)],
        ),
        plant(
            "D9: hits bumped after the CacheProbe span in RunCache::lookup",
            CACHE,
            LOOKUP_RECORD,
            "        self.recorder.span_since(Stage::CacheProbe, label, t0);\n        \
             self.lock().stats.hits += 1;\n        hit\n",
            &[(D9, 521)],
        ),
    ]
}

/// Lints one file placed at its repo path in a scratch workspace, with
/// the repo's own waivers.
fn live_findings(tag: &str, path: &str, src: &str) -> Vec<(Lint, String, u32)> {
    let ws = FixtureWorkspace::new(tag);
    ws.write(path, src);
    let waivers = parse_waivers(include_str!("../../../lint.toml")).unwrap();
    let report = run_with_waivers(&ws.root, waivers).unwrap();
    report.findings.iter().map(|f| (f.lint, f.path.clone(), f.line)).collect()
}

#[test]
fn every_rule_fires_on_its_bug_planted_in_live_code() {
    let plants = plants();
    for lint in Lint::ALL {
        assert!(
            plants.iter().any(|p| p.expect.iter().any(|(l, _)| *l == lint)),
            "no live plant shows {lint} firing"
        );
    }
    let mut failures = Vec::new();
    for (i, p) in plants.iter().enumerate() {
        assert_eq!(p.src.matches(p.anchor).count(), 1, "{}: anchor must occur once", p.name);
        let clean = live_findings(&format!("live-{i}"), p.path, p.src);
        assert_eq!(clean, vec![], "{}: the live file must scan clean", p.name);
        let planted = p.src.replacen(p.anchor, p.replacement, 1);
        let got = live_findings(&format!("plant-{i}"), p.path, &planted);
        let want: Vec<_> =
            p.expect.iter().map(|(l, line)| (*l, p.path.to_string(), *line)).collect();
        if got != want {
            failures.push(format!("{}:\n  want {want:?}\n  got  {got:?}", p.name));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
