//! The nine domain lints (D1–D9) over a lexed token stream.
//!
//! Every rule works on [`lex`](crate::lexer::lex) output, so comments,
//! doc comments, and string/raw-string literals can never trigger a
//! finding, and `#[cfg(test)]` items are recognized and exempted where
//! the policy allows test-only code more latitude. D1–D6 are
//! token-local; D7–D9 run as a second, workspace-wide phase on top of
//! the [`scopes`](crate::scopes) pass (see [`check_concurrency`]).
//!
//! | lint | invariant                                                        |
//! |------|------------------------------------------------------------------|
//! | D1   | no nondeterminism sources in crates that feed `RunRecord` output |
//! | D2   | no `unwrap`/`expect`/`panic!`/`todo!` in non-test library code   |
//! | D3   | no truncating casts on cycle/energy/MAC counters                 |
//! | D4   | `unsafe` only in the explicit allowlist                          |
//! | D5   | every `impl Engine` file validates operand finiteness            |
//! | D6   | harness persistence code writes files atomically (temp+rename)   |
//! | D7   | one global lock order: no inversions, no cycles, no re-entry     |
//! | D8   | no blocking calls (fsync/sleep/join/recv/..) while a guard lives |
//! | D9   | flight-recorder spans balance; counters bump inside their span   |

use crate::lexer::{lex, Token, TokenKind};
use crate::lockgraph;
use crate::scopes::{self, Acquisition, FileScopes};

/// Which rule produced a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Lint {
    /// Nondeterminism source (`HashMap`, `Instant`, `std::time`, ...) in
    /// a determinism-critical crate.
    D1,
    /// `unwrap`/`expect`/`panic!`/`todo!`/`unimplemented!` in library
    /// code outside `#[cfg(test)]`.
    D2,
    /// Truncating `as` cast on a cycle/energy/MAC counter expression.
    D3,
    /// `unsafe` outside the allowlist.
    D4,
    /// An `impl Engine` without operand finiteness validation.
    D5,
    /// A non-atomic file write (`File::create`/`fs::write` straight to
    /// the target path) in harness persistence code, where a crash
    /// mid-write must never corrupt a journal or result artifact.
    D6,
    /// A lock-order hazard: two sites acquiring the same pair of locks
    /// in opposite nesting order anywhere in the workspace, a longer
    /// acquisition cycle, or re-acquiring a lock whose guard is live.
    D7,
    /// A blocking operation (`fsync`/`sync_all`/`write_all`/`sleep`/
    /// `join`/`recv`, or a `Condvar::wait` on a *different* lock) while
    /// a lock guard is live, outside the documented allowlist.
    D8,
    /// An unbalanced flight-recorder span (a `now_us` begin with no
    /// matching `span_since` on an early-return/`?` path), or a
    /// `Stage`-tagged counter bumped outside its stage's span.
    D9,
}

impl Lint {
    /// The lint's short name (`"D1"`...).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Lint::D1 => "D1",
            Lint::D2 => "D2",
            Lint::D3 => "D3",
            Lint::D4 => "D4",
            Lint::D5 => "D5",
            Lint::D6 => "D6",
            Lint::D7 => "D7",
            Lint::D8 => "D8",
            Lint::D9 => "D9",
        }
    }

    /// Parses `"D1"`..`"D9"` (case-insensitive).
    #[must_use]
    pub fn parse(s: &str) -> Option<Lint> {
        match s.to_ascii_uppercase().as_str() {
            "D1" => Some(Lint::D1),
            "D2" => Some(Lint::D2),
            "D3" => Some(Lint::D3),
            "D4" => Some(Lint::D4),
            "D5" => Some(Lint::D5),
            "D6" => Some(Lint::D6),
            "D7" => Some(Lint::D7),
            "D8" => Some(Lint::D8),
            "D9" => Some(Lint::D9),
            _ => None,
        }
    }

    /// All lints, in order (drives rule metadata emission, e.g. SARIF).
    pub const ALL: [Lint; 9] =
        [Lint::D1, Lint::D2, Lint::D3, Lint::D4, Lint::D5, Lint::D6, Lint::D7, Lint::D8, Lint::D9];

    /// One-line rule description (SARIF rule metadata, `--help`).
    #[must_use]
    pub fn description(self) -> &'static str {
        match self {
            Lint::D1 => "no nondeterminism sources in determinism-critical crates",
            Lint::D2 => "no unwrap/expect/panic!/todo! in non-test library code",
            Lint::D3 => "no truncating casts on cycle/energy/MAC counters",
            Lint::D4 => "unsafe only in the explicit allowlist",
            Lint::D5 => "every impl Engine file validates operand finiteness",
            Lint::D6 => "harness persistence writes files atomically (temp+rename)",
            Lint::D7 => "one global lock order: no inversions, cycles, or re-entry",
            Lint::D8 => "no blocking operations while a lock guard is live",
            Lint::D9 => {
                "flight-recorder spans balance on all paths; stage counters \
                         bump only inside their stage's span"
            }
        }
    }
}

impl std::fmt::Display for Lint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One diagnostic: where, which rule, what token, and how to fix it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule that fired.
    pub lint: Lint,
    /// Repo-relative path with forward slashes.
    pub path: String,
    /// 1-based source line.
    pub line: u32,
    /// The offending token text.
    pub token: String,
    /// Human-readable fix hint.
    pub hint: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: {}: `{}` — {}", self.path, self.line, self.lint, self.token, self.hint)
    }
}

/// What kind of target a file belongs to, derived from its path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileRole {
    /// Part of a crate's library target (`src/` minus `src/bin`).
    Lib,
    /// A binary target (`src/bin/*` or `src/main.rs`).
    Bin,
    /// Integration tests, benches, or examples.
    TestOrBench,
}

/// Per-file lint policy, derived from the workspace layout by
/// [`Workspace`](crate::analyzer::Workspace).
#[derive(Debug, Clone)]
pub struct FilePolicy {
    /// Repo-relative path, forward slashes.
    pub path: String,
    /// Role of the file in its crate.
    pub role: FileRole,
    /// Whether D1 applies (determinism-critical crate, library code).
    pub determinism_critical: bool,
    /// Whether this file may contain `unsafe` (D4 allowlist).
    pub unsafe_allowed: bool,
}

/// Identifiers whose presence in determinism-critical code means the
/// output can depend on something other than the inputs.
const D1_IDENTS: &[&str] = &[
    "HashMap",
    "HashSet",
    "RandomState",
    "DefaultHasher",
    "Instant",
    "SystemTime",
    "ThreadId",
    "thread_rng",
];

/// Method names that panic on `Err`/`None`.
const D2_METHODS: &[&str] = &["unwrap", "expect", "unwrap_err", "expect_err"];

/// Macros that abort the simulation instead of reporting an error.
const D2_MACROS: &[&str] = &["panic", "todo", "unimplemented"];

/// Cast targets that can truncate a 64-bit counter.
const D3_NARROW: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32", "f32"];

/// Identifier segments that mark a counter expression (split on `_`).
const COUNTER_SEGMENTS: &[&str] =
    &["cycle", "cycles", "mac", "macs", "energy", "joule", "joules", "pj", "nj", "latency"];

/// Library code under this prefix owns durable artifacts (the run
/// journal, sweep exports) and must write them atomically (lint D6):
/// write a temp sibling, sync, rename over the target.
const D6_ATOMIC_WRITE_PREFIX: &str = "crates/bench/src/harness/";

/// Runs every applicable rule over one file's source.
#[must_use]
pub fn check_file(policy: &FilePolicy, src: &str) -> Vec<Finding> {
    let tokens = lex(src);
    // Significant tokens only (no whitespace/comments); rules reason over
    // these, and map back to lines through the retained spans.
    let sig: Vec<&Token> = tokens
        .iter()
        .filter(|t| {
            !matches!(
                t.kind,
                TokenKind::Whitespace | TokenKind::LineComment | TokenKind::BlockComment
            )
        })
        .collect();
    let in_test = test_regions(&sig, src);

    let mut findings = Vec::new();
    let lib_code = policy.role == FileRole::Lib;

    for (i, tok) in sig.iter().enumerate() {
        let text = tok.text(src);
        let test_code = in_test[i];

        // D4: unsafe anywhere (test or not) outside the allowlist.
        if tok.kind == TokenKind::Ident && text == "unsafe" && !policy.unsafe_allowed {
            findings.push(Finding {
                lint: Lint::D4,
                path: policy.path.clone(),
                line: tok.line,
                token: text.to_string(),
                hint: "unsafe is allowed only in lint.toml-allowlisted files; rewrite safely or \
                       extend the allowlist with a reason"
                    .into(),
            });
        }

        if test_code {
            continue;
        }

        // D1: nondeterminism sources in determinism-critical library code.
        if policy.determinism_critical && lib_code && tok.kind == TokenKind::Ident {
            if D1_IDENTS.contains(&text) {
                findings.push(Finding {
                    lint: Lint::D1,
                    path: policy.path.clone(),
                    line: tok.line,
                    token: text.to_string(),
                    hint: d1_hint(text).into(),
                });
            } else if text == "time" && path_prefix_is(&sig, src, i, "std")
                || text == "current" && path_prefix_is(&sig, src, i, "thread")
            {
                findings.push(Finding {
                    lint: Lint::D1,
                    path: policy.path.clone(),
                    line: tok.line,
                    token: qualified_tail(&sig, src, i),
                    hint: "wall-clock and thread identity must not reach cycle accounting; \
                           derive everything from the inputs and the seed"
                        .into(),
                });
            }
        }

        // D2: panicking constructs in non-test library code.
        if lib_code && tok.kind == TokenKind::Ident {
            let prev_dot = i > 0 && sig[i - 1].text(src) == ".";
            let next = sig.get(i + 1).map(|t| t.text(src));
            if D2_METHODS.contains(&text) && prev_dot && next == Some("(") {
                findings.push(Finding {
                    lint: Lint::D2,
                    path: policy.path.clone(),
                    line: tok.line,
                    token: format!(".{text}()"),
                    hint: "library code must not panic: propagate with `?`, return an \
                           EngineError/SigmaError, or use an infallible fallback"
                        .into(),
                });
            } else if D2_MACROS.contains(&text) && next == Some("!") {
                findings.push(Finding {
                    lint: Lint::D2,
                    path: policy.path.clone(),
                    line: tok.line,
                    token: format!("{text}!"),
                    hint: "library code must not panic: return an error variant instead".into(),
                });
            }
        }

        // D3: truncating casts on counter expressions.
        if lib_code && tok.kind == TokenKind::Ident && text == "as" {
            if let Some(finding) = check_cast(policy, &sig, src, i) {
                findings.push(finding);
            }
        }

        // D6: non-atomic writes in harness persistence library code.
        // Writing a temp sibling first (any argument identifier naming
        // `tmp`/`temp`) is the sanctioned half of write-then-rename.
        if lib_code
            && policy.path.starts_with(D6_ATOMIC_WRITE_PREFIX)
            && tok.kind == TokenKind::Ident
            && (text == "create" && path_prefix_is(&sig, src, i, "File")
                || text == "write" && path_prefix_is(&sig, src, i, "fs"))
            && sig.get(i + 1).map(|t| t.text(src)) == Some("(")
            && !call_args_mention_temp(&sig, src, i + 1)
        {
            findings.push(Finding {
                lint: Lint::D6,
                path: policy.path.clone(),
                line: tok.line,
                token: qualified_tail(&sig, src, i),
                hint: "a crash mid-write must never corrupt a durable artifact: write a temp \
                       sibling, sync, and rename over the target (see RunCache::compact), \
                       or carry a lint.toml waiver"
                    .into(),
            });
        }
    }

    // D5: files that implement Engine must validate finiteness somewhere.
    if lib_code {
        findings.extend(check_engine_impls(policy, &sig, src, &in_test));
    }

    findings
}

fn d1_hint(ident: &str) -> &'static str {
    match ident {
        "HashMap" | "HashSet" => {
            "iteration order is seeded per-process (RandomState); use BTreeMap/BTreeSet or a \
             sorted Vec so routing, caching, and exports are reproducible"
        }
        "RandomState" | "DefaultHasher" => {
            "RandomState hashes differ across processes; use a deterministic container or hasher"
        }
        "Instant" | "SystemTime" => {
            "wall-clock reads make cycle output depend on the host; count simulated cycles only"
        }
        "ThreadId" => "thread identity varies across schedulers; key data on deterministic ids",
        "thread_rng" => "thread_rng is seeded from the OS; thread a SplitMix64 seed through",
        _ => "nondeterminism source; derive everything from inputs and the seed",
    }
}

/// Whether the `::`-path before `sig[i]` starts with `prefix` (e.g.
/// `std :: time` for `path_prefix_is(.., "std")` at the `time` token).
fn path_prefix_is(sig: &[&Token], src: &str, i: usize, prefix: &str) -> bool {
    i >= 3
        && sig[i - 1].text(src) == ":"
        && sig[i - 2].text(src) == ":"
        && sig[i - 3].text(src) == prefix
}

/// D6: whether the call whose `(` sits at `sig[open]` names a temp
/// file — any argument identifier containing `tmp`/`temp` marks the
/// write as the temp half of a write-then-rename sequence.
fn call_args_mention_temp(sig: &[&Token], src: &str, open: usize) -> bool {
    let mut depth = 0usize;
    for tok in sig.iter().skip(open) {
        match tok.text(src) {
            "(" => depth += 1,
            ")" => {
                depth -= 1;
                if depth == 0 {
                    return false;
                }
            }
            t if tok.kind == TokenKind::Ident => {
                let lower = t.to_ascii_lowercase();
                if lower.contains("tmp") || lower.contains("temp") {
                    return true;
                }
            }
            _ => {}
        }
    }
    false
}

/// Renders `prefix::tail` for a path finding (e.g. `std::time`).
fn qualified_tail(sig: &[&Token], src: &str, i: usize) -> String {
    if i >= 3 {
        format!("{}::{}", sig[i - 3].text(src), sig[i].text(src))
    } else {
        sig[i].text(src).to_string()
    }
}

/// Marks, for each significant token, whether it sits inside a
/// `#[cfg(test)]`-gated item (attribute included).
pub(crate) fn test_regions(sig: &[&Token], src: &str) -> Vec<bool> {
    let mut flags = vec![false; sig.len()];
    let mut i = 0usize;
    while i < sig.len() {
        if sig[i].text(src) == "#" && sig.get(i + 1).map(|t| t.text(src)) == Some("[") {
            let (end, is_test) = scan_attribute(sig, src, i + 1);
            if is_test {
                // Mark the attribute, any stacked attributes, and the
                // gated item through its closing brace or semicolon.
                let mut j = end + 1;
                // Skip further attributes on the same item.
                while j < sig.len()
                    && sig[j].text(src) == "#"
                    && sig.get(j + 1).map(|t| t.text(src)) == Some("[")
                {
                    let (e, _) = scan_attribute(sig, src, j + 1);
                    j = e + 1;
                }
                // Find the item body: first `{` (block) or `;` (statement).
                let mut depth = 0usize;
                while j < sig.len() {
                    match sig[j].text(src) {
                        "{" => {
                            depth += 1;
                        }
                        "}" => {
                            depth = depth.saturating_sub(1);
                            if depth == 0 {
                                break;
                            }
                        }
                        ";" if depth == 0 => break,
                        _ => {}
                    }
                    j += 1;
                }
                let region_end = j.min(sig.len().saturating_sub(1));
                for f in flags.iter_mut().take(region_end + 1).skip(i) {
                    *f = true;
                }
                i = j + 1;
                continue;
            }
            i = end + 1;
            continue;
        }
        i += 1;
    }
    flags
}

/// Scans the attribute starting at the `[` at `open`. Returns the index
/// of the matching `]` and whether the attribute gates on `test`
/// (`cfg(test)`, `cfg(all(test, ..))` — but not `cfg(not(test))` and not
/// `cfg_attr(..)`).
fn scan_attribute(sig: &[&Token], src: &str, open: usize) -> (usize, bool) {
    let mut depth = 0usize;
    let mut j = open;
    let mut first_ident: Option<&str> = None;
    let mut paren_stack: Vec<&str> = Vec::new();
    let mut last_ident: &str = "";
    let mut is_test = false;
    while j < sig.len() {
        let t = sig[j].text(src);
        match t {
            "[" => depth += 1,
            "]" => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            "(" => paren_stack.push(last_ident),
            ")" => {
                paren_stack.pop();
            }
            _ => {
                if sig[j].kind == TokenKind::Ident {
                    if first_ident.is_none() {
                        first_ident = Some(t);
                    }
                    if t == "test" && first_ident == Some("cfg") && !paren_stack.contains(&"not") {
                        is_test = true;
                    }
                    last_ident = t;
                }
            }
        }
        j += 1;
    }
    (j.min(sig.len().saturating_sub(1)), is_test)
}

/// D3: decides whether the `as` at `sig[i]` narrows a counter.
fn check_cast(policy: &FilePolicy, sig: &[&Token], src: &str, i: usize) -> Option<Finding> {
    let target = sig.get(i + 1)?;
    let target_text = target.text(src);
    let narrow = D3_NARROW.contains(&target_text);
    let to_usize = target_text == "usize" || target_text == "isize";
    if !narrow && !to_usize {
        return None;
    }
    let names = operand_idents(sig, src, i, to_usize);
    let hit = names.iter().find(|n| is_counter_ident(n))?;
    Some(Finding {
        lint: Lint::D3,
        path: policy.path.clone(),
        line: sig[i].line,
        token: format!("{hit} as {target_text}"),
        hint: "cycle/energy/MAC counters are 64-bit; widen to u64/f64 or convert with \
               try_from and surface an EngineError on overflow"
            .into(),
    })
}

/// Collects the identifiers of the expression immediately before an
/// `as` at `sig[i]`, walking back through field accesses, `::` paths,
/// and one level of parenthesized groups; when the walk lands on a
/// struct-literal field (`name: <expr> as ..`), the field name is
/// included. `strict` (used for `as usize`) only walks plain
/// ident/field/empty-call chains, so quantizing arithmetic like
/// `(x * pool).floor() as usize` is not flagged.
fn operand_idents(sig: &[&Token], src: &str, i: usize, strict: bool) -> Vec<String> {
    let mut names = Vec::new();
    let mut j = match i.checked_sub(1) {
        Some(v) => v,
        None => return names,
    };
    loop {
        let t = sig[j].text(src);
        let next_j = match t {
            ")" | "]" => {
                let open = if t == ")" { "(" } else { "[" };
                // Scan back to the matching opener, collecting idents.
                let mut depth = 1usize;
                let mut k = j;
                let mut opener: Option<usize> = None;
                while k > 0 {
                    k -= 1;
                    let tk = sig[k].text(src);
                    if tk == t {
                        depth += 1;
                    } else if tk == open {
                        depth -= 1;
                        if depth == 0 {
                            opener = Some(k);
                            break;
                        }
                    } else if sig[k].kind == TokenKind::Ident {
                        if strict {
                            // Strict mode tolerates only empty call parens.
                            return names;
                        }
                        names.push(tk.to_string());
                    }
                }
                match opener {
                    Some(k) => k.checked_sub(1),
                    None => None,
                }
            }
            "." | ":" => j.checked_sub(1),
            _ if sig[j].kind == TokenKind::Ident => {
                names.push(t.to_string());
                j.checked_sub(1)
            }
            _ if sig[j].kind == TokenKind::Number => j.checked_sub(1),
            _ => None,
        };
        match next_j {
            Some(v) => j = v,
            None => return names,
        }
    }
}

fn is_counter_ident(name: &str) -> bool {
    name.split('_').any(|seg| COUNTER_SEGMENTS.contains(&seg.to_ascii_lowercase().as_str()))
}

/// D5: every `impl Engine for ..` site requires the file to reference
/// `validate_finite` (directly or via a helper defined in-file).
fn check_engine_impls(
    policy: &FilePolicy,
    sig: &[&Token],
    src: &str,
    in_test: &[bool],
) -> Vec<Finding> {
    let mut has_validate = false;
    let mut impl_sites: Vec<(u32, String)> = Vec::new();
    for (i, tok) in sig.iter().enumerate() {
        if tok.kind != TokenKind::Ident {
            continue;
        }
        let text = tok.text(src);
        if text == "validate_finite" || text == "all_finite" {
            has_validate = true;
        }
        if text == "Engine" && sig.get(i + 1).map(|t| t.text(src)) == Some("for") && !in_test[i] {
            // Require an `impl` within the preceding few tokens (skips
            // generic params like `impl<E: Engine + ?Sized> Engine for`).
            let back = i.saturating_sub(12);
            let is_impl = (back..i).any(|k| sig[k].text(src) == "impl");
            if is_impl {
                let target: String = sig
                    .iter()
                    .skip(i + 2)
                    .take(4)
                    .take_while(|t| t.text(src) != "{")
                    .map(|t| t.text(src))
                    .collect::<Vec<_>>()
                    .join("");
                impl_sites.push((tok.line, target));
            }
        }
    }
    if has_validate {
        return Vec::new();
    }
    impl_sites
        .into_iter()
        .map(|(line, target)| Finding {
            lint: Lint::D5,
            path: policy.path.clone(),
            line,
            token: format!("impl Engine for {target}"),
            hint: "engine entry points must reject NaN/Inf operands: call \
                   sigma_core::validate_finite (or carry a lint.toml waiver)"
                .into(),
        })
        .collect()
}

// ---------------------------------------------------------------------
// Phase two: workspace-wide concurrency discipline (D7–D9).
// ---------------------------------------------------------------------

/// Method calls that block the current thread. `join` only counts with
/// an empty argument list (`handle.join()`, not `strings.join(", ")`).
const D8_PRIMITIVES: &[&str] = &[
    "sync_all",
    "sync_data",
    "fsync",
    "write_all",
    "sleep",
    "join",
    "recv",
    "recv_timeout",
    "wait",
    "wait_timeout",
];

/// Names never treated as calls into workspace blocking functions when
/// propagating blockingness to call sites: these collide with ubiquitous
/// std collection/guard methods (`BTreeMap::insert` is not
/// `RunCache::insert`). Direct primitives are always checked; the
/// denylist only gates *name-based* propagation.
const D8_CALL_DENYLIST: &[&str] = &[
    "insert",
    "remove",
    "push",
    "pop",
    "get",
    "get_mut",
    "set",
    "clear",
    "extend",
    "drain",
    "entry",
    "contains",
    "contains_key",
    "clone",
    "iter",
    "next",
    "write",
    "read",
    "lock",
    "send",
    "flush",
    "take",
    "len",
    "is_empty",
    "new",
    "default",
    "min",
    "max",
    "map",
    "filter",
    "collect",
    "push_back",
    "pop_front",
    "append_value",
    "notify_all",
    "notify_one",
];

/// `(path, lock display, reason)` triples exempt from D8: locks whose
/// *documented job* is serializing durable I/O. Mirrors the D4 unsafe
/// allowlist — in-code so the exemption carries its justification.
pub const D8_IO_LOCK_ALLOWLIST: &[(&str, &str, &str)] = &[(
    "crates/bench/src/harness/cache.rs",
    "RunCache.store",
    "the store mutex is the designated I/O-serialization lock: append+compact must be \
         atomic w.r.t. each other, and the index lock is only taken under it briefly to \
         snapshot entries for compaction, never the reverse",
)];

/// `Stage`-tagged counters and the stage span they must bump inside.
const D9_STAGE_COUNTERS: &[(&str, &str)] = &[
    ("hits", "CacheProbe"),
    ("misses", "CacheProbe"),
    ("coalesced", "CacheProbe"),
    ("insertions", "CacheInsert"),
    ("evictions", "CacheInsert"),
];

/// Runs the cross-file concurrency rules over the whole workspace:
/// D7 on the lock graph, D8 on guard extents, D9 on flight-recorder
/// span balance in harness code.
#[must_use]
pub fn check_concurrency(files: &[(FilePolicy, String)]) -> Vec<Finding> {
    let inputs: Vec<(&str, &str)> =
        files.iter().map(|(p, s)| (p.path.as_str(), s.as_str())).collect();
    let scopes = scopes::analyze(&inputs);
    let lib: std::collections::BTreeMap<&str, bool> =
        files.iter().map(|(p, _)| (p.path.as_str(), p.role == FileRole::Lib)).collect();

    let mut findings = lockgraph::check(&scopes);
    findings.extend(check_blocking(&scopes, &lib));
    for file in &scopes.files {
        if lib.get(file.path).copied().unwrap_or(false)
            && file.path.starts_with(D6_ATOMIC_WRITE_PREFIX)
        {
            findings.extend(check_span_balance(file));
        }
    }
    findings
}

/// D8: blocking operations while a guard is live. Blockingness
/// propagates by name through workspace functions (fixpoint), filtered
/// by [`D8_CALL_DENYLIST`].
fn check_blocking(
    scopes: &scopes::WorkspaceScopes<'_>,
    lib: &std::collections::BTreeMap<&str, bool>,
) -> Vec<Finding> {
    use std::collections::BTreeSet;

    // Fixpoint: function names whose bodies (directly or transitively)
    // hit a blocking primitive.
    let mut blocking: BTreeSet<&str> = BTreeSet::new();
    loop {
        let mut changed = false;
        for file in &scopes.files {
            for f in &file.functions {
                if blocking.contains(f.name.as_str()) {
                    continue;
                }
                let blocks = (f.body.0 + 1..f.body.1).any(|m| {
                    !file.in_test[m]
                        && (primitive_site(file, m) || propagated_call_site(file, m, &blocking))
                });
                if blocks {
                    blocking.insert(f.name.as_str());
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    let mut findings = Vec::new();
    for file in &scopes.files {
        if !lib.get(file.path).copied().unwrap_or(false) {
            continue;
        }
        for f in &file.functions {
            for m in f.body.0 + 1..f.body.1 {
                if file.in_test[m] {
                    continue;
                }
                let primitive = primitive_site(file, m);
                let propagated = propagated_call_site(file, m, &blocking);
                if !primitive && !propagated {
                    continue;
                }
                let live: Vec<&Acquisition> =
                    f.acquisitions.iter().filter(|a| a.covers(m)).collect();
                if live.is_empty() {
                    continue;
                }
                // The cache's documented lease-wait: `cond.wait(guard)`
                // hands the *only* live guard to the condvar, which is
                // exactly how in-flight dedup is supposed to park.
                if matches!(file.text(m), "wait" | "wait_timeout")
                    && live.len() == 1
                    && first_arg_ident(file, m) == live[0].guard
                {
                    continue;
                }
                let mut reported = false;
                for a in &live {
                    if D8_IO_LOCK_ALLOWLIST
                        .iter()
                        .any(|(p, l, _)| *p == file.path && *l == a.lock.display)
                    {
                        continue;
                    }
                    if reported {
                        break; // one finding per site even under nested guards
                    }
                    reported = true;
                    let what = if primitive { "blocks" } else { "transitively blocks" };
                    findings.push(Finding {
                        lint: Lint::D8,
                        path: file.path.to_string(),
                        line: file.sig[m].line,
                        token: format!(".{}()", file.text(m)),
                        hint: format!(
                            "`{}` {what} while holding `{}` (taken at line {}): move the \
                             operation outside the guard, or register the lock as a \
                             designated I/O lock in D8_IO_LOCK_ALLOWLIST",
                            f.qualified(),
                            a.lock.display,
                            a.line
                        ),
                    });
                }
            }
        }
    }
    findings
}

/// Whether sig index `m` is a direct blocking primitive call.
fn primitive_site(file: &FileScopes<'_>, m: usize) -> bool {
    let t = file.text(m);
    if !D8_PRIMITIVES.contains(&t)
        || file.sig[m].kind != TokenKind::Ident
        || file.sig.get(m + 1).map(|x| x.text(file.src)) != Some("(")
    {
        return false;
    }
    // Method (`.wait(`) or path (`thread::sleep(`) position only.
    let called = m >= 1 && matches!(file.text(m - 1), "." | ":");
    if !called {
        return false;
    }
    // `.join(` only blocks with no arguments; `parts.join(", ")` is
    // string concatenation.
    if t == "join" {
        return file.sig.get(m + 2).map(|x| x.text(file.src)) == Some(")");
    }
    true
}

/// Whether sig index `m` calls a workspace function marked blocking
/// (by unqualified name, gated by the denylist).
fn propagated_call_site(
    file: &FileScopes<'_>,
    m: usize,
    blocking: &std::collections::BTreeSet<&str>,
) -> bool {
    let t = file.text(m);
    file.sig[m].kind == TokenKind::Ident
        && file.sig.get(m + 1).map(|x| x.text(file.src)) == Some("(")
        && !D8_CALL_DENYLIST.contains(&t)
        && !D8_PRIMITIVES.contains(&t)
        && blocking.contains(t)
}

/// First identifier of the first argument of the call at `m`.
fn first_arg_ident(file: &FileScopes<'_>, m: usize) -> Option<String> {
    let mut j = m + 2; // past the `(`
    while j < file.sig.len() {
        match file.text(j) {
            ")" | "," => return None,
            "&" | "mut" | "*" => j += 1,
            t if file.sig[j].kind == TokenKind::Ident => return Some(t.to_string()),
            _ => return None,
        }
    }
    None
}

/// One recorder-span begin: `name = <recv>.now_us()`.
struct SpanBegin {
    name: String,
    site: usize,
    line: u32,
}

/// One recorder-span end: `span_since(Stage::X, label, start)` or
/// `record_span(Stage::X, label, start, end)`.
struct SpanEnd {
    stage: Option<String>,
    start_var: Option<String>,
    site: usize,
    line: u32,
}

/// D9 over one harness file: every span begin needs a matching end with
/// no `?`/`return` escaping between them, ends need a visible begin (or
/// a caller-supplied parameter), and stage counters may only be bumped
/// inside a span of their stage.
fn check_span_balance(file: &FileScopes<'_>) -> Vec<Finding> {
    let mut findings = Vec::new();
    for f in &file.functions {
        let mut begins: Vec<SpanBegin> = Vec::new();
        let mut ends: Vec<SpanEnd> = Vec::new();
        for m in f.body.0 + 1..f.body.1 {
            if file.in_test[m] || file.sig[m].kind != TokenKind::Ident {
                continue;
            }
            match file.text(m) {
                "now_us" if file.sig.get(m + 1).map(|t| t.text(file.src)) == Some("(") => {
                    if let Some(begin) = span_begin_at(file, m) {
                        begins.push(begin);
                    }
                }
                "span_since" | "record_span"
                    if file.sig.get(m + 1).map(|t| t.text(file.src)) == Some("(") =>
                {
                    ends.push(span_end_at(file, m));
                }
                _ => {}
            }
        }

        for b in &begins {
            let matched: Vec<&SpanEnd> = ends
                .iter()
                .filter(|e| e.site > b.site && e.start_var.as_deref() == Some(b.name.as_str()))
                .collect();
            let Some(first) = matched.first() else {
                findings.push(Finding {
                    lint: Lint::D9,
                    path: file.path.to_string(),
                    line: b.line,
                    token: format!("{} = ..now_us()", b.name),
                    hint: format!(
                        "`{}` begins a span at `{}` but never records it; every begin needs \
                         a span_since/record_span on all paths",
                        f.qualified(),
                        b.name
                    ),
                });
                continue;
            };
            for m in b.site + 1..first.site {
                let is_escape = (file.text(m) == "?" && file.sig[m].kind == TokenKind::Punct)
                    || (file.text(m) == "return" && file.sig[m].kind == TokenKind::Ident);
                if is_escape && !file.in_test[m] {
                    findings.push(Finding {
                        lint: Lint::D9,
                        path: file.path.to_string(),
                        line: file.sig[m].line,
                        token: file.text(m).to_string(),
                        hint: format!(
                            "`{}` can exit between the `{}` span begin (line {}) and its \
                             record (line {}), losing the span; record the span before \
                             propagating the error",
                            f.qualified(),
                            b.name,
                            b.line,
                            first.line
                        ),
                    });
                    break;
                }
            }
        }

        for e in &ends {
            let Some(var) = &e.start_var else { continue };
            let has_begin = begins.iter().any(|b| &b.name == var && b.site < e.site);
            if !has_begin && !f.params.contains(var) {
                findings.push(Finding {
                    lint: Lint::D9,
                    path: file.path.to_string(),
                    line: e.line,
                    token: format!("span start `{var}`"),
                    hint: format!(
                        "`{}` records a span from `{var}` with no visible `now_us` begin \
                         and no parameter of that name",
                        f.qualified()
                    ),
                });
            }
        }

        for m in f.body.0 + 1..f.body.1 {
            if file.in_test[m] || file.sig[m].kind != TokenKind::Ident {
                continue;
            }
            let Some((_, stage)) = D9_STAGE_COUNTERS.iter().find(|(c, _)| *c == file.text(m))
            else {
                continue;
            };
            let bump = m >= 1
                && file.text(m - 1) == "."
                && file.sig.get(m + 1).map(|t| t.text(file.src)) == Some("+")
                && file.sig.get(m + 2).map(|t| t.text(file.src)) == Some("=");
            if !bump {
                continue;
            }
            let covered = begins.iter().any(|b| {
                b.site < m
                    && ends.iter().any(|e| {
                        e.site > m
                            && e.start_var.as_deref() == Some(b.name.as_str())
                            && e.stage.as_deref() == Some(*stage)
                    })
            });
            if !covered {
                findings.push(Finding {
                    lint: Lint::D9,
                    path: file.path.to_string(),
                    line: file.sig[m].line,
                    token: format!(".{} += 1", file.text(m)),
                    hint: format!(
                        "`{}` bumps the `{}` counter outside a live `{stage}` span; the \
                         Perfetto timeline reconciles counters against their stage's \
                         spans, so bump inside the span",
                        f.qualified(),
                        file.text(m)
                    ),
                });
            }
        }
    }
    findings
}

/// Parses a begin at the `now_us` token: walks back over the receiver
/// chain to `name =` (with optional `let [mut]`).
fn span_begin_at(file: &FileScopes<'_>, m: usize) -> Option<SpanBegin> {
    let mut j = m;
    while j >= 2
        && file.text(j - 1) == "."
        && file.sig[j - 2].kind == TokenKind::Ident
        && (j < 3 || file.text(j - 3) != ":")
    {
        j -= 2;
    }
    if j < 2 || file.text(j - 1) != "=" || file.sig[j - 2].kind != TokenKind::Ident {
        return None;
    }
    let name = file.text(j - 2).to_string();
    Some(SpanBegin { name, site: m, line: file.sig[m].line })
}

/// Parses an end at the `span_since`/`record_span` token: stage from
/// the first argument's `Stage::X`, start variable from the third
/// argument's first identifier.
fn span_end_at(file: &FileScopes<'_>, m: usize) -> SpanEnd {
    let mut stage = None;
    let mut start_var = None;
    let mut depth = 0i32;
    let mut arg = 0usize;
    let mut j = m + 1;
    while j < file.sig.len() {
        let t = file.text(j);
        match t {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            "," if depth == 1 => arg += 1,
            _ => {
                if file.sig[j].kind == TokenKind::Ident {
                    if arg == 0
                        && t == "Stage"
                        && file.sig.get(j + 2).map(|x| x.text(file.src)) == Some(":")
                    {
                        stage = file.sig.get(j + 3).map(|x| x.text(file.src).to_string());
                    }
                    if arg == 2 && start_var.is_none() {
                        start_var = Some(t.to_string());
                    }
                }
            }
        }
        j += 1;
    }
    SpanEnd { stage, start_var, site: m, line: file.sig[m].line }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib_policy() -> FilePolicy {
        FilePolicy {
            path: "crates/demo/src/lib.rs".into(),
            role: FileRole::Lib,
            determinism_critical: true,
            unsafe_allowed: false,
        }
    }

    fn lints_of(src: &str) -> Vec<Lint> {
        check_file(&lib_policy(), src).into_iter().map(|f| f.lint).collect()
    }

    #[test]
    fn d1_flags_hashmap_but_not_in_comments_or_strings() {
        assert_eq!(lints_of("use std::collections::HashMap;"), vec![Lint::D1]);
        assert_eq!(lints_of("// HashMap\nlet s = \"HashMap\";"), vec![]);
        assert_eq!(lints_of("let m = r#\"HashMap here\"#;"), vec![]);
    }

    #[test]
    fn d1_flags_time_paths_and_instant() {
        assert_eq!(lints_of("let t = std::time::Duration::from_secs(1);"), vec![Lint::D1]);
        assert_eq!(lints_of("let t = Instant::now();"), vec![Lint::D1]);
        // `time` not behind `std::` is someone's variable.
        assert_eq!(lints_of("let time = cycles;"), vec![]);
    }

    #[test]
    fn d1_exempts_cfg_test_items() {
        let src = "#[cfg(test)]\nmod tests {\n  use std::collections::HashSet;\n}\nfn f() {}\n";
        assert_eq!(lints_of(src), vec![]);
        // not(test) is live code.
        let src = "#[cfg(not(test))]\nfn f() { let m: HashMap<u8, u8>; }\n";
        assert_eq!(lints_of(src), vec![Lint::D1]);
    }

    #[test]
    fn d2_flags_unwrap_expect_and_macros() {
        assert_eq!(lints_of("fn f() { x.unwrap(); }"), vec![Lint::D2]);
        assert_eq!(lints_of("fn f() { x.expect(\"m\"); }"), vec![Lint::D2]);
        assert_eq!(lints_of("fn f() { panic!(\"boom\"); }"), vec![Lint::D2]);
        assert_eq!(lints_of("fn f() { todo!() }"), vec![Lint::D2]);
        // unwrap_or and friends are fine; panic paths/imports are fine.
        assert_eq!(lints_of("fn f() { x.unwrap_or(0); std::panic::catch_unwind(g); }"), vec![]);
    }

    #[test]
    fn d2_exempts_test_modules_and_bins() {
        let src = "#[cfg(test)]\nmod tests { fn g() { x.unwrap(); } }";
        assert_eq!(lints_of(src), vec![]);
        let bin = FilePolicy {
            path: "crates/demo/src/bin/tool.rs".into(),
            role: FileRole::Bin,
            determinism_critical: false,
            unsafe_allowed: false,
        };
        assert_eq!(check_file(&bin, "fn main() { x.unwrap(); }"), vec![]);
    }

    #[test]
    fn d3_flags_narrowing_counter_casts() {
        assert_eq!(lints_of("let c = total_cycles as u32;"), vec![Lint::D3]);
        assert_eq!(lints_of("let c = stats.useful_macs as u16;"), vec![Lint::D3]);
        assert_eq!(lints_of("let e = energy_pj as f32;"), vec![Lint::D3]);
        assert_eq!(
            lints_of("let f = Foo { completion_cycles: (i - start) as u32 };"),
            vec![Lint::D3]
        );
        // Widening and non-counter casts are fine.
        assert_eq!(lints_of("let c = total_cycles as u64;"), vec![]);
        assert_eq!(lints_of("let c = total_cycles() as f64;"), vec![]);
        assert_eq!(lints_of("let k = shape.k as f32;"), vec![]);
    }

    #[test]
    fn d3_usize_is_strict() {
        assert_eq!(lints_of("let c = stats.total_cycles() as usize;"), vec![Lint::D3]);
        // Quantizing arithmetic through floor() keeps its cast.
        assert_eq!(lints_of("let s = ((macs / work) * pool).floor() as usize;"), vec![]);
    }

    #[test]
    fn d4_flags_unsafe_even_in_tests() {
        let src = "#[cfg(test)]\nmod tests { unsafe fn g() {} }";
        assert_eq!(lints_of(src), vec![Lint::D4]);
        let allowed = FilePolicy { unsafe_allowed: true, ..lib_policy() };
        assert_eq!(check_file(&allowed, "unsafe fn g() {}"), vec![]);
    }

    #[test]
    fn d5_requires_validate_finite_in_engine_files() {
        let bad = "impl Engine for Foo { fn run(&self) {} }";
        let got = check_file(&lib_policy(), bad);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].lint, Lint::D5);
        let good = "impl Engine for Foo { fn run(&self) { validate_finite(a, b)?; } }";
        assert_eq!(check_file(&lib_policy(), good), vec![]);
        let generic = "impl<E: Engine + ?Sized> Engine for Box<E> { }";
        assert_eq!(check_file(&lib_policy(), generic).len(), 1);
    }

    fn harness_policy() -> FilePolicy {
        FilePolicy {
            path: "crates/bench/src/harness/emit.rs".into(),
            role: FileRole::Lib,
            determinism_critical: false,
            unsafe_allowed: false,
        }
    }

    #[test]
    fn d6_flags_bare_writes_in_harness_code() {
        let got = check_file(&harness_policy(), "fn f() { std::fs::write(&path, data)?; }");
        assert_eq!(got.iter().map(|f| f.lint).collect::<Vec<_>>(), vec![Lint::D6]);
        assert_eq!(got[0].token, "fs::write");
        let got = check_file(&harness_policy(), "fn f() { let f = File::create(&path)?; }");
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].token, "File::create");
    }

    /// The run-cache persistence module rides the same harness prefix as
    /// the journal: a bare write into `cache.rs` must trip the
    /// non-atomic-write ban without any rule change.
    #[test]
    fn d6_covers_the_run_cache_persistence_module() {
        let cache_policy =
            FilePolicy { path: "crates/bench/src/harness/cache.rs".into(), ..harness_policy() };
        let got = check_file(&cache_policy, "fn f() { std::fs::write(&store, line)?; }");
        assert_eq!(got.iter().map(|f| f.lint).collect::<Vec<_>>(), vec![Lint::D6]);
        let got = check_file(&cache_policy, "fn f() { let f = File::create(&store)?; }");
        assert_eq!(got.iter().map(|f| f.lint).collect::<Vec<_>>(), vec![Lint::D6]);
        // The sanctioned temp+rename half stays clean.
        let src = "fn f() { let mut tmp = File::create(&tmp_path)?; }";
        assert_eq!(check_file(&cache_policy, src), vec![]);
    }

    #[test]
    fn d6_exempts_temp_siblings_tests_and_other_files() {
        // The temp half of write-then-rename is the sanctioned pattern.
        let src = "fn f() { let mut tmp_file = File::create(&tmp)?; }";
        assert_eq!(check_file(&harness_policy(), src), vec![]);
        let src = "fn f() { std::fs::write(&temp_path, data)?; }";
        assert_eq!(check_file(&harness_policy(), src), vec![]);
        // `fs::create_dir_all` and method-call `.write(..)` are not
        // target-file writes.
        let src = "fn f() { std::fs::create_dir_all(&dir)?; out.write(buf)?; }";
        assert_eq!(check_file(&harness_policy(), src), vec![]);
        // Test code and non-harness library code keep their latitude.
        let src = "#[cfg(test)]\nmod tests { fn g() { let _ = std::fs::write(&path, b\"x\"); } }";
        assert_eq!(check_file(&harness_policy(), src), vec![]);
        let src = "fn f() { std::fs::write(&path, data)?; }";
        assert_eq!(check_file(&lib_policy(), src), vec![]);
    }

    #[test]
    fn findings_carry_file_line_and_token() {
        let src = "fn f() {\n    let x = y.unwrap();\n}\n";
        let got = check_file(&lib_policy(), src);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].line, 2);
        assert_eq!(got[0].token, ".unwrap()");
        assert!(got[0].to_string().contains("crates/demo/src/lib.rs:2"));
    }

    // --- D7–D9: workspace concurrency phase -------------------------

    /// Runs [`check_concurrency`] over one lib-role file plus a struct
    /// definition declaring three locks.
    fn concurrency_lints(src: &str) -> Vec<(Lint, u32)> {
        concurrency_lints_at("crates/demo/src/lib.rs", src)
    }

    fn concurrency_lints_at(path: &str, src: &str) -> Vec<(Lint, u32)> {
        let locks = "pub struct S { a: Mutex<u32>, b: Mutex<u32>, cond: Condvar }";
        let files = vec![
            (FilePolicy { path: "crates/demo/src/s.rs".into(), ..lib_policy() }, locks.into()),
            (FilePolicy { path: path.into(), ..lib_policy() }, src.to_string()),
        ];
        check_concurrency(&files).into_iter().map(|f| (f.lint, f.line)).collect()
    }

    #[test]
    fn d8_flags_direct_blocking_primitives_under_a_guard() {
        let src = "impl S { fn f(&self) { let g = self.a.lock(); file.sync_all()?; } }";
        assert_eq!(concurrency_lints(src), vec![(Lint::D8, 1)]);
        let src = "impl S { fn f(&self) { let g = self.a.lock(); drop(g); file.sync_all()?; } }";
        assert_eq!(concurrency_lints(src), vec![]);
    }

    #[test]
    fn d8_join_only_blocks_with_no_arguments() {
        let src = "impl S { fn f(&self) { let g = self.a.lock(); handle.join(); } }";
        assert_eq!(concurrency_lints(src), vec![(Lint::D8, 1)]);
        let src = "impl S { fn f(&self) { let g = self.a.lock(); let s = parts.join(\", \"); } }";
        assert_eq!(concurrency_lints(src), vec![]);
    }

    #[test]
    fn d8_propagates_through_workspace_helpers_but_not_std_names() {
        let src = "
impl S {
    fn flush_to_disk(&self) { self.file.sync_all(); }
    fn f(&self) {
        let g = self.a.lock();
        self.flush_to_disk();
    }
    fn g(&self) {
        let g = self.a.lock();
        map.insert(k, v); // std-collection name: never propagated
    }
}";
        assert_eq!(concurrency_lints(src), vec![(Lint::D8, 6)]);
    }

    #[test]
    fn d8_exempts_condvar_wait_on_the_sole_held_guard() {
        // The cache's lease-wait: the guard handed to wait() is the one
        // live guard, so the lock is *released* while parked.
        let src = "impl S { fn f(&self) {
            let mut g = self.a.lock();
            g = self.cond.wait(g);
        } }";
        assert_eq!(concurrency_lints(src), vec![]);
        // Waiting while a *second* guard is live still blocks that one.
        let src = "impl S { fn f(&self) {
            let h = self.b.lock();
            let mut g = self.a.lock();
            g = self.cond.wait(g);
        } }";
        assert_eq!(concurrency_lints(src), vec![(Lint::D8, 4)]);
    }

    #[test]
    fn d8_allowlist_suppresses_designated_io_locks() {
        let (path, lock, _) = D8_IO_LOCK_ALLOWLIST[0];
        assert_eq!(lock, "RunCache.store");
        let src = "
pub struct RunCache { store: Mutex<u32> }
impl RunCache { fn f(&self) { let g = self.store.lock(); file.sync_all()?; } }";
        assert_eq!(concurrency_lints_at(path, src), vec![]);
        // The same code anywhere else is a finding.
        assert_eq!(concurrency_lints_at("crates/demo/src/lib.rs", src), vec![(Lint::D8, 3)]);
    }

    #[test]
    fn d8_only_fires_in_lib_role_files() {
        let src = "impl S { fn f(&self) { let g = self.a.lock(); file.sync_all()?; } }";
        let files = vec![(
            FilePolicy {
                path: "crates/demo/src/main.rs".into(),
                role: FileRole::Bin,
                ..lib_policy()
            },
            src.to_string(),
        )];
        assert_eq!(check_concurrency(&files), vec![]);
    }

    fn span_lints(src: &str) -> Vec<(Lint, u32)> {
        let files = vec![(
            FilePolicy { path: "crates/bench/src/harness/demo.rs".into(), ..harness_policy() },
            src.to_string(),
        )];
        check_concurrency(&files).into_iter().map(|f| (f.lint, f.line)).collect()
    }

    #[test]
    fn d9_balanced_spans_are_clean() {
        let src = "fn f(&self) {
            let t0 = self.recorder.now_us();
            work();
            self.recorder.span_since(Stage::CacheProbe, label, t0);
        }";
        assert_eq!(span_lints(src), vec![]);
    }

    #[test]
    fn d9_flags_begin_without_end_and_escape_before_end() {
        let src = "fn f(&self) {\n    let t0 = rec.now_us();\n    work();\n}";
        assert_eq!(span_lints(src), vec![(Lint::D9, 2)]);
        let src = "fn f(&self) -> Result<(), E> {
            let t0 = rec.now_us();
            fallible()?;
            rec.span_since(Stage::CacheProbe, label, t0);
            Ok(())
        }";
        assert_eq!(span_lints(src), vec![(Lint::D9, 3)]);
        // Recording the span before propagating the error is the fix.
        let src = "fn f(&self) -> Result<(), E> {
            let t0 = rec.now_us();
            let r = fallible();
            rec.span_since(Stage::CacheProbe, label, t0);
            r?;
            Ok(())
        }";
        assert_eq!(span_lints(src), vec![]);
    }

    #[test]
    fn d9_flags_orphan_ends_unless_the_start_is_a_parameter() {
        let src = "fn f(&self) { rec.span_since(Stage::CacheProbe, label, t0); }";
        assert_eq!(span_lints(src), vec![(Lint::D9, 1)]);
        // A caller-supplied start is the span-helper pattern.
        let src = "fn f(&self, t0: u64) { rec.span_since(Stage::CacheProbe, label, t0); }";
        assert_eq!(span_lints(src), vec![]);
    }

    #[test]
    fn d9_stage_counters_must_bump_inside_their_stage_span() {
        let src = "fn f(&self) {
            let t0 = rec.now_us();
            self.stats.hits += 1;
            rec.span_since(Stage::CacheProbe, label, t0);
        }";
        assert_eq!(span_lints(src), vec![]);
        // Outside any span at all.
        let src = "fn f(&self) { self.stats.hits += 1; }";
        assert_eq!(span_lints(src), vec![(Lint::D9, 1)]);
        // Inside a span of the *wrong* stage.
        let src = "fn f(&self) {
            let t0 = rec.now_us();
            self.stats.hits += 1;
            rec.span_since(Stage::CacheInsert, label, t0);
        }";
        assert_eq!(span_lints(src), vec![(Lint::D9, 3)]);
    }

    #[test]
    fn d9_is_scoped_to_harness_lib_code() {
        let src = "fn f(&self) { let t0 = rec.now_us(); }";
        // Same source outside the harness prefix: no D9.
        let files = vec![(
            FilePolicy { path: "crates/core/src/lib.rs".into(), ..lib_policy() },
            src.to_string(),
        )];
        assert_eq!(check_concurrency(&files), vec![]);
        // And inside harness test regions: exempt.
        let src = "#[cfg(test)]\nmod tests { fn f() { let t0 = rec.now_us(); } }";
        assert_eq!(span_lints(src), vec![]);
    }
}
