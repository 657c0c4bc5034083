//! Phase-two scope analysis: brace-tree segmentation, lock-identity
//! resolution, and guard-lifetime tracking over the lexed token stream.
//!
//! The token-local rules (D1–D6) never need to know *where* a token
//! sits; the concurrency rules (D7–D9) do. This pass walks each file's
//! significant tokens once, maintaining a context stack of `impl` /
//! `struct` / `fn` / plain blocks, and produces per-function facts:
//!
//! * **Lock identities.** A `Mutex`/`RwLock` struct field becomes a
//!   workspace-global identity `Struct.field` (resolved by unique field
//!   name, so `self.state.lock()` and `inner.spans.lock()` both land on
//!   the declaring struct). A `let v = Mutex::new(..)` local becomes a
//!   function-scoped identity.
//! * **Guard-returning helpers.** A method whose signature mentions a
//!   `MutexGuard`/`RwLock*Guard` and whose body acquires a known lock
//!   field (e.g. `RunCache::lock`) is itself treated as an acquisition
//!   site at every call site, resolved through the receiver's declared
//!   field type.
//! * **Guard extents.** Each acquisition records the sig-token range
//!   over which its guard is live: to the end of the enclosing block
//!   for `let`-bound guards (truncated by an explicit `drop(guard)`),
//!   the matched block for `if let`/`while let`/`match` bindings, and
//!   the end of the statement for temporaries.
//!
//! [`lockgraph`](crate::lockgraph) turns the acquisitions into a
//! cross-file lock-order graph (D7); [`rules`](crate::rules) layers the
//! blocking-under-guard (D8) and span-balance (D9) checks on top.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{lex, Token, TokenKind};
use crate::rules::test_regions;

/// A resolved lock.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct LockId {
    /// Workspace-unique key: `Struct.field` for fields,
    /// `path#fn::var` for function-local locks.
    pub identity: String,
    /// Short human-readable form (`RunCache.state`, `fn_name::var`).
    pub display: String,
}

/// One lock acquisition inside a function body.
#[derive(Debug, Clone)]
pub struct Acquisition {
    /// Which lock is taken.
    pub lock: LockId,
    /// 1-based line of the acquisition call.
    pub line: u32,
    /// Sig-token index of the `lock`/`read`/`write`/helper token.
    pub site: usize,
    /// Sig-token index one past which the guard is no longer live.
    pub extent_end: usize,
    /// The guard binding name, when bound to a named variable/pattern.
    pub guard: Option<String>,
}

impl Acquisition {
    /// Whether the guard is live at sig index `i` (strictly after the
    /// acquisition site).
    #[must_use]
    pub fn covers(&self, i: usize) -> bool {
        i > self.site && i < self.extent_end
    }
}

/// One `fn` item with its body range and resolved acquisitions.
#[derive(Debug, Clone)]
pub struct FnScope {
    /// The function's name.
    pub name: String,
    /// The `impl` target type, when the fn sits inside an impl block.
    pub owner: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Sig-token index of the `fn` keyword.
    pub sig_start: usize,
    /// Sig-token indices of the body's `{` and `}`.
    pub body: (usize, usize),
    /// Every identifier appearing in the parameter list (used to exempt
    /// span-start values passed in from a caller).
    pub params: Vec<String>,
    /// Locals bound directly to `Mutex::new`/`RwLock::new`.
    pub local_locks: Vec<String>,
    /// Resolved lock acquisitions, in source order.
    pub acquisitions: Vec<Acquisition>,
}

impl FnScope {
    /// `Owner::name` when inside an impl, else just `name`.
    #[must_use]
    pub fn qualified(&self) -> String {
        match &self.owner {
            Some(o) => format!("{o}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// One parsed file: its significant tokens plus structural facts.
#[derive(Debug)]
pub struct FileScopes<'a> {
    /// Repo-relative path.
    pub path: &'a str,
    /// The file's source (token spans index into this).
    pub src: &'a str,
    /// Significant tokens (whitespace/comments dropped).
    pub sig: Vec<Token>,
    /// Per-sig-token `#[cfg(test)]` membership.
    pub in_test: Vec<bool>,
    /// Every `fn` item, in source order.
    pub functions: Vec<FnScope>,
    /// `(struct, field, head type ident)` for every named struct field.
    fields: Vec<(String, String, String)>,
}

impl FileScopes<'_> {
    /// Text of sig token `i`.
    #[must_use]
    pub fn text(&self, i: usize) -> &str {
        self.sig[i].text(self.src)
    }
}

/// The workspace-wide analysis: per-file scopes plus the global lock
/// and helper maps they were resolved against.
#[derive(Debug)]
pub struct WorkspaceScopes<'a> {
    /// One entry per input file, same order.
    pub files: Vec<FileScopes<'a>>,
}

/// Analyzes `(path, source)` pairs. Resolution is workspace-global:
/// lock fields declared in one file resolve acquisitions in another.
#[must_use]
pub fn analyze<'a>(files: &[(&'a str, &'a str)]) -> WorkspaceScopes<'a> {
    let mut parsed: Vec<FileScopes<'a>> = files.iter().map(|(p, s)| parse_file(p, s)).collect();

    // Global lock-field map: field name -> declaring structs. Only
    // unique names resolve; a collision would make identities ambiguous
    // so colliding fields are skipped (conservative: no finding).
    let mut lock_fields: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    // All field types, for typing helper-call receivers.
    let mut field_types: BTreeMap<(String, String), String> = BTreeMap::new();
    for file in &parsed {
        for (sname, fname, head) in &file.fields {
            field_types.insert((sname.clone(), fname.clone()), head.clone());
            if head == "Mutex" || head == "RwLock" {
                lock_fields.entry(fname.clone()).or_default().insert(sname.clone());
            }
        }
    }
    let unique_lock_field = |name: &str| -> Option<LockId> {
        let structs = lock_fields.get(name)?;
        if structs.len() != 1 {
            return None;
        }
        let id = format!("{}.{name}", structs.iter().next()?);
        Some(LockId { identity: id.clone(), display: id })
    };

    // Guard-returning helpers: (receiver type, method) -> lock.
    let mut helpers: BTreeMap<(String, String), LockId> = BTreeMap::new();
    for file in &parsed {
        for f in &file.functions {
            let Some(owner) = &f.owner else { continue };
            let sig_names = (f.sig_start..f.body.0).map(|i| file.text(i));
            if !sig_names
                .clone()
                .any(|t| matches!(t, "MutexGuard" | "RwLockReadGuard" | "RwLockWriteGuard"))
            {
                continue;
            }
            // The helper's body must acquire a resolvable lock field.
            for m in f.body.0 + 1..f.body.1 {
                if !matches!(file.text(m), "lock" | "read" | "write")
                    || file.sig.get(m + 1).map(|t| t.text(file.src)) != Some("(")
                {
                    continue;
                }
                let chain = receiver_chain(file, m);
                if let Some(last) = chain.last() {
                    if let Some(lock) = unique_lock_field(last) {
                        helpers.insert((owner.clone(), f.name.clone()), lock);
                        break;
                    }
                }
            }
        }
    }

    // Acquisition resolution.
    for file in &mut parsed {
        let brace_close = brace_pairs(file);
        let fns = std::mem::take(&mut file.functions);
        let mut resolved = Vec::with_capacity(fns.len());
        for mut f in fns {
            f.acquisitions =
                resolve_acquisitions(file, &f, &brace_close, &unique_lock_field, &helpers);
            resolved.push(f);
        }
        file.functions = resolved;
    }

    WorkspaceScopes { files: parsed }
}

/// The dotted identifier chain ending at the method token `m`
/// (`self.state.lock` -> `["self", "state"]`). Empty when the receiver
/// is not a plain ident chain (e.g. `stdout().lock()`).
fn receiver_chain(file: &FileScopes<'_>, m: usize) -> Vec<String> {
    let mut chain = Vec::new();
    let mut j = m;
    while j >= 2
        && file.text(j - 1) == "."
        && file.sig[j - 2].kind == TokenKind::Ident
        // A `::` path (`thread::sleep`) or a chained call (`x().lock()`)
        // is not a field chain.
        && (j < 3 || file.text(j - 3) != ":")
    {
        chain.push(file.text(j - 2).to_string());
        j -= 2;
    }
    // Reject chains hanging off a non-ident receiver: `x().a.lock()`.
    if j >= 1 && matches!(file.text(j - 1), ")" | "]") {
        return Vec::new();
    }
    chain.reverse();
    chain
}

/// Maps each `{` sig index to its matching `}` (unbalanced opens close
/// at end of file).
fn brace_pairs(file: &FileScopes<'_>) -> BTreeMap<usize, usize> {
    let mut pairs = BTreeMap::new();
    let mut stack = Vec::new();
    for i in 0..file.sig.len() {
        match file.text(i) {
            "{" => stack.push(i),
            "}" => {
                if let Some(open) = stack.pop() {
                    pairs.insert(open, i);
                }
            }
            _ => {}
        }
    }
    let eof = file.sig.len();
    for open in stack {
        pairs.insert(open, eof);
    }
    pairs
}

/// Index of the innermost `{` enclosing sig index `i` within `body`.
fn enclosing_open(file: &FileScopes<'_>, body: (usize, usize), i: usize) -> usize {
    let mut open = body.0;
    let mut stack = vec![body.0];
    for j in body.0 + 1..i {
        match file.text(j) {
            "{" => stack.push(j),
            "}" => {
                stack.pop();
            }
            _ => {}
        }
    }
    if let Some(&top) = stack.last() {
        open = top;
    }
    open
}

struct Pending {
    kind: PendingKind,
}

enum PendingKind {
    Impl(String),
    Struct(String),
    Fn { name: String, line: u32, sig_start: usize, params: Vec<String> },
}

enum Ctx {
    Impl(String),
    Struct(String),
    Fn(usize),
    Block,
}

/// Structural scan: functions, struct fields, local locks.
fn parse_file<'a>(path: &'a str, src: &'a str) -> FileScopes<'a> {
    let tokens = lex(src);
    let sig: Vec<Token> = tokens
        .iter()
        .filter(|t| {
            !matches!(
                t.kind,
                TokenKind::Whitespace | TokenKind::LineComment | TokenKind::BlockComment
            )
        })
        .copied()
        .collect();
    let refs: Vec<&Token> = sig.iter().collect();
    let in_test = test_regions(&refs, src);

    let text = |i: usize| -> &str { sig[i].text(src) };
    let n = sig.len();

    let mut ctx: Vec<Ctx> = Vec::new();
    let mut functions: Vec<FnScope> = Vec::new();
    let mut fields: Vec<(String, String, String)> = Vec::new();
    let mut pending: Option<Pending> = None;
    // (var name, ctx depth when opened) for `let` bindings awaiting `;`.
    let mut pending_lets: Vec<(String, usize)> = Vec::new();

    let innermost_fn = |ctx: &[Ctx]| -> Option<usize> {
        ctx.iter().rev().find_map(|c| if let Ctx::Fn(k) = c { Some(*k) } else { None })
    };
    let current_impl = |ctx: &[Ctx]| -> Option<String> {
        ctx.iter().rev().find_map(|c| if let Ctx::Impl(s) = c { Some(s.clone()) } else { None })
    };

    let mut i = 0usize;
    while i < n {
        if sig[i].kind == TokenKind::Ident {
            match text(i) {
                "impl" => {
                    pending = Some(Pending { kind: PendingKind::Impl(impl_target(&sig, src, i)) });
                }
                "struct" if i + 1 < n && sig[i + 1].kind == TokenKind::Ident => {
                    pending = Some(Pending { kind: PendingKind::Struct(text(i + 1).to_string()) });
                }
                "fn" if i + 1 < n && sig[i + 1].kind == TokenKind::Ident => {
                    pending = Some(Pending {
                        kind: PendingKind::Fn {
                            name: text(i + 1).to_string(),
                            line: sig[i].line,
                            sig_start: i,
                            params: fn_params(&sig, src, i + 1),
                        },
                    });
                }
                "let" => {
                    let mut j = i + 1;
                    if j < n && text(j) == "mut" {
                        j += 1;
                    }
                    // Plain `let name =` only; `let Ok(..)`/`let (a, b)`
                    // patterns never bind a lock directly.
                    if j < n
                        && sig[j].kind == TokenKind::Ident
                        && text(j) != "_"
                        && sig.get(j + 1).map(|t| t.text(src)) != Some("(")
                    {
                        pending_lets.push((text(j).to_string(), ctx.len()));
                    }
                }
                "Mutex" | "RwLock"
                    if i + 3 < n
                        && text(i + 1) == ":"
                        && text(i + 2) == ":"
                        && text(i + 3) == "new" =>
                {
                    if let (Some(k), Some((var, _))) = (innermost_fn(&ctx), pending_lets.last()) {
                        functions[k].local_locks.push(var.clone());
                    }
                }
                _ => {}
            }
            i += 1;
            continue;
        }
        match text(i) {
            "{" => {
                let c = match pending.take().map(|p| p.kind) {
                    Some(PendingKind::Fn { name, line, sig_start, params }) => {
                        functions.push(FnScope {
                            name,
                            owner: current_impl(&ctx),
                            line,
                            sig_start,
                            body: (i, n.saturating_sub(1)),
                            params,
                            local_locks: Vec::new(),
                            acquisitions: Vec::new(),
                        });
                        Ctx::Fn(functions.len() - 1)
                    }
                    Some(PendingKind::Struct(s)) => Ctx::Struct(s),
                    Some(PendingKind::Impl(s)) => Ctx::Impl(s),
                    None => Ctx::Block,
                };
                ctx.push(c);
            }
            "}" => {
                if let Some(Ctx::Fn(k)) = ctx.pop() {
                    functions[k].body.1 = i;
                }
                let depth = ctx.len();
                pending_lets.retain(|(_, d)| *d <= depth);
            }
            ";" => {
                pending = None;
                let depth = ctx.len();
                pending_lets.retain(|(_, d)| *d < depth);
            }
            ":" => {
                // A struct-field colon (single `:`, directly inside a
                // struct body, preceded by the field name).
                if let Some(Ctx::Struct(sname)) = ctx.last() {
                    let single = i >= 1
                        && sig[i - 1].kind == TokenKind::Ident
                        && sig.get(i + 1).map(|t| t.text(src)) != Some(":")
                        && (i < 2 || text(i - 2) != ":");
                    if single {
                        if let Some(head) = field_type_head(&sig, src, i + 1) {
                            fields.push((sname.clone(), text(i - 1).to_string(), head));
                        }
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }

    FileScopes { path, src, sig, in_test, functions, fields }
}

/// The impl target type: `impl Foo<T>` -> `Foo`,
/// `impl Trait for crate::Bar` -> `Bar`.
fn impl_target(sig: &[Token], src: &str, impl_idx: usize) -> String {
    let n = sig.len();
    let mut j = impl_idx + 1;
    // Skip `impl<..>` generics.
    if j < n && sig[j].text(src) == "<" {
        let mut depth = 0i32;
        while j < n {
            match sig[j].text(src) {
                "<" => depth += 1,
                ">" => {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
    }
    let mut cur: Vec<&str> = Vec::new();
    let mut angle = 0i32;
    while j < n {
        let t = sig[j].text(src);
        match t {
            "{" | "where" => break,
            "<" => angle += 1,
            ">" => angle -= 1,
            "for" if angle == 0 => cur.clear(),
            _ if angle == 0 && sig[j].kind == TokenKind::Ident => cur.push(t),
            _ => {}
        }
        j += 1;
    }
    cur.last().map_or_else(|| "?".to_string(), |s| (*s).to_string())
}

/// Every identifier inside the fn's parameter parens (a superset of the
/// parameter names; used only as an exemption set).
fn fn_params(sig: &[Token], src: &str, name_idx: usize) -> Vec<String> {
    let n = sig.len();
    let mut j = name_idx;
    while j < n && sig[j].text(src) != "(" {
        if matches!(sig[j].text(src), "{" | ";") {
            return Vec::new();
        }
        j += 1;
    }
    let mut params = Vec::new();
    let mut depth = 0i32;
    while j < n {
        match sig[j].text(src) {
            "(" => depth += 1,
            ")" => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            t if sig[j].kind == TokenKind::Ident => params.push(t.to_string()),
            _ => {}
        }
        j += 1;
    }
    params
}

/// The head type ident of a field whose `:` sits just before
/// `start` — the last path ident before generics or the field end
/// (`std::sync::Mutex<..>` -> `Mutex`, `&'a RunCache` -> `RunCache`).
fn field_type_head(sig: &[Token], src: &str, start: usize) -> Option<String> {
    let mut head = None;
    for tok in &sig[start..] {
        match tok.text(src) {
            "<" | "," | "}" | "(" => break,
            t if tok.kind == TokenKind::Ident && t != "dyn" && t != "mut" => {
                head = Some(t.to_string());
            }
            _ => {}
        }
    }
    head
}

/// Finds and classifies every lock acquisition in `f`'s body.
fn resolve_acquisitions(
    file: &FileScopes<'_>,
    f: &FnScope,
    brace_close: &BTreeMap<usize, usize>,
    unique_lock_field: &dyn Fn(&str) -> Option<LockId>,
    helpers: &BTreeMap<(String, String), LockId>,
) -> Vec<Acquisition> {
    let mut out: Vec<Acquisition> = Vec::new();
    let (open, close) = f.body;
    // `(struct, field)` head types for helper receiver typing are folded
    // into `helpers` lookups through the owner's declared fields below.
    for m in open + 1..close {
        if file.in_test[m]
            || file.sig[m].kind != TokenKind::Ident
            || file.sig.get(m + 1).map(|t| t.text(file.src)) != Some("(")
        {
            continue;
        }
        let name = file.text(m);
        let chain = receiver_chain(file, m);
        if chain.is_empty() {
            continue;
        }
        let lock = resolve_lock(file, f, name, &chain, unique_lock_field, helpers);
        let Some(lock) = lock else { continue };
        let r = m - 2 * chain.len();
        let (guard, extent_end) = classify_binding(file, f, brace_close, r, m);
        out.push(Acquisition { lock, line: file.sig[m].line, site: m, extent_end, guard });
    }
    // Explicit `drop(guard)` truncates the extent.
    for m in open + 1..close {
        if file.text(m) == "drop"
            && file.sig.get(m + 1).map(|t| t.text(file.src)) == Some("(")
            && file.sig.get(m + 3).map(|t| t.text(file.src)) == Some(")")
        {
            if let Some(var) = file.sig.get(m + 2) {
                let var = var.text(file.src);
                for a in &mut out {
                    if a.guard.as_deref() == Some(var) && a.site < m && m < a.extent_end {
                        a.extent_end = m;
                    }
                }
            }
        }
    }
    out
}

/// Resolution order: unique lock field, then function-local lock, then
/// guard-returning helper (typed through the receiver chain).
fn resolve_lock(
    file: &FileScopes<'_>,
    f: &FnScope,
    method: &str,
    chain: &[String],
    unique_lock_field: &dyn Fn(&str) -> Option<LockId>,
    helpers: &BTreeMap<(String, String), LockId>,
) -> Option<LockId> {
    let lockish = matches!(method, "lock" | "read" | "write");
    if lockish {
        if let Some(last) = chain.last() {
            if last != "self" {
                if let Some(lock) = unique_lock_field(last) {
                    return Some(lock);
                }
            }
        }
        if chain.len() == 1 && f.local_locks.contains(&chain[0]) {
            let var = &chain[0];
            return Some(LockId {
                identity: format!("{}#{}::{var}", file.path, f.name),
                display: format!("{}::{var}", f.name),
            });
        }
    }
    // Helper call: receiver type is the owner (`self.h()`) or a field's
    // declared head type (`self.cache.h()`).
    let recv_type = match chain {
        [s] if s == "self" => f.owner.clone(),
        [s, field] if s == "self" => {
            let owner = f.owner.as_ref()?;
            file.fields.iter().find(|(st, fl, _)| st == owner && fl == field).map(|t| t.2.clone())
        }
        _ => None,
    }?;
    helpers.get(&(recv_type, method.to_string())).cloned()
}

/// Determines the guard binding and live extent for the acquisition
/// whose receiver starts at sig index `r` and method sits at `m`.
fn classify_binding(
    file: &FileScopes<'_>,
    f: &FnScope,
    brace_close: &BTreeMap<usize, usize>,
    r: usize,
    m: usize,
) -> (Option<String>, usize) {
    let prev = |k: usize| -> Option<&str> { k.checked_sub(1).map(|p| file.text(p)) };
    let block_end_of = |i: usize| -> usize {
        let open = enclosing_open(file, f.body, i);
        brace_close.get(&open).copied().unwrap_or(f.body.1)
    };
    match prev(r) {
        Some("=") => {
            // `let [mut] name = ..` / `name = ..` -> named, live to the
            // end of the enclosing block. `if/while let Ok(g) = ..` ->
            // pattern, live over the following block.
            if r >= 2 && file.text(r - 2) == ")" {
                let guard = pattern_binding_name(file, r - 2);
                let end = following_block_end(file, brace_close, m)
                    .unwrap_or_else(|| statement_end(file, f, m));
                (guard, end)
            } else if r >= 2 && file.sig[r - 2].kind == TokenKind::Ident {
                (Some(file.text(r - 2).to_string()), block_end_of(r))
            } else {
                (None, block_end_of(r))
            }
        }
        Some("match") => {
            let end = following_block_end(file, brace_close, m)
                .unwrap_or_else(|| statement_end(file, f, m));
            (None, end)
        }
        _ => (None, statement_end(file, f, m)),
    }
}

/// The binding ident inside a `Ok(mut g)`-style pattern whose `)` sits
/// at `close`.
fn pattern_binding_name(file: &FileScopes<'_>, close: usize) -> Option<String> {
    let mut depth = 0i32;
    let mut k = close;
    let mut name = None;
    loop {
        match file.text(k) {
            ")" => depth += 1,
            "(" => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            t if file.sig[k].kind == TokenKind::Ident && t != "mut" => {
                name = Some(t.to_string());
            }
            _ => {}
        }
        if k == 0 {
            break;
        }
        k -= 1;
    }
    name
}

/// The `}` closing the block that directly follows the call whose
/// argument list opens at `m + 1` (for `if let .. = x.lock() { .. }`
/// and `match x.lock() { .. }` shapes).
fn following_block_end(
    file: &FileScopes<'_>,
    brace_close: &BTreeMap<usize, usize>,
    m: usize,
) -> Option<usize> {
    let mut j = m + 1;
    let mut depth = 0i32;
    // Skip the call's own parens.
    while j < file.sig.len() {
        match file.text(j) {
            "(" => depth += 1,
            ")" => {
                depth -= 1;
                if depth == 0 {
                    j += 1;
                    break;
                }
            }
            _ => {}
        }
        j += 1;
    }
    // Then walk trailing method chains until the block opens.
    while j < file.sig.len() {
        match file.text(j) {
            "{" => return brace_close.get(&j).copied(),
            ";" => return None,
            "(" => {
                // Chained call: skip its parens too.
                let mut d = 0i32;
                while j < file.sig.len() {
                    match file.text(j) {
                        "(" => d += 1,
                        ")" => {
                            d -= 1;
                            if d == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    None
}

/// First `;` at nesting depth 0 after the call at `m` (temporaries die
/// at the end of their statement), bounded by the fn body.
fn statement_end(file: &FileScopes<'_>, f: &FnScope, m: usize) -> usize {
    let mut depth = 0i32;
    for j in m..f.body.1 {
        match file.text(j) {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            ";" if depth <= 0 => return j,
            _ => {}
        }
    }
    f.body.1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws<'a>(src: &'a str) -> WorkspaceScopes<'a> {
        analyze(&[("crates/demo/src/lib.rs", src)])
    }

    #[test]
    fn resolves_struct_lock_fields_through_self_and_locals() {
        let src = "
            pub struct Store { state: Mutex<Inner>, cond: Condvar }
            impl Store {
                fn probe(&self) {
                    let mut state = self.state.lock();
                    state.touch();
                }
            }
            fn local() {
                let writer = Mutex::new(0);
                let w = writer.lock();
            }
        ";
        let w = ws(src);
        let probe = &w.files[0].functions[0];
        assert_eq!(probe.qualified(), "Store::probe");
        assert_eq!(probe.acquisitions.len(), 1);
        assert_eq!(probe.acquisitions[0].lock.identity, "Store.state");
        assert_eq!(probe.acquisitions[0].guard.as_deref(), Some("state"));
        let local = &w.files[0].functions[1];
        assert_eq!(local.acquisitions.len(), 1);
        assert!(local.acquisitions[0].lock.identity.ends_with("#local::writer"));
        assert_eq!(local.acquisitions[0].lock.display, "local::writer");
    }

    #[test]
    fn guard_helpers_resolve_at_call_sites_via_field_types() {
        let src = "
            pub struct Store { state: Mutex<Inner> }
            impl Store {
                fn lock(&self) -> MutexGuard<'_, Inner> {
                    match self.state.lock() { Ok(g) => g, Err(p) => p.into_inner() }
                }
                fn direct(&self) { let g = self.lock(); g.touch(); }
            }
            pub struct Lease<'a> { cache: &'a Store }
            impl Drop for Lease<'_> {
                fn drop(&mut self) { let g = self.cache.lock(); g.touch(); }
            }
        ";
        let w = ws(src);
        let direct = &w.files[0].functions[1];
        assert_eq!(direct.acquisitions.len(), 1, "{:?}", direct.acquisitions);
        assert_eq!(direct.acquisitions[0].lock.identity, "Store.state");
        let lease_drop = &w.files[0].functions[2];
        assert_eq!(lease_drop.owner.as_deref(), Some("Lease"));
        assert_eq!(lease_drop.acquisitions.len(), 1, "{:?}", lease_drop.acquisitions);
        assert_eq!(lease_drop.acquisitions[0].lock.identity, "Store.state");
    }

    #[test]
    fn extents_follow_bindings_and_drop() {
        let src = "
            pub struct S { a: Mutex<u32>, b: Mutex<u32> }
            impl S {
                fn f(&self) {
                    let g = self.a.lock();
                    drop(g);
                    let h = self.b.lock();
                    h.touch();
                }
                fn pat(&self) {
                    if let Ok(mut g) = self.a.lock() {
                        g.touch();
                    }
                    self.b.lock();
                }
            }
        ";
        let w = ws(src);
        let f = &w.files[0].functions[0];
        let (a, b) = (&f.acquisitions[0], &f.acquisitions[1]);
        assert!(a.extent_end < b.site, "drop(g) must end a's extent before b");
        let pat = &w.files[0].functions[1];
        let a = &pat.acquisitions[0];
        assert_eq!(a.guard.as_deref(), Some("g"));
        let b = &pat.acquisitions[1];
        assert!(a.extent_end < b.site, "if-let guard dies at its block: {a:?} vs {b:?}");
    }

    #[test]
    fn cross_file_field_resolution_and_test_exemption() {
        let a = "pub struct Reg { spans: Mutex<Vec<u32>> }";
        let b = "
            fn record(inner: &Reg) { let mut spans = inner.spans.lock(); spans.push(1); }
            #[cfg(test)]
            mod tests {
                fn t(inner: &Reg) { let g = inner.spans.lock(); }
            }
        ";
        let w = analyze(&[("a.rs", a), ("b.rs", b)]);
        let record = &w.files[1].functions[0];
        assert_eq!(record.acquisitions.len(), 1);
        assert_eq!(record.acquisitions[0].lock.identity, "Reg.spans");
        let test_fn = &w.files[1].functions[1];
        assert_eq!(test_fn.acquisitions.len(), 0, "test code is exempt");
    }

    #[test]
    fn chained_and_pathy_receivers_are_not_acquisitions() {
        let src = "
            fn f() {
                let out = std::io::stdout().lock();
                let joined = parts.join(\", \");
            }
        ";
        let w = ws(src);
        assert_eq!(w.files[0].functions[0].acquisitions.len(), 0);
    }
}
