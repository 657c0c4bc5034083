//! Phase-two scope analysis: brace-tree segmentation, lock-identity
//! resolution, and guard-lifetime tracking over the lexed token stream.
//!
//! The token-local rules (D1–D6) never need to know *where* a token
//! sits; the concurrency rules (D7–D9) do. This pass walks each file's
//! significant tokens once, maintaining a context stack of `impl` /
//! `struct` / `fn` / plain blocks, and produces per-function facts:
//!
//! * **Lock identities.** `x.field.lock()` resolves to the entry of
//!   [`LOCKS`] whose field is `field` (its rank in the declared order),
//!   so `self.state.lock()` and `inner.spans.lock()` both land on the
//!   declaring struct without type inference. A lock the table does not
//!   declare resolves to nothing; D7 reports its declaration instead.
//! * **Guard-returning helpers.** A method whose signature mentions a
//!   `MutexGuard` and whose body locks a declared field (e.g.
//!   `RunCache::lock`) is itself an acquisition at every call site,
//!   resolved through the receiver's declared field type.
//! * **Guard extents.** Each acquisition records the sig-token range
//!   over which its guard is live: to the end of the enclosing block
//!   for a named `let` guard (truncated by an explicit `drop(guard)`),
//!   the matched block for `if let`/`while let`/`match` bindings, and
//!   the end of the statement for temporaries and `let _ =`.
//!
//! [`crate::rules`] checks the acquisitions against the declared
//! order (D7) and layers the blocking-under-guard (D8) and
//! span-balance (D9) checks on top.

use std::collections::BTreeMap;

use crate::lexer::{lex, Token, TokenKind};
use crate::rules::{test_regions, LOCKS};

/// One lock acquisition inside a function body.
#[derive(Debug, Clone)]
pub struct Acquisition {
    /// Which lock is taken: its index (rank) in [`LOCKS`].
    pub lock: usize,
    /// 1-based line of the acquisition call.
    pub line: u32,
    /// Sig-token index of the `lock`/helper token.
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
    /// Sig-token index of the `fn` keyword.
    pub sig_start: usize,
    /// Sig-token indices of the body's `{` and `}`.
    pub body: (usize, usize),
    /// Every identifier appearing in the parameter list (used to exempt
    /// span-start values passed in from a caller).
    pub params: Vec<String>,
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
    /// Every named struct field, in source order.
    pub(crate) fields: Vec<Field>,
}

/// One named struct field.
#[derive(Debug, Clone)]
pub(crate) struct Field {
    /// The declaring struct.
    pub(crate) owner: String,
    /// The field name.
    pub(crate) name: String,
    /// Sig-token index of the field type's head ident (`Mutex` in
    /// `std::sync::Mutex<T>`).
    pub(crate) head: usize,
}

impl FileScopes<'_> {
    /// Text of sig token `i`.
    #[must_use]
    pub fn text(&self, i: usize) -> &str {
        self.sig[i].text(self.src)
    }
}

/// The workspace-wide analysis: per-file scopes with their
/// acquisitions resolved.
#[derive(Debug)]
pub struct WorkspaceScopes<'a> {
    /// One entry per input file, same order.
    pub files: Vec<FileScopes<'a>>,
}

/// The rank in [`LOCKS`] of the declared lock whose field is `name`
/// (field names are unique across the table).
fn declared_lock(name: &str) -> Option<usize> {
    LOCKS.iter().position(|(lock, _)| lock.rsplit('.').next() == Some(name))
}

/// Analyzes `(path, source)` pairs. Resolution is workspace-global: a
/// guard helper defined in one file resolves call sites in another.
#[must_use]
pub fn analyze<'a>(files: &[(&'a str, &'a str)]) -> WorkspaceScopes<'a> {
    let mut parsed: Vec<FileScopes<'a>> = files.iter().map(|(p, s)| parse_file(p, s)).collect();

    // Guard-returning helpers: (receiver type, method) -> lock rank.
    let mut helpers: BTreeMap<(String, String), usize> = BTreeMap::new();
    for file in &parsed {
        for f in &file.functions {
            let Some(owner) = &f.owner else { continue };
            if !(f.sig_start..f.body.0).any(|i| file.text(i) == "MutexGuard") {
                continue;
            }
            // The helper's body must lock a declared field.
            let lock = (f.body.0 + 1..f.body.1).find_map(|m| {
                if file.text(m) != "lock"
                    || file.sig.get(m + 1).map(|t| t.text(file.src)) != Some("(")
                {
                    return None;
                }
                receiver_chain(file, m).last().and_then(|last| declared_lock(last))
            });
            if let Some(lock) = lock {
                helpers.insert((owner.clone(), f.name.clone()), lock);
            }
        }
    }

    for file in &mut parsed {
        let brace_close = brace_pairs(file);
        let mut fns = std::mem::take(&mut file.functions);
        for f in &mut fns {
            f.acquisitions = resolve_acquisitions(file, f, &brace_close, &helpers);
        }
        file.functions = fns;
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
    Fn { name: String, sig_start: usize, params: Vec<String> },
}

enum Ctx {
    Impl(String),
    Struct(String),
    Fn(usize),
    Block,
}

/// Structural scan: functions and struct fields.
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
    let mut fields: Vec<Field> = Vec::new();
    let mut pending: Option<Pending> = None;

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
                            sig_start: i,
                            params: fn_params(&sig, src, i + 1),
                        },
                    });
                }
                _ => {}
            }
            i += 1;
            continue;
        }
        match text(i) {
            "{" => {
                let c = match pending.take().map(|p| p.kind) {
                    Some(PendingKind::Fn { name, sig_start, params }) => {
                        functions.push(FnScope {
                            name,
                            owner: current_impl(&ctx),
                            sig_start,
                            body: (i, n.saturating_sub(1)),
                            params,
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
            }
            ";" => pending = None,
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
                            fields.push(Field {
                                owner: sname.clone(),
                                name: text(i - 1).to_string(),
                                head,
                            });
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

/// The sig index of the head type ident of a field whose `:` sits just
/// before `start` — the last path ident before generics or the field
/// end (`std::sync::Mutex<..>` -> `Mutex`, `&'a RunCache` -> `RunCache`).
fn field_type_head(sig: &[Token], src: &str, start: usize) -> Option<usize> {
    let mut head = None;
    for (j, tok) in sig.iter().enumerate().skip(start) {
        match tok.text(src) {
            "<" | "," | "}" | "(" => break,
            t if tok.kind == TokenKind::Ident && t != "dyn" && t != "mut" => head = Some(j),
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
    helpers: &BTreeMap<(String, String), usize>,
) -> Vec<Acquisition> {
    let mut out: Vec<Acquisition> = Vec::new();
    let (open, close) = f.body;
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
        let Some(lock) = resolve_lock(file, f, name, &chain, helpers) else { continue };
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

/// Resolution order: a declared lock field, then a guard-returning
/// helper (typed through the receiver chain).
fn resolve_lock(
    file: &FileScopes<'_>,
    f: &FnScope,
    method: &str,
    chain: &[String],
    helpers: &BTreeMap<(String, String), usize>,
) -> Option<usize> {
    if method == "lock" {
        if let Some(lock) = chain.last().and_then(|last| declared_lock(last)) {
            return Some(lock);
        }
    }
    // Helper call: receiver type is the owner (`self.h()`) or a field's
    // declared head type (`self.cache.h()`).
    let recv_type = match chain {
        [s] if s == "self" => f.owner.clone(),
        [s, field] if s == "self" => {
            let owner = f.owner.as_ref()?;
            let field = file.fields.iter().find(|fl| &fl.owner == owner && &fl.name == field)?;
            Some(file.text(field.head).to_string())
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
            // end of the enclosing block; `let _ = ..` drops at once.
            // `if/while let Ok(g) = ..` -> pattern, live over the
            // following block.
            if r >= 2 && file.text(r - 2) == "_" {
                (None, statement_end(file, f, m))
            } else if r >= 2 && file.text(r - 2) == ")" {
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

    fn rank(lock: &str) -> usize {
        LOCKS.iter().position(|(l, _)| *l == lock).unwrap()
    }

    #[test]
    fn resolves_declared_lock_fields_only() {
        let src = "
            pub struct RunCache { state: Mutex<Inner>, other: Mutex<u32> }
            impl RunCache {
                fn probe(&self) {
                    let mut state = self.state.lock();
                    state.touch();
                    let o = self.other.lock();
                }
            }
            fn local() {
                let writer = Mutex::new(0);
                let w = writer.lock();
            }
        ";
        let w = ws(src);
        let probe = &w.files[0].functions[0];
        assert_eq!(probe.qualified(), "RunCache::probe");
        assert_eq!(probe.acquisitions.len(), 1, "an undeclared field resolves to nothing");
        assert_eq!(probe.acquisitions[0].lock, rank("RunCache.state"));
        assert_eq!(probe.acquisitions[0].guard.as_deref(), Some("state"));
        let local = &w.files[0].functions[1];
        assert_eq!(local.acquisitions.len(), 0, "a local lock has no identity");
    }

    #[test]
    fn guard_helpers_resolve_at_call_sites_via_field_types() {
        let src = "
            pub struct RunCache { state: Mutex<Inner> }
            impl RunCache {
                fn lock(&self) -> MutexGuard<'_, Inner> {
                    match self.state.lock() { Ok(g) => g, Err(p) => p.into_inner() }
                }
                fn direct(&self) { let g = self.lock(); g.touch(); }
            }
            pub struct Reader<'a> { cache: &'a RunCache }
            impl Drop for Reader<'_> {
                fn drop(&mut self) { let g = self.cache.lock(); g.touch(); }
            }
        ";
        let w = ws(src);
        let direct = &w.files[0].functions[1];
        assert_eq!(direct.acquisitions.len(), 1, "{:?}", direct.acquisitions);
        assert_eq!(direct.acquisitions[0].lock, rank("RunCache.state"));
        let reader_drop = &w.files[0].functions[2];
        assert_eq!(reader_drop.owner.as_deref(), Some("Reader"));
        assert_eq!(reader_drop.acquisitions.len(), 1, "{:?}", reader_drop.acquisitions);
        assert_eq!(reader_drop.acquisitions[0].lock, rank("RunCache.state"));
    }

    #[test]
    fn extents_follow_bindings_and_drop() {
        let src = "
            pub struct RunCache { state: Mutex<u32>, store: Mutex<u32> }
            impl RunCache {
                fn f(&self) {
                    let g = self.state.lock();
                    drop(g);
                    let h = self.store.lock();
                    h.touch();
                }
                fn pat(&self) {
                    if let Ok(mut g) = self.state.lock() {
                        g.touch();
                    }
                    self.store.lock();
                }
                fn discard(&self) {
                    let _ = self.state.lock();
                    let _g = self.store.lock();
                    self.state.lock();
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
        let discard = &w.files[0].functions[2];
        let (a, b, c) =
            (&discard.acquisitions[0], &discard.acquisitions[1], &discard.acquisitions[2]);
        assert!(a.extent_end < b.site, "`let _ =` drops the guard at once: {a:?} vs {b:?}");
        assert_eq!(b.guard.as_deref(), Some("_g"));
        assert!(b.covers(c.site), "`let _g =` keeps the guard to the block end");
    }

    #[test]
    fn cross_file_field_resolution_and_test_exemption() {
        let a = "pub struct FlightInner { spans: Mutex<Vec<u32>> }";
        let b = "
            fn record(inner: &FlightInner) { let mut spans = inner.spans.lock(); spans.push(1); }
            #[cfg(test)]
            mod tests {
                fn t(inner: &FlightInner) { let g = inner.spans.lock(); }
            }
        ";
        let w = analyze(&[("a.rs", a), ("b.rs", b)]);
        let record = &w.files[1].functions[0];
        assert_eq!(record.acquisitions.len(), 1);
        assert_eq!(record.acquisitions[0].lock, rank("FlightInner.spans"));
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
