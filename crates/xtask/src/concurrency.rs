//! The concurrency lint: lock-order, blocking-call and unsafe-surface
//! analysis over the *host-side* crates (`tw-runtime`, `tw-obs`).
//!
//! The determinism lint ([`crate::lint`]) keeps the protocol crates
//! pure; these crates are the opposite — they exist to bridge pure
//! actors onto real threads, sockets and disks, so they are full of
//! mutexes, channels and one `unsafe` syscall module. The failure modes
//! that matter here are different: a lock held across a blocking call
//! in an executor's dispatch path is exactly the "slow local
//! processing" failure Lifeguard identifies as fatal to membership
//! protocols, and an inconsistent lock acquisition order is a deadlock
//! waiting for the right interleaving. Both are cheap to catch
//! statically and miserable to catch in a chaos run.
//!
//! ## What it checks
//!
//! | rule | rejects |
//! |------|---------|
//! | `double-lock` | re-acquiring a mutex already held on the same path (self-deadlock) |
//! | `lock-order` | a cycle in the lock-acquisition graph (deadlock between threads) |
//! | `blocking-under-lock` | sleeping, joining, unbounded channel/condvar waits or file I/O while a guard is held — directly or through a call |
//! | `blocking-in-event-loop` | an unbounded blocking operation reachable from the event-loop executor's dispatch path |
//! | `unsafe-gate` | `unsafe` outside a module carrying `#[allow(unsafe_code)]` |
//! | `unsafe-doc` | an `unsafe` block/fn/impl without a `// SAFETY:` comment |
//!
//! ## How it works (and its honest limits)
//!
//! The pass is built on the same hand-rolled lexer as the determinism
//! lint — no `syn`, no type information — plus a scope-tracking walker:
//!
//! * **Guards.** A guard is born at a `.lock()` call (or a call to a
//!   guard-returning helper method like `Pump::lock`, detected by a
//!   `MutexGuard` in the signature). A `let`-bound guard lives to the
//!   end of its scope or an explicit `drop(g)`; a temporary lives to
//!   the end of its statement — except as the scrutinee of
//!   `if let`/`while let`/`match`/`for`, where Rust (edition 2021)
//!   extends it across the body. That extension is precisely how a
//!   "one-liner" `if let Some(h) = handle.lock().take()` silently holds
//!   the mutex across everything inside the `if`.
//! * **Locks are named**, not typed: `self.state.lock()` inside
//!   `impl Pump` is the lock `Pump::state`; `member.lock()` is the lock
//!   `member`. Two names can refer to one mutex (a helper vs. a direct
//!   field access through another object), which can only *miss*
//!   findings, never invent them.
//! * **Calls resolve by name**, conservatively: a call is followed into
//!   a function defined in the scoped crates when the receiver is
//!   `self`/`Self` (resolved within the `impl`), the call is a bare
//!   path, or the name has exactly one in-scope definition and is not a
//!   common std method name (`flush`, `send`, `push`, …, which would
//!   alias `BufWriter::flush` and friends). Unresolved calls are
//!   assumed non-blocking and lock-free — again, misses over false
//!   positives.
//! * **Condvar waits** release the guard they are handed
//!   (`cv.wait_timeout(guard, d)`), so that guard is exempt at the wait
//!   site; any *other* guard still held is a finding. Bounded waits
//!   (`wait_timeout`, `recv_timeout`) are findings only under a lock;
//!   unbounded ones (`wait`, `recv()`, `join()`, sleeps, file I/O) are
//!   also findings anywhere the event-loop tick can reach.
//! * **`mod tests` bodies are skipped**: test harness code sleeps and
//!   joins by design, on threads that hold nothing the executors care
//!   about.
//!
//! The escape hatch is the same justified annotation the determinism
//! lint uses (`// tw-lint: allow(rule) -- why`); an unjustified or
//! unknown-rule annotation is itself a finding.

use crate::lexer::{tokenize, Token};
use crate::lint::{parse_allows, Finding};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// Crate source roots the concurrency lint applies to, relative to the
/// repo root. `bin/` subtrees are skipped, same as the determinism
/// lint: binaries are drivers, not long-lived concurrent services.
pub const SCOPED_DIRS: &[&str] = &["crates/runtime/src", "crates/obs/src"];

/// Rule names and one-line rationales, in presentation order.
pub const CONCURRENCY_RULES: &[(&str, &str)] = &[
    (
        "double-lock",
        "re-acquiring a held mutex self-deadlocks (std) or deadlocks later (parking_lot)",
    ),
    (
        "lock-order",
        "inconsistent acquisition order deadlocks under the right interleaving",
    ),
    (
        "blocking-under-lock",
        "a blocking call under a guard stalls every thread that wants the lock",
    ),
    (
        "blocking-in-event-loop",
        "the dispatch loop must never block: slow local processing reads as failure to peers",
    ),
    (
        "unsafe-gate",
        "unsafe code is confined to modules that opt in with #[allow(unsafe_code)]",
    ),
    (
        "unsafe-doc",
        "every unsafe block carries a SAFETY: comment stating its proof obligation",
    ),
];

/// Method names too overloaded in std to resolve by bare name: calling
/// `w.flush()` must not be conflated with `FlightRecorder::flush`.
const STD_COLLIDING: &[&str] = &[
    "new", "fmt", "len", "is_empty", "clone", "default", "drop", "from", "into", "next", "get",
    "insert", "remove", "push", "pop", "clear", "take", "iter", "send", "recv", "flush", "read",
    "write", "count", "run", "join", "wait", "lock", "record", "shutdown", "clear",
];

/// Blocking-operation classes. Bounded ops (timeouts) are findings only
/// while a guard is held; unbounded ops also must not be reachable from
/// the event-loop tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum OpClass {
    Bounded,
    Unbounded,
}

/// A guard alive somewhere on the walked path.
#[derive(Debug, Clone)]
struct Guard {
    lock: String,
    var: Option<String>,
    line: usize,
}

/// One lock acquisition observed in a function body.
#[derive(Debug, Clone)]
struct Acquire {
    lock: String,
    line: usize,
    held: Vec<Guard>,
}

/// One blocking operation observed in a function body.
#[derive(Debug, Clone)]
struct BlockOp {
    op: String,
    line: usize,
    class: OpClass,
    /// Guards held at the site, after condvar-argument exemption.
    held: Vec<Guard>,
}

/// One call site that resolved to in-scope definitions.
#[derive(Debug, Clone)]
struct CallSite {
    callee: String,
    /// Indices into the function table.
    targets: Vec<usize>,
    line: usize,
    held: Vec<Guard>,
}

/// Everything the walker learned about one function.
#[derive(Debug, Default)]
struct FnFacts {
    file: usize,
    acquires: Vec<Acquire>,
    blocks: Vec<BlockOp>,
    calls: Vec<CallSite>,
}

/// A parsed source file.
struct FileCtx {
    path: PathBuf,
    src: String,
    tokens: Vec<Token>,
    /// Token index ranges belonging to `mod tests { … }` bodies.
    test_spans: Vec<(usize, usize)>,
    /// `(body_open_brace_span, type_name)` for each `impl` block.
    impl_spans: Vec<(usize, usize, String)>,
}

/// Lint every scoped crate under `repo_root`.
pub fn lint_workspace(repo_root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut files = Vec::new();
    for dir in SCOPED_DIRS {
        let full = repo_root.join(dir);
        if !full.is_dir() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::NotFound,
                format!("concurrency lint scope dir missing: {}", full.display()),
            ));
        }
        for file in crate::lint::rust_files(&full)? {
            let src = std::fs::read_to_string(&file)?;
            let rel = file.strip_prefix(repo_root).unwrap_or(&file).to_path_buf();
            files.push((rel, src));
        }
    }
    Ok(lint_files(files))
}

/// Lint a set of sources as one analysis unit (the call graph and the
/// lock graph span all of them). `files` are `(path, source)` pairs;
/// a path ending in `event_loop.rs` marks its functions as event-loop
/// roots for the reachability rule.
pub fn lint_files(files: Vec<(PathBuf, String)>) -> Vec<Finding> {
    let ctxs: Vec<FileCtx> = files
        .into_iter()
        .map(|(path, src)| {
            let tokens = tokenize(&src);
            let test_spans = find_test_spans(&tokens);
            let impl_spans = find_impl_spans(&tokens);
            FileCtx {
                path,
                src,
                tokens,
                test_spans,
                impl_spans,
            }
        })
        .collect();

    let mut findings = Vec::new();

    // Annotation hygiene (shared with the determinism lint).
    for ctx in &ctxs {
        let allows = parse_allows(&ctx.src, &crate::lint::all_rule_names());
        for (line, msg) in allows.errors() {
            findings.push(Finding {
                file: ctx.path.clone(),
                line: *line,
                rule: "lint-annotation".into(),
                message: msg.clone(),
            });
        }
    }

    // Function table.
    let fns = collect_fns(&ctxs);
    let name_index = build_name_index(&fns);
    let helper_locks = detect_guard_helpers(&ctxs, &fns);

    // Walk every body.
    let facts: Vec<FnFacts> = fns
        .iter()
        .enumerate()
        .map(|(i, f)| walk_fn(&ctxs, &fns, &name_index, &helper_locks, i, f))
        .collect();

    // Intra-procedural findings + the lock graph.
    let mut edges: BTreeMap<(String, String), (usize, usize)> = BTreeMap::new(); // (file, line) of first sighting
    for fact in &facts {
        for a in &fact.acquires {
            for h in &a.held {
                if h.lock == a.lock {
                    findings.push(finding(
                        &ctxs[fact.file],
                        a.line,
                        "double-lock",
                        format!(
                            "`{}` acquired again while already held (held since line {})",
                            a.lock, h.line
                        ),
                    ));
                } else {
                    edges
                        .entry((h.lock.clone(), a.lock.clone()))
                        .or_insert((fact.file, a.line));
                }
            }
        }
        for b in &fact.blocks {
            if !b.held.is_empty() {
                let locks: Vec<&str> = b.held.iter().map(|g| g.lock.as_str()).collect();
                findings.push(finding(
                    &ctxs[fact.file],
                    b.line,
                    "blocking-under-lock",
                    format!("blocking `{}` while holding `{}`", b.op, locks.join("`, `")),
                ));
            }
        }
    }

    // Inter-procedural: transitive blocking ops and lock acquisitions.
    let trans = transitive_facts(&facts);
    for fact in &facts {
        for c in &fact.calls {
            if c.held.is_empty() {
                continue;
            }
            let mut seen_locks: BTreeSet<String> = BTreeSet::new();
            // One finding per call site: the first transitive blocking
            // op stands in for all of them (they share the fix).
            let blocking: Vec<&(String, usize, usize, OpClass)> = c
                .targets
                .iter()
                .flat_map(|&t| trans[t].blocks.iter())
                .collect();
            if let Some((op, file, line, _)) = blocking.first() {
                let locks: Vec<&str> = c.held.iter().map(|g| g.lock.as_str()).collect();
                let more = if blocking.len() > 1 {
                    format!(" and {} more op(s)", blocking.len() - 1)
                } else {
                    String::new()
                };
                findings.push(finding(
                    &ctxs[fact.file],
                    c.line,
                    "blocking-under-lock",
                    format!(
                        "call to `{}` may block (`{}` at {}:{}{more}) while holding `{}`",
                        c.callee,
                        op,
                        ctxs[*file].path.display(),
                        line,
                        locks.join("`, `")
                    ),
                ));
            }
            for &t in &c.targets {
                for (lock, _file, _line) in &trans[t].locks {
                    if !seen_locks.insert(lock.clone()) {
                        continue;
                    }
                    for h in &c.held {
                        if h.lock == *lock {
                            findings.push(finding(
                                &ctxs[fact.file],
                                c.line,
                                "double-lock",
                                format!(
                                    "call to `{}` re-acquires `{}`, already held here",
                                    c.callee, lock
                                ),
                            ));
                        } else {
                            edges
                                .entry((h.lock.clone(), lock.clone()))
                                .or_insert((fact.file, c.line));
                        }
                    }
                }
            }
        }
    }

    // Lock-order cycles over the acquisition graph.
    findings.extend(report_cycles(&ctxs, &edges));

    // Event-loop reachability: unbounded blocking ops in any function
    // reachable from a function defined in event_loop.rs.
    findings.extend(event_loop_reachability(&ctxs, &fns, &facts));

    // Unsafe-surface audit.
    for ctx in &ctxs {
        findings.extend(audit_unsafe(ctx));
    }

    // Apply the allow annotations per file, then sort and dedupe.
    let kept: Vec<Finding> = findings
        .into_iter()
        .filter(|f| {
            if f.rule == "lint-annotation" {
                return true;
            }
            let Some(ctx) = ctxs.iter().find(|c| c.path == f.file) else {
                return true;
            };
            let allows = parse_allows(&ctx.src, &crate::lint::all_rule_names());
            !allows.covers(&f.rule, f.line)
        })
        .collect();
    let mut out = kept;
    out.sort_by(|a, b| {
        (&a.file, a.line, &a.rule, &a.message).cmp(&(&b.file, b.line, &b.rule, &b.message))
    });
    out.dedup();
    out
}

fn finding(ctx: &FileCtx, line: usize, rule: &str, message: String) -> Finding {
    Finding {
        file: ctx.path.clone(),
        line,
        rule: rule.into(),
        message,
    }
}

// ---------------------------------------------------------------------
// Token-stream structure: braces, test modules, impl blocks, functions.
// ---------------------------------------------------------------------

/// Index of the `}` matching the `{` at `open`.
fn match_brace(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    for (i, t) in tokens.iter().enumerate().skip(open) {
        match t.text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
    }
    tokens.len().saturating_sub(1)
}

/// Index just past a balanced `(…)`/`[…]`/`{…}` group opening at `i`.
fn skip_group(tokens: &[Token], i: usize) -> usize {
    let (open, close) = match tokens[i].text.as_str() {
        "(" => ("(", ")"),
        "[" => ("[", "]"),
        "{" => ("{", "}"),
        _ => return i + 1,
    };
    let mut depth = 0usize;
    let mut j = i;
    while j < tokens.len() {
        if tokens[j].text == open {
            depth += 1;
        } else if tokens[j].text == close {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    tokens.len()
}

/// `mod tests { … }` token ranges (inclusive of the braces).
fn find_test_spans(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i + 2 < tokens.len() {
        if tokens[i].is_ident
            && tokens[i].text == "mod"
            && tokens[i + 1].is_ident
            && tokens[i + 1].text == "tests"
            && tokens[i + 2].text == "{"
        {
            let close = match_brace(tokens, i + 2);
            out.push((i, close));
            i = close + 1;
        } else {
            i += 1;
        }
    }
    out
}

fn in_spans(spans: &[(usize, usize)], i: usize) -> bool {
    spans.iter().any(|(a, b)| i >= *a && i <= *b)
}

/// `impl` blocks: `(body_open, body_close, type_name)`. For
/// `impl Trait for Type`, the type is `Type`.
fn find_impl_spans(tokens: &[Token]) -> Vec<(usize, usize, String)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if !(tokens[i].is_ident && tokens[i].text == "impl") {
            i += 1;
            continue;
        }
        // Skip `impl Trait` in type position (`fn f(x: impl AsRef<..>)`,
        // `-> impl Iterator`): an impl *item* can only follow the end of
        // another item or an attribute.
        if i > 0
            && !matches!(tokens[i - 1].text.as_str(), "}" | ";" | "]")
            && tokens[i - 1].text != "unsafe"
        {
            i += 1;
            continue;
        }
        // Scan the header up to the body `{`, tracking the last path
        // segment seen and whether we crossed a `for`.
        let mut j = i + 1;
        let mut last_seg: Option<String> = None;
        let mut after_for: Option<String> = None;
        let mut saw_for = false;
        let mut angle = 0i32;
        while j < tokens.len() && !(angle <= 0 && tokens[j].text == "{") {
            match tokens[j].text.as_str() {
                "<" => angle += 1,
                // `->` and `=>` lex as two tokens; their `>` is not a
                // generic-bracket close.
                ">" if !matches!(tokens[j - 1].text.as_str(), "-" | "=") => {
                    angle = (angle - 1).max(0)
                }
                _ => {
                    if angle == 0 && tokens[j].is_ident {
                        if tokens[j].text == "for" {
                            saw_for = true;
                        } else if tokens[j].text != "where"
                            && tokens[j].text != "dyn"
                            && tokens[j].text != "mut"
                        {
                            if saw_for && after_for.is_none() {
                                after_for = Some(tokens[j].text.clone());
                            }
                            // Keep extending the current path: the type
                            // name is the segment right before `{`/`for`.
                            if !saw_for {
                                last_seg = Some(tokens[j].text.clone());
                            } else {
                                after_for = Some(tokens[j].text.clone());
                            }
                        }
                    }
                }
            }
            j += 1;
        }
        if j >= tokens.len() {
            break;
        }
        let ty = after_for.or(last_seg).unwrap_or_else(|| "?".into());
        let close = match_brace(tokens, j);
        out.push((j, close, ty));
        i = j + 1;
    }
    out
}

/// A function definition found in a file.
#[derive(Debug, Clone)]
struct FnDef {
    name: String,
    impl_ty: Option<String>,
    file: usize,
    /// Signature token range (name .. body `{`).
    sig: (usize, usize),
    /// Body token range (inclusive braces).
    body: (usize, usize),
    is_event_loop_file: bool,
}

fn collect_fns(ctxs: &[FileCtx]) -> Vec<FnDef> {
    let mut out = Vec::new();
    for (fi, ctx) in ctxs.iter().enumerate() {
        let toks = &ctx.tokens;
        let is_el = ctx.path.file_name().is_some_and(|n| n == "event_loop.rs");
        let mut i = 0;
        while i + 1 < toks.len() {
            if !(toks[i].is_ident && toks[i].text == "fn") || in_spans(&ctx.test_spans, i) {
                i += 1;
                continue;
            }
            let Some(name_tok) = toks.get(i + 1) else {
                break;
            };
            if !name_tok.is_ident {
                i += 1;
                continue;
            }
            // Find the body `{` (or a `;` for a bodyless trait/extern
            // declaration), skipping generics and argument parens.
            let mut j = i + 2;
            let mut body_open = None;
            let mut angle = 0i32;
            while j < toks.len() {
                match toks[j].text.as_str() {
                    "<" => {
                        angle += 1;
                        j += 1;
                    }
                    ">" => {
                        if !matches!(toks[j - 1].text.as_str(), "-" | "=") {
                            angle = (angle - 1).max(0);
                        }
                        j += 1;
                    }
                    "(" | "[" => j = skip_group(toks, j),
                    "{" if angle <= 0 => {
                        body_open = Some(j);
                        break;
                    }
                    ";" if angle <= 0 => break,
                    _ => j += 1,
                }
            }
            let Some(open) = body_open else {
                i = j + 1;
                continue;
            };
            let close = match_brace(toks, open);
            let impl_ty = ctx
                .impl_spans
                .iter()
                .find(|(a, b, _)| i > *a && i < *b)
                .map(|(_, _, ty)| ty.clone());
            out.push(FnDef {
                name: name_tok.text.clone(),
                impl_ty,
                file: fi,
                sig: (i + 1, open),
                body: (open, close),
                is_event_loop_file: is_el,
            });
            i = open + 1; // nested fns found by continuing the scan
        }
    }
    out
}

fn build_name_index(fns: &[FnDef]) -> BTreeMap<String, Vec<usize>> {
    let mut idx: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for (i, f) in fns.iter().enumerate() {
        idx.entry(f.name.clone()).or_default().push(i);
    }
    idx
}

/// Map `(impl_type, method)` → lock id for guard-returning helpers
/// (signature mentions a guard type; the lock is the first acquisition
/// in the body).
fn detect_guard_helpers(ctxs: &[FileCtx], fns: &[FnDef]) -> BTreeMap<(String, String), String> {
    let mut map = BTreeMap::new();
    for f in fns {
        let toks = &ctxs[f.file].tokens;
        let sig_has_guard = toks[f.sig.0..f.sig.1].iter().any(|t| {
            t.is_ident
                && matches!(
                    t.text.as_str(),
                    "MutexGuard" | "RwLockReadGuard" | "RwLockWriteGuard"
                )
        });
        if !sig_has_guard {
            continue;
        }
        let Some(ty) = &f.impl_ty else { continue };
        // First `.lock()` receiver inside the body names the lock.
        let mut j = f.body.0;
        while j < f.body.1 {
            if toks[j].is_ident
                && toks[j].text == "lock"
                && j > 0
                && toks[j - 1].text == "."
                && toks.get(j + 1).is_some_and(|t| t.text == "(")
                && toks.get(j + 2).is_some_and(|t| t.text == ")")
            {
                let lock = lock_id_for_receiver(toks, j, Some(ty), &BTreeMap::new());
                map.insert((ty.clone(), f.name.clone()), lock);
                break;
            }
            j += 1;
        }
    }
    map
}

/// Resolve the lock id for the receiver of a `.lock()`-style call whose
/// method-name token sits at `m` (`tokens[m-1]` is `.`).
///
/// `self.a.b.lock()` → `Ty::b`; `x.lock()` → `x`; `self.lock()` →
/// the impl's guard helper if one exists, else `Ty::<self>`.
fn lock_id_for_receiver(
    tokens: &[Token],
    m: usize,
    impl_ty: Option<&str>,
    helpers: &BTreeMap<(String, String), String>,
) -> String {
    // Walk the dotted chain backwards: `.` ident `.` ident … start.
    let mut fields: Vec<String> = Vec::new();
    let mut j = m - 1; // the `.` before the method name
    let mut is_self_rooted = false;
    loop {
        if j == 0 {
            break;
        }
        let prev = &tokens[j - 1];
        if prev.is_ident {
            if prev.text == "self" {
                is_self_rooted = true;
                break;
            }
            fields.push(prev.text.clone());
            if j >= 2 && tokens[j - 2].text == "." {
                j -= 2;
                continue;
            }
            break;
        }
        // Unknown receiver shape (indexing, call result, tuple field —
        // numeric tuple indices are dropped by the lexer).
        break;
    }
    fields.reverse();
    let ty = impl_ty.unwrap_or("?");
    match (is_self_rooted, fields.last()) {
        (true, Some(last)) => format!("{ty}::{last}"),
        (true, None) => {
            // `self.lock()` (or a tuple-field `self.0.lock()`): prefer
            // the impl's guard-returning helper resolution.
            if let Some(lock) = helpers.get(&(ty.to_string(), "lock".to_string())) {
                lock.clone()
            } else {
                format!("{ty}::<self>")
            }
        }
        (false, Some(last)) => {
            if fields.len() == 1 {
                last.clone()
            } else {
                fields.join(".")
            }
        }
        (false, None) => format!("{ty}::<expr>"),
    }
}

// ---------------------------------------------------------------------
// The body walker.
// ---------------------------------------------------------------------

/// Statement head classification, decided from its first tokens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Head {
    Plain,
    /// `if let` / `while let` / `match` / `for`: scrutinee temporaries
    /// extend across the body (Rust 2021 temporary-scope rules).
    ScrutineeExtends,
    /// `if` / `while` without `let`: condition temporaries drop before
    /// the body runs.
    CondDrops,
}

struct Scope {
    guards: Vec<Guard>,
}

struct StmtState {
    head: Head,
    /// `let x = …;` / `x = …;` binding target.
    bind_var: Option<String>,
    /// Token index just past the `=`, if any.
    rhs_start: Option<usize>,
    temps: Vec<Guard>,
}

impl StmtState {
    fn fresh() -> Self {
        StmtState {
            head: Head::Plain,
            bind_var: None,
            rhs_start: None,
            temps: Vec::new(),
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn walk_fn(
    ctxs: &[FileCtx],
    fns: &[FnDef],
    name_index: &BTreeMap<String, Vec<usize>>,
    helpers: &BTreeMap<(String, String), String>,
    self_idx: usize,
    f: &FnDef,
) -> FnFacts {
    let ctx = &ctxs[f.file];
    let toks = &ctx.tokens;
    let mut facts = FnFacts {
        file: f.file,
        ..FnFacts::default()
    };

    // Nested fn bodies inside ours get skipped wholesale.
    let nested: Vec<(usize, usize)> = fns
        .iter()
        .enumerate()
        .filter(|(i, g)| {
            *i != self_idx && g.file == f.file && g.body.0 > f.body.0 && g.body.1 < f.body.1
        })
        .map(|(_, g)| (g.sig.0 - 1, g.body.1))
        .collect();

    let mut scopes: Vec<Scope> = vec![Scope { guards: Vec::new() }];
    let mut stmt = StmtState::fresh();
    let mut i = f.body.0 + 1;

    // Classify the statement starting at token `i`.
    let classify = |i: usize| -> (Head, Option<String>, Option<usize>) {
        let t = |k: usize| toks.get(i + k).map(|t| t.text.as_str());
        match t(0) {
            Some("if") | Some("while") => {
                if t(1) == Some("let") {
                    (Head::ScrutineeExtends, None, None)
                } else {
                    (Head::CondDrops, None, None)
                }
            }
            Some("match") | Some("for") => (Head::ScrutineeExtends, None, None),
            Some("let") => {
                let mut k = 1;
                if t(k) == Some("mut") {
                    k += 1;
                }
                let var = toks
                    .get(i + k)
                    .filter(|x| x.is_ident)
                    .map(|x| x.text.clone());
                // Find the `=` introducing the initializer.
                let mut j = i + k;
                let mut eq = None;
                while let Some(tok) = toks.get(j) {
                    match tok.text.as_str() {
                        "=" => {
                            eq = Some(j + 1);
                            break;
                        }
                        ";" | "{" | "}" => break,
                        _ => j += 1,
                    }
                }
                (Head::Plain, var, eq)
            }
            Some(first) => {
                // `x = …;` assignment rebinding an existing guard var.
                if toks[i].is_ident
                    && toks.get(i + 1).is_some_and(|x| x.text == "=")
                    && toks.get(i + 2).is_none_or(|x| x.text != "=")
                    && first != "return"
                {
                    (Head::Plain, Some(first.to_string()), Some(i + 2))
                } else {
                    (Head::Plain, None, None)
                }
            }
            None => (Head::Plain, None, None),
        }
    };

    let (h, v, r) = classify(i);
    stmt.head = h;
    stmt.bind_var = v;
    stmt.rhs_start = r;

    while i < f.body.1 {
        if let Some(&(_, end)) = nested.iter().find(|(s, _)| *s == i || *s + 1 == i) {
            i = end + 1;
            continue;
        }
        let text = toks[i].text.as_str();
        match text {
            "{" => {
                let mut sc = Scope { guards: Vec::new() };
                match stmt.head {
                    Head::ScrutineeExtends => sc.guards.append(&mut stmt.temps),
                    Head::CondDrops | Head::Plain => stmt.temps.clear(),
                }
                scopes.push(sc);
                stmt = StmtState::fresh();
                i += 1;
                let (h, v, r) = classify(i);
                stmt.head = h;
                stmt.bind_var = v;
                stmt.rhs_start = r;
                continue;
            }
            "}" => {
                stmt.temps.clear();
                scopes.pop();
                if scopes.is_empty() {
                    scopes.push(Scope { guards: Vec::new() });
                }
                stmt = StmtState::fresh();
                i += 1;
                let (h, v, r) = classify(i);
                stmt.head = h;
                stmt.bind_var = v;
                stmt.rhs_start = r;
                continue;
            }
            ";" | "," => {
                stmt.temps.clear();
                stmt = StmtState::fresh();
                i += 1;
                let (h, v, r) = classify(i);
                stmt.head = h;
                stmt.bind_var = v;
                stmt.rhs_start = r;
                continue;
            }
            _ => {}
        }

        let tok = &toks[i];
        if !tok.is_ident {
            i += 1;
            continue;
        }

        // Explicit `drop(g)`.
        if tok.text == "drop"
            && toks.get(i + 1).is_some_and(|t| t.text == "(")
            && toks.get(i + 2).is_some_and(|t| t.is_ident)
            && toks.get(i + 3).is_some_and(|t| t.text == ")")
        {
            let var = &toks[i + 2].text;
            for sc in &mut scopes {
                sc.guards.retain(|g| g.var.as_deref() != Some(var));
            }
            stmt.temps.retain(|g| g.var.as_deref() != Some(var));
            i += 4;
            continue;
        }

        let is_method = i > 0 && toks[i - 1].text == ".";
        let next_is_paren = toks.get(i + 1).is_some_and(|t| t.text == "(");
        let zero_arg = next_is_paren && toks.get(i + 2).is_some_and(|t| t.text == ")");

        // Guard acquisition: `.lock()` or a guard-returning helper.
        let acq_lock: Option<String> = if is_method && zero_arg {
            if tok.text == "lock" {
                Some(lock_id_for_receiver(toks, i, f.impl_ty.as_deref(), helpers))
            } else if toks
                .get(i.wrapping_sub(2))
                .is_some_and(|t| t.text == "self")
            {
                f.impl_ty
                    .as_deref()
                    .and_then(|ty| helpers.get(&(ty.to_string(), tok.text.clone())))
                    .cloned()
            } else {
                None
            }
        } else {
            None
        };
        if let Some(lock) = acq_lock {
            let held = held_now(&scopes, &stmt);
            facts.acquires.push(Acquire {
                lock: lock.clone(),
                line: tok.line,
                held,
            });
            // Consume `()` plus any `unwrap`-family adapters; decide
            // the guard's home from what follows.
            let chain_start = receiver_start(toks, i);
            let mut j = i + 3; // past `name ( )`
            loop {
                if toks.get(j).is_some_and(|t| t.text == ".")
                    && toks.get(j + 1).is_some_and(|t| {
                        t.is_ident
                            && matches!(t.text.as_str(), "unwrap" | "unwrap_or_else" | "expect")
                    })
                    && toks.get(j + 2).is_some_and(|t| t.text == "(")
                {
                    j = skip_group(toks, j + 2);
                } else {
                    break;
                }
            }
            let ends_stmt = toks.get(j).is_some_and(|t| t.text == ";");
            let chain_is_rhs = stmt.rhs_start == Some(chain_start);
            let guard = Guard {
                lock,
                var: if ends_stmt && chain_is_rhs {
                    stmt.bind_var.clone()
                } else {
                    None
                },
                line: tok.line,
            };
            if ends_stmt && chain_is_rhs && stmt.bind_var.is_some() {
                // Re-binding a name releases the old guard first.
                let var = stmt.bind_var.clone();
                for sc in &mut scopes {
                    sc.guards.retain(|g| g.var != var);
                }
                scopes.last_mut().expect("scope").guards.push(guard);
            } else {
                stmt.temps.push(guard);
            }
            i = j;
            continue;
        }

        // Blocking operations.
        if let Some((op, class, condvar)) = blocking_op(toks, i, is_method, zero_arg) {
            let mut held = held_now(&scopes, &stmt);
            if condvar && next_is_paren {
                // The guard handed to the condvar is released for the
                // duration of the wait.
                let end = skip_group(toks, i + 1);
                let args: BTreeSet<&str> = toks[i + 1..end]
                    .iter()
                    .filter(|t| t.is_ident)
                    .map(|t| t.text.as_str())
                    .collect();
                held.retain(|g| g.var.as_deref().is_none_or(|v| !args.contains(v)));
            }
            facts.blocks.push(BlockOp {
                op,
                line: tok.line,
                class,
                held,
            });
            i += 1;
            continue;
        }

        // Calls into in-scope functions.
        if next_is_paren && !is_keyword(&tok.text) {
            if let Some(targets) = resolve_call(toks, i, is_method, f, fns, name_index) {
                facts.calls.push(CallSite {
                    callee: tok.text.clone(),
                    targets,
                    line: tok.line,
                    held: held_now(&scopes, &stmt),
                });
            }
        }
        i += 1;
    }
    facts
}

/// First token index of the dotted receiver chain whose final `.method`
/// name sits at `m`.
fn receiver_start(tokens: &[Token], m: usize) -> usize {
    let mut j = m;
    while j >= 2 && tokens[j - 1].text == "." && tokens[j - 2].is_ident {
        j -= 2;
    }
    // A tuple-index receiver (`self.0.lock()`) leaves a bare `.`: the
    // numeric token was dropped by the lexer.
    while j >= 2 && tokens[j - 1].text == "." {
        j -= 1;
        if j >= 1 && tokens[j - 1].is_ident {
            j -= 1;
        } else {
            break;
        }
    }
    j
}

fn held_now(scopes: &[Scope], stmt: &StmtState) -> Vec<Guard> {
    let mut held: Vec<Guard> = scopes
        .iter()
        .flat_map(|s| s.guards.iter().cloned())
        .collect();
    held.extend(stmt.temps.iter().cloned());
    held
}

fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "if" | "else"
            | "while"
            | "for"
            | "loop"
            | "match"
            | "let"
            | "fn"
            | "return"
            | "move"
            | "mut"
            | "ref"
            | "in"
            | "as"
            | "break"
            | "continue"
            | "unsafe"
            | "Some"
            | "None"
            | "Ok"
            | "Err"
    )
}

/// Classify a blocking operation at token `i`. Returns
/// `(display_name, class, is_condvar_wait)`.
fn blocking_op(
    toks: &[Token],
    i: usize,
    is_method: bool,
    zero_arg: bool,
) -> Option<(String, OpClass, bool)> {
    let t = &toks[i];
    let next_is_paren = toks.get(i + 1).is_some_and(|x| x.text == "(");
    if !next_is_paren {
        // Path forms: `File::open`, `File::create`, `OpenOptions::new`.
        if t.is_ident
            && (t.text == "File" || t.text == "OpenOptions")
            && toks.get(i + 1).is_some_and(|x| x.text == "::")
        {
            let m = toks.get(i + 2).map(|x| x.text.as_str()).unwrap_or("");
            if matches!(m, "open" | "create" | "new") {
                return Some((format!("{}::{}", t.text, m), OpClass::Unbounded, false));
            }
        }
        return None;
    }
    match t.text.as_str() {
        "sleep" => Some(("thread::sleep".into(), OpClass::Unbounded, false)),
        "recv" if is_method && zero_arg => Some(("recv()".into(), OpClass::Unbounded, false)),
        "join" if is_method && zero_arg => Some(("join()".into(), OpClass::Unbounded, false)),
        "flush" if is_method && zero_arg => Some(("flush()".into(), OpClass::Unbounded, false)),
        "wait" if is_method => Some(("Condvar::wait".into(), OpClass::Unbounded, true)),
        "wait_timeout" | "wait_for" | "wait_while" | "wait_timeout_while" if is_method => {
            Some((format!("Condvar::{}", t.text), OpClass::Bounded, true))
        }
        "recv_timeout" | "send_timeout" if is_method => {
            Some((format!("{}()", t.text), OpClass::Bounded, false))
        }
        "write_all" | "read_exact" | "read_to_end" | "read_to_string" | "sync_all"
        | "sync_data"
            if is_method =>
        {
            Some((format!("{}()", t.text), OpClass::Unbounded, false))
        }
        _ => None,
    }
}

/// Resolve a call by name, conservatively (see module docs). Returns
/// the candidate definition indices, or `None` when unresolvable.
fn resolve_call(
    toks: &[Token],
    i: usize,
    is_method: bool,
    caller: &FnDef,
    fns: &[FnDef],
    name_index: &BTreeMap<String, Vec<usize>>,
) -> Option<Vec<usize>> {
    let name = &toks[i].text;
    let candidates = name_index.get(name)?;
    // Definition sites themselves are not calls.
    if i > 0 && toks[i - 1].is_ident && toks[i - 1].text == "fn" {
        return None;
    }
    let self_form = if is_method {
        toks.get(i.wrapping_sub(2))
            .is_some_and(|t| t.text == "self")
            && toks.get(i.wrapping_sub(3)).is_none_or(|t| t.text != ".")
    } else {
        i >= 2 && toks[i - 1].text == "::" && toks[i - 2].is_ident && toks[i - 2].text == "Self"
    };
    if self_form {
        if let Some(ty) = &caller.impl_ty {
            let own: Vec<usize> = candidates
                .iter()
                .copied()
                .filter(|&c| fns[c].impl_ty.as_deref() == Some(ty))
                .collect();
            if !own.is_empty() {
                return Some(own);
            }
        }
        if candidates.len() == 1 {
            return Some(candidates.clone());
        }
        return None;
    }
    if !is_method {
        // Bare call: `apply_actions(…)` — but not a path through a
        // foreign module (`std::mem::take(…)`).
        if i >= 2 && toks[i - 1].text == "::" {
            return None;
        }
        if candidates.len() == 1 {
            return Some(candidates.clone());
        }
        return None;
    }
    // Method on an arbitrary receiver: only a unique, non-std-colliding
    // name resolves.
    if candidates.len() == 1 && !STD_COLLIDING.contains(&name.as_str()) {
        return Some(candidates.clone());
    }
    None
}

// ---------------------------------------------------------------------
// Inter-procedural propagation.
// ---------------------------------------------------------------------

/// Transitive facts per function: blocking ops and lock acquisitions
/// reachable through resolved calls.
#[derive(Debug, Default, Clone)]
struct TransFacts {
    /// (op, file, line, class)
    blocks: Vec<(String, usize, usize, OpClass)>,
    /// (lock, file, line)
    locks: Vec<(String, usize, usize)>,
}

fn transitive_facts(facts: &[FnFacts]) -> Vec<TransFacts> {
    fn visit(
        i: usize,
        facts: &[FnFacts],
        memo: &mut Vec<Option<TransFacts>>,
        on_stack: &mut Vec<bool>,
    ) -> TransFacts {
        if let Some(t) = &memo[i] {
            return t.clone();
        }
        if on_stack[i] {
            return TransFacts::default(); // recursion: fixpoint below the cycle
        }
        on_stack[i] = true;
        let mut t = TransFacts::default();
        for b in &facts[i].blocks {
            t.blocks
                .push((b.op.clone(), facts[i].file, b.line, b.class));
        }
        for a in &facts[i].acquires {
            t.locks.push((a.lock.clone(), facts[i].file, a.line));
        }
        for c in &facts[i].calls {
            for &target in &c.targets {
                let sub = visit(target, facts, memo, on_stack);
                t.blocks.extend(sub.blocks);
                t.locks.extend(sub.locks);
            }
        }
        t.blocks.sort();
        t.blocks.dedup();
        t.locks.sort();
        t.locks.dedup();
        on_stack[i] = false;
        memo[i] = Some(t.clone());
        t
    }
    let mut memo: Vec<Option<TransFacts>> = vec![None; facts.len()];
    let mut on_stack = vec![false; facts.len()];
    (0..facts.len())
        .map(|i| visit(i, facts, &mut memo, &mut on_stack))
        .collect()
}

fn report_cycles(
    ctxs: &[FileCtx],
    edges: &BTreeMap<(String, String), (usize, usize)>,
) -> Vec<Finding> {
    // adjacency
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (from, to) in edges.keys() {
        adj.entry(from).or_default().push(to);
    }
    let reaches = |start: &str, goal: &str| -> bool {
        let mut stack = vec![start];
        let mut seen = BTreeSet::new();
        while let Some(n) = stack.pop() {
            if n == goal {
                return true;
            }
            if seen.insert(n) {
                if let Some(next) = adj.get(n) {
                    stack.extend(next.iter().copied());
                }
            }
        }
        false
    };
    let mut out = Vec::new();
    for ((from, to), (file, line)) in edges {
        if reaches(to, from) {
            out.push(finding(
                &ctxs[*file],
                *line,
                "lock-order",
                format!(
                    "lock-order cycle: `{from}` is held while `{to}` is acquired here, \
                     but another path acquires them in the opposite order"
                ),
            ));
        }
    }
    out
}

fn event_loop_reachability(ctxs: &[FileCtx], fns: &[FnDef], facts: &[FnFacts]) -> Vec<Finding> {
    let mut reachable: BTreeMap<usize, String> = BTreeMap::new(); // fn idx → via-chain
    let mut queue: Vec<usize> = Vec::new();
    for (i, f) in fns.iter().enumerate() {
        if f.is_event_loop_file {
            reachable.insert(i, f.name.clone());
            queue.push(i);
        }
    }
    while let Some(i) = queue.pop() {
        let chain = reachable[&i].clone();
        for c in &facts[i].calls {
            for &t in &c.targets {
                if let Entry::Vacant(e) = reachable.entry(t) {
                    e.insert(format!("{chain} → {}", fns[t].name));
                    queue.push(t);
                }
            }
        }
    }
    let mut out = Vec::new();
    for (&i, chain) in &reachable {
        for b in &facts[i].blocks {
            if b.class == OpClass::Unbounded {
                out.push(finding(
                    &ctxs[facts[i].file],
                    b.line,
                    "blocking-in-event-loop",
                    format!(
                        "blocking `{}` reachable from the event-loop tick ({chain})",
                        b.op
                    ),
                ));
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// Unsafe-surface audit.
// ---------------------------------------------------------------------

fn audit_unsafe(ctx: &FileCtx) -> Vec<Finding> {
    let toks = &ctx.tokens;
    let lines: Vec<&str> = ctx.src.lines().collect();
    // Spans of modules gated with `#[allow(unsafe_code)]`.
    let mut gated: Vec<(usize, usize)> = Vec::new();
    let mut i = 0;
    while i + 6 < toks.len() {
        let attr = toks[i].text == "#"
            && toks[i + 1].text == "["
            && toks[i + 2].text == "allow"
            && toks[i + 3].text == "("
            && toks[i + 4].text == "unsafe_code"
            && toks[i + 5].text == ")"
            && toks[i + 6].text == "]";
        if !attr {
            i += 1;
            continue;
        }
        // The attribute must sit on a module for the gate to count.
        let mut j = i + 7;
        while j < toks.len() && matches!(toks[j].text.as_str(), "pub" | "(" | ")" | "crate") {
            j += 1;
        }
        if toks.get(j).is_some_and(|t| t.is_ident && t.text == "mod") {
            let mut k = j + 1;
            while k < toks.len() && toks[k].text != "{" && toks[k].text != ";" {
                k += 1;
            }
            if toks.get(k).is_some_and(|t| t.text == "{") {
                gated.push((k, match_brace(toks, k)));
            }
        }
        i += 7;
    }

    let mut out = Vec::new();
    for (ti, t) in toks.iter().enumerate() {
        if !(t.is_ident && t.text == "unsafe") || in_spans(&ctx.test_spans, ti) {
            continue;
        }
        if !in_spans(&gated, ti) {
            out.push(finding(
                ctx,
                t.line,
                "unsafe-gate",
                "`unsafe` outside a module gated with `#[allow(unsafe_code)]`".to_string(),
            ));
        }
        // Every unsafe block / fn / impl needs a SAFETY: comment in the
        // contiguous comment block directly above (or on its own line).
        let mut documented = lines.get(t.line - 1).is_some_and(|l| l.contains("SAFETY:"));
        let mut ln = t.line - 1; // index of the line above, 1-based → 0-based
        while !documented && ln > 0 {
            let above = lines[ln - 1].trim_start();
            if above.starts_with("//") {
                if above.contains("SAFETY:") {
                    documented = true;
                }
                ln -= 1;
            } else {
                break;
            }
        }
        if !documented {
            out.push(finding(
                ctx,
                t.line,
                "unsafe-doc",
                "`unsafe` without a `// SAFETY:` comment explaining why it is sound".to_string(),
            ));
        }
    }
    out
}
