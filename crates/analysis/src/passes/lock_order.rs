//! `lock-order`: the static lock-acquisition graph of the serving stack
//! is acyclic and every edge is a reviewed decision.
//!
//! The serving runtime's concurrency story (DESIGN.md §8, §10) is "all
//! cross-thread hand-off via `Mutex`/`Condvar`/`RwLock`, atomics are
//! side-band only". Blocking primitives trade data races for deadlocks,
//! and the deadlock-freedom argument is a lock *order*: if every thread
//! acquires locks consistently with one partial order, no cycle of
//! waiters can form. This pass extracts that order from the source of
//! `crates/serve` and `crates/obs` and enforces it:
//!
//! 1. **Lock discovery** — every field or static declared as `Mutex<…>`,
//!    `RwLock<…>`, or `Condvar` becomes a lock identity
//!    `<file_stem>::<name>` (e.g. `ingest::state`, `recorder::GATE`).
//! 2. **Acquisition sites** — `x.lock()`, and zero-argument `x.read()` /
//!    `x.write()` where `x` is a discovered lock (zero-argument, so
//!    `io::Read::read(buf)` never aliases). A call through a
//!    lock-returning accessor (`registry().lock()`) resolves via the
//!    accessor's body. `Condvar::wait` sites are recognized but create
//!    no edges: waiting releases and reacquires the same mutex.
//! 3. **Nesting evidence** — within one function, an acquisition while a
//!    previous guard is still live adds edge `held → acquired`. Guard
//!    liveness is tracked through `let` bindings (released at `drop(g)`
//!    or end of the binding's block) and through temporaries (released
//!    at the end of the statement). Calling a function that itself
//!    acquires locks, while holding a guard, adds the callee's direct
//!    acquisitions (one level of expansion — enough to see through
//!    `lock_state()`-style private accessors).
//! 4. **Verdicts** — any cycle in the edge set is an error; any edge not
//!    in [`LOCK_ORDER_EDGES`] is an error (new nesting must be added to
//!    the allowlist *and* the DESIGN.md §13 table); any allowlist entry
//!    with no remaining evidence is an error (stale discipline reads as
//!    stronger than it is).
//!
//! Known approximations, chosen to over-approximate holding (false
//! edges are reviewable; missed edges are not): a closure defined while
//! a guard is held is analyzed as if it ran inline, and a guard passed
//! *into* a function as a parameter is not tracked inside the callee.

use crate::diag::Diagnostic;
use crate::lexer::TokenKind;
use crate::pass::{Context, Pass, Pat, SourceFile};
use std::collections::{BTreeMap, BTreeSet};

/// Pass id.
pub const ID: &str = "lock-order";

/// Directory prefixes whose locks participate in the graph.
pub const LOCK_SCOPE: &[&str] = &["crates/serve/src/", "crates/obs/src/", "crates/shard/src/"];

/// The reviewed acquisition order: `(held, then_acquired, why)`. Must
/// mirror the table in DESIGN.md §13.
pub const LOCK_ORDER_EDGES: &[(&str, &str, &str)] = &[
    (
        "recorder::GATE",
        "recorder::STATE",
        "session begin/finish installs and tears down recorder state while holding the session gate",
    ),
    (
        "ingest::state",
        "engine::map",
        "over-approximation: bare-name call expansion reads `s.edges.len()` (VecDeque) as \
         `EngineRegistry::len`; no real path holds the ingest queue while touching the \
         registry, and the phantom order queue -> map is acyclic either way",
    ),
    (
        "registry::REGISTRY",
        "engine::map",
        "over-approximation: bare-name call expansion reads `Counter::get`/`Gauge::get` in \
         the snapshot loop as `EngineRegistry::get`; the metric registry never touches the \
         engine map, and the phantom order registry -> map is acyclic either way",
    ),
    (
        "reqtrace::GATE",
        "recorder::GATE",
        "over-approximation: bare-name call expansion reads `RootSpan::begin`/`StageSpan::begin` \
         under the reqtrace test gate as the session recorder's `begin`; the tracing runtime \
         never touches the recorder, and the phantom order test-gate -> recorder is \
         acyclic either way",
    ),
];

/// A discovered lock: identity, declaring file, line, primitive kind.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LockDecl {
    /// `<file_stem>::<ident>`.
    pub id: String,
    /// Declaring file (rel path).
    pub file: String,
    /// 1-based declaration line.
    pub line: usize,
    /// `Mutex`, `RwLock`, or `Condvar`.
    pub kind: &'static str,
}

/// One nesting observation: while `held` was live, `acquired` was taken.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct LockEdge {
    /// The lock already held.
    pub held: String,
    /// The lock acquired under it.
    pub acquired: String,
    /// Where the inner acquisition happened.
    pub file: String,
    /// 1-based line of the inner acquisition.
    pub line: usize,
}

/// Finds `name: …Mutex<` / `name: …RwLock<` / `name: Condvar` field and
/// static declarations.
pub fn find_locks(f: &SourceFile) -> Vec<LockDecl> {
    let stem = f
        .rel
        .rsplit('/')
        .next()
        .unwrap_or(&f.rel)
        .trim_end_matches(".rs");
    let mut locks = Vec::new();
    for (i, t) in f.tokens.iter().enumerate() {
        let kind = match f.text_of(t) {
            "Mutex" if t.kind == TokenKind::Ident => "Mutex",
            "RwLock" if t.kind == TokenKind::Ident => "RwLock",
            "Condvar" if t.kind == TokenKind::Ident => "Condvar",
            _ => continue,
        };
        // Walk back through type-position tokens to the `name:` that
        // declares this field/static. Anything else (use statements,
        // return types, turbofish) fails the walk.
        let mut j = i;
        let name = loop {
            let Some(p) = f.prev_code(j) else { break None };
            let pt = &f.tokens[p];
            if pt.is_punct(&f.text, ':') {
                let Some(q) = f.prev_code(p) else { break None };
                let qt = &f.tokens[q];
                let q_prev_is_colon = f
                    .prev_code(q)
                    .is_some_and(|r| f.tokens[r].is_punct(&f.text, ':'));
                if qt.kind == TokenKind::Ident && !q_prev_is_colon {
                    // `name :` — but `path::Mutex` also walks through
                    // `::`; a path segment's `:` is preceded by `:`.
                    let p_prev = f.prev_code(p);
                    if p_prev == Some(q) {
                        break Some((f.text_of(qt).to_string(), qt.line));
                    }
                }
                j = p;
            } else if pt.kind == TokenKind::Ident
                || pt.kind == TokenKind::Lifetime
                || pt.is_punct(&f.text, '<')
                || pt.is_punct(&f.text, '&')
            {
                j = p;
            } else {
                break None;
            }
        };
        if let Some((name, line)) = name {
            // Keywords reachable by the walk (`static X: Mutex` walks to
            // `X`; `use std::sync::Mutex` walks past `use` and fails at
            // the preceding `;`/start — but guard against `mut`, `let`).
            if matches!(name.as_str(), "let" | "mut" | "static" | "const" | "pub") {
                continue;
            }
            locks.push(LockDecl {
                id: format!("{stem}::{name}"),
                file: f.rel.clone(),
                line,
                kind,
            });
        }
    }
    locks
}

/// A function body: name and raw token range (body braces inclusive).
struct FnBody {
    name: String,
    /// Raw token index range of the signature start (the `fn` token).
    sig_start: usize,
    /// Raw token index of the opening `{` (None for trait/extern decls).
    body_open: Option<usize>,
    /// Raw token index one past the matching `}`.
    body_end: usize,
}

/// Splits a file into `fn` items (methods included; nested items end up
/// inside their parent's range, which is the conservative direction).
fn find_fns(f: &SourceFile) -> Vec<FnBody> {
    let mut fns = Vec::new();
    let toks = &f.tokens;
    for i in 0..toks.len() {
        if !toks[i].is_ident(&f.text, "fn") {
            continue;
        }
        let Some(ni) = f.next_code(i + 1) else {
            continue;
        };
        if toks[ni].kind != TokenKind::Ident {
            continue;
        }
        let name = f.text_of(&toks[ni]).to_string();
        // Find the body `{`: first `{` before a `;` at angle/paren depth 0.
        let mut k = ni + 1;
        let mut paren = 0i32;
        let mut body_open = None;
        while k < toks.len() {
            let t = &toks[k];
            if t.is_comment() {
                k += 1;
                continue;
            }
            if t.is_punct(&f.text, '(') || t.is_punct(&f.text, '[') {
                paren += 1;
            } else if t.is_punct(&f.text, ')') || t.is_punct(&f.text, ']') {
                paren -= 1;
            } else if paren == 0 && t.is_punct(&f.text, ';') {
                break;
            } else if paren == 0 && t.is_punct(&f.text, '{') {
                body_open = Some(k);
                break;
            }
            k += 1;
        }
        let Some(open) = body_open else {
            continue;
        };
        // Matching close brace.
        let mut depth = 0usize;
        let mut end = toks.len();
        let mut m = open;
        while m < toks.len() {
            if toks[m].is_punct(&f.text, '{') {
                depth += 1;
            } else if toks[m].is_punct(&f.text, '}') {
                depth -= 1;
                if depth == 0 {
                    end = m + 1;
                    break;
                }
            }
            m += 1;
        }
        fns.push(FnBody {
            name,
            sig_start: i,
            body_open: Some(open),
            body_end: end,
        });
    }
    fns
}

/// Per-function facts gathered in the first sweep.
#[derive(Default)]
struct FnFacts {
    /// Locks acquired directly in the body (by lock id).
    acquires: BTreeSet<String>,
    /// Whether the return type mentions `Mutex`/`RwLock` (an accessor
    /// like `registry()` whose *call* is a lock handle).
    returns_lock: Option<String>,
}

/// An acquisition event found while scanning a body.
struct Acq {
    lock: String,
    tok: usize,
    line: usize,
    /// Raw token index one past the call's closing `)` — where the
    /// guard-liveness scan of the statement's continuation starts.
    after_call: usize,
}

/// Scans a function body for direct acquisitions. `locks` maps bare
/// declaration names to lock ids (per scope).
fn direct_acquisitions(
    f: &SourceFile,
    body: (usize, usize),
    locks: &BTreeMap<String, String>,
    accessors: &BTreeMap<String, String>,
) -> Vec<Acq> {
    let mut out = Vec::new();
    let (start, end) = body;
    for i in start..end {
        let t = &f.tokens[i];
        if t.is_comment() || t.kind != TokenKind::Ident {
            continue;
        }
        let method = f.text_of(t);
        let zero_arg_needed = matches!(method, "read" | "write");
        if !matches!(method, "lock" | "read" | "write") {
            continue;
        }
        // Shape: `<recv> . method ( )` — `(` then `)` for read/write.
        let Some(dot) = f.prev_code(i) else { continue };
        if !f.tokens[dot].is_punct(&f.text, '.') {
            continue;
        }
        let Some(open) = f.next_code(i + 1) else {
            continue;
        };
        if !f.tokens[open].is_punct(&f.text, '(') {
            continue;
        }
        if zero_arg_needed {
            match f.next_code(open + 1) {
                Some(c) if f.tokens[c].is_punct(&f.text, ')') => {}
                _ => continue,
            }
        }
        // Receiver: ident directly before the dot, or `accessor ( )`.
        let Some(recv) = f.prev_code(dot) else {
            continue;
        };
        let rt = &f.tokens[recv];
        let lock_id = if rt.kind == TokenKind::Ident {
            locks.get(f.text_of(rt)).cloned()
        } else if rt.is_punct(&f.text, ')') {
            // `accessor().lock()`: walk `( )` back to the callee ident.
            f.prev_code(recv)
                .filter(|&p| f.tokens[p].is_punct(&f.text, '('))
                .and_then(|p| f.prev_code(p))
                .filter(|&c| f.tokens[c].kind == TokenKind::Ident)
                .and_then(|c| accessors.get(f.text_of(&f.tokens[c])).cloned())
        } else {
            None
        };
        if let Some(lock) = lock_id {
            // Find the call's closing paren (arguments are empty or a
            // closure for `lock`; balance parens regardless).
            let mut depth = 0i32;
            let mut p = open;
            while p < end {
                if f.tokens[p].is_punct(&f.text, '(') {
                    depth += 1;
                } else if f.tokens[p].is_punct(&f.text, ')') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                p += 1;
            }
            out.push(Acq {
                lock,
                tok: i,
                line: t.line,
                after_call: p + 1,
            });
        }
    }
    out
}

/// Whether the tokens after an acquisition are only the poison-recovery
/// tail this codebase uses (`.unwrap_or_else(|e| e.into_inner())`,
/// `.unwrap()`, `.expect("…")`) followed by `;`. If so, a `let` binding
/// before the receiver binds the *guard*; anything else (`.edges.len()`)
/// means the guard is a temporary that dies at the statement's end.
fn binds_guard(f: &SourceFile, mut k: usize, end: usize) -> bool {
    while k < end {
        let Some(i) = f.next_code(k) else {
            return false;
        };
        let t = &f.tokens[i];
        if t.is_punct(&f.text, ';') {
            return true;
        }
        if t.is_punct(&f.text, '.') {
            let Some(m) = f.next_code(i + 1) else {
                return false;
            };
            if !matches!(
                f.text_of(&f.tokens[m]),
                "unwrap_or_else" | "unwrap" | "expect"
            ) {
                return false;
            }
            // Skip the call's argument list.
            let Some(open) = f.next_code(m + 1) else {
                return false;
            };
            if !f.tokens[open].is_punct(&f.text, '(') {
                return false;
            }
            let mut depth = 0i32;
            let mut p = open;
            while p < end {
                if f.tokens[p].is_punct(&f.text, '(') {
                    depth += 1;
                } else if f.tokens[p].is_punct(&f.text, ')') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                p += 1;
            }
            k = p + 1;
        } else {
            return false;
        }
    }
    false
}

/// A live guard while scanning.
struct Held {
    lock: String,
    /// Brace depth at acquisition (released when depth drops below).
    depth: usize,
    /// Binding ident, if the guard is `let`-bound (released by `drop(g)`).
    binding: Option<String>,
    /// For temporaries: released at the next `;` at `depth`.
    temporary: bool,
}

/// See module docs.
pub struct LockOrder;

impl Pass for LockOrder {
    fn id(&self) -> &'static str {
        ID
    }

    fn description(&self) -> &'static str {
        "lock acquisition graph over serve+obs is acyclic and matches the reviewed edge allowlist"
    }

    fn run(&self, ctx: &Context) -> Vec<Diagnostic> {
        let in_scope: Vec<&SourceFile> = ctx
            .files
            .iter()
            .filter(|f| LOCK_SCOPE.iter().any(|p| f.rel.starts_with(p)))
            .collect();

        // 1. Lock discovery, per file and global (bare name -> id).
        let mut locks_by_file: BTreeMap<&str, BTreeMap<String, String>> = BTreeMap::new();
        let mut condvars: BTreeSet<String> = BTreeSet::new();
        for f in &in_scope {
            let mut map = BTreeMap::new();
            for l in find_locks(f) {
                if l.kind == "Condvar" {
                    condvars.insert(l.id.clone());
                }
                map.insert(l.id.rsplit("::").next().unwrap_or("").to_string(), l.id);
            }
            locks_by_file.insert(f.rel.as_str(), map);
        }

        // 2. First sweep: per-function facts (direct acquisitions and
        // lock-returning accessors), keyed by bare fn name across the
        // scope (collisions merge conservatively).
        let mut facts: BTreeMap<String, FnFacts> = BTreeMap::new();
        let mut accessors: BTreeMap<String, String> = BTreeMap::new();
        for sweep in 0..2 {
            for f in &in_scope {
                let locks = &locks_by_file[f.rel.as_str()];
                for func in find_fns(f) {
                    let Some(open) = func.body_open else { continue };
                    // Accessor detection: return type names Mutex/RwLock
                    // and the body mentions exactly one known lock.
                    let sig_mentions_lock = (func.sig_start..open).any(|k| {
                        let t = &f.tokens[k];
                        !t.is_comment()
                            && t.kind == TokenKind::Ident
                            && matches!(f.text_of(t), "Mutex" | "RwLock")
                    });
                    if sig_mentions_lock {
                        let mentioned: BTreeSet<&String> = (open..func.body_end)
                            .filter_map(|k| {
                                let t = &f.tokens[k];
                                (!t.is_comment() && t.kind == TokenKind::Ident)
                                    .then(|| locks.get(f.text_of(t)))
                                    .flatten()
                            })
                            .collect();
                        if mentioned.len() == 1 {
                            let id = (*mentioned.iter().next().expect("len checked")).clone();
                            accessors.insert(func.name.clone(), id);
                        }
                    }
                    if sweep == 1 {
                        let acqs = direct_acquisitions(f, (open, func.body_end), locks, &accessors);
                        let entry = facts.entry(func.name.clone()).or_default();
                        for a in acqs {
                            entry.acquires.insert(a.lock);
                        }
                        if let Some(id) = accessors.get(&func.name) {
                            entry.returns_lock = Some(id.clone());
                        }
                    }
                }
            }
        }

        // 3. Second sweep: nesting evidence.
        let mut edges: BTreeSet<LockEdge> = BTreeSet::new();
        for f in &in_scope {
            let locks = &locks_by_file[f.rel.as_str()];
            for func in find_fns(f) {
                let Some(open) = func.body_open else { continue };
                let acqs = direct_acquisitions(f, (open, func.body_end), locks, &accessors);
                let acq_at: BTreeMap<usize, &Acq> = acqs.iter().map(|a| (a.tok, a)).collect();
                let mut held: Vec<Held> = Vec::new();
                let mut depth = 0usize;
                let mut k = open;
                while k < func.body_end {
                    let t = &f.tokens[k];
                    if t.is_comment() {
                        k += 1;
                        continue;
                    }
                    if t.is_punct(&f.text, '{') {
                        depth += 1;
                    } else if t.is_punct(&f.text, '}') {
                        depth = depth.saturating_sub(1);
                        held.retain(|h| h.depth <= depth);
                    } else if t.is_punct(&f.text, ';') {
                        held.retain(|h| !(h.temporary && h.depth == depth));
                    } else if t.is_ident(&f.text, "drop") {
                        // `drop ( g )` releases a named guard.
                        if let Some(close) =
                            f.match_seq(k, &[Pat::Id("drop"), Pat::P('('), Pat::AnyId])
                        {
                            let g = f.text_of(&f.tokens[f.prev_code(close).unwrap_or(k)]);
                            held.retain(|h| h.binding.as_deref() != Some(g));
                        }
                    }
                    if let Some(a) = acq_at.get(&k) {
                        if condvars.contains(&a.lock) {
                            k += 1;
                            continue;
                        }
                        for h in &held {
                            if h.lock != a.lock {
                                edges.insert(LockEdge {
                                    held: h.lock.clone(),
                                    acquired: a.lock.clone(),
                                    file: f.rel.clone(),
                                    line: a.line,
                                });
                            }
                        }
                        // Binding shape decides how long the new guard
                        // lives; find the `let` before the statement.
                        let stmt_binds = binds_guard(f, a.after_call, func.body_end);
                        let binding = if stmt_binds {
                            // Walk back: `let [mut] g = <recv chain>`.
                            let mut b = None;
                            let mut p = k;
                            for _ in 0..12 {
                                match f.prev_code(p) {
                                    Some(q) => {
                                        if f.tokens[q].is_punct(&f.text, '=') {
                                            let id = f
                                                .prev_code(q)
                                                .filter(|&r| f.tokens[r].kind == TokenKind::Ident);
                                            if let Some(r) = id {
                                                let is_let_chain =
                                                    f.prev_code(r).is_some_and(|s| {
                                                        let st = &f.tokens[s];
                                                        st.is_ident(&f.text, "let")
                                                            || st.is_ident(&f.text, "mut")
                                                    });
                                                if is_let_chain {
                                                    b = Some(f.text_of(&f.tokens[r]).to_string());
                                                }
                                            }
                                            break;
                                        }
                                        p = q;
                                    }
                                    None => break,
                                }
                            }
                            b
                        } else {
                            None
                        };
                        held.push(Held {
                            lock: a.lock.clone(),
                            depth,
                            binding: binding.clone(),
                            temporary: !stmt_binds || binding.is_none(),
                        });
                    }
                    // One-level call expansion: `callee(` while holding.
                    if t.kind == TokenKind::Ident && !held.is_empty() {
                        let callee = f.text_of(t);
                        let is_call = f
                            .next_code(k + 1)
                            .is_some_and(|n| f.tokens[n].is_punct(&f.text, '('));
                        let is_method = f
                            .prev_code(k)
                            .is_some_and(|p| f.tokens[p].is_punct(&f.text, '.'));
                        // Methods count too (`shared.ingest.next_batch(…)`).
                        let _ = is_method;
                        if is_call {
                            if let Some(callee_facts) = facts.get(callee) {
                                for inner in &callee_facts.acquires {
                                    if condvars.contains(inner) {
                                        continue;
                                    }
                                    for h in &held {
                                        if &h.lock != inner {
                                            edges.insert(LockEdge {
                                                held: h.lock.clone(),
                                                acquired: inner.clone(),
                                                file: f.rel.clone(),
                                                line: t.line,
                                            });
                                        }
                                    }
                                }
                            }
                        }
                    }
                    k += 1;
                }
            }
        }

        // 4. Verdicts.
        let mut diags = Vec::new();
        let allow: BTreeSet<(&str, &str)> =
            LOCK_ORDER_EDGES.iter().map(|(a, b, _)| (*a, *b)).collect();
        let unique: BTreeSet<(String, String)> = edges
            .iter()
            .map(|e| (e.held.clone(), e.acquired.clone()))
            .collect();

        for e in &edges {
            if !allow.contains(&(e.held.as_str(), e.acquired.as_str())) {
                diags.push(
                    Diagnostic::error(
                        ID,
                        &e.file,
                        e.line,
                        0,
                        format!(
                            "new lock-order edge `{}` -> `{}`: a lock acquired while \
                             another is held",
                            e.held, e.acquired
                        ),
                    )
                    .with_note(
                        "if intentional, add the edge to LOCK_ORDER_EDGES in \
                         crates/analysis/src/passes/lock_order.rs and to the DESIGN.md \
                         section 13 table with a justification",
                    ),
                );
            }
        }
        for (a, b, _) in LOCK_ORDER_EDGES {
            if !unique.contains(&(a.to_string(), b.to_string())) {
                diags.push(
                    Diagnostic::error(
                        ID,
                        "crates/analysis/src/passes/lock_order.rs",
                        0,
                        0,
                        format!("allowlisted lock-order edge `{a}` -> `{b}` has no remaining evidence in the source"),
                    )
                    .with_note("remove the stale edge from LOCK_ORDER_EDGES and the DESIGN.md section 13 table"),
                );
            }
        }
        // Cycle check over the union of observed edges (allowlisted or
        // not — an allowlisted cycle would still deadlock).
        if let Some(cycle) = find_cycle(&unique) {
            diags.push(
                Diagnostic::error(
                    ID,
                    "crates/serve/src",
                    0,
                    0,
                    format!("lock acquisition graph contains a cycle: {}", cycle.join(" -> ")),
                )
                .with_note("two code paths acquire these locks in opposite orders; one must be inverted or merged"),
            );
        }
        diags
    }
}

/// Finds one cycle in the digraph, as the list of lock ids along it.
fn find_cycle(edges: &BTreeSet<(String, String)>) -> Option<Vec<String>> {
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (a, b) in edges {
        adj.entry(a.as_str()).or_default().push(b.as_str());
    }
    // Colored DFS: 0 unvisited, 1 on stack, 2 done.
    let mut color: BTreeMap<&str, u8> = BTreeMap::new();
    let mut stack: Vec<&str> = Vec::new();

    fn dfs<'a>(
        node: &'a str,
        adj: &BTreeMap<&'a str, Vec<&'a str>>,
        color: &mut BTreeMap<&'a str, u8>,
        stack: &mut Vec<&'a str>,
    ) -> Option<Vec<String>> {
        color.insert(node, 1);
        stack.push(node);
        for &next in adj.get(node).into_iter().flatten() {
            match color.get(next).copied().unwrap_or(0) {
                0 => {
                    if let Some(c) = dfs(next, adj, color, stack) {
                        return Some(c);
                    }
                }
                1 => {
                    let from = stack.iter().position(|&n| n == next).unwrap_or(0);
                    let mut cycle: Vec<String> =
                        stack[from..].iter().map(|s| s.to_string()).collect();
                    cycle.push(next.to_string());
                    return Some(cycle);
                }
                _ => {}
            }
        }
        stack.pop();
        color.insert(node, 2);
        None
    }

    let nodes: Vec<&str> = adj.keys().copied().collect();
    for n in nodes {
        if color.get(n).copied().unwrap_or(0) == 0 {
            if let Some(c) = dfs(n, &adj, &mut color, &mut stack) {
                return Some(c);
            }
        }
    }
    None
}
