//! `panic-path`: the request decode/apply/recovery paths are total
//! functions — no panics reachable from wire or disk bytes.
//!
//! PR 4's headline claim is that `recover()` is a total function and the
//! protocol decoder never panics on malformed frames. This pass turns
//! that claim from a review discipline into a gate over the files that
//! handle attacker-controlled bytes ([`PANIC_PATH_FILES`]):
//!
//! - banned identifiers: `unwrap`, `unwrap_err`, `expect`, `expect_err`,
//!   `panic`, `unreachable`, `todo`, `unimplemented` (method or macro —
//!   the token is the same);
//! - banned indexing: `expr[…]` can panic on an out-of-range index, and
//!   in these files indices routinely derive from wire data. A `[` whose
//!   preceding code token is an identifier, `)`, `]`, or `?` is an index
//!   expression (array literals, attributes, and types are preceded by
//!   other tokens and macro invocations by `!`). Keywords that legally
//!   precede a slice type or array literal (`mut`, `dyn`, `in`, …) are
//!   excluded from the identifier rule.
//!
//! `assert!`-family macros are deliberately **not** banned: `debug_assert`
//! is compiled out of release builds, and a release `assert` in these
//! files would be caught as a review question, not silently. `#[cfg(test)]`
//! items are exempt — tests panic on purpose.
//!
//! A site that is genuinely infallible (say, `try_into` on a slice whose
//! length the previous line checked) is allowlisted **in place** with a
//! `// PANIC-OK: <why>` comment on the same line or the comment block
//! directly above. The justification travels with the code; deleting the
//! bounds check without deleting the comment is exactly the kind of
//! drift review catches, and the comment makes the audit greppable.

use crate::diag::Diagnostic;
use crate::lexer::TokenKind;
use crate::pass::{Context, Pass};

/// Pass id.
pub const ID: &str = "panic-path";

/// Files on the wire/disk byte path. Request framing and decode
/// (`protocol.rs`), the one TCP front-end whose frame loop reads those
/// frames off every connection of a server or router (`frontend.rs`),
/// the edge-log codec and replay scan behind the WAL and the router's
/// logs (`wal.rs`), the ingest queue between them (`ingest.rs`), the
/// shard router's request evaluation plus its boundary-edge store
/// (`router.rs`, `boundary.rs`), which replays `boundary.log`, and the
/// failure domain that must stay total precisely when things are going
/// wrong: the health machine (`health.rs`) and the park log, which
/// replays arbitrary post-crash disk bytes (`park.rs`).
pub const PANIC_PATH_FILES: &[&str] = &[
    "crates/serve/src/protocol.rs",
    "crates/serve/src/frontend.rs",
    "crates/serve/src/wal.rs",
    "crates/serve/src/ingest.rs",
    "crates/shard/src/router.rs",
    "crates/shard/src/boundary.rs",
    "crates/shard/src/health.rs",
    "crates/shard/src/park.rs",
];

/// Identifiers that panic (as methods or macro names).
const BANNED_IDENTS: &[&str] = &[
    "unwrap",
    "unwrap_err",
    "expect",
    "expect_err",
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
];

/// The in-place justification marker.
pub const MARKER: &str = "PANIC-OK:";

/// Keywords that can directly precede a `[` that is a slice type or an
/// array literal rather than an index expression.
const NON_INDEX_KEYWORDS: &[&str] = &[
    "mut", "dyn", "impl", "in", "as", "return", "break", "else", "const",
];

/// See module docs.
pub struct PanicPath;

impl Pass for PanicPath {
    fn id(&self) -> &'static str {
        ID
    }

    fn description(&self) -> &'static str {
        "no unwrap/expect/panic!/indexing on the request decode/apply/recovery paths (PANIC-OK: to allowlist)"
    }

    fn run(&self, ctx: &Context) -> Vec<Diagnostic> {
        let mut diags = Vec::new();
        for f in &ctx.files {
            if !PANIC_PATH_FILES.contains(&f.rel.as_str()) {
                continue;
            }
            let test_ranges = f.test_line_ranges();
            let in_tests = |line: usize| test_ranges.iter().any(|&(s, e)| line >= s && line <= e);
            let justified = |line: usize| {
                f.line_has_marker(line, MARKER) || f.block_above_has_marker(line, &[MARKER])
            };

            for (i, t) in f.tokens.iter().enumerate() {
                if t.is_comment() || in_tests(t.line) {
                    continue;
                }
                if t.kind == TokenKind::Ident {
                    let text = f.text_of(t);
                    if BANNED_IDENTS.contains(&text) && !justified(t.line) {
                        diags.push(
                            Diagnostic::error(
                                ID,
                                &f.rel,
                                t.line,
                                t.col,
                                format!(
                                    "`{text}` on the request/recovery path can panic on \
                                     malformed input"
                                ),
                            )
                            .with_note(
                                "return a typed error instead, or justify the site with a \
                                 `// PANIC-OK: <why this cannot fire>` comment",
                            ),
                        );
                    }
                } else if t.is_punct(&f.text, '[') {
                    let is_index = f
                        .prev_code(i)
                        .map(|j| {
                            let p = &f.tokens[j];
                            (p.kind == TokenKind::Ident
                                && !NON_INDEX_KEYWORDS.contains(&f.text_of(p)))
                                || p.is_punct(&f.text, ')')
                                || p.is_punct(&f.text, ']')
                                || p.is_punct(&f.text, '?')
                        })
                        .unwrap_or(false);
                    if is_index && !justified(t.line) {
                        diags.push(
                            Diagnostic::error(
                                ID,
                                &f.rel,
                                t.line,
                                t.col,
                                "slice/array indexing on the request/recovery path can panic \
                                 on out-of-range wire data",
                            )
                            .with_note(
                                "use `get`/`chunks_exact`/pattern matching, or justify with \
                                 `// PANIC-OK: <why the index is in range>`",
                            ),
                        );
                    }
                }
            }
        }
        diags
    }
}
