//! `ordering-allowlist`: atomic memory orderings appear only in audited
//! files.
//!
//! Every file that spells `Ordering::Relaxed` (or any other atomic
//! ordering) must be covered by DESIGN.md §8's memory-ordering audit,
//! which [`ORDERING_ALLOWLIST`] mirrors. Adding an atomic site anywhere
//! else fails the battery until both the audit and the allowlist are
//! extended — "sprinkle an atomic somewhere" stays a reviewed decision.
//! The companion `audit-drift` pass checks the converse direction (the
//! audit document itself cannot go stale).
//!
//! `std::cmp::Ordering`'s variants (`Less`/`Equal`/`Greater`) do not
//! collide with the atomic variant names, so comparison code is out of
//! scope by construction.

use crate::diag::Diagnostic;
use crate::pass::{Context, Pass, Pat};

/// Pass id.
pub const ID: &str = "ordering-allowlist";

/// Files (by `/`-normalized path, or directory prefix ending in `/`)
/// where atomic orderings are allowed. Each entry must have a matching
/// subsection in DESIGN.md §8 "Memory-ordering audit" — the `audit-drift`
/// pass enforces that correspondence mechanically.
pub const ORDERING_ALLOWLIST: &[&str] = &[
    // The parent array: the audit's centerpiece (Relaxed loads/stores/CAS).
    "crates/core/src/parents.rs",
    // Per-thread counter buffers aggregated after the parallel phase.
    "crates/core/src/instrument.rs",
    // Baseline algorithms (SV, parallel UF, BFS, label propagation) use
    // atomics as published; they are comparison subjects, not the
    // contribution under audit.
    "crates/baselines/src/",
    // Observability: sharded Relaxed statistics counters, the registry,
    // and the record ring's seqlock under the flight recorder and the
    // span ring.
    "crates/obs/src/",
    // Serving runtime: Relaxed service statistics and the shutdown flag;
    // all cross-thread hand-off goes through Mutex/Condvar/RwLock.
    "crates/serve/src/",
    // Shard router: the Relaxed shutdown latch; every other piece of
    // shared router state (boundary forest, composite cache, backends)
    // is behind a Mutex.
    "crates/shard/src/",
];

/// Atomic-ordering variant names (including the banned one — a SeqCst
/// outside the allowlist is two findings, one per rule).
pub const ATOMIC_ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Whether `rel` is covered by the allowlist.
pub fn allowlisted(rel: &str) -> bool {
    ORDERING_ALLOWLIST
        .iter()
        .any(|entry| rel == *entry || (entry.ends_with('/') && rel.starts_with(entry)))
}

/// See module docs.
pub struct OrderingAllowlist;

impl Pass for OrderingAllowlist {
    fn id(&self) -> &'static str {
        ID
    }

    fn description(&self) -> &'static str {
        "atomic memory orderings (`Ordering::*`) only in files covered by DESIGN.md section 8"
    }

    fn run(&self, ctx: &Context) -> Vec<Diagnostic> {
        let mut diags = Vec::new();
        for f in &ctx.files {
            if allowlisted(&f.rel) {
                continue;
            }
            for i in 0..f.tokens.len() {
                for variant in ATOMIC_ORDERINGS {
                    if f.match_seq(
                        i,
                        &[
                            Pat::Id("Ordering"),
                            Pat::P(':'),
                            Pat::P(':'),
                            Pat::Id(variant),
                        ],
                    )
                    .is_some()
                    {
                        let t = &f.tokens[i];
                        diags.push(
                            Diagnostic::error(
                                ID,
                                &f.rel,
                                t.line,
                                t.col,
                                format!(
                                    "atomic memory ordering `Ordering::{variant}` outside the \
                                     audited allowlist"
                                ),
                            )
                            .with_note(
                                "add the site to DESIGN.md's memory-ordering audit (section 8) \
                                 and to ORDERING_ALLOWLIST in \
                                 crates/analysis/src/passes/ordering.rs",
                            ),
                        );
                    }
                }
            }
        }
        diags
    }
}
