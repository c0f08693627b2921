//! Phase-level observability runtime for the Afforest reproduction.
//!
//! The paper's argument is phase-structured — neighbor rounds, the
//! giant-component sampling step, the Theorem-3 skip pass, compress
//! sweeps — so this crate records exactly that structure: scoped
//! [`span!`]s per phase, sharded atomic [`Counter`]s for the work inside
//! them, and per-phase duration [`Histogram`]s, assembled into a
//! machine-readable [`Trace`] (JSON via [`Trace::to_json`], CSV via
//! [`Trace::to_csv`]).
//!
//! # Zero cost when off
//!
//! Without the `enabled` cargo feature (the default), [`COMPILED`] is
//! `false`: [`count`] is an empty inline function, [`span!`] const-folds
//! to an empty guard without ever evaluating its format arguments, and
//! [`Session::end`] returns an empty trace. No atomics, no branches, no
//! allocation remain in instrumented hot loops. Downstream crates forward
//! the feature as `obs`, so `--features obs` lights the whole stack up.
//!
//! # Always-on service telemetry
//!
//! The session tracer is deliberately off by default — correct for
//! benchmarking, wrong for operating a long-running server. The
//! [`registry`] module (process-global named counters/gauges/histograms
//! with Prometheus text exposition) and the [`flight`] module (a
//! lock-free ring of recent structured events) are the complementary
//! layer: compiled unconditionally, no feature gate, cheap enough to
//! leave on forever. See `DESIGN.md` §12 for the separation argument.
//!
//! # Usage
//!
//! ```
//! use afforest_obs::{span, Counter, Session};
//!
//! let session = Session::begin();
//! {
//!     let _s = span!("link[{round}]", round = 0);
//!     afforest_obs::count(Counter::EdgesLinked, 17);
//! }
//! let trace = session.end();
//! # if afforest_obs::COMPILED {
//! assert_eq!(trace.counter("edges_linked"), 17);
//! # }
//! ```
//!
//! Only one session records at a time: [`Session::begin`] blocks until
//! any other live session ends (counters and span state are
//! process-global). Spans must be opened and closed on the thread driving
//! the algorithm — per-edge work inside rayon workers reports through
//! counters, not spans.

#![forbid(unsafe_code)]

pub mod flight;
pub mod json;
#[cfg(feature = "enabled")]
mod recorder;
pub mod registry;
pub mod reqtrace;
pub mod ring;
mod trace;

pub use trace::{base_of, Histogram, PhaseTotal, SpanRecord, Trace};

/// Whether the recorder is compiled in (`enabled` cargo feature).
///
/// `span!` checks this first so the disabled path const-folds away.
pub const COMPILED: bool = cfg!(feature = "enabled");

/// Work counters incremented from inside instrumented phases.
///
/// Counter totals are per-session; each closed span also records the
/// delta observed while it was open (nested spans include their
/// children's work). Only the algorithm's work is counted here: serving
/// totals are always-on [`registry`] series.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Successful `link` merges (edges that united two trees).
    EdgesLinked,
    /// Total `link` invocations, successful or not.
    LinkCalls,
    /// CAS attempts that lost a race inside `link` and retried.
    CasRetries,
    /// Parent-pointer hops taken by `find_root` walks.
    FindRootHops,
    /// Parent stores performed by compress sweeps.
    CompressStores,
    /// Edges skipped by the Theorem-3 giant-component test.
    EdgesSkipped,
    /// Vertices whose whole neighbor list was skipped.
    VerticesSkipped,
}

impl Counter {
    /// Number of counters (sizes the recorder's stripe rows).
    pub const COUNT: usize = 7;

    /// Every counter, in declaration (= export) order.
    pub const ALL: [Counter; Counter::COUNT] = [
        Counter::EdgesLinked,
        Counter::LinkCalls,
        Counter::CasRetries,
        Counter::FindRootHops,
        Counter::CompressStores,
        Counter::EdgesSkipped,
        Counter::VerticesSkipped,
    ];

    /// The snake_case name used in traces and CSV headers.
    pub const fn name(self) -> &'static str {
        match self {
            Counter::EdgesLinked => "edges_linked",
            Counter::LinkCalls => "link_calls",
            Counter::CasRetries => "cas_retries",
            Counter::FindRootHops => "find_root_hops",
            Counter::CompressStores => "compress_stores",
            Counter::EdgesSkipped => "edges_skipped",
            Counter::VerticesSkipped => "vertices_skipped",
        }
    }
}

/// Whether a session is currently recording.
///
/// `false` whenever the recorder is compiled out; cheap enough to call
/// per phase but not meant for per-edge checks (use [`count`], which
/// performs the check itself).
#[inline(always)]
pub fn active() -> bool {
    #[cfg(feature = "enabled")]
    {
        recorder::is_active()
    }
    #[cfg(not(feature = "enabled"))]
    {
        false
    }
}

/// Adds `n` to `counter` if a session is recording; a no-op (compiled to
/// nothing) otherwise.
#[inline(always)]
pub fn count(counter: Counter, n: u64) {
    #[cfg(feature = "enabled")]
    if recorder::is_active() && n != 0 {
        recorder::add(counter, n);
    }
    #[cfg(not(feature = "enabled"))]
    {
        let _ = (counter, n);
    }
}

/// A recording session; ends (and yields its [`Trace`]) on [`Session::end`].
///
/// Holds a process-global lock so concurrent sessions serialize rather
/// than interleave their counters.
#[must_use = "a Session records nothing once dropped; call end() to collect the trace"]
pub struct Session {
    #[cfg(feature = "enabled")]
    gate: std::sync::MutexGuard<'static, u64>,
}

impl Session {
    /// Starts recording, blocking until any other live session ends.
    pub fn begin() -> Session {
        Session {
            #[cfg(feature = "enabled")]
            gate: recorder::begin(),
        }
    }

    /// Stops recording and returns everything recorded.
    ///
    /// Empty ([`Trace::is_empty`]) when the recorder is compiled out.
    pub fn end(self) -> Trace {
        #[cfg(feature = "enabled")]
        {
            recorder::finish(self.gate)
        }
        #[cfg(not(feature = "enabled"))]
        {
            Trace::default()
        }
    }
}

/// An open phase span; the phase ends when the guard drops.
///
/// Construct via the [`span!`] macro, which skips the name formatting
/// entirely when recording is off.
#[must_use = "a span measures the scope holding the guard; bind it with `let _span = ...`"]
pub struct SpanGuard {
    // Held only for its Drop (which closes the span and records it).
    #[cfg(feature = "enabled")]
    #[allow(dead_code)]
    inner: Option<recorder::ActiveSpan>,
}

impl SpanGuard {
    /// Opens a span with an already-formatted name (prefer [`span!`]).
    pub fn enter_named(name: String) -> SpanGuard {
        #[cfg(feature = "enabled")]
        {
            SpanGuard {
                inner: recorder::ActiveSpan::open(name),
            }
        }
        #[cfg(not(feature = "enabled"))]
        {
            let _ = name;
            SpanGuard {}
        }
    }

    /// A guard that records nothing (the disabled arm of [`span!`]).
    #[inline(always)]
    pub fn inactive() -> SpanGuard {
        SpanGuard {
            #[cfg(feature = "enabled")]
            inner: None,
        }
    }
}

/// Opens a phase span named by a `format!` string, e.g.
/// `span!("link[{i}]")`. Returns a [`SpanGuard`]; the span closes when
/// the guard drops.
///
/// When the recorder is compiled out (`COMPILED == false`) the whole
/// expression const-folds to [`SpanGuard::inactive`] and the format
/// arguments are never evaluated.
#[macro_export]
macro_rules! span {
    ($($arg:tt)*) => {
        if $crate::COMPILED && $crate::active() {
            $crate::SpanGuard::enter_named(::std::format!($($arg)*))
        } else {
            $crate::SpanGuard::inactive()
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_names_are_unique_and_ordered() {
        let names: Vec<_> = Counter::ALL.iter().map(|c| c.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), Counter::COUNT);
        assert_eq!(names[0], "edges_linked");
    }

    #[test]
    fn span_macro_compiles_in_both_modes() {
        // Outside a session the guard must be inert in both cfg modes.
        let _g = span!("test[{}]", 3);
        count(Counter::LinkCalls, 1);
        assert!(!active() || COMPILED);
    }

    #[cfg(not(feature = "enabled"))]
    #[test]
    fn disabled_session_is_empty() {
        let s = Session::begin();
        let _g = span!("phase[{}]", 0);
        count(Counter::EdgesLinked, 5);
        let trace = s.end();
        assert!(trace.is_empty());
        assert_eq!(trace.total_ns, 0);
    }

    #[cfg(feature = "enabled")]
    mod recording {
        use super::super::*;

        #[test]
        fn session_records_spans_counters_histograms() {
            let s = Session::begin();
            for i in 0..3 {
                let _g = span!("link[{i}]");
                count(Counter::EdgesLinked, 10);
                count(Counter::CasRetries, i);
            }
            {
                let _g = span!("compress[0]");
                count(Counter::CompressStores, 7);
            }
            let trace = s.end();

            assert_eq!(trace.spans.len(), 4);
            assert_eq!(trace.counter("edges_linked"), 30);
            assert_eq!(trace.counter("cas_retries"), 3);
            assert_eq!(trace.counter("compress_stores"), 7);
            assert_eq!(trace.counter("edges_skipped"), 0);

            // Per-span deltas, not totals.
            assert_eq!(trace.spans[1].counter("edges_linked"), 10);
            assert_eq!(trace.spans[1].counter("cas_retries"), 1);
            assert_eq!(trace.spans[3].counter("compress_stores"), 7);

            // One histogram per phase family.
            let link = trace.histograms.iter().find(|h| h.name == "link").unwrap();
            assert_eq!(link.count, 3);
            assert!(trace.histograms.iter().any(|h| h.name == "compress"));

            let totals = trace.phase_totals();
            assert_eq!(totals[0].name, "link");
            assert_eq!(totals[0].count, 3);
        }

        #[test]
        fn nested_spans_report_depth() {
            let s = Session::begin();
            {
                let _outer = span!("outer");
                let _inner = span!("inner[{}]", 0);
            }
            let trace = s.end();
            // Inner closes first.
            assert_eq!(trace.spans[0].name, "inner[0]");
            assert_eq!(trace.spans[0].depth, 1);
            assert_eq!(trace.spans[1].name, "outer");
            assert_eq!(trace.spans[1].depth, 0);
            assert!(trace.spans[1].dur_ns >= trace.spans[0].dur_ns);
        }

        #[test]
        fn counting_outside_session_is_dropped() {
            count(Counter::EdgesLinked, 999);
            let s = Session::begin();
            count(Counter::EdgesLinked, 1);
            let trace = s.end();
            assert_eq!(trace.counter("edges_linked"), 1);
            // And after the session ends, counts go nowhere again.
            count(Counter::EdgesLinked, 999);
        }

        #[test]
        fn spans_outside_session_record_nothing() {
            let g = span!("orphan");
            drop(g);
            let s = Session::begin();
            let trace = s.end();
            assert!(trace.spans.is_empty());
        }

        #[test]
        fn span_straddling_two_sessions_records_nothing() {
            // Regression: the second begin() reset the counters under the
            // open span, and closing it subtracted past zero.
            let s = Session::begin();
            count(Counter::EdgesLinked, 5);
            let straddler = span!("straddler");
            let first = s.end();
            let s = Session::begin();
            drop(straddler);
            let second = s.end();
            for trace in [&first, &second] {
                assert!(!trace.spans.iter().any(|s| s.name == "straddler"));
            }
        }

        #[test]
        fn parallel_counts_from_rayon_workers_sum() {
            use rayon::prelude::*;
            let s = Session::begin();
            {
                let _g = span!("parallel-phase");
                // Large enough that the vendored shim actually fans out to
                // worker threads (its sequential cutoff is 256 items).
                (0u32..10_000)
                    .into_par_iter()
                    .for_each(|_| count(Counter::FindRootHops, 1));
            }
            let trace = s.end();
            assert_eq!(trace.counter("find_root_hops"), 10_000);
            assert_eq!(trace.spans[0].counter("find_root_hops"), 10_000);
        }

        #[test]
        fn sessions_serialize_not_interleave() {
            let h = std::thread::spawn(|| {
                let s = Session::begin();
                count(Counter::EdgesLinked, 2);
                s.end().counter("edges_linked")
            });
            let s = Session::begin();
            count(Counter::EdgesLinked, 5);
            let mine = s.end().counter("edges_linked");
            let theirs = h.join().unwrap();
            assert_eq!(mine, 5);
            assert_eq!(theirs, 2);
        }

        #[test]
        fn trace_json_roundtrip_from_live_session() {
            let s = Session::begin();
            {
                let _g = span!("phase[{}]", 1);
                count(Counter::EdgesSkipped, 12);
            }
            let trace = s.end();
            let back = Trace::from_json(&trace.to_json()).unwrap();
            assert_eq!(trace, back);
        }
    }
}
