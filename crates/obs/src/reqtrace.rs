//! Request-scoped distributed tracing (DESIGN.md §16).
//!
//! Where [`registry`](crate::registry) aggregates (*p99 is high*) and
//! [`flight`](crate::flight) remembers faults (*a breaker opened*),
//! this module explains **one request**: a 64-bit trace id minted by
//! the client rides the wire envelope through router → shard worker →
//! engine writer, and every pipeline stage it crosses records a
//! [`Span`] with a parent id, so the full cross-process tree can be
//! reconstructed end to end (`afforest trace`).
//!
//! # Pieces
//!
//! - **Ids.** Trace ids are 64-bit, nonzero, minted by [`mint`]
//!   (splitmix64 over a per-process seed and a counter). Span ids put
//!   a 16-bit per-process tag in the high bits so spans minted by
//!   different processes in the same trace cannot collide (except with
//!   probability 2⁻¹⁶ per process pair, acceptable for a debug tool).
//! - **Stages.** Every span carries a [`Stage`] tag from a closed
//!   taxonomy ([`STAGE_NAMES`]); the analysis lint checks the taxonomy
//!   against the DESIGN.md §16 stage table, so docs cannot drift.
//! - **The span ring.** Retained spans land in a per-process lock-free
//!   ring ([`SpanRing`]), a view of [`crate::ring`] like the flight
//!   recorder: writers never block, readers skip slots being written.
//!   The `DumpTraces` wire op snapshots it remotely.
//! - **Tail sampling.** Request-thread spans are buffered thread-local
//!   under a [`RootSpan`]; when the root completes, the whole tree is
//!   kept only if the request was *slow* (total duration ≥ the
//!   [`configure`]d threshold) or *degraded* ([`RootSpan::force_retain`]).
//!   A threshold of zero retains everything. Stages recorded off the
//!   request thread (the engine writer's queue-wait / WAL / apply /
//!   publish spans) go straight to the ring — by the time they exist,
//!   batching has already coalesced them across requests.
//! - **Zero cost when disabled.** Everything funnels through one
//!   relaxed load of a process-global flag; with tracing off (the
//!   default) every entry point returns an inert guard without
//!   touching the clock, TLS buffers, or the ring.
//!
//! Unlike the [`span!`](crate::span!) session recorder this module is
//! compiled unconditionally (no `enabled` feature): tracing a live
//! service must not require a special build, and the disabled path is
//! one branch.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Number of stage tags in the taxonomy.
pub const STAGES: usize = 10;

/// The stage taxonomy, by wire code minus one (`Stage` as `u16` is the
/// 1-based index into this table). The analysis `stage-doc` lint pass
/// requires every literal here to appear in the DESIGN.md §16 stage
/// table.
pub const STAGE_NAMES: [&str; STAGES] = [
    "router_request",
    "router_decode",
    "breaker_gate",
    "shard_fanout",
    "boundary_compose",
    "shard_request",
    "queue_wait",
    "wal_fsync",
    "batch_apply",
    "epoch_publish",
];

/// A pipeline stage a request crosses; the typed tag on every [`Span`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u16)]
pub enum Stage {
    /// Root span at the router: one full request, decode to reply.
    RouterRequest = 1,
    /// Frame decode at the router (recorded retroactively: the trace
    /// context is only known once decode succeeds).
    RouterDecode = 2,
    /// Health-gate consultation before a shard call (`arg` = shard).
    BreakerGate = 3,
    /// One per-shard backend call of a fan-out (`arg` = shard).
    ShardFanout = 4,
    /// Boundary-graph composition on a composite-cache miss.
    BoundaryCompose = 5,
    /// Root span at a shard worker / standalone server: one request.
    ShardRequest = 6,
    /// Time a write waited in the ingest queue before its batch was
    /// drained (`arg` = edges in the drained batch).
    QueueWait = 7,
    /// WAL append + flush for one batch (`arg` = edges).
    WalFsync = 8,
    /// Linking one drained batch into the structure (`arg` = edges).
    BatchApply = 9,
    /// Publishing the resulting epoch snapshot (`arg` = epoch).
    EpochPublish = 10,
}

impl Stage {
    /// Wire code (1-based index into [`STAGE_NAMES`]).
    pub const fn code(self) -> u16 {
        self as u16
    }

    /// The snake_case stage tag.
    pub fn name(self) -> &'static str {
        STAGE_NAMES[self as usize - 1]
    }

    /// Inverse of [`Stage::code`]; `None` for unknown codes (a newer
    /// peer's ring may carry stages this build does not know).
    pub fn from_code(code: u16) -> Option<Stage> {
        Some(match code {
            1 => Stage::RouterRequest,
            2 => Stage::RouterDecode,
            3 => Stage::BreakerGate,
            4 => Stage::ShardFanout,
            5 => Stage::BoundaryCompose,
            6 => Stage::ShardRequest,
            7 => Stage::QueueWait,
            8 => Stage::WalFsync,
            9 => Stage::BatchApply,
            10 => Stage::EpochPublish,
            _ => return None,
        })
    }
}

/// The stage tag for a wire code, with a stable fallback for codes
/// minted by a newer peer.
pub fn stage_name(code: u16) -> &'static str {
    Stage::from_code(code).map_or("unknown_stage", Stage::name)
}

/// Wire-portable trace context: which trace a request belongs to and
/// which span is the parent of whatever the receiver records next.
///
/// `trace_id == 0` means "not sampled" — the zero context is the
/// uninstrumented default everywhere.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceCtx {
    /// The request's trace, 0 = unsampled.
    pub trace_id: u64,
    /// Span id the next recorded span should parent under (0 = root).
    pub parent_span: u64,
}

impl TraceCtx {
    /// The unsampled context.
    pub const NONE: TraceCtx = TraceCtx {
        trace_id: 0,
        parent_span: 0,
    };

    /// A fresh root context for `trace_id`.
    pub fn root(trace_id: u64) -> TraceCtx {
        TraceCtx {
            trace_id,
            parent_span: 0,
        }
    }

    /// Whether this request is being traced.
    pub fn sampled(&self) -> bool {
        self.trace_id != 0
    }
}

/// One completed, retained span.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Span {
    /// Trace this span belongs to.
    pub trace_id: u64,
    /// This span's id (unique within the trace, see module docs).
    pub span_id: u64,
    /// Parent span id, 0 for a root.
    pub parent_span: u64,
    /// [`Stage`] wire code.
    pub stage: u16,
    /// Stage-specific argument (shard index, batch edges, epoch).
    pub arg: u64,
    /// Wall-clock start, microseconds since the Unix epoch — wall
    /// clock so spans from different processes order coherently.
    pub start_us: u64,
    /// Duration in nanoseconds (monotonic clock).
    pub dur_ns: u64,
}

impl Span {
    /// The span's stage tag (with the unknown-code fallback).
    pub fn stage_name(&self) -> &'static str {
        stage_name(self.stage)
    }
}

/// Lock-free ring of the most recent retained spans: a typed view of
/// [`crate::ring::Ring`], which owns the slot protocol, with a span as
/// its seven words.
#[derive(Default)]
pub struct SpanRing(crate::ring::Ring<7>);

impl SpanRing {
    /// An empty ring of [`CAPACITY`](crate::ring::CAPACITY) slots.
    pub fn new() -> SpanRing {
        SpanRing::default()
    }

    /// Records one span, overwriting the oldest slot once full.
    pub fn record(&self, s: Span) {
        self.0.record([
            s.trace_id,
            s.span_id,
            s.parent_span,
            u64::from(s.stage),
            s.arg,
            s.start_us,
            s.dur_ns,
        ]);
    }

    /// Spans ever recorded (retained or since overwritten).
    pub fn recorded(&self) -> u64 {
        self.0.recorded()
    }

    /// Every retained span, oldest first.
    pub fn snapshot(&self) -> Vec<Span> {
        self.0
            .snapshot()
            .into_iter()
            .map(
                |(_, [trace_id, span_id, parent_span, stage, arg, start_us, dur_ns])| Span {
                    trace_id,
                    span_id,
                    parent_span,
                    stage: stage as u16,
                    arg,
                    start_us,
                    dur_ns,
                },
            )
            .collect()
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static THRESHOLD_NS: AtomicU64 = AtomicU64::new(0);
static MINTED: AtomicU64 = AtomicU64::new(0);
static SPAN_SEQ: AtomicU64 = AtomicU64::new(1);
static RING: OnceLock<SpanRing> = OnceLock::new();
static NODE: OnceLock<String> = OnceLock::new();
static PROC_SEED: OnceLock<u64> = OnceLock::new();

type Sink = Box<dyn Fn(&[Span]) + Send + Sync>;
static SINK: OnceLock<Sink> = OnceLock::new();

/// The process-global span ring.
pub fn ring() -> &'static SpanRing {
    RING.get_or_init(SpanRing::new)
}

/// Turns tracing on with a retention threshold (`Some`) or off
/// (`None`). With tracing on, a completed request tree is retained —
/// pushed to the ring and handed to the slow-log sink — only when its
/// root took at least `threshold` (zero retains every sampled
/// request) or was force-retained as degraded.
pub fn configure(threshold: Option<Duration>) {
    match threshold {
        Some(t) => {
            THRESHOLD_NS.store(
                t.as_nanos().min(u128::from(u64::MAX)) as u64,
                Ordering::Relaxed,
            );
            ENABLED.store(true, Ordering::Relaxed);
        }
        None => ENABLED.store(false, Ordering::Relaxed),
    }
}

/// Whether tracing is on ([`configure`]). One relaxed load: this is
/// the whole cost of the disabled path.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The current retention threshold in nanoseconds.
pub fn threshold_ns() -> u64 {
    THRESHOLD_NS.load(Ordering::Relaxed)
}

/// Names this process in dumped spans (`"router"`, `"serve"`, …).
/// First caller wins; the default is `"serve"`.
pub fn set_node(name: &str) {
    let _ = NODE.set(name.to_string());
}

/// This process's node name for `DumpTraces` answers.
pub fn node() -> &'static str {
    NODE.get_or_init(|| "serve".to_string())
}

/// Registers the slow-log sink, called with each retained tree (root
/// span first). First caller wins.
pub fn set_slow_sink(sink: impl Fn(&[Span]) + Send + Sync + 'static) {
    let _ = SINK.set(Box::new(sink));
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn proc_seed() -> u64 {
    *PROC_SEED.get_or_init(|| {
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.subsec_nanos() as u64 ^ d.as_secs());
        splitmix64((u64::from(std::process::id()) << 32) ^ nanos)
    })
}

/// Mints a fresh nonzero 64-bit trace id.
pub fn mint() -> u64 {
    let n = MINTED.fetch_add(1, Ordering::Relaxed);
    splitmix64(proc_seed() ^ n) | 1
}

/// A fresh span id: 16 per-process tag bits over a process counter.
fn next_span_id() -> u64 {
    let tag = (proc_seed() >> 48) | 1;
    (tag << 48) | (SPAN_SEQ.fetch_add(1, Ordering::Relaxed) & ((1 << 48) - 1))
}

/// Wall-clock "now" in microseconds since the Unix epoch.
pub fn now_us() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_micros().min(u128::from(u64::MAX)) as u64)
}

thread_local! {
    static CURRENT: Cell<TraceCtx> = const { Cell::new(TraceCtx::NONE) };
    /// Whether a RootSpan on this thread owns the buffer (children
    /// land there for the tail-sampling decision instead of the ring).
    static BUFFERING: Cell<bool> = const { Cell::new(false) };
    static BUF: RefCell<Vec<Span>> = const { RefCell::new(Vec::new()) };
}

/// The calling thread's current trace context ([`TraceCtx::NONE`]
/// when tracing is off or nothing is in scope).
#[inline]
pub fn current() -> TraceCtx {
    if !enabled() {
        return TraceCtx::NONE;
    }
    CURRENT.with(Cell::get)
}

/// Installs `ctx` as the thread's current context until the guard
/// drops — how the engine writer thread adopts the context a request
/// thread attached to a queued batch.
pub fn scoped(ctx: TraceCtx) -> CtxScope {
    CtxScope {
        prev: CURRENT.with(|c| c.replace(ctx)),
    }
}

/// Guard from [`scoped`]; restores the previous context on drop.
pub struct CtxScope {
    prev: TraceCtx,
}

impl Drop for CtxScope {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.prev));
    }
}

/// Emits one already-measured span under `ctx` (used for stages whose
/// duration was measured before a context existed, like router frame
/// decode, or across threads, like ingest queue wait). Returns the
/// span id, 0 when dropped (tracing off or `ctx` unsampled).
pub fn record(ctx: TraceCtx, stage: Stage, arg: u64, start_us: u64, dur_ns: u64) -> u64 {
    if !enabled() || !ctx.sampled() {
        return 0;
    }
    let span = Span {
        trace_id: ctx.trace_id,
        span_id: next_span_id(),
        parent_span: ctx.parent_span,
        stage: stage.code(),
        arg,
        start_us,
        dur_ns,
    };
    if BUFFERING.with(Cell::get) {
        BUF.with(|b| b.borrow_mut().push(span));
    } else {
        ring().record(span);
    }
    span.span_id
}

struct Live {
    ctx: TraceCtx,
    span_id: u64,
    stage: Stage,
    arg: u64,
    start_us: u64,
    started: Instant,
    prev: TraceCtx,
}

impl Live {
    fn open(ctx: TraceCtx, stage: Stage, arg: u64) -> Live {
        let span_id = next_span_id();
        let prev = CURRENT.with(|c| {
            c.replace(TraceCtx {
                trace_id: ctx.trace_id,
                parent_span: span_id,
            })
        });
        Live {
            ctx,
            span_id,
            stage,
            arg,
            start_us: now_us(),
            started: Instant::now(),
            prev,
        }
    }

    fn close(&self) -> Span {
        CURRENT.with(|c| c.set(self.prev));
        Span {
            trace_id: self.ctx.trace_id,
            span_id: self.span_id,
            parent_span: self.ctx.parent_span,
            stage: self.stage.code(),
            arg: self.arg,
            start_us: self.start_us,
            dur_ns: self.started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64,
        }
    }
}

/// An open stage span on the current thread; records on drop. Child
/// spans opened while this guard lives parent under it automatically
/// (the guard swaps itself into the thread's current context).
#[must_use = "a StageSpan measures the scope holding the guard"]
pub struct StageSpan {
    live: Option<Live>,
}

impl StageSpan {
    /// Opens a stage span under the thread's current context; inert
    /// when tracing is off or the context is unsampled.
    pub fn begin(stage: Stage) -> StageSpan {
        StageSpan::begin_with(stage, 0)
    }

    /// [`StageSpan::begin`] with a stage argument (shard index, batch
    /// size, epoch).
    pub fn begin_with(stage: Stage, arg: u64) -> StageSpan {
        let ctx = current();
        StageSpan {
            live: ctx.sampled().then(|| Live::open(ctx, stage, arg)),
        }
    }

    /// Context for work this span fathers (its own id as the parent),
    /// e.g. to forward over the wire. Falls back to the thread context
    /// when inert.
    pub fn ctx(&self) -> TraceCtx {
        match &self.live {
            Some(l) => TraceCtx {
                trace_id: l.ctx.trace_id,
                parent_span: l.span_id,
            },
            None => current(),
        }
    }
}

impl Drop for StageSpan {
    fn drop(&mut self) {
        if let Some(live) = self.live.take() {
            let span = live.close();
            if BUFFERING.with(Cell::get) {
                BUF.with(|b| b.borrow_mut().push(span));
            } else {
                ring().record(span);
            }
        }
    }
}

/// The root span of a request on this process: buffers its subtree
/// thread-locally and makes the tail-sampling call when dropped —
/// retain (ring + slow-log sink) if the request ran at least the
/// configured threshold or was [`RootSpan::force_retain`]ed, discard
/// otherwise. Nested "roots" (a second `begin` while one is open on
/// the thread) degrade to plain stage spans; the outermost owns the
/// decision.
#[must_use = "a RootSpan measures the request holding the guard"]
pub struct RootSpan {
    live: Option<Live>,
    owns_buffer: bool,
    force: Cell<bool>,
}

impl RootSpan {
    /// Opens the request root under the wire-supplied context; inert
    /// when tracing is off or `ctx` is unsampled.
    pub fn begin(ctx: TraceCtx, stage: Stage) -> RootSpan {
        if !enabled() || !ctx.sampled() {
            return RootSpan {
                live: None,
                owns_buffer: false,
                force: Cell::new(false),
            };
        }
        let owns_buffer = BUFFERING.with(|b| !b.replace(true));
        RootSpan {
            live: Some(Live::open(ctx, stage, 0)),
            owns_buffer,
            force: Cell::new(false),
        }
    }

    /// Retain this tree regardless of the threshold (degraded answer,
    /// relayed failure — anything worth explaining even when fast).
    pub fn force_retain(&self) {
        self.force.set(true);
    }

    /// Context for children of this root (see [`StageSpan::ctx`]).
    pub fn ctx(&self) -> TraceCtx {
        match &self.live {
            Some(l) => TraceCtx {
                trace_id: l.ctx.trace_id,
                parent_span: l.span_id,
            },
            None => current(),
        }
    }

    /// Whether this guard is live (sampling this request).
    pub fn sampled(&self) -> bool {
        self.live.is_some()
    }
}

impl Drop for RootSpan {
    fn drop(&mut self) {
        let Some(live) = self.live.take() else {
            return;
        };
        let root = live.close();
        if !self.owns_buffer {
            // Nested under an outer root on this thread: ride along in
            // its buffer and let it decide.
            BUF.with(|b| b.borrow_mut().push(root));
            return;
        }
        BUFFERING.with(|b| b.set(false));
        let mut tree = BUF.with(|b| std::mem::take(&mut *b.borrow_mut()));
        let keep = self.force.get() || root.dur_ns >= threshold_ns();
        if !keep {
            return;
        }
        tree.insert(0, root);
        let r = ring();
        for span in &tree {
            r.record(*span);
        }
        if let Some(sink) = SINK.get() {
            sink(&tree);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Tracing state is process-global; tests that flip it serialize
    /// here so parallel test threads don't observe each other's mode.
    static GATE: Mutex<()> = Mutex::new(());

    fn with_tracing<R>(threshold: Option<Duration>, f: impl FnOnce() -> R) -> R {
        let _g = GATE.lock().unwrap_or_else(|e| e.into_inner());
        configure(threshold.or(Some(Duration::ZERO)));
        if let Some(t) = threshold {
            configure(Some(t));
        }
        let out = f();
        configure(None);
        out
    }

    fn my_spans(trace_id: u64) -> Vec<Span> {
        ring()
            .snapshot()
            .into_iter()
            .filter(|s| s.trace_id == trace_id)
            .collect()
    }

    #[test]
    fn stage_names_are_unique_and_roundtrip() {
        let mut names = STAGE_NAMES.to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), STAGES);
        for code in 1..=STAGES as u16 {
            let stage = Stage::from_code(code).unwrap();
            assert_eq!(stage.code(), code);
            assert_eq!(stage.name(), STAGE_NAMES[code as usize - 1]);
        }
        assert_eq!(Stage::from_code(0), None);
        assert_eq!(Stage::from_code(11), None);
        assert_eq!(stage_name(99), "unknown_stage");
    }

    #[test]
    fn mint_is_nonzero_and_distinct() {
        let a = mint();
        let b = mint();
        assert_ne!(a, 0);
        assert_ne!(b, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn disabled_tracing_is_inert() {
        let _g = GATE.lock().unwrap_or_else(|e| e.into_inner());
        configure(None);
        assert!(!enabled());
        assert_eq!(current(), TraceCtx::NONE);
        let before = ring().recorded();
        let root = RootSpan::begin(TraceCtx::root(mint()), Stage::ShardRequest);
        assert!(!root.sampled());
        let _child = StageSpan::begin(Stage::BatchApply);
        drop(_child);
        drop(root);
        assert_eq!(record(TraceCtx::root(7), Stage::QueueWait, 0, 0, 1), 0);
        assert_eq!(ring().recorded(), before);
    }

    #[test]
    fn root_buffers_children_and_retains_past_threshold() {
        with_tracing(Some(Duration::ZERO), || {
            let id = mint();
            let root = RootSpan::begin(TraceCtx::root(id), Stage::RouterRequest);
            {
                let fan = StageSpan::begin_with(Stage::ShardFanout, 3);
                // Children parent under the enclosing guard via TLS.
                assert_eq!(fan.ctx().trace_id, id);
                let inner = StageSpan::begin(Stage::BreakerGate);
                assert_eq!(inner.ctx().parent_span, current().parent_span);
            }
            let root_id = root.ctx().parent_span;
            drop(root);
            let spans = my_spans(id);
            assert_eq!(spans.len(), 3, "{spans:?}");
            // Root first, then children in completion order.
            assert_eq!(spans[0].stage, Stage::RouterRequest.code());
            assert_eq!(spans[0].parent_span, 0);
            let gate = spans.iter().find(|s| s.stage == Stage::BreakerGate.code());
            let fan = spans.iter().find(|s| s.stage == Stage::ShardFanout.code());
            let (gate, fan) = (gate.unwrap(), fan.unwrap());
            assert_eq!(fan.parent_span, root_id);
            assert_eq!(gate.parent_span, fan.span_id);
            assert_eq!(fan.arg, 3);
        });
    }

    #[test]
    fn fast_roots_are_discarded_and_forced_ones_kept() {
        with_tracing(Some(Duration::from_secs(3600)), || {
            let fast = mint();
            {
                let root = RootSpan::begin(TraceCtx::root(fast), Stage::ShardRequest);
                let _child = StageSpan::begin(Stage::BatchApply);
                assert!(root.sampled());
            }
            assert!(my_spans(fast).is_empty(), "fast tree must be dropped");

            let degraded = mint();
            {
                let root = RootSpan::begin(TraceCtx::root(degraded), Stage::ShardRequest);
                root.force_retain();
            }
            assert_eq!(my_spans(degraded).len(), 1, "degraded tree must be kept");
        });
    }

    #[test]
    fn cross_thread_scope_records_directly_to_the_ring() {
        with_tracing(Some(Duration::from_secs(3600)), || {
            let id = mint();
            let ctx = TraceCtx {
                trace_id: id,
                parent_span: 42,
            };
            let handle = std::thread::spawn(move || {
                let _scope = scoped(ctx);
                // No root on this thread: straight to the ring even
                // though the threshold is huge (writer-side stages are
                // not tail-sampled).
                let _s = StageSpan::begin_with(Stage::BatchApply, 17);
            });
            handle.join().unwrap();
            let spans = my_spans(id);
            assert_eq!(spans.len(), 1);
            assert_eq!(spans[0].parent_span, 42);
            assert_eq!(spans[0].stage, Stage::BatchApply.code());
            assert_eq!(spans[0].arg, 17);
        });
    }

    #[test]
    fn record_emits_premeasured_spans() {
        with_tracing(Some(Duration::ZERO), || {
            let id = mint();
            let ctx = TraceCtx {
                trace_id: id,
                parent_span: 9,
            };
            let span_id = record(ctx, Stage::QueueWait, 128, 1_000, 2_000);
            assert_ne!(span_id, 0);
            let spans = my_spans(id);
            assert_eq!(spans.len(), 1);
            assert_eq!(spans[0].span_id, span_id);
            assert_eq!(spans[0].stage, Stage::QueueWait.code());
            assert_eq!(spans[0].arg, 128);
            assert_eq!(spans[0].start_us, 1_000);
            assert_eq!(spans[0].dur_ns, 2_000);
        });
    }

    #[test]
    fn slow_sink_sees_retained_trees_root_first() {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEEN_ROOTS: AtomicU64 = AtomicU64::new(0);
        with_tracing(Some(Duration::ZERO), || {
            // OnceLock: only the first test to set the sink wins, but
            // the counter is only bumped for roots recorded under this
            // trace's stage, so the assertion stays local.
            set_slow_sink(|tree| {
                if tree.first().is_some_and(|r| r.parent_span == 0) {
                    SEEN_ROOTS.fetch_add(1, Ordering::Relaxed);
                }
            });
            let before = SEEN_ROOTS.load(Ordering::Relaxed);
            {
                let _root = RootSpan::begin(TraceCtx::root(mint()), Stage::RouterRequest);
            }
            assert!(SEEN_ROOTS.load(Ordering::Relaxed) > before);
        });
    }

    #[test]
    fn spans_round_trip_through_the_ring() {
        let ring = SpanRing::new();
        let span = Span {
            trace_id: 1,
            span_id: 2,
            parent_span: 3,
            stage: u16::MAX,
            arg: 5,
            start_us: 6,
            dur_ns: u64::MAX,
        };
        ring.record(span);
        assert_eq!(ring.snapshot(), vec![span]);
        assert_eq!(ring.recorded(), 1);
    }
}
