//! The recording backend, compiled only with the `enabled` feature.
//!
//! Counter increments go to sharded atomics (one stripe per rayon worker)
//! so hot loops never contend on a single cache line; span open/close is
//! rare (phase granularity) and goes through a mutex-protected session
//! state. All atomic accesses use `Relaxed`: counters are statistics, not
//! synchronization — exact totals are observed only at session end and at
//! span boundaries, after the parallel phase has joined (see DESIGN.md §8).

use crate::trace::{base_of, Histogram, SpanRecord, Trace};
use crate::Counter;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

/// Counter stripes; indexed by rayon worker id modulo this.
const STRIPES: usize = 16;

/// Whether a session is currently recording.
static ACTIVE: AtomicBool = AtomicBool::new(false);

// A const item is the only way to initialize a static array of atomics;
// each array element is a distinct atomic, so the shared-const pitfall the
// lint warns about does not apply.
#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);
const N: usize = Counter::COUNT;

/// Sharded counter cells: `COUNTS[stripe][counter]`.
static COUNTS: [[AtomicU64; N]; STRIPES] = {
    #[allow(clippy::declare_interior_mutable_const)]
    const ROW: [AtomicU64; N] = [ZERO; N];
    [ROW; STRIPES]
};

/// Serializes sessions: only one `Session` can record at a time (the
/// counters and span list are process-global). Guards the generation of
/// the latest session.
static GATE: Mutex<u64> = Mutex::new(0);

/// Mutable per-session state, behind its own lock so span guards can
/// reach it without holding the gate.
static STATE: Mutex<Option<State>> = Mutex::new(None);

struct State {
    /// Which session this is; a span opened in another one records
    /// nothing when it closes.
    generation: u64,
    t0: Instant,
    spans: Vec<SpanRecord>,
    histograms: BTreeMap<String, Histogram>,
}

thread_local! {
    /// Span nesting depth on this thread (spans are opened on the thread
    /// driving the algorithm, not inside rayon workers).
    static DEPTH: Cell<u32> = const { Cell::new(0) };
}

fn lock_state() -> MutexGuard<'static, Option<State>> {
    // A panic inside an instrumented phase poisons the lock; recording is
    // diagnostics, so recover rather than cascade the failure.
    STATE.lock().unwrap_or_else(|e| e.into_inner())
}

#[inline]
pub(crate) fn is_active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Adds `n` to this thread's stripe of `counter`.
#[inline]
pub(crate) fn add(counter: Counter, n: u64) {
    // Workers hash to stripes 0..STRIPES-1 by pool index; threads outside
    // the pool (e.g. the main thread) share the last stripe.
    let stripe = rayon::current_thread_index().map_or(STRIPES - 1, |i| i % STRIPES);
    COUNTS[stripe][counter as usize].fetch_add(n, Ordering::Relaxed);
}

/// Sums every stripe into per-counter totals.
fn snapshot() -> [u64; N] {
    let mut totals = [0u64; N];
    for row in &COUNTS {
        for (t, cell) in totals.iter_mut().zip(row) {
            *t += cell.load(Ordering::Relaxed);
        }
    }
    totals
}

fn reset_counters() {
    for row in &COUNTS {
        for cell in row {
            cell.store(0, Ordering::Relaxed);
        }
    }
}

/// Begins recording; the returned guard must be kept alive for the whole
/// session and handed back to [`finish`].
pub(crate) fn begin() -> MutexGuard<'static, u64> {
    let mut gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    *gate += 1;
    reset_counters();
    *lock_state() = Some(State {
        generation: *gate,
        t0: Instant::now(),
        spans: Vec::new(),
        histograms: BTreeMap::new(),
    });
    ACTIVE.store(true, Ordering::Relaxed);
    gate
}

/// Stops recording and assembles the [`Trace`].
pub(crate) fn finish(gate: MutexGuard<'static, u64>) -> Trace {
    ACTIVE.store(false, Ordering::Relaxed);
    let state = lock_state().take();
    drop(gate);
    let Some(state) = state else {
        return Trace::default();
    };
    let totals = snapshot();
    // Counter lists are kept sorted by name so a JSON round-trip (which
    // stores them as an object) reproduces the trace exactly.
    let mut counters: Vec<(String, u64)> = Counter::ALL
        .iter()
        .zip(totals)
        .filter(|&(_, v)| v != 0)
        .map(|(c, v)| (c.name().to_string(), v))
        .collect();
    counters.sort();
    Trace {
        total_ns: state.t0.elapsed().as_nanos() as u64,
        counters,
        spans: state.spans,
        histograms: state.histograms.into_values().collect(),
    }
}

/// An open span; closing (dropping) it appends a [`SpanRecord`].
pub(crate) struct ActiveSpan {
    generation: u64,
    name: String,
    depth: u32,
    start: Instant,
    start_ns: u64,
    counters_at_open: [u64; N],
}

impl ActiveSpan {
    /// Opens a span, if a session is recording.
    pub(crate) fn open(name: String) -> Option<ActiveSpan> {
        let (generation, start_ns) = {
            let state = lock_state();
            let state = state.as_ref()?;
            (state.generation, state.t0.elapsed().as_nanos() as u64)
        };
        let depth = DEPTH.with(|d| {
            let depth = d.get();
            d.set(depth + 1);
            depth
        });
        Some(ActiveSpan {
            generation,
            name,
            depth,
            start: Instant::now(),
            start_ns,
            counters_at_open: snapshot(),
        })
    }
}

impl Drop for ActiveSpan {
    fn drop(&mut self) {
        let dur_ns = self.start.elapsed().as_nanos() as u64;
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        // Held across the counter read: the session cannot end, so the
        // counters cannot be reset for the next one, until it is released.
        let mut state = lock_state();
        let Some(state) = state.as_mut().filter(|s| s.generation == self.generation) else {
            return;
        };
        let totals = snapshot();
        // Sorted by name: same round-trip invariant as the session totals.
        let mut counters: Vec<(String, u64)> = Counter::ALL
            .iter()
            .zip(totals)
            .zip(self.counters_at_open)
            .filter(|&((_, after), before)| after != before)
            .map(|((c, after), before)| (c.name().to_string(), after - before))
            .collect();
        counters.sort();
        state
            .histograms
            .entry(base_of(&self.name).to_string())
            .or_insert_with(|| Histogram::new(base_of(&self.name)))
            .record(dur_ns);
        state.spans.push(SpanRecord {
            name: std::mem::take(&mut self.name),
            depth: self.depth,
            start_ns: self.start_ns,
            dur_ns,
            counters,
        });
    }
}
