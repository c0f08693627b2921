//! Batched ingest: the write path of the service.
//!
//! Clients enqueue edges; a single writer thread drains the queue in
//! *coalesced batches* (the ConnectIt batch-dynamic pattern): a batch is
//! cut when either `max_edges` edges are pending or `max_delay` has
//! elapsed since the oldest pending edge arrived. Everything queued at
//! drain time rides along, so a burst of small inserts becomes one
//! `insert_batch` + one endpoint compress + one published epoch instead
//! of many.
//!
//! [`ServeStats`] is always-on (plain relaxed atomics, no obs feature
//! required) because the `Stats` protocol request must answer in every
//! build; the obs counters (`edges_ingested`, `epochs_published`,
//! `queue_depth`) additionally flow into traces when obs is compiled in.

use afforest_graph::Node;
use afforest_obs::reqtrace::{self, TraceCtx};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// When the writer cuts a batch.
#[derive(Clone, Debug)]
pub struct BatchPolicy {
    /// Cut as soon as this many edges are pending.
    pub max_edges: usize,
    /// Cut at the latest this long after the oldest pending edge arrived.
    pub max_delay: Duration,
    /// Artificial extra apply time per batch, injected between linking
    /// and publishing. Used by tests and benchmarks to hold an epoch
    /// mid-apply deterministically; `None` in production.
    pub apply_delay: Option<Duration>,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        Self {
            max_edges: 4096,
            max_delay: Duration::from_millis(2),
            apply_delay: None,
        }
    }
}

/// Always-on service counters (independent of the obs feature).
#[derive(Debug, Default)]
pub struct ServeStats {
    /// Edges applied by the writer since startup.
    pub edges_ingested: AtomicU64,
    /// Epochs published by the writer since startup (excludes epoch 0).
    pub epochs_published: AtomicU64,
    /// Edges currently pending in the ingest queue.
    pub queue_depth: AtomicU64,
    /// Malformed frames / unanswerable requests observed.
    pub protocol_errors: AtomicU64,
    /// Insert requests shed because the ingest queue was full.
    pub requests_shed: AtomicU64,
    /// Batch records fully appended to the WAL (0 when running without
    /// one). Mirrored here from the writer because the `Stats` request
    /// handler has no access to the WAL itself.
    pub wal_records: AtomicU64,
    /// WAL appends that failed with an I/O error (the batch was still
    /// applied: availability over durability, DESIGN.md §11).
    pub wal_errors: AtomicU64,
    /// Whether the writer is currently mid-apply (between draining a
    /// batch and publishing its epoch). Observable by tests proving that
    /// reads proceed while this is set.
    pub applying: AtomicBool,
}

impl ServeStats {
    /// Relaxed load of a counter (totals are statistics, not
    /// synchronization; see DESIGN.md §8).
    pub fn get(cell: &AtomicU64) -> u64 {
        cell.load(Ordering::Relaxed)
    }

    /// Relaxed add.
    pub fn add(cell: &AtomicU64, n: u64) {
        cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Whether the writer is mid-apply right now.
    pub fn is_applying(&self) -> bool {
        self.applying.load(Ordering::Relaxed)
    }
}

/// What [`IngestQueue::next_batch`] tells the writer to do.
#[derive(Debug, PartialEq, Eq)]
pub enum Drained {
    /// Apply this coalesced batch (never empty).
    Batch {
        /// The coalesced edges, oldest first.
        edges: Vec<(Node, Node)>,
        /// Arrival time of the batch's oldest edge — the anchor the
        /// writer measures epoch publish lag from.
        oldest: Instant,
        /// Trace context of the first *sampled* push coalesced into this
        /// batch ([`TraceCtx::NONE`] when no pusher was traced). The
        /// writer attributes the batch's pipeline stages (queue wait,
        /// WAL, apply, publish) to this representative request.
        trace: TraceCtx,
    },
    /// The queue was shut down and fully drained: exit.
    Shutdown,
}

#[derive(Default)]
struct QueueState {
    edges: VecDeque<(Node, Node)>,
    /// Arrival time of the oldest pending edge (deadline anchor).
    oldest: Option<Instant>,
    /// Trace context of the first sampled push since the last drain.
    trace: TraceCtx,
    /// Edges of the last drained batch until the writer reports it
    /// published: drained from `edges` but not yet visible to readers.
    in_flight: usize,
    shutdown: bool,
}

/// The MPSC edge queue between request handlers and the writer thread.
#[derive(Default)]
pub struct IngestQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
}

impl IngestQueue {
    /// Enqueues edges; returns the queue depth after the push.
    pub fn push(&self, edges: &[(Node, Node)]) -> usize {
        match self.try_push(edges, 0) {
            Ok(depth) => depth,
            // Unreachable: max_depth = 0 means unbounded.
            Err(depth) => depth,
        }
    }

    /// Enqueues edges unless that would leave more than `max_depth`
    /// pending (`0` = unbounded). The admission check and the enqueue are
    /// one critical section, so concurrent producers cannot jointly
    /// overshoot the bound. `Ok` carries the depth after the push; `Err`
    /// carries the (unchanged) depth at rejection time.
    pub fn try_push(&self, edges: &[(Node, Node)], max_depth: usize) -> Result<usize, usize> {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if max_depth > 0 && s.edges.len().saturating_add(edges.len()) > max_depth {
            return Err(s.edges.len());
        }
        s.edges.extend(edges.iter().copied());
        if s.oldest.is_none() && !s.edges.is_empty() {
            s.oldest = Some(Instant::now());
        }
        if !s.trace.sampled() {
            s.trace = reqtrace::current();
        }
        let depth = s.edges.len();
        drop(s);
        self.ready.notify_one();
        Ok(depth)
    }

    /// Current queue depth.
    pub fn depth(&self) -> usize {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .edges
            .len()
    }

    /// Edges accepted but not yet published: still queued, or drained
    /// into the batch the writer is applying. Read under the same lock
    /// that drains, so it never reads 0 between a drain and its publish.
    pub fn unpublished(&self) -> usize {
        let s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        s.edges.len() + s.in_flight
    }

    /// The writer has published the last drained batch.
    pub fn published(&self) {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .in_flight = 0;
    }

    /// Marks the queue shut down; the writer drains what is left and
    /// exits.
    pub fn shutdown(&self) {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .shutdown = true;
        self.ready.notify_all();
    }

    /// Blocks until a batch is due per `policy` (size or deadline
    /// trigger) or shutdown. Coalesces *everything* pending into the
    /// returned batch.
    pub fn next_batch(&self, policy: &BatchPolicy) -> Drained {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if s.shutdown {
                return if s.edges.is_empty() {
                    Drained::Shutdown
                } else {
                    Self::drain(&mut s)
                };
            }
            if s.edges.len() >= policy.max_edges {
                return Self::drain(&mut s);
            }
            if let Some(oldest) = s.oldest {
                let elapsed = oldest.elapsed();
                if elapsed >= policy.max_delay {
                    return Self::drain(&mut s);
                }
                // Deadline pending: sleep out the remainder (re-checked on
                // wake, since a size trigger or shutdown may come first).
                let (guard, _) = self
                    .ready
                    .wait_timeout(s, policy.max_delay - elapsed)
                    .unwrap_or_else(|e| e.into_inner());
                s = guard;
            } else {
                s = self.ready.wait(s).unwrap_or_else(|e| e.into_inner());
            }
        }
    }

    fn drain(s: &mut QueueState) -> Drained {
        // `oldest` is set on every push into an empty queue, so a
        // non-empty drain always has one; the fallback is just defense.
        let oldest = s.oldest.take().unwrap_or_else(Instant::now);
        s.in_flight = s.edges.len();
        Drained::Batch {
            edges: s.edges.drain(..).collect(),
            oldest,
            trace: std::mem::take(&mut s.trace),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn policy(max_edges: usize, max_delay_ms: u64) -> BatchPolicy {
        BatchPolicy {
            max_edges,
            max_delay: Duration::from_millis(max_delay_ms),
            apply_delay: None,
        }
    }

    fn edges_of(d: Drained) -> Vec<(Node, Node)> {
        match d {
            Drained::Batch { edges, .. } => edges,
            Drained::Shutdown => panic!("expected a batch, got shutdown"),
        }
    }

    #[test]
    fn size_trigger_cuts_immediately() {
        let q = IngestQueue::default();
        q.push(&[(0, 1), (1, 2), (2, 3)]);
        // Queue holds 3 ≥ max_edges=2: next_batch returns without waiting
        // for the (long) deadline, and coalesces everything.
        let batch = q.next_batch(&policy(2, 60_000));
        assert_eq!(edges_of(batch), vec![(0, 1), (1, 2), (2, 3)]);
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn deadline_trigger_fires_for_small_batches() {
        let q = IngestQueue::default();
        q.push(&[(0, 1)]);
        let t = Instant::now();
        match q.next_batch(&policy(1_000_000, 20)) {
            Drained::Batch { edges, oldest, .. } => {
                assert_eq!(edges, vec![(0, 1)]);
                // The lag anchor is the push time, so by drain time the
                // full deadline has elapsed since `oldest`.
                assert!(oldest.elapsed() >= Duration::from_millis(15));
            }
            Drained::Shutdown => panic!("expected a batch"),
        }
        assert!(
            t.elapsed() >= Duration::from_millis(15),
            "{:?}",
            t.elapsed()
        );
    }

    #[test]
    fn shutdown_drains_remaining_then_exits() {
        let q = IngestQueue::default();
        q.push(&[(4, 5)]);
        q.shutdown();
        assert_eq!(
            edges_of(q.next_batch(&policy(1_000_000, 60_000))),
            vec![(4, 5)]
        );
        assert_eq!(q.next_batch(&policy(1, 0)), Drained::Shutdown);
    }

    #[test]
    fn waiting_consumer_wakes_on_push() {
        let q = Arc::new(IngestQueue::default());
        let q2 = Arc::clone(&q);
        let h = std::thread::spawn(move || q2.next_batch(&policy(1, 60_000)));
        // Give the consumer a moment to block, then feed it.
        std::thread::sleep(Duration::from_millis(20));
        q.push(&[(7, 8)]);
        assert_eq!(edges_of(h.join().unwrap()), vec![(7, 8)]);
    }

    #[test]
    fn depth_tracks_pushes() {
        let q = IngestQueue::default();
        assert_eq!(q.depth(), 0);
        assert_eq!(q.push(&[(0, 1)]), 1);
        assert_eq!(q.push(&[(1, 2), (2, 3)]), 3);
        assert_eq!(q.depth(), 3);
    }

    #[test]
    fn drained_edges_stay_unpublished_until_published() {
        let q = IngestQueue::default();
        q.push(&[(0, 1), (1, 2)]);
        assert_eq!(q.unpublished(), 2);
        let batch = q.next_batch(&policy(1, 0));
        assert_eq!(edges_of(batch).len(), 2);
        // Drained but not applied: the queue is empty, the edges are not
        // yet visible.
        assert_eq!(q.depth(), 0);
        assert_eq!(q.unpublished(), 2);
        q.push(&[(2, 3)]);
        assert_eq!(q.unpublished(), 3);
        q.published();
        assert_eq!(q.unpublished(), 1);
    }

    #[test]
    fn try_push_sheds_past_the_bound() {
        let q = IngestQueue::default();
        assert_eq!(q.try_push(&[(0, 1), (1, 2)], 3), Ok(2));
        // Would land at 4 > 3: rejected, depth unchanged.
        assert_eq!(q.try_push(&[(2, 3), (3, 4)], 3), Err(2));
        assert_eq!(q.depth(), 2);
        // Exactly at the bound is admitted.
        assert_eq!(q.try_push(&[(2, 3)], 3), Ok(3));
        assert_eq!(q.try_push(&[(4, 5)], 3), Err(3));
        // Draining frees capacity again.
        assert!(matches!(q.next_batch(&policy(1, 0)), Drained::Batch { .. }));
        assert_eq!(q.try_push(&[(4, 5)], 3), Ok(1));
        // max_depth = 0 means unbounded.
        assert!(q.try_push(&vec![(0, 1); 10_000], 0).is_ok());
    }
}
