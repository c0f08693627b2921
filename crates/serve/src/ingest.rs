//! Batched ingest: the write path of the service.
//!
//! Clients enqueue edges; a single writer thread drains the queue in
//! *coalesced batches* (the ConnectIt batch-dynamic pattern): a batch is
//! cut when either `max_edges` edges are pending or `max_delay` has
//! elapsed since the previous cut (since the queue was created, before
//! the first). Everything queued at drain time rides along, so a burst
//! of small inserts becomes one `insert_batch` + one endpoint compress +
//! one published epoch instead of many. Batches form because the writer
//! was busy, not because it slept: an insert that reaches an idle writer
//! is cut on arrival, while a steady stream is still cut at most once
//! per `max_delay`.
//!
//! The queue's mutex also guards the engine's [`Ledger`]: what `Stats`
//! and `flush` read. Edges move from queued to in flight to applied in
//! critical sections of this one lock, so a reader never sees an edge
//! in none of them, or in two.

use afforest_graph::Node;
use afforest_obs::reqtrace::{self, TraceCtx};
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// When the writer cuts a batch.
#[derive(Clone, Debug)]
pub struct BatchPolicy {
    /// Cut as soon as this many edges are pending.
    pub max_edges: usize,
    /// Spacing of time-triggered cuts: a non-empty queue is cut once this
    /// long has passed since the previous cut. No edge waits longer, and
    /// an edge arriving after an idle spell this long does not wait.
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

/// One engine's ingest totals since startup, copied out of the queue
/// under a single lock acquisition ([`IngestQueue::ledger`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Ledger {
    /// Edges accepted and still queued.
    pub queued: u64,
    /// Edges of the batch the writer is applying: drained, not yet
    /// visible to readers.
    pub in_flight: u64,
    /// Edges applied and published.
    pub applied: u64,
    /// Batches published, one epoch each (epoch 0 is not a batch).
    pub batches: u64,
    /// Published batches whose WAL record was fully appended.
    pub wal_records: u64,
    /// Inserts answered `Overloaded`, by the queue bound or the process
    /// backstop.
    pub shed: u64,
}

impl Ledger {
    /// Edges accepted but not yet published.
    pub fn unpublished(&self) -> u64 {
        self.queued + self.in_flight
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
        /// writer measures queue wait and epoch publish lag from.
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

struct QueueState {
    edges: VecDeque<(Node, Node)>,
    /// Arrival time of the oldest pending edge (queue-wait anchor).
    oldest: Option<Instant>,
    /// When the last batch was cut, or the queue created before the
    /// first cut (deadline anchor).
    last_cut: Instant,
    /// Trace context of the first sampled push since the last drain.
    trace: TraceCtx,
    /// Totals; `queued` is read from `edges` instead.
    ledger: Ledger,
    shutdown: bool,
}

/// The MPSC edge queue between request handlers and the writer thread.
pub struct IngestQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
}

impl Default for IngestQueue {
    /// An empty queue whose deadline clock starts now: a writer with a
    /// far `max_delay` never cuts on its own, even for its first edge.
    fn default() -> Self {
        Self {
            state: Mutex::new(QueueState {
                edges: VecDeque::new(),
                oldest: None,
                last_cut: Instant::now(),
                trace: TraceCtx::default(),
                ledger: Ledger::default(),
                shutdown: false,
            }),
            ready: Condvar::new(),
        }
    }
}

/// How long the writer waits before cutting a batch out of `pending`
/// queued edges, the last cut having been at `last_cut`: `None` while
/// nothing is pending (wait for a push), zero when a batch is due now.
///
/// Each cut drains the whole queue, so the last cut is never later than
/// the oldest pending edge's arrival, and no batch is due later than
/// `max_delay` after its oldest edge.
fn wait_before_cut(
    pending: usize,
    last_cut: Instant,
    now: Instant,
    policy: &BatchPolicy,
) -> Option<Duration> {
    if pending == 0 {
        None
    } else if pending >= policy.max_edges {
        Some(Duration::ZERO)
    } else {
        Some(
            policy
                .max_delay
                .saturating_sub(now.saturating_duration_since(last_cut)),
        )
    }
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
    /// counts a shed and carries the (unchanged) depth at rejection time.
    pub fn try_push(&self, edges: &[(Node, Node)], max_depth: usize) -> Result<usize, usize> {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if max_depth > 0 && s.edges.len().saturating_add(edges.len()) > max_depth {
            s.ledger.shed += 1;
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

    /// Counts an insert shed before it reached the queue (the process
    /// backstop refused it); returns the queue depth to report.
    pub fn shed(&self) -> usize {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        s.ledger.shed += 1;
        s.edges.len()
    }

    /// The totals, read under the same lock that drains and publishes,
    /// so `unpublished()` never reads 0 between a drain and its publish.
    pub fn ledger(&self) -> Ledger {
        let s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        Ledger {
            queued: s.edges.len() as u64,
            ..s.ledger
        }
    }

    /// The writer has published the last drained batch: its edges move
    /// from in flight to applied, and the batch (and its WAL record, when
    /// `wal_logged`) is counted.
    pub fn published(&self, wal_logged: bool) {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let l = &mut s.ledger;
        l.applied += std::mem::take(&mut l.in_flight);
        l.batches += 1;
        l.wal_records += u64::from(wal_logged);
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
    /// trigger, see [`BatchPolicy`]) or shutdown. Coalesces *everything*
    /// pending into the returned batch.
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
            s = match wait_before_cut(s.edges.len(), s.last_cut, Instant::now(), policy) {
                None => self.ready.wait(s).unwrap_or_else(|e| e.into_inner()),
                Some(wait) if wait.is_zero() => return Self::drain(&mut s),
                // Deadline pending: sleep out the remainder (re-checked on
                // wake, since a size trigger or shutdown may come first).
                Some(wait) => {
                    self.ready
                        .wait_timeout(s, wait)
                        .unwrap_or_else(|e| e.into_inner())
                        .0
                }
            };
        }
    }

    fn drain(s: &mut QueueState) -> Drained {
        s.last_cut = Instant::now();
        // `oldest` is set on every push into an empty queue, so a
        // non-empty drain always has one; the fallback is just defense.
        let oldest = s.oldest.take().unwrap_or(s.last_cut);
        s.ledger.in_flight = s.edges.len() as u64;
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
        assert_eq!(q.ledger().queued, 0);
    }

    #[test]
    fn deadline_trigger_fires_for_small_batches() {
        // A fresh queue counts the deadline from its creation, so a small
        // batch pushed into it waits out the whole `max_delay`.
        let created = Instant::now();
        let q = IngestQueue::default();
        q.push(&[(0, 1)]);
        assert_eq!(edges_of(q.next_batch(&policy(1_000_000, 20))), vec![(0, 1)]);
        assert!(
            created.elapsed() >= Duration::from_millis(20),
            "{:?}",
            created.elapsed()
        );
    }

    #[test]
    fn cut_rule_counts_the_deadline_from_the_last_cut() {
        let p = policy(4, 10);
        let ms = Duration::from_millis;
        let cut = Instant::now();
        // How long `pending` edges wait, `since` ms after the last cut.
        let wait = |pending, since| wait_before_cut(pending, cut, cut + ms(since), &p);
        // Nothing pending: wait for a push, however long ago the cut was.
        assert_eq!(wait(0, 50), None);
        // The size trigger fires at once.
        assert_eq!(wait(4, 0), Some(Duration::ZERO));
        // Within `max_delay` of the last cut: wait out the rest of it.
        assert_eq!(wait(1, 3), Some(ms(7)));
        // `max_delay` or more since the last cut: due now, however
        // recently the pending edge arrived.
        assert_eq!(wait(1, 10), Some(Duration::ZERO));
        assert_eq!(wait(3, 500), Some(Duration::ZERO));
        // A deadline too far to add to an `Instant` neither overflows nor
        // comes due.
        let far = BatchPolicy {
            max_delay: Duration::MAX,
            ..p
        };
        assert_eq!(
            wait_before_cut(1, cut, cut + ms(1), &far),
            Some(Duration::MAX - ms(1))
        );
    }

    #[test]
    fn push_after_an_idle_spell_is_cut_on_arrival() {
        let p = policy(1_000_000, 100);
        let q = IngestQueue::default();
        q.push(&[(0, 1)]);
        assert_eq!(edges_of(q.next_batch(&p)), vec![(0, 1)]);
        // The writer idles for a full `max_delay` after that cut.
        std::thread::sleep(p.max_delay);
        q.push(&[(1, 2)]);
        let pushed = Instant::now();
        assert_eq!(edges_of(q.next_batch(&p)), vec![(1, 2)]);
        // Anchored at the edge's own arrival, it would wait 100 ms more.
        assert!(pushed.elapsed() < p.max_delay, "{:?}", pushed.elapsed());
    }

    #[test]
    fn back_to_back_time_triggered_cuts_are_max_delay_apart() {
        let p = policy(1_000_000, 20);
        let q = IngestQueue::default();
        let mut cuts = vec![q.state.lock().unwrap().last_cut];
        for v in 0..3 {
            q.push(&[(v, v + 1)]);
            assert_eq!(edges_of(q.next_batch(&p)), vec![(v, v + 1)]);
            cuts.push(q.state.lock().unwrap().last_cut);
        }
        for pair in cuts.windows(2) {
            assert!(pair[1] - pair[0] >= p.max_delay, "{:?}", pair[1] - pair[0]);
        }
    }

    #[test]
    fn far_deadline_holds_edges_until_size_trigger_or_shutdown() {
        let q = Arc::new(IngestQueue::default());
        let (tx, rx) = std::sync::mpsc::channel();
        let writer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || loop {
                let drained = q.next_batch(&policy(3, 600_000));
                let done = drained == Drained::Shutdown;
                tx.send(drained).unwrap();
                if done {
                    return;
                }
            })
        };
        let quiet = Duration::from_millis(50);
        let recv = || rx.recv_timeout(Duration::from_secs(10)).unwrap();
        q.push(&[(0, 1)]);
        assert!(rx.recv_timeout(quiet).is_err(), "cut before 600 s");
        assert_eq!(q.ledger().queued, 1);
        q.push(&[(1, 2), (2, 3)]);
        assert_eq!(edges_of(recv()), vec![(0, 1), (1, 2), (2, 3)]);
        q.push(&[(3, 4)]);
        assert!(rx.recv_timeout(quiet).is_err(), "cut before 600 s");
        q.shutdown();
        assert_eq!(edges_of(recv()), vec![(3, 4)]);
        assert_eq!(recv(), Drained::Shutdown);
        writer.join().unwrap();
    }

    #[test]
    fn batch_oldest_is_its_oldest_edge_arrival() {
        let q = IngestQueue::default();
        let p = policy(2, 600_000);
        let oldest_of = |d: Drained| match d {
            Drained::Batch { oldest, .. } => oldest,
            Drained::Shutdown => panic!("expected a batch, got shutdown"),
        };
        for _ in 0..2 {
            // The second batch anchors at its own first push, not at the
            // cut before it.
            let before = Instant::now();
            q.push(&[(0, 1)]);
            let first_pushed = Instant::now();
            q.push(&[(1, 2)]);
            let oldest = oldest_of(q.next_batch(&p));
            assert!(before <= oldest && oldest <= first_pushed);
        }
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
        assert_eq!(q.ledger().queued, 0);
        assert_eq!(q.push(&[(0, 1)]), 1);
        assert_eq!(q.push(&[(1, 2), (2, 3)]), 3);
        assert_eq!(q.ledger().queued, 3);
    }

    #[test]
    fn drained_edges_stay_unpublished_until_published() {
        let q = IngestQueue::default();
        q.push(&[(0, 1), (1, 2)]);
        assert_eq!(q.ledger().unpublished(), 2);
        let batch = q.next_batch(&policy(1, 0));
        assert_eq!(edges_of(batch).len(), 2);
        // Drained but not applied: the queue is empty, the edges are not
        // yet visible.
        assert_eq!(q.ledger().queued, 0);
        assert_eq!(q.ledger().unpublished(), 2);
        q.push(&[(2, 3)]);
        assert_eq!(q.ledger().unpublished(), 3);
        q.published(false);
        assert_eq!(q.ledger().unpublished(), 1);
    }

    #[test]
    fn published_moves_in_flight_edges_to_applied_and_counts_the_batch() {
        let q = IngestQueue::default();
        q.push(&[(0, 1), (1, 2), (2, 3)]);
        assert_eq!(edges_of(q.next_batch(&policy(1, 0))).len(), 3);
        q.push(&[(3, 4)]);
        let mid = q.ledger();
        assert_eq!((mid.queued, mid.in_flight, mid.applied), (1, 3, 0));
        assert_eq!((mid.batches, mid.wal_records), (0, 0));
        q.published(true);
        assert_eq!(
            q.ledger(),
            Ledger {
                queued: 1,
                in_flight: 0,
                applied: 3,
                batches: 1,
                wal_records: 1,
                shed: 0,
            }
        );
        // A batch whose WAL append was not logged counts no record.
        assert_eq!(edges_of(q.next_batch(&policy(1, 0))).len(), 1);
        q.published(false);
        let l = q.ledger();
        assert_eq!((l.applied, l.batches, l.wal_records), (4, 2, 1));
        assert_eq!(l.unpublished(), 0);
    }

    #[test]
    fn sheds_are_counted_on_both_rejection_paths() {
        let q = IngestQueue::default();
        q.push(&[(0, 1), (1, 2)]);
        // The queue bound refuses the push.
        assert_eq!(q.try_push(&[(2, 3)], 2), Err(2));
        // The backstop refused before the queue was asked.
        assert_eq!(q.shed(), 2);
        let l = q.ledger();
        assert_eq!((l.shed, l.queued), (2, 2));
        // Admitted pushes count no shed.
        assert_eq!(q.try_push(&[(2, 3)], 3), Ok(3));
        assert_eq!(q.ledger().shed, 2);
    }

    #[test]
    fn try_push_sheds_past_the_bound() {
        let q = IngestQueue::default();
        assert_eq!(q.try_push(&[(0, 1), (1, 2)], 3), Ok(2));
        // Would land at 4 > 3: rejected, depth unchanged.
        assert_eq!(q.try_push(&[(2, 3), (3, 4)], 3), Err(2));
        assert_eq!(q.ledger().queued, 2);
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
