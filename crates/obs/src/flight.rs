//! Fixed-capacity lock-free flight recorder.
//!
//! A ring of the last [`CAPACITY`] structured events, writable from any
//! thread without locks, readable at any time (including from a panic
//! hook) without stopping writers. The serving crate records coarse
//! lifecycle events here — epoch published, WAL compaction, overload
//! shed, fault injected, worker death — so that when a server dies, the
//! dump explains *what the runtime was doing*, which counters alone
//! cannot.
//!
//! [`Ring`] is a typed view of [`crate::ring::Ring`], which owns the
//! slot protocol: an event is five words (`ts_us`, `kind`, `args`), and
//! its `seq` is the ring's sequence number.

use std::time::Instant;

pub use crate::ring::CAPACITY;

/// One recorded event, as copied out by [`Ring::snapshot`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Global sequence number (0-based, never reused).
    pub seq: u64,
    /// Microseconds since the ring was created.
    pub ts_us: u64,
    /// Caller-defined event kind (the serving crate maps these to
    /// names; the ring itself is agnostic).
    pub kind: u16,
    /// Caller-defined payload words, meaning fixed per kind.
    pub args: [u64; 3],
}

/// The event ring. Usually accessed through a process-global instance
/// owned by the serving crate; constructible directly for tests.
pub struct Ring {
    ring: crate::ring::Ring<5>,
    epoch: Instant,
}

impl Default for Ring {
    fn default() -> Ring {
        Ring::new()
    }
}

impl Ring {
    /// Creates an empty ring of [`CAPACITY`] slots.
    pub fn new() -> Ring {
        Ring {
            ring: crate::ring::Ring::new(),
            epoch: Instant::now(),
        }
    }

    /// Records one event. Lock-free and safe from any thread, including
    /// inside a panic hook.
    pub fn record(&self, kind: u16, [a, b, c]: [u64; 3]) {
        let ts_us = self.epoch.elapsed().as_micros() as u64;
        self.ring.record([ts_us, u64::from(kind), a, b, c]);
    }

    /// Total events ever recorded (including ones already overwritten).
    pub fn recorded(&self) -> u64 {
        self.ring.recorded()
    }

    /// Copies out every retained event, oldest first, without blocking
    /// writers.
    pub fn snapshot(&self) -> Vec<Event> {
        self.ring
            .snapshot()
            .into_iter()
            .map(|(seq, [ts_us, kind, a, b, c])| Event {
                seq,
                ts_us,
                kind: kind as u16,
                args: [a, b, c],
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_round_trip_through_the_ring() {
        let ring = Ring::new();
        ring.record(7, [1, u64::MAX, 3]);
        ring.record(u16::MAX, [4, 5, 6]);
        let events = ring.snapshot();
        assert_eq!(events.len(), 2);
        assert_eq!((events[0].seq, events[0].kind), (0, 7));
        assert_eq!(events[0].args, [1, u64::MAX, 3]);
        assert_eq!((events[1].seq, events[1].kind), (1, u16::MAX));
        assert_eq!(events[1].args, [4, 5, 6]);
        assert!(events[0].ts_us <= events[1].ts_us);
        assert_eq!(ring.recorded(), 2);
    }
}
