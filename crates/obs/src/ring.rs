//! The lock-free record ring under the flight recorder and the span ring.
//!
//! A [`Ring`] keeps the last [`CAPACITY`] records of `W` plain `u64`
//! words each. Any thread may record without locks or allocation, and a
//! reader (a panic hook included) may copy the ring out at any time
//! without stopping writers. [`flight::Ring`](crate::flight::Ring) and
//! [`reqtrace::SpanRing`](crate::reqtrace::SpanRing) are typed views of
//! it; this module owns the whole slot protocol, and DESIGN.md §12 and
//! §8 give its argument.
//!
//! # Protocol
//!
//! Each slot carries a stamp: 0 while never written, `2*seq + 1` while
//! the writer of record `seq` owns it, `2*seq + 2` once that record is
//! complete. Stamps only grow.
//!
//! - **Writer.** [`Ring::record`] takes `seq` from the cursor with a
//!   Relaxed `fetch_add`, so record `seq` goes to slot `seq % CAPACITY`.
//!   It claims the slot by a CAS on the stamp from any even value below
//!   its own `2*seq + 1`. The CAS succeeds with Acquire, so the previous
//!   owner's word stores precede this writer's in each word's
//!   modification order. A Release fence follows; then the words are
//!   stored Relaxed and `2*seq + 2` is published with Release. A writer
//!   that finds the stamp odd (a writer one or more laps older still
//!   holds the slot) or above its own claim (a newer lap already took
//!   it) drops its record. Only the owner of an odd stamp writes the
//!   words, so two writers never fill one slot at once.
//! - **Reader.** [`Ring::snapshot`] loads the stamp with Acquire, copies
//!   the words Relaxed, issues an Acquire fence and reloads the stamp
//!   Relaxed. It keeps the slot only when both loads agree on a nonzero
//!   even value; otherwise a writer claimed the slot meanwhile and the
//!   copy is discarded.
//!
//! The fences sit where Boehm places them for a seqlock ("Can Seqlocks
//! Get Along With Programming Language Memory Models?", MSPC 2012): a
//! reader whose copy saw any word of a newer writer synchronizes, fence
//! to fence, with that writer's claim, so its reload sees the newer
//! stamp. `crates/modelcheck` explores every interleaving of `record`
//! and `snapshot` on small rings; it serializes accesses, so it checks
//! the claim rule, and the fence argument stays with DESIGN.md §8.
//!
//! A dropped record is a missing `seq`, as an overwritten one is, and
//! [`Ring::recorded`] counts every sequence number handed out. No record
//! is dropped before the cursor has lapped the ring once.

use std::sync::atomic::{fence, AtomicU64, Ordering};

/// Records a ring retains (oldest overwritten first).
pub const CAPACITY: usize = 1024;

struct Slot<const W: usize> {
    /// 0 = never written; `2*seq + 1` = owned by the writer of `seq`;
    /// `2*seq + 2` = record `seq` complete.
    stamp: AtomicU64,
    words: [AtomicU64; W],
}

/// A ring of the last [`CAPACITY`] records of `W` words each.
pub struct Ring<const W: usize> {
    next: AtomicU64,
    slots: Box<[Slot<W>]>,
}

impl<const W: usize> Default for Ring<W> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const W: usize> Ring<W> {
    /// An empty ring of [`CAPACITY`] slots.
    pub fn new() -> Self {
        Ring {
            next: AtomicU64::new(0),
            slots: (0..CAPACITY)
                .map(|_| Slot {
                    stamp: AtomicU64::new(0),
                    words: std::array::from_fn(|_| AtomicU64::new(0)),
                })
                .collect(),
        }
    }

    /// Stores `words` as the next record, or drops them if a writer from
    /// another lap holds or has passed the record's slot (see the module
    /// docs). Never blocks and never allocates.
    pub fn record(&self, words: [u64; W]) {
        let seq = self.next.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(seq % CAPACITY as u64) as usize];
        let claim = 2 * seq + 1;
        let mut seen = slot.stamp.load(Ordering::Relaxed);
        loop {
            if seen % 2 == 1 || seen > claim {
                return;
            }
            match slot
                .stamp
                .compare_exchange(seen, claim, Ordering::Acquire, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(now) => seen = now,
            }
        }
        fence(Ordering::Release);
        for (cell, w) in slot.words.iter().zip(words) {
            cell.store(w, Ordering::Relaxed);
        }
        slot.stamp.store(claim + 1, Ordering::Release);
    }

    /// Sequence numbers handed out so far: every record, including ones
    /// since overwritten or dropped.
    pub fn recorded(&self) -> u64 {
        self.next.load(Ordering::Relaxed)
    }

    /// Every complete record as `(seq, words)`, oldest first. Slots a
    /// writer owns or claims during the copy are skipped.
    pub fn snapshot(&self) -> Vec<(u64, [u64; W])> {
        let mut out = Vec::with_capacity(CAPACITY);
        for slot in self.slots.iter() {
            let before = slot.stamp.load(Ordering::Acquire);
            if before == 0 || before % 2 == 1 {
                continue;
            }
            let words = std::array::from_fn(|i| slot.words[i].load(Ordering::Relaxed));
            fence(Ordering::Acquire);
            if slot.stamp.load(Ordering::Relaxed) == before {
                out.push((before / 2 - 1, words));
            }
        }
        out.sort_unstable_by_key(|&(seq, _)| seq);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A record whose every word is a pure function of `key`, so a slot
    /// mixing two records fails [`whole`].
    fn record_of(key: u64) -> [u64; 7] {
        std::array::from_fn(|i| key.wrapping_mul(2 * i as u64 + 1))
    }

    fn whole(words: &[u64; 7]) -> bool {
        *words == record_of(words[0])
    }

    #[test]
    fn snapshot_of_an_empty_ring_is_empty() {
        let ring = Ring::<7>::new();
        assert!(ring.snapshot().is_empty());
        assert_eq!(ring.recorded(), 0);
    }

    /// Writers that finish before the reader starts: every slot holds a
    /// whole record, even though a lapped writer may have dropped its
    /// own.
    #[test]
    fn concurrent_writers_never_tear() {
        let ring = Ring::<7>::new();
        let (writers, per) = (4u64, 2_000u64);
        std::thread::scope(|s| {
            for w in 0..writers {
                let ring = &ring;
                s.spawn(move || {
                    for i in 0..per {
                        ring.record(record_of(((w + 1) << 32) + i));
                    }
                });
            }
        });
        assert_eq!(ring.recorded(), writers * per);
        let snap = ring.snapshot();
        assert_eq!(snap.len(), CAPACITY);
        for (seq, words) in &snap {
            assert!(whole(words), "torn record at seq {seq}: {words:?}");
        }
    }

    proptest! {
        /// One writer keeps exactly the newest `min(n, CAPACITY)` records,
        /// under their own sequence numbers.
        #[test]
        fn wraparound_keeps_the_newest(extra in 0usize..(2 * CAPACITY)) {
            let ring = Ring::<7>::new();
            let n = (CAPACITY / 2 + extra) as u64;
            for key in 0..n {
                ring.record(record_of(key));
            }
            let snap = ring.snapshot();
            let oldest = n.saturating_sub(CAPACITY as u64);
            prop_assert_eq!(snap.len() as u64, n - oldest);
            for (i, (seq, words)) in snap.iter().enumerate() {
                prop_assert_eq!(*seq, oldest + i as u64);
                prop_assert_eq!(*words, record_of(*seq));
            }
            prop_assert_eq!(ring.recorded(), n);
        }

        /// Writers with a reader racing them: every snapshot holds only
        /// whole records, and the settled ring is full once lapped.
        #[test]
        fn racing_reader_never_sees_a_torn_record(
            writers in 2usize..5,
            per_writer in 50usize..400,
        ) {
            let ring = Ring::<7>::new();
            let total = (writers * per_writer) as u64;
            let snaps = std::thread::scope(|s| {
                for w in 0..writers {
                    let ring = &ring;
                    let base = ((w as u64) + 1) << 32;
                    s.spawn(move || {
                        for k in 0..per_writer as u64 {
                            ring.record(record_of(base + k));
                        }
                    });
                }
                let mut snaps = 0usize;
                loop {
                    for (seq, words) in ring.snapshot() {
                        assert!(whole(&words), "torn record at seq {seq}: {words:?}");
                    }
                    snaps += 1;
                    if ring.recorded() >= total {
                        break snaps;
                    }
                }
            });
            prop_assert!(snaps > 0);
            prop_assert_eq!(ring.recorded(), total);
            let snap = ring.snapshot();
            prop_assert_eq!(snap.len(), (total as usize).min(CAPACITY));
            for (_, words) in &snap {
                prop_assert!(whole(words));
            }
        }
    }
}
