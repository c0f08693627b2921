//! Machines for the record ring's `record` and `snapshot`.
//!
//! The ring (`afforest_obs::ring`) keeps each record in slot
//! `seq % capacity` under a stamp: 0 never written, `2*seq + 1` owned by
//! the writer of `seq`, `2*seq + 2` complete. As with the `π` machines,
//! every shared access (cursor, stamp or payload word) is one step, and
//! local computation rides along with the step before it. The mirrored
//! code, next to the broken variant's writer, which claims nothing (the
//! `model_matches_real_ring` test in `lib.rs` replays sequential
//! schedules through the real ring):
//!
//! ```text
//! record(payload):                     broken record(payload):
//!   seq = fetch_add(cursor, 1)           seq = fetch_add(cursor, 1)
//!   s = seq % capacity                   s = seq % capacity
//!   seen = load(stamp[s])                store(stamp[s], 2*seq + 1)
//!   loop:                                for i: store(word[s][i], payload[i])
//!     if seen odd or seen > 2*seq + 1:   store(stamp[s], 2*seq + 2)
//!       ret (dropped)
//!     if cas(stamp[s], seen, 2*seq + 1): break
//!     seen = (the value the cas found)
//!   for i: store(word[s][i], payload[i])
//!   store(stamp[s], 2*seq + 2)
//!
//! snapshot():
//!   for s in 0..capacity:
//!     before = load(stamp[s]); if before == 0 or odd: continue
//!     for i: copy[i] = load(word[s][i])
//!     if load(stamp[s]) == before: keep (before/2 - 1, copy)
//! ```
//!
//! The checker serializes accesses, so it checks the claim rule under
//! every interleaving; it cannot see the fences, whose argument is
//! DESIGN.md §8's.

use crate::explore::{search, Machine, Outcome, Violation};

/// Payload words per record in the model.
pub const WORDS: usize = 2;

/// One record: its sequence number and payload words.
pub type Record = (u64, [u64; WORDS]);

/// The ring's shared memory: the cursor and every slot's stamp and words.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct RingMemory {
    /// Next sequence number to hand out.
    pub cursor: u64,
    /// Per-slot stamps.
    pub stamps: Vec<u64>,
    /// Per-slot payload words.
    pub words: Vec<[u64; WORDS]>,
}

impl RingMemory {
    /// An empty ring of `capacity` slots.
    pub fn new(capacity: usize) -> Self {
        Self {
            cursor: 0,
            stamps: vec![0; capacity],
            words: vec![[0; WORDS]; capacity],
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum WriterPc {
    /// `seq = fetch_add(cursor, 1)`
    FetchAdd,
    /// `seen = load(stamp)`
    LoadStamp,
    /// `cas(stamp, seen, 2*seq + 1)`, or the broken variant's plain
    /// odd-stamp store.
    Claim,
    /// `store(word[i], payload[i])`
    Store(usize),
    /// `store(stamp, 2*seq + 2)`
    Publish,
    /// Published its record.
    Done,
    /// Dropped its record: another lap's writer holds or passed the slot.
    Dropped,
}

/// One `record(payload)` call.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct WriterMachine {
    payload: [u64; WORDS],
    seq: u64,
    seen: u64,
    pc: WriterPc,
    /// When `true`, the writer stamps the slot with a plain store instead
    /// of claiming it by CAS, which lets two laps fill one slot.
    broken: bool,
}

impl WriterMachine {
    /// Prepares `record(payload)` (the claiming version).
    pub fn new(payload: [u64; WORDS]) -> Self {
        Self {
            payload,
            seq: 0,
            seen: 0,
            pc: WriterPc::FetchAdd,
            broken: false,
        }
    }

    /// Prepares the deliberately broken `record(payload)` that claims
    /// nothing: `fetch_add`, then plain stores of the odd stamp, the words
    /// and the even stamp.
    pub fn new_broken(payload: [u64; WORDS]) -> Self {
        Self {
            broken: true,
            ..Self::new(payload)
        }
    }

    /// The sequence number this writer took, once it has taken one.
    fn taken(&self) -> Option<u64> {
        (self.pc != WriterPc::FetchAdd).then_some(self.seq)
    }

    fn claim(&self) -> u64 {
        2 * self.seq + 1
    }

    /// Where the loop goes after reading `seen`: drop the record, or try
    /// to claim the slot.
    fn after_seen(&self) -> WriterPc {
        if self.seen % 2 == 1 || self.seen > self.claim() {
            WriterPc::Dropped
        } else {
            WriterPc::Claim
        }
    }

    fn step(&mut self, mem: &mut RingMemory) {
        let slot = (self.seq % mem.stamps.len() as u64) as usize;
        self.pc = match self.pc {
            WriterPc::FetchAdd => {
                self.seq = mem.cursor;
                mem.cursor += 1;
                if self.broken {
                    WriterPc::Claim
                } else {
                    WriterPc::LoadStamp
                }
            }
            WriterPc::LoadStamp => {
                self.seen = mem.stamps[slot];
                self.after_seen()
            }
            WriterPc::Claim => {
                if self.broken || mem.stamps[slot] == self.seen {
                    mem.stamps[slot] = self.claim();
                    WriterPc::Store(0)
                } else {
                    self.seen = mem.stamps[slot];
                    self.after_seen()
                }
            }
            WriterPc::Store(i) => {
                mem.words[slot][i] = self.payload[i];
                if i + 1 < WORDS {
                    WriterPc::Store(i + 1)
                } else {
                    WriterPc::Publish
                }
            }
            WriterPc::Publish => {
                mem.stamps[slot] = self.claim() + 1;
                WriterPc::Done
            }
            WriterPc::Done | WriterPc::Dropped => panic!("stepping a finished writer"),
        };
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum ReaderPc {
    /// `before = load(stamp[s])`
    Before(usize),
    /// `copy[i] = load(word[s][i])`
    Word(usize, usize),
    /// `load(stamp[s]) == before`
    After(usize),
    /// Copied every slot.
    Done,
}

/// One `snapshot()` call.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct ReaderMachine {
    before: u64,
    copy: [u64; WORDS],
    kept: Vec<Record>,
    pc: ReaderPc,
}

impl Default for ReaderMachine {
    fn default() -> Self {
        Self::new()
    }
}

impl ReaderMachine {
    /// Prepares `snapshot()`.
    pub fn new() -> Self {
        Self {
            before: 0,
            copy: [0; WORDS],
            kept: Vec::new(),
            pc: ReaderPc::Before(0),
        }
    }

    /// The records kept so far, oldest first (the real `snapshot`'s
    /// answer once the machine has finished).
    pub fn snapshot(&self) -> Vec<Record> {
        let mut kept = self.kept.clone();
        kept.sort_unstable_by_key(|&(seq, _)| seq);
        kept
    }

    fn next_slot(s: usize, mem: &RingMemory) -> ReaderPc {
        if s + 1 < mem.stamps.len() {
            ReaderPc::Before(s + 1)
        } else {
            ReaderPc::Done
        }
    }

    fn step(&mut self, mem: &RingMemory) {
        self.pc = match self.pc {
            ReaderPc::Before(s) => {
                self.before = mem.stamps[s];
                if self.before == 0 || self.before % 2 == 1 {
                    Self::next_slot(s, mem)
                } else {
                    ReaderPc::Word(s, 0)
                }
            }
            ReaderPc::Word(s, i) => {
                self.copy[i] = mem.words[s][i];
                if i + 1 < WORDS {
                    ReaderPc::Word(s, i + 1)
                } else {
                    ReaderPc::After(s)
                }
            }
            ReaderPc::After(s) => {
                if mem.stamps[s] == self.before {
                    self.kept.push((self.before / 2 - 1, self.copy));
                }
                Self::next_slot(s, mem)
            }
            ReaderPc::Done => panic!("stepping a finished reader"),
        };
    }
}

/// Any ring thread the checker can schedule.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum RingThread {
    /// A `record` call.
    Writer(WriterMachine),
    /// A `snapshot` call.
    Reader(ReaderMachine),
}

impl Machine for RingThread {
    type Memory = RingMemory;

    fn is_runnable(&self) -> bool {
        match self {
            RingThread::Writer(w) => !matches!(w.pc, WriterPc::Done | WriterPc::Dropped),
            RingThread::Reader(r) => r.pc != ReaderPc::Done,
        }
    }

    fn step(&mut self, mem: &mut RingMemory) {
        match self {
            RingThread::Writer(w) => w.step(mem),
            RingThread::Reader(r) => r.step(mem),
        }
    }
}

/// A ring scenario: `capacity` slots, writer `k` recording the payload
/// `[2k + 1, 2k + 2]`, and one reader.
#[derive(Clone, Debug)]
pub struct RingScenario {
    /// Slots in the ring.
    pub capacity: usize,
    /// Writers first, then the reader.
    pub threads: Vec<RingThread>,
}

impl RingScenario {
    /// `writers` claiming writers and one reader over `capacity` slots.
    pub fn new(capacity: usize, writers: u64) -> Self {
        Self::with(capacity, writers, WriterMachine::new)
    }

    /// Like [`RingScenario::new`] with [`WriterMachine::new_broken`]
    /// writers.
    pub fn broken(capacity: usize, writers: u64) -> Self {
        Self::with(capacity, writers, WriterMachine::new_broken)
    }

    fn with(capacity: usize, writers: u64, writer: fn([u64; WORDS]) -> WriterMachine) -> Self {
        let mut threads: Vec<RingThread> = (0..writers)
            .map(|k| RingThread::Writer(writer([2 * k + 1, 2 * k + 2])))
            .collect();
        threads.push(RingThread::Reader(ReaderMachine::new()));
        Self { capacity, threads }
    }
}

/// Exhaustively explores every interleaving of a ring scenario. On every
/// state, each record the reader kept is the whole payload of the writer
/// that took its `seq`, and no writer has dropped a record before the
/// cursor lapped the ring. On every terminal state, each written slot
/// holds the whole payload of its stamp's writer under an even stamp.
pub fn explore_ring(scenario: &RingScenario) -> Outcome {
    search(
        RingMemory::new(scenario.capacity),
        scenario.threads.clone(),
        check_state,
        check_terminal,
    )
}

/// The payload of the writer that took `seq`, if one has.
fn payload_of(threads: &[RingThread], seq: u64) -> Option<[u64; WORDS]> {
    threads.iter().find_map(|t| match t {
        RingThread::Writer(w) if w.taken() == Some(seq) => Some(w.payload),
        _ => None,
    })
}

/// The per-state check of [`explore_ring`]: every kept record is its
/// writer's whole payload, and no record was dropped before a lap.
pub fn check_state(mem: &RingMemory, threads: &[RingThread]) -> Option<Violation> {
    for t in threads {
        match t {
            RingThread::Reader(r) => {
                for &(seq, words) in &r.kept {
                    if payload_of(threads, seq) != Some(words) {
                        return Some(Violation::TornRead {
                            seq,
                            words,
                            memory: mem.clone(),
                        });
                    }
                }
            }
            RingThread::Writer(w) => {
                if w.pc == WriterPc::Dropped && mem.cursor <= mem.stamps.len() as u64 {
                    return Some(Violation::EarlyDrop {
                        seq: w.seq,
                        memory: mem.clone(),
                    });
                }
            }
        }
    }
    None
}

/// The terminal check of [`explore_ring`]: every written slot holds its
/// stamp's writer's whole payload under an even stamp.
pub fn check_terminal(mem: &RingMemory, threads: &[RingThread]) -> Option<Violation> {
    let torn = mem
        .stamps
        .iter()
        .zip(&mem.words)
        .position(|(&stamp, &words)| {
            stamp != 0 && (stamp % 2 == 1 || payload_of(threads, stamp / 2 - 1) != Some(words))
        });
    torn.map(|slot| Violation::TornSlot {
        slot,
        memory: mem.clone(),
    })
}
