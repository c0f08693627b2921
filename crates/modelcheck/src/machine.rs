//! Thread state machines mirroring the lock-free primitives.
//!
//! Each machine reifies one call from `afforest-core` as an explicit
//! interpreter state: **every shared access to `π` (`get` / `set` /
//! `compare_and_swap`) is exactly one [`Machine::step`]**, and all local
//! computation between two shared accesses happens "for free" inside the
//! step that precedes it. This is the standard reduction for model checking
//! lock-free code: only the order of shared-memory accesses matters, so
//! exploring all interleavings of these steps covers every behaviour the
//! real code can exhibit under any thread schedule (for `Relaxed`-but-
//! coherent atomics, i.e. all threads observe a single modification order
//! per memory cell — which `AtomicU32` guarantees).
//!
//! The code mirrored here (kept in lock-step with `afforest-core`; the
//! `model_matches_real_implementation` test in `lib.rs` guards the
//! correspondence):
//!
//! ```text
//! link(u, v):                      compress(v):
//!   p1 = get(u)                      while get(get(v)) != get(v):
//!   p2 = get(v)                          set(v, get(get(v)))
//!   while p1 != p2:
//!     high, low = max/min(p1, p2)    find_root(v):
//!     p_high = get(high)               x = v
//!     if p_high == low: ret false      loop:
//!     if p_high == high                  p = get(x)
//!        && cas(high, high, low):        if p == x: ret x
//!       ret true                         x = p
//!     p1 = get(get(high))
//!     p2 = get(low)
//!   ret false
//! ```

use crate::explore::Machine;

/// Vertex/parent value inside the model (mirrors `afforest_graph::Node`).
pub type Node = u32;

/// The shared parent array `π`, as plain model memory. The checker owns the
/// only copy and serializes every access, so no atomics are needed here.
pub type Memory = Vec<Node>;

/// Result of advancing a machine by one shared-memory access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepOutcome {
    /// The machine performed an access and has more steps to run.
    Running,
    /// The machine finished; `merged` is `link`'s return value (always
    /// `false` for non-link machines).
    Finished {
        /// Whether this call performed the tree-merging CAS.
        merged: bool,
    },
}

/// Program counter of a (possibly broken) `link` machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum LinkPc {
    /// `p1 = get(u)`
    ReadU,
    /// `p2 = get(v)`
    ReadV,
    /// `p_high = get(high)`
    ReadHigh,
    /// `compare_and_swap(high, high, low)` — or, for the broken variant,
    /// an unconditional `set(high, low)`.
    Hook,
    /// `tmp = get(high)` (first load of the double dereference)
    Walk1,
    /// `p1 = get(tmp)`
    Walk2,
    /// `p2 = get(low)`
    Walk3,
}

/// One `link(u, v)` call as an interpretable state machine.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct LinkMachine {
    u: Node,
    v: Node,
    p1: Node,
    p2: Node,
    high: Node,
    low: Node,
    tmp: Node,
    pc: LinkPc,
    /// When `true`, the `Hook` step performs a plain load+store instead of
    /// a compare-and-swap — the lost-merge bug the checker must catch.
    broken: bool,
}

impl LinkMachine {
    /// Prepares `link(u, v)` (the faithful CAS version).
    pub fn new(u: Node, v: Node) -> Self {
        Self {
            u,
            v,
            p1: 0,
            p2: 0,
            high: 0,
            low: 0,
            tmp: 0,
            pc: LinkPc::ReadU,
            broken: false,
        }
    }

    /// Prepares the deliberately broken variant whose hook is a separate
    /// load (at `ReadHigh`) and store (at `Hook`) instead of a CAS.
    pub fn new_broken(u: Node, v: Node) -> Self {
        Self {
            broken: true,
            ..Self::new(u, v)
        }
    }

    /// The edge this call processes.
    pub fn edge(&self) -> (Node, Node) {
        (self.u, self.v)
    }

    /// Loop head: decides convergence or computes `high`/`low` for the next
    /// iteration. Runs "for free" after the step that produced `p1`/`p2`.
    fn loop_head(&mut self) -> StepOutcome {
        if self.p1 == self.p2 {
            return StepOutcome::Finished { merged: false };
        }
        self.high = self.p1.max(self.p2);
        self.low = self.p1.min(self.p2);
        self.pc = LinkPc::ReadHigh;
        StepOutcome::Running
    }

    /// Executes one shared-memory access.
    pub fn step(&mut self, mem: &mut Memory) -> StepOutcome {
        match self.pc {
            LinkPc::ReadU => {
                self.p1 = mem[self.u as usize];
                self.pc = LinkPc::ReadV;
                StepOutcome::Running
            }
            LinkPc::ReadV => {
                self.p2 = mem[self.v as usize];
                self.loop_head()
            }
            LinkPc::ReadHigh => {
                let p_high = mem[self.high as usize];
                if p_high == self.low {
                    return StepOutcome::Finished { merged: false };
                }
                if p_high == self.high {
                    self.pc = LinkPc::Hook;
                } else {
                    self.pc = LinkPc::Walk1;
                }
                StepOutcome::Running
            }
            LinkPc::Hook => {
                if self.broken {
                    // Bug under test: the root check happened at ReadHigh,
                    // the store happens now — racing writes are lost.
                    mem[self.high as usize] = self.low;
                    return StepOutcome::Finished { merged: true };
                }
                // Faithful CAS: check and write in one atomic step.
                if mem[self.high as usize] == self.high {
                    mem[self.high as usize] = self.low;
                    return StepOutcome::Finished { merged: true };
                }
                self.pc = LinkPc::Walk1;
                StepOutcome::Running
            }
            LinkPc::Walk1 => {
                self.tmp = mem[self.high as usize];
                self.pc = LinkPc::Walk2;
                StepOutcome::Running
            }
            LinkPc::Walk2 => {
                self.p1 = mem[self.tmp as usize];
                self.pc = LinkPc::Walk3;
                StepOutcome::Running
            }
            LinkPc::Walk3 => {
                self.p2 = mem[self.low as usize];
                self.loop_head()
            }
        }
    }
}

/// Program counter of a `compress` machine; one variant per shared access
/// in `while get(get(v)) != get(v) { set(v, get(get(v))) }`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum CompressPc {
    /// `a = get(v)` (condition, inner load)
    CondInner,
    /// `b = get(a)` (condition, outer load)
    CondOuter,
    /// `c = get(v)` (condition, right-hand side)
    CondRhs,
    /// `d = get(v)` (body, inner load)
    BodyInner,
    /// `e = get(d)` (body, outer load)
    BodyOuter,
    /// `set(v, e)`
    BodyStore,
}

/// One `compress(v)` call as an interpretable state machine.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CompressMachine {
    v: Node,
    a: Node,
    b: Node,
    d: Node,
    e: Node,
    pc: CompressPc,
}

impl CompressMachine {
    /// Prepares `compress(v)`.
    pub fn new(v: Node) -> Self {
        Self {
            v,
            a: 0,
            b: 0,
            d: 0,
            e: 0,
            pc: CompressPc::CondInner,
        }
    }

    /// Executes one shared-memory access.
    pub fn step(&mut self, mem: &mut Memory) -> StepOutcome {
        match self.pc {
            CompressPc::CondInner => {
                self.a = mem[self.v as usize];
                self.pc = CompressPc::CondOuter;
                StepOutcome::Running
            }
            CompressPc::CondOuter => {
                self.b = mem[self.a as usize];
                self.pc = CompressPc::CondRhs;
                StepOutcome::Running
            }
            CompressPc::CondRhs => {
                let c = mem[self.v as usize];
                if self.b == c {
                    return StepOutcome::Finished { merged: false };
                }
                self.pc = CompressPc::BodyInner;
                StepOutcome::Running
            }
            CompressPc::BodyInner => {
                self.d = mem[self.v as usize];
                self.pc = CompressPc::BodyOuter;
                StepOutcome::Running
            }
            CompressPc::BodyOuter => {
                self.e = mem[self.d as usize];
                self.pc = CompressPc::BodyStore;
                StepOutcome::Running
            }
            CompressPc::BodyStore => {
                mem[self.v as usize] = self.e;
                self.pc = CompressPc::CondInner;
                StepOutcome::Running
            }
        }
    }
}

/// One `find_root(v)` call as an interpretable state machine: a pure
/// reader, included to verify root walks terminate and never observe a
/// cycle while `link`s run concurrently.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct FindRootMachine {
    x: Node,
}

impl FindRootMachine {
    /// Prepares `find_root(v)`.
    pub fn new(v: Node) -> Self {
        Self { x: v }
    }

    /// Executes one shared-memory access (`p = get(x)`).
    pub fn step(&mut self, mem: &mut Memory) -> StepOutcome {
        let p = mem[self.x as usize];
        if p == self.x {
            return StepOutcome::Finished { merged: false };
        }
        self.x = p;
        StepOutcome::Running
    }
}

/// Any thread the checker can schedule.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Thread {
    /// A `link(u, v)` call (faithful or broken).
    Link(LinkMachine),
    /// A `compress(v)` call.
    Compress(CompressMachine),
    /// A `find_root(v)` call.
    FindRoot(FindRootMachine),
    /// A finished thread (kept so indices stay stable); records whether a
    /// finished link merged.
    Done {
        /// `link`'s return value (`false` for other machines).
        merged: bool,
    },
}

impl Machine for Thread {
    type Memory = Memory;

    fn is_runnable(&self) -> bool {
        !matches!(self, Thread::Done { .. })
    }

    fn step(&mut self, mem: &mut Memory) {
        let outcome = match self {
            Thread::Link(m) => m.step(mem),
            Thread::Compress(m) => m.step(mem),
            Thread::FindRoot(m) => m.step(mem),
            Thread::Done { .. } => panic!("stepping a finished thread"),
        };
        if let StepOutcome::Finished { merged } = outcome {
            *self = Thread::Done { merged };
        }
    }
}
