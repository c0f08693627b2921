//! Memoized DFS over all interleavings of the thread machines.
//!
//! A checker state is `(shared memory, thread states)`. From each state,
//! every runnable thread may take the next shared-memory access; the
//! explorer branches on all of them, deduplicating states it has already
//! expanded (two different schedule prefixes reaching the same state have
//! identical futures, so one expansion suffices — this is what keeps the
//! search tractable despite the factorial number of schedules).
//!
//! [`search`] is generic over the machines ([`Machine`]) and takes two
//! checks: safety properties run on **every** reached state, functional
//! properties on terminal states where all threads have finished.
//! [`explore`] instantiates it for the `π` machines: Invariant 1 and
//! acyclicity on every state, partition correctness and the merge-count
//! duality of Theorem 1 on terminal states. The record ring's machines
//! ([`crate::ring`]) instantiate it too.

use crate::machine::{Memory, Node, Thread};
use crate::oracle::sequential_components;
use crate::ring::RingMemory;
use std::collections::HashSet;
use std::hash::Hash;

/// One thread the explorer schedules: every [`Machine::step`] is exactly
/// one shared-memory access.
pub trait Machine: Clone + Eq + Hash {
    /// The shared memory the threads access.
    type Memory: Clone + Eq + Hash;

    /// Whether the thread still has steps to execute.
    fn is_runnable(&self) -> bool;

    /// Advances by one shared-memory access. Panics on finished threads.
    fn step(&mut self, mem: &mut Self::Memory);
}

/// A scenario to exhaustively check: `n` vertices (initially `π(v) = v`)
/// and one machine per logical thread.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Number of vertices.
    pub n: usize,
    /// Concurrent calls, one per thread.
    pub threads: Vec<Thread>,
}

impl Scenario {
    /// Scenario running `link` on each edge, one thread per edge.
    pub fn links(n: usize, edges: &[(Node, Node)]) -> Self {
        Self {
            n,
            threads: edges
                .iter()
                .map(|&(u, v)| Thread::Link(crate::machine::LinkMachine::new(u, v)))
                .collect(),
        }
    }

    /// Like [`Scenario::links`] but with the deliberately broken
    /// load+store hook on every edge.
    pub fn broken_links(n: usize, edges: &[(Node, Node)]) -> Self {
        Self {
            n,
            threads: edges
                .iter()
                .map(|&(u, v)| Thread::Link(crate::machine::LinkMachine::new_broken(u, v)))
                .collect(),
        }
    }
}

/// A property violation discovered during exploration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// `π(x) > x` observed in some reachable state.
    InvariantBroken {
        /// The offending vertex.
        vertex: Node,
        /// Its parent at the time.
        parent: Node,
        /// Full memory snapshot.
        memory: Memory,
    },
    /// A parent-pointer cycle (other than a root's self-loop) observed.
    Cycle {
        /// A vertex on the cycle.
        vertex: Node,
        /// Full memory snapshot.
        memory: Memory,
    },
    /// A terminal state whose partition differs from sequential union-find.
    WrongPartition {
        /// Terminal memory.
        memory: Memory,
        /// Component id per vertex reached by the model.
        got: Vec<Node>,
        /// Component id per vertex from the sequential oracle.
        expected: Vec<Node>,
    },
    /// A terminal state where the number of `link` calls that returned
    /// `true` differs from `|V| - C` (Theorem 1).
    MergeCountMismatch {
        /// Merges observed.
        got: usize,
        /// `|V| - C` from the oracle.
        expected: usize,
        /// Terminal memory.
        memory: Memory,
    },
    /// A ring reader accepted words that are not the whole payload of the
    /// writer holding the stamped sequence number.
    TornRead {
        /// The sequence number the stamp named.
        seq: u64,
        /// The words the reader accepted.
        words: [u64; crate::ring::WORDS],
        /// Ring memory when it was accepted.
        memory: RingMemory,
    },
    /// A written ring slot ended with an odd stamp, or with words that are
    /// not the whole payload of the stamp's writer.
    TornSlot {
        /// The slot.
        slot: usize,
        /// Terminal ring memory.
        memory: RingMemory,
    },
    /// A ring writer dropped its record before the cursor lapped the ring.
    EarlyDrop {
        /// The dropped record's sequence number.
        seq: u64,
        /// Ring memory at the drop.
        memory: RingMemory,
    },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::InvariantBroken {
                vertex,
                parent,
                memory,
            } => write!(
                f,
                "Invariant 1 broken: pi({vertex}) = {parent} > {vertex} in {memory:?}"
            ),
            Violation::Cycle { vertex, memory } => {
                write!(f, "cycle through vertex {vertex} in {memory:?}")
            }
            Violation::WrongPartition {
                memory,
                got,
                expected,
            } => write!(
                f,
                "terminal partition {got:?} != sequential {expected:?} (pi = {memory:?})"
            ),
            Violation::MergeCountMismatch {
                got,
                expected,
                memory,
            } => write!(
                f,
                "{got} links merged, expected |V|-C = {expected} (pi = {memory:?})"
            ),
            Violation::TornRead { seq, words, memory } => write!(
                f,
                "reader accepted {words:?} as record {seq}, not that writer's payload ({memory:?})"
            ),
            Violation::TornSlot { slot, memory } => {
                write!(f, "slot {slot} ends torn or unpublished ({memory:?})")
            }
            Violation::EarlyDrop { seq, memory } => write!(
                f,
                "record {seq} dropped before the ring was lapped ({memory:?})"
            ),
        }
    }
}

/// Result of exhausting a scenario's interleavings.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Distinct states expanded.
    pub states: usize,
    /// Distinct terminal states (all threads finished).
    pub terminal_states: usize,
    /// Violations found (capped at [`MAX_VIOLATIONS`]).
    pub violations: Vec<Violation>,
}

impl Outcome {
    /// Whether every property held on every interleaving.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Exploration stops collecting after this many violations (the state
/// space downstream of a bug usually contains thousands of equivalent
/// failures; a handful is enough to diagnose).
pub const MAX_VIOLATIONS: usize = 8;

#[derive(Clone, PartialEq, Eq, Hash)]
struct State<T: Machine> {
    mem: T::Memory,
    threads: Vec<T>,
}

/// Exhaustively explores every interleaving of `threads` from `mem`,
/// running `check` on every reached state and `check_terminal` on every
/// state where all threads have finished.
pub fn search<T: Machine>(
    mem: T::Memory,
    threads: Vec<T>,
    check: impl Fn(&T::Memory, &[T]) -> Option<Violation>,
    check_terminal: impl Fn(&T::Memory, &[T]) -> Option<Violation>,
) -> Outcome {
    let mut outcome = Outcome::default();
    let mut visited: HashSet<State<T>> = HashSet::new();
    let mut stack = vec![State { mem, threads }];

    while let Some(state) = stack.pop() {
        if !visited.insert(state.clone()) {
            continue;
        }
        outcome.states += 1;

        outcome.violations.extend(check(&state.mem, &state.threads));
        if outcome.violations.len() >= MAX_VIOLATIONS {
            break;
        }

        let mut terminal = true;
        for i in 0..state.threads.len() {
            if !state.threads[i].is_runnable() {
                continue;
            }
            terminal = false;
            let mut next = state.clone();
            next.threads[i].step(&mut next.mem);
            stack.push(next);
        }

        if terminal {
            outcome.terminal_states += 1;
            outcome
                .violations
                .extend(check_terminal(&state.mem, &state.threads));
            if outcome.violations.len() >= MAX_VIOLATIONS {
                break;
            }
        }
    }
    outcome
}

/// Exhaustively explores every interleaving of the scenario's threads.
pub fn explore(scenario: &Scenario) -> Outcome {
    let edges: Vec<(Node, Node)> = scenario
        .threads
        .iter()
        .filter_map(|t| match t {
            Thread::Link(m) => Some(m.edge()),
            _ => None,
        })
        .collect();
    let expected = sequential_components(scenario.n, &edges);
    let expected_merges = scenario.n - count_components(&expected);
    search(
        (0..scenario.n as Node).collect(),
        scenario.threads.clone(),
        |mem, _| check_safety(mem),
        |mem, threads| check_terminal(mem, threads, &expected, expected_merges),
    )
}

/// Checks Invariant 1 and acyclicity on one reachable state.
fn check_safety(mem: &Memory) -> Option<Violation> {
    for (x, &p) in mem.iter().enumerate() {
        if p > x as Node {
            return Some(Violation::InvariantBroken {
                vertex: x as Node,
                parent: p,
                memory: mem.clone(),
            });
        }
    }
    // With Invariant 1 intact, only self-loops can close cycles, but check
    // independently so broken variants that preserve the invariant still
    // get cycle coverage: walk each chain at most |V| steps.
    for start in 0..mem.len() {
        let mut x = start;
        for _ in 0..=mem.len() {
            let p = mem[x] as usize;
            if p == x {
                break;
            }
            x = p;
        }
        if mem[x] as usize != x {
            return Some(Violation::Cycle {
                vertex: start as Node,
                memory: mem.clone(),
            });
        }
    }
    None
}

/// Checks partition correctness and the merge-count duality on a terminal
/// state.
fn check_terminal(
    mem: &Memory,
    threads: &[Thread],
    expected: &[Node],
    expected_merges: usize,
) -> Option<Violation> {
    let got: Vec<Node> = (0..mem.len()).map(|v| chase_root(mem, v as Node)).collect();
    if !same_partition(&got, expected) {
        return Some(Violation::WrongPartition {
            memory: mem.clone(),
            got,
            expected: expected.to_vec(),
        });
    }
    let merges = threads
        .iter()
        .filter(|t| matches!(t, Thread::Done { merged: true }))
        .count();
    (merges != expected_merges).then(|| Violation::MergeCountMismatch {
        got: merges,
        expected: expected_merges,
        memory: mem.clone(),
    })
}

fn chase_root(mem: &Memory, v: Node) -> Node {
    let mut x = v;
    loop {
        let p = mem[x as usize];
        if p == x {
            return x;
        }
        x = p;
    }
}

fn count_components(roots: &[Node]) -> usize {
    let mut seen = vec![false; roots.len()];
    let mut c = 0;
    for &r in roots {
        if !seen[r as usize] {
            seen[r as usize] = true;
            c += 1;
        }
    }
    c
}

/// Whether two root labelings induce the same partition.
fn same_partition(a: &[Node], b: &[Node]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len();
    let mut a_to_b = vec![Node::MAX; n];
    let mut b_to_a = vec![Node::MAX; n];
    for i in 0..n {
        let (ra, rb) = (a[i] as usize, b[i]);
        if a_to_b[ra] == Node::MAX {
            a_to_b[ra] = rb;
        } else if a_to_b[ra] != rb {
            return false;
        }
        let rb = rb as usize;
        if b_to_a[rb] == Node::MAX {
            b_to_a[rb] = a[i];
        } else if b_to_a[rb] != a[i] {
            return false;
        }
    }
    true
}
