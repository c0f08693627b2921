//! Schedule-exploring model checker for the workspace's lock-free
//! primitives.
//!
//! `link` and `compress` (crates/core/src/{link,compress}.rs) are correct
//! only by a memory-ordering argument: `link` hooks the higher-index root
//! under the lower via a single `compare_and_swap`, and `compress` relies
//! on each vertex's slot having a single writer. Unit tests cannot probe
//! that argument — they see whatever interleavings the OS scheduler
//! happens to produce. This crate instead *enumerates* the interleavings:
//!
//! 1. [`machine`] reifies each call as a state machine whose steps are
//!    exactly the shared accesses to the parent array `π`;
//! 2. [`explore`] runs a memoized DFS over every schedule of 2–3 such
//!    threads on 3–6-vertex graphs, checking on **every** reachable state
//!    that Invariant 1 (`π(x) ≤ x`) holds and `π` is acyclic, and on every
//!    terminal state that the resulting partition equals sequential
//!    union-find (no lost merges) and that exactly `|V| − C` `link` calls
//!    returned `true` (the spanning-forest duality, Theorem 1 of the
//!    paper).
//!
//! The reduction is sound for the code under test because all of its
//! shared state lives in one `AtomicU32` array accessed with `Relaxed`
//! loads/stores/CAS: coherence gives a single modification order per cell,
//! and no property checked here depends on cross-cell ordering — so
//! serializing the accesses in every possible order covers every real
//! execution.
//!
//! The same DFS checks the observability crate's record ring
//! (`afforest_obs::ring`, [`ring`]): two or three writers and a reader
//! over one or two slots, where every record the reader keeps must be one
//! writer's whole payload under that writer's `seq`. The ring's argument
//! also rests on its fences, which a serializing checker cannot see;
//! DESIGN.md §8 carries that half.
//!
//! The checker deliberately shares no code with the implementations it
//! checks; the [`machine`] and [`ring`] docs carry the mirrored
//! pseudocode, and the `model_matches_real_implementation` and
//! `model_matches_real_ring` tests below replay sequential schedules
//! through the real code to guard the correspondence.
//!
//! Run the standard battery with `cargo run -p afforest-modelcheck`
//! (wired into `cargo xtask ci` / `ci.sh`).

#![forbid(unsafe_code)]

pub mod explore;
pub mod machine;
pub mod oracle;
pub mod ring;

pub use explore::{explore, search, Machine, Outcome, Scenario, Violation, MAX_VIOLATIONS};
pub use machine::{
    CompressMachine, FindRootMachine, LinkMachine, Memory, Node, StepOutcome, Thread,
};
pub use ring::{explore_ring, ReaderMachine, RingMemory, RingScenario, RingThread, WriterMachine};

/// What a battery entry explores.
pub enum Check {
    /// `link`/`compress`/`find_root` machines over `π`.
    Pi(Scenario),
    /// Record-ring `record`/`snapshot` machines.
    Ring(RingScenario),
}

impl Check {
    /// Exhausts the scenario's interleavings.
    pub fn run(&self) -> Outcome {
        match self {
            Check::Pi(s) => explore(s),
            Check::Ring(s) => explore_ring(s),
        }
    }
}

/// A named scenario in the standard battery.
pub struct BatteryEntry {
    /// Human-readable scenario name (shown by the CLI).
    pub name: &'static str,
    /// The scenario itself.
    pub check: Check,
}

/// The standard verification battery: every shape the paper's proof
/// sketch leans on, sized so exhaustive exploration stays well under a
/// second.
///
/// Covers racing links on shared endpoints (triangle, star, path),
/// disjoint links (independence), duplicate edges (idempotence),
/// link+compress races, link+find_root races, 3-thread mixes, and ring
/// writers lapping each other under a racing reader.
pub fn standard_battery() -> Vec<BatteryEntry> {
    let entry = |name, scenario| BatteryEntry {
        name,
        check: Check::Pi(scenario),
    };
    let ring = |name, capacity, writers| BatteryEntry {
        name,
        check: Check::Ring(RingScenario::new(capacity, writers)),
    };
    vec![
        entry("2 links / triangle", Scenario::links(3, &[(0, 1), (1, 2)])),
        entry(
            "3 links / triangle (closing edge)",
            Scenario::links(3, &[(0, 1), (1, 2), (2, 0)]),
        ),
        entry(
            "2 links / 4-path, disjoint",
            Scenario::links(4, &[(0, 1), (2, 3)]),
        ),
        entry(
            "2 links / 4-path, shared vertex",
            Scenario::links(4, &[(0, 1), (1, 2)]),
        ),
        entry(
            "3 links / 4-path",
            Scenario::links(4, &[(0, 1), (1, 2), (2, 3)]),
        ),
        entry(
            "2 links into one hub / star",
            Scenario::links(4, &[(0, 3), (1, 3)]),
        ),
        entry(
            "3 links into one hub / star-5",
            Scenario::links(5, &[(0, 4), (1, 4), (2, 4)]),
        ),
        entry("same edge twice", Scenario::links(3, &[(1, 2), (1, 2)])),
        entry(
            "link vs compress",
            Scenario {
                n: 4,
                threads: vec![
                    Thread::Link(LinkMachine::new(2, 3)),
                    Thread::Compress(CompressMachine::new(3)),
                ],
            },
        ),
        entry(
            "2 links vs compress / path",
            Scenario {
                n: 5,
                threads: vec![
                    Thread::Link(LinkMachine::new(0, 1)),
                    Thread::Link(LinkMachine::new(1, 2)),
                    Thread::Compress(CompressMachine::new(2)),
                ],
            },
        ),
        entry(
            "2 links vs find_root",
            Scenario {
                n: 4,
                threads: vec![
                    Thread::Link(LinkMachine::new(1, 2)),
                    Thread::Link(LinkMachine::new(2, 3)),
                    Thread::FindRoot(FindRootMachine::new(3)),
                ],
            },
        ),
        entry(
            "2 links / 6 vertices, two components",
            Scenario::links(6, &[(0, 2), (3, 5)]),
        ),
        entry(
            "3 links / 6 vertices, chain merge",
            Scenario::links(6, &[(0, 1), (2, 3), (1, 3)]),
        ),
        ring("ring: 2 writers + reader / 1 slot", 1, 2),
        ring("ring: 3 writers + reader / 1 slot", 1, 3),
        ring("ring: 3 writers + reader / 2 slots", 2, 3),
    ]
}

/// Runs the standard battery, returning per-scenario outcomes.
pub fn run_standard_battery() -> Vec<(&'static str, Outcome)> {
    standard_battery()
        .into_iter()
        .map(|e| (e.name, e.check.run()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Acceptance criterion: exhaustive exploration of ≥2 concurrent links
    /// on a triangle passes every property.
    #[test]
    fn triangle_two_links_exhaustive() {
        let out = explore(&Scenario::links(3, &[(0, 1), (1, 2)]));
        assert!(out.passed(), "violations: {:?}", out.violations);
        // Exhaustiveness sanity: interleaving two multi-step machines must
        // reach strictly more states than either sequential order alone.
        assert!(out.states > 12, "only {} states explored", out.states);
        assert!(out.terminal_states >= 1);
    }

    /// Acceptance criterion: exhaustive exploration on a 4-path.
    #[test]
    fn four_path_links_exhaustive() {
        for edges in [
            vec![(0, 1), (2, 3)],
            vec![(0, 1), (1, 2)],
            vec![(0, 1), (1, 2), (2, 3)],
        ] {
            let out = explore(&Scenario::links(4, &edges));
            assert!(out.passed(), "{edges:?}: {:?}", out.violations);
        }
    }

    /// Acceptance criterion: the load+store variant of `link` loses merges,
    /// and the checker catches it. With both threads linking distinct
    /// neighbours under the same high vertex, both can observe
    /// `π(high) == high` before either stores — one hook is then lost and
    /// the terminal partition splits a component.
    #[test]
    fn broken_link_is_caught() {
        let out = explore(&Scenario::broken_links(3, &[(2, 1), (2, 0)]));
        assert!(
            out.violations
                .iter()
                .any(|v| matches!(v, Violation::WrongPartition { .. })),
            "expected a WrongPartition violation, got {:?}",
            out.violations
        );
    }

    /// Same bug shape on a star: the hub's slot is stored twice, the first
    /// hook vanishes. A second regression angle so a future "fix" that
    /// only handles triangles cannot pass.
    #[test]
    fn broken_link_star_is_caught() {
        let out = explore(&Scenario::broken_links(4, &[(1, 3), (2, 3)]));
        assert!(!out.passed(), "broken star scenario slipped through");
    }

    /// The faithful battery passes wholesale.
    #[test]
    fn standard_battery_passes() {
        for (name, out) in run_standard_battery() {
            assert!(out.passed(), "{name}: {:?}", out.violations);
            assert!(out.states > 0 && out.terminal_states > 0, "{name}: empty");
        }
    }

    /// Theorem 1 duality observed concretely: on a connected triangle with
    /// three links, every terminal state must have exactly |V|−C = 2
    /// merging links — the checker flags any schedule where the
    /// cycle-closing edge also merged.
    #[test]
    fn merge_count_matches_duality() {
        let out = explore(&Scenario::links(3, &[(0, 1), (1, 2), (2, 0)]));
        assert!(out.passed(), "violations: {:?}", out.violations);
    }

    /// find_root never observes a cycle or diverges while links run.
    #[test]
    fn find_root_during_links_terminates() {
        let scenario = Scenario {
            n: 4,
            threads: vec![
                Thread::Link(LinkMachine::new(0, 2)),
                Thread::Link(LinkMachine::new(1, 3)),
                Thread::FindRoot(FindRootMachine::new(3)),
            ],
        };
        let out = explore(&scenario);
        assert!(out.passed(), "violations: {:?}", out.violations);
    }

    /// Guard on the model/implementation correspondence promised in the
    /// `machine` module docs: replaying each single-thread machine to
    /// completion (the sequential schedule) must produce exactly the same
    /// memory and return value as the real `afforest-core` primitives,
    /// for every edge over every Invariant-1-respecting parent array of a
    /// 4-vertex universe (1·2·3·4 = 24 start states).
    #[test]
    fn model_matches_real_implementation() {
        use afforest_core::{compress, link, ParentArray};

        fn pi_from(start: &[Node]) -> ParentArray {
            let pi = ParentArray::new(start.len());
            for (v, &p) in start.iter().enumerate() {
                pi.set(v as Node, p);
            }
            pi
        }

        let n = 4usize;
        let mut starts = Vec::new();
        for p1 in 0..2u32 {
            for p2 in 0..3u32 {
                for p3 in 0..4u32 {
                    starts.push(vec![0, p1, p2, p3]);
                }
            }
        }
        assert_eq!(starts.len(), 24);
        for start in &starts {
            for u in 0..n as Node {
                for v in 0..n as Node {
                    let mut mem = start.clone();
                    let mut m = LinkMachine::new(u, v);
                    let merged = loop {
                        if let StepOutcome::Finished { merged } = m.step(&mut mem) {
                            break merged;
                        }
                    };
                    let pi = pi_from(start);
                    let real_merged = link(u, v, &pi);
                    assert_eq!(merged, real_merged, "link({u},{v}) from {start:?}");
                    assert_eq!(mem, pi.snapshot(), "link({u},{v}) from {start:?}");
                }
                let mut mem = start.clone();
                let mut m = CompressMachine::new(u);
                while m.step(&mut mem) == StepOutcome::Running {}
                let pi = pi_from(start);
                compress(u, &pi);
                assert_eq!(mem, pi.snapshot(), "compress({u}) from {start:?}");

                let mut mem = start.clone();
                let mut m = FindRootMachine::new(u);
                while m.step(&mut mem) == StepOutcome::Running {}
                let pi = pi_from(start);
                let real_root = pi.find_root(u);
                let mut model_root = u;
                while mem[model_root as usize] != model_root {
                    model_root = mem[model_root as usize];
                }
                assert_eq!(model_root, real_root, "find_root({u}) from {start:?}");
            }
        }
    }

    /// A ring writer that claims nothing (`fetch_add`, then plain stores
    /// of the odd stamp, the words and the even stamp) lets two laps fill
    /// one slot at once, and whichever even stamp lands last makes the
    /// mixed slot look complete. The checker must report the torn record,
    /// both as a reader surfacing it and as a slot left holding it.
    #[test]
    fn broken_ring_is_caught() {
        let broken = RingScenario::broken(1, 2);
        let reads = search(
            RingMemory::new(1),
            broken.threads.clone(),
            ring::check_state,
            |_, _| None,
        );
        assert!(
            reads
                .violations
                .iter()
                .any(|v| matches!(v, Violation::TornRead { .. })),
            "expected a TornRead violation, got {:?}",
            reads.violations
        );
        let slots = explore_ring(&broken);
        assert!(
            slots
                .violations
                .iter()
                .any(|v| matches!(v, Violation::TornSlot { .. })),
            "expected a TornSlot violation, got {:?}",
            slots.violations
        );
    }

    /// Guard on the ring model's correspondence with `afforest_obs::ring`:
    /// replaying writers one after another (the sequential schedule), then
    /// a reader, must keep exactly the records the real ring's `snapshot`
    /// returns, before, at and past a full lap.
    #[test]
    fn model_matches_real_ring() {
        use afforest_obs::ring::{Ring, CAPACITY};

        fn run(thread: &mut RingThread, mem: &mut RingMemory) {
            while thread.is_runnable() {
                thread.step(mem);
            }
        }

        for n in [0, 1, CAPACITY - 1, CAPACITY, CAPACITY + 1, 2 * CAPACITY + 3] {
            let real = Ring::<{ ring::WORDS }>::new();
            let mut mem = RingMemory::new(CAPACITY);
            for k in 0..n as u64 {
                let payload = [2 * k + 1, 2 * k + 2];
                real.record(payload);
                run(
                    &mut RingThread::Writer(WriterMachine::new(payload)),
                    &mut mem,
                );
            }
            let mut reader = RingThread::Reader(ReaderMachine::new());
            run(&mut reader, &mut mem);
            let RingThread::Reader(reader) = reader else {
                unreachable!("the reader stays a reader");
            };
            assert_eq!(reader.snapshot(), real.snapshot(), "after {n} records");
            assert_eq!(mem.cursor, real.recorded());
        }
    }

    /// The memoized DFS really is exhaustive on a known-size instance:
    /// freeze the state-space size of two disjoint links so accidental
    /// pruning in a future refactor shows up as a diff here.
    #[test]
    fn state_counts_are_stable() {
        let out = explore(&Scenario::links(4, &[(0, 1), (2, 3)]));
        assert!(out.passed());
        let frozen = (out.states, out.terminal_states);
        let again = explore(&Scenario::links(4, &[(0, 1), (2, 3)]));
        assert_eq!(frozen, (again.states, again.terminal_states));
        // Lower bound: strictly more states than one sequential order
        // (two 4-step machines sequentially = 9 states).
        assert!(out.states > 9, "state space suspiciously small: {frozen:?}");
    }
}
