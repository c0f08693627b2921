//! The full Afforest algorithm with subgraph sampling (paper Fig. 5).
//!
//! Phases:
//!
//! 1. **Init** — `π(v) ← v` for all vertices.
//! 2. **Neighbor rounds** — for round `i`, every vertex links its `i`-th
//!    neighbor (the vertex-neighborhood sampling of Section IV-C, which
//!    distributes `O(|V|)` sampled edges evenly across vertices and
//!    components), each round followed by a `compress`.
//! 3. **Find largest** — probabilistic most-frequent-element search over
//!    `π` identifies the giant intermediate component (Fig. 5 line 10).
//! 4. **Final link** — every vertex *not* in the giant component links its
//!    remaining neighbors (`neighbor_rounds..degree`); edges incident to
//!    the giant component are skipped, which is exact by Theorem 3.
//! 5. **Final compress** — flatten to depth-one trees; `π` is the labeling.
//!
//! ## How each pass finds its vertices
//!
//! The passes walk 64-vertex blocks, one `u64` word per block and mask,
//! visiting the set bits of a word lowest first. Round 0 reads every
//! vertex's CSR offsets anyway; while it does, it writes two masks per
//! block: "degree > 0" and "degree > `neighbor_rounds`" (with no neighbor
//! rounds, a pass of its own writes them).
//!
//! - Rounds after the first and every compress sweep visit only the set
//!   bits of "degree > 0". Skipping a zero-degree vertex is exact: it is
//!   a singleton root that no link reaches (a link walks up from its two
//!   endpoints), so it is never hooked, nothing is hooked under it, and
//!   its compress is a no-op.
//! - The final link visits only the set bits of "degree >
//!   `neighbor_rounds`", the vertices with edges left. It reads their `π`
//!   first, in a sweep of its own, into a third mask: the giant tree as
//!   found, before any final link hooks more roots under it. It then
//!   reads the offsets of, and links, only the vertices outside that
//!   mask. The skip decisions, and so `RunStats` and the obs work
//!   counters, do not depend on the schedule.
//!
//! The masks cost three words per 64 vertices. After the final compress
//! `π` is the labeling, and its buffer becomes the label vector without a
//! copy ([`ParentArray::into_vec`]).

use crate::compress::compress;
use crate::labels::ComponentLabels;
use crate::link::link;
use crate::parents::ParentArray;
use crate::sampling::{sample_frequent_element, DEFAULT_SAMPLES};
use afforest_graph::{CsrGraph, Node};
use rayon::prelude::*;
use std::time::{Duration, Instant};

/// `debug_assert!(pi.check_invariant(), msg…)` inside a depth-0
/// `check-invariant` span, so a debug build's trace names the time the
/// O(n) check takes between phases. Release builds compile out both.
macro_rules! debug_check_invariant {
    ($pi:expr, $($msg:tt)+) => {
        #[cfg(debug_assertions)]
        {
            let _span = afforest_obs::span!("check-invariant");
            assert!($pi.check_invariant(), $($msg)+);
        }
    };
}

/// Tuning knobs for [`afforest`]. `Default` reproduces the paper's
/// configuration (2 neighbor rounds, 1024 samples, skipping enabled,
/// compress between rounds).
#[derive(Clone, Debug, PartialEq)]
pub struct AfforestConfig {
    /// Number of neighbor-sampling rounds (paper Section VI-A fixes 2).
    pub neighbor_rounds: usize,
    /// Probes used by the most-frequent-element search.
    pub sample_size: usize,
    /// Whether to skip edges incident to the identified giant component.
    pub skip_largest: bool,
    /// Whether to compress after every neighbor round (paper Fig. 5) or
    /// only once after all rounds (the GAPBS variant) — an ablation knob.
    pub compress_each_round: bool,
    /// Seed for the probabilistic component search.
    pub seed: u64,
}

impl Default for AfforestConfig {
    fn default() -> Self {
        Self {
            neighbor_rounds: 2,
            sample_size: DEFAULT_SAMPLES,
            skip_largest: true,
            compress_each_round: true,
            seed: 0x5EED,
        }
    }
}

impl AfforestConfig {
    /// Starts a validating [`AfforestConfigBuilder`] seeded with the
    /// paper's defaults.
    ///
    /// ```
    /// use afforest_core::AfforestConfig;
    ///
    /// let cfg = AfforestConfig::builder()
    ///     .neighbor_rounds(3)
    ///     .skip(false)
    ///     .build()
    ///     .unwrap();
    /// assert_eq!(cfg.neighbor_rounds, 3);
    /// assert!(!cfg.skip_largest);
    /// assert!(AfforestConfig::builder().neighbor_rounds(0).build().is_err());
    /// ```
    pub fn builder() -> AfforestConfigBuilder {
        AfforestConfigBuilder::new()
    }
}

/// Validation failure from [`AfforestConfigBuilder::build`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// `neighbor_rounds` was 0: without at least one sampling round the
    /// giant-component search runs over singleton trees and the "skip"
    /// optimization degenerates (use the public fields directly for that
    /// ablation).
    ZeroNeighborRounds,
    /// `sample_size` was 0: the most-frequent-element search needs at
    /// least one probe.
    ZeroSampleSize,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroNeighborRounds => {
                write!(f, "neighbor_rounds must be at least 1")
            }
            ConfigError::ZeroSampleSize => write!(f, "sample_size must be at least 1"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Validating builder for [`AfforestConfig`]; start from
/// [`AfforestConfig::builder`].
#[derive(Clone, Debug)]
pub struct AfforestConfigBuilder {
    cfg: AfforestConfig,
}

impl Default for AfforestConfigBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl AfforestConfigBuilder {
    /// A builder seeded with the paper's defaults.
    pub fn new() -> Self {
        Self {
            cfg: AfforestConfig::default(),
        }
    }

    /// Sets the number of neighbor-sampling rounds (must be ≥ 1).
    pub fn neighbor_rounds(mut self, rounds: usize) -> Self {
        self.cfg.neighbor_rounds = rounds;
        self
    }

    /// Sets the probe count of the most-frequent-element search (≥ 1).
    pub fn sample_size(mut self, samples: usize) -> Self {
        self.cfg.sample_size = samples;
        self
    }

    /// Enables or disables skipping edges incident to the giant component.
    pub fn skip(mut self, skip: bool) -> Self {
        self.cfg.skip_largest = skip;
        self
    }

    /// Compress after every neighbor round (paper Fig. 5) or only once
    /// after the last (GAPBS variant).
    pub fn compress_each_round(mut self, each_round: bool) -> Self {
        self.cfg.compress_each_round = each_round;
        self
    }

    /// Sets the seed of the probabilistic component search.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Validates and returns the configuration.
    pub fn build(self) -> Result<AfforestConfig, ConfigError> {
        if self.cfg.neighbor_rounds == 0 {
            return Err(ConfigError::ZeroNeighborRounds);
        }
        if self.cfg.sample_size == 0 {
            return Err(ConfigError::ZeroSampleSize);
        }
        Ok(self.cfg)
    }
}

/// Execution phases, used for timing breakdowns and the Fig. 7 traces.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Phase {
    /// `π(v) ← v` initialization.
    Init,
    /// Neighbor-sampling link round `i` (0-based).
    LinkRound(usize),
    /// Compress following round `i`, or the final compress.
    Compress(usize),
    /// Probabilistic largest-component search.
    FindLargest,
    /// Final link pass over remaining edges.
    FinalLink,
    /// Final compress producing the labeling.
    FinalCompress,
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Phase::Init => write!(f, "init"),
            Phase::LinkRound(i) => write!(f, "link[{i}]"),
            Phase::Compress(i) => write!(f, "compress[{i}]"),
            Phase::FindLargest => write!(f, "find-largest"),
            Phase::FinalLink => write!(f, "final-link"),
            Phase::FinalCompress => write!(f, "final-compress"),
        }
    }
}

/// Wall-clock duration of one phase.
#[derive(Clone, Debug)]
pub struct PhaseTiming {
    /// Which phase.
    pub phase: Phase,
    /// Elapsed wall-clock time.
    pub elapsed: Duration,
}

/// Statistics from an instrumented [`afforest_with_stats`] run.
#[derive(Clone, Debug, Default)]
pub struct RunStats {
    /// Per-phase wall-clock timings in execution order.
    pub phases: Vec<PhaseTiming>,
    /// Directed edge slots processed by `link` (lower = more work saved).
    pub edges_processed: usize,
    /// Vertices whose remaining neighborhood was skipped (Theorem 3).
    pub vertices_skipped: usize,
    /// The root identified as the giant component (if the search ran).
    pub giant_root: Option<Node>,
    /// Number of trees after each neighbor round (for Linkage curves).
    pub trees_after_round: Vec<usize>,
}

impl RunStats {
    /// Total wall-clock time across phases.
    pub fn total_time(&self) -> Duration {
        self.phases.iter().map(|p| p.elapsed).sum()
    }

    /// Fraction of the graph's directed arcs that `link` actually touched.
    pub fn edge_fraction(&self, g: &CsrGraph) -> f64 {
        if g.num_arcs() == 0 {
            0.0
        } else {
            self.edges_processed as f64 / g.num_arcs() as f64
        }
    }
}

/// Runs Afforest and returns the component labeling.
pub fn afforest(g: &CsrGraph, cfg: &AfforestConfig) -> ComponentLabels {
    let (labels, _) = run(g, cfg, false);
    labels
}

/// Runs Afforest, additionally collecting [`RunStats`] (timings, work
/// counters, skip effectiveness). The labeling is identical to
/// [`afforest`]'s.
pub fn afforest_with_stats(g: &CsrGraph, cfg: &AfforestConfig) -> (ComponentLabels, RunStats) {
    run(g, cfg, true)
}

/// Vertices per mask word.
const BLOCK: usize = 64;

/// One 64-vertex block's masks: bit `i` stands for vertex `64 b + i`, and
/// bits past the last vertex are clear.
#[derive(Clone, Copy, Default)]
struct Block {
    /// Degree > 0: the only vertices a link can reach.
    linked: u64,
    /// Degree > `neighbor_rounds`: the only vertices with edges left for
    /// the final link.
    beyond: u64,
    /// Vertices in the giant tree when it was found. Covers the `beyond`
    /// vertices, and all of them when a counter reads.
    giant: u64,
}

/// The most blocks one part of a block pass may hold: an eighth of them,
/// and at least 4 (256 vertices). A block pass then splits as the
/// per-vertex loop over the same vertices would, which the pool runs
/// inline only up to 256 items.
fn part_len(blocks: usize) -> usize {
    (blocks / 8).max(4)
}

/// Calls `f(i, v)` for every set bit `i` of block `b`'s `word`, lowest
/// first, with `v = 64 b + i`.
#[inline]
fn for_each_set(b: usize, word: u64, mut f: impl FnMut(u32, Node)) {
    let base = (b * BLOCK) as Node;
    let mut rest = word;
    while rest != 0 {
        let i = rest.trailing_zeros();
        f(i, base + i);
        rest &= rest - 1;
    }
}

/// Reads block `b`'s degrees into its masks and calls `first(v, u)` for
/// every vertex `v` of nonzero degree, `u` its first neighbor.
#[inline]
fn scan_block(g: &CsrGraph, b: usize, rounds: usize, mut first: impl FnMut(Node, Node)) -> Block {
    let (offsets, targets) = (g.offsets(), g.targets());
    let base = b * BLOCK;
    let end = (base + BLOCK).min(g.num_vertices());
    let (mut linked, mut beyond) = (0u64, 0u64);
    for (i, w) in offsets[base..=end].windows(2).enumerate() {
        let deg = w[1] - w[0];
        linked |= u64::from(deg > 0) << i;
        beyond |= u64::from(deg > rounds) << i;
        if deg > 0 {
            first((base + i) as Node, targets[w[0]]);
        }
    }
    Block {
        linked,
        beyond,
        giant: 0,
    }
}

/// Compresses every vertex of nonzero degree.
fn compress_blocks(blocks: &[Block], pi: &ParentArray) {
    blocks
        .par_iter()
        .with_max_len(part_len(blocks.len()))
        .enumerate()
        .for_each(|(b, blk)| for_each_set(b, blk.linked, |_, v| compress(v, pi)));
}

fn run(g: &CsrGraph, cfg: &AfforestConfig, collect: bool) -> (ComponentLabels, RunStats) {
    let n = g.num_vertices();
    let rounds = cfg.neighbor_rounds;
    let mut stats = RunStats::default();
    let record = |stats: &mut RunStats, phase: Phase, t: Instant| {
        if collect {
            stats.phases.push(PhaseTiming {
                phase,
                elapsed: t.elapsed(),
            });
        }
    };

    let t = Instant::now();
    let pi = {
        let _span = afforest_obs::span!("{}", Phase::Init);
        ParentArray::new(n)
    };
    record(&mut stats, Phase::Init, t);

    if n == 0 {
        return (ComponentLabels::from_vec(Vec::new()), stats);
    }

    // The first neighbor round writes the masks; with none, this pass.
    let mut blocks = vec![Block::default(); n.div_ceil(BLOCK)];
    let cap = part_len(blocks.len());
    if rounds == 0 {
        blocks
            .par_iter_mut()
            .with_max_len(cap)
            .enumerate()
            .for_each(|(b, blk)| *blk = scan_block(g, b, 0, |_, _| {}));
    }

    // Phase 2: neighbor rounds (Fig. 5 lines 2–9).
    for round in 0..rounds {
        let t = Instant::now();
        let processed: usize = {
            let _span = afforest_obs::span!("{}", Phase::LinkRound(round));
            if round == 0 {
                blocks
                    .par_iter_mut()
                    .with_max_len(cap)
                    .enumerate()
                    .for_each(|(b, blk)| {
                        *blk = scan_block(g, b, rounds, |v, u| {
                            link(v, u, &pi);
                        })
                    });
                if collect {
                    blocks
                        .iter()
                        .map(|blk| blk.linked.count_ones() as usize)
                        .sum()
                } else {
                    0
                }
            } else {
                blocks
                    .par_iter()
                    .with_max_len(cap)
                    .enumerate()
                    .map(|(b, blk)| {
                        let mut linked = 0;
                        for_each_set(b, blk.linked, |_, v| {
                            if round < g.degree(v) {
                                link(v, g.neighbor(v, round), &pi);
                                linked += 1;
                            }
                        });
                        linked
                    })
                    .sum()
            }
        };
        record(&mut stats, Phase::LinkRound(round), t);
        if collect {
            stats.edges_processed += processed;
        }

        // Invariant 1 must hold at every round boundary, not just at the
        // end: a violation here pinpoints the round (and therefore the
        // sampled neighbor slice) that produced an upward edge.
        debug_check_invariant!(pi, "Invariant 1 violated after link round {round}");

        if cfg.compress_each_round {
            let t = Instant::now();
            {
                let _span = afforest_obs::span!("{}", Phase::Compress(round));
                compress_blocks(&blocks, &pi);
            }
            record(&mut stats, Phase::Compress(round), t);
            debug_check_invariant!(pi, "Invariant 1 violated by compress after round {round}");
        }
        if collect {
            stats.trees_after_round.push(pi.count_trees());
        }
    }
    if !cfg.compress_each_round && rounds > 0 {
        let t = Instant::now();
        {
            let _span = afforest_obs::span!("{}", Phase::Compress(rounds - 1));
            compress_blocks(&blocks, &pi);
        }
        record(&mut stats, Phase::Compress(rounds - 1), t);
        debug_check_invariant!(pi, "Invariant 1 violated by deferred compress");
    }

    // Phase 3: identify the giant intermediate component (Fig. 5 line 10).
    let giant = if cfg.skip_largest {
        let t = Instant::now();
        let c = {
            let _span = afforest_obs::span!("{}", Phase::FindLargest);
            sample_frequent_element(&pi, cfg.sample_size.min(16 * n).max(1), cfg.seed)
        };
        record(&mut stats, Phase::FindLargest, t);
        if collect {
            stats.giant_root = Some(c);
        }
        Some(c)
    } else {
        None
    };

    // Phase 4: final link over remaining edges, skipping the giant
    // component's neighborhoods (Fig. 5 lines 11–15).
    let t = Instant::now();
    let (processed, skipped) = {
        let _span = afforest_obs::span!("{}", Phase::FinalLink);
        // Membership is read before anything links, so it is the tree as
        // found: the links hook further roots under it. Giant vertices of
        // degree ≤ `rounds` have no edges left; they are read only when a
        // counter reads.
        let count_all = collect || afforest_obs::COMPILED;
        let skipped: usize = match giant {
            Some(c) => blocks
                .par_iter_mut()
                .with_max_len(cap)
                .enumerate()
                .map(|(b, blk)| {
                    let len = (n - b * BLOCK).min(BLOCK);
                    let scope = if count_all {
                        u64::MAX >> (BLOCK - len)
                    } else {
                        blk.beyond
                    };
                    // A local, not `blk.giant`: or-ing through the
                    // reference per vertex cost web's final link 0.5 ms.
                    let mut found = 0;
                    for_each_set(b, scope, |i, v| {
                        found |= u64::from(pi.get(v) == c) << i;
                    });
                    blk.giant = found;
                    if afforest_obs::COMPILED {
                        let mut edges = 0;
                        for_each_set(b, blk.giant & blk.beyond, |_, v| {
                            edges += g.degree(v) - rounds;
                        });
                        afforest_obs::count(afforest_obs::Counter::EdgesSkipped, edges as u64);
                        afforest_obs::count(
                            afforest_obs::Counter::VerticesSkipped,
                            u64::from(blk.giant.count_ones()),
                        );
                    }
                    blk.giant.count_ones() as usize
                })
                .sum(),
            None => 0,
        };
        let processed: usize = blocks
            .par_iter()
            .with_max_len(cap)
            .enumerate()
            .map(|(b, blk)| {
                let mut processed = 0;
                for_each_set(b, blk.beyond & !blk.giant, |_, v| {
                    let deg = g.degree(v);
                    for i in rounds..deg {
                        link(v, g.neighbor(v, i), &pi);
                    }
                    processed += deg - rounds;
                });
                processed
            })
            .sum();
        (processed, skipped)
    };
    record(&mut stats, Phase::FinalLink, t);
    if collect {
        stats.edges_processed += processed;
        stats.vertices_skipped = skipped;
    }
    debug_check_invariant!(pi, "Invariant 1 violated by the final link pass");

    // Phase 5: final compress (Fig. 5 lines 16–18).
    let t = Instant::now();
    {
        let _span = afforest_obs::span!("{}", Phase::FinalCompress);
        compress_blocks(&blocks, &pi);
    }
    record(&mut stats, Phase::FinalCompress, t);

    debug_check_invariant!(pi, "Invariant 1 violated");
    (ComponentLabels::from_vec(pi.into_vec()), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use afforest_graph::generators::classic::{complete, cycle, path, star};
    use afforest_graph::generators::{
        rmat_scale, road_network, uniform_random, urand_with_components, web_graph,
    };
    use afforest_graph::GraphBuilder;

    fn check(g: &CsrGraph, cfg: &AfforestConfig) -> ComponentLabels {
        let labels = afforest(g, cfg);
        assert!(labels.verify_against(g), "incorrect labeling");
        labels
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::from_edges(0, &[]).build();
        let labels = afforest(&g, &AfforestConfig::default());
        assert_eq!(labels.num_components(), 0);
    }

    #[test]
    fn singletons_only() {
        let g = GraphBuilder::from_edges(5, &[]).build();
        let labels = check(&g, &AfforestConfig::default());
        assert_eq!(labels.num_components(), 5);
    }

    #[test]
    fn classic_graphs_all_configs() {
        let configs = [
            AfforestConfig::default(),
            AfforestConfig::builder().skip(false).build().unwrap(),
            AfforestConfig {
                neighbor_rounds: 0,
                skip_largest: false,
                ..Default::default()
            },
            AfforestConfig::builder()
                .compress_each_round(false)
                .build()
                .unwrap(),
            AfforestConfig::builder()
                .neighbor_rounds(5)
                .build()
                .unwrap(),
        ];
        for g in [path(100), cycle(64), star(50, 49), complete(20)] {
            for cfg in &configs {
                let labels = check(&g, cfg);
                assert_eq!(labels.num_components(), 1, "cfg {cfg:?}");
            }
        }
    }

    #[test]
    fn two_components() {
        let g = GraphBuilder::from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5)]).build();
        let labels = check(&g, &AfforestConfig::default());
        assert_eq!(labels.num_components(), 2);
        assert!(labels.same_component(0, 2));
        assert!(!labels.same_component(2, 3));
    }

    #[test]
    fn urand_matches_oracle() {
        let g = uniform_random(20_000, 100_000, 11);
        check(&g, &AfforestConfig::default());
    }

    #[test]
    fn rmat_matches_oracle() {
        let g = rmat_scale(14, 8, 5);
        check(&g, &AfforestConfig::default());
    }

    #[test]
    fn road_matches_oracle() {
        let g = road_network(120, 120, 0.6, 0.02, 3);
        let with_skip = check(&g, &AfforestConfig::default());
        let without = check(&g, &AfforestConfig::builder().skip(false).build().unwrap());
        assert!(with_skip.equivalent(&without));
    }

    #[test]
    fn web_matches_oracle() {
        let g = web_graph(10_000, 4, 0.7, 8.0, 7);
        check(&g, &AfforestConfig::default());
    }

    #[test]
    fn component_fraction_graphs() {
        for &f in &[1.0, 0.5, 0.1, 0.01] {
            let g = urand_with_components(5_000, 4, f, 9);
            check(&g, &AfforestConfig::default());
        }
    }

    #[test]
    fn stats_edges_saved_on_giant_component() {
        let g = uniform_random(10_000, 100_000, 2);
        let (labels, stats) = afforest_with_stats(&g, &AfforestConfig::default());
        assert!(labels.verify_against(&g));
        assert!(stats.giant_root.is_some());
        // A single giant component means the vast majority of arcs are
        // skipped after two neighbor rounds.
        assert!(
            stats.edge_fraction(&g) < 0.5,
            "processed fraction {}",
            stats.edge_fraction(&g)
        );
        assert!(stats.vertices_skipped > 9_000);
    }

    #[test]
    fn stats_without_skip_processes_everything() {
        let g = uniform_random(2_000, 10_000, 4);
        let cfg = AfforestConfig::builder().skip(false).build().unwrap();
        let (_, stats) = afforest_with_stats(&g, &cfg);
        // Neighbor rounds + final pass cover every directed arc exactly once.
        assert_eq!(stats.edges_processed, g.num_arcs());
        assert_eq!(stats.vertices_skipped, 0);
    }

    #[test]
    fn stats_phase_timings_present() {
        let g = uniform_random(1_000, 4_000, 6);
        let (_, stats) = afforest_with_stats(&g, &AfforestConfig::default());
        let phases: Vec<Phase> = stats.phases.iter().map(|p| p.phase).collect();
        assert!(phases.contains(&Phase::Init));
        assert!(phases.contains(&Phase::LinkRound(0)));
        assert!(phases.contains(&Phase::FindLargest));
        assert!(phases.contains(&Phase::FinalCompress));
        assert!(stats.total_time() > Duration::ZERO);
        assert_eq!(stats.trees_after_round.len(), 2);
    }

    #[test]
    fn trees_shrink_across_rounds() {
        let g = uniform_random(10_000, 80_000, 8);
        let (_, stats) = afforest_with_stats(&g, &AfforestConfig::default());
        assert!(stats.trees_after_round[1] <= stats.trees_after_round[0]);
        assert!(stats.trees_after_round[0] < 10_000);
    }

    #[test]
    fn deterministic_labeling() {
        // The labeling (min-index roots) is deterministic even though the
        // execution is concurrent.
        let g = uniform_random(5_000, 30_000, 14);
        let a = afforest(&g, &AfforestConfig::default());
        let b = afforest(&g, &AfforestConfig::default());
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn zero_rounds_with_skip_still_correct() {
        // Degenerate config: sampling before any linking finds a singleton
        // "giant"; skipping must remain sound (Theorem 3 holds for any
        // intermediate component).
        let g = uniform_random(3_000, 15_000, 1);
        let cfg = AfforestConfig {
            neighbor_rounds: 0,
            ..Default::default()
        };
        check(&g, &cfg);
    }

    #[test]
    fn phase_display_strings() {
        assert_eq!(Phase::LinkRound(1).to_string(), "link[1]");
        assert_eq!(Phase::FinalCompress.to_string(), "final-compress");
    }

    #[test]
    fn builder_sets_every_knob() {
        let cfg = AfforestConfig::builder()
            .neighbor_rounds(4)
            .sample_size(64)
            .skip(false)
            .compress_each_round(false)
            .seed(99)
            .build()
            .unwrap();
        assert_eq!(
            cfg,
            AfforestConfig {
                neighbor_rounds: 4,
                sample_size: 64,
                skip_largest: false,
                compress_each_round: false,
                seed: 99,
            }
        );
    }

    #[test]
    fn builder_defaults_match_default() {
        assert_eq!(
            AfforestConfig::builder().build().unwrap(),
            AfforestConfig::default()
        );
    }

    #[test]
    fn builder_rejects_degenerate_configs() {
        assert_eq!(
            AfforestConfig::builder().neighbor_rounds(0).build(),
            Err(ConfigError::ZeroNeighborRounds)
        );
        assert_eq!(
            AfforestConfig::builder().sample_size(0).build(),
            Err(ConfigError::ZeroSampleSize)
        );
        assert!(ConfigError::ZeroSampleSize.to_string().contains("sample"));
    }
}
