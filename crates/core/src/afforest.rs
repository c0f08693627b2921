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

use crate::compress::compress_all;
use crate::labels::ComponentLabels;
use crate::link::link;
use crate::parents::ParentArray;
use crate::sampling::{sample_frequent_element, DEFAULT_SAMPLES};
use afforest_graph::{CsrGraph, Node};
use rayon::prelude::*;
use std::time::{Duration, Instant};

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

fn run(g: &CsrGraph, cfg: &AfforestConfig, collect: bool) -> (ComponentLabels, RunStats) {
    let n = g.num_vertices();
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

    // Phase 2: neighbor rounds (Fig. 5 lines 2–9).
    for round in 0..cfg.neighbor_rounds {
        let t = Instant::now();
        let processed: usize = {
            let _span = afforest_obs::span!("{}", Phase::LinkRound(round));
            (0..n as Node)
                .into_par_iter()
                .map(|v| {
                    if round < g.degree(v) {
                        link(v, g.neighbor(v, round), &pi);
                        1
                    } else {
                        0
                    }
                })
                .sum()
        };
        record(&mut stats, Phase::LinkRound(round), t);
        if collect {
            stats.edges_processed += processed;
        }

        // Invariant 1 must hold at every round boundary, not just at the
        // end: a violation here pinpoints the round (and therefore the
        // sampled neighbor slice) that produced an upward edge.
        debug_assert!(
            pi.check_invariant(),
            "Invariant 1 violated after link round {round}"
        );

        if cfg.compress_each_round {
            let t = Instant::now();
            {
                let _span = afforest_obs::span!("{}", Phase::Compress(round));
                compress_all(&pi);
            }
            record(&mut stats, Phase::Compress(round), t);
            debug_assert!(
                pi.check_invariant(),
                "Invariant 1 violated by compress after round {round}"
            );
        }
        if collect {
            stats.trees_after_round.push(pi.count_trees());
        }
    }
    if !cfg.compress_each_round && cfg.neighbor_rounds > 0 {
        let t = Instant::now();
        {
            let _span = afforest_obs::span!("{}", Phase::Compress(cfg.neighbor_rounds - 1));
            compress_all(&pi);
        }
        record(&mut stats, Phase::Compress(cfg.neighbor_rounds - 1), t);
        debug_assert!(
            pi.check_invariant(),
            "Invariant 1 violated by deferred compress"
        );
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
        (0..n as Node)
            .into_par_iter()
            .map(|v| {
                if giant == Some(pi.get(v)) {
                    if afforest_obs::COMPILED {
                        let deg = g.degree(v);
                        let remaining = deg - cfg.neighbor_rounds.min(deg);
                        afforest_obs::count(afforest_obs::Counter::EdgesSkipped, remaining as u64);
                        afforest_obs::count(afforest_obs::Counter::VerticesSkipped, 1);
                    }
                    (0usize, 1usize)
                } else {
                    let deg = g.degree(v);
                    let start = cfg.neighbor_rounds.min(deg);
                    for i in start..deg {
                        link(v, g.neighbor(v, i), &pi);
                    }
                    (deg - start, 0)
                }
            })
            .reduce(|| (0, 0), |a, b| (a.0 + b.0, a.1 + b.1))
    };
    record(&mut stats, Phase::FinalLink, t);
    if collect {
        stats.edges_processed += processed;
        stats.vertices_skipped = skipped;
    }
    debug_assert!(
        pi.check_invariant(),
        "Invariant 1 violated by the final link pass"
    );

    // Phase 5: final compress (Fig. 5 lines 16–18).
    let t = Instant::now();
    {
        let _span = afforest_obs::span!("{}", Phase::FinalCompress);
        compress_all(&pi);
    }
    record(&mut stats, Phase::FinalCompress, t);

    debug_assert!(pi.check_invariant(), "Invariant 1 violated");
    (ComponentLabels::from_vec(pi.snapshot()), stats)
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
