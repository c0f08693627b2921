//! Generalized subgraph-batched execution (Section III-B).
//!
//! [`crate::afforest`] hard-codes the paper's production schedule
//! (neighbor rounds → skip → remainder). This module exposes the general
//! form the section actually proves correct: process **any** ordered
//! partition of `E` into batches, with `compress` interleaved and
//! optional large-component skipping activated after a chosen batch.
//! It is what the convergence experiments build on, and it lets library
//! users plug in their own partitioning strategies (including the ones in
//! [`crate::strategies`]) while keeping the exactness guarantees.

use crate::compress::compress_all;
use crate::labels::ComponentLabels;
use crate::link::link;
use crate::parents::ParentArray;
use crate::sampling::sample_frequent_element;
use afforest_graph::{CsrGraph, Edge};
use rayon::prelude::*;

/// Schedule for a batched run.
#[derive(Clone, Debug, PartialEq)]
pub struct BatchedConfig {
    /// Compress between batches (keeps later `link` walks short).
    pub compress_between: bool,
    /// After this many batches, identify the giant intermediate component
    /// and skip its incident edges in all later batches (`None` = never).
    pub skip_after_batch: Option<usize>,
    /// Sample count for the most-frequent-element search.
    pub sample_size: usize,
    /// Seed for the probabilistic search.
    pub seed: u64,
}

impl Default for BatchedConfig {
    fn default() -> Self {
        Self {
            compress_between: true,
            skip_after_batch: None,
            sample_size: crate::sampling::DEFAULT_SAMPLES,
            seed: 0xBA7C,
        }
    }
}

/// Work counters from a batched run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BatchedStats {
    /// Edges handed to `link` (skipped edges excluded).
    pub edges_linked: usize,
    /// Edges skipped by the component heuristic.
    pub edges_skipped: usize,
    /// Batches processed.
    pub batches: usize,
}

/// Runs `link` over the batches in order and returns the exact labeling.
///
/// Correct for any batches whose union ⊇ a spanning structure of every
/// component the caller cares about; passing a full partition of `E`
/// (e.g. from [`crate::strategies::partition`]) guarantees exactness on
/// the whole graph (Theorem 1 + Theorem 3 for the skipped edges).
///
/// # Panics
///
/// Panics if any batch references a vertex outside `g`.
pub fn afforest_batched(
    g: &CsrGraph,
    batches: &[Vec<Edge>],
    cfg: &BatchedConfig,
) -> (ComponentLabels, BatchedStats) {
    let n = g.num_vertices();
    let pi = ParentArray::new(n);
    let mut stats = BatchedStats::default();
    let mut giant = None;

    for (i, batch) in batches.iter().enumerate() {
        if let Some(c) = giant {
            let (linked, skipped): (usize, usize) = batch
                .par_iter()
                .map(|&(u, v)| {
                    // Theorem 3: an edge with an endpoint already inside
                    // the fixed component is redundant or will be seen
                    // from its other endpoint in this same batch set.
                    if pi.get(u) == c && pi.get(v) == c {
                        (0, 1)
                    } else {
                        link(u, v, &pi);
                        (1, 0)
                    }
                })
                .reduce(|| (0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
            stats.edges_linked += linked;
            stats.edges_skipped += skipped;
        } else {
            batch.par_iter().for_each(|&(u, v)| {
                link(u, v, &pi);
            });
            stats.edges_linked += batch.len();
        }
        stats.batches += 1;

        if cfg.compress_between {
            compress_all(&pi);
        }
        if giant.is_none() && cfg.skip_after_batch == Some(i + 1) && n > 0 {
            if !cfg.compress_between {
                compress_all(&pi); // the sampler expects depth-1 trees
            }
            giant = Some(sample_frequent_element(
                &pi,
                cfg.sample_size.min(16 * n).max(1),
                cfg.seed,
            ));
        }
    }

    compress_all(&pi);
    (ComponentLabels::from_vec(pi.into_vec()), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::afforest::{afforest, AfforestConfig};
    use crate::strategies::{partition, Strategy};
    use afforest_graph::generators::{rmat_scale, uniform_random, web_graph};

    fn reference(g: &CsrGraph) -> ComponentLabels {
        let l = afforest(g, &AfforestConfig::default());
        assert!(l.verify_against(g));
        l
    }

    #[test]
    fn all_strategies_exact_without_skip() {
        let g = uniform_random(2_000, 12_000, 3);
        let truth = reference(&g);
        for s in Strategy::ALL {
            let batches = partition(&g, s, 7, 1);
            let (labels, stats) = afforest_batched(&g, &batches, &BatchedConfig::default());
            assert!(labels.equivalent(&truth), "strategy {s:?}");
            assert_eq!(stats.edges_linked, g.num_edges());
            assert_eq!(stats.edges_skipped, 0);
            assert_eq!(stats.batches, batches.len());
        }
    }

    #[test]
    fn skipping_preserves_exactness_and_saves_work() {
        let g = uniform_random(5_000, 50_000, 5);
        let truth = reference(&g);
        let batches = partition(&g, Strategy::NeighborSampling, 10, 1);
        let cfg = BatchedConfig {
            skip_after_batch: Some(2),
            ..Default::default()
        };
        let (labels, stats) = afforest_batched(&g, &batches, &cfg);
        assert!(labels.equivalent(&truth));
        assert!(
            stats.edges_skipped > g.num_edges() / 4,
            "only skipped {}",
            stats.edges_skipped
        );
        assert_eq!(stats.edges_linked + stats.edges_skipped, g.num_edges());
    }

    #[test]
    fn skip_without_compress_between() {
        let g = web_graph(3_000, 5, 0.7, 8.0, 2);
        let truth = reference(&g);
        let batches = partition(&g, Strategy::NeighborSampling, 6, 1);
        let cfg = BatchedConfig {
            compress_between: false,
            skip_after_batch: Some(2),
            ..Default::default()
        };
        let (labels, _) = afforest_batched(&g, &batches, &cfg);
        assert!(labels.equivalent(&truth));
    }

    #[test]
    fn skewed_graph_all_configs() {
        let g = rmat_scale(11, 8, 7);
        let truth = reference(&g);
        for skip in [None, Some(1), Some(3)] {
            for compress_between in [true, false] {
                let cfg = BatchedConfig {
                    compress_between,
                    skip_after_batch: skip,
                    ..Default::default()
                };
                let batches = partition(&g, Strategy::UniformEdge, 5, 9);
                let (labels, _) = afforest_batched(&g, &batches, &cfg);
                assert!(
                    labels.equivalent(&truth),
                    "skip {skip:?} compress {compress_between}"
                );
            }
        }
    }

    #[test]
    fn empty_batches_and_graph() {
        let g = afforest_graph::GraphBuilder::from_edges(4, &[]).build();
        let (labels, stats) = afforest_batched(&g, &[], &BatchedConfig::default());
        assert_eq!(labels.num_components(), 4);
        assert_eq!(stats.batches, 0);

        let empty = afforest_graph::GraphBuilder::from_edges(0, &[]).build();
        let (labels, _) = afforest_batched(&empty, &[], &BatchedConfig::default());
        assert!(labels.is_empty());
    }

    #[test]
    fn single_big_batch_equals_plain_run() {
        let g = uniform_random(1_500, 9_000, 11);
        let truth = reference(&g);
        let all = vec![g.collect_edges()];
        let (labels, stats) = afforest_batched(&g, &all, &BatchedConfig::default());
        assert!(labels.equivalent(&truth));
        assert_eq!(stats.edges_linked, g.num_edges());
    }
}
