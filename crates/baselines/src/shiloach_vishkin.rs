//! Shiloach–Vishkin connected components (paper Fig. 1).
//!
//! The classic tree-hooking PRAM algorithm, in the formulation used by the
//! GAP benchmark suite (the paper's CPU state-of-the-art SV comparator):
//! iterate global *hook* (every edge attempts to attach the larger-labeled
//! root under the smaller label) and *shortcut* (pointer jumping) phases
//! until a fixpoint. Every edge is re-examined in **every** iteration —
//! the redundancy Afforest eliminates.

use afforest_graph::{CsrGraph, Node};
use rayon::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

/// Statistics from an SV run (the SV columns of Table II).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SvStats {
    /// Number of hook+shortcut iterations until the fixpoint.
    pub iterations: usize,
    /// Maximum tree depth observed at any hook-phase boundary.
    pub max_tree_depth: usize,
}

/// Runs Shiloach–Vishkin; returns the representative labeling.
///
/// ```
/// use afforest_baselines::shiloach_vishkin;
/// use afforest_graph::GraphBuilder;
///
/// let g = GraphBuilder::from_edges(4, &[(0, 1), (2, 3)]).build();
/// assert_eq!(shiloach_vishkin(&g), vec![0, 0, 2, 2]);
/// ```
pub fn shiloach_vishkin(g: &CsrGraph) -> Vec<Node> {
    run(g, false).0
}

/// Runs Shiloach–Vishkin, also reporting iteration/depth statistics.
///
/// The hook phase is a CAS race, so under a parallel schedule the
/// iteration count depends on which hooks win. The instrumented run is
/// pinned to a one-thread pool, making its counts sequential-equivalent:
/// the same on every core count. [`shiloach_vishkin`] stays parallel.
pub fn shiloach_vishkin_with_stats(g: &CsrGraph) -> (Vec<Node>, SvStats) {
    rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("a one-thread pool")
        .install(|| run(g, true))
}

fn run(g: &CsrGraph, collect: bool) -> (Vec<Node>, SvStats) {
    let n = g.num_vertices();
    let pi: Vec<AtomicU32> = (0..n as Node).map(AtomicU32::new).collect();
    let mut stats = SvStats::default();

    let get = |v: Node| pi[v as usize].load(Ordering::Relaxed);

    let changed = AtomicBool::new(true);
    let mut iter = 0usize;
    while changed.swap(false, Ordering::Relaxed) {
        let _span = afforest_obs::span!("sv-iter[{iter}]");
        iter += 1;
        // Hook phase (Fig. 1 lines 5–11): for every arc (u, v), if u's
        // label is smaller and v's parent is a root, attach it under u's
        // label. CAS stands in for the PRAM's "one writer wins".
        (0..n as Node).into_par_iter().for_each(|u| {
            for &v in g.neighbors(u) {
                let pu = get(u);
                let pv = get(v);
                if pu < pv
                    && pv == get(pv)
                    && pi[pv as usize]
                        .compare_exchange(pv, pu, Ordering::Relaxed, Ordering::Relaxed)
                        .is_ok()
                {
                    changed.store(true, Ordering::Relaxed);
                }
            }
        });

        if collect {
            stats.iterations += 1;
            let depth = (0..n as Node)
                .into_par_iter()
                .map(|v| {
                    let mut x = v;
                    let mut d = 0usize;
                    while get(x) != x {
                        x = get(x);
                        d += 1;
                    }
                    d
                })
                .max()
                .unwrap_or(0);
            stats.max_tree_depth = stats.max_tree_depth.max(depth);
        }

        // Shortcut phase (Fig. 1 lines 13–17): pointer jumping.
        (0..n as Node).into_par_iter().for_each(|v| {
            while get(get(v)) != get(v) {
                let gp = get(get(v));
                pi[v as usize].store(gp, Ordering::Relaxed);
            }
        });
    }

    let labels = pi.into_iter().map(|a| a.into_inner()).collect();
    (labels, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::union_find::union_find_cc;
    use afforest_graph::generators::classic::{cycle, path, star};
    use afforest_graph::generators::{rmat_scale, road_network, uniform_random};
    use afforest_graph::GraphBuilder;

    /// Partition equality up to relabeling.
    fn same_partition(a: &[Node], b: &[Node]) -> bool {
        if a.len() != b.len() {
            return false;
        }
        let mut fwd = vec![Node::MAX; a.len()];
        let mut bwd = vec![Node::MAX; a.len()];
        for i in 0..a.len() {
            let (x, y) = (a[i] as usize, b[i] as usize);
            if fwd[x] == Node::MAX {
                fwd[x] = b[i];
            } else if fwd[x] != b[i] {
                return false;
            }
            if bwd[y] == Node::MAX {
                bwd[y] = a[i];
            } else if bwd[y] != a[i] {
                return false;
            }
        }
        true
    }

    fn check(g: &CsrGraph) -> Vec<Node> {
        let labels = shiloach_vishkin(g);
        assert!(same_partition(&labels, &union_find_cc(g)));
        labels
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::from_edges(0, &[]).build();
        assert!(shiloach_vishkin(&g).is_empty());
    }

    #[test]
    fn classic_shapes() {
        check(&path(200));
        check(&cycle(100));
        check(&star(64, 63));
    }

    #[test]
    fn disconnected() {
        let g = GraphBuilder::from_edges(6, &[(0, 1), (3, 4)]).build();
        let labels = check(&g);
        assert_eq!(labels[0], labels[1]);
        assert_ne!(labels[0], labels[3]);
        assert_eq!(labels[2], 2);
    }

    #[test]
    fn random_graphs() {
        check(&uniform_random(5_000, 30_000, 3));
        check(&rmat_scale(12, 8, 4));
        check(&road_network(60, 60, 0.6, 0.02, 5));
    }

    #[test]
    fn stats_iterations_bounded_by_diameterish() {
        let g = path(512);
        let (labels, stats) = shiloach_vishkin_with_stats(&g);
        assert!(same_partition(&labels, &union_find_cc(&g)));
        assert!(stats.iterations >= 1);
        // Pointer jumping gives O(log |V|)-ish rounds on a path.
        assert!(stats.iterations <= 64, "iterations {}", stats.iterations);
        assert!(stats.max_tree_depth >= 1);
    }

    #[test]
    fn stats_single_iteration_on_star() {
        // A star with hub 0 hooks everything in one pass, converging fast.
        let g = star(100, 0);
        let (_, stats) = shiloach_vishkin_with_stats(&g);
        assert!(stats.iterations <= 2);
    }

    #[test]
    fn labels_are_component_minimum() {
        let g = GraphBuilder::from_edges(5, &[(4, 3), (3, 2)]).build();
        let labels = shiloach_vishkin(&g);
        assert_eq!(labels[4], 2);
        assert_eq!(labels[3], 2);
        assert_eq!(labels[2], 2);
    }
}
