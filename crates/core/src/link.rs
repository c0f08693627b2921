//! The `link` procedure (paper Fig. 3).
//!
//! Given an edge `(u, v)`, `link` guarantees on return that `u` and `v`
//! belong to the same component tree of `π`, merging their trees if
//! necessary. Unlike Shiloach–Vishkin's `hook`, which defers conflicting
//! connections to the next global iteration, `link` resolves everything
//! locally: it walks both parent chains upward until it either discovers a
//! common ancestor or reaches a root it can hook with a single
//! compare-and-swap. The CAS always hooks the **higher**-index root under
//! the **lower** one, preserving Invariant 1 (`π(x) ≤ x`, Lemma 2), which
//! in turn keeps `π` acyclic (Lemma 1).
//!
//! Because convergence is local, each edge needs to be processed exactly
//! once (Theorem 1) — the property that enables all of Section IV's
//! subgraph sampling.

use crate::parents::ParentArray;
use afforest_graph::Node;

/// Links the edge `(u, v)`: ensures both endpoints share a component tree.
///
/// Lock-free; safe to call concurrently from any number of threads for any
/// set of edges. Returns `true` if this call performed the compare-and-swap
/// that merged two trees (used by spanning-forest extraction; exactly
/// `|V| − C` calls over a full pass return `true`). A wrapper over
/// [`link_hook`], which also names the root that was hooked.
///
/// ```
/// use afforest_core::{link, ParentArray};
///
/// let pi = ParentArray::new(3);
/// assert!(link(2, 1, &pi));       // merges {1} and {2}
/// assert!(!link(1, 2, &pi));      // already together
/// assert_eq!(pi.find_root(2), 1); // higher index hooked under lower
/// ```
#[inline]
pub fn link(u: Node, v: Node, pi: &ParentArray) -> bool {
    link_hook(u, v, pi).is_some()
}

/// Links the edge `(u, v)` and reports the root this call's
/// compare-and-swap hooked, if any.
///
/// Each successful CAS merges exactly two trees (Theorem 1), and a hooked
/// root never becomes a root again, so over any set of calls the reported
/// roots are distinct, each was a root when its call began, and there is
/// one per merge. The incremental structure relies on this to patch
/// component counts and root sizes from a batch's merges alone.
///
/// ```
/// use afforest_core::{link::link_hook, ParentArray};
///
/// let pi = ParentArray::new(4);
/// assert_eq!(link_hook(3, 1, &pi), Some(3)); // root 3 hooked under 1
/// assert_eq!(link_hook(1, 3, &pi), None);    // already together
/// ```
#[inline]
pub fn link_hook(u: Node, v: Node, pi: &ParentArray) -> Option<Node> {
    afforest_obs::count(afforest_obs::Counter::LinkCalls, 1);
    let mut p1 = pi.get(u);
    let mut p2 = pi.get(v);
    while p1 != p2 {
        let high = p1.max(p2);
        let low = p1.min(p2);
        let p_high = pi.get(high);
        // Already hooked under `low` by a racing thread, or we win the race
        // on a still-root `high` ourselves.
        if p_high == low {
            return None;
        }
        if p_high == high {
            if pi.compare_and_swap(high, high, low) {
                afforest_obs::count(afforest_obs::Counter::EdgesLinked, 1);
                return Some(high);
            }
            afforest_obs::count(afforest_obs::Counter::CasRetries, 1);
        }
        // Walk both chains upward and retry (paper Fig. 3 lines 9–10;
        // the double dereference mirrors the GAP formulation).
        p1 = pi.get(pi.get(high));
        p2 = pi.get(low);
    }
    None
}

/// Instrumented variant: returns `(merged, local_iterations)` where
/// `local_iterations` counts loop trips (Table II's "average iterations"
/// column measures exactly this; a converged tree pair costs one trip).
#[inline]
pub fn link_counted(u: Node, v: Node, pi: &ParentArray) -> (bool, u32) {
    let mut iters = 1u32;
    let mut p1 = pi.get(u);
    let mut p2 = pi.get(v);
    while p1 != p2 {
        iters += 1;
        let high = p1.max(p2);
        let low = p1.min(p2);
        let p_high = pi.get(high);
        if p_high == low {
            return (false, iters);
        }
        if p_high == high && pi.compare_and_swap(high, high, low) {
            return (true, iters);
        }
        p1 = pi.get(pi.get(high));
        p2 = pi.get(low);
    }
    (false, iters)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn links_two_singletons() {
        let pi = ParentArray::new(2);
        assert!(link(0, 1, &pi));
        assert_eq!(pi.find_root(1), 0);
        assert!(pi.check_invariant());
    }

    #[test]
    fn idempotent_on_same_tree() {
        let pi = ParentArray::new(2);
        assert!(link(0, 1, &pi));
        assert!(!link(0, 1, &pi)); // second call finds them merged
        assert!(!link(1, 0, &pi));
    }

    #[test]
    fn hooks_high_under_low() {
        let pi = ParentArray::new(10);
        link(9, 3, &pi);
        assert_eq!(pi.get(9), 3);
        assert_eq!(pi.get(3), 3);
    }

    #[test]
    fn merges_two_chains() {
        let pi = ParentArray::new(6);
        link(4, 5, &pi); // tree {4,5} rooted at 4
        link(1, 2, &pi); // tree {1,2} rooted at 1
        link(5, 2, &pi); // must merge both, root 1
        assert_eq!(pi.find_root(4), 1);
        assert_eq!(pi.find_root(5), 1);
        assert!(pi.check_invariant());
    }

    #[test]
    fn hook_reports_the_hooked_root() {
        let pi = ParentArray::new(6);
        assert_eq!(link_hook(4, 5, &pi), Some(5));
        assert_eq!(link_hook(2, 1, &pi), Some(2));
        // Both chains walked: root 4 is hooked under root 1.
        assert_eq!(link_hook(5, 2, &pi), Some(4));
        assert_eq!(link_hook(5, 1, &pi), None);
    }

    #[test]
    fn self_edge_is_noop() {
        let pi = ParentArray::new(3);
        assert!(!link(1, 1, &pi));
        assert!(pi.is_root(1));
    }

    #[test]
    fn counted_reports_single_iteration_when_converged() {
        let pi = ParentArray::new(4);
        link(0, 1, &pi);
        let (merged, iters) = link_counted(0, 1, &pi);
        assert!(!merged);
        assert_eq!(iters, 1);
    }

    #[test]
    fn counted_counts_walks() {
        let pi = ParentArray::new(8);
        // Build a chain 7→6→…→0 by linking adjacent pairs descending.
        for v in (1..8).rev() {
            link(v, v - 1, &pi);
        }
        let (_, iters) = link_counted(7, 0, &pi);
        assert!(iters >= 1);
        assert!(pi.check_invariant());
    }

    #[test]
    fn parallel_links_converge_to_one_tree() {
        use rayon::prelude::*;
        let n: Node = 10_000;
        let pi = ParentArray::new(n as usize);
        // Random-ish edge soup guaranteeing connectivity: v — v/2 chain
        // (binary-tree edges) plus stride links, all in parallel.
        (1..n).into_par_iter().for_each(|v| {
            link(v, v / 2, &pi);
            link(v, v.saturating_sub(7), &pi);
        });
        assert!(pi.check_invariant());
        // Everything must share root 0.
        assert!((0..n).all(|v| pi.find_root(v) == 0));
    }

    #[test]
    fn adversarial_star_high_hub() {
        use rayon::prelude::*;
        // Section V-A worst case: leaves compete to hook the highest root.
        let n: Node = 5_000;
        let pi = ParentArray::new(n as usize);
        (0..n - 1).into_par_iter().for_each(|v| {
            link(n - 1, v, &pi);
        });
        assert!(pi.check_invariant());
        let root = pi.find_root(n - 1);
        assert!((0..n - 1).all(|v| pi.find_root(v) == root));
    }
}
