//! Property-based tests for the core algorithm components.

use afforest_core::batched::{afforest_batched, BatchedConfig};
use afforest_core::compress::compress_all;
use afforest_core::link::{link, link_counted};
use afforest_core::parents::ParentArray;
use afforest_core::sampling::{exact_frequent_element, sample_frequent_element};
use afforest_core::strategies::{partition, Strategy as PartitionStrategy};
use afforest_core::{afforest, AfforestConfig, ComponentLabels, IncrementalCc};
use afforest_graph::{GraphBuilder, Node};
use proptest::prelude::*;
use std::collections::HashSet;

fn arb_edges(max_n: usize, max_m: usize) -> impl Strategy<Value = (usize, Vec<(Node, Node)>)> {
    (2usize..max_n).prop_flat_map(move |n| {
        let edge = (0..n as Node, 0..n as Node);
        (Just(n), proptest::collection::vec(edge, 0..max_m))
    })
}

/// One step of an interleaved incremental-connectivity workload.
#[derive(Clone, Debug)]
enum Op {
    Insert(Vec<(Node, Node)>),
    Connected(Node, Node),
}

fn arb_ops(max_n: usize, max_ops: usize) -> impl Strategy<Value = (usize, Vec<Op>)> {
    (2usize..max_n).prop_flat_map(move |n| {
        let vertex = 0..n as Node;
        let edge = (0..n as Node, 0..n as Node);
        // Interleave by parity of a per-op coin: a batch of 0..20 edges or
        // a connectivity probe.
        let op = (
            any::<bool>(),
            proptest::collection::vec(edge, 0..20),
            vertex.clone(),
            vertex,
        )
            .prop_map(|(is_insert, batch, u, v)| {
                if is_insert {
                    Op::Insert(batch)
                } else {
                    Op::Connected(u, v)
                }
            });
        (Just(n), proptest::collection::vec(op, 1..max_ops))
    })
}

/// Minimal serial union-find used as the interleaved-query oracle.
struct UnionFindOracle {
    parent: Vec<Node>,
}

impl UnionFindOracle {
    fn new(n: usize) -> Self {
        Self {
            parent: (0..n as Node).collect(),
        }
    }

    fn find(&mut self, mut x: Node) -> Node {
        while self.parent[x as usize] != x {
            let gp = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = gp;
            x = gp;
        }
        x
    }

    fn union(&mut self, u: Node, v: Node) {
        let (ru, rv) = (self.find(u), self.find(v));
        if ru != rv {
            self.parent[ru.max(rv) as usize] = ru.min(rv);
        }
    }

    fn connected(&mut self, u: Node, v: Node) -> bool {
        self.find(u) == self.find(v)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn link_sequence_maintains_invariant_any_order(
        (n, edges) in arb_edges(120, 400),
    ) {
        // Sequential adversarial order (exactly as given, duplicates and
        // self-loops included).
        let pi = ParentArray::new(n);
        for &(u, v) in &edges {
            link(u, v, &pi);
            // Invariant 1 after *every* call, not just at the end.
        }
        prop_assert!(pi.check_invariant());
    }

    #[test]
    fn link_counted_matches_link_semantics((n, edges) in arb_edges(100, 300)) {
        let pi1 = ParentArray::new(n);
        let pi2 = ParentArray::new(n);
        for &(u, v) in &edges {
            let merged1 = link(u, v, &pi1);
            let (merged2, iters) = link_counted(u, v, &pi2);
            prop_assert_eq!(merged1, merged2);
            prop_assert!(iters >= 1);
        }
        prop_assert_eq!(pi1.snapshot(), pi2.snapshot());
    }

    #[test]
    fn compress_preserves_roots_and_membership((n, edges) in arb_edges(120, 400)) {
        let pi = ParentArray::new(n);
        for &(u, v) in &edges {
            link(u, v, &pi);
        }
        let roots_before: Vec<Node> = (0..n as Node).map(|v| pi.find_root(v)).collect();
        compress_all(&pi);
        let roots_after: Vec<Node> = (0..n as Node).map(|v| pi.find_root(v)).collect();
        prop_assert_eq!(roots_before, roots_after);
        prop_assert!(pi.max_depth() <= 1);
    }

    #[test]
    fn batched_equals_monolithic_for_any_batching(
        (n, edges) in arb_edges(120, 400),
        num_batches in 1usize..12,
        strategy_idx in 0usize..4,
    ) {
        let g = GraphBuilder::from_edges(n, &edges).build();
        let truth = afforest(&g, &AfforestConfig::default());
        let strategy = PartitionStrategy::ALL[strategy_idx];
        let batches = partition(&g, strategy, num_batches, 7);
        let (labels, _) = afforest_batched(&g, &batches, &BatchedConfig::default());
        prop_assert!(labels.equivalent(&truth));
    }

    #[test]
    fn incremental_equals_batch_for_any_split(
        (n, edges) in arb_edges(120, 400),
        split_pct in 0usize..=100,
    ) {
        let g = GraphBuilder::from_edges(n, &edges).build();
        let truth = afforest(&g, &AfforestConfig::default());
        let all = g.collect_edges();
        let cut = all.len() * split_pct / 100;
        let mut cc = IncrementalCc::new(n);
        cc.insert_batch(&all[..cut]);
        cc.insert_batch(&all[cut..]);
        prop_assert!(cc.into_labels().equivalent(&truth));
    }

    #[test]
    fn insert_batch_reports_one_hooked_root_per_merge(
        (n, edges) in arb_edges(120, 600),
        cuts in proptest::collection::vec(0usize..=100, 0..6),
        threshold_pct in 0usize..=150,
    ) {
        // Theorem 1's merge accounting, on which the serving snapshots'
        // component count and root sizes rest: per batch, the reported
        // hooked roots are distinct, were roots before the batch, and
        // number exactly the merges a serial union-find sees.
        let threshold = (threshold_pct > 0).then_some((n * threshold_pct / 100).max(1));
        let mut cc = IncrementalCc::new(n).with_compress_threshold(threshold);
        let mut oracle = UnionFindOracle::new(n);
        let mut bounds: Vec<usize> = cuts.iter().map(|p| edges.len() * p / 100).collect();
        bounds.extend([0, edges.len()]);
        bounds.sort_unstable();
        let mut components = n;
        let mut merges = 0;
        for w in bounds.windows(2) {
            let batch = &edges[w[0]..w[1]];
            let before = cc.parents_snapshot();
            let delta = cc.insert_batch(batch);
            let after = cc.parents_snapshot();
            let distinct: HashSet<Node> = delta.hooked.iter().copied().collect();
            prop_assert_eq!(distinct.len(), delta.hooked.len());
            for &h in &delta.hooked {
                prop_assert_eq!(before[h as usize], h, "{} was not a root", h);
                prop_assert!(after[h as usize] != h, "{} is still a root", h);
            }
            if !delta.full_compress {
                // The delta names every slot the batch wrote.
                let written: HashSet<Node> = delta.written().collect();
                for v in 0..n as Node {
                    prop_assert!(before[v as usize] == after[v as usize] || written.contains(&v));
                }
            }
            for &(u, v) in batch {
                oracle.union(u, v);
            }
            let now = (0..n as Node).filter(|&v| oracle.find(v) == v).count();
            prop_assert_eq!(components - now, delta.hooked.len());
            components = now;
            merges += delta.hooked.len();
        }
        prop_assert_eq!(merges, n - components);
    }

    #[test]
    fn incremental_interleaved_ops_match_from_scratch_run(
        (n, ops) in arb_ops(100, 24),
        threshold_pct in 0usize..=100,
    ) {
        // Drive an IncrementalCc through a random interleaving of
        // insert_batch and connected calls (the serve write/read mix).
        // Every interleaved `connected` must agree with a serial
        // union-find over the edges inserted so far, and the final state
        // must agree with a from-scratch Afforest run on the union of
        // all inserted edges.
        let threshold = (threshold_pct > 0).then_some((n * threshold_pct / 100).max(1));
        let mut cc = IncrementalCc::new(n).with_compress_threshold(threshold);
        let mut oracle = UnionFindOracle::new(n);
        let mut all_edges: Vec<(Node, Node)> = Vec::new();
        for op in &ops {
            match op {
                Op::Insert(batch) => {
                    cc.insert_batch(batch);
                    for &(u, v) in batch {
                        oracle.union(u, v);
                    }
                    all_edges.extend_from_slice(batch);
                }
                Op::Connected(u, v) => {
                    prop_assert_eq!(
                        cc.connected(*u, *v),
                        oracle.connected(*u, *v),
                        "interleaved connected({}, {}) diverged", u, v
                    );
                }
            }
        }
        let g = GraphBuilder::from_edges(n, &all_edges).build();
        let truth = afforest(&g, &AfforestConfig::default());
        prop_assert!(cc.into_labels().equivalent(&truth));
    }

    #[test]
    fn sampler_agrees_with_exact_on_dominant_forests(
        n in 64usize..512,
        dominant_frac in 0.6f64..0.95,
        seed in any::<u64>(),
    ) {
        // Depth-1 forest with one clearly dominant root.
        let pi = ParentArray::new(n);
        let cutoff = (n as f64 * dominant_frac) as Node;
        for v in 1..cutoff {
            pi.set(v, 0);
        }
        let exact = exact_frequent_element(&pi);
        prop_assert_eq!(exact, 0);
        let sampled = sample_frequent_element(&pi, 512, seed);
        prop_assert_eq!(sampled, 0);
    }

    #[test]
    fn labels_equivalence_is_an_equivalence_relation((n, edges) in arb_edges(100, 300)) {
        let g = GraphBuilder::from_edges(n, &edges).build();
        let a = afforest(&g, &AfforestConfig::default());
        let b = afforest(&g, &AfforestConfig::builder().skip(false).build().unwrap());
        let c = afforest(
            &g,
            &AfforestConfig {
                neighbor_rounds: 0,
                skip_largest: false,
                ..Default::default()
            },
        );
        // Reflexive, symmetric, transitive on actual instances.
        prop_assert!(a.equivalent(&a));
        prop_assert!(a.equivalent(&b) == b.equivalent(&a));
        if a.equivalent(&b) && b.equivalent(&c) {
            prop_assert!(a.equivalent(&c));
        }
    }

    #[test]
    fn component_labels_roundtrip_dense_ids((n, edges) in arb_edges(100, 300)) {
        let g = GraphBuilder::from_edges(n, &edges).build();
        let labels = afforest(&g, &AfforestConfig::default());
        let dense = labels.dense_ids();
        // Dense ids induce the same partition.
        for u in 0..n as Node {
            for v in 0..n as Node {
                if u < v && (u as usize) < 40 && (v as usize) < 40 {
                    prop_assert_eq!(
                        labels.same_component(u, v),
                        dense[u as usize] == dense[v as usize]
                    );
                }
            }
        }
        // Ids are contiguous 0..C.
        let max_id = dense.iter().copied().max().map(|m| m as usize + 1).unwrap_or(0);
        prop_assert_eq!(max_id, labels.num_components());
    }

    #[test]
    fn neighbor_rounds_monotonically_reduce_trees(
        (n, edges) in arb_edges(150, 600),
    ) {
        let g = GraphBuilder::from_edges(n, &edges).build();
        let cfg = AfforestConfig { neighbor_rounds: 4, ..Default::default() };
        let (labels, stats) = afforest_core::afforest_with_stats(&g, &cfg);
        prop_assert!(labels.verify_against(&g));
        prop_assert!(stats
            .trees_after_round
            .windows(2)
            .all(|w| w[1] <= w[0]));
        if let Some(&last) = stats.trees_after_round.last() {
            prop_assert!(last >= labels.num_components());
        }
    }
}

/// ComponentLabels::from_vec round-trips through a verified run.
#[test]
fn labels_constructor_accepts_algorithm_output() {
    let g = afforest_graph::generators::uniform_random(1_000, 5_000, 3);
    let labels = afforest(&g, &AfforestConfig::default());
    let rebuilt = ComponentLabels::from_vec(labels.as_slice().to_vec());
    assert!(rebuilt.equivalent(&labels));
}
