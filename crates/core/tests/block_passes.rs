//! Oracle for Afforest's block passes.
//!
//! `afforest::run` finds the vertices each pass acts on from per-block
//! degree masks (64 vertices a word): the rounds after the first and the
//! compress sweeps walk "degree > 0", the final link walks "degree >
//! `neighbor_rounds`" and reads giant membership in a sweep of its own.
//! These tests pin what that must not change. Every graph runs with
//! `neighbor_rounds` 0, 1, 2, 3 and 5, skipping on and off and
//! `compress_each_round` on and off, in pools of 1, 2 and 4 threads:
//!
//! - the labeling equals a minimum-label union-find's, so it is also
//!   bit-identical across pools;
//! - `RunStats` equals what a union-find over the sampled edges and a
//!   per-vertex loop over the final link's decisions compute.
//!
//! The graphs put vertices of degree 0, R and R + 1 at block edges
//! (vertex counts 0, 1, 63, 64, 65, 127, 128, 129 and 1000), next to small
//! rmat, urand, road and web graphs.

use afforest_core::{afforest, afforest_with_stats, sample_frequent_element};
use afforest_core::{AfforestConfig, ParentArray, RunStats};
use afforest_graph::generators::{rmat_scale, road_network, uniform_random, web_graph};
use afforest_graph::{CsrGraph, GraphBuilder, Node};

const ROUNDS: [usize; 5] = [0, 1, 2, 3, 5];
const POOLS: [usize; 3] = [1, 2, 4];

fn with_pool<T: Send>(threads: usize, f: impl FnOnce() -> T + Send) -> T {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool")
        .install(f)
}

/// Union-find whose representative is always the component's minimum,
/// the label Afforest's Invariant 1 produces.
struct MinUnionFind(Vec<Node>);

impl MinUnionFind {
    fn new(n: usize) -> Self {
        Self((0..n as Node).collect())
    }

    fn find(&mut self, mut v: Node) -> Node {
        while self.0[v as usize] != v {
            let grand = self.0[self.0[v as usize] as usize];
            self.0[v as usize] = grand;
            v = grand;
        }
        v
    }

    fn union(&mut self, a: Node, b: Node) {
        let (ra, rb) = (self.find(a), self.find(b));
        self.0[ra.max(rb) as usize] = ra.min(rb);
    }

    fn labels(&mut self) -> Vec<Node> {
        (0..self.0.len() as Node).map(|v| self.find(v)).collect()
    }
}

/// What a run must report, computed without `π`.
struct Expected {
    labels: Vec<Node>,
    giant_root: Option<Node>,
    edges_processed: usize,
    vertices_skipped: usize,
    trees_after_round: Vec<usize>,
}

fn expected(g: &CsrGraph, cfg: &AfforestConfig) -> Expected {
    let n = g.num_vertices();
    let mut full = MinUnionFind::new(n);
    for (u, v) in g.edges() {
        full.union(u, v);
    }
    if n == 0 {
        return Expected {
            labels: Vec::new(),
            giant_root: None,
            edges_processed: 0,
            vertices_skipped: 0,
            trees_after_round: Vec::new(),
        };
    }

    // The neighbor rounds: round i links every vertex to its i-th neighbor.
    let rounds = cfg.neighbor_rounds;
    let mut sampled = MinUnionFind::new(n);
    let mut edges_processed = 0;
    let mut trees_after_round = Vec::new();
    for round in 0..rounds {
        for v in 0..n as Node {
            if round < g.degree(v) {
                sampled.union(v, g.neighbor(v, round));
                edges_processed += 1;
            }
        }
        let labels = sampled.labels();
        trees_after_round.push((0..n).filter(|&v| labels[v] == v as Node).count());
    }

    // After the rounds' compress, π is the sampled components' minimum
    // labels; the giant search samples exactly that array.
    let found = sampled.labels();
    let giant_root = cfg.skip_largest.then(|| {
        let pi = ParentArray::from_vec(found.clone());
        sample_frequent_element(&pi, cfg.sample_size.min(16 * n).max(1), cfg.seed)
    });

    // The final link, one vertex at a time: a vertex in the giant tree as
    // found is skipped, any other links its remaining neighbors.
    let mut vertices_skipped = 0;
    for (v, &label) in (0..n as Node).zip(&found) {
        if giant_root == Some(label) {
            vertices_skipped += 1;
        } else {
            edges_processed += g.degree(v).saturating_sub(rounds);
        }
    }
    Expected {
        labels: full.labels(),
        giant_root,
        edges_processed,
        vertices_skipped,
        trees_after_round,
    }
}

/// A fixed pseudo-random stream (splitmix64) for the test graphs.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }
}

/// `n` vertices whose block-edge vertices (the first three and last three
/// of every 64, and the graph's last three) take degrees 0, 1, …, 6 in
/// turn, each as the center of a star over distinct interior vertices.
/// Sparse random edges among the interior vertices leave several
/// components and some interior vertices of degree 0.
fn block_edge_graph(n: usize) -> CsrGraph {
    let edge = |v: usize| v % 64 < 3 || v % 64 >= 61 || v + 3 >= n;
    let interior: Vec<Node> = (0..n).filter(|&v| !edge(v)).map(|v| v as Node).collect();
    let mut rng = Stream(n as u64);
    let mut edges = Vec::new();
    for (k, center) in (0..n).filter(|&v| edge(v)).enumerate() {
        let degree = (k % 7).min(interior.len());
        let start = rng.below(interior.len().max(1));
        for j in 0..degree {
            edges.push((center as Node, interior[(start + j) % interior.len()]));
        }
    }
    for _ in 0..interior.len() / 3 {
        let (a, b) = (rng.below(interior.len()), rng.below(interior.len()));
        if a != b {
            edges.push((interior[a], interior[b]));
        }
    }
    GraphBuilder::from_edges(n, &edges).build()
}

fn graphs() -> Vec<(String, CsrGraph)> {
    let mut graphs: Vec<(String, CsrGraph)> = [0, 1, 63, 64, 65, 127, 128, 129, 1000]
        .into_iter()
        .map(|n| (format!("block-edge n={n}"), block_edge_graph(n)))
        .collect();
    graphs.extend([
        ("rmat".to_string(), rmat_scale(10, 4, 3)),
        ("urand".to_string(), uniform_random(1_500, 1_400, 5)),
        ("road".to_string(), road_network(36, 36, 0.6, 0.02, 3)),
        ("web".to_string(), web_graph(1_500, 4, 0.7, 8.0, 7)),
    ]);
    graphs
}

fn configs() -> Vec<AfforestConfig> {
    let mut configs = Vec::new();
    for neighbor_rounds in ROUNDS {
        for skip_largest in [true, false] {
            for compress_each_round in [true, false] {
                configs.push(AfforestConfig {
                    neighbor_rounds,
                    skip_largest,
                    compress_each_round,
                    ..AfforestConfig::default()
                });
            }
        }
    }
    configs
}

fn check_stats(what: &str, stats: &RunStats, want: &Expected) {
    assert_eq!(stats.giant_root, want.giant_root, "{what}: giant root");
    assert_eq!(
        stats.edges_processed, want.edges_processed,
        "{what}: edges processed"
    );
    assert_eq!(
        stats.vertices_skipped, want.vertices_skipped,
        "{what}: vertices skipped"
    );
    assert_eq!(
        stats.trees_after_round, want.trees_after_round,
        "{what}: trees after each round"
    );
}

#[test]
fn block_edge_graphs_put_every_degree_at_a_block_edge() {
    // The graphs must hold what the oracle is about: at n = 1000, every
    // degree 0..=6 sits on some block's first or last vertex.
    let g = block_edge_graph(1000);
    for degree in 0..=6 {
        assert!(
            (0..1000u32)
                .filter(|v| v % 64 == 0 || v % 64 == 63)
                .any(|v| g.degree(v) == degree),
            "no block-edge vertex of degree {degree}"
        );
    }
    assert!((0..1000u32).any(|v| g.degree(v) == 0 && v % 64 > 2 && v % 64 < 61));
}

#[test]
fn masked_passes_match_union_find_and_reference_counters() {
    for (name, g) in graphs() {
        for cfg in configs() {
            let want = expected(&g, &cfg);
            for threads in POOLS {
                let what = format!("{name}, {cfg:?}, {threads} threads");
                let (labels, (stat_labels, stats)) = with_pool(threads, || {
                    (afforest(&g, &cfg), afforest_with_stats(&g, &cfg))
                });
                assert_eq!(labels.as_slice(), &want.labels[..], "{what}: labeling");
                assert_eq!(stat_labels, labels, "{what}: stats run labeling");
                check_stats(&what, &stats, &want);
            }
        }
    }
}
