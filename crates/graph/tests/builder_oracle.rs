//! The CSR builder against a sequential reference.
//!
//! The reference symmetrizes the edges (a self-loop is one arc), sorts
//! each adjacency list, and deduplicates or drops loops per the flags.
//! The builder partitions arcs by source bucket across edge chunks, so
//! the inputs here span many buckets and chunks and stress what the
//! partition could get wrong: hubs holding more arcs than a whole bucket,
//! self-loops, duplicates and reversed duplicates, vertex counts that are
//! not powers of two or smaller than one bucket, and empty graphs. Every
//! input is built under every flag combination in pools of 1, 2, 3 and 8
//! threads, and every build must equal the reference.

use afforest_graph::{CsrGraph, Edge, EdgeList, GraphBuilder, Node};

const THREADS: [usize; 4] = [1, 2, 3, 8];

/// `(dedup, drop_self_loops)`.
const FLAGS: [(bool, bool); 4] = [(true, true), (true, false), (false, true), (false, false)];

fn reference(n: usize, edges: &[Edge], dedup: bool, drop_self_loops: bool) -> CsrGraph {
    let mut lists: Vec<Vec<Node>> = vec![Vec::new(); n];
    for &(u, v) in edges {
        if u == v {
            if !drop_self_loops {
                lists[u as usize].push(u);
            }
        } else {
            lists[u as usize].push(v);
            lists[v as usize].push(u);
        }
    }
    let mut offsets = vec![0];
    let mut targets = Vec::new();
    for mut list in lists {
        list.sort_unstable();
        if dedup {
            list.dedup();
        }
        targets.extend(list);
        offsets.push(targets.len());
    }
    CsrGraph::from_parts(offsets, targets)
}

fn build_in_pool(threads: usize, builder: GraphBuilder<'_>) -> CsrGraph {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool")
        .install(|| builder.build())
}

/// Builds `edges` under every flag combination and pool size and checks
/// each build against the reference.
fn check(name: &str, n: usize, edges: &[Edge]) {
    for (dedup, drop_self_loops) in FLAGS {
        let want = reference(n, edges, dedup, drop_self_loops);
        let builds: Vec<CsrGraph> = THREADS
            .iter()
            .map(|&t| {
                build_in_pool(
                    t,
                    GraphBuilder::from_edges(n, edges)
                        .dedup(dedup)
                        .drop_self_loops(drop_self_loops),
                )
            })
            .collect();
        for (t, g) in THREADS.iter().zip(&builds) {
            assert!(
                *g == want,
                "{name}: {t} threads, dedup {dedup}, drop_self_loops {drop_self_loops}: \
                 differs from the reference ({} vs {} arcs)",
                g.num_arcs(),
                want.num_arcs()
            );
        }
        assert!(builds.windows(2).all(|w| w[0] == w[1]), "{name}");
    }
}

/// SplitMix64, so the inputs need no generator from the crate under test.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> Node {
        (self.next() % n as u64) as Node
    }
}

/// `m` random edges over `n` vertices, then `hubs` vertices joined to
/// `hub_degree` random vertices each, then a self-loop, a duplicate and a
/// reversed duplicate for about one edge in fifty, shuffled together.
fn messy_edges(n: usize, m: usize, hubs: &[Node], hub_degree: usize, seed: u64) -> Vec<Edge> {
    let mut mix = Mix(seed);
    let mut edges: Vec<Edge> = (0..m).map(|_| (mix.below(n), mix.below(n))).collect();
    for &h in hubs {
        edges.extend((0..hub_degree).map(|_| (h, mix.below(n))));
    }
    for i in 0..edges.len() / 50 {
        let (u, v) = edges[i * 50];
        edges.push((u, u));
        edges.push((u, v));
        edges.push((v, u));
    }
    for i in (1..edges.len()).rev() {
        edges.swap(i, mix.below(i + 1) as usize);
    }
    edges
}

#[test]
fn hubs_larger_than_a_bucket_across_many_chunks() {
    // About 8 arcs per vertex, so buckets of about 4K vertices: 25
    // buckets, and hubs (first, last and a middle vertex) with more arcs
    // than a bucket's share, over enough edges for several chunks per
    // thread.
    let n = 100_003;
    let hubs = [0, 50_001, (n - 1) as Node];
    let edges = messy_edges(n, 250_000, &hubs, 40_000, 7);
    check("hubs", n, &edges);
}

#[test]
fn dense_graph_with_many_duplicates() {
    // 300 vertices and 60k edges: every pair appears about once, every
    // list is long and full of duplicates, and the vertices span several
    // narrow buckets.
    let edges = messy_edges(300, 60_000, &[], 0, 11);
    check("dense", 300, &edges);
}

#[test]
fn graphs_smaller_than_one_bucket() {
    check("37 vertices", 37, &messy_edges(37, 2_000, &[3], 500, 13));
    check("sparse", 1_000, &messy_edges(1_000, 50, &[], 0, 17));
    check("one edge", 2, &[(1, 0)]);
    check("only loops", 3, &[(2, 2), (0, 0), (2, 2)]);
}

#[test]
fn empty_graphs() {
    check("no vertices", 0, &[]);
    check("one vertex", 1, &[]);
    check("one vertex, looped", 1, &[(0, 0), (0, 0)]);
    check("no edges", 5, &[]);
}

#[test]
fn owned_and_extended_builders_match_the_reference() {
    let n = 20_011;
    let edges = messy_edges(n, 60_000, &[19], 9_000, 23);
    let extra: [Edge; 4] = [(4, 9), (9, 4), (7, 7), (20_010, 0)];
    let mut all = edges.clone();
    all.extend_from_slice(&extra);
    let want = reference(n, &all, true, true);
    for t in THREADS {
        // A borrowed builder that then gets edges of its own.
        let mut borrowed = GraphBuilder::from_edges(n, &edges);
        for &(u, v) in &extra {
            borrowed.add_edge(u, v);
        }
        let clone = borrowed.clone();
        assert!(build_in_pool(t, borrowed) == want, "borrowed, {t} threads");
        assert!(build_in_pool(t, clone) == want, "clone, {t} threads");

        let mut el = EdgeList::new(n);
        for &(u, v) in &all {
            el.push(u, v);
        }
        assert!(
            build_in_pool(t, GraphBuilder::from_edge_list(el)) == want,
            "edge list, {t} threads"
        );

        let mut fresh = GraphBuilder::new(n);
        for &(u, v) in &all {
            fresh.add_edge(u, v);
        }
        assert!(
            build_in_pool(t, fresh) == want,
            "new + add_edge, {t} threads"
        );
    }
}
