//! Oracle for `IncrementalCc::from_graph`: the seed forest a server
//! starts from must be the very parent array that linking every edge of
//! the graph as one insert batch leaves, byte for byte, on every graph
//! family and pool size.

use afforest_core::IncrementalCc;
use afforest_graph::generators::{
    binary_tree, complete, cycle, path, rmat_scale, road_network, star, uniform_random,
    urand_with_components, web_graph,
};
use afforest_graph::{CsrGraph, GraphBuilder};

const POOLS: [usize; 3] = [1, 2, 4];

fn with_pool<T: Send>(threads: usize, f: impl FnOnce() -> T + Send) -> T {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool")
        .install(f)
}

fn graphs() -> Vec<(&'static str, CsrGraph)> {
    vec![
        ("rmat", rmat_scale(12, 8, 3)),
        // Fewer edges than vertices: many isolated vertices, and a batch
        // below the full-compress threshold.
        ("sparse urand", uniform_random(4_000, 1_500, 5)),
        ("urand components", urand_with_components(3_000, 6, 0.2, 9)),
        ("road", road_network(60, 40, 0.6, 0.01, 3)),
        ("web", web_graph(2_500, 4, 0.75, 8.0, 4)),
        ("path", path(300)),
        ("cycle", cycle(257)),
        ("star", star(200, 117)),
        ("complete", complete(40)),
        ("binary tree", binary_tree(511)),
        ("n = 0", GraphBuilder::from_edges(0, &[]).build()),
        ("n = 1", GraphBuilder::from_edges(1, &[]).build()),
    ]
}

#[test]
fn from_graph_matches_one_insert_batch_of_every_edge() {
    for (name, g) in graphs() {
        for threads in POOLS {
            let (seeded, linked) = with_pool(threads, || {
                let mut oracle = IncrementalCc::new(g.num_vertices());
                oracle.insert_batch(&g.collect_edges());
                (
                    IncrementalCc::from_graph(&g).parents_snapshot(),
                    oracle.parents_snapshot(),
                )
            });
            assert_eq!(seeded, linked, "{name} at {threads} thread(s)");
        }
    }
}
