//! The chunked edge samplers against pool size.
//!
//! `rmat` and `uniform_random` cut their samples into 65,536-edge chunks,
//! each drawn from its own seeded stream, and run one chunk per pool part.
//! `collect` keeps chunk order, so a graph of several chunks must come
//! out identical in pools of 1, 2 and 3 threads.

use afforest_graph::generators::{rmat, uniform_random, RmatParams};
use afforest_graph::CsrGraph;

const THREADS: [usize; 3] = [1, 2, 3];

/// Samples spanning three full chunks and part of a fourth.
const SAMPLES: usize = 3 * (1 << 16) + 1_234;

fn in_pool(threads: usize, generate: impl Fn() -> CsrGraph + Send + Sync) -> CsrGraph {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool")
        .install(generate)
}

fn check(name: &str, generate: impl Fn() -> CsrGraph + Send + Sync) {
    let graphs: Vec<CsrGraph> = THREADS.iter().map(|&t| in_pool(t, &generate)).collect();
    assert!(graphs[0].num_arcs() > 0, "{name}: empty graph");
    for (t, g) in THREADS.iter().zip(&graphs) {
        assert!(*g == graphs[0], "{name}: {t} threads differ from 1 thread");
    }
}

#[test]
fn rmat_is_identical_in_every_pool() {
    check("rmat", || rmat(14, SAMPLES, RmatParams::GRAPH500, 7));
}

#[test]
fn uniform_random_is_identical_in_every_pool() {
    check("uniform_random", || uniform_random(10_007, SAMPLES, 7));
}
