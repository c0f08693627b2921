//! Uniform random graphs (`urand` in Table III).
//!
//! `G(n, m)`-style Erdős–Rényi: `m` endpoint pairs drawn uniformly at
//! random. The GAP benchmark defines `urand` as 2^27 vertices with edge
//! factor 16; we keep the edge-factor convention and let the scale be a
//! parameter so laptop-scale runs remain faithful in shape.
//!
//! For edge factor `k ≥ 1` and `n` large, the graph is far above the
//! connectivity threshold, so it contains a single giant component plus a
//! few isolated vertices — the structure behind the paper's `urand` rows.

use super::stream_rng;
use crate::{CsrGraph, Edge, GraphBuilder, Node};
use rand::Rng;
use rayon::prelude::*;

/// Number of edges generated per parallel chunk.
const CHUNK: usize = 1 << 16;

/// Generates a uniform random graph with `n` vertices and `m` sampled edge
/// slots (self-loops and duplicates are removed during CSR construction, so
/// the final edge count is slightly below `m`).
///
/// Deterministic in `seed`, independent of thread count.
///
/// # Panics
///
/// Panics if `n == 0` but `m > 0`.
pub fn uniform_random(n: usize, m: usize, seed: u64) -> CsrGraph {
    assert!(n > 0 || m == 0, "cannot place edges in an empty graph");
    let num_chunks = m.div_ceil(CHUNK.max(1)).max(1);
    // One part per chunk: there are few, heavy chunks, and the pool runs
    // an operation over at most 256 items on the caller unless capped.
    let edges: Vec<Edge> = (0..num_chunks)
        .into_par_iter()
        .with_max_len(1)
        .flat_map_iter(|chunk| {
            let lo = chunk * CHUNK;
            let hi = ((chunk + 1) * CHUNK).min(m);
            let mut rng = stream_rng(seed, chunk as u64);
            (lo..hi).map(move |_| {
                let u = rng.random_range(0..n as u64) as Node;
                let v = rng.random_range(0..n as u64) as Node;
                (u, v)
            })
        })
        .collect();
    GraphBuilder::from_edges(n, &edges).build()
}

/// Convenience wrapper matching the GAP convention: `scale` gives
/// `n = 2^scale`, `edge_factor` gives `m = edge_factor · n`.
pub fn urand_scale(scale: u32, edge_factor: usize, seed: u64) -> CsrGraph {
    let n = 1usize << scale;
    uniform_random(n, edge_factor * n, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_in_seed() {
        let a = uniform_random(500, 2000, 7);
        let b = uniform_random(500, 2000, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = uniform_random(500, 2000, 7);
        let b = uniform_random(500, 2000, 8);
        assert_ne!(a, b);
    }

    #[test]
    fn edge_count_near_m() {
        let g = uniform_random(10_000, 50_000, 1);
        // Collisions and self-loops remove only a tiny fraction.
        assert!(g.num_edges() > 49_000 && g.num_edges() <= 50_000);
    }

    #[test]
    fn no_self_loops() {
        let g = uniform_random(100, 1000, 3);
        for v in g.vertices() {
            assert!(!g.has_edge(v, v));
        }
    }

    #[test]
    fn urand_scale_sizes() {
        let g = urand_scale(10, 4, 5);
        assert_eq!(g.num_vertices(), 1024);
        assert!(g.num_edges() <= 4096 && g.num_edges() > 3900);
    }

    #[test]
    fn empty_is_ok() {
        let g = uniform_random(0, 0, 0);
        assert_eq!(g.num_vertices(), 0);
    }

    #[test]
    #[should_panic(expected = "empty graph")]
    fn rejects_edges_without_vertices() {
        let _ = uniform_random(0, 5, 0);
    }

    #[test]
    fn spans_multiple_chunks_deterministically() {
        // m > CHUNK forces the multi-chunk path.
        let m = super::CHUNK + 100;
        let a = uniform_random(1 << 12, m, 9);
        let b = uniform_random(1 << 12, m, 9);
        assert_eq!(a, b);
    }
}
