//! Kronecker / R-MAT graphs (`kron` and the `twitter` stand-in).
//!
//! Recursive-matrix sampling (Chakrabarti et al.): each edge picks one of
//! the four quadrants of the adjacency matrix with probabilities
//! `(a, b, c, d)` at every one of `scale` recursion levels. With the
//! Graph500/GAP parameters `a = 0.57, b = 0.19, c = 0.19, d = 0.05`, the
//! result has a heavily skewed degree distribution, one giant component and
//! many isolated vertices — matching the `kron` rows of Table III. The
//! same generator with milder skew serves as the `twitter` stand-in.
//!
//! Fig. 6c sweeps the edge factor of Kronecker graphs to show Afforest's
//! insensitivity to average degree; [`rmat_scale`] exposes exactly that
//! parameter.

use super::stream_rng;
use crate::{CsrGraph, Edge, GraphBuilder, Node};
use rand::Rng;
use rayon::prelude::*;

/// Quadrant probabilities of the 2×2 seed matrix.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RmatParams {
    /// Top-left quadrant probability (both endpoints in the low half).
    pub a: f64,
    /// Top-right quadrant probability.
    pub b: f64,
    /// Bottom-left quadrant probability.
    pub c: f64,
}

impl RmatParams {
    /// Graph500 / GAP parameters used by the paper's `kron` dataset.
    pub const GRAPH500: Self = Self {
        a: 0.57,
        b: 0.19,
        c: 0.19,
    };

    /// Milder skew, a reasonable social-network (`twitter`) stand-in.
    pub const SOCIAL: Self = Self {
        a: 0.45,
        b: 0.22,
        c: 0.22,
    };

    /// Bottom-right quadrant probability (residual).
    pub fn d(&self) -> f64 {
        1.0 - self.a - self.b - self.c
    }

    /// Validates that all quadrant probabilities are in `[0, 1]`.
    pub fn validate(&self) {
        assert!(
            self.a >= 0.0 && self.b >= 0.0 && self.c >= 0.0 && self.d() >= -1e-12,
            "RMAT quadrant probabilities must be non-negative and sum to at most 1"
        );
    }
}

impl Default for RmatParams {
    fn default() -> Self {
        Self::GRAPH500
    }
}

/// Number of edges generated per parallel chunk.
const CHUNK: usize = 1 << 16;

/// Generates an R-MAT graph with `2^scale` vertices and `m` edge samples.
///
/// Deterministic in `seed`, independent of thread count. Duplicates and
/// self-loops are removed in CSR construction, so — as with real R-MAT
/// data — the realized edge count is below `m`, increasingly so for higher
/// skew.
pub fn rmat(scale: u32, m: usize, params: RmatParams, seed: u64) -> CsrGraph {
    params.validate();
    let n = 1usize << scale;
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
            (lo..hi).map(move |_| sample_edge(scale, params, &mut rng))
        })
        .collect();
    GraphBuilder::from_edges(n, &edges).build()
}

/// GAP-style convenience: `n = 2^scale`, `m = edge_factor · n`,
/// Graph500 parameters.
pub fn rmat_scale(scale: u32, edge_factor: usize, seed: u64) -> CsrGraph {
    rmat(scale, edge_factor << scale, RmatParams::GRAPH500, seed)
}

/// Samples one directed edge by recursive quadrant descent.
fn sample_edge<R: Rng>(scale: u32, p: RmatParams, rng: &mut R) -> Edge {
    let mut u = 0u64;
    let mut v = 0u64;
    let ab = p.a + p.b;
    let abc = ab + p.c;
    for _ in 0..scale {
        u <<= 1;
        v <<= 1;
        let r: f64 = rng.random();
        if r < p.a {
            // top-left: no bits set
        } else if r < ab {
            v |= 1;
        } else if r < abc {
            u |= 1;
        } else {
            u |= 1;
            v |= 1;
        }
    }
    (u as Node, v as Node)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let a = rmat(12, 10_000, RmatParams::GRAPH500, 3);
        let b = rmat(12, 10_000, RmatParams::GRAPH500, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn vertex_count_is_power_of_two() {
        let g = rmat(10, 1000, RmatParams::GRAPH500, 1);
        assert_eq!(g.num_vertices(), 1024);
    }

    #[test]
    fn skewed_degrees() {
        let g = rmat(13, 8 << 13, RmatParams::GRAPH500, 2);
        let max = g.max_degree() as f64;
        let avg = g.avg_degree();
        // Graph500 parameters give a max degree far above the mean.
        assert!(max > 10.0 * avg, "max {max} should dwarf avg {avg}");
    }

    #[test]
    fn isolated_vertices_exist() {
        // RMAT's hallmark: many vertices receive no edges.
        let g = rmat(13, 8 << 13, RmatParams::GRAPH500, 2);
        let isolated = g.vertices().filter(|&v| g.degree(v) == 0).count();
        assert!(isolated > 0);
    }

    #[test]
    fn params_validate_rejects_bad() {
        let bad = RmatParams {
            a: 0.9,
            b: 0.9,
            c: 0.9,
        };
        let result = std::panic::catch_unwind(|| bad.validate());
        assert!(result.is_err());
    }

    #[test]
    fn d_residual() {
        let p = RmatParams::GRAPH500;
        assert!((p.d() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn social_params_milder() {
        let skewed = rmat(12, 4 << 12, RmatParams::GRAPH500, 5);
        let social = rmat(12, 4 << 12, RmatParams::SOCIAL, 5);
        assert!(social.max_degree() < skewed.max_degree());
    }

    #[test]
    fn rmat_scale_convention() {
        let g = rmat_scale(10, 4, 7);
        assert_eq!(g.num_vertices(), 1024);
        assert!(g.num_edges() <= 4 * 1024);
    }
}
