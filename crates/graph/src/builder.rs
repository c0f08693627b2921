//! Parallel CSR construction.
//!
//! The build symmetrizes the edges (each edge `{u, v}` becomes the arcs
//! `u → v` and `v → u`), groups the arcs by source, then sorts and
//! optionally deduplicates every adjacency list. It is a two-pass
//! partition by *source bucket*, a run of `2^k` consecutive vertex ids,
//! and it uses no atomics.
//!
//! GAPBS's `BuilderBase` counts degrees and claims scatter slots with one
//! `fetch_add` per arc endpoint. On x86 each is a `lock xadd` on a random
//! cache line and a full barrier, so the cache misses of a scatter cannot
//! overlap: the memory access pattern Section V-C argues about. Here
//! every write goes to a range only its writer holds, cut from one buffer
//! with `split_at_mut`, and the scatter by source runs within one bucket,
//! whose counters and targets fit in cache:
//!
//! 1. **Partition.** The edges are cut into a few contiguous chunks per
//!    thread. Each chunk counts its arcs per bucket; the counts lay out one
//!    arc buffer bucket-major, chunk-minor; each chunk then writes its
//!    arcs sequentially into its own range of every bucket.
//! 2. **Bucket pass.** Each bucket owns its slices of the targets and of
//!    the per-vertex degrees. It counting-sorts its arcs by source, with
//!    one counter per vertex of the bucket, then sorts each list in place,
//!    drops duplicates if asked, and packs the bucket's lists to its front.
//!
//! The offsets come from one prefix sum over the final degrees, and the
//! gaps deduplication left between buckets close with one left-to-right
//! pass of `copy_within`. The result is canonical, so it is the same for
//! every thread count.
//!
//! **Bucket width.** A bucket spans the largest power-of-two number of
//! vertices holding at most about 32K arcs at the input's mean degree, so
//! one bucket's counters and targets stay in cache (1024 vertices on
//! kron 2^20, about 30 arcs per vertex). The width is then raised, if
//! needed, so there are at most 4096 buckets, which keeps the per-chunk
//! counts and range tables at O(chunks × buckets) words for any `n`.

use crate::{CsrGraph, Edge, EdgeList, Node};
use rayon::prelude::*;
use std::borrow::Cow;
use std::slice::IterMut;

/// Arcs one bucket should hold at the input's mean degree.
const BUCKET_ARCS: usize = 1 << 15;

/// Most buckets one build uses.
const MAX_BUCKETS: usize = 1 << 12;

/// Edge chunks the partition cuts per thread.
const CHUNKS_PER_THREAD: usize = 4;

/// Fewest edges in one chunk: smaller inputs are partitioned by fewer
/// chunks, down to one that runs on the calling thread.
const MIN_CHUNK_EDGES: usize = 1 << 13;

/// Configurable builder from edges to [`CsrGraph`].
///
/// A builder borrows the edges it is seeded with by
/// [`GraphBuilder::from_edges`] and copies them only if
/// [`GraphBuilder::add_edge`] is called.
///
/// ```
/// use afforest_graph::GraphBuilder;
/// let g = GraphBuilder::from_edges(3, &[(0, 1), (1, 2), (1, 2)]).build();
/// assert_eq!(g.num_edges(), 2); // duplicates removed by default
/// ```
#[derive(Clone, Debug)]
pub struct GraphBuilder<'a> {
    num_vertices: usize,
    edges: Cow<'a, [Edge]>,
    dedup: bool,
    drop_self_loops: bool,
}

impl<'a> GraphBuilder<'a> {
    /// Starts an empty builder over `num_vertices` vertices.
    pub fn new(num_vertices: usize) -> Self {
        Self {
            num_vertices,
            edges: Cow::Owned(Vec::new()),
            dedup: true,
            drop_self_loops: true,
        }
    }

    /// Builder seeded from a slice of undirected edges, which it borrows.
    pub fn from_edges(num_vertices: usize, edges: &'a [Edge]) -> Self {
        Self {
            edges: Cow::Borrowed(edges),
            ..Self::new(num_vertices)
        }
    }

    /// Builder consuming an [`EdgeList`].
    pub fn from_edge_list(el: EdgeList) -> Self {
        Self {
            num_vertices: el.num_vertices(),
            edges: Cow::Owned(el.into_edges()),
            ..Self::new(0)
        }
    }

    /// Adds one undirected edge.
    pub fn add_edge(&mut self, u: Node, v: Node) -> &mut Self {
        self.edges.to_mut().push((u, v));
        self
    }

    /// Whether to remove parallel (duplicate) edges. Default `true`.
    pub fn dedup(mut self, yes: bool) -> Self {
        self.dedup = yes;
        self
    }

    /// Whether to remove self-loops. Default `true`.
    ///
    /// Self-loops never affect connectivity; dropping them matches the GAP
    /// benchmark preprocessing. A kept self-loop is one arc, not two.
    pub fn drop_self_loops(mut self, yes: bool) -> Self {
        self.drop_self_loops = yes;
        self
    }

    /// Builds the symmetrized CSR graph.
    ///
    /// # Panics
    ///
    /// Panics if any edge endpoint is `>= num_vertices`.
    pub fn build(self) -> CsrGraph {
        let n = self.num_vertices;
        assert!(
            self.edges
                .par_iter()
                .all(|&(u, v)| (u as usize) < n && (v as usize) < n),
            "edge endpoint out of range for {} vertices",
            n
        );
        let shift = bucket_shift(n, 2 * self.edges.len());
        let width = 1usize << shift;
        let buckets = n.div_ceil(width);
        let (dedup, keep_loops) = (self.dedup, !self.drop_self_loops);

        // Pass 1: count each chunk's arcs per bucket, lay the arc buffer
        // out bucket-major and chunk-minor, and let every chunk fill its
        // own range of each bucket.
        let chunk_len = self
            .edges
            .len()
            .div_ceil(CHUNKS_PER_THREAD * rayon::current_num_threads())
            .max(MIN_CHUNK_EDGES);
        let counts: Vec<Vec<usize>> = self
            .edges
            .par_chunks(chunk_len)
            .with_max_len(1)
            .map(|chunk| {
                let mut count = vec![0usize; buckets];
                for_each_arc(chunk, keep_loops, |s, _| count[s as usize >> shift] += 1);
                count
            })
            .collect();
        let mut bucket_start = Vec::with_capacity(buckets + 1);
        let mut total = 0usize;
        for b in 0..buckets {
            bucket_start.push(total);
            total += counts.iter().map(|count| count[b]).sum::<usize>();
        }
        bucket_start.push(total);

        let mut arcs: Vec<Edge> = vec![(0, 0); total];
        let mut sinks: Vec<Vec<IterMut<'_, Edge>>> =
            counts.iter().map(|_| Vec::with_capacity(buckets)).collect();
        let mut rest = &mut arcs[..];
        for b in 0..buckets {
            for (sink, count) in sinks.iter_mut().zip(&counts) {
                let (range, tail) = std::mem::take(&mut rest).split_at_mut(count[b]);
                sink.push(range.iter_mut());
                rest = tail;
            }
        }
        drop(counts);
        self.edges
            .chunks(chunk_len)
            .zip(sinks)
            .collect::<Vec<_>>()
            .into_par_iter()
            .with_max_len(1)
            .for_each(|(chunk, mut sink)| {
                for_each_arc(chunk, keep_loops, |s, t| {
                    *sink[s as usize >> shift].next().expect("counted") = (s, t);
                })
            });
        drop(self.edges);

        // Pass 2: every bucket sorts its own arcs into its own slices of
        // `targets` and `degree`.
        let mut targets: Vec<Node> = vec![0; total];
        let mut degree = vec![0usize; n];
        let mut work = Vec::with_capacity(buckets);
        let mut rest = &mut targets[..];
        for (b, degree) in degree.chunks_mut(width).enumerate() {
            let range = bucket_start[b]..bucket_start[b + 1];
            let (bucket_targets, tail) = std::mem::take(&mut rest).split_at_mut(range.len());
            work.push((&arcs[range], bucket_targets, degree));
            rest = tail;
        }
        let kept: Vec<usize> = work
            .into_par_iter()
            .with_max_len(1)
            .map(|(arcs, targets, degree)| sort_bucket(arcs, targets, degree, width - 1, dedup))
            .collect();
        drop(arcs);

        // Close the gaps deduplication left between buckets.
        let mut len = 0usize;
        for (&start, &kept) in bucket_start.iter().zip(&kept) {
            if start != len {
                targets.copy_within(start..start + kept, len);
            }
            len += kept;
        }
        targets.truncate(len);

        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for d in degree {
            acc += d;
            offsets.push(acc);
        }
        CsrGraph::from_parts(offsets, targets)
    }
}

/// `log2` of the bucket width for `n` vertices and about `arcs` arcs: the
/// widest power of two that holds about [`BUCKET_ARCS`] arcs at the mean
/// degree, but no wider than all `n` vertices, widened if needed to keep
/// at most [`MAX_BUCKETS`] buckets.
fn bucket_shift(n: usize, arcs: usize) -> u32 {
    let per_bucket = (BUCKET_ARCS as u128 * n as u128 / arcs.max(1) as u128).max(1);
    let at_mean_degree = per_bucket.ilog2().min(n.next_power_of_two().ilog2());
    let at_bucket_cap = n.div_ceil(MAX_BUCKETS).next_power_of_two().ilog2();
    at_mean_degree.max(at_bucket_cap)
}

/// Calls `f(source, target)` for every arc of `edges`: both directions of
/// each edge, one arc for a self-loop if `keep_loops`, none otherwise.
#[inline]
fn for_each_arc(edges: &[Edge], keep_loops: bool, mut f: impl FnMut(Node, Node)) {
    for &(u, v) in edges {
        if u != v {
            f(u, v);
            f(v, u);
        } else if keep_loops {
            f(u, u);
        }
    }
}

/// Sorts one bucket's `arcs` by source into `targets`, then sorts each
/// adjacency list, drops its duplicates if `dedup`, and packs the lists
/// to the front of `targets`. `degree` holds one zeroed counter per
/// vertex of the bucket, the vertex `s` at `s & mask`, and ends with each
/// final degree. Returns the number of targets kept.
fn sort_bucket(
    arcs: &[Edge],
    targets: &mut [Node],
    degree: &mut [usize],
    mask: usize,
    dedup: bool,
) -> usize {
    for &(s, _) in arcs {
        degree[s as usize & mask] += 1;
    }
    let mut next = Vec::with_capacity(degree.len());
    let mut acc = 0usize;
    for &d in degree.iter() {
        next.push(acc);
        acc += d;
    }
    for &(s, t) in arcs {
        let slot = &mut next[s as usize & mask];
        targets[*slot] = t;
        *slot += 1;
    }

    let (mut start, mut len) = (0usize, 0usize);
    for d in degree.iter_mut() {
        let list = &mut targets[start..start + *d];
        list.sort_unstable();
        let kept = if dedup {
            dedup_sorted(list)
        } else {
            list.len()
        };
        if start != len {
            targets.copy_within(start..start + kept, len);
        }
        start += *d;
        *d = kept;
        len += kept;
    }
    len
}

/// Moves the distinct values of the sorted `list` to its front, in order,
/// and returns how many there are.
fn dedup_sorted(list: &mut [Node]) -> usize {
    let mut kept = 0usize;
    for i in 0..list.len() {
        if kept == 0 || list[i] != list[kept - 1] {
            list[kept] = list[i];
            kept += 1;
        }
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symmetrizes() {
        let g = GraphBuilder::from_edges(3, &[(0, 1)]).build();
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[0]);
    }

    #[test]
    fn dedups_parallel_edges() {
        let g = GraphBuilder::from_edges(2, &[(0, 1), (0, 1), (1, 0)]).build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.degree(0), 1);
    }

    #[test]
    fn keeps_parallel_edges_when_asked() {
        let g = GraphBuilder::from_edges(2, &[(0, 1), (0, 1)])
            .dedup(false)
            .build();
        assert_eq!(g.num_arcs(), 4);
        assert_eq!(g.neighbors(0), &[1, 1]);
    }

    #[test]
    fn drops_self_loops_by_default() {
        let g = GraphBuilder::from_edges(2, &[(0, 0), (0, 1)]).build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.degree(0), 1);
    }

    #[test]
    fn keeps_self_loops_when_asked() {
        let g = GraphBuilder::from_edges(2, &[(0, 0), (0, 1)])
            .drop_self_loops(false)
            .dedup(false)
            .build();
        // Self-loop contributes one arc slot.
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.neighbors(0), &[0, 1]);
    }

    #[test]
    fn adjacency_sorted() {
        let g = GraphBuilder::from_edges(5, &[(0, 4), (0, 2), (0, 3), (0, 1)]).build();
        assert_eq!(g.neighbors(0), &[1, 2, 3, 4]);
    }

    #[test]
    fn from_edge_list_roundtrip() {
        let mut el = EdgeList::new(4);
        el.push(0, 1);
        el.push(2, 3);
        let g = GraphBuilder::from_edge_list(el).build();
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn add_edge_chains() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1).add_edge(1, 2);
        let g = b.build();
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn bucket_width_follows_mean_degree_within_the_bucket_cap() {
        // kron 2^20: about 30 arcs per vertex, so 1024-vertex buckets.
        assert_eq!(bucket_shift(1 << 20, 31_406_164), 10);
        // A mean degree of 1024 would want 32-vertex buckets, but 2^24
        // vertices then need 4096-vertex buckets to stay at 4096.
        assert_eq!(bucket_shift(1 << 24, 1 << 34), 12);
        // Sparse inputs get one bucket, no wider than the graph.
        assert_eq!(bucket_shift(1_000, 100), 10);
        assert_eq!(bucket_shift(1, 0), 0);
        assert_eq!(bucket_shift(0, 0), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range() {
        let _ = GraphBuilder::from_edges(2, &[(0, 5)]).build();
    }

    #[test]
    fn large_random_build_is_consistent() {
        // Deterministic pseudo-random edges; verify arc count and symmetry.
        let n = 1000u32;
        let mut edges = Vec::new();
        let mut x = 12345u64;
        for _ in 0..5000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = ((x >> 33) % n as u64) as Node;
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = ((x >> 33) % n as u64) as Node;
            edges.push((u, v));
        }
        let g = GraphBuilder::from_edges(n as usize, &edges).build();
        for u in 0..n {
            for &v in g.neighbors(u) {
                assert!(g.has_edge(v, u), "asymmetric edge ({u},{v})");
            }
            assert!(g.neighbors(u).windows(2).all(|w| w[0] < w[1]));
        }
    }
}
