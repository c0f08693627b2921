//! Vertex-space sharding plan.
//!
//! A [`ShardPlan`] wraps a [`VertexPartition`] with `Block` layout so
//! every shard owns one contiguous slice of the vertex space. The plan
//! answers three questions the router asks on every request:
//!
//! - which shard owns a vertex (and therefore a read about it),
//! - whether an edge is *internal* (both endpoints on one shard) or a
//!   *cut* edge (endpoints on two shards), and
//! - how to translate between global vertex ids and the shard-local
//!   ids the per-shard engines speak.
//!
//! The owner rule for edges is inherited from
//! [`VertexPartition::edge_owner`]: the shard owning `min(u, v)` owns
//! the edge, which makes routing symmetric in the endpoint order.

use std::ops::Range;

use afforest_distrib::{PartitionKind, VertexPartition};
use afforest_graph::Node;

/// A batch of edges split by destination: per-shard internal edges in
/// shard-local ids, plus the cut edges (still in global ids) destined
/// for the boundary store.
#[derive(Debug)]
pub struct RoutedEdges {
    /// Internal edges per shard, translated to shard-local ids.
    pub per_shard: Vec<Vec<(Node, Node)>>,
    /// Cut edges in global ids; exactly the edges whose endpoints live
    /// on two different shards.
    pub cut: Vec<(Node, Node)>,
}

/// Block partition of `n` vertices across `shards` contiguous slices,
/// with global/local id translation.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    part: VertexPartition,
    ranges: Vec<Range<Node>>,
}

impl ShardPlan {
    /// Plans `shards` contiguous slices over `n` vertices. `shards` is
    /// clamped to at least 1; shards beyond `n` get empty slices.
    pub fn new(n: usize, shards: usize) -> ShardPlan {
        let shards = shards.max(1);
        let part = VertexPartition::new(n, shards, PartitionKind::Block);
        let ranges = (0..shards)
            .map(|k| part.rank_range(k).unwrap_or(n as Node..n as Node))
            .collect();
        ShardPlan { part, ranges }
    }

    /// Number of shards in the plan.
    pub fn num_shards(&self) -> usize {
        self.ranges.len()
    }

    /// Global vertex count.
    pub fn vertices(&self) -> usize {
        self.part.len()
    }

    /// The shard owning global vertex `v`.
    pub fn owner(&self, v: Node) -> usize {
        self.part.owner(v)
    }

    /// Whether `(u, v)` spans two shards.
    pub fn is_cut(&self, u: Node, v: Node) -> bool {
        self.part.is_cut(u, v)
    }

    /// The contiguous global-id slice owned by `shard`; empty for
    /// shards past the vertex count. Returns an empty range rather
    /// than panicking for out-of-range shard indices.
    pub fn range(&self, shard: usize) -> Range<Node> {
        self.ranges
            .get(shard)
            .cloned()
            .unwrap_or_else(|| self.part.len() as Node..self.part.len() as Node)
    }

    /// Number of vertices owned by `shard`.
    pub fn shard_len(&self, shard: usize) -> usize {
        let r = self.range(shard);
        (r.end - r.start) as usize
    }

    /// Translates a global vertex id to the owning shard's local id.
    pub fn to_local(&self, v: Node) -> Node {
        v - self.range(self.owner(v)).start
    }

    /// Translates a shard-local id back to the global id.
    pub fn to_global(&self, shard: usize, local: Node) -> Node {
        self.range(shard).start + local
    }

    /// Splits a batch of global-id edges into per-shard internal
    /// batches (local ids) and the global-id cut list. Every input
    /// edge lands in exactly one output bucket. Takes any edge source,
    /// so a graph's edges can be split without first collecting them.
    pub fn split_batch(&self, edges: impl IntoIterator<Item = (Node, Node)>) -> RoutedEdges {
        let mut per_shard = vec![Vec::new(); self.num_shards()];
        let mut cut = Vec::new();
        for (u, v) in edges {
            if self.is_cut(u, v) {
                cut.push((u, v));
            } else {
                let s = self.owner(u);
                let base = self.range(s).start;
                per_shard[s].push((u - base, v - base));
            }
        }
        RoutedEdges { per_shard, cut }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_tile_the_vertex_space() {
        let plan = ShardPlan::new(10, 3);
        let mut covered = Vec::new();
        for k in 0..plan.num_shards() {
            covered.extend(plan.range(k));
        }
        assert_eq!(covered, (0..10).collect::<Vec<Node>>());
    }

    #[test]
    fn local_global_roundtrip() {
        let plan = ShardPlan::new(100, 4);
        for v in 0..100 {
            let s = plan.owner(v);
            assert_eq!(plan.to_global(s, plan.to_local(v)), v);
        }
    }

    #[test]
    fn split_batch_buckets_every_edge_once() {
        let plan = ShardPlan::new(20, 4);
        let edges: Vec<(Node, Node)> = (0..19).map(|i| (i, i + 1)).collect();
        let routed = plan.split_batch(edges.iter().copied());
        let internal: usize = routed.per_shard.iter().map(Vec::len).sum();
        assert_eq!(internal + routed.cut.len(), edges.len());
        for (k, batch) in routed.per_shard.iter().enumerate() {
            let len = plan.shard_len(k) as Node;
            for &(u, v) in batch {
                assert!(
                    u < len && v < len,
                    "shard {k} got non-local edge ({u}, {v})"
                );
            }
        }
        for &(u, v) in &routed.cut {
            assert!(plan.is_cut(u, v));
        }
    }

    #[test]
    fn more_shards_than_vertices_yields_empty_tails() {
        let plan = ShardPlan::new(3, 8);
        assert_eq!(plan.num_shards(), 8);
        let total: usize = (0..8).map(|k| plan.shard_len(k)).sum();
        assert_eq!(total, 3);
        assert_eq!(plan.shard_len(7), 0);
    }
}
