//! Immutable Compressed-Sparse-Row (CSR) graph.
//!
//! The CSR layout stores, for every vertex `v`, the half-open slice
//! `targets[offsets[v] .. offsets[v + 1]]` of its neighbors, sorted
//! ascending. For an undirected graph every edge `{u, v}` appears twice —
//! once in each endpoint's adjacency — exactly like the representation the
//! paper's algorithms traverse ("each unordered edge is accessed twice,
//! once from each direction", Section IV-D). Theorem 3's large-component
//! skip depends on that redundancy.

use crate::{Edge, Error, Node};
use rayon::prelude::*;

/// An immutable undirected graph in CSR form.
///
/// Construction goes through [`crate::GraphBuilder`], which symmetrizes,
/// sorts, and deduplicates the input edges. All query methods are `O(1)` or
/// `O(log degree)` and the structure is freely shareable across threads.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CsrGraph {
    /// `offsets[v]..offsets[v+1]` indexes `targets` for vertex `v`.
    /// Length `num_vertices + 1`; `offsets[0] == 0`.
    offsets: Box<[usize]>,
    /// Concatenated sorted adjacency lists. Length = 2 × undirected edges.
    targets: Box<[Node]>,
}

impl CsrGraph {
    /// Assembles a CSR graph from raw parts.
    ///
    /// # Panics
    ///
    /// Panics if the offsets are not monotone, do not start at 0, do not end
    /// at `targets.len()`, or if any target is out of range — use
    /// [`CsrGraph::try_from_parts`] to get an error instead. Adjacency lists
    /// need not be sorted here (the builder sorts them), but all public
    /// constructors produce sorted lists.
    pub fn from_parts(offsets: Vec<usize>, targets: Vec<Node>) -> Self {
        Self::try_from_parts(offsets, targets).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`CsrGraph::from_parts`]: returns
    /// [`Error::InvalidGraph`] instead of panicking, so deserializers can
    /// reject corrupt files gracefully.
    pub fn try_from_parts(offsets: Vec<usize>, targets: Vec<Node>) -> Result<Self, Error> {
        let invalid = |msg: &str| Err(Error::InvalidGraph(msg.to_string()));
        if offsets.is_empty() {
            return invalid("offsets must have at least one entry");
        }
        if offsets[0] != 0 {
            return invalid("offsets must start at 0");
        }
        if *offsets.last().unwrap() != targets.len() {
            return invalid("offsets must end at targets.len()");
        }
        if !offsets.par_windows(2).all(|w| w[0] <= w[1]) {
            return invalid("offsets must be monotone non-decreasing");
        }
        let n = offsets.len() - 1;
        if !targets.par_iter().all(|&t| (t as usize) < n) {
            return invalid("edge target out of range");
        }
        Ok(Self {
            offsets: offsets.into_boxed_slice(),
            targets: targets.into_boxed_slice(),
        })
    }

    /// Number of vertices `|V|`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of *undirected* edges `|E|` (each stored twice internally).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.targets.len() / 2
    }

    /// Number of directed arcs stored (`2 |E|`).
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.targets.len()
    }

    /// Degree of vertex `v`.
    #[inline]
    pub fn degree(&self, v: Node) -> usize {
        let v = v as usize;
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Sorted neighbor slice of vertex `v`.
    #[inline]
    pub fn neighbors(&self, v: Node) -> &[Node] {
        let v = v as usize;
        &self.targets[self.offsets[v]..self.offsets[v + 1]]
    }

    /// The `i`-th neighbor of `v` (`i < degree(v)`), used by the paper's
    /// neighbor-round sampling which links "the same neighbor index during
    /// each link round" (Section VI-A).
    #[inline]
    pub fn neighbor(&self, v: Node, i: usize) -> Node {
        self.targets[self.offsets[v as usize] + i]
    }

    /// Whether the undirected edge `{u, v}` is present (binary search).
    pub fn has_edge(&self, u: Node, v: Node) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterator over all vertices `0..|V|`.
    pub fn vertices(&self) -> impl Iterator<Item = Node> + '_ {
        0..self.num_vertices() as Node
    }

    /// Parallel iterator over all vertices.
    pub fn par_vertices(&self) -> impl IndexedParallelIterator<Item = Node> + '_ {
        (0..self.num_vertices() as Node).into_par_iter()
    }

    /// Iterator over every undirected edge exactly once (`u < v` only for
    /// distinct endpoints; self-loops, if any survive construction, appear
    /// once).
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.vertices().flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .filter(move |&&v| u <= v)
                .map(move |&v| (u, v))
        })
    }

    /// Iterator over every directed arc `(u, v)` (each undirected edge twice).
    pub fn arcs(&self) -> impl Iterator<Item = Edge> + '_ {
        self.vertices()
            .flat_map(move |u| self.neighbors(u).iter().map(move |&v| (u, v)))
    }

    /// Collects every undirected edge exactly once into a vector (parallel).
    pub fn collect_edges(&self) -> Vec<Edge> {
        self.par_vertices()
            .flat_map_iter(|u| {
                self.neighbors(u)
                    .iter()
                    .filter(move |&&v| u <= v)
                    .map(move |&v| (u, v))
            })
            .collect()
    }

    /// Maximum degree across all vertices (parallel reduction).
    pub fn max_degree(&self) -> usize {
        self.par_vertices()
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }

    /// Average degree `2|E| / |V|`.
    pub fn avg_degree(&self) -> f64 {
        if self.num_vertices() == 0 {
            0.0
        } else {
            self.num_arcs() as f64 / self.num_vertices() as f64
        }
    }

    /// Raw offsets slice (exposed for zero-copy serialization and harness
    /// code that partitions the arc range).
    #[inline]
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// Raw targets slice.
    #[inline]
    pub fn targets(&self) -> &[Node] {
        &self.targets
    }

    /// Estimated resident size in bytes (offsets + targets arrays).
    pub fn size_bytes(&self) -> usize {
        self.offsets.len() * size_of::<usize>() + self.targets.len() * size_of::<Node>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn triangle_plus_edge() -> CsrGraph {
        GraphBuilder::from_edges(5, &[(0, 1), (1, 2), (2, 0), (3, 4)]).build()
    }

    #[test]
    fn counts() {
        let g = triangle_plus_edge();
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.num_arcs(), 8);
    }

    #[test]
    fn degrees_and_neighbors() {
        let g = triangle_plus_edge();
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(3), 1);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(4), &[3]);
        assert_eq!(g.neighbor(0, 1), 2);
    }

    #[test]
    fn has_edge_both_directions() {
        let g = triangle_plus_edge();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 3));
    }

    #[test]
    fn edges_are_unique_and_canonical() {
        let g = triangle_plus_edge();
        let mut es: Vec<_> = g.edges().collect();
        es.sort_unstable();
        assert_eq!(es, vec![(0, 1), (0, 2), (1, 2), (3, 4)]);
    }

    #[test]
    fn collect_edges_matches_sequential() {
        let g = triangle_plus_edge();
        let mut par = g.collect_edges();
        par.sort_unstable();
        let mut seq: Vec<_> = g.edges().collect();
        seq.sort_unstable();
        assert_eq!(par, seq);
    }

    #[test]
    fn arcs_double_edges() {
        let g = triangle_plus_edge();
        assert_eq!(g.arcs().count(), 2 * g.num_edges());
    }

    #[test]
    fn degree_stats() {
        let g = triangle_plus_edge();
        assert_eq!(g.max_degree(), 2);
        assert!((g.avg_degree() - 1.6).abs() < 1e-12);
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::from_edges(0, &[]).build();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.avg_degree(), 0.0);
    }

    #[test]
    fn isolated_vertices() {
        let g = GraphBuilder::from_edges(10, &[(0, 1)]).build();
        assert_eq!(g.num_vertices(), 10);
        assert_eq!(g.degree(5), 0);
        assert!(g.neighbors(9).is_empty());
    }

    #[test]
    #[should_panic(expected = "offsets must start at 0")]
    fn bad_offsets_start() {
        let _ = CsrGraph::from_parts(vec![1, 2], vec![0, 0]);
    }

    #[test]
    #[should_panic(expected = "edge target out of range")]
    fn bad_target() {
        let _ = CsrGraph::from_parts(vec![0, 1], vec![7]);
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn non_monotone_offsets() {
        let _ = CsrGraph::from_parts(vec![0, 2, 1, 3], vec![0, 1, 2]);
    }

    #[test]
    fn size_bytes_positive() {
        let g = triangle_plus_edge();
        assert!(g.size_bytes() >= 8 * std::mem::size_of::<Node>());
    }
}
