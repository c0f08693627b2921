//! Incremental connectivity — a natural extension of Afforest.
//!
//! Theorem 1 shows `link` never needs to revisit an edge, and Lemma 2 /
//! Theorem 2 show `compress` can be interleaved anywhere. Together these
//! make the parent array a *mergeable, append-only* structure: new edges
//! can be linked into an already-converged forest at any time, in
//! parallel, without reprocessing old edges. This module packages that
//! capability as a dynamic data structure (insert edges / query
//! connectivity), the "subgraph batch" idea of Section III-B taken to its
//! streaming limit.

use crate::afforest::{afforest, AfforestConfig};
use crate::compress::{compress, compress_all};
use crate::labels::ComponentLabels;
use crate::link::{link, link_hook};
use crate::parents::ParentArray;
use afforest_graph::{CsrGraph, Edge, Node};
use rayon::prelude::*;

/// A dynamic (insert-only) connectivity structure over `n` vertices.
///
/// ```
/// use afforest_core::incremental::IncrementalCc;
///
/// let mut cc = IncrementalCc::new(4);
/// assert!(!cc.connected(0, 3));
/// cc.insert_batch(&[(0, 1), (2, 3)]);
/// cc.insert(1, 2);
/// assert!(cc.connected(0, 3));
/// assert_eq!(cc.num_components(), 1);
/// ```
pub struct IncrementalCc {
    pi: ParentArray,
    /// Edges inserted since the last compress (compression amortizer).
    dirty: usize,
    /// Compress once `dirty` exceeds this (None = only on demand).
    compress_threshold: Option<usize>,
}

impl IncrementalCc {
    /// Creates the structure with `n` isolated vertices. Auto-compresses
    /// every `n` insertions by default.
    pub fn new(n: usize) -> Self {
        Self::over(ParentArray::new(n))
    }

    /// Wraps a parent array that satisfies Invariant 1, with the default
    /// every-`n`-insertions compress threshold.
    fn over(pi: ParentArray) -> Self {
        let n = pi.len();
        Self {
            pi,
            dirty: 0,
            compress_threshold: Some(n.max(64)),
        }
    }

    /// Starts the structure from `g`'s components: [`afforest`] with the
    /// default [`AfforestConfig`] solves `g`, and its labeling becomes
    /// the parent array. That labeling is fully compressed with every
    /// root its component's minimum, which is exactly the array
    /// [`IncrementalCc::new`] plus [`IncrementalCc::insert_batch`] over
    /// every edge of `g` leaves behind, at the cost of a solve that skips
    /// most edges instead of a link per edge.
    ///
    /// ```
    /// use afforest_core::incremental::IncrementalCc;
    /// use afforest_graph::GraphBuilder;
    ///
    /// let g = GraphBuilder::from_edges(5, &[(0, 1), (3, 4)]).build();
    /// let mut cc = IncrementalCc::from_graph(&g);
    /// assert_eq!(cc.parents_snapshot(), vec![0, 0, 2, 3, 3]);
    /// cc.insert(1, 4);
    /// assert_eq!(cc.num_components(), 2);
    /// ```
    pub fn from_graph(g: &CsrGraph) -> Self {
        let labels = afforest(g, &AfforestConfig::default());
        Self::over(ParentArray::from_vec(labels.into_vec()))
    }

    /// Overrides the auto-compression threshold (`None` disables it).
    pub fn with_compress_threshold(mut self, threshold: Option<usize>) -> Self {
        self.compress_threshold = threshold;
        self
    }

    /// Restores the structure from a previously captured parent array
    /// (the durability primitive of `afforest-serve`: a WAL snapshot is
    /// exactly `ParentArray::snapshot`, and this is its inverse).
    ///
    /// The input must satisfy Invariant 1 (`π(x) ≤ x`), which every
    /// algorithm in this repository maintains and which guarantees the
    /// restored forest is acyclic; anything else (including out-of-range
    /// parents, which Invariant 1 subsumes) is rejected so a corrupted
    /// snapshot cannot smuggle cycles into a live service.
    pub fn from_parents(parents: Vec<Node>) -> Result<Self, InvalidParents> {
        if let Some(v) = parents
            .iter()
            .enumerate()
            .position(|(x, &p)| p as usize > x)
        {
            return Err(InvalidParents {
                vertex: v as Node,
                parent: parents[v],
            });
        }
        Ok(Self::over(ParentArray::from_vec(parents)))
    }

    /// Copies the current parent array (the WAL snapshot payload).
    pub fn parents_snapshot(&self) -> Vec<Node> {
        self.pi.snapshot()
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.pi.len()
    }

    /// Whether the structure tracks zero vertices.
    pub fn is_empty(&self) -> bool {
        self.pi.is_empty()
    }

    /// Inserts one edge. Returns `true` if it connected two previously
    /// separate components.
    pub fn insert(&mut self, u: Node, v: Node) -> bool {
        let merged = link(u, v, &self.pi);
        self.bump(1);
        merged
    }

    /// Inserts a batch of edges in parallel (each edge linked exactly
    /// once, any order — Theorem 1) and reports every slot of the parent
    /// array the batch wrote.
    ///
    /// After the parallel link pass, either the every-`n`-edges full
    /// compress runs, or a sequential [`compress`] of the batch's
    /// endpoints and hooked roots keeps the trees they touched shallow.
    /// The second costs O(batch), so a reader-side copy of the forest can
    /// follow the batch by rewriting only [`BatchDelta::written`] slots.
    ///
    /// ```
    /// use afforest_core::incremental::IncrementalCc;
    ///
    /// let mut cc = IncrementalCc::new(4);
    /// let delta = cc.insert_batch(&[(0, 1), (1, 0), (3, 2)]);
    /// let mut hooked = delta.hooked.clone();
    /// hooked.sort();
    /// assert_eq!(hooked, vec![1, 3]); // one per merge, whatever the order
    /// assert!(!delta.full_compress);
    /// ```
    pub fn insert_batch(&mut self, edges: &[Edge]) -> BatchDelta {
        let pi = &self.pi;
        let hooked: Vec<Node> = edges
            .par_iter()
            .filter_map(|&(u, v)| link_hook(u, v, pi))
            .collect();
        if self.bump(edges.len()) {
            return BatchDelta {
                hooked,
                compressed: Vec::new(),
                full_compress: true,
            };
        }
        let pi = &self.pi;
        let compressed = edges
            .iter()
            .flat_map(|&(u, v)| [u, v])
            .chain(hooked.iter().copied())
            .filter(|&x| {
                let before = pi.get(x);
                compress(x, pi);
                pi.get(x) != before
            })
            .collect();
        BatchDelta {
            hooked,
            compressed,
            full_compress: false,
        }
    }

    /// Counts `count` inserted edges toward the full-compress threshold;
    /// returns whether the full compress ran.
    fn bump(&mut self, count: usize) -> bool {
        self.dirty += count;
        match self.compress_threshold {
            Some(t) if self.dirty >= t => {
                self.compress();
                true
            }
            _ => false,
        }
    }

    /// `π(v)`: `v`'s parent in the current forest (`v` itself for a
    /// root). Every root is its component's minimum (Invariant 1).
    pub fn parent(&self, v: Node) -> Node {
        self.pi.get(v)
    }

    /// Whether `u` and `v` are currently connected.
    pub fn connected(&self, u: Node, v: Node) -> bool {
        // Walk to roots; no mutation needed for a query.
        self.pi.find_root(u) == self.pi.find_root(v)
    }

    /// The current representative (component-minimum once compressed;
    /// between compressions, the root of `v`'s tree).
    pub fn find(&self, v: Node) -> Node {
        self.pi.find_root(v)
    }

    /// Current number of components.
    pub fn num_components(&self) -> usize {
        self.pi.count_trees()
    }

    /// Forces a full compression (after which every `find` is O(1)).
    pub fn compress(&mut self) {
        compress_all(&self.pi);
        self.dirty = 0;
    }

    /// The current labeling without consuming the structure (compresses
    /// first, so the returned labels are fully flattened): the caller gets
    /// an immutable O(n) copy while inserts keep flowing into `self`.
    pub fn labels(&mut self) -> ComponentLabels {
        self.compress();
        ComponentLabels::from_vec(self.pi.snapshot())
    }

    /// Extracts the final labeling (compresses first), in the parent
    /// array's own buffer.
    pub fn into_labels(mut self) -> ComponentLabels {
        self.compress();
        ComponentLabels::from_vec(self.pi.into_vec())
    }
}

/// What one [`IncrementalCc::insert_batch`] wrote into the parent array.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BatchDelta {
    /// The roots this batch hooked under another root, one per merge
    /// (Theorem 1): distinct, each a root before the batch and none a
    /// root after it. The component count fell by exactly their number.
    pub hooked: Vec<Node>,
    /// The slots rewritten by the sequential compress of the batch's
    /// endpoints and hooked roots, each once (empty after a full
    /// compress).
    pub compressed: Vec<Node>,
    /// Whether the every-`n`-edges full compress ran, after which any
    /// slot may have changed.
    pub full_compress: bool,
}

impl BatchDelta {
    /// Every slot the batch wrote, unless `full_compress` is set: the
    /// hooked roots' CAS targets, then the compressed slots (a hooked
    /// root may appear in both).
    pub fn written(&self) -> impl Iterator<Item = Node> + '_ {
        self.hooked.iter().chain(&self.compressed).copied()
    }
}

/// A parent array rejected by [`IncrementalCc::from_parents`]: some
/// vertex's recorded parent violates Invariant 1 (`π(x) ≤ x`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InvalidParents {
    /// The offending vertex.
    pub vertex: Node,
    /// Its recorded (invalid) parent.
    pub parent: Node,
}

impl std::fmt::Display for InvalidParents {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "parent array violates Invariant 1: π({}) = {} > {}",
            self.vertex, self.parent, self.vertex
        )
    }
}

impl std::error::Error for InvalidParents {}

impl std::fmt::Debug for IncrementalCc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IncrementalCc")
            .field("vertices", &self.len())
            .field("components", &self.num_components())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afforest_graph::generators::uniform_random;
    use afforest_graph::GraphBuilder;

    #[test]
    fn starts_disconnected() {
        let cc = IncrementalCc::new(5);
        assert_eq!(cc.num_components(), 5);
        assert!(!cc.connected(0, 4));
        assert_eq!(cc.len(), 5);
    }

    #[test]
    fn insert_reports_merges() {
        let mut cc = IncrementalCc::new(4);
        assert!(cc.insert(0, 1));
        assert!(!cc.insert(0, 1)); // already connected
        assert!(cc.insert(2, 3));
        assert!(cc.insert(1, 2));
        assert_eq!(cc.num_components(), 1);
    }

    #[test]
    fn batch_insert_matches_static_run() {
        let g = uniform_random(3_000, 18_000, 7);
        let edges = g.collect_edges();
        let mut cc = IncrementalCc::new(g.num_vertices());
        // Insert in three uneven chunks, with queries interleaved.
        let (a, rest) = edges.split_at(edges.len() / 5);
        let (b, c) = rest.split_at(rest.len() / 2);
        cc.insert_batch(a);
        let _ = cc.connected(0, 1);
        cc.insert_batch(b);
        cc.compress();
        cc.insert_batch(c);
        let labels = cc.into_labels();
        assert!(labels.verify_against(&g));
    }

    #[test]
    fn queries_between_compressions_are_correct() {
        let mut cc = IncrementalCc::new(6).with_compress_threshold(None);
        cc.insert(5, 4);
        cc.insert(4, 3);
        cc.insert(1, 0);
        assert!(cc.connected(5, 3));
        assert!(!cc.connected(5, 0));
        cc.insert(3, 1);
        assert!(cc.connected(5, 0));
    }

    #[test]
    fn auto_compress_keeps_depth_small() {
        let mut cc = IncrementalCc::new(1_000).with_compress_threshold(Some(100));
        for v in 1..1_000u32 {
            cc.insert(v, v - 1);
        }
        // After threshold-triggered compressions, find is shallow but the
        // answer is the same.
        assert_eq!(cc.find(999), 0);
        assert_eq!(cc.num_components(), 1);
    }

    #[test]
    fn into_labels_is_canonical() {
        let mut cc = IncrementalCc::new(5);
        cc.insert(4, 2);
        cc.insert(2, 0);
        let labels = cc.into_labels();
        let g = GraphBuilder::from_edges(5, &[(4, 2), (2, 0)]).build();
        assert!(labels.verify_against(&g));
        assert_eq!(labels.label(4), 0);
    }

    #[test]
    fn streaming_vs_oneshot_equivalence() {
        // Insert edges one at a time in adversarial descending order.
        let n = 500;
        let mut cc = IncrementalCc::new(n);
        let mut edges = Vec::new();
        for v in (1..n as Node).rev() {
            cc.insert(v, v - 1);
            edges.push((v, v - 1));
        }
        let g = GraphBuilder::from_edges(n, &edges).build();
        assert!(cc.into_labels().verify_against(&g));
    }

    #[test]
    fn labels_snapshots_without_consuming() {
        let mut cc = IncrementalCc::new(6);
        cc.insert_batch(&[(0, 1), (2, 3)]);
        let before = cc.labels();
        assert_eq!(before.num_components(), 4);
        // The structure stays live: later inserts change later snapshots
        // but not the one already taken.
        cc.insert(1, 2);
        let after = cc.labels();
        assert_eq!(before.num_components(), 4);
        assert_eq!(after.num_components(), 3);
        assert!(after.same_component(0, 3));
        assert!(!before.same_component(0, 3));
    }

    #[test]
    fn from_parents_restores_equivalent_state() {
        let mut cc = IncrementalCc::new(8);
        cc.insert_batch(&[(0, 1), (1, 2), (4, 5), (6, 7)]);
        let parents = cc.parents_snapshot();
        let mut restored = IncrementalCc::from_parents(parents).unwrap();
        assert_eq!(restored.num_components(), cc.num_components());
        assert!(restored.connected(0, 2));
        assert!(!restored.connected(0, 4));
        // The restored structure stays live: inserts keep working.
        restored.insert(2, 4);
        assert!(restored.connected(0, 5));
    }

    #[test]
    fn from_parents_rejects_invariant_violations() {
        // π(1) = 3 > 1 — a forward pointer that could form a cycle.
        let err = IncrementalCc::from_parents(vec![0, 3, 2, 1]).unwrap_err();
        assert_eq!(err.vertex, 1);
        assert_eq!(err.parent, 3);
        assert!(err.to_string().contains("Invariant 1"));
        // Out-of-range parents are a special case of the same violation.
        assert!(IncrementalCc::from_parents(vec![0, 99]).is_err());
        // The empty and identity arrays are valid.
        assert!(IncrementalCc::from_parents(vec![]).is_ok());
        assert_eq!(
            IncrementalCc::from_parents(vec![0, 1, 2])
                .unwrap()
                .num_components(),
            3
        );
    }

    #[test]
    fn empty_structure() {
        let cc = IncrementalCc::new(0);
        assert!(cc.is_empty());
        assert_eq!(cc.num_components(), 0);
        assert!(cc.into_labels().is_empty());
    }
}
