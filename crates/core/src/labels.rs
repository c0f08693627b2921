//! Component labelings and their verification.
//!
//! Every CC algorithm in this repository produces a *representative
//! labeling*: a vector where `labels[v]` is some vertex in `v`'s component
//! and representatives label themselves (`labels[labels[v]] == labels[v]`).
//! Different algorithms choose different representatives (Afforest/SV: the
//! minimum-index root; BFS: the traversal source), so equality of
//! labelings is tested *up to relabeling* via [`ComponentLabels::equivalent`].

use afforest_graph::{CsrGraph, Node};
use rayon::prelude::*;

/// A validated component labeling.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ComponentLabels {
    labels: Vec<Node>,
    num_components: usize,
}

impl ComponentLabels {
    /// Wraps a representative labeling.
    ///
    /// # Panics
    ///
    /// Panics if the labeling is not representative (some `labels[v]` is
    /// out of range or `labels[labels[v]] != labels[v]`).
    pub fn from_vec(labels: Vec<Node>) -> Self {
        let n = labels.len();
        assert!(
            labels
                .par_iter()
                .all(|&l| (l as usize) < n && labels[l as usize] == l),
            "not a representative labeling"
        );
        let num_components = labels
            .par_iter()
            .enumerate()
            .filter(|&(v, &l)| v as Node == l)
            .count();
        Self {
            labels,
            num_components,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the labeling covers zero vertices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// The label (component representative) of `v`.
    #[inline]
    pub fn label(&self, v: Node) -> Node {
        self.labels[v as usize]
    }

    /// The raw label vector.
    #[inline]
    pub fn as_slice(&self) -> &[Node] {
        &self.labels
    }

    /// Takes the raw label vector, without a copy.
    pub fn into_vec(self) -> Vec<Node> {
        self.labels
    }

    /// Number of connected components.
    #[inline]
    pub fn num_components(&self) -> usize {
        self.num_components
    }

    /// Whether `u` and `v` share a component.
    #[inline]
    pub fn same_component(&self, u: Node, v: Node) -> bool {
        self.labels[u as usize] == self.labels[v as usize]
    }

    /// Size of every component, indexed by a dense renumbering `0..C`
    /// (ordered by representative index).
    pub fn component_sizes(&self) -> Vec<usize> {
        let dense = self.dense_ids();
        let mut sizes = vec![0usize; self.num_components];
        for &d in &dense {
            sizes[d as usize] += 1;
        }
        sizes
    }

    /// Size of the largest component (0 for an empty labeling).
    pub fn largest_component_size(&self) -> usize {
        self.component_sizes().into_iter().max().unwrap_or(0)
    }

    /// The vertices of the component represented by `rep`, ascending.
    ///
    /// ```
    /// # use afforest_core::ComponentLabels;
    /// let l = ComponentLabels::from_vec(vec![0, 0, 2, 2, 0]);
    /// assert_eq!(l.members(0), vec![0, 1, 4]);
    /// assert_eq!(l.members(2), vec![2, 3]);
    /// ```
    pub fn members(&self, rep: Node) -> Vec<Node> {
        (0..self.labels.len() as Node)
            .filter(|&v| self.labels[v as usize] == rep)
            .collect()
    }

    /// Iterator over `(representative, size)` pairs, ascending by
    /// representative.
    ///
    /// ```
    /// # use afforest_core::ComponentLabels;
    /// let l = ComponentLabels::from_vec(vec![0, 0, 2]);
    /// let comps: Vec<_> = l.iter_components().collect();
    /// assert_eq!(comps, vec![(0, 2), (2, 1)]);
    /// ```
    pub fn iter_components(&self) -> impl Iterator<Item = (Node, usize)> + '_ {
        let mut sizes: Vec<(Node, usize)> = Vec::with_capacity(self.num_components);
        for v in 0..self.labels.len() {
            if self.labels[v] == v as Node {
                sizes.push((v as Node, 0));
            }
        }
        for &l in &self.labels {
            let idx = sizes
                .binary_search_by_key(&l, |&(r, _)| r)
                .expect("rep present");
            sizes[idx].1 += 1;
        }
        sizes.into_iter()
    }

    /// Dense component ids `0..C` per vertex, ordered by representative
    /// index.
    pub fn dense_ids(&self) -> Vec<Node> {
        let n = self.labels.len();
        let mut id_of_rep = vec![Node::MAX; n];
        let mut next = 0 as Node;
        for (v, slot) in id_of_rep.iter_mut().enumerate() {
            if self.labels[v] == v as Node {
                *slot = next;
                next += 1;
            }
        }
        self.labels
            .par_iter()
            .map(|&l| id_of_rep[l as usize])
            .collect()
    }

    /// Whether two labelings induce the same partition of vertices
    /// (equality up to relabeling).
    pub fn equivalent(&self, other: &ComponentLabels) -> bool {
        if self.labels.len() != other.labels.len() || self.num_components != other.num_components {
            return false;
        }
        // Representatives biject: map self-rep → other-label, checked both
        // directions by symmetry of counts.
        let n = self.labels.len();
        let mut map = vec![Node::MAX; n];
        for v in 0..n {
            let a = self.labels[v] as usize;
            let b = other.labels[v];
            if map[a] == Node::MAX {
                map[a] = b;
            } else if map[a] != b {
                return false;
            }
        }
        true
    }

    /// Exhaustively verifies this labeling against the graph: every edge
    /// joins same-labeled endpoints, and every label class is internally
    /// connected (checked via a fresh union-find). `O(|E| α(|V|))`.
    pub fn verify_against(&self, g: &CsrGraph) -> bool {
        if g.num_vertices() != self.labels.len() {
            return false;
        }
        // 1. Edges never cross labels.
        let edges_ok = g
            .par_vertices()
            .all(|u| g.neighbors(u).iter().all(|&v| self.same_component(u, v)));
        if !edges_ok {
            return false;
        }
        // 2. Labels never over-merge: component count from an independent
        // serial union-find must match.
        let mut parent: Vec<Node> = (0..g.num_vertices() as Node).collect();
        fn find(p: &mut [Node], mut x: Node) -> Node {
            while p[x as usize] != x {
                p[x as usize] = p[p[x as usize] as usize];
                x = p[x as usize];
            }
            x
        }
        for (u, v) in g.edges() {
            let (ru, rv) = (find(&mut parent, u), find(&mut parent, v));
            if ru != rv {
                parent[ru.max(rv) as usize] = ru.min(rv);
            }
        }
        let true_components = (0..g.num_vertices() as Node)
            .filter(|&v| find(&mut parent, v) == v)
            .count();
        true_components == self.num_components
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afforest_graph::GraphBuilder;

    #[test]
    fn from_vec_counts_components() {
        let l = ComponentLabels::from_vec(vec![0, 0, 2, 2, 4]);
        assert_eq!(l.num_components(), 3);
        assert_eq!(l.len(), 5);
        assert!(l.same_component(0, 1));
        assert!(!l.same_component(1, 2));
    }

    #[test]
    #[should_panic(expected = "not a representative labeling")]
    fn rejects_non_representative() {
        // 1 labels itself 0, but 0 labels itself 1 — not representative.
        let _ = ComponentLabels::from_vec(vec![1, 0]);
    }

    #[test]
    #[should_panic(expected = "not a representative labeling")]
    fn rejects_out_of_range() {
        let _ = ComponentLabels::from_vec(vec![5]);
    }

    #[test]
    fn component_sizes() {
        let l = ComponentLabels::from_vec(vec![0, 0, 0, 3, 3]);
        assert_eq!(l.component_sizes(), vec![3, 2]);
        assert_eq!(l.largest_component_size(), 3);
    }

    #[test]
    fn dense_ids_are_ordered() {
        let l = ComponentLabels::from_vec(vec![0, 0, 2, 2, 4]);
        assert_eq!(l.dense_ids(), vec![0, 0, 1, 1, 2]);
    }

    #[test]
    fn equivalence_up_to_relabeling() {
        let a = ComponentLabels::from_vec(vec![0, 0, 2, 2]);
        let b = ComponentLabels::from_vec(vec![1, 1, 3, 3]);
        let c = ComponentLabels::from_vec(vec![0, 0, 0, 3]);
        assert!(a.equivalent(&b));
        assert!(!a.equivalent(&c));
    }

    #[test]
    fn equivalence_rejects_length_mismatch() {
        let a = ComponentLabels::from_vec(vec![0]);
        let b = ComponentLabels::from_vec(vec![0, 1]);
        assert!(!a.equivalent(&b));
    }

    #[test]
    fn verify_against_accepts_correct() {
        let g = GraphBuilder::from_edges(4, &[(0, 1), (2, 3)]).build();
        let l = ComponentLabels::from_vec(vec![0, 0, 2, 2]);
        assert!(l.verify_against(&g));
    }

    #[test]
    fn verify_against_rejects_split_component() {
        let g = GraphBuilder::from_edges(2, &[(0, 1)]).build();
        let l = ComponentLabels::from_vec(vec![0, 1]); // edge crosses labels
        assert!(!l.verify_against(&g));
    }

    #[test]
    fn verify_against_rejects_over_merge() {
        let g = GraphBuilder::from_edges(4, &[(0, 1), (2, 3)]).build();
        let l = ComponentLabels::from_vec(vec![0, 0, 0, 0]); // merged apart sets
        assert!(!l.verify_against(&g));
    }

    #[test]
    fn empty_labeling() {
        let l = ComponentLabels::from_vec(vec![]);
        assert_eq!(l.num_components(), 0);
        assert!(l.is_empty());
        assert_eq!(l.largest_component_size(), 0);
    }

    #[test]
    fn members_and_iteration() {
        let l = ComponentLabels::from_vec(vec![0, 0, 2, 2, 4, 0]);
        assert_eq!(l.members(0), vec![0, 1, 5]);
        assert_eq!(l.members(4), vec![4]);
        assert!(l.members(1).is_empty()); // not a representative
        let comps: Vec<_> = l.iter_components().collect();
        assert_eq!(comps, vec![(0, 3), (2, 2), (4, 1)]);
        let total: usize = comps.iter().map(|&(_, s)| s).sum();
        assert_eq!(total, l.len());
    }
}
