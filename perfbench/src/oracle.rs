//! The harness's own connectivity oracle: a sequential union-find that
//! shares no code with the program under test, so a bug in the
//! program's linking cannot also hide in the answer it is checked
//! against.

use afforest_graph::{Edge, Node};

pub struct Dsu {
    parent: Vec<Node>,
    components: usize,
}

impl Dsu {
    /// `n` singleton components.
    pub fn new(n: usize) -> Dsu {
        Dsu {
            parent: (0..n as Node).collect(),
            components: n,
        }
    }

    /// `n` vertices joined by `edges`.
    pub fn from_edges(n: usize, edges: &[Edge]) -> Dsu {
        let mut d = Dsu::new(n);
        d.union_all(edges);
        d
    }

    /// The root of `v`'s set (path halving).
    pub fn find(&mut self, mut v: Node) -> Node {
        while self.parent[v as usize] != v {
            let grand = self.parent[self.parent[v as usize] as usize];
            self.parent[v as usize] = grand;
            v = grand;
        }
        v
    }

    /// Joins the sets of `u` and `v` (the smaller root becomes the root).
    pub fn union(&mut self, u: Node, v: Node) {
        let (a, b) = (self.find(u), self.find(v));
        if a != b {
            let (lo, hi) = (a.min(b), a.max(b));
            self.parent[hi as usize] = lo;
            self.components -= 1;
        }
    }

    pub fn union_all(&mut self, edges: &[Edge]) {
        for &(u, v) in edges {
            self.union(u, v);
        }
    }

    pub fn connected(&mut self, u: Node, v: Node) -> bool {
        self.find(u) == self.find(v)
    }

    pub fn components(&self) -> usize {
        self.components
    }

    /// Each vertex's root: a labeling for `ComponentLabels::from_vec`.
    pub fn labels(&mut self) -> Vec<Node> {
        (0..self.parent.len() as Node)
            .map(|v| self.find(v))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unions_count_components_and_label_consistently() {
        let mut d = Dsu::from_edges(6, &[(0, 1), (2, 3), (1, 0), (3, 4)]);
        assert_eq!(d.components(), 3);
        assert!(d.connected(2, 4) && !d.connected(0, 2) && !d.connected(5, 0));
        d.union(4, 0);
        assert_eq!(d.components(), 2);
        assert_eq!(d.labels(), vec![0, 0, 0, 0, 0, 5]);
    }
}
