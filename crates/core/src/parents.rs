//! The shared parent-pointer forest `π`.
//!
//! All tree-hooking algorithms in this repository operate on a single
//! array of atomic parent pointers. The array enforces nothing by itself;
//! the algorithms maintain **Invariant 1** of the paper — `π(x) ≤ x` —
//! which guarantees acyclicity (Lemma 1) and therefore termination of all
//! root walks.
//!
//! ## Memory ordering
//!
//! All accesses are `Relaxed`. The convergence proofs (Lemmas 2–5) only
//! require that the compare-and-swap is atomic — stale reads merely cause
//! extra loop iterations, never incorrect merges, because a CAS succeeds
//! only when the observed root is still its own parent. The final
//! happens-before edge that makes the result visible to the caller is the
//! rayon join at the end of every parallel phase.
//!
//! The full per-site justification lives in DESIGN.md §8
//! ("Memory-ordering audit"), which `cargo xtask lint` enforces
//! mechanically (ordering allowlist, SeqCst ban) and `crates/modelcheck`
//! verifies by exhaustively exploring every interleaving of
//! `link`/`compress`/`find_root` under coherence-only semantics.

use afforest_graph::Node;
use std::sync::atomic::{AtomicU32, Ordering};

/// Atomic parent-pointer array (`π` in the paper).
///
/// ```
/// use afforest_core::ParentArray;
///
/// let pi = ParentArray::new(3);
/// assert_eq!(pi.count_trees(), 3);
/// assert!(pi.compare_and_swap(2, 2, 0));
/// assert_eq!(pi.count_trees(), 2);
/// assert!(pi.check_invariant()); // π(x) ≤ x
/// ```
pub struct ParentArray {
    slots: Box<[AtomicU32]>,
}

impl ParentArray {
    /// Creates `n` self-pointing single-vertex trees (`π(v) = v`).
    pub fn new(n: usize) -> Self {
        assert!(n <= u32::MAX as usize, "vertex count exceeds Node range");
        let slots: Box<[AtomicU32]> = (0..n as u32).map(AtomicU32::new).collect();
        Self { slots }
    }

    /// Restores a snapshot (used by the convergence harness to replay
    /// strategies from identical starting states).
    pub fn from_snapshot(snapshot: &[Node]) -> Self {
        let slots: Box<[AtomicU32]> = snapshot.iter().copied().map(AtomicU32::new).collect();
        Self { slots }
    }

    /// Takes `parents` as the array, in its own buffer: the inverse of
    /// [`ParentArray::into_vec`]. Use [`ParentArray::from_snapshot`] to
    /// copy a borrowed slice.
    ///
    /// ```
    /// use afforest_core::ParentArray;
    ///
    /// let pi = ParentArray::from_vec(vec![0, 0, 2]);
    /// assert_eq!(pi.count_trees(), 2);
    /// assert_eq!(pi.into_vec(), vec![0, 0, 2]);
    /// ```
    pub fn from_vec(parents: Vec<Node>) -> Self {
        assert!(
            parents.len() <= u32::MAX as usize,
            "vertex count exceeds Node range"
        );
        // `AtomicU32` has `u32`'s size and alignment, so this collect
        // reuses the vector's allocation instead of copying it.
        let slots: Vec<AtomicU32> = parents.into_iter().map(AtomicU32::new).collect();
        Self {
            slots: slots.into_boxed_slice(),
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the array is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Reads `π(v)`.
    #[inline]
    pub fn get(&self, v: Node) -> Node {
        self.slots[v as usize].load(Ordering::Relaxed)
    }

    /// Unconditionally writes `π(v) = parent`.
    ///
    /// Only used by single-owner phases (e.g. `compress`, where each
    /// processor writes exclusively to its own `π(v)` — Theorem 2).
    #[inline]
    pub fn set(&self, v: Node, parent: Node) {
        self.slots[v as usize].store(parent, Ordering::Relaxed);
    }

    /// Atomically replaces `π(v)` with `new` iff it still equals `current`.
    /// Returns `true` on success.
    #[inline]
    pub fn compare_and_swap(&self, v: Node, current: Node, new: Node) -> bool {
        self.slots[v as usize]
            .compare_exchange(current, new, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
    }

    /// Whether `v` is currently a root (`π(v) == v`).
    #[inline]
    pub fn is_root(&self, v: Node) -> bool {
        self.get(v) == v
    }

    /// Walks parent pointers from `v` to its current root.
    ///
    /// Requires Invariant 1 (no cycles); under concurrent modification the
    /// returned vertex may already have been hooked again by the time the
    /// caller inspects it.
    pub fn find_root(&self, v: Node) -> Node {
        let mut x = v;
        loop {
            let p = self.get(x);
            if p == x {
                return x;
            }
            afforest_obs::count(afforest_obs::Counter::FindRootHops, 1);
            x = p;
        }
    }

    /// Depth of `v` below its root (0 for roots).
    pub fn depth(&self, v: Node) -> usize {
        let mut x = v;
        let mut d = 0;
        loop {
            let p = self.get(x);
            if p == x {
                return d;
            }
            d += 1;
            x = p;
        }
    }

    /// Maximum tree depth over all vertices (quiescent-state probe used by
    /// the Table II instrumentation).
    pub fn max_depth(&self) -> usize {
        use rayon::prelude::*;
        (0..self.len() as Node)
            .into_par_iter()
            .map(|v| self.depth(v))
            .max()
            .unwrap_or(0)
    }

    /// Copies the current state into a plain vector.
    pub fn snapshot(&self) -> Vec<Node> {
        self.slots
            .iter()
            .map(|s| s.load(Ordering::Relaxed))
            .collect()
    }

    /// Turns the array into a plain vector in its own buffer, without
    /// [`ParentArray::snapshot`]'s copy.
    pub fn into_vec(self) -> Vec<Node> {
        self.slots
            .into_vec()
            .into_iter()
            .map(AtomicU32::into_inner)
            .collect()
    }

    /// Verifies Invariant 1: `π(x) ≤ x` for every vertex.
    pub fn check_invariant(&self) -> bool {
        use rayon::prelude::*;
        (0..self.len() as Node)
            .into_par_iter()
            .all(|v| self.get(v) <= v)
    }

    /// Counts current roots (the `T_t` quantity of Section V-B).
    pub fn count_trees(&self) -> usize {
        use rayon::prelude::*;
        (0..self.len() as Node)
            .into_par_iter()
            .filter(|&v| self.is_root(v))
            .count()
    }
}

impl std::fmt::Debug for ParentArray {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParentArray")
            .field("len", &self.len())
            .field("trees", &self.count_trees())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_self_pointing() {
        let pa = ParentArray::new(5);
        assert!((0..5).all(|v| pa.is_root(v)));
        assert_eq!(pa.count_trees(), 5);
        assert!(pa.check_invariant());
    }

    #[test]
    fn cas_semantics() {
        let pa = ParentArray::new(3);
        assert!(pa.compare_and_swap(2, 2, 0));
        assert!(!pa.compare_and_swap(2, 2, 1)); // stale expectation
        assert_eq!(pa.get(2), 0);
    }

    #[test]
    fn find_root_walks_chains() {
        let pa = ParentArray::new(4);
        pa.set(3, 2);
        pa.set(2, 1);
        pa.set(1, 0);
        assert_eq!(pa.find_root(3), 0);
        assert_eq!(pa.depth(3), 3);
        assert_eq!(pa.depth(0), 0);
        assert_eq!(pa.max_depth(), 3);
    }

    #[test]
    fn snapshot_roundtrip() {
        let pa = ParentArray::new(4);
        pa.set(3, 1);
        let snap = pa.snapshot();
        let pb = ParentArray::from_snapshot(&snap);
        assert_eq!(pb.snapshot(), snap);
    }

    #[test]
    fn vec_roundtrip_keeps_the_buffer() {
        let parents: Vec<Node> = vec![0, 0, 1, 3, 3];
        let at = parents.as_ptr() as usize;
        let pa = ParentArray::from_vec(parents);
        assert_eq!(pa.slots.as_ptr() as usize, at);
        pa.set(4, 0);
        let back = pa.into_vec();
        assert_eq!(back.as_ptr() as usize, at);
        assert_eq!(back, vec![0, 0, 1, 3, 0]);
    }

    #[test]
    fn invariant_detects_violation() {
        let pa = ParentArray::new(3);
        pa.set(0, 2); // upward pointer violates π(x) ≤ x
        assert!(!pa.check_invariant());
    }

    #[test]
    fn count_trees_after_hooks() {
        let pa = ParentArray::new(6);
        pa.set(5, 0);
        pa.set(4, 0);
        assert_eq!(pa.count_trees(), 4);
    }

    #[test]
    fn empty_array() {
        let pa = ParentArray::new(0);
        assert!(pa.is_empty());
        assert_eq!(pa.count_trees(), 0);
        assert_eq!(pa.max_depth(), 0);
        assert!(pa.check_invariant());
    }
}
