//! Epoch snapshots: the read path of the service.
//!
//! Readers never touch the incremental structure. Each published epoch is
//! an immutable copy of its parent forest, split into fixed-size pages
//! shared copy-on-write with the epochs before and after it, plus paged
//! root sizes and a component count. Invariant 1 keeps every root its
//! component's minimum, so `Component(u)` is a `find_root` walk over
//! frozen pages, `Connected(u, v)` two of them and `ComponentSize(u)` one
//! more load — no atomics, no locks on the hot path. The walk is as deep
//! as the merges since the writer's last full compress allow.
//!
//! Publishing costs O(batch + n/page), not O(n): [`Snapshot::next`]
//! clones the previous epoch's page tables, copies only the pages holding
//! a slot the batch wrote ([`BatchDelta`]), adds each hooked root's old
//! size to its new root and subtracts one component per merge. After the
//! every-`n`-edges full compress, which may rewrite any slot, it rebuilds
//! the parent pages instead.
//!
//! The store hands out `Arc<Snapshot>`s. Publishing swaps the `Arc`
//! behind an `RwLock` whose critical sections are O(1) (clone on read,
//! pointer swap on write); the expensive work — applying a batch,
//! building the next snapshot — happens entirely outside the lock,
//! which is what makes reads non-blocking with respect to the writer
//! (the acceptance property tested in `tests/epoch_isolation.rs`).

use afforest_core::{BatchDelta, IncrementalCc};
use afforest_graph::Node;
use std::sync::{Arc, RwLock};

/// Slots per page: 16 KiB of `u32`s. Larger pages copy more per written
/// slot; smaller ones make every epoch clone and release more `Arc`s,
/// each on its own memory page, which dominates publishing when a batch
/// writes few slots.
const PAGE: usize = 4096;

/// One page of a paged array, shared between the epochs it is equal in.
type Page = Arc<[u32; PAGE]>;

/// One immutable published epoch.
#[derive(Debug)]
pub struct Snapshot {
    /// Monotonically increasing epoch number (0 = the initial graph).
    pub epoch: u64,
    /// Vertex count.
    vertices: usize,
    /// The parent forest: slot `v` holds `π(v)`.
    parents: Vec<Page>,
    /// Slot `r` holds the size of `r`'s component when `r` is a root
    /// (stale for vertices hooked since).
    sizes: Vec<Page>,
    /// Number of components.
    num_components: usize,
}

impl Snapshot {
    /// Builds a snapshot of `cc`'s current forest from scratch, O(n).
    pub fn new(epoch: u64, cc: &IncrementalCc) -> Self {
        let parents = cc.parents_snapshot();
        let mut sizes = vec![0u32; parents.len()];
        let mut num_components = 0;
        for v in 0..parents.len() {
            let mut root = v;
            while parents[root] as usize != root {
                root = parents[root] as usize;
            }
            sizes[root] += 1;
            num_components += usize::from(root == v);
        }
        Self {
            epoch,
            vertices: parents.len(),
            parents: paged(&parents),
            sizes: paged(&sizes),
            num_components,
        }
    }

    /// The snapshot of `cc` after one [`IncrementalCc::insert_batch`]
    /// that reported `delta`, built by patching `self`, the snapshot of
    /// `cc` before that batch. Shares every page the batch did not write
    /// with `self`.
    pub fn next(&self, epoch: u64, cc: &IncrementalCc, delta: &BatchDelta) -> Self {
        let parents = if delta.full_compress {
            paged(&cc.parents_snapshot())
        } else {
            let mut pages = self.parents.clone();
            for x in delta.written() {
                set(&mut pages, x, cc.parent(x));
            }
            pages
        };
        // Each hooked root was a root before the batch, so its old slot
        // holds its old tree's size, and that tree now lies under exactly
        // one root that was not hooked.
        let mut sizes = self.sizes.clone();
        for &h in &delta.hooked {
            let root = cc.find(h);
            let size = get(&sizes, root) + get(&self.sizes, h);
            set(&mut sizes, root, size);
        }
        Self {
            epoch,
            vertices: self.vertices,
            parents,
            sizes,
            num_components: self.num_components - delta.hooked.len(),
        }
    }

    /// Vertex count.
    pub fn vertices(&self) -> usize {
        self.vertices
    }

    /// Whether `v` is a valid vertex of this snapshot.
    pub fn contains(&self, v: Node) -> bool {
        (v as usize) < self.vertices
    }

    /// Whether `u` and `v` share a component (`None` if out of range).
    pub fn connected(&self, u: Node, v: Node) -> Option<bool> {
        Some(self.component(u)? == self.component(v)?)
    }

    /// The representative of `u`, its component's minimum (`None` if out
    /// of range).
    pub fn component(&self, u: Node) -> Option<Node> {
        if !self.contains(u) {
            return None;
        }
        let mut x = u;
        loop {
            let p = get(&self.parents, x);
            if p == x {
                return Some(x);
            }
            x = p;
        }
    }

    /// Size of `u`'s component (`None` if out of range).
    pub fn component_size(&self, u: Node) -> Option<u64> {
        self.resolve(u).map(|(_, size)| size)
    }

    /// `u`'s representative and its component's size, from one walk
    /// (`None` if out of range).
    pub fn resolve(&self, u: Node) -> Option<(Node, u64)> {
        let root = self.component(u)?;
        Some((root, get(&self.sizes, root) as u64))
    }

    /// Number of components.
    pub fn num_components(&self) -> usize {
        self.num_components
    }

    /// The parent forest as one slice per page: their concatenation
    /// holds `π(v)` at slot `v`, for every vertex and nothing more.
    pub(crate) fn parent_slices(&self) -> Vec<&[Node]> {
        self.parents
            .iter()
            .zip((0..self.vertices).step_by(PAGE))
            .map(|(page, start)| &page[..PAGE.min(self.vertices - start)])
            .collect()
    }
}

/// Splits `slots` into pages; the last page's tail is zero padding that
/// no read reaches.
fn paged(slots: &[u32]) -> Vec<Page> {
    slots
        .chunks(PAGE)
        .map(|chunk| {
            let mut page = [0; PAGE];
            page[..chunk.len()].copy_from_slice(chunk);
            Arc::new(page)
        })
        .collect()
}

fn get(pages: &[Page], v: Node) -> u32 {
    pages[v as usize / PAGE][v as usize % PAGE]
}

/// Writes slot `v`, first copying its page if another epoch shares it.
fn set(pages: &mut [Page], v: Node, value: u32) {
    Arc::make_mut(&mut pages[v as usize / PAGE])[v as usize % PAGE] = value;
}

/// The single-writer / many-reader epoch store.
pub struct SnapshotStore {
    current: RwLock<Arc<Snapshot>>,
}

impl SnapshotStore {
    /// Starts the store at `initial` (conventionally epoch 0).
    pub fn new(initial: Snapshot) -> Self {
        Self {
            current: RwLock::new(Arc::new(initial)),
        }
    }

    /// The currently served epoch. O(1): clones the `Arc` under a read
    /// lock held for the duration of a pointer copy.
    pub fn load(&self) -> Arc<Snapshot> {
        self.current
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Atomically replaces the served epoch. O(1): the new snapshot is
    /// fully built before this is called.
    ///
    /// # Panics
    ///
    /// Debug-asserts that epochs only move forward.
    pub fn publish(&self, next: Snapshot) {
        let mut cur = self.current.write().unwrap_or_else(|e| e.into_inner());
        debug_assert!(next.epoch > cur.epoch, "epochs must advance");
        *cur = Arc::new(next);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afforest_graph::Edge;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    #[test]
    fn snapshot_answers_all_queries() {
        let mut cc = IncrementalCc::new(6);
        cc.insert_batch(&[(0, 1), (1, 2), (4, 5)]);
        let s = Snapshot::new(0, &cc);
        assert_eq!(s.vertices(), 6);
        assert_eq!(s.num_components(), 3);
        assert_eq!(s.connected(0, 2), Some(true));
        assert_eq!(s.connected(0, 3), Some(false));
        assert_eq!(s.component(2), Some(0));
        assert_eq!(s.component_size(5), Some(2));
        assert_eq!(s.component_size(3), Some(1));
    }

    #[test]
    fn out_of_range_is_none_not_panic() {
        let cc = IncrementalCc::new(3);
        let s = Snapshot::new(0, &cc);
        assert_eq!(s.connected(0, 3), None);
        assert_eq!(s.connected(9, 0), None);
        assert_eq!(s.component(3), None);
        assert_eq!(s.component_size(100), None);
        assert!(!s.contains(3));
        assert!(s.contains(2));
    }

    #[test]
    fn store_publishes_new_epochs() {
        let mut cc = IncrementalCc::new(4);
        let store = SnapshotStore::new(Snapshot::new(0, &cc));
        let old = store.load();
        assert_eq!(old.epoch, 0);
        assert_eq!(old.connected(0, 1), Some(false));

        let delta = cc.insert_batch(&[(0, 1)]);
        store.publish(old.next(1, &cc, &delta));
        // The old Arc still answers from its epoch; new loads see epoch 1.
        assert_eq!(old.connected(0, 1), Some(false));
        let new = store.load();
        assert_eq!(new.epoch, 1);
        assert_eq!(new.connected(0, 1), Some(true));
    }

    #[test]
    fn empty_graph_snapshot() {
        let cc = IncrementalCc::new(0);
        let s = Snapshot::new(0, &cc);
        assert_eq!(s.vertices(), 0);
        assert_eq!(s.num_components(), 0);
        assert_eq!(s.connected(0, 0), None);
    }

    /// Indices of the pages `a` and `b` do not share.
    fn unshared(a: &[Page], b: &[Page]) -> Vec<usize> {
        (0..a.len())
            .filter(|&p| !Arc::ptr_eq(&a[p], &b[p]))
            .collect()
    }

    #[test]
    fn a_batch_copies_only_the_pages_it_writes() {
        let n = 16 * PAGE;
        let mut cc = IncrementalCc::new(n);
        // One big component rooted at 0 spanning every page, flattened,
        // so the next small batches write few slots.
        let chain: Vec<(Node, Node)> = (1..n as Node).map(|v| (v, v - 1)).collect();
        cc.insert_batch(&chain);
        cc.compress();
        let mut prev = Snapshot::new(0, &cc);
        for (epoch, batch) in [
            vec![],
            vec![(5, 7)], // already connected: writes nothing
            vec![(0, n as Node - 1)],
            vec![(3 * PAGE as Node, 11 * PAGE as Node + 5)],
        ]
        .into_iter()
        .enumerate()
        {
            let delta = cc.insert_batch(&batch);
            assert!(!delta.full_compress);
            let next = prev.next(epoch as u64 + 1, &cc, &delta);
            let k = delta.written().count();
            assert!(unshared(&prev.parents, &next.parents).len() <= k);
            assert!(unshared(&prev.sizes, &next.sizes).len() <= k);
            prev = next;
        }

        // Separate singletons: each merge writes the hooked slot, and its
        // new root's size, on one page each.
        let mut cc = IncrementalCc::new(n);
        let mut prev = Snapshot::new(0, &cc);
        for (epoch, batch) in [
            vec![(1, 2)],
            vec![(PAGE as Node, 10 * PAGE as Node + 1), (2, 5 * PAGE as Node)],
            vec![(10 * PAGE as Node + 1, 15 * PAGE as Node)],
        ]
        .into_iter()
        .enumerate()
        {
            let delta = cc.insert_batch(&batch);
            let next = prev.next(epoch as u64 + 1, &cc, &delta);
            let k = delta.written().count();
            assert!(k > 0);
            let parents = unshared(&prev.parents, &next.parents);
            assert!(!parents.is_empty() && parents.len() <= k, "{parents:?}");
            assert!(unshared(&prev.sizes, &next.sizes).len() <= delta.hooked.len());
            prev = next;
        }
        assert_eq!(prev.num_components(), n - 4);
        assert_eq!(prev.component_size(15 * PAGE as Node), Some(3));
    }

    #[test]
    fn a_full_compress_rebuilds_every_parent_page() {
        let n = 4 * PAGE;
        let mut cc = IncrementalCc::new(n).with_compress_threshold(Some(3));
        let s0 = Snapshot::new(0, &cc);
        let delta = cc.insert_batch(&[(1, 2), (3, 4), (4, 2 * PAGE as Node)]);
        assert!(delta.full_compress);
        let s1 = s0.next(1, &cc, &delta);
        assert_eq!(unshared(&s0.parents, &s1.parents).len(), 4);
        assert_eq!(s1.num_components(), n - 3);
        assert_eq!(s1.component(2 * PAGE as Node), Some(3));
        assert_eq!(s1.component_size(4), Some(3));
    }

    /// Checks `snap` against the labels of a copy of `cc` (compressing
    /// `cc` itself would write slots no delta reports), and its pages
    /// against `cc`'s parent array.
    fn check(snap: &Snapshot, cc: &IncrementalCc) -> Result<(), TestCaseError> {
        let n = cc.len();
        let labels = IncrementalCc::from_parents(cc.parents_snapshot())
            .unwrap()
            .into_labels();
        let mut sizes = vec![0u64; n];
        for (rep, size) in labels.iter_components() {
            sizes[rep as usize] = size as u64;
        }
        prop_assert_eq!(snap.num_components(), labels.num_components());
        prop_assert_eq!(snap.parent_slices().concat(), cc.parents_snapshot());
        for v in 0..n as Node {
            prop_assert_eq!(get(&snap.parents, v), cc.parent(v), "slot {}", v);
            let rep = labels.label(v);
            prop_assert_eq!(snap.component(v), Some(rep));
            prop_assert_eq!(snap.component_size(v), Some(sizes[rep as usize]));
        }
        Ok(())
    }

    /// `(n, batches, compress threshold)`. A batch is either random edges
    /// or a chain `hi → hi−1 → … → lo` in descending order, the order that
    /// builds the deepest trees; thresholds at most `n` make some batches
    /// cross the full compress.
    fn arb_run() -> impl Strategy<Value = (usize, Vec<Vec<Edge>>, Option<usize>)> {
        (1usize..2 * PAGE + 7).prop_flat_map(|n| {
            let vertex = 0..n as Node;
            let batch = (
                any::<bool>(),
                proptest::collection::vec((vertex.clone(), vertex.clone()), 0..400),
                vertex.clone(),
                vertex,
            )
                .prop_map(|(chain, random, a, b)| {
                    if chain {
                        (a.min(b) + 1..=a.max(b))
                            .rev()
                            .map(|v| (v, v - 1))
                            .collect()
                    } else {
                        random
                    }
                });
            let threshold = (0usize..4).prop_map(move |k| match k {
                0 => None,
                k => Some(n * k / 3 + 1),
            });
            (Just(n), proptest::collection::vec(batch, 1..12), threshold)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn every_epoch_matches_the_labels_of_its_batch((n, batches, threshold) in arb_run()) {
            let mut cc = IncrementalCc::new(n).with_compress_threshold(threshold);
            let mut snap = Snapshot::new(0, &cc);
            check(&snap, &cc)?;
            for (epoch, batch) in batches.iter().enumerate() {
                let delta = cc.insert_batch(batch);
                snap = snap.next(epoch as u64 + 1, &cc, &delta);
                check(&snap, &cc)?;
            }
        }
    }
}
