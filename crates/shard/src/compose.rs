//! Composite connectivity: merging per-shard forests with the
//! boundary graph.
//!
//! Each shard engine maintains a spanning forest over its own slice,
//! so a shard labels a local vertex with its *component-minimum local
//! id*. Cross-shard connectivity is decided by a small auxiliary
//! structure built here, a pure function of the stored cut edges and
//! one [`ShardView`] per shard:
//!
//! 1. Every endpoint of a stored cut edge is mapped to its
//!    **representative** `(shard, local component label)` through its
//!    shard's view.
//! 2. A union-find over the distinct representatives is seeded with
//!    one union per stored cut edge, producing equivalence **classes**
//!    of local components that are glued together across shards.
//! 3. A class's global label is the minimum `to_global(shard, label)`
//!    over its member representatives, and its size is the sum of the
//!    members' sizes. Because the block partition is order-preserving,
//!    this equals the component-minimum global label a single
//!    unsharded engine would report.
//!
//! Vertices whose local component touches no cut edge never appear in
//! the class map; their shard's own answer is already global truth.
//! The global component count follows by inclusion–exclusion:
//! `sum(local components) - (representatives - classes)`.
//!
//! A view is one `Resolve` answer: the shard's epoch, its component
//! count and the label and size of each of its cut endpoints, all read
//! from one snapshot. The router keeps the views of the last composite
//! and asks again only the shards whose epoch moved or that new cut
//! edges touch (DESIGN.md §15).
//!
//! ## Degraded composition (DESIGN.md §15)
//!
//! A shard that did not answer has a down view ([`ShardView::down`]).
//! Instead of failing, the build **degrades**: a cut endpoint owned by
//! a down shard becomes a *pseudo representative*
//! `(shard, local id of the endpoint itself)` with size 1 — each pseudo
//! rep is a distinct real vertex of the true graph, so unions through
//! it are real connectivity (the cut edges incident to it exist) and
//! sizes are lower bounds. Nothing is ever invented: a degraded
//! `connected == true` is always true in the full graph; `false` may be
//! conservative, which is exactly why the router tags such answers
//! [`Degraded`](afforest_serve::Response::Degraded). The census covers
//! live shards only.

use std::collections::HashMap;
use std::sync::Arc;

use afforest_core::IncrementalCc;
use afforest_graph::Node;

use crate::plan::ShardPlan;

/// What the router knows of one shard, read from one snapshot of it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardView {
    /// Epoch of the snapshot; [`ShardView::DOWN`] while the shard is
    /// down.
    pub epoch: u64,
    /// Local component count in the snapshot (0 while down).
    pub num_components: u64,
    /// Local id of each cut endpoint on the shard → its local component
    /// label and size (empty while down).
    pub endpoints: HashMap<Node, (Node, u64)>,
}

impl ShardView {
    /// The epoch of a down shard's view.
    pub const DOWN: u64 = u64::MAX;

    /// The view of a shard that did not answer.
    pub fn down() -> ShardView {
        ShardView {
            epoch: ShardView::DOWN,
            ..ShardView::default()
        }
    }

    /// Whether the shard was down.
    pub fn is_down(&self) -> bool {
        self.epoch == ShardView::DOWN
    }
}

/// One equivalence class of cross-shard-glued local components.
#[derive(Debug, Clone, Copy)]
pub struct CompositeClass {
    /// Global component label: the minimum global id over members.
    pub label: Node,
    /// Total vertices across member local components (a lower bound
    /// when the composite is degraded).
    pub size: u64,
}

/// The merged view of per-shard forests and the boundary graph,
/// cached by the router together with the inputs it was built from.
#[derive(Debug)]
pub struct Composite {
    /// Boundary store version this view was built from.
    pub boundary_version: u64,
    /// Component count over the **live** shards (global truth when not
    /// degraded).
    pub num_components: u64,
    /// Whether any shard was down during the build. Answers composed
    /// from a degraded view must be tagged `Response::Degraded`.
    pub degraded: bool,
    cut: Vec<(Node, Node)>,
    endpoints: Vec<Vec<Node>>,
    views: Vec<Arc<ShardView>>,
    rep_class: HashMap<(usize, Node), usize>,
    classes: Vec<CompositeClass>,
}

impl Composite {
    /// The class containing local component `rep = (shard, label)`,
    /// or `None` when that component touches no cut edge. For a down
    /// shard the key is the pseudo representative
    /// `(shard, local id of the cut endpoint)`.
    pub fn class_of(&self, rep: (usize, Node)) -> Option<usize> {
        self.rep_class.get(&rep).copied()
    }

    /// Class by index.
    pub fn class(&self, idx: usize) -> Option<&CompositeClass> {
        self.classes.get(idx)
    }

    /// The stored cut edges this view was built from (global ids).
    pub fn cut(&self) -> &[(Node, Node)] {
        &self.cut
    }

    /// The distinct cut endpoints on `shard`, in local ids.
    pub fn endpoints(&self, shard: usize) -> &[Node] {
        self.endpoints.get(shard).map_or(&[], Vec::as_slice)
    }

    /// The view of `shard` this composite was built from.
    pub fn view(&self, shard: usize) -> Option<&Arc<ShardView>> {
        self.views.get(shard)
    }
}

/// The distinct endpoints of `cut` on each shard, in local ids and
/// ascending order.
pub fn endpoints(plan: &ShardPlan, cut: &[(Node, Node)]) -> Vec<Vec<Node>> {
    let mut out = vec![Vec::new(); plan.num_shards()];
    for &(u, v) in cut {
        for w in [u, v] {
            if let Some(list) = out.get_mut(plan.owner(w)) {
                list.push(plan.to_local(w));
            }
        }
    }
    for list in &mut out {
        list.sort_unstable();
        list.dedup();
    }
    out
}

/// Builds the [`Composite`] of `cut` (the boundary store's forest at
/// `boundary_version`) over one view per shard. `endpoints` is
/// [`endpoints`]`(plan, cut)`; every live view must resolve each of its
/// shard's entries there.
pub fn build(
    plan: &ShardPlan,
    boundary_version: u64,
    cut: Vec<(Node, Node)>,
    endpoints: Vec<Vec<Node>>,
    views: Vec<Arc<ShardView>>,
) -> Composite {
    let down = |s: usize| views.get(s).is_none_or(|v| v.is_down());
    // Each endpoint's rep and its local component's size: a pseudo-rep
    // of size 1 (the endpoint vertex itself, a lower bound that never
    // overcounts) when its shard is down.
    let rep_of = |w: Node| -> ((usize, Node), u64) {
        let s = plan.owner(w);
        let local = plan.to_local(w);
        match views.get(s).and_then(|v| v.endpoints.get(&local)) {
            Some(&(label, size)) => ((s, label), size),
            None => {
                debug_assert!(down(s), "shard {s}'s view lacks cut endpoint {local}");
                ((s, local), 1)
            }
        }
    };

    let mut rep_idx: HashMap<(usize, Node), usize> = HashMap::new();
    let mut reps: Vec<((usize, Node), u64)> = Vec::new();
    let mut index = |w: Node| -> usize {
        let (rep, size) = rep_of(w);
        *rep_idx.entry(rep).or_insert_with(|| {
            reps.push((rep, size));
            reps.len() - 1
        })
    };
    let glued: Vec<(usize, usize)> = cut.iter().map(|&(u, v)| (index(u), index(v))).collect();
    let mut uf = IncrementalCc::new(reps.len());
    for (a, b) in glued {
        uf.insert(a as Node, b as Node);
    }

    // Collapse union-find roots into classes with global labels.
    let labels = uf.labels();
    let mut class_of_label: HashMap<Node, usize> = HashMap::new();
    let mut classes: Vec<CompositeClass> = Vec::new();
    let mut live_in_class: Vec<u64> = Vec::new();
    let mut rep_class = HashMap::with_capacity(reps.len());
    for (i, &(rep, size)) in reps.iter().enumerate() {
        let idx = *class_of_label
            .entry(labels.label(i as Node))
            .or_insert_with(|| {
                classes.push(CompositeClass {
                    label: Node::MAX,
                    size: 0,
                });
                live_in_class.push(0);
                classes.len() - 1
            });
        let global = plan.to_global(rep.0, rep.1);
        classes[idx].label = classes[idx].label.min(global);
        classes[idx].size += size;
        if !down(rep.0) {
            live_in_class[idx] += 1;
        }
        rep_class.insert(rep, idx);
    }

    // Census over live shards only: merges are counted per live rep
    // glued into a class that holds at least one live rep, so classes
    // made solely of down-shard pseudo-reps do not enter at all.
    let total_local: u64 = views
        .iter()
        .filter(|v| !v.is_down())
        .map(|v| v.num_components)
        .sum();
    let live_reps = reps.iter().filter(|((s, _), _)| !down(*s)).count() as u64;
    let live_classes = live_in_class.iter().filter(|&&n| n > 0).count() as u64;
    let degraded = (0..plan.num_shards()).any(down);
    Composite {
        boundary_version,
        num_components: total_local - (live_reps - live_classes),
        degraded,
        cut,
        endpoints,
        views,
        rep_class,
        classes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A live view resolving each `(endpoint, label, size)`.
    fn view(epoch: u64, num_components: u64, endpoints: &[(Node, Node, u64)]) -> Arc<ShardView> {
        Arc::new(ShardView {
            epoch,
            num_components,
            endpoints: endpoints
                .iter()
                .map(|&(w, label, size)| (w, (label, size)))
                .collect(),
        })
    }

    /// The `(label, size)` of the class holding `rep`.
    fn class(c: &Composite, rep: (usize, Node)) -> Option<(Node, u64)> {
        c.class_of(rep)
            .and_then(|i| c.class(i))
            .map(|k| (k.label, k.size))
    }

    #[test]
    fn endpoints_are_distinct_local_ids_per_shard() {
        let plan = ShardPlan::new(8, 2);
        assert_eq!(
            endpoints(&plan, &[(1, 4), (3, 4), (1, 7)]),
            vec![vec![1, 3], vec![0, 3]]
        );
    }

    #[test]
    fn classes_glue_components_and_the_census_subtracts_merges() {
        // Shard 0 = 0..4 with {0,1} joined, shard 1 = 4..8 with {4,5}
        // joined; cut edges 1–4 and 3–7.
        let plan = ShardPlan::new(8, 2);
        let cut = vec![(1, 4), (3, 7)];
        let views = vec![
            view(3, 3, &[(1, 0, 2), (3, 3, 1)]),
            view(5, 3, &[(0, 0, 2), (3, 3, 1)]),
        ];
        let c = build(&plan, 2, cut.clone(), endpoints(&plan, &cut), views);
        assert!(!c.degraded);
        // {0,1,4,5}, {3,7}, {2}, {6}.
        assert_eq!(c.num_components, 4);
        assert_eq!(c.class_of((1, 0)), c.class_of((0, 0)));
        assert_eq!(class(&c, (0, 0)), Some((0, 4)));
        assert_eq!(c.class_of((0, 3)), c.class_of((1, 3)));
        assert_eq!(class(&c, (1, 3)), Some((3, 2)));
        assert_eq!(c.class_of((0, 2)), None);
    }

    #[test]
    fn a_down_shard_keys_its_endpoints_as_pseudo_reps() {
        let plan = ShardPlan::new(8, 2);
        let cut = vec![(1, 4)];
        let views = vec![view(3, 3, &[(1, 0, 2)]), Arc::new(ShardView::down())];
        let c = build(&plan, 1, cut.clone(), endpoints(&plan, &cut), views);
        assert!(c.degraded);
        // Shard 1's endpoint 4 is the pseudo-rep (1, local 0), size 1.
        assert_eq!(c.class_of((0, 0)), c.class_of((1, 0)));
        assert_eq!(class(&c, (1, 0)), Some((0, 3)));
        // Census over the live shard only: no live-to-live merge.
        assert_eq!(c.num_components, 3);
    }
}
