//! Satellite: the router's answers over random interleaved ingest
//! across shards must match a single-engine `IncrementalCc` oracle —
//! including queries that straddle a just-applied cross-shard edge, and
//! reads between batches, which reuse the cached views of the shards
//! that did not move. With a shard down, answers may only understate.

use std::sync::Mutex;
use std::time::Duration;

use afforest_core::IncrementalCc;
use afforest_graph::Node;
use afforest_serve::{Request, Response, ServeConfig};
use afforest_shard::{
    BoundaryStore, LocalCluster, Router, ShardBackend, ShardPlan, ShardUnavailable,
};
use proptest::prelude::*;

fn router(n: usize, shards: usize) -> Router<LocalCluster> {
    let plan = ShardPlan::new(n, shards);
    let config = ServeConfig::builder().build().unwrap();
    let cluster = LocalCluster::new(&plan, &[], &config).unwrap();
    Router::new(plan, BoundaryStore::new(n), cluster, None)
}

/// An in-process cluster whose shards can be killed: a killed shard
/// answers no call (typed `Dead`).
struct Killable {
    inner: LocalCluster,
    dead: Mutex<Vec<bool>>,
}

impl ShardBackend for Killable {
    fn num_shards(&self) -> usize {
        self.inner.num_shards()
    }

    fn call(&self, shard: usize, req: &Request) -> Result<Response, ShardUnavailable> {
        if self
            .dead
            .lock()
            .unwrap()
            .get(shard)
            .copied()
            .unwrap_or(false)
        {
            return Err(ShardUnavailable::Dead {
                shard,
                reason: "killed by test".into(),
            });
        }
        self.inner.call(shard, req)
    }

    fn flush(&self, timeout: Duration) -> bool {
        self.inner.flush(timeout)
    }

    fn shutdown(&self) {
        self.inner.shutdown();
    }
}

/// The answer inside an optional `Degraded` tag.
fn untagged(resp: Response) -> Response {
    match resp {
        Response::Degraded(inner) => *inner,
        other => other,
    }
}

fn insert_ok<B: ShardBackend>(r: &Router<B>, batch: &[(Node, Node)]) {
    // The in-process cluster may shed under a full queue; retry until
    // the batch lands (idempotent, see router docs).
    for _ in 0..1000 {
        match r.handle(&Request::InsertEdges(batch.to_vec())) {
            Response::Accepted { .. } => return,
            Response::Overloaded { .. } => {
                std::thread::sleep(Duration::from_millis(1));
            }
            other => panic!("insert answered {other:?}"),
        }
    }
    panic!("insert kept shedding");
}

fn assert_matches_oracle(
    r: &Router<LocalCluster>,
    oracle: &mut IncrementalCc,
    n: usize,
    probes: &[(Node, Node)],
) {
    assert!(r.flush(Duration::from_secs(10)), "shards did not drain");
    match r.handle(&Request::NumComponents) {
        Response::NumComponents(c) => {
            assert_eq!(c, oracle.num_components() as u64, "NumComponents diverged")
        }
        other => panic!("NumComponents answered {other:?}"),
    }
    let labels = oracle.labels();
    let mut size_of_label = std::collections::HashMap::new();
    for &l in labels.as_slice() {
        *size_of_label.entry(l).or_insert(0u64) += 1;
    }
    for &(u, v) in probes {
        match r.handle(&Request::Connected(u, v)) {
            Response::Connected(b) => {
                assert_eq!(b, oracle.connected(u, v), "Connected({u}, {v}) diverged")
            }
            other => panic!("Connected answered {other:?}"),
        }
    }
    for u in 0..n as Node {
        match r.handle(&Request::Component(u)) {
            Response::Component(l) => {
                assert_eq!(l, labels.label(u), "Component({u}) diverged")
            }
            other => panic!("Component answered {other:?}"),
        }
        match r.handle(&Request::ComponentSize(u)) {
            Response::ComponentSize(s) => assert_eq!(
                s,
                *size_of_label.get(&labels.label(u)).unwrap_or(&0),
                "ComponentSize({u}) diverged"
            ),
            other => panic!("ComponentSize answered {other:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn router_matches_single_engine_oracle(
        n in 8usize..48,
        shards in 1usize..5,
        batches in proptest::collection::vec(
            proptest::collection::vec((0u32..48, 0u32..48), 1..12),
            1..8,
        ),
        probe_seed in proptest::collection::vec((0u32..48, 0u32..48), 8),
    ) {
        let r = router(n, shards);
        let plan = ShardPlan::new(n, shards);
        let mut oracle = IncrementalCc::new(n);
        let clamp = |v: u32| v % n as u32;
        for batch in &batches {
            let batch: Vec<(Node, Node)> = batch.iter().map(|&(u, v)| (clamp(u), clamp(v))).collect();
            insert_ok(&r, &batch);
            oracle.insert_batch(&batch);
            // Straddle check: immediately after applying, query the
            // endpoints of every cross-shard edge in this batch.
            let straddlers: Vec<(Node, Node)> = batch
                .iter()
                .copied()
                .filter(|&(u, v)| plan.is_cut(u, v))
                .collect();
            // Before the flush a read sees a subset of the edges, so it
            // may miss a connection but never invent one.
            let probes: Vec<(Node, Node)> = probe_seed.iter().map(|&(u, v)| (clamp(u), clamp(v))).collect();
            for &(u, v) in &probes {
                match r.handle(&Request::Connected(u, v)) {
                    Response::Connected(b) => prop_assert!(!b || oracle.connected(u, v), "unflushed Connected({u}, {v}) invented"),
                    other => panic!("Connected answered {other:?}"),
                }
            }
            prop_assert!(r.flush(Duration::from_secs(10)));
            if !straddlers.is_empty() {
                for &(u, v) in &straddlers {
                    match r.handle(&Request::Connected(u, v)) {
                        Response::Connected(b) => prop_assert!(b, "just-applied cut edge ({u}, {v}) not connected"),
                        other => panic!("Connected answered {other:?}"),
                    }
                }
            }
            // Flushed, between batches: exact, composed from the views
            // of the shards this batch did not move plus fresh ones.
            match r.handle(&Request::NumComponents) {
                Response::NumComponents(c) => prop_assert_eq!(c, oracle.num_components() as u64, "NumComponents diverged mid-stream"),
                other => panic!("NumComponents answered {other:?}"),
            }
            for &(u, v) in &probes {
                match r.handle(&Request::Connected(u, v)) {
                    Response::Connected(b) => prop_assert_eq!(b, oracle.connected(u, v), "Connected({}, {}) diverged mid-stream", u, v),
                    other => panic!("Connected answered {other:?}"),
                }
            }
        }
        let probes: Vec<(Node, Node)> = probe_seed.iter().map(|&(u, v)| (clamp(u), clamp(v))).collect();
        assert_matches_oracle(&r, &mut oracle, n, &probes);
        r.shutdown_backend();
    }

    #[test]
    fn degraded_answers_never_overclaim(
        n in 8usize..48,
        shards in 2usize..5,
        batches in proptest::collection::vec(
            proptest::collection::vec((0u32..48, 0u32..48), 1..12),
            1..6,
        ),
        victim in 0usize..5,
        probe_seed in proptest::collection::vec((0u32..48, 0u32..48), 8),
    ) {
        let plan = ShardPlan::new(n, shards);
        let config = ServeConfig::builder().build().unwrap();
        let cluster = LocalCluster::new(&plan, &[], &config).unwrap();
        let killable = Killable { inner: cluster, dead: Mutex::new(vec![false; shards]) };
        let r = Router::new(plan, BoundaryStore::new(n), killable, None);
        let mut oracle = IncrementalCc::new(n);
        let clamp = |v: u32| v % n as u32;
        for batch in &batches {
            let batch: Vec<(Node, Node)> = batch.iter().map(|&(u, v)| (clamp(u), clamp(v))).collect();
            insert_ok(&r, &batch);
            oracle.insert_batch(&batch);
        }
        prop_assert!(r.flush(Duration::from_secs(10)));
        // A read while every shard is up caches a view of each.
        let _ = r.handle(&Request::NumComponents);
        r.backend().dead.lock().unwrap()[victim % shards] = true;

        let labels = oracle.labels();
        let mut size_of_label = std::collections::HashMap::new();
        for &l in labels.as_slice() {
            *size_of_label.entry(l).or_insert(0u64) += 1;
        }
        for &(u, v) in &probe_seed {
            let (u, v) = (clamp(u), clamp(v));
            match untagged(r.handle(&Request::Connected(u, v))) {
                Response::Connected(b) => prop_assert!(!b || oracle.connected(u, v), "degraded Connected({u}, {v}) invented"),
                other => panic!("Connected answered {other:?}"),
            }
        }
        for u in 0..n as Node {
            let truth = *size_of_label.get(&labels.label(u)).unwrap_or(&0);
            match untagged(r.handle(&Request::ComponentSize(u))) {
                Response::ComponentSize(s) => prop_assert!(s <= truth, "degraded ComponentSize({u}) = {s} > {truth}"),
                other => panic!("ComponentSize answered {other:?}"),
            }
            // A degraded label is still a vertex of u's component.
            match untagged(r.handle(&Request::Component(u))) {
                Response::Component(l) => prop_assert!(oracle.connected(u, l), "degraded Component({u}) = {l} is not in its component"),
                other => panic!("Component answered {other:?}"),
            }
        }
        r.shutdown_backend();
    }
}
