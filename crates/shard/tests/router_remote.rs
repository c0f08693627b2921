//! The router over `RemoteShards`: two in-process `Server`s behind
//! loopback sockets, so every `Resolve` the router sends crosses the
//! wire encoder, a TCP connection and a worker's frame loop. Answers
//! must equal a single-engine oracle; a repeated read must cost each
//! worker exactly one `Resolve`, and no read may send a worker a
//! `Component`, `ComponentSize` or `Stats`.
//!
//! Own test binary on purpose: the per-op request series it reads are
//! process-global.

use std::net::TcpListener;
use std::time::Duration;

use afforest_core::IncrementalCc;
use afforest_graph::Node;
use afforest_serve::metrics::{metrics, op_index};
use afforest_serve::{Endpoint, Request, Response, RetryPolicy, ServeConfig, Server};
use afforest_shard::{BoundaryStore, RemoteShards, Router, ShardPlan};

const N: usize = 64;

/// Requests the workers of this process have answered, by op.
fn answered(req: &Request) -> u64 {
    metrics().requests[op_index(req)].get()
}

/// The worker-side counts a read may move: `Resolve` and the three ops
/// the router used to send instead.
fn worker_reads() -> [u64; 4] {
    [
        answered(&Request::Resolve(vec![])),
        answered(&Request::Component(0)),
        answered(&Request::ComponentSize(0)),
        answered(&Request::Stats),
    ]
}

#[test]
fn a_router_over_tcp_workers_resolves_once_per_shard() {
    let plan = ShardPlan::new(N, 2);
    let config = ServeConfig::builder().build().unwrap();
    let workers: Vec<Server> = (0..2)
        .map(|k| Server::new(plan.shard_len(k), &[], config.clone()).unwrap())
        .collect();
    let listeners: Vec<TcpListener> = (0..2)
        .map(|_| TcpListener::bind("127.0.0.1:0").unwrap())
        .collect();
    let addrs: Vec<String> = listeners
        .iter()
        .map(|l| l.local_addr().unwrap().to_string())
        .collect();

    std::thread::scope(|s| {
        let served: Vec<_> = workers
            .iter()
            .zip(listeners)
            .map(|(w, l)| s.spawn(move || w.serve_tcp(l, 2)))
            .collect();
        let remote = RemoteShards::connect(
            &addrs,
            RetryPolicy::default(),
            Some(Duration::from_secs(10)),
        );
        assert!(remote.down_at_boot().is_empty());
        let router = Router::new(plan.clone(), BoundaryStore::new(N), remote, None);

        // A chain inside each half, plus cut edges gluing some of it.
        let mut edges: Vec<(Node, Node)> = (0..20).map(|v| (v, v + 1)).collect();
        edges.extend((32..50).map(|v| (v, v + 1)));
        edges.extend([(5, 40), (31, 32), (25, 60)]);
        assert_eq!(
            router.handle(&Request::InsertEdges(edges.clone())),
            Response::Accepted {
                edges: edges.len() as u32
            }
        );
        assert!(router.flush(Duration::from_secs(10)));
        let mut oracle = IncrementalCc::new(N);
        oracle.insert_batch(&edges);
        let labels = oracle.labels();

        assert_eq!(
            router.handle(&Request::NumComponents),
            Response::NumComponents(oracle.num_components() as u64)
        );
        for u in 0..N as Node {
            let size = (0..N as Node).filter(|&w| oracle.connected(u, w)).count();
            assert_eq!(
                router.handle(&Request::Component(u)),
                Response::Component(labels.label(u)),
                "Component({u})"
            );
            assert_eq!(
                router.handle(&Request::ComponentSize(u)),
                Response::ComponentSize(size as u64),
                "ComponentSize({u})"
            );
            let v = (u * 37 + 11) % N as Node;
            assert_eq!(
                router.handle(&Request::Connected(u, v)),
                Response::Connected(oracle.connected(u, v)),
                "Connected({u}, {v})"
            );
        }

        // A repeated straddling read: one Resolve per worker and nothing
        // else. The series are process-wide and nothing else in this
        // binary talks to the workers, so the deltas are exact.
        let before = worker_reads();
        assert_eq!(
            router.handle(&Request::Connected(0, 41)),
            Response::Connected(true)
        );
        let after = worker_reads();
        assert_eq!(
            [
                after[0] - before[0],
                after[1] - before[1],
                after[2] - before[2],
                after[3] - before[3]
            ],
            [2, 0, 0, 0],
            "worker requests of one cached read: [Resolve, Component, ComponentSize, Stats]"
        );

        // Shutdown cascades to the workers, whose accept pools exit.
        router.shutdown_backend();
        for handle in served {
            handle.join().unwrap().unwrap();
        }
    });
}
