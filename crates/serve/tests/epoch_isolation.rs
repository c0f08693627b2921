//! The acceptance property: reads never block on the writer.
//!
//! The writer is pinned mid-apply with `BatchPolicy::apply_delay`; while
//! it is provably inside the apply window (`Server::applying`),
//! `Connected` queries must keep answering — from the *old* epoch — and
//! answer fast.

use afforest_serve::{BatchPolicy, Request, Response, ServeConfig, Server};
use std::time::{Duration, Instant};

#[test]
fn connected_succeeds_on_old_epoch_while_insert_is_mid_apply() {
    // Two disjoint halves: 0..500 is a path, 500..1000 is a path.
    let n = 1_000usize;
    let mut edges: Vec<(u32, u32)> = (1..500u32).map(|v| (v - 1, v)).collect();
    edges.extend((501..1_000u32).map(|v| (v - 1, v)));
    let hold = Duration::from_millis(300);
    let config = ServeConfig::builder()
        .policy(BatchPolicy {
            max_edges: 1,
            max_delay: Duration::from_millis(1),
            // Pin the writer inside the apply window long enough to probe.
            apply_delay: Some(hold),
        })
        .build()
        .expect("valid config");
    let server = Server::new(n, &edges, config).expect("start server");
    let epoch0 = server.snapshot().epoch;
    assert_eq!(
        server.handle(&Request::Connected(0, 999)),
        Response::Connected(false)
    );

    // Kick off the bridging insert; the writer picks it up and stalls
    // mid-apply for `hold`.
    assert_eq!(
        server.handle(&Request::InsertEdges(vec![(499, 500)])),
        Response::Accepted { edges: 1 }
    );
    let deadline = Instant::now() + Duration::from_secs(10);
    while !server.applying() {
        assert!(Instant::now() < deadline, "writer never entered apply");
        std::thread::sleep(Duration::from_millis(1));
    }

    // The writer is mid-apply, and stays there for at least `hold` from
    // the drain just seen. Probing only through the first half keeps
    // every probe clear of the publish. Reads must (a) not block, (b)
    // answer from the old epoch.
    let seen = Instant::now();
    let mut probes = 0u32;
    while seen.elapsed() < hold / 2 {
        let t = Instant::now();
        let resp = server.handle(&Request::Connected(0, 999));
        let took = t.elapsed();
        assert_eq!(resp, Response::Connected(false), "old epoch must answer");
        assert_eq!(server.snapshot().epoch, epoch0, "epoch flipped mid-apply");
        // "Fast" = a tiny fraction of the 300 ms apply window: if reads
        // waited on the writer, a probe would take ~the whole window.
        assert!(
            took < hold / 10,
            "read took {took:?} while writer held the apply for {hold:?}"
        );
        probes += 1;
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(
        probes >= 3,
        "apply window too short to demonstrate isolation ({probes} probes)"
    );

    // After publish, the new epoch answers true.
    assert!(server.flush(Duration::from_secs(10)));
    assert_eq!(
        server.handle(&Request::Connected(0, 999)),
        Response::Connected(true)
    );
    assert!(server.snapshot().epoch > epoch0);
    assert_eq!(server.stats_report().edges_ingested, 1);
}

#[test]
fn snapshot_arc_taken_before_publish_stays_valid_after() {
    let config = ServeConfig::builder()
        .policy(BatchPolicy {
            max_edges: 1,
            max_delay: Duration::from_millis(1),
            apply_delay: None,
        })
        .build()
        .expect("valid config");
    let server = Server::new(4, &[(0, 1)], config).expect("start server");
    let old = server.snapshot();
    assert_eq!(old.connected(1, 2), Some(false));

    server.handle(&Request::InsertEdges(vec![(1, 2)]));
    assert!(server.flush(Duration::from_secs(10)));

    // A reader that captured the old Arc keeps a consistent view even
    // though the store moved on.
    assert_eq!(old.connected(1, 2), Some(false));
    assert_eq!(server.snapshot().connected(1, 2), Some(true));
}
