//! Chaos-injection integration tests: a real TCP server under seeded
//! faults — torn response frames, delayed applies, killed accept workers
//! — with a WAL underneath, must (a) keep making progress, (b) never
//! panic, and (c) recover to exactly the state it served.

use afforest_core::IncrementalCc;
use afforest_serve::protocol::call;
use afforest_serve::wal::{self, recover};
use afforest_serve::Endpoint;
use afforest_serve::{BatchPolicy, FaultPlan, Request, Response, ServeConfig, Server};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn tempdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("afforest-chaos-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn connect(addr: std::net::SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream
}

/// Torn frames and stretched applies, with the WAL (and its compaction)
/// underneath: clients see broken connections, not broken answers, and
/// the recovered state matches the served state exactly.
#[test]
fn torn_frames_and_slow_applies_recover_equivalently() {
    let n = 256usize;
    let dir = tempdir("equiv");
    let seed_edges: Vec<(u32, u32)> = (1..64u32).map(|v| (v - 1, v)).collect();
    let faults = Arc::new(
        FaultPlan::parse("seed=21,torn_frame=0.08,apply_delay_ms=1,apply_delay_prob=0.3")
            .expect("fault spec"),
    );
    // snapshot_every=4 makes compaction fire mid-run, so recovery starts
    // from a snapshot plus a log tail — the realistic shape.
    let config = ServeConfig::builder()
        .policy(BatchPolicy {
            max_edges: 8,
            max_delay: Duration::from_millis(1),
            apply_delay: None,
        })
        .read_deadline(Some(Duration::from_secs(10)))
        .wal_root(Some(dir.clone()))
        .wal_snapshot_every(4)
        .faults(Some(Arc::clone(&faults)))
        .build()
        .expect("valid config");
    let mut server = Server::new(n, &seed_edges, config).expect("start server");
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();

    let mut admitted = 0u32;
    let mut broken_connections = 0u32;
    std::thread::scope(|s| {
        s.spawn(|| server.serve_tcp(listener, 4).expect("serve_tcp"));

        let mut stream = connect(addr);
        for i in 0..240u32 {
            let req = if i % 3 == 0 {
                // Deterministic edges so the test knows what it sent.
                let u = (i * 7) % n as u32;
                let v = (i * 13 + 1) % n as u32;
                Request::InsertEdges(vec![(u, v)])
            } else {
                Request::Connected(i % n as u32, (i / 2) % n as u32)
            };
            match call(&mut stream, &req) {
                Ok(Response::Accepted { .. }) => admitted += 1,
                Ok(Response::Connected(_)) => {}
                Ok(other) => panic!("unexpected answer {other:?}"),
                // A torn frame kills the connection, exactly like a
                // crashed server: reconnect and move on. The request's
                // fate is unknown (it may have been admitted).
                Err(_) => {
                    broken_connections += 1;
                    stream = connect(addr);
                }
            }
        }
        server.request_shutdown();
    });

    // The chaos actually happened.
    let injected = faults.injected();
    assert!(
        injected.torn_frames > 0,
        "no torn frames at p=0.08 over 240 calls"
    );
    assert!(injected.apply_delays > 0, "no apply delays at p=0.3");
    assert!(broken_connections > 0);
    assert!(admitted > 0, "no insert survived the chaos");

    // Drain and stop the writer so the WAL is complete, then recover:
    // append-before-apply means every applied batch is in the log, so the
    // recovered component structure must match the served one exactly.
    server.join_writer();
    let expected = match server.handle(&Request::NumComponents) {
        Response::NumComponents(c) => c,
        other => panic!("expected NumComponents, got {other:?}"),
    };
    let mut seed = IncrementalCc::new(n);
    seed.insert_batch(&seed_edges);
    let rec = recover(&wal::default_wal_dir(&dir), Some(seed)).expect("recover");
    assert!(
        rec.from_snapshot,
        "compaction never fired (snapshot_every=4)"
    );
    assert!(!rec.truncated, "no WAL write faults were injected");
    assert_eq!(rec.cc.num_components() as u64, expected);
    // WAL errors are a process fact; nothing in this binary injects one.
    assert_eq!(afforest_serve::metrics::metrics().wal_errors.get(), 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Killed accept workers shrink the pool but never take the service down:
/// some connections die, later ones still get answers, and an in-process
/// shutdown still works.
#[test]
fn killed_workers_dont_take_down_the_pool() {
    let faults = Arc::new(FaultPlan::parse("seed=9,kill_worker=0.35").expect("fault spec"));
    let config = ServeConfig::builder()
        .faults(Some(Arc::clone(&faults)))
        .build()
        .expect("valid config");
    let server = Server::new(32, &[(0, 1), (1, 2)], config).expect("start server");
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();

    let mut answered = 0u32;
    let mut died = 0u32;
    std::thread::scope(|s| {
        // More workers than connections: even if every single accept drew a
        // kill, the pool could not be exhausted, so every death is observed
        // as exactly one dropped connection (no timeouts masquerading).
        s.spawn(|| server.serve_tcp(listener, 16).expect("serve_tcp"));

        // One request per fresh connection: each either hits a live worker
        // or a worker that dies on arrival (the connection drops).
        for _ in 0..12 {
            let mut stream = connect(addr);
            match call(&mut stream, &Request::Connected(0, 2)) {
                Ok(resp) => {
                    assert_eq!(resp, Response::Connected(true));
                    answered += 1;
                }
                Err(_) => died += 1,
            }
        }
        server.request_shutdown();
    });

    assert!(
        faults.injected().worker_kills > 0,
        "no workers killed at p=0.35"
    );
    assert_eq!(died, faults.injected().worker_kills as u32);
    assert!(answered > 0, "pool died entirely");
    assert_eq!(answered + died, 12);
}
