//! End-to-end loopback smoke test: a real TCP server on an ephemeral
//! port, driven by real clients through the wire protocol.

use afforest_serve::protocol::write_frame;
use afforest_serve::Endpoint;
use afforest_serve::{Client, ClientError, LoadgenConfig, Request, Response, ServeConfig, Server};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

/// Starts a path-graph server on an ephemeral loopback port and returns
/// (server, address). The caller drives `serve_tcp` from a scoped thread.
fn bind() -> (Server, TcpListener, std::net::SocketAddr) {
    let n = 200usize;
    let edges: Vec<(u32, u32)> = (1..n as u32).map(|v| (v - 1, v)).collect();
    let config = ServeConfig::builder().build().expect("valid config");
    let server = Server::new(n, &edges, config).expect("start server");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().unwrap();
    (server, listener, addr)
}

fn connect(addr: std::net::SocketAddr) -> Client {
    Client::connect(addr)
        .expect("connect")
        .with_read_timeout(Some(Duration::from_secs(10)))
        .expect("set read timeout")
}

#[test]
fn tcp_roundtrip_read_write_shutdown() {
    let (server, listener, addr) = bind();
    std::thread::scope(|s| {
        s.spawn(|| server.serve_tcp(listener, 4).unwrap());

        let mut c = connect(addr);
        assert!(c.connected(0, 199).unwrap());
        assert_eq!(c.num_components().unwrap(), 1);
        assert_eq!(c.insert_edges(&[(0, 0)]).unwrap(), 1);
        assert_eq!(c.stats().unwrap().vertices, 200);
        // Out-of-range query: a typed Err response, connection stays up.
        match c.component(10_000) {
            Err(ClientError::Server(msg)) => assert!(msg.contains("out of range"), "{msg}"),
            other => panic!("expected server error, got {other:?}"),
        }
        assert!(c.connected(5, 6).unwrap());
        c.shutdown().unwrap();
    });
    assert!(server.shutdown_requested());
}

#[test]
fn tcp_inserts_become_visible_across_connections() {
    let (server, listener, addr) = bind();
    std::thread::scope(|s| {
        s.spawn(|| server.serve_tcp(listener, 4).unwrap());

        let mut writer = connect(addr);
        assert!(writer.connected(0, 199).unwrap());
        // The path is one component; a self-contained second component
        // cannot exist, so insert nothing new — instead check epochs: a
        // fresh connection sees the same snapshot.
        let mut reader = connect(addr);
        assert_eq!(reader.num_components().unwrap(), 1);
        writer.shutdown().unwrap();
    });
}

#[test]
fn tcp_malformed_frame_gets_err_response() {
    let (server, listener, addr) = bind();
    std::thread::scope(|s| {
        s.spawn(|| server.serve_tcp(listener, 2).unwrap());

        // A well-framed but bogus payload (unknown opcode): typed Err,
        // connection survives. The typed client cannot emit a malformed
        // frame, so this test speaks raw wire bytes on purpose.
        let mut c = TcpStream::connect(addr).expect("connect");
        c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        write_frame(&mut c, &[0x5A, 1, 2, 3]).unwrap();
        let payload = afforest_serve::protocol::read_frame(&mut c)
            .unwrap()
            .expect("response frame");
        match afforest_serve::protocol::decode_response(&payload).unwrap() {
            Response::Err(msg) => assert!(msg.contains("unknown opcode"), "{msg}"),
            other => panic!("expected Err, got {other:?}"),
        }
        // The same connection still answers real requests afterwards.
        assert_eq!(
            afforest_serve::protocol::call(&mut c, &Request::Connected(0, 1)).unwrap(),
            Response::Connected(true)
        );

        let mut closer = connect(addr);
        closer.shutdown().unwrap();
    });
    // The malformed frame was counted (a process fact, so at least one).
    assert!(afforest_serve::metrics::metrics().protocol_errors.get() >= 1);
}

#[test]
fn tcp_loadgen_mixed_workload_zero_errors() {
    let (server, listener, addr) = bind();
    std::thread::scope(|s| {
        s.spawn(|| server.serve_tcp(listener, 6).unwrap());

        let cfg = LoadgenConfig {
            connections: 3,
            requests: 1_500,
            read_pct: 90,
            insert_batch: 16,
            seed: 11,
            ..LoadgenConfig::default()
        };
        let report =
            afforest_serve::loadgen::run(&cfg, |_| Client::connect(addr)).expect("loadgen run");
        assert_eq!(report.requests, 1_500);
        assert_eq!(report.errors, 0, "{}", report.render());
        assert!(report.latency.count == 1_500);

        let mut closer = connect(addr);
        closer.shutdown().unwrap();
    });
    // Writes flowed through the writer thread to published epochs.
    assert!(server.flush(Duration::from_secs(10)));
    let stats = server.stats_report();
    assert!(stats.edges_ingested > 0);
    assert!(stats.epochs_published > 0);
}
