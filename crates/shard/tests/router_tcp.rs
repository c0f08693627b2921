//! The shard router over loopback TCP. It is served by the same accept
//! pool and frame loop as a standalone server (`afforest_serve::frontend`),
//! so it answers each wire version in kind, keeps a connection open
//! across a malformed payload, closes one whose length prefix cannot be
//! framed or that idles past the read deadline, and counts its traffic in
//! the process-scope transport series.
//!
//! Own test binary on purpose: those series are process-global.

use afforest_serve::metrics::metrics;
use afforest_serve::protocol::{
    decode_response, decode_response_v2, encode_request, encode_request_v2, read_frame,
    write_frame, MAX_FRAME_LEN,
};
use afforest_serve::{Endpoint, Request, Response, ServeConfig, TenantId};
use afforest_shard::{BoundaryStore, LocalCluster, Router, ShardPlan};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

const N: usize = 8;

/// The router's idle-connection deadline.
const IDLE: Duration = Duration::from_millis(200);

/// An 8-vertex router over two in-process shards, seeded with 0-1 and
/// 4-5 inside the shards and the cut edge 1-4 between them.
fn router() -> Router<LocalCluster> {
    let plan = ShardPlan::new(N, 2);
    let routed = plan.split_batch([(0, 1), (4, 5), (1, 4)]);
    let config = ServeConfig::builder().build().unwrap();
    let cluster = LocalCluster::new(&plan, &routed.per_shard, &config).unwrap();
    let boundary = BoundaryStore::new(N);
    boundary.observe_batch(&routed.cut);
    Router::new(plan, boundary, cluster, Some(IDLE))
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
}

/// Sends one frame and returns the payload of the answer frame.
fn ask(stream: &mut TcpStream, payload: &[u8]) -> Vec<u8> {
    write_frame(stream, payload).unwrap();
    read_frame(stream).unwrap().expect("an answer frame")
}

fn ask_v1(stream: &mut TcpStream, req: &Request) -> Response {
    decode_response(&ask(stream, &encode_request(req))).unwrap()
}

/// Requests shutdown when dropped, so a failed assertion stops the
/// accept pool instead of leaving the scope waiting on it.
struct StopOnDrop<'a>(&'a Router<LocalCluster>);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.request_shutdown();
    }
}

#[test]
fn router_serves_the_shared_tcp_front_end() {
    let router = router();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let m = metrics();
    let connections = m.connections.get();
    let protocol_errors = m.protocol_errors.get();
    let bytes_read = m.bytes_read.get();
    let bytes_written = m.bytes_written.get();

    std::thread::scope(|s| {
        let served = s.spawn(|| router.serve_tcp(listener, 4));
        let _stop = StopOnDrop(&router);

        // Each client is answered in its own wire version. `Stats` is the
        // answer whose layout differs: the frozen v1 layout cannot carry
        // the tenant count (the router reports its shards there), v2 can.
        // The router ignores the v2 tenant.
        let mut v1 = connect(addr);
        match ask_v1(&mut v1, &Request::Stats) {
            Response::Stats(st) => assert_eq!((st.vertices, st.tenants), (N as u64, 0)),
            other => panic!("v1 Stats answered {other:?}"),
        }
        let mut v2 = connect(addr);
        let tenant = TenantId::new("anyone").unwrap();
        let mut ask_v2 =
            |req: &Request| decode_response_v2(&ask(&mut v2, &encode_request_v2(&tenant, req)));
        match ask_v2(&Request::Stats).unwrap() {
            Response::Stats(st) => assert_eq!((st.vertices, st.tenants), (N as u64, 2)),
            other => panic!("v2 Stats answered {other:?}"),
        }
        assert_eq!(
            ask_v2(&Request::Connected(0, 5)).unwrap(),
            Response::Connected(true)
        );

        // A bad opcode inside a well-delimited frame: Err, and the same
        // connection keeps answering.
        match decode_response(&ask(&mut v1, &[0xEE])).unwrap() {
            Response::Err(msg) => assert!(msg.contains("opcode"), "{msg}"),
            other => panic!("bad opcode answered {other:?}"),
        }
        assert_eq!(
            ask_v1(&mut v1, &Request::Connected(0, 5)),
            Response::Connected(true)
        );
        assert_eq!(
            ask_v1(&mut v1, &Request::Connected(0, 2)),
            Response::Connected(false)
        );

        // An oversized length prefix desynchronizes the stream: Err, then
        // the router closes the connection.
        let mut bad = connect(addr);
        bad.write_all(&((MAX_FRAME_LEN + 1) as u32).to_le_bytes())
            .unwrap();
        let answer = read_frame(&mut bad).unwrap().expect("an Err frame");
        match decode_response(&answer).unwrap() {
            Response::Err(msg) => assert!(msg.contains("oversized"), "{msg}"),
            other => panic!("oversized prefix answered {other:?}"),
        }
        assert!(
            read_frame(&mut bad).unwrap().is_none(),
            "the connection must close after an unframeable prefix"
        );

        // A connection that never sends a byte is closed once the read
        // deadline passes (well before the client's own 10 s timeout).
        // The deadline holds for every connection, so the ones above are
        // closed by now too.
        let opened = Instant::now();
        let mut idle = connect(addr);
        let mut byte = [0u8; 1];
        let read = idle.read(&mut byte);
        assert!(
            matches!(read, Ok(0)),
            "an idle connection must be closed, read gave {read:?}"
        );
        let waited = opened.elapsed();
        assert!(
            waited >= IDLE && waited < Duration::from_secs(5),
            "{waited:?}"
        );

        // Shutdown is answered Bye, and the accept pool winds down.
        let mut last = connect(addr);
        assert_eq!(ask_v1(&mut last, &Request::Shutdown), Response::Bye);
        let deadline = Instant::now() + Duration::from_secs(10);
        while !served.is_finished() {
            assert!(Instant::now() < deadline, "serve_tcp outlived Shutdown");
            std::thread::sleep(Duration::from_millis(10));
        }
        served.join().unwrap().unwrap();
    });

    // Five connections (v1, v2, oversized, idle, last) and two protocol errors
    // (bad opcode, oversized prefix) at least: the series are
    // process-wide, so only a lower bound holds.
    assert!(m.connections.get() >= connections + 5);
    assert!(m.protocol_errors.get() >= protocol_errors + 2);
    assert!(m.bytes_read.get() > bytes_read);
    assert!(m.bytes_written.get() > bytes_written);
    router.shutdown_backend();
}
