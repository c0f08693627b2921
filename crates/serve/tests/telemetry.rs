//! Live-telemetry integration: a real TCP server, a known request mix,
//! and the exposition read back both through the wire protocol
//! (`Request::Metrics`) and the HTTP sidecar.
//!
//! One test function on purpose: the metric registry is process-global
//! and cumulative, so a single scenario owns this process and asserts
//! exact deltas without racing a sibling test.

use afforest_obs::registry;
use afforest_serve::http::{http_get, MetricsHttp};
use afforest_serve::protocol::call;
use afforest_serve::Endpoint;
use afforest_serve::{Request, Response, ServeConfig, Server};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

#[test]
fn live_server_exposes_request_and_epoch_metrics() {
    let n = 100usize;
    let edges: Vec<(u32, u32)> = (1..n as u32).map(|v| (v - 1, v)).collect();
    let config = ServeConfig::builder().build().expect("valid config");
    let server = Server::new(n, &edges, config).expect("start server");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap();
    let http = MetricsHttp::spawn("127.0.0.1:0").expect("bind sidecar");
    let http_addr = http.local_addr().to_string();

    std::thread::scope(|s| {
        s.spawn(|| server.serve_tcp(listener, 2).unwrap());
        let mut c = TcpStream::connect(addr).expect("connect");
        c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();

        // A known mix: 3 connectivity reads, 1 component, 1 insert.
        for _ in 0..3 {
            assert_eq!(
                call(&mut c, &Request::Connected(0, 99)).unwrap(),
                Response::Connected(true)
            );
        }
        assert_eq!(
            call(&mut c, &Request::Component(5)).unwrap(),
            Response::Component(0)
        );
        assert_eq!(
            call(&mut c, &Request::InsertEdges(vec![(0, 50)])).unwrap(),
            Response::Accepted { edges: 1 }
        );
        assert!(server.flush(Duration::from_secs(10)));

        // First scrape: through the wire protocol.
        let text = match call(&mut c, &Request::Metrics).unwrap() {
            Response::Metrics(text) => text,
            other => panic!("expected metrics, got {other:?}"),
        };
        let scrape = registry::parse_exposition(&text).expect("valid exposition");
        assert_eq!(scrape.value("afforest_requests_connected_total"), Some(3));
        assert_eq!(scrape.value("afforest_requests_component_total"), Some(1));
        assert_eq!(
            scrape.value("afforest_requests_insert_edges_total"),
            Some(1)
        );
        assert_eq!(scrape.value("afforest_edges_ingested_total"), Some(1));
        assert!(scrape.value("afforest_epochs_published_total") >= Some(1));
        assert!(scrape.value("afforest_tenant_epoch{tenant=\"default\"}") >= Some(1));
        assert_eq!(
            scrape.value("afforest_tenant_queue_depth{tenant=\"default\"}"),
            Some(0)
        );
        assert!(scrape.value("afforest_connections_total") >= Some(1));
        assert!(scrape.value("afforest_bytes_read_total") > Some(0));
        assert!(scrape.value("afforest_bytes_written_total") > Some(0));
        // Per-op latency histograms carry the right sample counts.
        let lat = scrape
            .histogram("afforest_request_latency_connected_ns")
            .expect("connected latency histogram");
        assert_eq!(lat.count, 3);
        assert!(lat.sum_ns > 0);
        let lag = scrape
            .histogram("afforest_epoch_publish_lag_ns")
            .expect("publish lag histogram");
        assert!(lag.count >= 1);

        // Second scrape: through the HTTP sidecar, after more traffic.
        assert_eq!(
            call(&mut c, &Request::Connected(1, 2)).unwrap(),
            Response::Connected(true)
        );
        let (status, body) = http_get(&http_addr, "/metrics").expect("scrape sidecar");
        assert_eq!(status, 200);
        let second = registry::parse_exposition(&body).expect("sidecar exposition parses");
        // Counters are monotonic between scrapes, and the extra read
        // (plus the Metrics request itself) moved the needles.
        assert_eq!(scrape.value("afforest_requests_connected_total"), Some(3));
        assert_eq!(second.value("afforest_requests_connected_total"), Some(4));
        assert_eq!(second.value("afforest_requests_metrics_total"), Some(1));
        for (name, v) in &scrape.values {
            if name.ends_with("_total") {
                assert!(
                    second.value(name) >= Some(*v),
                    "counter {name} went backwards"
                );
            }
        }

        assert_eq!(call(&mut c, &Request::Shutdown).unwrap(), Response::Bye);
    });
}
