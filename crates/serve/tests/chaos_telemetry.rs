//! Chaos visibility: every fault the plan injects must be visible in
//! BOTH the metrics exposition and the flight-recorder dump — an
//! operator reading telemetry alone can fully account for a chaos run.
//!
//! One test function on purpose: the registry and the flight ring are
//! process-global, so this scenario owns the process and asserts exact
//! equality between the plan's own counters and what telemetry shows.

use afforest_obs::{flight, registry};
use afforest_serve::events::{self, fault_site};
use afforest_serve::loadgen::{run, LoadgenConfig};
use afforest_serve::Endpoint;
use afforest_serve::{BatchPolicy, Client, FaultPlan, Request, Response, ServeConfig, Server};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn tempdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "afforest-chaos-telem-{}-{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn every_injected_fault_is_visible_in_metrics_and_flight_dump() {
    let n = 256usize;
    let dir = tempdir("all-sites");
    let seed_edges: Vec<(u32, u32)> = (1..64u32).map(|v| (v - 1, v)).collect();
    // All five sites armed. Worker kills are capped by the pool size, so
    // a modest probability keeps most of the pool alive for the run.
    let faults = Arc::new(
        FaultPlan::parse(
            "seed=33,wal_drop=0.15,wal_short_write=0.1,apply_delay_ms=1,apply_delay_prob=0.2,\
             torn_frame=0.04,kill_worker=0.02",
        )
        .expect("fault spec"),
    );
    let config = ServeConfig::builder()
        .policy(BatchPolicy {
            max_edges: 32,
            max_delay: Duration::from_millis(1),
            apply_delay: None,
        })
        .wal_root(Some(dir.clone()))
        .wal_snapshot_every(6)
        .faults(Some(Arc::clone(&faults)))
        .build()
        .expect("valid config");
    let server = Server::new(n, &seed_edges, config).expect("start server");

    // With no accept worker running yet, every fault draw is the
    // writer's, in order: one WAL append and one apply per single-edge
    // batch. What these batches inject is a fixed function of seed=33.
    for v in 100..120u32 {
        assert_eq!(
            server.handle(&Request::InsertEdges(vec![(v, v + 1)])),
            Response::Accepted { edges: 1 }
        );
        assert!(server.flush(Duration::from_secs(10)));
    }
    let sequential = faults.injected();
    assert!(sequential.wal_drops > 0, "no wal drops: {sequential:?}");
    assert!(
        sequential.apply_delays > 0,
        "no apply delays: {sequential:?}"
    );

    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();

    std::thread::scope(|s| {
        s.spawn(|| server.serve_tcp(listener, 6).unwrap());
        let report = run(
            &LoadgenConfig {
                connections: 3,
                requests: 450,
                read_pct: 60,
                insert_batch: 8,
                seed: 17,
                max_retries: 10,
                retry_backoff: Duration::from_micros(100),
                ..LoadgenConfig::default()
            },
            |_| Client::connect(addr)?.with_read_timeout(Some(Duration::from_secs(5))),
        )
        .expect("chaos degrades loadgen, never aborts it");
        assert_eq!(report.requests, 450);
        server.request_shutdown();
    });

    let injected = faults.injected();
    // The run must have actually fired the sites we assert on.
    assert!(injected.torn_frames > 0, "no torn frames: {injected:?}");

    // 1) Every site's count is in the exposition, exactly.
    let scrape = registry::parse_exposition(&registry::expose()).expect("exposition parses");
    for (metric, expected) in [
        ("afforest_faults_wal_drop_total", injected.wal_drops),
        (
            "afforest_faults_wal_short_write_total",
            injected.wal_short_writes,
        ),
        ("afforest_faults_apply_delay_total", injected.apply_delays),
        ("afforest_faults_torn_frame_total", injected.torn_frames),
        ("afforest_faults_worker_kill_total", injected.worker_kills),
    ] {
        assert_eq!(
            scrape.value(metric),
            Some(expected),
            "{metric} disagrees with the plan"
        );
    }
    // The shed/WAL/epoch telemetry moved too (sanity that the rest of
    // the plane was live during chaos).
    assert!(scrape.value("afforest_wal_records_total") > Some(0));
    assert!(scrape.value("afforest_epochs_published_total") > Some(0));

    // 2) Every fault is in the flight dump. The ring holds the last 1024
    //    events; this workload stays under that, so nothing was lapped.
    let dump = events::parse_dump(&events::dump_json()).expect("flight dump parses");
    assert!(
        dump.recorded <= flight::CAPACITY as u64,
        "ring wrapped ({} events): the equality below would undercount",
        dump.recorded
    );
    for (site, expected) in [
        (fault_site::WAL_DROP, injected.wal_drops),
        (fault_site::WAL_SHORT_WRITE, injected.wal_short_writes),
        (fault_site::APPLY_DELAY, injected.apply_delays),
        (fault_site::TORN_FRAME, injected.torn_frames),
        (fault_site::KILL_WORKER, injected.worker_kills),
    ] {
        assert_eq!(
            dump.faults_at(site) as u64,
            expected,
            "flight ring disagrees with the plan at site {}",
            fault_site::name(site)
        );
    }
    // The dump also explains the run's normal lifecycle.
    assert!(dump.of_kind(events::EventKind::EpochPublished).count() > 0);
    assert!(dump.of_kind(events::EventKind::BatchApplied).count() > 0);

    std::fs::remove_dir_all(&dir).ok();
}
