//! Multi-tenancy integration tests: the wire-protocol versioning
//! property, cross-tenant isolation, and crash recovery over a
//! multi-tenant WAL tree with a torn log.

use afforest_core::IncrementalCc;
use afforest_serve::protocol::{
    decode_request_any, decode_response, decode_response_v2, encode_request, encode_request_v2,
    encode_response, encode_response_v2, StatsReport, WireVersion,
};
use afforest_serve::wal::{self, recover, LOG_FILE};
use afforest_serve::Endpoint;
use afforest_serve::{BatchPolicy, Request, Response, ServeConfig, Server, TenantId};
use proptest::prelude::*;
use std::path::PathBuf;
use std::time::Duration;

// ---------------------------------------------------------------------------
// Property: both wire versions round-trip losslessly
// ---------------------------------------------------------------------------

/// Every byte a tenant name may contain.
const TENANT_CHARSET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_-";

fn arb_tenant() -> impl Strategy<Value = TenantId> {
    proptest::collection::vec(0usize..TENANT_CHARSET.len(), 1..=64).prop_map(|picks| {
        let name: String = picks.iter().map(|&i| TENANT_CHARSET[i] as char).collect();
        TenantId::new(&name).expect("charset-built name is valid")
    })
}

fn arb_string() -> impl Strategy<Value = String> {
    proptest::collection::vec(0usize..TENANT_CHARSET.len(), 0..24)
        .prop_map(|picks| picks.iter().map(|&i| TENANT_CHARSET[i] as char).collect())
}

fn arb_request() -> impl Strategy<Value = Request> {
    let edges = proptest::collection::vec((any::<u32>(), any::<u32>()), 0..16);
    (
        0usize..11,
        any::<u32>(),
        any::<u32>(),
        edges,
        arb_tenant(),
        any::<u64>(),
    )
        .prop_map(|(sel, u, v, edges, name, vertices)| match sel {
            0 => Request::Connected(u, v),
            1 => Request::Component(u),
            2 => Request::ComponentSize(u),
            3 => Request::NumComponents,
            4 => Request::InsertEdges(edges),
            5 => Request::Stats,
            6 => Request::Metrics,
            7 => Request::Shutdown,
            8 => Request::CreateTenant { name, vertices },
            9 => Request::DropTenant { name },
            _ => Request::ListTenants,
        })
}

fn arb_stats() -> impl Strategy<Value = StatsReport> {
    (
        (
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
        ),
        (
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
        ),
    )
        .prop_map(|((a, b, c, d, e), (f, g, h, i, j))| StatsReport {
            epoch: a,
            vertices: b,
            num_components: c,
            edges_ingested: d,
            epochs_published: e,
            queue_depth: f,
            requests_shed: g,
            wal_records: h,
            faults_injected: i,
            tenants: j,
        })
}

fn arb_response() -> impl Strategy<Value = Response> {
    let tenants = proptest::collection::vec(arb_string(), 0..8);
    (
        (0usize..13, any::<bool>(), any::<u32>(), any::<u64>()),
        (arb_stats(), arb_string(), tenants),
    )
        .prop_map(|((sel, b, small, big), (stats, text, tenants))| match sel {
            0 => Response::Connected(b),
            1 => Response::Component(small),
            2 => Response::ComponentSize(big),
            3 => Response::NumComponents(big),
            4 => Response::Accepted { edges: small },
            5 => Response::Stats(stats),
            6 => Response::Metrics(text),
            7 => Response::Bye,
            8 => Response::Overloaded { queue_depth: big },
            9 => Response::Err(text),
            10 => Response::TenantCreated,
            11 => Response::TenantDropped,
            _ => Response::Tenants(tenants),
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A bare v1 payload decodes as itself, versioned V1, routed to the
    /// `default` tenant.
    #[test]
    fn v1_request_frames_round_trip(req in arb_request()) {
        let payload = encode_request(&req);
        let (version, tenant, decoded) =
            decode_request_any(&payload).expect("v1 payload decodes");
        prop_assert_eq!(version, WireVersion::V1);
        prop_assert!(tenant.is_default());
        prop_assert_eq!(decoded, req);
    }

    /// A tenant envelope decodes back to exactly the tenant and request
    /// that went in, for every tenant name and every request shape.
    #[test]
    fn v2_request_frames_round_trip(tenant in arb_tenant(), req in arb_request()) {
        let payload = encode_request_v2(&tenant, &req);
        let (version, routed, decoded) =
            decode_request_any(&payload).expect("v2 payload decodes");
        prop_assert_eq!(version, WireVersion::V2);
        prop_assert_eq!(routed, tenant);
        prop_assert_eq!(decoded, req);
    }

    /// v2 responses are fully lossless; v1 responses are lossless except
    /// for the one field the frozen v1 `Stats` layout cannot carry
    /// (`tenants`, which v1 decoders read as 0).
    #[test]
    fn response_frames_round_trip_in_both_versions(resp in arb_response()) {
        let v2 = decode_response_v2(&encode_response_v2(&resp)).expect("v2 decodes");
        prop_assert_eq!(v2, resp.clone());

        let v1 = decode_response(&encode_response(&resp)).expect("v1 decodes");
        let expected = match resp {
            Response::Stats(s) => Response::Stats(StatsReport { tenants: 0, ..s }),
            other => other,
        };
        prop_assert_eq!(v1, expected);
    }
}

// ---------------------------------------------------------------------------
// Isolation and recovery scenarios
// ---------------------------------------------------------------------------

fn tempdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("afforest-tenancy-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn quick_config() -> ServeConfig {
    ServeConfig::builder()
        .policy(BatchPolicy {
            max_edges: 1,
            max_delay: Duration::from_millis(1),
            apply_delay: None,
        })
        .build()
        .expect("valid config")
}

/// Writes to one tenant are invisible to every other tenant: snapshots,
/// answers, and per-tenant statistics all stay apart.
#[test]
fn writes_to_one_tenant_are_invisible_to_others() {
    let server = Server::new(8, &[(0, 1)], quick_config()).expect("start server");
    let alpha = TenantId::new("alpha").unwrap();
    let beta = TenantId::new("beta").unwrap();
    for name in [&alpha, &beta] {
        assert_eq!(
            server.handle(&Request::CreateTenant {
                name: name.clone(),
                vertices: 10,
            }),
            Response::TenantCreated
        );
    }
    let default_components = match server.handle(&Request::NumComponents) {
        Response::NumComponents(c) => c,
        other => panic!("expected NumComponents, got {other:?}"),
    };

    // Connect everything in alpha; beta and default must not move.
    let edges: Vec<(u32, u32)> = (1..10).map(|v| (v - 1, v)).collect();
    assert_eq!(
        server.handle_for(&alpha, &Request::InsertEdges(edges)),
        Response::Accepted { edges: 9 }
    );
    assert!(server.flush(Duration::from_secs(10)));

    assert_eq!(
        server.handle_for(&alpha, &Request::Connected(0, 9)),
        Response::Connected(true)
    );
    assert_eq!(
        server.handle_for(&beta, &Request::Connected(0, 9)),
        Response::Connected(false)
    );
    assert_eq!(
        server.handle(&Request::NumComponents),
        Response::NumComponents(default_components)
    );

    // Per-tenant statistics diverge the same way.
    let stats_for = |tenant: &TenantId| match server.handle_for(tenant, &Request::Stats) {
        Response::Stats(s) => s,
        other => panic!("expected Stats, got {other:?}"),
    };
    assert_eq!(stats_for(&alpha).edges_ingested, 9);
    assert_eq!(stats_for(&beta).edges_ingested, 0);
    assert_eq!(stats_for(&alpha).vertices, 10);
    assert_eq!(stats_for(&beta).num_components, 10);

    // An unknown tenant is a typed error, not a panic or a misroute.
    let ghost = TenantId::new("ghost").unwrap();
    match server.handle_for(&ghost, &Request::NumComponents) {
        Response::Err(msg) => assert!(msg.contains("no such tenant"), "{msg}"),
        other => panic!("expected Err, got {other:?}"),
    }
}

/// Crash-recovery smoke over a two-tenant WAL tree where one log is torn
/// mid-record: the intact tenant recovers exactly, the torn tenant
/// recovers a prefix, and both keep serving (and accepting writes).
#[test]
fn torn_tenant_wal_recovers_to_a_prefix_and_keeps_serving() {
    let dir = tempdir("torn");
    let n = 64usize;
    let seed: Vec<(u32, u32)> = (1..16u32).map(|v| (v - 1, v)).collect();
    let config = ServeConfig::builder()
        .policy(BatchPolicy {
            max_edges: 1,
            max_delay: Duration::from_millis(1),
            apply_delay: None,
        })
        .wal_root(Some(dir.clone()))
        .build()
        .expect("valid config");
    let acme = TenantId::new("acme").unwrap();

    // First life: a default tenant plus `acme`, both logging.
    {
        let server = Server::new(n, &seed, config.clone()).expect("start server");
        assert_eq!(
            server.handle(&Request::CreateTenant {
                name: acme.clone(),
                vertices: n as u64,
            }),
            Response::TenantCreated
        );
        // The writer coalesces everything pending into one record, so
        // flush between inserts: one WAL record per edge, and the torn
        // byte below can cost at most the final record.
        for i in 0..8u32 {
            assert_eq!(
                server.handle_for(&acme, &Request::InsertEdges(vec![(i, i + 1)])),
                Response::Accepted { edges: 1 }
            );
            assert!(server.flush(Duration::from_secs(10)));
        }
        assert_eq!(
            server.handle(&Request::InsertEdges(vec![(20, 30)])),
            Response::Accepted { edges: 1 }
        );
        assert!(server.flush(Duration::from_secs(10)));
    } // drop joins the writers: both logs are complete on disk

    // The crash: acme's log loses its final byte, tearing the last record.
    let acme_log = dir.join(acme.as_str()).join(LOG_FILE);
    let bytes = std::fs::read(&acme_log).expect("read acme log");
    std::fs::write(&acme_log, &bytes[..bytes.len() - 1]).expect("tear acme log");

    // Second life: recover the default tenant explicitly; registered
    // tenants come back automatically from the WAL tree.
    let mut seed_forest = IncrementalCc::new(n);
    seed_forest.insert_batch(&seed);
    let rec = recover(&wal::default_wal_dir(&dir), Some(seed_forest)).expect("recover default");
    assert!(!rec.truncated, "default's log was not torn");
    let server = Server::from_cc(rec.cc, config).expect("restart server");
    assert_eq!(server.tenants(), vec!["acme".to_string(), "default".into()]);

    // The intact tenant is exact.
    assert_eq!(
        server.handle(&Request::Connected(20, 30)),
        Response::Connected(true)
    );

    // The torn tenant lost at most the final single-edge record: a clean
    // prefix of the path survived, nothing else appeared.
    let components = match server.handle_for(&acme, &Request::NumComponents) {
        Response::NumComponents(c) => c,
        other => panic!("expected NumComponents, got {other:?}"),
    };
    assert!(
        (n as u64 - 8..n as u64).contains(&components),
        "expected a prefix of 8 path edges, got {components} components"
    );
    assert_eq!(
        server.handle_for(&acme, &Request::Connected(0, 1)),
        Response::Connected(true)
    );

    // Both tenants keep accepting writes after recovery.
    assert_eq!(
        server.handle_for(&acme, &Request::InsertEdges(vec![(40, 41)])),
        Response::Accepted { edges: 1 }
    );
    assert!(server.flush(Duration::from_secs(10)));
    assert_eq!(
        server.handle_for(&acme, &Request::Connected(40, 41)),
        Response::Connected(true)
    );

    std::fs::remove_dir_all(&dir).ok();
}
