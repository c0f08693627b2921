//! `afforest-serve` — a multi-tenant epoch-snapshot connectivity query
//! service.
//!
//! The ROADMAP's north star is serving connectivity queries under heavy
//! traffic, not just solving them offline. This crate packages the
//! incremental structure (`afforest_core::IncrementalCc`, Theorem 1's
//! append-only parent array) as a running service:
//!
//! - [`protocol`] — length-prefixed binary frames in two wire versions
//!   (v2 adds a tenant envelope; v1 routes to `default`); every
//!   malformed input is a typed error, never a panic.
//! - [`tenant`] — validated tenant identifiers.
//! - [`config`] — the validating [`ServeConfig`] builder.
//! - [`snapshot`] — immutable epochs of the parent forest in
//!   copy-on-write pages behind an `Arc` swap, each patched from the
//!   previous one in O(batch + n/page); reads walk `find_root` over
//!   frozen pages.
//! - [`ingest`] — size/deadline-coalesced insert batches (the ConnectIt
//!   batch-dynamic pattern) feeding a single writer per tenant.
//! - `engine` — one engine per tenant (snapshot store, ingest queue,
//!   writer thread, WAL) plus the registry that routes to them and the
//!   process-wide admission backstop. The [`Engine`] type itself is
//!   re-exported so embedders (the shard router) can run engines
//!   without a TCP front-end via [`Engine::standalone`].
//! - [`server`] — tenant lifecycle and the transport-independent
//!   request evaluator.
//! - [`frontend`] — the worker-pool TCP front-end over `std::net`: one
//!   accept pool and one frame loop serving any [`Endpoint`]. The
//!   [`Server`] and the shard router are its two endpoints.
//! - [`client`] — the typed protocol client: connect / per-request
//!   methods / retry with capped jittered backoff.
//! - [`loadgen`] — a mixed-read/write workload driver reporting
//!   throughput and latency percentiles.
//! - [`wal`] — a checksummed write-ahead log appended before each epoch
//!   publish (one namespace per tenant under the WAL root), with
//!   snapshot compaction and truncate-at-first-bad-record recovery.
//! - [`faults`] — seeded deterministic chaos injection (dropped/torn WAL
//!   writes, delayed applies, torn frames, killed workers, and
//!   cluster-scope shard kill/hang/slow/partition draws) for testing
//!   the recovery, overload, and partial-failure paths.
//! - [`metrics`] — the always-on metric set (per-op request counters and
//!   latency histograms, WAL/epoch/queue gauges, `tenant="..."`-labelled
//!   per-tenant series) in the process-global `afforest_obs::registry`.
//! - [`events`] — the flight recorder vocabulary and JSON dump paths
//!   (panic hook, shutdown dump, `afforest recover --events`).
//! - [`http`] — a tiny HTTP/1.0 sidecar serving `GET /metrics` as
//!   Prometheus text exposition for scrapers and `afforest top`.
//!
//! ```
//! use afforest_serve::{Endpoint, Request, Response, ServeConfig, Server, TenantId};
//!
//! let server = Server::new(4, &[(0, 1)], ServeConfig::builder().build().unwrap()).unwrap();
//! assert_eq!(server.handle(&Request::Connected(0, 1)), Response::Connected(true));
//! // Tenants get isolated graphs of their own.
//! let acme = TenantId::new("acme").unwrap();
//! server.handle(&Request::CreateTenant { name: acme.clone(), vertices: 4 });
//! server.handle_for(&acme, &Request::InsertEdges(vec![(1, 2), (2, 3)]));
//! assert!(server.flush(std::time::Duration::from_secs(5)));
//! assert_eq!(server.handle_for(&acme, &Request::Connected(1, 3)), Response::Connected(true));
//! assert_eq!(server.handle(&Request::Connected(1, 3)), Response::Connected(false));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod client;
pub mod config;
mod engine;
pub mod events;
pub mod faults;
pub mod frontend;
pub mod http;
pub mod ingest;
pub mod loadgen;
pub mod metrics;
pub mod protocol;
pub mod server;
pub mod snapshot;
pub mod tenant;
pub mod wal;

pub use client::{Client, ClientError, RetryPolicy};
pub use config::{ServeConfig, ServeConfigBuilder, ServeConfigError};
pub use engine::Engine;
pub use events::{Dump, DumpEvent, EventKind};
pub use faults::{ClusterFault, FaultConfig, FaultPlan, InjectedCounts, WalFault};
pub use frontend::Endpoint;
pub use http::MetricsHttp;
pub use ingest::BatchPolicy;
pub use loadgen::{LoadgenConfig, LoadgenReport, Transport};
pub use protocol::{FrameError, Request, Response, StatsReport, WireError, WireVersion};
pub use server::{ServeError, Server};
pub use snapshot::{Snapshot, SnapshotStore};
pub use tenant::{TenantError, TenantId, DEFAULT_TENANT, MAX_TENANT_LEN};
pub use wal::{recover, AppendOutcome, Recovery, Wal, WalError};
