//! Sharded scale-out serving for the Afforest connectivity service.
//!
//! The [serve](afforest_serve) crate runs one engine per tenant: one
//! snapshot chain, one ingest queue, one writer thread, over the whole
//! vertex space. This crate splits a single logical graph across **N
//! shard workers** instead — each an independent engine owning a
//! contiguous slice of the vertex space — and puts a **router** in
//! front that speaks the existing wire protocol, so clients cannot
//! tell a sharded deployment from a standalone server.
//!
//! Module map:
//!
//! - [`plan`] — the [`ShardPlan`]: block partition, global/local id
//!   translation, batch splitting.
//! - [`boundary`] — the [`BoundaryStore`]: a persistent spanning
//!   forest of the *cut* edges (endpoints on two shards), the only
//!   state the router owns itself (kept in a WAL-format edge log).
//! - [`compose`] — merging per-shard forest labels with the boundary
//!   graph into global `Connected` / `Component` / `NumComponents`
//!   answers.
//! - [`backend`] — the [`ShardBackend`] trait with its typed
//!   [`ShardUnavailable`] outcome; [`cluster`] hosts every shard
//!   engine in-process ([`LocalCluster`]), [`remote`] dials worker
//!   processes over the wire ([`RemoteShards`], lazily — a worker
//!   down at boot does not fail the router).
//! - [`health`] — the per-shard health machine
//!   (Healthy → Suspect → Down → Probing) whose circuit breaker makes
//!   a dead shard fail fast instead of burning retry budgets.
//! - [`park`] — durable per-shard parking of insert batches destined
//!   for a Down shard, replayed in order on recovery (WAL-format
//!   edge logs, torn-tail tolerant).
//! - [`router`] — the [`Router`]: request dispatch, the composite
//!   cache, degraded reads and write parking. It is an
//!   [`Endpoint`](afforest_serve::Endpoint), served over TCP by the
//!   same front-end as a standalone server (`afforest_serve::frontend`).
//! - [`metrics`] — `{shard="k"}`-labelled series merged into the
//!   process-wide `/metrics` exposition.
//!
//! Consistency model: shards publish epoch snapshots independently, so
//! a read may observe shard A's newest epoch next to an older epoch of
//! shard B. Answers are eventually consistent exactly like a single
//! engine's — flush all shards and the composite equals what one
//! unsharded engine would say (property-tested against an
//! [`IncrementalCc`](afforest_core::IncrementalCc) oracle).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod backend;
pub mod boundary;
pub mod cluster;
pub mod compose;
pub mod health;
pub mod metrics;
pub mod park;
pub mod plan;
pub mod remote;
pub mod router;

pub use backend::{ShardBackend, ShardUnavailable};
pub use boundary::{BoundaryStore, BOUNDARY_LOG};
pub use cluster::{shard_tenant_name, LocalCluster};
pub use compose::{Composite, CompositeClass, ShardView};
pub use health::{Gate, HealthConfig, HealthState, HealthTracker, Transition};
pub use metrics::{router_metrics, RouterMetrics, ShardSeries};
pub use park::{park_path, ParkSet};
pub use plan::{RoutedEdges, ShardPlan};
pub use remote::RemoteShards;
pub use router::Router;
