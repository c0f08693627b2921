//! Router metric handles.
//!
//! Per-shard series are labelled `{shard="<k>"}` on shared metric
//! names, so one `/metrics` scrape of the router process shows every
//! shard side by side. All handles are resolved once at router
//! construction — this both keeps the hot path to plain atomic
//! operations and guarantees every per-shard series exists in the
//! exposition before the first request arrives (the sharded smoke
//! scrapes for them immediately after startup).

use afforest_obs::registry::{self, Counter, Gauge, Hist};

/// Labelled handles for one shard's series.
pub struct ShardSeries {
    /// Requests the router sent to this shard.
    pub requests: &'static Counter,
    /// Internal edges routed into this shard's ingest queue.
    pub edges_routed: &'static Counter,
    /// The shard's last observed published epoch.
    pub epoch: &'static Gauge,
    /// The shard's last observed ingest queue depth.
    pub queue_depth: &'static Gauge,
    /// The shard's health state (0 healthy, 1 suspect, 2 down,
    /// 3 probing — [`HealthState::code`](crate::HealthState::code)).
    pub health: &'static Gauge,
    /// Insert batches currently parked for this shard.
    pub parked: &'static Gauge,
}

/// All router metric handles: global counters plus one labelled
/// [`ShardSeries`] per shard.
pub struct RouterMetrics {
    /// Requests the router accepted from clients.
    pub requests: &'static Counter,
    /// Router request-evaluation latency, recorded in
    /// [`Router::handle`](crate::Router::handle) like the standalone
    /// server's per-op latency (frame decode and response encode are
    /// not included). Sampled requests attach their trace id as the
    /// bucket's OpenMetrics exemplar, so a scrape links the p99 to a
    /// retained trace renderable with `afforest trace`.
    pub latency: &'static Hist,
    /// Cut edges routed to the boundary store (before dedup).
    pub cut_edges: &'static Counter,
    /// Composite connectivity rebuilds (cache misses).
    pub composite_rebuilds: &'static Counter,
    /// Edges currently stored in the boundary forest.
    pub boundary_edges: &'static Gauge,
    /// Reads answered from a degraded composite (some shard Down).
    pub degraded_reads: &'static Counter,
    /// Per-shard labelled series, indexed by shard id.
    pub shards: Vec<ShardSeries>,
}

/// Registers (or re-resolves) every router series for `num_shards`
/// shards.
pub fn router_metrics(num_shards: usize) -> RouterMetrics {
    let shards = (0..num_shards)
        .map(|k| {
            let k = k.to_string();
            ShardSeries {
                requests: registry::labeled_counter("afforest_shard_requests_total", "shard", &k),
                edges_routed: registry::labeled_counter(
                    "afforest_shard_edges_routed_total",
                    "shard",
                    &k,
                ),
                epoch: registry::labeled_gauge("afforest_shard_epoch", "shard", &k),
                queue_depth: registry::labeled_gauge("afforest_shard_queue_depth", "shard", &k),
                health: registry::labeled_gauge("afforest_shard_health", "shard", &k),
                parked: registry::labeled_gauge("afforest_parked_batches", "shard", &k),
            }
        })
        .collect();
    RouterMetrics {
        requests: registry::counter("afforest_router_requests_total"),
        latency: registry::histogram("afforest_router_latency_ns"),
        cut_edges: registry::counter("afforest_router_cut_edges_total"),
        composite_rebuilds: registry::counter("afforest_router_composite_rebuilds_total"),
        boundary_edges: registry::gauge("afforest_boundary_edges"),
        degraded_reads: registry::counter("afforest_degraded_reads"),
        shards,
    }
}
