//! The serving stack's always-on metric set.
//!
//! One struct of `&'static` handles into the process-global
//! [`afforest_obs::registry`], created on first use and cached in a
//! `OnceLock`, so every hot-path increment is a single striped relaxed
//! atomic op — no registry lookup, no lock, no feature gate. The session
//! tracer (`--features obs`) remains a separate, scoped layer; these
//! metrics are *service* telemetry and are always live (DESIGN.md §12).
//!
//! Unlabelled series are the process scope and `tenant="…"` series the
//! tenant scope. Both are keyed by name, so a re-created tenant (or a
//! second `Server` in one process) continues its predecessor's series;
//! what one engine has done is its [`crate::ingest::Ledger`] instead.
//!
//! Every metric name is a string literal in this file (plus the
//! client-side retry counter in `loadgen.rs`); `cargo xtask lint`
//! cross-checks that each literal appears in the exposition test
//! fixture, so a metric cannot be added without the exposition tests
//! seeing it.

use crate::protocol::Request;
use afforest_obs::registry::{self, Counter, Gauge, Hist};
use std::sync::OnceLock;

/// Number of request opcodes tracked per-op.
pub const OPS: usize = 13;

/// Exposition-name suffix per op, indexed like [`op_index`].
pub const OP_NAMES: [&str; OPS] = [
    "connected",
    "component",
    "component_size",
    "num_components",
    "insert_edges",
    "stats",
    "metrics",
    "shutdown",
    "create_tenant",
    "drop_tenant",
    "list_tenants",
    "dump_traces",
    "resolve",
];

/// The per-op metric index of a request.
pub fn op_index(req: &Request) -> usize {
    match req {
        Request::Connected(..) => 0,
        Request::Component(..) => 1,
        Request::ComponentSize(..) => 2,
        Request::NumComponents => 3,
        Request::InsertEdges(..) => 4,
        Request::Stats => 5,
        Request::Metrics => 6,
        Request::Shutdown => 7,
        Request::CreateTenant { .. } => 8,
        Request::DropTenant { .. } => 9,
        Request::ListTenants => 10,
        Request::DumpTraces => 11,
        Request::Resolve(..) => 12,
    }
}

/// Cached handles to every serving metric (see module docs).
pub struct ServeMetrics {
    /// Requests handled, by op (indexed by [`op_index`]).
    pub requests: [&'static Counter; OPS],
    /// Request handling latency in nanoseconds, by op.
    pub latency: [&'static Hist; OPS],
    /// Request-frame bytes read off connections (prefix + payload).
    pub bytes_read: &'static Counter,
    /// Response-frame bytes written to connections (prefix + payload).
    pub bytes_written: &'static Counter,
    /// Connections accepted by the worker pool.
    pub connections: &'static Counter,
    /// Malformed frames / unanswerable requests.
    pub protocol_errors: &'static Counter,
    /// Inserts shed by bounded-queue admission.
    pub requests_shed: &'static Counter,
    /// Epochs published by the writer (excludes epoch 0).
    pub epochs_published: &'static Counter,
    /// Edges applied by the writer.
    pub edges_ingested: &'static Counter,
    /// Publish lag in nanoseconds: oldest-edge arrival → epoch visible
    /// (queue wait + WAL append + link/compress + publish).
    pub epoch_publish_lag: &'static Hist,
    /// Edge-batch records fully appended to the WAL.
    pub wal_records: &'static Counter,
    /// Record bytes fully appended to the WAL.
    pub wal_bytes: &'static Counter,
    /// WAL compactions (snapshot + log truncation).
    pub wal_compactions: &'static Counter,
    /// WAL appends/compactions that failed with an I/O error.
    pub wal_errors: &'static Counter,
    /// Accept workers that exited (only chaos kills them today).
    pub worker_deaths: &'static Counter,
    /// Chaos: WAL records dropped by the fault plan.
    pub faults_wal_drop: &'static Counter,
    /// Chaos: WAL records torn short by the fault plan.
    pub faults_wal_short_write: &'static Counter,
    /// Chaos: batch applies delayed by the fault plan.
    pub faults_apply_delay: &'static Counter,
    /// Chaos: response frames torn by the fault plan.
    pub faults_torn_frame: &'static Counter,
    /// Chaos: worker kills drawn by the fault plan.
    pub faults_worker_kill: &'static Counter,
    /// Tenants currently registered.
    pub tenants: &'static Gauge,
}

/// Per-tenant labelled handles (`tenant="<name>"` series). One set is
/// created per engine at registration time and cached on the engine, so
/// the labelled-lookup cost is paid once per tenant, not per request.
pub struct TenantMetrics {
    /// Requests routed to this tenant.
    pub requests: &'static Counter,
    /// Inserts shed by this tenant's admission bound (or the process
    /// backstop).
    pub requests_shed: &'static Counter,
    /// Edges pending in this tenant's ingest queue right now.
    pub queue_depth: &'static Gauge,
    /// Edges applied by this tenant's writer.
    pub edges_ingested: &'static Counter,
    /// Epoch of this tenant's currently served snapshot.
    pub epoch: &'static Gauge,
}

/// Registers (or re-fetches) the labelled series for one tenant.
pub fn tenant_metrics(tenant: &str) -> TenantMetrics {
    TenantMetrics {
        requests: registry::labeled_counter("afforest_tenant_requests_total", "tenant", tenant),
        requests_shed: registry::labeled_counter(
            "afforest_tenant_requests_shed_total",
            "tenant",
            tenant,
        ),
        queue_depth: registry::labeled_gauge("afforest_tenant_queue_depth", "tenant", tenant),
        edges_ingested: registry::labeled_counter(
            "afforest_tenant_edges_ingested_total",
            "tenant",
            tenant,
        ),
        epoch: registry::labeled_gauge("afforest_tenant_epoch", "tenant", tenant),
    }
}

/// The process-global serving metrics (registered on first call).
pub fn metrics() -> &'static ServeMetrics {
    static METRICS: OnceLock<ServeMetrics> = OnceLock::new();
    METRICS.get_or_init(|| ServeMetrics {
        requests: [
            registry::counter("afforest_requests_connected_total"),
            registry::counter("afforest_requests_component_total"),
            registry::counter("afforest_requests_component_size_total"),
            registry::counter("afforest_requests_num_components_total"),
            registry::counter("afforest_requests_insert_edges_total"),
            registry::counter("afforest_requests_stats_total"),
            registry::counter("afforest_requests_metrics_total"),
            registry::counter("afforest_requests_shutdown_total"),
            registry::counter("afforest_requests_create_tenant_total"),
            registry::counter("afforest_requests_drop_tenant_total"),
            registry::counter("afforest_requests_list_tenants_total"),
            registry::counter("afforest_requests_dump_traces_total"),
            registry::counter("afforest_requests_resolve_total"),
        ],
        latency: [
            registry::histogram("afforest_request_latency_connected_ns"),
            registry::histogram("afforest_request_latency_component_ns"),
            registry::histogram("afforest_request_latency_component_size_ns"),
            registry::histogram("afforest_request_latency_num_components_ns"),
            registry::histogram("afforest_request_latency_insert_edges_ns"),
            registry::histogram("afforest_request_latency_stats_ns"),
            registry::histogram("afforest_request_latency_metrics_ns"),
            registry::histogram("afforest_request_latency_shutdown_ns"),
            registry::histogram("afforest_request_latency_create_tenant_ns"),
            registry::histogram("afforest_request_latency_drop_tenant_ns"),
            registry::histogram("afforest_request_latency_list_tenants_ns"),
            registry::histogram("afforest_request_latency_dump_traces_ns"),
            registry::histogram("afforest_request_latency_resolve_ns"),
        ],
        bytes_read: registry::counter("afforest_bytes_read_total"),
        bytes_written: registry::counter("afforest_bytes_written_total"),
        connections: registry::counter("afforest_connections_total"),
        protocol_errors: registry::counter("afforest_protocol_errors_total"),
        requests_shed: registry::counter("afforest_requests_shed_total"),
        epochs_published: registry::counter("afforest_epochs_published_total"),
        edges_ingested: registry::counter("afforest_edges_ingested_total"),
        epoch_publish_lag: registry::histogram("afforest_epoch_publish_lag_ns"),
        wal_records: registry::counter("afforest_wal_records_total"),
        wal_bytes: registry::counter("afforest_wal_bytes_total"),
        wal_compactions: registry::counter("afforest_wal_compactions_total"),
        wal_errors: registry::counter("afforest_wal_errors_total"),
        worker_deaths: registry::counter("afforest_worker_deaths_total"),
        faults_wal_drop: registry::counter("afforest_faults_wal_drop_total"),
        faults_wal_short_write: registry::counter("afforest_faults_wal_short_write_total"),
        faults_apply_delay: registry::counter("afforest_faults_apply_delay_total"),
        faults_torn_frame: registry::counter("afforest_faults_torn_frame_total"),
        faults_worker_kill: registry::counter("afforest_faults_worker_kill_total"),
        tenants: registry::gauge("afforest_tenants"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_index_covers_every_request_and_matches_names() {
        let reqs = [
            Request::Connected(0, 1),
            Request::Component(0),
            Request::ComponentSize(0),
            Request::NumComponents,
            Request::InsertEdges(vec![]),
            Request::Stats,
            Request::Metrics,
            Request::Shutdown,
            Request::CreateTenant {
                name: crate::tenant::TenantId::new("t").unwrap(),
                vertices: 1,
            },
            Request::DropTenant {
                name: crate::tenant::TenantId::new("t").unwrap(),
            },
            Request::ListTenants,
            Request::DumpTraces,
            Request::Resolve(vec![]),
        ];
        let mut seen = [false; OPS];
        for r in &reqs {
            seen[op_index(r)] = true;
        }
        assert!(seen.iter().all(|&s| s), "an op index is unmapped");
        assert_eq!(OP_NAMES.len(), OPS);
    }

    #[test]
    fn metrics_init_is_idempotent_and_exposed() {
        let m = metrics();
        assert!(std::ptr::eq(m, metrics()));
        m.requests[0].inc();
        let text = registry::expose();
        // Every per-op name is present from the moment of registration.
        for name in OP_NAMES {
            assert!(
                text.contains(&format!("afforest_requests_{name}_total")),
                "missing op {name}"
            );
        }
        assert!(text.contains("afforest_epoch_publish_lag_ns"));
    }

    #[test]
    fn tenant_metrics_expose_labelled_series() {
        let tm = tenant_metrics("metrics-test-tenant");
        tm.requests.add(3);
        tm.queue_depth.set(7);
        let text = registry::expose();
        assert!(text.contains("afforest_tenant_requests_total{tenant=\"metrics-test-tenant\"}"));
        assert!(text.contains("afforest_tenant_queue_depth{tenant=\"metrics-test-tenant\"} 7"));
        // Re-fetching the same tenant returns the same series.
        assert!(std::ptr::eq(
            tm.requests,
            tenant_metrics("metrics-test-tenant").requests
        ));
    }
}
