//! The service runtime: tenant routing and the process-wide lifecycle.
//!
//! Since the multi-tenant refactor the server owns no graph state of its
//! own: every snapshot store, ingest queue, and writer thread lives in a
//! per-tenant [`crate::engine::Engine`], and the server is the
//! [`EngineRegistry`] that routes to them plus the shared concerns — the
//! shutdown flag, the read deadline, the process-wide admission
//! backstop, and tenant lifecycle (create / drop / list) itself.
//!
//! Wire compatibility: the server is one [`Endpoint`] of the shared TCP
//! front-end ([`crate::frontend`]), which decodes *either* protocol
//! version. A v1 frame (no tenant envelope) is routed to the `default`
//! tenant and answered in v1; a v2 frame names its tenant and is
//! answered in v2. A pre-tenancy client binary therefore keeps working
//! unmodified.
//!
//! [`Endpoint::handle_for`] is the transport-independent request
//! evaluator; the TCP front-end and the deterministic in-process tests
//! both go through it.

use crate::config::ServeConfig;
use crate::engine::{AdmitError, Backstop, Engine, EngineRegistry};
use crate::events::{self, EventKind};
use crate::faults::FaultPlan;
use crate::frontend::Endpoint;
use crate::metrics::{metrics, op_index};
use crate::protocol::{Request, Response, StatsReport};
use crate::snapshot::Snapshot;
use crate::tenant::TenantId;
use crate::wal::{self, Wal, WalError};
use afforest_core::IncrementalCc;
use afforest_graph::Node;
use afforest_obs::reqtrace::{self, Stage};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Largest vertex universe a `CreateTenant` request may ask for; vertex
/// ids are `u32`, so anything past this could never be addressed.
const MAX_TENANT_VERTICES: u64 = u32::MAX as u64;

/// Why the service failed to start or serve.
#[derive(Debug)]
pub enum ServeError {
    /// The OS refused to start a service thread (named in `what`).
    Spawn {
        /// Which thread failed to start.
        what: &'static str,
    },
    /// The write-ahead log could not be opened or recovered.
    Wal(WalError),
    /// Transport-level failure (e.g. configuring the listener).
    Io(std::io::Error),
    /// Startup found more persisted tenant WAL directories than
    /// `max_tenants` allows.
    TenantCapacity {
        /// Tenants found on disk (including `default`).
        found: usize,
        /// The configured registry capacity.
        max: usize,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Spawn { what } => write!(f, "failed to spawn {what} thread"),
            ServeError::Wal(e) => write!(f, "{e}"),
            ServeError::Io(e) => write!(f, "{e}"),
            ServeError::TenantCapacity { found, max } => write!(
                f,
                "recovered {found} tenant WAL directories but max_tenants is {max}"
            ),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<WalError> for ServeError {
    fn from(e: WalError) -> Self {
        ServeError::Wal(e)
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

/// A running multi-tenant connectivity service.
///
/// Dropping the server shuts every tenant's writer down cleanly
/// (remaining queued edges are applied first).
pub struct Server {
    registry: EngineRegistry,
    default: Arc<Engine>,
    backstop: Arc<Backstop>,
    config: ServeConfig,
    shutdown: AtomicBool,
}

impl Server {
    /// Builds the `default` tenant's epoch-0 forest by linking `edges` as
    /// one insert batch, then serves it as [`Server::from_cc`] does. For
    /// a seed graph already held as a CSR, `Server::from_cc` over
    /// [`IncrementalCc::from_graph`] builds the same parent array from
    /// Afforest's labeling without materializing the edge list.
    pub fn new(n: usize, edges: &[(Node, Node)], config: ServeConfig) -> Result<Self, ServeError> {
        Self::from_cc(
            {
                let mut cc = IncrementalCc::new(n);
                cc.insert_batch(edges);
                cc
            },
            config,
        )
    }

    /// Starts a server whose `default` tenant serves `cc` as epoch 0 and
    /// starts its writer thread. On a cold start `cc` is the seed
    /// graph's forest, [`IncrementalCc::from_graph`]: Afforest's
    /// labeling of that graph. On a restart it is what `wal::recover`
    /// replayed onto that seed forest. The default tenant's existing
    /// log — if any — is appended to, not replayed: replay is the
    /// caller's explicit step. When `config.wal_root` is set, persisted
    /// non-default tenants found under it are recovered and started too.
    pub fn from_cc(cc: IncrementalCc, config: ServeConfig) -> Result<Self, ServeError> {
        let backstop = Arc::new(Backstop::new(config.max_total_queue_depth));
        // The builder validates max_tenants >= 1, but ServeConfig's
        // fields are public; clamp so a hand-rolled zero cannot make the
        // default tenant unadmittable.
        let registry = EngineRegistry::new(config.max_tenants.max(1));

        let mut persisted: Vec<(String, std::path::PathBuf)> = Vec::new();
        if let Some(root) = &config.wal_root {
            persisted = wal::tenant_dirs(root);
        }
        let non_default = persisted.iter().filter(|(n, _)| n != "default").count();
        if non_default + 1 > config.max_tenants.max(1) {
            return Err(ServeError::TenantCapacity {
                found: non_default + 1,
                max: config.max_tenants.max(1),
            });
        }

        let default_id = TenantId::default_tenant();
        let default_wal = open_tenant_wal(&config, &default_id, cc.len())?;
        let ordinal = registry.next_ordinal();
        let vertices = cc.len() as u64;
        let engine = Arc::new(Engine::start(
            default_id,
            ordinal,
            cc,
            &config,
            default_wal,
            Arc::clone(&backstop),
        )?);
        let default = Arc::clone(&engine);
        if let Err((engine, _)) = registry.admit(engine) {
            engine.join_writer();
            return Err(ServeError::Spawn { what: "registry" });
        }
        events::record(EventKind::TenantCreated, [ordinal, vertices, 0]);

        let server = Self {
            registry,
            default,
            backstop,
            config,
            shutdown: AtomicBool::new(false),
        };
        for (name, dir) in persisted {
            if name == "default" {
                continue;
            }
            // Persisted names passed TenantId validation in tenant_dirs.
            let Ok(tenant) = TenantId::new(&name) else {
                continue;
            };
            server.recover_tenant(&tenant, &dir)?;
        }
        Ok(server)
    }

    /// Recovers one persisted non-default tenant and admits it.
    fn recover_tenant(&self, tenant: &TenantId, dir: &std::path::Path) -> Result<(), ServeError> {
        let rec = wal::recover(dir, None)?;
        let wal = Wal::open(dir, rec.vertices, self.config.wal_snapshot_every)?;
        let ordinal = self.registry.next_ordinal();
        let vertices = rec.vertices as u64;
        let engine = Arc::new(Engine::start(
            tenant.clone(),
            ordinal,
            rec.cc,
            &self.config,
            Some(wal),
            Arc::clone(&self.backstop),
        )?);
        match self.registry.admit(engine) {
            Ok(()) => {
                events::record(EventKind::TenantCreated, [ordinal, vertices, 0]);
                Ok(())
            }
            Err((engine, _)) => {
                engine.join_writer();
                Err(ServeError::TenantCapacity {
                    found: self.registry.len() + 1,
                    max: self.config.max_tenants.max(1),
                })
            }
        }
    }

    /// The `default` tenant's currently served epoch.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.default.snapshot()
    }

    /// Whether the `default` tenant's writer has drained a batch it has
    /// not yet published (the window in which reads still answer from
    /// the previous epoch).
    pub fn applying(&self) -> bool {
        self.default.applying()
    }

    /// Registered tenant names, sorted.
    pub fn tenants(&self) -> Vec<String> {
        self.registry.list()
    }

    /// Evaluates one request against the `default` tenant — the v1
    /// compatibility path, and what in-process single-tenant callers
    /// use.
    pub fn handle(&self, req: &Request) -> Response {
        self.handle_for(&TenantId::default_tenant(), req)
    }

    fn handle_inner(&self, tenant: &TenantId, req: &Request) -> Response {
        match req {
            Request::CreateTenant { name, vertices } => self.create_tenant(name, *vertices),
            Request::DropTenant { name } => self.drop_tenant(name),
            Request::ListTenants => Response::Tenants(self.registry.list()),
            Request::Metrics => Response::Metrics(afforest_obs::registry::expose()),
            Request::DumpTraces => Response::Traces {
                node: reqtrace::node().to_string(),
                spans: reqtrace::ring().snapshot(),
            },
            Request::Shutdown => {
                self.request_shutdown();
                Response::Bye
            }
            Request::Stats => match self.registry.get(tenant) {
                Some(e) => {
                    e.tenant_metrics().requests.inc();
                    Response::Stats(e.stats_report(self.registry.len() as u64))
                }
                None => self.unknown_tenant(tenant),
            },
            _ => match self.registry.get(tenant) {
                Some(e) => {
                    e.tenant_metrics().requests.inc();
                    e.handle(req)
                }
                None => self.unknown_tenant(tenant),
            },
        }
    }

    fn unknown_tenant(&self, tenant: &TenantId) -> Response {
        metrics().protocol_errors.inc();
        Response::Err(format!("no such tenant '{tenant}'"))
    }

    fn create_tenant(&self, name: &TenantId, vertices: u64) -> Response {
        if self.registry.get(name).is_some() {
            return Response::Err(format!("tenant '{name}' already exists"));
        }
        if vertices > MAX_TENANT_VERTICES {
            return Response::Err(format!(
                "vertices {vertices} exceeds the {MAX_TENANT_VERTICES} addressable by u32 ids"
            ));
        }
        let wal = match open_tenant_wal(&self.config, name, vertices as usize) {
            Ok(w) => w,
            Err(e) => return Response::Err(format!("tenant WAL: {e}")),
        };
        let ordinal = self.registry.next_ordinal();
        let engine = match Engine::start(
            name.clone(),
            ordinal,
            IncrementalCc::new(vertices as usize),
            &self.config,
            wal,
            Arc::clone(&self.backstop),
        ) {
            Ok(e) => Arc::new(e),
            Err(e) => return Response::Err(e.to_string()),
        };
        match self.registry.admit(engine) {
            Ok(()) => {
                events::record(EventKind::TenantCreated, [ordinal, vertices, 0]);
                Response::TenantCreated
            }
            Err((engine, AdmitError::Exists)) => {
                // Lost a create/create race: the winner owns the WAL
                // directory now, so only the speculative engine is torn
                // down.
                engine.join_writer();
                Response::Err(format!("tenant '{name}' already exists"))
            }
            Err((engine, AdmitError::Full)) => {
                engine.join_writer();
                if let Some(root) = &self.config.wal_root {
                    // The directory was created for a tenant that never
                    // existed; leaving it would resurrect it at restart.
                    let _ = std::fs::remove_dir_all(root.join(name.as_str()));
                }
                Response::Err(format!(
                    "tenant capacity reached ({} max)",
                    self.config.max_tenants.max(1)
                ))
            }
        }
    }

    fn drop_tenant(&self, name: &TenantId) -> Response {
        if name.is_default() {
            return Response::Err(
                "cannot drop tenant 'default': v1 clients route there".to_string(),
            );
        }
        match self.registry.remove(name) {
            None => {
                metrics().protocol_errors.inc();
                Response::Err(format!("no such tenant '{name}'"))
            }
            Some(engine) => {
                // The map guard is long released; winding the writer down
                // joins a thread, which must never happen under the lock.
                engine.join_writer();
                events::record(EventKind::TenantDropped, [engine.ordinal(), 0, 0]);
                if let Some(root) = &self.config.wal_root {
                    let _ = std::fs::remove_dir_all(root.join(name.as_str()));
                }
                Response::TenantDropped
            }
        }
    }

    /// Builds the `default` tenant's stats answer.
    pub fn stats_report(&self) -> StatsReport {
        self.default.stats_report(self.registry.len() as u64)
    }

    /// Waits until every tenant's queued edges have been applied and
    /// published (or `timeout` elapses). Returns whether every queue
    /// fully drained.
    pub fn flush(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        for engine in self.registry.engines() {
            let left = deadline.saturating_duration_since(Instant::now());
            if !engine.flush(left) {
                return false;
            }
        }
        true
    }

    /// Stops every tenant's writer (applying any still-queued edges
    /// first) and joins them. Idempotent.
    pub fn join_writer(&mut self) {
        for engine in self.registry.engines() {
            engine.join_writer();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.join_writer();
    }
}

impl Endpoint for Server {
    const ROOT_STAGE: Stage = Stage::ShardRequest;

    /// Evaluates one request against `tenant`'s engine.
    ///
    /// Every call lands in the live telemetry plane: one per-op request
    /// counter and one per-op latency histogram (process-wide), plus the
    /// routed tenant's `tenant="..."`-labelled request counter.
    fn handle_for(&self, tenant: &TenantId, req: &Request) -> Response {
        let op = op_index(req);
        let start = Instant::now();
        let resp = self.handle_inner(tenant, req);
        let m = metrics();
        m.requests[op].inc();
        // The latency sample doubles as the histogram's exemplar when the
        // request is traced: /metrics then links p99 to a trace id.
        m.latency[op].record_traced(
            start.elapsed().as_nanos() as u64,
            reqtrace::current().trace_id,
        );
        resp
    }

    fn shutdown_flag(&self) -> &AtomicBool {
        &self.shutdown
    }

    fn read_deadline(&self) -> Option<Duration> {
        self.config.read_deadline
    }

    fn faults(&self) -> Option<&FaultPlan> {
        self.config.faults.as_deref()
    }
}

/// Opens (creating as needed) `tenant`'s WAL under the configured root,
/// honouring the legacy single-tenant layout for `default`.
fn open_tenant_wal(
    config: &ServeConfig,
    tenant: &TenantId,
    vertices: usize,
) -> Result<Option<Wal>, WalError> {
    let Some(root) = &config.wal_root else {
        return Ok(None);
    };
    let dir = if tenant.is_default() {
        wal::default_wal_dir(root)
    } else {
        root.join(tenant.as_str())
    };
    Ok(Some(Wal::open(&dir, vertices, config.wal_snapshot_every)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::BatchPolicy;

    fn quick_policy() -> BatchPolicy {
        BatchPolicy {
            max_edges: 64,
            max_delay: Duration::from_millis(1),
            apply_delay: None,
        }
    }

    fn quick_config() -> ServeConfig {
        ServeConfig::builder()
            .policy(quick_policy())
            .build()
            .unwrap()
    }

    fn parked_policy() -> BatchPolicy {
        BatchPolicy {
            // Deadline far away: edges sit queued until shutdown drain.
            max_edges: 1_000_000,
            max_delay: Duration::from_secs(600),
            apply_delay: None,
        }
    }

    fn path_server(n: usize) -> Server {
        let edges: Vec<(Node, Node)> = (1..n as Node).map(|v| (v - 1, v)).collect();
        Server::new(n, &edges, quick_config()).expect("start server")
    }

    #[test]
    fn serves_epoch_zero_queries() {
        let server = Server::new(6, &[(0, 1), (1, 2), (4, 5)], quick_config()).unwrap();
        assert_eq!(
            server.handle(&Request::Connected(0, 2)),
            Response::Connected(true)
        );
        assert_eq!(
            server.handle(&Request::Connected(0, 3)),
            Response::Connected(false)
        );
        assert_eq!(
            server.handle(&Request::Component(2)),
            Response::Component(0)
        );
        assert_eq!(
            server.handle(&Request::ComponentSize(4)),
            Response::ComponentSize(2)
        );
        assert_eq!(
            server.handle(&Request::NumComponents),
            Response::NumComponents(3)
        );
    }

    #[test]
    fn resolve_answers_every_id_from_one_snapshot() {
        let server = Server::new(6, &[(0, 1), (1, 2), (4, 5)], quick_config()).unwrap();
        assert_eq!(
            server.handle(&Request::Resolve(vec![2, 3, 5, 0])),
            Response::Resolved {
                epoch: 0,
                num_components: 3,
                entries: vec![(0, 3), (3, 1), (4, 2), (0, 3)],
            }
        );
        // No ids: the epoch and the count alone.
        assert_eq!(
            server.handle(&Request::Resolve(vec![])),
            Response::Resolved {
                epoch: 0,
                num_components: 3,
                entries: vec![],
            }
        );
        match server.handle(&Request::Resolve(vec![0, 6])) {
            Response::Err(msg) => assert!(msg.contains("out of range"), "{msg}"),
            other => panic!("out-of-range resolve answered {other:?}"),
        }
        // An answer that would not fit in a frame is refused, not cut.
        let too_many = vec![0; crate::protocol::MAX_RESOLVE_IDS + 1];
        match server.handle(&Request::Resolve(too_many)) {
            Response::Err(msg) => assert!(msg.contains("exceeds"), "{msg}"),
            other => panic!("oversized resolve answered {other:?}"),
        }
    }

    #[test]
    fn inserts_become_visible_after_flush() {
        let server = Server::new(4, &[], quick_config()).unwrap();
        assert_eq!(
            server.handle(&Request::Connected(0, 3)),
            Response::Connected(false)
        );
        assert_eq!(
            server.handle(&Request::InsertEdges(vec![(0, 1), (1, 2), (2, 3)])),
            Response::Accepted { edges: 3 }
        );
        assert!(server.flush(Duration::from_secs(5)));
        assert_eq!(
            server.handle(&Request::Connected(0, 3)),
            Response::Connected(true)
        );
        let snap = server.snapshot();
        assert!(snap.epoch >= 1);
        assert_eq!(server.stats_report().edges_ingested, 3);
    }

    #[test]
    fn out_of_range_requests_get_err_not_panic() {
        let server = path_server(5);
        // Protocol errors are a process fact: other tests in this binary
        // add to the same counter, so only a lower bound holds.
        let errors_before = metrics().protocol_errors.get();
        for req in [
            Request::Connected(0, 5),
            Request::Connected(9, 9),
            Request::Component(5),
            Request::ComponentSize(u32::MAX),
            Request::InsertEdges(vec![(0, 1), (2, 5)]),
        ] {
            match server.handle(&req) {
                Response::Err(msg) => assert!(msg.contains("out of range"), "{msg}"),
                other => panic!("{req:?} answered {other:?}"),
            }
        }
        assert!(metrics().protocol_errors.get() >= errors_before + 5);
        // Rejected insert must not have queued anything.
        assert!(server.flush(Duration::from_secs(1)));
        assert_eq!(server.stats_report().edges_ingested, 0);
    }

    #[test]
    fn stats_reflect_ingest_progress() {
        let server = Server::new(8, &[(0, 1)], quick_config()).unwrap();
        server.handle(&Request::InsertEdges(vec![(2, 3), (4, 5)]));
        assert!(server.flush(Duration::from_secs(5)));
        match server.handle(&Request::Stats) {
            Response::Stats(s) => {
                assert_eq!(s.vertices, 8);
                assert_eq!(s.edges_ingested, 2);
                assert!(s.epochs_published >= 1);
                assert_eq!(s.queue_depth, 0);
                assert!(s.epoch >= 1);
                assert_eq!(s.num_components, 5);
                assert_eq!(s.tenants, 1);
            }
            other => panic!("expected stats, got {other:?}"),
        }
    }

    #[test]
    fn two_default_tenants_in_one_process_keep_their_own_stats() {
        // Both servers' engines are tenant `default`, so they share every
        // registry series; `Stats` must still answer per engine.
        let a = Server::new(8, &[], quick_config()).unwrap();
        let b = Server::new(8, &[], quick_config()).unwrap();
        a.handle(&Request::InsertEdges(vec![(0, 1), (1, 2), (2, 3)]));
        b.handle(&Request::InsertEdges(vec![(4, 5)]));
        assert!(a.flush(Duration::from_secs(5)));
        assert!(b.flush(Duration::from_secs(5)));
        let (sa, sb) = (a.stats_report(), b.stats_report());
        assert_eq!((sa.edges_ingested, sa.epochs_published), (3, 1));
        assert_eq!((sb.edges_ingested, sb.epochs_published), (1, 1));
        assert_eq!((sa.num_components, sb.num_components), (5, 7));
        // The shared tenant series holds both engines' edges.
        let series = crate::metrics::tenant_metrics("default").edges_ingested;
        assert!(series.get() >= 4);
    }

    #[test]
    fn shutdown_request_sets_flag_and_answers_bye() {
        let server = path_server(3);
        assert!(!server.shutdown_requested());
        assert_eq!(server.handle(&Request::Shutdown), Response::Bye);
        assert!(server.shutdown_requested());
    }

    #[test]
    fn many_small_inserts_coalesce_into_few_epochs() {
        let server = Server::new(
            1_000,
            &[],
            ServeConfig::builder()
                .policy(BatchPolicy {
                    max_edges: 256,
                    max_delay: Duration::from_millis(20),
                    apply_delay: None,
                })
                .build()
                .unwrap(),
        )
        .unwrap();
        for v in 1..1_000u32 {
            server.handle(&Request::InsertEdges(vec![(v - 1, v)]));
        }
        assert!(server.flush(Duration::from_secs(10)));
        let published = server.stats_report().epochs_published;
        assert!(published >= 1);
        // 999 single-edge inserts must not mean 999 epochs: coalescing is
        // what makes the write path batched. The writer keeps up with the
        // producer, so well under half the inserts get their own epoch.
        assert!(published < 500, "no coalescing: {published} epochs");
        assert_eq!(server.stats_report().edges_ingested, 999);
        assert_eq!(
            server.handle(&Request::NumComponents),
            Response::NumComponents(1)
        );
    }

    #[test]
    fn drop_applies_queued_edges_before_exit() {
        let mut server = Server::new(
            4,
            &[],
            ServeConfig::builder()
                .policy(parked_policy())
                .build()
                .unwrap(),
        )
        .unwrap();
        server.handle(&Request::InsertEdges(vec![(0, 1), (1, 2)]));
        server.join_writer();
        assert_eq!(
            server.handle(&Request::Connected(0, 2)),
            Response::Connected(true)
        );
    }

    #[test]
    fn final_stats_after_shutdown_drain_report_empty_queue() {
        let mut server = Server::new(
            4,
            &[],
            ServeConfig::builder()
                .policy(parked_policy())
                .build()
                .unwrap(),
        )
        .unwrap();
        server.handle(&Request::InsertEdges(vec![(0, 1), (1, 2)]));
        // The push recorded a nonzero depth; the shutdown drain applies
        // the edges, so the final answer must say the queue is empty.
        assert_eq!(server.stats_report().queue_depth, 2);
        server.join_writer();
        assert_eq!(server.stats_report().queue_depth, 0);
        match server.handle(&Request::Stats) {
            Response::Stats(s) => assert_eq!(s.queue_depth, 0),
            other => panic!("expected stats, got {other:?}"),
        }
    }

    #[test]
    fn full_queue_sheds_writes_but_keeps_answering_reads() {
        let server = Server::new(
            8,
            &[(0, 1)],
            ServeConfig::builder()
                .policy(parked_policy())
                .max_queue_depth(4)
                .build()
                .unwrap(),
        )
        .unwrap();
        assert_eq!(
            server.handle(&Request::InsertEdges(vec![(0, 1), (1, 2), (2, 3)])),
            Response::Accepted { edges: 3 }
        );
        // 3 pending + 2 > 4: shed.
        assert_eq!(
            server.handle(&Request::InsertEdges(vec![(3, 4), (4, 5)])),
            Response::Overloaded { queue_depth: 3 }
        );
        // A batch that still fits is admitted.
        assert_eq!(
            server.handle(&Request::InsertEdges(vec![(5, 6)])),
            Response::Accepted { edges: 1 }
        );
        assert_eq!(server.stats_report().requests_shed, 1);
        // Reads keep answering while the write path sheds.
        assert_eq!(
            server.handle(&Request::Connected(0, 1)),
            Response::Connected(true)
        );
    }

    #[test]
    fn tenants_are_created_listed_isolated_and_dropped() {
        let server = Server::new(4, &[(0, 1)], quick_config()).unwrap();
        let t = TenantId::new("acme").unwrap();
        assert_eq!(
            server.handle(&Request::CreateTenant {
                name: t.clone(),
                vertices: 3
            }),
            Response::TenantCreated
        );
        // Duplicate create is refused.
        match server.handle(&Request::CreateTenant {
            name: t.clone(),
            vertices: 3,
        }) {
            Response::Err(msg) => assert!(msg.contains("already exists"), "{msg}"),
            other => panic!("duplicate create answered {other:?}"),
        }
        assert_eq!(
            server.handle(&Request::ListTenants),
            Response::Tenants(vec!["acme".to_string(), "default".to_string()])
        );
        // The tenants are isolated: default's seed edge is invisible to
        // acme, and acme's smaller universe rejects default-sized ids.
        assert_eq!(
            server.handle_for(&t, &Request::Connected(0, 1)),
            Response::Connected(false)
        );
        match server.handle_for(&t, &Request::Connected(0, 3)) {
            Response::Err(msg) => assert!(msg.contains("out of range"), "{msg}"),
            other => panic!("expected range error, got {other:?}"),
        }
        server.handle_for(&t, &Request::InsertEdges(vec![(0, 2)]));
        assert!(server.flush(Duration::from_secs(5)));
        assert_eq!(
            server.handle_for(&t, &Request::Connected(0, 2)),
            Response::Connected(true)
        );
        assert_eq!(
            server.handle(&Request::Connected(0, 2)),
            Response::Connected(false)
        );
        // Per-tenant stats see only that tenant's ingest.
        match server.handle_for(&t, &Request::Stats) {
            Response::Stats(s) => {
                assert_eq!(s.vertices, 3);
                assert_eq!(s.edges_ingested, 1);
                assert_eq!(s.tenants, 2);
            }
            other => panic!("expected stats, got {other:?}"),
        }
        // Drop, and the tenant stops routing.
        assert_eq!(
            server.handle(&Request::DropTenant { name: t.clone() }),
            Response::TenantDropped
        );
        match server.handle_for(&t, &Request::NumComponents) {
            Response::Err(msg) => assert!(msg.contains("no such tenant"), "{msg}"),
            other => panic!("expected unknown tenant, got {other:?}"),
        }
    }

    #[test]
    fn default_tenant_cannot_be_dropped() {
        let server = path_server(3);
        match server.handle(&Request::DropTenant {
            name: TenantId::default_tenant(),
        }) {
            Response::Err(msg) => assert!(msg.contains("cannot drop"), "{msg}"),
            other => panic!("expected refusal, got {other:?}"),
        }
        assert_eq!(server.tenants(), vec!["default".to_string()]);
    }

    #[test]
    fn tenant_capacity_is_enforced() {
        let server = Server::new(
            3,
            &[],
            ServeConfig::builder()
                .policy(quick_policy())
                .max_tenants(2)
                .build()
                .unwrap(),
        )
        .unwrap();
        assert_eq!(
            server.handle(&Request::CreateTenant {
                name: TenantId::new("one").unwrap(),
                vertices: 2
            }),
            Response::TenantCreated
        );
        match server.handle(&Request::CreateTenant {
            name: TenantId::new("two").unwrap(),
            vertices: 2,
        }) {
            Response::Err(msg) => assert!(msg.contains("capacity"), "{msg}"),
            other => panic!("expected capacity refusal, got {other:?}"),
        }
    }

    #[test]
    fn wal_backed_server_survives_restart() {
        let dir = std::env::temp_dir().join(format!("afforest-server-wal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let seed = afforest_graph::GraphBuilder::from_edges(8, &[(0, 1)]).build();
        let wal_config = || {
            ServeConfig::builder()
                .policy(quick_policy())
                .wal_root(Some(dir.clone()))
                .build()
                .unwrap()
        };
        {
            let server = Server::from_cc(IncrementalCc::from_graph(&seed), wal_config()).unwrap();
            server.handle(&Request::InsertEdges(vec![(1, 2), (4, 5)]));
            assert!(server.flush(Duration::from_secs(5)));
            // Server drops here — simulating an orderly exit; a kill is
            // equivalent because the append preceded the apply.
        }
        let seed = Some(IncrementalCc::from_graph(&seed));
        let rec = crate::wal::recover(&wal::default_wal_dir(&dir), seed).unwrap();
        let server = Server::from_cc(rec.cc, wal_config()).unwrap();
        assert_eq!(
            server.handle(&Request::Connected(0, 2)),
            Response::Connected(true)
        );
        assert_eq!(
            server.handle(&Request::Connected(4, 5)),
            Response::Connected(true)
        );
        assert_eq!(
            server.handle(&Request::Connected(0, 4)),
            Response::Connected(false)
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn legacy_wal_layout_is_served_in_place() {
        // A pre-tenancy deployment has wal.log directly in the root; the
        // default tenant must keep using it there rather than starting a
        // fresh log under <root>/default/.
        let dir = std::env::temp_dir().join(format!("afforest-legacy-wal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut wal = Wal::open(&dir, 8, 0).unwrap();
            wal.append(&[(0, 1), (1, 2)]).unwrap();
        }
        assert_eq!(wal::default_wal_dir(&dir), dir);
        let rec = crate::wal::recover(&dir, None).unwrap();
        {
            let server = Server::from_cc(
                rec.cc,
                ServeConfig::builder()
                    .policy(quick_policy())
                    .wal_root(Some(dir.clone()))
                    .build()
                    .unwrap(),
            )
            .unwrap();
            server.handle(&Request::InsertEdges(vec![(4, 5)]));
            assert!(server.flush(Duration::from_secs(5)));
        }
        // Everything — legacy seed and new appends — recovers from the
        // root-level log.
        let rec = crate::wal::recover(&dir, None).unwrap();
        assert!(!dir.join("default").exists());
        let server = Server::from_cc(rec.cc, quick_config()).unwrap();
        assert_eq!(
            server.handle(&Request::Connected(0, 2)),
            Response::Connected(true)
        );
        assert_eq!(
            server.handle(&Request::Connected(4, 5)),
            Response::Connected(true)
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn persisted_tenants_restart_with_the_server() {
        let dir = std::env::temp_dir().join(format!("afforest-tenant-wal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let t = TenantId::new("persisted").unwrap();
        let wal_config = || {
            ServeConfig::builder()
                .policy(quick_policy())
                .wal_root(Some(dir.clone()))
                .build()
                .unwrap()
        };
        {
            let server = Server::new(4, &[], wal_config()).unwrap();
            assert_eq!(
                server.handle(&Request::CreateTenant {
                    name: t.clone(),
                    vertices: 6
                }),
                Response::TenantCreated
            );
            server.handle_for(&t, &Request::InsertEdges(vec![(3, 4)]));
            assert!(server.flush(Duration::from_secs(5)));
        }
        let server = Server::new(4, &[], wal_config()).unwrap();
        assert_eq!(
            server.tenants(),
            vec!["default".to_string(), "persisted".to_string()]
        );
        assert_eq!(
            server.handle_for(&t, &Request::Connected(3, 4)),
            Response::Connected(true)
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
