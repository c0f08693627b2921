//! Per-tenant engines and the registry that routes requests to them.
//!
//! PR 3's singleton server owned one snapshot store, one ingest queue,
//! and one writer thread. Multi-tenancy factors that bundle out into an
//! [`Engine`] — one per tenant, each with its own epoch sequence, WAL,
//! quota, and labelled metrics — and an [`EngineRegistry`] mapping
//! tenant names to running engines. The TCP front-end and the
//! process-wide concerns (shutdown flag, read deadline, transport
//! errors) stay in `server.rs`; everything graph-shaped lives here.
//!
//! Admission is two-tiered: each engine sheds inserts above its own
//! `max_queue_depth`, and a process-wide [`Backstop`] bounds the *sum*
//! of pending edges across tenants so one process cannot be queued into
//! the ground by many tenants that are each individually under quota.
//!
//! Lock discipline (checked by the `lock-order` analysis pass): the
//! registry's map guard and an engine's writer-handle guard are only
//! ever held as single-statement temporaries or in leaf code that
//! acquires nothing else, so neither nests with the snapshot store or
//! the ingest queue.

use crate::config::ServeConfig;
use crate::events::{self, EventKind};
use crate::faults::FaultPlan;
use crate::ingest::{BatchPolicy, Drained, IngestQueue};
use crate::metrics::{metrics, tenant_metrics, TenantMetrics};
use crate::protocol::{Request, Response, StatsReport, MAX_RESOLVE_IDS};
use crate::server::ServeError;
use crate::snapshot::{Snapshot, SnapshotStore};
use crate::tenant::TenantId;
use crate::wal::Wal;
use afforest_core::IncrementalCc;
use afforest_graph::Node;
use afforest_obs::reqtrace::{self, Stage, StageSpan};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Process-wide pending-edge accounting shared by every engine.
///
/// Reservation is a token scheme over one atomic: `try_reserve` adds
/// first and checks after, backing the addition out on rejection. The
/// `fetch_add`s serialize, so the bound is exact under concurrency —
/// two racing reservations cannot both slip under the limit.
pub(crate) struct Backstop {
    queued: AtomicU64,
    max_total: usize,
}

impl Backstop {
    pub(crate) fn new(max_total: usize) -> Backstop {
        Backstop {
            queued: AtomicU64::new(0),
            max_total,
        }
    }

    /// Reserves room for `k` more pending edges; `false` means the
    /// process-wide bound would be exceeded.
    fn try_reserve(&self, k: usize) -> bool {
        let prev = self.queued.fetch_add(k as u64, Ordering::Relaxed);
        if self.max_total > 0 && prev + k as u64 > self.max_total as u64 {
            self.queued.fetch_sub(k as u64, Ordering::Relaxed);
            return false;
        }
        true
    }

    /// Returns `k` drained edges to the pool.
    fn release(&self, k: u64) {
        self.queued.fetch_sub(k, Ordering::Relaxed);
    }
}

/// State shared between one tenant's request handlers and its writer.
///
/// Each serving event is written once per scope: `ingest`'s ledger is
/// the engine scope (`Stats`, `flush`), `tm` the tenant scope
/// (`tenant="…"` series), and `metrics()` the process scope.
struct EngineShared {
    store: SnapshotStore,
    ingest: IngestQueue,
    max_queue_depth: usize,
    faults: Option<Arc<FaultPlan>>,
    backstop: Arc<Backstop>,
    tm: TenantMetrics,
    ordinal: u64,
}

/// One tenant's connectivity service: an epoch-snapshot store, a
/// single-writer ingest queue, and (optionally) a WAL, all scoped to
/// that tenant.
///
/// Public so that embedders (the shard router in `afforest-shard`) can
/// run engines directly without a TCP front-end; construct one with
/// [`Engine::standalone`].
pub struct Engine {
    shared: Arc<EngineShared>,
    tenant: TenantId,
    vertices: usize,
    writer: Mutex<Option<JoinHandle<()>>>,
}

impl Engine {
    /// Builds the tenant's epoch-0 snapshot from `cc` and starts its
    /// writer thread. `ordinal` is the registration-order index carried
    /// in flight-recorder events (which hold `u64`s, not strings).
    pub(crate) fn start(
        tenant: TenantId,
        ordinal: u64,
        mut cc: IncrementalCc,
        config: &ServeConfig,
        mut wal: Option<Wal>,
        backstop: Arc<Backstop>,
    ) -> Result<Engine, ServeError> {
        if let Some(f) = config.faults.as_ref() {
            wal = wal.map(|w| w.with_faults(Arc::clone(f)));
        }
        let vertices = cc.len();
        cc.compress();
        let initial = Snapshot::new(0, &cc);
        let shared = Arc::new(EngineShared {
            store: SnapshotStore::new(initial),
            ingest: IngestQueue::default(),
            max_queue_depth: config.max_queue_depth,
            faults: config.faults.clone(),
            backstop,
            tm: tenant_metrics(tenant.as_str()),
            ordinal,
        });
        let writer = {
            let shared = Arc::clone(&shared);
            let policy = config.policy.clone();
            thread::Builder::new()
                .name(format!("afw-{}", tenant.as_str()))
                .spawn(move || writer_loop(cc, &shared, &policy, wal))
                .map_err(|_| ServeError::Spawn { what: "writer" })?
        };
        Ok(Engine {
            shared,
            tenant,
            vertices,
            writer: Mutex::new(Some(writer)),
        })
    }

    /// Builds a self-contained engine that is not part of any registry:
    /// it gets its own admission backstop (sized from
    /// `config.max_total_queue_depth`) and ordinal 0. This is the
    /// constructor for embedders — the shard subsystem runs one
    /// standalone engine per vertex slice, each with its own WAL
    /// namespace, without a `Server` in front.
    pub fn standalone(
        tenant: TenantId,
        cc: IncrementalCc,
        config: &ServeConfig,
        wal: Option<Wal>,
    ) -> Result<Engine, ServeError> {
        let backstop = Arc::new(Backstop::new(config.max_total_queue_depth));
        Engine::start(tenant, 0, cc, config, wal, backstop)
    }

    /// This engine's tenant.
    pub fn tenant(&self) -> &TenantId {
        &self.tenant
    }

    /// Registration-order index (the `tenant` field of events).
    pub(crate) fn ordinal(&self) -> u64 {
        self.shared.ordinal
    }

    /// The tenant's currently served epoch.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.shared.store.load()
    }

    /// Whether the writer has drained a batch it has not yet published.
    pub(crate) fn applying(&self) -> bool {
        self.shared.ingest.ledger().in_flight > 0
    }

    /// The tenant's labelled metric handles.
    pub(crate) fn tenant_metrics(&self) -> &TenantMetrics {
        &self.shared.tm
    }

    /// Evaluates one *data* request (reads and inserts) against this
    /// tenant. Admin requests (tenant ops, metrics, shutdown) are the
    /// server's business and answer `Err` here.
    pub fn handle(&self, req: &Request) -> Response {
        match req {
            Request::Connected(u, v) => match self.snapshot().connected(*u, *v) {
                Some(b) => Response::Connected(b),
                None => self.range_error(*u.max(v)),
            },
            Request::Component(u) => match self.snapshot().component(*u) {
                Some(l) => Response::Component(l),
                None => self.range_error(*u),
            },
            Request::ComponentSize(u) => match self.snapshot().component_size(*u) {
                Some(s) => Response::ComponentSize(s),
                None => self.range_error(*u),
            },
            Request::NumComponents => {
                Response::NumComponents(self.snapshot().num_components() as u64)
            }
            Request::InsertEdges(edges) => self.insert(edges),
            Request::Resolve(ids) => self.resolve(ids),
            _ => Response::Err("not a data request".into()),
        }
    }

    /// Answers [`Request::Resolve`] from one snapshot, so every label,
    /// size, the epoch and the component count belong to one epoch. Any
    /// out-of-range id fails the whole request, as does one whose answer
    /// would not fit in a frame.
    fn resolve(&self, ids: &[Node]) -> Response {
        if ids.len() > MAX_RESOLVE_IDS {
            metrics().protocol_errors.inc();
            return Response::Err(format!(
                "resolve of {} ids exceeds the {MAX_RESOLVE_IDS} one answer frame holds",
                ids.len()
            ));
        }
        let snap = self.snapshot();
        let mut entries = Vec::with_capacity(ids.len());
        for &u in ids {
            match snap.resolve(u) {
                Some(entry) => entries.push(entry),
                None => return self.range_error(u),
            }
        }
        Response::Resolved {
            epoch: snap.epoch,
            num_components: snap.num_components() as u64,
            entries,
        }
    }

    fn insert(&self, edges: &[(Node, Node)]) -> Response {
        if let Some(&(u, v)) = edges
            .iter()
            .find(|&&(u, v)| u as usize >= self.vertices || v as usize >= self.vertices)
        {
            metrics().protocol_errors.inc();
            return Response::Err(format!(
                "edge ({u}, {v}) out of range for {} vertices",
                self.vertices
            ));
        }
        if !self.shared.backstop.try_reserve(edges.len()) {
            return self.shed(self.shared.ingest.shed(), edges.len());
        }
        match self
            .shared
            .ingest
            .try_push(edges, self.shared.max_queue_depth)
        {
            Ok(depth) => {
                self.shared.tm.queue_depth.set(depth as u64);
                Response::Accepted {
                    edges: edges.len() as u32,
                }
            }
            Err(depth) => {
                self.shared.backstop.release(edges.len() as u64);
                self.shed(depth, edges.len())
            }
        }
    }

    /// Answers an insert the ingest ledger has already counted as shed.
    fn shed(&self, depth: usize, edges: usize) -> Response {
        metrics().requests_shed.inc();
        self.shared.tm.requests_shed.inc();
        events::record(
            EventKind::OverloadShed,
            [depth as u64, edges as u64, self.shared.ordinal],
        );
        Response::Overloaded {
            queue_depth: depth as u64,
        }
    }

    fn range_error(&self, v: Node) -> Response {
        metrics().protocol_errors.inc();
        Response::Err(format!(
            "vertex {v} out of range for {} vertices",
            self.vertices
        ))
    }

    /// Builds this tenant's stats answer; `tenants` is the registry
    /// size (the engine cannot see its siblings).
    pub fn stats_report(&self, tenants: u64) -> StatsReport {
        let snap = self.snapshot();
        let ledger = self.shared.ingest.ledger();
        StatsReport {
            epoch: snap.epoch,
            vertices: snap.vertices() as u64,
            num_components: snap.num_components() as u64,
            edges_ingested: ledger.applied,
            epochs_published: ledger.batches,
            queue_depth: ledger.unpublished(),
            requests_shed: ledger.shed,
            wal_records: ledger.wal_records,
            faults_injected: self
                .shared
                .faults
                .as_deref()
                .map_or(0, |f| f.injected().total()),
            tenants,
        }
    }

    /// Waits until every queued edge has been applied and published (or
    /// `timeout` elapses). Returns whether every edge became visible.
    pub fn flush(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            if self.shared.ingest.ledger().unpublished() == 0 {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            thread::sleep(Duration::from_millis(1));
        }
    }

    /// Stops the writer (applying any still-queued edges first) and
    /// joins it. Idempotent; callable through a shared reference, which
    /// is what lets the registry drop a tenant without tearing down the
    /// server.
    pub fn join_writer(&self) {
        self.shared.ingest.shutdown();
        let handle = self.writer.lock().unwrap_or_else(|e| e.into_inner()).take();
        if let Some(h) = handle {
            let _ = h.join();
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.join_writer();
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("tenant", &self.tenant)
            .field("ordinal", &self.shared.ordinal)
            .field("vertices", &self.vertices)
            .finish_non_exhaustive()
    }
}

/// Why [`EngineRegistry::admit`] refused a tenant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum AdmitError {
    /// A tenant of that name is already registered.
    Exists,
    /// The registry is at its `max_tenants` capacity.
    Full,
}

/// The tenant → engine map. Reads (routing, listing) take the lock as a
/// single-statement temporary and clone the `Arc` out, so no request
/// handler ever holds the map while touching an engine.
pub(crate) struct EngineRegistry {
    map: RwLock<BTreeMap<String, Arc<Engine>>>,
    next_ordinal: AtomicU64,
    max_tenants: usize,
}

impl EngineRegistry {
    pub(crate) fn new(max_tenants: usize) -> EngineRegistry {
        EngineRegistry {
            map: RwLock::new(BTreeMap::new()),
            next_ordinal: AtomicU64::new(0),
            max_tenants,
        }
    }

    /// Hands out registration-order ordinals (engines are built before
    /// they are admitted, so the ordinal is reserved first).
    pub(crate) fn next_ordinal(&self) -> u64 {
        self.next_ordinal.fetch_add(1, Ordering::Relaxed)
    }

    /// The engine serving `tenant`, if any.
    pub(crate) fn get(&self, tenant: &TenantId) -> Option<Arc<Engine>> {
        self.map
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(tenant.as_str())
            .cloned()
    }

    /// Registered tenant names, sorted.
    pub(crate) fn list(&self) -> Vec<String> {
        self.map
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .keys()
            .cloned()
            .collect()
    }

    /// Number of registered tenants.
    pub(crate) fn len(&self) -> usize {
        self.map.read().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Every engine, for shutdown-time iteration.
    pub(crate) fn engines(&self) -> Vec<Arc<Engine>> {
        self.map
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .values()
            .cloned()
            .collect()
    }

    /// Inserts a fully-started engine under its tenant's name. On
    /// rejection the engine comes back to the caller, who disposes of
    /// it outside any lock (disposal joins a thread).
    pub(crate) fn admit(&self, engine: Arc<Engine>) -> Result<(), (Arc<Engine>, AdmitError)> {
        let verdict = {
            let mut map = self.map.write().unwrap_or_else(|e| e.into_inner());
            if map.contains_key(engine.tenant().as_str()) {
                Err(AdmitError::Exists)
            } else if map.len() >= self.max_tenants {
                Err(AdmitError::Full)
            } else {
                map.insert(engine.tenant().as_str().to_string(), Arc::clone(&engine));
                Ok(())
            }
        };
        match verdict {
            Ok(()) => {
                metrics().tenants.set(self.len() as u64);
                Ok(())
            }
            Err(e) => Err((engine, e)),
        }
    }

    /// Removes `tenant`'s engine, returning it for the caller to wind
    /// down outside the map lock.
    pub(crate) fn remove(&self, tenant: &TenantId) -> Option<Arc<Engine>> {
        let removed = self
            .map
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .remove(tenant.as_str());
        if removed.is_some() {
            metrics().tenants.set(self.len() as u64);
        }
        removed
    }
}

/// The single writer of one engine: drain → log → link → compress →
/// publish, one epoch per coalesced batch. The WAL append comes
/// *before* the apply, so any batch a reader can observe is already
/// durable (modulo OS buffering; DESIGN.md §11). Each epoch is the
/// previous one patched with what the batch wrote.
fn writer_loop(
    mut cc: IncrementalCc,
    shared: &EngineShared,
    policy: &BatchPolicy,
    mut wal: Option<Wal>,
) {
    let mut epoch = 0u64;
    loop {
        let (batch, oldest, trace) = match shared.ingest.next_batch(policy) {
            Drained::Batch {
                edges,
                oldest,
                trace,
            } => (edges, oldest, trace),
            Drained::Shutdown => {
                // Shutdown fully drained the queue: the final scrape must
                // say 0, not the depth of the last pre-drain push.
                shared.tm.queue_depth.set(0);
                return;
            }
        };
        shared.backstop.release(batch.len() as u64);
        // Pipeline stages below are attributed to the batch's
        // representative traced request (the first sampled push since the
        // last drain). Writer-side spans go straight to the ring — the
        // batch already coalesced many requests, so tail sampling is the
        // request thread's business, not ours.
        let _trace_scope = reqtrace::scoped(trace);
        let wait = oldest.elapsed();
        reqtrace::record(
            trace,
            Stage::QueueWait,
            batch.len() as u64,
            reqtrace::now_us().saturating_sub(wait.as_micros() as u64),
            wait.as_nanos() as u64,
        );
        let mut wal_logged = false;
        if let Some(w) = wal.as_mut() {
            let _wal_span = StageSpan::begin_with(Stage::WalFsync, batch.len() as u64);
            // A failed append does not block the batch: the service stays
            // available and the gap surfaces in wal_errors instead.
            match w.append(&batch) {
                Ok(crate::wal::AppendOutcome::Logged) => wal_logged = true,
                Ok(_) => {} // injected fault: counted at the fault site
                Err(_) => {
                    metrics().wal_errors.inc();
                    events::record(EventKind::WalError, [epoch + 1, 0, 0]);
                }
            }
        }
        epoch += 1;
        let applied = batch.len() as u64;
        let apply_start = Instant::now();
        {
            let _span = afforest_obs::span!("ingest-batch[{epoch}]");
            let delta = {
                let _apply = StageSpan::begin_with(Stage::BatchApply, applied);
                let delta = cc.insert_batch(&batch);
                if let Some(d) = policy.apply_delay {
                    thread::sleep(d);
                }
                if let Some(d) = shared.faults.as_deref().and_then(|f| f.on_apply()) {
                    thread::sleep(d);
                }
                delta
            };
            let _publish = StageSpan::begin_with(Stage::EpochPublish, epoch);
            // `prev` outlives the swap, so the replaced epoch's pages are
            // released here rather than under the store's write lock.
            let prev = shared.store.load();
            shared.store.publish(prev.next(epoch, &cc, &delta));
        }
        // Lag from the batch's oldest edge arriving to its epoch being
        // visible: queue wait + WAL append + link/compress + publish.
        let lag = oldest.elapsed();
        events::record(
            EventKind::BatchApplied,
            [epoch, applied, apply_start.elapsed().as_micros() as u64],
        );
        events::record(
            EventKind::EpochPublished,
            [epoch, applied, lag.as_micros() as u64],
        );
        // One write per scope: process, then tenant, then the engine's
        // ledger last, so a flush that returns sees this batch in `Stats`
        // and in a scrape.
        let m = metrics();
        m.epochs_published.inc();
        m.edges_ingested.add(applied);
        m.epoch_publish_lag.record(lag.as_nanos() as u64);
        shared.tm.epoch.set(epoch);
        shared.tm.queue_depth.set(shared.ingest.ledger().queued);
        shared.tm.edges_ingested.add(applied);
        shared.ingest.published(wal_logged);
        if let Some(w) = wal.as_mut() {
            // This thread is the store's only publisher, so `load` returns
            // the epoch just published: it covers every logged batch.
            if w.maybe_compact(&shared.store.load()).is_err() {
                metrics().wal_errors.inc();
                events::record(EventKind::WalError, [epoch, 0, 0]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> ServeConfig {
        ServeConfig::builder()
            .policy(BatchPolicy {
                max_edges: 64,
                max_delay: Duration::from_millis(1),
                apply_delay: None,
            })
            .build()
            .unwrap()
    }

    fn engine(name: &str, n: usize, config: &ServeConfig, backstop: Arc<Backstop>) -> Arc<Engine> {
        Arc::new(
            Engine::start(
                TenantId::new(name).unwrap(),
                0,
                IncrementalCc::new(n),
                config,
                None,
                backstop,
            )
            .unwrap(),
        )
    }

    #[test]
    fn registry_routes_lists_and_enforces_capacity() {
        let cfg = quick_config();
        let reg = EngineRegistry::new(2);
        let backstop = Arc::new(Backstop::new(0));
        reg.admit(engine("default", 4, &cfg, Arc::clone(&backstop)))
            .unwrap();
        reg.admit(engine("tenant-a", 4, &cfg, Arc::clone(&backstop)))
            .unwrap();
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.list(), vec!["default".to_string(), "tenant-a".into()]);
        assert!(reg.get(&TenantId::default_tenant()).is_some());
        assert!(reg.get(&TenantId::new("nope").unwrap()).is_none());

        // Duplicate name and over-capacity both bounce the engine back.
        let (_, e) = reg
            .admit(engine("tenant-a", 4, &cfg, Arc::clone(&backstop)))
            .unwrap_err();
        assert_eq!(e, AdmitError::Exists);
        let (_, e) = reg
            .admit(engine("tenant-b", 4, &cfg, Arc::clone(&backstop)))
            .unwrap_err();
        assert_eq!(e, AdmitError::Full);

        // Removal frees the slot.
        let dropped = reg.remove(&TenantId::new("tenant-a").unwrap()).unwrap();
        dropped.join_writer();
        assert_eq!(reg.len(), 1);
        reg.admit(engine("tenant-b", 4, &cfg, backstop)).unwrap();
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn backstop_bounds_the_sum_across_tenants() {
        // Writers that never wake on their own, so queues only drain at
        // shutdown and the bound is actually exercised.
        let cfg = ServeConfig::builder()
            .policy(BatchPolicy {
                max_edges: 1_000_000,
                max_delay: Duration::from_secs(600),
                apply_delay: None,
            })
            .max_queue_depth(10)
            .max_total_queue_depth(10)
            .build()
            .unwrap();
        let backstop = Arc::new(Backstop::new(cfg.max_total_queue_depth));
        let a = engine("backstop-a", 16, &cfg, Arc::clone(&backstop));
        let b = engine("backstop-b", 16, &cfg, Arc::clone(&backstop));

        // Each tenant is under its own quota of 10...
        assert!(matches!(
            a.handle(&Request::InsertEdges(vec![(0, 1); 6])),
            Response::Accepted { edges: 6 }
        ));
        // ...but the process-wide budget of 10 only has 4 left.
        assert!(matches!(
            b.handle(&Request::InsertEdges(vec![(0, 1); 6])),
            Response::Overloaded { .. }
        ));
        assert!(matches!(
            b.handle(&Request::InsertEdges(vec![(0, 1); 4])),
            Response::Accepted { edges: 4 }
        ));
        assert_eq!(b.stats_report(2).requests_shed, 1);
        assert_eq!(a.stats_report(2).requests_shed, 0);

        // Draining tenant A's queue returns its reservation.
        a.join_writer();
        assert!(a.flush(Duration::from_secs(5)));
        assert!(matches!(
            b.handle(&Request::InsertEdges(vec![(0, 1); 6])),
            Response::Accepted { edges: 6 }
        ));
        b.join_writer();
    }

    #[test]
    fn engine_answers_admin_requests_with_err_not_panic() {
        let cfg = quick_config();
        let e = engine("admin-check", 4, &cfg, Arc::new(Backstop::new(0)));
        for req in [Request::Metrics, Request::Shutdown, Request::ListTenants] {
            match e.handle(&req) {
                Response::Err(msg) => assert!(msg.contains("not a data request")),
                other => panic!("{req:?} answered {other:?}"),
            }
        }
    }
}
