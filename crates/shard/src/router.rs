//! The router: one protocol endpoint over N shards.
//!
//! The router is an [`Endpoint`] of the serve crate's TCP front-end
//! (`afforest_serve::frontend`), the same accept pool and frame loop a
//! standalone server runs, so existing clients and the load generator
//! work against it unchanged (wire v1 and v2). This module holds only
//! request evaluation. Reads are answered by composing per-shard
//! answers with the boundary graph (see [`crate::compose`]);
//! `InsertEdges` batches are split by the plan — internal edges go to
//! the owning shard's ingest queue in local ids, cut edges go to the
//! boundary store.
//!
//! Failure relay: a shard *answering* `Overloaded` or `Err` aborts the
//! batch and relays the answer to the client verbatim. A client that
//! retries the whole batch is safe — edge insertion is idempotent on a
//! union-find, and the boundary store dedups cut edges — so partial
//! delivery before the error cannot corrupt connectivity.
//!
//! A shard that does **not** answer ([`ShardUnavailable`]) enters the
//! failure domain (DESIGN.md §15): every backend call is gated by the
//! per-shard health machine ([`crate::health`]) so a Down shard fails
//! fast instead of burning the retry budget; reads touching it are
//! composed from the surviving shards plus the boundary forest and
//! tagged [`Response::Degraded`]; inserts destined for it are parked
//! ([`crate::park`]) and replayed in arrival order when the shard
//! recovers. Health transitions drive the `afforest_shard_health`
//! gauge and `shard_health_changed` flight events; parking drives
//! `afforest_parked_batches` and `park_replayed`.
//!
//! The composite view is cached and keyed on (boundary version, shard
//! epoch vector): any shard publishing a new epoch, or a new cut edge
//! being stored, invalidates it. A Down shard's epoch is pinned to
//! `u64::MAX`, so a degraded composite stays cached for as long as the
//! shard stays away. Answers are therefore eventually consistent with
//! the same lag a single engine's epoch snapshots already have.

use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use afforest_graph::Node;
use afforest_obs::reqtrace::{self, Stage, StageSpan};
use afforest_serve::events::{self, EventKind};
use afforest_serve::{Endpoint, Request, Response, StatsReport, TenantId};

use crate::backend::{ShardBackend, ShardUnavailable};
use crate::boundary::BoundaryStore;
use crate::compose::{self, Composite};
use crate::health::{Gate, HealthConfig, HealthTracker, Transition};
use crate::metrics::{router_metrics, RouterMetrics};
use crate::park::ParkSet;
use crate::plan::ShardPlan;

/// A protocol endpoint routing requests across shards.
pub struct Router<B: ShardBackend> {
    plan: ShardPlan,
    boundary: BoundaryStore,
    backend: B,
    health: HealthTracker,
    park: ParkSet,
    /// Per-shard replay serialization: `ParkSet::clear` drops a
    /// count-based prefix of the live queue, which is only correct
    /// while a single replayer clears — two concurrent replays could
    /// each deliver the same snapshot and together clear past a batch
    /// parked in between, dropping an acknowledged write.
    replaying: Vec<Mutex<()>>,
    cache: Mutex<Option<Arc<Composite>>>,
    metrics: RouterMetrics,
    shutdown: AtomicBool,
    read_deadline: Option<Duration>,
}

impl<B: ShardBackend> Router<B> {
    /// Builds a router over `backend`'s shards. Registers every router
    /// and per-shard metric series immediately so a `/metrics` scrape
    /// sees them before the first request. `read_deadline` bounds how
    /// long an idle connection is kept (None keeps it forever). Health
    /// thresholds default ([`HealthConfig::default`]) and parking is
    /// in-memory; see [`Router::with_health_config`] and
    /// [`Router::with_park`].
    pub fn new(
        plan: ShardPlan,
        boundary: BoundaryStore,
        backend: B,
        read_deadline: Option<Duration>,
    ) -> Router<B> {
        let metrics = router_metrics(plan.num_shards());
        metrics.boundary_edges.set(boundary.edge_count() as u64);
        let health = HealthTracker::new(plan.num_shards(), HealthConfig::default());
        let park = ParkSet::in_memory(plan.num_shards());
        let replaying = (0..plan.num_shards()).map(|_| Mutex::new(())).collect();
        Router {
            plan,
            boundary,
            backend,
            health,
            park,
            replaying,
            cache: Mutex::new(None),
            metrics,
            shutdown: AtomicBool::new(false),
            read_deadline,
        }
    }

    /// Replaces the health thresholds (resets every shard to Healthy;
    /// call before serving).
    pub fn with_health_config(mut self, cfg: HealthConfig) -> Router<B> {
        self.health = HealthTracker::new(self.plan.num_shards(), cfg);
        self
    }

    /// Replaces the park set (e.g. a durable [`ParkSet::with_root`]
    /// whose recovered backlogs should survive a router restart). The
    /// parked-batches gauges are seeded from the recovered depths.
    pub fn with_park(self, park: ParkSet) -> Router<B> {
        let r = Router { park, ..self };
        for k in 0..r.plan.num_shards() {
            if let Some(ms) = r.metrics.shards.get(k) {
                ms.parked.set(r.park.depth(k) as u64);
            }
        }
        r
    }

    /// Marks `shard` Down before serving starts (its worker was
    /// unreachable at boot). The breaker probes it on the first call
    /// instead of every request timing out against a dead address.
    pub fn mark_shard_down(&self, shard: usize) {
        let t = self.health.mark_down(shard);
        self.publish_transition(shard, t);
    }

    /// The sharding plan.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// The shard backend.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// The boundary edge store.
    pub fn boundary(&self) -> &BoundaryStore {
        &self.boundary
    }

    /// The per-shard health tracker.
    pub fn health(&self) -> &HealthTracker {
        &self.health
    }

    /// The parked-write queues.
    pub fn park(&self) -> &ParkSet {
        &self.park
    }

    /// Waits until every shard drained its ingest queue.
    pub fn flush(&self, timeout: Duration) -> bool {
        self.backend.flush(timeout)
    }

    /// Winds the shard workers down (joins in-process writers, sends
    /// `Shutdown` to remote ones).
    pub fn shutdown_backend(&self) {
        self.backend.shutdown();
    }

    /// Evaluates one request. Never panics; unanswerable requests
    /// become [`Response::Err`]. Tenant administration is refused —
    /// the shard set is fixed at startup.
    ///
    /// Every call counts in `afforest_router_requests_total` and
    /// `afforest_router_latency_ns`; a traced request's id is the
    /// latency sample's exemplar.
    pub fn handle(&self, req: &Request) -> Response {
        let start = Instant::now();
        let resp = self.handle_inner(req);
        self.metrics.requests.inc();
        self.metrics.latency.record_traced(
            start.elapsed().as_nanos() as u64,
            reqtrace::current().trace_id,
        );
        resp
    }

    fn handle_inner(&self, req: &Request) -> Response {
        match req {
            Request::Connected(u, v) => self.connected(*u, *v),
            Request::Component(u) => self.component(*u),
            Request::ComponentSize(u) => self.component_size(*u),
            Request::NumComponents => self.num_components(),
            Request::InsertEdges(edges) => self.insert(edges),
            Request::Stats => self.stats(),
            Request::Metrics => Response::Metrics(afforest_obs::registry::expose()),
            Request::ListTenants => Response::Tenants(
                (0..self.backend.num_shards())
                    .map(crate::cluster::shard_tenant_name)
                    .collect(),
            ),
            Request::Shutdown => {
                self.request_shutdown();
                Response::Bye
            }
            Request::DumpTraces => Response::Traces {
                node: reqtrace::node().to_string(),
                spans: reqtrace::ring().snapshot(),
            },
            Request::CreateTenant { .. } | Request::DropTenant { .. } => Response::Err(
                "tenant administration is not available through the shard router".to_string(),
            ),
        }
    }

    /// Publishes one health transition: gauge + flight event.
    fn publish_transition(&self, shard: usize, t: Option<Transition>) {
        let Some(t) = t else { return };
        if let Some(ms) = self.metrics.shards.get(shard) {
            ms.health.set(t.to.code());
        }
        events::record(
            EventKind::ShardHealthChanged,
            [shard as u64, t.from.code(), t.to.code()],
        );
    }

    /// One breaker-gated backend call. Feeds the health machine with
    /// the outcome (shedding is backpressure, not sickness), publishes
    /// any transition, and drains the shard's park backlog after a
    /// success. While the circuit is open this fails fast with a
    /// synthetic `Dead` outcome instead of dialing.
    fn shard_call(&self, shard: usize, req: &Request) -> Result<Response, ShardUnavailable> {
        // The fan-out span fathers everything the shard records for this
        // call: its context is installed as the thread's current one, so
        // a remote backend's Client forwards it over the wire and the
        // worker's spans parent under it.
        let fanout = StageSpan::begin_with(Stage::ShardFanout, shard as u64);
        let _fanout_scope = reqtrace::scoped(fanout.ctx());
        let (gate, t) = {
            let _gate = StageSpan::begin_with(Stage::BreakerGate, shard as u64);
            self.health.gate(shard)
        };
        self.publish_transition(shard, t);
        if gate == Gate::FailFast {
            return Err(ShardUnavailable::Dead {
                shard,
                reason: "circuit open".into(),
            });
        }
        match self.backend.call(shard, req) {
            Ok(resp) => {
                let t = self.health.record_success(shard);
                let recovered = t.is_some_and(|t| t.recovered());
                self.publish_transition(shard, t);
                if recovered || self.park.depth(shard) > 0 {
                    self.replay_parked(shard);
                }
                Ok(resp)
            }
            Err(shed @ ShardUnavailable::Shedding { .. }) => Err(shed),
            Err(dead) => {
                let t = self.health.record_failure(shard);
                self.publish_transition(shard, t);
                Err(dead)
            }
        }
    }

    /// Replays `shard`'s parked batches in arrival order, clearing the
    /// prefix that was delivered. Runs without holding any park lock
    /// across backend calls; a failure mid-replay leaves the suffix
    /// parked for the next recovery (re-replay is idempotent).
    ///
    /// At most one replay per shard runs at a time: the count-prefix
    /// `clear` below assumes this replayer is the queue's only
    /// consumer (parks append behind the snapshot, so the delivered
    /// prefix stays stable). A caller that loses the race skips —
    /// any leftover backlog drains on the next successful call.
    fn replay_parked(&self, shard: usize) {
        let Some(lock) = self.replaying.get(shard) else {
            return;
        };
        let _guard = match lock.try_lock() {
            Ok(g) => g,
            Err(std::sync::TryLockError::Poisoned(e)) => e.into_inner(),
            Err(std::sync::TryLockError::WouldBlock) => return,
        };
        let batches = self.park.snapshot(shard);
        let mut delivered = 0usize;
        let mut edges = 0u64;
        for batch in &batches {
            let len = batch.len() as u64;
            match self
                .backend
                .call(shard, &Request::InsertEdges(batch.clone()))
            {
                Ok(Response::Accepted { .. }) => {
                    delivered += 1;
                    edges += len;
                }
                Ok(_) => break,
                Err(ShardUnavailable::Shedding { .. }) => break,
                Err(_) => {
                    let t = self.health.record_failure(shard);
                    self.publish_transition(shard, t);
                    break;
                }
            }
        }
        if delivered > 0 {
            self.park.clear(shard, delivered);
            events::record(
                EventKind::ParkReplayed,
                [shard as u64, delivered as u64, edges],
            );
            if let Some(ms) = self.metrics.shards.get(shard) {
                ms.requests.add(delivered as u64);
                ms.edges_routed.add(edges);
            }
        }
        if let Some(ms) = self.metrics.shards.get(shard) {
            ms.parked.set(self.park.depth(shard) as u64);
        }
    }

    /// Parks one batch (already in `shard`-local ids) and refreshes the
    /// gauge.
    fn park_batch(&self, shard: usize, batch: &[(Node, Node)]) {
        let depth = self.park.park(shard, batch);
        if let Some(ms) = self.metrics.shards.get(shard) {
            ms.parked.set(depth as u64);
        }
    }

    /// Tags `resp` as [`Response::Degraded`] (counting it) when the
    /// answer was composed while part of the cluster was unavailable.
    fn degrade(&self, resp: Response, degraded: bool) -> Response {
        if degraded {
            self.metrics.degraded_reads.inc();
            Response::Degraded(Box::new(resp))
        } else {
            resp
        }
    }

    fn check_range(&self, v: Node) -> Option<Response> {
        if (v as usize) < self.plan.vertices() {
            None
        } else {
            Some(Response::Err(format!(
                "vertex {v} out of range for {} vertices",
                self.plan.vertices()
            )))
        }
    }

    /// Resolves global vertex `v` to its representative and whether the
    /// resolution is degraded: the owning shard's local component
    /// label, or — when the shard is unavailable — the *pseudo*
    /// representative `(shard, local id of v)` that a degraded
    /// composite keys cut endpoints by.
    fn local_component(&self, v: Node) -> Result<((usize, Node), bool), Response> {
        let s = self.plan.owner(v);
        if let Some(ms) = self.metrics.shards.get(s) {
            ms.requests.inc();
        }
        let local = self.plan.to_local(v);
        match self.shard_call(s, &Request::Component(local)) {
            Ok(Response::Component(label)) => Ok(((s, label), false)),
            Ok(Response::Err(e)) => Err(Response::Err(e)),
            Ok(other) => Err(Response::Err(format!(
                "shard {s} answered {other:?} to a component query"
            ))),
            Err(_) => Ok(((s, local), true)),
        }
    }

    fn connected(&self, u: Node, v: Node) -> Response {
        if let Some(e) = self.check_range(u).or_else(|| self.check_range(v)) {
            return e;
        }
        let (ru, du) = match self.local_component(u) {
            Ok(r) => r,
            Err(e) => return e,
        };
        let (rv, dv) = match self.local_component(v) {
            Ok(r) => r,
            Err(e) => return e,
        };
        if ru == rv && !du && !dv {
            // Same live local component: global truth, no composite
            // needed — reads within surviving shards stay undegraded.
            return Response::Connected(true);
        }
        let comp = match self.composite() {
            Ok(c) => c,
            Err(e) => return e,
        };
        let answer = if ru == rv {
            // Same pseudo-rep: u and v are the same down-shard vertex.
            true
        } else {
            match (comp.class_of(ru), comp.class_of(rv)) {
                (Some(a), Some(b)) => a == b,
                // A component no cut edge touches is connected to
                // nothing outside its shard (conservative `false` for
                // an unseen down-shard vertex — hence the tag).
                _ => false,
            }
        };
        self.degrade(Response::Connected(answer), du || dv || comp.degraded)
    }

    fn component(&self, u: Node) -> Response {
        if let Some(e) = self.check_range(u) {
            return e;
        }
        let (rep, du) = match self.local_component(u) {
            Ok(r) => r,
            Err(e) => return e,
        };
        let comp = match self.composite() {
            Ok(c) => c,
            Err(e) => return e,
        };
        let label = match comp.class_of(rep).and_then(|i| comp.class(i)) {
            Some(class) => class.label,
            // No class: the (possibly pseudo) rep's own global id.
            None => self.plan.to_global(rep.0, rep.1),
        };
        self.degrade(Response::Component(label), du || comp.degraded)
    }

    fn component_size(&self, u: Node) -> Response {
        if let Some(e) = self.check_range(u) {
            return e;
        }
        let (rep, du) = match self.local_component(u) {
            Ok(r) => r,
            Err(e) => return e,
        };
        let comp = match self.composite() {
            Ok(c) => c,
            Err(e) => return e,
        };
        if let Some(class) = comp.class_of(rep).and_then(|i| comp.class(i)) {
            return self.degrade(Response::ComponentSize(class.size), du || comp.degraded);
        }
        if du {
            // Down shard, no cut edge through u: all we can certify is
            // the vertex itself (the degraded lower bound).
            return self.degrade(Response::ComponentSize(1), true);
        }
        match self.shard_call(rep.0, &Request::ComponentSize(rep.1)) {
            Ok(Response::ComponentSize(sz)) => {
                self.degrade(Response::ComponentSize(sz), comp.degraded)
            }
            Ok(Response::Err(e)) => Response::Err(e),
            Ok(other) => Response::Err(format!(
                "shard {} answered {other:?} to a size query",
                rep.0
            )),
            Err(_) => self.degrade(Response::ComponentSize(1), true),
        }
    }

    fn num_components(&self) -> Response {
        match self.composite() {
            Ok(c) => self.degrade(Response::NumComponents(c.num_components), c.degraded),
            Err(e) => e,
        }
    }

    fn insert(&self, edges: &[(Node, Node)]) -> Response {
        let n = self.plan.vertices();
        if let Some(&(u, v)) = edges
            .iter()
            .find(|&&(u, v)| u as usize >= n || v as usize >= n)
        {
            return Response::Err(format!("edge ({u}, {v}) out of range for {n} vertices"));
        }
        let routed = self.plan.split_batch(edges);
        let mut parked_any = false;
        for (k, batch) in routed.per_shard.into_iter().enumerate() {
            if batch.is_empty() {
                continue;
            }
            let len = batch.len() as u64;
            if self.park.depth(k) > 0 {
                // A backlog exists: park behind it to preserve order,
                // then try to drain — the attempt doubles as the
                // breaker's probe, and a success replays everything
                // just parked included.
                self.park_batch(k, &batch);
                let _ = self.shard_call(k, &Request::Stats);
                if self.park.depth(k) > 0 {
                    parked_any = true;
                }
                continue;
            }
            match self.shard_call(k, &Request::InsertEdges(batch.clone())) {
                Ok(Response::Accepted { .. }) => {
                    if let Some(ms) = self.metrics.shards.get(k) {
                        ms.requests.inc();
                        ms.edges_routed.add(len);
                    }
                }
                Ok(Response::Overloaded { queue_depth }) => {
                    return Response::Overloaded { queue_depth };
                }
                Ok(Response::Err(e)) => return Response::Err(e),
                Ok(other) => {
                    return Response::Err(format!("shard {k} answered {other:?} to an insert"));
                }
                // The shard is alive but kept shedding through the
                // retry budget: honest backpressure, relayed in-band
                // with the depth its last Overloaded answer reported.
                Err(ShardUnavailable::Shedding { queue_depth, .. }) => {
                    return Response::Overloaded { queue_depth };
                }
                // Dead (or circuit open): park and keep going — live
                // shards' ingest must not stall behind a dead one.
                Err(ShardUnavailable::Dead { .. }) => {
                    self.park_batch(k, &batch);
                    parked_any = true;
                }
            }
        }
        if !routed.cut.is_empty() {
            self.metrics.cut_edges.add(routed.cut.len() as u64);
            self.boundary.observe_batch(&routed.cut);
            self.metrics
                .boundary_edges
                .set(self.boundary.edge_count() as u64);
        }
        // A parked batch is accepted — it will be delivered on
        // recovery — but the caller deserves to know part of it is
        // deferred, hence the tag.
        self.degrade(
            Response::Accepted {
                edges: edges.len() as u32,
            },
            parked_any,
        )
    }

    fn stats(&self) -> Response {
        let stats = self.sweep_stats();
        let missing = stats.iter().any(Option::is_none);
        let comp = match self.composite() {
            Ok(c) => c,
            Err(e) => return e,
        };
        let mut agg = StatsReport {
            epoch: 0,
            vertices: self.plan.vertices() as u64,
            num_components: comp.num_components,
            edges_ingested: 0,
            epochs_published: 0,
            queue_depth: 0,
            requests_shed: 0,
            wal_records: 0,
            faults_injected: 0,
            tenants: self.backend.num_shards() as u64,
        };
        for s in stats.iter().flatten() {
            agg.epoch = agg.epoch.max(s.epoch);
            agg.edges_ingested += s.edges_ingested;
            agg.epochs_published += s.epochs_published;
            agg.queue_depth += s.queue_depth;
            agg.requests_shed += s.requests_shed;
            agg.wal_records += s.wal_records;
            agg.faults_injected += s.faults_injected;
        }
        self.degrade(Response::Stats(agg), missing || comp.degraded)
    }

    /// Queries every shard's stats, refreshing the per-shard epoch and
    /// queue-depth gauges along the way. A shard that does not answer
    /// (dead, circuit open, shedding, or answering nonsense) yields
    /// `None` — the sweep never hard-fails, it degrades.
    fn sweep_stats(&self) -> Vec<Option<StatsReport>> {
        (0..self.backend.num_shards())
            .map(|k| match self.shard_call(k, &Request::Stats) {
                Ok(Response::Stats(s)) => {
                    if let Some(ms) = self.metrics.shards.get(k) {
                        ms.epoch.set(s.epoch);
                        ms.queue_depth.set(s.queue_depth);
                    }
                    Some(s)
                }
                _ => None,
            })
            .collect()
    }

    /// The composite view for the current (boundary version, epoch
    /// vector), rebuilt on cache miss. Down shards key as `u64::MAX`,
    /// so a degraded view stays cached while they are away.
    fn composite(&self) -> Result<Arc<Composite>, Response> {
        let (version, cut) = self.boundary.snapshot_edges();
        let stats = self.sweep_stats();
        let epochs: Vec<u64> = stats
            .iter()
            .map(|s| s.as_ref().map_or(u64::MAX, |s| s.epoch))
            .collect();
        if let Some(c) = self.cached() {
            if c.boundary_version == version && c.epochs == epochs {
                return Ok(c);
            }
        }
        let built = {
            let _compose = StageSpan::begin_with(Stage::BoundaryCompose, cut.len() as u64);
            compose::build(&self.plan, &self.backend, version, &cut, &stats)
                .map_err(Response::Err)?
        };
        self.metrics.composite_rebuilds.inc();
        let built = Arc::new(built);
        self.store_cache(Arc::clone(&built));
        Ok(built)
    }

    fn cached(&self) -> Option<Arc<Composite>> {
        let g = self.cache.lock().unwrap_or_else(|e| e.into_inner());
        g.clone()
    }

    fn store_cache(&self, c: Arc<Composite>) {
        let mut g = self.cache.lock().unwrap_or_else(|e| e.into_inner());
        *g = Some(c);
    }
}

impl<B: ShardBackend> Endpoint for Router<B> {
    const ROOT_STAGE: Stage = Stage::RouterRequest;
    const DECODE_STAGE: Option<Stage> = Some(Stage::RouterDecode);

    /// The router has exactly one logical tenant namespace: the v2
    /// tenant field is accepted and ignored, so multi-tenant clients
    /// can point at a router unchanged.
    fn handle_for(&self, _tenant: &TenantId, req: &Request) -> Response {
        self.handle(req)
    }

    fn shutdown_flag(&self) -> &AtomicBool {
        &self.shutdown
    }

    fn read_deadline(&self) -> Option<Duration> {
        self.read_deadline
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::LocalCluster;
    use crate::health::HealthState;
    use afforest_serve::ServeConfig;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::thread;

    fn router(n: usize, shards: usize) -> Router<LocalCluster> {
        let plan = ShardPlan::new(n, shards);
        let config = ServeConfig::builder().build().unwrap();
        let cluster = LocalCluster::new(&plan, &[], &config).unwrap();
        Router::new(plan, BoundaryStore::new(n), cluster, None)
    }

    fn flushed<B: ShardBackend>(r: &Router<B>) {
        assert!(r.flush(Duration::from_secs(10)));
    }

    /// A LocalCluster whose shards can be "killed" (typed Dead
    /// outcome) and revived, for deterministic failure-domain tests.
    struct Flaky {
        inner: LocalCluster,
        dead: Vec<AtomicBool>,
        calls: Vec<AtomicU64>,
    }

    impl Flaky {
        fn new(inner: LocalCluster) -> Flaky {
            let n = inner.num_shards();
            Flaky {
                inner,
                dead: (0..n).map(|_| AtomicBool::new(false)).collect(),
                calls: (0..n).map(|_| AtomicU64::new(0)).collect(),
            }
        }

        fn kill(&self, k: usize) {
            self.dead[k].store(true, Ordering::Relaxed);
        }

        fn revive(&self, k: usize) {
            self.dead[k].store(false, Ordering::Relaxed);
        }

        fn calls(&self, k: usize) -> u64 {
            self.calls[k].load(Ordering::Relaxed)
        }
    }

    impl ShardBackend for Flaky {
        fn num_shards(&self) -> usize {
            self.inner.num_shards()
        }

        fn call(&self, shard: usize, req: &Request) -> Result<Response, ShardUnavailable> {
            if let Some(c) = self.calls.get(shard) {
                c.fetch_add(1, Ordering::Relaxed);
            }
            if self
                .dead
                .get(shard)
                .is_some_and(|d| d.load(Ordering::Relaxed))
            {
                return Err(ShardUnavailable::Dead {
                    shard,
                    reason: "killed by test".into(),
                });
            }
            self.inner.call(shard, req)
        }

        fn flush(&self, timeout: Duration) -> bool {
            self.inner.flush(timeout)
        }

        fn shutdown(&self) {
            self.inner.shutdown();
        }
    }

    fn flaky_router(n: usize, shards: usize, cfg: HealthConfig) -> Router<Flaky> {
        let plan = ShardPlan::new(n, shards);
        let config = ServeConfig::builder().build().unwrap();
        let cluster = LocalCluster::new(&plan, &[], &config).unwrap();
        Router::new(plan, BoundaryStore::new(n), Flaky::new(cluster), None).with_health_config(cfg)
    }

    #[test]
    fn internal_edges_reach_their_shard() {
        let r = router(8, 2);
        assert_eq!(
            r.handle(&Request::InsertEdges(vec![(0, 1), (4, 5)])),
            Response::Accepted { edges: 2 }
        );
        flushed(&r);
        assert_eq!(
            r.handle(&Request::Connected(0, 1)),
            Response::Connected(true)
        );
        assert_eq!(
            r.handle(&Request::Connected(4, 5)),
            Response::Connected(true)
        );
        assert_eq!(
            r.handle(&Request::Connected(0, 4)),
            Response::Connected(false)
        );
        assert_eq!(
            r.handle(&Request::NumComponents),
            Response::NumComponents(6)
        );
        r.shutdown_backend();
    }

    #[test]
    fn cut_edges_connect_across_shards() {
        let r = router(8, 2);
        r.handle(&Request::InsertEdges(vec![(0, 1), (4, 5), (1, 4)]));
        flushed(&r);
        assert_eq!(
            r.handle(&Request::Connected(0, 5)),
            Response::Connected(true)
        );
        assert_eq!(
            r.handle(&Request::NumComponents),
            Response::NumComponents(5)
        );
        // Global label of the glued component is the global minimum, 0.
        assert_eq!(r.handle(&Request::Component(5)), Response::Component(0));
        assert_eq!(
            r.handle(&Request::ComponentSize(5)),
            Response::ComponentSize(4)
        );
        assert_eq!(r.boundary().edge_count(), 1);
        r.shutdown_backend();
    }

    #[test]
    fn redundant_cut_edges_do_not_grow_the_boundary() {
        let r = router(8, 4);
        // 0|1 cut, then a parallel path making (1, 2) redundant… but
        // only after (0,2),(0,1) are stored.
        r.handle(&Request::InsertEdges(vec![(0, 2), (0, 1)]));
        r.handle(&Request::InsertEdges(vec![(1, 2)]));
        flushed(&r);
        assert_eq!(r.boundary().edge_count(), 2);
        assert_eq!(
            r.handle(&Request::Connected(0, 2)),
            Response::Connected(true)
        );
        r.shutdown_backend();
    }

    #[test]
    fn out_of_range_answers_err() {
        let r = router(4, 2);
        for req in [
            Request::Connected(0, 9),
            Request::Component(4),
            Request::ComponentSize(u32::MAX),
            Request::InsertEdges(vec![(0, 4)]),
        ] {
            match r.handle(&req) {
                Response::Err(msg) => assert!(msg.contains("out of range"), "{msg}"),
                other => panic!("{req:?} answered {other:?}"),
            }
        }
        r.shutdown_backend();
    }

    #[test]
    fn stats_aggregates_all_shards() {
        let r = router(12, 3);
        r.handle(&Request::InsertEdges(vec![(0, 1), (4, 5), (8, 9), (3, 4)]));
        flushed(&r);
        match r.handle(&Request::Stats) {
            Response::Stats(s) => {
                assert_eq!(s.vertices, 12);
                assert_eq!(s.tenants, 3);
                // 3 internal edges; the cut edge lives in the boundary.
                assert_eq!(s.edges_ingested, 3);
                assert_eq!(s.num_components, 8);
                assert_eq!(s.queue_depth, 0);
            }
            other => panic!("expected stats, got {other:?}"),
        }
        r.shutdown_backend();
    }

    #[test]
    fn tenant_admin_is_refused_and_list_names_shards() {
        let r = router(4, 2);
        match r.handle(&Request::CreateTenant {
            name: afforest_serve::TenantId::new("x").unwrap(),
            vertices: 4,
        }) {
            Response::Err(msg) => assert!(msg.contains("not available"), "{msg}"),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            r.handle(&Request::ListTenants),
            Response::Tenants(vec!["shard-0".to_string(), "shard-1".to_string()])
        );
        r.shutdown_backend();
    }

    #[test]
    fn composite_cache_is_reused_until_invalidated() {
        let r = router(8, 2);
        r.handle(&Request::InsertEdges(vec![(1, 4)]));
        flushed(&r);
        let _ = r.handle(&Request::NumComponents);
        let rebuilds = r.metrics.composite_rebuilds.get();
        let _ = r.handle(&Request::NumComponents);
        let _ = r.handle(&Request::Connected(0, 7));
        assert_eq!(r.metrics.composite_rebuilds.get(), rebuilds);
        // A new cut edge bumps the boundary version: rebuild.
        r.handle(&Request::InsertEdges(vec![(0, 7)]));
        flushed(&r);
        let _ = r.handle(&Request::NumComponents);
        assert!(r.metrics.composite_rebuilds.get() > rebuilds);
        r.shutdown_backend();
    }

    #[test]
    fn breaker_opens_after_threshold_and_fails_fast() {
        let r = flaky_router(
            8,
            2,
            HealthConfig {
                suspect_after: 1,
                down_after: 2,
                probe_interval: Duration::from_secs(3600),
                ..HealthConfig::default()
            },
        );
        r.backend().kill(1);
        // Each straddling read degrades instead of erroring, and the
        // failures walk the machine Healthy → Suspect → Down.
        match r.handle(&Request::Connected(0, 5)) {
            Response::Degraded(inner) => assert_eq!(*inner, Response::Connected(false)),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(r.health().state(1), HealthState::Down);
        // Circuit open: further reads stop dialing the dead shard.
        let before = r.backend().calls(1);
        for _ in 0..5 {
            match r.handle(&Request::Connected(0, 5)) {
                Response::Degraded(_) => {}
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(r.backend().calls(1), before, "breaker must fail fast");
        assert!(r.metrics.degraded_reads.get() >= 6);
        r.shutdown_backend();
    }

    #[test]
    fn writes_park_while_down_and_replay_on_recovery() {
        let r = flaky_router(
            8,
            2,
            HealthConfig {
                suspect_after: 1,
                down_after: 1,
                probe_interval: Duration::ZERO,
                ..HealthConfig::default()
            },
        );
        r.handle(&Request::InsertEdges(vec![(0, 1)]));
        flushed(&r);
        r.backend().kill(1);
        // A mixed batch: the live half lands, the dead half parks, and
        // the answer is tagged so the caller knows part is deferred.
        match r.handle(&Request::InsertEdges(vec![(2, 3), (4, 5)])) {
            Response::Degraded(inner) => assert_eq!(*inner, Response::Accepted { edges: 2 }),
            other => panic!("unexpected {other:?}"),
        }
        match r.handle(&Request::InsertEdges(vec![(5, 6)])) {
            Response::Degraded(inner) => assert_eq!(*inner, Response::Accepted { edges: 1 }),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(r.park().depth(1), 2);
        flushed(&r);
        // Live shard kept ingesting while shard 1 was down.
        assert_eq!(
            r.handle(&Request::Connected(2, 3)),
            Response::Connected(true)
        );
        // Recovery: the next insert probes, replays both parked
        // batches in order, then delivers the new batch live.
        r.backend().revive(1);
        assert_eq!(
            r.handle(&Request::InsertEdges(vec![(6, 7)])),
            Response::Accepted { edges: 1 }
        );
        assert_eq!(r.park().depth(1), 0);
        assert_eq!(r.health().state(1), HealthState::Healthy);
        flushed(&r);
        assert_eq!(
            r.handle(&Request::Connected(4, 7)),
            Response::Connected(true)
        );
        // Oracle census: {0,1} {2,3} {4,5,6,7} → 3 components.
        assert_eq!(
            r.handle(&Request::NumComponents),
            Response::NumComponents(3)
        );
        r.shutdown_backend();
    }

    /// Regression: two threads finishing calls on a recovering shard
    /// could both run the park replay; each cleared a count-based
    /// prefix of the live queue, so a batch parked between the two
    /// clears — already acknowledged Degraded(Accepted) — was dropped.
    /// Replay is serialized per shard now; under kill/revive flapping
    /// with concurrent writers every acknowledged edge must survive.
    #[test]
    fn concurrent_replays_never_drop_an_acknowledged_write() {
        let r = flaky_router(
            64,
            2,
            HealthConfig {
                suspect_after: 1,
                down_after: 1,
                probe_interval: Duration::ZERO,
                ..HealthConfig::default()
            },
        );
        let r = &r;
        let stop = &AtomicBool::new(false);
        thread::scope(|s| {
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    r.backend().kill(1);
                    thread::sleep(Duration::from_micros(50));
                    r.backend().revive(1);
                    thread::sleep(Duration::from_micros(50));
                }
            });
            // Four writers, each building one chain inside shard 1
            // (global ids 32..64), while the shard flaps.
            let workers: Vec<_> = (0..4u32)
                .map(|t| {
                    s.spawn(move || {
                        let base = 32 + 8 * t;
                        for i in 0..7u32 {
                            let edge = (base + i, base + i + 1);
                            loop {
                                match r.handle(&Request::InsertEdges(vec![edge])) {
                                    Response::Accepted { .. } => break,
                                    Response::Degraded(inner) => {
                                        assert!(matches!(*inner, Response::Accepted { .. }));
                                        break;
                                    }
                                    Response::Overloaded { .. } => {
                                        thread::sleep(Duration::from_millis(1));
                                    }
                                    other => panic!("insert answered {other:?}"),
                                }
                            }
                        }
                    })
                })
                .collect();
            for w in workers {
                w.join().unwrap();
            }
            stop.store(true, Ordering::Relaxed);
        });
        r.backend().revive(1);
        // Drain whatever backlog the final kill left parked.
        for _ in 0..1000 {
            if r.park().depth(1) == 0 {
                break;
            }
            let _ = r.handle(&Request::Stats);
        }
        assert_eq!(r.park().depth(1), 0, "backlog never drained");
        flushed(r);
        // Every acknowledged edge must have landed: each chain is
        // connected end to end.
        for t in 0..4u32 {
            let base = 32 + 8 * t;
            assert_eq!(
                r.handle(&Request::Connected(base, base + 7)),
                Response::Connected(true),
                "chain {t} lost an acknowledged edge"
            );
        }
        r.shutdown_backend();
    }

    #[test]
    fn degraded_reads_compose_surviving_shards_with_the_boundary() {
        let r = flaky_router(
            8,
            2,
            HealthConfig {
                suspect_after: 1,
                down_after: 1,
                probe_interval: Duration::from_secs(3600),
                ..HealthConfig::default()
            },
        );
        r.handle(&Request::InsertEdges(vec![(0, 1), (4, 5), (1, 4)]));
        flushed(&r);
        r.backend().kill(1);
        // Live-shard reads stay exact and untagged.
        assert_eq!(
            r.handle(&Request::Connected(0, 1)),
            Response::Connected(true)
        );
        // A straddling read through the stored cut edge (1,4) still
        // proves connectivity: 4 survives as a pseudo-rep.
        match r.handle(&Request::Connected(0, 4)) {
            Response::Degraded(inner) => assert_eq!(*inner, Response::Connected(true)),
            other => panic!("unexpected {other:?}"),
        }
        // 5's membership lived only in shard 1's forest: conservative
        // false, and the tag says so.
        match r.handle(&Request::Connected(0, 5)) {
            Response::Degraded(inner) => assert_eq!(*inner, Response::Connected(false)),
            other => panic!("unexpected {other:?}"),
        }
        // Live census: shard 0 has {0,1},{2},{3}; the cut edge merges
        // nothing live-to-live, so 3.
        match r.handle(&Request::NumComponents) {
            Response::Degraded(inner) => assert_eq!(*inner, Response::NumComponents(3)),
            other => panic!("unexpected {other:?}"),
        }
        r.shutdown_backend();
    }

    #[test]
    fn mark_shard_down_probes_on_first_call() {
        let r = flaky_router(
            8,
            2,
            HealthConfig {
                suspect_after: 1,
                down_after: 1,
                probe_interval: Duration::from_secs(3600),
                ..HealthConfig::default()
            },
        );
        // Boot-time seeding (the CLI does this for unreachable
        // addresses): Down immediately, probe timer pre-expired.
        r.mark_shard_down(1);
        assert_eq!(r.health().state(1), HealthState::Down);
        // The worker is actually fine: the first call probes and
        // recovers it without waiting out the interval.
        assert_eq!(
            r.handle(&Request::InsertEdges(vec![(4, 5)])),
            Response::Accepted { edges: 1 }
        );
        assert_eq!(r.health().state(1), HealthState::Healthy);
        r.shutdown_backend();
    }
}
