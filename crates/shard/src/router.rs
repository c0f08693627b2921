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
//! Reads cost one `Resolve` call per shard: each live shard answers the
//! read's ids on it, possibly none, with the labels, sizes, epoch and
//! component count of one snapshot. The composite is cached together
//! with one view per shard (epoch, component count, cut endpoint →
//! label and size); a shard whose answered epoch differs from its view,
//! or that new cut edges touch, is asked once more for the read's ids
//! plus all its cut endpoints, and the composite is rebuilt over the
//! new views and the cached views of the unmoved shards. A Down shard's
//! view has epoch `u64::MAX`, so a degraded composite stays cached for
//! as long as the shard stays away. Every answer is exact over one
//! snapshot per shard and one boundary version; answers are eventually
//! consistent with the same lag a single engine's epoch snapshots
//! already have (DESIGN.md §15).

use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use afforest_graph::Node;
use afforest_obs::reqtrace::{self, Stage, StageSpan};
use afforest_serve::events::{self, EventKind};
use afforest_serve::{Endpoint, Request, Response, StatsReport, TenantId};

use crate::backend::{ShardBackend, ShardUnavailable};
use crate::boundary::BoundaryStore;
use crate::compose::{self, Composite, CompositeClass, ShardView};
use crate::health::{Gate, HealthConfig, HealthTracker, Transition};
use crate::metrics::{router_metrics, RouterMetrics};
use crate::park::ParkSet;
use crate::plan::ShardPlan;

/// One shard's `Resolved` answer.
struct Answer {
    epoch: u64,
    num_components: u64,
    entries: Vec<(Node, u64)>,
}

/// One shard's part of a read: its view in the composite and the
/// read's entries on it (`None` while it is down), from one snapshot.
struct Part {
    view: Arc<ShardView>,
    entries: Option<Vec<(Node, u64)>>,
}

impl Part {
    /// A down shard's part, keeping `old` when it was already down so
    /// the composite over it stays cached.
    fn down(old: Option<&Arc<ShardView>>) -> Part {
        let view = match old {
            Some(v) if v.is_down() => Arc::clone(v),
            _ => Arc::new(ShardView::down()),
        };
        Part {
            view,
            entries: None,
        }
    }

    /// The part for a first-call `answer`, or `None` when the shard's
    /// view must be read again: it is `stale`, or the answer comes from
    /// another snapshot than `old` (its epoch, or its component count
    /// after a restart that reused an epoch number, differs).
    fn unmoved(answer: Option<Answer>, old: Option<&Arc<ShardView>>, stale: bool) -> Option<Part> {
        let Some(a) = answer else {
            return Some(Part::down(old));
        };
        match old {
            Some(v) if !stale && v.epoch == a.epoch && v.num_components == a.num_components => {
                Some(Part {
                    view: Arc::clone(v),
                    entries: Some(a.entries),
                })
            }
            _ => None,
        }
    }
}

/// A read id's representative `(shard, local label)` — the pseudo-rep
/// `(shard, local id)` when its shard is down — and its local
/// component's size (1 when down).
type Rep = ((usize, Node), u64);

/// A read's ids resolved against one composite.
struct Read {
    comp: Arc<Composite>,
    /// One per read id, in order.
    reps: Vec<Rep>,
}

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
            Request::Resolve(_) => Response::Err(
                "resolve is a shard worker op, not available through the shard router".to_string(),
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
        if let Some(ms) = self.metrics.shards.get(shard) {
            ms.requests.inc();
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
            if let Some(ms) = self.metrics.shards.get(shard) {
                ms.requests.inc();
            }
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

    /// One `Resolve` of `ids` (local to `shard`), breaker-gated through
    /// [`Router::shard_call`]. `Ok(None)` means the shard did not answer
    /// and is down for this read; an in-band error or a malformed answer
    /// is relayed as `Err`. A good answer refreshes the shard's epoch
    /// gauge.
    fn resolve(&self, shard: usize, ids: Vec<Node>) -> Result<Option<Answer>, Response> {
        let asked = ids.len();
        match self.shard_call(shard, &Request::Resolve(ids)) {
            Ok(Response::Resolved {
                epoch,
                num_components,
                entries,
            }) if entries.len() == asked => {
                if let Some(ms) = self.metrics.shards.get(shard) {
                    ms.epoch.set(epoch);
                }
                Ok(Some(Answer {
                    epoch,
                    num_components,
                    entries,
                }))
            }
            Ok(Response::Err(e)) => Err(Response::Err(e)),
            Ok(other) => Err(Response::Err(format!(
                "shard {shard} answered {other:?} to a resolve of {asked} id(s)"
            ))),
            Err(_) => Ok(None),
        }
    }

    /// Asks `shard` for the read's ids on it plus all its cut
    /// endpoints, so the read's entries and the shard's new view come
    /// from one snapshot.
    fn reread(
        &self,
        shard: usize,
        asked: &[Node],
        endpoints: &[Node],
        old: Option<&Arc<ShardView>>,
    ) -> Result<Part, Response> {
        let ids = asked.iter().chain(endpoints).copied().collect();
        Ok(match self.resolve(shard, ids)? {
            Some(mut a) => {
                let resolved = a.entries.split_off(asked.len());
                let view = ShardView {
                    epoch: a.epoch,
                    num_components: a.num_components,
                    endpoints: endpoints.iter().copied().zip(resolved).collect(),
                };
                Part {
                    view: Arc::new(view),
                    entries: Some(a.entries),
                }
            }
            None => Part::down(old),
        })
    }

    /// Resolves the global `ids` of one read against a composite that
    /// holds one snapshot per shard (DESIGN.md §15).
    ///
    /// Every live shard gets one `Resolve` carrying the read's ids on
    /// it, possibly none, so the read observes every shard's current
    /// epoch. A shard whose answer shows another epoch than its cached
    /// view is asked once more, for the same ids plus all its cut
    /// endpoints; a shard whose view is known stale beforehand (new cut
    /// edges touch it, it was down, or nothing is cached) gets that
    /// fuller call first. Views of unmoved shards are reused, and the
    /// composite is rebuilt over the new views only when some view or
    /// the cut changed. A shard whose call fails is down for this read.
    ///
    /// `first` is an answer already in hand for one shard's ids (the
    /// same-shard `Connected` probe); it stands in for that shard's
    /// first call.
    fn read(
        &self,
        ids: &[Node],
        mut first: Option<(usize, Option<Answer>)>,
    ) -> Result<Read, Response> {
        let plan = &self.plan;
        let k = plan.num_shards();
        let mut asked: Vec<Vec<Node>> = vec![Vec::new(); k];
        for &v in ids {
            if let Some(list) = asked.get_mut(plan.owner(v)) {
                list.push(plan.to_local(v));
            }
        }
        let prev = self.cached();
        let since = prev.as_ref().map_or(0, |c| c.boundary_version);
        let (version, fresh) = self.boundary.edges_since(since);
        let mut touched = vec![false; k];
        for &(u, v) in &fresh {
            for w in [u, v] {
                if let Some(t) = touched.get_mut(plan.owner(w)) {
                    *t = true;
                }
            }
        }
        // The cut and its per-shard endpoints when they grew; an
        // untouched shard's endpoints are the previous composite's.
        let grown = (prev.is_none() || !fresh.is_empty()).then(|| {
            let mut cut = prev.as_ref().map_or_else(Vec::new, |c| c.cut().to_vec());
            cut.extend(fresh);
            let endpoints = compose::endpoints(plan, &cut);
            (cut, endpoints)
        });
        let endpoints_of = |s: usize| -> &[Node] {
            match (&grown, &prev) {
                (Some((_, ends)), _) => ends.get(s).map_or(&[], Vec::as_slice),
                (None, Some(c)) => c.endpoints(s),
                (None, None) => &[],
            }
        };
        let old_view = |s: usize| prev.as_ref().and_then(|c| c.view(s));
        let no_ids: &[Node] = &[];
        let asked_on = |s: usize| asked.get(s).map_or(no_ids, Vec::as_slice);

        // One call per shard; `None` marks a shard whose epoch moved.
        let mut parts: Vec<Option<Part>> = Vec::with_capacity(k);
        for s in 0..k {
            let old = old_view(s);
            let stale = touched.get(s).copied().unwrap_or(false) || old.is_none_or(|v| v.is_down());
            let part = match first.take_if(|(f, _)| *f == s) {
                Some((_, answer)) => Part::unmoved(answer, old, stale),
                None if stale => Some(self.reread(s, asked_on(s), endpoints_of(s), old)?),
                None => Part::unmoved(self.resolve(s, asked_on(s).to_vec())?, old, stale),
            };
            parts.push(part);
        }
        let unchanged = grown.is_none()
            && parts
                .iter()
                .enumerate()
                .all(|(s, p)| match (p, old_view(s)) {
                    (Some(p), Some(old)) => Arc::ptr_eq(&p.view, old),
                    _ => false,
                });

        let (comp, parts) = match prev {
            Some(c) if unchanged => (c, parts.into_iter().flatten().collect()),
            prev => {
                let (cut, endpoints) = grown.unwrap_or_else(|| {
                    prev.as_ref().map_or_else(Default::default, |c| {
                        (
                            c.cut().to_vec(),
                            (0..k).map(|s| c.endpoints(s).to_vec()).collect(),
                        )
                    })
                });
                let _compose = StageSpan::begin_with(Stage::BoundaryCompose, cut.len() as u64);
                let mut done = Vec::with_capacity(k);
                for (s, part) in parts.into_iter().enumerate() {
                    done.push(match part {
                        Some(p) => p,
                        None => {
                            let old = prev.as_ref().and_then(|c| c.view(s));
                            let ends = endpoints.get(s).map_or(no_ids, Vec::as_slice);
                            self.reread(s, asked_on(s), ends, old)?
                        }
                    });
                }
                let views = done.iter().map(|p| Arc::clone(&p.view)).collect();
                let built = Arc::new(compose::build(plan, version, cut, endpoints, views));
                self.metrics.composite_rebuilds.inc();
                self.store_cache(Arc::clone(&built));
                (built, done)
            }
        };

        // Each id's rep, in read order: the next entry its shard
        // answered, or its pseudo-rep when the shard is down.
        let mut entries: Vec<Option<std::vec::IntoIter<(Node, u64)>>> = parts
            .into_iter()
            .map(|p| p.entries.map(Vec::into_iter))
            .collect();
        let reps = ids
            .iter()
            .map(|&v| {
                let s = plan.owner(v);
                match entries
                    .get_mut(s)
                    .and_then(Option::as_mut)
                    .and_then(Iterator::next)
                {
                    Some((label, size)) => ((s, label), size),
                    None => ((s, plan.to_local(v)), 1),
                }
            })
            .collect();
        Ok(Read { comp, reps })
    }

    /// The class of `rep` in `comp`, if its component touches a cut edge.
    fn class(comp: &Composite, rep: (usize, Node)) -> Option<&CompositeClass> {
        comp.class_of(rep).and_then(|i| comp.class(i))
    }

    fn connected(&self, u: Node, v: Node) -> Response {
        if let Some(e) = self.check_range(u).or_else(|| self.check_range(v)) {
            return e;
        }
        let s = self.plan.owner(u);
        let mut first = None;
        if self.plan.owner(v) == s {
            // One call decides a pair in one live local component: that
            // is global truth, with no composite and untagged.
            let local = vec![self.plan.to_local(u), self.plan.to_local(v)];
            let answer = match self.resolve(s, local) {
                Ok(a) => a,
                Err(e) => return e,
            };
            if let Some([(lu, _), (lv, _)]) = answer.as_ref().map(|a| a.entries.as_slice()) {
                if lu == lv {
                    return Response::Connected(true);
                }
            }
            first = Some((s, answer));
        }
        let Read { comp, reps } = match self.read(&[u, v], first) {
            Ok(r) => r,
            Err(e) => return e,
        };
        let (ru, rv) = match reps.as_slice() {
            [(ru, _), (rv, _)] => (*ru, *rv),
            _ => return Response::Err("a connectivity read resolved other than two ids".into()),
        };
        // Same pseudo-rep: u and v are the same down-shard vertex. A
        // component no cut edge touches is connected to nothing outside
        // its shard (conservative `false` for an unseen down-shard
        // vertex — hence the tag).
        let answer = ru == rv
            || matches!(
                (comp.class_of(ru), comp.class_of(rv)),
                (Some(a), Some(b)) if a == b
            );
        self.degrade(Response::Connected(answer), comp.degraded)
    }

    /// The one read id's rep and local size, with the composite.
    fn read_one(&self, u: Node) -> Result<(Arc<Composite>, Rep), Response> {
        if let Some(e) = self.check_range(u) {
            return Err(e);
        }
        let Read { comp, reps } = self.read(&[u], None)?;
        match reps.as_slice() {
            [rep] => Ok((comp, *rep)),
            _ => Err(Response::Err(
                "a vertex read resolved other than one id".into(),
            )),
        }
    }

    fn component(&self, u: Node) -> Response {
        match self.read_one(u) {
            Ok((comp, (rep, _))) => {
                let label = match Self::class(&comp, rep) {
                    Some(class) => class.label,
                    // No class: the (possibly pseudo) rep's own global id.
                    None => self.plan.to_global(rep.0, rep.1),
                };
                self.degrade(Response::Component(label), comp.degraded)
            }
            Err(e) => e,
        }
    }

    fn component_size(&self, u: Node) -> Response {
        match self.read_one(u) {
            // No class: the shard's own answer, or 1 for a down shard's
            // vertex (all a degraded read can certify).
            Ok((comp, (rep, size))) => {
                let size = Self::class(&comp, rep).map_or(size, |class| class.size);
                self.degrade(Response::ComponentSize(size), comp.degraded)
            }
            Err(e) => e,
        }
    }

    fn num_components(&self) -> Response {
        match self.read(&[], None) {
            Ok(Read { comp, .. }) => {
                self.degrade(Response::NumComponents(comp.num_components), comp.degraded)
            }
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
        let routed = self.plan.split_batch(edges.iter().copied());
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
        let comp = match self.read(&[], None) {
            Ok(r) => r.comp,
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

    /// Queries every shard's stats for the router's `Stats` answer,
    /// refreshing the per-shard epoch and queue-depth gauges along the
    /// way (reads refresh only the epoch). A shard that does not answer
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
    /// outcome) and revived, for deterministic failure-domain tests. It
    /// logs every call it receives.
    struct Flaky {
        inner: LocalCluster,
        dead: Vec<AtomicBool>,
        calls: Vec<AtomicU64>,
        log: Mutex<Vec<(usize, Request)>>,
    }

    impl Flaky {
        fn new(inner: LocalCluster) -> Flaky {
            let n = inner.num_shards();
            Flaky {
                inner,
                dead: (0..n).map(|_| AtomicBool::new(false)).collect(),
                calls: (0..n).map(|_| AtomicU64::new(0)).collect(),
                log: Mutex::new(Vec::new()),
            }
        }

        /// The calls received since the last take, in order.
        fn take_log(&self) -> Vec<(usize, Request)> {
            std::mem::take(&mut *self.log.lock().unwrap())
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
            self.log.lock().unwrap().push((shard, req.clone()));
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

    /// A LocalCluster that, once armed with `k`, applies the edge (0, 1)
    /// to shard 0 and waits for it to be published just before it
    /// forwards its `k`-th next call: a shard publishing in the middle
    /// of a read.
    struct Racing {
        inner: LocalCluster,
        armed: Mutex<Option<usize>>,
        fired: AtomicBool,
    }

    impl ShardBackend for Racing {
        fn num_shards(&self) -> usize {
            self.inner.num_shards()
        }

        fn call(&self, shard: usize, req: &Request) -> Result<Response, ShardUnavailable> {
            let fire = {
                let mut armed = self.armed.lock().unwrap();
                match *armed {
                    Some(0) => {
                        *armed = None;
                        true
                    }
                    Some(k) => {
                        *armed = Some(k - 1);
                        false
                    }
                    None => false,
                }
            };
            if fire {
                let _ = self.inner.call(0, &Request::InsertEdges(vec![(0, 1)]));
                assert!(self.inner.flush(Duration::from_secs(10)));
                self.fired.store(true, Ordering::Relaxed);
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

    /// Regression: a read took its local labels first and swept the
    /// shards' epochs afterwards, so a publish in between looked a label
    /// of epoch e up in a composite keyed on epoch e + 1 and answered
    /// `Connected(false)` for vertices connected in both epochs. Now the
    /// publish may land before any call of the read, with or without a
    /// cached composite, and the answer stays right.
    #[test]
    fn a_read_racing_a_shard_publish_answers_from_one_snapshot() {
        for warm in [false, true] {
            for k in 0.. {
                assert!(k < 64, "the read never ran out of calls");
                let plan = ShardPlan::new(8, 2);
                let config = ServeConfig::builder().build().unwrap();
                let cluster = LocalCluster::new(&plan, &[], &config).unwrap();
                let racing = Racing {
                    inner: cluster,
                    armed: Mutex::new(None),
                    fired: AtomicBool::new(false),
                };
                let r = Router::new(plan, BoundaryStore::new(8), racing, None);
                r.handle(&Request::InsertEdges(vec![(1, 4)]));
                flushed(&r);
                if warm {
                    assert_eq!(
                        r.handle(&Request::Connected(1, 4)),
                        Response::Connected(true)
                    );
                }
                *r.backend().armed.lock().unwrap() = Some(k);
                assert_eq!(
                    r.handle(&Request::Connected(1, 4)),
                    Response::Connected(true),
                    "publish before call {k} of the read (cache warm: {warm})"
                );
                let fired = r.backend().fired.load(Ordering::Relaxed);
                r.shutdown_backend();
                if !fired {
                    break; // k is past the read's last call
                }
            }
        }
    }

    /// Worker traffic of a read: a cache hit sends each shard one
    /// `Resolve` carrying only the read's ids on it; the first read
    /// after a shard-0 write sends one more, to shard 0, and shard 1
    /// never sees its cut endpoints again; a pair in one local component
    /// costs one call. No read sends `Stats`, `Component` or
    /// `ComponentSize`.
    #[test]
    fn reads_cost_one_resolve_per_shard() {
        let r = flaky_router(8, 2, HealthConfig::default());
        r.handle(&Request::InsertEdges(vec![(0, 1), (1, 4), (4, 5)]));
        flushed(&r);
        assert_eq!(
            r.handle(&Request::Connected(0, 5)),
            Response::Connected(true)
        );
        r.backend().take_log();

        assert_eq!(
            r.handle(&Request::Connected(0, 5)),
            Response::Connected(true)
        );
        assert_eq!(
            r.backend().take_log(),
            vec![
                (0, Request::Resolve(vec![0])),
                (1, Request::Resolve(vec![1]))
            ]
        );
        assert_eq!(
            r.handle(&Request::NumComponents),
            Response::NumComponents(5)
        );
        assert_eq!(
            r.backend().take_log(),
            vec![(0, Request::Resolve(vec![])), (1, Request::Resolve(vec![]))]
        );

        // Shard 0 publishes: its first answer shows the new epoch, so it
        // is asked again for the read's id plus its cut endpoint
        // (local 1); shard 1's view is reused.
        r.handle(&Request::InsertEdges(vec![(2, 3)]));
        flushed(&r);
        r.backend().take_log();
        assert_eq!(
            r.handle(&Request::Connected(2, 5)),
            Response::Connected(false)
        );
        assert_eq!(
            r.backend().take_log(),
            vec![
                (0, Request::Resolve(vec![2])),
                (1, Request::Resolve(vec![1])),
                (0, Request::Resolve(vec![2, 1])),
            ]
        );

        // One shard, one local component: one call, no composite.
        assert_eq!(
            r.handle(&Request::Connected(0, 1)),
            Response::Connected(true)
        );
        assert_eq!(
            r.backend().take_log(),
            vec![(0, Request::Resolve(vec![0, 1]))]
        );
        r.shutdown_backend();
    }

    /// A client's `Resolve` names shard-local ids, which mean nothing at
    /// the router: refused, like tenant administration.
    #[test]
    fn resolve_is_refused_at_the_router() {
        let r = router(8, 2);
        match r.handle(&Request::Resolve(vec![0])) {
            Response::Err(msg) => assert!(msg.contains("not available"), "{msg}"),
            other => panic!("unexpected {other:?}"),
        }
        r.shutdown_backend();
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
        // This router's own cache, not the process-wide rebuild counter
        // that other tests in this binary bump concurrently.
        let built = r.cached().expect("a read caches its composite");
        let _ = r.handle(&Request::NumComponents);
        let _ = r.handle(&Request::Connected(0, 7));
        assert!(Arc::ptr_eq(&r.cached().unwrap(), &built));
        // A new cut edge bumps the boundary version: rebuild.
        r.handle(&Request::InsertEdges(vec![(0, 7)]));
        flushed(&r);
        let _ = r.handle(&Request::NumComponents);
        assert!(!Arc::ptr_eq(&r.cached().unwrap(), &built));
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
        // Each straddling read degrades instead of erroring and sends the
        // dead shard one call, so two reads walk the machine Healthy →
        // Suspect → Down.
        for _ in 0..2 {
            match r.handle(&Request::Connected(0, 5)) {
                Response::Degraded(inner) => assert_eq!(*inner, Response::Connected(false)),
                other => panic!("unexpected {other:?}"),
            }
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
