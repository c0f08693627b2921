//! Typed TCP client for the serving protocol.
//!
//! Before this module, every consumer of the wire protocol — the load
//! generator, the xtask smokes, the integration tests — hand-rolled its
//! own frame encode/decode against raw `TcpStream`s. [`Client`] is the
//! one typed implementation: it owns the connection, speaks either wire
//! version (v1 when scoped to the `default` tenant the legacy way, v2
//! when a tenant is set), carries the retry policy the load generator
//! introduced in PR 4 (capped exponential backoff with jitter, transport
//! reopen after a timeout or a disconnect), and exposes one typed method
//! per request so callers never pattern-match payload bytes again.
//!
//! ```no_run
//! use afforest_serve::{Client, TenantId};
//!
//! let mut client = Client::connect("127.0.0.1:7878")?
//!     .with_tenant(TenantId::new("acme")?);
//! client.insert_edges(&[(0, 1), (1, 2)])?;
//! assert!(client.connected(0, 2)? || client.stats()?.queue_depth > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::protocol::{self, Request, Response, StatsReport, WireError};
use crate::tenant::TenantId;
use afforest_graph::Node;
use afforest_obs::reqtrace::{self, Span, TraceCtx};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Ceiling on a single retry backoff sleep.
pub const MAX_BACKOFF: Duration = Duration::from_millis(100);

/// How a [`Client`] retries shed, timed-out, and disconnected calls.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Re-attempt a failed call at most this many times (0 = never).
    pub max_retries: u32,
    /// First backoff delay; doubles per retry (jittered ±50%, capped at
    /// [`MAX_BACKOFF`]).
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 3,
            backoff: Duration::from_micros(500),
        }
    }
}

/// Why a typed client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed (I/O error or malformed frame) beyond what
    /// the retry policy absorbs.
    Wire(WireError),
    /// The server answered `Response::Err` (e.g. out-of-range vertex,
    /// unknown tenant, refused tenant op).
    Server(String),
    /// Every attempt was shed or lost; the request was abandoned per the
    /// retry policy.
    Exhausted,
    /// The server answered with a response type the request cannot
    /// produce — a protocol bug, not a user error.
    Unexpected(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Wire(e) => write!(f, "{e}"),
            ClientError::Server(msg) => write!(f, "server error: {msg}"),
            ClientError::Exhausted => write!(f, "request abandoned after exhausting retries"),
            ClientError::Unexpected(msg) => write!(f, "unexpected response: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

/// A call outcome that means "the connection is gone", not "the protocol
/// broke": a frame cut short mid-bytes (the server died or tore the
/// response) or a socket-level disconnect. Distinct from a *malformed*
/// frame — an unknown opcode or bad payload on an intact connection is a
/// real protocol error and still propagates.
pub fn is_disconnect(e: &WireError) -> bool {
    use std::io::ErrorKind;
    match e {
        WireError::Frame(crate::protocol::FrameError::Truncated { .. }) => true,
        WireError::Frame(_) => false,
        WireError::Io(io) => matches!(
            io.kind(),
            ErrorKind::UnexpectedEof
                | ErrorKind::ConnectionReset
                | ErrorKind::ConnectionAborted
                | ErrorKind::BrokenPipe
                | ErrorKind::NotConnected
                | ErrorKind::WriteZero
        ),
    }
}

/// A call outcome after which the stream may still deliver the answer
/// late: the read timed out, possibly partway through the response
/// frame. The next exchange on that stream would read this answer (or
/// the rest of it) as its own, so the stream must be dropped and
/// redialed, as after a disconnect.
pub(crate) fn is_timeout(e: &WireError) -> bool {
    matches!(
        e,
        WireError::Io(io) if matches!(
            io.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        )
    )
}

/// `base · 2^(attempt-1)`, jittered uniformly over ±50% and capped at
/// [`MAX_BACKOFF`]. Jitter decorrelates the retry storms of concurrent
/// clients that were all shed by the same full queue.
pub(crate) fn backoff(base: Duration, attempt: u32, rng: &mut SmallRng) -> Duration {
    let doubled = base.saturating_mul(1u32 << attempt.saturating_sub(1).min(16));
    let jitter = rng.random_range(0.5..1.5);
    Duration::from_nanos((doubled.as_nanos() as f64 * jitter) as u64).min(MAX_BACKOFF)
}

/// A connected protocol client (see module docs).
pub struct Client {
    stream: TcpStream,
    peer: SocketAddr,
    tenant: Option<TenantId>,
    retry: RetryPolicy,
    read_timeout: Option<Duration>,
    rng: SmallRng,
    last_degraded: bool,
    degraded_answers: u64,
    last_shed_depth: u64,
    tracing: bool,
    last_trace_id: u64,
}

impl Client {
    /// Connects to a server. The client starts tenant-less, speaking
    /// wire protocol v1 — the server routes such frames to the
    /// `default` tenant — and with the default [`RetryPolicy`].
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, WireError> {
        let stream = TcpStream::connect(addr).map_err(WireError::Io)?;
        let peer = stream.peer_addr().map_err(WireError::Io)?;
        let _ = stream.set_nodelay(true);
        Ok(Self {
            stream,
            peer,
            tenant: None,
            retry: RetryPolicy::default(),
            read_timeout: None,
            rng: SmallRng::seed_from_u64(u64::from(std::process::id()) ^ 0x5EED_C11E),
            last_degraded: false,
            degraded_answers: 0,
            last_shed_depth: 0,
            tracing: false,
            last_trace_id: 0,
        })
    }

    /// Scopes every subsequent request to `tenant`, switching the wire
    /// encoding to v2 (tenant envelope).
    pub fn with_tenant(mut self, tenant: TenantId) -> Self {
        self.tenant = Some(tenant);
        self
    }

    /// Replaces the retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Mints a fresh trace id per call and sends it in the request
    /// envelope, so the server (and everything it fans out to) records
    /// spans under that trace. Forces the v2 wire encoding — traced
    /// tenant-less requests ride a `default`-tenant envelope.
    pub fn with_tracing(mut self) -> Self {
        self.tracing = true;
        self
    }

    /// The trace id the most recent traced call was sent under (0 until
    /// the first one). Lets callers correlate a slow answer with the
    /// server-side trace tree.
    pub fn last_trace_id(&self) -> u64 {
        self.last_trace_id
    }

    /// Sets the socket read timeout (re-applied after reconnects).
    pub fn with_read_timeout(self, timeout: Option<Duration>) -> Result<Self, WireError> {
        self.stream
            .set_read_timeout(timeout)
            .map_err(WireError::Io)?;
        Ok(Self {
            read_timeout: timeout,
            ..self
        })
    }

    /// The tenant requests are scoped to (`None` = v1 wire, `default`).
    pub fn tenant(&self) -> Option<&TenantId> {
        self.tenant.as_ref()
    }

    /// Performs one blocking request/response exchange — a single
    /// attempt, no retries. Encodes v2 when a tenant is set, v1
    /// otherwise. A trace context is attached when tracing is on (a
    /// fresh root id per attempt) or when the calling thread already has
    /// one in scope (in-process forwarding: the router's shard fan-out
    /// propagates its request context this way).
    pub fn call(&mut self, req: &Request) -> Result<Response, WireError> {
        let ctx = if self.tracing {
            let ctx = TraceCtx::root(reqtrace::mint());
            self.last_trace_id = ctx.trace_id;
            ctx
        } else {
            reqtrace::current()
        };
        if ctx.sampled() {
            let default = TenantId::default_tenant();
            let tenant = self.tenant.as_ref().unwrap_or(&default);
            return protocol::call_traced(&mut self.stream, tenant, ctx, req);
        }
        match &self.tenant {
            Some(t) => protocol::call_v2(&mut self.stream, t, req),
            None => protocol::call(&mut self.stream, req),
        }
    }

    /// [`Client::call`] under the retry policy: `Overloaded` answers,
    /// transport timeouts, and disconnects are re-attempted with capped
    /// jittered backoff. A timeout or a disconnect reopens the
    /// connection at once, so a late answer never reaches a later call.
    /// `Ok(None)` means the request was abandoned after exhausting the
    /// policy; hard failures — including a reconnect that cannot be
    /// established — still propagate.
    pub fn call_retrying(&mut self, req: &Request) -> Result<Option<Response>, WireError> {
        let mut attempt = 0u32;
        loop {
            match self.call(req) {
                Ok(Response::Overloaded { queue_depth }) => self.last_shed_depth = queue_depth,
                Ok(resp) => return Ok(Some(resp)),
                Err(e) if is_timeout(&e) || is_disconnect(&e) => self.reconnect()?,
                Err(e) => return Err(e),
            }
            if attempt >= self.retry.max_retries {
                return Ok(None);
            }
            attempt += 1;
            afforest_obs::registry::counter("afforest_client_retries_total").inc();
            std::thread::sleep(backoff(self.retry.backoff, attempt, &mut self.rng));
        }
    }

    fn reconnect(&mut self) -> Result<(), WireError> {
        let stream = TcpStream::connect(self.peer).map_err(WireError::Io)?;
        let _ = stream.set_nodelay(true);
        stream
            .set_read_timeout(self.read_timeout)
            .map_err(WireError::Io)?;
        self.stream = stream;
        Ok(())
    }

    /// Whether the most recent typed answer arrived wrapped in the
    /// degraded tag (the cluster answered with shards missing). Reset by
    /// every typed call.
    pub fn last_answer_degraded(&self) -> bool {
        self.last_degraded
    }

    /// Total degraded answers this client has received.
    pub fn degraded_answers(&self) -> u64 {
        self.degraded_answers
    }

    /// Queue depth reported by the most recent `Overloaded` answer —
    /// the last honest backpressure signal seen before
    /// [`Client::call_retrying`] abandoned a request as shed (0 until
    /// the first such answer).
    pub fn last_shed_queue_depth(&self) -> u64 {
        self.last_shed_depth
    }

    fn typed(&mut self, req: &Request) -> Result<Response, ClientError> {
        self.last_degraded = false;
        let resp = match self.call_retrying(req)? {
            Some(Response::Degraded(inner)) => {
                // Unwrap so callers keep their typed signatures; the
                // partial-answer flag stays observable per call and in
                // the client's metrics.
                self.last_degraded = true;
                self.degraded_answers += 1;
                afforest_obs::registry::counter("afforest_client_degraded_total").inc();
                *inner
            }
            Some(resp) => resp,
            None => return Err(ClientError::Exhausted),
        };
        match resp {
            Response::Err(msg) => Err(ClientError::Server(msg)),
            resp => Ok(resp),
        }
    }

    /// Whether `u` and `v` are in the same component.
    pub fn connected(&mut self, u: Node, v: Node) -> Result<bool, ClientError> {
        match self.typed(&Request::Connected(u, v))? {
            Response::Connected(b) => Ok(b),
            other => Err(unexpected("Connected", &other)),
        }
    }

    /// `u`'s component label.
    pub fn component(&mut self, u: Node) -> Result<Node, ClientError> {
        match self.typed(&Request::Component(u))? {
            Response::Component(l) => Ok(l),
            other => Err(unexpected("Component", &other)),
        }
    }

    /// The size of `u`'s component.
    pub fn component_size(&mut self, u: Node) -> Result<u64, ClientError> {
        match self.typed(&Request::ComponentSize(u))? {
            Response::ComponentSize(s) => Ok(s),
            other => Err(unexpected("ComponentSize", &other)),
        }
    }

    /// Number of connected components.
    pub fn num_components(&mut self) -> Result<u64, ClientError> {
        match self.typed(&Request::NumComponents)? {
            Response::NumComponents(c) => Ok(c),
            other => Err(unexpected("NumComponents", &other)),
        }
    }

    /// Queues `edges` for ingestion, returning the accepted count.
    /// Shed attempts are retried per the policy; [`ClientError::Exhausted`]
    /// means the queue stayed full throughout.
    pub fn insert_edges(&mut self, edges: &[(Node, Node)]) -> Result<u32, ClientError> {
        match self.typed(&Request::InsertEdges(edges.to_vec()))? {
            Response::Accepted { edges } => Ok(edges),
            other => Err(unexpected("InsertEdges", &other)),
        }
    }

    /// The scoped tenant's service counters.
    pub fn stats(&mut self) -> Result<StatsReport, ClientError> {
        match self.typed(&Request::Stats)? {
            Response::Stats(s) => Ok(s),
            other => Err(unexpected("Stats", &other)),
        }
    }

    /// The server's metrics exposition text.
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        match self.typed(&Request::Metrics)? {
            Response::Metrics(text) => Ok(text),
            other => Err(unexpected("Metrics", &other)),
        }
    }

    /// Registers a new tenant with a `vertices`-sized universe.
    pub fn create_tenant(&mut self, name: &TenantId, vertices: u64) -> Result<(), ClientError> {
        match self.typed(&Request::CreateTenant {
            name: name.clone(),
            vertices,
        })? {
            Response::TenantCreated => Ok(()),
            other => Err(unexpected("CreateTenant", &other)),
        }
    }

    /// Drops a tenant (refused for `default`).
    pub fn drop_tenant(&mut self, name: &TenantId) -> Result<(), ClientError> {
        match self.typed(&Request::DropTenant { name: name.clone() })? {
            Response::TenantDropped => Ok(()),
            other => Err(unexpected("DropTenant", &other)),
        }
    }

    /// Registered tenant names, sorted.
    pub fn list_tenants(&mut self) -> Result<Vec<String>, ClientError> {
        match self.typed(&Request::ListTenants)? {
            Response::Tenants(names) => Ok(names),
            other => Err(unexpected("ListTenants", &other)),
        }
    }

    /// Fetches the server's retained span ring (newest spans, oldest
    /// evicted) along with the node name it records spans under.
    pub fn dump_traces(&mut self) -> Result<(String, Vec<Span>), ClientError> {
        match self.typed(&Request::DumpTraces)? {
            Response::Traces { node, spans } => Ok((node, spans)),
            other => Err(unexpected("DumpTraces", &other)),
        }
    }

    /// Asks the server to shut down; the server answers `Bye` and closes.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        // No retries: re-sending shutdown to a server that is already
        // closing just races the teardown.
        match self.call(&Request::Shutdown)? {
            Response::Bye => Ok(()),
            Response::Err(msg) => Err(ClientError::Server(msg)),
            other => Err(unexpected("Shutdown", &other)),
        }
    }

    /// Waits until the scoped tenant reports every accepted edge
    /// published (or `timeout` elapses) — the client-side analogue of
    /// `Server::flush`. `Stats.queue_depth` counts the batch being
    /// applied too, so a read after `Ok(true)` sees every edge accepted
    /// before the call.
    pub fn flush(&mut self, timeout: Duration) -> Result<bool, ClientError> {
        let deadline = Instant::now() + timeout;
        loop {
            if self.stats()?.queue_depth == 0 {
                return Ok(true);
            }
            if Instant::now() >= deadline {
                return Ok(false);
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

fn unexpected(req: &str, resp: &Response) -> ClientError {
    ClientError::Unexpected(format!("{req} answered {resp:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServeConfig;
    use crate::frontend::Endpoint;
    use crate::ingest::BatchPolicy;
    use crate::server::Server;
    use std::net::TcpListener;

    #[test]
    fn typed_calls_round_trip_over_tcp_in_both_versions() {
        let server = Server::new(
            8,
            &[(0, 1), (1, 2)],
            ServeConfig::builder()
                .policy(BatchPolicy {
                    max_edges: 16,
                    max_delay: Duration::from_millis(1),
                    apply_delay: None,
                })
                .build()
                .unwrap(),
        )
        .unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::scope(|s| {
            // Each worker serves one connection at a time and this test
            // keeps three clients open at once: give the pool headroom.
            s.spawn(|| server.serve_tcp(listener, 4).expect("serve_tcp"));

            // v1 (tenant-less) client lands in `default`.
            let mut v1 = Client::connect(addr).unwrap();
            assert!(v1.connected(0, 2).unwrap());
            assert!(!v1.connected(0, 7).unwrap());
            assert_eq!(v1.insert_edges(&[(2, 3)]).unwrap(), 1);
            assert!(v1.flush(Duration::from_secs(5)).unwrap());
            assert!(v1.connected(0, 3).unwrap());
            assert_eq!(v1.stats().unwrap().vertices, 8);
            match v1.component(99) {
                Err(ClientError::Server(msg)) => assert!(msg.contains("out of range"), "{msg}"),
                other => panic!("expected server error, got {other:?}"),
            }

            // v2 client creates and works an isolated tenant.
            let t = TenantId::new("wire-v2").unwrap();
            let mut admin = Client::connect(addr).unwrap();
            admin.create_tenant(&t, 4).unwrap();
            let mut v2 = Client::connect(addr).unwrap().with_tenant(t.clone());
            assert!(!v2.connected(0, 3).unwrap());
            v2.insert_edges(&[(0, 3)]).unwrap();
            assert!(v2.flush(Duration::from_secs(5)).unwrap());
            assert!(v2.connected(0, 3).unwrap());
            let stats = v2.stats().unwrap();
            assert_eq!(stats.vertices, 4);
            assert_eq!(stats.tenants, 2);
            assert_eq!(
                admin.list_tenants().unwrap(),
                vec!["default".to_string(), "wire-v2".to_string()]
            );
            admin.drop_tenant(&t).unwrap();
            assert_eq!(admin.list_tenants().unwrap(), vec!["default".to_string()]);

            let text = v1.metrics().unwrap();
            assert!(text.contains("afforest_requests_connected_total"));

            v1.shutdown().unwrap();
        });
    }

    #[test]
    fn flush_waits_for_the_batch_being_applied() {
        // A one-edge batch, drained at once and then held mid-apply: the
        // queue is empty long before the edge is visible.
        let server = Server::new(
            4,
            &[],
            ServeConfig::builder()
                .policy(BatchPolicy {
                    max_edges: 1,
                    max_delay: Duration::from_millis(1),
                    apply_delay: Some(Duration::from_millis(300)),
                })
                .build()
                .unwrap(),
        )
        .unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // Shut the server down before asserting, so a failure fails
        // instead of leaving the scope waiting on `serve_tcp`.
        let (flushed, visible, stats) = std::thread::scope(|s| {
            s.spawn(|| server.serve_tcp(listener, 1).expect("serve_tcp"));
            let mut client = Client::connect(addr).unwrap();
            let accepted = client.insert_edges(&[(0, 3)]);
            while accepted.is_ok() && !server.applying() {
                std::thread::sleep(Duration::from_millis(1));
            }
            let flushed = client.flush(Duration::from_secs(5));
            let visible = client.connected(0, 3);
            let stats = client.stats();
            server.request_shutdown();
            (flushed, visible, stats)
        });
        assert!(flushed.unwrap());
        assert!(
            visible.unwrap(),
            "flush returned before the edge was visible"
        );
        assert_eq!(stats.unwrap().edges_ingested, 1);
    }

    #[test]
    fn a_late_answer_never_reaches_the_next_call() {
        // A fake server that answers `Component(u)` with `u`, one thread
        // per connection, except that the first connection answers its
        // first request only after the client's read timeout. Its threads
        // are left detached, so a client that keeps reading the stalled
        // stream fails the test instead of hanging it.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            for (i, stream) in listener.incoming().enumerate() {
                let Ok(mut stream) = stream else { return };
                std::thread::spawn(move || {
                    let mut stall = i == 0;
                    while let Ok(Some(payload)) = protocol::read_frame(&mut stream) {
                        let Ok(Request::Component(u)) = protocol::decode_request(&payload) else {
                            return;
                        };
                        if std::mem::take(&mut stall) {
                            std::thread::sleep(Duration::from_millis(250));
                        }
                        let answer = protocol::encode_response(&Response::Component(u));
                        if protocol::write_frame(&mut stream, &answer).is_err() {
                            return;
                        }
                    }
                });
            }
        });
        let mut client = Client::connect(addr)
            .unwrap()
            .with_read_timeout(Some(Duration::from_millis(100)))
            .unwrap()
            .with_retry(RetryPolicy {
                max_retries: 3,
                backoff: Duration::from_millis(1),
            });
        for u in 1..=3 {
            assert_eq!(client.component(u).unwrap(), u, "answer to Component({u})");
        }
    }

    #[test]
    fn exhausted_retries_surface_as_typed_error() {
        let server = Server::new(
            8,
            &[(0, 1)],
            ServeConfig::builder()
                .policy(BatchPolicy {
                    max_edges: 1_000_000,
                    max_delay: Duration::from_secs(600),
                    apply_delay: None,
                })
                .max_queue_depth(2)
                .build()
                .unwrap(),
        )
        .unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::scope(|s| {
            s.spawn(|| server.serve_tcp(listener, 1).expect("serve_tcp"));
            let mut client = Client::connect(addr).unwrap().with_retry(RetryPolicy {
                max_retries: 2,
                backoff: Duration::from_micros(50),
            });
            client.insert_edges(&[(0, 1), (1, 2)]).unwrap();
            // Queue full forever (parked writer): every retry is shed.
            match client.insert_edges(&[(2, 3)]) {
                Err(ClientError::Exhausted) => {}
                other => panic!("expected Exhausted, got {other:?}"),
            }
            server.request_shutdown();
        });
    }
}
