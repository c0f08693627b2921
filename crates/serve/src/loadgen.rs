//! Mixed-workload load generator for the service.
//!
//! Spawns `connections` client threads, each driving its own transport
//! with a seeded RNG: reads (`Connected` / `Component` / `ComponentSize`
//! / `NumComponents`, rotated uniformly) versus writes (`InsertEdges` of
//! `insert_batch` random edges) in a configurable ratio. Every request's
//! wall-clock latency lands in a per-thread log₂ [`Histogram`]
//! (`afforest-obs`), merged at the end into a [`LoadgenReport`] with
//! throughput and p50/p95/p99.
//!
//! The generator is transport-generic: the CLI runs it over TCP, the
//! tests run it over the in-process [`Transport`] impl on
//! [`crate::Server`], so the workload logic itself is exercised without a
//! socket.
//!
//! Writes the server sheds ([`Response::Overloaded`]), calls that time
//! out, and calls that die with the connection (a torn frame or a reset —
//! routine against a `--faults` server) are retried with capped
//! exponential backoff plus jitter (up to [`LoadgenConfig::max_retries`]
//! attempts, reopening the transport after a timeout or a disconnect), and each class
//! is reported separately from protocol errors — a load-shedding or
//! chaos-injected server is degraded, not broken, and the report keeps
//! the distinctions legible.

use crate::client::{backoff, is_disconnect, is_timeout, Client};
use crate::protocol::{Request, Response, WireError};
use crate::server::Server;
use crate::tenant::TenantId;
use afforest_graph::Node;
use afforest_obs::Histogram;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

pub use crate::client::MAX_BACKOFF;

/// Anything that can answer a [`Request`]: a typed [`Client`] over TCP
/// or the server itself (in-process, for deterministic tests).
pub trait Transport {
    /// Performs one blocking request/response exchange.
    fn call(&mut self, req: &Request) -> Result<Response, WireError>;
}

/// The TCP transport is the typed client — a single attempt per call;
/// the load generator owns retries so it can tally them.
impl Transport for Client {
    fn call(&mut self, req: &Request) -> Result<Response, WireError> {
        Client::call(self, req)
    }
}

/// In-process transport: no socket, no frame encoding, same semantics.
impl Transport for &Server {
    fn call(&mut self, req: &Request) -> Result<Response, WireError> {
        Ok(self.handle(req))
    }
}

/// Workload shape.
#[derive(Clone, Debug)]
pub struct LoadgenConfig {
    /// Concurrent client connections (one thread each).
    pub connections: usize,
    /// Total requests across all connections.
    pub requests: usize,
    /// Percentage of requests that are reads (0–100).
    pub read_pct: u32,
    /// Edges per `InsertEdges` request.
    pub insert_batch: usize,
    /// Base RNG seed (each connection derives its own stream).
    pub seed: u64,
    /// Retry a shed or timed-out request at most this many times before
    /// giving up on it (0 = never retry).
    pub max_retries: u32,
    /// First backoff delay; doubles per retry (jittered ±50%, capped at
    /// [`MAX_BACKOFF`]).
    pub retry_backoff: Duration,
    /// Tenant to aim the workload at (`None` = the `default` tenant over
    /// wire v1). Consumed by the transport factory — the CLI scopes its
    /// [`Client`]s with it; the in-process test transport routes to
    /// `default` regardless.
    pub tenant: Option<TenantId>,
    /// Shard-locality for writes: when `> 1`, the vertex space is
    /// treated as that many contiguous `Block` slices
    /// (`distrib::VertexPartition`) and a `local_pct` share of insert
    /// batches draw both endpoints inside one randomly chosen slice —
    /// the workload shape a sharded router rewards. `0` or `1` keeps
    /// writes uniform over the whole vertex space.
    pub write_shards: usize,
    /// Percentage (0–100) of insert batches that are shard-local when
    /// `write_shards > 1`; the remainder stay uniform and so are mostly
    /// cut edges.
    pub local_pct: u32,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        Self {
            connections: 4,
            requests: 20_000,
            read_pct: 90,
            insert_batch: 64,
            seed: 42,
            max_retries: 3,
            retry_backoff: Duration::from_micros(500),
            tenant: None,
            write_shards: 0,
            local_pct: 90,
        }
    }
}

/// Aggregated result of one load-generator run.
#[derive(Clone, Debug)]
pub struct LoadgenReport {
    /// Requests completed.
    pub requests: u64,
    /// Read requests completed.
    pub reads: u64,
    /// Write (`InsertEdges`) requests completed.
    pub writes: u64,
    /// `Response::Err` answers received (protocol errors).
    pub errors: u64,
    /// [`Response::Overloaded`] answers received (shed writes; each
    /// attempt counts).
    pub shed: u64,
    /// Calls that timed out at the transport (each attempt counts).
    pub timeouts: u64,
    /// Connections reopened because a call timed out or died mid-call
    /// (each attempt counts) — timeouts, torn frames and resets land here.
    pub reconnects: u64,
    /// Backed-off re-attempts performed after a shed, timeout, or
    /// disconnect.
    pub retries: u64,
    /// Requests abandoned after exhausting [`LoadgenConfig::max_retries`].
    pub gave_up: u64,
    /// Connections used.
    pub connections: usize,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Per-request latency distribution (log₂ buckets).
    pub latency: Histogram,
}

impl LoadgenReport {
    /// Requests per second over the whole run.
    pub fn throughput_rps(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.requests as f64 / secs
        } else {
            0.0
        }
    }

    /// `(p50, p95, p99)` request latency in nanoseconds.
    pub fn percentiles(&self) -> (u64, u64, u64) {
        (
            self.latency.percentile(0.50),
            self.latency.percentile(0.95),
            self.latency.percentile(0.99),
        )
    }

    /// Human-readable summary (the `loadgen` subcommand's output).
    pub fn render(&self) -> String {
        let (p50, p95, p99) = self.percentiles();
        let read_share = if self.requests > 0 {
            100.0 * self.reads as f64 / self.requests as f64
        } else {
            0.0
        };
        // An empty histogram's percentiles are the NO_SAMPLES sentinel;
        // "0ns" would read as a real measurement, so show dashes.
        let quantile = |v: u64| {
            if self.latency.count > 0 {
                fmt_ns(v)
            } else {
                "-".to_string()
            }
        };
        format!(
            "loadgen: {} requests ({:.0}% reads) over {} connections in {:.3} s\n\
             throughput: {:.0} req/s\n\
             latency:    p50 {}  p95 {}  p99 {}  max {}\n\
             errors:     {}\n\
             shed:       {} (timeouts {}, reconnects {}, retries {}, gave up {})\n",
            self.requests,
            read_share,
            self.connections,
            self.elapsed.as_secs_f64(),
            self.throughput_rps(),
            quantile(p50),
            quantile(p95),
            quantile(p99),
            quantile(self.latency.max_ns),
            self.errors,
            self.shed,
            self.timeouts,
            self.reconnects,
            self.retries,
            self.gave_up,
        )
    }

    /// Canonical JSON encoding (what `loadgen --json-out` writes).
    pub fn to_json(&self) -> String {
        let (p50, p95, p99) = self.percentiles();
        format!(
            "{{\n  \"requests\": {},\n  \"reads\": {},\n  \"writes\": {},\n  \
             \"errors\": {},\n  \"shed\": {},\n  \"timeouts\": {},\n  \
             \"reconnects\": {},\n  \"retries\": {},\n  \"gave_up\": {},\n  \
             \"connections\": {},\n  \"elapsed_s\": {:.6},\n  \
             \"throughput_rps\": {:.1},\n  \"latency_ns\": {{ \"p50\": {}, \
             \"p95\": {}, \"p99\": {}, \"max\": {} }}\n}}\n",
            self.requests,
            self.reads,
            self.writes,
            self.errors,
            self.shed,
            self.timeouts,
            self.reconnects,
            self.retries,
            self.gave_up,
            self.connections,
            self.elapsed.as_secs_f64(),
            self.throughput_rps(),
            p50,
            p95,
            p99,
            if self.latency.count > 0 {
                self.latency.max_ns
            } else {
                0
            },
        )
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.1} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

/// Per-thread tally folded into the report after join.
#[derive(Default)]
struct ThreadTally {
    requests: u64,
    reads: u64,
    writes: u64,
    errors: u64,
    shed: u64,
    timeouts: u64,
    reconnects: u64,
    retries: u64,
    gave_up: u64,
    latency: Histogram,
}

/// Runs the workload. `connect(i)` opens the `i`-th connection's
/// transport. The vertex universe is learned from an initial `Stats`
/// probe on connection 0's transport.
pub fn run<T, F>(cfg: &LoadgenConfig, connect: F) -> Result<LoadgenReport, WireError>
where
    T: Transport,
    F: Fn(usize) -> Result<T, WireError> + Sync,
{
    // Learn the graph size once; the probe is not part of the timed run.
    // A chaos server can tear even this first response, so the probe gets
    // a few reconnect attempts of its own.
    let vertices = {
        let mut probe = connect(0)?;
        let mut attempts = 0u32;
        loop {
            match probe.call(&Request::Stats) {
                Ok(Response::Stats(s)) => break s.vertices as usize,
                // A sharded router with a dead shard degrades the
                // aggregate; the surviving shards still carry the
                // vertex count, which is all the probe wants.
                Ok(Response::Degraded(inner)) => match *inner {
                    Response::Stats(s) => break s.vertices as usize,
                    other => {
                        return Err(WireError::Io(std::io::Error::other(format!(
                            "stats probe answered Degraded({other:?})"
                        ))))
                    }
                },
                Ok(other) => {
                    return Err(WireError::Io(std::io::Error::other(format!(
                        "stats probe answered {other:?}"
                    ))))
                }
                Err(e) if is_disconnect(&e) && attempts < 5 => {
                    attempts += 1;
                    probe = connect(0)?;
                }
                Err(e) => return Err(e),
            }
        }
    };
    if vertices == 0 {
        return Err(WireError::Io(std::io::Error::other(
            "cannot generate load against an empty graph",
        )));
    }

    let connections = cfg.connections.max(1);
    let started = Instant::now();
    let tallies: Vec<Result<ThreadTally, WireError>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..connections)
            .map(|i| {
                // Split cfg.requests evenly; the first threads absorb the
                // remainder.
                let share =
                    cfg.requests / connections + usize::from(i < cfg.requests % connections);
                let connect = &connect;
                s.spawn(move || drive(cfg, i, share, vertices, connect))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("loadgen thread panicked"))
            .collect()
    });
    let elapsed = started.elapsed();

    let mut report = LoadgenReport {
        requests: 0,
        reads: 0,
        writes: 0,
        errors: 0,
        shed: 0,
        timeouts: 0,
        reconnects: 0,
        retries: 0,
        gave_up: 0,
        connections,
        elapsed,
        latency: Histogram::new("request"),
    };
    for tally in tallies {
        let t = tally?;
        report.requests += t.requests;
        report.reads += t.reads;
        report.writes += t.writes;
        report.errors += t.errors;
        report.shed += t.shed;
        report.timeouts += t.timeouts;
        report.reconnects += t.reconnects;
        report.retries += t.retries;
        report.gave_up += t.gave_up;
        report.latency.merge(&t.latency);
    }
    Ok(report)
}

/// One connection's request loop. Owns its transport and reopens it via
/// `connect` when a call dies with the connection.
fn drive<T, F>(
    cfg: &LoadgenConfig,
    conn_idx: usize,
    share: usize,
    vertices: usize,
    connect: &F,
) -> Result<ThreadTally, WireError>
where
    T: Transport,
    F: Fn(usize) -> Result<T, WireError>,
{
    let mut transport = connect(conn_idx)?;
    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ (conn_idx as u64).wrapping_mul(0x9E37));
    let mut tally = ThreadTally {
        latency: Histogram::new("request"),
        ..Default::default()
    };
    let n = vertices as Node;
    // Contiguous Block slices for shard-local writes; computed once per
    // connection (the partition itself is O(n) to build).
    let slices: Vec<std::ops::Range<Node>> = if cfg.write_shards > 1 {
        let part = afforest_distrib::VertexPartition::new(
            vertices,
            cfg.write_shards,
            afforest_distrib::PartitionKind::Block,
        );
        (0..cfg.write_shards)
            .filter_map(|k| part.rank_range(k))
            .filter(|r| !r.is_empty())
            .collect()
    } else {
        Vec::new()
    };
    for _ in 0..share {
        let is_read = rng.random_bool(f64::from(cfg.read_pct.min(100)) / 100.0);
        let req = if is_read {
            match rng.random_range(0u32..4) {
                0 => Request::Connected(rng.random_range(0..n), rng.random_range(0..n)),
                1 => Request::Component(rng.random_range(0..n)),
                2 => Request::ComponentSize(rng.random_range(0..n)),
                _ => Request::NumComponents,
            }
        } else {
            let local = !slices.is_empty() && rng.random_range(0u32..100) < cfg.local_pct.min(100);
            let edges = if local {
                let slice = slices[rng.random_range(0..slices.len())].clone();
                (0..cfg.insert_batch.max(1))
                    .map(|_| {
                        (
                            rng.random_range(slice.clone()),
                            rng.random_range(slice.clone()),
                        )
                    })
                    .collect()
            } else {
                (0..cfg.insert_batch.max(1))
                    .map(|_| (rng.random_range(0..n), rng.random_range(0..n)))
                    .collect()
            };
            Request::InsertEdges(edges)
        };
        let resp = call_with_retry(cfg, &mut transport, &req, &mut rng, &mut tally, || {
            connect(conn_idx)
        })?;
        tally.requests += 1;
        if is_read {
            tally.reads += 1;
        } else {
            tally.writes += 1;
        }
        if matches!(resp, Some(Response::Err(_))) {
            tally.errors += 1;
        }
    }
    Ok(tally)
}

/// Issues one request, retrying shed, timed-out, and disconnected
/// attempts with capped exponential backoff + jitter (a timeout or a
/// disconnect reopens the transport first — the request's fate on the server is
/// unknown, but edge insertion is idempotent for connectivity, so a
/// blind re-send is safe). Returns `None` if every attempt failed (the
/// request is abandoned, not an error); hard transport failures —
/// including a reconnect that cannot be established — still propagate.
/// Latency is recorded per *attempt*, so backoff sleeps never inflate
/// the latency distribution.
fn call_with_retry<T: Transport>(
    cfg: &LoadgenConfig,
    transport: &mut T,
    req: &Request,
    rng: &mut SmallRng,
    tally: &mut ThreadTally,
    reconnect: impl Fn() -> Result<T, WireError>,
) -> Result<Option<Response>, WireError> {
    let mut attempt = 0u32;
    loop {
        let t = Instant::now();
        let outcome = transport.call(req);
        tally.latency.record(t.elapsed().as_nanos() as u64);
        match outcome {
            Ok(Response::Overloaded { .. }) => tally.shed += 1,
            Ok(resp) => return Ok(Some(resp)),
            // A timed-out stream may still deliver this answer late, to
            // the next request: reopen it as after a disconnect.
            Err(e) if is_timeout(&e) || is_disconnect(&e) => {
                tally.timeouts += u64::from(is_timeout(&e));
                tally.reconnects += 1;
                *transport = reconnect()?;
            }
            Err(e) => return Err(e),
        }
        if attempt >= cfg.max_retries {
            tally.gave_up += 1;
            return Ok(None);
        }
        attempt += 1;
        tally.retries += 1;
        afforest_obs::registry::counter("afforest_client_retries_total").inc();
        std::thread::sleep(backoff(cfg.retry_backoff, attempt, rng));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServeConfig;
    use crate::frontend::Endpoint;
    use crate::ingest::BatchPolicy;

    fn tiny_server(n: usize) -> Server {
        let edges: Vec<(Node, Node)> = (1..n as Node).map(|v| (v - 1, v)).collect();
        Server::new(n, &edges, ServeConfig::builder().build().unwrap()).expect("start server")
    }

    #[test]
    fn in_process_mixed_workload_has_zero_errors() {
        let server = tiny_server(500);
        let cfg = LoadgenConfig {
            connections: 3,
            requests: 3_000,
            read_pct: 80,
            insert_batch: 8,
            seed: 7,
            ..LoadgenConfig::default()
        };
        let report = run(&cfg, |_| Ok(&server)).unwrap();
        assert_eq!(report.requests, 3_000);
        assert_eq!(report.errors, 0, "{}", report.render());
        assert_eq!(report.reads + report.writes, report.requests);
        assert!(report.reads > report.writes);
        assert_eq!(report.latency.count, 3_000);
        assert!(report.throughput_rps() > 0.0);
    }

    #[test]
    fn empty_report_renders_dashes_not_zero_latency() {
        let server = tiny_server(10);
        let report = run(
            &LoadgenConfig {
                connections: 1,
                requests: 0,
                ..LoadgenConfig::default()
            },
            |_| Ok(&server),
        )
        .unwrap();
        assert_eq!(report.latency.count, 0);
        let text = report.render();
        // The NO_SAMPLES sentinel must not surface as a "0ns" reading.
        assert!(text.contains("p50 -  p95 -  p99 -  max -"), "{text}");
    }

    #[test]
    fn all_reads_and_all_writes_extremes() {
        let server = tiny_server(100);
        let reads = run(
            &LoadgenConfig {
                connections: 1,
                requests: 200,
                read_pct: 100,
                insert_batch: 4,
                seed: 1,
                ..LoadgenConfig::default()
            },
            |_| Ok(&server),
        )
        .unwrap();
        assert_eq!(reads.writes, 0);
        assert_eq!(reads.reads, 200);

        let writes = run(
            &LoadgenConfig {
                connections: 1,
                requests: 50,
                read_pct: 0,
                insert_batch: 4,
                seed: 1,
                ..LoadgenConfig::default()
            },
            |_| Ok(&server),
        )
        .unwrap();
        assert_eq!(writes.reads, 0);
        assert_eq!(writes.writes, 50);
        assert!(server.flush(Duration::from_secs(10)));
        assert_eq!(server.stats_report().edges_ingested, 50 * 4);
    }

    #[test]
    fn report_renders_and_encodes() {
        let server = tiny_server(64);
        let report = run(
            &LoadgenConfig {
                connections: 2,
                requests: 100,
                read_pct: 90,
                insert_batch: 2,
                seed: 3,
                ..LoadgenConfig::default()
            },
            |_| Ok(&server),
        )
        .unwrap();
        let text = report.render();
        assert!(text.contains("throughput"), "{text}");
        assert!(text.contains("p99"), "{text}");
        let json = report.to_json();
        assert!(json.contains("\"throughput_rps\""), "{json}");
        assert!(json.contains("\"p95\""), "{json}");
        // Requests split across 2 connections must still total 100.
        assert_eq!(report.requests, 100);
    }

    #[test]
    fn empty_graph_is_rejected_up_front() {
        let server = Server::new(0, &[], ServeConfig::builder().build().unwrap()).unwrap();
        let err = run(&LoadgenConfig::default(), |_| Ok(&server)).unwrap_err();
        assert!(err.to_string().contains("empty graph"), "{err}");
    }

    #[test]
    fn overloaded_server_sheds_writes_while_reads_keep_answering() {
        // The writer never wakes (distant deadline, huge size trigger), so
        // the 4-edge queue fills and stays full: every write past the
        // bound is shed, retried, and eventually abandoned.
        let server = Server::new(
            64,
            &[(0, 1)],
            ServeConfig::builder()
                .policy(BatchPolicy {
                    max_edges: 1_000_000,
                    max_delay: Duration::from_secs(600),
                    apply_delay: None,
                })
                .max_queue_depth(4)
                .build()
                .unwrap(),
        )
        .unwrap();
        let report = run(
            &LoadgenConfig {
                connections: 2,
                requests: 400,
                read_pct: 50,
                insert_batch: 4,
                seed: 11,
                max_retries: 2,
                retry_backoff: Duration::from_micros(50),
                ..LoadgenConfig::default()
            },
            |_| Ok(&server),
        )
        .unwrap();
        // The run completes — shedding degrades writes, it does not error.
        assert_eq!(report.requests, 400);
        assert_eq!(report.errors, 0, "{}", report.render());
        assert!(report.shed > 0, "{}", report.render());
        assert!(report.retries > 0, "{}", report.render());
        assert!(report.gave_up > 0, "{}", report.render());
        // Every read answered despite the saturated write path.
        assert!(report.reads > 150, "{}", report.render());
        // Shed attempts = retries + first attempts of abandoned requests
        // + first attempts of eventually-admitted requests; at minimum
        // every abandoned request was shed max_retries + 1 times.
        assert!(report.shed >= report.gave_up * 3);
        let text = report.render();
        assert!(text.contains("shed"), "{text}");
        let json = report.to_json();
        assert!(json.contains("\"gave_up\""), "{json}");
    }

    #[test]
    fn torn_connections_are_reopened_not_fatal() {
        use crate::faults::FaultPlan;
        use std::net::TcpListener;
        use std::sync::Arc;

        let faults = Arc::new(FaultPlan::parse("seed=13,torn_frame=0.05").expect("fault spec"));
        let server = Server::new(
            256,
            &[(0, 1), (1, 2)],
            ServeConfig::builder()
                .faults(Some(Arc::clone(&faults)))
                .build()
                .unwrap(),
        )
        .expect("start server");
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();

        let report = std::thread::scope(|s| {
            s.spawn(|| server.serve_tcp(listener, 4).expect("serve_tcp"));
            let report = run(
                &LoadgenConfig {
                    connections: 2,
                    requests: 600,
                    read_pct: 80,
                    insert_batch: 4,
                    seed: 5,
                    max_retries: 8,
                    retry_backoff: Duration::from_micros(100),
                    ..LoadgenConfig::default()
                },
                |_| Client::connect(addr)?.with_read_timeout(Some(Duration::from_secs(5))),
            )
            .expect("a chaos server must degrade loadgen, not abort it");
            server.request_shutdown();
            report
        });

        assert!(
            faults.injected().torn_frames > 0,
            "no frames torn at p=0.05"
        );
        assert!(report.reconnects > 0, "{}", report.render());
        // Every request completed: each tear cost a reconnect + retry, and
        // torn_frame=0.05 with 8 retries makes exhaustion (0.05^9) absurd.
        assert_eq!(report.requests, 600);
        assert_eq!(report.errors, 0, "{}", report.render());
        assert_eq!(report.gave_up, 0, "{}", report.render());
    }

    #[test]
    fn shard_local_writes_stay_inside_one_block() {
        use crate::protocol::StatsReport;
        use std::sync::{Arc, Mutex};

        // A transport that records every inserted edge, so the locality
        // of the generated workload is directly observable.
        struct Recorder {
            vertices: u64,
            edges: Arc<Mutex<Vec<(Node, Node)>>>,
        }
        impl Transport for Recorder {
            fn call(&mut self, req: &Request) -> Result<Response, WireError> {
                match req {
                    Request::Stats => Ok(Response::Stats(StatsReport {
                        epoch: 0,
                        vertices: self.vertices,
                        num_components: self.vertices,
                        edges_ingested: 0,
                        epochs_published: 0,
                        queue_depth: 0,
                        requests_shed: 0,
                        wal_records: 0,
                        faults_injected: 0,
                        tenants: 1,
                    })),
                    Request::InsertEdges(es) => {
                        self.edges.lock().unwrap().extend(es.iter().copied());
                        Ok(Response::Accepted {
                            edges: es.len() as u32,
                        })
                    }
                    _ => Ok(Response::NumComponents(self.vertices)),
                }
            }
        }

        let edges = Arc::new(Mutex::new(Vec::new()));
        let cfg = LoadgenConfig {
            connections: 2,
            requests: 200,
            read_pct: 0,
            insert_batch: 8,
            seed: 9,
            write_shards: 4,
            local_pct: 100,
            ..LoadgenConfig::default()
        };
        run(&cfg, |_| {
            Ok(Recorder {
                vertices: 1_000,
                edges: Arc::clone(&edges),
            })
        })
        .unwrap();

        // With local_pct=100 every edge must be internal to one of the
        // four Block slices — the partition's own owner rule agrees.
        let part = afforest_distrib::VertexPartition::new(
            1_000,
            4,
            afforest_distrib::PartitionKind::Block,
        );
        let recorded = edges.lock().unwrap().clone();
        assert_eq!(recorded.len(), 200 * 8);
        assert!(recorded.iter().all(|&(u, v)| !part.is_cut(u, v)));
    }

    #[test]
    fn backoff_grows_and_stays_capped() {
        let mut rng = SmallRng::seed_from_u64(5);
        let base = Duration::from_micros(500);
        for attempt in 1..=20u32 {
            let d = backoff(base, attempt, &mut rng);
            assert!(d <= MAX_BACKOFF, "attempt {attempt}: {d:?}");
            // Jitter floor: at least half the un-jittered delay (pre-cap).
            let floor = (base * (1 << attempt.saturating_sub(1).min(16))) / 2;
            assert!(d >= floor.min(MAX_BACKOFF / 4), "attempt {attempt}: {d:?}");
        }
    }
}
