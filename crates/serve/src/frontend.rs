//! The TCP front-end: one accept pool and one frame loop serving any
//! [`Endpoint`]. A standalone [`Server`](crate::Server) and the shard
//! router are its two endpoints; each evaluates requests and supplies
//! the few values the loop reads. The loop owns everything else, once:
//! polling accept, read timeouts and the idle deadline, framing errors,
//! per-version answers, each request's root span, the chaos hooks and
//! the process-scope transport series (DESIGN.md §10).

use crate::events::{self, EventKind};
use crate::faults::FaultPlan;
use crate::metrics::metrics;
use crate::protocol::{
    decode_request_traced, encode_response, encode_response_v2, read_frame, write_frame, Request,
    Response, WireError, WireVersion,
};
use crate::server::ServeError;
use crate::tenant::TenantId;
use afforest_obs::reqtrace::{self, RootSpan, Stage};
use std::io::{ErrorKind, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;
use std::time::{Duration, Instant};

/// How long a blocked worker sleeps between accept attempts / shutdown
/// checks.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// Per-connection read timeout, so a parked reader re-checks the shutdown
/// flag. Requests are single small frames, so a timeout mid-frame only
/// happens when the peer itself stalled mid-write.
const READ_TIMEOUT: Duration = Duration::from_millis(100);

/// A protocol endpoint the front-end can serve: a request evaluator plus
/// the values the frame loop reads.
pub trait Endpoint: Sync {
    /// Stage of each request's root span.
    const ROOT_STAGE: Stage;

    /// Stage of a span covering the frame decode, recorded retroactively
    /// under the root (the trace context is only known once decode
    /// succeeds); `None` records no decode span.
    const DECODE_STAGE: Option<Stage> = None;

    /// Evaluates one decoded request for `tenant` (the v2 envelope's
    /// tenant, `default` for a v1 frame). Never panics; unanswerable
    /// requests become [`Response::Err`].
    fn handle_for(&self, tenant: &TenantId, req: &Request) -> Response;

    /// The flag a `Shutdown` request sets; every accept worker and
    /// connection exits once it is up.
    fn shutdown_flag(&self) -> &AtomicBool;

    /// How long an idle connection is kept (`None` keeps it forever).
    fn read_deadline(&self) -> Option<Duration>;

    /// Chaos injection for the transport, if armed.
    fn faults(&self) -> Option<&FaultPlan> {
        None
    }

    /// Whether a `Shutdown` request has been received.
    fn shutdown_requested(&self) -> bool {
        self.shutdown_flag().load(Ordering::Relaxed)
    }

    /// Requests shutdown (same effect as a `Shutdown` frame).
    fn request_shutdown(&self) {
        self.shutdown_flag().store(true, Ordering::Relaxed);
    }

    /// Serves `listener` with a pool of `workers` accept threads until a
    /// `Shutdown` request arrives. Each worker handles one connection at
    /// a time, so the pool size bounds concurrent connections.
    fn serve_tcp(&self, listener: TcpListener, workers: usize) -> Result<(), ServeError>
    where
        Self: Sized,
    {
        listener.set_nonblocking(true)?;
        let mut spawn_failed = false;
        thread::scope(|s| {
            for i in 0..workers.max(1) {
                let listener = &listener;
                let spawned = thread::Builder::new()
                    .name(format!("afforest-serve-worker-{i}"))
                    .spawn_scoped(s, move || accept_loop(self, listener, i));
                if spawned.is_err() {
                    // Tell the workers that did start to exit; the scope
                    // then joins them and we report the failure.
                    spawn_failed = true;
                    self.request_shutdown();
                    break;
                }
            }
        });
        if spawn_failed {
            return Err(ServeError::Spawn {
                what: "accept worker",
            });
        }
        Ok(())
    }
}

fn accept_loop<E: Endpoint>(ep: &E, listener: &TcpListener, worker: usize) {
    while !ep.shutdown_requested() {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // Chaos: a worker may die instead of serving. The rest of
                // the pool (and the listener) keep going.
                if ep.faults().is_some_and(FaultPlan::should_kill_worker) {
                    metrics().worker_deaths.inc();
                    events::record(EventKind::WorkerDeath, [worker as u64, 0, 0]);
                    return;
                }
                metrics().connections.inc();
                serve_connection(ep, stream);
            }
            // Nothing pending, or a transient failure (e.g. the peer
            // aborted the handshake): back off briefly and keep serving.
            Err(_) => thread::sleep(ACCEPT_POLL),
        }
    }
}

/// Runs one connection's request/response loop until the peer closes,
/// the stream desynchronizes, the idle deadline passes, or shutdown is
/// requested.
fn serve_connection<E: Endpoint>(ep: &E, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let _ = stream.set_nodelay(true);
    let mut last_activity = Instant::now();
    while !ep.shutdown_requested() {
        let payload = match read_frame(&mut stream) {
            Ok(Some(payload)) => payload,
            // Peer closed between frames.
            Ok(None) => return,
            // Read timeout: enforce the idle deadline, else loop to
            // re-check the shutdown flag.
            Err(WireError::Io(e))
                if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) =>
            {
                if ep
                    .read_deadline()
                    .is_some_and(|deadline| last_activity.elapsed() >= deadline)
                {
                    return;
                }
                continue;
            }
            // Socket died.
            Err(WireError::Io(_)) => return,
            // Unframeable bytes: report, then drop the connection (a bad
            // length prefix means the stream is desynchronized).
            Err(WireError::Frame(e)) => {
                metrics().protocol_errors.inc();
                let _ = write_frame(&mut stream, &encode_response(&Response::Err(e.to_string())));
                return;
            }
        };
        last_activity = Instant::now();
        metrics().bytes_read.add(4 + payload.len() as u64);
        let _span = afforest_obs::span!("serve-request");
        // Only an endpoint with a decode stage times its decode, and only
        // while tracing is on.
        let decode_start = (E::DECODE_STAGE.is_some() && reqtrace::enabled()).then(Instant::now);
        let decoded = decode_request_traced(&payload);
        let decode_ns = decode_start.map_or(0, |t| t.elapsed().as_nanos() as u64);
        // A malformed payload inside a well-delimited frame keeps the
        // stream in sync: answer Err and keep going.
        let (encoded, done) = match decoded {
            Ok((version, tenant, ctx, req)) => {
                // One root span per frame: children recorded while it is
                // open (fan-out calls, queue pushes, the engine's writer
                // stages) hang off it, and the whole tree is retained only
                // if the request was slow or failed (tail sampling).
                let root = RootSpan::begin(ctx, E::ROOT_STAGE);
                let _trace_scope = reqtrace::scoped(root.ctx());
                if let Some(stage) = E::DECODE_STAGE {
                    reqtrace::record(
                        root.ctx(),
                        stage,
                        payload.len() as u64,
                        reqtrace::now_us().saturating_sub(decode_ns / 1_000),
                        decode_ns,
                    );
                }
                let resp = ep.handle_for(&tenant, &req);
                if matches!(
                    resp,
                    Response::Err(_) | Response::Overloaded { .. } | Response::Degraded(_)
                ) {
                    root.force_retain();
                }
                let done = matches!(resp, Response::Bye);
                let encoded = match version {
                    WireVersion::V1 => encode_response(&resp),
                    WireVersion::V2 => encode_response_v2(&resp),
                };
                (encoded, done)
            }
            Err(e) => {
                metrics().protocol_errors.inc();
                (encode_response(&Response::Err(e.to_string())), false)
            }
        };
        // Chaos: tear the response frame mid-write. A torn frame
        // desynchronizes the stream, so the connection dies with it —
        // exactly what a crashed server looks like to the client.
        if let Some(keep) = ep.faults().and_then(|f| f.on_frame(4 + encoded.len())) {
            let mut framed = (encoded.len() as u32).to_le_bytes().to_vec();
            framed.extend_from_slice(&encoded);
            framed.truncate(keep);
            let _ = stream.write_all(&framed);
            metrics().bytes_written.add(framed.len() as u64);
            return;
        }
        if write_frame(&mut stream, &encoded).is_err() {
            return;
        }
        metrics().bytes_written.add(4 + encoded.len() as u64);
        if done {
            return;
        }
    }
}
