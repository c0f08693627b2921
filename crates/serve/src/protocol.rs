//! The wire protocol: length-prefixed binary frames.
//!
//! A frame is a little-endian `u32` payload length followed by the
//! payload; the payload is a one-byte opcode followed by fixed-width
//! little-endian fields. Requests and responses share the framing but use
//! disjoint opcode ranges (`0x01..` vs `0x81..`), so a desynchronized
//! peer is detected as an unknown opcode rather than misparsed silently.
//!
//! Decoding never panics: every malformed input — truncated payload,
//! oversized length prefix, unknown opcode, inconsistent element count,
//! trailing garbage — surfaces as a typed [`FrameError`], which the
//! server renders into a [`Response::Err`] frame.
//!
//! ## Protocol v2: the tenant envelope
//!
//! A v2 request payload wraps a v1 payload in an envelope that names the
//! tenant the request is scoped to:
//!
//! ```text
//! [ENVELOPE_MARKER][version][tenant_len: u8][tenant bytes][v1 payload]
//! ```
//!
//! The marker byte `0x7E` sits outside the request op range, so the two
//! wire versions are distinguished by the first payload byte alone:
//! [`decode_request_any`] routes marker-less (v1) payloads to the
//! `default` tenant, which is what keeps pre-v2 client binaries working
//! unmodified against a multi-tenant server. Responses reuse the v1
//! shapes except `Stats`, whose v2 payload is the versioned
//! self-describing encoding (see [`StatsReport`]); the server answers
//! each frame in the version it arrived in.
//!
//! ## Trace context
//!
//! A v2 envelope may carry a request's trace context (DESIGN.md §16)
//! between the tenant name and the inner payload, tagged by
//! [`TRACE_MARKER`] — a byte outside both the request-op range and the
//! envelope marker, so its presence is unambiguous from one byte:
//!
//! ```text
//! [0x7E][2][tenant_len][tenant][0x7D][trace_id: u64][parent_span: u64][v1 payload]
//! ```
//!
//! The field is optional: contextless v2 frames (and all v1 frames)
//! decode exactly as before, with [`TraceCtx::NONE`]. This keeps the
//! version byte at [`WIRE_V2`] — adding the field is not a version
//! bump, because old payloads remain a strict subset.

use crate::tenant::TenantId;
use afforest_graph::Node;
use afforest_obs::reqtrace::{Span, TraceCtx};
use std::io::{Read, Write};

/// Hard ceiling on payload size (16 MiB ≈ 2M edges per insert frame). A
/// length prefix above this is rejected before any allocation, so a
/// garbage prefix cannot trigger a huge read buffer.
pub const MAX_FRAME_LEN: usize = 1 << 24;

/// First payload byte of a v2 (tenant-enveloped) request. Reserved: no
/// request op will ever be assigned this value, so the first byte alone
/// distinguishes the wire versions.
pub const ENVELOPE_MARKER: u8 = 0x7E;

/// The version byte carried inside a v2 envelope.
pub const WIRE_V2: u8 = 2;

/// Tag of the optional trace-context block inside a v2 envelope.
/// Reserved like [`ENVELOPE_MARKER`]: no request op will ever be
/// assigned this value, so the byte after the tenant name alone tells
/// whether a context rides along.
pub const TRACE_MARKER: u8 = 0x7D;

/// Version byte of the self-describing `Stats` payload (v2 frames only;
/// v1 frames keep the frozen nine-`u64` layout).
pub const STATS_VERSION: u8 = 2;

/// Which wire version a request arrived in. The server answers in kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireVersion {
    /// Bare payload, routed to the `default` tenant.
    V1,
    /// Tenant-enveloped payload.
    V2,
}

/// A client request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Are `u` and `v` in the same component (in the served epoch)?
    Connected(Node, Node),
    /// The component representative of `u`.
    Component(Node),
    /// Size of `u`'s component.
    ComponentSize(Node),
    /// Number of components (isolated vertices included).
    NumComponents,
    /// Append edges to the graph; applied asynchronously by the writer.
    InsertEdges(Vec<(Node, Node)>),
    /// Server + ingest statistics.
    Stats,
    /// The full metric registry as a Prometheus text exposition.
    Metrics,
    /// Ask the server to stop accepting connections and exit.
    Shutdown,
    /// Register a new tenant serving an empty graph of `vertices`
    /// vertices. Independent of the envelope's routing tenant.
    CreateTenant {
        /// The tenant to create.
        name: TenantId,
        /// Vertex-universe size of the tenant's graph.
        vertices: u64,
    },
    /// Drop a tenant: its engine is stopped and unregistered. The
    /// `default` tenant cannot be dropped (it is the v1 routing target).
    DropTenant {
        /// The tenant to drop.
        name: TenantId,
    },
    /// List registered tenants.
    ListTenants,
    /// Snapshot this process's retained span ring (DESIGN.md §16);
    /// answered with [`Response::Traces`]. Served by routers and
    /// workers alike, so `afforest trace` can merge one tree across
    /// processes.
    DumpTraces,
    /// The component label and size of each id, all read from one
    /// snapshot; answered with [`Response::Resolved`]. This is the shard
    /// router's one call per worker per read (DESIGN.md §15); the router
    /// itself refuses it.
    Resolve(Vec<Node>),
}

/// A server response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// Answer to [`Request::Connected`].
    Connected(bool),
    /// Answer to [`Request::Component`].
    Component(Node),
    /// Answer to [`Request::ComponentSize`].
    ComponentSize(u64),
    /// Answer to [`Request::NumComponents`].
    NumComponents(u64),
    /// Edges accepted into the ingest queue (not yet visible to reads).
    Accepted {
        /// Number of edges queued.
        edges: u32,
    },
    /// Answer to [`Request::Stats`].
    Stats(StatsReport),
    /// Answer to [`Request::Metrics`]: the Prometheus text exposition
    /// (same bytes the `--metrics-addr` HTTP sidecar serves).
    Metrics(String),
    /// Acknowledges [`Request::Shutdown`]; the connection closes next.
    Bye,
    /// The ingest queue is full: the insert was shed, not queued. Clients
    /// should back off and retry (reads are unaffected — load shedding
    /// applies to the write path only).
    Overloaded {
        /// Pending edges at rejection time.
        queue_depth: u64,
    },
    /// The request was malformed or unanswerable; the message says why.
    Err(String),
    /// Acknowledges [`Request::CreateTenant`].
    TenantCreated,
    /// Acknowledges [`Request::DropTenant`].
    TenantDropped,
    /// Answer to [`Request::ListTenants`]: registered tenant names,
    /// sorted.
    Tenants(Vec<String>),
    /// Answer to [`Request::DumpTraces`]: the retained spans of this
    /// process's ring, oldest first.
    Traces {
        /// The answering process's node name (`"router"`, `"serve"`).
        node: String,
        /// Retained spans, oldest first.
        spans: Vec<Span>,
    },
    /// A *degraded* answer: correct for the reachable part of the
    /// cluster, but computed while one or more shards were unavailable
    /// (see the shard router's failure model, DESIGN.md §15). The inner
    /// response is never itself `Degraded`. Only wire v2 can carry the
    /// tag; a v1 frame renders a degraded answer as the conservative
    /// [`Response::Err`] instead, because a pre-v2 client has no way to
    /// learn the answer is partial.
    Degraded(Box<Response>),
    /// Answer to [`Request::Resolve`], read from one snapshot.
    Resolved {
        /// Epoch of the snapshot every entry was read from.
        epoch: u64,
        /// Component count in that snapshot.
        num_components: u64,
        /// `(component label, component size)` per requested id, in
        /// request order.
        entries: Vec<(Node, u64)>,
    },
}

/// Server-side statistics, answering [`Request::Stats`] for one tenant.
///
/// ## Wire encodings
///
/// The v1 payload is the frozen positional layout: nine `u64`s in
/// declaration order (the `tenants` field is not carried — v1 predates
/// multi-tenancy and its layout can never change again). The v2 payload
/// is versioned and self-describing:
///
/// ```text
/// [STATS_VERSION][field_count: u8][field_count × (tag: u8, value: u64)]
/// ```
///
/// Decoders skip unknown tags, so adding a field is a one-sided change —
/// old v2 clients keep working against new servers and vice versa,
/// instead of silently misparsing a longer positional layout.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StatsReport {
    /// Epoch of the currently served snapshot (0 = initial graph).
    pub epoch: u64,
    /// Vertex count of the served graph.
    pub vertices: u64,
    /// Component count in the served snapshot.
    pub num_components: u64,
    /// Edges applied by the writer since startup.
    pub edges_ingested: u64,
    /// Snapshots published by the writer since startup (excludes epoch 0).
    pub epochs_published: u64,
    /// Edges accepted but not yet published: waiting in the ingest
    /// queue or in the batch the writer is applying.
    pub queue_depth: u64,
    /// Insert requests rejected by bounded-queue admission
    /// (`Response::Overloaded`) since startup.
    pub requests_shed: u64,
    /// Edge-batch records appended to the write-ahead log since startup
    /// (0 when running without a WAL).
    pub wal_records: u64,
    /// Total faults injected by an attached chaos plan (0 in production:
    /// no plan, no faults).
    pub faults_injected: u64,
    /// Registered tenants in the whole process (v2 frames only; a v1
    /// `Stats` answer cannot carry this field and decodes it as 0).
    pub tenants: u64,
}

/// Bytes of one encoded span in a [`Response::Traces`] payload: seven
/// fixed-width `u64` fields.
const SPAN_WIRE_BYTES: usize = 7 * 8;

/// Bytes of one `(label: u32, size: u64)` entry of a
/// [`Response::Resolved`] payload.
const RESOLVED_ENTRY_BYTES: usize = 4 + 8;

/// Bytes of a [`Response::Resolved`] payload before its entries: opcode,
/// epoch, component count and entry count.
const RESOLVED_HEADER_BYTES: usize = 1 + 8 + 8 + 4;

/// Most ids one [`Request::Resolve`] may carry: the most whose answer
/// fits in [`MAX_FRAME_LEN`]. A server refuses a longer request with
/// [`Response::Err`] rather than truncate its answer.
pub const MAX_RESOLVE_IDS: usize = (MAX_FRAME_LEN - RESOLVED_HEADER_BYTES) / RESOLVED_ENTRY_BYTES;

// Field tags of the self-describing v2 `Stats` payload. Tags are stable;
// new fields take fresh tags and old decoders skip them.
const TAG_EPOCH: u8 = 1;
const TAG_VERTICES: u8 = 2;
const TAG_NUM_COMPONENTS: u8 = 3;
const TAG_EDGES_INGESTED: u8 = 4;
const TAG_EPOCHS_PUBLISHED: u8 = 5;
const TAG_QUEUE_DEPTH: u8 = 6;
const TAG_REQUESTS_SHED: u8 = 7;
const TAG_WAL_RECORDS: u8 = 8;
const TAG_FAULTS_INJECTED: u8 = 9;
const TAG_TENANTS: u8 = 10;

/// Why a payload failed to decode. Mirrors the shape of
/// `afforest_graph::Error`: one variant per failure class, each carrying
/// enough context to render a useful message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The payload ended before a fixed-width field.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// The length prefix exceeded [`MAX_FRAME_LEN`].
    Oversized {
        /// Declared payload length.
        len: usize,
    },
    /// The first payload byte is not a known opcode.
    UnknownOpcode(u8),
    /// A structurally invalid payload (reason attached).
    BadPayload(&'static str),
    /// Well-formed value followed by `extra` unexpected bytes.
    Trailing {
        /// Unconsumed byte count.
        extra: usize,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated { needed, got } => {
                write!(f, "truncated frame: needed {needed} bytes, got {got}")
            }
            FrameError::Oversized { len } => {
                write!(
                    f,
                    "oversized frame: {len} bytes exceeds max {MAX_FRAME_LEN}"
                )
            }
            FrameError::UnknownOpcode(op) => write!(f, "unknown opcode 0x{op:02x}"),
            FrameError::BadPayload(reason) => write!(f, "bad payload: {reason}"),
            FrameError::Trailing { extra } => {
                write!(f, "{extra} trailing byte(s) after a complete frame")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// A transport-level failure: either the socket died or the peer sent an
/// unparseable frame.
#[derive(Debug)]
pub enum WireError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// The bytes arrived but were not a valid frame.
    Frame(FrameError),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "{e}"),
            WireError::Frame(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

impl From<FrameError> for WireError {
    fn from(e: FrameError) -> Self {
        WireError::Frame(e)
    }
}

// Request opcodes.
const OP_CONNECTED: u8 = 0x01;
const OP_COMPONENT: u8 = 0x02;
const OP_COMPONENT_SIZE: u8 = 0x03;
const OP_NUM_COMPONENTS: u8 = 0x04;
const OP_INSERT_EDGES: u8 = 0x05;
const OP_STATS: u8 = 0x06;
const OP_SHUTDOWN: u8 = 0x07;
const OP_METRICS: u8 = 0x08;
const OP_CREATE_TENANT: u8 = 0x09;
const OP_DROP_TENANT: u8 = 0x0A;
const OP_LIST_TENANTS: u8 = 0x0B;
const OP_DUMP_TRACES: u8 = 0x0C;
const OP_RESOLVE: u8 = 0x0D;

// Response opcodes.
const OP_R_CONNECTED: u8 = 0x81;
const OP_R_COMPONENT: u8 = 0x82;
const OP_R_COMPONENT_SIZE: u8 = 0x83;
const OP_R_NUM_COMPONENTS: u8 = 0x84;
const OP_R_ACCEPTED: u8 = 0x85;
const OP_R_STATS: u8 = 0x86;
const OP_R_BYE: u8 = 0x87;
const OP_R_OVERLOADED: u8 = 0x88;
const OP_R_METRICS: u8 = 0x89;
const OP_R_TENANT_CREATED: u8 = 0x8A;
const OP_R_TENANT_DROPPED: u8 = 0x8B;
const OP_R_TENANTS: u8 = 0x8C;
const OP_R_DEGRADED: u8 = 0x8D;
const OP_R_TRACES: u8 = 0x8E;
const OP_R_RESOLVED: u8 = 0x8F;
const OP_R_ERR: u8 = 0xC0;

/// Incremental little-endian payload reader with typed errors.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        let end = self.pos.checked_add(n).ok_or(FrameError::BadPayload(
            "field length overflows the payload cursor",
        ))?;
        if end > self.buf.len() {
            return Err(FrameError::Truncated {
                needed: end,
                got: self.buf.len(),
            });
        }
        // PANIC-OK: `end <= buf.len()` checked above and `pos <= end`
        // by construction (pos only ever advances to a checked `end`).
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, FrameError> {
        // PANIC-OK: `take(1)` returned exactly one byte.
        Ok(self.take(1)?[0])
    }

    /// The next byte without consuming it (`None` at end of payload).
    fn peek(&self) -> Option<u8> {
        self.buf.get(self.pos).copied()
    }

    fn u32(&mut self) -> Result<u32, FrameError> {
        let b = self.take(4)?;
        // PANIC-OK: `take(4)` returned exactly four bytes.
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, FrameError> {
        let b = self.take(8)?;
        // PANIC-OK: `take(8)` returned exactly eight bytes, so the
        // slice-to-array conversion cannot fail.
        Ok(u64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    fn finish(self) -> Result<(), FrameError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(FrameError::Trailing {
                extra: self.buf.len() - self.pos,
            })
        }
    }

    /// Everything not yet consumed (used by the envelope decoder to hand
    /// the inner payload to the v1 decoder).
    fn rest(self) -> &'a [u8] {
        // PANIC-OK: `pos <= buf.len()` is the cursor invariant (`pos`
        // only advances to an `end` bounds-checked in `take`).
        &self.buf[self.pos..]
    }
}

/// Appends a length-prefixed (`u8`) tenant name. Names are validated at
/// construction to at most [`crate::tenant::MAX_TENANT_LEN`] (= 64)
/// bytes, so the cast cannot truncate.
fn push_tenant(out: &mut Vec<u8>, name: &TenantId) {
    out.push(name.as_str().len() as u8);
    out.extend_from_slice(name.as_str().as_bytes());
}

/// Reads a length-prefixed tenant name written by [`push_tenant`].
fn take_tenant(c: &mut Cursor<'_>) -> Result<TenantId, FrameError> {
    let len = c.u8()? as usize;
    let raw = c.take(len)?;
    let name =
        std::str::from_utf8(raw).map_err(|_| FrameError::BadPayload("tenant name is not UTF-8"))?;
    TenantId::new(name)
        .map_err(|_| FrameError::BadPayload("invalid tenant name (1..=64 bytes of [a-z0-9_-])"))
}

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Encodes a request payload (opcode + fields, no length prefix).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut out = Vec::with_capacity(16);
    match req {
        Request::Connected(u, v) => {
            out.push(OP_CONNECTED);
            push_u32(&mut out, *u);
            push_u32(&mut out, *v);
        }
        Request::Component(u) => {
            out.push(OP_COMPONENT);
            push_u32(&mut out, *u);
        }
        Request::ComponentSize(u) => {
            out.push(OP_COMPONENT_SIZE);
            push_u32(&mut out, *u);
        }
        Request::NumComponents => out.push(OP_NUM_COMPONENTS),
        Request::InsertEdges(edges) => {
            out.reserve(5 + edges.len() * 8);
            out.push(OP_INSERT_EDGES);
            push_u32(&mut out, edges.len() as u32);
            for &(u, v) in edges {
                push_u32(&mut out, u);
                push_u32(&mut out, v);
            }
        }
        Request::Stats => out.push(OP_STATS),
        Request::Metrics => out.push(OP_METRICS),
        Request::Shutdown => out.push(OP_SHUTDOWN),
        Request::CreateTenant { name, vertices } => {
            out.push(OP_CREATE_TENANT);
            push_tenant(&mut out, name);
            push_u64(&mut out, *vertices);
        }
        Request::DropTenant { name } => {
            out.push(OP_DROP_TENANT);
            push_tenant(&mut out, name);
        }
        Request::ListTenants => out.push(OP_LIST_TENANTS),
        Request::DumpTraces => out.push(OP_DUMP_TRACES),
        Request::Resolve(ids) => {
            out.reserve(5 + ids.len() * 4);
            out.push(OP_RESOLVE);
            push_u32(&mut out, ids.len() as u32);
            for &u in ids {
                push_u32(&mut out, u);
            }
        }
    }
    out
}

/// Encodes a v2 request payload: the tenant envelope wrapping the v1
/// encoding of `req`, with no trace context.
pub fn encode_request_v2(tenant: &TenantId, req: &Request) -> Vec<u8> {
    encode_request_traced(tenant, TraceCtx::NONE, req)
}

/// Encodes a v2 request payload carrying `ctx` (omitted when
/// unsampled, so an untraced call is byte-identical to
/// [`encode_request_v2`]).
pub fn encode_request_traced(tenant: &TenantId, ctx: TraceCtx, req: &Request) -> Vec<u8> {
    let inner = encode_request(req);
    let mut out = Vec::with_capacity(20 + tenant.as_str().len() + inner.len());
    out.push(ENVELOPE_MARKER);
    out.push(WIRE_V2);
    push_tenant(&mut out, tenant);
    if ctx.sampled() {
        out.push(TRACE_MARKER);
        push_u64(&mut out, ctx.trace_id);
        push_u64(&mut out, ctx.parent_span);
    }
    out.extend_from_slice(&inner);
    out
}

/// Decodes a request payload of either wire version: enveloped payloads
/// yield their tenant, bare (v1) payloads route to `default`. Total
/// function, like [`decode_request`]. Drops any trace context; servers
/// use [`decode_request_traced`].
pub fn decode_request_any(payload: &[u8]) -> Result<(WireVersion, TenantId, Request), FrameError> {
    decode_request_traced(payload).map(|(ver, tenant, _, req)| (ver, tenant, req))
}

/// [`decode_request_any`] plus the envelope's trace context
/// ([`TraceCtx::NONE`] for v1 and contextless v2 payloads).
pub fn decode_request_traced(
    payload: &[u8],
) -> Result<(WireVersion, TenantId, TraceCtx, Request), FrameError> {
    if payload.first() != Some(&ENVELOPE_MARKER) {
        return Ok((
            WireVersion::V1,
            TenantId::default_tenant(),
            TraceCtx::NONE,
            decode_request(payload)?,
        ));
    }
    let mut c = Cursor::new(payload);
    let _marker = c.u8()?;
    let version = c.u8()?;
    if version != WIRE_V2 {
        return Err(FrameError::BadPayload("unsupported wire version"));
    }
    let tenant = take_tenant(&mut c)?;
    let mut ctx = TraceCtx::NONE;
    if c.peek() == Some(TRACE_MARKER) {
        let _tag = c.u8()?;
        ctx = TraceCtx {
            trace_id: c.u64()?,
            parent_span: c.u64()?,
        };
    }
    let req = decode_request(c.rest())?;
    Ok((WireVersion::V2, tenant, ctx, req))
}

/// Decodes a request payload. Total function: every byte string yields
/// `Ok` or a typed [`FrameError`], never a panic.
pub fn decode_request(payload: &[u8]) -> Result<Request, FrameError> {
    let mut c = Cursor::new(payload);
    let req = match c.u8()? {
        OP_CONNECTED => Request::Connected(c.u32()?, c.u32()?),
        OP_COMPONENT => Request::Component(c.u32()?),
        OP_COMPONENT_SIZE => Request::ComponentSize(c.u32()?),
        OP_NUM_COMPONENTS => Request::NumComponents,
        OP_INSERT_EDGES => {
            let count = c.u32()? as usize;
            // The count must be consistent with the payload length before
            // any allocation (a lying count is not an OOM vector).
            let declared = count
                .checked_mul(8)
                .ok_or(FrameError::BadPayload("edge count overflows"))?;
            if payload.len() < 5 + declared {
                return Err(FrameError::Truncated {
                    needed: 5 + declared,
                    got: payload.len(),
                });
            }
            let mut edges = Vec::with_capacity(count);
            for _ in 0..count {
                edges.push((c.u32()?, c.u32()?));
            }
            Request::InsertEdges(edges)
        }
        OP_STATS => Request::Stats,
        OP_METRICS => Request::Metrics,
        OP_SHUTDOWN => Request::Shutdown,
        OP_CREATE_TENANT => Request::CreateTenant {
            name: take_tenant(&mut c)?,
            vertices: c.u64()?,
        },
        OP_DROP_TENANT => Request::DropTenant {
            name: take_tenant(&mut c)?,
        },
        OP_LIST_TENANTS => Request::ListTenants,
        OP_DUMP_TRACES => Request::DumpTraces,
        OP_RESOLVE => {
            let count = c.u32()? as usize;
            // A lying count is caught against the payload length before
            // any allocation, as for `InsertEdges`.
            let declared = count
                .checked_mul(4)
                .ok_or(FrameError::BadPayload("id count overflows"))?;
            if payload.len() < 5 + declared {
                return Err(FrameError::Truncated {
                    needed: 5 + declared,
                    got: payload.len(),
                });
            }
            let mut ids = Vec::with_capacity(count);
            for _ in 0..count {
                ids.push(c.u32()?);
            }
            Request::Resolve(ids)
        }
        op => return Err(FrameError::UnknownOpcode(op)),
    };
    c.finish()?;
    Ok(req)
}

/// Encodes a v1 response payload (opcode + fields, no length prefix).
/// `Stats` uses the frozen positional layout pre-v2 clients decode.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    encode_response_with(resp, WireVersion::V1)
}

/// Encodes a v2 response payload: identical to v1 except `Stats`, which
/// carries the versioned self-describing encoding.
pub fn encode_response_v2(resp: &Response) -> Vec<u8> {
    encode_response_with(resp, WireVersion::V2)
}

fn encode_response_with(resp: &Response, version: WireVersion) -> Vec<u8> {
    let mut out = Vec::with_capacity(16);
    match resp {
        Response::Connected(b) => {
            out.push(OP_R_CONNECTED);
            out.push(*b as u8);
        }
        Response::Component(l) => {
            out.push(OP_R_COMPONENT);
            push_u32(&mut out, *l);
        }
        Response::ComponentSize(s) => {
            out.push(OP_R_COMPONENT_SIZE);
            push_u64(&mut out, *s);
        }
        Response::NumComponents(c) => {
            out.push(OP_R_NUM_COMPONENTS);
            push_u64(&mut out, *c);
        }
        Response::Accepted { edges } => {
            out.push(OP_R_ACCEPTED);
            push_u32(&mut out, *edges);
        }
        Response::Stats(s) => {
            out.push(OP_R_STATS);
            match version {
                // Frozen positional layout: nine u64s, no version byte,
                // no `tenants` field. Never grows again.
                WireVersion::V1 => {
                    push_u64(&mut out, s.epoch);
                    push_u64(&mut out, s.vertices);
                    push_u64(&mut out, s.num_components);
                    push_u64(&mut out, s.edges_ingested);
                    push_u64(&mut out, s.epochs_published);
                    push_u64(&mut out, s.queue_depth);
                    push_u64(&mut out, s.requests_shed);
                    push_u64(&mut out, s.wal_records);
                    push_u64(&mut out, s.faults_injected);
                }
                WireVersion::V2 => {
                    let fields = [
                        (TAG_EPOCH, s.epoch),
                        (TAG_VERTICES, s.vertices),
                        (TAG_NUM_COMPONENTS, s.num_components),
                        (TAG_EDGES_INGESTED, s.edges_ingested),
                        (TAG_EPOCHS_PUBLISHED, s.epochs_published),
                        (TAG_QUEUE_DEPTH, s.queue_depth),
                        (TAG_REQUESTS_SHED, s.requests_shed),
                        (TAG_WAL_RECORDS, s.wal_records),
                        (TAG_FAULTS_INJECTED, s.faults_injected),
                        (TAG_TENANTS, s.tenants),
                    ];
                    out.push(STATS_VERSION);
                    out.push(fields.len() as u8);
                    for (tag, value) in fields {
                        out.push(tag);
                        push_u64(&mut out, value);
                    }
                }
            }
        }
        Response::Metrics(text) => {
            out.push(OP_R_METRICS);
            out.extend_from_slice(text.as_bytes());
        }
        Response::Bye => out.push(OP_R_BYE),
        Response::Overloaded { queue_depth } => {
            out.push(OP_R_OVERLOADED);
            push_u64(&mut out, *queue_depth);
        }
        Response::Err(msg) => {
            out.push(OP_R_ERR);
            out.extend_from_slice(msg.as_bytes());
        }
        Response::TenantCreated => out.push(OP_R_TENANT_CREATED),
        Response::TenantDropped => out.push(OP_R_TENANT_DROPPED),
        Response::Tenants(names) => {
            out.push(OP_R_TENANTS);
            push_u32(&mut out, names.len() as u32);
            for name in names {
                out.push(name.len() as u8);
                out.extend_from_slice(name.as_bytes());
            }
        }
        Response::Traces { node, spans } => {
            out.reserve(6 + node.len() + spans.len() * SPAN_WIRE_BYTES);
            out.push(OP_R_TRACES);
            out.push(node.len().min(255) as u8);
            // PANIC-OK: min(len, 255) never exceeds the slice length.
            out.extend_from_slice(&node.as_bytes()[..node.len().min(255)]);
            push_u32(&mut out, spans.len() as u32);
            for s in spans {
                push_u64(&mut out, s.trace_id);
                push_u64(&mut out, s.span_id);
                push_u64(&mut out, s.parent_span);
                push_u64(&mut out, u64::from(s.stage));
                push_u64(&mut out, s.arg);
                push_u64(&mut out, s.start_us);
                push_u64(&mut out, s.dur_ns);
            }
        }
        Response::Resolved {
            epoch,
            num_components,
            entries,
        } => {
            out.reserve(RESOLVED_HEADER_BYTES + entries.len() * RESOLVED_ENTRY_BYTES);
            out.push(OP_R_RESOLVED);
            push_u64(&mut out, *epoch);
            push_u64(&mut out, *num_components);
            push_u32(&mut out, entries.len() as u32);
            for &(label, size) in entries {
                push_u32(&mut out, label);
                push_u64(&mut out, size);
            }
        }
        Response::Degraded(inner) => match version {
            // The degraded tag wraps the inner response's own encoding.
            WireVersion::V2 => {
                out.push(OP_R_DEGRADED);
                out.extend_from_slice(&encode_response_with(inner, version));
            }
            // v1 predates the tag: a partial answer a client cannot
            // recognize as partial must not look authoritative, so it
            // degrades to an in-band error.
            WireVersion::V1 => {
                out.push(OP_R_ERR);
                out.extend_from_slice(
                    "degraded answer (one or more shards unavailable); \
                     wire v2 clients receive the partial result"
                        .as_bytes(),
                );
            }
        },
    }
    out
}

/// Decodes a v1 response payload (`Stats` in the frozen positional
/// layout).
pub fn decode_response(payload: &[u8]) -> Result<Response, FrameError> {
    decode_response_with(payload, WireVersion::V1)
}

/// Decodes a v2 response payload (`Stats` in the versioned
/// self-describing layout).
pub fn decode_response_v2(payload: &[u8]) -> Result<Response, FrameError> {
    decode_response_with(payload, WireVersion::V2)
}

fn decode_response_with(payload: &[u8], version: WireVersion) -> Result<Response, FrameError> {
    let mut c = Cursor::new(payload);
    let resp = match c.u8()? {
        OP_R_CONNECTED => match c.u8()? {
            0 => Response::Connected(false),
            1 => Response::Connected(true),
            _ => return Err(FrameError::BadPayload("boolean must be 0 or 1")),
        },
        OP_R_COMPONENT => Response::Component(c.u32()?),
        OP_R_COMPONENT_SIZE => Response::ComponentSize(c.u64()?),
        OP_R_NUM_COMPONENTS => Response::NumComponents(c.u64()?),
        OP_R_ACCEPTED => Response::Accepted { edges: c.u32()? },
        OP_R_STATS => match version {
            WireVersion::V1 => Response::Stats(StatsReport {
                epoch: c.u64()?,
                vertices: c.u64()?,
                num_components: c.u64()?,
                edges_ingested: c.u64()?,
                epochs_published: c.u64()?,
                queue_depth: c.u64()?,
                requests_shed: c.u64()?,
                wal_records: c.u64()?,
                faults_injected: c.u64()?,
                tenants: 0,
            }),
            WireVersion::V2 => {
                if c.u8()? != STATS_VERSION {
                    return Err(FrameError::BadPayload("unsupported stats version"));
                }
                let count = c.u8()?;
                let mut s = StatsReport::default();
                for _ in 0..count {
                    let tag = c.u8()?;
                    let value = c.u64()?;
                    match tag {
                        TAG_EPOCH => s.epoch = value,
                        TAG_VERTICES => s.vertices = value,
                        TAG_NUM_COMPONENTS => s.num_components = value,
                        TAG_EDGES_INGESTED => s.edges_ingested = value,
                        TAG_EPOCHS_PUBLISHED => s.epochs_published = value,
                        TAG_QUEUE_DEPTH => s.queue_depth = value,
                        TAG_REQUESTS_SHED => s.requests_shed = value,
                        TAG_WAL_RECORDS => s.wal_records = value,
                        TAG_FAULTS_INJECTED => s.faults_injected = value,
                        TAG_TENANTS => s.tenants = value,
                        // Unknown tag: a field from a newer server.
                        // Self-describing means we can skip it instead of
                        // misparsing everything after it.
                        _ => {}
                    }
                }
                Response::Stats(s)
            }
        },
        OP_R_METRICS => {
            let rest = c.take(payload.len() - 1)?;
            let text = std::str::from_utf8(rest)
                .map_err(|_| FrameError::BadPayload("metrics exposition is not UTF-8"))?;
            Response::Metrics(text.to_string())
        }
        OP_R_BYE => Response::Bye,
        OP_R_OVERLOADED => Response::Overloaded {
            queue_depth: c.u64()?,
        },
        OP_R_ERR => {
            let rest = c.take(payload.len() - 1)?;
            let msg = std::str::from_utf8(rest)
                .map_err(|_| FrameError::BadPayload("error message is not UTF-8"))?;
            Response::Err(msg.to_string())
        }
        OP_R_TENANT_CREATED => Response::TenantCreated,
        OP_R_TENANT_DROPPED => Response::TenantDropped,
        OP_R_TENANTS => {
            let count = c.u32()? as usize;
            // Each entry is at least its one-byte length prefix, so a
            // lying count is caught before any allocation.
            if count > payload.len() {
                return Err(FrameError::Truncated {
                    needed: 5 + count,
                    got: payload.len(),
                });
            }
            let mut names = Vec::with_capacity(count);
            for _ in 0..count {
                let len = c.u8()? as usize;
                let raw = c.take(len)?;
                let name = std::str::from_utf8(raw)
                    .map_err(|_| FrameError::BadPayload("tenant name is not UTF-8"))?;
                names.push(name.to_string());
            }
            Response::Tenants(names)
        }
        OP_R_TRACES => {
            let node_len = c.u8()? as usize;
            let raw = c.take(node_len)?;
            let node = std::str::from_utf8(raw)
                .map_err(|_| FrameError::BadPayload("node name is not UTF-8"))?
                .to_string();
            let count = c.u32()? as usize;
            // Fixed-width spans: a lying count is caught against the
            // payload length before any allocation.
            let declared = count
                .checked_mul(SPAN_WIRE_BYTES)
                .ok_or(FrameError::BadPayload("span count overflows"))?;
            if payload.len() < 6 + node_len + declared {
                return Err(FrameError::Truncated {
                    needed: 6 + node_len + declared,
                    got: payload.len(),
                });
            }
            let mut spans = Vec::with_capacity(count);
            for _ in 0..count {
                spans.push(Span {
                    trace_id: c.u64()?,
                    span_id: c.u64()?,
                    parent_span: c.u64()?,
                    stage: c.u64()? as u16,
                    arg: c.u64()?,
                    start_us: c.u64()?,
                    dur_ns: c.u64()?,
                });
            }
            Response::Traces { node, spans }
        }
        OP_R_RESOLVED => {
            let epoch = c.u64()?;
            let num_components = c.u64()?;
            let count = c.u32()? as usize;
            // Fixed-width entries: a lying count is caught against the
            // payload length before any allocation.
            let declared = count
                .checked_mul(RESOLVED_ENTRY_BYTES)
                .ok_or(FrameError::BadPayload("entry count overflows"))?;
            if payload.len() < RESOLVED_HEADER_BYTES + declared {
                return Err(FrameError::Truncated {
                    needed: RESOLVED_HEADER_BYTES + declared,
                    got: payload.len(),
                });
            }
            let mut entries = Vec::with_capacity(count);
            for _ in 0..count {
                entries.push((c.u32()?, c.u64()?));
            }
            Response::Resolved {
                epoch,
                num_components,
                entries,
            }
        }
        OP_R_DEGRADED => {
            let rest = c.rest();
            // Reject nesting before recursing: a payload of repeated
            // degraded tags must not recurse once per byte.
            if rest.first() == Some(&OP_R_DEGRADED) {
                return Err(FrameError::BadPayload("nested degraded response"));
            }
            // The inner decoder consumes (and `finish`es) the rest.
            let inner = decode_response_with(rest, version)?;
            return Ok(Response::Degraded(Box::new(inner)));
        }
        op => return Err(FrameError::UnknownOpcode(op)),
    };
    c.finish()?;
    Ok(resp)
}

/// Writes one length-prefixed frame. The prefix and payload go out in a
/// single `write_all` so a frame is one TCP segment for small payloads.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    debug_assert!(payload.len() <= MAX_FRAME_LEN);
    let mut buf = Vec::with_capacity(4 + payload.len());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(payload);
    w.write_all(&buf)?;
    w.flush()
}

/// Reads one length-prefixed frame. Returns `Ok(None)` on clean EOF
/// (peer closed between frames); a mid-frame EOF or an oversized /
/// zero-length prefix is an error.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, WireError> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        // PANIC-OK: `filled < 4` loop bound keeps the range in the array.
        match r.read(&mut len_buf[filled..])? {
            0 if filled == 0 => return Ok(None),
            0 => {
                return Err(FrameError::Truncated {
                    needed: 4,
                    got: filled,
                }
                .into())
            }
            n => filled += n,
        }
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME_LEN {
        return Err(FrameError::Oversized { len }.into());
    }
    if len == 0 {
        return Err(FrameError::BadPayload("zero-length payload").into());
    }
    let mut payload = vec![0u8; len];
    let mut read = 0;
    while read < len {
        // PANIC-OK: `read < len` loop bound keeps the range in the vec.
        match r.read(&mut payload[read..])? {
            0 => {
                return Err(FrameError::Truncated {
                    needed: len,
                    got: read,
                }
                .into())
            }
            n => read += n,
        }
    }
    Ok(Some(payload))
}

/// Sends `req` as a v1 frame and reads the matching response (simple
/// blocking RPC used by clients and the load generator).
pub fn call(stream: &mut (impl Read + Write), req: &Request) -> Result<Response, WireError> {
    write_frame(stream, &encode_request(req))?;
    let payload = read_frame(stream)?.ok_or_else(closed_early)?;
    Ok(decode_response(&payload)?)
}

/// Sends `req` as a v2 frame scoped to `tenant` and reads the matching
/// (v2-encoded) response.
pub fn call_v2(
    stream: &mut (impl Read + Write),
    tenant: &TenantId,
    req: &Request,
) -> Result<Response, WireError> {
    call_traced(stream, tenant, TraceCtx::NONE, req)
}

/// [`call_v2`] carrying a trace context in the envelope.
pub fn call_traced(
    stream: &mut (impl Read + Write),
    tenant: &TenantId,
    ctx: TraceCtx,
    req: &Request,
) -> Result<Response, WireError> {
    write_frame(stream, &encode_request_traced(tenant, ctx, req))?;
    let payload = read_frame(stream)?.ok_or_else(closed_early)?;
    Ok(decode_response_v2(&payload)?)
}

fn closed_early() -> WireError {
    WireError::Io(std::io::Error::new(
        std::io::ErrorKind::UnexpectedEof,
        "server closed before responding",
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_requests() -> Vec<Request> {
        vec![
            Request::Connected(0, u32::MAX),
            Request::Component(7),
            Request::ComponentSize(123),
            Request::NumComponents,
            Request::InsertEdges(vec![]),
            Request::InsertEdges(vec![(1, 2), (3, 4), (0, 0)]),
            Request::Stats,
            Request::Metrics,
            Request::Shutdown,
            Request::CreateTenant {
                name: TenantId::new("tenant-a").unwrap(),
                vertices: 1 << 20,
            },
            Request::DropTenant {
                name: TenantId::new("tenant-a").unwrap(),
            },
            Request::ListTenants,
            Request::DumpTraces,
            Request::Resolve(vec![]),
            Request::Resolve(vec![0, 7, u32::MAX]),
        ]
    }

    fn sample_span(i: u64) -> Span {
        Span {
            trace_id: 0xAB00 + i,
            span_id: (7 << 48) | i,
            parent_span: i / 2,
            stage: (i % 10 + 1) as u16,
            arg: i * 3,
            start_us: 1_700_000_000_000_000 + i,
            dur_ns: 42_000 + i,
        }
    }

    fn sample_responses() -> Vec<Response> {
        vec![
            Response::Connected(true),
            Response::Connected(false),
            Response::Component(42),
            Response::ComponentSize(1 << 40),
            Response::NumComponents(3),
            Response::Accepted { edges: 512 },
            Response::Stats(StatsReport {
                epoch: 9,
                vertices: 1_000_000,
                num_components: 17,
                edges_ingested: 5_000_000,
                epochs_published: 8,
                queue_depth: 64,
                requests_shed: 12,
                wal_records: 7,
                faults_injected: 3,
                tenants: 0,
            }),
            Response::Metrics("# TYPE x counter\nx 1\n".into()),
            Response::Metrics(String::new()),
            Response::Bye,
            Response::Overloaded { queue_depth: 9999 },
            Response::Err("vertex 99 out of range".into()),
            Response::Err(String::new()),
            Response::TenantCreated,
            Response::TenantDropped,
            Response::Tenants(vec![]),
            Response::Tenants(vec!["default".into(), "tenant-a".into()]),
            Response::Traces {
                node: "router".into(),
                spans: vec![],
            },
            Response::Traces {
                node: "serve".into(),
                spans: (0..5).map(sample_span).collect(),
            },
            Response::Resolved {
                epoch: 0,
                num_components: 1,
                entries: vec![],
            },
            Response::Resolved {
                epoch: u64::MAX - 1,
                num_components: 1 << 33,
                entries: vec![(0, 1), (u32::MAX, 1 << 40), (7, 3)],
            },
        ]
    }

    #[test]
    fn request_roundtrip() {
        for req in sample_requests() {
            let enc = encode_request(&req);
            assert_eq!(decode_request(&enc).unwrap(), req, "{req:?}");
        }
    }

    #[test]
    fn response_roundtrip() {
        for resp in sample_responses() {
            let enc = encode_response(&resp);
            assert_eq!(decode_response(&enc).unwrap(), resp, "{resp:?}");
        }
    }

    /// Fuzz-ish: every strict prefix of every valid payload must decode
    /// to a typed error — never panic, never succeed.
    #[test]
    fn truncated_payloads_yield_typed_errors() {
        for req in sample_requests() {
            let enc = encode_request(&req);
            for cut in 0..enc.len() {
                let err = decode_request(&enc[..cut])
                    .expect_err(&format!("{req:?} truncated to {cut} bytes decoded"));
                assert!(
                    matches!(
                        err,
                        FrameError::Truncated { .. } | FrameError::BadPayload(_)
                    ),
                    "{req:?} cut at {cut}: unexpected error {err:?}"
                );
            }
        }
        type ResponseDecoder = fn(&[u8]) -> Result<Response, FrameError>;
        for resp in sample_responses() {
            let cases: [(Vec<u8>, ResponseDecoder); 2] = [
                (encode_response(&resp), decode_response),
                (encode_response_v2(&resp), decode_response_v2),
            ];
            for (enc, decode) in cases {
                for cut in 0..enc.len() {
                    if decode(&enc[..cut]).is_ok() {
                        // The only prefixes that may decode are shortened
                        // trailing-text payloads (Err and Metrics carry
                        // raw UTF-8 delimited by the frame length).
                        assert!(
                            matches!(resp, Response::Err(_) | Response::Metrics(_)),
                            "{resp:?} cut at {cut} decoded"
                        );
                    }
                }
            }
        }
        // The envelope itself: every strict prefix errs, never panics.
        let enc = encode_request_v2(
            &TenantId::new("tenant-a").unwrap(),
            &Request::Connected(1, 2),
        );
        for cut in 0..enc.len() {
            assert!(decode_request_any(&enc[..cut]).is_err(), "cut at {cut}");
        }
    }

    /// Fuzz-ish: trailing garbage after a complete value is rejected.
    #[test]
    fn trailing_bytes_rejected() {
        for req in sample_requests() {
            let mut enc = encode_request(&req);
            enc.push(0xAB);
            assert_eq!(
                decode_request(&enc).unwrap_err(),
                FrameError::Trailing { extra: 1 },
                "{req:?}"
            );
        }
    }

    /// Fuzz-ish: deterministic pseudo-random byte soup never panics and
    /// never aliases to a valid frame silently growing huge buffers.
    #[test]
    fn garbage_payloads_never_panic() {
        let mut state = 0x12345678u64;
        for trial in 0..2_000 {
            let len = (trial % 64) + 1;
            let bytes: Vec<u8> = (0..len)
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    (state >> 33) as u8
                })
                .collect();
            // Must return, not panic; both Ok and Err are acceptable.
            let _ = decode_request(&bytes);
            let _ = decode_request_any(&bytes);
            let _ = decode_response(&bytes);
            let _ = decode_response_v2(&bytes);
        }
    }

    #[test]
    fn v2_envelope_roundtrips_every_request() {
        for name in ["default", "tenant-a", "x"] {
            let tenant = TenantId::new(name).unwrap();
            for req in sample_requests() {
                let enc = encode_request_v2(&tenant, &req);
                assert_eq!(enc[0], ENVELOPE_MARKER);
                let (ver, got_tenant, got) = decode_request_any(&enc).expect("v2 decodes");
                assert_eq!(ver, WireVersion::V2);
                assert_eq!(got_tenant, tenant);
                assert_eq!(got, req, "{req:?} via {name}");
            }
        }
    }

    #[test]
    fn v1_payloads_route_to_the_default_tenant() {
        for req in sample_requests() {
            let (ver, tenant, got) = decode_request_any(&encode_request(&req)).unwrap();
            assert_eq!(ver, WireVersion::V1);
            assert!(tenant.is_default());
            assert_eq!(got, req);
        }
    }

    #[test]
    fn v2_envelope_rejects_bad_version_and_bad_names() {
        let tenant = TenantId::new("t").unwrap();
        let good = encode_request_v2(&tenant, &Request::Stats);

        let mut wrong_version = good.clone();
        wrong_version[1] = 3;
        assert_eq!(
            decode_request_any(&wrong_version).unwrap_err(),
            FrameError::BadPayload("unsupported wire version")
        );

        // Uppercase byte in the name: validation rejects at decode.
        let mut bad_name = good.clone();
        bad_name[3] = b'T';
        assert!(matches!(
            decode_request_any(&bad_name).unwrap_err(),
            FrameError::BadPayload(_)
        ));

        // Trailing garbage after the inner payload is still caught.
        let mut trailing = good;
        trailing.push(0xAB);
        assert_eq!(
            decode_request_any(&trailing).unwrap_err(),
            FrameError::Trailing { extra: 1 }
        );
    }

    #[test]
    fn traced_envelopes_roundtrip_and_contextless_frames_stay_none() {
        let tenant = TenantId::new("tenant-a").unwrap();
        let ctx = TraceCtx {
            trace_id: 0xDEAD_BEEF_CAFE_0001,
            parent_span: (9 << 48) | 3,
        };
        for req in sample_requests() {
            let enc = encode_request_traced(&tenant, ctx, &req);
            let (ver, got_tenant, got_ctx, got) =
                decode_request_traced(&enc).expect("traced v2 decodes");
            assert_eq!(ver, WireVersion::V2);
            assert_eq!(got_tenant, tenant);
            assert_eq!(got_ctx, ctx, "{req:?}");
            assert_eq!(got, req);
            // Every strict prefix errors, never panics.
            for cut in 0..enc.len() {
                assert!(decode_request_traced(&enc[..cut]).is_err(), "cut {cut}");
            }
            // Trailing garbage after the inner payload is still caught.
            let mut trailing = enc;
            trailing.push(0xAB);
            assert!(decode_request_traced(&trailing).is_err());
        }
        // An unsampled context encodes to the plain v2 envelope …
        let plain = encode_request_v2(&tenant, &Request::Stats);
        assert_eq!(
            encode_request_traced(&tenant, TraceCtx::NONE, &Request::Stats),
            plain
        );
        // … and contextless v2 / bare v1 payloads decode with NONE.
        let (_, _, got_ctx, _) = decode_request_traced(&plain).unwrap();
        assert_eq!(got_ctx, TraceCtx::NONE);
        let (ver, tenant, got_ctx, req) =
            decode_request_traced(&encode_request(&Request::NumComponents)).unwrap();
        assert_eq!(ver, WireVersion::V1);
        assert!(tenant.is_default());
        assert_eq!(got_ctx, TraceCtx::NONE);
        assert_eq!(req, Request::NumComponents);
    }

    #[test]
    fn traces_decode_rejects_lying_counts_and_bad_node_names() {
        // Claims 1M spans but carries none: caught before allocation.
        let mut enc = vec![OP_R_TRACES, 1, b'r'];
        enc.extend_from_slice(&1_000_000u32.to_le_bytes());
        assert!(matches!(
            decode_response_v2(&enc).unwrap_err(),
            FrameError::Truncated { .. }
        ));
        // Node name must be UTF-8.
        let mut bad = vec![OP_R_TRACES, 1, 0xFF];
        bad.extend_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            decode_response_v2(&bad).unwrap_err(),
            FrameError::BadPayload(_)
        ));
    }

    #[test]
    fn stats_v2_carries_tenants_and_v1_stays_frozen() {
        let stats = StatsReport {
            epoch: 4,
            tenants: 3,
            ..StatsReport::default()
        };
        let resp = Response::Stats(stats.clone());

        // v1: the frozen 73-byte positional layout, `tenants` dropped.
        let v1 = encode_response(&resp);
        assert_eq!(v1.len(), 73);
        match decode_response(&v1).unwrap() {
            Response::Stats(s) => {
                assert_eq!(s.epoch, 4);
                assert_eq!(s.tenants, 0, "v1 cannot carry the tenants field");
            }
            other => panic!("expected stats, got {other:?}"),
        }

        // v2: lossless.
        let v2 = encode_response_v2(&resp);
        assert_eq!(decode_response_v2(&v2).unwrap(), resp);
    }

    #[test]
    fn stats_v2_skips_unknown_tags_and_rejects_unknown_versions() {
        // Hand-build a v2 stats payload with one known and one unknown
        // field: a newer server's extra field must not break decoding.
        let mut enc = vec![OP_R_STATS, STATS_VERSION, 2];
        enc.push(TAG_EPOCH);
        enc.extend_from_slice(&7u64.to_le_bytes());
        enc.push(200); // unknown tag
        enc.extend_from_slice(&99u64.to_le_bytes());
        match decode_response_v2(&enc).unwrap() {
            Response::Stats(s) => {
                assert_eq!(s.epoch, 7);
                assert_eq!(s.vertices, 0);
            }
            other => panic!("expected stats, got {other:?}"),
        }

        let bad = vec![OP_R_STATS, 9, 0];
        assert_eq!(
            decode_response_v2(&bad).unwrap_err(),
            FrameError::BadPayload("unsupported stats version")
        );
    }

    #[test]
    fn degraded_roundtrips_v2_and_degrades_to_err_on_v1() {
        let samples = vec![
            Response::Degraded(Box::new(Response::Connected(false))),
            Response::Degraded(Box::new(Response::Component(7))),
            Response::Degraded(Box::new(Response::ComponentSize(0))),
            Response::Degraded(Box::new(Response::NumComponents(3))),
            Response::Degraded(Box::new(Response::Stats(StatsReport {
                epoch: 2,
                tenants: 3,
                ..StatsReport::default()
            }))),
        ];
        for resp in &samples {
            // v2: tagged, lossless.
            let v2 = encode_response_v2(resp);
            assert_eq!(v2[0], OP_R_DEGRADED);
            assert_eq!(decode_response_v2(&v2).unwrap(), *resp, "{resp:?}");
            // v1: a partial answer must not look authoritative.
            let v1 = encode_response(resp);
            match decode_response(&v1).unwrap() {
                Response::Err(msg) => assert!(msg.contains("degraded"), "{msg}"),
                other => panic!("v1 degraded decoded as {other:?}"),
            }
        }
    }

    #[test]
    fn degraded_decode_rejects_nesting_truncation_and_trailing() {
        // Nesting is rejected before recursing, so a payload of repeated
        // tags cannot recurse once per byte.
        let nested = vec![OP_R_DEGRADED, OP_R_DEGRADED, OP_R_CONNECTED, 1];
        assert_eq!(
            decode_response_v2(&nested).unwrap_err(),
            FrameError::BadPayload("nested degraded response")
        );
        // A payload that is nothing but degraded tags must error, not
        // overflow the stack.
        assert!(decode_response_v2(&[OP_R_DEGRADED; 64]).is_err());
        // Every strict prefix of a fixed-width inner payload errors.
        let enc = encode_response_v2(&Response::Degraded(Box::new(Response::NumComponents(9))));
        for cut in 0..enc.len() {
            assert!(decode_response_v2(&enc[..cut]).is_err(), "cut at {cut}");
        }
        // Trailing garbage after the inner payload is still caught.
        let mut trailing = enc;
        trailing.push(0xAB);
        assert!(matches!(
            decode_response_v2(&trailing).unwrap_err(),
            FrameError::Trailing { .. }
        ));
    }

    #[test]
    fn tenant_list_decode_rejects_lying_counts() {
        // Claims 1M names but carries none: caught before allocation.
        let mut enc = vec![OP_R_TENANTS];
        enc.extend_from_slice(&1_000_000u32.to_le_bytes());
        assert!(matches!(
            decode_response_v2(&enc).unwrap_err(),
            FrameError::Truncated { .. }
        ));
    }

    #[test]
    fn unknown_opcodes_are_named() {
        assert_eq!(
            decode_request(&[0x7F]).unwrap_err(),
            FrameError::UnknownOpcode(0x7F)
        );
        assert_eq!(
            decode_response(&[0x00]).unwrap_err(),
            FrameError::UnknownOpcode(0x00)
        );
        assert!(FrameError::UnknownOpcode(0x7F).to_string().contains("0x7f"));
    }

    #[test]
    fn insert_count_must_match_payload() {
        // Claims 1000 edges but carries one.
        let mut enc = vec![0x05];
        enc.extend_from_slice(&1000u32.to_le_bytes());
        enc.extend_from_slice(&[0u8; 8]);
        let err = decode_request(&enc).unwrap_err();
        assert!(matches!(err, FrameError::Truncated { .. }), "{err:?}");

        // Claims usize-overflowing count.
        let mut enc = vec![0x05];
        enc.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = decode_request(&enc).unwrap_err();
        assert!(
            matches!(
                err,
                FrameError::Truncated { .. } | FrameError::BadPayload(_)
            ),
            "{err:?}"
        );
    }

    #[test]
    fn resolve_counts_must_match_payload() {
        // A request claiming 1000 ids but carrying one.
        let mut enc = vec![OP_RESOLVE];
        enc.extend_from_slice(&1000u32.to_le_bytes());
        enc.extend_from_slice(&[0u8; 4]);
        let err = decode_request(&enc).unwrap_err();
        assert!(matches!(err, FrameError::Truncated { .. }), "{err:?}");
        // An answer claiming 1M entries but carrying none.
        let mut enc = vec![OP_R_RESOLVED];
        enc.extend_from_slice(&[0u8; 16]);
        enc.extend_from_slice(&1_000_000u32.to_le_bytes());
        let err = decode_response(&enc).unwrap_err();
        assert!(matches!(err, FrameError::Truncated { .. }), "{err:?}");
        // The largest answer a server may send fits in one frame.
        let largest = RESOLVED_HEADER_BYTES + MAX_RESOLVE_IDS * RESOLVED_ENTRY_BYTES;
        assert!(largest <= MAX_FRAME_LEN);
        assert!(largest + RESOLVED_ENTRY_BYTES > MAX_FRAME_LEN);
    }

    #[test]
    fn frame_io_roundtrip_and_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &encode_request(&Request::NumComponents)).unwrap();
        write_frame(&mut buf, &encode_request(&Request::Connected(1, 2))).unwrap();
        let mut r = &buf[..];
        assert_eq!(
            decode_request(&read_frame(&mut r).unwrap().unwrap()).unwrap(),
            Request::NumComponents
        );
        assert_eq!(
            decode_request(&read_frame(&mut r).unwrap().unwrap()).unwrap(),
            Request::Connected(1, 2)
        );
        // Clean EOF between frames.
        assert!(read_frame(&mut r).unwrap().is_none());
    }

    #[test]
    fn frame_reader_rejects_oversized_and_mid_frame_eof() {
        // Oversized declared length: rejected before allocation.
        let huge = ((MAX_FRAME_LEN + 1) as u32).to_le_bytes();
        match read_frame(&mut &huge[..]) {
            Err(WireError::Frame(FrameError::Oversized { len })) => {
                assert_eq!(len, MAX_FRAME_LEN + 1)
            }
            other => panic!("expected Oversized, got {other:?}"),
        }

        // Zero-length payload.
        let zero = 0u32.to_le_bytes();
        assert!(matches!(
            read_frame(&mut &zero[..]),
            Err(WireError::Frame(FrameError::BadPayload(_)))
        ));

        // EOF inside the length prefix.
        let partial = [5u8, 0];
        assert!(matches!(
            read_frame(&mut &partial[..]),
            Err(WireError::Frame(FrameError::Truncated {
                needed: 4,
                got: 2
            }))
        ));

        // EOF inside the payload.
        let mut buf = 10u32.to_le_bytes().to_vec();
        buf.extend_from_slice(&[1, 2, 3]);
        assert!(matches!(
            read_frame(&mut &buf[..]),
            Err(WireError::Frame(FrameError::Truncated {
                needed: 10,
                got: 3
            }))
        ));
    }

    #[test]
    fn error_display_is_readable() {
        let e = FrameError::Truncated { needed: 9, got: 2 };
        assert_eq!(e.to_string(), "truncated frame: needed 9 bytes, got 2");
        assert!(FrameError::Oversized { len: 1 << 30 }
            .to_string()
            .contains("exceeds max"));
        assert!(FrameError::Trailing { extra: 3 }.to_string().contains("3"));
        let w = WireError::from(FrameError::BadPayload("nope"));
        assert_eq!(w.to_string(), "bad payload: nope");
    }
}
