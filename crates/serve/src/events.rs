//! The serving stack's flight recorder: which events exist, the
//! process-global ring they land in, and the JSON dump format.
//!
//! The ring itself ([`afforest_obs::flight::Ring`]) is kind-agnostic;
//! this module pins down the serving vocabulary — every [`EventKind`],
//! its numeric code on the wire, and the meaning of its up-to-three
//! `u64` payload words — and owns the dump/ingest paths: a panic hook,
//! an explicit [`write_dump`] used on clean shutdown, and [`parse_dump`]
//! used by `afforest recover --events` and the chaos tests.
//!
//! Dump schema (`schema` key guards future changes):
//!
//! ```json
//! {
//!   "schema": 1,
//!   "recorded": 17,
//!   "events": [
//!     {"seq": 0, "ts_us": 1203, "kind": "epoch_published",
//!      "fields": {"epoch": 1, "edges": 64, "lag_us": 812}}
//!   ]
//! }
//! ```

use afforest_obs::flight::{Event, Ring};
use afforest_obs::json::{self, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// Current dump schema version.
pub const SCHEMA: u64 = 1;

/// Every event the serving stack records. Codes are stable (dumps from
/// older binaries stay readable); new kinds append.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u16)]
pub enum EventKind {
    /// The writer published a new epoch snapshot.
    /// Fields: epoch, edges applied, publish lag in µs.
    EpochPublished = 1,
    /// The writer applied a drained batch to the incremental structure.
    /// Fields: epoch it will publish as, edges, apply time in µs.
    BatchApplied = 2,
    /// The WAL compacted (snapshot written, log truncated).
    /// Fields: records dropped, log bytes dropped.
    WalCompaction = 3,
    /// Bounded-queue admission rejected an insert.
    /// Fields: queue depth at rejection, edges rejected, tenant ordinal.
    OverloadShed = 4,
    /// The chaos plan fired at one of its sites.
    /// Fields: site code (see [`fault_site`]), site-specific detail.
    FaultInjected = 5,
    /// An accept worker exited.
    /// Fields: worker index.
    WorkerDeath = 6,
    /// A WAL append or compaction failed with a real I/O error.
    /// Fields: epoch being written.
    WalError = 7,
    /// A tenant was admitted to the engine registry.
    /// Fields: tenant ordinal (registration order), vertex count.
    TenantCreated = 8,
    /// A tenant was removed from the engine registry.
    /// Fields: tenant ordinal.
    TenantDropped = 9,
    /// A shard's health state machine transitioned (router process).
    /// Fields: shard, old state code, new state code (0 = healthy,
    /// 1 = suspect, 2 = down, 3 = probing).
    ShardHealthChanged = 10,
    /// The router replayed a shard's parked write batches after the
    /// shard returned to healthy.
    /// Fields: shard, batches replayed, edges replayed.
    ParkReplayed = 11,
}

/// All kinds, for exhaustive iteration in tests and docs.
pub const KINDS: [EventKind; 11] = [
    EventKind::EpochPublished,
    EventKind::BatchApplied,
    EventKind::WalCompaction,
    EventKind::OverloadShed,
    EventKind::FaultInjected,
    EventKind::WorkerDeath,
    EventKind::WalError,
    EventKind::TenantCreated,
    EventKind::TenantDropped,
    EventKind::ShardHealthChanged,
    EventKind::ParkReplayed,
];

impl EventKind {
    /// The stable snake_case name used in dumps.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::EpochPublished => "epoch_published",
            EventKind::BatchApplied => "batch_applied",
            EventKind::WalCompaction => "wal_compaction",
            EventKind::OverloadShed => "overload_shed",
            EventKind::FaultInjected => "fault_injected",
            EventKind::WorkerDeath => "worker_death",
            EventKind::WalError => "wal_error",
            EventKind::TenantCreated => "tenant_created",
            EventKind::TenantDropped => "tenant_dropped",
            EventKind::ShardHealthChanged => "shard_health_changed",
            EventKind::ParkReplayed => "park_replayed",
        }
    }

    /// Names of the payload words this kind uses (≤ 3; unused words are
    /// omitted from dumps).
    pub fn field_names(self) -> &'static [&'static str] {
        match self {
            EventKind::EpochPublished => &["epoch", "edges", "lag_us"],
            EventKind::BatchApplied => &["epoch", "edges", "apply_us"],
            EventKind::WalCompaction => &["records", "bytes"],
            EventKind::OverloadShed => &["queue_depth", "edges", "tenant"],
            EventKind::FaultInjected => &["site", "detail"],
            EventKind::WorkerDeath => &["worker"],
            EventKind::WalError => &["epoch"],
            EventKind::TenantCreated => &["tenant", "vertices"],
            EventKind::TenantDropped => &["tenant"],
            EventKind::ShardHealthChanged => &["shard", "from", "to"],
            EventKind::ParkReplayed => &["shard", "batches", "edges"],
        }
    }

    fn from_code(code: u16) -> Option<EventKind> {
        KINDS.iter().copied().find(|k| *k as u16 == code)
    }
}

/// Site codes carried in `FaultInjected.site`.
pub mod fault_site {
    /// A WAL record was dropped whole (detail: record bytes dropped).
    pub const WAL_DROP: u64 = 1;
    /// A WAL record was torn short (detail: bytes kept).
    pub const WAL_SHORT_WRITE: u64 = 2;
    /// A batch apply was delayed (detail: delay in µs).
    pub const APPLY_DELAY: u64 = 3;
    /// A response frame was torn (detail: bytes kept).
    pub const TORN_FRAME: u64 = 4;
    /// An accept worker was killed (detail: 0).
    pub const KILL_WORKER: u64 = 5;
    /// A cluster fault plan killed a shard worker (detail: shard).
    pub const SHARD_KILL: u64 = 6;
    /// A cluster fault plan hung a shard worker (detail: shard).
    pub const SHARD_HANG: u64 = 7;
    /// A cluster fault plan slowed a shard worker (detail: shard).
    pub const SHARD_SLOW: u64 = 8;
    /// A cluster fault plan partitioned a shard worker (detail: shard).
    pub const SHARD_PARTITION: u64 = 9;

    /// Human name for a site code ("?" if unknown).
    pub fn name(code: u64) -> &'static str {
        match code {
            WAL_DROP => "wal_drop",
            WAL_SHORT_WRITE => "wal_short_write",
            APPLY_DELAY => "apply_delay",
            TORN_FRAME => "torn_frame",
            KILL_WORKER => "kill_worker",
            SHARD_KILL => "shard_kill",
            SHARD_HANG => "shard_hang",
            SHARD_SLOW => "shard_slow",
            SHARD_PARTITION => "shard_partition",
            _ => "?",
        }
    }
}

/// The process-global flight ring.
pub fn ring() -> &'static Ring {
    static RING: OnceLock<Ring> = OnceLock::new();
    RING.get_or_init(Ring::new)
}

/// Records one event in the global ring.
pub fn record(kind: EventKind, args: [u64; 3]) {
    ring().record(kind as u16, args);
}

/// Serializes the global ring's current contents as a dump document.
pub fn dump_json() -> String {
    render_dump(ring().recorded(), &ring().snapshot())
}

fn render_dump(recorded: u64, events: &[Event]) -> String {
    let mut out = String::with_capacity(64 + events.len() * 96);
    let _ = write!(
        out,
        "{{\"schema\": {SCHEMA}, \"recorded\": {recorded}, \"events\": ["
    );
    for (i, ev) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n  {{\"seq\": {}, \"ts_us\": {}, \"kind\": ",
            ev.seq, ev.ts_us
        );
        match EventKind::from_code(ev.kind) {
            Some(kind) => {
                json::write_escaped(&mut out, kind.name());
                out.push_str(", \"fields\": {");
                for (j, field) in kind.field_names().iter().enumerate() {
                    if j > 0 {
                        out.push_str(", ");
                    }
                    json::write_escaped(&mut out, field);
                    let _ = write!(out, ": {}", ev.args[j]);
                }
                out.push('}');
            }
            // A code this build does not name keeps its raw words, so
            // nothing is silently lost.
            None => {
                let _ = write!(
                    out,
                    "\"unknown_{}\", \"fields\": {{\"arg0\": {}, \"arg1\": {}, \"arg2\": {}}}",
                    ev.kind, ev.args[0], ev.args[1], ev.args[2]
                );
            }
        }
        out.push('}');
    }
    out.push_str("\n]}\n");
    out
}

/// One event read back from a dump.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DumpEvent {
    /// Global sequence number.
    pub seq: u64,
    /// Microseconds since the ring was created.
    pub ts_us: u64,
    /// Kind name (`epoch_published`, ... or `unknown_N`).
    pub kind: String,
    /// Named payload words.
    pub fields: BTreeMap<String, u64>,
}

/// A parsed dump document.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Dump {
    /// Total events ever recorded (≥ `events.len()`).
    pub recorded: u64,
    /// Retained events, oldest first.
    pub events: Vec<DumpEvent>,
}

impl Dump {
    /// Events of one kind, in order.
    pub fn of_kind(&self, kind: EventKind) -> impl Iterator<Item = &DumpEvent> {
        self.events.iter().filter(move |e| e.kind == kind.name())
    }

    /// Count of `fault_injected` events with the given site code.
    pub fn faults_at(&self, site: u64) -> usize {
        self.of_kind(EventKind::FaultInjected)
            .filter(|e| e.fields.get("site") == Some(&site))
            .count()
    }
}

/// Parses a dump document produced by [`dump_json`].
pub fn parse_dump(text: &str) -> Result<Dump, String> {
    let doc = json::parse(text)?;
    let schema = doc
        .get("schema")
        .and_then(Value::as_int)
        .ok_or("dump missing schema")?;
    if schema != SCHEMA {
        return Err(format!("unsupported dump schema {schema}"));
    }
    let recorded = doc
        .get("recorded")
        .and_then(Value::as_int)
        .ok_or("dump missing recorded")?;
    let raw = doc
        .get("events")
        .and_then(Value::as_arr)
        .ok_or("dump missing events")?;
    let mut events = Vec::with_capacity(raw.len());
    for ev in raw {
        let seq = ev
            .get("seq")
            .and_then(Value::as_int)
            .ok_or("event missing seq")?;
        let ts_us = ev
            .get("ts_us")
            .and_then(Value::as_int)
            .ok_or("event missing ts_us")?;
        let kind = ev
            .get("kind")
            .and_then(Value::as_str)
            .ok_or("event missing kind")?
            .to_string();
        let mut fields = BTreeMap::new();
        for (k, v) in ev
            .get("fields")
            .and_then(Value::as_obj)
            .ok_or("event missing fields")?
        {
            fields.insert(k.clone(), v.as_int().ok_or("non-integer field")?);
        }
        events.push(DumpEvent {
            seq,
            ts_us,
            kind,
            fields,
        });
    }
    Ok(Dump { recorded, events })
}

/// Writes the current dump to `path` (best-effort parent creation).
pub fn write_dump(path: &Path) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, dump_json())
}

/// Installs a panic hook that writes the flight dump to `path` before
/// delegating to the previous hook. Safe to call once per process; the
/// dump write is infallible from the hook's perspective (errors are
/// reported to stderr, never panicked on).
pub fn install_panic_hook(path: PathBuf) {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        match write_dump(&path) {
            Ok(()) => eprintln!("flight recorder dumped to {}", path.display()),
            Err(e) => eprintln!("flight recorder dump to {} failed: {e}", path.display()),
        }
        prev(info);
    }));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_codes_and_names_are_distinct() {
        for (i, a) in KINDS.iter().enumerate() {
            for b in &KINDS[i + 1..] {
                assert_ne!(*a as u16, *b as u16);
                assert_ne!(a.name(), b.name());
            }
            assert_eq!(EventKind::from_code(*a as u16), Some(*a));
            assert!(a.field_names().len() <= 3);
        }
        assert_eq!(EventKind::from_code(0), None);
        assert_eq!(EventKind::from_code(999), None);
    }

    #[test]
    fn render_parse_roundtrip() {
        let events = vec![
            Event {
                seq: 0,
                ts_us: 10,
                kind: EventKind::EpochPublished as u16,
                args: [1, 64, 812],
            },
            Event {
                seq: 1,
                ts_us: 20,
                kind: EventKind::FaultInjected as u16,
                args: [fault_site::WAL_DROP, 132, 0],
            },
            Event {
                seq: 2,
                ts_us: 30,
                kind: 999, // unknown code survives the roundtrip
                args: [7, 8, 9],
            },
        ];
        let text = render_dump(5, &events);
        let dump = parse_dump(&text).expect("dump parses");
        assert_eq!(dump.recorded, 5);
        assert_eq!(dump.events.len(), 3);
        assert_eq!(dump.events[0].kind, "epoch_published");
        assert_eq!(dump.events[0].fields["lag_us"], 812);
        assert_eq!(dump.faults_at(fault_site::WAL_DROP), 1);
        assert_eq!(dump.faults_at(fault_site::KILL_WORKER), 0);
        assert_eq!(dump.events[2].kind, "unknown_999");
        assert_eq!(dump.events[2].fields["arg2"], 9);
    }

    #[test]
    fn empty_dump_parses() {
        let dump = parse_dump(&render_dump(0, &[])).unwrap();
        assert_eq!(dump.recorded, 0);
        assert!(dump.events.is_empty());
    }

    #[test]
    fn parse_rejects_wrong_schema_and_shape() {
        assert!(parse_dump("{}").is_err());
        assert!(parse_dump("{\"schema\": 2, \"recorded\": 0, \"events\": []}").is_err());
        assert!(parse_dump("{\"schema\": 1, \"recorded\": 0}").is_err());
        assert!(parse_dump("not json").is_err());
    }

    #[test]
    fn global_ring_records_and_dumps() {
        // Global state: assert via deltas only, and don't assume other
        // tests haven't recorded events.
        let before = ring().recorded();
        record(EventKind::WorkerDeath, [3, 0, 0]);
        assert!(ring().recorded() > before);
        let dump = parse_dump(&dump_json()).expect("global dump parses");
        assert!(dump
            .of_kind(EventKind::WorkerDeath)
            .any(|e| e.fields.get("worker") == Some(&3)));
    }

    #[test]
    fn write_dump_creates_parent_dirs() {
        let dir = std::env::temp_dir().join(format!("afforest-events-{}", std::process::id()));
        let path = dir.join("sub").join("flight.json");
        write_dump(&path).expect("write dump");
        let text = std::fs::read_to_string(&path).unwrap();
        parse_dump(&text).expect("written dump parses");
        std::fs::remove_dir_all(&dir).ok();
    }
}
