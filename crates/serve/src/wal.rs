//! Write-ahead log: the durability layer of the service.
//!
//! Every coalesced edge batch is appended to `wal.log` *before* it is
//! applied and its epoch published, so a crash at any point loses at most
//! the batch that had not yet reached the OS (the classic WAL contract —
//! an acked write is a logged write). Records are length-prefixed and
//! checksummed; [`recover`] replays a possibly-truncated or corrupted log
//! into a fresh [`IncrementalCc`], stopping (and truncating the file) at
//! the first bad record, so the recovered state is always a prefix of the
//! committed history — never a panic, never a half-applied record.
//!
//! Replaying a long history on every restart would make recovery O(total
//! writes), so the log is periodically **compacted**, on the writer
//! thread, at a cost of about what it writes: the epoch the writer has
//! just published is streamed page by page into `snapshot.arr.tmp`
//! (`afforest_graph::io::write_node_slices`), which is renamed over
//! `snapshot.arr`; then a fresh header-only `wal.log.new` is renamed over
//! `wal.log` and becomes the append handle. The replaced files are held
//! open across their renames and closed on another thread, because
//! freeing their cached pages costs milliseconds. Recovery then costs one
//! array read plus O(batches since the last snapshot).
//!
//! A kill at any instant leaves a directory [`recover`] restores every
//! logged batch from. Before the snapshot rename it holds the old
//! snapshot and the full log; between the two renames, the new snapshot
//! and the full log, whose records the snapshot already covers and which
//! replay as no-ops (Theorem 1). A partial `snapshot.arr.tmp` or a
//! header-only `wal.log.new` left behind is ignored by recovery and
//! removed by [`Wal::open`] or overwritten by the next compaction, and
//! `wal.log` exists at every instant.
//!
//! On-disk layout inside the WAL directory:
//!
//! ```text
//! wal.log           8-byte magic/version, u64 vertex count, u64 header
//!                   checksum (fnv1a over magic + count), then records:
//!                   [u32 len][u64 fnv1a(payload)][payload]
//!                   payload = 0x01 tag, u32 edge count, count * (u32, u32)
//! snapshot.arr      afforest_graph::io node array (the parent snapshot),
//!                   written as version 2 (one FNV-1a step per slot);
//!                   version 1 (one step per byte) still loads
//! snapshot.arr.tmp  the next snapshot while a compaction writes it
//! wal.log.new       the next, header-only log until it replaces wal.log
//! ```
//!
//! `wal.log`'s format is the service's one **edge-log** format. The
//! sharded router keeps its park and boundary logs in it too: they are
//! opened and replayed through [`open_log`] and appended with
//! [`encode_record`], so every durable edge log shares this header, this
//! record codec and the replay scan behind [`recover`].

use crate::faults::{FaultPlan, WalFault};
use crate::snapshot::Snapshot;
use afforest_core::{IncrementalCc, InvalidParents};
use afforest_graph::io::{checksum64, read_node_array, write_node_slices};
use afforest_graph::Node;
use std::fs::{File, OpenOptions};
use std::io::{self, BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::{self, JoinHandle};

/// Magic bytes identifying a WAL file, followed by a version.
const MAGIC: &[u8; 8] = b"AFWAL\x00\x00\x01";

/// Header length: magic + u64 vertex count + u64 header checksum. The
/// checksum authenticates the vertex count: without it a flipped bit in
/// the count would send recovery allocating for a bogus universe.
const HEADER_LEN: u64 = 24;

/// Record tag for an edge batch (the only record type in version 1).
const TAG_EDGE_BATCH: u8 = 0x01;

/// Bytes in front of a record's payload: u32 length + u64 checksum.
const RECORD_PREFIX: usize = 12;

/// Hard ceiling on a record payload (64 MiB ≈ 8M edges). A corrupt
/// length prefix above this is rejected before any allocation.
pub const MAX_RECORD_LEN: usize = 1 << 26;

/// The log file's name inside the WAL directory.
pub const LOG_FILE: &str = "wal.log";

/// The snapshot file's name inside the WAL directory.
pub const SNAPSHOT_FILE: &str = "snapshot.arr";

/// Where a compaction writes the next snapshot before renaming it over
/// [`SNAPSHOT_FILE`].
const SNAPSHOT_TMP: &str = "snapshot.arr.tmp";

/// Where a compaction creates the next, header-only log before renaming
/// it over [`LOG_FILE`].
const LOG_NEXT: &str = "wal.log.new";

/// Why a WAL operation failed.
#[derive(Debug)]
pub enum WalError {
    /// Filesystem failure.
    Io(io::Error),
    /// The log or snapshot exists but is not usable (reason attached).
    /// Note that a *corrupt tail* is not an error — [`recover`] truncates
    /// it; this variant covers an unusable header or snapshot.
    Corrupt(String),
    /// The log was written for a different vertex universe.
    VertexMismatch {
        /// Vertex count recorded in the log header.
        wal: usize,
        /// Vertex count the caller expected.
        expected: usize,
    },
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal io: {e}"),
            WalError::Corrupt(why) => write!(f, "wal corrupt: {why}"),
            WalError::VertexMismatch { wal, expected } => write!(
                f,
                "wal vertex count {wal} does not match expected {expected}"
            ),
        }
    }
}

impl std::error::Error for WalError {}

impl From<io::Error> for WalError {
    fn from(e: io::Error) -> Self {
        WalError::Io(e)
    }
}

impl From<afforest_graph::Error> for WalError {
    fn from(e: afforest_graph::Error) -> Self {
        WalError::Corrupt(e.to_string())
    }
}

impl From<InvalidParents> for WalError {
    fn from(e: InvalidParents) -> Self {
        WalError::Corrupt(format!("snapshot {e}"))
    }
}

/// An edge log that could not be opened or read, with the file it names.
#[derive(Debug)]
pub struct LogError {
    /// The log file.
    pub path: PathBuf,
    /// What was wrong with it.
    pub error: WalError,
}

impl std::fmt::Display for LogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "edge log {}: {}", self.path.display(), self.error)
    }
}

impl std::error::Error for LogError {}

/// What [`Wal::append`] did with the record — `Logged` in production;
/// the fault variants exist so chaos tests know exactly which batches
/// survived to disk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AppendOutcome {
    /// The record is fully on the file.
    Logged,
    /// A [`FaultPlan`] dropped the record (simulated lost write).
    DroppedByFault,
    /// A [`FaultPlan`] tore the record (simulated crash mid-write).
    /// Every record after a torn one is unrecoverable.
    TornByFault,
}

/// An open, appendable write-ahead log.
pub struct Wal {
    file: File,
    dir: PathBuf,
    /// Vertex count named by the log header.
    vertices: usize,
    /// Compact (snapshot + fresh log) after this many appended batches.
    snapshot_every: u64,
    appends_since_snapshot: u64,
    faults: Option<Arc<FaultPlan>>,
    /// The thread closing the files the last compaction replaced.
    closer: Option<JoinHandle<()>>,
}

impl Wal {
    /// Opens (creating if absent) the log for an `n`-vertex service in
    /// `dir`, positioned for appending. `snapshot_every` batches trigger
    /// a compaction (0 disables compaction). Removes what a compaction
    /// cut short by a crash left behind.
    pub fn open(dir: &Path, n: usize, snapshot_every: u64) -> Result<Wal, WalError> {
        std::fs::create_dir_all(dir)?;
        for leftover in [SNAPSHOT_TMP, LOG_NEXT] {
            // Best effort: one that cannot be removed fails the next
            // compaction, which the writer counts as a WAL error.
            let _ = std::fs::remove_file(dir.join(leftover));
        }
        let mut file = open_checked(&dir.join(LOG_FILE), n)?;
        file.seek(SeekFrom::End(0))?;
        Ok(Wal {
            file,
            dir: dir.to_path_buf(),
            vertices: n,
            snapshot_every,
            appends_since_snapshot: 0,
            faults: None,
            closer: None,
        })
    }

    /// Attaches a chaos plan; subsequent appends consult it.
    pub fn with_faults(mut self, faults: Arc<FaultPlan>) -> Wal {
        self.faults = Some(faults);
        self
    }

    /// Appends one edge-batch record. Returns what actually reached the
    /// file (always [`AppendOutcome::Logged`] without a fault plan). The
    /// write goes straight to the OS — surviving a process kill needs no
    /// fsync; surviving power loss would (documented trade-off, DESIGN.md
    /// §11).
    pub fn append(&mut self, edges: &[(Node, Node)]) -> Result<AppendOutcome, WalError> {
        let record = encode_record(edges);
        let fault = self
            .faults
            .as_deref()
            .map_or(WalFault::None, |p| p.on_wal_append(record.len()));
        let outcome = match fault {
            WalFault::Drop => AppendOutcome::DroppedByFault,
            WalFault::Short { keep } => {
                // PANIC-OK: the fault plane clamps `keep` to the record
                // length it was given (see `FaultPlane::on_wal_append`).
                self.file.write_all(&record[..keep])?;
                self.file.flush()?;
                AppendOutcome::TornByFault
            }
            WalFault::None => {
                self.file.write_all(&record)?;
                self.file.flush()?;
                let m = crate::metrics::metrics();
                m.wal_records.inc();
                m.wal_bytes.add(record.len() as u64);
                AppendOutcome::Logged
            }
        };
        self.appends_since_snapshot += 1;
        Ok(outcome)
    }

    /// Compacts if the snapshot interval has elapsed (see
    /// [`Wal::compact`]). Returns whether a compaction happened.
    pub fn maybe_compact(&mut self, snap: &Snapshot) -> Result<bool, WalError> {
        if self.snapshot_every == 0 || self.appends_since_snapshot < self.snapshot_every {
            return Ok(false);
        }
        self.compact(snap)?;
        Ok(true)
    }

    /// Unconditionally compacts: writes `snap`, which must cover every
    /// logged batch (the epoch the writer has just published), as the new
    /// `snapshot.arr`, then swaps in a header-only log. The interval
    /// restarts even if this fails, so a failing compaction is retried at
    /// the next interval, not on every batch.
    pub fn compact(&mut self, snap: &Snapshot) -> Result<(), WalError> {
        let _span = afforest_obs::span!("wal-compact");
        let appended = std::mem::take(&mut self.appends_since_snapshot);
        let tmp = self.dir.join(SNAPSHOT_TMP);
        write_node_slices(&tmp, &snap.parent_slices())?;
        let snapshot = self.dir.join(SNAPSHOT_FILE);
        // Held open across the rename, so that freeing the replaced
        // snapshot's pages waits for the closer instead of the rename.
        let old_snapshot = File::open(&snapshot).ok();
        std::fs::rename(&tmp, &snapshot)?;
        // The snapshot now covers every record: swap in an empty log.
        let log_bytes = self.file.metadata()?.len().saturating_sub(HEADER_LEN);
        let next = self.dir.join(LOG_NEXT);
        let mut fresh = File::create(&next)?;
        fresh.write_all(&encode_header(self.vertices))?;
        std::fs::rename(&next, self.dir.join(LOG_FILE))?;
        let old_log = std::mem::replace(&mut self.file, fresh);
        self.close_off_thread((old_snapshot, old_log));
        crate::metrics::metrics().wal_compactions.inc();
        crate::events::record(
            crate::events::EventKind::WalCompaction,
            [appended, log_bytes, 0],
        );
        Ok(())
    }

    /// Drops `files` on a thread of their own: the last handle to a
    /// replaced file frees its cached pages on close, milliseconds for a
    /// snapshot. The previous closer is joined first, so at most one runs.
    fn close_off_thread(&mut self, files: (Option<File>, File)) {
        self.join_closer();
        // If the thread cannot start, `spawn` drops `files` right here.
        self.closer = thread::Builder::new()
            .name("wal-close".into())
            .spawn(move || drop(files))
            .ok();
    }

    fn join_closer(&mut self) {
        if let Some(closer) = self.closer.take() {
            // Dropping a `File` ignores close errors; nothing can panic.
            let _ = closer.join();
        }
    }
}

impl Drop for Wal {
    fn drop(&mut self) {
        self.join_closer();
    }
}

/// The result of a recovery: a live structure plus replay statistics.
pub struct Recovery {
    /// The restored incremental structure (snapshot + replayed batches).
    pub cc: IncrementalCc,
    /// Vertex count from the log header.
    pub vertices: usize,
    /// Whether a parent snapshot was loaded.
    pub from_snapshot: bool,
    /// Edge-batch records replayed from the log.
    pub batches: u64,
    /// Edges replayed from the log.
    pub edges: u64,
    /// Whether a corrupt/torn tail was found (and truncated away).
    pub truncated: bool,
}

/// Replays the WAL directory into a fresh [`IncrementalCc`].
///
/// The base state is the parent snapshot if one exists, otherwise an
/// empty structure seeded with `seed_edges` (the initial graph, which is
/// *not* logged — only ingested batches are). Log records are then
/// replayed in order; the first bad record (truncated, checksum mismatch,
/// malformed payload) ends the replay and the file is truncated there, so
/// a recovered-then-reopened log is always internally consistent.
///
/// Total function over file contents: any byte string in the log yields
/// either `Ok` (with some prefix replayed) or a typed [`WalError`] for an
/// unusable header/snapshot — never a panic.
pub fn recover(dir: &Path, seed_edges: &[(Node, Node)]) -> Result<Recovery, WalError> {
    let _span = afforest_obs::span!("wal-recover");
    let path = dir.join(LOG_FILE);
    let mut file = OpenOptions::new().read(true).write(true).open(&path)?;
    let n = read_header(&mut file)?;

    let snapshot_path = dir.join(SNAPSHOT_FILE);
    let (mut cc, from_snapshot) = if snapshot_path.exists() {
        let parents = read_node_array(&snapshot_path)?;
        if parents.len() != n {
            return Err(WalError::Corrupt(format!(
                "snapshot holds {} vertices, log header says {n}",
                parents.len()
            )));
        }
        (IncrementalCc::from_parents(parents)?, true)
    } else {
        // Seed edges outside the log's universe mean the caller is
        // replaying the wrong graph's WAL: a typed error, not a panic.
        if let Some(&(u, v)) = seed_edges
            .iter()
            .find(|&&(u, v)| u as usize >= n || v as usize >= n)
        {
            return Err(WalError::VertexMismatch {
                wal: n,
                expected: u.max(v) as usize + 1,
            });
        }
        let mut cc = IncrementalCc::new(n);
        cc.insert_batch(seed_edges);
        (cc, false)
    };

    let replayed = replay(&mut file, n, |batch| {
        cc.insert_batch(&batch);
    })?;
    Ok(Recovery {
        cc,
        vertices: n,
        from_snapshot,
        batches: replayed.batches,
        edges: replayed.edges,
        truncated: replayed.truncated,
    })
}

/// What the replay scan found in one edge log.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Replay {
    /// Edge-batch records replayed, in append order.
    pub batches: u64,
    /// Edges across the replayed records.
    pub edges: u64,
    /// Whether a corrupt/torn tail was found (and truncated away).
    pub truncated: bool,
}

/// Opens the edge log at `path` (creating it and its directory if
/// absent) for an `n`-vertex universe and replays it: every intact
/// record goes to `apply` in append order, and the file is truncated at
/// the first bad one. Returns the handle positioned for appends.
///
/// An empty file gets a fresh header. A header that is short, corrupt
/// or names another vertex count is refused with a [`LogError`] that
/// names the file, and the file's bytes are left as they were.
pub fn open_log(
    path: &Path,
    n: usize,
    apply: impl FnMut(Vec<(Node, Node)>),
) -> Result<(File, Replay), LogError> {
    let open = || {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut file = open_checked(path, n)?;
        let replayed = replay(&mut file, n, apply)?;
        Ok((file, replayed))
    };
    open().map_err(|error| LogError {
        path: path.to_path_buf(),
        error,
    })
}

/// The vertex count named by the header of the edge log at `path`.
pub fn log_vertices(path: &Path) -> Result<usize, LogError> {
    let read = || read_header(&mut File::open(path)?);
    read().map_err(|error| LogError {
        path: path.to_path_buf(),
        error,
    })
}

/// The header of an `n`-vertex edge log.
pub fn encode_header(n: usize) -> Vec<u8> {
    let mut header = Vec::with_capacity(HEADER_LEN as usize);
    header.extend_from_slice(MAGIC);
    header.extend_from_slice(&(n as u64).to_le_bytes());
    let sum = checksum64(&header);
    header.extend_from_slice(&sum.to_le_bytes());
    header
}

/// One edge-batch record: `[u32 len][u64 fnv1a(payload)][payload]`.
pub fn encode_record(edges: &[(Node, Node)]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(5 + edges.len() * 8);
    payload.push(TAG_EDGE_BATCH);
    payload.extend_from_slice(&(edges.len() as u32).to_le_bytes());
    for &(u, v) in edges {
        payload.extend_from_slice(&u.to_le_bytes());
        payload.extend_from_slice(&v.to_le_bytes());
    }
    let mut record = Vec::with_capacity(RECORD_PREFIX + payload.len());
    record.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    record.extend_from_slice(&checksum64(&payload).to_le_bytes());
    record.extend_from_slice(&payload);
    record
}

/// Opens (creating if absent) the log at `path`: an empty file gets a
/// fresh `n`-vertex header; an existing header must be intact and name
/// `n`, else a typed error and no byte is written.
fn open_checked(path: &Path, n: usize) -> Result<File, WalError> {
    let mut file = OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(false)
        .open(path)?;
    if file.metadata()?.len() == 0 {
        file.write_all(&encode_header(n))?;
        file.flush()?;
    } else {
        let logged = read_header(&mut file)?;
        if logged != n {
            return Err(WalError::VertexMismatch {
                wal: logged,
                expected: n,
            });
        }
    }
    Ok(file)
}

/// The replay scan, total over the file's bytes: hands each intact
/// record after the header to `apply` in order, one record in memory at
/// a time, until EOF or the first bad record (short read, length out of
/// `5..=MAX_RECORD_LEN`, checksum mismatch, malformed payload, endpoint
/// outside `0..n`). A bad tail is truncated so the next append starts at
/// a record boundary; the handle is left positioned at the end.
fn replay(
    file: &mut File,
    n: usize,
    mut apply: impl FnMut(Vec<(Node, Node)>),
) -> Result<Replay, WalError> {
    let file_len = file.metadata()?.len();
    let mut reader = BufReader::new(&*file);
    reader.seek(SeekFrom::Start(HEADER_LEN))?;
    let mut good_end = HEADER_LEN;
    let mut replayed = Replay::default();
    loop {
        let mut prefix = [0u8; RECORD_PREFIX];
        if !read_full(&mut reader, &mut prefix)? {
            break;
        }
        // PANIC-OK: `prefix` is a 12-byte array; both subranges and the
        // slice-to-array conversions are statically in range.
        let len = u32::from_le_bytes(prefix[0..4].try_into().expect("4-byte slice")) as usize;
        // PANIC-OK: same 12-byte array, see above.
        let declared_sum = u64::from_le_bytes(prefix[4..12].try_into().expect("8-byte slice"));
        if !(5..=MAX_RECORD_LEN).contains(&len) {
            break;
        }
        let mut payload = vec![0u8; len];
        if !read_full(&mut reader, &mut payload)? || checksum64(&payload) != declared_sum {
            break;
        }
        let Some(batch) = decode_batch(&payload, n) else {
            break;
        };
        replayed.batches += 1;
        replayed.edges += batch.len() as u64;
        apply(batch);
        good_end += (RECORD_PREFIX + len) as u64;
    }
    drop(reader);

    // Bytes past the last intact record are a bad tail: cut it so the
    // next append starts from a valid record boundary (a torn record
    // would otherwise poison future appends).
    replayed.truncated = good_end < file_len;
    if replayed.truncated {
        file.set_len(good_end)?;
    }
    file.seek(SeekFrom::End(0))?;
    Ok(replayed)
}

/// Whether `dir` holds a WAL (log file present).
pub fn exists(dir: &Path) -> bool {
    dir.join(LOG_FILE).exists()
}

/// Where the `default` tenant logs under `root`: the root itself when a
/// legacy pre-tenancy `wal.log` sits there, else `<root>/default/`.
pub fn default_wal_dir(root: &Path) -> PathBuf {
    if exists(root) {
        root.to_path_buf()
    } else {
        root.join(crate::tenant::DEFAULT_TENANT)
    }
}

/// Enumerates the tenant WAL directories under `root`, sorted by tenant
/// name: the legacy root-level layout (as `default`) plus every
/// subdirectory whose name is a valid tenant id and which holds a log.
/// If both layouts claim `default`, the legacy root-level one wins.
pub fn tenant_dirs(root: &Path) -> Vec<(String, PathBuf)> {
    let mut found = Vec::new();
    if exists(root) {
        found.push((
            crate::tenant::DEFAULT_TENANT.to_string(),
            root.to_path_buf(),
        ));
    }
    if let Ok(entries) = std::fs::read_dir(root) {
        for entry in entries.flatten() {
            let dir = entry.path();
            if !exists(&dir) {
                continue;
            }
            let Some(name) = dir.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            if crate::tenant::TenantId::new(name).is_err() {
                continue;
            }
            found.push((name.to_string(), dir));
        }
    }
    // The legacy root entry sorts before any subdirectory of the root,
    // so dedup-by-name keeps it when both layouts claim `default`.
    found.sort();
    found.dedup_by(|a, b| a.0 == b.0);
    found
}

/// Validates the magic and the header checksum, returning the header's
/// vertex count and leaving the cursor after the header.
fn read_header(file: &mut File) -> Result<usize, WalError> {
    file.seek(SeekFrom::Start(0))?;
    let mut header = [0u8; HEADER_LEN as usize];
    file.read_exact(&mut header)
        .map_err(|_| WalError::Corrupt("log shorter than its header".into()))?;
    // PANIC-OK: `header` is a HEADER_LEN (24) byte array; every subrange
    // below is statically in bounds and every conversion statically sized.
    if &header[0..8] != MAGIC {
        return Err(WalError::Corrupt("not an AFWAL file (bad magic)".into()));
    }
    // PANIC-OK: 24-byte array, see above.
    let declared = u64::from_le_bytes(header[16..24].try_into().expect("8-byte slice"));
    // PANIC-OK: 24-byte array, see above.
    if checksum64(&header[0..16]) != declared {
        return Err(WalError::Corrupt("header checksum mismatch".into()));
    }
    // PANIC-OK: 24-byte array, see above.
    let n = u64::from_le_bytes(header[8..16].try_into().expect("8-byte slice"));
    if n > Node::MAX as u64 + 1 {
        // Defense in depth: a checksum collision must still not drive a
        // multi-gigabyte allocation.
        return Err(WalError::Corrupt(format!(
            "vertex count {n} exceeds Node range"
        )));
    }
    Ok(n as usize)
}

/// Fills `buf`, or returns `false` if the file ends first. Other IO
/// errors propagate.
fn read_full(r: &mut impl Read, buf: &mut [u8]) -> io::Result<bool> {
    match r.read_exact(buf) {
        Ok(()) => Ok(true),
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Ok(false),
        Err(e) => Err(e),
    }
}

/// Decodes an edge-batch payload; `None` on any structural problem
/// (wrong tag, count/length mismatch, out-of-range endpoint).
fn decode_batch(payload: &[u8], n: usize) -> Option<Vec<(Node, Node)>> {
    // PANIC-OK: short-circuit guarantees `payload.len() >= 5` before the
    // tag read and the `[1..5]` count field below.
    if payload.len() < 5 || payload[0] != TAG_EDGE_BATCH {
        return None;
    }
    // PANIC-OK: length >= 5 checked above; conversion statically sized.
    let count = u32::from_le_bytes(payload[1..5].try_into().expect("4-byte slice")) as usize;
    if payload.len() != 5 + count.checked_mul(8)? {
        return None;
    }
    let mut edges = Vec::with_capacity(count);
    // PANIC-OK: `payload.len() >= 5` checked above; `chunks_exact(8)`
    // yields exactly 8-byte windows, so the pair subranges are in bounds.
    for pair in payload[5..].chunks_exact(8) {
        // PANIC-OK: `pair` is an exact 8-byte chunk, see above.
        let u = Node::from_le_bytes(pair[0..4].try_into().expect("4-byte slice"));
        // PANIC-OK: same exact 8-byte chunk, see above.
        let v = Node::from_le_bytes(pair[4..8].try_into().expect("4-byte slice"));
        if u as usize >= n || v as usize >= n {
            return None;
        }
        edges.push((u, v));
    }
    Some(edges)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tempdir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("afforest-wal-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn labels_of(cc: &mut IncrementalCc) -> afforest_core::ComponentLabels {
        cc.labels()
    }

    /// Deterministic batches of a few edges each over `n` vertices.
    fn sample_batches(n: u32, count: u32) -> Vec<Vec<(Node, Node)>> {
        (0..count)
            .map(|i| {
                vec![
                    ((i * 7) % n, (i * 13 + 1) % n),
                    ((i * 5 + 3) % n, (i * 11) % n),
                ]
            })
            .collect()
    }

    /// Recovers `dir` and checks it against replaying `batches` in full.
    fn assert_recovers(dir: &Path, n: usize, batches: &[Vec<(Node, Node)>]) -> Recovery {
        let mut rec = recover(dir, &[]).unwrap();
        let mut oracle = IncrementalCc::new(n);
        for b in batches {
            oracle.insert_batch(b);
        }
        assert!(labels_of(&mut rec.cc).equivalent(&labels_of(&mut oracle)));
        rec
    }

    /// The file names in `dir`, sorted.
    fn files_in(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn append_then_recover_replays_everything() {
        let dir = tempdir("roundtrip");
        let batches: Vec<Vec<(Node, Node)>> =
            vec![vec![(0, 1), (1, 2)], vec![(5, 6)], vec![(2, 5), (7, 8)]];
        {
            let mut wal = Wal::open(&dir, 10, 0).unwrap();
            for b in &batches {
                assert_eq!(wal.append(b).unwrap(), AppendOutcome::Logged);
            }
        }
        let mut rec = recover(&dir, &[]).unwrap();
        assert_eq!(rec.vertices, 10);
        assert_eq!(rec.batches, 3);
        assert_eq!(rec.edges, 5);
        assert!(!rec.truncated);
        assert!(!rec.from_snapshot);

        let mut oracle = IncrementalCc::new(10);
        for b in &batches {
            oracle.insert_batch(b);
        }
        assert!(labels_of(&mut rec.cc).equivalent(&labels_of(&mut oracle)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_seeds_initial_graph_edges() {
        let dir = tempdir("seeded");
        {
            let mut wal = Wal::open(&dir, 6, 0).unwrap();
            wal.append(&[(2, 3)]).unwrap();
        }
        // Initial graph (0-1, 1-2) is not logged; recovery re-derives it
        // from the seed edges.
        let rec = recover(&dir, &[(0, 1), (1, 2)]).unwrap();
        assert!(rec.cc.connected(0, 3));
        assert!(!rec.cc.connected(0, 5));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_appends_after_existing_records() {
        let dir = tempdir("reopen");
        {
            let mut wal = Wal::open(&dir, 8, 0).unwrap();
            wal.append(&[(0, 1)]).unwrap();
        }
        {
            let mut wal = Wal::open(&dir, 8, 0).unwrap();
            wal.append(&[(1, 2)]).unwrap();
        }
        let rec = recover(&dir, &[]).unwrap();
        assert_eq!(rec.batches, 2);
        assert!(rec.cc.connected(0, 2));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn vertex_mismatch_is_typed() {
        let dir = tempdir("mismatch");
        drop(Wal::open(&dir, 8, 0).unwrap());
        match Wal::open(&dir, 9, 0) {
            Err(WalError::VertexMismatch {
                wal: 8,
                expected: 9,
            }) => {}
            other => panic!("expected VertexMismatch, got {:?}", other.err()),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recover_rejects_out_of_universe_seed_edges() {
        let dir = tempdir("badseed");
        drop(Wal::open(&dir, 4, 0).unwrap());
        match recover(&dir, &[(0, 9)]) {
            Err(WalError::VertexMismatch {
                wal: 4,
                expected: 10,
            }) => {}
            other => panic!("expected VertexMismatch, got {:?}", other.err()),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_log_stays_usable() {
        let dir = tempdir("torn");
        {
            let mut wal = Wal::open(&dir, 8, 0).unwrap();
            wal.append(&[(0, 1)]).unwrap();
            wal.append(&[(1, 2)]).unwrap();
        }
        // Tear the last record by chopping 3 bytes off the file.
        let path = dir.join(LOG_FILE);
        let len = std::fs::metadata(&path).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(len - 3)
            .unwrap();

        let rec = recover(&dir, &[]).unwrap();
        assert_eq!(rec.batches, 1);
        assert!(rec.truncated);
        assert!(rec.cc.connected(0, 1));
        assert!(!rec.cc.connected(1, 2));

        // The truncation leaves a clean append point: new writes recover.
        {
            let mut wal = Wal::open(&dir, 8, 0).unwrap();
            wal.append(&[(4, 5)]).unwrap();
        }
        let rec = recover(&dir, &[]).unwrap();
        assert_eq!(rec.batches, 2);
        assert!(rec.cc.connected(4, 5));
        assert!(!rec.truncated);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_snapshots_and_truncates() {
        let dir = tempdir("compact");
        let mut cc = IncrementalCc::new(16);
        let mut wal = Wal::open(&dir, 16, 2).unwrap();
        for (i, batch) in [vec![(0u32, 1u32)], vec![(1, 2)], vec![(2, 3)]]
            .iter()
            .enumerate()
        {
            wal.append(batch).unwrap();
            cc.insert_batch(batch);
            let compacted = wal.maybe_compact(&Snapshot::new(0, &cc)).unwrap();
            assert_eq!(compacted, i == 1, "batch {i}");
        }
        // After compacting at batch 2, the log holds only batch 3.
        assert!(dir.join(SNAPSHOT_FILE).exists());
        let mut rec = recover(&dir, &[]).unwrap();
        assert!(rec.from_snapshot);
        assert_eq!(rec.batches, 1);
        let mut oracle = IncrementalCc::new(16);
        oracle.insert_batch(&[(0, 1), (1, 2), (2, 3)]);
        assert!(labels_of(&mut rec.cc).equivalent(&labels_of(&mut oracle)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_snapshot_is_a_typed_error() {
        let dir = tempdir("badsnap");
        let mut cc = IncrementalCc::new(4);
        let mut wal = Wal::open(&dir, 4, 1).unwrap();
        wal.append(&[(0, 1)]).unwrap();
        cc.insert(0, 1);
        assert!(wal.maybe_compact(&Snapshot::new(0, &cc)).unwrap());
        drop(wal);
        // Flip a payload byte in the snapshot.
        let snap = dir.join(SNAPSHOT_FILE);
        let mut bytes = std::fs::read(&snap).unwrap();
        let mid = bytes.len() - 12;
        bytes[mid] ^= 0x40;
        std::fs::write(&snap, &bytes).unwrap();
        match recover(&dir, &[]) {
            Err(WalError::Corrupt(why)) => assert!(why.contains("checksum"), "{why}"),
            other => panic!("expected Corrupt, got {:?}", other.err()),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_claiming_more_slots_than_it_holds_is_corrupt() {
        let dir = tempdir("overlong-snap");
        let mut cc = IncrementalCc::new(4);
        let mut wal = Wal::open(&dir, 4, 1).unwrap();
        wal.append(&[(0, 1)]).unwrap();
        cc.insert(0, 1);
        assert!(wal.maybe_compact(&Snapshot::new(0, &cc)).unwrap());
        drop(wal);
        // The length field (after the 8 magic bytes) claims 2^33 slots,
        // 32 GiB, for a file of 4.
        let snap = dir.join(SNAPSHOT_FILE);
        let mut bytes = std::fs::read(&snap).unwrap();
        bytes[8..16].copy_from_slice(&(1u64 << 33).to_le_bytes());
        std::fs::write(&snap, &bytes).unwrap();
        match recover(&dir, &[]) {
            Err(WalError::Corrupt(why)) => assert!(why.contains("exceeds the file"), "{why}"),
            other => panic!("expected Corrupt, got {:?}", other.err()),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_compaction_is_retried_at_the_next_interval() {
        let dir = tempdir("compact-retry");
        let mut wal = Wal::open(&dir, 32, 4).unwrap();
        // A directory where the compaction writes first: every attempt
        // fails before touching the snapshot or the log.
        std::fs::create_dir_all(dir.join(SNAPSHOT_TMP)).unwrap();
        let mut cc = IncrementalCc::new(32);
        let batches = sample_batches(32, 12);
        let mut failed = Vec::new();
        for (i, b) in batches.iter().enumerate() {
            wal.append(b).unwrap();
            cc.insert_batch(b);
            match wal.maybe_compact(&Snapshot::new(0, &cc)) {
                Ok(compacted) => assert!(!compacted, "batch {}", i + 1),
                Err(_) => failed.push(i + 1),
            }
        }
        assert_eq!(failed, [4, 8, 12]);
        drop(wal);
        let rec = assert_recovers(&dir, 32, &batches);
        assert!(!rec.from_snapshot);
        assert_eq!(rec.batches, 12);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn kill_between_the_renames_replays_the_full_log_over_the_new_snapshot() {
        let dir = tempdir("window-renamed");
        let batches = sample_batches(40, 6);
        let mut cc = IncrementalCc::new(40);
        let mut wal = Wal::open(&dir, 40, 0).unwrap();
        for b in &batches {
            wal.append(b).unwrap();
            cc.insert_batch(b);
        }
        let full_log = std::fs::read(dir.join(LOG_FILE)).unwrap();
        wal.compact(&Snapshot::new(0, &cc)).unwrap();
        drop(wal);
        // The new snapshot is in place but the log swap never happened.
        std::fs::write(dir.join(LOG_FILE), &full_log).unwrap();
        let rec = assert_recovers(&dir, 40, &batches);
        assert!(rec.from_snapshot);
        assert_eq!(rec.batches, 6);
        assert!(!rec.truncated);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn leftovers_of_a_cut_compaction_change_nothing() {
        let dir = tempdir("window-leftovers");
        let batches = sample_batches(40, 5);
        let mut cc = IncrementalCc::new(40);
        let mut wal = Wal::open(&dir, 40, 3).unwrap();
        for b in &batches {
            wal.append(b).unwrap();
            cc.insert_batch(b);
            wal.maybe_compact(&Snapshot::new(0, &cc)).unwrap();
        }
        drop(wal);
        // A kill while the next snapshot was half written...
        let tmp = dir.join(SNAPSHOT_TMP);
        write_node_slices(&tmp, &Snapshot::new(0, &cc).parent_slices()).unwrap();
        let half = std::fs::metadata(&tmp).unwrap().len() / 2;
        OpenOptions::new()
            .write(true)
            .open(&tmp)
            .unwrap()
            .set_len(half)
            .unwrap();
        let rec = assert_recovers(&dir, 40, &batches);
        assert!(rec.from_snapshot);
        assert_eq!(rec.batches, 2);
        // ...or after the fresh log was created but not yet renamed.
        std::fs::write(dir.join(LOG_NEXT), encode_header(40)).unwrap();
        let rec = assert_recovers(&dir, 40, &batches);
        assert_eq!(rec.batches, 2);

        // Reopening removes both; the next compaction leaves no strays.
        let mut wal = Wal::open(&dir, 40, 0).unwrap();
        assert_eq!(files_in(&dir), [SNAPSHOT_FILE, LOG_FILE]);
        let extra = vec![(0, 39)];
        wal.append(&extra).unwrap();
        cc.insert_batch(&extra);
        wal.compact(&Snapshot::new(0, &cc)).unwrap();
        drop(wal);
        assert_eq!(files_in(&dir), [SNAPSHOT_FILE, LOG_FILE]);
        let mut all = batches.clone();
        all.push(extra);
        let rec = assert_recovers(&dir, 40, &all);
        assert_eq!(rec.batches, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn version_one_snapshot_then_a_version_two_compaction() {
        let dir = tempdir("v1-snapshot");
        let batches = sample_batches(24, 8);
        let (before, after) = batches.split_at(4);
        // A snapshot in the byte-checksummed format, then the log since.
        let mut cc = IncrementalCc::new(24);
        for b in before {
            cc.insert_batch(b);
        }
        let payload: Vec<u8> = Snapshot::new(0, &cc)
            .parent_slices()
            .concat()
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect();
        let mut v1 = b"AFARR\x00\x00\x01".to_vec();
        v1.extend_from_slice(&24u64.to_le_bytes());
        v1.extend_from_slice(&payload);
        v1.extend_from_slice(&checksum64(&payload).to_le_bytes());
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(SNAPSHOT_FILE), &v1).unwrap();
        let mut wal = Wal::open(&dir, 24, 0).unwrap();
        for b in after {
            wal.append(b).unwrap();
        }
        let rec = assert_recovers(&dir, 24, &batches);
        assert!(rec.from_snapshot);
        assert_eq!(rec.batches, 4);

        // Compacting the recovered state rewrites the snapshot as v2.
        wal.compact(&Snapshot::new(1, &rec.cc)).unwrap();
        drop(wal);
        let written = std::fs::read(dir.join(SNAPSHOT_FILE)).unwrap();
        assert!(written.starts_with(b"AFARR\x00\x00\x02"));
        let rec = assert_recovers(&dir, 24, &batches);
        assert!(rec.from_snapshot);
        assert_eq!(rec.batches, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fault_short_write_loses_suffix_only() {
        let dir = tempdir("faultshort");
        let faults = Arc::new(FaultPlan::parse("seed=11,wal_short_write=0.4").unwrap());
        let mut wal = Wal::open(&dir, 64, 0)
            .unwrap()
            .with_faults(Arc::clone(&faults));
        let batches: Vec<Vec<(Node, Node)>> = (0..20u32)
            .map(|i| vec![(i, i + 1), (i + 20, i + 21)])
            .collect();
        let mut outcomes = Vec::new();
        for b in &batches {
            outcomes.push(wal.append(b).unwrap());
        }
        drop(wal);
        assert!(outcomes.contains(&AppendOutcome::TornByFault));

        // Survivors: fully-logged batches before the first torn record.
        let survivors: Vec<&Vec<(Node, Node)>> = outcomes
            .iter()
            .take_while(|o| !matches!(o, AppendOutcome::TornByFault))
            .zip(&batches)
            .filter(|(o, _)| matches!(o, AppendOutcome::Logged))
            .map(|(_, b)| b)
            .collect();

        let mut rec = recover(&dir, &[]).unwrap();
        assert!(rec.truncated);
        assert_eq!(rec.batches as usize, survivors.len());
        let mut oracle = IncrementalCc::new(64);
        for b in survivors {
            oracle.insert_batch(b);
        }
        assert!(labels_of(&mut rec.cc).equivalent(&labels_of(&mut oracle)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fault_drop_skips_records_but_log_stays_valid() {
        let dir = tempdir("faultdrop");
        let faults = Arc::new(FaultPlan::parse("seed=5,wal_drop=0.5").unwrap());
        let mut wal = Wal::open(&dir, 32, 0)
            .unwrap()
            .with_faults(Arc::clone(&faults));
        let batches: Vec<Vec<(Node, Node)>> = (0..16u32).map(|i| vec![(i, i + 1)]).collect();
        let mut logged = Vec::new();
        for b in &batches {
            if wal.append(b).unwrap() == AppendOutcome::Logged {
                logged.push(b.clone());
            }
        }
        drop(wal);
        assert!(faults.injected().wal_drops > 0);
        assert!(!logged.is_empty());

        let mut rec = recover(&dir, &[]).unwrap();
        // Drops leave no trace on disk: the log is clean, just sparser.
        assert!(!rec.truncated);
        assert_eq!(rec.batches as usize, logged.len());
        let mut oracle = IncrementalCc::new(32);
        for b in &logged {
            oracle.insert_batch(b);
        }
        assert!(labels_of(&mut rec.cc).equivalent(&labels_of(&mut oracle)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recover_missing_dir_is_io_error() {
        let dir = tempdir("missing");
        match recover(&dir, &[]) {
            Err(WalError::Io(_)) => {}
            other => panic!("expected Io, got {:?}", other.err()),
        }
        assert!(!exists(&dir));
    }
}
