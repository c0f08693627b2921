//! Boundary edge store: the router-side record of cut edges.
//!
//! Edges whose endpoints live on two different shards cannot be given
//! to either shard's engine (each engine only knows its own local
//! vertex range). The router records them here instead. The store
//! keeps a *spanning forest* of the cut edges — an edge is stored only
//! if it merges two components of the union-find maintained over cut
//! edges alone. A dropped edge is safe to drop: its endpoints are
//! already connected by stored cut edges, so every composite
//! connectivity answer derived from the stored set equals the answer
//! derived from the full set.
//!
//! The store carries a monotonically increasing `version` (bumped once
//! per *stored* edge, so it is also the stored-edge count). Stored edges
//! are append-only, so the router extends the cut its cached composite
//! was built from with [`BoundaryStore::edges_since`] its version.
//!
//! With [`BoundaryStore::with_log`] the store is backed by an edge log
//! in the WAL's file format (`afforest_serve::wal`): a header naming
//! the global vertex count, then one checksummed edge-batch record per
//! [`BoundaryStore::observe_batch`] call that stored an edge, holding
//! exactly the edges it stored. Reloading replays those records through
//! the cut-edge forest up to the first corrupt or torn one (the file is
//! truncated there), so the recovered forest is always a replay of a
//! prefix of the logged batches and a router restart does not forget
//! cross-shard connectivity. A log whose header is missing, corrupt or
//! names another vertex count is refused, untouched.

use std::fs::File;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;

use afforest_core::IncrementalCc;
use afforest_graph::Node;
use afforest_serve::wal::{self, LogError, Replay};

/// File name of the boundary log inside a router's WAL namespace.
pub const BOUNDARY_LOG: &str = "boundary.log";

struct BoundaryInner {
    uf: IncrementalCc,
    stored: Vec<(Node, Node)>,
    version: u64,
    log: Option<File>,
    log_errors: u64,
}

/// Thread-safe spanning-forest store for cut edges over the *global*
/// vertex space.
pub struct BoundaryStore {
    vertices: usize,
    recovery: Replay,
    inner: Mutex<BoundaryInner>,
}

impl BoundaryStore {
    /// An empty, memory-only store over `n` global vertices.
    pub fn new(n: usize) -> BoundaryStore {
        BoundaryStore {
            vertices: n,
            recovery: Replay::default(),
            inner: Mutex::new(BoundaryInner {
                uf: IncrementalCc::new(n),
                stored: Vec::new(),
                version: 0,
                log: None,
                log_errors: 0,
            }),
        }
    }

    /// A store over `n` global vertices backed by the edge log at
    /// `path` (created if absent). An existing log is replayed through
    /// the cut-edge forest, its bad tail truncated; new stored edges
    /// are appended. A log for another vertex count is an error.
    pub fn with_log(n: usize, path: &Path) -> Result<BoundaryStore, LogError> {
        let mut uf = IncrementalCc::new(n);
        let mut stored = Vec::new();
        let (log, recovery) = wal::open_log(path, n, |batch| {
            stored.extend(batch.into_iter().filter(|&(u, v)| uf.insert(u, v)));
        })?;
        Ok(BoundaryStore {
            vertices: n,
            recovery,
            inner: Mutex::new(BoundaryInner {
                uf,
                version: stored.len() as u64,
                stored,
                log: Some(log),
                log_errors: 0,
            }),
        })
    }

    /// What replaying the log found when the store was opened (all
    /// zero for a memory-only store).
    pub fn recovery(&self) -> Replay {
        self.recovery
    }

    /// Offers a batch of cut edges. Edges that merge two components of
    /// the cut-edge forest are stored (and logged as one record, if a
    /// log is attached); the rest are dropped as redundant. Out-of-range
    /// endpoints are ignored. Returns how many edges were stored.
    pub fn observe_batch(&self, edges: &[(Node, Node)]) -> usize {
        let n = self.vertices as u64;
        let valid: Vec<(Node, Node)> = edges
            .iter()
            .copied()
            .filter(|&(u, v)| (u as u64) < n && (v as u64) < n)
            .collect();
        if valid.is_empty() {
            return 0;
        }
        let mut fresh = Vec::new();
        let mut g = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        for (u, v) in valid {
            if g.uf.insert(u, v) {
                g.stored.push((u, v));
                g.version += 1;
                fresh.push((u, v));
            }
        }
        if !fresh.is_empty() {
            if let Some(f) = g.log.as_mut() {
                if f.write_all(&wal::encode_record(&fresh)).is_err() {
                    g.log_errors += 1;
                }
            }
        }
        drop(g);
        fresh.len()
    }

    /// The current version and the edges stored after `version`, read
    /// atomically; `edges_since(0)` is the whole forest. Stored edges are
    /// append-only and the version counts them, so a caller holding the
    /// forest at `version` extends it to the current one by appending
    /// the suffix. A `version` ahead of the store yields no edges.
    pub fn edges_since(&self, version: u64) -> (u64, Vec<(Node, Node)>) {
        let g = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let from = usize::try_from(version).unwrap_or(usize::MAX);
        (g.version, g.stored.iter().skip(from).copied().collect())
    }

    /// Number of edges currently stored (the version, read under the
    /// lock without copying the forest).
    pub fn edge_count(&self) -> usize {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).version as usize
    }

    /// Number of failed log appends since the store was opened.
    pub fn log_write_errors(&self) -> u64 {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .log_errors
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afforest_serve::wal::WalError;
    use std::fs::{self, OpenOptions};

    fn tempdir(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("afforest-boundary-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn redundant_cut_edges_are_dropped() {
        let store = BoundaryStore::new(10);
        assert_eq!(store.observe_batch(&[(0, 5), (5, 9)]), 2);
        // (0, 9) closes a cycle in the cut-edge forest: dropped.
        assert_eq!(store.observe_batch(&[(0, 9)]), 0);
        let (version, edges) = store.edges_since(0);
        assert_eq!(version, 2);
        assert_eq!(edges, vec![(0, 5), (5, 9)]);
    }

    #[test]
    fn edges_since_returns_the_suffix_after_a_version() {
        let store = BoundaryStore::new(10);
        assert_eq!(store.edges_since(0), (0, vec![]));
        store.observe_batch(&[(0, 5), (5, 9)]);
        store.observe_batch(&[(0, 9), (1, 6)]);
        assert_eq!(store.edges_since(0), (3, vec![(0, 5), (5, 9), (1, 6)]));
        assert_eq!(store.edges_since(2), (3, vec![(1, 6)]));
        assert_eq!(store.edges_since(3), (3, vec![]));
        // A version the store never reached: nothing, not a panic.
        assert_eq!(store.edges_since(7), (3, vec![]));
    }

    #[test]
    fn out_of_range_endpoints_are_ignored() {
        let store = BoundaryStore::new(4);
        assert_eq!(store.observe_batch(&[(0, 99), (1, 2)]), 1);
        assert_eq!(store.edge_count(), 1);
    }

    #[test]
    fn log_roundtrip_preserves_forest() {
        let dir = tempdir("roundtrip");
        let path = dir.join(BOUNDARY_LOG);
        {
            let store = BoundaryStore::with_log(10, &path).unwrap();
            store.observe_batch(&[(0, 5), (5, 9), (0, 9)]);
        }
        let store = BoundaryStore::with_log(10, &path).unwrap();
        let (version, edges) = store.edges_since(0);
        assert_eq!(version, 2);
        assert_eq!(edges, vec![(0, 5), (5, 9)]);
        assert_eq!(store.recovery().batches, 1);
        assert!(!store.recovery().truncated);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated() {
        let dir = tempdir("torn");
        let path = dir.join(BOUNDARY_LOG);
        {
            let store = BoundaryStore::with_log(10, &path).unwrap();
            store.observe_batch(&[(0, 5)]);
        }
        let clean = fs::read(&path).unwrap();
        // Simulate a crash mid-append: 3 garbage bytes past the record.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[0xde, 0xad, 0xbe]).unwrap();
        drop(f);
        let store = BoundaryStore::with_log(10, &path).unwrap();
        assert_eq!(store.edges_since(0).1, vec![(0, 5)]);
        assert!(store.recovery().truncated);
        assert_eq!(fs::read(&path).unwrap(), clean, "cut at a record boundary");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn flipped_byte_ends_the_replay_at_its_record() {
        let dir = tempdir("flip");
        let path = dir.join(BOUNDARY_LOG);
        let first_end = {
            let store = BoundaryStore::with_log(10, &path).unwrap();
            store.observe_batch(&[(0, 5)]);
            let first_end = fs::metadata(&path).unwrap().len() as usize;
            store.observe_batch(&[(1, 6)]);
            first_end
        };
        // Flip the low byte of the second record's last endpoint: 6
        // becomes 7, still in range, so only the checksum can tell.
        let mut bytes = fs::read(&path).unwrap();
        let at = bytes.len() - 4;
        assert!(at >= first_end, "the flip lands inside the second record");
        bytes[at] ^= 0x01;
        fs::write(&path, &bytes).unwrap();

        let store = BoundaryStore::with_log(10, &path).unwrap();
        assert_eq!(
            store.edges_since(0),
            (1, vec![(0, 5)]),
            "exactly the first batch's forest; (1, 7) was never inserted"
        );
        assert!(store.recovery().truncated);
        assert_eq!(store.recovery().batches, 1);
        drop(store);
        assert_eq!(fs::metadata(&path).unwrap().len() as usize, first_end);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_or_missing_header_is_refused_untouched() {
        let dir = tempdir("header");
        let path = dir.join(BOUNDARY_LOG);
        {
            let store = BoundaryStore::with_log(10, &path).unwrap();
            store.observe_batch(&[(0, 5)]);
        }
        let logged = fs::read(&path).unwrap();

        // Another global vertex count (a restart with another
        // `--vertices`): refused, naming the file, bytes untouched.
        let err = BoundaryStore::with_log(12, &path)
            .err()
            .expect("vertex count mismatch refused");
        assert_eq!(err.path, path);
        assert!(
            matches!(
                err.error,
                WalError::VertexMismatch {
                    wal: 10,
                    expected: 12
                }
            ),
            "{err}"
        );
        assert_eq!(fs::read(&path).unwrap(), logged);

        // No header (bare little-endian 8-byte pairs): refused, not
        // replayed as edges.
        let bare: Vec<u8> = [(0u8, 5u8), (1, 6), (2, 7), (3, 8)]
            .iter()
            .flat_map(|&(u, v)| [u, 0, 0, 0, v, 0, 0, 0])
            .collect();
        fs::write(&path, &bare).unwrap();
        let err = BoundaryStore::with_log(10, &path)
            .err()
            .expect("headerless log refused");
        assert_eq!(err.path, path);
        assert!(matches!(err.error, WalError::Corrupt(_)), "{err}");
        assert_eq!(fs::read(&path).unwrap(), bare);
        let _ = fs::remove_dir_all(&dir);
    }
}
