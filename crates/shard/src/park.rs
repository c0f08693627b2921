//! Write parking for Down shards (DESIGN.md §15).
//!
//! When the circuit breaker has a shard open, `InsertEdges` batches
//! destined for it are *parked* instead of dropped or blocked on: each
//! batch is kept in order in memory and appended to a per-shard park
//! log `<root>/park-<k>.log`. A park log is an edge log in the WAL's
//! file format (`afforest_serve::wal`): a header naming the shard's
//! slice length, then one checksummed edge-batch record per parked
//! batch, all ids **shard local**. When the shard transitions back to
//! Healthy the router replays the parked batches in arrival order and
//! then clears the log.
//!
//! Durability mirrors the WAL's trade-off: writes go straight to the
//! OS (survives a process kill, not power loss), and recovery is the
//! WAL's replay scan — any byte string after a valid header yields a
//! valid prefix of batches, with the first torn/corrupt record
//! truncated away. A log whose header is missing, corrupt or names
//! another slice length is refused, untouched. Replay is idempotent
//! (union-find inserts are), so a crash between "replayed" and
//! "cleared" only costs re-replaying. Clearing rewrites the log (header,
//! then the surviving records) via a sibling tmp file renamed into
//! place: a kill mid-clear leaves the old log whole (never a
//! half-rewrite that durably drops undelivered batches).
//!
//! Like [`health`](crate::health), this module is pure bookkeeping: it
//! publishes no metrics and records no events. The router owns the
//! `afforest_parked_batches{shard}` gauge and the `park_replayed`
//! flight event, and never holds a park lock across a backend call.

use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use afforest_graph::Node;
use afforest_serve::wal::{self, LogError, Replay};

/// The park-log file name for shard `k` under the router's state root.
pub fn park_path(root: &Path, shard: usize) -> PathBuf {
    root.join(format!("park-{shard}.log"))
}

/// A parked batch: shard-local edge pairs, in arrival order.
type Batch = Vec<(Node, Node)>;

/// A durable shard's park log.
struct ParkLog {
    /// Append handle.
    file: File,
    /// Rewrite-by-rename target.
    path: PathBuf,
    /// The shard's slice length, named by the log's header.
    vertices: usize,
}

struct ParkShard {
    /// Parked batches, oldest first, shard-local ids.
    queue: Vec<Batch>,
    /// The park log when the set is durable.
    log: Option<ParkLog>,
    /// Appends that failed with an I/O error (batch stays in memory).
    write_errors: u64,
}

/// Per-shard parked-write queues, optionally backed by park logs.
pub struct ParkSet {
    shards: Vec<Mutex<ParkShard>>,
    recoveries: Vec<Replay>,
}

impl ParkSet {
    /// A volatile park set (no logs) — for in-process clusters and tests.
    pub fn in_memory(num_shards: usize) -> ParkSet {
        ParkSet {
            shards: (0..num_shards)
                .map(|_| {
                    Mutex::new(ParkShard {
                        queue: Vec::new(),
                        log: None,
                        write_errors: 0,
                    })
                })
                .collect(),
            recoveries: vec![Replay::default(); num_shards],
        }
    }

    /// A durable park set rooted at `root` (created if missing). An
    /// existing `park-<k>.log` is recovered first — shard `k`'s queue
    /// starts with the surviving prefix of batches, torn tail truncated
    /// — so parked writes outlive a router restart. `shard_lens[k]` is
    /// shard `k`'s local id space: a log whose header names another
    /// length is an error, and records naming ids outside it are
    /// treated as corruption.
    pub fn with_root(root: &Path, shard_lens: &[usize]) -> Result<ParkSet, LogError> {
        let mut shards = Vec::with_capacity(shard_lens.len());
        let mut recoveries = Vec::with_capacity(shard_lens.len());
        for (k, &vertices) in shard_lens.iter().enumerate() {
            let path = park_path(root, k);
            let mut queue = Vec::new();
            let (file, recovery) = wal::open_log(&path, vertices, |batch| queue.push(batch))?;
            recoveries.push(recovery);
            shards.push(Mutex::new(ParkShard {
                queue,
                log: Some(ParkLog {
                    file,
                    path,
                    vertices,
                }),
                write_errors: 0,
            }));
        }
        Ok(ParkSet { shards, recoveries })
    }

    /// Number of shards this set tracks.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// What recovery found for `shard` when the set was opened.
    pub fn recovery(&self, shard: usize) -> Replay {
        self.recoveries.get(shard).copied().unwrap_or_default()
    }

    fn slot(&self, shard: usize) -> Option<std::sync::MutexGuard<'_, ParkShard>> {
        self.shards
            .get(shard)
            .map(|m| m.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Parks one batch (shard-local ids) for `shard`. The batch always
    /// lands in memory; a failed log append is counted, not fatal.
    /// Returns the shard's new queue depth (0 if `shard` is unknown).
    pub fn park(&self, shard: usize, edges: &[(Node, Node)]) -> usize {
        let Some(mut s) = self.slot(shard) else {
            return 0;
        };
        s.queue.push(edges.to_vec());
        if let Some(log) = &mut s.log {
            let record = wal::encode_record(edges);
            if log
                .file
                .write_all(&record)
                .and_then(|()| log.file.flush())
                .is_err()
            {
                s.write_errors += 1;
            }
        }
        s.queue.len()
    }

    /// Parked batches for `shard` right now.
    pub fn depth(&self, shard: usize) -> usize {
        self.slot(shard).map_or(0, |s| s.queue.len())
    }

    /// Total parked edges for `shard` right now.
    pub fn parked_edges(&self, shard: usize) -> usize {
        self.slot(shard)
            .map_or(0, |s| s.queue.iter().map(Vec::len).sum())
    }

    /// Log appends that failed with an I/O error, across all shards.
    pub fn write_errors(&self) -> u64 {
        (0..self.shards.len())
            .filter_map(|k| self.slot(k))
            .map(|s| s.write_errors)
            .sum()
    }

    /// A copy of `shard`'s queue, oldest first, for replay. The caller
    /// must *not* hold this snapshot's shard locked while replaying —
    /// take the copy, drop straight into backend calls, then
    /// [`ParkSet::clear`] on full success.
    pub fn snapshot(&self, shard: usize) -> Vec<Vec<(Node, Node)>> {
        self.slot(shard).map_or_else(Vec::new, |s| s.queue.clone())
    }

    /// Drops the first `batches` parked batches of `shard` (the prefix
    /// a replay delivered) and rewrites the log to the survivors. With
    /// a partial replay the remaining suffix stays parked, in order.
    ///
    /// The rewrite goes through a sibling tmp file renamed over
    /// `park-<k>.log`, so a process kill mid-rewrite leaves either the
    /// old log (the delivered prefix re-parks on restart — replay is
    /// idempotent) or the new one — never a truncated window with the
    /// undelivered suffix durably gone.
    pub fn clear(&self, shard: usize, batches: usize) {
        let Some(mut s) = self.slot(shard) else {
            return;
        };
        let s = &mut *s;
        let cut = batches.min(s.queue.len());
        let keep = s.queue.split_off(cut);
        s.queue = keep;
        let Some(log) = &mut s.log else {
            return;
        };
        let mut bytes = wal::encode_header(log.vertices);
        for batch in &s.queue {
            bytes.extend_from_slice(&wal::encode_record(batch));
        }
        match write_replace(&log.path, &bytes) {
            Ok(file) => log.file = file,
            // The rename did not land: the old log (and its handle,
            // still positioned at the end) stays authoritative —
            // over-complete, which idempotent replay absorbs.
            Err(_) => s.write_errors += 1,
        }
    }
}

/// Atomically replaces `path`'s contents with `bytes`: write a sibling
/// tmp file, flush, rename over, reopen positioned at the end for
/// appends.
fn write_replace(path: &Path, bytes: &[u8]) -> std::io::Result<File> {
    let tmp = wal::tmp_path(path);
    let mut f = File::create(&tmp)?;
    f.write_all(bytes)?;
    f.flush()?;
    drop(f);
    std::fs::rename(&tmp, path)?;
    let mut file = OpenOptions::new().read(true).write(true).open(path)?;
    file.seek(SeekFrom::End(0))?;
    Ok(file)
}

#[cfg(test)]
mod tests {
    use super::*;
    use afforest_serve::wal::{tmp_path, WalError};

    fn tempdir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("afforest-park-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn parks_in_order_and_survives_reopen() {
        let dir = tempdir("reopen");
        let set = ParkSet::with_root(dir.as_path(), &[8, 8]).unwrap();
        assert_eq!(set.park(0, &[(0, 1)]), 1);
        assert_eq!(set.park(0, &[(2, 3), (3, 4)]), 2);
        assert_eq!(set.park(1, &[(5, 6)]), 1);
        assert_eq!(set.depth(0), 2);
        assert_eq!(set.parked_edges(0), 3);
        drop(set);

        let set = ParkSet::with_root(dir.as_path(), &[8, 8]).unwrap();
        assert_eq!(set.recovery(0).batches, 2);
        assert!(!set.recovery(0).truncated);
        assert_eq!(
            set.snapshot(0),
            vec![vec![(0, 1)], vec![(2, 3), (3, 4)]],
            "replay order is arrival order"
        );
        assert_eq!(set.snapshot(1), vec![vec![(5, 6)]]);
    }

    #[test]
    fn clear_drops_a_replayed_prefix_and_rewrites_the_log() {
        let dir = tempdir("clear");
        let set = ParkSet::with_root(dir.as_path(), &[16]).unwrap();
        for i in 0..4u32 {
            set.park(0, &[(i, i + 1)]);
        }
        set.clear(0, 2);
        assert_eq!(set.snapshot(0), vec![vec![(2, 3)], vec![(3, 4)]]);
        drop(set);
        // The rewritten log holds exactly the surviving suffix.
        let set = ParkSet::with_root(dir.as_path(), &[16]).unwrap();
        assert_eq!(set.snapshot(0), vec![vec![(2, 3)], vec![(3, 4)]]);
        set.clear(0, usize::MAX);
        assert_eq!(set.depth(0), 0);
        assert_eq!(
            std::fs::read(park_path(dir.as_path(), 0)).unwrap(),
            wal::encode_header(16),
            "a fully cleared log is its header alone"
        );
    }

    #[test]
    fn clear_renames_atomically_and_appends_keep_working() {
        let dir = tempdir("rename");
        let set = ParkSet::with_root(dir.as_path(), &[16]).unwrap();
        for i in 0..3u32 {
            set.park(0, &[(i, i + 1)]);
        }
        set.clear(0, 1);
        // No tmp residue, and post-clear appends land in the renamed log.
        assert!(!tmp_path(&park_path(dir.as_path(), 0)).exists());
        set.park(0, &[(9, 10)]);
        assert_eq!(set.write_errors(), 0);
        drop(set);
        let set = ParkSet::with_root(dir.as_path(), &[16]).unwrap();
        assert_eq!(
            set.snapshot(0),
            vec![vec![(1, 2)], vec![(2, 3)], vec![(9, 10)]]
        );
        drop(set);

        // A tmp file left by a rewrite killed before its rename is
        // swept on open; the log it was replacing is untouched.
        std::fs::write(tmp_path(&park_path(dir.as_path(), 0)), b"half a rewrite").unwrap();
        let set = ParkSet::with_root(dir.as_path(), &[16]).unwrap();
        assert_eq!(set.depth(0), 3);
        assert!(!tmp_path(&park_path(dir.as_path(), 0)).exists());
    }

    #[test]
    fn recovery_truncates_torn_and_corrupt_tails() {
        let dir = tempdir("corrupt");
        let set = ParkSet::with_root(dir.as_path(), &[8]).unwrap();
        set.park(0, &[(1, 2)]);
        set.park(0, &[(3, 4)]);
        drop(set);
        let path = park_path(dir.as_path(), 0);
        let clean = std::fs::read(&path).unwrap();

        // Torn tail: a few bytes of a half-written record header.
        let mut torn = clean.clone();
        torn.extend_from_slice(&clean[..5]);
        std::fs::write(&path, &torn).unwrap();
        let set = ParkSet::with_root(dir.as_path(), &[8]).unwrap();
        assert_eq!(set.recovery(0).batches, 2);
        assert!(set.recovery(0).truncated);
        drop(set);
        assert_eq!(
            std::fs::read(&path).unwrap(),
            clean,
            "tail cut at a record boundary"
        );

        // Corrupt byte inside the second record: first survives.
        let mut flipped = clean.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0xFF;
        std::fs::write(&path, &flipped).unwrap();
        let set = ParkSet::with_root(dir.as_path(), &[8]).unwrap();
        assert_eq!(set.recovery(0).batches, 1);
        assert_eq!(set.snapshot(0), vec![vec![(1, 2)]]);
        drop(set);

        // An id outside the shard's space is corruption too.
        let out_of_range = [wal::encode_header(8), wal::encode_record(&[(7, 9)])].concat();
        std::fs::write(&path, out_of_range).unwrap();
        let set = ParkSet::with_root(dir.as_path(), &[8]).unwrap();
        assert_eq!(set.recovery(0).batches, 0);
        assert!(set.recovery(0).truncated);
    }

    #[test]
    fn foreign_or_missing_header_is_refused_untouched() {
        let dir = tempdir("header");
        let set = ParkSet::with_root(dir.as_path(), &[8]).unwrap();
        set.park(0, &[(1, 2)]);
        drop(set);
        let path = park_path(dir.as_path(), 0);
        let logged = std::fs::read(&path).unwrap();

        // Another slice length (a restart with another plan): refused,
        // naming the file, with the logged batch still on disk.
        let err = ParkSet::with_root(dir.as_path(), &[9])
            .err()
            .expect("slice length mismatch refused");
        assert_eq!(err.path, path);
        assert!(
            matches!(
                err.error,
                WalError::VertexMismatch {
                    wal: 8,
                    expected: 9
                }
            ),
            "{err}"
        );
        assert_eq!(std::fs::read(&path).unwrap(), logged);

        // No header (bare records): refused, not truncated to nothing.
        let bare = wal::encode_record(&[(1, 2)]);
        std::fs::write(&path, &bare).unwrap();
        let err = ParkSet::with_root(dir.as_path(), &[8])
            .err()
            .expect("headerless log refused");
        assert_eq!(err.path, path);
        assert!(matches!(err.error, WalError::Corrupt(_)), "{err}");
        assert_eq!(std::fs::read(&path).unwrap(), bare);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn in_memory_set_parks_without_any_files() {
        let set = ParkSet::in_memory(1);
        set.park(0, &[(0, 1)]);
        assert_eq!(set.depth(0), 1);
        set.clear(0, 1);
        assert_eq!(set.depth(0), 0);
        assert_eq!(set.write_errors(), 0);
        // Unknown shards are inert.
        assert_eq!(set.park(9, &[(0, 1)]), 0);
        assert_eq!(set.depth(9), 0);
    }
}
