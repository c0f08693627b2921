//! Router edge logs in version 1 of the edge-log format, whose records
//! are checksummed per byte, still replay exactly. Opening one rewrites
//! it as version 2 (records checksummed per u32 word) before anything
//! is appended, so no file ever mixes the two record sums, and the log
//! keeps working afterwards.

use std::path::{Path, PathBuf};

use afforest_graph::io::checksum64;
use afforest_graph::Node;
use afforest_serve::wal;
use afforest_shard::{park_path, BoundaryStore, ParkSet, BOUNDARY_LOG};

fn tempdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "afforest-edge-log-versions-{}-{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A version-1 edge log of `batches` over `n` vertices, byte for byte as
/// a binary from before the word-wise record sum wrote it.
fn v1_log(n: usize, batches: &[Vec<(Node, Node)>]) -> Vec<u8> {
    let mut log = b"AFWAL\x00\x00\x01".to_vec();
    log.extend_from_slice(&(n as u64).to_le_bytes());
    log.extend_from_slice(&checksum64(&log).to_le_bytes());
    for batch in batches {
        let mut payload = vec![0x01];
        payload.extend_from_slice(&(batch.len() as u32).to_le_bytes());
        for &(u, v) in batch {
            payload.extend_from_slice(&u.to_le_bytes());
            payload.extend_from_slice(&v.to_le_bytes());
        }
        log.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        log.extend_from_slice(&checksum64(&payload).to_le_bytes());
        log.extend_from_slice(&payload);
    }
    log
}

/// The version-2 edge log of `batches` over `n` vertices.
fn v2_log(n: usize, batches: &[Vec<(Node, Node)>]) -> Vec<u8> {
    let records = batches.iter().flat_map(|b| wal::encode_record(b));
    wal::encode_header(n).into_iter().chain(records).collect()
}

fn read(path: &Path) -> Vec<u8> {
    std::fs::read(path).unwrap()
}

#[test]
fn version_one_park_logs_replay_exactly_and_keep_working() {
    let dir = tempdir("park");
    let logged = [vec![vec![(0, 1)], vec![(2, 3), (3, 4)]], vec![vec![(5, 6)]]];
    for (k, batches) in logged.iter().enumerate() {
        std::fs::write(park_path(&dir, k), v1_log(8, batches)).unwrap();
    }
    let set = ParkSet::with_root(&dir, &[8, 8]).unwrap();
    for (k, batches) in logged.iter().enumerate() {
        assert_eq!(set.snapshot(k), *batches, "shard {k}");
        assert_eq!(set.recovery(k).batches, batches.len() as u64);
        assert!(!set.recovery(k).truncated);
        assert_eq!(read(&park_path(&dir, k)), v2_log(8, batches), "shard {k}");
    }
    // Appends and a partial clear after the rewrite.
    set.park(0, &[(6, 7)]);
    set.clear(1, 1);
    assert_eq!(set.write_errors(), 0);
    drop(set);

    let set = ParkSet::with_root(&dir, &[8, 8]).unwrap();
    let parked = vec![vec![(0, 1)], vec![(2, 3), (3, 4)], vec![(6, 7)]];
    assert_eq!(set.snapshot(0), parked);
    assert_eq!(set.depth(1), 0);
    assert_eq!(read(&park_path(&dir, 0)), v2_log(8, &parked));
    assert_eq!(read(&park_path(&dir, 1)), v2_log(8, &[]));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn version_one_boundary_log_replays_exactly_and_keeps_working() {
    let dir = tempdir("boundary");
    let path = dir.join(BOUNDARY_LOG);
    let batches = vec![vec![(0, 9), (1, 10)], vec![(2, 11)]];
    std::fs::write(&path, v1_log(16, &batches)).unwrap();

    let store = BoundaryStore::with_log(16, &path).unwrap();
    assert_eq!(store.edges_since(0), (3, vec![(0, 9), (1, 10), (2, 11)]));
    assert_eq!(store.recovery().batches, 2);
    assert!(!store.recovery().truncated);
    assert_eq!(read(&path), v2_log(16, &batches));
    // One new cut edge stored, one redundant one dropped.
    assert_eq!(store.observe_batch(&[(3, 12), (0, 9)]), 1);
    assert_eq!(store.log_write_errors(), 0);
    drop(store);

    let store = BoundaryStore::with_log(16, &path).unwrap();
    let (version, edges) = store.edges_since(0);
    assert_eq!(
        (version, edges),
        (4, vec![(0, 9), (1, 10), (2, 11), (3, 12)])
    );
    let mut all = batches;
    all.push(vec![(3, 12)]);
    assert_eq!(read(&path), v2_log(16, &all));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_rewrite_killed_before_its_rename_is_redone_on_the_next_open() {
    let dir = tempdir("cut");
    let path = dir.join(BOUNDARY_LOG);
    let batches = vec![vec![(0, 4)], vec![(1, 5), (2, 6)]];
    let v1 = v1_log(8, &batches);
    std::fs::write(&path, &v1).unwrap();
    // The kill left half the version-2 rewrite beside the whole v1 log.
    let v2 = v2_log(8, &batches);
    std::fs::write(wal::tmp_path(&path), &v2[..v2.len() / 2]).unwrap();

    let store = BoundaryStore::with_log(8, &path).unwrap();
    assert_eq!(store.edges_since(0).1, vec![(0, 4), (1, 5), (2, 6)]);
    assert!(!store.recovery().truncated);
    assert_eq!(read(&path), v2);
    assert!(!wal::tmp_path(&path).exists());
    let _ = std::fs::remove_dir_all(&dir);
}
