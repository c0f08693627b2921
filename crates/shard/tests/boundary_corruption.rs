//! Satellite: boundary-log recovery under arbitrary corruption.
//!
//! The boundary log is the only router-owned persistent state. It is an
//! edge log in the WAL's format: a checksummed header naming the global
//! vertex count, then one checksummed edge-batch record per
//! `observe_batch` call that stored an edge. This property test logs
//! edges over several calls, flips and truncates bytes anywhere in the
//! file, and asserts the reopen never panics and either refuses a
//! damaged header (leaving the file as it found it) or recovers a valid
//! spanning forest that is exactly a forest replay of some prefix of
//! the logged batches, with the file cut back to that prefix's records.
//! A second reopen recovers identically, and the recovered store still
//! accepts new cut edges.

use std::sync::Mutex;

use afforest_core::IncrementalCc;
use afforest_graph::Node;
use afforest_shard::{BoundaryStore, BOUNDARY_LOG};
use proptest::prelude::*;

static CASE: Mutex<u64> = Mutex::new(0);

fn tempdir() -> std::path::PathBuf {
    let case = {
        let mut c = CASE.lock().unwrap();
        *c += 1;
        *c
    };
    let dir = std::env::temp_dir().join(format!(
        "afforest-boundary-corruption-{}-{case}",
        std::process::id(),
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The store invariant: every stored edge is in range and strictly
/// grows the cut-edge forest (version counts stored edges).
fn assert_valid_forest(store: &BoundaryStore, n: usize) {
    let (version, edges) = store.edges_since(0);
    assert_eq!(
        version,
        edges.len() as u64,
        "version must count stored edges"
    );
    let mut uf = IncrementalCc::new(n);
    for &(u, v) in &edges {
        assert!(
            (u as usize) < n && (v as usize) < n,
            "edge ({u}, {v}) out of range"
        );
        assert!(
            uf.insert(u, v),
            "stored edge ({u}, {v}) is redundant: not a forest"
        );
    }
}

/// The edges a fresh cut-edge forest keeps when `batches` replay in
/// order.
fn forest_replay(batches: &[Vec<(Node, Node)>], n: usize) -> Vec<(Node, Node)> {
    let mut uf = IncrementalCc::new(n);
    batches
        .iter()
        .flatten()
        .copied()
        .filter(|&(u, v)| uf.insert(u, v))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn recovery_is_total_and_yields_a_valid_prefix_forest(
        n in 4usize..64,
        calls in proptest::collection::vec(
            proptest::collection::vec((0u32..64, 0u32..64), 0..8),
            1..6,
        ),
        flips in proptest::collection::vec((0usize..512, 1u8..=255), 0..6),
        cut in (any::<bool>(), 0usize..512),
    ) {
        let cut = cut.0.then_some(cut.1);
        let dir = tempdir();
        let path = dir.join(BOUNDARY_LOG);
        let file_len = || std::fs::metadata(&path).unwrap().len() as usize;

        // Log the edges over several calls. Each call that stores an
        // edge appends one record holding exactly the edges it stored;
        // `ends[k]` is the file length once k records are on it.
        let mut logged: Vec<Vec<(Node, Node)>> = Vec::new();
        let mut ends = Vec::new();
        {
            let store = BoundaryStore::with_log(n, &path).unwrap();
            ends.push(file_len());
            for call in &calls {
                let edges: Vec<(Node, Node)> =
                    call.iter().map(|&(u, v)| (u % n as Node, v % n as Node)).collect();
                let before = store.edge_count();
                if store.observe_batch(&edges) > 0 {
                    logged.push(store.edges_since(before as u64).1);
                    ends.push(file_len());
                }
            }
            prop_assert_eq!(store.log_write_errors(), 0);
        }
        let original = std::fs::read(&path).unwrap();
        let header = original.get(..ends[0]);

        // Corrupt: flip bytes at arbitrary offsets, optionally chop the
        // tail at an arbitrary (not necessarily record-aligned) point.
        let mut bytes = original.clone();
        for &(at, xor) in &flips {
            if let Some(b) = bytes.get_mut(at % 512) {
                *b ^= xor;
            }
        }
        if let Some(cut) = cut {
            bytes.truncate(cut % (bytes.len() + 1));
        }
        std::fs::write(&path, &bytes).unwrap();

        // A damaged header is refused, naming the file and leaving its
        // bytes as they were. An empty file is a fresh log.
        let header_damaged = !bytes.is_empty() && bytes.get(..ends[0]) != header;
        let store = match BoundaryStore::with_log(n, &path) {
            Err(e) => {
                prop_assert!(header_damaged, "intact header refused: {}", e);
                prop_assert_eq!(&e.path, &path);
                prop_assert_eq!(std::fs::read(&path).unwrap(), bytes);
                let _ = std::fs::remove_dir_all(&dir);
                return Ok(());
            }
            Ok(store) => store,
        };
        prop_assert!(!header_damaged, "damaged header accepted");
        assert_valid_forest(&store, n);
        let first = store.edges_since(0);

        // Prefix recovery: the forest is a forest replay of the first k
        // logged batches, and the file is cut back to their records.
        let k = (0..=logged.len()).find(|&k| forest_replay(&logged[..k], n) == first.1);
        prop_assert!(k.is_some(), "recovered {:?}, not a replayed prefix of {:?}", first.1, logged);
        let k = k.unwrap();
        prop_assert_eq!(store.recovery().batches, k as u64);
        if bytes == original {
            prop_assert_eq!(k, logged.len(), "an untouched log must come back whole");
        }
        drop(store);
        prop_assert_eq!(std::fs::read(&path).unwrap(), original[..ends[k]].to_vec());

        // Idempotent: a second recovery sees exactly the same forest.
        let store = BoundaryStore::with_log(n, &path).unwrap();
        assert_valid_forest(&store, n);
        prop_assert_eq!(store.edges_since(0), first);

        // And the recovered store still accepts new cut edges.
        store.observe_batch(&[(0, (n - 1) as Node)]);
        assert_valid_forest(&store, n);
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
