//! Property tests for WAL recovery: arbitrary corruption — byte flips,
//! truncation, or both — must never panic `recover`, and whatever state
//! comes back must equal replaying a *prefix* of the committed batches.
//!
//! This is the durability analogue of the protocol's total-decoding
//! property: the log is an untrusted input after a crash, and recovery is
//! a total function over its byte contents.

use afforest_core::IncrementalCc;
use afforest_graph::Node;
use afforest_serve::wal::{recover, Wal, LOG_FILE};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Bytes before the first record (magic + vertex count + header checksum).
const HEADER_LEN: usize = 24;

static DIR_SEQ: Mutex<u64> = Mutex::new(0);

/// A unique scratch directory per proptest case (cases run concurrently
/// across test threads).
fn scratch_dir() -> PathBuf {
    let id = {
        let mut seq = DIR_SEQ.lock().expect("dir counter");
        *seq += 1;
        *seq
    };
    std::env::temp_dir().join(format!("afforest-walprop-{}-{id}", std::process::id()))
}

fn arb_batches(n: usize) -> impl Strategy<Value = Vec<Vec<(Node, Node)>>> {
    let edge = (0..n as Node, 0..n as Node);
    proptest::collection::vec(proptest::collection::vec(edge, 0..12), 1..10)
}

/// Writes `batches` into a fresh WAL at `dir` and returns the log bytes.
/// Every record is at least 17 bytes (frame + tag + count), so with one or
/// more batches the body is never empty.
fn write_wal(dir: &Path, n: usize, batches: &[Vec<(Node, Node)>]) -> Vec<u8> {
    let mut wal = Wal::open(dir, n, 0).expect("open wal");
    for b in batches {
        wal.append(b).expect("append");
    }
    drop(wal);
    std::fs::read(dir.join(LOG_FILE)).expect("read log back")
}

/// The ground truth for "replayed the first k batches".
fn oracle_labels(
    n: usize,
    batches: &[Vec<(Node, Node)>],
    k: usize,
) -> afforest_core::ComponentLabels {
    let mut cc = IncrementalCc::new(n);
    for b in &batches[..k] {
        cc.insert_batch(b);
    }
    cc.labels()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Flip arbitrary bytes after the header: recovery succeeds, never
    /// panics, and yields exactly the state of some clean prefix.
    #[test]
    fn byte_flips_recover_to_a_prefix(
        (n, batches) in (4usize..64).prop_flat_map(|n| (Just(n), arb_batches(n))),
        flips in proptest::collection::vec((any::<usize>(), 1u8..=255), 1..6),
    ) {
        let dir = scratch_dir();
        let bytes = write_wal(&dir, n, &batches);
        let body_len = bytes.len() - HEADER_LEN;

        let mut corrupted = bytes.clone();
        for (at, mask) in &flips {
            corrupted[HEADER_LEN + at % body_len] ^= mask;
        }
        std::fs::write(dir.join(LOG_FILE), &corrupted).unwrap();

        let mut rec = recover(&dir, None).expect("recover over flipped bytes");
        let k = rec.batches as usize;
        prop_assert!(k <= batches.len());
        prop_assert!(rec.cc.labels().equivalent(&oracle_labels(n, &batches, k)),
            "recovered {}/{} batches but state does not match that prefix", k, batches.len());

        // Recovery truncated the bad tail: a second recovery is clean and
        // idempotent.
        let again = recover(&dir, None).expect("second recover");
        prop_assert!(!again.truncated);
        prop_assert_eq!(again.batches as usize, k);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Truncate the file anywhere in the body: same contract, and a cut
    /// can only lose the tail, never a middle record.
    #[test]
    fn truncation_recovers_to_a_prefix(
        (n, batches) in (4usize..64).prop_flat_map(|n| (Just(n), arb_batches(n))),
        cut in any::<usize>(),
    ) {
        let dir = scratch_dir();
        let bytes = write_wal(&dir, n, &batches);
        let keep = HEADER_LEN + cut % (bytes.len() - HEADER_LEN + 1);
        std::fs::write(dir.join(LOG_FILE), &bytes[..keep]).unwrap();

        let mut rec = recover(&dir, None).expect("recover over truncated log");
        let k = rec.batches as usize;
        prop_assert!(k <= batches.len());
        prop_assert!(rec.cc.labels().equivalent(&oracle_labels(n, &batches, k)));
        if keep == bytes.len() {
            // Nothing was actually cut: full recovery, clean EOF.
            prop_assert_eq!(k, batches.len());
            prop_assert!(!rec.truncated);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Corrupt the header itself (or cut inside it): a typed error or a
    /// clean recovery — never a panic.
    #[test]
    fn header_corruption_is_total(
        (n, batches) in (4usize..32).prop_flat_map(|n| (Just(n), arb_batches(n))),
        at in 0usize..HEADER_LEN,
        mask in 1u8..=255,
        truncate_instead in any::<bool>(),
    ) {
        let dir = scratch_dir();
        let bytes = write_wal(&dir, n, &batches);
        let corrupted = if truncate_instead {
            bytes[..at].to_vec()
        } else {
            let mut c = bytes.clone();
            c[at] ^= mask;
            c
        };
        std::fs::write(dir.join(LOG_FILE), &corrupted).unwrap();
        // Ok or Err both acceptable; the property is totality.
        let _ = recover(&dir, None);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
