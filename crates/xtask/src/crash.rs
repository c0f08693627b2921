//! Crash-recovery smoke test for `cargo xtask ci`.
//!
//! The WAL's whole contract in one scenario: seed the WAL directory with
//! a log of known batches in version 1 of the edge-log format (records
//! checksummed per byte, as binaries before the word-wise record sum
//! wrote them), start `afforest serve` with `--wal-dir` over it, ingest a
//! known edge set over the wire, wait until the server has applied it
//! (append precedes apply, so applied ⇒ logged), then SIGKILL the
//! process — no drain, no shutdown frame. The server must replay every
//! version-1 batch at start and rewrite the log as version 2 before
//! appending. `afforest recover` must then report exactly the component
//! count an uninterrupted run would have: `afforest cc` over the seed
//! graph, the version-1 batches and the ingested edges is the oracle.
//! Each insert is its own batch, so the WAL has compacted before the
//! kill: recovery must start from the parent snapshot and replay the
//! batches logged after it.
//!
//! CI runs it twice: once clean and once with chaos faults injected
//! (stretched applies and torn response frames). The injected fault
//! classes preserve WAL equivalence — a torn response only hides an ack,
//! and re-inserting an edge is idempotent for connectivity — so the same
//! exact-count assertion holds under chaos.

use crate::smoke::{cli_cmd, connect, Reaper};
use afforest_graph::io::checksum64;
use afforest_serve::{Client, RetryPolicy};
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::Stdio;
use std::time::{Duration, Instant};

/// Edges ingested over the wire, on top of the generated graph.
const INSERTS: usize = 200;
const GRAPH_N: u32 = 2000;

/// Runs the crash-recovery smoke; returns success.
pub fn run_crash(root: &Path, faults: bool) -> bool {
    match crash(root, faults) {
        Ok(()) => true,
        Err(e) => {
            eprintln!("==> crash recovery smoke{} failed: {e}", tag(faults));
            false
        }
    }
}

fn tag(faults: bool) -> &'static str {
    if faults {
        " (faults)"
    } else {
        ""
    }
}

/// The deterministic ingest workload (shared with the oracle).
fn inserted_edges() -> Vec<(u32, u32)> {
    (0..INSERTS as u32)
        .map(|i| ((i * 37) % GRAPH_N, (i * 61 + 1) % GRAPH_N))
        .collect()
}

/// The batches of the version-1 log the WAL directory starts with
/// (shared with the oracle).
fn logged_batches() -> Vec<Vec<(u32, u32)>> {
    (0..6u32)
        .map(|b| {
            (0..5u32)
                .map(|i| {
                    let i = b * 5 + i;
                    ((i * 53 + 7) % GRAPH_N, (i * 97 + 11) % GRAPH_N)
                })
                .collect()
        })
        .collect()
}

/// Magic of version 1 of the edge-log format.
const MAGIC_V1: &[u8; 8] = b"AFWAL\x00\x00\x01";

/// `batches` as a version-1 edge log over [`GRAPH_N`] vertices, byte for
/// byte as a binary from before the word-wise record sum wrote it.
fn v1_log(batches: &[Vec<(u32, u32)>]) -> Vec<u8> {
    let mut log = MAGIC_V1.to_vec();
    log.extend_from_slice(&u64::from(GRAPH_N).to_le_bytes());
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

/// A typed client tuned for the chaos run: under `--faults` the server
/// tears response frames, which looks like a dead connection; the
/// client's retry policy reconnects and re-sends. Retrying an insert is
/// safe — edge insertion is idempotent for connectivity.
fn chaos_client(addr: &str) -> Result<Client, String> {
    Ok(connect(addr)?.with_retry(RetryPolicy {
        max_retries: 12,
        backoff: Duration::from_millis(20),
    }))
}

/// The value of the `key:` line of `afforest recover` / `afforest cc`
/// text.
fn field<'a>(text: &'a str, key: &str) -> Result<&'a str, String> {
    text.lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .map(str::trim)
        .ok_or_else(|| format!("no {key} line in:\n{text}"))
}

/// Pulls `components:  N` out of `afforest recover` / `afforest cc` text.
fn parse_components(text: &str) -> Result<u64, String> {
    field(text, "components")?
        .parse()
        .map_err(|e| format!("bad components line: {e}"))
}

/// Waits until the server has published every edge it admitted, so the
/// next insert starts a batch of its own.
fn wait_published(client: &mut Client) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let depth = client
            .stats()
            .map_err(|e| format!("stats: {e}"))?
            .queue_depth;
        if depth == 0 {
            return Ok(());
        }
        if Instant::now() > deadline {
            return Err(format!("insert never published: queue depth {depth}"));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn crash(root: &Path, faults: bool) -> Result<(), String> {
    let tmp = std::env::temp_dir();
    let pid = std::process::id();
    let suffix = format!("{pid}-{}", faults as u8);
    let graph = tmp.join(format!("afforest-crash-{suffix}.el"));
    let combined = tmp.join(format!("afforest-crash-combined-{suffix}.el"));
    let wal_dir = tmp.join(format!("afforest-crash-wal-{suffix}"));
    let _ = std::fs::remove_dir_all(&wal_dir);
    let graph_s = graph.to_string_lossy().into_owned();
    let wal_s = wal_dir.to_string_lossy().into_owned();

    // 1. Generate the seed graph. Sparse on purpose: hundreds of
    // components, so a single lost batch moves the count — a dense graph
    // would make the equivalence assertion trivially `1 == 1`.
    let status = cli_cmd(root, false)
        .args([
            "generate",
            "urand",
            "--out",
            &graph_s,
            "--n",
            "2000",
            "--edge-factor",
            "1",
            "--seed",
            "3",
        ])
        .status()
        .map_err(|e| format!("spawn generate: {e}"))?;
    if !status.success() {
        return Err(format!("generate failed ({status})"));
    }

    // 2. Seed the WAL directory with a version-1 log (the legacy
    // root-level layout of the default tenant), then serve with that WAL
    // on an ephemeral port. The 20 one-batch inserts below compact at
    // batches 8 and 16 and leave 4 batches in the log.
    let logged = logged_batches();
    let v1 = v1_log(&logged);
    let log_path = wal_dir.join("wal.log");
    std::fs::create_dir_all(&wal_dir).map_err(|e| format!("create wal dir: {e}"))?;
    std::fs::write(&log_path, &v1).map_err(|e| format!("write v1 log: {e}"))?;
    let mut args = vec![
        "serve",
        &graph_s,
        "--addr",
        "127.0.0.1:0",
        "--workers",
        "4",
        "--max-batch-edges",
        "64",
        "--max-batch-delay-ms",
        "1",
        "--wal-dir",
        &wal_s,
        "--wal-snapshot-every",
        "8",
    ];
    if faults {
        args.extend([
            "--faults",
            "seed=5,apply_delay_ms=2,apply_delay_prob=0.5,torn_frame=0.02",
        ]);
    }
    let mut server = Reaper(
        cli_cmd(root, false)
            .args(&args)
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn serve: {e}"))?,
    );
    let stdout = server.0.stdout.take().ok_or("serve stdout not captured")?;
    let mut lines = BufReader::new(stdout).lines();
    let mut replayed_at_start = None;
    let addr = loop {
        let line = lines
            .next()
            .ok_or("serve exited before announcing its address")?
            .map_err(|e| format!("read serve stdout: {e}"))?;
        if let Some(rest) = line.strip_prefix("recovered ") {
            replayed_at_start = rest.split_whitespace().next().map(str::to_string);
        }
        if let Some(rest) = line.strip_prefix("listening on ") {
            break rest
                .split_whitespace()
                .next()
                .ok_or("malformed listen line")?
                .to_string();
        }
    };

    // The server replayed every version-1 batch, and rewrote the log as
    // version 2 before appending: same length (records keep their size),
    // new magic.
    if replayed_at_start != Some(logged.len().to_string()) {
        return Err(format!(
            "serve replayed {replayed_at_start:?} batch(es) of the version-1 log, not {}",
            logged.len()
        ));
    }
    let upgraded = std::fs::read(&log_path).map_err(|e| format!("read wal.log: {e}"))?;
    if upgraded.len() != v1.len() || !upgraded.starts_with(b"AFWAL\x00\x00\x02") {
        return Err(format!(
            "wal.log was not rewritten as version 2: {} bytes starting {:?}",
            upgraded.len(),
            &upgraded[..upgraded.len().min(8)]
        ));
    }

    // 3. Ingest the known workload, one batch per insert: the writer
    // would coalesce inserts sent back to back into a few batches.
    let mut client = chaos_client(&addr)?;
    let edges = inserted_edges();
    for chunk in edges.chunks(10) {
        let accepted = client
            .insert_edges(chunk)
            .map_err(|e| format!("insert: {e}"))?;
        if accepted as usize != chunk.len() {
            return Err(format!(
                "insert accepted {accepted} of {} edge(s)",
                chunk.len()
            ));
        }
        wait_published(&mut client)?;
    }

    // 4. Wait until everything admitted has been applied: queue empty and
    // the ingested counter stable across two polls. Applied ⇒ logged, so
    // from here a kill loses nothing.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut last_ingested = 0u64;
    loop {
        let stats = client.stats().map_err(|e| format!("stats: {e}"))?;
        let (ingested, depth) = (stats.edges_ingested, stats.queue_depth);
        if depth == 0 && ingested >= INSERTS as u64 && ingested == last_ingested {
            break;
        }
        last_ingested = ingested;
        if Instant::now() > deadline {
            return Err(format!(
                "ingest never settled: {ingested} applied, queue depth {depth}"
            ));
        }
        std::thread::sleep(Duration::from_millis(150));
    }
    drop(client);

    // 5. Crash: SIGKILL, no drain, no goodbye.
    server.0.kill().map_err(|e| format!("kill serve: {e}"))?;
    let _ = server.0.wait();

    // 6. Offline recovery must see the full ingested history.
    let out = cli_cmd(root, false)
        .args(["recover", &graph_s, "--wal-dir", &wal_s])
        .output()
        .map_err(|e| format!("spawn recover: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "recover failed ({}):\n{text}\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let recovered = parse_components(&text)?;
    // Both halves of recovery ran: the snapshot a compaction wrote, and
    // the batches logged after it.
    if field(&text, "base")? != "parent snapshot" {
        return Err(format!("recovery did not start from a snapshot:\n{text}"));
    }
    let replayed: u64 = field(&text, "replayed")?
        .split_whitespace()
        .next()
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| format!("bad replayed line in:\n{text}"))?;
    if replayed == 0 {
        return Err(format!(
            "recovery replayed no batch after the snapshot:\n{text}"
        ));
    }

    // 7. Oracle: an uninterrupted run over seed graph + version-1
    // batches + ingested edges.
    let mut all = std::fs::read_to_string(&graph).map_err(|e| format!("read graph: {e}"))?;
    for &(u, v) in logged.iter().flatten().chain(&edges) {
        all.push_str(&format!("{u} {v}\n"));
    }
    let combined_s = combined.to_string_lossy().into_owned();
    std::fs::write(&combined, all).map_err(|e| format!("write combined graph: {e}"))?;
    let out = cli_cmd(root, false)
        .args(["cc", &combined_s])
        .output()
        .map_err(|e| format!("spawn cc: {e}"))?;
    if !out.status.success() {
        return Err(format!("oracle cc failed ({})", out.status));
    }
    let expected = parse_components(&String::from_utf8_lossy(&out.stdout))?;

    if recovered != expected {
        return Err(format!(
            "recovered {recovered} component(s), uninterrupted run has {expected}"
        ));
    }
    if recovered <= 1 {
        // The seed graph is generated sparse so the count is sensitive to
        // lost batches; a single component means this check went soft.
        return Err(format!(
            "oracle degenerated to {recovered} component(s); the assertion has no teeth"
        ));
    }

    let _ = std::fs::remove_file(&graph);
    let _ = std::fs::remove_file(&combined);
    let _ = std::fs::remove_dir_all(&wal_dir);
    println!(
        "==> crash recovery smoke{}: upgraded a version-1 log of {} batch(es), killed mid-serve, recovered {recovered} component(s) == uninterrupted run (snapshot + {replayed} replayed batch(es))",
        tag(faults),
        logged.len()
    );
    Ok(())
}
