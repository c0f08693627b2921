//! Sharded serving smoke test for `cargo xtask ci`.
//!
//! The `crates/shard` contract end to end, across real processes: start
//! two shard workers (`afforest serve --vertices N_k`, each with its own
//! WAL namespace), put a router in front (`--shard-addrs`), ingest a
//! deterministic edge mix — shard-local and cross-shard — over the wire,
//! and require the router's answers to equal a single-engine
//! `IncrementalCc` oracle, and a read to cost at most 2K worker requests
//! after a shard publishes and exactly K when it repeats (from the
//! router's `afforest_shard_requests_total` deltas). Then SIGKILL one
//! worker mid-serve, restart it
//! from its WAL namespace on the same port, and require the router —
//! whose per-shard clients reconnect and retry — to answer identically
//! again. Then SIGKILL the router itself and restart it over its own
//! `--wal-dir` against the same workers: it must recover every boundary
//! edge from `boundary.log`, validate its park logs' headers, and answer
//! identically once more. The router's `/metrics` sidecar must expose
//! the `{shard="k"}`-labelled series throughout.

use crate::smoke::{cli_cmd, connect, shutdown_and_reap, Reaper};
use afforest_core::IncrementalCc;
use afforest_obs::registry::{parse_exposition, Scrape};
use afforest_serve::http::http_get;
use afforest_serve::{Client, RetryPolicy};
use afforest_shard::ShardPlan;
use std::io::{BufRead, BufReader, Lines};
use std::path::Path;
use std::process::Stdio;
use std::time::{Duration, Instant};

/// Global vertex universe, split across [`SHARDS`] workers.
const N: usize = 2000;
const SHARDS: usize = 2;
/// Edges ingested over the wire (the workers start empty).
const INSERTS: usize = 240;

/// Runs the sharded serving smoke; returns success.
pub fn run_shard(root: &Path) -> bool {
    match shard(root) {
        Ok(()) => true,
        Err(e) => {
            eprintln!("==> sharded serving smoke failed: {e}");
            false
        }
    }
}

/// The deterministic ingest workload (shared with the oracle). The
/// multipliers mod `N` land on both sides of the slice boundary, so the
/// mix always contains shard-local and cross-shard edges.
fn inserted_edges() -> Vec<(u32, u32)> {
    (0..INSERTS as u32)
        .map(|i| ((i * 37) % N as u32, (i * 61 + 1) % N as u32))
        .collect()
}

/// A worker's stdout reader. Kept alive for the worker's lifetime: the
/// child prints its shutdown report at exit, and a closed pipe would
/// turn that print into a panic.
pub(crate) type WorkerOut = BufReader<std::process::ChildStdout>;

/// Starts one shard worker serving an empty `vertices`-vertex slice on
/// `addr` with WAL namespace `wal` (plus any `extra` serve flags, e.g.
/// `--slow-log` for the trace smoke); returns the reaper, the bound
/// address parsed from its announcement, and the live stdout reader.
pub(crate) fn spawn_worker(
    root: &Path,
    vertices: usize,
    addr: &str,
    wal: &str,
    extra: &[&str],
) -> Result<(Reaper, String, WorkerOut), String> {
    let vertices = vertices.to_string();
    let mut child = Reaper(
        cli_cmd(root, false)
            .args([
                "serve",
                "--vertices",
                &vertices,
                "--addr",
                addr,
                "--workers",
                "2",
                "--max-batch-edges",
                "64",
                "--max-batch-delay-ms",
                "1",
                "--wal-dir",
                wal,
                "--wal-snapshot-every",
                "8",
            ])
            .args(extra)
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn worker: {e}"))?,
    );
    let stdout = child.0.stdout.take().ok_or("worker stdout not captured")?;
    let mut reader = BufReader::new(stdout);
    loop {
        let mut line = String::new();
        let read = reader
            .read_line(&mut line)
            .map_err(|e| format!("read worker stdout: {e}"))?;
        if read == 0 {
            return Err("worker exited before announcing its address".into());
        }
        if let Some(rest) = line.strip_prefix("listening on ") {
            let bound = rest
                .split_whitespace()
                .next()
                .ok_or("malformed listen line")?
                .to_string();
            return Ok((child, bound, reader));
        }
    }
}

/// Restarts a killed worker on its original (now fixed) address,
/// retrying while the kernel releases the port.
pub(crate) fn respawn_worker(
    root: &Path,
    vertices: usize,
    addr: &str,
    wal: &str,
) -> Result<(Reaper, WorkerOut), String> {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        match spawn_worker(root, vertices, addr, wal, &[]) {
            Ok((child, _, reader)) => return Ok((child, reader)),
            Err(e) if Instant::now() > deadline => return Err(format!("restart worker: {e}")),
            Err(_) => std::thread::sleep(Duration::from_millis(250)),
        }
    }
}

/// Waits for a clean process exit (the shutdown cascade reaches workers
/// through the router's backend teardown).
pub(crate) fn wait_exit(name: &str, child: &mut Reaper) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match child.0.try_wait().map_err(|e| e.to_string())? {
            Some(s) if s.success() => return Ok(()),
            Some(s) => return Err(format!("{name} exited with {s}")),
            None if Instant::now() > deadline => {
                return Err(format!("{name} did not exit within 30 s of shutdown"))
            }
            None => std::thread::sleep(Duration::from_millis(50)),
        }
    }
}

/// The labelled, router-global and front-end series every scrape must
/// contain.
const REQUIRED_SERIES: [&str; 7] = [
    "afforest_shard_requests_total{shard=\"0\"}",
    "afforest_shard_requests_total{shard=\"1\"}",
    "afforest_shard_epoch{shard=\"0\"}",
    "afforest_shard_epoch{shard=\"1\"}",
    "afforest_router_requests_total",
    "afforest_boundary_edges",
    "afforest_connections_total",
];

/// Every scrape follows a client connection, which the router's front-end
/// must have counted.
fn scrape_has_series(scrape_addr: &str) -> Result<Scrape, String> {
    let (status, scrape) = http_get(scrape_addr, "/metrics")?;
    if status != 200 {
        return Err(format!("scrape answered HTTP {status}"));
    }
    for series in REQUIRED_SERIES {
        if !scrape.contains(series) {
            return Err(format!("scrape is missing the series {series}"));
        }
    }
    let scrape = parse_exposition(&scrape)?;
    if scrape.value("afforest_connections_total").unwrap_or(0) == 0 {
        return Err("the router's scrape counts no accepted connection".into());
    }
    Ok(scrape)
}

/// A running router: its reaper, client and scrape addresses, the
/// boundary edges it announced recovering at boot (0 on a fresh
/// `--wal-dir`), and its stdout, kept open for its shutdown report.
struct RouterProc {
    child: Reaper,
    addr: String,
    scrape_addr: String,
    recovered_boundary: u64,
    _out: Lines<BufReader<std::process::ChildStdout>>,
}

/// Starts the router over `shard_addrs` with the metrics sidecar and
/// state under `wal`. A generous retry budget is the point: it is what
/// absorbs the worker kill below.
fn spawn_router(root: &Path, shard_addrs: &str, wal: &str) -> Result<RouterProc, String> {
    let n_s = N.to_string();
    let mut child = Reaper(
        cli_cmd(root, false)
            .args([
                "serve",
                "--shard-addrs",
                shard_addrs,
                "--vertices",
                &n_s,
                "--addr",
                "127.0.0.1:0",
                "--workers",
                "4",
                "--metrics-addr",
                "127.0.0.1:0",
                "--wal-dir",
                wal,
                "--max-retries",
                "60",
            ])
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn router: {e}"))?,
    );
    let stdout = child.0.stdout.take().ok_or("router stdout not captured")?;
    let mut lines = BufReader::new(stdout).lines();
    let (mut addr, mut scrape_addr, mut recovered_boundary) = (None, None, 0);
    while addr.is_none() || scrape_addr.is_none() {
        let line = lines
            .next()
            .ok_or("router exited before announcing its addresses")?
            .map_err(|e| format!("read router stdout: {e}"))?;
        if let Some(rest) = line.strip_prefix("listening on ") {
            addr = rest.split_whitespace().next().map(str::to_string);
        } else if let Some(rest) = line.strip_prefix("metrics on http://") {
            scrape_addr = rest.strip_suffix("/metrics").map(str::to_string);
        } else if let Some(count) = line
            .strip_prefix("recovered ")
            .and_then(|rest| rest.strip_suffix(" boundary edge(s)"))
        {
            recovered_boundary = count
                .parse()
                .map_err(|_| format!("malformed recovery line: {line}"))?;
        }
    }
    Ok(RouterProc {
        child,
        addr: addr.unwrap(),
        scrape_addr: scrape_addr.unwrap(),
        recovered_boundary,
        _out: lines,
    })
}

/// Client retries against the router: they ride out a restarting worker.
const CLIENT_RETRY: RetryPolicy = RetryPolicy {
    max_retries: 12,
    backoff: Duration::from_millis(20),
};

/// The oracle's component count and the cross-shard probe, asked of
/// the router after `event`.
fn expect_oracle_answers(
    client: &mut Client,
    expected: u64,
    (cu, cv): (u32, u32),
    event: &str,
) -> Result<(), String> {
    let got = client
        .num_components()
        .map_err(|e| format!("num_components after {event}: {e}"))?;
    if got != expected {
        return Err(format!(
            "after {event} the router reports {got} component(s), oracle has {expected}"
        ));
    }
    if !client
        .connected(cu, cv)
        .map_err(|e| format!("connected after {event}: {e}"))?
    {
        return Err(format!(
            "cross-shard edge ({cu}, {cv}) lost across the {event}"
        ));
    }
    Ok(())
}

/// Worker requests the router has sent, summed over its shards, and its
/// composite rebuilds, from one scrape.
fn worker_requests(scrape_addr: &str) -> Result<(u64, u64), String> {
    let scrape = scrape_has_series(scrape_addr)?;
    let requests = (0..SHARDS)
        .map(|k| {
            scrape
                .value(&format!("afforest_shard_requests_total{{shard=\"{k}\"}}"))
                .unwrap_or(0)
        })
        .sum();
    let rebuilds = scrape
        .value("afforest_router_composite_rebuilds_total")
        .unwrap_or(0);
    Ok((requests, rebuilds))
}

/// What a read costs in worker requests, from the router's scrape
/// deltas. Re-inserting a shard-0 edge publishes a new epoch there
/// without changing connectivity; once worker 0 shows it applied, a
/// straddling read must rebuild the composite in at most 2K worker
/// requests (one `Resolve` per shard, one more for the shard that
/// published) and the same read again must cost exactly K.
fn read_costs(
    scrape_addr: &str,
    client: &mut Client,
    worker0: &str,
    edges: &[(u32, u32)],
    plan: &ShardPlan,
    (cu, cv): (u32, u32),
) -> Result<(), String> {
    let &edge = edges
        .iter()
        .find(|&&(u, v)| !plan.is_cut(u, v) && plan.owner(u) == 0)
        .ok_or("the workload has no shard-0 edge")?;
    let mut w0 = connect(worker0)?;
    let applied = w0.stats().map_err(|e| format!("worker 0 stats: {e}"))?;
    client
        .insert_edges(&[edge])
        .map_err(|e| format!("insert: {e}"))?;
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let stats = w0.stats().map_err(|e| format!("worker 0 stats: {e}"))?;
        if stats.edges_ingested > applied.edges_ingested && stats.queue_depth == 0 {
            break;
        }
        if Instant::now() > deadline {
            return Err("worker 0 never applied the re-inserted edge".into());
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let k = SHARDS as u64;
    let mut costs = Vec::new();
    let mut last = worker_requests(scrape_addr)?;
    for _ in 0..2 {
        if !client
            .connected(cu, cv)
            .map_err(|e| format!("connected: {e}"))?
        {
            return Err(format!("cross-shard edge ({cu}, {cv}) not connected"));
        }
        let now = worker_requests(scrape_addr)?;
        costs.push((now.0 - last.0, now.1 - last.1));
        last = now;
    }
    // (worker requests, composite rebuilds) of the first and second read.
    if !(costs[0].0 <= 2 * k && costs[0].1 == 1 && costs[1] == (k, 0)) {
        return Err(format!(
            "read costs (worker requests, rebuilds) {costs:?}: want at most {} and 1 \
             after the publish, then exactly ({k}, 0)",
            2 * k
        ));
    }
    println!(
        "==> read cost: {} worker request(s) after a shard-0 publish, {} on a cache hit",
        costs[0].0, costs[1].0
    );
    Ok(())
}

fn shard(root: &Path) -> Result<(), String> {
    let tmp = std::env::temp_dir();
    let pid = std::process::id();
    let wal: Vec<String> = (0..SHARDS)
        .map(|k| {
            tmp.join(format!("afforest-shard-smoke-w{k}-{pid}"))
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    let router_wal = tmp
        .join(format!("afforest-shard-smoke-router-{pid}"))
        .to_string_lossy()
        .into_owned();
    for dir in wal.iter().chain([&router_wal]) {
        let _ = std::fs::remove_dir_all(dir);
    }

    // 1. Two shard workers on ephemeral ports, each an empty slice of
    // the plan plus a private WAL namespace.
    let plan = ShardPlan::new(N, SHARDS);
    let (mut w0, a0, _out0) = spawn_worker(root, plan.shard_len(0), "127.0.0.1:0", &wal[0], &[])?;
    let (mut w1, a1, _out1) = spawn_worker(root, plan.shard_len(1), "127.0.0.1:0", &wal[1], &[])?;

    // 2. The router, dialing both workers, with the metrics sidecar.
    let shard_addrs = format!("{a0},{a1}");
    let router = spawn_router(root, &shard_addrs, &router_wal)?;

    // 3. Ingest the deterministic workload through the router. The
    // client retries, and re-inserting an edge is idempotent for
    // connectivity, so the oracle comparison below stays exact.
    let edges = inserted_edges();
    let cut = edges.iter().filter(|&&(u, v)| plan.is_cut(u, v)).count();
    if cut == 0 || cut == edges.len() {
        return Err(format!(
            "workload degenerated: {cut} of {} edges cross shards",
            edges.len()
        ));
    }
    let mut client = connect(&router.addr)?.with_retry(CLIENT_RETRY);
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
    }

    // 4. Wait until every admitted internal edge has been applied by its
    // shard: aggregated queue empty and the ingested counter stable
    // (retried inserts may re-apply, so `>=`, not `==`). Applied ⇒
    // logged, so from here a worker kill loses nothing.
    let internal = (edges.len() - cut) as u64;
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut last_ingested = u64::MAX;
    loop {
        let stats = client.stats().map_err(|e| format!("stats: {e}"))?;
        if stats.queue_depth == 0
            && stats.edges_ingested >= internal
            && stats.edges_ingested == last_ingested
        {
            break;
        }
        last_ingested = stats.edges_ingested;
        if Instant::now() > deadline {
            return Err(format!(
                "ingest never settled: {} applied of {internal} internal, queue depth {}",
                stats.edges_ingested, stats.queue_depth
            ));
        }
        std::thread::sleep(Duration::from_millis(150));
    }

    // 5. Oracle: one unsharded union-find over the same edges. Component
    // count, per-vertex labels around the slice boundary, and a
    // cross-shard connectivity probe must all agree.
    let mut oracle = IncrementalCc::new(N);
    oracle.insert_batch(&edges);
    let expected = oracle.num_components() as u64;
    if expected <= 1 {
        return Err("oracle degenerated to one component; the assertion has no teeth".into());
    }
    let labels = oracle.labels();
    let boundary = plan.shard_len(0) as u32;
    for u in [0, boundary - 1, boundary, (N - 1) as u32] {
        let label = client.component(u).map_err(|e| format!("component: {e}"))?;
        if label != labels.label(u) {
            return Err(format!(
                "Component({u}) = {label}, oracle says {}",
                labels.label(u)
            ));
        }
    }
    let &probe = edges
        .iter()
        .find(|&&(u, v)| plan.is_cut(u, v))
        .ok_or("no cut edge despite the count above")?;
    expect_oracle_answers(&mut client, expected, probe, "ingest")?;
    scrape_has_series(&router.scrape_addr)?;
    read_costs(&router.scrape_addr, &mut client, &a0, &edges, &plan, probe)?;

    // 6. SIGKILL worker 1 — no drain, no goodbye — and restart it from
    // its WAL namespace on the same port. The router's shard client
    // reconnects on the next call; answers must be unchanged.
    w1.0.kill().map_err(|e| format!("kill worker: {e}"))?;
    let _ = w1.0.wait();
    let (mut w1, _out1b) = respawn_worker(root, plan.shard_len(1), &a1, &wal[1])?;
    expect_oracle_answers(&mut client, expected, probe, "worker restart")?;
    let stored = scrape_has_series(&router.scrape_addr)?
        .value("afforest_boundary_edges")
        .ok_or("scrape has no boundary edge gauge value")?;

    // 7. SIGKILL the router (dropping its reaper kills and reaps it) and
    // restart it over its own --wal-dir against the same workers. It
    // must announce every boundary edge the killed router had stored
    // (replayed from boundary.log), open the park logs its first boot
    // created, and answer as before.
    drop(router);
    let mut router = spawn_router(root, &shard_addrs, &router_wal)?;
    if router.recovered_boundary == 0 || router.recovered_boundary != stored {
        return Err(format!(
            "restarted router recovered {} boundary edge(s); the killed one stored {stored}",
            router.recovered_boundary
        ));
    }
    let mut client = connect(&router.addr)?.with_retry(CLIENT_RETRY);
    expect_oracle_answers(&mut client, expected, probe, "router restart")?;
    scrape_has_series(&router.scrape_addr)?;

    // 8. One Shutdown frame to the router tears the whole cluster down:
    // the router drains, stops its backend (which forwards Shutdown to
    // every worker), and all three processes exit cleanly.
    shutdown_and_reap(&router.addr, &mut router.child)?;
    wait_exit("worker 0", &mut w0)?;
    wait_exit("worker 1", &mut w1)?;

    for dir in wal.iter().chain([&router_wal]) {
        let _ = std::fs::remove_dir_all(dir);
    }
    println!(
        "==> sharded serving smoke: router + {SHARDS} workers served {INSERTS} edges ({cut} cut), \
         survived a worker and a router SIGKILL, {expected} component(s) == oracle"
    );
    Ok(())
}
