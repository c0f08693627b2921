//! Cluster chaos soak for `cargo xtask ci` (`cargo xtask chaos`).
//!
//! The failure-domain layer end to end, across real processes: a router
//! in front of three shard workers, driven through a scripted fault
//! matrix while edges stream in. The deterministic core: SIGKILL one
//! worker mid-ingest and require that live-shard ingest keeps flowing,
//! that writes bound for the dead shard park durably, that reads
//! straddling it come back tagged Degraded (while live-shard reads stay
//! plain), and that the breaker/park/degraded state is visible in the
//! live `/metrics` scrape. Then a seeded [`FaultPlan`] cluster schedule
//! kills, hangs, slows and partitions workers (`SIGKILL` / `SIGSTOP` …
//! `SIGCONT`) between ingest rounds. After every worker is back and the
//! parked backlogs have replayed, the router's answers must equal a
//! single-engine `IncrementalCc` oracle that saw every edge, untagged —
//! and the router's flight recording must show the health transitions
//! and the replay.

use crate::shard_smoke::{respawn_worker, spawn_worker, wait_exit, WorkerOut};
use crate::smoke::{cli_cmd, connect, shutdown_and_reap, Reaper};
use afforest_core::IncrementalCc;
use afforest_obs::registry::{parse_exposition, Scrape};
use afforest_serve::events::{self, EventKind};
use afforest_serve::http::http_get;
use afforest_serve::{ClusterFault, FaultPlan, RetryPolicy, TenantId};
use afforest_shard::ShardPlan;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::Stdio;
use std::time::{Duration, Instant};

/// Global vertex universe, split across [`SHARDS`] workers.
const N: usize = 3000;
const SHARDS: usize = 3;
/// Seeded cluster fault schedule: every flavor fires over the soak.
const FAULT_SPEC: &str = "seed=11,shard_kill=0.25,shard_hang=0.25,shard_slow=0.25,\
                          shard_partition=0.25,shard_fault_ms=150";
/// Plan-driven soak rounds after the deterministic kill drill.
const SOAK_STEPS: usize = 4;

/// Runs the chaos soak; returns success.
pub fn run_chaos(root: &Path) -> bool {
    match chaos(root) {
        Ok(()) => true,
        Err(e) => {
            eprintln!("==> cluster chaos soak failed: {e}");
            false
        }
    }
}

/// One live shard worker: its process, fixed address, WAL namespace and
/// stdout reader (dropping the reader would turn the worker's shutdown
/// report into a panic).
struct Worker {
    child: Reaper,
    addr: String,
    wal: String,
    _out: WorkerOut,
}

impl Worker {
    fn pid(&self) -> u32 {
        self.child.0.id()
    }

    /// SIGKILL — no drain, no goodbye.
    fn kill(&mut self) -> Result<(), String> {
        self.child
            .0
            .kill()
            .map_err(|e| format!("kill worker: {e}"))?;
        let _ = self.child.0.wait();
        Ok(())
    }

    /// Restart on the original port from the WAL namespace.
    fn restart(&mut self, root: &Path, vertices: usize) -> Result<(), String> {
        let (child, out) = respawn_worker(root, vertices, &self.addr, &self.wal)?;
        self.child = child;
        self._out = out;
        Ok(())
    }
}

/// Sends `sig` (e.g. `-STOP`, `-CONT`) to a worker process.
fn signal(pid: u32, sig: &str) -> Result<(), String> {
    let status = std::process::Command::new("kill")
        .args([sig, &pid.to_string()])
        .status()
        .map_err(|e| format!("kill {sig}: {e}"))?;
    if !status.success() {
        return Err(format!("kill {sig} {pid} exited with {status}"));
    }
    Ok(())
}

/// One `GET /metrics`, parsed; `None` unless it answered 200.
fn scrape(scrape_addr: &str) -> Result<Option<Scrape>, String> {
    let (status, body) = http_get(scrape_addr, "/metrics")?;
    if status != 200 {
        return Ok(None);
    }
    parse_exposition(&body).map(Some)
}

/// Polls the scrape until `pred` holds on it, or fails after 30 s.
fn await_scrape(
    scrape_addr: &str,
    what: &str,
    pred: impl Fn(&Scrape) -> bool,
) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if scrape(scrape_addr)?.is_some_and(|s| pred(&s)) {
            return Ok(());
        }
        if Instant::now() > deadline {
            return Err(format!("scrape never showed {what}"));
        }
        std::thread::sleep(Duration::from_millis(100));
    }
}

/// Shard-local edges for shard `k` of `plan`, offset by `salt` so
/// successive rounds add genuinely new edges.
fn local_edges(plan: &ShardPlan, k: usize, count: usize, salt: u32) -> Vec<(u32, u32)> {
    let r = plan.range(k);
    let len = r.end - r.start;
    (0..count as u32)
        .map(|i| {
            (
                r.start + (i * 7 + salt) % len,
                r.start + (i * 13 + salt + 1) % len,
            )
        })
        .collect()
}

fn chaos(root: &Path) -> Result<(), String> {
    let tmp = std::env::temp_dir();
    let pid = std::process::id();
    let router_wal = tmp
        .join(format!("afforest-chaos-router-{pid}"))
        .to_string_lossy()
        .into_owned();
    let worker_wals: Vec<String> = (0..SHARDS)
        .map(|k| {
            tmp.join(format!("afforest-chaos-w{k}-{pid}"))
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    for dir in worker_wals.iter().chain([&router_wal]) {
        let _ = std::fs::remove_dir_all(dir);
    }

    // 1. Three shard workers, then the router with tight failure-domain
    // knobs: two strikes open the breaker, probes every 100 ms, and a
    // small retry budget so a dead worker is *detected* (and its writes
    // parked) instead of being retried into oblivion. The park logs and
    // the flight recording both land in the router's wal-dir.
    let plan = ShardPlan::new(N, SHARDS);
    let mut workers = Vec::new();
    for (k, wal) in worker_wals.iter().enumerate() {
        let (child, addr, out) = spawn_worker(root, plan.shard_len(k), "127.0.0.1:0", wal, &[])?;
        workers.push(Worker {
            child,
            addr,
            wal: wal.clone(),
            _out: out,
        });
    }
    let shard_addrs = workers
        .iter()
        .map(|w| w.addr.clone())
        .collect::<Vec<_>>()
        .join(",");
    let n_s = N.to_string();
    let mut router = Reaper(
        cli_cmd(root, false)
            .args([
                "serve",
                "--shard-addrs",
                &shard_addrs,
                "--vertices",
                &n_s,
                "--addr",
                "127.0.0.1:0",
                "--workers",
                "4",
                "--metrics-addr",
                "127.0.0.1:0",
                "--wal-dir",
                &router_wal,
                "--max-retries",
                "4",
                "--retry-backoff-us",
                "2000",
                "--suspect-after",
                "1",
                "--down-after",
                "2",
                "--probe-interval-ms",
                "100",
            ])
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn router: {e}"))?,
    );
    let stdout = router.0.stdout.take().ok_or("router stdout not captured")?;
    let mut lines = BufReader::new(stdout).lines();
    let (mut addr, mut scrape_addr) = (None, None);
    while addr.is_none() || scrape_addr.is_none() {
        let line = lines
            .next()
            .ok_or("router exited before announcing its addresses")?
            .map_err(|e| format!("read router stdout: {e}"))?;
        if let Some(rest) = line.strip_prefix("listening on ") {
            addr = rest.split_whitespace().next().map(str::to_string);
        } else if let Some(rest) = line.strip_prefix("metrics on http://") {
            scrape_addr = rest.strip_suffix("/metrics").map(str::to_string);
        }
    }
    let (addr, scrape_addr) = (addr.unwrap(), scrape_addr.unwrap());

    // The wire-v2 client: Degraded arrives as a tag it can report, not
    // as a conservative v1 error.
    let mut client = connect(&addr)?
        .with_tenant(TenantId::new("default").map_err(|e| format!("tenant: {e}"))?)
        .with_retry(RetryPolicy {
            max_retries: 12,
            backoff: Duration::from_millis(20),
        });
    let mut oracle = IncrementalCc::new(N);

    let ingest = |client: &mut afforest_serve::Client,
                  oracle: &mut IncrementalCc,
                  edges: &[(u32, u32)]|
     -> Result<(), String> {
        for chunk in edges.chunks(8) {
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
        oracle.insert_batch(edges);
        Ok(())
    };
    // Settling (queue drained, ingest counter stable) is the safety
    // fence before every kill: applied ⇒ WAL-logged, so a settled kill
    // loses nothing and the oracle comparison stays exact.
    let settle = |client: &mut afforest_serve::Client| -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(60);
        let mut last = u64::MAX;
        loop {
            let stats = client.stats().map_err(|e| format!("stats: {e}"))?;
            if stats.queue_depth == 0 && stats.edges_ingested == last {
                return Ok(());
            }
            last = stats.edges_ingested;
            if Instant::now() > deadline {
                return Err("ingest never settled".into());
            }
            std::thread::sleep(Duration::from_millis(150));
        }
    };

    // 2. Baseline: a mixed round (local and cut edges), settled and
    // oracle-exact, with every shard reporting Healthy (0).
    let round1: Vec<(u32, u32)> = (0..180u32)
        .map(|i| ((i * 37) % N as u32, (i * 61 + 1) % N as u32))
        .collect();
    ingest(&mut client, &mut oracle, &round1)?;
    settle(&mut client)?;
    let got = client
        .num_components()
        .map_err(|e| format!("num_components: {e}"))?;
    if got != oracle.num_components() as u64 {
        return Err(format!(
            "baseline: router reports {got} component(s), oracle has {}",
            oracle.num_components()
        ));
    }
    await_scrape(&scrape_addr, "every shard Healthy", |s| {
        (0..SHARDS).all(|k| s.value(&format!("afforest_shard_health{{shard=\"{k}\"}}")) == Some(0))
    })?;

    // 3. The deterministic kill drill: SIGKILL worker 1 mid-stream, then
    // keep ingesting a round that touches every shard. Live-shard writes
    // must keep flowing; shard-1 writes park; the whole insert answer is
    // tagged Degraded.
    settle(&mut client)?;
    workers[1].kill()?;
    let parked_round = local_edges(&plan, 1, 30, 1000);
    ingest(&mut client, &mut oracle, &parked_round)?;
    if !client.last_answer_degraded() {
        return Err("insert touching the dead shard was not tagged Degraded".into());
    }
    let mut live_round = local_edges(&plan, 0, 30, 1000);
    live_round.extend(local_edges(&plan, 2, 30, 1000));
    ingest(&mut client, &mut oracle, &live_round)?;
    if client.last_answer_degraded() {
        return Err("live-shard insert was tagged Degraded".into());
    }

    // Reads while down: pinned to a live shard → plain; straddling the
    // dead shard → answered, but tagged.
    let r0 = plan.range(0);
    let r1 = plan.range(1);
    client
        .connected(r0.start, r0.start + 1)
        .map_err(|e| format!("live connected: {e}"))?;
    if client.last_answer_degraded() {
        return Err("live-shard read was tagged Degraded".into());
    }
    client
        .connected(r0.start, r1.start)
        .map_err(|e| format!("straddling connected: {e}"))?;
    if !client.last_answer_degraded() {
        return Err("read straddling the dead shard was not tagged Degraded".into());
    }

    // The live telemetry plane shows the whole failure domain: breaker
    // open (2 = Down), a parked backlog, and degraded reads served.
    await_scrape(&scrape_addr, "shard 1 Down with a parked backlog", |s| {
        s.value("afforest_shard_health{shard=\"1\"}") == Some(2)
            && s.value("afforest_parked_batches{shard=\"1\"}")
                .is_some_and(|v| v > 0)
            && s.value("afforest_degraded_reads").is_some_and(|v| v > 0)
    })?;

    // 4. Recovery: restart worker 1 from its WAL on the same port. The
    // next calls probe the breaker, replay the backlog in order, and
    // close the loop: gauges back to Healthy/0 parked.
    workers[1].restart(root, plan.shard_len(1))?;
    let recovered = Instant::now() + Duration::from_secs(30);
    loop {
        let _ = client.stats().map_err(|e| format!("stats: {e}"))?;
        if scrape(&scrape_addr)?.is_some_and(|s| {
            s.value("afforest_shard_health{shard=\"1\"}") == Some(0)
                && s.value("afforest_parked_batches{shard=\"1\"}") == Some(0)
        }) {
            break;
        }
        if Instant::now() > recovered {
            return Err("shard 1 never recovered (health/parked gauges)".into());
        }
        std::thread::sleep(Duration::from_millis(100));
    }

    // 5. The seeded fault matrix: between ingest rounds the plan picks a
    // worker to kill (restart from WAL), hang, slow, or partition — the
    // latter three all materialize as SIGSTOP…SIGCONT, which from the
    // router's side is exactly an unresponsive peer. Settling before
    // each fault keeps the oracle comparison exact.
    let faults = FaultPlan::parse(FAULT_SPEC).map_err(|e| format!("fault spec: {e}"))?;
    let mut fired = 0usize;
    for step in 0..SOAK_STEPS {
        settle(&mut client)?;
        match faults.on_cluster_step(SHARDS) {
            Some(ClusterFault::Kill { shard }) => {
                fired += 1;
                workers[shard].kill()?;
                // A couple of writes park against the dead shard...
                ingest(
                    &mut client,
                    &mut oracle,
                    &local_edges(&plan, shard, 6, 3000 + step as u32),
                )?;
                // ...then it comes back and the backlog replays.
                workers[shard].restart(root, plan.shard_len(shard))?;
            }
            Some(
                ClusterFault::Hang { shard, pause } | ClusterFault::Partition { shard, pause },
            ) => {
                fired += 1;
                signal(workers[shard].pid(), "-STOP")?;
                std::thread::sleep(pause);
                signal(workers[shard].pid(), "-CONT")?;
            }
            Some(ClusterFault::Slow { shard, pause }) => {
                fired += 1;
                for _ in 0..3 {
                    signal(workers[shard].pid(), "-STOP")?;
                    std::thread::sleep(pause / 6);
                    signal(workers[shard].pid(), "-CONT")?;
                    std::thread::sleep(pause / 6);
                }
            }
            None => {}
        }
        let mut round = local_edges(&plan, step % SHARDS, 8, 4000 + step as u32);
        round.push(((step * 17 % N) as u32, ((step * 23 + N / 2) % N) as u32));
        ingest(&mut client, &mut oracle, &round)?;
    }
    if fired == 0 {
        return Err("the fault schedule never fired; the soak has no teeth".into());
    }
    if faults.injected().total() != fired as u64 {
        return Err("fault plan counters disagree with the faults applied".into());
    }

    // 6. Convergence: everyone is back, every backlog has replayed, and
    // the composite answers equal the oracle — untagged.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let _ = client.stats().map_err(|e| format!("stats: {e}"))?;
        let healthy = scrape(&scrape_addr)?.is_some_and(|s| {
            (0..SHARDS).all(|k| {
                s.value(&format!("afforest_shard_health{{shard=\"{k}\"}}")) == Some(0)
                    && s.value(&format!("afforest_parked_batches{{shard=\"{k}\"}}")) == Some(0)
            })
        });
        if healthy {
            break;
        }
        if Instant::now() > deadline {
            return Err("cluster never converged back to Healthy/0 parked".into());
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    settle(&mut client)?;
    let expected = oracle.num_components() as u64;
    let got = client
        .num_components()
        .map_err(|e| format!("num_components after soak: {e}"))?;
    if got != expected || client.last_answer_degraded() {
        return Err(format!(
            "after the soak the router reports {got} component(s) (degraded: {}), oracle has \
             {expected}",
            client.last_answer_degraded()
        ));
    }
    let labels = oracle.labels();
    for k in 0..SHARDS {
        let r = plan.range(k);
        for u in [r.start, r.end - 1] {
            let label = client.component(u).map_err(|e| format!("component: {e}"))?;
            if label != labels.label(u) || client.last_answer_degraded() {
                return Err(format!(
                    "Component({u}) = {label} (degraded: {}), oracle says {}",
                    client.last_answer_degraded(),
                    labels.label(u)
                ));
            }
        }
    }

    // 7. Clean teardown, then the post-mortem: the router's flight
    // recording must show the health transitions and the replay.
    shutdown_and_reap(&addr, &mut router)?;
    for (k, w) in workers.iter_mut().enumerate() {
        wait_exit(&format!("worker {k}"), &mut w.child)?;
    }
    let flight = Path::new(&router_wal).join("flight.json");
    let text = std::fs::read_to_string(&flight)
        .map_err(|e| format!("flight recording {}: {e}", flight.display()))?;
    let dump = events::parse_dump(&text).map_err(|e| format!("flight recording: {e}"))?;
    let transitions = dump.of_kind(EventKind::ShardHealthChanged).count();
    let replays = dump.of_kind(EventKind::ParkReplayed).count();
    if transitions == 0 || replays == 0 {
        return Err(format!(
            "flight recording shows {transitions} health transition(s) and {replays} park \
             replay(s); expected both"
        ));
    }

    for dir in worker_wals.iter().chain([&router_wal]) {
        let _ = std::fs::remove_dir_all(dir);
    }
    println!(
        "==> cluster chaos soak: router + {SHARDS} workers survived a SIGKILL drill and {fired} \
         scheduled fault(s); {expected} component(s) == oracle, {transitions} health \
         transition(s), {replays} replay(s) on the flight ring"
    );
    Ok(())
}
