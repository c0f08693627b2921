//! `router_mixed`: a router (`serve --shard-addrs`) over two TCP shard
//! workers (`serve --vertices`), seeded over the wire with a road 2^20
//! lattice (1024 × 1024) whose block partition cuts about 1k edges.
//!
//! The timed loop holds one connection to the router and one to worker 0.
//! Each cycle inserts 64 lattice edges inside shard 0 through the
//! router, polls worker 0's `Stats` until they are applied, then sends
//! 64 reads alternating a straddling `Connected` and a `Component`. The
//! write invalidates the router's composite cache, so the first read
//! rebuilds it and the other 63 hit it. Every answer is checked against
//! the harness's union-find off the timed path.
//!
//! The traced run starts with its traced half, so the exact counts of
//! its first cycles see the same cluster state on every run of a seed;
//! it adds a control connection to worker 1 for scrapes and span dumps.

use crate::oracle::Dsu;
use crate::probe::{dump, rpcs, scrape, value, wait_ingested};
use crate::spans::SpanLog;
use crate::stats::{median, median_of, tail, windowed_rate, RATE_WINDOW_S};
use crate::sys::{connect, HostNoise, Rng, Scratch, Server};
use crate::{Args, Report};
use afforest_graph::generators::road_network;
use afforest_graph::{Edge, Node};
use afforest_obs::reqtrace::Stage;
use afforest_serve::{Client, Request, Response, StatsReport};
use afforest_shard::ShardPlan;
use std::collections::HashSet;
use std::path::Path;
use std::time::Instant;

const SIDE: usize = 1024;
/// Lattice-edge survival and diagonal-shortcut probabilities, as
/// `afforest generate road` uses them.
const KEEP: f64 = 0.93;
const SHORTCUT: f64 = 0.02;
const SHARDS: usize = 2;
/// Edges per insert: well under `--max-batch-edges`, so each batch waits
/// out the 2 ms batch deadline.
const WRITES: usize = 64;
/// Reads per cycle: the first rebuilds the composite, the rest hit it.
const READS: usize = 64;
/// Edges per `InsertEdges` while seeding.
const SEED_CHUNK: usize = 1 << 16;
/// Cluster starts in set-up; `setup_s` is their median.
const SETUP_STARTS: usize = 3;
const WARMUP_CYCLES: usize = 5;
/// Traced cycles whose exact counts are reported.
const EXACT_CYCLES: usize = 8;

/// A router over two workers, with the harness's connections.
struct Cluster {
    workers: Vec<Server>,
    router: Server,
    /// To the router: every insert and read.
    front: Client,
    /// To worker 0: the visibility poll.
    w0: Client,
}

/// What the timed cycles measured.
#[derive(Default)]
struct Cycles {
    /// Insert through the router until `Accepted`, µs.
    ack_us: Vec<f64>,
    /// Insert through the router until visible on worker 0, µs.
    visible_us: Vec<f64>,
    /// Every read, µs; `READS` per cycle, the rebuild first.
    read_us: Vec<f64>,
    polls: u64,
}

/// Trace ids and exact counts of the traced half.
#[derive(Default)]
struct Traced {
    inserts: HashSet<u64>,
    rebuild_reads: HashSet<u64>,
    hit_reads: HashSet<u64>,
    /// Worker requests made by the rebuilding reads / by the hit reads,
    /// summed over the first `EXACT_CYCLES` cycles.
    rebuild_rpcs: u64,
    hit_rpcs: u64,
    rebuilds: u64,
    epochs: u64,
}

pub fn run(args: &Args) -> Result<Report, String> {
    let scratch = Scratch::new("router_mixed")?;
    let n = SIDE * SIDE;
    let seed_edges = road_network(SIDE, SIDE, KEEP, SHORTCUT, args.seed).collect_edges();
    let mut oracle = Dsu::from_edges(n, &seed_edges);
    let plan = ShardPlan::new(n, SHARDS);
    let shard0 = plan.range(0);

    // Seed edges each worker ingests; the cut ones go to the router's
    // boundary store instead.
    let local = |k: usize| {
        seed_edges
            .iter()
            .filter(|&&(u, v)| plan.owner(u) == k && plan.owner(v) == k)
            .count() as u64
    };
    let local_edges = [local(0), local(1)];
    let mut starts = Vec::with_capacity(SETUP_STARTS);
    let mut running = None;
    for i in 0..SETUP_STARTS {
        drop(running.take()); // stop the previous cluster before timing the next
        let t = Instant::now();
        let dir = scratch.join(&format!("c{i}"));
        let cluster = start(&dir, &plan, &seed_edges, local_edges, args.trace)?;
        starts.push(t.elapsed().as_secs_f64());
        running = Some(cluster);
    }
    let mut c = running.expect("SETUP_STARTS is positive");
    let boundary_edges = seed_edges.len() as u64 - local_edges.iter().sum::<u64>();
    drop(seed_edges);

    let mut rng = Rng::new(args.seed, 3);
    let mut report = Report::default();
    let mut w0_stats = c.w0.stats().map_err(|e| format!("worker 0 Stats: {e}"))?;
    let mut warm = Cycles::default();
    for _ in 0..WARMUP_CYCLES {
        let cycle = Cycle::draw(&mut rng, &shard0, n);
        cycle.run(
            &mut c,
            &mut w0_stats,
            &mut oracle,
            &mut warm,
            &mut report,
            None,
        )?;
    }

    let noise = HostNoise::start();
    let mut plain = Cycles::default();
    let mut traced = Cycles::default();
    if args.trace {
        let mut w1 = connect(&c.workers[1].addr, false)?;
        c.front = c.front.with_tracing();
        let mut ids = Traced::default();
        let mut log = SpanLog::default();
        let start = Instant::now();
        let mut cycles = 0;
        while start.elapsed() < args.seconds / 2 {
            let exact = (cycles < EXACT_CYCLES).then_some(&mut w1);
            let cycle = Cycle::draw(&mut rng, &shard0, n);
            let probe = Probe {
                ids: &mut ids,
                log: &mut log,
                w1: exact,
            };
            cycle.run(
                &mut c,
                &mut w0_stats,
                &mut oracle,
                &mut traced,
                &mut report,
                Some(probe),
            )?;
            dump(&mut c.front, 0, &mut log)?;
            dump(&mut c.w0, 1, &mut log)?;
            dump(&mut w1, 2, &mut log)?;
            cycles += 1;
        }
        c.front = connect(&c.router.addr, false)?;
        let exact_cycles = cycles.min(EXACT_CYCLES) as f64;
        let us = |stage: Stage, of: &HashSet<u64>| -> Result<f64, String> {
            Ok(median_of(stage.name(), &log.self_times(stage, of))? / 1e3)
        };
        report.metric(
            "serve.insert_ack_us",
            median_of("insert ack", &traced.ack_us)?,
        );
        report.metric("serve.batch_apply_us", us(Stage::BatchApply, &ids.inserts)?);
        report.metric("serve.queue_wait_us", us(Stage::QueueWait, &ids.inserts)?);
        report.metric(
            "serve.epoch_publish_us",
            us(Stage::EpochPublish, &ids.inserts)?,
        );
        report.metric("serve.request_us", us(Stage::ShardRequest, &ids.hit_reads)?);
        report.metric("serve.epochs_per_insert", ids.epochs as f64 / exact_cycles);
        report.metric(
            "serve.polls_per_insert",
            traced.polls as f64 / cycles.max(1) as f64,
        );
        report.metric(
            "router.request_us",
            us(Stage::RouterRequest, &ids.hit_reads)?,
        );
        report.metric(
            "router.breaker_gate_us",
            us(Stage::BreakerGate, &ids.hit_reads)?,
        );
        report.metric("router.fanout_us", us(Stage::ShardFanout, &ids.hit_reads)?);
        report.metric(
            "router.worker_rpcs_per_read",
            ids.hit_rpcs as f64 / (exact_cycles * (READS - 1) as f64),
        );
        report.metric(
            "router.compose_ms",
            us(Stage::BoundaryCompose, &ids.rebuild_reads)? / 1e3,
        );
        report.metric(
            "router.rpcs_per_rebuild",
            ids.rebuild_rpcs as f64 / exact_cycles,
        );
        report.metric(
            "router.rebuilds_per_insert",
            ids.rebuilds as f64 / exact_cycles,
        );
        report.metric(
            "router.boundary_edges",
            value(&scrape(&mut c.front)?, "afforest_boundary_edges") as f64,
        );
    }
    let plain_budget = if args.trace {
        args.seconds / 2
    } else {
        args.seconds
    };
    let start = Instant::now();
    while start.elapsed() < plain_budget {
        let cycle = Cycle::draw(&mut rng, &shard0, n);
        cycle.run(
            &mut c,
            &mut w0_stats,
            &mut oracle,
            &mut plain,
            &mut report,
            None,
        )?;
    }
    let noise = noise.finish();

    let served = c
        .front
        .num_components()
        .map_err(|e| format!("NumComponents: {e}"))?;
    report.check(served == oracle.components() as u64 && !c.front.last_answer_degraded());
    if args.trace {
        let p50 = |xs: &[f64]| -> Result<f64, String> {
            let hits: Vec<f64> = xs
                .chunks(READS)
                .flat_map(|c| c[1..].iter().copied())
                .collect();
            median_of("hit reads", &hits)
        };
        report.metric(
            "obs.trace_overhead_pct",
            (p50(&traced.read_us)? / p50(&plain.read_us)? - 1.0) * 100.0,
        );
    } else {
        let rss = c.workers.iter().chain([&c.router]).map(Server::peak_rss_mb);
        report.metric("setup_s", median(&starts));
        report.metric("rss_mb", rss.sum::<Result<f64, String>>()?);
        report.metric("success_pct", report.success_pct());
        report.metric("p50_us", median_of("reads", &plain.read_us)?);
        report.metric("tail_us", tail("reads", &plain.read_us, 99.0)?);
        // A cycle's busy time: its insert until visible, then its reads.
        let cycles: Vec<(f64, f64)> = plain
            .visible_us
            .iter()
            .zip(plain.read_us.chunks(READS))
            .map(|(v, reads)| ((v + reads.iter().sum::<f64>()) / 1e6, (1 + READS) as f64))
            .collect();
        report.metric(
            "ops_per_s",
            windowed_rate("cycles", &cycles, RATE_WINDOW_S)?,
        );
        report.metric("visible_p50_us", median_of("visible", &plain.visible_us)?);
    }
    report.diag.push(format!(
        "\"vertices\": {n}, \"boundary_edges\": {boundary_edges}, \"untraced_cycles\": {}, \
         \"traced_cycles\": {}, \"untraced_polls\": {}, {noise}",
        plain.visible_us.len(),
        traced.visible_us.len(),
        plain.polls
    ));
    Ok(report)
}

/// Starts both workers and the router in `dir`, seeds the graph through
/// the router, and waits until the seed is visible on both workers
/// (worker `k` ingests `local_edges[k]` of it).
fn start(
    dir: &Path,
    plan: &ShardPlan,
    seed: &[Edge],
    local_edges: [u64; SHARDS],
    trace: bool,
) -> Result<Cluster, String> {
    let common = |argv: &mut Vec<String>| {
        argv.extend(["--addr", "127.0.0.1:0", "--workers", "2"].map(String::from));
        if trace {
            argv.extend(["--slow-log", "0"].map(String::from));
        }
    };
    let mut workers = Vec::with_capacity(SHARDS);
    for k in 0..SHARDS {
        // Own working directory each: `--slow-log` writes `slowlog.jsonl` there.
        let cwd = dir.join(format!("w{k}"));
        std::fs::create_dir_all(&cwd).map_err(|e| format!("{}: {e}", cwd.display()))?;
        let mut argv = vec![
            "serve".into(),
            "--vertices".into(),
            plan.shard_len(k).to_string(),
        ];
        common(&mut argv);
        workers.push(Server::spawn(&cwd, &argv)?);
    }
    let cwd = dir.join("router");
    std::fs::create_dir_all(&cwd).map_err(|e| format!("{}: {e}", cwd.display()))?;
    let addrs: Vec<&str> = workers.iter().map(|w| w.addr.as_str()).collect();
    let mut argv = vec![
        "serve".into(),
        "--shard-addrs".into(),
        addrs.join(","),
        "--vertices".into(),
        plan.vertices().to_string(),
    ];
    common(&mut argv);
    let router = Server::spawn(&cwd, &argv)?;
    let mut front = connect(&router.addr, false)?;
    let mut w0 = connect(&workers[0].addr, false)?;

    for chunk in seed.chunks(SEED_CHUNK) {
        let accepted = front
            .insert_edges(chunk)
            .map_err(|e| format!("seed insert: {e}"))?;
        if accepted as usize != chunk.len() || front.last_answer_degraded() {
            return Err(format!(
                "seed insert accepted {accepted} of {}",
                chunk.len()
            ));
        }
    }
    let mut polls = 0;
    wait_ingested(&mut w0, local_edges[0], &mut polls, None)?;
    // Worker 1 directly, over a connection closed before the timed loop:
    // the router's Stats would also rebuild its composite.
    let mut w1 = connect(&workers[1].addr, false)?;
    wait_ingested(&mut w1, local_edges[1], &mut polls, None)?;
    Ok(Cluster {
        workers,
        router,
        front,
        w0,
    })
}

/// The traced half's span log, ids and (first cycles only) the control
/// connection to worker 1 used for exact counts.
struct Probe<'a> {
    ids: &'a mut Traced,
    log: &'a mut SpanLog,
    w1: Option<&'a mut Client>,
}

/// One cycle's inputs, drawn from the seeded stream.
struct Cycle {
    writes: Vec<Edge>,
    reads: Vec<Request>,
}

impl Cycle {
    fn draw(rng: &mut Rng, shard0: &std::ops::Range<Node>, n: usize) -> Cycle {
        let rows0 = (shard0.end as usize).div_ceil(SIDE);
        let writes = (0..WRITES)
            .map(|_| loop {
                let x = rng.below(SIDE as u64) as usize;
                let y = rng.below(rows0 as u64) as usize;
                let (dx, dy) = if rng.below(2) == 0 { (1, 0) } else { (0, 1) };
                let (u, v) = (y * SIDE + x, (y + dy) * SIDE + x + dx);
                if x + dx < SIDE && v < shard0.end as usize {
                    break (u as Node, v as Node);
                }
            })
            .collect();
        let half = shard0.end as u64;
        let reads = (0..READS)
            .map(|i| {
                if i % 2 == 0 {
                    let u = rng.below(half) as Node;
                    let v = (half + rng.below(n as u64 - half)) as Node;
                    Request::Connected(u, v)
                } else {
                    Request::Component(rng.below(n as u64) as Node)
                }
            })
            .collect();
        Cycle { writes, reads }
    }

    /// Insert, poll until visible on worker 0, then the reads, each
    /// checked against `oracle` after its clock stopped.
    fn run(
        &self,
        c: &mut Cluster,
        w0_stats: &mut StatsReport,
        oracle: &mut Dsu,
        out: &mut Cycles,
        report: &mut Report,
        mut probe: Option<Probe>,
    ) -> Result<(), String> {
        let t = Instant::now();
        let accepted = c.front.insert_edges(&self.writes);
        let ack = t.elapsed();
        let ok =
            matches!(accepted, Ok(a) if a as usize == WRITES) && !c.front.last_answer_degraded();
        report.op(ok);
        if !ok {
            return Ok(());
        }
        oracle.union_all(&self.writes);
        if let Some(p) = probe.as_mut() {
            p.ids.inserts.insert(c.front.last_trace_id());
        }
        let target = w0_stats.edges_ingested + WRITES as u64;
        let stats = wait_ingested(&mut c.w0, target, &mut out.polls, None)
            .map_err(|e| format!("insert never became visible: {e}"))?;
        let visible = t.elapsed();
        let epochs = stats.epochs_published - w0_stats.epochs_published;
        *w0_stats = stats;
        out.ack_us.push(ack.as_secs_f64() * 1e6);
        out.visible_us.push(visible.as_secs_f64() * 1e6);
        if let Some(p) = probe.as_mut() {
            if p.w1.is_some() {
                p.ids.epochs += epochs;
            }
            // Before the rebuild's worker requests flood the ring.
            dump(&mut c.w0, 1, p.log)?;
        }

        let mut counts = Counts::default();
        for (i, req) in self.reads.iter().enumerate() {
            if i <= 1 {
                if let Some(p) = probe.as_mut() {
                    counts.take(c, p.w1.as_deref_mut())?;
                }
            }
            let t = Instant::now();
            let resp = c.front.call(req);
            out.read_us.push(t.elapsed().as_secs_f64() * 1e6);
            if let Some(p) = probe.as_mut() {
                let set = if i == 0 {
                    &mut p.ids.rebuild_reads
                } else {
                    &mut p.ids.hit_reads
                };
                set.insert(c.front.last_trace_id());
            }
            match (req, resp) {
                (&Request::Connected(u, v), Ok(Response::Connected(b))) => {
                    report.check(b == oracle.connected(u, v));
                }
                (&Request::Component(u), Ok(Response::Component(l))) => {
                    // The router labels a component by its minimum global
                    // id, which is the union-find root.
                    report.check(l == oracle.find(u));
                }
                _ => report.op(false), // Err, Overloaded, Degraded, timeout
            }
        }
        if let Some(p) = probe.as_mut() {
            counts.take(c, p.w1.as_deref_mut())?;
            if let [before, mid, after] = counts.0[..] {
                p.ids.rebuild_rpcs += mid.0 - before.0;
                p.ids.hit_rpcs += after.0 - mid.0;
                p.ids.rebuilds += after.1 - before.1;
            }
        }
        Ok(())
    }
}

/// (worker RPCs summed over both workers, router composite rebuilds) at
/// each scrape point of a cycle.
#[derive(Default)]
struct Counts(Vec<(u64, u64)>);

impl Counts {
    /// Scrapes both workers and the router, when the cycle is one of the
    /// first `EXACT_CYCLES` (worker 1's control connection is present).
    fn take(&mut self, c: &mut Cluster, w1: Option<&mut Client>) -> Result<(), String> {
        let Some(w1) = w1 else { return Ok(()) };
        let worker_rpcs = rpcs(&scrape(&mut c.w0)?) + rpcs(&scrape(w1)?);
        let rebuilds = value(
            &scrape(&mut c.front)?,
            "afforest_router_composite_rebuilds_total",
        );
        self.0.push((worker_rpcs, rebuilds));
        Ok(())
    }
}
