//! `serve_ingest`: one closed-loop writer against a standalone
//! `afforest serve --wal-dir` seeded with Graph500 kron 2^20.
//!
//! Each cycle inserts 4096 uniformly random edges (the default
//! `--max-batch-edges`, so the size trigger cuts each batch at once) and
//! polls `Stats` until `edges_ingested` covers them: decode, admission,
//! queue, WAL append and compaction, link and epoch publish. Every
//! acknowledged edge also goes into the harness's union-find, against
//! which `NumComponents` and a sample of `Connected` answers are checked
//! at the end.

use crate::oracle::Dsu;
use crate::probe::{dump, scrape, value, wait_ingested};
use crate::spans::SpanLog;
use crate::stats::{median, median_of, tail, windowed_rate, RATE_WINDOW_S};
use crate::sys::{connect, HostNoise, Rng, Scratch, Server};
use crate::{Args, Report};
use afforest_graph::generators::rmat_scale;
use afforest_graph::{io, Edge};
use afforest_obs::reqtrace::Stage;
use afforest_serve::Client;
use std::collections::HashSet;
use std::time::{Duration, Instant};

const SCALE: u32 = 20;
const EDGE_FACTOR: usize = 16;
/// Edges per insert: the server's default `--max-batch-edges`.
const BATCH: usize = 4096;
/// Server starts in set-up; `setup_s` is their median.
const SETUP_STARTS: usize = 3;
const WARMUP_CYCLES: usize = 20;
/// Random `Connected` pairs checked against the oracle at the end.
const VERIFY_PAIRS: usize = 512;

/// What the timed cycles measured.
#[derive(Default)]
struct Cycles {
    /// Send to `Accepted`, µs.
    ack_us: Vec<f64>,
    /// Send to visible in `Stats`, µs.
    visible_us: Vec<f64>,
    polls: u64,
    /// Trace ids of the inserts and of the polls (traced cycles only).
    insert_ids: HashSet<u64>,
    poll_ids: HashSet<u64>,
}

pub fn run(args: &Args) -> Result<Report, String> {
    let scratch = Scratch::new("serve_ingest")?;
    let (n, mut oracle) = {
        let g = rmat_scale(SCALE, EDGE_FACTOR, args.seed);
        io::write_binary(&g, scratch.join("kron.acsr")).map_err(|e| format!("write graph: {e}"))?;
        (
            g.num_vertices(),
            Dsu::from_edges(g.num_vertices(), &g.collect_edges()),
        )
    };
    let mut rng = Rng::new(args.seed, 1);
    let mut next_batch = move || -> Vec<Edge> {
        (0..BATCH)
            .map(|_| (rng.below(n as u64) as u32, rng.below(n as u64) as u32))
            .collect()
    };

    let mut starts = Vec::with_capacity(SETUP_STARTS);
    let mut running = None;
    for i in 0..SETUP_STARTS {
        drop(running.take()); // stop the previous server before timing the next
        let mut argv = vec![
            "serve".to_string(),
            "kron.acsr".to_string(),
            "--addr".to_string(),
            "127.0.0.1:0".to_string(),
            "--workers".to_string(),
            "2".to_string(),
            "--wal-dir".to_string(),
            format!("wal-{i}"),
        ];
        if args.trace {
            argv.extend(["--slow-log".to_string(), "0".to_string()]);
        }
        let t = Instant::now();
        let server = Server::spawn(&scratch.path, &argv)?;
        let mut client = connect(&server.addr, false)?;
        client.stats().map_err(|e| format!("first Stats: {e}"))?;
        starts.push(t.elapsed().as_secs_f64());
        running = Some((server, client));
    }
    let (server, mut client) = running.expect("SETUP_STARTS is positive");

    let mut report = Report::default();
    let mut ingested = client.stats().map_err(|e| e.to_string())?.edges_ingested;
    let mut warm = Cycles::default();
    for _ in 0..WARMUP_CYCLES {
        cycle(
            &mut client,
            &next_batch(),
            &mut ingested,
            &mut oracle,
            &mut warm,
            false,
        )?;
        // The random inserts soon join almost everything into one
        // component, so the component count is checked while it still
        // distinguishes right from wrong.
        check_components(&mut client, &oracle, &mut report)?;
    }

    let noise = HostNoise::start();
    let mut plain = Cycles::default();
    let mut traced = Cycles::default();
    let mut log = SpanLog::default();
    let plain_budget = if args.trace {
        args.seconds / 2
    } else {
        args.seconds
    };
    run_for(plain_budget, || {
        let batch = next_batch();
        report.op(cycle(
            &mut client,
            &batch,
            &mut ingested,
            &mut oracle,
            &mut plain,
            false,
        )
        .is_ok());
    });
    if args.trace {
        client = client.with_tracing();
        let before = scrape(&mut client)?;
        let epochs_before = client.stats().map_err(|e| e.to_string())?.epochs_published;
        let mut dump_err = None;
        run_for(args.seconds / 2, || {
            let batch = next_batch();
            let ok = cycle(
                &mut client,
                &batch,
                &mut ingested,
                &mut oracle,
                &mut traced,
                true,
            );
            report.op(ok.is_ok());
            // The ring keeps 1024 spans; a cycle records a few hundred.
            if let Err(e) = dump(&mut client, 0, &mut log) {
                dump_err.get_or_insert(e);
            }
        });
        if let Some(e) = dump_err {
            return Err(e);
        }
        let after = scrape(&mut client)?;
        let epochs = client.stats().map_err(|e| e.to_string())?.epochs_published - epochs_before;
        let inserts = traced.visible_us.len().max(1) as f64;
        let delta = |name: &str| value(&after, name).saturating_sub(value(&before, name)) as f64;
        let us = |stage: Stage, ids: &HashSet<u64>| -> Result<f64, String> {
            Ok(median_of(stage.name(), &log.self_times(stage, ids))? / 1e3)
        };
        report.metric(
            "serve.insert_ack_us",
            median_of("insert ack", &traced.ack_us)?,
        );
        report.metric(
            "serve.wal_append_us",
            us(Stage::WalFsync, &traced.insert_ids)?,
        );
        report.metric(
            "serve.batch_apply_us",
            us(Stage::BatchApply, &traced.insert_ids)?,
        );
        report.metric(
            "serve.queue_wait_us",
            us(Stage::QueueWait, &traced.insert_ids)?,
        );
        report.metric(
            "serve.epoch_publish_us",
            us(Stage::EpochPublish, &traced.insert_ids)?,
        );
        report.metric(
            "serve.wal_compactions_per_1k",
            delta("afforest_wal_compactions_total") * 1000.0 / inserts,
        );
        report.metric(
            "serve.wal_bytes_per_edge",
            delta("afforest_wal_bytes_total") / delta("afforest_edges_ingested_total").max(1.0),
        );
        report.metric(
            "serve.request_us",
            us(Stage::ShardRequest, &traced.poll_ids)?,
        );
        report.metric("serve.epochs_per_insert", epochs as f64 / inserts);
        report.metric("serve.polls_per_insert", traced.polls as f64 / inserts);
        report.metric(
            "obs.trace_overhead_pct",
            (median_of("traced", &traced.visible_us)? / median_of("untraced", &plain.visible_us)?
                - 1.0)
                * 100.0,
        );
    }
    let noise = noise.finish();

    verify(
        &mut client,
        n,
        &mut oracle,
        &mut Rng::new(args.seed, 2),
        &mut report,
    )?;
    if !args.trace {
        report.metric("setup_s", median(&starts));
        report.metric("rss_mb", server.peak_rss_mb()?);
        report.metric("success_pct", report.success_pct());
        report.metric("p50_us", median_of("visible", &plain.visible_us)?);
        report.metric("tail_us", tail("visible", &plain.visible_us, 99.0)?);
        let cycles: Vec<(f64, f64)> = plain
            .visible_us
            .iter()
            .map(|us| (us / 1e6, BATCH as f64))
            .collect();
        report.metric(
            "ops_per_s",
            windowed_rate("inserts", &cycles, RATE_WINDOW_S)?,
        );
        report.metric("visible_p50_us", median_of("visible", &plain.visible_us)?);
    }
    report.diag.push(format!(
        "\"vertices\": {n}, \"untraced_inserts\": {}, \"traced_inserts\": {}, \
         \"untraced_polls\": {}, \"components_at_end\": {}, {noise}",
        plain.visible_us.len(),
        traced.visible_us.len(),
        plain.polls,
        oracle.components()
    ));
    drop(client);
    drop(server);
    Ok(report)
}

/// Calls `step` until `budget` has elapsed.
fn run_for(budget: Duration, mut step: impl FnMut()) {
    let start = Instant::now();
    while start.elapsed() < budget {
        step();
    }
}

/// One insert-then-poll cycle. `traced` records the trace ids of the
/// insert and of every poll.
fn cycle(
    client: &mut Client,
    batch: &[Edge],
    ingested: &mut u64,
    oracle: &mut Dsu,
    out: &mut Cycles,
    traced: bool,
) -> Result<(), String> {
    let t = Instant::now();
    let accepted = client
        .insert_edges(batch)
        .map_err(|e| format!("InsertEdges: {e}"))?;
    let ack = t.elapsed();
    if accepted as usize != batch.len() {
        return Err(format!("accepted {accepted} of {} edges", batch.len()));
    }
    oracle.union_all(batch);
    if traced {
        out.insert_ids.insert(client.last_trace_id());
    }
    let ids = traced.then_some(&mut out.poll_ids);
    let stats = wait_ingested(client, *ingested + batch.len() as u64, &mut out.polls, ids)?;
    let visible = t.elapsed();
    *ingested = stats.edges_ingested;
    out.ack_us.push(ack.as_secs_f64() * 1e6);
    out.visible_us.push(visible.as_secs_f64() * 1e6);
    Ok(())
}

/// Checks the served `NumComponents` against the oracle's count.
fn check_components(client: &mut Client, oracle: &Dsu, report: &mut Report) -> Result<(), String> {
    let served = client
        .num_components()
        .map_err(|e| format!("NumComponents: {e}"))?;
    report.check(served == oracle.components() as u64);
    Ok(())
}

/// End-of-run oracle check: `NumComponents` and random `Connected` pairs.
fn verify(
    client: &mut Client,
    n: usize,
    oracle: &mut Dsu,
    rng: &mut Rng,
    report: &mut Report,
) -> Result<(), String> {
    check_components(client, oracle, report)?;
    for _ in 0..VERIFY_PAIRS {
        let (u, v) = (rng.below(n as u64) as u32, rng.below(n as u64) as u32);
        match client.connected(u, v) {
            Ok(answer) => report.check(answer == oracle.connected(u, v)),
            Err(_) => report.op(false),
        }
    }
    Ok(())
}
