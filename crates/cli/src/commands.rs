//! Subcommand implementations. Every `run` takes the post-subcommand
//! `argv` and returns the text to print.

use crate::args::ParsedArgs;
use crate::load::{load_graph, save_graph};
use afforest_baselines::{
    bfs_cc, dobfs_cc, label_prop, parallel_uf, rem_cc, shiloach_vishkin, shiloach_vishkin_1982,
    sv_edgelist, union_by_rank_cc, union_by_size_cc, union_find::union_find_cc,
};
use afforest_core::{afforest, AfforestConfig, ComponentLabels, IncrementalCc};
use afforest_graph::{CsrGraph, Node};
use std::fmt::Write as _;
use std::time::Instant;

/// Algorithm name → runner, shared by `cc` and `bench`. Every runner
/// returns validated [`ComponentLabels`] — Afforest's output passes
/// through untouched, the baselines' raw label vectors are wrapped here.
pub fn algorithm_by_name(name: &str) -> Option<fn(&CsrGraph) -> ComponentLabels> {
    macro_rules! wrap {
        ($f:path) => {{
            fn w(g: &CsrGraph) -> ComponentLabels {
                ComponentLabels::from_vec($f(g))
            }
            w as fn(&CsrGraph) -> ComponentLabels
        }};
    }
    fn aff(g: &CsrGraph) -> ComponentLabels {
        afforest(g, &AfforestConfig::default())
    }
    fn aff_noskip(g: &CsrGraph) -> ComponentLabels {
        afforest(
            g,
            &AfforestConfig::builder()
                .skip(false)
                .build()
                .expect("valid config"),
        )
    }
    Some(match name {
        "afforest" => aff,
        "afforest-noskip" => aff_noskip,
        "sv" => wrap!(shiloach_vishkin),
        "sv-edgelist" => wrap!(sv_edgelist),
        "sv-1982" => wrap!(shiloach_vishkin_1982),
        "label-prop" => wrap!(label_prop),
        "bfs" => wrap!(bfs_cc),
        "dobfs" => wrap!(dobfs_cc),
        "parallel-uf" => wrap!(parallel_uf),
        "union-find" => wrap!(union_find_cc),
        "uf-rank" => wrap!(union_by_rank_cc),
        "uf-size" => wrap!(union_by_size_cc),
        "rem" => wrap!(rem_cc),
        _ => return None,
    })
}

/// Runs `alg` `trials` times; returns the labels of the last trial, the
/// best wall-clock seconds, and — when `traced` — the trace of the best
/// trial, for `--trace-out`.
fn timed_trials(
    g: &CsrGraph,
    alg: fn(&CsrGraph) -> ComponentLabels,
    trials: usize,
    traced: bool,
) -> (ComponentLabels, f64, Option<afforest_obs::Trace>) {
    let mut best = f64::INFINITY;
    let mut best_trace = None;
    let mut labels = None;
    for _ in 0..trials {
        let session = traced.then(afforest_obs::Session::begin);
        let t = Instant::now();
        let l = alg(g);
        let dt = t.elapsed().as_secs_f64();
        let trace = session.map(|s| s.end());
        if dt < best {
            best = dt;
            best_trace = trace;
        }
        labels = Some(l);
    }
    (labels.expect("trials > 0"), best, best_trace)
}

/// Writes a trace as JSON, reporting span count (and a hint when span
/// recording was compiled out).
fn write_trace(path: &str, json: &str, spans: usize, out: &mut String) -> Result<(), String> {
    std::fs::write(path, json).map_err(|e| format!("{path}: {e}"))?;
    let _ = writeln!(out, "trace written to {path} ({spans} span(s))");
    if !afforest_obs::COMPILED {
        let _ = writeln!(
            out,
            "note: span recording compiled out; rebuild with `--features obs` for a populated trace"
        );
    }
    Ok(())
}

/// Nanoseconds, humanized (`850ns`, `4.2us`, `1.3ms`, `2.0s`). Shared
/// by the `top` dashboard and the `trace` tree renderer.
fn fmt_ns(ns: u64) -> String {
    match ns {
        0..=999 => format!("{ns}ns"),
        1_000..=999_999 => format!("{:.1}us", ns as f64 / 1e3),
        1_000_000..=999_999_999 => format!("{:.1}ms", ns as f64 / 1e6),
        _ => format!("{:.1}s", ns as f64 / 1e9),
    }
}

/// The suffix a recovery line carries when replay cut a torn or corrupt
/// log tail.
fn torn_note(truncated: bool) -> &'static str {
    if truncated {
        "; torn tail truncated"
    } else {
        ""
    }
}

/// One slow-log line (schema 1): the retained span tree of a single
/// traced request — root span first, as handed to the slow sink — as a
/// self-contained JSON object. `serve --slow-log` appends these to
/// `<wal-dir>/slowlog.jsonl`. Pure, so tests and offline tooling can
/// pin the format (see DESIGN.md §16 for the schema).
pub fn slowlog_line(tree: &[afforest_obs::reqtrace::Span]) -> String {
    use afforest_obs::reqtrace;
    let root = tree.first().copied().unwrap_or_default();
    let mut out = format!(
        "{{\"schema\":1,\"trace_id\":\"{:016x}\",\"node\":\"{}\",\"root\":\"{}\",\
         \"dur_ns\":{},\"spans\":[",
        root.trace_id,
        reqtrace::node(),
        reqtrace::stage_name(root.stage),
        root.dur_ns
    );
    for (i, s) in tree.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"id\":{},\"parent\":{},\"stage\":\"{}\",\"arg\":{},\"start_us\":{},\"dur_ns\":{}}}",
            s.span_id,
            s.parent_span,
            s.stage_name(),
            s.arg,
            s.start_us,
            s.dur_ns
        );
    }
    out.push_str("]}");
    out
}

/// Every algorithm name, in `bench` display order.
pub const ALGORITHM_NAMES: [&str; 13] = [
    "afforest",
    "afforest-noskip",
    "sv",
    "sv-edgelist",
    "sv-1982",
    "label-prop",
    "bfs",
    "dobfs",
    "parallel-uf",
    "union-find",
    "uf-rank",
    "uf-size",
    "rem",
];

/// `afforest stats <graph>`.
pub mod stats {
    use super::*;
    use afforest_graph::{DegreeDistribution, GraphStats};

    pub fn run(argv: &[String]) -> Result<String, String> {
        let args = ParsedArgs::parse(argv)?;
        args.allow_flags(&[])?;
        let path = args.positional(0, "graph")?;
        let g = load_graph(path)?;
        let s = GraphStats::compute(&g);
        let d = DegreeDistribution::compute(&g);

        let mut out = String::new();
        let _ = writeln!(out, "graph: {path}");
        let _ = writeln!(out, "vertices:            {}", s.num_vertices);
        let _ = writeln!(out, "edges:               {}", s.num_edges);
        let _ = writeln!(out, "avg degree:          {:.2}", s.avg_degree);
        let _ = writeln!(out, "max degree:          {}", s.max_degree);
        let _ = writeln!(out, "median degree:       {}", d.median);
        let _ = writeln!(out, "degree cv:           {:.3}", d.cv);
        let _ = writeln!(out, "isolated vertices:   {}", d.isolated());
        let _ = writeln!(out, "components:          {}", s.num_components);
        let _ = writeln!(
            out,
            "largest component:   {} ({:.2}%)",
            s.largest_component,
            100.0 * s.largest_component_fraction()
        );
        let _ = writeln!(out, "approx diameter:     {}", s.approx_diameter);
        Ok(out)
    }
}

/// `afforest cc <graph> [--algorithm NAME] [--labels-out PATH] [--trials N]
/// [--trace-out PATH]`.
pub mod cc {
    use super::*;

    pub fn run(argv: &[String]) -> Result<String, String> {
        let args = ParsedArgs::parse(argv)?;
        args.allow_flags(&["algorithm", "labels-out", "trials", "trace-out"])?;
        let path = args.positional(0, "graph")?;
        let alg_name = args.flag("algorithm").unwrap_or("afforest");
        let trials: usize = args.flag_parsed("trials", 1)?;
        if trials == 0 {
            return Err("--trials must be positive".into());
        }
        let trace_out = args.flag("trace-out");
        let alg = algorithm_by_name(alg_name)
            .ok_or_else(|| format!("unknown algorithm '{alg_name}' (see `afforest help`)"))?;
        let g = load_graph(path)?;

        let (labels, best, trace) = timed_trials(&g, alg, trials, trace_out.is_some());

        let mut out = String::new();
        let _ = writeln!(out, "graph:       {path}");
        let _ = writeln!(out, "algorithm:   {alg_name}");
        let _ = writeln!(out, "components:  {}", labels.num_components());
        let _ = writeln!(
            out,
            "largest:     {} of {} vertices",
            labels.largest_component_size(),
            labels.len()
        );
        let _ = writeln!(
            out,
            "best time:   {:.3} ms ({} trial(s))",
            best * 1e3,
            trials
        );

        if let Some(dest) = args.flag("labels-out") {
            let mut text = String::with_capacity(labels.len() * 8);
            for v in 0..labels.len() as Node {
                let _ = writeln!(text, "{v} {}", labels.label(v));
            }
            std::fs::write(dest, text).map_err(|e| format!("{dest}: {e}"))?;
            let _ = writeln!(out, "labels written to {dest}");
        }
        if let Some(dest) = trace_out {
            let trace = trace.expect("traced run kept its trace");
            write_trace(dest, &trace.to_json(), trace.spans.len(), &mut out)?;
        }
        Ok(out)
    }
}

/// `afforest generate <family> --out PATH [--n N] [--edge-factor K] …`.
pub mod generate {
    use super::*;
    use afforest_graph::generators;

    pub fn run(argv: &[String]) -> Result<String, String> {
        let args = ParsedArgs::parse(argv)?;
        args.allow_flags(&[
            "out",
            "n",
            "edge-factor",
            "seed",
            "radius",
            "locality",
            "beta",
            "k",
            "fraction",
            "keep",
        ])?;
        let family = args.positional(0, "family")?;
        let out_path = args
            .flag("out")
            .ok_or_else(|| "generate requires --out PATH".to_string())?;
        let n: usize = args.flag_parsed("n", 1 << 14)?;
        let ef: usize = args.flag_parsed("edge-factor", 16)?;
        let seed: u64 = args.flag_parsed("seed", 42u64)?;
        if n == 0 {
            return Err("--n must be positive".into());
        }

        let g = match family {
            "urand" => generators::uniform_random(n, n * ef, seed),
            "kron" => {
                let scale = n.next_power_of_two().trailing_zeros();
                generators::rmat_scale(scale, ef, seed)
            }
            "road" => {
                let side = (n as f64).sqrt().ceil() as usize;
                let keep: f64 = args.flag_parsed("keep", 0.93)?;
                generators::road_network(side, side, keep, 0.02, seed)
            }
            "web" => {
                let locality: f64 = args.flag_parsed("locality", 0.75)?;
                generators::web_graph(n, ef.clamp(1, 64), locality, 16.0, seed)
            }
            "ba" => generators::barabasi_albert(n, ef.clamp(1, n.saturating_sub(1)), seed),
            "ws" => {
                let beta: f64 = args.flag_parsed("beta", 0.1)?;
                let k: usize = args.flag_parsed("k", 4)?;
                generators::watts_strogatz(n, k, beta, seed)
            }
            "geometric" => {
                let default_r = (ef as f64 / (n as f64 * std::f64::consts::PI)).sqrt();
                let radius: f64 = args.flag_parsed("radius", default_r)?;
                generators::random_geometric(n, radius, seed)
            }
            "components" => {
                let f: f64 = args.flag_parsed("fraction", 0.1)?;
                generators::urand_with_components(n, ef, f, seed)
            }
            other => {
                return Err(format!(
                    "unknown family '{other}' (urand|kron|road|web|ba|ws|geometric|components)"
                ))
            }
        };

        save_graph(&g, out_path)?;
        Ok(format!(
            "generated {family}: {} vertices, {} edges -> {out_path}\n",
            g.num_vertices(),
            g.num_edges()
        ))
    }
}

/// `afforest convert <in> <out>`.
pub mod convert {
    use super::*;

    pub fn run(argv: &[String]) -> Result<String, String> {
        let args = ParsedArgs::parse(argv)?;
        args.allow_flags(&[])?;
        let src = args.positional(0, "in")?;
        let dst = args.positional(1, "out")?;
        let g = load_graph(src)?;
        save_graph(&g, dst)?;
        Ok(format!(
            "converted {src} -> {dst} ({} vertices, {} edges)\n",
            g.num_vertices(),
            g.num_edges()
        ))
    }
}

/// `afforest bench <graph> [--trials N] [--trace-out PATH]`.
pub mod bench {
    use super::*;

    pub fn run(argv: &[String]) -> Result<String, String> {
        let args = ParsedArgs::parse(argv)?;
        args.allow_flags(&["trials", "trace-out"])?;
        let path = args.positional(0, "graph")?;
        let trials: usize = args.flag_parsed("trials", 3)?;
        if trials == 0 {
            return Err("--trials must be positive".into());
        }
        let trace_out = args.flag("trace-out");
        let g = load_graph(path)?;

        let reference = algorithm_by_name("union-find").expect("oracle exists")(&g);

        let mut out = format!(
            "graph: {path} ({} vertices, {} edges)\n{:<18} {:>12}  {}\n",
            g.num_vertices(),
            g.num_edges(),
            "algorithm",
            "best-ms",
            "components"
        );
        // With `--trace-out` the file holds one JSON object mapping each
        // algorithm name to the trace of its best trial.
        let mut traces: Vec<String> = Vec::new();
        let mut total_spans = 0usize;
        for name in ALGORITHM_NAMES {
            let alg = algorithm_by_name(name).expect("registered");
            let (labels, best, trace) = timed_trials(&g, alg, trials, trace_out.is_some());
            if !labels.equivalent(&reference) {
                return Err(format!("{name} produced an inconsistent labeling"));
            }
            if let Some(trace) = trace {
                total_spans += trace.spans.len();
                traces.push(format!("\"{name}\": {}", trace.to_json()));
            }
            let _ = writeln!(
                out,
                "{:<18} {:>12.3}  {}",
                name,
                best * 1e3,
                labels.num_components()
            );
        }
        if let Some(dest) = trace_out {
            let json = format!("{{{}}}", traces.join(", "));
            write_trace(dest, &json, total_spans, &mut out)?;
        }
        Ok(out)
    }
}

/// `afforest serve` in one of three modes:
///
/// - standalone: `serve <graph>`, or `serve --vertices N` for an empty
///   N-vertex graph (a shard worker);
/// - a router over in-process engines: `serve <graph> --shards N`;
/// - a router over running workers: `serve --shard-addrs LIST --vertices N`.
///
/// Every mode reads `--addr`, `--workers`, `--read-deadline-ms`,
/// `--wal-dir`, `--metrics-addr`, `--events-out` and `--slow-log`. The
/// engine modes (standalone and `--shards`) add the batching, queue and
/// WAL-compaction flags; only standalone reads `--max-total-queue-depth`,
/// `--max-tenants`, `--faults` and `--trace-out`. Both routers add the
/// failure-domain knobs (DESIGN.md §15), and only `--shard-addrs` reads
/// `--max-retries` and `--retry-backoff-us`. A mode refuses any flag it
/// does not read.
pub mod serve {
    use super::*;
    use afforest_serve::config::DEFAULT_MAX_TENANTS;
    use afforest_serve::wal;
    use afforest_serve::{
        events, BatchPolicy, Endpoint, FaultPlan, MetricsHttp, Request, Response, ServeConfig,
        ServeConfigBuilder, Server, StatsReport,
    };
    use afforest_shard::{BoundaryStore, HealthConfig, Router, ShardBackend, ShardPlan};
    use std::io::Write as _;
    use std::net::TcpListener;
    use std::path::{Path, PathBuf};
    use std::sync::Arc;
    use std::time::Duration;

    /// Flags every mode reads, space-separated.
    const FRONT: &str = "addr workers read-deadline-ms wal-dir metrics-addr events-out slow-log";
    /// Flags of the modes that host ingest engines.
    const ENGINE: &str = "max-batch-edges max-batch-delay-ms wal-snapshot-every max-queue-depth";
    /// The routers' shard-health knobs.
    const HEALTH: &str = "suspect-after down-after probe-interval-ms probe-deadline-ms";

    /// How long shutdown waits for queued inserts to be published.
    const DRAIN: Duration = Duration::from_secs(30);

    pub fn run(argv: &[String]) -> Result<String, String> {
        let args = ParsedArgs::parse(argv)?;
        let shards: usize = args.flag_parsed("shards", 0usize)?;
        if args.flag("shard-addrs").is_some() {
            let own = "shard-addrs vertices max-retries retry-backoff-us";
            allow(&args, "serve --shard-addrs", &[HEALTH, own])?;
            remote_router(&args)
        } else if shards > 0 {
            allow(&args, "serve --shards", &[ENGINE, HEALTH, "shards"])?;
            local_router(&args, shards)
        } else {
            // `--vertices` sizes a graph-less server; next to a graph it
            // would be ignored.
            let sizing = if args.num_positionals() == 0 {
                "vertices"
            } else {
                ""
            };
            let own = "shards max-total-queue-depth max-tenants faults trace-out";
            allow(&args, "serve", &[ENGINE, own, sizing])?;
            standalone(&args)
        }
    }

    /// Refuses any flag outside [`FRONT`] and `mode`'s own lists.
    fn allow(args: &ParsedArgs, mode: &str, own: &[&str]) -> Result<(), String> {
        let allowed: Vec<&str> = [FRONT]
            .iter()
            .chain(own)
            .flat_map(|list| list.split_whitespace())
            .collect();
        args.allow_flags(&allowed)
            .map_err(|e| format!("{mode}: {e}"))
    }

    fn read_deadline(args: &ParsedArgs) -> Result<Option<Duration>, String> {
        let ms: u64 = args.flag_parsed("read-deadline-ms", 0u64)?;
        Ok((ms > 0).then(|| Duration::from_millis(ms)))
    }

    /// A standalone server over a graph's edges, or over an empty
    /// `--vertices N` slice whose state arrives over the wire (and from
    /// the WAL on restart) — typically one shard behind a
    /// `--shard-addrs` router.
    fn standalone(args: &ParsedArgs) -> Result<String, String> {
        enable_slow_log(args, "serve")?;
        let faults = match args.flag("faults") {
            Some(spec) => Some(Arc::new(
                FaultPlan::parse(spec).map_err(|e| format!("--faults: {e}"))?,
            )),
            None => None,
        };
        let config = engine_config(args)?
            .max_total_queue_depth(args.flag_parsed("max-total-queue-depth", 0usize)?)
            .max_tenants(args.flag_parsed("max-tenants", DEFAULT_MAX_TENANTS)?)
            .read_deadline(read_deadline(args)?)
            .faults(faults)
            .build()
            .map_err(|e| format!("invalid configuration: {e}"))?;
        let vertices: usize = args.flag_parsed("vertices", 0usize)?;
        // The epoch-0 forest is Afforest's labeling of the graph; the
        // CSR is dropped before serving.
        let (path, cc, num_edges) = if args.num_positionals() == 0 && vertices > 0 {
            ("(empty)".to_string(), IncrementalCc::new(vertices), 0)
        } else {
            let path = args.positional(0, "graph")?;
            let g = load_graph(path)?;
            (
                path.to_string(),
                IncrementalCc::from_graph(&g),
                g.num_edges(),
            )
        };
        let n = cc.len();
        // An existing default-tenant log means a previous incarnation:
        // replay it onto the seed forest before serving, so acked inserts
        // survive the restart. Other tenants' logs are replayed by the
        // server itself.
        let default_dir = args
            .flag("wal-dir")
            .map(|dir| wal::default_wal_dir(Path::new(dir)));
        let cc = match default_dir {
            Some(default_dir) if wal::exists(&default_dir) => {
                let rec = wal::recover(&default_dir, Some(cc))
                    .map_err(|e| format!("recover {}: {e}", default_dir.display()))?;
                println!(
                    "recovered {} logged batch(es), {} edge(s){}{}",
                    rec.batches,
                    rec.edges,
                    if rec.from_snapshot {
                        " (from snapshot)"
                    } else {
                        ""
                    },
                    torn_note(rec.truncated)
                );
                rec.cc
            }
            _ => cc,
        };
        let server = Server::from_cc(cc, config).map_err(|e| format!("start server: {e}"))?;
        let restored = server.tenants().len();
        if restored > 1 {
            println!("restored {} persisted tenant(s)", restored - 1);
        }
        let banner = format!(
            "serving {path}: {n} vertices, {num_edges} edges ({} components)",
            server.snapshot().num_components()
        );
        serve_until_shutdown(&server, args, &banner, args.flag("trace-out"), |server| {
            server.flush(DRAIN);
            let stats = server.stats_report();
            let mut lines = String::new();
            let shed = stats.requests_shed;
            if shed > 0 {
                let _ = writeln!(lines, "shed {shed} write request(s) at the admission bound");
            }
            // A process total: every tenant's WAL, not only `default`'s.
            let wal_errors = afforest_serve::metrics::metrics().wal_errors.get();
            if wal_errors > 0 {
                let _ = writeln!(lines, "warning: {wal_errors} wal append error(s)");
            }
            (Some(stats), lines)
        })
    }

    /// The batching, admission and WAL settings of every engine this
    /// process hosts.
    fn engine_config(args: &ParsedArgs) -> Result<ServeConfigBuilder, String> {
        let max_edges: usize = args.flag_parsed("max-batch-edges", 4096)?;
        if max_edges == 0 {
            return Err("--max-batch-edges must be positive".into());
        }
        let max_delay_ms: u64 = args.flag_parsed("max-batch-delay-ms", 2)?;
        Ok(ServeConfig::builder()
            .policy(BatchPolicy {
                max_edges,
                max_delay: Duration::from_millis(max_delay_ms),
                apply_delay: None,
            })
            .max_queue_depth(args.flag_parsed("max-queue-depth", 0usize)?)
            .wal_root(args.flag("wal-dir").map(PathBuf::from))
            .wal_snapshot_every(args.flag_parsed("wal-snapshot-every", 64u64)?))
    }

    /// `--slow-log MS`: turns request tracing on with an `MS`-millisecond
    /// retention threshold (0 retains every traced request), names this
    /// process's spans `node`, and sinks each retained tree as one JSON
    /// line (schema 1, [`slowlog_line`]) appended to
    /// `<wal-dir>/slowlog.jsonl` — `slowlog.jsonl` in the working
    /// directory when there is no WAL.
    fn enable_slow_log(args: &ParsedArgs, node: &str) -> Result<(), String> {
        use afforest_obs::reqtrace;
        let Some(raw) = args.flag("slow-log") else {
            return Ok(());
        };
        let ms: u64 = raw
            .parse()
            .map_err(|_| format!("--slow-log: '{raw}' is not a number of milliseconds"))?;
        reqtrace::set_node(node);
        let path = match args.flag("wal-dir") {
            Some(dir) => {
                std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
                Path::new(dir).join("slowlog.jsonl")
            }
            None => PathBuf::from("slowlog.jsonl"),
        };
        println!("slow request traces -> {}", path.display());
        reqtrace::set_slow_sink(move |tree| {
            if let Ok(mut f) = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)
            {
                let _ = writeln!(f, "{}", super::slowlog_line(tree));
            }
        });
        reqtrace::configure(Some(Duration::from_millis(ms)));
        Ok(())
    }

    /// A router over running shard workers: the workers own the data;
    /// the router holds only wire clients and the boundary store.
    fn remote_router(args: &ParsedArgs) -> Result<String, String> {
        use afforest_serve::RetryPolicy;
        use afforest_shard::RemoteShards;

        enable_slow_log(args, "router")?;
        if args.num_positionals() != 0 {
            return Err("--shard-addrs and <graph> are mutually exclusive".into());
        }
        let n: usize = args.flag_parsed("vertices", 0usize)?;
        if n == 0 {
            return Err("--shard-addrs needs --vertices N (the global vertex count)".into());
        }
        let addrs: Vec<String> = args
            .flag("shard-addrs")
            .unwrap_or_default()
            .split(',')
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .collect();
        if addrs.is_empty() {
            return Err("--shard-addrs: no addresses".into());
        }
        let retry = RetryPolicy {
            max_retries: args.flag_parsed("max-retries", 40u32)?,
            backoff: Duration::from_micros(args.flag_parsed("retry-backoff-us", 500u64)?),
        };
        let plan = ShardPlan::new(n, addrs.len());
        let shard_lens: Vec<usize> = (0..addrs.len()).map(|k| plan.shard_len(k)).collect();
        // Connection is lazy: a worker that is down at boot leaves its
        // shard Down (writes park, reads degrade) instead of failing the
        // whole router.
        let backend = RemoteShards::connect(&addrs, retry, Some(Duration::from_secs(5)));
        let down = backend.down_at_boot();
        let wal_dir = args.flag("wal-dir").map(Path::new);
        let boundary = boundary_store(n, wal_dir)?;
        let park = park_set(&shard_lens, wal_dir)?;
        let router = router(args, plan, boundary, backend)?.with_park(park);
        for k in down {
            println!("shard {k} unreachable; parking its writes until it returns");
            router.mark_shard_down(k);
        }
        let banner = format!(
            "routing {n} vertices across {} shard worker(s)",
            addrs.len()
        );
        serve_until_shutdown(&router, args, &banner, None, finish_router)
    }

    /// A router over in-process shard engines: the seed graph is split
    /// into shard-local slices (cut edges seed the boundary store) and
    /// one engine per shard is hosted behind the router.
    fn local_router(args: &ParsedArgs, shards: usize) -> Result<String, String> {
        enable_slow_log(args, "router")?;
        let config = engine_config(args)?
            .build()
            .map_err(|e| format!("invalid configuration: {e}"))?;
        let path = args.positional(0, "graph")?;
        let g = load_graph(path)?;
        let n = g.num_vertices();
        let plan = ShardPlan::new(n, shards);
        // Split straight from the CSR's arcs, so no edge list is built.
        let routed = plan.split_batch(g.edges());
        let banner = format!(
            "serving {path} across {shards} shard(s): {n} vertices, {} edges ({} cut)",
            g.num_edges(),
            routed.cut.len()
        );
        drop(g);
        let cluster = afforest_shard::LocalCluster::new(&plan, &routed.per_shard, &config)
            .map_err(|e| format!("start shards: {e}"))?;
        let boundary = boundary_store(n, args.flag("wal-dir").map(Path::new))?;
        boundary.observe_batch(&routed.cut);
        // The shards and the boundary store hold their own copies now.
        drop(routed);
        let router = router(args, plan, boundary, cluster)?;
        serve_until_shutdown(&router, args, &banner, None, finish_router)
    }

    /// A router with the front-end's read deadline and the failure-domain
    /// knobs: consecutive transport failures before a shard is Suspect /
    /// Down, how long the breaker stays open between probes, and how long
    /// an elected probe may hang before another caller reclaims it.
    fn router<B: ShardBackend>(
        args: &ParsedArgs,
        plan: ShardPlan,
        boundary: BoundaryStore,
        backend: B,
    ) -> Result<Router<B>, String> {
        let d = HealthConfig::default();
        let health = HealthConfig {
            suspect_after: args.flag_parsed("suspect-after", d.suspect_after)?,
            down_after: args.flag_parsed("down-after", d.down_after)?,
            probe_interval: Duration::from_millis(
                args.flag_parsed("probe-interval-ms", d.probe_interval.as_millis() as u64)?,
            ),
            probe_deadline: Duration::from_millis(
                args.flag_parsed("probe-deadline-ms", d.probe_deadline.as_millis() as u64)?,
            ),
        };
        Ok(Router::new(plan, boundary, backend, read_deadline(args)?).with_health_config(health))
    }

    /// The router's parked-write backlog: durable per-shard `park-<k>.log`
    /// files under `--wal-dir` (replaying anything a previous incarnation
    /// left parked), purely in-memory otherwise.
    fn park_set(
        shard_lens: &[usize],
        wal_dir: Option<&Path>,
    ) -> Result<afforest_shard::ParkSet, String> {
        use afforest_shard::ParkSet;
        match wal_dir {
            Some(root) => {
                let park = ParkSet::with_root(root, shard_lens).map_err(|e| e.to_string())?;
                for k in 0..park.num_shards() {
                    let rec = park.recovery(k);
                    if rec.batches > 0 || rec.truncated {
                        println!(
                            "recovered {} parked batch(es), {} edge(s) for shard {k}{}",
                            rec.batches,
                            rec.edges,
                            torn_note(rec.truncated)
                        );
                    }
                }
                Ok(park)
            }
            None => Ok(ParkSet::in_memory(shard_lens.len())),
        }
    }

    /// The router's boundary store: persistent under `--wal-dir`
    /// (replaying `boundary.log` from a previous incarnation), purely
    /// in-memory otherwise.
    fn boundary_store(n: usize, wal_dir: Option<&Path>) -> Result<BoundaryStore, String> {
        match wal_dir {
            Some(root) => {
                let path = root.join(afforest_shard::BOUNDARY_LOG);
                let store = BoundaryStore::with_log(n, &path).map_err(|e| e.to_string())?;
                let replayed = store.edge_count();
                if replayed > 0 || store.recovery().truncated {
                    println!(
                        "recovered {replayed} boundary edge(s){}",
                        torn_note(store.recovery().truncated)
                    );
                }
                Ok(store)
            }
            None => Ok(BoundaryStore::new(n)),
        }
    }

    /// A router's shutdown: drains every shard, reports the boundary and
    /// any writes still parked for a down shard, then winds the shard
    /// workers down.
    fn finish_router<B: ShardBackend>(router: &Router<B>) -> (Option<StatsReport>, String) {
        router.flush(DRAIN);
        let stats = match router.handle(&Request::Stats) {
            Response::Stats(s) => Some(s),
            // A shard can be down at shutdown; the surviving shards'
            // aggregate still makes a useful report.
            Response::Degraded(inner) => match *inner {
                Response::Stats(s) => Some(s),
                _ => None,
            },
            _ => None,
        };
        let mut lines = String::new();
        let _ = writeln!(
            lines,
            "boundary holds {} cut edge(s)",
            router.boundary().edge_count()
        );
        let park = router.park();
        for k in (0..park.num_shards()).filter(|&k| park.depth(k) > 0) {
            let _ = writeln!(
                lines,
                "shard {k} still down: {} batch(es) ({} edge(s)) parked for replay",
                park.depth(k),
                park.parked_edges(k)
            );
        }
        router.shutdown_backend();
        (stats, lines)
    }

    /// The flow every mode shares once its endpoint is built: bind,
    /// start the metrics sidecar and the flight recorder's panic hook,
    /// announce, serve until `Shutdown`, then report. `finish` drains the
    /// endpoint and returns its final stats (`None` when no shard
    /// answered) and the mode's own report lines, which follow the
    /// shared shutdown lines.
    fn serve_until_shutdown<E: Endpoint>(
        endpoint: &E,
        args: &ParsedArgs,
        banner: &str,
        trace_out: Option<&str>,
        finish: impl FnOnce(&E) -> (Option<StatsReport>, String),
    ) -> Result<String, String> {
        let addr = args.flag("addr").unwrap_or("127.0.0.1:7878");
        let workers: usize = args.flag_parsed("workers", 8)?;
        // The flight recorder dumps here on panic and on clean shutdown;
        // next to the WAL by default, so a post-mortem finds both.
        let events_out: Option<PathBuf> =
            args.flag("events-out").map(PathBuf::from).or_else(|| {
                args.flag("wal-dir")
                    .map(|d| Path::new(d).join("flight.json"))
            });
        let listener = TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
        let local = listener.local_addr().map_err(|e| e.to_string())?;
        // The telemetry plane: an HTTP scrape sidecar (kept alive by the
        // binding until shutdown) and the flight recorder's panic hook.
        let metrics_http = match args.flag("metrics-addr") {
            Some(maddr) => {
                let http =
                    MetricsHttp::spawn(maddr).map_err(|e| format!("bind metrics {maddr}: {e}"))?;
                println!("metrics on http://{}/metrics", http.local_addr());
                Some(http)
            }
            None => None,
        };
        if let Some(dest) = &events_out {
            events::install_panic_hook(dest.clone());
        }
        // Boot (WAL, park and boundary replay, shard dial) is done; tell
        // /readyz so. A router shard that came up Down still pulls it to
        // 503 via its health gauge.
        afforest_serve::http::set_ready(true);
        // Announce before blocking: `dispatch` only prints on return, but
        // clients (and the CI smoke tests) need the bound address now —
        // `--addr` with port 0 picks an ephemeral port.
        println!("{banner}");
        println!("listening on {local} ({workers} workers)");
        let _ = std::io::stdout().flush();

        let session = trace_out.map(|_| afforest_obs::Session::begin());
        endpoint
            .serve_tcp(listener, workers)
            .map_err(|e| format!("serve: {e}"))?;
        // Shutdown was requested: let queued inserts finish, then report.
        afforest_serve::http::set_ready(false);
        let (stats, lines) = finish(endpoint);
        let trace = session.map(|s| s.end());
        drop(metrics_http);

        let mut out = String::new();
        if let Some(dest) = &events_out {
            match events::write_dump(dest) {
                Ok(()) => {
                    let _ = writeln!(out, "flight recording written to {}", dest.display());
                }
                Err(e) => {
                    let _ = writeln!(out, "warning: flight recording {}: {e}", dest.display());
                }
            }
        }
        match stats {
            Some(s) => {
                let _ = writeln!(out, "shutdown after epoch {}", s.epoch);
                let _ = writeln!(
                    out,
                    "ingested {} edge(s) over {} published epoch(s)",
                    s.edges_ingested, s.epochs_published
                );
            }
            None => {
                let _ = writeln!(out, "shutdown");
            }
        }
        out.push_str(&lines);
        if let (Some(dest), Some(trace)) = (trace_out, trace) {
            write_trace(dest, &trace.to_json(), trace.spans.len(), &mut out)?;
        }
        Ok(out)
    }
}

/// `afforest recover [<graph>] [--wal-dir PATH] [--events PATH]` —
/// offline post-mortem: replay a write-ahead log (over the seed graph)
/// and report what came back, report any parked-write backlogs a
/// sharded router left behind (`park-<k>.log`), and/or summarize a
/// flight recording dumped by a crashed or cleanly stopped server. Torn
/// tails, if any, are truncated exactly as a restarting server would.
pub mod recover {
    use super::*;
    use afforest_serve::events::{self, Dump, EventKind};
    use afforest_serve::wal;
    use std::collections::BTreeMap;
    use std::path::Path;

    pub fn run(argv: &[String]) -> Result<String, String> {
        let args = ParsedArgs::parse(argv)?;
        args.allow_flags(&["wal-dir", "events"])?;
        let events_path = args.flag("events");
        let mut out = String::new();
        match args.flag("wal-dir") {
            Some(dir) => {
                let root = Path::new(dir);
                // A router's wal-dir holds park logs (and a boundary
                // log) but not necessarily a WAL tree; report whatever
                // is actually there.
                let park = park_report(root)?;
                if wal::exists(&wal::default_wal_dir(root)) {
                    out.push_str(&wal_report(&args, dir)?);
                } else if park.is_empty() && events_path.is_none() {
                    return Err(format!("no write-ahead log at {}", root.display()));
                }
                out.push_str(&park);
            }
            None if events_path.is_none() => {
                return Err(
                    "recover requires --wal-dir PATH (WAL replay) and/or --events PATH \
                     (flight recording)"
                        .to_string(),
                )
            }
            None => {}
        }
        if let Some(p) = events_path {
            let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
            let dump = events::parse_dump(&text).map_err(|e| format!("{p}: {e}"))?;
            out.push_str(&render_flight(p, &dump));
        }
        Ok(out)
    }

    /// Parked-write backlogs (`park-<k>.log`) a sharded router left
    /// behind for shards that were still down at shutdown. Each log's
    /// header names its shard's slice length; the logs are read with
    /// the same range checks and torn-tail truncation a restarting
    /// router performs.
    fn park_report(root: &Path) -> Result<String, String> {
        use afforest_shard::{park_path, ParkSet};
        let lens = (0..)
            .map(|k| park_path(root, k))
            .take_while(|path| path.exists())
            .map(|path| wal::log_vertices(&path))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        if lens.is_empty() {
            return Ok(String::new());
        }
        let set = ParkSet::with_root(root, &lens).map_err(|e| e.to_string())?;
        let mut out = String::new();
        for k in 0..set.num_shards() {
            let rec = set.recovery(k);
            let _ = writeln!(
                out,
                "park shard {k}: {} batch(es), {} edge(s) awaiting replay{}",
                rec.batches,
                rec.edges,
                torn_note(rec.truncated)
            );
        }
        Ok(out)
    }

    fn wal_report(args: &ParsedArgs, dir: &str) -> Result<String, String> {
        let path = args.positional(0, "graph")?;
        let root = Path::new(dir);
        // The root may be a legacy single-tenant log or a tenant tree;
        // either way the default tenant replays over the seed graph and
        // every other tenant replays over an empty one.
        let default_dir = wal::default_wal_dir(root);
        if !wal::exists(&default_dir) {
            return Err(format!("no write-ahead log at {}", root.display()));
        }
        let seed = IncrementalCc::from_graph(&load_graph(path)?);
        let mut rec = wal::recover(&default_dir, Some(seed))
            .map_err(|e| format!("recover {}: {e}", default_dir.display()))?;
        let labels = rec.cc.labels();

        let mut out = String::new();
        let _ = writeln!(out, "wal:         {}", root.display());
        let _ = writeln!(
            out,
            "base:        {}",
            if rec.from_snapshot {
                "parent snapshot"
            } else {
                "seed graph"
            }
        );
        let _ = writeln!(
            out,
            "replayed:    {} batch(es), {} edge(s)",
            rec.batches, rec.edges
        );
        let _ = writeln!(
            out,
            "torn tail:   {}",
            if rec.truncated { "truncated" } else { "none" }
        );
        let _ = writeln!(out, "vertices:    {}", rec.vertices);
        let _ = writeln!(out, "components:  {}", labels.num_components());
        let _ = writeln!(
            out,
            "largest:     {} of {} vertices",
            labels.largest_component_size(),
            labels.len()
        );
        for (name, tdir) in wal::tenant_dirs(root) {
            if name == afforest_serve::DEFAULT_TENANT {
                continue;
            }
            let mut trec = wal::recover(&tdir, None)
                .map_err(|e| format!("recover tenant {name} at {}: {e}", tdir.display()))?;
            let tlabels = trec.cc.labels();
            let _ = writeln!(
                out,
                "tenant {name}: {} batch(es), {} edge(s), {} vertices, {} component(s){}",
                trec.batches,
                trec.edges,
                trec.vertices,
                tlabels.num_components(),
                torn_note(trec.truncated)
            );
        }
        Ok(out)
    }

    /// How many trailing events the summary prints in full.
    const TAIL: usize = 20;

    /// Renders a parsed flight recording: per-kind totals (faults broken
    /// out by site) and the final [`TAIL`] events, newest last. Pure, so
    /// the tests can pin the format.
    pub fn render_flight(path: &str, dump: &Dump) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "flight:      {path}");
        let _ = writeln!(
            out,
            "events:      {} recorded, {} retained",
            dump.recorded,
            dump.events.len()
        );
        let mut by_kind: BTreeMap<&str, usize> = BTreeMap::new();
        for e in &dump.events {
            *by_kind.entry(e.kind.as_str()).or_default() += 1;
        }
        for (kind, count) in &by_kind {
            let _ = writeln!(out, "  {kind:<18} {count}");
        }
        let faults: Vec<&events::DumpEvent> = dump.of_kind(EventKind::FaultInjected).collect();
        if !faults.is_empty() {
            let mut by_site: BTreeMap<&str, usize> = BTreeMap::new();
            for e in &faults {
                let site = e.fields.get("site").copied().unwrap_or(0);
                *by_site.entry(events::fault_site::name(site)).or_default() += 1;
            }
            let _ = writeln!(
                out,
                "faults:      {}",
                by_site
                    .iter()
                    .map(|(s, n)| format!("{s} x{n}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            );
        }
        let tail = &dump.events[dump.events.len().saturating_sub(TAIL)..];
        if !tail.is_empty() {
            let _ = writeln!(out, "last {} event(s):", tail.len());
        }
        for e in tail {
            let fields = e
                .fields
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect::<Vec<_>>()
                .join(" ");
            let _ = writeln!(
                out,
                "  #{:<6} +{:>10}us  {:<18} {fields}",
                e.seq, e.ts_us, e.kind
            );
        }
        out
    }
}

/// `afforest loadgen (<host:port> | --graph PATH) [--tenant NAME]
/// [--connections N] [--requests N] [--read-pct P] [--insert-batch N]
/// [--seed S] [--max-retries N] [--retry-backoff-us US] [--json-out PATH]
/// [--trace-out PATH]`.
pub mod loadgen {
    use super::*;
    use afforest_serve::loadgen::run as run_load;
    use afforest_serve::{Client, LoadgenConfig, ServeConfig, Server, TenantId};

    pub fn run(argv: &[String]) -> Result<String, String> {
        let args = ParsedArgs::parse(argv)?;
        args.allow_flags(&[
            "graph",
            "tenant",
            "connections",
            "requests",
            "read-pct",
            "insert-batch",
            "seed",
            "max-retries",
            "retry-backoff-us",
            "write-shards",
            "local-pct",
            "json-out",
            "trace-out",
            "traced",
        ])?;
        let tenant = match args.flag("tenant") {
            Some(name) => Some(TenantId::new(name).map_err(|e| format!("--tenant: {e}"))?),
            None => None,
        };
        let cfg = LoadgenConfig {
            connections: args.flag_parsed("connections", 4)?,
            requests: args.flag_parsed("requests", 20_000)?,
            read_pct: args.flag_parsed("read-pct", 90u32)?,
            insert_batch: args.flag_parsed("insert-batch", 64)?,
            seed: args.flag_parsed("seed", 42u64)?,
            max_retries: args.flag_parsed("max-retries", 3u32)?,
            retry_backoff: std::time::Duration::from_micros(
                args.flag_parsed("retry-backoff-us", 500u64)?,
            ),
            write_shards: args.flag_parsed("write-shards", 0usize)?,
            local_pct: args.flag_parsed("local-pct", 90u32)?,
            tenant,
        };
        if cfg.read_pct > 100 {
            return Err("--read-pct must be 0..=100".into());
        }
        if cfg.local_pct > 100 {
            return Err("--local-pct must be 0..=100".into());
        }
        if cfg.requests == 0 {
            return Err("--requests must be positive".into());
        }
        let trace_out = args.flag("trace-out");
        // `--traced true`: every request carries a fresh trace id in its
        // envelope, so a server running with `--slow-log` retains trees
        // for the slow ones (`afforest trace` renders them).
        let traced: bool = args.flag_parsed("traced", false)?;
        let session = trace_out.map(|_| afforest_obs::Session::begin());

        let report = match args.flag("graph") {
            // Self-contained mode: an in-process server over `--graph`, no
            // socket. Server-side ingest spans land in `--trace-out`.
            Some(path) => {
                if args.num_positionals() != 0 {
                    return Err("--graph and <host:port> are mutually exclusive".into());
                }
                if cfg.tenant.is_some() {
                    return Err("--tenant needs a remote server (<host:port>)".into());
                }
                if traced {
                    return Err("--traced needs a remote server (<host:port>)".into());
                }
                let seed = IncrementalCc::from_graph(&load_graph(path)?);
                let config = ServeConfig::builder()
                    .build()
                    .map_err(|e| format!("invalid configuration: {e}"))?;
                let server =
                    Server::from_cc(seed, config).map_err(|e| format!("start server: {e}"))?;
                run_load(&cfg, |_| Ok(&server)).map_err(|e| format!("loadgen: {e}"))?
            }
            // Client mode: one TCP connection per workload thread; a
            // `--tenant` rides each request in a v2 envelope.
            None => {
                let addr = args.positional(0, "host:port")?;
                let tenant = cfg.tenant.clone();
                run_load(&cfg, |_| {
                    let mut client = Client::connect(addr)?;
                    if let Some(t) = &tenant {
                        client = client.with_tenant(t.clone());
                    }
                    if traced {
                        client = client.with_tracing();
                    }
                    Ok(client)
                })
                .map_err(|e| format!("loadgen against {addr}: {e}"))?
            }
        };
        let trace = session.map(|s| s.end());

        let mut out = report.render();
        if let Some(dest) = args.flag("json-out") {
            std::fs::write(dest, report.to_json()).map_err(|e| format!("{dest}: {e}"))?;
            let _ = writeln!(out, "json written to {dest}");
        }
        if let Some(dest) = trace_out {
            let trace = trace.expect("traced run kept its trace");
            write_trace(dest, &trace.to_json(), trace.spans.len(), &mut out)?;
        }
        if report.errors > 0 {
            return Err(format!(
                "{} protocol error(s) during the run\n{out}",
                report.errors
            ));
        }
        Ok(out)
    }
}

/// `afforest distrib-cc <graph> [--ranks P] [--partition block|hash|bfs]`
/// — run the BSP forest-merge connectivity algorithm over a simulated
/// `P`-rank partition and report components plus exact communication
/// volume ([`CommStats`](afforest_distrib::CommStats)).
pub mod distrib_cc {
    use super::*;
    use afforest_distrib::{distributed_cc_forest, PartitionKind, VertexPartition};

    pub fn run(argv: &[String]) -> Result<String, String> {
        let args = ParsedArgs::parse(argv)?;
        args.allow_flags(&["ranks", "partition"])?;
        let path = args.positional(0, "graph")?;
        let ranks: usize = args.flag_parsed("ranks", 4usize)?;
        if ranks == 0 {
            return Err("--ranks must be positive".into());
        }
        if ranks > u16::MAX as usize {
            return Err("--ranks must fit in 16 bits".into());
        }
        let g = load_graph(path)?;
        let scheme = args.flag("partition").unwrap_or("block");
        let part = match scheme {
            "block" => VertexPartition::new(g.num_vertices(), ranks, PartitionKind::Block),
            "hash" => VertexPartition::new(g.num_vertices(), ranks, PartitionKind::Hash),
            "bfs" => VertexPartition::bfs_grow(&g, ranks),
            other => {
                return Err(format!(
                    "--partition: unknown scheme '{other}' (block|hash|bfs)"
                ))
            }
        };
        let t = Instant::now();
        let (labels, comm) = distributed_cc_forest(&g, &part);
        let dt = t.elapsed().as_secs_f64();

        let mut out = String::new();
        let _ = writeln!(
            out,
            "graph:       {path} ({} vertices, {} edges)",
            g.num_vertices(),
            g.num_edges()
        );
        let _ = writeln!(
            out,
            "ranks:       {ranks} ({scheme} partition, cut fraction {:.3})",
            part.cut_fraction(&g)
        );
        let _ = writeln!(out, "components:  {}", labels.num_components());
        let _ = writeln!(
            out,
            "largest:     {} of {} vertices",
            labels.largest_component_size(),
            labels.len()
        );
        let _ = writeln!(out, "supersteps:  {}", comm.supersteps);
        let _ = writeln!(out, "messages:    {} ({} bytes)", comm.messages, comm.bytes);
        let _ = writeln!(out, "time:        {dt:.6}s");
        Ok(out)
    }
}

/// `afforest top <host:port> [--interval-ms MS] [--count N]
/// [--clear BOOL]` — a live dashboard over the `--metrics-addr` sidecar:
/// scrape, diff against the previous scrape for rates, render per-op
/// request rates and latency percentiles plus ingest/WAL health.
pub mod top {
    use super::*;
    use afforest_obs::registry::{parse_exposition, Scrape};
    use afforest_serve::http::http_get;
    use afforest_serve::metrics::OP_NAMES;
    use std::io::Write as _;

    pub fn run(argv: &[String]) -> Result<String, String> {
        let args = ParsedArgs::parse(argv)?;
        args.allow_flags(&["interval-ms", "count", "clear"])?;
        let addr = args.positional(0, "host:port")?;
        let interval_ms: u64 = args.flag_parsed("interval-ms", 1000u64)?;
        let count: u64 = args.flag_parsed("count", 0u64)?; // 0 = until interrupted
        let clear: bool = args.flag_parsed("clear", true)?;

        let mut prev: Option<(Scrape, Instant)> = None;
        let mut frames = 0u64;
        loop {
            let (status, body) = http_get(addr, "/metrics")?;
            if status != 200 {
                return Err(format!("{addr} answered HTTP {status} to GET /metrics"));
            }
            let now = Instant::now();
            let cur = parse_exposition(&body).map_err(|e| format!("bad exposition: {e}"))?;
            let dt = prev
                .as_ref()
                .map(|(_, at)| now.duration_since(*at).as_secs_f64());
            if clear {
                // ANSI clear + home, like top(1); `--clear false` scrolls
                // instead (logs, pipes, dumb terminals).
                print!("\x1b[2J\x1b[H");
            }
            print!("{}", render(addr, prev.as_ref().map(|(s, _)| s), &cur, dt));
            let _ = std::io::stdout().flush();
            frames += 1;
            if count != 0 && frames >= count {
                break;
            }
            prev = Some((cur, now));
            std::thread::sleep(std::time::Duration::from_millis(interval_ms.max(1)));
        }
        Ok(format!("{frames} scrape(s) of {addr}\n"))
    }

    /// A counter's per-second rate between two scrapes, `-` on the first
    /// frame (no previous sample to diff against).
    fn rate(prev: Option<&Scrape>, cur: &Scrape, name: &str, dt: Option<f64>) -> String {
        match (prev.and_then(|p| p.value(name)), cur.value(name), dt) {
            (Some(a), Some(b), Some(dt)) if dt > 0.0 => {
                format!("{:.1}", b.saturating_sub(a) as f64 / dt)
            }
            _ => "-".to_string(),
        }
    }

    /// Renders one dashboard frame. Pure — the tests feed it canned
    /// scrapes and pin the layout.
    pub fn render(addr: &str, prev: Option<&Scrape>, cur: &Scrape, dt: Option<f64>) -> String {
        let v = |name: &str| cur.value(name).unwrap_or(0);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "afforest top — {addr}  epoch {}  queue {} edge(s)",
            v("afforest_tenant_epoch{tenant=\"default\"}"),
            v("afforest_tenant_queue_depth{tenant=\"default\"}")
        );
        let _ = writeln!(
            out,
            "ingest: {} edge(s) over {} epoch(s)  shed {}  wal {} rec / {} B / {} compaction(s) / {} error(s)",
            v("afforest_edges_ingested_total"),
            v("afforest_epochs_published_total"),
            v("afforest_requests_shed_total"),
            v("afforest_wal_records_total"),
            v("afforest_wal_bytes_total"),
            v("afforest_wal_compactions_total"),
            v("afforest_wal_errors_total"),
        );
        if let Some(lag) = cur.histogram("afforest_epoch_publish_lag_ns") {
            if lag.count > 0 {
                let _ = writeln!(
                    out,
                    "publish lag: p50 {}  p95 {}  p99 {}  ({} sample(s))",
                    fmt_ns(lag.percentile(0.50)),
                    fmt_ns(lag.percentile(0.95)),
                    fmt_ns(lag.percentile(0.99)),
                    lag.count
                );
            }
        }
        // Sharded routers export per-shard health (0 healthy, 1 suspect,
        // 2 down, 3 probing), the parked-write backlog and the
        // degraded-read count; one line covers the failure domain.
        let mut shards: Vec<(String, u64)> = cur
            .values
            .iter()
            .filter_map(|(name, value)| {
                name.strip_prefix("afforest_shard_health{shard=\"")
                    .and_then(|r| r.strip_suffix("\"}"))
                    .map(|k| (k.to_string(), *value))
            })
            .collect();
        if !shards.is_empty() {
            shards.sort();
            let mut line = String::from("shards:");
            for (k, code) in &shards {
                let state = match code {
                    0 => "healthy",
                    1 => "suspect",
                    2 => "down",
                    3 => "probing",
                    _ => "unknown",
                };
                let _ = write!(line, "  {k}:{state}");
                let parked = v(&format!("afforest_parked_batches{{shard=\"{k}\"}}"));
                if parked > 0 {
                    let _ = write!(line, " ({parked} parked)");
                }
            }
            let _ = write!(line, "  degraded reads {}", v("afforest_degraded_reads"));
            let _ = writeln!(out, "{line}");
        }
        let _ = writeln!(
            out,
            "{:<16} {:>10} {:>9} {:>8} {:>8} {:>8}  p99 trace",
            "op", "total", "req/s", "p50", "p95", "p99"
        );
        for op in OP_NAMES {
            let total_name = format!("afforest_requests_{op}_total");
            let total = v(&total_name);
            let hist_name = format!("afforest_request_latency_{op}_ns");
            let (p50, p95, p99) = match cur.histogram(&hist_name) {
                Some(h) if h.count > 0 => (
                    fmt_ns(h.percentile(0.50)),
                    fmt_ns(h.percentile(0.95)),
                    fmt_ns(h.percentile(0.99)),
                ),
                _ => ("-".into(), "-".into(), "-".into()),
            };
            // The histogram's top occupied bucket carries an exemplar —
            // the last retained trace id that slow; paste it into
            // `afforest trace --trace-id` to see where the time went.
            let exemplar = cur.exemplar(&hist_name).unwrap_or("-");
            let _ = writeln!(
                out,
                "{op:<16} {total:>10} {:>9} {p50:>8} {p95:>8} {p99:>8}  {exemplar}",
                rate(prev, cur, &total_name, dt)
            );
        }
        let faults: u64 = [
            "afforest_faults_wal_drop_total",
            "afforest_faults_wal_short_write_total",
            "afforest_faults_apply_delay_total",
            "afforest_faults_torn_frame_total",
            "afforest_faults_worker_kill_total",
        ]
        .into_iter()
        .map(v)
        .sum();
        if faults > 0 || v("afforest_worker_deaths_total") > 0 {
            let _ = writeln!(
                out,
                "chaos: {faults} fault(s) injected, {} worker death(s)",
                v("afforest_worker_deaths_total")
            );
        }
        out
    }
}

/// `afforest trace <host:port> [--shards A,B,…] [--trace-id HEX]` —
/// pull the retained span rings of a server or router (plus, with
/// `--shards`, its remote shard workers) over the `DumpTraces` wire op
/// and render one request's merged cross-process span tree with
/// per-stage self-times. Without `--trace-id` the newest retained
/// trace is rendered.
pub mod trace {
    use super::*;
    use afforest_obs::reqtrace::{stage_name, Span};
    use afforest_serve::Client;
    use std::collections::{BTreeMap, BTreeSet};

    pub fn run(argv: &[String]) -> Result<String, String> {
        let args = ParsedArgs::parse(argv)?;
        args.allow_flags(&["shards", "trace-id"])?;
        let addr = args.positional(0, "host:port")?;
        let want = match args.flag("trace-id") {
            Some(text) => Some(parse_trace_id(text)?),
            None => None,
        };
        let mut addrs = vec![addr.to_string()];
        if let Some(list) = args.flag("shards") {
            addrs.extend(
                list.split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty()),
            );
        }
        // Each source is labeled `node@addr`: two shard workers both
        // call themselves "serve", so the address disambiguates.
        let mut sources = Vec::new();
        for a in &addrs {
            let mut client =
                Client::connect(a.as_str()).map_err(|e| format!("connect {a}: {e}"))?;
            let (node, spans) = client
                .dump_traces()
                .map_err(|e| format!("dump traces from {a}: {e}"))?;
            sources.push((format!("{node}@{a}"), spans));
        }
        render(&sources, want)
    }

    /// Parses a `--trace-id` value: up to 16 hex digits, `0x` optional.
    pub fn parse_trace_id(text: &str) -> Result<u64, String> {
        let digits = text.trim().trim_start_matches("0x");
        u64::from_str_radix(digits, 16)
            .map_err(|_| format!("--trace-id: '{text}' is not a hex trace id"))
    }

    /// Renders one trace's merged tree from per-source span dumps.
    /// Children nest under their parent in start order; a span whose
    /// parent was retained only on a process that was not scraped (or
    /// whose tree missed that process's threshold) renders as an extra
    /// top-level root rather than being dropped. Self time is a span's
    /// duration minus its direct children's. Pure, for the tests.
    pub fn render(sources: &[(String, Vec<Span>)], want: Option<u64>) -> Result<String, String> {
        let mut all: Vec<(usize, Span)> = Vec::new();
        for (i, (_, spans)) in sources.iter().enumerate() {
            all.extend(spans.iter().map(|s| (i, *s)));
        }
        if all.is_empty() {
            return Err(
                "no retained spans (start the server with --slow-log MS and send traced \
                 requests, e.g. `afforest loadgen … --traced true`)"
                    .into(),
            );
        }
        // Newest trace = the one holding the most recently started span.
        let trace_id = match want {
            Some(id) => id,
            None => {
                all.iter()
                    .max_by_key(|(_, s)| s.start_us)
                    .expect("nonempty")
                    .1
                    .trace_id
            }
        };
        let mut spans: Vec<(usize, Span)> = all
            .iter()
            .copied()
            .filter(|(_, s)| s.trace_id == trace_id)
            .collect();
        if spans.is_empty() {
            return Err(format!(
                "trace {trace_id:016x} not found in any retained ring"
            ));
        }
        // Scraping the same process under two addresses must not
        // duplicate the tree: span ids are unique within a trace.
        spans.sort_by_key(|&(i, s)| (s.span_id, i));
        spans.dedup_by_key(|&mut (_, s)| s.span_id);
        spans.sort_by_key(|&(_, s)| (s.start_us, s.span_id));

        let retained: BTreeSet<u64> = all.iter().map(|(_, s)| s.trace_id).collect();
        let contributing: BTreeSet<usize> = spans.iter().map(|&(i, _)| i).collect();
        let present: BTreeSet<u64> = spans.iter().map(|&(_, s)| s.span_id).collect();
        let t0 = spans
            .iter()
            .map(|&(_, s)| s.start_us)
            .min()
            .expect("nonempty");
        let mut roots: Vec<usize> = Vec::new();
        let mut children: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        for (idx, &(_, s)) in spans.iter().enumerate() {
            if s.parent_span != 0 && present.contains(&s.parent_span) {
                children.entry(s.parent_span).or_default().push(idx);
            } else {
                roots.push(idx);
            }
        }

        let mut out = format!(
            "trace {trace_id:016x}: {} span(s) from {} of {} source(s); {} trace(s) retained\n",
            spans.len(),
            contributing.len(),
            sources.len(),
            retained.len()
        );
        // Depth-first in start order, accumulating per-stage self time.
        let mut stage_self: BTreeMap<&'static str, (u64, usize)> = BTreeMap::new();
        let mut stack: Vec<(usize, usize)> = roots.iter().rev().map(|&i| (i, 0)).collect();
        while let Some((idx, depth)) = stack.pop() {
            let (src, s) = spans[idx];
            let kids = children.get(&s.span_id).cloned().unwrap_or_default();
            let child_ns: u64 = kids.iter().map(|&k| spans[k].1.dur_ns).sum();
            let self_ns = s.dur_ns.saturating_sub(child_ns);
            let entry = stage_self.entry(stage_name(s.stage)).or_insert((0, 0));
            entry.0 += self_ns;
            entry.1 += 1;
            let label = if s.arg != 0 {
                format!("{}{} ({})", "  ".repeat(depth), s.stage_name(), s.arg)
            } else {
                format!("{}{}", "  ".repeat(depth), s.stage_name())
            };
            let _ = writeln!(
                out,
                "{:>12}  {label:<34} {:>9}  self {:>9}  [{}]",
                format!("+{}us", s.start_us.saturating_sub(t0)),
                fmt_ns(s.dur_ns),
                fmt_ns(self_ns),
                sources[src].0
            );
            for &k in kids.iter().rev() {
                stack.push((k, depth + 1));
            }
        }
        let _ = writeln!(out, "stage self-times:");
        for (name, (ns, n)) in &stage_self {
            let _ = writeln!(out, "  {name:<18} {:>9}  ({n} span(s))", fmt_ns(*ns));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afforest_graph::generators::uniform_random;

    fn tempfile(name: &str) -> String {
        let mut p = std::env::temp_dir();
        p.push(format!("afforest-cli-cmd-{}-{}", std::process::id(), name));
        p.to_string_lossy().into_owned()
    }

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    fn sample_graph_file(name: &str) -> String {
        let g = uniform_random(200, 1_000, 5);
        let p = tempfile(name);
        crate::load::save_graph(&g, &p).unwrap();
        p
    }

    #[test]
    fn stats_reports_counts() {
        let p = sample_graph_file("stats.el");
        let out = stats::run(&argv(&[&p])).unwrap();
        std::fs::remove_file(&p).unwrap();
        assert!(out.contains("vertices:            200"));
        assert!(out.contains("components:"));
        assert!(out.contains("approx diameter:"));
    }

    #[test]
    fn cc_default_algorithm_and_labels_out() {
        let p = sample_graph_file("cc.el");
        let labels_path = tempfile("labels.txt");
        let out = cc::run(&argv(&[&p, "--labels-out", &labels_path])).unwrap();
        std::fs::remove_file(&p).unwrap();
        assert!(out.contains("algorithm:   afforest"));
        let labels = std::fs::read_to_string(&labels_path).unwrap();
        std::fs::remove_file(&labels_path).unwrap();
        assert_eq!(labels.lines().count(), 200);
        assert!(labels.lines().next().unwrap().starts_with("0 "));
    }

    #[test]
    fn cc_every_algorithm_runs() {
        let p = sample_graph_file("ccall.el");
        for name in ALGORITHM_NAMES {
            let out = cc::run(&argv(&[&p, "--algorithm", name])).unwrap();
            assert!(out.contains(name), "{name} missing from output");
        }
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn cc_rejects_unknown_algorithm() {
        let p = sample_graph_file("ccbad.el");
        let err = cc::run(&argv(&[&p, "--algorithm", "quantum"])).unwrap_err();
        std::fs::remove_file(&p).unwrap();
        assert!(err.contains("unknown algorithm"));
    }

    #[test]
    fn generate_all_families() {
        for family in [
            "urand",
            "kron",
            "road",
            "web",
            "ba",
            "ws",
            "geometric",
            "components",
        ] {
            let p = tempfile(&format!("gen-{family}.el"));
            let out = generate::run(&argv(&[
                family,
                "--out",
                &p,
                "--n",
                "256",
                "--edge-factor",
                "4",
                "--seed",
                "1",
            ]))
            .unwrap();
            assert!(out.contains(family), "{family}");
            let g = crate::load::load_graph(&p).unwrap();
            std::fs::remove_file(&p).unwrap();
            assert!(g.num_edges() > 0, "{family} generated no edges");
        }
    }

    #[test]
    fn generate_requires_out() {
        let err = generate::run(&argv(&["urand"])).unwrap_err();
        assert!(err.contains("--out"));
    }

    #[test]
    fn generate_rejects_unknown_family() {
        let p = tempfile("gen-bad.el");
        let err = generate::run(&argv(&["hypercube", "--out", &p])).unwrap_err();
        assert!(err.contains("unknown family"));
    }

    #[test]
    fn convert_between_formats() {
        let src = sample_graph_file("conv.el");
        let dst = tempfile("conv.graph");
        let out = convert::run(&argv(&[&src, &dst])).unwrap();
        assert!(out.contains("converted"));
        let a = crate::load::load_graph(&src).unwrap();
        let b = crate::load::load_graph(&dst).unwrap();
        std::fs::remove_file(&src).unwrap();
        std::fs::remove_file(&dst).unwrap();
        assert_eq!(a.num_edges(), b.num_edges());
    }

    #[test]
    fn bench_times_everything() {
        let p = sample_graph_file("bench.el");
        let out = bench::run(&argv(&[&p, "--trials", "1"])).unwrap();
        std::fs::remove_file(&p).unwrap();
        for name in ALGORITHM_NAMES {
            assert!(out.contains(name), "{name} missing");
        }
    }

    #[test]
    fn cc_trace_out_writes_parseable_json() {
        let p = sample_graph_file("trace.el");
        let trace_path = tempfile("trace.json");
        let out = cc::run(&argv(&[&p, "--trace-out", &trace_path])).unwrap();
        std::fs::remove_file(&p).unwrap();
        assert!(out.contains("trace written to"));
        let json = std::fs::read_to_string(&trace_path).unwrap();
        std::fs::remove_file(&trace_path).unwrap();
        let trace = afforest_obs::Trace::from_json(&json).expect("valid trace JSON");
        if afforest_obs::COMPILED {
            assert!(!trace.spans.is_empty());
        } else {
            assert!(trace.is_empty());
            assert!(out.contains("compiled out"));
        }
    }

    /// Acceptance check for the tentpole: `run --trace-out` covers every
    /// neighbor round, the sampling step, the skip pass, and each
    /// compress sweep.
    #[cfg(feature = "obs")]
    #[test]
    fn cc_trace_covers_every_afforest_phase() {
        let p = sample_graph_file("tracephases.el");
        let trace_path = tempfile("tracephases.json");
        cc::run(&argv(&[&p, "--trace-out", &trace_path, "--trials", "2"])).unwrap();
        std::fs::remove_file(&p).unwrap();
        let json = std::fs::read_to_string(&trace_path).unwrap();
        std::fs::remove_file(&trace_path).unwrap();
        let trace = afforest_obs::Trace::from_json(&json).unwrap();
        let rounds = afforest_core::AfforestConfig::default().neighbor_rounds;
        for r in 0..rounds {
            assert!(
                trace.spans.iter().any(|s| s.name == format!("link[{r}]")),
                "missing neighbor round {r}"
            );
        }
        for name in ["init", "find-largest", "final-link", "final-compress"] {
            assert!(
                trace.spans.iter().any(|s| s.name == name),
                "missing phase {name}"
            );
        }
        assert!(
            trace.spans.iter().any(|s| s.base_name() == "compress"),
            "missing compress sweeps"
        );
        assert!(
            trace.counter("vertices_skipped") > 0,
            "skip pass not recorded"
        );
    }

    #[cfg(feature = "obs")]
    #[test]
    fn bench_trace_out_maps_algorithms_to_traces() {
        let p = sample_graph_file("benchtrace.el");
        let trace_path = tempfile("benchtrace.json");
        bench::run(&argv(&[&p, "--trials", "1", "--trace-out", &trace_path])).unwrap();
        std::fs::remove_file(&p).unwrap();
        let json = std::fs::read_to_string(&trace_path).unwrap();
        std::fs::remove_file(&trace_path).unwrap();
        // The file is one object: algorithm name -> trace.
        let value = afforest_obs::json::parse(&json).unwrap();
        let afforest_obs::json::Value::Obj(map) = value else {
            panic!("expected a JSON object");
        };
        assert_eq!(map.len(), ALGORITHM_NAMES.len());
        assert!(map.contains_key("afforest"));
        assert!(map.contains_key("sv"));
    }

    #[test]
    fn loadgen_self_contained_mode_runs_clean() {
        let p = sample_graph_file("loadgen.el");
        let json_path = tempfile("loadgen.json");
        let out = loadgen::run(&argv(&[
            "--graph",
            &p,
            "--connections",
            "2",
            "--requests",
            "400",
            "--read-pct",
            "85",
            "--insert-batch",
            "4",
            "--json-out",
            &json_path,
        ]))
        .unwrap();
        std::fs::remove_file(&p).unwrap();
        assert!(out.contains("throughput"), "{out}");
        assert!(out.contains("p99"), "{out}");
        assert!(out.contains("errors:     0"), "{out}");
        let json = std::fs::read_to_string(&json_path).unwrap();
        std::fs::remove_file(&json_path).unwrap();
        assert!(json.contains("\"throughput_rps\""), "{json}");
        assert!(json.contains("\"requests\": 400"), "{json}");
    }

    #[test]
    fn loadgen_validates_its_flags() {
        let p = sample_graph_file("loadgenbad.el");
        let err = loadgen::run(&argv(&["--graph", &p, "--read-pct", "150"])).unwrap_err();
        assert!(err.contains("read-pct"), "{err}");
        let err = loadgen::run(&argv(&["--graph", &p, "--requests", "0"])).unwrap_err();
        assert!(err.contains("requests"), "{err}");
        // --graph and an explicit address are mutually exclusive.
        let err = loadgen::run(&argv(&["127.0.0.1:1", "--graph", &p])).unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");
        std::fs::remove_file(&p).unwrap();
        // Without --graph, the target address is required.
        let err = loadgen::run(&argv(&[])).unwrap_err();
        assert!(err.contains("host:port"), "{err}");
    }

    #[test]
    fn recover_replays_a_wal_over_the_seed_graph() {
        let p = sample_graph_file("recover.el");
        let dir = std::env::temp_dir().join(format!("afforest-cli-recover-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            // The sample graph has 200 vertices; log two batches for it.
            let mut wal = afforest_serve::wal::Wal::open(&dir, 200, 0).unwrap();
            wal.append(&[(0, 1), (2, 3)]).unwrap();
            wal.append(&[(4, 5)]).unwrap();
        }
        let out = recover::run(&argv(&[&p, "--wal-dir", dir.to_str().unwrap()])).unwrap();
        std::fs::remove_file(&p).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(out.contains("replayed:    2 batch(es), 3 edge(s)"), "{out}");
        assert!(out.contains("torn tail:   none"), "{out}");
        assert!(out.contains("base:        seed graph"), "{out}");
        assert!(out.contains("components:"), "{out}");
    }

    #[test]
    fn recover_reports_park_backlogs_against_each_logs_header() {
        let dir =
            std::env::temp_dir().join(format!("afforest-cli-recover-park-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            // Slices of 8 and 12 vertices; shard 1's parked local id 10
            // is in range only for its own slice length.
            let park = afforest_shard::ParkSet::with_root(&dir, &[8, 12]).unwrap();
            park.park(1, &[(10, 11)]);
        }
        let out = recover::run(&argv(&["--wal-dir", dir.to_str().unwrap()])).unwrap();
        assert!(
            out.contains("park shard 0: 0 batch(es), 0 edge(s) awaiting replay\n"),
            "{out}"
        );
        assert!(
            out.contains("park shard 1: 1 batch(es), 1 edge(s) awaiting replay\n"),
            "{out}"
        );
        // A park log without a header is an error naming the file.
        std::fs::write(afforest_shard::park_path(&dir, 0), b"no header here").unwrap();
        let err = recover::run(&argv(&["--wal-dir", dir.to_str().unwrap()])).unwrap_err();
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(err.contains("park-0.log"), "{err}");
    }

    #[test]
    fn recover_requires_a_wal() {
        let p = sample_graph_file("recovernone.el");
        let err = recover::run(&argv(&[&p])).unwrap_err();
        assert!(err.contains("--wal-dir"), "{err}");
        let dir = std::env::temp_dir().join(format!(
            "afforest-cli-recover-missing-{}",
            std::process::id()
        ));
        let err = recover::run(&argv(&[&p, "--wal-dir", dir.to_str().unwrap()])).unwrap_err();
        std::fs::remove_file(&p).unwrap();
        assert!(err.contains("no write-ahead log"), "{err}");
    }

    #[test]
    fn serve_rejects_vertex_mismatched_wal() {
        let p = sample_graph_file("servewalbad.el");
        let dir =
            std::env::temp_dir().join(format!("afforest-cli-servewalbad-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // A log for a 10-vertex universe cannot back a 200-vertex graph.
        drop(afforest_serve::wal::Wal::open(&dir, 10, 0).unwrap());
        let err = serve::run(&argv(&[&p, "--wal-dir", dir.to_str().unwrap()])).unwrap_err();
        std::fs::remove_file(&p).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(err.contains("vertex count 10"), "{err}");
    }

    #[test]
    fn serve_rejects_bad_faults_spec() {
        let p = sample_graph_file("servefaultbad.el");
        let err = serve::run(&argv(&[&p, "--faults", "gremlins=1"])).unwrap_err();
        std::fs::remove_file(&p).unwrap();
        assert!(err.contains("--faults"), "{err}");
    }

    #[test]
    fn loadgen_retry_flags_parse_and_run() {
        let p = sample_graph_file("loadgenretry.el");
        let out = loadgen::run(&argv(&[
            "--graph",
            &p,
            "--requests",
            "200",
            "--max-retries",
            "1",
            "--retry-backoff-us",
            "100",
        ]))
        .unwrap();
        std::fs::remove_file(&p).unwrap();
        assert!(out.contains("shed:"), "{out}");
    }

    #[test]
    fn serve_rejects_unbindable_addr() {
        let p = sample_graph_file("servebad.el");
        let err = serve::run(&argv(&[&p, "--addr", "999.999.999.999:0"])).unwrap_err();
        std::fs::remove_file(&p).unwrap();
        assert!(err.contains("bind"), "{err}");
    }

    #[cfg(feature = "obs")]
    #[test]
    fn loadgen_trace_out_captures_ingest_spans() {
        let p = sample_graph_file("loadgentrace.el");
        let trace_path = tempfile("loadgentrace.json");
        loadgen::run(&argv(&[
            "--graph",
            &p,
            "--requests",
            "300",
            "--read-pct",
            "50",
            "--insert-batch",
            "8",
            "--trace-out",
            &trace_path,
        ]))
        .unwrap();
        std::fs::remove_file(&p).unwrap();
        let json = std::fs::read_to_string(&trace_path).unwrap();
        std::fs::remove_file(&trace_path).unwrap();
        let trace = afforest_obs::Trace::from_json(&json).unwrap();
        // The in-process server's writer thread recorded its batches,
        // each with the linking work it did.
        let batches: Vec<_> = trace
            .spans
            .iter()
            .filter(|s| s.base_name() == "ingest-batch")
            .collect();
        assert!(!batches.is_empty(), "no ingest-batch spans recorded");
        assert!(
            batches.iter().map(|s| s.counter("link_calls")).sum::<u64>() > 0,
            "{json}"
        );
    }

    #[test]
    fn recover_without_wal_or_events_names_both_flags() {
        let err = recover::run(&argv(&[])).unwrap_err();
        assert!(err.contains("--wal-dir"), "{err}");
        assert!(err.contains("--events"), "{err}");
    }

    #[test]
    fn recover_events_summarizes_a_flight_dump() {
        use afforest_serve::events::{self, EventKind};
        // A dump written by the recorder itself; the summary must account
        // for every kind and break faults out by site.
        events::record(EventKind::EpochPublished, [3, 128, 900]);
        events::record(
            EventKind::FaultInjected,
            [events::fault_site::TORN_FRAME, 5, 0],
        );
        let path = tempfile("flight.json");
        std::fs::write(&path, events::dump_json()).unwrap();
        // Events-only mode: no graph, no WAL.
        let out = recover::run(&argv(&["--events", &path])).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert!(out.contains("flight:"), "{out}");
        assert!(out.contains("epoch_published"), "{out}");
        assert!(out.contains("torn_frame x1"), "{out}");
        assert!(out.contains("epoch=3"), "{out}");
    }

    #[test]
    fn recover_events_rejects_garbage() {
        let path = tempfile("flight-garbage.json");
        std::fs::write(&path, "not a dump").unwrap();
        let err = recover::run(&argv(&["--events", &path])).unwrap_err();
        std::fs::remove_file(&path).unwrap();
        assert!(err.contains(&path), "{err}");
    }

    /// Parses canned exposition text into a [`Scrape`] for the render
    /// tests (the same parser `top` uses against a live endpoint).
    fn scrape_of(text: &str) -> afforest_obs::registry::Scrape {
        afforest_obs::registry::parse_exposition(text).expect("canned exposition parses")
    }

    #[test]
    fn top_render_shows_totals_rates_and_percentiles() {
        let first = scrape_of(
            "# TYPE afforest_tenant_epoch gauge\nafforest_tenant_epoch{tenant=\"default\"} 7\n\
             # TYPE afforest_tenant_queue_depth gauge\n\
             afforest_tenant_queue_depth{tenant=\"default\"} 12\n\
             # TYPE afforest_requests_connected_total counter\n\
             afforest_requests_connected_total 100\n",
        );
        let second = scrape_of(
            "# TYPE afforest_tenant_epoch gauge\nafforest_tenant_epoch{tenant=\"default\"} 9\n\
             # TYPE afforest_tenant_queue_depth gauge\n\
             afforest_tenant_queue_depth{tenant=\"default\"} 0\n\
             # TYPE afforest_requests_connected_total counter\n\
             afforest_requests_connected_total 350\n\
             # TYPE afforest_request_latency_connected_ns histogram\n\
             afforest_request_latency_connected_ns_bucket{le=\"1023\"} 250\n\
             afforest_request_latency_connected_ns_bucket{le=\"+Inf\"} 250\n\
             afforest_request_latency_connected_ns_sum 200000\n\
             afforest_request_latency_connected_ns_count 250\n",
        );
        // First frame: no previous scrape, so rates are dashes.
        let frame = top::render("127.0.0.1:9", None, &first, None);
        assert!(frame.contains("epoch 7"), "{frame}");
        assert!(frame.contains("queue 12"), "{frame}");
        assert!(
            frame
                .lines()
                .any(|l| l.starts_with("connected") && l.contains('-')),
            "{frame}"
        );
        // Second frame: 250 more requests over 2 s = 125.0 req/s, and the
        // latency histogram yields percentiles.
        let frame = top::render("127.0.0.1:9", Some(&first), &second, Some(2.0));
        assert!(frame.contains("epoch 9"), "{frame}");
        assert!(frame.contains("125.0"), "{frame}");
        let connected = frame
            .lines()
            .find(|l| l.starts_with("connected"))
            .expect("connected row");
        assert!(connected.contains("350"), "{frame}");
        // All 250 samples sit in the ≤1023 ns bucket: every percentile
        // reads back as that bucket's upper edge.
        assert!(connected.contains("1.0us"), "{frame}");
        // No chaos metrics → no chaos line.
        assert!(!frame.contains("chaos:"), "{frame}");
    }

    #[test]
    fn top_render_surfaces_chaos_and_publish_lag() {
        let s = scrape_of(
            "# TYPE afforest_faults_torn_frame_total counter\n\
             afforest_faults_torn_frame_total 4\n\
             # TYPE afforest_worker_deaths_total counter\n\
             afforest_worker_deaths_total 1\n\
             # TYPE afforest_epoch_publish_lag_ns histogram\n\
             afforest_epoch_publish_lag_ns_bucket{le=\"2097151\"} 9\n\
             afforest_epoch_publish_lag_ns_bucket{le=\"+Inf\"} 9\n\
             afforest_epoch_publish_lag_ns_sum 9000000\n\
             afforest_epoch_publish_lag_ns_count 9\n",
        );
        let frame = top::render("h:1", None, &s, None);
        assert!(
            frame.contains("chaos: 4 fault(s) injected, 1 worker death(s)"),
            "{frame}"
        );
        assert!(frame.contains("publish lag: p50 2.1ms"), "{frame}");
    }

    #[test]
    fn top_requires_an_address_and_validates_flags() {
        let err = top::run(&argv(&[])).unwrap_err();
        assert!(err.contains("host:port"), "{err}");
        let err = top::run(&argv(&["127.0.0.1:9", "--interval", "5"])).unwrap_err();
        assert!(err.contains("unknown flag"), "{err}");
    }

    #[test]
    fn top_against_a_live_sidecar_scrapes_once() {
        // A sidecar with the serve metrics registered is all `top` needs —
        // it reads the process-global registry over HTTP.
        afforest_serve::metrics::metrics().connections.inc();
        let http = afforest_serve::MetricsHttp::spawn("127.0.0.1:0").expect("bind sidecar");
        let addr = http.local_addr().to_string();
        let out = top::run(&argv(&[&addr, "--count", "1", "--clear", "false"])).unwrap();
        assert!(out.contains("1 scrape(s)"), "{out}");
        // A dead endpoint is a clean error, not a hang.
        drop(http);
        let err = top::run(&argv(&["127.0.0.1:1", "--count", "1"])).unwrap_err();
        assert!(err.contains("connect"), "{err}");
    }

    #[test]
    fn distrib_cc_reports_components_and_comm() {
        let p = sample_graph_file("distribcc.el");
        // The BSP run must agree with the sequential count and report
        // exact communication accounting for every scheme.
        let expected = {
            let g = crate::load::load_graph(&p).unwrap();
            afforest_core::afforest(&g, &Default::default()).num_components()
        };
        for scheme in ["block", "hash", "bfs"] {
            let out = distrib_cc::run(&argv(&[&p, "--ranks", "3", "--partition", scheme])).unwrap();
            assert!(
                out.contains(&format!("components:  {expected}")),
                "{scheme}: {out}"
            );
            assert!(out.contains("ranks:       3"), "{out}");
            assert!(out.contains("supersteps:"), "{out}");
            assert!(out.contains("messages:"), "{out}");
        }
        let err = distrib_cc::run(&argv(&[&p, "--partition", "voronoi"])).unwrap_err();
        assert!(err.contains("unknown scheme"), "{err}");
        let err = distrib_cc::run(&argv(&[&p, "--ranks", "0"])).unwrap_err();
        assert!(err.contains("--ranks"), "{err}");
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn serve_sharded_validates_its_flags() {
        // A router needs the global vertex count to build its plan.
        let err = serve::run(&argv(&["--shard-addrs", "127.0.0.1:1"])).unwrap_err();
        assert!(err.contains("--vertices"), "{err}");
        let err = serve::run(&argv(&[
            "x.el",
            "--shard-addrs",
            "127.0.0.1:1",
            "--vertices",
            "8",
        ]))
        .unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");
        let err = serve::run(&argv(&["--shard-addrs", " , ", "--vertices", "8"])).unwrap_err();
        assert!(err.contains("no addresses"), "{err}");
        // Dialing a worker that is not there is no longer a boot error:
        // the shard comes up Down (writes park until it returns). Boot
        // proceeds all the way to the bind, which this test points
        // somewhere invalid to regain control.
        let err = serve::run(&argv(&[
            "--shard-addrs",
            "127.0.0.1:1",
            "--vertices",
            "8",
            "--addr",
            "999.999.999.999:0",
        ]))
        .unwrap_err();
        assert!(err.contains("bind"), "{err}");
        // In-process sharding still needs a graph.
        let err = serve::run(&argv(&["--shards", "2"])).unwrap_err();
        assert!(err.contains("graph"), "{err}");
    }

    #[test]
    fn serve_sharded_rejects_unbindable_addr() {
        let p = sample_graph_file("servesharded.el");
        let err =
            serve::run(&argv(&[&p, "--shards", "2", "--addr", "999.999.999.999:0"])).unwrap_err();
        std::fs::remove_file(&p).unwrap();
        assert!(err.contains("bind"), "{err}");
    }

    /// Runs `serve` with `base` plus `--flag value`, pointed at an
    /// unbindable address so that a flag the mode accepted fails at the
    /// bind instead of serving; returns the error.
    fn serve_error_with(base: &[&str], flag: &str, value: &str) -> String {
        let mut parts = base.to_vec();
        parts.extend(["--addr", "999.999.999.999:0", flag, value]);
        serve::run(&argv(&parts)).unwrap_err()
    }

    /// Asserts `serve` refuses each of `ignored` (with a value the mode
    /// would otherwise parse fine), naming the flag.
    fn assert_refused(base: &[&str], ignored: &[(&str, &str)]) {
        for &(flag, value) in ignored {
            let err = serve_error_with(base, flag, value);
            assert!(
                err.contains(&format!("unknown flag {flag} ")),
                "{flag}: {err}"
            );
        }
    }

    #[test]
    fn serve_standalone_refuses_router_flags() {
        let p = sample_graph_file("servestandaloneflags.el");
        assert_refused(
            &[&p],
            &[
                ("--max-retries", "3"),
                ("--retry-backoff-us", "100"),
                ("--suspect-after", "1"),
                ("--down-after", "2"),
                ("--probe-interval-ms", "100"),
                ("--probe-deadline-ms", "100"),
                // A graph fixes the vertex count.
                ("--vertices", "8"),
            ],
        );
        // Without a graph, `--vertices` sizes the server: accepted.
        let err = serve_error_with(&[], "--vertices", "8");
        std::fs::remove_file(&p).unwrap();
        assert!(err.contains("bind"), "{err}");
    }

    #[test]
    fn serve_shards_refuses_flags_it_ignores() {
        let p = sample_graph_file("serveshardsflags.el");
        assert_refused(
            &[&p, "--shards", "2"],
            &[
                ("--faults", "seed=7"),
                ("--trace-out", "trace.json"),
                ("--max-tenants", "4"),
                ("--max-total-queue-depth", "64"),
                ("--vertices", "8"),
                ("--max-retries", "3"),
                ("--retry-backoff-us", "100"),
            ],
        );
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn serve_shard_addrs_refuses_flags_it_ignores() {
        assert_refused(
            &["--shard-addrs", "127.0.0.1:1", "--vertices", "8"],
            &[
                ("--faults", "seed=7"),
                ("--trace-out", "trace.json"),
                ("--max-tenants", "4"),
                ("--max-total-queue-depth", "64"),
                ("--max-batch-edges", "64"),
                ("--max-batch-delay-ms", "1"),
                ("--wal-snapshot-every", "8"),
                ("--max-queue-depth", "64"),
                ("--shards", "2"),
            ],
        );
    }

    #[test]
    fn loadgen_sharded_write_flags_parse_and_run() {
        let p = sample_graph_file("loadgenshard.el");
        let out = loadgen::run(&argv(&[
            "--graph",
            &p,
            "--requests",
            "200",
            "--read-pct",
            "0",
            "--write-shards",
            "4",
            "--local-pct",
            "95",
        ]))
        .unwrap();
        assert!(out.contains("throughput"), "{out}");
        let err = loadgen::run(&argv(&["--graph", &p, "--local-pct", "101"])).unwrap_err();
        assert!(err.contains("local-pct"), "{err}");
        std::fs::remove_file(&p).unwrap();
    }

    /// Canned spans for the trace-render and slow-log tests: a
    /// router-side tree (request → decode + fan-out) plus a worker-side
    /// subtree (shard request → WAL fsync) parented under the fan-out
    /// span, exactly as cross-process propagation produces.
    fn canned_trace() -> Vec<(String, Vec<afforest_obs::reqtrace::Span>)> {
        use afforest_obs::reqtrace::Span;
        let span = |span_id, parent_span, stage, arg, start_us, dur_ns| Span {
            trace_id: 0xABCD,
            span_id,
            parent_span,
            stage,
            arg,
            start_us,
            dur_ns,
        };
        vec![
            (
                "router@127.0.0.1:7878".to_string(),
                vec![
                    span(1, 0, 1, 0, 1_000, 9_000_000), // router_request
                    span(2, 1, 2, 48, 1_001, 5_000),    // router_decode
                    span(3, 1, 4, 0, 1_010, 8_000_000), // shard_fanout
                ],
            ),
            (
                "serve@127.0.0.1:7001".to_string(),
                vec![
                    span(100, 3, 6, 0, 1_020, 7_000_000),    // shard_request
                    span(101, 100, 8, 16, 1_030, 2_000_000), // wal_fsync
                ],
            ),
        ]
    }

    #[test]
    fn trace_render_merges_sources_into_one_tree() {
        let sources = canned_trace();
        let out = trace::render(&sources, None).unwrap();
        assert!(out.contains("trace 000000000000abcd"), "{out}");
        assert!(out.contains("5 span(s) from 2 of 2 source(s)"), "{out}");
        // The worker's subtree nests under the router's fan-out span.
        let lines: Vec<&str> = out.lines().collect();
        let pos = |needle: &str| {
            lines
                .iter()
                .position(|l| l.contains(needle))
                .unwrap_or_else(|| panic!("missing {needle}: {out}"))
        };
        assert!(pos("router_request") < pos("shard_fanout"), "{out}");
        assert!(pos("shard_fanout") < pos("shard_request"), "{out}");
        assert!(pos("shard_request") < pos("wal_fsync"), "{out}");
        // Each span names the process it came from.
        assert!(
            lines[pos("wal_fsync")].contains("[serve@127.0.0.1:7001]"),
            "{out}"
        );
        assert!(
            lines[pos("router_request")].contains("[router@127.0.0.1:7878]"),
            "{out}"
        );
        // Self time subtracts direct children: the 9 ms root spent
        // 8.005 ms in its children, leaving 995 us of its own.
        assert!(lines[pos("router_request")].contains("995.0us"), "{out}");
        // Per-stage attribution footer.
        assert!(out.contains("stage self-times:"), "{out}");
        assert!(out.contains("wal_fsync"), "{out}");
    }

    #[test]
    fn trace_render_honors_trace_id_and_rejects_unknown() {
        let mut sources = canned_trace();
        // A second, newer trace retained on the worker only.
        sources[1].1.push(afforest_obs::reqtrace::Span {
            trace_id: 0xEEEE,
            span_id: 200,
            parent_span: 0,
            stage: 6,
            arg: 0,
            start_us: 9_999,
            dur_ns: 1_000,
        });
        // Default: the newest trace wins.
        let out = trace::render(&sources, None).unwrap();
        assert!(out.contains("trace 000000000000eeee"), "{out}");
        assert!(out.contains("2 trace(s) retained"), "{out}");
        // Explicit --trace-id picks the older one.
        let out = trace::render(&sources, Some(0xABCD)).unwrap();
        assert!(out.contains("trace 000000000000abcd"), "{out}");
        let err = trace::render(&sources, Some(0x1234)).unwrap_err();
        assert!(err.contains("not found"), "{err}");
        let err = trace::render(&[("x".into(), vec![])], None).unwrap_err();
        assert!(err.contains("no retained spans"), "{err}");
    }

    #[test]
    fn trace_render_keeps_orphans_as_roots() {
        // Only the worker's dump is available: its subtree's parent
        // (the router fan-out span) is absent, so it renders as a root
        // instead of vanishing.
        let sources = vec![canned_trace().remove(1)];
        let out = trace::render(&sources, None).unwrap();
        assert!(out.contains("shard_request"), "{out}");
        assert!(out.contains("wal_fsync"), "{out}");
    }

    #[test]
    fn trace_cli_validates_its_args() {
        let err = trace::run(&argv(&[])).unwrap_err();
        assert!(err.contains("host:port"), "{err}");
        let err = trace::run(&argv(&["127.0.0.1:9", "--trace-id", "zz"])).unwrap_err();
        assert!(err.contains("hex trace id"), "{err}");
        assert_eq!(trace::parse_trace_id("0xAb12").unwrap(), 0xAB12);
        // A dead endpoint is a clean error, not a hang.
        let err = trace::run(&argv(&["127.0.0.1:1"])).unwrap_err();
        assert!(err.contains("connect"), "{err}");
    }

    #[test]
    fn slowlog_line_is_one_parseable_json_object() {
        let tree = &canned_trace()[0].1;
        let line = slowlog_line(tree);
        let value = afforest_obs::json::parse(&line).expect("slow-log line parses");
        let afforest_obs::json::Value::Obj(map) = value else {
            panic!("expected a JSON object: {line}");
        };
        assert!(map.contains_key("schema"), "{line}");
        assert!(map.contains_key("trace_id"), "{line}");
        assert!(map.contains_key("spans"), "{line}");
        assert!(line.contains("\"trace_id\":\"000000000000abcd\""), "{line}");
        assert!(line.contains("\"root\":\"router_request\""), "{line}");
        assert!(line.contains("\"stage\":\"router_decode\""), "{line}");
        // No trailing newline: the sink appends one per line.
        assert!(!line.ends_with('\n'), "{line}");
    }

    #[test]
    fn serve_rejects_bad_slow_log() {
        let p = sample_graph_file("serveslowbad.el");
        let err = serve::run(&argv(&[&p, "--slow-log", "soon"])).unwrap_err();
        std::fs::remove_file(&p).unwrap();
        assert!(err.contains("--slow-log"), "{err}");
    }

    #[test]
    fn loadgen_traced_needs_a_remote_server() {
        let p = sample_graph_file("loadgentraced.el");
        let err = loadgen::run(&argv(&["--graph", &p, "--traced", "true"])).unwrap_err();
        std::fs::remove_file(&p).unwrap();
        assert!(err.contains("--traced"), "{err}");
    }

    #[test]
    fn top_render_surfaces_shard_health_and_exemplars() {
        let s = scrape_of(
            "# TYPE afforest_shard_health gauge\n\
             afforest_shard_health{shard=\"0\"} 0\n\
             afforest_shard_health{shard=\"1\"} 2\n\
             # TYPE afforest_parked_batches gauge\n\
             afforest_parked_batches{shard=\"1\"} 3\n\
             # TYPE afforest_degraded_reads counter\n\
             afforest_degraded_reads 7\n\
             # TYPE afforest_request_latency_connected_ns histogram\n\
             afforest_request_latency_connected_ns_bucket{le=\"1023\"} 250 # {trace_id=\"00c0ffee00c0ffee\"}\n\
             afforest_request_latency_connected_ns_bucket{le=\"+Inf\"} 250\n\
             afforest_request_latency_connected_ns_sum 200000\n\
             afforest_request_latency_connected_ns_count 250\n",
        );
        let frame = top::render("h:1", None, &s, None);
        assert!(
            frame.contains("shards:  0:healthy  1:down (3 parked)  degraded reads 7"),
            "{frame}"
        );
        // The p99 exemplar rides the op row, ready for `afforest trace`.
        let connected = frame
            .lines()
            .find(|l| l.starts_with("connected"))
            .expect("connected row");
        assert!(connected.contains("00c0ffee00c0ffee"), "{frame}");
        // Ops without a retained exemplar show a dash.
        let stats_row = frame
            .lines()
            .find(|l| l.starts_with("stats"))
            .expect("stats row");
        assert!(stats_row.trim_end().ends_with('-'), "{frame}");
        // No shard gauges → no shard line.
        let plain = scrape_of(
            "# TYPE afforest_tenant_epoch gauge\nafforest_tenant_epoch{tenant=\"default\"} 1\n",
        );
        assert!(!top::render("h:1", None, &plain, None).contains("shards:"));
    }

    #[test]
    fn typo_flags_are_rejected() {
        let p = sample_graph_file("typo.el");
        let err = cc::run(&argv(&[&p, "--algorthm", "sv"])).unwrap_err();
        std::fs::remove_file(&p).unwrap();
        assert!(err.contains("unknown flag"));
    }
}
