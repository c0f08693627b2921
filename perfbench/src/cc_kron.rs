//! `cc_kron`: back-to-back in-process `afforest()` solves on Graph500
//! kron 2^20 (edge factor 16), default configuration and thread count.
//!
//! Set-up is the CSR build from the generated edge list. Every solve is
//! checked off the timed path against one union-find labeling of the
//! seed's graph. The traced run times half its solves through
//! `afforest_with_stats` and reads the phase split from its `RunStats`.

use crate::oracle::Dsu;
use crate::stats::{median, median_of, tail, windowed_rate, RATE_WINDOW_S};
use crate::sys::{own_peak_rss_mb, HostNoise};
use crate::{Args, Report};
use afforest_core::{afforest, afforest_with_stats, AfforestConfig, ComponentLabels, Phase};
use afforest_graph::generators::rmat_scale;
use afforest_graph::{CsrGraph, GraphBuilder};
use std::hint::black_box;
use std::time::{Duration, Instant};

const SCALE: u32 = 20;
const EDGE_FACTOR: usize = 16;
/// CSR builds in set-up; `setup_s` is their median.
const SETUP_BUILDS: usize = 3;
/// Untimed solves before the clock starts.
const WARMUP_SOLVES: usize = 3;

/// Per-phase split of one traced solve, in milliseconds.
struct PhaseSplit {
    link_rounds: f64,
    compress: f64,
    find_largest: f64,
    final_link: f64,
}

/// Solve times (ms) and, when traced, each solve's phase split and the
/// first solve's exact work counts.
#[derive(Default)]
struct Solves {
    ms: Vec<f64>,
    phases: Vec<PhaseSplit>,
    /// (`edges_processed / arcs`, `vertices_skipped`) of the first solve.
    work: Option<(f64, usize)>,
}

pub fn run(args: &Args) -> Result<Report, String> {
    let (n, edges) = {
        let g = rmat_scale(SCALE, EDGE_FACTOR, args.seed);
        (g.num_vertices(), g.collect_edges())
    };
    let oracle = ComponentLabels::from_vec(Dsu::from_edges(n, &edges).labels());

    let mut builds = Vec::with_capacity(SETUP_BUILDS);
    let mut graph: Option<CsrGraph> = None;
    for _ in 0..SETUP_BUILDS {
        drop(graph.take()); // free the previous build before timing the next
        let t = Instant::now();
        let g = GraphBuilder::from_edges(n, &edges).build();
        builds.push(t.elapsed().as_secs_f64());
        graph = Some(black_box(g));
    }
    let g = graph.expect("SETUP_BUILDS is positive");
    let num_edges = edges.len();
    drop(edges);

    let cfg = AfforestConfig::default();
    let mut report = Report::default();
    for _ in 0..WARMUP_SOLVES {
        report.check(afforest(&g, &cfg).equivalent(&oracle));
    }
    let noise = HostNoise::start();
    let (plain, traced) = if args.trace {
        let half = args.seconds / 2;
        let plain = solve_for(&g, &cfg, &oracle, half, false, &mut report);
        (plain, solve_for(&g, &cfg, &oracle, half, true, &mut report))
    } else {
        let plain = solve_for(&g, &cfg, &oracle, args.seconds, false, &mut report);
        (plain, Solves::default())
    };

    let setup_s = median(&builds);
    if args.trace {
        let p50_plain = median_of("untraced solves", &plain.ms)?;
        let p50_traced = median_of("traced solves", &traced.ms)?;
        let phase =
            |f: fn(&PhaseSplit) -> f64| median(&traced.phases.iter().map(f).collect::<Vec<_>>());
        let (frac, skipped) = traced.work.ok_or("no traced solve completed")?;
        report.metric("graph.csr_build_s", setup_s);
        report.metric("core.link_rounds_ms", phase(|p| p.link_rounds));
        report.metric("core.compress_ms", phase(|p| p.compress));
        report.metric("core.find_largest_ms", phase(|p| p.find_largest));
        report.metric("core.final_link_ms", phase(|p| p.final_link));
        report.metric("core.edges_linked_frac", frac);
        report.metric("core.vertices_skipped", skipped as f64);
        report.metric(
            "obs.trace_overhead_pct",
            (p50_traced / p50_plain - 1.0) * 100.0,
        );
    } else {
        let p50_us = median_of("solves", &plain.ms)? * 1e3;
        report.metric("setup_s", setup_s);
        report.metric("rss_mb", own_peak_rss_mb()?);
        report.metric("success_pct", report.success_pct());
        report.metric("p50_us", p50_us);
        report.metric("tail_us", tail("solve", &plain.ms, 90.0)? * 1e3);
        let solves: Vec<(f64, f64)> = plain.ms.iter().map(|ms| (ms / 1e3, 1.0)).collect();
        report.metric(
            "ops_per_s",
            windowed_rate("solves", &solves, RATE_WINDOW_S)?,
        );
        report.metric("visible_p50_us", p50_us);
    }
    report.diag.push(format!(
        "\"vertices\": {n}, \"edges\": {num_edges}, \"components\": {}, \
         \"untraced_solves\": {}, \"traced_solves\": {}, {}",
        oracle.num_components(),
        plain.ms.len(),
        traced.ms.len(),
        noise.finish()
    ));
    Ok(report)
}

/// Solves back to back for `budget`, checking each labeling against the
/// oracle after its clock stopped.
fn solve_for(
    g: &CsrGraph,
    cfg: &AfforestConfig,
    oracle: &ComponentLabels,
    budget: Duration,
    traced: bool,
    report: &mut Report,
) -> Solves {
    let mut out = Solves::default();
    let start = Instant::now();
    while start.elapsed() < budget {
        let t = Instant::now();
        let (labels, stats) = if traced {
            let (labels, stats) = afforest_with_stats(g, cfg);
            (labels, Some(stats))
        } else {
            (afforest(g, cfg), None)
        };
        out.ms.push(t.elapsed().as_secs_f64() * 1e3);
        report.check(labels.equivalent(oracle));
        if let Some(stats) = stats {
            let ms = |keep: fn(&Phase) -> bool| -> f64 {
                stats
                    .phases
                    .iter()
                    .filter(|p| keep(&p.phase))
                    .map(|p| p.elapsed.as_secs_f64() * 1e3)
                    .sum()
            };
            out.phases.push(PhaseSplit {
                link_rounds: ms(|p| matches!(p, Phase::LinkRound(_))),
                compress: ms(|p| matches!(p, Phase::Compress(_) | Phase::FinalCompress)),
                find_largest: ms(|p| matches!(p, Phase::FindLargest)),
                final_link: ms(|p| matches!(p, Phase::FinalLink)),
            });
            out.work
                .get_or_insert((stats.edge_fraction(g), stats.vertices_skipped));
        }
    }
    out
}
