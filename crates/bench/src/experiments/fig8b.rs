//! Fig. 8b — strong scaling on the web graph.

use super::Report;
use crate::algorithms::Algorithm;
use crate::datasets::{self, Scale};
use crate::table::{self, Table};
use crate::timing::{aggregate, measure};
use std::time::Duration;

/// Algorithms plotted by the paper's Fig. 8b.
pub const ALGS: [Algorithm; 4] = [
    Algorithm::Sv,
    Algorithm::Dobfs,
    Algorithm::Afforest,
    Algorithm::AfforestNoSkip,
];

/// Thread counts: powers of two up to the machine, plus the machine size.
pub fn thread_counts() -> Vec<usize> {
    let max_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let mut counts = vec![1usize];
    while *counts.last().unwrap() * 2 <= max_threads {
        counts.push(counts.last().unwrap() * 2);
    }
    if *counts.last().unwrap() != max_threads {
        counts.push(max_threads);
    }
    counts
}

/// Runs the scaling experiment.
///
/// Trials are the outermost loop: each trial times every algorithm at
/// every thread count, so the samples behind one speedup are taken
/// moments apart rather than a whole thread count's trials apart, and
/// a slow spell on a shared host lands on both sides of the ratio.
pub fn run(scale: Scale, trials: usize, dataset: Option<&str>) -> Report {
    let name = dataset.unwrap_or("web");
    let g = datasets::by_name(name)
        .unwrap_or_else(|| panic!("unknown dataset '{name}'"))
        .build(scale);

    let counts = thread_counts();
    let mut header: Vec<String> = vec!["threads".into()];
    for a in ALGS {
        header.push(format!("{}-ms", a.name()));
        header.push(format!("{}-speedup", a.name()));
    }
    let mut t = Table::new(header);

    let pools: Vec<rayon::ThreadPool> = counts
        .iter()
        .map(|&threads| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("thread pool")
        })
        .collect();
    // samples[thread count][algorithm]
    let mut samples: Vec<Vec<Vec<Duration>>> =
        vec![vec![Vec::with_capacity(trials); ALGS.len()]; counts.len()];
    for _ in 0..trials {
        for (pool, per_alg) in pools.iter().zip(&mut samples) {
            for (alg, s) in ALGS.into_iter().zip(per_alg.iter_mut()) {
                s.push(pool.install(|| measure(1, || alg.run(&g)).median));
            }
        }
    }

    let medians: Vec<Vec<f64>> = samples
        .into_iter()
        .map(|per_alg| {
            per_alg
                .into_iter()
                .map(|s| aggregate(s).median_ms())
                .collect()
        })
        .collect();
    for (&threads, ms) in counts.iter().zip(&medians) {
        let mut row = vec![threads.to_string()];
        for (&ms, &base) in ms.iter().zip(&medians[0]) {
            row.push(table::f2(ms));
            row.push(format!("{}x", table::f2(base / ms.max(1e-9))));
        }
        t.row(row);
    }

    let mut r = Report::new(format!(
        "Fig. 8b — strong scaling on '{name}' (|V|={}, |E|={}, {trials} trials)",
        table::count(g.num_vertices()),
        table::count(g.num_edges()),
    ));
    r.table("", t);
    r.note("paper: all algorithms scale comparably on the web graph");
    if counts.len() == 1 {
        r.note("host exposes a single hardware thread: scaling series is degenerate here");
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_match_thread_counts() {
        let r = run(Scale::Tiny, 1, None);
        assert_eq!(r.primary_table().unwrap().len(), thread_counts().len());
    }

    #[test]
    fn thread_counts_start_at_one_and_grow() {
        let c = thread_counts();
        assert_eq!(c[0], 1);
        assert!(c.windows(2).all(|w| w[1] > w[0]));
    }
}
