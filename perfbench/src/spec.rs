//! The benchmark's metric catalogue: every metric it prints, its unit,
//! which direction is better, what it measures on each workload, and —
//! for per-layer metrics — which end-to-end metric on which workload it
//! should move. `BENCHMARK.json` at the repository root declares the same
//! names, units and bounds; a unit test keeps the two in step.
//!
//! Every run reports every metric of its kind (all end-to-end metrics
//! untraced, all per-layer metrics traced), so end-to-end names are
//! workload-neutral roles ("the headline operation's median") rather
//! than one workload's quantities. A per-layer metric of a layer a
//! workload never enters reads 0 there: that layer did no work.

/// Which direction of change is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// The workloads, in run order, with why each was chosen.
pub const WORKLOADS: [(&str, &str); 3] = [
    (
        "cc_kron",
        "back-to-back in-process afforest solves on Graph500 kron 2^20: the paper's headline case \
         and the only path through link rounds, skip and final compress",
    ),
    (
        "serve_ingest",
        "standalone serve with a WAL seeded with kron 2^20, one closed-loop writer inserting 4096 \
         edges and polling until visible: the whole write path incl. the O(n) epoch publish",
    ),
    (
        "router_mixed",
        "router over two shard workers on a road 2^20 lattice: 64-edge shard-0 inserts then 64 \
         straddling reads, the only path through the shard router and its composite cache",
    ),
];

/// One end-to-end metric: a user-visible quantity every workload reports.
/// Latencies are nearest-rank percentiles of raw per-operation times;
/// rates are medians over windows of one busy second
/// ([`crate::stats::windowed_rate`]).
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
    /// What the value is on `cc_kron`, `serve_ingest`, `router_mixed`.
    pub meaning: [&'static str; 3],
}

/// One per-layer metric from the traced run.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Where the number comes from.
    pub source: &'static str,
    /// The end-to-end metric(s) and workload(s) it should move.
    pub moves: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    meaning: [&'static str; 3],
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        meaning,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    source: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        source,
        moves,
    }
}

use std::fmt::Write as _;
use Better::{Higher, Lower};

pub const END_TO_END: [EndToEnd; 7] = [
    e2e(
        "setup_s",
        "s",
        Lower,
        0.25,
        [
            "median of 3 CSR builds from the generated edge list",
            "median of 3 server starts: spawn until the first Stats answers",
            "median of 3 cluster starts: spawn until the seed is visible on both workers",
        ],
    ),
    e2e(
        "rss_mb",
        "MB",
        Lower,
        0.2,
        [
            "peak RSS of the solving process, set by the set-up CSR builds (it also holds the \
             edge list and the oracle's labels)",
            "peak RSS of the server",
            "peak RSS summed over the router and both workers",
        ],
    ),
    e2e(
        "success_pct",
        "%",
        Higher,
        0.01,
        [
            "share of solves whose labeling matched the union-find oracle",
            "share of inserts and checks without Err, Overloaded, timeout or mismatch",
            "share of inserts, reads and checks without Err, Overloaded, Degraded, timeout \
             or mismatch",
        ],
    ),
    e2e(
        "p50_us",
        "us",
        Lower,
        0.24,
        [
            "median solve",
            "median insert-to-visible",
            "median read: the composite-cache hit",
        ],
    ),
    e2e(
        "tail_us",
        "us",
        Lower,
        0.24,
        [
            "p90 solve",
            "p99 insert-to-visible, set by WAL compaction every 64 batches",
            "p99 read: the 1 read in 64 that rebuilds the composite",
        ],
    ),
    e2e(
        "ops_per_s",
        "1/s",
        Higher,
        0.24,
        [
            "solves per second of solving",
            "edges made visible per second of insert-to-visible",
            "inserts plus reads per second of insert-to-visible plus read time, visibility \
             polls not counted as operations",
        ],
    ),
    e2e(
        "visible_p50_us",
        "us",
        Lower,
        0.24,
        [
            "median solve: edges in a CSR until their labels exist",
            "median insert-to-visible",
            "median insert-to-visible on worker 0, the 2 ms batch deadline included",
        ],
    ),
];

pub const PER_LAYER: [PerLayer; 26] = [
    layer(
        "graph.csr_build_s",
        "s",
        Lower,
        "median of the set-up CSR builds",
        "setup_s @ cc_kron",
    ),
    layer(
        "core.link_rounds_ms",
        "ms",
        Lower,
        "RunStats link[i] phases, median over traced solves",
        "p50_us @ cc_kron; nothing on the serving workloads",
    ),
    layer(
        "core.compress_ms",
        "ms",
        Lower,
        "RunStats compress[i] and final-compress phases, median over traced solves",
        "p50_us @ cc_kron; nothing on the serving workloads",
    ),
    layer(
        "core.find_largest_ms",
        "ms",
        Lower,
        "RunStats find-largest phase, median over traced solves",
        "p50_us @ cc_kron; nothing on the serving workloads",
    ),
    layer(
        "core.final_link_ms",
        "ms",
        Lower,
        "RunStats final-link phase (with skip), median over traced solves",
        "p50_us @ cc_kron; nothing on the serving workloads",
    ),
    layer(
        "core.edges_linked_frac",
        "ratio",
        Lower,
        "RunStats edges_processed / arcs of the first traced solve (exact)",
        "p50_us @ cc_kron",
    ),
    layer(
        "core.vertices_skipped",
        "count",
        Higher,
        "RunStats vertices_skipped of the first traced solve (exact)",
        "p50_us @ cc_kron",
    ),
    layer(
        "serve.insert_ack_us",
        "us",
        Lower,
        "harness span around InsertEdges until Accepted, median",
        "visible_p50_us @ serve_ingest",
    ),
    layer(
        "serve.wal_append_us",
        "us",
        Lower,
        "wal_fsync span self time (write and flush, no fsync), median",
        "visible_p50_us @ serve_ingest",
    ),
    layer(
        "serve.batch_apply_us",
        "us",
        Lower,
        "batch_apply span self time, median",
        "visible_p50_us @ serve_ingest",
    ),
    layer(
        "serve.queue_wait_us",
        "us",
        Lower,
        "queue_wait span, median",
        "visible_p50_us @ router_mixed, where it holds the 2 ms deadline; near 0 @ serve_ingest",
    ),
    layer(
        "serve.epoch_publish_us",
        "us",
        Lower,
        "epoch_publish span self time, median",
        "visible_p50_us and ops_per_s @ serve_ingest, visible_p50_us @ router_mixed; \
         not cc_kron, not p50_us @ router_mixed",
    ),
    layer(
        "serve.wal_compactions_per_1k",
        "count",
        Lower,
        "Metrics afforest_wal_compactions_total per 1000 traced inserts",
        "tail_us @ serve_ingest",
    ),
    layer(
        "serve.wal_bytes_per_edge",
        "B",
        Lower,
        "Metrics afforest_wal_bytes_total per ingested edge",
        "tail_us @ serve_ingest",
    ),
    layer(
        "serve.request_us",
        "us",
        Lower,
        "server shard_request self time: Stats polls @ serve_ingest, worker requests of hit \
         reads @ router_mixed; median",
        "p50_us @ router_mixed",
    ),
    layer(
        "serve.epochs_per_insert",
        "count",
        Lower,
        "epochs published per insert (exact, 1.0)",
        "visible_p50_us @ serve_ingest and router_mixed",
    ),
    layer(
        "serve.polls_per_insert",
        "count",
        Lower,
        "Stats polls until visible per insert (timing-dependent diagnostic)",
        "visible_p50_us @ serve_ingest and router_mixed",
    ),
    layer(
        "router.request_us",
        "us",
        Lower,
        "router_request self time of hit reads, median",
        "p50_us @ router_mixed",
    ),
    layer(
        "router.breaker_gate_us",
        "us",
        Lower,
        "breaker_gate span of hit reads, median",
        "p50_us @ router_mixed",
    ),
    layer(
        "router.fanout_us",
        "us",
        Lower,
        "shard_fanout self time of hit reads (gate and worker time excluded), median",
        "p50_us @ router_mixed",
    ),
    layer(
        "router.worker_rpcs_per_read",
        "count",
        Lower,
        "worker requests per hit read, first 8 traced cycles (exact; the K-way Stats sweep)",
        "p50_us @ router_mixed",
    ),
    layer(
        "router.compose_ms",
        "ms",
        Lower,
        "boundary_compose span of the rebuilding reads, median",
        "tail_us and ops_per_s @ router_mixed",
    ),
    layer(
        "router.rpcs_per_rebuild",
        "count",
        Lower,
        "worker requests of the rebuilding read, first 8 traced cycles (exact; the \
         per-endpoint resolve)",
        "tail_us and ops_per_s @ router_mixed",
    ),
    layer(
        "router.rebuilds_per_insert",
        "count",
        Lower,
        "composite rebuilds per insert, first 8 traced cycles (exact, 1.0)",
        "tail_us and ops_per_s @ router_mixed",
    ),
    layer(
        "router.boundary_edges",
        "count",
        Lower,
        "Metrics afforest_boundary_edges gauge of the router (exact per seed)",
        "tail_us @ router_mixed",
    ),
    layer(
        "obs.trace_overhead_pct",
        "%",
        Lower,
        "traced half's p50_us over the untraced half's, minus 1, in percent",
        "nothing: the cost of tracing itself, per workload",
    ),
];

/// The catalogue as text, for `perfbench --list`: each workload with
/// why it was chosen, each end-to-end metric with its bound and meaning
/// per workload, each per-layer metric with its source and what it
/// should move.
pub fn catalogue() -> String {
    let mut out = String::from("workloads:\n");
    for (name, why) in WORKLOADS {
        let _ = writeln!(out, "  {name}: {why}");
    }
    out.push_str("\nend-to-end (untraced run, --trace 0):\n");
    for m in &END_TO_END {
        let _ = writeln!(
            out,
            "  {} [{}, {} is better, bound {}]",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound
        );
        for ((workload, _), meaning) in WORKLOADS.iter().zip(m.meaning) {
            let _ = writeln!(out, "    @ {workload}: {meaning}");
        }
    }
    out.push_str("\nper-layer (traced run, --trace 1):\n");
    for m in &PER_LAYER {
        let _ = writeln!(
            out,
            "  {} [{}, {} is better]",
            m.name,
            m.unit,
            m.better.as_str()
        );
        let _ = writeln!(out, "    from: {}", m.source);
        let _ = writeln!(out, "    moves: {}", m.moves);
    }
    out
}

/// `BENCHMARK.json` as this catalogue renders it (`perfbench --manifest`).
pub fn manifest() -> String {
    let mut out = String::from(
        "{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \
         \"--offline\", \"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n  \
         \"paths\": [\"perfbench\"],\n  \"run_seconds\": 20,\n  \"workloads\": [\n",
    );
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(out, "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{sep}");
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}",
            m.name,
            m.unit,
            m.better.as_str()
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// The unit of metric `name` (end-to-end or per-layer).
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, u)| u)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_is_this_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(text, manifest(), "BENCHMARK.json drifted from src/spec.rs");
    }

    #[test]
    fn names_are_unique_and_setup_has_the_largest_bound() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound <= setup.bound && m.bound <= 0.25));
        assert!(WORKLOADS.iter().all(|(_, why)| why.len() <= 200));
        assert_eq!(unit_of("rss_mb"), Some("MB"));
        assert_eq!(unit_of("router.compose_ms"), Some("ms"));
        assert_eq!(unit_of("nope"), None);
    }
}
