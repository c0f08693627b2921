//! Phase coverage of an Afforest trace, in a test binary of its own.
//!
//! The span recorder is process-global, so any other test running
//! `afforest()` at the same time would add its spans to this session and
//! could push the phase total past the session's length. Alone in its
//! process, the session sees exactly one solve.

#![cfg(feature = "obs")]

use afforest_core::{afforest_with_stats, AfforestConfig};
use afforest_graph::generators::uniform_random;

/// With the `obs` feature on, one run must produce spans for every
/// phase the paper names: each neighbor round, each compress sweep,
/// the sampling step, and the skip (final-link) pass. Its work counters
/// must equal the run's own `RunStats`.
#[test]
fn trace_covers_every_phase() {
    let g = uniform_random(2_000, 10_000, 5);
    let cfg = AfforestConfig::builder()
        .neighbor_rounds(3)
        .build()
        .unwrap();
    let session = afforest_obs::Session::begin();
    let (labels, stats) = afforest_with_stats(&g, &cfg);
    let trace = session.end();
    assert!(labels.verify_against(&g));

    for name in [
        "init",
        "link[0]",
        "link[1]",
        "link[2]",
        "compress[0]",
        "compress[1]",
        "compress[2]",
        "find-largest",
        "final-link",
        "final-compress",
    ] {
        assert!(
            trace.spans.iter().any(|s| s.name == name),
            "missing span {name:?} in {:?}",
            trace.spans.iter().map(|s| &s.name).collect::<Vec<_>>()
        );
    }
    // Work counters flowed into the trace from the hot paths, exactly:
    // one link call per processed arc; one successful link per merge
    // (Theorem 1); and every arc not processed was skipped, as one of a
    // giant vertex's remaining neighbors.
    let count = |name: &str| trace.counter(name) as usize;
    assert!(stats.vertices_skipped > 0);
    assert_eq!(count("link_calls"), stats.edges_processed);
    assert_eq!(
        count("edges_linked"),
        g.num_vertices() - labels.num_components()
    );
    assert_eq!(count("vertices_skipped"), stats.vertices_skipped);
    assert_eq!(count("edges_skipped"), g.num_arcs() - stats.edges_processed);
    // Phase spans account for (nearly) the whole session.
    assert!(trace.depth_total_ns(0) <= trace.total_ns);
    assert!(trace.depth_total_ns(0) > trace.total_ns / 2);
}
