//! Phase coverage of an Afforest trace, in a test binary of its own.
//!
//! The span recorder is process-global, so any other test running
//! `afforest()` at the same time would add its spans to this session and
//! could push the phase total past the session's length. Alone in its
//! process, the session sees exactly one solve.

#![cfg(feature = "obs")]

use afforest_core::{afforest, AfforestConfig};
use afforest_graph::generators::uniform_random;

/// With the `obs` feature on, one run must produce spans for every
/// phase the paper names: each neighbor round, each compress sweep,
/// the sampling step, and the skip (final-link) pass.
#[test]
fn trace_covers_every_phase() {
    let g = uniform_random(2_000, 10_000, 5);
    let cfg = AfforestConfig::builder()
        .neighbor_rounds(3)
        .build()
        .unwrap();
    let session = afforest_obs::Session::begin();
    let labels = afforest(&g, &cfg);
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
    // Work counters flowed into the trace from the hot paths.
    assert!(trace.counter("link_calls") > 0);
    assert!(trace.counter("edges_linked") > 0);
    assert!(trace.counter("vertices_skipped") > 0);
    // Phase spans account for (nearly) the whole session.
    assert!(trace.depth_total_ns(0) <= trace.total_ns);
    assert!(trace.depth_total_ns(0) > trace.total_ns / 2);
}
