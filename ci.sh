#!/bin/sh
# One-command verification gate. Thin wrapper so CI systems and humans run
# the exact same battery; the actual sequencing lives in `cargo xtask ci`:
#
#   1. static analysis battery (crates/analysis, 9 passes: SAFETY coverage,
#      ordering allowlist, SeqCst ban, metric fixture, lock order, panic
#      paths, audit drift, opcode consistency, stage doc) — JSON report
#      written to target/analysis.json
#   2. cargo fmt --check
#   3. cargo clippy --workspace --all-targets -- -D warnings
#   4. cargo test --workspace  at RAYON_NUM_THREADS=1, 2 and 4 (one run
#      each: the rayon shim reads the count once per process), then once
#      more with the obs feature on
#   5. cargo test --offline -q --manifest-path perfbench/Cargo.toml: the
#      benchmark harness, a workspace of its own that path-depends on six
#      crates (its tests check the metric catalogue equals BENCHMARK.json)
#   6. the schedule-exploring model checker (crates/modelcheck)
#   7. loopback serving smoke: afforest serve on an ephemeral port +
#      afforest loadgen mixed workload, zero errors, graceful shutdown
#      (obs feature off and on)
set -eu
cd "$(dirname "$0")"
exec cargo xtask ci
