//! Workspace automation, runnable as `cargo xtask <command>` (aliased in
//! `.cargo/config.toml`).
//!
//! - `cargo xtask lint [--json <path>] [--list-passes]` — a thin driver
//!   over the `afforest-analysis` battery (see DESIGN.md §13): the exact
//!   lexer, the eight passes, and the structured diagnostics all live in
//!   `crates/analysis`; this binary only loads the workspace, runs the
//!   battery, prints findings, and optionally writes the JSON report.
//! - `cargo xtask ci` — the full gate: the analysis battery (JSON report
//!   to `target/analysis.json`), fmt, clippy (`-D warnings`), the
//!   workspace test suite at `RAYON_NUM_THREADS` 1, 2 and 4, the test
//!   suite with the observability feature (`obs`), the benchmark
//!   harness's unit tests (`perfbench/`, its own workspace), the
//!   loopback serving smoke test ([`smoke`], also with obs off and on),
//!   the crash-recovery smoke test ([`crash`], clean and with chaos
//!   faults injected), the telemetry scrape smoke ([`metrics`]), the
//!   sharded serving smoke ([`shard_smoke`]: router + workers + a worker
//!   SIGKILL), the request-tracing smoke ([`tracesmoke`]: one traced
//!   insert stitched into a cross-process span tree), the cluster chaos soak ([`chaos_soak`]: a scripted
//!   kill/hang/slow/partition fault matrix against a 3-shard cluster,
//!   asserting parked-write replay, degraded reads and oracle-exact
//!   convergence), and the schedule-exploring model checker (`ci.sh` is
//!   a thin wrapper around this).

#![forbid(unsafe_code)]

mod chaos_soak;
mod crash;
mod metrics;
mod shard_smoke;
mod smoke;
mod tracesmoke;

use afforest_analysis::diag::{to_json, Severity};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

fn workspace_root() -> PathBuf {
    // xtask lives at <root>/crates/xtask.
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Runs the battery; prints findings; writes the JSON report when asked.
/// Exit status fails on any `Error`-severity diagnostic.
fn run_lint(json_out: Option<&Path>) -> ExitCode {
    let root = workspace_root();
    let report = afforest_analysis::run_workspace(&root);
    for d in &report.diagnostics {
        match d.severity {
            Severity::Error => eprintln!("{d}"),
            Severity::Warning => println!("{d}"),
        }
    }
    if let Some(path) = json_out {
        let path = if path.is_absolute() {
            path.to_path_buf()
        } else {
            root.join(path)
        };
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        if let Err(e) = std::fs::write(&path, to_json(&report)) {
            eprintln!("xtask lint: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("xtask lint: report written to {}", path.display());
    }
    let errors = report
        .diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count();
    if errors == 0 {
        println!(
            "xtask lint: {} files clean across {} passes ({})",
            report.files_scanned,
            report.passes.len(),
            report.passes.join(", ")
        );
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "xtask lint: {errors} error(s) in {} scanned files",
            report.files_scanned
        );
        ExitCode::FAILURE
    }
}

fn list_passes() -> ExitCode {
    for (id, description) in afforest_analysis::list_passes() {
        println!("{id:<20} {description}");
    }
    ExitCode::SUCCESS
}

/// One CI step: name, environment, program, arguments.
type Step = (
    &'static str,
    &'static [(&'static str, &'static str)],
    &'static str,
    &'static [&'static str],
);

/// Runs one CI step with `env` set, echoing the command line.
fn step(root: &Path, name: &str, env: &[(&str, &str)], program: &str, args: &[&str]) -> bool {
    let shown: Vec<String> = env.iter().map(|(k, v)| format!("{k}={v} ")).collect();
    println!("==> {name}: {}{program} {}", shown.concat(), args.join(" "));
    let status = Command::new(program)
        .args(args)
        .envs(env.iter().copied())
        .current_dir(root)
        .status();
    match status {
        Ok(s) if s.success() => true,
        Ok(s) => {
            eprintln!("==> {name} failed ({s})");
            false
        }
        Err(e) => {
            eprintln!("==> {name} could not start: {e}");
            false
        }
    }
}

fn run_ci() -> ExitCode {
    let root = workspace_root();
    let steps: &[Step] = &[
        ("format", &[], "cargo", &["fmt", "--all", "--", "--check"]),
        (
            "clippy",
            &[],
            "cargo",
            &[
                "clippy",
                "--workspace",
                "--all-targets",
                "--",
                "-D",
                "warnings",
            ],
        ),
        // The workspace suite under three schedules. The rayon shim reads
        // the thread count once per process, so each count is its own
        // run, and a result that depends on the schedule gets three
        // chances to show.
        (
            "tests (1 thread)",
            &[("RAYON_NUM_THREADS", "1")],
            "cargo",
            &["test", "--workspace", "-q"],
        ),
        (
            "tests (2 threads)",
            &[("RAYON_NUM_THREADS", "2")],
            "cargo",
            &["test", "--workspace", "-q"],
        ),
        (
            "tests (4 threads)",
            &[("RAYON_NUM_THREADS", "4")],
            "cargo",
            &["test", "--workspace", "-q"],
        ),
        // Another test pass with the observability runtime compiled in:
        // the obs-gated tests (trace coverage, span emission) only exist
        // there, and it proves the instrumented build stays green.
        (
            "tests (obs)",
            &[],
            "cargo",
            &[
                "test",
                "-q",
                "-p",
                "afforest-obs",
                "-p",
                "afforest-core",
                "-p",
                "afforest-baselines",
                "-p",
                "afforest-bench",
                "-p",
                "afforest-cli",
                "-p",
                "afforest-serve",
                "--features",
                "afforest-obs/enabled,afforest-core/obs,afforest-baselines/obs,\
                 afforest-bench/obs,afforest-cli/obs,afforest-serve/obs",
            ],
        ),
        // The benchmark harness is a workspace of its own, so the passes
        // above never build it; it path-depends on six crates, and an API
        // change under crates/ that breaks it shows here, not first in a
        // benchmark run. Its unit tests include the check that the
        // metric catalogue equals BENCHMARK.json.
        (
            "perfbench tests",
            &[],
            "cargo",
            &[
                "test",
                "--offline",
                "-q",
                "--manifest-path",
                "perfbench/Cargo.toml",
            ],
        ),
        (
            "model check",
            &[],
            "cargo",
            &["run", "-q", "-p", "afforest-modelcheck"],
        ),
    ];

    // The analysis battery first: it is the cheapest step and the most
    // likely to catch a concurrency- or protocol-relevant edit. CI always
    // writes the machine-readable report for downstream tooling.
    println!("==> analysis battery");
    if run_lint(Some(Path::new("target/analysis.json"))) != ExitCode::SUCCESS {
        return ExitCode::FAILURE;
    }
    for &(name, env, program, args) in steps {
        if !step(&root, name, env, program, args) {
            return ExitCode::FAILURE;
        }
    }
    // End-to-end serving smoke over loopback TCP, in both builds of the
    // serving path (obs compiled out and in).
    for obs in [false, true] {
        println!("==> serve smoke{}", if obs { " (obs)" } else { "" });
        if !smoke::run_smoke(&root, obs) {
            return ExitCode::FAILURE;
        }
    }
    // WAL crash-recovery smoke: kill -9 mid-serve, recover, compare with
    // an uninterrupted run — once clean, once under injected chaos.
    for faults in [false, true] {
        println!(
            "==> crash recovery smoke{}",
            if faults { " (faults)" } else { "" }
        );
        if !crash::run_crash(&root, faults) {
            return ExitCode::FAILURE;
        }
    }
    // Telemetry smoke: serve with the scrape sidecar, drive load, scrape
    // twice over HTTP, require monotonic counters and a flight dump.
    println!("==> metrics smoke");
    if !metrics::run_metrics(&root) {
        return ExitCode::FAILURE;
    }
    // Sharded serving smoke: router + 2 shard workers over the wire,
    // SIGKILL one worker, restart from its WAL namespace, compare with a
    // single-engine oracle and require per-shard labelled metrics.
    println!("==> sharded serving smoke");
    if !shard_smoke::run_shard(&root) {
        return ExitCode::FAILURE;
    }
    // Request-tracing smoke: one traced insert stitched into a single
    // cross-process span tree (router + 2 workers), exemplar in the
    // scrape, slow-log on disk.
    println!("==> tracing smoke");
    if !tracesmoke::run_tracesmoke(&root) {
        return ExitCode::FAILURE;
    }
    // Cluster chaos soak: the failure-domain layer under a scripted
    // fault matrix — breaker, parked writes, degraded reads, recovery.
    println!("==> cluster chaos soak");
    if !chaos_soak::run_chaos(&root) {
        return ExitCode::FAILURE;
    }
    println!("==> ci passed");
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => {
            let rest = &args[1..];
            if rest.iter().any(|a| a == "--list-passes") {
                return list_passes();
            }
            let mut json_out = None;
            let mut it = rest.iter();
            while let Some(a) = it.next() {
                if a == "--json" {
                    match it.next() {
                        Some(path) => json_out = Some(PathBuf::from(path)),
                        None => {
                            eprintln!("usage: cargo xtask lint [--json <path>] [--list-passes]");
                            return ExitCode::FAILURE;
                        }
                    }
                } else {
                    eprintln!("xtask lint: unknown flag {a}");
                    eprintln!("usage: cargo xtask lint [--json <path>] [--list-passes]");
                    return ExitCode::FAILURE;
                }
            }
            run_lint(json_out.as_deref())
        }
        Some("ci") => run_ci(),
        Some("crash") => {
            // The crash-recovery smoke alone (also part of `ci`).
            let root = workspace_root();
            for faults in [false, true] {
                println!(
                    "==> crash recovery smoke{}",
                    if faults { " (faults)" } else { "" }
                );
                if !crash::run_crash(&root, faults) {
                    return ExitCode::FAILURE;
                }
            }
            ExitCode::SUCCESS
        }
        Some("metrics") => {
            // The telemetry smoke alone (also part of `ci`).
            println!("==> metrics smoke");
            if metrics::run_metrics(&workspace_root()) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Some("chaos") => {
            // The cluster chaos soak alone (also part of `ci`).
            println!("==> cluster chaos soak");
            if chaos_soak::run_chaos(&workspace_root()) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Some("shard") => {
            // The sharded serving smoke alone (also part of `ci`).
            println!("==> sharded serving smoke");
            if shard_smoke::run_shard(&workspace_root()) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Some("tracesmoke") => {
            // The request-tracing smoke alone (also part of `ci`).
            println!("==> tracing smoke");
            if tracesmoke::run_tracesmoke(&workspace_root()) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        _ => {
            eprintln!("usage: cargo xtask <lint|ci|crash|metrics|shard|tracesmoke|chaos>");
            eprintln!("  lint     the static analysis battery (crates/analysis, DESIGN.md section 13); --json <path> writes the report, --list-passes enumerates passes");
            eprintln!("  ci       analysis battery + fmt --check + clippy -D warnings + tests (with and without obs) + perfbench unit tests + model checker + serve/crash/metrics/shard smokes + chaos soak");
            eprintln!("  crash    the WAL crash-recovery smoke alone");
            eprintln!("  metrics  the telemetry scrape smoke alone");
            eprintln!("  shard    the sharded serving smoke alone (router + workers + SIGKILL)");
            eprintln!("  tracesmoke  the request-tracing smoke alone (cross-process span tree + exemplar + slow-log)");
            eprintln!("  chaos    the cluster chaos soak alone (scripted fault matrix, parked-write replay)");
            ExitCode::FAILURE
        }
    }
}
