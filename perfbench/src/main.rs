//! `perfbench` — the repository's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cc_kron|serve_ingest|router_mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! Generates the workload's inputs from `--seed`, sets the program up,
//! warms it, measures closed-loop operations for `--seconds`, checks every
//! answer against an oracle, prints each metric by name with its unit,
//! then a diagnostics line, and last one JSON result line. `--trace 0`
//! reports the end-to-end metrics of `src/spec.rs`; `--trace 1` spends
//! half the time untraced and half traced and reports the per-layer
//! metrics. Exits 1 (after printing) when any answer mismatched its
//! oracle, 2 without a result when the run could not be made.
//!
//! `perfbench --list` prints the metric catalogue: why each workload was
//! chosen, what each metric means on each workload, and which
//! end-to-end metric each per-layer metric should move. `perfbench
//! --manifest` prints `BENCHMARK.json`, which a unit test keeps equal
//! to the catalogue.
//!
//! Servers under test are this executable re-entered as
//! `perfbench afforest serve …`, which runs the `afforest` command line
//! (`afforest_cli::dispatch`) exactly as the `afforest` binary does.

mod cc_kron;
mod oracle;
mod probe;
mod router_mixed;
mod serve_ingest;
mod spans;
mod spec;
mod stats;
mod sys;

use std::fmt::Write as _;
use std::time::Duration;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

/// What one workload run measured.
#[derive(Default)]
pub struct Report {
    /// Operations attempted, verification reads included.
    pub attempted: u64,
    /// Operations that failed: Err, Overloaded, Degraded, timeout or
    /// mismatch.
    pub failed: u64,
    /// Answers that disagreed with the oracle (also counted in `failed`).
    pub mismatches: u64,
    /// Metric name → value, in the units of `spec`.
    pub metrics: Vec<(&'static str, f64)>,
    /// `"key": value` JSON members for the diagnostics line.
    pub diag: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64) {
        debug_assert!(spec::unit_of(name).is_some(), "{name} is not in spec");
        self.metrics.push((name, value));
    }

    /// Counts one operation; `ok` false counts it failed.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Counts one oracle comparison.
    pub fn check(&mut self, agrees: bool) {
        self.op(agrees);
        if !agrees {
            self.mismatches += 1;
        }
    }

    pub fn success_pct(&self) -> f64 {
        100.0 * (self.attempted - self.failed) as f64 / self.attempted.max(1) as f64
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => workload = Some(value.to_string()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("--seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("--seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {value}: want (0, 600]"));
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: want 0 or 1")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !spec::WORKLOADS.iter().any(|(w, _)| *w == workload) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(Duration::from_secs(10)),
        trace: trace.unwrap_or(false),
    })
}

/// The metric set the contract requires for this mode, in catalogue
/// order: every end-to-end metric untraced (a missing one is an error),
/// every per-layer metric traced (0 for a layer the workload never
/// enters).
fn complete(
    args: &Args,
    report: &Report,
) -> Result<Vec<(&'static str, &'static str, f64)>, String> {
    let lookup = |name: &str| report.metrics.iter().find(|(n, _)| *n == name).map(|m| m.1);
    let mut out = Vec::new();
    if args.trace {
        for m in &spec::PER_LAYER {
            out.push((m.name, m.unit, lookup(m.name).unwrap_or(0.0)));
        }
    } else {
        for m in &spec::END_TO_END {
            let v = lookup(m.name)
                .ok_or_else(|| format!("{} did not report {}", args.workload, m.name))?;
            out.push((m.name, m.unit, v));
        }
    }
    if let Some((name, v)) = out
        .iter()
        .map(|(n, _, v)| (n, v))
        .find(|(_, v)| !v.is_finite())
    {
        return Err(format!("{name} is not finite ({v})"));
    }
    Ok(out)
}

fn result_line(report: &Report, metrics: &[(&str, &str, f64)]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.mismatches == 0 && report.attempted > 0,
        report.attempted,
        report.failed
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // `{:?}` prints the shortest text that parses back to the same
        // f64: every digit, and always a decimal point or exponent.
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("afforest") {
        // A server under test: the `afforest` command line, verbatim. It
        // exits when its stdin closes, so a harness that is killed
        // (rather than one that returns and kills it) leaves no server
        // behind.
        std::thread::spawn(|| {
            let _ = std::io::copy(&mut std::io::stdin(), &mut std::io::sink());
            std::process::exit(0);
        });
        match afforest_cli::dispatch(&argv[1..]) {
            Ok(out) => print!("{out}"),
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        }
        return;
    }
    match argv.first().map(String::as_str) {
        Some("--list") => return print!("{}", spec::catalogue()),
        Some("--manifest") => return print!("{}", spec::manifest()),
        _ => {}
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload cc_kron|serve_ingest|router_mixed --seed N \
                 [--seconds S] [--trace 0|1]\n       perfbench --list | --manifest"
            );
            std::process::exit(2);
        }
    };
    let run = match args.workload.as_str() {
        "cc_kron" => cc_kron::run(&args),
        "serve_ingest" => serve_ingest::run(&args),
        _ => router_mixed::run(&args),
    };
    let (report, metrics) = match run.and_then(|r| complete(&args, &r).map(|m| (r, m))) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("perfbench {}: {e}", args.workload);
            std::process::exit(2);
        }
    };
    for (name, unit, value) in &metrics {
        println!("{name:<30} {value:>16.4} {unit}");
    }
    println!(
        "# diagnostics {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"threads\": {}, {}}}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, usize::from),
        report.diag.join(", ")
    );
    println!("{}", result_line(&report, &metrics));
    if report.mismatches > 0 {
        eprintln!(
            "perfbench {}: {} answer(s) disagreed with the oracle",
            args.workload, report.mismatches
        );
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv("--workload cc_kron --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!((a.workload.as_str(), a.seed, a.trace), ("cc_kron", 7, true));
        assert_eq!(a.seconds, Duration::from_secs(10));
        assert!(parse_args(&argv("--workload nope --seed 1")).is_err());
        assert!(parse_args(&argv("--workload cc_kron")).is_err());
        assert!(parse_args(&argv("--workload cc_kron --seed 1 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload cc_kron --seed 1 --seconds 0")).is_err());
        assert!(parse_args(&argv("--workload cc_kron --seed")).is_err());
    }

    #[test]
    fn traced_runs_fill_unentered_layers_with_zero_and_untraced_runs_need_all() {
        let mut r = Report::default();
        r.metric("core.vertices_skipped", 5.0);
        r.check(true);
        let traced = Args {
            workload: "cc_kron".into(),
            seed: 1,
            seconds: Duration::from_secs(1),
            trace: true,
        };
        let m = complete(&traced, &r).unwrap();
        assert_eq!(m.len(), spec::PER_LAYER.len());
        assert!(m.contains(&("core.vertices_skipped", "count", 5.0)));
        assert!(m.contains(&("router.compose_ms", "ms", 0.0)));
        let untraced = Args {
            trace: false,
            ..traced
        };
        assert!(complete(&untraced, &r).unwrap_err().contains("setup_s"));
    }

    #[test]
    fn result_line_keeps_every_digit() {
        let mut r = Report::default();
        r.op(true);
        r.op(false);
        let line = result_line(
            &r,
            &[("p50_us", "us", 0.1 + 0.2), ("ops_per_s", "1/s", 3.0)],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 2, \"failed\": 1, \"metrics\": {\
             \"p50_us\": {\"value\": 0.30000000000000004, \"unit\": \"us\"}, \
             \"ops_per_s\": {\"value\": 3.0, \"unit\": \"1/s\"}}}"
        );
        assert_eq!(r.success_pct(), 50.0);
    }
}
