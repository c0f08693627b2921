//! Telemetry smoke test for `cargo xtask ci`.
//!
//! Drives the live telemetry plane the way an operator's scrape stack
//! would: start `afforest serve` with `--metrics-addr` (and a flight
//! recording destination), push a mixed workload through `afforest
//! loadgen`, then scrape `GET /metrics` twice over plain HTTP. The
//! exposition must parse, the request counters must show the workload,
//! and every `*_total` counter must be monotonic between the two
//! scrapes. After a clean shutdown the flight recording must exist and
//! look like the dump schema.

use crate::smoke::{cli_cmd, shutdown_and_reap, Reaper};
use afforest_obs::registry::{parse_exposition, Scrape};
use afforest_serve::http::http_get;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::Stdio;

/// Runs the telemetry smoke; returns success.
pub fn run_metrics(root: &Path) -> bool {
    match metrics(root) {
        Ok(()) => true,
        Err(e) => {
            eprintln!("==> metrics smoke failed: {e}");
            false
        }
    }
}

/// One `GET /metrics` against `addr`, parsed.
fn scrape(addr: &str) -> Result<Scrape, String> {
    let (status, body) = http_get(addr, "/metrics")?;
    if status != 200 {
        return Err(format!("scrape answered HTTP {status}"));
    }
    parse_exposition(&body)
}

fn sample(scrape: &Scrape, name: &str) -> Result<u64, String> {
    scrape
        .value(name)
        .ok_or_else(|| format!("metric {name} missing from exposition"))
}

fn metrics(root: &Path) -> Result<(), String> {
    let tmp = std::env::temp_dir();
    let pid = std::process::id();
    let graph = tmp.join(format!("afforest-metrics-{pid}.el"));
    let flight = tmp.join(format!("afforest-metrics-flight-{pid}.json"));
    let graph_s = graph.to_string_lossy().into_owned();
    let flight_s = flight.to_string_lossy().into_owned();
    let _ = std::fs::remove_file(&flight);

    // 1. A small graph to serve.
    let status = cli_cmd(root, false)
        .args([
            "generate",
            "urand",
            "--out",
            &graph_s,
            "--n",
            "2000",
            "--edge-factor",
            "4",
            "--seed",
            "9",
        ])
        .status()
        .map_err(|e| format!("spawn generate: {e}"))?;
    if !status.success() {
        return Err(format!("generate failed ({status})"));
    }

    // 2. Serve with the metrics sidecar and a flight recording, both on
    // ephemeral ports; parse both announced addresses.
    let mut server = Reaper(
        cli_cmd(root, false)
            .args([
                "serve",
                &graph_s,
                "--addr",
                "127.0.0.1:0",
                "--workers",
                "4",
                "--metrics-addr",
                "127.0.0.1:0",
                "--events-out",
                &flight_s,
            ])
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn serve: {e}"))?,
    );
    let stdout = server.0.stdout.take().ok_or("serve stdout not captured")?;
    let mut lines = BufReader::new(stdout).lines();
    let mut wire_addr = None;
    let mut scrape_addr = None;
    while wire_addr.is_none() || scrape_addr.is_none() {
        let line = lines
            .next()
            .ok_or("serve exited before announcing its addresses")?
            .map_err(|e| format!("read serve stdout: {e}"))?;
        if let Some(rest) = line.strip_prefix("listening on ") {
            wire_addr = rest.split_whitespace().next().map(str::to_string);
        } else if let Some(rest) = line.strip_prefix("metrics on http://") {
            scrape_addr = rest.strip_suffix("/metrics").map(str::to_string);
        }
    }
    let (wire_addr, scrape_addr) = (wire_addr.unwrap(), scrape_addr.unwrap());

    // 3. A mixed workload so every hot-path metric moves.
    let out = cli_cmd(root, false)
        .args([
            "loadgen",
            &wire_addr,
            "--connections",
            "3",
            "--requests",
            "2000",
            "--read-pct",
            "80",
            "--insert-batch",
            "16",
            "--seed",
            "11",
        ])
        .output()
        .map_err(|e| format!("spawn loadgen: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "loadgen failed ({}):\n{}\n{}",
            out.status,
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        ));
    }

    // 4. Scrape twice. The workload is already drained, so the second
    // scrape must show every counter at-or-above the first (monotonic).
    let first = scrape(&scrape_addr)?;
    let second = scrape(&scrape_addr)?;
    let connected = sample(&first, "afforest_requests_connected_total")?;
    let ingested = sample(&first, "afforest_edges_ingested_total")?;
    // The series `afforest top` shows as the epoch.
    let epoch = sample(&first, "afforest_tenant_epoch{tenant=\"default\"}")?;
    if connected == 0 || ingested == 0 || epoch == 0 {
        return Err(format!(
            "workload not visible in scrape: connected={connected}, ingested={ingested}, \
             epoch={epoch}"
        ));
    }
    if sample(&first, "afforest_request_latency_connected_ns_count")? == 0 {
        return Err("latency histogram recorded no samples".to_string());
    }
    for (name, v1) in &first.values {
        if !name.ends_with("_total") {
            continue;
        }
        let v2 = sample(&second, name)?;
        if v2 < *v1 {
            return Err(format!("counter {name} went backwards: {v1} -> {v2}"));
        }
    }

    // 5. Clean shutdown; the flight recording must appear and parse as a
    // dump document.
    shutdown_and_reap(&wire_addr, &mut server)?;
    let dump = std::fs::read_to_string(&flight).map_err(|e| format!("{flight_s}: {e}"))?;
    if !dump.contains("\"schema\": 1") || !dump.contains("\"events\"") {
        return Err(format!(
            "flight recording does not look like a dump:\n{dump}"
        ));
    }

    let _ = std::fs::remove_file(&graph);
    let _ = std::fs::remove_file(&flight);
    println!(
        "==> metrics smoke: {} samples scraped from {scrape_addr}, counters monotonic, flight dump written",
        first.values.len()
    );
    Ok(())
}
