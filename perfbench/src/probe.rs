//! Wire probes shared by the two serving workloads: the busy visibility
//! poll, `Metrics` scrapes, and span-ring dumps.

use crate::spans::SpanLog;
use crate::sys::CALL_TIMEOUT;
use afforest_obs::registry::{parse_exposition, Scrape};
use afforest_serve::{Client, StatsReport};
use std::collections::HashSet;
use std::time::Instant;

/// Request counters of the data-plane ops a router sends a worker. The
/// harness's own `Metrics` and `DumpTraces` calls are deliberately not
/// in the list.
const RPC_COUNTERS: [&str; 6] = [
    "afforest_requests_connected_total",
    "afforest_requests_component_total",
    "afforest_requests_component_size_total",
    "afforest_requests_num_components_total",
    "afforest_requests_insert_edges_total",
    "afforest_requests_stats_total",
];

/// Polls `Stats` without sleeping until `edges_ingested` reaches
/// `target`. Sleeping would idle the vCPUs between polls and time the
/// wake-up instead of the server. Each poll is counted in `polls` and,
/// when `traced` is given, its trace id is kept there.
pub fn wait_ingested(
    client: &mut Client,
    target: u64,
    polls: &mut u64,
    mut traced: Option<&mut HashSet<u64>>,
) -> Result<StatsReport, String> {
    let start = Instant::now();
    loop {
        let s = client.stats().map_err(|e| format!("Stats poll: {e}"))?;
        *polls += 1;
        if let Some(ids) = traced.as_deref_mut() {
            ids.insert(client.last_trace_id());
        }
        if client.last_answer_degraded() {
            return Err("Stats poll answered degraded".into());
        }
        if s.edges_ingested >= target {
            return Ok(s);
        }
        if start.elapsed() > CALL_TIMEOUT {
            return Err(format!(
                "edges_ingested stuck at {} (want {target}) for {CALL_TIMEOUT:?}",
                s.edges_ingested
            ));
        }
    }
}

/// One `Metrics` scrape, parsed by the program's own exposition parser.
pub fn scrape(client: &mut Client) -> Result<Scrape, String> {
    let text = client.metrics().map_err(|e| format!("Metrics: {e}"))?;
    parse_exposition(&text)
}

/// A counter or gauge of a scrape (0 when the process never touched it).
pub fn value(scrape: &Scrape, name: &str) -> u64 {
    scrape.value(name).unwrap_or(0)
}

/// Data-plane requests a server has answered since it started.
pub fn rpcs(scrape: &Scrape) -> u64 {
    RPC_COUNTERS.iter().map(|name| value(scrape, name)).sum()
}

/// Dumps `client`'s server's span ring into `log` as process `proc`.
pub fn dump(client: &mut Client, proc: usize, log: &mut SpanLog) -> Result<(), String> {
    let (_, spans) = client
        .dump_traces()
        .map_err(|e| format!("DumpTraces: {e}"))?;
    log.absorb(proc, spans);
    Ok(())
}
