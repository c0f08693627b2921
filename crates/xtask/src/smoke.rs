//! Loopback serving smoke test for `cargo xtask ci`.
//!
//! Exercises the full binary surface end to end, the way a deployment
//! would: generate a graph with the CLI, start `afforest serve` on an
//! ephemeral loopback port with the metrics sidecar, require the fresh
//! server's component count, and a fresh `serve --shards 2` router's, to
//! equal `afforest cc`'s, drive a small mixed
//! read/write workload with `afforest loadgen`, assert zero protocol
//! errors, create two tenants over the wire and require their labelled
//! series in `GET /metrics`, then stop the server with a real `Shutdown`
//! frame and require a clean exit. Run twice by CI — with the obs feature
//! off and on — so both builds of the serving path stay green.

use afforest_serve::http::http_get;
use afforest_serve::{Client, TenantId};
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Runs the smoke test; returns success. `obs` selects the instrumented
/// build of the CLI.
pub fn run_smoke(root: &Path, obs: bool) -> bool {
    match smoke(root, obs) {
        Ok(()) => true,
        Err(e) => {
            eprintln!("==> serve smoke{} failed: {e}", obs_tag(obs));
            false
        }
    }
}

fn obs_tag(obs: bool) -> &'static str {
    if obs {
        " (obs)"
    } else {
        ""
    }
}

pub(crate) fn cli_cmd(root: &Path, obs: bool) -> Command {
    let mut cmd = Command::new("cargo");
    cmd.current_dir(root)
        .args(["run", "-q", "-p", "afforest-cli", "--bin", "afforest"]);
    if obs {
        cmd.args(["--features", "obs"]);
    }
    cmd.arg("--");
    cmd
}

/// Kills the server child on every exit path.
pub(crate) struct Reaper(pub(crate) Child);

impl Drop for Reaper {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Connects a typed client with a generous read timeout.
pub(crate) fn connect(addr: &str) -> Result<Client, String> {
    Client::connect(addr)
        .and_then(|c| c.with_read_timeout(Some(Duration::from_secs(10))))
        .map_err(|e| format!("connect {addr}: {e}"))
}

/// Asks the server to stop and waits for a clean process exit.
pub(crate) fn shutdown_and_reap(addr: &str, server: &mut Reaper) -> Result<(), String> {
    connect(addr)?
        .shutdown()
        .map_err(|e| format!("shutdown: {e}"))?;
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match server.0.try_wait().map_err(|e| e.to_string())? {
            Some(status) if status.success() => return Ok(()),
            Some(status) => return Err(format!("serve exited with {status}")),
            None if Instant::now() > deadline => {
                return Err("serve did not exit within 30 s of Shutdown".into())
            }
            None => std::thread::sleep(Duration::from_millis(50)),
        }
    }
}

fn smoke(root: &Path, obs: bool) -> Result<(), String> {
    let graph = std::env::temp_dir().join(format!(
        "afforest-smoke-{}-{}.el",
        std::process::id(),
        obs as u8
    ));
    let graph = graph.to_string_lossy().into_owned();

    // 1. Generate a small graph, sparse enough to hold hundreds of
    // components, so its count tells a right seed forest from a wrong one.
    let status = cli_cmd(root, obs)
        .args([
            "generate",
            "urand",
            "--out",
            &graph,
            "--n",
            "2000",
            "--edge-factor",
            "1",
            "--seed",
            "1",
        ])
        .status()
        .map_err(|e| format!("spawn generate: {e}"))?;
    if !status.success() {
        return Err(format!("generate failed ({status})"));
    }

    // 2. Start the server (wire + metrics sidecar, both ephemeral); parse
    // the announced addresses from its stdout.
    let mut server = Served::start(
        root,
        obs,
        &[&graph, "--workers", "4", "--metrics-addr", "127.0.0.1:0"],
    )?;
    let addr = server.addr.clone();
    let scrape_addr = server
        .metrics
        .clone()
        .ok_or("serve announced no metrics address")?;

    // 3. Before any write, the server answers from its epoch-0 forest:
    // its component count must be the offline solve's. So must a
    // two-shard router's over the same graph, whose shards start from
    // the graph's per-shard slices and whose boundary store starts from
    // its cut edges.
    let expected = cc_components(root, obs, &graph)?;
    let served = connect(&addr)?
        .num_components()
        .map_err(|e| format!("NumComponents: {e}"))?;
    if served != expected {
        return Err(format!(
            "fresh server counts {served} components, afforest cc counts {expected}"
        ));
    }
    let mut router = Served::start(root, obs, &[&graph, "--shards", "2"])?;
    let routed = connect(&router.addr)?
        .num_components()
        .map_err(|e| format!("NumComponents (--shards 2): {e}"))?;
    if routed != expected {
        return Err(format!(
            "fresh 2-shard router counts {routed} components, afforest cc counts {expected}"
        ));
    }
    shutdown_and_reap(&router.addr, &mut router.process)?;

    // 4. Drive a small mixed workload; the loadgen subcommand exits
    // non-zero on any protocol error.
    let out = cli_cmd(root, obs)
        .args([
            "loadgen",
            &addr,
            "--connections",
            "3",
            "--requests",
            "2000",
            "--read-pct",
            "90",
            "--insert-batch",
            "16",
            "--seed",
            "7",
        ])
        .output()
        .map_err(|e| format!("spawn loadgen: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "loadgen failed ({}):\n{text}\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    if !text.contains("errors:     0") {
        return Err(format!("loadgen reported errors:\n{text}"));
    }

    // 5. Multi-tenancy over the wire: create two tenants, route traffic
    // through each via v2 envelopes, and require their labelled series in
    // the scrape.
    let mut admin = connect(&addr)?;
    for name in ["smoke-a", "smoke-b"] {
        let tenant = TenantId::new(name).map_err(|e| format!("tenant {name}: {e}"))?;
        admin
            .create_tenant(&tenant, 512)
            .map_err(|e| format!("create tenant {name}: {e}"))?;
        let mut scoped = connect(&addr)?.with_tenant(tenant);
        scoped
            .insert_edges(&[(0, 1), (1, 2)])
            .map_err(|e| format!("insert into {name}: {e}"))?;
        scoped
            .connected(0, 1)
            .map_err(|e| format!("query {name}: {e}"))?;
    }
    let tenants = admin.list_tenants().map_err(|e| format!("list: {e}"))?;
    if tenants != ["default", "smoke-a", "smoke-b"] {
        return Err(format!("unexpected tenant list: {tenants:?}"));
    }
    let (status, scrape) = http_get(&scrape_addr, "/metrics")?;
    if status != 200 {
        return Err(format!("scrape answered HTTP {status}"));
    }
    for series in [
        "afforest_tenant_requests_total{tenant=\"smoke-a\"}",
        "afforest_tenant_requests_total{tenant=\"smoke-b\"}",
        "afforest_tenant_queue_depth{tenant=\"smoke-a\"}",
        "afforest_tenant_requests_shed_total{tenant=\"smoke-b\"}",
        "afforest_tenant_edges_ingested_total{tenant=\"smoke-a\"}",
    ] {
        if !scrape.contains(series) {
            return Err(format!("scrape is missing the labelled series {series}"));
        }
    }

    // 6. Graceful shutdown via a real protocol frame; the server process
    // must exit cleanly on its own.
    shutdown_and_reap(&addr, &mut server.process)?;

    let _ = std::fs::remove_file(&graph);
    println!(
        "==> serve smoke{}: {addr} and a 2-shard router started at afforest cc's {expected} components, served 2000 mixed requests + 2 tenants, zero errors, clean shutdown",
        obs_tag(obs)
    );
    Ok(())
}

/// A running `afforest serve` and the addresses it announced.
struct Served {
    process: Reaper,
    /// Held open for the server's later prints.
    _stdout: BufReader<ChildStdout>,
    addr: String,
    metrics: Option<String>,
}

impl Served {
    /// Starts `afforest serve` with `args` on an ephemeral loopback port
    /// and reads its wire address, and metrics address if it has one,
    /// from its stdout.
    fn start(root: &Path, obs: bool, args: &[&str]) -> Result<Served, String> {
        let mut process = Reaper(
            cli_cmd(root, obs)
                .arg("serve")
                .args(args)
                .args(["--addr", "127.0.0.1:0"])
                .stdout(Stdio::piped())
                .spawn()
                .map_err(|e| format!("spawn serve: {e}"))?,
        );
        let stdout = process.0.stdout.take().ok_or("serve stdout not captured")?;
        let mut stdout = BufReader::new(stdout);
        let mut metrics = None;
        let mut line = String::new();
        loop {
            line.clear();
            let read = stdout
                .read_line(&mut line)
                .map_err(|e| format!("read serve stdout: {e}"))?;
            if read == 0 {
                return Err("serve exited before announcing its address".into());
            }
            if let Some(rest) = line.trim_end().strip_prefix("listening on ") {
                let addr = rest.split_whitespace().next().unwrap_or_default().into();
                return Ok(Served {
                    process,
                    _stdout: stdout,
                    addr,
                    metrics,
                });
            }
            if let Some(rest) = line.trim_end().strip_prefix("metrics on http://") {
                metrics = rest.strip_suffix("/metrics").map(str::to_string);
            }
        }
    }
}

/// The component count `afforest cc` prints for `graph`.
fn cc_components(root: &Path, obs: bool, graph: &str) -> Result<u64, String> {
    let out = cli_cmd(root, obs)
        .args(["cc", graph])
        .output()
        .map_err(|e| format!("spawn cc: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("cc failed ({}):\n{text}", out.status));
    }
    text.lines()
        .find_map(|line| line.strip_prefix("components:"))
        .and_then(|count| count.trim().parse().ok())
        .ok_or_else(|| format!("cc printed no component count:\n{text}"))
}
