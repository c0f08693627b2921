//! Host plumbing: child servers that die with the harness, a scratch
//! directory inside the checkout, peak-RSS and steal-time readings, and
//! the seeded input stream.

use afforest_serve::{Client, RetryPolicy};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a child may take to announce its listening address.
const ANNOUNCE_TIMEOUT: Duration = Duration::from_secs(60);

/// Read timeout on every harness connection: a reply slower than this
/// counts as a failed operation.
pub const CALL_TIMEOUT: Duration = Duration::from_secs(10);

/// A running `afforest serve` child. Killed and reaped on drop, so every
/// exit path — error returns and panics included — stops it; if the
/// harness itself is killed, the child sees its stdin close and exits.
pub struct Server {
    child: Child,
    pub addr: String,
    stdout: Option<JoinHandle<()>>,
}

impl Server {
    /// Spawns this executable as `afforest <args>` in `dir`, and waits for
    /// the `listening on ADDR` announcement. Fails, instead of hanging, if
    /// the child exits or stays silent.
    pub fn spawn(dir: &Path, args: &[String]) -> Result<Server, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(exe)
            .arg("afforest")
            .args(args)
            .current_dir(dir)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn serve: {e}"))?;
        let out = child.stdout.take().expect("stdout was piped");
        // A reader thread forwards the announcement, then keeps draining
        // stdout for the child's lifetime so its later prints never block
        // on a full pipe; it ends when the child's stdout closes.
        let (tx, rx) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(out).lines() {
                let Ok(line) = line else { break };
                if let Some(rest) = line.strip_prefix("listening on ") {
                    let addr = rest.split_whitespace().next().unwrap_or("").to_string();
                    let _ = tx.send(addr);
                }
            }
        });
        let mut server = Server {
            child,
            addr: String::new(),
            stdout: Some(reader),
        };
        match rx.recv_timeout(ANNOUNCE_TIMEOUT) {
            Ok(addr) if !addr.is_empty() => {
                server.addr = addr;
                Ok(server)
            }
            Ok(_) => Err(format!("serve {args:?}: malformed listen line")),
            Err(_) => Err(match server.child.try_wait() {
                Ok(Some(status)) => format!("serve {args:?} exited ({status}) before listening"),
                _ => format!("serve {args:?} did not announce an address"),
            }),
        }
    }

    /// Peak resident set of the child, in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(reader) = self.stdout.take() {
            let _ = reader.join();
        }
    }
}

/// `VmHWM` of a `/proc/<pid>/status` file, in MB (10^6 bytes).
pub fn peak_rss_mb(status_path: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string(status_path).map_err(|e| format!("{status_path}: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("{status_path}: no VmHWM"))?;
    Ok(kb * 1024.0 / 1e6)
}

/// Peak resident set of this process, in MB.
pub fn own_peak_rss_mb() -> Result<f64, String> {
    peak_rss_mb("/proc/self/status")
}

/// A closed-loop connection: no retries, so every `Overloaded`, timeout
/// or disconnect surfaces as a failed operation instead of being
/// absorbed, and `traced` mints a trace id per call.
pub fn connect(addr: &str, traced: bool) -> Result<Client, String> {
    let client = Client::connect(addr)
        .and_then(|c| c.with_read_timeout(Some(CALL_TIMEOUT)))
        .map_err(|e| format!("connect {addr}: {e}"))?
        .with_retry(RetryPolicy {
            max_retries: 0,
            backoff: Duration::from_micros(100),
        });
    Ok(if traced {
        client.with_tracing()
    } else {
        client
    })
}

/// A per-run scratch directory under `.bench_tmp/` in the working
/// directory (the checkout), removed on drop.
pub struct Scratch {
    pub path: PathBuf,
}

impl Scratch {
    pub fn new(workload: &str) -> Result<Scratch, String> {
        let path = PathBuf::from(".bench_tmp").join(format!("{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let path = path
            .canonicalize()
            .map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(Scratch { path })
    }

    pub fn join(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // Leave no empty parent behind either (fails harmlessly while
        // another run still uses it).
        let _ = std::fs::remove_dir(".bench_tmp");
    }
}

/// Host noise diagnostics around the timed loop: CPU steal ticks (time
/// the hypervisor ran other guests) and the 1-minute load average.
pub struct HostNoise {
    steal_start: Option<u64>,
    started: Instant,
}

impl HostNoise {
    pub fn start() -> HostNoise {
        HostNoise {
            steal_start: steal_ticks(),
            started: Instant::now(),
        }
    }

    /// `steal_ticks=… loadavg_1m=… wall_s=…` for the diagnostics line.
    pub fn finish(&self) -> String {
        let steal = match (self.steal_start, steal_ticks()) {
            (Some(a), Some(b)) => (b.saturating_sub(a)).to_string(),
            _ => "unknown".to_string(),
        };
        let load = std::fs::read_to_string("/proc/loadavg")
            .ok()
            .and_then(|s| s.split_whitespace().next().map(str::to_string))
            .unwrap_or_else(|| "unknown".to_string());
        format!(
            "\"steal_ticks\": {steal_json}, \"loadavg_1m\": {load_json}, \"timed_wall_s\": {:.3}",
            self.started.elapsed().as_secs_f64(),
            steal_json = json_or_null(&steal),
            load_json = json_or_null(&load),
        )
    }
}

fn json_or_null(v: &str) -> &str {
    if v.parse::<f64>().is_ok() {
        v
    } else {
        "null"
    }
}

/// The `steal` column of the aggregate `cpu` line of `/proc/stat`.
fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let cpu = stat.lines().find(|l| l.starts_with("cpu "))?;
    cpu.split_whitespace().nth(8)?.parse().ok()
}

/// SplitMix64: the seeded stream every generated input is drawn from.
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, decorrelated per `purpose`.
    pub fn new(seed: u64, purpose: u64) -> Rng {
        Rng(seed ^ purpose.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0; the modulo bias is below 2^-40 here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_seeded_and_purpose_separated() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        let mut x = Rng::new(7, 1);
        let mut y = Rng::new(7, 2);
        assert_ne!(x.next_u64(), y.next_u64());
        let mut r = Rng::new(3, 0);
        assert!((0..1000).all(|_| r.below(10) < 10));
    }

    #[test]
    fn own_peak_rss_is_positive() {
        assert!(own_peak_rss_mb().unwrap() > 0.0);
    }
}
