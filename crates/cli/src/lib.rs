//! Library backing the `afforest` command-line tool.
//!
//! ```text
//! afforest stats    <graph>
//! afforest cc       <graph> [--algorithm NAME] [--labels-out PATH] [--trials N]
//!                   [--trace-out PATH]          (alias: afforest run)
//! afforest generate <family> --out PATH [--n N] [--edge-factor K] [--seed S] …
//! afforest convert  <in> <out>
//! afforest bench    <graph> [--trials N] [--trace-out PATH]
//! afforest serve    <graph> [--addr HOST:PORT] [--workers N] [--wal-dir PATH]
//!                   [--max-queue-depth N] [--faults SPEC]
//!                   [--metrics-addr HOST:PORT] [--events-out PATH]
//!                   [--trace-out PATH]                   (standalone server)
//! afforest serve    --vertices N [--addr HOST:PORT] …   (shard worker)
//! afforest serve    <graph> --shards N …                (in-process shard router)
//! afforest serve    --shard-addrs A,B,… --vertices N …  (shard router)
//! afforest distrib-cc <graph> [--ranks P] [--partition block|hash|bfs]
//! afforest recover  [<graph>] [--wal-dir PATH] [--events PATH]
//! afforest loadgen  (<host:port> | --graph PATH) [--connections N] [--requests N]
//!                   [--read-pct P] [--max-retries N] [--json-out PATH]
//!                   [--trace-out PATH] [--traced BOOL]
//! afforest top      <host:port> [--interval-ms MS] [--count N] [--clear BOOL]
//! afforest trace    <host:port> [--shards A,B,…] [--trace-id HEX]
//! afforest help
//! ```
//!
//! Graph files are recognized by extension: `.el`/`.txt` (edge list),
//! `.gr`/`.dimacs`/`.col` (DIMACS), `.graph`/`.metis` (METIS), and
//! `.acsr` (this repo's binary CSR).

#![forbid(unsafe_code)]

pub mod args;
pub mod commands;
pub mod load;

pub use args::ParsedArgs;

/// Top-level usage text.
pub const USAGE: &str = "\
usage: afforest <command> [arguments]

commands:
  stats    <graph>                          graph statistics (Table III columns)
  cc       <graph> [--algorithm NAME]       connected components (alias: run)
           [--labels-out PATH] [--trials N]
           [--trace-out PATH]
  generate <family> --out PATH [--n N]      synthetic graph (urand|kron|road|web|
           [--edge-factor K] [--seed S]     ba|ws|geometric|components)
  convert  <in> <out>                       format conversion by extension
  bench    <graph> [--trials N]             time every algorithm on the graph
           [--trace-out PATH]
  serve    <graph> [--addr HOST:PORT]       connectivity query service over TCP;
           [--workers N] [--wal-dir PATH]   every mode reads these seven flags
           [--read-deadline-ms MS]          drop connections idle past MS
           [--metrics-addr HOST:PORT]       HTTP sidecar serving GET /metrics
           [--events-out PATH]              flight-recorder dump on panic and
                                            shutdown (default <wal-dir>/flight.json)
           [--slow-log MS]                  retain request traces slower than MS
                                            (0 = all) -> <wal-dir>/slowlog.jsonl
         standalone and --shards add:
           [--max-batch-edges N] [--max-batch-delay-ms MS]
           [--wal-snapshot-every N]         compact the WAL every N batches
           [--max-queue-depth N]            shed inserts past N queued edges
         standalone adds:
           [--vertices N]                   no graph: an empty N-vertex shard worker
           [--max-total-queue-depth N] [--max-tenants N] [--trace-out PATH]
           [--faults SPEC]                  chaos, e.g. seed=7,torn_frame=0.05
         routers: --shards N (in-process engines), --shard-addrs A,B,… --vertices N
           [--suspect-after N]              shard health: failures before
           [--down-after N]                 Suspect / before the breaker opens
           [--probe-interval-ms MS]         and the probe cadence while Down
           [--probe-deadline-ms MS]         reclaim a hung probe after MS
         --shard-addrs adds: [--max-retries N] [--retry-backoff-us US]
         a flag the chosen mode does not read is refused
  distrib-cc <graph> [--ranks P]            BSP forest-merge connectivity with
           [--partition block|hash|bfs]     exact communication accounting
  recover  [<graph>] [--wal-dir PATH]       offline WAL replay + parked-write
           [--events PATH]                  report (no serving) and/or
                                            flight-recording summary
  loadgen  (<host:port> | --graph PATH)     mixed read/write workload driver
           [--connections N] [--requests N]
           [--read-pct P] [--insert-batch N]
           [--seed S] [--max-retries N]
           [--retry-backoff-us US]
           [--write-shards K]               confine writes to K block slices,
           [--local-pct P]                  P% of them slice-local
           [--json-out PATH] [--trace-out PATH]
           [--traced BOOL]                  mint a trace id per request (pair
                                            with a server's --slow-log)
  top      <host:port> [--interval-ms MS]   live dashboard over a server's
           [--count N] [--clear BOOL]       --metrics-addr scrape endpoint
  trace    <host:port> [--shards A,B,…]     render the newest retained request
           [--trace-id HEX]                 trace as a cross-process span tree
  help                                      this message

`--trace-out` writes a JSON phase trace of the best trial (build with
`--features obs` to populate it with spans and counters)

formats by extension: .el/.txt  .gr/.dimacs/.col  .graph/.metis  .acsr
algorithms: afforest afforest-noskip sv sv-edgelist sv-1982 label-prop
            bfs dobfs parallel-uf union-find uf-rank uf-size rem";

/// Runs a full command line (without the program name); returns the text
/// to print on success.
pub fn dispatch(argv: &[String]) -> Result<String, String> {
    let Some(command) = argv.first() else {
        return Ok(format!("{USAGE}\n"));
    };
    let rest = &argv[1..];
    match command.as_str() {
        "stats" => commands::stats::run(rest),
        // `run` is an alias for `cc` — the natural verb once tracing made
        // the command more than a component count.
        "cc" | "run" => commands::cc::run(rest),
        "generate" => commands::generate::run(rest),
        "convert" => commands::convert::run(rest),
        "bench" => commands::bench::run(rest),
        "serve" => commands::serve::run(rest),
        "distrib-cc" => commands::distrib_cc::run(rest),
        "recover" => commands::recover::run(rest),
        "loadgen" => commands::loadgen::run(rest),
        "top" => commands::top::run(rest),
        "trace" => commands::trace::run(rest),
        "help" | "--help" | "-h" => Ok(format!("{USAGE}\n")),
        other => Err(format!("unknown command '{other}'")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn empty_prints_usage() {
        let out = dispatch(&[]).unwrap();
        assert!(out.contains("usage: afforest"));
    }

    #[test]
    fn help_prints_usage() {
        for h in ["help", "--help", "-h"] {
            assert!(dispatch(&argv(&[h])).unwrap().contains("usage"));
        }
    }

    #[test]
    fn unknown_command_errors() {
        let err = dispatch(&argv(&["frobnicate"])).unwrap_err();
        assert!(err.contains("unknown command"));
    }

    #[test]
    fn run_is_an_alias_for_cc() {
        // Both spellings hit the same handler — same error for a missing
        // positional.
        let cc = dispatch(&argv(&["cc"])).unwrap_err();
        let run = dispatch(&argv(&["run"])).unwrap_err();
        assert_eq!(cc, run);
    }
}
