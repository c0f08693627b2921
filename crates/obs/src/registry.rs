//! Process-global, always-on metric registry for long-running services.
//!
//! The session tracer in this crate ([`crate::Session`]) is the wrong
//! shape for a server: it is off by default, single-session, and scoped
//! to one measured run. A service needs the opposite — metrics that are
//! **always compiled, always live**, named statically, and cheap enough
//! that nobody ever considers turning them off. This module provides
//! that layer:
//!
//! - [`Counter`] — monotonic, striped across [`STRIPES`] cache-line-ish
//!   shards so concurrent writers from different threads do not contend
//!   on one atomic.
//! - [`Gauge`] — a single last-writer-wins value (queue depth, current
//!   epoch).
//! - [`Histogram`] — log2-bucketed latency/size distribution with the
//!   same bucket geometry as [`crate::Histogram`], so snapshots merge
//!   with session traces and share percentile code.
//!
//! Metrics are created (and registered) on first use by static name:
//!
//! ```
//! use afforest_obs::registry;
//!
//! let hits = registry::counter("doc_example_hits_total");
//! hits.add(3);
//! assert!(registry::expose().contains("doc_example_hits_total 3"));
//! ```
//!
//! # Snapshot semantics
//!
//! Scrapes never pause writers. [`snapshot`] and [`expose`] read every
//! shard with `Ordering::Relaxed` loads — no locks are taken on any hot
//! path (the registry mutex guards only *registration*, a once-per-name
//! event). A scrape is therefore not an atomic cut across metrics: a
//! counter incremented mid-scrape may appear in one metric's total and
//! not another's. For rate dashboards and monotonicity checks — the
//! intended uses — that is exactly as good as a consistent cut, and it
//! costs the writer nothing.
//!
//! # Exposition
//!
//! [`expose`] renders the Prometheus text format (version 0.0.4):
//! `# TYPE` comments, `name value` samples, and for histograms the
//! cumulative `_bucket{le="..."}` / `_sum` / `_count` triple. Bucket
//! upper bounds are the log2 bucket edges in nanoseconds. Counters and
//! gauges may carry one label ([`labeled_counter`] / [`labeled_gauge`],
//! e.g. `tenant="..."`); all series of a base name share its `# TYPE`
//! comment. [`parse_exposition`] is the inverse, used by `afforest top`
//! and the CI metrics smoke.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Number of shards per [`Counter`]. Writers pick a shard by thread, so
/// contention only occurs when more than `STRIPES` threads hammer the
/// same counter simultaneously.
pub const STRIPES: usize = 16;

/// Log2 histogram bucket count (covers the full `u64` range).
pub const BUCKETS: usize = 64;

thread_local! {
    /// This thread's shard index, assigned round-robin at first use.
    static STRIPE: usize = NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) % STRIPES;
}

static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

#[inline]
fn stripe_of_thread() -> usize {
    STRIPE.with(|s| *s)
}

/// A monotonically increasing counter, striped to keep concurrent
/// writers off each other's cache lines.
pub struct Counter {
    stripes: [AtomicU64; STRIPES],
}

impl Counter {
    const fn new() -> Counter {
        Counter {
            stripes: [const { AtomicU64::new(0) }; STRIPES],
        }
    }

    /// Adds `n` (Relaxed; never blocks, never fails).
    #[inline]
    pub fn add(&self, n: u64) {
        self.stripes[stripe_of_thread()].fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current total: the sum of all shards (Relaxed loads).
    pub fn get(&self) -> u64 {
        self.stripes.iter().map(|s| s.load(Ordering::Relaxed)).sum()
    }
}

/// A last-writer-wins instantaneous value.
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    const fn new() -> Gauge {
        Gauge {
            value: AtomicU64::new(0),
        }
    }

    /// Stores `v` (Relaxed).
    #[inline]
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Current value (Relaxed).
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A concurrent log2-bucketed histogram.
///
/// Same bucket geometry as [`crate::Histogram`] (`bucket = floor(log2(v))`,
/// values clamped to ≥ 1): [`Hist::snapshot`] converts to that type, so
/// percentiles, merging, and rendering are shared with session traces.
pub struct Hist {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
    /// Last trace id observed per bucket (0 = none): the OpenMetrics
    /// exemplar, linking an aggregate bucket back to one concrete
    /// retained trace (DESIGN.md §16).
    exemplars: [AtomicU64; BUCKETS],
}

impl Hist {
    const fn new() -> Hist {
        Hist {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            exemplars: [const { AtomicU64::new(0) }; BUCKETS],
        }
    }

    /// Records one observation (Relaxed fetch-ops; never blocks).
    #[inline]
    pub fn record(&self, v: u64) {
        self.record_traced(v, 0);
    }

    /// [`Hist::record`] plus an exemplar: a nonzero `trace_id` becomes
    /// the bucket's exemplar (last writer wins).
    #[inline]
    pub fn record_traced(&self, v: u64, trace_id: u64) {
        let bucket = bucket_of(v) as usize;
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        if trace_id != 0 {
            self.exemplars[bucket].store(trace_id, Ordering::Relaxed);
        }
    }

    /// The exemplar trace ids of occupied buckets, as `(bucket, id)`.
    pub fn exemplars(&self) -> Vec<(u32, u64)> {
        self.exemplars
            .iter()
            .enumerate()
            .filter_map(|(b, e)| {
                let id = e.load(Ordering::Relaxed);
                (id != 0).then_some((b as u32, id))
            })
            .collect()
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Copies the current state into a mergeable [`crate::Histogram`]
    /// named `name`. Relaxed loads only; concurrent records may be
    /// partially visible (count and buckets can disagree by in-flight
    /// observations), which is acceptable for scraping.
    pub fn snapshot(&self, name: &str) -> crate::Histogram {
        let mut h = crate::Histogram::new(name);
        h.count = self.count.load(Ordering::Relaxed);
        h.sum_ns = self.sum.load(Ordering::Relaxed);
        h.min_ns = self.min.load(Ordering::Relaxed);
        h.max_ns = self.max.load(Ordering::Relaxed);
        for (i, b) in self.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                h.buckets.push((i as u32, n));
            }
        }
        h
    }
}

/// One registered metric, by reference into the leaked registry.
enum Slot {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Hist(&'static Hist),
}

impl Slot {
    fn kind(&self) -> &'static str {
        match self {
            Slot::Counter(_) => "counter",
            Slot::Gauge(_) => "gauge",
            Slot::Hist(_) => "histogram",
        }
    }
}

/// One registry entry. `full` is the exposed sample name (possibly
/// labelled, e.g. `reqs_total{tenant="a"}`); `base` is the metric name
/// the `# TYPE` comment is emitted for. Unlabelled metrics have
/// `full == base`.
struct Entry {
    full: &'static str,
    base: &'static str,
    slot: Slot,
}

fn registry() -> &'static Mutex<Vec<Entry>> {
    static REGISTRY: OnceLock<Mutex<Vec<Entry>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

fn register_or_get<T>(
    full: &str,
    base: &'static str,
    make: impl FnOnce() -> &'static T,
    as_slot: impl Fn(&Slot) -> Option<&'static T>,
    wrap: impl FnOnce(&'static T) -> Slot,
) -> &'static T {
    let mut reg = registry().lock().unwrap_or_else(|e| e.into_inner());
    if let Some(e) = reg.iter().find(|e| e.full == full) {
        return as_slot(&e.slot).unwrap_or_else(|| {
            panic!(
                "metric {full:?} already registered as a {}; \
                 one name, one type",
                e.slot.kind()
            )
        });
    }
    let metric = make();
    // Label values arrive at runtime (tenant names), so the composed
    // full name is interned exactly once per (name, label, value) —
    // bounded by the metric population, not the call count.
    let full: &'static str = if full == base {
        base
    } else {
        Box::leak(full.to_string().into_boxed_str())
    };
    reg.push(Entry {
        full,
        base,
        slot: wrap(metric),
    });
    metric
}

/// The exposed sample name of a labelled metric: `name{label="value"}`.
fn labeled_full(name: &str, label: &str, value: &str) -> String {
    format!("{name}{{{label}=\"{value}\"}}")
}

/// Returns the counter registered under `name`, creating it on first
/// use. Panics if `name` is already registered as a different type.
///
/// Call once and cache the reference (e.g. in a `OnceLock` struct of
/// metrics); the lookup takes the registry lock, `add` never does.
pub fn counter(name: &'static str) -> &'static Counter {
    register_or_get(
        name,
        name,
        || Box::leak(Box::new(Counter::new())),
        |s| match s {
            Slot::Counter(c) => Some(c),
            _ => None,
        },
        Slot::Counter,
    )
}

/// Returns the counter registered under `name{label="value"}`, creating
/// it on first use. All series of one `name` share a single `# TYPE`
/// comment in the exposition; the label value may be a runtime string
/// (it is interned once per distinct series). Panics if the full name is
/// already registered as a different type.
pub fn labeled_counter(name: &'static str, label: &'static str, value: &str) -> &'static Counter {
    register_or_get(
        &labeled_full(name, label, value),
        name,
        || Box::leak(Box::new(Counter::new())),
        |s| match s {
            Slot::Counter(c) => Some(c),
            _ => None,
        },
        Slot::Counter,
    )
}

/// Returns the gauge registered under `name`, creating it on first use.
/// Panics if `name` is already registered as a different type.
pub fn gauge(name: &'static str) -> &'static Gauge {
    register_or_get(
        name,
        name,
        || Box::leak(Box::new(Gauge::new())),
        |s| match s {
            Slot::Gauge(g) => Some(g),
            _ => None,
        },
        Slot::Gauge,
    )
}

/// Returns the gauge registered under `name{label="value"}`, creating it
/// on first use (see [`labeled_counter`] for the labelling contract).
/// Panics if the full name is already registered as a different type.
pub fn labeled_gauge(name: &'static str, label: &'static str, value: &str) -> &'static Gauge {
    register_or_get(
        &labeled_full(name, label, value),
        name,
        || Box::leak(Box::new(Gauge::new())),
        |s| match s {
            Slot::Gauge(g) => Some(g),
            _ => None,
        },
        Slot::Gauge,
    )
}

/// Returns the histogram registered under `name`, creating it on first
/// use. Panics if `name` is already registered as a different type.
/// Histograms are never labelled: their exposition already multiplexes
/// `{le="..."}` and a second label axis would not round-trip through
/// [`parse_exposition`].
pub fn histogram(name: &'static str) -> &'static Hist {
    register_or_get(
        name,
        name,
        || Box::leak(Box::new(Hist::new())),
        |s| match s {
            Slot::Hist(h) => Some(h),
            _ => None,
        },
        Slot::Hist,
    )
}

/// A point-in-time reading of one metric.
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    /// Counter total.
    Counter(u64),
    /// Gauge value.
    Gauge(u64),
    /// Histogram snapshot (mergeable, percentile-capable).
    Histogram(crate::Histogram),
}

/// Reads every registered metric (Relaxed loads; writers never pause).
/// Names are the full (possibly labelled) sample names, sorted for
/// deterministic output.
pub fn snapshot() -> Vec<(&'static str, MetricValue)> {
    snapshot_grouped()
        .into_iter()
        .map(|(_, full, value, _)| (full, value))
        .collect()
}

/// One grouped sample: `(base, full, value, exemplars)` — the `# TYPE`
/// grouping key, the full labelled name, the read value, and any
/// `(bucket, trace_id)` exemplar pairs a histogram carries.
type GroupedSample = (&'static str, &'static str, MetricValue, Vec<(u32, u64)>);

/// [`snapshot`] with the `# TYPE` grouping key: sorted by
/// `(base, full)` so every labelled series sits next to its base name.
fn snapshot_grouped() -> Vec<GroupedSample> {
    let reg = registry().lock().unwrap_or_else(|e| e.into_inner());
    let mut out: Vec<GroupedSample> = reg
        .iter()
        .map(|e| {
            let (value, exemplars) = match &e.slot {
                Slot::Counter(c) => (MetricValue::Counter(c.get()), Vec::new()),
                Slot::Gauge(g) => (MetricValue::Gauge(g.get()), Vec::new()),
                Slot::Hist(h) => (MetricValue::Histogram(h.snapshot(e.full)), h.exemplars()),
            };
            (e.base, e.full, value, exemplars)
        })
        .collect();
    out.sort_by_key(|(base, full, _, _)| (*base, *full));
    out
}

/// The log2 bucket holding `v`: `floor(log2(v))`, with 0 and 1 both in
/// bucket 0. The inverse of [`bucket_upper_edge`].
#[inline]
pub fn bucket_of(v: u64) -> u32 {
    63 - v.max(1).leading_zeros()
}

/// Upper edge (inclusive) of log2 bucket `b`, as used in exposition
/// `le` labels: `2^(b+1) - 1`.
pub fn bucket_upper_edge(b: u32) -> u64 {
    if b >= 63 {
        u64::MAX
    } else {
        (1u64 << (b + 1)) - 1
    }
}

/// Renders every registered metric in the Prometheus text exposition
/// format (0.0.4). Deterministic order (sorted by base name, then full
/// sample name); labelled series share one `# TYPE` comment per base.
pub fn expose() -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let mut last_base = "";
    for (base, name, value, exemplars) in snapshot_grouped() {
        let fresh_base = base != last_base;
        last_base = base;
        match value {
            MetricValue::Counter(v) => {
                if fresh_base {
                    let _ = writeln!(out, "# TYPE {base} counter");
                }
                let _ = writeln!(out, "{name} {v}");
            }
            MetricValue::Gauge(v) => {
                if fresh_base {
                    let _ = writeln!(out, "# TYPE {base} gauge");
                }
                let _ = writeln!(out, "{name} {v}");
            }
            MetricValue::Histogram(h) => {
                let _ = writeln!(out, "# TYPE {name} histogram");
                let mut cum = 0u64;
                for &(bucket, n) in &h.buckets {
                    cum += n;
                    let _ = write!(
                        out,
                        "{name}_bucket{{le=\"{}\"}} {cum}",
                        bucket_upper_edge(bucket)
                    );
                    // OpenMetrics exemplar: the last retained trace that
                    // landed in this bucket.
                    match exemplars.iter().find(|(b, _)| *b == bucket) {
                        Some(&(_, id)) => {
                            let _ = writeln!(out, " # {{trace_id=\"{id:016x}\"}}");
                        }
                        None => out.push('\n'),
                    }
                }
                let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count);
                let _ = writeln!(out, "{name}_sum {}", h.sum_ns);
                let _ = writeln!(out, "{name}_count {}", h.count);
            }
        }
    }
    out
}

/// A parsed exposition: plain samples (counters/gauges) and
/// reconstructed histograms.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Scrape {
    /// `name -> value` for counter and gauge samples (also `_sum` and
    /// `_count` histogram samples, under their suffixed names).
    pub values: Vec<(String, u64)>,
    /// Histograms rebuilt from `_bucket`/`_sum`/`_count` triples.
    /// `min_ns`/`max_ns` are approximated by the occupied bucket edges
    /// (the text format does not carry exact extrema).
    pub histograms: Vec<crate::Histogram>,
    /// OpenMetrics exemplars, `(full bucket sample name, trace id hex)`
    /// in exposition order (so per histogram, ascending bucket edge).
    pub exemplars: Vec<(String, String)>,
}

impl Scrape {
    /// Looks up a plain sample by name.
    pub fn value(&self, name: &str) -> Option<u64> {
        self.values.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Looks up a reconstructed histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&crate::Histogram> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// The exemplar trace id (hex) of histogram `name`'s highest
    /// occupied bucket — the slowest retained request it observed.
    pub fn exemplar(&self, name: &str) -> Option<&str> {
        let prefix = format!("{name}_bucket{{le=\"");
        self.exemplars
            .iter()
            .rev()
            .find(|(n, _)| n.starts_with(&prefix))
            .map(|(_, id)| id.as_str())
    }
}

/// Parses a Prometheus text exposition produced by [`expose`] (or any
/// scraper-compatible source using the same histogram bucket edges).
///
/// Returns an error describing the first malformed line. Unknown
/// comment lines are ignored, as the format requires.
pub fn parse_exposition(text: &str) -> Result<Scrape, String> {
    struct Partial {
        buckets: Vec<(u32, u64)>, // (bucket index, cumulative count)
        sum: u64,
        count: u64,
    }
    let mut scrape = Scrape::default();
    let mut partials: Vec<(String, Partial)> = Vec::new();

    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = |msg: &str| format!("line {}: {msg}: {line:?}", lineno + 1);
        // An OpenMetrics exemplar rides after the sample value as
        // ` # {trace_id="…"}`; split it off before the value parse.
        let (line, exemplar) = match line.split_once(" # ") {
            Some((data, ex)) => {
                let id = ex
                    .strip_prefix("{trace_id=\"")
                    .and_then(|r| r.strip_suffix("\"}"))
                    .ok_or_else(|| err("malformed exemplar"))?;
                (data.trim(), Some(id.to_string()))
            }
            None => (line, None),
        };
        let (name_part, value_part) = line
            .rsplit_once(' ')
            .ok_or_else(|| err("expected `name value`"))?;
        let name_part = name_part.trim();
        let value_part = value_part.trim();
        if let Some(id) = exemplar {
            scrape.exemplars.push((name_part.to_string(), id));
        }

        if let Some((base, rest)) = name_part.split_once("_bucket{le=\"") {
            let le = rest
                .strip_suffix("\"}")
                .ok_or_else(|| err("unterminated le label"))?;
            let cum: u64 = value_part
                .parse()
                .map_err(|_| err("bucket count not an integer"))?;
            let partial = match partials.iter_mut().find(|(n, _)| n == base) {
                Some((_, p)) => p,
                None => {
                    partials.push((
                        base.to_string(),
                        Partial {
                            buckets: Vec::new(),
                            sum: 0,
                            count: 0,
                        },
                    ));
                    &mut partials.last_mut().unwrap().1
                }
            };
            if le == "+Inf" {
                continue; // total repeated in `_count`
            }
            let edge: u64 = le.parse().map_err(|_| err("le bound not an integer"))?;
            partial.buckets.push((bucket_of(edge), cum));
            continue;
        }
        let value: u64 = value_part
            .parse()
            .map_err(|_| err("sample value not an unsigned integer"))?;
        if let Some(base) = name_part.strip_suffix("_sum") {
            if let Some((_, p)) = partials.iter_mut().find(|(n, _)| n == base) {
                p.sum = value;
            }
        } else if let Some(base) = name_part.strip_suffix("_count") {
            if let Some((_, p)) = partials.iter_mut().find(|(n, _)| n == base) {
                p.count = value;
            }
        }
        // Labelled counter/gauge series (tenant="..." and friends) are
        // kept under their full sample name; only well-formed label
        // blocks are accepted, so a mangled line still errors.
        if name_part.contains(['{', '}'])
            && !(name_part.ends_with("\"}") && name_part.contains('{') && name_part.contains("=\""))
        {
            return Err(err("malformed labels on sample"));
        }
        scrape.values.push((name_part.to_string(), value));
    }

    for (name, p) in partials {
        let mut h = crate::Histogram::new(&name);
        h.count = p.count;
        h.sum_ns = p.sum;
        let mut prev = 0u64;
        for (bucket, cum) in p.buckets {
            let n = cum.saturating_sub(prev);
            prev = cum;
            if n > 0 {
                h.buckets.push((bucket, n));
            }
        }
        if let Some(&(first, _)) = h.buckets.first() {
            h.min_ns = if first == 0 { 1 } else { 1u64 << first };
        }
        if let Some(&(last, _)) = h.buckets.last() {
            h.max_ns = bucket_upper_edge(last);
        }
        scrape.histograms.push(h);
    }
    Ok(scrape)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Global registry: every test uses unique names and asserts deltas,
    // because tests in this binary share the process.

    #[test]
    fn counter_sums_across_threads() {
        let c = counter("test_reg_counter_threads_total");
        let before = c.get();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get() - before, 8000);
    }

    #[test]
    fn same_name_returns_same_metric() {
        let a = counter("test_reg_same_name_total");
        let b = counter("test_reg_same_name_total");
        a.add(5);
        assert_eq!(b.get(), a.get());
        assert!(std::ptr::eq(a, b));
    }

    #[test]
    fn gauge_is_last_writer_wins() {
        let g = gauge("test_reg_gauge");
        g.set(41);
        g.set(7);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn histogram_snapshot_matches_session_geometry() {
        let h = histogram("test_reg_hist_ns");
        for v in [1u64, 2, 3, 100, 1000, 100_000] {
            h.record(v);
        }
        let snap = h.snapshot("test_reg_hist_ns");
        let mut reference = crate::Histogram::new("reference");
        for v in [1u64, 2, 3, 100, 1000, 100_000] {
            reference.record(v);
        }
        assert_eq!(snap.count, reference.count);
        assert_eq!(snap.buckets, reference.buckets);
        assert_eq!(snap.min_ns, reference.min_ns);
        assert_eq!(snap.max_ns, reference.max_ns);
        assert_eq!(snap.percentile(0.5), reference.percentile(0.5));
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn type_conflict_panics() {
        counter("test_reg_conflict");
        gauge("test_reg_conflict");
    }

    #[test]
    fn exposition_roundtrips_through_parser() {
        let c = counter("test_reg_expo_requests_total");
        let g = gauge("test_reg_expo_depth");
        let h = histogram("test_reg_expo_latency_ns");
        c.add(3);
        g.set(9);
        for v in [5u64, 5, 900, 70_000] {
            h.record(v);
        }

        let text = expose();
        let scrape = parse_exposition(&text).expect("parse");

        assert!(scrape.value("test_reg_expo_requests_total").unwrap() >= 3);
        assert_eq!(scrape.value("test_reg_expo_depth"), Some(9));
        let hist = scrape.histogram("test_reg_expo_latency_ns").unwrap();
        assert_eq!(hist.count, 4);
        assert_eq!(hist.sum_ns, 5 + 5 + 900 + 70_000);
        // Reconstructed buckets carry the same per-bucket counts.
        let snap = h.snapshot("x");
        assert_eq!(hist.buckets, snap.buckets);
    }

    #[test]
    fn exemplars_ride_bucket_lines_and_roundtrip() {
        let h = histogram("test_reg_exemplar_latency_ns");
        h.record(100); // no trace: bucket line stays bare
        h.record_traced(100_000, 0xDEAD_BEEF);
        h.record_traced(100_000, 0xFEED_F00D); // last writer wins
        let text = expose();
        assert!(text.contains("# {trace_id=\"00000000feedf00d\"}"), "{text}");
        let scrape = parse_exposition(&text).expect("exemplars parse");
        assert_eq!(
            scrape.exemplar("test_reg_exemplar_latency_ns"),
            Some("00000000feedf00d")
        );
        assert_eq!(scrape.exemplar("test_reg_expo_no_such_hist"), None);
        // The histogram itself still reconstructs.
        let hist = scrape.histogram("test_reg_exemplar_latency_ns").unwrap();
        assert_eq!(hist.count, 3);
        // A mangled exemplar errors instead of corrupting the value.
        assert!(parse_exposition("lat_bucket{le=\"3\"} 1 # {oops}\n").is_err());
    }

    #[test]
    fn labeled_series_share_one_type_line_and_roundtrip() {
        let a = labeled_counter("test_reg_labeled_total", "tenant", "alpha");
        let b = labeled_counter("test_reg_labeled_total", "tenant", "beta");
        let g = labeled_gauge("test_reg_labeled_depth", "tenant", "alpha");
        assert!(!std::ptr::eq(a, b));
        // Same series → same metric, interned once.
        assert!(std::ptr::eq(
            a,
            labeled_counter("test_reg_labeled_total", "tenant", "alpha")
        ));
        a.add(2);
        b.add(5);
        g.set(9);

        let text = expose();
        // One TYPE comment for the base, one sample per series.
        assert_eq!(
            text.matches("# TYPE test_reg_labeled_total counter")
                .count(),
            1
        );
        assert!(text.contains("test_reg_labeled_total{tenant=\"alpha\"} 2"));
        assert!(text.contains("test_reg_labeled_total{tenant=\"beta\"} 5"));

        let scrape = parse_exposition(&text).expect("labelled exposition parses");
        assert_eq!(
            scrape.value("test_reg_labeled_total{tenant=\"alpha\"}"),
            Some(2)
        );
        assert_eq!(
            scrape.value("test_reg_labeled_total{tenant=\"beta\"}"),
            Some(5)
        );
        assert_eq!(
            scrape.value("test_reg_labeled_depth{tenant=\"alpha\"}"),
            Some(9)
        );
    }

    #[test]
    fn exposition_is_sorted_and_typed() {
        counter("test_reg_order_a_total");
        counter("test_reg_order_b_total");
        let text = expose();
        let a = text.find("test_reg_order_a_total").unwrap();
        let b = text.find("test_reg_order_b_total").unwrap();
        assert!(a < b);
        assert!(text.contains("# TYPE test_reg_order_a_total counter"));
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse_exposition("no_value_here\n").is_err());
        assert!(parse_exposition("name not_a_number\n").is_err());
        assert!(parse_exposition("h_bucket{le=\"3\" 4\n").is_err());
        // Comments and blanks are fine.
        assert!(parse_exposition("# HELP x y\n\n").is_ok());
    }

    /// Each error path of the parser, pinned to its message and the
    /// 1-based line number it reports.
    #[test]
    fn parser_error_paths_name_the_line_and_cause() {
        // Truncated line: a bare name with no value sample.
        let e = parse_exposition("ok_total 1\ntruncated_line\n").unwrap_err();
        assert!(e.starts_with("line 2:"), "{e}");
        assert!(e.contains("expected `name value`"), "{e}");

        // Non-numeric sample value.
        let e = parse_exposition("depth_gauge NaN\n").unwrap_err();
        assert!(e.contains("sample value not an unsigned integer"), "{e}");
        let e = parse_exposition("depth_gauge -3\n").unwrap_err();
        assert!(e.contains("sample value not an unsigned integer"), "{e}");

        // Bucket line whose le label never closes.
        let e = parse_exposition("lat_bucket{le=\"3 7\n").unwrap_err();
        assert!(e.contains("unterminated le label"), "{e}");

        // Bucket count and bucket edge must both be integers.
        let e = parse_exposition("lat_bucket{le=\"3\"} x\n").unwrap_err();
        assert!(e.contains("bucket count not an integer"), "{e}");
        let e = parse_exposition("lat_bucket{le=\"wide\"} 7\n").unwrap_err();
        assert!(e.contains("le bound not an integer"), "{e}");

        // Well-formed labels on a non-bucket sample are kept under the
        // full sample name; mangled label blocks still error.
        let scrape = parse_exposition("reqs{shard=\"0\"} 4\n").expect("labelled sample");
        assert_eq!(scrape.value("reqs{shard=\"0\"}"), Some(4));
        let e = parse_exposition("reqs{shard=\"0\" 4\n").unwrap_err();
        assert!(e.contains("malformed labels on sample"), "{e}");
        let e = parse_exposition("reqs{shard} 4\n").unwrap_err();
        assert!(e.contains("malformed labels on sample"), "{e}");

        // Unknown comment lines (any `#`-prefixed line, including TYPE
        // kinds this parser never emits) are ignored, not errors.
        let scrape =
            parse_exposition("# TYPE exotic summary\n# EOF\nok_total 2\n").expect("comments skip");
        assert_eq!(scrape.value("ok_total"), Some(2));

        // An error on a later line still names that line.
        let e = parse_exposition("a_total 1\nb_total 2\n\nbad\n").unwrap_err();
        assert!(e.starts_with("line 4:"), "{e}");
    }

    #[test]
    fn bucket_edges_invert() {
        for b in 0..64u32 {
            let edge = bucket_upper_edge(b);
            assert_eq!(bucket_of(edge), b, "edge {edge}");
        }
    }
}
