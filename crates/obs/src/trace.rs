//! The machine-readable trace produced by a recording session.
//!
//! A [`Trace`] is a flat list of [`SpanRecord`]s (one per closed span, in
//! close order) plus workspace-wide counter totals and per-phase duration
//! [`Histogram`]s. It serializes to JSON (lossless, reparsable via
//! [`Trace::from_json`]) and to CSV (one row per span, for spreadsheet
//! inspection), and aggregates into per-phase breakdown rows via
//! [`Trace::phase_totals`].

use crate::json::{self, Value};
use std::fmt::Write as _;

/// One closed span: a named, timed section of an algorithm run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Phase name, e.g. `link[0]` or `sv-iter[3]`.
    pub name: String,
    /// Nesting depth at open time (0 = top level).
    pub depth: u32,
    /// Offset of the open relative to session start, nanoseconds.
    pub start_ns: u64,
    /// Wall-clock duration, nanoseconds.
    pub dur_ns: u64,
    /// Counter deltas observed while the span was open (non-zero only).
    pub counters: Vec<(String, u64)>,
}

impl SpanRecord {
    /// The phase family: the name with any `[index]` suffix removed
    /// (`link[1]` → `link`), used to aggregate repeated phases.
    pub fn base_name(&self) -> &str {
        base_of(&self.name)
    }

    /// The delta recorded for `counter` while this span was open.
    pub fn counter(&self, counter: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == counter)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    }
}

/// The phase family of a span name (strips one `[...]` suffix).
pub fn base_of(name: &str) -> &str {
    match name.find('[') {
        Some(i) => &name[..i],
        None => name,
    }
}

/// A log₂-bucketed duration histogram for one phase family.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Histogram {
    /// Phase family ([`base_of`] the contributing span names).
    pub name: String,
    /// Number of recorded durations.
    pub count: u64,
    /// Sum of recorded durations, nanoseconds.
    pub sum_ns: u64,
    /// Smallest recorded duration, nanoseconds.
    pub min_ns: u64,
    /// Largest recorded duration, nanoseconds.
    pub max_ns: u64,
    /// Sparse `(bucket, count)` pairs where `bucket = floor(log2(ns))`
    /// (bucket 0 holds 0–1 ns), ascending by bucket.
    pub buckets: Vec<(u32, u64)>,
}

impl Histogram {
    /// Starts an empty histogram for `name`.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            min_ns: u64::MAX,
            ..Default::default()
        }
    }

    /// Records one duration.
    pub fn record(&mut self, ns: u64) {
        self.count += 1;
        self.sum_ns += ns;
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
        let bucket = crate::registry::bucket_of(ns);
        match self.buckets.binary_search_by_key(&bucket, |&(b, _)| b) {
            Ok(i) => self.buckets[i].1 += 1,
            Err(i) => self.buckets.insert(i, (bucket, 1)),
        }
    }

    /// Mean duration in nanoseconds (0 for an empty histogram).
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns.checked_div(self.count).unwrap_or(0)
    }

    /// Folds `other` into `self` (used to combine per-thread latency
    /// histograms into one report). Keeps `self.name`.
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
        for &(bucket, n) in &other.buckets {
            match self.buckets.binary_search_by_key(&bucket, |&(b, _)| b) {
                Ok(i) => self.buckets[i].1 += n,
                Err(i) => self.buckets.insert(i, (bucket, n)),
            }
        }
    }

    /// Sentinel returned by [`Histogram::percentile`] for a histogram
    /// with no samples. Distinct from any recorded duration (recording
    /// clamps values into bucket 0, but `min_ns` stays `u64::MAX` only
    /// while empty, so callers can also test `count == 0` directly).
    pub const NO_SAMPLES: u64 = 0;

    /// The `q`-quantile (`0.0..=1.0`) in nanoseconds, estimated from the
    /// log₂ buckets: the answer is the upper edge of the bucket holding
    /// the target rank, clamped to the observed `[min_ns, max_ns]` range,
    /// so the estimate is within 2× of the true value.
    ///
    /// Edge cases are exact, never an arbitrary bucket bound: an empty
    /// histogram returns [`Histogram::NO_SAMPLES`], and a single-sample
    /// histogram returns that sample exactly (for every `q`).
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return Self::NO_SAMPLES;
        }
        if self.count == 1 {
            // One sample: min == max == the sample itself; bucket edges
            // would only blur a value we know exactly.
            return self.max_ns;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for &(bucket, n) in &self.buckets {
            seen += n;
            if seen >= target {
                return crate::registry::bucket_upper_edge(bucket).clamp(self.min_ns, self.max_ns);
            }
        }
        self.max_ns
    }
}

/// Aggregated per-phase row: all spans sharing a base name and depth.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhaseTotal {
    /// Phase family name.
    pub name: String,
    /// Nesting depth of the aggregated spans.
    pub depth: u32,
    /// Number of spans aggregated.
    pub count: u64,
    /// Total wall-clock time across those spans, nanoseconds.
    pub total_ns: u64,
}

impl PhaseTotal {
    /// Total in milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.total_ns as f64 / 1e6
    }
}

/// A complete recording session: spans, counter totals, histograms.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Trace {
    /// Wall-clock duration of the whole session, nanoseconds.
    pub total_ns: u64,
    /// Final counter totals (non-zero only), sorted by counter name (the
    /// JSON encoding is an object, so sorted order makes round-trips
    /// reproduce the struct exactly).
    pub counters: Vec<(String, u64)>,
    /// Every closed span, in close order.
    pub spans: Vec<SpanRecord>,
    /// Per-phase-family duration histograms, by family name.
    pub histograms: Vec<Histogram>,
}

impl Trace {
    /// Whether the session recorded nothing (e.g. obs compiled out).
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.counters.is_empty()
    }

    /// The session total in milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.total_ns as f64 / 1e6
    }

    /// The final total of `counter` (0 if never incremented).
    pub fn counter(&self, counter: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == counter)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    }

    /// Spans whose base name matches `base` (`trial` matches `trial[0]`).
    pub fn spans_named<'a>(&'a self, base: &'a str) -> impl Iterator<Item = &'a SpanRecord> {
        self.spans.iter().filter(move |s| s.base_name() == base)
    }

    /// Aggregates spans into per-phase rows, grouped by (base name, depth),
    /// ordered by first appearance in the trace.
    pub fn phase_totals(&self) -> Vec<PhaseTotal> {
        let mut rows: Vec<PhaseTotal> = Vec::new();
        for s in &self.spans {
            let base = s.base_name();
            match rows
                .iter_mut()
                .find(|r| r.depth == s.depth && r.name == base)
            {
                Some(r) => {
                    r.count += 1;
                    r.total_ns += s.dur_ns;
                }
                None => rows.push(PhaseTotal {
                    name: base.to_string(),
                    depth: s.depth,
                    count: 1,
                    total_ns: s.dur_ns,
                }),
            }
        }
        rows
    }

    /// Sum of the durations of all depth-`depth` spans (used to check
    /// per-phase coverage against the session total).
    pub fn depth_total_ns(&self, depth: u32) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.depth == depth)
            .map(|s| s.dur_ns)
            .sum()
    }

    /// Serializes the trace as a single-document JSON string.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + self.spans.len() * 96);
        let _ = write!(out, "{{\"total_ns\":{}", self.total_ns);
        out.push_str(",\"counters\":");
        write_counters(&mut out, &self.counters);
        out.push_str(",\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            json::write_escaped(&mut out, &s.name);
            let _ = write!(
                out,
                ",\"depth\":{},\"start_ns\":{},\"dur_ns\":{},\"counters\":",
                s.depth, s.start_ns, s.dur_ns
            );
            write_counters(&mut out, &s.counters);
            out.push('}');
        }
        out.push_str("],\"histograms\":[");
        for (i, h) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            json::write_escaped(&mut out, &h.name);
            let _ = write!(
                out,
                ",\"count\":{},\"sum_ns\":{},\"min_ns\":{},\"max_ns\":{},\"buckets\":[",
                h.count,
                h.sum_ns,
                if h.count == 0 { 0 } else { h.min_ns },
                h.max_ns
            );
            for (j, &(b, c)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[{b},{c}]");
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }

    /// Parses a trace previously produced by [`Trace::to_json`].
    pub fn from_json(text: &str) -> Result<Trace, String> {
        let doc = json::parse(text)?;
        let total_ns = doc
            .get("total_ns")
            .and_then(Value::as_int)
            .ok_or("missing total_ns")?;
        let counters = read_counters(doc.get("counters"))?;

        let mut spans = Vec::new();
        for s in doc
            .get("spans")
            .and_then(Value::as_arr)
            .ok_or("missing spans")?
        {
            spans.push(SpanRecord {
                name: s
                    .get("name")
                    .and_then(Value::as_str)
                    .ok_or("span missing name")?
                    .to_string(),
                depth: s.get("depth").and_then(Value::as_int).unwrap_or(0) as u32,
                start_ns: s.get("start_ns").and_then(Value::as_int).unwrap_or(0),
                dur_ns: s
                    .get("dur_ns")
                    .and_then(Value::as_int)
                    .ok_or("span missing dur_ns")?,
                counters: read_counters(s.get("counters"))?,
            });
        }

        let mut histograms = Vec::new();
        if let Some(hs) = doc.get("histograms").and_then(Value::as_arr) {
            for h in hs {
                let count = h.get("count").and_then(Value::as_int).unwrap_or(0);
                let mut buckets = Vec::new();
                if let Some(bs) = h.get("buckets").and_then(Value::as_arr) {
                    for b in bs {
                        let pair = b.as_arr().ok_or("bad histogram bucket")?;
                        let (idx, cnt) = match pair {
                            [i, c] => (
                                i.as_int().ok_or("bad bucket index")? as u32,
                                c.as_int().ok_or("bad bucket count")?,
                            ),
                            _ => return Err("bad histogram bucket arity".into()),
                        };
                        buckets.push((idx, cnt));
                    }
                }
                histograms.push(Histogram {
                    name: h
                        .get("name")
                        .and_then(Value::as_str)
                        .ok_or("histogram missing name")?
                        .to_string(),
                    count,
                    sum_ns: h.get("sum_ns").and_then(Value::as_int).unwrap_or(0),
                    min_ns: if count == 0 {
                        u64::MAX
                    } else {
                        h.get("min_ns").and_then(Value::as_int).unwrap_or(0)
                    },
                    max_ns: h.get("max_ns").and_then(Value::as_int).unwrap_or(0),
                    buckets,
                });
            }
        }

        Ok(Trace {
            total_ns,
            counters,
            spans,
            histograms,
        })
    }

    /// Serializes spans as CSV: one row per span, fixed columns plus one
    /// column per counter name that appears anywhere in the trace.
    pub fn to_csv(&self) -> String {
        let mut counter_names: Vec<&str> = Vec::new();
        for s in &self.spans {
            for (n, _) in &s.counters {
                if !counter_names.contains(&n.as_str()) {
                    counter_names.push(n);
                }
            }
        }
        let mut out = String::from("name,depth,start_ns,dur_ns");
        for n in &counter_names {
            let _ = write!(out, ",{n}");
        }
        out.push('\n');
        for s in &self.spans {
            let name = if s.name.contains(',') || s.name.contains('"') {
                format!("\"{}\"", s.name.replace('"', "\"\""))
            } else {
                s.name.clone()
            };
            let _ = write!(out, "{name},{},{},{}", s.depth, s.start_ns, s.dur_ns);
            for n in &counter_names {
                let _ = write!(out, ",{}", s.counter(n));
            }
            out.push('\n');
        }
        out
    }
}

fn write_counters(out: &mut String, counters: &[(String, u64)]) {
    out.push('{');
    for (i, (name, v)) in counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::write_escaped(out, name);
        let _ = write!(out, ":{v}");
    }
    out.push('}');
}

fn read_counters(v: Option<&Value>) -> Result<Vec<(String, u64)>, String> {
    let Some(v) = v else {
        return Ok(Vec::new());
    };
    let obj = v.as_obj().ok_or("counters must be an object")?;
    obj.iter()
        .map(|(k, v)| {
            v.as_int()
                .map(|n| (k.clone(), n))
                .ok_or_else(|| format!("counter {k} is not an integer"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        let mut h = Histogram::new("link");
        h.record(100);
        h.record(900);
        Trace {
            total_ns: 5_000,
            counters: vec![("cas_retries".into(), 3), ("edges_linked".into(), 42)],
            spans: vec![
                SpanRecord {
                    name: "link[0]".into(),
                    depth: 0,
                    start_ns: 0,
                    dur_ns: 100,
                    counters: vec![("edges_linked".into(), 40)],
                },
                SpanRecord {
                    name: "link[1]".into(),
                    depth: 0,
                    start_ns: 150,
                    dur_ns: 900,
                    counters: vec![("edges_linked".into(), 2)],
                },
                SpanRecord {
                    name: "compress[0]".into(),
                    depth: 1,
                    start_ns: 200,
                    dur_ns: 50,
                    counters: vec![],
                },
            ],
            histograms: vec![h],
        }
    }

    #[test]
    fn json_roundtrip_is_lossless() {
        let t = sample();
        let back = Trace::from_json(&t.to_json()).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn json_roundtrip_empty() {
        let t = Trace::default();
        assert!(t.is_empty());
        let back = Trace::from_json(&t.to_json()).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn phase_totals_group_by_base_and_depth() {
        let rows = sample().phase_totals();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].name, "link");
        assert_eq!(rows[0].count, 2);
        assert_eq!(rows[0].total_ns, 1_000);
        assert_eq!(rows[1].name, "compress");
        assert_eq!(rows[1].depth, 1);
    }

    #[test]
    fn counter_lookup() {
        let t = sample();
        assert_eq!(t.counter("edges_linked"), 42);
        assert_eq!(t.counter("absent"), 0);
        assert_eq!(t.spans[0].counter("edges_linked"), 40);
    }

    #[test]
    fn depth_totals() {
        let t = sample();
        assert_eq!(t.depth_total_ns(0), 1_000);
        assert_eq!(t.depth_total_ns(1), 50);
    }

    #[test]
    fn csv_has_counter_columns() {
        let csv = sample().to_csv();
        let mut lines = csv.lines();
        assert_eq!(
            lines.next(),
            Some("name,depth,start_ns,dur_ns,edges_linked")
        );
        assert_eq!(lines.next(), Some("link[0],0,0,100,40"));
        assert_eq!(csv.lines().count(), 4);
    }

    #[test]
    fn histogram_buckets_and_mean() {
        let mut h = Histogram::new("x");
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(1024);
        assert_eq!(h.count, 4);
        assert_eq!(h.mean_ns(), (1 + 2 + 3 + 1024) / 4);
        assert_eq!(h.min_ns, 1);
        assert_eq!(h.max_ns, 1024);
        // 1 → bucket 0; 2,3 → bucket 1; 1024 → bucket 10.
        assert_eq!(h.buckets, vec![(0, 1), (1, 2), (10, 1)]);
    }

    #[test]
    fn histogram_merge_combines_buckets() {
        let mut a = Histogram::new("lat");
        a.record(10);
        a.record(1000);
        let mut b = Histogram::new("other");
        b.record(3);
        b.record(1000);
        a.merge(&b);
        assert_eq!(a.name, "lat");
        assert_eq!(a.count, 4);
        assert_eq!(a.sum_ns, 2013);
        assert_eq!(a.min_ns, 3);
        assert_eq!(a.max_ns, 1000);
        // 3 → bucket 1; 10 → bucket 3; 1000 ×2 → bucket 9.
        assert_eq!(a.buckets, vec![(1, 1), (3, 1), (9, 2)]);
    }

    #[test]
    fn histogram_percentiles_bracket_the_data() {
        let mut h = Histogram::new("lat");
        for _ in 0..90 {
            h.record(100);
        }
        for _ in 0..10 {
            h.record(10_000);
        }
        // p50 lands in the 100 ns bucket [64,128); p99 in [8192,16384).
        let p50 = h.percentile(0.50);
        assert!((100..256).contains(&(p50 as usize)), "p50 = {p50}");
        let p99 = h.percentile(0.99);
        assert!((10_000..16_384).contains(&(p99 as usize)), "p99 = {p99}");
        // Quantile edges are clamped to observed extremes.
        assert!(h.percentile(0.0) >= h.min_ns);
        assert!(h.percentile(1.0) <= h.max_ns);
        assert_eq!(Histogram::new("empty").percentile(0.5), 0);
    }

    #[test]
    fn percentile_empty_returns_documented_sentinel() {
        let h = Histogram::new("empty");
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.percentile(q), Histogram::NO_SAMPLES);
        }
        assert_eq!(h.count, 0);
        assert_eq!(h.min_ns, u64::MAX);
    }

    #[test]
    fn percentile_single_sample_is_exact_not_bucket_bound() {
        // 1000 lands in bucket 9 ([512, 1023]); the naive bucket answer
        // would be the 1023 upper edge. A single sample must come back
        // exactly, at every quantile.
        let mut h = Histogram::new("one");
        h.record(1000);
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(h.percentile(q), 1000, "q = {q}");
        }
    }

    #[test]
    fn merge_of_disjoint_bucket_histograms() {
        // a occupies buckets {1, 3}; b occupies {9, 20} — no overlap.
        let mut a = Histogram::new("a");
        a.record(3);
        a.record(10);
        let mut b = Histogram::new("b");
        b.record(1000);
        b.record(1_500_000);
        a.merge(&b);
        assert_eq!(a.count, 4);
        assert_eq!(a.sum_ns, 3 + 10 + 1000 + 1_500_000);
        assert_eq!(a.min_ns, 3);
        assert_eq!(a.max_ns, 1_500_000);
        assert_eq!(a.buckets, vec![(1, 1), (3, 1), (9, 1), (20, 1)]);
        // The merged quantiles walk the combined buckets in order.
        assert!(a.percentile(0.25) <= 10);
        assert!(a.percentile(1.0) >= 1_000_000);
        // Merging into an empty histogram preserves the other side's
        // extremes (min must not stay at the empty sentinel MAX).
        let mut empty = Histogram::new("sink");
        empty.merge(&b);
        assert_eq!(empty.min_ns, 1000);
        assert_eq!(empty.max_ns, 1_500_000);
        assert_eq!(empty.count, 2);
    }

    #[test]
    fn base_name_strips_index() {
        assert_eq!(base_of("link[12]"), "link");
        assert_eq!(base_of("final-link"), "final-link");
    }

    #[test]
    fn from_json_rejects_malformed() {
        assert!(Trace::from_json("{}").is_err());
        assert!(Trace::from_json("not json").is_err());
        assert!(Trace::from_json(r#"{"total_ns":1,"spans":[{"depth":0}]}"#).is_err());
    }

    #[test]
    fn spans_named_filters_by_base() {
        let t = sample();
        assert_eq!(t.spans_named("link").count(), 2);
        assert_eq!(t.spans_named("compress").count(), 1);
        assert_eq!(t.spans_named("nope").count(), 0);
    }
}
