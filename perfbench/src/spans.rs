//! Span bookkeeping for the traced run.
//!
//! Each process keeps only its newest 1024 spans, so the harness dumps
//! every ring every cycle and merges the dumps here (a span seen twice
//! is kept once). Self time is a span's duration minus the part of its
//! interval that its children — from any process, linked by the parent
//! span id that rode the wire — cover.

use afforest_obs::reqtrace::{Span, Stage};
use std::collections::{HashMap, HashSet};

#[derive(Default)]
pub struct SpanLog {
    /// Keyed by (process, span id): span ids are unique per process.
    spans: HashMap<(usize, u64), Span>,
}

impl SpanLog {
    /// Merges one `DumpTraces` answer from process `proc`.
    pub fn absorb(&mut self, proc: usize, spans: Vec<Span>) {
        for s in spans {
            self.spans.insert((proc, s.span_id), s);
        }
    }

    /// Self times (ns) of every `stage` span whose trace is in `traces`.
    pub fn self_times(&self, stage: Stage, traces: &HashSet<u64>) -> Vec<f64> {
        let mut children: HashMap<u64, Vec<&Span>> = HashMap::new();
        for s in self.spans.values() {
            if s.parent_span != 0 {
                children.entry(s.parent_span).or_default().push(s);
            }
        }
        self.spans
            .values()
            .filter(|s| s.stage == stage.code() && traces.contains(&s.trace_id))
            .map(|s| {
                let kids = children.get(&s.span_id).map_or(&[][..], Vec::as_slice);
                self_time_ns(s, kids) as f64
            })
            .collect()
    }
}

/// `parent.dur_ns` minus the union of `children`'s intervals clipped to
/// the parent's. Starts are wall-clock microseconds (comparable across
/// processes on one host), durations nanoseconds.
pub fn self_time_ns(parent: &Span, children: &[&Span]) -> u64 {
    let p_start = parent.start_us.saturating_mul(1000);
    let p_end = p_start.saturating_add(parent.dur_ns);
    let mut covered: Vec<(u64, u64)> = children
        .iter()
        .map(|c| {
            let start = c.start_us.saturating_mul(1000);
            (
                start.max(p_start),
                start.saturating_add(c.dur_ns).min(p_end),
            )
        })
        .filter(|(a, b)| a < b)
        .collect();
    covered.sort_unstable();
    let mut total = 0u64;
    let mut reach = 0u64;
    for (a, b) in covered {
        let a = a.max(reach);
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    parent.dur_ns.saturating_sub(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, stage: Stage, start_us: u64, dur_ns: u64) -> Span {
        Span {
            trace_id: 9,
            span_id: id,
            parent_span: parent,
            stage: stage.code(),
            arg: 0,
            start_us,
            dur_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_clipped_children() {
        let root = span(1, 0, Stage::RouterRequest, 100, 100_000); // [100us, 200us)
        let a = span(2, 1, Stage::ShardFanout, 110, 20_000); // [110, 130)
        let b = span(3, 1, Stage::ShardFanout, 120, 20_000); // [120, 140) overlaps a
        let late = span(4, 1, Stage::QueueWait, 190, 50_000); // clipped to [190, 200)
        let outside = span(5, 1, Stage::RouterDecode, 40, 50_000); // ends at 90: no overlap
        assert_eq!(self_time_ns(&root, &[]), 100_000);
        assert_eq!(self_time_ns(&root, &[&a, &b]), 70_000);
        assert_eq!(self_time_ns(&root, &[&a, &b, &late, &outside]), 60_000);
    }

    #[test]
    fn log_dedupes_dumps_and_links_children_across_processes() {
        let mut log = SpanLog::default();
        let root = span(1, 0, Stage::ShardFanout, 0, 10_000);
        let remote = span(7, 1, Stage::ShardRequest, 2, 3_000);
        log.absorb(0, vec![root]);
        log.absorb(0, vec![root]); // the same ring dumped twice
        log.absorb(1, vec![remote]);
        let traces = HashSet::from([9]);
        assert_eq!(log.self_times(Stage::ShardFanout, &traces), vec![7_000.0]);
        assert_eq!(log.self_times(Stage::ShardRequest, &traces), vec![3_000.0]);
        assert!(log
            .self_times(Stage::ShardFanout, &HashSet::new())
            .is_empty());
    }
}
