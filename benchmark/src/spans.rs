//! Spans recorded by the benchmark's own code around each call into a
//! layer of the library (`deliver`, `wait`, `submit`, `wait_result`,
//! `send_msg`, `fence`, `instantiate`, `MraTtg::run`).
//!
//! Every workload is driven by one generator thread, so the recorder is
//! a plain `Vec` behind `&mut`: no lock, no atomics. Spans stay in
//! memory and are written out when the process ends. A disabled tracer
//! reads no clock and records nothing, so the same workload code serves
//! the timed and the traced run.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::time::Instant;

/// Index of a span in its [`Tracer`]; `SpanId::NONE` has no span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

impl SpanId {
    pub const NONE: SpanId = SpanId(u32::MAX);
}

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one (`SpanId::NONE` for a root).
    pub parent: SpanId,
    /// Shared by all spans of one graph, epoch or repetition.
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn disabled() -> Tracer {
        Tracer {
            enabled: false,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// A recording tracer with room for `capacity` spans, reserved up
    /// front so that recording allocates nothing while allocations are
    /// being counted.
    pub fn with_capacity(capacity: usize) -> Tracer {
        Tracer {
            enabled: true,
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, parent: SpanId, request: u64) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        SpanId(self.spans.len() as u32 - 1)
    }

    pub fn end(&mut self, id: SpanId) {
        if id != SpanId::NONE {
            let now = self.now_ns();
            self.spans[id.0 as usize].end_ns = now;
        }
    }

    /// Times `f` as one span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, parent, request);
        let r = f();
        self.end(id);
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of that
/// interval its child spans cover (children may overlap each other, so
/// their intervals are merged first).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != SpanId::NONE {
            children[s.parent.0 as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Summary of all spans of one name.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanStat {
    pub name: String,
    pub count: u64,
    pub total_ns: u64,
    pub p50_ns: f64,
    pub p99_ns: f64,
}

/// One [`SpanStat`] per span name, in name order.
pub fn summarize(spans: &[Span]) -> Vec<SpanStat> {
    let mut durations: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for s in spans {
        durations
            .entry(s.name)
            .or_default()
            .push(s.duration_ns() as f64);
    }
    durations
        .into_iter()
        .map(|(name, d)| SpanStat {
            name: name.to_string(),
            count: d.len() as u64,
            total_ns: d.iter().sum::<f64>() as u64,
            p50_ns: crate::stats::percentile(&d, 50.0),
            p99_ns: crate::stats::percentile(&d, 99.0),
        })
        .collect()
}

/// Renders spans as a JSON array, one object per span with its self
/// time (written by hand: a trace can hold a hundred thousand spans).
pub fn to_json(spans: &[Span]) -> String {
    use std::fmt::Write as _;
    let selfs = self_times(spans);
    let mut out = String::with_capacity(spans.len() * 96 + 2);
    out.push('[');
    for (i, (s, self_ns)) in spans.iter().zip(selfs).enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = if s.parent == SpanId::NONE {
            -1
        } else {
            i64::from(s.parent.0)
        };
        let _ = write!(
            out,
            "\n{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
             \"request\":{},\"self_ns\":{self_ns}}}",
            s.name, s.start_ns, s.end_ns, s.request
        );
    }
    out.push_str("\n]");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: SpanId) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("rep", 0, 100, SpanId::NONE),
            // Two overlapping children cover 10..50, a third 60..70,
            // a fourth sticks out past the parent's end.
            span("a", 10, 40, SpanId(0)),
            span("b", 30, 50, SpanId(0)),
            span("c", 60, 70, SpanId(0)),
            span("d", 90, 130, SpanId(0)),
            span("leaf", 12, 20, SpanId(1)),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], 100 - 40 - 10 - 10);
        assert_eq!(selfs[1], 30 - 8);
        assert_eq!(selfs[2], 20);
        assert_eq!(selfs[5], 8);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        let id = t.begin("x", SpanId::NONE, 1);
        assert_eq!(id, SpanId::NONE);
        t.end(id);
        assert_eq!(t.span("y", SpanId::NONE, 1, || 7), 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn enabled_tracer_nests_and_summarizes() {
        let mut t = Tracer::with_capacity(8);
        let root = t.begin("rep", SpanId::NONE, 3);
        t.span("call", root, 3, || std::hint::black_box(1 + 1));
        t.span("call", root, 3, || std::hint::black_box(2 + 2));
        t.end(root);
        assert_eq!(t.spans().len(), 3);
        assert!(t.spans()[1..].iter().all(|s| s.parent == root));
        let sum = summarize(t.spans());
        assert_eq!(sum.len(), 2);
        assert_eq!((sum[0].name.as_str(), sum[0].count), ("call", 2));
        assert_eq!((sum[1].name.as_str(), sum[1].count), ("rep", 1));
        assert!(sum[1].total_ns >= sum[0].total_ns);
        let json = to_json(t.spans());
        let parsed: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        assert_eq!(parsed.as_array().map(Vec::len), Some(3));
    }
}
