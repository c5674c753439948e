//! Fixed-capacity time series of metrics deltas — the memory behind
//! the live `/timeseries.json` endpoint.
//!
//! A [`TimeSeriesRecorder`] is fed whole [`MetricsSnapshot`]s by the
//! existing [`PeriodicSampler`](crate::metrics::PeriodicSampler); each
//! feed becomes one [`TimePoint`] holding the *delta* of every counter
//! since the previous point (so a plot of steals/sec or frames/sec
//! falls straight out) plus gauge samples for the histogram quantiles
//! (p50/p95/p99/mean, which are not meaningfully differentiable).
//!
//! The ring is fixed-capacity by design: a rank that runs for hours
//! must not grow its telemetry without bound. On overflow the recorder
//! *downsamples to half resolution* — adjacent points merge pairwise
//! (deltas add, the later point's gauges and timestamp win), the
//! effective interval doubles, and recording continues. History is
//! never silently truncated; it just gets coarser, and the JSON export
//! reports how many times that happened.

use crate::metrics::{MetricsSnapshot, Sample};
use crate::obj;
use parking_lot::Mutex;
use serde::Value;
use std::collections::VecDeque;
use std::time::{SystemTime, UNIX_EPOCH};

/// One sampling instant: counter deltas since the previous point and
/// gauge values at this point.
#[derive(Debug, Clone)]
pub struct TimePoint {
    /// Wall-clock unix milliseconds when the sample landed.
    pub t_unix_ms: u64,
    /// Counter increments since the previous point, name → delta.
    pub deltas: Vec<(String, u64)>,
    /// Instantaneous gauges (histogram quantiles), name → value.
    pub gauges: Vec<(String, f64)>,
}

struct TsInner {
    points: VecDeque<TimePoint>,
    /// Last *absolute* counter values seen, for delta computation.
    last_abs: Vec<(String, u64)>,
    /// Effective sampling interval after downsampling (doubles each
    /// downsample); a rendering hint only.
    interval_hint_ms: u64,
    /// How many half-resolution merges have happened.
    downsamples: u64,
    samples_total: u64,
}

/// Fixed-capacity ring of [`TimePoint`]s with half-resolution
/// downsampling on overflow. All methods are thread-safe; `record` is
/// called from the sampler thread, exports from the HTTP server and
/// the flight recorder.
pub struct TimeSeriesRecorder {
    capacity: usize,
    inner: Mutex<TsInner>,
}

impl TimeSeriesRecorder {
    /// Creates a recorder holding up to `capacity` points (rounded up
    /// to 2 so pairwise downsampling always makes progress).
    /// `interval_hint_ms` is the sampler's nominal period.
    pub fn new(capacity: usize, interval_hint_ms: u64) -> Self {
        TimeSeriesRecorder {
            capacity: capacity.max(2),
            inner: Mutex::new(TsInner {
                points: VecDeque::new(),
                last_abs: Vec::new(),
                interval_hint_ms: interval_hint_ms.max(1),
                downsamples: 0,
                samples_total: 0,
            }),
        }
    }

    /// Maximum number of points kept.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Points currently held.
    pub fn len(&self) -> usize {
        self.inner.lock().points.len()
    }

    /// Whether no samples have been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// How many half-resolution merges have occurred.
    pub fn downsamples(&self) -> u64 {
        self.inner.lock().downsamples
    }

    /// Feeds one metrics snapshot, stamped with the current wall clock.
    pub fn record(&self, snap: &MetricsSnapshot) {
        let now_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        self.record_at(snap, now_ms);
    }

    /// Feeds one metrics snapshot with an explicit timestamp (testable
    /// entry point; `record` is the production path).
    pub fn record_at(&self, snap: &MetricsSnapshot, t_unix_ms: u64) {
        let mut inner = self.inner.lock();
        let (mut deltas, mut gauges) = (Vec::new(), Vec::new());
        for series in snap.series.iter().filter(|s| s.labels.is_empty()) {
            let name = &series.name;
            let abs = match &series.sample {
                Sample::Counter(abs) => *abs,
                Sample::Gauge(_) => continue,
                Sample::Histogram(h) => {
                    gauges.push((format!("{name}_p50_ns"), h.p50() as f64));
                    gauges.push((format!("{name}_p95_ns"), h.p95() as f64));
                    gauges.push((format!("{name}_p99_ns"), h.p99() as f64));
                    gauges.push((format!("{name}_count"), h.count() as f64));
                    continue;
                }
            };
            let prev = match inner.last_abs.iter_mut().find(|(n, _)| n == name) {
                Some((_, p)) => std::mem::replace(p, abs),
                None => {
                    // A series appearing on the very first sample is a true
                    // baseline-0 counter. One appearing *mid-run* (e.g. the
                    // only-when-nonzero resilience counters: `rejoins`,
                    // `frames_replayed`) has been accumulating invisibly;
                    // recording its absolute as a delta would plot a spike
                    // that never happened, so baseline it at its current
                    // value instead (first delta 0).
                    let baseline = if inner.samples_total == 0 { 0 } else { abs };
                    inner.last_abs.push((name.clone(), abs));
                    baseline
                }
            };
            // Counters are monotonic; a smaller value means the source
            // restarted, in which case the new absolute is the delta.
            let delta = if abs >= prev { abs - prev } else { abs };
            deltas.push((name.clone(), delta));
        }
        inner.points.push_back(TimePoint {
            t_unix_ms,
            deltas,
            gauges,
        });
        inner.samples_total += 1;
        if inner.points.len() > self.capacity {
            Self::downsample(&mut inner);
        }
    }

    /// Merges adjacent point pairs: deltas add (the merged window saw
    /// both increments), the later point's gauges and timestamp win
    /// (most recent observation). An odd trailing point survives as-is.
    fn downsample(inner: &mut TsInner) {
        let old: Vec<TimePoint> = inner.points.drain(..).collect();
        let mut merged = VecDeque::with_capacity(old.len() / 2 + 1);
        let mut it = old.into_iter();
        while let Some(first) = it.next() {
            match it.next() {
                Some(mut second) => {
                    for (name, d) in first.deltas {
                        match second.deltas.iter_mut().find(|(n, _)| *n == name) {
                            Some((_, mine)) => *mine += d,
                            None => second.deltas.push((name, d)),
                        }
                    }
                    merged.push_back(second);
                }
                None => merged.push_back(first),
            }
        }
        inner.points = merged;
        inner.interval_hint_ms = inner.interval_hint_ms.saturating_mul(2);
        inner.downsamples += 1;
    }

    /// Renders the whole series as a JSON value tree.
    pub fn to_value(&self) -> Value {
        let inner = self.inner.lock();
        let points = inner
            .points
            .iter()
            .map(|p| {
                obj(vec![
                    ("t_unix_ms", Value::UInt(p.t_unix_ms)),
                    (
                        "deltas",
                        Value::Object(
                            p.deltas
                                .iter()
                                .map(|(k, v)| (k.clone(), Value::UInt(*v)))
                                .collect(),
                        ),
                    ),
                    (
                        "gauges",
                        Value::Object(
                            p.gauges
                                .iter()
                                .map(|(k, v)| (k.clone(), Value::Float(*v)))
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        obj(vec![
            ("schema", Value::UInt(1)),
            ("interval_hint_ms", Value::UInt(inner.interval_hint_ms)),
            ("downsamples", Value::UInt(inner.downsamples)),
            ("samples_total", Value::UInt(inner.samples_total)),
            ("points", Value::Array(points)),
        ])
    }

    /// Renders the whole series as pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(&self.to_value()).expect("timeseries serialization")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ttg_runtime::obs::hist::LatencyHistogram;

    fn snap(tasks: u64, steals: u64) -> MetricsSnapshot {
        let mut m = MetricsSnapshot::with_labels(vec![("rank".to_string(), "0".to_string())]);
        m.push("tasks_executed", vec![], Sample::Counter(tasks));
        m.push("steals", vec![], Sample::Counter(steals));
        m
    }

    #[test]
    fn deltas_not_absolutes() {
        let ts = TimeSeriesRecorder::new(16, 100);
        ts.record_at(&snap(10, 1), 1000);
        ts.record_at(&snap(25, 1), 1100);
        ts.record_at(&snap(40, 5), 1200);
        let v: Value = serde_json::from_str(&ts.to_json()).unwrap();
        let points = v.get("points").unwrap().as_array().unwrap();
        assert_eq!(points.len(), 3);
        let d = |i: usize, name: &str| {
            points[i]
                .get("deltas")
                .unwrap()
                .get(name)
                .unwrap()
                .as_u64()
                .unwrap()
        };
        // First point's delta is its absolute (baseline 0).
        assert_eq!(d(0, "tasks_executed"), 10);
        assert_eq!(d(1, "tasks_executed"), 15);
        assert_eq!(d(2, "tasks_executed"), 15);
        assert_eq!(d(2, "steals"), 4);
    }

    #[test]
    fn histogram_quantiles_become_gauges() {
        let h = LatencyHistogram::new();
        for _ in 0..100 {
            h.record(1_000);
        }
        let mut m = snap(1, 0);
        m.push(
            "task_duration",
            vec![],
            Sample::Histogram(Box::new(h.snapshot())),
        );
        let ts = TimeSeriesRecorder::new(8, 100);
        ts.record_at(&m, 1000);
        let v: Value = serde_json::from_str(&ts.to_json()).unwrap();
        let g = v.get("points").unwrap().as_array().unwrap()[0]
            .get("gauges")
            .unwrap()
            .clone();
        assert!(g.get("task_duration_p50_ns").unwrap().as_f64().unwrap() >= 1_000.0);
        assert_eq!(g.get("task_duration_count").unwrap().as_f64(), Some(100.0));
    }

    #[test]
    fn overflow_downsamples_preserving_delta_totals() {
        let ts = TimeSeriesRecorder::new(4, 100);
        // 9 samples of +10 tasks each into a capacity-4 ring.
        for i in 1..=9u64 {
            ts.record_at(&snap(i * 10, 0), 1000 + i * 100);
        }
        assert!(ts.downsamples() >= 1, "ring never downsampled");
        assert!(ts.len() <= 4);
        let v: Value = serde_json::from_str(&ts.to_json()).unwrap();
        let points = v.get("points").unwrap().as_array().unwrap();
        // Total delta across the (coarsened) series still equals the
        // total counter growth: nothing was dropped, only merged.
        let total: u64 = points
            .iter()
            .map(|p| {
                p.get("deltas")
                    .unwrap()
                    .get("tasks_executed")
                    .unwrap()
                    .as_u64()
                    .unwrap()
            })
            .sum();
        assert_eq!(total, 90);
        // Interval hint doubled at least once.
        assert!(v.get("interval_hint_ms").unwrap().as_u64().unwrap() >= 200);
        // Timestamps stay monotonic after merging.
        let stamps: Vec<u64> = points
            .iter()
            .map(|p| p.get("t_unix_ms").unwrap().as_u64().unwrap())
            .collect();
        assert!(stamps.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn mid_run_counter_baselines_instead_of_spiking() {
        // Only-when-nonzero counters (e.g. `rejoins`) first appear in a
        // snapshot long after sampling started. Their first observation
        // must establish a baseline, not report the whole absolute as a
        // single-window delta.
        let ts = TimeSeriesRecorder::new(16, 100);
        ts.record_at(&snap(10, 0), 1000);
        ts.record_at(&snap(20, 0), 1100);
        let mut with_rejoins = snap(30, 0);
        with_rejoins.push("rejoins", vec![], Sample::Counter(5));
        ts.record_at(&with_rejoins, 1200);
        let mut more = snap(40, 0);
        more.push("rejoins", vec![], Sample::Counter(7));
        ts.record_at(&more, 1300);
        let v: Value = serde_json::from_str(&ts.to_json()).unwrap();
        let points = v.get("points").unwrap().as_array().unwrap();
        let d = |i: usize, name: &str| {
            points[i]
                .get("deltas")
                .unwrap()
                .get(name)
                .unwrap()
                .as_u64()
                .unwrap()
        };
        // First sighting mid-run: delta 0 (baseline), not 5.
        assert_eq!(d(2, "rejoins"), 0);
        // Subsequent samples delta normally.
        assert_eq!(d(3, "rejoins"), 2);
        // Counters present from the very first sample still report their
        // absolute as the first delta (baseline 0 — nothing pre-dated
        // sampling).
        assert_eq!(d(0, "tasks_executed"), 10);
    }

    #[test]
    fn counter_reset_does_not_underflow() {
        let ts = TimeSeriesRecorder::new(8, 100);
        ts.record_at(&snap(100, 0), 1000);
        ts.record_at(&snap(3, 0), 1100); // source restarted
        let v: Value = serde_json::from_str(&ts.to_json()).unwrap();
        let points = v.get("points").unwrap().as_array().unwrap();
        let d = points[1]
            .get("deltas")
            .unwrap()
            .get("tasks_executed")
            .unwrap()
            .as_u64()
            .unwrap();
        assert_eq!(d, 3);
    }
}
