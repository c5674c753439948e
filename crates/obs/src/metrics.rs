//! Metrics snapshot export: JSON and Prometheus text format, plus an
//! optional periodic sampler thread.
//!
//! [`MetricsSnapshot`] is deliberately generic — labels, named
//! counters, named histograms; [`runtime_metrics`] flattens one
//! runtime's `RuntimeStats`, histograms, load gauges and wire recorder
//! into one. Snapshots from several ranks merge by counter addition and
//! histogram merge.

use serde::Value;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;
use ttg_runtime::obs::hist::{bucket_upper_bound, HistogramSnapshot, HIST_BUCKETS};
use ttg_runtime::Runtime;

/// A set of Prometheus-style labels: `(name, value)` pairs.
pub type LabelSet = Vec<(String, String)>;

/// One value offered to [`MetricsSnapshot::emit_if_set`].
#[derive(Debug, Clone, Copy)]
pub enum Sample<'a> {
    /// A monotonic counter.
    Counter(u64),
    /// An instantaneous gauge.
    Gauge(u64),
    /// A latency histogram (values in ns).
    Histogram(&'a HistogramSnapshot),
}

/// One observation of a process's counters and histograms.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Static identity labels (e.g. `rank`), attached to every
    /// Prometheus sample.
    pub labels: LabelSet,
    /// Monotonic counters, name → value.
    pub counters: Vec<(String, u64)>,
    /// Instantaneous gauges (queue depths, running-task counts), name →
    /// value. Unlike counters these describe "now", not "since start".
    /// Absent gauges leave both exports byte-identical to the
    /// pre-gauge format.
    pub gauges: Vec<(String, u64)>,
    /// Gauges carrying per-sample labels beyond the identity set (e.g.
    /// per-worker queue depths): name, extra labels, value.
    pub labeled_gauges: Vec<(String, LabelSet, u64)>,
    /// Latency histograms, name → snapshot (values in ns).
    pub histograms: Vec<(String, HistogramSnapshot)>,
    /// Counters carrying per-sample labels beyond the identity set
    /// (e.g. per-tenant serving counters): name, extra labels, value.
    pub labeled_counters: Vec<(String, LabelSet, u64)>,
    /// Histograms carrying per-sample labels: name, extra labels,
    /// snapshot (values in ns).
    pub labeled_histograms: Vec<(String, LabelSet, HistogramSnapshot)>,
    /// OpenMetrics exemplars for labeled histograms: metric name,
    /// matching extra labels, exemplar labels (e.g. `instance_id`),
    /// observed value in ns. Rendered on the matching histogram's
    /// `+Inf` bucket line; absent exemplars leave the output
    /// byte-identical.
    pub labeled_exemplars: Vec<(String, LabelSet, LabelSet, u64)>,
}

impl MetricsSnapshot {
    /// Creates an empty snapshot with identity labels.
    pub fn with_labels(labels: Vec<(String, String)>) -> Self {
        MetricsSnapshot {
            labels,
            counters: Vec::new(),
            gauges: Vec::new(),
            labeled_gauges: Vec::new(),
            histograms: Vec::new(),
            labeled_counters: Vec::new(),
            labeled_histograms: Vec::new(),
            labeled_exemplars: Vec::new(),
        }
    }

    /// Appends a counter sample.
    pub fn counter(&mut self, name: &str, value: u64) {
        self.counters.push((name.to_string(), value));
    }

    /// Appends a gauge sample (instantaneous value).
    pub fn gauge(&mut self, name: &str, value: u64) {
        self.gauges.push((name.to_string(), value));
    }

    /// Appends a gauge sample with extra labels (e.g.
    /// `("worker", "3")`) merged into the identity labels on export.
    pub fn labeled_gauge(&mut self, name: &str, labels: Vec<(String, String)>, value: u64) {
        self.labeled_gauges.push((name.to_string(), labels, value));
    }

    /// Appends a histogram sample.
    pub fn histogram(&mut self, name: &str, snap: HistogramSnapshot) {
        self.histograms.push((name.to_string(), snap));
    }

    /// Appends a counter sample with extra labels (e.g.
    /// `("tenant", "acme")`) merged into the identity labels on export.
    pub fn labeled_counter(&mut self, name: &str, labels: Vec<(String, String)>, value: u64) {
        self.labeled_counters
            .push((name.to_string(), labels, value));
    }

    /// Appends a histogram sample with extra labels.
    pub fn labeled_histogram(
        &mut self,
        name: &str,
        labels: Vec<(String, String)>,
        snap: HistogramSnapshot,
    ) {
        self.labeled_histograms
            .push((name.to_string(), labels, snap));
    }

    /// Attaches an OpenMetrics exemplar to the labeled histogram
    /// matching `name`+`labels` (e.g. the instance id of the latest
    /// SLO-breaching observation). `value_ns` is the exemplar's
    /// observed latency.
    pub fn labeled_exemplar(
        &mut self,
        name: &str,
        labels: Vec<(String, String)>,
        exemplar: Vec<(String, String)>,
        value_ns: u64,
    ) {
        self.labeled_exemplars
            .push((name.to_string(), labels, exemplar, value_ns));
    }

    /// The one emit-when-set rule: appends `sample` under `name` (a
    /// labeled series when `labels` is non-empty) only if it carries
    /// information — a non-zero counter or gauge, a non-empty
    /// histogram. Everything optional (recovery counters, wire stages,
    /// link series) goes through here, which is what keeps a snapshot
    /// in which none of it happened — and every snapshot of a build
    /// with `obs` off, whose recorders do not exist — byte-identical
    /// to the format before the series was introduced.
    pub fn emit_if_set(&mut self, name: &str, labels: LabelSet, sample: Sample) {
        match (sample, labels.is_empty()) {
            (Sample::Counter(0) | Sample::Gauge(0), _) => {}
            (Sample::Histogram(h), _) if h.count() == 0 => {}
            (Sample::Counter(v), true) => self.counter(name, v),
            (Sample::Counter(v), false) => self.labeled_counter(name, labels, v),
            (Sample::Gauge(v), true) => self.gauge(name, v),
            (Sample::Gauge(v), false) => self.labeled_gauge(name, labels, v),
            (Sample::Histogram(h), true) => self.histogram(name, *h),
            (Sample::Histogram(h), false) => self.labeled_histogram(name, labels, *h),
        }
    }

    /// Folds another snapshot in: counters with the same name add,
    /// histograms with the same name merge, unknown names append.
    /// Labels keep only the entries both sides agree on.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        self.labels.retain(|l| other.labels.contains(l));
        for (name, v) in &other.counters {
            match self.counters.iter_mut().find(|(n, _)| n == name) {
                Some((_, mine)) => *mine += v,
                None => self.counters.push((name.clone(), *v)),
            }
        }
        // Gauges sum like counters under merge: the cluster view of
        // `queued_tasks` is the total currently queued across ranks.
        for (name, v) in &other.gauges {
            match self.gauges.iter_mut().find(|(n, _)| n == name) {
                Some((_, mine)) => *mine += v,
                None => self.gauges.push((name.clone(), *v)),
            }
        }
        for (name, ls, v) in &other.labeled_gauges {
            match self
                .labeled_gauges
                .iter_mut()
                .find(|(n, l, _)| n == name && l == ls)
            {
                Some((_, _, mine)) => *mine += v,
                None => self.labeled_gauges.push((name.clone(), ls.clone(), *v)),
            }
        }
        for (name, h) in &other.histograms {
            match self.histograms.iter_mut().find(|(n, _)| n == name) {
                Some((_, mine)) => mine.merge(h),
                None => self.histograms.push((name.clone(), *h)),
            }
        }
        for (name, ls, v) in &other.labeled_counters {
            match self
                .labeled_counters
                .iter_mut()
                .find(|(n, l, _)| n == name && l == ls)
            {
                Some((_, _, mine)) => *mine += v,
                None => self.labeled_counters.push((name.clone(), ls.clone(), *v)),
            }
        }
        for (name, ls, h) in &other.labeled_histograms {
            match self
                .labeled_histograms
                .iter_mut()
                .find(|(n, l, _)| n == name && l == ls)
            {
                Some((_, _, mine)) => mine.merge(h),
                None => self.labeled_histograms.push((name.clone(), ls.clone(), *h)),
            }
        }
        for (name, ls, ex, v) in &other.labeled_exemplars {
            // Exemplars don't add: the incoming one replaces (latest
            // observation wins).
            match self
                .labeled_exemplars
                .iter_mut()
                .find(|(n, l, _, _)| n == name && l == ls)
            {
                Some(slot) => {
                    slot.2 = ex.clone();
                    slot.3 = *v;
                }
                None => self
                    .labeled_exemplars
                    .push((name.clone(), ls.clone(), ex.clone(), *v)),
            }
        }
    }

    /// Renders as a JSON value tree: labels and counters as objects,
    /// histograms with count/sum/max/mean and percentile summaries.
    pub fn to_value(&self) -> Value {
        let labels = Value::Object(
            self.labels
                .iter()
                .map(|(k, v)| (k.clone(), Value::String(v.clone())))
                .collect(),
        );
        let counters = Value::Object(
            self.counters
                .iter()
                .map(|(k, v)| (k.clone(), Value::UInt(*v)))
                .collect(),
        );
        let histograms = Value::Object(
            self.histograms
                .iter()
                .map(|(k, h)| {
                    (
                        k.clone(),
                        Value::Object(vec![
                            ("count".to_string(), Value::UInt(h.count())),
                            ("sum_ns".to_string(), Value::UInt(h.sum)),
                            ("max_ns".to_string(), Value::UInt(h.max)),
                            ("mean_ns".to_string(), Value::Float(h.mean())),
                            ("p50_ns".to_string(), Value::UInt(h.p50())),
                            ("p95_ns".to_string(), Value::UInt(h.p95())),
                            ("p99_ns".to_string(), Value::UInt(h.p99())),
                            ("buckets".to_string(), sparse_buckets(h)),
                        ]),
                    )
                })
                .collect(),
        );
        let mut fields = vec![
            ("labels".to_string(), labels),
            ("counters".to_string(), counters),
            ("histograms".to_string(), histograms),
        ];
        if !self.gauges.is_empty() {
            fields.push((
                "gauges".to_string(),
                Value::Object(
                    self.gauges
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::UInt(*v)))
                        .collect(),
                ),
            ));
        }
        if !self.labeled_gauges.is_empty() {
            fields.push((
                "labeled_gauges".to_string(),
                Value::Array(
                    self.labeled_gauges
                        .iter()
                        .map(|(k, ls, v)| {
                            Value::Object(vec![
                                ("name".to_string(), Value::String(k.clone())),
                                (
                                    "labels".to_string(),
                                    Value::Object(
                                        ls.iter()
                                            .map(|(lk, lv)| (lk.clone(), Value::String(lv.clone())))
                                            .collect(),
                                    ),
                                ),
                                ("value".to_string(), Value::UInt(*v)),
                            ])
                        })
                        .collect(),
                ),
            ));
        }
        if !self.labeled_counters.is_empty() {
            fields.push((
                "labeled_counters".to_string(),
                Value::Array(
                    self.labeled_counters
                        .iter()
                        .map(|(k, ls, v)| {
                            Value::Object(vec![
                                ("name".to_string(), Value::String(k.clone())),
                                (
                                    "labels".to_string(),
                                    Value::Object(
                                        ls.iter()
                                            .map(|(lk, lv)| (lk.clone(), Value::String(lv.clone())))
                                            .collect(),
                                    ),
                                ),
                                ("value".to_string(), Value::UInt(*v)),
                            ])
                        })
                        .collect(),
                ),
            ));
        }
        if !self.labeled_histograms.is_empty() {
            fields.push((
                "labeled_histograms".to_string(),
                Value::Array(
                    self.labeled_histograms
                        .iter()
                        .map(|(k, ls, h)| {
                            Value::Object(vec![
                                ("name".to_string(), Value::String(k.clone())),
                                (
                                    "labels".to_string(),
                                    Value::Object(
                                        ls.iter()
                                            .map(|(lk, lv)| (lk.clone(), Value::String(lv.clone())))
                                            .collect(),
                                    ),
                                ),
                                ("count".to_string(), Value::UInt(h.count())),
                                ("sum_ns".to_string(), Value::UInt(h.sum)),
                                ("max_ns".to_string(), Value::UInt(h.max)),
                                ("mean_ns".to_string(), Value::Float(h.mean())),
                                ("p50_ns".to_string(), Value::UInt(h.p50())),
                                ("p99_ns".to_string(), Value::UInt(h.p99())),
                                ("buckets".to_string(), sparse_buckets(h)),
                            ])
                        })
                        .collect(),
                ),
            ));
        }
        Value::Object(fields)
    }

    /// Renders as pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(&self.to_value()).expect("metrics serialization cannot fail")
    }

    /// Rebuilds a snapshot from its own [`MetricsSnapshot::to_value`]
    /// tree — the shape served by `/metrics.json`. Histograms are
    /// reconstructed exactly from the sparse `buckets` wire field (the
    /// summary quantiles are recomputed, not trusted), which is what
    /// lets the cluster aggregator re-merge scraped per-rank snapshots
    /// with the same machinery used in-process. Returns `None` when the
    /// tree is not a metrics snapshot at all; unknown fields are
    /// ignored, missing optional sections parse as empty.
    pub fn from_value(v: &Value) -> Option<MetricsSnapshot> {
        let parse_labels = |v: &Value| -> LabelSet {
            v.as_object()
                .map(|fields| {
                    fields
                        .iter()
                        .filter_map(|(k, v)| v.as_str().map(|s| (k.clone(), s.to_string())))
                        .collect()
                })
                .unwrap_or_default()
        };
        let parse_u64_map = |v: Option<&Value>| -> Vec<(String, u64)> {
            v.and_then(Value::as_object)
                .map(|fields| {
                    fields
                        .iter()
                        .filter_map(|(k, v)| v.as_u64().map(|n| (k.clone(), n)))
                        .collect()
                })
                .unwrap_or_default()
        };
        let parse_hist = |v: &Value| -> HistogramSnapshot {
            let mut h = HistogramSnapshot::empty();
            h.sum = v.get("sum_ns").and_then(Value::as_u64).unwrap_or(0);
            h.max = v.get("max_ns").and_then(Value::as_u64).unwrap_or(0);
            if let Some(pairs) = v.get("buckets").and_then(Value::as_array) {
                for pair in pairs {
                    if let Some(p) = pair.as_array() {
                        if let (Some(i), Some(c)) = (
                            p.first().and_then(Value::as_u64),
                            p.get(1).and_then(Value::as_u64),
                        ) {
                            if (i as usize) < HIST_BUCKETS {
                                h.buckets[i as usize] = c;
                            }
                        }
                    }
                }
            }
            h
        };
        let obj = v.as_object()?;
        let mut m = MetricsSnapshot::with_labels(
            obj.iter()
                .find(|(k, _)| k == "labels")
                .map(|(_, v)| parse_labels(v))
                .unwrap_or_default(),
        );
        m.counters = parse_u64_map(v.get("counters"));
        m.gauges = parse_u64_map(v.get("gauges"));
        if let Some(fields) = v.get("histograms").and_then(Value::as_object) {
            for (name, hv) in fields {
                m.histograms.push((name.clone(), parse_hist(hv)));
            }
        }
        if let Some(items) = v.get("labeled_counters").and_then(Value::as_array) {
            for item in items {
                if let (Some(name), Some(value)) = (
                    item.get("name").and_then(Value::as_str),
                    item.get("value").and_then(Value::as_u64),
                ) {
                    let ls = item.get("labels").map(parse_labels).unwrap_or_default();
                    m.labeled_counters.push((name.to_string(), ls, value));
                }
            }
        }
        if let Some(items) = v.get("labeled_gauges").and_then(Value::as_array) {
            for item in items {
                if let (Some(name), Some(value)) = (
                    item.get("name").and_then(Value::as_str),
                    item.get("value").and_then(Value::as_u64),
                ) {
                    let ls = item.get("labels").map(parse_labels).unwrap_or_default();
                    m.labeled_gauges.push((name.to_string(), ls, value));
                }
            }
        }
        if let Some(items) = v.get("labeled_histograms").and_then(Value::as_array) {
            for item in items {
                if let Some(name) = item.get("name").and_then(Value::as_str) {
                    let ls = item.get("labels").map(parse_labels).unwrap_or_default();
                    m.labeled_histograms
                        .push((name.to_string(), ls, parse_hist(item)));
                }
            }
        }
        Some(m)
    }

    /// Renders in Prometheus text exposition format. Counters become
    /// `<prefix>_<name>`; histograms become the conventional
    /// `_bucket{le=...}` / `_sum` / `_count` triple with cumulative
    /// power-of-two buckets (empty trailing buckets are elided, `+Inf`
    /// always present). Histogram values are exported in seconds per
    /// Prometheus convention. Metrics with a known description also get
    /// a `# HELP` line (see [`help_text`]).
    pub fn to_prometheus(&self, prefix: &str) -> String {
        let mut out = String::new();
        let base_labels = |extra: Option<(&str, String)>| -> String {
            let mut parts: Vec<String> = self
                .labels
                .iter()
                .map(|(k, v)| format!("{k}=\"{v}\""))
                .collect();
            if let Some((k, v)) = extra {
                parts.push(format!("{k}=\"{v}\""));
            }
            if parts.is_empty() {
                String::new()
            } else {
                format!("{{{}}}", parts.join(","))
            }
        };

        for (name, v) in &self.counters {
            if let Some(help) = help_text(name) {
                out.push_str(&format!("# HELP {prefix}_{name} {help}\n"));
            }
            out.push_str(&format!("# TYPE {prefix}_{name} counter\n"));
            out.push_str(&format!("{prefix}_{name}{} {v}\n", base_labels(None)));
        }
        for (name, v) in &self.gauges {
            if let Some(help) = help_text(name) {
                out.push_str(&format!("# HELP {prefix}_{name} {help}\n"));
            }
            out.push_str(&format!("# TYPE {prefix}_{name} gauge\n"));
            out.push_str(&format!("{prefix}_{name}{} {v}\n", base_labels(None)));
        }
        for (name, h) in &self.histograms {
            let metric = format!("{prefix}_{name}_seconds");
            if let Some(help) = help_text(name) {
                out.push_str(&format!("# HELP {metric} {help}\n"));
            }
            out.push_str(&format!("# TYPE {metric} histogram\n"));
            let last_used = (0..HIST_BUCKETS)
                .rev()
                .find(|&i| h.buckets[i] != 0)
                .unwrap_or(0);
            let mut cumulative = 0u64;
            for i in 0..=last_used {
                cumulative += h.buckets[i];
                let le = bucket_upper_bound(i) as f64 / 1e9;
                out.push_str(&format!(
                    "{metric}_bucket{} {cumulative}\n",
                    base_labels(Some(("le", format!("{le:e}"))))
                ));
            }
            out.push_str(&format!(
                "{metric}_bucket{} {}\n",
                base_labels(Some(("le", "+Inf".to_string()))),
                h.count()
            ));
            out.push_str(&format!(
                "{metric}_sum{} {}\n",
                base_labels(None),
                h.sum as f64 / 1e9
            ));
            out.push_str(&format!(
                "{metric}_count{} {}\n",
                base_labels(None),
                h.count()
            ));
        }
        // Labeled samples: extra labels merge into the identity set.
        // HELP/TYPE emitted once per metric name (samples for a name
        // are expected to arrive grouped, but track names to be safe).
        let extra_labels = |extras: &[(String, String)], le: Option<String>| -> String {
            let mut parts: Vec<String> = self
                .labels
                .iter()
                .chain(extras.iter())
                .map(|(k, v)| format!("{k}=\"{v}\""))
                .collect();
            if let Some(v) = le {
                parts.push(format!("le=\"{v}\""));
            }
            if parts.is_empty() {
                String::new()
            } else {
                format!("{{{}}}", parts.join(","))
            }
        };
        let mut typed: Vec<&str> = Vec::new();
        for (name, ls, v) in &self.labeled_counters {
            if !typed.contains(&name.as_str()) {
                typed.push(name);
                if let Some(help) = help_text(name) {
                    out.push_str(&format!("# HELP {prefix}_{name} {help}\n"));
                }
                out.push_str(&format!("# TYPE {prefix}_{name} counter\n"));
            }
            out.push_str(&format!("{prefix}_{name}{} {v}\n", extra_labels(ls, None)));
        }
        let mut typed: Vec<&str> = Vec::new();
        for (name, ls, v) in &self.labeled_gauges {
            if !typed.contains(&name.as_str()) {
                typed.push(name);
                if let Some(help) = help_text(name) {
                    out.push_str(&format!("# HELP {prefix}_{name} {help}\n"));
                }
                out.push_str(&format!("# TYPE {prefix}_{name} gauge\n"));
            }
            out.push_str(&format!("{prefix}_{name}{} {v}\n", extra_labels(ls, None)));
        }
        let mut typed: Vec<&str> = Vec::new();
        for (name, ls, h) in &self.labeled_histograms {
            let metric = format!("{prefix}_{name}_seconds");
            if !typed.contains(&name.as_str()) {
                typed.push(name);
                if let Some(help) = help_text(name) {
                    out.push_str(&format!("# HELP {metric} {help}\n"));
                }
                out.push_str(&format!("# TYPE {metric} histogram\n"));
            }
            let last_used = (0..HIST_BUCKETS)
                .rev()
                .find(|&i| h.buckets[i] != 0)
                .unwrap_or(0);
            let mut cumulative = 0u64;
            for i in 0..=last_used {
                cumulative += h.buckets[i];
                let le = bucket_upper_bound(i) as f64 / 1e9;
                out.push_str(&format!(
                    "{metric}_bucket{} {cumulative}\n",
                    extra_labels(ls, Some(format!("{le:e}")))
                ));
            }
            // OpenMetrics exemplar (latest observation for this series)
            // rides on the +Inf bucket line.
            let exemplar = self
                .labeled_exemplars
                .iter()
                .find(|(n, l, _, _)| n == name && l == ls)
                .map(|(_, _, ex, v)| {
                    let ex_labels = ex
                        .iter()
                        .map(|(k, val)| format!("{k}=\"{val}\""))
                        .collect::<Vec<_>>()
                        .join(",");
                    format!(" # {{{ex_labels}}} {}", *v as f64 / 1e9)
                })
                .unwrap_or_default();
            out.push_str(&format!(
                "{metric}_bucket{} {}{exemplar}\n",
                extra_labels(ls, Some("+Inf".to_string())),
                h.count()
            ));
            out.push_str(&format!(
                "{metric}_sum{} {}\n",
                extra_labels(ls, None),
                h.sum as f64 / 1e9
            ));
            out.push_str(&format!(
                "{metric}_count{} {}\n",
                extra_labels(ls, None),
                h.count()
            ));
        }
        out
    }
}

/// Flattens `rt`'s [`Runtime::stats`] plus the latency histograms into
/// a generic metrics snapshot, renderable as JSON
/// ([`MetricsSnapshot::to_json`]) or Prometheus text
/// ([`MetricsSnapshot::to_prometheus`]) and mergeable across ranks.
pub fn runtime_metrics(rt: &Runtime) -> MetricsSnapshot {
    let s = rt.stats();
    let mut m = MetricsSnapshot::with_labels(vec![("rank".to_string(), rt.rank().to_string())]);
    m.counter("tasks_executed", s.tasks_executed);
    m.counter("parks", s.parks);
    m.counter("wave_contributions", s.wave_contributions);
    m.counter("injections_drained", s.injections_drained);
    m.counter("inlined", s.inlined);
    m.counter("messages_sent", s.messages_sent);
    m.counter("messages_received", s.messages_received);
    m.counter("bytes_sent", s.bytes_sent);
    m.counter("bytes_received", s.bytes_received);
    m.counter("frames_corrupt", s.frames_corrupt);
    m.counter("heartbeats_sent", s.heartbeats_sent);
    m.counter("peers_lost", s.peers_lost);
    m.counter("reconnects", s.reconnects);
    // Recovery counters appear only once recovery machinery has
    // actually fired, keeping fault-free snapshots byte-identical
    // with pre-recovery versions (golden-file stability).
    for (name, v) in [
        ("rejoins", s.rejoins),
        ("frames_replayed", s.frames_replayed),
        ("frames_deduped", s.frames_deduped),
        ("resend_buffer_bytes", s.resend_buffer_bytes),
        ("instances_quarantined", s.instances_quarantined),
        ("instances_retried", s.instances_retried),
    ] {
        m.emit_if_set(name, Vec::new(), Sample::Counter(v));
    }
    m.counter("queue_local_pops", s.queue.local_pops as u64);
    m.counter("queue_steals", s.queue.steals as u64);
    m.counter("queue_overflow", s.queue.overflow as u64);
    m.counter("queue_slow_pushes", s.queue.slow_pushes as u64);
    m.counter("queue_steal_attempts", s.queue.steal_attempts as u64);
    m.counter("queue_steal_empty", s.queue.steal_empty as u64);
    m.counter("queue_overflow_pops", s.queue.overflow_pops as u64);
    m.counter("queue_detach_merges", s.queue.detach_merges as u64);
    for (f, v) in ttg_sync::LOCK_FIELDS.iter().zip(s.contention.0 .0) {
        m.counter(f.metric, v);
    }
    m.counter("trace_events_dropped", s.trace_events_dropped);
    if let Some(obs) = rt.recorder() {
        if obs.histograms_enabled() {
            let task_duration = obs.task_duration();
            // Gauge basis for cluster-level utilization: busy-ns per
            // sample window divided by workers × wall-ns.
            m.counter("worker_busy_ns", task_duration.sum);
            m.histogram("task_duration", task_duration);
            m.histogram("ready_delay", obs.ready_delay());
            m.histogram("message_latency", obs.message_latency());
        }
        // Scheduler-load gauges ride along only when observability
        // is on, keeping bare-runtime snapshots byte-identical with
        // pre-gauge versions (same contract as the histograms).
        let load = rt.load();
        m.gauge("workers", rt.threads() as u64);
        m.gauge("queued_tasks", load.queued as u64);
        m.gauge("running_tasks", load.running as u64);
        m.gauge("overflow_fifo_depth", load.overflow_depth as u64);
        for (w, depth) in load.worker_depths.iter().enumerate() {
            m.labeled_gauge(
                "worker_queue_depth",
                vec![("worker".to_string(), w.to_string())],
                *depth as u64,
            );
        }
    }
    // Wire-path stage histograms and per-link series; everything in
    // the snapshot goes through `emit_if_set`, so without wire
    // activity (and in every `obs`-off build) this appends nothing
    // and the output stays byte-identical.
    crate::wire::export_into(&rt.wire_snapshot(), &mut m);
    m
}

/// Renders a histogram's non-empty buckets as a sparse
/// `[[index, count], ...]` array — the exact wire form
/// [`MetricsSnapshot::from_value`] reads back. Sparse because a typical
/// latency histogram occupies well under a dozen of its 64 buckets.
fn sparse_buckets(h: &HistogramSnapshot) -> Value {
    Value::Array(
        h.buckets
            .iter()
            .enumerate()
            .filter(|(_, c)| **c != 0)
            .map(|(i, c)| Value::Array(vec![Value::UInt(i as u64), Value::UInt(*c)]))
            .collect(),
    )
}

/// Descriptions for the `# HELP` lines of every metric the runtime
/// exports: the lock-contention and per-link families carry theirs in
/// their field tables, the rest are listed here. Names not listed
/// (application-defined counters) get no HELP line, which Prometheus
/// permits.
fn help_text(name: &str) -> Option<&'static str> {
    let lock = ttg_sync::LOCK_FIELDS.iter().map(|f| (f.metric, f.help));
    let link = crate::wire::LINK_FIELDS.iter().map(|f| (f.metric, f.help));
    if let Some((_, help)) = lock.chain(link).find(|(metric, _)| *metric == name) {
        return Some(help);
    }
    Some(match name {
        "tasks_executed" => "Tasks executed by this rank's workers.",
        "parks" => "Times a worker parked idle.",
        "wave_contributions" => "Termination-wave contributions made by workers.",
        "injections_drained" => "Externally submitted tasks drained from the injection queue.",
        "inlined" => "Tasks handed by the task that readied them to its own worker (no scheduler round-trip).",
        "messages_sent" => "Inter-process active messages sent.",
        "messages_received" => "Inter-process active messages received.",
        "bytes_sent" => "Payload bytes sent to peer ranks.",
        "bytes_received" => "Payload bytes received from peer ranks.",
        "frames_corrupt" => "Frames dropped by the transport for CRC or header validation failure.",
        "heartbeats_sent" => "Payload-free liveness heartbeats sent to idle peer links.",
        "peers_lost" => "Peers declared dead (liveness deadline or unrecoverable link).",
        "reconnects" => "Successful link re-establishments after a dropped connection.",
        "rejoins" => "Session-epoch rejoin handshakes completed with a recovering peer.",
        "frames_replayed" => "Unacked sequenced frames re-sent to a peer after a rejoin.",
        "frames_deduped" => "Duplicate sequenced frames suppressed by the receiver after a replay.",
        "resend_buffer_bytes" => "Bytes currently held in per-peer resend buffers awaiting acks.",
        "instances_quarantined" => {
            "Graph instances currently quarantined while a peer's rejoin is pending."
        }
        "instances_retried" => "Graph instances re-executed after a peer-loss failure.",
        "queue_local_pops" => "Tasks popped from a worker's own queue.",
        "queue_steals" => "Tasks stolen from another worker's queue.",
        "queue_overflow" => "Tasks pushed to the global overflow FIFO (local queue full).",
        "queue_slow_pushes" => "Pushes that took the contended detach-merge slow path.",
        "queue_steal_attempts" => "Steal attempts, successful or not.",
        "queue_steal_empty" => "Steal attempts that found the victim's queue empty.",
        "queue_overflow_pops" => "Tasks drained from the global overflow FIFO.",
        "queue_detach_merges" => "Detached-segment merges in the LLP scheduler.",
        "trace_events_dropped" => "Trace events lost to event-ring overwrite.",
        "serve_submitted" => "Graph instances admitted per tenant.",
        "serve_completed" => "Graph instances that ran to completion per tenant.",
        "serve_rejected" => "Submissions refused by admission control per tenant.",
        "serve_failed" => "Graph instances whose scope recorded a failure per tenant.",
        "serve_abandoned" => "Graph instances abandoned at engine shutdown.",
        "serve_latency" => "Submit-to-completion latency of served graph instances.",
        "serve_slo_target_us" => "Per-tenant SLO latency target in microseconds.",
        "serve_slo_good" => "Instances that completed within their tenant's SLO target.",
        "serve_slo_breached" => "Instances that failed or exceeded their tenant's SLO target.",
        "serve_retried" => "Graph instances requeued after a peer-loss failure, per tenant.",
        "workers" => "Worker threads configured on this rank.",
        "queued_tasks" => "Tasks currently queued (scheduler estimate plus injection queue).",
        "running_tasks" => "Worker threads currently executing a task (not parked idle).",
        "overflow_fifo_depth" => "Tasks currently parked in the global overflow FIFO.",
        "worker_queue_depth" => "Per-worker ready-queue depth estimate.",
        "worker_busy_ns" => "Cumulative nanoseconds workers spent executing task bodies.",
        "cluster_ranks" => "Ranks the cluster aggregator is scraping.",
        "cluster_ranks_unreachable" => "Ranks whose last scrape failed.",
        "cluster_skew_cov" => {
            "Coefficient of variation (percent) of per-rank load over the sliding window."
        }
        "cluster_straggler" => "1 when this rank is currently flagged as a straggler, else 0.",
        "cluster_alerts_active" => "Imbalance alerts currently active on the aggregator.",
        "task_duration" => "Task body execution time.",
        "ready_delay" => "Delay between a task becoming ready and starting to run.",
        "message_latency" => {
            "Remote message wait from insertion as a task to handler start (receiver clock)."
        }
        "wire_encode" => "Frame encode + CRC time on the send path.",
        "wire_lock_wait" => {
            "Time frames waited, appended to a link, for the write that carried them."
        }
        "wire_write" => "Socket write_all syscall time per frame write.",
        "wire_read_decode" => "Receiver read->decode time per frame (idle wait excluded).",
        "wire_dispatch" => "Receiver decode->handler-scheduled time per frame.",
        "wire_writes" => "Socket write_all calls issued by frame senders.",
        "wire_write_bytes" => "Encoded bytes carried by frame write_all calls.",
        "wire_write_frames" => "Frames carried by write_all calls (batching occupancy).",
        "cluster_slow_link" => "1 when this rank currently owns a slow-link alert, else 0.",
        _ => return None,
    })
}

/// Background thread invoking a callback at a fixed interval — e.g. to
/// append metrics snapshots to a file while a job runs. Stops (and
/// joins) on drop.
pub struct PeriodicSampler {
    stop: Arc<AtomicBool>,
    handle: Option<thread::JoinHandle<()>>,
}

impl PeriodicSampler {
    /// Spawns the sampler; `f` runs every `interval` until
    /// [`PeriodicSampler::stop`] or drop.
    pub fn spawn<F: FnMut() + Send + 'static>(interval: Duration, mut f: F) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = thread::Builder::new()
            .name("ttg-obs-sampler".into())
            .spawn(move || {
                // Sleep in small slices so drop doesn't block a full
                // interval.
                let slice = Duration::from_millis(10).min(interval);
                let mut elapsed = Duration::ZERO;
                loop {
                    if stop2.load(Ordering::Acquire) {
                        return;
                    }
                    thread::sleep(slice);
                    elapsed += slice;
                    if elapsed >= interval {
                        elapsed = Duration::ZERO;
                        // Re-check *after* the sleep, immediately before
                        // firing: a stop requested while we slept means
                        // the owner is tearing down whatever `f` reads
                        // (runtime state, rings); firing now would race
                        // that teardown. The pre-fix loop only checked
                        // at the top, so exactly that late sample could
                        // slip out.
                        if stop2.load(Ordering::Acquire) {
                            return;
                        }
                        f();
                    }
                }
            })
            .expect("spawn sampler thread");
        PeriodicSampler {
            stop,
            handle: Some(handle),
        }
    }

    /// Stops the sampler and joins its thread. On return it is
    /// guaranteed that no callback is running and none will run again —
    /// the deterministic teardown point to call *before* dropping state
    /// the callback reads. Idempotent; drop calls it too.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for PeriodicSampler {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use ttg_runtime::obs::hist::LatencyHistogram;

    fn sample() -> MetricsSnapshot {
        let h = LatencyHistogram::new();
        h.record(100);
        h.record(2_000);
        let mut m = MetricsSnapshot::with_labels(vec![("rank".to_string(), "0".to_string())]);
        m.counter("tasks_executed", 42);
        m.histogram("task_duration", h.snapshot());
        m
    }

    #[test]
    fn json_roundtrips_through_parser() {
        let m = sample();
        let v: Value = serde_json::from_str(&m.to_json()).unwrap();
        assert_eq!(
            v.get("counters")
                .unwrap()
                .get("tasks_executed")
                .unwrap()
                .as_u64(),
            Some(42)
        );
        assert_eq!(
            v.get("histograms")
                .unwrap()
                .get("task_duration")
                .unwrap()
                .get("count")
                .unwrap()
                .as_u64(),
            Some(2)
        );
    }

    #[test]
    fn prometheus_format_shape() {
        let text = sample().to_prometheus("ttg");
        assert!(text.contains("# TYPE ttg_tasks_executed counter"));
        assert!(text.contains("ttg_tasks_executed{rank=\"0\"} 42"));
        assert!(text.contains("# TYPE ttg_task_duration_seconds histogram"));
        assert!(text.contains("le=\"+Inf\"} 2"));
        assert!(text.contains("ttg_task_duration_seconds_count{rank=\"0\"} 2"));
        // Every non-comment line is `name{labels} value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (name_part, value) = line.rsplit_once(' ').unwrap();
            assert!(!name_part.is_empty());
            assert!(
                value.parse::<f64>().is_ok() || value == "+Inf",
                "bad value in line: {line}"
            );
        }
        // Bucket counts are cumulative and end at the total.
        let bucket_counts: Vec<u64> = text
            .lines()
            .filter(|l| l.contains("_bucket"))
            .map(|l| l.rsplit_once(' ').unwrap().1.parse().unwrap())
            .collect();
        assert!(bucket_counts.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*bucket_counts.last().unwrap(), 2);
    }

    #[test]
    fn merge_adds_counters_and_histograms() {
        let mut a = sample();
        let b = sample();
        a.merge(&b);
        assert_eq!(a.counters[0].1, 84);
        assert_eq!(a.histograms[0].1.count(), 4);
    }

    #[test]
    fn prometheus_golden_output_for_resilience_and_contention_counters() {
        // Golden output for the PR 3 (net resilience) and PR 4
        // (contention) counters: TYPE *and* HELP lines, exact order and
        // spelling. Counters only — histogram buckets depend on
        // recorded values and are shape-checked elsewhere.
        let mut m = MetricsSnapshot::with_labels(vec![("rank".to_string(), "1".to_string())]);
        m.counter("frames_corrupt", 3);
        m.counter("peers_lost", 1);
        m.counter("reconnects", 2);
        m.counter("lock_spin_acquisitions", 40);
        m.counter("bravo_revocations", 5);
        let expected = "\
# HELP ttg_frames_corrupt Frames dropped by the transport for CRC or header validation failure.\n\
# TYPE ttg_frames_corrupt counter\n\
ttg_frames_corrupt{rank=\"1\"} 3\n\
# HELP ttg_peers_lost Peers declared dead (liveness deadline or unrecoverable link).\n\
# TYPE ttg_peers_lost counter\n\
ttg_peers_lost{rank=\"1\"} 1\n\
# HELP ttg_reconnects Successful link re-establishments after a dropped connection.\n\
# TYPE ttg_reconnects counter\n\
ttg_reconnects{rank=\"1\"} 2\n\
# HELP ttg_lock_spin_acquisitions Spinlock acquisitions (contention profiling).\n\
# TYPE ttg_lock_spin_acquisitions counter\n\
ttg_lock_spin_acquisitions{rank=\"1\"} 40\n\
# HELP ttg_bravo_revocations BRAVO fast-path revocations by writers.\n\
# TYPE ttg_bravo_revocations counter\n\
ttg_bravo_revocations{rank=\"1\"} 5\n";
        assert_eq!(m.to_prometheus("ttg"), expected);
    }

    #[test]
    fn prometheus_help_lines_for_histograms_and_unknown_counters() {
        let mut m = sample();
        m.counter("my_app_widgets", 9);
        let text = m.to_prometheus("ttg");
        // Known histogram gets HELP on the _seconds metric name.
        assert!(text.contains("# HELP ttg_task_duration_seconds Task body execution time.\n"));
        assert!(text.contains("# TYPE ttg_task_duration_seconds histogram\n"));
        // Unknown (application) counters get TYPE but no HELP.
        assert!(text.contains("# TYPE ttg_my_app_widgets counter\n"));
        assert!(!text.contains("# HELP ttg_my_app_widgets"));
        // Every HELP line immediately precedes its TYPE line for the
        // same metric (exposition-format convention).
        let lines: Vec<&str> = text.lines().collect();
        for (i, line) in lines.iter().enumerate() {
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let name = rest.split(' ').next().unwrap();
                let next = lines.get(i + 1).unwrap_or(&"");
                assert!(
                    next.starts_with(&format!("# TYPE {name} ")),
                    "HELP for {name} not followed by its TYPE: {next}"
                );
            }
        }
    }

    #[test]
    fn labeled_counters_render_merge_and_roundtrip() {
        let tenant = |t: &str| vec![("tenant".to_string(), t.to_string())];
        let mut m = MetricsSnapshot::with_labels(vec![("rank".to_string(), "0".to_string())]);
        m.labeled_counter("serve_submitted", tenant("acme"), 7);
        m.labeled_counter("serve_submitted", tenant("globex"), 2);
        m.labeled_counter("serve_rejected", tenant("acme"), 1);
        let h = LatencyHistogram::new();
        h.record(1_000);
        m.labeled_histogram("serve_latency", tenant("acme"), h.snapshot());

        let text = m.to_prometheus("ttg");
        // Identity + extra labels merge; TYPE emitted once per name.
        assert!(text.contains("ttg_serve_submitted{rank=\"0\",tenant=\"acme\"} 7"));
        assert!(text.contains("ttg_serve_submitted{rank=\"0\",tenant=\"globex\"} 2"));
        assert_eq!(
            text.matches("# TYPE ttg_serve_submitted counter").count(),
            1
        );
        assert!(text.contains("# HELP ttg_serve_submitted Graph instances admitted per tenant."));
        assert!(text.contains("ttg_serve_latency_seconds_count{rank=\"0\",tenant=\"acme\"} 1"));
        assert!(text.contains("le=\"+Inf\"}"));

        // Merge matches on name AND labels.
        let mut other = MetricsSnapshot::with_labels(vec![("rank".to_string(), "0".to_string())]);
        other.labeled_counter("serve_submitted", tenant("acme"), 3);
        other.labeled_counter("serve_submitted", tenant("initech"), 1);
        m.merge(&other);
        assert_eq!(m.labeled_counters[0].2, 10);
        assert_eq!(m.labeled_counters.len(), 4);

        // JSON view exposes the labeled samples.
        let v: Value = serde_json::from_str(&m.to_json()).unwrap();
        let lc = v.get("labeled_counters").unwrap().as_array().unwrap();
        assert_eq!(lc.len(), 4);
        assert_eq!(lc[0].get("name").unwrap().as_str(), Some("serve_submitted"));
        assert_eq!(
            lc[0].get("labels").unwrap().get("tenant").unwrap().as_str(),
            Some("acme")
        );
        assert_eq!(lc[0].get("value").unwrap().as_u64(), Some(10));
    }

    #[test]
    fn labeled_metrics_absent_means_unchanged_output() {
        // A snapshot without labeled samples renders exactly as before
        // the labeled extension existed (no extra JSON keys, no extra
        // exposition lines) — guards the golden tests' assumption.
        let m = sample();
        let v: Value = serde_json::from_str(&m.to_json()).unwrap();
        assert!(v.get("labeled_counters").is_none());
        assert!(v.get("labeled_histograms").is_none());
        assert!(v.get("gauges").is_none());
        assert!(v.get("labeled_gauges").is_none());
        // And the exposition output carries no gauge families.
        assert!(!m.to_prometheus("ttg").contains("gauge"));
    }

    #[test]
    fn gauges_render_merge_and_roundtrip() {
        let worker = |w: usize| vec![("worker".to_string(), w.to_string())];
        let mut m = MetricsSnapshot::with_labels(vec![("rank".to_string(), "0".to_string())]);
        m.gauge("queued_tasks", 12);
        m.gauge("running_tasks", 3);
        m.labeled_gauge("worker_queue_depth", worker(0), 7);
        m.labeled_gauge("worker_queue_depth", worker(1), 5);

        let text = m.to_prometheus("ttg");
        assert!(text.contains("# TYPE ttg_queued_tasks gauge"));
        assert!(text.contains("ttg_queued_tasks{rank=\"0\"} 12"));
        assert!(text.contains("ttg_worker_queue_depth{rank=\"0\",worker=\"1\"} 5"));
        assert_eq!(
            text.matches("# TYPE ttg_worker_queue_depth gauge").count(),
            1
        );

        // Gauges sum under merge: the cluster total of "queued now".
        let mut other = MetricsSnapshot::with_labels(vec![("rank".to_string(), "0".to_string())]);
        other.gauge("queued_tasks", 8);
        other.labeled_gauge("worker_queue_depth", worker(0), 2);
        m.merge(&other);
        assert_eq!(m.gauges[0].1, 20);
        assert_eq!(m.labeled_gauges[0].2, 9);

        let v: Value = serde_json::from_str(&m.to_json()).unwrap();
        assert_eq!(
            v.get("gauges")
                .unwrap()
                .get("queued_tasks")
                .unwrap()
                .as_u64(),
            Some(20)
        );
        let lg = v.get("labeled_gauges").unwrap().as_array().unwrap();
        assert_eq!(lg[0].get("value").unwrap().as_u64(), Some(9));
    }

    #[test]
    fn from_value_reconstructs_wire_snapshot() {
        let tenant = |t: &str| vec![("tenant".to_string(), t.to_string())];
        let h = LatencyHistogram::new();
        for v in [100, 2_000, 2_000, 1_000_000] {
            h.record(v);
        }
        let mut m = MetricsSnapshot::with_labels(vec![("rank".to_string(), "2".to_string())]);
        m.counter("tasks_executed", 99);
        m.gauge("queued_tasks", 4);
        m.labeled_gauge("worker_queue_depth", tenant("x"), 1);
        m.histogram("task_duration", h.snapshot());
        m.labeled_counter("serve_submitted", tenant("acme"), 7);
        m.labeled_histogram("serve_latency", tenant("acme"), h.snapshot());

        let v: Value = serde_json::from_str(&m.to_json()).unwrap();
        let back = MetricsSnapshot::from_value(&v).unwrap();
        assert_eq!(back.labels, m.labels);
        assert_eq!(back.counters, m.counters);
        assert_eq!(back.gauges, m.gauges);
        assert_eq!(back.labeled_gauges, m.labeled_gauges);
        assert_eq!(back.labeled_counters, m.labeled_counters);
        // Histograms reconstruct exactly (buckets, sum, max), so the
        // recomputed quantiles agree with the source.
        assert_eq!(back.histograms, m.histograms);
        assert_eq!(back.labeled_histograms, m.labeled_histograms);
    }

    #[test]
    fn sampler_stop_is_deterministic_and_joins() {
        // Regression test for the shutdown race: a stop requested while
        // the sampler slept used to let one more sample fire before the
        // thread noticed. `stop()` must (a) prevent any sample from
        // starting after the request lands mid-sleep, and (b) join, so
        // when it returns nothing is running and nothing ever will.
        let fires = Arc::new(std::sync::Mutex::new(Vec::<std::time::Instant>::new()));
        let in_flight = Arc::new(AtomicBool::new(false));
        let f2 = Arc::clone(&fires);
        let g2 = Arc::clone(&in_flight);
        // Long interval: the sampler fires at ~200ms, so the stop below
        // (at ~150ms) always lands inside the sleep leading up to a
        // due sample — exactly the window the old loop mishandled.
        let mut s = PeriodicSampler::spawn(Duration::from_millis(200), move || {
            g2.store(true, Ordering::SeqCst);
            f2.lock().unwrap().push(std::time::Instant::now());
            thread::sleep(Duration::from_millis(5));
            g2.store(false, Ordering::SeqCst);
        });
        thread::sleep(Duration::from_millis(150));
        let stop_requested = std::time::Instant::now();
        s.stop();
        // (b): join semantics — no callback mid-flight after return.
        assert!(!in_flight.load(Ordering::SeqCst));
        // Give the would-be late sample's window time to pass, then
        // check (a): every fire (normally: none) started before the
        // stop request.
        thread::sleep(Duration::from_millis(120));
        for t in fires.lock().unwrap().iter() {
            assert!(
                *t <= stop_requested,
                "sample fired {:?} after stop() was requested",
                t.duration_since(stop_requested)
            );
        }
        // Idempotent.
        s.stop();
    }

    #[test]
    fn sampler_fires_and_stops() {
        let hits = Arc::new(AtomicUsize::new(0));
        let h2 = Arc::clone(&hits);
        let s = PeriodicSampler::spawn(Duration::from_millis(5), move || {
            h2.fetch_add(1, Ordering::Relaxed);
        });
        // Wait on the counter, not the clock: a loaded host may take far
        // longer than 12 intervals to schedule two fires.
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while hits.load(Ordering::Relaxed) < 2 {
            assert!(
                std::time::Instant::now() < deadline,
                "sampler never fired twice"
            );
            thread::yield_now();
        }
        drop(s);
        let frozen = hits.load(Ordering::Relaxed);
        thread::sleep(Duration::from_millis(30));
        assert_eq!(hits.load(Ordering::Relaxed), frozen);
    }
}
