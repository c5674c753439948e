//! Metrics snapshot export: JSON and Prometheus text format, plus an
//! optional periodic sampler thread.
//!
//! [`MetricsSnapshot`] is deliberately generic — identity labels and
//! one list of named series, each a counter, a gauge or a histogram
//! with optional extra labels; [`runtime_metrics`] flattens one
//! runtime's `RuntimeStats`, histograms, load gauges and wire recorder
//! into one. Snapshots from several ranks merge by counter addition and
//! histogram merge.

use crate::{obj, s};
use serde::Value;
use std::collections::hash_map::{Entry, HashMap};
use std::fmt::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;
use ttg_runtime::obs::hist::{bucket_upper_bound, HistogramSnapshot, HIST_BUCKETS};
use ttg_runtime::Runtime;

/// A set of Prometheus-style labels: `(name, value)` pairs.
pub type LabelSet = Vec<(String, String)>;

/// The value of one series.
#[derive(Debug, Clone, PartialEq)]
pub enum Sample {
    /// A monotonic counter.
    Counter(u64),
    /// An instantaneous gauge: describes "now", not "since start".
    Gauge(u64),
    /// A latency histogram (values in ns), boxed so that the counters
    /// and gauges that make up most of a snapshot stay small.
    Histogram(Box<HistogramSnapshot>),
}

/// Prometheus type of each [`Sample`] kind, in kind order.
const KINDS: [&str; 3] = ["counter", "gauge", "histogram"];

impl Sample {
    /// Index into [`KINDS`].
    fn kind(&self) -> usize {
        match self {
            Sample::Counter(_) => 0,
            Sample::Gauge(_) => 1,
            Sample::Histogram(_) => 2,
        }
    }
}

/// One named series of a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Metric name, without the exposition prefix.
    pub name: String,
    /// Labels beyond the snapshot's identity set (e.g. `tenant`,
    /// `worker`); empty for most series.
    pub labels: LabelSet,
    /// The value.
    pub sample: Sample,
    /// OpenMetrics exemplar of a histogram: its labels (e.g.
    /// `instance_id`) and observed value in ns. Rendered on the `+Inf`
    /// bucket line, never in JSON.
    pub exemplar: Option<(LabelSet, u64)>,
}

impl Series {
    /// The section both exports group by: plain counters, gauges,
    /// histograms, then the labeled ones in the same kind order.
    fn section(&self) -> usize {
        self.sample.kind() + if self.labels.is_empty() { 0 } else { 3 }
    }
}

/// The JSON sections in document order. `counters` and `histograms`
/// are always written, the others only when they hold a series.
const JSON_SECTIONS: [usize; 6] = [0, 2, 1, 4, 3, 5];

/// JSON key of each section.
const SECTION_KEYS: [&str; 6] = [
    "counters",
    "gauges",
    "histograms",
    "labeled_counters",
    "labeled_gauges",
    "labeled_histograms",
];

/// One observation of a process's counters, gauges and histograms.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Static identity labels (e.g. `rank`), attached to every
    /// Prometheus sample.
    pub labels: LabelSet,
    /// Every series, in the order pushed. The exports group it by
    /// section: plain counters, gauges, histograms, then the labeled
    /// ones in the same kind order.
    pub series: Vec<Series>,
}

impl MetricsSnapshot {
    /// Creates an empty snapshot with identity labels.
    pub fn with_labels(labels: LabelSet) -> Self {
        MetricsSnapshot {
            labels,
            series: Vec::new(),
        }
    }

    /// Appends a series and returns it (to attach an exemplar).
    /// Non-empty `labels` are merged into the identity labels on export.
    pub fn push(&mut self, name: &str, labels: LabelSet, sample: Sample) -> &mut Series {
        self.series.push(Series {
            name: name.to_string(),
            labels,
            sample,
            exemplar: None,
        });
        self.series.last_mut().expect("just pushed")
    }

    /// The series grouped by section, each section in push order — the
    /// order of the text exposition.
    pub(crate) fn in_sections(&self) -> Vec<&Series> {
        let mut order: Vec<&Series> = self.series.iter().collect();
        order.sort_by_key(|s| s.section());
        order
    }

    /// The one emit-when-set rule: pushes `sample` under `name` only if
    /// it carries information — a non-zero counter or gauge, a
    /// non-empty histogram. Everything optional (recovery counters,
    /// wire stages, link series) goes through here, which is what
    /// keeps a snapshot in which none of it happened — and every
    /// snapshot of a build with `obs` off, whose recorders do not
    /// exist — byte-identical to the format before the series was
    /// introduced.
    pub fn emit_if_set(&mut self, name: &str, labels: LabelSet, sample: Sample) {
        let set = match &sample {
            Sample::Counter(v) | Sample::Gauge(v) => *v != 0,
            Sample::Histogram(h) => h.count() != 0,
        };
        if set {
            self.push(name, labels, sample);
        }
    }

    /// The first series named `name` with extra labels `labels`.
    pub fn get(&self, name: &str, labels: &[(String, String)]) -> Option<&Sample> {
        let found = self
            .series
            .iter()
            .find(|s| s.name == name && s.labels == labels);
        found.map(|s| &s.sample)
    }

    /// Folds another snapshot in: series of the same kind, name and
    /// labels combine — counters and gauges add (the cluster view of
    /// `queued_tasks` is the total queued across ranks), histograms
    /// merge, an incoming exemplar replaces (latest observation wins)
    /// — and unknown series append. Labels keep only the entries both
    /// sides agree on. Linear in both sides: a cluster of ranks serving
    /// thousands of tenants merges tens of thousands of series.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        self.labels.retain(|l| other.labels.contains(l));
        let key = |s: &Series| (s.sample.kind(), s.name.clone(), s.labels.clone());
        let mut index = HashMap::with_capacity(self.series.len());
        for (i, mine) in self.series.iter().enumerate() {
            index.entry(key(mine)).or_insert(i);
        }
        for theirs in &other.series {
            let mine = match index.entry(key(theirs)) {
                Entry::Occupied(at) => &mut self.series[*at.get()],
                Entry::Vacant(at) => {
                    at.insert(self.series.len());
                    self.series.push(theirs.clone());
                    continue;
                }
            };
            match (&mut mine.sample, &theirs.sample) {
                (Sample::Histogram(a), Sample::Histogram(b)) => a.merge(b),
                (Sample::Counter(a) | Sample::Gauge(a), Sample::Counter(b) | Sample::Gauge(b)) => {
                    *a += b
                }
                _ => unreachable!("same kind"),
            }
            if theirs.exemplar.is_some() {
                mine.exemplar = theirs.exemplar.clone();
            }
        }
    }

    /// Renders as a JSON value tree: labels and plain series as objects
    /// keyed by name, labeled series as arrays of objects carrying
    /// `name` and `labels`, histograms with count/sum/max/mean,
    /// percentile summaries and sparse buckets.
    pub fn to_value(&self) -> Value {
        let mut sections: [Vec<(&str, Value)>; 6] = Default::default();
        for series in &self.series {
            let plain = series.labels.is_empty();
            let mut fields = Vec::with_capacity(10);
            if !plain {
                fields.push(("name", s(&series.name)));
                fields.push(("labels", label_object(&series.labels)));
            }
            let value = match &series.sample {
                Sample::Counter(v) | Sample::Gauge(v) if plain => Value::UInt(*v),
                Sample::Counter(v) | Sample::Gauge(v) => {
                    fields.push(("value", Value::UInt(*v)));
                    obj(fields)
                }
                Sample::Histogram(h) => {
                    fields.extend([
                        ("count", Value::UInt(h.count())),
                        ("sum_ns", Value::UInt(h.sum)),
                        ("max_ns", Value::UInt(h.max)),
                        ("mean_ns", Value::Float(h.mean())),
                        ("p50_ns", Value::UInt(h.p50())),
                    ]);
                    // Only plain histograms have ever carried p95.
                    fields.extend(plain.then(|| ("p95_ns", Value::UInt(h.p95()))));
                    fields.push(("p99_ns", Value::UInt(h.p99())));
                    fields.push(("buckets", sparse_buckets(h)));
                    obj(fields)
                }
            };
            sections[series.section()].push((&series.name, value));
        }
        let mut fields = vec![("labels", label_object(&self.labels))];
        for (i, section) in JSON_SECTIONS.into_iter().enumerate() {
            let entries = std::mem::take(&mut sections[section]);
            if i >= 2 && entries.is_empty() {
                continue;
            }
            let value = if section < 3 {
                obj(entries)
            } else {
                Value::Array(entries.into_iter().map(|(_, v)| v).collect())
            };
            fields.push((SECTION_KEYS[section], value));
        }
        obj(fields)
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
        let parse_labels = |v: Option<&Value>| -> LabelSet {
            let fields = v.and_then(Value::as_object).into_iter().flatten();
            fields
                .filter_map(|(k, v)| Some((k.clone(), v.as_str()?.to_string())))
                .collect()
        };
        v.as_object()?;
        let mut m = MetricsSnapshot::with_labels(parse_labels(v.get("labels")));
        for section in JSON_SECTIONS {
            let labeled = section >= 3;
            // (name, the value or the object holding it)
            let entries: Vec<(&str, &Value)> = match (labeled, v.get(SECTION_KEYS[section])) {
                (false, Some(Value::Object(fields))) => {
                    fields.iter().map(|(k, v)| (k.as_str(), v)).collect()
                }
                (true, Some(Value::Array(items))) => items
                    .iter()
                    .filter_map(|item| Some((item.get("name")?.as_str()?, item)))
                    .collect(),
                _ => continue,
            };
            for (name, entry) in entries {
                let scalar = if labeled {
                    entry.get("value")
                } else {
                    Some(entry)
                };
                let sample = match (section % 3, scalar.and_then(Value::as_u64)) {
                    (0, Some(v)) => Sample::Counter(v),
                    (1, Some(v)) => Sample::Gauge(v),
                    (2, _) => Sample::Histogram(Box::new(parse_histogram(entry))),
                    _ => continue,
                };
                let labels = if labeled {
                    parse_labels(entry.get("labels"))
                } else {
                    Vec::new()
                };
                m.push(name, labels, sample);
            }
        }
        Some(m)
    }

    /// Renders in Prometheus text exposition format. Counters and
    /// gauges become `<prefix>_<name>`; histograms become the
    /// conventional `_bucket{le=...}` / `_sum` / `_count` triple with
    /// cumulative power-of-two buckets (empty trailing buckets are
    /// elided, `+Inf` always present). Histogram values are exported in
    /// seconds per Prometheus convention. Metrics with a known
    /// description also get a `# HELP` line (see `help_text`). A
    /// labeled series' TYPE is written once per name; a plain series
    /// carries its own.
    pub fn to_prometheus(&self, prefix: &str) -> String {
        let mut out = String::new();
        let mut typed: Vec<(usize, &str)> = Vec::new();
        for series in self.in_sections() {
            let (name, kind) = (series.name.as_str(), series.sample.kind());
            let unit = if kind == 2 { "_seconds" } else { "" };
            let metric = format!("{prefix}_{name}{unit}");
            if series.labels.is_empty() || !typed.contains(&(series.section(), name)) {
                typed.push((series.section(), name));
                if let Some(help) = help_text(name) {
                    let _ = writeln!(out, "# HELP {metric} {help}");
                }
                let _ = writeln!(out, "# TYPE {metric} {}", KINDS[kind]);
            }
            let labels = |le: Option<&str>| {
                let all = self.labels.iter().chain(&series.labels);
                let all = all.map(|(k, v)| (k.as_str(), v.as_str()));
                let list = label_list(all.chain(le.map(|v| ("le", v))));
                if list.is_empty() {
                    list
                } else {
                    format!("{{{list}}}")
                }
            };
            let h = match &series.sample {
                Sample::Counter(v) | Sample::Gauge(v) => {
                    let _ = writeln!(out, "{metric}{} {v}", labels(None));
                    continue;
                }
                Sample::Histogram(h) => h,
            };
            let last_used = (0..HIST_BUCKETS).rev().find(|&i| h.buckets[i] != 0);
            let mut cumulative = 0u64;
            for i in 0..=last_used.unwrap_or(0) {
                cumulative += h.buckets[i];
                let le = format!("{:e}", bucket_upper_bound(i) as f64 / 1e9);
                let _ = writeln!(out, "{metric}_bucket{} {cumulative}", labels(Some(&le)));
            }
            let _ = write!(out, "{metric}_bucket{} {}", labels(Some("+Inf")), h.count());
            if let Some((exemplar, value_ns)) = &series.exemplar {
                let exemplar = exemplar.iter().map(|(k, v)| (k.as_str(), v.as_str()));
                let _ = write!(
                    out,
                    " # {{{}}} {}",
                    label_list(exemplar),
                    *value_ns as f64 / 1e9
                );
            }
            let _ = writeln!(out);
            let _ = writeln!(out, "{metric}_sum{} {}", labels(None), h.sum as f64 / 1e9);
            let _ = writeln!(out, "{metric}_count{} {}", labels(None), h.count());
        }
        out
    }
}

/// `k="v",...` over `pairs`, each value escaped as the text exposition
/// format requires (`\`, `"` and newline) — the one label formatter of
/// sample lines and exemplars alike.
fn label_list<'a>(pairs: impl Iterator<Item = (&'a str, &'a str)>) -> String {
    let mut out = String::new();
    for (k, v) in pairs {
        if !out.is_empty() {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"");
        for c in v.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    out
}

/// A label set as a JSON object.
fn label_object(labels: &LabelSet) -> Value {
    Value::Object(labels.iter().map(|(k, v)| (k.clone(), s(v))).collect())
}

/// Flattens `rt`'s [`Runtime::stats`] plus the latency histograms into
/// a generic metrics snapshot, renderable as JSON
/// ([`MetricsSnapshot::to_json`]) or Prometheus text
/// ([`MetricsSnapshot::to_prometheus`]) and mergeable across ranks.
pub fn runtime_metrics(rt: &Runtime) -> MetricsSnapshot {
    let stats = rt.stats();
    let mut m = MetricsSnapshot::with_labels(vec![("rank".to_string(), rt.rank().to_string())]);
    for (name, v) in [
        ("tasks_executed", stats.tasks_executed),
        ("parks", stats.parks),
        ("wave_contributions", stats.wave_contributions),
        ("injections_drained", stats.injections_drained),
        ("inlined", stats.inlined),
        ("messages_sent", stats.messages_sent),
        ("messages_received", stats.messages_received),
        ("bytes_sent", stats.bytes_sent),
        ("bytes_received", stats.bytes_received),
        ("frames_corrupt", stats.frames_corrupt),
        ("heartbeats_sent", stats.heartbeats_sent),
        ("peers_lost", stats.peers_lost),
        ("reconnects", stats.reconnects),
    ] {
        m.push(name, Vec::new(), Sample::Counter(v));
    }
    // Recovery counters appear only once recovery machinery has
    // actually fired, keeping fault-free snapshots byte-identical
    // with pre-recovery versions (golden-file stability).
    for (name, v) in [
        ("rejoins", stats.rejoins),
        ("frames_replayed", stats.frames_replayed),
        ("frames_deduped", stats.frames_deduped),
        ("resend_buffer_bytes", stats.resend_buffer_bytes),
        ("instances_quarantined", stats.instances_quarantined),
        ("instances_retried", stats.instances_retried),
    ] {
        m.emit_if_set(name, Vec::new(), Sample::Counter(v));
    }
    let q = &stats.queue;
    for (name, v) in [
        ("queue_local_pops", q.local_pops),
        ("queue_steals", q.steals),
        ("queue_overflow", q.overflow),
        ("queue_slow_pushes", q.slow_pushes),
        ("queue_steal_attempts", q.steal_attempts),
        ("queue_steal_empty", q.steal_empty),
        ("queue_overflow_pops", q.overflow_pops),
        ("queue_detach_merges", q.detach_merges),
    ] {
        m.push(name, Vec::new(), Sample::Counter(v as u64));
    }
    for (f, v) in ttg_sync::LOCK_FIELDS.iter().zip(stats.contention.0 .0) {
        m.push(f.metric, Vec::new(), Sample::Counter(v));
    }
    m.push(
        "trace_events_dropped",
        Vec::new(),
        Sample::Counter(stats.trace_events_dropped),
    );
    if let Some(obs) = rt.recorder() {
        if obs.histograms_enabled() {
            let task_duration = obs.task_duration();
            // Gauge basis for cluster-level utilization: busy-ns per
            // sample window divided by workers × wall-ns.
            m.push(
                "worker_busy_ns",
                Vec::new(),
                Sample::Counter(task_duration.sum),
            );
            for (name, h) in [
                ("task_duration", task_duration),
                ("ready_delay", obs.ready_delay()),
                ("message_latency", obs.message_latency()),
            ] {
                m.push(name, Vec::new(), Sample::Histogram(Box::new(h)));
            }
        }
        // Scheduler-load gauges ride along only when observability
        // is on, keeping bare-runtime snapshots byte-identical with
        // pre-gauge versions (same contract as the histograms).
        let load = rt.load();
        for (name, v) in [
            ("workers", rt.threads()),
            ("queued_tasks", load.queued),
            ("running_tasks", load.running),
            ("overflow_fifo_depth", load.overflow_depth),
        ] {
            m.push(name, Vec::new(), Sample::Gauge(v as u64));
        }
        for (w, depth) in load.worker_depths.iter().enumerate() {
            let worker = vec![("worker".to_string(), w.to_string())];
            m.push("worker_queue_depth", worker, Sample::Gauge(*depth as u64));
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
    let used = h.buckets.iter().enumerate().filter(|(_, c)| **c != 0);
    let pair = |(i, c): (usize, &u64)| Value::Array(vec![Value::UInt(i as u64), Value::UInt(*c)]);
    Value::Array(used.map(pair).collect())
}

/// Reads a histogram back from its JSON object: `sum_ns`, `max_ns` and
/// the sparse `buckets`; the summaries are recomputed, not trusted.
fn parse_histogram(v: &Value) -> HistogramSnapshot {
    let mut h = HistogramSnapshot::empty();
    h.sum = v.get("sum_ns").and_then(Value::as_u64).unwrap_or(0);
    h.max = v.get("max_ns").and_then(Value::as_u64).unwrap_or(0);
    for pair in v
        .get("buckets")
        .and_then(Value::as_array)
        .into_iter()
        .flatten()
    {
        let at = |i: usize| pair.as_array()?.get(i)?.as_u64();
        if let (Some(i), Some(c)) = (at(0), at(1)) {
            if (i as usize) < HIST_BUCKETS {
                h.buckets[i as usize] = c;
            }
        }
    }
    h
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
    use proptest::collection::vec;
    use proptest::prelude::*;
    use std::sync::atomic::AtomicUsize;
    use ttg_runtime::obs::hist::LatencyHistogram;

    fn sample() -> MetricsSnapshot {
        let h = LatencyHistogram::new();
        h.record(100);
        h.record(2_000);
        let mut m = MetricsSnapshot::with_labels(vec![("rank".to_string(), "0".to_string())]);
        m.push("tasks_executed", vec![], Sample::Counter(42));
        m.push(
            "task_duration",
            vec![],
            Sample::Histogram(Box::new(h.snapshot())),
        );
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
        assert_eq!(a.get("tasks_executed", &[]), Some(&Sample::Counter(84)));
        let Some(Sample::Histogram(h)) = a.get("task_duration", &[]) else {
            panic!("task_duration is a histogram");
        };
        assert_eq!(h.count(), 4);
    }

    #[test]
    fn prometheus_golden_output_for_resilience_and_contention_counters() {
        // Golden output for the PR 3 (net resilience) and PR 4
        // (contention) counters: TYPE *and* HELP lines, exact order and
        // spelling. Counters only — histogram buckets depend on
        // recorded values and are shape-checked elsewhere.
        let mut m = MetricsSnapshot::with_labels(vec![("rank".to_string(), "1".to_string())]);
        m.push("frames_corrupt", vec![], Sample::Counter(3));
        m.push("peers_lost", vec![], Sample::Counter(1));
        m.push("reconnects", vec![], Sample::Counter(2));
        m.push("lock_spin_acquisitions", vec![], Sample::Counter(40));
        m.push("bravo_revocations", vec![], Sample::Counter(5));
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
        m.push("my_app_widgets", vec![], Sample::Counter(9));
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
        m.push("serve_submitted", tenant("acme"), Sample::Counter(7));
        m.push("serve_submitted", tenant("globex"), Sample::Counter(2));
        m.push("serve_rejected", tenant("acme"), Sample::Counter(1));
        let h = LatencyHistogram::new();
        h.record(1_000);
        m.push(
            "serve_latency",
            tenant("acme"),
            Sample::Histogram(Box::new(h.snapshot())),
        );

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
        other.push("serve_submitted", tenant("acme"), Sample::Counter(3));
        other.push("serve_submitted", tenant("initech"), Sample::Counter(1));
        m.merge(&other);
        let submitted = m.get("serve_submitted", &tenant("acme"));
        assert_eq!(submitted, Some(&Sample::Counter(10)));
        assert_eq!(m.series.iter().filter(|s| s.section() == 3).count(), 4);

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
        m.push("queued_tasks", vec![], Sample::Gauge(12));
        m.push("running_tasks", vec![], Sample::Gauge(3));
        m.push("worker_queue_depth", worker(0), Sample::Gauge(7));
        m.push("worker_queue_depth", worker(1), Sample::Gauge(5));

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
        other.push("queued_tasks", vec![], Sample::Gauge(8));
        other.push("worker_queue_depth", worker(0), Sample::Gauge(2));
        m.merge(&other);
        assert_eq!(m.get("queued_tasks", &[]), Some(&Sample::Gauge(20)));
        let depth = m.get("worker_queue_depth", &worker(0));
        assert_eq!(depth, Some(&Sample::Gauge(9)));

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
        m.push("tasks_executed", vec![], Sample::Counter(99));
        m.push("queued_tasks", vec![], Sample::Gauge(4));
        m.push("worker_queue_depth", tenant("x"), Sample::Gauge(1));
        m.push(
            "task_duration",
            vec![],
            Sample::Histogram(Box::new(h.snapshot())),
        );
        m.push("serve_submitted", tenant("acme"), Sample::Counter(7));
        m.push(
            "serve_latency",
            tenant("acme"),
            Sample::Histogram(Box::new(h.snapshot())),
        );

        let v: Value = serde_json::from_str(&m.to_json()).unwrap();
        let back = MetricsSnapshot::from_value(&v).unwrap();
        assert_eq!(back.labels, m.labels);
        // Every series, of every kind, plain and labeled, section by
        // section and in push order within one.
        // Histograms reconstruct exactly (buckets, sum, max), so the
        // recomputed quantiles agree with the source.
        assert_eq!(back.in_sections(), m.in_sections());
    }

    /// Two snapshots covering every kind, plain and labeled, two names
    /// per kind, names that collide across the sides, and exemplars:
    /// one replaced by the merge, one kept.
    fn golden_sides() -> (MetricsSnapshot, MetricsSnapshot) {
        use Sample::{Counter, Gauge, Histogram};
        let h = |values: &[u64]| {
            let h = LatencyHistogram::new();
            values.iter().for_each(|&v| h.record(v));
            Box::new(h.snapshot())
        };
        let l = |k: &str, v: &str| vec![(k.to_string(), v.to_string())];
        let identity = |rank: &str| [l("job", "golden"), l("rank", rank)].concat();
        let (acme, globex) = (l("tenant", "acme"), l("tenant", "globex"));
        let mut a = MetricsSnapshot::with_labels(identity("0"));
        for (name, labels, sample) in [
            ("tasks_executed", vec![], Counter(5)),
            ("my_widgets", vec![], Counter(2)),
            ("queued_tasks", vec![], Gauge(3)),
            ("workers", vec![], Gauge(2)),
            ("task_duration", vec![], Histogram(h(&[100, 2_000]))),
            ("ready_delay", vec![], Histogram(h(&[50]))),
            ("serve_submitted", acme.clone(), Counter(3)),
            ("serve_submitted", globex.clone(), Counter(1)),
            ("serve_failed", acme.clone(), Counter(1)),
            ("worker_queue_depth", l("worker", "0"), Gauge(1)),
            ("worker_queue_depth", l("worker", "1"), Gauge(2)),
            ("serve_latency", acme.clone(), Histogram(h(&[1_000]))),
            ("serve_latency", globex.clone(), Histogram(h(&[400]))),
        ] {
            a.emit_if_set(name, labels, sample);
        }
        let exemplar = |m: &mut MetricsSnapshot, labels: &LabelSet, id: &str, ns: u64| {
            let latency = m
                .series
                .iter_mut()
                .find(|s| &s.labels == labels && s.name == "serve_latency");
            latency.unwrap().exemplar = Some((l("instance_id", id), ns));
        };
        exemplar(&mut a, &acme, "7", 1_000);
        exemplar(&mut a, &globex, "9", 400);
        let mut b = MetricsSnapshot::with_labels(identity("1"));
        for (name, labels, sample) in [
            ("tasks_executed", vec![], Counter(7)),
            ("parks", vec![], Counter(1)),
            ("queued_tasks", vec![], Gauge(4)),
            ("my_gauge", vec![], Gauge(9)),
            ("task_duration", vec![], Histogram(h(&[300]))),
            ("my_hist", vec![], Histogram(h(&[7]))),
            ("serve_submitted", acme.clone(), Counter(2)),
            ("serve_completed", l("tenant", "initech"), Counter(4)),
            ("worker_queue_depth", l("worker", "0"), Gauge(5)),
            ("net_link_ack_rtt_us", l("peer", "1"), Gauge(250)),
            ("serve_latency", acme.clone(), Histogram(h(&[3_000]))),
            ("my_lat", l("tenant", "x"), Histogram(h(&[10]))),
        ] {
            b.emit_if_set(name, labels, sample);
        }
        exemplar(&mut b, &acme, "42", 3_000);
        (a, b)
    }

    /// Pins every rendered byte of a merge over [`golden_sides`]: the
    /// category order of the text exposition, `p95_ns` on plain
    /// histograms only, the JSON sections left out when empty, and
    /// exemplars on the `+Inf` line only.
    #[test]
    fn merged_snapshot_renders_exactly() {
        let (mut m, b) = golden_sides();
        m.merge(&b);
        let json = r##"{
  "labels": {
    "job": "golden"
  },
  "counters": {
    "tasks_executed": 12,
    "my_widgets": 2,
    "parks": 1
  },
  "histograms": {
    "task_duration": {
      "count": 3,
      "sum_ns": 2400,
      "max_ns": 2000,
      "mean_ns": 800.0,
      "p50_ns": 511,
      "p95_ns": 2000,
      "p99_ns": 2000,
      "buckets": [
        [
          6,
          1
        ],
        [
          8,
          1
        ],
        [
          10,
          1
        ]
      ]
    },
    "ready_delay": {
      "count": 1,
      "sum_ns": 50,
      "max_ns": 50,
      "mean_ns": 50.0,
      "p50_ns": 50,
      "p95_ns": 50,
      "p99_ns": 50,
      "buckets": [
        [
          5,
          1
        ]
      ]
    },
    "my_hist": {
      "count": 1,
      "sum_ns": 7,
      "max_ns": 7,
      "mean_ns": 7.0,
      "p50_ns": 7,
      "p95_ns": 7,
      "p99_ns": 7,
      "buckets": [
        [
          2,
          1
        ]
      ]
    }
  },
  "gauges": {
    "queued_tasks": 7,
    "workers": 2,
    "my_gauge": 9
  },
  "labeled_gauges": [
    {
      "name": "worker_queue_depth",
      "labels": {
        "worker": "0"
      },
      "value": 6
    },
    {
      "name": "worker_queue_depth",
      "labels": {
        "worker": "1"
      },
      "value": 2
    },
    {
      "name": "net_link_ack_rtt_us",
      "labels": {
        "peer": "1"
      },
      "value": 250
    }
  ],
  "labeled_counters": [
    {
      "name": "serve_submitted",
      "labels": {
        "tenant": "acme"
      },
      "value": 5
    },
    {
      "name": "serve_submitted",
      "labels": {
        "tenant": "globex"
      },
      "value": 1
    },
    {
      "name": "serve_failed",
      "labels": {
        "tenant": "acme"
      },
      "value": 1
    },
    {
      "name": "serve_completed",
      "labels": {
        "tenant": "initech"
      },
      "value": 4
    }
  ],
  "labeled_histograms": [
    {
      "name": "serve_latency",
      "labels": {
        "tenant": "acme"
      },
      "count": 2,
      "sum_ns": 4000,
      "max_ns": 3000,
      "mean_ns": 2000.0,
      "p50_ns": 1023,
      "p99_ns": 3000,
      "buckets": [
        [
          9,
          1
        ],
        [
          11,
          1
        ]
      ]
    },
    {
      "name": "serve_latency",
      "labels": {
        "tenant": "globex"
      },
      "count": 1,
      "sum_ns": 400,
      "max_ns": 400,
      "mean_ns": 400.0,
      "p50_ns": 400,
      "p99_ns": 400,
      "buckets": [
        [
          8,
          1
        ]
      ]
    },
    {
      "name": "my_lat",
      "labels": {
        "tenant": "x"
      },
      "count": 1,
      "sum_ns": 10,
      "max_ns": 10,
      "mean_ns": 10.0,
      "p50_ns": 10,
      "p99_ns": 10,
      "buckets": [
        [
          3,
          1
        ]
      ]
    }
  ]
}"##;
        let prom = r##"# HELP ttg_tasks_executed Tasks executed by this rank's workers.
# TYPE ttg_tasks_executed counter
ttg_tasks_executed{job="golden"} 12
# TYPE ttg_my_widgets counter
ttg_my_widgets{job="golden"} 2
# HELP ttg_parks Times a worker parked idle.
# TYPE ttg_parks counter
ttg_parks{job="golden"} 1
# HELP ttg_queued_tasks Tasks currently queued (scheduler estimate plus injection queue).
# TYPE ttg_queued_tasks gauge
ttg_queued_tasks{job="golden"} 7
# HELP ttg_workers Worker threads configured on this rank.
# TYPE ttg_workers gauge
ttg_workers{job="golden"} 2
# TYPE ttg_my_gauge gauge
ttg_my_gauge{job="golden"} 9
# HELP ttg_task_duration_seconds Task body execution time.
# TYPE ttg_task_duration_seconds histogram
ttg_task_duration_seconds_bucket{job="golden",le="1e-9"} 0
ttg_task_duration_seconds_bucket{job="golden",le="3e-9"} 0
ttg_task_duration_seconds_bucket{job="golden",le="7e-9"} 0
ttg_task_duration_seconds_bucket{job="golden",le="1.5e-8"} 0
ttg_task_duration_seconds_bucket{job="golden",le="3.1e-8"} 0
ttg_task_duration_seconds_bucket{job="golden",le="6.3e-8"} 0
ttg_task_duration_seconds_bucket{job="golden",le="1.27e-7"} 1
ttg_task_duration_seconds_bucket{job="golden",le="2.55e-7"} 1
ttg_task_duration_seconds_bucket{job="golden",le="5.11e-7"} 2
ttg_task_duration_seconds_bucket{job="golden",le="1.023e-6"} 2
ttg_task_duration_seconds_bucket{job="golden",le="2.047e-6"} 3
ttg_task_duration_seconds_bucket{job="golden",le="+Inf"} 3
ttg_task_duration_seconds_sum{job="golden"} 0.0000024
ttg_task_duration_seconds_count{job="golden"} 3
# HELP ttg_ready_delay_seconds Delay between a task becoming ready and starting to run.
# TYPE ttg_ready_delay_seconds histogram
ttg_ready_delay_seconds_bucket{job="golden",le="1e-9"} 0
ttg_ready_delay_seconds_bucket{job="golden",le="3e-9"} 0
ttg_ready_delay_seconds_bucket{job="golden",le="7e-9"} 0
ttg_ready_delay_seconds_bucket{job="golden",le="1.5e-8"} 0
ttg_ready_delay_seconds_bucket{job="golden",le="3.1e-8"} 0
ttg_ready_delay_seconds_bucket{job="golden",le="6.3e-8"} 1
ttg_ready_delay_seconds_bucket{job="golden",le="+Inf"} 1
ttg_ready_delay_seconds_sum{job="golden"} 0.00000005
ttg_ready_delay_seconds_count{job="golden"} 1
# TYPE ttg_my_hist_seconds histogram
ttg_my_hist_seconds_bucket{job="golden",le="1e-9"} 0
ttg_my_hist_seconds_bucket{job="golden",le="3e-9"} 0
ttg_my_hist_seconds_bucket{job="golden",le="7e-9"} 1
ttg_my_hist_seconds_bucket{job="golden",le="+Inf"} 1
ttg_my_hist_seconds_sum{job="golden"} 0.000000007
ttg_my_hist_seconds_count{job="golden"} 1
# HELP ttg_serve_submitted Graph instances admitted per tenant.
# TYPE ttg_serve_submitted counter
ttg_serve_submitted{job="golden",tenant="acme"} 5
ttg_serve_submitted{job="golden",tenant="globex"} 1
# HELP ttg_serve_failed Graph instances whose scope recorded a failure per tenant.
# TYPE ttg_serve_failed counter
ttg_serve_failed{job="golden",tenant="acme"} 1
# HELP ttg_serve_completed Graph instances that ran to completion per tenant.
# TYPE ttg_serve_completed counter
ttg_serve_completed{job="golden",tenant="initech"} 4
# HELP ttg_worker_queue_depth Per-worker ready-queue depth estimate.
# TYPE ttg_worker_queue_depth gauge
ttg_worker_queue_depth{job="golden",worker="0"} 6
ttg_worker_queue_depth{job="golden",worker="1"} 2
# HELP ttg_net_link_ack_rtt_us Latest send-to-cumulative-ack round trip per peer link.
# TYPE ttg_net_link_ack_rtt_us gauge
ttg_net_link_ack_rtt_us{job="golden",peer="1"} 250
# HELP ttg_serve_latency_seconds Submit-to-completion latency of served graph instances.
# TYPE ttg_serve_latency_seconds histogram
ttg_serve_latency_seconds_bucket{job="golden",tenant="acme",le="1e-9"} 0
ttg_serve_latency_seconds_bucket{job="golden",tenant="acme",le="3e-9"} 0
ttg_serve_latency_seconds_bucket{job="golden",tenant="acme",le="7e-9"} 0
ttg_serve_latency_seconds_bucket{job="golden",tenant="acme",le="1.5e-8"} 0
ttg_serve_latency_seconds_bucket{job="golden",tenant="acme",le="3.1e-8"} 0
ttg_serve_latency_seconds_bucket{job="golden",tenant="acme",le="6.3e-8"} 0
ttg_serve_latency_seconds_bucket{job="golden",tenant="acme",le="1.27e-7"} 0
ttg_serve_latency_seconds_bucket{job="golden",tenant="acme",le="2.55e-7"} 0
ttg_serve_latency_seconds_bucket{job="golden",tenant="acme",le="5.11e-7"} 0
ttg_serve_latency_seconds_bucket{job="golden",tenant="acme",le="1.023e-6"} 1
ttg_serve_latency_seconds_bucket{job="golden",tenant="acme",le="2.047e-6"} 1
ttg_serve_latency_seconds_bucket{job="golden",tenant="acme",le="4.095e-6"} 2
ttg_serve_latency_seconds_bucket{job="golden",tenant="acme",le="+Inf"} 2 # {instance_id="42"} 0.000003
ttg_serve_latency_seconds_sum{job="golden",tenant="acme"} 0.000004
ttg_serve_latency_seconds_count{job="golden",tenant="acme"} 2
ttg_serve_latency_seconds_bucket{job="golden",tenant="globex",le="1e-9"} 0
ttg_serve_latency_seconds_bucket{job="golden",tenant="globex",le="3e-9"} 0
ttg_serve_latency_seconds_bucket{job="golden",tenant="globex",le="7e-9"} 0
ttg_serve_latency_seconds_bucket{job="golden",tenant="globex",le="1.5e-8"} 0
ttg_serve_latency_seconds_bucket{job="golden",tenant="globex",le="3.1e-8"} 0
ttg_serve_latency_seconds_bucket{job="golden",tenant="globex",le="6.3e-8"} 0
ttg_serve_latency_seconds_bucket{job="golden",tenant="globex",le="1.27e-7"} 0
ttg_serve_latency_seconds_bucket{job="golden",tenant="globex",le="2.55e-7"} 0
ttg_serve_latency_seconds_bucket{job="golden",tenant="globex",le="5.11e-7"} 1
ttg_serve_latency_seconds_bucket{job="golden",tenant="globex",le="+Inf"} 1 # {instance_id="9"} 0.0000004
ttg_serve_latency_seconds_sum{job="golden",tenant="globex"} 0.0000004
ttg_serve_latency_seconds_count{job="golden",tenant="globex"} 1
# TYPE ttg_my_lat_seconds histogram
ttg_my_lat_seconds_bucket{job="golden",tenant="x",le="1e-9"} 0
ttg_my_lat_seconds_bucket{job="golden",tenant="x",le="3e-9"} 0
ttg_my_lat_seconds_bucket{job="golden",tenant="x",le="7e-9"} 0
ttg_my_lat_seconds_bucket{job="golden",tenant="x",le="1.5e-8"} 1
ttg_my_lat_seconds_bucket{job="golden",tenant="x",le="+Inf"} 1
ttg_my_lat_seconds_sum{job="golden",tenant="x"} 0.00000001
ttg_my_lat_seconds_count{job="golden",tenant="x"} 1
"##;
        assert_eq!(m.to_json(), json);
        assert_eq!(m.to_prometheus("ttg"), prom);
    }

    /// Random snapshots: identity labels, then series of every kind
    /// drawn from small name and label pools (so names collide and a
    /// zero value is skipped), label values with characters that need
    /// escaping included.
    fn arb_snapshot() -> impl Strategy<Value = MetricsSnapshot> {
        const NAMES: [&str; 4] = ["tasks_executed", "serve_latency", "a", "b_c"];
        const LABELS: [&[(&str, &str)]; 5] = [
            &[],
            &[("tenant", "acme")],
            &[("tenant", "a\"b")],
            &[("worker", "0"), ("peer", "x\\y")],
            &[("tenant", "new\nline")],
        ];
        let series = (0usize..3, 0usize..4, 0usize..5, vec(0u64..5_000_000, 1..4));
        (0usize..3, vec(series, 0..10)).prop_map(|(identity, series)| {
            let owned = |ls: &[(&str, &str)]| -> LabelSet {
                ls.iter()
                    .map(|(k, v)| (k.to_string(), v.to_string()))
                    .collect()
            };
            let mut m = MetricsSnapshot::with_labels(owned(LABELS[identity]));
            for (kind, name, labels, values) in series {
                let h = LatencyHistogram::new();
                values.iter().for_each(|&v| h.record(v));
                let h = h.snapshot();
                let sample = match kind {
                    0 => Sample::Counter(values[0]),
                    1 => Sample::Gauge(values[0]),
                    _ => Sample::Histogram(Box::new(h)),
                };
                m.emit_if_set(NAMES[name], owned(LABELS[labels]), sample);
            }
            m
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        /// The scrape path loses nothing the renderers show: a snapshot
        /// rebuilt from its own JSON renders the same JSON and the same
        /// text (no exemplars here: they never travel in JSON).
        #[test]
        fn from_value_renders_what_to_value_read(a in arb_snapshot(), b in arb_snapshot()) {
            let mut m = a;
            m.merge(&b);
            let v: Value = serde_json::from_str(&m.to_json()).unwrap();
            let back = MetricsSnapshot::from_value(&v).unwrap();
            prop_assert_eq!(back.to_json(), m.to_json());
            prop_assert_eq!(back.to_prometheus("ttg"), m.to_prometheus("ttg"));
        }
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
