//! Cluster observability plane: cross-rank aggregation and live
//! load-imbalance analytics.
//!
//! A [`ClusterAggregator`] periodically scrapes every rank's existing
//! `/metrics.json` + `/timeseries.json` + `/healthz` endpoints with the
//! workspace's one HTTP/1.0 client ([`http_request`]), re-merges the
//! per-rank [`MetricsSnapshot`]s with the in-process merge machinery
//! (counters sum, histograms merge bucket-wise, labeled per-tenant
//! series are preserved), and serves the unified view:
//!
//! | path               | body                                        |
//! |--------------------|---------------------------------------------|
//! | `/cluster.json`    | per-rank detail + merged cluster totals     |
//! | `/alerts.json`     | typed skew/straggler alert records          |
//! | `/cluster/metrics` | cluster-level Prometheus text exposition    |
//! | `/healthz`         | worst-rank mesh health (one curl answers    |
//! |                    | "is the mesh healthy")                      |
//!
//! On top of the merged stream three detectors run per scrape round,
//! each a row over one hysteresis engine (`Detector`: a subject is
//! deviant for K consecutive rounds → alert; not deviant, or no longer
//! reporting → the alert clears):
//!
//! * **Skew** — the coefficient of variation (stddev / mean) of each
//!   rank's queued+running task load, window-averaged over the last
//!   `window` rounds. CoV ≥ `skew_cov_threshold` raises a cluster-wide
//!   `skew` alert.
//! * **Straggler** — a rank whose worker utilization (Δ`worker_busy_ns`
//!   per `workers` × wall-time) falls below the cluster median divided
//!   by `straggler_factor`, or whose p99 ready→run delay exceeds the
//!   cluster median times `straggler_factor`, for
//!   `straggler_consecutive` rounds in a row, raises a per-rank
//!   `straggler` alert.
//! * **Slow link** — a directed peer link (from the `net_link_*`
//!   labeled series ranks export with the `obs` feature) whose
//!   ack RTT or unacked backlog exceeds the cluster-median link times
//!   `slowlink_factor` (with absolute floors, so quiet meshes don't
//!   flag noise) for `slowlink_consecutive` rounds raises a
//!   `slow_link` alert keyed by the `src->dst` link label. Ranks
//!   built without `obs` export no link series and are simply
//!   invisible to this detector.
//!
//! Link telemetry also feeds a rank×rank traffic/latency matrix in
//! `/cluster.json` (`links` per rank + a top-level `traffic_matrix`),
//! present only when at least one rank exports link series — the
//! no-wire output is unchanged.
//!
//! Alerts carry first-seen / last-seen timestamps and deactivate (but
//! are retained) when the condition clears. Active alerts do not flip
//! `/healthz` to 503 — a skewed mesh is degraded, not down — they are
//! annotated in the health body instead; an unreachable or 503 rank
//! does flip it, with the offending ranks listed.
//!
//! The aggregator is embedded in rank 0 of `examples/distributed.rs
//! --serve` (wired by this crate's live telemetry from the
//! `TTG_OBS_CLUSTER` env var) and available standalone via
//! `ttg-bench dash --ranks host:port,...`. Detector state is fed
//! through the testable [`ClusterAggregator::ingest_round`]; the scrape
//! loop is just an HTTP front-end to it.

use crate::http::{http_request, DynamicRoute, HealthVerdict, HttpRequest, HttpResponse};
use crate::metrics::{MetricsSnapshot, PeriodicSampler, Sample};
use crate::wire::LINK_FIELDS;
use crate::{obj, s};
use parking_lot::Mutex;
use serde::Value;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, SystemTime, UNIX_EPOCH};
use ttg_runtime::obs::hist::HistogramSnapshot;
use ttg_runtime::obs::wire::{ACK_LAG_SEQ, ACK_RTT_US, BYTES_RX, BYTES_TX, FRAMES_TX};
use ttg_runtime::obs::wire::{LINK_VALUES, RESEND_BUFFER_BYTES};

/// Per-request I/O deadline for scrapes; a stalled rank costs one
/// timeout per round, never wedges the loop.
const SCRAPE_IO_TIMEOUT: Duration = Duration::from_millis(750);

/// Retained alert records (active ones always survive the cap).
const MAX_ALERTS: usize = 64;

/// Aggregator configuration. Thresholds have deliberately conservative
/// defaults: CoV 0.5 means the per-rank load spread is half its mean
/// before skew fires, and a straggler must lag 2× behind the median for
/// 3 consecutive rounds.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Scrape targets, `host:port` per rank.
    pub targets: Vec<String>,
    /// Index into `targets` that is *this* process, when the aggregator
    /// is embedded in a rank. That target's health comes from the local
    /// callback ([`ClusterAggregator::set_local_health`]) instead of
    /// HTTP — probing our own single-threaded `/healthz` from the route
    /// that serves it would self-deadlock, and deriving self-health
    /// from the cluster view would be circular.
    pub self_index: Option<usize>,
    /// Scrape period in milliseconds.
    pub scrape_interval_ms: u64,
    /// Sliding-window length (rounds) for the skew detector.
    pub window: usize,
    /// Skew alert threshold on the load coefficient of variation.
    pub skew_cov_threshold: f64,
    /// Straggler deviation factor vs the cluster median.
    pub straggler_factor: f64,
    /// Consecutive deviant rounds before a straggler alert fires.
    pub straggler_consecutive: u32,
    /// Slow-link deviation factor vs the cluster-median link ack RTT /
    /// ack lag.
    pub slowlink_factor: f64,
    /// Consecutive deviant rounds before a slow-link alert fires.
    pub slowlink_consecutive: u32,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            targets: Vec::new(),
            self_index: None,
            scrape_interval_ms: 1_000,
            window: 10,
            skew_cov_threshold: 0.5,
            straggler_factor: 2.0,
            straggler_consecutive: 3,
            slowlink_factor: 4.0,
            slowlink_consecutive: 3,
        }
    }
}

/// Absolute ack-RTT floor (µs) a link must clear before the slow-link
/// detector will consider it deviant — local-loopback meshes ack in
/// tens of microseconds and a 4× spread there is noise, not a slow NIC.
const SLOWLINK_MIN_RTT_US: f64 = 1_000.0;

/// Absolute unacked-backlog floor (frames) for the lag-based arm of the
/// slow-link detector.
const SLOWLINK_MIN_LAG: f64 = 4.0;

/// One directed link's telemetry as scraped from a rank's `net_link_*`
/// labeled series: one value per [`LINK_FIELDS`] row, zero for series
/// the rank did not export.
#[derive(Clone, Debug, Default)]
struct LinkStat {
    /// Destination rank label (the `peer` label value).
    peer: String,
    values: [u64; LINK_VALUES],
}

/// Extracts the per-peer link stats from a scraped snapshot's
/// `net_link_*` labeled counters and gauges. Empty when the rank was
/// built without `obs` (the series are simply absent).
fn extract_links(m: &MetricsSnapshot) -> Vec<LinkStat> {
    fn label<'a>(ls: &'a [(String, String)], key: &str) -> Option<&'a str> {
        ls.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }
    let mut links: Vec<LinkStat> = Vec::new();
    for series in &m.series {
        let (Sample::Counter(v) | Sample::Gauge(v)) = series.sample else {
            continue;
        };
        let (name, ls) = (&series.name, &series.labels);
        let Some(peer) = label(ls, "peer") else {
            continue;
        };
        // Anything not tagged `tx` counts as received, as it always has.
        let dir = if label(ls, "dir") == Some("tx") {
            "tx"
        } else {
            "rx"
        };
        let row = |f: &crate::wire::LinkField| f.metric == name && f.dir.is_none_or(|d| d == dir);
        let Some(field) = LINK_FIELDS.iter().position(row) else {
            continue;
        };
        let at = links
            .iter()
            .position(|l| l.peer == peer)
            .unwrap_or_else(|| {
                links.push(LinkStat {
                    peer: peer.to_string(),
                    ..LinkStat::default()
                });
                links.len() - 1
            });
        links[at].values[field] += v;
    }
    // Stable peer order (numeric when the labels are rank ids).
    links.sort_by(
        |a, b| match (a.peer.parse::<u64>(), b.peer.parse::<u64>()) {
            (Ok(x), Ok(y)) => x.cmp(&y),
            _ => a.peer.cmp(&b.peer),
        },
    );
    links
}

/// JSON shape of one link for the per-rank `links` array.
fn link_value(l: &LinkStat) -> Value {
    let mut fields = vec![("peer", s(&l.peer))];
    let values = LINK_FIELDS.iter().zip(l.values);
    fields.extend(values.map(|(f, v)| (f.cluster_json, Value::UInt(v))));
    obj(fields)
}

/// One rank's scrape outcome for one round — the testable ingest unit.
/// The production scrape loop fills these over HTTP; tests construct
/// them directly.
#[derive(Debug, Default)]
pub struct RankObservation {
    /// Parsed `/metrics.json`, when the scrape succeeded.
    pub metrics: Option<MetricsSnapshot>,
    /// `(healthy, degraded)` from `/healthz` (HTTP status + body);
    /// `None` means the rank was unreachable.
    pub health: Option<(bool, bool)>,
    /// `(samples_total, downsamples, points)` summary of
    /// `/timeseries.json`.
    pub timeseries: Option<(u64, u64, u64)>,
}

/// A typed imbalance alert. Deactivated alerts are retained (bounded)
/// so `/alerts.json` shows recent history, not just the current state.
#[derive(Clone, Debug)]
pub struct Alert {
    /// `"skew"` (cluster-wide) or `"straggler"` (per-rank).
    pub kind: &'static str,
    /// Offending rank label for per-rank alerts.
    pub rank: Option<String>,
    /// When the condition was first observed (unix ms).
    pub first_seen_unix_ms: u64,
    /// Last round the condition held (unix ms).
    pub last_seen_unix_ms: u64,
    /// Whether the condition held in the latest round.
    pub active: bool,
    /// Detector value at last observation (CoV, or deviation ratio).
    pub value: f64,
    /// Configured threshold the value crossed.
    pub threshold: f64,
    /// Human-readable one-liner.
    pub detail: String,
}

struct RankState {
    target: String,
    /// `rank` identity label from the scraped snapshot, or the target
    /// index until one is seen.
    rank_label: String,
    rounds_seen: u64,
    scrape_failures: u64,
    reachable: bool,
    healthy: bool,
    degraded: bool,
    last_scrape_unix_ms: u64,
    metrics: Option<MetricsSnapshot>,
    ts_summary: Option<(u64, u64, u64)>,
    /// `(worker_busy_ns, at_unix_ms)` from the previous round, for the
    /// utilization window derivative.
    prev_busy: Option<(u64, u64)>,
    /// Fraction of worker capacity spent executing tasks over the last
    /// sample window, 0..1. `None` until two busy-ns observations exist.
    utilization: Option<f64>,
    /// queued+running load per round, sliding window.
    loads: VecDeque<f64>,
    /// Per-peer link telemetry from the latest scrape (`net_link_*`
    /// series); empty for ranks built without `obs`.
    links: Vec<LinkStat>,
}

impl RankState {
    fn new(target: String, index: usize) -> Self {
        RankState {
            target,
            rank_label: index.to_string(),
            rounds_seen: 0,
            scrape_failures: 0,
            reachable: false,
            healthy: false,
            degraded: false,
            last_scrape_unix_ms: 0,
            metrics: None,
            ts_summary: None,
            prev_busy: None,
            utilization: None,
            loads: VecDeque::new(),
            links: Vec::new(),
        }
    }

    /// The latest scrape's plain counter or gauge `name`.
    fn value(&self, name: &str) -> Option<u64> {
        match self.metrics.as_ref()?.get(name, &[])? {
            Sample::Counter(v) | Sample::Gauge(v) => Some(*v),
            Sample::Histogram(_) => None,
        }
    }

    /// The latest scrape's plain histogram `name`.
    fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        match self.metrics.as_ref()?.get(name, &[])? {
            Sample::Histogram(h) => Some(h),
            _ => None,
        }
    }
}

/// One row of the detector table: an alert kind, the threshold its
/// value is judged against, and how many consecutive deviant rounds a
/// subject needs before the alert fires.
struct Detector {
    kind: &'static str,
    threshold: f64,
    consecutive: u32,
}

impl ClusterConfig {
    /// The detector table: skew, straggler, slow link.
    fn detectors(&self) -> [Detector; 3] {
        let row = |kind, threshold, consecutive| Detector {
            kind,
            threshold,
            consecutive,
        };
        [
            row("skew", self.skew_cov_threshold, 1),
            row(
                "straggler",
                self.straggler_factor,
                self.straggler_consecutive,
            ),
            row("slow_link", self.slowlink_factor, self.slowlink_consecutive),
        ]
    }
}

/// Consecutive deviant rounds of one `(kind, subject)`, and the round
/// it was last judged in.
struct Streak {
    kind: &'static str,
    subject: Option<String>,
    run: u32,
    judged_round: u64,
}

/// The hysteresis engine every detector row runs on: it owns the streak
/// table and the alert list.
#[derive(Default)]
struct Hysteresis {
    streaks: Vec<Streak>,
    alerts: Vec<Alert>,
    /// The ingest round being judged, and its timestamp.
    round: u64,
    now_unix_ms: u64,
}

impl Hysteresis {
    /// Records one subject's verdict for this round — `deviant` carries
    /// `(value, detail)` when the subject is off its baseline — and
    /// creates, refreshes or deactivates the alert keyed
    /// `(kind, subject)` once the subject has been deviant for
    /// `consecutive` rounds in a row.
    fn judge(&mut self, d: &Detector, subject: Option<String>, deviant: Option<(f64, String)>) {
        let known = |s: &Streak| s.kind == d.kind && s.subject == subject;
        let at = self.streaks.iter().position(known).unwrap_or_else(|| {
            self.streaks.push(Streak {
                kind: d.kind,
                subject: subject.clone(),
                run: 0,
                judged_round: 0,
            });
            self.streaks.len() - 1
        });
        let streak = &mut self.streaks[at];
        streak.run = if deviant.is_some() { streak.run + 1 } else { 0 };
        streak.judged_round = self.round;
        let firing = deviant.filter(|_| streak.run >= d.consecutive);
        let owned = |a: &&mut Alert| a.kind == d.kind && a.rank == subject;
        match (self.alerts.iter_mut().find(owned), firing) {
            (Some(a), Some((value, detail))) => {
                a.active = true;
                a.last_seen_unix_ms = self.now_unix_ms;
                a.value = value;
                a.detail = detail;
            }
            (Some(a), None) => a.active = false,
            (None, Some((value, detail))) => self.alerts.push(Alert {
                kind: d.kind,
                rank: subject,
                first_seen_unix_ms: self.now_unix_ms,
                last_seen_unix_ms: self.now_unix_ms,
                active: true,
                value,
                threshold: d.threshold,
                detail,
            }),
            (None, None) => {}
        }
    }

    /// Subjects of `kind` nobody judged this round — the links of an
    /// evicted rank, a link that stopped being exported — lose their
    /// streak and their alert deactivates, same as a cleared condition,
    /// so a dead rank can't pin a stale record active forever.
    fn retire_unjudged(&mut self, kind: &str) {
        let (round, alerts) = (self.round, &mut self.alerts);
        self.streaks.retain(|s| {
            let stale = s.kind == kind && s.judged_round != round;
            if stale {
                let owned = |a: &&mut Alert| a.kind == kind && a.rank == s.subject;
                if let Some(a) = alerts.iter_mut().find(owned) {
                    a.active = false;
                }
            }
            !stale
        });
    }

    /// Bounds retained history, never dropping active alerts.
    fn bound_history(&mut self) {
        let mut excess = self.alerts.len().saturating_sub(MAX_ALERTS);
        self.alerts.retain(|a| {
            let drop = !a.active && excess > 0;
            excess -= usize::from(drop);
            !drop
        });
    }
}

struct ClusterInner {
    ranks: Vec<RankState>,
    engine: Hysteresis,
    rounds: u64,
    skew_cov: f64,
    last_round_unix_ms: u64,
}

/// `value` against the cluster `median` × `factor`, above an absolute
/// `floor` (so quiet meshes don't flag noise): the deviation ratio and
/// the median when the value is over the bar.
fn over_median(value: f64, median: Option<f64>, factor: f64, floor: f64) -> Option<(f64, f64)> {
    let median = median?;
    let ratio = if median > 0.0 { value / median } else { value };
    (value > (median * factor).max(floor)).then_some((ratio, median))
}

impl ClusterInner {
    /// Runs the detector table over the current state and updates the
    /// alert list.
    fn detect(&mut self, config: &ClusterConfig, now_unix_ms: u64) {
        let [skew, straggler, slow_link] = config.detectors();
        let engine = &mut self.engine;
        (engine.round, engine.now_unix_ms) = (self.rounds, now_unix_ms);

        // --- Skew: CoV of window-averaged per-rank load. Two rounds of
        // data per rank minimum, so a single scrape blip can't fire it.
        let means: Vec<f64> = self
            .ranks
            .iter()
            .filter(|r| r.reachable && r.loads.len() >= 2)
            .map(|r| r.loads.iter().sum::<f64>() / r.loads.len() as f64)
            .collect();
        let mut skew_cov = 0.0;
        if means.len() >= 2 {
            let mean = means.iter().sum::<f64>() / means.len() as f64;
            if mean > 0.0 {
                let var =
                    means.iter().map(|m| (m - mean) * (m - mean)).sum::<f64>() / means.len() as f64;
                skew_cov = var.sqrt() / mean;
            }
        }
        self.skew_cov = skew_cov;
        let deviant = (skew_cov >= skew.threshold).then(|| {
            let (at, n) = (skew.threshold, means.len());
            let detail =
                format!("per-rank load CoV {skew_cov:.2} (threshold {at:.2}) across {n} ranks");
            (skew_cov, detail)
        });
        engine.judge(&skew, None, deviant);

        // --- Stragglers: utilization below median/factor, or p99
        // ready-delay above median×factor, K rounds in a row.
        let reachable = || self.ranks.iter().filter(|r| r.reachable);
        let p99 = |r: &RankState| r.histogram("ready_delay").map(|h| h.p99() as f64);
        let utils: Vec<f64> = reachable().filter_map(|r| r.utilization).collect();
        let delays: Vec<f64> = reachable().filter_map(p99).collect();
        let (median_util, median_delay) = (median(&utils), median(&delays));
        let k = straggler.threshold;
        for rank in reachable() {
            // Idle clusters (median utilization ≈ 0) have no meaningful
            // "slow rank"; require a working median before flagging.
            let idle = rank.utilization.zip(median_util);
            let idle = idle.filter(|(u, mu)| *mu >= 0.02 && *u < mu / k);
            let slow = idle
                .map(|(u, mu)| {
                    let ratio = if u > 0.0 { mu / u } else { f64::INFINITY };
                    let (u, mu) = (u * 100.0, mu * 100.0);
                    let detail = format!("utilization {u:.0}% vs cluster median {mu:.0}%");
                    (ratio, detail)
                })
                .or_else(|| {
                    let (d, working) = (p99(rank)?, median_delay.filter(|md| *md > 0.0));
                    let (ratio, md) = over_median(d, working, k, 0.0)?;
                    let (d, md) = (d / 1e3, md / 1e3);
                    let detail = format!("ready-delay p99 {d:.0}us vs cluster median {md:.0}us");
                    Some((ratio, detail))
                });
            let label = &rank.rank_label;
            let slow = slow.map(|(v, detail)| (v, format!("rank {label}: {detail}")));
            engine.judge(&straggler, Some(label.clone()), slow);
        }

        // --- Slow links: ack RTT (or unacked backlog) far above the
        // cluster-median link, K rounds in a row. Medians need at least
        // two links with data so a lone link can't be its own baseline,
        // and the absolute floors keep sub-millisecond loopback jitter
        // from flagging.
        let links = || reachable().flat_map(|r| r.links.iter().map(move |l| (r, l)));
        let rtts = links().map(|(_, l)| l.values[ACK_RTT_US] as f64);
        let rtts: Vec<f64> = rtts.filter(|rtt| *rtt > 0.0).collect();
        let lags: Vec<f64> = links().map(|(_, l)| l.values[ACK_LAG_SEQ] as f64).collect();
        let median_rtt = median(&rtts).filter(|_| rtts.len() >= 2);
        let median_lag = median(&lags).filter(|_| lags.len() >= 2);
        let k = slow_link.threshold;
        for (rank, l) in links() {
            let (rtt, lag) = (l.values[ACK_RTT_US], l.values[ACK_LAG_SEQ]);
            let slow = over_median(rtt as f64, median_rtt, k, SLOWLINK_MIN_RTT_US)
                .map(|(ratio, m)| (ratio, format!("ack RTT {rtt}us vs cluster median {m:.0}us")))
                .or_else(|| {
                    let (ratio, m) = over_median(lag as f64, median_lag, k, SLOWLINK_MIN_LAG)?;
                    let detail = format!("ack lag {lag} frames vs cluster median {m:.0}");
                    Some((ratio, detail))
                });
            let link = format!("{}->{}", rank.rank_label, l.peer);
            let slow = slow.map(|(v, detail)| (v, format!("link {link}: {detail}")));
            engine.judge(&slow_link, Some(link), slow);
        }
        engine.retire_unjudged(slow_link.kind);
        engine.bound_history();
    }
}

/// Health callback for the embedded self rank (healthy, degraded).
pub type LocalHealth = Box<dyn Fn() -> (bool, bool) + Send + Sync>;

/// The cross-rank aggregator. Cheap shared handle (`Arc` inside); the
/// scrape loop, HTTP routes and tests all talk to the same state.
pub struct ClusterAggregator {
    config: ClusterConfig,
    inner: Mutex<ClusterInner>,
    local_health: Mutex<Option<LocalHealth>>,
}

impl ClusterAggregator {
    /// Creates an aggregator for the configured targets. No threads are
    /// started; feed it with [`ClusterAggregator::scrape_once`] /
    /// [`ClusterAggregator::ingest_round`], or let
    /// [`ClusterAggregator::start_scraping`] drive it.
    pub fn new(config: ClusterConfig) -> Arc<ClusterAggregator> {
        let ranks = config
            .targets
            .iter()
            .enumerate()
            .map(|(i, t)| RankState::new(t.clone(), i))
            .collect();
        Arc::new(ClusterAggregator {
            config,
            inner: Mutex::new(ClusterInner {
                ranks,
                engine: Hysteresis::default(),
                rounds: 0,
                skew_cov: 0.0,
                last_round_unix_ms: 0,
            }),
            local_health: Mutex::new(None),
        })
    }

    /// Installs the local health source for `config.self_index` (see
    /// [`ClusterConfig::self_index`]).
    pub fn set_local_health(&self, f: LocalHealth) {
        *self.local_health.lock() = Some(f);
    }

    /// Scrape targets, in order.
    pub fn targets(&self) -> &[String] {
        &self.config.targets
    }

    /// The configuration the detectors run with.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Completed ingest rounds.
    pub fn rounds(&self) -> u64 {
        self.inner.lock().rounds
    }

    /// Latest skew coefficient of variation.
    pub fn skew_cov(&self) -> f64 {
        self.inner.lock().skew_cov
    }

    /// Snapshot of all alert records (active and retained-inactive).
    pub fn alerts(&self) -> Vec<Alert> {
        self.inner.lock().engine.alerts.clone()
    }

    /// Currently active alerts.
    pub fn active_alerts(&self) -> Vec<Alert> {
        self.inner
            .lock()
            .engine
            .alerts
            .iter()
            .filter(|a| a.active)
            .cloned()
            .collect()
    }

    /// Spawns the periodic scrape loop. Hold the returned sampler; drop
    /// (or `stop`) joins the thread deterministically.
    pub fn start_scraping(self: &Arc<Self>) -> PeriodicSampler {
        let agg = Arc::clone(self);
        PeriodicSampler::spawn(
            Duration::from_millis(self.config.scrape_interval_ms.max(1)),
            move || {
                agg.scrape_once(unix_ms());
            },
        )
    }

    /// Performs one scrape of every target and ingests the round.
    /// `now_unix_ms` is injectable for tests.
    pub fn scrape_once(&self, now_unix_ms: u64) {
        let mut observations = Vec::with_capacity(self.config.targets.len());
        for (i, target) in self.config.targets.iter().enumerate() {
            let mut ob = RankObservation::default();
            if let Some((status, body)) = scrape(target, "/metrics.json") {
                if status == 200 {
                    ob.metrics = serde_json::from_str::<Value>(&body)
                        .ok()
                        .as_ref()
                        .and_then(MetricsSnapshot::from_value);
                }
            }
            if let Some((status, body)) = scrape(target, "/timeseries.json") {
                if status == 200 {
                    ob.timeseries = serde_json::from_str::<Value>(&body).ok().map(|v| {
                        (
                            v.get("samples_total").and_then(Value::as_u64).unwrap_or(0),
                            v.get("downsamples").and_then(Value::as_u64).unwrap_or(0),
                            v.get("points")
                                .and_then(Value::as_array)
                                .map(|p| p.len() as u64)
                                .unwrap_or(0),
                        )
                    });
                }
            }
            ob.health = if self.config.self_index == Some(i) {
                // Local rank: ask the runtime directly, never our own
                // single-threaded HTTP server (see ClusterConfig docs).
                match self.local_health.lock().as_ref() {
                    Some(f) => Some(f()),
                    // No callback installed: reachable iff metrics came
                    // back, treat as healthy (the metrics route served).
                    None => ob.metrics.is_some().then_some((true, false)),
                }
            } else {
                scrape(target, "/healthz").map(|(status, body)| {
                    let degraded = serde_json::from_str::<Value>(&body)
                        .ok()
                        .and_then(|v| v.get("degraded").and_then(Value::as_bool))
                        .unwrap_or(false);
                    (status == 200, degraded)
                })
            };
            observations.push(ob);
        }
        self.ingest_round(observations, now_unix_ms);
    }

    /// Ingests one round of per-target observations (index-aligned with
    /// [`ClusterAggregator::targets`]; missing trailing entries count as
    /// unreachable) and runs the detectors. The deterministic core the
    /// tests drive directly.
    pub fn ingest_round(&self, observations: Vec<RankObservation>, now_unix_ms: u64) {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        for (i, rank) in inner.ranks.iter_mut().enumerate() {
            let ob = observations.get(i);
            let metrics = ob.and_then(|o| o.metrics.as_ref());
            let health = ob.and_then(|o| o.health);
            rank.reachable = metrics.is_some() || health.is_some();
            if !rank.reachable {
                rank.scrape_failures += 1;
                rank.healthy = false;
                rank.degraded = false;
                // Stale load samples must not keep steering the
                // detectors; drop this rank from the window.
                rank.loads.clear();
                rank.utilization = None;
                rank.prev_busy = None;
                rank.links.clear();
                continue;
            }
            rank.rounds_seen += 1;
            rank.last_scrape_unix_ms = now_unix_ms;
            rank.healthy = health.map(|(h, _)| h).unwrap_or(false);
            rank.degraded = health.map(|(_, d)| d).unwrap_or(false);
            if let Some(ts) = ob.and_then(|o| o.timeseries) {
                rank.ts_summary = Some(ts);
            }
            if let Some(m) = metrics {
                if let Some((_, label)) = m.labels.iter().find(|(k, _)| k == "rank") {
                    rank.rank_label = label.clone();
                }
                rank.metrics = Some(m.clone());
                rank.links = extract_links(m);
                // Load sample for the skew window.
                let queued = rank.value("queued_tasks").unwrap_or(0);
                let running = rank.value("running_tasks").unwrap_or(0);
                rank.loads.push_back((queued + running) as f64);
                while rank.loads.len() > self.config.window.max(1) {
                    rank.loads.pop_front();
                }
                // Utilization from the busy-ns derivative.
                if let Some(busy) = rank.value("worker_busy_ns") {
                    let workers = rank.value("workers").unwrap_or(1).max(1);
                    if let Some((prev_busy, prev_ms)) = rank.prev_busy {
                        let dt_ns = now_unix_ms.saturating_sub(prev_ms) as f64 * 1e6;
                        if dt_ns > 0.0 {
                            let dbusy = busy.saturating_sub(prev_busy) as f64;
                            rank.utilization =
                                Some((dbusy / (workers as f64 * dt_ns)).clamp(0.0, 1.0));
                        }
                    }
                    rank.prev_busy = Some((busy, now_unix_ms));
                }
            }
        }
        inner.rounds += 1;
        inner.last_round_unix_ms = now_unix_ms;
        inner.detect(&self.config, now_unix_ms);
    }

    /// The merged cluster-level snapshot: every reachable rank's
    /// counters summed, histograms bucket-merged, labeled series
    /// preserved (series sharing a label set — e.g. per-worker depths
    /// from different ranks — sum; the per-rank breakdown lives in
    /// `/cluster.json`), plus the `cluster_*` detector gauges and
    /// per-rank `cluster_straggler{rank=...}` / utilization series.
    pub fn merged_snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock();
        let mut total: Option<MetricsSnapshot> = None;
        for rank in &inner.ranks {
            if let Some(m) = &rank.metrics {
                match &mut total {
                    Some(t) => t.merge(m),
                    None => total = Some(m.clone()),
                }
            }
        }
        let mut m = total.unwrap_or_default();
        let unreachable = inner.ranks.iter().filter(|r| !r.reachable).count();
        let active = inner.engine.alerts.iter().filter(|a| a.active).count();
        for (name, v) in [
            ("cluster_ranks", inner.ranks.len() as u64),
            ("cluster_ranks_unreachable", unreachable as u64),
            ("cluster_alerts_active", active as u64),
            ("cluster_skew_cov", (inner.skew_cov * 100.0).round() as u64),
        ] {
            m.push(name, Vec::new(), Sample::Gauge(v));
        }
        for rank in &inner.ranks {
            let labels = vec![("rank".to_string(), rank.rank_label.clone())];
            let straggling = inner.engine.alerts.iter().any(|a| {
                a.active && a.kind == "straggler" && a.rank.as_deref() == Some(&rank.rank_label)
            });
            let straggling = Sample::Gauge(u64::from(straggling));
            m.push("cluster_straggler", labels.clone(), straggling);
            if let Some(u) = rank.utilization {
                let pct = Sample::Gauge((u * 100.0).round() as u64);
                m.push("cluster_rank_utilization_pct", labels, pct);
            }
        }
        // Firing slow links only — idle meshes (and builds without
        // `obs`) add nothing, keeping the no-wire output identical.
        for a in inner.engine.alerts.iter() {
            if a.active && a.kind == "slow_link" {
                if let Some(link) = &a.rank {
                    let labels = vec![("link".to_string(), link.clone())];
                    m.push("cluster_slow_link", labels, Sample::Gauge(1));
                }
            }
        }
        m
    }

    /// Renders the cluster-level Prometheus exposition.
    pub fn prometheus(&self) -> String {
        self.merged_snapshot().to_prometheus("ttg")
    }

    /// Renders `/cluster.json`: per-rank detail plus merged totals,
    /// stamped with the current wall clock.
    pub fn cluster_json(&self) -> String {
        self.cluster_json_at(unix_ms())
    }

    /// [`ClusterAggregator::cluster_json`] with an injectable timestamp
    /// (golden tests).
    pub fn cluster_json_at(&self, now_unix_ms: u64) -> String {
        let totals = self.merged_snapshot().to_value();
        let inner = self.inner.lock();
        let ranks: Vec<Value> = inner
            .ranks
            .iter()
            .map(|r| {
                let status = if !r.reachable {
                    if r.rounds_seen == 0 {
                        "pending"
                    } else {
                        "unreachable"
                    }
                } else if r.healthy {
                    "ok"
                } else {
                    "unhealthy"
                };
                let counters = r
                    .metrics
                    .as_ref()
                    .map(|m| {
                        let plain = m.series.iter().filter(|s| s.labels.is_empty());
                        let counters = plain.filter_map(|s| match s.sample {
                            Sample::Counter(v) => Some((s.name.clone(), Value::UInt(v))),
                            _ => None,
                        });
                        Value::Object(counters.collect())
                    })
                    .unwrap_or(Value::Object(Vec::new()));
                let ts = r
                    .ts_summary
                    .map(|(samples, downsamples, points)| {
                        obj(vec![
                            ("samples_total", Value::UInt(samples)),
                            ("downsamples", Value::UInt(downsamples)),
                            ("points", Value::UInt(points)),
                        ])
                    })
                    .unwrap_or(Value::Null);
                let mut fields = vec![
                    ("target", s(&r.target)),
                    ("rank", s(&r.rank_label)),
                    ("status", s(status)),
                    ("degraded", Value::Bool(r.degraded)),
                    ("rounds_seen", Value::UInt(r.rounds_seen)),
                    ("scrape_failures", Value::UInt(r.scrape_failures)),
                    ("workers", Value::UInt(r.value("workers").unwrap_or(0))),
                    (
                        "queued_tasks",
                        Value::UInt(r.value("queued_tasks").unwrap_or(0)),
                    ),
                    (
                        "running_tasks",
                        Value::UInt(r.value("running_tasks").unwrap_or(0)),
                    ),
                    (
                        "utilization_pct",
                        r.utilization
                            .map(|u| Value::UInt((u * 100.0).round() as u64))
                            .unwrap_or(Value::Null),
                    ),
                    (
                        "ready_delay_p99_ns",
                        Value::UInt(r.histogram("ready_delay").map(|h| h.p99()).unwrap_or(0)),
                    ),
                ];
                // Link telemetry only when the rank exports it — ranks
                // built without `obs` keep the pre-wire shape.
                if !r.links.is_empty() {
                    fields.push((
                        "links",
                        Value::Array(r.links.iter().map(link_value).collect()),
                    ));
                }
                fields.push(("counters", counters));
                fields.push(("timeseries", ts));
                obj(fields)
            })
            .collect();
        let active = inner.engine.alerts.iter().filter(|a| a.active).count();
        let mut fields = vec![
            ("schema", Value::UInt(1)),
            ("generated_unix_ms", Value::UInt(now_unix_ms)),
            ("rounds", Value::UInt(inner.rounds)),
            ("skew_cov", Value::Float(inner.skew_cov)),
            ("alerts_active", Value::UInt(active as u64)),
            ("ranks", Value::Array(ranks)),
        ];
        // The rank×rank traffic/latency matrix: one directed entry per
        // exported link, with the destination's receive-side byte count
        // alongside the source's transmit count so symmetry ("what 0
        // sent to 1 is what 1 received from 0") is directly checkable.
        if inner.ranks.iter().any(|r| !r.links.is_empty()) {
            let mut matrix = Vec::new();
            for r in &inner.ranks {
                for l in &r.links {
                    let peer_rx = inner
                        .ranks
                        .iter()
                        .find(|p| p.rank_label == l.peer)
                        .and_then(|p| p.links.iter().find(|pl| pl.peer == r.rank_label))
                        .map(|pl| pl.values[BYTES_RX]);
                    matrix.push(obj(vec![
                        ("from", s(&r.rank_label)),
                        ("to", s(&l.peer)),
                        ("tx_bytes", Value::UInt(l.values[BYTES_TX])),
                        ("tx_frames", Value::UInt(l.values[FRAMES_TX])),
                        (
                            "peer_rx_bytes",
                            peer_rx.map(Value::UInt).unwrap_or(Value::Null),
                        ),
                        ("ack_rtt_us", Value::UInt(l.values[ACK_RTT_US])),
                        ("ack_lag_seq", Value::UInt(l.values[ACK_LAG_SEQ])),
                        (
                            "resend_buffer_bytes",
                            Value::UInt(l.values[RESEND_BUFFER_BYTES]),
                        ),
                    ]));
                }
            }
            fields.push(("traffic_matrix", Value::Array(matrix)));
        }
        fields.push(("totals", totals));
        let v = obj(fields);
        serde_json::to_string_pretty(&v).expect("cluster serialization")
    }

    /// Renders `/alerts.json`.
    pub fn alerts_json(&self) -> String {
        let inner = self.inner.lock();
        let active = inner.engine.alerts.iter().filter(|a| a.active).count();
        let alerts: Vec<Value> = inner
            .engine
            .alerts
            .iter()
            .map(|a| {
                obj(vec![
                    ("kind", s(a.kind)),
                    ("rank", a.rank.as_ref().map(|r| s(r)).unwrap_or(Value::Null)),
                    ("active", Value::Bool(a.active)),
                    ("first_seen_unix_ms", Value::UInt(a.first_seen_unix_ms)),
                    ("last_seen_unix_ms", Value::UInt(a.last_seen_unix_ms)),
                    ("value", Value::Float(a.value)),
                    ("threshold", Value::Float(a.threshold)),
                    ("detail", s(&a.detail)),
                ])
            })
            .collect();
        let v = obj(vec![
            ("schema", Value::UInt(1)),
            ("active", Value::UInt(active as u64)),
            ("alerts", Value::Array(alerts)),
        ]);
        serde_json::to_string_pretty(&v).expect("alerts serialization")
    }

    /// The mesh health verdict: 503 when any rank is unreachable or
    /// itself 503 (offenders listed); active imbalance alerts and
    /// degraded ranks annotate the body but keep the status 200 —
    /// degraded, not down.
    pub fn health(&self) -> HealthVerdict {
        let inner = self.inner.lock();
        if inner.rounds == 0 {
            return HealthVerdict {
                healthy: false,
                body: "{\"status\":\"unhealthy\",\"aggregator\":true,\
                       \"reason\":\"awaiting first scrape round\"}"
                    .to_string(),
            };
        }
        let list = |pred: &dyn Fn(&RankState) -> bool| -> Vec<Value> {
            inner
                .ranks
                .iter()
                .filter(|r| pred(r))
                .map(|r| s(&r.rank_label))
                .collect()
        };
        let unreachable = list(&|r| !r.reachable);
        let unhealthy = list(&|r| r.reachable && !r.healthy);
        let degraded_ranks = list(&|r| r.reachable && r.degraded);
        let active: Vec<&Alert> = inner.engine.alerts.iter().filter(|a| a.active).collect();
        let healthy = unreachable.is_empty() && unhealthy.is_empty();
        let degraded = !degraded_ranks.is_empty() || !active.is_empty();
        let alert_kinds: Vec<Value> = active
            .iter()
            .map(|a| {
                Value::String(match &a.rank {
                    Some(r) => format!("{}:{r}", a.kind),
                    None => a.kind.to_string(),
                })
            })
            .collect();
        let v = obj(vec![
            (
                "status",
                Value::String(if healthy { "ok" } else { "unhealthy" }.to_string()),
            ),
            ("aggregator", Value::Bool(true)),
            ("ranks", Value::UInt(inner.ranks.len() as u64)),
            ("unreachable_ranks", Value::Array(unreachable)),
            ("unhealthy_ranks", Value::Array(unhealthy)),
            ("degraded", Value::Bool(degraded)),
            ("degraded_ranks", Value::Array(degraded_ranks)),
            ("alerts_active", Value::UInt(active.len() as u64)),
            ("alerts", Value::Array(alert_kinds)),
        ]);
        HealthVerdict {
            healthy,
            body: serde_json::to_string_pretty(&v).expect("health serialization"),
        }
    }
}

/// Builds the dynamic HTTP route serving the aggregator's endpoints.
/// `claim_healthz` replaces the host's `/healthz` with the mesh-wide
/// verdict (rank 0 in `--serve`, and the standalone dash).
pub fn cluster_routes(agg: Arc<ClusterAggregator>, claim_healthz: bool) -> DynamicRoute {
    Box::new(move |req: &HttpRequest| {
        if req.method != "GET" {
            return None;
        }
        match req.path.as_str() {
            "/cluster.json" => Some(HttpResponse::json(200, agg.cluster_json())),
            "/alerts.json" => Some(HttpResponse::json(200, agg.alerts_json())),
            "/cluster/metrics" => Some(HttpResponse {
                status: 200,
                content_type: "text/plain; version=0.0.4",
                body: agg.prometheus(),
            }),
            "/healthz" if claim_healthz => {
                let v = agg.health();
                Some(HttpResponse::json(
                    if v.healthy { 200 } else { 503 },
                    v.body,
                ))
            }
            _ => None,
        }
    })
}

/// One scrape GET; `None` is an unreachable rank.
fn scrape(target: &str, path: &str) -> Option<(u16, String)> {
    http_request(target, "GET", path, None, SCRAPE_IO_TIMEOUT)
}

fn unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Median of a slice (None when empty). Even lengths take the mean of
/// the middle pair.
fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{HttpRoutes, ObsHttpServer};
    use ttg_runtime::obs::hist::LatencyHistogram;

    fn config(n: usize) -> ClusterConfig {
        ClusterConfig {
            targets: (0..n).map(|i| format!("127.0.0.1:{}", 19000 + i)).collect(),
            ..ClusterConfig::default()
        }
    }

    fn rank_snapshot(rank: &str, tasks: u64, queued: u64, running: u64) -> MetricsSnapshot {
        let mut m = MetricsSnapshot::with_labels(vec![("rank".to_string(), rank.to_string())]);
        m.push("tasks_executed", vec![], Sample::Counter(tasks));
        m.push("messages_sent", vec![], Sample::Counter(tasks / 2));
        m.push("workers", vec![], Sample::Gauge(2));
        m.push("queued_tasks", vec![], Sample::Gauge(queued));
        m.push("running_tasks", vec![], Sample::Gauge(running));
        m
    }

    fn healthy_ob(m: MetricsSnapshot) -> RankObservation {
        RankObservation {
            metrics: Some(m),
            health: Some((true, false)),
            timeseries: Some((4, 0, 4)),
        }
    }

    #[test]
    fn golden_cluster_json_over_two_synthetic_ranks() {
        let agg = ClusterAggregator::new(config(2));
        agg.ingest_round(
            vec![
                healthy_ob(rank_snapshot("0", 100, 6, 2)),
                healthy_ob(rank_snapshot("1", 60, 4, 2)),
            ],
            1_000,
        );
        let expected = r#"{
  "schema": 1,
  "generated_unix_ms": 2000,
  "rounds": 1,
  "skew_cov": 0.0,
  "alerts_active": 0,
  "ranks": [
    {
      "target": "127.0.0.1:19000",
      "rank": "0",
      "status": "ok",
      "degraded": false,
      "rounds_seen": 1,
      "scrape_failures": 0,
      "workers": 2,
      "queued_tasks": 6,
      "running_tasks": 2,
      "utilization_pct": null,
      "ready_delay_p99_ns": 0,
      "counters": {
        "tasks_executed": 100,
        "messages_sent": 50
      },
      "timeseries": {
        "samples_total": 4,
        "downsamples": 0,
        "points": 4
      }
    },
    {
      "target": "127.0.0.1:19001",
      "rank": "1",
      "status": "ok",
      "degraded": false,
      "rounds_seen": 1,
      "scrape_failures": 0,
      "workers": 2,
      "queued_tasks": 4,
      "running_tasks": 2,
      "utilization_pct": null,
      "ready_delay_p99_ns": 0,
      "counters": {
        "tasks_executed": 60,
        "messages_sent": 30
      },
      "timeseries": {
        "samples_total": 4,
        "downsamples": 0,
        "points": 4
      }
    }
  ],
  "totals": {
    "labels": {},
    "counters": {
      "tasks_executed": 160,
      "messages_sent": 80
    },
    "histograms": {},
    "gauges": {
      "workers": 4,
      "queued_tasks": 10,
      "running_tasks": 4,
      "cluster_ranks": 2,
      "cluster_ranks_unreachable": 0,
      "cluster_alerts_active": 0,
      "cluster_skew_cov": 0
    },
    "labeled_gauges": [
      {
        "name": "cluster_straggler",
        "labels": {
          "rank": "0"
        },
        "value": 0
      },
      {
        "name": "cluster_straggler",
        "labels": {
          "rank": "1"
        },
        "value": 0
      }
    ]
  }
}"#;
        assert_eq!(agg.cluster_json_at(2_000), expected);
    }

    #[test]
    fn per_rank_counters_sum_to_cluster_totals() {
        let agg = ClusterAggregator::new(config(3));
        let per_rank = [37u64, 91, 12];
        agg.ingest_round(
            per_rank
                .iter()
                .enumerate()
                .map(|(i, &t)| healthy_ob(rank_snapshot(&i.to_string(), t, 1, 1)))
                .collect(),
            500,
        );
        let v: Value = serde_json::from_str(&agg.cluster_json_at(600)).unwrap();
        let ranks = v.get("ranks").unwrap().as_array().unwrap();
        let sum: u64 = ranks
            .iter()
            .map(|r| {
                r.get("counters")
                    .unwrap()
                    .get("tasks_executed")
                    .unwrap()
                    .as_u64()
                    .unwrap()
            })
            .sum();
        let total = v
            .get("totals")
            .unwrap()
            .get("counters")
            .unwrap()
            .get("tasks_executed")
            .unwrap()
            .as_u64()
            .unwrap();
        assert_eq!(sum, per_rank.iter().sum::<u64>());
        assert_eq!(total, sum);
    }

    #[test]
    fn merging_rank_histogram_partials_matches_concatenated_samples() {
        // Property-style: for pseudo-random sample sets split across 3
        // "ranks", bucket-merging the per-rank partials must agree with
        // a histogram built from the concatenated samples exactly, and
        // the merged quantiles must sit within bucket resolution (2×)
        // of the true sample quantiles.
        let mut seed = 0x2545F4914F6CDD1Du64;
        let mut next = move || {
            // xorshift64* — deterministic, no rand dependency.
            seed ^= seed >> 12;
            seed ^= seed << 25;
            seed ^= seed >> 27;
            seed.wrapping_mul(0x2545F4914F6CDD1D)
        };
        for trial in 0..20 {
            let n = 50 + (trial * 37) % 400;
            let samples: Vec<u64> = (0..n)
                .map(|_| {
                    // Spread across ~20 octaves like real latencies.
                    let octave = next() % 20;
                    1 + next() % (1u64 << octave)
                })
                .collect();
            let rank_hists: Vec<HistogramSnapshot> = (0..3)
                .map(|r| {
                    let h = LatencyHistogram::new();
                    for (i, &v) in samples.iter().enumerate() {
                        if i % 3 == r {
                            h.record(v);
                        }
                    }
                    h.snapshot()
                })
                .collect();
            let mut merged = rank_hists[0];
            merged.merge(&rank_hists[1]);
            merged.merge(&rank_hists[2]);

            let whole = LatencyHistogram::new();
            for &v in &samples {
                whole.record(v);
            }
            assert_eq!(merged, whole.snapshot(), "trial {trial}");

            let mut sorted = samples.clone();
            sorted.sort_unstable();
            for q in [0.50, 0.95, 0.99] {
                let true_q = sorted[(((q * n as f64).ceil() as usize).clamp(1, n)) - 1];
                let got = merged.quantile(q);
                // Power-of-two buckets: the reported upper bound is
                // within [true, 2*true], modulo the max cap.
                assert!(
                    got >= true_q && got <= true_q.saturating_mul(2).max(true_q + 1),
                    "trial {trial} q{q}: got {got}, true {true_q}"
                );
            }
        }
    }

    #[test]
    fn skew_alert_fires_and_clears() {
        let mut cfg = config(3);
        cfg.skew_cov_threshold = 0.5;
        let agg = ClusterAggregator::new(cfg);
        // Heavily skewed load: rank 0 drowning, others idle.
        for round in 0..4u64 {
            agg.ingest_round(
                vec![
                    healthy_ob(rank_snapshot("0", 10, 90, 2)),
                    healthy_ob(rank_snapshot("1", 10, 2, 1)),
                    healthy_ob(rank_snapshot("2", 10, 2, 1)),
                ],
                1_000 + round * 1_000,
            );
        }
        assert!(agg.skew_cov() > 0.5, "cov {}", agg.skew_cov());
        let active = agg.active_alerts();
        assert!(
            active.iter().any(|a| a.kind == "skew"),
            "no skew alert in {active:?}"
        );
        let first_seen = active
            .iter()
            .find(|a| a.kind == "skew")
            .unwrap()
            .first_seen_unix_ms;

        // Balance the load: alert deactivates but stays in history.
        for round in 4..16u64 {
            agg.ingest_round(
                vec![
                    healthy_ob(rank_snapshot("0", 10, 4, 1)),
                    healthy_ob(rank_snapshot("1", 10, 4, 1)),
                    healthy_ob(rank_snapshot("2", 10, 4, 1)),
                ],
                1_000 + round * 1_000,
            );
        }
        assert!(agg.active_alerts().iter().all(|a| a.kind != "skew"));
        let history = agg.alerts();
        let skew = history.iter().find(|a| a.kind == "skew").unwrap();
        assert!(!skew.active);
        assert_eq!(skew.first_seen_unix_ms, first_seen);
        assert!(skew.last_seen_unix_ms >= first_seen);
    }

    #[test]
    fn straggler_alert_needs_consecutive_rounds() {
        let mut cfg = config(3);
        cfg.straggler_consecutive = 3;
        cfg.straggler_factor = 2.0;
        let agg = ClusterAggregator::new(cfg);
        // busy-ns counters advancing at full rate on ranks 0/1, ~5% on
        // rank 2 (workers=2, rounds 1s apart ⇒ capacity 2e9 ns/round).
        let ob = |rank: &str, busy: u64| {
            let mut m = rank_snapshot(rank, 10, 4, 2);
            m.push("worker_busy_ns", vec![], Sample::Counter(busy));
            healthy_ob(m)
        };
        for round in 0..6u64 {
            agg.ingest_round(
                vec![
                    ob("0", round * 1_900_000_000),
                    ob("1", round * 1_800_000_000),
                    ob("2", round * 100_000_000),
                ],
                1_000 + round * 1_000,
            );
            let straggler_active = agg
                .active_alerts()
                .iter()
                .any(|a| a.kind == "straggler" && a.rank.as_deref() == Some("2"));
            // Utilization exists from round 1; streak reaches 3 at
            // round 3 (rounds 1,2,3 deviant).
            if round < 3 {
                assert!(!straggler_active, "fired too early at round {round}");
            } else {
                assert!(straggler_active, "not firing at round {round}");
            }
        }
        // Never flagged the healthy ranks.
        assert!(agg
            .active_alerts()
            .iter()
            .all(|a| a.rank.as_deref() != Some("0") && a.rank.as_deref() != Some("1")));
        // Health: degraded-but-200 under an active alert.
        let h = agg.health();
        assert!(h.healthy);
        assert!(h.body.contains("\"degraded\": true"));
        assert!(h.body.contains("straggler:2"));
    }

    /// A healthy_ob whose snapshot carries `net_link_*` series:
    /// `(peer, tx_bytes, rx_bytes, ack_rtt_us, ack_lag_seq)` per link.
    fn link_ob(rank: &str, links: &[(&str, u64, u64, u64, u64)]) -> RankObservation {
        let mut m = rank_snapshot(rank, 10, 2, 1);
        for (peer, tx_bytes, rx_bytes, rtt, lag) in links {
            let ls = vec![("peer".to_string(), peer.to_string())];
            let mut tx = ls.clone();
            tx.push(("dir".to_string(), "tx".to_string()));
            let mut rx = ls.clone();
            rx.push(("dir".to_string(), "rx".to_string()));
            m.push("net_link_bytes", tx.clone(), Sample::Counter(*tx_bytes));
            m.push("net_link_frames", tx, Sample::Counter(tx_bytes / 100));
            m.push("net_link_bytes", rx.clone(), Sample::Counter(*rx_bytes));
            m.push("net_link_frames", rx, Sample::Counter(rx_bytes / 100));
            m.push("net_link_ack_rtt_us", ls.clone(), Sample::Gauge(*rtt));
            m.push("net_link_ack_lag_seq", ls, Sample::Gauge(*lag));
        }
        healthy_ob(m)
    }

    #[test]
    fn slow_link_alert_needs_consecutive_rounds_and_clears() {
        let mut cfg = config(3);
        cfg.slowlink_factor = 4.0;
        cfg.slowlink_consecutive = 3;
        let agg = ClusterAggregator::new(cfg);
        // Full mesh; the 0->1 link acks 250× slower than everyone else.
        let slow_round = || {
            vec![
                link_ob(
                    "0",
                    &[
                        ("1", 10_000, 10_000, 50_000, 0),
                        ("2", 10_000, 10_000, 200, 0),
                    ],
                ),
                link_ob(
                    "1",
                    &[("0", 10_000, 10_000, 200, 0), ("2", 10_000, 10_000, 200, 0)],
                ),
                link_ob(
                    "2",
                    &[("0", 10_000, 10_000, 200, 0), ("1", 10_000, 10_000, 200, 0)],
                ),
            ]
        };
        for round in 0..3u64 {
            agg.ingest_round(slow_round(), 1_000 + round * 1_000);
            let firing = agg
                .active_alerts()
                .iter()
                .any(|a| a.kind == "slow_link" && a.rank.as_deref() == Some("0->1"));
            // K-1 deviant rounds must stay quiet; the Kth fires.
            if round < 2 {
                assert!(!firing, "fired too early at round {round}");
            } else {
                assert!(firing, "not firing at round {round}");
            }
        }
        // No other link ever flagged.
        assert_eq!(
            agg.active_alerts()
                .iter()
                .filter(|a| a.kind == "slow_link")
                .count(),
            1
        );
        // Alert annotates the merged snapshot and health, never flips it.
        let m = agg.merged_snapshot();
        assert!(m.series.iter().any(|s| s.name == "cluster_slow_link"
            && s.labels.iter().any(|(k, p)| k == "link" && p == "0->1")
            && s.sample == Sample::Gauge(1)));
        let h = agg.health();
        assert!(h.healthy, "slow link is degraded, not down: {}", h.body);
        assert!(h.body.contains("slow_link:0->1"));

        // Healthy RTTs again: the alert deactivates but stays in history.
        let fast_round = || {
            vec![
                link_ob(
                    "0",
                    &[("1", 10_000, 10_000, 200, 0), ("2", 10_000, 10_000, 200, 0)],
                ),
                link_ob(
                    "1",
                    &[("0", 10_000, 10_000, 200, 0), ("2", 10_000, 10_000, 200, 0)],
                ),
                link_ob(
                    "2",
                    &[("0", 10_000, 10_000, 200, 0), ("1", 10_000, 10_000, 200, 0)],
                ),
            ]
        };
        agg.ingest_round(fast_round(), 10_000);
        assert!(agg.active_alerts().iter().all(|a| a.kind != "slow_link"));
        assert!(agg.alerts().iter().any(|a| a.kind == "slow_link"));
    }

    #[test]
    fn slow_link_alert_retires_when_owner_rank_evicted() {
        let mut cfg = config(3);
        cfg.slowlink_consecutive = 2;
        let agg = ClusterAggregator::new(cfg);
        let rounds = |rtt01: u64| {
            vec![
                link_ob(
                    "0",
                    &[("1", 5_000, 5_000, rtt01, 0), ("2", 5_000, 5_000, 100, 0)],
                ),
                link_ob(
                    "1",
                    &[("0", 5_000, 5_000, 100, 0), ("2", 5_000, 5_000, 100, 0)],
                ),
                link_ob(
                    "2",
                    &[("0", 5_000, 5_000, 100, 0), ("1", 5_000, 5_000, 100, 0)],
                ),
            ]
        };
        for round in 0..3u64 {
            agg.ingest_round(rounds(40_000), 1_000 + round * 1_000);
        }
        assert!(agg
            .active_alerts()
            .iter()
            .any(|a| a.kind == "slow_link" && a.rank.as_deref() == Some("0->1")));
        // Rank 0 dies: its slow-link record must not stay active.
        agg.ingest_round(
            vec![
                RankObservation::default(),
                link_ob(
                    "1",
                    &[("0", 5_000, 5_000, 100, 0), ("2", 5_000, 5_000, 100, 0)],
                ),
                link_ob(
                    "2",
                    &[("0", 5_000, 5_000, 100, 0), ("1", 5_000, 5_000, 100, 0)],
                ),
            ],
            10_000,
        );
        assert!(agg.active_alerts().iter().all(|a| a.kind != "slow_link"));
    }

    #[test]
    fn cluster_json_carries_links_and_symmetric_traffic_matrix() {
        let agg = ClusterAggregator::new(config(2));
        // What 0 sent to 1 (1234 bytes) is what 1 received from 0.
        agg.ingest_round(
            vec![
                link_ob("0", &[("1", 1_234, 777, 150, 2)]),
                link_ob("1", &[("0", 777, 1_234, 140, 0)]),
            ],
            1_000,
        );
        let v: Value = serde_json::from_str(&agg.cluster_json_at(2_000)).unwrap();
        let ranks = v.get("ranks").unwrap().as_array().unwrap();
        let links0 = ranks[0].get("links").unwrap().as_array().unwrap();
        assert_eq!(links0[0].get("peer").unwrap().as_str(), Some("1"));
        assert_eq!(links0[0].get("tx_bytes").unwrap().as_u64(), Some(1_234));
        assert_eq!(links0[0].get("ack_lag_seq").unwrap().as_u64(), Some(2));
        let matrix = v.get("traffic_matrix").unwrap().as_array().unwrap();
        assert_eq!(matrix.len(), 2);
        for entry in matrix {
            assert_eq!(
                entry.get("tx_bytes").unwrap().as_u64(),
                entry.get("peer_rx_bytes").unwrap().as_u64(),
                "tx at source == rx at destination: {entry:?}"
            );
        }
        // A wire-less round drops the links back out of the document.
        let agg2 = ClusterAggregator::new(config(2));
        agg2.ingest_round(
            vec![
                healthy_ob(rank_snapshot("0", 1, 0, 0)),
                healthy_ob(rank_snapshot("1", 1, 0, 0)),
            ],
            1_000,
        );
        let v: Value = serde_json::from_str(&agg2.cluster_json_at(2_000)).unwrap();
        assert!(v.get("traffic_matrix").is_none());
        let ranks = v.get("ranks").unwrap().as_array().unwrap();
        assert!(ranks[0].get("links").is_none());
    }

    #[test]
    fn health_summarizes_worst_rank_state() {
        let agg = ClusterAggregator::new(config(3));
        // Before any round: unhealthy, pending.
        let h = agg.health();
        assert!(!h.healthy);
        assert!(h.body.contains("awaiting first scrape"));

        // All healthy.
        agg.ingest_round(
            (0..3)
                .map(|i| healthy_ob(rank_snapshot(&i.to_string(), 10, 1, 1)))
                .collect(),
            1_000,
        );
        let h = agg.health();
        assert!(h.healthy);
        assert!(h.body.contains("\"status\": \"ok\""));

        // Rank 1 unreachable, rank 2 serving 503: cluster 503 with the
        // offenders listed.
        agg.ingest_round(
            vec![
                healthy_ob(rank_snapshot("0", 20, 1, 1)),
                RankObservation::default(),
                RankObservation {
                    metrics: Some(rank_snapshot("2", 20, 1, 1)),
                    health: Some((false, false)),
                    timeseries: None,
                },
            ],
            2_000,
        );
        let h = agg.health();
        assert!(!h.healthy);
        let v: Value = serde_json::from_str(&h.body).unwrap();
        assert_eq!(v.get("status").unwrap().as_str(), Some("unhealthy"));
        let unreachable = v.get("unreachable_ranks").unwrap().as_array().unwrap();
        assert_eq!(unreachable.len(), 1);
        assert_eq!(unreachable[0].as_str(), Some("1"));
        let unhealthy = v.get("unhealthy_ranks").unwrap().as_array().unwrap();
        assert_eq!(unhealthy[0].as_str(), Some("2"));
    }

    #[test]
    fn scrapes_real_endpoints_and_serves_cluster_routes() {
        // Two synthetic per-rank endpoints, a real aggregator scraping
        // them over HTTP, and the cluster routes served from a third
        // server — the full plumbing minus the runtime.
        let mk_rank = |rank: &'static str, tasks: u64| {
            let routes = HttpRoutes {
                metrics_prometheus: Box::new(String::new),
                metrics_json: Box::new(move || rank_snapshot(rank, tasks, 3, 1).to_json()),
                timeseries_json: Box::new(|| {
                    "{\"schema\":1,\"samples_total\":7,\"downsamples\":0,\"points\":[]}".to_string()
                }),
                trace_json: Box::new(|| "{}".to_string()),
                healthz: Box::new(|| HealthVerdict {
                    healthy: true,
                    body: "{\"status\":\"ok\"}".to_string(),
                }),
                dynamic: None,
            };
            ObsHttpServer::serve(0, routes).unwrap()
        };
        let r0 = mk_rank("0", 40);
        let r1 = mk_rank("1", 2);
        let agg = ClusterAggregator::new(ClusterConfig {
            targets: vec![
                format!("127.0.0.1:{}", r0.port()),
                format!("127.0.0.1:{}", r1.port()),
            ],
            ..ClusterConfig::default()
        });
        agg.scrape_once(1_000);
        agg.scrape_once(2_000);
        assert_eq!(agg.rounds(), 2);

        let v: Value = serde_json::from_str(&agg.cluster_json_at(3_000)).unwrap();
        let totals = v.get("totals").unwrap();
        assert_eq!(
            totals
                .get("counters")
                .unwrap()
                .get("tasks_executed")
                .unwrap()
                .as_u64(),
            Some(42)
        );
        let ranks = v.get("ranks").unwrap().as_array().unwrap();
        assert!(ranks
            .iter()
            .all(|r| r.get("status").unwrap().as_str() == Some("ok")));
        assert_eq!(
            ranks[0]
                .get("timeseries")
                .unwrap()
                .get("samples_total")
                .unwrap()
                .as_u64(),
            Some(7)
        );

        // Serve the aggregator's routes and hit them over HTTP.
        let agg2 = Arc::clone(&agg);
        let routes = HttpRoutes {
            metrics_prometheus: Box::new({
                let agg = Arc::clone(&agg);
                move || agg.prometheus()
            }),
            metrics_json: Box::new({
                let agg = Arc::clone(&agg);
                move || agg.merged_snapshot().to_json()
            }),
            timeseries_json: Box::new(|| "{}".to_string()),
            trace_json: Box::new(|| "{}".to_string()),
            healthz: Box::new(|| HealthVerdict {
                healthy: true,
                body: "{}".to_string(),
            }),
            dynamic: Some(cluster_routes(agg2, true)),
        };
        let dash = ObsHttpServer::serve(0, routes).unwrap();
        let target = format!("127.0.0.1:{}", dash.port());
        let (status, body) = scrape(&target, "/cluster.json").unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("\"totals\""));
        let (status, body) = scrape(&target, "/alerts.json").unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("\"alerts\""));
        let (status, body) = scrape(&target, "/cluster/metrics").unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("ttg_cluster_skew_cov"));
        assert!(body.contains("ttg_cluster_ranks 2"));
        let (status, body) = scrape(&target, "/healthz").unwrap();
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"aggregator\": true"));

        // Kill a rank: the next round flips cluster health to 503 and
        // names it.
        drop(r1);
        agg.scrape_once(3_000);
        let (status, body) = scrape(&target, "/healthz").unwrap();
        assert_eq!(status, 503);
        assert!(body.contains("unreachable_ranks"));
    }
}
