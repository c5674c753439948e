//! Wire-path observability: per-stage frame attribution and per-peer
//! link telemetry.
//!
//! Between `send_msg` and handler dispatch a frame crosses five
//! software stages, each with its own failure mode:
//!
//! ```text
//!   sender                                      receiver
//!   ------                                      --------
//!   encode/CRC          (wire_encode)
//!   append -> write     (wire_lock_wait)
//!   write syscall       (wire_write)
//!        |------------- kernel + network -------------|
//!                                read -> decode  (wire_read_decode)
//!                                decode -> sched (wire_dispatch)
//! ```
//!
//! `wire_lock_wait` keeps its name from the time a sender waited for
//! the peer's writer mutex. A TCP link has no such wait any more: a
//! sender appends its frame to the link and leaves, and the *frame*
//! waits — corked until the link is flushed, or behind the write in
//! progress, or behind a fault-injected link delay — for the thread
//! holding the link's write role to start the write that carries it.
//! That wait is what the stage measures, once per frame (the mean over
//! the frames of one ring chunk); `wire_write` is once per *write*,
//! which carries a batch (see `frames_per_write`). Stage times are
//! per-frame latencies and the frames of a batch wait side by side, so
//! a sum of stage medians is a frame's latency, not a message's share
//! of the wall clock.
//!
//! [`WireObs`] owns one [`SharedHistogram`] per stage plus a per-peer
//! cell set (bytes/frames in both directions, ack lag, ack RTT, resend
//! buffer occupancy) fed by the transport. The transport also records
//! bytes-per-write and frames-per-write distributions — the batching
//! occupancy numbers the zero-copy batched wire path (ROADMAP item 1)
//! is specified against.
//!
//! Feature contract (DESIGN.md §7.5): the recording state sits behind
//! [`Gated`], so with `obs` off [`WireObs`] is zero-sized, every
//! recording method compiles to nothing, [`WireObs::snapshot`] returns
//! an empty [`WireSnapshot`] and — by the emit-when-set rule —
//! [`WireSnapshot::export_into`] appends nothing, leaving JSON and
//! Prometheus output byte-identical to the pre-wire format. The
//! transport branches on [`ttg_sync::OBS`] to skip clock reads entirely
//! in the off build.
//!
//! Exported metric names (identity prefix added at render time):
//!
//! | name                           | kind            | labels        |
//! |--------------------------------|-----------------|---------------|
//! | `wire_lock_wait` … `wire_dispatch` | histogram (ns) | —         |
//! | `wire_writes`                  | counter         | —             |
//! | `wire_write_bytes`             | counter         | —             |
//! | `wire_write_frames`            | counter         | —             |
//! | one per [`LINK_FIELDS`] row    | counter / gauge | `peer`, `dir` |
//!
//! Link byte/frame counts cover *sequenced* frames only (the ones a
//! peer acks and delivers), counted once per unique frame: replays and
//! receiver-side duplicates are excluded, as are heartbeats and acks.
//! That is what makes the cluster traffic matrix symmetric — bytes
//! rank 0 sent to rank 1 equal bytes rank 1 received from rank 0 once
//! the mesh is quiet.

use crate::hist::{HistogramSnapshot, SharedHistogram};
use crate::metrics::{MetricsSnapshot, Sample};
use serde::Value;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use ttg_sync::{Gated, OBS};

/// One per-link value: where it is spelled on each surface.
#[derive(Debug)]
pub struct LinkField {
    /// Key in a `/net.json` link object.
    pub json: &'static str,
    /// Key in a `/cluster.json` link object.
    pub cluster_json: &'static str,
    /// Exported series name (identity prefix added at render time).
    pub metric: &'static str,
    /// Value of the `dir` label, for the series that carry one.
    pub dir: Option<&'static str>,
    /// Counter or gauge.
    pub sample: fn(u64) -> Sample<'static>,
    /// Prometheus `# HELP` text.
    pub help: &'static str,
}

/// The per-link family, in JSON order; the constants below index it
/// (and [`LinkSnapshot::values`]).
pub const LINK_FIELDS: [LinkField; 7] = [
    // Payload+header bytes / count of unique sequenced frames sent.
    LinkField {
        json: "bytes_tx",
        cluster_json: "tx_bytes",
        metric: "net_link_bytes",
        dir: Some("tx"),
        sample: Sample::Counter,
        help: "Unique sequenced frame bytes per peer link and direction.",
    },
    LinkField {
        json: "frames_tx",
        cluster_json: "tx_frames",
        metric: "net_link_frames",
        dir: Some("tx"),
        sample: Sample::Counter,
        help: "Unique sequenced frames per peer link and direction.",
    },
    // Bytes / count of unique sequenced frames received.
    LinkField {
        json: "bytes_rx",
        cluster_json: "rx_bytes",
        metric: "net_link_bytes",
        dir: Some("rx"),
        sample: Sample::Counter,
        help: "Unique sequenced frame bytes per peer link and direction.",
    },
    LinkField {
        json: "frames_rx",
        cluster_json: "rx_frames",
        metric: "net_link_frames",
        dir: Some("rx"),
        sample: Sample::Counter,
        help: "Unique sequenced frames per peer link and direction.",
    },
    // Sequences sent but not yet cumulatively acked.
    LinkField {
        json: "ack_lag_seq",
        cluster_json: "ack_lag_seq",
        metric: "net_link_ack_lag_seq",
        dir: None,
        sample: Sample::Gauge,
        help: "Sequenced frames sent but not yet cumulatively acked, per peer.",
    },
    // Latest send→ack round trip in µs (0 until the first ack).
    LinkField {
        json: "ack_rtt_us",
        cluster_json: "ack_rtt_us",
        metric: "net_link_ack_rtt_us",
        dir: None,
        sample: Sample::Gauge,
        help: "Latest send-to-cumulative-ack round trip per peer link.",
    },
    // Bytes currently buffered for replay to this peer.
    LinkField {
        json: "resend_buffer_bytes",
        cluster_json: "resend_buffer_bytes",
        metric: "net_link_resend_buffer_bytes",
        dir: None,
        sample: Sample::Gauge,
        help: "Bytes buffered for replay per peer link.",
    },
];

pub const BYTES_TX: usize = 0;
pub const FRAMES_TX: usize = 1;
pub const BYTES_RX: usize = 2;
pub const FRAMES_RX: usize = 3;
pub const ACK_LAG_SEQ: usize = 4;
pub const ACK_RTT_US: usize = 5;
pub const RESEND_BUFFER_BYTES: usize = 6;

/// Series order of the export: both directions of one counter name
/// stay adjacent (bytes tx, bytes rx, frames tx, frames rx, ...), as
/// Prometheus expects of a metric family.
const EXPORT_ORDER: [usize; 7] = [0, 2, 1, 3, 4, 5, 6];

type LinkCells = [AtomicU64; LINK_FIELDS.len()];

#[derive(Default)]
struct WireInner {
    lock_wait: SharedHistogram,
    encode: SharedHistogram,
    write: SharedHistogram,
    read_decode: SharedHistogram,
    dispatch: SharedHistogram,
    bytes_per_write: SharedHistogram,
    frames_per_write: SharedHistogram,
    links: Box<[LinkCells]>,
}

impl std::fmt::Debug for WireInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WireInner")
            .field("links", &self.links.len())
            .finish()
    }
}

/// Per-stage and per-link recording state, owned by a transport.
///
/// All methods are callable from any thread; recording is relaxed
/// atomics. With `obs` off this is zero-sized and every method compiles
/// to nothing.
#[derive(Debug, Default)]
pub struct WireObs(Gated<WireInner>);

impl WireObs {
    /// Creates recording state sized for `nranks` peers (peer index =
    /// rank; the self slot stays zero).
    pub fn new(nranks: usize) -> Self {
        WireObs(Gated::new_with(|| WireInner {
            links: (0..nranks.max(1)).map(|_| LinkCells::default()).collect(),
            ..Default::default()
        }))
    }

    /// Monotonic nanoseconds for stage timing — 0 (no clock read) when
    /// `obs` is off, so `now_ns()` deltas are free to compute
    /// unconditionally.
    #[inline]
    pub fn now_ns() -> u64 {
        if OBS {
            ttg_sync::clock::now_ns()
        } else {
            0
        }
    }

    /// Records one frame's wait from its append to the start of the
    /// write that carries it (ns).
    #[inline]
    pub fn record_lock_wait(&self, ns: u64) {
        self.0.with(|i| i.lock_wait.record(ns));
    }

    /// Records frame encode + CRC time (ns).
    #[inline]
    pub fn record_encode(&self, ns: u64) {
        self.0.with(|i| i.encode.record(ns));
    }

    /// Records one batch written to a peer socket: syscall time plus
    /// the bytes and frames it carried (the batching-occupancy stats).
    #[inline]
    pub fn record_write(&self, ns: u64, bytes: u64, frames: u64) {
        self.0.with(|i| {
            i.write.record(ns);
            i.bytes_per_write.record(bytes);
            i.frames_per_write.record(frames);
        });
    }

    /// Records first-header-byte → decoded-frame time on the receiver
    /// (ns). Excludes idle time blocked waiting for a frame to start.
    #[inline]
    pub fn record_read_decode(&self, ns: u64) {
        self.0.with(|i| i.read_decode.record(ns));
    }

    /// Records decoded-frame → handler-scheduled time (ns): sink
    /// delivery, task insertion (a batch's time spread over its frames).
    #[inline]
    pub fn record_dispatch(&self, ns: u64) {
        self.0.with(|i| i.dispatch.record(ns));
    }

    /// Runs `f` on `peer`'s cells (nothing for an out-of-range peer).
    #[inline]
    fn link(&self, peer: usize, f: impl FnOnce(&LinkCells)) {
        self.0.with(|i| i.links.get(peer).map(f));
    }

    /// Counts one unique sequenced frame sent to `peer`.
    #[inline]
    pub fn link_tx(&self, peer: usize, bytes: u64) {
        self.link(peer, |l| {
            l[BYTES_TX].fetch_add(bytes, Relaxed);
            l[FRAMES_TX].fetch_add(1, Relaxed);
        });
    }

    /// Counts one unique sequenced frame received from `peer`
    /// (duplicates suppressed by the dedup window are not counted).
    #[inline]
    pub fn link_rx(&self, peer: usize, bytes: u64) {
        self.link(peer, |l| {
            l[BYTES_RX].fetch_add(bytes, Relaxed);
            l[FRAMES_RX].fetch_add(1, Relaxed);
        });
    }

    /// Sets the unacked-sequence gauge for `peer`: highest sequence
    /// sent minus highest sequence the peer has cumulatively acked.
    #[inline]
    pub fn set_ack_lag(&self, peer: usize, lag: u64) {
        self.link(peer, |l| l[ACK_LAG_SEQ].store(lag, Relaxed));
    }

    /// Records the latest ack round-trip for `peer` (µs): time from
    /// first wire write of a sequenced frame to the cumulative ack
    /// covering it. Includes the receiver's ack cadence by design —
    /// it is the replay-buffer residence time, not a network RTT.
    #[inline]
    pub fn record_ack_rtt_us(&self, peer: usize, us: u64) {
        self.link(peer, |l| l[ACK_RTT_US].store(us, Relaxed));
    }

    /// Adjusts the per-peer resend-buffer occupancy gauge (bytes
    /// buffered awaiting ack; positive on buffer push, negative on
    /// trim/drop).
    #[inline]
    pub fn resend_delta(&self, peer: usize, delta: i64) {
        self.link(peer, |l| {
            let cell = &l[RESEND_BUFFER_BYTES];
            if delta >= 0 {
                cell.fetch_add(delta as u64, Relaxed);
            } else {
                // Saturate rather than wrap if a trim races a reset.
                let sub = delta.unsigned_abs();
                let _ = cell.fetch_update(Relaxed, Relaxed, |cur| Some(cur.saturating_sub(sub)));
            }
        });
    }

    /// Freezes the current state into a mergeable, exportable snapshot
    /// (empty when `obs` is off).
    pub fn snapshot(&self) -> WireSnapshot {
        let snap = self.0.with(|i| WireSnapshot {
            lock_wait: i.lock_wait.snapshot(),
            encode: i.encode.snapshot(),
            write: i.write.snapshot(),
            read_decode: i.read_decode.snapshot(),
            dispatch: i.dispatch.snapshot(),
            bytes_per_write: i.bytes_per_write.snapshot(),
            frames_per_write: i.frames_per_write.snapshot(),
            links: i
                .links
                .iter()
                .enumerate()
                .map(|(peer, l)| LinkSnapshot {
                    peer,
                    values: std::array::from_fn(|f| l[f].load(Relaxed)),
                })
                .filter(|l| !l.is_idle())
                .collect(),
        });
        snap.unwrap_or_default()
    }
}

/// Per-peer link telemetry at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkSnapshot {
    /// Peer rank.
    pub peer: usize,
    /// One value per [`LINK_FIELDS`] row (counters since start, gauges
    /// as of now).
    pub values: [u64; LINK_FIELDS.len()],
}

impl LinkSnapshot {
    /// Whether this link has seen no traffic and holds no state —
    /// idle links are filtered out of snapshots and exports.
    pub fn is_idle(&self) -> bool {
        self.values.iter().all(|v| *v == 0)
    }
}

/// Frozen wire-path state: stage histograms, batching-occupancy
/// distributions, and per-peer link telemetry. Always a real struct
/// (empty with `obs` off) so the plumbing above the transport needs no
/// feature gates.
#[derive(Debug, Clone, Default)]
pub struct WireSnapshot {
    /// Append → write-start wait per frame (ns).
    pub lock_wait: HistogramSnapshot,
    /// Encode + CRC (ns).
    pub encode: HistogramSnapshot,
    /// `write_all` syscall (ns).
    pub write: HistogramSnapshot,
    /// First header byte → decoded frame (ns).
    pub read_decode: HistogramSnapshot,
    /// Decoded frame → handler scheduled (ns).
    pub dispatch: HistogramSnapshot,
    /// Bytes carried per `write_all` (batching occupancy).
    pub bytes_per_write: HistogramSnapshot,
    /// Frames carried per `write_all` (batching occupancy).
    pub frames_per_write: HistogramSnapshot,
    /// Per-peer link telemetry, peers with any activity only.
    pub links: Vec<LinkSnapshot>,
}

impl WireSnapshot {
    /// The five latency stages in lifecycle order, with their export
    /// names.
    pub fn stages(&self) -> [(&'static str, &HistogramSnapshot); 5] {
        [
            ("wire_encode", &self.encode),
            ("wire_lock_wait", &self.lock_wait),
            ("wire_write", &self.write),
            ("wire_read_decode", &self.read_decode),
            ("wire_dispatch", &self.dispatch),
        ]
    }

    /// Whether nothing was recorded (the off-build constant, and the
    /// on-build state before any traffic).
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
            && self.write.count() == 0
            && self.stages().iter().all(|(_, h)| h.count() == 0)
    }

    /// Folds another rank's stage and batching histograms in (links
    /// are per-rank and stay as they are).
    pub fn merge_stages(&mut self, other: &WireSnapshot) {
        self.lock_wait.merge(&other.lock_wait);
        self.encode.merge(&other.encode);
        self.write.merge(&other.write);
        self.read_decode.merge(&other.read_decode);
        self.dispatch.merge(&other.dispatch);
        self.bytes_per_write.merge(&other.bytes_per_write);
        self.frames_per_write.merge(&other.frames_per_write);
    }

    /// Appends the wire metrics to a [`MetricsSnapshot`] — stage
    /// histograms, write/batching counters, and `{peer}`-labeled link
    /// series — all through the emit-when-set rule, so a snapshot
    /// without wire activity (and every off-build snapshot) renders
    /// byte-identically to the pre-wire format.
    pub fn export_into(&self, m: &mut MetricsSnapshot) {
        for (name, h) in self.stages() {
            m.emit_if_set(name, Vec::new(), Sample::Histogram(h));
        }
        let writes = [
            ("wire_writes", self.bytes_per_write.count()),
            ("wire_write_bytes", self.bytes_per_write.sum),
            ("wire_write_frames", self.frames_per_write.sum),
        ];
        for (name, v) in writes {
            m.emit_if_set(name, Vec::new(), Sample::Counter(v));
        }
        for l in &self.links {
            for i in EXPORT_ORDER {
                let f = &LINK_FIELDS[i];
                let mut labels = vec![("peer".to_string(), l.peer.to_string())];
                labels.extend(f.dir.map(|d| ("dir".to_string(), d.to_string())));
                m.emit_if_set(f.metric, labels, (f.sample)(l.values[i]));
            }
        }
    }

    /// Renders the `/net.json` body for one rank.
    pub fn net_json(&self, rank: usize) -> String {
        let stage_value = |h: &HistogramSnapshot, us: bool| {
            let scale = if us { 1e3 } else { 1.0 };
            let unit = if us { "_us" } else { "" };
            Value::Object(vec![
                ("count".to_string(), Value::UInt(h.count())),
                (format!("mean{unit}"), Value::Float(h.mean() / scale)),
                (format!("p50{unit}"), Value::Float(h.p50() as f64 / scale)),
                (format!("p95{unit}"), Value::Float(h.p95() as f64 / scale)),
                (format!("p99{unit}"), Value::Float(h.p99() as f64 / scale)),
                (format!("max{unit}"), Value::Float(h.max as f64 / scale)),
            ])
        };
        let stages = Value::Object(
            self.stages()
                .iter()
                .map(|(name, h)| {
                    let short = name.strip_prefix("wire_").unwrap_or(name).to_string();
                    (short, stage_value(h, true))
                })
                .collect(),
        );
        let batching = Value::Object(vec![
            (
                "bytes_per_write".to_string(),
                stage_value(&self.bytes_per_write, false),
            ),
            (
                "frames_per_write".to_string(),
                stage_value(&self.frames_per_write, false),
            ),
        ]);
        let links = Value::Array(
            self.links
                .iter()
                .map(|l| {
                    let mut fields = vec![("peer".to_string(), Value::UInt(l.peer as u64))];
                    let values = LINK_FIELDS.iter().zip(l.values);
                    fields.extend(values.map(|(f, v)| (f.json.to_string(), Value::UInt(v))));
                    Value::Object(fields)
                })
                .collect(),
        );
        let v = Value::Object(vec![
            ("schema".to_string(), Value::UInt(1)),
            ("rank".to_string(), Value::UInt(rank as u64)),
            ("wire_enabled".to_string(), Value::Bool(OBS)),
            ("stages".to_string(), stages),
            ("batching".to_string(), batching),
            ("links".to_string(), links),
        ]);
        serde_json::to_string_pretty(&v).expect("net.json serialization cannot fail")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_snapshot_exports_nothing() {
        // The byte-identical contract: a snapshot with no wire
        // activity must not change the rendered metrics at all —
        // this is trivially what every off-build snapshot looks like.
        let mut m = MetricsSnapshot::with_labels(vec![("rank".to_string(), "0".to_string())]);
        m.counter("tasks_executed", 1);
        let before_json = m.to_json();
        let before_prom = m.to_prometheus("ttg");
        WireObs::new(4).snapshot().export_into(&mut m);
        assert_eq!(m.to_json(), before_json);
        assert_eq!(m.to_prometheus("ttg"), before_prom);
    }

    #[test]
    fn net_json_shape_when_empty() {
        let s = WireSnapshot::default();
        let v: Value = serde_json::from_str(&s.net_json(3)).unwrap();
        assert_eq!(v.get("schema").and_then(Value::as_u64), Some(1));
        assert_eq!(v.get("rank").and_then(Value::as_u64), Some(3));
        assert_eq!(
            v.get("links").and_then(Value::as_array).map(|a| a.len()),
            Some(0)
        );
        assert!(v.get("stages").and_then(|s| s.get("encode")).is_some());
    }

    #[cfg(feature = "obs")]
    #[test]
    fn recording_surfaces_in_snapshot_and_export() {
        let w = WireObs::new(3);
        w.record_encode(500);
        w.record_lock_wait(100);
        w.record_write(2_000, 64, 1);
        w.record_read_decode(1_500);
        w.record_dispatch(700);
        w.link_tx(1, 64);
        w.link_rx(1, 32);
        w.set_ack_lag(1, 5);
        w.record_ack_rtt_us(1, 250);
        w.resend_delta(1, 64);
        w.resend_delta(1, -64);
        w.resend_delta(2, 128);

        let s = w.snapshot();
        assert!(!s.is_empty());
        assert_eq!(s.encode.count(), 1);
        assert_eq!(s.bytes_per_write.sum, 64);
        assert_eq!(s.frames_per_write.sum, 1);
        // Peer 0 never moved: filtered out. Peer 1 and 2 present.
        assert_eq!(s.links.len(), 2);
        let l1 = s.links.iter().find(|l| l.peer == 1).unwrap();
        // bytes/frames tx, bytes/frames rx, ack lag, ack rtt, resend.
        assert_eq!(l1.values, [64, 1, 32, 1, 5, 250, 0]);
        let l2 = s.links.iter().find(|l| l.peer == 2).unwrap();
        assert_eq!(l2.values[RESEND_BUFFER_BYTES], 128);

        let mut m = MetricsSnapshot::with_labels(vec![("rank".to_string(), "0".to_string())]);
        s.export_into(&mut m);
        let prom = m.to_prometheus("ttg");
        assert!(prom.contains("ttg_wire_encode_seconds_count{rank=\"0\"} 1"));
        assert!(prom.contains("ttg_net_link_bytes{rank=\"0\",peer=\"1\",dir=\"tx\"} 64"));
        assert!(prom.contains("ttg_net_link_ack_rtt_us{rank=\"0\",peer=\"1\"} 250"));
        assert!(prom.contains("ttg_net_link_resend_buffer_bytes{rank=\"0\",peer=\"2\"} 128"));
        // Only-when-nonzero: peer 1's resend gauge (back to 0) absent.
        assert!(!prom.contains("ttg_net_link_resend_buffer_bytes{rank=\"0\",peer=\"1\"}"));
        // Round-trips through the scrape parser (the cluster path).
        let v: Value = serde_json::from_str(&m.to_json()).unwrap();
        let back = MetricsSnapshot::from_value(&v).unwrap();
        assert_eq!(back.labeled_counters, m.labeled_counters);
        assert_eq!(back.labeled_gauges, m.labeled_gauges);
    }

    #[cfg(feature = "obs")]
    #[test]
    fn net_json_reports_links_and_stage_quantiles() {
        let w = WireObs::new(2);
        for _ in 0..100 {
            w.record_write(1_000, 32, 1);
        }
        w.link_tx(1, 3_200);
        let v: Value = serde_json::from_str(&w.snapshot().net_json(0)).unwrap();
        assert_eq!(v.get("wire_enabled"), Some(&Value::Bool(true)));
        let write = v.get("stages").unwrap().get("write").unwrap();
        assert_eq!(write.get("count").and_then(Value::as_u64), Some(100));
        assert!(write.get("p50_us").and_then(Value::as_f64).unwrap() > 0.0);
        let links = v.get("links").unwrap().as_array().unwrap();
        assert_eq!(links[0].get("peer").and_then(Value::as_u64), Some(1));
        assert_eq!(links[0].get("bytes_tx").and_then(Value::as_u64), Some(3200));
    }
}
