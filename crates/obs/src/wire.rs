//! Wire-path export: the transport's recorder
//! (`ttg_runtime::obs::wire`) rendered as metrics and as `/net.json`.
//!
//! Both go through the emit-when-set rule, so a snapshot without wire
//! activity — every `obs`-off snapshot — appends nothing, leaving JSON
//! and Prometheus output byte-identical to the pre-wire format.
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

use crate::metrics::{MetricsSnapshot, Sample};
use crate::obj;
use serde::Value;
use ttg_runtime::obs::hist::HistogramSnapshot;
use ttg_runtime::obs::wire::{WireSnapshot, LINK_VALUES};
use ttg_sync::OBS;

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
    pub sample: fn(u64) -> Sample,
    /// Prometheus `# HELP` text.
    pub help: &'static str,
}

/// The per-link family, in JSON order; the recorder's index constants
/// (`ttg_runtime::obs::wire::BYTES_TX`, ...) index it and a link
/// snapshot's `values`.
pub const LINK_FIELDS: [LinkField; LINK_VALUES] = [
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

/// Series order of the export: both directions of one counter name
/// stay adjacent (bytes tx, bytes rx, frames tx, frames rx, ...), as
/// Prometheus expects of a metric family.
const EXPORT_ORDER: [usize; 7] = [0, 2, 1, 3, 4, 5, 6];

/// Appends `snap` to a [`MetricsSnapshot`] — stage
/// histograms, write/batching counters, and `{peer}`-labeled link
/// series — all through the emit-when-set rule, so a snapshot
/// without wire activity (and every off-build snapshot) renders
/// byte-identically to the pre-wire format.
pub fn export_into(snap: &WireSnapshot, m: &mut MetricsSnapshot) {
    for (name, h) in snap.stages() {
        m.emit_if_set(name, Vec::new(), Sample::Histogram(Box::new(*h)));
    }
    let writes = [
        ("wire_writes", snap.bytes_per_write.count()),
        ("wire_write_bytes", snap.bytes_per_write.sum),
        ("wire_write_frames", snap.frames_per_write.sum),
    ];
    for (name, v) in writes {
        m.emit_if_set(name, Vec::new(), Sample::Counter(v));
    }
    for l in &snap.links {
        for i in EXPORT_ORDER {
            let f = &LINK_FIELDS[i];
            let mut labels = vec![("peer".to_string(), l.peer.to_string())];
            labels.extend(f.dir.map(|d| ("dir".to_string(), d.to_string())));
            m.emit_if_set(f.metric, labels, (f.sample)(l.values[i]));
        }
    }
}

/// Renders `snap` as the `/net.json` body for one rank.
pub fn net_json(snap: &WireSnapshot, rank: usize) -> String {
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
    let stages = snap.stages().map(|(name, h)| {
        let short = name.strip_prefix("wire_").unwrap_or(name);
        (short, stage_value(h, true))
    });
    let stages = obj(stages.into());
    let batching = obj(vec![
        ("bytes_per_write", stage_value(&snap.bytes_per_write, false)),
        (
            "frames_per_write",
            stage_value(&snap.frames_per_write, false),
        ),
    ]);
    let links = Value::Array(
        snap.links
            .iter()
            .map(|l| {
                let mut fields = vec![("peer", Value::UInt(l.peer as u64))];
                let values = LINK_FIELDS.iter().zip(l.values);
                fields.extend(values.map(|(f, v)| (f.json, Value::UInt(v))));
                obj(fields)
            })
            .collect(),
    );
    let v = obj(vec![
        ("schema", Value::UInt(1)),
        ("rank", Value::UInt(rank as u64)),
        ("wire_enabled", Value::Bool(OBS)),
        ("stages", stages),
        ("batching", batching),
        ("links", links),
    ]);
    serde_json::to_string_pretty(&v).expect("net.json serialization cannot fail")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ttg_runtime::obs::wire::WireObs;

    #[test]
    fn empty_snapshot_exports_nothing() {
        // The byte-identical contract: a snapshot with no wire
        // activity must not change the rendered metrics at all —
        // this is trivially what every off-build snapshot looks like.
        let mut m = MetricsSnapshot::with_labels(vec![("rank".to_string(), "0".to_string())]);
        m.push("tasks_executed", vec![], Sample::Counter(1));
        let before_json = m.to_json();
        let before_prom = m.to_prometheus("ttg");
        export_into(&WireObs::new(4).snapshot(), &mut m);
        assert_eq!(m.to_json(), before_json);
        assert_eq!(m.to_prometheus("ttg"), before_prom);
    }

    #[test]
    fn net_json_shape_when_empty() {
        let s = WireSnapshot::default();
        let v: Value = serde_json::from_str(&net_json(&s, 3)).unwrap();
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
        use ttg_runtime::obs::wire::RESEND_BUFFER_BYTES;
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
        export_into(&s, &mut m);
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
        assert_eq!(back.in_sections(), m.in_sections());
    }

    #[cfg(feature = "obs")]
    #[test]
    fn net_json_reports_links_and_stage_quantiles() {
        let w = WireObs::new(2);
        for _ in 0..100 {
            w.record_write(1_000, 32, 1);
        }
        w.link_tx(1, 3_200);
        let v: Value = serde_json::from_str(&net_json(&w.snapshot(), 0)).unwrap();
        assert_eq!(v.get("wire_enabled"), Some(&Value::Bool(true)));
        let write = v.get("stages").unwrap().get("write").unwrap();
        assert_eq!(write.get("count").and_then(Value::as_u64), Some(100));
        assert!(write.get("p50_us").and_then(Value::as_f64).unwrap() > 0.0);
        let links = v.get("links").unwrap().as_array().unwrap();
        assert_eq!(links[0].get("peer").and_then(Value::as_u64), Some(1));
        assert_eq!(links[0].get("bytes_tx").and_then(Value::as_u64), Some(3200));
    }
}
