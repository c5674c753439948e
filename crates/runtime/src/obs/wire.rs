//! Wire-path recorder: per-stage frame attribution and per-peer link
//! telemetry, written by the transport.
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
//! an empty [`WireSnapshot`], which `ttg-obs` exports as nothing. The
//! transport branches on [`ttg_sync::OBS`] to skip clock reads entirely
//! in the off build. `ttg-obs` renders the snapshot as metrics and as
//! `/net.json`.
//!
//! Link byte/frame counts cover *sequenced* frames only (the ones a
//! peer acks and delivers), counted once per unique frame: replays and
//! receiver-side duplicates are excluded, as are heartbeats and acks.
//! That is what makes the cluster traffic matrix symmetric — bytes
//! rank 0 sent to rank 1 equal bytes rank 1 received from rank 0 once
//! the mesh is quiet.

use super::hist::{HistogramSnapshot, SharedHistogram};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use ttg_sync::{Gated, OBS};

/// Values kept per peer link; `ttg-obs`'s `LINK_FIELDS` names each.
pub const LINK_VALUES: usize = 7;

/// Unique sequenced frame bytes sent (index into [`LinkSnapshot::values`]).
pub const BYTES_TX: usize = 0;
/// Unique sequenced frames sent.
pub const FRAMES_TX: usize = 1;
/// Unique sequenced frame bytes received.
pub const BYTES_RX: usize = 2;
/// Unique sequenced frames received.
pub const FRAMES_RX: usize = 3;
/// Sequences sent but not yet cumulatively acked (gauge).
pub const ACK_LAG_SEQ: usize = 4;
/// Latest send→ack round trip in µs, 0 until the first ack (gauge).
pub const ACK_RTT_US: usize = 5;
/// Bytes currently buffered for replay to this peer (gauge).
pub const RESEND_BUFFER_BYTES: usize = 6;

type LinkCells = [AtomicU64; LINK_VALUES];

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
    /// One value per link field, indexed by the constants above
    /// (counters since start, gauges as of now).
    pub values: [u64; LINK_VALUES],
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::hist::LatencyHistogram;

    fn hist(values: &[u64]) -> HistogramSnapshot {
        let h = LatencyHistogram::new();
        values.iter().for_each(|&v| h.record(v));
        h.snapshot()
    }

    #[test]
    fn fresh_recorder_snapshots_empty() {
        assert!(WireSnapshot::default().is_empty());
        let s = WireObs::new(4).snapshot();
        assert!(s.is_empty());
        assert!(s.links.is_empty());
        assert_eq!(WireObs::new(0).snapshot().links.len(), 0);
    }

    #[test]
    fn links_surface_only_once_they_move() {
        let w = WireObs::new(4);
        w.link_tx(2, 100);
        w.link_tx(2, 50);
        w.link_rx(3, 7);
        w.link_tx(9, 1); // out of range: ignored
        let s = w.snapshot();
        if !OBS {
            assert!(s.is_empty(), "the off recorder keeps nothing");
            return;
        }
        assert!(!s.is_empty());
        let peers: Vec<usize> = s.links.iter().map(|l| l.peer).collect();
        assert_eq!(peers, [2, 3]);
        assert_eq!(s.links[0].values[BYTES_TX], 150);
        assert_eq!(s.links[0].values[FRAMES_TX], 2);
        assert_eq!(s.links[1].values[BYTES_RX], 7);
        assert_eq!(s.links[1].values[FRAMES_RX], 1);
    }

    #[test]
    fn resend_gauge_saturates_at_zero() {
        let w = WireObs::new(2);
        w.resend_delta(1, 10);
        let held = w.snapshot();
        w.resend_delta(1, -50);
        let drained = w.snapshot();
        if OBS {
            assert_eq!(held.links[0].values[RESEND_BUFFER_BYTES], 10);
        } else {
            assert!(held.links.is_empty());
        }
        // Back at zero the link holds no state and is filtered out.
        assert!(drained.links.is_empty());
    }

    #[test]
    fn merge_stages_sums_histograms_and_keeps_links() {
        let link = |peer| LinkSnapshot {
            peer,
            values: [1; LINK_VALUES],
        };
        let mut a = WireSnapshot {
            encode: hist(&[10, 20]),
            bytes_per_write: hist(&[64]),
            links: vec![link(1)],
            ..Default::default()
        };
        let b = WireSnapshot {
            encode: hist(&[30, 40, 50]),
            dispatch: hist(&[5]),
            links: vec![link(2)],
            ..Default::default()
        };
        a.merge_stages(&b);
        assert_eq!(a.encode.count(), 5);
        assert_eq!(a.encode.sum, 150);
        assert_eq!(a.encode.max, 50);
        assert_eq!(a.dispatch.count(), 1);
        assert_eq!(a.bytes_per_write.sum, 64);
        assert_eq!(a.links, [link(1)], "links are per rank");
    }

    #[test]
    fn stages_run_in_lifecycle_order() {
        let s = WireSnapshot {
            write: hist(&[3]),
            ..Default::default()
        };
        let names: Vec<&str> = s.stages().iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            [
                "wire_encode",
                "wire_lock_wait",
                "wire_write",
                "wire_read_decode",
                "wire_dispatch"
            ]
        );
        assert_eq!(s.stages()[2].1.count(), 1);
        assert!(!s.is_empty());
    }
}
