//! The pluggable transport abstraction.
//!
//! A [`Transport`] moves encoded [`Frame`]s between ranks; a
//! [`FrameSink`] is the destination's ingestion point (in practice the
//! runtime adapter that decodes a data frame into a scheduled task).
//! Keeping both as object-safe traits lets the same program run over
//! in-process delivery ([`LocalTransport`]) or real sockets
//! ([`crate::tcp::TcpTransport`]) without touching graph code.
//!
//! Failures are typed ([`NetError`]) rather than stringly `io::Error`s,
//! and a sink learns about a lost peer through [`FrameSink::peer_lost`]
//! so the runtime can abort its termination wave instead of waiting on
//! control frames that will never arrive.

use crate::error::{NetError, NetResult};
use crate::frame::{Decoded, Frame, FrameKind};
use std::io::Cursor;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Receives frames arriving at one rank.
pub trait FrameSink: Send + Sync {
    /// Ingests one frame sent by `src`. Called from the sender's thread
    /// (local transport) or a receiver thread (TCP), never from a worker
    /// of the destination runtime.
    fn deliver(&self, src: usize, frame: Frame);

    /// Ingests, in order, every `Data` frame one read of `src`'s socket
    /// decoded, and leaves `frames` empty. A sink that can take them in
    /// one operation overrides this; the default hands them over one by
    /// one.
    fn deliver_data(&self, src: usize, frames: &mut Vec<Frame>) {
        for frame in frames.drain(..) {
            self.deliver(src, frame);
        }
    }

    /// Asks the sink's side to flush the transport soon, from a thread
    /// of its own that is about to write anyway — so that the
    /// acknowledgement the caller just published rides on the next data
    /// write instead of one of its own. True if the sink took the
    /// request; false (the default) leaves the write to the caller.
    fn flush_soon(&self) -> bool {
        false
    }

    /// The transport declared `peer` dead (`error` says why: heartbeat
    /// loss, corrupt stream, reconnect deadline...). Called at most once
    /// per peer, from a transport-internal thread. Default: ignore.
    fn peer_lost(&self, peer: usize, error: &NetError) {
        let _ = (peer, error);
    }

    /// The connection to `peer` dropped but the recovery window is
    /// still open: the transport is buffering sends and waiting for a
    /// rejoin rather than declaring death. May be called more than once
    /// per peer (once per drop). Default: ignore.
    fn peer_recovering(&self, peer: usize) {
        let _ = peer;
    }

    /// A previously-dropped `peer` reconnected and the session
    /// handshake completed; unacked frames have been replayed.
    /// `same_incarnation` is false when the peer *process* restarted
    /// (its receive state was reset — buffered-but-unacked deliveries
    /// into the old incarnation are gone). Default: ignore.
    fn peer_rejoined(&self, peer: usize, same_incarnation: bool) {
        let _ = (peer, same_incarnation);
    }

    /// A rejoining `peer` came back under a *new* incarnation, so this
    /// endpoint discarded the non-replayable session state it held for
    /// the old one: `lost_sent` frames we had sent (counted toward the
    /// termination wave) and `lost_received` frames we had received
    /// from it. The runtime uses these to rebalance message totals.
    /// Default: ignore.
    fn peer_session_reset(&self, peer: usize, lost_sent: u64, lost_received: u64) {
        let _ = (peer, lost_sent, lost_received);
    }
}

/// Moves frames between ranks.
pub trait Transport: Send + Sync {
    /// This endpoint's rank.
    fn rank(&self) -> usize;

    /// Number of ranks in the job.
    fn nranks(&self) -> usize;

    /// Sends one frame to `dst`. Delivery is reliable and per-peer
    /// ordered; the call may block (e.g. riding out a reconnect) but
    /// must not silently drop frames — failure is a typed error.
    fn send(&self, dst: usize, frame: Frame) -> NetResult<()>;

    /// [`Transport::send`] without the obligation to put the frame on
    /// the wire before returning: a transport that batches may leave it
    /// *corked* behind earlier frames until a later `send`, enough
    /// appended bytes, or [`Transport::flush`] uncorks the link. Order,
    /// reliability and errors are those of `send`. Default: `send`.
    fn append(&self, dst: usize, frame: Frame) -> NetResult<()> {
        self.send(dst, frame)
    }

    /// Puts everything [`Transport::append`] left corked, on every
    /// link, on the wire (or hands it to a write already in progress).
    /// Default: nothing is ever corked.
    fn flush(&self) {}

    /// Sends pre-encoded frame bytes verbatim, *without* re-encoding —
    /// the escape hatch fault injection uses to put deliberately
    /// corrupt bytes on the wire. Transports that never expose raw
    /// bytes may refuse.
    fn send_raw(&self, dst: usize, bytes: Vec<u8>) -> NetResult<()> {
        let _ = (dst, bytes);
        Err(NetError::Io {
            kind: std::io::ErrorKind::Unsupported,
            msg: "transport does not support raw frame injection".into(),
        })
    }

    /// Severs every live connection abruptly without tearing the
    /// endpoint down, as if the network blinked — the transport's own
    /// recovery machinery (if any) is expected to rejoin and replay.
    /// Default: no-op (in-process transports have no sockets to cut).
    fn drop_connections(&self) {}

    /// Tears the endpoint down (joins receiver threads, closes sockets).
    /// Idempotent.
    fn shutdown(&self);

    /// Bytes of frame payload+header shipped so far (excludes the
    /// in-process fast path where nothing is encoded).
    fn bytes_sent(&self) -> u64 {
        0
    }

    /// The endpoint's traffic/resilience counters, when it keeps them.
    fn counters(&self) -> Option<&TransportCounters> {
        None
    }

    /// The endpoint's wire-path recording state (stage
    /// histograms + per-link telemetry), when it keeps one. Default:
    /// none (in-process transports have no wire path to attribute).
    fn wire_obs(&self) -> Option<Arc<ttg_runtime::obs::WireObs>> {
        None
    }

    /// Installs a persistent artificial delay on every subsequent frame
    /// write to `dst`, applied on the *write path* (inside the writer
    /// critical section) so sender-side stage timers, ack RTT, and
    /// resend-buffer occupancy all see it — a manufactured slow link.
    /// Returns false when the transport has no write path to slow down
    /// (fault injection then falls back to a caller-thread sleep).
    fn set_link_delay(&self, dst: usize, delay: std::time::Duration) -> bool {
        let _ = (dst, delay);
        false
    }
}

/// Per-rank counters a transport keeps for the stats report.
#[derive(Debug, Default)]
pub struct TransportCounters {
    /// Frames shipped to peers (data + control).
    pub frames_sent: AtomicU64,
    /// Frames received from peers (data + control, excluding handshake).
    pub frames_received: AtomicU64,
    /// Encoded bytes shipped (header + payload).
    pub bytes_sent: AtomicU64,
    /// Encoded bytes received.
    pub bytes_received: AtomicU64,
    /// Frames rejected by the integrity check (CRC/kind/length).
    pub frames_corrupt: AtomicU64,
    /// Liveness probes sent on idle links.
    pub heartbeats_sent: AtomicU64,
    /// Liveness probes received (consumed by the transport).
    pub heartbeats_received: AtomicU64,
    /// Peers declared dead by this endpoint.
    pub peers_lost: AtomicU64,
    /// Connections successfully re-established after a drop.
    pub reconnects: AtomicU64,
    /// Failed dial attempts across all connects and reconnects.
    pub connect_retries: AtomicU64,
    /// Session-level rejoins completed (handshake + replay) after a
    /// connection drop.
    pub rejoins: AtomicU64,
    /// Unacked sequenced frames re-sent to a rejoining peer.
    pub frames_replayed: AtomicU64,
    /// Duplicate sequenced frames suppressed on receive (already
    /// delivered under the sender's current incarnation).
    pub frames_deduped: AtomicU64,
    /// Bytes currently held across all per-peer resend buffers
    /// (a gauge, not a monotonic counter).
    pub resend_buffer_bytes: AtomicU64,
    /// `write` calls made on peer sockets: one per batch of frames, so
    /// `frames_sent / socket_writes` is the batching the link achieves
    /// (a tier-1 gate reads it; not part of any exported schema).
    pub socket_writes: AtomicU64,
}

/// In-process transport: every rank lives in the same address space and
/// `send` hands the frame straight to the destination sink.
///
/// Delivery is synchronous: a frame is in the destination's injection
/// queue before `send` returns, so there is never invisible in-flight
/// state — behind the [`Transport`] interface the TCP path also
/// implements.
pub struct LocalTransport {
    rank: usize,
    sinks: Arc<Vec<OnceLock<Arc<dyn FrameSink>>>>,
    counters: TransportCounters,
    down: AtomicBool,
}

impl LocalTransport {
    /// Creates one connected endpoint per rank.
    pub fn mesh(nranks: usize) -> Vec<LocalTransport> {
        assert!(nranks > 0);
        let sinks: Arc<Vec<OnceLock<Arc<dyn FrameSink>>>> =
            Arc::new((0..nranks).map(|_| OnceLock::new()).collect());
        (0..nranks)
            .map(|rank| LocalTransport {
                rank,
                sinks: Arc::clone(&sinks),
                counters: TransportCounters::default(),
                down: AtomicBool::new(false),
            })
            .collect()
    }

    /// Registers the sink that ingests frames for `self.rank()`.
    pub fn bind_sink(&self, sink: Arc<dyn FrameSink>) {
        self.sinks[self.rank]
            .set(sink)
            .unwrap_or_else(|_| panic!("sink already bound for rank {}", self.rank));
    }

    /// Per-endpoint traffic counters.
    pub fn counters(&self) -> &TransportCounters {
        &self.counters
    }

    fn sink_for(&self, dst: usize) -> NetResult<&Arc<dyn FrameSink>> {
        if self.down.load(Ordering::Acquire) {
            return Err(NetError::NotConnected { rank: dst });
        }
        self.sinks
            .get(dst)
            .and_then(|s| s.get())
            .ok_or(NetError::NotConnected { rank: dst })
    }
}

impl Transport for LocalTransport {
    fn rank(&self) -> usize {
        self.rank
    }

    fn nranks(&self) -> usize {
        self.sinks.len()
    }

    fn send(&self, dst: usize, frame: Frame) -> NetResult<()> {
        let sink = self.sink_for(dst)?;
        let len = frame.encoded_len() as u64;
        self.counters.frames_sent.fetch_add(1, Ordering::Relaxed);
        self.counters.bytes_sent.fetch_add(len, Ordering::Relaxed);
        sink.deliver(self.rank, frame);
        Ok(())
    }

    /// Raw injection runs the bytes through the real decoder, so a
    /// corrupt frame is *detected* exactly as it would be on a socket:
    /// counted in `frames_corrupt` (on this, the sending, endpoint —
    /// local delivery has no receiving half) and dropped.
    fn send_raw(&self, dst: usize, bytes: Vec<u8>) -> NetResult<()> {
        let sink = self.sink_for(dst)?;
        self.counters.frames_sent.fetch_add(1, Ordering::Relaxed);
        self.counters
            .bytes_sent
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        match Frame::read_from(&mut Cursor::new(&bytes)) {
            Ok(Decoded::Frame(frame)) => {
                sink.deliver(self.rank, frame);
                Ok(())
            }
            Ok(Decoded::Corrupt { .. }) | Ok(Decoded::Eof) | Err(_) => {
                self.counters.frames_corrupt.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
        }
    }

    fn shutdown(&self) {
        self.down.store(true, Ordering::Release);
    }

    fn bytes_sent(&self) -> u64 {
        self.counters.bytes_sent.load(Ordering::Relaxed)
    }

    fn counters(&self) -> Option<&TransportCounters> {
        Some(&self.counters)
    }
}

/// A sink that discards everything; useful in tests.
pub struct NullSink;

impl FrameSink for NullSink {
    fn deliver(&self, _src: usize, _frame: Frame) {}
}

/// A sink that forwards into a closure.
pub struct FnSink<F: Fn(usize, Frame) + Send + Sync>(pub F);

impl<F: Fn(usize, Frame) + Send + Sync> FrameSink for FnSink<F> {
    fn deliver(&self, src: usize, frame: Frame) {
        (self.0)(src, frame)
    }
}

/// Convenience: true for frames that carry application data (vs
/// termination/handshake control traffic).
pub fn is_data(frame: &Frame) -> bool {
    frame.kind == FrameKind::Data
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn local_mesh_delivers_to_bound_sink() {
        let mesh = LocalTransport::mesh(2);
        let seen: Arc<Mutex<Vec<(usize, u32)>>> = Arc::new(Mutex::new(Vec::new()));
        let seen2 = Arc::clone(&seen);
        mesh[1].bind_sink(Arc::new(FnSink(move |src, f: Frame| {
            seen2.lock().unwrap().push((src, f.handler));
        })));
        mesh[0].send(1, Frame::data(42, 0, vec![1])).unwrap();
        mesh[0].send(1, Frame::data(43, 0, vec![2])).unwrap();
        assert_eq!(*seen.lock().unwrap(), vec![(0, 42), (0, 43)]);
        assert_eq!(mesh[0].counters().frames_sent.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn unbound_sink_errors_and_shutdown_blocks_sends() {
        let mesh = LocalTransport::mesh(2);
        assert_eq!(
            mesh[0].send(1, Frame::control(FrameKind::Hello, 0)),
            Err(NetError::NotConnected { rank: 1 })
        );
        mesh[1].bind_sink(Arc::new(NullSink));
        mesh[0]
            .send(1, Frame::control(FrameKind::Hello, 0))
            .unwrap();
        mesh[0].shutdown();
        assert!(mesh[0]
            .send(1, Frame::control(FrameKind::Hello, 0))
            .is_err());
    }

    #[test]
    fn raw_injection_decodes_and_counts_corruption() {
        let mesh = LocalTransport::mesh(2);
        let seen: Arc<Mutex<Vec<u32>>> = Arc::new(Mutex::new(Vec::new()));
        let seen2 = Arc::clone(&seen);
        mesh[1].bind_sink(Arc::new(FnSink(move |_src, f: Frame| {
            seen2.lock().unwrap().push(f.handler);
        })));

        let mut good = Vec::new();
        Frame::data(9, 0, vec![1, 2, 3]).encode_into(&mut good);
        mesh[0].send_raw(1, good.clone()).unwrap();

        let mut bad = good;
        let last = bad.len() - 1;
        bad[last] ^= 0x01; // payload bit flip → CRC mismatch
        mesh[0].send_raw(1, bad).unwrap();

        assert_eq!(*seen.lock().unwrap(), vec![9]); // corrupt frame dropped
        assert_eq!(mesh[0].counters().frames_corrupt.load(Ordering::Relaxed), 1);
    }
}
