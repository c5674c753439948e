//! Real-socket transport: each rank is an OS process, frames travel
//! over a full TCP mesh.
//!
//! Connection establishment follows the usual SPMD convention: every
//! rank binds its listener **first** (port = base + rank when using
//! [`TcpTransport::connect_mesh`]), then dials every lower rank with
//! exponential-backoff retry (the peer may not have bound yet) and
//! accepts one connection from every higher rank. A `Hello` frame
//! carrying the dialer's rank is the handshake that tells the acceptor
//! who is on the other end; its one-byte payload distinguishes a fresh
//! connect from a reconnect after a drop.
//!
//! One reader thread per peer socket decodes frames and hands them to
//! the bound [`FrameSink`]; writers are per-peer mutex-guarded streams
//! (frame writes are a single `write_all`, so per-peer ordering — which
//! the wave protocol relies on — is the TCP stream's own ordering).
//!
//! # Failure handling (DESIGN.md §8)
//!
//! Nothing a remote peer does can panic this process. Each peer link is
//! a small state machine (`Connected` → `Reconnecting` → `Connected` |
//! `Dead`, or → `Closed` on an orderly Goodbye) driven by three
//! transport-internal threads:
//!
//! * the per-peer **reader** decodes frames; a clean EOF without a
//!   Goodbye starts a reconnect, a CRC/framing failure declares the
//!   peer dead outright (once framing is untrustworthy, skipping frames
//!   would silently unbalance the termination wave);
//! * the **acceptor** keeps the listener alive for the whole run so a
//!   higher-ranked peer can dial back in after a drop;
//! * the **monitor** sends payload-free heartbeats on send-idle links,
//!   declares a peer dead after `peer_dead_after` of total silence, and
//!   bounds how long a link may sit in `Reconnecting`.
//!
//! Reconnect keeps the original dial direction (lower rank dials) and
//! is bounded by `peer_dead_after + recover_deadline`. When a peer is
//! declared dead the sink hears about it exactly once via
//! [`FrameSink::peer_lost`] and every subsequent send returns the same
//! typed [`NetError`].
//!
//! # Session rejoin and replay (DESIGN.md §13)
//!
//! Every endpoint owns a process-lifetime **incarnation** number, and
//! every frame except transport-internal traffic (Hello / Heartbeat /
//! Goodbye / Ack) carries a per-peer **sequence number**. Sequenced
//! frames are retained in a bounded per-peer resend buffer until the
//! peer acknowledges them (cumulative `Ack` frames, emitted by the
//! monitor); a send while the link is down does not park — it buffers
//! and returns, and the buffered frames are **replayed** when the peer
//! rejoins. The receiver suppresses duplicates by `(incarnation, seq)`,
//! so replay after an un-acked delivery stays exactly-once. If the
//! buffer's byte budget would be exceeded the send fails with a typed
//! [`NetError::ResendOverflow`] — never silent loss.
//!
//! The `Hello` handshake carries `(rank, incarnation, last_acked_seq)`
//! in both directions (the acceptor answers with a hello-ack). A rejoin
//! under the **same** incarnation trims the buffer by the peer's
//! cumulative ack and replays the rest. A rejoin under a **new**
//! incarnation (the peer *process* restarted) is not replayable: the
//! old session's buffered frames are discarded and the sink is told how
//! many data frames each direction lost
//! ([`FrameSink::peer_session_reset`]) so the runtime can rebalance its
//! termination-wave totals.
//!
//! Heartbeats are consumed by the transport and counted separately
//! (`heartbeats_sent`/`heartbeats_received`); they do not perturb the
//! `frames_sent`/`bytes_sent` ledger the stats layer reconciles.

use crate::config::NetConfig;
use crate::error::{NetError, NetResult};
use crate::frame::{Decoded, EncodedControl, Frame, FrameKind};
use crate::transport::{FrameSink, Transport, TransportCounters};
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::io::{self, BufReader};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use ttg_obs::wire::WireObs;
use ttg_sync::OBS;

/// First retry delay; doubles up to [`CONNECT_RETRY_MAX`].
const CONNECT_RETRY_START: Duration = Duration::from_millis(5);
const CONNECT_RETRY_MAX: Duration = Duration::from_millis(250);

/// Delivered-but-unacked bytes after which the reader acks at once
/// rather than on the monitor tick (capped by a quarter of the sender's
/// resend budget, see [`RecvState::eager_ack_due`]). Small on purpose:
/// every unacked byte is a byte the *sender* still holds in its resend
/// ring, so this — not the 100 ms tick — bounds the ring's residence
/// under a stream faster than the tick. One ack per 16 KiB is one
/// 41-byte write per ~30 small messages or per bulk message.
const EAGER_ACK_BYTES: u64 = 16 << 10;

/// Capacity of each reader thread's `BufReader`. It is the most one
/// buffered `recv` can return, so small frames share a syscall, and it
/// is the most of a large payload that is copied through the buffer
/// rather than landing directly in the payload `Vec` (reads at least
/// this large bypass the buffer). Measured with the benchmark's
/// counters at 8 / 16 / 32 / 64 KiB: `net.read_syscalls_per_msg` on
/// `burst` is 0.15–0.20 at every size (3.0 unbuffered; what is on the
/// socket when the reader wakes binds, not the capacity),
/// `net.read_syscalls_per_64KiB_msg` is 7.0 / 5.7 / 5.0 / 4.0 (6.3
/// unbuffered), throughput is the same within noise on both workloads,
/// and the share of a 64 KiB payload copied twice is the capacity's
/// share of it: an eighth, a quarter, a half, all of it. 16 KiB is the
/// smallest size that beats the unbuffered syscall count on large
/// frames while three quarters of their bytes are still copied once.
const READ_BUFFER_BYTES: usize = 16 << 10;

/// Lifecycle of one peer link.
enum PeerState {
    /// Live socket; reader running.
    Connected,
    /// Socket lost; a reconnect is in flight (we re-dial lower ranks,
    /// higher ranks re-dial us). The monitor bounds this state by
    /// `peer_dead_after`.
    Reconnecting { since: Instant },
    /// Orderly Goodbye (or local shutdown): gone, but not a failure.
    Closed,
    /// Declared lost; the error every subsequent send returns.
    Dead(NetError),
}

impl PeerState {
    /// The typed error a send to `dst` fails with in this state, if the
    /// link is gone for good.
    fn send_error(&self, dst: usize) -> Option<NetError> {
        match self {
            PeerState::Dead(e) => Some(e.clone()),
            PeerState::Closed => Some(NetError::PeerClosed {
                rank: dst,
                during: "send to a closed peer",
            }),
            PeerState::Connected | PeerState::Reconnecting { .. } => None,
        }
    }
}

/// How [`Shared::write_frames`] takes a peer's writer: two lock
/// disciplines (wait, or `try_lock`), and the waiting one with or
/// without the pacing and accounting a sender's frame gets.
#[derive(Clone, Copy, PartialEq, Eq)]
enum WriteMode {
    /// A frame on behalf of a sender: waits for the writer, sleeps out
    /// any fault-injected link delay inside the critical section (so
    /// the stall backs up concurrent senders, visible as
    /// `wire_lock_wait`, exactly like a slow socket would), and accounts
    /// the lock wait and the write to the `obs` stages.
    Frame,
    /// Rejoin replay: waits for the writer and keeps it for the whole
    /// resend ring, so nothing interleaves with the replayed frames;
    /// neither delayed nor accounted — the session locks are held
    /// across it.
    Replay,
    /// Acks and heartbeats: `try_lock` only, so the thread sending them
    /// never stalls behind one slow link, and never delayed, so
    /// liveness stays truthful on a fault-injected slow link.
    Liveness,
}

/// What became of one [`Shared::write_frames`].
enum Wrote {
    /// All on the socket; the link's send-idle timer was stamped.
    Done,
    /// Nothing written and nothing wrong: no socket installed (a state
    /// transition is mid-flight) or, for [`WriteMode::Liveness`], the
    /// writer was busy.
    Skipped,
    /// The socket refused a frame; none after it was written.
    Failed,
}

/// Send-side session state for one peer: the sequence counter and the
/// bounded resend buffer of encoded-but-unacknowledged frames.
///
/// Lock order: `out` is taken **before** `state`/`writer` — assigning a
/// sequence number and putting the frame on the wire (or replaying the
/// buffer on rejoin) must be one atomic step, or seq order on the wire
/// would diverge from buffer order and cumulative dedup would break.
struct OutboundState {
    /// Next sequence number to assign (starts at 1; 0 = unsequenced).
    next_seq: u64,
    /// Data-kind frames sequenced so far (what the runtime counted
    /// toward its termination wave for this peer).
    data_sent: u64,
    /// Unacked `(seq, encoded bytes, first-send ns)` in seq order. The
    /// timestamp ([`WireObs::now_ns`]; 0 with `obs` off) dates the
    /// frame's entry to the wire path, so the cumulative ack that trims
    /// it yields the ack RTT — the replay-buffer residence time.
    buffer: VecDeque<(u64, Vec<u8>, u64)>,
    /// Total encoded bytes held in `buffer`.
    buffered_bytes: u64,
}

impl OutboundState {
    fn new() -> Self {
        OutboundState {
            next_seq: 1,
            data_sent: 0,
            buffer: VecDeque::new(),
            buffered_bytes: 0,
        }
    }
}

/// Receive-side session state for one peer: the incarnation we believe
/// the peer is running under and the cumulative-delivery watermark.
struct RecvState {
    /// Peer's incarnation (0 = not yet learned from a Hello).
    peer_incarnation: u64,
    /// Highest sequenced frame delivered; anything ≤ this is a dup.
    last_seq: u64,
    /// Highest seq we have acknowledged back to the peer.
    last_acked_sent: u64,
    /// Data-kind frames delivered from this peer this session.
    data_received: u64,
    /// Encoded bytes of sequenced frames delivered since the last
    /// cumulative ack went out; drives [`RecvState::eager_ack_due`].
    bytes_since_ack: u64,
}

impl RecvState {
    fn new() -> Self {
        RecvState {
            peer_incarnation: 0,
            last_seq: 0,
            last_acked_sent: 0,
            data_received: 0,
            bytes_since_ack: 0,
        }
    }

    /// Whether the reader should ack now instead of leaving it to the
    /// monitor tick: more than [`EAGER_ACK_BYTES`] — or a quarter of the
    /// sender's resend budget, if that is smaller — delivered since the
    /// last ack. Without it a stream faster than the tick parks a
    /// tick's worth of frames in the sender's resend ring (memory), and
    /// a large-frame stream fills the ring to
    /// [`NetError::ResendOverflow`] on a perfectly healthy link.
    fn eager_ack_due(&self, resend_buffer_limit: u64) -> bool {
        self.bytes_since_ack > EAGER_ACK_BYTES.min(resend_buffer_limit / 4)
    }
}

struct PeerSlot {
    state: Mutex<PeerState>,
    state_changed: Condvar,
    /// Write half of the live socket (`None` while not connected).
    writer: Mutex<Option<TcpStream>>,
    /// Send-side sequence + resend buffer (lock before `state`).
    out: Mutex<OutboundState>,
    /// Receive-side dedup + ack watermark (leaf lock).
    recv: Mutex<RecvState>,
    /// Milliseconds since `Shared::start` of the last byte received /
    /// frame sent, for the monitor's idle and silence timers.
    last_recv_ms: AtomicU64,
    last_send_ms: AtomicU64,
    /// Bumped on every (re)install and on death; readers carry the
    /// generation they were spawned for so a stale reader's loss report
    /// cannot tear down its successor connection.
    generation: AtomicU64,
    /// Artificial per-link write delay in ns (0 = none), installed by
    /// [`Transport::set_link_delay`] and applied to
    /// [`WriteMode::Frame`] writes — a fault-injected slow link.
    delay_ns: AtomicU64,
}

impl PeerSlot {
    fn new() -> Self {
        PeerSlot {
            state: Mutex::new(PeerState::Reconnecting {
                since: Instant::now(),
            }),
            state_changed: Condvar::new(),
            writer: Mutex::new(None),
            out: Mutex::new(OutboundState::new()),
            recv: Mutex::new(RecvState::new()),
            last_recv_ms: AtomicU64::new(0),
            last_send_ms: AtomicU64::new(0),
            generation: AtomicU64::new(0),
            delay_ns: AtomicU64::new(0),
        }
    }

    /// Takes the socket out of the slot and severs it both ways, which
    /// also unblocks the link's reader.
    fn close_socket(&self) {
        if let Some(stream) = self.writer.lock().take() {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }
}

/// Frames that ride the session sequence space (buffered for replay,
/// deduped on receive). Transport-internal traffic is exempt: Hello is
/// the handshake itself, Heartbeat/Ack are link-local liveness, and
/// Goodbye announces orderly teardown.
fn is_sequenced(kind: FrameKind) -> bool {
    !matches!(
        kind,
        FrameKind::Hello | FrameKind::Heartbeat | FrameKind::Goodbye | FrameKind::Ack
    )
}

/// Handshake payload: `[flag u8][incarnation u64 LE][last_acked u64 LE]`.
/// Flags: 0 = fresh dial, 1 = reconnect dial, 2 = hello-ack (acceptor's
/// reply, either direction's session info).
fn hello_frame(flag: u8, rank: usize, incarnation: u64, last_acked: u64) -> Frame {
    let mut f = Frame::control(FrameKind::Hello, rank as u32);
    let mut p = Vec::with_capacity(17);
    p.push(flag);
    p.extend_from_slice(&incarnation.to_le_bytes());
    p.extend_from_slice(&last_acked.to_le_bytes());
    f.payload = p;
    f
}

fn parse_hello(payload: &[u8]) -> Option<(u8, u64, u64)> {
    if payload.len() < 17 {
        return None;
    }
    let inc = u64::from_le_bytes(payload[1..9].try_into().ok()?);
    let acked = u64::from_le_bytes(payload[9..17].try_into().ok()?);
    Some((payload[0], inc, acked))
}

/// Everything the transport's threads share. `TcpTransport` is a thin
/// handle so reader/monitor/acceptor threads can hold the state without
/// keeping the public endpoint alive.
struct Shared {
    rank: usize,
    nranks: usize,
    cfg: NetConfig,
    addrs: Vec<SocketAddr>,
    local_addr: SocketAddr,
    /// This process's session incarnation (nonzero; a restarted rank
    /// gets a fresh one, which is how peers tell a bounce from a
    /// restart).
    incarnation: u64,
    /// `None` at our own index.
    peers: Vec<Option<PeerSlot>>,
    counters: TransportCounters,
    /// Wire-path stage timers + per-link telemetry (`obs`; every
    /// recording call is an inlined no-op when the feature is off).
    wire: Arc<WireObs>,
    sink: Arc<dyn FrameSink>,
    down: AtomicBool,
    start: Instant,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Shared {
    fn now_ms(&self) -> u64 {
        self.start.elapsed().as_millis() as u64
    }

    fn slot(&self, peer: usize) -> Option<&PeerSlot> {
        self.peers.get(peer).and_then(|s| s.as_ref())
    }

    /// `dst`'s slot for a send, unless the endpoint is shut down.
    fn live_slot(&self, dst: usize) -> NetResult<&PeerSlot> {
        match self.slot(dst) {
            Some(slot) if !self.down.load(Ordering::Acquire) => Ok(slot),
            _ => Err(NetError::NotConnected { rank: dst }),
        }
    }

    /// The one place bytes reach a peer's socket: take the writer as
    /// `mode` says, write every frame of `frames` under that one guard
    /// (each whole, so frames never interleave on the stream) and stamp
    /// the link's send-idle timer.
    fn write_frames<'a>(
        &self,
        slot: &PeerSlot,
        mode: WriteMode,
        frames: impl IntoIterator<Item = &'a [u8]>,
    ) -> Wrote {
        let paced = mode == WriteMode::Frame;
        let lw0 = WireObs::now_ns();
        let mut writer = if mode == WriteMode::Liveness {
            match slot.writer.try_lock() {
                Some(writer) => writer,
                None => return Wrote::Skipped,
            }
        } else {
            slot.writer.lock()
        };
        if OBS && paced {
            self.wire
                .record_lock_wait(WireObs::now_ns().saturating_sub(lw0));
        }
        let Some(stream) = writer.as_mut() else {
            return Wrote::Skipped;
        };
        for bytes in frames {
            let delay_ns = slot.delay_ns.load(Ordering::Relaxed);
            if paced && delay_ns > 0 {
                std::thread::sleep(Duration::from_nanos(delay_ns));
            }
            let w0 = WireObs::now_ns();
            if io::Write::write_all(stream, bytes).is_err() {
                return Wrote::Failed;
            }
            if OBS && paced {
                self.wire
                    .record_write(WireObs::now_ns().saturating_sub(w0), bytes.len() as u64, 1);
            }
            if mode == WriteMode::Replay {
                self.counters
                    .frames_replayed
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
        drop(writer);
        slot.last_send_ms.store(self.now_ms(), Ordering::Relaxed);
        Wrote::Done
    }

    fn spawn(self: &Arc<Self>, name: String, f: impl FnOnce() + Send + 'static) -> bool {
        match std::thread::Builder::new().name(name).spawn(f) {
            Ok(h) => {
                self.threads.lock().push(h);
                true
            }
            Err(_) => false,
        }
    }

    /// Drops acked entries from the front of `peer`'s outbound buffer,
    /// keeping the global and per-link resend gauges in step, and —
    /// with `obs` on — derives the link's ack RTT from the newest
    /// trimmed frame's first-send timestamp and refreshes its ack-lag
    /// gauge (unacked frames remaining in the buffer).
    fn trim_acked(&self, peer: usize, out: &mut OutboundState, acked: u64) {
        let mut trimmed: u64 = 0;
        let mut newest_sent_ns: u64 = 0;
        while let Some((seq, bytes, sent_ns)) = out.buffer.front() {
            if *seq > acked {
                break;
            }
            let len = bytes.len() as u64;
            out.buffered_bytes -= len;
            self.counters
                .resend_buffer_bytes
                .fetch_sub(len, Ordering::Relaxed);
            trimmed += len;
            newest_sent_ns = *sent_ns;
            out.buffer.pop_front();
        }
        if OBS && trimmed > 0 {
            self.wire.resend_delta(peer, -(trimmed as i64));
            self.wire.set_ack_lag(peer, out.buffer.len() as u64);
            if newest_sent_ns > 0 {
                let rtt_ns = WireObs::now_ns().saturating_sub(newest_sent_ns);
                self.wire.record_ack_rtt_us(peer, rtt_ns / 1_000);
            }
        }
    }

    /// Sends a cumulative ack for everything delivered from `peer` so
    /// far, if anything is unacknowledged and the link is writable.
    /// Shared by the monitor tick and the reader's eager-ack path. An
    /// ack skipped because the writer was busy simply goes out on the
    /// next tick (or the next received frame, on the eager path).
    fn send_cumulative_ack(&self, slot: &PeerSlot) {
        let ack_due = {
            let recv = slot.recv.lock();
            (recv.last_seq > recv.last_acked_sent).then_some(recv.last_seq)
        };
        let Some(seq) = ack_due else {
            return;
        };
        if !matches!(*slot.state.lock(), PeerState::Connected) {
            return;
        }
        let ack = EncodedControl::new(FrameKind::Ack, self.rank as u32, &[seq]);
        if let Wrote::Done = self.write_frames(slot, WriteMode::Liveness, [ack.as_bytes()]) {
            let mut recv = slot.recv.lock();
            // Guard against a session reset racing the ack.
            if recv.last_seq >= seq {
                recv.last_acked_sent = recv.last_acked_sent.max(seq);
                recv.bytes_since_ack = 0;
            }
        }
    }

    /// Installs a freshly handshaken socket for `peer` and spawns its
    /// reader. `peer_incarnation`/`their_last_acked` come from the
    /// peer's Hello (or hello-ack): a same-incarnation rejoin trims the
    /// resend buffer by the peer's cumulative ack and replays the rest;
    /// a new incarnation resets both session directions and reports the
    /// loss to the sink. Returns false (dropping the socket) if the
    /// peer is already dead/closed or the endpoint is shutting down.
    fn install_connection(
        self: &Arc<Self>,
        peer: usize,
        stream: TcpStream,
        reconnect: bool,
        peer_incarnation: u64,
        their_last_acked: u64,
    ) -> bool {
        let Some(slot) = self.slot(peer) else {
            return false;
        };
        if stream.set_nodelay(true).is_err() {
            return false;
        }
        let Ok(reader_stream) = stream.try_clone() else {
            return false;
        };
        // `out` is held across session processing, writer install, and
        // replay: no sequenced send may slip a new frame onto the wire
        // between replayed ones.
        let mut out = slot.out.lock();

        // Session bookkeeping: same incarnation → trim by their ack;
        // new incarnation → the old session is unrecoverable on both
        // directions.
        let mut session_reset: Option<(u64, u64)> = None;
        let same_incarnation = {
            let mut recv = slot.recv.lock();
            if recv.peer_incarnation == 0 || recv.peer_incarnation == peer_incarnation {
                recv.peer_incarnation = peer_incarnation;
                self.trim_acked(peer, &mut out, their_last_acked);
                true
            } else {
                let lost_sent = out.data_sent;
                let lost_received = recv.data_received;
                self.counters
                    .resend_buffer_bytes
                    .fetch_sub(out.buffered_bytes, Ordering::Relaxed);
                if OBS {
                    self.wire.resend_delta(peer, -(out.buffered_bytes as i64));
                    self.wire.set_ack_lag(peer, 0);
                }
                *out = OutboundState::new();
                *recv = RecvState::new();
                recv.peer_incarnation = peer_incarnation;
                session_reset = Some((lost_sent, lost_received));
                false
            }
        };

        let generation = {
            let mut state = slot.state.lock();
            if self.down.load(Ordering::Acquire) {
                return false;
            }
            match *state {
                PeerState::Dead(_) | PeerState::Closed => return false,
                PeerState::Connected | PeerState::Reconnecting { .. } => {}
            }
            let generation = slot.generation.load(Ordering::Relaxed) + 1;
            slot.generation.store(generation, Ordering::Relaxed);
            // Writer must be in place before the state flips to
            // Connected: a sender that observes Connected may lock the
            // writer immediately.
            *slot.writer.lock() = Some(stream);
            let now = self.now_ms();
            slot.last_recv_ms.store(now, Ordering::Relaxed);
            slot.last_send_ms.store(now, Ordering::Relaxed);
            *state = PeerState::Connected;
            slot.state_changed.notify_all();
            generation
        };

        // Replay every still-unacked frame on the fresh socket, in seq
        // order, before releasing `out` (concurrent sequenced sends are
        // queued behind this lock and will follow in order).
        let mut replay_failed = false;
        if reconnect {
            let ring = out.buffer.iter().map(|(_, bytes, _)| bytes.as_slice());
            replay_failed = matches!(
                self.write_frames(slot, WriteMode::Replay, ring),
                Wrote::Failed
            );
        }
        drop(out);

        if reconnect {
            self.counters.reconnects.fetch_add(1, Ordering::Relaxed);
            self.counters.rejoins.fetch_add(1, Ordering::Relaxed);
        }
        if let Some((lost_sent, lost_received)) = session_reset {
            self.sink.peer_session_reset(peer, lost_sent, lost_received);
        }
        if reconnect {
            self.sink.peer_rejoined(peer, same_incarnation);
        }

        let shared = Arc::clone(self);
        let name = format!("ttg-net-{}<-{}", self.rank, peer);
        if !self.spawn(name, move || {
            reader_loop(&shared, peer, reader_stream, generation)
        }) {
            self.declare_dead(
                peer,
                NetError::Io {
                    kind: io::ErrorKind::Other,
                    msg: "could not spawn reader thread".into(),
                },
            );
            return false;
        }
        if replay_failed {
            // The fresh socket died mid-replay; unsent frames are still
            // buffered, so another rejoin round can finish the job.
            self.connection_lost(peer, generation);
        }
        true
    }

    /// A live connection broke (EOF without Goodbye, or a read/write
    /// error). Starts the bounded reconnect dance; `generation` guards
    /// against a stale reader tearing down a newer connection.
    fn connection_lost(self: &Arc<Self>, peer: usize, generation: u64) {
        if self.down.load(Ordering::Acquire) {
            return;
        }
        let Some(slot) = self.slot(peer) else {
            return;
        };
        {
            let mut state = slot.state.lock();
            if slot.generation.load(Ordering::Relaxed) != generation {
                return; // about a connection that was already replaced
            }
            match *state {
                PeerState::Connected => {}
                _ => return, // loss already being handled
            }
            *state = PeerState::Reconnecting {
                since: Instant::now(),
            };
            slot.state_changed.notify_all();
        }
        slot.close_socket();
        // Recovery window open: the sink may quarantine affected work
        // instead of failing it, pending a rejoin.
        self.sink.peer_recovering(peer);
        // Dial direction is preserved: we re-dial lower ranks, higher
        // ranks re-dial our (still listening) acceptor.
        if peer < self.rank {
            let shared = Arc::clone(self);
            let name = format!("ttg-net-{}-redial-{}", self.rank, peer);
            if !self.spawn(name, move || reconnector(&shared, peer)) {
                self.declare_dead(
                    peer,
                    NetError::PeerClosed {
                        rank: peer,
                        during: "reconnect (thread spawn failed)",
                    },
                );
            }
        }
    }

    /// Irrevocably marks `peer` lost: latches the typed error for
    /// future sends, counts it, and tells the sink exactly once.
    fn declare_dead(self: &Arc<Self>, peer: usize, err: NetError) {
        let Some(slot) = self.slot(peer) else {
            return;
        };
        {
            let mut state = slot.state.lock();
            match *state {
                PeerState::Dead(_) | PeerState::Closed => return,
                PeerState::Connected | PeerState::Reconnecting { .. } => {}
            }
            let generation = slot.generation.load(Ordering::Relaxed) + 1;
            slot.generation.store(generation, Ordering::Relaxed);
            *state = PeerState::Dead(err.clone());
            slot.state_changed.notify_all();
        }
        slot.close_socket();
        self.counters.peers_lost.fetch_add(1, Ordering::Relaxed);
        self.sink.peer_lost(peer, &err);
    }

    /// The peer said Goodbye: the link is gone on purpose. Not a
    /// failure, so no `peers_lost`, no `peer_lost` callback.
    fn peer_said_goodbye(&self, peer: usize, generation: u64) {
        let Some(slot) = self.slot(peer) else {
            return;
        };
        {
            let mut state = slot.state.lock();
            if slot.generation.load(Ordering::Relaxed) != generation {
                return;
            }
            match *state {
                PeerState::Dead(_) | PeerState::Closed => return,
                PeerState::Connected | PeerState::Reconnecting { .. } => {}
            }
            *state = PeerState::Closed;
            slot.state_changed.notify_all();
        }
        slot.close_socket();
    }

    /// Sends pre-encoded frame bytes to `dst`, parking through a
    /// reconnect and resending on the fresh socket if the first write
    /// hit a broken one. Counts the frame exactly once, on success.
    fn send_encoded(self: &Arc<Self>, dst: usize, bytes: &[u8]) -> NetResult<()> {
        let slot = self.live_slot(dst)?;
        // The monitor turns a lingering Reconnecting into Dead within
        // peer_dead_after; this is a backstop so send() can never park
        // forever even if the monitor thread itself died.
        let give_up = Instant::now() + self.cfg.peer_dead_after * 3 + Duration::from_secs(1);
        loop {
            let generation = {
                let mut state = slot.state.lock();
                if let Some(e) = state.send_error(dst) {
                    return Err(e);
                }
                if let PeerState::Reconnecting { .. } = *state {
                    if self.down.load(Ordering::Acquire) {
                        return Err(NetError::NotConnected { rank: dst });
                    }
                    if Instant::now() >= give_up {
                        return Err(NetError::PeerClosed {
                            rank: dst,
                            during: "send timed out awaiting reconnect",
                        });
                    }
                    slot.state_changed
                        .wait_for(&mut state, Duration::from_millis(50));
                    continue;
                }
                slot.generation.load(Ordering::Relaxed)
            };
            match self.write_frames(slot, WriteMode::Frame, [bytes]) {
                Wrote::Done => {
                    self.counters.frames_sent.fetch_add(1, Ordering::Relaxed);
                    self.counters
                        .bytes_sent
                        .fetch_add(bytes.len() as u64, Ordering::Relaxed);
                    return Ok(());
                }
                // Transient: a state transition is mid-flight.
                Wrote::Skipped => std::thread::sleep(Duration::from_millis(1)),
                // The peer's reader discards the partial frame together
                // with the dead socket, so resending on the fresh one
                // is exactly-once.
                Wrote::Failed => self.connection_lost(dst, generation),
            }
        }
    }

    /// Sends a sequenced frame to `dst`: assigns the next sequence
    /// number, buffers the encoded bytes for replay, and writes them if
    /// the link is up. Unlike [`Shared::send_encoded`] this never parks
    /// through an outage — a send during `Reconnecting` is buffered and
    /// returns `Ok`, and the rejoin replay puts it on the wire. The
    /// only failure modes are a dead/closed peer (typed, latched) and a
    /// full resend buffer ([`NetError::ResendOverflow`]).
    fn send_sequenced(self: &Arc<Self>, dst: usize, mut frame: Frame) -> NetResult<()> {
        let slot = self.live_slot(dst)?;
        let mut out = slot.out.lock();
        frame.seq = out.next_seq;
        let e0 = WireObs::now_ns();
        let mut bytes = Vec::with_capacity(frame.encoded_len());
        frame.encode_into(&mut bytes);
        let e1 = WireObs::now_ns();
        if OBS {
            self.wire.record_encode(e1.saturating_sub(e0));
        }
        let len = bytes.len() as u64;
        if out.buffered_bytes + len > self.cfg.resend_buffer_limit {
            return Err(NetError::ResendOverflow {
                rank: dst,
                buffered_bytes: out.buffered_bytes,
                limit_bytes: self.cfg.resend_buffer_limit,
            });
        }
        // Check liveness before committing the seq: a dead peer must
        // fail typed, not silently accumulate buffered frames.
        let write_now = {
            let state = slot.state.lock();
            if let Some(e) = state.send_error(dst) {
                return Err(e);
            }
            matches!(*state, PeerState::Connected).then(|| slot.generation.load(Ordering::Relaxed))
        };
        out.next_seq += 1;
        if frame.kind == FrameKind::Data {
            out.data_sent += 1;
        }
        out.buffered_bytes += len;
        self.counters
            .resend_buffer_bytes
            .fetch_add(len, Ordering::Relaxed);
        out.buffer.push_back((frame.seq, bytes, e1));
        if OBS {
            // Unique sequenced frame committed: count it on the link
            // exactly once (replays never re-count), track the per-link
            // resend occupancy and the unacked backlog.
            self.wire.link_tx(dst, len);
            self.wire.resend_delta(dst, len as i64);
            self.wire.set_ack_lag(dst, out.buffer.len() as u64);
        }
        // The frame is durable from here: count it once, now, whether
        // it goes out on this socket or a replay.
        self.counters.frames_sent.fetch_add(1, Ordering::Relaxed);
        self.counters.bytes_sent.fetch_add(len, Ordering::Relaxed);
        // Written from the ring's own copy. If the write fails the frame
        // stays buffered and the rejoin replay re-sends it.
        let mut lost_generation = None;
        if let Some(generation) = write_now {
            let (_, bytes, _) = out.buffer.back().expect("frame just buffered");
            if let Wrote::Failed = self.write_frames(slot, WriteMode::Frame, [bytes.as_slice()]) {
                lost_generation = Some(generation);
            }
        }
        drop(out);
        if let Some(generation) = lost_generation {
            self.connection_lost(dst, generation);
        }
        Ok(())
    }

    /// Local end of the endpoint's life, however it ends (the caller
    /// has set `down`): every socket is severed — after `farewell`, if
    /// the end is orderly enough to say Goodbye — every link that is
    /// not already dead is marked closed so parked senders wake with a
    /// typed error, and the transport's threads are joined.
    fn teardown(&self, farewell: Option<&[u8]>) {
        for slot in self.peers.iter().flatten() {
            if let Some(mut stream) = slot.writer.lock().take() {
                if let Some(goodbye) = farewell {
                    let _ = io::Write::write_all(&mut stream, goodbye);
                }
                let _ = stream.shutdown(Shutdown::Both);
            }
            let mut state = slot.state.lock();
            if !matches!(*state, PeerState::Dead(_)) {
                *state = PeerState::Closed;
            }
            slot.state_changed.notify_all();
        }
        // Unblock the acceptor's `accept()` so it can observe `down`.
        let _ = TcpStream::connect(self.local_addr);
        loop {
            let handles: Vec<_> = self.threads.lock().drain(..).collect();
            if handles.is_empty() {
                return;
            }
            for h in handles {
                let _ = h.join();
            }
        }
    }
}

/// A connected TCP endpoint of the rank mesh.
pub struct TcpTransport {
    shared: Arc<Shared>,
}

impl TcpTransport {
    /// Connects rank `rank` of an `nranks` mesh on `127.0.0.1` with
    /// contiguous ports `base_port + rank`. Blocks until the mesh is
    /// fully connected; incoming frames go to `sink`. Resilience knobs
    /// come from the environment (see [`NetConfig::from_env`]).
    pub fn connect_mesh(
        rank: usize,
        nranks: usize,
        base_port: u16,
        sink: Arc<dyn FrameSink>,
    ) -> NetResult<Arc<TcpTransport>> {
        Self::connect_mesh_cfg(rank, nranks, base_port, sink, NetConfig::default())
    }

    /// [`TcpTransport::connect_mesh`] with an explicit configuration.
    pub fn connect_mesh_cfg(
        rank: usize,
        nranks: usize,
        base_port: u16,
        sink: Arc<dyn FrameSink>,
        cfg: NetConfig,
    ) -> NetResult<Arc<TcpTransport>> {
        let addrs: Vec<SocketAddr> = (0..nranks)
            .map(|r| {
                format!("127.0.0.1:{}", base_port + r as u16)
                    .parse()
                    .expect("loopback address is well-formed")
            })
            .collect();
        let listener = TcpListener::bind(addrs[rank]).map_err(|e| NetError::io(&e))?;
        Self::with_listener_cfg(rank, listener, &addrs, sink, cfg)
    }

    /// Connects using an already-bound listener for this rank and an
    /// explicit address per rank (lets tests use OS-assigned ports).
    /// `addrs[rank]` must be the listener's address.
    pub fn with_listener(
        rank: usize,
        listener: TcpListener,
        addrs: &[SocketAddr],
        sink: Arc<dyn FrameSink>,
    ) -> NetResult<Arc<TcpTransport>> {
        Self::with_listener_cfg(rank, listener, addrs, sink, NetConfig::default())
    }

    /// [`TcpTransport::with_listener`] with an explicit configuration.
    pub fn with_listener_cfg(
        rank: usize,
        listener: TcpListener,
        addrs: &[SocketAddr],
        sink: Arc<dyn FrameSink>,
        cfg: NetConfig,
    ) -> NetResult<Arc<TcpTransport>> {
        let nranks = addrs.len();
        assert!(rank < nranks, "rank {rank} out of range for {nranks} ranks");
        let local_addr = listener.local_addr().map_err(|e| NetError::io(&e))?;
        // Wall-clock nanos make incarnations unique across a restart of
        // the same rank (monotonic within a host is all that's needed);
        // `| 1` keeps 0 reserved for "not yet learned".
        let incarnation = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(1)
            | 1;
        let shared = Arc::new(Shared {
            rank,
            nranks,
            cfg,
            addrs: addrs.to_vec(),
            local_addr,
            incarnation,
            peers: (0..nranks)
                .map(|p| (p != rank).then(PeerSlot::new))
                .collect(),
            counters: TransportCounters::default(),
            wire: Arc::new(WireObs::new(nranks)),
            sink,
            down: AtomicBool::new(false),
            start: Instant::now(),
            threads: Mutex::new(Vec::new()),
        });

        // The acceptor owns the listener for the whole run: it takes
        // the initial connections from higher ranks AND any later
        // re-dials after a drop.
        {
            let s = Arc::clone(&shared);
            if !shared.spawn(format!("ttg-net-{rank}-accept"), move || {
                acceptor_loop(&s, listener)
            }) {
                return Err(NetError::Io {
                    kind: io::ErrorKind::Other,
                    msg: "could not spawn acceptor thread".into(),
                });
            }
        }

        let started = Instant::now();
        let deadline = started + shared.cfg.connect_deadline;

        // Dial every lower rank (its listener is bound or will be soon).
        for peer in 0..rank {
            let (stream, peer_inc, their_acked) = match handshake_dial(&shared, peer, deadline, 0) {
                Ok(v) => v,
                Err(e) => {
                    fail_startup(&shared);
                    return Err(e);
                }
            };
            if !shared.install_connection(peer, stream, false, peer_inc, their_acked) {
                fail_startup(&shared);
                return Err(NetError::NotConnected { rank: peer });
            }
        }

        // Wait until the acceptor has installed every higher rank.
        for peer in rank + 1..nranks {
            let slot = shared.slot(peer).expect("peer slot exists");
            let mut state = slot.state.lock();
            let failure = loop {
                match &*state {
                    PeerState::Connected => break None,
                    PeerState::Dead(e) => break Some(e.clone()),
                    PeerState::Closed => {
                        break Some(NetError::PeerClosed {
                            rank: peer,
                            during: "initial handshake",
                        })
                    }
                    PeerState::Reconnecting { .. } => {
                        let remaining = deadline.saturating_duration_since(Instant::now());
                        if remaining.is_zero()
                            || slot
                                .state_changed
                                .wait_for(&mut state, remaining)
                                .timed_out()
                        {
                            break Some(NetError::ConnectTimeout {
                                rank: peer,
                                waited: started.elapsed(),
                                attempts: 0,
                                last: "no Hello from peer".into(),
                            });
                        }
                    }
                }
            };
            drop(state);
            if let Some(e) = failure {
                fail_startup(&shared);
                return Err(e);
            }
        }

        // Mesh formed: start the liveness monitor.
        {
            let s = Arc::clone(&shared);
            shared.spawn(format!("ttg-net-{rank}-monitor"), move || monitor_loop(&s));
        }
        Ok(Arc::new(TcpTransport { shared }))
    }

    /// Per-endpoint traffic counters.
    pub fn counters(&self) -> &TransportCounters {
        &self.shared.counters
    }

    /// This endpoint's session incarnation (what peers use to tell a
    /// bounce from a restart).
    pub fn incarnation(&self) -> u64 {
        self.shared.incarnation
    }

    /// Severs every live socket abruptly — no Goodbye — but leaves the
    /// endpoint running (listener up, state machines live), as if the
    /// network blinked. Readers observe the breakage and drive the
    /// normal recovery path: reconnect, session rejoin, replay. Drill
    /// hook for bounce testing.
    pub fn drop_connections(&self) {
        for slot in self.shared.peers.iter().flatten() {
            if let Some(stream) = slot.writer.lock().as_ref() {
                let _ = stream.shutdown(Shutdown::Both);
            }
        }
    }

    /// Severs every socket abruptly — no Goodbye, listener torn down —
    /// as if this process had been killed. Test hook for exercising the
    /// survivors' dead-peer detection in-process.
    #[doc(hidden)]
    pub fn kill_connections(&self) {
        if !self.shared.down.swap(true, Ordering::AcqRel) {
            self.shared.teardown(None);
        }
    }
}

fn fail_startup(shared: &Arc<Shared>) {
    shared.down.store(true, Ordering::Release);
    shared.teardown(None);
}

/// Dials `peer` with exponential backoff until `deadline`, counting
/// every failed attempt and reporting it to the configured observer.
fn dial_with_retry(shared: &Arc<Shared>, peer: usize, deadline: Instant) -> NetResult<TcpStream> {
    let started = Instant::now();
    let mut delay = CONNECT_RETRY_START;
    let mut attempts: u64 = 0;
    loop {
        if shared.down.load(Ordering::Acquire) {
            return Err(NetError::NotConnected { rank: peer });
        }
        match TcpStream::connect(shared.addrs[peer]) {
            Ok(s) => return Ok(s),
            Err(e) => {
                attempts += 1;
                shared
                    .counters
                    .connect_retries
                    .fetch_add(1, Ordering::Relaxed);
                if let Some(obs) = &shared.cfg.retry_observer {
                    obs(peer, attempts, started.elapsed());
                }
                if Instant::now() >= deadline {
                    return Err(NetError::ConnectTimeout {
                        rank: peer,
                        waited: started.elapsed(),
                        attempts,
                        last: e.to_string(),
                    });
                }
                std::thread::sleep(delay);
                delay = (delay * 2).min(CONNECT_RETRY_MAX);
            }
        }
    }
}

/// Dials `peer`, sends our Hello (`flag` 0 = fresh, 1 = reconnect),
/// and reads the acceptor's hello-ack carrying its session info.
fn handshake_dial(
    shared: &Arc<Shared>,
    peer: usize,
    deadline: Instant,
    flag: u8,
) -> NetResult<(TcpStream, u64, u64)> {
    let mut stream = dial_with_retry(shared, peer, deadline)?;
    let last_acked = shared
        .slot(peer)
        .map(|s| s.recv.lock().last_seq)
        .unwrap_or(0);
    hello_frame(flag, shared.rank, shared.incarnation, last_acked)
        .write_to(&mut &stream)
        .map_err(|e| NetError::io(&e))?;
    let wait = deadline
        .saturating_duration_since(Instant::now())
        .max(Duration::from_millis(10));
    stream
        .set_read_timeout(Some(wait))
        .map_err(|e| NetError::io(&e))?;
    let reply = match Frame::read_from(&mut stream) {
        Ok(Decoded::Frame(f)) if f.kind == FrameKind::Hello => f,
        _ => {
            return Err(NetError::PeerClosed {
                rank: peer,
                during: "hello-ack handshake",
            })
        }
    };
    let Some((2, peer_inc, their_acked)) = parse_hello(&reply.payload) else {
        return Err(NetError::PeerClosed {
            rank: peer,
            during: "malformed hello-ack",
        });
    };
    stream
        .set_read_timeout(None)
        .map_err(|e| NetError::io(&e))?;
    Ok((stream, peer_inc, their_acked))
}

/// Re-dials a lower-ranked peer after a drop, bounded by
/// `peer_dead_after + recover_deadline`; gives up by declaring the
/// peer dead.
fn reconnector(shared: &Arc<Shared>, peer: usize) {
    let deadline = Instant::now() + shared.cfg.peer_dead_after + shared.cfg.recover_deadline;
    match handshake_dial(shared, peer, deadline, 1) {
        Ok((stream, peer_inc, their_acked)) => {
            if !shared.install_connection(peer, stream, true, peer_inc, their_acked) {
                shared.declare_dead(
                    peer,
                    NetError::PeerClosed {
                        rank: peer,
                        during: "reconnect handshake",
                    },
                );
            }
        }
        Err(NetError::NotConnected { .. }) => {} // local shutdown raced us
        Err(e) => shared.declare_dead(peer, e),
    }
}

/// Accepts connections for the whole run: the initial higher-rank
/// connects and any re-dial after a drop. Unblocked at shutdown by a
/// self-connect ([`Shared::teardown`]).
fn acceptor_loop(shared: &Arc<Shared>, listener: TcpListener) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.down.load(Ordering::Acquire) {
                    return; // drops the listener: future dials are refused
                }
                handle_incoming(shared, stream);
            }
            Err(_) => {
                if shared.down.load(Ordering::Acquire) {
                    return;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
}

/// Reads the Hello off a freshly accepted socket, answers with a
/// hello-ack carrying our session info, and installs it. A malformed
/// or missing Hello just drops the connection — an unknown dialer must
/// not be able to wedge the acceptor or kill the process.
fn handle_incoming(shared: &Arc<Shared>, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(shared.cfg.peer_dead_after));
    let hello = match Frame::read_from(&mut stream) {
        Ok(Decoded::Frame(f)) if f.kind == FrameKind::Hello => f,
        _ => return,
    };
    let peer = hello.handler as usize;
    if peer == shared.rank || peer >= shared.nranks {
        return;
    }
    let Some((flag, peer_inc, their_acked)) = parse_hello(&hello.payload) else {
        return;
    };
    let Some(slot) = shared.slot(peer) else {
        return;
    };
    // A "fresh" dial on a slot that was connected before is a restarted
    // peer rejoining — same recovery path as an explicit reconnect.
    let reconnect = flag == 1 || slot.generation.load(Ordering::Relaxed) > 0;
    let last_acked = slot.recv.lock().last_seq;
    if hello_frame(2, shared.rank, shared.incarnation, last_acked)
        .write_to(&mut &stream)
        .is_err()
    {
        return;
    }
    if stream.set_read_timeout(None).is_err() {
        return;
    }
    shared.install_connection(peer, stream, reconnect, peer_inc, their_acked);
}

/// Decodes frames from one peer socket until it dies, closes, or the
/// stream proves corrupt. Never panics: every failure routes into the
/// link state machine.
fn reader_loop(shared: &Arc<Shared>, peer: usize, stream: TcpStream, generation: u64) {
    let mut stream = BufReader::with_capacity(READ_BUFFER_BYTES, stream);
    let touch = |slot: &PeerSlot| slot.last_recv_ms.store(shared.now_ms(), Ordering::Relaxed);
    loop {
        match Frame::read_from_timed(&mut stream) {
            Ok((Decoded::Frame(frame), busy_ns)) => {
                if OBS {
                    shared.wire.record_read_decode(busy_ns);
                }
                let Some(slot) = shared.slot(peer) else {
                    return;
                };
                touch(slot);
                match frame.kind {
                    FrameKind::Goodbye => {
                        shared.peer_said_goodbye(peer, generation);
                        return;
                    }
                    FrameKind::Heartbeat => {
                        shared
                            .counters
                            .heartbeats_received
                            .fetch_add(1, Ordering::Relaxed);
                    }
                    FrameKind::Ack => {
                        // Cumulative ack: trim everything the peer has
                        // durably received out of the resend buffer.
                        if let Ok(acked) = frame.payload.as_slice().try_into() {
                            let acked = u64::from_le_bytes(acked);
                            let mut out = slot.out.lock();
                            shared.trim_acked(peer, &mut out, acked);
                        }
                    }
                    FrameKind::Hello => {} // stray handshake frame
                    _ => {
                        if frame.seq != 0 {
                            let eager_ack = {
                                let mut recv = slot.recv.lock();
                                if frame.seq <= recv.last_seq {
                                    // Replayed frame we already delivered
                                    // before the bounce: suppress.
                                    shared
                                        .counters
                                        .frames_deduped
                                        .fetch_add(1, Ordering::Relaxed);
                                    continue;
                                }
                                recv.last_seq = frame.seq;
                                if frame.kind == FrameKind::Data {
                                    recv.data_received += 1;
                                }
                                recv.bytes_since_ack += frame.encoded_len() as u64;
                                // recv is a leaf lock — release before
                                // touching the writer.
                                recv.eager_ack_due(shared.cfg.resend_buffer_limit)
                            };
                            if eager_ack {
                                shared.send_cumulative_ack(slot);
                            }
                        }
                        shared
                            .counters
                            .frames_received
                            .fetch_add(1, Ordering::Relaxed);
                        shared
                            .counters
                            .bytes_received
                            .fetch_add(frame.encoded_len() as u64, Ordering::Relaxed);
                        if OBS && frame.seq != 0 {
                            // First delivery of a unique sequenced frame
                            // (dups were suppressed above): the rx half
                            // of the symmetric link traffic ledger.
                            shared.wire.link_rx(peer, frame.encoded_len() as u64);
                        }
                        let d0 = WireObs::now_ns();
                        shared.sink.deliver(peer, frame);
                        if OBS {
                            shared
                                .wire
                                .record_dispatch(WireObs::now_ns().saturating_sub(d0));
                        }
                    }
                }
            }
            Ok((Decoded::Eof, _)) => {
                // Clean EOF but no Goodbye: the peer process vanished or
                // the connection dropped. Transient until proven fatal.
                shared.connection_lost(peer, generation);
                return;
            }
            Ok((Decoded::Corrupt { detail }, _)) => {
                shared
                    .counters
                    .frames_corrupt
                    .fetch_add(1, Ordering::Relaxed);
                // Framing is untrustworthy; resynchronizing could drop
                // or invent frames and silently unbalance the wave.
                shared.declare_dead(peer, NetError::FrameCorrupt { rank: peer, detail });
                return;
            }
            Err(_) if shared.down.load(Ordering::Acquire) => return,
            Err(_) => {
                shared.connection_lost(peer, generation);
                return;
            }
        }
    }
}

/// Liveness: heartbeats on idle links, silence and reconnect-window
/// deadlines.
fn monitor_loop(shared: &Arc<Shared>) {
    let hb_ms = shared.cfg.heartbeat_interval.as_millis() as u64;
    let dead_ms = shared.cfg.peer_dead_after.as_millis() as u64;
    let tick = (shared.cfg.heartbeat_interval / 4)
        .clamp(Duration::from_millis(1), Duration::from_millis(100));
    let heartbeat = EncodedControl::new(FrameKind::Heartbeat, shared.rank as u32, &[]);
    loop {
        if shared.down.load(Ordering::Acquire) {
            return;
        }
        for peer in 0..shared.nranks {
            let Some(slot) = shared.slot(peer) else {
                continue;
            };
            let verdict = {
                let state = slot.state.lock();
                match &*state {
                    PeerState::Connected => {
                        let now = shared.now_ms();
                        let silent = now.saturating_sub(slot.last_recv_ms.load(Ordering::Relaxed));
                        let idle = now.saturating_sub(slot.last_send_ms.load(Ordering::Relaxed));
                        if silent > dead_ms {
                            Some(Err(NetError::HeartbeatLost {
                                rank: peer,
                                silent_for: Duration::from_millis(silent),
                            }))
                        } else if idle >= hb_ms {
                            Some(Ok(slot.generation.load(Ordering::Relaxed)))
                        } else {
                            None
                        }
                    }
                    PeerState::Reconnecting { since }
                        if since.elapsed()
                            > shared.cfg.peer_dead_after + shared.cfg.recover_deadline =>
                    {
                        Some(Err(NetError::PeerClosed {
                            rank: peer,
                            during: "reconnect window expired",
                        }))
                    }
                    _ => None,
                }
            };
            match verdict {
                Some(Err(err)) => shared.declare_dead(peer, err),
                Some(Ok(generation)) => {
                    match shared.write_frames(slot, WriteMode::Liveness, [heartbeat.as_bytes()]) {
                        Wrote::Failed => shared.connection_lost(peer, generation),
                        Wrote::Done => {
                            shared
                                .counters
                                .heartbeats_sent
                                .fetch_add(1, Ordering::Relaxed);
                        }
                        // A busy writer means the link is actively
                        // sending, so the heartbeat is redundant; retry
                        // next tick.
                        Wrote::Skipped => {}
                    }
                }
                None => {}
            }
            // Cumulative ack for sequenced frames delivered since the
            // last one, so the peer can trim its resend buffer.
            shared.send_cumulative_ack(slot);
        }
        std::thread::sleep(tick);
    }
}

impl Transport for TcpTransport {
    fn rank(&self) -> usize {
        self.shared.rank
    }

    fn nranks(&self) -> usize {
        self.shared.nranks
    }

    fn send(&self, dst: usize, frame: Frame) -> NetResult<()> {
        if is_sequenced(frame.kind) {
            return self.shared.send_sequenced(dst, frame);
        }
        let mut bytes = Vec::with_capacity(frame.encoded_len());
        frame.encode_into(&mut bytes);
        self.shared.send_encoded(dst, &bytes)
    }

    fn send_raw(&self, dst: usize, bytes: Vec<u8>) -> NetResult<()> {
        self.shared.send_encoded(dst, &bytes)
    }

    fn drop_connections(&self) {
        TcpTransport::drop_connections(self);
    }

    fn shutdown(&self) {
        let shared = &self.shared;
        if !shared.down.swap(true, Ordering::AcqRel) {
            let goodbye = EncodedControl::new(FrameKind::Goodbye, shared.rank as u32, &[]);
            shared.teardown(Some(goodbye.as_bytes()));
        }
    }

    fn bytes_sent(&self) -> u64 {
        self.shared.counters.bytes_sent.load(Ordering::Relaxed)
    }

    fn counters(&self) -> Option<&TransportCounters> {
        Some(&self.shared.counters)
    }

    fn wire_obs(&self) -> Option<Arc<WireObs>> {
        Some(Arc::clone(&self.shared.wire))
    }

    fn set_link_delay(&self, dst: usize, delay: Duration) -> bool {
        match self.shared.slot(dst) {
            Some(slot) => {
                slot.delay_ns
                    .store(delay.as_nanos() as u64, Ordering::Relaxed);
                true
            }
            None => false,
        }
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for TcpTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpTransport")
            .field("rank", &self.shared.rank)
            .field("nranks", &self.shared.nranks)
            .finish_non_exhaustive()
    }
}

/// Binds `n` listeners on OS-assigned loopback ports (test helper for
/// meshes that cannot assume a free contiguous port range).
pub fn ephemeral_listeners(n: usize) -> io::Result<(Vec<TcpListener>, Vec<SocketAddr>)> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0"))
        .collect::<io::Result<_>>()?;
    let addrs = listeners
        .iter()
        .map(|l| l.local_addr())
        .collect::<io::Result<_>>()?;
    Ok((listeners, addrs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::FnSink;
    use std::sync::mpsc;

    type FrameRx = mpsc::Receiver<(usize, Frame)>;

    fn tcp_mesh_cfg(n: usize, cfg: NetConfig) -> (Vec<Arc<TcpTransport>>, Vec<FrameRx>) {
        let (listeners, addrs) = ephemeral_listeners(n).unwrap();
        let (txs, rxs): (Vec<_>, Vec<_>) = (0..n).map(|_| mpsc::channel()).unzip();
        let handles: Vec<_> = listeners
            .into_iter()
            .zip(txs)
            .enumerate()
            .map(|(rank, (listener, tx))| {
                let addrs = addrs.clone();
                let cfg = cfg.clone();
                std::thread::spawn(move || {
                    let sink = Arc::new(FnSink(move |src, frame| {
                        let _ = tx.send((src, frame));
                    }));
                    TcpTransport::with_listener_cfg(rank, listener, &addrs, sink, cfg).unwrap()
                })
            })
            .collect();
        let transports = handles.into_iter().map(|h| h.join().unwrap()).collect();
        (transports, rxs)
    }

    /// Full mesh over ephemeral ports; returns transports plus a frame
    /// receiver per rank.
    fn tcp_mesh(n: usize) -> (Vec<Arc<TcpTransport>>, Vec<FrameRx>) {
        tcp_mesh_cfg(n, NetConfig::builtin())
    }

    #[test]
    fn loopback_round_trip() {
        let (transports, rxs) = tcp_mesh(2);
        transports[0]
            .send(1, Frame::data(7, -2, b"ping".to_vec()))
            .unwrap();
        let (src, frame) = rxs[1].recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!((src, frame.handler, frame.priority), (0, 7, -2));
        assert_eq!(frame.payload, b"ping");
        transports[1]
            .send(0, Frame::data(8, 1, b"pong".to_vec()))
            .unwrap();
        let (src, frame) = rxs[0].recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!((src, frame.handler), (1, 8));
        assert_eq!(frame.payload, b"pong");
        for t in &transports {
            t.shutdown();
        }
    }

    #[test]
    fn three_rank_mesh_is_fully_connected_and_ordered() {
        let (transports, rxs) = tcp_mesh(3);
        for (src, t) in transports.iter().enumerate() {
            for dst in 0..3 {
                if src == dst {
                    continue;
                }
                for seq in 0..10u32 {
                    t.send(dst, Frame::data(seq, 0, vec![src as u8])).unwrap();
                }
            }
        }
        for (dst, rx) in rxs.iter().enumerate() {
            let mut per_peer: Vec<Vec<u32>> = vec![Vec::new(); 3];
            for _ in 0..20 {
                let (src, frame) = rx.recv_timeout(Duration::from_secs(5)).unwrap();
                assert_eq!(frame.payload, vec![src as u8]);
                per_peer[src].push(frame.handler);
            }
            for (src, seqs) in per_peer.iter().enumerate() {
                if src == dst {
                    assert!(seqs.is_empty());
                } else {
                    assert_eq!(*seqs, (0..10).collect::<Vec<_>>(), "per-peer order broken");
                }
            }
        }
        for t in &transports {
            t.shutdown();
        }
    }

    #[test]
    fn shutdown_is_idempotent_and_blocks_sends() {
        let (transports, _rxs) = tcp_mesh(2);
        transports[0].shutdown();
        transports[0].shutdown();
        assert!(transports[0]
            .send(1, Frame::control(FrameKind::Hello, 0))
            .is_err());
        transports[1].shutdown();
    }

    #[test]
    fn heartbeats_flow_on_idle_links_without_false_positives() {
        let cfg = NetConfig::builtin()
            .tap(|c| c.heartbeat_interval = Duration::from_millis(20))
            .tap(|c| c.peer_dead_after = Duration::from_millis(400));
        let (transports, _rxs) = tcp_mesh_cfg(2, cfg);
        std::thread::sleep(Duration::from_millis(250));
        // Idle link: heartbeats were exchanged, nobody was declared dead.
        for t in &transports {
            let c = t.counters();
            assert!(
                c.heartbeats_sent.load(Ordering::Relaxed) > 0,
                "no heartbeats sent"
            );
            assert!(
                c.heartbeats_received.load(Ordering::Relaxed) > 0,
                "no heartbeats received"
            );
            assert_eq!(c.peers_lost.load(Ordering::Relaxed), 0);
            // Heartbeats stay out of the data-frame ledger.
            assert_eq!(c.frames_sent.load(Ordering::Relaxed), 0);
        }
        for t in &transports {
            t.shutdown();
        }
    }

    #[test]
    fn corrupt_stream_declares_the_peer_dead_with_a_typed_error() {
        use parking_lot::Mutex as PlMutex;
        struct LossSink {
            tx: PlMutex<mpsc::Sender<(usize, NetError)>>,
        }
        impl FrameSink for LossSink {
            fn deliver(&self, _src: usize, _frame: Frame) {}
            fn peer_lost(&self, peer: usize, error: &NetError) {
                let _ = self.tx.lock().send((peer, error.clone()));
            }
        }

        let (listeners, addrs) = ephemeral_listeners(2).unwrap();
        let (loss_tx, loss_rx) = mpsc::channel();
        let mut joins = Vec::new();
        for (rank, listener) in listeners.into_iter().enumerate() {
            let addrs = addrs.clone();
            let loss_tx = loss_tx.clone();
            joins.push(std::thread::spawn(move || {
                let sink = Arc::new(LossSink {
                    tx: PlMutex::new(loss_tx),
                });
                TcpTransport::with_listener_cfg(rank, listener, &addrs, sink, NetConfig::builtin())
                    .unwrap()
            }));
        }
        let transports: Vec<_> = joins.into_iter().map(|h| h.join().unwrap()).collect();

        // Put deliberately corrupt bytes on the wire from rank 0.
        let mut bytes = Vec::new();
        Frame::data(1, 0, b"soon to be garbage".to_vec()).encode_into(&mut bytes);
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        transports[0].send_raw(1, bytes).unwrap();

        // Rank 1's reader must reject the frame, count it, and declare
        // rank 0 dead with FrameCorrupt — not panic.
        let (peer, err) = loss_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(peer, 0);
        assert!(
            matches!(err, NetError::FrameCorrupt { rank: 0, .. }),
            "got {err}"
        );
        assert_eq!(
            transports[1]
                .counters()
                .frames_corrupt
                .load(Ordering::Relaxed),
            1
        );
        assert_eq!(
            transports[1].counters().peers_lost.load(Ordering::Relaxed),
            1
        );
        for t in &transports {
            t.shutdown();
        }
    }

    #[test]
    fn killed_peer_is_detected_and_sends_fail_typed() {
        use parking_lot::Mutex as PlMutex;
        struct LossSink {
            tx: PlMutex<mpsc::Sender<(usize, NetError)>>,
        }
        impl FrameSink for LossSink {
            fn deliver(&self, _src: usize, _frame: Frame) {}
            fn peer_lost(&self, peer: usize, error: &NetError) {
                let _ = self.tx.lock().send((peer, error.clone()));
            }
        }

        let cfg = NetConfig::builtin()
            .tap(|c| c.heartbeat_interval = Duration::from_millis(20))
            .tap(|c| c.peer_dead_after = Duration::from_millis(200));
        let (listeners, addrs) = ephemeral_listeners(2).unwrap();
        let (loss_tx, loss_rx) = mpsc::channel();
        let mut joins = Vec::new();
        for (rank, listener) in listeners.into_iter().enumerate() {
            let addrs = addrs.clone();
            let cfg = cfg.clone();
            let loss_tx = loss_tx.clone();
            joins.push(std::thread::spawn(move || {
                let sink = Arc::new(LossSink {
                    tx: PlMutex::new(loss_tx),
                });
                TcpTransport::with_listener_cfg(rank, listener, &addrs, sink, cfg).unwrap()
            }));
        }
        let transports: Vec<_> = joins.into_iter().map(|h| h.join().unwrap()).collect();

        // Rank 1 "dies": sockets severed with no Goodbye, listener gone.
        transports[1].kill_connections();

        // Rank 0 (the acceptor — rank 1 dialed it) waits for a re-dial
        // that never comes and, within the reconnect window, declares
        // rank 1 dead.
        let (peer, _err) = loss_rx.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(peer, 1);
        let err = transports[0]
            .send(1, Frame::data(1, 0, vec![0]))
            .unwrap_err();
        assert_eq!(err.rank(), Some(1));
        transports[0].shutdown();
    }

    #[test]
    fn bounce_rejoins_and_replays_exactly_once() {
        let cfg = NetConfig::builtin()
            .tap(|c| c.heartbeat_interval = Duration::from_millis(400))
            .tap(|c| c.peer_dead_after = Duration::from_millis(2000))
            .tap(|c| c.recover_deadline = Duration::from_millis(2000));
        let (transports, rxs) = tcp_mesh_cfg(2, cfg);
        let mut sent: u32 = 0;
        let mut got = Vec::new();
        // Bounce repeatedly: frames sent during the outage are buffered
        // and can only arrive via the rejoin replay. (Frames delivered
        // *before* the drop are covered by the rejoin handshake's
        // cumulative ack — the dialer reports its receive watermark —
        // so they are trimmed, not replayed; receiver-side dedup of a
        // genuinely duplicated frame is exercised separately in
        // `duplicate_seq_is_suppressed`.)
        for round in 0..8u64 {
            for _ in 0..4 {
                transports[0]
                    .send(1, Frame::data(sent, 0, sent.to_le_bytes().to_vec()))
                    .unwrap();
                sent += 1;
            }
            // Ensure delivery happened before the bounce, so the coming
            // replay of these (un-acked) frames is a duplicate.
            for _ in 0..4 {
                let (_, frame) = rxs[1].recv_timeout(Duration::from_secs(10)).unwrap();
                got.push(frame.handler);
            }
            transports[1].drop_connections();
            for _ in 0..2 {
                transports[0]
                    .send(1, Frame::data(sent, 0, sent.to_le_bytes().to_vec()))
                    .unwrap();
                sent += 1;
            }
            let deadline = Instant::now() + Duration::from_secs(10);
            while transports[1].counters().rejoins.load(Ordering::Relaxed) <= round {
                assert!(Instant::now() < deadline, "rejoin {round} never completed");
                std::thread::sleep(Duration::from_millis(5));
            }
            for _ in 0..2 {
                let (_, frame) = rxs[1]
                    .recv_timeout(Duration::from_secs(10))
                    .expect("frame lost across bounce");
                got.push(frame.handler);
            }
            if transports[0]
                .counters()
                .frames_replayed
                .load(Ordering::Relaxed)
                > 0
            {
                break;
            }
        }
        // Every frame sent arrived exactly once, in order.
        assert_eq!(got, (0..sent).collect::<Vec<_>>(), "loss or duplication");
        assert!(rxs[1].try_recv().is_err(), "duplicate frame delivered");
        let c0 = transports[0].counters();
        let c1 = transports[1].counters();
        assert!(c0.rejoins.load(Ordering::Relaxed) >= 1, "no rejoin on 0");
        assert!(c1.rejoins.load(Ordering::Relaxed) >= 1, "no rejoin on 1");
        assert!(
            c0.frames_replayed.load(Ordering::Relaxed) >= 1,
            "nothing was replayed"
        );
        assert_eq!(c0.peers_lost.load(Ordering::Relaxed), 0);
        assert_eq!(c1.peers_lost.load(Ordering::Relaxed), 0);
        for t in &transports {
            t.shutdown();
        }
    }

    #[test]
    fn resend_overflow_is_typed_not_silent() {
        let cfg = NetConfig::builtin()
            .tap(|c| c.peer_dead_after = Duration::from_millis(2000))
            .tap(|c| c.recover_deadline = Duration::from_millis(8000))
            .tap(|c| c.resend_buffer_limit = 256);
        let (transports, _rxs) = tcp_mesh_cfg(2, cfg);
        // Rank 1 dies without restart: no acks will ever trim rank 0's
        // buffer, so sends must hit the typed overflow — never vanish.
        transports[1].kill_connections();
        let deadline = Instant::now() + Duration::from_secs(8);
        let err = loop {
            match transports[0].send(1, Frame::data(0, 0, vec![0u8; 64])) {
                Err(e @ NetError::ResendOverflow { .. }) => break e,
                Err(e) => panic!("expected ResendOverflow, got {e}"),
                Ok(()) => {
                    assert!(Instant::now() < deadline, "overflow never surfaced");
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        };
        match err {
            NetError::ResendOverflow {
                rank,
                buffered_bytes,
                limit_bytes,
            } => {
                assert_eq!(rank, 1);
                assert_eq!(limit_bytes, 256);
                assert!(buffered_bytes <= 256);
            }
            _ => unreachable!(),
        }
        let gauge = transports[0]
            .counters()
            .resend_buffer_bytes
            .load(Ordering::Relaxed);
        assert!(gauge > 0 && gauge <= 256, "gauge out of bounds: {gauge}");
        transports[0].shutdown();
    }

    #[test]
    fn duplicate_seq_is_suppressed() {
        let (transports, rxs) = tcp_mesh(2);
        transports[0]
            .send(1, Frame::data(7, 0, b"x".to_vec()))
            .unwrap();
        let (_, first) = rxs[1].recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(first.seq, 1, "first sequenced frame numbers from 1");
        // Re-inject the same (incarnation, seq) verbatim: the receiver
        // must suppress it, not double-deliver.
        let mut dup = Frame::data(7, 0, b"x".to_vec());
        dup.seq = 1;
        let mut bytes = Vec::new();
        dup.encode_into(&mut bytes);
        transports[0].send_raw(1, bytes).unwrap();
        transports[0]
            .send(1, Frame::data(8, 0, b"y".to_vec()))
            .unwrap();
        let (_, next) = rxs[1].recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(next.handler, 8, "duplicate leaked through");
        assert_eq!(
            transports[1]
                .counters()
                .frames_deduped
                .load(Ordering::Relaxed),
            1
        );
        for t in &transports {
            t.shutdown();
        }
    }

    #[test]
    fn eager_ack_trigger_is_a_byte_budget_capped_by_a_quarter_of_the_resend_limit() {
        let due = |bytes_since_ack, limit| {
            let mut recv = RecvState::new();
            recv.bytes_since_ack = bytes_since_ack;
            recv.eager_ack_due(limit)
        };
        let roomy = NetConfig::builtin().resend_buffer_limit;
        assert!(
            roomy / 4 > EAGER_ACK_BYTES,
            "the constant is the binding cap"
        );
        assert!(!due(0, roomy));
        assert!(!due(EAGER_ACK_BYTES - 1, roomy));
        assert!(!due(EAGER_ACK_BYTES, roomy), "at the budget: not yet");
        assert!(due(EAGER_ACK_BYTES + 1, roomy));
        // A resend budget under 4x the constant: a quarter of it binds
        // instead, or the sender would overflow before the first ack.
        let tight = 256;
        assert!(!due(tight / 4, tight));
        assert!(due(tight / 4 + 1, tight));
        assert!(due(1, 0), "no budget at all: ack everything at once");
    }

    #[test]
    fn bytes_that_follow_a_hello_in_the_same_write_reach_the_reader() {
        // Rank 1 is played by a bare socket whose first write carries the
        // handshake and a data frame back to back. The acceptor reads
        // the Hello unbuffered, so the data frame must still be on the
        // socket when the reader thread (which does buffer) takes over.
        let (mut listeners, addrs) = ephemeral_listeners(2).unwrap();
        listeners.truncate(1);
        let listener = listeners.pop().unwrap();
        let (tx, rx) = mpsc::channel();
        let endpoint = {
            let addrs = addrs.clone();
            std::thread::spawn(move || {
                let sink = Arc::new(FnSink(move |src, frame| {
                    let _ = tx.send((src, frame));
                }));
                TcpTransport::with_listener_cfg(0, listener, &addrs, sink, NetConfig::builtin())
                    .unwrap()
            })
        };
        let mut raw = TcpStream::connect(addrs[0]).unwrap();
        let mut bytes = Vec::new();
        hello_frame(0, 1, 0xABCD, 0).encode_into(&mut bytes);
        let mut data = Frame::data(7, 0, b"right behind the hello".to_vec());
        data.seq = 1;
        data.encode_into(&mut bytes);
        io::Write::write_all(&mut raw, &bytes).unwrap();

        let transport = endpoint.join().unwrap();
        let (src, frame) = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!((src, frame.handler, frame.seq), (1, 7, 1));
        assert_eq!(frame.payload, b"right behind the hello");
        raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        match Frame::read_from(&mut raw).unwrap() {
            Decoded::Frame(f) => assert_eq!(f.kind, FrameKind::Hello, "hello-ack"),
            other => panic!("expected the hello-ack, got {other:?}"),
        }
        transport.shutdown();
    }

    /// Test-local helper: builder-style mutation for NetConfig.
    trait Tap: Sized {
        fn tap(self, f: impl FnOnce(&mut Self)) -> Self;
    }
    impl Tap for NetConfig {
        fn tap(mut self, f: impl FnOnce(&mut Self)) -> Self {
            f(&mut self);
            self
        }
    }
}
