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
//! the bound [`FrameSink`]. The send half of a link is **one append
//! path and one write role** (DESIGN.md §6.5):
//!
//! * **Who appends.** Any thread: [`Transport::append`] takes the
//!   peer's `link` lock and encodes the frame, under the next sequence
//!   number, straight into the tail of the resend ring (`ring.rs`) — or,
//!   for a frame of at least a ring chunk, moves its payload `Vec` in
//!   behind its encoded prefix, to be written from there. It never
//!   touches the socket.
//! * **Who writes.** Whoever finds the `writing` flag clear in
//!   `Shared::flush_link` takes the write role: takes everything
//!   unwritten out of the ring, **drops the lock**, puts it on the
//!   socket with one vectored `write`, re-locks, and repeats while a
//!   flush was asked for meanwhile. A thread that finds the
//!   role taken leaves its request and goes. So no sender blocks behind
//!   another's write (or a fault-injected link delay), and seq order on
//!   the wire is ring order because there is only one writer.
//! * **Who acks.** The reader (past [`EAGER_ACK_BYTES`] of unacked
//!   deliveries) and the monitor (every tick) *publish* the receive
//!   watermark; the cumulative `Ack` leaves at the head of the next
//!   write. The monitor flushes at once. The reader asks the sink to
//!   flush soon instead ([`FrameSink::flush_soon`]): a runtime's
//!   workers do, after the handler the delivery woke has appended its
//!   reply, so the ack rides that reply's write. The reader writes it
//!   itself if the sink declines, if a thread of this endpoint waits in
//!   a link's window, or if the ack it published one budget earlier is
//!   still unwritten. No ack is ever skipped.
//!
//! [`Transport::send`] is append + flush; the runtime appends `Data`
//! only and flushes at quiescence (the cork rule), which turns one
//! `write` per message into one per [`FLUSH_BYTES`]. An appender a
//! window ahead of the peer's acks waits for them. Two locks per peer,
//! `link` then `recv`, neither held across a system call.
//!
//! The receive half mirrors it (DESIGN.md §6.6): the reader keeps
//! decoding while its buffer holds another *whole* frame and hands the
//! sink the sequenced `Data` frames of one read in one
//! [`FrameSink::deliver_data`] — for a runtime, one insertion of ready
//! tasks; there is no channel and no inbox behind the sink. Three rules:
//! (i) *a batch is never held across a call that can reach the socket*
//! — a partial frame in the buffer (so also EOF), a corrupt stream and
//! a frame of any other kind all hand over first, so decode order is
//! delivery order and a lone message never waits for bytes that have
//! not arrived; (ii) *`recv.last_seq`, what the next `Hello` lets the
//! peer forget, never names a frame that has not been handed over* —
//! it advances at hand-over; a replaced reader just stops, what it
//! holds is replayed, and its successor (spawned after it is joined)
//! dedups against exactly what was handed over, so a rejoin stays
//! exactly-once; (iii) *the reader writes an ack only after the
//! hand-over*. It publishes one that falls due just before it, so that
//! the reply the delivery wakes can carry it: a hand-over completes
//! whatever the socket does meanwhile, so the peer may already forget
//! those frames.
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
//! * the **monitor** asks for payload-free heartbeats on send-idle
//!   links, declares a peer dead after `peer_dead_after` of total
//!   silence, and bounds how long a link may sit in `Reconnecting`.
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
//! frames stay in the bounded per-peer resend ring until the peer
//! acknowledges them; a send while the link is down does not park — it
//! appends and returns, and the ring is **replayed** when the peer
//! rejoins. Replay is not a mode: the rejoin trims the ring by the
//! peer's ack and *rewinds the written cursor to the acked one*, and the
//! ordinary drain puts the ring back on the wire. The receiver
//! suppresses duplicates by `(incarnation, seq)`, so replay after an
//! un-acked delivery stays exactly-once. If the ring's byte budget
//! would be exceeded the send fails with a typed
//! [`NetError::ResendOverflow`] — never silent loss.
//!
//! The `Hello` handshake carries `(rank, incarnation, last_acked_seq)`
//! in both directions (the acceptor answers with a hello-ack). A rejoin
//! under the **same** incarnation replays as above. A rejoin under a
//! **new** incarnation (the peer *process* restarted) is not
//! replayable: the old session's ring is discarded and the sink is told
//! how many data frames each direction lost
//! ([`FrameSink::peer_session_reset`]) so the runtime can rebalance its
//! termination-wave totals.
//!
//! Heartbeats are consumed by the transport and counted separately
//! (`heartbeats_sent`/`heartbeats_received`); they do not perturb the
//! `frames_sent`/`bytes_sent` ledger the stats layer reconciles.

use crate::config::NetConfig;
use crate::error::{NetError, NetResult};
use crate::frame::{Decoded, EncodedControl, Frame, FrameKind};
use crate::ring::{Chunk, Ring, CHUNK_BYTES};
use crate::transport::{FrameSink, Transport, TransportCounters};
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::io::{self, BufReader, IoSlice};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use ttg_obs::wire::WireObs;
use ttg_sync::OBS;

/// First retry delay; doubles up to [`CONNECT_RETRY_MAX`].
const CONNECT_RETRY_START: Duration = Duration::from_millis(5);
const CONNECT_RETRY_MAX: Duration = Duration::from_millis(250);

/// Delivered-but-unacked bytes after which the reader publishes an ack
/// rather than leave it to the monitor tick (capped by a quarter of the
/// sender's resend budget, see [`RecvState::eager_ack_due`]). Small on
/// purpose: every unacked byte is a byte the *sender* still holds in
/// its resend ring, so this — not the 100 ms tick — bounds the ring's
/// residence under a stream faster than the tick. One ack per 16 KiB is
/// one 41-byte frame per ~30 small messages or per bulk message. It
/// rides the reply of the handler the delivery woke, or the flush of
/// the receiving rank's idle worker; the reader writes it alone only
/// when a second budget arrives before the first ack left.
const EAGER_ACK_BYTES: u64 = 16 << 10;

/// Appended-but-unwritten bytes behind which an appender flushes the
/// link itself (cork rule (a)): one ring chunk, so a full batch is one
/// or two `iovec`s, and one reader buffer's worth, by the reasoning of
/// [`READ_BUFFER_BYTES`] — one `write` carries what one buffered `recv`
/// of the peer can take. The frame that finds this much pending joins
/// the batch; a lone large frame waits for the flush of its task's end
/// like a small one, so that the write it would make from inside a
/// handler does not race the ack its reply could carry.
const FLUSH_BYTES: usize = CHUNK_BYTES;

/// Bytes a link may hold, unacked or unwritten, before an appender
/// waits for the peer's acks (the window): two rounds of what one ack
/// covers plus what one write carries. Without it a sender that never
/// blocks in `write` outruns the peer by a scheduler quantum, and a
/// whole epoch sits in this ring and in the peer's queue at once.
const RING_WINDOW_BYTES: u64 = 2 * (EAGER_ACK_BYTES + FLUSH_BYTES as u64);

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

impl Default for PeerState {
    fn default() -> Self {
        PeerState::Reconnecting {
            since: Instant::now(),
        }
    }
}

/// Everything the send half of one peer link owns, under one lock: the
/// state machine, the socket's write half, the resend ring with its
/// three cursors, and the write role.
#[derive(Default)]
struct Link {
    state: PeerState,
    /// Write half of the live socket (`Some` iff `Connected`, except
    /// for the instant a replacement connection is being installed).
    stream: Option<Arc<TcpStream>>,
    ring: Ring,
    /// Data-kind frames sequenced so far (what the runtime counted
    /// toward its termination wave for this peer).
    data_sent: u64,
    /// The write role: set by the one thread that is putting this
    /// link's bytes on the socket, with the lock released.
    writing: bool,
    /// A thread found the role taken and left its flush to the holder,
    /// who writes once more before letting go.
    flush_wanted: bool,
    /// Threads waiting on `state_changed` for the role to come free (a
    /// connection install, a teardown) or for the ring to drain into
    /// its window (an appender); notified only when there are any.
    waiters: u32,
    /// Receive watermark published for acknowledgement / the highest
    /// one a write has carried.
    ack_wanted: u64,
    ack_sent: u64,
    /// The monitor found the link send-idle.
    heartbeat_wanted: bool,
    /// The thread reading the installed connection, joined before the
    /// next connection's reader starts (and at teardown).
    reader: Option<std::thread::JoinHandle<()>>,
}

impl Link {
    /// The ack and heartbeat the next write should carry. The ack is
    /// booked as sent here: if the write fails the link is lost, and
    /// the rejoin handshake carries the watermark instead.
    fn take_control(&mut self) -> (Option<u64>, bool) {
        let ack = (self.ack_wanted > self.ack_sent).then_some(self.ack_wanted);
        self.ack_sent = self.ack_sent.max(self.ack_wanted);
        (ack, std::mem::take(&mut self.heartbeat_wanted))
    }
}

/// Receive-side session state for one peer: the incarnation we believe
/// the peer is running under and the cumulative-delivery watermark.
#[derive(Default)]
struct RecvState {
    /// Peer's incarnation (0 = not yet learned from a Hello).
    peer_incarnation: u64,
    /// Highest sequenced frame delivered; anything ≤ this is a dup.
    last_seq: u64,
    /// Data-kind frames delivered from this peer this session.
    data_received: u64,
    /// Encoded bytes of sequenced frames delivered since the watermark
    /// was last published for acknowledgement; drives
    /// [`RecvState::eager_ack_due`].
    bytes_since_ack: u64,
}

impl RecvState {
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

/// One peer of the mesh. Lock order: `link` before `recv`; neither is
/// held across a system call.
#[derive(Default)]
struct PeerSlot {
    link: Mutex<Link>,
    /// Signalled on every state transition, and for counted waiters
    /// when the write role comes free or the ring shrinks.
    state_changed: Condvar,
    /// Receive-side dedup + ack watermark (the reader's leaf lock).
    recv: Mutex<RecvState>,
    /// Milliseconds since `Shared::start` of the last byte received /
    /// frame sent, for the monitor's idle and silence timers.
    last_recv_ms: AtomicU64,
    last_send_ms: AtomicU64,
    /// Bumped on every (re)install and on death; readers carry the
    /// generation they were spawned for so a stale reader's loss report
    /// cannot tear down its successor connection.
    generation: AtomicU64,
    /// Artificial per-frame write delay in ns (0 = none), installed by
    /// [`Transport::set_link_delay`] — a fault-injected slow link.
    delay_ns: AtomicU64,
}

impl PeerSlot {
    /// One wait on `state_changed` as a counted waiter; false once
    /// `deadline` has passed.
    fn wait_until(&self, link: &mut MutexGuard<'_, Link>, deadline: Instant) -> bool {
        let left = deadline.saturating_duration_since(Instant::now());
        link.waiters += 1;
        let timed_out = left.is_zero() || self.state_changed.wait_for(link, left).timed_out();
        link.waiters -= 1;
        !timed_out
    }

    /// Wakes counted waiters: the write role came free or the ring
    /// shrank.
    fn wake_waiters(&self, link: &Link) {
        if link.waiters > 0 {
            self.state_changed.notify_all();
        }
    }

    /// Waits (bounded by `patience`) until no thread holds the write
    /// role; false if one still does.
    fn await_write_role(&self, link: &mut MutexGuard<'_, Link>, patience: Duration) -> bool {
        let deadline = Instant::now() + patience;
        while link.writing && self.wait_until(link, deadline) {}
        !link.writing
    }
}

/// Severs a socket both ways, which also unblocks the link's reader and
/// fails a write in progress on it.
fn sever(stream: Option<Arc<TcpStream>>) {
    if let Some(stream) = stream {
        let _ = stream.shutdown(Shutdown::Both);
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

/// Writes every slice of `bufs` in order (the `write_all` of vectored
/// writes); returns the number of `write` calls it took.
fn write_all_vectored(stream: &TcpStream, mut bufs: &mut [IoSlice<'_>]) -> io::Result<u64> {
    let mut writes = 0;
    IoSlice::advance_slices(&mut bufs, 0);
    while !bufs.is_empty() {
        match io::Write::write_vectored(&mut &*stream, bufs) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => {
                writes += 1;
                IoSlice::advance_slices(&mut bufs, n);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(writes)
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
    /// Threads waiting in a link's window for a peer's acks. While there
    /// are any, a reader writes the acks it publishes itself: the worker
    /// that would carry them may be one of the waiters, and the peer may
    /// be waiting for those acks in turn.
    window_waiters: AtomicUsize,
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

    /// The one place bytes reach a peer's socket: an ack and a
    /// heartbeat if `control` asks for them, then every nonempty slice
    /// of `data`, in one vectored `write` per 16 slices.
    fn write_parts<'a>(
        &self,
        stream: &TcpStream,
        control: (Option<u64>, bool),
        data: impl Iterator<Item = &'a [u8]>,
    ) -> io::Result<()> {
        let me = self.rank as u32;
        let ack = control
            .0
            .map(|seq| EncodedControl::new(FrameKind::Ack, me, &[seq]));
        let beat = control
            .1
            .then(|| EncodedControl::new(FrameKind::Heartbeat, me, &[]));
        let mut slices = [IoSlice::new(&[]); 16];
        let (mut n, mut writes) = (0, 0);
        for frame in ack.iter().chain(&beat) {
            slices[n] = IoSlice::new(frame.as_bytes());
            n += 1;
        }
        for part in data.filter(|part| !part.is_empty()) {
            if n == slices.len() {
                writes += write_all_vectored(stream, &mut slices)?;
                n = 0;
            }
            slices[n] = IoSlice::new(part);
            n += 1;
        }
        writes += write_all_vectored(stream, &mut slices[..n])?;
        self.counters
            .socket_writes
            .fetch_add(writes, Ordering::Relaxed);
        if control.1 {
            self.counters
                .heartbeats_sent
                .fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Writes what the write-role holder took out of the link, with
    /// **no lock held**. A fault-injected link delay is slept here, once
    /// per frame, so the frames trickle out as on a slow socket while
    /// whoever appends does not wait (its frames do: that is the
    /// `wire_lock_wait` stage, append → write start).
    fn write_batch(
        &self,
        slot: &PeerSlot,
        stream: &TcpStream,
        mut control: (Option<u64>, bool),
        batch: &[Chunk],
    ) -> io::Result<()> {
        let start = WireObs::now_ns();
        if OBS {
            for chunk in batch.iter().filter(|c| c.stamps_ns > 0) {
                let wait = start.saturating_sub(chunk.stamps_ns / chunk.frames());
                (0..chunk.frames()).for_each(|_| self.wire.record_lock_wait(wait));
            }
        }
        let delay = Duration::from_nanos(slot.delay_ns.load(Ordering::Relaxed));
        if delay.is_zero() {
            self.write_parts(stream, control, batch.iter().flat_map(Chunk::parts))?;
        } else {
            for frame in batch.iter().flat_map(Chunk::frame_parts) {
                std::thread::sleep(delay);
                self.write_parts(stream, control, frame.into_iter())?;
                // Liveness stays truthful on the slow link: what was
                // asked for while this frame waited rides on the next.
                control = slot.link.lock().take_control();
            }
            self.write_parts(stream, control, std::iter::empty())?;
        }
        if OBS && !batch.is_empty() {
            let bytes = batch.iter().map(|c| c.len() as u64).sum();
            let frames = batch.iter().map(Chunk::frames).sum();
            self.wire
                .record_write(WireObs::now_ns().saturating_sub(start), bytes, frames);
        }
        slot.last_send_ms.store(self.now_ms(), Ordering::Relaxed);
        Ok(())
    }

    /// Puts everything pending on `peer`'s link on the wire, or leaves
    /// that to the thread already writing (it writes again while a
    /// flush was asked for meanwhile). Takes the write role without
    /// waiting and never holds `link` across the write; a failed write
    /// puts the batch back as unwritten and starts the reconnect dance.
    fn flush_link(self: &Arc<Self>, peer: usize, slot: &PeerSlot) {
        let mut link = slot.link.lock();
        link.flush_wanted = true;
        if link.writing {
            return;
        }
        while let Some(stream) = link.stream.clone() {
            // Only a flush asked for (again) writes: an ack a reader
            // published and left to the workers waits for their write.
            let asked = std::mem::take(&mut link.flush_wanted);
            let due =
                link.ring.has_pending() || link.ack_wanted > link.ack_sent || link.heartbeat_wanted;
            if !(asked && due) {
                break;
            }
            link.writing = true;
            let control = link.take_control();
            let mut batch = link.ring.take_pending();
            let generation = slot.generation.load(Ordering::Relaxed);
            drop(link);
            let wrote = self.write_batch(slot, &stream, control, &batch);
            link = slot.link.lock();
            if wrote.is_ok() {
                let trimmed = link.ring.retire(&mut batch);
                self.note_trimmed(peer, slot, &link, trimmed);
                continue;
            }
            // Unwritten again; the rejoin's drain re-sends it (the
            // peer's reader discards a partial frame together with the
            // dead socket).
            link.ring.put_back(batch);
            link.writing = false;
            slot.wake_waiters(&link);
            drop(link);
            return self.connection_lost(peer, generation);
        }
        link.writing = false;
        slot.wake_waiters(&link);
    }

    /// [`Shared::flush_link`] on every link.
    fn flush_all(self: &Arc<Self>) {
        for (peer, slot) in self.peers.iter().enumerate() {
            if let Some(slot) = slot {
                self.flush_link(peer, slot);
            }
        }
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

    /// Bookkeeping after the ring dropped `trimmed.0` acked bytes: the
    /// global and per-link resend gauges, appenders waiting for the
    /// window, and — with `obs` on — the link's ack RTT (from the
    /// first-append timestamp `trimmed.1` of the newest chunk trimmed)
    /// and its ack-lag gauge (sequenced frames not yet acked).
    fn note_trimmed(&self, peer: usize, slot: &PeerSlot, link: &Link, trimmed: (u64, u64)) {
        let (bytes, born_ns) = trimmed;
        if bytes == 0 {
            return;
        }
        self.counters
            .resend_buffer_bytes
            .fetch_sub(bytes, Ordering::Relaxed);
        slot.wake_waiters(link);
        if OBS {
            self.wire.resend_delta(peer, -(bytes as i64));
            let lag = link.ring.appended.saturating_sub(link.ring.acked);
            self.wire.set_ack_lag(peer, lag);
            if born_ns > 0 {
                let rtt_ns = WireObs::now_ns().saturating_sub(born_ns);
                self.wire.record_ack_rtt_us(peer, rtt_ns / 1_000);
            }
        }
    }

    /// Publishes everything delivered from `peer` so far for
    /// acknowledgement and flushes: the ack rides at the head of the
    /// next write to the peer, this thread's or the current holder's.
    /// The monitor tick's ack.
    fn publish_ack(self: &Arc<Self>, peer: usize, slot: &PeerSlot) {
        {
            let mut link = slot.link.lock();
            let mut recv = slot.recv.lock();
            link.ack_wanted = link.ack_wanted.max(recv.last_seq);
            recv.bytes_since_ack = 0;
        }
        self.flush_link(peer, slot);
    }

    /// Installs a freshly handshaken socket for `peer` and spawns its
    /// reader. `peer_incarnation`/`their_last_acked` come from the
    /// peer's Hello (or hello-ack): a same-incarnation rejoin trims the
    /// resend ring by the peer's cumulative ack and rewinds the written
    /// cursor, so the ordinary drain replays the rest; a new
    /// incarnation resets both session directions and reports the loss
    /// to the sink. Returns false (dropping the socket) if the peer is
    /// already dead/closed or the endpoint is shutting down.
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
        // Sever a connection this one replaces, let its reader make its
        // last delivery before the new one can make its first (it still
        // drains what it had buffered), and wait out a write still in
        // progress on it (it fails at once): the ring must be whole —
        // nothing taken out by a writer — when it is rewound.
        let mut link = slot.link.lock();
        let (replaced, old_reader) = (link.stream.take(), link.reader.take());
        if replaced.is_some() {
            // What its reader or writer reports from here on is about a
            // connection already replaced.
            slot.generation.fetch_add(1, Ordering::Relaxed);
        }
        drop(link);
        sever(replaced);
        if let Some(reader) = old_reader {
            let _ = reader.join();
        }
        let mut link = slot.link.lock();
        if !slot.await_write_role(&mut link, self.cfg.peer_dead_after) {
            return false;
        }
        if self.down.load(Ordering::Acquire) || link.state.send_error(peer).is_some() {
            return false;
        }

        // Session bookkeeping: same incarnation → trim by their ack;
        // new incarnation → the old session is unrecoverable on both
        // directions.
        let mut session_reset: Option<(u64, u64)> = None;
        let same_incarnation = {
            let mut recv = slot.recv.lock();
            if recv.peer_incarnation == 0 || recv.peer_incarnation == peer_incarnation {
                recv.peer_incarnation = peer_incarnation;
                let trimmed = link.ring.trim(their_last_acked);
                self.note_trimmed(peer, slot, &link, trimmed);
                true
            } else {
                session_reset = Some((link.data_sent, recv.data_received));
                let lost = (link.ring.buffered_bytes, 0);
                (link.ring, link.data_sent) = (Ring::default(), 0);
                (link.ack_wanted, link.ack_sent) = (0, 0);
                self.note_trimmed(peer, slot, &link, lost);
                *recv = RecvState {
                    peer_incarnation,
                    ..RecvState::default()
                };
                false
            }
        };
        // Rewind the written cursor to the acked one. Nothing can
        // interleave with the replay because the drain is the only
        // writer. Every frame in the ring counts as replayed, as frames
        // buffered during the outage always did.
        let replay = link.ring.rewind();
        if reconnect {
            self.counters
                .frames_replayed
                .fetch_add(replay, Ordering::Relaxed);
        }

        let generation = slot.generation.load(Ordering::Relaxed) + 1;
        slot.generation.store(generation, Ordering::Relaxed);
        link.stream = Some(Arc::new(stream));
        let now = self.now_ms();
        slot.last_recv_ms.store(now, Ordering::Relaxed);
        slot.last_send_ms.store(now, Ordering::Relaxed);
        link.state = PeerState::Connected;
        slot.state_changed.notify_all();
        drop(link);

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
        let reader = std::thread::Builder::new()
            .name(format!("ttg-net-{}<-{}", self.rank, peer))
            .spawn(move || reader_loop(&shared, peer, reader_stream, generation));
        let Ok(reader) = reader else {
            self.declare_dead(
                peer,
                NetError::Io {
                    kind: io::ErrorKind::Other,
                    msg: "could not spawn reader thread".into(),
                },
            );
            return false;
        };
        slot.link.lock().reader = Some(reader);
        // The replay, and whatever was appended while the link was
        // down. If the fresh socket dies mid-way the frames are still in
        // the ring, so another rejoin round can finish the job.
        self.flush_link(peer, slot);
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
        let stale = {
            let mut link = slot.link.lock();
            if slot.generation.load(Ordering::Relaxed) != generation {
                return; // about a connection that was already replaced
            }
            match link.state {
                PeerState::Connected => {}
                _ => return, // loss already being handled
            }
            link.state = PeerState::Reconnecting {
                since: Instant::now(),
            };
            slot.state_changed.notify_all();
            link.stream.take()
        };
        sever(stale);
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

    /// Ends `peer`'s link for good as `end` (`Dead` or `Closed`) unless
    /// it already ended or — with `generation` — the report is about a
    /// connection that was since replaced. Severs the socket; true if
    /// this call ended it.
    fn end_link(&self, peer: usize, generation: Option<u64>, end: PeerState) -> bool {
        let Some(slot) = self.slot(peer) else {
            return false;
        };
        let stale = {
            let mut link = slot.link.lock();
            let current = slot.generation.load(Ordering::Relaxed);
            if generation.is_some_and(|g| g != current) || link.state.send_error(peer).is_some() {
                return false;
            }
            if generation.is_none() {
                slot.generation.store(current + 1, Ordering::Relaxed);
            }
            link.state = end;
            slot.state_changed.notify_all();
            link.stream.take()
        };
        sever(stale);
        true
    }

    /// Irrevocably marks `peer` lost: latches the typed error for
    /// future sends, counts it, and tells the sink exactly once.
    fn declare_dead(self: &Arc<Self>, peer: usize, err: NetError) {
        if self.end_link(peer, None, PeerState::Dead(err.clone())) {
            self.counters.peers_lost.fetch_add(1, Ordering::Relaxed);
            self.sink.peer_lost(peer, &err);
        }
    }

    /// Queues one already-encoded unsequenced frame for `dst` behind
    /// whatever is pending and flushes, parking through a reconnect
    /// first (the frame is not in the ring: it is not replayed). Counts
    /// the frame exactly once.
    fn send_unsequenced(self: &Arc<Self>, dst: usize, bytes: Vec<u8>) -> NetResult<()> {
        let slot = self.live_slot(dst)?;
        // The monitor turns a lingering Reconnecting into Dead within
        // peer_dead_after; this is a backstop so send() can never park
        // forever even if the monitor thread itself died.
        let give_up = Instant::now() + self.cfg.peer_dead_after * 3 + Duration::from_secs(1);
        let mut link = slot.link.lock();
        while !matches!(link.state, PeerState::Connected) {
            if let Some(e) = link.state.send_error(dst) {
                return Err(e);
            }
            if self.down.load(Ordering::Acquire) {
                return Err(NetError::NotConnected { rank: dst });
            }
            if !slot.wait_until(&mut link, give_up) {
                return Err(NetError::PeerClosed {
                    rank: dst,
                    during: "send timed out awaiting reconnect",
                });
            }
        }
        self.counters.frames_sent.fetch_add(1, Ordering::Relaxed);
        self.counters
            .bytes_sent
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        link.ring.push_unsequenced(bytes);
        drop(link);
        self.flush_link(dst, slot);
        Ok(())
    }

    /// Appends a sequenced frame to `dst`'s ring, encoded in place
    /// under the next sequence number. Never touches the socket — a
    /// frame appended during `Reconnecting` is buffered like any other
    /// and the rejoin's drain puts it on the wire. The only failure
    /// modes are a dead/closed peer (typed, latched) and a full ring
    /// ([`NetError::ResendOverflow`]). True when the caller should flush
    /// now: the frame joined a [`FLUSH_BYTES`] batch, or it is not `Data`
    /// (control traffic is never corked).
    fn append(self: &Arc<Self>, dst: usize, mut frame: Frame) -> NetResult<bool> {
        let slot = self.live_slot(dst)?;
        let len = frame.encoded_len();
        let mut link = slot.link.lock();
        // The window: a live link this far ahead of the peer's acks
        // makes `Data` wait for them (after flushing: acks only come for
        // what was written). A link that is down buffers instead, up to
        // the hard limit below. Control frames never wait: the wave
        // answers them from the reader thread, which reads the acks.
        let window = RING_WINDOW_BYTES.min(self.cfg.resend_buffer_limit / 2);
        let (mut deadline, mut waiting) = (None, false);
        while frame.kind == FrameKind::Data
            && link.ring.buffered_bytes > window
            && matches!(link.state, PeerState::Connected)
            && !self.down.load(Ordering::Acquire)
        {
            if !waiting {
                // Acks this endpoint's readers left to its workers go out
                // now, on every link (the peer may wait for them as this
                // thread waits for its acks); readers write the ones they
                // publish from here on themselves.
                waiting = true;
                self.window_waiters.fetch_add(1, Ordering::SeqCst);
                drop(link);
                self.flush_all();
                link = slot.link.lock();
                continue;
            }
            if link.ring.has_pending() {
                drop(link);
                self.flush_link(dst, slot);
                link = slot.link.lock();
                if !link.ring.has_pending() {
                    continue;
                }
            }
            let deadline =
                *deadline.get_or_insert_with(|| Instant::now() + self.cfg.peer_dead_after);
            if !slot.wait_until(&mut link, deadline) {
                break;
            }
        }
        if waiting {
            self.window_waiters.fetch_sub(1, Ordering::SeqCst);
        }
        if link.ring.buffered_bytes + len as u64 > self.cfg.resend_buffer_limit {
            return Err(NetError::ResendOverflow {
                rank: dst,
                buffered_bytes: link.ring.buffered_bytes,
                limit_bytes: self.cfg.resend_buffer_limit,
            });
        }
        // A dead peer must fail typed, not silently accumulate frames.
        if let Some(e) = link.state.send_error(dst) {
            return Err(e);
        }
        if frame.kind == FrameKind::Data {
            link.data_sent += 1;
        }
        let batch_full = link.ring.pending_bytes >= FLUSH_BYTES;
        let e0 = WireObs::now_ns();
        let chunk = link.ring.append(&mut frame, e0);
        self.counters
            .resend_buffer_bytes
            .fetch_add(len as u64, Ordering::Relaxed);
        if OBS {
            // Unique sequenced frame committed: count it on the link
            // exactly once (replays never re-count), track the per-link
            // resend occupancy and the unacked backlog.
            let e1 = WireObs::now_ns();
            chunk.stamps_ns += e1;
            self.wire.record_encode(e1.saturating_sub(e0));
            self.wire.link_tx(dst, len as u64);
            self.wire.resend_delta(dst, len as i64);
            self.wire.set_ack_lag(dst, frame.seq - link.ring.acked);
        }
        // The frame is durable from here: count it once, now, whether
        // it goes out on this socket or a replay.
        self.counters.frames_sent.fetch_add(1, Ordering::Relaxed);
        self.counters
            .bytes_sent
            .fetch_add(len as u64, Ordering::Relaxed);
        Ok(batch_full || frame.kind != FrameKind::Data)
    }

    /// Local end of the endpoint's life, however it ends (the caller
    /// has set `down`): every link that is not already dead is marked
    /// closed so parked senders wake with a typed error, every socket
    /// is severed — after what is still pending and `farewell`, if the
    /// end is orderly enough to say Goodbye and no write is stuck on
    /// the link — and the transport's threads are joined.
    fn teardown(&self, farewell: Option<&[u8]>) {
        for slot in self.peers.iter().flatten() {
            let mut link = slot.link.lock();
            let orderly =
                farewell.filter(|_| slot.await_write_role(&mut link, Duration::from_secs(1)));
            let (stream, reader) = (link.stream.take(), link.reader.take());
            let pending = link.ring.take_pending();
            if !matches!(link.state, PeerState::Dead(_)) {
                link.state = PeerState::Closed;
            }
            slot.state_changed.notify_all();
            drop(link);
            if let (Some(goodbye), Some(stream)) = (orderly, &stream) {
                if self
                    .write_batch(slot, stream, (None, false), &pending)
                    .is_ok()
                {
                    let _ = io::Write::write_all(&mut &**stream, goodbye);
                }
            }
            sever(stream);
            if let Some(reader) = reader {
                let _ = reader.join();
            }
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
                .map(|p| (p != rank).then(PeerSlot::default))
                .collect(),
            counters: TransportCounters::default(),
            wire: Arc::new(WireObs::new(nranks)),
            sink,
            window_waiters: AtomicUsize::new(0),
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
            let mut link = slot.link.lock();
            let failure = loop {
                match &link.state {
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
                                .wait_for(&mut link, remaining)
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
            drop(link);
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
            let live = slot.link.lock().stream.clone();
            sever(live);
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

/// What a reader has decoded and not yet handed to the sink: the
/// sequenced `Data` frames of one read, in arrival order (or one frame
/// of any other kind, which goes alone), their encoded bytes, and the
/// newest sequence number decoded — at or below it is a replayed frame.
#[derive(Default)]
struct Held {
    frames: Vec<Frame>,
    bytes: u64,
    seq: u64,
}

impl Shared {
    /// Hands `held` to the sink — `Data` frames all at once — and only
    /// then advances the receive watermark to them (rule (ii)). An ack
    /// that falls due is published first and written, by this thread
    /// or the sink's next flush, only after (rule (iii): its write may
    /// be what discovers a dead socket, and the rejoin it starts brings
    /// a new reader whose deliveries must come after these).
    fn hand_over(self: &Arc<Self>, peer: usize, slot: &PeerSlot, held: &mut Held) {
        let Some(first) = held.frames.first() else {
            return;
        };
        let (sequenced, data) = (first.seq != 0, first.kind == FrameKind::Data);
        let (n, bytes) = (held.frames.len() as u64, std::mem::take(&mut held.bytes));
        self.counters
            .frames_received
            .fetch_add(n, Ordering::Relaxed);
        self.counters
            .bytes_received
            .fetch_add(bytes, Ordering::Relaxed);
        let due = sequenced && {
            let mut recv = slot.recv.lock();
            recv.bytes_since_ack += bytes;
            recv.eager_ack_due(self.cfg.resend_buffer_limit)
        };
        // An ack that falls due is published before the delivery, so
        // that the reply of the handler the delivery wakes carries it;
        // this reader goes on to deliver whatever happens to the socket
        // meanwhile, so the peer may forget the frames already.
        let earlier_unwritten = due && {
            let mut link = slot.link.lock();
            let earlier_unwritten = link.ack_wanted > link.ack_sent;
            link.ack_wanted = link.ack_wanted.max(held.seq);
            slot.recv.lock().bytes_since_ack = 0;
            earlier_unwritten
        };
        let d0 = WireObs::now_ns();
        if data {
            self.sink.deliver_data(peer, &mut held.frames);
        } else {
            self.sink
                .deliver(peer, held.frames.pop().expect("one frame"));
        }
        if OBS {
            let each = WireObs::now_ns().saturating_sub(d0) / n;
            (0..n).for_each(|_| self.wire.record_dispatch(each));
        }
        if sequenced {
            let mut recv = slot.recv.lock();
            recv.last_seq = held.seq;
            recv.data_received += if data { n } else { 0 };
        }
        // The ack rides the next data write: the reply of the handler
        // just woken, or the flush of the worker that goes idle. Unless
        // that reply has left already (a request now would be stale, and
        // flush the next ack ahead of its reply), the reader writes the
        // ack itself if the sink cannot promise that flush, if a thread
        // of this endpoint waits in a window (it may be the worker the
        // flush is left to), or if the ack it published one budget ago
        // is still unwritten — so no more than two budgets ever wait for
        // their ack in the peer's ring.
        let unwritten = || slot.link.lock().ack_sent < held.seq;
        let deferred = || self.window_waiters.load(Ordering::SeqCst) == 0 && self.sink.flush_soon();
        if due && unwritten() && (earlier_unwritten || !deferred()) {
            self.flush_link(peer, slot);
        }
    }
}

/// Decodes frames from one peer socket until it dies, closes, or the
/// stream proves corrupt, collecting the sequenced `Data` frames while
/// its buffer holds another whole frame and handing them over before
/// any call that can reach the socket (rule (i)). Never panics: every
/// failure routes into the link state machine.
fn reader_loop(shared: &Arc<Shared>, peer: usize, stream: TcpStream, generation: u64) {
    let Some(slot) = shared.slot(peer) else {
        return;
    };
    let mut stream = BufReader::with_capacity(READ_BUFFER_BYTES, stream);
    // This thread is the watermark's only writer while it lives (its
    // predecessor was joined, a session reset precedes its spawn).
    let mut held = Held {
        seq: slot.recv.lock().last_seq,
        ..Held::default()
    };
    loop {
        let may_block = !Frame::buffered(stream.buffer());
        if may_block {
            shared.hand_over(peer, slot, &mut held);
        }
        let frame = match Frame::read_from_timed(&mut stream) {
            Ok((Decoded::Frame(frame), busy_ns)) => {
                if OBS {
                    shared.wire.record_read_decode(busy_ns);
                }
                frame
            }
            Ok((Decoded::Eof, _)) => {
                // Clean EOF but no Goodbye: the peer process vanished or
                // the connection dropped. Transient until proven fatal.
                shared.connection_lost(peer, generation);
                return;
            }
            Ok((Decoded::Corrupt { detail }, _)) => {
                shared.hand_over(peer, slot, &mut held);
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
        };
        // Replaced (this reader reported the loss itself, from a failed
        // ack write, and kept draining its buffer): stop. What it drops
        // — this frame and whatever it holds — the watermark never
        // named, so the peer replays it.
        if slot.generation.load(Ordering::Relaxed) != generation {
            return;
        }
        if may_block {
            slot.last_recv_ms.store(shared.now_ms(), Ordering::Relaxed);
        }
        // Only sequenced `Data` shares a hand-over. Any other frame — a
        // control frame, one injected raw — is acted on or goes to the
        // sink alone, after everything decoded before it.
        let alone = frame.kind != FrameKind::Data || frame.seq == 0;
        if alone {
            shared.hand_over(peer, slot, &mut held);
        }
        match frame.kind {
            FrameKind::Goodbye => {
                // The link is gone on purpose: not a failure, so no
                // `peers_lost`, no `peer_lost` callback.
                shared.end_link(peer, Some(generation), PeerState::Closed);
                return;
            }
            FrameKind::Heartbeat => {
                shared
                    .counters
                    .heartbeats_received
                    .fetch_add(1, Ordering::Relaxed);
            }
            FrameKind::Ack => {
                // Cumulative ack: trim everything the peer has durably
                // received out of the resend ring.
                if let Ok(acked) = frame.payload.as_slice().try_into() {
                    let acked = u64::from_le_bytes(acked);
                    let mut link = slot.link.lock();
                    let trimmed = link.ring.trim(acked);
                    shared.note_trimmed(peer, slot, &link, trimmed);
                }
            }
            FrameKind::Hello => {} // stray handshake frame
            _ if frame.seq != 0 && frame.seq <= held.seq => {
                // Replayed frame already decoded before the bounce.
                shared
                    .counters
                    .frames_deduped
                    .fetch_add(1, Ordering::Relaxed);
            }
            _ => {
                held.seq = held.seq.max(frame.seq);
                held.bytes += frame.encoded_len() as u64;
                if OBS && frame.seq != 0 {
                    // First delivery of a unique sequenced frame: the rx
                    // half of the symmetric link traffic ledger.
                    shared.wire.link_rx(peer, frame.encoded_len() as u64);
                }
                held.frames.push(frame);
                if alone {
                    shared.hand_over(peer, slot, &mut held);
                }
            }
        }
    }
}

/// Liveness: heartbeats on idle links, silence and reconnect-window
/// deadlines, and the tick's cumulative ack.
fn monitor_loop(shared: &Arc<Shared>) {
    let hb_ms = shared.cfg.heartbeat_interval.as_millis() as u64;
    let dead_ms = shared.cfg.peer_dead_after.as_millis() as u64;
    let tick = (shared.cfg.heartbeat_interval / 4)
        .clamp(Duration::from_millis(1), Duration::from_millis(100));
    loop {
        if shared.down.load(Ordering::Acquire) {
            return;
        }
        for peer in 0..shared.nranks {
            let Some(slot) = shared.slot(peer) else {
                continue;
            };
            let verdict = {
                let mut link = slot.link.lock();
                match &link.state {
                    PeerState::Connected => {
                        let now = shared.now_ms();
                        let silent = now.saturating_sub(slot.last_recv_ms.load(Ordering::Relaxed));
                        let idle = now.saturating_sub(slot.last_send_ms.load(Ordering::Relaxed));
                        // A link in the middle of a write is not idle.
                        link.heartbeat_wanted |= idle >= hb_ms && !link.writing;
                        (silent > dead_ms).then_some(NetError::HeartbeatLost {
                            rank: peer,
                            silent_for: Duration::from_millis(silent),
                        })
                    }
                    PeerState::Reconnecting { since }
                        if since.elapsed()
                            > shared.cfg.peer_dead_after + shared.cfg.recover_deadline =>
                    {
                        Some(NetError::PeerClosed {
                            rank: peer,
                            during: "reconnect window expired",
                        })
                    }
                    _ => None,
                }
            };
            match verdict {
                Some(err) => shared.declare_dead(peer, err),
                // The heartbeat, if one is due, and the cumulative ack
                // for what was delivered since the last one (so the
                // peer can trim its resend ring) leave in one write.
                None => shared.publish_ack(peer, slot),
            }
        }
        std::thread::sleep(tick);
    }
}

impl TcpTransport {
    /// Appends `frame` to `dst`'s link and flushes it if `flush` says
    /// so or the append does (a full batch, a control frame).
    fn put(&self, dst: usize, frame: Frame, flush: bool) -> NetResult<()> {
        if !is_sequenced(frame.kind) {
            let mut bytes = Vec::with_capacity(frame.encoded_len());
            frame.encode_into(&mut bytes);
            return self.shared.send_unsequenced(dst, bytes);
        }
        if self.shared.append(dst, frame)? || flush {
            self.shared.flush_link(dst, self.shared.live_slot(dst)?);
        }
        Ok(())
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
        self.put(dst, frame, true)
    }

    fn append(&self, dst: usize, frame: Frame) -> NetResult<()> {
        self.put(dst, frame, false)
    }

    fn flush(&self) {
        self.shared.flush_all();
    }

    fn send_raw(&self, dst: usize, bytes: Vec<u8>) -> NetResult<()> {
        self.shared.send_unsequenced(dst, bytes)
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
        tcp_mesh_gated(n, cfg, &Arc::default())
    }

    /// A sink that forwards frames into a channel — and, while `gate` is
    /// shut, stops in the middle of the first batch of two or more it
    /// is handed: one frame forwarded, the rest decoded and not handed
    /// over, `gate.held` raised until the gate opens.
    struct GatedSink {
        tx: Mutex<mpsc::Sender<(usize, Frame)>>,
        gate: Arc<Gate>,
    }

    #[derive(Default)]
    struct Gate {
        shut: AtomicBool,
        held: AtomicBool,
    }

    impl FrameSink for GatedSink {
        fn deliver(&self, src: usize, frame: Frame) {
            let _ = self.tx.lock().send((src, frame));
        }

        fn deliver_data(&self, src: usize, frames: &mut Vec<Frame>) {
            let mut frames = frames.drain(..);
            if frames.len() >= 2 && self.gate.shut.load(Ordering::Acquire) {
                self.deliver(src, frames.next().expect("two or more"));
                self.gate.held.store(true, Ordering::Release);
                await_that("the gate to open", || {
                    !self.gate.shut.load(Ordering::Acquire)
                });
            }
            frames.for_each(|frame| self.deliver(src, frame));
        }
    }

    fn tcp_mesh_gated(
        n: usize,
        cfg: NetConfig,
        gate: &Arc<Gate>,
    ) -> (Vec<Arc<TcpTransport>>, Vec<FrameRx>) {
        let (listeners, addrs) = ephemeral_listeners(n).unwrap();
        let (txs, rxs): (Vec<_>, Vec<_>) = (0..n).map(|_| mpsc::channel()).unzip();
        let handles: Vec<_> = listeners
            .into_iter()
            .zip(txs)
            .enumerate()
            .map(|(rank, (listener, tx))| {
                let addrs = addrs.clone();
                let cfg = cfg.clone();
                let (tx, gate) = (Mutex::new(tx), Arc::clone(gate));
                std::thread::spawn(move || {
                    let sink = Arc::new(GatedSink { tx, gate });
                    TcpTransport::with_listener_cfg(rank, listener, &addrs, sink, cfg).unwrap()
                })
            })
            .collect();
        let transports = handles.into_iter().map(|h| h.join().unwrap()).collect();
        (transports, rxs)
    }

    /// Spins (yielding, never sleeping) until `ready`, under the 30 s
    /// watchdog every wait in these tests shares.
    fn await_that(what: &str, ready: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(30);
        while !ready() {
            assert!(Instant::now() < deadline, "{what}: not within 30 s");
            std::thread::yield_now();
        }
    }

    fn count(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
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
        // Idle link: heartbeats were exchanged, nobody was declared dead.
        for t in &transports {
            let c = t.counters();
            await_that("heartbeats both ways", || {
                count(&c.heartbeats_sent) > 0 && count(&c.heartbeats_received) > 0
            });
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
            await_that("rejoin", || {
                count(&transports[1].counters().rejoins) > round
            });
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
                Ok(()) => assert!(Instant::now() < deadline, "overflow never surfaced"),
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
            let recv = RecvState {
                bytes_since_ack,
                ..RecvState::default()
            };
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

    /// What a sender `who` puts in its `i`-th frame: an identity to
    /// check order by and a length-dependent fill to check wholeness.
    fn stamped(who: u8, i: u32, len: usize) -> Vec<u8> {
        let mut p = vec![who ^ (len as u8); len.max(8)];
        p[0] = who;
        p[1..5].copy_from_slice(&i.to_le_bytes());
        p
    }

    fn check_stamped(payload: &[u8]) -> (u8, u32) {
        let who = payload[0];
        let fill = who ^ (payload.len() as u8);
        let whole = payload[5..].iter().all(|&b| b == fill);
        assert!(whole, "frame of {} bytes arrived torn", payload.len());
        (who, u32::from_le_bytes(payload[1..5].try_into().unwrap()))
    }

    #[test]
    fn concurrent_appenders_and_senders_keep_frames_whole_and_ordered() {
        const SENDERS: u8 = 8;
        const FRAMES: u32 = 5_000;
        let (transports, rxs) = tcp_mesh(2);
        let senders: Vec<_> = (0..SENDERS)
            .map(|who| {
                let t = Arc::clone(&transports[0]);
                std::thread::spawn(move || {
                    for i in 0..FRAMES {
                        let len = 8 + (i as usize * 37 + who as usize * 101) % 2_041;
                        let frame = Frame::data(who as u32, 0, stamped(who, i, len));
                        // Odd senders cork and flush now and then, even
                        // ones send; both paths share the one ring.
                        if who % 2 == 1 {
                            t.append(1, frame).unwrap();
                            if i % 17 == 0 {
                                t.flush();
                            }
                        } else {
                            t.send(1, frame).unwrap();
                        }
                    }
                    t.flush();
                })
            })
            .collect();
        let mut next = [0u32; SENDERS as usize];
        let mut last_seq = 0;
        for _ in 0..u32::from(SENDERS) * FRAMES {
            let (_, frame) = rxs[1].recv_timeout(Duration::from_secs(30)).unwrap();
            let (who, i) = check_stamped(&frame.payload);
            assert_eq!(frame.handler, who as u32);
            assert_eq!(i, next[who as usize], "sender {who} out of order");
            next[who as usize] += 1;
            assert!(frame.seq > last_seq, "seq {} after {last_seq}", frame.seq);
            last_seq = frame.seq;
        }
        for s in senders {
            s.join().unwrap();
        }
        assert!(rxs[1].try_recv().is_err(), "a frame arrived twice");
        let c = transports[0].counters();
        assert_eq!(
            count(&c.frames_sent),
            u64::from(SENDERS) * u64::from(FRAMES)
        );
        assert!(
            count(&c.socket_writes) < count(&c.frames_sent),
            "nothing batched"
        );
        for t in &transports {
            t.shutdown();
        }
    }

    /// A one-directional stream, the receiver never sending data: the
    /// sender's ring stays inside its window whatever the two sides'
    /// relative speed, because every ack the receiver owes goes out
    /// (none is skipped for a busy writer) and an appender that has run
    /// a window ahead waits for them. At the parent of this change the
    /// same stream parked megabytes.
    #[test]
    fn a_one_way_stream_keeps_the_resend_ring_inside_its_window() {
        let (transports, rxs) = tcp_mesh(2);
        let gauge = &transports[0].counters().resend_buffer_bytes;
        let frame_bytes = Frame::data(0, 0, vec![0; 100]).encoded_len() as u64;
        let bound = 2 * (EAGER_ACK_BYTES + FLUSH_BYTES as u64) + frame_bytes;
        assert_eq!(bound, RING_WINDOW_BYTES + frame_bytes);
        let mut deepest = 0;
        for i in 0..100_000u32 {
            transports[0]
                .append(1, Frame::data(i, 0, vec![0; 100]))
                .unwrap();
            deepest = deepest.max(count(gauge));
        }
        transports[0].flush();
        assert!(deepest <= bound, "ring reached {deepest} B, bound {bound}");
        assert!(deepest > FLUSH_BYTES as u64, "nothing was ever corked");
        for i in 0..100_000u32 {
            let (_, frame) = rxs[1].recv_timeout(Duration::from_secs(30)).unwrap();
            assert_eq!(frame.handler, i);
        }
        // The last ack is owed by the monitor tick at the latest.
        await_that("ring drained", || count(gauge) == 0);
        let c = transports[0].counters();
        assert!(count(&c.frames_sent) / count(&c.socket_writes) >= 16);
        for t in &transports {
            t.shutdown();
        }
    }

    /// The bounce again, with everything the one-writer link adds: bytes
    /// appended but unwritten at the moment of the bounce, and a second
    /// sender appending through the outage, the rejoin and the replay —
    /// and with what the batching reader adds: the link goes down while
    /// the receiver's reader is in the middle of a hand-over, frames
    /// decoded and not yet delivered. The watermark names none of them
    /// until they are (rule (ii)), whatever the rejoin's `Hello` reads.
    #[test]
    fn bounce_with_corked_bytes_and_a_concurrent_appender_is_exactly_once() {
        let cfg = NetConfig::builtin()
            .tap(|c| c.heartbeat_interval = Duration::from_millis(400))
            .tap(|c| c.peer_dead_after = Duration::from_millis(2000))
            .tap(|c| c.recover_deadline = Duration::from_millis(2000));
        let gate = Arc::new(Gate::default());
        let (transports, rxs) = tcp_mesh_gated(2, cfg, &gate);
        const ROUNDS: u64 = 6;
        const SIDE: u32 = 20_000;
        let done = Arc::new(AtomicBool::new(false));
        let side = {
            let (t, done, gate) = (
                Arc::clone(&transports[0]),
                Arc::clone(&done),
                Arc::clone(&gate),
            );
            std::thread::spawn(move || {
                let mut i = 0;
                while i < SIDE && !done.load(Ordering::Relaxed) {
                    // Not while a reader is being stopped: once it has,
                    // nothing is acked, and a ring this sender filled
                    // would make the frames that stop it wait.
                    if gate.shut.load(Ordering::Acquire) && !gate.held.load(Ordering::Acquire) {
                        std::thread::yield_now();
                        continue;
                    }
                    t.append(1, Frame::data(1, 0, stamped(1, i, 8 + i as usize % 100)))
                        .unwrap();
                    i += 1;
                }
                t.flush();
                i
            })
        };
        let mut sent = 0u32;
        let mut next = [0u32; 2];
        let mut last_seq = 0;
        let mut take_main = |upto: u32| {
            while next[0] < upto {
                let (_, frame) = rxs[1]
                    .recv_timeout(Duration::from_secs(30))
                    .expect("frame lost across bounce");
                let (who, i) = check_stamped(&frame.payload);
                assert_eq!(i, next[who as usize], "sender {who}: loss or duplication");
                next[who as usize] += 1;
                assert!(frame.seq > last_seq, "seq {} after {last_seq}", frame.seq);
                last_seq = frame.seq;
            }
        };
        for round in 0..ROUNDS {
            for _ in 0..4 {
                let frame = Frame::data(0, 0, stamped(0, sent, 64));
                transports[0].send(1, frame).unwrap();
                sent += 1;
            }
            take_main(sent);
            // Corked, so unwritten when the link goes down...
            let frame = Frame::data(0, 0, stamped(0, sent, 64));
            transports[0].append(1, frame).unwrap();
            sent += 1;
            // ...which it does with the receiver's reader stopped in the
            // middle of handing over a batch: pairs of frames in one
            // write until one such batch reaches the sink — put only
            // into a ring with room, since nothing is acked once the
            // reader has stopped and a full window would make them wait.
            gate.shut.store(true, Ordering::Release);
            while !gate.held.load(Ordering::Acquire) {
                if count(&transports[0].counters().resend_buffer_bytes) > RING_WINDOW_BYTES / 2 {
                    std::thread::yield_now();
                    continue;
                }
                for flush in [false, true] {
                    let frame = Frame::data(0, 0, stamped(0, sent, 64));
                    transports[0].put(1, frame, flush).unwrap();
                    sent += 1;
                }
                assert!(sent < 100_000, "no batch of two ever reached the sink");
            }
            transports[1].drop_connections();
            // ...and sent into the outage (or onto the dying socket).
            for _ in 0..2 {
                let frame = Frame::data(0, 0, stamped(0, sent, 64));
                transports[0].send(1, frame).unwrap();
                sent += 1;
            }
            // The reader finishes its hand-over on a connection that is
            // gone, while the rejoin waits to join it.
            gate.held.store(false, Ordering::Release);
            gate.shut.store(false, Ordering::Release);
            await_that("rejoin", || {
                count(&transports[1].counters().rejoins) > round
            });
            take_main(sent);
        }
        done.store(true, Ordering::Relaxed);
        let side_sent = side.join().unwrap();
        // Drain the second sender's tail.
        while next[1] < side_sent {
            let (_, frame) = rxs[1].recv_timeout(Duration::from_secs(30)).unwrap();
            let (who, i) = check_stamped(&frame.payload);
            assert_eq!((who, i), (1, next[1]), "second sender: loss or duplication");
            next[1] += 1;
            assert!(frame.seq > last_seq);
            last_seq = frame.seq;
        }
        assert_eq!(next, [sent, side_sent]);
        assert!(rxs[1].try_recv().is_err(), "duplicate frame delivered");
        let (c0, c1) = (transports[0].counters(), transports[1].counters());
        assert!(count(&c0.rejoins) >= ROUNDS && count(&c1.rejoins) >= ROUNDS);
        assert!(count(&c0.frames_replayed) >= ROUNDS, "corked frames replay");
        assert_eq!(count(&c0.peers_lost) + count(&c1.peers_lost), 0);
        for t in &transports {
            t.shutdown();
        }
    }

    /// A fault-injected slow link slows its frames, not its senders:
    /// the thread that holds the write role sleeps the delay out once
    /// per frame, and whoever appends meanwhile leaves at once. (That
    /// the cluster's slow-link detector still fires on such a link is
    /// `ttg-bench wire --delay-ms 100`, CI's `wire-smoke`.)
    #[test]
    fn a_delayed_link_never_makes_a_second_sender_wait() {
        const DELAY: Duration = Duration::from_millis(100);
        let (transports, rxs) = tcp_mesh(2);
        assert!(transports[0].set_link_delay(1, DELAY));
        let started = Instant::now();
        let holder = {
            let t = Arc::clone(&transports[0]);
            std::thread::spawn(move || t.send(1, Frame::data(0, 0, vec![0])).unwrap())
        };
        await_that("a write in progress", || {
            transports[0].shared.slot(1).unwrap().link.lock().writing
        });
        // The best of five: a pre-empted attempt is not a blocked one.
        let quickest = (1..=5u32)
            .map(|i| {
                let t0 = Instant::now();
                transports[0].append(1, Frame::data(i, 0, vec![0])).unwrap();
                t0.elapsed()
            })
            .min()
            .unwrap();
        assert!(
            quickest < Duration::from_millis(1),
            "append took {quickest:?}"
        );
        transports[0].flush();
        holder.join().unwrap();
        for i in 0..=5u32 {
            let (_, frame) = rxs[1].recv_timeout(Duration::from_secs(30)).unwrap();
            assert_eq!(frame.handler, i, "delayed frames stay in order");
        }
        assert!(started.elapsed() >= DELAY * 6, "each frame pays the delay");
        for t in &transports {
            t.shutdown();
        }
    }

    /// The delayed path writes frame by frame, and a large frame — a
    /// prefix and the sender's payload buffer in the ring — is one
    /// frame: written whole after one delay, between its neighbours.
    #[test]
    fn a_delayed_link_writes_a_large_frame_whole() {
        const DELAY: Duration = Duration::from_millis(20);
        let (transports, rxs) = tcp_mesh(2);
        assert!(transports[0].set_link_delay(1, DELAY));
        let big: Vec<u8> = (0..CHUNK_BYTES * 4).map(|i| (i % 251) as u8).collect();
        let started = Instant::now();
        transports[0]
            .append(1, Frame::data(0, 0, vec![1; 10]))
            .unwrap();
        transports[0]
            .append(1, Frame::data(1, 0, big.clone()))
            .unwrap();
        transports[0]
            .send(1, Frame::data(2, 0, vec![2; 10]))
            .unwrap();
        for (i, want) in [vec![1; 10], big, vec![2; 10]].into_iter().enumerate() {
            let (_, frame) = rxs[1].recv_timeout(Duration::from_secs(30)).unwrap();
            assert_eq!(frame.handler, i as u32, "in order");
            assert!(frame.payload == want, "frame {i} arrived damaged");
        }
        assert!(started.elapsed() >= DELAY * 3, "each frame pays the delay");
        for t in &transports {
            t.shutdown();
        }
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
