//! Simulated multi-process execution.
//!
//! The paper's evaluation is shared-memory, but TTG's defining property
//! is that the same program "seamlessly scales from a single node to
//! distributed execution" via PaRSEC's communication infrastructure
//! (active messages) and the 4-counter wave termination detection.
//!
//! [`ProcessGroup`] reproduces that structure in one address space: P
//! runtimes ("processes"), each with its own scheduler, termination
//! counters, and worker pool, exchanging **active messages**. A message
//! is a task insertion: the sender counts it (`message_sent`), builds
//! the task it will run as — a [`ClosureTask`] for a closure, a pooled
//! `MsgTask` for a handler id and payload, exactly what `ttg-net`
//! builds from a frame — and inserts it into the destination's
//! injection queue, counted there as discovered and then received
//! (`Inner::insert_arrivals`). There is no channel, no inbox and no
//! second queue: from that moment the message is a pending task of the
//! destination, so the wave cannot balance before its handler has run.

use crate::runtime::{Arrival, Inner, Runtime, RuntimeConfig};
use crate::task::ClosureTask;
use crate::worker::WorkerCtx;
use std::iter::once;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Weak};
use ttg_sched::Priority;
use ttg_termdet::WaveBoard;

/// Routes a closure active message from `src` to rank `dst` (in-memory
/// process groups only; closures cannot cross process boundaries).
pub(crate) fn send_remote_from(
    src: &Inner,
    dst: usize,
    priority: Priority,
    job: Box<dyn FnOnce(&mut WorkerCtx<'_>) + Send>,
    span: u64,
) {
    let peers = src
        .peers
        .get()
        .expect("send_remote requires ProcessGroup membership");
    let task = ClosureTask::allocate(priority, job);
    // SAFETY: freshly allocated, exclusively owned.
    let header = unsafe { task.0.as_ref() };
    header.stamp_span(span);
    if dst == src.rank {
        // Local "message": execute as an ordinary injected task; the wave
        // only counts *inter*-process messages.
        src.term.task_discovered(None);
        src.inject(task);
        return;
    }
    let peer = peers[dst]
        .upgrade()
        .expect("destination process already shut down");
    header.stamp_ready(peer.arrival_ns());
    // A latched (terminated) wave means this send opens a new session.
    src.maybe_new_session();
    // Count the send *before* the message becomes receivable.
    src.term.message_sent();
    src.comm.messages_sent.fetch_add(1, Ordering::Relaxed);
    peer.insert_arrivals(1, 0, once(task));
}

/// Routes a framed (serialized) active message from `src` to rank `dst`,
/// over whichever medium this runtime is connected to: the in-memory
/// peer table of a [`ProcessGroup`], or a bound network transport.
pub(crate) fn send_msg_from(
    src: &Inner,
    dst: usize,
    priority: Priority,
    handler: u32,
    payload: Vec<u8>,
    span: u64,
) {
    let len = payload.len();
    let message = |payload| Arrival {
        handler,
        priority,
        payload,
        span,
    };
    if dst == src.rank {
        // Local delivery: execute the handler as an ordinary injected
        // task; no inter-process message accounting. An unknown id is
        // the caller's bug here, not a peer's.
        let task = src
            .message_task(&src.handlers.read(), message(payload), src.arrival_ns())
            .unwrap_or_else(|| panic!("no message handler registered with id {handler}"));
        src.term.task_discovered(None);
        src.inject(task);
        return;
    }
    src.maybe_new_session();
    if let Some(peers) = src.peers.get() {
        let peer = peers[dst]
            .upgrade()
            .expect("destination process already shut down");
        // Count the send *before* the message becomes receivable.
        src.term.message_sent();
        src.comm.messages_sent.fetch_add(1, Ordering::Relaxed);
        src.comm.bytes_sent.fetch_add(len as u64, Ordering::Relaxed);
        // Flow events: the sender assigns the frame sequence and hands it
        // to the receiver directly (shared address space), so send/recv
        // pair up exactly in the merged trace.
        let now_ns = match (&src.obs, &peer.obs) {
            (None, None) => 0,
            _ => ttg_sync::clock::now_ns(),
        };
        if let Some(obs) = src.obs.as_deref() {
            let seq = obs.record_net_send(dst, len, now_ns, span);
            if let Some(peer_obs) = peer.obs.as_deref() {
                peer_obs.record_net_recv(src.rank, len, now_ns, Some(seq), span);
            }
        }
        let task = peer.message_task(&peer.handlers.read(), message(payload), now_ns);
        peer.insert_arrivals(1, len as u64, task.into_iter());
    } else if let Some(out) = src.frame_out.get() {
        // Count the send *before* the frame can possibly be received.
        src.term.message_sent();
        src.comm.messages_sent.fetch_add(1, Ordering::Relaxed);
        src.comm.bytes_sent.fetch_add(len as u64, Ordering::Relaxed);
        if let Some(obs) = src.obs.as_deref() {
            // The receiving rank derives the matching sequence from
            // per-peer arrival order (TCP delivers in order per peer).
            obs.record_net_send(dst, len, ttg_sync::clock::now_ns(), span);
        }
        if let Err(e) = out.send_data(dst, handler, priority, payload, span) {
            // The frame never left, but `message_sent` was already
            // counted: the wave can no longer balance. Record the typed
            // error and abort the epoch instead of hanging in wait().
            src.fail_send(dst, &e);
        }
    } else {
        panic!("send_msg requires ProcessGroup membership or a bound transport");
    }
}

/// A set of in-process "processes" sharing one termination wave.
///
/// # Examples
///
/// ```
/// use ttg_runtime::{ProcessGroup, RuntimeConfig};
/// use std::sync::atomic::{AtomicUsize, Ordering};
/// use std::sync::Arc;
///
/// let group = ProcessGroup::new(3, |_rank| RuntimeConfig::optimized(1));
/// let hits = Arc::new(AtomicUsize::new(0));
/// let h = Arc::clone(&hits);
/// // Rank 0 sends an active message to rank 2.
/// group.runtime(0).send_remote(2, 0, move |ctx| {
///     assert_eq!(ctx.rank(), 2);
///     h.fetch_add(1, Ordering::Relaxed);
/// });
/// group.wait();
/// assert_eq!(hits.load(Ordering::Relaxed), 1);
/// ```
pub struct ProcessGroup {
    procs: Vec<Arc<Runtime>>,
    wave: Arc<WaveBoard>,
}

impl ProcessGroup {
    /// Spawns `nprocs` runtimes configured by `config_for(rank)`.
    pub fn new(nprocs: usize, config_for: impl Fn(usize) -> RuntimeConfig) -> Self {
        let nprocs = nprocs.max(1);
        let wave = Arc::new(WaveBoard::new(nprocs));
        let procs: Vec<Arc<Runtime>> = (0..nprocs)
            .map(|rank| {
                Arc::new(Runtime::with_wave(
                    config_for(rank),
                    Arc::clone(&wave) as Arc<dyn ttg_termdet::TermWave>,
                    rank,
                    false,
                ))
            })
            .collect();
        let weak: Vec<Weak<Inner>> = procs.iter().map(|r| Arc::downgrade(r.inner())).collect();
        for r in &procs {
            r.inner().peers.set(weak.clone()).expect("peers set twice");
        }
        ProcessGroup { procs, wave }
    }

    /// Number of processes.
    pub fn nprocs(&self) -> usize {
        self.procs.len()
    }

    /// Access to the runtime of `rank`.
    pub fn runtime(&self, rank: usize) -> &Runtime {
        &self.procs[rank]
    }

    /// Shared handle to the runtime of `rank` (e.g. for binding TTG
    /// graphs to group members).
    pub fn runtime_arc(&self, rank: usize) -> Arc<Runtime> {
        Arc::clone(&self.procs[rank])
    }

    /// Blocks until *global* termination: all tasks on all processes
    /// executed and no message in flight. Resets the wave for reuse.
    pub fn wait(&self) {
        for r in &self.procs {
            r.wait();
        }
        self.wave.reset();
    }
}

impl std::fmt::Debug for ProcessGroup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProcessGroup")
            .field("nprocs", &self.procs.len())
            .finish_non_exhaustive()
    }
}
