//! Per-worker execution statistics.
//!
//! Counters are plain `Cell`s owned by their worker thread (no atomics on
//! the hot path — the same discipline as the thread-local termination
//! counters) and are aggregated on demand by the benchmark harness.

use std::cell::Cell;
use std::sync::atomic::AtomicU64;
use ttg_sched::QueueStats;
use ttg_sync::CachePadded;

/// Inter-process communication counters, shared between worker threads,
/// the sending application thread, and transport receiver threads —
/// hence atomics, unlike [`WorkerStatsCell`]. Updated once per message
/// sent and once per batch received, never on the task hot path.
#[derive(Debug, Default)]
pub(crate) struct CommCounters {
    /// Active messages sent to other ranks (closure or framed).
    pub messages_sent: AtomicU64,
    /// Active messages inserted into this rank's injection queue.
    pub messages_received: AtomicU64,
    /// Publications of the injection queue that carried them.
    pub insertions: AtomicU64,
    /// Payload bytes shipped to other ranks (framed messages only; the
    /// in-memory closure path serializes nothing).
    pub bytes_sent: AtomicU64,
    /// Payload bytes received from other ranks.
    pub bytes_received: AtomicU64,
}

/// One worker's counters. Only the owning worker writes.
#[derive(Debug, Default)]
pub(crate) struct WorkerStatsCell {
    pub executed: Cell<u64>,
    pub parks: Cell<u64>,
    pub contributions: Cell<u64>,
    pub injections_drained: Cell<u64>,
    pub inlined: Cell<u64>,
}

// SAFETY: written only by the owning worker; racy reads by the aggregator
// are accepted (monotone counters, diagnostics only).
unsafe impl Sync for WorkerStatsCell {}

/// Scheduler load at one instant ([`crate::Runtime::load`]): racy
/// reads for gauges, not accounting.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SchedLoad {
    /// Workers not idle (executing or looking for work).
    pub running: usize,
    /// Tasks queued in the scheduler plus undrained injections.
    pub queued: usize,
    /// Global-FIFO backlog of LFQ-style schedulers (0 for LL/LLP).
    pub overflow_depth: usize,
    /// Each worker's local queue depth, by worker id.
    pub worker_depths: Vec<usize>,
}

/// Aggregated runtime statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct RuntimeStats {
    /// Tasks executed across all workers.
    pub tasks_executed: u64,
    /// Times a worker parked (starved long enough to sleep).
    pub parks: u64,
    /// Termination-wave contributions made.
    pub wave_contributions: u64,
    /// Tasks taken from external injection queues.
    pub injections_drained: u64,
    /// Tasks that ran without a scheduler round-trip: handed by the
    /// task that readied them to its own worker, which would have
    /// popped them next anyway (`WorkerCtx::run_task`).
    pub inlined: u64,
    /// Active messages sent to peer ranks.
    pub messages_sent: u64,
    /// Active messages received from peer ranks.
    pub messages_received: u64,
    /// Serialized payload bytes sent to peer ranks (framed messages
    /// only; in-memory closure messages ship no bytes).
    pub bytes_sent: u64,
    /// Serialized payload bytes received from peer ranks.
    pub bytes_received: u64,
    /// Total serialized payload bytes exchanged with peer ranks
    /// (`bytes_sent + bytes_received`), kept for backward compatibility.
    pub bytes_on_wire: u64,
    /// Trace events lost to ring overwrite (non-zero means the
    /// configured `trace_capacity` was too small for the run).
    pub trace_events_dropped: u64,
    /// Frames the transport rejected for failing the integrity check
    /// (CRC mismatch, bad kind, bad length). Zero without a transport.
    pub frames_corrupt: u64,
    /// Liveness probes the transport sent on idle links. Heartbeats are
    /// *not* counted in `bytes_sent`/`messages_sent` — they are
    /// transport-internal, invisible to the wave protocol.
    pub heartbeats_sent: u64,
    /// Peer ranks the transport declared dead.
    pub peers_lost: u64,
    /// Connections the transport successfully re-established.
    pub reconnects: u64,
    /// Session rejoins completed (reconnects whose handshake resumed or
    /// reset a sequenced-frame session).
    pub rejoins: u64,
    /// Unacknowledged sequenced frames re-sent on rejoin.
    pub frames_replayed: u64,
    /// Duplicate sequenced frames suppressed by the receiver.
    pub frames_deduped: u64,
    /// Bytes currently buffered for replay across all peers (a gauge,
    /// not a monotone counter).
    pub resend_buffer_bytes: u64,
    /// Instance scopes currently quarantined by peer loss (a gauge).
    pub instances_quarantined: u64,
    /// Serve instances re-executed after a peer-loss failure.
    pub instances_retried: u64,
    /// Scheduler behaviour counters.
    pub queue: QueueStats,
    /// Lock-contention counters from `ttg-sync` (feature `obs`; all
    /// zero when it is off).
    pub contention: ContentionStats,
}

/// Lock-contention attribution: [`ttg_sync::LockContention`] with a
/// serializable shape (one key per [`ttg_sync::LOCK_FIELDS`] row;
/// `ttg-sync` itself carries no serde). The counters are process-global
/// (the sync primitives cannot know which runtime instance owns a
/// lock), so when several ranks share a process (`NetGroup::local`)
/// every rank reports the same process-wide totals. All zero unless
/// `obs` is enabled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ContentionStats(pub ttg_sync::LockContention);

impl serde::Serialize for ContentionStats {
    fn to_value(&self) -> serde::Value {
        let fields = ttg_sync::LOCK_FIELDS.iter().zip(self.0 .0);
        serde::Value::Object(
            fields
                .map(|(f, v)| (f.field.to_string(), serde::Value::UInt(v)))
                .collect(),
        )
    }
}

/// Resilience counters a bound network transport reports into
/// [`RuntimeStats`] (see `crate::Runtime::set_net_stats_source`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Frames rejected by the integrity check.
    pub frames_corrupt: u64,
    /// Liveness probes sent on idle links.
    pub heartbeats_sent: u64,
    /// Peers declared dead.
    pub peers_lost: u64,
    /// Connections re-established after a drop.
    pub reconnects: u64,
    /// Session rejoins completed.
    pub rejoins: u64,
    /// Unacknowledged sequenced frames re-sent on rejoin.
    pub frames_replayed: u64,
    /// Duplicate sequenced frames suppressed by the receiver.
    pub frames_deduped: u64,
    /// Bytes currently held in resend buffers (gauge).
    pub resend_buffer_bytes: u64,
}

pub(crate) fn new_cells(workers: usize) -> Box<[CachePadded<WorkerStatsCell>]> {
    (0..workers.max(1))
        .map(|_| CachePadded::new(WorkerStatsCell::default()))
        .collect::<Vec<_>>()
        .into_boxed_slice()
}

pub(crate) fn aggregate(cells: &[CachePadded<WorkerStatsCell>], queue: QueueStats) -> RuntimeStats {
    let mut s = RuntimeStats {
        queue,
        ..Default::default()
    };
    for c in cells {
        s.tasks_executed += c.executed.get();
        s.parks += c.parks.get();
        s.wave_contributions += c.contributions.get();
        s.injections_drained += c.injections_drained.get();
        s.inlined += c.inlined.get();
    }
    s
}
