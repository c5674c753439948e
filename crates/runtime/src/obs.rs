//! The runtime's recorders: what the task and message paths write when
//! observability is on.
//!
//! * [`ring`] — worker-owned fixed-capacity event rings (task
//!   executions, steals, parks, slow pushes, wave contributions, pool
//!   refills, network frames). Recording is plain `Cell` stores — the
//!   same single-writer discipline as the runtime's `WorkerStatsCell`.
//! * [`hist`] — power-of-two latency histograms, mergeable across
//!   workers and ranks.
//! * [`spans`] — the request-scoped span word a task header and a
//!   frame carry, and the ambient span external seeding threads set.
//! * [`wire`] — the transport's per-stage and per-link recorder.
//!
//! [`Obs`] bundles the per-worker state for one runtime instance. The
//! runtime holds `Option<Arc<Obs>>`: `None` (the default) costs one
//! pointer load and branch per hook site, keeping overhead opt-in.
//! Everything that reads these records and renders them — Chrome
//! traces, metrics, HTTP, the cluster view — lives in `ttg-obs`.

pub mod hist;
pub mod ring;
pub mod spans;
pub mod wire;

pub use hist::{HistogramSnapshot, LatencyHistogram, SharedHistogram, HIST_BUCKETS};
pub use ring::{Event, EventKind, EventRing};
pub use spans::SpanCell;
pub use wire::{LinkSnapshot, WireObs, WireSnapshot};

use parking_lot::Mutex;
use std::cell::Cell;
use std::time::{SystemTime, UNIX_EPOCH};
use ttg_sync::clock::now_ns;
use ttg_sync::{CachePadded, OBS};

/// Knobs for one [`Obs`] instance.
#[derive(Debug, Clone, Copy)]
pub struct ObsConfig {
    /// This process's rank (becomes the trace `pid`).
    pub rank: usize,
    /// Number of worker threads (one ring + histogram set each).
    pub workers: usize,
    /// Record timeline events into the rings.
    pub events: bool,
    /// Record latency histograms.
    pub histograms: bool,
    /// Per-worker ring capacity in events.
    pub ring_capacity: usize,
}

/// Per-worker observability state. Single writer: the owning worker.
pub struct WorkerObs {
    /// Timeline events.
    pub ring: EventRing,
    /// Task body execution time.
    pub task_duration: LatencyHistogram,
    /// Schedule-to-execution-start delay.
    pub ready_delay: LatencyHistogram,
    /// A framed message's wait from its insertion as a ready task to
    /// the start of its handler (receiver clock only).
    pub message_latency: LatencyHistogram,
    /// Last wave round a contribution event was recorded for
    /// (deduplicates the idle loop's once-per-spin contributions).
    last_round: Cell<u64>,
    /// Last sampled counter values, for change-only counter tracks.
    last_queue_depth: Cell<u64>,
    last_inbox_depth: Cell<u64>,
    last_overflow_depth: Cell<u64>,
}

// SAFETY: same single-writer/racy-reader contract as the fields within.
unsafe impl Sync for WorkerObs {}

impl WorkerObs {
    fn new(ring_capacity: usize) -> Self {
        WorkerObs {
            ring: EventRing::new(ring_capacity),
            task_duration: LatencyHistogram::new(),
            ready_delay: LatencyHistogram::new(),
            message_latency: LatencyHistogram::new(),
            last_round: Cell::new(u64::MAX),
            last_queue_depth: Cell::new(u64::MAX),
            last_inbox_depth: Cell::new(u64::MAX),
            last_overflow_depth: Cell::new(u64::MAX),
        }
    }
}

/// State shared by non-worker threads (transport readers, app threads
/// sending messages): a mutex-guarded ring plus the per-peer frame
/// sequence counters that align send/recv flow events across ranks.
struct AuxState {
    ring: EventRing,
    /// `send_seq[dst]`: data frames sent to `dst` so far.
    send_seq: Vec<u64>,
    /// `recv_seq[src]`: data frames received from `src` so far.
    recv_seq: Vec<u64>,
}

/// Observability state for one runtime instance (one rank).
pub struct Obs {
    rank: usize,
    events_on: bool,
    hist_on: bool,
    workers: Box<[CachePadded<WorkerObs>]>,
    aux: Mutex<AuxState>,
    /// Wall-clock unix ns at the moment the local trace epoch's origin
    /// (`now_ns() == 0`) occurred; aligns ranks on one timeline.
    wall_anchor_ns: u64,
}

/// How long a gap between park episodes may be while still merging them
/// into one ring event (keeps pathological park/wake churn from
/// flooding the ring).
const PARK_COALESCE_GAP_NS: u64 = 100_000;

impl Obs {
    /// Builds observability state per `cfg`.
    pub fn new(cfg: ObsConfig) -> Self {
        let workers = (0..cfg.workers.max(1))
            .map(|_| CachePadded::new(WorkerObs::new(cfg.ring_capacity)))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        let wall_now = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        Obs {
            rank: cfg.rank,
            events_on: cfg.events,
            hist_on: cfg.histograms,
            workers,
            aux: Mutex::new(AuxState {
                ring: EventRing::new(cfg.ring_capacity),
                send_seq: Vec::new(),
                recv_seq: Vec::new(),
            }),
            // now_ns() is ns since a process-wide Instant epoch; the
            // epoch's wall time is wall_now minus the ns elapsed since.
            wall_anchor_ns: wall_now.saturating_sub(now_ns()),
        }
    }

    /// Rank (trace `pid`).
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Worker lanes tracked.
    pub fn nworkers(&self) -> usize {
        self.workers.len()
    }

    /// Whether timeline events are recorded.
    #[inline]
    pub fn events_enabled(&self) -> bool {
        self.events_on
    }

    /// Whether latency histograms are recorded.
    #[inline]
    pub fn histograms_enabled(&self) -> bool {
        self.hist_on
    }

    /// Wall-clock unix ns of the local trace origin.
    pub fn wall_anchor_ns(&self) -> u64 {
        self.wall_anchor_ns
    }

    /// The `tid` used for events from non-worker threads.
    pub fn aux_tid(&self) -> u32 {
        self.workers.len() as u32
    }

    fn worker(&self, id: usize) -> &WorkerObs {
        &self.workers[id.min(self.workers.len() - 1)]
    }

    // --- worker-thread recording (single-writer fast paths) ---

    /// Whether request-scoped span recording is live: `obs` is
    /// compiled in *and* timeline events are on. Callers use this to
    /// decide whether stamping span context (and ready times for
    /// queue-wait attribution) is worth the stores.
    #[inline]
    pub fn spans_enabled(&self) -> bool {
        OBS && self.events_on
    }

    /// Records a task execution: timeline slice plus duration and
    /// ready-delay histograms. `ready_ns == 0` means the enqueue time
    /// was not stamped (histograms off at schedule time). `span` is the
    /// request-scoped span context (0 = unattributed); with `obs`
    /// compiled in, the Task event additionally carries the queue wait
    /// (ready→start) in `arg0` so span assembly can split queue from
    /// execute time without the histograms.
    #[inline]
    pub fn record_task(
        &self,
        worker: usize,
        name: &'static str,
        ready_ns: u64,
        start_ns: u64,
        end_ns: u64,
        span: u64,
    ) {
        let w = self.worker(worker);
        if self.events_on {
            let queue_ns = if OBS && ready_ns != 0 {
                start_ns.saturating_sub(ready_ns)
            } else {
                0
            };
            w.ring.push(Event {
                kind: EventKind::Task,
                name,
                tid: worker as u32,
                ts_ns: start_ns,
                dur_ns: end_ns.saturating_sub(start_ns),
                arg0: queue_ns,
                arg1: 0,
                span: if OBS { span } else { 0 },
            });
        }
        if self.hist_on {
            w.task_duration.record(end_ns.saturating_sub(start_ns));
            if ready_ns != 0 {
                w.ready_delay.record(start_ns.saturating_sub(ready_ns));
            }
        }
    }

    /// Records a successful steal from `victim`'s queue.
    #[inline]
    pub fn record_steal(&self, worker: usize, victim: usize, ts_ns: u64) {
        if !self.events_on {
            return;
        }
        self.worker(worker).ring.push(Event {
            kind: EventKind::Steal,
            name: "",
            tid: worker as u32,
            ts_ns,
            dur_ns: 0,
            arg0: victim as u64,
            arg1: 0,
            span: 0,
        });
    }

    /// Records a detach-merge slow push.
    #[inline]
    pub fn record_slow_push(&self, worker: usize, ts_ns: u64) {
        if !self.events_on {
            return;
        }
        self.worker(worker).ring.push(Event {
            kind: EventKind::SlowPush,
            name: "",
            tid: worker as u32,
            ts_ns,
            dur_ns: 0,
            arg0: 0,
            arg1: 0,
            span: 0,
        });
    }

    /// Records a park episode, coalescing with an immediately preceding
    /// park so an idle worker's park/wake churn compresses into one
    /// growing event instead of flooding the ring.
    pub fn record_park(&self, worker: usize, start_ns: u64, dur_ns: u64) {
        if !self.events_on {
            return;
        }
        let ring = &self.worker(worker).ring;
        if let Some(mut last) = ring.peek_last() {
            if last.kind == EventKind::Park
                && start_ns.saturating_sub(last.ts_ns + last.dur_ns) <= PARK_COALESCE_GAP_NS
            {
                last.dur_ns = (start_ns + dur_ns).saturating_sub(last.ts_ns);
                ring.replace_last(last);
                return;
            }
        }
        ring.push(Event {
            kind: EventKind::Park,
            name: "",
            tid: worker as u32,
            ts_ns: start_ns,
            dur_ns,
            arg0: 0,
            arg1: 0,
            span: 0,
        });
    }

    /// Records a termination-wave contribution, once per round change.
    pub fn record_contribution(&self, worker: usize, round: u64, ts_ns: u64) {
        if !self.events_on {
            return;
        }
        let w = self.worker(worker);
        if w.last_round.get() == round {
            return;
        }
        w.last_round.set(round);
        w.ring.push(Event {
            kind: EventKind::Contribution,
            name: "",
            tid: worker as u32,
            ts_ns,
            dur_ns: 0,
            arg0: round,
            arg1: 0,
            span: 0,
        });
    }

    /// Samples the scheduler queue-depth, inbox-backlog (the injection
    /// queue's depth: messages and other tasks inserted from outside,
    /// not yet drained), and overflow-FIFO counter tracks; emits only on change so idle loops
    /// don't flood the ring. `overflow_depth` is the global-FIFO backlog of
    /// LFQ-style schedulers (always 0 for LL/LLP, whose default
    /// `overflow_depth` is 0 — the track then never emits past the
    /// initial sample).
    pub fn sample_depths(
        &self,
        worker: usize,
        queue_depth: u64,
        inbox_depth: u64,
        overflow_depth: u64,
        ts_ns: u64,
    ) {
        if !self.events_on {
            return;
        }
        let w = self.worker(worker);
        let track = |last: &Cell<u64>, name: &'static str, value: u64| {
            if last.get() != value {
                last.set(value);
                w.ring.push(Event {
                    kind: EventKind::Counter,
                    name,
                    tid: worker as u32,
                    ts_ns,
                    dur_ns: 0,
                    arg0: value,
                    arg1: 0,
                    span: 0,
                });
            }
        };
        track(&w.last_queue_depth, "queue_depth", queue_depth);
        track(&w.last_inbox_depth, "inbox_backlog", inbox_depth);
        track(&w.last_overflow_depth, "overflow_depth", overflow_depth);
    }

    /// Records a framed message's wait from insertion to the start of
    /// its handler (receiver clock).
    #[inline]
    pub fn record_message_latency(&self, worker: usize, wait_ns: u64) {
        if self.hist_on {
            self.worker(worker).message_latency.record(wait_ns);
        }
    }

    // --- shared-thread recording (aux ring, mutex-guarded) ---

    /// Records a data-frame send to `dst`, assigning the next
    /// per-(self, dst) sequence number. `span` is the sending request's
    /// span context (0 = unattributed).
    pub fn record_net_send(&self, dst: usize, bytes: usize, ts_ns: u64, span: u64) {
        let mut aux = self.aux.lock();
        if aux.send_seq.len() <= dst {
            aux.send_seq.resize(dst + 1, 0);
        }
        let seq = aux.send_seq[dst];
        aux.send_seq[dst] = seq + 1;
        if self.events_on {
            let tid = self.aux_tid();
            aux.ring.push(Event {
                kind: EventKind::NetSend,
                name: "",
                tid,
                ts_ns,
                dur_ns: bytes as u64,
                arg0: dst as u64,
                arg1: seq,
                span: if OBS { span } else { 0 },
            });
        }
    }

    /// Records a data-frame receive from `src`. Its sequence number is
    /// derived from arrival order, which matches the sender's — valid
    /// because both transports deliver per-peer in order (TCP: one
    /// reader thread per peer; local: synchronous). Concurrent senders
    /// *on one rank* can still reorder between sequence assignment and
    /// the wire, so flows are best-effort diagnostics, not accounting.
    pub fn record_net_recv(&self, src: usize, bytes: usize, ts_ns: u64, span: u64) {
        let mut aux = self.aux.lock();
        if aux.recv_seq.len() <= src {
            aux.recv_seq.resize(src + 1, 0);
        }
        let seq = aux.recv_seq[src];
        aux.recv_seq[src] = seq + 1;
        if self.events_on {
            let tid = self.aux_tid();
            aux.ring.push(Event {
                kind: EventKind::NetRecv,
                name: "",
                tid,
                ts_ns,
                dur_ns: bytes as u64,
                arg0: src as u64,
                arg1: seq,
                span: if OBS { span } else { 0 },
            });
        }
    }

    /// Records mempool refills (fresh allocations because a free list
    /// ran dry), coalescing bursts into one event.
    pub fn record_pool_refill(&self, count: u64, ts_ns: u64) {
        if !self.events_on {
            return;
        }
        let aux = self.aux.lock();
        if let Some(mut last) = aux.ring.peek_last() {
            if last.kind == EventKind::PoolRefill
                && ts_ns.saturating_sub(last.ts_ns) <= PARK_COALESCE_GAP_NS
            {
                last.arg0 += count;
                aux.ring.replace_last(last);
                return;
            }
        }
        let tid = self.aux_tid();
        aux.ring.push(Event {
            kind: EventKind::PoolRefill,
            name: "",
            tid,
            ts_ns,
            dur_ns: 0,
            arg0: count,
            arg1: 0,
            span: 0,
        });
    }

    // --- draining / aggregation ---

    /// Cumulative events lost to ring overwrite across all rings.
    pub fn events_dropped(&self) -> u64 {
        let aux_dropped = self.aux.lock().ring.dropped();
        self.workers.iter().map(|w| w.ring.dropped()).sum::<u64>() + aux_dropped
    }

    /// Drains every ring and returns all events sorted by timestamp.
    ///
    /// Quiescence requirement: workers must be fenced (idle, nothing
    /// queued) or events recorded during the drain are lost; see
    /// [`crate::Runtime::take_events`], which fences before calling this.
    pub fn drain_events(&self) -> Vec<Event> {
        let mut all = Vec::new();
        for w in self.workers.iter() {
            all.extend(w.ring.drain());
        }
        all.extend(self.aux.lock().ring.drain());
        all.sort_by_key(|e| e.ts_ns);
        all
    }

    /// Copies every ring's live window without consuming it, sorted by
    /// timestamp — the read-only sibling of [`Obs::drain_events`].
    ///
    /// No quiescence required: workers may keep recording while the
    /// copy runs (a slot overwritten mid-copy can come back torn, which
    /// the monitoring use-case accepts), and the eventual quiescent
    /// drain still sees everything. This is what the live `/trace`
    /// endpoint and the crash flight recorder use, so serving a request
    /// never steals events from the end-of-run export.
    pub fn peek_events(&self) -> Vec<Event> {
        let mut all = Vec::new();
        for w in self.workers.iter() {
            all.extend(w.ring.peek());
        }
        all.extend(self.aux.lock().ring.peek());
        all.sort_by_key(|e| e.ts_ns);
        all
    }

    /// Merged task-duration histogram across workers.
    pub fn task_duration(&self) -> HistogramSnapshot {
        self.merged(|w| &w.task_duration)
    }

    /// Merged ready-delay histogram across workers.
    pub fn ready_delay(&self) -> HistogramSnapshot {
        self.merged(|w| &w.ready_delay)
    }

    /// Merged message-latency histogram across workers.
    pub fn message_latency(&self) -> HistogramSnapshot {
        self.merged(|w| &w.message_latency)
    }

    fn merged(&self, f: impl Fn(&WorkerObs) -> &LatencyHistogram) -> HistogramSnapshot {
        let mut out = HistogramSnapshot::empty();
        for w in self.workers.iter() {
            out.merge(&f(w).snapshot());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(events: bool, hist: bool) -> Obs {
        Obs::new(ObsConfig {
            rank: 0,
            workers: 2,
            events,
            histograms: hist,
            ring_capacity: 64,
        })
    }

    #[test]
    fn disabled_obs_records_nothing() {
        let o = obs(false, false);
        o.record_task(0, "t", 0, 10, 20, 0);
        o.record_steal(0, 1, 30);
        o.record_park(1, 40, 5);
        assert!(o.drain_events().is_empty());
        assert_eq!(o.task_duration().count(), 0);
    }

    #[test]
    fn park_events_coalesce() {
        let o = obs(true, false);
        o.record_park(0, 1_000, 500);
        o.record_park(0, 1_600, 400); // gap 100ns < threshold → merge
        o.record_park(0, 5_000_000, 100); // far away → new event
        let evs = o.drain_events();
        let parks: Vec<_> = evs.iter().filter(|e| e.kind == EventKind::Park).collect();
        assert_eq!(parks.len(), 2);
        assert_eq!(parks[0].ts_ns, 1_000);
        assert_eq!(parks[0].dur_ns, 1_000); // 1_000..2_000
    }

    #[test]
    fn contributions_dedupe_by_round() {
        let o = obs(true, false);
        for _ in 0..100 {
            o.record_contribution(0, 1, 10);
        }
        o.record_contribution(0, 2, 20);
        let evs = o.drain_events();
        assert_eq!(
            evs.iter()
                .filter(|e| e.kind == EventKind::Contribution)
                .count(),
            2
        );
    }

    #[test]
    fn net_seq_aligns_send_and_recv() {
        let sender = obs(true, false);
        let receiver = obs(true, false);
        for _ in 0..3 {
            sender.record_net_send(1, 64, 100, 0);
            receiver.record_net_recv(0, 64, 200, 0);
        }
        let s_evs = sender.drain_events();
        let r_evs = receiver.drain_events();
        let sends: Vec<u64> = s_evs
            .iter()
            .filter(|e| e.kind == EventKind::NetSend)
            .map(|e| e.arg1)
            .collect();
        let recvs: Vec<u64> = r_evs
            .iter()
            .filter(|e| e.kind == EventKind::NetRecv)
            .map(|e| e.arg1)
            .collect();
        assert_eq!(sends, vec![0, 1, 2]);
        assert_eq!(recvs, sends);
    }

    #[test]
    fn derived_recv_seq_counts_arrivals() {
        let o = obs(true, false);
        o.record_net_recv(2, 8, 10, 0);
        o.record_net_recv(2, 8, 20, 0);
        let evs = o.drain_events();
        let seqs: Vec<u64> = evs
            .iter()
            .filter(|e| e.kind == EventKind::NetRecv)
            .map(|e| e.arg1)
            .collect();
        assert_eq!(seqs, vec![0, 1]);
    }

    #[test]
    fn peek_events_is_non_draining() {
        let o = obs(true, false);
        o.record_task(0, "t", 0, 10, 20, 0);
        o.record_steal(1, 0, 30);
        o.record_net_send(1, 64, 40, 0);
        let peeked = o.peek_events();
        assert_eq!(peeked.len(), 3);
        // Timestamps sorted across worker and aux rings.
        assert!(peeked.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
        // The drain still returns the full set afterwards.
        assert_eq!(o.peek_events().len(), 3);
        assert_eq!(o.drain_events().len(), 3);
        assert!(o.peek_events().is_empty());
    }

    #[test]
    fn dropped_events_surface() {
        let o = Obs::new(ObsConfig {
            rank: 0,
            workers: 1,
            events: true,
            histograms: false,
            ring_capacity: 4,
        });
        for i in 0..10 {
            o.record_steal(0, 0, i);
        }
        assert_eq!(o.events_dropped(), 6);
        assert_eq!(o.drain_events().len(), 4);
    }
}
