//! The [`Runtime`] handle and its configuration.

use crate::error::RunError;
use crate::stats::{self, CommCounters, NetStats, WorkerStatsCell};
use crate::task::{ClosureTask, MsgTask, RawTask};
use crate::worker::{self, WorkerCtx};
use parking_lot::{Condvar, Mutex, RwLock};
use std::any::{Any, TypeId};
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use ttg_hashtable::LockKind;
use ttg_sched::{Priority, SchedKind, TaskQueue};
use ttg_sync::{CachePadded, OrderingPolicy};
use ttg_termdet::{LocalTermination, TermDetKind, TermWave, WaveBoard};

/// A registered typed-message handler: executes on the destination with
/// the carried payload.
pub(crate) type HandlerFn = dyn Fn(&mut WorkerCtx<'_>, Vec<u8>) + Send + Sync;

/// A peer-liveness transition reported by the bound transport, fanned
/// out to observers registered with [`Runtime::add_recovery_observer`]
/// (the serve engine uses these to quarantine, release, or re-execute
/// the instances a bouncing rank touches).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryEvent {
    /// A peer's connection dropped; it has `peer_dead_after +
    /// recover_deadline` to rejoin before being declared dead.
    PeerRecovering {
        /// The affected peer rank.
        rank: usize,
    },
    /// The peer rejoined within its recovery window.
    PeerRejoined {
        /// The affected peer rank.
        rank: usize,
        /// `true` when the same process reconnected (unacked frames were
        /// replayed; nothing was lost). `false` means the peer
        /// *restarted*: its in-memory state is gone and work that
        /// depended on it must be failed or re-executed.
        same_incarnation: bool,
    },
    /// The recovery window expired; the peer is permanently dead.
    PeerDead {
        /// The affected peer rank.
        rank: usize,
    },
}

/// Callback receiving [`RecoveryEvent`]s. Invoked from transport
/// monitor/reader threads — must not block.
pub type RecoveryObserver = Arc<dyn Fn(RecoveryEvent) + Send + Sync>;

/// Outbound side of a network transport, bound via
/// [`Runtime::set_frame_sender`]. `ttg-net` implements this over sockets;
/// the runtime stays independent of any wire format.
pub trait FrameSender: Send + Sync {
    /// Ships one data message to `dst`. Must be reliable and per-peer
    /// ordered; called after the sender's `message_sent` counter was
    /// incremented. The sender may leave the message *corked* — queued
    /// behind earlier ones, not yet on the wire — until
    /// [`FrameSender::flush`]; the runtime calls that at quiescence
    /// (DESIGN.md §6.5: when the sending task returns, when a worker
    /// goes idle, at every fence).
    fn send_data(
        &self,
        dst: usize,
        handler: u32,
        priority: Priority,
        payload: Vec<u8>,
        span: u64,
    ) -> std::io::Result<()>;

    /// Puts every corked message on the wire. Default: none ever is.
    fn flush(&self) {}
}

/// Configuration of one runtime instance ("process").
///
/// [`RuntimeConfig::original`] reproduces the pre-paper PaRSEC behaviour
/// (LFQ scheduler, process-wide atomic termination counters, plain RW
/// lock on hash tables, sequentially consistent counters);
/// [`RuntimeConfig::optimized`] is the paper's contribution (LLP,
/// thread-local termination detection, BRAVO, relaxed orderings). The
/// Figure 9 ablation toggles the fields individually.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Number of worker threads.
    pub threads: usize,
    /// Scheduler implementation.
    pub scheduler: SchedKind,
    /// Task-accounting scheme for termination detection.
    pub termdet: TermDetKind,
    /// Reader-writer lock used by TTG hash tables built on this runtime.
    pub table_lock: LockKind,
    /// Memory-ordering policy for runtime counters.
    pub ordering: OrderingPolicy,
    /// Record timeline events (task executions, steals, parks, slow
    /// pushes, wave contributions, pool refills, network frames) into
    /// per-worker rings ([`crate::obs`]), retrievable via
    /// [`Runtime::take_events`] and renderable with `ttg-obs`'s
    /// `runtime_trace`. Off by default.
    pub trace: bool,
    /// Record latency histograms (task duration, ready-to-run delay,
    /// message insertion-to-handler wait), read through
    /// [`Runtime::recorder`] (`ttg-obs`'s `runtime_metrics` exports them).
    /// Off by default; independent of `trace`.
    pub histograms: bool,
    /// Per-worker event-ring capacity when `trace` is on. Overflow
    /// overwrites the oldest events and is counted in
    /// `RuntimeStats::trace_events_dropped`.
    pub trace_capacity: usize,
}

/// Default per-worker event-ring capacity (events).
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

impl RuntimeConfig {
    /// The paper's optimized configuration with `threads` workers.
    pub fn optimized(threads: usize) -> Self {
        RuntimeConfig {
            threads,
            scheduler: SchedKind::Llp,
            termdet: TermDetKind::ThreadLocal,
            table_lock: LockKind::Bravo,
            ordering: OrderingPolicy::Relaxed,
            trace: false,
            histograms: false,
            trace_capacity: DEFAULT_TRACE_CAPACITY,
        }
    }

    /// The pre-paper ("original TTG over PaRSEC") configuration.
    pub fn original(threads: usize) -> Self {
        RuntimeConfig {
            threads,
            scheduler: SchedKind::Lfq,
            termdet: TermDetKind::ProcessWide,
            table_lock: LockKind::Plain,
            ordering: OrderingPolicy::SeqCst,
            trace: false,
            histograms: false,
            trace_capacity: DEFAULT_TRACE_CAPACITY,
        }
    }
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self::optimized(threads)
    }
}

thread_local! {
    /// The runtime whose [`Runtime::inject_batch`] scope is open on this
    /// thread (null: none), and the tasks injected under it so far.
    static BATCH_OWNER: Cell<*const Inner> = const { Cell::new(std::ptr::null()) };
    static BATCH: RefCell<Vec<RawTask>> = const { RefCell::new(Vec::new()) };
}

/// Shared state of one runtime instance.
pub(crate) struct Inner {
    pub(crate) config: RuntimeConfig,
    pub(crate) sched: Box<dyn TaskQueue>,
    pub(crate) term: LocalTermination,
    pub(crate) wave: Arc<dyn TermWave>,
    /// This process's rank within its wave.
    pub(crate) rank: usize,
    /// The one external entry point: tasks submitted from outside the
    /// worker pool and active messages from peer processes, as ready
    /// tasks, drained by idle workers.
    pub(crate) injection: Mutex<VecDeque<RawTask>>,
    pub(crate) injection_len: AtomicUsize,
    /// Shells of the framed messages in flight on this runtime.
    pub(crate) msgs: ttg_mempool::FreeListPool<MsgTask>,
    /// Task-object pools by object type ([`Runtime::resident_pool`]).
    pub(crate) pools: Mutex<BTreeMap<TypeId, Arc<dyn Any + Send + Sync>>>,
    /// Outbound network transport (set once when driven by `ttg-net`).
    pub(crate) frame_out: OnceLock<Arc<dyn FrameSender>>,
    /// A thread that is not a worker sent a message since a worker last
    /// flushed `frame_out`: the next worker to go idle flushes again.
    pub(crate) corked: AtomicBool,
    /// First fatal transport failure of the current session (peer
    /// declared dead, send failed); surfaced by [`Runtime::run`].
    pub(crate) run_error: Mutex<Option<RunError>>,
    /// Resilience-counter source installed by the bound transport, so
    /// `stats()` can fold transport counters into [`crate::RuntimeStats`].
    pub(crate) net_stats: OnceLock<Arc<dyn Fn() -> NetStats + Send + Sync>>,
    /// Wire-path telemetry source installed by the bound transport;
    /// `ttg-obs`'s `runtime_metrics` folds its snapshot into the export.
    /// Always present as a field — the snapshot is empty when the
    /// feature is off, so no cfg-gating is needed above the transport.
    pub(crate) wire_stats: OnceLock<Arc<dyn Fn() -> crate::obs::WireSnapshot + Send + Sync>>,
    /// Peers currently inside their recovery window (connection lost,
    /// rejoin pending). Drives the `/healthz` degraded verdict.
    pub(crate) recovering: Mutex<BTreeSet<usize>>,
    /// Fan-out list for peer-liveness transitions.
    pub(crate) recovery_observers: RwLock<Vec<RecoveryObserver>>,
    /// Instance scopes currently quarantined by peer loss — a gauge
    /// maintained by the layer that owns the scopes (ttg-serve).
    pub(crate) instances_quarantined: AtomicU64,
    /// Instances re-executed after a peer-loss failure (ttg-serve).
    pub(crate) instances_retried: AtomicU64,
    /// Typed-message handlers, indexed by registration order (SPMD
    /// programs register identically on every rank so ids agree).
    /// Append-only: a message task points at its handler, which stays
    /// here, and so alive, for as long as the runtime.
    pub(crate) handlers: RwLock<Vec<Arc<HandlerFn>>>,
    /// Inter-process communication counters (stats satellite).
    pub(crate) comm: CommCounters,
    /// Workers currently in the idle phase (SeqCst: quiescence fence).
    pub(crate) idle_count: AtomicUsize,
    pub(crate) shutdown: AtomicBool,
    /// Session-completion flag + condvar for `wait()`.
    pub(crate) session_done: Mutex<bool>,
    pub(crate) session_cv: Condvar,
    /// Sleep coordination for starved workers.
    pub(crate) sleep_lock: Mutex<()>,
    pub(crate) sleep_cv: Condvar,
    pub(crate) sleeper_count: AtomicUsize,
    pub(crate) worker_stats: Box<[CachePadded<WorkerStatsCell>]>,
    /// Present iff `config.trace || config.histograms`. `None` keeps
    /// every hook site at one pointer load and branch.
    pub(crate) obs: Option<Arc<crate::obs::Obs>>,
}

impl Inner {
    /// Wakes parked workers if any are sleeping. Cheap when none are.
    #[inline]
    pub(crate) fn wake_sleepers(&self) {
        if self.sleeper_count.load(Ordering::Relaxed) > 0 {
            self.sleep_cv.notify_all();
        }
    }

    /// Uncorks the bound transport: every message a `send_msg` left
    /// queued goes on the wire.
    pub(crate) fn flush_frames(&self) {
        if let Some(out) = self.frame_out.get() {
            out.flush();
        }
    }

    /// Called by a thread that is not a worker, after it queued a
    /// message or published an ack: hands the flush to the workers.
    /// Only the first request since a worker's last flush pays for the
    /// flag and the wake-up — what an external `inject` pays — the rest
    /// of the batch one load. False when no worker will flush: no
    /// transport is bound, or the workers are stopping.
    pub(crate) fn flush_when_idle(&self) -> bool {
        if self.frame_out.get().is_none() || self.shutdown.load(Ordering::Acquire) {
            return false;
        }
        if !self.corked.load(Ordering::Relaxed) {
            self.corked.store(true, Ordering::SeqCst);
            self.wake_sleepers();
        }
        true
    }

    /// A worker's side of [`Inner::flush_when_idle`]: flushes if a
    /// message was queued from outside since the last time. The flag is
    /// cleared before the flush, so a message queued during it is
    /// flushed again rather than missed.
    #[inline]
    pub(crate) fn flush_if_corked(&self) {
        if self.corked.load(Ordering::Relaxed) {
            self.corked.store(false, Ordering::SeqCst);
            self.flush_frames();
        }
    }

    /// Records the first fatal run error of the session (later ones are
    /// dropped: the first failure is the cause, the rest are fallout).
    pub(crate) fn record_run_error(&self, error: RunError) {
        let mut slot = self.run_error.lock();
        if slot.is_none() {
            *slot = Some(error);
        }
    }

    /// An outbound transport send failed: the wave counted a message
    /// that can never be received, so the epoch can no longer balance.
    /// Record the typed error and abort instead of hanging in `wait()`.
    pub(crate) fn fail_send(&self, dst: usize, error: &std::io::Error) {
        self.record_run_error(RunError::PeerLost {
            rank: dst,
            during: format!("send failed: {error}"),
        });
        self.wave
            .abort(&format!("send to rank {dst} failed: {error}"));
        self.announce(&mut self.session_done.lock());
    }

    /// Fans a peer-liveness transition out to registered observers.
    pub(crate) fn fire_recovery(&self, event: RecoveryEvent) {
        let observers = self.recovery_observers.read().clone();
        for obs in &observers {
            obs(event);
        }
    }

    /// Pushes an externally produced task into the injection queue —
    /// or, inside [`Runtime::inject_batch`] on this thread, onto the
    /// batch that publishes at the scope's end.
    pub(crate) fn inject(&self, task: RawTask) {
        // External injections (graph seeding, submit) inherit the
        // thread's ambient span unless the caller stamped one already;
        // nothing without `obs`.
        // SAFETY: the caller exclusively owns the task until the queue
        // publication below.
        unsafe {
            task.0
                .as_ref()
                .stamp_span_if_unset(crate::obs::spans::ambient_span())
        };
        if let Some(obs) = self.obs.as_deref() {
            if obs.histograms_enabled() || obs.spans_enabled() {
                // SAFETY: as above.
                unsafe { task.0.as_ref().stamp_ready(ttg_sync::clock::now_ns()) };
            }
        }
        if std::ptr::eq(BATCH_OWNER.get(), self) {
            BATCH.with_borrow_mut(|batch| batch.push(task));
            return;
        }
        self.publish(std::iter::once(task), true);
    }

    /// Puts ready, already counted tasks into the injection queue: one
    /// lock, one length update and one wake-up, however many there are.
    /// The queue's front runs first. Local work goes there, `newest`
    /// first — the paper's rule for equals (§IV-C: what was just built
    /// is still in the cache; `serve` loses 8 % without it). Arrivals go
    /// to the back: a sender's messages run in the order it sent them.
    pub(crate) fn publish(&self, tasks: impl ExactSizeIterator<Item = RawTask>, newest: bool) {
        let n = tasks.len();
        if n > 0 {
            let mut queue = self.injection.lock();
            if newest {
                tasks.for_each(|task| queue.push_front(task));
            } else {
                queue.extend(tasks);
            }
            drop(queue);
            self.injection_len.fetch_add(n, Ordering::Release);
            self.wake_sleepers();
        }
    }

    /// Inserts `received` active messages (`bytes` of payload) as the
    /// ready tasks they run as — fewer, if some were dropped. Accounted
    /// before they are published, the discoveries **then** the
    /// receptions: in that order, so a rank that reads the received
    /// count also reads the pending one (DESIGN.md §6.6). An arrival is
    /// not new local work: [`Inner::inject`]'s session check does not
    /// apply to it.
    pub(crate) fn insert_arrivals(
        &self,
        received: u64,
        bytes: u64,
        tasks: impl ExactSizeIterator<Item = RawTask>,
    ) {
        self.term.messages_arrived(received, tasks.len() as u64);
        let add = |counter: &AtomicU64, n| counter.fetch_add(n, Ordering::Relaxed);
        add(&self.comm.messages_received, received);
        add(&self.comm.bytes_received, bytes);
        add(&self.comm.insertions, 1);
        self.publish(tasks, false);
    }

    /// The task framed message `m` runs as on this runtime, stamped
    /// inserted at `now_ns` (0: no recorder reads it) — or `None`, with
    /// one warning per process, if nobody registered its handler id.
    /// Over a wire the id is the peer's to choose: an unknown one drops
    /// the message, still counted as received, and never panics.
    pub(crate) fn message_task(
        &self,
        handlers: &[Arc<HandlerFn>],
        m: Arrival,
        now_ns: u64,
    ) -> Option<RawTask> {
        let Some(run) = handlers.get(m.handler as usize) else {
            static WARNED: AtomicBool = AtomicBool::new(false);
            if !WARNED.swap(true, Ordering::Relaxed) {
                let id = m.handler;
                eprintln!("ttg-runtime: dropping message for unregistered handler id {id}");
            }
            return None;
        };
        let (pool, run) = (&self.msgs, &**run);
        Some(MsgTask::allocate(
            pool, m.priority, run, m.payload, m.span, now_ns,
        ))
    }

    /// The insertion time a message task is stamped with: the clock if
    /// a recorder is installed to read it, else 0.
    pub(crate) fn arrival_ns(&self) -> u64 {
        self.obs.as_ref().map_or(0, |_| ttg_sync::clock::now_ns())
    }

    /// Marks the current session complete and wakes waiters; false if
    /// it already was.
    fn announce(&self, done: &mut bool) -> bool {
        self.session_cv.notify_all();
        !std::mem::replace(done, true)
    }

    /// Worker `id`'s idle-loop offer: if every worker is idle (hence
    /// flushed) and nothing is pending, contribute the message totals,
    /// and announce the epoch's end once the wave says so (then true).
    /// Both happen under the session lock [`Runtime::run`] fences under,
    /// so no contribution rests on an observation older than the fence.
    pub(crate) fn offer_quiescence(&self, id: usize) -> bool {
        let threads = self.config.threads.max(1);
        let all_idle = || self.idle_count.load(Ordering::SeqCst) == threads;
        if !all_idle() {
            return false;
        }
        let quiescent = |_: &_| all_idle() && self.term.is_quiescent();
        let Some(mut done) = self.session_done.try_lock().filter(quiescent) else {
            return false;
        };
        let (sent, received) = self.term.message_totals();
        let cell = &self.worker_stats[id];
        cell.contributions.set(cell.contributions.get() + 1);
        if let Some(obs) = self.obs.as_deref() {
            // One ring event per wave round (deduplicated inside), not
            // one per idle-loop spin.
            obs.record_contribution(id, self.wave.round(), ttg_sync::clock::now_ns());
        }
        self.wave.try_contribute(self.rank, sent, received) && self.announce(&mut done)
    }
}

/// Liveness + peer-health verdict for one rank, produced by
/// [`Runtime::health`] and served by the live `/healthz` endpoint
/// (HTTP 200 when `healthy`, 503 otherwise).
#[derive(Debug, Clone)]
pub struct HealthReport {
    /// No durable failure signal is raised on this rank.
    pub healthy: bool,
    /// This process's rank within the job.
    pub rank: usize,
    /// Diagnostic for the first failure signal observed, if any.
    pub reason: Option<String>,
    /// Transport-level count of peers declared dead.
    pub peers_lost: u64,
    /// The rank is operational but a peer is inside its recovery window
    /// or instances sit quarantined awaiting its verdict. Degraded is
    /// *not* unhealthy: `/healthz` still answers 200 so orchestrators
    /// don't kill a rank that is about to recover on its own.
    pub degraded: bool,
    /// Peer ranks currently inside their recovery window.
    pub recovering_peers: Vec<usize>,
    /// Instance scopes currently quarantined by peer loss.
    pub quarantined_instances: u64,
}

/// A running instance of the task runtime (one rank of a job).
///
/// # Examples
///
/// ```
/// use ttg_runtime::{Runtime, RuntimeConfig};
/// use std::sync::atomic::{AtomicU64, Ordering};
/// use std::sync::Arc;
///
/// let rt = Runtime::new(RuntimeConfig::optimized(2));
/// let hits = Arc::new(AtomicU64::new(0));
/// for _ in 0..100 {
///     let hits = Arc::clone(&hits);
///     rt.submit(0, move |_ctx| {
///         hits.fetch_add(1, Ordering::Relaxed);
///     });
/// }
/// rt.wait();
/// assert_eq!(hits.load(Ordering::Relaxed), 100);
/// ```
pub struct Runtime {
    inner: Arc<Inner>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Runtime {
    /// Spawns a standalone runtime (its own single-process wave board).
    pub fn new(config: RuntimeConfig) -> Self {
        Self::with_termination(config, Arc::new(WaveBoard::new()), 0)
    }

    /// Spawns a runtime participating in an external global-termination
    /// protocol: `wave` decides when the whole job is quiescent and
    /// `rank` is this runtime's identity within it. Used by `ttg-net` for
    /// each rank of a multi-rank job, whose wave runs the rule of
    /// `Runtime::new`'s board over the transport.
    pub fn with_termination(config: RuntimeConfig, wave: Arc<dyn TermWave>, rank: usize) -> Self {
        let threads = config.threads.max(1);
        let inner = Arc::new(Inner {
            sched: config.scheduler.build(threads),
            term: LocalTermination::new(config.termdet, config.ordering, threads),
            wave,
            rank,
            injection: Mutex::new(VecDeque::new()),
            injection_len: AtomicUsize::new(0),
            msgs: ttg_mempool::FreeListPool::new(0),
            pools: Mutex::new(BTreeMap::new()),
            frame_out: OnceLock::new(),
            corked: AtomicBool::new(false),
            run_error: Mutex::new(None),
            net_stats: OnceLock::new(),
            wire_stats: OnceLock::new(),
            recovering: Mutex::new(BTreeSet::new()),
            recovery_observers: RwLock::new(Vec::new()),
            instances_quarantined: AtomicU64::new(0),
            instances_retried: AtomicU64::new(0),
            handlers: RwLock::new(Vec::new()),
            comm: CommCounters::default(),
            idle_count: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            session_done: Mutex::new(false),
            session_cv: Condvar::new(),
            sleep_lock: Mutex::new(()),
            sleep_cv: Condvar::new(),
            sleeper_count: AtomicUsize::new(0),
            worker_stats: stats::new_cells(threads),
            obs: (config.trace || config.histograms).then(|| {
                Arc::new(crate::obs::Obs::new(crate::obs::ObsConfig {
                    rank,
                    workers: threads,
                    events: config.trace,
                    histograms: config.histograms,
                    ring_capacity: config.trace_capacity,
                }))
            }),
            config,
        });
        let workers = (0..threads)
            .map(|id| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("ttg-worker-{rank}.{id}"))
                    .spawn(move || worker::worker_main(&inner, id))
                    .expect("failed to spawn worker")
            })
            .collect();
        Runtime { inner, workers }
    }

    /// The runtime's configuration.
    pub fn config(&self) -> &RuntimeConfig {
        &self.inner.config
    }

    /// This process's rank (0 for standalone runtimes).
    pub fn rank(&self) -> usize {
        self.inner.rank
    }

    /// Identity of this runtime's shared state (see
    /// [`WorkerCtx::belongs_to`]).
    pub(crate) fn inner_ptr(&self) -> *const Inner {
        Arc::as_ptr(&self.inner)
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.inner.config.threads.max(1)
    }

    /// Submits a closure task from outside the worker pool.
    pub fn submit(
        &self,
        priority: Priority,
        job: impl FnOnce(&mut WorkerCtx<'_>) + Send + 'static,
    ) {
        // Count the discovery *before* the task becomes reachable so no
        // quiescence check can miss it.
        self.inner.term.task_discovered(None);
        self.inner.inject(ClosureTask::allocate(priority, job));
    }

    /// Records the discovery of a task from outside the worker pool (the
    /// always-atomic accounting path). The TTG frontend pairs this with
    /// [`Runtime::inject_raw`] when seeding graphs externally.
    pub fn account_external_discovery(&self) {
        self.inner.term.task_discovered(None);
    }

    /// The runtime's memory-ordering policy (used by data copies).
    pub fn ordering(&self) -> OrderingPolicy {
        self.inner.config.ordering
    }

    /// Injects a pre-counted raw task (used by the TTG frontend for graph
    /// seeding). The caller must already have recorded the discovery.
    ///
    /// # Safety
    ///
    /// `task` must be a live, exclusively owned task object whose header
    /// honours the layout contract of [`crate::TaskHeader`].
    pub unsafe fn inject_raw(&self, task: RawTask) {
        self.inner.inject(task);
    }

    /// Runs `seed` with this thread's injections into this runtime
    /// collected and published together when `seed` returns or unwinds:
    /// a graph's seeder pays for one queue publication, not one per
    /// task. Nothing injected becomes runnable before the end, so `seed`
    /// must not wait for work it injects. A nested call joins the open
    /// batch.
    pub fn inject_batch<R>(&self, seed: impl FnOnce() -> R) -> R {
        /// Closes the batch and publishes it: one queue lock, one length
        /// update and one wake-up for all of it.
        struct Publish<'a>(&'a Inner);
        impl Drop for Publish<'_> {
            fn drop(&mut self) {
                BATCH_OWNER.set(std::ptr::null());
                BATCH.with_borrow_mut(|batch| {
                    self.0.publish(batch.drain(..), true);
                });
            }
        }
        if !BATCH_OWNER.get().is_null() {
            // Nested in this runtime's batch: join it. Inside another
            // runtime's: inject unbatched.
            return seed();
        }
        BATCH_OWNER.set(self.inner_ptr());
        let _publish = Publish(&self.inner);
        seed()
    }

    /// Blocks until all work submitted before the call (and, on a rank of
    /// a distributed job, all work everywhere plus in-flight messages)
    /// has completed. This is TTG's fence; the runtime is reusable
    /// afterwards, and several threads may wait on it at once.
    ///
    /// Failures are swallowed: a distributed session that lost a peer or
    /// aborted its wave still returns (the abort latches termination so
    /// the fence completes). Use [`Runtime::run`] to learn *why*.
    pub fn wait(&self) {
        let _ = self.run();
    }

    /// [`Runtime::wait`] with a typed outcome: `Ok(())` on clean global
    /// termination, `Err` when the session ended because a peer was
    /// lost ([`RunError::PeerLost`]) or the termination wave was aborted
    /// ([`RunError::Aborted`]). The runtime stays reusable either way —
    /// though after a lost peer, distributed sessions stay poisoned and
    /// every later `run()` fails fast with the same diagnostic.
    ///
    /// One protocol, one rank or many: `run()` enters the wave's fence,
    /// wakes parked workers so the rounds run at once, and returns when
    /// the epoch it fenced into ends — authoritatively: messages of the
    /// next epoch already queued here (their sender's wait returned
    /// first) do not hold it up.
    pub fn run(&self) -> Result<(), RunError> {
        // Nothing this session sent may still be corked when the rank
        // says it is done sending.
        self.inner.flush_frames();
        let mut done = self.inner.session_done.lock();
        loop {
            // Under the session lock: a worker observes quiescence and
            // contributes under it too, so no observation made before
            // this thread's submissions counts for the epoch it fences.
            self.inner.wave.enter_fence();
            self.inner.wake_sleepers();
            if !*done {
                self.inner.session_cv.wait(&mut done);
            }
            // Woken without an announcement (another waiter consumed the
            // epoch this one fenced into) or by one that predates the
            // latch: fence again and keep waiting.
            if !std::mem::take(&mut *done) || !self.inner.wave.is_terminated() {
                continue;
            }
            // Capture the abort diagnostic before reset clears it for
            // the next epoch; other waiters fence into that one.
            let aborted = self.inner.wave.aborted();
            self.inner.wave.reset();
            self.inner.session_cv.notify_all();
            drop(done);
            let structured = self.inner.run_error.lock().take();
            return match (structured, aborted) {
                (Some(e), _) => Err(e),
                (None, Some(reason)) => Err(RunError::Aborted { reason }),
                (None, None) => Ok(()),
            };
        }
    }

    /// Records a fatal session error from outside the runtime (the
    /// network layer calls this when a transport declares a peer dead).
    /// The first error wins; [`Runtime::run`] returns it.
    pub fn record_run_error(&self, error: RunError) {
        self.inner.record_run_error(error);
    }

    /// True while this rank runs nothing: every worker idle, nothing
    /// queued or pending.
    fn is_idle(&self) -> bool {
        let threads = self.inner.config.threads.max(1);
        self.inner.idle_count.load(Ordering::SeqCst) == threads
            && self.inner.term.pending() == 0
            && self.inner.injection_len.load(Ordering::Acquire) == 0
    }

    /// Blocks until no task of this runtime is running or queued — what
    /// tearing down a graph built on it waits for. A runtime on its own
    /// gets there by [`Runtime::wait`]. One rank of several (a transport
    /// is bound) cannot fence alone — a thread that drives several
    /// ranks, `NetGroup::local`, would wait for itself — so there the
    /// job fences first, and this only waits out the rank's own tasks.
    pub fn quiesce(&self) {
        if self.inner.frame_out.get().is_none() {
            return self.wait();
        }
        while !self.is_idle() {
            std::thread::yield_now();
        }
    }

    /// Waits (bounded) for every worker to go idle with nothing queued,
    /// so ring drains observe a consistent snapshot. Rings are
    /// single-writer: draining while a worker still records would lose
    /// whatever it writes after its ring was visited. Callers normally
    /// drain right after [`Runtime::wait`], where this settles
    /// immediately; the deadline only guards against draining a runtime
    /// that is still executing (the drain then proceeds best-effort).
    fn quiesce_for_drain(&self) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_millis(200);
        while !self.is_idle() && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
    }

    /// Drains all recorded timeline events, sorted by timestamp (empty
    /// unless `config.trace`). Fences on worker quiescence first — call
    /// after [`Runtime::wait`] for a complete, loss-free drain.
    pub fn take_events(&self) -> Vec<crate::obs::Event> {
        let Some(obs) = self.inner.obs.as_deref() else {
            return Vec::new();
        };
        self.quiesce_for_drain();
        obs.drain_events()
    }

    /// Copies all recorded timeline events *without* consuming them,
    /// sorted by timestamp (empty unless `config.trace`) — the
    /// read-only sibling of [`Runtime::take_events`] for live
    /// introspection. No quiescence fence: workers may keep recording
    /// while the copy runs, so a slot overwritten mid-copy can come
    /// back torn (accepted for monitoring), and the eventual
    /// [`Runtime::take_events`] drain still returns everything. This
    /// is what the `/trace` endpoint and the crash flight recorder
    /// use, so serving a request can neither race nor consume the
    /// quiescent drain.
    pub fn peek_events(&self) -> Vec<crate::obs::Event> {
        self.inner
            .obs
            .as_deref()
            .map(|o| o.peek_events())
            .unwrap_or_default()
    }

    /// Liveness + peer-health verdict for this rank, the state behind
    /// the live `/healthz` endpoint. A rank is unhealthy when any
    /// durable failure signal is raised: a recorded (not yet consumed)
    /// run error, a poisoned termination wave (dead peers never come
    /// back), or a nonzero transport `peers_lost` counter — the last
    /// two persist after [`Runtime::run`] takes the error, so a probe
    /// arriving late still sees the failure.
    pub fn health(&self) -> HealthReport {
        let pending = self.inner.run_error.lock().clone().map(|e| e.to_string());
        let poison = self.inner.wave.poisoned();
        let peers_lost = self
            .inner
            .net_stats
            .get()
            .map(|source| source().peers_lost)
            .unwrap_or(0);
        let reason = pending
            .or(poison)
            .or_else(|| (peers_lost > 0).then(|| format!("{peers_lost} peer(s) declared dead")));
        let recovering_peers: Vec<usize> = self.inner.recovering.lock().iter().copied().collect();
        let quarantined_instances = self.inner.instances_quarantined.load(Ordering::Relaxed);
        HealthReport {
            healthy: reason.is_none(),
            degraded: !recovering_peers.is_empty() || quarantined_instances > 0,
            rank: self.inner.rank,
            reason,
            peers_lost,
            recovering_peers,
            quarantined_instances,
        }
    }

    /// Wall-clock unix ns of this process's trace-time origin (`None`
    /// unless observability is on). Rendering every rank's events
    /// against one rank's anchor aligns a job on one timeline.
    pub fn trace_wall_anchor_ns(&self) -> Option<u64> {
        self.inner.obs.as_deref().map(|o| o.wall_anchor_ns())
    }

    /// The recorder behind `config.trace` and `config.histograms`
    /// (`None` when both are off): its histograms and ring settings are
    /// what `ttg-obs` renders.
    pub fn recorder(&self) -> Option<&crate::obs::Obs> {
        self.inner.obs.as_deref()
    }

    /// Scheduler load at this instant — racy reads, for gauges.
    pub fn load(&self) -> crate::stats::SchedLoad {
        let threads = self.threads();
        let idle = self.inner.idle_count.load(Ordering::SeqCst).min(threads);
        crate::stats::SchedLoad {
            running: threads - idle,
            queued: self.inner.sched.pending_estimate()
                + self.inner.injection_len.load(Ordering::Acquire),
            overflow_depth: self.inner.sched.overflow_depth(),
            worker_depths: (0..threads)
                .map(|w| self.inner.sched.worker_depth(w))
                .collect(),
        }
    }

    /// This runtime's pool of `T` task objects — one slot per worker and
    /// the shared one — created on first use and resident from then on:
    /// every template task whose shells are `T`s allocates from it and
    /// retires into it, so what one graph leaves on the free lists the
    /// next one built here pops. Only a worker of this runtime may name
    /// a slot (`alloc_in` with its [`WorkerCtx::id`]).
    pub fn resident_pool<T: Send + Sync + 'static>(&self) -> Arc<ttg_mempool::FreeListPool<T>> {
        let mut pools = self.inner.pools.lock();
        let pool = pools.entry(TypeId::of::<T>()).or_insert_with(|| {
            let pool = ttg_mempool::FreeListPool::<T>::new(self.threads());
            if let Some(hook) = self.pool_refill_hook() {
                pool.set_refill_observer(hook);
            }
            Arc::new(pool)
        });
        Arc::clone(pool)
            .downcast()
            .expect("resident pools are keyed by their element type")
    }

    /// A mempool refill observer feeding this runtime's trace, or `None`
    /// when tracing is off, so free-list refills (fresh allocations)
    /// show on the timeline.
    fn pool_refill_hook(&self) -> Option<ttg_mempool::RefillObserver> {
        let obs = Arc::clone(self.inner.obs.as_ref()?);
        if !obs.events_enabled() {
            return None;
        }
        Some(Box::new(move |count| {
            obs.record_pool_refill(count as u64, ttg_sync::clock::now_ns());
        }))
    }

    /// Aggregated statistics snapshot.
    pub fn stats(&self) -> crate::RuntimeStats {
        let mut s = stats::aggregate(&self.inner.worker_stats, self.inner.sched.stats());
        s.messages_sent = self.inner.comm.messages_sent.load(Ordering::Relaxed);
        s.messages_received = self.inner.comm.messages_received.load(Ordering::Relaxed);
        s.bytes_sent = self.inner.comm.bytes_sent.load(Ordering::Relaxed);
        s.bytes_received = self.inner.comm.bytes_received.load(Ordering::Relaxed);
        s.bytes_on_wire = s.bytes_sent + s.bytes_received;
        if let Some(source) = self.inner.net_stats.get() {
            let n = source();
            s.frames_corrupt = n.frames_corrupt;
            s.heartbeats_sent = n.heartbeats_sent;
            s.peers_lost = n.peers_lost;
            s.reconnects = n.reconnects;
            s.rejoins = n.rejoins;
            s.frames_replayed = n.frames_replayed;
            s.frames_deduped = n.frames_deduped;
            s.resend_buffer_bytes = n.resend_buffer_bytes;
        }
        s.instances_quarantined = self.inner.instances_quarantined.load(Ordering::Relaxed);
        s.instances_retried = self.inner.instances_retried.load(Ordering::Relaxed);
        s.trace_events_dropped = self
            .inner
            .obs
            .as_deref()
            .map(|o| o.events_dropped())
            .unwrap_or(0);
        s.contention = crate::stats::ContentionStats(ttg_sync::lock_contention());
        s
    }

    /// Flushed process-pending counter (diagnostics).
    pub fn pending_tasks(&self) -> i64 {
        self.inner.term.pending()
    }

    /// Registers a typed-message handler and returns its id. SPMD
    /// programs must register the same handlers in the same order on
    /// every rank (ids are assigned by registration order), before any
    /// message for them can arrive.
    pub fn register_handler(
        &self,
        handler: impl Fn(&mut WorkerCtx<'_>, Vec<u8>) + Send + Sync + 'static,
    ) -> u32 {
        let mut handlers = self.inner.handlers.write();
        handlers.push(Arc::new(handler));
        handlers.len() as u32 - 1
    }

    /// Sends a serialized active message to rank `dst`: the payload is
    /// executed there by the handler registered under `handler`, as a
    /// task of the given priority. Another rank is reached over the
    /// bound network transport; `dst == rank` executes locally without
    /// counting as an inter-process message.
    pub fn send_msg(&self, dst: usize, priority: Priority, handler: u32, payload: Vec<u8>) {
        crate::comm::send_msg_from(
            &self.inner,
            dst,
            priority,
            handler,
            payload,
            crate::obs::spans::ambient_span(),
        );
        self.inner.flush_when_idle();
    }

    /// Has a worker flush the bound transport once it has run what was
    /// injected before it (cork rule (d), DESIGN.md §6.5): the transport's
    /// receiver thread asks this after publishing an ack, so the ack
    /// leaves with the reply of the handler its delivery woke, or alone
    /// when the worker goes idle. False when no worker will flush (no
    /// transport bound, or the runtime is shutting down).
    pub fn flush_when_idle(&self) -> bool {
        self.inner.flush_when_idle()
    }

    /// Binds the outbound network transport. Called once by `ttg-net`
    /// before any work is submitted.
    pub fn set_frame_sender(&self, sender: Arc<dyn FrameSender>) {
        self.inner
            .frame_out
            .set(sender)
            .unwrap_or_else(|_| panic!("frame sender already bound"));
    }

    /// Installs the transport's resilience-counter source; `stats()`
    /// folds its snapshot into [`crate::RuntimeStats`] (frames_corrupt,
    /// heartbeats_sent, peers_lost, reconnects). Later calls are
    /// ignored (the transport is bound once).
    pub fn set_net_stats_source(&self, source: Arc<dyn Fn() -> NetStats + Send + Sync>) {
        let _ = self.inner.net_stats.set(source);
    }

    /// Installs the transport's wire-path telemetry source (stage
    /// histograms + per-link counters), read by
    /// [`Runtime::wire_snapshot`]. Later calls are ignored.
    pub fn set_wire_stats_source(
        &self,
        source: Arc<dyn Fn() -> crate::obs::WireSnapshot + Send + Sync>,
    ) {
        let _ = self.inner.wire_stats.set(source);
    }

    /// The current wire-path telemetry snapshot — empty when no
    /// transport installed a source or the `obs` feature is off.
    pub fn wire_snapshot(&self) -> crate::obs::WireSnapshot {
        match self.inner.wire_stats.get() {
            Some(source) => source(),
            None => crate::obs::WireSnapshot::default(),
        }
    }

    /// Registers an observer for peer-liveness transitions
    /// ([`RecoveryEvent`]). Observers run on transport threads and must
    /// not block; the serve engine uses them to quarantine/release/
    /// re-execute the instances a bouncing rank touches.
    pub fn add_recovery_observer(&self, observer: impl Fn(RecoveryEvent) + Send + Sync + 'static) {
        self.inner
            .recovery_observers
            .write()
            .push(Arc::new(observer));
    }

    /// Transport upcall: `rank`'s connection dropped and its recovery
    /// window opened. Marks the peer recovering (degraded `/healthz`)
    /// and fans out [`RecoveryEvent::PeerRecovering`].
    pub fn notify_peer_recovering(&self, rank: usize) {
        self.inner.recovering.lock().insert(rank);
        self.inner
            .fire_recovery(RecoveryEvent::PeerRecovering { rank });
    }

    /// Transport upcall: `rank` rejoined within its recovery window.
    /// Clears the degraded marker and fans out
    /// [`RecoveryEvent::PeerRejoined`].
    pub fn notify_peer_rejoined(&self, rank: usize, same_incarnation: bool) {
        self.inner.recovering.lock().remove(&rank);
        self.inner.fire_recovery(RecoveryEvent::PeerRejoined {
            rank,
            same_incarnation,
        });
    }

    /// Transport upcall: `rank`'s recovery window expired without a
    /// rejoin. Fans out [`RecoveryEvent::PeerDead`]; the caller is
    /// expected to also record the fatal run error as before.
    pub fn notify_peer_dead(&self, rank: usize) {
        self.inner.recovering.lock().remove(&rank);
        self.inner.fire_recovery(RecoveryEvent::PeerDead { rank });
    }

    /// Transport upcall: a peer rejoined with a *new* incarnation and
    /// `sent`/`received` messages exchanged with the dead incarnation
    /// were struck from the session. Retracts them from this rank's
    /// wave contribution so global termination can still balance.
    pub fn retract_peer_messages(&self, sent: u64, received: u64) {
        self.inner.term.retract_messages(sent, received);
    }

    /// Peer ranks currently inside their recovery window.
    pub fn recovering_peers(&self) -> Vec<usize> {
        self.inner.recovering.lock().iter().copied().collect()
    }

    /// Sets the quarantined-instances gauge reported by
    /// [`Runtime::health`] / [`Runtime::stats`]. Maintained by the
    /// layer that owns the instance scopes (ttg-serve).
    pub fn set_quarantined_instances(&self, count: u64) {
        self.inner
            .instances_quarantined
            .store(count, Ordering::Relaxed);
    }

    /// Counts one instance re-executed after a peer-loss failure.
    pub fn note_instance_retried(&self) {
        self.inner.instances_retried.fetch_add(1, Ordering::Relaxed);
    }

    /// Inserts data messages that arrived over the network from `src`
    /// as ready tasks of this rank, in one publication of the injection
    /// queue — one lock, one accounting step, at most one wake-up for
    /// all of them. Called by the transport's receiver thread with
    /// everything one read decoded; the handlers run at the messages'
    /// priorities, in arrival order on a single worker.
    pub fn deliver_frames(&self, src: usize, frames: &mut dyn Iterator<Item = Arrival>) {
        let inner = &*self.inner;
        let now_ns = inner.arrival_ns();
        BATCH.with_borrow_mut(|batch| {
            // An `inject_batch` scope may be open on this thread (an
            // in-process sender delivers on its own stack): only what
            // is pushed from here on is ours to publish.
            let mine = batch.len();
            let handlers = inner.handlers.read();
            let (mut received, mut bytes) = (0, 0);
            for m in frames {
                received += 1;
                bytes += m.payload.len() as u64;
                if let Some(obs) = inner.obs.as_deref() {
                    // Sequence derived from per-peer arrival order,
                    // matching the sender's assignment (the transport is
                    // per-peer ordered).
                    obs.record_net_recv(src, m.payload.len(), now_ns, m.span);
                }
                batch.extend(inner.message_task(&handlers, m, now_ns));
            }
            inner.insert_arrivals(received, bytes, batch.drain(mine..));
        });
        // Back-pressure without a wait: a receiver thread that has run
        // this far ahead of the workers gives them the CPU before it
        // reads on (it may share one with them). Never a block — a
        // handler may be waiting for acks only the caller can read.
        if inner.injection_len.load(Ordering::Relaxed) > INSERTED_AHEAD {
            std::thread::yield_now();
        }
    }

    /// Publications of the injection queue that carried active messages
    /// ([`crate::RuntimeStats::messages_received`] over this is the batch the
    /// receive path achieves; a tier-1 gate reads it, no exported
    /// schema carries it).
    pub fn message_insertions(&self) -> u64 {
        self.inner.comm.insertions.load(Ordering::Relaxed)
    }
}

/// Undrained tasks past which [`Runtime::deliver_frames`] yields after
/// an insertion — a receive buffer's worth of the smallest frames. It
/// bounds what a backlog holds when receiver and workers share a CPU:
/// `burst` at 32 / 128 / 512 / 2 048 / never reads 0.92 / 1.08 / 1.13 /
/// 1.11 / 1.12 M msgs/s and 4.6 / 4.7 / 5.2 / 7.1 / 9.6 MB peak RSS.
const INSERTED_AHEAD: usize = 512;

/// One data message for [`Runtime::deliver_frames`]: the id its handler
/// is registered under, the priority of the handler's task, the
/// handler's argument, the sending task's span context (0: none).
#[derive(Debug)]
#[allow(missing_docs)]
pub struct Arrival {
    pub handler: u32,
    pub priority: Priority,
    pub payload: Vec<u8>,
    pub span: u64,
}

impl Drop for Runtime {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::Release);
        self.inner.sleep_cv.notify_all();
        // The last handle can be released by a task, i.e. on a worker:
        // that thread cannot join itself. It is detached instead (it
        // holds its own `Arc<Inner>`) and leaves at its next idle
        // transition, after the task that got us here returns.
        let me = std::thread::current().id();
        for w in self.workers.drain(..).filter(|w| w.thread().id() != me) {
            let _ = w.join();
        }
        // Dispose of anything left behind (incomplete graphs, undrained
        // injections) so memory pools and boxes are reclaimed.
        while let Some(task) = self.inner.sched.pop(0) {
            // SAFETY: every other worker is joined, and a worker running
            // this drop is inside a task, not popping: we own every
            // remaining task.
            unsafe { RawTask(crate::task::TaskHeader::from_node(task)).dispose() };
        }
        for task in self.inner.injection.lock().drain(..) {
            // SAFETY: as above.
            unsafe { task.dispose() };
        }
    }
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("rank", &self.inner.rank)
            .field("threads", &self.threads())
            .field("config", &self.inner.config)
            .finish_non_exhaustive()
    }
}
