//! The worker main loop and the per-task execution context.

use crate::runtime::Inner;
use crate::task::{ClosureTask, RawTask, TaskHeader};
use std::cell::Cell;
use std::collections::VecDeque;
use std::ptr::NonNull;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};
use ttg_sched::{Priority, SortedChain};
use ttg_sync::OrderingPolicy;
use ttg_termdet::InstanceScope;

/// A scoped task's termination accounting while it runs on a worker
/// ([`WorkerCtx::enter_scope`]): its scope — compared, never read; null
/// outside scoped tasks — and how many successors it has scheduled into
/// that scope and not yet seen finish.
struct ScopeFrame(*const InstanceScope, usize);

impl ScopeFrame {
    const EMPTY: ScopeFrame = ScopeFrame(std::ptr::null(), 0);
}

/// Context handed to every executing task.
///
/// Collects the tasks a body releases into a sorted bundle that is pushed
/// in one pass after the body returns — the paper's mitigation for O(N)
/// ordered insertion (Section IV-C) — and exposes the accounting hooks
/// the TTG frontend needs.
pub struct WorkerCtx<'rt> {
    pub(crate) inner: &'rt Inner,
    /// This worker's index within the runtime. Private: pools keyed by
    /// it rely on no two live contexts of one runtime sharing an index.
    id: usize,
    bundle: SortedChain,
    /// Instance scope whose completion the just-executed task deferred
    /// (see [`WorkerCtx::leave_scope`]).
    completed_scope: Option<std::sync::Arc<InstanceScope>>,
    /// The running task's frame.
    scope_frame: ScopeFrame,
    /// Span context of the task currently executing on this worker
    /// (0 = unattributed). Children scheduled or messages sent from the
    /// task body inherit it; always 0 with `obs` off.
    current_span: u64,
    /// The task that just ran sent a message, which the transport may
    /// have left corked: [`WorkerCtx::run_task`] flushes when it returns.
    corked: Cell<bool>,
    /// The (empty) queue `drain_injection` swaps the full one for.
    drained: VecDeque<RawTask>,
}

impl<'rt> WorkerCtx<'rt> {
    pub(crate) fn new(inner: &'rt Inner, id: usize) -> Self {
        WorkerCtx {
            inner,
            id,
            bundle: SortedChain::new(),
            completed_scope: None,
            scope_frame: ScopeFrame::EMPTY,
            current_span: 0,
            corked: Cell::new(false),
            drained: VecDeque::new(),
        }
    }

    /// Flushes the transport if the task that just returned sent
    /// anything: a handler's reply leaves when its task does.
    #[inline]
    fn uncork(&self) {
        if self.corked.get() {
            self.corked.set(false);
            self.inner.flush_frames();
        }
    }

    /// This worker's index within its runtime (`< threads()`): stable
    /// for the worker thread's lifetime and held by no other thread.
    #[inline]
    pub fn id(&self) -> usize {
        self.id
    }

    /// True when this context is a worker of `runtime` — what makes
    /// [`WorkerCtx::id`] meaningful as an index into per-worker state
    /// sized for that runtime.
    #[inline]
    pub fn belongs_to(&self, runtime: &crate::Runtime) -> bool {
        std::ptr::eq(self.inner, runtime.inner_ptr())
    }

    /// Span context of the currently executing task (0 = unattributed).
    #[inline]
    pub fn current_span(&self) -> u64 {
        self.current_span
    }

    /// The memory-ordering policy of this runtime (used by data copies).
    pub fn ordering(&self) -> OrderingPolicy {
        self.inner.config.ordering
    }

    /// This process's rank.
    pub fn rank(&self) -> usize {
        self.inner.rank
    }

    /// Number of worker threads in this runtime.
    pub fn threads(&self) -> usize {
        self.inner.config.threads.max(1)
    }

    /// Records the discovery of one task (the +1 of the pending counter).
    /// The TTG frontend calls this when it creates a task shell.
    #[inline]
    pub fn count_discovered(&self) {
        self.inner.term.task_discovered(Some(self.id));
    }

    /// Opens the frame of a task of `scope` about to run its body here;
    /// [`WorkerCtx::leave_scope`] closes it. What the body schedules
    /// into `scope` stays in this worker's bundle, so it is counted in
    /// the frame and settled once at its end. Frames do not nest: a
    /// worker runs one task body at a time.
    #[inline]
    pub fn enter_scope(&mut self, scope: &InstanceScope) {
        debug_assert!(self.scope_frame.0.is_null(), "scope frames do not nest");
        self.scope_frame = ScopeFrame(scope, 0);
    }

    /// Credits `scope` for a task about to be scheduled: in the running
    /// task's frame if that is its scope, else in the scope itself.
    #[inline]
    pub fn credit_scope(&mut self, scope: &InstanceScope) {
        if std::ptr::eq(self.scope_frame.0, scope) {
            self.scope_frame.1 += 1;
        } else {
            scope.task_scheduled();
        }
    }

    /// Closes the frame of the task of `scope` whose body just finished
    /// and settles it — before the bundle publishes what the body
    /// scheduled: `k` live successors take over the task's credit and
    /// add `k − 1` (`InstanceScope::settle_task`). With none, the task's
    /// `task_completed()` is deferred until `execute` has returned to
    /// `WorkerCtx::run_task`: the zero-crossing can release a waiter
    /// that tears the task's template down, and inside `execute` `&self`
    /// references into that template are still live.
    #[inline]
    pub fn leave_scope(&mut self, scope: &std::sync::Arc<InstanceScope>) {
        match std::mem::replace(&mut self.scope_frame, ScopeFrame::EMPTY).1 {
            0 => {
                debug_assert!(self.completed_scope.is_none(), "two deferred completions");
                self.completed_scope = Some(std::sync::Arc::clone(scope));
            }
            k => scope.settle_task(k),
        }
    }

    /// Fires a deferred scope completion, if the just-finished task left
    /// one. Must only run once that task's frames are fully unwound.
    #[inline]
    fn fire_scope_completion(&mut self) {
        if let Some(scope) = self.completed_scope.take() {
            scope.task_completed();
        }
    }

    /// Schedules an already-counted task: it joins the current bundle,
    /// which `WorkerCtx::run_task` deals with when the running task
    /// finishes.
    ///
    /// # Safety
    ///
    /// `task` must be a live, exclusively owned task object honouring the
    /// [`TaskHeader`] layout contract, already accounted as discovered.
    #[inline]
    pub unsafe fn schedule(&mut self, task: RawTask) {
        // SAFETY: we own the task until it executes or is published.
        unsafe { task.0.as_ref().stamp_span_if_unset(self.current_span) };
        if let Some(obs) = self.inner.obs.as_deref() {
            if obs.histograms_enabled() || obs.spans_enabled() {
                // SAFETY: we own the task until the bundle publishes it.
                unsafe { task.0.as_ref().stamp_ready(ttg_sync::clock::now_ns()) };
            }
        }
        self.bundle.insert(TaskHeader::as_node(task.0));
    }

    /// Spawns a closure task from within a task body (counted +
    /// scheduled).
    pub fn spawn(
        &mut self,
        priority: Priority,
        job: impl FnOnce(&mut WorkerCtx<'_>) + Send + 'static,
    ) {
        self.count_discovered();
        let task = ClosureTask::allocate(priority, job);
        // SAFETY: freshly allocated, counted above.
        unsafe { self.schedule(task) };
    }

    /// Sends a serialized active message to rank `dst`: the payload runs
    /// there under the handler registered with that id (another rank is
    /// reached over the bound network transport).
    pub fn send_msg(&self, dst: usize, priority: Priority, handler: u32, payload: Vec<u8>) {
        self.corked.set(true);
        crate::comm::send_msg_from(
            self.inner,
            dst,
            priority,
            handler,
            payload,
            self.current_span,
        );
    }

    /// Publishes the accumulated bundle to this worker's queue.
    fn flush_bundle(&mut self) {
        if !self.bundle.is_empty() {
            let chain = std::mem::take(&mut self.bundle);
            let slow = self.inner.sched.push_chain(self.id, chain);
            if slow {
                if let Some(obs) = self.inner.obs.as_deref() {
                    obs.record_slow_push(self.id, ttg_sync::clock::now_ns());
                }
            }
            self.inner.wake_sleepers();
        }
    }

    /// Takes the task this worker runs next out of the bundle, if the
    /// bundle holds it: its head, when a push would put that head where
    /// the next pop takes it from ([`ttg_sched::TaskQueue::pops_next`]).
    #[inline]
    fn take_next(&mut self) -> Option<RawTask> {
        let priority = self.bundle.head_priority()?;
        if !self.inner.sched.pops_next(self.id, priority) {
            return None;
        }
        let node = self.bundle.pop_front()?;
        // SAFETY: the bundle holds task headers (`schedule`).
        Some(RawTask(unsafe { TaskHeader::from_node(node) }))
    }

    /// Executes a popped task, then every task handed off behind it:
    /// body, release bundle, executed accounting, uncork — each time.
    /// The successor this worker would pop next anyway is kept out of
    /// the queue and run here, after the rest of the bundle is
    /// published: same order on this worker, no push, no pop.
    fn run_task(&mut self, mut task: RawTask) {
        loop {
            // The running task defines the attribution context for
            // everything it schedules or sends (0 clears a stale context).
            // SAFETY: the task is live until execute consumes it.
            self.current_span = unsafe { task.0.as_ref().span() };
            let observed = self.inner.obs.as_deref().map(|obs| {
                // SAFETY: as above.
                let header = unsafe { task.0.as_ref() };
                (
                    obs,
                    header.vtable.name,
                    header.ready_ns(),
                    ttg_sync::clock::now_ns(),
                )
            });
            // SAFETY: ownership of `task` came from the queue pop, or
            // from the bundle.
            unsafe { task.execute(self) };
            if let Some((obs, name, ready, start)) = observed {
                obs.record_task(
                    self.id,
                    name,
                    ready,
                    start,
                    ttg_sync::clock::now_ns(),
                    self.current_span,
                );
            }
            let next = self.take_next();
            self.flush_bundle();
            // Fire any deferred instance-scope completion only now: the
            // task's frames are gone and its children are published or
            // kept, so a waiter released by the zero-crossing can safely
            // tear down.
            self.fire_scope_completion();
            self.inner.term.task_executed(Some(self.id));
            let cell = &self.inner.worker_stats[self.id];
            cell.executed.set(cell.executed.get() + 1);
            self.uncork();
            let Some(kept) = next else { return };
            cell.inlined.set(cell.inlined.get() + 1);
            task = kept;
        }
    }

    /// Drains the injection queue — external submissions and arrived
    /// messages alike, all of them ready, counted tasks — into this
    /// worker's queue. Returns true if any task was obtained.
    fn drain_injection(&mut self) -> bool {
        if self.inner.injection_len.load(Ordering::Acquire) == 0 {
            return false;
        }
        // Swapped for the (empty) spare under the lock, walked outside it.
        std::mem::swap(&mut *self.inner.injection.lock(), &mut self.drained);
        let n = self.drained.len();
        if n == 0 {
            return false;
        }
        self.inner.injection_len.fetch_sub(n, Ordering::Release);
        let cell = &self.inner.worker_stats[self.id];
        cell.injections_drained
            .set(cell.injections_drained.get() + n as u64);
        // Back to front: the bundle puts a task in front of its equals,
        // so the queue's front runs first (`Inner::publish`).
        for t in self.drained.drain(..).rev() {
            self.bundle.insert(TaskHeader::as_node(t.0));
        }
        self.flush_bundle();
        true
    }
}

/// How many idle iterations to spin/yield before parking.
const SPINS_BEFORE_PARK: u32 = 20;
/// Idle iterations before a worker offers the rank's counters to the
/// wave (DESIGN.md §6.4) ...
const OFFER_AFTER_SPINS: u32 = SPINS_BEFORE_PARK / 2;
/// ... or idle time, whichever comes first: on a CPU shared with other
/// busy threads one yield can last a time slice, and ten of them held
/// every offer back by ten slices.
const OFFER_AFTER_IDLE: Duration = Duration::from_millis(5);
/// Park timeout so termination polling and shutdown checks keep running.
const PARK_TIMEOUT: Duration = Duration::from_millis(1);

/// Records a steal event when a pop came from another worker's queue
/// (no-op when tracing is off; source discrimination is free — the
/// queue already knows where the node came from).
#[inline]
fn note_pop_source(inner: &Inner, id: usize, src: ttg_sched::PopSource) {
    if let Some(obs) = inner.obs.as_deref() {
        if let ttg_sched::PopSource::Steal(victim) = src {
            obs.record_steal(id, victim, ttg_sync::clock::now_ns());
        }
    }
}

/// The worker thread body.
pub(crate) fn worker_main(inner: &Inner, id: usize) {
    let mut ctx = WorkerCtx::new(inner, id);
    'outer: loop {
        // ---- busy phase -------------------------------------------------
        while let Some((node, src)) = inner.sched.pop_from(id) {
            note_pop_source(inner, id, src);
            // SAFETY: nodes in the queue are task headers by contract.
            let task = RawTask(unsafe { TaskHeader::from_node(node) });
            ctx.run_task(task);
        }
        // ---- idle transition --------------------------------------------
        // Counter tracks: sampled at the idle transition (change-only in
        // the ring), where depth changes are most informative and the
        // estimate's cost is off the task hot path.
        if let Some(obs) = inner.obs.as_deref().filter(|o| o.events_enabled()) {
            obs.sample_depths(
                id,
                inner.sched.pending_estimate() as u64,
                inner.injection_len.load(Ordering::Relaxed) as u64,
                inner.sched.overflow_depth() as u64,
                ttg_sync::clock::now_ns(),
            );
        }
        // Injected work first: a reply it sends carries whatever a
        // corked flush would have put on the wire alone (an ack).
        if ctx.drain_injection() {
            continue 'outer;
        }
        // Uncork before the counters are published: the wave is never
        // offered a sent-count whose messages sit in this rank's buffer.
        inner.flush_if_corked();
        inner.term.flush(id);
        if inner.shutdown.load(Ordering::Acquire) {
            return;
        }
        inner.idle_count.fetch_add(1, Ordering::SeqCst);
        let (mut spins, idle_since) = (0u32, Instant::now());
        loop {
            if inner.shutdown.load(Ordering::Acquire) {
                inner.idle_count.fetch_sub(1, Ordering::SeqCst);
                return;
            }
            if let Some((node, src)) = inner.sched.pop_from(id) {
                inner.idle_count.fetch_sub(1, Ordering::SeqCst);
                note_pop_source(inner, id, src);
                // SAFETY: as above.
                let task = RawTask(unsafe { TaskHeader::from_node(node) });
                ctx.run_task(task);
                continue 'outer;
            }
            if inner.injection_len.load(Ordering::Acquire) > 0 {
                inner.idle_count.fetch_sub(1, Ordering::SeqCst);
                ctx.drain_injection();
                continue 'outer;
            }
            inner.flush_if_corked();
            // Offer only from the second half of the spin budget: a rank
            // idle between two hops of an exchange would only open a
            // round the next hop contradicts. A waiter just woken often
            // fences again at once (a wait loop), and its wake-up would
            // find this worker on its way to parking: spin before
            // parking.
            let offer = spins >= OFFER_AFTER_SPINS || idle_since.elapsed() >= OFFER_AFTER_IDLE;
            if offer && inner.offer_quiescence(id) {
                spins = 0;
            }
            // Starvation backoff: brief yields, then timed parking.
            spins += 1;
            if spins < SPINS_BEFORE_PARK {
                std::thread::yield_now();
            } else {
                let cell = &inner.worker_stats[id];
                cell.parks.set(cell.parks.get() + 1);
                let park_start = inner
                    .obs
                    .as_deref()
                    .filter(|o| o.events_enabled())
                    .map(|_| ttg_sync::clock::now_ns());
                inner.sleeper_count.fetch_add(1, Ordering::SeqCst);
                let mut guard = inner.sleep_lock.lock();
                // Re-check wakeup conditions under the lock to avoid a
                // missed notify between the checks above and the wait.
                let mut woken = false;
                if inner.sched.pending_estimate() == 0
                    && inner.injection_len.load(Ordering::Acquire) == 0
                    && !inner.corked.load(Ordering::SeqCst)
                    && !inner.shutdown.load(Ordering::Acquire)
                {
                    let wait = inner.sleep_cv.wait_for(&mut guard, PARK_TIMEOUT);
                    woken = !wait.timed_out();
                }
                drop(guard);
                inner.sleeper_count.fetch_sub(1, Ordering::SeqCst);
                // Woken, not timed out, while the wave runs rounds (the
                // fence's wake-up): offer at once and spin before
                // parking, so the rounds close in microseconds and not
                // one park timeout each.
                if woken && inner.wave.round() > 0 {
                    spins = OFFER_AFTER_SPINS;
                }
                if let (Some(obs), Some(start)) = (inner.obs.as_deref(), park_start) {
                    // Consecutive park timeouts coalesce into one event.
                    let now = ttg_sync::clock::now_ns();
                    obs.record_park(id, start, now.saturating_sub(start));
                }
            }
        }
    }
}

/// Raw pointer to a task header, for queue round-trips.
pub(crate) fn _task_ptr(task: &RawTask) -> NonNull<TaskHeader> {
    task.0
}
