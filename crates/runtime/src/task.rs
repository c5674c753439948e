//! Intrusive task objects.
//!
//! A task is any struct whose **first field** (under `#[repr(C)]`) is a
//! [`TaskHeader`]. The header carries the intrusive scheduler link and a
//! vtable pointer; the runtime never knows the concrete type. This is the
//! same layout discipline PaRSEC uses (`parsec_task_t` embeds the list
//! item) and is what lets task objects come from the per-thread memory
//! pools of Section IV-E with zero per-dispatch allocation.

use crate::runtime::HandlerFn;
use crate::worker::WorkerCtx;
use std::ptr::NonNull;
use ttg_mempool::{FreeListPool, PoolBox};
use ttg_sched::{Priority, SchedNode};

/// The vtable every task type provides.
pub struct TaskVTable {
    /// Executes the task and disposes of it (drops payload, returns
    /// memory to its pool, performs the executed-task accounting the
    /// concrete type owes). Called exactly once.
    pub execute: unsafe fn(NonNull<TaskHeader>, &mut WorkerCtx<'_>),
    /// Disposes of the task *without* executing it (shutdown/abort path).
    pub dispose: unsafe fn(NonNull<TaskHeader>),
    /// Human-readable name of the task's type/template (diagnostics).
    pub name: &'static str,
}

impl std::fmt::Debug for TaskVTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskVTable")
            .field("name", &self.name)
            .finish()
    }
}

/// Common header embedded at offset 0 of every task object.
#[derive(Debug)]
#[repr(C)]
pub struct TaskHeader {
    /// Intrusive scheduler link (must be first within the header, which
    /// must itself be first in the task object).
    pub node: SchedNode,
    /// Dispatch table for this task's concrete type.
    pub vtable: &'static TaskVTable,
    /// When the task became ready (was scheduled), monotonic ns; `0` if
    /// never stamped (ready-delay histograms disabled). Written by the
    /// scheduling thread before the task is published to a queue, read
    /// by the executing worker — the queue hand-off orders the accesses.
    ready_ns: std::cell::Cell<u64>,
    /// Request-scoped span context (`crate::obs::spans`); zero-sized unless
    /// the `obs` feature is on. Same single-stamper-before-publication
    /// discipline as `ready_ns`.
    span: crate::obs::SpanCell,
}

impl TaskHeader {
    /// Creates a header with the given priority and vtable.
    pub fn new(priority: Priority, vtable: &'static TaskVTable) -> Self {
        TaskHeader {
            node: SchedNode::new(priority),
            vtable,
            ready_ns: std::cell::Cell::new(0),
            span: crate::obs::SpanCell::new(std::cell::Cell::new(0)),
        }
    }

    /// Stamps the moment the task became runnable (for the ready-delay
    /// histogram). Called only while the stamper exclusively owns the
    /// task, before queue publication.
    #[inline]
    pub fn stamp_ready(&self, now_ns: u64) {
        self.ready_ns.set(now_ns);
    }

    /// The stamped ready time, or 0 if never stamped.
    #[inline]
    pub fn ready_ns(&self) -> u64 {
        self.ready_ns.get()
    }

    /// Stamps the request-scoped span context (nothing without the
    /// `obs` feature). Same ownership contract as
    /// [`TaskHeader::stamp_ready`].
    #[inline]
    pub fn stamp_span(&self, span: u64) {
        self.span.with(|c| c.set(span));
    }

    /// Stamps the span only if the task is still unattributed — used by
    /// scheduling paths that inherit the scheduler's span without
    /// overriding an explicit instance stamp.
    #[inline]
    pub fn stamp_span_if_unset(&self, span: u64) {
        self.span.with(|c| {
            if c.get() == 0 {
                c.set(span);
            }
        });
    }

    /// The stamped span context, or 0 (also always 0 with `obs` off).
    #[inline]
    pub fn span(&self) -> u64 {
        self.span.with(std::cell::Cell::get).unwrap_or(0)
    }

    /// The task's scheduling priority.
    pub fn priority(&self) -> Priority {
        self.node.priority
    }

    /// Recovers the header pointer from a scheduler node pointer (they
    /// are the same address by layout).
    ///
    /// # Safety
    ///
    /// `node` must be the `node` field of a live `TaskHeader`.
    pub unsafe fn from_node(node: NonNull<SchedNode>) -> NonNull<TaskHeader> {
        node.cast()
    }

    /// The scheduler node pointer for this header.
    pub fn as_node(task: NonNull<TaskHeader>) -> NonNull<SchedNode> {
        task.cast()
    }
}

/// An owned, type-erased task pointer traveling through the runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawTask(pub NonNull<TaskHeader>);

// SAFETY: tasks are owned by exactly one holder at a time; the queues'
// synchronization transfers ownership between threads.
unsafe impl Send for RawTask {}

impl RawTask {
    /// The task's priority.
    pub fn priority(&self) -> Priority {
        // SAFETY: the pointer is valid while the RawTask is owned.
        unsafe { self.0.as_ref().priority() }
    }

    /// Executes (and thereby consumes) the task.
    ///
    /// # Safety
    ///
    /// Caller must own the task and never touch it again.
    pub unsafe fn execute(self, ctx: &mut WorkerCtx<'_>) {
        // SAFETY: forwarded contract.
        unsafe { (self.0.as_ref().vtable.execute)(self.0, ctx) }
    }

    /// Disposes of the task without executing it.
    ///
    /// # Safety
    ///
    /// Caller must own the task and never touch it again.
    pub unsafe fn dispose(self) {
        // SAFETY: forwarded contract.
        unsafe { (self.0.as_ref().vtable.dispose)(self.0) }
    }
}

/// A heap-allocated closure task — the generic path used by
/// [`crate::Runtime::submit`]. TTG's own task shells use pooled storage
/// instead (see `ttg-core`).
#[repr(C)]
pub(crate) struct ClosureTask {
    header: TaskHeader,
    #[allow(clippy::type_complexity)]
    job: Option<Box<dyn FnOnce(&mut WorkerCtx<'_>) + Send>>,
}

impl ClosureTask {
    const VTABLE: TaskVTable = TaskVTable {
        execute: Self::execute,
        dispose: Self::dispose,
        name: "closure",
    };

    /// Allocates a closure task, returning its erased pointer.
    pub(crate) fn allocate(
        priority: Priority,
        job: impl FnOnce(&mut WorkerCtx<'_>) + Send + 'static,
    ) -> RawTask {
        let boxed = Box::new(ClosureTask {
            header: TaskHeader::new(priority, &Self::VTABLE),
            job: Some(Box::new(job)),
        });
        // SAFETY: Box::into_raw never returns null.
        RawTask(unsafe { NonNull::new_unchecked(Box::into_raw(boxed)).cast() })
    }

    unsafe fn execute(task: NonNull<TaskHeader>, ctx: &mut WorkerCtx<'_>) {
        // SAFETY: layout contract — the header is the first field.
        let mut boxed = unsafe { Box::from_raw(task.as_ptr() as *mut ClosureTask) };
        let job = boxed.job.take().expect("closure task executed twice");
        drop(boxed); // free before running: the job may run for a while
        job(ctx);
    }

    unsafe fn dispose(task: NonNull<TaskHeader>) {
        // SAFETY: layout contract.
        drop(unsafe { Box::from_raw(task.as_ptr() as *mut ClosureTask) });
    }
}

/// A framed active message as a ready task: the shell a message enters
/// the destination's injection queue in, drawn from that runtime's one
/// pool (Section IV-E: the node goes back to the slot it came from,
/// whichever worker retires it, so the inserting and the executing
/// thread never meet in the allocator). The span rides in the header.
#[repr(C)]
pub(crate) struct MsgTask {
    header: TaskHeader,
    /// The registered handler, resolved at insertion. The registry is
    /// append-only and, like `pool`, lives in the destination's `Inner`,
    /// which outlives every task queued on it.
    run: NonNull<HandlerFn>,
    payload: Vec<u8>,
    pool: NonNull<FreeListPool<MsgTask>>,
}

// SAFETY: a shell has one owner at a time and moves between threads
// through the queues; it points at a `Sync` pool and a `Sync` handler.
unsafe impl Send for MsgTask {}

impl MsgTask {
    const VTABLE: TaskVTable = TaskVTable {
        execute: Self::execute,
        dispose: Self::dispose,
        name: "message",
    };

    /// Builds the task for one message, from any thread (the pool's
    /// shared slot). `now_ns` is the insertion time, 0 when no recorder
    /// wants it.
    pub(crate) fn allocate(
        pool: &FreeListPool<MsgTask>,
        priority: Priority,
        run: &HandlerFn,
        payload: Vec<u8>,
        span: u64,
        now_ns: u64,
    ) -> RawTask {
        let shell = pool.alloc(MsgTask {
            header: TaskHeader::new(priority, &Self::VTABLE),
            run: NonNull::from(run),
            payload,
            pool: NonNull::from(pool),
        });
        shell.header.stamp_span(span);
        shell.header.stamp_ready(now_ns);
        RawTask(shell.into_raw().cast())
    }

    /// Resumes ownership of a shell that [`MsgTask::allocate`] released.
    ///
    /// # Safety
    ///
    /// `task` is a live message task the caller owns and never uses again.
    unsafe fn reclaim<'p>(task: NonNull<TaskHeader>) -> PoolBox<'p, MsgTask> {
        let shell = task.cast::<MsgTask>();
        // SAFETY: the header is the shell's first field (`repr(C)`), the
        // shell came out of `pool` by `into_raw`, and the pool outlives it.
        unsafe { PoolBox::from_raw(shell.as_ref().pool.as_ref(), shell) }
    }

    unsafe fn execute(task: NonNull<TaskHeader>, ctx: &mut WorkerCtx<'_>) {
        // SAFETY: forwarded contract.
        let mut shell = unsafe { Self::reclaim(task) };
        let (run, payload) = (shell.run, std::mem::take(&mut shell.payload));
        let inserted_ns = shell.header.ready_ns();
        drop(shell); // back to the pool before the handler runs
        if let Some(obs) = ctx.inner.obs.as_deref().filter(|o| o.histograms_enabled()) {
            let waited = ttg_sync::clock::now_ns().saturating_sub(inserted_ns);
            obs.record_message_latency(ctx.id(), waited);
        }
        // SAFETY: the registry of the runtime `ctx` works for keeps the
        // handler alive (see the field).
        let run = unsafe { run.as_ref() };
        run(ctx, payload)
    }

    unsafe fn dispose(task: NonNull<TaskHeader>) {
        // SAFETY: forwarded contract.
        drop(unsafe { Self::reclaim(task) });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_node_roundtrip() {
        let vt: &'static TaskVTable = &TaskVTable {
            execute: |_, _| (),
            dispose: |_| (),
            name: "test",
        };
        let h = Box::new(TaskHeader::new(7, vt));
        let ptr = NonNull::from(&*h);
        let node = TaskHeader::as_node(ptr);
        // SAFETY: node came from a live header.
        let back = unsafe { TaskHeader::from_node(node) };
        assert_eq!(back, ptr);
        assert_eq!(unsafe { back.as_ref() }.priority(), 7);
        assert_eq!(unsafe { back.as_ref() }.vtable.name, "test");
    }

    #[test]
    fn span_stamps_once_and_follows_the_switch() {
        let gate = |v: u64| if ttg_sync::OBS { v } else { 0 };
        let vt: &'static TaskVTable = &TaskVTable {
            execute: |_, _| (),
            dispose: |_| (),
            name: "test",
        };
        let h = TaskHeader::new(0, vt);
        assert_eq!(h.span(), 0);
        h.stamp_span_if_unset(5);
        h.stamp_span_if_unset(6);
        assert_eq!(h.span(), gate(5), "an explicit stamp is not overridden");
        h.stamp_span(7);
        assert_eq!(h.span(), gate(7));
    }

    /// The off-configuration contract, which is what `benchmark/`
    /// measures: every recorder is zero-sized, a task header is exactly
    /// scheduler link + vtable + ready stamp (32 bytes, as before spans
    /// existed), and noting and recording leave no trace.
    #[cfg(not(feature = "obs"))]
    #[test]
    fn observability_off_is_zero_sized_and_leaves_no_trace() {
        use std::mem::size_of;
        assert_eq!(size_of::<ttg_sync::ContentionCounter>(), 0);
        assert_eq!(size_of::<crate::obs::SpanCell>(), 0);
        assert_eq!(size_of::<crate::obs::WireObs>(), 0);
        assert_eq!(size_of::<TaskHeader>(), 32);

        let wire = crate::obs::WireObs::new(4);
        wire.record_write(2_000, 64, 1);
        wire.link_tx(1, 64);
        wire.resend_delta(1, 64);
        assert!(wire.snapshot().is_empty());
        assert_eq!(crate::obs::WireObs::now_ns(), 0, "no clock read");

        let counter = ttg_sync::ContentionCounter::new();
        counter.add(41);
        assert_eq!(counter.get(), 0);
        *ttg_sync::SpinLock::new(0u32).lock() += 1;
        assert_eq!(
            ttg_sync::lock_contention(),
            ttg_sync::LockContention::default()
        );
    }

    #[test]
    fn closure_task_disposes_without_running() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let ran = Arc::new(AtomicBool::new(false));
        let r2 = Arc::clone(&ran);
        let t = ClosureTask::allocate(0, move |_| r2.store(true, Ordering::Relaxed));
        // SAFETY: we own the task.
        unsafe { t.dispose() };
        assert!(!ran.load(Ordering::Relaxed));
    }
}
