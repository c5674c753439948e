//! # ttg-sched — task schedulers: LFQ, LL, and LLP
//!
//! Reimplements the three scheduler designs the paper discusses
//! (Sections III-B and IV-C):
//!
//! * [`Lfq`] — PaRSEC's default *local flat queues*: each worker owns a
//!   small bounded buffer of task slots; overflow goes to a **global FIFO
//!   protected by a lock**, which is the contention bottleneck Figure 6
//!   exposes ("almost all schedule operations cause contention on the
//!   lock protecting the global FIFO"). Thieves probe the other buffers
//!   in flat ring order, as PaRSEC's LFQ does within one domain.
//! * [`Ll`] — *local LIFO*: per-worker LIFO with stealing; low
//!   contention but no priority support.
//! * [`Llp`] — the paper's *Local LIFO with Priorities*: per-worker LIFO
//!   kept sorted by priority. The owner pushes with a single CAS when the
//!   new task's priority is at least the head's; otherwise it *detaches*
//!   the head (one CAS, marking the LIFO empty), merges the new task(s)
//!   into the now-private list, and *re-attaches* with a release store —
//!   legal because **only the owning thread may push** into its queue
//!   (the paper's observation (i)).
//!
//! LL and LLP are one protocol, [`Lifo`], that differs only in whether
//! the chain is kept sorted. All three queues are built on one
//! per-worker array (`Workers`): a queue and a block of counters per
//! worker, the one steal loop and the one sum into [`QueueStats`].
//!
//! ## Divergence from PaRSEC's LLP, and why it is safe
//!
//! PaRSEC steals a single element by CASing the head to `head->next`,
//! relying on its tagged-pointer lists to dodge ABA. This port instead
//! makes *every* removal (owner pop and thief steal) use the same
//! detach-whole-chain CAS the paper already requires for ordered
//! insertion: the remover atomically takes the entire chain (head → null),
//! keeps the first task, and deposits the rest into *its own* queue with
//! one release store. Consequences:
//!
//! * No node's `next` pointer is ever read unless the reader won the
//!   detach CAS and thus owns the whole chain — no ABA, no use-after-free,
//!   no tagged pointers needed.
//! * The deposit is O(1) and needs no CAS: the remover's own head is
//!   null — the owner just detached it, and a thief's own detach just
//!   failed — and only the remover publishes there, so nothing can make
//!   it non-null before the store. This is why `pop_from` is owner-only,
//!   like `push`.
//! * The atomic-operation count per task is unchanged: one CAS to push,
//!   one CAS to pop (the model's N_S = 2, Section IV-E).
//! * Stealing moves the victim's whole backlog to the thief, which is
//!   more aggressive than PaRSEC's steal-one but preserves priority order
//!   (chains stay sorted) and the low-contention property the paper
//!   measures.
//!
//! ## Contract
//!
//! Queues store intrusive [`SchedNode`] headers embedded in task objects.
//! Implementations are `unsafe trait`s because callers and implementors
//! share obligations: nodes must stay allocated until popped, `push`,
//! `push_chain` and `pop_from` must be called from the thread that owns
//! `worker`'s queue, and every pushed node is delivered exactly once.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(clippy::undocumented_unsafe_blocks)]

pub mod chain;
pub mod lfq;
pub mod lifo;

pub use chain::SortedChain;
pub use lfq::Lfq;
pub use lifo::{Lifo, Ll, Llp};

use std::cell::UnsafeCell;
use std::ops::Deref;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicUsize, Ordering};
use ttg_sync::{CachePadded, Gated};

/// Priority type: higher runs first.
pub type Priority = i32;

/// Intrusive scheduler header. Task objects embed one as their first
/// field (`#[repr(C)]`) so queues can link tasks without allocating.
#[derive(Debug)]
#[repr(C)]
pub struct SchedNode {
    /// Next node in whatever chain this node currently belongs to.
    /// Plain (non-atomic) storage: a node's `next` is only accessed by
    /// the thread that currently owns the node — ownership transfers are
    /// synchronized by the queue-head CAS/acquire-release pairs.
    next: UnsafeCell<*mut SchedNode>,
    /// Scheduling priority; set before pushing, read-only afterwards.
    pub priority: Priority,
}

// SAFETY: a SchedNode is inert data; all shared access is mediated by the
// queues' head synchronization.
unsafe impl Send for SchedNode {}
// SAFETY: as for `Send`: `next` is only touched by the node's owner.
unsafe impl Sync for SchedNode {}

impl SchedNode {
    /// Creates a detached node with the given priority.
    pub fn new(priority: Priority) -> Self {
        SchedNode {
            next: UnsafeCell::new(std::ptr::null_mut()),
            priority,
        }
    }

    /// Reads the next link.
    ///
    /// # Safety
    ///
    /// The caller must own the node.
    #[inline]
    pub(crate) unsafe fn next(&self) -> *mut SchedNode {
        // SAFETY: the owner is the only thread touching `next`.
        unsafe { *self.next.get() }
    }

    /// Writes the next link.
    ///
    /// # Safety
    ///
    /// The caller must own the node.
    #[inline]
    pub(crate) unsafe fn set_next(&self, next: *mut SchedNode) {
        // SAFETY: the owner is the only thread touching `next`.
        unsafe { *self.next.get() = next }
    }
}

impl Default for SchedNode {
    fn default() -> Self {
        Self::new(0)
    }
}

/// Where a popped task came from, reported by [`TaskQueue::pop_from`]
/// so observability layers can attribute work movement without the
/// queue knowing anything about tracing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PopSource {
    /// The worker's own queue/buffer.
    Local,
    /// Stolen from the given victim worker's queue.
    Steal(usize),
    /// Taken from a shared overflow structure (LFQ's global FIFO).
    Overflow,
}

/// Statistics a queue keeps about its own behaviour (all relaxed).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct QueueStats {
    /// Tasks taken from the caller's own queue/buffer.
    pub local_pops: usize,
    /// Tasks obtained by stealing from another worker.
    pub steals: usize,
    /// Tasks that went through a shared overflow structure (LFQ only).
    pub overflow: usize,
    /// Pushes that took the slow (detach/merge) path (LLP only).
    pub slow_pushes: usize,
    /// Victim queues probed while trying to steal. Zero unless the
    /// `obs` feature is enabled (as are the three below).
    pub steal_attempts: usize,
    /// Steal probes that found the victim empty (or lost the race).
    pub steal_empty: usize,
    /// Tasks popped back out of the shared overflow FIFO (LFQ only).
    pub overflow_pops: usize,
    /// Slow pushes that found a live chain and had to detach, merge and
    /// re-attach it (LLP only; the rest published into an empty queue).
    pub detach_merges: usize,
}

/// One counter of a [`WorkerStats`] block. Its only writer is the
/// worker that owns the block, so [`Count::bump`] is a load and a
/// store, not a read-modify-write: one per pop would be an atomic the
/// cost model (Eq. (1)) does not count.
#[derive(Debug, Default)]
pub(crate) struct Count(AtomicUsize);

impl Count {
    /// Adds one. Owner-only.
    #[inline]
    pub(crate) fn bump(&self) {
        self.0
            .store(self.0.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn get(&self) -> usize {
        self.0.load(Ordering::Relaxed)
    }
}

/// The counters behind [`QueueStats`] for one worker, written only by
/// that worker. The last four exist only with `obs`.
#[derive(Debug, Default)]
pub(crate) struct WorkerStats {
    pub(crate) local_pops: Count,
    pub(crate) steals: Count,
    pub(crate) overflow: Count,
    pub(crate) slow_pushes: Count,
    pub(crate) steal_attempts: Gated<Count>,
    pub(crate) steal_empty: Gated<Count>,
    pub(crate) overflow_pops: Gated<Count>,
    pub(crate) detach_merges: Gated<Count>,
}

/// One worker's slot: its queue and the counters only it writes.
#[derive(Debug)]
pub(crate) struct Worker<Q> {
    pub(crate) queue: Q,
    pub(crate) stats: WorkerStats,
}

/// The per-worker array every scheduler is built on, one cache-padded
/// [`Worker`] a worker.
#[derive(Debug)]
pub(crate) struct Workers<Q>(Box<[CachePadded<Worker<Q>>]>);

impl<Q> Workers<Q> {
    /// `workers` slots (at least one), each queue built by `make`.
    pub(crate) fn new(workers: usize, mut make: impl FnMut() -> Q) -> Self {
        Workers(
            (0..workers.max(1))
                .map(|_| {
                    CachePadded::new(Worker {
                        queue: make(),
                        stats: WorkerStats::default(),
                    })
                })
                .collect(),
        )
    }

    /// The one steal loop: `thief` probes every other worker's queue
    /// once, in ring order starting after itself, until `take` yields.
    /// Returns what was taken and from which victim, and keeps the
    /// thief's `steals`, `steal_attempts` and `steal_empty` counts.
    /// Owner-only for `thief`, like `pop_from`.
    #[inline]
    pub(crate) fn steal<T>(
        &self,
        thief: usize,
        mut take: impl FnMut(&Q) -> Option<T>,
    ) -> Option<(T, usize)> {
        let stats = &self.0[thief].stats;
        let n = self.0.len();
        for i in 1..n {
            let victim = (thief + i) % n;
            stats.steal_attempts.with(Count::bump);
            if let Some(taken) = take(&self.0[victim].queue) {
                stats.steals.bump();
                return Some((taken, victim));
            }
            stats.steal_empty.with(Count::bump);
        }
        None
    }

    /// Every worker's counters summed into one [`QueueStats`].
    pub(crate) fn stats(&self) -> QueueStats {
        let gated = |c: &Gated<Count>| c.with(Count::get).unwrap_or(0);
        let mut s = QueueStats::default();
        for w in self.0.iter() {
            let w = &w.stats;
            s.local_pops += w.local_pops.get();
            s.steals += w.steals.get();
            s.overflow += w.overflow.get();
            s.slow_pushes += w.slow_pushes.get();
            s.steal_attempts += gated(&w.steal_attempts);
            s.steal_empty += gated(&w.steal_empty);
            s.overflow_pops += gated(&w.overflow_pops);
            s.detach_merges += gated(&w.detach_merges);
        }
        s
    }
}

impl<Q> Deref for Workers<Q> {
    type Target = [CachePadded<Worker<Q>>];

    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

/// A work-distribution queue for intrusive task nodes.
///
/// # Safety
///
/// Implementations must deliver every pushed node exactly once and must
/// not access a node after handing it out. Callers must (a) keep nodes
/// alive until popped, (b) call `push`, `push_chain`, `pop_from` (and so
/// `pop`) and `pops_next` for `worker` only from the thread that owns
/// that worker index — the LIFOs deposit a removed chain's remainder
/// into `worker`'s head with a plain store, legal only while no other
/// thread can publish there — and (c) pass `worker` indices
/// `< workers()`.
pub unsafe trait TaskQueue: Send + Sync {
    /// Pushes one task into `worker`'s queue.
    fn push(&self, worker: usize, node: NonNull<SchedNode>);

    /// Pushes a pre-sorted bundle of tasks in one pass (the paper's
    /// mitigation for O(N) ordered insertion). Returns `true` when the
    /// push took a contended slow path (LLP's detach-merge-reattach),
    /// `false` on the one-CAS fast path — a tracing hint only.
    fn push_chain(&self, worker: usize, chain: SortedChain) -> bool;

    /// Takes the best eligible task for `worker`: its own queue first,
    /// then stealing, then any shared overflow. Reports where the task
    /// came from so callers can trace steals. Owner-only, like `push`.
    fn pop_from(&self, worker: usize) -> Option<(NonNull<SchedNode>, PopSource)>;

    /// [`Self::pop_from`] without the provenance.
    fn pop(&self, worker: usize) -> Option<NonNull<SchedNode>> {
        self.pop_from(worker).map(|(node, _)| node)
    }

    /// True when a task of `priority` that `worker` pushed now is the
    /// one its next [`Self::pop_from`] would return (a thief aside), so
    /// the owner may run it without the push and the pop — same order,
    /// no queue operation. Owner-only, like `push`. Default: never.
    fn pops_next(&self, _worker: usize, _priority: Priority) -> bool {
        false
    }

    /// Number of worker queues.
    fn workers(&self) -> usize;

    /// Racy estimate of queued tasks; for diagnostics/idle heuristics.
    fn pending_estimate(&self) -> usize;

    /// Racy depth of the shared overflow structure, if the scheduler has
    /// one (LFQ's global FIFO). Zero for purely local schedulers.
    fn overflow_depth(&self) -> usize {
        0
    }

    /// Racy per-worker ready-queue depth estimate, for the
    /// `worker_queue_depth` gauge. LFQ reports the occupied slots of the
    /// worker's bounded buffer; the LIFO schedulers report a 0/1
    /// emptiness indicator because chain length is not observable
    /// without detaching the chain.
    fn worker_depth(&self, _worker: usize) -> usize {
        0
    }

    /// Behaviour counters aggregated across workers.
    fn stats(&self) -> QueueStats;
}

/// Which scheduler to instantiate; consumed by the runtime's config.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedKind {
    /// Local flat queues + global overflow FIFO (PaRSEC default), with
    /// [`lfq::DEFAULT_BUFFER`] slots per worker.
    Lfq,
    /// Local LIFO with stealing, no priorities.
    Ll,
    /// Local LIFO with priorities (the paper's contribution).
    #[default]
    Llp,
}

impl SchedKind {
    /// Instantiates the scheduler for `workers` queues.
    pub fn build(self, workers: usize) -> Box<dyn TaskQueue> {
        match self {
            SchedKind::Lfq => Box::new(Lfq::new(workers, lfq::DEFAULT_BUFFER)),
            SchedKind::Ll => Box::new(Ll::new(workers)),
            SchedKind::Llp => Box::new(Llp::new(workers)),
        }
    }
}

#[cfg(test)]
pub(crate) mod test_util;

#[cfg(test)]
mod tests;
