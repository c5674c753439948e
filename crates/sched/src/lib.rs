//! # ttg-sched — task schedulers: LFQ, LL, and LLP
//!
//! Reimplements the three scheduler designs the paper discusses
//! (Sections III-B and IV-C):
//!
//! * [`Lfq`] — PaRSEC's default *local flat queues*: each worker owns a
//!   small bounded buffer of task slots; overflow goes to a **global FIFO
//!   protected by a lock**, which is the contention bottleneck Figure 6
//!   exposes ("almost all schedule operations cause contention on the
//!   lock protecting the global FIFO").
//! * [`Ll`] — *local LIFO*: per-worker Treiber-style LIFO with stealing;
//!   low contention but no priority support.
//! * [`Llp`] — the paper's *Local LIFO with Priorities*: per-worker LIFO
//!   kept sorted by priority. The owner pushes with a single CAS when the
//!   new task's priority is at least the head's; otherwise it *detaches*
//!   the head (one CAS, marking the LIFO empty), merges the new task(s)
//!   into the now-private list, and *re-attaches* with a release store —
//!   legal because **only the owning thread may push** into its queue
//!   (the paper's observation (i)).
//!
//! ## Divergence from PaRSEC's LLP, and why it is safe
//!
//! PaRSEC steals a single element by CASing the head to `head->next`,
//! relying on its tagged-pointer lists to dodge ABA. This port instead
//! makes *every* removal (owner pop and thief steal) use the same
//! detach-whole-chain CAS the paper already requires for ordered
//! insertion: the remover atomically takes the entire chain (head → null),
//! keeps the first task, and re-publishes the rest — the owner with a
//! release store, a thief by merging the remainder into *its own* queue
//! (which it owns, so the owner-push path applies). Consequences:
//!
//! * No node's `next` pointer is ever read unless the reader won the
//!   detach CAS and thus owns the whole chain — no ABA, no use-after-free,
//!   no tagged pointers needed.
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
//! share obligations: nodes must stay allocated until popped, `push`
//! must be called from the thread that owns `worker`'s queue, and every
//! pushed node is delivered exactly once.

#![warn(missing_docs)]

pub mod chain;
pub mod lfq;
pub mod ll;
pub mod llp;

pub use chain::SortedChain;
pub use lfq::Lfq;
pub use ll::Ll;
pub use llp::Llp;

use std::cell::UnsafeCell;
use std::ptr::NonNull;

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
unsafe impl Sync for SchedNode {}

impl SchedNode {
    /// Creates a detached node with the given priority.
    pub fn new(priority: Priority) -> Self {
        SchedNode {
            next: UnsafeCell::new(std::ptr::null_mut()),
            priority,
        }
    }

    /// Reads the next link. Caller must own the node.
    #[inline]
    pub(crate) unsafe fn next(&self) -> *mut SchedNode {
        unsafe { *self.next.get() }
    }

    /// Writes the next link. Caller must own the node.
    #[inline]
    pub(crate) unsafe fn set_next(&self, next: *mut SchedNode) {
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

/// A work-distribution queue for intrusive task nodes.
///
/// # Safety
///
/// Implementations must deliver every pushed node exactly once and must
/// not access a node after handing it out. Callers must (a) keep nodes
/// alive until popped, (b) call `push`/`push_chain` for `worker` only
/// from the thread that owns that worker index, and (c) pass `worker`
/// indices `< workers()`.
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
    /// came from so callers can trace steals.
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
    /// Local flat queues + global overflow FIFO (PaRSEC default).
    Lfq {
        /// Bounded-buffer capacity per worker.
        buffer: usize,
    },
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
            SchedKind::Lfq { buffer } => Box::new(Lfq::new(workers, buffer)),
            SchedKind::Ll => Box::new(Ll::new(workers)),
            SchedKind::Llp => Box::new(Llp::new(workers)),
        }
    }
}

#[cfg(test)]
pub(crate) mod test_util;

#[cfg(test)]
mod tests;
