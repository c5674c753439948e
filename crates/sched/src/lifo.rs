//! LL and LLP — the local LIFO, without and with priorities (paper
//! Sections III-B and IV-C).
//!
//! "An example of a queue that provides low-contention but is missing
//! support for priorities is the local-lifo (LL) scheduler where each
//! thread owns a LIFO into which tasks are pushed and from which other
//! threads may steal tasks in case of starvation." LLP keeps that LIFO's
//! chain sorted by priority; everything else is one protocol, so both
//! are [`Lifo`], told apart by its `PRIORITIES` parameter. The two
//! invariants it exploits:
//!
//! 1. **Only the owning thread publishes** into a queue (`push`,
//!    `push_chain`, and the deposit of a removed chain's remainder in
//!    `pop_from`). Hence once the head is null, nobody but the owner can
//!    make it non-null — a plain release store suffices to publish.
//! 2. Thieves only ever CAS a *non-null* head to null (detach-whole).
//!    They never read a node's links without having won that CAS, so no
//!    ABA or use-after-free is possible (see the crate docs for the full
//!    argument and the divergence from PaRSEC's steal-one).
//!
//! A `head_prio` hint lets the LLP owner decide between the single-CAS
//! fast push and the detach/merge slow path without touching any node
//! memory it does not own. For the owner the hint is exact, since only
//! the owner publishes a head and stores its priority with it. LL has no
//! order to keep: every push is the fast path, and the hint is never
//! written or read.

use crate::chain::SortedChain;
use crate::{Count, PopSource, Priority, QueueStats, SchedNode, TaskQueue, Workers};
use std::ptr::NonNull;
use std::sync::atomic::{AtomicI32, AtomicPtr, Ordering};
use ttg_sync::counted::note_rmw;

/// The local-LIFO scheduler (LL): priorities are ignored.
pub type Ll = Lifo<false>;
/// The Local-LIFO-with-Priorities scheduler (the paper's LLP).
pub type Llp = Lifo<true>;

/// One worker's LIFO.
#[derive(Debug)]
struct Head {
    head: AtomicPtr<SchedNode>,
    /// Priority of the node `head` points at (LLP only).
    head_prio: AtomicI32,
}

impl Head {
    /// Attempts to detach the entire chain. On success the caller owns
    /// every node reachable from the returned head. `None` means the
    /// head is null now: a strong CAS fails only if a thief detached it.
    #[inline]
    fn try_detach(&self) -> Option<NonNull<SchedNode>> {
        let h = self.head.load(Ordering::Acquire);
        if h.is_null() {
            return None;
        }
        note_rmw();
        let detached = self.head.compare_exchange(
            h,
            std::ptr::null_mut(),
            Ordering::Acquire,
            Ordering::Relaxed,
        );
        // SAFETY: `h` is non-null (checked above).
        detached
            .is_ok()
            .then(|| unsafe { NonNull::new_unchecked(h) })
    }

    /// Racy: 1 when the LIFO holds something, 0 when it is empty. Its
    /// length is unobservable without detaching the chain.
    fn occupied(&self) -> usize {
        usize::from(!self.head.load(Ordering::Relaxed).is_null())
    }
}

/// The local LIFO with stealing; [`Ll`] and [`Llp`] are its two forms.
/// With `PRIORITIES` each chain is kept sorted, highest first.
#[derive(Debug)]
pub struct Lifo<const PRIORITIES: bool> {
    workers: Workers<Head>,
}

impl<const PRIORITIES: bool> Lifo<PRIORITIES> {
    /// Creates the scheduler with one LIFO per worker.
    pub fn new(workers: usize) -> Self {
        Lifo {
            workers: Workers::new(workers, || Head {
                head: AtomicPtr::new(std::ptr::null_mut()),
                head_prio: AtomicI32::new(Priority::MIN),
            }),
        }
    }

    /// True when a node of `prio` pushed onto head `h` keeps the chain
    /// sorted — it outranks or equals the head, or there is none — so
    /// one CAS prepends it and it is the next node popped. Always true
    /// without priorities. Owner-only.
    #[inline]
    fn takes_in_front(q: &Head, h: *mut SchedNode, prio: Priority) -> bool {
        !PRIORITIES || h.is_null() || prio >= q.head_prio.load(Ordering::Relaxed)
    }

    /// Publishes the owned list `first..=last` in front of `h`, the head
    /// last seen, with one CAS. Owner-only. A lost CAS means a thief
    /// detached the chain, so the head is null and the retry prepends
    /// to nothing — still in front, still sorted.
    ///
    /// # Safety
    ///
    /// The caller owns every node of the list, `last` ends it, and
    /// [`Self::takes_in_front`] holds for `h` and the list's last
    /// priority, `prio` being its first.
    #[inline]
    unsafe fn prepend(
        q: &Head,
        mut h: *mut SchedNode,
        first: *mut SchedNode,
        last: *mut SchedNode,
        prio: Priority,
    ) {
        loop {
            // SAFETY: we own the list until the CAS succeeds.
            unsafe { (*last).set_next(h) };
            note_rmw();
            match q
                .head
                .compare_exchange_weak(h, first, Ordering::Release, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(now) => h = now,
            }
        }
        if PRIORITIES {
            q.head_prio.store(prio, Ordering::Relaxed);
        }
    }

    /// Publishes a privately owned list (null = empty) into a null head
    /// with one release store. Owner-only (invariant 1).
    ///
    /// # Safety
    ///
    /// The head is null and the caller owns every node reachable from
    /// `first`; with priorities the list is sorted.
    #[inline]
    unsafe fn reattach(q: &Head, first: *mut SchedNode) {
        debug_assert!(q.head.load(Ordering::Relaxed).is_null());
        if first.is_null() {
            // Nothing to publish; the stale hint is harmless (pushes
            // onto a null head ignore it).
            return;
        }
        if PRIORITIES {
            // SAFETY: we own the list (caller contract).
            let prio = unsafe { (*first).priority };
            q.head_prio.store(prio, Ordering::Relaxed);
        }
        // Release store: publishes all link writes to future detachers.
        q.head.store(first, Ordering::Release);
    }

    /// Keeps the first node of a chain just detached by `worker` (from
    /// its own queue or a victim's) and deposits the rest into `q`,
    /// `worker`'s queue: O(1), no CAS. Owner-only: `worker`'s head is
    /// null, since the owner just detached it or a thief's own detach
    /// just failed, and only `worker` publishes there.
    #[inline]
    fn keep_first(q: &Head, first: NonNull<SchedNode>) -> NonNull<SchedNode> {
        // SAFETY: the detach gave us the whole chain, and `worker`'s head
        // is null (see above); a chain removed from a sorted queue is
        // sorted.
        unsafe {
            Self::reattach(q, first.as_ref().next());
            first.as_ref().set_next(std::ptr::null_mut());
        }
        first
    }

    /// Owner-only slow path (LLP): the queue's head outranks the tail of
    /// `incoming`, so detach, merge and re-attach.
    fn push_slow(&self, worker: usize, incoming: SortedChain) {
        let w = &self.workers[worker];
        w.stats.slow_pushes.bump();
        let merged = match w.queue.try_detach() {
            Some(head) => {
                w.stats.detach_merges.with(Count::bump);
                // SAFETY: detach gave us exclusive ownership; queue
                // chains are maintained sorted.
                let mut existing = unsafe { SortedChain::from_raw(head.as_ptr()) };
                // `incoming` is newer: at equal priority it must land in
                // front (merge's `other` wins ties).
                existing.merge(incoming);
                existing
            }
            // A thief took the chain since the caller looked: the head is
            // null, and only we publish there.
            None => incoming,
        };
        let (first, _last, _len) = merged.into_raw();
        // SAFETY: the head is null (detached by us or by a thief) and the
        // merged chain is ours and sorted.
        unsafe { Self::reattach(&w.queue, first) };
    }
}

// SAFETY: the detach/deposit protocol delivers each node exactly once:
// every node leaves a queue only via a won detach CAS, and a deposited
// remainder holds each node at most once.
unsafe impl<const PRIORITIES: bool> TaskQueue for Lifo<PRIORITIES> {
    fn push(&self, worker: usize, node: NonNull<SchedNode>) {
        let q = &self.workers[worker].queue;
        // SAFETY: we own `node` until it is published.
        let prio = unsafe { node.as_ref().priority };
        let h = q.head.load(Ordering::Acquire);
        if Self::takes_in_front(q, h, prio) {
            // SAFETY: `node` is ours and ends the one-node list; it
            // outranks or equals the head (new-before-equal).
            unsafe { Self::prepend(q, h, node.as_ptr(), node.as_ptr(), prio) };
        } else {
            let mut chain = SortedChain::new();
            chain.insert(node);
            self.push_slow(worker, chain);
        }
    }

    fn push_chain(&self, worker: usize, chain: SortedChain) -> bool {
        let (Some(first_prio), Some(last_prio)) = (chain.head_priority(), chain.tail_priority())
        else {
            return false;
        };
        let q = &self.workers[worker].queue;
        let h = q.head.load(Ordering::Acquire);
        if !Self::takes_in_front(q, h, last_prio) {
            self.push_slow(worker, chain);
            return true;
        }
        // Fast path: the whole bundle outranks the current head — link
        // its tail to the head and publish with one CAS.
        let (first, last, _len) = chain.into_raw();
        // SAFETY: the chain is ours, `last` ends it, and its lowest
        // priority outranks or equals the head.
        unsafe { Self::prepend(q, h, first, last, first_prio) };
        false
    }

    fn pop_from(&self, worker: usize) -> Option<(NonNull<SchedNode>, PopSource)> {
        let w = &self.workers[worker];
        if let Some(first) = w.queue.try_detach() {
            w.stats.local_pops.bump();
            return Some((Self::keep_first(&w.queue, first), PopSource::Local));
        }
        let (first, victim) = self.workers.steal(worker, Head::try_detach)?;
        Some((Self::keep_first(&w.queue, first), PopSource::Steal(victim)))
    }

    fn pops_next(&self, worker: usize, priority: Priority) -> bool {
        // `push`'s fast-path test: such a node becomes the head, and
        // the head is what the owner pops.
        let q = &self.workers[worker].queue;
        Self::takes_in_front(q, q.head.load(Ordering::Relaxed), priority)
    }

    fn workers(&self) -> usize {
        self.workers.len()
    }

    fn pending_estimate(&self) -> usize {
        // Cheap racy signal: count non-empty queues (used only by idle
        // heuristics, never for termination decisions).
        self.workers.iter().map(|w| w.queue.occupied()).sum()
    }

    fn worker_depth(&self, worker: usize) -> usize {
        self.workers.get(worker).map_or(0, |w| w.queue.occupied())
    }

    fn stats(&self) -> QueueStats {
        self.workers.stats()
    }
}
