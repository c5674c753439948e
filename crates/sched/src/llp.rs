//! LLP — Local LIFO with Priorities (paper Section IV-C).
//!
//! Each worker owns one lock-free LIFO whose chain is kept sorted by
//! priority. The two invariants the paper exploits:
//!
//! 1. **Only the owning thread pushes** into a queue. Hence once the
//!    owner detaches the head (CAS head→null), nobody can make the head
//!    non-null again until the owner re-attaches — a plain release store
//!    suffices for re-attachment.
//! 2. Thieves only ever CAS a *non-null* head to null (detach-whole).
//!    They never read a node's links without having won that CAS, so no
//!    ABA or use-after-free is possible (see the crate docs for the full
//!    argument and the divergence from PaRSEC's steal-one).
//!
//! A cache-padded `head_prio` hint lets the owner decide between the
//! single-CAS fast push and the detach/merge slow path without touching
//! any node memory it does not own. The hint may be stale; staleness only
//! affects ordering quality, never safety.

use crate::chain::SortedChain;
use crate::{Priority, QueueStats, SchedNode, TaskQueue};
use std::ptr::NonNull;
use std::sync::atomic::{AtomicI32, AtomicPtr, AtomicUsize, Ordering};
use ttg_sync::counted::note_rmw;
use ttg_sync::{CachePadded, ContentionCounter};

/// Per-worker queue state.
#[derive(Debug)]
struct WorkerQueue {
    head: AtomicPtr<SchedNode>,
    /// Priority of the node `head` points at (hint; may lag).
    head_prio: AtomicI32,
    /// Statistics, each written by the owning worker only (see
    /// [`bump`]) and summed by `stats`.
    local_pops: AtomicUsize,
    steals: AtomicUsize,
    slow_pushes: AtomicUsize,
}

/// Adds one to a counter whose only writer is the calling thread: a
/// load and a store, not an RMW — one per pop would be an atomic the
/// cost model does not count.
#[inline]
fn bump(counter: &AtomicUsize) {
    counter.store(counter.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
}

impl WorkerQueue {
    fn new() -> Self {
        WorkerQueue {
            head: AtomicPtr::new(std::ptr::null_mut()),
            head_prio: AtomicI32::new(Priority::MIN),
            local_pops: AtomicUsize::new(0),
            steals: AtomicUsize::new(0),
            slow_pushes: AtomicUsize::new(0),
        }
    }

    /// True when a node of `prio` pushed onto head `h` keeps the chain
    /// sorted — it outranks or equals the head, or there is none — so
    /// one CAS prepends it and it is the next node popped. Owner-only:
    /// for the owner the hint is exact, since only the owner publishes
    /// a head and stores its priority with it.
    #[inline]
    fn takes_in_front(&self, h: *mut SchedNode, prio: Priority) -> bool {
        h.is_null() || prio >= self.head_prio.load(Ordering::Relaxed)
    }

    /// Attempts to detach the entire chain. On success the caller owns
    /// every node reachable from the returned head.
    #[inline]
    fn try_detach(&self) -> Option<NonNull<SchedNode>> {
        let h = self.head.load(Ordering::Acquire);
        if h.is_null() {
            return None;
        }
        note_rmw();
        if self
            .head
            .compare_exchange(
                h,
                std::ptr::null_mut(),
                Ordering::Acquire,
                Ordering::Relaxed,
            )
            .is_ok()
        {
            // SAFETY: the successful CAS transferred ownership of the
            // whole chain to us.
            Some(unsafe { NonNull::new_unchecked(h) })
        } else {
            None
        }
    }

    /// Re-publishes a privately owned sorted chain. Owner-only: relies on
    /// the head being null and staying null (invariant 1).
    #[inline]
    fn reattach(&self, chain: SortedChain) {
        let (head, _tail, _len) = chain.into_raw();
        // SAFETY: the chain was privately owned until this call.
        unsafe { self.reattach_raw(head) };
    }

    /// [`WorkerQueue::reattach`] for a raw sorted list (null = empty).
    ///
    /// # Safety
    ///
    /// Owner-only, with the head detached; the caller owns every node
    /// reachable from `head`.
    #[inline]
    unsafe fn reattach_raw(&self, head: *mut SchedNode) {
        debug_assert!(self.head.load(Ordering::Relaxed).is_null());
        if head.is_null() {
            // Nothing to publish; the stale hint is harmless (pushes
            // onto a null head ignore it).
            return;
        }
        // SAFETY: we own the list (caller contract).
        let prio = unsafe { (*head).priority };
        self.head_prio.store(prio, Ordering::Relaxed);
        // Release store: publishes all link writes to future detachers.
        self.head.store(head, Ordering::Release);
    }
}

/// The Local-LIFO-with-Priorities scheduler.
#[derive(Debug)]
pub struct Llp {
    queues: Box<[CachePadded<WorkerQueue>]>,
    /// Contention counters: zero-sized unless `obs`.
    steal_attempts: ContentionCounter,
    steal_empty: ContentionCounter,
    detach_merges: ContentionCounter,
}

impl Llp {
    /// Creates an LLP scheduler with one queue per worker.
    pub fn new(workers: usize) -> Self {
        Llp {
            queues: (0..workers.max(1))
                .map(|_| CachePadded::new(WorkerQueue::new()))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            steal_attempts: ContentionCounter::new(),
            steal_empty: ContentionCounter::new(),
            detach_merges: ContentionCounter::new(),
        }
    }

    /// Owner-only slow path: detach, merge, re-attach.
    fn push_slow(&self, worker: usize, mut incoming: SortedChain) {
        let q = &self.queues[worker];
        bump(&q.slow_pushes);
        loop {
            match q.try_detach() {
                Some(head) => {
                    self.detach_merges.incr();
                    // SAFETY: detach gave us exclusive ownership; queue
                    // chains are maintained sorted.
                    let mut existing = unsafe { SortedChain::from_raw(head.as_ptr()) };
                    // `incoming` is newer: at equal priority it must land
                    // in front (merge's `other` wins ties).
                    existing.merge(incoming);
                    q.reattach(existing);
                    return;
                }
                None => {
                    // Queue is (now) empty: either it was empty all along
                    // or a thief detached everything. Either way the head
                    // is null and only we can publish.
                    if self.try_publish_if_null(worker, &mut incoming) {
                        return;
                    }
                    // A racing thief re-... cannot happen (thieves never
                    // publish to our head); but the head may be non-null
                    // again only if WE published — unreachable. Loop for
                    // robustness against spurious CAS failures.
                }
            }
        }
    }

    /// Publishes `chain` if the head is currently null. Owner-only.
    fn try_publish_if_null(&self, worker: usize, chain: &mut SortedChain) -> bool {
        let q = &self.queues[worker];
        if q.head.load(Ordering::Relaxed).is_null() {
            q.reattach(std::mem::take(chain));
            true
        } else {
            false
        }
    }
}

// SAFETY: see trait contract; the detach/re-attach protocol delivers each
// node exactly once (every node leaves the structure only via a won
// detach CAS, and re-published chains contain each node at most once).
unsafe impl TaskQueue for Llp {
    fn push(&self, worker: usize, node: NonNull<SchedNode>) {
        let q = &self.queues[worker];
        // SAFETY: we own `node` until it is published.
        let prio = unsafe { node.as_ref().priority };
        loop {
            let h = q.head.load(Ordering::Acquire);
            if q.takes_in_front(h, prio) {
                // Fast path: prepend with one CAS. Sortedness holds
                // because prio >= head's priority (new-before-equal).
                unsafe { node.as_ref().set_next(h) };
                note_rmw();
                if q.head
                    .compare_exchange_weak(h, node.as_ptr(), Ordering::Release, Ordering::Relaxed)
                    .is_ok()
                {
                    q.head_prio.store(prio, Ordering::Relaxed);
                    return;
                }
                // Head changed (thief detached or our hint was stale);
                // retry from scratch.
            } else {
                let mut chain = SortedChain::new();
                chain.insert(node);
                self.push_slow(worker, chain);
                return;
            }
        }
    }

    fn push_chain(&self, worker: usize, chain: SortedChain) -> bool {
        if chain.is_empty() {
            return false;
        }
        let q = &self.queues[worker];
        let h = q.head.load(Ordering::Acquire);
        // Fast path: the whole bundle outranks the current head — link
        // its tail to the head and publish with one CAS.
        if q.takes_in_front(h, chain.tail_priority().unwrap()) {
            let new_prio = chain.head_priority().unwrap();
            let (c_head, c_tail, _len) = chain.into_raw();
            // SAFETY: we own the chain until the CAS succeeds.
            unsafe { (*c_tail).set_next(h) };
            note_rmw();
            if q.head
                .compare_exchange(h, c_head, Ordering::Release, Ordering::Relaxed)
                .is_ok()
            {
                q.head_prio.store(new_prio, Ordering::Relaxed);
                return false;
            }
            // Lost the race; rebuild the chain and take the slow path.
            // SAFETY: tail.next currently dangles into the old head `h`;
            // from_raw would walk past our bundle. Sever it first.
            unsafe { (*c_tail).set_next(std::ptr::null_mut()) };
            let rebuilt = unsafe { SortedChain::from_raw(c_head) };
            self.push_slow(worker, rebuilt);
        } else {
            self.push_slow(worker, chain);
        }
        true
    }

    fn pop_from(&self, worker: usize) -> Option<(NonNull<SchedNode>, crate::PopSource)> {
        let q = &self.queues[worker];
        // Local queue first.
        if let Some(first) = q.try_detach() {
            // O(1): unlink the head and publish the rest as it is — no
            // walk to a tail and a length the pop never uses.
            // SAFETY: detach grants ownership of the whole chain, and we
            // are the owner of a now-detached queue.
            unsafe {
                q.reattach_raw(first.as_ref().next());
                first.as_ref().set_next(std::ptr::null_mut());
            }
            bump(&q.local_pops);
            return Some((first, crate::PopSource::Local));
        }
        // Steal: scan other workers starting after us.
        let n = self.queues.len();
        for i in 1..n {
            let victim = (worker + i) % n;
            self.steal_attempts.incr();
            if let Some(head) = self.queues[victim].try_detach() {
                // SAFETY: as above.
                let mut chain = unsafe { SortedChain::from_raw(head.as_ptr()) };
                let first = chain.pop_front().expect("stolen chain is non-empty");
                if !chain.is_empty() {
                    // We own `worker`'s queue, so the owner-push path is
                    // legal for depositing the remainder locally.
                    self.push_chain(worker, chain);
                }
                bump(&q.steals);
                return Some((first, crate::PopSource::Steal(victim)));
            }
            self.steal_empty.incr();
        }
        None
    }

    fn pops_next(&self, worker: usize, priority: Priority) -> bool {
        // `push`'s fast-path test: such a node becomes the head, and
        // the head is what the owner pops.
        let q = &self.queues[worker];
        q.takes_in_front(q.head.load(Ordering::Relaxed), priority)
    }

    fn workers(&self) -> usize {
        self.queues.len()
    }

    fn pending_estimate(&self) -> usize {
        // Cheap racy signal: count non-empty queues (used only by idle
        // heuristics, never for termination decisions).
        self.queues
            .iter()
            .filter(|q| !q.head.load(Ordering::Relaxed).is_null())
            .count()
    }

    fn worker_depth(&self, worker: usize) -> usize {
        // 0/1 emptiness indicator, same rationale as LL: chain length
        // is unobservable without detaching the chain.
        self.queues
            .get(worker)
            .map(|q| usize::from(!q.head.load(Ordering::Relaxed).is_null()))
            .unwrap_or(0)
    }

    fn stats(&self) -> QueueStats {
        let mut s = QueueStats::default();
        for q in self.queues.iter() {
            s.local_pops += q.local_pops.load(Ordering::Relaxed);
            s.steals += q.steals.load(Ordering::Relaxed);
            s.slow_pushes += q.slow_pushes.load(Ordering::Relaxed);
        }
        s.steal_attempts = self.steal_attempts.get() as usize;
        s.steal_empty = self.steal_empty.get() as usize;
        s.detach_merges = self.detach_merges.get() as usize;
        s
    }
}
