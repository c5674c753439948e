//! LL — Local LIFO without priorities (paper Section III-B).
//!
//! "An example of a queue that provides low-contention but is missing
//! support for priorities is the local-lifo (LL) scheduler where each
//! thread owns a LIFO into which tasks are pushed and from which other
//! threads may steal tasks in case of starvation."
//!
//! Pushes always prepend with a single CAS (pure LIFO — priorities are
//! ignored); removal uses the same safe detach-whole protocol as
//! [`crate::Llp`] (see the crate docs for the ownership argument).

use crate::chain::SortedChain;
use crate::{QueueStats, SchedNode, TaskQueue};
use std::ptr::NonNull;
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};
use ttg_sync::counted::note_rmw;
use ttg_sync::{CachePadded, ContentionCounter};

#[derive(Debug)]
struct WorkerLifo {
    head: AtomicPtr<SchedNode>,
    local_pops: AtomicUsize,
    steals: AtomicUsize,
}

/// The plain local-LIFO scheduler.
#[derive(Debug)]
pub struct Ll {
    queues: Box<[CachePadded<WorkerLifo>]>,
    /// Contention counters: zero-sized unless `obs`.
    steal_attempts: ContentionCounter,
    steal_empty: ContentionCounter,
}

impl Ll {
    /// Creates an LL scheduler with one LIFO per worker.
    pub fn new(workers: usize) -> Self {
        Ll {
            queues: (0..workers.max(1))
                .map(|_| {
                    CachePadded::new(WorkerLifo {
                        head: AtomicPtr::new(std::ptr::null_mut()),
                        local_pops: AtomicUsize::new(0),
                        steals: AtomicUsize::new(0),
                    })
                })
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            steal_attempts: ContentionCounter::new(),
            steal_empty: ContentionCounter::new(),
        }
    }

    #[inline]
    fn try_detach(&self, worker: usize) -> Option<NonNull<SchedNode>> {
        let q = &self.queues[worker];
        let h = q.head.load(Ordering::Acquire);
        if h.is_null() {
            return None;
        }
        note_rmw();
        q.head
            .compare_exchange(
                h,
                std::ptr::null_mut(),
                Ordering::Acquire,
                Ordering::Relaxed,
            )
            .ok()
            // SAFETY: CAS success transfers chain ownership.
            .map(|p| unsafe { NonNull::new_unchecked(p) })
    }

    /// Prepends a raw (owned) list whose tail link is already severed.
    /// Multi-producer-safe Treiber push, used for both single nodes and
    /// re-publication of owned chains: unlike LLP, LL has no sortedness
    /// invariant, so prepending a chain is always legal.
    fn prepend_list(&self, worker: usize, head: *mut SchedNode, tail: *mut SchedNode) {
        let q = &self.queues[worker];
        let mut cur = q.head.load(Ordering::Relaxed);
        loop {
            // SAFETY: we own the list until the CAS succeeds.
            unsafe { (*tail).set_next(cur) };
            note_rmw();
            match q
                .head
                .compare_exchange_weak(cur, head, Ordering::Release, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(h) => cur = h,
            }
        }
    }

    /// Splits the first node off an owned chain and re-publishes the rest
    /// into `worker`'s (currently empty) queue with a release store —
    /// legal because only `worker` pushes into its own queue.
    fn split_first_deposit_rest(
        &self,
        worker: usize,
        head: NonNull<SchedNode>,
    ) -> NonNull<SchedNode> {
        // SAFETY: we own the whole detached chain.
        let rest = unsafe { head.as_ref().next() };
        unsafe { head.as_ref().set_next(std::ptr::null_mut()) };
        if !rest.is_null() {
            let q = &self.queues[worker];
            debug_assert!(
                q.head.load(Ordering::Relaxed).is_null(),
                "deposit target queue must be empty (owner-only pushes)"
            );
            q.head.store(rest, Ordering::Release);
        }
        head
    }
}

// SAFETY: detach-whole protocol; each node delivered exactly once.
unsafe impl TaskQueue for Ll {
    fn push(&self, worker: usize, node: NonNull<SchedNode>) {
        self.prepend_list(worker, node.as_ptr(), node.as_ptr());
    }

    fn push_chain(&self, worker: usize, chain: SortedChain) -> bool {
        if chain.is_empty() {
            return false;
        }
        let (head, tail, _len) = chain.into_raw();
        self.prepend_list(worker, head, tail);
        // LL has no detach-merge slow path; prepending is always flat.
        false
    }

    fn pop_from(&self, worker: usize) -> Option<(NonNull<SchedNode>, crate::PopSource)> {
        if let Some(head) = self.try_detach(worker) {
            let first = self.split_first_deposit_rest(worker, head);
            self.queues[worker]
                .local_pops
                .fetch_add(1, Ordering::Relaxed);
            return Some((first, crate::PopSource::Local));
        }
        let n = self.queues.len();
        for i in 1..n {
            let victim = (worker + i) % n;
            self.steal_attempts.incr();
            if let Some(head) = self.try_detach(victim) {
                // Our own queue is empty (the local detach above failed)
                // and only we push into it, so the deposit below hits the
                // blind-store fast path.
                let first = self.split_first_deposit_rest(worker, head);
                self.queues[worker].steals.fetch_add(1, Ordering::Relaxed);
                return Some((first, crate::PopSource::Steal(victim)));
            }
            self.steal_empty.incr();
        }
        None
    }

    fn pops_next(&self, _worker: usize, _priority: crate::Priority) -> bool {
        // Pure LIFO: the last push is the next pop.
        true
    }

    fn workers(&self) -> usize {
        self.queues.len()
    }

    fn pending_estimate(&self) -> usize {
        self.queues
            .iter()
            .filter(|q| !q.head.load(Ordering::Relaxed).is_null())
            .count()
    }

    fn worker_depth(&self, worker: usize) -> usize {
        // 0/1 emptiness indicator: walking the chain without detaching
        // it races concurrent pops over freed nodes.
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
        }
        s.steal_attempts = self.steal_attempts.get() as usize;
        s.steal_empty = self.steal_empty.get() as usize;
        s
    }
}
