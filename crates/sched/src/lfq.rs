//! LFQ — local flat queues with a global overflow FIFO (Section III-B).
//!
//! "The default scheduler in PaRSEC is local-flat-queues (LFQ) …: each
//! thread owns a bounded buffer of tasks and a global FIFO shared between
//! all threads serves as overflow queue. … Tasks with the highest
//! priority are kept to fill up the bounded buffer, and tasks with the
//! lowest priority are enqueued into the \[FIFO\]. … The global FIFO may
//! quickly become a bottleneck due to the global lock used to ensure
//! consistency."
//!
//! This implementation deliberately reproduces that bottleneck: the
//! overflow queue is a `Mutex<VecDeque>`, and under small-task pressure
//! (Figure 6) almost every scheduling operation serializes on it.
//!
//! Buffer slots pair the task pointer with a *priority hint* so that
//! displacement and best-first popping never dereference a node the
//! caller does not own (a slot's occupant may be stolen at any moment;
//! hints may go stale, which only affects ordering quality).

use crate::chain::SortedChain;
use crate::{Priority, QueueStats, SchedNode, TaskQueue};
use std::collections::VecDeque;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicI32, AtomicPtr, AtomicUsize, Ordering};
use std::sync::Mutex;
use ttg_sync::counted::note_rmw;
use ttg_sync::{CachePadded, ContentionCounter};

/// Default bounded-buffer capacity per worker (PaRSEC-like small value).
pub const DEFAULT_BUFFER: usize = 8;

#[derive(Debug)]
struct Slot {
    ptr: AtomicPtr<SchedNode>,
    /// Priority of the occupant at the time it was stored (hint).
    prio: AtomicI32,
}

#[derive(Debug)]
struct BoundedBuffer {
    slots: Box<[Slot]>,
}

impl BoundedBuffer {
    fn new(cap: usize) -> Self {
        BoundedBuffer {
            slots: (0..cap.max(1))
                .map(|_| Slot {
                    ptr: AtomicPtr::new(std::ptr::null_mut()),
                    prio: AtomicI32::new(Priority::MIN),
                })
                .collect(),
        }
    }

    /// Tries to place `node` in an empty slot. One CAS per attempt.
    fn try_place(&self, node: NonNull<SchedNode>, prio: Priority) -> bool {
        for slot in self.slots.iter() {
            if slot.ptr.load(Ordering::Relaxed).is_null() {
                note_rmw();
                if slot
                    .ptr
                    .compare_exchange(
                        std::ptr::null_mut(),
                        node.as_ptr(),
                        Ordering::Release,
                        Ordering::Relaxed,
                    )
                    .is_ok()
                {
                    slot.prio.store(prio, Ordering::Relaxed);
                    return true;
                }
            }
        }
        false
    }

    /// Tries to displace the lowest-priority occupant with `node` if
    /// `prio` outranks it. Returns the displaced task on success.
    fn try_displace(&self, node: NonNull<SchedNode>, prio: Priority) -> Option<NonNull<SchedNode>> {
        let mut min_idx = None;
        let mut min_prio = prio;
        for (i, slot) in self.slots.iter().enumerate() {
            if !slot.ptr.load(Ordering::Relaxed).is_null() {
                let p = slot.prio.load(Ordering::Relaxed);
                if p < min_prio {
                    min_prio = p;
                    min_idx = Some(i);
                }
            }
        }
        let idx = min_idx?;
        let slot = &self.slots[idx];
        let victim = slot.ptr.load(Ordering::Relaxed);
        if victim.is_null() {
            return None;
        }
        note_rmw();
        if slot
            .ptr
            .compare_exchange(victim, node.as_ptr(), Ordering::AcqRel, Ordering::Relaxed)
            .is_ok()
        {
            slot.prio.store(prio, Ordering::Relaxed);
            // SAFETY: winning the CAS transfers ownership of `victim`.
            Some(unsafe { NonNull::new_unchecked(victim) })
        } else {
            None
        }
    }

    /// Extracts the best (highest-hint) occupant, if any.
    fn take_best(&self) -> Option<NonNull<SchedNode>> {
        loop {
            let mut best: Option<(usize, Priority)> = None;
            for (i, slot) in self.slots.iter().enumerate() {
                if !slot.ptr.load(Ordering::Relaxed).is_null() {
                    let p = slot.prio.load(Ordering::Relaxed);
                    if best.is_none_or(|(_, bp)| p > bp) {
                        best = Some((i, p));
                    }
                }
            }
            let (idx, _) = best?;
            let slot = &self.slots[idx];
            let ptr = slot.ptr.load(Ordering::Relaxed);
            if ptr.is_null() {
                continue; // raced; rescan
            }
            note_rmw();
            if slot
                .ptr
                .compare_exchange(
                    ptr,
                    std::ptr::null_mut(),
                    Ordering::Acquire,
                    Ordering::Relaxed,
                )
                .is_ok()
            {
                // SAFETY: CAS success transfers ownership.
                return Some(unsafe { NonNull::new_unchecked(ptr) });
            }
            // Lost the race to a thief; rescan.
        }
    }

    fn occupied(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| !s.ptr.load(Ordering::Relaxed).is_null())
            .count()
    }
}

/// The local-flat-queues scheduler.
pub struct Lfq {
    buffers: Box<[CachePadded<BoundedBuffer>]>,
    /// The shared overflow FIFO and its global lock — the bottleneck.
    fifo: Mutex<VecDeque<*mut SchedNode>>,
    /// Workers per steal domain ("the same domain of the cache and NUMA
    /// hierarchy"): victims within the thief's domain are scanned before
    /// the rest. 0 ⇒ flat (a single domain).
    domain_size: usize,
    overflow: AtomicUsize,
    local_pops: AtomicUsize,
    steals: AtomicUsize,
    /// Contention counters: zero-sized unless `obs`.
    steal_attempts: ContentionCounter,
    steal_empty: ContentionCounter,
    overflow_pops: ContentionCounter,
}

// SAFETY: raw task pointers in the FIFO are owned by the queue until
// popped; nodes are Send by the trait contract.
unsafe impl Send for Lfq {}
unsafe impl Sync for Lfq {}

impl Lfq {
    /// Creates an LFQ scheduler with `workers` buffers of `buffer` slots
    /// and flat (single-domain) stealing.
    pub fn new(workers: usize, buffer: usize) -> Self {
        Self::with_domains(workers, buffer, 0)
    }

    /// Creates an LFQ scheduler whose steal order prefers victims in the
    /// thief's `domain_size`-worker domain (modelling the cache/NUMA
    /// hierarchy PaRSEC's LFQ walks). `domain_size == 0` means flat.
    pub fn with_domains(workers: usize, buffer: usize, domain_size: usize) -> Self {
        Lfq {
            buffers: (0..workers.max(1))
                .map(|_| CachePadded::new(BoundedBuffer::new(buffer)))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            fifo: Mutex::new(VecDeque::new()),
            domain_size,
            overflow: AtomicUsize::new(0),
            local_pops: AtomicUsize::new(0),
            steals: AtomicUsize::new(0),
            steal_attempts: ContentionCounter::new(),
            steal_empty: ContentionCounter::new(),
            overflow_pops: ContentionCounter::new(),
        }
    }

    /// Victim scan order for `worker`: same-domain neighbours first,
    /// then everyone else (both round-robin from the thief).
    fn victims(&self, worker: usize) -> impl Iterator<Item = usize> + '_ {
        let w = self.buffers.len();
        let ds = if self.domain_size == 0 {
            w
        } else {
            self.domain_size
        };
        let my_domain = worker / ds;
        let near = (1..w)
            .map(move |i| (worker + i) % w)
            .filter(move |&v| v / ds == my_domain);
        let far = (1..w)
            .map(move |i| (worker + i) % w)
            .filter(move |&v| v / ds != my_domain);
        near.chain(far)
    }

    fn push_overflow(&self, node: NonNull<SchedNode>) {
        // Lock + unlock of the global mutex: the serialization point.
        note_rmw();
        self.fifo.lock().unwrap().push_back(node.as_ptr());
        note_rmw();
        self.overflow.fetch_add(1, Ordering::Relaxed);
    }

    fn pop_overflow(&self) -> Option<NonNull<SchedNode>> {
        note_rmw();
        let popped = self.fifo.lock().unwrap().pop_front();
        note_rmw();
        popped.map(|p| {
            self.overflow_pops.incr();
            // SAFETY: pointers in the FIFO are live owned tasks.
            unsafe { NonNull::new_unchecked(p) }
        })
    }
}

impl std::fmt::Debug for Lfq {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Lfq")
            .field("workers", &self.buffers.len())
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

// SAFETY: slots + mutex-protected FIFO deliver each node exactly once.
unsafe impl TaskQueue for Lfq {
    fn push(&self, worker: usize, node: NonNull<SchedNode>) {
        // SAFETY: we own `node` until placed.
        let prio = unsafe { node.as_ref().priority };
        let buf = &self.buffers[worker];
        if buf.try_place(node, prio) {
            return;
        }
        // Buffer full: keep the highest priorities local, spill the rest.
        match buf.try_displace(node, prio) {
            Some(victim) => self.push_overflow(victim),
            None => self.push_overflow(node),
        }
    }

    fn push_chain(&self, worker: usize, mut chain: SortedChain) -> bool {
        // LFQ has no chain concept; PaRSEC pushes elements individually.
        // Report "slow" if any element crossed the global overflow FIFO.
        let overflow_before = self.overflow.load(Ordering::Relaxed);
        while let Some(node) = chain.pop_front() {
            self.push(worker, node);
        }
        self.overflow.load(Ordering::Relaxed) != overflow_before
    }

    fn pop_from(&self, worker: usize) -> Option<(NonNull<SchedNode>, crate::PopSource)> {
        if let Some(n) = self.buffers[worker].take_best() {
            self.local_pops.fetch_add(1, Ordering::Relaxed);
            return Some((n, crate::PopSource::Local));
        }
        // Steal from the bounded buffers of other workers, nearest
        // domain first ("any thread in the same domain of the cache and
        // NUMA hierarchy", then beyond).
        for victim in self.victims(worker) {
            self.steal_attempts.incr();
            if let Some(n) = self.buffers[victim].take_best() {
                self.steals.fetch_add(1, Ordering::Relaxed);
                return Some((n, crate::PopSource::Steal(victim)));
            }
            self.steal_empty.incr();
        }
        // Finally the global FIFO.
        self.pop_overflow().map(|n| (n, crate::PopSource::Overflow))
    }

    fn workers(&self) -> usize {
        self.buffers.len()
    }

    fn pending_estimate(&self) -> usize {
        let buffered: usize = self.buffers.iter().map(|b| b.occupied()).sum();
        buffered + self.overflow_depth()
    }

    fn overflow_depth(&self) -> usize {
        self.fifo.try_lock().map(|f| f.len()).unwrap_or(0)
    }

    fn worker_depth(&self, worker: usize) -> usize {
        self.buffers.get(worker).map(|b| b.occupied()).unwrap_or(0)
    }

    fn stats(&self) -> QueueStats {
        QueueStats {
            local_pops: self.local_pops.load(Ordering::Relaxed),
            steals: self.steals.load(Ordering::Relaxed),
            overflow: self.overflow.load(Ordering::Relaxed),
            slow_pushes: 0,
            steal_attempts: self.steal_attempts.get() as usize,
            steal_empty: self.steal_empty.get() as usize,
            overflow_pops: self.overflow_pops.get() as usize,
            detach_merges: 0,
        }
    }
}
