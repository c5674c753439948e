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
use crate::{Count, PopSource, Priority, QueueStats, SchedNode, TaskQueue, Workers};
use std::collections::VecDeque;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicI32, AtomicPtr, Ordering};
use std::sync::Mutex;
use ttg_sync::counted::note_rmw;

/// Default bounded-buffer capacity per worker (PaRSEC-like small value).
pub const DEFAULT_BUFFER: usize = 8;

/// The FIFO lock's critical sections are one push or pop; none panics.
const POISONED: &str = "overflow FIFO lock poisoned";

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
#[derive(Debug)]
pub struct Lfq {
    buffers: Workers<BoundedBuffer>,
    /// The shared overflow FIFO and its global lock — the bottleneck.
    fifo: Mutex<VecDeque<NonNull<SchedNode>>>,
}

// SAFETY: task pointers in the FIFO are owned by the queue until
// popped; nodes are Send by the trait contract.
unsafe impl Send for Lfq {}
// SAFETY: as for `Send`; the FIFO is only reached through its mutex.
unsafe impl Sync for Lfq {}

impl Lfq {
    /// Creates an LFQ scheduler with `workers` buffers of `buffer` slots.
    /// [`crate::SchedKind::Lfq`] builds it with [`DEFAULT_BUFFER`].
    pub fn new(workers: usize, buffer: usize) -> Self {
        Lfq {
            buffers: Workers::new(workers, || BoundedBuffer::new(buffer)),
            fifo: Mutex::new(VecDeque::new()),
        }
    }
}

// SAFETY: slots + mutex-protected FIFO deliver each node exactly once.
unsafe impl TaskQueue for Lfq {
    fn push(&self, worker: usize, node: NonNull<SchedNode>) {
        // SAFETY: we own `node` until placed.
        let prio = unsafe { node.as_ref().priority };
        let buf = &self.buffers[worker].queue;
        if buf.try_place(node, prio) {
            return;
        }
        // Buffer full: keep the highest priorities local, spill the rest
        // to the global FIFO. Lock + unlock of its mutex: the
        // serialization point.
        let spilled = buf.try_displace(node, prio).unwrap_or(node);
        note_rmw();
        self.fifo.lock().expect(POISONED).push_back(spilled);
        note_rmw();
        self.buffers[worker].stats.overflow.bump();
    }

    fn push_chain(&self, worker: usize, mut chain: SortedChain) -> bool {
        // LFQ has no chain concept; PaRSEC pushes elements individually.
        // Report "slow" if any element crossed the global overflow FIFO.
        let overflow = &self.buffers[worker].stats.overflow;
        let overflow_before = overflow.get();
        while let Some(node) = chain.pop_front() {
            self.push(worker, node);
        }
        overflow.get() != overflow_before
    }

    fn pop_from(&self, worker: usize) -> Option<(NonNull<SchedNode>, PopSource)> {
        let own = &self.buffers[worker];
        if let Some(n) = own.queue.take_best() {
            own.stats.local_pops.bump();
            return Some((n, PopSource::Local));
        }
        if let Some((n, victim)) = self.buffers.steal(worker, BoundedBuffer::take_best) {
            return Some((n, PopSource::Steal(victim)));
        }
        // Finally the global FIFO.
        note_rmw();
        let popped = self.fifo.lock().expect(POISONED).pop_front();
        note_rmw();
        let node = popped?;
        own.stats.overflow_pops.with(Count::bump);
        Some((node, PopSource::Overflow))
    }

    fn workers(&self) -> usize {
        self.buffers.len()
    }

    fn pending_estimate(&self) -> usize {
        let buffered: usize = self.buffers.iter().map(|b| b.queue.occupied()).sum();
        buffered + self.overflow_depth()
    }

    fn overflow_depth(&self) -> usize {
        self.fifo.try_lock().map(|f| f.len()).unwrap_or(0)
    }

    fn worker_depth(&self, worker: usize) -> usize {
        self.buffers.get(worker).map_or(0, |b| b.queue.occupied())
    }

    fn stats(&self) -> QueueStats {
        self.buffers.stats()
    }
}
