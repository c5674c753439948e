//! # ttg-mempool — per-thread free-list memory pools
//!
//! Section IV-E of the paper: "To manage these \[task\] objects, TTG
//! employs a free-list that contains a per-thread memory pool. Allocated
//! elements are returned to the thread's memory pool from which they were
//! allocated, to avoid imbalances between allocating and deallocating
//! threads. Thus, the creation and destruction of a task involves two
//! atomic operations (N_OB = 2)."
//!
//! [`FreeListPool`] reproduces exactly that:
//!
//! * Each slot (≈ thread) owns a Treiber free stack of retired nodes.
//! * **Allocation** pops from the caller's stack — one CAS — or falls
//!   back to the system allocator when the stack is empty.
//! * **Deallocation** pushes the node back onto the stack of the slot
//!   that allocated it — one CAS — regardless of which thread frees it.
//!
//! Those two CASes are the only shared read-modify-writes on the path;
//! statistics are derived when asked for.
//!
//! # Slot ownership (the ABA argument)
//!
//! The pop reads `head = X` and `X.next = Y`, then CASes `head` X → Y.
//! A second popper could take X and Y and push X back in between; the
//! CAS would still succeed and hand out Y while it is live. So each slot
//! has **one popper at a time**, enforced by the interface: a thread that
//! is provably a slot's only user names it through the `unsafe`
//! [`FreeListPool::alloc_in`]; every other thread uses the safe
//! [`FreeListPool::alloc`], which pops one extra *shared* slot under a
//! spin lock. Pushes need no rule: one merely fails the popper's CAS.
//!
//! [`PoolBox`] is the owning handle. It stores raw pointers to the node
//! and the pool; the pool must outlive every box it issued, which
//! [`FreeListPool`]'s drop asserts by counting the nodes that came back.
//!
//! # Who owns a pool
//!
//! The runtime a template task is built on, not the template task: it
//! keeps one pool per shell type (`Runtime::resident_pool`), every TT
//! holds an `Arc` to it, and the nodes a short-lived graph retires are
//! the ones the next graph pops; a pool holds the high-water mark of
//! its type's live shells. `live() == 0` is therefore checked when the
//! runtime goes — its drop has disposed of every task still queued —
//! not when a TT does. A TT leaked on purpose (an abandoned instance,
//! stragglers still queued) keeps runtime and pool alive under them.

#![warn(missing_docs)]

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::ops::{Deref, DerefMut};
use std::ptr::NonNull;
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};
use std::sync::OnceLock;
use ttg_sync::counted::note_rmw;
use ttg_sync::{CachePadded, SpinLock};

/// Callback invoked when an allocation misses every free list and falls
/// through to the system allocator ("pool refill"); receives the number
/// of fresh allocations (currently always 1 per call). Kept as a plain
/// boxed closure so observability layers can hook refills without this
/// crate knowing about them.
pub type RefillObserver = Box<dyn Fn(usize) + Send + Sync>;

/// A pooled node: the free-list link lives alongside the (possibly
/// uninitialized) value.
struct Node<T> {
    /// Next node in the free stack. Only meaningful while the node is on
    /// a free list.
    next: AtomicPtr<Node<T>>,
    /// The slot whose free stack this node returns to.
    origin: u32,
    value: UnsafeCell<MaybeUninit<T>>,
}

/// One slot's free stack.
struct Slot<T> {
    head: AtomicPtr<Node<T>>,
    /// Allocations this slot served from its stack. Written only by the
    /// slot's popper (load + store, no RMW); read by `stats`.
    reused: AtomicUsize,
}

/// Counters describing pool behaviour; used by tests and benchmarks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Allocations served from a free list (no malloc).
    pub reused: usize,
    /// Allocations that fell through to the system allocator.
    pub fresh: usize,
    /// Values returned to a free list.
    pub recycled: usize,
}

/// A sharded free-list allocator for fixed-type objects.
///
/// # Examples
///
/// ```
/// use ttg_mempool::FreeListPool;
///
/// let pool: FreeListPool<Vec<u32>> = FreeListPool::new(4);
/// let a = pool.alloc(vec![1, 2, 3]);
/// assert_eq!(a.len(), 3);
/// drop(a); // node returns to the allocating thread's free list
/// let b = pool.alloc(vec![]); // reuses the retired node
/// assert_eq!(b.len(), 0);
/// assert_eq!(pool.stats().reused, 1);
/// ```
pub struct FreeListPool<T> {
    /// The caller-named slots, then the shared slot (always last).
    slots: Box<[CachePadded<Slot<T>>]>,
    /// Serializes pops of the shared slot, making the lock holder its
    /// single popper.
    shared_pop: SpinLock<()>,
    fresh: AtomicUsize,
    /// Optional hook fired on the fresh-allocation slow path only, so
    /// it costs nothing on the pooled fast path.
    refill_observer: OnceLock<RefillObserver>,
}

// SAFETY: nodes only travel between threads through the atomic stacks;
// the payload is `T: Send`.
unsafe impl<T: Send> Send for FreeListPool<T> {}
unsafe impl<T: Send> Sync for FreeListPool<T> {}

impl<T> FreeListPool<T> {
    /// Creates a pool with `slots` caller-named free lists (one per
    /// runtime worker; see [`FreeListPool::alloc_in`]) plus the shared
    /// one every other thread allocates from.
    pub fn new(slots: usize) -> Self {
        FreeListPool {
            slots: (0..slots + 1)
                .map(|_| {
                    CachePadded::new(Slot {
                        head: AtomicPtr::new(std::ptr::null_mut()),
                        reused: AtomicUsize::new(0),
                    })
                })
                .collect(),
            shared_pop: SpinLock::new(()),
            fresh: AtomicUsize::new(0),
            refill_observer: OnceLock::new(),
        }
    }

    /// Installs a refill observer (at most once; later calls are
    /// ignored). Invoked whenever `alloc` misses the free lists.
    pub fn set_refill_observer(&self, f: RefillObserver) {
        let _ = self.refill_observer.set(f);
    }

    /// Allocates a pooled box holding `value` from the shared slot, from
    /// any thread: the pop runs under a spin lock (one extra RMW), the
    /// node still comes back with a lock-free push.
    pub fn alloc(&self, value: T) -> PoolBox<'_, T> {
        let shared = self.slots.len() - 1;
        let popped = {
            let _popper = self.shared_pop.lock();
            // SAFETY: holding the lock makes this thread the shared
            // slot's only popper for the duration of the pop.
            unsafe { self.pop(shared) }
        };
        self.fill(shared, popped, || value)
    }

    /// Allocates from the caller's own `slot` (below the count given to
    /// [`FreeListPool::new`]) a box holding what `init` returns — called
    /// once the node is in hand, so a large value is built in place. One
    /// counted CAS, or one system allocation when the stack is empty.
    ///
    /// # Safety
    ///
    /// No other thread may be inside `alloc_in` with the same `slot` of
    /// this pool at the same time (the pop is single-consumer).
    #[inline]
    pub unsafe fn alloc_in(&self, slot: usize, init: impl FnOnce() -> T) -> PoolBox<'_, T> {
        assert!(slot + 1 < self.slots.len(), "no such pool slot: {slot}");
        // SAFETY: forwarded contract; the assert keeps callers off the
        // shared slot, whose popper is whoever holds `shared_pop`.
        let popped = unsafe { self.pop(slot) };
        self.fill(slot, popped, init)
    }

    /// Single-consumer Treiber pop of `slot`'s free stack.
    ///
    /// # Safety
    ///
    /// The caller is the only thread popping `slot` during the call.
    #[inline]
    unsafe fn pop(&self, slot: usize) -> Option<NonNull<Node<T>>> {
        let slot = &self.slots[slot];
        let mut head = slot.head.load(Ordering::Acquire);
        loop {
            let node = NonNull::new(head)?;
            // SAFETY: nodes are only unlinked by this slot's popper —
            // us — so a non-null head stays on the stack, and allocated,
            // while we read its link; concurrent pushes merely fail the
            // CAS below.
            let next = unsafe { node.as_ref() }.next.load(Ordering::Relaxed);
            note_rmw();
            match slot
                .head
                .compare_exchange(head, next, Ordering::Acquire, Ordering::Acquire)
            {
                Ok(_) => {
                    // Single writer (this slot's popper): no RMW needed.
                    let reused = slot.reused.load(Ordering::Relaxed);
                    slot.reused.store(reused + 1, Ordering::Relaxed);
                    return Some(node);
                }
                Err(h) => head = h,
            }
        }
    }

    /// Wraps the popped node, or a fresh one, around `init`'s value.
    #[inline]
    fn fill(
        &self,
        slot: usize,
        popped: Option<NonNull<Node<T>>>,
        init: impl FnOnce() -> T,
    ) -> PoolBox<'_, T> {
        let node = popped.unwrap_or_else(|| {
            self.fresh.fetch_add(1, Ordering::Relaxed);
            if let Some(obs) = self.refill_observer.get() {
                obs(1);
            }
            NonNull::from(Box::leak(Box::new(Node {
                next: AtomicPtr::new(std::ptr::null_mut()),
                origin: slot as u32,
                value: UnsafeCell::new(MaybeUninit::uninit()),
            })))
        });
        // SAFETY: `node` is exclusively ours (freshly unlinked or freshly
        // allocated); initialize the payload.
        unsafe { (*node.as_ref().value.get()).write(init()) };
        PoolBox { node, pool: self }
    }

    /// Returns `node` (whose payload has already been dropped) to its
    /// origin free stack. One counted CAS (multi-producer Treiber push).
    fn recycle(&self, node: NonNull<Node<T>>) {
        let slot = &self.slots[unsafe { node.as_ref() }.origin as usize];
        let mut head = slot.head.load(Ordering::Relaxed);
        loop {
            unsafe { node.as_ref() }.next.store(head, Ordering::Relaxed);
            note_rmw();
            match slot.head.compare_exchange_weak(
                head,
                node.as_ptr(),
                Ordering::Release,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(h) => head = h,
            }
        }
    }

    /// Nodes resting on the free stacks. Exact while nothing allocates
    /// or frees; otherwise an estimate, still memory-safe and bounded by
    /// `fresh` (all nodes there are) steps per stack.
    fn free_nodes(&self, fresh: usize) -> usize {
        let mut free = 0;
        for slot in self.slots.iter() {
            let mut cur = slot.head.load(Ordering::Acquire);
            let mut steps = 0;
            while !cur.is_null() && steps < fresh {
                steps += 1;
                // SAFETY: nodes are freed only when the pool drops, and
                // `&self` keeps it alive.
                cur = unsafe { (*cur).next.load(Ordering::Relaxed) };
            }
            free += steps;
        }
        free
    }

    /// Number of live (not yet dropped) boxes: the nodes ever allocated
    /// minus those on a free stack. Walks the stacks — for tests and
    /// diagnostics; exact only while no thread allocates or frees.
    pub fn live(&self) -> usize {
        let fresh = self.fresh.load(Ordering::Relaxed);
        fresh.saturating_sub(self.free_nodes(fresh))
    }

    /// Behaviour counters, derived like [`FreeListPool::live`]: a node
    /// that was reused, or rests on a free stack, was recycled to get
    /// there.
    pub fn stats(&self) -> PoolStats {
        let fresh = self.fresh.load(Ordering::Relaxed);
        let reused = self
            .slots
            .iter()
            .map(|s| s.reused.load(Ordering::Relaxed))
            .sum();
        PoolStats {
            reused,
            fresh,
            recycled: reused + self.free_nodes(fresh),
        }
    }
}

impl<T> Drop for FreeListPool<T> {
    fn drop(&mut self) {
        // Free the retired nodes; their payloads were already dropped.
        let mut freed = 0;
        for slot in self.slots.iter_mut() {
            let mut head = *slot.head.get_mut();
            while !head.is_null() {
                // SAFETY: exclusive access in Drop; nodes came from
                // Box::into_raw and each is on exactly one stack.
                let node = unsafe { Box::from_raw(head) };
                head = node.next.load(Ordering::Relaxed);
                freed += 1;
            }
        }
        let live = *self.fresh.get_mut() - freed;
        assert_eq!(
            live, 0,
            "FreeListPool dropped while {live} PoolBox(es) are live"
        );
    }
}

impl<T> std::fmt::Debug for FreeListPool<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FreeListPool")
            .field("slots", &self.slots.len())
            .field("live", &self.live())
            .field("stats", &self.stats())
            .finish()
    }
}

/// An owned, pooled allocation. Dereferences to `T`; on drop the payload
/// is destroyed and the node returns to its origin free list.
pub struct PoolBox<'p, T> {
    node: NonNull<Node<T>>,
    pool: &'p FreeListPool<T>,
}

// SAFETY: a PoolBox is an owning handle; sending it sends the `T`.
unsafe impl<T: Send> Send for PoolBox<'_, T> {}
unsafe impl<T: Sync> Sync for PoolBox<'_, T> {}

impl<T> PoolBox<'_, T> {
    /// Moves the payload out, retiring the node to the pool.
    pub fn into_inner(self) -> T {
        let node = self.node;
        let pool = self.pool;
        std::mem::forget(self);
        // SAFETY: we own the node; read the payload exactly once, then
        // recycle the (now payload-less) node.
        let value = unsafe { (*(*node.as_ptr()).value.get()).assume_init_read() };
        pool.recycle(node);
        value
    }

    /// Raw pointer to the payload; valid while the box is live.
    pub fn as_ptr(&self) -> *mut T {
        // SAFETY: the payload was initialized at allocation.
        unsafe { (*self.node.as_ptr()).value.get().cast() }
    }

    /// Releases ownership, returning the raw payload pointer. The node is
    /// neither dropped nor recycled; reconstruct with [`PoolBox::from_raw`]
    /// on the same pool to resume ownership. This is how task objects
    /// travel through the scheduler's intrusive queues.
    pub fn into_raw(self) -> NonNull<T> {
        let ptr = self.as_ptr();
        std::mem::forget(self);
        // SAFETY: as_ptr is non-null by construction.
        unsafe { NonNull::new_unchecked(ptr) }
    }

    /// Reconstructs a box from a pointer previously returned by
    /// [`PoolBox::into_raw`].
    ///
    /// # Safety
    ///
    /// `ptr` must come from `into_raw` on a box issued by **this** pool,
    /// and ownership must not be reconstructed more than once.
    pub unsafe fn from_raw(pool: &FreeListPool<T>, ptr: NonNull<T>) -> PoolBox<'_, T> {
        let offset = std::mem::offset_of!(Node<T>, value);
        // SAFETY (caller contract): ptr points at the `value` field of a
        // live Node<T> owned by `pool`.
        let node = unsafe { ptr.as_ptr().cast::<u8>().sub(offset).cast::<Node<T>>() };
        PoolBox {
            node: unsafe { NonNull::new_unchecked(node) },
            pool,
        }
    }
}

impl<T> Deref for PoolBox<'_, T> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        // SAFETY: payload initialized at allocation, exclusively owned.
        unsafe { (*self.node.as_ref().value.get()).assume_init_ref() }
    }
}

impl<T> DerefMut for PoolBox<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as above; `&mut self` gives exclusivity.
        unsafe { (*self.node.as_ref().value.get()).assume_init_mut() }
    }
}

impl<T> Drop for PoolBox<'_, T> {
    fn drop(&mut self) {
        // SAFETY: drop the payload in place, then recycle the node.
        unsafe {
            (*(*self.node.as_ptr()).value.get()).assume_init_drop();
        }
        self.pool.recycle(self.node);
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for PoolBox<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        T::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, AtomicUsize as StdAtomicUsize};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    #[test]
    fn alloc_drop_reuse_cycle() {
        let pool: FreeListPool<u64> = FreeListPool::new(2);
        let a = pool.alloc(1);
        let b = pool.alloc(2);
        assert_eq!(*a + *b, 3);
        assert_eq!(pool.live(), 2);
        drop(a);
        drop(b);
        assert_eq!(pool.live(), 0);
        let c = pool.alloc(3);
        assert_eq!(*c, 3);
        let s = pool.stats();
        assert_eq!(s.fresh, 2);
        assert_eq!(s.reused, 1);
        assert_eq!(s.recycled, 2);
        drop(c);
    }

    #[test]
    fn payload_drop_runs_exactly_once() {
        struct Probe(Arc<StdAtomicUsize>);
        impl Drop for Probe {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let drops = Arc::new(StdAtomicUsize::new(0));
        let pool: FreeListPool<Probe> = FreeListPool::new(1);
        drop(pool.alloc(Probe(Arc::clone(&drops))));
        assert_eq!(drops.load(Ordering::Relaxed), 1);
        // Reuse the node: the old payload must not be dropped again.
        let p = pool.alloc(Probe(Arc::clone(&drops)));
        drop(p);
        assert_eq!(drops.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn into_inner_moves_without_drop() {
        let pool: FreeListPool<String> = FreeListPool::new(1);
        let b = pool.alloc("hello".to_string());
        let s = b.into_inner();
        assert_eq!(s, "hello");
        assert_eq!(pool.live(), 0);
        assert_eq!(pool.stats().recycled, 1);
    }

    #[test]
    fn deref_mut_works() {
        let pool: FreeListPool<Vec<u8>> = FreeListPool::new(1);
        let mut b = pool.alloc(vec![1]);
        b.push(2);
        assert_eq!(&*b, &[1, 2]);
    }

    #[test]
    fn cross_thread_free_returns_to_origin() {
        // Allocate on this thread, free on another: the node must come
        // back to *this* thread's free list (the paper's anti-imbalance
        // rule), observable as a reuse on the next local alloc.
        let pool: FreeListPool<u64> = FreeListPool::new(64);
        let b = pool.alloc(7);
        std::thread::scope(|s| {
            s.spawn(move || drop(b));
        });
        let _c = pool.alloc(8);
        assert_eq!(pool.stats().reused, 1, "node did not return to origin slot");
    }

    #[test]
    fn concurrent_alloc_free_stress() {
        const THREADS: usize = 8;
        const ITERS: usize = 20_000;
        let pool: Arc<FreeListPool<usize>> = Arc::new(FreeListPool::new(THREADS));
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || {
                    let mut held = Vec::new();
                    for i in 0..ITERS {
                        held.push(pool.alloc(t * ITERS + i));
                        if held.len() > 16 {
                            let b = held.swap_remove(i % held.len());
                            let v = *b;
                            assert!(v < THREADS * ITERS);
                            drop(b);
                        }
                    }
                    for b in held {
                        assert!(*b < THREADS * ITERS);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(pool.live(), 0);
        let s = pool.stats();
        assert_eq!(s.recycled, THREADS * ITERS);
        assert!(s.reused > 0, "free lists were never reused: {s:?}");
    }

    /// Regression for the two-popper ABA: with threads mapped to slots
    /// by `thread_id % slots`, two threads popped one slot; A read
    /// `head = X, X.next = Y`, B popped X and Y and recycled X, A's
    /// `CAS(X → Y)` succeeded and Y was live twice. The payload is
    /// atomic so the test itself stays defined while it detects that.
    #[test]
    fn two_threads_never_receive_the_same_node() {
        const ITERS: u64 = 20_000_000;
        let pool: FreeListPool<[AtomicU64; 2]> = FreeListPool::new(1);
        let deadline = Instant::now() + Duration::from_secs(2);
        let tagged = |tag: u64| [AtomicU64::new(tag), AtomicU64::new(tag)];
        let check = |b: &PoolBox<'_, [AtomicU64; 2]>, tag: u64| {
            let seen = [b[0].load(Ordering::Relaxed), b[1].load(Ordering::Relaxed)];
            assert_eq!(seen, [tag, tag], "box handed to two owners");
        };
        std::thread::scope(|s| {
            for thread in 1..=2u64 {
                let pool = &pool;
                s.spawn(move || {
                    for i in 0..ITERS {
                        if i % 4096 == 0 && Instant::now() > deadline {
                            break;
                        }
                        let ta = (thread << 56) | (2 * i);
                        let tb = ta + 1;
                        let a = pool.alloc(tagged(ta));
                        let b = pool.alloc(tagged(tb));
                        check(&a, ta);
                        check(&b, tb);
                        assert_ne!(a.as_ptr(), b.as_ptr(), "one node allocated twice");
                        // First in, first out: the order that leaves the
                        // other thread's stale `next` pointing at a live
                        // node.
                        drop(a);
                        drop(b);
                    }
                });
            }
        });
        assert_eq!(pool.live(), 0);
    }

    #[test]
    fn named_slots_are_private_and_the_shared_slot_serves_everyone_else() {
        let pool: FreeListPool<u64> = FreeListPool::new(2);
        // SAFETY: this thread is the only user of slots 0 and 1.
        let (a, b) = unsafe { (pool.alloc_in(0, || 10), pool.alloc_in(1, || 11)) };
        let c = pool.alloc(12);
        let (pa, pb, pc) = (a.as_ptr(), b.as_ptr(), c.as_ptr());
        drop((a, b, c));
        // Each node went back to the stack it came from.
        // SAFETY: as above.
        unsafe {
            assert_eq!(pool.alloc_in(1, || 0).as_ptr(), pb);
            assert_eq!(pool.alloc_in(0, || 0).as_ptr(), pa);
        }
        assert_eq!(pool.alloc(0).as_ptr(), pc);
        assert_eq!(
            pool.stats(),
            PoolStats {
                reused: 3,
                fresh: 3,
                recycled: 6
            }
        );
    }

    #[test]
    #[should_panic(expected = "no such pool slot")]
    fn naming_the_shared_slot_is_rejected() {
        let pool: FreeListPool<u8> = FreeListPool::new(1);
        // SAFETY: single-threaded; the call must panic before popping.
        let _ = unsafe { pool.alloc_in(1, || 0) };
    }

    #[test]
    fn derived_stats_and_live_survive_cross_thread_frees() {
        let pool: FreeListPool<usize> = FreeListPool::new(1);
        // SAFETY: only this thread names slot 0.
        let mine: Vec<_> = (0..5).map(|i| unsafe { pool.alloc_in(0, || i) }).collect();
        let shared: Vec<_> = (5..8).map(|i| pool.alloc(i)).collect();
        assert_eq!(pool.live(), 8);
        assert_eq!(pool.stats().recycled, 0);
        let mut mine = mine.into_iter();
        let kept = mine.next().unwrap();
        std::thread::scope(|s| {
            // Freed by another thread: four back to slot 0, three to the
            // shared slot.
            s.spawn(move || drop((mine.collect::<Vec<_>>(), shared)));
        });
        assert_eq!(pool.live(), 1);
        assert_eq!(
            pool.stats(),
            PoolStats {
                reused: 0,
                fresh: 8,
                recycled: 7
            }
        );
        // SAFETY: as above.
        let again = unsafe { pool.alloc_in(0, || 9) };
        assert_eq!(pool.live(), 2);
        assert_eq!(
            pool.stats(),
            PoolStats {
                reused: 1,
                fresh: 8,
                recycled: 7
            }
        );
        drop((kept, again));
        assert_eq!(pool.live(), 0);
        assert_eq!(pool.stats().recycled, 9);
    }

    #[test]
    fn raw_roundtrip_preserves_ownership() {
        let pool: FreeListPool<String> = FreeListPool::new(1);
        let b = pool.alloc("raw".to_string());
        let ptr = b.into_raw();
        assert_eq!(pool.live(), 1, "into_raw must keep the box live");
        // SAFETY: ptr came from into_raw on this pool, reconstructed once.
        let b2 = unsafe { PoolBox::from_raw(&pool, ptr) };
        assert_eq!(&*b2, "raw");
        drop(b2);
        assert_eq!(pool.live(), 0);
    }

    #[test]
    #[should_panic(expected = "dropped while")]
    fn dropping_pool_with_live_boxes_panics() {
        let pool: FreeListPool<u8> = FreeListPool::new(1);
        let b = pool.alloc(1);
        std::mem::forget(b); // simulate a leak: live count stays 1
        drop(pool);
    }
}
