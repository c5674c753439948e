//! Reference-counted, type-erased data copies.
//!
//! PaRSEC tracks the lifetime of every datum flowing through the graph
//! with a reference-counted *copy* object; the TTG backend's "data copy
//! tracking and zero-copy data transfers" (Section II) and the cost
//! model's N_RC = 2 (retain + release per reused input, Section IV-E)
//! both live here.
//!
//! [`DataCopy`] is essentially a hand-rolled `Arc<dyn Any>` (refcount,
//! `TypeId`, drop function and payload in one allocation), written out
//! explicitly so that (a) the refcount operations go through the counted
//! atomics validating Equation (1), (b) the *move optimization* is
//! expressible: "certain optimizations are applied if the current task is
//! the final owner and the copy is either released or ownership is moved
//! to a single successor" — [`DataCopy::try_take`] moves the value out
//! without any new allocation when the count is 1, and (c) the ordering
//! policy of Section IV-A applies to the retain side.

use std::any::TypeId;
use std::mem::ManuallyDrop;
use std::ptr::NonNull;
use std::sync::atomic::Ordering;
use ttg_sync::{CAtomicUsize, OrderingPolicy};

/// What every copy object starts with, whatever its payload type `T`.
struct Header {
    refs: CAtomicUsize,
    /// `TypeId::of::<T>()`, checked before any cast back to `Block<T>`.
    ty: TypeId,
    /// `release_block::<T>`.
    release: unsafe fn(NonNull<Header>),
    policy: OrderingPolicy,
}

/// One copy object. `#[repr(C)]` puts the header at offset 0 whatever
/// `T`'s alignment, so a `NonNull<Header>` also points to the block.
#[repr(C)]
struct Block<T> {
    header: Header,
    value: ManuallyDrop<T>,
}

/// Drops the payload and frees the block.
///
/// # Safety
///
/// `block` points to a live `Block<T>` of this same `T`; no handle uses
/// it afterwards.
unsafe fn release_block<T>(block: NonNull<Header>) {
    // SAFETY: caller contract — the allocation is a `Box<Block<T>>` and
    // we are its last user.
    let mut block = unsafe { Box::from_raw(block.as_ptr().cast::<Block<T>>()) };
    // SAFETY: the payload is initialized and is dropped only here.
    unsafe { ManuallyDrop::drop(&mut block.value) };
}

/// A shared handle to one tracked datum.
///
/// Cloning retains (one counted atomic RMW); dropping releases (one
/// counted atomic RMW, with an acquire/release pairing on the final
/// decrement so the destructor observes all writes). One pointer wide.
#[repr(transparent)]
pub struct DataCopy {
    inner: NonNull<Header>,
}

// SAFETY: the payload is `Send + Sync`; the refcount mediates ownership.
unsafe impl Send for DataCopy {}
unsafe impl Sync for DataCopy {}

impl DataCopy {
    /// Creates a copy holding `value` with refcount 1. This is the "new
    /// copy" path of the cost model — it performs one heap allocation.
    pub fn new<T: Send + Sync + 'static>(value: T, policy: OrderingPolicy) -> Self {
        let block = Box::new(Block {
            header: Header {
                refs: CAtomicUsize::new(1),
                ty: TypeId::of::<T>(),
                release: release_block::<T>,
                policy,
            },
            value: ManuallyDrop::new(value),
        });
        DataCopy {
            inner: NonNull::from(Box::leak(block)).cast(),
        }
    }

    #[inline]
    fn header(&self) -> &Header {
        // SAFETY: the block is live while any handle exists.
        unsafe { self.inner.as_ref() }
    }

    /// The block as a `Block<T>`, if `T` is the payload type.
    #[inline]
    fn block<T: 'static>(&self) -> Option<NonNull<Block<T>>> {
        (self.header().ty == TypeId::of::<T>()).then(|| self.inner.cast())
    }

    /// Current reference count (racy unless the caller holds the only
    /// handle).
    pub fn ref_count(&self) -> usize {
        self.header().refs.load(Ordering::Relaxed)
    }

    /// True if this is the only handle (the precondition for mutation and
    /// for the move optimization).
    pub fn is_unique(&self) -> bool {
        self.ref_count() == 1
    }

    /// Borrows the value, panicking on a type mismatch (a mismatch is a
    /// graph-construction bug, akin to connecting terminals of different
    /// types in C++ TTG).
    pub fn get<T: 'static>(&self) -> &T {
        let block = self.block::<T>().expect("data copy type mismatch");
        // SAFETY: the type check makes this the block's real type; it is
        // live, and its payload initialized, while any handle exists.
        unsafe { &block.as_ref().value }
    }

    /// Mutably borrows the value when this is the only handle.
    pub fn get_mut<T: 'static>(&mut self) -> Option<&mut T> {
        if !self.is_unique() {
            return None;
        }
        let mut block = self.block::<T>()?;
        // SAFETY: type checked as in `get`; unique handle borrowed
        // mutably ⇒ exclusive access.
        Some(unsafe { &mut block.as_mut().value })
    }

    /// The move optimization: if this handle is unique, moves the value
    /// out (no clone, no allocation) and frees the copy object.
    /// Otherwise returns the handle unchanged.
    pub fn try_take<T: Send + Sync + 'static>(self) -> Result<T, DataCopy> {
        if !self.is_unique() {
            return Err(self);
        }
        let block = self.block::<T>().expect("data copy type mismatch");
        // Suppress the normal Drop (which would decrement and release).
        std::mem::forget(self);
        // SAFETY: type checked; unique ⇒ the block is ours to free. The
        // payload moves out once; freeing a `ManuallyDrop` drops nothing.
        let mut block = unsafe { Box::from_raw(block.as_ptr()) };
        Ok(unsafe { ManuallyDrop::take(&mut block.value) })
    }

    /// Clones the *value* into a fresh copy object (the "new copy is
    /// created" path, used when two tasks may mutate the same datum).
    pub fn deep_clone<T: Clone + Send + Sync + 'static>(&self) -> DataCopy {
        DataCopy::new(self.get::<T>().clone(), self.header().policy)
    }
}

impl Clone for DataCopy {
    /// Retain: one counted atomic RMW (N_RC's first half).
    fn clone(&self) -> Self {
        let header = self.header();
        header.refs.fetch_add(1, header.policy.rmw());
        DataCopy { inner: self.inner }
    }
}

impl Drop for DataCopy {
    /// Release: one counted atomic RMW; the final release frees.
    fn drop(&mut self) {
        let header = self.header();
        let prev = header.refs.fetch_sub(1, header.policy.rmw_acqrel());
        if prev == 1 {
            // SAFETY: last handle; `release` was instantiated for this
            // block's payload type in `new`.
            unsafe { (header.release)(self.inner) };
        }
    }
}

impl std::fmt::Debug for DataCopy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DataCopy")
            .field("refs", &self.ref_count())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    #[test]
    fn retain_release_lifecycle() {
        let c = DataCopy::new(41u64, OrderingPolicy::Relaxed);
        assert!(c.is_unique());
        let c2 = c.clone();
        assert_eq!(c.ref_count(), 2);
        assert_eq!(*c.get::<u64>(), 41);
        assert_eq!(*c2.get::<u64>(), 41);
        drop(c);
        assert!(c2.is_unique());
    }

    #[test]
    fn drop_runs_destructor_exactly_once() {
        struct Probe(Arc<AtomicUsize>);
        impl Drop for Probe {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        let c = DataCopy::new(Probe(Arc::clone(&drops)), OrderingPolicy::Relaxed);
        let c2 = c.clone();
        drop(c);
        assert_eq!(drops.load(Ordering::Relaxed), 0);
        drop(c2);
        assert_eq!(drops.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn handle_is_one_pointer_wide() {
        assert_eq!(
            std::mem::size_of::<DataCopy>(),
            std::mem::size_of::<usize>()
        );
        assert_eq!(
            std::mem::size_of::<Option<DataCopy>>(),
            std::mem::size_of::<usize>()
        );
    }

    #[test]
    fn zero_sized_and_over_aligned_payloads_share_the_block_with_the_header() {
        let unit = DataCopy::new((), OrderingPolicy::Relaxed);
        let unit2 = unit.clone();
        assert_eq!(unit.ref_count(), 2);
        drop(unit2);
        unit.try_take::<()>().expect("unique");

        #[derive(Clone, Debug, PartialEq)]
        #[repr(align(64))]
        struct Line([u8; 64]);
        let mut c = DataCopy::new(Line([7; 64]), OrderingPolicy::Relaxed);
        let addr = c.get::<Line>() as *const Line as usize;
        assert_eq!(addr % 64, 0, "payload not aligned inside the block");
        c.get_mut::<Line>().unwrap().0[63] = 9;
        let d = c.deep_clone::<Line>();
        assert_eq!(c.try_take::<Line>().unwrap().0[63], 9);
        assert_eq!(d.get::<Line>().0[..63], [7; 63]);
    }

    #[test]
    fn payload_drops_once_whether_released_taken_or_mistyped() {
        struct Probe(Arc<AtomicUsize>);
        impl Drop for Probe {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        let probe = || Probe(Arc::clone(&drops));
        // Moved out by the final owner: dropped by the caller, not by
        // the block that held it.
        let taken = DataCopy::new(probe(), OrderingPolicy::Relaxed)
            .try_take::<Probe>()
            .unwrap_or_else(|_| panic!("unique"));
        assert_eq!(drops.load(Ordering::Relaxed), 0);
        drop(taken);
        assert_eq!(drops.load(Ordering::Relaxed), 1);
        // A refused take hands the handle back intact.
        let c = DataCopy::new(probe(), OrderingPolicy::Relaxed);
        let c2 = c.clone();
        let c = c.try_take::<Probe>().map(|_| ()).expect_err("shared");
        drop(c);
        assert_eq!(drops.load(Ordering::Relaxed), 1);
        drop(c2);
        assert_eq!(drops.load(Ordering::Relaxed), 2);
        // A mistyped mutable borrow is refused without touching it.
        let mut c = DataCopy::new(probe(), OrderingPolicy::Relaxed);
        assert!(c.get_mut::<u64>().is_none());
        drop(c);
        assert_eq!(drops.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn move_optimization_takes_without_clone() {
        let c = DataCopy::new(String::from("move me"), OrderingPolicy::Relaxed);
        let s = c.try_take::<String>().expect("unique");
        assert_eq!(s, "move me");
    }

    #[test]
    fn try_take_fails_when_shared() {
        let c = DataCopy::new(7u32, OrderingPolicy::Relaxed);
        let c2 = c.clone();
        let c = c.try_take::<u32>().expect_err("shared copy must not move");
        assert_eq!(c.ref_count(), 2);
        drop(c);
        assert_eq!(*c2.get::<u32>(), 7);
    }

    #[test]
    fn get_mut_requires_uniqueness() {
        let mut c = DataCopy::new(1i64, OrderingPolicy::Relaxed);
        *c.get_mut::<i64>().unwrap() = 2;
        let c2 = c.clone();
        assert!(c.get_mut::<i64>().is_none());
        drop(c2);
        assert_eq!(*c.get_mut::<i64>().unwrap(), 2);
    }

    #[test]
    fn deep_clone_is_independent() {
        let mut a = DataCopy::new(vec![1, 2], OrderingPolicy::Relaxed);
        let b = a.deep_clone::<Vec<i32>>();
        a.get_mut::<Vec<i32>>().unwrap().push(3);
        assert_eq!(a.get::<Vec<i32>>(), &[1, 2, 3]);
        assert_eq!(b.get::<Vec<i32>>(), &[1, 2]);
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn type_mismatch_panics() {
        let c = DataCopy::new(1u8, OrderingPolicy::Relaxed);
        let _ = c.get::<u16>();
    }

    #[test]
    fn concurrent_clone_drop_stress() {
        let c = DataCopy::new(0usize, OrderingPolicy::Relaxed);
        std::thread::scope(|s| {
            for _ in 0..8 {
                let local = c.clone();
                s.spawn(move || {
                    for _ in 0..10_000 {
                        let x = local.clone();
                        assert_eq!(*x.get::<usize>(), 0);
                    }
                });
            }
        });
        assert!(c.is_unique());
    }
}
