//! Atomics whose read-modify-writes can be counted.
//!
//! Section IV-E of the paper derives a cost model for the number of atomic
//! operations in the lifetime of a task:
//!
//! ```text
//! N_A = (N_ID + N_RC + N_HB) × N_i + N_OB + N_S  =  4·N_i + 4        (1)
//! ```
//!
//! (N_S = 2, the scheduler's push and pop, is paid by a task that goes
//! through a queue; one handed to its own worker pays 0 — the tests
//! gate both counts.)
//!
//! To *validate* that model rather than merely assert it, the runtime
//! issues every accounting-relevant atomic read-modify-write through the
//! wrappers in this module. With the `count-atomics` feature enabled, each
//! RMW bumps a thread-local plain counter; tests then drive a task with
//! `N_i` inputs through the runtime and compare the measured count against
//! Equation (1). Without the feature the wrappers compile to the bare
//! atomic operation — zero overhead.
//!
//! Only read-modify-writes (fetch_add/sub, swap, compare_exchange) are
//! counted: the paper's model counts locked-bus operations, and on x86 a
//! release *store* (the optimized unlock path, Section IV-A) is a plain
//! store — exactly why the paper counts a lock/unlock cycle as *one*
//! atomic operation.

use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};

#[cfg(feature = "count-atomics")]
mod counter {
    use std::sync::atomic::{AtomicU64, Ordering};

    // Global so that validation tests can total operations across the
    // worker threads that actually execute tasks. Only compiled for
    // validation builds — the perturbation is irrelevant there.
    static RMW_OPS: AtomicU64 = AtomicU64::new(0);

    #[inline]
    pub fn note() {
        RMW_OPS.fetch_add(1, Ordering::Relaxed);
    }

    pub fn get() -> u64 {
        RMW_OPS.load(Ordering::Relaxed)
    }

    pub fn reset() {
        RMW_OPS.store(0, Ordering::Relaxed);
    }
}

/// Records one atomic read-modify-write against the process-wide
/// counter. No-op unless the `count-atomics` feature is enabled.
#[inline(always)]
pub fn note_rmw() {
    #[cfg(feature = "count-atomics")]
    counter::note();
}

/// Number of counted RMW operations performed process-wide since the
/// last [`reset_atomic_rmw_ops`]. Always 0 without `count-atomics`.
pub fn atomic_rmw_ops() -> u64 {
    #[cfg(feature = "count-atomics")]
    {
        counter::get()
    }
    #[cfg(not(feature = "count-atomics"))]
    {
        0
    }
}

/// Resets the process-wide RMW counter.
pub fn reset_atomic_rmw_ops() {
    #[cfg(feature = "count-atomics")]
    counter::reset();
}

macro_rules! counted_atomic {
    ($(#[$meta:meta])* $name:ident, $atomic:ident, $prim:ty) => {
        $(#[$meta])*
        #[derive(Debug, Default)]
        pub struct $name {
            inner: $atomic,
        }

        impl $name {
            /// Creates a new counted atomic with the given initial value.
            pub const fn new(v: $prim) -> Self {
                Self { inner: $atomic::new(v) }
            }

            /// Plain load (not counted: loads are not locked operations).
            #[inline]
            pub fn load(&self, order: Ordering) -> $prim {
                self.inner.load(order)
            }

            /// Plain store (not counted; a release store is a normal store
            /// on x86 — Section IV-A).
            #[inline]
            pub fn store(&self, v: $prim, order: Ordering) {
                self.inner.store(v, order)
            }

            /// Counted fetch-and-add.
            #[inline]
            pub fn fetch_add(&self, v: $prim, order: Ordering) -> $prim {
                note_rmw();
                self.inner.fetch_add(v, order)
            }

            /// Counted fetch-and-subtract.
            #[inline]
            pub fn fetch_sub(&self, v: $prim, order: Ordering) -> $prim {
                note_rmw();
                self.inner.fetch_sub(v, order)
            }

            /// Counted swap.
            #[inline]
            pub fn swap(&self, v: $prim, order: Ordering) -> $prim {
                note_rmw();
                self.inner.swap(v, order)
            }

            /// Counted compare-exchange. Counts one RMW whether it
            /// succeeds or fails — the bus transaction happens either way.
            #[inline]
            pub fn compare_exchange(
                &self,
                current: $prim,
                new: $prim,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$prim, $prim> {
                note_rmw();
                self.inner.compare_exchange(current, new, success, failure)
            }

            /// Counted weak compare-exchange.
            #[inline]
            pub fn compare_exchange_weak(
                &self,
                current: $prim,
                new: $prim,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$prim, $prim> {
                note_rmw();
                self.inner.compare_exchange_weak(current, new, success, failure)
            }

            /// Access to the raw atomic, for operations that should *not*
            /// be counted (e.g. statistics).
            #[inline]
            pub fn raw(&self) -> &$atomic {
                &self.inner
            }
        }
    };
}

counted_atomic!(
    /// `AtomicUsize` whose RMW operations are counted under `count-atomics`.
    CAtomicUsize,
    AtomicUsize,
    usize
);
counted_atomic!(
    /// `AtomicU64` whose RMW operations are counted under `count-atomics`.
    CAtomicU64,
    AtomicU64,
    u64
);
counted_atomic!(
    /// `AtomicI64` whose RMW operations are counted under `count-atomics`.
    CAtomicI64,
    AtomicI64,
    i64
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_ops_behave_like_atomics() {
        let a = CAtomicI64::new(5);
        assert_eq!(a.fetch_add(2, Ordering::Relaxed), 5);
        assert_eq!(a.fetch_sub(1, Ordering::Relaxed), 7);
        assert_eq!(a.swap(100, Ordering::Relaxed), 6);
        assert_eq!(
            a.compare_exchange(100, 0, Ordering::Relaxed, Ordering::Relaxed),
            Ok(100)
        );
        assert_eq!(a.load(Ordering::Relaxed), 0);
    }

    #[cfg(feature = "count-atomics")]
    #[test]
    fn rmw_ops_are_counted() {
        reset_atomic_rmw_ops();
        let a = CAtomicUsize::new(0);
        a.fetch_add(1, Ordering::Relaxed);
        a.store(7, Ordering::Relaxed); // not counted
        let _ = a.load(Ordering::Relaxed); // not counted
        let _ = a.compare_exchange(7, 8, Ordering::Relaxed, Ordering::Relaxed);
        assert_eq!(atomic_rmw_ops(), 2);
        reset_atomic_rmw_ops();
        assert_eq!(atomic_rmw_ops(), 0);
    }

    #[cfg(not(feature = "count-atomics"))]
    #[test]
    fn counting_disabled_reports_zero() {
        let a = CAtomicUsize::new(0);
        a.fetch_add(1, Ordering::Relaxed);
        assert_eq!(atomic_rmw_ops(), 0);
    }
}
