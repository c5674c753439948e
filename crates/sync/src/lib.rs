//! # ttg-sync — synchronization primitives for TTG-RS
//!
//! This crate is the foundation of the TTG-RS runtime and holds every
//! synchronization primitive the paper discusses:
//!
//! * [`CachePadded`] — padding to a cache line to prevent false sharing
//!   (Section IV-D of the paper allocates "at least one cache-line per
//!   thread" in the BRAVO visible-readers table).
//! * [`Backoff`] — bounded exponential backoff used while spinning.
//! * [`SpinLock`] — the simple atomic-flag lock PaRSEC uses for hash-table
//!   buckets, with *acquire* on lock and *release* on unlock so the unlock
//!   is a plain store on x86 (Section IV-A).
//! * [`RwSpinLock`] — a word-based reader-writer spin lock (the "underlying
//!   lock" of the BRAVO scheme).
//! * [`BravoRwLock`] — the BRAVO reader-biased wrapper (Dice & Kogan,
//!   USENIX ATC'19; Section IV-D, Figure 4): readers publish themselves in
//!   a per-thread visible-readers table and skip the underlying lock
//!   entirely in the common case.
//! * [`OrderingPolicy`] — a runtime-selectable memory-ordering policy that
//!   lets benchmarks ablate the paper's Section IV-A change (sequentially
//!   consistent "original" counters vs relaxed "optimized" counters).
//! * [`counted`] — atomic wrappers that (optionally, feature
//!   `count-atomics`) count every read-modify-write so tests can validate
//!   the paper's atomic-cost model N_A = 4·N_i + 4 (Equation 1).
//! * [`gated`] — the one observability switch (feature `obs`): the
//!   [`OBS`] constant and [`Gated<T>`], the recorder slot that is a `T`
//!   when the feature is on and zero-sized when it is off. Every
//!   recorder in the workspace is built from it.
//! * [`contention`] — lock-contention counters behind [`Gated`]:
//!   per-thread acquisition/spin/bias statistics for the locks above
//!   plus an embeddable [`ContentionCounter`] for higher-level
//!   structures.
//! * [`clock`] — an `rdtsc`-based cycle clock plus a calibrated busy-wait,
//!   used by the scheduler benchmarks ("blocking the execution of the task
//!   until a given number of cycles has passed", Section V-C).
//! * [`thread_id`] — a tiny dense thread-id registry; BRAVO tables and the
//!   per-thread structures of the runtime are indexed by it.

#![warn(missing_docs)]

pub mod backoff;
pub mod bravo;
pub mod clock;
pub mod contention;
pub mod counted;
pub mod gated;
pub mod ordering;
pub mod pad;
pub mod rwspin;
pub mod spin;
pub mod thread_id;

pub use backoff::Backoff;
pub use bravo::{BravoReadGuard, BravoRwLock, BravoWriteGuard};
pub use contention::{
    lock_contention, reset_lock_contention, ContentionCounter, LockContention, LOCK_FIELDS,
};
pub use counted::{atomic_rmw_ops, reset_atomic_rmw_ops, CAtomicI64, CAtomicU64, CAtomicUsize};
pub use gated::{Gated, OBS};
pub use ordering::OrderingPolicy;
pub use pad::CachePadded;
pub use rwspin::{RwSpinLock, RwSpinReadGuard, RwSpinWriteGuard};
pub use spin::{SpinLock, SpinLockGuard};
