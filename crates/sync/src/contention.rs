//! Lock-contention counters (recorded only with feature `obs`).
//!
//! The paper's thesis is that small-task performance is decided by
//! synchronization overhead, so the runtime should be able to *attribute*
//! time to the locks it owns. This module provides two pieces:
//!
//! * **Per-thread slot counters** for the lock primitives in this crate
//!   ([`SpinLock`](crate::SpinLock), [`RawRwSpinLock`](crate::rwspin::RawRwSpinLock),
//!   [`BravoRwLock`](crate::BravoRwLock)). Each dense thread id owns a
//!   cache-line-aligned row of plain counters updated with a relaxed
//!   load+store pair — no read-modify-write, no shared cache line, so the
//!   instrumentation cannot itself become the contention it measures.
//!   [`lock_contention`] sums the rows into a [`LockContention`] snapshot.
//! * **[`ContentionCounter`]** — an embeddable counter for structures
//!   outside this crate (scheduler queues, hash tables): a relaxed
//!   `AtomicU64` behind [`Gated`].
//!
//! Both sit behind [`Gated`], so with `obs` off the rows and counters do
//! not exist and every call site (and the spin-iteration bookkeeping
//! feeding it) compiles to nothing — verified by the both-configuration
//! test below and `ttg-runtime`'s off-configuration layout test.
//!
//! The counter family is spelled once, in [`LOCK_FIELDS`]: the snapshot,
//! its merge, the stats JSON, the metrics export, the bench records and
//! the `# HELP` text all iterate that table.

use crate::gated::Gated;
use crate::thread_id;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// One lock-contention counter: its key in the stats JSON, its exported
/// metric name and the metric's `# HELP` text.
#[derive(Debug)]
pub struct LockField {
    /// Key under `contention` in `RuntimeStats` JSON.
    pub field: &'static str,
    /// Exported counter name (identity prefix added at render time).
    pub metric: &'static str,
    /// Prometheus `# HELP` text.
    pub help: &'static str,
}

/// The lock-contention family, in export order; the constants below
/// index it (and [`LockContention`]).
pub const LOCK_FIELDS: [LockField; 9] = [
    // Blocking `SpinLock::lock` acquisitions, and the TTAS wait-loop
    // iterations observed before them.
    LockField {
        field: "spin_acquisitions",
        metric: "lock_spin_acquisitions",
        help: "Spinlock acquisitions (contention profiling).",
    },
    LockField {
        field: "spin_spin_iters",
        metric: "lock_spin_iters",
        help: "Spin iterations across all spinlock acquisitions.",
    },
    // `RawRwSpinLock::lock_shared` / `lock_exclusive` acquisitions, and
    // the wait-loop iterations across both paths.
    LockField {
        field: "rw_shared_acquisitions",
        metric: "lock_rw_shared",
        help: "Reader-writer lock shared acquisitions.",
    },
    LockField {
        field: "rw_exclusive_acquisitions",
        metric: "lock_rw_exclusive",
        help: "Reader-writer lock exclusive acquisitions.",
    },
    LockField {
        field: "rw_spin_iters",
        metric: "lock_rw_spin_iters",
        help: "Spin iterations across reader-writer lock acquisitions.",
    },
    // BRAVO reads served by the zero-RMW visible-readers fast path vs
    // those that fell back to the underlying `RawRwSpinLock`.
    LockField {
        field: "bravo_fast_reads",
        metric: "bravo_fast_reads",
        help: "BRAVO read acquisitions served by the visible-reader fast path.",
    },
    LockField {
        field: "bravo_slow_reads",
        metric: "bravo_slow_reads",
        help: "BRAVO read acquisitions that fell back to the underlying lock.",
    },
    // Writer-side bias revocations (slot-table drains) and the total
    // nanoseconds writers spent draining the visible-readers table.
    LockField {
        field: "bravo_revocations",
        metric: "bravo_revocations",
        help: "BRAVO fast-path revocations by writers.",
    },
    LockField {
        field: "bravo_revocation_ns",
        metric: "bravo_revocation_ns",
        help: "Nanoseconds writers spent waiting out BRAVO revocations.",
    },
];

const SPIN_ACQ: usize = 0;
const SPIN_ITERS: usize = 1;
const RW_SHARED_ACQ: usize = 2;
const RW_EXCLUSIVE_ACQ: usize = 3;
const RW_ITERS: usize = 4;
const BRAVO_FAST: usize = 5;
const BRAVO_SLOW: usize = 6;
const BRAVO_REVOKE: usize = 7;
const BRAVO_REVOKE_NS: usize = 8;

/// Aggregated lock-contention counters, summed over all threads: one
/// value per [`LOCK_FIELDS`] row. All zeros when `obs` is off.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LockContention(pub [u64; LOCK_FIELDS.len()]);

impl LockContention {
    /// Field-wise sum, for folding per-process snapshots together.
    pub fn merge(&mut self, other: &LockContention) {
        for (mine, theirs) in self.0.iter_mut().zip(&other.0) {
            *mine += theirs;
        }
    }
}

/// One thread's counter row, aligned so rows never share a cache
/// line (the single-writer discipline only pays off if the row is
/// private to its writer).
#[repr(align(128))]
struct Row([AtomicU64; LOCK_FIELDS.len()]);

#[allow(clippy::declare_interior_mutable_const)]
const EMPTY_ROW: Row = Row([const { AtomicU64::new(0) }; LOCK_FIELDS.len()]);
static ROWS: Gated<[Row; thread_id::MAX_THREADS]> = Gated::new([EMPTY_ROW; thread_id::MAX_THREADS]);

/// Relaxed load+store bump: the row is written only by its owning
/// thread, so no RMW is needed; snapshot readers tolerate raciness.
#[inline(always)]
fn bump(counter: usize, n: u64) {
    ROWS.with(|rows| {
        let tid = thread_id::current();
        if tid < thread_id::MAX_THREADS {
            let c = &rows[tid].0[counter];
            c.store(c.load(Relaxed).wrapping_add(n), Relaxed);
        }
    });
}

/// Notes one acquisition and the wait iterations that preceded it.
#[inline(always)]
fn note_acquire(acquisitions: usize, iters: usize, spins: u64) {
    bump(acquisitions, 1);
    if spins != 0 {
        bump(iters, spins);
    }
}

/// Notes a blocking `SpinLock::lock` acquisition and the TTAS wait
/// iterations that preceded it.
#[inline(always)]
pub fn note_spin_acquire(spins: u64) {
    note_acquire(SPIN_ACQ, SPIN_ITERS, spins);
}

/// Notes a `RawRwSpinLock::lock_shared` acquisition.
#[inline(always)]
pub fn note_rw_shared_acquire(spins: u64) {
    note_acquire(RW_SHARED_ACQ, RW_ITERS, spins);
}

/// Notes a `RawRwSpinLock::lock_exclusive` acquisition.
#[inline(always)]
pub fn note_rw_exclusive_acquire(spins: u64) {
    note_acquire(RW_EXCLUSIVE_ACQ, RW_ITERS, spins);
}

/// Notes a BRAVO read served by the visible-readers fast path.
#[inline(always)]
pub fn note_bravo_fast_read() {
    bump(BRAVO_FAST, 1);
}

/// Notes a BRAVO read that fell back to the underlying lock.
#[inline(always)]
pub fn note_bravo_slow_read() {
    bump(BRAVO_SLOW, 1);
}

/// Notes a writer-side bias revocation and its drain latency.
#[inline(always)]
pub fn note_bravo_revocation(ns: u64) {
    bump(BRAVO_REVOKE, 1);
    bump(BRAVO_REVOKE_NS, ns);
}

/// Snapshot of the per-thread lock counters, summed across threads.
/// All zeros when `obs` is off.
pub fn lock_contention() -> LockContention {
    let mut out = LockContention::default();
    ROWS.with(|rows| {
        for row in rows.iter().take(thread_id::assigned()) {
            for (sum, c) in out.0.iter_mut().zip(&row.0) {
                *sum += c.load(Relaxed);
            }
        }
    });
    out
}

/// Zeroes the per-thread lock counters (tests and benchmark phases).
pub fn reset_lock_contention() {
    ROWS.with(|rows| {
        for row in rows.iter().take(thread_id::assigned()) {
            for c in &row.0 {
                c.store(0, Relaxed);
            }
        }
    });
}

/// An embeddable contention counter: a relaxed `AtomicU64` when `obs`
/// is on, zero-sized otherwise. Structures in the scheduler and hash
/// table embed these unconditionally and let the switch decide whether
/// they exist.
#[derive(Debug, Default)]
pub struct ContentionCounter(Gated<AtomicU64>);

impl ContentionCounter {
    /// Creates a zeroed counter.
    pub const fn new() -> Self {
        ContentionCounter(Gated::new(AtomicU64::new(0)))
    }

    /// Adds `n` (relaxed; nothing when `obs` is off).
    #[inline(always)]
    pub fn add(&self, n: u64) {
        self.0.with(|v| v.fetch_add(n, Relaxed));
    }

    /// Adds one (relaxed; nothing when `obs` is off).
    #[inline(always)]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value; always zero when `obs` is off.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.with(|v| v.load(Relaxed)).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OBS;

    /// Exercises every note path once with known arguments; returns the
    /// delta each [`LOCK_FIELDS`] row must show when recording is on.
    fn note_everything() -> [u64; LOCK_FIELDS.len()] {
        note_spin_acquire(10);
        note_spin_acquire(0);
        note_rw_shared_acquire(3);
        note_rw_exclusive_acquire(4);
        note_bravo_fast_read();
        note_bravo_slow_read();
        note_bravo_revocation(1_000);
        [2, 10, 1, 1, 7, 1, 1, 1, 1_000]
    }

    #[test]
    fn note_paths_record_exactly_when_the_switch_is_on() {
        // Deltas, not absolutes: other tests in the process share the
        // global rows, so assert on the difference around a known load.
        // With `obs` off this is the zero-delta acceptance check:
        // exercising every note path leaves no trace.
        let before = lock_contention();
        let expected = note_everything();
        let after = lock_contention();
        for (i, f) in LOCK_FIELDS.iter().enumerate() {
            let want = if OBS { expected[i] } else { 0 };
            assert_eq!(after.0[i] - before.0[i], want, "{}", f.field);
        }
        if !OBS {
            assert_eq!(after, LockContention::default());
        }

        let c = ContentionCounter::new();
        c.incr();
        c.add(41);
        assert_eq!(c.get(), if OBS { 42 } else { 0 });
    }

    #[cfg(feature = "obs")]
    #[test]
    fn lock_paths_feed_the_counters() {
        use crate::{BravoRwLock, RwSpinLock, SpinLock};
        let before = lock_contention();

        let spin = SpinLock::new(0u32);
        *spin.lock() += 1;

        let rw = RwSpinLock::new(0u32);
        let _ = *rw.read();
        *rw.write() += 1;

        let bravo = BravoRwLock::new(0u32);
        assert!(bravo.read().is_fast_path()); // fast read
        *bravo.write() += 1; // revokes bias
        let _ = *bravo.read(); // slow read (bias inhibited)

        let after = lock_contention();
        // Uncontended: every acquisition counter moves, no spin-iteration
        // counter has to.
        for i in [
            SPIN_ACQ,
            RW_SHARED_ACQ,
            RW_EXCLUSIVE_ACQ,
            BRAVO_FAST,
            BRAVO_SLOW,
            BRAVO_REVOKE,
            BRAVO_REVOKE_NS,
        ] {
            assert!(after.0[i] > before.0[i], "{}", LOCK_FIELDS[i].field);
        }
    }

    #[test]
    fn merge_is_fieldwise_sum() {
        let mut a = LockContention::default();
        a.0[SPIN_ACQ] = 1;
        a.0[BRAVO_REVOKE_NS] = 5;
        let mut b = LockContention::default();
        b.0[SPIN_ACQ] = 2;
        b.0[RW_ITERS] = 7;
        a.merge(&b);
        assert_eq!(a.0[SPIN_ACQ], 3);
        assert_eq!(a.0[RW_ITERS], 7);
        assert_eq!(a.0[BRAVO_REVOKE_NS], 5);
    }
}
