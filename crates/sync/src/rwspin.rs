//! A word-based reader-writer spin lock.
//!
//! This is the "underlying reader-writer lock" of the BRAVO scheme
//! (Section IV-D): PaRSEC's hash table guards bucket operations with a
//! table-wide reader lock and resize operations with the writer lock
//! (Section III-C2). Readers pay one atomic RMW to enter and one to leave
//! — precisely the cost the BRAVO wrapper then removes from the fast path.
//!
//! The state word packs a writer flag into bit 0 and the reader count into
//! the remaining bits. Writers are not prioritized: the hash table's
//! writer (a resize) is an extremely rare event and the BRAVO layer above
//! already biases heavily toward readers, so simple reader-preference
//! keeps the common path short.
//!
//! [`RawRwSpinLock`] is the payload-free core; [`RwSpinLock`] adds an
//! `UnsafeCell<T>` and RAII guards. The BRAVO wrapper builds on the raw
//! lock because its readers must reach the protected value *without*
//! holding the underlying lock.

use crate::backoff::Backoff;
use crate::contention::{note_rw_exclusive_acquire, note_rw_shared_acquire};
use crate::counted::note_rmw;
use std::cell::UnsafeCell;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicUsize, Ordering};

const WRITER: usize = 1;
const READER: usize = 2;

/// The payload-free reader-writer spin lock. Callers pair `lock_*` and
/// `unlock_*` manually; [`RwSpinLock`] provides the safe RAII facade.
#[derive(Debug, Default)]
pub struct RawRwSpinLock {
    state: AtomicUsize,
}

impl RawRwSpinLock {
    /// Creates an unlocked raw lock.
    pub const fn new() -> Self {
        RawRwSpinLock {
            state: AtomicUsize::new(0),
        }
    }

    /// Acquires a shared (reader) lock, spinning while a writer is active.
    #[inline]
    pub fn lock_shared(&self) {
        let mut backoff = Backoff::new();
        let mut spins: u64 = 0;
        loop {
            note_rmw();
            let prev = self.state.fetch_add(READER, Ordering::Acquire);
            if prev & WRITER == 0 {
                note_rw_shared_acquire(spins);
                return;
            }
            // A writer is active: undo the optimistic increment and wait.
            note_rmw();
            self.state.fetch_sub(READER, Ordering::Relaxed);
            while self.state.load(Ordering::Relaxed) & WRITER != 0 {
                spins += 1;
                backoff.spin();
            }
        }
    }

    /// Attempts a shared acquire without waiting.
    #[inline]
    pub fn try_lock_shared(&self) -> bool {
        note_rmw();
        let prev = self.state.fetch_add(READER, Ordering::Acquire);
        if prev & WRITER == 0 {
            true
        } else {
            note_rmw();
            self.state.fetch_sub(READER, Ordering::Relaxed);
            false
        }
    }

    /// Releases a shared lock previously acquired on this lock.
    #[inline]
    pub fn unlock_shared(&self) {
        note_rmw();
        self.state.fetch_sub(READER, Ordering::Release);
    }

    /// Acquires the exclusive (writer) lock.
    #[inline]
    pub fn lock_exclusive(&self) {
        let mut backoff = Backoff::new();
        let mut spins: u64 = 0;
        loop {
            note_rmw();
            if self
                .state
                .compare_exchange_weak(0, WRITER, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
            {
                note_rw_exclusive_acquire(spins);
                return;
            }
            while self.state.load(Ordering::Relaxed) != 0 {
                spins += 1;
                backoff.spin();
            }
        }
    }

    /// Attempts an exclusive acquire without waiting.
    #[inline]
    pub fn try_lock_exclusive(&self) -> bool {
        note_rmw();
        self.state
            .compare_exchange(0, WRITER, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
    }

    /// Releases the exclusive lock by clearing the writer bit — and only
    /// that bit. A plain `store(0)` would be cheaper but wrong: a reader
    /// that arrived while the writer held has already added itself
    /// optimistically and will subtract itself again on seeing the
    /// writer bit, so the release must leave its increment in place or
    /// that subtraction wraps the word (every later writer then spins
    /// forever on a count that never returns to zero).
    #[inline]
    pub fn unlock_exclusive(&self) {
        note_rmw();
        self.state.fetch_and(!WRITER, Ordering::Release);
    }

    /// Current number of readers (racy; diagnostics only).
    pub fn reader_count(&self) -> usize {
        self.state.load(Ordering::Relaxed) / READER
    }

    /// Whether a writer currently holds the lock (racy; diagnostics only).
    pub fn has_writer(&self) -> bool {
        self.state.load(Ordering::Relaxed) & WRITER != 0
    }
}

/// Reader-writer spin lock protecting a `T`.
///
/// # Examples
///
/// ```
/// use ttg_sync::RwSpinLock;
///
/// let lock = RwSpinLock::new(vec![1, 2, 3]);
/// {
///     let r1 = lock.read();
///     let r2 = lock.read(); // many readers may coexist
///     assert_eq!(r1.len() + r2.len(), 6);
/// }
/// lock.write().push(4);
/// assert_eq!(lock.read().len(), 4);
/// ```
#[derive(Debug, Default)]
pub struct RwSpinLock<T> {
    raw: RawRwSpinLock,
    value: UnsafeCell<T>,
}

// SAFETY: standard RwLock bounds — readers share `&T` across threads, so
// `T: Send + Sync` is required for `Sync`.
unsafe impl<T: Send> Send for RwSpinLock<T> {}
unsafe impl<T: Send + Sync> Sync for RwSpinLock<T> {}

impl<T> RwSpinLock<T> {
    /// Creates an unlocked lock holding `value`.
    pub const fn new(value: T) -> Self {
        RwSpinLock {
            raw: RawRwSpinLock::new(),
            value: UnsafeCell::new(value),
        }
    }

    /// Acquires a shared (reader) lock.
    #[inline]
    pub fn read(&self) -> RwSpinReadGuard<'_, T> {
        self.raw.lock_shared();
        RwSpinReadGuard { lock: self }
    }

    /// Attempts to acquire a shared lock without waiting.
    #[inline]
    pub fn try_read(&self) -> Option<RwSpinReadGuard<'_, T>> {
        if self.raw.try_lock_shared() {
            Some(RwSpinReadGuard { lock: self })
        } else {
            None
        }
    }

    /// Acquires the exclusive (writer) lock.
    #[inline]
    pub fn write(&self) -> RwSpinWriteGuard<'_, T> {
        self.raw.lock_exclusive();
        RwSpinWriteGuard { lock: self }
    }

    /// Attempts to acquire the exclusive lock without waiting.
    #[inline]
    pub fn try_write(&self) -> Option<RwSpinWriteGuard<'_, T>> {
        if self.raw.try_lock_exclusive() {
            Some(RwSpinWriteGuard { lock: self })
        } else {
            None
        }
    }

    /// Current number of readers (racy; diagnostics only).
    pub fn reader_count(&self) -> usize {
        self.raw.reader_count()
    }

    /// Whether a writer currently holds the lock (racy; diagnostics only).
    pub fn has_writer(&self) -> bool {
        self.raw.has_writer()
    }

    /// Mutable access without locking; `&mut self` proves exclusivity.
    pub fn get_mut(&mut self) -> &mut T {
        self.value.get_mut()
    }
}

/// Shared guard for [`RwSpinLock`].
#[derive(Debug)]
pub struct RwSpinReadGuard<'a, T> {
    lock: &'a RwSpinLock<T>,
}

impl<T> Deref for RwSpinReadGuard<'_, T> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        // SAFETY: shared lock held; no writer can be active.
        unsafe { &*self.lock.value.get() }
    }
}

impl<T> Drop for RwSpinReadGuard<'_, T> {
    #[inline]
    fn drop(&mut self) {
        self.lock.raw.unlock_shared();
    }
}

/// Exclusive guard for [`RwSpinLock`].
#[derive(Debug)]
pub struct RwSpinWriteGuard<'a, T> {
    lock: &'a RwSpinLock<T>,
}

impl<T> Deref for RwSpinWriteGuard<'_, T> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        // SAFETY: exclusive lock held.
        unsafe { &*self.lock.value.get() }
    }
}

impl<T> DerefMut for RwSpinWriteGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: exclusive lock held.
        unsafe { &mut *self.lock.value.get() }
    }
}

impl<T> Drop for RwSpinWriteGuard<'_, T> {
    #[inline]
    fn drop(&mut self) {
        self.lock.raw.unlock_exclusive();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn readers_coexist() {
        let lock = RwSpinLock::new(7);
        let r1 = lock.read();
        let r2 = lock.read();
        assert_eq!(*r1 + *r2, 14);
        assert_eq!(lock.reader_count(), 2);
        assert!(lock.try_write().is_none());
    }

    #[test]
    fn writer_excludes_readers_and_writers() {
        let lock = RwSpinLock::new(());
        let w = lock.write();
        assert!(lock.try_read().is_none());
        assert!(lock.try_write().is_none());
        assert!(lock.has_writer());
        drop(w);
        assert!(lock.try_read().is_some());
    }

    #[test]
    fn concurrent_increments_with_writer_lock() {
        const THREADS: usize = 8;
        const ITERS: usize = 5_000;
        let lock = Arc::new(RwSpinLock::new(0usize));
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let lock = Arc::clone(&lock);
                std::thread::spawn(move || {
                    for i in 0..ITERS {
                        if (i + t) % 4 == 0 {
                            *lock.write() += 1;
                        } else {
                            // Readers verify they never observe a torn value.
                            let v = *lock.read();
                            assert!(v <= THREADS * ITERS);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let expected: usize = (0..THREADS)
            .map(|t| (0..ITERS).filter(|i| (i + t) % 4 == 0).count())
            .sum();
        assert_eq!(*lock.read(), expected);
    }

    #[test]
    fn write_unlock_keeps_the_increment_of_a_reader_that_is_backing_out() {
        // The interleaving, forced step by step with the reader's two
        // halves issued by hand: it adds itself while the writer holds,
        // the writer releases, and only then does it subtract itself.
        let raw = RawRwSpinLock::new();
        raw.lock_exclusive();
        let seen = raw.state.fetch_add(READER, Ordering::Acquire);
        assert_ne!(
            seen & WRITER,
            0,
            "the reader must see the writer and back out"
        );
        raw.unlock_exclusive();
        raw.state.fetch_sub(READER, Ordering::Relaxed);
        assert_eq!(raw.state.load(Ordering::Relaxed), 0, "state word wrapped");
        assert!(raw.try_lock_exclusive(), "a writer can get in again");
        raw.unlock_exclusive();
    }

    #[test]
    fn short_writer_sections_against_spinning_try_readers_leave_the_word_at_zero() {
        use std::sync::atomic::AtomicBool;
        use std::sync::{mpsc, Barrier};
        use std::time::Duration;
        const WRITES: usize = 100_000;
        const READERS: usize = 2;
        let lock = Arc::new(RwSpinLock::new(0usize));
        let writer_done = Arc::new(AtomicBool::new(false));
        // Without a common start the writer can be done before the
        // first reader is scheduled.
        let start = Arc::new(Barrier::new(READERS + 1));
        let (finished_tx, finished_rx) = mpsc::channel();
        for _ in 0..READERS {
            let (lock, writer_done, finished) = (
                Arc::clone(&lock),
                Arc::clone(&writer_done),
                finished_tx.clone(),
            );
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                start.wait();
                let mut last = 0;
                while !writer_done.load(Ordering::Acquire) {
                    if let Some(v) = lock.try_read() {
                        assert!(*v >= last, "a read went backwards");
                        last = *v;
                    }
                }
                let _ = finished.send(());
            });
        }
        {
            let (lock, writer_done) = (Arc::clone(&lock), Arc::clone(&writer_done));
            std::thread::spawn(move || {
                start.wait();
                for _ in 0..WRITES {
                    let mut value = lock.write();
                    *value += 1;
                    // Hold just long enough that a spinning reader's
                    // attempt lands inside the section; the release
                    // then races that reader's back-out.
                    for _ in 0..64 {
                        std::hint::spin_loop();
                    }
                }
                writer_done.store(true, Ordering::Release);
                let _ = finished_tx.send(());
            });
        }
        // Watchdog: a wrapped state word shows up as a writer that never
        // gets in again, which must fail the test rather than hang it.
        for _ in 0..READERS + 1 {
            finished_rx
                .recv_timeout(Duration::from_secs(120))
                .expect("a thread died or the writer is locked out for good");
        }
        assert_eq!(lock.raw.state.load(Ordering::Relaxed), 0, "state word");
        assert_eq!(*lock.read(), WRITES, "lost update");
    }

    #[test]
    fn raw_lock_manual_pairing() {
        let raw = RawRwSpinLock::new();
        raw.lock_shared();
        raw.lock_shared();
        assert_eq!(raw.reader_count(), 2);
        assert!(!raw.try_lock_exclusive());
        raw.unlock_shared();
        raw.unlock_shared();
        assert!(raw.try_lock_exclusive());
        assert!(!raw.try_lock_shared());
        raw.unlock_exclusive();
    }
}
