//! Process-local task accounting: the thread-local (optimized) and
//! process-wide (original) counting schemes.

use std::cell::Cell;
use std::sync::atomic::Ordering;
use ttg_sync::{CAtomicI64, CAtomicU64, CachePadded, OrderingPolicy};

/// Which task-accounting scheme the runtime uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TermDetKind {
    /// Every discovery/execution event performs an atomic RMW on one
    /// shared process-wide counter — the contended pre-paper behaviour
    /// (Section III-A).
    ProcessWide,
    /// Events update a plain per-thread counter; the shared counter is
    /// only touched when a thread flushes on idle (Section IV-B). The
    /// optimized default.
    #[default]
    ThreadLocal,
}

/// A per-worker counter cell. Only the owning worker thread accesses it;
/// the wrapper exists to make the containing struct `Sync`.
#[derive(Debug, Default)]
struct LocalCell {
    pending: Cell<i64>,
}

// SAFETY: a `LocalCell` is read and written only through
// `task_discovered`, `task_executed` and `flush` with its own worker
// index, and the runtime passes index `w` only on worker `w`'s thread,
// so one thread at a time touches each cell. That discipline is the
// runtime's, not the type system's: those methods are safe, and two
// threads passing the same index would race on the `Cell`.
unsafe impl Sync for LocalCell {}

/// Process-local termination accounting.
///
/// Tracks pending tasks (discovered − executed) and message counts.
/// Quiescence (`is_quiescent`) is meaningful only when all workers are
/// idle and have [`LocalTermination::flush`]ed.
#[derive(Debug)]
pub struct LocalTermination {
    kind: TermDetKind,
    policy: OrderingPolicy,
    locals: Box<[CachePadded<LocalCell>]>,
    /// Process-wide pending count (tasks + internal actions).
    pending: CAtomicI64,
    /// Messages sent to / received from other processes.
    sent: CAtomicU64,
    received: CAtomicU64,
    /// Messages retracted from the totals after a peer session reset:
    /// traffic exchanged with an incarnation that no longer exists must
    /// not count toward the wave, or the surviving ranks would wait for
    /// matches that can never arrive.
    retracted_sent: CAtomicU64,
    retracted_received: CAtomicU64,
}

impl LocalTermination {
    /// Creates accounting state for `workers` worker threads.
    pub fn new(kind: TermDetKind, policy: OrderingPolicy, workers: usize) -> Self {
        LocalTermination {
            kind,
            policy,
            locals: (0..workers.max(1))
                .map(|_| CachePadded::new(LocalCell::default()))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            pending: CAtomicI64::new(0),
            sent: CAtomicU64::new(0),
            received: CAtomicU64::new(0),
            retracted_sent: CAtomicU64::new(0),
            retracted_received: CAtomicU64::new(0),
        }
    }

    /// Which scheme is active.
    pub fn kind(&self) -> TermDetKind {
        self.kind
    }

    /// Records a task discovery. `worker` is `Some(w)` when called from
    /// worker thread `w`, `None` from external threads (always atomic).
    #[inline]
    pub fn task_discovered(&self, worker: Option<usize>) {
        match (self.kind, worker) {
            (TermDetKind::ThreadLocal, Some(w)) => {
                let c = &self.locals[w].pending;
                c.set(c.get() + 1);
            }
            _ => {
                self.pending.fetch_add(1, self.policy.rmw());
            }
        }
    }

    /// Records a task execution (the matching decrement).
    #[inline]
    pub fn task_executed(&self, worker: Option<usize>) {
        match (self.kind, worker) {
            (TermDetKind::ThreadLocal, Some(w)) => {
                let c = &self.locals[w].pending;
                c.set(c.get() - 1);
            }
            _ => {
                self.pending.fetch_sub(1, self.policy.rmw());
            }
        }
    }

    /// Pushes worker `w`'s locally accumulated delta to the process-wide
    /// counter. Called when the worker falls idle. Costs one atomic RMW
    /// only if the delta is non-zero.
    #[inline]
    pub fn flush(&self, worker: usize) {
        if self.kind == TermDetKind::ThreadLocal {
            let c = &self.locals[worker].pending;
            let delta = c.get();
            if delta != 0 {
                c.set(0);
                self.pending.fetch_add(delta, self.policy.rmw());
            }
        }
    }

    /// Records an outbound inter-process message.
    pub fn message_sent(&self) {
        self.sent.fetch_add(1, self.policy.rmw());
    }

    /// Records an inbound inter-process message.
    pub fn message_received(&self) {
        self.received.fetch_add(1, self.policy.rmw());
    }

    /// Records `received` inbound messages that enter the process as
    /// `tasks` ready tasks (fewer if some were dropped), from any
    /// thread: the tasks are discovered *before* the messages count as
    /// received, so whoever reads a received total that includes them
    /// finds them pending until their handlers have run. (The other
    /// order lets an idle rank offer the wave Σsent == Σreceived with
    /// nothing pending while they have not.)
    pub fn messages_arrived(&self, received: u64, tasks: u64) {
        self.pending.fetch_add(tasks as i64, self.policy.rmw());
        self.received.fetch_add(received, self.policy.rmw());
    }

    /// Retracts `sent`/`received` messages from the wave contribution.
    ///
    /// Called when a peer rejoins with a *new* incarnation: the frames
    /// exchanged with the dead incarnation will never be matched on the
    /// other side, so they are subtracted from [`message_totals`]
    /// (saturating — a retraction can race a concurrent count) rather
    /// than left to deadlock the termination wave.
    ///
    /// [`message_totals`]: LocalTermination::message_totals
    pub fn retract_messages(&self, sent: u64, received: u64) {
        self.retracted_sent.fetch_add(sent, self.policy.rmw());
        self.retracted_received
            .fetch_add(received, self.policy.rmw());
    }

    /// Totals of (sent, received) messages — the wave contribution —
    /// net of any [`retract_messages`] adjustments.
    ///
    /// [`retract_messages`]: LocalTermination::retract_messages
    pub fn message_totals(&self) -> (u64, u64) {
        let sent = self.sent.load(self.policy.load());
        let received = self.received.load(self.policy.load());
        (
            sent.saturating_sub(self.retracted_sent.load(self.policy.load())),
            received.saturating_sub(self.retracted_received.load(self.policy.load())),
        )
    }

    /// Process-wide pending count. Exact only when all workers are idle
    /// and flushed; may be transiently negative otherwise.
    pub fn pending(&self) -> i64 {
        self.pending.load(self.policy.load())
    }

    /// True when the flushed pending count is zero. The caller must
    /// ensure all workers are idle and flushed for this to imply local
    /// quiescence.
    pub fn is_quiescent(&self) -> bool {
        self.pending() == 0
    }

    /// Resets all counters for a new execution wave. Callers must
    /// guarantee no worker is concurrently counting.
    pub fn reset(&self) {
        self.pending.store(0, Ordering::Relaxed);
        self.sent.store(0, Ordering::Relaxed);
        self.received.store(0, Ordering::Relaxed);
        self.retracted_sent.store(0, Ordering::Relaxed);
        self.retracted_received.store(0, Ordering::Relaxed);
        for l in self.locals.iter() {
            l.pending.set(0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn process_wide_counts_immediately() {
        let t = LocalTermination::new(TermDetKind::ProcessWide, OrderingPolicy::SeqCst, 4);
        t.task_discovered(Some(0));
        t.task_discovered(None);
        assert_eq!(t.pending(), 2);
        t.task_executed(Some(1));
        t.task_executed(None);
        assert_eq!(t.pending(), 0);
        assert!(t.is_quiescent());
    }

    #[test]
    fn thread_local_defers_until_flush() {
        let t = LocalTermination::new(TermDetKind::ThreadLocal, OrderingPolicy::Relaxed, 2);
        t.task_discovered(Some(0));
        t.task_discovered(Some(0));
        // The shared counter hasn't been touched yet.
        assert_eq!(t.pending(), 0);
        t.flush(0);
        assert_eq!(t.pending(), 2);
        t.task_executed(Some(1));
        t.task_executed(Some(1));
        t.flush(1);
        assert_eq!(t.pending(), 0);
    }

    #[test]
    fn external_submissions_are_atomic_even_in_thread_local_mode() {
        let t = LocalTermination::new(TermDetKind::ThreadLocal, OrderingPolicy::Relaxed, 2);
        t.task_discovered(None);
        assert_eq!(
            t.pending(),
            1,
            "external discovery must be visible immediately"
        );
        t.task_executed(Some(0));
        t.flush(0);
        assert!(t.is_quiescent());
    }

    #[test]
    fn cross_thread_execution_balances_after_flush() {
        // Worker 0 discovers, worker 1 executes (a steal): the counter is
        // transiently negative after worker 1 flushes, exact after both.
        let t = LocalTermination::new(TermDetKind::ThreadLocal, OrderingPolicy::Relaxed, 2);
        t.task_discovered(Some(0));
        t.task_executed(Some(1));
        t.flush(1);
        assert_eq!(t.pending(), -1);
        t.flush(0);
        assert_eq!(t.pending(), 0);
    }

    #[test]
    fn message_totals_accumulate() {
        let t = LocalTermination::new(TermDetKind::ThreadLocal, OrderingPolicy::Relaxed, 1);
        t.message_sent();
        t.message_sent();
        t.message_received();
        assert_eq!(t.message_totals(), (2, 1));
        t.reset();
        assert_eq!(t.message_totals(), (0, 0));
    }

    #[test]
    fn retraction_subtracts_from_totals_saturating() {
        let t = LocalTermination::new(TermDetKind::ThreadLocal, OrderingPolicy::Relaxed, 1);
        t.message_sent();
        t.message_sent();
        t.message_sent();
        t.message_received();
        t.retract_messages(2, 1);
        assert_eq!(t.message_totals(), (1, 0));
        // Over-retraction (a racing count) saturates instead of wrapping.
        t.retract_messages(10, 10);
        assert_eq!(t.message_totals(), (0, 0));
        t.reset();
        t.message_sent();
        assert_eq!(t.message_totals(), (1, 0), "reset clears retractions");
    }

    #[test]
    fn concurrent_workers_balance_to_zero() {
        const WORKERS: usize = 8;
        const TASKS: usize = 10_000;
        let t = Arc::new(LocalTermination::new(
            TermDetKind::ThreadLocal,
            OrderingPolicy::Relaxed,
            WORKERS,
        ));
        let handles: Vec<_> = (0..WORKERS)
            .map(|w| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    for i in 0..TASKS {
                        t.task_discovered(Some(w));
                        t.task_executed(Some(w));
                        if i % 100 == 0 {
                            t.flush(w);
                        }
                    }
                    t.flush(w);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(t.is_quiescent());
    }
}
