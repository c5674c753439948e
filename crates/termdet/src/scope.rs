//! Instance-scoped termination: per-graph-instance completion on a
//! shared, resident runtime.
//!
//! The 4-counter wave answers "is the *whole job* quiescent?" — the
//! right question for run-to-completion programs, and the wrong one for
//! a serving runtime executing many independent graph instances
//! concurrently: waiting for global quiescence would serialize
//! instances behind each other.
//!
//! An [`InstanceScope`] is the instance-local analogue of one wave
//! epoch. Instead of reducing (sent, received) message totals across
//! processes, it exploits a structural property of in-process task
//! scheduling: every task of an instance is *scheduled* either by the
//! submitter (while it holds a [`SubmissionGuard`] credit) or by an
//! already-running task of the same instance (whose own completion is
//! still pending). Scheduling increments the scope's pending counter
//! **before** the new task becomes visible, and a task's decrement
//! happens only after its body — and therefore all of its scheduling —
//! has finished. The counter consequently can never touch zero while
//! more work can still appear: the first time it reaches zero *is*
//! instance termination, with no second confirmation round needed (the
//! wave's "two identical reductions" guard exists precisely because
//! remote receives are asynchronous; here they are not). This is the
//! classic Dijkstra–Scholten credit scheme, degenerate-wave framing:
//! within one process, sent == received holds at every instant.
//!
//! A worker need not pay one increment per successor and one decrement
//! per task. What a task schedules into its own scope stays unpublished
//! until the task returns, so the worker counts it and settles once,
//! **before** publishing: `k` live successors, `pending += k − 1`
//! ([`InstanceScope::settle_task`] — the task's credit passes to one of
//! them, a chain link touches the counter not at all); none, the task's
//! `−1` as before. "Task alive" becomes "its successors alive" in one
//! step, so the counter still cannot touch zero while work can appear;
//! settled *after* the publication, a stolen successor's `−1` could
//! meet a counter holding only its parent's credit.
//!
//! Failure is a first-class outcome: a panicking task body marks the
//! scope failed but does **not** end it early — remaining tasks drain
//! normally so the instance still terminates, the runtime stays
//! healthy, and sibling instances never notice.

use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use ttg_sync::CAtomicI64;

/// How an instance's execution ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScopeOutcome {
    /// Every scheduled task executed and none failed.
    Completed,
    /// All tasks drained, but at least one failed (first diagnostic).
    Failed(String),
}

impl ScopeOutcome {
    /// True for [`ScopeOutcome::Completed`].
    pub fn is_ok(&self) -> bool {
        matches!(self, ScopeOutcome::Completed)
    }
}

struct ScopeState {
    complete: bool,
    failure: Option<String>,
    /// Fired exactly once, the moment the scope completes (or
    /// immediately at registration if already complete).
    on_complete: Option<Box<dyn FnOnce() + Send>>,
}

/// Termination-detection scope for one graph instance on a shared
/// runtime (see the module docs for the credit-scheme protocol).
///
/// Counting contract:
///
/// - [`InstanceScope::task_scheduled`] **before** the task becomes
///   reachable by any worker;
/// - [`InstanceScope::task_completed`] only after the task's body (and
///   thus all scheduling it performs) has fully finished;
/// - external seeding happens under a [`SubmissionGuard`], whose credit
///   keeps the counter positive until seeding is done.
///
/// Violating the ordering can announce termination early; the runtime
/// integration (ttg-core's scoped graphs) honours it at every site.
pub struct InstanceScope {
    id: u64,
    /// Outstanding credits: live tasks + open submission guards. The
    /// only counter, and counted under `count-atomics`: a scoped task
    /// pays for what it does to this word and nothing else.
    pending: CAtomicI64,
    /// Request-scoped span context for this instance (`ttg_obs::spans`
    /// packing: tenant tag ‖ instance id); 0 = unattributed. Written
    /// once at instantiation, read by every task-shell stamp.
    span: AtomicU64,
    /// Set while the instance is held hostage by a recovering peer:
    /// its outcome must not be finalized (failed *or* completed) until
    /// the peer rejoins or the recovery deadline expires. Advisory —
    /// the credit protocol keeps running underneath.
    quarantined: AtomicBool,
    state: Mutex<ScopeState>,
    cv: Condvar,
}

impl InstanceScope {
    /// Creates the scope for instance `id`. A scope with no credits is
    /// *dormant*, not complete — completion is only announced by a
    /// credit draining to zero, so take a [`SubmissionGuard`] even for
    /// instances that schedule nothing.
    pub fn new(id: u64) -> Arc<Self> {
        Arc::new(InstanceScope {
            id,
            pending: CAtomicI64::new(0),
            span: AtomicU64::new(0),
            quarantined: AtomicBool::new(false),
            state: Mutex::new(ScopeState {
                complete: false,
                failure: None,
                on_complete: None,
            }),
            cv: Condvar::new(),
        })
    }

    /// The instance id this scope tracks (namespaces diagnostics,
    /// results, and metrics).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Links this scope to a request-scoped span context (packed tenant
    /// tag ‖ instance id). Called once at instantiation, before any
    /// task is scheduled under the scope.
    pub fn set_span(&self, span: u64) {
        self.span.store(span, Ordering::Release);
    }

    /// The linked span context, or 0 if the instance is unattributed.
    #[inline]
    pub fn span(&self) -> u64 {
        self.span.load(Ordering::Acquire)
    }

    /// Takes a submission credit: the scope cannot complete while the
    /// guard is alive, so a seeder may schedule tasks without racing an
    /// early zero-crossing. Dropping the guard releases the credit.
    pub fn submission_guard(self: &Arc<Self>) -> SubmissionGuard {
        self.pending.fetch_add(1, Ordering::AcqRel);
        SubmissionGuard {
            scope: Arc::clone(self),
        }
    }

    /// Records that one task of this instance was scheduled. Must
    /// happen-before the task is published to any queue.
    #[inline]
    pub fn task_scheduled(&self) {
        self.pending.fetch_add(1, Ordering::AcqRel);
    }

    /// Settles a finished task that leaves `successors >= 1` scheduled,
    /// still unpublished tasks of this scope behind: its own credit
    /// passes to one of them and the others are credited here in one
    /// step — nothing at all for a single successor. Stands for the
    /// `task_scheduled` of each successor **and** the task's own
    /// `task_completed`; like the former it must happen-before any of
    /// them is published (module docs).
    #[inline]
    pub fn settle_task(&self, successors: usize) {
        debug_assert!(successors >= 1, "a leaf settles by task_completed");
        if successors > 1 {
            self.pending
                .fetch_add(successors as i64 - 1, Ordering::AcqRel);
        }
    }

    /// Records that one scheduled task finished (executed or was
    /// disposed during teardown). The zero-crossing announces
    /// completion.
    #[inline]
    pub fn task_completed(&self) {
        self.release_credit();
    }

    #[inline]
    fn release_credit(&self) {
        let prev = self.pending.fetch_sub(1, Ordering::AcqRel);
        debug_assert!(prev > 0, "instance scope credit underflow");
        if prev == 1 {
            self.finish();
        }
    }

    fn finish(&self) {
        let hook = {
            let mut st = self.state.lock();
            if st.complete {
                return;
            }
            st.complete = true;
            self.cv.notify_all();
            st.on_complete.take()
        };
        if let Some(hook) = hook {
            hook();
        }
    }

    /// Records a task failure (first one wins). The scope still drains
    /// to completion; the failure is surfaced in the outcome.
    pub fn fail(&self, reason: impl Into<String>) {
        let mut st = self.state.lock();
        if st.failure.is_none() {
            st.failure = Some(reason.into());
        }
    }

    /// Marks the instance quarantined: a recovering peer holds work (or
    /// routed sends) this instance depends on, so its fate is unknown
    /// until the peer rejoins or the recovery deadline passes.
    /// Idempotent.
    pub fn quarantine(&self) {
        self.quarantined.store(true, Ordering::Release);
    }

    /// Clears the quarantine (the peer rejoined with its session
    /// intact). Idempotent.
    pub fn release_quarantine(&self) {
        self.quarantined.store(false, Ordering::Release);
    }

    /// True while the instance is quarantined behind a recovering peer.
    pub fn is_quarantined(&self) -> bool {
        self.quarantined.load(Ordering::Acquire)
    }

    /// Force-terminates a scope that can never drain on its own (its
    /// peer died for good, taking in-flight work with it): records the
    /// failure, clears the quarantine, marks the scope complete, and
    /// fires the completion hook. Outstanding credits are abandoned —
    /// a straggler decrement hitting zero later finds `finish()`
    /// already idempotently latched. No-op if already complete.
    pub fn force_fail(&self, reason: impl Into<String>) {
        self.quarantined.store(false, Ordering::Release);
        let hook = {
            let mut st = self.state.lock();
            if st.complete {
                return;
            }
            if st.failure.is_none() {
                st.failure = Some(reason.into());
            }
            st.complete = true;
            self.cv.notify_all();
            st.on_complete.take()
        };
        if let Some(hook) = hook {
            hook();
        }
    }

    /// Registers the completion hook. Fires exactly once — immediately
    /// if the scope already completed, otherwise at the zero-crossing
    /// (on whichever thread completes the final task).
    pub fn set_on_complete(&self, hook: impl FnOnce() + Send + 'static) {
        let hook: Box<dyn FnOnce() + Send> = Box::new(hook);
        let mut st = self.state.lock();
        if st.complete {
            drop(st);
            hook();
        } else {
            debug_assert!(st.on_complete.is_none(), "completion hook already set");
            st.on_complete = Some(hook);
        }
    }

    /// True once the instance has terminated.
    pub fn is_complete(&self) -> bool {
        self.state.lock().complete
    }

    /// The outcome, if the instance has terminated.
    pub fn outcome(&self) -> Option<ScopeOutcome> {
        let st = self.state.lock();
        st.complete.then(|| match &st.failure {
            Some(reason) => ScopeOutcome::Failed(reason.clone()),
            None => ScopeOutcome::Completed,
        })
    }

    /// Blocks until the instance terminates.
    pub fn wait(&self) -> ScopeOutcome {
        let mut st = self.state.lock();
        while !st.complete {
            self.cv.wait(&mut st);
        }
        match &st.failure {
            Some(reason) => ScopeOutcome::Failed(reason.clone()),
            None => ScopeOutcome::Completed,
        }
    }

    /// [`InstanceScope::wait`] with a deadline; `None` on timeout.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<ScopeOutcome> {
        let deadline = std::time::Instant::now() + timeout;
        let mut st = self.state.lock();
        while !st.complete {
            let now = std::time::Instant::now();
            if now >= deadline {
                return None;
            }
            self.cv.wait_for(&mut st, deadline - now);
        }
        Some(match &st.failure {
            Some(reason) => ScopeOutcome::Failed(reason.clone()),
            None => ScopeOutcome::Completed,
        })
    }

    /// Outstanding credits (tasks in flight plus open submission
    /// guards). Racy: only a zero read once nobody can schedule into the
    /// scope any more means something — dormant or drained (`Graph::drop`).
    pub fn pending(&self) -> i64 {
        self.pending.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for InstanceScope {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InstanceScope")
            .field("id", &self.id)
            .field("pending", &self.pending())
            .field("complete", &self.is_complete())
            .finish()
    }
}

/// RAII submission credit (see [`InstanceScope::submission_guard`]).
pub struct SubmissionGuard {
    scope: Arc<InstanceScope>,
}

impl Drop for SubmissionGuard {
    fn drop(&mut self) {
        self.scope.release_credit();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn zero_task_instance_completes_when_guard_drops() {
        let s = InstanceScope::new(1);
        assert!(!s.is_complete(), "dormant scope is not complete");
        let g = s.submission_guard();
        assert!(!s.is_complete());
        drop(g);
        assert!(s.is_complete());
        assert_eq!(s.outcome(), Some(ScopeOutcome::Completed));
    }

    #[test]
    fn guard_holds_off_completion_during_seeding() {
        let s = InstanceScope::new(2);
        let g = s.submission_guard();
        s.task_scheduled();
        s.task_completed(); // drains to the guard's credit, not to zero
        assert!(!s.is_complete(), "guard credit must block completion");
        s.task_scheduled();
        drop(g);
        assert!(!s.is_complete(), "a live task still blocks completion");
        s.task_completed();
        assert_eq!(s.wait(), ScopeOutcome::Completed);
        assert_eq!(s.pending(), 0);
    }

    #[test]
    fn a_settled_task_hands_its_credit_to_its_successors() {
        let s = InstanceScope::new(9);
        let g = s.submission_guard();
        s.task_scheduled(); // the parent
        drop(g);
        s.settle_task(3); // parent done, three children live
        assert_eq!(s.pending(), 3);
        s.settle_task(1); // a child hands on to one grandchild
        assert_eq!(s.pending(), 3);
        s.task_completed();
        s.task_completed();
        assert!(!s.is_complete());
        s.task_completed();
        assert_eq!(s.wait(), ScopeOutcome::Completed);
    }

    #[test]
    fn failure_is_recorded_but_scope_still_drains() {
        let s = InstanceScope::new(3);
        let g = s.submission_guard();
        s.task_scheduled();
        s.task_scheduled();
        drop(g);
        s.fail("task 'boom' panicked");
        s.fail("later failure is dropped");
        s.task_completed();
        assert!(!s.is_complete());
        s.task_completed();
        assert_eq!(
            s.wait(),
            ScopeOutcome::Failed("task 'boom' panicked".to_string())
        );
    }

    #[test]
    fn completion_hook_fires_exactly_once_even_if_set_late() {
        use std::sync::atomic::AtomicUsize;
        let fired = Arc::new(AtomicUsize::new(0));
        let s = InstanceScope::new(4);
        let f = Arc::clone(&fired);
        s.set_on_complete(move || {
            f.fetch_add(1, Ordering::SeqCst);
        });
        let g = s.submission_guard();
        drop(g);
        assert_eq!(fired.load(Ordering::SeqCst), 1);

        // Already-complete scope: a late registration fires immediately.
        let s2 = InstanceScope::new(5);
        drop(s2.submission_guard());
        let fired2 = Arc::new(AtomicUsize::new(0));
        let f2 = Arc::clone(&fired2);
        s2.set_on_complete(move || {
            f2.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(fired2.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn wait_timeout_expires_and_then_succeeds() {
        let s = InstanceScope::new(6);
        let g = s.submission_guard();
        assert_eq!(s.wait_timeout(Duration::from_millis(20)), None);
        let s2 = Arc::clone(&s);
        let h = thread::spawn(move || {
            thread::sleep(Duration::from_millis(30));
            drop(g);
            let _ = s2;
        });
        assert_eq!(
            s.wait_timeout(Duration::from_secs(5)),
            Some(ScopeOutcome::Completed)
        );
        h.join().unwrap();
    }

    #[test]
    fn quarantine_is_advisory_and_force_fail_terminates_a_stuck_scope() {
        use std::sync::atomic::AtomicUsize;
        let s = InstanceScope::new(8);
        let _g = s.submission_guard();
        s.task_scheduled(); // a task that will never complete (peer died)
        s.quarantine();
        assert!(s.is_quarantined());
        s.release_quarantine();
        assert!(!s.is_quarantined());
        s.quarantine();
        let fired = Arc::new(AtomicUsize::new(0));
        let f = Arc::clone(&fired);
        s.set_on_complete(move || {
            f.fetch_add(1, Ordering::SeqCst);
        });
        s.force_fail("peer-loss: rank 2 never rejoined");
        assert!(s.is_complete());
        assert!(!s.is_quarantined(), "force_fail clears the quarantine");
        assert_eq!(fired.load(Ordering::SeqCst), 1);
        assert_eq!(
            s.wait(),
            ScopeOutcome::Failed("peer-loss: rank 2 never rejoined".into())
        );
        // Straggler credits draining later must not re-fire the hook.
        s.task_completed();
        assert_eq!(fired.load(Ordering::SeqCst), 1);
        s.force_fail("second call is a no-op");
        assert_eq!(
            s.outcome(),
            Some(ScopeOutcome::Failed(
                "peer-loss: rank 2 never rejoined".into()
            ))
        );
    }

    #[test]
    fn concurrent_schedulers_never_complete_early() {
        // Hammer the credit protocol: N threads each schedule/complete
        // under a shared guard; completion must only be announced after
        // the guard drops and every task drained.
        const THREADS: usize = 8;
        const TASKS: usize = 2_000;
        let s = InstanceScope::new(7);
        let g = s.submission_guard();
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let s = Arc::clone(&s);
                thread::spawn(move || {
                    for _ in 0..TASKS {
                        s.task_scheduled();
                        assert!(!s.is_complete(), "completed while tasks in flight");
                        s.task_completed();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(!s.is_complete(), "guard still held");
        drop(g);
        assert_eq!(s.wait(), ScopeOutcome::Completed);
        assert_eq!(s.pending(), 0);
    }
}
