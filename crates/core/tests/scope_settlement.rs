//! Races of the net-credit settlement (`ttg_termdet::scope`, module
//! docs): a worker counts the successors a scoped task schedules into
//! its own scope and settles once — `pending += k − 1` — *before* it
//! publishes them. Settled after the publication, a stolen successor's
//! `−1` meets a counter that holds only its parent's credit: the scope
//! completes early, or twice. Every test here runs thousands of
//! instances on four workers to give a thief that chance, and fails if
//! the `+ (k − 1)` is moved behind `flush_bundle`.
//!
//! Nothing sleeps: the interleaving that matters is forced by a gate.
//! The root task waits until the submission credit is gone, so its own
//! credit is the scope's last, and until the other three workers have
//! parked, so its publication wakes them: on this host the woken thief
//! then runs a child before the publisher is back from the wake-up
//! (measured under the mutation: see CHANGES.md, PR 22). A lost credit
//! *hangs* — the watchdog turns that into a failure after 30 s.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use ttg_core::{Edge, Graph, Tt};
use ttg_runtime::{Runtime, RuntimeConfig};
use ttg_termdet::{InstanceScope, ScopeOutcome};

const WORKERS: usize = 4;
const INSTANCES: u64 = 4_000;
/// … or as many as fit in this much time, on a machine so loaded that
/// the workers take milliseconds to park.
const BUDGET: Duration = Duration::from_secs(10);
const FAN: u64 = 3;

/// Runs `body` on its own thread and fails the test if it has not
/// returned within 30 s.
fn with_watchdog(body: impl FnOnce() + Send + 'static) {
    let (done, finished) = std::sync::mpsc::channel();
    let runner = std::thread::spawn(move || {
        body();
        let _ = done.send(());
    });
    match finished.recv_timeout(Duration::from_secs(30)) {
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => panic!("watchdog: hung for 30 s"),
        // Finished, or disconnected because the body panicked.
        _ => runner.join().expect("test body panicked"),
    }
}

/// One instance's scope with what the tests observe of it: how often it
/// completed, and how many of its leaves had run when it did.
struct Probe {
    scope: Arc<InstanceScope>,
    /// The gate of the root task (see the module docs).
    open: Arc<AtomicBool>,
    leaves: Arc<AtomicU64>,
    completions: Arc<AtomicU64>,
    leaves_at_completion: Arc<AtomicU64>,
}

impl Probe {
    fn new(id: u64) -> Probe {
        let probe = Probe {
            scope: InstanceScope::new(id),
            open: Arc::new(AtomicBool::new(false)),
            leaves: Arc::new(AtomicU64::new(0)),
            completions: Arc::new(AtomicU64::new(0)),
            leaves_at_completion: Arc::new(AtomicU64::new(u64::MAX)),
        };
        let (leaves, completions, seen) = (
            Arc::clone(&probe.leaves),
            Arc::clone(&probe.completions),
            Arc::clone(&probe.leaves_at_completion),
        );
        probe.scope.set_on_complete(move || {
            seen.store(leaves.load(Ordering::SeqCst), Ordering::SeqCst);
            completions.fetch_add(1, Ordering::SeqCst);
        });
        probe
    }

    /// A `leaf` TT on `graph`: counts itself, sends nothing.
    fn leaf(&self, graph: &Graph, edge: &Edge<u64, u64>) -> Tt<u64> {
        let leaves = Arc::clone(&self.leaves);
        graph
            .tt::<u64>("leaf")
            .input::<u64>(edge)
            .build(move |_, _, _| {
                leaves.fetch_add(1, Ordering::SeqCst);
            })
    }

    /// A root body's first step: wait at the gate.
    fn gate(&self) -> impl Fn() + Send + Sync + 'static {
        let open = Arc::clone(&self.open);
        move || {
            while !open.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
        }
    }

    /// Seeds under the submission credit, releases it, opens the gate
    /// once every worker but the root's has parked, waits for the scope
    /// and checks that it completed once, with `leaves` run.
    fn run(&self, rt: &Runtime, seed: impl FnOnce(), leaves: u64) -> ScopeOutcome {
        let parks = rt.stats().parks;
        let guard = self.scope.submission_guard();
        seed();
        drop(guard);
        while rt.stats().parks < parks + WORKERS as u64 - 1 {
            std::thread::yield_now();
        }
        self.open.store(true, Ordering::Release);
        let outcome = self.scope.wait();
        // Waiters are released before the hook runs.
        while self.completions.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
        let id = self.scope.id();
        assert_eq!(
            self.leaves_at_completion.load(Ordering::SeqCst),
            leaves,
            "instance {id} completed before its last task"
        );
        assert_eq!(self.scope.pending(), 0, "instance {id}");
        assert_eq!(self.completions.load(Ordering::SeqCst), 1, "instance {id}");
        outcome
    }
}

/// The ids of the instances a test runs.
fn instances() -> impl Iterator<Item = u64> {
    let start = Instant::now();
    (0..INSTANCES).take_while(move |_| start.elapsed() < BUDGET)
}

fn runtime() -> Arc<Runtime> {
    Arc::new(Runtime::new(RuntimeConfig::optimized(WORKERS)))
}

/// An instance of `root` → `FAN` leaves, its root's body ending in
/// `after_sending`.
fn fan_out(rt: &Arc<Runtime>, id: u64, after_sending: fn()) -> ScopeOutcome {
    let probe = Probe::new(id);
    let graph = Graph::with_runtime_scoped(Arc::clone(rt), Arc::clone(&probe.scope));
    let edge: Edge<u64, u64> = Edge::new("fan");
    let gate = probe.gate();
    let root = graph
        .tt::<u64>("root")
        .output(&edge)
        .build(move |_, _, out| {
            gate();
            for k in 0..FAN {
                out.send(0, k, k);
            }
            after_sending();
        });
    let _leaf = probe.leaf(&graph, &edge);
    probe.run(rt, || root.invoke(0), FAN)
}

/// Thieves take the leaves the moment they are published. The scope
/// must stay open until the last one ran.
#[test]
fn a_fan_out_never_completes_before_its_stolen_children() {
    with_watchdog(|| {
        let rt = runtime();
        for id in instances() {
            assert_eq!(fan_out(&rt, id, || {}), ScopeOutcome::Completed);
        }
    });
}

/// A body that panics after it scheduled its successors: they are in
/// the bundle and must be credited all the same. The instance drains,
/// completes once and reports the failure.
#[test]
fn a_body_that_panics_after_sending_still_drains_and_fails() {
    // Thousands of expected panics: keep only the others' reports.
    let report = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if info.payload().downcast_ref::<&str>() != Some(&"after sending") {
            report(info);
        }
    }));
    with_watchdog(|| {
        let rt = runtime();
        for id in instances() {
            match fan_out(&rt, id, || panic!("after sending")) {
                ScopeOutcome::Failed(why) => assert!(why.contains("after sending"), "{why}"),
                other => panic!("instance {id}: {other:?}"),
            }
        }
    });
}

/// One instance's tasks feed another's. `root` of instance A sends one
/// value to a leaf of A and one to each of `senders` tasks, and each of
/// those sends `FAN` values to A's own leaves and `FAN` to the leaves
/// of instance B. B's are B's to count — A completes without them, B
/// not before them, and neither is left holding a credit nobody
/// returns.
///
/// Each task keeps one of the successors it readied for itself (the
/// worker's hand-off) and publishes the others: a sender settles for
/// the leaves of A it bundled whether it was kept or stolen, and a kept
/// leaf of B is B's credit although a task of A ran it.
fn sends_across_scopes(senders: u64) {
    with_watchdog(move || {
        let rt = runtime();
        for id in instances() {
            let (a, b) = (Probe::new(2 * id), Probe::new(2 * id + 1));
            let graph_a = Graph::with_runtime_scoped(Arc::clone(&rt), Arc::clone(&a.scope));
            let graph_b = Graph::with_runtime_scoped(Arc::clone(&rt), Arc::clone(&b.scope));
            let [to_senders, own, foreign]: [Edge<u64, u64>; 3] =
                ["senders", "own", "foreign"].map(Edge::new);
            let gate = a.gate();
            let root = graph_a
                .tt::<u64>("root")
                .output(&own)
                .output(&to_senders)
                .build(move |_, _, out| {
                    gate();
                    out.send(0, u64::MAX, 0u64);
                    for s in 0..senders {
                        out.send(1, s, s);
                    }
                });
            let _sender = graph_a
                .tt::<u64>("sender")
                .input::<u64>(&to_senders)
                .output(&own)
                .output(&foreign)
                .build(|s, _, out| {
                    for k in 0..FAN {
                        out.send(0, *s * FAN + k, k);
                        out.send(1, *s * FAN + k, k);
                    }
                });
            let _leaf_a = a.leaf(&graph_a, &own);
            let _leaf_b = b.leaf(&graph_b, &foreign);
            // B is held open from outside until A's tasks have sent.
            let b_open = b.scope.submission_guard();
            let sent = senders * FAN;
            let outcome = a.run(&rt, || root.invoke(0), sent + 1);
            assert_eq!(outcome, ScopeOutcome::Completed);
            let outcome = b.run(&rt, || drop(b_open), sent);
            assert_eq!(outcome, ScopeOutcome::Completed);
        }
    });
}

#[test]
fn a_send_into_another_scope_is_counted_against_that_scope() {
    sends_across_scopes(1);
}

#[test]
fn kept_and_stolen_senders_settle_alike() {
    sends_across_scopes(FAN);
}
