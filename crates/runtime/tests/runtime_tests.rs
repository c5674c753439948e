//! Behavioural tests for the runtime engine: submission, recursive
//! spawning, termination detection (both accounting modes, all
//! schedulers), session reuse and statistics. Messages between ranks
//! need a transport: their tests are `crates/net/tests/group.rs`.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use ttg_runtime::{Runtime, RuntimeConfig, SchedKind, TermDetKind};

fn all_configs(threads: usize) -> Vec<RuntimeConfig> {
    let mut v = vec![
        RuntimeConfig::optimized(threads),
        RuntimeConfig::original(threads),
    ];
    // Cross the remaining axis combinations.
    let mut c = RuntimeConfig::optimized(threads);
    c.scheduler = SchedKind::Ll;
    v.push(c);
    let mut c = RuntimeConfig::optimized(threads);
    c.termdet = TermDetKind::ProcessWide;
    v.push(c);
    let mut c = RuntimeConfig::original(threads);
    c.scheduler = SchedKind::Llp;
    v.push(c);
    v
}

#[test]
fn empty_wait_is_a_fence() {
    let rt = Runtime::new(RuntimeConfig::optimized(2));
    rt.wait(); // nothing submitted: returns once the wave settles
    rt.wait(); // and is repeatable
}

#[test]
fn executes_all_submitted_tasks_all_configs() {
    for config in all_configs(3) {
        let label = format!("{config:?}");
        let rt = Runtime::new(config);
        let hits = Arc::new(AtomicUsize::new(0));
        for _ in 0..500 {
            let hits = Arc::clone(&hits);
            rt.submit(0, move |_| {
                hits.fetch_add(1, Ordering::Relaxed);
            });
        }
        rt.wait();
        assert_eq!(hits.load(Ordering::Relaxed), 500, "{label}");
        assert_eq!(rt.pending_tasks(), 0, "{label}");
        assert!(rt.stats().tasks_executed >= 500, "{label}");
    }
}

#[test]
fn recursive_spawning_binary_tree() {
    // Each task spawns two children down to a fixed depth: exercises
    // worker-side discovery counting and bundled pushes.
    for config in all_configs(4) {
        let label = format!("{config:?}");
        let rt = Runtime::new(config);
        let count = Arc::new(AtomicU64::new(0));

        fn node(ctx: &mut ttg_runtime::WorkerCtx<'_>, depth: u32, count: Arc<AtomicU64>) {
            count.fetch_add(1, Ordering::Relaxed);
            if depth > 0 {
                for _ in 0..2 {
                    let c = Arc::clone(&count);
                    ctx.spawn(depth as i32, move |ctx| node(ctx, depth - 1, c));
                }
            }
        }

        let c = Arc::clone(&count);
        const DEPTH: u32 = 12; // 2^13 - 1 = 8191 tasks
        rt.submit(0, move |ctx| node(ctx, DEPTH, c));
        rt.wait();
        assert_eq!(
            count.load(Ordering::Relaxed),
            (1 << (DEPTH + 1)) - 1,
            "{label}"
        );
    }
}

#[test]
fn wait_is_reusable_across_sessions() {
    let rt = Runtime::new(RuntimeConfig::optimized(2));
    let total = Arc::new(AtomicUsize::new(0));
    for session in 1..=5 {
        for _ in 0..100 {
            let t = Arc::clone(&total);
            rt.submit(0, move |_| {
                t.fetch_add(1, Ordering::Relaxed);
            });
        }
        rt.wait();
        assert_eq!(total.load(Ordering::Relaxed), session * 100);
    }
}

#[test]
fn submit_after_idle_termination_still_runs() {
    // Let the runtime terminate an empty session first, then submit:
    // wait() must not consume the stale completion.
    let rt = Runtime::new(RuntimeConfig::optimized(2));
    rt.wait();
    std::thread::sleep(std::time::Duration::from_millis(20));
    let hit = Arc::new(AtomicUsize::new(0));
    let h = Arc::clone(&hit);
    rt.submit(0, move |_| {
        // A slow task widens the race window.
        std::thread::sleep(std::time::Duration::from_millis(30));
        h.fetch_add(1, Ordering::Relaxed);
    });
    rt.wait();
    assert_eq!(hit.load(Ordering::Relaxed), 1);
}

#[test]
fn tasks_spawned_from_tasks_with_priorities() {
    // High-priority children should generally run before low-priority
    // ones on LLP; we only assert completeness plus that the scheduler
    // recorded orderly behaviour (no strict order guarantee exists under
    // work stealing).
    let rt = Runtime::new(RuntimeConfig::optimized(1));
    let order = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let o = Arc::clone(&order);
    rt.submit(0, move |ctx| {
        for (prio, tag) in [(1, "low"), (10, "high"), (5, "mid")] {
            let o = Arc::clone(&o);
            ctx.spawn(prio, move |_| o.lock().push(tag));
        }
    });
    rt.wait();
    let got = order.lock().clone();
    assert_eq!(
        got,
        vec!["high", "mid", "low"],
        "single worker must follow priority"
    );
}

#[test]
fn worker_ctx_exposes_runtime_facts() {
    let rt = Runtime::new(RuntimeConfig::optimized(3));
    let checked = Arc::new(AtomicUsize::new(0));
    let c = Arc::clone(&checked);
    rt.submit(0, move |ctx| {
        assert_eq!(ctx.threads(), 3);
        assert_eq!(ctx.rank(), 0);
        assert!(ctx.id() < 3);
        c.fetch_add(1, Ordering::Relaxed);
    });
    rt.wait();
    assert_eq!(checked.load(Ordering::Relaxed), 1);
}

#[test]
fn heavy_fanout_stress() {
    let rt = Runtime::new(RuntimeConfig::optimized(4));
    let count = Arc::new(AtomicU64::new(0));
    let c = Arc::clone(&count);
    rt.submit(0, move |ctx| {
        for i in 0..20_000 {
            let c = Arc::clone(&c);
            ctx.spawn(i % 32, move |_| {
                c.fetch_add(1, Ordering::Relaxed);
            });
        }
    });
    rt.wait();
    assert_eq!(count.load(Ordering::Relaxed), 20_000);
    let stats = rt.stats();
    assert_eq!(stats.tasks_executed, 20_001);
}

#[test]
fn drop_reclaims_undelivered_work() {
    // Submitting work and dropping the runtime without wait() must not
    // leak or crash: Drop disposes of leftovers after joining workers.
    let rt = Runtime::new(RuntimeConfig::optimized(2));
    for _ in 0..50 {
        rt.submit(0, |_| {});
    }
    drop(rt); // no wait
}

/// Runs one session of a seed task spawning 50 children.
/// Regression: a task may hold — and release — the last handle to the
/// runtime it runs on (a served instance's finalizer does). `Drop` then
/// runs on a worker, which used to `join` itself and die of "Resource
/// deadlock avoided"; now that worker is detached and the rest joined.
#[test]
fn a_task_may_drop_the_last_handle_to_its_own_runtime() {
    use std::sync::mpsc;
    use std::time::Duration;
    const WATCHDOG: Duration = Duration::from_secs(30);
    for round in 0..200 {
        let rt = Arc::new(Runtime::new(RuntimeConfig::optimized(1 + round % 3)));
        let (go_tx, go_rx) = mpsc::channel::<()>();
        let (done_tx, done_rx) = mpsc::channel::<()>();
        let last = Arc::clone(&rt);
        rt.submit(0, move |_ctx| {
            // Until the submitter has let go, ours is not the last.
            go_rx.recv_timeout(WATCHDOG).expect("submitter let go");
            assert_eq!(Arc::strong_count(&last), 1);
            drop(last);
            done_tx.send(()).expect("test still waiting");
        });
        drop(rt);
        go_tx.send(()).expect("task still waiting");
        done_rx
            .recv_timeout(WATCHDOG)
            .unwrap_or_else(|e| panic!("round {round}: the dropping task died or hung: {e}"));
    }
}

#[test]
fn ring_overflow_is_accounted_in_stats() {
    // A deliberately tiny ring must overwrite its oldest events and
    // surface the loss in RuntimeStats rather than silently truncating.
    let mut config = RuntimeConfig::optimized(1);
    config.trace = true;
    config.trace_capacity = 16;
    let rt = Runtime::new(config);
    rt.submit(0, |ctx| {
        for _ in 0..500 {
            ctx.spawn(0, |_| {});
        }
    });
    rt.wait();
    let stats = rt.stats();
    assert!(
        stats.trace_events_dropped > 0,
        "501 tasks through a 16-slot ring must drop events \
         (dropped = {})",
        stats.trace_events_dropped
    );
    // What survives is bounded by the rings (one per worker plus the
    // shared non-worker lane), and is the newest slice of the timeline.
    let events = rt.take_events();
    assert!(!events.is_empty());
    assert!(events.len() <= 2 * 16, "kept {} events", events.len());
    // Drained exactly once.
    assert!(rt.take_events().is_empty());
    assert_eq!(rt.stats().trace_events_dropped, stats.trace_events_dropped);
}

#[test]
fn multi_worker_trace_records_steals_and_parks_with_worker_ids() {
    use ttg_runtime::obs::EventKind;
    const WORKERS: u32 = 4;
    let mut config = RuntimeConfig::optimized(WORKERS as usize);
    config.trace = true;
    let rt = Runtime::new(config);
    // Two sessions: the gap after each parks idle workers, and the
    // single-seed fan-out of sleepy tasks forces the idle workers to
    // steal from the seeding worker's queue. A gap lasts until the park
    // counter says a worker went to sleep in it — however long the
    // machine takes to get there — not for a fixed time. The counter
    // moves when a park starts and the event is recorded when it ends,
    // so events are collected until the first park shows up.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    for _ in 0..2 {
        let parks_before = rt.stats().parks;
        rt.submit(0, |ctx| {
            for _ in 0..64 {
                ctx.spawn(0, |_| {
                    std::thread::sleep(std::time::Duration::from_micros(300));
                });
            }
        });
        rt.wait();
        while rt.stats().parks == parks_before {
            assert!(
                std::time::Instant::now() < deadline,
                "no worker parked after the session"
            );
            std::thread::yield_now();
        }
    }
    let mut events = rt.take_events();
    while !events.iter().any(|e| matches!(e.kind, EventKind::Park)) {
        assert!(
            std::time::Instant::now() < deadline,
            "workers parked but no park event was recorded"
        );
        std::thread::yield_now();
        events.extend(rt.take_events());
    }
    assert!(events.iter().any(|e| matches!(e.kind, EventKind::Task)));

    let steals: Vec<_> = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Steal))
        .collect();
    assert!(
        !steals.is_empty(),
        "4 workers draining a single-seed fan-out must steal"
    );
    for s in &steals {
        assert!(s.tid < WORKERS, "steal by out-of-range worker {}", s.tid);
        let victim = s.arg0 as u32;
        assert!(victim < WORKERS, "steal from out-of-range victim {victim}");
        assert_ne!(victim, s.tid, "a worker cannot steal from itself");
    }

    let parks: Vec<_> = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Park))
        .collect();
    assert!(!parks.is_empty(), "inter-session gaps must park workers");
    for p in &parks {
        assert!(p.tid < WORKERS, "park by out-of-range worker {}", p.tid);
        assert!(p.dur_ns > 0, "parks carry their duration");
    }

    // Every worker that executed a task identifies itself correctly.
    for e in events.iter().filter(|e| matches!(e.kind, EventKind::Task)) {
        assert!(e.tid < WORKERS);
    }
}

#[test]
fn the_one_rank_board_terminates_only_inside_a_fence() {
    use ttg_termdet::{TermWave, WaveBoard};
    let board = WaveBoard::new();
    for _ in 0..1000 {
        assert!(!board.try_contribute(0, 0, 0), "terminated without a fence");
    }
    board.enter_fence();
    assert!(!board.try_contribute(0, 0, 0), "one round is not enough");
    assert!(
        board.try_contribute(0, 0, 0),
        "the second balanced round ends it"
    );
    board.reset();
    assert!(
        !board.try_contribute(0, 0, 0),
        "the next epoch waits for its fence"
    );
}

#[test]
fn two_threads_submit_and_wait_on_one_runtime() {
    // A waiter whose epoch another waiter consumed fences again; one that
    // arrives at a latched epoch does not take it for its own.
    let rt = Arc::new(Runtime::new(RuntimeConfig::optimized(2)));
    let (tx, rx) = std::sync::mpsc::channel();
    let waiters: Vec<_> = (0..2)
        .map(|_| {
            let (rt, tx) = (Arc::clone(&rt), tx.clone());
            std::thread::spawn(move || {
                for round in 0..50 {
                    let ran = Arc::new(AtomicUsize::new(0));
                    let r = Arc::clone(&ran);
                    rt.submit(0, move |_| {
                        r.fetch_add(1, Ordering::Relaxed);
                    });
                    rt.wait();
                    assert_eq!(ran.load(Ordering::Relaxed), 1, "round {round}: early wait");
                }
                tx.send(()).unwrap();
            })
        })
        .collect();
    for _ in 0..2 {
        rx.recv_timeout(std::time::Duration::from_secs(10))
            .expect("a waiter hung");
    }
    waiters.into_iter().for_each(|w| w.join().unwrap());
}

#[test]
fn wait_latencies() {
    // Reported, not asserted: median of 20 of each.
    use std::time::{Duration, Instant};
    let rt = Runtime::new(RuntimeConfig::optimized(2));
    let median = |f: &mut dyn FnMut() -> Duration| {
        let mut v: Vec<Duration> = (0..20).map(|_| f()).collect();
        v.sort();
        v[v.len() / 2]
    };
    let idle = median(&mut || {
        let t = Instant::now();
        rt.wait();
        t.elapsed()
    });
    let after = median(&mut || {
        let ran = Arc::new(AtomicUsize::new(0));
        let r = Arc::clone(&ran);
        rt.submit(0, move |_| {
            r.fetch_add(1, Ordering::Relaxed);
        });
        while ran.load(Ordering::Relaxed) == 0 {
            std::thread::yield_now();
        }
        let t = Instant::now();
        rt.wait();
        t.elapsed()
    });
    let submit = median(&mut || {
        let t = Instant::now();
        rt.submit(0, |_| {});
        rt.wait();
        t.elapsed()
    });
    println!("wait() on an idle runtime: {idle:?}; after finished work: {after:?}; submit + wait(): {submit:?}");
}

#[test]
fn load_of_a_quiet_runtime_is_idle() {
    let rt = Runtime::new(RuntimeConfig::optimized(3));
    rt.submit(0, |ctx| {
        for i in 0..20 {
            ctx.spawn(i, |_| {});
        }
    });
    rt.wait();
    let load = rt.load();
    assert_eq!(load.queued, 0, "wait() drained every queue");
    assert_eq!(load.overflow_depth, 0);
    assert_eq!(load.worker_depths, vec![0; rt.threads()]);
    assert!(load.running <= rt.threads());
}

#[test]
fn recorder_exists_only_when_trace_or_histograms() {
    let bare = Runtime::new(RuntimeConfig::optimized(1));
    assert!(bare.recorder().is_none());
    assert!(bare.trace_wall_anchor_ns().is_none());

    let mut config = RuntimeConfig::optimized(2);
    config.trace = true;
    let traced = Runtime::new(config);
    let obs = traced.recorder().expect("trace builds a recorder");
    assert!(obs.events_enabled());
    assert!(!obs.histograms_enabled());
    assert_eq!(obs.nworkers(), traced.threads());
    assert_eq!(traced.trace_wall_anchor_ns(), Some(obs.wall_anchor_ns()));

    let mut config = RuntimeConfig::optimized(1);
    config.histograms = true;
    let timed = Runtime::new(config);
    let obs = timed.recorder().expect("histograms build a recorder");
    assert!(!obs.events_enabled());
    assert!(obs.histograms_enabled());
}

#[test]
fn peek_events_leaves_them_for_take() {
    use ttg_runtime::obs::EventKind;
    let tasks =
        |evs: &[ttg_runtime::obs::Event]| evs.iter().filter(|e| e.kind == EventKind::Task).count();
    let mut config = RuntimeConfig::optimized(2);
    config.trace = true;
    let rt = Runtime::new(config);
    rt.submit(0, |ctx| {
        for i in 0..10 {
            ctx.spawn(i, |_| {});
        }
    });
    rt.wait();
    assert_eq!(tasks(&rt.peek_events()), 11);
    assert_eq!(tasks(&rt.peek_events()), 11, "peeking twice sees the same");
    assert_eq!(tasks(&rt.take_events()), 11);
    assert_eq!(tasks(&rt.peek_events()), 0, "take drained them");
}
