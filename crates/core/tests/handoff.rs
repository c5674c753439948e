//! The worker's hand-off (`WorkerCtx::run_task`, DESIGN.md §2): of the
//! tasks a body readied, the one its worker would pop next anyway is
//! run next without the push and the pop; the rest is published first.
//! What must hold: nothing is lost or reordered on one worker, a
//! waiting task of higher priority still goes first, the siblings of a
//! kept task are stealable while it runs, and a scheduler whose next
//! pop is not its last push (LFQ) is left alone.
//!
//! Nothing sleeps. A wrong hand-off reorders, loses a task or hangs;
//! the one test that could hang bounds its wait itself.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use ttg_core::{Edge, Graph};
use ttg_runtime::{Runtime, RuntimeConfig};

/// A serial chain of `n` links behind a seed, on `graph`'s runtime.
fn run_chain(graph: &Graph, n: u64) {
    let e: Edge<u64, u64> = Edge::new("chain");
    let end = Arc::new(AtomicU64::new(0));
    let d = Arc::clone(&end);
    let tt = graph
        .tt::<u64>("chain")
        .input::<u64>(&e)
        .output(&e)
        .build(move |k, i, o| {
            let v = i.take::<u64>(0);
            if *k < n {
                o.send(0, *k + 1, v + 1);
            } else {
                d.store(v, Ordering::Relaxed);
            }
        });
    tt.deliver(0, 0u64, 0u64);
    graph.wait();
    assert_eq!(end.load(Ordering::Relaxed), n);
}

/// One task sending to `n` sinks; returns how many sinks ran.
fn run_fan_out(graph: &Graph, n: u64) -> u64 {
    let e: Edge<u64, u64> = Edge::new("fan");
    let count = Arc::new(AtomicU64::new(0));
    let c = Arc::clone(&count);
    let _sink = graph
        .tt::<u64>("sink")
        .input::<u64>(&e)
        .build(move |_k, _i, _o| {
            c.fetch_add(1, Ordering::Relaxed);
        });
    let fan = graph.tt::<u64>("fan").output(&e).build(move |_k, _i, o| {
        for j in 0..n {
            o.send(0, j, j);
        }
    });
    fan.invoke(0);
    graph.wait();
    count.load(Ordering::Relaxed)
}

#[test]
fn a_serial_chain_never_visits_the_queue() {
    let graph = Graph::new(RuntimeConfig::optimized(1));
    run_chain(&graph, 50_000);
    let stats = graph.runtime().stats();
    assert_eq!(stats.tasks_executed, 50_001);
    assert!(stats.inlined >= 49_990, "handed off: {}", stats.inlined);
    assert!(
        stats.queue.local_pops <= 10,
        "the queue saw {} tasks",
        stats.queue.local_pops
    );
}

/// One worker. The submitted task readies `waiting` and `body`, keeps
/// `body` — which readies `successor` while `waiting` is the head of the
/// queue — and publishes `waiting`. Returns
/// the order the three ran in and how many were handed off.
fn order_with(waiting: i32, successor: i32) -> (Vec<&'static str>, u64) {
    let rt = Runtime::new(RuntimeConfig::optimized(1));
    let order = Arc::new(Mutex::new(Vec::new()));
    let note = |name: &'static str| {
        let order = Arc::clone(&order);
        move || order.lock().unwrap().push(name)
    };
    let (body, waiter, succ) = (note("body"), note("waiting"), note("successor"));
    rt.submit(0, move |ctx| {
        ctx.spawn(waiting, move |_| waiter());
        // Outranks `waiting`: kept, so `waiting` is published alone.
        ctx.spawn(i32::MAX, move |ctx| {
            body();
            ctx.spawn(successor, move |_| succ());
        });
    });
    rt.wait();
    let order = order.lock().unwrap().clone();
    (order, rt.stats().inlined)
}

#[test]
fn a_waiting_task_of_higher_priority_goes_first() {
    // The successor would be merged in behind the queue's head: it is
    // published, and the pop takes the head.
    assert_eq!(order_with(5, 0), (vec!["body", "waiting", "successor"], 1));
    // It outranks the head, so a push would make it the head: kept.
    assert_eq!(order_with(0, 5), (vec!["body", "successor", "waiting"], 2));
    // New before equal (§IV-C): kept as well.
    assert_eq!(order_with(5, 5), (vec!["body", "successor", "waiting"], 2));
}

#[test]
fn the_siblings_of_a_kept_task_are_stealable_while_it_runs() {
    // Two workers. The root readies four tasks; the one it keeps (the
    // highest priority) waits for a sibling to have run, which only the
    // other worker can do — and only if the rest of the bundle was
    // published before the kept task started.
    let rt = Runtime::new(RuntimeConfig::optimized(2));
    let sibling_ran = Arc::new(AtomicBool::new(false));
    let starved = Arc::new(AtomicBool::new(false));
    let (flag, failed) = (Arc::clone(&sibling_ran), Arc::clone(&starved));
    rt.submit(0, move |ctx| {
        for _ in 0..3 {
            let flag = Arc::clone(&flag);
            ctx.spawn(0, move |_| flag.store(true, Ordering::Release));
        }
        ctx.spawn(1, move |_| {
            let start = Instant::now();
            while !flag.load(Ordering::Acquire) {
                if start.elapsed() > Duration::from_secs(20) {
                    // Not a panic: that would kill the worker and turn
                    // the failure into a hang of `wait()`.
                    failed.store(true, Ordering::Release);
                    return;
                }
                std::thread::yield_now();
            }
        });
    });
    rt.wait();
    assert!(
        !starved.load(Ordering::Acquire),
        "no sibling ran in 20 s: the rest was not published before the kept task"
    );
    let stats = rt.stats();
    assert_eq!(stats.tasks_executed, 5);
    assert!(stats.queue.steals >= 1, "{:?}", stats.queue);
}

#[test]
fn a_wide_fan_out_keeps_one_task_and_runs_every_sink_once() {
    let graph = Graph::new(RuntimeConfig::optimized(2));
    assert_eq!(run_fan_out(&graph, 10_000), 10_000);
    let stats = graph.runtime().stats();
    assert_eq!(stats.tasks_executed, 10_001);
    assert!(stats.inlined <= 2, "handed off: {}", stats.inlined);
}

#[test]
fn the_original_configuration_never_hands_off() {
    // LFQ's next pop is the best slot of a bounded buffer, not the last
    // push: PaRSEC's behaviour, and the baseline of fig6 and fig9.
    let graph = Graph::new(RuntimeConfig::original(2));
    run_chain(&graph, 5_000);
    assert_eq!(run_fan_out(&graph, 1_000), 1_000);
    let stats = graph.runtime().stats();
    assert_eq!(stats.tasks_executed, 5_001 + 1_001);
    assert_eq!(stats.inlined, 0);
}
