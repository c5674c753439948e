//! The allocation half of the per-task cost model, gated in tier-1: on
//! a warmed-up single worker a task allocates nothing of its own and a
//! datum costs at most one allocation — the copy object that tracks it.
//! Counts are machine-independent, so these are equalities up to the
//! few allocations of seeding a session and waiting for it. The request
//! path has the same kind of gate: what one served graph allocates, and
//! what each of its tasks adds to that.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;
use ttg_core::{Edge, Graph, GraphTemplate};
use ttg_runtime::{Runtime, RuntimeConfig};
use ttg_serve::{InstanceStatus, ServeConfig, ServeEngine};

/// Counts allocations (reallocations included) while armed.
struct Counting;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: forwarded caller contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded caller contract; `ptr` came from `alloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The counter is process-wide, and so is whatever a test allocates
/// while it builds its graph, formats a failure or tears down: tests
/// take turns whole, first statement to last, so that none of it lands
/// in another test's armed window.
static TURN: Mutex<()> = Mutex::new(());

fn turn() -> MutexGuard<'static, ()> {
    TURN.lock().unwrap_or_else(|e| e.into_inner())
}

/// What one session's seeding and `wait()` may allocate, whatever the
/// number of tasks.
const PER_SESSION: u64 = 32;

/// Asserts that the second of two identical sessions (the first fills
/// the pools, the tables and the queues) makes at most `bound`
/// allocations, on any thread, for its `units`. The caller holds the
/// turn.
fn assert_warm_session_allocates(
    graph: &Graph,
    seed: impl Fn(),
    bound: u64,
    units: std::fmt::Arguments<'_>,
) {
    seed();
    graph.wait();
    ALLOCS.store(0, Ordering::Relaxed);
    ARMED.store(true, Ordering::Relaxed);
    seed();
    graph.wait();
    ARMED.store(false, Ordering::Relaxed);
    let allocs = ALLOCS.load(Ordering::Relaxed);
    assert!(allocs <= bound, "{allocs} allocations for {units}");
}

const CHAIN: u64 = 10_000;

/// A 1-flow chain whose tasks hand on either the datum they received
/// (`fresh = false`) or a newly sent one, and may allocate `bound` times.
fn assert_chain_allocates(fresh: bool, bound: u64) {
    let _turn = turn();
    let graph = Graph::new(RuntimeConfig::optimized(1));
    let edge: Edge<u64, u64> = Edge::new("flow");
    let tt = graph
        .tt::<u64>("chain")
        .input::<u64>(&edge)
        .output(&edge)
        .build(move |k, inputs, out| {
            if *k >= CHAIN {
                return;
            }
            if fresh {
                out.send(0, *k + 1, *inputs.get::<u64>(0) + 1);
            } else {
                let copy = inputs.take_copy(0);
                out.forward(0, *k + 1, copy);
            }
        });
    let seed = || tt.deliver(0, 0u64, 7u64);
    assert_warm_session_allocates(&graph, seed, bound, format_args!("{CHAIN} tasks"));
}

#[test]
fn a_moved_datum_costs_no_allocation_per_task() {
    assert_chain_allocates(false, PER_SESSION);
}

#[test]
fn a_sent_datum_costs_one_allocation() {
    assert_chain_allocates(true, CHAIN + PER_SESSION);
}

#[test]
fn a_broadcast_costs_one_allocation_however_many_receive_it() {
    // A 3-point stencil on `ttg-core` directly: every point aggregates
    // its two or three predecessors' values and broadcasts one value to
    // its two or three successors. One copy object per broadcast; the
    // aggregated copies sit in the shell, the successor keys are never
    // collected.
    const WIDTH: u32 = 16;
    const STEPS: u32 = 500;
    let _turn = turn();
    let neighbours = |i: u32| i.saturating_sub(1)..=(i + 1).min(WIDTH - 1);
    let graph = Graph::new(RuntimeConfig::optimized(1));
    let edge: Edge<(u32, u32), u64> = Edge::new("stencil");
    // Tasks of the last step, over both sessions.
    let last_row = Arc::new(AtomicU64::new(0));
    let sink = Arc::clone(&last_row);
    let point = graph
        .tt::<(u32, u32)>("point")
        .input_aggregator_with(
            &edge,
            move |&(t, i): &(u32, u32)| {
                if t == 0 {
                    0
                } else {
                    neighbours(i).count()
                }
            },
        )
        .output(&edge)
        .build(move |&(t, i), inputs, out| {
            // Triples every step: wraps long before the last one.
            let received = inputs.aggregate::<u64>(0);
            let value = received.iter().fold(1u64, |sum, v| sum.wrapping_add(*v));
            if t + 1 == STEPS {
                sink.fetch_add(1, Ordering::Relaxed);
            } else {
                out.broadcast(0, neighbours(i).map(|j| (t + 1, j)), value);
            }
        });
    let broadcasts = u64::from(WIDTH * (STEPS - 1));
    assert_warm_session_allocates(
        &graph,
        || (0..WIDTH).for_each(|i| point.invoke((0, i))),
        broadcasts + PER_SESSION,
        format_args!("{broadcasts} broadcasts"),
    );
    let finished = last_row.load(Ordering::Relaxed);
    assert_eq!(finished, 2 * u64::from(WIDTH), "two sessions, every column");
}

/// The `pipeline` template of `n` pairs: `stage` k sends `2k` to
/// `collect` k, the last of which emits what it received.
fn pipeline_template() -> GraphTemplate {
    GraphTemplate::compile("pipeline", |graph, ctx| {
        let n = ctx.input.as_u64().unwrap_or(0);
        let edge: Edge<u64, u64> = Edge::new("values");
        let stage = graph
            .tt::<u64>("stage")
            .output(&edge)
            .build(|k, _in, out| out.send(0, *k, *k * 2));
        let sink = ctx.sink.clone();
        let _collect =
            graph
                .tt::<u64>("collect")
                .input::<u64>(&edge)
                .build(move |k, inputs, _out| {
                    if *k + 1 == n {
                        sink.emit("last", serde_json::Value::UInt(*inputs.get::<u64>(0)));
                    }
                });
        Box::new(move || {
            for k in 0..n {
                stage.invoke(k);
            }
        })
    })
    .expect("valid template")
}

/// What one served graph allocates: a sequential submit → `wait_result`
/// loop of a pipeline (`n` × stage → collect, one result) on a 1-worker
/// runtime, the result store and the record maps at their steady-state
/// sizes. The count repeats exactly — every seeding is one publication,
/// so the worker meets each graph's tasks in one order.
///
/// Readings for 4 pairs: 72.3 to 73.0 allocations per graph, differing
/// from run to run, with the dispatcher-thread engine PR 16 replaced;
/// 49 exactly after it; 29 now. The 20 that went were the instance's
/// own: 6 shells, the 4 seeded ones among them (the pool they retire
/// into is the runtime's, so the next graph pops them), two hash tables
/// neither TT could use (5 each), two pools (1 each) and the two
/// strings the vtable lookup built. What is left is per graph — scope,
/// graph, TTs, edge, closures, the engine's record and result — plus
/// one per pair, the datum `stage` sends: the slope below.
///
/// That a completion nobody waits for notifies nobody is not asserted
/// here: a notification without a waiter leaves nothing to observe
/// short of new surface on the engine.
#[test]
fn a_served_graph_allocates_the_same_every_time() {
    const GRAPHS: u64 = 600;
    /// Allocations of a graph without a task …
    const PER_GRAPH: u64 = 25;
    /// … and of each stage → collect pair: one datum, nothing else.
    const PER_PAIR: u64 = 1;
    let _turn = turn();
    let runtime = Arc::new(Runtime::new(RuntimeConfig::optimized(1)));
    let engine = ServeEngine::new(
        runtime,
        ServeConfig {
            result_capacity: 8,
            ..ServeConfig::default()
        },
    );
    engine.register_template(pipeline_template());
    let serve = |pairs: u64| {
        for _ in 0..GRAPHS {
            let id = engine
                .submit("tenant", "pipeline", serde_json::Value::UInt(pairs))
                .expect("admitted");
            let view = engine
                .wait_result(id, Duration::from_secs(30))
                .expect("finished");
            assert_eq!(view.status, InstanceStatus::Completed);
            assert_eq!(view.results.len(), 1);
        }
    };
    // Fills the result store, the evicted-record deque and the
    // runtime's shell pool (64 seeded shells, the most a graph here has).
    serve(64);
    for pairs in [4, 16, 64] {
        let runs: Vec<u64> = (0..3)
            .map(|_| {
                ALLOCS.store(0, Ordering::Relaxed);
                ARMED.store(true, Ordering::Relaxed);
                serve(pairs);
                ARMED.store(false, Ordering::Relaxed);
                ALLOCS.load(Ordering::Relaxed)
            })
            .collect();
        assert_eq!(
            runs,
            [(PER_GRAPH + PER_PAIR * pairs) * GRAPHS; 3],
            "{pairs} pairs: {} allocations per graph",
            runs[0] as f64 / GRAPHS as f64
        );
    }
}
