//! The allocation half of the per-task cost model, gated in tier-1: on
//! a warmed-up single worker a task allocates nothing of its own and a
//! datum costs at most one allocation — the copy object that tracks it.
//! Counts are machine-independent, so these are equalities up to the
//! few allocations of seeding a session and waiting for it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use ttg_core::{Edge, Graph};
use ttg_runtime::RuntimeConfig;

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

/// The counter is process-wide: measured sessions take turns.
static TURN: Mutex<()> = Mutex::new(());

/// What one session's seeding and `wait()` may allocate, whatever the
/// number of tasks.
const PER_SESSION: u64 = 32;

/// Allocations made, on any thread, by the second of two identical
/// sessions (the first fills the pools, the tables and the queues).
fn allocations_of_a_warm_session(graph: &Graph, seed: impl Fn()) -> u64 {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    seed();
    graph.wait();
    ALLOCS.store(0, Ordering::Relaxed);
    ARMED.store(true, Ordering::Relaxed);
    seed();
    graph.wait();
    ARMED.store(false, Ordering::Relaxed);
    ALLOCS.load(Ordering::Relaxed)
}

const CHAIN: u64 = 10_000;

/// A 1-flow chain whose tasks hand on either the datum they received
/// (`fresh = false`) or a newly sent one.
fn chain_allocations(fresh: bool) -> u64 {
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
    allocations_of_a_warm_session(&graph, || tt.deliver(0, 0u64, 7u64))
}

#[test]
fn a_moved_datum_costs_no_allocation_per_task() {
    let allocs = chain_allocations(false);
    assert!(
        allocs <= PER_SESSION,
        "{allocs} allocations for {CHAIN} tasks"
    );
}

#[test]
fn a_sent_datum_costs_one_allocation() {
    let allocs = chain_allocations(true);
    assert!(
        allocs <= CHAIN + PER_SESSION,
        "{allocs} allocations for {CHAIN} tasks"
    );
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
    let allocs = allocations_of_a_warm_session(&graph, || {
        for i in 0..WIDTH {
            point.invoke((0, i));
        }
    });
    let finished = last_row.load(Ordering::Relaxed);
    assert_eq!(finished, 2 * u64::from(WIDTH), "two sessions, every column");
    let broadcasts = u64::from(WIDTH * (STEPS - 1));
    assert!(
        allocs <= broadcasts + PER_SESSION,
        "{allocs} allocations for {broadcasts} broadcasts"
    );
}
