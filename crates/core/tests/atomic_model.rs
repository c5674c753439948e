//! Validation of the paper's atomic-operation cost model (Equation 1):
//!
//! ```text
//! N_A = (N_ID + N_RC + N_HB) × N_i + N_OB + N_S = 4·N_i + 4
//! ```
//!
//! — and of what this runtime takes off it: N_S is paid by a task that
//! went through a queue. A task its own worker was handed
//! (`WorkerCtx::run_task`: the successor the worker would pop next
//! anyway) pays N_S = 0, and on a serial chain that is every task, so
//! the counts asserted here are 4·N_i + 2. The paper's number stays
//! gated beside ours: the same chain on a scheduler that never hands
//! off (LFQ) still reads 4·N_i + 4.
//!
//! Run with `cargo test -p ttg-core --features count-atomics` (CI does).
//! The RMW counter is process-wide, so the measured sections of this
//! file take turns under one lock; the tests may run on parallel
//! threads like any others.
//!
//! The workload is the paper's Section V-B chain: task k sends data on
//! its N output terminals to the N input terminals of task k+1. With the
//! *reuse* pattern (the body retains each input's tracked copy and
//! forwards it, leaving the slot to release at task end) every one of the
//! model's terms is exercised:
//!
//! * N_OB = 2 — pool alloc + free (one CAS each, after warm-up),
//! * N_S  = 2 — scheduler push + pop (one CAS each under LLP or LFQ) for
//!   a task that is pushed and popped; 0 for a task handed off,
//! * per input: N_HB = 1 (bucket lock), N_ID = 1 (satisfaction
//!   increment), N_RC = 2 (retain + release).
//!
//! With the *move* pattern (`take_copy` + `forward`) the final-owner
//! optimization the paper mentions removes both refcount operations,
//! so the count drops to 2·N_i + N_OB + N_S — asserted as well.

#![cfg(feature = "count-atomics")]

use std::sync::Mutex;
use ttg_core::{AggCount, Edge, Graph, Tt};
use ttg_runtime::{RuntimeConfig, SchedKind};
use ttg_sync::{atomic_rmw_ops, reset_atomic_rmw_ops};

const CHAIN: u64 = 20_000;

/// Serializes the sections that read the process-wide RMW counter.
static COUNTER: Mutex<()> = Mutex::new(());

/// Counted RMWs per task of one `CHAIN`-task session started by `seed`,
/// after an identical warm-up session that fills the memory pools (the
/// configuration the model describes).
fn atomics_per_task(graph: &Graph, seed: impl Fn()) -> f64 {
    let _turn = COUNTER.lock().unwrap_or_else(|e| e.into_inner());
    seed();
    graph.wait();
    reset_atomic_rmw_ops();
    seed();
    graph.wait();
    atomic_rmw_ops() as f64 / CHAIN as f64
}

fn assert_close(what: &str, per_task: f64, model: usize) {
    let err = (per_task - model as f64).abs() / model as f64;
    assert!(
        err < 0.03,
        "{what}: measured {per_task:.3} atomics/task vs model {model} (err {:.1}%)",
        err * 100.0
    );
}

/// Builds an N-flow chain TT on the optimized configuration; `reuse`
/// selects retain/forward (reuse) vs take/forward (move).
fn run_chain(n_flows: usize, reuse: bool) -> f64 {
    run_chain_on(RuntimeConfig::optimized(1), n_flows, reuse)
}

fn run_chain_on(config: RuntimeConfig, n_flows: usize, reuse: bool) -> f64 {
    let graph = Graph::new(config);
    let edges: Vec<Edge<u64, u64>> = (0..n_flows).map(|i| Edge::new(format!("f{i}"))).collect();
    let mut builder = graph.tt::<u64>("chain");
    for e in &edges {
        builder = builder.input::<u64>(e);
    }
    for e in &edges {
        builder = builder.output(e);
    }
    let tt: Tt<u64> = builder.build(move |k, inputs, out| {
        if *k >= CHAIN {
            return;
        }
        for i in 0..inputs.len() {
            if reuse {
                let copy = inputs.clone_copy(i);
                out.forward(0usize.max(i), *k + 1, copy);
            } else {
                let copy = inputs.take_copy(i);
                out.forward(i, *k + 1, copy);
            }
        }
    });
    atomics_per_task(&graph, || {
        for i in 0..n_flows {
            tt.deliver(i, 0u64, i as u64);
        }
    })
}

#[test]
fn equation_1_reuse_pattern_matches_4n_plus_2_handed_off() {
    for n in [2usize, 3, 4] {
        assert_close(&format!("N_i={n}"), run_chain(n, true), 4 * n + 2);
    }
}

#[test]
fn equation_1_reuse_pattern_matches_4n_plus_4_through_a_queue() {
    // The paper's count: every task is pushed and popped. LFQ never
    // hands off; everything else is the optimized configuration.
    let config = || RuntimeConfig {
        scheduler: SchedKind::Lfq,
        ..RuntimeConfig::optimized(1)
    };
    for n in [2usize, 3, 4] {
        let per_task = run_chain_on(config(), n, true);
        assert_close(&format!("N_i={n} (LFQ)"), per_task, 4 * n + 4);
    }
    assert_close("N_i=1 (LFQ, move)", run_chain_on(config(), 1, false), 4);
}

#[test]
fn move_optimization_eliminates_refcount_term() {
    for n in [2usize, 3] {
        assert_close(&format!("N_i={n} (move)"), run_chain(n, false), 2 * n + 2);
    }
}

#[test]
fn single_flow_bypass_is_cheaper_than_model() {
    // One flow: the hash table is bypassed (no N_HB, no N_ID), so the
    // per-task count must come in strictly below 4·1+2.
    let per_task = run_chain(1, true);
    assert!(
        per_task < 6.0,
        "bypass path should beat the general model: {per_task:.3} >= 6"
    );
    // And it should still pay pool + refcounts = 4; by move, the pool
    // only.
    assert_close("N_i=1 (bypass)", per_task, 4);
    assert_close("N_i=1 (bypass, move)", run_chain(1, false), 2);
}

#[test]
fn three_item_aggregator_pays_three_per_item() {
    // One aggregator terminal collecting three freshly sent items per
    // task: each item pays the bucket lock, the satisfaction increment
    // and its release at task end (a new copy needs no retain), so
    // N_A = 3·3 + N_OB + N_S = 11 (handed off: N_S = 0) — and nothing
    // for holding the three copies in the shell instead of a `Vec`.
    const ITEMS: usize = 3;
    let graph = Graph::new(RuntimeConfig::optimized(1));
    let edge: Edge<u64, u64> = Edge::new("agg");
    let tt = graph
        .tt::<u64>("agg-chain")
        .input_aggregator(&edge, AggCount::Fixed(ITEMS))
        .output(&edge)
        .build(|k, inputs, out| {
            assert_eq!(inputs.count(0), ITEMS);
            if *k < CHAIN {
                for item in 0..ITEMS as u64 {
                    out.send(0, *k + 1, item);
                }
            }
        });
    let per_task = atomics_per_task(&graph, || {
        for item in 0..ITEMS as u64 {
            tt.deliver(0, 0u64, item);
        }
    });
    assert_close("3-item aggregator", per_task, 3 * ITEMS + 2);
}

/// What instance-scoped termination adds to a task (`ttg_termdet::scope`,
/// net-credit settlement): nothing while the task hands its credit to
/// exactly one successor, one RMW for a leaf (its `−1`), one for a
/// fan-out of any width (its `+ (k − 1)`). Scoped and unscoped runs of
/// one shape differ in nothing else, and each side's difference between
/// two sizes cancels what a session costs whatever its size (seeding,
/// the submission credit, the fence), so these are equalities.
mod scoped {
    use super::*;
    use std::sync::Arc;
    use ttg_runtime::Runtime;
    use ttg_termdet::InstanceScope;

    #[derive(Clone, Copy)]
    enum Shape {
        /// `n` links, each sending to the next: one successor each.
        Chain,
        /// One task sending to `n` leaves.
        Leaves,
        /// `n` links, each sending to the next and to two leaves.
        FanOut,
    }

    /// Counted RMWs of one `shape` of size `n` on `rt`, from its seeding
    /// to the fence behind it.
    fn rmws(rt: &Arc<Runtime>, shape: Shape, n: u64, scoped: bool) -> u64 {
        let scope = InstanceScope::new(n);
        let graph = match scoped {
            true => Graph::with_runtime_scoped(Arc::clone(rt), Arc::clone(&scope)),
            false => Graph::with_runtime(Arc::clone(rt)),
        };
        let (links, leaves): (Edge<u64, u64>, Edge<u64, u64>) =
            (Edge::new("links"), Edge::new("leaves"));
        let link = graph
            .tt::<u64>("link")
            .input::<u64>(&links)
            .output(&links)
            .output(&leaves)
            .build(move |k, _, out| match shape {
                Shape::Chain if *k + 1 < n => out.send(0, *k + 1, *k),
                Shape::Chain => {}
                Shape::Leaves => (0..n).for_each(|leaf| out.send(1, leaf, leaf)),
                Shape::FanOut => {
                    if *k + 1 < n {
                        out.send(0, *k + 1, *k);
                    }
                    out.send(1, 2 * *k, *k);
                    out.send(1, 2 * *k + 1, *k);
                }
            });
        let _leaf = graph
            .tt::<u64>("leaf")
            .input::<u64>(&leaves)
            .build(|_, _, _| {});
        reset_atomic_rmw_ops();
        let credit = scope.submission_guard();
        link.deliver(0, 0u64, 0u64);
        drop(credit);
        scope.wait();
        rt.wait();
        atomic_rmw_ops()
    }

    /// RMWs per unit of `shape` — what `large − small` more units cost,
    /// on warm pools — unscoped and scoped.
    fn per_unit(shape: Shape) -> (u64, u64) {
        const SMALL: u64 = 1_000;
        const LARGE: u64 = 3_000;
        let _turn = COUNTER.lock().unwrap_or_else(|e| e.into_inner());
        let rt = Arc::new(Runtime::new(RuntimeConfig::optimized(1)));
        rmws(&rt, shape, LARGE, true); // fills the resident pools
        let [unscoped, scoped] = [false, true].map(|scoped| {
            let (small, large) = (
                rmws(&rt, shape, SMALL, scoped),
                rmws(&rt, shape, LARGE, scoped),
            );
            assert_eq!((large - small) % (LARGE - SMALL), 0, "{small} {large}");
            (large - small) / (LARGE - SMALL)
        });
        (unscoped, scoped)
    }

    #[test]
    fn a_task_with_one_successor_pays_nothing_for_its_scope() {
        let (unscoped, scoped) = per_unit(Shape::Chain);
        // Pool + the datum's release, as in the bypass test.
        assert_eq!(unscoped, 3);
        assert_eq!(scoped, unscoped);
    }

    #[test]
    fn a_leaf_pays_one_rmw_for_its_scope() {
        let (unscoped, scoped) = per_unit(Shape::Leaves);
        assert_eq!(scoped, unscoped + 1);
    }

    #[test]
    fn a_fan_out_of_three_pays_one_rmw_for_its_scope() {
        // A unit is the fan-out task and two leaves: one RMW each.
        let (unscoped, scoped) = per_unit(Shape::FanOut);
        assert_eq!(scoped, unscoped + 1 + 2);
    }
}
