use crate::test_util::{claim, Arena, TestNode};
use crate::{Lfq, Ll, Llp, PopSource, SchedKind, SortedChain, TaskQueue};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn drain_all(q: &dyn TaskQueue, worker: usize) -> Vec<usize> {
    let mut out = Vec::new();
    while let Some(n) = q.pop(worker) {
        // SAFETY: all nodes in these tests come from TestNode arenas.
        out.push(unsafe { claim(n) });
    }
    out
}

#[test]
fn llp_pops_in_priority_order_after_bulk_push() {
    let prios = vec![3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 7, 0, -2, 11];
    let arena = Arena::new(prios.iter().copied());
    let q = Llp::new(1);
    for id in 0..arena.len() {
        q.push(0, arena.node(id).as_sched());
    }
    let order = drain_all(&q, 0);
    let got: Vec<i32> = order
        .iter()
        .map(|&id| arena.node(id).node.priority)
        .collect();
    let mut want = prios.clone();
    want.sort_unstable_by(|a, b| b.cmp(a));
    assert_eq!(got, want, "LLP must pop in non-increasing priority order");
    assert!(arena.all_claimed());
}

#[test]
fn llp_new_before_old_at_equal_priority() {
    // Three tasks at the same priority: the most recently pushed runs
    // first (cache-warmth rule).
    let arena = Arena::new([5, 5, 5]);
    let q = Llp::new(1);
    for id in 0..3 {
        q.push(0, arena.node(id).as_sched());
    }
    assert_eq!(drain_all(&q, 0), vec![2, 1, 0]);
}

#[test]
fn llp_ascending_pushes_use_fast_path_only() {
    let arena = Arena::new(0..100);
    let q = Llp::new(1);
    for id in 0..arena.len() {
        q.push(0, arena.node(id).as_sched());
    }
    assert_eq!(
        q.stats().slow_pushes,
        0,
        "ascending priorities must be pure fast path"
    );
    let order = drain_all(&q, 0);
    assert_eq!(order, (0..100).rev().collect::<Vec<_>>());
}

#[test]
fn llp_descending_pushes_take_slow_path_and_stay_sorted() {
    let arena = Arena::new((0..50).rev());
    let q = Llp::new(1);
    for id in 0..arena.len() {
        q.push(0, arena.node(id).as_sched());
    }
    assert!(q.stats().slow_pushes > 0);
    // Node 0 has the highest priority (49), node 49 the lowest.
    assert_eq!(drain_all(&q, 0), (0..50).collect::<Vec<_>>());
}

#[test]
fn llp_push_chain_bundles() {
    let arena = Arena::new([9, 3, 7, 5, 1, 4]);
    let q = Llp::new(1);
    // Seed the queue with two singles.
    q.push(0, arena.node(4).as_sched()); // prio 1
    q.push(0, arena.node(3).as_sched()); // prio 5
                                         // Bundle the rest as a sorted chain.
    let mut chain = SortedChain::new();
    for id in [0, 1, 2, 5] {
        chain.insert(arena.node(id).as_sched());
    }
    assert_eq!(chain.len(), 4);
    q.push_chain(0, chain);
    let order = drain_all(&q, 0);
    let got: Vec<i32> = order
        .iter()
        .map(|&id| arena.node(id).node.priority)
        .collect();
    assert_eq!(got, vec![9, 7, 5, 4, 3, 1]);
}

#[test]
fn ll_is_lifo_and_ignores_priorities() {
    let arena = Arena::new([1, 100, 2, 50, 3]);
    let q = Ll::new(1);
    for id in 0..arena.len() {
        q.push(0, arena.node(id).as_sched());
    }
    assert_eq!(
        drain_all(&q, 0),
        vec![4, 3, 2, 1, 0],
        "LL must be pure LIFO"
    );
}

#[test]
fn lfq_prefers_high_priority_and_spills_low_to_fifo() {
    let arena = Arena::new(1..=8);
    let q = Lfq::new(1, 4);
    for id in 0..8 {
        q.push(0, arena.node(id).as_sched());
    }
    let s = q.stats();
    assert_eq!(s.overflow, 4, "four tasks must have spilled to the FIFO");
    let order = drain_all(&q, 0);
    let prios: Vec<i32> = order
        .iter()
        .map(|&id| arena.node(id).node.priority)
        .collect();
    // Buffer retains {5,6,7,8} (highest), FIFO holds the displaced in
    // arrival order {1,2,3,4}.
    assert_eq!(prios, vec![8, 7, 6, 5, 1, 2, 3, 4]);
}

#[test]
fn lfq_fifo_preserves_order_of_overflow() {
    let arena = Arena::new(std::iter::repeat_n(0, 20));
    let q = Lfq::new(1, 2);
    for id in 0..20 {
        q.push(0, arena.node(id).as_sched());
    }
    let order = drain_all(&q, 0);
    // First two pops come from the buffer (ids 0,1 — equal prio, scan
    // order), the rest in FIFO arrival order.
    assert_eq!(order.len(), 20);
    assert_eq!(&order[2..], &(2..20).collect::<Vec<_>>()[..]);
    assert!(arena.all_claimed());
}

fn exactly_once_stress(q: Arc<dyn TaskQueue>, workers: usize, per_worker: usize) {
    let arena = Arc::new(Arena::new(
        (0..workers * per_worker).map(|i| (i % 17) as i32),
    ));
    let delivered = Arc::new(AtomicUsize::new(0));
    let total = workers * per_worker;
    let handles: Vec<_> = (0..workers)
        .map(|w| {
            let q = Arc::clone(&q);
            let arena = Arc::clone(&arena);
            let delivered = Arc::clone(&delivered);
            std::thread::spawn(move || {
                // Each worker pushes its own block, interleaving pops.
                for i in 0..per_worker {
                    let id = w * per_worker + i;
                    q.push(w, arena.node(id).as_sched());
                    if i % 3 == 0 {
                        if let Some(n) = q.pop(w) {
                            // SAFETY: arena nodes.
                            unsafe { claim(n) };
                            delivered.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                // Drain until globally done.
                while delivered.load(Ordering::Relaxed) < total {
                    match q.pop(w) {
                        Some(n) => {
                            // SAFETY: arena nodes.
                            unsafe { claim(n) };
                            delivered.fetch_add(1, Ordering::Relaxed);
                        }
                        None => std::thread::yield_now(),
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(delivered.load(Ordering::Relaxed), total);
    assert!(arena.all_claimed(), "lost nodes: {:?}", arena.unclaimed());
}

#[test]
fn llp_exactly_once_under_contention() {
    exactly_once_stress(Arc::new(Llp::new(8)), 8, 3_000);
}

#[test]
fn ll_exactly_once_under_contention() {
    exactly_once_stress(Arc::new(Ll::new(8)), 8, 3_000);
}

#[test]
fn lfq_exactly_once_under_contention() {
    exactly_once_stress(Arc::new(Lfq::new(8, 4)), 8, 3_000);
}

#[test]
fn stealing_drains_a_single_producer() {
    // Worker 0 produces everything; workers 1..4 only steal.
    let q = Arc::new(Llp::new(4));
    let arena = Arc::new(Arena::new((0..10_000).map(|i| i % 7)));
    for id in 0..arena.len() {
        q.push(0, arena.node(id).as_sched());
    }
    let delivered = Arc::new(AtomicUsize::new(0));
    let total = arena.len();
    let handles: Vec<_> = (1..4)
        .map(|w| {
            let q = Arc::clone(&q);
            let delivered = Arc::clone(&delivered);
            std::thread::spawn(move || {
                while delivered.load(Ordering::Relaxed) < total {
                    match q.pop(w) {
                        Some(n) => {
                            // SAFETY: arena nodes.
                            unsafe { claim(n) };
                            delivered.fetch_add(1, Ordering::Relaxed);
                        }
                        None => std::thread::yield_now(),
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert!(arena.all_claimed());
    assert!(q.stats().steals > 0, "no steals recorded");
}

/// A thief owns what it stole: the remainder of the victim's chain is
/// deposited into the thief's queue, which pops it in the queue's own
/// order, and (LLP) the thief's next push is ranked against the
/// deposited head — at or above it the fast path, below it the slow one.
#[test]
fn a_thief_pops_the_stolen_remainder_in_order() {
    // Ids 0..5 are worker 0's, pushed in ascending priority (all fast);
    // ids 6 and 5 are pushed by worker 1 after its steal, in that order.
    let prios = [1, 2, 5, 6, 8, 6, 3];

    let arena = Arena::new(prios);
    let q = Llp::new(2);
    for id in 0..5 {
        q.push(0, arena.node(id).as_sched());
    }
    assert_eq!(q.stats().slow_pushes, 0);
    let (first, src) = q.pop_from(1).expect("worker 0's chain is stealable");
    // SAFETY: arena node.
    assert_eq!((unsafe { claim(first) }, src), (4, PopSource::Steal(0)));
    assert_eq!((q.worker_depth(0), q.worker_depth(1)), (0, 1));
    q.push(1, arena.node(6).as_sched()); // 3, below the deposited head
    assert_eq!(q.stats().slow_pushes, 1);
    q.push(1, arena.node(5).as_sched()); // 6, equal to it (still the head)
    assert_eq!(q.stats().slow_pushes, 1);
    // Priority order, the newer 6 before the stolen one.
    assert_eq!(drain_all(&q, 1), vec![5, 3, 2, 6, 1, 0]);
    let stats = q.stats();
    assert_eq!((stats.steals, stats.local_pops), (1, 6));
    assert!(arena.all_claimed());

    let arena = Arena::new(prios);
    let q = Ll::new(2);
    for id in 0..5 {
        q.push(0, arena.node(id).as_sched());
    }
    let (first, src) = q.pop_from(1).expect("worker 0's chain is stealable");
    // SAFETY: arena node.
    assert_eq!((unsafe { claim(first) }, src), (4, PopSource::Steal(0)));
    q.push(1, arena.node(5).as_sched());
    q.push(1, arena.node(6).as_sched());
    assert_eq!(drain_all(&q, 1), vec![6, 5, 3, 2, 1, 0], "LIFO order");
    assert_eq!(q.stats().slow_pushes, 0);
    assert!(arena.all_claimed());
}

#[test]
fn sched_kind_builds_all_variants() {
    let queues: [Box<dyn TaskQueue>; 3] = [
        Box::new(Lfq::new(2, 4)),
        SchedKind::Ll.build(2),
        SchedKind::Llp.build(2),
    ];
    for q in queues {
        assert_eq!(q.workers(), 2);
        let n = TestNode::new(0, 3);
        q.push(0, n.as_sched());
        assert!(q.pending_estimate() > 0);
        let popped = q
            .pop(1)
            .or_else(|| q.pop(0))
            .expect("task must be retrievable");
        // SAFETY: test node.
        assert_eq!(unsafe { claim(popped) }, 0);
    }
}

/// The contract of `pops_next`: a yes means a push of that priority is
/// what the owner's next pop returns — so the owner may skip both.
#[test]
fn pops_next_predicts_the_owners_next_pop() {
    let prios = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 7, 0, -2, 11, 11, 4];
    let queues: [(Box<dyn TaskQueue>, usize); 3] = [
        (Box::new(Llp::new(2)), 6),    // 3, 4, 5, 9, 11 and the equal 11
        (Box::new(Ll::new(2)), 18),    // always
        (Box::new(Lfq::new(2, 4)), 0), // never
    ];
    for (q, yeses) in queues {
        let arena = Arena::new(prios);
        let mut said_yes = 0;
        for (id, &prio) in prios.iter().enumerate() {
            let node = arena.node(id).as_sched();
            if q.pops_next(0, prio) {
                said_yes += 1;
                q.push(0, node);
                assert_eq!(q.pop(0), Some(node), "node {id}, priority {prio}");
            }
            // Either way it ends up queued, for the later ones to meet.
            q.push(0, node);
        }
        assert_eq!(said_yes, yeses);
        assert_eq!(drain_all(q.as_ref(), 0).len(), prios.len());
    }
}

#[test]
fn pop_on_empty_returns_none() {
    let q = Llp::new(2);
    assert!(q.pop(0).is_none());
    assert!(q.pop(1).is_none());
    assert_eq!(q.pending_estimate(), 0);
    let stats = q.stats();
    assert_eq!(stats.local_pops + stats.steals, 0);
}

mod proptests {
    use super::*;
    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    enum Op {
        Push(i8),
        Pop,
    }

    fn ops() -> impl Strategy<Value = Vec<Op>> {
        proptest::collection::vec(
            prop_oneof![any::<i8>().prop_map(Op::Push), Just(Op::Pop)],
            1..200,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Single-owner LLP behaves exactly like a stable priority list:
        /// push inserts before existing entries of <= priority; pop takes
        /// the front.
        #[test]
        fn llp_matches_sorted_list_model(ops in ops()) {
            let pushes = ops.iter().filter(|o| matches!(o, Op::Push(_))).count();
            let arena = Arena::new(std::iter::repeat_n(0, pushes));
            let q = Llp::new(1);
            // Model: Vec<(prio, id)> maintained sorted (desc, new first on ties).
            let mut model: Vec<(i32, usize)> = Vec::new();
            let mut next_id = 0;
            for op in &ops {
                match *op {
                    Op::Push(p) => {
                        let p = p as i32;
                        // Arena priorities are fixed at construction; emulate
                        // by setting before push via raw access.
                        let node = arena.node(next_id);
                        // SAFETY: node not yet pushed; we own it.
                        unsafe {
                            let sched = node.as_sched().as_ptr();
                            (*sched).priority = p;
                        }
                        q.push(0, node.as_sched());
                        let pos = model.iter().position(|&(mp, _)| mp <= p).unwrap_or(model.len());
                        model.insert(pos, (p, next_id));
                        next_id += 1;
                    }
                    Op::Pop => {
                        // SAFETY: arena nodes.
                        let got = q.pop(0).map(|n| unsafe { claim(n) });
                        let want = if model.is_empty() { None } else { Some(model.remove(0).1) };
                        prop_assert_eq!(got, want);
                    }
                }
            }
            // Drain and compare the remainder.
            let rest = drain_all(&q, 0);
            let want: Vec<usize> = model.into_iter().map(|(_, id)| id).collect();
            prop_assert_eq!(rest, want);
        }

        /// Every scheduler delivers every pushed node exactly once in
        /// single-threaded use, regardless of op sequence.
        #[test]
        fn all_schedulers_lossless(ops in ops()) {
            let queues: [Box<dyn TaskQueue>; 3] =
                [Box::new(Lfq::new(1, 2)), SchedKind::Ll.build(1), SchedKind::Llp.build(1)];
            for q in queues {
                let pushes = ops.iter().filter(|o| matches!(o, Op::Push(_))).count();
                let arena = Arena::new(std::iter::repeat_n(0, pushes));
                let mut next_id = 0;
                let mut outstanding = 0usize;
                for op in &ops {
                    match *op {
                        Op::Push(p) => {
                            let node = arena.node(next_id);
                            // SAFETY: node not yet pushed; we own it.
                            unsafe { (*node.as_sched().as_ptr()).priority = p as i32; }
                            q.push(0, node.as_sched());
                            next_id += 1;
                            outstanding += 1;
                        }
                        Op::Pop => {
                            if let Some(n) = q.pop(0) {
                                // SAFETY: arena nodes.
                                unsafe { claim(n) };
                                outstanding -= 1;
                            } else {
                                prop_assert_eq!(outstanding, 0);
                            }
                        }
                    }
                }
                let drained = drain_all(q.as_ref(), 0);
                prop_assert_eq!(drained.len(), outstanding);
                prop_assert!(arena.all_claimed());
            }
        }
    }
}
