//! Behavioural tests for the TTG frontend: pipelines, multi-input joins,
//! aggregators, cycles in the template graph, priorities, move/copy data
//! flow, hash-table bypass, and teardown of incomplete graphs.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use ttg_core::{AggCount, Edge, Graph};
use ttg_runtime::RuntimeConfig;

fn graphs_under_test(threads: usize) -> Vec<Graph> {
    vec![
        Graph::new(RuntimeConfig::optimized(threads)),
        Graph::new(RuntimeConfig::original(threads)),
    ]
}

#[test]
fn two_stage_pipeline_delivers_all() {
    for graph in graphs_under_test(2) {
        let edge: Edge<u64, u64> = Edge::new("e");
        let sum = Arc::new(AtomicU64::new(0));
        let producer = graph
            .tt::<u64>("producer")
            .output(&edge)
            .build(|k, _i, o| o.send(0, *k, *k * 2));
        let s = Arc::clone(&sum);
        let _consumer = graph
            .tt::<u64>("consumer")
            .input::<u64>(&edge)
            .build(move |_k, i, _o| {
                s.fetch_add(*i.get::<u64>(0), Ordering::Relaxed);
            });
        for k in 0..200 {
            producer.invoke(k);
        }
        graph.wait();
        assert_eq!(
            sum.load(Ordering::Relaxed),
            (0..200u64).map(|k| k * 2).sum::<u64>()
        );
    }
}

#[test]
fn two_input_join_requires_both() {
    let graph = Graph::new(RuntimeConfig::optimized(2));
    let left: Edge<u32, u64> = Edge::new("left");
    let right: Edge<u32, u64> = Edge::new("right");
    let results = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let r = Arc::clone(&results);
    let join = graph
        .tt::<u32>("join")
        .input::<u64>(&left)
        .input::<u64>(&right)
        .build(move |k, i, _o| {
            r.lock().push((*k, *i.get::<u64>(0), *i.get::<u64>(1)));
        });
    // Deliver left inputs for all keys first, then right inputs: no task
    // may fire before its second input lands.
    for k in 0..50u32 {
        join.deliver(0, k, k as u64);
    }
    assert_eq!(join.waiting_tasks(), 50, "all shells must wait on input 1");
    for k in 0..50u32 {
        join.deliver(1, k, 1000 + k as u64);
    }
    graph.wait();
    let mut got = results.lock().clone();
    got.sort_unstable();
    assert_eq!(got.len(), 50);
    for (idx, (k, a, b)) in got.iter().enumerate() {
        assert_eq!(*k as usize, idx);
        assert_eq!(*a, *k as u64);
        assert_eq!(*b, 1000 + *k as u64);
    }
    assert_eq!(join.waiting_tasks(), 0);
}

#[test]
fn template_cycle_unfolds_acyclically() {
    // Point(t) -> Point(t+1) until t == LIMIT: a cycle in the template
    // graph, a chain in the unfolded task graph (the paper's Figure 2).
    const LIMIT: u64 = 5_000;
    for graph in graphs_under_test(2) {
        let loop_edge: Edge<u64, u64> = Edge::new("loop");
        let done = Arc::new(AtomicU64::new(0));
        let d = Arc::clone(&done);
        let point = graph
            .tt::<u64>("point")
            .input::<u64>(&loop_edge)
            .output(&loop_edge)
            .build(move |k, i, o| {
                let acc = i.take::<u64>(0);
                if *k < LIMIT {
                    o.send(0, *k + 1, acc + 1);
                } else {
                    d.store(acc, Ordering::Relaxed);
                }
            });
        point.deliver(0, 0u64, 0u64);
        graph.wait();
        assert_eq!(done.load(Ordering::Relaxed), LIMIT);
    }
}

#[test]
fn binary_tree_fanout() {
    // Each task spawns two children: the Figure 6 workload shape.
    const HEIGHT: u64 = 12;
    let graph = Graph::new(RuntimeConfig::optimized(4));
    let edge: Edge<(u64, u64), u8> = Edge::new("tree");
    let count = Arc::new(AtomicU64::new(0));
    let c = Arc::clone(&count);
    let node = graph
        .tt::<(u64, u64)>("node")
        .input::<u8>(&edge)
        .output(&edge)
        .build(move |&(level, idx), i, o| {
            let v = i.take::<u8>(0);
            c.fetch_add(1, Ordering::Relaxed);
            if level < HEIGHT {
                o.send(0, (level + 1, idx * 2), v);
                o.send(0, (level + 1, idx * 2 + 1), v);
            }
        });
    node.deliver(0, (0, 0), 7u8);
    graph.wait();
    assert_eq!(count.load(Ordering::Relaxed), (1 << (HEIGHT + 1)) - 1);
}

#[test]
fn aggregator_fixed_count() {
    let graph = Graph::new(RuntimeConfig::optimized(2));
    let agg_edge: Edge<u32, u64> = Edge::new("agg");
    let sums = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let s = Arc::clone(&sums);
    let gather = graph
        .tt::<u32>("gather")
        .input_aggregator(&agg_edge, AggCount::Fixed(4))
        .build(move |k, i, _o| {
            let vals = i.aggregate::<u64>(0);
            assert_eq!(vals.len(), 4);
            s.lock().push((*k, vals.iter().sum::<u64>()));
        });
    for k in 0..10u32 {
        for j in 0..4u64 {
            gather.deliver(0, k, (k as u64) * 10 + j);
        }
    }
    graph.wait();
    let mut got = sums.lock().clone();
    got.sort_unstable();
    assert_eq!(got.len(), 10);
    for (k, sum) in got {
        assert_eq!(sum, (0..4).map(|j| (k as u64) * 10 + j).sum::<u64>());
    }
}

#[test]
fn aggregator_per_key_count_listing1_style() {
    // The Task-Bench pattern of Listing 1: each task aggregates a
    // key-dependent number of inputs and sorts them in the body. The
    // counts straddle the shell's inline room (three copies): none, one,
    // exactly full, one over, and well over.
    const COUNTS: [u32; 5] = [0, 1, 3, 4, 9];
    let count_of = |k: u32| COUNTS[k as usize % COUNTS.len()];
    let graph = Graph::new(RuntimeConfig::optimized(2));
    let agg: Edge<u32, u32> = Edge::new("agg");
    let seen = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let s = Arc::clone(&seen);
    let point = graph
        .tt::<u32>("point")
        .input_aggregator_with(&agg, move |k: &u32| count_of(*k) as usize)
        .build(move |k, i, _o| {
            let view = i.aggregate::<u32>(0);
            assert_eq!(view.len(), i.count(0));
            let mut vals: Vec<u32> = view.iter().copied().collect();
            assert_eq!(vals, (&view).into_iter().copied().collect::<Vec<_>>());
            vals.sort_unstable();
            s.lock().push((*k, vals));
        });
    for k in 0..30u32 {
        if count_of(k) == 0 {
            point.invoke(k);
        }
        // Deliver in reverse order: the body sorts ("there is no
        // guaranteed order of the inputs in the aggregator").
        for j in (0..count_of(k)).rev() {
            point.deliver(0, k, j);
        }
    }
    graph.wait();
    let got = seen.lock().clone();
    assert_eq!(got.len(), 30);
    for (k, vals) in got {
        assert_eq!(vals, (0..count_of(k)).collect::<Vec<_>>());
    }
}

#[test]
fn zero_copy_broadcast_shares_one_copy() {
    let graph = Graph::new(RuntimeConfig::optimized(2));
    let fan: Edge<u32, Vec<u8>> = Edge::new("fan");
    let total = Arc::new(AtomicUsize::new(0));
    let starter_edge: Edge<u32, u8> = Edge::new("start");
    let t = Arc::clone(&total);
    let _sink = graph
        .tt::<u32>("sink")
        .input::<Vec<u8>>(&fan)
        .build(move |_k, i, _o| {
            // Readers share the broadcast copy; get() borrows without
            // cloning the payload.
            t.fetch_add(i.get::<Vec<u8>>(0).len(), Ordering::Relaxed);
        });
    let src = graph
        .tt::<u32>("src")
        .input::<u8>(&starter_edge)
        .output(&fan)
        .build(move |_k, _i, o| {
            o.broadcast(0, 0..100u32, vec![1u8; 64]);
        });
    src.deliver(0, 0u32, 0u8);
    graph.wait();
    assert_eq!(total.load(Ordering::Relaxed), 100 * 64);
}

#[test]
fn forward_moves_copy_through_chain_without_clone() {
    // A chain forwarding one tracked copy: the "move" variant of the
    // Figure 5 benchmark. The payload is !Clone to prove no clone occurs.
    struct Token(#[allow(dead_code)] u64);
    let graph = Graph::new(RuntimeConfig::optimized(1));
    let e: Edge<u64, Token> = Edge::new("chain");
    let hops = Arc::new(AtomicU64::new(0));
    let h = Arc::clone(&hops);
    let stage = graph
        .tt::<u64>("stage")
        .input::<Token>(&e)
        .output(&e)
        .build(move |k, i, o| {
            h.fetch_add(1, Ordering::Relaxed);
            let copy = i.take_copy(0);
            assert!(copy.is_unique(), "chain copy must stay unshared");
            if *k < 1000 {
                o.forward(0, *k + 1, copy);
            }
        });
    stage.deliver(0, 0u64, Token(42));
    graph.wait();
    assert_eq!(hops.load(Ordering::Relaxed), 1001);
}

#[test]
fn priorities_steer_single_worker_order() {
    let graph = Graph::new(RuntimeConfig::optimized(1));
    let e: Edge<u32, u8> = Edge::new("prio");
    let order = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let o2 = Arc::clone(&order);
    let tt = graph
        .tt::<u32>("prio")
        .input::<u8>(&e)
        .priority(|k| *k as i32)
        .build(move |k, _i, _o| o2.lock().push(*k));
    // Seed all before any can run (external deliveries queue up).
    for k in [3u32, 9, 1, 7, 5] {
        tt.deliver(0, k, 0u8);
    }
    graph.wait();
    let got = order.lock().clone();
    assert_eq!(got, vec![9, 7, 5, 3, 1], "single worker follows priority");
}

#[test]
fn multi_session_graph_reuse() {
    let graph = Graph::new(RuntimeConfig::optimized(2));
    let e: Edge<u64, u64> = Edge::new("e");
    let count = Arc::new(AtomicU64::new(0));
    let c = Arc::clone(&count);
    let tt = graph
        .tt::<u64>("t")
        .input::<u64>(&e)
        .build(move |_k, _i, _o| {
            c.fetch_add(1, Ordering::Relaxed);
        });
    for round in 1..=4 {
        for k in 0..100u64 {
            tt.deliver(0, round * 1000 + k, k);
        }
        graph.wait();
        assert_eq!(count.load(Ordering::Relaxed), round * 100);
    }
}

#[test]
fn incomplete_graph_terminates_and_tears_down() {
    // Deliver only one of two inputs: the task never runs, wait()
    // returns (no runnable work), teardown reclaims the shell.
    let ran = Arc::new(AtomicUsize::new(0));
    {
        let graph = Graph::new(RuntimeConfig::optimized(2));
        let a: Edge<u32, u8> = Edge::new("a");
        let b: Edge<u32, u8> = Edge::new("b");
        let r = Arc::clone(&ran);
        let join = graph
            .tt::<u32>("join")
            .input::<u8>(&a)
            .input::<u8>(&b)
            .build(move |_k, _i, _o| {
                r.fetch_add(1, Ordering::Relaxed);
            });
        join.deliver(0, 7, 1u8);
        graph.wait();
        assert_eq!(join.waiting_tasks(), 1);
        assert_eq!(graph.incomplete_tts(), vec!["join".to_string()]);
        // Graph drop disposes the stale shell (pool asserts emptiness).
    }
    assert_eq!(ran.load(Ordering::Relaxed), 0);
}

#[test]
fn table_grows_under_many_waiting_tasks() {
    // Tens of thousands of two-input tasks all waiting on their second
    // input: forces hash-table growth, then drains it.
    const N: u32 = 20_000;
    let graph = Graph::new(RuntimeConfig::optimized(4));
    let a: Edge<u32, u32> = Edge::new("a");
    let b: Edge<u32, u32> = Edge::new("b");
    let sum = Arc::new(AtomicU64::new(0));
    let s = Arc::clone(&sum);
    let join = graph
        .tt::<u32>("wide-join")
        .input::<u32>(&a)
        .input::<u32>(&b)
        .build(move |_k, i, _o| {
            s.fetch_add(
                (*i.get::<u32>(0) + *i.get::<u32>(1)) as u64,
                Ordering::Relaxed,
            );
        });
    for k in 0..N {
        join.deliver(0, k, k);
    }
    let stats = join.table_stats();
    assert_eq!(stats.len, N as usize);
    assert!(stats.resizes >= 5, "expected growth, got {stats:?}");
    for k in 0..N {
        join.deliver(1, k, 1u32);
    }
    graph.wait();
    assert_eq!(
        sum.load(Ordering::Relaxed),
        (0..N).map(|k| k as u64 + 1).sum::<u64>()
    );
    assert_eq!(join.table_stats().len, 0);
}

#[test]
fn diamond_dataflow() {
    //      src
    //     /    \
    //   left  right
    //     \    /
    //      sink (2 inputs)
    let graph = Graph::new(RuntimeConfig::optimized(2));
    let to_left: Edge<u32, u64> = Edge::new("to_left");
    let to_right: Edge<u32, u64> = Edge::new("to_right");
    let from_left: Edge<u32, u64> = Edge::new("from_left");
    let from_right: Edge<u32, u64> = Edge::new("from_right");
    let out = Arc::new(AtomicU64::new(0));

    let src = graph
        .tt::<u32>("src")
        .output(&to_left)
        .output(&to_right)
        .build(|k, _i, o| {
            o.send(0, *k, *k as u64);
            o.send(1, *k, *k as u64 * 100);
        });
    let _left = graph
        .tt::<u32>("left")
        .input::<u64>(&to_left)
        .output(&from_left)
        .build(|k, i, o| o.send(0, *k, i.take::<u64>(0) + 1));
    let _right = graph
        .tt::<u32>("right")
        .input::<u64>(&to_right)
        .output(&from_right)
        .build(|k, i, o| o.send(0, *k, i.take::<u64>(0) + 2));
    let o2 = Arc::clone(&out);
    let _sink = graph
        .tt::<u32>("sink")
        .input::<u64>(&from_left)
        .input::<u64>(&from_right)
        .build(move |_k, i, _o| {
            o2.fetch_add(i.take::<u64>(0) + i.take::<u64>(1), Ordering::Relaxed);
        });
    for k in 0..100u32 {
        src.invoke(k);
    }
    graph.wait();
    let expect: u64 = (0..100u64).map(|k| (k + 1) + (k * 100 + 2)).sum();
    assert_eq!(out.load(Ordering::Relaxed), expect);
}

#[test]
fn edge_fan_out_to_zero_one_two_and_three_consumers() {
    // One edge feeding several TTs: each receives every datum, sharing
    // the tracked copy, which is released exactly once whatever the
    // fan-out — also when nobody listens.
    struct Datum(u64, Arc<AtomicUsize>);
    impl Drop for Datum {
        fn drop(&mut self) {
            self.1.fetch_add(1, Ordering::Relaxed);
        }
    }
    for consumers in [0usize, 1, 2, 3] {
        let graph = Graph::new(RuntimeConfig::optimized(2));
        let e: Edge<u32, Datum> = Edge::new("shared");
        let sums: Vec<Arc<AtomicU64>> = (0..consumers).map(|_| Arc::default()).collect();
        for (n, sum) in sums.iter().enumerate() {
            assert_eq!(e.fan_out(), n);
            let sum = Arc::clone(sum);
            graph
                .tt::<u32>(format!("consumer{n}"))
                .input::<Datum>(&e)
                .build(move |_k, i, _o| {
                    sum.fetch_add(i.get::<Datum>(0).0, Ordering::Relaxed);
                });
        }
        assert_eq!(e.fan_out(), consumers);
        let drops = Arc::new(AtomicUsize::new(0));
        let d = Arc::clone(&drops);
        let src = graph.tt::<u32>("src").output(&e).build(move |k, _i, o| {
            o.send(0, *k, Datum(*k as u64, Arc::clone(&d)));
        });
        for k in 0..50 {
            src.invoke(k);
        }
        graph.wait();
        for sum in &sums {
            assert_eq!(sum.load(Ordering::Relaxed), (0..50u64).sum::<u64>());
        }
        assert_eq!(drops.load(Ordering::Relaxed), 50, "fan-out {consumers}");
        drop(graph);
        assert_eq!(e.fan_out(), 0, "teardown unwires the edge");
    }
}

#[test]
fn stress_many_short_tasks_multithreaded() {
    // A wide, shallow graph under the optimized runtime: 4 workers,
    // 100k single-input tasks (hash-table bypass path).
    let graph = Graph::new(RuntimeConfig::optimized(4));
    let e: Edge<u64, u64> = Edge::new("wide");
    let n = Arc::new(AtomicU64::new(0));
    let n2 = Arc::clone(&n);
    let _sink = graph
        .tt::<u64>("sink")
        .input::<u64>(&e)
        .build(move |_k, i, _o| {
            n2.fetch_add(*i.get::<u64>(0), Ordering::Relaxed);
        });
    let fan = graph.tt::<u64>("fan").output(&e).build(|k, _i, o| {
        for j in 0..1000u64 {
            o.send(0, *k * 1000 + j, 1u64);
        }
    });
    for k in 0..100 {
        fan.invoke(k);
    }
    graph.wait();
    assert_eq!(n.load(Ordering::Relaxed), 100_000);
}

#[test]
fn reducer_terminal_folds_streaming_inputs() {
    // The paper's "streaming terminal": N items folded into one
    // accumulator as they arrive, task fires when the count is reached.
    let graph = Graph::new(RuntimeConfig::optimized(2));
    let stream: Edge<u32, u64> = Edge::new("stream");
    let results = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let r = Arc::clone(&results);
    let reduce = graph
        .tt::<u32>("reduce")
        .input_reducer(&stream, AggCount::Fixed(8), |acc: &mut u64, v| *acc += v)
        .build(move |k, i, _o| {
            r.lock().push((*k, *i.get::<u64>(0)));
        });
    for k in 0..5u32 {
        for j in 0..8u64 {
            reduce.deliver(0, k, j + k as u64);
        }
    }
    graph.wait();
    let mut got = results.lock().clone();
    got.sort_unstable();
    assert_eq!(got.len(), 5);
    for (k, sum) in got {
        assert_eq!(sum, (0..8u64).map(|j| j + k as u64).sum::<u64>());
    }
}

#[test]
fn reducer_with_per_key_count_and_mixed_terminals() {
    // A TT combining a fixed input with a per-key reducer.
    let graph = Graph::new(RuntimeConfig::optimized(2));
    let base: Edge<u32, u64> = Edge::new("base");
    let stream: Edge<u32, u64> = Edge::new("stream");
    let out = Arc::new(AtomicU64::new(0));
    let o2 = Arc::clone(&out);
    let tt = graph
        .tt::<u32>("mixed")
        .input::<u64>(&base)
        .input_reducer(
            &stream,
            AggCount::PerKey(Arc::new(|k: &u32| (*k % 4) as usize)),
            |acc: &mut u64, v| *acc = (*acc).max(v),
        )
        .build(move |k, i, _o| {
            let base = *i.get::<u64>(0);
            // Keys with k % 4 == 0 expect zero stream items: the slot is
            // empty and count() reports 0.
            let m = if *k % 4 == 0 { 0 } else { *i.get::<u64>(1) };
            assert_eq!(i.count(1), usize::from(*k % 4 != 0));
            o2.fetch_add(base + m, Ordering::Relaxed);
        });
    let mut expect = 0u64;
    for k in 1..9u32 {
        tt.deliver(0, k, 100u64);
        let n = k % 4;
        for j in 0..n as u64 {
            tt.deliver(1, k, 10u64 + j);
        }
        expect += 100 + if n == 0 { 0 } else { 10 + (n as u64 - 1) };
    }
    graph.wait();
    assert_eq!(out.load(Ordering::Relaxed), expect);
}

#[test]
fn reducer_handles_shared_broadcast_inputs() {
    // Broadcasting into a reducer forces the clone fallback (shared
    // copies cannot be moved); results must still be exact.
    let graph = Graph::new(RuntimeConfig::optimized(2));
    let start: Edge<u32, u8> = Edge::new("start");
    let stream: Edge<u32, u64> = Edge::new("stream");
    let out = Arc::new(AtomicU64::new(0));
    let o2 = Arc::clone(&out);
    let _reduce = graph
        .tt::<u32>("reduce")
        .input_reducer(&stream, AggCount::Fixed(1), |acc: &mut u64, v| *acc += v)
        .build(move |_k, i, _o| {
            o2.fetch_add(*i.get::<u64>(0), Ordering::Relaxed);
        });
    let src = graph
        .tt::<u32>("src")
        .input::<u8>(&start)
        .output(&stream)
        .build(|_k, _i, o| {
            // One shared copy delivered to 20 different reducer tasks.
            o.broadcast(0, 0..20u32, 5u64);
        });
    src.deliver(0, 0, 0u8);
    graph.wait();
    assert_eq!(out.load(Ordering::Relaxed), 100);
}

#[test]
fn take_aggregate_forwards_copies() {
    // A gather stage that re-forwards its aggregated copies downstream
    // without cloning payloads.
    let graph = Graph::new(RuntimeConfig::optimized(2));
    let gather_in: Edge<u32, Vec<u8>> = Edge::new("in");
    let fan_out: Edge<u32, Vec<u8>> = Edge::new("out");
    let bytes = Arc::new(AtomicUsize::new(0));
    let b2 = Arc::clone(&bytes);
    let _sink = graph
        .tt::<u32>("sink")
        .input::<Vec<u8>>(&fan_out)
        .build(move |_k, i, _o| {
            b2.fetch_add(i.get::<Vec<u8>>(0).len(), Ordering::Relaxed);
        });
    let gather = graph
        .tt::<u32>("gather")
        .input_aggregator(&gather_in, AggCount::Fixed(3))
        .output(&fan_out)
        .build(move |k, i, o| {
            for (n, copy) in i.take_aggregate(0).into_iter().enumerate() {
                o.forward(0, k * 10 + n as u32, copy);
            }
        });
    for j in 0..3 {
        gather.deliver(0, 7u32, vec![1u8; 10 * (j + 1)]);
    }
    graph.wait();
    assert_eq!(bytes.load(Ordering::Relaxed), 10 + 20 + 30);
}

#[test]
fn deep_recursion_stress_with_one_worker() {
    // A 200k-long chain on a single worker: exercises pool reuse, the
    // LLP fast path, and the termination detector's idle transitions
    // without ever parking mid-chain.
    let graph = Graph::new(RuntimeConfig::optimized(1));
    let e: Edge<u64, u64> = Edge::new("deep");
    let end = Arc::new(AtomicU64::new(0));
    let d = Arc::clone(&end);
    let tt = graph
        .tt::<u64>("deep")
        .input::<u64>(&e)
        .output(&e)
        .build(move |k, i, o| {
            let v = i.take::<u64>(0);
            if *k < 200_000 {
                o.send(0, *k + 1, v ^ *k);
            } else {
                d.store(v, Ordering::Relaxed);
            }
        });
    tt.deliver(0, 0u64, 0u64);
    graph.wait();
    let want = (0..200_000u64).fold(0u64, |acc, k| acc ^ k);
    assert_eq!(end.load(Ordering::Relaxed), want);
}

#[test]
#[should_panic(expected = "exceeds MAX_INPUTS")]
fn too_many_inputs_is_rejected_at_build_time() {
    let graph = Graph::new(RuntimeConfig::optimized(1));
    let e: Edge<u32, u8> = Edge::new("e");
    let mut b = graph.tt::<u32>("wide");
    for _ in 0..=ttg_core::MAX_INPUTS {
        b = b.input::<u8>(&e);
    }
    let _ = b.build(|_k, _i, _o| {});
}

#[test]
#[should_panic(expected = "duplicate datum")]
fn duplicate_single_input_delivery_panics() {
    let graph = Graph::new(RuntimeConfig::optimized(1));
    let a: Edge<u32, u8> = Edge::new("a");
    let b: Edge<u32, u8> = Edge::new("b");
    let join = graph
        .tt::<u32>("join")
        .input::<u8>(&a)
        .input::<u8>(&b)
        .build(|_k, _i, _o| {});
    join.deliver(0, 1, 1u8);
    join.deliver(0, 1, 2u8); // same terminal, same key: a graph bug
}

#[test]
#[should_panic(expected = "different payload type")]
fn wrong_payload_type_at_deliver_panics() {
    let graph = Graph::new(RuntimeConfig::optimized(1));
    let e: Edge<u32, u64> = Edge::new("e");
    let tt = graph.tt::<u32>("t").input::<u64>(&e).build(|_k, _i, _o| {});
    tt.deliver(0, 1, 1u32); // u32 into a u64 terminal
}

/// Regression for the shell pool's two-popper ABA: with one worker, the
/// seeding thread and worker 0 used to pop the same free list
/// (`thread_id % 1`), so a shell could be handed out while live. Here
/// the main thread delivers straight into `sink` while the worker's
/// `src` tasks send into it (both allocate `sink` shells) and the worker
/// recycles them; every task must run exactly once.
#[test]
fn seeding_thread_and_single_worker_never_share_a_shell() {
    // Rounds keep the ready queue shallow, so the worker recycles
    // shells while the main thread is still allocating them.
    const ROUNDS: u64 = 100;
    const N: u64 = 1_000;
    let graph = Graph::new(RuntimeConfig::optimized(1));
    let edge: Edge<u64, u64> = Edge::new("to-sink");
    let runs: Arc<Vec<AtomicUsize>> =
        Arc::new((0..2 * N * ROUNDS).map(|_| AtomicUsize::new(0)).collect());
    let src = graph
        .tt::<u64>("src")
        .output(&edge)
        .build(|k, _i, o| o.send(0, *k, *k));
    let r = Arc::clone(&runs);
    let sink = graph
        .tt::<u64>("sink")
        .input::<u64>(&edge)
        .build(move |k, i, _o| {
            assert_eq!(*i.get::<u64>(0), *k, "shell overwritten while live");
            r[*k as usize].fetch_add(1, Ordering::Relaxed);
        });
    for round in 0..ROUNDS {
        for k in (2 * round * N..).take(N as usize) {
            src.invoke(k);
            sink.deliver(0, N + k, N + k);
        }
        graph.wait();
    }
    let wrong = runs
        .iter()
        .filter(|c| c.load(Ordering::Relaxed) != 1)
        .count();
    assert_eq!(wrong, 0, "tasks lost or run twice");
}
