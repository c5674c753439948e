//! Cross-crate integration tests: the full stack (sync → hashtable /
//! sched / termdet / mempool → runtime → TTG → applications) exercised
//! through scenarios no single crate covers alone.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use ttg_core::{AggCount, Edge, Graph};
use ttg_net::NetGroup;
use ttg_runtime::{Runtime, RuntimeConfig, SchedKind, TermDetKind};
use ttg_task_bench::{Implementation, Kernel, Pattern, TaskGraph};

/// Every runtime-config axis combination drives the same TTG graph to
/// the same answer.
#[test]
fn full_config_matrix_is_answer_invariant() {
    let mut configs = Vec::new();
    for sched in [SchedKind::Lfq { buffer: 4 }, SchedKind::Ll, SchedKind::Llp] {
        for termdet in [TermDetKind::ProcessWide, TermDetKind::ThreadLocal] {
            for lock in [ttg_runtime::LockKind::Plain, ttg_runtime::LockKind::Bravo] {
                let mut c = RuntimeConfig::optimized(2);
                c.scheduler = sched;
                c.termdet = termdet;
                c.table_lock = lock;
                configs.push(c);
            }
        }
    }
    assert_eq!(configs.len(), 12);
    for config in configs {
        let label = format!("{config:?}");
        let graph = Graph::new(config);
        let e: Edge<u64, u64> = Edge::new("e");
        let sum = Arc::new(AtomicU64::new(0));
        let s = Arc::clone(&sum);
        let chain = graph
            .tt::<u64>("chain")
            .input::<u64>(&e)
            .output(&e)
            .build(move |k, i, o| {
                let v = i.take::<u64>(0);
                if *k < 500 {
                    o.send(0, *k + 1, v + *k);
                } else {
                    s.store(v, Ordering::Relaxed);
                }
            });
        chain.deliver(0, 0u64, 0u64);
        graph.wait();
        assert_eq!(
            sum.load(Ordering::Relaxed),
            (0..500u64).sum::<u64>(),
            "{label}"
        );
    }
}

/// Task-Bench validation through a shared runtime: two different TTG
/// graphs on one runtime, sessions interleaved.
#[test]
fn two_graphs_share_one_runtime() {
    let rt = Arc::new(Runtime::new(RuntimeConfig::optimized(2)));
    let g1 = Graph::with_runtime(Arc::clone(&rt));
    let g2 = Graph::with_runtime(Arc::clone(&rt));
    let e1: Edge<u32, u32> = Edge::new("g1");
    let e2: Edge<u32, u32> = Edge::new("g2");
    let c1 = Arc::new(AtomicU64::new(0));
    let c2 = Arc::new(AtomicU64::new(0));
    let a1 = Arc::clone(&c1);
    let t1 = g1
        .tt::<u32>("t1")
        .input::<u32>(&e1)
        .build(move |_k, _i, _o| {
            a1.fetch_add(1, Ordering::Relaxed);
        });
    let a2 = Arc::clone(&c2);
    let t2 = g2
        .tt::<u32>("t2")
        .input::<u32>(&e2)
        .build(move |_k, _i, _o| {
            a2.fetch_add(3, Ordering::Relaxed);
        });
    for k in 0..100u32 {
        t1.deliver(0, k, k);
        t2.deliver(0, k, k);
    }
    // One wait fences both graphs (same runtime, same termdet).
    g1.wait();
    assert_eq!(c1.load(Ordering::Relaxed), 100);
    assert_eq!(c2.load(Ordering::Relaxed), 300);
}

/// A TTG graph whose bodies use aggregators, broadcasts, priorities,
/// and forwards all at once (map-reduce over shards).
#[test]
fn map_reduce_with_all_terminal_kinds() {
    const SHARDS: u32 = 32;
    let graph = Graph::new(RuntimeConfig::optimized(3));
    let to_map: Edge<u32, Vec<u64>> = Edge::new("to_map");
    let to_reduce: Edge<u32, u64> = Edge::new("to_reduce");
    let out = Arc::new(AtomicU64::new(0));

    // Source broadcasts the (shared, zero-copy) dataset to all mappers.
    let src = graph
        .tt::<u32>("src")
        .output(&to_map)
        .build(move |_k, _i, o| {
            let data: Vec<u64> = (0..1000).collect();
            o.broadcast(0, 0..SHARDS, data);
        });
    // Mappers each sum a stripe and send their partial to the reducer.
    let _map = graph
        .tt::<u32>("map")
        .input::<Vec<u64>>(&to_map)
        .output(&to_reduce)
        .priority(|k| *k as i32)
        .build(move |&shard, i, o| {
            let data = i.get::<Vec<u64>>(0);
            let partial: u64 = data
                .iter()
                .skip(shard as usize)
                .step_by(SHARDS as usize)
                .sum();
            o.send(0, 0u32, partial);
        });
    // Reducer aggregates all partials.
    let sink = Arc::clone(&out);
    let _reduce = graph
        .tt::<u32>("reduce")
        .input_aggregator(&to_reduce, AggCount::Fixed(SHARDS as usize))
        .build(move |_k, i, _o| {
            let total: u64 = i.aggregate::<u64>(0).iter().sum();
            sink.store(total, Ordering::Relaxed);
        });
    src.invoke(0);
    graph.wait();
    assert_eq!(out.load(Ordering::Relaxed), (0..1000u64).sum::<u64>());
}

/// Distributed TTG-style workload over an in-process job: each rank
/// runs its own local fan-out; partial results hop home as active
/// messages; the 4-counter wave fences everything.
#[test]
fn net_group_with_local_graphs() {
    const RANKS: usize = 3;
    let group = NetGroup::local(RANKS, |_| RuntimeConfig::optimized(1));
    let total = Arc::new(AtomicU64::new(0));
    for rank in 0..RANKS {
        let t = Arc::clone(&total);
        let report = group.runtime(rank).register_handler(move |_ctx, payload| {
            let part = u64::from_le_bytes(payload[..8].try_into().unwrap());
            t.fetch_add(part, Ordering::Relaxed);
        });
        group.runtime(rank).submit(0, move |ctx| {
            // Local fan-out on this rank …
            for i in 0..50u64 {
                let base = (ctx.rank() as u64 + 1) * 1000;
                // … each local task reports to rank 0.
                ctx.spawn(0, move |ctx| {
                    ctx.send_msg(0, 0, report, (base + i).to_le_bytes().to_vec())
                });
            }
        });
    }
    group.wait();
    let want: u64 = (0..RANKS as u64)
        .map(|r| (0..50u64).map(|i| (r + 1) * 1000 + i).sum::<u64>())
        .sum();
    assert_eq!(total.load(Ordering::Relaxed), want);
}

/// All Task-Bench implementations agree with each other (not just the
/// serial oracle) on a non-trivial configuration.
#[test]
fn task_bench_implementations_agree_pairwise() {
    let graph = TaskGraph::new(30, 8, Pattern::Fft, Kernel::Empty);
    let mut checksums = Vec::new();
    for imp in Implementation::all() {
        let mut runner = imp.build(2);
        checksums.push((runner.name(), runner.run(&graph).checksum));
    }
    let first = checksums[0].1;
    for (name, cs) in &checksums {
        assert_eq!(*cs, first, "{name} disagrees");
    }
}

/// End-to-end MRA through TTG on an LFQ/original runtime must still be
/// exact (scheduler choice cannot affect numerics).
#[test]
fn mra_exact_under_original_runtime() {
    use ttg_mra::tree::{MraContext, MraParams};
    use ttg_mra::{Gaussian3, MraTtg};
    let ctx = Arc::new(MraContext::new(MraParams {
        k: 5,
        eps: 1e-4,
        max_level: 5,
        initial_level: 1,
        domain: (-1.5, 1.5),
    }));
    let funcs = vec![Gaussian3::new([0.2, 0.0, -0.3], 30.0)];
    let rt = Arc::new(Runtime::new(RuntimeConfig::original(2)));
    let out = MraTtg::new(Arc::clone(&ctx)).run(&rt, &funcs);
    let serial = ttg_mra::serial::run(&ctx, &funcs[0]);
    assert_eq!(out.stats.leaves, serial.leaves.len());
    for (key, sv) in &serial.leaves {
        let rec = &out.reconstructed[&(0u32, *key)];
        assert!(rec.max_abs_diff(sv) < 1e-10);
    }
}

/// Stress: repeated sessions with stealing, priorities, and table growth
/// must neither leak pool objects nor deadlock.
#[test]
fn repeated_sessions_stress() {
    let graph = Graph::new(RuntimeConfig::optimized(4));
    let a: Edge<u64, u64> = Edge::new("a");
    let b: Edge<u64, u64> = Edge::new("b");
    let done = Arc::new(AtomicU64::new(0));
    let d = Arc::clone(&done);
    let join = graph
        .tt::<u64>("join")
        .input::<u64>(&a)
        .input::<u64>(&b)
        .priority(|k| (k % 13) as i32)
        .build(move |_k, i, _o| {
            d.fetch_add(i.take::<u64>(0) + i.take::<u64>(1), Ordering::Relaxed);
        });
    for session in 0..10u64 {
        for k in 0..300u64 {
            join.deliver(0, session * 1000 + k, 1u64);
        }
        for k in 0..300u64 {
            join.deliver(1, session * 1000 + k, 1u64);
        }
        graph.wait();
        assert_eq!(done.load(Ordering::Relaxed), (session + 1) * 600);
        assert_eq!(join.waiting_tasks(), 0);
    }
    let stats = join.table_stats();
    assert_eq!(stats.len, 0);
}
