//! Criterion bench behind Figure 6: LFQ vs LL vs LLP queue operations
//! and the binary-tree task workload.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::ptr::NonNull;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use ttg_core::{Edge, Graph};
use ttg_runtime::{RuntimeConfig, SchedKind};
use ttg_sched::SchedNode;

/// Plain push/pop throughput on one worker queue (no tasks executed).
fn bench_queue_ops(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig6_queue_ops");
    g.sample_size(20);
    const N: usize = 1_000;
    g.throughput(Throughput::Elements(2 * N as u64));
    for (name, kind) in [
        ("lfq", SchedKind::Lfq),
        ("ll", SchedKind::Ll),
        ("llp", SchedKind::Llp),
    ] {
        let q = kind.build(1);
        // Stable arena of nodes, reused every iteration.
        let nodes: Vec<Box<SchedNode>> = (0..N)
            .map(|i| Box::new(SchedNode::new((i % 16) as i32)))
            .collect();
        g.bench_function(BenchmarkId::new("push_pop_1k", name), |b| {
            b.iter(|| {
                for n in &nodes {
                    q.push(0, NonNull::from(n.as_ref()));
                }
                let mut popped = 0;
                while q.pop(0).is_some() {
                    popped += 1;
                }
                assert_eq!(popped, N);
            })
        });
    }
    g.finish();
}

/// The Figure 6 tree workload through the full TTG stack.
fn bench_tree(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig6_tree");
    g.sample_size(10);
    const HEIGHT: u64 = 11; // 4095 tasks
    g.throughput(Throughput::Elements((1 << (HEIGHT + 1)) - 1));
    for (name, kind) in [("lfq", SchedKind::Lfq), ("llp", SchedKind::Llp)] {
        let mut config = RuntimeConfig::optimized(1);
        config.scheduler = kind;
        let graph = Graph::new(config);
        let edge: Edge<(u64, u64), u8> = Edge::new("tree");
        let count = Arc::new(AtomicU64::new(0));
        let cc = Arc::clone(&count);
        let node = graph
            .tt::<(u64, u64)>("node")
            .input::<u8>(&edge)
            .output(&edge)
            .build(move |&(level, idx), _i, out| {
                cc.fetch_add(1, Ordering::Relaxed);
                if level < HEIGHT {
                    out.send(0, (level + 1, idx * 2), 0u8);
                    out.send(0, (level + 1, idx * 2 + 1), 0u8);
                }
            });
        node.deliver(0, (0, 0), 0u8);
        graph.wait(); // warm-up
        g.bench_function(BenchmarkId::new("empty_tasks", name), |b| {
            b.iter(|| {
                node.deliver(0, (0, 0), 0u8);
                graph.wait();
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_queue_ops, bench_tree);
criterion_main!(benches);
