//! Cross-rank span assembly over real TCP sockets: a fan-in graph
//! spread across 3 ranks, seeded under one ambient span, must
//! reconstruct into a single instance span whose task set matches the
//! graph exactly — per-rank attribution, wire hops, and a
//! queue/execute/wire breakdown bounded by the measured
//! submit-to-completion latency.

#![cfg(feature = "obs")]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use ttg_core::{dist, AggCount, Edge, Graph};
use ttg_net::tcp::ephemeral_listeners;
use ttg_net::{NetConfig, NetRuntime, TcpTransport, Transport};
use ttg_obs::assemble_spans;
use ttg_runtime::obs::spans::pack_span;
use ttg_runtime::obs::spans::with_ambient_span;
use ttg_runtime::RuntimeConfig;

const RANKS: usize = 3;
const LEAVES: u64 = 6;

/// Spins up a fully connected TCP mesh of traced single-worker ranks
/// on ephemeral loopback ports (the dial blocks until every peer is
/// up, so each rank connects on its own thread).
fn tcp_ranks() -> Vec<NetRuntime> {
    let (listeners, addrs) = ephemeral_listeners(RANKS).unwrap();
    let handles: Vec<_> = listeners
        .into_iter()
        .enumerate()
        .map(|(rank, listener)| {
            let addrs = addrs.clone();
            std::thread::spawn(move || {
                let cfg = NetConfig::builtin()
                    .with_stall_timeout(Some(std::time::Duration::from_secs(2)));
                let mut rc = RuntimeConfig::optimized(1);
                rc.trace = true;
                NetRuntime::over_transport_with(rc, &cfg.clone(), rank, RANKS, |sink| {
                    TcpTransport::with_listener_cfg(rank, listener, &addrs, sink, cfg)
                        .map(|t| t as Arc<dyn Transport>)
                })
                .expect("mesh connects")
            })
        })
        .collect();
    handles.into_iter().map(|h| h.join().unwrap()).collect()
}

#[test]
fn three_rank_tcp_fan_in_reconstructs_exact_task_set() {
    let nets = tcp_ranks();

    // SPMD fan-in: leaf(k) for k in 0..LEAVES runs on rank k % 3 and
    // sends k*10 to root(0) on rank 0, which aggregates all LEAVES
    // contributions. Identical build + link order on every rank.
    let total = Arc::new(AtomicU64::new(0));
    let mut graphs = Vec::new();
    let mut leaves = Vec::new();
    for net in &nets {
        let graph = Graph::with_runtime(net.runtime_arc());
        let edge: Edge<u64, u64> = Edge::new("fanin");
        let leaf = graph
            .tt::<u64>("leaf")
            .output(&edge)
            .build(|k, _in, out| out.send(0, 0u64, *k * 10));
        let total = Arc::clone(&total);
        let root = graph
            .tt::<u64>("root")
            .input_aggregator_remote::<u64>(&edge, AggCount::Fixed(LEAVES as usize))
            .build(move |_k, inputs, _out| {
                let sum: u64 = inputs.aggregate::<u64>(0).iter().copied().sum();
                total.store(sum, Ordering::Relaxed);
            });
        dist::link_spmd(&leaf, |k: &u64| (*k % RANKS as u64) as usize);
        dist::link_spmd(&root, |_k: &u64| 0);
        graphs.push(graph);
        leaves.push(leaf);
    }

    // Seed from rank 0 under one ambient span; every downstream task,
    // send, and wire hop inherits it.
    let span = pack_span("tcp-test", 42);
    let submitted = Instant::now();
    with_ambient_span(span, || {
        for k in 0..LEAVES {
            leaves[0].invoke(k);
        }
    });
    for net in &nets {
        net.fence();
    }
    for net in &nets {
        net.run().expect("clean termination");
    }
    let latency_ns = submitted.elapsed().as_nanos() as u64;
    assert_eq!(
        total.load(Ordering::Relaxed),
        (0..LEAVES).map(|k| k * 10).sum::<u64>(),
        "fan-in computed the right sum"
    );

    let per_rank: Vec<(usize, Vec<ttg_runtime::obs::Event>)> = nets
        .iter()
        .map(|n| (n.runtime().rank(), n.runtime().take_events()))
        .collect();
    let spans = assemble_spans(&per_rank);
    assert_eq!(spans.len(), 1, "exactly one attributed instance");
    let s = &spans[0];
    assert_eq!(s.span, span);
    assert_eq!(s.instance, 42);

    // Exact task set: LEAVES leaf executions distributed by the keymap
    // plus one root on rank 0 (handler-delivery tasks also carry the
    // span; they are counted separately).
    for r in 0..RANKS {
        let want = (0..LEAVES)
            .filter(|k| (*k % RANKS as u64) == r as u64)
            .count();
        let got = s
            .task_list
            .iter()
            .filter(|t| t.rank == r && t.name == "leaf")
            .count();
        assert_eq!(got, want, "rank {r} leaf executions");
    }
    let roots: Vec<_> = s.task_list.iter().filter(|t| t.name == "root").collect();
    assert_eq!(roots.len(), 1, "one root task");
    assert_eq!(roots[0].rank, 0, "root owned by rank 0");
    assert!(
        s.tasks > LEAVES,
        "span covers the whole graph: {} tasks",
        s.tasks
    );
    assert_eq!(s.ranks.len(), RANKS, "every rank contributed");

    // Wire attribution: seeding pushes 4 invokes off-rank and ranks 1
    // and 2 send 4 fan-in contributions back — all under the span.
    assert!(
        s.wire_hops >= 8,
        "cross-rank hops attributed: {}",
        s.wire_hops
    );

    // Single-process mesh ⇒ one clock, no skew. Summed components
    // overlap (tasks wait concurrently, ranks run concurrently), so
    // only per-item intervals are wall-clock bounded: every task's
    // schedule-to-finish window and every wire hop sit inside the
    // measured submit-to-completion latency.
    assert!(s.execute_ns > 0, "execute time attributed");
    for t in &s.task_list {
        assert!(
            t.queue_ns + t.dur_ns <= latency_ns,
            "task {} on rank {}: queue {} + execute {} within latency {latency_ns}",
            t.name,
            t.rank,
            t.queue_ns,
            t.dur_ns
        );
    }
    assert!(
        s.wire_ns <= s.wire_hops * latency_ns,
        "wire {} within {} hops x latency {latency_ns}",
        s.wire_ns,
        s.wire_hops
    );
    assert!(
        s.critical_path_ns <= latency_ns,
        "critical path {} within latency {latency_ns}",
        s.critical_path_ns
    );
}
