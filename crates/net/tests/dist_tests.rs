//! Distributed-TTG tests: keymapped template tasks across the ranks of
//! an in-process job, with serialized cross-rank data flow and
//! wave-based global termination. (Here, not in `ttg-core`: the job's
//! transport and wave are this crate's.)

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use ttg_core::{dist, AggCount, Edge, Graph, Tt};
use ttg_net::NetGroup;
use ttg_runtime::RuntimeConfig;

/// Builds the same TT on every rank, returning (graphs, tts).
fn build_on_all<K: ttg_core::Key>(
    group: &NetGroup,
    mut f: impl FnMut(&Graph, usize) -> Tt<K>,
) -> (Vec<Graph>, Vec<Tt<K>>) {
    let mut graphs = Vec::new();
    let mut tts = Vec::new();
    for rank in 0..group.nranks() {
        let graph = Graph::with_runtime(group.runtime_arc(rank));
        let tt = f(&graph, rank);
        graphs.push(graph);
        tts.push(tt);
    }
    (graphs, tts)
}

#[test]
fn chain_hops_across_every_rank() {
    const RANKS: usize = 3;
    const LEN: u64 = 60;
    let group = NetGroup::local(RANKS, |_| RuntimeConfig::optimized(1));
    let sum = Arc::new(AtomicU64::new(0));
    let executed_on: Arc<Vec<AtomicU64>> =
        Arc::new((0..RANKS).map(|_| AtomicU64::new(0)).collect());
    let (_graphs, tts) = build_on_all(&group, |graph, rank| {
        let edge: Edge<u64, u64> = Edge::new("chain");
        let sum = Arc::clone(&sum);
        let ex = Arc::clone(&executed_on);
        graph
            .tt::<u64>("hop")
            .input_remote::<u64>(&edge)
            .output(&edge)
            .build(move |k, i, o| {
                ex[rank].fetch_add(1, Ordering::Relaxed);
                let v = i.take::<u64>(0);
                if *k < LEN {
                    o.send(0, *k + 1, v + *k);
                } else {
                    sum.store(v, Ordering::Relaxed);
                }
            })
    });
    // Round-robin keymap: every hop crosses ranks.
    dist::link_distributed(&tts, |k: &u64| (*k as usize) % RANKS);
    tts[0].deliver(0, 0u64, 0u64);
    group.wait();
    assert_eq!(sum.load(Ordering::Relaxed), (0..LEN).sum::<u64>());
    // Each rank executed its keymapped share (ownership respected).
    for (r, ex) in executed_on.iter().enumerate() {
        let got = ex.load(Ordering::Relaxed);
        let want = (0..=LEN).filter(|k| (*k as usize) % RANKS == r).count() as u64;
        assert_eq!(got, want, "rank {r} executed {got}, expected {want}");
    }
}

#[test]
fn external_deliver_routes_to_owner() {
    const RANKS: usize = 2;
    let group = NetGroup::local(RANKS, |_| RuntimeConfig::optimized(1));
    let on_rank = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let (_graphs, tts) = build_on_all(&group, |graph, rank| {
        let edge: Edge<u32, String> = Edge::new("in");
        let log = Arc::clone(&on_rank);
        graph
            .tt::<u32>("sink")
            .input_remote::<String>(&edge)
            .build(move |k, i, _o| {
                log.lock().push((rank, *k, i.get::<String>(0).clone()));
            })
    });
    dist::link_distributed(&tts, |k: &u32| (*k % RANKS as u32) as usize);
    // Deliver everything through rank 0's handle: odd keys must hop.
    for k in 0..10u32 {
        tts[0].deliver(0, k, format!("msg{k}"));
    }
    group.wait();
    let mut got = on_rank.lock().clone();
    got.sort();
    assert_eq!(got.len(), 10);
    for (rank, k, msg) in got {
        assert_eq!(
            rank,
            (k % RANKS as u32) as usize,
            "key {k} ran on wrong rank"
        );
        assert_eq!(msg, format!("msg{k}"));
    }
}

#[test]
fn distributed_stencil_matches_serial() {
    // The Task-Bench 1D stencil as a distributed TTG: block keymap, halo
    // sends cross ranks, aggregator terminals gather the 2+1 deps.
    const RANKS: usize = 3;
    const W: usize = 9;
    const STEPS: u32 = 12;
    let group = NetGroup::local(RANKS, |_| RuntimeConfig::optimized(1));
    // Serial reference.
    let serial = {
        let mut prev: Vec<u64> = (0..W as u64).collect();
        for _t in 0..STEPS {
            let mut cur = vec![0u64; W];
            for i in 0..W {
                let mut acc = prev[i];
                if i > 0 {
                    acc = acc.wrapping_add(prev[i - 1]);
                }
                if i + 1 < W {
                    acc = acc.wrapping_add(prev[i + 1]);
                }
                cur[i] = acc.wrapping_mul(0x9E3779B97F4A7C15);
            }
            prev = cur;
        }
        prev
    };

    let results: Arc<Vec<AtomicU64>> = Arc::new((0..W).map(|_| AtomicU64::new(0)).collect());
    #[derive(Clone, serde::Serialize, serde::Deserialize)]
    struct Msg {
        origin: u32,
        value: u64,
    }
    let deps_of = |i: usize| -> Vec<usize> {
        let mut v = Vec::new();
        if i > 0 {
            v.push(i - 1);
        }
        v.push(i);
        if i + 1 < W {
            v.push(i + 1);
        }
        v
    };
    let (_graphs, tts) = build_on_all(&group, |graph, _rank| {
        let edge: Edge<(u32, u32), Msg> = Edge::new("stencil");
        let res = Arc::clone(&results);
        graph
            .tt::<(u32, u32)>("point")
            .input_aggregator_remote::<Msg>(
                &edge,
                AggCount::PerKey(Arc::new(
                    move |&(t, i): &(u32, u32)| {
                        if t == 0 {
                            0
                        } else {
                            deps_of(i as usize).len()
                        }
                    },
                )),
            )
            .output(&edge)
            .build(move |&(t, i), inputs, out| {
                let value = if t == 0 {
                    i as u64
                } else {
                    let mut items: Vec<(u32, u64)> = inputs
                        .aggregate::<Msg>(0)
                        .iter()
                        .map(|m| (m.origin, m.value))
                        .collect();
                    items.sort_unstable();
                    items
                        .iter()
                        .fold(0u64, |acc, &(_, v)| acc.wrapping_add(v))
                        .wrapping_mul(0x9E3779B97F4A7C15)
                };
                if t < STEPS {
                    for j in deps_of(i as usize) {
                        out.send(0, (t + 1, j as u32), Msg { origin: i, value });
                    }
                } else {
                    res[i as usize].store(value, Ordering::Relaxed);
                }
            })
    });
    // Block keymap over points (time-invariant, like Task-Bench MPI).
    let block = W.div_ceil(RANKS);
    dist::link_distributed(&tts, move |&(_t, i): &(u32, u32)| {
        ((i as usize) / block).min(RANKS - 1)
    });
    for i in 0..W as u32 {
        tts[0].invoke((0, i));
    }
    group.wait();
    let got: Vec<u64> = results.iter().map(|v| v.load(Ordering::Relaxed)).collect();
    assert_eq!(got, serial);
}

#[test]
fn single_rank_group_degenerates_to_local() {
    let group = NetGroup::local(1, |_| RuntimeConfig::optimized(2));
    let count = Arc::new(AtomicU64::new(0));
    let (_graphs, tts) = build_on_all(&group, |graph, _| {
        let edge: Edge<u64, u64> = Edge::new("e");
        let c = Arc::clone(&count);
        graph
            .tt::<u64>("t")
            .input_remote::<u64>(&edge)
            .build(move |_k, _i, _o| {
                c.fetch_add(1, Ordering::Relaxed);
            })
    });
    dist::link_distributed(&tts, |_k: &u64| 0);
    for k in 0..200u64 {
        tts[0].deliver(0, k, k);
    }
    group.wait();
    assert_eq!(count.load(Ordering::Relaxed), 200);
}
