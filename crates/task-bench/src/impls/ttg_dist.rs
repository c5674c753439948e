//! Task-Bench in distributed TTG: the same Listing-1 structure as
//! [`crate::impls::ttg`], but built SPMD-style on every rank of an
//! in-process job ([`NetGroup::local`]) and keymapped by point (block
//! distribution, like the MPI implementation) — demonstrating the
//! paper's claim that TTG programs "seamlessly scale from shared memory
//! to distributed execution": the task bodies are unchanged; only the
//! keymap and the remote-capable terminal declarations differ.

use crate::impls::{BenchRunner, RunResult};
use crate::kernel::KernelScratch;
use crate::TaskGraph;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use ttg_core::{dist, Edge, Graph, Tt};
use ttg_net::NetGroup;
use ttg_runtime::RuntimeConfig;

/// The datum flowing between Point tasks (serialized across ranks).
#[derive(Debug, Clone, Copy, serde::Serialize, serde::Deserialize)]
struct Msg {
    origin: u32,
    value: u64,
}

thread_local! {
    static SCRATCH: RefCell<KernelScratch> = RefCell::new(KernelScratch::default());
}

/// Distributed-TTG runner: `ranks` in-process ranks with one worker
/// each; points are block-distributed across ranks.
pub struct TtgDistRunner {
    group: NetGroup,
}

impl TtgDistRunner {
    /// Creates a runner with `ranks` single-worker ranks.
    pub fn new(ranks: usize) -> Self {
        TtgDistRunner {
            group: NetGroup::local(ranks, |_| RuntimeConfig::optimized(1)),
        }
    }
}

impl BenchRunner for TtgDistRunner {
    fn run(&mut self, g: &TaskGraph) -> RunResult {
        // Points go to the first `ranks` ranks; the graph is built and
        // linked on every rank, as SPMD linking requires.
        let ranks = self.group.nranks().min(g.width.max(1));
        let spec = *g;
        let results: Arc<Vec<AtomicU64>> =
            Arc::new((0..g.width).map(|_| AtomicU64::new(0)).collect());

        // Build the identical graph on every rank.
        let mut graphs = Vec::new();
        let mut points: Vec<Tt<(u32, u32)>> = Vec::new();
        let mut writebacks: Vec<Tt<u32>> = Vec::new();
        for rank in 0..self.group.nranks() {
            let graph = Graph::with_runtime(self.group.runtime_arc(rank));
            let point_edge: Edge<(u32, u32), Msg> = Edge::new("p2p");
            let wb_edge: Edge<u32, u64> = Edge::new("p2w");
            let point = graph
                .tt::<(u32, u32)>("point")
                .input_aggregator_remote::<Msg>(
                    &point_edge,
                    ttg_core::AggCount::PerKey(Arc::new(move |&(t, i): &(u32, u32)| {
                        spec.num_dependencies(t as usize, i as usize)
                    })),
                )
                .output(&point_edge)
                .output(&wb_edge)
                .build(move |&(t, i), inputs, out| {
                    SCRATCH.with(|s| spec.kernel.execute(&mut s.borrow_mut()));
                    let received = inputs.aggregate::<Msg>(0);
                    let value = TaskGraph::with_sorted_inputs(
                        received.iter().map(|m| (m.origin as usize, m.value)),
                        |deps| spec.task_value(t as usize, i as usize, deps),
                    );
                    if t as usize + 1 == spec.steps {
                        out.send(1, i, value);
                    } else {
                        let succ = spec.reverse_dependencies(t as usize, i as usize);
                        if !succ.is_empty() {
                            out.broadcast(
                                0,
                                succ.into_iter().map(|j| (t + 1, j as u32)),
                                Msg { origin: i, value },
                            );
                        }
                    }
                });
            let res2 = Arc::clone(&results);
            let wb = graph
                .tt::<u32>("write-back")
                .input_remote::<u64>(&wb_edge)
                .build(move |&i, inputs, _out| {
                    res2[i as usize].store(*inputs.get::<u64>(0), Ordering::Relaxed);
                });
            graphs.push(graph);
            points.push(point);
            writebacks.push(wb);
        }
        // Block keymap over points (time-invariant), as in the MPI impl.
        let width = g.width;
        let block = width.div_ceil(ranks);
        dist::link_distributed(&points, move |&(_t, i): &(u32, u32)| {
            ((i as usize) / block).min(ranks - 1)
        });
        dist::link_distributed(&writebacks, move |&i: &u32| {
            ((i as usize) / block).min(ranks - 1)
        });

        let start = Instant::now();
        for i in 0..g.width as u32 {
            points[0].invoke((0, i)); // routed to the owning rank
        }
        if matches!(g.pattern, crate::Pattern::Trivial) {
            for t in 1..g.steps as u32 {
                for i in 0..g.width as u32 {
                    points[0].invoke((t, i));
                }
            }
        }
        self.group.wait();
        let elapsed = start.elapsed();

        let row: Vec<u64> = results.iter().map(|v| v.load(Ordering::Relaxed)).collect();
        RunResult {
            elapsed_nanos: elapsed.as_nanos(),
            checksum: TaskGraph::checksum(&row),
            tasks: g.total_tasks(),
        }
    }

    fn name(&self) -> &'static str {
        "TTG (distributed)"
    }

    fn threads(&self) -> usize {
        self.group.nranks()
    }
}
