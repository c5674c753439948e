//! Task-Bench in TTG — the paper's Listing 1.
//!
//! The `Point` template task aggregates a per-key number of inputs
//! (`compute_num_inputs` ≙ the pattern's dependency count), orders them
//! by origin in the body (the aggregator guarantees no order), executes
//! the kernel, queries its successors, and broadcasts its output; the
//! final timestep feeds a `WriteBack` TT that stores the result row.
//! "each task has to query its predecessors twice and its successors
//! once" — exactly the calls made here.

use crate::impls::{BenchRunner, RunResult};
use crate::kernel::KernelScratch;
use crate::TaskGraph;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use ttg_core::{Edge, Graph};
use ttg_runtime::{Runtime, RuntimeConfig};

/// The datum flowing between `Point` tasks: its producing point and the
/// produced value.
#[derive(Debug, Clone, Copy)]
struct Msg {
    origin: u32,
    value: u64,
}

thread_local! {
    static SCRATCH: RefCell<KernelScratch> = RefCell::new(KernelScratch::default());
}

/// Reusable TTG runner: the runtime persists, the template graph is
/// rebuilt per run (graph construction is microseconds; the runtime —
/// threads, pools, queues — is the expensive part and is reused).
pub struct TtgRunner {
    runtime: Arc<Runtime>,
    threads: usize,
    optimized: bool,
}

impl TtgRunner {
    /// Creates a runner over the optimized or original runtime config.
    pub fn new(threads: usize, optimized: bool) -> Self {
        let config = if optimized {
            RuntimeConfig::optimized(threads)
        } else {
            RuntimeConfig::original(threads)
        };
        Self::with_config(threads, config)
    }

    /// Creates a runner over an arbitrary runtime configuration (used by
    /// the Figure 9 ablation, which toggles termdet/lock axes
    /// individually).
    pub fn with_config(threads: usize, config: RuntimeConfig) -> Self {
        let optimized = config.scheduler == ttg_runtime::SchedKind::Llp;
        TtgRunner {
            runtime: Arc::new(Runtime::new(config)),
            threads,
            optimized,
        }
    }
}

impl BenchRunner for TtgRunner {
    fn run(&mut self, g: &TaskGraph) -> RunResult {
        let graph = Graph::with_runtime(Arc::clone(&self.runtime));
        let point_edge: Edge<(u32, u32), Msg> = Edge::new("p2p");
        let wb_edge: Edge<u32, u64> = Edge::new("p2w");
        let results: Arc<Vec<AtomicU64>> =
            Arc::new((0..g.width).map(|_| AtomicU64::new(0)).collect());

        let spec = *g;
        let point = graph
            .tt::<(u32, u32)>("point")
            .input_aggregator_with(&point_edge, move |&(t, i): &(u32, u32)| {
                spec.num_dependencies(t as usize, i as usize)
            })
            .output(&point_edge)
            .output(&wb_edge)
            .build(move |&(t, i), inputs, out| {
                // Gather and order the aggregated inputs by origin
                // (Listing 1's sorted_insert).
                SCRATCH.with(|s| spec.kernel.execute(&mut s.borrow_mut()));
                let received = inputs.aggregate::<Msg>(0);
                let value = TaskGraph::with_sorted_inputs(
                    received.iter().map(|m| (m.origin as usize, m.value)),
                    |deps| spec.task_value(t as usize, i as usize, deps),
                );
                if t as usize + 1 == spec.steps {
                    // Final timestep: write back.
                    out.send(1, i, value);
                } else {
                    let succ = spec.reverse_dependencies(t as usize, i as usize);
                    // A dependence-free pattern (trivial) has no sends:
                    // those tasks are invoked directly by the seeder.
                    if !succ.is_empty() {
                        out.broadcast(
                            0,
                            succ.into_iter().map(|j| (t + 1, j as u32)),
                            Msg { origin: i, value },
                        );
                    }
                }
            });

        let res = Arc::clone(&results);
        let _writeback =
            graph
                .tt::<u32>("write-back")
                .input::<u64>(&wb_edge)
                .build(move |&i, inputs, _out| {
                    res[i as usize].store(*inputs.get::<u64>(0), Ordering::Relaxed);
                });

        let start = Instant::now();
        // Seed every task whose satisfaction goal is zero: the first
        // timestep always, and — for dependence-free patterns — every
        // task (nothing will ever flow to them).
        for i in 0..g.width as u32 {
            point.invoke((0, i));
        }
        if matches!(g.pattern, crate::Pattern::Trivial) {
            for t in 1..g.steps as u32 {
                for i in 0..g.width as u32 {
                    point.invoke((t, i));
                }
            }
        }
        graph.wait();
        let elapsed = start.elapsed();

        let row: Vec<u64> = results.iter().map(|v| v.load(Ordering::Relaxed)).collect();
        RunResult {
            elapsed_nanos: elapsed.as_nanos(),
            checksum: TaskGraph::checksum(&row),
            tasks: g.total_tasks(),
        }
    }

    fn name(&self) -> &'static str {
        if self.optimized {
            "TTG"
        } else {
            "TTG (original)"
        }
    }

    fn threads(&self) -> usize {
        self.threads
    }
}
