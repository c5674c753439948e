//! Task-Bench over the OpenMP-style baselines.

use crate::impls::{BenchRunner, RunResult};
use crate::kernel::KernelScratch;
use crate::TaskGraph;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use ttg_baselines::omptask::DepVar;
use ttg_baselines::{OmpPool, OmpTaskRuntime};

thread_local! {
    static SCRATCH: RefCell<KernelScratch> = RefCell::new(KernelScratch::default());
}

/// Worksharing-loops implementation: one `parallel for` over the width
/// per timestep, with the region barrier standing in for the
/// dependence pattern (a superset of any per-point dependence —
/// bulk-synchronous, like the paper's "MPI+OpenMP worksharing" variant
/// in shared memory).
pub struct OmpForRunner {
    pool: OmpPool,
}

impl OmpForRunner {
    /// Creates a persistent team of `threads`.
    pub fn new(threads: usize) -> Self {
        OmpForRunner {
            pool: OmpPool::new(threads),
        }
    }
}

impl BenchRunner for OmpForRunner {
    fn run(&mut self, g: &TaskGraph) -> RunResult {
        let width = g.width;
        let prev: Vec<AtomicU64> = (0..width).map(|_| AtomicU64::new(0)).collect();
        let cur: Vec<AtomicU64> = (0..width).map(|_| AtomicU64::new(0)).collect();
        let start = Instant::now();
        let mut flip = false;
        for t in 0..g.steps {
            let (src, dst) = if flip { (&cur, &prev) } else { (&prev, &cur) };
            self.pool.parallel_for_each(0, width, |i| {
                SCRATCH.with(|s| g.kernel.execute(&mut s.borrow_mut()));
                let value = g.task_value_from(t, i, |j| src[j].load(Ordering::Relaxed));
                dst[i].store(value, Ordering::Relaxed);
            });
            flip = !flip;
        }
        let finals = if flip { &cur } else { &prev };
        let row: Vec<u64> = finals.iter().map(|v| v.load(Ordering::Relaxed)).collect();
        RunResult {
            elapsed_nanos: start.elapsed().as_nanos(),
            checksum: TaskGraph::checksum(&row),
            tasks: g.total_tasks(),
        }
    }

    fn name(&self) -> &'static str {
        "OpenMP Parallel For"
    }

    fn threads(&self) -> usize {
        self.pool.nthreads()
    }
}

/// Explicit-tasks implementation: one task per (t, i) with
/// `depend(in: deps)` / `depend(out: i)` clauses — the backward-looking
/// model of Section V-D.
pub struct OmpTaskRunner {
    rt: OmpTaskRuntime,
    threads: usize,
}

impl OmpTaskRunner {
    /// Creates a persistent task runtime.
    pub fn new(threads: usize) -> Self {
        OmpTaskRunner {
            rt: OmpTaskRuntime::new(threads),
            threads,
        }
    }
}

impl BenchRunner for OmpTaskRunner {
    fn run(&mut self, g: &TaskGraph) -> RunResult {
        let width = g.width;
        // Full (steps × width) value store: tasks of different steps
        // overlap, so rows cannot be flipped.
        let values: Arc<Vec<Vec<AtomicU64>>> = Arc::new(
            (0..g.steps)
                .map(|_| (0..width).map(|_| AtomicU64::new(0)).collect())
                .collect(),
        );
        let spec = *g;
        let start = Instant::now();
        for t in 0..g.steps {
            for i in 0..width {
                let ins: Vec<DepVar> = g.dependencies(t, i).into_iter().map(DepVar).collect();
                let vals = Arc::clone(&values);
                self.rt.task(&ins, &[DepVar(i)], move || {
                    SCRATCH.with(|s| spec.kernel.execute(&mut s.borrow_mut()));
                    let value =
                        spec.task_value_from(t, i, |j| vals[t - 1][j].load(Ordering::Acquire));
                    vals[t][i].store(value, Ordering::Release);
                });
            }
        }
        self.rt.taskwait();
        let row: Vec<u64> = values[g.steps - 1]
            .iter()
            .map(|v| v.load(Ordering::Relaxed))
            .collect();
        RunResult {
            elapsed_nanos: start.elapsed().as_nanos(),
            checksum: TaskGraph::checksum(&row),
            tasks: g.total_tasks(),
        }
    }

    fn name(&self) -> &'static str {
        "OpenMP Tasks"
    }

    fn threads(&self) -> usize {
        self.threads
    }
}
