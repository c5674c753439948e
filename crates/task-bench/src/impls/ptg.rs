//! Task-Bench in PaRSEC-PTG style.
//!
//! A Parameterized Task Graph knows every task's dependencies *a priori*
//! from algebraic expressions over the iteration space (Danalis et al.).
//! There is no hash table and no dynamic discovery: dependence counters
//! are dense arrays indexed by (step, point); a completing task
//! decrements its successors' counters and spawns the ones that reach
//! zero. The runtime underneath is the same engine TTG uses, so the
//! `optimized` flag reproduces both `PaRSEC PTG (orig)` and
//! `PaRSEC PTG (optimized)` series of Figures 7/8 — the paper notes
//! "the optimizations presented in this work have shown to benefit not
//! only TTG but also PaRSEC PTG".

use crate::impls::{BenchRunner, RunResult};
use crate::kernel::KernelScratch;
use crate::TaskGraph;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;
use ttg_runtime::{Runtime, RuntimeConfig, WorkerCtx};

thread_local! {
    static SCRATCH: RefCell<KernelScratch> = RefCell::new(KernelScratch::default());
}

/// Dense PTG state for one run.
struct PtgState {
    spec: TaskGraph,
    /// Remaining unsatisfied dependencies per (step, point).
    counts: Vec<Vec<AtomicUsize>>,
    /// Produced values per (step, point).
    values: Vec<Vec<AtomicU64>>,
}

impl PtgState {
    fn new(spec: TaskGraph) -> Self {
        let counts = (0..spec.steps)
            .map(|t| {
                (0..spec.width)
                    .map(|i| AtomicUsize::new(spec.dependencies(t, i).len().max(1)))
                    .collect()
            })
            .collect();
        let values = (0..spec.steps)
            .map(|_| (0..spec.width).map(|_| AtomicU64::new(0)).collect())
            .collect();
        PtgState {
            spec,
            counts,
            values,
        }
    }

    /// Executes task (t, i) and releases its successors.
    fn execute(self: &Arc<Self>, ctx: &mut WorkerCtx<'_>, t: usize, i: usize) {
        SCRATCH.with(|s| self.spec.kernel.execute(&mut s.borrow_mut()));
        let value = self
            .spec
            .task_value_from(t, i, |j| self.values[t - 1][j].load(Ordering::Acquire));
        self.values[t][i].store(value, Ordering::Release);
        if t + 1 < self.spec.steps {
            for j in self.spec.reverse_dependencies(t, i) {
                if self.counts[t + 1][j].fetch_sub(1, Ordering::AcqRel) == 1 {
                    let st = Arc::clone(self);
                    ctx.spawn(0, move |ctx| st.execute(ctx, t + 1, j));
                }
            }
        }
    }
}

/// Reusable PTG runner (runtime persists across runs).
pub struct PtgRunner {
    runtime: Runtime,
    threads: usize,
    optimized: bool,
}

impl PtgRunner {
    /// Creates a runner over the optimized or original runtime config.
    pub fn new(threads: usize, optimized: bool) -> Self {
        let config = if optimized {
            RuntimeConfig::optimized(threads)
        } else {
            RuntimeConfig::original(threads)
        };
        PtgRunner {
            runtime: Runtime::new(config),
            threads,
            optimized,
        }
    }
}

impl BenchRunner for PtgRunner {
    fn run(&mut self, g: &TaskGraph) -> RunResult {
        let state = Arc::new(PtgState::new(*g));
        let start = Instant::now();
        // Seed every zero-dependency task (step 0 always; every task of
        // a dependence-free pattern).
        for t in 0..g.steps {
            for i in 0..g.width {
                if g.dependencies(t, i).is_empty() {
                    let st = Arc::clone(&state);
                    self.runtime.submit(0, move |ctx| st.execute(ctx, t, i));
                }
            }
            if !matches!(g.pattern, crate::Pattern::Trivial) {
                break; // only step 0 is dependence-free
            }
        }
        self.runtime.wait();
        let elapsed = start.elapsed();
        let row: Vec<u64> = state.values[g.steps - 1]
            .iter()
            .map(|v| v.load(Ordering::Relaxed))
            .collect();
        RunResult {
            elapsed_nanos: elapsed.as_nanos(),
            checksum: TaskGraph::checksum(&row),
            tasks: g.total_tasks(),
        }
    }

    fn name(&self) -> &'static str {
        if self.optimized {
            "PaRSEC PTG (optimized)"
        } else {
            "PaRSEC PTG (orig)"
        }
    }

    fn threads(&self) -> usize {
        self.threads
    }
}
