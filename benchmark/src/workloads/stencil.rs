//! `stencil` — Task-Bench's 1D stencil through the library's own TTG
//! runner (`Implementation::Ttg { optimized: true }`), plus a 2-worker
//! pass of the same graph that reports scheduler counts only.

use super::Workload;
use crate::inputs::{Size, StencilInput};
use crate::spans::{SpanId, Tracer};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use ttg_core::{Edge, Graph};
use ttg_runtime::{Runtime, RuntimeConfig, RuntimeStats};
use ttg_task_bench::impls::BenchRunner;
use ttg_task_bench::kernel::KernelScratch;
use ttg_task_bench::{Implementation, Kernel, Pattern, RunResult, TaskGraph};

pub struct Stencil {
    graph: TaskGraph,
    runner: Box<dyn BenchRunner>,
    /// Checksum of `TaskGraph::expected_final_row`, the serial truth.
    expected: u64,
    last: Option<RunResult>,
}

fn task_graph(input: &StencilInput) -> TaskGraph {
    TaskGraph::new(
        input.steps,
        input.width,
        Pattern::Stencil1D,
        Kernel::Compute { flops: input.flops },
    )
}

/// Failed operations of one run: all of its tasks unless every task ran
/// and the final row matches the serial ground truth.
pub fn check_stencil(graph: &TaskGraph, expected: u64, result: &RunResult) -> u64 {
    if result.tasks == graph.total_tasks() && result.checksum == expected {
        0
    } else {
        graph.total_tasks() as u64
    }
}

impl Stencil {
    pub fn new(seed: u64, size: Size) -> Self {
        let graph = task_graph(&StencilInput::generate(seed, size));
        Stencil {
            graph,
            runner: Implementation::Ttg { optimized: true }.build(1),
            expected: TaskGraph::checksum(&graph.expected_final_row()),
            last: None,
        }
    }
}

impl Workload for Stencil {
    fn rep(&mut self, tr: &mut Tracer, rep: u64) -> u64 {
        let root = tr.begin("rep", SpanId::NONE, rep);
        let result = tr.span("run", root, rep, || self.runner.run(&self.graph));
        tr.end(root);
        self.last = Some(result);
        self.graph.total_tasks() as u64
    }

    fn check(&mut self) -> u64 {
        match &self.last {
            Some(r) => check_stencil(&self.graph, self.expected, r),
            None => self.graph.total_tasks() as u64,
        }
    }

    fn spans_per_rep(&self) -> usize {
        2
    }

    fn extras(&mut self) -> Vec<(&'static str, f64)> {
        // The plain single-threaded baseline on the same graph.
        let serial = Implementation::Serial.build(1).run(&self.graph);
        vec![(
            "serial_task_ns",
            serial.elapsed_nanos as f64 / serial.tasks.max(1) as f64,
        )]
    }
}

/// The datum between `point` tasks, as in the library's runner.
#[derive(Clone, Copy)]
struct Msg {
    origin: u32,
    value: u64,
}

thread_local! {
    static SCRATCH: RefCell<KernelScratch> = RefCell::new(KernelScratch::default());
}

/// Runs the seed's stencil once on a runtime with `workers` workers
/// that this function owns, and returns that runtime's statistics and
/// whether the result was correct. The library's runner keeps its
/// runtime private, so the graph is built here the way
/// `ttg_task_bench::impls::ttg` builds it. With two workers the
/// wall-clock time does not repeat on the reference host; only the
/// scheduler counts are used.
pub fn stencil_stats(seed: u64, size: Size, workers: usize) -> (RuntimeStats, u64, bool) {
    let spec = task_graph(&StencilInput::generate(seed, size));
    let runtime = Arc::new(Runtime::new(RuntimeConfig::optimized(workers)));
    let results: Arc<Vec<AtomicU64>> =
        Arc::new((0..spec.width).map(|_| AtomicU64::new(0)).collect());
    {
        let graph = Graph::with_runtime(Arc::clone(&runtime));
        let point_edge: Edge<(u32, u32), Msg> = Edge::new("p2p");
        let wb_edge: Edge<u32, u64> = Edge::new("p2w");
        let point = graph
            .tt::<(u32, u32)>("point")
            .input_aggregator_with(&point_edge, move |&(t, i): &(u32, u32)| {
                spec.dependencies(t as usize, i as usize).len()
            })
            .output(&point_edge)
            .output(&wb_edge)
            .build(move |&(t, i), inputs, out| {
                let mut deps: Vec<(usize, u64)> = inputs
                    .aggregate::<Msg>(0)
                    .iter()
                    .map(|m| (m.origin as usize, m.value))
                    .collect();
                deps.sort_unstable_by_key(|&(o, _)| o);
                SCRATCH.with(|s| spec.kernel.execute(&mut s.borrow_mut()));
                let value = spec.task_value(t as usize, i as usize, &deps);
                if t as usize + 1 == spec.steps {
                    out.send(1, i, value);
                } else {
                    let succ = spec.reverse_dependencies(t as usize, i as usize);
                    out.broadcast(
                        0,
                        succ.into_iter().map(|j| (t + 1, j as u32)),
                        Msg { origin: i, value },
                    );
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
        for i in 0..spec.width as u32 {
            point.invoke((0, i));
        }
        graph.wait();
    }
    let row: Vec<u64> = results.iter().map(|v| v.load(Ordering::Relaxed)).collect();
    let correct = TaskGraph::checksum(&row) == TaskGraph::checksum(&spec.expected_final_row());
    (runtime.stats(), spec.total_tasks() as u64, correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_rejects_a_wrong_checksum_and_a_short_run() {
        let mut s = Stencil::new(5, Size::Quick);
        s.rep(&mut Tracer::disabled(), 0);
        assert_eq!(s.check(), 0);
        let good = s.last.expect("ran");
        let tasks = s.graph.total_tasks() as u64;
        let flipped = RunResult {
            checksum: good.checksum ^ 1,
            ..good
        };
        assert_eq!(check_stencil(&s.graph, s.expected, &flipped), tasks);
        let short = RunResult {
            tasks: good.tasks - 1,
            ..good
        };
        assert_eq!(check_stencil(&s.graph, s.expected, &short), tasks);
    }

    #[test]
    fn two_worker_pass_is_correct_and_counts_every_task() {
        let (stats, tasks, correct) = stencil_stats(5, Size::Quick, 2);
        assert!(correct);
        // Every point task plus one write-back per column.
        assert_eq!(stats.tasks_executed, tasks + 64);
    }
}
