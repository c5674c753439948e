//! Serial reference implementation (ground truth with the kernel).

use crate::impls::{BenchRunner, RunResult};
use crate::kernel::KernelScratch;
use crate::TaskGraph;
use std::time::Instant;

/// Single-threaded reference executor.
pub struct SerialRunner;

impl BenchRunner for SerialRunner {
    fn run(&mut self, graph: &TaskGraph) -> RunResult {
        let mut scratch = KernelScratch::default();
        let start = Instant::now();
        let mut prev: Vec<u64> = Vec::new();
        let mut cur: Vec<u64> = Vec::with_capacity(graph.width);
        for t in 0..graph.steps {
            cur.clear();
            for i in 0..graph.width {
                graph.kernel.execute(&mut scratch);
                cur.push(graph.task_value_from(t, i, |j| prev[j]));
            }
            std::mem::swap(&mut prev, &mut cur);
        }
        RunResult {
            elapsed_nanos: start.elapsed().as_nanos(),
            checksum: TaskGraph::checksum(&prev),
            tasks: graph.total_tasks(),
        }
    }

    fn name(&self) -> &'static str {
        "Serial"
    }

    fn threads(&self) -> usize {
        1
    }
}
