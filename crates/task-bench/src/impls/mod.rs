//! Task-Bench implementations, one per programming model.

pub mod mpi;
pub mod omp;
pub mod ptg;
pub mod serial;
pub mod ttg;
pub mod ttg_dist;

use crate::TaskGraph;
use std::time::Duration;

/// Outcome of one benchmark run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunResult {
    /// Wall-clock time of the timed section.
    pub elapsed_nanos: u128,
    /// Checksum of the final row (compare with
    /// [`TaskGraph::expected_final_row`] + [`TaskGraph::checksum`]).
    pub checksum: u64,
    /// Tasks executed.
    pub tasks: usize,
}

impl RunResult {
    /// Wall-clock duration.
    pub fn elapsed(&self) -> Duration {
        Duration::from_nanos(self.elapsed_nanos as u64)
    }

    /// Average core-time per task in seconds (the paper's Figures
    /// 7a/8a/10a metric: wall time × threads / tasks).
    pub fn core_time_per_task(&self, threads: usize) -> f64 {
        (self.elapsed_nanos as f64 * threads as f64) / (self.tasks.max(1) as f64) * 1e-9
    }
}

/// A reusable benchmark runner (keeps its pool/runtime across runs so
/// startup cost is excluded, as in the upstream harness).
pub trait BenchRunner {
    /// Executes one full task graph and returns timing + checksum.
    fn run(&mut self, graph: &TaskGraph) -> RunResult;
    /// Display name matching the paper's figure legends.
    fn name(&self) -> &'static str;
    /// Worker threads in use.
    fn threads(&self) -> usize;
}

/// The implementations compared in the paper's figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Implementation {
    /// Serial reference (ground truth + single-core baseline).
    Serial,
    /// TTG with aggregator terminals (Listing 1), optimized runtime.
    Ttg {
        /// Use the paper's optimized runtime config (LLP, thread-local
        /// termdet, BRAVO) or the original one.
        optimized: bool,
    },
    /// OpenMP-style worksharing loops ("OpenMP Parallel For").
    OmpFor,
    /// OpenMP-style tasks with dependencies.
    OmpTask,
    /// MPI-style rank-per-thread message passing.
    Mpi,
    /// PaRSEC-PTG-style parameterized graph.
    Ptg {
        /// Optimized vs original runtime config.
        optimized: bool,
    },
    /// TTG across the ranks of an in-process job (one rank per "core",
    /// block-distributed points; sends cross ranks as serialized active
    /// messages).
    TtgDist,
}

impl Implementation {
    /// All variants the Figure 7/8 harness sweeps.
    pub fn all() -> Vec<Implementation> {
        vec![
            Implementation::Serial,
            Implementation::Ttg { optimized: true },
            Implementation::Ttg { optimized: false },
            Implementation::OmpFor,
            Implementation::OmpTask,
            Implementation::Mpi,
            Implementation::Ptg { optimized: true },
            Implementation::Ptg { optimized: false },
            Implementation::TtgDist,
        ]
    }

    /// Builds a reusable runner with `threads` workers.
    pub fn build(&self, threads: usize) -> Box<dyn BenchRunner> {
        match self {
            Implementation::Serial => Box::new(serial::SerialRunner),
            Implementation::Ttg { optimized } => Box::new(ttg::TtgRunner::new(threads, *optimized)),
            Implementation::OmpFor => Box::new(omp::OmpForRunner::new(threads)),
            Implementation::OmpTask => Box::new(omp::OmpTaskRunner::new(threads)),
            Implementation::Mpi => Box::new(mpi::MpiRunner::new(threads)),
            Implementation::Ptg { optimized } => Box::new(ptg::PtgRunner::new(threads, *optimized)),
            Implementation::TtgDist => Box::new(ttg_dist::TtgDistRunner::new(threads)),
        }
    }
}
