//! Task-Bench over MPI-style ranks.
//!
//! Points are block-distributed across ranks; per timestep, each rank
//! sends the values its remote dependents need (driven by the *forward*
//! dependence query) and receives the remote values it needs (driven by
//! the *backward* query), then computes its block. For `stencil_1d` this
//! degenerates to the classic halo exchange.

use crate::impls::{BenchRunner, RunResult};
use crate::kernel::KernelScratch;
use crate::TaskGraph;
use std::time::Instant;
use ttg_baselines::MpiWorld;

/// MPI-style runner: one rank-thread per "core".
pub struct MpiRunner {
    ranks: usize,
}

impl MpiRunner {
    /// Creates a runner with `ranks` rank-threads.
    pub fn new(ranks: usize) -> Self {
        MpiRunner {
            ranks: ranks.max(1),
        }
    }
}

/// Block owner of point `i` for `width` points on `ranks` ranks.
fn owner(i: usize, width: usize, ranks: usize) -> usize {
    let block = width.div_ceil(ranks);
    (i / block).min(ranks - 1)
}

fn my_range(rank: usize, width: usize, ranks: usize) -> (usize, usize) {
    let block = width.div_ceil(ranks);
    let lo = (rank * block).min(width);
    let hi = ((rank + 1) * block).min(width);
    if rank == ranks - 1 {
        (lo, width)
    } else {
        (lo, hi)
    }
}

impl BenchRunner for MpiRunner {
    fn run(&mut self, g: &TaskGraph) -> RunResult {
        let ranks = self.ranks.min(g.width.max(1));
        let spec = *g;
        let start = Instant::now();
        let blocks: Vec<Vec<u64>> = MpiWorld::run(ranks, move |mut comm| {
            let me = comm.rank();
            let width = spec.width;
            let (lo, hi) = my_range(me, width, ranks);
            let mut scratch = KernelScratch::default();
            let mut prev: Vec<u64> = Vec::new(); // full-width view of t-1
            let mut prev_local: Vec<u64> = Vec::new();
            for t in 0..spec.steps {
                if t > 0 {
                    // Send phase: forward query — which next-step points
                    // (on other ranks) consume my previous-step values?
                    for j in lo..hi {
                        for i in spec.reverse_dependencies(t - 1, j) {
                            let o = owner(i, width, ranks);
                            if o != me {
                                let tag = ((t * width + j) * width + i) as u64;
                                comm.send(o, tag, prev_local[j - lo].to_le_bytes().to_vec());
                            }
                        }
                    }
                    // Receive phase: backward query — which previous-step
                    // values do my points need from other ranks?
                    prev = vec![0u64; width];
                    prev[lo..hi].copy_from_slice(&prev_local);
                    // One message was sent per crossing (j → i) pair;
                    // receive each one (tags are unique per pair).
                    for i in lo..hi {
                        for j in spec.dependencies(t, i) {
                            let o = owner(j, width, ranks);
                            if o != me {
                                let tag = ((t * width + j) * width + i) as u64;
                                let bytes = comm.recv(o, tag);
                                prev[j] = u64::from_le_bytes(bytes[..8].try_into().unwrap());
                            }
                        }
                    }
                }
                // Compute my block.
                let mut cur_local = Vec::with_capacity(hi - lo);
                for i in lo..hi {
                    spec.kernel.execute(&mut scratch);
                    cur_local.push(spec.task_value_from(t, i, |j| prev[j]));
                }
                prev_local = cur_local;
            }
            prev_local
        });
        let elapsed = start.elapsed();
        let row: Vec<u64> = blocks.into_iter().flatten().collect();
        RunResult {
            elapsed_nanos: elapsed.as_nanos(),
            checksum: TaskGraph::checksum(&row),
            tasks: g.total_tasks(),
        }
    }

    fn name(&self) -> &'static str {
        "MPI"
    }

    fn threads(&self) -> usize {
        self.ranks
    }
}
