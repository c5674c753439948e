//! The six workloads. Each is a closed loop driven by one generator
//! thread against runtimes with one worker per rank, because on the
//! 2-core reference host anything that depends on two workers waking
//! each other does not repeat from run to run (see README.md).

pub mod chain;
pub mod mra;
pub mod net;
pub mod serve;
pub mod stencil;

use crate::inputs::Size;
use crate::spans::Tracer;

/// One workload, set up and ready to repeat.
pub trait Workload {
    /// One repetition — the timed region. `rep` numbers the repetition
    /// and is the request id of its spans. Returns operations attempted.
    fn rep(&mut self, tr: &mut Tracer, rep: u64) -> u64;

    /// Checks the output of the last repetition, outside the timed
    /// region. Returns how many of its operations failed.
    fn check(&mut self) -> u64;

    /// Spans one repetition records, so the tracer can reserve them.
    fn spans_per_rep(&self) -> usize;

    /// Measurements only this workload can take, made after the
    /// repetitions of a traced run.
    fn extras(&mut self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}

/// Name, unit of one operation, and why the workload exists.
pub struct WorkloadInfo {
    pub name: &'static str,
    pub op: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadInfo; 6] = [
    WorkloadInfo {
        name: "chain",
        op: "task",
        why: "fig5 serial chain, 1 flow, moved datum, 1 worker: the minimum task path \
              (runtime+sched+termdet+mempool); bypasses hashtable/sync and all above core",
    },
    WorkloadInfo {
        name: "stencil",
        op: "task",
        why: "Task-Bench 1D stencil, width 64, 100 flops/task, 1 worker: small 3-input tasks, so \
              hashtable bucket transactions under BRAVO and a 64-deep ready queue dominate",
    },
    WorkloadInfo {
        name: "mra",
        op: "box",
        why: "MRA of seeded Gaussians, ~3000 boxes (k=6, eps=1e-5), 1 worker: kernel-bound \
              (~80 us/box), so runtime-overhead work must predict no change here",
    },
    WorkloadInfo {
        name: "serve",
        op: "graph",
        why: "ServeEngine, 1 worker, one client with 8 submits in flight, 2 tenants, graphs of \
              8/32/128 tasks: template instantiate, dispatch and per-instance termination dominate",
    },
    WorkloadInfo {
        name: "burst",
        op: "msg",
        why: "2-rank TCP loopback, both ranks scatter 8-1024 B messages at each other in fenced \
              epochs of ~14000: per-message software cost of net, where batching should show",
    },
    WorkloadInfo {
        name: "bulk",
        op: "msg",
        why: "same mesh, 64 KiB ping-pong, one message in flight, payload verified: per-byte \
              copy/alloc/syscall cost of net; guards burst gains against added per-message delay",
    },
];

pub fn info(name: &str) -> Option<&'static WorkloadInfo> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Sets a workload up from its seed: runtimes, meshes, templates,
/// generated inputs and reference results. `None` for an unknown name.
pub fn build(name: &str, seed: u64, size: Size) -> Option<Box<dyn Workload>> {
    Some(match name {
        "chain" => Box::new(chain::Chain::new(seed, size)),
        "stencil" => Box::new(stencil::Stencil::new(seed, size)),
        "mra" => Box::new(mra::Mra::new(seed, size)),
        "serve" => Box::new(serve::Serve::new(seed, size)),
        "burst" => Box::new(net::Burst::new(seed, size)),
        "bulk" => Box::new(net::Bulk::new(seed, size)),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_runs_one_quick_repetition_without_failures() {
        for w in &WORKLOADS {
            let mut wl = build(w.name, 11, Size::Quick).expect("known workload");
            let mut tr = Tracer::with_capacity(wl.spans_per_rep() + 8);
            let ops = wl.rep(&mut tr, 0);
            assert!(ops > 0, "{}", w.name);
            assert_eq!(wl.check(), 0, "{}", w.name);
            assert!(tr.spans().len() <= wl.spans_per_rep(), "{}", w.name);
            assert!(!tr.spans().is_empty(), "{}", w.name);
            assert!(w.why.len() <= 200, "{}", w.name);
        }
        assert!(build("nope", 1, Size::Quick).is_none());
    }
}
