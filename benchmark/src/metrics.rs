//! The metric tables: every name the benchmark reports, with its unit,
//! direction and — for layer metrics — the end-to-end metric and
//! workload it is expected to move. `BENCHMARK.json` repeats the names,
//! units, directions and bounds; a test keeps the two in step.

use crate::stats::Better;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// Reported by every workload on every `--trace 0` run.
pub const END_TO_END: [EndToEnd; 3] = [
    // Operations per second, the operation being the workload's own:
    // task (chain, stencil), box (mra), graph (serve), message (burst,
    // bulk). Median over all timed repetitions of the run.
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.10,
    },
    // Process start to start of the first timed repetition: runtime,
    // mesh, template and context construction, input generation,
    // reference results and the warm-up repetition.
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    // VmHWM of the workload's process when it ends. How much of its
    // pools and socket buffers a process touches varies by 3-4 % from
    // seed to seed on `mra` and `bulk`, hence the wider bound.
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.15,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric and workload this should move; every other
    /// pairing is predicted unchanged.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

/// Reported on every `--trace 1` run. Never gated.
#[rustfmt::skip]
pub const PER_LAYER: [PerLayer; 49] = [
    layer("sync.spin_lock_ns", "ns", Lower, "ops_per_s on stencil"),
    layer("sync.rwspin_read_ns", "ns", Lower, "ops_per_s on stencil"),
    layer("sync.bravo_read_ns", "ns", Lower, "ops_per_s on stencil"),
    layer("hashtable.bucket_txn_ns", "ns", Lower, "ops_per_s on stencil"),
    layer("sched.push_pop_ns", "ns", Lower, "ops_per_s on chain"),
    layer("sched.push_pop_64deep_ns", "ns", Lower, "ops_per_s on stencil"),
    layer("mempool.alloc_free_ns", "ns", Lower, "ops_per_s on chain and stencil"),
    layer("termdet.account_ns", "ns", Lower, "ops_per_s on chain and stencil"),
    layer("runtime.task_ns", "ns", Lower, "ops_per_s on chain"),
    layer("runtime.allocs_per_task", "count", Lower, "ops_per_s on chain"),
    layer("runtime.wait_idle_us", "us", Lower, "ops_per_s on chain and serve"),
    layer("core.task_ns_1flow", "ns", Lower, "ops_per_s on chain"),
    layer("core.ns_per_extra_flow", "ns", Lower, "ops_per_s on stencil"),
    layer("core.instantiate_us", "us", Lower, "ops_per_s on serve"),
    layer("serve.submit_us", "us", Lower, "ops_per_s on serve"),
    layer("serve.wait_us", "us", Lower, "ops_per_s on serve"),
    layer("serve.graph_p50_us", "us", Lower, "ops_per_s on serve"),
    layer("serve.graph_p99_us", "us", Lower, "ops_per_s on serve"),
    layer("serve.allocs_per_graph", "count", Lower, "ops_per_s on serve"),
    layer("serve.unexplained_us_per_graph", "us", Lower, "ops_per_s on serve"),
    layer("net.encode_256B_ns", "ns", Lower, "ops_per_s on burst"),
    layer("net.decode_256B_ns", "ns", Lower, "ops_per_s on burst"),
    layer("net.send_call_ns", "ns", Lower, "ops_per_s on burst"),
    layer("net.write_syscalls_per_msg", "count", Lower, "ops_per_s on burst"),
    layer("net.read_syscalls_per_msg", "count", Lower, "ops_per_s on burst"),
    layer("net.allocs_per_msg", "count", Lower, "ops_per_s on burst"),
    layer("net.encode_64KiB_ns", "ns", Lower, "ops_per_s on bulk"),
    layer("net.decode_64KiB_ns", "ns", Lower, "ops_per_s on bulk"),
    layer("net.send_call_64KiB_ns", "ns", Lower, "ops_per_s on bulk"),
    layer("net.write_syscalls_per_64KiB_msg", "count", Lower, "ops_per_s on bulk"),
    layer("net.read_syscalls_per_64KiB_msg", "count", Lower, "ops_per_s on bulk"),
    layer("net.allocs_per_64KiB_msg", "count", Lower, "ops_per_s on bulk"),
    layer("net.bytes_copied_per_byte", "B/B", Lower, "ops_per_s on bulk"),
    layer("net.oneway_8B_us", "us", Lower, "none: informational, bimodal on this host"),
    layer("kernel.send_256B_ns", "ns", Lower, "none: the kernel's share of a message"),
    layer("kernel.recv_256B_ns", "ns", Lower, "none: the kernel's share of a message"),
    layer("obs.trace_on_ratio", "ratio", Higher, "none: the cost of observing"),
    layer("stencil.serial_task_ns", "ns", Lower, "none: the plain serial baseline"),
    layer("sched.steals_per_ktask", "1/ktask", Lower, "none: 2-worker stencil, count only"),
    layer("sched.parks", "count", Lower, "none: 2-worker stencil, count only"),
    layer("sched.slow_pushes", "count", Lower, "none: 2-worker stencil, count only"),
    layer("trace_overhead_ratio.chain", "ratio", Higher, "none: cost of the benchmark's spans"),
    layer("trace_overhead_ratio.stencil", "ratio", Higher, "none: cost of the benchmark's spans"),
    layer("trace_overhead_ratio.mra", "ratio", Higher, "none: cost of the benchmark's spans"),
    layer("trace_overhead_ratio.serve", "ratio", Higher, "none: cost of the benchmark's spans"),
    layer("trace_overhead_ratio.burst", "ratio", Higher, "none: cost of the benchmark's spans"),
    layer("trace_overhead_ratio.bulk", "ratio", Higher, "none: cost of the benchmark's spans"),
    layer("ladder.task_unexplained_ns", "ns", Lower, "ops_per_s on chain"),
    layer("ladder.message_unexplained_ns", "ns", Lower, "ops_per_s on burst"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
            .chain(crate::workloads::WORKLOADS.iter().map(|w| (w.name, "x")))
        {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{unit}");
            assert!(seen.insert(name), "{name} used twice");
        }
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
    }

    /// `BENCHMARK.json` at the repository root must describe exactly
    /// these tables and the workload list.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let text = include_str!("../../BENCHMARK.json");
        let doc: Value = serde_json::from_str(text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc
            .as_object()
            .expect("an object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let list = |key: &str| doc[key].as_array().expect("a list").clone();
        let text_of = |v: &Value, key: &str| v[key].as_str().expect("a string").to_string();

        let workloads = list("workloads");
        assert_eq!(workloads.len(), crate::workloads::WORKLOADS.len());
        for (got, want) in workloads.iter().zip(&crate::workloads::WORKLOADS) {
            assert_eq!(text_of(got, "name"), want.name);
            let why: String = want.why.split_whitespace().collect::<Vec<_>>().join(" ");
            assert_eq!(text_of(got, "why"), why);
        }
        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (got, want) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(text_of(got, "name"), want.name);
            assert_eq!(text_of(got, "unit"), want.unit);
            assert_eq!(text_of(got, "better"), want.better.as_str());
            assert_eq!(got["bound"].as_f64(), Some(want.bound));
        }
        let layers = list("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (got, want) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(text_of(got, "name"), want.name);
            assert_eq!(text_of(got, "unit"), want.unit);
            assert_eq!(text_of(got, "better"), want.better.as_str());
        }
    }
}
