//! Cross-validation: every implementation must produce the serial
//! ground-truth checksum for every dependence pattern, at several widths
//! and thread counts. This is the Task-Bench "validation" mode.

use ttg_task_bench::{Implementation, Kernel, Pattern, TaskGraph};

fn check(imp: Implementation, threads: usize, steps: usize, width: usize) {
    let mut runner = imp.build(threads);
    for pattern in Pattern::all(width) {
        let graph = TaskGraph::new(steps, width, pattern, Kernel::Empty);
        let expected = TaskGraph::checksum(&graph.expected_final_row());
        let result = runner.run(&graph);
        assert_eq!(
            result.checksum,
            expected,
            "{} produced a wrong answer for {} ({steps}x{width}, {threads} threads)",
            runner.name(),
            pattern.name()
        );
        assert_eq!(result.tasks, steps * width);
    }
}

#[test]
fn serial_matches_itself() {
    check(Implementation::Serial, 1, 20, 10);
}

#[test]
fn ttg_optimized_validates() {
    check(Implementation::Ttg { optimized: true }, 2, 20, 10);
}

#[test]
fn ttg_original_validates() {
    check(Implementation::Ttg { optimized: false }, 2, 20, 10);
}

#[test]
fn omp_for_validates() {
    check(Implementation::OmpFor, 3, 20, 10);
}

#[test]
fn omp_task_validates() {
    check(Implementation::OmpTask, 3, 20, 10);
}

#[test]
fn mpi_validates() {
    check(Implementation::Mpi, 3, 20, 10);
}

#[test]
fn ptg_both_variants_validate() {
    check(Implementation::Ptg { optimized: true }, 2, 20, 10);
    check(Implementation::Ptg { optimized: false }, 2, 20, 10);
}

#[test]
fn single_thread_all_implementations() {
    for imp in Implementation::all() {
        check(imp, 1, 10, 6);
    }
}

#[test]
fn wider_than_threads_and_narrower_than_threads() {
    for imp in [
        Implementation::Ttg { optimized: true },
        Implementation::Mpi,
        Implementation::OmpFor,
        Implementation::Ptg { optimized: true },
    ] {
        check(imp, 4, 12, 2); // fewer points than threads
        check(imp, 2, 12, 33); // many more points than threads
    }
}

#[test]
fn longer_run_with_kernel_still_validates() {
    // A busy kernel must not perturb results (checks thread-local
    // scratch isolation).
    let graph = TaskGraph::new(50, 8, Pattern::Stencil1D, Kernel::Compute { flops: 2_000 });
    let expected = TaskGraph::checksum(&graph.expected_final_row());
    for imp in Implementation::all() {
        let mut runner = imp.build(2);
        let r = runner.run(&graph);
        assert_eq!(r.checksum, expected, "{}", runner.name());
    }
}

#[test]
fn runners_are_reusable_across_runs() {
    // The harness reuses runners across the flops sweep; results must
    // stay correct run-to-run (state fully reset).
    let mut runner = Implementation::Ttg { optimized: true }.build(2);
    for steps in [5usize, 17, 9] {
        let graph = TaskGraph::new(steps, 7, Pattern::Stencil1D, Kernel::Empty);
        let expected = TaskGraph::checksum(&graph.expected_final_row());
        assert_eq!(runner.run(&graph).checksum, expected, "steps={steps}");
    }
}

#[test]
fn core_time_metric_is_sane() {
    let mut runner = Implementation::Serial.build(1);
    let graph = TaskGraph::new(
        20,
        10,
        Pattern::Stencil1D,
        Kernel::Compute { flops: 10_000 },
    );
    let r = runner.run(&graph);
    let per_task = r.core_time_per_task(1);
    assert!(per_task > 0.0 && per_task < 0.1, "implausible: {per_task}");
}

#[test]
fn ttg_distributed_validates() {
    // Distributed TTG across 3 in-process ranks must match the serial
    // oracle on every pattern — cross-rank aggregators included.
    check(Implementation::TtgDist, 3, 15, 9);
}
