//! Counts taken from outside the library must repeat across two runs of
//! one seed, or they cannot carry a claim. These tests pin down which
//! of them do.

use serde_json::Value;
use std::process::Command;

/// Runs one traced child of the benchmark binary at quick size and
/// returns its report.
fn traced_child(workload: &str, seed: u64) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_ttg-benchmark"))
        .args([
            "child",
            "--mode",
            "traced",
            "--workload",
            workload,
            "--quick",
        ])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            "0",
            "--spawned-unix-ns",
            "0",
        ])
        .output()
        .expect("child starts");
    assert!(out.status.success(), "{workload}: {:?}", out.status);
    let text = String::from_utf8(out.stdout).expect("utf-8 report");
    serde_json::from_str(text.lines().last().expect("a report line")).expect("JSON report")
}

fn counter(report: &Value, name: &str) -> u64 {
    report["traced"]["counters"][name]
        .as_u64()
        .unwrap_or_else(|| panic!("counter {name} missing"))
}

fn traced_ops(report: &Value) -> u64 {
    let reps = report["traced"]["traced"].as_array().expect("traced reps");
    assert!(
        reps.iter().all(|r| r["failed"] == 0u64),
        "a traced repetition failed"
    );
    reps.iter().map(|r| r["ops"].as_u64().expect("ops")).sum()
}

/// Allocations that may differ between two runs of one seed without
/// the per-operation count moving: whether a worker had already parked
/// when the next repetition began decides a handful (seen once in eight
/// runs, under load).
const PARKING_SLACK: u64 = 16;

/// `chain` and `mra` run on one worker with nothing timing-dependent
/// between the generator and the result: their allocation counts must
/// repeat (`chain`: 3 per repetition of 20 000 tasks; `mra`: 270 411
/// in every one of 12 concurrent runs).
#[test]
fn allocation_counts_repeat_for_one_seed() {
    for workload in ["chain", "mra"] {
        let (a, b) = (traced_child(workload, 21), traced_child(workload, 21));
        assert_eq!(traced_ops(&a), traced_ops(&b), "{workload}: operations");
        let (x, y) = (counter(&a, "allocs"), counter(&b, "allocs"));
        assert!(x > 0, "{workload}: the counter was armed");
        assert!(
            x.abs_diff(y) <= PARKING_SLACK,
            "{workload}: {x} vs {y} allocations"
        );
    }
    // The pools work: a chain task allocates nothing.
    let chain = traced_child("chain", 21);
    assert!(counter(&chain, "allocs") < traced_ops(&chain) / 1_000);
}

/// Per message, `burst` allocates and writes the same whole number of
/// times in every run. (The totals carry a few control frames of the
/// termination wave, whose round count may differ under load; `stencil`
/// and `serve` totals differ by a few per mille from process to process,
/// probably through the per-process `RandomState` of the library's hash
/// tables; `bulk` by the number of wave rounds its long epoch sees. None
/// of those is asserted.)
#[test]
fn per_message_counts_repeat_for_one_seed() {
    let (a, b) = (traced_child("burst", 22), traced_child("burst", 22));
    let msgs = traced_ops(&a);
    assert_eq!(msgs, traced_ops(&b));
    assert!(counter(&a, "write_syscalls") >= msgs, "sends are counted");
    assert!(counter(&a, "read_syscalls") >= msgs, "receives are counted");
    for name in ["allocs", "write_syscalls"] {
        assert_eq!(
            counter(&a, name) / msgs,
            counter(&b, name) / msgs,
            "{name} per message"
        );
    }
}

#[test]
fn another_seed_changes_the_work() {
    let (a, b) = (traced_child("chain", 21), traced_child("chain", 23));
    assert_ne!(traced_ops(&a), traced_ops(&b));
}
