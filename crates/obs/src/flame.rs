//! Collapsed-stack flamegraph export from Chrome traces.
//!
//! Converts an exported (or live-peeked) Chrome trace into the
//! collapsed-stack text format consumed by `inferno-flamegraph` and
//! Brendan Gregg's `flamegraph.pl`: one line per unique stack,
//! semicolon-separated frames, a space, and an integer weight. Our
//! stacks are synthetic — `rank N;worker M;task-name` — so the
//! resulting flamegraph answers "which rank / which worker / which
//! task burned the time" at a glance, the interactive complement to
//! [`analysis`](crate::analysis)'s critical-path numbers.
//!
//! Weights are microseconds of task-body execution summed per stack
//! (clamped to ≥ 1 so ns-scale tasks stay visible). Only task slices
//! contribute; parks and net frame slivers are bookkeeping, not work,
//! and would drown the signal.

use serde::Value;
use std::collections::BTreeMap;

/// Collapses `json` (a single- or multi-rank Chrome trace object) into
/// flamegraph-consumable stack lines, deterministically ordered.
/// Returns `Err` with a diagnostic for malformed input.
pub fn collapse_chrome_trace(json: &str) -> Result<String, String> {
    let v: Value = serde_json::from_str(json).map_err(|e| format!("trace parse error: {e}"))?;
    let events = v
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .ok_or("no traceEvents array — not a Chrome trace")?;

    // (rank, worker, task name) → accumulated µs. BTreeMap keeps the
    // output stable across runs.
    let mut stacks: BTreeMap<(u64, u64, String), f64> = BTreeMap::new();
    for e in events {
        if e.get("ph").and_then(|p| p.as_str()) != Some("X") {
            continue;
        }
        if e.get("cat").and_then(|c| c.as_str()) != Some("task") {
            continue;
        }
        let (Some(pid), Some(tid)) = (
            e.get("pid").and_then(|p| p.as_u64()),
            e.get("tid").and_then(|t| t.as_u64()),
        ) else {
            continue;
        };
        let name = e
            .get("name")
            .and_then(|n| n.as_str())
            .unwrap_or("(unnamed)");
        let dur_us = e.get("dur").and_then(|d| d.as_f64()).unwrap_or(0.0);
        *stacks.entry((pid, tid, name.to_string())).or_insert(0.0) += dur_us;
    }

    let mut out = String::new();
    for ((rank, worker, name), us) in &stacks {
        let weight = (us.round() as u64).max(1);
        out.push_str(&format!("rank {rank};worker {worker};{name} {weight}\n"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{chrome_trace, merge_chrome_traces};
    use ttg_runtime::obs::ring::{Event, EventKind};

    fn task(name: &'static str, tid: u32, ts: u64, dur: u64) -> Event {
        Event {
            kind: EventKind::Task,
            name,
            tid,
            ts_ns: ts,
            dur_ns: dur,
            arg0: 0,
            arg1: 0,
            span: 0,
        }
    }

    #[test]
    fn aggregates_per_rank_worker_task() {
        let r0 = chrome_trace(
            &[
                task("stencil", 0, 0, 10_000),
                task("stencil", 0, 20_000, 30_000),
                task("reduce", 1, 0, 5_000),
                // Parks and net slivers must not appear.
                Event {
                    kind: EventKind::Park,
                    name: "",
                    tid: 0,
                    ts_ns: 50_000,
                    dur_ns: 1_000_000,
                    arg0: 0,
                    arg1: 0,
                    span: 0,
                },
                Event {
                    kind: EventKind::NetSend,
                    name: "",
                    tid: 2,
                    ts_ns: 60_000,
                    dur_ns: 64,
                    arg0: 1,
                    arg1: 0,
                    span: 0,
                },
            ],
            0,
            2,
            0,
            0,
        );
        let r1 = chrome_trace(&[task("stencil", 0, 0, 7_000)], 1, 1, 0, 0);
        let collapsed = collapse_chrome_trace(&merge_chrome_traces(&[r0, r1])).unwrap();
        let lines: Vec<&str> = collapsed.lines().collect();
        assert_eq!(
            lines,
            vec![
                "rank 0;worker 0;stencil 40",
                "rank 0;worker 1;reduce 5",
                "rank 1;worker 0;stencil 7",
            ]
        );
        // Every line matches the collapsed-stack grammar inferno
        // expects: frames ';'-separated, integer weight after the last
        // space.
        for line in &lines {
            let (stack, weight) = line.rsplit_once(' ').unwrap();
            assert_eq!(stack.split(';').count(), 3);
            weight.parse::<u64>().unwrap();
        }
    }

    #[test]
    fn sub_microsecond_tasks_stay_visible() {
        let t = chrome_trace(&[task("tiny", 0, 0, 10)], 0, 1, 0, 0);
        let collapsed = collapse_chrome_trace(&t).unwrap();
        assert_eq!(collapsed.trim(), "rank 0;worker 0;tiny 1");
    }

    #[test]
    fn rejects_non_traces() {
        assert!(collapse_chrome_trace("not json").is_err());
        assert!(collapse_chrome_trace("{\"foo\":1}").is_err());
        // An empty trace collapses to an empty document, not an error.
        assert_eq!(collapse_chrome_trace("{\"traceEvents\":[]}").unwrap(), "");
    }
}
