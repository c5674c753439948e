//! Chrome trace-event (Perfetto-loadable) export, multi-rank aware.
//!
//! Each rank exports its own events with `pid` = rank; traces from
//! several ranks concatenate into one JSON object
//! ([`merge_chrome_traces`]) that Perfetto renders as one timeline with
//! a process row per rank. Event mapping:
//!
//! - `Task`/`Park` → `"X"` duration slices on the worker's `tid`
//! - `Steal`/`SlowPush`/`Contribution`/`PoolRefill` → `"i"` instants
//! - `Counter` → `"C"` counter tracks (queue depth, inbox backlog)
//! - `NetSend`/`NetRecv` → thin slices plus `"s"`/`"f"` flow events
//!   whose id encodes `(src_rank, dst_rank, sequence)`, drawing an
//!   arrow from the send on one rank to the receive on another
//!
//! Clock domains: every rank timestamps with its process-local
//! monotonic epoch (`ttg_sync::clock::now_ns`). To line ranks up, each
//! export shifts its timestamps by `wall_anchor_ns - base_wall_ns`,
//! where the anchor is the wall-clock time the rank's recorder was created
//! and the base is a job-wide reference (the launcher's start time,
//! passed to child processes). Residual skew is whatever the hosts'
//! wall clocks disagree by — fine for visualization; latency *numbers*
//! always come from single-clock histograms instead.

use crate::{obj, s};
use serde::Value;
use ttg_runtime::obs::ring::{Event, EventKind};
use ttg_runtime::Runtime;

/// Builds a flow id from the frame's (source rank, destination rank,
/// per-pair sequence number). 20 bits of each keeps ids unique within
/// any realistic trace window.
pub fn flow_id(src: usize, dst: usize, seq: u64) -> u64 {
    (((src as u64) & 0xFFFFF) << 40) | (((dst as u64) & 0xFFFFF) << 20) | (seq & 0xFFFFF)
}

/// Common head of every emitted event: name/cat/ph/ts/pid/tid.
#[allow(clippy::too_many_arguments)]
fn head(
    name: &str,
    cat: &str,
    ph: &str,
    ts_us: f64,
    pid: u32,
    tid: u32,
) -> Vec<(&'static str, Value)> {
    vec![
        ("name", Value::String(name.to_string())),
        ("cat", Value::String(cat.to_string())),
        ("ph", Value::String(ph.to_string())),
        ("ts", Value::Float(ts_us)),
        ("pid", Value::UInt(pid as u64)),
        ("tid", Value::UInt(tid as u64)),
    ]
}

/// Renders one rank's events as a Chrome trace JSON object
/// (`{"traceEvents": [...], "displayTimeUnit": "ms"}`).
///
/// `pid` is the rank. `wall_anchor_ns` is the wall-clock time (unix ns)
/// at which this rank's trace epoch started; `base_wall_ns` is the
/// job-wide reference subtracted from all ranks so their timelines
/// align (pass `wall_anchor_ns` again for a single-rank trace starting
/// at t=0). `nworkers` labels thread lanes; events with `tid ==
/// nworkers` land on a "net" pseudo-lane.
pub fn chrome_trace(
    events: &[Event],
    pid: u32,
    nworkers: usize,
    wall_anchor_ns: u64,
    base_wall_ns: u64,
) -> String {
    let shift_ns = wall_anchor_ns as i128 - base_wall_ns as i128;
    let ts_us = |ns: u64| (ns as i128 + shift_ns) as f64 / 1000.0;

    let mut out: Vec<Value> = Vec::with_capacity(events.len() + nworkers + 2);

    // Metadata: name the process after its rank and label thread lanes.
    out.push(obj(vec![
        ("name", s("process_name")),
        ("ph", s("M")),
        ("pid", Value::UInt(pid as u64)),
        ("tid", Value::UInt(0)),
        (
            "args",
            obj(vec![("name", Value::String(format!("rank {pid}")))]),
        ),
    ]));
    out.push(obj(vec![
        ("name", s("process_sort_index")),
        ("ph", s("M")),
        ("pid", Value::UInt(pid as u64)),
        ("tid", Value::UInt(0)),
        ("args", obj(vec![("sort_index", Value::UInt(pid as u64))])),
    ]));
    for w in 0..=nworkers {
        let label = if w == nworkers {
            "net".to_string()
        } else {
            format!("worker {w}")
        };
        out.push(obj(vec![
            ("name", s("thread_name")),
            ("ph", s("M")),
            ("pid", Value::UInt(pid as u64)),
            ("tid", Value::UInt(w as u64)),
            ("args", obj(vec![("name", Value::String(label))])),
        ]));
    }

    for ev in events {
        let ts = ts_us(ev.ts_ns);
        match ev.kind {
            EventKind::Task => {
                let mut e = head(ev.name, "task", "X", ts, pid, ev.tid);
                // Clamp to a visible sliver so ns-scale tasks survive
                // the µs-granular viewer.
                e.push(("dur", Value::Float((ev.dur_ns as f64 / 1000.0).max(0.001))));
                out.push(obj(e));
            }
            EventKind::Park => {
                let mut e = head("park", "sched", "X", ts, pid, ev.tid);
                e.push(("dur", Value::Float((ev.dur_ns as f64 / 1000.0).max(0.001))));
                out.push(obj(e));
            }
            EventKind::Steal => {
                let mut e = head("steal", "sched", "i", ts, pid, ev.tid);
                e.push(("s", s("t")));
                e.push(("args", obj(vec![("victim", Value::UInt(ev.arg0))])));
                out.push(obj(e));
            }
            EventKind::SlowPush => {
                let mut e = head("push_slow", "sched", "i", ts, pid, ev.tid);
                e.push(("s", s("t")));
                out.push(obj(e));
            }
            EventKind::Contribution => {
                let mut e = head("wave_contribution", "termdet", "i", ts, pid, ev.tid);
                e.push(("s", s("t")));
                e.push(("args", obj(vec![("round", Value::UInt(ev.arg0))])));
                out.push(obj(e));
            }
            EventKind::PoolRefill => {
                let mut e = head("pool_refill", "mempool", "i", ts, pid, ev.tid);
                e.push(("s", s("t")));
                e.push(("args", obj(vec![("fresh_allocs", Value::UInt(ev.arg0))])));
                out.push(obj(e));
            }
            EventKind::Counter => {
                let mut e = head(ev.name, "counter", "C", ts, pid, ev.tid);
                e.push(("args", obj(vec![("value", Value::UInt(ev.arg0))])));
                out.push(obj(e));
            }
            EventKind::NetSend => {
                let mut e = head("frame_send", "net", "X", ts, pid, ev.tid);
                e.push(("dur", Value::Float(1.0)));
                e.push((
                    "args",
                    obj(vec![
                        ("dst", Value::UInt(ev.arg0)),
                        ("seq", Value::UInt(ev.arg1)),
                        ("bytes", Value::UInt(ev.dur_ns)),
                    ]),
                ));
                out.push(obj(e));
                // Flow start, bound to the slice above by overlapping ts.
                let mut f = head("msg", "net", "s", ts + 0.5, pid, ev.tid);
                f.push((
                    "id",
                    Value::UInt(flow_id(pid as usize, ev.arg0 as usize, ev.arg1)),
                ));
                out.push(obj(f));
            }
            EventKind::NetRecv => {
                let mut e = head("frame_recv", "net", "X", ts, pid, ev.tid);
                e.push(("dur", Value::Float(1.0)));
                e.push((
                    "args",
                    obj(vec![
                        ("src", Value::UInt(ev.arg0)),
                        ("seq", Value::UInt(ev.arg1)),
                        ("bytes", Value::UInt(ev.dur_ns)),
                    ]),
                ));
                out.push(obj(e));
                let mut f = head("msg", "net", "f", ts + 0.5, pid, ev.tid);
                f.push(("bp", s("e")));
                f.push((
                    "id",
                    Value::UInt(flow_id(ev.arg0 as usize, pid as usize, ev.arg1)),
                ));
                out.push(obj(f));
            }
        }
    }

    let root = obj(vec![
        ("traceEvents", Value::Array(out)),
        ("displayTimeUnit", s("ms")),
    ]);
    serde_json::to_string_pretty(&root).expect("trace serialization cannot fail")
}

/// Renders `events` recorded by `rt` — drained by
/// [`Runtime::take_events`] after a fence, or copied while it runs by
/// [`Runtime::peek_events`] — as one rank's Chrome trace on the
/// timeline whose origin is `base_wall_ns` (unix ns). Pass `rt`'s own
/// [`Runtime::trace_wall_anchor_ns`] for a trace starting at t=0, or
/// one base shared by every rank to [`merge_chrome_traces`] a job.
/// `None` unless `rt` records events (`RuntimeConfig::trace`).
pub fn runtime_trace(rt: &Runtime, events: &[Event], base_wall_ns: u64) -> Option<String> {
    let obs = rt.recorder().filter(|o| o.events_enabled())?;
    Some(chrome_trace(
        events,
        obs.rank() as u32,
        obs.nworkers(),
        obs.wall_anchor_ns(),
        base_wall_ns,
    ))
}

/// Merges per-rank Chrome trace JSON strings into one trace object by
/// concatenating their `traceEvents` arrays. Inputs that fail to parse
/// or lack a `traceEvents` array are skipped.
pub fn merge_chrome_traces(traces: &[String]) -> String {
    let mut all: Vec<Value> = Vec::new();
    for t in traces {
        let Ok(v) = serde_json::from_str::<Value>(t) else {
            continue;
        };
        if let Some(evs) = v.get("traceEvents").and_then(|e| e.as_array()) {
            all.extend(evs.iter().cloned());
        }
    }
    let root = obj(vec![
        ("traceEvents", Value::Array(all)),
        ("displayTimeUnit", s("ms")),
    ]);
    serde_json::to_string_pretty(&root).expect("trace serialization cannot fail")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(ts: u64, tid: u32) -> Event {
        Event {
            kind: EventKind::Task,
            name: "t",
            tid,
            ts_ns: ts,
            dur_ns: 500,
            arg0: 0,
            arg1: 0,
            span: 0,
        }
    }

    #[test]
    fn flow_ids_match_across_ranks() {
        assert_eq!(flow_id(1, 2, 7), flow_id(1, 2, 7));
        assert_ne!(flow_id(1, 2, 7), flow_id(2, 1, 7));
        assert_ne!(flow_id(1, 2, 7), flow_id(1, 2, 8));
    }

    #[test]
    fn export_parses_and_has_pid_tid_ts() {
        let events = vec![
            task(1000, 0),
            Event {
                kind: EventKind::NetSend,
                name: "",
                tid: 2,
                ts_ns: 2000,
                dur_ns: 64,
                arg0: 1,
                arg1: 0,
                span: 0,
            },
        ];
        let json = chrome_trace(&events, 3, 2, 10_000, 10_000);
        let v: Value = serde_json::from_str(&json).unwrap();
        let evs = v.get("traceEvents").unwrap().as_array().unwrap();
        assert!(!evs.is_empty());
        for e in evs {
            assert!(e.get("pid").is_some(), "missing pid: {e:?}");
            assert!(e.get("tid").is_some(), "missing tid: {e:?}");
            // Metadata events have no ts; everything else must.
            if e.get("ph").and_then(|p| p.as_str()) != Some("M") {
                assert!(e.get("ts").is_some(), "missing ts: {e:?}");
            }
        }
        // NetSend emitted a flow start.
        assert!(evs
            .iter()
            .any(|e| e.get("ph").and_then(|p| p.as_str()) == Some("s")));
    }

    #[test]
    fn merge_keeps_disjoint_worker_ids_apart() {
        // Ranks with different worker counts: rank 0 has workers 0..4
        // (+ net lane 4), rank 1 has workers 0..2 (+ net lane 2). The
        // merge must keep each rank's tids under its own pid, never
        // collapsing same-numbered lanes across ranks.
        let a = chrome_trace(&[task(0, 0), task(10_000, 3)], 0, 4, 0, 0);
        let b = chrome_trace(&[task(0, 0), task(5_000, 1)], 1, 2, 0, 0);
        let merged = merge_chrome_traces(&[a, b]);
        let v: Value = serde_json::from_str(&merged).unwrap();
        let evs = v.get("traceEvents").unwrap().as_array().unwrap();
        let lanes_of = |pid: u64| -> Vec<u64> {
            let mut t: Vec<u64> = evs
                .iter()
                .filter(|e| {
                    e.get("pid").and_then(|p| p.as_u64()) == Some(pid)
                        && e.get("ph").and_then(|p| p.as_str()) == Some("X")
                })
                .filter_map(|e| e.get("tid").and_then(|t| t.as_u64()))
                .collect();
            t.sort_unstable();
            t.dedup();
            t
        };
        assert_eq!(lanes_of(0), vec![0, 3]);
        assert_eq!(lanes_of(1), vec![0, 1]);
        // Thread-name metadata stays rank-scoped: rank 0 labels lanes
        // 0..=4, rank 1 only 0..=2.
        let meta_count = |pid: u64| {
            evs.iter()
                .filter(|e| {
                    e.get("pid").and_then(|p| p.as_u64()) == Some(pid)
                        && e.get("name").and_then(|n| n.as_str()) == Some("thread_name")
                })
                .count()
        };
        assert_eq!(meta_count(0), 5);
        assert_eq!(meta_count(1), 3);
    }

    #[test]
    fn merge_concatenates_rank_events() {
        let a = chrome_trace(&[task(0, 0)], 0, 1, 50, 50);
        let b = chrome_trace(&[task(0, 0)], 1, 1, 90, 50);
        let merged = merge_chrome_traces(&[a, b]);
        let v: Value = serde_json::from_str(&merged).unwrap();
        let evs = v.get("traceEvents").unwrap().as_array().unwrap();
        let mut pids: Vec<u64> = evs
            .iter()
            .filter_map(|e| e.get("pid").and_then(|p| p.as_u64()))
            .collect();
        pids.sort_unstable();
        pids.dedup();
        assert_eq!(pids, vec![0, 1]);
        // Rank 1's anchor is 40ns later than the base, so its task slice
        // starts at 0.04us, not 0.
        let rank1_task = evs
            .iter()
            .find(|e| {
                e.get("pid").and_then(|p| p.as_u64()) == Some(1)
                    && e.get("ph").and_then(|p| p.as_str()) == Some("X")
            })
            .unwrap();
        let ts = rank1_task.get("ts").and_then(|t| t.as_f64()).unwrap();
        assert!((ts - 0.04).abs() < 1e-9);
    }
}
