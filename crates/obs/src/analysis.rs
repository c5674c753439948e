//! Post-hoc critical-path analysis over exported Chrome traces.
//!
//! Reconstructs the task dependency structure a merged trace implies
//! and answers the attribution question the live counters cannot:
//! *which chain of tasks and messages bounded the wall time?*
//!
//! The graph is built from the trace alone, so it works on single-rank
//! and merged multi-rank files alike:
//!
//! - **Nodes** are `"X"` duration slices: task bodies (`cat: "task"`)
//!   and network frame slices (`cat: "net"`, `frame_send`/`frame_recv`).
//! - **Program-order edges** link consecutive slices on one `(pid,
//!   tid)` lane — a worker executes its slices serially, so each slice
//!   "waits for" its predecessor plus the ready gap between them.
//! - **Flow edges** link `frame_send` on rank *src* to the
//!   `frame_recv` with the same `(src, dst, seq)` triple on rank
//!   *dst*, carrying cross-rank dependencies (the same pairing the
//!   viewer draws as arrows).
//!
//! The longest path is a single DP pass over slices in start order
//! (edges always point forward in time):
//!
//! ```text
//! cp(s) = dur(s) + max(0, max over preds p of cp(p) + gap(p, s))
//! gap(p, s) = max(0, start(s) - end(p))     // ready / in-flight delay
//! ```
//!
//! so a chain's value is its busy time plus its wait time — exactly the
//! elapsed time from the chain's first start to its last end when the
//! trace is well formed. Cross-rank clock skew can make flow edges
//! overlap illegally; `cp(s)` is therefore additionally capped at
//! `end(s) - min_start`, which keeps the reported path length `<=` the
//! observed wall time by construction.
//!
//! Everything here is diagnostics over a *sampled* trace: if the ring
//! dropped events the path is a lower bound, and per-peer sequence
//! pairing is best-effort (see `Obs::record_net_recv`).

use serde::Value;

/// One task name's contribution to the critical path.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskContribution {
    /// Task name (the trace slice name).
    pub name: String,
    /// Nanoseconds of busy time this name contributes on the path.
    pub busy_ns: u64,
    /// Number of path slices with this name.
    pub count: usize,
}

/// One worker lane's utilization over the trace window.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerUtil {
    /// Rank (trace `pid`).
    pub rank: u32,
    /// Worker id (trace `tid`); the per-rank "net" pseudo-lane is
    /// excluded.
    pub worker: u32,
    /// Total task-slice time on this lane.
    pub busy_ns: u64,
    /// Total parked time on this lane.
    pub park_ns: u64,
    /// Steal instants recorded on this lane.
    pub steals: u64,
    /// `busy_ns / wall_ns` (0 when the trace window is empty).
    pub utilization: f64,
}

/// The result of [`analyze_chrome_trace`].
#[derive(Debug, Clone, PartialEq)]
pub struct TraceReport {
    /// Task slices (`cat: "task"`) in the trace.
    pub task_count: usize,
    /// Network frame slices (send + recv).
    pub net_span_count: usize,
    /// Flow edges that paired a send with its recv.
    pub flow_edges: usize,
    /// Trace window: earliest slice start to latest slice end.
    pub wall_ns: u64,
    /// Longest dependency chain (busy + wait), `<= wall_ns`.
    pub critical_path_ns: u64,
    /// Busy (slice) time on the critical path.
    pub critical_busy_ns: u64,
    /// Task slices on the critical path.
    pub critical_task_count: usize,
    /// Total task busy time across all workers.
    pub total_task_ns: u64,
    /// `total_task_ns / critical_path_ns`: the average parallelism the
    /// dependency structure permitted (0 when the path is empty).
    pub parallelism: f64,
    /// Task names on the path, by descending busy contribution.
    pub top_tasks: Vec<TaskContribution>,
    /// Per worker lane, ordered by (rank, worker).
    pub workers: Vec<WorkerUtil>,
}

/// Internal slice representation, times in ns relative to the window
/// start.
struct Span {
    pid: u32,
    tid: u32,
    start: u64,
    end: u64,
    name_idx: usize,
    is_task: bool,
    /// `Some((src, dst, seq))` for frame_send/frame_recv slices.
    flow: Option<(u64, u64, u64)>,
    is_send: bool,
}

fn get_u64(v: &Value, key: &str) -> Option<u64> {
    v.get(key).and_then(|x| x.as_u64())
}

fn get_f64(v: &Value, key: &str) -> Option<f64> {
    v.get(key).and_then(|x| x.as_f64())
}

/// Parses a Chrome trace JSON string and computes the critical path.
/// Accepts single-rank and merged multi-rank traces. Returns an error
/// only when the input is not a trace at all (unparseable, or no
/// `traceEvents` array); a trace with zero slices yields an empty
/// report.
pub fn analyze_chrome_trace(json: &str) -> Result<TraceReport, String> {
    let v: Value =
        serde_json::from_str(json).map_err(|e| format!("trace is not valid JSON: {e}"))?;
    let events = v
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .ok_or_else(|| "trace has no traceEvents array".to_string())?;

    // --- collect slices, parks, steals --------------------------------
    let mut names: Vec<String> = Vec::new();
    let name_idx = |n: &str, names: &mut Vec<String>| -> usize {
        match names.iter().position(|x| x == n) {
            Some(i) => i,
            None => {
                names.push(n.to_string());
                names.len() - 1
            }
        }
    };
    let mut spans: Vec<Span> = Vec::new();
    // (pid, tid) -> (park_ns, steals); busy is summed from task spans.
    let mut lane_park: Vec<((u32, u32), u64)> = Vec::new();
    let mut lane_steals: Vec<((u32, u32), u64)> = Vec::new();

    for e in events {
        let ph = e.get("ph").and_then(|p| p.as_str()).unwrap_or("");
        let pid = get_u64(e, "pid").unwrap_or(0) as u32;
        let tid = get_u64(e, "tid").unwrap_or(0) as u32;
        let name = e.get("name").and_then(|n| n.as_str()).unwrap_or("");
        let cat = e.get("cat").and_then(|c| c.as_str()).unwrap_or("");
        match ph {
            "X" => {
                let Some(ts_us) = get_f64(e, "ts") else {
                    continue;
                };
                let dur_us = get_f64(e, "dur").unwrap_or(0.0);
                // Trace timestamps are µs floats; keep ns precision and
                // tolerate small negative shifts from clock skew.
                let start = (ts_us * 1000.0).round() as i64;
                let end = start + (dur_us * 1000.0).round().max(0.0) as i64;
                if cat == "task" {
                    spans.push(Span {
                        pid,
                        tid,
                        start: start.max(0) as u64,
                        end: end.max(0) as u64,
                        name_idx: name_idx(name, &mut names),
                        is_task: true,
                        flow: None,
                        is_send: false,
                    });
                } else if cat == "net" && (name == "frame_send" || name == "frame_recv") {
                    let args = e.get("args");
                    let seq = args.and_then(|a| get_u64(a, "seq")).unwrap_or(0);
                    let is_send = name == "frame_send";
                    let flow = if is_send {
                        args.and_then(|a| get_u64(a, "dst"))
                            .map(|dst| (pid as u64, dst, seq))
                    } else {
                        args.and_then(|a| get_u64(a, "src"))
                            .map(|src| (src, pid as u64, seq))
                    };
                    spans.push(Span {
                        pid,
                        tid,
                        start: start.max(0) as u64,
                        end: end.max(0) as u64,
                        name_idx: name_idx(name, &mut names),
                        is_task: false,
                        flow,
                        is_send,
                    });
                } else if cat == "sched" && name == "park" {
                    let dur = (dur_us * 1000.0).round().max(0.0) as u64;
                    bump(&mut lane_park, (pid, tid), dur);
                }
            }
            "i" if name == "steal" => {
                bump(&mut lane_steals, (pid, tid), 1);
            }
            _ => {}
        }
    }

    if spans.is_empty() {
        return Ok(TraceReport {
            task_count: 0,
            net_span_count: 0,
            flow_edges: 0,
            wall_ns: 0,
            critical_path_ns: 0,
            critical_busy_ns: 0,
            critical_task_count: 0,
            total_task_ns: 0,
            parallelism: 0.0,
            top_tasks: Vec::new(),
            workers: Vec::new(),
        });
    }

    // Normalize to the window start so the DP works in small numbers.
    let min_start = spans.iter().map(|s| s.start).min().unwrap_or(0);
    let wall_ns = spans.iter().map(|s| s.end).max().unwrap_or(0) - min_start;
    for s in &mut spans {
        s.start -= min_start.min(s.start);
        s.end -= min_start.min(s.end);
    }

    // --- build edges ---------------------------------------------------
    // Program order: indices of each lane's spans, sorted by start.
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by_key(|&i| (spans[i].pid, spans[i].tid, spans[i].start, spans[i].end));
    // preds[i]: predecessor span indices of span i.
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for w in order.windows(2) {
        let (a, b) = (w[0], w[1]);
        if spans[a].pid == spans[b].pid && spans[a].tid == spans[b].tid {
            preds[b].push(a);
        }
    }
    // Rank-local causality across lanes: a frame_send on the net
    // pseudo-lane is caused by work that finished before it on one of
    // the rank's worker lanes, and a frame_recv enables tasks that
    // start after it. The trace does not record which task exactly, so
    // link each send to the *latest* task on its rank ending before it,
    // and each task to the latest recv on its rank ending before it —
    // a heuristic that threads message chains through the DP without
    // ever creating a backward (negative-gap) edge.
    {
        // Per-pid (end, idx) lists, sorted by end.
        let mut tasks_by_pid: Vec<(u32, Vec<(u64, usize)>)> = Vec::new();
        let mut recvs_by_pid: Vec<(u32, Vec<(u64, usize)>)> = Vec::new();
        let push_to = |v: &mut Vec<(u32, Vec<(u64, usize)>)>, pid: u32, item: (u64, usize)| match v
            .iter_mut()
            .find(|(p, _)| *p == pid)
        {
            Some((_, list)) => list.push(item),
            None => v.push((pid, vec![item])),
        };
        for (i, s) in spans.iter().enumerate() {
            if s.is_task {
                push_to(&mut tasks_by_pid, s.pid, (s.end, i));
            } else if !s.is_send {
                push_to(&mut recvs_by_pid, s.pid, (s.end, i));
            }
        }
        for (_, list) in tasks_by_pid.iter_mut().chain(recvs_by_pid.iter_mut()) {
            list.sort_unstable();
        }
        let latest_before = |v: &[(u32, Vec<(u64, usize)>)], pid: u32, t: u64| -> Option<usize> {
            let list = &v.iter().find(|(p, _)| *p == pid)?.1;
            let n = list.partition_point(|&(end, _)| end <= t);
            (n > 0).then(|| list[n - 1].1)
        };
        for i in 0..spans.len() {
            let s = &spans[i];
            if s.is_send {
                if let Some(p) = latest_before(&tasks_by_pid, s.pid, s.start) {
                    preds[i].push(p);
                }
            } else if s.is_task {
                if let Some(p) = latest_before(&recvs_by_pid, s.pid, s.start) {
                    preds[i].push(p);
                }
            }
        }
    }
    // Flow: send (src,dst,seq) -> recv with the same triple.
    let mut sends: Vec<((u64, u64, u64), usize)> = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.is_send && s.flow.is_some())
        .map(|(i, s)| (s.flow.unwrap(), i))
        .collect();
    sends.sort_unstable_by_key(|(k, _)| *k);
    let mut flow_edges = 0usize;
    for (i, s) in spans.iter().enumerate() {
        if s.is_send {
            continue;
        }
        if let Some(key) = s.flow {
            if let Ok(pos) = sends.binary_search_by_key(&key, |(k, _)| *k) {
                preds[i].push(sends[pos].1);
                flow_edges += 1;
            }
        }
    }

    // --- longest-path DP (spans in start order = topological) ----------
    let mut topo: Vec<usize> = (0..spans.len()).collect();
    topo.sort_by_key(|&i| (spans[i].start, spans[i].end));
    let mut cp = vec![0u64; spans.len()]; // busy + wait along best chain
    let mut busy = vec![0u64; spans.len()]; // busy along best chain
    let mut best_pred: Vec<Option<usize>> = vec![None; spans.len()];
    for &i in &topo {
        let dur = spans[i].end - spans[i].start;
        let mut best = 0u64;
        let mut best_busy = 0u64;
        let mut who = None;
        for &p in &preds[i] {
            let gap = spans[i].start.saturating_sub(spans[p].end);
            let through = cp[p] + gap;
            // Ties in elapsed time go to the busier chain: a worker
            // waiting out exactly one task's duration and the task
            // itself yield equal path lengths, but attributing the
            // path to the work is the useful answer.
            if through > best || (through == best && busy[p] > best_busy) {
                best = through;
                best_busy = busy[p];
                who = Some(p);
            }
        }
        // Cap: no chain ending here can exceed window-start -> end(i).
        cp[i] = (dur + best).min(spans[i].end);
        busy[i] = best_busy + dur;
        best_pred[i] = who;
    }
    let tail = (0..spans.len()).max_by_key(|&i| cp[i]).unwrap();

    // --- walk the path back, attribute per task name -------------------
    let mut per_name: Vec<(usize, u64, usize)> = Vec::new(); // (name, ns, count)
    let mut critical_task_count = 0usize;
    let mut cur = Some(tail);
    while let Some(i) = cur {
        if spans[i].is_task {
            critical_task_count += 1;
            let dur = spans[i].end - spans[i].start;
            match per_name
                .iter_mut()
                .find(|(n, _, _)| *n == spans[i].name_idx)
            {
                Some(slot) => {
                    slot.1 += dur;
                    slot.2 += 1;
                }
                None => per_name.push((spans[i].name_idx, dur, 1)),
            }
        }
        cur = best_pred[i];
    }
    per_name.sort_by_key(|&(_, ns, _)| std::cmp::Reverse(ns));
    let top_tasks = per_name
        .into_iter()
        .map(|(n, ns, count)| TaskContribution {
            name: names[n].clone(),
            busy_ns: ns,
            count,
        })
        .collect();

    // --- per-lane utilization ------------------------------------------
    let mut lane_busy: Vec<((u32, u32), u64)> = Vec::new();
    let mut total_task_ns = 0u64;
    let mut task_count = 0usize;
    let mut net_span_count = 0usize;
    for s in &spans {
        if s.is_task {
            task_count += 1;
            total_task_ns += s.end - s.start;
            bump(&mut lane_busy, (s.pid, s.tid), s.end - s.start);
        } else {
            net_span_count += 1;
        }
    }
    let mut lanes: Vec<(u32, u32)> = lane_busy.iter().map(|(k, _)| *k).collect();
    for (k, _) in lane_park.iter().chain(lane_steals.iter()) {
        if !lanes.contains(k) {
            lanes.push(*k);
        }
    }
    lanes.sort_unstable();
    let workers = lanes
        .into_iter()
        .map(|k| {
            let b = find(&lane_busy, k);
            WorkerUtil {
                rank: k.0,
                worker: k.1,
                busy_ns: b,
                park_ns: find(&lane_park, k),
                steals: find(&lane_steals, k),
                utilization: if wall_ns == 0 {
                    0.0
                } else {
                    b as f64 / wall_ns as f64
                },
            }
        })
        .collect();

    let critical_path_ns = cp[tail];
    Ok(TraceReport {
        task_count,
        net_span_count,
        flow_edges,
        wall_ns,
        critical_path_ns,
        critical_busy_ns: busy[tail],
        critical_task_count,
        total_task_ns,
        parallelism: if critical_path_ns == 0 {
            0.0
        } else {
            total_task_ns as f64 / critical_path_ns as f64
        },
        top_tasks,
        workers,
    })
}

fn bump(v: &mut Vec<((u32, u32), u64)>, k: (u32, u32), n: u64) {
    match v.iter_mut().find(|(key, _)| *key == k) {
        Some((_, val)) => *val += n,
        None => v.push((k, n)),
    }
}

fn find(v: &[((u32, u32), u64)], k: (u32, u32)) -> u64 {
    v.iter()
        .find(|(key, _)| *key == k)
        .map(|(_, n)| *n)
        .unwrap_or(0)
}

impl TraceReport {
    /// Human-readable report, `top_k` task names deep.
    pub fn render(&self, top_k: usize) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let ms = |ns: u64| ns as f64 / 1e6;
        let _ = writeln!(out, "critical-path analysis");
        let _ = writeln!(
            out,
            "  spans: {} tasks, {} net frames ({} flows paired)",
            self.task_count, self.net_span_count, self.flow_edges
        );
        let _ = writeln!(out, "  wall time:          {:>10.3} ms", ms(self.wall_ns));
        let _ = writeln!(
            out,
            "  critical path:      {:>10.3} ms ({} tasks, {:.3} ms busy, {:.1}% of wall)",
            ms(self.critical_path_ns),
            self.critical_task_count,
            ms(self.critical_busy_ns),
            if self.wall_ns == 0 {
                0.0
            } else {
                100.0 * self.critical_path_ns as f64 / self.wall_ns as f64
            }
        );
        let _ = writeln!(
            out,
            "  total task time:    {:>10.3} ms (avg parallelism {:.2})",
            ms(self.total_task_ns),
            self.parallelism
        );
        if !self.top_tasks.is_empty() {
            let _ = writeln!(out, "  top tasks on the path:");
            for t in self.top_tasks.iter().take(top_k) {
                let _ = writeln!(
                    out,
                    "    {:<24} {:>10.3} ms  x{}",
                    t.name,
                    ms(t.busy_ns),
                    t.count
                );
            }
        }
        if !self.workers.is_empty() {
            let _ = writeln!(out, "  worker utilization:");
            for w in &self.workers {
                let _ = writeln!(
                    out,
                    "    rank {} worker {:<3} busy {:>9.3} ms  park {:>9.3} ms  steals {:<6} util {:>5.1}%",
                    w.rank,
                    w.worker,
                    ms(w.busy_ns),
                    ms(w.park_ns),
                    w.steals,
                    100.0 * w.utilization
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::chrome_trace;
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
    fn rejects_non_traces() {
        assert!(analyze_chrome_trace("not json").is_err());
        assert!(analyze_chrome_trace("{\"foo\": 1}").is_err());
    }

    #[test]
    fn empty_trace_yields_empty_report() {
        let json = chrome_trace(&[], 0, 1, 0, 0);
        let r = analyze_chrome_trace(&json).unwrap();
        assert_eq!(r.task_count, 0);
        assert_eq!(r.critical_path_ns, 0);
    }

    #[test]
    fn serial_lane_chains_program_order() {
        // One worker, two back-to-back tasks with a 1µs ready gap:
        // path = 2µs + 1µs + 3µs, wall = 6µs.
        let evs = vec![task("a", 0, 0, 2_000), task("b", 0, 3_000, 3_000)];
        let json = chrome_trace(&evs, 0, 1, 0, 0);
        let r = analyze_chrome_trace(&json).unwrap();
        assert_eq!(r.task_count, 2);
        assert_eq!(r.wall_ns, 6_000);
        assert_eq!(r.critical_path_ns, 6_000);
        assert_eq!(r.critical_busy_ns, 5_000);
        assert_eq!(r.critical_task_count, 2);
        assert!(r.critical_path_ns <= r.wall_ns);
    }

    #[test]
    fn parallel_lanes_do_not_chain() {
        // Two workers running concurrently: the path is one lane, not
        // the sum of both.
        let evs = vec![task("a", 0, 0, 4_000), task("b", 1, 0, 3_000)];
        let json = chrome_trace(&evs, 0, 2, 0, 0);
        let r = analyze_chrome_trace(&json).unwrap();
        assert_eq!(r.wall_ns, 4_000);
        assert_eq!(r.critical_path_ns, 4_000);
        assert_eq!(r.critical_task_count, 1);
        assert!((r.parallelism - 7.0 / 4.0).abs() < 1e-9);
        assert_eq!(r.workers.len(), 2);
        assert_eq!(r.workers[0].busy_ns, 4_000);
        assert!((r.workers[0].utilization - 1.0).abs() < 1e-9);
    }

    #[test]
    fn flow_edges_link_ranks() {
        // rank 0: task a (0..10µs) then frame_send; rank 1: frame_recv
        // then task b. The flow edge carries the dependency across, so
        // the path includes both tasks plus the in-flight wait.
        let send = Event {
            kind: EventKind::NetSend,
            name: "",
            tid: 1, // aux lane of a 1-worker rank
            ts_ns: 10_000,
            dur_ns: 64,
            arg0: 1, // dst
            arg1: 7, // seq
            span: 0,
        };
        let recv = Event {
            kind: EventKind::NetRecv,
            name: "",
            tid: 1,
            ts_ns: 15_000,
            dur_ns: 64,
            arg0: 0, // src
            arg1: 7,
            span: 0,
        };
        let t0 = chrome_trace(&[task("a", 0, 0, 10_000), send], 0, 1, 0, 0);
        let t1 = chrome_trace(&[recv, task("b", 0, 16_000, 5_000)], 1, 1, 0, 0);
        let merged = crate::trace::merge_chrome_traces(&[t0, t1]);
        let r = analyze_chrome_trace(&merged).unwrap();
        assert_eq!(r.task_count, 2);
        assert_eq!(r.net_span_count, 2);
        assert_eq!(r.flow_edges, 1);
        // Path: a(10µs) .. send(1µs slice) .. wait .. recv(1µs) .. b ends 21µs.
        assert_eq!(r.wall_ns, 21_000);
        assert_eq!(r.critical_path_ns, 21_000);
        assert_eq!(r.critical_task_count, 2);
        assert!(r.critical_path_ns <= r.wall_ns);
        // Both tasks appear in the attribution.
        let names: Vec<&str> = r.top_tasks.iter().map(|t| t.name.as_str()).collect();
        assert!(names.contains(&"a") && names.contains(&"b"));
    }

    #[test]
    fn multi_rank_pipeline_exact_path_and_attribution() {
        // Hand-crafted 3-rank pipeline with a fully known critical path
        //
        //   rank 0: produce   [ 0..20µs] worker 0 ──send @20µs──┐
        //   rank 1: transform [26..41µs] worker 0 ◄─recv @25µs──┘
        //                                         ──send @41µs──┐
        //   rank 2: consume   [47..57µs] worker 0 ◄─recv @46µs──┘
        //
        // plus two off-path decoy tasks (rank 0 worker 1 "idle_work"
        // 0..5µs, rank 1 worker 1 "noise" 0..8µs) that run fully in
        // parallel with the chain and must not appear in attribution.
        //
        // Expected path: produce 20µs + send slice 1µs + 4µs in flight
        // + recv slice 1µs + transform 15µs + send 1µs + 4µs + recv 1µs
        // + consume 10µs = 57µs elapsed, 49µs busy, 3 tasks.
        let send = |ts: u64, tid: u32, dst: u64| Event {
            kind: EventKind::NetSend,
            name: "",
            tid,
            ts_ns: ts,
            dur_ns: 64,
            arg0: dst,
            arg1: 0,
            span: 0,
        };
        let recv = |ts: u64, tid: u32, src: u64| Event {
            kind: EventKind::NetRecv,
            name: "",
            tid,
            ts_ns: ts,
            dur_ns: 64,
            arg0: src,
            arg1: 0,
            span: 0,
        };
        let t0 = chrome_trace(
            &[
                task("produce", 0, 0, 20_000),
                task("idle_work", 1, 0, 5_000),
                send(20_000, 2, 1),
            ],
            0,
            2,
            0,
            0,
        );
        let t1 = chrome_trace(
            &[
                recv(25_000, 2, 0),
                task("transform", 0, 26_000, 15_000),
                task("noise", 1, 0, 8_000),
                send(41_000, 2, 2),
            ],
            1,
            2,
            0,
            0,
        );
        let t2 = chrome_trace(
            &[recv(46_000, 1, 1), task("consume", 0, 47_000, 10_000)],
            2,
            1,
            0,
            0,
        );
        let merged = crate::trace::merge_chrome_traces(&[t0, t1, t2]);
        let r = analyze_chrome_trace(&merged).unwrap();

        assert_eq!(r.task_count, 5);
        assert_eq!(r.net_span_count, 4);
        assert_eq!(r.flow_edges, 2);
        assert_eq!(r.wall_ns, 57_000);
        // The chain bounds the window exactly: path == wall.
        assert_eq!(r.critical_path_ns, 57_000);
        assert_eq!(r.critical_busy_ns, 49_000);
        assert_eq!(r.critical_task_count, 3);
        assert_eq!(r.total_task_ns, 58_000);
        assert!((r.parallelism - 58.0 / 57.0).abs() < 1e-9);

        // Exact attribution: the three pipeline stages in descending
        // busy order, one slice each — and neither decoy.
        assert_eq!(
            r.top_tasks,
            vec![
                TaskContribution {
                    name: "produce".to_string(),
                    busy_ns: 20_000,
                    count: 1
                },
                TaskContribution {
                    name: "transform".to_string(),
                    busy_ns: 15_000,
                    count: 1
                },
                TaskContribution {
                    name: "consume".to_string(),
                    busy_ns: 10_000,
                    count: 1
                },
            ]
        );

        // Worker table: every lane with its exact busy time, ordered by
        // (rank, worker).
        let lanes: Vec<(u32, u32, u64)> = r
            .workers
            .iter()
            .map(|w| (w.rank, w.worker, w.busy_ns))
            .collect();
        assert_eq!(
            lanes,
            vec![
                (0, 0, 20_000),
                (0, 1, 5_000),
                (1, 0, 15_000),
                (1, 1, 8_000),
                (2, 0, 10_000),
            ]
        );
    }

    #[test]
    fn skewed_flow_cannot_exceed_wall() {
        // Clock skew: recv appears to *start before* the send ends.
        // The cap keeps the path within the observed window.
        let send = Event {
            kind: EventKind::NetSend,
            name: "",
            tid: 1,
            ts_ns: 9_000,
            dur_ns: 64,
            arg0: 1,
            arg1: 0,
            span: 0,
        };
        let recv = Event {
            kind: EventKind::NetRecv,
            name: "",
            tid: 1,
            ts_ns: 2_000, // earlier than the send!
            dur_ns: 64,
            arg0: 0,
            arg1: 0,
            span: 0,
        };
        let t0 = chrome_trace(&[task("a", 0, 0, 9_000), send], 0, 1, 0, 0);
        let t1 = chrome_trace(&[recv, task("b", 0, 3_000, 4_000)], 1, 1, 0, 0);
        let merged = crate::trace::merge_chrome_traces(&[t0, t1]);
        let r = analyze_chrome_trace(&merged).unwrap();
        assert!(r.critical_path_ns <= r.wall_ns);
    }

    #[test]
    fn park_and_steal_feed_worker_table() {
        let evs = vec![
            task("a", 0, 0, 1_000),
            Event {
                kind: EventKind::Park,
                name: "",
                tid: 0,
                ts_ns: 1_000,
                dur_ns: 2_000,
                arg0: 0,
                arg1: 0,
                span: 0,
            },
            Event {
                kind: EventKind::Steal,
                name: "",
                tid: 0,
                ts_ns: 3_000,
                dur_ns: 0,
                arg0: 1,
                arg1: 0,
                span: 0,
            },
        ];
        let json = chrome_trace(&evs, 0, 1, 0, 0);
        let r = analyze_chrome_trace(&json).unwrap();
        assert_eq!(r.workers.len(), 1);
        assert_eq!(r.workers[0].park_ns, 2_000);
        assert_eq!(r.workers[0].steals, 1);
        let rendered = r.render(5);
        assert!(rendered.contains("critical path"));
        assert!(rendered.contains("worker utilization"));
    }
}
