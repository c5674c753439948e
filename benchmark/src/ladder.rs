//! The traced pass: every layer rung, every workload with the
//! benchmark's spans on, and the 2-worker count pass; reduced to the
//! per-layer metrics and to three cost ladders — per-rung cost,
//! predicted sum, measured end to end, unexplained remainder — for the
//! task path (`chain`), the request path (`serve`) and the message path
//! (`burst`).

use crate::child::Mode;
use crate::driver::{run_child, ChildSpec, Deadline};
use crate::inputs::Size;
use crate::metrics::{self, PER_LAYER};
use crate::schema::{lookup, ChildReport, Named, TracedReport};
use crate::stats::median;
use crate::workloads::WORKLOADS;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// Everything the traced pass collected; a failed process leaves its
/// part empty and a line in `failures`.
#[derive(Default)]
pub struct TracedPass {
    pub rungs: Vec<Named>,
    pub counts: Vec<Named>,
    pub traced: BTreeMap<String, ChildReport>,
    pub failures: Vec<String>,
}

impl TracedPass {
    /// Operations attempted and failed by `workload`'s traced process
    /// (everything failed if it has no report).
    pub fn attempted_failed(&self, workload: &str) -> (u64, u64) {
        let Some(report) = self.traced.get(workload) else {
            return (1, 1);
        };
        let t = report.traced.as_ref();
        let reps = t.iter().flat_map(|t| t.untraced.iter().chain(&t.traced));
        let (attempted, failed) = reps.fold((0, report.warmup_failed), |(a, f), r| {
            (a + r.ops, f + r.failed)
        });
        (attempted.max(1), failed)
    }
}

pub fn run_traced_pass(seed: u64, size: Size, out_dir: &Path, deadline: Deadline) -> TracedPass {
    let mut pass = TracedPass::default();
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        pass.failures
            .push(format!("cannot create {}: {e}", out_dir.display()));
    }
    let spec = |mode, workload, trace_out| ChildSpec {
        mode,
        workload,
        seed,
        seconds: 0.0,
        size,
        trace_out,
    };
    match run_child(&spec(Mode::Rungs, "rungs", None), deadline) {
        Ok(r) => pass.rungs = r.metrics,
        Err(e) => pass.failures.push(e),
    }
    let mut trace_json = String::from("{");
    for w in &WORKLOADS {
        let part = out_dir.join(format!("trace.{}.json", w.name));
        match run_child(&spec(Mode::Traced, w.name, Some(part.clone())), deadline) {
            Ok(r) => {
                let spans = std::fs::read_to_string(&part).unwrap_or_else(|_| "[]".into());
                let _ = write!(
                    trace_json,
                    "{}\n\"{}\": {spans}",
                    if trace_json.len() > 1 { "," } else { "" },
                    w.name
                );
                pass.traced.insert(w.name.to_string(), r);
            }
            Err(e) => pass.failures.push(e),
        }
        let _ = std::fs::remove_file(&part);
    }
    trace_json.push_str("\n}\n");
    if let Err(e) = std::fs::write(out_dir.join("trace.json"), trace_json) {
        pass.failures.push(format!("cannot write trace.json: {e}"));
    }
    match run_child(&spec(Mode::Counts, "stencil", None), deadline) {
        Ok(r) => {
            if r.warmup_failed > 0 {
                pass.failures.push("2-worker stencil: wrong result".into());
            }
            pass.counts = r.metrics;
        }
        Err(e) => pass.failures.push(e),
    }
    pass
}

fn untraced_ops_per_s(t: &TracedReport) -> f64 {
    median(&t.untraced.iter().map(|r| r.ops_per_s()).collect::<Vec<_>>())
}

fn traced_ops_per_s(t: &TracedReport) -> f64 {
    median(&t.traced.iter().map(|r| r.ops_per_s()).collect::<Vec<_>>())
}

fn span_mean_ns(t: &TracedReport, name: &str) -> Option<f64> {
    t.span(name)
        .filter(|s| s.count > 0)
        .map(|s| s.total_ns as f64 / s.count as f64)
}

/// Intermediate numbers the ladders need besides the layer metrics.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Measured {
    pub chain_ns_per_task: Option<f64>,
    pub serve_us_per_graph: Option<f64>,
    pub serve_tasks_per_graph: Option<f64>,
    pub burst_ns_per_msg: Option<f64>,
}

/// Every per-layer metric that the collected reports determine.
pub fn layer_values(pass: &TracedPass) -> (BTreeMap<String, f64>, Measured) {
    let mut v: BTreeMap<String, f64> = BTreeMap::new();
    let mut m = Measured::default();
    for n in pass.rungs.iter().chain(&pass.counts) {
        v.insert(n.name.clone(), n.value);
    }
    let traced = |w: &str| pass.traced.get(w).and_then(|r| r.traced.as_ref());
    for w in &WORKLOADS {
        if let Some(t) = traced(w.name) {
            let ratio = traced_ops_per_s(t) / untraced_ops_per_s(t);
            v.insert(format!("trace_overhead_ratio.{}", w.name), ratio);
        }
    }
    if let Some(t) = traced("chain") {
        m.chain_ns_per_task = Some(1e9 / untraced_ops_per_s(t));
    }
    if let Some(t) = traced("stencil") {
        if let Some(ns) = lookup(&t.extras, "serial_task_ns") {
            v.insert("stencil.serial_task_ns".into(), ns);
        }
    }
    if let Some(t) = traced("serve") {
        let graphs = t.traced_ops().max(1) as f64;
        let us_per_graph = 1e6 / untraced_ops_per_s(t);
        m.serve_us_per_graph = Some(us_per_graph);
        m.serve_tasks_per_graph = lookup(&t.extras, "tasks_per_graph");
        if let Some(ns) = span_mean_ns(t, "submit") {
            v.insert("serve.submit_us".into(), ns / 1e3);
        }
        if let Some(ns) = span_mean_ns(t, "wait_result") {
            v.insert("serve.wait_us".into(), ns / 1e3);
        }
        if let Some(s) = t.span("graph") {
            v.insert("serve.graph_p50_us".into(), s.p50_ns / 1e3);
            v.insert("serve.graph_p99_us".into(), s.p99_ns / 1e3);
        }
        v.insert(
            "serve.allocs_per_graph".into(),
            t.counters.allocs as f64 / graphs,
        );
        if let (Some(tasks), Some(task_ns), Some(inst_us)) = (
            m.serve_tasks_per_graph,
            v.get("core.task_ns_1flow").copied(),
            v.get("core.instantiate_us").copied(),
        ) {
            v.insert(
                "serve.unexplained_us_per_graph".into(),
                us_per_graph - tasks * task_ns / 1e3 - inst_us,
            );
        }
    }
    if let Some(t) = traced("burst") {
        let msgs = t.traced_ops().max(1) as f64;
        m.burst_ns_per_msg = Some(1e9 / untraced_ops_per_s(t));
        if let Some(ns) = span_mean_ns(t, "send_msg") {
            v.insert("net.send_call_ns".into(), ns);
        }
        v.insert(
            "net.write_syscalls_per_msg".into(),
            t.counters.write_syscalls as f64 / msgs,
        );
        v.insert(
            "net.read_syscalls_per_msg".into(),
            t.counters.read_syscalls as f64 / msgs,
        );
        // Less the one payload `Vec` per message the generator itself
        // allocates, which `send_msg` takes by value.
        v.insert(
            "net.allocs_per_msg".into(),
            t.counters.allocs as f64 / msgs - 1.0,
        );
    }
    if let Some(t) = traced("bulk") {
        let msgs = t.traced_ops().max(1) as f64;
        if let Some(ns) = lookup(&t.extras, "handler_send_call_ns") {
            v.insert("net.send_call_64KiB_ns".into(), ns);
        }
        if let Some(us) = lookup(&t.extras, "oneway_8B_us") {
            v.insert("net.oneway_8B_us".into(), us);
        }
        let c = &t.counters;
        v.insert(
            "net.write_syscalls_per_64KiB_msg".into(),
            c.write_syscalls as f64 / msgs,
        );
        v.insert(
            "net.read_syscalls_per_64KiB_msg".into(),
            c.read_syscalls as f64 / msgs,
        );
        v.insert("net.allocs_per_64KiB_msg".into(), c.allocs as f64 / msgs);
        if let Some(per_rep) = lookup(&t.extras, "payload_bytes_per_rep") {
            // Computed, not observed: bytes the kernel copied in and
            // out of the process plus bytes of buffers the process
            // allocated, per payload byte delivered.
            let payload = per_rep * t.traced.len() as f64;
            let moved = (c.write_bytes + c.read_bytes + c.alloc_bytes) as f64;
            v.insert("net.bytes_copied_per_byte".into(), moved / payload.max(1.0));
        }
    }
    if let (Some(measured), Some(predicted)) = (m.chain_ns_per_task, sum_of(&v, &TASK_RUNGS)) {
        v.insert("ladder.task_unexplained_ns".into(), measured - predicted);
    }
    if let (Some(measured), Some(predicted)) = (m.burst_ns_per_msg, message_predicted(&v)) {
        v.insert("ladder.message_unexplained_ns".into(), measured - predicted);
    }
    (v, m)
}

/// Kernel time per message: each system call the library makes per
/// message at what the kernel charges for one, (send, recv).
fn message_syscall_ns(v: &BTreeMap<String, f64>) -> Option<(f64, f64)> {
    let get = |name: &str| v.get(name).copied();
    Some((
        get("net.write_syscalls_per_msg")? * get("kernel.send_256B_ns")?,
        get("net.read_syscalls_per_msg")? * get("kernel.recv_256B_ns")?,
    ))
}

/// Sum of the message path's rungs.
fn message_predicted(v: &BTreeMap<String, f64>) -> Option<f64> {
    let (send, recv) = message_syscall_ns(v)?;
    Some(sum_of(v, &MESSAGE_RUNGS)? + send + recv)
}

/// Sum of the named values; `None` if any is absent.
fn sum_of(v: &BTreeMap<String, f64>, names: &[&str]) -> Option<f64> {
    names.iter().map(|n| v.get(*n).copied()).sum()
}

/// Rungs of the task path: what one task costs in the layers below the
/// runtime, each timed alone.
const TASK_RUNGS: [&str; 3] = [
    "sched.push_pop_ns",
    "mempool.alloc_free_ns",
    "termdet.account_ns",
];
/// Rungs of the message path besides its system calls: the sender's
/// encode, the receiver's decode, and the handler dispatched as one
/// runtime task.
const MESSAGE_RUNGS: [&str; 3] = [
    "net.encode_256B_ns",
    "net.decode_256B_ns",
    "runtime.task_ns",
];

/// One line of a ladder: label, value if known, note.
type Row<'a> = (&'a str, Option<f64>, String);

fn rows(out: &mut String, rows: &[Row<'_>]) {
    for (label, value, note) in rows {
        let value = value.map_or("missing".to_string(), |x| format!("{x:.2}"));
        let _ = writeln!(out, "  {label:<44}{value:>12}  {note}");
    }
}

/// The closing lines of a ladder: predicted sum, measured, remainder.
fn remainder(out: &mut String, measured: Option<f64>, predicted: Option<f64>) {
    let (rest, share) = match (measured, predicted) {
        (Some(m), Some(p)) => (
            Some(m - p),
            format!("{:.0} % of measured", 100.0 * (m - p) / m),
        ),
        _ => (None, String::new()),
    };
    rows(
        out,
        &[
            ("= predicted (sum of rungs)", predicted, String::new()),
            ("measured end to end", measured, String::new()),
            ("unexplained remainder", rest, share),
        ],
    );
}

/// The three ladders as text.
pub fn ladders(v: &BTreeMap<String, f64>, m: &Measured) -> String {
    let get = |name: &str| v.get(name).copied();
    let rung = |name: &'static str| (name, get(name), String::new());
    let times = |n: Option<f64>, unit: &str| n.map_or(String::new(), |n| format!("{n:.2} {unit}"));
    let mut out = String::new();

    let _ = writeln!(out, "ladder: task path (chain), ns per task");
    rows(&mut out, &TASK_RUNGS.map(rung));
    remainder(&mut out, m.chain_ns_per_task, sum_of(v, &TASK_RUNGS));
    let nested = |name, note: &str| (name, get(name), note.to_string());
    rows(
        &mut out,
        &[
            nested(
                "runtime.task_ns",
                "for scale: closure task on the bare runtime",
            ),
            nested(
                "core.task_ns_1flow",
                "for scale: 1-flow task through Graph/Edge",
            ),
        ],
    );

    let _ = writeln!(out, "ladder: request path (serve), us per graph");
    let tasks_us = m
        .serve_tasks_per_graph
        .zip(get("core.task_ns_1flow"))
        .map(|(n, ns)| n * ns / 1e3);
    rows(
        &mut out,
        &[
            nested("core.instantiate_us", "an instance with no task"),
            (
                "tasks/graph x core.task_ns_1flow",
                tasks_us,
                times(m.serve_tasks_per_graph, "tasks/graph"),
            ),
        ],
    );
    let predicted = get("core.instantiate_us").zip(tasks_us).map(|(a, b)| a + b);
    remainder(&mut out, m.serve_us_per_graph, predicted);
    rows(
        &mut out,
        &[
            nested("serve.submit_us", "client side, per call"),
            nested("serve.wait_us", "client side, per call, mostly blocked"),
        ],
    );

    let _ = writeln!(out, "ladder: message path (burst), ns per message");
    let syscalls = message_syscall_ns(v);
    rows(
        &mut out,
        &[
            rung("net.encode_256B_ns"),
            (
                "write syscalls/msg x kernel.send_256B_ns",
                syscalls.map(|s| s.0),
                times(get("net.write_syscalls_per_msg"), "per message"),
            ),
            (
                "read syscalls/msg x kernel.recv_256B_ns",
                syscalls.map(|s| s.1),
                times(get("net.read_syscalls_per_msg"), "per message"),
            ),
            rung("net.decode_256B_ns"),
            nested("runtime.task_ns", "the handler, dispatched as a task"),
        ],
    );
    remainder(&mut out, m.burst_ns_per_msg, message_predicted(v));
    rows(
        &mut out,
        &[nested(
            "net.send_call_ns",
            "generator side; on one CPU the woken receiver preempts it",
        )],
    );
    out
}

/// Every per-layer metric by name with its unit, then the ladders.
pub fn render(v: &BTreeMap<String, f64>, m: &Measured) -> String {
    let mut out = String::new();
    for layer in &PER_LAYER {
        let value = v
            .get(layer.name)
            .map_or("missing".to_string(), |x| format!("{x:.4}"));
        let _ = writeln!(
            out,
            "{:<36}{value:>16} {:<8} {:<6} is better -> {}",
            layer.name,
            layer.unit,
            layer.better.as_str(),
            layer.moves
        );
    }
    out.push_str(&ladders(v, m));
    out
}

/// The per-layer metrics in table order for the driver line; a metric
/// no report determines reads 0 and is named in the second list.
pub fn driver_metrics(
    v: &BTreeMap<String, f64>,
) -> (Vec<(String, f64, &'static str)>, Vec<&'static str>) {
    let mut missing = Vec::new();
    let list = metrics::PER_LAYER
        .iter()
        .map(|layer| {
            let value = v.get(layer.name).copied().unwrap_or_else(|| {
                missing.push(layer.name);
                0.0
            });
            (layer.name.to_string(), value, layer.unit)
        })
        .collect();
    (list, missing)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::Counters;
    use crate::schema::{named, Rep};
    use crate::spans::SpanStat;

    fn rep(ops: u64, secs: f64) -> Rep {
        Rep {
            ops,
            secs,
            failed: 0,
        }
    }

    fn stat(name: &str, count: u64, total_ns: u64, p50: f64, p99: f64) -> SpanStat {
        SpanStat {
            name: name.into(),
            count,
            total_ns,
            p50_ns: p50,
            p99_ns: p99,
        }
    }

    fn report(workload: &str, t: TracedReport) -> (String, ChildReport) {
        let r = ChildReport {
            workload: workload.into(),
            seed: 1,
            setup_s: 0.1,
            peak_rss_kb: 1,
            warmup_failed: 0,
            reps: Vec::new(),
            traced: Some(t),
            metrics: Vec::new(),
        };
        (workload.to_string(), r)
    }

    #[test]
    fn serve_and_chain_values_follow_their_definitions() {
        let mut pass = TracedPass {
            rungs: named(&[
                ("core.task_ns_1flow", 100.0),
                ("core.instantiate_us", 2.0),
                ("sched.push_pop_ns", 10.0),
                ("mempool.alloc_free_ns", 5.0),
                ("termdet.account_ns", 1.0),
            ]),
            ..TracedPass::default()
        };
        pass.traced.extend([
            report(
                "serve",
                TracedReport {
                    // 1000 graphs in 0.02 s = 20 us per graph.
                    untraced: vec![rep(1_000, 0.02)],
                    traced: vec![rep(1_000, 0.025)],
                    counters: Counters {
                        allocs: 30_000,
                        ..Counters::default()
                    },
                    spans: vec![
                        stat("submit", 1_000, 3_000_000, 0.0, 0.0),
                        stat("wait_result", 1_000, 9_000_000, 0.0, 0.0),
                        stat("graph", 1_000, 0, 150_000.0, 400_000.0),
                    ],
                    extras: named(&[("tasks_per_graph", 50.0)]),
                },
            ),
            report(
                "chain",
                TracedReport {
                    // 1e6 tasks in 0.15 s = 150 ns per task.
                    untraced: vec![rep(1_000_000, 0.15)],
                    traced: vec![rep(1_000_000, 0.15)],
                    counters: Counters::default(),
                    spans: Vec::new(),
                    extras: Vec::new(),
                },
            ),
        ]);
        let (v, m) = layer_values(&pass);
        let close = |name: &str, want: f64| {
            let got = v[name];
            assert!((got - want).abs() < 1e-6, "{name}: {got} != {want}");
        };
        close("serve.submit_us", 3.0);
        close("serve.wait_us", 9.0);
        close("serve.graph_p50_us", 150.0);
        close("serve.graph_p99_us", 400.0);
        close("serve.allocs_per_graph", 30.0);
        // 20 us - 50 tasks x 0.1 us - 2 us.
        close("serve.unexplained_us_per_graph", 13.0);
        close("trace_overhead_ratio.serve", 0.8);
        close("ladder.task_unexplained_ns", 150.0 - 16.0);
        assert!((m.serve_us_per_graph.unwrap() - 20.0).abs() < 1e-9);
        assert!(
            !v.contains_key("net.send_call_ns"),
            "no burst report, no value"
        );

        let text = render(&v, &m);
        assert!(text.contains("ladder: task path (chain)"));
        assert!(text.contains("unexplained remainder"));
        assert!(
            text.contains("missing"),
            "absent metrics are named, not hidden"
        );
        let (list, missing) = driver_metrics(&v);
        assert_eq!(list.len(), PER_LAYER.len());
        assert!(missing.contains(&"net.send_call_ns"));
        assert_eq!(pass.attempted_failed("chain"), (2_000_000, 0));
        assert_eq!(pass.attempted_failed("bulk"), (1, 1));
    }
}
