//! **Figure 5** — minimum task latency: a chain of tasks executed by a
//! single worker, varying the number of flows (TTG) / dependencies
//! (OpenMP-tasks-like) between consecutive tasks.
//!
//! Series (as in the paper): TTG with data *moved* through the DAG, TTG
//! with data *copied* between tasks, the TaskFlow-like control-flow
//! executor (one chain only — "TaskFlow does not support multiple flows
//! between the two same tasks"), and the OpenMP-tasks-like runtime with
//! N dependencies between successive tasks.
//!
//! Expected shape: TTG(move) lowest at 0–1 flows; a jump between 1 and 2
//! flows when the hash table enters; the copy variant pays an allocation
//! per task; the OpenMP-like baseline starts higher but grows with a
//! smaller slope (it inspects all dependencies at once).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use ttg_baselines::omptask::DepVar;
use ttg_baselines::{Flow, OmpTaskRuntime};
use ttg_bench::{Args, Report, Series};
use ttg_core::{Edge, Graph};
use ttg_obs::{LiveConfig, LiveTelemetry};
use ttg_runtime::RuntimeConfig;

const USAGE: &str = "fig5_task_latency [--length 100000] [--max-flows 6] [--json] \
     [--bench-json PATH] [--serve]";

/// TTG chain: task k sends on `flows` edges to task k+1. `copy` selects
/// copy-between-tasks (fresh allocation per hop) vs move (zero-copy
/// forward). With 0 flows a single unit-type control edge is used.
/// When `live` is given, each data point's short-lived runtime is
/// registered with the live-telemetry slot for the duration of the
/// measurement (counters-only sampling — the hot path is untouched),
/// and one explicit sample is taken at the end so even measurements
/// shorter than the sampling period leave a time-series point.
fn ttg_chain(length: u64, flows: usize, copy: bool, live: Option<&LiveTelemetry>) -> f64 {
    let graph = Graph::new(RuntimeConfig::optimized(1));
    if let Some(live) = live {
        live.observe(graph.runtime_shared());
    }
    let done = Arc::new(AtomicU64::new(0));
    let nedges = flows.max(1);
    let edges: Vec<Edge<u64, i64>> = (0..nedges).map(|i| Edge::new(format!("flow{i}"))).collect();
    let mut b = graph.tt::<u64>("chain");
    for e in &edges {
        b = b.input::<i64>(e);
    }
    for e in &edges {
        b = b.output(e);
    }
    let d = Arc::clone(&done);
    let tt = b.build(move |k, inputs, out| {
        if *k >= length {
            d.store(*k, Ordering::Relaxed);
            return;
        }
        for i in 0..inputs.len() {
            if copy {
                let v = *inputs.get::<i64>(i);
                out.send(i, *k + 1, v);
            } else {
                let c = inputs.take_copy(i);
                out.forward(i, *k + 1, c);
            }
        }
    });
    // Warm-up run to populate pools.
    for i in 0..nedges {
        tt.deliver(i, 0u64, i as i64);
    }
    graph.wait();
    let start = Instant::now();
    for i in 0..nedges {
        tt.deliver(i, 0u64, i as i64);
    }
    graph.wait();
    let ns = start.elapsed().as_nanos() as f64;
    assert_eq!(done.load(Ordering::Relaxed), length);
    if let Some(live) = live {
        // One guaranteed point per measurement; the runtime stays
        // registered (kept alive by the slot's Arc, workers parked) so
        // `/metrics` keeps serving the latest data point's counters
        // until the next measurement re-points the slot.
        live.sample_now();
    }
    ns / length as f64
}

/// TaskFlow-like chain (control flow only).
fn taskflow_chain(length: u64) -> f64 {
    let count = Arc::new(AtomicU64::new(0));
    let c = Arc::clone(&count);
    let flow = Flow::chain(length as usize, move |_| {
        c.fetch_add(1, Ordering::Relaxed);
    });
    flow.run(1); // warm-up
    let start = Instant::now();
    flow.run(1);
    let ns = start.elapsed().as_nanos() as f64;
    assert_eq!(count.load(Ordering::Relaxed), 2 * length);
    ns / length as f64
}

/// OpenMP-tasks-like chain with `deps` dependencies between consecutive
/// tasks.
fn omp_chain(length: u64, deps: usize) -> f64 {
    let rt = OmpTaskRuntime::new(1);
    let vars: Vec<DepVar> = (0..deps.max(1)).map(DepVar).collect();
    let run = |rt: &OmpTaskRuntime| {
        let count = Arc::new(AtomicU64::new(0));
        for _ in 0..length {
            let c = Arc::clone(&count);
            rt.task(&vars, &vars, move || {
                c.fetch_add(1, Ordering::Relaxed);
            });
        }
        rt.taskwait();
        assert_eq!(count.load(Ordering::Relaxed), length);
    };
    run(&rt); // warm-up
    let start = Instant::now();
    run(&rt);
    start.elapsed().as_nanos() as f64 / length as f64
}

fn main() {
    let args = Args::parse(USAGE);
    let length: u64 = args.get("length", 100_000u64);
    let max_flows: usize = args.get("max-flows", 6usize);

    // `--serve` (or a TTG_OBS_HTTP_PORT in the environment) starts the
    // live telemetry endpoint; each data point's runtime is observed
    // through the slot while it runs. Only counters are sampled — no
    // tracing, no histograms — so serving must not move the figures.
    let mut live_config = LiveConfig::from_env();
    if args.has("serve") && live_config.http_port.is_none() {
        live_config = live_config.with_http_port(9100);
    }
    let live = if args.has("serve") || live_config.enabled() {
        let live = LiveTelemetry::start(0, &live_config).expect("start live telemetry");
        if let Some(port) = live.http_port() {
            eprintln!("live telemetry on http://127.0.0.1:{port}/ (metrics, healthz, timeseries)");
        }
        Some(live)
    } else {
        None
    };
    let mut report = Report::new(
        "Figure 5: task latency vs number of flows (1 worker)",
        "flows",
        "ns/task",
    );
    let mut ttg_move = Series::new("TTG (move)");
    let mut ttg_copy = Series::new("TTG (copy)");
    let mut omp = Series::new("OpenMP-like tasks");
    let mut tf = Series::new("TaskFlow-like");
    tf.push(0.0, taskflow_chain(length));
    for flows in 0..=max_flows {
        let live = live.as_ref();
        ttg_move.push(flows as f64, ttg_chain(length, flows, false, live));
        ttg_copy.push(flows as f64, ttg_chain(length, flows, true, live));
        omp.push(flows as f64, omp_chain(length, flows));
    }
    report.add(ttg_move);
    report.add(ttg_copy);
    report.add(omp);
    report.add(tf);
    report.emit(args.has("json"));

    let bench_json = args.get_str("bench-json", "");
    if !bench_json.is_empty() {
        let mut rec = ttg_bench::BenchRecord::new("fig5");
        // ns/task per (series, flow count) — the hash-table entry at
        // 2 flows is exactly the kind of step a regression diff should
        // see move.
        for s in &report.series {
            let slug = ttg_bench::record::slug(&s.label);
            for &(x, y) in &s.points {
                rec.metric(format!("{slug}_f{}_ns", x as u64), y);
            }
        }
        rec.attach_contention();
        rec.write(&bench_json).expect("write bench record");
        println!("bench record -> {bench_json}");
    }
    println!(
        "\nshape check: TTG jump between 1 and 2 flows marks the hash-table entry; \
         TTG(copy) pays one allocation per task over TTG(move)."
    );

    // Hold the endpoint up briefly after the run so late scrapers (CI
    // curls the time series after the figures print) still get answers.
    if live.is_some() {
        let linger_ms: u64 = std::env::var("TTG_OBS_SERVE_LINGER_MS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        if linger_ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(linger_ms));
        }
    }
}
