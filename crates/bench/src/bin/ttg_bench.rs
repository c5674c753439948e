//! `ttg-bench` — performance-attribution companion tool.
//!
//! Three subcommands, all operating on artifacts the runtime and the
//! figure binaries already emit:
//!
//! ```text
//! ttg-bench analyze <trace.json|flight.json> [--top K]
//! ttg-bench diff <old.json> <new.json> [--threshold 0.10]
//! ttg-bench flame <trace.json|flight.json> [--out FILE]
//! ttg-bench serve [--threads N] [--clients C] [--graphs G] [--tasks T]
//!                 [--bench-json FILE] [--attribute]
//! ```
//!
//! `analyze` runs the critical-path analysis over an exported Chrome
//! trace (single-rank or merged) and prints the report. `diff`
//! compares two `BENCH_<fig>.json` records and exits non-zero when any
//! lower-is-better metric regressed past the threshold — the CI gate
//! for the committed baselines under `results/`. `flame` collapses a
//! trace into folded-stack lines (`rank;worker;task weight_us`) for
//! `inferno-flamegraph` / `flamegraph.pl`.
//!
//! `serve` drives the graph-serving engine closed-loop: `--clients`
//! threads (alternating between two tenants) each submit a `--tasks`-
//! task graph instance and wait for its result, `--graphs` instances
//! in total on one resident runtime. It records sustained
//! `serve_us_per_graph` plus p50/p99 submit-to-result latency, and
//! with `--bench-json` writes a `BENCH_serve.json` regression record.
//! `--attribute` turns on request-scoped span recording and, per
//! tenant, splits the p50/p99 latency into queue/execute/wire
//! components pulled from each instance's assembled span (needs the
//! `obs` build, which is the harness default). A shutdown that
//! abandons instances exits non-zero.
//!
//! `analyze` and `flame` both accept a crash flight dump (the
//! `ttg-flight-<rank>-<ms>.json` files the flight recorder leaves
//! behind): the embedded trace is extracted automatically and the
//! dump's rank/reason header is printed first, so the post-mortem
//! workflow is identical to the healthy-trace one.
//!
//! `dash` is a standalone cluster aggregator: it scrapes each listed
//! rank's live-telemetry endpoint, merges the snapshots and serves
//! `/cluster.json`, `/alerts.json`, cluster-level `/metrics` and a
//! mesh-wide `/healthz` — the same plane rank 0 of `distributed
//! --serve` embeds, detached from any rank for jobs whose rank 0 is
//! busy or short-lived.
//!
//! `imbalance` closes the detector loop: it hosts a deliberately
//! skewed power-law scatter over a real 3-rank TCP loopback mesh
//! (most tasks land on rank 0), runs per-rank live telemetry plus an
//! in-process aggregator, and records `imbalance_us_per_task` with
//! the observed skew/straggler alert counts — the regression seed for
//! `results/BENCH_imbalance.json`.
//!
//! `wire` attributes the TCP message path stage by stage: an all-to-all
//! scatter over a real loopback mesh, then the per-stage
//! histograms (encode, writer-lock wait, `write_all`, read→decode,
//! decode→dispatch) printed in µs next to the end-to-end wall cost per
//! message — the regression seed for `results/BENCH_wire.json`.
//! `--delay-ms D` manufactures a deterministic slow link (persistent
//! write-path delay on `--delay-from`→`--delay-to`), runs per-rank
//! live telemetry plus an in-process aggregator, and exits 3 unless
//! the slow-link detector raised an alert for exactly that link.

use ttg_bench::record::{diff, BenchRecord};

const USAGE: &str = "usage:
  ttg-bench analyze <trace.json|flight.json> [--top K]
  ttg-bench diff <old.json> <new.json> [--threshold 0.10]
  ttg-bench flame <trace.json|flight.json> [--out FILE]
  ttg-bench serve [--threads N] [--clients C] [--graphs G] [--tasks T] [--bench-json FILE] [--attribute]
  ttg-bench dash --ranks host:port[,host:port...] [--port 9190] [--secs 0] [--scrape-ms 1000]
  ttg-bench imbalance [--ranks N] [--tasks T] [--spin-us U] [--threads N] [--port-base P]
                      [--obs-port-base P] [--scrape-ms MS] [--window W] [--bench-json FILE]
  ttg-bench wire [--ranks N] [--msgs M] [--payload B] [--threads N] [--port-base P]
                 [--obs-port-base P] [--scrape-ms MS] [--delay-ms D] [--delay-from R]
                 [--delay-to R] [--linger-secs S] [--bench-json FILE]";

fn fail(msg: &str) -> ! {
    eprintln!("{msg}\n{USAGE}");
    std::process::exit(2);
}

/// Splits argv into positionals and `--name value` options.
fn split_args(argv: &[String]) -> (Vec<&String>, Vec<(&str, &String)>) {
    let mut pos = Vec::new();
    let mut opts = Vec::new();
    let mut i = 0;
    while i < argv.len() {
        if let Some(name) = argv[i].strip_prefix("--") {
            if i + 1 >= argv.len() {
                fail(&format!("--{name} needs a value"));
            }
            opts.push((name, &argv[i + 1]));
            i += 2;
        } else {
            pos.push(&argv[i]);
            i += 1;
        }
    }
    (pos, opts)
}

fn opt<T: std::str::FromStr>(opts: &[(&str, &String)], name: &str, default: T) -> T {
    match opts.iter().find(|(n, _)| *n == name) {
        Some((_, v)) => v
            .parse()
            .unwrap_or_else(|_| fail(&format!("invalid value for --{name}: {v}"))),
        None => default,
    }
}

fn read(path: &str, what: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {what} {path}: {e}");
        std::process::exit(2);
    })
}

/// Accepts either a plain Chrome trace or a flight dump: for a dump,
/// prints the crash header and hands back the embedded trace.
fn load_trace(path: &str) -> String {
    let json = read(path, "trace");
    match ttg_obs::extract_flight_trace(&json) {
        Some(info) => {
            eprintln!(
                "flight dump: rank {} at unix_ms {} — {}",
                info.rank, info.captured_unix_ms, info.reason
            );
            match info.trace_json {
                Some(trace) => trace,
                None => {
                    eprintln!("flight dump carries no trace (run without --trace?)");
                    std::process::exit(2);
                }
            }
        }
        None => json,
    }
}

fn cmd_analyze(argv: &[String]) {
    let (pos, opts) = split_args(argv);
    if pos.len() != 1 {
        fail("analyze takes exactly one trace file");
    }
    for (n, _) in &opts {
        if *n != "top" {
            fail(&format!("unknown option --{n}"));
        }
    }
    let top: usize = opt(&opts, "top", 10);
    let json = load_trace(pos[0]);
    match ttg_obs::analyze_chrome_trace(&json) {
        Ok(report) => print!("{}", report.render(top)),
        Err(e) => {
            eprintln!("analysis failed: {e}");
            std::process::exit(2);
        }
    }
}

fn cmd_flame(argv: &[String]) {
    let (pos, opts) = split_args(argv);
    if pos.len() != 1 {
        fail("flame takes exactly one trace file");
    }
    for (n, _) in &opts {
        if *n != "out" {
            fail(&format!("unknown option --{n}"));
        }
    }
    let json = load_trace(pos[0]);
    match ttg_obs::collapse_chrome_trace(&json) {
        Ok(folded) => match opts.iter().find(|(n, _)| *n == "out") {
            Some((_, out)) => {
                if let Err(e) = std::fs::write(out, &folded) {
                    eprintln!("cannot write {out}: {e}");
                    std::process::exit(2);
                }
                eprintln!("wrote {} folded lines to {out}", folded.lines().count());
            }
            None => print!("{folded}"),
        },
        Err(e) => {
            eprintln!("flame collapse failed: {e}");
            std::process::exit(2);
        }
    }
}

fn cmd_diff(argv: &[String]) {
    let (pos, opts) = split_args(argv);
    if pos.len() != 2 {
        fail("diff takes exactly two record files");
    }
    for (n, _) in &opts {
        if *n != "threshold" {
            fail(&format!("unknown option --{n}"));
        }
    }
    let threshold: f64 = opt(&opts, "threshold", 0.10);
    if !(0.0..10.0).contains(&threshold) {
        fail("--threshold is a fraction (0.10 = 10%)");
    }
    let parse = |path: &str| {
        BenchRecord::from_json(&read(path, "record")).unwrap_or_else(|e| {
            eprintln!("{path}: {e}");
            std::process::exit(2);
        })
    };
    let old = parse(pos[0]);
    let new = parse(pos[1]);
    if old.fig != new.fig {
        eprintln!(
            "warning: comparing different figures ({} vs {})",
            old.fig, new.fig
        );
    }
    println!(
        "diff {} ({}) -> {} ({}), threshold +{:.1}%",
        pos[0],
        old.git_sha,
        pos[1],
        new.git_sha,
        100.0 * threshold
    );
    let report = diff(&old, &new, threshold);
    print!("{}", report.render(threshold));
    if !report.passed() {
        std::process::exit(1);
    }
}

fn cmd_serve(argv: &[String]) {
    use serde::Value;
    use std::sync::Arc;
    use std::time::{Duration, Instant};
    use ttg_core::{Edge, GraphTemplate};
    use ttg_runtime::{Runtime, RuntimeConfig};
    use ttg_serve::{ServeConfig, ServeEngine};

    // `--attribute` is the one value-less flag; strip it before the
    // `--name value` parse.
    let mut attribute = false;
    let argv: Vec<String> = argv
        .iter()
        .filter(|a| {
            let is_flag = a.as_str() == "--attribute";
            attribute |= is_flag;
            !is_flag
        })
        .cloned()
        .collect();
    let (pos, opts) = split_args(&argv);
    if !pos.is_empty() {
        fail("serve takes no positional arguments");
    }
    for (n, _) in &opts {
        if !["threads", "clients", "graphs", "tasks", "bench-json"].contains(n) {
            fail(&format!("unknown option --{n}"));
        }
    }
    let threads: usize = opt(&opts, "threads", 4).max(1);
    let clients: usize = opt(&opts, "clients", 4).max(1);
    let graphs: usize = opt(&opts, "graphs", 400).max(clients);
    let tasks: u64 = opt(&opts, "tasks", 16).max(1);
    let bench_json: String = opt(&opts, "bench-json", String::new());
    if attribute && !ttg_obs::OBS {
        eprintln!("warning: --attribute without the obs feature reports zeros");
    }

    let mut rc = RuntimeConfig::optimized(threads);
    // Span assembly reads the event rings; recording is off unless the
    // runtime traces.
    rc.trace = attribute;
    let runtime = Arc::new(Runtime::new(rc));
    let engine = Arc::new(ServeEngine::new(
        runtime,
        ServeConfig {
            queue_capacity: graphs,
            max_inflight: (clients * 2).max(8),
            result_capacity: 64,
            ..ServeConfig::default()
        },
    ));
    let template = GraphTemplate::compile("bench-pipeline", |graph, ctx| {
        let n = ctx.input.get("n").and_then(Value::as_u64).unwrap_or(1);
        let edge: Edge<u64, u64> = Edge::new("values");
        let stage = graph
            .tt::<u64>("stage")
            .output(&edge)
            .build(|k, _in, out| out.send(0, *k, *k * 2));
        let sink = ctx.sink.clone();
        let _collect =
            graph
                .tt::<u64>("collect")
                .input::<u64>(&edge)
                .build(move |k, inputs, _out| {
                    if *k == 0 {
                        sink.emit("first", Value::UInt(*inputs.get::<u64>(0)));
                    }
                });
        Box::new(move || {
            for k in 0..n {
                stage.invoke(k);
            }
        })
    })
    .expect("bench template");
    engine.register_template(template);
    let input = move || Value::Object(vec![("n".to_string(), Value::UInt(tasks))]);

    // Warmup: one instance per client's tenant, excluded from timing.
    for i in 0..2 {
        let id = engine
            .submit(
                if i == 0 { "tenant-a" } else { "tenant-b" },
                "bench-pipeline",
                input(),
            )
            .expect("warmup admitted");
        engine
            .wait_result(id, Duration::from_secs(30))
            .expect("warmup completes");
    }

    let per_client = graphs / clients;
    let start = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || {
                let tenant = if c % 2 == 0 { "tenant-a" } else { "tenant-b" };
                let mut latencies = Vec::with_capacity(per_client);
                let mut splits = Vec::new();
                for _ in 0..per_client {
                    let t0 = Instant::now();
                    let id = engine
                        .submit(tenant, "bench-pipeline", input())
                        .expect("admitted");
                    engine
                        .wait_result(id, Duration::from_secs(60))
                        .expect("instance completes");
                    latencies.push(t0.elapsed());
                    if attribute {
                        // Assemble the span right away, while the event
                        // rings still hold this instance and before the
                        // result cache evicts its record.
                        if let Ok(trace) = engine.trace_json(id) {
                            let us = |f: &str| trace.get(f).and_then(Value::as_f64).unwrap_or(0.0);
                            splits.push((tenant, us("queue_us"), us("execute_us"), us("wire_us")));
                        }
                    }
                }
                (latencies, splits)
            })
        })
        .collect();
    let mut latencies: Vec<Duration> = Vec::with_capacity(graphs);
    let mut splits: Vec<(&str, f64, f64, f64)> = Vec::new();
    for h in handles {
        let (l, s) = h.join().expect("client thread");
        latencies.extend(l);
        splits.extend(s);
    }
    let elapsed = start.elapsed();
    latencies.sort_unstable();
    let total = latencies.len().max(1);
    let pct = |p: f64| latencies[((total - 1) as f64 * p) as usize];
    let us_per_graph = elapsed.as_micros() as f64 / total as f64;
    let p50_ms = pct(0.50).as_secs_f64() * 1e3;
    let p99_ms = pct(0.99).as_secs_f64() * 1e3;

    println!(
        "serve: {total} graphs x {tasks} tasks, {clients} clients, {threads} threads \
         -> {us_per_graph:.1} us/graph, p50 {p50_ms:.3} ms, p99 {p99_ms:.3} ms"
    );
    let a = engine.tenant_counters("tenant-a").unwrap_or_default();
    let b = engine.tenant_counters("tenant-b").unwrap_or_default();
    println!(
        "tenant-a: {} completed, {} rejected; tenant-b: {} completed, {} rejected",
        a.completed, a.rejected, b.completed, b.rejected
    );
    if attribute {
        for tenant in ["tenant-a", "tenant-b"] {
            let mut queue: Vec<f64> = Vec::new();
            let mut execute: Vec<f64> = Vec::new();
            let mut wire: Vec<f64> = Vec::new();
            for (t, q, e, w) in &splits {
                if *t == tenant {
                    queue.push(*q);
                    execute.push(*e);
                    wire.push(*w);
                }
            }
            if queue.is_empty() {
                println!("attribution {tenant}: no spans assembled");
                continue;
            }
            for v in [&mut queue, &mut execute, &mut wire] {
                v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            }
            let pct = |v: &[f64], p: f64| v[((v.len() - 1) as f64 * p) as usize];
            println!(
                "attribution {tenant} ({} spans): p50 queue {:.1} / execute {:.1} / wire {:.1} us, \
                 p99 queue {:.1} / execute {:.1} / wire {:.1} us",
                queue.len(),
                pct(&queue, 0.50),
                pct(&execute, 0.50),
                pct(&wire, 0.50),
                pct(&queue, 0.99),
                pct(&execute, 0.99),
                pct(&wire, 0.99),
            );
        }
    }
    let report = engine.shutdown(Duration::from_secs(10));
    if !report.drained {
        eprintln!("error: shutdown abandoned {:?}", report.abandoned);
    }

    if !bench_json.is_empty() {
        let mut rec = BenchRecord::new("serve");
        rec.metric("serve_us_per_graph", us_per_graph);
        rec.metric("serve_p50_ms", p50_ms);
        rec.metric("serve_p99_ms", p99_ms);
        rec.counter("serve_graphs", total as u64);
        rec.counter("serve_tasks_per_graph", tasks);
        rec.counter("serve_completed_a", a.completed);
        rec.counter("serve_completed_b", b.completed);
        rec.counter("serve_abandoned", report.abandoned.len() as u64);
        rec.attach_contention();
        if let Err(e) = rec.write(&bench_json) {
            eprintln!("cannot write {bench_json}: {e}");
            std::process::exit(2);
        }
        println!("wrote {bench_json}");
    }
    // An abandoned shutdown is a failed run even though the record was
    // written — CI must see it.
    if !report.drained {
        std::process::exit(3);
    }
}

fn cmd_dash(argv: &[String]) {
    use std::sync::Arc;
    use ttg_obs::{cluster_routes, ClusterAggregator, ClusterConfig, HttpRoutes, ObsHttpServer};

    let (pos, opts) = split_args(argv);
    if !pos.is_empty() {
        fail("dash takes no positional arguments");
    }
    for (n, _) in &opts {
        if !["ranks", "port", "secs", "scrape-ms"].contains(n) {
            fail(&format!("unknown option --{n}"));
        }
    }
    let ranks: String = opt(&opts, "ranks", String::new());
    let targets: Vec<String> = ranks
        .split(',')
        .map(|t| t.trim().to_string())
        .filter(|t| !t.is_empty())
        .collect();
    if targets.is_empty() {
        fail("dash needs --ranks host:port[,host:port...]");
    }
    let port: u16 = opt(&opts, "port", 9190);
    let secs: u64 = opt(&opts, "secs", 0);
    let scrape_ms: u64 = opt(&opts, "scrape-ms", 1_000);

    let agg = ClusterAggregator::new(ClusterConfig {
        targets,
        scrape_interval_ms: scrape_ms.max(1),
        ..ClusterConfig::default()
    });
    let routes = HttpRoutes {
        metrics_prometheus: {
            let a = Arc::clone(&agg);
            Box::new(move || a.prometheus())
        },
        metrics_json: {
            let a = Arc::clone(&agg);
            Box::new(move || {
                serde_json::to_string_pretty(&a.merged_snapshot().to_value())
                    .expect("snapshot serialization")
            })
        },
        // The dash has no rank-local series or trace of its own; the
        // per-rank ones stay on each rank's endpoint.
        timeseries_json: Box::new(|| "{}".to_string()),
        trace_json: Box::new(|| "[]".to_string()),
        healthz: {
            let a = Arc::clone(&agg);
            Box::new(move || a.health())
        },
        dynamic: Some(cluster_routes(Arc::clone(&agg), true)),
    };
    let server = ObsHttpServer::serve(port, routes).unwrap_or_else(|e| {
        eprintln!("cannot bind dash port {port}: {e}");
        std::process::exit(2);
    });
    let mut sampler = agg.start_scraping();
    println!(
        "dash: aggregating {} ranks on http://{}/cluster.json (alerts at /alerts.json)",
        agg.targets().len(),
        server.addr()
    );
    if secs == 0 {
        loop {
            std::thread::sleep(std::time::Duration::from_secs(3600));
        }
    }
    std::thread::sleep(std::time::Duration::from_secs(secs));
    sampler.stop();
    let active = agg.active_alerts();
    println!(
        "dash: {} scrape rounds, skew CoV {:.2}, {} active alerts",
        agg.rounds(),
        agg.skew_cov(),
        active.len()
    );
    drop(server);
}

fn cmd_imbalance(argv: &[String]) {
    use std::sync::Arc;
    use std::time::{Duration, Instant};
    use ttg_net::NetRuntime;
    use ttg_obs::{ClusterAggregator, ClusterConfig};
    use ttg_runtime::{LiveConfig, LiveTelemetry, RuntimeConfig};

    let (pos, opts) = split_args(argv);
    if !pos.is_empty() {
        fail("imbalance takes no positional arguments");
    }
    for (n, _) in &opts {
        if ![
            "ranks",
            "tasks",
            "spin-us",
            "threads",
            "port-base",
            "obs-port-base",
            "scrape-ms",
            "window",
            "bench-json",
        ]
        .contains(n)
        {
            fail(&format!("unknown option --{n}"));
        }
    }
    let nranks: usize = opt(&opts, "ranks", 3).max(2);
    let tasks: u64 = opt(&opts, "tasks", 8_000).max(nranks as u64);
    let spin_us: u64 = opt(&opts, "spin-us", 150);
    let threads: usize = opt(&opts, "threads", 1).max(1);
    let port_base: u16 = opt(&opts, "port-base", 47_520);
    let obs_port_base: u16 = opt(&opts, "obs-port-base", 48_400);
    let scrape_ms: u64 = opt(&opts, "scrape-ms", 100).max(1);
    let window: usize = opt(&opts, "window", 5).max(2);
    let bench_json: String = opt(&opts, "bench-json", String::new());

    // All ranks of a real TCP loopback mesh hosted in this process
    // (the fig13 pattern), with per-task histograms on so the
    // aggregator sees worker_busy_ns and ready_delay.
    let members: Vec<NetRuntime> = (0..nranks)
        .map(|rank| {
            std::thread::spawn(move || {
                let mut rc = RuntimeConfig::optimized(threads);
                rc.histograms = true;
                NetRuntime::connect_tcp(rc, rank, nranks, port_base).expect("loopback TCP mesh")
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|h| h.join().unwrap())
        .collect();

    // One live-telemetry endpoint per rank, exactly as N separate
    // `distributed --serve` processes would expose.
    let mut live: Vec<LiveTelemetry> = (0..nranks)
        .map(|rank| {
            let cfg = LiveConfig {
                sample_ms: scrape_ms.min(100),
                ..LiveConfig::disabled()
            }
            .with_http_port(obs_port_base);
            let t = LiveTelemetry::start(rank, &cfg).unwrap_or_else(|e| {
                eprintln!(
                    "rank {rank}: cannot bind obs port {}: {e}",
                    obs_port_base + rank as u16
                );
                std::process::exit(2);
            });
            t.observe(members[rank].runtime_arc());
            t
        })
        .collect();

    // The aggregator under test: scrapes the per-rank endpoints over
    // real HTTP, exactly like `dash` or an embedded rank 0.
    let agg = ClusterAggregator::new(ClusterConfig {
        targets: (0..nranks)
            .map(|r| format!("127.0.0.1:{}", obs_port_base + r as u16))
            .collect(),
        scrape_interval_ms: scrape_ms,
        window,
        ..ClusterConfig::default()
    });
    let mut scraper = agg.start_scraping();

    // Each task spins for `spin_us` of wall clock wherever it lands.
    for m in &members {
        m.runtime().register_handler(move |ctx, payload| {
            let spin = u64::from_le_bytes(payload[..8].try_into().unwrap());
            ctx.spawn(0, move |_ctx| {
                let t0 = Instant::now();
                while (t0.elapsed().as_micros() as u64) < spin {
                    std::hint::spin_loop();
                }
            });
        });
    }
    let wait_all = |members: &[NetRuntime]| {
        for m in members {
            m.fence();
        }
        for m in members {
            m.wait();
        }
    };
    // Power-law placement: rank r gets a share proportional to
    // 1/(r+1)^2 — for 3 ranks roughly 73% / 18% / 9%, the deliberate
    // hot-rank-0 skew the detectors must flag. A multiplicative hash
    // interleaves the destinations so every rank is concurrently live.
    let weights: Vec<f64> = (0..nranks)
        .map(|r| 1.0 / ((r + 1) * (r + 1)) as f64)
        .collect();
    let total_weight: f64 = weights.iter().sum();
    let thresholds: Vec<u64> = {
        let mut acc = 0.0;
        weights
            .iter()
            .map(|w| {
                acc += w / total_weight;
                (acc * 1_000.0) as u64
            })
            .collect()
    };
    let destination = |i: u64| {
        let u = (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) % 1_000;
        thresholds.iter().position(|&t| u < t).unwrap_or(nranks - 1)
    };
    let scatter = |n: u64| {
        for i in 0..n {
            members[0]
                .runtime()
                .send_msg(destination(i), 0, 0, spin_us.to_le_bytes().to_vec());
        }
    };

    scatter(tasks / 20 + nranks as u64); // warm-up epoch
    wait_all(&members);

    // Track the peak CoV while the skewed epoch runs (it decays once
    // the queues drain, so the final value understates the event).
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let monitor = {
        let agg = Arc::clone(&agg);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut max_cov = 0.0f64;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                max_cov = max_cov.max(agg.skew_cov());
                std::thread::sleep(Duration::from_millis(20));
            }
            max_cov
        })
    };

    let start = Instant::now();
    scatter(tasks);
    wait_all(&members);
    let elapsed = start.elapsed();
    // Let the aggregator observe the drained steady state so alert
    // deactivation is exercised too.
    std::thread::sleep(Duration::from_millis(3 * scrape_ms));
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let max_cov = monitor.join().expect("monitor thread");
    scraper.stop();

    let alerts = agg.alerts();
    let skew_alerts = alerts.iter().filter(|a| a.kind == "skew").count() as u64;
    let straggler_alerts = alerts.iter().filter(|a| a.kind == "straggler").count() as u64;
    let us_per_task = elapsed.as_micros() as f64 / tasks as f64;
    println!(
        "imbalance: {tasks} tasks x {spin_us}us over {nranks} ranks ({threads} threads each) \
         -> {us_per_task:.1} us/task wall"
    );
    println!(
        "detectors: {} scrape rounds, peak load CoV {max_cov:.2}, \
         {skew_alerts} skew + {straggler_alerts} straggler alerts",
        agg.rounds()
    );
    for a in &alerts {
        println!(
            "  [{}] {}{} value {:.2} threshold {:.2} — {}",
            if a.active { "active" } else { "cleared" },
            a.kind,
            a.rank
                .as_deref()
                .map(|r| format!(" rank {r}"))
                .unwrap_or_default(),
            a.value,
            a.threshold,
            a.detail
        );
    }

    for m in &members {
        m.shutdown();
    }
    for t in &mut live {
        t.shutdown();
    }

    if !bench_json.is_empty() {
        let mut rec = BenchRecord::new("imbalance");
        rec.metric("imbalance_us_per_task", us_per_task);
        rec.counter("imbalance_tasks", tasks);
        rec.counter("imbalance_ranks", nranks as u64);
        rec.counter("skew_alerts", skew_alerts);
        rec.counter("straggler_alerts", straggler_alerts);
        rec.counter("skew_cov_pct_max", (max_cov * 100.0) as u64);
        rec.attach_contention();
        if let Err(e) = rec.write(&bench_json) {
            eprintln!("cannot write {bench_json}: {e}");
            std::process::exit(2);
        }
        println!("wrote {bench_json}");
    }
    // The whole point of the drill is that the skew is detected; a run
    // that never fired the alert is a failed run.
    if skew_alerts == 0 {
        eprintln!("error: skewed run fired no skew alert (peak CoV {max_cov:.2})");
        std::process::exit(3);
    }
}

fn cmd_wire(argv: &[String]) {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};
    use ttg_net::NetRuntime;
    use ttg_obs::ClusterConfig;
    use ttg_runtime::{LiveConfig, LiveTelemetry, RuntimeConfig};

    let (pos, opts) = split_args(argv);
    if !pos.is_empty() {
        fail("wire takes no positional arguments");
    }
    for (n, _) in &opts {
        if ![
            "ranks",
            "msgs",
            "payload",
            "threads",
            "port-base",
            "obs-port-base",
            "scrape-ms",
            "delay-ms",
            "delay-from",
            "delay-to",
            "linger-secs",
            "bench-json",
        ]
        .contains(n)
        {
            fail(&format!("unknown option --{n}"));
        }
    }
    let nranks: usize = opt(&opts, "ranks", 3).max(2);
    let msgs: u64 = opt(&opts, "msgs", 4_000).max(1);
    let payload: usize = opt(&opts, "payload", 256).max(8);
    let threads: usize = opt(&opts, "threads", 1).max(1);
    let port_base: u16 = opt(&opts, "port-base", 47_560);
    let obs_port_base: u16 = opt(&opts, "obs-port-base", 48_500);
    let scrape_ms: u64 = opt(&opts, "scrape-ms", 100).max(1);
    let delay_ms: u64 = opt(&opts, "delay-ms", 0);
    let delay_from: usize = opt(&opts, "delay-from", 0);
    let delay_to: usize = opt(&opts, "delay-to", 1);
    let linger_secs: u64 = opt(&opts, "linger-secs", 0);
    let bench_json: String = opt(&opts, "bench-json", String::new());
    if delay_ms > 0 && (delay_from >= nranks || delay_to >= nranks || delay_from == delay_to) {
        fail("--delay-from/--delay-to must name two distinct ranks in the mesh");
    }
    if !ttg_obs::OBS {
        eprintln!("warning: built without the obs feature — stage histograms will be empty");
    }

    // The mesh: every rank of a real TCP loopback job in this process,
    // the fig13 pattern. A fast heartbeat keeps the cumulative-ack
    // cadence (heartbeat/4) in single-digit milliseconds, so a healthy
    // link's ack RTT reads as cadence, not staleness — the baseline the
    // slow-link detector's median needs.
    let members: Vec<NetRuntime> = (0..nranks)
        .map(|rank| {
            std::thread::spawn(move || {
                let mut rc = RuntimeConfig::optimized(threads);
                rc.histograms = true;
                let nc = ttg_net::NetConfig {
                    heartbeat_interval: Duration::from_millis(25),
                    ..ttg_net::NetConfig::default()
                };
                NetRuntime::connect_tcp_with(rc, nc, rank, nranks, port_base)
                    .expect("loopback TCP mesh")
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|h| h.join().unwrap())
        .collect();

    // Per-rank live telemetry; rank 0 embeds the cluster aggregator
    // whose slow-link detector the delay drill must trip, scraping
    // every rank over real HTTP like `dash` — and serving the merged
    // /cluster.json and /alerts.json for external probers.
    let mut live: Vec<LiveTelemetry> = (0..nranks)
        .map(|rank| {
            let mut cfg = LiveConfig {
                sample_ms: scrape_ms.min(100),
                ..LiveConfig::disabled()
            }
            .with_http_port(obs_port_base);
            if rank == 0 {
                cfg.cluster = Some(ClusterConfig {
                    targets: (0..nranks)
                        .map(|r| format!("127.0.0.1:{}", obs_port_base + r as u16))
                        .collect(),
                    scrape_interval_ms: scrape_ms,
                    ..ClusterConfig::default()
                });
            }
            let t = LiveTelemetry::start(rank, &cfg).unwrap_or_else(|e| {
                eprintln!(
                    "rank {rank}: cannot bind obs port {}: {e}",
                    obs_port_base + rank as u16
                );
                std::process::exit(2);
            });
            t.observe(members[rank].runtime_arc());
            t
        })
        .collect();
    let agg = Arc::clone(live[0].cluster().expect("rank 0 embeds the aggregator"));
    let slowlink_k = agg.config().slowlink_consecutive;

    // Handler: count arrivals, no local work — the wire path is the
    // entire cost under measurement.
    let received = Arc::new(AtomicU64::new(0));
    for m in &members {
        let received = Arc::clone(&received);
        m.runtime().register_handler(move |_ctx, _payload| {
            received.fetch_add(1, Ordering::Relaxed);
        });
    }
    let wait_all = |members: &[NetRuntime]| {
        for m in members {
            m.fence();
        }
        for m in members {
            m.wait();
        }
    };
    // All-to-all scatter: every rank streams `n` messages round-robin
    // over its peers, so every directed link carries traffic.
    let scatter = |n: u64| {
        for (r, m) in members.iter().enumerate() {
            let peers: Vec<usize> = (0..nranks).filter(|&p| p != r).collect();
            for i in 0..n {
                let dst = peers[(i as usize) % peers.len()];
                let mut p = vec![0u8; payload];
                p[..8].copy_from_slice(&i.to_le_bytes());
                m.runtime().send_msg(dst, 0, 0, p);
            }
        }
    };

    scatter(msgs / 10 + 1); // warm-up epoch
    wait_all(&members);

    let start = Instant::now();
    scatter(msgs);
    wait_all(&members);
    let elapsed = start.elapsed();
    let total_msgs = msgs * nranks as u64;
    let us_per_msg = elapsed.as_micros() as f64 / total_msgs as f64;

    // The delay drill: install a persistent write-path delay on one
    // directed link, keep that link busy for enough scrape rounds to
    // satisfy the detector's K-consecutive hysteresis, then demand the
    // alert.
    let mut slow_link_alerts = 0u64;
    if delay_ms > 0 {
        members[delay_from]
            .transport()
            .set_link_delay(delay_to, Duration::from_millis(delay_ms));
        let rounds = u64::from(slowlink_k) + 3;
        for _ in 0..rounds {
            // A trickle is enough: each epoch re-arms the link's ack
            // RTT while the scraper takes a round.
            for i in 0..8u64 {
                let mut p = vec![0u8; payload];
                p[..8].copy_from_slice(&i.to_le_bytes());
                members[delay_from].runtime().send_msg(delay_to, 0, 0, p);
            }
            wait_all(&members);
            std::thread::sleep(Duration::from_millis(scrape_ms));
        }
        members[delay_from]
            .transport()
            .set_link_delay(delay_to, Duration::ZERO);
        let link_label = format!("{delay_from}->{delay_to}");
        slow_link_alerts = agg
            .alerts()
            .iter()
            .filter(|a| a.kind == "slow_link" && a.rank.as_deref() == Some(&link_label))
            .count() as u64;
    }
    // Optional linger: keep the mesh, the per-rank telemetry servers,
    // and the scraper alive with a traffic trickle so an external
    // prober (the CI wire-smoke job) can curl /net.json and
    // /cluster.json against live counters.
    if linger_secs > 0 {
        println!("lingering {linger_secs}s for external scrapes");
        let until = Instant::now() + Duration::from_secs(linger_secs);
        while Instant::now() < until {
            scatter(8);
            wait_all(&members);
            std::thread::sleep(Duration::from_millis(scrape_ms));
        }
    }

    // Let the final cumulative acks land so the link lines report
    // settled lag/RTT rather than a mid-drain snapshot.
    std::thread::sleep(Duration::from_millis(60));

    // Per-stage attribution, merged across every rank's runtime.
    let mut snaps = Vec::new();
    for m in &members {
        snaps.push(m.runtime().wire_snapshot());
    }
    let mut merged = snaps.first().cloned().unwrap_or_default();
    for s in snaps.iter().skip(1) {
        merged.merge_stages(s);
    }
    println!(
        "wire: {total_msgs} msgs x {payload}B all-to-all over {nranks} ranks \
         -> {us_per_msg:.1} us/msg wall"
    );
    println!(
        "{:<18} {:>10} {:>9} {:>9} {:>9} {:>9}",
        "stage", "count", "p50_us", "p95_us", "p99_us", "mean_us"
    );
    let us = |ns: u64| ns as f64 / 1_000.0;
    let mut stage_sum_p50_us = 0.0;
    for (name, h) in merged.stages() {
        println!(
            "{:<18} {:>10} {:>9.1} {:>9.1} {:>9.1} {:>9.1}",
            name,
            h.count(),
            us(h.p50()),
            us(h.p95()),
            us(h.p99()),
            h.mean() / 1_000.0
        );
        stage_sum_p50_us += us(h.p50());
    }
    println!(
        "batching: {} writes, p50 {} bytes/write, p50 {} frames/write",
        merged.bytes_per_write.count(),
        merged.bytes_per_write.p50(),
        merged.frames_per_write.p50()
    );
    println!(
        "stage p50 sum {stage_sum_p50_us:.1} us per frame (its corked wait included; the \
         frames of a batch overlap) vs {us_per_msg:.1} us/msg of wall time"
    );
    for l in &merged.links {
        use ttg_obs::wire;
        println!(
            "  link rank0->{}: tx {}B/{}f rx {}B/{}f ack_lag {} ack_rtt {}us resend {}B",
            l.peer,
            l.values[wire::BYTES_TX],
            l.values[wire::FRAMES_TX],
            l.values[wire::BYTES_RX],
            l.values[wire::FRAMES_RX],
            l.values[wire::ACK_LAG_SEQ],
            l.values[wire::ACK_RTT_US],
            l.values[wire::RESEND_BUFFER_BYTES]
        );
    }
    if delay_ms > 0 {
        println!(
            "delay drill: {delay_ms}ms on link {delay_from}->{delay_to}, \
             {} scrape rounds, {slow_link_alerts} slow-link alert(s)",
            agg.rounds()
        );
        for a in agg.alerts() {
            println!(
                "  [{}] {}{} value {:.2} threshold {:.2} — {}",
                if a.active { "active" } else { "cleared" },
                a.kind,
                a.rank
                    .as_deref()
                    .map(|r| format!(" {r}"))
                    .unwrap_or_default(),
                a.value,
                a.threshold,
                a.detail
            );
        }
    }

    for m in &members {
        m.shutdown();
    }
    for t in &mut live {
        t.shutdown();
    }

    if !bench_json.is_empty() {
        let mut rec = BenchRecord::new("wire");
        rec.metric("wire_us_per_msg", us_per_msg);
        rec.metric("wire_encode_p50_us", us(merged.encode.p50()));
        rec.metric("wire_lock_wait_p50_us", us(merged.lock_wait.p50()));
        rec.metric("wire_write_p50_us", us(merged.write.p50()));
        rec.metric("wire_read_decode_p50_us", us(merged.read_decode.p50()));
        rec.metric("wire_dispatch_p50_us", us(merged.dispatch.p50()));
        rec.metric("wire_stage_sum_p50_us", stage_sum_p50_us);
        rec.counter("wire_msgs", total_msgs);
        rec.counter("wire_ranks", nranks as u64);
        rec.counter("wire_writes", merged.bytes_per_write.count());
        rec.counter("slow_link_alerts", slow_link_alerts);
        rec.attach_contention();
        if let Err(e) = rec.write(&bench_json) {
            eprintln!("cannot write {bench_json}: {e}");
            std::process::exit(2);
        }
        println!("wrote {bench_json}");
    }
    // A delay drill that the detector slept through is a failed run.
    if delay_ms > 0 && slow_link_alerts == 0 {
        eprintln!("error: {delay_ms}ms delay on {delay_from}->{delay_to} fired no slow-link alert");
        std::process::exit(3);
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("analyze") => cmd_analyze(&argv[1..]),
        Some("diff") => cmd_diff(&argv[1..]),
        Some("flame") => cmd_flame(&argv[1..]),
        Some("serve") => cmd_serve(&argv[1..]),
        Some("dash") => cmd_dash(&argv[1..]),
        Some("imbalance") => cmd_imbalance(&argv[1..]),
        Some("wire") => cmd_wire(&argv[1..]),
        Some(other) => fail(&format!("unknown subcommand {other}")),
        None => fail("missing subcommand"),
    }
}
