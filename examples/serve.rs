//! Graph serving: a resident runtime answering a stream of requests.
//!
//! Compiles two graph templates, starts a [`ttg_serve::ServeEngine`]
//! over one shared runtime, and exposes the serving HTTP API:
//!
//! ```text
//! cargo run --release -p ttg-examples --bin serve -- --port 8080
//! curl -s -X POST localhost:8080/submit \
//!      -d '{"tenant":"acme","template":"sum-squares","input":{"n":64}}'
//! curl -s localhost:8080/poll/1
//! curl -s localhost:8080/result/1
//! curl -s localhost:8080/tenants.json
//! curl -s localhost:8080/metrics | grep serve_
//! ```
//!
//! Flags: `--port <p>` (default 8080, `0` = ephemeral), `--demo` (also
//! drive a burst of local submissions from two tenants),
//! `--serve-secs <s>` (exit after s seconds; default: serve forever),
//! and `--slo-ms <ms>` (per-tenant SLO target; breaching instances
//! land in `/slow.json` and `/instance/<id>/trace.json` when built
//! with `--features obs`).
//!
//! The deliberately slow `nap` template (input `{"ms": N}` sleeps N ms
//! in a task body) exists to demonstrate SLO breach tracing. Exits
//! non-zero if shutdown abandons instances.

use serde_json::Value;
use std::sync::Arc;
use std::time::Duration;
use ttg_core::{Edge, GraphTemplate};
use ttg_runtime::{Runtime, RuntimeConfig};
use ttg_serve::{serve_routes, ServeConfig, ServeEngine};

/// `square(k)` sends k² to a single aggregating `sum` task which emits
/// the total — a fan-in graph, sized by the request's `n`.
fn sum_squares_template() -> GraphTemplate {
    GraphTemplate::compile("sum-squares", |graph, ctx| {
        let n = ctx
            .input
            .get("n")
            .and_then(Value::as_u64)
            .unwrap_or(16)
            .max(1);
        let squares: Edge<u64, u64> = Edge::new("squares");
        let square = graph
            .tt::<u64>("square")
            .output(&squares)
            .build(|k, _in, out| out.send(0, 0u64, *k * *k));
        let sink = ctx.sink.clone();
        let _sum = graph
            .tt::<u64>("sum")
            .input_aggregator_with::<u64>(&squares, move |_| n as usize)
            .build(move |_k, inputs, _out| {
                let total: u64 = inputs.aggregate::<u64>(0).iter().sum();
                sink.emit("total", Value::UInt(total));
            });
        Box::new(move || {
            for k in 0..n {
                square.invoke(k);
            }
        })
    })
    .expect("sum-squares template is valid")
}

/// A two-stage pipeline: `double(k)` → `emit(k)`, one result per key.
fn doubler_template() -> GraphTemplate {
    GraphTemplate::compile("doubler", |graph, ctx| {
        let n = ctx
            .input
            .get("n")
            .and_then(Value::as_u64)
            .unwrap_or(4)
            .max(1);
        let edge: Edge<u64, u64> = Edge::new("doubled");
        let double = graph
            .tt::<u64>("double")
            .output(&edge)
            .build(|k, _in, out| out.send(0, *k, *k * 2));
        let sink = ctx.sink.clone();
        let _emit = graph
            .tt::<u64>("emit")
            .input::<u64>(&edge)
            .build(move |k, inputs, _out| {
                sink.emit(format!("doubled/{k}"), Value::UInt(*inputs.get::<u64>(0)));
            });
        Box::new(move || {
            for k in 0..n {
                double.invoke(k);
            }
        })
    })
    .expect("doubler template is valid")
}

/// `nap` sleeps the request's `ms` inside one task body — a
/// deliberately slow template for demonstrating SLO breach tracing.
fn nap_template() -> GraphTemplate {
    GraphTemplate::compile("nap", |graph, ctx| {
        let ms = ctx.input.get("ms").and_then(Value::as_u64).unwrap_or(50);
        let sink = ctx.sink.clone();
        let nap = graph.tt::<u64>("nap").build(move |_k, _in, _out| {
            std::thread::sleep(Duration::from_millis(ms));
            sink.emit("slept_ms", Value::UInt(ms));
        });
        Box::new(move || nap.invoke(0))
    })
    .expect("nap template is valid")
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let flag = |name: &str| args.iter().position(|a| a == name);
    let port: u16 = flag("--port")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(8080);
    let demo = flag("--demo").is_some();
    let serve_secs: Option<u64> = flag("--serve-secs")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok());
    let slo_ms: Option<u64> = flag("--slo-ms")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok());

    // Trace on: span recording feeds the trace routes; without
    // `obs` the stamps compile to no-ops and this only enables
    // the chrome-trace ring.
    let mut rc = RuntimeConfig::optimized(4);
    rc.trace = true;
    let runtime = Arc::new(Runtime::new(rc));
    let mut config = ServeConfig::default();
    if let Some(ms) = slo_ms {
        config.slo_target = Duration::from_millis(ms);
    }
    let engine = Arc::new(ServeEngine::new(runtime, config));
    engine.register_template(sum_squares_template());
    engine.register_template(doubler_template());
    engine.register_template(nap_template());

    let server =
        ttg_obs::ObsHttpServer::serve(port, serve_routes(Arc::clone(&engine))).expect("bind port");
    println!("serving on http://127.0.0.1:{}", server.port());
    println!("templates: {:?}", engine.template_names());

    if demo {
        println!("demo burst: 2 tenants x 20 submissions each");
        let ids: Vec<u64> = (0..40u64)
            .map(|i| {
                let (tenant, template) = if i % 2 == 0 {
                    ("acme", "sum-squares")
                } else {
                    ("globex", "doubler")
                };
                let input = Value::Object(vec![("n".to_string(), Value::UInt(8 + i % 8))]);
                engine.submit(tenant, template, input).expect("admitted")
            })
            .collect();
        for id in ids {
            let view = engine
                .wait_result(id, Duration::from_secs(10))
                .expect("demo instance finishes");
            println!(
                "  instance {id}: {} ({} results)",
                view.status.wire_name(),
                view.results.len()
            );
        }
        println!(
            "{}",
            serde_json::to_string_pretty(&engine.tenants_json()).unwrap()
        );
    }

    match serve_secs {
        Some(secs) => std::thread::sleep(Duration::from_secs(secs)),
        None => {
            if !demo {
                println!("serving until killed (pass --serve-secs to bound)");
            }
            loop {
                std::thread::sleep(Duration::from_secs(3600));
            }
        }
    }
    let report = engine.shutdown(Duration::from_secs(5));
    println!(
        "shutdown: drained={} abandoned={:?}",
        report.drained, report.abandoned
    );
    if !report.drained {
        std::process::exit(1);
    }
}
