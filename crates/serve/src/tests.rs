//! Engine-level tests: isolation, admission control, fairness, the
//! acceptance-criteria load shape, shutdown drain, and the HTTP API
//! end-to-end over a real socket.

use crate::{serve_routes, InstanceStatus, ServeConfig, ServeEngine, ServeError};
use serde_json::Value;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use ttg_core::GraphTemplate;
use ttg_runtime::{Runtime, RuntimeConfig};

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// `stage(k)` doubles, `collect(k)` emits; seeded with `n` keys.
fn doubling_template() -> GraphTemplate {
    GraphTemplate::compile("doubling", |graph, ctx| {
        let edge: ttg_core::Edge<u64, u64> = ttg_core::Edge::new("doubled");
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
                    sink.emit(format!("collect/{k}"), Value::UInt(*inputs.get::<u64>(0)));
                });
        let n = ctx.input.get("n").and_then(Value::as_u64).unwrap_or(1);
        Box::new(move || {
            for k in 0..n {
                stage.invoke(k);
            }
        })
    })
    .expect("valid template")
}

/// Panics in the task body when the input says `{"die": true}`.
fn fragile_template() -> GraphTemplate {
    GraphTemplate::compile("fragile", |graph, ctx| {
        let sink = ctx.sink.clone();
        let die = ctx
            .input
            .get("die")
            .and_then(Value::as_bool)
            .unwrap_or(false);
        let tt = graph.tt::<u64>("work").build(move |k, _in, _out| {
            if die {
                panic!("requested failure");
            }
            sink.emit(format!("ok/{k}"), Value::UInt(*k));
        });
        Box::new(move || tt.invoke(0))
    })
    .expect("valid template")
}

/// Each task sleeps `ms` from the input — for saturating the engine.
/// Building the instance itself takes `build_ms` (default 0), which
/// holds it — on the thread that admitted it — between the queue pop
/// and `running`.
fn slow_template() -> GraphTemplate {
    GraphTemplate::compile("slow", |graph, ctx| {
        let sink = ctx.sink.clone();
        let ms = ctx.input.get("ms").and_then(Value::as_u64).unwrap_or(10);
        let build_ms = ctx.input.get("build_ms").and_then(Value::as_u64);
        std::thread::sleep(Duration::from_millis(build_ms.unwrap_or(0)));
        let tt = graph.tt::<u64>("sleep").build(move |k, _in, _out| {
            std::thread::sleep(Duration::from_millis(ms));
            sink.emit(format!("slept/{k}"), Value::UInt(ms));
        });
        Box::new(move || tt.invoke(0))
    })
    .expect("valid template")
}

/// Spins (yielding) until `cond` holds; panics after 30 s.
fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::yield_now();
    }
}

/// Runs `body` on its own thread and fails the test if it has not
/// returned within 30 s — a lost wake-up hangs, it does not time out.
fn with_watchdog(body: impl FnOnce() + Send + 'static) {
    let (done, finished) = std::sync::mpsc::channel();
    let runner = std::thread::spawn(move || {
        body();
        let _ = done.send(());
    });
    match finished.recv_timeout(Duration::from_secs(30)) {
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => panic!("watchdog: hung for 30 s"),
        // Finished, or disconnected because the body panicked.
        _ => runner.join().expect("test body panicked"),
    }
}

fn engine(threads: usize, config: ServeConfig) -> Arc<ServeEngine> {
    let rt = Arc::new(Runtime::new(RuntimeConfig::optimized(threads)));
    let engine = Arc::new(ServeEngine::new(rt, config));
    engine.register_template(doubling_template());
    engine.register_template(fragile_template());
    engine.register_template(slow_template());
    engine
}

#[test]
fn submit_poll_result_roundtrip() {
    let e = engine(2, ServeConfig::default());
    let id = e
        .submit("acme", "doubling", obj(vec![("n", Value::UInt(3))]))
        .unwrap();
    let view = e.wait_result(id, Duration::from_secs(5)).unwrap();
    assert_eq!(view.status, InstanceStatus::Completed);
    assert_eq!(view.results.len(), 3);
    assert_eq!(e.poll(id).unwrap(), InstanceStatus::Completed);
    // Results stay fetchable until evicted.
    assert_eq!(e.result(id).unwrap().results.len(), 3);
    assert_eq!(
        e.poll(9999),
        Err(ServeError::UnknownInstance(9999)),
        "unknown id is typed"
    );
    assert!(matches!(
        e.submit("acme", "no-such", Value::Null),
        Err(ServeError::UnknownTemplate(_))
    ));
}

#[test]
fn panicking_instance_is_isolated_from_siblings() {
    // Satellite: a panicking instance fails; a sibling submitted
    // concurrently completes; a third submission afterwards works.
    let e = engine(2, ServeConfig::default());
    let bad = e
        .submit("acme", "fragile", obj(vec![("die", Value::Bool(true))]))
        .unwrap();
    let good = e.submit("globex", "fragile", Value::Null).unwrap();
    let bad_view = e.wait_result(bad, Duration::from_secs(5)).unwrap();
    assert!(
        matches!(&bad_view.status, InstanceStatus::Failed(msg) if msg.contains("panicked")),
        "bad instance failed: {:?}",
        bad_view.status
    );
    let good_view = e.wait_result(good, Duration::from_secs(5)).unwrap();
    assert_eq!(good_view.status, InstanceStatus::Completed);
    assert_eq!(good_view.results.len(), 1);

    // Third submission: the runtime is not poisoned.
    let third = e.submit("acme", "fragile", Value::Null).unwrap();
    let third_view = e.wait_result(third, Duration::from_secs(5)).unwrap();
    assert_eq!(third_view.status, InstanceStatus::Completed);

    let acme = e.tenant_counters("acme").unwrap();
    assert_eq!(acme.failed, 1);
    assert_eq!(acme.completed, 1);
    let globex = e.tenant_counters("globex").unwrap();
    assert_eq!(globex.completed, 1);
    assert_eq!(globex.failed, 0);
}

#[test]
fn admission_control_rejects_when_saturated_without_harming_other_tenants() {
    // Satellite: tiny queue + single-slot in-flight budget; saturate
    // tenant A; overflow submissions get typed Overloaded and count as
    // rejections; tenant B's submission still completes.
    let e = engine(
        2,
        ServeConfig {
            queue_capacity: 2,
            max_inflight: 1,
            ..ServeConfig::default()
        },
    );
    let slow_input = || obj(vec![("ms", Value::UInt(40))]);
    let mut admitted = vec![e.submit("acme", "slow", slow_input()).unwrap()];
    // Fill the queue past capacity; at least one must be rejected
    // (at most max_inflight=1 leaves the queue at a time).
    let mut rejections = 0;
    for _ in 0..8 {
        match e.submit("acme", "slow", slow_input()) {
            Ok(id) => admitted.push(id),
            Err(ServeError::Overloaded { tenant, capacity }) => {
                assert_eq!(tenant, "acme");
                assert_eq!(capacity, 2);
                rejections += 1;
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    assert!(
        rejections > 0,
        "queue of 2 cannot admit 9 instant submissions"
    );
    assert_eq!(
        e.tenant_counters("acme").unwrap().rejected,
        rejections,
        "rejections are counted per tenant"
    );

    // The other tenant is unaffected by acme's saturation.
    let b = e
        .submit("globex", "doubling", obj(vec![("n", Value::UInt(1))]))
        .unwrap();
    let view = e.wait_result(b, Duration::from_secs(10)).unwrap();
    assert_eq!(view.status, InstanceStatus::Completed);
    assert_eq!(e.tenant_counters("globex").unwrap().rejected, 0);

    // Everything admitted for acme eventually completes too.
    for id in admitted {
        assert_eq!(
            e.wait_result(id, Duration::from_secs(10)).unwrap().status,
            InstanceStatus::Completed
        );
    }
}

#[test]
fn acceptance_load_sequential_and_concurrent_across_tenants() {
    // The ISSUE's acceptance shape: >= 100 sequential and >= 8
    // concurrent instances across >= 2 tenants on one resident
    // runtime, no full-runtime quiescence (the engine never calls
    // Runtime::wait between requests).
    let e = engine(
        4,
        ServeConfig {
            max_inflight: 16,
            queue_capacity: 256,
            result_capacity: 64,
            ..ServeConfig::default()
        },
    );
    for i in 0..100u64 {
        let tenant = if i % 2 == 0 { "even" } else { "odd" };
        let id = e
            .submit(tenant, "doubling", obj(vec![("n", Value::UInt(2))]))
            .unwrap();
        let view = e.wait_result(id, Duration::from_secs(5)).unwrap();
        assert_eq!(view.status, InstanceStatus::Completed, "sequential {i}");
        assert_eq!(view.results.len(), 2);
    }
    let ids: Vec<(u64, &str)> = (0..12u64)
        .map(|i| {
            let tenant = if i % 2 == 0 { "even" } else { "odd" };
            (
                e.submit(tenant, "doubling", obj(vec![("n", Value::UInt(4))]))
                    .unwrap(),
                tenant,
            )
        })
        .collect();
    for (id, tenant) in ids {
        let view = e.wait_result(id, Duration::from_secs(10)).unwrap();
        assert_eq!(
            view.status,
            InstanceStatus::Completed,
            "concurrent {id} ({tenant})"
        );
        assert_eq!(view.results.len(), 4);
    }
    let even = e.tenant_counters("even").unwrap();
    let odd = e.tenant_counters("odd").unwrap();
    assert_eq!(even.completed + odd.completed, 112);
    assert_eq!(even.failed + odd.failed, 0);

    // Per-tenant metrics surface in the snapshot.
    let snap = e.metrics();
    let prom = snap.to_prometheus("ttg");
    assert!(prom.contains("ttg_serve_completed{tenant=\"even\"}"));
    assert!(prom.contains("ttg_serve_completed{tenant=\"odd\"}"));
    assert!(prom.contains("ttg_serve_latency_seconds_count{tenant=\"even\"}"));
}

#[test]
fn result_store_evicts_lru() {
    let e = engine(
        2,
        ServeConfig {
            result_capacity: 4,
            ..ServeConfig::default()
        },
    );
    let ids: Vec<u64> = (0..8)
        .map(|_| {
            let id = e
                .submit("acme", "doubling", obj(vec![("n", Value::UInt(1))]))
                .unwrap();
            e.wait_result(id, Duration::from_secs(5)).unwrap();
            id
        })
        .collect();
    // Oldest results are gone (410-shaped error); newest retained.
    assert!(matches!(
        e.result(ids[0]),
        Err(ServeError::ResultEvicted(id)) if id == ids[0]
    ));
    assert!(e.result(*ids.last().unwrap()).is_ok());
    // Status survives eviction.
    assert_eq!(e.poll(ids[0]).unwrap(), InstanceStatus::Completed);
}

#[test]
fn shutdown_drains_queued_work() {
    let e = engine(2, ServeConfig::default());
    let ids: Vec<u64> = (0..6)
        .map(|_| {
            e.submit("acme", "slow", obj(vec![("ms", Value::UInt(5))]))
                .unwrap()
        })
        .collect();
    let report = e.shutdown(Duration::from_secs(10));
    assert!(
        report.drained,
        "drain within deadline: {:?}",
        report.abandoned
    );
    assert!(report.abandoned.is_empty());
    for id in ids {
        assert_eq!(e.poll(id).unwrap(), InstanceStatus::Completed);
    }
    // After shutdown: typed refusal, idempotent re-shutdown.
    assert_eq!(
        e.submit("acme", "doubling", Value::Null),
        Err(ServeError::ShuttingDown)
    );
    let again = e.shutdown(Duration::from_secs(1));
    assert!(again.drained);
}

/// An instance that was admitted but is still being built — here on the
/// submitting thread — is in neither the queue nor `running`; shutdown
/// must not take that gap for "drained" and abandon the instance the
/// moment it starts.
#[test]
fn shutdown_waits_for_an_instance_still_being_built() {
    let e = engine(2, ServeConfig::default());
    let input = obj(vec![
        ("ms", Value::UInt(30)),
        ("build_ms", Value::UInt(150)),
    ]);
    let submitter = {
        let e = Arc::clone(&e);
        std::thread::spawn(move || e.submit("acme", "slow", input).unwrap())
    };
    // Counted in flight from the moment it is admitted, before the build.
    wait_until("the admission", || {
        e.tenant_load() == vec![("acme".to_string(), 0, 1)]
    });
    let report = e.shutdown(Duration::from_secs(10));
    let id = submitter.join().unwrap();
    assert!(report.drained, "abandoned: {:?}", report.abandoned);
    assert_eq!(e.poll(id).unwrap(), InstanceStatus::Completed);
}

#[test]
fn shutdown_deadline_abandons_and_reports_ids() {
    let e = engine(
        2,
        ServeConfig {
            max_inflight: 1,
            queue_capacity: 16,
            ..ServeConfig::default()
        },
    );
    // One long-running instance plus queued work that cannot start
    // behind it within the deadline.
    let running = e
        .submit("acme", "slow", obj(vec![("ms", Value::UInt(300))]))
        .unwrap();
    wait_until("the first instance to start", || {
        e.poll(running).unwrap() == InstanceStatus::Running
    });
    let queued: Vec<u64> = (0..3)
        .map(|_| {
            e.submit("acme", "slow", obj(vec![("ms", Value::UInt(300))]))
                .unwrap()
        })
        .collect();
    let report = e.shutdown(Duration::from_millis(30));
    assert!(!report.drained);
    assert!(
        report.abandoned.contains(&running),
        "running instance abandoned: {:?}",
        report.abandoned
    );
    for id in &queued {
        assert!(report.abandoned.contains(id), "queued {id} abandoned");
        assert_eq!(e.poll(*id).unwrap(), InstanceStatus::Abandoned);
    }
    assert_eq!(e.abandoned(), report.abandoned);
    // Abandoned ids surface in the engine's metrics.
    let prom = e.metrics().to_prometheus("ttg");
    assert!(prom.contains("ttg_serve_abandoned 4"));
}

fn http_request(port: u16, method: &str, path: &str, body: Option<&str>) -> (u16, String) {
    let target = format!("127.0.0.1:{port}");
    ttg_obs::http::http_request(&target, method, path, body, Duration::from_secs(10))
        .expect("request")
}

#[test]
fn http_api_end_to_end() {
    let e = engine(2, ServeConfig::default());
    let server = ttg_obs::ObsHttpServer::serve(0, serve_routes(Arc::clone(&e))).expect("bind");
    let port = server.port();

    // Submit over the wire.
    let (status, body) = http_request(
        port,
        "POST",
        "/submit",
        Some(r#"{"tenant": "acme", "template": "doubling", "input": {"n": 2}}"#),
    );
    assert_eq!(status, 200, "submit: {body}");
    let v: Value = serde_json::from_str(&body).unwrap();
    let id = v.get("id").and_then(Value::as_u64).expect("id in response");

    // Completed as the client sees it, once the tenant is idle again.
    wait_until("the instance to finish", || {
        e.tenant_load() == vec![("acme".to_string(), 0, 0)]
    });
    let (status, body) = http_request(port, "GET", &format!("/poll/{id}"), None);
    assert_eq!(status, 200, "poll: {body}");
    let v: Value = serde_json::from_str(&body).unwrap();
    assert_eq!(v.get("status").and_then(Value::as_str), Some("completed"));

    // Fetch the result.
    let (status, body) = http_request(port, "GET", &format!("/result/{id}"), None);
    assert_eq!(status, 200, "result: {body}");
    let v: Value = serde_json::from_str(&body).unwrap();
    assert_eq!(v.get("results").unwrap().as_array().unwrap().len(), 2);

    // Error mapping: unknown instance 404, malformed submit 400,
    // unknown template 404, result-not-ready 202.
    let (status, _) = http_request(port, "GET", "/poll/424242", None);
    assert_eq!(status, 404);
    let (status, _) = http_request(port, "POST", "/submit", Some("{nope"));
    assert_eq!(status, 400);
    let (status, _) = http_request(
        port,
        "POST",
        "/submit",
        Some(r#"{"tenant": "acme", "template": "missing"}"#),
    );
    assert_eq!(status, 404);
    let (status, body) = http_request(
        port,
        "POST",
        "/submit",
        Some(r#"{"tenant": "acme", "template": "slow", "input": {"ms": 200}}"#),
    );
    assert_eq!(status, 200);
    let v: Value = serde_json::from_str(&body).unwrap();
    let slow_id = v.get("id").and_then(Value::as_u64).unwrap();
    let (status, _) = http_request(port, "GET", &format!("/result/{slow_id}"), None);
    assert_eq!(status, 202, "in-flight result is 202");
    e.wait_result(slow_id, Duration::from_secs(5)).unwrap();

    // Tenants view + per-tenant Prometheus lines through the server.
    let (status, body) = http_request(port, "GET", "/tenants.json", None);
    assert_eq!(status, 200);
    let v: Value = serde_json::from_str(&body).unwrap();
    let acme = v.get("tenants").unwrap().get("acme").expect("acme listed");
    assert!(acme.get("submitted").unwrap().as_u64().unwrap() >= 2);
    let (status, metrics) = http_request(port, "GET", "/metrics", None);
    assert_eq!(status, 200);
    // Identity labels (rank) merge with the per-tenant label.
    assert!(metrics.contains("tenant=\"acme\""), "{metrics}");
    assert!(
        metrics.contains("# TYPE ttg_serve_submitted counter"),
        "{metrics}"
    );
    assert!(
        metrics.contains("ttg_tasks_executed"),
        "runtime metrics merged in"
    );

    // healthz: ok while serving, draining + abandoned after shutdown.
    let (status, body) = http_request(port, "GET", "/healthz", None);
    assert_eq!(status, 200, "{body}");
    let report = e.shutdown(Duration::from_secs(5));
    assert!(report.drained);
    let (status, body) = http_request(port, "GET", "/healthz", None);
    assert_eq!(status, 200, "clean drain stays healthy: {body}");
    let v: Value = serde_json::from_str(&body).unwrap();
    assert_eq!(v.get("draining").unwrap().as_bool(), Some(true));
    assert_eq!(v.get("abandoned").unwrap().as_array().unwrap().len(), 0);
}

/// Tenant names come from `/submit` bodies unchecked, so the text
/// exposition escapes them: a tenant holding a quote, a backslash and
/// a newline appears escaped on every `ttg_serve_*` line, and no line
/// is split by a raw newline.
#[test]
fn metrics_escape_tenant_label_values() {
    let e = engine(2, ServeConfig::default());
    let server = ttg_obs::ObsHttpServer::serve(0, serve_routes(Arc::clone(&e))).expect("bind");
    let body = r#"{"tenant": "q\"t\\s\nn", "template": "doubling", "input": {"n": 1}}"#;
    let (status, body) = http_request(server.port(), "POST", "/submit", Some(body));
    assert_eq!(status, 200, "submit: {body}");
    let tenant = "q\"t\\s\nn";
    wait_until("the instance to finish", || {
        e.tenant_load() == vec![(tenant.to_string(), 0, 0)]
    });
    let (status, metrics) = http_request(server.port(), "GET", "/metrics", None);
    assert_eq!(status, 200);
    for line in metrics.lines() {
        assert!(
            line.starts_with('#') || line.starts_with("ttg_"),
            "split: {line}"
        );
    }
    let tenant_lines: Vec<&str> = metrics
        .lines()
        .filter(|l| l.starts_with("ttg_serve_") && l.contains("tenant="))
        .collect();
    for line in &tenant_lines {
        assert!(line.contains(r#"tenant="q\"t\\s\nn""#), "{line}");
    }
    assert!(
        tenant_lines.len() >= 4,
        "per-tenant series present:\n{metrics}"
    );
}

/// A scrape of an engine that has served a thousand tenants: every
/// tenant's series is there, each family's TYPE line is written once,
/// and the labeled counters, pushed tenant by tenant between the
/// latency histograms, still render as one group before them.
#[test]
fn metrics_scrape_of_a_thousand_tenants() {
    const TENANTS: usize = 1_000;
    let e = engine(2, ServeConfig::default());
    let server = ttg_obs::ObsHttpServer::serve(0, serve_routes(Arc::clone(&e))).expect("bind");
    for t in 0..TENANTS {
        let input = obj(vec![("n", Value::UInt(1))]);
        e.submit(&format!("t{t:04}"), "doubling", input).unwrap();
    }
    wait_until("every instance to finish", || {
        e.tenant_load()
            .iter()
            .all(|&(_, queued, inflight)| queued + inflight == 0)
    });
    let (status, metrics) = http_request(server.port(), "GET", "/metrics", None);
    assert_eq!(status, 200);
    let lines: Vec<&str> = metrics.lines().collect();
    let submitted: Vec<&str> = lines
        .iter()
        .copied()
        .filter(|l| l.starts_with("ttg_serve_submitted{"))
        .collect();
    let expected: Vec<String> = (0..TENANTS)
        .map(|t| format!("ttg_serve_submitted{{rank=\"0\",tenant=\"t{t:04}\"}} 1"))
        .collect();
    assert_eq!(submitted, expected);
    for family in [
        "# TYPE ttg_serve_submitted counter",
        "# TYPE ttg_serve_latency_seconds histogram",
    ] {
        assert_eq!(
            lines.iter().filter(|l| **l == family).count(),
            1,
            "{family}"
        );
    }
    let last_counter = lines
        .iter()
        .rposition(|l| l.starts_with("ttg_serve_failed{"));
    let first_bucket = lines
        .iter()
        .position(|l| l.starts_with("ttg_serve_latency_seconds_bucket{"));
    assert!(last_counter.unwrap() < first_bucket.unwrap());
    let count_lines = lines
        .iter()
        .filter(|l| l.starts_with("ttg_serve_latency_seconds_count{"));
    assert_eq!(count_lines.count(), TENANTS);

    let (status, json) = http_request(server.port(), "GET", "/metrics.json", None);
    assert_eq!(status, 200);
    let v: Value = serde_json::from_str(&json).unwrap();
    let labeled = v
        .get("labeled_histograms")
        .and_then(Value::as_array)
        .unwrap();
    assert_eq!(labeled.len(), TENANTS);
}

/// One task that first waits for `gate` to open, then appends its
/// tenant to `order` — completion order, made observable.
fn gated_template(
    gate: Arc<(Mutex<bool>, Condvar)>,
    order: Arc<Mutex<Vec<String>>>,
) -> GraphTemplate {
    GraphTemplate::compile("gated", move |graph, ctx| {
        let (gate, order) = (Arc::clone(&gate), Arc::clone(&order));
        let tenant = ctx.tenant.to_string();
        let tt = graph.tt::<u64>("gated").build(move |_, _, _| {
            let mut open = gate.0.lock().unwrap();
            while !*open {
                open = gate.1.wait(open).unwrap();
            }
            order.lock().unwrap().push(tenant.clone());
        });
        Box::new(move || tt.invoke(0))
    })
    .expect("valid template")
}

#[test]
fn round_robin_interleaves_tenants_under_contention() {
    // With a single in-flight slot, admissions must alternate between
    // two saturated tenants rather than draining one queue first.
    let e = engine(
        2,
        ServeConfig {
            max_inflight: 1,
            queue_capacity: 16,
            ..ServeConfig::default()
        },
    );
    // The first instance holds the slot until both queues are full.
    let gate = Arc::new((Mutex::new(false), Condvar::new()));
    let order = Arc::new(Mutex::new(Vec::new()));
    e.register_template(gated_template(Arc::clone(&gate), Arc::clone(&order)));
    let a: Vec<u64> = (0..4)
        .map(|_| e.submit("a", "gated", Value::Null).unwrap())
        .collect();
    let b: Vec<u64> = (0..4)
        .map(|_| e.submit("b", "gated", Value::Null).unwrap())
        .collect();
    assert_eq!(
        e.tenant_load(),
        vec![("a".to_string(), 3, 1), ("b".to_string(), 4, 0)]
    );
    *gate.0.lock().unwrap() = true;
    gate.1.notify_all();
    for id in a.iter().chain(b.iter()) {
        e.wait_result(*id, Duration::from_secs(10)).unwrap();
    }
    // Both tenants completed everything; fairness kept either side
    // from starving (checked structurally: equal completion counts).
    assert_eq!(e.tenant_counters("a").unwrap().completed, 4);
    assert_eq!(e.tenant_counters("b").unwrap().completed, 4);
    // One slot: completion order is admission order, and it alternates.
    assert_eq!(
        *order.lock().unwrap(),
        ["a", "b", "a", "b", "a", "b", "a", "b"]
    );
}

/// An instance that finishes before `start` returns — no task at all,
/// or a build that panicked — completes on the submitting thread. Its
/// hook must find it (it was published before it was started), finalize
/// it exactly once and give it the right status.
#[test]
fn instances_that_finish_inside_start_finalize_exactly_once() {
    with_watchdog(|| {
        let e = engine(2, ServeConfig::default());
        e.register_template(
            GraphTemplate::compile("hostile", |graph, ctx| {
                assert!(ctx.input.get("boom").is_none(), "hostile input");
                let tt = graph.tt::<u64>("never").build(|_, _, _| {});
                Box::new(move || drop(tt))
            })
            .expect("valid template"),
        );
        for _ in 0..10_000 {
            let id = e
                .submit("empty", "doubling", obj(vec![("n", Value::UInt(0))]))
                .unwrap();
            // Finished by the time `submit` returned: no wait.
            let view = e.result(id).unwrap();
            assert_eq!(view.status, InstanceStatus::Completed);
            assert!(view.results.is_empty());
        }
        for _ in 0..1_000 {
            let id = e
                .submit("hostile", "hostile", obj(vec![("boom", Value::Bool(true))]))
                .unwrap();
            match e.result(id).unwrap().status {
                InstanceStatus::Failed(msg) => assert!(msg.contains("hostile input"), "{msg}"),
                other => panic!("expected a failed build, got {other:?}"),
            }
        }
        let empty = e.tenant_counters("empty").unwrap();
        assert_eq!(
            (empty.completed, empty.failed, empty.inflight),
            (10_000, 0, 0)
        );
        let hostile = e.tenant_counters("hostile").unwrap();
        assert_eq!((hostile.completed, hostile.failed), (0, 1_000));
    });
}

/// Four clients saturate a two-slot engine. Admission has no thread and
/// no time-out behind it any more: if a path that frees budget ever
/// failed to admit the next submission, this test would hang.
#[test]
fn saturated_clients_lose_no_wakeup() {
    with_watchdog(|| {
        const TENANTS: [&str; 3] = ["a", "b", "c"];
        let e = engine(
            2,
            ServeConfig {
                max_inflight: 2,
                queue_capacity: 8,
                // Clients fetch only after their last submit: room for
                // every result, or a client that is descheduled finds
                // its first ones evicted (seen at the default 256).
                result_capacity: 4 * 2_000,
                ..ServeConfig::default()
            },
        );
        let clients: Vec<_> = (0..4usize)
            .map(|c| {
                let e = Arc::clone(&e);
                std::thread::spawn(move || {
                    let mut accepted = Vec::new();
                    for i in 0..2_000 {
                        let tenant = TENANTS[(c + i) % 3];
                        match e.submit(tenant, "doubling", obj(vec![("n", Value::UInt(2))])) {
                            Ok(id) => accepted.push(id),
                            Err(ServeError::Overloaded { capacity, .. }) => assert_eq!(capacity, 8),
                            Err(other) => panic!("unexpected rejection: {other}"),
                        }
                    }
                    for id in &accepted {
                        let view = e.wait_result(*id, Duration::from_secs(30)).unwrap();
                        assert_eq!(view.status, InstanceStatus::Completed, "instance {id}");
                    }
                    accepted
                })
            })
            .collect();
        let mut accepted: Vec<u64> = clients
            .into_iter()
            .flat_map(|c| c.join().expect("client panicked"))
            .collect();
        let total = accepted.len() as u64;
        accepted.sort_unstable();
        accepted.dedup();
        assert_eq!(accepted.len() as u64, total, "ids are unique");
        // Exactly once: every accepted id was counted completed, no more.
        let counters: Vec<_> = TENANTS
            .iter()
            .map(|t| e.tenant_counters(t).unwrap())
            .collect();
        assert_eq!(counters.iter().map(|c| c.completed).sum::<u64>(), total);
        assert_eq!(counters.iter().map(|c| c.submitted).sum::<u64>(), total);
        assert_eq!(counters.iter().map(|c| c.failed).sum::<u64>(), 0);
        assert!(counters.iter().all(|c| c.completed > 0), "{counters:?}");
        // Idle at the end: nothing queued, nothing in flight.
        assert!(e.tenant_load().iter().all(|(_, q, r)| (*q, *r) == (0, 0)));
        let view = e.tenants_json();
        assert_eq!(view.get("inflight_total").and_then(Value::as_u64), Some(0));
    });
}

/// `shutdown` with no grace racing completions: whatever the
/// interleaving, every accepted instance is either finished or reported
/// abandoned — never both, never neither — by the time it returns.
#[test]
fn shutdown_racing_completions_accounts_for_every_instance() {
    with_watchdog(|| {
        let rt = Arc::new(Runtime::new(RuntimeConfig::optimized(2)));
        for round in 0..200 {
            let e = ServeEngine::new(Arc::clone(&rt), ServeConfig::default());
            e.register_template(doubling_template());
            let accepted: Vec<u64> = (0..12)
                .map(|i| {
                    let tenant = if i % 2 == 0 { "even" } else { "odd" };
                    e.submit(tenant, "doubling", obj(vec![("n", Value::UInt(4))]))
                        .unwrap()
                })
                .collect();
            let report = e.shutdown(Duration::ZERO);
            let abandoned: Vec<u64> = accepted
                .iter()
                .copied()
                .filter(|id| match e.poll(*id).unwrap() {
                    InstanceStatus::Abandoned => true,
                    InstanceStatus::Completed => false,
                    other => panic!("round {round}: instance {id} left {other:?}"),
                })
                .collect();
            assert_eq!(report.abandoned, abandoned, "round {round}");
            assert_eq!(report.drained, abandoned.is_empty(), "round {round}");
        }
    });
}

/// A long-lived engine stays bounded, in O(1) per completion: records
/// past the result LRU are remembered (410) up to a cap and then
/// forgotten (404), oldest first.
#[test]
fn evicted_records_are_forgotten_past_their_cap() {
    let e = engine(
        2,
        ServeConfig {
            result_capacity: 4,
            ..ServeConfig::default()
        },
    );
    // result_capacity retained + max(8 × result_capacity, 64) evicted.
    const CAP: usize = 4 + 64;
    let ids: Vec<u64> = (0..1_000)
        .map(|_| {
            let id = e
                .submit("acme", "doubling", obj(vec![("n", Value::UInt(1))]))
                .unwrap();
            e.wait_result(id, Duration::from_secs(5)).unwrap();
            id
        })
        .collect();
    let known = |id: &&u64| e.poll(**id) != Err(ServeError::UnknownInstance(**id));
    assert_eq!(ids.iter().filter(known).count(), CAP);
    let (forgotten, remembered) = ids.split_at(ids.len() - CAP);
    for id in forgotten {
        assert_eq!(e.result(*id).unwrap_err(), ServeError::UnknownInstance(*id));
    }
    let (evicted, retained) = remembered.split_at(64);
    for id in evicted {
        assert_eq!(e.result(*id).unwrap_err(), ServeError::ResultEvicted(*id));
        assert_eq!(e.poll(*id).unwrap(), InstanceStatus::Completed);
    }
    for id in retained {
        assert_eq!(e.result(*id).unwrap().results.len(), 1);
    }
}

/// The one surface test for the one switch. Every optional recorder is
/// driven — wire stages and link cells through the runtime's wire
/// source, an SLO verdict through a breaching instance — and the
/// exported snapshot must carry each optional family exactly when `obs`
/// is compiled in: with it off there is no `wire_*` / `net_link_*` /
/// `serve_slo_*` family and no exemplar, in JSON or Prometheus text, so
/// the surface is what it was before any of them existed; the lock
/// family (always exported) reads zero and the tail store stays empty.
#[test]
fn optional_series_follow_the_one_switch() {
    use ttg_obs::OBS;
    let rt = Arc::new(Runtime::new(RuntimeConfig::optimized(2)));
    let wire = Arc::new(ttg_runtime::obs::WireObs::new(3));
    let source = Arc::clone(&wire);
    rt.set_wire_stats_source(Arc::new(move || source.snapshot()));
    wire.record_encode(500);
    wire.record_lock_wait(100);
    wire.record_write(2_000, 64, 1);
    wire.record_read_decode(1_500);
    wire.record_dispatch(700);
    wire.link_tx(1, 64);
    wire.link_rx(1, 32);
    wire.set_ack_lag(1, 5);
    wire.record_ack_rtt_us(1, 250);
    wire.resend_delta(2, 128);

    let config = ServeConfig {
        slo_target: Duration::from_millis(1), // everything "breaches"
        ..ServeConfig::default()
    };
    let e = ServeEngine::new(Arc::clone(&rt), config);
    e.register_template(slow_template());
    let id = e
        .submit("acme", "slow", obj(vec![("ms", Value::UInt(10))]))
        .unwrap();
    e.wait_result(id, Duration::from_secs(5)).unwrap();

    let mut snap = ttg_obs::runtime_metrics(&rt);
    e.metrics_into(&mut snap);
    let (json, prom) = (snap.to_json(), snap.to_prometheus("ttg"));
    // (series, also visible in the JSON view)
    let optional = [
        ("wire_encode", true),
        ("wire_dispatch", true),
        ("wire_writes", true),
        ("net_link_bytes", true),
        ("net_link_frames", true),
        ("net_link_ack_lag_seq", true),
        ("net_link_ack_rtt_us", true),
        ("net_link_resend_buffer_bytes", true),
        ("serve_slo_target_us", true),
        ("serve_slo_good", true),
        ("serve_slo_breached", true),
        ("instance_id", false), // exemplars ride the text exposition only
    ];
    for (series, in_json) in optional {
        assert_eq!(prom.contains(series), OBS, "{series} in text:\n{prom}");
        assert_eq!(json.contains(series), OBS && in_json, "{series} in JSON");
    }
    for f in &ttg_obs::LOCK_FIELDS {
        let line = format!("ttg_{}{{rank=\"0\"}} ", f.metric);
        let at = prom.find(&line).unwrap_or_else(|| panic!("{line} missing"));
        let value = prom[at + line.len()..].lines().next().unwrap();
        assert!(OBS || value == "0", "{line}{value} with obs off");
    }
    assert_eq!(wire.snapshot().is_empty(), !OBS);
    assert!(ttg_obs::wire::net_json(&rt.wire_snapshot(), 0)
        .contains(&format!("\"wire_enabled\": {OBS}")));
    let slow = e.slow_json();
    assert_eq!(
        slow.get("count").and_then(Value::as_u64),
        Some(u64::from(OBS)),
        "the tail store is written exactly when obs is on"
    );
}

#[cfg(feature = "obs")]
mod spans_on {
    use super::*;

    /// Span assembly reads the runtime's event rings, so these tests
    /// run with `RuntimeConfig::trace` on (a serving deployment that
    /// wants trace trees enables the same flag).
    fn traced_engine(threads: usize, config: ServeConfig) -> Arc<ServeEngine> {
        let mut rc = RuntimeConfig::optimized(threads);
        rc.trace = true;
        let rt = Arc::new(Runtime::new(rc));
        let engine = Arc::new(ServeEngine::new(rt, config));
        engine.register_template(doubling_template());
        engine.register_template(slow_template());
        engine
    }

    /// Satellite: a burst of SLO-breaching instances never grows the
    /// tail store past its capacity; the newest breaches are the ones
    /// retained, and evicted ids still answer via live assembly.
    #[test]
    fn tail_store_bounded_under_slow_burst() {
        let e = traced_engine(
            2,
            ServeConfig {
                slo_target: Duration::from_millis(1),
                tail_capacity: 4,
                ..ServeConfig::default()
            },
        );
        let ids: Vec<u64> = (0..10)
            .map(|_| {
                let id = e
                    .submit("burst", "slow", obj(vec![("ms", Value::UInt(10))]))
                    .unwrap();
                e.wait_result(id, Duration::from_secs(10)).unwrap();
                id
            })
            .collect();
        let v = e.slow_json();
        assert_eq!(v.get("capacity").and_then(Value::as_u64), Some(4));
        let slow = v.get("slow").unwrap().as_array().unwrap();
        assert_eq!(slow.len(), 4, "tail store bounded at capacity");
        let kept: Vec<u64> = slow
            .iter()
            .map(|t| t.get("instance").and_then(Value::as_u64).unwrap())
            .collect();
        assert_eq!(kept, ids[6..].to_vec(), "oldest breaches evicted");
        assert!(
            e.trace_json(ids[0]).is_ok(),
            "evicted id still live-assembles"
        );
    }

    /// Only instances over their tenant's threshold land in
    /// `/slow.json`; fast tenants count as good and stay out.
    #[test]
    fn slow_json_lists_only_breaching_tenants() {
        let e = traced_engine(
            2,
            ServeConfig {
                // Generous default; one tenant gets an impossible SLO.
                slo_target: Duration::from_secs(30),
                slo_overrides: vec![("slowpoke".to_string(), Duration::from_millis(1))],
                ..ServeConfig::default()
            },
        );
        let fast = e
            .submit("speedy", "doubling", obj(vec![("n", Value::UInt(1))]))
            .unwrap();
        let slow = e
            .submit("slowpoke", "slow", obj(vec![("ms", Value::UInt(20))]))
            .unwrap();
        e.wait_result(fast, Duration::from_secs(5)).unwrap();
        e.wait_result(slow, Duration::from_secs(5)).unwrap();

        let v = e.slow_json();
        let listed: Vec<u64> = v
            .get("slow")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|t| t.get("instance").and_then(Value::as_u64).unwrap())
            .collect();
        assert_eq!(listed, vec![slow], "only the breaching instance");

        let prom = e.metrics().to_prometheus("ttg");
        assert!(
            prom.contains("ttg_serve_slo_good{tenant=\"speedy\"} 1"),
            "{prom}"
        );
        assert!(
            prom.contains("ttg_serve_slo_breached{tenant=\"slowpoke\"} 1"),
            "{prom}"
        );
        assert!(
            prom.contains("ttg_serve_slo_target_us{tenant=\"slowpoke\"} 1000"),
            "{prom}"
        );
        // The breaching instance id rides the latency histogram as an
        // OpenMetrics exemplar.
        assert!(
            prom.contains(&format!("# {{instance_id=\"{slow}\"}}")),
            "{prom}"
        );
    }

    /// The trace breakdown accounts for the whole submit-to-completion
    /// latency: queue + execute + wire + other == latency, with the
    /// sleep dominating execute for a single-task slow instance.
    #[test]
    fn trace_breakdown_sums_to_latency() {
        let e = traced_engine(
            2,
            ServeConfig {
                slo_target: Duration::from_millis(1),
                ..ServeConfig::default()
            },
        );
        let id = e
            .submit("acme", "slow", obj(vec![("ms", Value::UInt(30))]))
            .unwrap();
        e.wait_result(id, Duration::from_secs(5)).unwrap();
        let trace = e.trace_json(id).unwrap();
        let f = |k: &str| trace.get(k).and_then(Value::as_f64).unwrap();
        assert_eq!(trace.get("breached").and_then(Value::as_bool), Some(true));
        assert!(f("execute_us") >= 25_000.0, "sleep dominates execute");
        let sum = f("queue_us") + f("execute_us") + f("wire_us") + f("other_us");
        let latency = f("latency_us");
        assert!(
            (sum - latency).abs() < 1.0,
            "components account for the measured latency: {sum} vs {latency}"
        );
        let tree = trace.get("span_tree").unwrap();
        assert_eq!(tree.get("tasks").and_then(Value::as_u64), Some(1));
    }

    /// The HTTP surface: `/instance/<id>/trace.json`, `/slow.json`,
    /// and the per-tenant load block in `/healthz`.
    #[test]
    fn http_trace_routes() {
        let e = traced_engine(
            2,
            ServeConfig {
                slo_overrides: vec![("acme".to_string(), Duration::from_millis(1))],
                ..ServeConfig::default()
            },
        );
        let server = ttg_obs::ObsHttpServer::serve(0, serve_routes(Arc::clone(&e))).expect("bind");
        let port = server.port();
        let id = e
            .submit("acme", "slow", obj(vec![("ms", Value::UInt(20))]))
            .unwrap();
        e.wait_result(id, Duration::from_secs(5)).unwrap();

        let (status, body) = http_request(port, "GET", &format!("/instance/{id}/trace.json"), None);
        assert_eq!(status, 200, "{body}");
        let v: Value = serde_json::from_str(&body).unwrap();
        assert_eq!(v.get("instance").and_then(Value::as_u64), Some(id));
        assert_eq!(
            v.get("tenant").and_then(Value::as_str),
            Some("acme"),
            "{body}"
        );
        for key in ["queue_us", "execute_us", "wire_us", "other_us"] {
            assert!(v.get(key).is_some(), "trace has {key}: {body}");
        }

        let (status, body) = http_request(port, "GET", "/instance/999999/trace.json", None);
        assert_eq!(status, 404, "{body}");

        let (status, body) = http_request(port, "GET", "/slow.json", None);
        assert_eq!(status, 200);
        let v: Value = serde_json::from_str(&body).unwrap();
        assert_eq!(v.get("count").and_then(Value::as_u64), Some(1), "{body}");

        let (status, body) = http_request(port, "GET", "/healthz", None);
        assert_eq!(status, 200);
        let v: Value = serde_json::from_str(&body).unwrap();
        let acme = v.get("load").unwrap().get("acme").expect("load block");
        assert_eq!(acme.get("queued").and_then(Value::as_u64), Some(0));
        assert_eq!(acme.get("inflight").and_then(Value::as_u64), Some(0));

        // SLO families flow through the metrics route.
        let (status, metrics) = http_request(port, "GET", "/metrics", None);
        assert_eq!(status, 200);
        assert!(
            metrics.contains("ttg_serve_slo_breached{"),
            "slo lines in /metrics: {metrics}"
        );
    }
}

/// Peer-loss recovery (DESIGN.md §13): a rank restarting mid-instance
/// force-fails the running instances with a `peer-loss:` marker, and
/// the engine re-executes them from the retained input instead of
/// surfacing the failure to the client.
#[test]
fn peer_loss_failure_is_retried_and_completes() {
    let e = engine(2, ServeConfig::default());
    let rt = Arc::clone(e.runtime());
    let id = e
        .submit("acme", "slow", obj(vec![("ms", Value::UInt(300))]))
        .unwrap();
    // Wait for the instance to actually be running before bouncing.
    wait_until("the instance to start", || {
        e.poll(id).unwrap() == InstanceStatus::Running
    });
    // The peer's connection drops: running instances are quarantined
    // and the rank reports degraded (but still healthy).
    rt.notify_peer_recovering(2);
    let h = rt.health();
    assert!(h.healthy && h.degraded, "degraded, not unhealthy");
    assert_eq!(h.recovering_peers, vec![2]);
    assert!(h.quarantined_instances >= 1, "running instance quarantined");
    // The peer comes back as a *new* incarnation: the quarantined
    // instance is force-failed and must be re-executed transparently.
    rt.notify_peer_rejoined(2, false);
    let view = e.wait_result(id, Duration::from_secs(10)).unwrap();
    assert_eq!(
        view.status,
        InstanceStatus::Completed,
        "retry hid the peer loss from the client"
    );
    let h = rt.health();
    assert!(!h.degraded, "recovery window closed");
    assert_eq!(h.quarantined_instances, 0);
    let c = e.tenant_counters("acme").unwrap();
    assert_eq!((c.completed, c.failed, c.retried), (1, 0, 1));
    assert_eq!(rt.stats().instances_retried, 1);
    let prom = e.metrics().to_prometheus("ttg");
    assert!(
        prom.contains("ttg_serve_retried{tenant=\"acme\"} 1"),
        "{prom}"
    );
    // A same-incarnation rejoin releases quarantine without failing.
    let id2 = e
        .submit("acme", "slow", obj(vec![("ms", Value::UInt(100))]))
        .unwrap();
    wait_until("the second instance to start", || {
        e.poll(id2).unwrap() == InstanceStatus::Running
    });
    rt.notify_peer_recovering(1);
    rt.notify_peer_rejoined(1, true);
    let view = e.wait_result(id2, Duration::from_secs(10)).unwrap();
    assert_eq!(view.status, InstanceStatus::Completed);
    assert_eq!(
        e.tenant_counters("acme").unwrap().retried,
        1,
        "no new retry"
    );
}

/// Retries are bounded: once `max_retries` peer-loss re-executions are
/// used up, the failure becomes client-visible with its diagnostic.
#[test]
fn peer_loss_retries_are_bounded() {
    let e = engine(
        2,
        ServeConfig {
            max_retries: 0,
            ..ServeConfig::default()
        },
    );
    let rt = Arc::clone(e.runtime());
    let id = e
        .submit("acme", "slow", obj(vec![("ms", Value::UInt(300))]))
        .unwrap();
    wait_until("the instance to start", || {
        e.poll(id).unwrap() == InstanceStatus::Running
    });
    rt.notify_peer_rejoined(2, false);
    let view = e.wait_result(id, Duration::from_secs(5)).unwrap();
    match view.status {
        InstanceStatus::Failed(msg) => {
            assert!(msg.starts_with("peer-loss:"), "{msg}")
        }
        other => panic!("expected a visible failure, got {other:?}"),
    }
    let c = e.tenant_counters("acme").unwrap();
    assert_eq!((c.failed, c.retried), (1, 0));
}

/// The `/healthz` route walks healthy → degraded (still 200) →
/// healthy as a peer's recovery window opens and closes.
#[test]
fn healthz_degrades_and_recovers_over_http() {
    let e = engine(2, ServeConfig::default());
    let server = ttg_obs::ObsHttpServer::serve(0, serve_routes(Arc::clone(&e))).expect("bind");
    let port = server.port();
    let rt = Arc::clone(e.runtime());

    let (status, body) = http_request(port, "GET", "/healthz", None);
    assert_eq!(status, 200, "{body}");
    let v: Value = serde_json::from_str(&body).unwrap();
    assert_eq!(v.get("status").and_then(Value::as_str), Some("ok"));
    assert_eq!(v.get("degraded").and_then(Value::as_bool), Some(false));

    rt.notify_peer_recovering(1);
    let (status, body) = http_request(port, "GET", "/healthz", None);
    assert_eq!(status, 200, "degraded is NOT 503: {body}");
    let v: Value = serde_json::from_str(&body).unwrap();
    assert_eq!(v.get("status").and_then(Value::as_str), Some("degraded"));
    assert_eq!(v.get("degraded").and_then(Value::as_bool), Some(true));
    let peers = v.get("recovering_peers").unwrap().as_array().unwrap();
    assert_eq!(peers.len(), 1, "{body}");
    assert!(v.get("quarantined_instances").is_some(), "{body}");

    rt.notify_peer_rejoined(1, true);
    let (status, body) = http_request(port, "GET", "/healthz", None);
    assert_eq!(status, 200, "{body}");
    let v: Value = serde_json::from_str(&body).unwrap();
    assert_eq!(v.get("status").and_then(Value::as_str), Some("ok"));
    assert_eq!(v.get("degraded").and_then(Value::as_bool), Some(false));
    assert_eq!(
        v.get("recovering_peers").unwrap().as_array().unwrap().len(),
        0
    );
}
