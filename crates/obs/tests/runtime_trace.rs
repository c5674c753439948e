//! The runtime's event rings rendered as a Chrome trace: what
//! `RuntimeConfig::trace` records reaches the one renderer,
//! [`ttg_obs::runtime_trace`].

use ttg_runtime::obs::EventKind;
use ttg_runtime::{Runtime, RuntimeConfig};

/// Drains `rt`'s events into a single-rank trace on its own timeline
/// (`None` unless it records events).
fn chrome_trace(rt: &Runtime) -> Option<String> {
    let base = rt.trace_wall_anchor_ns()?;
    ttg_obs::runtime_trace(rt, &rt.take_events(), base)
}

fn run_51_tasks(rt: &Runtime) {
    rt.submit(0, |ctx| {
        for i in 0..50 {
            ctx.spawn(i, |_| {});
        }
    });
    rt.wait();
}

#[test]
fn tracing_records_every_task() {
    let mut config = RuntimeConfig::optimized(2);
    config.trace = true;
    let rt = Runtime::new(config);
    run_51_tasks(&rt);
    let events = rt.take_events();
    let tasks: Vec<_> = events
        .iter()
        .filter(|e| e.kind == EventKind::Task)
        .collect();
    assert_eq!(tasks.len(), 51, "one event per task");
    assert!(tasks.iter().all(|e| e.name == "closure"));
    assert!(events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
    // Drained: a second take holds no task.
    assert!(rt.take_events().iter().all(|e| e.kind != EventKind::Task));
    // Chrome JSON renders and parses: one "X" slice per task.
    run_51_tasks(&rt);
    let json = chrome_trace(&rt).expect("tracing is on");
    let v: serde_json::Value = serde_json::from_str(&json).unwrap();
    let slices = v["traceEvents"]
        .as_array()
        .unwrap()
        .iter()
        .filter(|e| e["ph"] == "X" && e["name"] == "closure")
        .count();
    assert_eq!(slices, 51);
}

#[test]
fn tracing_disabled_is_empty() {
    let rt = Runtime::new(RuntimeConfig::optimized(1));
    rt.submit(0, |_| {});
    rt.wait();
    assert!(rt.take_events().is_empty());
    assert!(chrome_trace(&rt).is_none());
}

fn traced(threads: usize) -> Runtime {
    let mut config = RuntimeConfig::optimized(threads);
    config.trace = true;
    Runtime::new(config)
}

/// The `ts` of every task slice in a rendered trace.
fn slice_ts(json: &str) -> Vec<f64> {
    let v: serde_json::Value = serde_json::from_str(json).unwrap();
    v["traceEvents"]
        .as_array()
        .unwrap()
        .iter()
        .filter(|e| e["ph"] == "X")
        .map(|e| e["ts"].as_f64().unwrap())
        .collect()
}

#[test]
fn runtime_trace_needs_an_event_recorder() {
    let bare = Runtime::new(RuntimeConfig::optimized(1));
    assert!(ttg_obs::runtime_trace(&bare, &[], 0).is_none());
    let mut config = RuntimeConfig::optimized(1);
    config.histograms = true;
    let timed = Runtime::new(config);
    assert!(timed.recorder().is_some());
    assert!(
        ttg_obs::runtime_trace(&timed, &[], 0).is_none(),
        "histograms alone record no events"
    );
}

#[test]
fn runtime_trace_shifts_every_timestamp_by_the_base() {
    let rt = traced(2);
    run_51_tasks(&rt);
    let events = rt.take_events();
    let anchor = rt.trace_wall_anchor_ns().unwrap();
    let own = slice_ts(&ttg_obs::runtime_trace(&rt, &events, anchor).unwrap());
    // A job-wide base one millisecond earlier puts this rank 1 000 µs
    // later on the shared timeline.
    let shifted = slice_ts(&ttg_obs::runtime_trace(&rt, &events, anchor - 1_000_000).unwrap());
    assert_eq!(own.len(), 51);
    assert_eq!(own.len(), shifted.len());
    for (a, b) in own.iter().zip(&shifted) {
        assert!((b - a - 1_000.0).abs() < 1e-6, "{a} -> {b}");
    }
}

#[test]
fn runtime_trace_of_no_events_still_names_every_lane() {
    let rt = traced(3);
    let json = ttg_obs::runtime_trace(&rt, &[], rt.trace_wall_anchor_ns().unwrap()).unwrap();
    let v: serde_json::Value = serde_json::from_str(&json).unwrap();
    let events = v["traceEvents"].as_array().unwrap();
    assert!(events.iter().all(|e| e["ph"] == "M"));
    let lanes: Vec<&str> = events
        .iter()
        .filter(|e| e["name"] == "thread_name")
        .map(|e| e["args"]["name"].as_str().unwrap())
        .collect();
    assert_eq!(lanes, ["worker 0", "worker 1", "worker 2", "net"]);
    assert_eq!(events.len(), 2 + lanes.len(), "process name and sort index");
}

#[test]
fn runtime_metrics_count_tasks_and_gauge_load_only_with_a_recorder() {
    use ttg_obs::{MetricsSnapshot, Sample};
    let counter = |m: &MetricsSnapshot, name: &str| match m.get(name, &[]) {
        Some(Sample::Counter(v)) => Some(*v),
        _ => None,
    };
    let gauge = |m: &MetricsSnapshot, name: &str| match m.get(name, &[]) {
        Some(Sample::Gauge(v)) => Some(*v),
        _ => None,
    };
    let any_gauge = |m: &MetricsSnapshot| {
        m.series
            .iter()
            .any(|s| matches!(s.sample, Sample::Gauge(_)))
    };
    let any_histogram = |m: &MetricsSnapshot| {
        m.series
            .iter()
            .any(|s| matches!(s.sample, Sample::Histogram(_)))
    };
    let bare = Runtime::new(RuntimeConfig::optimized(2));
    run_51_tasks(&bare);
    let m = ttg_obs::runtime_metrics(&bare);
    assert_eq!(counter(&m, "tasks_executed"), Some(51));
    assert!(!any_gauge(&m));
    assert!(!any_histogram(&m));

    let rt = traced(2);
    run_51_tasks(&rt);
    let m = ttg_obs::runtime_metrics(&rt);
    assert_eq!(counter(&m, "tasks_executed"), Some(51));
    assert_eq!(gauge(&m, "workers"), Some(2));
    assert_eq!(gauge(&m, "queued_tasks"), Some(0));
    let depths = m
        .series
        .iter()
        .filter(|s| s.name == "worker_queue_depth" && !s.labels.is_empty())
        .count();
    assert_eq!(depths, 2, "one depth gauge per worker");
    assert!(!any_histogram(&m), "trace alone keeps no histograms");
}
