//! ttg-obs — the surfaces that read and render the runtime's records.
//!
//! The recorders themselves — event rings, latency histograms, the
//! span word and the wire recorder — belong to the runtime
//! (`ttg_runtime::obs`), because the task and message paths write
//! them. This crate depends on `ttg-runtime` and turns those records
//! into output, in four layers, all opt-in and off the hot path:
//!
//! 1. **Export** ([`trace`], [`metrics`], [`wire`], [`spans`]):
//!    multi-rank Chrome/Perfetto traces (one `pid` per rank, counter
//!    tracks, cross-rank flow events), JSON / Prometheus metrics
//!    snapshots — identity labels plus one list of counter, gauge and
//!    histogram series, each merged, rendered and parsed by one loop —
//!    with an optional periodic sampler, the wire-path `/net.json`
//!    document, and per-instance span assembly. JSON objects are built
//!    by one helper, `obj`.
//! 2. **Analysis** ([`analysis`], [`flame`]): post-hoc critical-path
//!    extraction, per-worker utilization and collapsed-stack
//!    flamegraphs from exported traces.
//! 3. **Live telemetry** ([`live`], [`http`], [`timeseries`],
//!    [`flight`]): one rank's HTTP/1.0 introspection endpoint fed
//!    through a swappable [`RuntimeSlot`], a fixed-capacity time series
//!    of metrics deltas, and a crash flight recorder that preserves the
//!    last seconds of evidence when a rank dies.
//! 4. **Cluster** ([`cluster`]): scrapes every rank's endpoint, merges
//!    the snapshots and raises skew, straggler and slow-link alerts.

pub mod analysis;
pub mod cluster;
pub mod flame;
pub mod flight;
pub mod http;
pub mod live;
pub mod metrics;
pub mod spans;
pub mod timeseries;
pub mod trace;
pub mod wire;

pub use analysis::{analyze_chrome_trace, TaskContribution, TraceReport, WorkerUtil};
pub use cluster::{cluster_routes, Alert, ClusterAggregator, ClusterConfig, RankObservation};
pub use flame::collapse_chrome_trace;
pub use flight::{extract_flight_trace, FlightRecorder};
pub use http::{DynamicRoute, HealthVerdict, HttpRequest, HttpResponse, HttpRoutes, ObsHttpServer};
pub use live::{LiveConfig, LiveTelemetry, RuntimeSlot};
pub use metrics::{runtime_metrics, LabelSet, MetricsSnapshot, PeriodicSampler, Sample, Series};
pub use spans::{assemble_spans, InstanceSpan, SpanTailStore};
pub use timeseries::TimeSeriesRecorder;
pub use trace::{chrome_trace, flow_id, merge_chrome_traces, runtime_trace};
pub use ttg_sync::{LOCK_FIELDS, OBS};

/// The crate's one JSON object builder: `fields` in the order given.
pub(crate) fn obj(fields: Vec<(&str, serde::Value)>) -> serde::Value {
    let fields = fields.into_iter().map(|(k, v)| (k.to_string(), v));
    serde::Value::Object(fields.collect())
}

/// A JSON string value.
pub(crate) fn s(v: &str) -> serde::Value {
    serde::Value::String(v.to_string())
}
