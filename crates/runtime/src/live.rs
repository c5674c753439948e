//! Live telemetry glue: the wiring between a running [`Runtime`] and
//! the observability surfaces in `ttg-obs` (per-rank HTTP endpoint,
//! time-series recorder, crash flight recorder).
//!
//! The obs crate deliberately knows nothing about the runtime — its
//! HTTP routes and flight-dump sources are opaque closures. This module
//! supplies those closures. The central piece is the [`RuntimeSlot`]:
//! benchmarks like `fig5_task_latency` build a *fresh* runtime per data
//! point, so the long-lived server and sampler cannot hold a `Runtime`
//! directly. They hold the slot; the driver re-points it at each new
//! runtime and the telemetry follows. An empty slot serves empty
//! metrics and reports healthy — "between runtimes" is not a failure.
//!
//! Everything here is opt-in and off the hot path: the sampler reads
//! aggregate counters a few times per second, the HTTP server only
//! works when a client connects, and the flight recorder only runs at
//! death. A run with `LiveConfig::disabled` pays nothing.

use crate::runtime::{HealthReport, Runtime};
use parking_lot::RwLock;
use std::sync::Arc;
use std::time::Duration;
use ttg_obs::flight::FlightSources;
use ttg_obs::{
    ClusterAggregator, ClusterConfig, FlightRecorder, HealthVerdict, HttpRoutes, ObsHttpServer,
    PeriodicSampler, TimeSeriesRecorder,
};

/// Configuration for [`LiveTelemetry`], usually read from the
/// environment (see [`LiveConfig::from_env`]).
#[derive(Debug, Clone, Default)]
pub struct LiveConfig {
    /// Base HTTP port; rank `r` serves on `base + r` so every rank of a
    /// multi-process job is individually reachable. `None` disables the
    /// server.
    pub http_port: Option<u16>,
    /// Sampling period for the time-series recorder, milliseconds.
    pub sample_ms: u64,
    /// Maximum number of time-series points held before half-resolution
    /// downsampling kicks in.
    pub ts_capacity: usize,
    /// Directory for crash flight dumps. `None` disables the recorder.
    pub flight_dir: Option<String>,
    /// Trailing event window embedded in a flight dump, milliseconds
    /// (`0` = everything still in the rings).
    pub flight_window_ms: u64,
    /// Cluster-aggregator configuration (`TTG_OBS_CLUSTER`). When set,
    /// this rank scrapes every listed target, merges the snapshots and
    /// serves `/cluster.json`, `/alerts.json`, `/cluster/metrics` and a
    /// mesh-wide `/healthz` alongside its own routes.
    pub cluster: Option<ClusterConfig>,
}

/// Default sampling period (`TTG_OBS_SAMPLE_MS`).
pub const DEFAULT_SAMPLE_MS: u64 = 100;
/// Default time-series capacity (`TTG_OBS_TS_CAPACITY`).
pub const DEFAULT_TS_CAPACITY: usize = 512;
/// Default flight-dump event window (`TTG_OBS_FLIGHT_WINDOW_MS`).
pub const DEFAULT_FLIGHT_WINDOW_MS: u64 = 10_000;

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok()?.trim().parse().ok()
}

fn env_f64(name: &str) -> Option<f64> {
    std::env::var(name).ok()?.trim().parse().ok()
}

impl LiveConfig {
    /// All surfaces off; [`LiveTelemetry::start`] with this config is a
    /// no-op shell.
    pub fn disabled() -> Self {
        LiveConfig {
            http_port: None,
            sample_ms: DEFAULT_SAMPLE_MS,
            ts_capacity: DEFAULT_TS_CAPACITY,
            flight_dir: None,
            flight_window_ms: DEFAULT_FLIGHT_WINDOW_MS,
            cluster: None,
        }
    }

    /// Reads the `TTG_OBS_*` environment knobs:
    ///
    /// | variable                     | meaning                         |
    /// |------------------------------|---------------------------------|
    /// | `TTG_OBS_HTTP_PORT`          | base port (rank adds its id)    |
    /// | `TTG_OBS_SAMPLE_MS`          | sampler period (default 100)    |
    /// | `TTG_OBS_TS_CAPACITY`        | ring capacity (default 512)     |
    /// | `TTG_OBS_FLIGHT_DIR`         | flight-dump directory           |
    /// | `TTG_OBS_FLIGHT_WINDOW_MS`   | dump event window (def. 10000)  |
    /// | `TTG_OBS_CLUSTER`            | comma-separated `host:port`     |
    /// |                              | scrape targets (aggregator on)  |
    /// | `TTG_OBS_CLUSTER_INTERVAL_MS`| scrape period (default 1000)    |
    /// | `TTG_OBS_CLUSTER_WINDOW`     | skew window, rounds (default 10)|
    /// | `TTG_OBS_SKEW_COV`           | skew CoV threshold (def. 0.5)   |
    /// | `TTG_OBS_STRAGGLER_FACTOR`   | straggler deviation (def. 2.0)  |
    /// | `TTG_OBS_STRAGGLER_K`        | consecutive rounds (default 3)  |
    /// | `TTG_OBS_SLOWLINK_FACTOR`    | slow-link deviation (def. 4.0)  |
    /// | `TTG_OBS_SLOWLINK_K`         | consecutive rounds (default 3)  |
    pub fn from_env() -> Self {
        let cluster = std::env::var("TTG_OBS_CLUSTER")
            .ok()
            .map(|targets| {
                targets
                    .split(',')
                    .map(|t| t.trim().to_string())
                    .filter(|t| !t.is_empty())
                    .collect::<Vec<_>>()
            })
            .filter(|targets: &Vec<String>| !targets.is_empty())
            .map(|targets| {
                let defaults = ClusterConfig::default();
                ClusterConfig {
                    targets,
                    self_index: None, // filled from the rank at start
                    scrape_interval_ms: env_u64("TTG_OBS_CLUSTER_INTERVAL_MS")
                        .unwrap_or(defaults.scrape_interval_ms)
                        .max(1),
                    window: env_u64("TTG_OBS_CLUSTER_WINDOW").unwrap_or(defaults.window as u64)
                        as usize,
                    skew_cov_threshold: env_f64("TTG_OBS_SKEW_COV")
                        .unwrap_or(defaults.skew_cov_threshold),
                    straggler_factor: env_f64("TTG_OBS_STRAGGLER_FACTOR")
                        .unwrap_or(defaults.straggler_factor),
                    straggler_consecutive: env_u64("TTG_OBS_STRAGGLER_K")
                        .unwrap_or(defaults.straggler_consecutive as u64)
                        as u32,
                    slowlink_factor: env_f64("TTG_OBS_SLOWLINK_FACTOR")
                        .unwrap_or(defaults.slowlink_factor),
                    slowlink_consecutive: env_u64("TTG_OBS_SLOWLINK_K")
                        .unwrap_or(defaults.slowlink_consecutive as u64)
                        as u32,
                }
            });
        LiveConfig {
            http_port: env_u64("TTG_OBS_HTTP_PORT").map(|p| p as u16),
            sample_ms: env_u64("TTG_OBS_SAMPLE_MS")
                .unwrap_or(DEFAULT_SAMPLE_MS)
                .max(1),
            ts_capacity: env_u64("TTG_OBS_TS_CAPACITY").unwrap_or(DEFAULT_TS_CAPACITY as u64)
                as usize,
            flight_dir: std::env::var("TTG_OBS_FLIGHT_DIR")
                .ok()
                .filter(|d| !d.is_empty()),
            flight_window_ms: env_u64("TTG_OBS_FLIGHT_WINDOW_MS")
                .unwrap_or(DEFAULT_FLIGHT_WINDOW_MS),
            cluster,
        }
    }

    /// Whether any surface is enabled.
    pub fn enabled(&self) -> bool {
        self.http_port.is_some() || self.flight_dir.is_some()
    }

    /// Builder-style override of the base HTTP port.
    pub fn with_http_port(mut self, port: u16) -> Self {
        self.http_port = Some(port);
        self
    }
}

/// A swappable reference to "the runtime currently worth observing".
///
/// Long-lived observers (HTTP server, sampler, flight recorder) read
/// through the slot on every access, so a driver that builds one
/// runtime per phase — or per benchmark data point — keeps its
/// telemetry continuous: [`RuntimeSlot::set`] re-points it, and an
/// empty slot simply yields nothing.
#[derive(Default)]
pub struct RuntimeSlot {
    current: RwLock<Option<Arc<Runtime>>>,
}

impl RuntimeSlot {
    /// Creates an empty slot.
    pub fn new() -> Arc<Self> {
        Arc::new(RuntimeSlot::default())
    }

    /// Points the slot at `rt`; observers see it on their next access.
    pub fn set(&self, rt: Arc<Runtime>) {
        *self.current.write() = Some(rt);
    }

    /// Empties the slot (e.g. before tearing a runtime down, so the
    /// sampler cannot keep a dead runtime alive through its `Arc`).
    pub fn clear(&self) {
        *self.current.write() = None;
    }

    /// The current runtime, if any.
    pub fn get(&self) -> Option<Arc<Runtime>> {
        self.current.read().clone()
    }
}

/// The assembled live-telemetry stack for one rank: HTTP server +
/// periodic sampler + time series + optional flight recorder, all
/// reading through one [`RuntimeSlot`].
///
/// Drop order matters and is handled by [`LiveTelemetry::shutdown`]
/// (also called on drop): the sampler stops *first* so no sample can
/// land after the server or recorder are gone, then the server joins.
/// The flight recorder is an `Arc` because the panic hook keeps a
/// second reference for the life of the process.
pub struct LiveTelemetry {
    rank: usize,
    slot: Arc<RuntimeSlot>,
    timeseries: Arc<TimeSeriesRecorder>,
    sampler: Option<PeriodicSampler>,
    server: Option<ObsHttpServer>,
    flight: Option<Arc<FlightRecorder>>,
    cluster: Option<Arc<ClusterAggregator>>,
    cluster_sampler: Option<PeriodicSampler>,
}

impl LiveTelemetry {
    /// Builds and starts the stack for `rank` according to `config`.
    /// Returns an error only if the HTTP port cannot be bound; every
    /// other surface degrades to "off" when unconfigured.
    pub fn start(rank: usize, config: &LiveConfig) -> std::io::Result<LiveTelemetry> {
        let slot = RuntimeSlot::new();
        let timeseries = Arc::new(TimeSeriesRecorder::new(
            config.ts_capacity,
            config.sample_ms.max(1),
        ));

        let sampler = {
            let slot = Arc::clone(&slot);
            let ts = Arc::clone(&timeseries);
            PeriodicSampler::spawn(Duration::from_millis(config.sample_ms.max(1)), move || {
                if let Some(rt) = slot.get() {
                    ts.record(&rt.metrics());
                }
            })
        };

        let flight = config.flight_dir.as_ref().map(|dir| {
            let window_ns = config.flight_window_ms.saturating_mul(1_000_000);
            let trace_slot = Arc::clone(&slot);
            let ts = Arc::clone(&timeseries);
            let stats_slot = Arc::clone(&slot);
            let rec = Arc::new(FlightRecorder::new(
                dir.clone(),
                rank,
                FlightSources {
                    trace_json: Box::new(move || {
                        trace_slot
                            .get()
                            .and_then(|rt| {
                                let base = rt.trace_wall_anchor_ns().unwrap_or(0);
                                rt.chrome_trace_snapshot_window(base, window_ns)
                            })
                            .unwrap_or_default()
                    }),
                    timeseries_json: Box::new(move || ts.to_json()),
                    stats_json: Box::new(move || {
                        stats_slot
                            .get()
                            .map(|rt| {
                                serde_json::to_string_pretty(&rt.stats())
                                    .expect("stats serialization")
                            })
                            .unwrap_or_default()
                    }),
                },
            ));
            ttg_obs::flight::install_panic_hook(Arc::clone(&rec));
            rec
        });

        // The embedded cluster aggregator: scrapes every target over
        // HTTP except itself, whose health comes straight from the slot
        // (probing our own single-threaded server from inside a request
        // handler would deadlock; deriving self-health from the cluster
        // view would be circular).
        let cluster = config.cluster.as_ref().map(|c| {
            let mut c = c.clone();
            if c.self_index.is_none() && rank < c.targets.len() {
                c.self_index = Some(rank);
            }
            let agg = ClusterAggregator::new(c);
            let health_slot = Arc::clone(&slot);
            agg.set_local_health(Box::new(move || match health_slot.get() {
                Some(rt) => {
                    let h = rt.health();
                    (h.healthy, h.degraded)
                }
                None => (true, false),
            }));
            agg
        });

        let server = match config.http_port {
            Some(base) => {
                let port = base.saturating_add(rank as u16);
                let mut routes = Self::routes(rank, &slot, &timeseries);
                // `/net.json` answers first, then the cluster routes
                // (when this rank embeds the aggregator). An empty slot
                // — or a build without `obs` — serves the empty
                // per-stage document rather than a 404, so dashboards
                // can always probe the same path.
                let net_slot = Arc::clone(&slot);
                let net_route: ttg_obs::DynamicRoute = Box::new(move |req| {
                    if req.method != "GET" || req.path != "/net.json" {
                        return None;
                    }
                    let body = match net_slot.get() {
                        Some(rt) => rt.wire_snapshot().net_json(rank),
                        None => ttg_obs::WireSnapshot::default().net_json(rank),
                    };
                    Some(ttg_obs::HttpResponse::json(200, body))
                });
                let cluster_route = cluster
                    .as_ref()
                    .map(|agg| ttg_obs::cluster_routes(Arc::clone(agg), true));
                routes.dynamic = Some(Box::new(move |req| {
                    net_route(req).or_else(|| cluster_route.as_ref().and_then(|cr| cr(req)))
                }));
                Some(ObsHttpServer::serve(port, routes)?)
            }
            None => None,
        };

        let cluster_sampler = cluster.as_ref().map(|agg| agg.start_scraping());

        Ok(LiveTelemetry {
            rank,
            slot,
            timeseries,
            sampler: Some(sampler),
            server,
            flight,
            cluster,
            cluster_sampler,
        })
    }

    fn routes(
        rank: usize,
        slot: &Arc<RuntimeSlot>,
        timeseries: &Arc<TimeSeriesRecorder>,
    ) -> HttpRoutes {
        let prom_slot = Arc::clone(slot);
        let json_slot = Arc::clone(slot);
        let trace_slot = Arc::clone(slot);
        let health_slot = Arc::clone(slot);
        let ts = Arc::clone(timeseries);
        HttpRoutes {
            metrics_prometheus: Box::new(move || {
                prom_slot
                    .get()
                    .map(|rt| rt.metrics().to_prometheus("ttg"))
                    .unwrap_or_default()
            }),
            metrics_json: Box::new(move || {
                json_slot
                    .get()
                    .map(|rt| rt.metrics().to_json())
                    .unwrap_or_else(|| "{}".to_string())
            }),
            timeseries_json: Box::new(move || ts.to_json()),
            trace_json: Box::new(move || {
                trace_slot
                    .get()
                    .and_then(|rt| {
                        let base = rt.trace_wall_anchor_ns().unwrap_or(0);
                        rt.chrome_trace_snapshot(base)
                    })
                    .unwrap_or_else(|| "{\"traceEvents\":[]}".to_string())
            }),
            healthz: Box::new(move || {
                let report = match health_slot.get() {
                    Some(rt) => rt.health(),
                    // Between runtimes (or before the first one): alive
                    // and nothing wrong — report healthy.
                    None => HealthReport {
                        healthy: true,
                        rank,
                        reason: None,
                        peers_lost: 0,
                        degraded: false,
                        recovering_peers: Vec::new(),
                        quarantined_instances: 0,
                    },
                };
                HealthVerdict {
                    healthy: report.healthy,
                    body: report.to_json(),
                }
            }),
            dynamic: None,
        }
    }

    /// This rank's identity.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// The slot observers read through; hand it to whatever builds the
    /// runtimes.
    pub fn slot(&self) -> Arc<RuntimeSlot> {
        Arc::clone(&self.slot)
    }

    /// Convenience: re-points the slot at `rt`.
    pub fn observe(&self, rt: Arc<Runtime>) {
        self.slot.set(rt);
    }

    /// The time-series recorder (e.g. for an end-of-run export).
    pub fn timeseries(&self) -> &TimeSeriesRecorder {
        &self.timeseries
    }

    /// Port the HTTP server is bound to, if serving.
    pub fn http_port(&self) -> Option<u16> {
        self.server.as_ref().map(|s| s.port())
    }

    /// The flight recorder, if enabled — callers dump on typed run
    /// errors (the panic path is already hooked).
    pub fn flight(&self) -> Option<&Arc<FlightRecorder>> {
        self.flight.as_ref()
    }

    /// Writes a flight dump for `reason` if the recorder is enabled and
    /// nothing has dumped yet. Returns the dump path when one was
    /// written.
    pub fn dump_flight(&self, reason: &str) -> Option<std::path::PathBuf> {
        self.flight
            .as_ref()
            .and_then(|rec| rec.dump(reason).ok().flatten())
    }

    /// Takes one immediate sample (bypassing the periodic cadence), so
    /// short runs still leave at least one point in the series.
    pub fn sample_now(&self) {
        if let Some(rt) = self.slot.get() {
            self.timeseries.record(&rt.metrics());
        }
    }

    /// The embedded cluster aggregator, when configured.
    pub fn cluster(&self) -> Option<&Arc<ClusterAggregator>> {
        self.cluster.as_ref()
    }

    /// Stops the samplers deterministically and joins the HTTP server.
    /// Idempotent; also invoked by drop. The flight recorder stays
    /// armed (the panic hook holds its own reference).
    pub fn shutdown(&mut self) {
        if let Some(mut sampler) = self.sampler.take() {
            sampler.stop();
        }
        if let Some(mut sampler) = self.cluster_sampler.take() {
            sampler.stop();
        }
        self.server.take();
        self.slot.clear();
    }
}

impl Drop for LiveTelemetry {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::RuntimeConfig;

    fn http_get(port: u16, path: &str) -> (u16, String) {
        let target = format!("127.0.0.1:{port}");
        ttg_obs::http::http_request(&target, "GET", path, None, Duration::from_secs(10))
            .expect("request")
    }

    #[test]
    fn telemetry_follows_the_slot_across_runtimes() {
        let config = LiveConfig {
            http_port: Some(0), // ephemeral
            sample_ms: 5,
            ts_capacity: 64,
            flight_dir: None,
            flight_window_ms: 0,
            cluster: None,
        };
        let live = LiveTelemetry::start(0, &config).expect("start");
        let port = live.http_port().expect("serving");

        // Empty slot: healthy, empty metrics.
        let (status, body) = http_get(port, "/healthz");
        assert_eq!(status, 200);
        assert!(body.contains("\"ok\""), "idle slot is healthy: {body}");

        // First runtime.
        let rt = Arc::new(Runtime::new(RuntimeConfig::optimized(2)));
        for _ in 0..50 {
            rt.submit(0, |_| {});
        }
        rt.wait();
        live.observe(Arc::clone(&rt));
        live.sample_now();
        let (status, metrics) = http_get(port, "/metrics");
        assert_eq!(status, 200);
        assert!(
            metrics.contains("ttg_tasks_executed"),
            "prometheus export through the slot: {metrics}"
        );
        // /net.json serves the wire-path document even when the runtime
        // has no transport (empty stages, schema intact).
        let (status, net) = http_get(port, "/net.json");
        assert_eq!(status, 200);
        let nv: serde::Value = serde_json::from_str(&net).expect("net json");
        assert_eq!(nv.get("schema").and_then(serde::Value::as_u64), Some(1));
        assert!(nv.get("wire_enabled").is_some(), "net.json shape: {net}");
        let (_, ts_json) = http_get(port, "/timeseries.json");
        let v: serde::Value = serde_json::from_str(&ts_json).expect("timeseries json");
        assert!(
            !v.get("points").unwrap().as_array().unwrap().is_empty(),
            "sample_now left a point"
        );

        // Swap to a second runtime; telemetry follows without restart.
        live.slot().clear();
        drop(rt);
        let rt2 = Arc::new(Runtime::new(RuntimeConfig::optimized(2)));
        for _ in 0..10 {
            rt2.submit(0, |_| {});
        }
        rt2.wait();
        live.observe(Arc::clone(&rt2));
        live.sample_now();
        let (status, _) = http_get(port, "/metrics.json");
        assert_eq!(status, 200);
        drop(rt2);
    }

    #[test]
    fn healthz_reports_unhealthy_after_recorded_error() {
        let config = LiveConfig {
            http_port: Some(0),
            sample_ms: 50,
            ts_capacity: 16,
            flight_dir: None,
            flight_window_ms: 0,
            cluster: None,
        };
        let live = LiveTelemetry::start(3, &config).expect("start");
        let port = live.http_port().unwrap();
        let rt = Arc::new(Runtime::new(RuntimeConfig::optimized(1)));
        live.observe(Arc::clone(&rt));
        let (status, _) = http_get(port, "/healthz");
        assert_eq!(status, 200);
        rt.record_run_error(crate::RunError::Aborted {
            reason: "injected stall".to_string(),
        });
        let (status, body) = http_get(port, "/healthz");
        assert_eq!(status, 503, "recorded error flips /healthz: {body}");
        assert!(body.contains("injected stall"), "reason surfaces: {body}");
        drop(rt);
    }

    #[test]
    fn disabled_config_starts_nothing_but_flight_dump_still_noops() {
        let mut live = LiveTelemetry::start(0, &LiveConfig::disabled()).expect("start");
        assert!(live.http_port().is_none());
        assert!(live.flight().is_none());
        assert!(live.dump_flight("not enabled").is_none());
        live.shutdown();
        live.shutdown(); // idempotent
    }
}
