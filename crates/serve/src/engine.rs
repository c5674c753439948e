//! The serving engine: template registry, per-tenant bounded queues,
//! round-robin admission onto the resident runtime, instance-scoped
//! completion, and a bounded result store.
//!
//! Concurrency layout: one `Mutex<EngineState>` guards all bookkeeping
//! (queues, counters, live instances, results). A dedicated dispatcher
//! thread moves work between the stages; it is the only thread that
//! instantiates, starts, finalizes, or drops graph instances, so task
//! bodies never run while the engine lock is held. Instance completion
//! hooks (fired by worker threads at the scope's zero-crossing) only
//! push the instance id onto a completion queue and wake the
//! dispatcher.

use parking_lot::{Condvar, Mutex, RwLock};
use serde_json::Value;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use ttg_core::{GraphInstance, GraphTemplate};
use ttg_obs::{LatencyHistogram, MetricsSnapshot, Sample, SpanTailStore};
use ttg_runtime::{RecoveryEvent, Runtime, RuntimeSlot};
use ttg_termdet::{InstanceScope, ScopeOutcome};

/// Sizing and policy knobs for a [`ServeEngine`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Maximum queued (admitted-but-not-started) submissions per
    /// tenant; submissions beyond this are rejected with
    /// [`ServeError::Overloaded`].
    pub queue_capacity: usize,
    /// Maximum concurrently executing instances across all tenants.
    pub max_inflight: usize,
    /// Number of finished instances whose results are retained; older
    /// results are evicted (LRU by completion order) and their
    /// `GET /result` turns 410.
    pub result_capacity: usize,
    /// How long [`ServeEngine::shutdown`] (and drop) waits for queued
    /// and running instances to drain before abandoning them.
    pub drain_timeout: Duration,
    /// Default per-tenant SLO target for submit-to-completion latency.
    /// Completions above it — and all failures — count as breached
    /// (`ttg_serve_slo_breached`) and are tail-sampled into the slow
    /// store.
    pub slo_target: Duration,
    /// Per-tenant SLO overrides; tenants not listed use
    /// [`ServeConfig::slo_target`].
    pub slo_overrides: Vec<(String, Duration)>,
    /// Capacity of the tail-sampling store: how many full span trees
    /// of SLO-breaching (or failed) instances are retained for
    /// `GET /instance/<id>/trace.json` and `GET /slow.json`. Oldest
    /// entries are evicted.
    pub tail_capacity: usize,
    /// How many times an instance failed by *peer loss* (quarantined
    /// when a rank's connection dropped, force-failed when the rank
    /// restarted or died) is automatically re-executed before the
    /// failure becomes client-visible. Failures from the instance's
    /// own tasks are never retried.
    pub max_retries: u32,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_capacity: 64,
            max_inflight: 8,
            result_capacity: 256,
            drain_timeout: Duration::from_secs(5),
            slo_target: Duration::from_millis(250),
            slo_overrides: Vec::new(),
            tail_capacity: 32,
            max_retries: 1,
        }
    }
}

impl ServeConfig {
    /// The SLO latency target that applies to `tenant`.
    pub fn slo_for(&self, tenant: &str) -> Duration {
        self.slo_overrides
            .iter()
            .find(|(t, _)| t == tenant)
            .map(|(_, d)| *d)
            .unwrap_or(self.slo_target)
    }
}

/// Why the engine refused (or could not answer) a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// Admission control: the tenant's submission queue is full.
    Overloaded {
        /// The tenant whose queue overflowed.
        tenant: String,
        /// The configured per-tenant queue capacity.
        capacity: usize,
    },
    /// No template registered under this name.
    UnknownTemplate(String),
    /// No record of this instance id (never submitted, or its record
    /// aged out).
    UnknownInstance(u64),
    /// The instance exists but has not finished yet.
    ResultNotReady(u64),
    /// The instance finished but its result was evicted from the
    /// bounded result store.
    ResultEvicted(u64),
    /// The engine is draining or stopped and accepts no new work.
    ShuttingDown,
    /// A malformed request (HTTP layer: bad JSON, missing fields).
    InvalidRequest(String),
}

impl ServeError {
    /// The HTTP status this error maps to.
    pub fn http_status(&self) -> u16 {
        match self {
            ServeError::Overloaded { .. } => 429,
            ServeError::UnknownTemplate(_) | ServeError::UnknownInstance(_) => 404,
            ServeError::ResultNotReady(_) => 202,
            ServeError::ResultEvicted(_) => 410,
            ServeError::ShuttingDown => 503,
            ServeError::InvalidRequest(_) => 400,
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded { tenant, capacity } => {
                write!(f, "tenant '{tenant}' queue full ({capacity} waiting)")
            }
            ServeError::UnknownTemplate(name) => write!(f, "no template named '{name}'"),
            ServeError::UnknownInstance(id) => write!(f, "no instance {id}"),
            ServeError::ResultNotReady(id) => write!(f, "instance {id} still in flight"),
            ServeError::ResultEvicted(id) => write!(f, "result of instance {id} was evicted"),
            ServeError::ShuttingDown => write!(f, "engine is shutting down"),
            ServeError::InvalidRequest(msg) => write!(f, "invalid request: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Lifecycle stage of one submitted instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InstanceStatus {
    /// Admitted to a tenant queue, not yet started.
    Queued,
    /// Executing on the runtime.
    Running,
    /// Terminated cleanly.
    Completed,
    /// Terminated with a recorded failure (panicking task body, build,
    /// or seeder).
    Failed(String),
    /// Given up at engine shutdown without running (or finishing).
    Abandoned,
}

impl InstanceStatus {
    /// True once the instance will never change status again.
    pub fn is_finished(&self) -> bool {
        !matches!(self, InstanceStatus::Queued | InstanceStatus::Running)
    }

    /// Stable lowercase wire name (`queued`, `running`, `completed`,
    /// `failed`, `abandoned`).
    pub fn wire_name(&self) -> &'static str {
        match self {
            InstanceStatus::Queued => "queued",
            InstanceStatus::Running => "running",
            InstanceStatus::Completed => "completed",
            InstanceStatus::Failed(_) => "failed",
            InstanceStatus::Abandoned => "abandoned",
        }
    }
}

/// A finished instance's status and (if still retained) results.
#[derive(Debug, Clone)]
pub struct ResultView {
    /// The instance id.
    pub id: u64,
    /// Terminal status ([`InstanceStatus::is_finished`] is true).
    pub status: InstanceStatus,
    /// Results emitted into the instance's sink, in emission order.
    pub results: Vec<(String, Value)>,
}

/// Per-tenant counter snapshot (see [`ServeEngine::tenant_counters`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantCounters {
    /// Submissions admitted to the queue.
    pub submitted: u64,
    /// Instances that terminated cleanly.
    pub completed: u64,
    /// Submissions refused by admission control.
    pub rejected: u64,
    /// Instances that terminated with a failure.
    pub failed: u64,
    /// Instances re-executed after a peer-loss failure.
    pub retried: u64,
    /// Currently queued submissions.
    pub queued: usize,
    /// Currently executing instances.
    pub inflight: usize,
}

/// What [`ServeEngine::shutdown`] managed to do.
#[derive(Debug, Clone)]
pub struct ShutdownReport {
    /// True when every queued and running instance finished within the
    /// drain deadline.
    pub drained: bool,
    /// Ids abandoned at the deadline (queued never-run plus running
    /// cut loose), in id order.
    pub abandoned: Vec<u64>,
}

/// One admitted-but-not-started submission.
struct Pending {
    id: u64,
    tenant: String,
    template: GraphTemplate,
    input: Value,
}

/// Everything the engine remembers about one submission.
struct InstanceRecord {
    tenant: String,
    template: String,
    status: InstanceStatus,
    submitted_at: Instant,
    /// Submit-to-completion latency, fixed at finalization
    /// (`submitted_at.elapsed()` keeps growing afterwards).
    latency_ns: Option<u64>,
    /// `Some` once finished and still retained; `None` before
    /// completion or after eviction (`evicted` disambiguates).
    results: Option<Vec<(String, Value)>>,
    evicted: bool,
    /// The submitted input, retained so a peer-loss failure can be
    /// re-executed from scratch.
    input: Value,
    /// Peer-loss re-executions consumed so far.
    retries: u32,
}

#[derive(Default)]
struct TenantState {
    queue: VecDeque<Pending>,
    inflight: usize,
    submitted: u64,
    completed: u64,
    rejected: u64,
    failed: u64,
    /// Instances re-executed after a peer-loss failure.
    retried: u64,
    latency: LatencyHistogram,
    /// Instances that finished within the tenant's SLO target.
    slo_good: u64,
    /// Instances that failed or exceeded the tenant's SLO target.
    slo_breached: u64,
    /// Most recent breaching instance: `(id, latency_ns)` — surfaced
    /// as an exemplar on the tenant's latency histogram.
    exemplar: Option<(u64, u64)>,
}

#[derive(Default)]
struct EngineState {
    tenants: BTreeMap<String, TenantState>,
    instances: BTreeMap<u64, InstanceRecord>,
    /// Instances currently executing, owned here between start and
    /// finalize.
    running: BTreeMap<u64, GraphInstance>,
    /// Finished ids in completion order — the result LRU.
    finished: VecDeque<u64>,
    /// Ids whose completion hook fired, awaiting finalization.
    completions: VecDeque<u64>,
    inflight_total: usize,
    rr_cursor: usize,
    accepting: bool,
    draining: bool,
    abandoned_ids: Vec<u64>,
    shutdown_done: bool,
}

struct EngineInner {
    config: ServeConfig,
    runtime: Arc<Runtime>,
    slot: Arc<RuntimeSlot>,
    templates: RwLock<BTreeMap<String, GraphTemplate>>,
    state: Mutex<EngineState>,
    /// Wakes the dispatcher (new submission, completion, shutdown).
    cv_dispatch: Condvar,
    /// Wakes result waiters and the drain loop (an instance finished).
    cv_done: Condvar,
    next_id: AtomicU64,
    stop: AtomicBool,
    /// Tail-sampling store: full trace trees of SLO-breaching or
    /// failed instances, bounded at `config.tail_capacity`.
    tail: SpanTailStore,
}

/// The multi-tenant graph-serving engine (crate docs have the tour).
///
/// Shared-reference API throughout — wrap it in an `Arc` and hand
/// clones to HTTP routes and client threads. Drop runs
/// [`ServeEngine::shutdown`] with the configured drain timeout.
pub struct ServeEngine {
    inner: Arc<EngineInner>,
    dispatcher: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl ServeEngine {
    /// Starts an engine serving instances on `runtime`. The runtime
    /// stays resident for the engine's whole life; the engine's
    /// [`RuntimeSlot`] (see [`ServeEngine::slot`]) is pointed at it so
    /// live telemetry can observe it.
    pub fn new(runtime: Arc<Runtime>, config: ServeConfig) -> ServeEngine {
        let slot = RuntimeSlot::new();
        slot.set(Arc::clone(&runtime));
        let tail = SpanTailStore::new(config.tail_capacity);
        let inner = Arc::new(EngineInner {
            config,
            runtime,
            slot,
            templates: RwLock::new(BTreeMap::new()),
            state: Mutex::new(EngineState {
                accepting: true,
                ..EngineState::default()
            }),
            cv_dispatch: Condvar::new(),
            cv_done: Condvar::new(),
            next_id: AtomicU64::new(1),
            stop: AtomicBool::new(false),
            tail,
        });
        // Peer-liveness transitions drive instance quarantine/release/
        // re-execution. Weak: an engine that shut down must not be kept
        // alive (or called into) by the resident runtime's observer
        // list.
        let recovery_inner = Arc::downgrade(&inner);
        inner.runtime.add_recovery_observer(move |event| {
            if let Some(inner) = recovery_inner.upgrade() {
                on_recovery(&inner, event);
            }
        });
        let dispatcher = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("ttg-serve-dispatch".into())
                .spawn(move || dispatcher_loop(inner))
                .expect("spawn serve dispatcher")
        };
        ServeEngine {
            inner,
            dispatcher: Mutex::new(Some(dispatcher)),
        }
    }

    /// Registers (or replaces) a compiled template under its name.
    pub fn register_template(&self, template: GraphTemplate) {
        self.inner
            .templates
            .write()
            .insert(template.name().to_string(), template);
    }

    /// Registered template names, sorted.
    pub fn template_names(&self) -> Vec<String> {
        self.inner.templates.read().keys().cloned().collect()
    }

    /// The slot live telemetry reads the resident runtime through.
    pub fn slot(&self) -> Arc<RuntimeSlot> {
        Arc::clone(&self.inner.slot)
    }

    /// The resident runtime.
    pub fn runtime(&self) -> &Arc<Runtime> {
        &self.inner.runtime
    }

    /// Submits one instance of `template` for `tenant`; returns the
    /// instance id to poll. Admission control applies per tenant.
    pub fn submit(&self, tenant: &str, template: &str, input: Value) -> Result<u64, ServeError> {
        let tmpl = self
            .inner
            .templates
            .read()
            .get(template)
            .cloned()
            .ok_or_else(|| ServeError::UnknownTemplate(template.to_string()))?;
        let mut st = self.inner.state.lock();
        if !st.accepting {
            return Err(ServeError::ShuttingDown);
        }
        let capacity = self.inner.config.queue_capacity;
        let ts = st.tenants.entry(tenant.to_string()).or_default();
        if ts.queue.len() >= capacity {
            ts.rejected += 1;
            return Err(ServeError::Overloaded {
                tenant: tenant.to_string(),
                capacity,
            });
        }
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        ts.submitted += 1;
        ts.queue.push_back(Pending {
            id,
            tenant: tenant.to_string(),
            template: tmpl,
            input: input.clone(),
        });
        st.instances.insert(
            id,
            InstanceRecord {
                tenant: tenant.to_string(),
                template: template.to_string(),
                status: InstanceStatus::Queued,
                submitted_at: Instant::now(),
                latency_ns: None,
                results: None,
                evicted: false,
                input,
                retries: 0,
            },
        );
        drop(st);
        self.inner.cv_dispatch.notify_one();
        Ok(id)
    }

    /// The instance's current status.
    pub fn poll(&self, id: u64) -> Result<InstanceStatus, ServeError> {
        let st = self.inner.state.lock();
        st.instances
            .get(&id)
            .map(|r| r.status.clone())
            .ok_or(ServeError::UnknownInstance(id))
    }

    /// The instance's submitting tenant and template names.
    pub fn instance_info(&self, id: u64) -> Result<(String, String), ServeError> {
        let st = self.inner.state.lock();
        st.instances
            .get(&id)
            .map(|r| (r.tenant.clone(), r.template.clone()))
            .ok_or(ServeError::UnknownInstance(id))
    }

    /// The instance's result, if finished and still retained. Results
    /// stay fetchable (the store keeps them) until LRU eviction.
    pub fn result(&self, id: u64) -> Result<ResultView, ServeError> {
        let st = self.inner.state.lock();
        let rec = st
            .instances
            .get(&id)
            .ok_or(ServeError::UnknownInstance(id))?;
        if !rec.status.is_finished() {
            return Err(ServeError::ResultNotReady(id));
        }
        if rec.evicted {
            return Err(ServeError::ResultEvicted(id));
        }
        Ok(ResultView {
            id,
            status: rec.status.clone(),
            results: rec.results.clone().unwrap_or_default(),
        })
    }

    /// Blocks until the instance finishes (then behaves like
    /// [`ServeEngine::result`]) or `timeout` elapses
    /// ([`ServeError::ResultNotReady`]).
    pub fn wait_result(&self, id: u64, timeout: Duration) -> Result<ResultView, ServeError> {
        let deadline = Instant::now() + timeout;
        let mut st = self.inner.state.lock();
        loop {
            match st.instances.get(&id) {
                None => return Err(ServeError::UnknownInstance(id)),
                Some(rec) if rec.status.is_finished() => {
                    if rec.evicted {
                        return Err(ServeError::ResultEvicted(id));
                    }
                    return Ok(ResultView {
                        id,
                        status: rec.status.clone(),
                        results: rec.results.clone().unwrap_or_default(),
                    });
                }
                Some(_) => {}
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(ServeError::ResultNotReady(id));
            }
            self.inner.cv_done.wait_for(&mut st, deadline - now);
        }
    }

    /// Snapshot of one tenant's counters (`None` if the tenant has
    /// never submitted).
    pub fn tenant_counters(&self, tenant: &str) -> Option<TenantCounters> {
        let st = self.inner.state.lock();
        st.tenants.get(tenant).map(|t| TenantCounters {
            submitted: t.submitted,
            completed: t.completed,
            rejected: t.rejected,
            failed: t.failed,
            retried: t.retried,
            queued: t.queue.len(),
            inflight: t.inflight,
        })
    }

    /// The `GET /tenants.json` view: per-tenant counters and latency
    /// percentiles plus engine-wide state.
    pub fn tenants_json(&self) -> Value {
        let st = self.inner.state.lock();
        let tenants = Value::Object(
            st.tenants
                .iter()
                .map(|(name, t)| {
                    let h = t.latency.snapshot();
                    (
                        name.clone(),
                        Value::Object(vec![
                            ("submitted".to_string(), Value::UInt(t.submitted)),
                            ("completed".to_string(), Value::UInt(t.completed)),
                            ("rejected".to_string(), Value::UInt(t.rejected)),
                            ("failed".to_string(), Value::UInt(t.failed)),
                            ("retried".to_string(), Value::UInt(t.retried)),
                            ("queued".to_string(), Value::UInt(t.queue.len() as u64)),
                            ("inflight".to_string(), Value::UInt(t.inflight as u64)),
                            ("p50_ms".to_string(), Value::Float(h.p50() as f64 / 1e6)),
                            ("p99_ms".to_string(), Value::Float(h.p99() as f64 / 1e6)),
                        ]),
                    )
                })
                .collect(),
        );
        Value::Object(vec![
            ("tenants".to_string(), tenants),
            (
                "inflight_total".to_string(),
                Value::UInt(st.inflight_total as u64),
            ),
            ("draining".to_string(), Value::Bool(st.draining)),
            (
                "abandoned".to_string(),
                Value::Array(st.abandoned_ids.iter().map(|id| Value::UInt(*id)).collect()),
            ),
        ])
    }

    /// Appends the engine's per-tenant labeled counters and latency
    /// histograms to `snap` (which keeps its identity labels — use
    /// this rather than `merge` so the `rank` label survives).
    pub fn metrics_into(&self, snap: &mut MetricsSnapshot) {
        let st = self.inner.state.lock();
        for (name, t) in &st.tenants {
            let labels = vec![("tenant".to_string(), name.clone())];
            snap.labeled_counter("serve_submitted", labels.clone(), t.submitted);
            snap.labeled_counter("serve_completed", labels.clone(), t.completed);
            snap.labeled_counter("serve_rejected", labels.clone(), t.rejected);
            snap.labeled_counter("serve_failed", labels.clone(), t.failed);
            // Only present once a peer-loss re-execution happened, so
            // fault-free snapshots stay byte-identical.
            snap.emit_if_set("serve_retried", labels.clone(), Sample::Counter(t.retried));
            // SLO attribution only exists with `obs` on, so the
            // `obs`-off snapshot stays byte-identical. (Not routed
            // through `emit_if_set`: with `obs` on these are emitted
            // even when zero.)
            if ttg_obs::OBS {
                let slo = self.inner.config.slo_for(name);
                snap.labeled_counter(
                    "serve_slo_target_us",
                    labels.clone(),
                    slo.as_micros().min(u128::from(u64::MAX)) as u64,
                );
                snap.labeled_counter("serve_slo_good", labels.clone(), t.slo_good);
                snap.labeled_counter("serve_slo_breached", labels.clone(), t.slo_breached);
                if let Some((id, latency_ns)) = t.exemplar {
                    snap.labeled_exemplar(
                        "serve_latency",
                        labels.clone(),
                        vec![("instance_id".to_string(), id.to_string())],
                        latency_ns,
                    );
                }
            }
            snap.labeled_histogram("serve_latency", labels, t.latency.snapshot());
        }
        snap.counter("serve_abandoned", st.abandoned_ids.len() as u64);
    }

    /// Standalone snapshot of the engine's metrics (no identity
    /// labels).
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        self.metrics_into(&mut snap);
        snap
    }

    /// The `GET /instance/<id>/trace.json` view: the instance's SLO
    /// verdict plus a latency breakdown and span tree assembled from
    /// the runtime's event rings. Tail-sampled (breached or failed)
    /// instances are served from the retained store; anything else is
    /// assembled live, which only reconstructs the span tree while the
    /// bounded rings still hold the instance's events.
    pub fn trace_json(&self, id: u64) -> Result<Value, ServeError> {
        if let Some(tree) = self.inner.tail.get(id) {
            return Ok(tree);
        }
        let (tenant, template, status, latency_ns) = {
            let st = self.inner.state.lock();
            let rec = st
                .instances
                .get(&id)
                .ok_or(ServeError::UnknownInstance(id))?;
            let latency_ns = rec.latency_ns.unwrap_or_else(|| {
                rec.submitted_at
                    .elapsed()
                    .as_nanos()
                    .min(u128::from(u64::MAX)) as u64
            });
            (
                rec.tenant.clone(),
                rec.template.clone(),
                rec.status.clone(),
                latency_ns,
            )
        };
        Ok(build_trace(
            &self.inner,
            id,
            &tenant,
            &template,
            &status,
            latency_ns,
        ))
    }

    /// The `GET /slow.json` view: every tail-sampled trace — instances
    /// that breached their tenant's SLO target or failed — oldest
    /// first, bounded at [`ServeConfig::tail_capacity`].
    pub fn slow_json(&self) -> Value {
        let slow: Vec<Value> = self
            .inner
            .tail
            .list()
            .into_iter()
            .map(|(_, tree)| tree)
            .collect();
        Value::Object(vec![
            (
                "capacity".to_string(),
                Value::UInt(self.inner.tail.capacity() as u64),
            ),
            ("count".to_string(), Value::UInt(slow.len() as u64)),
            ("slow".to_string(), Value::Array(slow)),
        ])
    }

    /// Per-tenant `(name, queued, inflight)` — the `/healthz` load
    /// view.
    pub fn tenant_load(&self) -> Vec<(String, usize, usize)> {
        let st = self.inner.state.lock();
        st.tenants
            .iter()
            .map(|(name, t)| (name.clone(), t.queue.len(), t.inflight))
            .collect()
    }

    /// Instance ids abandoned at shutdown (empty before shutdown and
    /// after a clean drain).
    pub fn abandoned(&self) -> Vec<u64> {
        self.inner.state.lock().abandoned_ids.clone()
    }

    /// True once shutdown has begun.
    pub fn is_draining(&self) -> bool {
        self.inner.state.lock().draining
    }

    /// Stops accepting, drains queued and running instances for at
    /// most `drain`, then abandons whatever remains (recording the
    /// ids — they surface in `/healthz` and [`ServeEngine::abandoned`])
    /// and stops the dispatcher. Idempotent; drop calls it with the
    /// configured [`ServeConfig::drain_timeout`].
    pub fn shutdown(&self, drain: Duration) -> ShutdownReport {
        {
            let mut st = self.inner.state.lock();
            if st.shutdown_done {
                return ShutdownReport {
                    drained: st.abandoned_ids.is_empty(),
                    abandoned: st.abandoned_ids.clone(),
                };
            }
            st.accepting = false;
            st.draining = true;
        }
        self.inner.cv_dispatch.notify_all();

        // Drain: queued work keeps being admitted and run until the
        // deadline; the dispatcher is still live and finalizing.
        let deadline = Instant::now() + drain;
        {
            let mut st = self.inner.state.lock();
            loop {
                let queued: usize = st.tenants.values().map(|t| t.queue.len()).sum();
                // `inflight_total`, not `running.is_empty()`: an admitted
                // instance is counted from the moment the dispatcher pops
                // it, but enters `running` only after it was built and
                // started outside the lock — in between it is in neither
                // the queue nor `running`, and must not look drained.
                if queued == 0 && st.inflight_total == 0 && st.completions.is_empty() {
                    break;
                }
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                let step = (deadline - now).min(Duration::from_millis(20));
                self.inner.cv_done.wait_for(&mut st, step);
            }
        }

        // Stop and join the dispatcher so the final pass below is the
        // only thread touching instances.
        self.inner.stop.store(true, Ordering::Release);
        self.inner.cv_dispatch.notify_all();
        if let Some(h) = self.dispatcher.lock().take() {
            let _ = h.join();
        }

        let mut to_drop: Vec<GraphInstance> = Vec::new();
        let report = {
            let mut st = self.inner.state.lock();
            // Completions the dispatcher didn't get to: finalize
            // normally (the work *did* finish in time).
            let ids: Vec<u64> = st.running.keys().copied().collect();
            for id in ids {
                if st.running.get(&id).map(|i| i.outcome().is_some()) == Some(true) {
                    finalize_locked(&self.inner, &mut st, id, &mut to_drop);
                }
            }
            st.completions.clear();
            // Running instances past the deadline: cut loose. Their
            // tasks may still execute on the resident runtime; the
            // leaked graph keeps that memory valid (see
            // `GraphInstance::abandon`).
            let ids: Vec<u64> = st.running.keys().copied().collect();
            for id in ids {
                let inst = st.running.remove(&id).expect("id just listed");
                if let Some(rec) = st.instances.get_mut(&id) {
                    rec.status = InstanceStatus::Abandoned;
                }
                let tenant = st.instances.get(&id).map(|r| r.tenant.clone());
                if let Some(t) = tenant.and_then(|t| st.tenants.get_mut(&t)) {
                    t.inflight = t.inflight.saturating_sub(1);
                }
                st.inflight_total = st.inflight_total.saturating_sub(1);
                st.abandoned_ids.push(inst.abandon());
            }
            // Queued submissions that never ran.
            let tenants: Vec<String> = st.tenants.keys().cloned().collect();
            for name in tenants {
                while let Some(p) = st.tenants.get_mut(&name).and_then(|t| t.queue.pop_front()) {
                    if let Some(rec) = st.instances.get_mut(&p.id) {
                        rec.status = InstanceStatus::Abandoned;
                    }
                    st.abandoned_ids.push(p.id);
                }
            }
            st.abandoned_ids.sort_unstable();
            st.shutdown_done = true;
            ShutdownReport {
                drained: st.abandoned_ids.is_empty(),
                abandoned: st.abandoned_ids.clone(),
            }
        };
        self.inner.cv_done.notify_all();
        self.inner.slot.clear();
        drop(to_drop);
        report
    }
}

impl Drop for ServeEngine {
    fn drop(&mut self) {
        self.shutdown(self.inner.config.drain_timeout);
    }
}

impl std::fmt::Debug for ServeEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.inner.state.lock();
        f.debug_struct("ServeEngine")
            .field("tenants", &st.tenants.len())
            .field("inflight", &st.inflight_total)
            .field("draining", &st.draining)
            .finish()
    }
}

/// Peer-liveness transitions → instance lifecycle. Serve instances are
/// rank-local graphs, but their tasks may have exchanged messages with
/// the affected peer, so the engine is conservative: every running
/// instance is quarantined while a peer's rejoin is pending, released
/// when the same incarnation returns (transport replay made the outage
/// invisible), and force-failed — which routes it through the bounded
/// re-execution path in [`finalize_locked`] — when the peer restarted
/// or died.
fn on_recovery(inner: &Arc<EngineInner>, event: RecoveryEvent) {
    match event {
        RecoveryEvent::PeerRecovering { .. } => {
            let st = inner.state.lock();
            for inst in st.running.values() {
                inst.scope().quarantine();
            }
            inner
                .runtime
                .set_quarantined_instances(st.running.len() as u64);
        }
        RecoveryEvent::PeerRejoined {
            same_incarnation: true,
            ..
        } => {
            let st = inner.state.lock();
            for inst in st.running.values() {
                inst.scope().release_quarantine();
            }
            inner.runtime.set_quarantined_instances(0);
        }
        RecoveryEvent::PeerRejoined {
            rank,
            same_incarnation: false,
        } => force_fail_running(
            inner,
            &format!("peer-loss: rank {rank} restarted mid-instance"),
        ),
        RecoveryEvent::PeerDead { rank } => {
            force_fail_running(inner, &format!("peer-loss: rank {rank} declared dead"))
        }
    }
}

/// Force-fails every running instance with `reason`. The completion
/// hooks fired by `force_fail` take the engine lock, so the scopes are
/// collected under the lock and failed outside it.
fn force_fail_running(inner: &Arc<EngineInner>, reason: &str) {
    let scopes: Vec<Arc<InstanceScope>> = {
        let st = inner.state.lock();
        st.running.values().map(|i| Arc::clone(i.scope())).collect()
    };
    inner.runtime.set_quarantined_instances(0);
    for scope in scopes {
        scope.force_fail(reason);
    }
}

/// Moves a completed instance out of `running` into the result store;
/// false if the id is not (yet) in `running` — the caller re-queues.
/// The instance itself is pushed onto `to_drop` for teardown outside
/// the lock.
fn finalize_locked(
    inner: &EngineInner,
    st: &mut EngineState,
    id: u64,
    to_drop: &mut Vec<GraphInstance>,
) -> bool {
    let config = &inner.config;
    let Some(inst) = st.running.remove(&id) else {
        return false;
    };
    // The departing instance no longer counts toward the quarantine
    // gauge; recompute it from the survivors.
    let quarantined = st
        .running
        .values()
        .filter(|i| i.scope().is_quarantined())
        .count() as u64;
    inner.runtime.set_quarantined_instances(quarantined);
    let outcome = inst
        .outcome()
        .expect("completion hook fired, scope is terminal");
    // Peer-loss failures are infrastructure faults, not application
    // bugs: re-execute from the retained input, up to `max_retries`,
    // before letting the failure become client-visible. The force-
    // failed graph may still have straggler tasks on the resident
    // runtime, so it is abandoned (leaked), never dropped.
    if let ScopeOutcome::Failed(msg) = &outcome {
        if msg.starts_with("peer-loss:") && !st.draining {
            let (tenant, template, retries) = {
                let rec = st
                    .instances
                    .get(&id)
                    .expect("running instance has a record");
                (rec.tenant.clone(), rec.template.clone(), rec.retries)
            };
            if retries < config.max_retries {
                if let Some(tmpl) = inner.templates.read().get(&template).cloned() {
                    let rec = st
                        .instances
                        .get_mut(&id)
                        .expect("running instance has a record");
                    rec.retries += 1;
                    rec.status = InstanceStatus::Queued;
                    rec.submitted_at = Instant::now();
                    let input = rec.input.clone();
                    if let Some(t) = st.tenants.get_mut(&tenant) {
                        t.inflight = t.inflight.saturating_sub(1);
                        t.retried += 1;
                        t.queue.push_back(Pending {
                            id,
                            tenant: tenant.clone(),
                            template: tmpl,
                            input,
                        });
                    }
                    st.inflight_total = st.inflight_total.saturating_sub(1);
                    inner.runtime.note_instance_retried();
                    inst.abandon();
                    inner.cv_dispatch.notify_one();
                    return true;
                }
            }
        }
    }
    let results = inst.take_results();
    let rec = st
        .instances
        .get_mut(&id)
        .expect("running instance has a record");
    let tenant = rec.tenant.clone();
    let elapsed = rec.submitted_at.elapsed();
    let force_failed =
        matches!(&outcome, ScopeOutcome::Failed(msg) if msg.starts_with("peer-loss:"));
    let failed = match outcome {
        ScopeOutcome::Completed => {
            rec.status = InstanceStatus::Completed;
            false
        }
        ScopeOutcome::Failed(msg) => {
            rec.status = InstanceStatus::Failed(msg);
            true
        }
    };
    rec.results = Some(results);
    let latency_ns = elapsed.as_nanos().min(u128::from(u64::MAX)) as u64;
    rec.latency_ns = Some(latency_ns);
    let template = rec.template.clone();
    let status = rec.status.clone();
    let breached = failed || elapsed > config.slo_for(&tenant);
    if let Some(t) = st.tenants.get_mut(&tenant) {
        t.inflight = t.inflight.saturating_sub(1);
        if failed {
            t.failed += 1;
        } else {
            t.completed += 1;
        }
        t.latency.record(latency_ns);
        if breached {
            t.slo_breached += 1;
            t.exemplar = Some((id, latency_ns));
        } else {
            t.slo_good += 1;
        }
    }
    // Tail sampling: breached (or failed) instances get their full
    // trace tree assembled and retained while the rest are dropped.
    // `peek_events` reads the worker rings without the engine lock.
    if breached && ttg_obs::OBS {
        let trace = build_trace(inner, id, &tenant, &template, &status, latency_ns);
        inner.tail.insert(id, trace);
    }
    st.inflight_total = st.inflight_total.saturating_sub(1);
    st.finished.push_back(id);
    // Result LRU: evict payloads past capacity, and forget the oldest
    // evicted records entirely so a long-lived engine stays bounded.
    while st.finished.len() > config.result_capacity {
        let old = st.finished.pop_front().expect("len checked");
        if let Some(r) = st.instances.get_mut(&old) {
            r.results = None;
            r.evicted = true;
        }
        st.evicted_overflow_trim(config);
    }
    if force_failed {
        // Force-failed scopes never saw a real zero-crossing: straggler
        // tasks may still execute on the resident runtime. Leak the
        // graph (as `shutdown` does for cut-loose instances) instead of
        // freeing memory under them.
        inst.abandon();
    } else {
        to_drop.push(inst);
    }
    // Wake result waiters and the shutdown drain loop.
    inner.cv_done.notify_all();
    true
}

/// Assembles the trace JSON for one instance: SLO verdict, latency
/// breakdown (queue/execute/wire plus the unattributed remainder
/// `other_us`, so for serialized graphs the components sum to the
/// measured latency), and the instance's span tree when the event
/// rings still hold its records. With `obs` off every event
/// carries span 0, so no tree matches and the breakdown is all
/// `other_us`.
fn build_trace(
    inner: &EngineInner,
    id: u64,
    tenant: &str,
    template: &str,
    status: &InstanceStatus,
    latency_ns: u64,
) -> Value {
    let slo = inner.config.slo_for(tenant);
    let breached = matches!(
        status,
        InstanceStatus::Failed(_) | InstanceStatus::Abandoned
    ) || Duration::from_nanos(latency_ns) > slo;
    let span_id = ttg_obs::pack_span(tenant, id);
    let events = inner.runtime.peek_events();
    let rank = inner.runtime.rank();
    let spans = ttg_obs::assemble_spans(&[(rank, events)]);
    let tree = spans.iter().find(|s| s.span == span_id);
    let (queue_ns, execute_ns, wire_ns) = tree
        .map(|s| (s.queue_ns, s.execute_ns, s.wire_ns))
        .unwrap_or((0, 0, 0));
    let other_ns = latency_ns.saturating_sub(queue_ns + execute_ns + wire_ns);
    Value::Object(vec![
        ("instance".to_string(), Value::UInt(id)),
        ("tenant".to_string(), Value::String(tenant.to_string())),
        ("template".to_string(), Value::String(template.to_string())),
        (
            "status".to_string(),
            Value::String(status.wire_name().to_string()),
        ),
        (
            "latency_us".to_string(),
            Value::Float(latency_ns as f64 / 1e3),
        ),
        (
            "slo_target_us".to_string(),
            Value::UInt(slo.as_micros().min(u128::from(u64::MAX)) as u64),
        ),
        ("breached".to_string(), Value::Bool(breached)),
        ("queue_us".to_string(), Value::Float(queue_ns as f64 / 1e3)),
        (
            "execute_us".to_string(),
            Value::Float(execute_ns as f64 / 1e3),
        ),
        ("wire_us".to_string(), Value::Float(wire_ns as f64 / 1e3)),
        ("other_us".to_string(), Value::Float(other_ns as f64 / 1e3)),
        (
            "span_tree".to_string(),
            tree.map(|s| s.to_json()).unwrap_or(Value::Null),
        ),
    ])
}

impl EngineState {
    /// Caps fully-evicted records at 8× the result capacity (oldest
    /// ids first — ids are monotonic).
    fn evicted_overflow_trim(&mut self, config: &ServeConfig) {
        let cap = config.result_capacity.saturating_mul(8).max(64);
        let evicted: Vec<u64> = self
            .instances
            .iter()
            .filter(|(_, r)| r.evicted)
            .map(|(id, _)| *id)
            .collect();
        if evicted.len() > cap {
            for id in &evicted[..evicted.len() - cap] {
                self.instances.remove(id);
            }
        }
    }
}

fn dispatcher_loop(inner: Arc<EngineInner>) {
    loop {
        if inner.stop.load(Ordering::Acquire) {
            return;
        }
        let mut to_start: Vec<Pending> = Vec::new();
        let mut to_drop: Vec<GraphInstance> = Vec::new();
        {
            let mut st = inner.state.lock();
            // Finalize whatever completed since last pass. Ids whose
            // instance is not in `running` yet (hook beat the
            // insertion) go back on the queue for the next pass.
            let pending: Vec<u64> = st.completions.drain(..).collect();
            let mut requeue = Vec::new();
            for id in pending {
                if !finalize_locked(&inner, &mut st, id, &mut to_drop) {
                    requeue.push(id);
                }
            }
            st.completions.extend(requeue);

            // Admit queued work round-robin across tenants up to the
            // shared in-flight budget.
            let keys: Vec<String> = st.tenants.keys().cloned().collect();
            if !keys.is_empty() {
                loop {
                    if st.inflight_total >= inner.config.max_inflight {
                        break;
                    }
                    let mut picked = None;
                    for i in 0..keys.len() {
                        let idx = (st.rr_cursor + i) % keys.len();
                        if let Some(p) = st
                            .tenants
                            .get_mut(&keys[idx])
                            .and_then(|t| t.queue.pop_front())
                        {
                            st.tenants
                                .get_mut(&keys[idx])
                                .expect("tenant just accessed")
                                .inflight += 1;
                            st.rr_cursor = (idx + 1) % keys.len();
                            picked = Some(p);
                            break;
                        }
                    }
                    match picked {
                        Some(p) => {
                            st.inflight_total += 1;
                            if let Some(rec) = st.instances.get_mut(&p.id) {
                                rec.status = InstanceStatus::Running;
                            }
                            to_start.push(p);
                        }
                        None => break,
                    }
                }
            }

            if to_start.is_empty() && to_drop.is_empty() {
                // Nothing to do — sleep until a submission or
                // completion wakes us (bounded, as a lost-wakeup
                // backstop).
                inner
                    .cv_dispatch
                    .wait_for(&mut st, Duration::from_millis(20));
                continue;
            }
        }

        // Instance work happens outside the engine lock: teardown of
        // finished graphs, then instantiation + seeding of admissions.
        drop(std::mem::take(&mut to_drop));
        for p in to_start {
            let mut inst = p
                .template
                .instantiate(&inner.runtime, p.id, p.tenant.as_str(), p.input);
            let hook_inner = Arc::clone(&inner);
            let id = p.id;
            inst.scope().set_on_complete(move || {
                let mut st = hook_inner.state.lock();
                st.completions.push_back(id);
                drop(st);
                hook_inner.cv_dispatch.notify_one();
            });
            inst.start();
            inner.state.lock().running.insert(id, inst);
            // If the completion hook already fired (fast or
            // failed-at-build instance), its id is in `completions`
            // and resolves next pass.
        }
    }
}
