//! The serving engine: template registry, per-tenant bounded queues,
//! round-robin admission onto the resident runtime, instance-scoped
//! completion, and a bounded result store.
//!
//! Threading model: the engine owns no thread. The thread calling
//! [`ServeEngine::submit`] admits the request (a counter, under the one
//! `Mutex<EngineState>`) and, outside the lock, instantiates and seeds
//! it. The thread that takes the instance scope's zero-crossing — the
//! worker that finished the last task, or the submitter itself for a
//! zero-task or failed-build instance — runs [`finalize`]: moves the
//! instance into the result store, wakes that request's waiter if it
//! has one, tears the graph down outside the lock, and admits the next
//! queued request.
//!
//! Admission invariant: *a queued submission exists only while the
//! in-flight budget is exhausted or some thread is inside [`admit`].*
//! Every path that frees budget pops the next submission under the same
//! lock hold, so there is no wake-up to lose. Ownership rule: whoever
//! removes an id from `running` owns the instance — a completion hook
//! and `shutdown`'s abandon pass can never both have it; an instance
//! counted in flight but not in `running` (being built, or having its
//! trace assembled) belongs to the thread working on it, which discards
//! it if it finds `shutdown_done` set when it takes the lock again.
//! Lock rule: `state` is never held across `instantiate`, `start`,
//! graph teardown, `build_trace` or any user closure.

use parking_lot::{Condvar, Mutex, RwLock};
use serde_json::Value;
use std::cell::Cell;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};
use ttg_core::{GraphInstance, GraphTemplate};
use ttg_obs::{MetricsSnapshot, RuntimeSlot, Sample, SpanTailStore};
use ttg_runtime::obs::LatencyHistogram;
use ttg_runtime::{RecoveryEvent, Runtime};
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
    tenant: Arc<str>,
    template: GraphTemplate,
    input: Value,
}

/// Everything the engine remembers about one submission.
struct InstanceRecord {
    /// Index into [`EngineState::tenants`].
    tenant: usize,
    /// The registry's name for the template (shared, not copied).
    template: Arc<str>,
    status: InstanceStatus,
    submitted_at: Instant,
    /// Submit-to-completion latency, fixed at finalization
    /// (`submitted_at.elapsed()` keeps growing afterwards).
    latency_ns: Option<u64>,
    /// `Some` once finished and still retained; `None` before
    /// completion or after eviction (`evicted` disambiguates).
    results: Option<Vec<(String, Value)>>,
    evicted: bool,
    /// Peer-loss re-executions consumed so far.
    retries: u32,
    /// [`ServeEngine::wait_result`] callers blocked on this record; a
    /// completion nobody waits for notifies nobody.
    waiters: u32,
}

impl InstanceRecord {
    /// What a finished record answers a result request with; clones
    /// the status and the results, nothing else.
    fn view(&self, id: u64) -> Result<ResultView, ServeError> {
        if !self.status.is_finished() {
            return Err(ServeError::ResultNotReady(id));
        }
        if self.evicted {
            return Err(ServeError::ResultEvicted(id));
        }
        Ok(ResultView {
            id,
            status: self.status.clone(),
            results: self.results.clone().unwrap_or_default(),
        })
    }
}

#[derive(Default)]
struct TenantState {
    name: Arc<str>,
    /// [`ServeConfig::slo_for`] this tenant, resolved once.
    slo: Duration,
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
    /// Tenants, interned once, in first-submission order — the
    /// round-robin order. Records name a tenant by index.
    tenants: Vec<TenantState>,
    /// Name → index into `tenants`; the views list them through it.
    tenant_ids: BTreeMap<Arc<str>, usize>,
    instances: HashMap<u64, InstanceRecord>,
    /// Started instances, owned here until a finalizer (or `shutdown`)
    /// removes them — the single ownership transfer.
    running: HashMap<u64, GraphInstance>,
    /// Finished ids in completion order — the result LRU.
    finished: VecDeque<u64>,
    /// Ids whose results were evicted, oldest first; past its cap the
    /// oldest record is forgotten entirely.
    evicted: VecDeque<u64>,
    next_id: u64,
    queued_total: usize,
    inflight_total: usize,
    rr_cursor: usize,
    draining: bool,
    /// A peer's rejoin is pending and some running instance may be
    /// quarantined, so finalizers recompute the gauge.
    quarantine_active: bool,
    abandoned_ids: Vec<u64>,
    shutdown_done: bool,
}

impl EngineState {
    /// The index of `name`'s tenant state, created on first use.
    fn intern_tenant(&mut self, name: &str, config: &ServeConfig) -> usize {
        if let Some(&t) = self.tenant_ids.get(name) {
            return t;
        }
        let t = self.tenants.len();
        let name: Arc<str> = name.into();
        self.tenants.push(TenantState {
            name: Arc::clone(&name),
            slo: config.slo_for(&name),
            ..TenantState::default()
        });
        self.tenant_ids.insert(name, t);
        t
    }

    /// Tenants sorted by name, for the views.
    fn tenants_by_name(&self) -> impl Iterator<Item = &TenantState> {
        self.tenant_ids.values().map(|&t| &self.tenants[t])
    }

    /// Admission: while in-flight budget remains, takes the next queued
    /// submission round-robin across tenants and counts it in flight.
    /// Every path that queues a submission or frees budget calls this
    /// under the same lock hold and hands the result to [`admit`].
    fn pop_next(&mut self, max_inflight: usize) -> Option<Pending> {
        if self.queued_total == 0 || self.inflight_total >= max_inflight {
            return None;
        }
        let n = self.tenants.len();
        let t = (0..n)
            .map(|i| (self.rr_cursor + i) % n)
            .find(|&t| !self.tenants[t].queue.is_empty())?;
        let p = self.tenants[t].queue.pop_front()?;
        self.tenants[t].inflight += 1;
        // Not wrapped here: a tenant interned later must come after `t`.
        self.rr_cursor = t + 1;
        self.queued_total -= 1;
        self.inflight_total += 1;
        if let Some(rec) = self.instances.get_mut(&p.id) {
            rec.status = InstanceStatus::Running;
        }
        Some(p)
    }
}

struct EngineInner {
    config: ServeConfig,
    runtime: Arc<Runtime>,
    slot: Arc<RuntimeSlot>,
    templates: RwLock<BTreeMap<Arc<str>, GraphTemplate>>,
    state: Mutex<EngineState>,
    /// Wakes result waiters and the drain loop (an instance finished).
    cv_done: Condvar,
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
}

impl ServeEngine {
    /// Starts an engine serving instances on `runtime`. The runtime
    /// stays resident for the engine's whole life; the engine's
    /// [`RuntimeSlot`] (see [`ServeEngine::slot`]) is pointed at it so
    /// live telemetry can observe it. Spawns no thread.
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
                next_id: 1,
                ..EngineState::default()
            }),
            cv_done: Condvar::new(),
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
        ServeEngine { inner }
    }

    /// Registers (or replaces) a compiled template under its name.
    pub fn register_template(&self, template: GraphTemplate) {
        self.inner
            .templates
            .write()
            .insert(template.name().into(), template);
    }

    /// Registered template names, sorted.
    pub fn template_names(&self) -> Vec<String> {
        let templates = self.inner.templates.read();
        templates.keys().map(|name| name.to_string()).collect()
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
    /// instance id to poll. Admission control applies per tenant. With
    /// in-flight budget to spare and nothing queued ahead, the instance
    /// is built and seeded on the calling thread before this returns.
    pub fn submit(&self, tenant: &str, template: &str, input: Value) -> Result<u64, ServeError> {
        let inner = &self.inner;
        let (template, tmpl) = inner
            .templates
            .read()
            .get_key_value(template)
            .map(|(name, tmpl)| (Arc::clone(name), tmpl.clone()))
            .ok_or_else(|| ServeError::UnknownTemplate(template.to_string()))?;
        let mut st = inner.state.lock();
        if st.draining {
            return Err(ServeError::ShuttingDown);
        }
        let capacity = inner.config.queue_capacity;
        let t = st.intern_tenant(tenant, &inner.config);
        if st.tenants[t].queue.len() >= capacity {
            st.tenants[t].rejected += 1;
            return Err(ServeError::Overloaded {
                tenant: tenant.to_string(),
                capacity,
            });
        }
        let id = st.next_id;
        st.next_id += 1;
        // Queue, then admit: with budget to spare and nothing queued
        // ahead, `pop_next` hands this very submission straight back —
        // one path, and it can never overtake the round-robin order.
        let ts = &mut st.tenants[t];
        ts.submitted += 1;
        ts.queue.push_back(Pending {
            id,
            tenant: Arc::clone(&ts.name),
            template: tmpl,
            input,
        });
        st.queued_total += 1;
        st.instances.insert(
            id,
            InstanceRecord {
                tenant: t,
                template,
                status: InstanceStatus::Queued,
                submitted_at: Instant::now(),
                latency_ns: None,
                results: None,
                evicted: false,
                retries: 0,
                waiters: 0,
            },
        );
        let next = st.pop_next(inner.config.max_inflight);
        drop(st);
        admit(inner, next);
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
            .map(|r| {
                (
                    st.tenants[r.tenant].name.to_string(),
                    r.template.to_string(),
                )
            })
            .ok_or(ServeError::UnknownInstance(id))
    }

    /// The instance's result, if finished and still retained. Results
    /// stay fetchable (the store keeps them) until LRU eviction.
    pub fn result(&self, id: u64) -> Result<ResultView, ServeError> {
        let st = self.inner.state.lock();
        st.instances
            .get(&id)
            .ok_or(ServeError::UnknownInstance(id))?
            .view(id)
    }

    /// Blocks until the instance finishes (then behaves like
    /// [`ServeEngine::result`]) or `timeout` elapses
    /// ([`ServeError::ResultNotReady`]).
    pub fn wait_result(&self, id: u64, timeout: Duration) -> Result<ResultView, ServeError> {
        let mut st = self.inner.state.lock();
        // Set at the first miss; from then on this caller is counted in
        // the record's `waiters` whenever it is blocked.
        let mut deadline = None;
        loop {
            let rec = st
                .instances
                .get_mut(&id)
                .ok_or(ServeError::UnknownInstance(id))?;
            if deadline.is_some() {
                rec.waiters -= 1;
            }
            if rec.status.is_finished() {
                return rec.view(id);
            }
            let now = Instant::now();
            let deadline = *deadline.get_or_insert(now + timeout);
            if now >= deadline {
                return Err(ServeError::ResultNotReady(id));
            }
            rec.waiters += 1;
            self.inner.cv_done.wait_for(&mut st, deadline - now);
        }
    }

    /// Snapshot of one tenant's counters (`None` if the tenant has
    /// never submitted).
    pub fn tenant_counters(&self, tenant: &str) -> Option<TenantCounters> {
        let st = self.inner.state.lock();
        let t = &st.tenants[*st.tenant_ids.get(tenant)?];
        Some(TenantCounters {
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
            st.tenants_by_name()
                .map(|t| {
                    let h = t.latency.snapshot();
                    (
                        t.name.to_string(),
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
        for t in st.tenants_by_name() {
            let labels = vec![("tenant".to_string(), t.name.to_string())];
            for (name, v) in [
                ("serve_submitted", t.submitted),
                ("serve_completed", t.completed),
                ("serve_rejected", t.rejected),
                ("serve_failed", t.failed),
            ] {
                snap.push(name, labels.clone(), Sample::Counter(v));
            }
            // Only present once a peer-loss re-execution happened, so
            // fault-free snapshots stay byte-identical.
            snap.emit_if_set("serve_retried", labels.clone(), Sample::Counter(t.retried));
            // SLO attribution only exists with `obs` on, so the
            // `obs`-off snapshot stays byte-identical. (Not routed
            // through `emit_if_set`: with `obs` on these are emitted
            // even when zero.)
            if ttg_obs::OBS {
                let target_us = t.slo.as_micros().min(u128::from(u64::MAX)) as u64;
                for (name, v) in [
                    ("serve_slo_target_us", target_us),
                    ("serve_slo_good", t.slo_good),
                    ("serve_slo_breached", t.slo_breached),
                ] {
                    snap.push(name, labels.clone(), Sample::Counter(v));
                }
            }
            let latency = Sample::Histogram(Box::new(t.latency.snapshot()));
            let latency = snap.push("serve_latency", labels, latency);
            if ttg_obs::OBS {
                latency.exemplar = t
                    .exemplar
                    .map(|(id, ns)| (vec![("instance_id".to_string(), id.to_string())], ns));
            }
        }
        let abandoned = Sample::Counter(st.abandoned_ids.len() as u64);
        snap.push("serve_abandoned", Vec::new(), abandoned);
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
                Arc::clone(&st.tenants[rec.tenant].name),
                Arc::clone(&rec.template),
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
        st.tenants_by_name()
            .map(|t| (t.name.to_string(), t.queue.len(), t.inflight))
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
    /// ids — they surface in `/healthz` and [`ServeEngine::abandoned`]).
    /// Idempotent; drop calls it with the configured
    /// [`ServeConfig::drain_timeout`].
    pub fn shutdown(&self, drain: Duration) -> ShutdownReport {
        let deadline = Instant::now() + drain;
        let mut guard = self.inner.state.lock();
        guard.draining = true;
        // Drain: finalizers keep admitting queued work and, now that
        // the engine is draining, notify `cv_done` on every completion.
        // `inflight_total`, not `running.is_empty()`: between `pop_next`
        // and `running` an instance being built is in neither the queue
        // nor `running`, and must not look drained.
        while !guard.shutdown_done && guard.queued_total + guard.inflight_total > 0 {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            self.inner.cv_done.wait_for(&mut guard, deadline - now);
        }
        let st = &mut *guard;
        // Both are disposed of below, once the lock is released.
        let (mut cut_loose, mut never_ran) = (HashMap::new(), Vec::new());
        if !st.shutdown_done {
            // Past the deadline everything unfinished is abandoned:
            // queued submissions that never ran, running instances (cut
            // loose below — their tasks may still execute on the
            // resident runtime, and the leaked graph keeps that memory
            // valid, see `GraphInstance::abandon`), and instances still
            // being built, whose builder finds `shutdown_done` set and
            // drops what it built unstarted.
            for (id, rec) in &mut st.instances {
                if !rec.status.is_finished() {
                    rec.status = InstanceStatus::Abandoned;
                    st.abandoned_ids.push(*id);
                }
            }
            st.abandoned_ids.sort_unstable();
            cut_loose = std::mem::take(&mut st.running);
            for t in &mut st.tenants {
                never_ran.push(std::mem::take(&mut t.queue));
                t.inflight = 0;
            }
            st.queued_total = 0;
            st.inflight_total = 0;
            st.shutdown_done = true;
        }
        let report = ShutdownReport {
            drained: st.abandoned_ids.is_empty(),
            abandoned: st.abandoned_ids.clone(),
        };
        drop(guard);
        self.inner.cv_done.notify_all();
        self.inner.slot.clear();
        for inst in cut_loose.into_values() {
            inst.abandon();
        }
        report
    }
}

impl Drop for ServeEngine {
    fn drop(&mut self) {
        let timeout = self.inner.config.drain_timeout;
        self.shutdown(timeout);
        // A finalizer still on a worker's stack holds the engine — and
        // through it the runtime — by a reference of its own. Were that
        // the last one, the runtime would be dropped by, and try to
        // join, one of its own workers: wait the finalizers out.
        let deadline = Instant::now() + timeout;
        while Arc::strong_count(&self.inner) > 1 && Instant::now() < deadline {
            std::thread::yield_now();
        }
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

thread_local! {
    /// Set while this thread is inside [`admit`]. An instance with no
    /// task or a failed build completes inside its own `start.run()`,
    /// on this thread; its finalizer leaves the freed budget to the
    /// loop it is nested in instead of recursing per queued submission.
    static ADMITTING: Cell<bool> = const { Cell::new(false) };
}

/// Builds and starts `next`, then whatever [`EngineState::pop_next`]
/// yields, until budget or queues are exhausted — on the calling
/// thread, outside the engine lock. The only place instances are
/// created; `submit` and both exits of [`finalize`] call it with what
/// they popped under their own lock hold.
fn admit(inner: &Arc<EngineInner>, mut next: Option<Pending>) {
    if next.is_none() {
        return;
    }
    // Nothing below unwinds: build and seeder panics are caught and
    // recorded as the instance's failure.
    let nested = ADMITTING.replace(true);
    while let Some(p) = next {
        let id = p.id;
        let mut inst = p
            .template
            .instantiate(&inner.runtime, id, p.tenant, p.input);
        // Weak: a straggler of an abandoned instance must not keep a
        // shut-down engine alive (see `Drop for ServeEngine`).
        let hook_inner = Arc::downgrade(inner);
        inst.scope().set_on_complete(move || {
            if let Some(inner) = hook_inner.upgrade() {
                finalize(&inner, id);
            }
        });
        // Publish, then start: the hook can only fire once the
        // submission credit inside `start` is released, and by then
        // the instance is in `running` for it to find.
        let start = inst.take_start();
        let mut st = inner.state.lock();
        if st.shutdown_done {
            // Abandoned while it was being built. The unrun start
            // releases its credit, the hook finds nothing.
            drop(st);
            drop(start);
            drop(inst);
        } else {
            st.running.insert(id, inst);
            drop(st);
            start.run();
        }
        next = inner.state.lock().pop_next(inner.config.max_inflight);
    }
    ADMITTING.set(nested);
}

/// Peer-liveness transitions → instance lifecycle. Serve instances are
/// rank-local graphs, but their tasks may have exchanged messages with
/// the affected peer, so the engine is conservative: every running
/// instance is quarantined while a peer's rejoin is pending, released
/// when the same incarnation returns (transport replay made the outage
/// invisible), and force-failed — which routes it through the bounded
/// re-execution path in [`finalize`] — when the peer restarted or died.
fn on_recovery(inner: &Arc<EngineInner>, event: RecoveryEvent) {
    match event {
        RecoveryEvent::PeerRecovering { .. } => {
            let mut st = inner.state.lock();
            for inst in st.running.values() {
                inst.scope().quarantine();
            }
            st.quarantine_active = !st.running.is_empty();
            inner
                .runtime
                .set_quarantined_instances(st.running.len() as u64);
        }
        RecoveryEvent::PeerRejoined {
            same_incarnation: true,
            ..
        } => {
            let mut st = inner.state.lock();
            for inst in st.running.values() {
                inst.scope().release_quarantine();
            }
            st.quarantine_active = false;
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
/// hooks fired by `force_fail` take the engine lock (and re-execute or
/// finalize on this thread), so the scopes are collected under the lock
/// and failed outside it.
fn force_fail_running(inner: &Arc<EngineInner>, reason: &str) {
    let scopes: Vec<Arc<InstanceScope>> = {
        let mut st = inner.state.lock();
        st.quarantine_active = false;
        st.running.values().map(|i| Arc::clone(i.scope())).collect()
    };
    inner.runtime.set_quarantined_instances(0);
    for scope in scopes {
        scope.force_fail(reason);
    }
}

/// The completion hook of instance `id`, run by whichever thread took
/// its scope's zero-crossing (or force-failed it): moves the instance
/// out of `running` into the result store — or back onto its tenant's
/// queue, for a peer-loss failure with retries left — under one short
/// lock hold, wakes the request's waiters if it has any, tears the
/// graph down outside the lock, and admits the next submission.
fn finalize(inner: &Arc<EngineInner>, id: u64) {
    let config = &inner.config;
    let mut guard = inner.state.lock();
    let st = &mut *guard;
    // The ownership transfer: `shutdown` cut the instance loose first
    // if it is gone, and then this hook has nothing to do.
    let Some(mut inst) = st.running.remove(&id) else {
        return;
    };
    if st.quarantine_active {
        // The departing instance no longer counts toward the
        // quarantine gauge; recompute it from the survivors.
        let quarantined = st
            .running
            .values()
            .filter(|i| i.scope().is_quarantined())
            .count();
        st.quarantine_active = quarantined > 0;
        inner.runtime.set_quarantined_instances(quarantined as u64);
    }
    let outcome = inst
        .outcome()
        .expect("completion hook fired, scope is terminal");
    let rec = st
        .instances
        .get_mut(&id)
        .expect("running instance has a record");
    let t = rec.tenant;
    let peer_loss = matches!(&outcome, ScopeOutcome::Failed(msg) if msg.starts_with("peer-loss:"));
    // Peer-loss failures are infrastructure faults, not application
    // bugs: re-execute from the input the instance was given, up to
    // `max_retries`, before letting the failure become client-visible.
    if peer_loss && !st.draining && rec.retries < config.max_retries {
        if let Some(template) = inner.templates.read().get(&rec.template).cloned() {
            rec.retries += 1;
            rec.status = InstanceStatus::Queued;
            rec.submitted_at = Instant::now();
            let ts = &mut st.tenants[t];
            ts.inflight -= 1;
            ts.retried += 1;
            ts.queue.push_back(Pending {
                id,
                tenant: Arc::clone(&ts.name),
                template,
                input: inst.take_input(),
            });
            st.queued_total += 1;
            st.inflight_total -= 1;
            inner.runtime.note_instance_retried();
            let next = st.pop_next(config.max_inflight);
            drop(guard);
            inst.abandon();
            admit(inner, next);
            return;
        }
    }
    let elapsed = rec.submitted_at.elapsed();
    let latency_ns = elapsed.as_nanos().min(u128::from(u64::MAX)) as u64;
    let (status, failed) = match outcome {
        ScopeOutcome::Completed => (InstanceStatus::Completed, false),
        ScopeOutcome::Failed(msg) => (InstanceStatus::Failed(msg), true),
    };
    let breached = failed || elapsed > st.tenants[t].slo;
    // Tail sampling: breached (or failed) instances get their full
    // trace tree assembled and retained while the rest are dropped —
    // before the result becomes visible, so whoever sees the instance
    // finished finds its trace, and with the lock released around the
    // assembly (it copies the workers' event rings).
    if breached && ttg_obs::OBS {
        let (tenant, template) = (Arc::clone(&st.tenants[t].name), Arc::clone(&rec.template));
        drop(guard);
        let trace = build_trace(inner, id, &tenant, &template, &status, latency_ns);
        inner.tail.insert(id, trace);
        guard = inner.state.lock();
    }
    let st = &mut *guard;
    if st.shutdown_done {
        // Abandoned while the lock was released above.
        drop(guard);
        return;
    }
    let rec = st
        .instances
        .get_mut(&id)
        .expect("running instance has a record");
    rec.status = status;
    rec.results = Some(inst.take_results());
    rec.latency_ns = Some(latency_ns);
    let notify = rec.waiters > 0 || st.draining;
    let ts = &mut st.tenants[t];
    ts.inflight -= 1;
    if failed {
        ts.failed += 1;
    } else {
        ts.completed += 1;
    }
    ts.latency.record(latency_ns);
    if breached {
        ts.slo_breached += 1;
        ts.exemplar = Some((id, latency_ns));
    } else {
        ts.slo_good += 1;
    }
    st.inflight_total -= 1;
    st.finished.push_back(id);
    // Result LRU: evict payloads past capacity, and forget the oldest
    // evicted records entirely (at most `result_capacity` retained plus
    // `max(8 × result_capacity, 64)` evicted ones are remembered) so a
    // long-lived engine stays bounded.
    while st.finished.len() > config.result_capacity {
        let old = st.finished.pop_front().expect("len checked");
        if let Some(r) = st.instances.get_mut(&old) {
            r.results = None;
            r.evicted = true;
        }
        st.evicted.push_back(old);
        if st.evicted.len() > config.result_capacity.saturating_mul(8).max(64) {
            let forgotten = st.evicted.pop_front().expect("len checked");
            st.instances.remove(&forgotten);
        }
    }
    // Nested in an `admit` loop (see `ADMITTING`), leave the freed
    // budget to it: it pops once the start that completed here returns.
    let next = (!ADMITTING.get())
        .then(|| st.pop_next(config.max_inflight))
        .flatten();
    drop(guard);
    if notify {
        // Result waiters and the shutdown drain loop.
        inner.cv_done.notify_all();
    }
    if peer_loss {
        // A force-failed scope never saw a real zero-crossing:
        // straggler tasks may still execute on the resident runtime, so
        // the graph is leaked (as `shutdown` does for cut-loose
        // instances), never freed under them.
        inst.abandon();
    } else {
        drop(inst);
    }
    admit(inner, next);
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
    let span_id = ttg_runtime::obs::spans::pack_span(tenant, id);
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
