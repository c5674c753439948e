//! Compiled graph templates: split "describe the graph" from "run the
//! graph" so one description can be executed many times — concurrently —
//! on a resident runtime.
//!
//! A classic TTG program interleaves the two: it builds TTs on a
//! [`Graph`], seeds inputs, and fences. A serving runtime instead
//! compiles a [`GraphTemplate`] **once** (the build closure is validated
//! against a probe graph: it must construct at least one TT, with unique
//! names, without panicking) and then stamps out a [`GraphInstance`] per
//! request. Each instance gets
//!
//! - its own [`Graph`] wired to the shared resident runtime,
//! - a fresh `ttg_termdet::InstanceScope` (instance-scoped termination —
//!   the instance completes without quiescing the runtime), and
//! - an [`InstanceCtx`] carrying the instance id, tenant, request input,
//!   and a [`ResultSink`] task bodies emit results into.
//!
//! Templates are immutable and cheap to clone (three `Arc`s); the
//! per-instance cost is building the instance's TTs, because the build
//! closure captures the request in their bodies. What a TT need not own
//! it does not build: its shells come from the runtime's resident pool
//! of their type (shared with every other instance — a shell carries
//! its TT, so instances stay isolated), and it has a hash table only if
//! a shell of its can wait for a second input.
//!
//! Starting an instance is split in two so that an owner can *publish*
//! the instance before it can finish: [`GraphInstance::take_start`]
//! hands out the seeder and the submission credit as an
//! [`InstanceStart`], the owner stores the instance where its
//! completion hook will look for it, and only then
//! [`InstanceStart::run`] seeds — all of the seeder's initial tasks in
//! one [`Runtime::inject_batch`] publication — and releases the credit.
//! A zero-task or failed-build instance completes inside `run`, on the
//! calling thread; every other one on the worker that finishes its last
//! task. [`GraphInstance::start`] is the two steps back to back, for
//! callers that keep the instance on their own stack.

use crate::tt::panic_message;
use crate::Graph;
use parking_lot::Mutex;
use serde_json::Value;
use std::sync::Arc;
use std::time::Duration;
use ttg_runtime::{Runtime, RuntimeConfig};
use ttg_termdet::{InstanceScope, ScopeOutcome};

/// Seeds an instance's initial inputs (`invoke`/`deliver` calls). Runs
/// once, under the instance's submission credit.
pub type SeedFn = Box<dyn FnOnce() + Send>;

/// Builds one instance of the template on `graph` and returns the
/// seeder that will inject the instance's initial work. Runs once per
/// instantiation; must be deterministic in graph *shape* (TT names).
pub type BuildFn = Arc<dyn Fn(&Graph, &InstanceCtx) -> SeedFn + Send + Sync>;

/// Why a template failed to compile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TemplateError {
    /// The build closure panicked during validation.
    BuildPanicked(String),
    /// The build closure constructed no template tasks.
    EmptyGraph,
    /// Two template tasks share a name (results and diagnostics are
    /// keyed by TT name, so names must be unique).
    DuplicateTt(String),
}

impl std::fmt::Display for TemplateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TemplateError::BuildPanicked(msg) => {
                write!(f, "template build panicked during validation: {msg}")
            }
            TemplateError::EmptyGraph => write!(f, "template builds no template tasks"),
            TemplateError::DuplicateTt(name) => {
                write!(f, "template builds two tasks named '{name}'")
            }
        }
    }
}

impl std::error::Error for TemplateError {}

/// Frozen facts about a compiled template, derived at validation time.
#[derive(Debug, Clone)]
pub struct TemplateMeta {
    /// TT names in build order.
    pub tts: Vec<String>,
}

/// Collects the results an instance's task bodies emit. Cheap to clone;
/// all clones share one store.
#[derive(Clone, Default)]
pub struct ResultSink {
    entries: Arc<Mutex<Vec<(String, Value)>>>,
}

impl ResultSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one named result (arrival order is preserved).
    pub fn emit(&self, name: impl Into<String>, value: Value) {
        self.entries.lock().push((name.into(), value));
    }

    /// Takes everything emitted so far.
    pub fn take(&self) -> Vec<(String, Value)> {
        std::mem::take(&mut self.entries.lock())
    }

    /// Number of results currently held.
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// True when nothing has been emitted (or everything was taken).
    pub fn is_empty(&self) -> bool {
        self.entries.lock().is_empty()
    }
}

impl std::fmt::Debug for ResultSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResultSink")
            .field("entries", &self.len())
            .finish()
    }
}

/// Per-instantiation context handed to the build closure.
pub struct InstanceCtx {
    /// Runtime-wide unique instance id (namespaces keys, results, and
    /// the termination scope).
    pub id: u64,
    /// The submitting tenant.
    pub tenant: Arc<str>,
    /// The request payload.
    pub input: Value,
    /// Where task bodies deliver the instance's results.
    pub sink: ResultSink,
}

/// An immutable, validated, cheap-to-clone graph description (see the
/// module docs).
#[derive(Clone)]
pub struct GraphTemplate {
    name: Arc<str>,
    build: BuildFn,
    meta: Arc<TemplateMeta>,
}

impl GraphTemplate {
    /// Compiles `build` into a template named `name`.
    ///
    /// Validation runs the build closure once against a throwaway
    /// single-thread probe runtime (the seeder is *not* run, so no task
    /// executes): a panic, an empty graph, or duplicate TT names are
    /// compile errors, caught here rather than on every request.
    pub fn compile(
        name: impl Into<String>,
        build: impl Fn(&Graph, &InstanceCtx) -> SeedFn + Send + Sync + 'static,
    ) -> Result<GraphTemplate, TemplateError> {
        let name = name.into();
        let build: BuildFn = Arc::new(build);
        let meta = {
            let probe_rt = Arc::new(Runtime::new(RuntimeConfig::optimized(1)));
            let scope = InstanceScope::new(u64::MAX);
            let graph = Graph::with_runtime_scoped(Arc::clone(&probe_rt), scope);
            let ctx = InstanceCtx {
                id: u64::MAX,
                tenant: "template-probe".into(),
                input: Value::Null,
                sink: ResultSink::new(),
            };
            let built = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                // The probe seeder is dropped unrun: validation must not
                // execute application work.
                let _seed = build(&graph, &ctx);
            }));
            if let Err(payload) = built {
                return Err(TemplateError::BuildPanicked(panic_message(
                    payload.as_ref(),
                )));
            }
            let tts = graph.tt_names();
            if tts.is_empty() {
                return Err(TemplateError::EmptyGraph);
            }
            let mut seen = std::collections::HashSet::new();
            for tt in &tts {
                if !seen.insert(tt.as_str()) {
                    return Err(TemplateError::DuplicateTt(tt.clone()));
                }
            }
            TemplateMeta { tts }
        };
        Ok(GraphTemplate {
            name: name.into(),
            build,
            meta: Arc::new(meta),
        })
    }

    /// The template's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Frozen template facts (TT names, in build order).
    pub fn meta(&self) -> &TemplateMeta {
        &self.meta
    }

    /// Stamps out one executable instance on `runtime`. The instance is
    /// inert until [`GraphInstance::start`] seeds it — split so callers
    /// can install a completion hook on the scope first, without racing
    /// fast instances.
    ///
    /// A panicking build (validated builds can still panic on hostile
    /// *inputs*) yields an instance that is already complete and
    /// [`ScopeOutcome::Failed`] — submission never unwinds.
    pub fn instantiate(
        &self,
        runtime: &Arc<Runtime>,
        id: u64,
        tenant: impl Into<Arc<str>>,
        input: Value,
    ) -> GraphInstance {
        let scope = InstanceScope::new(id);
        let tenant: Arc<str> = tenant.into();
        // Link the scope to its span context before any task can be
        // scheduled under it; packs to 0 (unattributed) with the
        // `obs` feature off.
        scope.set_span(ttg_runtime::obs::spans::pack_span(&tenant, id));
        let graph = Graph::with_runtime_scoped(Arc::clone(runtime), Arc::clone(&scope));
        let ctx = InstanceCtx {
            id,
            tenant,
            input,
            sink: ResultSink::new(),
        };
        let guard = scope.submission_guard();
        let seed = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            (self.build)(&graph, &ctx)
        })) {
            Ok(seed) => Some(seed),
            Err(payload) => {
                scope.fail(format!(
                    "building instance of template '{}' panicked: {}",
                    self.name,
                    panic_message(payload.as_ref())
                ));
                None
            }
        };
        GraphInstance {
            template: Arc::clone(&self.name),
            id,
            tenant: ctx.tenant,
            input: ctx.input,
            sink: ctx.sink,
            scope,
            graph: Some(graph),
            seed,
            guard: Some(guard),
        }
    }
}

impl std::fmt::Debug for GraphTemplate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GraphTemplate")
            .field("name", &self.name)
            .field("tts", &self.meta.tts)
            .finish()
    }
}

/// One executing (or executed) instantiation of a [`GraphTemplate`].
///
/// Dropping the instance tears its graph down; for an incomplete
/// instance that blocks until the instance's own tasks drain (never
/// whole-runtime quiescence). [`GraphInstance::abandon`] is the escape
/// hatch for shutdown paths that must not block.
pub struct GraphInstance {
    template: Arc<str>,
    id: u64,
    tenant: Arc<str>,
    /// The request payload, kept so a re-execution needs no copy.
    input: Value,
    sink: ResultSink,
    scope: Arc<InstanceScope>,
    graph: Option<Graph>,
    seed: Option<SeedFn>,
    guard: Option<ttg_termdet::SubmissionGuard>,
}

/// The not-yet-run half of an instance: its seeder and the submission
/// credit taken at instantiation (see the module docs). Dropping it
/// unrun releases the credit without seeding.
pub struct InstanceStart {
    seed: Option<SeedFn>,
    guard: Option<ttg_termdet::SubmissionGuard>,
    scope: Arc<InstanceScope>,
    runtime: Arc<Runtime>,
    template: Arc<str>,
}

impl InstanceStart {
    /// Seeds the instance's initial work and releases the submission
    /// credit; the instance completes (its scope reaches zero) once all
    /// work it unfolds has drained — for a zero-task or failed-build
    /// instance, before this returns. A panicking seeder marks the
    /// instance failed instead of unwinding.
    pub fn run(self) {
        seed_and_release(
            self.seed,
            self.guard,
            &self.scope,
            &self.runtime,
            &self.template,
        );
    }
}

/// The body of [`InstanceStart::run`], on borrowed parts so that
/// [`GraphInstance::start`] can run it in place.
fn seed_and_release(
    seed: Option<SeedFn>,
    guard: Option<ttg_termdet::SubmissionGuard>,
    scope: &InstanceScope,
    runtime: &Runtime,
    template: &str,
) {
    if let Some(seed) = seed {
        // Seeding runs off-worker, so the request's identity enters
        // the runtime via the ambient span: terminals invoked by the
        // seeder stamp it onto the tasks they inject.
        let span = scope.span();
        if let Err(payload) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ttg_runtime::obs::spans::with_ambient_span(span, || runtime.inject_batch(seed))
        })) {
            scope.fail(format!(
                "seeding instance {} of template '{template}' panicked: {}",
                scope.id(),
                panic_message(payload.as_ref())
            ));
        }
    }
    // Dropping the guard releases the submission credit; for a
    // zero-task or failed-build instance this is the zero-crossing.
    drop(guard);
}

impl GraphInstance {
    /// The instance id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The submitting tenant.
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    /// The template this instance was stamped from.
    pub fn template_name(&self) -> &str {
        &self.template
    }

    /// The instance's termination scope (for completion hooks).
    pub fn scope(&self) -> &Arc<InstanceScope> {
        &self.scope
    }

    /// Takes the instance's seeder and submission credit, to be
    /// [run](InstanceStart::run) once the instance is where its
    /// completion hook expects it. Later calls return an empty start.
    pub fn take_start(&mut self) -> InstanceStart {
        InstanceStart {
            seed: self.seed.take(),
            guard: self.guard.take(),
            scope: Arc::clone(&self.scope),
            runtime: Arc::clone(self.graph.as_ref().expect("live graph").runtime_arc()),
            template: Arc::clone(&self.template),
        }
    }

    /// [`GraphInstance::take_start`] and [`InstanceStart::run`] in one
    /// step. Idempotent — later calls are no-ops.
    pub fn start(&mut self) {
        let runtime = self.graph.as_ref().expect("live graph").runtime();
        let (seed, guard) = (self.seed.take(), self.guard.take());
        seed_and_release(seed, guard, &self.scope, runtime, &self.template);
    }

    /// Takes the request payload back (leaving `Null`), so a failed
    /// instance can be re-executed from the input it was given.
    pub fn take_input(&mut self) -> Value {
        std::mem::replace(&mut self.input, Value::Null)
    }

    /// Blocks until the instance terminates (its tasks only).
    pub fn wait(&self) -> ScopeOutcome {
        self.scope.wait()
    }

    /// [`GraphInstance::wait`] with a deadline; `None` on timeout.
    pub fn try_wait(&self, timeout: Duration) -> Option<ScopeOutcome> {
        self.scope.wait_timeout(timeout)
    }

    /// The outcome, if the instance has terminated.
    pub fn outcome(&self) -> Option<ScopeOutcome> {
        self.scope.outcome()
    }

    /// Takes the results emitted so far (name, value) in emission order.
    pub fn take_results(&self) -> Vec<(String, Value)> {
        self.sink.take()
    }

    /// Leaks the instance's graph instead of tearing it down.
    ///
    /// For shutdown paths that hit their drain deadline: tearing down a
    /// graph with tasks still queued would either block (waiting on the
    /// scope) or free memory those queued tasks point into. Leaking the
    /// TTs is safe — the resident runtime may still execute the stragglers
    /// against live (if orphaned) state. This is a deliberate, bounded
    /// leak on a path that precedes process exit; callers must report
    /// the abandoned instance id.
    pub fn abandon(mut self) -> u64 {
        if let Some(graph) = self.graph.take() {
            std::mem::forget(graph);
        }
        self.id
    }
}

impl Drop for GraphInstance {
    fn drop(&mut self) {
        // An un-started instance would make Graph::drop wait forever on
        // a scope still holding the submission credit: release it (and
        // drop the unrun seeder) first.
        self.seed = None;
        self.guard = None;
    }
}

impl std::fmt::Debug for GraphInstance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GraphInstance")
            .field("template", &self.template)
            .field("id", &self.id)
            .field("tenant", &self.tenant)
            .field("scope", &self.scope)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Edge;

    /// A template: `stage(k)` doubles its input and sends to `collect(k)`,
    /// which emits into the sink. Seeded with `n` keys from the request
    /// input `{"n": ...}`.
    fn doubling_template() -> GraphTemplate {
        GraphTemplate::compile("doubling", |graph, ctx| {
            let edge: Edge<u64, u64> = Edge::new("doubled");
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

    #[test]
    fn compile_validates_shape() {
        let t = doubling_template();
        assert_eq!(t.name(), "doubling");
        assert_eq!(
            t.meta().tts,
            vec!["stage".to_string(), "collect".to_string()]
        );

        let empty = GraphTemplate::compile("empty", |_g, _ctx| Box::new(|| {}));
        assert_eq!(empty.unwrap_err(), TemplateError::EmptyGraph);

        let dup = GraphTemplate::compile("dup", |g, _ctx| {
            let _a = g.tt::<u64>("same").build(|_, _, _| {});
            let _b = g.tt::<u64>("same").build(|_, _, _| {});
            Box::new(|| {})
        });
        assert_eq!(dup.unwrap_err(), TemplateError::DuplicateTt("same".into()));

        let boom = GraphTemplate::compile("boom", |_g, _ctx| -> SeedFn {
            panic!("bad build");
        });
        assert!(matches!(
            boom.unwrap_err(),
            TemplateError::BuildPanicked(msg) if msg.contains("bad build")
        ));
    }

    #[test]
    fn instance_runs_to_completion_with_results() {
        let t = doubling_template();
        let rt = Arc::new(Runtime::new(RuntimeConfig::optimized(2)));
        let mut inst = t.instantiate(
            &rt,
            7,
            "tenant-a",
            Value::Object(vec![("n".into(), Value::UInt(3))]),
        );
        assert_eq!(inst.id(), 7);
        assert!(inst.outcome().is_none(), "inert until started");
        inst.start();
        assert_eq!(inst.wait(), ScopeOutcome::Completed);
        let mut results = inst.take_results();
        results.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(results.len(), 3);
        assert_eq!(results[1].0, "collect/1");
        assert_eq!(results[1].1.as_u64(), Some(2));
    }

    #[test]
    fn sequential_instances_reuse_a_resident_runtime() {
        // The acceptance-criteria shape: many sequential instances with
        // no full-runtime quiescence between them (Runtime::wait is
        // never called; each instance waits only on its own scope).
        let t = doubling_template();
        let rt = Arc::new(Runtime::new(RuntimeConfig::optimized(2)));
        for id in 0..120u64 {
            let mut inst = t.instantiate(
                &rt,
                id,
                "tenant-a",
                Value::Object(vec![("n".into(), Value::UInt(2))]),
            );
            inst.start();
            assert_eq!(inst.wait(), ScopeOutcome::Completed, "instance {id}");
            assert_eq!(inst.take_results().len(), 2);
        }
    }

    #[test]
    fn concurrent_instances_complete_independently() {
        let t = doubling_template();
        let rt = Arc::new(Runtime::new(RuntimeConfig::optimized(4)));
        let instances: Vec<_> = (0..10u64)
            .map(|id| {
                let mut inst = t.instantiate(
                    &rt,
                    id,
                    if id % 2 == 0 { "even" } else { "odd" },
                    Value::Object(vec![("n".into(), Value::UInt(8))]),
                );
                inst.start();
                inst
            })
            .collect();
        for inst in &instances {
            assert_eq!(inst.wait(), ScopeOutcome::Completed);
            assert_eq!(inst.take_results().len(), 8);
        }
    }

    #[test]
    fn panicking_instance_fails_without_poisoning_siblings() {
        let t = GraphTemplate::compile("fragile", |graph, ctx| {
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
        .unwrap();
        let rt = Arc::new(Runtime::new(RuntimeConfig::optimized(2)));

        let mut bad = t.instantiate(
            &rt,
            1,
            "a",
            Value::Object(vec![("die".into(), Value::Bool(true))]),
        );
        let mut good = t.instantiate(&rt, 2, "b", Value::Null);
        bad.start();
        good.start();
        assert!(matches!(
            bad.wait(),
            ScopeOutcome::Failed(msg) if msg.contains("panicked")
        ));
        assert_eq!(good.wait(), ScopeOutcome::Completed);
        assert_eq!(good.take_results().len(), 1);

        // The runtime stays healthy for a third submission.
        let mut third = t.instantiate(&rt, 3, "a", Value::Null);
        third.start();
        assert_eq!(third.wait(), ScopeOutcome::Completed);
    }

    #[test]
    fn dropping_unstarted_instance_does_not_hang() {
        let t = doubling_template();
        let rt = Arc::new(Runtime::new(RuntimeConfig::optimized(2)));
        let inst = t.instantiate(&rt, 9, "a", Value::Null);
        drop(inst); // guard released, seeder dropped unrun
    }
}
