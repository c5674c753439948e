//! The graph object: owns the runtime binding and the built TTs.

use crate::builder::TtBuilder;
use crate::Key;
use parking_lot::Mutex;
use std::sync::Arc;
use ttg_runtime::{Runtime, RuntimeConfig};
use ttg_termdet::InstanceScope;

/// Object-safe teardown hooks every TT provides.
pub(crate) trait AnyTt: Send + Sync {
    /// Disposes shells still waiting for inputs; returns the count.
    fn drain_stale(&self) -> usize;
    /// Number of shells currently waiting for inputs.
    fn waiting(&self) -> usize;
    /// Breaks edge→consumer→TT reference cycles.
    fn clear_consumers(&self);
    /// The TT's name (diagnostics).
    fn tt_name(&self) -> &str;
}

impl<K: Key> AnyTt for crate::tt::TtInner<K> {
    fn drain_stale(&self) -> usize {
        self.drain_stale_shells()
    }

    fn waiting(&self) -> usize {
        self.table.as_ref().map_or(0, |t| t.len())
    }

    fn clear_consumers(&self) {
        self.clear_output_consumers();
    }

    fn tt_name(&self) -> &str {
        &self.name
    }
}

/// A template task graph bound to a runtime ("taskpool").
///
/// Dropping the graph waits for outstanding work, disposes any task
/// shells whose inputs never arrived (incomplete graphs), and unwires the
/// TTs from their edges. On a rank of a multi-rank job the fence is
/// collective, so `drop` waits only for the rank's own tasks
/// ([`Runtime::quiesce`]): fence the job before its graphs go.
pub struct Graph {
    runtime: Arc<Runtime>,
    /// Instance scope for graphs serving one request among many on a
    /// resident runtime; `None` for classic run-to-quiescence graphs.
    scope: Option<Arc<InstanceScope>>,
    tts: Mutex<Vec<Arc<dyn AnyTt>>>,
}

impl Graph {
    /// Creates a graph with its own runtime.
    pub fn new(config: RuntimeConfig) -> Self {
        Self::with_runtime(Arc::new(Runtime::new(config)))
    }

    /// Creates a graph on an existing (possibly shared) runtime.
    pub fn with_runtime(runtime: Arc<Runtime>) -> Self {
        Graph {
            runtime,
            scope: None,
            tts: Mutex::new(Vec::new()),
        }
    }

    /// Creates a graph whose termination is tracked by `scope` instead
    /// of the runtime's global wave: every task scheduled by this
    /// graph's TTs is counted against the scope, and [`Graph::wait`]
    /// waits for the *scope*, not for whole-runtime quiescence. This is
    /// what lets many graph instances share one resident runtime
    /// (`ttg-serve`). Scoped graphs are process-local — they must not be
    /// linked across ranks with [`crate::dist`].
    pub fn with_runtime_scoped(runtime: Arc<Runtime>, scope: Arc<InstanceScope>) -> Self {
        Graph {
            runtime,
            scope: Some(scope),
            tts: Mutex::new(Vec::new()),
        }
    }

    /// Starts building a template task whose task IDs have type `K`.
    pub fn tt<K: Key>(&self, name: impl Into<String>) -> TtBuilder<'_, K> {
        TtBuilder::new(self, name.into())
    }

    /// Blocks until no runnable work remains anywhere in the runtime
    /// (TTG's fence). Task shells still waiting for inputs do **not**
    /// block completion — a graph whose data flow never satisfies them
    /// is considered terminated once everything runnable has run.
    ///
    /// Scoped graphs wait on their [`InstanceScope`] instead: only this
    /// instance's tasks need to drain, never the whole runtime.
    pub fn wait(&self) {
        match &self.scope {
            Some(scope) => {
                scope.wait();
            }
            None => self.runtime.wait(),
        }
    }

    /// The instance scope this graph counts against, if any.
    pub fn scope(&self) -> Option<&Arc<InstanceScope>> {
        self.scope.as_ref()
    }

    /// The underlying runtime.
    pub fn runtime(&self) -> &Runtime {
        &self.runtime
    }

    pub(crate) fn runtime_arc(&self) -> &Arc<Runtime> {
        &self.runtime
    }

    /// A shared handle to the underlying runtime, for registering it
    /// with long-lived observers (e.g. a live-telemetry
    /// `RuntimeSlot`) that must outlive this graph.
    pub fn runtime_shared(&self) -> Arc<Runtime> {
        Arc::clone(&self.runtime)
    }

    pub(crate) fn register(&self, tt: Arc<dyn AnyTt>) {
        self.tts.lock().push(tt);
    }

    /// Number of template tasks built on this graph.
    pub fn num_tts(&self) -> usize {
        self.tts.lock().len()
    }

    /// Names of all template tasks built on this graph, in build order.
    pub fn tt_names(&self) -> Vec<String> {
        self.tts
            .lock()
            .iter()
            .map(|tt| tt.tt_name().to_string())
            .collect()
    }

    /// Names of task templates that still hold unsatisfied shells
    /// (diagnostics for incomplete graphs).
    pub fn incomplete_tts(&self) -> Vec<String> {
        self.tts
            .lock()
            .iter()
            .filter(|tt| tt.waiting() > 0)
            .map(|tt| tt.tt_name().to_string())
            .collect()
    }
}

impl Drop for Graph {
    fn drop(&mut self) {
        // Quiesce before freeing the TTs (live tasks hold raw pointers
        // into them). A scoped graph waits only for its own instance's
        // tasks — the runtime may be busy with sibling instances and
        // must not be fenced. A dormant scope (no credit outstanding,
        // e.g. a template validation probe) tears down immediately.
        match &self.scope {
            Some(scope) => {
                if scope.pending() > 0 {
                    scope.wait();
                }
            }
            None => self.runtime.quiesce(),
        }
        let tts = self.tts.lock();
        for tt in tts.iter() {
            let stale = tt.drain_stale();
            if stale > 0 {
                // Diagnostic, not an error: mirrors a data-flow graph
                // whose unfolding stopped early.
                eprintln!(
                    "ttg: graph teardown dropped {stale} unsatisfied task(s) of '{}'",
                    tt.tt_name()
                );
            }
        }
        for tt in tts.iter() {
            tt.clear_consumers();
        }
    }
}

impl std::fmt::Debug for Graph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Graph")
            .field("tts", &self.num_tts())
            .field("runtime", &self.runtime)
            .finish()
    }
}
