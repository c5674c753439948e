//! Template tasks: declaration data, input delivery, and shell execution.

use crate::builder::AggCount;
use crate::io::{Dispatch, Inputs, Outputs};
use crate::shell::{Aggregate, InputSlot, Shell};
use crate::{Data, Key};
use std::any::{Any, TypeId};
use std::ptr::NonNull;
use std::sync::Arc;
use ttg_hashtable::{HashTableStats, ScalableHashTable};
use ttg_mempool::{FreeListPool, PoolBox};
use ttg_runtime::{DataCopy, Runtime, TaskHeader};
use ttg_sync::CAtomicUsize;

/// Handles one reducer delivery: seeds the slot on first arrival
/// (guaranteeing a uniquely owned accumulator) or folds into it
/// (type-erased; the typed closure is captured at declaration time).
pub(crate) type ReduceFn =
    Arc<dyn Fn(&mut crate::shell::InputSlot, DataCopy, ttg_sync::OrderingPolicy) + Send + Sync>;

/// How one input terminal satisfies.
pub(crate) enum InputKind<K> {
    /// Exactly one datum per task instance.
    Single,
    /// An aggregator terminal: `count(key)` data items per task instance
    /// (paper Section V-D1, Listing 1). All items are retained as
    /// individual tracked copies.
    Aggregate(AggCount<K>),
    /// A streaming/reducing terminal: `count(key)` items folded into a
    /// single accumulator as they arrive — the pre-aggregator mechanism
    /// the paper describes ("streaming terminals that accumulate the
    /// required number of elements into a custom data structure"), which
    /// trades copy tracking for bounded memory.
    Reduce(AggCount<K>, ReduceFn),
}

pub(crate) struct InputDecl<K> {
    pub(crate) ty: TypeId,
    pub(crate) kind: InputKind<K>,
    /// Serialization hooks; present iff the terminal was declared
    /// remote-capable (`input_remote` / `input_aggregator_remote`).
    pub(crate) serde: Option<crate::dist::SerdeHooks>,
}

/// A type-erased output edge reference plus its declared types.
pub(crate) struct OutBinding {
    pub(crate) name: String,
    pub(crate) key_ty: TypeId,
    pub(crate) val_ty: TypeId,
    pub(crate) edge: Arc<dyn ErasedEdge>,
}

/// Object-safe view of `EdgeInner<K, V>` for heterogeneous output lists.
pub(crate) trait ErasedEdge: Send + Sync {
    fn send_erased(&self, d: &mut Dispatch<'_, '_>, key: &dyn Any, copy: DataCopy);
    fn clear_consumers_erased(&self);
}

impl<K: Key, V: Data> ErasedEdge for crate::edge::EdgeInner<K, V> {
    fn send_erased(&self, d: &mut Dispatch<'_, '_>, key: &dyn Any, copy: DataCopy) {
        let key = key
            .downcast_ref::<K>()
            .expect("output terminal key type mismatch");
        self.send(d, key, copy);
    }

    fn clear_consumers_erased(&self) {
        self.clear_consumers();
    }
}

/// The task body signature: `(key, inputs, outputs)`.
pub(crate) type BodyFn<K> =
    Box<dyn Fn(&K, &mut Inputs<'_>, &mut Outputs<'_, '_, '_>) + Send + Sync>;

/// Shared state of one template task.
pub(crate) struct TtInner<K: Key> {
    pub(crate) name: String,
    /// Interned vtable carrying this TT's name, so task events (and the
    /// span breakdowns assembled from them) attribute executions to the
    /// real TT instead of a generic shell. One leaked vtable per unique
    /// `(key type, name)` pair — see [`crate::shell::interned_vtable`].
    pub(crate) vtable: &'static ttg_runtime::TaskVTable,
    pub(crate) inputs: Vec<InputDecl<K>>,
    pub(crate) outputs: Vec<OutBinding>,
    pub(crate) body: BodyFn<K>,
    #[allow(clippy::type_complexity)]
    pub(crate) priority: Option<Box<dyn Fn(&K) -> i32 + Send + Sync>>,
    /// Discovered-but-unready task shells, keyed by task ID
    /// (Section III-C). Values are shell addresses. `None` for a TT no
    /// shell of which ever waits: no input, or `bypass`.
    pub(crate) table: Option<ScalableHashTable<K, usize>>,
    /// Per-thread free-list pool for shells (Section IV-E): the one
    /// `runtime` keeps for every TT with this key type.
    pub(crate) pool: Arc<FreeListPool<Shell<K>>>,
    pub(crate) runtime: Arc<Runtime>,
    /// Single fixed input ⇒ skip the hash table entirely.
    pub(crate) bypass: bool,
    /// Instance scope of the owning graph, if it serves one request of
    /// many on a resident runtime (see [`crate::Graph::with_runtime_scoped`]).
    /// Scoped TTs count every scheduled task against the scope and
    /// isolate body panics so one failing instance cannot poison its
    /// siblings.
    pub(crate) scope: Option<Arc<ttg_termdet::InstanceScope>>,
    /// Distribution state (keymap + message handler); set once by
    /// [`crate::dist::link_spmd`].
    pub(crate) route: std::sync::OnceLock<crate::dist::Route<K>>,
}

// SAFETY: the raw shell pointers in the table are owned by the TT; all
// access is synchronized by the table's locks.
unsafe impl<K: Key> Send for TtInner<K> {}
unsafe impl<K: Key> Sync for TtInner<K> {}

impl<K: Key> TtInner<K> {
    /// Total deliveries needed before a task with `key` is eligible.
    pub(crate) fn goal_for(&self, key: &K) -> usize {
        self.inputs
            .iter()
            .map(|d| match &d.kind {
                InputKind::Single => 1,
                InputKind::Aggregate(c) => c.count(key),
                InputKind::Reduce(c, _) => c.count(key),
            })
            .sum()
    }

    fn priority_for(&self, key: &K) -> i32 {
        self.priority.as_ref().map_or(0, |f| f(key))
    }

    /// Credits the instance scope for a task about to be scheduled.
    /// Must happen-before the shell is published to any queue — the
    /// scope's credit protocol relies on the increment preceding
    /// visibility (see `ttg_termdet::InstanceScope`); a worker may hold
    /// it in the running task's frame until that task settles.
    #[inline]
    fn note_scheduled(&self, d: &mut Dispatch<'_, '_>) {
        match (&self.scope, d) {
            (Some(scope), Dispatch::Worker(ctx)) => ctx.credit_scope(scope),
            (Some(scope), Dispatch::External(_)) => scope.task_scheduled(),
            (None, _) => {}
        }
    }

    /// Allocates a fresh shell for `key` from the pool. Not yet counted
    /// as discovered — that happens when the shell becomes runnable.
    fn new_shell(&self, d: &Dispatch<'_, '_>, key: K) -> NonNull<Shell<K>> {
        let goal = self.goal_for(&key);
        let priority = self.priority_for(&key);
        let shell = || Shell {
            header: TaskHeader::new(priority, self.vtable),
            tt: NonNull::from(self),
            key,
            slots: std::array::from_fn(|_| InputSlot::Empty),
            goal,
            satisfied: CAtomicUsize::new(0),
        };
        let shell = match d {
            // SAFETY: the pool has one slot per worker of `self.runtime`
            // (`TtBuilder::build`); `ctx` is a worker of that runtime, so
            // its id is below that count and no other thread holds a
            // context with the same id — this thread is the slot's only
            // popper. Workers of any other runtime, and every non-worker
            // thread, take the shared slot.
            Dispatch::Worker(ctx) if ctx.belongs_to(&self.runtime) => unsafe {
                self.pool.alloc_in(ctx.id(), shell)
            },
            _ => self.pool.alloc(shell()),
        }
        .into_raw();
        // Scoped instances stamp every shell with the request's span so
        // the worker attributes execution (and downstream sends) to it;
        // nothing without `obs`. The scheduling path may later
        // re-stamp-if-unset from the running task's span, which this
        // explicit stamp takes precedence over.
        if let Some(scope) = &self.scope {
            // SAFETY: freshly allocated, exclusively owned until
            // published.
            unsafe { shell.as_ref().header.stamp_span(scope.span()) };
        }
        shell
    }

    /// Delivers one datum into input terminal `idx` of task `key`.
    ///
    /// This is TTG's hot path and follows the paper's atomic-cost model:
    /// the bypass path (single-input TTs) allocates, fills, and schedules
    /// directly; the general path performs a locked-bucket transaction on
    /// the TT's hash table plus one atomic satisfaction increment.
    pub(crate) fn deliver_input(
        &self,
        d: &mut Dispatch<'_, '_>,
        idx: usize,
        key: &K,
        copy: DataCopy,
    ) {
        debug_assert!(idx < self.inputs.len(), "input index out of range");
        if let Some(route) = self.route.get() {
            let owner = (route.keymap)(key);
            if owner != self.runtime.rank() {
                self.forward_remote(d, route, owner, idx, key, copy);
                return;
            }
        }
        if self.bypass {
            // "For single-input tasks, access to the hash table can be
            // eliminated because a newly discovered task can be scheduled
            // immediately."
            let shell = self.new_shell(d, key.clone());
            self.note_scheduled(d);
            // SAFETY: the shell is exclusively ours until scheduled.
            unsafe {
                (*shell.as_ptr()).slots[idx] = InputSlot::One(copy);
                (*shell.as_ptr())
                    .satisfied
                    .store(1, std::sync::atomic::Ordering::Relaxed);
                d.schedule_new(Shell::raw_task(shell));
            }
            return;
        }
        let table = self.table.as_ref().expect("a TT that joins inputs");
        let mut bucket = table.lock_bucket(key.clone());
        let (shell_ptr, fresh) = match bucket.find() {
            Some(addr) => (
                NonNull::new(*addr as *mut Shell<K>).expect("null shell in table"),
                false,
            ),
            None => (self.new_shell(d, key.clone()), true),
        };
        if fresh {
            bucket.insert(shell_ptr.as_ptr() as usize);
        }
        // SAFETY: slot writes are serialized by the bucket lock; the
        // shell is not runnable yet.
        let ready = unsafe {
            let shell = &mut *shell_ptr.as_ptr();
            match (&self.inputs[idx].kind, &mut shell.slots[idx]) {
                (InputKind::Single, slot @ InputSlot::Empty) => *slot = InputSlot::One(copy),
                (InputKind::Single, _) => panic!(
                    "duplicate datum for single-value input {idx} of '{}'",
                    self.name
                ),
                (InputKind::Aggregate(n), InputSlot::Many(agg)) => agg.push(copy, || n.count(key)),
                (InputKind::Aggregate(_), slot @ InputSlot::Empty) => {
                    *slot = InputSlot::Many(Aggregate::Inline([Some(copy), None, None]))
                }
                (InputKind::Aggregate(_), InputSlot::One(_)) => {
                    unreachable!("aggregator slot holding a single value")
                }
                (InputKind::Reduce(_, handler), slot) => handler(slot, copy, d.ordering()),
            }
            shell.add_satisfaction(1)
        };
        if ready {
            bucket.remove().expect("ready shell missing from table");
            drop(bucket);
            self.note_scheduled(d);
            // SAFETY: fully satisfied, removed from the table: ours.
            unsafe { d.schedule_new(Shell::raw_task(shell_ptr)) };
        }
    }

    /// Ships one datum to the owning rank as a serialized active
    /// message; the peer TT instance delivers it locally on arrival.
    fn forward_remote(
        &self,
        d: &mut Dispatch<'_, '_>,
        route: &crate::dist::Route<K>,
        owner: usize,
        idx: usize,
        key: &K,
        copy: DataCopy,
    ) {
        let hooks = self.inputs[idx].serde.as_ref().unwrap_or_else(|| {
            panic!(
                "input {idx} of '{}' received a cross-rank datum but was not \
                 declared with input_remote()/input_aggregator_remote()",
                self.name
            )
        });
        let key_bytes = (route.key_to_bytes)(key);
        let val_bytes = (hooks.to_bytes)(&copy);
        drop(copy); // the serialized payload now carries the datum
        let payload = crate::dist::encode_spmd(idx as u32, &key_bytes, &val_bytes);
        d.send_msg(owner, self.priority_for(key), route.target, payload);
    }

    /// Creates and schedules a task whose inputs are already (vacuously)
    /// satisfied — `ttg::invoke`.
    pub(crate) fn invoke_now(&self, d: &mut Dispatch<'_, '_>, key: K) {
        if let Some(route) = self.route.get() {
            let owner = (route.keymap)(&key);
            if owner != self.runtime.rank() {
                let key_bytes = (route.key_to_bytes)(&key);
                let payload = crate::dist::encode_spmd(crate::dist::INVOKE_IDX, &key_bytes, &[]);
                d.send_msg(owner, self.priority_for(&key), route.target, payload);
                return;
            }
        }
        debug_assert_eq!(
            self.goal_for(&key),
            0,
            "invoke() requires a task with no pending inputs; use deliver()"
        );
        let shell = self.new_shell(d, key);
        self.note_scheduled(d);
        // SAFETY: fresh shell, exclusively ours.
        unsafe { d.schedule_new(Shell::raw_task(shell)) };
    }

    /// Runs a shell's body and reclaims it (called from the task vtable).
    pub(crate) fn execute_shell(&self, shell_ptr: NonNull<Shell<K>>, d: &mut Dispatch<'_, '_>) {
        // SAFETY: the scheduler delivered exclusive ownership; the pool
        // is this TT's.
        let mut boxed = unsafe { PoolBox::from_raw(&self.pool, shell_ptr) };
        let ninputs = self.inputs.len();
        let shell: &mut Shell<K> = &mut boxed;
        let (key, slots) = (&shell.key, &mut shell.slots[..ninputs]);
        let mut inputs = Inputs { slots };
        let mut outputs = Outputs {
            bindings: &self.outputs,
            dispatch: d,
        };
        match &self.scope {
            None => {
                (self.body)(key, &mut inputs, &mut outputs);
                // Dropping the box releases any copies the body left in
                // place and returns the shell to the pool.
                drop(boxed);
            }
            Some(scope) => {
                // Scoped execution isolates panics: one failing instance
                // must not unwind through the worker and take the shared
                // runtime (and every sibling instance) down with it. The
                // instance is marked failed and still drains normally.
                let outer = outputs.dispatch.worker().enter_scope(scope);
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    (self.body)(key, &mut inputs, &mut outputs)
                }));
                if let Err(payload) = result {
                    scope.fail(format!(
                        "task body of '{}' panicked: {}",
                        self.name,
                        panic_message(payload.as_ref())
                    ));
                }
                drop(boxed);
                // Settled before the worker publishes what the body —
                // even one that panicked — scheduled. A leaf's decrement
                // may release a waiter that frees this very TT: the worker
                // fires it once this task's execute has fully unwound.
                d.worker().leave_scope(outer, scope);
            }
        }
    }

    /// Reclaims a shell without executing it (teardown path).
    pub(crate) fn dispose_shell(&self, shell_ptr: NonNull<Shell<K>>) {
        // SAFETY: exclusive ownership per the dispose contract.
        drop(unsafe { PoolBox::from_raw(&self.pool, shell_ptr) });
    }

    /// Disposes all shells still waiting for inputs (incomplete graphs).
    /// Returns how many were dropped.
    pub(crate) fn drain_stale_shells(&self) -> usize {
        let Some(table) = &self.table else { return 0 };
        let stale = table.drain();
        let n = stale.len();
        for (_k, addr) in stale {
            self.dispose_shell(NonNull::new(addr as *mut Shell<K>).expect("null shell"));
        }
        n
    }

    /// Breaks the edge→consumer→TT reference cycles (graph teardown).
    pub(crate) fn clear_output_consumers(&self) {
        for b in &self.outputs {
            b.edge.clear_consumers_erased();
        }
    }
}

/// Best-effort extraction of a panic payload's message.
pub(crate) fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A handle to a built template task.
///
/// Cheap to clone; the template (and its hash table and shell pool) lives
/// until the owning [`crate::Graph`] is dropped.
pub struct Tt<K: Key> {
    pub(crate) inner: Arc<TtInner<K>>,
}

impl<K: Key> Tt<K> {
    /// The template's name.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// Number of declared input terminals.
    pub fn num_inputs(&self) -> usize {
        self.inner.inputs.len()
    }

    /// Number of declared output terminals.
    pub fn num_outputs(&self) -> usize {
        self.inner.outputs.len()
    }

    /// Creates a task instance with no pending inputs and schedules it —
    /// `ttg::invoke`. Only valid for TTs whose satisfaction goal for
    /// `key` is zero (no inputs, or aggregators expecting zero items).
    pub fn invoke(&self, key: K) {
        self.inner
            .invoke_now(&mut Dispatch::External(&self.inner.runtime), key);
    }

    /// Delivers `value` into input terminal `idx` of task `key` from
    /// outside the worker pool (graph seeding).
    pub fn deliver<V: Data>(&self, idx: usize, key: K, value: V) {
        assert_eq!(
            self.inner.inputs[idx].ty,
            TypeId::of::<V>(),
            "deliver: input {idx} of '{}' has a different payload type",
            self.inner.name
        );
        let mut d = Dispatch::External(&self.inner.runtime);
        let copy = DataCopy::new(value, d.ordering());
        self.inner.deliver_input(&mut d, idx, &key, copy);
    }

    /// Statistics of the TT's discovered-task hash table (all zero for a
    /// TT that needs none: no input, or a single fixed one).
    pub fn table_stats(&self) -> HashTableStats {
        let table = self.inner.table.as_ref();
        table.map(|t| t.stats()).unwrap_or_default()
    }

    /// Number of task shells currently waiting for inputs.
    pub fn waiting_tasks(&self) -> usize {
        crate::graph::AnyTt::waiting(&*self.inner)
    }
}

impl<K: Key> Clone for Tt<K> {
    fn clone(&self) -> Self {
        Tt {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<K: Key> std::fmt::Debug for Tt<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tt")
            .field("name", &self.inner.name)
            .field("inputs", &self.inner.inputs.len())
            .field("outputs", &self.inner.outputs.len())
            .field("waiting", &self.waiting_tasks())
            .finish()
    }
}
