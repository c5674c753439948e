//! The template-task builder.

use crate::edge::{Consumer, Edge};
use crate::graph::Graph;
use crate::io::{Dispatch, Inputs, Outputs};
use crate::tt::{InputDecl, InputKind, OutBinding, Tt, TtInner};
use crate::{Data, Key, MAX_INPUTS};
use std::any::TypeId;
use std::marker::PhantomData;
use std::sync::Arc;
use ttg_hashtable::{HashTableOptions, ScalableHashTable};
use ttg_runtime::DataCopy;

/// How many data items an aggregator terminal expects per task.
pub enum AggCount<K> {
    /// The same fixed count for every task instance.
    Fixed(usize),
    /// A per-key count — the `compute_num_inputs` callback of the
    /// paper's Listing 1.
    PerKey(Arc<dyn Fn(&K) -> usize + Send + Sync>),
}

impl<K> AggCount<K> {
    pub(crate) fn count(&self, key: &K) -> usize {
        match self {
            AggCount::Fixed(n) => *n,
            AggCount::PerKey(f) => f(key),
        }
    }
}

impl<K> Clone for AggCount<K> {
    fn clone(&self) -> Self {
        match self {
            AggCount::Fixed(n) => AggCount::Fixed(*n),
            AggCount::PerKey(f) => AggCount::PerKey(Arc::clone(f)),
        }
    }
}

impl<K> std::fmt::Debug for AggCount<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AggCount::Fixed(n) => write!(f, "Fixed({n})"),
            AggCount::PerKey(_) => write!(f, "PerKey(..)"),
        }
    }
}

/// The input terminal of a TT, registered as a consumer on an edge.
struct TtConsumer<K: Key, V: Data> {
    tt: Arc<TtInner<K>>,
    idx: usize,
    _marker: PhantomData<fn(V)>,
}

impl<K: Key, V: Data> Consumer<K, V> for TtConsumer<K, V> {
    fn deliver(&self, d: &mut Dispatch<'_, '_>, key: &K, copy: DataCopy) {
        self.tt.deliver_input(d, self.idx, key, copy);
    }
}

type Registrar<K> = Box<dyn FnOnce(&Arc<TtInner<K>>)>;

/// Builder for a template task. Obtained from [`Graph::tt`]; terminals
/// are declared in order, then [`TtBuilder::build`] wires the TT into
/// its edges.
pub struct TtBuilder<'g, K: Key> {
    graph: &'g Graph,
    name: String,
    inputs: Vec<InputDecl<K>>,
    registrars: Vec<Registrar<K>>,
    outputs: Vec<OutBinding>,
    #[allow(clippy::type_complexity)]
    priority: Option<Box<dyn Fn(&K) -> i32 + Send + Sync>>,
}

impl<'g, K: Key> TtBuilder<'g, K> {
    pub(crate) fn new(graph: &'g Graph, name: String) -> Self {
        TtBuilder {
            graph,
            name,
            inputs: Vec::new(),
            registrars: Vec::new(),
            outputs: Vec::new(),
            priority: None,
        }
    }

    fn push_input<V: Data>(&mut self, edge: &Edge<K, V>, kind: InputKind<K>) {
        self.push_input_with_hooks(edge, kind, None)
    }

    fn push_input_with_hooks<V: Data>(
        &mut self,
        edge: &Edge<K, V>,
        kind: InputKind<K>,
        serde: Option<crate::dist::SerdeHooks>,
    ) {
        assert!(
            self.inputs.len() < MAX_INPUTS,
            "template task '{}' exceeds MAX_INPUTS ({MAX_INPUTS})",
            self.name
        );
        let idx = self.inputs.len();
        self.inputs.push(InputDecl {
            ty: TypeId::of::<V>(),
            kind,
            serde,
        });
        let edge_inner = Arc::clone(&edge.inner);
        self.registrars.push(Box::new(move |tt| {
            edge_inner.register(Arc::new(TtConsumer::<K, V> {
                tt: Arc::clone(tt),
                idx,
                _marker: PhantomData,
            }));
        }));
    }

    /// Declares a single-value input terminal fed by `edge`.
    pub fn input<V: Data>(mut self, edge: &Edge<K, V>) -> Self {
        self.push_input(edge, InputKind::Single);
        self
    }

    /// Declares an aggregator terminal fed by `edge`, expecting
    /// `count` items per task (Listing 1's `make_aggregator`).
    pub fn input_aggregator<V: Data>(mut self, edge: &Edge<K, V>, count: AggCount<K>) -> Self {
        self.push_input(edge, InputKind::Aggregate(count));
        self
    }

    /// Convenience: aggregator with a per-key count closure.
    pub fn input_aggregator_with<V: Data>(
        self,
        edge: &Edge<K, V>,
        count: impl Fn(&K) -> usize + Send + Sync + 'static,
    ) -> Self {
        self.input_aggregator(edge, AggCount::PerKey(Arc::new(count)))
    }

    /// Declares a streaming/reducing terminal: `count` incoming items
    /// per task are folded into a single accumulator with `fold` as they
    /// arrive (the paper's *streaming terminal*). The first arrival
    /// seeds the accumulator; each later arrival is folded in under the
    /// bucket lock, so `fold` must be cheap. Unlike an aggregator, only
    /// one tracked copy per task is retained — but the runtime loses
    /// per-item copy tracking, which is exactly the trade-off the paper
    /// describes aggregators as fixing.
    pub fn input_reducer<V: Data + Clone>(
        mut self,
        edge: &Edge<K, V>,
        count: AggCount<K>,
        fold: impl Fn(&mut V, V) + Send + Sync + 'static,
    ) -> Self {
        use crate::shell::InputSlot;
        use ttg_runtime::DataCopy;
        use ttg_sync::OrderingPolicy;
        let erased: crate::tt::ReduceFn = Arc::new(
            move |slot: &mut InputSlot, incoming: DataCopy, policy: OrderingPolicy| {
                // A uniquely owned incoming copy moves; a shared one
                // (e.g. from a broadcast) is cloned — the copy-tracking
                // loss the paper attributes to streaming terminals.
                let v = match incoming.try_take::<V>() {
                    Ok(v) => v,
                    Err(shared) => shared.get::<V>().clone(),
                };
                match slot {
                    InputSlot::Empty => {
                        // Seed with a fresh, uniquely owned accumulator.
                        *slot = InputSlot::One(DataCopy::new(v, policy));
                    }
                    InputSlot::One(acc) => {
                        let acc_ref = acc
                            .get_mut::<V>()
                            .expect("reducer accumulator became shared");
                        fold(acc_ref, v);
                    }
                    InputSlot::Many(_) => unreachable!("reducer slot holding an aggregate"),
                }
            },
        );
        self.push_input(edge, InputKind::Reduce(count, erased));
        self
    }

    /// Declares a single-value input terminal that can receive data from
    /// other ranks of a process group (see [`crate::dist`]); the payload
    /// must be serializable.
    pub fn input_remote<V: Data + serde::Serialize + serde::de::DeserializeOwned>(
        mut self,
        edge: &Edge<K, V>,
    ) -> Self {
        let hooks = crate::dist::make_hooks::<V>();
        self.push_input_with_hooks(edge, InputKind::Single, Some(hooks));
        self
    }

    /// Remote-capable aggregator terminal (see [`crate::dist`]).
    pub fn input_aggregator_remote<V: Data + serde::Serialize + serde::de::DeserializeOwned>(
        mut self,
        edge: &Edge<K, V>,
        count: AggCount<K>,
    ) -> Self {
        let hooks = crate::dist::make_hooks::<V>();
        self.push_input_with_hooks(edge, InputKind::Aggregate(count), Some(hooks));
        self
    }

    /// Declares an output terminal sending into `edge`.
    pub fn output<K2: Key, V: Data>(mut self, edge: &Edge<K2, V>) -> Self {
        self.outputs.push(OutBinding {
            name: edge.name().to_string(),
            key_ty: TypeId::of::<K2>(),
            val_ty: TypeId::of::<V>(),
            edge: edge.inner.clone(),
        });
        self
    }

    /// Sets the task-priority function ("allowing applications to steer
    /// the execution along a critical path").
    pub fn priority(mut self, f: impl Fn(&K) -> i32 + Send + Sync + 'static) -> Self {
        self.priority = Some(Box::new(f));
        self
    }

    /// Finalizes the template task with its body and registers it on the
    /// graph and its edges.
    pub fn build(
        self,
        body: impl Fn(&K, &mut Inputs<'_>, &mut Outputs<'_, '_, '_>) + Send + Sync + 'static,
    ) -> Tt<K> {
        let runtime = Arc::clone(self.graph.runtime_arc());
        let bypass = self.inputs.len() == 1 && matches!(self.inputs[0].kind, InputKind::Single);
        // A shell waits in the table for its second delivery: a task
        // that needs at most one never does, and builds no table.
        let table = (!bypass && !self.inputs.is_empty()).then(|| {
            ScalableHashTable::with_options(HashTableOptions {
                lock: runtime.config().table_lock,
                bravo_slots: (runtime.threads() + 8).next_power_of_two().max(64),
                ..HashTableOptions::default()
            })
        });
        let pool = runtime.resident_pool();
        let vtable = crate::shell::interned_vtable::<K>(&self.name);
        let inner = Arc::new(TtInner {
            name: self.name,
            vtable,
            inputs: self.inputs,
            outputs: self.outputs,
            body: Box::new(body),
            priority: self.priority,
            table,
            pool,
            runtime,
            bypass,
            scope: self.graph.scope().cloned(),
            route: std::sync::OnceLock::new(),
        });
        for reg in self.registrars {
            reg(&inner);
        }
        self.graph
            .register(Arc::clone(&inner) as Arc<dyn crate::graph::AnyTt>);
        Tt { inner }
    }
}
