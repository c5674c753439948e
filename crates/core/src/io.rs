//! Task-body I/O: reading inputs, sending to output terminals, and the
//! dispatch context abstracting worker-side vs external execution.

use crate::shell::InputSlot;
use crate::tt::OutBinding;
use crate::{Data, Key};
use std::any::TypeId;
use ttg_runtime::{DataCopy, RawTask, Runtime, WorkerCtx};
use ttg_sync::OrderingPolicy;

/// Where an operation is executing: inside a worker (the hot path, with
/// bundled scheduling) or on an external thread (graph seeding).
pub(crate) enum Dispatch<'a, 'rt> {
    /// Inside worker `ctx` of the runtime.
    Worker(&'a mut WorkerCtx<'rt>),
    /// Outside the worker pool (e.g. the main thread calling `invoke`).
    External(&'a Runtime),
}

impl<'rt> Dispatch<'_, 'rt> {
    /// The runtime's memory-ordering policy (for data copies).
    pub(crate) fn ordering(&self) -> OrderingPolicy {
        match self {
            Dispatch::Worker(ctx) => ctx.ordering(),
            Dispatch::External(rt) => rt.ordering(),
        }
    }

    /// Sends a serialized active message to rank `dst` (runs under the
    /// handler registered with that id).
    pub(crate) fn send_msg(&mut self, dst: usize, priority: i32, handler: u32, payload: Vec<u8>) {
        match self {
            Dispatch::Worker(ctx) => ctx.send_msg(dst, priority, handler, payload),
            Dispatch::External(rt) => rt.send_msg(dst, priority, handler, payload),
        }
    }

    /// The worker this dispatch runs on. Only for code that a worker
    /// alone reaches: task execution.
    pub(crate) fn worker(&mut self) -> &mut WorkerCtx<'rt> {
        match self {
            Dispatch::Worker(ctx) => ctx,
            Dispatch::External(_) => unreachable!("tasks execute on workers"),
        }
    }

    /// Accounts for and schedules a freshly readied task.
    ///
    /// # Safety
    ///
    /// `task` must be live, exclusively owned, and layout-conformant.
    pub(crate) unsafe fn schedule_new(&mut self, task: RawTask) {
        match self {
            Dispatch::Worker(ctx) => {
                ctx.count_discovered();
                // SAFETY: forwarded contract.
                unsafe { ctx.schedule(task) };
            }
            Dispatch::External(rt) => {
                rt.account_external_discovery();
                // SAFETY: forwarded contract.
                unsafe { rt.inject_raw(task) };
            }
        }
    }
}

/// Read access to an executing task's satisfied inputs.
///
/// Terminal indices follow declaration order on the [`crate::TtBuilder`].
pub struct Inputs<'a> {
    pub(crate) slots: &'a mut [InputSlot],
}

impl Inputs<'_> {
    /// Number of input terminals.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when the task has no input terminals.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Borrows the datum of single-value terminal `idx`.
    ///
    /// # Panics
    ///
    /// On type mismatch, on an aggregator terminal, or if the datum was
    /// already taken.
    pub fn get<T: Data>(&self, idx: usize) -> &T {
        match &self.slots[idx] {
            InputSlot::One(copy) => copy.get::<T>(),
            InputSlot::Many(_) => panic!("input {idx} is an aggregator; use aggregate()"),
            InputSlot::Empty => panic!("input {idx} already taken (or never delivered)"),
        }
    }

    /// Takes the tracked copy out of terminal `idx` for zero-copy
    /// forwarding via [`Outputs::forward`].
    pub fn take_copy(&mut self, idx: usize) -> DataCopy {
        match std::mem::take(&mut self.slots[idx]) {
            InputSlot::One(copy) => copy,
            InputSlot::Many(_) => panic!("input {idx} is an aggregator; use take_aggregate()"),
            InputSlot::Empty => panic!("input {idx} already taken (or never delivered)"),
        }
    }

    /// Retains and returns the tracked copy of terminal `idx` *without*
    /// removing it from the slot — the "data reuse" pattern of the cost
    /// model: the retain here plus the release when the slot drops are
    /// the N_RC = 2 atomic operations per input.
    pub fn clone_copy(&self, idx: usize) -> DataCopy {
        match &self.slots[idx] {
            InputSlot::One(copy) => copy.clone(),
            InputSlot::Many(_) => panic!("input {idx} is an aggregator"),
            InputSlot::Empty => panic!("input {idx} already taken (or never delivered)"),
        }
    }

    /// Takes the value of terminal `idx`, moving it out without a clone
    /// when this task is the copy's final owner (the paper's move
    /// optimization) and cloning otherwise.
    pub fn take<T: Data + Clone>(&mut self, idx: usize) -> T {
        match self.take_copy(idx).try_take::<T>() {
            Ok(v) => v,
            Err(shared) => shared.get::<T>().clone(),
        }
    }

    /// Borrows the accumulated values of aggregator terminal `idx`, in
    /// arrival order (the aggregator gives *no* ordering guarantee —
    /// bodies needing an order must sort, as in the paper's Listing 1).
    pub fn aggregate<T: Data>(&self, idx: usize) -> AggregateView<'_, T> {
        let items = match &self.slots[idx] {
            InputSlot::Many(agg) => agg.items(),
            InputSlot::One(_) => panic!("input {idx} is a single-value terminal; use get()"),
            InputSlot::Empty => &[],
        };
        AggregateView {
            items,
            _marker: std::marker::PhantomData,
        }
    }

    /// Takes the tracked copies of aggregator terminal `idx` for
    /// forwarding.
    pub fn take_aggregate(&mut self, idx: usize) -> Vec<DataCopy> {
        match std::mem::take(&mut self.slots[idx]) {
            InputSlot::Many(agg) => agg.into_copies(),
            InputSlot::Empty => Vec::new(),
            InputSlot::One(_) => panic!("input {idx} is a single-value terminal; use take_copy()"),
        }
    }

    /// Number of data items currently in terminal `idx`.
    pub fn count(&self, idx: usize) -> usize {
        self.slots[idx].count()
    }
}

/// Borrowed view over an aggregator terminal's values.
pub struct AggregateView<'a, T> {
    /// Every element is `Some` (see `shell::Aggregate::items`).
    items: &'a [Option<DataCopy>],
    _marker: std::marker::PhantomData<fn() -> T>,
}

impl<'a, T: Data> AggregateView<'a, T> {
    /// Number of aggregated items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when no items were aggregated.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Iterates the aggregated values (arrival order).
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &'a T> + '_ {
        self.items.iter().map(value_of::<T>)
    }
}

fn value_of<T: Data>(item: &Option<DataCopy>) -> &T {
    let copy = item.as_ref().expect("aggregate items are a filled prefix");
    copy.get::<T>()
}

impl<'a, T: Data> IntoIterator for &AggregateView<'a, T> {
    type Item = &'a T;
    type IntoIter =
        std::iter::Map<std::slice::Iter<'a, Option<DataCopy>>, fn(&'a Option<DataCopy>) -> &'a T>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.iter().map(value_of::<T>)
    }
}

/// Send access to an executing task's output terminals.
pub struct Outputs<'a, 'b, 'rt> {
    pub(crate) bindings: &'a [OutBinding],
    pub(crate) dispatch: &'a mut Dispatch<'b, 'rt>,
}

impl Outputs<'_, '_, '_> {
    /// Number of output terminals.
    pub fn len(&self) -> usize {
        self.bindings.len()
    }

    /// True when the task has no output terminals.
    pub fn is_empty(&self) -> bool {
        self.bindings.is_empty()
    }

    fn check_binding<K2: Key, V: Data>(bindings: &[OutBinding], idx: usize) -> &OutBinding {
        let b = &bindings[idx];
        assert_eq!(
            (b.key_ty, b.val_ty),
            (TypeId::of::<K2>(), TypeId::of::<V>()),
            "output terminal {idx} ({}) sent with mismatched key/value types",
            b.name
        );
        b
    }

    /// Sends `value` to successor task `key` through output terminal
    /// `idx`, creating a fresh tracked copy.
    pub fn send<K2: Key, V: Data>(&mut self, idx: usize, key: K2, value: V) {
        let copy = DataCopy::new(value, self.dispatch.ordering());
        let b = Self::check_binding::<K2, V>(self.bindings, idx);
        b.edge.send_erased(self.dispatch, &key, copy);
    }

    /// Forwards an existing tracked copy (zero-copy move/share — the
    /// data-flow "move" variant of the Figure 5 benchmark).
    pub fn forward<K2: Key>(&mut self, idx: usize, key: K2, copy: DataCopy) {
        let b = &self.bindings[idx];
        let b: &OutBinding = b;
        assert_eq!(
            b.key_ty,
            TypeId::of::<K2>(),
            "output terminal {idx} ({}) sent with mismatched key type",
            b.name
        );
        b.edge.send_erased(self.dispatch, &key, copy);
    }

    /// Broadcasts `value` to many successor keys, all sharing **one**
    /// tracked copy (PaRSEC's zero-copy broadcast).
    pub fn broadcast<K2: Key, V: Data>(
        &mut self,
        idx: usize,
        keys: impl IntoIterator<Item = K2>,
        value: V,
    ) {
        let b = Self::check_binding::<K2, V>(self.bindings, idx);
        let mut keys = keys.into_iter();
        // One key of look-ahead tells the last recipient from the rest
        // without collecting the keys. No key, no copy: `value` drops.
        let Some(mut key) = keys.next() else { return };
        let copy = DataCopy::new(value, self.dispatch.ordering());
        for next in keys {
            b.edge.send_erased(self.dispatch, &key, copy.clone());
            key = next;
        }
        // Last recipient takes the sender's reference (no retain).
        b.edge.send_erased(self.dispatch, &key, copy);
    }
}
