//! Task shells: the pooled objects representing discovered task
//! instances.
//!
//! A shell is created when the first datum for a task ID arrives (or at
//! `invoke`), accumulates inputs — in the TT's hash table if more than
//! one delivery is needed — and becomes a runnable task once its
//! satisfaction goal is reached. Shells embed the runtime's
//! [`TaskHeader`] at offset 0 and are allocated from the TT's per-thread
//! free-list pool (the N_OB = 2 of the cost model).

use crate::tt::TtInner;
use crate::{Key, MAX_INPUTS};
use std::ptr::NonNull;
use std::sync::atomic::Ordering;
use ttg_runtime::{DataCopy, RawTask, TaskHeader, TaskVTable};
use ttg_sync::CAtomicUsize;

/// How many aggregated copies a slot holds before it allocates.
const INLINE_ITEMS: usize = 3;

/// An aggregator terminal's copies in arrival order: up to
/// [`INLINE_ITEMS`] inside the shell, more in one allocation. Either way
/// a prefix of `Some`s, so readers see one slice type.
#[derive(Debug)]
pub(crate) enum Aggregate {
    Inline([Option<DataCopy>; INLINE_ITEMS]),
    Spilled(Vec<Option<DataCopy>>),
}

impl Aggregate {
    /// Appends `copy`. `goal`, the number of items the terminal expects,
    /// is asked only when the inline room runs out, to size the one
    /// allocation exactly.
    pub(crate) fn push(&mut self, copy: DataCopy, goal: impl FnOnce() -> usize) {
        match self {
            Aggregate::Inline(items) => match items.iter_mut().find(|i| i.is_none()) {
                Some(free) => *free = Some(copy),
                None => {
                    let mut all = Vec::with_capacity(goal().max(INLINE_ITEMS + 1));
                    all.extend(items.iter_mut().map(Option::take));
                    all.push(Some(copy));
                    *self = Aggregate::Spilled(all);
                }
            },
            Aggregate::Spilled(all) => all.push(Some(copy)),
        }
    }

    /// The items delivered so far (every element is `Some`).
    pub(crate) fn items(&self) -> &[Option<DataCopy>] {
        match self {
            Aggregate::Inline(items) => {
                let filled = items.iter().position(Option::is_none);
                &items[..filled.unwrap_or(INLINE_ITEMS)]
            }
            Aggregate::Spilled(all) => all,
        }
    }

    /// Moves the items out.
    pub(crate) fn into_copies(self) -> Vec<DataCopy> {
        match self {
            Aggregate::Inline(items) => items.into_iter().flatten().collect(),
            Aggregate::Spilled(all) => all.into_iter().flatten().collect(),
        }
    }
}

/// Storage for one input terminal of one task instance.
#[derive(Debug, Default)]
pub(crate) enum InputSlot {
    /// Nothing delivered yet.
    #[default]
    Empty,
    /// A single-datum terminal's value.
    One(DataCopy),
    /// An aggregator terminal's accumulated values.
    Many(Aggregate),
}

impl InputSlot {
    /// Number of data items this slot currently holds.
    pub(crate) fn count(&self) -> usize {
        match self {
            InputSlot::Empty => 0,
            InputSlot::One(_) => 1,
            InputSlot::Many(agg) => agg.items().len(),
        }
    }
}

/// A discovered task instance. `#[repr(C)]`: the header must be first so
/// shells can travel through the intrusive scheduler queues.
#[repr(C)]
pub(crate) struct Shell<K: Key> {
    pub(crate) header: TaskHeader,
    /// The owning template task. Shells never outlive their TT: the
    /// graph's teardown waits for execution and drains stale shells.
    pub(crate) tt: NonNull<TtInner<K>>,
    /// Total number of data deliveries required before the task is
    /// eligible (fixed inputs count 1 each; aggregators their per-key
    /// count).
    pub(crate) goal: usize,
    /// Deliveries so far — the paper's "counter of available input data"
    /// (one atomic increment per input, N_ID = 1).
    pub(crate) satisfied: CAtomicUsize,
    pub(crate) key: K,
    /// Last: what every delivery touches sits in front of unused slots.
    pub(crate) slots: [InputSlot; MAX_INPUTS],
}

// SAFETY: shells move between threads through the scheduler; all fields
// are Send. Sync is required by FreeListPool's storage, but shells are
// only ever accessed by their current owner.
unsafe impl<K: Key> Send for Shell<K> {}
unsafe impl<K: Key> Sync for Shell<K> {}

/// Interns one leaked [`TaskVTable`] per unique `(key type, TT name)`
/// pair so task events and span breakdowns carry the TT's real name
/// instead of the generic `"tt-shell"`. Interning (rather than leaking
/// per TT) keeps the leak bounded: serving workloads instantiate fresh
/// TTs per request, but template names form a small fixed set.
pub(crate) fn interned_vtable<K: Key>(name: &str) -> &'static TaskVTable {
    use std::any::TypeId;
    use std::collections::BTreeMap;
    use std::sync::{Mutex, OnceLock};
    static VTABLES: OnceLock<Mutex<BTreeMap<(TypeId, &'static str), &'static TaskVTable>>> =
        OnceLock::new();
    let registry = VTABLES.get_or_init(|| Mutex::new(BTreeMap::new()));
    let mut registry = registry.lock().unwrap();
    // By the borrowed name: only a pair's first use allocates its name.
    if let Some(vt) = registry.get(&(TypeId::of::<K>(), name)) {
        return vt;
    }
    let name: &'static str = Box::leak(name.into());
    let vt: &'static TaskVTable = Box::leak(Box::new(TaskVTable {
        execute: Shell::<K>::execute,
        dispose: Shell::<K>::dispose,
        name,
    }));
    registry.insert((TypeId::of::<K>(), name), vt);
    vt
}

impl<K: Key> Shell<K> {
    /// The erased task pointer for this shell.
    pub(crate) fn raw_task(shell: NonNull<Shell<K>>) -> RawTask {
        RawTask(shell.cast())
    }

    /// Records one delivery; true when the goal is now reached.
    /// The caller must hold whatever lock serializes slot writes for this
    /// shell (the table bucket lock, or exclusive ownership on the bypass
    /// path).
    pub(crate) fn add_satisfaction(&self, n: usize) -> bool {
        self.satisfied.fetch_add(n, Ordering::AcqRel) + n == self.goal
    }

    unsafe fn execute(task: NonNull<TaskHeader>, ctx: &mut ttg_runtime::WorkerCtx<'_>) {
        let shell_ptr = task.cast::<Shell<K>>();
        // SAFETY: shells are created from live TTs; the graph keeps the
        // TT alive until all tasks have run.
        let tt: &TtInner<K> = unsafe { shell_ptr.as_ref().tt.as_ref() };
        tt.execute_shell(shell_ptr, &mut crate::io::Dispatch::Worker(ctx));
    }

    unsafe fn dispose(task: NonNull<TaskHeader>) {
        let shell_ptr = task.cast::<Shell<K>>();
        // SAFETY: as above; dispose_shell reclaims without executing.
        let tt: &TtInner<K> = unsafe { shell_ptr.as_ref().tt.as_ref() };
        let scope = tt.scope.clone();
        tt.dispose_shell(shell_ptr);
        // A scheduled-but-never-run task (runtime teardown) still owes
        // its scope the completion decrement — it was credited at
        // schedule time. Never-scheduled shells drained from the hash
        // table go through `dispose_shell` directly and owe nothing.
        if let Some(scope) = scope {
            scope.task_completed();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ttg_sync::OrderingPolicy;

    fn copy(v: usize) -> DataCopy {
        DataCopy::new(v, OrderingPolicy::Relaxed)
    }

    fn values(agg: &Aggregate) -> Vec<usize> {
        agg.items()
            .iter()
            .map(|c| *c.as_ref().expect("filled prefix").get::<usize>())
            .collect()
    }

    #[test]
    fn aggregate_stays_inline_up_to_three_then_spills_once_sized_for_the_goal() {
        for goal in [1usize, 3, 4, 9] {
            let mut agg = Aggregate::Inline([Some(copy(0)), None, None]);
            for v in 1..goal {
                agg.push(copy(v), || goal);
                assert_eq!(values(&agg), (0..=v).collect::<Vec<_>>());
            }
            match &agg {
                Aggregate::Inline(_) => assert!(goal <= INLINE_ITEMS),
                Aggregate::Spilled(all) => {
                    assert!(goal > INLINE_ITEMS);
                    assert_eq!(all.capacity(), goal, "not one exactly sized allocation");
                }
            }
            let taken: Vec<usize> = agg
                .into_copies()
                .into_iter()
                .map(|c| c.try_take::<usize>().expect("sole owner"))
                .collect();
            assert_eq!(taken, (0..goal).collect::<Vec<_>>());
        }
    }

    #[test]
    fn a_count_closure_that_understates_the_goal_only_costs_a_regrow() {
        let mut agg = Aggregate::Inline([Some(copy(0)), None, None]);
        for v in 1..6 {
            agg.push(copy(v), || 0);
        }
        assert_eq!(values(&agg), vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn slot_is_four_words_with_three_inline_copies() {
        // Three copies plus a tag: the tags of `Aggregate` and
        // `InputSlot` share one word.
        assert_eq!(std::mem::size_of::<InputSlot>(), 32);
        // Header, owner, counters and a small key come first — one cache
        // line with the 32-byte header of the default features — and the
        // slots follow.
        assert_eq!(
            std::mem::offset_of!(Shell<(u32, u32)>, slots),
            std::mem::size_of::<TaskHeader>() + 4 * std::mem::size_of::<usize>()
        );
    }
}
