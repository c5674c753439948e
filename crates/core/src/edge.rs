//! Typed edges connecting output terminals to input terminals.

use crate::io::Dispatch;
use crate::{Data, Key};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicPtr, Ordering};
use std::sync::Arc;
use ttg_runtime::DataCopy;

/// A consumer registered on an edge (an input terminal of some TT).
pub(crate) trait Consumer<K, V>: Send + Sync {
    /// Delivers one datum for task `key` into the consumer's terminal.
    fn deliver(&self, d: &mut Dispatch<'_, '_>, key: &K, copy: DataCopy);
}

/// An immutable consumer list; boxed once more, it has a thin pointer.
type ConsumerList<K, V> = Box<[Arc<dyn Consumer<K, V>>]>;

pub(crate) struct EdgeInner<K, V> {
    name: String,
    /// The input terminals fed by this edge: null (none) or the newest
    /// box of `lists`. Replaced — never edited — while the graph is
    /// built and at teardown, so a send is one `Acquire` load, no RMW.
    consumers: AtomicPtr<ConsumerList<K, V>>,
    /// Every list published since the last clear, newest last; the older
    /// ones stay allocated (boxed: at a stable address) because a send
    /// on another thread may still be walking one. The lock serializes
    /// the writers.
    #[allow(clippy::vec_box)]
    lists: Mutex<Vec<Box<ConsumerList<K, V>>>>,
}

impl<K: Key, V: Data> EdgeInner<K, V> {
    fn consumers(&self) -> &[Arc<dyn Consumer<K, V>>] {
        let list = self.consumers.load(Ordering::Acquire);
        if list.is_null() {
            return &[];
        }
        // SAFETY: a non-null pointer was published by `register` with
        // `Release` and points into a box owned by `lists`, which only
        // `clear_consumers` empties — at graph teardown, after the graph
        // has quiesced: only task bodies send, and every task has
        // finished by then (the contract that also keeps a shell's raw
        // pointer to its template task valid).
        unsafe { &*list }
    }

    /// Sends `copy` for `key` to every registered consumer. The copy is
    /// retained once per *additional* consumer: a single consumer (the
    /// common case) receives the sender's reference without touching the
    /// refcount.
    pub(crate) fn send(&self, d: &mut Dispatch<'_, '_>, key: &K, copy: DataCopy) {
        match self.consumers() {
            [] => {
                // No consumer: the datum is dropped (like sending into an
                // unconnected terminal). Releasing the copy here keeps
                // refcounts balanced.
                drop(copy);
            }
            [only] => only.deliver(d, key, copy),
            [rest @ .., last] => {
                for c in rest {
                    c.deliver(d, key, copy.clone());
                }
                last.deliver(d, key, copy);
            }
        }
    }

    pub(crate) fn register(&self, consumer: Arc<dyn Consumer<K, V>>) {
        let mut lists = self.lists.lock();
        let grown = self.consumers().iter().cloned();
        let grown = Box::new(grown.chain(std::iter::once(consumer)).collect());
        self.consumers
            .store(&*grown as *const _ as *mut _, Ordering::Release);
        lists.push(grown);
    }

    /// Drops all consumer registrations (breaks Arc cycles at graph
    /// teardown). No send into this edge may be in flight — see
    /// [`EdgeInner::consumers`].
    pub(crate) fn clear_consumers(&self) {
        let lists = {
            let mut lists = self.lists.lock();
            self.consumers
                .store(std::ptr::null_mut(), Ordering::Release);
            std::mem::take(&mut *lists)
        };
        // Dropped outside the lock: releasing a consumer can free its
        // template task and, through it, other edges.
        drop(lists);
    }

    pub(crate) fn name(&self) -> &str {
        &self.name
    }

    pub(crate) fn consumer_count(&self) -> usize {
        self.consumers().len()
    }
}

/// A typed edge of the template task graph.
///
/// `K` is the key type of the *consuming* TTs; `V` is the payload type.
/// One edge may feed several input terminals (fan-out); data sent into it
/// is delivered to all of them, sharing one tracked copy.
pub struct Edge<K, V> {
    pub(crate) inner: Arc<EdgeInner<K, V>>,
}

impl<K: Key, V: Data> Edge<K, V> {
    /// Creates a new, unconnected edge.
    pub fn new(name: impl Into<String>) -> Self {
        Edge {
            inner: Arc::new(EdgeInner {
                name: name.into(),
                consumers: AtomicPtr::new(std::ptr::null_mut()),
                lists: Mutex::new(Vec::new()),
            }),
        }
    }

    /// The edge's diagnostic name.
    pub fn name(&self) -> &str {
        self.inner.name()
    }

    /// Number of input terminals currently fed by this edge.
    pub fn fan_out(&self) -> usize {
        self.inner.consumer_count()
    }
}

impl<K, V> Clone for Edge<K, V> {
    fn clone(&self) -> Self {
        Edge {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<K: Key, V: Data> std::fmt::Debug for Edge<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Edge")
            .field("name", &self.name())
            .field("fan_out", &self.fan_out())
            .finish()
    }
}
