//! Worker-owned fixed-capacity event rings.
//!
//! Each worker thread owns exactly one [`EventRing`] and is its only
//! writer; recording an event is two `Cell` stores and an index bump —
//! no atomics, no locks, no allocation. This is the same single-writer
//! discipline as `WorkerStatsCell` in ttg-runtime: an aggregator thread
//! may read concurrently and can observe a torn or stale slot, which is
//! explicitly accepted for monitoring reads. A *consistent* drain
//! requires quiescence (all workers fenced); `Runtime::take_events`
//! provides that fence.
//!
//! The ring overwrites its oldest slot when full and counts how many
//! events were lost, so a too-small capacity degrades to a visible
//! `dropped()` figure instead of unbounded memory growth or a stall.

use std::cell::Cell;

/// What an [`Event`] describes. The per-kind meaning of the generic
/// `arg0`/`arg1`/`dur_ns` fields is documented on each variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// Task execution: `name` = task name, `dur_ns` = run time.
    Task,
    /// Successful steal by this worker: `arg0` = victim worker id.
    Steal,
    /// Worker parked idle: `dur_ns` = time parked (coalesced across
    /// contiguous park/wake cycles by `Obs::record_park`).
    Park,
    /// Scheduler push took the contended detach-merge slow path.
    SlowPush,
    /// Termination-wave contribution: `arg0` = wave round number.
    /// Recorded only when the round changes, not per idle-loop spin.
    Contribution,
    /// Memory-pool refill (free list empty, fresh allocation):
    /// `arg0` = number of fresh allocations (coalesced).
    PoolRefill,
    /// Network frame sent: `arg0` = destination rank, `arg1` =
    /// per-(src,dst) sequence number, `dur_ns` = payload bytes.
    NetSend,
    /// Network frame received: `arg0` = source rank, `arg1` =
    /// per-(src,dst) sequence number, `dur_ns` = payload bytes.
    NetRecv,
    /// Sampled counter value: `name` = counter name, `arg0` = value.
    Counter,
}

/// One recorded event. Plain-old-data so a ring slot is a single
/// `Cell<Event>` and recording is a memcpy-sized store.
///
/// `dur_ns` is a duration for `Task`/`Park` and is reused as the byte
/// count for `NetSend`/`NetRecv` (those are instants on the timeline);
/// the Chrome exporter renders net events with a nominal slice width
/// and puts the byte count in `args`.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// Event class; fixes the interpretation of the fields below.
    pub kind: EventKind,
    /// Static name (task name, counter name); `""` when unused.
    pub name: &'static str,
    /// Thread lane the event belongs to: worker id, or the pseudo-lane
    /// one past the last worker for non-worker threads (net, pool).
    pub tid: u32,
    /// Start timestamp, ns since the process trace epoch.
    pub ts_ns: u64,
    /// Duration in ns, or byte count for net events.
    pub dur_ns: u64,
    /// Kind-specific argument (victim, round, rank, value, ...).
    pub arg0: u64,
    /// Kind-specific argument (sequence number).
    pub arg1: u64,
    /// Request-scoped span context (`ttg_obs::spans` packing: tenant
    /// tag in the top 16 bits, instance id below). Zero when the event
    /// is not attributable to an instance or the `obs` feature is
    /// off — the field is always present so the ring-slot layout (and
    /// wire/tooling structs) never depend on the feature.
    pub span: u64,
}

impl Event {
    /// Placeholder for unwritten ring slots.
    fn empty() -> Self {
        Event {
            kind: EventKind::Counter,
            name: "",
            tid: 0,
            ts_ns: 0,
            dur_ns: 0,
            arg0: 0,
            arg1: 0,
            span: 0,
        }
    }
}

/// Fixed-capacity overwrite-oldest ring of [`Event`]s with a
/// single-writer `Cell` fast path.
pub struct EventRing {
    slots: Box<[Cell<Event>]>,
    /// Total events ever recorded since the last drain. The live window
    /// is the last `min(head, capacity)` of them.
    head: Cell<u64>,
    /// Events lost to overwrite across the ring's whole lifetime
    /// (survives drains so stats can surface cumulative loss).
    dropped_total: Cell<u64>,
}

// SAFETY: exactly one thread writes (the owning worker); concurrent
// reads from the aggregator may observe torn slots, which the
// monitoring use-case accepts. Consistent drains require quiescence.
unsafe impl Sync for EventRing {}

impl EventRing {
    /// Creates a ring holding up to `capacity` events (rounded up to 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        let slots = (0..capacity)
            .map(|_| Cell::new(Event::empty()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        EventRing {
            slots,
            head: Cell::new(0),
            dropped_total: Cell::new(0),
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Records one event; overwrites the oldest if full. Owner thread
    /// only.
    #[inline]
    pub fn push(&self, ev: Event) {
        let head = self.head.get();
        if head >= self.slots.len() as u64 {
            self.dropped_total.set(self.dropped_total.get() + 1);
        }
        let idx = (head % self.slots.len() as u64) as usize;
        self.slots[idx].set(ev);
        self.head.set(head + 1);
    }

    /// Most recently pushed event, if any. Owner thread only (used for
    /// park/refill coalescing).
    #[inline]
    pub fn peek_last(&self) -> Option<Event> {
        let head = self.head.get();
        if head == 0 {
            return None;
        }
        let idx = ((head - 1) % self.slots.len() as u64) as usize;
        Some(self.slots[idx].get())
    }

    /// Replaces the most recently pushed event. Owner thread only; no-op
    /// on an empty ring.
    #[inline]
    pub fn replace_last(&self, ev: Event) {
        let head = self.head.get();
        if head == 0 {
            return;
        }
        let idx = ((head - 1) % self.slots.len() as u64) as usize;
        self.slots[idx].set(ev);
    }

    /// Events recorded since the last drain (including overwritten ones).
    pub fn recorded(&self) -> u64 {
        self.head.get()
    }

    /// Cumulative events lost to overwrite over the ring's lifetime.
    pub fn dropped(&self) -> u64 {
        self.dropped_total.get()
    }

    /// Takes the live window (oldest first) and resets the ring.
    ///
    /// Quiescence requirement: the owning worker must not be recording
    /// concurrently, or events raced in during the drain are lost and
    /// slots may be torn. Callers fence workers first (see
    /// `Runtime::take_events`).
    pub fn drain(&self) -> Vec<Event> {
        let out = self.copy_live();
        self.head.set(0);
        out
    }

    /// Copies the live window (oldest first) without resetting the
    /// ring — the read-only sibling of [`EventRing::drain`] for live
    /// introspection (`/trace` endpoint, flight recorder).
    ///
    /// May run concurrently with the owning writer: a slot being
    /// overwritten mid-copy can come back torn or out of order, which
    /// the monitoring use-case accepts. The subsequent quiescent drain
    /// is unaffected — `head` and the slots are left untouched.
    pub fn peek(&self) -> Vec<Event> {
        self.copy_live()
    }

    fn copy_live(&self) -> Vec<Event> {
        let head = self.head.get();
        let cap = self.slots.len() as u64;
        let live = head.min(cap);
        let start = head - live;
        let mut out = Vec::with_capacity(live as usize);
        for i in start..head {
            out.push(self.slots[(i % cap) as usize].get());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ts: u64) -> Event {
        Event {
            kind: EventKind::Task,
            name: "t",
            tid: 0,
            ts_ns: ts,
            dur_ns: 1,
            arg0: 0,
            arg1: 0,
            span: 0,
        }
    }

    #[test]
    fn push_and_drain_in_order() {
        let r = EventRing::new(8);
        for i in 0..5 {
            r.push(ev(i));
        }
        let out = r.drain();
        assert_eq!(out.len(), 5);
        assert_eq!(
            out.iter().map(|e| e.ts_ns).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4]
        );
        assert_eq!(r.dropped(), 0);
        assert!(r.drain().is_empty());
    }

    #[test]
    fn overflow_keeps_newest_and_counts_drops() {
        let r = EventRing::new(4);
        for i in 0..10 {
            r.push(ev(i));
        }
        assert_eq!(r.dropped(), 6);
        let out = r.drain();
        assert_eq!(
            out.iter().map(|e| e.ts_ns).collect::<Vec<_>>(),
            vec![6, 7, 8, 9]
        );
        // Drops are cumulative across drains.
        for i in 0..5 {
            r.push(ev(i));
        }
        assert_eq!(r.dropped(), 7);
    }

    #[test]
    fn peek_does_not_consume() {
        let r = EventRing::new(4);
        for i in 0..6 {
            r.push(ev(i));
        }
        let peeked = r.peek();
        assert_eq!(
            peeked.iter().map(|e| e.ts_ns).collect::<Vec<_>>(),
            vec![2, 3, 4, 5]
        );
        // A second peek sees the same window; the drain still works and
        // still returns everything.
        assert_eq!(r.peek().len(), 4);
        assert_eq!(r.recorded(), 6);
        let drained = r.drain();
        assert_eq!(
            drained.iter().map(|e| e.ts_ns).collect::<Vec<_>>(),
            vec![2, 3, 4, 5]
        );
        assert!(r.peek().is_empty());
    }

    #[test]
    fn replace_last_coalesces() {
        let r = EventRing::new(4);
        r.push(ev(1));
        let mut last = r.peek_last().unwrap();
        last.dur_ns = 99;
        r.replace_last(last);
        let out = r.drain();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].dur_ns, 99);
    }
}
