//! Request-scoped span context and per-instance span assembly.
//!
//! A *span context* packs `{tenant, instance}` into one `u64` that
//! rides every task header, event-ring record, and network frame, so
//! each task execution and wire hop on any rank is stamped with the
//! graph instance that caused it:
//!
//! ```text
//! bits 63..48: tenant tag (FNV-1a of the tenant name, forced nonzero)
//! bits 47..0 : instance id (low 48 bits)
//! ```
//!
//! Zero is reserved for "unattributed" (runtime-internal work, spans
//! `obs` off). The context costs one `u64` per task header and one
//! per wire frame; the recording overhead sits behind the one `obs`
//! switch — when it is off, [`SpanCell`] is zero-sized, its stores
//! compile away and every ring record carries span 0 (DESIGN.md §7.5).
//!
//! [`assemble_spans`] rebuilds per-instance spans from drained (or
//! peeked) ring events of one or many ranks: task count, queue-wait vs
//! execute vs wire time, a per-rank breakdown, and a critical path
//! over the same edge model as [`crate::analysis`] (program order per
//! worker lane + send/recv flow edges, with the clock-skew cap —
//! cross-rank clocks are only trusted up to each hop's observed
//! latency, never below zero).

use crate::ring::{Event, EventKind};
use parking_lot::Mutex;
use serde_json::Value;
use std::cell::Cell;
use std::collections::{BTreeMap, VecDeque};
use ttg_sync::Gated;

/// Bits of the span word reserved for the instance id.
pub const INSTANCE_BITS: u32 = 48;

/// Mask extracting the instance id from a span word.
pub const INSTANCE_MASK: u64 = (1 << INSTANCE_BITS) - 1;

/// 16-bit FNV-1a tag of a tenant name, forced nonzero so a packed span
/// for a real request is never 0 (the unattributed sentinel).
pub fn tenant_tag(tenant: &str) -> u16 {
    let mut h: u32 = 0x811C_9DC5;
    for b in tenant.as_bytes() {
        h ^= *b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    let tag = ((h >> 16) ^ (h & 0xFFFF)) as u16;
    if tag == 0 {
        1
    } else {
        tag
    }
}

/// Packs a tenant name and instance id into a span context word.
pub fn pack_span(tenant: &str, instance_id: u64) -> u64 {
    ((tenant_tag(tenant) as u64) << INSTANCE_BITS) | (instance_id & INSTANCE_MASK)
}

/// The instance id carried by a span word.
pub fn span_instance(span: u64) -> u64 {
    span & INSTANCE_MASK
}

/// The tenant tag carried by a span word.
pub fn span_tenant_tag(span: u64) -> u16 {
    (span >> INSTANCE_BITS) as u16
}

// ---- span storage on task headers --------------------------------------

/// Span slot embedded in task headers: a `Cell<u64>` when `obs` is on,
/// zero-sized otherwise, so the header layout and hot path pay only
/// when the feature is bought (`TaskHeader::stamp_span` and friends are
/// its accessors).
pub type SpanCell = Gated<Cell<u64>>;

// ---- ambient span (external seeding threads) ---------------------------

thread_local! {
    static AMBIENT_SPAN: SpanCell = const { Gated::new(Cell::new(0)) };
}

/// Runs `f` with `span` as the calling thread's ambient span context.
/// Work submitted from outside the worker pool (graph seeding, external
/// `invoke`/`deliver`) inherits the ambient span, which is how a
/// request's identity first enters the runtime. Nests; restores the
/// previous value on exit. Pass-through with `obs` off.
#[inline]
pub fn with_ambient_span<R>(span: u64, f: impl FnOnce() -> R) -> R {
    struct Restore(u64);
    impl Drop for Restore {
        fn drop(&mut self) {
            AMBIENT_SPAN.with(|slot| slot.with(|c| c.set(self.0)));
        }
    }
    let prev = AMBIENT_SPAN.with(|slot| slot.with(|c| c.replace(span)));
    let _restore = prev.map(Restore);
    f()
}

/// The calling thread's current ambient span (0 when none, or when
/// `obs` is off).
#[inline]
pub fn ambient_span() -> u64 {
    AMBIENT_SPAN.with(|slot| slot.with(Cell::get)).unwrap_or(0)
}

// ---- per-instance span assembly ----------------------------------------

/// One task execution attributed to an instance.
#[derive(Debug, Clone)]
pub struct SpanTask {
    /// TT / task name.
    pub name: String,
    /// Rank it executed on.
    pub rank: usize,
    /// Worker lane.
    pub tid: u32,
    /// Start, ns on the recording rank's clock.
    pub ts_ns: u64,
    /// Body execution time.
    pub dur_ns: u64,
    /// Schedule-to-start wait (0 when not stamped).
    pub queue_ns: u64,
}

/// Per-rank slice of an instance's work.
#[derive(Debug, Clone)]
pub struct RankBreakdown {
    /// The rank.
    pub rank: usize,
    /// Tasks executed there.
    pub tasks: u64,
    /// Summed queue wait there.
    pub queue_ns: u64,
    /// Summed execute time there.
    pub execute_ns: u64,
}

/// An assembled per-instance span: everything the rings attribute to
/// one request, across all ranks whose events were provided.
#[derive(Debug, Clone)]
pub struct InstanceSpan {
    /// The packed span context.
    pub span: u64,
    /// Instance id (`span_instance(span)`).
    pub instance: u64,
    /// Tenant tag (`span_tenant_tag(span)`).
    pub tenant_tag: u16,
    /// Total task executions.
    pub tasks: u64,
    /// Summed schedule-to-start wait.
    pub queue_ns: u64,
    /// Summed task body time.
    pub execute_ns: u64,
    /// Summed cross-rank hop latency (clock-skew capped per hop).
    pub wire_ns: u64,
    /// Matched send/recv pairs.
    pub wire_hops: u64,
    /// Per-rank breakdown, rank order.
    pub ranks: Vec<RankBreakdown>,
    /// Every attributed task execution, timestamp order.
    pub task_list: Vec<SpanTask>,
    /// Longest dependency chain (program order + flow edges, skew
    /// capped as in [`crate::analysis`]).
    pub critical_path_ns: u64,
    /// Task names along that chain, in order.
    pub critical_path: Vec<String>,
}

impl InstanceSpan {
    /// Renders the span (and its task tree) as the `trace.json` body.
    pub fn to_json(&self) -> Value {
        let us = |ns: u64| Value::Float(ns as f64 / 1_000.0);
        Value::Object(vec![
            ("instance".to_string(), Value::UInt(self.instance)),
            ("span".to_string(), Value::UInt(self.span)),
            (
                "tenant_tag".to_string(),
                Value::UInt(self.tenant_tag as u64),
            ),
            ("tasks".to_string(), Value::UInt(self.tasks)),
            ("queue_us".to_string(), us(self.queue_ns)),
            ("execute_us".to_string(), us(self.execute_ns)),
            ("wire_us".to_string(), us(self.wire_ns)),
            ("wire_hops".to_string(), Value::UInt(self.wire_hops)),
            ("critical_path_us".to_string(), us(self.critical_path_ns)),
            (
                "critical_path".to_string(),
                Value::Array(
                    self.critical_path
                        .iter()
                        .map(|n| Value::String(n.clone()))
                        .collect(),
                ),
            ),
            (
                "ranks".to_string(),
                Value::Array(
                    self.ranks
                        .iter()
                        .map(|r| {
                            Value::Object(vec![
                                ("rank".to_string(), Value::UInt(r.rank as u64)),
                                ("tasks".to_string(), Value::UInt(r.tasks)),
                                ("queue_us".to_string(), us(r.queue_ns)),
                                ("execute_us".to_string(), us(r.execute_ns)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "spans".to_string(),
                Value::Array(
                    self.task_list
                        .iter()
                        .map(|t| {
                            Value::Object(vec![
                                ("name".to_string(), Value::String(t.name.clone())),
                                ("rank".to_string(), Value::UInt(t.rank as u64)),
                                ("tid".to_string(), Value::UInt(t.tid as u64)),
                                ("ts_us".to_string(), us(t.ts_ns)),
                                ("dur_us".to_string(), us(t.dur_ns)),
                                ("queue_us".to_string(), us(t.queue_ns)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// One attributed wire hop during assembly.
struct Hop {
    src_rank: usize,
    dst_rank: usize,
    send_ts: u64,
    recv_ts: Option<u64>,
}

#[derive(Default)]
struct Accum {
    tasks: Vec<SpanTask>,
    hops: BTreeMap<(usize, usize, u64), Hop>,
}

/// Rebuilds per-instance spans from the ring events of one or more
/// ranks. `ranks` pairs each rank id with that rank's drained (or
/// peeked) events; single-rank callers pass one element. Events with
/// span 0 (unattributed) are ignored. Returns spans sorted by
/// instance id.
pub fn assemble_spans(ranks: &[(usize, Vec<Event>)]) -> Vec<InstanceSpan> {
    let mut by_span: BTreeMap<u64, Accum> = BTreeMap::new();
    for (rank, events) in ranks {
        for ev in events {
            if ev.span == 0 {
                continue;
            }
            let acc = by_span.entry(ev.span).or_default();
            match ev.kind {
                EventKind::Task => acc.tasks.push(SpanTask {
                    name: ev.name.to_string(),
                    rank: *rank,
                    tid: ev.tid,
                    ts_ns: ev.ts_ns,
                    dur_ns: ev.dur_ns,
                    queue_ns: ev.arg0,
                }),
                EventKind::NetSend => {
                    let key = (*rank, ev.arg0 as usize, ev.arg1);
                    let hop = acc.hops.entry(key).or_insert(Hop {
                        src_rank: *rank,
                        dst_rank: ev.arg0 as usize,
                        send_ts: 0,
                        recv_ts: None,
                    });
                    hop.send_ts = ev.ts_ns;
                }
                EventKind::NetRecv => {
                    let key = (ev.arg0 as usize, *rank, ev.arg1);
                    let hop = acc.hops.entry(key).or_insert(Hop {
                        src_rank: ev.arg0 as usize,
                        dst_rank: *rank,
                        send_ts: 0,
                        recv_ts: None,
                    });
                    hop.recv_ts = Some(ev.ts_ns);
                }
                _ => {}
            }
        }
    }

    let mut out = Vec::with_capacity(by_span.len());
    for (span, mut acc) in by_span {
        acc.tasks.sort_by_key(|t| (t.ts_ns, t.rank, t.tid));
        let mut queue_ns = 0u64;
        let mut execute_ns = 0u64;
        let mut per_rank: BTreeMap<usize, RankBreakdown> = BTreeMap::new();
        for t in &acc.tasks {
            queue_ns += t.queue_ns;
            execute_ns += t.dur_ns;
            let r = per_rank.entry(t.rank).or_insert(RankBreakdown {
                rank: t.rank,
                tasks: 0,
                queue_ns: 0,
                execute_ns: 0,
            });
            r.tasks += 1;
            r.queue_ns += t.queue_ns;
            r.execute_ns += t.dur_ns;
        }
        let mut wire_ns = 0u64;
        let mut wire_hops = 0u64;
        let mut paired: Vec<(usize, usize, u64, u64)> = Vec::new();
        for hop in acc.hops.values() {
            if let Some(recv_ts) = hop.recv_ts {
                if hop.send_ts != 0 {
                    // Clock-skew cap (as in analysis.rs): a hop whose
                    // receive timestamps before its send — skewed
                    // clocks — contributes zero, never wraps.
                    wire_ns += recv_ts.saturating_sub(hop.send_ts);
                    wire_hops += 1;
                    paired.push((hop.src_rank, hop.dst_rank, hop.send_ts, recv_ts));
                }
            }
        }
        let (critical_path_ns, critical_path) = critical_path(&acc.tasks, &paired);
        out.push(InstanceSpan {
            span,
            instance: span_instance(span),
            tenant_tag: span_tenant_tag(span),
            tasks: acc.tasks.len() as u64,
            queue_ns,
            execute_ns,
            wire_ns,
            wire_hops,
            ranks: per_rank.into_values().collect(),
            task_list: acc.tasks,
            critical_path_ns,
            critical_path,
        })
    }
    out.sort_by_key(|s| s.instance);
    out
}

/// Longest dependency chain over the instance's tasks: program-order
/// edges per (rank, lane) plus flow edges through matched wire hops
/// (the latest task ending before the send on the source rank reaches
/// the earliest task starting after the receive on the destination
/// rank). Same edge model and skew discipline as `analysis.rs`: each
/// task's path value is capped at its own end time relative to the
/// instance's first start, so skewed cross-rank clocks cannot inflate
/// the chain past wall time.
fn critical_path(tasks: &[SpanTask], hops: &[(usize, usize, u64, u64)]) -> (u64, Vec<String>) {
    if tasks.is_empty() {
        return (0, Vec::new());
    }
    let t0 = tasks.iter().map(|t| t.ts_ns).min().unwrap_or(0);
    let n = tasks.len();
    let mut cp = vec![0u64; n];
    let mut pred: Vec<Option<usize>> = vec![None; n];
    // tasks are sorted by ts; last index per (rank, tid) lane seen so far.
    let mut lane_last: BTreeMap<(usize, u32), usize> = BTreeMap::new();
    for i in 0..n {
        let t = &tasks[i];
        let start = t.ts_ns - t0;
        let end = start + t.dur_ns;
        let mut best = 0u64;
        let mut best_pred = None;
        if let Some(&j) = lane_last.get(&(t.rank, t.tid)) {
            if cp[j] > best {
                best = cp[j];
                best_pred = Some(j);
            }
        }
        // Flow edges: a hop whose receive lands on this task's rank
        // before it starts chains from the sender rank's latest task
        // ending at or before the send.
        for &(src, dst, send_ts, recv_ts) in hops {
            if dst != t.rank || recv_ts.saturating_sub(t0) > start {
                continue;
            }
            let hop_lat = recv_ts.saturating_sub(send_ts);
            let mut upstream: Option<usize> = None;
            for (j, u) in tasks.iter().enumerate() {
                if u.rank == src && u.ts_ns + u.dur_ns <= send_ts {
                    upstream = Some(j);
                }
            }
            if let Some(j) = upstream {
                let via = cp[j] + hop_lat;
                if via > best {
                    best = via;
                    best_pred = Some(j);
                }
            }
        }
        // The skew cap: the chain through this task can never exceed
        // its own end on the shared (best-effort) timeline.
        cp[i] = (t.dur_ns + best).min(end.max(t.dur_ns));
        pred[i] = best_pred;
        lane_last.insert((t.rank, t.tid), i);
    }
    let (mut at, &len) = cp
        .iter()
        .enumerate()
        .max_by_key(|(_, v)| **v)
        .unwrap_or((0, &0));
    let mut names = Vec::new();
    loop {
        names.push(tasks[at].name.clone());
        match pred[at] {
            Some(p) => at = p,
            None => break,
        }
    }
    names.reverse();
    (len, names)
}

// ---- bounded tail-sampling store ---------------------------------------

/// Capacity-bounded store of full span trees for the instances worth
/// keeping (tail-sampled: over their tenant's SLO threshold, or
/// failed). Evicts oldest-first, so a burst of slow instances can
/// never grow the store past its bound.
pub struct SpanTailStore {
    cap: usize,
    entries: Mutex<VecDeque<(u64, Value)>>,
}

impl SpanTailStore {
    /// A store retaining at most `cap` span trees (min 1).
    pub fn new(cap: usize) -> Self {
        SpanTailStore {
            cap: cap.max(1),
            entries: Mutex::new(VecDeque::new()),
        }
    }

    /// The retention bound.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Retains `tree` for `instance`, evicting the oldest entry when
    /// full. Re-inserting an id replaces its tree in place.
    pub fn insert(&self, instance: u64, tree: Value) {
        let mut e = self.entries.lock();
        if let Some(slot) = e.iter_mut().find(|(id, _)| *id == instance) {
            slot.1 = tree;
            return;
        }
        while e.len() >= self.cap {
            e.pop_front();
        }
        e.push_back((instance, tree));
    }

    /// The retained span tree for `instance`, if still present.
    pub fn get(&self, instance: u64) -> Option<Value> {
        self.entries
            .lock()
            .iter()
            .find(|(id, _)| *id == instance)
            .map(|(_, v)| v.clone())
    }

    /// All retained (instance, tree) pairs, oldest first.
    pub fn list(&self) -> Vec<(u64, Value)> {
        self.entries.lock().iter().cloned().collect()
    }

    /// Number of retained trees.
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.entries.lock().is_empty()
    }
}

impl std::fmt::Debug for SpanTailStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanTailStore")
            .field("cap", &self.cap)
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(span: u64, _rank: usize, tid: u32, ts: u64, dur: u64, queue: u64) -> Event {
        Event {
            kind: EventKind::Task,
            name: "t",
            tid,
            ts_ns: ts,
            dur_ns: dur,
            arg0: queue,
            arg1: 0,
            span,
        }
    }

    fn send(span: u64, dst: usize, seq: u64, ts: u64) -> Event {
        Event {
            kind: EventKind::NetSend,
            name: "",
            tid: 9,
            ts_ns: ts,
            dur_ns: 64,
            arg0: dst as u64,
            arg1: seq,
            span,
        }
    }

    fn recv(span: u64, src: usize, seq: u64, ts: u64) -> Event {
        Event {
            kind: EventKind::NetRecv,
            name: "",
            tid: 9,
            ts_ns: ts,
            dur_ns: 64,
            arg0: src as u64,
            arg1: seq,
            span,
        }
    }

    #[test]
    fn packing_roundtrips_and_zero_is_reserved() {
        let s = pack_span("tenant-a", 12345);
        assert_ne!(s, 0);
        assert_eq!(span_instance(s), 12345);
        assert_eq!(span_tenant_tag(s), tenant_tag("tenant-a"));
        assert_ne!(tenant_tag(""), 0, "tag is forced nonzero");
        // Distinct tenants get (overwhelmingly likely) distinct tags.
        assert_ne!(tenant_tag("tenant-a"), tenant_tag("tenant-b"));
    }

    #[test]
    fn assembly_groups_by_span_and_splits_queue_execute_wire() {
        let a = pack_span("a", 1);
        let b = pack_span("b", 2);
        let rank0 = vec![
            task(a, 0, 0, 100, 50, 10),
            task(b, 0, 1, 120, 5, 0),
            send(a, 1, 0, 160),
        ];
        let rank1 = vec![recv(a, 0, 0, 200), task(a, 1, 0, 210, 30, 5)];
        let spans = assemble_spans(&[(0, rank0), (1, rank1)]);
        assert_eq!(spans.len(), 2);
        let sa = &spans[0];
        assert_eq!(sa.instance, 1);
        assert_eq!(sa.tasks, 2);
        assert_eq!(sa.execute_ns, 80);
        assert_eq!(sa.queue_ns, 15);
        assert_eq!(sa.wire_ns, 40); // 200 - 160
        assert_eq!(sa.wire_hops, 1);
        assert_eq!(sa.ranks.len(), 2);
        let sb = &spans[1];
        assert_eq!(sb.instance, 2);
        assert_eq!(sb.tasks, 1);
        assert_eq!(sb.wire_hops, 0);
    }

    #[test]
    fn skewed_clocks_never_produce_negative_wire_time() {
        let s = pack_span("a", 7);
        // Receive timestamped *before* the send (skewed rank clock).
        let spans = assemble_spans(&[
            (0, vec![task(s, 0, 0, 100, 10, 0), send(s, 1, 0, 500)]),
            (1, vec![recv(s, 0, 0, 300), task(s, 1, 0, 310, 10, 0)]),
        ]);
        assert_eq!(spans[0].wire_ns, 0);
        assert_eq!(spans[0].wire_hops, 1);
    }

    #[test]
    fn critical_path_chains_program_order_and_flows() {
        let s = pack_span("a", 3);
        // rank 0: t1 (100..150) → send(160) → rank 1 recv(200) → t2 (210..240)
        let spans = assemble_spans(&[
            (0, vec![task(s, 0, 0, 100, 50, 0), send(s, 1, 0, 160)]),
            (1, vec![recv(s, 0, 0, 200), task(s, 1, 0, 210, 30, 0)]),
        ]);
        let sp = &spans[0];
        // Chain: 50 (t1) + 40 (hop) + 30 (t2) = 120, capped at t2's end
        // offset (240 - 100 = 140) — not binding here.
        assert_eq!(sp.critical_path_ns, 120);
        assert_eq!(sp.critical_path.len(), 2);
    }

    #[test]
    fn tail_store_respects_capacity_bound_under_burst() {
        let store = SpanTailStore::new(4);
        for id in 0..100u64 {
            store.insert(id, Value::UInt(id));
        }
        assert_eq!(store.len(), 4);
        // Oldest evicted; newest retained.
        assert!(store.get(0).is_none());
        assert!(store.get(95).is_none());
        for id in 96..100 {
            assert_eq!(store.get(id), Some(Value::UInt(id)));
        }
        let ids: Vec<u64> = store.list().into_iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![96, 97, 98, 99]);
        // Replacement does not grow the store.
        store.insert(97, Value::UInt(1000));
        assert_eq!(store.len(), 4);
        assert_eq!(store.get(97), Some(Value::UInt(1000)));
    }

    /// Span plumbing follows the one switch: with `obs` off the
    /// ambient scope is pass-through and ring records carry span 0 (and
    /// no queue wait) even when callers pass real spans — byte-identical
    /// records; with it on they carry what was stamped.
    #[test]
    fn span_plumbing_follows_the_switch() {
        use crate::{Obs, ObsConfig};
        use ttg_sync::OBS;
        let gate = |v: u64| if OBS { v } else { 0 };

        assert_eq!(ambient_span(), 0);
        let inner = with_ambient_span(7, || {
            let outer = ambient_span();
            let nested = with_ambient_span(9, ambient_span);
            (outer, nested, ambient_span())
        });
        assert_eq!(inner, (gate(7), gate(9), gate(7)));
        assert_eq!(ambient_span(), 0, "scope restores on exit");

        let o = Obs::new(ObsConfig {
            rank: 0,
            workers: 1,
            events: true,
            histograms: true,
            ring_capacity: 64,
        });
        assert_eq!(o.spans_enabled(), OBS);
        let span = pack_span("x", 1);
        o.record_task(0, "t", 5, 10, 20, span);
        o.record_net_send(1, 64, 30, span);
        o.record_net_recv(1, 64, 40, span);
        let evs = o.drain_events();
        assert_eq!(evs.len(), 3);
        assert!(evs.iter().all(|e| e.span == gate(span)));
        let task = evs.iter().find(|e| e.kind == EventKind::Task).unwrap();
        assert_eq!(task.arg0, gate(5), "queue wait rides only with obs on");
        assert_eq!(assemble_spans(&[(0, evs)]).len(), usize::from(OBS));
    }
}
