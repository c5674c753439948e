//! Distributed template task graphs.
//!
//! "While TTG seamlessly scales from shared memory to hundreds of nodes,
//! we will focus on management of tasks in shared memory in this work"
//! (paper Section I) — this module supplies the other half. TTG programs
//! run SPMD-style: every rank builds the *same* template graph; a
//! **keymap** assigns each task ID to an owning rank; a send whose
//! destination key lives elsewhere becomes an active message carrying
//! the serialized `(key, datum)` to the owner, where the peer TT's input
//! terminal delivers it locally. The message is framed, for the handler
//! the TT registered with its runtime ([`link_spmd`]), and travels over
//! the transport `ttg-net` bound that runtime to: sockets, or
//! `NetGroup::local` for all ranks in one address space
//! ([`link_distributed`] links those in one call). Global termination
//! is the 4-counter wave of the job.
//!
//! # Usage
//!
//! Build the identical TT on a graph per rank, declaring
//! *remote-capable* inputs with [`crate::TtBuilder::input_remote`]
//! (payloads must be `Serialize + DeserializeOwned`), then link. Here on
//! the one rank a bare runtime is (this crate sits below `ttg-net`);
//! over several, `crates/net/tests/dist_tests.rs`.
//!
//! ```
//! use std::sync::Arc;
//! use std::sync::atomic::{AtomicU64, Ordering};
//! use ttg_core::{dist, Edge, Graph};
//! use ttg_runtime::RuntimeConfig;
//!
//! let graph = Graph::new(RuntimeConfig::optimized(1));
//! let sum = Arc::new(AtomicU64::new(0));
//! let edge: Edge<u64, u64> = Edge::new("chain");
//! let s = Arc::clone(&sum);
//! let tt = graph
//!     .tt::<u64>("hop")
//!     .input_remote::<u64>(&edge)
//!     .output(&edge)
//!     .build(move |k, i, o| {
//!         let v = i.take::<u64>(0);
//!         if *k < 10 {
//!             o.send(0, *k + 1, v + 1); // to the rank that owns k + 1
//!         } else {
//!             s.store(v, Ordering::Relaxed);
//!         }
//!     });
//! // One TT per rank, in rank order; the keymap names each key's owner.
//! dist::link_distributed(&[tt.clone()], |_k: &u64| 0);
//! tt.deliver(0, 0u64, 0u64);
//! graph.wait();
//! assert_eq!(sum.load(Ordering::Relaxed), 10);
//! ```

use crate::tt::{Tt, TtInner};
use crate::Key;
use serde::de::DeserializeOwned;
use serde::Serialize;
use std::sync::{Arc, Weak};
use ttg_runtime::DataCopy;
use ttg_sync::OrderingPolicy;

/// Serialization hooks for one remote-capable input terminal (stored
/// type-erased on the input declaration).
pub(crate) struct SerdeHooks {
    /// Serializes the (typed) payload of a tracked copy.
    #[allow(clippy::type_complexity)]
    pub(crate) to_bytes: Arc<dyn Fn(&DataCopy) -> Vec<u8> + Send + Sync>,
    /// Reconstructs a tracked copy from bytes.
    #[allow(clippy::type_complexity)]
    pub(crate) from_bytes: Arc<dyn Fn(&[u8], OrderingPolicy) -> DataCopy + Send + Sync>,
}

pub(crate) fn make_hooks<V: Serialize + DeserializeOwned + Send + Sync + 'static>() -> SerdeHooks {
    SerdeHooks {
        to_bytes: Arc::new(|copy: &DataCopy| {
            serde_json::to_vec(copy.get::<V>()).expect("serialize remote datum")
        }),
        from_bytes: Arc::new(|bytes: &[u8], policy: OrderingPolicy| {
            let v: V = serde_json::from_slice(bytes).expect("deserialize remote datum");
            DataCopy::new(v, policy)
        }),
    }
}

/// Per-TT distribution state, installed by [`link_spmd`].
pub(crate) struct Route<K: Key> {
    pub(crate) keymap: Keymap<K>,
    /// Id of the handler this TT registered with its runtime: non-local
    /// keys travel as serialized messages for it. SPMD registration
    /// order makes the id identical on every rank.
    pub(crate) target: u32,
    /// Key serialization (the handler deserializes: it knows `K`'s
    /// bounds, the sending TT does not).
    pub(crate) key_to_bytes: fn(&K) -> Vec<u8>,
}

/// SPMD wire format: `[u32 idx][u32 key_len][key bytes][value bytes]`,
/// little-endian. `idx == INVOKE_IDX` marks an `invoke` (no value).
pub(crate) const INVOKE_IDX: u32 = u32::MAX;

pub(crate) fn encode_spmd(idx: u32, key_bytes: &[u8], val_bytes: &[u8]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(8 + key_bytes.len() + val_bytes.len());
    payload.extend_from_slice(&idx.to_le_bytes());
    payload.extend_from_slice(&(key_bytes.len() as u32).to_le_bytes());
    payload.extend_from_slice(key_bytes);
    payload.extend_from_slice(val_bytes);
    payload
}

/// Splits an SPMD payload into `(idx, key_bytes, val_bytes)`. The
/// payload arrived over the wire, so truncation is a peer's bug (or a
/// fault injector's doing), not grounds to kill this process: `None`.
fn decode_spmd(payload: &[u8]) -> Option<(u32, &[u8], &[u8])> {
    let idx_bytes = payload.get(..4)?;
    let len_bytes = payload.get(4..8)?;
    let idx = u32::from_le_bytes(idx_bytes.try_into().ok()?);
    let key_len = u32::from_le_bytes(len_bytes.try_into().ok()?) as usize;
    let key = payload.get(8..8 + key_len)?;
    let val = payload.get(8 + key_len..)?;
    Some((idx, key, val))
}

/// Wires the per-rank instances of one template task, all in this
/// address space, into a distributed TT: [`link_spmd`] on each, in rank
/// order, with one keymap.
///
/// Requirements:
/// * `tts[r]` must be built on the runtime of rank `r` of one in-process
///   job (`ttg_net::NetGroup::local`), and every TT of the program must
///   be linked on **every** rank of it, in the same order — that is what
///   makes a TT's handler id the same everywhere;
/// * every input terminal that can receive cross-rank data must have
///   been declared with [`crate::TtBuilder::input_remote`] /
///   [`crate::TtBuilder::input_aggregator_remote`].
///
/// # Panics
///
/// Panics if the instances' ranks don't form 0..n, if they registered
/// under different handler ids, or if a TT was already linked.
pub fn link_distributed<K>(tts: &[Tt<K>], keymap: impl Fn(&K) -> usize + Send + Sync + 'static)
where
    K: Key + Serialize + DeserializeOwned,
{
    let keymap: Keymap<K> = Arc::new(keymap);
    let mut rank0_handler = None;
    for (rank, tt) in tts.iter().enumerate() {
        assert_eq!(
            tt.inner.runtime.rank(),
            rank,
            "link_distributed: instance {rank} is bound to runtime rank {}",
            tt.inner.runtime.rank()
        );
        let handler = link(tt, Arc::clone(&keymap));
        assert_eq!(
            handler,
            *rank0_handler.get_or_insert(handler),
            "link_distributed: rank {rank} registered '{}' under another handler id than \
             rank 0 — link every TT on every rank, in the same order",
            tt.inner.name
        );
    }
}

/// Wires ONE local instance of a template task into an SPMD distributed
/// TT: this process is rank `runtime.rank()` of `nranks`; task `key`
/// executes on rank `keymap(key)`; non-local sends travel as serialized
/// active messages through the runtime's handler registry (and from
/// there over whatever transport the runtime is bound to — an
/// in-process `ttg-net` group or real TCP sockets between OS processes).
///
/// Every rank must build the identical graph and call `link_spmd` on the
/// corresponding TTs **in the same order** (handler ids are assigned by
/// registration order), before any remote message can arrive. Input
/// terminals receiving cross-rank data must be remote-capable
/// ([`crate::TtBuilder::input_remote`] /
/// [`crate::TtBuilder::input_aggregator_remote`]).
///
/// # Panics
///
/// Panics if the TT was already linked.
pub fn link_spmd<K>(tt: &Tt<K>, keymap: impl Fn(&K) -> usize + Send + Sync + 'static)
where
    K: Key + Serialize + DeserializeOwned,
{
    link(tt, Arc::new(keymap));
}

/// Which rank owns each key.
type Keymap<K> = Arc<dyn Fn(&K) -> usize + Send + Sync>;

/// Registers `tt`'s message handler with its runtime, installs the
/// route and returns the handler's id.
fn link<K>(tt: &Tt<K>, keymap: Keymap<K>) -> u32
where
    K: Key + Serialize + DeserializeOwned,
{
    // Weak: the handler must not keep the TT (and through it the
    // runtime) alive past graph teardown.
    let weak: Weak<TtInner<K>> = Arc::downgrade(&tt.inner);
    let handler = tt
        .inner
        .runtime
        .register_handler(move |ctx, payload: Vec<u8>| {
            // Arrival order is remote-controlled: a message racing graph
            // teardown or linking is dropped, not a panic.
            let Some(inner) = weak.upgrade() else {
                eprintln!("ttg-core: dropping SPMD message for a torn-down TT");
                return;
            };
            if inner.route.get().is_none() {
                eprintln!("ttg-core: dropping SPMD message that arrived before link_spmd");
                return;
            }
            let Some((idx, key_bytes, val_bytes)) = decode_spmd(&payload) else {
                eprintln!(
                    "ttg-core: dropping truncated SPMD message for '{}' ({} bytes)",
                    inner.name,
                    payload.len()
                );
                return;
            };
            let key: K = serde_json::from_slice(key_bytes).expect("deserialize key");
            let mut d = crate::io::Dispatch::Worker(ctx);
            if idx == INVOKE_IDX {
                inner.invoke_now(&mut d, key);
            } else {
                // The index came off the wire: out of range is a peer's
                // corruption, dropped; an in-range input that was not
                // declared remote-capable is *this* program's bug and
                // stays a loud panic.
                let Some(input) = inner.inputs.get(idx as usize) else {
                    eprintln!(
                        "ttg-core: dropping SPMD message for '{}' with bad input index {idx}",
                        inner.name
                    );
                    return;
                };
                let hooks = input.serde.as_ref().unwrap_or_else(|| {
                    panic!(
                        "input {idx} of '{}' received a cross-rank datum but was not \
                         declared with input_remote()/input_aggregator_remote()",
                        inner.name
                    )
                });
                let copy = (hooks.from_bytes)(val_bytes, d.ordering());
                inner.deliver_input(&mut d, idx as usize, &key, copy);
            }
        });
    let route = Route {
        keymap,
        target: handler,
        key_to_bytes: |k: &K| serde_json::to_vec(k).expect("serialize key"),
    };
    tt.inner
        .route
        .set(route)
        .ok()
        .expect("template task linked twice");
    handler
}
