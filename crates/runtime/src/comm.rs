//! The send half of an active message.
//!
//! The same TTG program "seamlessly scales from a single node to
//! distributed execution" via active messages and the 4-counter wave. A
//! message is a handler id and a payload
//! ([`crate::Runtime::register_handler`], [`crate::Runtime::send_msg`])
//! with two destinations and no third: this rank, where it is an
//! injected task at once, or another, where the sender counts it
//! (`message_sent`) and hands it to the transport bound with
//! [`crate::Runtime::set_frame_sender`]. `ttg-net` binds one for every
//! multi-rank job — sockets, or `NetGroup::local` for all ranks in one
//! address space — and inserts what arrives as tasks of the destination
//! ([`crate::Runtime::deliver_frames`]), so the wave cannot balance
//! before a message's handler has run.
//!
//! ```
//! use ttg_runtime::{Runtime, RuntimeConfig};
//! use std::sync::atomic::{AtomicU64, Ordering};
//! use std::sync::Arc;
//!
//! let rt = Runtime::new(RuntimeConfig::optimized(1));
//! let sum = Arc::new(AtomicU64::new(0));
//! let s = Arc::clone(&sum);
//! let add = rt.register_handler(move |ctx, payload| {
//!     assert_eq!(ctx.rank(), 0);
//!     s.fetch_add(payload[0] as u64, Ordering::Relaxed);
//! });
//! rt.send_msg(0, 0, add, vec![7]); // to this rank: an injected task
//! rt.wait();
//! assert_eq!(sum.load(Ordering::Relaxed), 7);
//! ```

use crate::runtime::{Arrival, Inner};
use std::sync::atomic::Ordering;
use ttg_sched::Priority;

/// Routes a framed (serialized) active message from `src` to rank `dst`:
/// to `src` itself, or over the transport `src` is bound to.
pub(crate) fn send_msg_from(
    src: &Inner,
    dst: usize,
    priority: Priority,
    handler: u32,
    payload: Vec<u8>,
    span: u64,
) {
    if dst == src.rank {
        // Local delivery: execute the handler as an ordinary injected
        // task; no inter-process message accounting. An unknown id is
        // the caller's bug here, not a peer's.
        let message = Arrival {
            handler,
            priority,
            payload,
            span,
        };
        let task = src
            .message_task(&src.handlers.read(), message, src.arrival_ns())
            .unwrap_or_else(|| panic!("no message handler registered with id {handler}"));
        src.term.task_discovered(None);
        src.inject(task);
        return;
    }
    let out = src
        .frame_out
        .get()
        .expect("send_msg to another rank requires a bound transport");
    let len = payload.len();
    // Count the send *before* the frame can possibly be received.
    src.term.message_sent();
    src.comm.messages_sent.fetch_add(1, Ordering::Relaxed);
    src.comm.bytes_sent.fetch_add(len as u64, Ordering::Relaxed);
    if let Some(obs) = src.obs.as_deref() {
        // The receiving rank derives the matching sequence from
        // per-peer arrival order (the transport delivers in order per
        // peer).
        obs.record_net_send(dst, len, ttg_sync::clock::now_ns(), span);
    }
    if let Err(e) = out.send_data(dst, handler, priority, payload, span) {
        // The frame never left, but `message_sent` was already
        // counted: the wave can no longer balance. Record the typed
        // error and abort the epoch instead of hanging in wait().
        src.fail_send(dst, &e);
    }
}
