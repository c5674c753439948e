//! # ttg-runtime — the PaRSEC-like execution runtime
//!
//! TTG (the frontend in `ttg-core`) dispatches eligible tasks to this
//! runtime, which "owns the execution resources (thread pool) and
//! provides a flexible scheduling infrastructure" (paper Section II).
//! The pieces:
//!
//! * [`task`] — intrusive task objects: a [`task::TaskHeader`] (scheduler
//!   link + vtable) embedded at offset 0 of any concrete task type, so
//!   tasks flow through the lock-free queues without allocation.
//! * [`copy`] — reference-counted, type-erased *data copies* with the
//!   move/reuse optimizations of Section IV-E (retain/release are the
//!   N_RC = 2 atomic operations of the cost model; a uniquely owned copy
//!   can be moved to a single successor without touching the count).
//! * [`worker`] — the worker loop: execute from the scheduler; on idle,
//!   flush thread-local termination counters, drain external injections,
//!   and participate in termination detection; park when starved.
//! * [`runtime`] — the [`Runtime`] handle: configuration
//!   ([`RuntimeConfig::original`] vs [`RuntimeConfig::optimized`] are the
//!   two ends of the paper's ablation), task submission, and `wait()`
//!   (TTG's fence).
//! * [`comm`] — the send half of an active message: a handler id and a
//!   payload go to this rank as an injected task, or to another rank
//!   over the one transport the runtime is bound to. `ttg-net` supplies
//!   that transport, the receive half and the 4-counter wave for
//!   *global* termination — sockets between OS processes, or
//!   `NetGroup::local` for every rank in one address space — the
//!   mechanism that lets TTG scale "seamlessly from shared memory to
//!   distributed memory".
//! * [`stats`] — per-worker counters for the benchmark harness.

#![warn(missing_docs)]

pub mod comm;
pub mod copy;
pub mod error;
pub mod live;
pub mod runtime;
pub mod stats;
pub mod task;
pub mod worker;

pub use copy::DataCopy;
pub use error::RunError;
pub use live::{LiveConfig, LiveTelemetry, RuntimeSlot};
pub use runtime::{
    Arrival, FrameSender, HealthReport, RecoveryEvent, RecoveryObserver, Runtime, RuntimeConfig,
    DEFAULT_TRACE_CAPACITY,
};
pub use stats::{ContentionStats, NetStats, RuntimeStats};

// Observability vocabulary (event kinds, metrics snapshots, trace
// merging) re-exported so consumers need no direct ttg-obs dependency.
pub use task::{RawTask, TaskHeader, TaskVTable};
pub use ttg_obs as obs;
pub use worker::{ScopeFrame, WorkerCtx};

// Re-export the configuration vocabulary so downstream crates configure
// the runtime with a single import.
pub use ttg_hashtable::LockKind;
pub use ttg_sched::SchedKind;
pub use ttg_sync::OrderingPolicy;
pub use ttg_termdet::TermDetKind;
