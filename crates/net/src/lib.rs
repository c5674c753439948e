//! # ttg-net — pluggable transports for distributed TTG execution
//!
//! The paper's runtime "seamlessly scales from a single node to
//! distributed execution" via PaRSEC's communication layer; this crate
//! supplies that layer for the reproduction — the only one: whatever
//! runs on more than one rank, between OS processes or inside one, runs
//! on it.
//!
//! * [`frame`] — a length-prefixed wire format for active messages and
//!   termination control traffic;
//! * [`transport`] — the object-safe [`Transport`]/[`FrameSink`] pair,
//!   with [`LocalTransport`] delivering frames in-process;
//! * [`tcp`] — [`TcpTransport`]: a full TCP mesh between OS processes,
//!   one reader thread per peer, connect with exponential-backoff
//!   retry;
//! * [`wave`] — the 4-counter termination wave over a transport:
//!   fenced epochs, a rank-0 coordinator running reduction rounds, and
//!   [`NetWave`] implementing `ttg_termdet::TermWave`;
//! * [`group`] — [`NetRuntime`] (one distributed rank) and
//!   [`NetGroup`] (all ranks in-process over the same protocol stack —
//!   what "simulated" multi-rank runs, tests and benches stand on).
//!
//! Messages are *serialized active messages*: a registered handler id
//! plus an opaque payload (see `ttg_runtime::Runtime::register_handler`
//! and `ttg_core::dist::link_spmd`). Closures cannot cross process
//! boundaries, and one kind of message is enough inside one.

#![warn(missing_docs)]

pub mod config;
pub mod error;
pub mod fault;
pub mod frame;
pub mod group;
mod ring;
pub mod tcp;
pub mod transport;
pub mod wave;

pub use config::NetConfig;
pub use error::{NetError, NetResult};
pub use fault::{FaultPlan, FaultyTransport};
pub use frame::{Frame, FrameKind};
pub use group::{NetGroup, NetRuntime};
pub use tcp::TcpTransport;
pub use transport::{FrameSink, LocalTransport, Transport};
pub use wave::NetWave;
