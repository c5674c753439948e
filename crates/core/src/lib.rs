//! # ttg-core — the Template Task Graph (TTG) data-flow frontend
//!
//! A Rust implementation of the TTG programming model (paper Section II):
//! applications build an abstract graph of *template tasks* (TTs)
//! connected by typed [`Edge`]s. The template graph may contain cycles;
//! during execution an **acyclic task graph unfolds dynamically** as task
//! bodies send data into their output terminals, which flows along edges
//! to instances of successor template tasks identified by *task IDs*
//! (keys). A task becomes eligible once all of its inputs are satisfied.
//!
//! ```
//! use ttg_core::{Graph, Edge};
//! use ttg_runtime::RuntimeConfig;
//! use std::sync::Arc;
//! use std::sync::atomic::{AtomicU64, Ordering};
//!
//! // A two-stage pipeline: `producer(k)` sends k*10 to `consumer(k)`.
//! let graph = Graph::new(RuntimeConfig::optimized(2));
//! let edge: Edge<u64, u64> = Edge::new("values");
//! let sum = Arc::new(AtomicU64::new(0));
//!
//! let producer = graph
//!     .tt::<u64>("producer")
//!     .output(&edge)
//!     .build(|key, _inputs, out| {
//!         out.send(0, *key, *key * 10);
//!     });
//!
//! let sum2 = Arc::clone(&sum);
//! let _consumer = graph
//!     .tt::<u64>("consumer")
//!     .input::<u64>(&edge)
//!     .build(move |_key, inputs, _out| {
//!         sum2.fetch_add(*inputs.get::<u64>(0), Ordering::Relaxed);
//!     });
//!
//! for k in 0..10 {
//!     producer.invoke(k);
//! }
//! graph.wait();
//! assert_eq!(sum.load(Ordering::Relaxed), (0..10).map(|k| k * 10).sum::<u64>());
//! ```
//!
//! ## What maps to what
//!
//! | Paper concept | Here |
//! |---|---|
//! | Template task (TT) | [`Tt`], built by [`TtBuilder`] |
//! | Edge / terminals | [`Edge`], `.input::<V>()` / `.output()` declarations |
//! | Task ID (key) | any [`Key`] type |
//! | Aggregator terminals (Section V-D1, Listing 1) | [`TtBuilder::input_aggregator`] |
//! | Data copies, move vs copy | `Inputs::{get, take}`, `Outputs::{send, forward}` |
//! | `ttg::invoke` | [`Tt::invoke`] / [`Tt::deliver`] |
//! | Fence / `ttg_wait` | [`Graph::wait`] |
//!
//! ## Runtime behaviour reproduced from the paper
//!
//! * Discovered-but-unready tasks live as pooled *shells* in the per-TT
//!   scalable hash table; each input delivery is a locked-bucket
//!   transaction plus one atomic satisfaction increment (the 4·N_i term
//!   of Equation 1).
//! * **Single-input TTs bypass the hash table entirely** ("access to the
//!   hash table can be eliminated because a newly discovered task can be
//!   scheduled immediately").
//! * Shells are allocated from per-thread free-list pools (N_OB = 2) and
//!   scheduled through the runtime's intrusive queues (N_S = 2).

#![warn(missing_docs)]

mod builder;
pub mod dist;
mod edge;
mod graph;
mod io;
mod shell;
mod template;
mod tt;

pub use builder::{AggCount, TtBuilder};
pub use edge::Edge;
pub use graph::Graph;
pub use io::{Inputs, Outputs};
pub use template::{
    BuildFn, GraphInstance, GraphTemplate, InstanceCtx, InstanceStart, ResultSink, SeedFn,
    TemplateError, TemplateMeta,
};
pub use tt::Tt;

/// Task identifier (key) requirements: TTG keys are cheap, hashable,
/// comparable values ("any user-provided data type, e.g., an integer or
/// a tuple").
pub trait Key: Clone + Eq + std::hash::Hash + Send + Sync + 'static {}
impl<T: Clone + Eq + std::hash::Hash + Send + Sync + 'static> Key for T {}

/// Data flowing along edges.
pub trait Data: Send + Sync + 'static {}
impl<T: Send + Sync + 'static> Data for T {}

/// Maximum number of input terminals per template task.
pub const MAX_INPUTS: usize = 8;
