//! # ttg-task-bench — the parameterized Task-Bench benchmark
//!
//! A from-scratch implementation of Task Bench (Slaughter et al., SC'20),
//! the benchmark the paper uses for its headline comparison (Sections
//! V-D, Figures 7, 8, 10, 11). Task Bench describes a task graph as an
//! iteration space of `steps × width` points with a *dependence pattern*
//! between consecutive timesteps and a parameterized *kernel* per task;
//! "implementations must support a variable number of dependencies,
//! which can be queried both forward and backward".
//!
//! * [`Pattern`] — dependence patterns (the paper's evaluation uses
//!   `stencil_1d`, i.e. 2+1 dependencies; several more are provided for
//!   completeness, matching the upstream benchmark).
//! * [`Kernel`] — per-task work: empty, busy-wait cycles, compute-bound
//!   flops, or memory-bound traversal.
//! * [`TaskGraph`] — the parameter bundle plus the *ground truth*: a
//!   deterministic value function over (step, point) used to validate
//!   every implementation against the serial reference.
//! * [`impls`] — one implementation per programming model: TTG (with
//!   aggregator terminals, the paper's Listing 1), OpenMP-style
//!   worksharing, OpenMP-style tasks, MPI-style ranks, PaRSEC-PTG-style
//!   parameterized graphs (original and optimized runtime configs), and
//!   the serial reference.

#![warn(missing_docs)]

pub mod deps;
pub mod graph;
pub mod impls;
pub mod kernel;
pub mod pattern;

pub use deps::Deps;
pub use graph::TaskGraph;
pub use impls::{Implementation, RunResult};
pub use kernel::Kernel;
pub use pattern::Pattern;
