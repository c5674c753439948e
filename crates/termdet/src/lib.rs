//! # ttg-termdet — termination detection
//!
//! TTG relies on PaRSEC's termination detection to know when all tasks
//! (and in-flight messages) of a data-flow execution have completed
//! (paper Sections II, III-A, IV-B).
//!
//! Three levels:
//!
//! 1. **Thread level** (the paper's Section IV-B contribution): each
//!    worker counts discovered/executed tasks in a *plain, non-atomic*
//!    per-thread counter. Only when a thread falls idle does it flush the
//!    accumulated delta into the process-wide counter with one atomic
//!    add. "Unless starvation and recovery occur regularly, the updates
//!    of process-wide counters should remain rare events."
//! 2. **Process level**: a single signed atomic counter of pending tasks
//!    N_P = N_D − N_E (discovered minus executed). The *original*
//!    runtime updates it on every event from every thread — the choke
//!    point the paper removes; [`TermDetKind::ProcessWide`] reproduces
//!    that behaviour for the ablation benchmarks.
//! 3. **Global level**: the *4-counter wave* algorithm (Bosilca et al.):
//!    when a process is locally quiescent it contributes its totals of
//!    messages sent and received to a reduction; an epoch of work ends
//!    when the two sums are equal and unchanged for two consecutive
//!    reductions. [`WaveRule`] is that rule, once, over fenced epochs:
//!    [`WaveBoard`] runs it for a runtime on its own and a network
//!    coordinator for the ranks of a job, as one protocol.
//!
//! The process-wide pending counter may be transiently negative (a task
//! discovered by thread A but executed by thread B can be flushed by B
//! first); quiescence is therefore only evaluated when every worker is
//! idle and flushed, at which point the counter is exact.
//!
//! A fourth, orthogonal level serves the resident-runtime case:
//! [`InstanceScope`] detects termination of *one graph instance* among
//! many sharing a runtime, via a Dijkstra–Scholten-style credit scheme
//! (the degenerate in-process form of a per-instance wave epoch), so a
//! serving layer never needs to quiesce the whole runtime between
//! requests.

#![warn(missing_docs)]

mod local;
mod scope;
mod wave;

pub use local::{LocalTermination, TermDetKind};
pub use scope::{InstanceScope, ScopeOutcome, SubmissionGuard};
pub use wave::{TermWave, WaveBoard, WaveRule, WaveStep};
