//! # ttg-serve — multi-tenant graph serving on a resident runtime
//!
//! The classic TTG lifecycle — build a graph, seed it, fence, tear
//! everything down — amortises poorly when "the application" is a
//! stream of small requests. This crate keeps one
//! [`ttg_runtime::Runtime`] resident and serves **graph instances**
//! against it:
//!
//! * a [`ttg_core::GraphTemplate`] is compiled (validated) once per
//!   template name and registered with the engine;
//! * each request stamps out a `GraphInstance` whose termination is
//!   detected by its own `ttg_termdet::InstanceScope` — the runtime
//!   never quiesces between requests;
//! * tenants get bounded submission queues with typed admission
//!   control ([`ServeError::Overloaded`]) and round-robin fairness
//!   across tenants for the shared in-flight budget;
//! * the engine owns no thread: the submitting thread builds and seeds
//!   the instance, the thread that completes its last task finalizes
//!   it, tears it down and admits the next queued request;
//! * finished results live in a bounded LRU until fetched or evicted;
//! * the whole thing is reachable over the `ttg-obs` HTTP server:
//!   `POST /submit`, `GET /poll/<id>`, `GET /result/<id>`,
//!   `GET /tenants.json`, plus per-tenant Prometheus counters on
//!   `/metrics`.
//!
//! ```no_run
//! use std::sync::Arc;
//! use ttg_core::GraphTemplate;
//! use ttg_runtime::{Runtime, RuntimeConfig};
//! use ttg_serve::{ServeConfig, ServeEngine};
//! use serde_json::Value;
//!
//! let rt = Arc::new(Runtime::new(RuntimeConfig::optimized(4)));
//! let engine = Arc::new(ServeEngine::new(rt, ServeConfig::default()));
//! let template = GraphTemplate::compile("noop", |graph, _ctx| {
//!     let tt = graph.tt::<u64>("work").build(|_, _, _| {});
//!     Box::new(move || tt.invoke(0))
//! })
//! .unwrap();
//! engine.register_template(template);
//! let id = engine.submit("acme", "noop", Value::Null).unwrap();
//! let view = engine
//!     .wait_result(id, std::time::Duration::from_secs(1))
//!     .unwrap();
//! assert!(view.status.is_finished());
//! ```

#![warn(missing_docs)]

mod engine;
mod http;
#[cfg(test)]
mod tests;

pub use engine::{
    InstanceStatus, ResultView, ServeConfig, ServeEngine, ServeError, ShutdownReport,
    TenantCounters,
};
pub use http::serve_routes;
