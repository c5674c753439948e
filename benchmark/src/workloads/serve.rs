//! `serve` — one `ServeEngine` on a 1-worker runtime and one client
//! that keeps a sliding window of submits outstanding and collects the
//! results in order. Callers wait for replies, so this is a closed
//! loop; the window keeps the worker saturated, which removes the
//! wake-up bimodality a single blocking client shows on this host.

use super::Workload;
use crate::inputs::{ServeInput, ServeRequest, Size};
use crate::spans::{SpanId, Tracer};
use serde::Value;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;
use ttg_core::{Edge, GraphTemplate};
use ttg_runtime::{Runtime, RuntimeConfig};
use ttg_serve::{InstanceStatus, ResultView, ServeConfig, ServeEngine, ServeError};

/// Submits the client keeps in flight.
const WINDOW: usize = 8;
const TENANTS: [&str; 2] = ["tenant-a", "tenant-b"];
pub const TEMPLATE: &str = "pipeline";
const RESULT_TIMEOUT: Duration = Duration::from_secs(30);

pub struct Serve {
    input: ServeInput,
    engine: ServeEngine,
    failed: u64,
}

/// A two-stage pipeline of `n` keys: `stage` k sends `2k + base` to
/// `collect` k, and the last `collect` emits what it received as
/// `"last"`. With `n = 0` the instance has no task at all.
pub fn pipeline_template() -> GraphTemplate {
    GraphTemplate::compile(TEMPLATE, |graph, ctx| {
        let field = |name: &str| ctx.input.get(name).and_then(Value::as_u64).unwrap_or(0);
        let (n, base) = (field("n"), field("base"));
        let edge: Edge<u64, u64> = Edge::new("values");
        let stage = graph
            .tt::<u64>("stage")
            .output(&edge)
            .build(move |k, _in, out| out.send(0, *k, *k * 2 + base));
        let sink = ctx.sink.clone();
        let _collect =
            graph
                .tt::<u64>("collect")
                .input::<u64>(&edge)
                .build(move |k, inputs, _out| {
                    if *k + 1 == n {
                        sink.emit("last", Value::UInt(*inputs.get::<u64>(0)));
                    }
                });
        Box::new(move || {
            for k in 0..n {
                stage.invoke(k);
            }
        })
    })
    .expect("the pipeline template is valid")
}

pub fn request_value(req: &ServeRequest) -> Value {
    Value::Object(vec![
        ("n".to_string(), Value::UInt(req.n)),
        ("base".to_string(), Value::UInt(req.base)),
    ])
}

/// 1 unless the instance completed with exactly the one result its
/// request determines.
pub fn check_serve(req: &ServeRequest, result: &Result<ResultView, ServeError>) -> u64 {
    let want = (req.n - 1) * 2 + req.base;
    match result {
        Ok(view)
            if view.status == InstanceStatus::Completed
                && view.results.len() == 1
                && view.results[0].0 == "last"
                && view.results[0].1.as_u64() == Some(want) =>
        {
            0
        }
        _ => 1,
    }
}

impl Serve {
    pub fn new(seed: u64, size: Size) -> Self {
        let runtime = Arc::new(Runtime::new(RuntimeConfig::optimized(1)));
        let engine = ServeEngine::new(
            runtime,
            ServeConfig {
                max_inflight: WINDOW,
                result_capacity: 8 * WINDOW,
                ..ServeConfig::default()
            },
        );
        engine.register_template(pipeline_template());
        Serve {
            input: ServeInput::generate(seed, size),
            engine,
            failed: 0,
        }
    }

    /// Collects the oldest outstanding request and checks its result.
    fn collect(&mut self, window: &mut VecDeque<(u64, usize, SpanId)>, tr: &mut Tracer) {
        let Some((id, i, graph_span)) = window.pop_front() else {
            return;
        };
        let result = tr.span("wait_result", graph_span, i as u64, || {
            self.engine.wait_result(id, RESULT_TIMEOUT)
        });
        tr.end(graph_span);
        self.failed += check_serve(&self.input.requests[i], &result);
    }
}

impl Workload for Serve {
    fn rep(&mut self, tr: &mut Tracer, rep: u64) -> u64 {
        self.failed = 0;
        let root = tr.begin("rep", SpanId::NONE, rep);
        let mut window = VecDeque::with_capacity(WINDOW);
        for i in 0..self.input.requests.len() {
            if window.len() == WINDOW {
                self.collect(&mut window, tr);
            }
            let graph_span = tr.begin("graph", root, i as u64);
            let value = request_value(&self.input.requests[i]);
            let submitted = tr.span("submit", graph_span, i as u64, || {
                self.engine.submit(TENANTS[i % 2], TEMPLATE, value)
            });
            match submitted {
                Ok(id) => window.push_back((id, i, graph_span)),
                Err(_) => {
                    tr.end(graph_span);
                    self.failed += 1;
                }
            }
        }
        while !window.is_empty() {
            self.collect(&mut window, tr);
        }
        tr.end(root);
        self.input.requests.len() as u64
    }

    fn check(&mut self) -> u64 {
        self.failed
    }

    fn spans_per_rep(&self) -> usize {
        1 + 3 * self.input.requests.len()
    }

    fn extras(&mut self) -> Vec<(&'static str, f64)> {
        let graphs = self.input.requests.len().max(1) as f64;
        vec![("tasks_per_graph", self.input.total_tasks() as f64 / graphs)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_rejects_wrong_missing_and_failed_results() {
        let req = ServeRequest { n: 4, base: 100 };
        let view = |status, results| -> Result<ResultView, ServeError> {
            Ok(ResultView {
                id: 1,
                status,
                results,
            })
        };
        let last = |v| vec![("last".to_string(), Value::UInt(v))];
        assert_eq!(
            check_serve(&req, &view(InstanceStatus::Completed, last(106))),
            0
        );
        assert_eq!(
            check_serve(&req, &view(InstanceStatus::Completed, last(107))),
            1
        );
        assert_eq!(
            check_serve(&req, &view(InstanceStatus::Completed, Vec::new())),
            1
        );
        assert_eq!(
            check_serve(&req, &view(InstanceStatus::Failed("x".into()), last(106))),
            1
        );
        assert_eq!(check_serve(&req, &Err(ServeError::ResultNotReady(1))), 1);
    }
}
