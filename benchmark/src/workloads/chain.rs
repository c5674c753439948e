//! `chain` — the paper's fig5 serial chain: task k forwards one datum,
//! by move, to task k+1 on a single worker.

use super::Workload;
use crate::inputs::{ChainInput, Size};
use crate::spans::{SpanId, Tracer};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use ttg_core::{Edge, Graph, Tt};
use ttg_runtime::RuntimeConfig;

/// Where the last task of the chain leaves its key and datum.
#[derive(Default)]
struct ChainEnd {
    key: AtomicU64,
    value: AtomicI64,
}

pub struct Chain {
    input: ChainInput,
    tt: Tt<u64>,
    graph: Graph,
    end: Arc<ChainEnd>,
}

/// Builds a `flows`-flow move chain of `length` tasks on `graph`; the
/// task with key `length` stores what reached it into `end`.
fn build_chain(graph: &Graph, flows: usize, length: u64, end: Arc<ChainEnd>) -> Tt<u64> {
    let edges: Vec<Edge<u64, i64>> = (0..flows).map(|i| Edge::new(format!("flow{i}"))).collect();
    let mut b = graph.tt::<u64>("chain");
    for e in &edges {
        b = b.input::<i64>(e);
    }
    for e in &edges {
        b = b.output(e);
    }
    b.build(move |k, inputs, out| {
        if *k >= length {
            // Relaxed: read only after `wait()` returned, which orders it.
            end.value.store(*inputs.get::<i64>(0), Ordering::Relaxed);
            end.key.store(*k, Ordering::Relaxed);
            return;
        }
        for i in 0..inputs.len() {
            let c = inputs.take_copy(i);
            out.forward(i, *k + 1, c);
        }
    })
}

/// Runs a chain of `length` tasks with `flows` flows once on `config`,
/// after one warm-up pass, and returns ns per task. The layer rungs
/// (`core.task_ns_1flow`, `core.ns_per_extra_flow`, `obs.trace_on_ratio`)
/// are this function at different settings.
pub fn chain_ns_per_task(config: RuntimeConfig, flows: usize, length: u64) -> f64 {
    let graph = Graph::new(config);
    let tt = build_chain(&graph, flows, length, Arc::default());
    let pass = || {
        let t = std::time::Instant::now();
        for i in 0..flows {
            tt.deliver(i, 0u64, i as i64);
        }
        graph.wait();
        t.elapsed().as_nanos() as f64 / length as f64
    };
    pass();
    pass()
}

/// Failed operations of one repetition: all of them unless the chain
/// ended at the right key with the datum intact.
pub fn check_chain(input: &ChainInput, end_key: u64, end_value: i64) -> u64 {
    if end_key == input.length && end_value == input.start {
        0
    } else {
        input.length
    }
}

impl Chain {
    pub fn new(seed: u64, size: Size) -> Self {
        let input = ChainInput::generate(seed, size);
        let graph = Graph::new(RuntimeConfig::optimized(1));
        let end = Arc::new(ChainEnd::default());
        let tt = build_chain(&graph, 1, input.length, Arc::clone(&end));
        Chain {
            input,
            tt,
            graph,
            end,
        }
    }
}

impl Workload for Chain {
    fn rep(&mut self, tr: &mut Tracer, rep: u64) -> u64 {
        self.end.key.store(0, Ordering::Relaxed);
        let root = tr.begin("rep", SpanId::NONE, rep);
        tr.span("deliver", root, rep, || {
            self.tt.deliver(0, 0u64, self.input.start)
        });
        tr.span("wait", root, rep, || self.graph.wait());
        tr.end(root);
        self.input.length
    }

    fn check(&mut self) -> u64 {
        check_chain(
            &self.input,
            self.end.key.load(Ordering::Relaxed),
            self.end.value.load(Ordering::Relaxed),
        )
    }

    fn spans_per_rep(&self) -> usize {
        3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_rejects_a_short_chain_and_a_changed_datum() {
        let mut c = Chain::new(5, Size::Quick);
        c.rep(&mut Tracer::disabled(), 0);
        assert_eq!(c.check(), 0);
        let (key, value) = (c.input.length, c.input.start);
        assert_eq!(check_chain(&c.input, key - 1, value), c.input.length);
        assert_eq!(check_chain(&c.input, key, value ^ 1), c.input.length);
    }

    #[test]
    fn chain_rung_reports_a_positive_cost_for_one_and_four_flows() {
        let one = chain_ns_per_task(RuntimeConfig::optimized(1), 1, 2_000);
        let four = chain_ns_per_task(RuntimeConfig::optimized(1), 4, 2_000);
        assert!(one > 0.0 && four > 0.0);
    }
}
