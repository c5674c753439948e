//! `mra` — the multiresolution-analysis mini-app through `MraTtg::run`:
//! ~80 µs of tensor arithmetic per box, so the runtime's own overhead
//! is a few per cent of it. The workload on which work on runtime
//! overhead must predict no change.

use super::Workload;
use crate::inputs::{mra_params, MraInput, Size};
use crate::spans::{SpanId, Tracer};
use std::sync::Arc;
use ttg_mra::serial::SerialMra;
use ttg_mra::tree::MraContext;
use ttg_mra::ttg_pipeline::MraOutput;
use ttg_mra::MraTtg;
use ttg_runtime::{Runtime, RuntimeConfig};

/// Largest coefficient difference accepted against the serial reference.
const TOLERANCE: f64 = 1e-10;

pub struct Mra {
    input: MraInput,
    runtime: Arc<Runtime>,
    pipeline: MraTtg,
    /// Function 0 computed by `ttg_mra::serial::run`.
    reference: SerialMra,
    last: Option<MraOutput>,
}

/// Failed operations of one solve: all projected boxes unless every leaf
/// was reconstructed and function 0 matches the serial reference, leaf
/// for leaf, within [`TOLERANCE`].
pub fn check_mra(reference: &SerialMra, out: &MraOutput) -> u64 {
    let all = out.stats.boxes_projected as u64;
    if out.stats.leaves != out.stats.reconstructed {
        return all;
    }
    for (got, want) in [
        (&out.leaves, &reference.leaves),
        (&out.reconstructed, &reference.reconstructed),
    ] {
        let of_f0 = got.iter().filter(|((f, _), _)| *f == 0);
        if of_f0.clone().count() != want.len() {
            return all;
        }
        for ((_, key), tensor) in of_f0 {
            match want.get(key) {
                Some(w) if tensor.max_abs_diff(w) <= TOLERANCE => {}
                _ => return all,
            }
        }
    }
    0
}

impl Mra {
    pub fn new(seed: u64, size: Size) -> Self {
        let input = MraInput::generate(seed, size);
        let ctx = Arc::new(MraContext::new(mra_params()));
        let reference = ttg_mra::serial::run(&ctx, &input.funcs[0]);
        Mra {
            input,
            runtime: Arc::new(Runtime::new(RuntimeConfig::optimized(1))),
            pipeline: MraTtg::new(ctx),
            reference,
            last: None,
        }
    }
}

impl Workload for Mra {
    fn rep(&mut self, tr: &mut Tracer, rep: u64) -> u64 {
        let root = tr.begin("rep", SpanId::NONE, rep);
        let out = tr.span("MraTtg::run", root, rep, || {
            self.pipeline.run(&self.runtime, &self.input.funcs)
        });
        tr.end(root);
        let ops = out.stats.boxes_projected as u64;
        self.last = Some(out);
        ops
    }

    fn check(&mut self) -> u64 {
        // Taking the output frees it before the next solve allocates
        // its own, so peak memory is one solve's, not two.
        match self.last.take() {
            Some(out) => check_mra(&self.reference, &out),
            None => 1,
        }
    }

    fn spans_per_rep(&self) -> usize {
        2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_rejects_a_perturbed_leaf_and_a_missing_reconstruction() {
        let mut m = Mra::new(5, Size::Quick);
        m.rep(&mut Tracer::disabled(), 0);
        let mut out = m.last.take().expect("ran");
        assert_eq!(check_mra(&m.reference, &out), 0);
        let boxes = out.stats.boxes_projected as u64;

        let key = *out.leaves.keys().find(|(f, _)| *f == 0).expect("a leaf");
        out.leaves.get_mut(&key).expect("present").data_mut()[0] += 1e-6;
        assert_eq!(check_mra(&m.reference, &out), boxes);
        out.leaves.get_mut(&key).expect("present").data_mut()[0] -= 1e-6;
        assert_eq!(check_mra(&m.reference, &out), 0);

        out.stats.reconstructed -= 1;
        assert_eq!(check_mra(&m.reference, &out), boxes);
    }
}
