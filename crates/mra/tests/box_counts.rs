//! Exact refinement counts for fixed seeded sets of Gaussians: how many
//! boxes projection refines and how many leaves it keeps. These are
//! the `ops` of the `mra` benchmark and the box counts of Figure 12, so
//! a change to how a refinement step is computed must leave every one
//! of them as it is. The constants were read from the k³-point
//! projection (eight projected children, a filter and `detail_norm`
//! per box) before the per-axis `MraContext::refine` replaced it.

use rand::SeedableRng;
use std::sync::Arc;
use ttg_mra::tree::{MraContext, MraParams};
use ttg_mra::{Gaussian3, MraTtg};
use ttg_runtime::{Runtime, RuntimeConfig};

/// `n` Gaussians with centres uniform in [−6, 6]³, drawn from `seed`
/// as the `mra` benchmark and `fig12_mra` draw them.
fn gaussians(seed: u64, n: usize, exponent: f64) -> Vec<Gaussian3> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    Gaussian3::random_set(n, -6.0, 6.0, exponent, &mut rng)
}

/// (boxes projected, leaves) of each function's serial projection.
fn serial_trees(ctx: &MraContext, funcs: &[Gaussian3]) -> Vec<(usize, usize)> {
    funcs
        .iter()
        .map(|f| {
            let (leaves, boxes, _) = ttg_mra::serial::project(ctx, f);
            (boxes, leaves.len())
        })
        .collect()
}

/// (boxes projected, leaves) summed over `trees`.
fn total(trees: &[(usize, usize)]) -> (usize, usize) {
    trees.iter().fold((0, 0), |(b, l), t| (b + t.0, l + t.1))
}

/// (boxes projected, leaves) of one `MraTtg::run` on one worker, after
/// checking that it reconstructed every leaf.
fn pipeline_counts(ctx: &Arc<MraContext>, funcs: &[Gaussian3]) -> (usize, usize) {
    let runtime = Arc::new(Runtime::new(RuntimeConfig::optimized(1)));
    let out = MraTtg::new(Arc::clone(ctx)).run(&runtime, funcs);
    assert_eq!(out.stats.leaves, out.stats.reconstructed);
    (out.stats.boxes_projected, out.stats.leaves)
}

/// The `mra` benchmark's setting (`mra_params()` in `benchmark/`):
/// k = 6, ε = 10⁻⁵, exponent 100. Its input generator keeps drawing
/// until a box target is met and pads with the 9-box trees it drew, so
/// the 9-box count is pinned too.
#[test]
fn benchmark_setting_refines_the_same_boxes() {
    let ctx = MraContext::new(MraParams {
        k: 6,
        eps: 1e-5,
        max_level: 8,
        initial_level: 1,
        domain: (-6.0, 6.0),
    });
    // (seed, boxes, leaves, functions of 9 boxes), 50 functions a seed.
    for (seed, boxes, leaves, nine) in [
        (0, 4930, 4320, 21),
        (1, 5218, 4572, 17),
        (7, 4426, 3879, 22),
        (29, 4866, 4264, 19),
    ] {
        let trees = serial_trees(&ctx, &gaussians(seed, 50, 100.0));
        assert_eq!(total(&trees), (boxes, leaves), "seed {seed}");
        let smallest = trees.iter().filter(|t| t.0 == 9).count();
        assert_eq!(smallest, nine, "seed {seed}: 9-box trees");
    }
}

/// `fig12_mra`'s defaults (k = 6, ε = 10⁻⁵, exponent 100, seed 42) at
/// 8 and 16 functions, through the pipeline.
#[test]
fn figure_12_defaults_refine_the_same_boxes() {
    let ctx = Arc::new(MraContext::new(MraParams {
        k: 6,
        eps: 1e-5,
        max_level: 8,
        initial_level: 2,
        domain: (-6.0, 6.0),
    }));
    for (n, boxes, leaves) in [(8, 1744, 1527), (16, 3448, 3019)] {
        let funcs = gaussians(42, n, 100.0);
        assert_eq!(
            pipeline_counts(&ctx, &funcs),
            (boxes, leaves),
            "{n} functions"
        );
    }
}

/// The paper's parameters (k = 10, ε = 10⁻⁸, exponent 30 000, up to
/// level 20), seed 42: 8 functions through the pipeline, 64 through
/// the serial projection.
#[test]
fn paper_parameters_refine_the_same_boxes() {
    let ctx = Arc::new(MraContext::new(MraParams {
        k: 10,
        eps: 1e-8,
        max_level: 20,
        initial_level: 2,
        domain: (-6.0, 6.0),
    }));
    assert_eq!(
        pipeline_counts(&ctx, &gaussians(42, 8, 30_000.0)),
        (584, 512)
    );
    assert_eq!(
        total(&serial_trees(&ctx, &gaussians(42, 64, 30_000.0))),
        (4680, 4103)
    );
}
