//! Criterion bench behind Figure 12: the MRA kernels (a refinement
//! step, projection, filter/unfilter), the single-mode pass for every
//! k, and the full pipeline at small scale.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::sync::Arc;
use ttg_mra::tensor::{PassKernel, MAX_K};
use ttg_mra::tree::{BoxKey, MraContext, MraParams};
use ttg_mra::{Gaussian3, Matrix, MraTtg, Tensor3};
use ttg_runtime::{Runtime, RuntimeConfig};

fn ctx(k: usize) -> MraContext {
    MraContext::new(MraParams {
        k,
        eps: 1e-5,
        max_level: 8,
        initial_level: 1,
        domain: (-2.0, 2.0),
    })
}

fn bench_kernels(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig12_kernels");
    g.sample_size(20);
    for k in [6usize, 10] {
        let ctx = ctx(k);
        let f = Gaussian3::new([0.1, -0.2, 0.3], 40.0);
        g.bench_function(BenchmarkId::new("refine", k), |b| {
            b.iter(|| ctx.refine(&f, &BoxKey::ROOT))
        });
        g.bench_function(BenchmarkId::new("project_box", k), |b| {
            b.iter(|| ctx.project_box(&f, &BoxKey::ROOT))
        });
        let children: [Tensor3; 8] =
            std::array::from_fn(|i| ctx.project_box(&f, &BoxKey::ROOT.children()[i]));
        g.bench_function(BenchmarkId::new("filter_8_children", k), |b| {
            b.iter(|| ctx.filter(&children))
        });
        let parent = ctx.filter(&children);
        g.bench_function(BenchmarkId::new("unfilter_child", k), |b| {
            b.iter(|| ctx.unfilter_child(&parent, 5))
        });
        g.bench_function(BenchmarkId::new("unfilter_all", k), |b| {
            b.iter(|| ctx.unfilter_all(&parent))
        });
    }
    g.finish();
}

/// The pass dispatch picks for each k against the portable pass. A
/// `transform3` is three passes and one allocation, so ns per pass is
/// a third of the time per call.
fn bench_pass(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig12_pass");
    for k in 1..=MAX_K {
        let m = Matrix::from_fn(k, k, |r, c| ((7 * r + 3 * c) as f64 * 0.11).cos());
        let mut t = Tensor3::zeros(k);
        for (i, v) in t.data_mut().iter_mut().enumerate() {
            *v = (i as f64 * 0.37).sin();
        }
        for (label, kernel) in [
            ("dispatched", PassKernel::for_k(k)),
            ("portable", PassKernel::Portable),
        ] {
            g.bench_function(BenchmarkId::new(label, k), |b| {
                b.iter(|| t.transform3_with(kernel, &m, &m, &m))
            });
        }
    }
    g.finish();
}

fn bench_pipeline(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig12_pipeline");
    g.sample_size(10);
    let ctx = Arc::new(ctx(6));
    let funcs = vec![
        Gaussian3::new([0.2, -0.1, 0.3], 60.0),
        Gaussian3::new([-0.5, 0.5, 0.0], 45.0),
    ];
    for (label, config) in [
        ("optimized", RuntimeConfig::optimized(1)),
        ("original", RuntimeConfig::original(1)),
    ] {
        let runtime = Arc::new(Runtime::new(config));
        let pipeline = MraTtg::new(Arc::clone(&ctx));
        g.bench_function(BenchmarkId::new("2funcs_1thread", label), |b| {
            b.iter(|| {
                let out = pipeline.run(&runtime, &funcs);
                assert_eq!(out.stats.leaves, out.stats.reconstructed);
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_kernels, bench_pass, bench_pipeline);
criterion_main!(benches);
