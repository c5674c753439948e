//! **Figure 12** — MRA time-to-solution with the original and optimized
//! TTG runtimes, for several numbers of concurrently computed Gaussian
//! functions, as a function of thread count.
//!
//! Paper parameters: order-10 multiwavelets, exponent 30 000, ε = 10⁻⁸,
//! centers uniform in [−6, 6]³, function counts {64, 128, 256}. Those
//! settings produce deep trees sized for a 64-core node; the defaults
//! here are scaled down (`--exponent`, `--eps`, `--funcs`, `--k` restore
//! the paper's values on capable hardware).

use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;
use ttg_bench::{Args, Report, Series};
use ttg_mra::tensor::PassKernel;
use ttg_mra::tree::{MraContext, MraParams};
use ttg_mra::{Gaussian3, MraTtg};
use ttg_runtime::{Runtime, RuntimeConfig};

const USAGE: &str = "fig12_mra [--threads 1,2,4] [--funcs 8,16] [--k 6] [--eps 1e-5] \
                     [--exponent 100] [--max-level 8] [--initial-level 2] [--seed 42] \
                     [--json]";

fn run_once(config: RuntimeConfig, ctx: &Arc<MraContext>, funcs: &[Gaussian3]) -> (f64, usize) {
    let runtime = Arc::new(Runtime::new(config));
    let pipeline = MraTtg::new(Arc::clone(ctx));
    let start = Instant::now();
    let out = pipeline.run(&runtime, funcs);
    let secs = start.elapsed().as_secs_f64();
    assert_eq!(
        out.stats.leaves, out.stats.reconstructed,
        "reconstruction incomplete"
    );
    (secs, out.stats.boxes_projected)
}

fn main() {
    let args = Args::parse(USAGE);
    let threads = args.get_list("threads", &[1usize, 2, 4]);
    let func_counts = args.get_list("funcs", &[8usize, 16]);
    let k: usize = args.get("k", 6usize);
    let eps: f64 = args.get("eps", 1e-5f64);
    let exponent: f64 = args.get("exponent", 100.0f64);
    let max_level: u8 = args.get("max-level", 8u8);
    let seed: u64 = args.get("seed", 42u64);
    let json = args.has("json");

    let initial_level: u8 = args.get("initial-level", 2u8);
    let ctx = Arc::new(MraContext::new(MraParams {
        k,
        eps,
        max_level,
        initial_level,
        domain: (-6.0, 6.0),
    }));
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "MRA: order k={k}, eps={eps:e}, exponent={exponent}, domain [-6,6]^3 \
         (paper: k=10, eps=1e-8, exponent=30000); host: nproc={cpus}, pass kernel: {}",
        PassKernel::for_k(k).name()
    );

    let mut report = Report::new("Figure 12: MRA time to solution", "threads", "seconds");
    for &nf in &func_counts {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let funcs = Gaussian3::random_set(nf, -6.0, 6.0, exponent, &mut rng);
        #[allow(clippy::type_complexity)]
        let variants: [(&str, fn(usize) -> RuntimeConfig); 2] = [
            ("TTG (optimized)", RuntimeConfig::optimized),
            ("TTG (original)", RuntimeConfig::original),
        ];
        for (label, mk) in variants {
            let mut series = Series::new(format!("{label} ({nf} funcs)"));
            let mut base = 0.0f64;
            for &t in &threads {
                let (secs, boxes) = run_once(mk(t), &ctx, &funcs);
                if t == threads[0] {
                    base = secs;
                    println!("  {label}, {nf} funcs: {boxes} boxes projected");
                }
                series.push(t as f64, secs);
                println!(
                    "  {label:<18} funcs={nf:<4} threads={t:<3} {secs:.3}s (speedup {:.2}x)",
                    base / secs
                );
            }
            report.add(series);
        }
    }
    report.emit(json);
    println!(
        "\nshape check (paper): original TTG plateaus near 5x speedup; \
         optimized TTG reaches ~20x at 48 threads for 256 functions. \
         Thread counts above nproc share cores, and their speedup reads ~1 or less."
    );
}
