//! **Figure 6** — LFQ vs LLP under pressure: a binary tree of tasks
//! (single input each → hash-table bypass; pure control flow) with a
//! cycle-calibrated busy-wait kernel.
//!
//! * Figure 6a: relative overhead `100·(T_measured − T_work)/T_work`
//!   where `T_work = ntasks·task_cycles/threads`, vs task duration, for
//!   several thread counts, under each scheduler.
//! * Figure 6b: speedup over 1 thread for task sizes {0, 500, 10k, 100k}
//!   cycles.
//!
//! Expected shape: LLP's overhead falls below 1% around 40k cycles even
//! at full thread count; LFQ serializes on the global overflow FIFO and
//! only its low-thread configurations reach low overhead.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use ttg_bench::{Args, Report, Series};
use ttg_core::{Edge, Graph};
use ttg_runtime::{RuntimeConfig, SchedKind};
use ttg_sync::clock::{cycles_per_ns, spin_cycles};

const USAGE: &str = "fig6_scheduler [--height 16] [--threads 1,2,4] \
                     [--cycles 0,500,10000,40000,100000] [--json] [--bench-json PATH]";

/// Runs the tree benchmark; returns wall nanoseconds plus the runtime's
/// post-run stats (scheduler behaviour counters for the bench record).
fn tree_run(
    sched: SchedKind,
    threads: usize,
    height: u64,
    cycles: u64,
) -> (f64, ttg_runtime::RuntimeStats) {
    let mut config = RuntimeConfig::optimized(threads);
    config.scheduler = sched;
    let graph = Graph::new(config);
    let edge: Edge<(u64, u64), u8> = Edge::new("tree");
    let count = Arc::new(AtomicU64::new(0));
    let c = Arc::clone(&count);
    let node = graph
        .tt::<(u64, u64)>("node")
        .input::<u8>(&edge)
        .output(&edge)
        .build(move |&(level, idx), _inputs, out| {
            spin_cycles(cycles);
            c.fetch_add(1, Ordering::Relaxed);
            if level < height {
                out.send(0, (level + 1, idx * 2), 0u8);
                out.send(0, (level + 1, idx * 2 + 1), 0u8);
            }
        });
    // Warm-up with a small tree to populate pools.
    node.deliver(0, (height - 2, 0), 0u8);
    graph.wait();
    count.store(0, Ordering::Relaxed);
    let start = Instant::now();
    node.deliver(0, (0, 0), 0u8);
    graph.wait();
    let ns = start.elapsed().as_nanos() as f64;
    assert_eq!(count.load(Ordering::Relaxed), (1 << (height + 1)) - 1);
    (ns, graph.runtime().stats())
}

fn main() {
    let args = Args::parse(USAGE);
    let height: u64 = args.get("height", 16u64);
    let threads = args.get_list("threads", &[1usize, 2, 4]);
    let cycles = args.get_list("cycles", &[0u64, 500, 10_000, 40_000, 100_000]);
    let json = args.has("json");
    let ntasks = (1u64 << (height + 1)) - 1;
    let cyc_per_ns = cycles_per_ns();
    println!("binary tree height {height} -> {ntasks} tasks; tsc ≈ {cyc_per_ns:.2} cycles/ns");

    let schedulers = [("LFQ", SchedKind::Lfq), ("LLP", SchedKind::Llp)];

    // ---- Figure 6a: relative overhead --------------------------------
    let mut fig6a = Report::new(
        "Figure 6a: scheduler overhead vs task duration",
        "task cycles",
        "overhead %",
    );
    // Scheduler counters from the highest-pressure configuration of
    // each scheduler (max threads, max non-zero cycles).
    let mut queue_stats: Vec<(String, ttg_runtime::RuntimeStats)> = Vec::new();
    for (name, sched) in schedulers {
        for &t in &threads {
            let mut series = Series::new(format!("{name} ({t} threads)"));
            for &cyc in &cycles {
                if cyc == 0 {
                    continue; // ideal time undefined for empty tasks
                }
                let (ns, stats) = tree_run(sched, t, height, cyc);
                let work_ns = (ntasks as f64 * cyc as f64 / cyc_per_ns) / t as f64;
                let overhead = 100.0 * (ns - work_ns).max(0.0) / work_ns;
                series.push(cyc as f64, overhead);
                if Some(&t) == threads.last() && Some(&cyc) == cycles.last() {
                    queue_stats.push((name.to_lowercase(), stats));
                }
            }
            fig6a.add(series);
        }
    }
    fig6a.emit(json);

    // ---- Figure 6b: speedup over 1 thread ----------------------------
    let mut fig6b = Report::new(
        "Figure 6b: thread-scaling speedup",
        "threads",
        "speedup over 1 thread",
    );
    for (name, sched) in schedulers {
        for &cyc in &cycles {
            let (base, _) = tree_run(sched, 1, height, cyc);
            let mut series = Series::new(format!("{name} ({cyc} cycles)"));
            for &t in &threads {
                let (ns, _) = tree_run(sched, t, height, cyc);
                series.push(t as f64, base / ns);
            }
            fig6b.add(series);
        }
    }
    fig6b.emit(json);

    let bench_json = args.get_str("bench-json", "");
    if !bench_json.is_empty() {
        let mut rec = ttg_bench::BenchRecord::new("fig6");
        // Overhead % is already lower-is-better; one metric per
        // (scheduler, threads, cycles) point of fig 6a.
        for s in &fig6a.series {
            let slug = ttg_bench::record::slug(&s.label);
            for &(x, y) in &s.points {
                rec.metric(format!("{slug}_c{}_overhead_pct", x as u64), y);
            }
        }
        for (prefix, stats) in &queue_stats {
            rec.attach_queue_stats(prefix, &stats.queue);
        }
        rec.attach_contention();
        rec.write(&bench_json).expect("write bench record");
        println!("bench record -> {bench_json}");
    }
    println!(
        "\nshape check: LLP overhead < LFQ at every point; with enough physical \
         cores LLP approaches ideal speedup for >=10k-cycle tasks while LFQ \
         saturates on its global FIFO lock."
    );
}
