//! The child side: one workload (or the rung suite, or the 2-worker
//! count pass) in a process of its own, so that a hang or a panic is a
//! failed workload and not a hung benchmark, and so that set-up time
//! and peak memory are those of one workload alone.

use crate::counters::{arm_alloc_counter, peak_rss_kb, Counters};
use crate::inputs::Size;
use crate::schema::{named, ChildReport, Named, Rep, TracedReport};
use crate::spans::{summarize, to_json, Tracer};
use crate::workloads::{self, Workload};
use std::path::PathBuf;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Pairs of one untraced and one traced repetition in a traced run.
const TRACED_PAIRS: usize = 3;

#[derive(Debug, Clone, PartialEq)]
pub enum Mode {
    /// Warm up, then repeat for the given seconds.
    Timed,
    /// Warm up, then alternate untraced and traced repetitions.
    Traced,
    /// Every layer rung; no workload.
    Rungs,
    /// The 2-worker stencil pass; scheduler counts only.
    Counts,
}

impl Mode {
    /// The `--mode` value that selects this mode.
    pub fn as_str(&self) -> &'static str {
        match self {
            Mode::Timed => "timed",
            Mode::Traced => "traced",
            Mode::Rungs => "rungs",
            Mode::Counts => "counts",
        }
    }

    pub fn parse(name: &str) -> Option<Mode> {
        [Mode::Timed, Mode::Traced, Mode::Rungs, Mode::Counts]
            .into_iter()
            .find(|m| m.as_str() == name)
    }
}

#[derive(Debug, Clone)]
pub struct ChildArgs {
    pub mode: Mode,
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub size: Size,
    /// Wall-clock instant the parent spawned this process at, in ns
    /// since the Unix epoch: set-up time is measured from there.
    pub spawned_unix_ns: u128,
    /// Where a traced child writes its spans.
    pub trace_out: Option<PathBuf>,
}

/// Confines this process — the calling thread and every thread it
/// starts from here on — to one of the CPUs it may run on, the
/// highest-numbered. With a workload's threads free to spread over the
/// reference host's two CPUs, `serve`, `burst` and `bulk` flip between
/// placements 15–25 % apart, within a run and between runs; on one CPU
/// wall-clock time is the CPU work the workload costs, which is what a
/// change to the library moves.
#[cfg(target_os = "linux")]
fn pin_to_one_cpu() {
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mut allowed = [0u64; 16];
    // SAFETY: `allowed` is writable for the `size_of_val` bytes passed,
    // and pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&allowed), allowed.as_mut_ptr()) } != 0 {
        return;
    }
    let Some(word) = allowed.iter().rposition(|&w| w != 0) else {
        return;
    };
    let mut one = [0u64; 16];
    one[word] = 1 << (63 - allowed[word].leading_zeros());
    // SAFETY: `one` is readable for the `size_of_val` bytes passed. A
    // refusal leaves the process unpinned, which only costs steadiness.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
}

#[cfg(not(target_os = "linux"))]
fn pin_to_one_cpu() {}

fn unix_ns() -> u128 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos())
        .unwrap_or(0)
}

/// One repetition, timed, then checked outside the timed region.
fn timed_rep(wl: &mut dyn Workload, tr: &mut Tracer, rep: u64) -> Rep {
    let t = Instant::now();
    let ops = wl.rep(tr, rep);
    let secs = t.elapsed().as_secs_f64();
    Rep {
        ops,
        secs,
        failed: wl.check(),
    }
}

fn run_traced(wl: &mut dyn Workload, trace_out: Option<&PathBuf>) -> TracedReport {
    let mut tracer = Tracer::with_capacity(TRACED_PAIRS * wl.spans_per_rep());
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut counters = Counters::default();
    for pair in 0..TRACED_PAIRS as u64 {
        tracer.set_enabled(false);
        untraced.push(timed_rep(wl, &mut tracer, 0));
        tracer.set_enabled(true);
        let before = Counters::now();
        arm_alloc_counter(true);
        let rep = timed_rep(wl, &mut tracer, pair);
        arm_alloc_counter(false);
        counters.add(&Counters::now().since(&before));
        traced.push(rep);
    }
    if let Some(path) = trace_out {
        if let Err(e) = std::fs::write(path, to_json(tracer.spans())) {
            eprintln!("cannot write {}: {e}", path.display());
        }
    }
    TracedReport {
        untraced,
        traced,
        counters,
        spans: summarize(tracer.spans()),
        extras: named(&wl.extras()),
    }
}

fn counts_pass(seed: u64, size: Size) -> (Vec<Named>, u64) {
    let (stats, tasks, correct) = workloads::stencil::stencil_stats(seed, size, 2);
    let per_ktask = |n: usize| n as f64 * 1e3 / tasks.max(1) as f64;
    let metrics = named(&[
        ("sched.steals_per_ktask", per_ktask(stats.queue.steals)),
        ("sched.parks", stats.parks as f64),
        ("sched.slow_pushes", stats.queue.slow_pushes as f64),
    ]);
    (metrics, if correct { 0 } else { tasks })
}

/// Runs the child and returns its report; `Err` for an unknown workload.
pub fn run(args: &ChildArgs) -> Result<ChildReport, String> {
    let mut report = ChildReport {
        workload: args.workload.clone(),
        seed: args.seed,
        setup_s: 0.0,
        peak_rss_kb: 0,
        warmup_failed: 0,
        reps: Vec::new(),
        traced: None,
        metrics: Vec::new(),
    };
    // The count pass is about two workers; it alone keeps both CPUs.
    if args.mode != Mode::Counts {
        pin_to_one_cpu();
    }
    match args.mode {
        Mode::Rungs => report.metrics = named(&crate::rungs::measure_all()),
        Mode::Counts => (report.metrics, report.warmup_failed) = counts_pass(args.seed, args.size),
        Mode::Timed | Mode::Traced => {
            let mut wl = workloads::build(&args.workload, args.seed, args.size)
                .ok_or_else(|| format!("unknown workload '{}'", args.workload))?;
            // The warm-up repetition fills pools and finishes lazy
            // set-up; it is part of set-up time, and it is checked.
            let mut off = Tracer::disabled();
            report.warmup_failed = timed_rep(wl.as_mut(), &mut off, 0).failed;
            report.setup_s = unix_ns().saturating_sub(args.spawned_unix_ns) as f64 / 1e9;
            if args.mode == Mode::Traced {
                report.traced = Some(run_traced(wl.as_mut(), args.trace_out.as_ref()));
            } else {
                let budget = Duration::from_secs_f64(args.seconds.max(0.0));
                let start = Instant::now();
                while report.reps.is_empty() || start.elapsed() < budget {
                    report.reps.push(timed_rep(wl.as_mut(), &mut off, 0));
                }
            }
        }
    }
    report.peak_rss_kb = peak_rss_kb();
    Ok(report)
}
