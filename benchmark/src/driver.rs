//! The parent side: runs each workload in child processes of this
//! binary under a deadline and reduces their reports to metrics.
//!
//! A timed run of one workload is [`PROCESSES`] processes, one after
//! the other, each setting the workload up afresh and repeating it for
//! its share of the seconds. That gives `setup_s` and `peak_rss_mb`
//! several samples per run (their medians are reported) and spreads the
//! repetitions over several address-space layouts, which steadies the
//! median throughput.

use crate::child::Mode;
use crate::inputs::Size;
use crate::schema::{ChildReport, WorkloadResult};
use crate::stats::median;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Processes a timed run of one workload is split over.
pub const PROCESSES: usize = 5;
/// What a child may take on top of the seconds it was asked to measure
/// for (set-up, warm-up, the repetition in progress) before it is
/// killed and its workload reported as failed.
const GRACE: Duration = Duration::from_secs(40);

pub struct ChildSpec<'a> {
    pub mode: Mode,
    pub workload: &'a str,
    pub seed: u64,
    pub seconds: f64,
    pub size: Size,
    pub trace_out: Option<PathBuf>,
}

/// A point in time no child may run past: the whole command has to end
/// within the driver's 180 s.
#[derive(Clone, Copy)]
pub struct Deadline(Instant);

impl Deadline {
    pub fn after(d: Duration) -> Deadline {
        Deadline(Instant::now() + d)
    }

    fn remaining(self) -> Duration {
        self.0.saturating_duration_since(Instant::now())
    }
}

/// Runs one child to completion or to its deadline. Its report is the
/// last line it printed; a timeout, a panic, a non-zero exit or an
/// unreadable report is an `Err` that says which.
pub fn run_child(spec: &ChildSpec<'_>, deadline: Deadline) -> Result<ChildReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let spawned_unix_ns = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_err(|e| format!("clock before 1970: {e}"))?
        .as_nanos();
    let mut cmd = Command::new(exe);
    cmd.arg("child")
        .args(["--mode", spec.mode.as_str()])
        .args(["--workload", spec.workload])
        .args(["--seed", &spec.seed.to_string()])
        .args(["--seconds", &spec.seconds.to_string()])
        .args(["--spawned-unix-ns", &spawned_unix_ns.to_string()]);
    if spec.size == Size::Quick {
        cmd.arg("--quick");
    }
    if let Some(path) = &spec.trace_out {
        cmd.arg("--trace-out").arg(path);
    }
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start child: {e}"))?;
    let mut stdout = child.stdout.take().expect("stdout was piped");
    // The reader ends when the child closes its stdout, i.e. exits (or
    // is killed below); waiting on the channel is the deadline.
    let (tx, rx) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        let _ = stdout.read_to_string(&mut text);
        let _ = tx.send(text);
    });
    let allowed =
        (Duration::from_secs_f64(spec.seconds.max(0.0)) + GRACE).min(deadline.remaining());
    let output = rx.recv_timeout(allowed);
    if output.is_err() {
        let _ = child.kill();
    }
    let status = child
        .wait()
        .map_err(|e| format!("cannot reap child: {e}"))?;
    reader
        .join()
        .map_err(|_| "reader thread panicked".to_string())?;
    let what = format!("{} {}", spec.mode.as_str(), spec.workload);
    let text = output.map_err(|_| format!("{what}: no result within {allowed:.0?}, killed"))?;
    if !status.success() {
        return Err(format!("{what}: child exited with {status}"));
    }
    let last = text.lines().last().unwrap_or("");
    serde_json::from_str(last).map_err(|e| format!("{what}: unreadable report: {e}"))
}

/// Reduces the reports of one workload's processes to its end-to-end
/// result. Any failed operation, in the warm-up too, is counted.
pub fn reduce(workload: &str, children: &[ChildReport]) -> WorkloadResult {
    let reps: Vec<_> = children.iter().flat_map(|c| &c.reps).collect();
    if reps.is_empty() {
        return WorkloadResult::failed(workload);
    }
    let per = |f: fn(&ChildReport) -> f64| median(&children.iter().map(f).collect::<Vec<_>>());
    WorkloadResult {
        workload: workload.to_string(),
        ops_per_s: median(&reps.iter().map(|r| r.ops_per_s()).collect::<Vec<_>>()),
        setup_s: per(|c| c.setup_s),
        peak_rss_mb: per(|c| c.peak_rss_kb as f64 / 1024.0),
        rep_s: median(&reps.iter().map(|r| r.secs).collect::<Vec<_>>()),
        reps: reps.len() as u64,
        ops_attempted: reps.iter().map(|r| r.ops).sum(),
        ops_failed: reps.iter().map(|r| r.failed).sum::<u64>()
            + children.iter().map(|c| c.warmup_failed).sum::<u64>(),
    }
}

/// The end-to-end run of one workload: `seconds` of timed repetitions
/// over [`PROCESSES`] processes (one short process when `Quick`). A
/// process that fails makes the whole workload failed, and the run goes
/// on to the next workload.
pub fn timed_run(
    workload: &str,
    seed: u64,
    seconds: f64,
    size: Size,
    deadline: Deadline,
) -> WorkloadResult {
    let processes = if size == Size::Quick { 1 } else { PROCESSES };
    let mut children = Vec::new();
    for _ in 0..processes {
        let spec = ChildSpec {
            mode: Mode::Timed,
            workload,
            seed,
            seconds: seconds / processes as f64,
            size,
            trace_out: None,
        };
        match run_child(&spec, deadline) {
            Ok(report) => children.push(report),
            Err(e) => {
                eprintln!("FAILED {e}");
                return WorkloadResult::failed(workload);
            }
        }
    }
    reduce(workload, &children)
}

/// Where results and traces go unless `--out` says otherwise: inside
/// the benchmark's own directory, which `.gitignore` covers.
pub fn default_out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Rep;

    fn child(setup_s: f64, rss_kb: u64, reps: &[(u64, f64, u64)]) -> ChildReport {
        ChildReport {
            workload: "chain".into(),
            seed: 1,
            setup_s,
            peak_rss_kb: rss_kb,
            warmup_failed: 0,
            reps: reps
                .iter()
                .map(|&(ops, secs, failed)| Rep { ops, secs, failed })
                .collect(),
            traced: None,
            metrics: Vec::new(),
        }
    }

    #[test]
    fn reduce_pools_repetitions_and_takes_medians_over_processes() {
        let children = [
            child(0.30, 10_240, &[(100, 1.0, 0), (100, 2.0, 0)]),
            child(0.50, 20_480, &[(100, 4.0, 0)]),
            child(0.40, 30_720, &[(100, 0.5, 2), (100, 1.0, 0)]),
        ];
        let r = reduce("chain", &children);
        // ops/s of the five repetitions: 100, 50, 25, 200, 100.
        assert_eq!(r.ops_per_s, 100.0);
        assert_eq!(r.setup_s, 0.40);
        assert_eq!(r.peak_rss_mb, 20.0);
        assert_eq!(r.reps, 5);
        assert_eq!(r.ops_attempted, 500);
        assert_eq!(r.ops_failed, 2);
        assert_eq!(reduce("chain", &[]), WorkloadResult::failed("chain"));
    }

    #[test]
    fn a_failed_warm_up_counts_as_failed_operations() {
        let mut c = child(0.3, 1_024, &[(10, 1.0, 0)]);
        c.warmup_failed = 10;
        assert_eq!(reduce("chain", &[c]).ops_failed, 10);
    }
}
