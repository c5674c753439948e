//! `compare A B`: two result sets of N runs each, reduced per metric ×
//! workload to medians, quartiles and a verdict; `selfcheck` makes both
//! sets from the same build and demands `unchanged` throughout.

use crate::metrics::END_TO_END;
use crate::schema::RunResult;
use crate::stats::{quartiles, verdict, Verdict};
use crate::workloads::WORKLOADS;
use std::fmt::Write as _;
use std::path::Path;

/// Reads every `run-*.json` of a result directory, in name order.
pub fn load_set(dir: &Path) -> Result<Vec<RunResult>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("run-") && n.ends_with(".json"))
        })
        .collect();
    paths.sort();
    let set: Vec<RunResult> = paths
        .iter()
        .map(|p| {
            let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
            serde_json::from_str(&text).map_err(|e| format!("{}: {e}", p.display()))
        })
        .collect::<Result<_, String>>()?;
    if set.is_empty() {
        return Err(format!("{}: no run-*.json files", dir.display()));
    }
    Ok(set)
}

pub struct Row {
    pub metric: &'static str,
    pub workload: &'static str,
    pub a: [f64; 3],
    pub b: [f64; 3],
    pub failed: u64,
    pub verdict: Verdict,
}

fn values(set: &[RunResult], workload: &str, metric: &str) -> Vec<f64> {
    set.iter()
        .flat_map(|run| &run.workloads)
        .filter(|w| w.workload == workload && w.ops_failed == 0)
        .filter_map(|w| w.metric(metric))
        .collect()
}

/// One row per end-to-end metric and workload; `b` is judged against
/// `a`. A workload with failed operations in either set cannot be
/// `unchanged`: its row is `unresolved` and says how many failed.
pub fn compare(a: &[RunResult], b: &[RunResult]) -> Vec<Row> {
    let mut rows = Vec::new();
    for m in &END_TO_END {
        for w in &WORKLOADS {
            let failed: u64 = a
                .iter()
                .chain(b)
                .flat_map(|run| &run.workloads)
                .filter(|r| r.workload == w.name)
                .map(|r| r.ops_failed)
                .sum();
            let (va, vb) = (values(a, w.name, m.name), values(b, w.name, m.name));
            let verdict = if failed > 0 || va.is_empty() || vb.is_empty() {
                Verdict::Unresolved
            } else {
                verdict(&va, &vb, m.better, m.bound)
            };
            rows.push(Row {
                metric: m.name,
                workload: w.name,
                a: quartiles(&va),
                b: quartiles(&vb),
                failed,
                verdict,
            });
        }
    }
    rows
}

pub fn render(rows: &[Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<12} {:<8} {:>13} {:>13} {:>13}   {:>13} {:>13} {:>13}  {:>7}  verdict",
        "metric", "workload", "A q1", "A median", "A q3", "B q1", "B median", "B q3", "B/A-1"
    );
    for r in rows {
        let change = if r.a[1] != 0.0 {
            format!("{:+.1}%", 100.0 * (r.b[1] / r.a[1] - 1.0))
        } else {
            "n/a".to_string()
        };
        let _ = write!(out, "{:<12} {:<8}", r.metric, r.workload);
        for x in r.a {
            let _ = write!(out, " {x:>13.4}");
        }
        let _ = write!(out, "  ");
        for x in r.b {
            let _ = write!(out, " {x:>13.4}");
        }
        let _ = write!(out, "  {change:>7}  {}", r.verdict.as_str());
        if r.failed > 0 {
            let _ = write!(out, " ({} operations failed)", r.failed);
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{WorkloadResult, RUN_SCHEMA};

    fn run(seed: u64, ops_per_s: f64, failed: u64) -> RunResult {
        RunResult {
            schema: RUN_SCHEMA,
            seed,
            seconds: 1.0,
            quick: false,
            workloads: WORKLOADS
                .iter()
                .map(|w| WorkloadResult {
                    workload: w.name.to_string(),
                    ops_per_s: ops_per_s + seed as f64,
                    setup_s: 0.3,
                    peak_rss_mb: 10.0,
                    rep_s: 0.2,
                    reps: 50,
                    ops_attempted: 1_000,
                    ops_failed: failed,
                })
                .collect(),
        }
    }

    #[test]
    fn one_row_per_metric_and_workload_with_the_right_verdicts() {
        let base: Vec<_> = (0..5).map(|s| run(s, 1_000.0, 0)).collect();
        let slow: Vec<_> = (0..5).map(|s| run(s, 800.0, 0)).collect();
        let rows = compare(&base, &slow);
        assert_eq!(rows.len(), END_TO_END.len() * WORKLOADS.len());
        for r in &rows {
            let want = if r.metric == "ops_per_s" {
                Verdict::Worse
            } else {
                Verdict::Unchanged
            };
            assert_eq!(r.verdict, want, "{} {}", r.metric, r.workload);
        }
        assert!(compare(&base, &base)
            .iter()
            .all(|r| r.verdict == Verdict::Unchanged));
        let text = render(&rows);
        assert_eq!(text.lines().count(), rows.len() + 1);
        assert!(text.contains("worse"));
    }

    #[test]
    fn failed_operations_make_a_row_unresolved() {
        let base: Vec<_> = (0..3).map(|s| run(s, 1_000.0, 0)).collect();
        let broken: Vec<_> = (0..3).map(|s| run(s, 1_000.0, 7)).collect();
        let rows = compare(&base, &broken);
        assert!(rows.iter().all(|r| r.verdict == Verdict::Unresolved));
        assert!(render(&rows).contains("operations failed"));
    }

    #[test]
    fn load_set_reads_run_files_and_rejects_an_empty_directory() {
        let dir = std::env::temp_dir().join(format!("ttg-benchmark-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        assert!(load_set(&dir).is_err());
        let r = run(3, 1_000.0, 0);
        std::fs::write(
            dir.join("run-seed3.json"),
            serde_json::to_string(&r).unwrap(),
        )
        .unwrap();
        std::fs::write(dir.join("notes.txt"), "ignored").unwrap();
        assert_eq!(load_set(&dir).unwrap(), vec![r]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
