//! Perf-regression baselines: `BENCH_<fig>.json` records and the diff
//! that gates CI on them.
//!
//! A [`BenchRecord`] is a flat, stable-schema snapshot of one figure
//! binary's smoke run:
//!
//! - **metrics** — floating-point measurements where *lower is better*
//!   (ns/op, ns/task, µs/message, overhead %). Higher-is-better
//!   quantities are recorded inverted (µs/task instead of tasks/s) so
//!   one comparison rule covers everything.
//! - **counters** — integer behaviour counters riding along for
//!   attribution (steal attempts, lock contention, bytes on wire).
//!   Counters are *informational*: the diff reports them but never
//!   fails on them, because absolute counts shift with machine load.
//!
//! [`diff`] compares two records metric-by-metric and flags a
//! regression when `new > old * (1 + threshold)`. Metrics present in
//! only one record are reported as added/removed, not failed, so
//! baselines survive the benchmark suite growing.

use serde::Value;
use std::fmt::Write as _;

/// Format version stamped into every record.
pub const BENCH_SCHEMA: u64 = 1;

/// One figure's perf snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Which figure produced this (e.g. `"fig5"`).
    pub fig: String,
    /// `git rev-parse --short HEAD` at record time, or `"unknown"`.
    pub git_sha: String,
    /// Lower-is-better measurements, insertion-ordered.
    pub metrics: Vec<(String, f64)>,
    /// Informational behaviour counters, insertion-ordered.
    pub counters: Vec<(String, u64)>,
}

impl BenchRecord {
    /// Creates an empty record for `fig`, stamping the current git sha.
    pub fn new(fig: impl Into<String>) -> Self {
        BenchRecord {
            fig: fig.into(),
            git_sha: git_sha(),
            metrics: Vec::new(),
            counters: Vec::new(),
        }
    }

    /// Adds (or overwrites) a lower-is-better metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        match self.metrics.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => *v = value,
            None => self.metrics.push((name, value)),
        }
    }

    /// Adds (or overwrites) an informational counter.
    pub fn counter(&mut self, name: impl Into<String>, value: u64) {
        let name = name.into();
        match self.counters.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => *v = value,
            None => self.counters.push((name, value)),
        }
    }

    /// Folds the process-global lock-contention counters in under a
    /// `lock_` prefix (all zero unless `obs` is on).
    pub fn attach_contention(&mut self) {
        let c = ttg_sync::lock_contention();
        for (f, v) in ttg_sync::LOCK_FIELDS.iter().zip(c.0) {
            let name = f.metric.strip_prefix("lock_").unwrap_or(f.metric);
            self.counter(format!("lock_{name}"), v);
        }
    }

    /// Folds a runtime's scheduler counters in under `prefix` (e.g.
    /// `"llp"` → `llp_steal_attempts`), so one record can carry several
    /// measured configurations side by side.
    pub fn attach_queue_stats(&mut self, prefix: &str, s: &ttg_sched::QueueStats) {
        self.counter(format!("{prefix}_local_pops"), s.local_pops as u64);
        self.counter(format!("{prefix}_steals"), s.steals as u64);
        self.counter(format!("{prefix}_slow_pushes"), s.slow_pushes as u64);
        self.counter(format!("{prefix}_steal_attempts"), s.steal_attempts as u64);
        self.counter(format!("{prefix}_steal_empty"), s.steal_empty as u64);
        self.counter(format!("{prefix}_overflow_pops"), s.overflow_pops as u64);
        self.counter(format!("{prefix}_detach_merges"), s.detach_merges as u64);
    }

    /// Serializes to pretty JSON with `metrics`/`counters` as objects
    /// (jq-friendly: `.metrics.p99_ns`).
    pub fn to_json(&self) -> String {
        let obj = |pairs: Vec<(String, Value)>| Value::Object(pairs);
        let root = obj(vec![
            ("schema".to_string(), Value::UInt(BENCH_SCHEMA)),
            ("fig".to_string(), Value::String(self.fig.clone())),
            ("git_sha".to_string(), Value::String(self.git_sha.clone())),
            (
                "metrics".to_string(),
                obj(self
                    .metrics
                    .iter()
                    .map(|(n, v)| (n.clone(), Value::Float(*v)))
                    .collect()),
            ),
            (
                "counters".to_string(),
                obj(self
                    .counters
                    .iter()
                    .map(|(n, v)| (n.clone(), Value::UInt(*v)))
                    .collect()),
            ),
        ]);
        serde_json::to_string_pretty(&root).expect("record serialization")
    }

    /// Parses a record previously written by [`BenchRecord::to_json`].
    pub fn from_json(json: &str) -> Result<BenchRecord, String> {
        let v: Value =
            serde_json::from_str(json).map_err(|e| format!("record is not valid JSON: {e}"))?;
        let schema = v
            .get("schema")
            .and_then(|s| s.as_u64())
            .ok_or("record has no schema field")?;
        if schema != BENCH_SCHEMA {
            return Err(format!(
                "record schema {schema} != supported {BENCH_SCHEMA}"
            ));
        }
        let fig = v
            .get("fig")
            .and_then(|f| f.as_str())
            .ok_or("record has no fig field")?
            .to_string();
        let git_sha = v
            .get("git_sha")
            .and_then(|s| s.as_str())
            .unwrap_or("unknown")
            .to_string();
        let metrics = v
            .get("metrics")
            .and_then(|m| m.as_object())
            .ok_or("record has no metrics object")?
            .iter()
            .filter_map(|(n, x)| x.as_f64().map(|f| (n.clone(), f)))
            .collect();
        let counters = v
            .get("counters")
            .and_then(|c| c.as_object())
            .map(|o| {
                o.iter()
                    .filter_map(|(n, x)| x.as_u64().map(|u| (n.clone(), u)))
                    .collect()
            })
            .unwrap_or_default();
        Ok(BenchRecord {
            fig,
            git_sha,
            metrics,
            counters,
        })
    }

    /// Writes the record to `path`.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

/// Turns a series label into a metric-name slug: lowercase
/// alphanumerics with single underscores (`"TTG (move)"` → `ttg_move`).
pub fn slug(label: &str) -> String {
    let mut out = String::with_capacity(label.len());
    for c in label.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
        } else if !out.ends_with('_') && !out.is_empty() {
            out.push('_');
        }
    }
    out.trim_end_matches('_').to_string()
}

/// Best-effort current git sha (short form).
pub fn git_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// One metric's old-vs-new comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDelta {
    /// Metric name.
    pub name: String,
    /// Baseline value.
    pub old: f64,
    /// Candidate value.
    pub new: f64,
    /// Relative change, `new / old - 1` (0 when old is 0).
    pub change: f64,
}

/// The result of diffing a candidate record against a baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffReport {
    /// Metrics exceeding the regression threshold.
    pub regressions: Vec<MetricDelta>,
    /// Metrics within threshold (improvements included).
    pub ok: Vec<MetricDelta>,
    /// Metric names only in the baseline.
    pub removed: Vec<String>,
    /// Metric names only in the candidate.
    pub added: Vec<String>,
}

impl DiffReport {
    /// True when no metric regressed.
    pub fn passed(&self) -> bool {
        self.regressions.is_empty()
    }

    /// Human-readable summary.
    pub fn render(&self, threshold: f64) -> String {
        let mut out = String::new();
        let pct = |x: f64| 100.0 * x;
        for d in &self.regressions {
            let _ = writeln!(
                out,
                "REGRESSION  {:<32} {:>12.3} -> {:>12.3}  ({:+.1}% > +{:.1}%)",
                d.name,
                d.old,
                d.new,
                pct(d.change),
                pct(threshold)
            );
        }
        for d in &self.ok {
            let _ = writeln!(
                out,
                "ok          {:<32} {:>12.3} -> {:>12.3}  ({:+.1}%)",
                d.name,
                d.old,
                d.new,
                pct(d.change)
            );
        }
        for n in &self.removed {
            let _ = writeln!(out, "removed     {n}");
        }
        for n in &self.added {
            let _ = writeln!(out, "added       {n}");
        }
        let _ = writeln!(
            out,
            "{}: {} compared, {} regressed, {} added, {} removed",
            if self.passed() { "PASS" } else { "FAIL" },
            self.regressions.len() + self.ok.len(),
            self.regressions.len(),
            self.added.len(),
            self.removed.len()
        );
        out
    }
}

/// Compares `new` against the `old` baseline. A metric regresses when
/// `new > old * (1 + threshold)` (e.g. `threshold = 0.10` allows 10%
/// slack — these are smoke runs on shared machines, not a lab). All
/// metrics are lower-is-better by the [`BenchRecord`] contract.
pub fn diff(old: &BenchRecord, new: &BenchRecord, threshold: f64) -> DiffReport {
    let mut report = DiffReport {
        regressions: Vec::new(),
        ok: Vec::new(),
        removed: Vec::new(),
        added: Vec::new(),
    };
    for (name, &ov) in old.metrics.iter().map(|(n, v)| (n, v)) {
        match new.metrics.iter().find(|(n, _)| n == name) {
            Some(&(_, nv)) => {
                let change = if ov == 0.0 { 0.0 } else { nv / ov - 1.0 };
                let delta = MetricDelta {
                    name: name.clone(),
                    old: ov,
                    new: nv,
                    change,
                };
                if nv > ov * (1.0 + threshold) {
                    report.regressions.push(delta);
                } else {
                    report.ok.push(delta);
                }
            }
            None => report.removed.push(name.clone()),
        }
    }
    for (name, _) in &new.metrics {
        if !old.metrics.iter().any(|(n, _)| n == name) {
            report.added.push(name.clone());
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(pairs: &[(&str, f64)]) -> BenchRecord {
        let mut r = BenchRecord::new("figX");
        for &(n, v) in pairs {
            r.metric(n, v);
        }
        r
    }

    #[test]
    fn slugs_are_metric_safe() {
        assert_eq!(slug("TTG (move)"), "ttg_move");
        assert_eq!(slug("contended (seq-cst)"), "contended_seq_cst");
        assert_eq!(slug("LFQ (4 threads)"), "lfq_4_threads");
    }

    #[test]
    fn json_roundtrip_preserves_everything() {
        let mut r = record(&[("p50_ns", 120.5), ("p99_ns", 900.0)]);
        r.counter("queue_steals", 42);
        let back = BenchRecord::from_json(&r.to_json()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn malformed_records_error() {
        assert!(BenchRecord::from_json("nope").is_err());
        assert!(BenchRecord::from_json("{\"schema\": 999, \"fig\": \"x\"}").is_err());
        assert!(BenchRecord::from_json("{\"fig\": \"x\"}").is_err());
    }

    #[test]
    fn identical_records_pass() {
        let r = record(&[("p50_ns", 100.0), ("p99_ns", 500.0)]);
        let d = diff(&r, &r, 0.10);
        assert!(d.passed());
        assert_eq!(d.ok.len(), 2);
        assert!(d.render(0.10).contains("PASS"));
    }

    #[test]
    fn doubled_p99_fails() {
        let old = record(&[("p50_ns", 100.0), ("p99_ns", 500.0)]);
        let new = record(&[("p50_ns", 101.0), ("p99_ns", 1000.0)]);
        let d = diff(&old, &new, 0.10);
        assert!(!d.passed());
        assert_eq!(d.regressions.len(), 1);
        assert_eq!(d.regressions[0].name, "p99_ns");
        assert!((d.regressions[0].change - 1.0).abs() < 1e-9);
        assert!(d.render(0.10).contains("REGRESSION"));
    }

    #[test]
    fn threshold_is_slack_not_equality() {
        let old = record(&[("m", 100.0)]);
        // Exactly at the threshold boundary: allowed.
        let at = record(&[("m", 110.0)]);
        assert!(diff(&old, &at, 0.10).passed());
        // Just past it: flagged.
        let over = record(&[("m", 110.2)]);
        assert!(!diff(&old, &over, 0.10).passed());
        // Improvements always pass.
        let better = record(&[("m", 10.0)]);
        assert!(diff(&old, &better, 0.10).passed());
    }

    #[test]
    fn schema_drift_reports_adds_and_removes() {
        let old = record(&[("gone", 1.0), ("kept", 2.0)]);
        let new = record(&[("kept", 2.0), ("fresh", 3.0)]);
        let d = diff(&old, &new, 0.10);
        assert!(d.passed(), "membership drift is not a regression");
        assert_eq!(d.removed, vec!["gone".to_string()]);
        assert_eq!(d.added, vec!["fresh".to_string()]);
    }
}
