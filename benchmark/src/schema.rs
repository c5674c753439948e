//! What crosses a process boundary or lands in a file: the report a
//! child process prints, the result of one run, and the one-line
//! result the driver reads.

use crate::counters::Counters;
use crate::metrics;
use crate::spans::SpanStat;
use serde::{Deserialize, Serialize, Value};

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Named {
    pub name: String,
    pub value: f64,
}

pub fn named(pairs: &[(&str, f64)]) -> Vec<Named> {
    pairs
        .iter()
        .map(|&(name, value)| Named {
            name: name.to_string(),
            value,
        })
        .collect()
}

pub fn lookup(list: &[Named], name: &str) -> Option<f64> {
    list.iter().find(|n| n.name == name).map(|n| n.value)
}

/// One timed repetition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Rep {
    pub ops: u64,
    pub secs: f64,
    pub failed: u64,
}

impl Rep {
    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.secs
    }
}

/// The traced half of a child's report: repetitions with and without
/// the benchmark's spans, counters and span summaries over the traced
/// ones.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TracedReport {
    pub untraced: Vec<Rep>,
    pub traced: Vec<Rep>,
    pub counters: Counters,
    pub spans: Vec<SpanStat>,
    pub extras: Vec<Named>,
}

impl TracedReport {
    pub fn span(&self, name: &str) -> Option<&SpanStat> {
        self.spans.iter().find(|s| s.name == name)
    }

    pub fn traced_ops(&self) -> u64 {
        self.traced.iter().map(|r| r.ops).sum()
    }
}

/// What a child process prints as its last line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChildReport {
    pub workload: String,
    pub seed: u64,
    /// Process start to start of the first timed repetition.
    pub setup_s: f64,
    pub peak_rss_kb: u64,
    pub warmup_failed: u64,
    pub reps: Vec<Rep>,
    pub traced: Option<TracedReport>,
    /// Results of the rung and count-only passes.
    pub metrics: Vec<Named>,
}

/// One workload's end-to-end result in one run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadResult {
    pub workload: String,
    pub ops_per_s: f64,
    pub setup_s: f64,
    pub peak_rss_mb: f64,
    /// Median seconds per repetition.
    pub rep_s: f64,
    pub reps: u64,
    pub ops_attempted: u64,
    pub ops_failed: u64,
}

impl WorkloadResult {
    /// A workload whose process timed out, crashed or failed its
    /// check: everything it attempted counts as failed.
    pub fn failed(workload: &str) -> Self {
        WorkloadResult {
            workload: workload.to_string(),
            ops_per_s: 0.0,
            setup_s: 0.0,
            peak_rss_mb: 0.0,
            rep_s: 0.0,
            reps: 0,
            ops_attempted: 1,
            ops_failed: 1,
        }
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        match name {
            "ops_per_s" => Some(self.ops_per_s),
            "setup_s" => Some(self.setup_s),
            "peak_rss_mb" => Some(self.peak_rss_mb),
            _ => None,
        }
    }
}

pub const RUN_SCHEMA: u64 = 1;

/// Every workload's result of one `run`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunResult {
    pub schema: u64,
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
    pub workloads: Vec<WorkloadResult>,
}

/// The one JSON object the driver reads off the last line of stdout.
pub fn driver_line(attempted: u64, failed: u64, metrics: &[(String, f64, &str)]) -> String {
    let metrics = metrics
        .iter()
        .map(|(name, value, unit)| {
            let entry = Value::Object(vec![
                ("value".to_string(), Value::Float(*value)),
                ("unit".to_string(), Value::String(unit.to_string())),
            ]);
            (name.clone(), entry)
        })
        .collect();
    let line = Value::Object(vec![
        ("correct".to_string(), Value::Bool(failed == 0)),
        ("attempted".to_string(), Value::UInt(attempted.max(1))),
        ("failed".to_string(), Value::UInt(failed)),
        ("metrics".to_string(), Value::Object(metrics)),
    ]);
    serde_json::to_string(&line).expect("a Value always serializes")
}

/// The driver line for a `--trace 0` run of one workload.
pub fn end_to_end_line(r: &WorkloadResult) -> String {
    let metrics: Vec<(String, f64, &str)> = metrics::END_TO_END
        .iter()
        .map(|m| {
            let value = r
                .metric(m.name)
                .expect("every end-to-end metric has a value");
            (m.name.to_string(), value, m.unit)
        })
        .collect();
    driver_line(r.ops_attempted, r.ops_failed, &metrics)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_child() -> ChildReport {
        ChildReport {
            workload: "serve".into(),
            seed: 9,
            setup_s: 0.3125,
            peak_rss_kb: 20_480,
            warmup_failed: 0,
            reps: vec![
                Rep {
                    ops: 6_100,
                    secs: 0.21,
                    failed: 0,
                },
                Rep {
                    ops: 6_100,
                    secs: 0.22,
                    failed: 1,
                },
            ],
            traced: Some(TracedReport {
                untraced: vec![Rep {
                    ops: 10,
                    secs: 0.5,
                    failed: 0,
                }],
                traced: vec![Rep {
                    ops: 10,
                    secs: 0.6,
                    failed: 0,
                }],
                counters: Counters {
                    allocs: 7,
                    ..Counters::default()
                },
                spans: vec![SpanStat {
                    name: "submit".into(),
                    count: 10,
                    total_ns: 1_000,
                    p50_ns: 95.0,
                    p99_ns: 190.0,
                }],
                extras: named(&[("tasks_per_graph", 56.5)]),
            }),
            metrics: named(&[("sync.spin_lock_ns", 11.25)]),
        }
    }

    #[test]
    fn child_report_and_run_result_round_trip_through_json() {
        let child = sample_child();
        let text = serde_json::to_string(&child).unwrap();
        assert_eq!(serde_json::from_str::<ChildReport>(&text).unwrap(), child);
        let untraced = ChildReport {
            traced: None,
            ..child
        };
        let text = serde_json::to_string(&untraced).unwrap();
        assert_eq!(
            serde_json::from_str::<ChildReport>(&text).unwrap(),
            untraced
        );

        let run = RunResult {
            schema: RUN_SCHEMA,
            seed: 4,
            seconds: 10.0,
            quick: false,
            workloads: vec![
                WorkloadResult {
                    workload: "chain".into(),
                    ops_per_s: 7.1e6,
                    setup_s: 0.27,
                    peak_rss_mb: 5.5,
                    rep_s: 0.18,
                    reps: 52,
                    ops_attempted: 65_000_000,
                    ops_failed: 0,
                },
                WorkloadResult::failed("bulk"),
            ],
        };
        let text = serde_json::to_string_pretty(&run).unwrap();
        assert_eq!(serde_json::from_str::<RunResult>(&text).unwrap(), run);
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let r = WorkloadResult {
            workload: "chain".into(),
            ops_per_s: 7_093_517.25,
            setup_s: 0.271_828,
            peak_rss_mb: 5.5,
            rep_s: 0.18,
            reps: 52,
            ops_attempted: 1_000,
            ops_failed: 0,
        };
        let line = end_to_end_line(&r);
        assert!(!line.contains('\n'));
        let v: Value = serde_json::from_str(&line).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v["correct"], true);
        assert_eq!(v["attempted"], 1_000u64);
        let names: Vec<&str> = v["metrics"]
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(names, ["ops_per_s", "setup_s", "peak_rss_mb"]);
        assert_eq!(v["metrics"]["ops_per_s"]["value"], 7_093_517.25);
        assert_eq!(v["metrics"]["setup_s"]["unit"], "s");

        let failed = end_to_end_line(&WorkloadResult::failed("bulk"));
        let v: Value = serde_json::from_str(&failed).unwrap();
        assert_eq!(v["correct"], false);
        assert_eq!(v["attempted"], 1u64);
        assert_eq!(v["failed"], 1u64);
    }
}
