//! One benchmark for the whole stack — see README.md.
//!
//! ```text
//! ttg-benchmark run   --seed N [--out DIR] [--seconds S] [--quick]
//! ttg-benchmark trace --seed N [--out DIR] [--quick]
//! ttg-benchmark compare A B
//! ttg-benchmark selfcheck [--runs N] [--seconds S] [--seed N] [--out DIR]
//! ttg-benchmark one --workload W --seed N --seconds S --trace 0|1 [--out DIR]
//! ```
//!
//! `run` measures every workload end to end and checks every output;
//! `trace` is the traced pass with the per-layer metrics and the cost
//! ladders; `one` is the form the benchmark driver calls (one workload,
//! one JSON object on the last line of stdout).

mod child;
mod compare;
mod counters;
mod driver;
mod inputs;
mod ladder;
mod metrics;
mod rungs;
mod schema;
mod spans;
mod stats;
mod workloads;

use child::{ChildArgs, Mode};
use driver::{default_out_dir, timed_run, Deadline};
use inputs::Size;
use schema::{RunResult, WorkloadResult, RUN_SCHEMA};
use stats::Verdict;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;
use workloads::WORKLOADS;

#[global_allocator]
static ALLOC: counters::CountingAlloc = counters::CountingAlloc;

const USAGE: &str = "usage:
  ttg-benchmark run   --seed N [--out DIR] [--seconds S] [--quick]
  ttg-benchmark trace --seed N [--out DIR] [--quick]
  ttg-benchmark compare A B
  ttg-benchmark selfcheck [--runs N] [--seconds S] [--seed N] [--out DIR]
  ttg-benchmark one --workload W --seed N --seconds S --trace 0|1 [--out DIR]";

/// Seconds one workload is measured for unless `--seconds` says so;
/// `--quick` makes one repetition after the warm-up.
fn default_seconds(size: Size) -> f64 {
    match size {
        Size::Full => 10.0,
        Size::Quick => 0.0,
    }
}
/// A `one` command must end within the driver's 180 s.
const ONE_DEADLINE: Duration = Duration::from_secs(150);
/// `run` and `trace` give each workload this long.
const WORKLOAD_DEADLINE: Duration = Duration::from_secs(150);

/// `--name value` options, `--quick`, and positional arguments.
struct Args {
    options: Vec<(String, String)>,
    quick: bool,
    positional: Vec<String>,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut args = Args {
            options: Vec::new(),
            quick: false,
            positional: Vec::new(),
        };
        let mut it = argv.iter();
        while let Some(a) = it.next() {
            match a.strip_prefix("--") {
                Some("quick") => args.quick = true,
                Some(name) => {
                    let value = it.next().ok_or(format!("--{name} needs a value"))?;
                    args.options.push((name.to_string(), value.clone()));
                }
                None => args.positional.push(a.clone()),
            }
        }
        Ok(args)
    }

    fn get<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.options.iter().find(|(n, _)| n == name) {
            Some((_, v)) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("invalid value for --{name}: {v}")),
            None => Ok(None),
        }
    }

    fn require<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        self.get(name)?.ok_or(format!("--{name} is required"))
    }

    fn size(&self) -> Size {
        if self.quick {
            Size::Quick
        } else {
            Size::Full
        }
    }

    fn out_dir(&self) -> Result<PathBuf, String> {
        Ok(self
            .get::<String>("out")?
            .map_or_else(default_out_dir, PathBuf::from))
    }
}

/// Every workload end to end, one after the other.
fn run_all(seed: u64, seconds: f64, size: Size) -> RunResult {
    RunResult {
        schema: RUN_SCHEMA,
        seed,
        seconds,
        quick: size == Size::Quick,
        workloads: WORKLOADS
            .iter()
            .map(|w| {
                timed_run(
                    w.name,
                    seed,
                    seconds,
                    size,
                    Deadline::after(WORKLOAD_DEADLINE),
                )
            })
            .collect(),
    }
}

/// Every end-to-end metric of one workload by name and unit, plus the
/// name its throughput goes by in the workload's own terms.
fn print_result(r: &WorkloadResult) {
    let info = workloads::info(&r.workload);
    if let Some(info) = info {
        println!("{:<8} # {}", r.workload, info.why);
    }
    for m in &metrics::END_TO_END {
        let value = r.metric(m.name).unwrap_or(0.0);
        println!("{:<8} {:<14} {value:>16.4} {}", r.workload, m.name, m.unit);
    }
    let (alias, value, unit) = match r.workload.as_str() {
        "chain" | "stencil" => ("tasks_per_s", r.ops_per_s, "1/s"),
        "mra" => ("solve_s", r.rep_s, "s"),
        "serve" => ("graphs_per_s", r.ops_per_s, "1/s"),
        "burst" => ("msgs_per_s", r.ops_per_s, "1/s"),
        _ => (
            "mb_per_s",
            r.ops_per_s * inputs::BULK_BYTES as f64 / 1e6,
            "MB/s",
        ),
    };
    println!("{:<8} {alias:<14} {value:>16.4} {unit}", r.workload);
    println!(
        "{:<8} ops_attempted {} ops_failed {} (1 op = 1 {}, {} repetitions)",
        r.workload,
        r.ops_attempted,
        r.ops_failed,
        info.map_or("operation", |i| i.op),
        r.reps
    );
}

fn write_run(dir: &Path, name: &str, run: &RunResult) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(name);
    let text = serde_json::to_string_pretty(run).expect("a run result always serializes");
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn cmd_run(args: &Args) -> Result<ExitCode, String> {
    let seed: u64 = args.require("seed")?;
    let seconds = args.get("seconds")?.unwrap_or(default_seconds(args.size()));
    let run = run_all(seed, seconds, args.size());
    run.workloads.iter().for_each(print_result);
    write_run(&args.out_dir()?, &format!("run-seed{seed}.json"), &run)?;
    let failed: Vec<&str> = run
        .workloads
        .iter()
        .filter(|w| w.ops_failed > 0)
        .map(|w| w.workload.as_str())
        .collect();
    if failed.is_empty() {
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!("failed checks: {}", failed.join(", "));
        Ok(ExitCode::FAILURE)
    }
}

fn cmd_trace(args: &Args) -> Result<ExitCode, String> {
    let seed: u64 = args.require("seed")?;
    let out = args.out_dir()?;
    let pass = ladder::run_traced_pass(seed, args.size(), &out, Deadline::after(WORKLOAD_DEADLINE));
    let (values, measured) = ladder::layer_values(&pass);
    print!("{}", ladder::render(&values, &measured));
    println!("spans written to {}", out.join("trace.json").display());
    let failed: u64 = WORKLOADS
        .iter()
        .map(|w| pass.attempted_failed(w.name).1)
        .sum();
    pass.failures.iter().for_each(|f| eprintln!("FAILED {f}"));
    Ok(if failed == 0 && pass.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_one(args: &Args) -> Result<ExitCode, String> {
    let workload: String = args.require("workload")?;
    if workloads::info(&workload).is_none() {
        return Err(format!("unknown workload '{workload}'"));
    }
    let seed: u64 = args.require("seed")?;
    let seconds: f64 = args.require("seconds")?;
    let deadline = Deadline::after(ONE_DEADLINE);
    match args.require::<u8>("trace")? {
        0 => {
            let r = timed_run(&workload, seed, seconds, args.size(), deadline);
            print_result(&r);
            println!("{}", schema::end_to_end_line(&r));
        }
        1 => {
            let pass = ladder::run_traced_pass(seed, args.size(), &args.out_dir()?, deadline);
            let (values, measured) = ladder::layer_values(&pass);
            eprint!("{}", ladder::render(&values, &measured));
            pass.failures.iter().for_each(|f| eprintln!("FAILED {f}"));
            let (list, missing) = ladder::driver_metrics(&values);
            let (attempted, failed) = pass.attempted_failed(&workload);
            // A layer metric that could not be taken is a failed run
            // even if this workload's own operations all succeeded.
            let failed = if missing.is_empty() {
                failed
            } else {
                failed.max(1)
            };
            println!("{}", schema::driver_line(attempted, failed, &list));
        }
        other => return Err(format!("--trace is 0 or 1, not {other}")),
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_compare(args: &Args) -> Result<ExitCode, String> {
    let [a, b] = args.positional.as_slice() else {
        return Err("compare takes two result directories".into());
    };
    let rows = compare::compare(
        &compare::load_set(Path::new(a))?,
        &compare::load_set(Path::new(b))?,
    );
    print!("{}", compare::render(&rows));
    Ok(ExitCode::SUCCESS)
}

fn cmd_selfcheck(args: &Args) -> Result<ExitCode, String> {
    let runs: u64 = args.get("runs")?.unwrap_or(5);
    let seconds = args.get("seconds")?.unwrap_or(default_seconds(args.size()));
    let first_seed: u64 = args.get("seed")?.unwrap_or(1);
    let out = args.out_dir()?;
    let mut sets = Vec::new();
    for set in ["selfcheck-a", "selfcheck-b"] {
        let dir = out.join(set);
        let mut results = Vec::new();
        for seed in first_seed..first_seed + runs {
            eprintln!("{set}: run with seed {seed}");
            let run = run_all(seed, seconds, args.size());
            write_run(&dir, &format!("run-seed{seed}.json"), &run)?;
            results.push(run);
        }
        sets.push(results);
    }
    let rows = compare::compare(&sets[0], &sets[1]);
    print!("{}", compare::render(&rows));
    Ok(if rows.iter().all(|r| r.verdict == Verdict::Unchanged) {
        ExitCode::SUCCESS
    } else {
        eprintln!("selfcheck: two sets of runs of the same build do not agree");
        ExitCode::FAILURE
    })
}

fn cmd_child(args: &Args) -> Result<ExitCode, String> {
    let mode: String = args.require("mode")?;
    let mode = Mode::parse(&mode).ok_or(format!("unknown child mode '{mode}'"))?;
    let report = child::run(&ChildArgs {
        mode,
        workload: args.require("workload")?,
        seed: args.require("seed")?,
        seconds: args.require("seconds")?,
        size: args.size(),
        spawned_unix_ns: args.require("spawned-unix-ns")?,
        trace_out: args.get::<String>("trace-out")?.map(PathBuf::from),
    })?;
    println!(
        "{}",
        serde_json::to_string(&report).expect("a report always serializes")
    );
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let result = Args::parse(rest).and_then(|args| match command.as_str() {
        "run" => cmd_run(&args),
        "trace" => cmd_trace(&args),
        "one" => cmd_one(&args),
        "compare" => cmd_compare(&args),
        "selfcheck" => cmd_selfcheck(&args),
        "child" => cmd_child(&args),
        other => Err(format!("unknown command '{other}'")),
    });
    result.unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        ExitCode::from(2)
    })
}
