//! Distributed execution: one workload function, one protocol stack,
//! two transports under it:
//!
//! * **Simulated** (default): a [`NetGroup::local`] of four ranks in
//!   this process; serialized active messages and the 4-counter wave's
//!   control frames are handed over in memory.
//! * **Real** (`--tcp`): each rank is a genuine OS process and the same
//!   frames travel over a TCP mesh (`ttg-net`), gated by the same fence
//!   protocol. Every rank runs the function the simulated mode runs on
//!   all of them, so the results are identical by construction.
//!
//! The workload is a token ring (two laps) plus a scatter/compute/
//! gather of sums of squares.
//!
//! ```text
//! cargo run --release -p ttg-examples --bin distributed
//! cargo run --release -p ttg-examples --bin distributed -- --tcp --ranks 4
//! cargo run --release -p ttg-examples --bin distributed -- --tcp --ranks 3 \
//!     --trace trace.json --metrics metrics.prom --stats-json stats.json
//! ```
//!
//! Observability flags (both modes):
//!
//! * `--stats-json <path>` — per-rank [`ttg_runtime::RuntimeStats`] as a
//!   JSON array.
//! * `--trace <path>` — merged Chrome/Perfetto trace: one `pid` per
//!   rank on a shared wall-clock-aligned timeline; in TCP mode frame
//!   sends/receives are linked by flow arrows across ranks.
//! * `--metrics <path>` — merged Prometheus text exposition (enables
//!   latency histograms).
//! * `--analyze` — run the critical-path analysis over the merged trace
//!   and print the report (longest dependency chain vs wall time, top
//!   tasks on the path, per-worker utilization). Implies tracing; can
//!   be combined with `--trace` to keep the trace file too.
//! * `--flame <path>` — write folded flamegraph stacks
//!   (`rank;worker;task weight_us`) collapsed from the merged trace,
//!   ready for `inferno-flamegraph` / `flamegraph.pl`. Implies tracing.
//!
//! Live telemetry (TCP mode): `--serve` gives every rank an HTTP
//! introspection endpoint on `TTG_OBS_HTTP_PORT + rank` (default base
//! 9100) with `/metrics`, `/metrics.json`, `/timeseries.json`,
//! `/trace` and `/healthz` (200 healthy, 503 after a typed failure).
//! `--serve-linger-ms N` (or `TTG_OBS_SERVE_LINGER_MS`) holds the
//! endpoint up for N ms after the workload — including on the typed
//! failure path — so scrapers observe the final state. Setting
//! `TTG_OBS_FLIGHT_DIR` arms the crash flight recorder on every rank:
//! a typed run error or panic dumps the recent trace window, the
//! sampled time series, and the final stats to
//! `ttg-flight-<rank>-<ms>.json` before the process exits; feed the
//! dump to `ttg-bench analyze` / `ttg-bench flame`.
//!
//! `--tcp` re-executes this binary once per rank (environment variables
//! `TTG_NET_RANK` / `TTG_NET_RANKS` / `TTG_NET_PORT` select the child
//! role) and waits for all ranks to exit successfully. Each child then
//! writes `<path>.rank<N>` partial outputs which the parent merges.
//!
//! Fault injection (TCP mode): `--fault-plan "<rules>"` executes a
//! deterministic `ttg_net::FaultPlan` on every rank's outgoing frames
//! (relayed to the children via `TTG_NET_FAULT_PLAN`), e.g.
//!
//! ```text
//! cargo run --release -p ttg-examples --bin distributed -- \
//!     --tcp --ranks 3 --fault-plan "1:sever@6->0"
//! ```
//!
//! A rank whose epoch ends in a typed error (a severed or dead peer, an
//! aborted wave) prints the diagnostic and exits with code 3; the
//! parent then exits 3 as well (or 1 if any rank panicked) — so CI can
//! assert *typed* failure, never a hang, never a panic.
//!
//! Recovery drills (TCP mode): `--drill bounce` and `--drill restart`
//! replace the workload with an elastic-recovery exercise. Rank 0 runs
//! a [`ttg_serve::ServeEngine`] on its resident runtime and streams
//! slow instances while chattering sequenced messages at every peer;
//! the highest rank severs all of its sockets mid-stream (`bounce`) or
//! kills itself with exit code 137 and is respawned by the parent as a
//! fresh incarnation (`restart`). The drill passes only if every rank
//! exits 0 with **zero client-visible instance failures**, at least one
//! session rejoin, and (bounce) at least one replayed frame or
//! (restart) at least one automatic instance re-execution:
//!
//! ```text
//! cargo run --release -p ttg-examples --bin distributed -- \
//!     --tcp --ranks 3 --drill restart --metrics drill.prom
//! ```

use serde_json::Value;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;
use ttg_net::{
    FaultPlan, FaultyTransport, NetConfig, NetGroup, NetRuntime, TcpTransport, Transport,
};
use ttg_runtime::{LiveConfig, LiveTelemetry, Runtime, RuntimeConfig};
use ttg_serve::{InstanceStatus, ServeConfig, ServeEngine};

const DEFAULT_RANKS: usize = 4;
const ITEMS: usize = 64;
const DEFAULT_PORT: u16 = 43117;
const DEFAULT_OBS_PORT: u16 = 9100;

/// Where to write the optional observability outputs.
#[derive(Clone, Default)]
struct ObsArgs {
    stats_json: Option<String>,
    trace: Option<String>,
    metrics: Option<String>,
    /// Run the critical-path analysis on the merged trace and print
    /// the report (`--analyze`; implies tracing).
    analyze: bool,
    /// Write folded flamegraph stacks collapsed from the merged trace
    /// (`--flame`; implies tracing).
    flame: Option<String>,
    /// Per-rank live HTTP introspection endpoint (`--serve`; enables
    /// tracing and histograms so every route has content).
    serve: bool,
    /// The trace path exists only to feed `--analyze`/`--flame` (no
    /// `--trace` given): don't announce a trace file, remove it
    /// afterwards.
    trace_temp: bool,
}

impl ObsArgs {
    /// Child-role arguments, relayed through the environment by the
    /// `--tcp` parent (paths already rank-qualified). Analysis always
    /// happens in the parent, over the merged trace.
    fn from_env() -> ObsArgs {
        ObsArgs {
            stats_json: std::env::var("TTG_NET_STATS_OUT").ok(),
            trace: std::env::var("TTG_NET_TRACE_OUT").ok(),
            metrics: std::env::var("TTG_NET_METRICS_OUT").ok(),
            analyze: false,
            flame: None,
            serve: std::env::var("TTG_OBS_SERVE").is_ok(),
            trace_temp: false,
        }
    }

    /// Applies the flags to a runtime configuration: events for the
    /// trace (or the analysis / flamegraph / live `/trace` endpoint
    /// built on it), histograms for the metrics percentiles (also
    /// sampled into the live time series).
    fn configure(&self, mut config: RuntimeConfig) -> RuntimeConfig {
        config.trace = self.trace.is_some() || self.analyze || self.flame.is_some() || self.serve;
        config.histograms = self.metrics.is_some() || self.serve;
        config
    }

    /// The user-visible trace path, if any.
    fn user_trace_path(&self) -> Option<&String> {
        if self.trace_temp {
            None
        } else {
            self.trace.as_ref()
        }
    }

    /// Runs the critical-path analysis over the merged trace when
    /// `--analyze` was given.
    fn maybe_analyze(&self, merged_trace: &str) {
        if !self.analyze {
            return;
        }
        match ttg_runtime::obs::analyze_chrome_trace(merged_trace) {
            Ok(report) => print!("\n{}", report.render(10)),
            Err(e) => {
                eprintln!("--analyze failed: {e}");
                std::process::exit(2);
            }
        }
    }

    /// Collapses the merged trace into folded flamegraph stacks when
    /// `--flame` was given.
    fn maybe_flame(&self, merged_trace: &str) {
        let Some(path) = &self.flame else { return };
        match ttg_runtime::obs::collapse_chrome_trace(merged_trace) {
            Ok(folded) => write_file(path, &folded, "folded flamegraph stacks"),
            Err(e) => {
                eprintln!("--flame failed: {e}");
                std::process::exit(2);
            }
        }
    }
}

/// `TTG_OBS_SERVE_LINGER_MS`: how long to hold the live endpoint up
/// after the workload (success *and* typed-failure paths) so scrapers
/// observe the final verdict.
fn serve_linger_ms() -> u64 {
    std::env::var("TTG_OBS_SERVE_LINGER_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

fn main() {
    // Child role: selected via environment by the `--tcp` parent.
    if let Ok(rank) = std::env::var("TTG_NET_RANK") {
        let rank: usize = rank.parse().expect("TTG_NET_RANK");
        let nranks: usize = std::env::var("TTG_NET_RANKS")
            .expect("TTG_NET_RANKS")
            .parse()
            .expect("TTG_NET_RANKS");
        let port: u16 = std::env::var("TTG_NET_PORT")
            .expect("TTG_NET_PORT")
            .parse()
            .expect("TTG_NET_PORT");
        run_tcp_rank(rank, nranks, port, &ObsArgs::from_env());
        return;
    }

    let args: Vec<String> = std::env::args().collect();
    let mut tcp = false;
    let mut ranks = DEFAULT_RANKS;
    let mut port = DEFAULT_PORT;
    let mut obs = ObsArgs::default();
    let mut fault_plan: Option<String> = None;
    let mut drill: Option<String> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--tcp" => tcp = true,
            "--ranks" => {
                i += 1;
                ranks = args[i].parse().expect("--ranks N");
            }
            "--port-base" => {
                i += 1;
                port = args[i].parse().expect("--port-base P");
            }
            "--stats-json" => {
                i += 1;
                obs.stats_json = Some(args[i].clone());
            }
            "--trace" => {
                i += 1;
                obs.trace = Some(args[i].clone());
            }
            "--metrics" => {
                i += 1;
                obs.metrics = Some(args[i].clone());
            }
            "--fault-plan" => {
                i += 1;
                fault_plan = Some(args[i].clone());
            }
            "--drill" => {
                i += 1;
                drill = Some(args[i].clone());
            }
            "--analyze" => obs.analyze = true,
            "--flame" => {
                i += 1;
                obs.flame = Some(args[i].clone());
            }
            "--serve" => obs.serve = true,
            "--serve-linger-ms" => {
                i += 1;
                let ms: u64 = args[i].parse().expect("--serve-linger-ms N");
                std::env::set_var("TTG_OBS_SERVE_LINGER_MS", ms.to_string());
            }
            other => panic!("unknown argument {other}"),
        }
        i += 1;
    }

    if obs.serve && !tcp {
        eprintln!("--serve requires --tcp (each rank serves its own endpoint)");
        std::process::exit(2);
    }

    if (obs.analyze || obs.flame.is_some()) && obs.trace.is_none() {
        // Analysis needs a trace; stage it in a scratch file the TCP
        // children can write partials against, removed afterwards.
        let scratch = std::env::temp_dir().join(format!(
            "ttg-distributed-analyze-{}.json",
            std::process::id()
        ));
        obs.trace = Some(scratch.to_string_lossy().into_owned());
        obs.trace_temp = true;
    }

    if let Some(mode) = &drill {
        if !matches!(mode.as_str(), "bounce" | "restart") {
            eprintln!("--drill takes 'bounce' or 'restart', got {mode:?}");
            std::process::exit(2);
        }
        if !tcp || ranks < 2 {
            eprintln!("--drill requires --tcp with at least 2 ranks");
            std::process::exit(2);
        }
    }

    if let Some(spec) = &fault_plan {
        // Validate up front so a typo fails the parent with a parse
        // diagnostic instead of three children dying obscurely.
        if let Err(e) = FaultPlan::parse(spec) {
            eprintln!("--fault-plan: {e}");
            std::process::exit(2);
        }
        if !tcp {
            eprintln!("--fault-plan requires --tcp (faults are injected on the wire)");
            std::process::exit(2);
        }
    }

    if tcp {
        spawn_tcp_job(ranks, port, &obs, fault_plan.as_deref(), drill.as_deref());
    } else {
        run_simulated(ranks, &obs);
    }
}

// ---- observability export helpers --------------------------------------

/// Merges per-rank Prometheus text expositions into one: every
/// `# HELP`/`# TYPE` header pair appears once, followed by that
/// family's samples from all ranks (distinguished by their `rank`
/// label).
fn merge_prometheus(parts: &[String]) -> String {
    let sample_name =
        |line: &str| -> String { line.split(['{', ' ']).next().unwrap_or("").to_string() };
    // (name, header lines in encounter order — HELP before TYPE, as
    // the per-rank exporter emits them).
    let mut families: Vec<(String, Vec<String>)> = Vec::new();
    for part in parts {
        for line in part.lines() {
            let rest = match line.strip_prefix("# HELP ") {
                Some(rest) => rest,
                None => match line.strip_prefix("# TYPE ") {
                    Some(rest) => rest,
                    None => continue,
                },
            };
            let name = rest.split_whitespace().next().unwrap_or("").to_string();
            let entry = match families.iter_mut().find(|(n, _)| *n == name) {
                Some((_, lines)) => lines,
                None => {
                    families.push((name, Vec::new()));
                    &mut families.last_mut().unwrap().1
                }
            };
            if !entry.iter().any(|l| l == line) {
                entry.push(line.to_string());
            }
        }
    }
    let mut out = String::new();
    for (family, header_lines) in &families {
        for line in header_lines {
            out.push_str(line);
            out.push('\n');
        }
        for part in parts {
            for line in part.lines().filter(|l| !l.starts_with('#')) {
                let name = sample_name(line);
                let belongs = name == *family
                    || (name.strip_prefix(family.as_str()))
                        .is_some_and(|s| matches!(s, "_bucket" | "_sum" | "_count"));
                if belongs {
                    out.push_str(line);
                    out.push('\n');
                }
            }
        }
    }
    out
}

fn write_file(path: &str, contents: &str, what: &str) {
    std::fs::write(path, contents).unwrap_or_else(|e| panic!("write {what} to {path}: {e}"));
    println!("wrote {what} to {path}");
}

// ---- the workload (used by both modes) ---------------------------------

/// Expected hop count for the token ring: two laps plus the seed visit.
fn ring_expected(ranks: usize) -> usize {
    2 * ranks + 1
}

/// Expected scatter/gather result: sum of squares of 0..ITEMS.
fn gather_expected() -> u64 {
    (0..ITEMS as u64).map(|i| i * i).sum()
}

/// The token ring and the scatter/compute/gather, on the ranks this
/// process hosts — all `nranks` of a local group, or the one rank of a
/// `--tcp` child. `fence(phase)` closes a phase: one fenced epoch of the
/// whole job. Rank 0 seeds each phase and prints its result.
fn run_workload(hosted: &[&Runtime], nranks: usize, fence: &dyn Fn(&str)) {
    const RING: u32 = 0;
    const SCATTER: u32 = 1;
    const GATHER: u32 = 2;
    let ring_done = Arc::new(AtomicUsize::new(0));
    let gathered = Arc::new(AtomicU64::new(0));
    let received = Arc::new(AtomicUsize::new(0));
    // SPMD handler registration: identical order on every rank.
    for rt in hosted {
        // Ring hop: payload = [remaining u64][visited u64].
        let rd = Arc::clone(&ring_done);
        let h_ring = rt.register_handler(move |ctx, payload| {
            let remaining = u64::from_le_bytes(payload[..8].try_into().unwrap());
            let visited = u64::from_le_bytes(payload[8..16].try_into().unwrap()) + 1;
            if remaining > 0 {
                let next = (ctx.rank() + 1) % nranks;
                let mut p = (remaining - 1).to_le_bytes().to_vec();
                p.extend_from_slice(&visited.to_le_bytes());
                ctx.send_msg(next, 0, RING, p);
            } else {
                // The ring length is a multiple of nranks: the token ends
                // where it started, on rank 0.
                rd.store(visited as usize, Ordering::Relaxed);
            }
        });
        // Scatter: payload = [item u64]; square it in a local task and
        // send the result home.
        let h_scatter = rt.register_handler(move |ctx, payload| {
            let item = u64::from_le_bytes(payload[..8].try_into().unwrap());
            ctx.spawn(1, move |ctx| {
                let result = item * item;
                ctx.send_msg(0, 0, GATHER, result.to_le_bytes().to_vec());
            });
        });
        // Gather (runs on rank 0): accumulate results.
        let (g, r) = (Arc::clone(&gathered), Arc::clone(&received));
        let h_gather = rt.register_handler(move |_ctx, payload| {
            g.fetch_add(
                u64::from_le_bytes(payload[..8].try_into().unwrap()),
                Ordering::Relaxed,
            );
            r.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!((h_ring, h_scatter, h_gather), (RING, SCATTER, GATHER));
    }
    let rank0 = hosted.iter().find(|rt| rt.rank() == 0);

    // ---- Phase 0: registration barrier ---------------------------------
    // An empty fenced epoch: it terminates only once every rank has
    // fenced, i.e. passed the handler registrations above. Without it a
    // fast rank 0 can land the ring token on a peer process that has not
    // registered handler 0 yet — the message is dropped-but-counted (by
    // design, so the wave stays balanced), the phase terminates
    // "cleanly" with zero ring progress, and the workload assert below
    // panics instead of the run failing typed.
    fence("registration barrier");

    // ---- Phase 1: token ring (seeded by rank 0) ------------------------
    if let Some(rt) = rank0 {
        let mut p = (2 * nranks as u64).to_le_bytes().to_vec();
        p.extend_from_slice(&0u64.to_le_bytes());
        rt.send_msg(0, 0, RING, p); // local delivery seeds the ring
    }
    fence("token ring");
    if rank0.is_some() {
        let hops = ring_done.load(Ordering::Relaxed);
        println!("ring: token visited {hops} ranks (2 laps + seed)");
        assert_eq!(hops, ring_expected(nranks));
    }

    // ---- Phase 2: scatter / compute / gather ---------------------------
    if let Some(rt) = rank0 {
        for item in 0..ITEMS as u64 {
            let dst = (item as usize) % nranks;
            rt.send_msg(dst, 0, SCATTER, item.to_le_bytes().to_vec());
        }
    }
    fence("scatter/gather");
    if rank0.is_some() {
        println!(
            "scatter/gather: {} results, sum of squares = {} (expected {})",
            received.load(Ordering::Relaxed),
            gathered.load(Ordering::Relaxed),
            gather_expected()
        );
        assert_eq!(received.load(Ordering::Relaxed), ITEMS);
        assert_eq!(gathered.load(Ordering::Relaxed), gather_expected());
    }
}

// ---- simulated mode (every rank in this process) ------------------------

fn run_simulated(ranks: usize, obs: &ObsArgs) {
    let group = NetGroup::local(ranks, |_rank| obs.configure(RuntimeConfig::optimized(2)));
    println!("process group: {ranks} ranks x 2 workers each (simulated)");
    let hosted: Vec<&Runtime> = (0..ranks).map(|r| group.runtime(r)).collect();
    run_workload(&hosted, ranks, &|phase| {
        if let Err(e) = group.try_wait() {
            eprintln!("{phase} failed: {e}");
            std::process::exit(3);
        }
    });

    for rank in 0..ranks {
        let s = group.runtime(rank).stats();
        println!(
            "  rank {rank}: {} tasks executed, {} wave contributions, {} msgs sent",
            s.tasks_executed, s.wave_contributions, s.messages_sent
        );
    }

    // ---- optional observability exports -------------------------------
    if let Some(path) = &obs.stats_json {
        let all: Vec<ttg_runtime::RuntimeStats> =
            (0..ranks).map(|r| group.runtime(r).stats()).collect();
        let json = serde_json::to_string_pretty(&all).expect("stats serialization");
        write_file(path, &json, "stats JSON");
    }
    if obs.trace.is_some() {
        // All ranks share this process's clock and one timeline origin.
        let merged = group.chrome_trace().expect("tracing enabled");
        if let Some(path) = obs.user_trace_path() {
            write_file(path, &merged, "Chrome trace");
        }
        obs.maybe_analyze(&merged);
        obs.maybe_flame(&merged);
    }
    if let Some(path) = &obs.metrics {
        let parts: Vec<String> = (0..ranks)
            .map(|r| group.runtime(r).metrics().to_prometheus("ttg"))
            .collect();
        write_file(path, &merge_prometheus(&parts), "Prometheus metrics");
    }
    println!("global termination detected twice by the 4-counter wave — done.");
}

// ---- TCP mode (one OS process per rank, framed messages) ---------------

/// Parent: re-execute this binary once per rank, await the job, then
/// merge the per-rank observability partials into the requested files.
///
/// Exit codes: 0 all ranks clean; 1 a rank panicked (which the
/// resilience layer promises never happens on network faults); 3 a
/// rank reported a typed failure (or was fault-killed).
///
/// In the `restart` drill the highest rank kills itself with exit code
/// 137 mid-stream; the parent respawns it once (marked as a respawn so
/// it does not re-arm its own kill) and the job must still end with
/// every rank — including the fresh incarnation — exiting 0.
fn spawn_tcp_job(
    ranks: usize,
    port: u16,
    obs: &ObsArgs,
    fault_plan: Option<&str>,
    drill: Option<&str>,
) {
    let exe = std::env::current_exe().expect("current_exe");
    println!("tcp job: spawning {ranks} rank processes on 127.0.0.1:{port}+");
    // One wall-clock trace epoch for the whole job: every rank shifts
    // its monotonic timestamps onto this shared origin, so the merged
    // trace lines the processes up on one timeline.
    let trace_epoch_ns = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let rank_path = |base: &str, rank: usize| format!("{base}.rank{rank}");
    let spawn_rank = |rank: usize, respawned: bool| -> std::process::Child {
        let mut cmd = std::process::Command::new(&exe);
        cmd.env("TTG_NET_RANK", rank.to_string())
            .env("TTG_NET_RANKS", ranks.to_string())
            .env("TTG_NET_PORT", port.to_string());
        if let Some(plan) = fault_plan {
            cmd.env("TTG_NET_FAULT_PLAN", plan);
        }
        if let Some(mode) = drill {
            cmd.env("TTG_NET_DRILL", mode);
        }
        if respawned {
            cmd.env("TTG_NET_DRILL_RESPAWNED", "1");
        }
        if obs.serve {
            // Each child computes its own port as base + rank.
            cmd.env("TTG_OBS_SERVE", "1");
            let base = std::env::var("TTG_OBS_HTTP_PORT")
                .ok()
                .and_then(|p| p.parse::<u16>().ok())
                .unwrap_or(DEFAULT_OBS_PORT);
            if std::env::var("TTG_OBS_HTTP_PORT").is_err() {
                cmd.env("TTG_OBS_HTTP_PORT", base.to_string());
            }
            // Rank 0 doubles as the cluster aggregator: it scrapes every
            // rank's endpoint (itself included) and serves the merged
            // /cluster.json, /alerts.json and mesh-wide /healthz.
            if rank == 0 && std::env::var("TTG_OBS_CLUSTER").is_err() {
                let targets: Vec<String> = (0..ranks)
                    .map(|r| format!("127.0.0.1:{}", base.saturating_add(r as u16)))
                    .collect();
                cmd.env("TTG_OBS_CLUSTER", targets.join(","));
            }
        }
        if let Some(p) = &obs.trace {
            cmd.env("TTG_NET_TRACE_OUT", rank_path(p, rank))
                .env("TTG_NET_TRACE_EPOCH", trace_epoch_ns.to_string());
        }
        if let Some(p) = &obs.stats_json {
            cmd.env("TTG_NET_STATS_OUT", rank_path(p, rank));
        }
        if let Some(p) = &obs.metrics {
            cmd.env("TTG_NET_METRICS_OUT", rank_path(p, rank));
        }
        cmd.spawn().expect("spawn rank process")
    };
    let mut children: Vec<Option<std::process::Child>> = (0..ranks)
        .map(|rank| Some(spawn_rank(rank, false)))
        .collect();
    let restart_drill = drill == Some("restart");
    let bounce_rank = ranks - 1;
    let mut respawned = false;
    let mut any_failed = false;
    let mut any_panicked = false;
    loop {
        let mut live = 0;
        for (rank, slot) in children.iter_mut().enumerate() {
            let Some(child) = slot.as_mut() else {
                continue;
            };
            match child.try_wait().expect("wait for rank") {
                None => live += 1,
                Some(status) => {
                    *slot = None;
                    if restart_drill
                        && rank == bounce_rank
                        && !respawned
                        && status.code() == Some(137)
                    {
                        // The drill kill fired: bring the rank back as a
                        // fresh incarnation after a short outage.
                        println!("tcp job: rank {rank} died (137, drill kill); respawning");
                        std::thread::sleep(Duration::from_millis(300));
                        *slot = Some(spawn_rank(rank, true));
                        respawned = true;
                        live += 1;
                    } else if !status.success() {
                        eprintln!("rank {rank} exited with {status:?}");
                        any_failed = true;
                        // Exit code 101 is a Rust panic — the one
                        // outcome the resilience layer promises never
                        // happens on network faults, kept
                        // distinguishable for CI.
                        if status.code() == Some(101) {
                            any_panicked = true;
                        }
                    }
                }
            }
        }
        if live == 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    if restart_drill && !respawned {
        eprintln!("tcp job: restart drill never observed the 137 kill");
        any_failed = true;
    }
    if any_failed {
        eprintln!("tcp job: one or more ranks failed");
        std::process::exit(if any_panicked { 1 } else { 3 });
    }

    // Merge the partials the children wrote (and clean them up).
    let collect = |base: &str, what: &str| -> Vec<String> {
        (0..ranks)
            .map(|rank| {
                let p = rank_path(base, rank);
                let s = std::fs::read_to_string(&p)
                    .unwrap_or_else(|e| panic!("read {what} partial {p}: {e}"));
                let _ = std::fs::remove_file(&p);
                s
            })
            .collect()
    };
    if let Some(path) = &obs.trace {
        let parts = collect(path, "trace");
        let merged = ttg_runtime::obs::merge_chrome_traces(&parts);
        if let Some(path) = obs.user_trace_path() {
            write_file(path, &merged, "Chrome trace");
        }
        obs.maybe_analyze(&merged);
        obs.maybe_flame(&merged);
    }
    if let Some(path) = &obs.stats_json {
        let parts = collect(path, "stats");
        let values: Vec<serde_json::Value> = parts
            .iter()
            .map(|s| serde_json::from_str(s).expect("rank stats JSON"))
            .collect();
        let json = serde_json::to_string_pretty(&serde_json::Value::Array(values))
            .expect("stats serialization");
        write_file(path, &json, "stats JSON");
    }
    if let Some(path) = &obs.metrics {
        let parts = collect(path, "metrics");
        write_file(path, &merge_prometheus(&parts), "Prometheus metrics");
    }
    println!("tcp job: all {ranks} ranks completed — done.");
}

/// Child: run one rank of the distributed job over real sockets. A
/// typed failure (dead peer, aborted wave) prints its diagnostic and
/// exits 3 — never panics, never hangs.
fn run_tcp_rank(rank: usize, nranks: usize, port: u16, obs: &ObsArgs) {
    let plan = match std::env::var("TTG_NET_FAULT_PLAN") {
        Ok(spec) => FaultPlan::parse(&spec).unwrap_or_else(|e| {
            eprintln!("rank {rank}: TTG_NET_FAULT_PLAN: {e}");
            std::process::exit(2);
        }),
        Err(_) => FaultPlan::none(),
    };
    // Live telemetry: HTTP endpoint when `--serve` was relayed, crash
    // flight recorder when `TTG_OBS_FLIGHT_DIR` is set. Started
    // *before* the mesh connect (which is a job-wide barrier) so the
    // port binding cannot delay this rank's handler registration
    // relative to ranks that already started sending.
    let live_config = {
        let mut c = LiveConfig::from_env();
        if obs.serve && c.http_port.is_none() {
            c = c.with_http_port(DEFAULT_OBS_PORT);
        }
        if !obs.serve {
            c.http_port = None;
        }
        c
    };
    let live = if live_config.enabled() {
        match LiveTelemetry::start(rank, &live_config) {
            Ok(live) => {
                if let Some(port) = live.http_port() {
                    println!("rank {rank}: live telemetry on http://127.0.0.1:{port}/");
                }
                Some(live)
            }
            Err(e) => {
                eprintln!("rank {rank}: live telemetry failed to start: {e}");
                None
            }
        }
    } else {
        None
    };

    let net_cfg = NetConfig::default(); // env-driven deadlines
    let tcp_cfg = net_cfg.clone();
    let net = NetRuntime::over_transport_with(
        obs.configure(RuntimeConfig::optimized(2)),
        &net_cfg,
        rank,
        nranks,
        |sink| {
            TcpTransport::connect_mesh_cfg(rank, nranks, port, sink, tcp_cfg).map(|t| {
                let t: Arc<dyn Transport> = t;
                if plan.is_empty() {
                    t
                } else {
                    FaultyTransport::new(t, &plan) as Arc<dyn Transport>
                }
            })
        },
    )
    .unwrap_or_else(|e| {
        eprintln!("rank {rank}: connecting the TCP mesh failed: {e}");
        std::process::exit(3);
    });
    let rt = net.runtime();
    if let Some(live) = &live {
        live.observe(net.runtime_arc());
    }

    // Runs one fenced epoch; a typed failure is terminal for the rank:
    // dump the flight evidence, hold the endpoint up long enough for a
    // probe to see the 503, then exit 3.
    let run_phase = |phase: &str| {
        if let Err(e) = net.run() {
            eprintln!("rank {rank}: {phase} failed: {e}");
            if let Some(live) = &live {
                // `run()` consumed the error; re-record it so
                // `/healthz` keeps reporting 503 during the linger.
                rt.record_run_error(e.clone());
                if let Some(path) = live.dump_flight(&format!("{phase}: {e}")) {
                    eprintln!("rank {rank}: flight dump -> {}", path.display());
                }
                let linger = serve_linger_ms();
                if live.http_port().is_some() && linger > 0 {
                    std::thread::sleep(std::time::Duration::from_millis(linger));
                }
            }
            net.shutdown();
            std::process::exit(3);
        }
    };
    if rank == 0 {
        println!("tcp mesh connected: {nranks} ranks x 2 workers each");
    }

    if let Ok(mode) = std::env::var("TTG_NET_DRILL") {
        let engine = run_drill(&mode, rank, nranks, &net, &run_phase);
        finish_tcp_rank(rank, &net, engine.as_ref(), obs, live);
        return;
    }

    run_workload(&[rt], nranks, &run_phase);

    finish_tcp_rank(rank, &net, None, obs, live);
    if rank == 0 {
        println!("global termination detected twice by the 4-counter wave over TCP — done.");
    }
}

/// The drill's serving workload: each instance sleeps `ms` (default
/// 120) in a task and emits one result — long enough that the bounce
/// target's outage lands while instances are in flight.
fn drill_template() -> ttg_core::GraphTemplate {
    ttg_core::GraphTemplate::compile("drill", |graph, ctx| {
        let sink = ctx.sink.clone();
        let ms = ctx.input.get("ms").and_then(Value::as_u64).unwrap_or(120);
        let tt = graph.tt::<u64>("sleep").build(move |k, _in, _out| {
            std::thread::sleep(Duration::from_millis(ms));
            sink.emit(format!("slept/{k}"), Value::UInt(ms));
        });
        Box::new(move || tt.invoke(0))
    })
    .expect("valid template")
}

/// One rank of the elastic-recovery drill. Rank 0 serves a stream of
/// slow instances while chattering sequenced messages at every peer;
/// the highest rank severs its sockets (`bounce`) or kills itself for
/// the parent to respawn (`restart`) mid-stream. Rank 0 verifies the
/// recovery contract once the epoch closes: zero client-visible
/// instance failures, at least one session rejoin, and at least one
/// replayed frame (bounce) or automatic re-execution (restart).
fn run_drill(
    mode: &str,
    rank: usize,
    nranks: usize,
    net: &NetRuntime,
    run_phase: &impl Fn(&str),
) -> Option<Arc<ServeEngine>> {
    const TICKS: u64 = 200;
    const TICK_MS: u64 = 10;
    let rt = net.runtime();
    let bounce_rank = nranks - 1;
    let respawned = std::env::var("TTG_NET_DRILL_RESPAWNED").is_ok();

    // Handler 0 — chatter sink. The payload doesn't matter; the traffic
    // exists so sequenced frames are in flight (and buffered) across
    // the outage, exercising resend, replay, and dedup.
    let h_chatter = rt.register_handler(|_ctx, _payload| {});
    assert_eq!(h_chatter, 0);

    if rank == bounce_rank && !respawned {
        match mode {
            "bounce" => {
                // Sever all sockets three times across the stream. Each
                // bounce is a ~150 ms *storm* — the sockets are torn
                // down every 5 ms so reconnects keep getting cut — not
                // a single drop: on loopback a lone sever heals faster
                // than the 10 ms chatter cadence and nothing would be
                // in flight to replay. The storm guarantees sends land
                // while the link is down, so they sit in the resend
                // buffer and the final rejoin has frames to replay.
                let transport = Arc::clone(net.transport());
                std::thread::spawn(move || {
                    for _ in 0..3 {
                        std::thread::sleep(Duration::from_millis(400));
                        for _ in 0..75 {
                            transport.drop_connections();
                            std::thread::sleep(Duration::from_millis(2));
                        }
                    }
                });
            }
            "restart" => {
                // Die abruptly mid-stream — no Goodbye, no unwinding —
                // and rely on the parent to respawn a fresh incarnation.
                std::thread::spawn(|| {
                    std::thread::sleep(Duration::from_millis(500));
                    std::process::exit(137);
                });
            }
            other => {
                eprintln!("rank {rank}: unknown drill mode {other:?}");
                std::process::exit(2);
            }
        }
        println!("rank {rank}: drill armed ({mode})");
    }

    let engine = (rank == 0).then(|| {
        let engine = Arc::new(ServeEngine::new(net.runtime_arc(), ServeConfig::default()));
        engine.register_template(drill_template());
        engine
    });

    let mut unrecovered = 0usize;
    if let Some(engine) = &engine {
        let mut ids = Vec::new();
        for tick in 0..TICKS {
            // A burst of four frames per peer per tick: only the bounce
            // rank's links are ever severed, so the denser the traffic
            // on them, the more frames straddle an outage and exercise
            // the resend buffer.
            for burst in 0..4u64 {
                for peer in 1..nranks {
                    rt.send_msg(
                        peer,
                        0,
                        h_chatter,
                        ((tick << 8) | burst).to_le_bytes().to_vec(),
                    );
                }
            }
            if tick % 10 == 0 {
                let input = Value::Object(vec![("ms".to_string(), Value::UInt(120))]);
                let id = engine
                    .submit("drill", "drill", input)
                    .expect("drill submission admitted");
                ids.push(id);
            }
            std::thread::sleep(Duration::from_millis(TICK_MS));
        }
        // Every submitted instance must come back Completed — retries
        // after a peer loss are the engine's job, not the client's.
        for id in &ids {
            match engine.wait_result(*id, Duration::from_secs(30)) {
                Ok(view) if view.status == InstanceStatus::Completed => {}
                Ok(view) => {
                    unrecovered += 1;
                    eprintln!("drill: instance {id} ended {:?}", view.status);
                }
                Err(e) => {
                    unrecovered += 1;
                    eprintln!("drill: instance {id}: {e}");
                }
            }
        }
    }

    run_phase("recovery drill");

    if let Some(engine) = &engine {
        let s = rt.stats();
        let tenant = engine.tenant_counters("drill").expect("drill tenant");
        println!(
            "drill({mode}): {} completed, {} failed, {} retried; rejoins={} \
             frames_replayed={} frames_deduped={} instances_retried={}",
            tenant.completed,
            tenant.failed,
            tenant.retried,
            s.rejoins,
            s.frames_replayed,
            s.frames_deduped,
            s.instances_retried,
        );
        assert_eq!(unrecovered, 0, "client-visible instance failures");
        assert_eq!(tenant.failed, 0, "tenant-visible instance failures");
        assert!(s.rejoins >= 1, "no session rejoin observed");
        match mode {
            "bounce" => assert!(
                s.frames_replayed >= 1,
                "no frames replayed across the bounce"
            ),
            "restart" => assert!(
                tenant.retried >= 1,
                "no automatic re-execution after the restart"
            ),
            _ => {}
        }
        println!("drill({mode}): recovery contract held — done.");
    }
    engine
}

/// Common tail of a TCP rank: stats line, per-rank observability
/// partials (the parent merges them), the serve-linger window, and the
/// transport teardown. A drill rank passes its [`ServeEngine`] so the
/// metrics partial carries the per-tenant serving counters
/// (`ttg_serve_retried` above all) alongside the runtime's.
fn finish_tcp_rank(
    rank: usize,
    net: &NetRuntime,
    engine: Option<&Arc<ServeEngine>>,
    obs: &ObsArgs,
    live: Option<LiveTelemetry>,
) {
    let rt = net.runtime();
    let s = rt.stats();
    println!(
        "  rank {rank}: {} tasks executed, {} wave contributions, {} msgs sent, {} msgs recv, {} payload bytes on wire",
        s.tasks_executed, s.wave_contributions, s.messages_sent, s.messages_received, s.bytes_on_wire
    );

    if let Some(path) = &obs.trace {
        let epoch: u64 = std::env::var("TTG_NET_TRACE_EPOCH")
            .expect("TTG_NET_TRACE_EPOCH")
            .parse()
            .expect("TTG_NET_TRACE_EPOCH");
        let json = rt
            .chrome_trace_with_base(epoch)
            .expect("tracing enabled for this rank");
        std::fs::write(path, json).expect("write trace partial");
    }
    if let Some(path) = &obs.stats_json {
        let json = serde_json::to_string_pretty(&s).expect("stats serialization");
        std::fs::write(path, json).expect("write stats partial");
    }
    if let Some(path) = &obs.metrics {
        let mut snap = rt.metrics();
        if let Some(engine) = engine {
            engine.metrics_into(&mut snap);
        }
        std::fs::write(path, snap.to_prometheus("ttg")).expect("write metrics partial");
    }
    // Success path: hold the endpoint up through the linger window so a
    // scraper can still read the final healthy state and time series.
    if let Some(live) = &live {
        live.sample_now();
        let linger = serve_linger_ms();
        if live.http_port().is_some() && linger > 0 {
            std::thread::sleep(Duration::from_millis(linger));
        }
    }
    drop(live);
    net.shutdown();
}
