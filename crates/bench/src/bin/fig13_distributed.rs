//! **Figure 13** — distributed execution over `ttg-net`: per-message
//! active-message latency and task throughput as the rank count grows.
//!
//! Two transports are measured back to back with the *same* protocol
//! stack (framed messages, fenced 4-counter wave termination):
//!
//! * **in-process** — [`LocalTransport`]-backed [`NetGroup`]: frames are
//!   handed over synchronously, isolating protocol overhead.
//! * **TCP loopback** — every rank a real socket endpoint on
//!   `127.0.0.1` (all ranks in this process, one mesh per measurement),
//!   adding kernel round trips and the frame codec to the same path the
//!   multi-process `distributed --tcp` example takes.
//!
//! Expected shape: in-process latency is a small constant (scheduler
//! hop + inbox wake); TCP adds ~10–40 µs of loopback syscall cost per
//! message and grows with payload size once frames span socket buffers.
//! Throughput scales with ranks until the single seeding rank becomes
//! the bottleneck — the paper's motivation for owner-computes task
//! placement rather than centralized dispatch.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use ttg_bench::{Args, Report, Series};
use ttg_net::tcp::ephemeral_listeners;
use ttg_net::{NetGroup, NetRuntime, TcpTransport, Transport};
use ttg_runtime::{Runtime, RuntimeConfig};

const USAGE: &str = "fig13_distributed [--pingpongs 2000] [--tasks 20000] [--max-ranks 4] \
                     [--json] [--bench-json PATH] [--attribute]";

/// A set of ranks living in this process, whatever the transport.
trait Job {
    fn nranks(&self) -> usize;
    fn runtime(&self, rank: usize) -> &Runtime;
    /// Fences every rank, then waits every rank (the required order when
    /// all ranks share one address space).
    fn wait_all(&self);
    fn shutdown(&self);
    /// Aggregate (messages_sent, bytes_on_wire) across ranks.
    fn comm_totals(&self) -> (u64, u64) {
        (0..self.nranks())
            .map(|r| self.runtime(r).stats())
            .fold((0, 0), |a, s| {
                (a.0 + s.messages_sent, a.1 + s.bytes_on_wire)
            })
    }
}

impl Job for NetGroup {
    fn nranks(&self) -> usize {
        NetGroup::nranks(self)
    }
    fn runtime(&self, rank: usize) -> &Runtime {
        NetGroup::runtime(self, rank)
    }
    fn wait_all(&self) {
        self.wait();
    }
    fn shutdown(&self) {
        for r in 0..NetGroup::nranks(self) {
            self.member(r).shutdown();
        }
    }
}

/// All ranks of a TCP mesh hosted by this one process (loopback
/// sockets), mirroring what N separate processes would do.
struct TcpJob {
    members: Vec<NetRuntime>,
}

impl TcpJob {
    /// Connects `nranks` ranks on listeners the OS picked, so that runs
    /// never collide on a port.
    fn connect(nranks: usize) -> TcpJob {
        let (listeners, addrs) = ephemeral_listeners(nranks).expect("loopback listeners");
        let handles: Vec<_> = listeners
            .into_iter()
            .enumerate()
            .map(|(rank, listener)| {
                let addrs = addrs.clone();
                std::thread::spawn(move || {
                    NetRuntime::over_transport(RuntimeConfig::optimized(1), rank, nranks, |sink| {
                        TcpTransport::with_listener(rank, listener, &addrs, sink)
                            .map(|t| t as Arc<dyn Transport>)
                    })
                    .expect("loopback TCP mesh")
                })
            })
            .collect();
        TcpJob {
            members: handles.into_iter().map(|h| h.join().unwrap()).collect(),
        }
    }
}

impl Job for TcpJob {
    fn nranks(&self) -> usize {
        self.members.len()
    }
    fn runtime(&self, rank: usize) -> &Runtime {
        self.members[rank].runtime()
    }
    fn wait_all(&self) {
        for m in &self.members {
            m.fence();
        }
        for m in &self.members {
            m.wait();
        }
    }
    fn shutdown(&self) {
        for m in &self.members {
            m.shutdown();
        }
    }
}

/// One `--attribute` block: the TCP mesh's wire-path stage histograms
/// (merged across ranks) rendered as a per-stage µs breakdown next to
/// the measured end-to-end figure. Empty stages (a build without
/// `obs`) render a one-line note instead of a table of zeros.
fn wire_attribution(job: &TcpJob, payload_len: usize, us_per_msg: f64) -> String {
    let mut merged = ttg_obs::WireSnapshot::default();
    for m in &job.members {
        merged.merge_stages(&m.runtime().wire_snapshot());
    }
    if merged.is_empty() {
        return format!("  {payload_len}B: wire stages unavailable (build with --features obs)");
    }
    let us = |ns: u64| ns as f64 / 1_000.0;
    let mut out = format!("  {payload_len}B payload, {us_per_msg:.1} us/msg end-to-end:");
    let mut sum = 0.0;
    for (name, h) in merged.stages() {
        out.push_str(&format!(
            "\n    {:<18} p50 {:>7.1} us  p95 {:>7.1} us  ({} samples)",
            name,
            us(h.p50()),
            us(h.p95()),
            h.count()
        ));
        sum += us(h.p50());
    }
    out.push_str(&format!("\n    stage p50 sum      {sum:>7.1} us"));
    out
}

/// Collects per-rank [`RuntimeStats`](ttg_runtime::RuntimeStats) for a
/// job and attaches them to the report under `label`. Only the `--json`
/// emission carries them — the text table stays unchanged.
fn attach_stats(report: &mut Report, job: &dyn Job, label: String) {
    let stats: Vec<_> = (0..job.nranks()).map(|r| job.runtime(r).stats()).collect();
    report.attach_stats(label, &stats);
}

/// Ping-pong between ranks 0 and 1: `pingpongs` round trips carrying
/// `payload_len` bytes each way. Returns µs per one-way message.
fn pingpong(job: &dyn Job, pingpongs: u64, payload_len: usize) -> f64 {
    assert!(job.nranks() >= 2);
    let bounces = Arc::new(AtomicU64::new(0));
    for r in 0..job.nranks() {
        let bounces = Arc::clone(&bounces);
        job.runtime(r).register_handler(move |ctx, payload| {
            let n = u64::from_le_bytes(payload[..8].try_into().unwrap());
            bounces.fetch_add(1, Ordering::Relaxed);
            if n > 0 {
                let mut reply = payload;
                reply[..8].copy_from_slice(&(n - 1).to_le_bytes());
                ctx.send_msg(1 - ctx.rank(), 0, 0, reply);
            }
        });
    }
    let seed = |n: u64| {
        let mut p = vec![0u8; payload_len.max(8)];
        p[..8].copy_from_slice(&n.to_le_bytes());
        job.runtime(0).send_msg(1, 0, 0, p);
    };
    // Warm-up epoch (connection buffers, handler pools, first wave).
    seed(16);
    job.wait_all();
    let messages = 2 * pingpongs;
    let start = Instant::now();
    seed(messages);
    job.wait_all();
    let us = start.elapsed().as_micros() as f64;
    assert_eq!(bounces.load(Ordering::Relaxed), 16 + 1 + messages + 1);
    us / (messages + 1) as f64
}

/// Rank 0 scatters `tasks` handler invocations round-robin over all
/// ranks; each invocation spawns one unit of local work. Returns
/// tasks/s, plus the aggregate comm counters of the measured epoch.
fn throughput(job: &dyn Job, tasks: u64) -> (f64, u64, u64) {
    let done = Arc::new(AtomicU64::new(0));
    for r in 0..job.nranks() {
        let done = Arc::clone(&done);
        job.runtime(r).register_handler(move |ctx, payload| {
            let x = u64::from_le_bytes(payload[..8].try_into().unwrap());
            let done = Arc::clone(&done);
            ctx.spawn(0, move |_ctx| {
                done.fetch_add(std::hint::black_box(x) | 1, Ordering::Relaxed);
            });
        });
    }
    let scatter = |n: u64| {
        for i in 0..n {
            let dst = (i as usize) % job.nranks();
            job.runtime(0).send_msg(dst, 0, 0, i.to_le_bytes().to_vec());
        }
    };
    scatter(tasks / 10 + 1); // warm-up epoch
    job.wait_all();
    let (m0, b0) = job.comm_totals();
    let start = Instant::now();
    scatter(tasks);
    job.wait_all();
    let secs = start.elapsed().as_secs_f64();
    let (m1, b1) = job.comm_totals();
    (tasks as f64 / secs, m1 - m0, b1 - b0)
}

fn main() {
    let args = Args::parse(USAGE);
    let pingpongs: u64 = args.get("pingpongs", 2_000u64);
    let tasks: u64 = args.get("tasks", 20_000u64);
    let max_ranks: usize = args.get("max-ranks", 4usize);
    let json = args.has("json");
    let attribute = args.has("attribute");

    // ---- Fig 13a: per-message latency vs payload size -----------------
    let mut latency = Report::new(
        "Figure 13a: active-message latency, rank 0 <-> rank 1 ping-pong",
        "payload bytes",
        "us/message",
    );
    let mut local = Series::new("in-process transport");
    let mut tcp = Series::new("TCP loopback");
    let mut attribution_lines: Vec<String> = Vec::new();
    for payload_len in [8usize, 256, 4096, 65536] {
        let group = NetGroup::local(2, |_| RuntimeConfig::optimized(1));
        local.push(payload_len as f64, pingpong(&group, pingpongs, payload_len));
        group.shutdown();
        let job = TcpJob::connect(2);
        let us_per_msg = pingpong(&job, pingpongs, payload_len);
        tcp.push(payload_len as f64, us_per_msg);
        if attribute {
            attribution_lines.push(wire_attribution(&job, payload_len, us_per_msg));
        }
        job.shutdown();
    }
    latency.add(local);
    latency.add(tcp);
    latency.emit(json);
    if attribute {
        println!("\nwire-path attribution (TCP ping-pong, stages merged across ranks):");
        for line in &attribution_lines {
            println!("{line}");
        }
    }

    // ---- Fig 13b: task throughput vs rank count ------------------------
    let mut scaling = Report::new(
        "Figure 13b: scatter throughput vs rank count (rank 0 seeds)",
        "ranks",
        "tasks/s",
    );
    let mut local = Series::new("in-process transport");
    let mut tcp = Series::new("TCP loopback");
    let mut comm_lines: Vec<String> = Vec::new();
    let (mut last_tcp_msgs, mut last_tcp_bytes) = (0u64, 0u64);
    for ranks in 1..=max_ranks {
        let group = NetGroup::local(ranks, |_| RuntimeConfig::optimized(1));
        let (rate, msgs, bytes) = throughput(&group, tasks);
        attach_stats(&mut scaling, &group, format!("in-process, {ranks} ranks"));
        group.shutdown();
        local.push(ranks as f64, rate);
        comm_lines.push(format!(
            "  in-process, {ranks} ranks: {msgs} messages, {bytes} payload bytes on wire"
        ));
        let job = TcpJob::connect(ranks);
        let (rate, msgs, bytes) = throughput(&job, tasks);
        attach_stats(&mut scaling, &job, format!("TCP loopback, {ranks} ranks"));
        job.shutdown();
        tcp.push(ranks as f64, rate);
        (last_tcp_msgs, last_tcp_bytes) = (msgs, bytes);
        comm_lines.push(format!(
            "  TCP loopback, {ranks} ranks: {msgs} messages, {bytes} payload bytes on wire"
        ));
    }
    scaling.add(local);
    scaling.add(tcp);
    scaling.emit(json);

    let bench_json = args.get_str("bench-json", "");
    if !bench_json.is_empty() {
        let mut rec = ttg_bench::BenchRecord::new("fig13");
        // Ping-pong latency per (transport, payload) is lower-is-better
        // as measured; throughput is inverted to µs/task so the whole
        // record obeys one comparison rule.
        for s in &latency.series {
            let slug = ttg_bench::record::slug(&s.label);
            for &(x, y) in &s.points {
                rec.metric(format!("pingpong_{slug}_{}b_us", x as u64), y);
            }
        }
        for s in &scaling.series {
            let slug = ttg_bench::record::slug(&s.label);
            for &(x, y) in &s.points {
                if y > 0.0 {
                    rec.metric(
                        format!("scatter_{slug}_{}ranks_us_per_task", x as u64),
                        1e6 / y,
                    );
                }
            }
        }
        rec.counter("tcp_msgs_max_ranks", last_tcp_msgs);
        rec.counter("tcp_bytes_max_ranks", last_tcp_bytes);
        rec.attach_contention();
        rec.write(&bench_json).expect("write bench record");
        println!("bench record -> {bench_json}");
    }

    println!("\ncomm counters (measured epochs):");
    for line in comm_lines {
        println!("{line}");
    }
    println!(
        "\nshape check: TCP pays the loopback syscall per message; throughput \
         flattens as the seeding rank becomes the bottleneck."
    );
}
