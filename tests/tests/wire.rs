//! Wire-path observability over a real loopback TCP mesh: the stage
//! attribution must be physically consistent (time accounted to stages
//! can never exceed wall time), and building without `obs` must leave
//! the metrics surface exactly as it was before the feature existed
//! (the family-by-family surface check is `ttg-serve`'s
//! `optional_series_follow_the_one_switch`).
//!
//! This crate does not enable `obs` itself, so `cargo test -p
//! ttg-integration` exercises the feature-off path while a workspace
//! `cargo test` (where ttg-bench's defaults unify the feature on)
//! exercises the feature-on path. Both branches are asserted here.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use ttg_net::{NetConfig, NetRuntime};
use ttg_runtime::RuntimeConfig;

fn mesh(nranks: usize, port_base: u16) -> Vec<NetRuntime> {
    (0..nranks)
        .map(|rank| {
            std::thread::spawn(move || {
                let mut rc = RuntimeConfig::optimized(1);
                rc.histograms = true;
                let nc = NetConfig {
                    heartbeat_interval: Duration::from_millis(25),
                    ..NetConfig::default()
                };
                NetRuntime::connect_tcp_with(rc, nc, rank, nranks, port_base)
                    .expect("loopback TCP mesh")
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|h| h.join().unwrap())
        .collect()
}

fn wait_all(members: &[NetRuntime]) {
    for m in members {
        m.fence();
    }
    for m in members {
        m.wait();
    }
}

/// Conservation property: summed over every rank and every stage, the
/// nanoseconds attributed to wire stages are bounded by the wall-clock
/// span that produced them. Sends are serialized by a fence per batch,
/// so no stage time can hide outside the measured window.
#[test]
fn stage_sums_are_bounded_by_end_to_end_latency() {
    let start = Instant::now();
    let members = mesh(2, 47_720);
    let received = Arc::new(AtomicU64::new(0));
    for m in &members {
        let received = Arc::clone(&received);
        m.runtime().register_handler(move |_ctx, _payload| {
            received.fetch_add(1, Ordering::Relaxed);
        });
    }
    let batches = 40u64;
    let per_batch = 5u64;
    for b in 0..batches {
        for (r, m) in members.iter().enumerate() {
            for i in 0..per_batch {
                let mut p = vec![0u8; 64];
                p[..8].copy_from_slice(&(b * per_batch + i).to_le_bytes());
                m.runtime().send_msg(1 - r, 0, 0, p);
            }
        }
        wait_all(&members);
    }
    assert_eq!(received.load(Ordering::Relaxed), 2 * batches * per_batch);

    let snaps: Vec<_> = members
        .iter()
        .map(|m| m.runtime().wire_snapshot())
        .collect();
    let elapsed_ns = start.elapsed().as_nanos() as f64;
    let m0 = members[0].runtime().metrics();
    let (json, prom) = (m0.to_json(), m0.to_prometheus("ttg"));
    for m in &members {
        m.shutdown();
    }

    // The real transport feeds the export exactly when `obs` is in.
    for series in ["wire_encode", "net_link_bytes"] {
        assert_eq!(json.contains(series), ttg_obs::OBS, "{series} in JSON");
        assert_eq!(prom.contains(series), ttg_obs::OBS, "{series} in text");
    }
    if !ttg_obs::OBS {
        for s in &snaps {
            assert!(s.is_empty(), "feature off must record nothing");
        }
        return;
    }
    assert!(snaps[0].links.iter().any(|l| l.peer == 1));
    let mut accounted_ns = 0.0;
    for (rank, s) in snaps.iter().enumerate() {
        // Every data frame passes each sender stage exactly once…
        assert!(s.encode.count() > 0, "rank {rank} recorded no encodes");
        assert_eq!(s.encode.count(), s.lock_wait.count());
        // …and lands on a receiver that decodes and dispatches it.
        assert!(s.read_decode.count() > 0, "rank {rank} recorded no reads");
        assert!(s.dispatch.count() > 0, "rank {rank} dispatched nothing");
        for (_, h) in s.stages() {
            accounted_ns += h.count() as f64 * h.mean();
        }
    }
    assert!(
        accounted_ns <= elapsed_ns,
        "stages account {accounted_ns}ns > {elapsed_ns}ns wall"
    );
}

/// Regression: a fast stream of sequenced frames must not outrun the
/// sender's resend buffer between monitor-tick acks. With a 64 KiB
/// budget, a 400 ms heartbeat (100 ms ack tick), and 1 KiB payloads, a
/// ping-pong chain crosses the budget in ~64 messages — microseconds
/// into the first tick — unless the receiver acks eagerly once a
/// quarter of the budget is unacknowledged. Without the eager ack the
/// sender dies on ResendOverflow and the chain silently loses a
/// message, leaving the bounce count short.
#[test]
fn fast_chain_outruns_monitor_tick_acks() {
    let nranks = 2;
    let members: Vec<NetRuntime> = (0..nranks)
        .map(|rank| {
            std::thread::spawn(move || {
                let mut nc = NetConfig::default().with_resend_buffer_limit(64 * 1024);
                nc.heartbeat_interval = Duration::from_millis(400);
                NetRuntime::connect_tcp_with(RuntimeConfig::optimized(1), nc, rank, nranks, 47_740)
                    .expect("loopback TCP mesh")
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|h| h.join().unwrap())
        .collect();
    let bounces = Arc::new(AtomicU64::new(0));
    for m in &members {
        let bounces = Arc::clone(&bounces);
        m.runtime().register_handler(move |ctx, payload| {
            let n = u64::from_le_bytes(payload[..8].try_into().unwrap());
            bounces.fetch_add(1, Ordering::Relaxed);
            if n > 0 {
                let mut reply = payload;
                reply[..8].copy_from_slice(&(n - 1).to_le_bytes());
                ctx.send_msg(1 - ctx.rank(), 0, 0, reply);
            }
        });
    }
    let messages = 300u64;
    let mut p = vec![0u8; 1024];
    p[..8].copy_from_slice(&messages.to_le_bytes());
    members[0].runtime().send_msg(1, 0, 0, p);
    wait_all(&members);
    let got = bounces.load(Ordering::Relaxed);
    for m in &members {
        m.shutdown();
    }
    assert_eq!(got, messages + 1, "chain lost messages to resend overflow");
}
