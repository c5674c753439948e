//! The cork rule end to end (DESIGN.md §6.5): the runtime appends
//! `Data` frames and leaves the write to quiescence — the sending
//! task's return, a worker's idle transition, a fence. Two things must
//! hold over real sockets: a corked message never waits for a fence
//! that may not come, and the termination wave never sees a count whose
//! messages are still in the sender's buffer.

mod common;

use common::mesh;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};
use ttg_net::NetRuntime;

const WATCHDOG: Duration = Duration::from_secs(30);

/// An external thread sends one message to an idle rank and blocks on
/// the handler's answer — no fence anywhere. The message is corked by
/// the send, and on the wire one wake-up later: the sender's idle
/// worker flushes it.
#[test]
fn a_lone_external_message_needs_no_fence() {
    let nets = mesh();
    let (tx, rx) = mpsc::channel::<u64>();
    for net in &nets {
        let tx = tx.clone();
        net.runtime().register_handler(move |_ctx, payload| {
            let n = u64::from_le_bytes(payload[..8].try_into().unwrap());
            tx.send(n).expect("test still listening");
        });
    }
    let mut slowest = Duration::ZERO;
    for round in 0..1_000u64 {
        let t0 = Instant::now();
        nets[0]
            .runtime()
            .send_msg(1, 0, 0, round.to_le_bytes().to_vec());
        assert_eq!(rx.recv_timeout(WATCHDOG).expect("answered"), round);
        slowest = slowest.max(t0.elapsed());
    }
    assert!(
        slowest < Duration::from_millis(50),
        "a corked message waited {slowest:?}"
    );
    nets.iter().for_each(NetRuntime::fence);
    nets.iter().for_each(|n| n.run().expect("clean epoch"));
    nets.iter().for_each(NetRuntime::shutdown);
}

/// A handler's reply leaves when its task does — also when the worker
/// goes straight on to a task that one readied (the hand-off of
/// `WorkerCtx::run_task`) instead of back to its queue. The handler
/// answers and readies a successor that waits for the answer to have
/// arrived; on a 1-worker rank nothing else would flush it but a
/// heartbeat, half a second later.
#[test]
fn a_reply_leaves_before_the_task_handed_off_behind_it_runs() {
    let nets = mesh();
    let arrived = Arc::new(AtomicU64::new(0));
    let (tx, rx) = mpsc::channel::<Duration>();
    for net in &nets {
        let (seen, tx) = (Arc::clone(&arrived), tx.clone());
        let request = net.runtime().register_handler(move |ctx, payload| {
            let round = u64::from_le_bytes(payload[..8].try_into().unwrap());
            ctx.send_msg(1 - ctx.rank(), 0, 1, Vec::new());
            let (seen, tx) = (Arc::clone(&seen), tx.clone());
            ctx.spawn(0, move |_| {
                let t0 = Instant::now();
                while seen.load(Ordering::Acquire) <= round && t0.elapsed() < WATCHDOG {
                    std::thread::yield_now();
                }
                tx.send(t0.elapsed()).expect("test still listening");
            });
        });
        let arrived = Arc::clone(&arrived);
        let reply = net.runtime().register_handler(move |_ctx, _payload| {
            arrived.fetch_add(1, Ordering::Release);
        });
        assert_eq!((request, reply), (0, 1));
    }
    let mut slowest = Duration::ZERO;
    for round in 0..200u64 {
        nets[1]
            .runtime()
            .send_msg(0, 0, 0, round.to_le_bytes().to_vec());
        slowest = slowest.max(rx.recv_timeout(WATCHDOG * 2).expect("successor ran"));
    }
    assert!(
        slowest < Duration::from_millis(50),
        "a successor waited {slowest:?} for its predecessor's reply to leave"
    );
    assert_eq!(nets[0].runtime().stats().inlined, 200, "not handed off");
    nets.iter().for_each(NetRuntime::fence);
    nets.iter().for_each(|n| n.run().expect("clean epoch"));
    nets.iter().for_each(NetRuntime::shutdown);
}

/// Back-to-back fenced epochs of a few corked messages each: every
/// `run()` returns with exactly the epoch's messages handled — not
/// earlier (a wave that balanced on counts whose messages were still
/// corked) and not never (a corked message nobody flushed).
#[test]
fn fenced_epochs_of_corked_messages_terminate_exactly() {
    let nets = mesh();
    let handled = Arc::new(AtomicU64::new(0));
    for net in &nets {
        let handled = Arc::clone(&handled);
        net.runtime().register_handler(move |_ctx, payload| {
            handled.fetch_add(u64::from(payload[0]), Ordering::Relaxed);
        });
    }
    let (done_tx, done_rx) = mpsc::channel::<()>();
    let driver = std::thread::spawn(move || {
        let mut expected = 0u64;
        for epoch in 0..2_000u64 {
            for (rank, net) in nets.iter().enumerate() {
                let burst = 1 + (epoch * 7 + rank as u64 * 13) % 64;
                for _ in 0..burst {
                    net.runtime().send_msg(1 - rank, 0, 0, vec![1]);
                }
                expected += burst;
            }
            nets.iter().for_each(NetRuntime::fence);
            for net in &nets {
                net.run().expect("clean epoch");
            }
            let got = handled.load(Ordering::Relaxed);
            assert_eq!(got, expected, "epoch {epoch} ended early");
            let (sent, received) = nets
                .iter()
                .map(|n| n.runtime().stats())
                .fold((0, 0), |(s, r), st| {
                    (s + st.messages_sent, r + st.messages_received)
                });
            assert_eq!((sent, received), (expected, expected), "epoch {epoch}");
        }
        nets.iter().for_each(NetRuntime::shutdown);
        done_tx.send(()).unwrap();
    });
    // 2 000 epochs get four watchdogs; a failed assertion disconnects
    // the channel and is reported by the join.
    if done_rx.recv_timeout(WATCHDOG * 4) == Err(mpsc::RecvTimeoutError::Timeout) {
        panic!("an epoch hung: a corked message was never flushed");
    }
    driver.join().unwrap();
}

/// Both ranks' workers stream 64 KiB messages at each other, each a
/// window ahead of the other's acks, so each worker waits in its
/// window while the other's reader holds the ack it needs. An ack the
/// reader leaves to its rank's workers (to ride a reply) must not wait
/// for a worker that is itself waiting for acks: the exchange takes
/// milliseconds, not one monitor tick (100 ms) per message.
#[test]
fn two_workers_streaming_large_messages_at_each_other_never_wait_for_a_tick() {
    const MSGS: u64 = 32;
    let nets = mesh();
    let received = Arc::new(AtomicU64::new(0));
    for net in &nets {
        let stream = net.runtime().register_handler(move |ctx, _payload| {
            for _ in 0..MSGS {
                ctx.send_msg(1 - ctx.rank(), 0, 1, vec![7; 64 << 10]);
            }
        });
        let received = Arc::clone(&received);
        let count = net.runtime().register_handler(move |_ctx, payload| {
            assert_eq!(payload.len(), 64 << 10);
            received.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!((stream, count), (0, 1));
    }
    let mut slowest = Duration::ZERO;
    for _ in 0..5 {
        let t0 = Instant::now();
        for (rank, net) in nets.iter().enumerate() {
            net.runtime().send_msg(1 - rank, 0, 0, Vec::new());
        }
        nets.iter().for_each(NetRuntime::fence);
        nets.iter().for_each(|n| n.run().expect("clean epoch"));
        slowest = slowest.max(t0.elapsed());
    }
    assert_eq!(received.load(Ordering::Relaxed), 5 * 2 * MSGS);
    assert!(
        slowest < Duration::from_secs(1),
        "an epoch of {} messages took {slowest:?}",
        2 * MSGS
    );
    nets.iter().for_each(NetRuntime::shutdown);
}
