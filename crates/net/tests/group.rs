//! Several ranks in one address space ([`NetGroup::local`]): framed
//! handler messages between them and the fenced wave above them — the
//! one multi-rank path, here without sockets.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::time::Duration;
use ttg_net::NetGroup;
use ttg_runtime::RuntimeConfig;

#[test]
fn a_token_rides_the_ring_and_termination_is_global() {
    const P: usize = 4;
    let group = NetGroup::local(P, |_| RuntimeConfig::optimized(1));
    let hits: Arc<Vec<AtomicUsize>> = Arc::new((0..P).map(|_| AtomicUsize::new(0)).collect());
    // Each rank forwards the token — the hops it has left — to the next.
    for rank in 0..P {
        let hits = Arc::clone(&hits);
        let hop = group.runtime(rank).register_handler(move |ctx, payload| {
            hits[ctx.rank()].fetch_add(1, Ordering::Relaxed);
            if payload[0] > 0 {
                ctx.send_msg((ctx.rank() + 1) % P, 0, 0, vec![payload[0] - 1]);
            }
        });
        assert_eq!(hop, 0);
    }
    group.runtime(0).send_msg(0, 0, 0, vec![16]);
    group.try_wait().expect("clean run");
    let total: usize = hits.iter().map(|h| h.load(Ordering::Relaxed)).sum();
    assert_eq!(total, 17, "16 hops + the seed");
    // Ring of 4: every rank was visited.
    for (r, h) in hits.iter().enumerate() {
        assert!(h.load(Ordering::Relaxed) >= 4, "rank {r} starved");
    }
}

#[test]
fn all_to_all_burst_is_received_whole() {
    const P: usize = 3;
    const MSGS: usize = 50;
    let group = NetGroup::local(P, |_| RuntimeConfig::optimized(2));
    let received = Arc::new(AtomicUsize::new(0));
    for rank in 0..P {
        let r = Arc::clone(&received);
        group.runtime(rank).register_handler(move |_ctx, _payload| {
            r.fetch_add(1, Ordering::Relaxed);
        });
    }
    for src in 0..P {
        for dst in (0..P).filter(|&d| d != src) {
            for _ in 0..MSGS {
                group.runtime(src).send_msg(dst, 0, 0, Vec::new());
            }
        }
    }
    group.try_wait().expect("clean run");
    assert_eq!(received.load(Ordering::Relaxed), P * (P - 1) * MSGS);
}

/// Messages are task insertions into the peer's injection queue: four
/// 1-worker ranks, every rank's sender thread sending to every other
/// rank, 1 000 fenced sessions. The handlers of one sender run in its
/// send order, and `wait()` never returns with a handler still to run.
#[test]
fn messages_keep_sender_order_and_wait_means_handled() {
    const P: usize = 4;
    const SESSIONS: u64 = 1_000;
    const PER_PEER: u64 = 6;
    let group = Arc::new(NetGroup::local(P, |_| RuntimeConfig::optimized(1)));
    let handled = Arc::new(AtomicU64::new(0));
    // next[dst][src]: the number `dst` expects `src`'s next message to
    // carry. Written only by `dst`'s one worker.
    let next: Arc<Vec<Vec<AtomicU64>>> = Arc::new(
        (0..P)
            .map(|_| (0..P).map(|_| AtomicU64::new(0)).collect())
            .collect(),
    );
    for rank in 0..P {
        let (next, handled) = (Arc::clone(&next), Arc::clone(&handled));
        let id = group.runtime(rank).register_handler(move |ctx, payload| {
            let word = |i: usize| u64::from_le_bytes(payload[8 * i..8 * i + 8].try_into().unwrap());
            let (dst, src, n) = (ctx.rank(), word(0) as usize, word(1));
            let expected = next[dst][src].fetch_add(1, Ordering::Relaxed);
            assert_eq!(n, expected, "rank {dst}: sender {src} out of order");
            handled.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(id, 0);
    }
    // One sender thread per rank for the whole test (dense thread ids
    // are a bounded resource), in step with the fencing thread: send,
    // meet, fence, meet.
    let step = Arc::new(Barrier::new(P + 1));
    let senders: Vec<_> = (0..P)
        .map(|src| {
            let (group, step) = (Arc::clone(&group), Arc::clone(&step));
            std::thread::spawn(move || {
                for session in 0..SESSIONS {
                    for i in 0..PER_PEER {
                        let n = session * PER_PEER + i;
                        for dst in (0..P).filter(|&d| d != src) {
                            let payload = [(src as u64).to_le_bytes(), n.to_le_bytes()];
                            group.runtime(src).send_msg(dst, 0, 0, payload.concat());
                        }
                    }
                    step.wait();
                    step.wait();
                }
            })
        })
        .collect();
    let (done_tx, done_rx) = mpsc::channel();
    let driver = {
        let (group, handled) = (Arc::clone(&group), Arc::clone(&handled));
        std::thread::spawn(move || {
            for session in 0..SESSIONS {
                step.wait();
                group.try_wait().expect("clean session");
                let expected = (session + 1) * PER_PEER * (P * (P - 1)) as u64;
                assert_eq!(
                    handled.load(Ordering::Relaxed),
                    expected,
                    "session {session}: wait() returned with handlers still to run"
                );
                step.wait();
            }
            done_tx.send(()).unwrap();
        })
    };
    if done_rx.recv_timeout(Duration::from_secs(30)) == Err(mpsc::RecvTimeoutError::Timeout) {
        panic!("a session hung");
    }
    driver.join().unwrap();
    senders.into_iter().for_each(|s| s.join().unwrap());
    let (sent, received) = (0..P)
        .map(|r| group.runtime(r).stats())
        .fold((0, 0), |(s, r), st| {
            (s + st.messages_sent, r + st.messages_received)
        });
    assert_eq!(sent, received);
    assert_eq!(sent, handled.load(Ordering::Relaxed));
}

#[test]
fn an_aborted_epoch_does_not_wedge_the_next_one() {
    use ttg_runtime::RunError;
    use ttg_termdet::TermWave;
    let group = Arc::new(NetGroup::local(2, |_| RuntimeConfig::optimized(1)));
    let handled = Arc::new(AtomicU64::new(0));
    for rank in 0..2 {
        let handled = Arc::clone(&handled);
        group.runtime(rank).register_handler(move |_ctx, _payload| {
            handled.fetch_add(1, Ordering::Relaxed);
        });
    }
    // Each wait runs on a helper thread, so a hung one fails the test.
    let wait = |group: &Arc<NetGroup>| {
        let (tx, rx) = mpsc::channel();
        let group = Arc::clone(group);
        let waiter = std::thread::spawn(move || tx.send(group.try_wait()));
        let outcome = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the wait hung");
        waiter
            .join()
            .expect("waiter panicked")
            .expect("outcome sent");
        outcome
    };
    for i in 0..3u64 {
        let aborter = i as usize % 2;
        group.member(aborter).wave().abort(&format!("drill {i}"));
        match wait(&group) {
            Err(RunError::Aborted { reason }) => assert!(reason.contains(&format!("drill {i}"))),
            other => panic!("session {i}: expected the abort, got {other:?}"),
        }
        group
            .runtime(aborter)
            .send_msg(1 - aborter, 0, 0, Vec::new());
        wait(&group).expect("the session after an abort runs clean");
        assert_eq!(handled.load(Ordering::Relaxed), i + 1);
    }
}
