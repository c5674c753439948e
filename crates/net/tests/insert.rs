//! A message is a task insertion (DESIGN.md §6.6): the reader hands the
//! runtime everything one read decoded as ready tasks, in one
//! publication of the injection queue. What must hold over real
//! sockets: a batch is never held across a read that can block, a
//! handler id nobody registered (peer-controlled bytes) drops its
//! message and nothing else, and handlers that send from inside a
//! batch leave the wave balanced.

mod common;

use common::{mesh, rank_of};
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;
use ttg_net::tcp::ephemeral_listeners;
use ttg_net::{Frame, FrameKind, NetRuntime};

const WATCHDOG: Duration = Duration::from_secs(30);

fn encoded(frame: &Frame) -> Vec<u8> {
    let mut bytes = Vec::new();
    frame.encode_into(&mut bytes);
    bytes
}

/// Rule (i): rank 1 is a bare socket that writes one whole frame and
/// the first 10 bytes of the next, and the rest only after the first
/// frame's handler has answered. A reader that kept the first frame
/// until its buffer ran dry of bytes — not of whole frames — would wait
/// for a remainder that is waiting for it.
#[test]
fn a_whole_frame_is_handed_over_before_the_rest_of_the_next_arrives() {
    let (mut listeners, addrs) = ephemeral_listeners(2).unwrap();
    listeners.truncate(1);
    let listener = listeners.pop().unwrap();
    let rank0 = {
        let addrs = addrs.clone();
        std::thread::spawn(move || rank_of(0, listener, &addrs))
    };
    let mut raw = TcpStream::connect(addrs[0]).unwrap();
    // The handshake of a fresh dial: flag, incarnation, last acked seq.
    let mut hello = Frame::control(FrameKind::Hello, 1);
    hello.payload = [&[0u8][..], &0xABCD_u64.to_le_bytes(), &0u64.to_le_bytes()].concat();
    let frames: Vec<Vec<u8>> = (1..=2u64)
        .map(|seq| {
            let mut f = Frame::data(0, 0, seq.to_le_bytes().to_vec());
            f.seq = seq;
            encoded(&f)
        })
        .collect();
    raw.write_all(&encoded(&hello)).unwrap();
    let net = rank0.join().unwrap();
    let (tx, rx) = mpsc::channel::<u64>();
    net.runtime().register_handler(move |_ctx, payload| {
        let n = u64::from_le_bytes(payload[..8].try_into().unwrap());
        tx.send(n).expect("test still listening");
    });
    raw.write_all(&[&frames[0][..], &frames[1][..10]].concat())
        .unwrap();
    assert_eq!(
        rx.recv_timeout(WATCHDOG)
            .expect("held behind a partial frame"),
        1
    );
    raw.write_all(&frames[1][10..]).unwrap();
    assert_eq!(rx.recv_timeout(WATCHDOG).expect("second frame"), 2);
    net.shutdown();
}

/// A `Data` frame whose handler id nobody registered, hand-encoded and
/// injected raw between two good messages: it is counted received and
/// dropped (with one warning), both good handlers run, in order, and
/// the epoch terminates. The raw frame was sent by no runtime, so no
/// rank counted it sent: the receiver strikes it from its totals, as it
/// would a dead incarnation's traffic, and the wave balances on the
/// rest — after it has been counted, since it arrives before the second
/// good message.
#[test]
fn an_unregistered_handler_id_drops_its_message_and_nothing_else() {
    let nets = mesh();
    let (tx, rx) = mpsc::channel::<u8>();
    for net in &nets {
        let tx = tx.clone();
        let id = net.runtime().register_handler(move |_ctx, payload| {
            tx.send(payload[0]).expect("test still listening");
        });
        assert_eq!(id, 0);
    }
    nets[0].runtime().send_msg(1, 0, 0, vec![1]);
    let stray = Frame::data(77, 0, b"for a handler nobody registered".to_vec());
    nets[0].transport().send_raw(1, encoded(&stray)).unwrap();
    nets[0].runtime().send_msg(1, 0, 0, vec![2]);
    nets[1].runtime().retract_peer_messages(0, 1);

    nets.iter().for_each(NetRuntime::fence);
    let (done_tx, done_rx) = mpsc::channel();
    let waiter = std::thread::spawn(move || {
        let outcomes: Vec<_> = nets.iter().map(NetRuntime::run).collect();
        done_tx.send(()).unwrap();
        (nets, outcomes)
    });
    done_rx
        .recv_timeout(WATCHDOG)
        .expect("the epoch never terminated");
    let (nets, outcomes) = waiter.join().unwrap();
    assert!(outcomes.iter().all(Result::is_ok), "{outcomes:?}");
    let ran: Vec<u8> = rx.try_iter().collect();
    assert_eq!(ran, [1, 2], "both good messages, in order, and only they");
    let (s0, s1) = (nets[0].runtime().stats(), nets[1].runtime().stats());
    assert_eq!(s0.messages_sent, 2);
    assert_eq!(
        s1.messages_received, 3,
        "the stray frame counts as received"
    );
    nets.iter().for_each(NetRuntime::shutdown);
}

/// A bounce storm: each rank gets 64 messages in one flush — one read's
/// batch, or a few — and every handler sends the message back until its
/// hop count runs out, from inside the batch it arrived in. The fence
/// returns only when the storm has died out, with every message handled
/// and the wave's two sums equal.
#[test]
fn handlers_that_send_from_inside_a_batch_leave_the_wave_balanced() {
    const BATCH: u64 = 64;
    const HOPS: u64 = 50;
    let nets = mesh();
    let handled = Arc::new(AtomicU64::new(0));
    for net in &nets {
        let handled = Arc::clone(&handled);
        net.runtime().register_handler(move |ctx, payload| {
            handled.fetch_add(1, Ordering::Relaxed);
            let left = u64::from_le_bytes(payload[..8].try_into().unwrap());
            if left > 0 {
                ctx.send_msg(1 - ctx.rank(), 0, 0, (left - 1).to_le_bytes().to_vec());
            }
        });
    }
    let (done_tx, done_rx) = mpsc::channel();
    let driver = std::thread::spawn(move || {
        for epoch in 1..=20 {
            for (rank, net) in nets.iter().enumerate() {
                for _ in 0..BATCH {
                    net.runtime()
                        .send_msg(1 - rank, 0, 0, HOPS.to_le_bytes().to_vec());
                }
            }
            nets.iter().for_each(NetRuntime::fence);
            nets.iter().for_each(|n| n.run().expect("clean epoch"));
            let expected = epoch * 2 * BATCH * (HOPS + 1);
            assert_eq!(handled.load(Ordering::Relaxed), expected, "epoch {epoch}");
            let stats: Vec<_> = nets.iter().map(|n| n.runtime().stats()).collect();
            let sent: u64 = stats.iter().map(|s| s.messages_sent).sum();
            let received: u64 = stats.iter().map(|s| s.messages_received).sum();
            assert_eq!((sent, received), (expected, expected), "epoch {epoch}");
        }
        let inserted: u64 = nets.iter().map(|n| n.runtime().message_insertions()).sum();
        assert!(
            inserted < handled.load(Ordering::Relaxed),
            "no insertion ever carried two messages"
        );
        nets.iter().for_each(NetRuntime::shutdown);
        done_tx.send(()).unwrap();
    });
    if done_rx.recv_timeout(WATCHDOG) == Err(mpsc::RecvTimeoutError::Timeout) {
        panic!("the storm never died out");
    }
    driver.join().unwrap();
}
