//! The message path's tier-1 gate, in a process of its own. It got one
//! when a mesh's workers outlived the test that built it (runtime, sink
//! and transport were a reference cycle) and their wave contributions
//! landed in the per-task counts of `alloc_gate.rs`. A dropped mesh now
//! joins its threads; the gate stays apart until `alloc_gate.rs`'s own
//! flake (ROADMAP item 1a) is settled, so the two are not confused.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use ttg_runtime::RuntimeConfig;

/// Counts allocations (reallocations included) while armed.
struct Counting;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: forwarded caller contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded caller contract; `ptr` came from `alloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The message path's three counts, over a 2-rank TCP loopback mesh: an
/// external thread scatters 4 096 64-byte messages each way and fences,
/// five epochs. A corked link puts a batch of frames, not one, in each
/// `write`; the reader hands the runtime what one read decoded in one
/// insertion; and a message costs two allocations: the sender's payload
/// and the reader's payload. The frame is encoded in place in the
/// resend ring, and the task the message runs as is a pooled shell.
///
/// Readings: 1.0 frames per write and 5.01 allocations per message
/// before the link corked (one `write_all` and one ring `Vec` per
/// frame); ~28 and 4.02–4.04 while every message still went through an
/// inbox channel, to be rebuilt as a boxed task around a boxed closure
/// by the worker that drained it; 28–87, 2.02–2.06 and 110–125 messages
/// per insertion now. The allocation count is the machine's business
/// only through the wave's rounds; the batch sizes are not constants —
/// a worker that goes idle flushes what the sender has corked so far,
/// and a reader decodes what one `recv` brought, so they read 10–15
/// when this binary's other tests share the CPUs — hence floors of 4,
/// which a build that writes or inserts per message is under and any
/// build that batches is over. (The benchmark's `net.allocs_per_msg`
/// reads one lower throughout: its count starts after the payload is
/// built.)
#[test]
fn a_corked_link_batches_its_writes_and_a_message_allocates_its_payload_only() {
    use ttg_net::tcp::ephemeral_listeners;
    use ttg_net::{NetConfig, NetRuntime, TcpTransport, Transport};
    const MSGS: u64 = 4_096;
    let (listeners, addrs) = ephemeral_listeners(2).expect("loopback listeners");
    let joins: Vec<_> = listeners
        .into_iter()
        .enumerate()
        .map(|(rank, listener)| {
            let addrs = addrs.clone();
            std::thread::spawn(move || {
                let cfg = NetConfig::builtin();
                NetRuntime::over_transport_with(
                    RuntimeConfig::optimized(1),
                    &cfg.clone(),
                    rank,
                    2,
                    |sink| {
                        TcpTransport::with_listener_cfg(rank, listener, &addrs, sink, cfg)
                            .map(|t| t as Arc<dyn Transport>)
                    },
                )
                .expect("loopback TCP mesh")
            })
        })
        .collect();
    let nets: Vec<NetRuntime> = joins.into_iter().map(|j| j.join().unwrap()).collect();
    let received = Arc::new(AtomicU64::new(0));
    for net in &nets {
        let received = Arc::clone(&received);
        net.runtime().register_handler(move |_ctx, payload| {
            received.fetch_add(payload.len() as u64, Ordering::Relaxed);
        });
    }
    let epoch = || {
        for _ in 0..MSGS {
            for (rank, net) in nets.iter().enumerate() {
                net.runtime().send_msg(1 - rank, 0, 0, vec![7u8; 64]);
            }
        }
        nets.iter().for_each(NetRuntime::fence);
        for net in &nets {
            net.run().expect("clean epoch");
        }
    };
    let wire = |net: &NetRuntime| {
        let c = net.transport().counters().expect("TCP keeps counters");
        (
            c.frames_sent.load(Ordering::Relaxed),
            c.socket_writes.load(Ordering::Relaxed),
        )
    };
    epoch(); // sizes the rings, the queues and the task pools
    epoch();
    let inserted = |net: &NetRuntime| {
        let rt = net.runtime();
        (rt.stats().messages_received, rt.message_insertions())
    };
    let before: Vec<_> = nets.iter().map(|n| (wire(n), inserted(n))).collect();
    let runs: Vec<u64> = (0..5)
        .map(|_| {
            ALLOCS.store(0, Ordering::Relaxed);
            ARMED.store(true, Ordering::Relaxed);
            epoch();
            ARMED.store(false, Ordering::Relaxed);
            ALLOCS.load(Ordering::Relaxed)
        })
        .collect();
    assert_eq!(received.load(Ordering::Relaxed), 7 * 2 * MSGS * 64);
    for (rank, (net, ((frames0, writes0), (msgs0, insertions0)))) in
        nets.iter().zip(before).enumerate()
    {
        let (frames, writes) = wire(net);
        let per_write = (frames - frames0) as f64 / (writes - writes0) as f64;
        assert!(
            per_write >= 4.0,
            "rank {rank}: {per_write} frames per write"
        );
        let (msgs, insertions) = inserted(net);
        let per_insertion = (msgs - msgs0) as f64 / (insertions - insertions0) as f64;
        assert!(
            per_insertion >= 4.0,
            "rank {rank}: {per_insertion} messages per insertion"
        );
    }
    let median = {
        let mut sorted = runs.clone();
        sorted.sort_unstable();
        sorted[sorted.len() / 2]
    };
    for allocs in &runs {
        let per_msg = *allocs as f64 / (2 * MSGS) as f64;
        assert!(
            per_msg <= 2.3,
            "{per_msg} allocations per message: {runs:?}"
        );
        // Not an equality: the wave's rounds (a few allocations each)
        // are inside the window and their number depends on timing —
        // ± 0.03 % alone, several percent when every core has a hog, and
        // then the first epoch is as likely the odd one out as any. So
        // each is held against the median; one allocation per message
        // would be 25 %.
        let spread = allocs.abs_diff(median) as f64 / median as f64;
        assert!(spread <= 0.10, "epochs differ by more than 10 %: {runs:?}");
    }
    nets.iter().for_each(NetRuntime::shutdown);
}
