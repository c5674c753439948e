//! The 64 KiB exchange's tier-1 gate, in a process of its own: it pins
//! every thread of the process to one CPU, where the two ranks of a
//! ping-pong take turns as they do in the benchmark's `bulk` workload.
//!
//! One message in flight, 64 KiB each, both ranks on one CPU: what a
//! message costs here beyond its bytes is kernel round trips and thread
//! wake-ups, and three counts name them. A message is one `write`: the
//! ack of the message a handler received rides at the head of its
//! reply, not in a write of its own. The wave opens no round between two
//! hops: a worker idle only until the next hop arrives does not offer
//! its rank's counters. And a message allocates only the payload the
//! reader receives it into: the sender's buffer goes on the wire from
//! where the handler left it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use ttg_net::tcp::ephemeral_listeners;
use ttg_net::{NetConfig, NetRuntime, TcpTransport, Transport};
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

/// Confines the calling thread, and every thread it starts from here
/// on, to the highest-numbered CPU it may run on (as the benchmark's
/// children do).
#[cfg(target_os = "linux")]
fn pin_to_one_cpu() {
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mut allowed = [0u64; 16];
    // SAFETY: `allowed` is writable for the `size_of_val` bytes passed,
    // and pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&allowed), allowed.as_mut_ptr()) } != 0 {
        return;
    }
    let Some(word) = allowed.iter().rposition(|&w| w != 0) else {
        return;
    };
    let mut one = [0u64; 16];
    one[word] = 1 << (63 - allowed[word].leading_zeros());
    // SAFETY: `one` is readable for the `size_of_val` bytes passed. A
    // refusal leaves the process unpinned.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
}

#[cfg(not(target_os = "linux"))]
fn pin_to_one_cpu() {}

/// A 2-rank TCP loopback mesh on OS-chosen ports, one worker a rank.
fn mesh() -> Vec<NetRuntime> {
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
    joins.into_iter().map(|j| j.join().unwrap()).collect()
}

/// Five epochs of a 400-hop ping-pong of one 64 KiB message, every hop
/// checked byte for byte. Summed over both ranks, per data message: at
/// most 1.25 socket writes, at most 3 allocations, and at most 16 wave
/// control frames per epoch (`frames_sent` less the data messages: a
/// fence entry, a round begin and a contribution per round, the
/// termination — 6 for the two rounds an epoch needs).
///
/// Readings (debug build) where each ack was a write of its own, the
/// wave offered at a worker's first idle spin and a payload was copied
/// into the resend ring: 3.1 writes, 8.6–8.9 allocations and 435–450
/// control frames. With the ack on the reply, the offer from the second
/// half of the spin budget and the payload sent from its own buffer:
/// 1.03–1.14 writes (an ack still leaves alone when the reader that
/// published it was preempted by the worker it woke), 2.08 allocations
/// (the received payload; the rest is the wave's two rounds) and 6
/// control frames.
#[test]
fn a_64_kib_ping_pong_costs_one_write_and_no_wave_round_per_hop() {
    const BYTES: usize = 64 << 10;
    const HOPS: u64 = 400;
    const EPOCHS: u64 = 5;
    pin_to_one_cpu();
    let nets = mesh();
    let pattern: Arc<Vec<u8>> = Arc::new((0..BYTES).map(|i| (i * 31 + 7) as u8).collect());
    let (hops, bad) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
    for net in &nets {
        let (pattern, hops, bad) = (Arc::clone(&pattern), Arc::clone(&hops), Arc::clone(&bad));
        net.runtime().register_handler(move |ctx, mut payload| {
            hops.fetch_add(1, Ordering::Relaxed);
            if payload.len() != BYTES || payload[8..] != pattern[8..] {
                bad.fetch_add(1, Ordering::Relaxed);
                return;
            }
            let left = u64::from_le_bytes(payload[..8].try_into().expect("8 bytes"));
            if left > 0 {
                payload[..8].copy_from_slice(&(left - 1).to_le_bytes());
                ctx.send_msg(1 - ctx.rank(), 0, 0, payload);
            }
        });
    }
    let epoch = || {
        let mut first = pattern.to_vec();
        first[..8].copy_from_slice(&(HOPS - 1).to_le_bytes());
        nets[0].runtime().send_msg(1, 0, 0, first);
        nets.iter().for_each(NetRuntime::fence);
        for net in &nets {
            net.run().expect("clean epoch");
        }
    };
    let wire = || {
        nets.iter().fold((0, 0), |(frames, writes), net| {
            let c = net.transport().counters().expect("TCP keeps counters");
            (
                frames + c.frames_sent.load(Ordering::Relaxed),
                writes + c.socket_writes.load(Ordering::Relaxed),
            )
        })
    };
    epoch(); // sizes the rings, the queues and the task pools
    let (frames0, writes0) = wire();
    ALLOCS.store(0, Ordering::Relaxed);
    for _ in 0..EPOCHS {
        ARMED.store(true, Ordering::Relaxed);
        epoch();
        ARMED.store(false, Ordering::Relaxed);
    }
    let (frames, writes) = wire();
    nets.iter().for_each(NetRuntime::shutdown);

    assert_eq!(hops.load(Ordering::Relaxed), (EPOCHS + 1) * HOPS);
    assert_eq!(bad.load(Ordering::Relaxed), 0, "a payload arrived damaged");
    let msgs = EPOCHS * HOPS;
    let per_msg = |n: u64| n as f64 / msgs as f64;
    let writes_per_msg = per_msg(writes - writes0);
    let allocs_per_msg = per_msg(ALLOCS.load(Ordering::Relaxed));
    let control_per_epoch = (frames - frames0 - msgs) as f64 / EPOCHS as f64;
    let readings = format!(
        "{writes_per_msg:.2} writes and {allocs_per_msg:.2} allocations per message, \
         {control_per_epoch:.1} wave control frames per epoch"
    );
    println!("{readings}");
    assert!(writes_per_msg <= 1.25, "{readings}");
    assert!(control_per_epoch <= 16.0, "{readings}");
    assert!(allocs_per_msg <= 3.0, "{readings}");
}
