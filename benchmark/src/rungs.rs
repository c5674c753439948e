//! Per-layer rungs: each layer of the library timed alone, from
//! outside, by calling its public functions in a loop. Every rung is
//! the median of [`BATCHES`] timed batches after one untimed batch.

use crate::counters::{arm_alloc_counter, Counters};
use crate::stats::median;
use crate::workloads::chain::chain_ns_per_task;
use crate::workloads::serve::{pipeline_template, request_value};
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::ptr::NonNull;
use std::sync::Arc;
use std::time::{Duration, Instant};
use ttg_hashtable::{HashTableOptions, LockKind, ScalableHashTable};
use ttg_mempool::FreeListPool;
use ttg_net::frame::Decoded;
use ttg_net::Frame;
use ttg_runtime::{Runtime, RuntimeConfig, SchedKind, WorkerCtx};
use ttg_sched::SchedNode;
use ttg_sync::{BravoRwLock, OrderingPolicy, RwSpinLock, SpinLock};
use ttg_termdet::{LocalTermination, TermDetKind};

const BATCHES: usize = 9;
/// Live keys of the hash-table rung and depth of the deep scheduler
/// rung: the `stencil` workload's width.
const LIVE: usize = 64;

/// Median ns per operation over [`BATCHES`] batches of `ops` operations.
fn ns_per_op(ops: u64, mut batch: impl FnMut()) -> f64 {
    batch();
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            batch();
            t.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    median(&samples)
}

fn sync_rungs(out: &mut Vec<(&'static str, f64)>) {
    const N: u64 = 200_000;
    let spin = SpinLock::new(0u64);
    out.push((
        "sync.spin_lock_ns",
        ns_per_op(N, || {
            for _ in 0..N {
                *spin.lock() += 1;
            }
            black_box(*spin.lock());
        }),
    ));
    let rw = RwSpinLock::new(0u64);
    out.push((
        "sync.rwspin_read_ns",
        ns_per_op(N, || {
            for _ in 0..N {
                black_box(*rw.read());
            }
        }),
    ));
    let bravo = BravoRwLock::new(0u64);
    out.push((
        "sync.bravo_read_ns",
        ns_per_op(N, || {
            for _ in 0..N {
                black_box(*bravo.read());
            }
        }),
    ));
}

/// One bucket transaction = `lock_bucket` plus one of insert, find,
/// remove, on a BRAVO-locked table holding at most [`LIVE`] keys — what
/// a 3-input `stencil` task does once per arriving input.
fn hashtable_rung(out: &mut Vec<(&'static str, f64)>) {
    const ROUNDS: u64 = 500;
    let table: ScalableHashTable<u64, u64> = ScalableHashTable::with_options(HashTableOptions {
        lock: LockKind::Bravo,
        ..Default::default()
    });
    out.push((
        "hashtable.bucket_txn_ns",
        ns_per_op(ROUNDS * 3 * LIVE as u64, || {
            for round in 0..ROUNDS {
                for k in 0..LIVE as u64 {
                    black_box(table.lock_bucket(k).insert(round));
                }
                for k in 0..LIVE as u64 {
                    black_box(table.lock_bucket(k).find().is_some());
                }
                for k in 0..LIVE as u64 {
                    black_box(table.lock_bucket(k).remove());
                }
            }
        }),
    ));
}

/// One push plus one pop on the paper's LLP queue with one worker: on
/// an otherwise empty queue, as in `chain`, and on one filled [`LIVE`]
/// deep, as in `stencil`.
fn sched_rungs(out: &mut Vec<(&'static str, f64)>) {
    const PAIRS: u64 = 128_000;
    let queue = SchedKind::Llp.build(1);
    let nodes: Vec<Box<SchedNode>> = (0..LIVE).map(|_| Box::new(SchedNode::new(0))).collect();
    for (name, depth) in [("sched.push_pop_ns", 1), ("sched.push_pop_64deep_ns", LIVE)] {
        out.push((
            name,
            ns_per_op(PAIRS, || {
                for _ in 0..PAIRS / depth as u64 {
                    for n in &nodes[..depth] {
                        // The nodes outlive the queue's use of them and
                        // this thread is worker 0, as `TaskQueue` requires.
                        queue.push(0, NonNull::from(n.as_ref()));
                    }
                    for _ in 0..depth {
                        assert!(queue.pop(0).is_some());
                    }
                }
            }),
        ));
    }
}

fn mempool_rung(out: &mut Vec<(&'static str, f64)>) {
    const N: u64 = 200_000;
    let pool: FreeListPool<[u64; 16]> = FreeListPool::new(1);
    out.push((
        "mempool.alloc_free_ns",
        ns_per_op(N, || {
            for i in 0..N {
                drop(black_box(pool.alloc([i; 16])));
            }
        }),
    ));
}

/// `task_discovered` plus `task_executed` under the thread-local scheme.
fn termdet_rung(out: &mut Vec<(&'static str, f64)>) {
    const N: u64 = 500_000;
    let term = LocalTermination::new(TermDetKind::ThreadLocal, OrderingPolicy::Relaxed, 1);
    out.push((
        "termdet.account_ns",
        ns_per_op(N, || {
            for _ in 0..N {
                term.task_discovered(Some(0));
                term.task_executed(Some(0));
            }
            term.flush(0);
            black_box(term.pending());
        }),
    ));
}

fn hop(ctx: &mut WorkerCtx<'_>, left: u64) {
    if left > 0 {
        ctx.spawn(0, move |ctx| hop(ctx, left - 1));
    }
}

/// The bare runtime: a serial chain of closure tasks, each spawning the
/// next; its allocations per task; and a `wait()` with nothing to wait
/// for.
fn runtime_rungs(out: &mut Vec<(&'static str, f64)>) {
    const N: u64 = 50_000;
    let rt = Runtime::new(RuntimeConfig::optimized(1));
    let chain = |rt: &Runtime| {
        rt.submit(0, |ctx| hop(ctx, N - 1));
        rt.wait();
    };
    out.push(("runtime.task_ns", ns_per_op(N, || chain(&rt))));

    let before = Counters::now();
    arm_alloc_counter(true);
    chain(&rt);
    arm_alloc_counter(false);
    let allocs = Counters::now().since(&before).allocs;
    out.push(("runtime.allocs_per_task", allocs as f64 / N as f64));

    const WAITS: u64 = 20;
    out.push((
        "runtime.wait_idle_us",
        ns_per_op(WAITS, || {
            for _ in 0..WAITS {
                rt.wait();
            }
        }) / 1e3,
    ));
}

fn core_rungs(out: &mut Vec<(&'static str, f64)>) {
    const LENGTH: u64 = 50_000;
    let chain = |config: fn() -> RuntimeConfig, flows| {
        let samples: Vec<f64> = (0..BATCHES)
            .map(|_| chain_ns_per_task(config(), flows, LENGTH))
            .collect();
        median(&samples)
    };
    let plain = || RuntimeConfig::optimized(1);
    let one = chain(plain, 1);
    let four = chain(plain, 4);
    out.push(("core.task_ns_1flow", one));
    out.push(("core.ns_per_extra_flow", (four - one) / 3.0));

    // The cost of observing: the same chain with the runtime's event
    // rings recording, as throughput relative to not recording.
    let traced = chain(
        || RuntimeConfig {
            trace: true,
            ..RuntimeConfig::optimized(1)
        },
        1,
    );
    out.push(("obs.trace_on_ratio", one / traced));

    // `instantiate` + `start` of an instance with no task, waited for
    // and dropped: what every served graph costs before its first task.
    const INSTANCES: u64 = 2_000;
    let template = pipeline_template();
    let rt = Arc::new(Runtime::new(RuntimeConfig::optimized(1)));
    let empty = request_value(&crate::inputs::ServeRequest { n: 0, base: 0 });
    let mut id = 0;
    out.push((
        "core.instantiate_us",
        ns_per_op(INSTANCES, || {
            for _ in 0..INSTANCES {
                id += 1;
                let mut instance = template.instantiate(&rt, id, "rung", empty.clone());
                instance.start();
                black_box(instance.wait());
            }
        }) / 1e3,
    ));
}

/// `Frame::encode_into` into a reused buffer and `Frame::read_from` out
/// of memory, at a `burst`-sized and at the `bulk` payload.
fn net_rungs(out: &mut Vec<(&'static str, f64)>) {
    for (bytes, n, encode, decode) in [
        (
            256usize,
            100_000u64,
            "net.encode_256B_ns",
            "net.decode_256B_ns",
        ),
        (
            64 * 1024,
            1_000,
            "net.encode_64KiB_ns",
            "net.decode_64KiB_ns",
        ),
    ] {
        let frame = Frame::data(0, 0, vec![0xA5; bytes]);
        let mut buf = Vec::with_capacity(frame.encoded_len());
        out.push((
            encode,
            ns_per_op(n, || {
                for _ in 0..n {
                    buf.clear();
                    frame.encode_into(&mut buf);
                    black_box(buf.len());
                }
            }),
        ));
        out.push((
            decode,
            ns_per_op(n, || {
                for _ in 0..n {
                    let mut stream = black_box(&buf[..]);
                    match Frame::read_from(&mut stream) {
                        Ok(Decoded::Frame(f)) => assert_eq!(f.payload.len(), bytes),
                        other => panic!("frame did not decode: {other:?}"),
                    }
                }
            }),
        ));
    }
}

/// What the kernel charges for the message path, the library left
/// out: one `send` and one `recv` of 256 B on a connected loopback TCP
/// pair with `TCP_NODELAY`, both ends in this thread. 64 sends, then 64
/// receives, so neither call ever blocks.
fn kernel_rungs(out: &mut Vec<(&'static str, f64)>) -> std::io::Result<()> {
    const BURST: usize = 64;
    const ROUNDS: usize = 200;
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let mut tx = TcpStream::connect(listener.local_addr()?)?;
    let (mut rx, _) = listener.accept()?;
    tx.set_nodelay(true)?;
    let mut buf = [0x5Au8; 256];
    let (mut send_ns, mut recv_ns) = (Vec::new(), Vec::new());
    for _ in 0..=BATCHES {
        let (mut sending, mut receiving) = (Duration::ZERO, Duration::ZERO);
        for _ in 0..ROUNDS {
            let t = Instant::now();
            for _ in 0..BURST {
                tx.write_all(&buf)?;
            }
            sending += t.elapsed();
            let t = Instant::now();
            for _ in 0..BURST {
                rx.read_exact(&mut buf)?;
            }
            receiving += t.elapsed();
        }
        let calls = (ROUNDS * BURST) as f64;
        send_ns.push(sending.as_nanos() as f64 / calls);
        recv_ns.push(receiving.as_nanos() as f64 / calls);
    }
    // The first batch is the untimed one.
    out.push(("kernel.send_256B_ns", median(&send_ns[1..])));
    out.push(("kernel.recv_256B_ns", median(&recv_ns[1..])));
    Ok(())
}

/// Every rung, in ladder order.
pub fn measure_all() -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    sync_rungs(&mut out);
    hashtable_rung(&mut out);
    sched_rungs(&mut out);
    mempool_rung(&mut out);
    termdet_rung(&mut out);
    runtime_rungs(&mut out);
    core_rungs(&mut out);
    net_rungs(&mut out);
    if let Err(e) = kernel_rungs(&mut out) {
        // The two metrics then read as missing and the run as failed.
        eprintln!("loopback socket pair failed: {e}");
    }
    out
}
