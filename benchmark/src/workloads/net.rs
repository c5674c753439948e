//! `burst` and `bulk` — a 2-rank `NetRuntime` mesh over real TCP
//! loopback sockets, both ranks hosted in this process with one worker
//! each. `burst` measures the per-message software cost of `ttg-net`,
//! `bulk` its per-byte cost.

use super::Workload;
use crate::inputs::{burst_fill, BulkInput, BurstInput, Size, BULK_BYTES};
use crate::spans::{SpanId, Tracer};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use ttg_net::tcp::ephemeral_listeners;
use ttg_net::{NetConfig, NetResult, NetRuntime, TcpTransport, Transport};
use ttg_runtime::RuntimeConfig;

const RANKS: usize = 2;

/// Both ranks of the job. What `NetRuntime::connect_tcp` builds, on
/// listeners the OS picked so that runs never collide on a port, and
/// with the built-in `NetConfig` so the environment cannot change it.
pub struct Mesh {
    ranks: Vec<NetRuntime>,
}

impl Mesh {
    pub fn connect() -> NetResult<Mesh> {
        let (listeners, addrs) =
            ephemeral_listeners(RANKS).map_err(|e| ttg_net::NetError::io(&e))?;
        // Rank 1 dials rank 0 while rank 0 waits for it: connect both
        // at once.
        let joins: Vec<_> = listeners
            .into_iter()
            .enumerate()
            .map(|(rank, listener)| {
                let addrs = addrs.clone();
                std::thread::spawn(move || {
                    let cfg = NetConfig::builtin();
                    NetRuntime::over_transport_with(
                        RuntimeConfig::optimized(1),
                        &cfg,
                        rank,
                        RANKS,
                        |sink| {
                            TcpTransport::with_listener_cfg(
                                rank,
                                listener,
                                &addrs,
                                sink,
                                cfg.clone(),
                            )
                            .map(|t| t as Arc<dyn Transport>)
                        },
                    )
                })
            })
            .collect();
        let ranks = joins
            .into_iter()
            .map(|j| j.join().expect("mesh connect thread panicked"))
            .collect::<NetResult<Vec<_>>>()?;
        Ok(Mesh { ranks })
    }

    fn rank(&self, r: usize) -> &NetRuntime {
        &self.ranks[r]
    }

    /// Ends the epoch: every rank fences, then every rank is waited on
    /// (all must fence before any is waited on). False if any rank's
    /// session ended with an error.
    fn fence_and_wait(&self, tr: &mut Tracer, parent: SpanId, request: u64) -> bool {
        tr.span("fence", parent, request, || {
            self.ranks.iter().for_each(NetRuntime::fence)
        });
        // `count`, not `all`: every rank has to consume its epoch's end,
        // also after another rank reported an error.
        tr.span("wait", parent, request, || {
            self.ranks.iter().filter(|m| m.run().is_err()).count() == 0
        })
    }
}

impl Drop for Mesh {
    fn drop(&mut self) {
        for m in &self.ranks {
            m.shutdown();
        }
    }
}

/// What one rank received in the current epoch.
#[derive(Default)]
struct Tally {
    received: AtomicU64,
    bad: AtomicU64,
}

pub struct Burst {
    input: Arc<BurstInput>,
    mesh: Mesh,
    tallies: Arc<[Tally; RANKS]>,
    epoch_ok: bool,
}

/// True when `payload` is exactly a message rank `from` sends in an
/// epoch: a known sequence number, that message's size, its fill byte.
pub fn check_burst_payload(input: &BurstInput, from: usize, payload: &[u8]) -> bool {
    let Some(head) = payload.get(..8) else {
        return false;
    };
    let i = u64::from_le_bytes(head.try_into().expect("8 bytes")) as usize;
    i < input.sizes.len()
        && payload.len() == usize::from(input.sizes[i])
        && payload[8..]
            .iter()
            .all(|&b| b == burst_fill(input.salt, from, i))
}

impl Burst {
    pub fn new(seed: u64, size: Size) -> Self {
        let input = Arc::new(BurstInput::generate(seed, size));
        let mesh = Mesh::connect().expect("loopback TCP mesh");
        let tallies: Arc<[Tally; RANKS]> = Arc::default();
        for r in 0..RANKS {
            let (input, tallies) = (Arc::clone(&input), Arc::clone(&tallies));
            mesh.rank(r)
                .runtime()
                .register_handler(move |ctx, payload| {
                    let me = ctx.rank();
                    // Relaxed: read only after the epoch's `wait()` returned.
                    if !check_burst_payload(&input, 1 - me, &payload) {
                        tallies[me].bad.fetch_add(1, Ordering::Relaxed);
                    }
                    tallies[me].received.fetch_add(1, Ordering::Relaxed);
                });
        }
        Burst {
            input,
            mesh,
            tallies,
            epoch_ok: false,
        }
    }

    fn messages(&self) -> u64 {
        (RANKS * self.input.sizes.len()) as u64
    }
}

impl Workload for Burst {
    fn rep(&mut self, tr: &mut Tracer, rep: u64) -> u64 {
        for t in self.tallies.iter() {
            t.received.store(0, Ordering::Relaxed);
            t.bad.store(0, Ordering::Relaxed);
        }
        let root = tr.begin("rep", SpanId::NONE, rep);
        for i in 0..self.input.sizes.len() {
            for from in 0..RANKS {
                let payload = self.input.payload(from, i);
                tr.span("send_msg", root, rep, || {
                    self.mesh
                        .rank(from)
                        .runtime()
                        .send_msg(1 - from, 0, 0, payload)
                });
            }
        }
        self.epoch_ok = self.mesh.fence_and_wait(tr, root, rep);
        tr.end(root);
        self.messages()
    }

    fn check(&mut self) -> u64 {
        if !self.epoch_ok {
            return self.messages();
        }
        self.tallies
            .iter()
            .map(|t| {
                let sent = self.input.sizes.len() as u64;
                let received = t.received.load(Ordering::Relaxed);
                sent.abs_diff(received) + t.bad.load(Ordering::Relaxed)
            })
            .sum()
    }

    fn spans_per_rep(&self) -> usize {
        3 + self.messages() as usize
    }

    fn extras(&mut self) -> Vec<(&'static str, f64)> {
        vec![("payload_bytes_per_rep", self.input.payload_bytes() as f64)]
    }
}

/// State the bounce handlers share with the generator.
#[derive(Default)]
struct Bounce {
    hops: AtomicU64,
    bad: AtomicU64,
    /// While set, handlers time their own `send_msg` calls: they run on
    /// the ranks' workers, where the generator's tracer cannot reach.
    time_sends: AtomicBool,
    send_ns: AtomicU64,
    sends: AtomicU64,
}

pub struct Bulk {
    input: Arc<BulkInput>,
    mesh: Mesh,
    bounce: Arc<Bounce>,
    epoch_ok: bool,
}

/// Handler id of the 64 KiB bounce; the 8-byte bounce registers second.
const BULK_HANDLER: u32 = 0;
const SMALL_HANDLER: u32 = 1;
/// Round trips of the informational 8-byte ping-pong.
const SMALL_ROUND_TRIPS: u64 = 1_000;

/// True when `payload` is the 64 KiB message with everything after the
/// hop counter intact.
pub fn check_bulk_payload(input: &BulkInput, payload: &[u8]) -> bool {
    payload.len() == BULK_BYTES && payload[8..] == input.pattern[8..]
}

impl Bulk {
    pub fn new(seed: u64, size: Size) -> Self {
        let input = Arc::new(BulkInput::generate(seed, size));
        let mesh = Mesh::connect().expect("loopback TCP mesh");
        let bounce: Arc<Bounce> = Arc::default();
        for r in 0..RANKS {
            for handler in [BULK_HANDLER, SMALL_HANDLER] {
                let (input, bounce) = (Arc::clone(&input), Arc::clone(&bounce));
                let id = mesh
                    .rank(r)
                    .runtime()
                    .register_handler(move |ctx, mut payload| {
                        // Relaxed throughout: read after `wait()` returned.
                        bounce.hops.fetch_add(1, Ordering::Relaxed);
                        let intact = if handler == BULK_HANDLER {
                            check_bulk_payload(&input, &payload)
                        } else {
                            payload.len() == 8
                        };
                        if !intact {
                            bounce.bad.fetch_add(1, Ordering::Relaxed);
                            return;
                        }
                        let left = u64::from_le_bytes(payload[..8].try_into().expect("8 bytes"));
                        if left == 0 {
                            return;
                        }
                        payload[..8].copy_from_slice(&(left - 1).to_le_bytes());
                        let peer = 1 - ctx.rank();
                        if bounce.time_sends.load(Ordering::Relaxed) {
                            let t = Instant::now();
                            ctx.send_msg(peer, 0, handler, payload);
                            bounce
                                .send_ns
                                .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
                            bounce.sends.fetch_add(1, Ordering::Relaxed);
                        } else {
                            ctx.send_msg(peer, 0, handler, payload);
                        }
                    });
                assert_eq!(id, handler, "handlers register in id order");
            }
        }
        Bulk {
            input,
            mesh,
            bounce,
            epoch_ok: false,
        }
    }

    fn messages(&self) -> u64 {
        2 * self.input.round_trips
    }

    /// Sends `first` from rank 0 and lets the handlers bounce it until
    /// its hop counter reaches zero; one message is in flight throughout.
    fn ping_pong(
        &mut self,
        handler: u32,
        mut first: Vec<u8>,
        hops: u64,
        tr: &mut Tracer,
        rep: u64,
    ) {
        self.bounce.hops.store(0, Ordering::Relaxed);
        self.bounce.bad.store(0, Ordering::Relaxed);
        self.bounce
            .time_sends
            .store(tr.enabled(), Ordering::Relaxed);
        first[..8].copy_from_slice(&(hops - 1).to_le_bytes());
        let root = tr.begin("rep", SpanId::NONE, rep);
        tr.span("send_msg", root, rep, || {
            self.mesh.rank(0).runtime().send_msg(1, 0, handler, first)
        });
        self.epoch_ok = self.mesh.fence_and_wait(tr, root, rep);
        tr.end(root);
    }
}

impl Workload for Bulk {
    fn rep(&mut self, tr: &mut Tracer, rep: u64) -> u64 {
        let first = self.input.pattern.clone();
        self.ping_pong(BULK_HANDLER, first, self.messages(), tr, rep);
        self.messages()
    }

    fn check(&mut self) -> u64 {
        if !self.epoch_ok {
            return self.messages();
        }
        let hops = self.bounce.hops.load(Ordering::Relaxed);
        self.messages().abs_diff(hops) + self.bounce.bad.load(Ordering::Relaxed)
    }

    fn spans_per_rep(&self) -> usize {
        4
    }

    fn extras(&mut self) -> Vec<(&'static str, f64)> {
        let sends = self.bounce.sends.load(Ordering::Relaxed).max(1);
        let send_ns = self.bounce.send_ns.load(Ordering::Relaxed) as f64 / sends as f64;
        // Informational only: this latency sits in a 14 µs or a 36 µs
        // mode for whole runs on the reference host.
        let hops = 2 * SMALL_ROUND_TRIPS;
        let t = Instant::now();
        self.ping_pong(
            SMALL_HANDLER,
            vec![0u8; 8],
            hops,
            &mut Tracer::disabled(),
            0,
        );
        let oneway_us = t.elapsed().as_secs_f64() * 1e6 / hops as f64;
        vec![
            ("handler_send_call_ns", send_ns),
            ("oneway_8B_us", oneway_us),
            (
                "payload_bytes_per_rep",
                (self.messages() * BULK_BYTES as u64) as f64,
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_check_rejects_truncated_refilled_and_misattributed_payloads() {
        let input = BurstInput::generate(5, Size::Quick);
        let i = (0..input.sizes.len())
            .find(|&i| input.sizes[i] > 16)
            .expect("a message with a body");
        let good = input.payload(0, i);
        assert!(check_burst_payload(&input, 0, &good));
        assert!(!check_burst_payload(&input, 1, &good), "wrong sender");
        assert!(!check_burst_payload(&input, 0, &good[..good.len() - 1]));
        assert!(!check_burst_payload(&input, 0, &good[..4]));
        let mut flipped = good.clone();
        *flipped.last_mut().expect("non-empty") ^= 0x80;
        assert!(!check_burst_payload(&input, 0, &flipped));
        let mut renumbered = good;
        renumbered[..8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(!check_burst_payload(&input, 0, &renumbered));
    }

    #[test]
    fn burst_reports_lost_and_damaged_messages() {
        let mut b = Burst::new(5, Size::Quick);
        b.rep(&mut Tracer::disabled(), 0);
        assert_eq!(b.check(), 0);
        b.tallies[0].received.fetch_sub(2, Ordering::Relaxed);
        b.tallies[1].bad.fetch_add(3, Ordering::Relaxed);
        assert_eq!(b.check(), 5);
        b.epoch_ok = false;
        assert_eq!(b.check(), b.messages());
    }

    #[test]
    fn bulk_check_rejects_a_flipped_byte_and_reports_missing_hops() {
        let mut b = Bulk::new(5, Size::Quick);
        b.rep(&mut Tracer::disabled(), 0);
        assert_eq!(b.check(), 0);
        let mut payload = b.input.pattern.clone();
        payload[..8].copy_from_slice(&7u64.to_le_bytes());
        assert!(
            check_bulk_payload(&b.input, &payload),
            "hop counter is free"
        );
        payload[BULK_BYTES / 2] ^= 1;
        assert!(!check_bulk_payload(&b.input, &payload));
        assert!(!check_bulk_payload(&b.input, &payload[..100]));
        b.bounce.hops.fetch_sub(1, Ordering::Relaxed);
        assert_eq!(b.check(), 1);
        let extras = b.extras();
        assert!(extras.iter().any(|(n, v)| *n == "oneway_8B_us" && *v > 0.0));
    }
}
