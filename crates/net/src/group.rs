//! Gluing a [`ttg_runtime::Runtime`] to a [`Transport`] and a
//! [`NetWave`]: one fully distributed rank, plus the in-process
//! [`NetGroup`] that runs all ranks of a job in one address space over
//! [`LocalTransport`] (the same protocol stack the TCP mode uses, minus
//! the sockets — it is what every in-process multi-rank test, bench
//! and example runs on, so a real-socket run differs from it in the
//! transport and in nothing else).
//!
//! Ownership is a tree: a [`NetRuntime`] owns runtime, wave and
//! transport; the runtime holds wave and transport, the wave the
//! transport, the transport the sink — and the sink, which closes the
//! loop, holds runtime and wave weakly. So dropping a rank (or a group)
//! shuts its transport down and, with the last handle to the runtime,
//! joins its workers.
//!
//! Failures surface as typed values, not panics or hangs: a transport
//! that declares a peer dead poisons the wave and records a
//! [`RunError::PeerLost`] on the runtime, so [`NetRuntime::run`] (and
//! [`NetGroup::try_wait`]) return the diagnostic instead of waiting on
//! control frames that will never arrive.

use crate::config::NetConfig;
use crate::error::{NetError, NetResult};
use crate::fault::{FaultPlan, FaultyTransport};
use crate::frame::{Frame, FrameKind};
use crate::transport::{FrameSink, LocalTransport, Transport};
use crate::wave::NetWave;
use std::io;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Weak};
use ttg_runtime::{Arrival, FrameSender, NetStats, RunError, Runtime, RuntimeConfig};
use ttg_termdet::TermWave;

/// Adapts the runtime + wave pair into the transport's frame ingestion
/// point: data frames enter the runtime's injection queue as ready
/// tasks (everything one read decoded in one insertion), control frames
/// drive the wave protocol, and a lost peer poisons the wave and
/// records the typed error `Runtime::run` will return. Both handles are
/// weak — the transport that holds this sink is itself held by them —
/// and what arrives for a rank that is gone is dropped with it, as
/// `link_spmd` drops an arrival for a torn-down TT.
struct RuntimeSink {
    rt: Weak<Runtime>,
    wave: Weak<NetWave>,
}

impl RuntimeSink {
    /// Runs `f` on the rank this sink feeds, if it is still there.
    fn with(&self, f: impl FnOnce(&Runtime, &NetWave)) {
        if let (Some(rt), Some(wave)) = (self.rt.upgrade(), self.wave.upgrade()) {
            f(&rt, &wave);
        }
    }
}

/// What the runtime keeps of a `Data` frame.
fn arrival(frame: Frame) -> Arrival {
    debug_assert_eq!(frame.kind, FrameKind::Data);
    Arrival {
        handler: frame.handler,
        priority: frame.priority,
        payload: frame.payload,
        span: frame.span,
    }
}

impl FrameSink for RuntimeSink {
    fn deliver(&self, src: usize, frame: Frame) {
        self.with(|rt, wave| match frame.kind {
            FrameKind::Data => rt.deliver_frames(src, &mut std::iter::once(arrival(frame))),
            // Handshake/teardown/liveness frames are transport-level
            // concerns; a LocalTransport never produces them and the
            // TCP reader consumes them before the sink. Seeing one here
            // (e.g. a fault injector duplicating traffic) is harmless.
            FrameKind::Hello | FrameKind::Goodbye | FrameKind::Heartbeat => {}
            _ => wave.on_control(src, frame),
        })
    }

    fn deliver_data(&self, src: usize, frames: &mut Vec<Frame>) {
        let mut arrivals = frames.drain(..).map(arrival);
        self.with(|rt, _| rt.deliver_frames(src, &mut arrivals));
    }

    /// The rank's workers flush when the handler a delivery woke
    /// returns, or when they go idle (cork rule (d)), whichever is
    /// first.
    fn flush_soon(&self) -> bool {
        self.rt.upgrade().is_some_and(|rt| rt.flush_when_idle())
    }

    fn peer_lost(&self, peer: usize, error: &NetError) {
        self.with(|rt, wave| {
            rt.record_run_error(RunError::PeerLost {
                rank: peer,
                during: error.to_string(),
            });
            rt.notify_peer_dead(peer);
            // Poison (not a one-epoch abort): the peer is not coming
            // back, so every future fence must fail fast too.
            wave.poison(&format!("peer rank {peer} lost: {error}"));
        })
    }

    fn peer_recovering(&self, peer: usize) {
        self.with(|rt, _| rt.notify_peer_recovering(peer));
    }

    fn peer_rejoined(&self, peer: usize, same_incarnation: bool) {
        self.with(|rt, wave| {
            wave.peer_rejoined(peer, same_incarnation);
            rt.notify_peer_rejoined(peer, same_incarnation);
        })
    }

    fn peer_session_reset(&self, peer: usize, lost_sent: u64, lost_received: u64) {
        // Messages exchanged with the dead incarnation of `peer` can
        // never be matched; strike them from this rank's wave totals so
        // the reduction can re-balance with the new incarnation.
        let _ = peer;
        self.with(|rt, _| rt.retract_peer_messages(lost_sent, lost_received));
    }
}

/// Adapts the transport into the runtime's outbound message hook.
struct TransportSender(Arc<dyn Transport>);

impl FrameSender for TransportSender {
    fn send_data(
        &self,
        dst: usize,
        handler: u32,
        priority: i32,
        payload: Vec<u8>,
        span: u64,
    ) -> io::Result<()> {
        self.0
            .append(dst, Frame::data_with_span(handler, priority, payload, span))
            .map_err(|e| e.into_io())
    }

    fn flush(&self) {
        self.0.flush();
    }
}

/// One rank of a distributed job: a runtime whose remote messages
/// travel over a [`Transport`] and whose termination runs the fenced
/// wave protocol.
pub struct NetRuntime {
    rt: Arc<Runtime>,
    wave: Arc<NetWave>,
    transport: Arc<dyn Transport>,
}

impl NetRuntime {
    /// Assembles a rank over an arbitrary transport with the
    /// environment-driven [`NetConfig`]. `make_transport` receives the
    /// frame sink and must return the connected endpoint for (`rank`,
    /// `nranks`) — for TCP this is where the mesh dial happens, so the
    /// call may block until all peers are up.
    pub fn over_transport<E>(
        config: RuntimeConfig,
        rank: usize,
        nranks: usize,
        make_transport: impl FnOnce(Arc<dyn FrameSink>) -> Result<Arc<dyn Transport>, E>,
    ) -> Result<NetRuntime, E> {
        Self::over_transport_with(config, &NetConfig::default(), rank, nranks, make_transport)
    }

    /// [`NetRuntime::over_transport`] with an explicit [`NetConfig`]
    /// (the wave picks up `net_cfg.stall_timeout`; transports built
    /// inside `make_transport` configure themselves).
    pub fn over_transport_with<E>(
        config: RuntimeConfig,
        net_cfg: &NetConfig,
        rank: usize,
        nranks: usize,
        make_transport: impl FnOnce(Arc<dyn FrameSink>) -> Result<Arc<dyn Transport>, E>,
    ) -> Result<NetRuntime, E> {
        let wave = NetWave::with_stall(rank, nranks, net_cfg.stall_timeout);
        let rt = Arc::new(Runtime::with_termination(
            config,
            Arc::clone(&wave) as Arc<dyn ttg_termdet::TermWave>,
            rank,
        ));
        let sink: Arc<dyn FrameSink> = Arc::new(RuntimeSink {
            rt: Arc::downgrade(&rt),
            wave: Arc::downgrade(&wave),
        });
        let transport: Arc<dyn Transport> = make_transport(sink)?;
        wave.bind_transport(Arc::clone(&transport));
        rt.set_frame_sender(Arc::new(TransportSender(Arc::clone(&transport))));
        if transport.counters().is_some() {
            let t = Arc::clone(&transport);
            rt.set_net_stats_source(Arc::new(move || match t.counters() {
                Some(c) => NetStats {
                    frames_corrupt: c.frames_corrupt.load(Ordering::Relaxed),
                    heartbeats_sent: c.heartbeats_sent.load(Ordering::Relaxed),
                    peers_lost: c.peers_lost.load(Ordering::Relaxed),
                    reconnects: c.reconnects.load(Ordering::Relaxed),
                    rejoins: c.rejoins.load(Ordering::Relaxed),
                    frames_replayed: c.frames_replayed.load(Ordering::Relaxed),
                    frames_deduped: c.frames_deduped.load(Ordering::Relaxed),
                    resend_buffer_bytes: c.resend_buffer_bytes.load(Ordering::Relaxed),
                },
                None => NetStats::default(),
            }));
        }
        if let Some(wire) = transport.wire_obs() {
            rt.set_wire_stats_source(Arc::new(move || wire.snapshot()));
        }
        Ok(NetRuntime {
            rt,
            wave,
            transport,
        })
    }

    /// Connects this process as rank `rank` of an `nranks` TCP mesh on
    /// `127.0.0.1` ports `base_port..base_port + nranks`. Blocks until
    /// the mesh is fully connected. Uses the environment-driven
    /// [`NetConfig`]; see [`NetRuntime::connect_tcp_with`] for an
    /// explicit one and for the typed error.
    pub fn connect_tcp(
        config: RuntimeConfig,
        rank: usize,
        nranks: usize,
        base_port: u16,
    ) -> io::Result<NetRuntime> {
        Self::connect_tcp_with(config, NetConfig::default(), rank, nranks, base_port)
            .map_err(|e| e.into_io())
    }

    /// [`NetRuntime::connect_tcp`] with an explicit [`NetConfig`] and a
    /// typed [`NetError`] on failure.
    pub fn connect_tcp_with(
        config: RuntimeConfig,
        net_cfg: NetConfig,
        rank: usize,
        nranks: usize,
        base_port: u16,
    ) -> NetResult<NetRuntime> {
        let tcp_cfg = net_cfg.clone();
        Self::over_transport_with(config, &net_cfg, rank, nranks, |sink| {
            crate::tcp::TcpTransport::connect_mesh_cfg(rank, nranks, base_port, sink, tcp_cfg)
                .map(|t| t as Arc<dyn Transport>)
        })
    }

    /// The rank's runtime (submit work, register handlers, send
    /// messages, `wait()`/`run()` for the fenced global termination).
    pub fn runtime(&self) -> &Runtime {
        &self.rt
    }

    /// Shared handle to the runtime (e.g. for binding TTG graphs).
    pub fn runtime_arc(&self) -> Arc<Runtime> {
        Arc::clone(&self.rt)
    }

    /// The wave endpoint (diagnostics; `runtime().wait()` drives it).
    pub fn wave(&self) -> &Arc<NetWave> {
        &self.wave
    }

    /// The underlying transport (counters, shutdown).
    pub fn transport(&self) -> &Arc<dyn Transport> {
        &self.transport
    }

    /// Announces this rank's fence entry for the current epoch without
    /// blocking. When several ranks live in one process (tests, benches,
    /// [`NetGroup`]), every rank must fence **before** any is waited on;
    /// see [`NetGroup::wait`] for why.
    pub fn fence(&self) {
        self.transport.flush();
        self.wave.enter_fence();
    }

    /// Blocks until global termination of the current session
    /// (equivalent to `runtime().wait()`), discarding any failure
    /// diagnostic. Prefer [`NetRuntime::run`].
    pub fn wait(&self) {
        self.rt.wait();
    }

    /// Blocks until the current session ends: `Ok(())` on clean global
    /// termination, or the typed reason the epoch was given up on —
    /// [`RunError::PeerLost`] when the transport declared a peer dead,
    /// [`RunError::Aborted`] for wave-level failures (stall, lost
    /// control traffic, a peer's broadcast abort).
    pub fn run(&self) -> Result<(), RunError> {
        self.rt.run()
    }

    /// Tears down the transport and joins its threads. Call after the
    /// final `wait()`; dropping the rank does the same, a second call nothing.
    pub fn shutdown(&self) {
        self.transport.flush();
        self.transport.shutdown();
    }
}

impl Drop for NetRuntime {
    /// [`NetRuntime::shutdown`]; the runtime's last handle then joins its workers.
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for NetRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetRuntime")
            .field("rank", &self.rt.rank())
            .field("nranks", &self.wave.nranks())
            .finish_non_exhaustive()
    }
}

/// All ranks of a distributed job in one address space, wired through
/// [`LocalTransport`]: the full wave/fence protocol runs exactly as it
/// does over TCP, but frames are handed over synchronously in-process.
///
/// Template task graphs across its ranks: `ttg_core::dist`, and
/// `tests/dist_tests.rs` of this crate.
pub struct NetGroup {
    members: Vec<NetRuntime>,
}

impl NetGroup {
    /// Spawns `nranks` runtimes configured by `config_for(rank)`.
    pub fn local(nranks: usize, config_for: impl Fn(usize) -> RuntimeConfig) -> NetGroup {
        Self::local_faulty(
            nranks,
            &NetConfig::default(),
            &FaultPlan::none(),
            config_for,
        )
    }

    /// [`NetGroup::local`] with an explicit [`NetConfig`] and a
    /// [`FaultPlan`] executed on every rank's outgoing frames — the
    /// harness the chaos soak test drives: deterministic faults over
    /// the full protocol stack, in one process.
    pub fn local_faulty(
        nranks: usize,
        net_cfg: &NetConfig,
        plan: &FaultPlan,
        config_for: impl Fn(usize) -> RuntimeConfig,
    ) -> NetGroup {
        let nranks = nranks.max(1);
        let members = LocalTransport::mesh(nranks)
            .into_iter()
            .enumerate()
            .map(|(rank, transport)| {
                NetRuntime::over_transport_with(
                    config_for(rank),
                    net_cfg,
                    rank,
                    nranks,
                    |sink| -> Result<Arc<dyn Transport>, std::convert::Infallible> {
                        transport.bind_sink(sink);
                        let inner: Arc<dyn Transport> = Arc::new(transport);
                        Ok(if plan.is_empty() {
                            inner
                        } else {
                            FaultyTransport::new(inner, plan) as Arc<dyn Transport>
                        })
                    },
                )
                .unwrap()
            })
            .collect();
        NetGroup { members }
    }

    /// Number of ranks.
    pub fn nranks(&self) -> usize {
        self.members.len()
    }

    /// Access to the rank's assembled endpoint.
    pub fn member(&self, rank: usize) -> &NetRuntime {
        &self.members[rank]
    }

    /// Access to the runtime of `rank`.
    pub fn runtime(&self, rank: usize) -> &Runtime {
        self.members[rank].runtime()
    }

    /// Shared handle to the runtime of `rank`.
    pub fn runtime_arc(&self, rank: usize) -> Arc<Runtime> {
        self.members[rank].runtime_arc()
    }

    /// Blocks until global termination, discarding any failure
    /// diagnostics (prefer [`NetGroup::try_wait`]). All ranks must
    /// enter the fence **before** any of them is waited on: the
    /// coordinator only opens reduction rounds once every rank has
    /// fenced, so waiting rank 0 to completion first would deadlock
    /// against ranks that have not announced fence entry yet.
    pub fn wait(&self) {
        let _ = self.try_wait();
    }

    /// Blocks until every rank's session ends, returning the first
    /// rank's typed error if any epoch was aborted rather than cleanly
    /// terminated. Every rank is always driven to completion (each must
    /// consume its epoch turnover), even after an error.
    pub fn try_wait(&self) -> Result<(), RunError> {
        for m in &self.members {
            m.fence();
        }
        let mut first = None;
        for m in &self.members {
            if let Err(e) = m.run() {
                first.get_or_insert(e);
            }
        }
        match first {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Drains every rank's recorded timeline into one merged Chrome
    /// trace: one `pid` per rank on a shared timeline, with flow events
    /// linking frame send → receive across ranks. `None` unless at
    /// least one rank was configured with `trace: true`. Call after
    /// [`NetGroup::wait`] so the drain sees a quiescent job.
    pub fn chrome_trace(&self) -> Option<String> {
        // All ranks share this process's clock; any rank's anchor works
        // as the common timeline origin.
        let base = self
            .members
            .iter()
            .find_map(|m| m.runtime().trace_wall_anchor_ns())?;
        let parts: Vec<String> = self
            .members
            .iter()
            .filter_map(|m| m.runtime().chrome_trace_with_base(base))
            .collect();
        Some(ttg_runtime::obs::merge_chrome_traces(&parts))
    }

    /// Job-wide metrics: every rank's snapshot merged (counters add,
    /// histograms merge; the per-rank label drops out of the merge).
    pub fn metrics(&self) -> ttg_runtime::obs::MetricsSnapshot {
        let mut members = self.members.iter().map(|m| m.runtime().metrics());
        let mut merged = members.next().expect("group has at least one rank");
        for m in members {
            merged.merge(&m);
        }
        merged
    }
}

impl std::fmt::Debug for NetGroup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetGroup")
            .field("nranks", &self.members.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn zero_task_group_wait_returns() {
        // The zero-task shutdown race: every rank idles at (0, 0) from
        // the start; the fence must still gate termination until all
        // ranks entered, then announce cleanly.
        let group = NetGroup::local(3, |_| RuntimeConfig::optimized(1));
        group.wait();
        group.wait(); // and the epoch turnover must allow reuse
    }

    #[test]
    fn framed_messages_cross_ranks_and_terminate() {
        let group = NetGroup::local(2, |_| RuntimeConfig::optimized(2));
        let hits = Arc::new(AtomicU64::new(0));
        // SPMD registration: same order on every rank → same id.
        let ids: Vec<u32> = (0..2)
            .map(|r| {
                let hits = Arc::clone(&hits);
                group.runtime(r).register_handler(move |ctx, payload| {
                    assert_eq!(payload, vec![9, 9]);
                    hits.fetch_add(1 + ctx.rank() as u64, Ordering::Relaxed);
                })
            })
            .collect();
        assert_eq!(ids, vec![0, 0]);
        group.runtime(0).send_msg(1, 0, 0, vec![9, 9]);
        group.runtime(1).send_msg(0, 0, 0, vec![9, 9]);
        group.try_wait().expect("clean run");
        assert_eq!(hits.load(Ordering::Relaxed), 3); // ranks 0 and 1 hit once each
        let s0 = group.runtime(0).stats();
        assert_eq!(s0.messages_sent, 1);
        assert_eq!(s0.messages_received, 1);
        assert!(s0.bytes_on_wire >= 4, "2 payload bytes each way");
    }

    #[test]
    fn message_storm_ping_pong() {
        // Satellite stress test: a storm of messages bouncing between
        // ranks; termination must only fire once the storm dies out.
        const STORM: u64 = 200;
        let group = Arc::new(NetGroup::local(2, |_| RuntimeConfig::optimized(2)));
        let bounces = Arc::new(AtomicU64::new(0));
        for r in 0..2 {
            let bounces = Arc::clone(&bounces);
            let rt = group.runtime_arc(r);
            let id = group.runtime(r).register_handler(move |ctx, payload| {
                let n = u64::from_le_bytes(payload[..8].try_into().unwrap());
                bounces.fetch_add(1, Ordering::Relaxed);
                if n > 0 {
                    let peer = 1 - ctx.rank();
                    ctx.send_msg(peer, 0, 0, (n - 1).to_le_bytes().to_vec());
                }
            });
            assert_eq!(id, 0);
            drop(rt);
        }
        // Launch 4 concurrent storms from both sides.
        for k in 0..2u64 {
            group
                .runtime(0)
                .send_msg(1, 0, 0, (STORM + k).to_le_bytes().to_vec());
            group
                .runtime(1)
                .send_msg(0, 0, 0, (STORM - k).to_le_bytes().to_vec());
        }
        group.wait();
        let total: u64 = (0..4)
            .map(|k| [STORM, STORM + 1, STORM, STORM - 1][k] + 1)
            .sum();
        assert_eq!(bounces.load(Ordering::Relaxed), total);
        // Conservation: Σsent == Σreceived across the group.
        let (s, r) = (0..2)
            .map(|i| group.runtime(i).stats())
            .fold((0, 0), |a, st| {
                (a.0 + st.messages_sent, a.1 + st.messages_received)
            });
        assert_eq!(s, r, "wave terminated with messages unaccounted");
        assert_eq!(s, total);
    }

    #[test]
    fn multi_phase_reuse_with_work_between_waits() {
        let group = NetGroup::local(2, |_| RuntimeConfig::optimized(1));
        let sum = Arc::new(AtomicU64::new(0));
        for r in 0..2 {
            let sum = Arc::clone(&sum);
            group.runtime(r).register_handler(move |_ctx, payload| {
                sum.fetch_add(payload[0] as u64, Ordering::Relaxed);
            });
        }
        for phase in 1..=3u8 {
            group.runtime(0).send_msg(1, 0, 0, vec![phase]);
            group.wait();
            let want: u64 = (1..=phase as u64).sum();
            assert_eq!(sum.load(Ordering::Relaxed), want, "phase {phase}");
        }
    }

    #[test]
    fn severed_link_surfaces_a_typed_error_not_a_hang() {
        // Rank 0's very first frame to rank 1 hits a fault-injected
        // sever: the send fails, the epoch aborts, and try_wait returns
        // the typed diagnostic on every rank instead of hanging.
        let plan = FaultPlan::parse("0:sever@1->1").unwrap();
        let cfg =
            NetConfig::builtin().with_stall_timeout(Some(std::time::Duration::from_millis(500)));
        let group = NetGroup::local_faulty(2, &cfg, &plan, |_| RuntimeConfig::optimized(1));
        for r in 0..2 {
            group.runtime(r).register_handler(|_ctx, _payload| {});
        }
        group.runtime(0).send_msg(1, 0, 0, vec![1]);
        let err = group.try_wait().expect_err("sever must fail the epoch");
        match err {
            RunError::PeerLost { rank, .. } => assert_eq!(rank, 1),
            RunError::Aborted { ref reason } => {
                assert!(
                    reason.contains("sever") || reason.contains("failed"),
                    "{reason}"
                )
            }
        }
    }

    #[test]
    fn net_counters_flow_into_runtime_stats() {
        // A corrupt@-injected frame is rejected by CRC on delivery; the
        // counter must surface in RuntimeStats via the stats source, and
        // the lost frame must trip the stall detector (typed abort).
        let plan = FaultPlan::parse("0:corrupt@1->1").unwrap();
        let cfg =
            NetConfig::builtin().with_stall_timeout(Some(std::time::Duration::from_millis(300)));
        let group = NetGroup::local_faulty(2, &cfg, &plan, |_| RuntimeConfig::optimized(1));
        for r in 0..2 {
            group.runtime(r).register_handler(|_ctx, _payload| {});
        }
        group.runtime(0).send_msg(1, 0, 0, vec![7; 16]);
        let err = group.try_wait();
        assert!(err.is_err(), "a swallowed data frame must abort the epoch");
        assert_eq!(group.runtime(0).stats().frames_corrupt, 1);
    }
}
