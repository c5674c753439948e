//! The 4-counter wave over a transport: fenced epochs, coordinator
//! reductions, and per-rank clients.
//!
//! The rule is `ttg_termdet::WaveRule`, the one a runtime on its own
//! runs in its `WaveBoard`; here its inputs and verdicts are control
//! traffic over the [`Transport`]. Each `Runtime::wait` announces fence
//! entry ([`TermWave::enter_fence`]) to rank 0, which hosts the
//! coordinator: it feeds the rule the ranks' fence entries and
//! contributions and broadcasts the rounds it opens and the epochs it
//! ends. No round of epoch *e* opens before every rank fenced into *e*
//! (a rank idle at (0, 0) before it seeded anything must not end a
//! session its peers still send in), and counters are cumulative across
//! epochs, so messages of epoch *e+1* that reach a rank still in *e*
//! are early work for the next session, not a corrupted reduction.
//!
//! # Aborts (DESIGN.md §8)
//!
//! The wave can *give up* on an epoch instead of spinning forever on
//! control frames that will never arrive:
//!
//! * a failed control send aborts the epoch on the spot (the link is
//!   gone; waiting cannot help);
//! * [`NetWave::poison`] — called when the transport declares a peer
//!   dead — aborts the current epoch *and* every future one, so a
//!   poisoned mesh fails fast instead of fencing into a hang;
//! * an optional **stall timeout** (`TTG_NET_STALL_MS`) catches the
//!   cases connection state cannot: a lost data frame leaves the
//!   counters permanently unbalanced (coordinator detects unchanged
//!   unbalanced totals), a lost round-begin leaves a fenced client
//!   permanently idle (client detects wave silence).
//!
//! An abort latches the terminated flag — so workers drain and the
//! fence completes — and records a diagnostic that
//! `Runtime::run` surfaces as `RunError::Aborted`. Rank aborts are
//! broadcast as [`FrameKind::Abort`] control frames; receivers latch
//! without re-broadcasting, so there is no abort storm. The coordinator
//! abandons the aborted epoch in its rule, which turns it over once
//! every rank has fenced into it, so the next epoch runs normally.
//!
//! Lock discipline: the client and coordinator states are separate
//! mutexes and **no send (or cross-state call) happens while either is
//! held** — decisions are computed under the lock, transmissions happen
//! after it drops. This is what makes the rank-0 direct-call path (its
//! client talks to the in-process coordinator without a socket) free of
//! lock-order cycles.

use crate::frame::{Frame, FrameKind};
use crate::transport::Transport;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};
use ttg_termdet::{TermWave, WaveRule, WaveStep};

/// Per-rank state of the wave client.
#[derive(Debug)]
struct ClientState {
    /// Current session epoch (advances at `reset`).
    epoch: u64,
    /// Fence entered for this epoch (makes `enter_fence` idempotent).
    entered: bool,
    /// A round the coordinator opened and we have not yet contributed
    /// to; consumed by the first locally-quiescent `try_contribute`.
    pending_round: Option<u64>,
    /// Highest round seen this epoch (drops reordered `RoundBegin`s).
    last_round: u64,
    /// Last time the wave showed signs of life (fence entry, round
    /// begin, contribution, termination) — the client-side stall timer.
    last_activity: Instant,
    /// Diagnostic of the abort that ended the current epoch, if any.
    aborted: Option<String>,
    /// An abort of the epoch after this client's, from a peer that
    /// already turned over: latched when `reset` gets there (the peer's
    /// `Abort` frame does not come again).
    next_abort: Option<(u64, String)>,
}

/// Coordinator state (lives on rank 0 only): the rule, and the stall
/// timer that reads the sums of the rounds it closes.
#[derive(Debug)]
struct CoordState {
    rule: WaveRule,
    /// Unbalanced sums repeating verbatim since this instant — a
    /// permanently lost data frame cycles rounds forever with identical
    /// unbalanced sums.
    stagnant: Option<((u64, u64), Instant)>,
}

impl CoordState {
    /// Feeds the stall timer the sums of the round `step` closed; returns
    /// the diagnostic once the same unbalanced sums have repeated for
    /// longer than `stall`.
    fn stalled(&mut self, step: WaveStep, stall: Option<Duration>) -> Option<String> {
        match step {
            WaveStep::Wait => None,
            WaveStep::Round {
                closed: Some(sums), ..
            } if sums.0 != sums.1 => {
                if self.stagnant.is_none_or(|(s, _)| s != sums) {
                    self.stagnant = Some((sums, Instant::now()));
                }
                let since = self.stagnant?.1.elapsed();
                (since > stall?).then(|| {
                    format!(
                        "wave stalled: totals sent={} received={} unchanged for {since:?} \
                         (a data frame was lost)",
                        sums.0, sums.1
                    )
                })
            }
            _ => {
                self.stagnant = None;
                None
            }
        }
    }
}

/// A [`TermWave`] implementation that reduces counters over a
/// [`Transport`]. One instance per rank; the rank-0 instance also hosts
/// the coordinator.
pub struct NetWave {
    rank: usize,
    nranks: usize,
    out: OnceLock<Arc<dyn Transport>>,
    state: Mutex<ClientState>,
    coord: Option<Mutex<CoordState>>,
    terminated: AtomicBool,
    /// A dead peer poisons every epoch, current and future.
    poison_reason: Mutex<Option<String>>,
    /// Opt-in wave-progress deadline (`TTG_NET_STALL_MS`).
    stall: Option<Duration>,
}

impl NetWave {
    /// Creates the wave endpoint for `rank` of `nranks`; with a `stall`
    /// deadline, a fenced epoch making no progress for that long aborts
    /// instead of hanging. The transport must be bound with
    /// [`NetWave::bind_transport`] before the first `wait` (control
    /// frames spin briefly waiting for it otherwise).
    pub fn with_stall(rank: usize, nranks: usize, stall: Option<Duration>) -> Arc<NetWave> {
        assert!(rank < nranks, "rank {rank} out of range for {nranks} ranks");
        Arc::new(NetWave {
            rank,
            nranks,
            out: OnceLock::new(),
            state: Mutex::new(ClientState {
                epoch: 0,
                entered: false,
                pending_round: None,
                last_round: 0,
                last_activity: Instant::now(),
                aborted: None,
                next_abort: None,
            }),
            coord: (rank == 0).then(|| {
                Mutex::new(CoordState {
                    rule: WaveRule::new(nranks),
                    stagnant: None,
                })
            }),
            terminated: AtomicBool::new(false),
            poison_reason: Mutex::new(None),
            stall,
        })
    }

    /// Binds the transport control frames travel over.
    pub fn bind_transport(&self, transport: Arc<dyn Transport>) {
        assert_eq!(transport.rank(), self.rank, "transport rank mismatch");
        assert_eq!(transport.nranks(), self.nranks, "transport size mismatch");
        self.out
            .set(transport)
            .unwrap_or_else(|_| panic!("transport already bound"));
    }

    /// This endpoint's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the job.
    pub fn nranks(&self) -> usize {
        self.nranks
    }

    /// Current epoch (diagnostics).
    pub fn epoch(&self) -> u64 {
        self.state.lock().epoch
    }

    fn transport(&self) -> Arc<dyn Transport> {
        // Bound during construction, before any peer can possibly send;
        // the spin only covers the construction window itself.
        loop {
            if let Some(t) = self.out.get() {
                return Arc::clone(t);
            }
            std::thread::yield_now();
        }
    }

    /// Ingestion point for control frames arriving over the transport.
    /// The payload is remote-controlled: every parse is guarded, and a
    /// malformed or unexpected frame is dropped, never a panic.
    pub fn on_control(&self, src: usize, frame: Frame) {
        let _ = src;
        match frame.kind {
            FrameKind::EnterFence => {
                let rank = frame.handler as usize;
                if let (Some(&epoch), true) = (frame.words().first(), rank < self.nranks) {
                    self.coord_enter_fence(rank, epoch);
                }
            }
            FrameKind::Contribute => {
                let rank = frame.handler as usize;
                let words = frame.words();
                if let (&[epoch, round, sent, received], true) = (&words[..], rank < self.nranks) {
                    self.coord_contribute(rank, epoch, round, (sent, received));
                }
            }
            FrameKind::RoundBegin => {
                if let Some(&epoch) = frame.words().first() {
                    self.client_round_begin(epoch, frame.handler as u64);
                }
            }
            FrameKind::Terminated => {
                if let Some(&epoch) = frame.words().first() {
                    self.client_terminated(epoch);
                }
            }
            FrameKind::Abort => {
                if frame.payload.len() >= 8 {
                    let epoch =
                        u64::from_le_bytes(frame.payload[..8].try_into().expect("sliced 8 bytes"));
                    let reason = String::from_utf8_lossy(&frame.payload[8..]).into_owned();
                    // Latch, don't re-broadcast: the originator already
                    // told everyone.
                    self.abort_epoch(epoch, &reason, false);
                }
            }
            // Data/handshake/liveness/ack traffic is not wave business;
            // a peer sending it here is confused, not lethal.
            FrameKind::Data
            | FrameKind::Hello
            | FrameKind::Goodbye
            | FrameKind::Heartbeat
            | FrameKind::Ack => {}
        }
    }

    // ---- abort path ------------------------------------------------------

    /// Gives up on `epoch`: latches termination (so workers drain and
    /// the fence completes) with a diagnostic instead of an
    /// announcement. `broadcast` sends the abort to every peer —
    /// best-effort, failures ignored (we are already aborting; the
    /// latch is set first, so there is no recursion).
    pub fn abort_epoch(&self, epoch: u64, reason: &str, broadcast: bool) {
        if let Some(coord) = &self.coord {
            // Every abort the coordinator learns of passes here: its own,
            // a peer's `Abort`, a stall verdict, a failed round broadcast.
            let step = coord.lock().rule.abandon(epoch);
            self.broadcast(step);
        }
        {
            let mut st = self.state.lock();
            if epoch > st.epoch {
                st.next_abort
                    .get_or_insert_with(|| (epoch, reason.to_string()));
            } else if st.epoch == epoch && st.aborted.is_none() {
                st.aborted = Some(reason.to_string());
                self.terminated.store(true, Ordering::Release);
            } else {
                // Stale (the epoch already turned over), or already
                // aborted: the first diagnostic wins.
                return;
            }
        }
        if broadcast {
            let mut payload = epoch.to_le_bytes().to_vec();
            payload.extend_from_slice(reason.as_bytes());
            let frame = Frame {
                payload,
                ..Frame::control(FrameKind::Abort, self.rank as u32)
            };
            let out = self.transport();
            for dst in 0..self.nranks {
                if dst != self.rank {
                    let _ = out.send(dst, frame.clone());
                }
            }
        }
    }

    /// A peer is gone for good: abort the current epoch and every
    /// future one (each `enter_fence` re-aborts), so the mesh fails
    /// fast with the original diagnostic instead of hanging later.
    pub fn poison(&self, reason: &str) {
        self.poison_reason
            .lock()
            .get_or_insert_with(|| reason.to_string());
        let epoch = self.state.lock().epoch;
        self.abort_epoch(epoch, reason, true);
    }

    // ---- client side ----------------------------------------------------

    fn client_round_begin(&self, epoch: u64, round: u64) {
        let mut st = self.state.lock();
        st.last_activity = Instant::now();
        if epoch > st.epoch {
            // A rank that restarted mid-epoch comes back with its epoch
            // counter reset to zero while the mesh is at epoch *e*. The
            // coordinator alone opens rounds, so a future-epoch
            // `RoundBegin` (the rejoin re-offer, or the next round of
            // an epoch this incarnation never saw) is authoritative:
            // fast-forward into the mesh's epoch and contribute. In
            // steady state this cannot fire — round *r* of epoch *e* is
            // only broadcast after every rank's `EnterFence(e)`, which
            // follows that rank's reset into *e*, and the per-link
            // channel is ordered.
            st.epoch = epoch;
            st.entered = true;
            st.last_round = round;
            st.pending_round = Some(round);
            return;
        }
        if st.epoch == epoch && round > st.last_round {
            st.last_round = round;
            st.pending_round = Some(round);
        }
    }

    fn client_terminated(&self, epoch: u64) {
        let mut st = self.state.lock();
        st.last_activity = Instant::now();
        if epoch >= st.epoch {
            // `>` only happens to a rank that restarted as the epoch
            // closed (see `client_round_begin` for why steady state
            // cannot produce a future-epoch verdict): adopt the mesh
            // epoch so the post-termination reset lands in sync.
            st.epoch = epoch;
            self.terminated.store(true, Ordering::Release);
        }
    }

    /// A peer rejoined after a connection drop. With the *same*
    /// incarnation nothing is needed: every wave control frame is
    /// sequenced, so whatever the peer missed was replayed by the
    /// transport. A *new* incarnation (the peer restarted) discarded
    /// the sender-side resend buffer with the old session, so a
    /// coordinator with a round in flight re-offers the current
    /// `RoundBegin` — otherwise the restarted rank never learns which
    /// round to contribute to and the reduction waits on it forever.
    pub fn peer_rejoined(&self, peer: usize, same_incarnation: bool) {
        if same_incarnation || peer == self.rank {
            return;
        }
        let Some(coord) = &self.coord else { return };
        let reoffer = coord.lock().rule.open_round();
        if let Some((epoch, round)) = reoffer {
            let frame = Frame::control_with_words(FrameKind::RoundBegin, round as u32, &[epoch]);
            let _ = self.transport().send(peer, frame);
        }
    }

    // ---- coordinator side (rank 0) --------------------------------------

    fn coord_enter_fence(&self, rank: usize, epoch: u64) {
        // A coordinator frame reaching a non-zero rank means the peer is
        // confused; dropping it is safe, killing the process is not.
        let Some(coord) = &self.coord else { return };
        let step = coord.lock().rule.fence(rank, epoch);
        self.broadcast(step);
    }

    fn coord_contribute(&self, rank: usize, epoch: u64, round: u64, totals: (u64, u64)) {
        let Some(coord) = &self.coord else { return };
        let (step, stalled) = {
            let mut st = coord.lock();
            let step = st.rule.contribute(rank, epoch, round, totals.0, totals.1);
            (step, st.stalled(step, self.stall))
        };
        match stalled {
            Some(reason) => self.abort_epoch(epoch, &reason, true),
            None => self.broadcast(step),
        }
    }

    /// Transmits a rule step to every rank. Rank 0's own copy is a
    /// direct call (no self-connection exists over TCP).
    fn broadcast(&self, step: WaveStep) {
        match step {
            WaveStep::Wait => {}
            WaveStep::Round { epoch, round, .. } => {
                let frame =
                    Frame::control_with_words(FrameKind::RoundBegin, round as u32, &[epoch]);
                if let Some(err) = self.fan_out(frame) {
                    // A round that cannot reach every rank can never
                    // complete; waiting on it would hang.
                    self.abort_epoch(epoch, &format!("round broadcast failed: {err}"), true);
                    return;
                }
                self.client_round_begin(epoch, round);
            }
            WaveStep::Done(epoch) => {
                let frame = Frame::control_with_words(FrameKind::Terminated, 0, &[epoch]);
                // Best-effort: the reduction already proved global
                // quiescence, so local termination stands even if a
                // peer's link died in the meantime.
                let _ = self.fan_out(frame);
                self.client_terminated(epoch);
            }
        }
    }

    /// Fans a control frame out to every other rank; returns the first
    /// send error instead of panicking.
    fn fan_out(&self, frame: Frame) -> Option<crate::error::NetError> {
        let out = self.transport();
        let mut first_err = None;
        for dst in 1..self.nranks {
            if let Err(e) = out.send(dst, frame.clone()) {
                first_err.get_or_insert(e);
            }
        }
        first_err
    }

    /// Sends a client control frame to the coordinator (direct call when
    /// we *are* rank 0). A failed send aborts `epoch`: the coordinator
    /// link is gone and the wave cannot complete without us.
    fn to_coordinator(&self, epoch: u64, frame: Frame) {
        if self.rank == 0 {
            self.on_control(0, frame);
        } else if let Err(e) = self.transport().send(0, frame) {
            self.abort_epoch(
                epoch,
                &format!("control send to coordinator failed: {e}"),
                true,
            );
        }
    }
}

impl TermWave for NetWave {
    fn try_contribute(&self, rank: usize, sent: u64, received: u64) -> bool {
        debug_assert_eq!(rank, self.rank);
        if self.terminated.load(Ordering::Acquire) {
            return true;
        }
        let (pending, stalled) = {
            let mut st = self.state.lock();
            let pending = st.pending_round.take().map(|round| (st.epoch, round));
            let stalled = match (pending.is_none() && st.entered, self.stall) {
                (true, Some(stall)) if st.last_activity.elapsed() > stall => Some((
                    st.epoch,
                    format!(
                        "wave stalled: fenced but silent for {:?} (control traffic lost)",
                        st.last_activity.elapsed()
                    ),
                )),
                _ => None,
            };
            if pending.is_some() {
                st.last_activity = Instant::now();
            }
            (pending, stalled)
        };
        if let Some((epoch, round)) = pending {
            self.to_coordinator(
                epoch,
                Frame::control_with_words(
                    FrameKind::Contribute,
                    self.rank as u32,
                    &[epoch, round, sent, received],
                ),
            );
        } else if let Some((epoch, reason)) = stalled {
            self.abort_epoch(epoch, &reason, true);
        }
        self.terminated.load(Ordering::Acquire)
    }

    fn is_terminated(&self) -> bool {
        self.terminated.load(Ordering::Acquire)
    }

    fn reset(&self) {
        let mut st = self.state.lock();
        st.epoch += 1;
        st.entered = false;
        st.pending_round = None;
        st.last_round = 0;
        st.last_activity = Instant::now();
        // The abort belonged to the epoch that just turned over; poison
        // (a dead peer) survives into the new one, and so does an abort
        // a peer already sent for it.
        let now = st.epoch;
        st.aborted = st
            .next_abort
            .take_if(|(epoch, _)| *epoch == now)
            .map(|(_, r)| r);
        // Set the latch under the state lock so no contribution can
        // observe the new epoch with the old latch.
        self.terminated
            .store(st.aborted.is_some(), Ordering::Release);
    }

    fn enter_fence(&self) {
        let epoch = {
            let mut st = self.state.lock();
            if st.entered {
                return;
            }
            st.entered = true;
            st.last_activity = Instant::now();
            st.epoch
        };
        // A poisoned mesh fails every epoch immediately: entering the
        // fence would otherwise wait on a peer that no longer exists.
        let poison = self.poison_reason.lock().clone();
        if let Some(reason) = poison {
            self.abort_epoch(epoch, &reason, true);
            return;
        }
        self.to_coordinator(
            epoch,
            Frame::control_with_words(FrameKind::EnterFence, self.rank as u32, &[epoch]),
        );
    }

    fn round(&self) -> u64 {
        self.state.lock().last_round
    }

    fn abort(&self, reason: &str) {
        let epoch = self.state.lock().epoch;
        self.abort_epoch(epoch, reason, true);
    }

    fn aborted(&self) -> Option<String> {
        self.state.lock().aborted.clone()
    }

    fn poisoned(&self) -> Option<String> {
        self.poison_reason.lock().clone()
    }
}

impl std::fmt::Debug for NetWave {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetWave")
            .field("rank", &self.rank)
            .field("nranks", &self.nranks)
            .field("coordinator", &self.coord.is_some())
            .field("terminated", &self.terminated.load(Ordering::Relaxed))
            .field("aborted", &self.state.lock().aborted.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::LocalTransport;

    /// Builds a fully wired in-process wave mesh: control frames from
    /// rank r reach rank s's NetWave through a LocalTransport.
    fn wave_mesh_stall(
        nranks: usize,
        stall: Option<Duration>,
    ) -> Vec<(Arc<NetWave>, Arc<dyn Transport>)> {
        let mesh = LocalTransport::mesh(nranks);
        let waves: Vec<Arc<NetWave>> = (0..nranks)
            .map(|r| NetWave::with_stall(r, nranks, stall))
            .collect();
        mesh.iter().zip(&waves).for_each(|(t, w)| {
            let w = Arc::clone(w);
            t.bind_sink(Arc::new(crate::transport::FnSink(move |src, frame| {
                w.on_control(src, frame)
            })));
        });
        mesh.into_iter()
            .zip(waves)
            .map(|(t, w)| {
                let t: Arc<dyn Transport> = Arc::new(t);
                w.bind_transport(Arc::clone(&t));
                (w, t)
            })
            .collect()
    }

    fn wave_mesh(nranks: usize) -> Vec<(Arc<NetWave>, Arc<dyn Transport>)> {
        wave_mesh_stall(nranks, None)
    }

    #[test]
    fn empty_epoch_terminates_after_all_ranks_fence() {
        let ranks = wave_mesh(3);
        // Nobody has fenced: contributing does nothing, no termination.
        assert!(!ranks[1].0.try_contribute(1, 0, 0));
        // Two ranks fence; still gated on the third.
        ranks[0].0.enter_fence();
        ranks[1].0.enter_fence();
        for (w, _) in &ranks {
            w.try_contribute(w.rank(), 0, 0);
        }
        assert!(ranks.iter().all(|(w, _)| !w.is_terminated()));
        // Third rank fences: round 1 opens; two stable rounds announce.
        ranks[2].0.enter_fence();
        for _ in 0..2 {
            for (w, _) in &ranks {
                w.try_contribute(w.rank(), 0, 0);
            }
        }
        assert!(ranks.iter().all(|(w, _)| w.is_terminated()));
    }

    #[test]
    fn unbalanced_counters_block_termination() {
        let ranks = wave_mesh(2);
        ranks[0].0.enter_fence();
        ranks[1].0.enter_fence();
        // Rank 0 claims a sent message rank 1 never received: rounds
        // keep cycling without announcing.
        for _ in 0..4 {
            ranks[0].0.try_contribute(0, 1, 0);
            ranks[1].0.try_contribute(1, 0, 0);
        }
        assert!(!ranks[0].0.is_terminated());
        assert!(!ranks[1].0.is_terminated());
        // The message lands: two stable balanced rounds → done.
        for _ in 0..3 {
            ranks[0].0.try_contribute(0, 1, 0);
            ranks[1].0.try_contribute(1, 0, 1);
        }
        assert!(ranks[0].0.is_terminated() && ranks[1].0.is_terminated());
    }

    #[test]
    fn epochs_turn_over_through_reset() {
        let ranks = wave_mesh(2);
        for epoch in 0..3u64 {
            assert_eq!(ranks[0].0.epoch(), epoch);
            ranks[0].0.enter_fence();
            ranks[0].0.enter_fence(); // idempotent
            ranks[1].0.enter_fence();
            // `&` (not `&&`): both ranks must keep contributing every
            // iteration or the round reduction never completes.
            while !(ranks[0].0.try_contribute(0, epoch, epoch) & ranks[1].0.try_contribute(1, 0, 0))
            {
            }
            ranks[0].0.reset();
            ranks[1].0.reset();
            assert!(!ranks[0].0.is_terminated());
        }
    }

    #[test]
    fn abort_latches_termination_and_propagates_to_peers() {
        let ranks = wave_mesh(3);
        ranks[1].0.abort("peer 2 exploded");
        // The aborting rank and every peer latch with the diagnostic.
        for (w, _) in &ranks {
            assert!(w.is_terminated(), "rank {} did not latch", w.rank());
            let reason = w.aborted().expect("abort reason recorded");
            assert!(reason.contains("peer 2 exploded"), "got: {reason}");
        }
        // Reset clears the abort: the next epoch starts clean.
        ranks[0].0.reset();
        assert!(ranks[0].0.aborted().is_none());
        assert!(!ranks[0].0.is_terminated());
    }

    #[test]
    fn poison_aborts_current_and_future_epochs() {
        let ranks = wave_mesh(2);
        ranks[0].0.poison("rank 1 is dead");
        assert!(ranks[0].0.is_terminated());
        assert!(ranks[0].0.aborted().unwrap().contains("dead"));
        // Next epoch: the fence re-aborts instead of hanging on a peer
        // that will never fence in.
        ranks[0].0.reset();
        assert!(ranks[0].0.aborted().is_none());
        ranks[0].0.enter_fence();
        assert!(ranks[0].0.is_terminated());
        assert!(ranks[0].0.aborted().unwrap().contains("dead"));
    }

    #[test]
    fn malformed_control_frames_are_ignored_not_fatal() {
        let ranks = wave_mesh(2);
        let w = &ranks[0].0;
        // Truncated payloads, out-of-range ranks, misdirected
        // coordinator traffic, stray liveness frames: all dropped.
        w.on_control(1, Frame::control(FrameKind::EnterFence, 1)); // no epoch word
        w.on_control(
            1,
            Frame::control_with_words(FrameKind::EnterFence, 99, &[0]),
        ); // bad rank
        w.on_control(1, Frame::control_with_words(FrameKind::Contribute, 1, &[0])); // short
        w.on_control(1, Frame::control(FrameKind::RoundBegin, 1)); // no epoch word
        w.on_control(1, Frame::control(FrameKind::Terminated, 0)); // no epoch word
        w.on_control(1, Frame::data(5, 0, vec![1, 2, 3])); // not control at all
        w.on_control(1, Frame::control(FrameKind::Heartbeat, 1));
        w.on_control(1, Frame::control(FrameKind::Abort, 1)); // epoch truncated
        ranks[1]
            .0
            .on_control(0, Frame::control_with_words(FrameKind::EnterFence, 0, &[0])); // coord frame at non-coordinator
        assert!(!w.is_terminated());
        assert!(w.aborted().is_none());
    }

    #[test]
    fn restarted_client_adopts_mesh_epoch_from_round_begin() {
        let ranks = wave_mesh(2);
        let w = &ranks[1].0;
        // The mesh is at epoch 5; this client restarted back at epoch 0.
        // The coordinator's (re-offered) RoundBegin is authoritative and
        // fast-forwards the client into the mesh's epoch.
        w.on_control(0, Frame::control_with_words(FrameKind::RoundBegin, 2, &[5]));
        assert_eq!(w.epoch(), 5);
        assert!(!w.is_terminated());
        // A stale round for the adopted epoch still does nothing...
        w.on_control(0, Frame::control_with_words(FrameKind::RoundBegin, 1, &[5]));
        assert_eq!(w.epoch(), 5);
        // ...and the epoch's verdict lands normally after adoption.
        w.on_control(0, Frame::control_with_words(FrameKind::Terminated, 0, &[5]));
        assert!(w.is_terminated());
    }

    #[test]
    fn coordinator_clamps_restarted_enter_fence_to_current_epoch() {
        let ranks = wave_mesh(2);
        for _ in 0..2u64 {
            ranks[0].0.enter_fence();
            ranks[1].0.enter_fence();
            while !(ranks[0].0.try_contribute(0, 0, 0) & ranks[1].0.try_contribute(1, 0, 0)) {}
            ranks[0].0.reset();
            ranks[1].0.reset();
        }
        // Rank 1 "restarted": its fence entry announces epoch 0 while
        // the mesh is at epoch 2. The coordinator must read it as entry
        // into the *current* epoch, or round 1 never opens.
        ranks[0].0.enter_fence();
        ranks[0]
            .0
            .on_control(1, Frame::control_with_words(FrameKind::EnterFence, 1, &[0]));
        for _ in 0..1000 {
            if ranks[0].0.try_contribute(0, 0, 0) & ranks[1].0.try_contribute(1, 0, 0) {
                break;
            }
        }
        assert!(ranks[0].0.is_terminated(), "epoch 2 never opened a round");
        assert!(ranks[1].0.is_terminated());
    }

    #[test]
    fn coordinator_stall_aborts_on_frozen_unbalanced_totals() {
        let ranks = wave_mesh_stall(2, Some(Duration::from_millis(50)));
        ranks[0].0.enter_fence();
        ranks[1].0.enter_fence();
        // A message rank 1 will never receive: totals stay 1 vs 0.
        let deadline = Instant::now() + Duration::from_secs(10);
        while !ranks[0].0.is_terminated() {
            assert!(Instant::now() < deadline, "stall abort never fired");
            ranks[0].0.try_contribute(0, 1, 0);
            ranks[1].0.try_contribute(1, 0, 0);
            std::thread::sleep(Duration::from_millis(5));
        }
        let reason = ranks[0].0.aborted().expect("stall abort recorded");
        assert!(reason.contains("stalled"), "got: {reason}");
        assert!(ranks[1].0.is_terminated(), "abort must reach the peer");
    }

    #[test]
    fn client_stall_aborts_when_the_wave_goes_silent() {
        let ranks = wave_mesh_stall(2, Some(Duration::from_millis(50)));
        // Rank 1 fences; rank 0 never does → no rounds ever open.
        ranks[1].0.enter_fence();
        let deadline = Instant::now() + Duration::from_secs(10);
        while !ranks[1].0.is_terminated() {
            assert!(Instant::now() < deadline, "client stall abort never fired");
            ranks[1].0.try_contribute(1, 0, 0);
            std::thread::sleep(Duration::from_millis(5));
        }
        let reason = ranks[1].0.aborted().expect("stall abort recorded");
        assert!(reason.contains("silent"), "got: {reason}");
    }

    #[test]
    fn concurrent_processes_with_message_exchange_terminate_exactly_once_done() {
        // Three ranks ping-pong a token a fixed number of times, each on
        // its own thread and fenced from the start; each polls its wave
        // once its part of the game is over. Termination must only occur
        // after every sent message has been received.
        use std::sync::atomic::AtomicU64;
        const PROCS: usize = 3;
        const HOPS: u64 = 50;
        let ranks = wave_mesh(PROCS);
        let sent: Arc<Vec<AtomicU64>> = Arc::new((0..PROCS).map(|_| AtomicU64::new(0)).collect());
        let recv: Arc<Vec<AtomicU64>> = Arc::new((0..PROCS).map(|_| AtomicU64::new(0)).collect());
        // The token value encodes both hop count and owner: owner is
        // token % PROCS; the game ends once token reaches HOPS*PROCS.
        let token = Arc::new(AtomicU64::new(0));
        let last = HOPS * PROCS as u64;
        let handles: Vec<_> = ranks
            .iter()
            .map(|(wave, _)| {
                let wave = Arc::clone(wave);
                let sent = Arc::clone(&sent);
                let recv = Arc::clone(&recv);
                let token = Arc::clone(&token);
                std::thread::spawn(move || {
                    let rank = wave.rank();
                    wave.enter_fence();
                    loop {
                        let t = token.load(Ordering::Acquire);
                        let owner = (t % PROCS as u64) as usize;
                        if owner == rank {
                            if t != 0 {
                                // Receive the incoming token.
                                recv[rank].fetch_add(1, Ordering::Relaxed);
                            }
                            if t < last {
                                // Pass it on.
                                sent[rank].fetch_add(1, Ordering::Relaxed);
                                token.store(t + 1, Ordering::Release);
                            } else {
                                break; // game over; final receive recorded
                            }
                        } else if t >= last {
                            break; // not ours, game over
                        } else {
                            std::thread::yield_now();
                        }
                    }
                    // Idle: poll the wave until global termination.
                    while !wave.try_contribute(
                        rank,
                        sent[rank].load(Ordering::Relaxed),
                        recv[rank].load(Ordering::Relaxed),
                    ) {
                        std::thread::yield_now();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // All threads exited ⇒ the wave terminated, and it can only have
        // terminated with Σsent == Σrecv.
        assert!(ranks.iter().all(|(w, _)| w.is_terminated()));
        let s: u64 = sent.iter().map(|a| a.load(Ordering::Relaxed)).sum();
        let r: u64 = recv.iter().map(|a| a.load(Ordering::Relaxed)).sum();
        assert_eq!(s, r, "wave terminated with messages in flight");
    }

    #[test]
    fn an_abort_of_the_next_epoch_reaches_a_client_still_behind() {
        let ranks = wave_mesh(2);
        ranks[0].0.enter_fence();
        ranks[1].0.enter_fence();
        while !(ranks[0].0.try_contribute(0, 0, 0) & ranks[1].0.try_contribute(1, 0, 0)) {}
        // Rank 0 consumes epoch 0 and aborts epoch 1 while rank 1 still
        // holds epoch 0's latch.
        ranks[0].0.reset();
        ranks[0].0.abort("gave up on epoch 1");
        assert!(ranks[1].0.aborted().is_none(), "epoch 0 ended cleanly");
        ranks[1].0.reset();
        assert!(ranks[1].0.is_terminated());
        assert!(ranks[1].0.aborted().unwrap().contains("epoch 1"));
        // Both fence into the aborted epoch, turn over, and epoch 2 runs.
        for (w, _) in &ranks {
            w.enter_fence();
            w.reset();
            w.enter_fence();
        }
        while !(ranks[0].0.try_contribute(0, 0, 0) & ranks[1].0.try_contribute(1, 0, 0)) {}
        assert!(ranks.iter().all(|(w, _)| w.aborted().is_none()));
    }
}
