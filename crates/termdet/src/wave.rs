//! The 4-counter wave algorithm for global (inter-process) termination.
//!
//! Paper Section III-A, following Bosilca et al. (IJNC'22): each process
//! locally tracks pending work and the numbers of messages sent and
//! received. When a process is locally quiescent it contributes its
//! (sent, received) totals to a reduction. When the reduced totals are
//! equal *and* identical for two consecutive reductions, no message can
//! still be in flight and global termination is announced.
//!
//! The rule exists once, in [`WaveRule`], a pure state machine with no
//! lock, clock or transport. `ttg_net::NetWave`'s coordinator drives it
//! for the ranks of a job with control frames; [`WaveBoard`] drives it
//! for a runtime on its own, under one mutex — "the communication of
//! local termination typically occurs infrequently". The protocol is the
//! same: an epoch's rounds open once every rank has entered its fence
//! (`Runtime::wait`), and its latched end is authoritative.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};

/// Global-termination interface the runtime polls: [`WaveBoard`] on its
/// own, a network transport's client of the same [`WaveRule`] on a rank.
pub trait TermWave: Send + Sync {
    /// Contributes `rank`'s cumulative (sent, received) message totals,
    /// valid only while that process is locally quiescent. Idle workers
    /// call this repeatedly; it counts only for an open round. Returns
    /// `true` once the current epoch has ended.
    fn try_contribute(&self, rank: usize, sent: u64, received: u64) -> bool;

    /// True once the current epoch has ended (terminated or aborted).
    fn is_terminated(&self) -> bool;

    /// Opens the next epoch after `wait()` consumed the end of this one.
    /// Callers guarantee no process is concurrently contributing to the
    /// old epoch.
    fn reset(&self);

    /// Announces that the application entered the termination fence
    /// (`Runtime::wait`): this rank has submitted all of its epoch's
    /// work. No round of the epoch opens before every rank has fenced.
    fn enter_fence(&self);

    /// Open reduction round of the current epoch (0: none), for
    /// diagnostics and tracing — a tracer records one contribution
    /// event per round instead of one per idle-loop spin.
    fn round(&self) -> u64;

    /// Gives up on the current epoch: latch its end (so the fence
    /// completes) with a diagnostic. A runtime on its own has no failure
    /// mode that needs this; the network wave aborts and broadcasts.
    fn abort(&self, reason: &str) {
        let _ = reason;
    }

    /// The diagnostic of the abort that ended the current epoch, if the
    /// epoch was aborted rather than cleanly terminated.
    fn aborted(&self) -> Option<String> {
        None
    }

    /// The diagnostic of a *persistent* failure (a lost peer never comes
    /// back): unlike [`TermWave::aborted`], poison outlives epoch
    /// turnover. The network wave reports the first peer loss here, the
    /// feed behind the live `/healthz` endpoint.
    fn poisoned(&self) -> Option<String> {
        None
    }
}

/// What a [`WaveRule`] transition asks its caller to announce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaveStep {
    /// Nothing to announce.
    Wait,
    /// A round is open.
    Round {
        /// Epoch the round belongs to.
        epoch: u64,
        /// The round now open (1 = the epoch's first).
        round: u64,
        /// (Σsent, Σreceived) of the round that just closed, if any.
        closed: Option<(u64, u64)>,
    },
    /// The epoch terminated: its sums were balanced and unchanged for
    /// two consecutive rounds.
    Done(u64),
}

/// §III-A's termination rule over fenced epochs. Epoch *e* opens its
/// first round once every rank has fenced into it; a round closes when
/// every rank contributed to it; the epoch ends when two consecutive
/// rounds close with the same balanced sums. An abandoned (aborted)
/// epoch opens no more rounds and turns over once every rank has fenced
/// into it — not before, or a late fence entry would be read as entry
/// into the next epoch.
#[derive(Debug, Clone)]
pub struct WaveRule {
    /// Epoch whose reduction runs (or waits for its fences).
    epoch: u64,
    /// Rank `r` has entered the fence of epoch `e` iff `fenced[r] > e`.
    fenced: Vec<u64>,
    /// Open round of the epoch (0: none).
    round: u64,
    /// Per-rank contributions to the open round.
    contributions: Vec<Option<(u64, u64)>>,
    /// Sums of the epoch's last closed round.
    last_sums: Option<(u64, u64)>,
    /// The epoch was abandoned: it ends without a verdict.
    abandoned: bool,
    /// Later epochs abandoned by a rank already in them, in ascending
    /// order: each is abandoned when the rule reaches it.
    abandoned_ahead: Vec<u64>,
}

impl WaveRule {
    /// A rule for `nranks` ranks (at least one), at epoch 0.
    pub fn new(nranks: usize) -> Self {
        let nranks = nranks.max(1);
        WaveRule {
            epoch: 0,
            fenced: vec![0; nranks],
            round: 0,
            contributions: vec![None; nranks],
            last_sums: None,
            abandoned: false,
            abandoned_ahead: Vec::new(),
        }
    }

    /// The epoch whose reduction runs or waits for its fences.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The open round as (epoch, round), if any.
    pub fn open_round(&self) -> Option<(u64, u64)> {
        (self.round > 0).then_some((self.epoch, self.round))
    }

    /// `rank` entered the fence of `epoch`. A lagging entry (a restarted
    /// rank's epoch counter, a late `EnterFence`) counts as entry into
    /// the current epoch.
    pub fn fence(&mut self, rank: usize, epoch: u64) -> WaveStep {
        self.fenced[rank] = self.fenced[rank].max(epoch.max(self.epoch) + 1);
        self.advance()
    }

    /// `rank` contributes its (sent, received) totals to `round` of
    /// `epoch`. A contribution to any other than the open round is stale
    /// and ignored.
    pub fn contribute(
        &mut self,
        rank: usize,
        epoch: u64,
        round: u64,
        sent: u64,
        received: u64,
    ) -> WaveStep {
        if self.open_round() != Some((epoch, round)) {
            return WaveStep::Wait;
        }
        self.contributions[rank] = Some((sent, received));
        if !self.contributions.iter().all(Option::is_some) {
            return WaveStep::Wait;
        }
        let sums = self
            .contributions
            .iter_mut()
            .map(|c| c.take().expect("every rank contributed"))
            .fold((0u64, 0u64), |a, c| (a.0 + c.0, a.1 + c.1));
        if sums.0 == sums.1 && self.last_sums == Some(sums) {
            self.close_epoch();
            self.turn_over();
            return WaveStep::Done(epoch);
        }
        self.last_sums = Some(sums);
        self.round += 1;
        WaveStep::Round {
            epoch,
            round: self.round,
            closed: Some(sums),
        }
    }

    /// Gives up on `epoch`: it opens no more rounds and turns over once
    /// every rank has fenced into it. An earlier epoch already ended and
    /// is left alone; a later one — a rank ahead of the rule aborted its
    /// own epoch — is remembered and abandoned when the rule reaches it.
    pub fn abandon(&mut self, epoch: u64) -> WaveStep {
        if epoch > self.epoch {
            if let Err(at) = self.abandoned_ahead.binary_search(&epoch) {
                self.abandoned_ahead.insert(at, epoch);
            }
            return WaveStep::Wait;
        }
        if epoch < self.epoch {
            return WaveStep::Wait;
        }
        self.abandoned = true;
        self.close_epoch();
        self.advance()
    }

    /// Moves to the next epoch, abandoned already if a rank aborted it
    /// while the rule was behind.
    fn turn_over(&mut self) {
        self.epoch += 1;
        if self.abandoned_ahead.first() == Some(&self.epoch) {
            self.abandoned_ahead.remove(0);
            self.abandoned = true;
        }
    }

    /// Once every rank has fenced into the current epoch, turns it over
    /// if it was abandoned, and opens its first round if not.
    fn advance(&mut self) -> WaveStep {
        if self.fenced.iter().any(|&f| f <= self.epoch) {
            return WaveStep::Wait;
        }
        if std::mem::take(&mut self.abandoned) {
            self.turn_over();
            return self.advance();
        }
        if self.round != 0 {
            return WaveStep::Wait;
        }
        self.round = 1;
        WaveStep::Round {
            epoch: self.epoch,
            round: 1,
            closed: None,
        }
    }

    /// Drops the epoch's open round and its history.
    fn close_epoch(&mut self) {
        self.round = 0;
        self.contributions.iter_mut().for_each(|c| *c = None);
        self.last_sums = None;
    }
}

/// The wave of a runtime on its own: the one-rank runner of a
/// [`WaveRule`]. An epoch's rounds open when `wait()` enters its fence;
/// each contribution closes one, and the second balanced one latches the
/// end until `wait()` consumes it ([`TermWave::reset`]). A fence entered
/// while latched re-arms the board for the next epoch: a waiter arriving
/// then may have submitted work after the end was observed.
#[derive(Debug)]
pub struct WaveBoard {
    rule: Mutex<WaveRule>,
    terminated: AtomicBool,
}

impl WaveBoard {
    /// A board at epoch 0, with no fence entered.
    pub fn new() -> Self {
        WaveBoard {
            rule: Mutex::new(WaveRule::new(1)),
            terminated: AtomicBool::new(false),
        }
    }
}

impl Default for WaveBoard {
    fn default() -> Self {
        Self::new()
    }
}

impl TermWave for WaveBoard {
    fn try_contribute(&self, rank: usize, sent: u64, received: u64) -> bool {
        if self.terminated.load(Ordering::Acquire) {
            return true;
        }
        let mut rule = self.rule.lock();
        let done = rule.open_round().is_some_and(|(epoch, round)| {
            rule.contribute(rank, epoch, round, sent, received) == WaveStep::Done(epoch)
        });
        // Another thread may have latched while this one took the lock.
        self.terminated.fetch_or(done, Ordering::AcqRel) || done
    }

    fn is_terminated(&self) -> bool {
        self.terminated.load(Ordering::Acquire)
    }

    fn reset(&self) {
        self.terminated.store(false, Ordering::Release);
    }

    fn enter_fence(&self) {
        let mut rule = self.rule.lock();
        // The latched epoch already turned over inside the rule, so
        // clearing the latch re-arms the board for the next one.
        self.terminated.store(false, Ordering::Release);
        let epoch = rule.epoch();
        rule.fence(0, epoch);
    }

    fn round(&self) -> u64 {
        self.rule.lock().open_round().map_or(0, |(_, round)| round)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every rank fences into the rule's current epoch; returns the
    /// step that opened round 1.
    fn fence_all(rule: &mut WaveRule, nranks: usize) -> WaveStep {
        let epoch = rule.epoch();
        (0..nranks).map(|r| rule.fence(r, epoch)).last().unwrap()
    }

    /// Contributes `totals[r]` for every rank to the open round.
    fn round_of(rule: &mut WaveRule, totals: &[(u64, u64)]) -> WaveStep {
        let (epoch, round) = rule.open_round().expect("a round is open");
        totals
            .iter()
            .enumerate()
            .map(|(r, &(s, v))| rule.contribute(r, epoch, round, s, v))
            .last()
            .unwrap()
    }

    #[test]
    fn one_rank_board_terminates_after_two_stable_rounds() {
        let board = WaveBoard::new();
        board.enter_fence();
        assert!(
            !board.try_contribute(0, 0, 0),
            "first round must not terminate"
        );
        assert!(
            board.try_contribute(0, 0, 0),
            "second stable round announces"
        );
        assert!(board.is_terminated());
        // Idempotent afterwards.
        assert!(board.try_contribute(0, 0, 0));
    }

    #[test]
    fn unequal_totals_block_termination() {
        // P0 sent a message P1 has not yet received.
        let mut rule = WaveRule::new(2);
        fence_all(&mut rule, 2);
        let step = round_of(&mut rule, &[(1, 0), (0, 0)]); // (1,0): unequal
        assert!(matches!(step, WaveStep::Round { round: 2, .. }));
        // P1 now received it: (1,1), prev (1,0) → continue.
        let step = round_of(&mut rule, &[(1, 0), (0, 1)]);
        assert!(matches!(step, WaveStep::Round { round: 3, .. }));
        // (1,1) == prev → terminate.
        assert_eq!(round_of(&mut rule, &[(1, 0), (0, 1)]), WaveStep::Done(0));
        assert_eq!(rule.epoch(), 1);
        assert_eq!(rule.open_round(), None);
    }

    #[test]
    fn late_message_restarts_stability_window() {
        let mut rule = WaveRule::new(3);
        fence_all(&mut rule, 3);
        // Round 1: all quiet at (0,0).
        round_of(&mut rule, &[(0, 0), (0, 0), (0, 0)]);
        // P0 wakes up and sends a message to P2 before round 2 closes.
        let step = round_of(&mut rule, &[(1, 0), (0, 0), (0, 1)]);
        assert_eq!(
            step,
            WaveStep::Round {
                epoch: 0,
                round: 3,
                closed: Some((1, 1))
            },
            "(1,1) differs from (0,0): the window restarts"
        );
        assert_eq!(
            round_of(&mut rule, &[(1, 0), (0, 0), (0, 1)]),
            WaveStep::Done(0)
        );
    }

    #[test]
    fn reset_allows_reuse() {
        let board = WaveBoard::new();
        board.enter_fence();
        board.try_contribute(0, 0, 0);
        board.try_contribute(0, 0, 0);
        assert!(board.is_terminated());
        // The latch holds until the waiter consumes it.
        assert!(board.try_contribute(0, 9, 0));
        board.reset();
        assert!(!board.is_terminated());
        assert_eq!(board.round(), 0, "the next epoch waits for its fence");
        assert!(!board.try_contribute(0, 5, 5));
        board.enter_fence();
        assert!(!board.try_contribute(0, 5, 5));
        assert!(board.try_contribute(0, 5, 5));
    }

    #[test]
    fn a_fence_on_a_latched_board_rearms_it() {
        let board = WaveBoard::new();
        board.enter_fence();
        while !board.try_contribute(0, 0, 0) {}
        board.enter_fence();
        assert!(!board.is_terminated(), "a late waiter restarts the epoch");
        assert_eq!(board.round(), 1);
        assert!(!board.try_contribute(0, 0, 0));
        assert!(board.try_contribute(0, 0, 0));
    }

    #[test]
    fn stale_contributions_are_ignored() {
        let mut rule = WaveRule::new(2);
        assert_eq!(rule.contribute(0, 0, 1, 0, 0), WaveStep::Wait, "no round");
        fence_all(&mut rule, 2);
        round_of(&mut rule, &[(0, 0), (0, 0)]);
        // A late contribution to round 1 neither closes round 2 nor
        // counts for it.
        assert_eq!(rule.contribute(1, 0, 1, 0, 0), WaveStep::Wait);
        assert_eq!(rule.contribute(0, 0, 2, 0, 0), WaveStep::Wait);
        assert_eq!(rule.contribute(1, 0, 1, 0, 0), WaveStep::Wait);
        assert_eq!(rule.contribute(1, 0, 2, 0, 0), WaveStep::Done(0));
    }

    #[test]
    fn abort_before_any_fence_turns_over_once_all_ranks_fenced() {
        let mut rule = WaveRule::new(2);
        assert_eq!(rule.abandon(0), WaveStep::Wait);
        // The aborted epoch opens no round, and a fence into it is not
        // read as entry into the next.
        assert_eq!(rule.fence(1, 0), WaveStep::Wait);
        assert_eq!(rule.open_round(), None);
        assert_eq!(rule.epoch(), 0);
        assert_eq!(rule.fence(0, 0), WaveStep::Wait);
        assert_eq!(rule.epoch(), 1, "every rank fenced: it turned over");
        // Epoch 1 runs normally.
        assert_eq!(
            fence_all(&mut rule, 2),
            WaveStep::Round {
                epoch: 1,
                round: 1,
                closed: None
            }
        );
        round_of(&mut rule, &[(0, 0), (0, 0)]);
        assert_eq!(round_of(&mut rule, &[(0, 0), (0, 0)]), WaveStep::Done(1));
    }

    #[test]
    fn abort_mid_round_drops_the_round_and_turns_over() {
        let mut rule = WaveRule::new(3);
        fence_all(&mut rule, 3);
        round_of(&mut rule, &[(2, 0), (0, 1), (0, 0)]);
        assert_eq!(rule.contribute(0, 0, 2, 2, 0), WaveStep::Wait);
        // Every rank is already fenced: the epoch turns over at once.
        assert_eq!(rule.abandon(0), WaveStep::Wait);
        assert_eq!(rule.epoch(), 1);
        assert_eq!(rule.open_round(), None);
        // The aborted round's stragglers are stale; a second abort of
        // the same epoch is too.
        assert_eq!(rule.contribute(1, 0, 2, 0, 1), WaveStep::Wait);
        assert_eq!(rule.abandon(0), WaveStep::Wait);
        assert!(matches!(
            fence_all(&mut rule, 3),
            WaveStep::Round { epoch: 1, .. }
        ));
        round_of(&mut rule, &[(2, 0), (0, 2), (0, 0)]);
        assert_eq!(
            round_of(&mut rule, &[(2, 0), (0, 2), (0, 0)]),
            WaveStep::Done(1)
        );
    }

    #[test]
    fn a_fence_ahead_of_an_unfinished_abort_waits_for_it() {
        // Rank 1 aborted epoch 0, consumed it and fenced into epoch 1
        // before rank 0 fenced into epoch 0.
        let mut rule = WaveRule::new(2);
        rule.abandon(0);
        assert_eq!(rule.fence(1, 1), WaveStep::Wait);
        assert_eq!(rule.epoch(), 0);
        assert_eq!(rule.fence(0, 0), WaveStep::Wait);
        assert_eq!(rule.epoch(), 1);
        assert!(matches!(rule.fence(0, 1), WaveStep::Round { epoch: 1, .. }));
    }

    #[test]
    fn an_abort_of_a_later_epoch_is_abandoned_when_the_rule_gets_there() {
        // Rank 1 aborted epoch 0 and consumed it, fenced into epoch 1
        // and aborted that too, all before rank 0 fenced into epoch 0.
        let mut rule = WaveRule::new(2);
        rule.abandon(0);
        rule.fence(1, 0);
        rule.fence(1, 1);
        assert_eq!(rule.abandon(1), WaveStep::Wait, "not reached yet");
        assert_eq!(rule.epoch(), 0);
        // Rank 0 fences into 0, latches 1's abort, fences into 1: both
        // turn over, and epoch 2 runs once both ranks fence into it.
        assert_eq!(rule.fence(0, 0), WaveStep::Wait);
        assert_eq!(rule.epoch(), 1);
        assert_eq!(rule.open_round(), None, "epoch 1 opens no round");
        assert_eq!(rule.fence(0, 1), WaveStep::Wait);
        assert_eq!(rule.epoch(), 2);
        rule.fence(1, 2);
        assert!(matches!(rule.fence(0, 2), WaveStep::Round { epoch: 2, .. }));
        // An epoch ended by termination turns over into an abandoned one
        // as well.
        rule.abandon(3);
        round_of(&mut rule, &[(0, 0), (0, 0)]);
        assert_eq!(round_of(&mut rule, &[(0, 0), (0, 0)]), WaveStep::Done(2));
        fence_all(&mut rule, 2);
        assert_eq!(rule.epoch(), 4, "epoch 3 turned over without a round");
    }
}
