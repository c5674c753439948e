//! Property tests for the 4-counter wave rule ([`WaveRule`]), the one
//! both a runtime on its own and the network coordinator run.
//!
//! The algorithm's contract (enforced by the runtime): a process only
//! contributes while **locally quiescent** (no unfinished tasks), and a
//! quiescent process cannot spontaneously send — sends happen from
//! executing tasks, and new activity can only arrive by *receiving* a
//! message (which bumps the receive counter, invalidating stale rounds).
//! Under any schedule respecting that contract, the wave must
//!
//! * never announce termination while a message is in flight or a task
//!   is unfinished (safety), and
//! * announce termination within a bounded number of polls once
//!   everything drains (liveness).

use proptest::prelude::*;
use ttg_termdet::{WaveRule, WaveStep};

/// Rank `r` contributes its totals to the open round; true on `Done`.
fn poll(rule: &mut WaveRule, r: usize, sent: u64, received: u64) -> bool {
    match rule.open_round() {
        Some((epoch, round)) => {
            rule.contribute(r, epoch, round, sent, received) == WaveStep::Done(epoch)
        }
        None => false,
    }
}

/// One step of a contract-respecting schedule.
#[derive(Debug, Clone)]
enum Step {
    /// Rank r (if active) sends a message to rank d from a running task.
    Send(usize, usize),
    /// Rank r (if active) finishes one local task.
    Finish(usize),
    /// Rank d receives one pending message, spawning a local task.
    Recv(usize),
    /// Rank r (if quiescent) polls the wave.
    Poll(usize),
}

fn steps() -> impl Strategy<Value = Vec<Step>> {
    const P: usize = 4;
    proptest::collection::vec(
        prop_oneof![
            (0..P, 0..P).prop_map(|(a, b)| Step::Send(a, b)),
            (0..P).prop_map(Step::Finish),
            (0..P).prop_map(Step::Recv),
            (0..P).prop_map(Step::Poll),
        ],
        0..160,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn wave_is_safe_and_live(nprocs in 1usize..5, script in steps()) {
        let mut rule = WaveRule::new(nprocs);
        for r in 0..nprocs {
            rule.fence(r, 0);
        }
        let mut terminated = false;
        let mut sent = vec![0u64; nprocs];
        let mut recv = vec![0u64; nprocs];
        let mut active = vec![0usize; nprocs];
        active[0] = 1; // the seed task
        let mut in_flight: Vec<usize> = Vec::new(); // destination ranks

        for step in script {
            match step {
                Step::Send(r, d) => {
                    let (r, d) = (r % nprocs, d % nprocs);
                    // Only a running task may send.
                    if r != d && active[r] > 0 {
                        sent[r] += 1;
                        in_flight.push(d);
                    }
                }
                Step::Finish(r) => {
                    let r = r % nprocs;
                    active[r] = active[r].saturating_sub(1);
                }
                Step::Recv(d) => {
                    let d = d % nprocs;
                    if let Some(pos) = in_flight.iter().position(|&x| x == d) {
                        in_flight.swap_remove(pos);
                        recv[d] += 1;
                        active[d] += 1; // the message spawns work
                    }
                }
                Step::Poll(r) => {
                    let r = r % nprocs;
                    if active[r] != 0 {
                        continue; // contract: contribute only when quiescent
                    }
                    terminated |= poll(&mut rule, r, sent[r], recv[r]);
                    if terminated {
                        prop_assert!(
                            in_flight.is_empty(),
                            "terminated with {} message(s) in flight",
                            in_flight.len()
                        );
                        prop_assert!(
                            active.iter().all(|&a| a == 0),
                            "terminated with active tasks: {active:?}"
                        );
                    }
                }
            }
        }
        // Drain: finish all tasks, receive all messages (each spawning
        // and finishing a task), then poll until termination (bounded).
        for a in active.iter_mut() {
            *a = 0;
        }
        while let Some(d) = in_flight.pop() {
            recv[d] += 1;
        }
        let mut rounds = 0;
        loop {
            let mut done = false;
            for r in 0..nprocs {
                done |= terminated || poll(&mut rule, r, sent[r], recv[r]);
            }
            if done {
                break;
            }
            rounds += 1;
            prop_assert!(rounds < 16, "wave failed to terminate");
        }
        prop_assert_eq!(rule.epoch(), 1, "epoch 0 terminated exactly once");
    }
}

/// One step of a schedule over several epochs: the application's
/// fences, seeds and waits, late and duplicated control traffic, and
/// aborts.
#[derive(Debug, Clone)]
enum EpochStep {
    /// Rank r (if active) sends a message to rank d from a running task.
    Send(usize, usize),
    /// Rank r (if active) finishes one local task.
    Finish(usize),
    /// Rank d receives one pending message, spawning a local task.
    Recv(usize),
    /// Rank r (if not yet fenced) submits a task of its epoch.
    Seed(usize),
    /// Rank r enters the fence of its epoch.
    Fence(usize),
    /// Rank r (if fenced, quiescent, not latched and not yet in the open
    /// round) contributes — once per round, as a network client does.
    Poll(usize),
    /// Rank r re-sends the k-th contribution it made earlier.
    Late(usize, usize),
    /// Rank r aborts its epoch unless the coordinator already ended it;
    /// every rank in it latches the abort, every rank behind latches it
    /// on getting there.
    Abort(usize),
    /// Rank r's `wait()` consumes its latch and opens its next epoch.
    Consume(usize),
}

fn epoch_steps() -> impl Strategy<Value = Vec<EpochStep>> {
    const P: usize = 4;
    proptest::collection::vec(
        prop_oneof![
            (0..P, 0..P).prop_map(|(a, b)| EpochStep::Send(a, b)),
            (0..P).prop_map(EpochStep::Finish),
            (0..P).prop_map(EpochStep::Recv),
            (0..P).prop_map(EpochStep::Seed),
            (0..P).prop_map(EpochStep::Fence),
            (0..P).prop_map(EpochStep::Poll),
            (0..P).prop_map(EpochStep::Poll),
            (0..P, 0..64usize).prop_map(|(r, k)| EpochStep::Late(r, k)),
            (0..P).prop_map(EpochStep::Abort),
            (0..P).prop_map(EpochStep::Consume),
        ],
        0..240,
    )
}

/// The ranks' side of the protocol, driving one [`WaveRule`] as the
/// coordinator does: every step's verdict is broadcast at once.
struct Mesh {
    rule: WaveRule,
    /// Each rank's epoch, whether it fenced into it, and whether the
    /// epoch ended for it (terminated or aborted, not yet consumed).
    epoch: Vec<u64>,
    fenced: Vec<bool>,
    latched: Vec<bool>,
    /// An abort of a later epoch than the rank's own, latched when the
    /// rank gets there.
    next_abort: Vec<Option<u64>>,
    sent: Vec<u64>,
    recv: Vec<u64>,
    active: Vec<usize>,
    in_flight: Vec<usize>,
    /// Every contribution each rank made: (epoch, round, sent, recv).
    history: Vec<Vec<(u64, u64, u64, u64)>>,
}

impl Mesh {
    fn new(n: usize) -> Mesh {
        let mut mesh = Mesh {
            rule: WaveRule::new(n),
            epoch: vec![0; n],
            fenced: vec![false; n],
            latched: vec![false; n],
            next_abort: vec![None; n],
            sent: vec![0; n],
            recv: vec![0; n],
            active: vec![0; n],
            in_flight: Vec::new(),
            history: vec![Vec::new(); n],
        };
        mesh.active[0] = 1; // the seed task
        mesh
    }

    /// Applies a verdict; checks safety at every one.
    fn verdict(&mut self, step: WaveStep) {
        match step {
            WaveStep::Wait => {}
            WaveStep::Round { epoch, round, .. } => {
                if round == 1 {
                    for r in 0..self.epoch.len() {
                        let entered =
                            self.epoch[r] > epoch || (self.epoch[r] == epoch && self.fenced[r]);
                        prop_assert!(
                            entered,
                            "epoch {epoch} opened a round before rank {r} fenced into it \
                             (rank at epoch {}, fenced {})",
                            self.epoch[r],
                            self.fenced[r]
                        );
                    }
                }
            }
            WaveStep::Done(epoch) => {
                prop_assert!(
                    self.in_flight.is_empty(),
                    "epoch {epoch} terminated with {} message(s) in flight",
                    self.in_flight.len()
                );
                prop_assert!(
                    self.active.iter().all(|&a| a == 0),
                    "epoch {epoch} terminated with active tasks: {:?}",
                    self.active
                );
                for r in 0..self.epoch.len() {
                    if self.epoch[r] == epoch {
                        self.latched[r] = true;
                    }
                }
            }
        }
    }

    fn fence(&mut self, r: usize) {
        if self.fenced[r] {
            return;
        }
        self.fenced[r] = true;
        let step = self.rule.fence(r, self.epoch[r]);
        self.verdict(step)
    }

    /// Rank r contributes to the open round if it may; true on `Done`.
    fn poll(&mut self, r: usize) -> bool {
        let Some((epoch, round)) = self.rule.open_round() else {
            return false;
        };
        if self.active[r] != 0
            || !self.fenced[r]
            || self.latched[r]
            || self.epoch[r] != epoch
            || self.history[r]
                .last()
                .is_some_and(|&(e, k, ..)| (e, k) == (epoch, round))
        {
            return false;
        }
        self.history[r].push((epoch, round, self.sent[r], self.recv[r]));
        let step = self
            .rule
            .contribute(r, epoch, round, self.sent[r], self.recv[r]);
        self.verdict(step);
        matches!(step, WaveStep::Done(_))
    }

    fn abort(&mut self, r: usize) {
        let epoch = self.epoch[r];
        // An epoch the coordinator already ended is not aborted. A rank
        // behind keeps one abort of an epoch ahead of its own (a
        // network client's `next_abort`), so a second one is held back.
        let behind = |s: usize| self.epoch[s] < epoch;
        let no_room = (0..self.epoch.len()).any(|s| behind(s) && self.next_abort[s].is_some());
        if epoch < self.rule.epoch() || no_room {
            return;
        }
        for s in 0..self.epoch.len() {
            if self.epoch[s] == epoch {
                self.latched[s] = true;
            } else if self.epoch[s] < epoch {
                self.next_abort[s] = Some(epoch);
            }
        }
        let step = self.rule.abandon(epoch);
        self.verdict(step)
    }

    fn consume(&mut self, r: usize) {
        if self.fenced[r] && self.latched[r] {
            self.epoch[r] += 1;
            self.fenced[r] = false;
            self.latched[r] = self.next_abort[r] == Some(self.epoch[r]);
            if self.latched[r] {
                self.next_abort[r] = None;
            }
        }
    }

    /// Applies one step of a schedule (ranks taken modulo the mesh size).
    fn step(&mut self, step: EpochStep) {
        let n = self.epoch.len();
        match step {
            EpochStep::Send(r, d) => {
                let (r, d) = (r % n, d % n);
                if r != d && self.active[r] > 0 {
                    self.sent[r] += 1;
                    self.in_flight.push(d);
                }
            }
            EpochStep::Finish(r) => {
                let r = r % n;
                self.active[r] = self.active[r].saturating_sub(1);
            }
            EpochStep::Recv(d) => {
                let d = d % n;
                if let Some(pos) = self.in_flight.iter().position(|&x| x == d) {
                    self.in_flight.swap_remove(pos);
                    self.recv[d] += 1;
                    self.active[d] += 1;
                }
            }
            EpochStep::Seed(r) => {
                let r = r % n;
                if !self.fenced[r] {
                    self.active[r] += 1;
                }
            }
            EpochStep::Fence(r) => self.fence(r % n),
            EpochStep::Poll(r) => {
                self.poll(r % n);
            }
            EpochStep::Late(r, k) => {
                let r = r % n;
                if let Some(&(e, round, s, v)) = self.history[r].get(k) {
                    let step = self.rule.contribute(r, e, round, s, v);
                    self.verdict(step);
                }
            }
            EpochStep::Abort(r) => self.abort(r % n),
            EpochStep::Consume(r) => self.consume(r % n),
        }
    }

    /// Finishes all tasks and delivers all messages (each one's task
    /// finishing at once), then every rank keeps waiting — consume a
    /// latch, fence, poll — until an epoch terminates: within 16 rounds
    /// of its last fence, and with an aborted epoch never in the way.
    fn drain(&mut self) {
        let n = self.epoch.len();
        self.active.iter_mut().for_each(|a| *a = 0);
        while let Some(d) = self.in_flight.pop() {
            self.recv[d] += 1;
        }
        let (mut rounds, mut passes) = (0, 0);
        let mut done = false;
        while !done {
            passes += 1;
            prop_assert!(passes <= 64, "epoch {} is blocked", self.rule.epoch());
            for r in 0..n {
                self.consume(r);
                self.fence(r);
            }
            if self.rule.open_round().is_some() {
                rounds += 1;
                prop_assert!(
                    rounds <= 16,
                    "epoch {} failed to terminate",
                    self.rule.epoch()
                );
            }
            for r in 0..n {
                done |= self.poll(r);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Over several epochs, with late contributions and aborts: the rule
    /// never terminates with a message in flight, never opens an epoch
    /// before every rank fenced into it, and once everything drains the
    /// epoch after any abort terminates within 16 rounds of its last
    /// fence.
    #[test]
    fn epochs_turn_over_safely_through_aborts(nprocs in 1usize..5, script in epoch_steps()) {
        let mut m = Mesh::new(nprocs);
        for step in script {
            m.step(step);
        }
        m.drain();
    }
}

/// The schedule that makes a single balanced round lie: rank 1
/// contributes while idle, then receives m1 and sends two messages to
/// rank 0, whose receipts balance the sums while m3 is still in flight.
#[test]
fn one_balanced_round_is_not_enough() {
    use EpochStep::*;
    let mut m = Mesh::new(3);
    let script = [
        Fence(0),
        Fence(1),
        Fence(2),
        Send(0, 2),
        Recv(2),
        Poll(1),    // (0, 0), before m1 arrives
        Send(2, 1), // m1
        Send(2, 1), // m3, in flight to the end of the round
        Finish(2),
        Poll(2), // (2, 1)
        Recv(1), // m1
        Send(1, 0),
        Send(1, 0),
        Finish(1),
        Recv(0),
        Recv(0),
        Finish(0),
        Finish(0),
        Finish(0),
        Poll(0), // (1, 2): the round closes at (3, 3)
    ];
    for step in script {
        m.step(step);
    }
    assert_eq!(m.in_flight, [1], "m3 is still in flight");
    m.drain();
}
