//! Deterministic fault injection for transports.
//!
//! [`FaultyTransport`] wraps any [`Transport`] and executes a
//! [`FaultPlan`]: a list of rules of the form *"do ACTION to the Nth
//! frame this rank sends to peer P"*. Because the trigger is a per-peer
//! send ordinal — not a timer or a random draw at execution time — a
//! plan reproduces the same fault at the same protocol point on every
//! run, which is what makes the chaos soak test assertable: every
//! seeded run must either produce results identical to the fault-free
//! run or surface a typed error, never panic, never hang.
//!
//! # Plan syntax
//!
//! Rules are comma-separated, each `[RANK:]ACTION@NTH[->PEER]`:
//!
//! ```text
//! drop@3            # every rank: silently drop its 3rd frame to each peer
//! 1:sever@6->0      # rank 1: sever the link to rank 0 at its 6th frame
//! 2:corrupt@5->*    # rank 2: flip a bit in its 5th frame to any peer
//! 0:delay:50@2->1   # rank 0: delay its 2nd frame to rank 1 by 50ms
//! 1:kill@4          # rank 1: exit the process at its 4th send (no goodbye)
//! 2:bounce:80@6     # rank 2: sever all its links at its 6th send, dwell 80ms
//! ```
//!
//! Actions: `drop`, `dup`, `corrupt`, `delay:MS`, `sever`, `kill`,
//! `bounce[:MS]` (default dwell 50ms). On transports with a real write
//! path (TCP), `delay` installs a **persistent** per-link write-path
//! delay from the matched frame onward — a manufactured slow link that
//! the sender-side wire-stage timers, ack RTT, and the cluster
//! slow-link detector all observe; in-process transports degrade it to
//! the old single-frame caller-thread sleep. `bounce` cuts every live socket
//! the way a network blip would and relies on the transport's session
//! rejoin + replay to restore the link — unlike `sever` it is a
//! *recoverable* fault, so a bounced run is expected to finish with
//! fault-free results, not a typed error.
//! `NTH` is 1-based and counted per destination peer. A missing `RANK:`
//! prefix applies the rule on every rank; a missing `->PEER` suffix
//! matches any destination. `kill` is meant for multi-process runs
//! (`examples/distributed.rs --fault-plan`) — it terminates the whole
//! process the way a crash would, with no Goodbye.

use crate::error::{NetError, NetResult};
use crate::frame::Frame;
use crate::transport::{Transport, TransportCounters};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// What to do to a matched frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Swallow the frame: the peer never sees it (send still reports
    /// success, exactly like a network that lost the packet after ACK).
    Drop,
    /// Deliver the frame twice.
    Duplicate,
    /// Flip one payload bit before the integrity checksum is verified
    /// on the other side.
    Corrupt,
    /// Hold the frame for this long before delivering it.
    Delay(Duration),
    /// Cut the link: this frame and every later one to that peer fail
    /// with a typed error.
    Sever,
    /// Exit the process abruptly (exit code 137, like SIGKILL): the
    /// ultimate fault, for multi-process chaos runs only.
    Kill,
    /// Sever every live connection of this endpoint (no Goodbye), dwell
    /// for the given duration, then send the triggering frame normally.
    /// The transport's rejoin + replay machinery is expected to absorb
    /// the outage, so the run completes with fault-free results.
    Bounce(Duration),
}

/// One rule of a [`FaultPlan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRule {
    /// Apply only on this sender rank (`None`: every rank).
    pub rank: Option<usize>,
    /// What to do.
    pub action: FaultAction,
    /// Which frame triggers it: the `nth` frame (1-based) sent to a
    /// matching peer.
    pub nth: u64,
    /// Apply only to frames addressed to this peer (`None`: any).
    pub peer: Option<usize>,
}

impl FaultRule {
    fn matches(&self, rank: usize, dst: usize, ordinal: u64) -> bool {
        self.rank.map(|r| r == rank).unwrap_or(true)
            && self.peer.map(|p| p == dst).unwrap_or(true)
            && self.nth == ordinal
    }
}

/// A deterministic schedule of transport faults.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The rules, applied in order; the first match wins per frame.
    pub rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// True when the plan has no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Parses the comma-separated rule syntax (see module docs).
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut rules = Vec::new();
        for token in spec.split(',') {
            let token = token.trim();
            if token.is_empty() {
                continue;
            }
            rules.push(Self::parse_rule(token)?);
        }
        Ok(FaultPlan { rules })
    }

    fn parse_rule(token: &str) -> Result<FaultRule, String> {
        let (action_part, trigger_part) = token
            .split_once('@')
            .ok_or_else(|| format!("rule '{token}': missing '@NTH'"))?;
        let (nth_str, peer) = match trigger_part.split_once("->") {
            None => (trigger_part, None),
            Some((n, "*")) => (n, None),
            Some((n, p)) => (
                n,
                Some(
                    p.trim()
                        .parse::<usize>()
                        .map_err(|_| format!("rule '{token}': bad peer '{p}'"))?,
                ),
            ),
        };
        let nth: u64 = nth_str
            .trim()
            .parse()
            .map_err(|_| format!("rule '{token}': bad frame ordinal '{nth_str}'"))?;
        if nth == 0 {
            return Err(format!("rule '{token}': frame ordinals are 1-based"));
        }
        // The action part is [RANK:]NAME[:ARG].
        let mut parts: Vec<&str> = action_part.split(':').collect();
        let rank = match parts.first().and_then(|p| p.trim().parse::<usize>().ok()) {
            Some(r) => {
                parts.remove(0);
                Some(r)
            }
            None => None,
        };
        let action = match parts.as_slice() {
            ["drop"] => FaultAction::Drop,
            ["dup"] => FaultAction::Duplicate,
            ["corrupt"] => FaultAction::Corrupt,
            ["sever"] => FaultAction::Sever,
            ["kill"] => FaultAction::Kill,
            ["delay", ms] => FaultAction::Delay(Duration::from_millis(
                ms.trim()
                    .parse()
                    .map_err(|_| format!("rule '{token}': bad delay '{ms}'"))?,
            )),
            ["bounce"] => FaultAction::Bounce(Duration::from_millis(50)),
            ["bounce", ms] => FaultAction::Bounce(Duration::from_millis(
                ms.trim()
                    .parse()
                    .map_err(|_| format!("rule '{token}': bad bounce dwell '{ms}'"))?,
            )),
            _ => return Err(format!("rule '{token}': unknown action")),
        };
        Ok(FaultRule {
            rank,
            action,
            nth,
            peer,
        })
    }

    /// The subset of rules that apply on `rank` (with the rank filter
    /// erased, since it is now implied).
    pub fn for_rank(&self, rank: usize) -> FaultPlan {
        FaultPlan {
            rules: self
                .rules
                .iter()
                .filter(|r| r.rank.map(|x| x == rank).unwrap_or(true))
                .map(|r| FaultRule {
                    rank: None,
                    ..r.clone()
                })
                .collect(),
        }
    }

    /// A reproducible pseudo-random plan for an `nranks` job: 1–3 rules
    /// drawn from the non-`Kill` actions via xorshift64. The same seed
    /// always yields the same plan — the backbone of the chaos soak.
    pub fn seeded(seed: u64, nranks: usize) -> FaultPlan {
        let mut state = seed | 1; // xorshift64 must not start at 0
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let nrules = 1 + (next() % 3) as usize;
        let rules = (0..nrules)
            .map(|_| {
                let action = match next() % 6 {
                    0 => FaultAction::Drop,
                    1 => FaultAction::Duplicate,
                    2 => FaultAction::Corrupt,
                    3 => FaultAction::Sever,
                    4 => FaultAction::Bounce(Duration::from_millis(1 + next() % 50)),
                    _ => FaultAction::Delay(Duration::from_millis(1 + next() % 20)),
                };
                let rank = Some((next() % nranks as u64) as usize);
                let peer = match next() % (nranks as u64 + 1) {
                    x if (x as usize) < nranks => Some(x as usize),
                    _ => None,
                };
                FaultRule {
                    rank,
                    action,
                    nth: 1 + next() % 40,
                    peer: peer.filter(|&p| Some(p) != rank),
                }
            })
            .collect();
        FaultPlan { rules }
    }
}

/// A [`Transport`] wrapper that executes a [`FaultPlan`] on this rank's
/// outgoing frames. Everything else — receives, shutdown, counters —
/// delegates to the wrapped transport.
pub struct FaultyTransport {
    inner: Arc<dyn Transport>,
    plan: FaultPlan,
    /// Per-destination send ordinals (1-based after increment).
    sent_to: Vec<AtomicU64>,
    /// Links cut by a `Sever` rule.
    severed: Vec<AtomicBool>,
}

impl FaultyTransport {
    /// Wraps `inner`, keeping only the plan rules that apply to its
    /// rank.
    pub fn new(inner: Arc<dyn Transport>, plan: &FaultPlan) -> Arc<FaultyTransport> {
        let n = inner.nranks();
        let plan = plan.for_rank(inner.rank());
        Arc::new(FaultyTransport {
            inner,
            plan,
            sent_to: (0..n).map(|_| AtomicU64::new(0)).collect(),
            severed: (0..n).map(|_| AtomicBool::new(false)).collect(),
        })
    }

    /// The action (if any) scheduled for the frame about to go to
    /// `dst`; bumps the per-destination ordinal.
    fn next_action(&self, dst: usize) -> Option<FaultAction> {
        let ordinal = self.sent_to[dst].fetch_add(1, Ordering::Relaxed) + 1;
        self.plan
            .rules
            .iter()
            .find(|r| r.matches(self.inner.rank(), dst, ordinal))
            .map(|r| r.action)
    }

    fn check_severed(&self, dst: usize) -> NetResult<()> {
        if self.severed[dst].load(Ordering::Acquire) {
            return Err(NetError::PeerClosed {
                rank: dst,
                during: "fault-injected sever",
            });
        }
        Ok(())
    }

    fn apply(&self, dst: usize, frame: Frame, action: Option<FaultAction>) -> NetResult<()> {
        match action {
            None => self.inner.send(dst, frame),
            Some(FaultAction::Drop) => Ok(()),
            Some(FaultAction::Duplicate) => {
                self.inner.send(dst, frame.clone())?;
                self.inner.send(dst, frame)
            }
            Some(FaultAction::Delay(d)) => {
                // A slow link, not a slow caller: transports with a
                // write path install the delay there (persistently, from
                // this frame on), so sender-side stage timers, ack RTT,
                // and resend occupancy all observe it. Transports
                // without one (in-process delivery) degrade to the old
                // single-frame caller-thread sleep.
                if !self.inner.set_link_delay(dst, d) {
                    std::thread::sleep(d);
                }
                self.inner.send(dst, frame)
            }
            Some(FaultAction::Corrupt) => {
                let mut bytes = Vec::with_capacity(frame.encoded_len());
                frame.encode_into(&mut bytes);
                let mid = bytes.len() / 2; // lands in the CRC-covered body
                bytes[mid] ^= 0x10;
                self.inner.send_raw(dst, bytes)
            }
            Some(FaultAction::Sever) => {
                self.severed[dst].store(true, Ordering::Release);
                Err(NetError::PeerClosed {
                    rank: dst,
                    during: "fault-injected sever",
                })
            }
            Some(FaultAction::Kill) => {
                // Crash like a kill -9 would: no Goodbye, no teardown.
                std::process::exit(137);
            }
            Some(FaultAction::Bounce(dwell)) => {
                self.inner.drop_connections();
                std::thread::sleep(dwell);
                // The transport buffers this send through the outage
                // and replays it on rejoin (no-op severing on local
                // transports degrades the bounce to a plain delay).
                self.inner.send(dst, frame)
            }
        }
    }
}

impl Transport for FaultyTransport {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn nranks(&self) -> usize {
        self.inner.nranks()
    }

    fn send(&self, dst: usize, frame: Frame) -> NetResult<()> {
        self.check_severed(dst)?;
        let action = self.next_action(dst);
        self.apply(dst, frame, action)
    }

    fn send_raw(&self, dst: usize, bytes: Vec<u8>) -> NetResult<()> {
        self.check_severed(dst)?;
        let _ = self.next_action(dst); // raw frames advance the ordinal
        self.inner.send_raw(dst, bytes)
    }

    // `append` keeps its default: a frame the plan may act on is sent,
    // not corked, so the fault lands at its protocol point.
    fn flush(&self) {
        self.inner.flush();
    }

    fn drop_connections(&self) {
        self.inner.drop_connections();
    }

    fn shutdown(&self) {
        self.inner.shutdown();
    }

    fn bytes_sent(&self) -> u64 {
        self.inner.bytes_sent()
    }

    fn counters(&self) -> Option<&TransportCounters> {
        self.inner.counters()
    }

    fn wire_obs(&self) -> Option<Arc<ttg_obs::wire::WireObs>> {
        self.inner.wire_obs()
    }

    fn set_link_delay(&self, dst: usize, delay: Duration) -> bool {
        self.inner.set_link_delay(dst, delay)
    }
}

impl std::fmt::Debug for FaultyTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultyTransport")
            .field("rank", &self.inner.rank())
            .field("plan", &self.plan)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FrameKind;
    use crate::transport::{FnSink, LocalTransport};
    use parking_lot::Mutex;

    #[test]
    fn parses_the_full_rule_syntax() {
        let plan =
            FaultPlan::parse("drop@3, 1:sever@6->0, 2:corrupt@5->*, 0:delay:50@2->1, 1:kill@4")
                .unwrap();
        assert_eq!(
            plan.rules,
            vec![
                FaultRule {
                    rank: None,
                    action: FaultAction::Drop,
                    nth: 3,
                    peer: None,
                },
                FaultRule {
                    rank: Some(1),
                    action: FaultAction::Sever,
                    nth: 6,
                    peer: Some(0),
                },
                FaultRule {
                    rank: Some(2),
                    action: FaultAction::Corrupt,
                    nth: 5,
                    peer: None,
                },
                FaultRule {
                    rank: Some(0),
                    action: FaultAction::Delay(Duration::from_millis(50)),
                    nth: 2,
                    peer: Some(1),
                },
                FaultRule {
                    rank: Some(1),
                    action: FaultAction::Kill,
                    nth: 4,
                    peer: None,
                },
            ]
        );
    }

    #[test]
    fn rejects_malformed_rules() {
        for bad in [
            "drop",          // no trigger
            "drop@0",        // 0 is not a valid 1-based ordinal
            "drop@x",        // non-numeric ordinal
            "explode@3",     // unknown action
            "delay@3",       // delay needs :MS
            "drop@3->zero",  // non-numeric peer
            "bounce:oops@2", // non-numeric bounce dwell
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "'{bad}' should not parse");
        }
    }

    #[test]
    fn bounce_parses_with_and_without_dwell() {
        let plan = FaultPlan::parse("bounce@2, 2:bounce:80@6->1").unwrap();
        assert_eq!(
            plan.rules,
            vec![
                FaultRule {
                    rank: None,
                    action: FaultAction::Bounce(Duration::from_millis(50)),
                    nth: 2,
                    peer: None,
                },
                FaultRule {
                    rank: Some(2),
                    action: FaultAction::Bounce(Duration::from_millis(80)),
                    nth: 6,
                    peer: Some(1),
                },
            ]
        );
    }

    #[test]
    fn for_rank_filters_and_erases_the_rank_tag() {
        let plan = FaultPlan::parse("drop@3, 1:sever@6->0, 2:corrupt@5").unwrap();
        let r1 = plan.for_rank(1);
        assert_eq!(r1.rules.len(), 2); // the untagged drop + rank 1's sever
        assert!(r1.rules.iter().all(|r| r.rank.is_none()));
        assert!(r1
            .rules
            .iter()
            .any(|r| r.action == FaultAction::Sever && r.peer == Some(0)));
    }

    #[test]
    fn seeded_plans_are_reproducible_and_never_kill() {
        for seed in 0..50u64 {
            let a = FaultPlan::seeded(seed, 3);
            let b = FaultPlan::seeded(seed, 3);
            assert_eq!(a, b, "seed {seed} not reproducible");
            assert!(!a.rules.is_empty());
            assert!(
                a.rules.iter().all(|r| r.action != FaultAction::Kill),
                "seeded plans must not kill the host process"
            );
        }
        assert_ne!(FaultPlan::seeded(1, 3), FaultPlan::seeded(2, 3));
    }

    fn faulty_pair(
        plan: &str,
    ) -> (
        Arc<FaultyTransport>,
        Arc<Mutex<Vec<u32>>>,
        Arc<LocalTransport>,
    ) {
        let mut mesh = LocalTransport::mesh(2).into_iter();
        let t0 = Arc::new(mesh.next().unwrap());
        let t1 = Arc::new(mesh.next().unwrap());
        let seen: Arc<Mutex<Vec<u32>>> = Arc::new(Mutex::new(Vec::new()));
        let seen2 = Arc::clone(&seen);
        t1.bind_sink(Arc::new(FnSink(move |_src, f: Frame| {
            if f.kind == FrameKind::Data {
                seen2.lock().push(f.handler);
            }
        })));
        let inner: Arc<dyn Transport> = Arc::clone(&t0) as Arc<dyn Transport>;
        let faulty = FaultyTransport::new(inner, &FaultPlan::parse(plan).unwrap());
        (faulty, seen, t1)
    }

    #[test]
    fn drop_dup_and_sever_do_what_they_say() {
        let (t, seen, _keep) = faulty_pair("drop@2, dup@3, sever@5->1");
        for i in 1..=4u32 {
            t.send(1, Frame::data(i, 0, vec![])).unwrap();
        }
        // Frame 2 dropped, frame 3 duplicated.
        assert_eq!(*seen.lock(), vec![1, 3, 3, 4]);
        // Frame 5 severs the link; everything after fails the same way.
        let err = t.send(1, Frame::data(5, 0, vec![])).unwrap_err();
        assert!(matches!(err, NetError::PeerClosed { rank: 1, .. }));
        let err = t.send(1, Frame::data(6, 0, vec![])).unwrap_err();
        assert!(matches!(err, NetError::PeerClosed { rank: 1, .. }));
        assert_eq!(*seen.lock(), vec![1, 3, 3, 4]);
    }

    #[test]
    fn corrupt_is_detected_by_the_integrity_check() {
        let (t, seen, keep) = faulty_pair("corrupt@1->1");
        t.send(1, Frame::data(7, 0, b"precious".to_vec())).unwrap();
        t.send(1, Frame::data(8, 0, vec![])).unwrap();
        // The corrupted frame was rejected by CRC, the clean one landed.
        assert_eq!(*seen.lock(), vec![8]);
        assert_eq!(
            keep.counters().frames_corrupt.load(Ordering::Relaxed),
            0,
            "corruption is counted on the injecting endpoint for local delivery"
        );
        assert_eq!(
            t.counters().unwrap().frames_corrupt.load(Ordering::Relaxed),
            1
        );
    }
}
