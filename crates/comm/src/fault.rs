//! Deterministic, seeded fault injection for the SPMD runtime.
//!
//! A [`FaultPlan`] decides — as a pure function of `(seed, src, dest, tag,
//! message index)` — whether a point-to-point message is delayed or dropped
//! on the wire, and whether a rank dies at a named phase boundary
//! ([`crate::Communicator::failpoint`]) or a named recoverable operation
//! "fails" ([`crate::Communicator::should_fail`]). Because every decision
//! is a hash of the message identity rather than a draw from shared mutable
//! RNG state, a plan replays identically regardless of thread scheduling:
//! chaos tests are exactly reproducible.
//!
//! Fail-stop faults (drops, delays, kills, straggles) perturb only
//! *virtual* time and control flow, never payload contents, so a run that
//! recovers from them computes bit-identical numerics to the fault-free
//! run. *Corruption* faults ([`FaultPlan::with_corrupt`]) are the one
//! deliberate exception: they flip a deterministic bit in the wire image of
//! matching payloads, and the checksummed envelope layer detects the flip
//! on receive and recovers it with an end-to-end retransmit — so a run that
//! survives corruption is *still* bit-identical to the fault-free run, only
//! costlier in virtual time.

use std::fmt;

/// Structured failure of a communication operation — the typed replacement
/// for the runtime's former "all threads blocked" hang.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CommError {
    /// Every live rank of the world was simultaneously blocked for several
    /// consecutive observation ticks: no progress is possible.
    Deadlock {
        /// World rank that observed the deadlock.
        rank: usize,
    },
    /// A receive exhausted its [`RetryPolicy`] against repeated drops.
    Timeout {
        /// Source rank (within the receiving communicator).
        src: usize,
        /// Message tag.
        tag: u64,
        /// Failed delivery attempts, including the final one.
        attempts: u32,
    },
    /// The operation waited on a rank that died (killed by a fault plan,
    /// exited early, or abandoned the run after its own error).
    RankDead {
        /// World rank of the dead peer (or of the rank itself when a kill
        /// fault fires at a failpoint).
        rank: usize,
    },
    /// The communicator was revoked ([`crate::Communicator::revoke`])
    /// while this operation was in flight: a peer initiated recovery and
    /// every wait on the pre-shrink communicator must abort instead of
    /// hanging. `epoch` is the revocation epoch of the communicator the
    /// operation ran on; a shrunk successor carries a higher epoch.
    Revoked {
        /// Revocation epoch of the communicator the failed operation used.
        epoch: usize,
    },
    /// A received payload repeatedly failed end-to-end checksum
    /// verification and the [`RetryPolicy::max_retransmits`] budget was
    /// exhausted before an intact copy arrived. Distinct from
    /// [`CommError::Timeout`] (which counts deliveries that never arrived):
    /// here the message arrived, but its bytes cannot be trusted — the
    /// payload is *never* handed to the caller.
    Corrupt {
        /// Source rank (within the receiving communicator).
        src: usize,
        /// Message tag.
        tag: u64,
        /// Revocation epoch of the receiving communicator. The envelope
        /// checksum is salted with the communicator identity and epoch, so
        /// a stale-epoch replay can never alias a current checksum.
        epoch: usize,
    },
    /// A received payload arrived intact but is not the length the
    /// protocol expects at this point. Not recoverable by a retry or a
    /// replay: a rank that sent the wrong length will send it again.
    Malformed {
        /// Source rank (within the receiving communicator).
        src: usize,
        /// Message tag.
        tag: u64,
        /// Values received.
        len: usize,
        /// Values expected.
        expected: usize,
    },
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::Deadlock { rank } => {
                write!(
                    f,
                    "deadlock: all live ranks blocked (observed by rank {rank})"
                )
            }
            CommError::Timeout { src, tag, attempts } => write!(
                f,
                "timeout: recv from rank {src} tag {tag} failed after {attempts} attempts"
            ),
            CommError::RankDead { rank } => write!(f, "rank {rank} is dead"),
            CommError::Revoked { epoch } => {
                write!(
                    f,
                    "communicator revoked (epoch {epoch}): recovery in progress"
                )
            }
            CommError::Corrupt { src, tag, epoch } => write!(
                f,
                "corrupt payload: recv from rank {src} tag {tag} (epoch {epoch}) \
                 failed checksum verification and exhausted its retransmit budget"
            ),
            CommError::Malformed {
                src,
                tag,
                len,
                expected,
            } => write!(
                f,
                "malformed payload: recv from rank {src} tag {tag} holds {len} values, \
                 expected {expected}"
            ),
        }
    }
}

impl std::error::Error for CommError {}

/// Retry/timeout/backoff policy for fault-tolerant receives. All durations
/// are **virtual seconds**: each failed delivery attempt charges
/// `timeout · backoff^attempt` to the receiving rank's clock, so the cost
/// model stays honest about the price of recovery.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Failed attempts tolerated before [`CommError::Timeout`].
    pub max_retries: u32,
    /// Virtual seconds charged for the first failed attempt.
    pub timeout: f64,
    /// Multiplier applied to the charge of each subsequent attempt.
    pub backoff: f64,
    /// Relative jitter amplitude in `[0, 1]`: each attempt's charge is
    /// scaled by a factor in `[1 − jitter/2, 1 + jitter/2]` drawn
    /// deterministically from the message identity, decorrelating the
    /// retry storms of ranks that lose the same collective round. `0`
    /// (the default) disables jitter.
    pub jitter: f64,
    /// End-to-end retransmit budget: checksum-failed deliveries tolerated
    /// per message before [`CommError::Corrupt`]. A retransmit charges like
    /// a retry (same backoff schedule) *plus* the payload's transfer time —
    /// the sender's pristine buffer re-crosses the wire. Always bounded,
    /// even under [`RetryPolicy::unbounded`]: a persistently corrupting
    /// channel must surface typed, not spin.
    pub max_retransmits: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 8,
            timeout: 1e-4,
            backoff: 2.0,
            jitter: 0.0,
            max_retransmits: 4,
        }
    }
}

impl RetryPolicy {
    /// Retry for as long as deliveries keep failing (blocking-`recv`
    /// semantics; drops are bounded per message, so this terminates).
    /// The retransmit budget stays bounded — see
    /// [`RetryPolicy::max_retransmits`].
    pub fn unbounded() -> Self {
        RetryPolicy {
            max_retries: u32::MAX,
            timeout: 1e-4,
            backoff: 1.0,
            jitter: 0.0,
            max_retransmits: 4,
        }
    }

    /// A bounded policy with backoff and seeded jitter enabled — the
    /// recommended policy for waits on possibly-dead peers (recovery
    /// paths must never wait unboundedly).
    pub fn bounded_jittered() -> Self {
        RetryPolicy {
            jitter: 0.5,
            ..Default::default()
        }
    }

    /// Virtual-time charge of failed attempt number `attempt` (0-based).
    pub(crate) fn charge(&self, attempt: u32) -> f64 {
        self.timeout * self.backoff.powi(attempt.min(64) as i32)
    }

    /// [`RetryPolicy::charge`] with the seeded jitter applied: `salt`
    /// identifies the message (or collective contribution) being retried,
    /// so the draw is a pure function of the retry identity and replays
    /// identically under virtual time.
    pub(crate) fn charge_jittered(&self, attempt: u32, salt: u64) -> f64 {
        let base = self.charge(attempt);
        if self.jitter == 0.0 {
            return base;
        }
        let draw = unit(splitmix64(salt ^ u64::from(attempt).rotate_left(23)));
        base * (1.0 + self.jitter * (draw - 0.5))
    }
}

/// Which traffic class a corruption spec targets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TagClass {
    /// Point-to-point messages and collective contributions alike.
    Any,
    /// Point-to-point messages only.
    P2p,
    /// Collective contributions only.
    Collective,
}

/// One seeded payload-corruption spec (see [`FaultPlan::with_corrupt`]).
#[derive(Clone, Debug)]
struct CorruptSpec {
    /// Telemetry phase the sender must be in for the spec to fire.
    phase: String,
    /// Sending world rank (`None`: any sender).
    rank: Option<usize>,
    class: TagClass,
    /// Seed of the bit-selection hash, independent of the plan seed so
    /// corruption scenarios compose with an existing drop/delay climate
    /// without reshuffling it.
    seed: u64,
    /// `false`: only the first delivery is corrupted (the retransmit
    /// recovers it transparently). `true`: every retransmit is corrupted
    /// too, so the receive exhausts its budget and surfaces
    /// [`CommError::Corrupt`].
    persistent: bool,
}

/// A seeded, deterministic fault plan. Built with the `with_*` combinators;
/// the default plan injects nothing.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    seed: u64,
    /// Probability that a p2p message is delayed, and the virtual delay.
    delay_prob: f64,
    delay_dt: f64,
    /// Probability that a p2p message is dropped, and how many delivery
    /// attempts fail before the runtime redelivers it.
    drop_prob: f64,
    drop_count: u32,
    /// `(world rank, failpoint label)`: the rank dies when it reaches the
    /// labeled [`crate::Communicator::failpoint`].
    kills: Vec<(usize, String)>,
    /// `(world rank or all, label)`: the labeled recoverable operation
    /// reports failure on the matching rank(s).
    failures: Vec<(Option<usize>, String)>,
    /// `(reserve world rank, failpoint label)`: the reserve rank becomes a
    /// pending joiner when any rank reaches the labeled failpoint
    /// (elastic worlds, [`crate::World::run_elastic`]).
    joins: Vec<(usize, String)>,
    /// `(world rank, failpoint label)`: the rank's heartbeats are
    /// suppressed from the labeled failpoint on — it keeps computing but
    /// looks stalled to its peers' suspicion policy (straggler injection).
    straggles: Vec<(usize, String)>,
    /// Payload-corruption specs, first match wins.
    corruptions: Vec<CorruptSpec>,
}

impl FaultPlan {
    /// A plan with the given seed and no faults.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..Default::default()
        }
    }

    /// Delay each p2p message with probability `prob` by `dt` virtual
    /// seconds.
    pub fn with_delays(mut self, prob: f64, dt: f64) -> Self {
        assert!((0.0..=1.0).contains(&prob) && dt >= 0.0);
        self.delay_prob = prob;
        self.delay_dt = dt;
        self
    }

    /// Drop each p2p message with probability `prob`; the first `count`
    /// delivery attempts fail before the runtime redelivers it.
    pub fn with_drops(mut self, prob: f64, count: u32) -> Self {
        assert!((0.0..=1.0).contains(&prob) && count >= 1);
        self.drop_prob = prob;
        self.drop_count = count;
        self
    }

    /// Kill world rank `rank` when it reaches the failpoint labeled
    /// `phase`.
    pub fn with_kill(mut self, rank: usize, phase: &str) -> Self {
        self.kills.push((rank, phase.to_string()));
        self
    }

    /// Make the recoverable operation labeled `label` fail on world rank
    /// `rank` (`None` = on every rank).
    pub fn with_failure(mut self, rank: Option<usize>, label: &str) -> Self {
        self.failures.push((rank, label.to_string()));
        self
    }

    /// Make reserve world rank `rank` announce itself as a pending joiner
    /// when any rank reaches the failpoint labeled `phase` (elastic
    /// worlds only — see [`crate::World::run_elastic`]).
    pub fn with_join(mut self, rank: usize, phase: &str) -> Self {
        self.joins.push((rank, phase.to_string()));
        self
    }

    /// Suppress world rank `rank`'s heartbeats from the failpoint labeled
    /// `phase` on: the rank keeps running, but its progress watermark
    /// freezes, so peers running a suspicion policy classify it
    /// `Suspected` and can evict it. Suppression (rather than injected
    /// slowness) keeps the victim's own numerics and program order
    /// untouched, so chaos runs stay deterministic.
    pub fn with_straggle(mut self, rank: usize, phase: &str) -> Self {
        self.straggles.push((rank, phase.to_string()));
        self
    }

    /// Corrupt the wire image of every matching payload: messages of class
    /// `class` sent by world rank `rank` (`None`: any sender) while the
    /// sender's telemetry phase is `phase` have one deterministic bit
    /// flipped — which bit is a pure hash of `(seed, message identity)`.
    /// The checksummed envelope detects the flip on receive, and the first
    /// end-to-end retransmit (the sender's buffer is pristine) recovers it
    /// transparently, so the solve's numerics stay bit-identical to the
    /// fault-free run.
    pub fn with_corrupt(
        mut self,
        phase: &str,
        rank: Option<usize>,
        class: TagClass,
        seed: u64,
    ) -> Self {
        self.corruptions.push(CorruptSpec {
            phase: phase.to_string(),
            rank,
            class,
            seed,
            persistent: false,
        });
        self
    }

    /// [`FaultPlan::with_corrupt`], but every retransmit is corrupted too:
    /// the receive exhausts [`RetryPolicy::max_retransmits`] and surfaces
    /// [`CommError::Corrupt`] — the typed-failure arm of the SDC model.
    pub fn with_corrupt_persistent(
        mut self,
        phase: &str,
        rank: Option<usize>,
        class: TagClass,
        seed: u64,
    ) -> Self {
        self.corruptions.push(CorruptSpec {
            phase: phase.to_string(),
            rank,
            class,
            seed,
            persistent: true,
        });
        self
    }

    /// Does this plan inject anything at all?
    pub fn is_active(&self) -> bool {
        self.delay_prob > 0.0
            || self.drop_prob > 0.0
            || !self.kills.is_empty()
            || !self.failures.is_empty()
            || !self.joins.is_empty()
            || !self.straggles.is_empty()
            || !self.corruptions.is_empty()
    }

    /// Does this plan carry corruption specs? Gates the phase-name lookup
    /// on the send path, so fault-free (and fail-stop-only) runs never pay
    /// for it.
    pub fn has_corruptions(&self) -> bool {
        !self.corruptions.is_empty()
    }

    /// Should `rank` die at the failpoint labeled `phase`?
    pub fn kills(&self, rank: usize, phase: &str) -> bool {
        self.kills.iter().any(|(r, p)| *r == rank && p == phase)
    }

    /// Should the recoverable operation `label` fail on `rank`?
    pub fn should_fail(&self, rank: usize, label: &str) -> bool {
        self.failures
            .iter()
            .any(|(r, l)| r.is_none_or(|r| r == rank) && l == label)
    }

    /// Reserve world ranks that become pending joiners at the failpoint
    /// labeled `phase`.
    pub fn joins_at<'a>(&'a self, phase: &'a str) -> impl Iterator<Item = usize> + 'a {
        self.joins
            .iter()
            .filter(move |(_, p)| p == phase)
            .map(|(r, _)| *r)
    }

    /// Should `rank` stop heartbeating at the failpoint labeled `phase`?
    pub fn straggles(&self, rank: usize, phase: &str) -> bool {
        self.straggles.iter().any(|(r, p)| *r == rank && p == phase)
    }

    /// Fault decision for one p2p message, identified by its endpoints
    /// (world ranks), tag, and the sender's message index on the
    /// communicator it was sent on:
    /// `(failed delivery attempts, extra virtual delay)`.
    pub fn message_faults(&self, src: usize, dest: usize, tag: u64, index: u64) -> (u32, f64) {
        if self.delay_prob == 0.0 && self.drop_prob == 0.0 {
            return (0, 0.0);
        }
        let h = hash4(
            self.seed,
            src as u64,
            dest as u64,
            tag ^ index.rotate_left(17),
        );
        let drop_draw = unit(h);
        let delay_draw = unit(splitmix64(h ^ 0x9e37_79b9_7f4a_7c15));
        let drops = if drop_draw < self.drop_prob {
            self.drop_count
        } else {
            0
        };
        let delay = if delay_draw < self.delay_prob {
            self.delay_dt
        } else {
            0.0
        };
        (drops, delay)
    }

    /// Fault decision for one collective contribution, identified by the
    /// contributing world rank and its per-rank collective index:
    /// `(failed delivery attempts, extra virtual delay)`. Routed through
    /// the same seeded hash as [`FaultPlan::message_faults`] with a
    /// sentinel destination, so collective-internal deliveries see the
    /// same drop/delay climate as point-to-point traffic without
    /// correlating with it.
    pub fn collective_faults(&self, rank: usize, index: u64) -> (u32, f64) {
        if self.delay_prob == 0.0 && self.drop_prob == 0.0 {
            return (0, 0.0);
        }
        let h = hash4(self.seed, rank as u64, u64::MAX, index.rotate_left(29));
        let drops = if unit(h) < self.drop_prob {
            self.drop_count
        } else {
            0
        };
        let delay = if unit(splitmix64(h ^ 0x9e37_79b9_7f4a_7c15)) < self.delay_prob {
            self.delay_dt
        } else {
            0.0
        };
        (drops, delay)
    }

    /// Corruption decision for one p2p message sent while the sender's
    /// telemetry phase is `phase`: `Some((corrupted delivery attempts,
    /// bit-selection hash))` when a spec matches. The hash (reduced modulo
    /// the payload's wire bits by the runtime) picks which bit flips — a
    /// pure function of the spec seed and the message identity, so chaos
    /// runs replay byte-identically.
    pub fn corrupt_p2p(
        &self,
        phase: &str,
        src: usize,
        dest: usize,
        tag: u64,
        index: u64,
    ) -> Option<(u32, u64)> {
        let spec = self.corruptions.iter().find(|s| {
            s.class != TagClass::Collective && s.rank.is_none_or(|r| r == src) && s.phase == phase
        })?;
        let h = hash4(
            spec.seed,
            src as u64,
            dest as u64,
            tag ^ index.rotate_left(17),
        );
        Some((if spec.persistent { u32::MAX } else { 1 }, h))
    }

    /// Corruption decision for one collective contribution: the number of
    /// corrupted delivery attempts when a spec matches. Like
    /// [`FaultPlan::collective_faults`], collective corruption is modeled
    /// as pure time and counter effects — collectives are all-or-nothing,
    /// so the corrupted contribution is retransmitted until intact (or the
    /// budget exhausts into a recorded timeout) and the recovery cost lands
    /// in the contributor's clock instead of stranding its peers.
    pub fn corrupt_collective(&self, phase: &str, rank: usize) -> Option<u32> {
        let spec = self.corruptions.iter().find(|s| {
            s.class != TagClass::P2p && s.rank.is_none_or(|r| r == rank) && s.phase == phase
        })?;
        Some(if spec.persistent { u32::MAX } else { 1 })
    }

    /// Deterministic salt for the seeded retry jitter of one message
    /// identity (see [`RetryPolicy::charge_jittered`]). The salt is a pure
    /// function of the plan seed and a stable identity — the communicator's
    /// fault id plus `(src, tag)` for point-to-point retries, the
    /// communicator's fault id plus its collective sequence number for
    /// collective retries — never a free-running counter, so two
    /// identically-seeded runs replay byte-identical retry schedules.
    pub(crate) fn retry_salt(&self, src: usize, tag: u64, index: u64) -> u64 {
        hash4(self.seed, src as u64, tag, index)
    }
}

/// Counters of faults observed by one rank, reported alongside the run so
/// chaos tests can assert that injection actually happened.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Messages sent by this rank that the plan delayed.
    pub delays_injected: u64,
    /// Messages sent by this rank that the plan marked for dropping.
    pub drops_injected: u64,
    /// Failed delivery attempts this rank retried on receive.
    pub retries: u64,
    /// Receives that exhausted their retry policy.
    pub timeouts: u64,
    /// Payloads sent by this rank whose wire image the plan corrupted.
    pub corruptions_injected: u64,
    /// Checksum-verification failures this rank detected on receive.
    pub corruptions_detected: u64,
    /// End-to-end retransmits this rank requested after a failed
    /// verification.
    pub retransmits: u64,
}

pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn hash4(seed: u64, a: u64, b: u64, c: u64) -> u64 {
    let mut h = splitmix64(seed);
    h = splitmix64(h ^ a);
    h = splitmix64(h ^ b);
    h = splitmix64(h ^ c);
    h
}

/// Map a hash to a uniform draw in `[0, 1)`.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic() {
        let p = FaultPlan::new(42)
            .with_delays(0.5, 1e-3)
            .with_drops(0.25, 2);
        for msg in 0..100 {
            assert_eq!(
                p.message_faults(0, 1, 7, msg),
                p.message_faults(0, 1, 7, msg)
            );
        }
    }

    #[test]
    fn probabilities_are_roughly_respected() {
        let p = FaultPlan::new(7).with_delays(0.5, 1e-3).with_drops(0.2, 1);
        let n = 10_000;
        let mut delayed = 0;
        let mut dropped = 0;
        for msg in 0..n {
            let (d, dt) = p.message_faults(3, 5, 11, msg);
            if d > 0 {
                dropped += 1;
            }
            if dt > 0.0 {
                delayed += 1;
            }
        }
        let fd = dropped as f64 / n as f64;
        let fl = delayed as f64 / n as f64;
        assert!((fd - 0.2).abs() < 0.03, "drop rate {fd}");
        assert!((fl - 0.5).abs() < 0.03, "delay rate {fl}");
    }

    #[test]
    fn seeds_decorrelate() {
        let a = FaultPlan::new(1).with_drops(0.5, 1);
        let b = FaultPlan::new(2).with_drops(0.5, 1);
        let differs = (0..64).any(|m| a.message_faults(0, 1, 0, m) != b.message_faults(0, 1, 0, m));
        assert!(differs);
    }

    #[test]
    fn kill_and_failure_matching() {
        let p = FaultPlan::new(0)
            .with_kill(2, "post-assembly")
            .with_failure(Some(1), "eigensolve")
            .with_failure(None, "coarse-factor");
        assert!(p.kills(2, "post-assembly"));
        assert!(!p.kills(2, "post-solve"));
        assert!(!p.kills(1, "post-assembly"));
        assert!(p.should_fail(1, "eigensolve"));
        assert!(!p.should_fail(0, "eigensolve"));
        assert!(p.should_fail(0, "coarse-factor") && p.should_fail(3, "coarse-factor"));
    }

    #[test]
    fn join_and_straggle_matching() {
        let p = FaultPlan::new(0)
            .with_join(4, "solve-iteration-3")
            .with_join(5, "solve-iteration-3")
            .with_straggle(2, "ras");
        assert!(p.is_active());
        assert_eq!(p.joins_at("solve-iteration-3").collect::<Vec<_>>(), [4, 5]);
        assert_eq!(p.joins_at("ras").count(), 0);
        assert!(p.straggles(2, "ras"));
        assert!(!p.straggles(2, "deflation"));
        assert!(!p.straggles(1, "ras"));
    }

    #[test]
    fn inactive_plan_is_free() {
        let p = FaultPlan::new(123);
        assert!(!p.is_active());
        assert_eq!(p.message_faults(0, 1, 2, 3), (0, 0.0));
    }

    #[test]
    fn retry_charge_backs_off() {
        let pol = RetryPolicy {
            max_retries: 3,
            timeout: 1e-4,
            backoff: 2.0,
            jitter: 0.0,
            max_retransmits: 4,
        };
        assert!((pol.charge(0) - 1e-4).abs() < 1e-18);
        assert!((pol.charge(2) - 4e-4).abs() < 1e-18);
    }

    #[test]
    fn jitter_is_deterministic_bounded_and_off_by_default() {
        let plain = RetryPolicy::default();
        assert_eq!(plain.charge_jittered(3, 77), plain.charge(3));
        let pol = RetryPolicy::bounded_jittered();
        for attempt in 0..6 {
            for salt in [1u64, 99, 12345] {
                let a = pol.charge_jittered(attempt, salt);
                let b = pol.charge_jittered(attempt, salt);
                assert_eq!(a, b, "jitter must replay identically");
                let base = pol.charge(attempt);
                assert!(a >= base * (1.0 - pol.jitter / 2.0) - 1e-18);
                assert!(a <= base * (1.0 + pol.jitter / 2.0) + 1e-18);
            }
        }
        // Different salts must actually decorrelate somewhere.
        let varies = (0..64).any(|s| pol.charge_jittered(1, s) != pol.charge_jittered(1, s + 64));
        assert!(varies);
    }

    #[test]
    fn collective_faults_are_deterministic_and_gated() {
        let off = FaultPlan::new(9);
        assert_eq!(off.collective_faults(2, 5), (0, 0.0));
        let p = FaultPlan::new(9).with_drops(0.5, 2).with_delays(0.25, 1e-3);
        let mut dropped = 0;
        for idx in 0..1000 {
            let d = p.collective_faults(1, idx);
            assert_eq!(d, p.collective_faults(1, idx));
            if d.0 > 0 {
                dropped += 1;
            }
        }
        let rate = dropped as f64 / 1000.0;
        assert!((rate - 0.5).abs() < 0.08, "collective drop rate {rate}");
    }

    #[test]
    fn corrupt_specs_match_phase_rank_and_class() {
        let p = FaultPlan::new(7).with_corrupt("exchange", Some(1), TagClass::P2p, 42);
        assert!(p.is_active());
        assert!(p.has_corruptions());
        // Matching phase + sender rank fires exactly once (non-persistent).
        let hit = p.corrupt_p2p("exchange", 1, 0, 5, 0);
        assert!(hit.is_some());
        assert_eq!(hit.unwrap().0, 1);
        // Wrong phase, wrong sender, or collective class: no corruption.
        assert!(p.corrupt_p2p("coarse-gather", 1, 0, 5, 0).is_none());
        assert!(p.corrupt_p2p("exchange", 2, 0, 5, 0).is_none());
        assert!(p.corrupt_collective("exchange", 1).is_none());
    }

    #[test]
    fn corrupt_bit_choice_is_deterministic_and_seeded() {
        let p = FaultPlan::new(7).with_corrupt("exchange", None, TagClass::Any, 42);
        let a = p.corrupt_p2p("exchange", 0, 1, 9, 3).unwrap();
        let b = p.corrupt_p2p("exchange", 0, 1, 9, 3).unwrap();
        assert_eq!(a, b, "same message identity must replay identically");
        let c = p.corrupt_p2p("exchange", 0, 1, 9, 4).unwrap();
        assert_ne!(a.1, c.1, "message index must vary the flipped bit");
        let q = FaultPlan::new(7).with_corrupt("exchange", None, TagClass::Any, 43);
        let d = q.corrupt_p2p("exchange", 0, 1, 9, 3).unwrap();
        assert_ne!(a.1, d.1, "seed must vary the flipped bit");
        // Any-class plans also corrupt collectives.
        assert!(p.corrupt_collective("exchange", 0).is_some());
    }

    #[test]
    fn persistent_corruption_exhausts_any_budget() {
        let p = FaultPlan::new(7).with_corrupt_persistent("gather", None, TagClass::Collective, 1);
        assert_eq!(p.corrupt_collective("gather", 3), Some(u32::MAX));
        assert!(p.corrupt_p2p("gather", 0, 1, 2, 0).is_none());
        let (n, _) = FaultPlan::new(7)
            .with_corrupt_persistent("gather", None, TagClass::P2p, 1)
            .corrupt_p2p("gather", 0, 1, 2, 0)
            .unwrap();
        assert_eq!(n, u32::MAX);
    }
}
