//! Liveness-agreement schedule suites (satellite of the rank-death PR):
//! one seeded death at a failpoint, N = 3..4. In every explored
//! interleaving the survivors must commit the *same* shrink — identical
//! epoch, identical membership (no split-brain) — or surface a
//! structured error; the scheduler must never abort a stuck schedule,
//! and blocked survivors must wake to a typed error rather than hang on
//! the dead rank. The elastic-membership PR adds the suspect-then-evict
//! scenario: a straggler's heartbeats freeze, a survivor evicts it under
//! a suspicion policy, and wherever the eviction is observed the shrink
//! must record it *evicted*, never dead.

use dd_check::{check_elastic_world_with_faults, scaled, Budget, Config, FailureKind, Report};
use dd_comm::{CommError, FaultPlan, RankState, SuspicionPolicy};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn budget(max: usize) -> Budget {
    Budget {
        max_schedules: scaled(max),
        check_divergence: true,
    }
}

fn assert_graceful(r: &Report, what: &str) {
    for f in &r.failures {
        assert_ne!(
            f.kind,
            FailureKind::Stuck,
            "{what}: undetected hang (stuck schedule), replay script {:?}",
            f.script
        );
        assert_ne!(
            f.kind,
            FailureKind::Panic,
            "{what}: panic instead of graceful recovery: {}",
            f.message
        );
    }
    r.assert_clean();
}

/// The victim dies at a failpoint before communicating; every survivor
/// calls `try_shrink` and must land on the same epoch-1 communicator of
/// size `n − 1`, live enough to complete a collective. The committed
/// outcome is a pure function of the fault plan, so results must be
/// byte-identical across schedules.
fn death_then_shrink(n: usize, victim: usize, max: usize) -> Report {
    let faults = FaultPlan::new(23).with_kill(victim, "work");
    check_elastic_world_with_faults(n, 0, Config::default(), budget(max), faults, move |comm| {
        if comm.failpoint("work").is_err() {
            // Killed: unwind without touching the runtime again.
            return vec![0xDD];
        }
        let sub = comm.try_shrink().expect("survivor must shrink");
        assert_eq!(sub.size(), n - 1, "agreement missed the death");
        assert_eq!(sub.epoch(), 1, "split-brain: unexpected epoch");
        assert_eq!(comm.dead_ranks(), vec![victim], "wrong dead set");
        let sum = sub
            .try_allreduce_sum(comm.world_rank() as f64)
            .expect("shrunk communicator must be live");
        let mut out = vec![0x51, sub.rank() as u8, sub.epoch() as u8];
        out.extend_from_slice(&sum.to_bits().to_le_bytes());
        out
    })
}

/// Survivors first block in a full-world collective the victim never
/// joins. Whatever the interleaving — kill before, during, or after the
/// survivors park — the collective must fail with a *structured* error
/// (never hang), after which the shrink still commits consistently.
/// The error variant a survivor observes is schedule-dependent
/// (`RankDead` vs `Revoked` vs `Timeout` races), so it is kept out of
/// the canonical bytes and only its presence is asserted.
fn blocked_collective_then_shrink(n: usize, victim: usize, max: usize) -> (Report, usize) {
    let faults = FaultPlan::new(31).with_kill(victim, "work");
    let structured = Arc::new(AtomicUsize::new(0));
    let seen = Arc::clone(&structured);
    let report = check_elastic_world_with_faults(
        n,
        0,
        Config::default(),
        budget(max),
        faults,
        move |comm| {
            if comm.failpoint("work").is_err() {
                return vec![0xDD];
            }
            let pre = comm.try_allreduce_sum(1.0);
            assert!(pre.is_err(), "collective over a dead rank must not succeed");
            if matches!(
                pre,
                Err(CommError::RankDead { .. }) | Err(CommError::Revoked { .. })
            ) {
                seen.fetch_add(1, Ordering::SeqCst);
            }
            let sub = comm.try_shrink().expect("survivor must shrink");
            assert_eq!(sub.size(), n - 1, "agreement missed the death");
            assert_eq!(sub.epoch(), 1, "split-brain: unexpected epoch");
            let sum = sub
                .try_allreduce_sum(comm.world_rank() as f64)
                .expect("shrunk communicator must be live");
            let mut out = vec![0x52, sub.rank() as u8, sub.epoch() as u8];
            out.extend_from_slice(&sum.to_bits().to_le_bytes());
            out
        },
    );
    (report, structured.load(Ordering::SeqCst))
}

/// Suspect-then-evict: the victim's heartbeats freeze at the failpoint
/// while it parks in a collective its peers have abandoned — it keeps
/// running, it is *not* killed. Rank 0 classifies it under the suspicion
/// policy once its own heartbeat lead trips the `k_missed` budget and
/// evicts it; the revocation wakes the parked straggler with a
/// structured error and the survivors commit the same epoch-1 shrink.
/// Whether the departure is recorded as an eviction or as a plain exit
/// is schedule-dependent (a timeout or a peer's shrink-revocation can
/// wake the victim before rank 0 classifies it), so — like the error
/// variant in [`blocked_collective_then_shrink`] — the classification is
/// kept out of the canonical bytes and only asserted where observed,
/// plus a cross-schedule coverage count that at least one interleaving
/// performed a genuine eviction.
fn straggle_then_evict(n: usize, victim: usize, max: usize) -> (Report, usize) {
    let faults = FaultPlan::new(37).with_straggle(victim, "work");
    let evictions = Arc::new(AtomicUsize::new(0));
    let seen = Arc::clone(&evictions);
    let report = check_elastic_world_with_faults(
        n,
        0,
        Config::default(),
        budget(max),
        faults,
        move |comm| {
            let policy = SuspicionPolicy {
                deadline: f64::INFINITY,
                k_missed: 2,
            };
            comm.failpoint("work").expect("no kills in this plan");
            if comm.rank() == victim {
                // The straggler: alive but frozen. Park in a wait the peers
                // have abandoned; the eviction's revocation (or a timeout)
                // wakes it with a structured error and it withdraws.
                let woke = comm.try_allreduce_sum(1.0);
                assert!(woke.is_err(), "abandoned collective must not succeed");
                return vec![0xEE];
            }
            if comm.rank() == 0 {
                // A single designated observer classifies and evicts: by
                // heartbeat lag alone a starved-but-healthy peer is
                // indistinguishable from the frozen straggler, so a blanket
                // `maintain` here could evict a survivor the scheduler chose
                // not to run. Production drivers call `maintain` at iteration
                // boundaries, where collectives keep live peers in lockstep.
                for _ in 0..=policy.k_missed {
                    comm.heartbeat();
                }
                if !comm.is_world_rank_gone(victim) {
                    assert_eq!(
                        comm.rank_states(&policy)[victim],
                        RankState::Suspected,
                        "the frozen straggler must trip the k_missed budget"
                    );
                    comm.evict(victim);
                    seen.fetch_add(1, Ordering::SeqCst);
                }
            }
            if comm.is_world_rank_evicted(victim) {
                assert_eq!(
                    comm.evicted_ranks(),
                    vec![victim],
                    "the eviction must be recorded as an eviction"
                );
                assert_eq!(
                    comm.dead_ranks(),
                    Vec::<usize>::new(),
                    "eviction is not death"
                );
            }
            let sub = comm.try_shrink().expect("survivor must shrink");
            assert_eq!(sub.size(), n - 1, "agreement missed the eviction");
            assert_eq!(sub.epoch(), 1, "split-brain: unexpected epoch");
            let sum = sub
                .try_allreduce_sum(comm.world_rank() as f64)
                .expect("shrunk communicator must be live");
            let mut out = vec![0x53, sub.rank() as u8, sub.epoch() as u8];
            out.extend_from_slice(&sum.to_bits().to_le_bytes());
            out
        },
    );
    (report, evictions.load(Ordering::SeqCst))
}

#[test]
fn shrink_agrees_n3_victim0() {
    let r = death_then_shrink(3, 0, 3000);
    assert_graceful(&r, "n=3 victim=0");
    assert!(r.schedules > 10, "explored {}", r.schedules);
}

#[test]
fn shrink_agrees_n3_victim2() {
    assert_graceful(&death_then_shrink(3, 2, 3000), "n=3 victim=2");
}

#[test]
fn shrink_agrees_n4_victim1() {
    assert_graceful(&death_then_shrink(4, 1, 4000), "n=4 victim=1");
}

#[test]
fn blocked_survivors_wake_structured_n3() {
    let (r, structured) = blocked_collective_then_shrink(3, 1, 3000);
    assert_graceful(&r, "n=3 blocked collective");
    assert!(
        structured > 0,
        "no schedule ever surfaced a RankDead/Revoked from the dead-rank collective"
    );
}

#[test]
fn blocked_survivors_wake_structured_n4() {
    let (r, _) = blocked_collective_then_shrink(4, 3, 4000);
    assert_graceful(&r, "n=4 blocked collective");
}

#[test]
fn straggler_evicted_not_dead_n3() {
    let (r, evictions) = straggle_then_evict(3, 2, 2500);
    assert_graceful(&r, "n=3 straggler eviction");
    assert!(r.schedules > 10, "explored {}", r.schedules);
    assert!(
        evictions > 0,
        "no schedule ever evicted the straggler before it withdrew"
    );
}
