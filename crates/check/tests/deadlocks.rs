//! Seeded-deadlock suites: programs with *genuine* wait cycles must be
//! degraded gracefully by the runtime (a `CommError::Deadlock` /
//! `RankDead` on some rank) in **every** explored schedule — never an
//! undetected hang (a `Stuck` abort from the scheduler). Conversely, the
//! detector must never confirm a deadlock on a correct program, which the
//! PR 3 oversubscribed-host regression pins down.

use dd_check::{
    check_world, explore, replay, run_threads, scaled, Budget, Config, FailureKind, Report,
    STUCK_MSG,
};
use dd_comm::sync::SyncMutex;
use dd_comm::{CommError, RetryPolicy};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Outcomes are schedule-dependent for seeded deadlocks (which rank
/// confirms first decides who reports `Deadlock` vs `RankDead`), so
/// divergence checking is off; graceful degradation is the property.
fn budget(max: usize) -> Budget {
    Budget {
        max_schedules: scaled(max),
        check_divergence: false,
    }
}

fn encode(r: Result<u64, CommError>) -> Vec<u8> {
    match r {
        Ok(v) => {
            let mut out = vec![0u8];
            out.extend_from_slice(&v.to_le_bytes());
            out
        }
        Err(CommError::Deadlock { .. }) => vec![1],
        Err(CommError::RankDead { .. }) => vec![2],
        Err(CommError::Timeout { .. }) => vec![3],
        Err(CommError::Revoked { .. }) => vec![4],
        Err(CommError::Corrupt { .. }) => vec![5],
        Err(CommError::Malformed { .. }) => vec![6],
    }
}

fn assert_graceful(r: &Report, what: &str) {
    for f in &r.failures {
        assert_ne!(
            f.kind,
            FailureKind::Stuck,
            "{what}: undetected deadlock (stuck schedule), replay script {:?}",
            f.script
        );
        assert_ne!(
            f.kind,
            FailureKind::Panic,
            "{what}: panic instead of graceful error: {}",
            f.message
        );
    }
    r.assert_clean();
}

/// r0 and r1 each wait for a message the other never sends. Every
/// schedule must end with both ranks getting a typed error — the runtime
/// confirming the cycle — and the scheduler must never have to abort.
#[test]
fn recv_recv_cycle_is_confirmed_in_every_schedule() {
    let deadlocks = Arc::new(AtomicUsize::new(0));
    let seen = Arc::clone(&deadlocks);
    let report = check_world(2, Config::default(), budget(3000), move |comm| {
        let peer = 1 - comm.rank();
        let r = comm.try_recv_timeout::<u64>(peer, 5, &RetryPolicy::unbounded());
        if matches!(r, Err(CommError::Deadlock { .. })) {
            seen.fetch_add(1, Ordering::SeqCst);
        }
        encode(r)
    });
    assert_graceful(&report, "recv/recv cycle");
    assert!(report.schedules > 10, "explored {}", report.schedules);
    assert!(
        deadlocks.load(Ordering::SeqCst) > 0,
        "no schedule ever confirmed the recv/recv cycle as a deadlock"
    );
}

/// r0 enters a barrier r1 will never join; r1 waits for a message r0
/// will never send. A cross-primitive cycle: collective wait against
/// point-to-point wait.
#[test]
fn collective_recv_cycle_is_confirmed_in_every_schedule() {
    let deadlocks = Arc::new(AtomicUsize::new(0));
    let seen = Arc::clone(&deadlocks);
    let report = check_world(2, Config::default(), budget(3000), move |comm| {
        let r = if comm.rank() == 0 {
            comm.try_barrier().map(|()| 0u64)
        } else {
            comm.try_recv_timeout::<u64>(0, 5, &RetryPolicy::unbounded())
        };
        if matches!(r, Err(CommError::Deadlock { .. })) {
            seen.fetch_add(1, Ordering::SeqCst);
        }
        encode(r)
    });
    assert_graceful(&report, "collective/recv cycle");
    assert!(
        deadlocks.load(Ordering::SeqCst) > 0,
        "no schedule ever confirmed the collective/recv cycle as a deadlock"
    );
}

/// Regression for the PR 3 oversubscribed-host false positive: a rank
/// parked in `recv` with its message *already enqueued* (the sender ran,
/// delivered, and moved on — or exited — before the receiver ever woke)
/// must never be confirmed as deadlocked, no matter how many stall ticks
/// other waiting ranks accumulate.
///
/// r1 delivers r0's message and exits; r0 forwards to r2. The dangerous
/// interleavings — r0 and r2 both parked, r1 gone, r2 burning all six
/// stall ticks and running the confirmation sweep while r0's message sits
/// deliverable in its mailbox — are all in the explored tree, because
/// parking order and every timeout wake are explicit scheduler choices.
/// `complete` asserts the tree was exhausted, so the scenario was checked.
#[test]
fn pr3_enqueued_message_is_never_a_false_positive() {
    let report = check_world(
        3,
        Config::default(),
        Budget {
            max_schedules: scaled(20_000),
            check_divergence: true,
        },
        |comm| match comm.rank() {
            0 => {
                let v = comm.recv::<u64>(1, 1);
                comm.send(2, 2, v + 10);
                Vec::new()
            }
            1 => {
                comm.send(0, 1, 7u64);
                Vec::new()
            }
            _ => comm.recv::<u64>(0, 2).to_le_bytes().to_vec(),
        },
    );
    report.assert_clean();
    assert!(
        report.complete,
        "schedule tree not exhausted ({} schedules) — raise the cap",
        report.schedules
    );
}

/// A deliberate lock-order inversion in a test-only program: t0 takes
/// a→b, t1 takes b→a. The runtime has no probes for raw mutexes, so the
/// deadlock is undetectable there — the *explorer* must find the
/// interleaving and flag it as a stuck schedule, with a replayable script.
#[test]
fn swapped_lock_order_is_found_as_stuck() {
    let program = |backend: Arc<dyn dd_comm::sync::SyncBackend>| {
        let a = Arc::new(SyncMutex::new(&backend, 0u32));
        let b = Arc::new(SyncMutex::new(&backend, 0u32));
        let (a0, b0) = (Arc::clone(&a), Arc::clone(&b));
        let (a1, b1) = (Arc::clone(&a), Arc::clone(&b));
        let r = run_threads(
            &backend,
            vec![
                Box::new(move || {
                    let ga = a0.lock();
                    let gb = b0.lock();
                    drop((ga, gb));
                }),
                Box::new(move || {
                    let gb = b1.lock();
                    let ga = a1.lock();
                    drop((gb, ga));
                }),
            ],
        );
        r.unwrap_or_else(|e| panic!("{e}"));
        Vec::new()
    };
    let report = explore(2, Config::default(), budget(2000), program);
    let stuck: Vec<_> = report
        .failures
        .iter()
        .filter(|f| f.kind == FailureKind::Stuck)
        .collect();
    assert!(
        !stuck.is_empty(),
        "explorer missed the lock-order inversion in {} schedules",
        report.schedules
    );
    // The printed script replays the exact deadlocking schedule.
    let script = stuck[0].script.clone();
    let replayed = replay(2, Config::default(), script, program);
    let msg = replayed.expect_err("replayed schedule must still deadlock");
    assert!(msg.contains(STUCK_MSG), "unexpected replay failure: {msg}");
}

/// Replay determinism: the same script yields byte-identical output.
#[test]
fn replay_is_deterministic() {
    let program = |backend: Arc<dyn dd_comm::sync::SyncBackend>| {
        dd_comm::World::run_with_backend(
            2,
            dd_comm::CostModel::default(),
            dd_comm::FaultPlan::default(),
            backend,
            |comm| {
                if comm.rank() == 0 {
                    comm.send(1, 1, 99u64);
                    0
                } else {
                    comm.recv::<u64>(0, 1)
                }
            },
        )
        .into_iter()
        .flat_map(|v: u64| v.to_le_bytes())
        .collect()
    };
    let a = replay(2, Config::default(), vec![], program);
    let b = replay(2, Config::default(), vec![], program);
    assert_eq!(a, b, "default-policy replays diverged");
}
