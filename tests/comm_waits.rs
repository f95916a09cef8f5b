//! The outcome contract of the runtime's blocking waits, through the public
//! API only. Every receive and every collective parks in one loop, and the
//! membership agreement waits in one place; these rows pin what each of
//! them must report: a cycle of waits is `Deadlock`, a peer that left
//! before its part is `RankDead`, exhausted retries and retransmits are
//! `Timeout` and `Corrupt`, and the agreement commits one membership on
//! every member, joiners included.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use dd_check::{check_world, scaled, Budget, Config};
use dd_geneo::comm::{CommError, CostModel, FaultPlan, RetryPolicy, TagClass, World};

fn is_deadlock<T>(r: &Result<T, CommError>) -> bool {
    matches!(r, Err(CommError::Deadlock { .. }))
}

#[test]
fn cyclic_receives_are_a_deadlock() {
    let out = World::run_default(2, |comm| {
        let other = 1 - comm.rank();
        comm.try_recv_timeout::<f64>(other, 99, &RetryPolicy::default())
    });
    // The first rank to confirm reports the deadlock; the other may see
    // that rank leave first and report it dead. Neither hangs.
    assert!(out.iter().all(|r| r.is_err()), "{out:?}");
    assert!(out.iter().any(is_deadlock), "{out:?}");
}

#[test]
fn a_receive_against_a_collective_is_a_deadlock() {
    let out = World::run_default(3, |comm| {
        if comm.rank() == 0 {
            comm.try_recv_timeout::<f64>(1, 99, &RetryPolicy::default())
        } else {
            comm.try_allreduce_sum(1.0).map(|_| 0.0)
        }
    });
    assert!(out.iter().all(|r| r.is_err()), "{out:?}");
    assert!(out.iter().any(is_deadlock), "{out:?}");
}

#[test]
fn a_peer_that_returns_before_sending_is_dead_to_a_receive() {
    let out = World::run_default(2, |comm| {
        if comm.rank() == 0 {
            Ok(0.0)
        } else {
            comm.try_recv_timeout::<f64>(0, 4, &RetryPolicy::default())
        }
    });
    assert_eq!(out[1], Err(CommError::RankDead { rank: 0 }));
}

#[test]
fn a_peer_that_returns_before_a_barrier_is_dead_to_it() {
    let out = World::run_default(3, |comm| {
        if comm.rank() == 2 {
            Ok(())
        } else {
            comm.try_barrier()
        }
    });
    assert_eq!(out[0], Err(CommError::RankDead { rank: 2 }));
    assert_eq!(out[1], Err(CommError::RankDead { rank: 2 }));
}

#[test]
fn drops_past_a_bounded_retry_policy_time_out() {
    let plan = FaultPlan::new(17).with_drops(1.0, 10);
    let out = World::run_with_faults(2, CostModel::default(), plan, |comm| {
        if comm.rank() == 0 {
            comm.send(1, 3, 1.0f64);
            Ok(0.0)
        } else {
            let policy = RetryPolicy {
                max_retries: 2,
                ..RetryPolicy::default()
            };
            comm.try_recv_timeout::<f64>(0, 3, &policy)
        }
    });
    assert_eq!(
        out[1],
        Err(CommError::Timeout {
            src: 0,
            tag: 3,
            attempts: 3
        })
    );
}

#[test]
fn persistent_corruption_past_its_retransmits_is_corrupt() {
    let plan = FaultPlan::new(22).with_corrupt_persistent("exchange", None, TagClass::Any, 9);
    let out = World::run_with_faults(2, CostModel::default(), plan, |comm| {
        comm.trace_phase("exchange");
        if comm.rank() == 0 {
            comm.send(1, 6, 42.0f64);
            Ok(0.0)
        } else {
            comm.try_recv_timeout::<f64>(0, 6, &RetryPolicy::default())
        }
    });
    let want = CommError::Corrupt {
        src: 0,
        tag: 6,
        epoch: 0,
    };
    assert_eq!(out[1], Err(want));
}

#[test]
fn survivors_of_a_kill_shrink_to_one_epoch() {
    let plan = FaultPlan::new(5).with_kill(2, "boundary");
    let out = World::run_with_faults(3, CostModel::default(), plan, |comm| {
        if comm.failpoint("boundary").is_err() {
            return None;
        }
        let sub = comm.try_shrink().expect("a survivor must shrink");
        let sum = sub
            .try_allreduce_sum(1.0)
            .expect("the shrunk world is live");
        Some((sub.size(), sub.epoch(), sub.world_ranks().to_vec(), sum))
    });
    assert_eq!(out[2], None);
    for survivor in &out[..2] {
        assert_eq!(*survivor, Some((2, 1, vec![0, 1], 2.0)));
    }
}

#[test]
fn a_pending_joiner_is_admitted_by_the_shrink() {
    let plan = FaultPlan::new(47).with_join(2, "work");
    let out = World::run_elastic(2, 1, CostModel::default(), plan, |comm| {
        let grown;
        let comm = if comm.is_joiner() {
            comm
        } else {
            comm.failpoint("work").expect("no kills in this plan");
            grown = comm.try_shrink().expect("a founder must agree");
            &grown
        };
        let sum = comm
            .try_allreduce_sum(1.0)
            .expect("the grown world is live");
        (comm.size(), comm.epoch(), comm.rank(), sum)
    });
    let want: Vec<_> = (0..3).map(|rank| Some((3, 1, rank, 3.0))).collect();
    assert_eq!(out, want);
}

/// A message that has been taken is never a deadlock. Rank 0 receives
/// from rank 1, then sends to ranks 1 and 2, which wait on it. A receive
/// that drains its queue and unlocks the mailbox before it ends its wait
/// registration leaves a probe saying "waiting" on an empty queue; with
/// ranks 1 and 2 parked meanwhile, one of them confirms a deadlock on
/// this correct program. It takes three ranks: the explorer never gives
/// one parked rank the six stall ticks in a row that a confirmation
/// needs, so a two-rank version finds nothing. Every explored schedule
/// must end with every rank holding its message.
#[test]
fn a_taken_message_is_never_a_deadlock() {
    let deadlocks = Arc::new(AtomicUsize::new(0));
    let seen = Arc::clone(&deadlocks);
    let budget = Budget {
        max_schedules: scaled(5000),
        check_divergence: true,
    };
    let report = check_world(3, Config::default(), budget, move |comm| {
        let policy = RetryPolicy::default();
        let got = match comm.rank() {
            0 => comm.try_recv_timeout::<u64>(1, 1, &policy).inspect(|&v| {
                comm.send(1, 2, v + 1);
                comm.send(2, 2, v + 2);
            }),
            1 => {
                comm.send(0, 1, 7u64);
                comm.try_recv_timeout::<u64>(0, 2, &policy)
            }
            _ => comm.try_recv_timeout::<u64>(0, 2, &policy),
        };
        if is_deadlock(&got) {
            seen.fetch_add(1, Ordering::SeqCst);
        }
        format!("{got:?}").into_bytes()
    });
    assert_eq!(
        deadlocks.load(Ordering::SeqCst),
        0,
        "deadlocks confirmed in {} schedules",
        report.schedules
    );
    report.assert_clean();
}
