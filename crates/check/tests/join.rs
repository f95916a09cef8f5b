//! Join-protocol schedule suites (elastic-membership PR): a reserve rank
//! waits in the lobby, a seeded `FaultPlan::with_join` marks it pending at
//! a failpoint, and every founder calls `try_shrink`, which admits it. In
//! every explored interleaving the world must commit the *same* grown
//! communicator — identical epoch, identical membership, the joiner
//! admitted exactly once (no split-brain, no double admission) — and a
//! survivor parked in a stale pre-grow collective must wake `Revoked`,
//! never hang.

use dd_check::{check_elastic_world_with_faults, scaled, Budget, Config, FailureKind, Report};
use dd_comm::{CommError, Communicator, FaultPlan};
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
            "{what}: panic instead of graceful admission: {}",
            f.message
        );
    }
    r.assert_clean();
    eprintln!(
        "{what}: {} schedules explored, zero split-brain",
        r.schedules
    );
}

/// Shared epilogue of every join program: the committed world must be the
/// full founder set plus the joiner appended, each world rank appearing
/// exactly once, at the expected epoch, and live enough to complete a
/// collective whose value pins the membership.
fn assert_grown(grown: &Communicator, total: usize, epoch: usize) -> Vec<u8> {
    assert_eq!(grown.size(), total, "agreement missed the join");
    assert_eq!(grown.epoch(), epoch, "split-brain: unexpected epoch");
    let ranks = grown.world_ranks();
    let expect: Vec<usize> = (0..total).collect();
    assert_eq!(ranks, &expect[..], "wrong or double-admitted membership");
    let sum = grown
        .try_allreduce_sum(grown.world_rank() as f64)
        .expect("grown communicator must be live");
    let expect_sum = (total * (total - 1) / 2) as f64;
    assert_eq!(sum, expect_sum, "collective saw a different membership");
    let mut out = vec![0x61, grown.rank() as u8, grown.epoch() as u8];
    out.extend_from_slice(&sum.to_bits().to_le_bytes());
    out
}

/// `n` founders admit one reserve rank announced at the `work` failpoint;
/// everyone lands on the same epoch-1 world of size `n + 1`.
fn join_then_grow(n: usize, max: usize) -> Report {
    let faults = FaultPlan::new(47).with_join(n, "work");
    check_elastic_world_with_faults(n, 1, Config::default(), budget(max), faults, move |comm| {
        let grown_owned;
        let grown = if comm.is_joiner() {
            comm
        } else {
            comm.failpoint("work").expect("no kills in this plan");
            grown_owned = comm.try_shrink().expect("founder must grow");
            &grown_owned
        };
        assert_grown(grown, n + 1, 1)
    })
}

/// Rank 0 parks in an epoch-0 collective its peers have abandoned for the
/// grow agreement. The pending joiner revokes the old epoch (via
/// `maintain`), so the stale wait must wake with a structured `Revoked`
/// (or observe the revocation immediately) — never hang — after which
/// rank 0 joins the same agreement as everyone else.
fn stale_wait_then_grow(n: usize, max: usize) -> (Report, usize) {
    let faults = FaultPlan::new(53).with_join(n, "work");
    let revoked = Arc::new(AtomicUsize::new(0));
    let seen = Arc::clone(&revoked);
    let report = check_elastic_world_with_faults(
        n,
        1,
        Config::default(),
        budget(max),
        faults,
        move |comm| {
            let grown_owned;
            let grown = if comm.is_joiner() {
                comm
            } else {
                comm.failpoint("work").expect("no kills in this plan");
                comm.maintain();
                if comm.rank() == 0 {
                    let pre = comm.try_allreduce_sum(1.0);
                    assert!(pre.is_err(), "stale pre-grow collective must not succeed");
                    if matches!(pre, Err(CommError::Revoked { .. })) {
                        seen.fetch_add(1, Ordering::SeqCst);
                    }
                }
                grown_owned = comm.try_shrink().expect("founder must grow");
                &grown_owned
            };
            assert_grown(grown, n + 1, 1)
        },
    );
    (report, revoked.load(Ordering::SeqCst))
}

#[test]
fn join_agrees_n2_to_n3() {
    let r = join_then_grow(2, 2500);
    assert_graceful(&r, "n=2→3");
    assert!(r.schedules > 10, "explored {}", r.schedules);
}

#[test]
fn join_agrees_n3_to_n4() {
    let r = join_then_grow(3, 3000);
    assert_graceful(&r, "n=3→4");
}

#[test]
fn stale_wait_wakes_revoked_n3_to_n4() {
    let (r, revoked) = stale_wait_then_grow(3, 3000);
    assert_graceful(&r, "n=3→4 stale collective");
    assert!(
        revoked > 0,
        "no schedule ever surfaced a Revoked from the abandoned epoch-0 collective"
    );
}

/// After the grow commits, every member (joiner included) runs a second
/// empty agreement: the epoch advances but the membership must not change
/// — in particular the joiner must not be admitted a second time.
#[test]
fn no_double_admission_n2_to_n3() {
    let n = 2;
    let faults = FaultPlan::new(59).with_join(n, "work");
    let r = check_elastic_world_with_faults(
        n,
        1,
        Config::default(),
        budget(2000),
        faults,
        move |comm| {
            let grown_owned;
            let grown = if comm.is_joiner() {
                comm
            } else {
                comm.failpoint("work").expect("no kills in this plan");
                grown_owned = comm.try_shrink().expect("founder must grow");
                &grown_owned
            };
            let again = grown.try_shrink().expect("empty agreement must commit");
            assert_grown(&again, n + 1, 2)
        },
    );
    assert_graceful(&r, "n=2→3 double agreement");
}
