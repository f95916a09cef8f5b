//! Bounded-exhaustive schedule suites over correct SPMD programs
//! (N = 2..4): every explored interleaving must terminate without
//! deadlock and produce byte-identical results.

use dd_check::{check_world, check_world_with_faults, scaled, Budget, Config, Report};
use dd_comm::{CommError, FaultPlan, RetryPolicy, TagClass};

fn budget(max: usize) -> Budget {
    Budget {
        max_schedules: scaled(max),
        check_divergence: true,
    }
}

fn le(v: u64) -> Vec<u8> {
    v.to_le_bytes().to_vec()
}

/// r0 -> r1 single message.
fn send_recv_pair(max: usize) -> Report {
    check_world(2, Config::default(), budget(max), |comm| {
        if comm.rank() == 0 {
            comm.send(1, 7, 41u64);
            Vec::new()
        } else {
            le(comm.recv::<u64>(0, 7) + 1)
        }
    })
}

/// Ring of sends: each rank passes a token to its successor.
fn ring(n: usize, max: usize) -> Report {
    check_world(n, Config::default(), budget(max), move |comm| {
        let next = (comm.rank() + 1) % n;
        let prev = (comm.rank() + n - 1) % n;
        comm.send(next, 1, comm.rank() as u64);
        le(comm.recv::<u64>(prev, 1))
    })
}

/// Barrier + allreduce + allgather.
fn collectives(n: usize, max: usize) -> Report {
    check_world(n, Config::default(), budget(max), move |comm| {
        comm.barrier();
        let sum = comm.allreduce_sum(comm.rank() as f64 + 1.0);
        let all = comm.try_allgather(comm.rank() as u64 * 3).unwrap();
        let mut out = sum.to_bits().to_le_bytes().to_vec();
        for v in all {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    })
}

/// Rooted gather/scatter against rank 0.
fn rooted(n: usize, max: usize) -> Report {
    check_world(n, Config::default(), budget(max), move |comm| {
        let gathered = comm.try_gather(0, comm.rank() as u64).unwrap();
        let values = gathered.map(|g| g.iter().map(|v| v * 2).collect::<Vec<u64>>());
        let mine = comm.try_scatter(0, values).unwrap();
        le(mine)
    })
}

/// Split into even/odd sub-worlds, reduce within each.
fn split(n: usize, max: usize) -> Report {
    check_world(n, Config::default(), budget(max), move |comm| {
        let sub = comm
            .try_split(Some(comm.rank() % 2))
            .unwrap()
            .expect("member of a color");
        let s = sub.allreduce_sum(comm.rank() as f64);
        s.to_bits().to_le_bytes().to_vec()
    })
}

/// Non-blocking iallreduce overlapped with point-to-point traffic.
fn iallreduce_overlap(max: usize) -> Report {
    check_world(2, Config::default(), budget(max), |comm| {
        let pending = comm.iallreduce_sum_vec(vec![comm.rank() as f64, 1.0]);
        if comm.rank() == 0 {
            comm.send(1, 9, 5u64);
        } else {
            let got = comm.recv::<u64>(0, 9);
            assert_eq!(got, 5);
        }
        let reduced = comm
            .wait_reduce(pending)
            .expect("nobody dies in this program");
        reduced
            .iter()
            .flat_map(|v| v.to_bits().to_le_bytes())
            .collect()
    })
}

/// Seeded message drops force the retry path; drop decisions are a pure
/// function of message identity, so results stay schedule-invariant.
fn dropped_messages(max: usize) -> Report {
    let faults = FaultPlan::new(11).with_drops(0.6, 2);
    check_world_with_faults(2, Config::default(), budget(max), faults, |comm| {
        if comm.rank() == 0 {
            comm.send(1, 3, 17u64);
            Vec::new()
        } else {
            let v = comm
                .try_recv_timeout::<u64>(0, 3, &RetryPolicy::unbounded())
                .expect("unbounded retry absorbs drops");
            le(v)
        }
    })
}

/// Seeded payload corruption in a token ring: the checksummed envelope
/// detects every flipped delivery and the retransmit restores the pristine
/// value, on every schedule — the received tokens *and* the retransmit
/// counts must be schedule-invariant.
fn retransmit_after_corrupt_ring(n: usize, max: usize) -> Report {
    let faults = FaultPlan::new(5).with_corrupt("exchange", None, TagClass::Any, 5);
    check_world_with_faults(n, Config::default(), budget(max), faults, move |comm| {
        comm.trace_phase("exchange");
        let next = (comm.rank() + 1) % n;
        let prev = (comm.rank() + n - 1) % n;
        comm.send(next, 3, comm.rank() as u64 * 7 + 1);
        let v = comm
            .try_recv_timeout::<u64>(prev, 3, &RetryPolicy::unbounded())
            .expect("a one-shot corruption heals within the retransmit budget");
        assert_eq!(
            v,
            prev as u64 * 7 + 1,
            "retransmit must restore the payload"
        );
        let stats = comm.fault_stats();
        let mut out = le(v);
        out.extend(le(stats.corruptions_detected));
        out.extend(le(stats.retransmits));
        out
    })
}

/// A persistently corrupting sender must surface the typed
/// [`CommError::Corrupt`] on every schedule once the retransmit budget
/// exhausts — never a value, never a hang.
fn persistent_corruption_is_typed(max: usize) -> Report {
    let faults = FaultPlan::new(7).with_corrupt_persistent("exchange", Some(0), TagClass::P2p, 7);
    check_world_with_faults(2, Config::default(), budget(max), faults, |comm| {
        comm.trace_phase("exchange");
        if comm.rank() == 0 {
            comm.send(1, 3, 99u64);
            Vec::new()
        } else {
            match comm.try_recv_timeout::<u64>(0, 3, &RetryPolicy::unbounded()) {
                Err(CommError::Corrupt { src: 0, tag: 3, .. }) => vec![5],
                other => panic!("expected typed Corrupt, got {other:?}"),
            }
        }
    })
}

#[test]
fn send_recv_pair_is_clean() {
    let r = send_recv_pair(500);
    r.assert_clean();
    assert!(r.schedules > 1, "expected exploration, got {}", r.schedules);
}

#[test]
fn ring_n3_is_clean() {
    ring(3, 2000).assert_clean();
}

#[test]
fn ring_n4_is_clean() {
    ring(4, 3000).assert_clean();
}

#[test]
fn collectives_n2_is_clean() {
    collectives(2, 1000).assert_clean();
}

#[test]
fn collectives_n3_is_clean() {
    collectives(3, 3000).assert_clean();
}

#[test]
fn rooted_n3_is_clean() {
    rooted(3, 2000).assert_clean();
}

#[test]
fn split_n4_is_clean() {
    split(4, 3000).assert_clean();
}

#[test]
fn iallreduce_overlap_is_clean() {
    iallreduce_overlap(1000).assert_clean();
}

#[test]
fn dropped_messages_are_schedule_invariant() {
    dropped_messages(1000).assert_clean();
}

#[test]
fn retransmit_after_corrupt_ring_n2_is_clean() {
    let r = retransmit_after_corrupt_ring(2, 1000);
    r.assert_clean();
    assert!(r.schedules > 1, "expected exploration, got {}", r.schedules);
}

#[test]
fn retransmit_after_corrupt_ring_n3_is_clean() {
    retransmit_after_corrupt_ring(3, 2000).assert_clean();
}

#[test]
fn persistent_corruption_is_typed_on_every_schedule() {
    persistent_corruption_is_typed(1000).assert_clean();
}

/// Acceptance: the N=2..4 suites together must cover at least 10k distinct
/// schedules (DFS schedules are distinct by construction), all clean.
#[test]
fn suites_explore_at_least_10k_schedules() {
    let reports = [
        send_recv_pair(1500),
        ring(3, 3000),
        ring(4, 3000),
        collectives(2, 1500),
        collectives(3, 3000),
        rooted(3, 2500),
        split(4, 3000),
        iallreduce_overlap(1500),
        dropped_messages(1500),
        retransmit_after_corrupt_ring(2, 1500),
        retransmit_after_corrupt_ring(3, 2000),
        persistent_corruption_is_typed(1500),
    ];
    let mut total = 0;
    for r in &reports {
        r.assert_clean();
        total += r.schedules;
    }
    assert!(
        total >= 10_000,
        "expected >= 10k schedules across suites, explored {total}"
    );
}
