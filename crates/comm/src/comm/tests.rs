use super::*;

#[test]
fn ping_pong() {
    let out = World::run_default(2, |comm| {
        if comm.rank() == 0 {
            comm.send(1, 7, vec![1.0f64, 2.0, 3.0]);
            comm.recv::<Vec<f64>>(1, 8)
        } else {
            let v = comm.recv::<Vec<f64>>(0, 7);
            let doubled: Vec<f64> = v.iter().map(|x| x * 2.0).collect();
            comm.send(0, 8, doubled.clone());
            doubled
        }
    });
    assert_eq!(out[0], vec![2.0, 4.0, 6.0]);
}

#[test]
fn messages_fifo_per_source_tag() {
    let out = World::run_default(2, |comm| {
        if comm.rank() == 0 {
            for i in 0..10u64 {
                comm.send(1, 3, i);
            }
            Vec::new()
        } else {
            (0..10).map(|_| comm.recv::<u64>(0, 3)).collect::<Vec<_>>()
        }
    });
    assert_eq!(out[1], (0..10).collect::<Vec<u64>>());
}

#[test]
fn allreduce_sum_and_max() {
    let out = World::run_default(5, |comm| {
        let s = comm.allreduce_sum(comm.rank() as f64);
        let mu = comm.try_allreduce_max_usize(comm.rank() * 3).unwrap();
        (s, mu)
    });
    for &(s, mu) in &out {
        assert_eq!(s, 10.0);
        assert_eq!(mu, 12);
    }
}

#[test]
fn allreduce_vec_deterministic() {
    let a = World::run_default(4, |comm| {
        comm.try_allreduce_sum_vec(vec![comm.rank() as f64 * 0.1, 1.0])
            .unwrap()
    });
    let b = World::run_default(4, |comm| {
        comm.try_allreduce_sum_vec(vec![comm.rank() as f64 * 0.1, 1.0])
            .unwrap()
    });
    assert_eq!(a, b);
    assert!((a[0][1] - 4.0).abs() < 1e-15);
}

#[test]
fn gather_and_scatter_roundtrip() {
    let out = World::run_default(4, |comm| {
        let gathered = comm.try_gather(0, vec![comm.rank() as f64; 2]).unwrap();
        if comm.rank() == 0 {
            let g = gathered.unwrap();
            assert_eq!(g.len(), 4);
            comm.try_scatter(0, Some(g)).unwrap()
        } else {
            comm.try_scatter::<Vec<f64>>(0, None).unwrap()
        }
    });
    for (r, v) in out.iter().enumerate() {
        assert_eq!(v, &vec![r as f64; 2]);
    }
}

#[test]
fn gatherv_varying_lengths() {
    let out = World::run_default(3, |comm| {
        let mine = vec![comm.rank() as f64; comm.rank() + 1];
        comm.try_gatherv(2, mine).unwrap()
    });
    let g = out[2].as_ref().unwrap();
    assert_eq!(g[0].len(), 1);
    assert_eq!(g[1].len(), 2);
    assert_eq!(g[2].len(), 3);
}

#[test]
fn allgather_orders_by_rank() {
    let out = World::run_default(4, |comm| {
        comm.try_allgather(comm.rank() as u64 * 10).unwrap()
    });
    for v in out {
        assert_eq!(v, vec![0, 10, 20, 30]);
    }
}

#[test]
fn split_into_groups() {
    // 6 ranks, colors 0/1 alternating: sub-comms of size 3 with ranks
    // ordered by world rank.
    let out = World::run_default(6, |comm| {
        let color = comm.rank() % 2;
        let sub = comm.try_split(Some(color)).unwrap().unwrap();
        let members = sub.try_allgather(comm.rank()).unwrap();
        (sub.rank(), sub.size(), members)
    });
    assert_eq!(out[0].2, vec![0, 2, 4]);
    assert_eq!(out[1].2, vec![1, 3, 5]);
    assert_eq!(out[4], (2, 3, vec![0, 2, 4]));
}

#[test]
fn split_undefined_gets_none() {
    let out = World::run_default(3, |comm| {
        let color = if comm.rank() == 1 { None } else { Some(0) };
        comm.try_split(color).unwrap().is_none()
    });
    assert_eq!(out, vec![false, true, false]);
}

#[test]
fn split_tracks_world_ranks() {
    let out = World::run_default(6, |comm| {
        let sub = comm.try_split(Some(comm.rank() % 2)).unwrap().unwrap();
        sub.world_rank()
    });
    assert_eq!(out, vec![0, 1, 2, 3, 4, 5]);
}

#[test]
fn clocks_advance_through_comm() {
    let out = World::run_default(3, |comm| {
        let t0 = comm.clock();
        comm.barrier();
        comm.allreduce_sum(1.0);
        comm.clock() - t0
    });
    for dt in out {
        assert!(dt > 0.0, "clock did not advance: {dt}");
    }
}

#[test]
fn collective_synchronizes_clocks() {
    let out = World::run_default(2, |comm| {
        if comm.rank() == 0 {
            comm.advance_clock(5.0); // rank 0 is "slow"
        }
        comm.barrier();
        comm.clock()
    });
    // After the barrier both ranks are at ≥ 5s.
    assert!(out[1] >= 5.0, "rank 1 clock {} < 5", out[1]);
}

/// Inside a compute section of a 2-rank world: wait until the other rank is
/// inside its own, or until `give_up` (called between looks) says so.
fn both_computing(entered: &AtomicUsize, mut give_up: impl FnMut() -> bool) -> bool {
    entered.fetch_add(1, AtOrd::SeqCst);
    while entered.load(AtOrd::SeqCst) < 2 {
        if give_up() {
            return false;
        }
    }
    true
}

/// A `give_up` that spins, for 10 s of this thread's CPU time at most.
fn spin_10s() -> impl FnMut() -> bool {
    let t0 = crate::time::thread_cpu_time();
    move || {
        std::hint::spin_loop();
        crate::time::thread_cpu_time() - t0 > 10.0
    }
}

#[test]
fn compute_sections_of_two_ranks_are_open_at_once() {
    let entered = AtomicUsize::new(0);
    let out = World::run_default(2, |comm| {
        comm.compute(|| both_computing(&entered, spin_10s()))
    });
    assert_eq!(
        out,
        vec![true, true],
        "a rank never saw the other inside its compute section"
    );
}

/// Rank 0 sleeps and rank 1 multiplies, each inside `compute` and both at
/// the same time: the clock charges what the thread executed, not what
/// passed on the wall and not what the other rank did.
#[cfg(all(
    not(miri),
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
#[test]
fn concurrent_compute_charges_each_rank_its_own_cpu_time() {
    let entered = AtomicUsize::new(0);
    let out = World::run_default(2, |comm| {
        let t0 = comm.clock();
        let together = comm.compute(|| {
            if comm.rank() == 0 {
                // Looks 1 ms apart, 10 s of them at most; then the sleep
                // the assertion is about.
                let mut looks = 0;
                let together = both_computing(&entered, || {
                    std::thread::sleep(Duration::from_millis(1));
                    looks += 1;
                    looks > 10_000
                });
                std::thread::sleep(Duration::from_millis(50));
                together
            } else {
                let together = both_computing(&entered, spin_10s());
                let start = crate::time::thread_cpu_time();
                let mut x = 1.0f64;
                while crate::time::thread_cpu_time() - start < 0.050 {
                    for _ in 0..1000 {
                        x = std::hint::black_box(x).mul_add(0.999_999, 1e-9);
                    }
                }
                together && x.is_finite()
            }
        });
        (together, comm.clock() - t0)
    });
    assert!(out[0].0 && out[1].0, "the two sections did not overlap");
    assert!(out[0].1 < 0.010, "50 ms asleep charged {} s", out[0].1);
    assert!(out[1].1 >= 0.025, "50 ms of FMAs charged {} s", out[1].1);
}

#[test]
fn nonblocking_reduce_overlaps() {
    let out = World::run_default(2, |comm| {
        let pend = comm.iallreduce_sum_vec(vec![1.0, comm.rank() as f64]);
        // Simulated overlapped work longer than the reduction.
        comm.advance_clock(1.0);
        let t_before_wait = comm.clock();
        let r = comm.wait_reduce(pend).unwrap();
        // The wait must not add the full reduction on top of the work.
        assert!(comm.clock() - t_before_wait < 0.5);
        r
    });
    assert_eq!(out[0], vec![2.0, 1.0]);
    assert_eq!(out[1], vec![2.0, 1.0]);
}

#[test]
fn multiple_pending_reduces_wait_any_order() {
    let out = World::run_default(3, |comm| {
        let p1 = comm.iallreduce_sum_vec(vec![1.0]);
        let p2 = comm.iallreduce_sum_vec(vec![10.0 * (comm.rank() + 1) as f64]);
        // wait in reverse order of posting
        let r2 = comm.wait_reduce(p2).unwrap();
        let r1 = comm.wait_reduce(p1).unwrap();
        (r1[0], r2[0])
    });
    for &(a, b) in &out {
        assert_eq!(a, 3.0);
        assert_eq!(b, 60.0);
    }
}

#[test]
fn wait_reduce_reports_a_participant_that_died_before_posting() {
    let plan = FaultPlan::new(0).with_kill(2, "boundary");
    let out = World::run_with_faults(3, CostModel::default(), plan, |comm| {
        if comm.failpoint("boundary").is_err() {
            return Err(CommError::RankDead { rank: 2 });
        }
        let pend = comm.iallreduce_sum_vec(vec![1.0]);
        comm.wait_reduce(pend)
    });
    for r in out {
        assert_eq!(r, Err(CommError::RankDead { rank: 2 }));
    }
}

#[test]
#[should_panic]
fn nonblocking_reduce_of_unequal_lengths_panics() {
    World::run_default(2, |comm| {
        let pend = comm.iallreduce_sum_vec(vec![1.0; 1 + comm.rank()]);
        let _ = comm.wait_reduce(pend);
    });
}

#[test]
fn stats_count_messages() {
    let out = World::run_default(2, |comm| {
        if comm.rank() == 0 {
            comm.send(1, 1, vec![0.0f64; 100]);
        } else {
            let _ = comm.recv::<Vec<f64>>(0, 1);
        }
        comm.barrier();
        comm.stats()
    });
    assert_eq!(out[0].p2p_messages, 1);
    assert_eq!(out[0].p2p_bytes, 800);
    assert_eq!(out[0].collective_calls, 2); // one barrier per rank
}

#[test]
fn tags_isolate_message_streams() {
    let out = World::run_default(2, |comm| {
        if comm.rank() == 0 {
            comm.send(1, 10, 1.0f64);
            comm.send(1, 20, 2.0f64);
            comm.send(1, 10, 3.0f64);
            0.0
        } else {
            // receive tag 20 first even though it was sent second
            let b = comm.recv::<f64>(0, 20);
            let a1 = comm.recv::<f64>(0, 10);
            let a2 = comm.recv::<f64>(0, 10);
            b * 100.0 + a1 * 10.0 + a2
        }
    });
    assert_eq!(out[1], 213.0);
}

#[test]
fn sub_communicator_collectives_are_independent() {
    // Interleave collectives on world and on a split without deadlock
    // or cross-talk.
    let out = World::run_default(4, |comm| {
        let sub = comm.try_split(Some(comm.rank() % 2)).unwrap().unwrap();
        let s1 = sub.allreduce_sum(1.0);
        let w = comm.allreduce_sum(10.0);
        let s2 = sub.allreduce_sum(comm.rank() as f64);
        (s1, w, s2)
    });
    for (r, &(s1, w, s2)) in out.iter().enumerate() {
        assert_eq!(s1, 2.0);
        assert_eq!(w, 40.0);
        // color 0 = ranks {0,2}, color 1 = ranks {1,3}
        let expect = if r % 2 == 0 { 2.0 } else { 4.0 };
        assert_eq!(s2, expect, "rank {r}");
    }
}

#[test]
fn nested_split() {
    // split of a split (the paper's masterComm drawn from splitComm
    // leaders).
    let out = World::run_default(4, |comm| {
        let sub = comm.try_split(Some(comm.rank() / 2)).unwrap().unwrap();
        let leaders = comm
            .try_split(if sub.rank() == 0 { Some(0) } else { None })
            .unwrap();
        match leaders {
            Some(l) => l.try_allgather(comm.rank() as u64).unwrap(),
            None => Vec::new(),
        }
    });
    assert_eq!(out[0], vec![0, 2]);
    assert_eq!(out[2], vec![0, 2]);
    assert!(out[1].is_empty() && out[3].is_empty());
}

#[test]
fn gather_cost_scales_better_than_gatherv() {
    // The modeled clocks must reflect the O(log N) vs O(N) distinction.
    let t_uniform = World::run_default(16, |comm| {
        comm.barrier();
        comm.reset_clock();
        for _ in 0..50 {
            let _ = comm.try_gather(0, 1.0f64).unwrap();
        }
        comm.clock()
    });
    let t_varying = World::run_default(16, |comm| {
        comm.barrier();
        comm.reset_clock();
        for _ in 0..50 {
            let _ = comm.try_gatherv(0, 1.0f64).unwrap();
        }
        comm.clock()
    });
    assert!(
        t_varying[0] > 1.5 * t_uniform[0],
        "gatherv {:.2e} not clearly costlier than gather {:.2e}",
        t_varying[0],
        t_uniform[0]
    );
}

#[test]
#[should_panic]
fn type_mismatch_panics() {
    World::run_default(2, |comm| {
        if comm.rank() == 0 {
            comm.send(1, 0, 1.0f64);
        } else {
            let _ = comm.recv::<u64>(0, 0);
        }
    });
}

#[test]
fn many_ranks_smoke() {
    let out = World::run_default(32, |comm| comm.allreduce_sum(1.0));
    assert!(out.iter().all(|&s| s == 32.0));
}

// ----------------------------------------------------------- fault tests

#[test]
fn blanket_wire_size_covers_nested_payloads() {
    let nested: Vec<Vec<u32>> = vec![vec![1, 2, 3], vec![4]];
    assert_eq!(nested.wire_bytes(), 16);
    let mixed: Vec<(u32, Vec<f64>)> = vec![(1, vec![0.0; 4])];
    assert_eq!(mixed.wire_bytes(), 4 + 32);
    let out = World::run_default(2, |comm| {
        if comm.rank() == 0 {
            comm.send(1, 5, vec![vec![7u32, 8], vec![9]]);
            Vec::new()
        } else {
            comm.recv::<Vec<Vec<u32>>>(0, 5)
        }
    });
    assert_eq!(out[1], vec![vec![7, 8], vec![9]]);
}

#[test]
fn delays_preserve_payloads_and_cost_virtual_time() {
    let plan = FaultPlan::new(11).with_delays(1.0, 0.5);
    let out = World::run_with_faults(2, CostModel::default(), plan, |comm| {
        if comm.rank() == 0 {
            comm.send(1, 1, vec![1.0f64, 2.0]);
            (Vec::new(), 0.0, comm.fault_stats())
        } else {
            let v = comm.recv::<Vec<f64>>(0, 1);
            (v, comm.clock(), comm.fault_stats())
        }
    });
    assert_eq!(out[1].0, vec![1.0, 2.0]);
    assert!(out[1].1 >= 0.5, "delay not charged: clock {}", out[1].1);
    assert_eq!(out[0].2.delays_injected, 1);
}

#[test]
fn dropped_messages_are_redelivered_with_retries() {
    let plan = FaultPlan::new(13).with_drops(1.0, 3);
    let out = World::run_with_faults(2, CostModel::default(), plan, |comm| {
        if comm.rank() == 0 {
            comm.send(1, 2, 42.0f64);
            (0.0, comm.fault_stats())
        } else {
            let t0 = comm.clock();
            let v = comm.recv::<f64>(0, 2);
            assert!(comm.clock() > t0, "retries must charge virtual time");
            (v, comm.fault_stats())
        }
    });
    assert_eq!(out[1].0, 42.0);
    assert_eq!(out[0].1.drops_injected, 1);
    assert_eq!(out[1].1.retries, 3);
    assert_eq!(out[1].1.timeouts, 0);
}

#[test]
fn retry_exhaustion_times_out() {
    let plan = FaultPlan::new(17).with_drops(1.0, 10);
    let out = World::run_with_faults(2, CostModel::default(), plan, |comm| {
        if comm.rank() == 0 {
            comm.send(1, 3, 1.0f64);
            Ok(0.0)
        } else {
            let policy = RetryPolicy {
                max_retries: 2,
                timeout: 1e-4,
                backoff: 2.0,
                jitter: 0.0,
                max_retransmits: 4,
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

/// The drops seeded on a communicator do not depend on how many messages
/// the rank sent on another one first: a split (like a recovered epoch's
/// communicator) numbers its messages from 0, whatever traffic its parent
/// carried.
#[test]
fn a_new_communicator_draws_its_drops_from_its_own_message_index() {
    const SENDS: usize = 32;
    let drops_on_split = |earlier: usize| {
        let plan = FaultPlan::new(29).with_drops(0.5, 1);
        let out = World::run_with_faults(2, CostModel::default(), plan, move |comm| {
            let peer = 1 - comm.rank();
            for k in 0..earlier {
                if comm.rank() == 0 {
                    comm.send(peer, 9, k as f64);
                } else {
                    comm.recv::<f64>(peer, 9);
                }
            }
            let sub = comm
                .try_split(Some(0))
                .unwrap()
                .expect("both ranks join color 0");
            let mut dropped = Vec::new();
            for k in 0..SENDS {
                if sub.rank() == 0 {
                    let before = sub.fault_stats().drops_injected;
                    sub.send(peer, 4, k as f64);
                    dropped.push(sub.fault_stats().drops_injected > before);
                } else {
                    sub.recv::<f64>(peer, 4);
                }
            }
            dropped
        });
        out[0].clone()
    };
    let once = drops_on_split(1);
    assert!(once.iter().any(|&d| d) && once.iter().any(|&d| !d));
    assert_eq!(once, drops_on_split(2));
    assert_eq!(once, drops_on_split(5));
}

#[test]
fn kill_failpoint_surfaces_rank_dead() {
    let plan = FaultPlan::new(0).with_kill(1, "mid");
    let out = World::run_with_faults(2, CostModel::default(), plan, |comm| {
        if comm.rank() == 1 {
            let r = comm.failpoint("mid");
            assert_eq!(r, Err(CommError::RankDead { rank: 1 }));
            Err(())
        } else {
            assert_eq!(comm.failpoint("mid"), Ok(()));
            // Rank 1 died before sending: the receive must not hang.
            comm.try_recv_timeout::<f64>(1, 9, &RetryPolicy::default())
                .map_err(|e| assert_eq!(e, CommError::RankDead { rank: 1 }))
        }
    });
    assert!(out.iter().all(|r| r.is_err()));
}

#[test]
fn try_barrier_reports_dead_participant() {
    let plan = FaultPlan::new(0).with_kill(2, "boundary");
    let out = World::run_with_faults(3, CostModel::default(), plan, |comm| {
        if comm.failpoint("boundary").is_err() {
            return Err(CommError::RankDead { rank: 2 });
        }
        comm.try_barrier()
    });
    assert_eq!(out[0], Err(CommError::RankDead { rank: 2 }));
    assert_eq!(out[1], Err(CommError::RankDead { rank: 2 }));
    assert_eq!(out[2], Err(CommError::RankDead { rank: 2 }));
}

#[test]
fn exited_rank_is_detected_on_recv() {
    let out = World::run_default(2, |comm| {
        if comm.rank() == 0 {
            // Exit immediately without sending anything.
            Ok(0.0)
        } else {
            comm.try_recv_timeout::<f64>(0, 4, &RetryPolicy::default())
        }
    });
    assert_eq!(out[1], Err(CommError::RankDead { rank: 0 }));
}

#[test]
fn cyclic_recv_deadlock_is_detected() {
    let out = World::run_default(2, |comm| {
        // Both ranks wait for a message the other never sends.
        let other = 1 - comm.rank();
        comm.try_recv_timeout::<f64>(other, 99, &RetryPolicy::default())
    });
    // Whichever rank trips first reports Deadlock; the other may instead
    // observe the first one's exit as RankDead. Neither may hang.
    assert!(out.iter().all(|r| r.is_err()));
    assert!(out
        .iter()
        .any(|r| matches!(r, Err(CommError::Deadlock { .. }))));
}

#[test]
fn deadlock_detected_despite_unrelated_pending_message() {
    // The satisfiability probes must key on the exact (src, tag) a rank
    // waits for: a pending message under a *different* tag does not make
    // the wait satisfiable, so this genuine cycle must still be caught.
    let out = World::run_default(2, |comm| {
        let other = 1 - comm.rank();
        if comm.rank() == 1 {
            comm.send(0, 5, 1.25f64);
        }
        comm.try_recv_timeout::<f64>(other, 99, &RetryPolicy::default())
    });
    assert!(out.iter().all(|r| r.is_err()));
    assert!(out
        .iter()
        .any(|r| matches!(r, Err(CommError::Deadlock { .. }))));
}

#[test]
fn deadlock_detected_with_mixed_recv_and_collective_waits() {
    // Rank 0 waits on a message nobody sends while the others park inside
    // a collective rank 0 never joins: the stalled world mixes a mailbox
    // wait with slot waits, and confirmation must see through both probe
    // kinds. Exactly which rank trips first is scheduling-dependent, but
    // nobody may hang and at least one rank must name the deadlock.
    let out = World::run_default(3, |comm| {
        if comm.rank() == 0 {
            comm.try_recv_timeout::<f64>(1, 99, &RetryPolicy::default())
        } else {
            comm.try_allreduce_sum(1.0).map(|_| 0.0)
        }
    });
    assert!(out.iter().all(|r| r.is_err()));
    assert!(out
        .iter()
        .any(|r| matches!(r, Err(CommError::Deadlock { .. }))));
}

#[test]
fn should_fail_matches_plan() {
    let plan = FaultPlan::new(0)
        .with_failure(Some(1), "eigensolve")
        .with_failure(None, "coarse-factor");
    let out = World::run_with_faults(3, CostModel::default(), plan, |comm| {
        (
            comm.should_fail("eigensolve"),
            comm.should_fail("coarse-factor"),
        )
    });
    assert_eq!(out, vec![(false, true), (true, true), (false, true)]);
}

// ------------------------------------------------- corruption / envelopes

#[test]
fn byte_fold_is_the_published_fnv1a_64() {
    assert_eq!(fnv1a_bytes(0, *b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a_bytes(0, *b"a"), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(fnv1a_bytes(0, *b"foobar"), 0x8594_4171_f739_67e8);
    assert_ne!(fnv1a_bytes(1, *b"a"), fnv1a_bytes(0, *b"a"));
}

#[test]
fn wire_fold_and_flip_agree_on_layout() {
    let mut v = vec![(3u32, vec![1.5f64, -2.25]), (7, vec![0.0])];
    let h0 = wire_sum(&v, 0x1234);
    assert_eq!(h0, wire_sum(&v, 0x1234), "checksum must be a pure function");
    assert_ne!(h0, wire_sum(&v, 0x1235), "salt must perturb the checksum");
    // Every bit of the mixed payload: the fold takes one scalar per step
    // and each step is a bijection of the accumulator, so no single flip
    // can cancel.
    let bits = 8 * v.wire_bytes() as u64;
    assert_eq!(bits, 2 * 32 + 3 * 64);
    for bit in 0..bits {
        v.wire_flip(bit);
        assert_ne!(
            wire_sum(&v, 0x1234),
            h0,
            "flip of bit {bit} must change the sum"
        );
        v.wire_flip(bit);
        assert_eq!(
            wire_sum(&v, 0x1234),
            h0,
            "double flip of bit {bit} must restore"
        );
    }
}

#[test]
fn corrupted_payload_is_detected_retransmitted_and_delivered_intact() {
    use crate::fault::TagClass;
    let plan = FaultPlan::new(21).with_corrupt("exchange", Some(0), TagClass::P2p, 7);
    let out = World::run_with_faults(2, CostModel::default(), plan, |comm| {
        comm.trace_phase("exchange");
        if comm.rank() == 0 {
            comm.send(1, 5, vec![1.0f64, 2.0, 3.0]);
            (Vec::new(), comm.fault_stats())
        } else {
            (comm.recv::<Vec<f64>>(0, 5), comm.fault_stats())
        }
    });
    // Delivered bit-identical despite the injected flip: the corruption
    // was caught by the envelope checksum and answered with a retransmit.
    assert_eq!(out[1].0, vec![1.0, 2.0, 3.0]);
    assert_eq!(out[0].1.corruptions_injected, 1);
    assert_eq!(out[1].1.corruptions_detected, 1);
    assert_eq!(out[1].1.retransmits, 1);
}

#[test]
fn persistent_corruption_exhausts_retransmits_and_surfaces_typed() {
    use crate::fault::TagClass;
    let plan = FaultPlan::new(22).with_corrupt_persistent("exchange", None, TagClass::Any, 9);
    let out = World::run_with_faults(2, CostModel::default(), plan, |comm| {
        comm.trace_phase("exchange");
        if comm.rank() == 0 {
            comm.send(1, 6, 42.0f64);
            Ok(0.0)
        } else {
            let r = comm.try_recv_timeout::<f64>(0, 6, &RetryPolicy::default());
            let stats = comm.fault_stats();
            assert!(stats.corruptions_detected > stats.retransmits);
            assert_eq!(
                stats.retransmits as u32,
                RetryPolicy::default().max_retransmits
            );
            r
        }
    });
    assert_eq!(
        out[1],
        Err(CommError::Corrupt {
            src: 0,
            tag: 6,
            epoch: 0
        })
    );
}

#[test]
fn corruption_specs_only_fire_in_their_phase() {
    use crate::fault::TagClass;
    let plan = FaultPlan::new(23).with_corrupt("coarse-gather", None, TagClass::Any, 9);
    let out = World::run_with_faults(2, CostModel::default(), plan, |comm| {
        comm.trace_phase("exchange");
        if comm.rank() == 0 {
            comm.send(1, 7, vec![5u64, 6]);
            (Vec::new(), comm.fault_stats())
        } else {
            (comm.recv::<Vec<u64>>(0, 7), comm.fault_stats())
        }
    });
    assert_eq!(out[1].0, vec![5, 6]);
    assert_eq!(out[0].1.corruptions_injected, 0);
    assert_eq!(out[1].1.corruptions_detected, 0);
}

#[test]
fn corrupted_collectives_complete_all_or_nothing_with_charges() {
    use crate::fault::TagClass;
    let plan = FaultPlan::new(24).with_corrupt("solve", None, TagClass::Collective, 3);
    let out = World::run_with_faults(3, CostModel::default(), plan, |comm| {
        comm.trace_phase("solve");
        let s = comm.allreduce_sum(comm.rank() as f64 + 1.0);
        (s, comm.fault_stats())
    });
    for (s, st) in &out {
        assert_eq!(*s, 6.0, "corruption must never change a collective result");
        assert_eq!(st.corruptions_injected, 1);
        assert_eq!(st.corruptions_detected, 1);
        assert_eq!(st.retransmits, 1);
    }
}

#[test]
fn arc_payload_corruption_detaches_from_the_sender_handle() {
    use crate::fault::TagClass;
    let plan = FaultPlan::new(25).with_corrupt("exchange", Some(0), TagClass::P2p, 11);
    let out = World::run_with_faults(2, CostModel::default(), plan, |comm| {
        comm.trace_phase("exchange");
        if comm.rank() == 0 {
            let buf = Arc::new(vec![1.0f64, 2.0]);
            comm.send(1, 8, Arc::clone(&buf));
            // The sender's pristine buffer (what a retransmit re-sends)
            // must never be damaged by the injected flip.
            assert_eq!(*buf, vec![1.0, 2.0]);
            Vec::new()
        } else {
            (*comm.recv::<Arc<Vec<f64>>>(0, 8)).clone()
        }
    });
    assert_eq!(out[1], vec![1.0, 2.0]);
}

#[test]
fn faults_do_not_change_collective_results() {
    let faulty = World::run_with_faults(
        4,
        CostModel::default(),
        FaultPlan::new(3).with_delays(0.5, 1e-3).with_drops(0.5, 2),
        |comm| {
            let s = comm.allreduce_sum(comm.rank() as f64 + 1.0);
            let g = comm.try_allgather(comm.rank() as u64).unwrap();
            (s, g)
        },
    );
    for (s, g) in faulty {
        assert_eq!(s, 10.0);
        assert_eq!(g, vec![0, 1, 2, 3]);
    }
}
