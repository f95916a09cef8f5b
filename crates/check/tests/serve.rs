//! Serve-protocol schedule suites (solve-as-a-service PR): the *protocol
//! skeleton* of `dd_serve::try_serve` — static batch plan, completeness
//! skip, collective solve, deposit into the shared [`ResponseStore`],
//! shrink/grow and re-serve of the incomplete suffix — explored over every
//! interleaving the checker can reach. In the server the loop around an
//! epoch is `dd_core::drive_epochs` (the solvers' loop: one agreement per
//! membership change, then the epoch closure again on the re-planned
//! world); the suites spell one turn of it out by hand — `serve_batches`,
//! `try_shrink`/`try_grow`, `serve_batches` on the committed communicator
//! — so that the checker owns every step. Numerics are stubbed with a
//! membership-invariant collective sum (full solves would route
//! schedule-dependent `compute` time into the canonical bytes); what the
//! suites pin is the bookkeeping:
//!
//! * **no lost response** — after the stream ends, every `(request, rhs)`
//!   holds all subdomain pieces, in every schedule;
//! * **no double answer** — each `(request, rhs, subdomain)` piece is
//!   solved and deposited exactly once, even when a mid-stream death or
//!   join forces an epoch change (completed responses are skipped, the
//!   incomplete suffix is re-solved wholesale);
//! * **schedule invariance** — the store contents and final membership are
//!   byte-identical across schedules (divergence checking on), and any
//!   failing schedule prints a replay script.

use dd_check::{
    check_elastic_world_with_faults, check_world, check_world_with_faults, scaled, Budget, Config,
    FailureKind, Report,
};
use dd_comm::{Communicator, FaultPlan};
use dd_serve::{
    plan_batches, Batch, BatcherCfg, Payload, Request, ResponseStore, SolveMeta, Workload,
};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Subdomains served; worlds are smaller or equal, chunk-owned.
const NSUBS: usize = 3;

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
            "{what}: protocol invariant broken: {}",
            f.message
        );
    }
    r.assert_clean();
    eprintln!("{what}: {} schedules explored", r.schedules);
}

/// The response plane of one schedule: the real store plus a raw deposit
/// counter (the store's own idempotency would mask a double answer).
#[derive(Default)]
struct Plane {
    store: ResponseStore,
    deposits: Mutex<BTreeMap<(usize, usize, usize), usize>>,
}

type Slot = Arc<Mutex<Option<Arc<Plane>>>>;

/// Rendezvous on a fresh plane: schedules run sequentially, so two
/// barriers around rank 0's publish give every member of *this* schedule
/// the new plane and never a stale one.
fn fresh_plane(c: &Communicator, slot: &Slot) -> Arc<Plane> {
    c.try_barrier().expect("rendezvous barrier");
    if c.rank() == 0 {
        let mut s = slot.lock().unwrap_or_else(|p| p.into_inner());
        *s = Some(Arc::new(Plane::default()));
    }
    c.try_barrier().expect("rendezvous barrier");
    read_plane(slot)
}

/// Late readers (joiners) take the plane as published — their admission
/// happens after the founders' rendezvous.
fn read_plane(slot: &Slot) -> Arc<Plane> {
    let s = slot.lock().unwrap_or_else(|p| p.into_inner());
    Arc::clone(s.as_ref().expect("plane published before any reader"))
}

/// Balanced contiguous chunks: which subdomains `rank` of a `size`-member
/// world owns (the model's stand-in for the repartition plan).
fn owned(rank: usize, size: usize) -> impl Iterator<Item = usize> {
    (0..NSUBS).filter(move |s| s * size / NSUBS == rank)
}

/// The stub "solution value" of subdomain `s` for item `(req, rhs)`.
fn h(req: usize, rhs: usize, s: usize) -> f64 {
    (req * 31 + rhs * 7 + s + 1) as f64
}

/// A 3-batch, 4-item stream: one 2-RHS request, then two singles far
/// enough apart that the window never coalesces them.
fn workload() -> (Workload, Vec<Batch>) {
    let w = Workload::from_requests(vec![
        Request {
            id: 0,
            arrival: 0.0,
            payload: Payload::Batch(vec![vec![0.0], vec![0.0]]),
        },
        Request {
            id: 1,
            arrival: 10.0,
            payload: Payload::Rhs(vec![0.0]),
        },
        Request {
            id: 2,
            arrival: 20.0,
            payload: Payload::Rhs(vec![0.0]),
        },
    ]);
    let batches = plan_batches(
        &w.requests,
        &BatcherCfg {
            max_batch_rhs: 2,
            coalesce_window: 1.0,
        },
    );
    assert_eq!(batches.len(), 3);
    (w, batches)
}

/// One collective stub solve of item `(req, rhs)`: every member
/// contributes its owned subdomains' values, so the sum is invariant
/// under membership changes; each member then deposits its owned pieces.
fn solve_item(
    c: &Communicator,
    plane: &Plane,
    req: usize,
    rhs: usize,
) -> Result<(), dd_comm::CommError> {
    let (me, size) = (c.rank(), c.size());
    let mine: f64 = owned(me, size).map(|s| h(req, rhs, s)).sum();
    let v = c.try_allreduce_sum(mine)?;
    let expect: f64 = (0..NSUBS).map(|s| h(req, rhs, s)).sum();
    assert_eq!(v, expect, "solve collective saw the wrong membership");
    for s in owned(me, size) {
        plane.store.deposit(
            req,
            rhs,
            s,
            vec![h(req, rhs, s), v],
            c.clock(),
            SolveMeta::default(),
        );
        let mut d = plane.deposits.lock().unwrap_or_else(|p| p.into_inner());
        *d.entry((req, rhs, s)).or_insert(0) += 1;
    }
    Ok(())
}

/// Serve every batch whose response is incomplete, with a per-batch
/// failpoint (where the plan's kills and joins land). `Err` = this rank
/// was killed; `Ok(false)` = a peer failure interrupted the epoch.
fn serve_batches(c: &Communicator, plane: &Plane, batches: &[Batch]) -> Result<bool, ()> {
    for (k, batch) in batches.iter().enumerate() {
        if c.failpoint(&format!("serve-batch-{k}")).is_err() {
            return Err(());
        }
        for it in &batch.items {
            if plane.store.is_complete(it.req, it.rhs, NSUBS) {
                continue;
            }
            if solve_item(c, plane, it.req, it.rhs).is_err() {
                return Ok(false);
            }
        }
    }
    Ok(true)
}

/// Canonical epilogue: the real server's trailing barrier (without it a
/// fast rank could read the store before a peer's last deposit lands),
/// then assert the two protocol invariants (nothing lost, nothing
/// answered twice) and dump the store into schedule-invariant bytes —
/// membership, then every piece of every response in stream order.
fn finalize(c: &Communicator, plane: &Plane, w: &Workload, tag: u8) -> Vec<u8> {
    c.try_barrier().expect("closing barrier");
    let mut out = vec![tag, c.rank() as u8, c.epoch() as u8, c.size() as u8];
    let mut items = 0usize;
    for (ri, req) in w.requests.iter().enumerate() {
        for j in 0..req.n_rhs() {
            items += 1;
            assert!(
                plane.store.is_complete(ri, j, NSUBS),
                "lost response ({ri}, {j}): only {} of {NSUBS} pieces",
                plane.store.deposited(ri, j)
            );
            for (s, x) in plane.store.pieces(ri, j) {
                out.push(s as u8);
                for v in x {
                    out.extend_from_slice(&v.to_bits().to_le_bytes());
                }
            }
        }
    }
    let d = plane.deposits.lock().unwrap_or_else(|p| p.into_inner());
    assert_eq!(d.len(), items * NSUBS, "piece bookkeeping out of square");
    for (&(ri, j, s), &n) in d.iter() {
        assert_eq!(n, 1, "response ({ri}, {j}) piece {s} answered {n} times");
    }
    out
}

/// Fault-free serving on a 2-member world chunk-owning 3 subdomains:
/// every schedule answers the whole stream exactly once, byte-identically.
#[test]
fn fault_free_stream_answers_exactly_once() {
    let (w, batches) = workload();
    let slot: Slot = Arc::default();
    let r = check_world(2, Config::default(), budget(2000), move |comm| {
        let plane = fresh_plane(comm, &slot);
        let done = serve_batches(comm, &plane, &batches).expect("no kills in this plan");
        assert!(done, "fault-free epoch must finish the stream");
        finalize(comm, &plane, &w, 0x71)
    });
    assert_graceful(&r, "serve fault-free n=2");
    assert!(r.schedules > 10, "explored {}", r.schedules);
}

/// A member dies at the batch-1 failpoint: batch 0's responses are frozen
/// complete, the survivors shrink, adopt the victim's subdomains, and
/// re-serve exactly the incomplete suffix — nothing lost, nothing twice,
/// in every interleaving of the death, the wake-up, and the agreement.
#[test]
fn mid_stream_death_reserves_incomplete_suffix_exactly_once() {
    let (w, batches) = workload();
    let victim = 1usize;
    let faults = FaultPlan::new(73).with_kill(victim, "serve-batch-1");
    let slot: Slot = Arc::default();
    let r = check_world_with_faults(3, Config::default(), budget(2800), faults, move |comm| {
        let plane = fresh_plane(comm, &slot);
        match serve_batches(comm, &plane, &batches) {
            Err(()) => return vec![0xDD], // the victim unwinds
            Ok(true) => panic!("the kill must interrupt epoch 0"),
            Ok(false) => {}
        }
        let sub = comm.try_shrink().expect("survivor must shrink");
        assert_eq!(sub.size(), 2, "agreement missed the death");
        assert_eq!(sub.epoch(), 1, "split-brain: unexpected epoch");
        let done = serve_batches(&sub, &plane, &batches).expect("one kill in this plan");
        assert!(done, "the shrunk world must finish the stream");
        finalize(&sub, &plane, &w, 0x72)
    });
    assert_graceful(&r, "serve death n=3");
    assert!(r.schedules > 10, "explored {}", r.schedules);
}

/// A reserve rank joins at the batch-1 failpoint: the founders grow, the
/// chunks rebalance over three members, and founders and joiner together
/// finish the stream — completed responses are never re-answered and the
/// joiner's adopted pieces appear exactly once, in every interleaving of
/// the admission.
#[test]
fn mid_stream_join_rebalances_and_answers_exactly_once() {
    let (w, batches) = workload();
    let joiner = 2usize;
    let faults = FaultPlan::new(79).with_join(joiner, "serve-batch-1");
    let slot: Slot = Arc::default();
    let r = check_elastic_world_with_faults(
        2,
        1,
        Config::default(),
        budget(2800),
        faults,
        move |comm| {
            if comm.is_joiner() {
                // Admission happens-after the founders' deposits of every
                // pre-join batch, so the completeness skip aligns the
                // joiner's collectives with the founders'.
                let plane = read_plane(&slot);
                let done = serve_batches(comm, &plane, &batches).expect("no kills in this plan");
                assert!(done, "the joiner must finish the stream");
                return finalize(comm, &plane, &w, 0x73);
            }
            let plane = fresh_plane(comm, &slot);
            // Epoch 0: serve until the join is announced at batch 1, then
            // grow deterministically (the model's stand-in for the
            // revocation-driven agreement of the real server).
            for it in &batches[0].items {
                comm.failpoint("serve-batch-0")
                    .expect("no kills in this plan");
                solve_item(comm, &plane, it.req, it.rhs).expect("epoch-0 solve");
            }
            comm.failpoint("serve-batch-1")
                .expect("no kills in this plan");
            let grown = comm.try_grow().expect("founder must grow");
            assert_eq!(grown.size(), 3, "agreement missed the join");
            assert_eq!(grown.epoch(), 1, "split-brain: unexpected epoch");
            let done = serve_batches(&grown, &plane, &batches).expect("no kills in this plan");
            assert!(done, "the grown world must finish the stream");
            finalize(&grown, &plane, &w, 0x73)
        },
    );
    assert_graceful(&r, "serve join n=2+1");
    assert!(r.schedules > 10, "explored {}", r.schedules);
}
