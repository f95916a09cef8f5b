//! Differential wall around the solve server: every answer a resident
//! `dd-serve` server streams out must match a fresh one-shot
//! `try_run_spmd` on the same operator and right-hand side to 1e-10 —
//! across seeds and world sizes, through admissible perturbation reuse and
//! inadmissible re-setups, and straight through mid-stream rank death,
//! straggler eviction, and joins. A second family of tests pins what a batch
//! is: one panel apply whose every answer is, to the bit, the single solve
//! from the recycle space as it stood at the batch start — so without
//! recycling, splitting or merging batches changes scheduling only, never a
//! single iteration count or solution bit.

use dd_geneo::comm::{CommError, CostModel, FaultPlan, SuspicionPolicy, TagClass, World};
use dd_geneo::core::problem::presets;
use dd_geneo::core::{
    decompose, repartition_plan, try_run_spmd, try_setup_partitioned, CoarseCache, Decomposition,
    GeneoOpts, RecoveryOpts, SolverKind, SpmdError, SpmdOpts,
};
use dd_geneo::krylov::{GmresOpts, RecycleSpace};
use dd_geneo::mesh::Mesh;
use dd_geneo::part::partition_mesh_rcb;
use dd_geneo::serve::{
    plan_batches, try_serve, BatcherCfg, Payload, Request, ResponseStore, ServeOpts, ServeReport,
    StreamCfg, Workload,
};
use std::collections::BTreeMap;
use std::sync::Arc;

mod common;
use common::{global_residual, reassemble, rel_dist};

fn setup(nmesh: usize, nparts: usize) -> Arc<Decomposition> {
    let mesh = Mesh::unit_square(nmesh, nmesh);
    let part = partition_mesh_rcb(&mesh, nparts);
    let p = presets::heterogeneous_diffusion(1);
    Arc::new(decompose(&mesh, &p, &part, nparts, 1))
}

/// The server and the one-shot reference solve with the same tolerance:
/// 1e-12 buys the 1e-10 differential margin (the precedent set by the
/// elastic differential suite).
fn serve_opts() -> ServeOpts {
    ServeOpts {
        spmd: SpmdOpts {
            geneo: GeneoOpts {
                nev: 5,
                ..Default::default()
            },
            gmres: GmresOpts {
                tol: 1e-12,
                max_iters: 800,
                ..Default::default()
            },
            recovery: RecoveryOpts {
                enabled: true,
                checkpoint_interval: 1,
                ..Default::default()
            },
            ..Default::default()
        },
        ..Default::default()
    }
}

type ServeResult = Option<Result<ServeReport, SpmdError>>;

/// Run the server on an elastic world: `founders` live ranks, `reserve`
/// lobby ranks, one shared response plane and coarse cache.
fn run_serve(
    decomp: &Arc<Decomposition>,
    founders: usize,
    reserve: usize,
    opts: &ServeOpts,
    plan: FaultPlan,
    workload: &Workload,
) -> Vec<ServeResult> {
    let d = Arc::clone(decomp);
    let o = opts.clone();
    let w = workload.clone();
    let cache = Arc::new(CoarseCache::new());
    let store = Arc::new(ResponseStore::new());
    World::run_elastic(founders, reserve, CostModel::default(), plan, move |comm| {
        try_serve(&d, comm, &o, &w, &cache, &store)
    })
}

/// Fresh one-shot reference: a full setup + solve of `A(θ) x = rhs` on a
/// one-subdomain-per-rank world, reassembled globally.
fn one_shot(decomp: &Decomposition, opts: &SpmdOpts, theta: f64, rhs: &[f64]) -> Vec<f64> {
    one_shot_counted(decomp, opts, theta, rhs).0
}

/// [`one_shot`] with its iteration count.
fn one_shot_counted(
    decomp: &Decomposition,
    opts: &SpmdOpts,
    theta: f64,
    rhs: &[f64],
) -> (Vec<f64>, usize) {
    let base = if theta == 0.0 {
        decomp.clone()
    } else {
        decomp.perturb_diag(theta)
    };
    let d = Arc::new(base.with_rhs(rhs.to_vec()));
    let o = opts.clone();
    let d2 = Arc::clone(&d);
    let sols = World::run(d.n_subdomains(), CostModel::default(), move |comm| {
        try_run_spmd(&d2, comm, &o).expect("one-shot reference must not fail")
    });
    let iterations = sols[0].report.iterations;
    (reassemble(&d, sols.iter().map(|s| &s.locals)), iterations)
}

/// Every response of `report` against its own fresh one-shot run.
fn assert_differential(
    decomp: &Decomposition,
    opts: &ServeOpts,
    workload: &Workload,
    report: &ServeReport,
    what: &str,
) {
    assert_eq!(
        report.responses.len(),
        workload.n_rhs_total(),
        "{what}: stream not fully answered"
    );
    for r in &report.responses {
        assert!(
            r.converged,
            "{what}: response ({}, {}) did not converge",
            r.req, r.rhs
        );
        let req = &workload.requests[r.req];
        let xr = one_shot(decomp, &opts.spmd, req.theta(), req.rhs(r.rhs));
        let rel = rel_dist(&r.x, &xr);
        assert!(
            rel < 1e-10,
            "{what}: response ({}, {}) diverged from one-shot: rel {rel:e} (theta {})",
            r.req,
            r.rhs,
            r.theta
        );
    }
}

/// All surviving ranks must report the same stream outcome (same answers,
/// same iteration counts) — the store is shared and frozen at the end.
fn assert_reports_agree(results: &[ServeResult], what: &str) -> ServeReport {
    let mut first: Option<&ServeReport> = None;
    for res in results.iter().flatten() {
        let Ok(report) = res else { continue };
        match first {
            None => first = Some(report),
            Some(f) => {
                assert_eq!(
                    f.responses.len(),
                    report.responses.len(),
                    "{what}: ranks disagree on the response count"
                );
                for (a, b) in f.responses.iter().zip(&report.responses) {
                    assert_eq!((a.req, a.rhs), (b.req, b.rhs), "{what}: response order");
                    assert_eq!(
                        a.iterations, b.iterations,
                        "{what}: ranks disagree on iterations of ({}, {})",
                        a.req, a.rhs
                    );
                    assert_eq!(
                        a.x, b.x,
                        "{what}: ranks disagree on the answer to ({}, {})",
                        a.req, a.rhs
                    );
                }
            }
        }
    }
    first
        .unwrap_or_else(|| panic!("{what}: no rank produced a report"))
        .clone()
}

fn rhs_for(n: usize, seed: u64) -> Vec<f64> {
    (0..n)
        .map(|i| ((i as f64 + 1.3) * (seed as f64 + 0.7)).sin())
        .collect()
}

/// Tentpole acceptance, fault-free: seeded streams (single, batch, and
/// admissibly perturbed requests) on N = 4 and N = 16 subdomains. Every
/// server answer matches a fresh one-shot solve to 1e-10, perturbed
/// requests are answered by preconditioner reuse (no re-setup), and all
/// ranks agree on the stream outcome.
#[test]
fn served_streams_match_one_shot_across_seeds_and_sizes() {
    for (nmesh, nparts, n_requests) in [(12usize, 4usize, 6usize), (16, 16, 4)] {
        let decomp = setup(nmesh, nparts);
        let opts = serve_opts();
        for seed in [11u64, 23] {
            let cfg = StreamCfg {
                n_requests,
                batch_fraction: 0.3,
                max_rhs_per_request: 3,
                perturb_fraction: 0.3,
                theta_max: 0.04, // inside the default 0.05 admissibility ball
                ..Default::default()
            };
            let w = Workload::generate(seed, decomp.n_global, &cfg);
            let what = format!("N={nparts} seed={seed}");
            let results = run_serve(&decomp, nparts, 0, &opts, FaultPlan::default(), &w);
            let report = assert_reports_agree(&results, &what);
            assert_eq!(report.recoveries, 0, "{what}: fault-free stream recovered");
            assert_eq!(
                report.resetups, 0,
                "{what}: admissible perturbations must not re-factorize"
            );
            if !w.thetas().is_empty() {
                assert!(
                    report.reused_applies > 0,
                    "{what}: perturbed requests must reuse the resident setup"
                );
                for r in &report.responses {
                    assert_eq!(
                        r.reused,
                        r.theta != 0.0,
                        "{what}: reuse flag wrong on ({}, {})",
                        r.req,
                        r.rhs
                    );
                }
            }
            assert!(report.t_setup > 0.0, "{what}: setup cost not recorded");
            for r in &report.responses {
                assert!(
                    r.latency >= 0.0 && r.completed >= r.arrival,
                    "{what}: response ({}, {}) completed before it arrived",
                    r.req,
                    r.rhs
                );
            }
            assert_differential(&decomp, &opts, &w, &report, &what);
        }
    }
}

/// The admissibility boundary: a drift beyond the ball re-factorizes at
/// the new θ (counted, not reused), returning to θ = 0 re-factorizes again
/// off the coarse cache, and a later admissible θ is once more answered by
/// reuse — with every answer still exact against one-shot references.
#[test]
fn inadmissible_drift_resets_up_and_stays_exact() {
    let decomp = setup(12, 4);
    let opts = serve_opts();
    let n = decomp.n_global;
    let w = Workload::from_requests(vec![
        Request {
            id: 0,
            arrival: 0.0,
            payload: Payload::Rhs(rhs_for(n, 1)),
        },
        Request {
            id: 1,
            arrival: 0.3,
            payload: Payload::Perturbed {
                theta: 0.03, // admissible: reuse
                rhs: rhs_for(n, 2),
            },
        },
        Request {
            id: 2,
            arrival: 0.6,
            payload: Payload::Perturbed {
                theta: 0.2, // inadmissible: re-setup at θ = 0.2
                rhs: rhs_for(n, 3),
            },
        },
        Request {
            id: 3,
            arrival: 0.9,
            payload: Payload::Rhs(rhs_for(n, 4)), // back to θ = 0: re-setup (cached)
        },
        Request {
            id: 4,
            arrival: 1.2,
            payload: Payload::Perturbed {
                theta: 0.03, // admissible again from the restored base
                rhs: rhs_for(n, 5),
            },
        },
    ]);
    let results = run_serve(&decomp, 4, 0, &opts, FaultPlan::default(), &w);
    let report = assert_reports_agree(&results, "drift");
    assert_eq!(report.resetups, 2, "θ = 0.2 and the return to θ = 0");
    assert_eq!(report.reused_applies, 2, "requests 1 and 4 reuse");
    let reused: Vec<bool> = report.responses.iter().map(|r| r.reused).collect();
    assert_eq!(reused, vec![false, true, false, false, true]);
    assert_differential(&decomp, &opts, &w, &report, "drift");
}

/// A re-set-up on a perturbed operator is a full set-up: on an owner map
/// that adopted nothing every subdomain gets its GenEO vectors again, so the
/// request answered right after it iterates like a one-shot solve of the
/// same operator. The drift is kept tiny (and the admissibility ball
/// tinier) so that the operator stays as heterogeneous as the base one: a
/// resident state degraded to Nicolaides vectors on most subdomains then
/// takes twice the iterations (22 against 10, measured).
#[test]
fn inadmissible_drift_on_an_owner_map_resets_up_undegraded() {
    let decomp = setup(24, 8);
    let opts = ServeOpts {
        admissibility: 1e-6,
        ..serve_opts()
    };
    let n = decomp.n_global;
    let theta = 1e-3;
    let w = Workload::from_requests(vec![
        Request {
            id: 0,
            arrival: 0.0,
            payload: Payload::Rhs(rhs_for(n, 1)),
        },
        Request {
            id: 1,
            arrival: 0.3,
            payload: Payload::Perturbed {
                theta, // outside the ball: re-setup at θ
                rhs: rhs_for(n, 2),
            },
        },
    ]);
    // Two founders host four subdomains each.
    let results = run_serve(&decomp, 2, 0, &opts, FaultPlan::default(), &w);
    let report = assert_reports_agree(&results, "owner-map drift");
    assert_eq!(report.resetups, 1, "θ outside the ball re-factorizes");
    assert_differential(&decomp, &opts, &w, &report, "owner-map drift");
    let served = &report.responses[1];
    assert!(!served.reused && served.theta == theta);
    let (_, fresh) = one_shot_counted(&decomp, &opts.spmd, theta, &rhs_for(n, 2));
    assert!(
        served.iterations.abs_diff(fresh) <= 1,
        "re-set-up left the resident state degraded: {} iterations, one-shot {fresh}",
        served.iterations
    );
}

/// Mid-stream rank death: the victim reports `Killed`, the survivors agree
/// on the shrink, adopt its subdomains, re-solve exactly the incomplete
/// responses, and every answer of the finished stream still matches the
/// one-shot references.
#[test]
fn mid_stream_kill_recovers_and_answers_every_request() {
    let decomp = setup(12, 6);
    let opts = serve_opts();
    let cfg = StreamCfg {
        n_requests: 5,
        batch_fraction: 0.3,
        max_rhs_per_request: 3,
        perturb_fraction: 0.0,
        ..Default::default()
    };
    let w = Workload::generate(31, decomp.n_global, &cfg);
    let victim = 2usize;
    let plan = FaultPlan::new(91).with_kill(victim, "solve-iteration-1");
    let results = run_serve(&decomp, 4, 0, &opts, plan, &w);
    match results[victim].as_ref().expect("victim produced no result") {
        Err(SpmdError::Killed { rank, .. }) => assert_eq!(*rank, victim),
        other => panic!("victim must report Killed, got {other:?}"),
    }
    for (rank, res) in results.iter().enumerate() {
        if rank == victim {
            continue;
        }
        let report = res
            .as_ref()
            .expect("survivor produced no result")
            .as_ref()
            .unwrap_or_else(|e| panic!("survivor {rank} failed: {e}"));
        assert!(report.recoveries >= 1, "rank {rank} recorded no recovery");
    }
    let report = assert_reports_agree(&results, "kill");
    assert!(
        report.solves >= report.responses.len(),
        "interrupted batches are re-solved wholesale"
    );
    assert_differential(&decomp, &opts, &w, &report, "kill");
}

/// Mid-stream grow: reserves join at a solve failpoint, the stream
/// repartitions onto the larger world, and both founders and joiners
/// finish with the identical, one-shot-exact response set.
#[test]
fn mid_stream_join_repartitions_and_stream_stays_exact() {
    let decomp = setup(12, 6);
    let opts = serve_opts();
    let cfg = StreamCfg {
        n_requests: 5,
        batch_fraction: 0.3,
        max_rhs_per_request: 3,
        perturb_fraction: 0.0,
        ..Default::default()
    };
    let w = Workload::generate(47, decomp.n_global, &cfg);
    let plan = FaultPlan::new(61)
        .with_join(4, "solve-iteration-2")
        .with_join(5, "solve-iteration-2");
    let results = run_serve(&decomp, 4, 2, &opts, plan, &w);
    for (rank, res) in results.iter().enumerate() {
        let report = res
            .as_ref()
            .unwrap_or_else(|| panic!("rank {rank} was never admitted"))
            .as_ref()
            .unwrap_or_else(|e| panic!("rank {rank} failed: {e}"));
        assert!(
            report.recoveries >= 1,
            "rank {rank}: the grow must bump the epoch"
        );
    }
    let report = assert_reports_agree(&results, "join");
    assert_differential(&decomp, &opts, &w, &report, "join");
}

/// Mid-stream straggler eviction (one-level, like the elastic eviction
/// suite): the frozen rank is suspected, evicted — reported `Evicted`, not
/// dead — and the survivors finish the stream exactly.
#[test]
fn mid_stream_straggler_is_evicted_and_stream_completes() {
    let decomp = setup(12, 6);
    let mut opts = serve_opts();
    opts.spmd.one_level_only = true;
    opts.spmd.recovery.suspicion = Some(SuspicionPolicy {
        deadline: f64::INFINITY,
        k_missed: 3,
    });
    let cfg = StreamCfg {
        n_requests: 4,
        batch_fraction: 0.0,
        perturb_fraction: 0.0,
        ..Default::default()
    };
    let w = Workload::generate(53, decomp.n_global, &cfg);
    let victim = 1usize;
    let plan = FaultPlan::new(67).with_straggle(victim, "solve-iteration-2");
    let results = run_serve(&decomp, 4, 0, &opts, plan, &w);
    match results[victim].as_ref().expect("victim produced no result") {
        Err(SpmdError::Evicted { rank }) => assert_eq!(*rank, victim),
        other => panic!("straggler must report Evicted, got {other:?}"),
    }
    for (rank, res) in results.iter().enumerate() {
        if rank == victim {
            continue;
        }
        let report = res
            .as_ref()
            .expect("survivor produced no result")
            .as_ref()
            .unwrap_or_else(|e| panic!("survivor {rank} failed: {e}"));
        assert!(report.recoveries >= 1, "rank {rank} recorded no recovery");
    }
    let report = assert_reports_agree(&results, "evict");
    assert_differential(&decomp, &opts, &w, &report, "evict");
}

/// Mid-stream wire corruption: the head of the stream is answered, then
/// every halo message of `serve-apply` arrives corrupted beyond its
/// retransmit budget. Every rank must end in a typed corruption-class error
/// — never a panic, never a report. With recovery armed the epoch driver
/// re-enters the stream on the same world, `max_replays` times and no more
/// (counted in checksum detections: each entry fails its first receive),
/// and each entry skips what is already answered. Whatever the store holds
/// afterwards passes the true-residual check made from outside.
#[test]
fn mid_stream_corruption_is_typed_replayed_within_budget_and_never_answered_wrongly() {
    let decomp = setup(12, 4);
    let n = decomp.n_global;
    let requests: Vec<Request> = (0..4)
        .map(|id| Request {
            id,
            arrival: 0.3 * id as f64,
            payload: Payload::Rhs(rhs_for(n, id as u64 + 1)),
        })
        .collect();
    let answered = 2;
    let head = Workload::from_requests(requests[..answered].to_vec());
    let w = Workload::from_requests(requests);
    // Two ranks hosting two subdomains each: both receive the other's
    // corrupted halo in the same lockstep step. Per rank: the outcome and
    // the corruptions its receives detected.
    let serve = |opts: &ServeOpts, plan: FaultPlan, w: &Workload, store: &Arc<ResponseStore>| {
        let (d, o, w, store) = (
            Arc::clone(&decomp),
            opts.clone(),
            w.clone(),
            Arc::clone(store),
        );
        let cache = Arc::new(CoarseCache::new());
        World::run_with_faults(2, CostModel::default(), plan, move |comm| {
            let out = try_serve(&d, comm, &o, &w, &cache, &store);
            (out, comm.fault_stats().corruptions_detected)
        })
    };
    let mut detected: Vec<Vec<u64>> = Vec::new();
    for enabled in [false, true] {
        let mut opts = serve_opts();
        opts.spmd.recovery.enabled = enabled;
        let what = format!("recovery {}", if enabled { "on" } else { "off" });
        let store = Arc::new(ResponseStore::new());
        for (res, _) in serve(&opts, FaultPlan::default(), &head, &store) {
            res.unwrap_or_else(|e| panic!("{what}: the fault-free head failed: {e}"));
        }
        let head_pieces = |store: &ResponseStore| -> Vec<_> {
            (0..answered).map(|req| store.pieces(req, 0)).collect()
        };
        let before = head_pieces(&store);
        let plan = FaultPlan::new(3).with_corrupt_persistent("serve-apply", None, TagClass::P2p, 3);
        let results = serve(&opts, plan, &w, &store);
        let mut corrupt_errors = 0;
        for (rank, (res, _)) in results.iter().enumerate() {
            match res {
                Ok(r) => panic!(
                    "{what}: rank {rank} reported {} responses under persistent corruption",
                    r.responses.len()
                ),
                Err(SpmdError::Comm(CommError::Corrupt { .. })) => corrupt_errors += 1,
                // A peer that gave up first abandons the world.
                Err(SpmdError::Comm(CommError::RankDead { .. })) => {}
                Err(other) => panic!("{what}: rank {rank}: not a corruption-class error: {other}"),
            }
        }
        assert!(
            corrupt_errors > 0,
            "{what}: nobody surfaced the typed Corrupt"
        );
        detected.push(results.iter().map(|r| r.1).collect());
        // Answered before the fault: skipped on every entry, bit for bit.
        assert_eq!(
            before,
            head_pieces(&store),
            "{what}: the answered head moved"
        );
        for (req, request) in w.requests.iter().enumerate() {
            let nsubs = decomp.n_subdomains();
            assert_eq!(
                store.is_complete(req, 0, nsubs),
                req < answered,
                "{what}: request {req} under a link that delivers nothing intact"
            );
            if store.is_complete(req, 0, nsubs) {
                let x = reassemble(&decomp, [&store.pieces(req, 0)]);
                let rr = global_residual(&decomp.with_rhs(request.rhs(0).to_vec()), &x);
                assert!(
                    rr <= 1e-8,
                    "{what}: response {req} has true residual {rr:e}"
                );
            }
        }
    }
    let budget = serve_opts().spmd.recovery.max_replays as u64;
    for (rank, (off, on)) in detected[0].iter().zip(&detected[1]).enumerate() {
        assert!(*off > 0, "rank {rank}: the row is vacuous");
        assert_eq!(
            *on,
            (1 + budget) * off,
            "rank {rank}: one first entry and {budget} replays, each failing its first receive"
        );
    }
}

/// Without recycling, batching is scheduling: the same stream served under
/// max-1 batches (no coalescing) and under batches of up to four — one
/// panel apply each — produces bit-identical answers with identical
/// per-response iteration counts.
#[test]
fn batch_split_merge_is_bitwise_without_recycling() {
    let decomp = setup(12, 4);
    let cfg = StreamCfg {
        n_requests: 6,
        batch_fraction: 0.4,
        max_rhs_per_request: 3,
        perturb_fraction: 0.3,
        theta_max: 0.04,
        ..Default::default()
    };
    let w = Workload::generate(17, decomp.n_global, &cfg);
    let narrow = ServeOpts {
        recycle_dim: 0,
        batcher: BatcherCfg {
            max_batch_rhs: 1,
            coalesce_window: 0.0,
        },
        ..serve_opts()
    };
    let wide = ServeOpts {
        batcher: BatcherCfg {
            max_batch_rhs: 4,
            coalesce_window: 0.5,
        },
        ..narrow.clone()
    };
    assert!(
        plan_batches(&w.requests, &wide.batcher)
            .iter()
            .any(|b| b.items.len() > 1),
        "the wide plan must have a panel"
    );
    let a = assert_reports_agree(
        &run_serve(&decomp, 4, 0, &narrow, FaultPlan::default(), &w),
        "narrow",
    );
    let b = assert_reports_agree(
        &run_serve(&decomp, 4, 0, &wide, FaultPlan::default(), &w),
        "wide",
    );
    assert_eq!(a.responses.len(), b.responses.len());
    assert_eq!(a.solves, b.solves, "same solve count either way");
    for (ra, rb) in a.responses.iter().zip(&b.responses) {
        assert_eq!((ra.req, ra.rhs), (rb.req, rb.rhs));
        assert_eq!(
            ra.iterations, rb.iterations,
            "batch splitting changed the iteration count of ({}, {})",
            ra.req, ra.rhs
        );
        assert_eq!(
            bits(&ra.x),
            bits(&rb.x),
            "batch splitting changed the answer to ({}, {})",
            ra.req,
            ra.rhs
        );
    }
}

fn bits(x: &[f64]) -> Vec<u64> {
    x.iter().map(|v| v.to_bits()).collect()
}

/// With recycling, a batch is one panel whose right-hand sides all start
/// from the operator's recycle space as it stood when the batch started:
/// every response is, to the bit, the single solve from that space — its
/// deposited pieces and its iteration count. The reference replays the
/// batch plan on a resident set-up of the same world: per batch, each
/// right-hand side solved alone from a clone of the batch-start space, and
/// the batch's panel advancing the space.
#[test]
fn each_response_is_the_single_solve_from_the_batch_start_space() {
    let decomp = setup(12, 4);
    let opts = ServeOpts {
        batcher: BatcherCfg {
            max_batch_rhs: 4,
            coalesce_window: 0.5,
        },
        ..serve_opts()
    };
    // Panels on the resident operator and on a perturbed one, around
    // singles of both.
    let n = decomp.n_global;
    let request = |id: usize, arrival: f64, payload| Request {
        id,
        arrival,
        payload,
    };
    let perturbed = |seed: u64| Payload::Perturbed {
        theta: 0.03,
        rhs: rhs_for(n, seed),
    };
    let w = Workload::from_requests(vec![
        request(0, 0.0, Payload::Rhs(rhs_for(n, 1))),
        request(
            1,
            1.0,
            Payload::Batch((2..5).map(|k| rhs_for(n, k)).collect()),
        ),
        request(2, 1.1, Payload::Rhs(rhs_for(n, 5))),
        request(3, 2.0, perturbed(6)),
        request(4, 2.1, perturbed(7)),
        request(5, 2.2, perturbed(8)),
        request(
            6,
            3.0,
            Payload::Batch((9..11).map(|k| rhs_for(n, k)).collect()),
        ),
        request(7, 4.0, perturbed(11)),
    ]);
    let batches = plan_batches(&w.requests, &opts.batcher);
    let sizes: Vec<(usize, bool)> = batches
        .iter()
        .map(|b| (b.items.len(), b.theta != 0.0))
        .collect();
    assert_eq!(
        sizes,
        [(1, false), (4, false), (3, true), (2, false), (1, true)]
    );
    let store = Arc::new(ResponseStore::new());
    let served = {
        let (d, o, w, store) = (
            Arc::clone(&decomp),
            opts.clone(),
            w.clone(),
            Arc::clone(&store),
        );
        let cache = Arc::new(CoarseCache::new());
        World::run(4, CostModel::default(), move |comm| {
            try_serve(&d, comm, &o, &w, &cache, &store).expect("served stream")
        })
    };
    let report = &served[0];
    let (d, o, w2) = (Arc::clone(&decomp), opts.clone(), w.clone());
    // Per rank: every right-hand side's (request, rhs, iterations, locals),
    // solved alone from the batch-start space.
    let reference = World::run(4, CostModel::default(), move |comm| {
        let plan = repartition_plan(&d, comm, None);
        let cache = CoarseCache::new();
        let prepared = try_setup_partitioned(&d, comm, &o.spmd, Some(&cache), &plan, true)
            .expect("reference set-up");
        let mut spaces: BTreeMap<u64, RecycleSpace> = BTreeMap::new();
        let mut out = Vec::new();
        for batch in &batches {
            let perturbed = (batch.theta != 0.0).then(|| prepared.perturbed(&d, batch.theta));
            let space = spaces
                .entry(batch.theta.to_bits())
                .or_insert_with(|| RecycleSpace::new(o.recycle_dim));
            let rhs: Vec<&[f64]> = batch
                .items
                .iter()
                .map(|it| w2.requests[it.req].rhs(it.rhs))
                .collect();
            for (it, b) in batch.items.iter().zip(&rhs) {
                let mut at_start = space.clone();
                let single = prepared
                    .try_apply_on(
                        perturbed.as_ref(),
                        &[b],
                        "serve-apply",
                        None,
                        Some(&mut at_start),
                    )
                    .expect("single solve")
                    .remove(0);
                out.push((it.req, it.rhs, single.result.iterations, single.locals));
            }
            prepared
                .try_apply_on(perturbed.as_ref(), &rhs, "serve-apply", None, Some(space))
                .expect("panel");
        }
        out
    });
    for (i, r) in report.responses.iter().enumerate() {
        let mut want: Vec<(usize, Vec<f64>)> = reference
            .iter()
            .flat_map(|rank| rank[i].3.iter().cloned())
            .collect();
        want.sort_by_key(|(s, _)| *s);
        assert_eq!((reference[0][i].0, reference[0][i].1), (r.req, r.rhs));
        assert_eq!(r.iterations, reference[0][i].2, "({}, {})", r.req, r.rhs);
        let got = store.pieces(r.req, r.rhs);
        assert_eq!(got.len(), want.len());
        for ((gs, gx), (ws, wx)) in got.iter().zip(&want) {
            assert_eq!(gs, ws);
            assert_eq!(bits(gx), bits(wx), "({}, {}) subdomain {gs}", r.req, r.rhs);
        }
    }
}

/// Krylov recycling across the stream helps and never hurts the total
/// iteration bill, and the answers stay exact either way. Under every
/// Krylov loop, a right-hand side repeated in a later batch, while its
/// solve is still in the space, takes strictly fewer iterations recycled
/// than cold; repeated inside the batch of its first copy it starts from
/// the batch-start space, which does not hold that copy yet, and is
/// answered as cold.
#[test]
fn recycling_never_increases_total_iterations() {
    let decomp = setup(12, 4);
    let cfg = StreamCfg {
        n_requests: 8,
        batch_fraction: 0.3,
        max_rhs_per_request: 3,
        perturb_fraction: 0.0,
        ..Default::default()
    };
    let w = Workload::generate(29, decomp.n_global, &cfg);
    // The same stream with a second request that repeats the first one's
    // last right-hand side, arriving `after` the first.
    let with_repeat = |after: f64| {
        let mut requests = w.requests.clone();
        let first = &requests[0];
        let repeat = Payload::Rhs(first.rhs(first.n_rhs() - 1).to_vec());
        requests.insert(
            1,
            Request {
                id: 1,
                arrival: first.arrival + after,
                payload: repeat,
            },
        );
        for (id, r) in requests.iter_mut().enumerate() {
            r.id = id;
        }
        Workload::from_requests(requests)
    };
    // With no coalescing across requests, a repeat that arrives a little
    // after the first copy gets a batch of its own; one that arrives with
    // it joins its batch.
    let gap = (w.requests[1].arrival - w.requests[0].arrival) / 2.0;
    assert!(gap > 0.0);
    let separate = BatcherCfg {
        max_batch_rhs: 4,
        coalesce_window: 0.0,
    };
    // The recycled and the cold report, after their total iterations are
    // checked and the recycled answers against the one-shot solves.
    let run_both = |recycled: &ServeOpts, w: &Workload, what: &str| {
        let mut cold = recycled.clone();
        cold.recycle_dim = 0;
        let a = assert_reports_agree(
            &run_serve(&decomp, 4, 0, recycled, FaultPlan::default(), w),
            what,
        );
        let b = assert_reports_agree(
            &run_serve(&decomp, 4, 0, &cold, FaultPlan::default(), w),
            what,
        );
        let ia: usize = a.responses.iter().map(|r| r.iterations).sum();
        let ib: usize = b.responses.iter().map(|r| r.iterations).sum();
        assert!(
            ia <= ib,
            "{what}: recycling increased the total iteration bill: {ia} > {ib}"
        );
        assert_differential(&decomp, recycled, w, &a, what);
        (a, b)
    };
    // The stream as generated, on the default loop. The p1 loops do not
    // keep the total on it: recycled, two of its fifteen right-hand sides
    // take 5 iterations instead of 4 (74 against 72).
    run_both(&serve_opts(), &w, "Classical");
    let repeated = |r: &ServeReport| r.responses.iter().find(|r| r.req == 1).unwrap().iterations;
    for solver in [
        SolverKind::Classical,
        SolverKind::Pipelined,
        SolverKind::Fused,
    ] {
        for (after, batcher, later) in [
            (gap, separate.clone(), true),
            (0.0, BatcherCfg::default(), false),
        ] {
            let mut recycled = serve_opts();
            recycled.spmd.solver = solver;
            recycled.batcher = batcher;
            let w = with_repeat(after);
            let shares = plan_batches(&w.requests, &recycled.batcher)
                .iter()
                .any(|b| {
                    b.items.iter().any(|it| it.req == 0) && b.items.iter().any(|it| it.req == 1)
                });
            assert_eq!(shares, !later, "{solver:?}: the repeat's batch");
            let what = format!(
                "{solver:?}, repeat in {} batch",
                if later { "a later" } else { "the same" }
            );
            let (a, b) = run_both(&recycled, &w, &what);
            let (ra, rb) = (repeated(&a), repeated(&b));
            if later {
                assert!(
                    ra < rb,
                    "{what}: the repeated right-hand side took {ra} iterations recycled, {rb} cold"
                );
            } else {
                assert_eq!(
                    ra, rb,
                    "{what}: a repeat in its first copy's batch is answered cold"
                );
            }
        }
    }
}

/// A request whose right-hand side is shorter than the system is a typed
/// protocol error on every rank, naming the apply's column and both
/// lengths — not a slice panic in the restriction.
#[test]
fn a_short_request_is_a_typed_error_on_every_rank() {
    let decomp = setup(8, 4);
    let n = decomp.n_global;
    let w = Workload::from_requests(vec![Request {
        id: 0,
        arrival: 0.0,
        payload: Payload::Rhs(rhs_for(n - 1, 1)),
    }]);
    let results = run_serve(&decomp, 2, 0, &serve_opts(), FaultPlan::default(), &w);
    assert_eq!(results.len(), 2);
    for r in results {
        match r.expect("a founder returns") {
            Err(SpmdError::Protocol { what, .. }) => assert_eq!(
                what,
                format!("right-hand side 0 holds {} values, the system {n}", n - 1)
            ),
            Err(e) => panic!("not a protocol error: {e}"),
            Ok(_) => panic!("a short right-hand side was answered"),
        }
    }
}
