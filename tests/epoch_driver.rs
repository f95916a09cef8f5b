//! Referee of the one membership loop (`dd_core::drive_epochs`) at the
//! public entry points: the budget decisions and the membership-size check
//! are made in one place, so every driver — `try_run_spmd`,
//! `try_run_spmd_recoverable`, `try_run_spmd_elastic`, `dd_serve::try_serve`
//! — must show the same ones. Each row pins a behaviour the three separate
//! loops had let drift apart (the driver's own decision table is unit-tested
//! next to it, in `crates/core/src/recovery.rs`).

use dd_geneo::comm::{CommError, Communicator, CostModel, FaultPlan, TagClass, World};
use dd_geneo::core::problem::presets;
use dd_geneo::core::{
    decompose, try_run_spmd, try_run_spmd_elastic, try_run_spmd_recoverable, try_setup,
    CheckpointStore, CoarseCache, Decomposition, GeneoOpts, RecoveryOpts, SpmdError, SpmdOpts,
};
use dd_geneo::krylov::GmresOpts;
use dd_geneo::mesh::Mesh;
use dd_geneo::part::partition_mesh_rcb;
use dd_geneo::serve::{try_serve, Payload, Request, ResponseStore, ServeOpts, Workload};
use std::sync::Arc;

fn setup(nmesh: usize, nparts: usize) -> Arc<Decomposition> {
    let mesh = Mesh::unit_square(nmesh, nmesh);
    let part = partition_mesh_rcb(&mesh, nparts);
    let p = presets::heterogeneous_diffusion(1);
    Arc::new(decompose(&mesh, &p, &part, nparts, 1))
}

fn opts(recovery: RecoveryOpts) -> SpmdOpts {
    SpmdOpts {
        geneo: GeneoOpts {
            nev: 5,
            ..Default::default()
        },
        // Tight enough that every run is still iterating at the
        // `solve-iteration-1` failpoint the join rows arm.
        gmres: GmresOpts {
            tol: 1e-10,
            max_iters: 500,
            ..Default::default()
        },
        recovery,
        ..Default::default()
    }
}

/// Elastic solve of 4 subdomains on 2 founders; per rank, the outcome and
/// the corruptions its receives detected.
fn elastic_under(
    decomp: &Arc<Decomposition>,
    recovery: RecoveryOpts,
    plan: FaultPlan,
) -> Vec<(Result<usize, SpmdError>, u64)> {
    let (d, o) = (Arc::clone(decomp), opts(recovery));
    let store = Arc::new(CheckpointStore::new());
    let cache = Arc::new(CoarseCache::new());
    World::run_with_faults(2, CostModel::default(), plan, move |comm| {
        let out = try_run_spmd_elastic(&d, comm, &o, &store, &cache);
        (
            out.map(|s| s.solve.result.iterations),
            comm.fault_stats().corruptions_detected,
        )
    })
}

/// Replays are recovery: with `recovery.enabled == false` a corruption
/// classification surfaces after ONE attempt on every path, whatever
/// `max_replays` says. (The elastic path used to replay regardless.)
#[test]
fn replays_need_recovery_enabled_on_the_elastic_path_too() {
    let decomp = setup(12, 4);
    let plan =
        || FaultPlan::new(17).with_corrupt_persistent("recovery-solve", None, TagClass::P2p, 17);
    let run = |max_replays| {
        let recovery = RecoveryOpts {
            enabled: false,
            max_replays,
            ..Default::default()
        };
        elastic_under(&decomp, recovery, plan())
    };
    let (none, two) = (run(0), run(2));
    for (rank, ((out, detected), (out0, detected0))) in two.iter().zip(&none).enumerate() {
        for out in [out, out0] {
            assert!(
                matches!(
                    out,
                    Err(SpmdError::Comm(
                        CommError::Corrupt { .. } | CommError::RankDead { .. }
                    ))
                ),
                "rank {rank}: expected a corruption-class error, got {out:?}"
            );
        }
        assert!(*detected0 > 0, "rank {rank}: the row is vacuous");
        assert_eq!(
            detected, detected0,
            "rank {rank}: a disabled recovery replayed the epoch"
        );
    }
    // Armed, the same budget is spent: three attempts, three times the
    // detections.
    let armed = RecoveryOpts {
        enabled: true,
        max_replays: 2,
        ..Default::default()
    };
    for ((out, detected), (_, detected0)) in elastic_under(&decomp, armed, plan()).iter().zip(&none)
    {
        assert!(out.is_err(), "persistent corruption cannot converge");
        assert_eq!(*detected, 3 * detected0, "one first attempt, two replays");
    }
}

/// The recovery budget is checked before the agreement: with
/// `max_recoveries == 0` a revoked epoch surfaces as it is, and the reserve
/// rank whose announcement revoked it is never admitted. (The classic path
/// used to run one agreement — admitting the joiner into a world about to
/// abandon it — and give up afterwards.)
#[test]
fn a_spent_recovery_budget_runs_no_agreement() {
    let decomp = setup(12, 4);
    let o = opts(RecoveryOpts {
        enabled: true,
        max_recoveries: 0,
        ..Default::default()
    });
    let plan = FaultPlan::new(5).with_join(4, "solve-iteration-1");
    let store = Arc::new(CheckpointStore::new());
    let d = Arc::clone(&decomp);
    let results = World::run_elastic(4, 1, CostModel::default(), plan, move |comm| {
        try_run_spmd_recoverable(&d, comm, &o, &store).map(|s| s.solve.result.iterations)
    });
    for (rank, res) in results[..4].iter().enumerate() {
        assert!(
            matches!(
                res,
                Some(Err(SpmdError::Comm(
                    CommError::Revoked { .. } | CommError::RankDead { .. }
                )))
            ),
            "founder {rank}: expected the revocation to surface, got {res:?}"
        );
    }
    assert!(
        results[4].is_none(),
        "the reserve was admitted by an agreement nobody had the budget for: {:?}",
        results[4]
    );
}

fn assert_protocol<T: std::fmt::Debug>(res: &Result<T, SpmdError>, who: &str) {
    assert!(
        matches!(res, Err(SpmdError::Protocol { what, .. }) if what.contains("subdomain")),
        "{who}: expected the membership-size Protocol error, got {res:?}"
    );
}

/// Three ranks cannot host a two-subdomain decomposition: every entry point
/// returns the same typed error on every rank (each used to `assert!`).
#[test]
fn more_members_than_subdomains_is_a_typed_error_on_every_rank() {
    let decomp = setup(8, 2);
    let armed = opts(RecoveryOpts {
        enabled: true,
        ..Default::default()
    });
    let workload = Workload::from_requests(vec![Request {
        id: 0,
        arrival: 0.0,
        payload: Payload::Rhs(decomp.rhs_global.clone()),
    }]);
    let (d, o) = (Arc::clone(&decomp), armed.clone());
    let per_rank = World::run(3, CostModel::default(), move |comm| {
        let setup = try_setup(&d, comm, &o).map(|_| ());
        let plain = try_run_spmd(&d, comm, &o).map(|s| s.solve.result.iterations);
        (setup, plain)
    });
    for (rank, (setup, plain)) in per_rank.iter().enumerate() {
        assert_protocol(setup, &format!("try_setup, rank {rank}"));
        assert_protocol(plain, &format!("try_run_spmd, rank {rank}"));
    }
    let (d, o) = (Arc::clone(&decomp), armed.clone());
    let elastic = World::run(3, CostModel::default(), move |comm| {
        let (store, cache) = (CheckpointStore::new(), CoarseCache::new());
        try_run_spmd_elastic(&d, comm, &o, &store, &cache).map(|s| s.solve.result.iterations)
    });
    let d = Arc::clone(&decomp);
    let served = World::run(3, CostModel::default(), move |comm| {
        let serve_opts = ServeOpts {
            spmd: armed.clone(),
            ..Default::default()
        };
        let (cache, responses) = (CoarseCache::new(), ResponseStore::new());
        try_serve(&d, comm, &serve_opts, &workload, &cache, &responses).map(|r| r.solves)
    });
    for rank in 0..3 {
        assert_protocol(
            &elastic[rank],
            &format!("try_run_spmd_elastic, rank {rank}"),
        );
        assert_protocol(&served[rank], &format!("try_serve, rank {rank}"));
    }
}

/// No masters means no coarse solve: every entry point returns a typed
/// error on every rank before the set-up's first collective (the master
/// election used to `assert!` after the factorizations and eigensolves).
#[test]
fn zero_masters_is_a_typed_error_on_every_rank() {
    let decomp = setup(8, 2);
    let o = SpmdOpts {
        n_masters: 0,
        ..opts(RecoveryOpts {
            enabled: true,
            ..Default::default()
        })
    };
    let on_every_rank = |who: &str, f: &(dyn Fn(&Communicator) -> Result<(), SpmdError> + Sync)| {
        for (rank, res) in World::run(2, CostModel::default(), f).iter().enumerate() {
            assert!(
                matches!(res, Err(SpmdError::Protocol { what, .. }) if what.contains("n_masters")),
                "{who}, rank {rank}: expected the n_masters Protocol error, got {res:?}"
            );
        }
    };
    on_every_rank("try_setup", &|comm| {
        try_setup(&decomp, comm, &o).map(|_| ())
    });
    on_every_rank("try_run_spmd", &|comm| {
        try_run_spmd(&decomp, comm, &o).map(|_| ())
    });
    on_every_rank("try_run_spmd_recoverable", &|comm| {
        try_run_spmd_recoverable(&decomp, comm, &o, &CheckpointStore::new()).map(|_| ())
    });
    on_every_rank("try_run_spmd_elastic", &|comm| {
        let (store, cache) = (CheckpointStore::new(), CoarseCache::new());
        try_run_spmd_elastic(&decomp, comm, &o, &store, &cache).map(|_| ())
    });
    let workload = Workload::from_requests(vec![Request {
        id: 0,
        arrival: 0.0,
        payload: Payload::Rhs(decomp.rhs_global.clone()),
    }]);
    let serve_opts = ServeOpts {
        spmd: o.clone(),
        ..Default::default()
    };
    on_every_rank("try_serve", &|comm| {
        let (cache, responses) = (CoarseCache::new(), ResponseStore::new());
        try_serve(&decomp, comm, &serve_opts, &workload, &cache, &responses).map(|_| ())
    });
}

/// A reserve joining a world that already has one rank per subdomain: the
/// grown membership cannot be hosted, and survivors and joiner alike learn
/// it from the plan — a typed error on all five ranks (it was a panic in
/// `balanced_owner_map` on all five).
#[test]
fn a_join_into_a_full_world_is_a_typed_error_not_a_panic() {
    let decomp = setup(12, 4);
    let o = opts(RecoveryOpts {
        enabled: true,
        ..Default::default()
    });
    let plan = FaultPlan::new(5).with_join(4, "solve-iteration-1");
    let (store, cache) = (
        Arc::new(CheckpointStore::new()),
        Arc::new(CoarseCache::new()),
    );
    let d = Arc::clone(&decomp);
    let results = World::run_elastic(4, 1, CostModel::default(), plan, move |comm| {
        try_run_spmd_elastic(&d, comm, &o, &store, &cache).map(|s| s.solve.result.iterations)
    });
    for (rank, res) in results.iter().enumerate() {
        let res = res
            .as_ref()
            .unwrap_or_else(|| panic!("rank {rank} never entered the program"));
        assert_protocol(res, &format!("rank {rank}"));
    }
}
