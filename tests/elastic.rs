//! Elastic-membership chaos tests: worlds that *grow* mid-solve (reserve
//! ranks admitted through `try_grow` and folded in by online
//! repartitioning), straggler suspicion and eviction, and the differential
//! contract that a grow-interrupted solve converges to the uninterrupted
//! solution on Figure-10-style workloads.

use dd_geneo::comm::{CostModel, FaultPlan, SuspicionPolicy, World};
use dd_geneo::core::problem::presets;
use dd_geneo::core::{
    decompose, try_run_spmd_elastic, CheckpointStore, CoarseCache, Decomposition, GeneoOpts,
    RecoveryOpts, SpmdError, SpmdOpts, SpmdReport,
};
use dd_geneo::krylov::GmresOpts;
use dd_geneo::mesh::Mesh;
use dd_geneo::part::partition_mesh_rcb;
use std::sync::Arc;

mod common;
use common::{global_residual, rel_dist};

fn setup(nmesh: usize, nparts: usize) -> Arc<Decomposition> {
    let mesh = Mesh::unit_square(nmesh, nmesh);
    let part = partition_mesh_rcb(&mesh, nparts);
    let p = presets::heterogeneous_diffusion(1);
    Arc::new(decompose(&mesh, &p, &part, nparts, 1))
}

fn elastic_opts() -> SpmdOpts {
    SpmdOpts {
        geneo: GeneoOpts {
            nev: 5,
            ..Default::default()
        },
        gmres: GmresOpts {
            tol: 1e-6,
            max_iters: 500,
            ..Default::default()
        },
        recovery: RecoveryOpts {
            enabled: true,
            checkpoint_interval: 1,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Per-rank outcome of an elastic run: `None` for never-admitted reserves.
type ElasticResult = Option<Result<(SpmdReport, Vec<(usize, Vec<f64>)>), SpmdError>>;

fn run_elastic_with_plan(
    decomp: &Arc<Decomposition>,
    founders: usize,
    reserve: usize,
    opts: &SpmdOpts,
    plan: FaultPlan,
) -> Vec<ElasticResult> {
    let d2 = Arc::clone(decomp);
    let opts = opts.clone();
    let store = Arc::new(CheckpointStore::new());
    let cache = Arc::new(CoarseCache::new());
    World::run_elastic(founders, reserve, CostModel::default(), plan, move |comm| {
        try_run_spmd_elastic(&d2, comm, &opts, &store, &cache).map(|s| (s.report, s.locals))
    })
}

/// Reassemble the global solution from the per-subdomain locals of every
/// completed rank, asserting exact single coverage of all subdomains.
fn reassemble(decomp: &Decomposition, results: &[ElasticResult]) -> Vec<f64> {
    common::reassemble(decomp, results.iter().flatten().flatten().map(|r| &r.1))
}

/// Fault-free elastic run with fewer founders than subdomains: each rank
/// hosts its balanced contiguous chunk, the solve is an ordinary epoch-0
/// run (no recoveries), and the reassembled solution meets tolerance.
#[test]
fn elastic_fault_free_run_chunks_subdomains_and_converges() {
    let decomp = setup(12, 6);
    let results = run_elastic_with_plan(&decomp, 4, 0, &elastic_opts(), FaultPlan::default());
    for (rank, res) in results.iter().enumerate() {
        let (report, locals) = res
            .as_ref()
            .expect("founder produced no result")
            .as_ref()
            .expect("fault-free elastic run must not fail");
        assert!(report.converged, "rank {rank} did not converge");
        assert!(
            report.run.recoveries.is_empty(),
            "epoch 0 is not a recovery"
        );
        // Balanced chunks over 6 subdomains and 4 founders: 2/2/1/1.
        let expect = if rank < 2 { 2 } else { 1 };
        assert_eq!(locals.len(), expect, "rank {rank} owns the wrong chunk");
    }
    let rr = global_residual(&decomp, &reassemble(&decomp, &results));
    assert!(rr <= 1e-5, "elastic residual {rr:e} misses tolerance");
}

/// Two reserves join mid-iteration: the world grows 4 → 6, subdomains
/// repartition one-per-rank, only moved subdomains recompute their coarse
/// rows (the rest reuse the cache), and the solve resumes from the last
/// complete checkpoint and converges.
#[test]
fn join_during_solve_repartitions_and_resumes() {
    let decomp = setup(12, 6);
    let plan = FaultPlan::new(61)
        .with_join(4, "solve-iteration-2")
        .with_join(5, "solve-iteration-2");
    let results = run_elastic_with_plan(&decomp, 4, 2, &elastic_opts(), plan);
    for (rank, res) in results.iter().enumerate() {
        let (report, locals) = res
            .as_ref()
            .unwrap_or_else(|| panic!("rank {rank} was never admitted"))
            .as_ref()
            .unwrap_or_else(|e| panic!("rank {rank} failed: {e}"));
        assert!(report.converged, "rank {rank} did not converge");
        let rec = report
            .run
            .recoveries
            .last()
            .unwrap_or_else(|| panic!("rank {rank} recorded no recovery"));
        assert_eq!(rec.joined, vec![4, 5], "rank {rank}: wrong joiner set");
        assert!(rec.dead.is_empty() && rec.evicted.is_empty());
        assert!(rec.epoch >= 1, "grow must bump the epoch");
        // 6 members over 6 subdomains: one each, so at least the chunks
        // that changed hands were recomputed and the rest reused.
        assert_eq!(locals.len(), 1, "rank {rank} after repartition");
        assert_eq!(
            rec.moved.len() + rec.reused.len(),
            decomp.n_subdomains(),
            "moved/reused must partition the subdomains"
        );
        assert!(!rec.moved.is_empty(), "a grow must move subdomains");
        assert!(
            !rec.reused.is_empty(),
            "unmoved subdomains must reuse cached coarse rows"
        );
        assert!(
            rec.resume_iteration.is_some(),
            "checkpoints existed; the solve must resume, not restart"
        );
        // Satellite: recovery-phase virtual-time costs are visible. A
        // joiner pays no agreement (it waited in the lobby), so its
        // record honestly carries zero there.
        if rank < 4 {
            assert!(rec.t_agreement > 0.0, "agreement cost not recorded");
        }
        assert!(rec.t_reassembly > 0.0, "re-assembly cost not recorded");
        assert!(
            rec.t_refactorization >= 0.0 && rec.t_refactorization.is_finite(),
            "refactorization cost not recorded"
        );
    }
    let rr = global_residual(&decomp, &reassemble(&decomp, &results));
    assert!(rr <= 1e-5, "post-grow residual {rr:e} misses tolerance");
}

/// A straggling rank (alive, heartbeats suppressed) is suspected under the
/// k-missed policy, evicted by its peers, and reports `Evicted` —
/// distinguishable from death — while the survivors repartition and finish.
#[test]
fn straggler_is_suspected_evicted_and_distinguished_from_death() {
    let decomp = setup(12, 6);
    let victim = 1usize;
    let o = SpmdOpts {
        one_level_only: true,
        recovery: RecoveryOpts {
            enabled: true,
            checkpoint_interval: 2,
            suspicion: Some(SuspicionPolicy {
                deadline: f64::INFINITY,
                k_missed: 3,
            }),
            ..Default::default()
        },
        ..elastic_opts()
    };
    let plan = FaultPlan::new(67).with_straggle(victim, "solve-iteration-2");
    let results = run_elastic_with_plan(&decomp, 4, 0, &o, plan);
    match results[victim].as_ref().expect("victim produced no result") {
        Err(SpmdError::Evicted { rank }) => assert_eq!(*rank, victim),
        other => panic!("straggler must report Evicted, got {other:?}"),
    }
    for (rank, res) in results.iter().enumerate() {
        if rank == victim {
            continue;
        }
        let (report, _) = res
            .as_ref()
            .expect("survivor produced no result")
            .as_ref()
            .unwrap_or_else(|e| panic!("survivor {rank} failed: {e}"));
        assert!(report.converged, "survivor {rank} did not converge");
        let rec = report.run.recoveries.last().expect("no recovery recorded");
        assert_eq!(rec.evicted, vec![victim], "eviction must be recorded");
        assert!(
            !rec.dead.contains(&victim),
            "eviction must not masquerade as death"
        );
    }
    let rr = global_residual(&decomp, &reassemble(&decomp, &results));
    assert!(rr <= 1e-5, "post-eviction residual {rr:e} misses tolerance");
}

/// The acceptance scenario end to end: a solve starting on 4 founders
/// admits 2 joiners mid-iteration, later evicts 1 straggler, and still
/// completes from checkpointed residual history within tolerance.
#[test]
fn grow_then_evict_straggler_completes_within_tolerance() {
    let decomp = setup(16, 6);
    let victim = 1usize;
    let o = SpmdOpts {
        one_level_only: true,
        gmres: GmresOpts {
            tol: 1e-8,
            max_iters: 500,
            ..Default::default()
        },
        recovery: RecoveryOpts {
            enabled: true,
            checkpoint_interval: 1,
            max_recoveries: 4,
            suspicion: Some(SuspicionPolicy {
                deadline: f64::INFINITY,
                k_missed: 3,
            }),
            ..Default::default()
        },
        ..elastic_opts()
    };
    let plan = FaultPlan::new(71)
        .with_join(4, "solve-iteration-2")
        .with_join(5, "solve-iteration-2")
        .with_straggle(victim, "solve-iteration-4");
    let results = run_elastic_with_plan(&decomp, 4, 2, &o, plan);
    match results[victim].as_ref().expect("victim produced no result") {
        Err(SpmdError::Evicted { rank }) => assert_eq!(*rank, victim),
        other => panic!("straggler must report Evicted, got {other:?}"),
    }
    for (rank, res) in results.iter().enumerate() {
        if rank == victim {
            continue;
        }
        let (report, _) = res
            .as_ref()
            .unwrap_or_else(|| panic!("rank {rank} was never admitted"))
            .as_ref()
            .unwrap_or_else(|e| panic!("rank {rank} failed: {e}"));
        assert!(report.converged, "rank {rank} did not converge");
        let last = report.run.recoveries.last().expect("no recovery recorded");
        assert_eq!(last.joined, vec![4, 5], "joiners must stay members");
        assert_eq!(last.evicted, vec![victim]);
        assert!(
            last.resume_iteration.is_some(),
            "the checkpoint contract promises a resume, not a restart"
        );
    }
    let rr = global_residual(&decomp, &reassemble(&decomp, &results));
    assert!(rr <= 1e-5, "acceptance residual {rr:e} misses tolerance");
}

/// Differential contract (satellite): a solve interrupted by a grow and
/// online repartitioning converges to the *same* solution as the
/// uninterrupted run on a Figure-10 workload — fault-free and with an
/// armed wire-fault plan (delays and drops are payload-preserving).
#[test]
fn grow_interrupted_solve_matches_uninterrupted_on_fig10() {
    let decomp = setup(14, 6);
    let o = SpmdOpts {
        gmres: GmresOpts {
            tol: 1e-12,
            max_iters: 800,
            ..Default::default()
        },
        ..elastic_opts()
    };
    // Uninterrupted reference: the same 4-founder partition, reserves
    // never announced, so the whole solve runs at epoch 0.
    let base = run_elastic_with_plan(&decomp, 4, 2, &o, FaultPlan::default());
    let x_base = reassemble(&decomp, &base);
    for plan in [
        FaultPlan::new(73)
            .with_join(4, "solve-iteration-3")
            .with_join(5, "solve-iteration-3"),
        FaultPlan::new(79)
            .with_join(4, "solve-iteration-3")
            .with_join(5, "solve-iteration-3")
            .with_delays(0.2, 1e-4)
            .with_drops(0.2, 1),
    ] {
        let armed = plan.is_active();
        let results = run_elastic_with_plan(&decomp, 4, 2, &o, plan);
        for (rank, res) in results.iter().enumerate() {
            let (report, _) = res
                .as_ref()
                .unwrap_or_else(|| panic!("rank {rank} was never admitted"))
                .as_ref()
                .unwrap_or_else(|e| panic!("rank {rank} failed: {e}"));
            assert!(report.converged, "rank {rank} did not converge");
        }
        let x = reassemble(&decomp, &results);
        let rel = rel_dist(&x, &x_base);
        assert!(
            rel < 1e-10,
            "grow-interrupted solution diverged (armed={armed}): rel {rel:e}"
        );
    }
}
