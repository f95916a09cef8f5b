//! Differential tests for the distributed coarse solve: the block fan-in
//! LDLᵀ across masters ([`CoarseSolve::Distributed`]) must reproduce the
//! redundant per-master factorization ([`CoarseSolve::Redundant`]) to near
//! machine precision on Figure-10-style heterogeneous-diffusion workloads —
//! fault-free, under an armed wire-fault plan (delays + drops are
//! payload-preserving), and with identical typed-error classification when
//! a slave rank is killed mid-run. The assembled `E` itself is pinned
//! twice: the sequential `CoarseOperator` against the dense `Zᵀ A Z`, and
//! against the redundant master's `E`, bit for bit.

use dd_geneo::comm::{CommError, CostModel, FaultPlan, World};
use dd_geneo::core::geneo::{resize_block, try_deflation_block_ordered};
use dd_geneo::core::problem::presets;
use dd_geneo::core::{
    decompose, try_deflation_block, try_run_spmd, try_setup, CoarseOperator, CoarseSolve,
    CoarseSpace, Decomposition, GeneoOpts, SpmdError, SpmdOpts,
};
use dd_geneo::krylov::GmresOpts;
use dd_geneo::linalg::{jacobi, CsrMatrix, DMat};
use dd_geneo::mesh::Mesh;
use dd_geneo::part::partition_mesh_rcb;
use dd_geneo::solver::{LdltBackend, Ordering};
use std::sync::Arc;

mod common;
use common::rel_dist;

/// Figure 10's 2D family at laptop scale: heterogeneous diffusion on a
/// unit square, RCB-partitioned.
fn fig10_2d(order: usize, cells: usize, nparts: usize) -> Arc<Decomposition> {
    let mesh = Mesh::unit_square(cells, cells);
    let part = partition_mesh_rcb(&mesh, nparts);
    let p = presets::heterogeneous_diffusion(order);
    Arc::new(decompose(&mesh, &p, &part, nparts, 1))
}

/// Figure 10's 3D family at laptop scale.
fn fig10_3d(order: usize, cells: usize, nparts: usize) -> Arc<Decomposition> {
    let mesh = Mesh::unit_cube(cells, cells, cells);
    let part = partition_mesh_rcb(&mesh, nparts);
    let p = presets::heterogeneous_diffusion(order);
    Arc::new(decompose(&mesh, &p, &part, nparts, 1))
}

/// Deterministic, sign-varying global residual.
fn rhs(n: usize) -> Vec<f64> {
    (0..n).map(|i| (0.37 * i as f64).sin() + 0.5).collect()
}

/// Per-rank outcome of one preconditioner application: the full
/// preconditioned residual `z`, the coarse correction `q` and, on masters
/// in redundant mode, the assembled coarse matrix `E`.
type ApplyOutcome = Result<(Vec<f64>, Vec<f64>, Option<CsrMatrix>), SpmdError>;

/// Apply `P⁻¹_A-DEF1` once on every rank and return (z, q, E) per rank:
/// the full preconditioned residual and the coarse correction `Z E⁻¹ Zᵀ r`
/// (the component the two coarse-solve modes compute differently).
fn apply_once(
    decomp: &Arc<Decomposition>,
    coarse: CoarseSolve,
    plan: FaultPlan,
) -> Vec<ApplyOutcome> {
    let n = decomp.n_subdomains();
    let d2 = Arc::clone(decomp);
    let r = rhs(decomp.n_global);
    let opts = SpmdOpts {
        geneo: GeneoOpts {
            nev: 4,
            ..Default::default()
        },
        coarse_solve: coarse,
        ..Default::default()
    };
    World::run_with_faults(n, CostModel::default(), plan, move |comm| {
        let p = try_setup(&d2, comm, &opts)?.debug_apply(0.0, &r)?;
        Ok((p.z, p.q, p.e))
    })
}

/// Agreement the two modes are held to on the coarse correction.
#[derive(Clone, Copy)]
enum Agreement {
    /// 1e-12 flat: rounding only.
    Pinned,
    /// `cond₂(E) · ε`, computed from the assembled `E`: what two
    /// backward-stable factorizations of an ill-conditioned `E` can be held
    /// to. For the one case where the flat bound is a matter of luck:
    /// measured 3·10⁻¹³ to 10⁻¹¹ over Lanczos start vectors at an unchanged
    /// `cond₂(E) = 3.4·10⁶`.
    CondBound,
}

/// `λ_max / λ_min` of the SPD coarse matrix a master assembled.
fn cond_e(red: &[ApplyOutcome]) -> f64 {
    let e = red
        .iter()
        .find_map(|r| r.as_ref().ok().and_then(|(_, _, e)| e.as_ref()))
        .expect("no master returned E");
    let eig = jacobi::sym_eig(&e.to_dense(), 1e-15).eigenvalues;
    eig[eig.len() - 1] / eig[0]
}

fn assert_modes_agree(
    decomp: &Arc<Decomposition>,
    plan: FaultPlan,
    what: &str,
    agreement: Agreement,
) {
    let dist = apply_once(decomp, CoarseSolve::Distributed, plan);
    let red = apply_once(decomp, CoarseSolve::Redundant, FaultPlan::default());
    let bound = match agreement {
        Agreement::Pinned => 1e-12,
        Agreement::CondBound => cond_e(&red) * f64::EPSILON,
    };
    for (rank, (d, r)) in dist.iter().zip(&red).enumerate() {
        let (zd, qd, _) = d.as_ref().expect("distributed apply failed");
        let (zr, qr, _) = r.as_ref().expect("redundant apply failed");
        // The coarse correction Z E⁻¹ Zᵀ r is the quantity the two modes
        // compute by different algorithms.
        let dq = rel_dist(qd, qr);
        assert!(
            dq < bound,
            "{what}: rank {rank} coarse corrections disagree: rel {dq:e}, bound {bound:e}"
        );
        // The full A-DEF1 application composes q with A·q and a RAS solve,
        // which amplify the last-bit differences slightly.
        let dz = rel_dist(zd, zr);
        assert!(
            dz < 10.0 * bound,
            "{what}: rank {rank} preconditioned residuals disagree: rel {dz:e}, bound {:e}",
            10.0 * bound
        );
    }
}

#[test]
fn distributed_matches_redundant_on_fig10_2d() {
    for (order, cells, nparts, agreement) in [
        (1, 12, 8, Agreement::Pinned),
        (2, 10, 6, Agreement::CondBound),
    ] {
        let decomp = fig10_2d(order, cells, nparts);
        assert_modes_agree(
            &decomp,
            FaultPlan::default(),
            &format!("2D-P{order} N={nparts}"),
            agreement,
        );
    }
}

#[test]
fn distributed_matches_redundant_on_fig10_3d() {
    let decomp = fig10_3d(2, 4, 6);
    assert_modes_agree(
        &decomp,
        FaultPlan::default(),
        "3D-P2 N=6",
        Agreement::Pinned,
    );
}

#[test]
fn distributed_matches_redundant_under_armed_fault_plan() {
    // Delays perturb only virtual time and dropped messages are redelivered
    // with identical payloads, so even under an armed wire-fault plan the
    // distributed coarse solve must match the *fault-free* redundant one.
    let decomp = fig10_2d(1, 12, 8);
    let plan = FaultPlan::new(29)
        .with_delays(0.3, 2e-4)
        .with_drops(0.25, 2);
    assert_modes_agree(&decomp, plan, "2D-P1 N=8 armed", Agreement::Pinned);
}

/// Full-solve differential: distributed and redundant coarse solves give
/// the same iterate sequence on a fig10 workload (same iteration count,
/// solutions equal to solver accuracy), with multiple masters so the
/// fan-in actually crosses ranks.
#[test]
fn full_solve_agrees_across_modes_on_fig10() {
    let decomp = fig10_2d(1, 14, 8);
    let opts = |coarse| SpmdOpts {
        geneo: GeneoOpts {
            nev: 5,
            ..Default::default()
        },
        n_masters: 3,
        gmres: GmresOpts {
            tol: 1e-8,
            max_iters: 400,
            ..Default::default()
        },
        coarse_solve: coarse,
        ..Default::default()
    };
    let run = |o: SpmdOpts| {
        let d2 = Arc::clone(&decomp);
        World::run_default(decomp.n_subdomains(), move |comm| {
            try_run_spmd(&d2, comm, &o).map(|s| s.solve)
        })
    };
    let dist = run(opts(CoarseSolve::Distributed));
    let red = run(opts(CoarseSolve::Redundant));
    let (mut xd, mut xr) = (Vec::new(), Vec::new());
    for (d, r) in dist.into_iter().zip(red) {
        let d = d.expect("distributed solve failed");
        let r = r.expect("redundant solve failed");
        assert!(d.result.converged && r.result.converged);
        assert_eq!(
            d.result.iterations, r.result.iterations,
            "same numerics expected"
        );
        xd.push(d.locals);
        xr.push(r.locals);
    }
    let gd = common::reassemble(&decomp, &xd);
    let gr = common::reassemble(&decomp, &xr);
    let rel = rel_dist(&gd, &gr);
    assert!(rel < 1e-10, "solutions disagree across modes: rel {rel:e}");
}

/// A dead slave (killed at the post-assembly failpoint) must surface the
/// identical typed-error classification in both coarse-solve modes: the
/// victim sees `Killed`, every survivor sees `Comm(RankDead)` naming it.
#[test]
fn dead_slave_classification_identical_across_modes() {
    let decomp = fig10_2d(1, 12, 8);
    // Rank 1 is a slave under the non-uniform election for every master
    // count ≥ 1 used here (masters start at rank 0).
    let victim = 1usize;
    let classify = |coarse| {
        let o = SpmdOpts {
            geneo: GeneoOpts {
                nev: 5,
                ..Default::default()
            },
            n_masters: 3,
            coarse_solve: coarse,
            ..Default::default()
        };
        let d2 = Arc::clone(&decomp);
        let plan = FaultPlan::new(1).with_kill(victim, "post-assembly");
        let reports = World::run_with_faults(
            decomp.n_subdomains(),
            CostModel::default(),
            plan,
            move |comm| try_run_spmd(&d2, comm, &o).map(|s| s.report),
        );
        reports
            .into_iter()
            .enumerate()
            .map(|(rank, res)| match res {
                Err(SpmdError::Killed { rank: r, phase }) => {
                    assert_eq!(rank, victim, "only the victim sees Killed");
                    assert_eq!(r, victim);
                    assert_eq!(phase, "post-assembly");
                    "killed"
                }
                Err(SpmdError::Comm(CommError::RankDead { rank: dead })) => {
                    assert_ne!(rank, victim);
                    assert_eq!(dead, victim, "survivors must name the dead rank");
                    "rank-dead"
                }
                other => panic!("rank {rank}: unexpected outcome {other:?}"),
            })
            .collect::<Vec<_>>()
    };
    let dist = classify(CoarseSolve::Distributed);
    let red = classify(CoarseSolve::Redundant);
    assert_eq!(dist, red, "modes classify the dead slave differently");
}

/// The decisive check of the block-wise assembly (eq. 10): the sequential
/// coarse operator's `E` equals the dense `Zᵀ A Z` formed with the global
/// matrix, column by column through `Z` and `Zᵀ`.
#[test]
fn coarse_operator_equals_zt_a_z() {
    let d = fig10_2d(1, 10, 4);
    let opts = GeneoOpts {
        nev: 3,
        ..Default::default()
    };
    let w: Vec<DMat> = d
        .subdomains
        .iter()
        .map(|s| {
            let b = try_deflation_block(s, &opts).unwrap();
            resize_block(&b, b.kept)
        })
        .collect();
    let op = CoarseOperator::try_build(&d, CoarseSpace::new(w), Ordering::MinDegree).unwrap();
    let m = op.dim();
    assert!(m > 0);
    let mut zaz = DMat::zeros(m, m);
    for q in 0..m {
        let mut y = vec![0.0; m];
        y[q] = 1.0;
        let zq = op.space.z_apply(&d, &y);
        let mut azq = vec![0.0; d.n_global];
        d.a_global.spmv(&zq, &mut azq);
        zaz.col_mut(q).copy_from_slice(&op.space.zt_apply(&d, &azq));
    }
    for p in 0..m {
        for q in 0..m {
            let (got, want) = (op.e.get(p, q), zaz[(p, q)]);
            assert!(
                (got - want).abs() < 1e-8 * zaz.norm_max().max(1e-300),
                "E[{p},{q}] = {got} vs ZᵀAZ = {want}"
            );
        }
    }
}

/// One coarse row kernel: on ROADMAP finding 1(c)'s input (P2
/// heterogeneous diffusion, 40×40, 32 subdomains, ν = 3) the sequential
/// `CoarseOperator::try_build`, fed the bases the set-up computes (same
/// order, scalar kernel, ν uniformized to the largest), and the redundant
/// master of a 32-rank `try_setup` assemble the same `E`: the same
/// `row_ptr`, `col_idx` and every value's bits.
#[test]
fn sequential_and_redundant_e_are_one_matrix() {
    let decomp = fig10_2d(2, 40, 32);
    let opts = SpmdOpts {
        geneo: GeneoOpts {
            nev: 3,
            ..Default::default()
        },
        coarse_solve: CoarseSolve::Redundant,
        local_ldlt: LdltBackend::Scalar,
        ..Default::default()
    };
    let blocks: Vec<_> = decomp
        .subdomains
        .iter()
        .map(|s| {
            let (order, _) = s
                .factor_dirichlet(opts.ordering, LdltBackend::Scalar)
                .unwrap();
            try_deflation_block_ordered(s, &opts.geneo, &order, LdltBackend::Scalar).unwrap()
        })
        .collect();
    let nu = blocks.iter().map(|b| b.kept.max(1)).max().unwrap();
    let space = CoarseSpace::new(blocks.iter().map(|b| resize_block(b, nu)).collect());
    let sequential = CoarseOperator::try_build(&decomp, space, opts.ordering)
        .unwrap()
        .e;

    let (d, o) = (Arc::clone(&decomp), opts.clone());
    let r = rhs(decomp.n_global);
    let masters = World::run_default(decomp.n_subdomains(), move |comm| {
        let prepared = try_setup(&d, comm, &o).unwrap();
        prepared.debug_apply(0.0, &r).unwrap().e
    });
    let mut redundant = masters.into_iter().flatten().peekable();
    assert!(redundant.peek().is_some(), "no redundant master returned E");
    for e in redundant {
        assert_eq!(e.row_ptr(), sequential.row_ptr(), "row_ptr");
        assert_eq!(e.col_idx(), sequential.col_idx(), "col_idx");
        let bits = |m: &CsrMatrix| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&e), bits(&sequential), "values");
    }
}
