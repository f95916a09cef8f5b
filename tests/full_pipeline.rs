//! Cross-crate integration tests: the full pipeline from mesh generation
//! through partitioning, decomposition, preconditioner setup, and Krylov
//! solution — sequential and SPMD — verified against direct solves.

use dd_geneo::comm::World;
use dd_geneo::core::{
    decompose, problem::presets, try_run_spmd, two_level, GeneoOpts, RasPrecond, SolverKind,
    SpmdOpts, TwoLevelOpts, Variant,
};
use dd_geneo::krylov::{try_gmres, GmresOpts, SeqDot};
use dd_geneo::linalg::vector;
use dd_geneo::mesh::{refine::uniform_refine, Mesh};
use dd_geneo::part::{partition_mesh_rcb, quality};
use dd_geneo::solver::{LdltBackend, LocalLdlt, Ordering};
use std::sync::Arc;

mod common;

fn direct_solution(d: &dd_geneo::core::Decomposition) -> Vec<f64> {
    LocalLdlt::factor(&d.a_global, Ordering::MinDegree, LdltBackend::Scalar)
        .unwrap()
        .solve(&d.rhs_global)
}

#[test]
fn diffusion_2d_p2_pipeline() {
    let mesh = uniform_refine(&Mesh::unit_square(8, 8));
    let n_sub = 8;
    let part = partition_mesh_rcb(&mesh, n_sub);
    let q = quality(&mesh.dual_graph(), &part, n_sub);
    assert_eq!(q.connected_parts, n_sub);
    let problem = presets::heterogeneous_diffusion(2);
    let d = decompose(&mesh, &problem, &part, n_sub, 1);
    assert!(d.pou_defect() < 1e-12);
    let tl = two_level(
        &d,
        &TwoLevelOpts {
            geneo: GeneoOpts {
                nev: 8,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let res = try_gmres(
        &d.a_global,
        &tl,
        &SeqDot,
        &d.rhs_global,
        &vec![0.0; d.n_global],
        &GmresOpts {
            tol: 1e-8,
            max_iters: 200,
            ..Default::default()
        },
        None,
    )
    .unwrap();
    assert!(res.converged, "residual {}", res.final_residual);
    let direct = direct_solution(&d);
    let rel = vector::dist2(&res.x, &direct) / vector::norm2(&direct);
    assert!(rel < 1e-6, "vs direct: {rel}");
}

#[test]
fn elasticity_2d_p2_pipeline() {
    let mesh = Mesh::rectangle(16, 4, 4.0, 1.0);
    let n_sub = 4;
    let part = partition_mesh_rcb(&mesh, n_sub);
    let problem = presets::heterogeneous_elasticity(2, 2);
    let d = decompose(&mesh, &problem, &part, n_sub, 1);
    let tl = two_level(
        &d,
        &TwoLevelOpts {
            geneo: GeneoOpts {
                nev: 10,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let res = try_gmres(
        &d.a_global,
        &tl,
        &SeqDot,
        &d.rhs_global,
        &vec![0.0; d.n_global],
        &GmresOpts {
            tol: 1e-8,
            max_iters: 300,
            ..Default::default()
        },
        None,
    )
    .unwrap();
    assert!(res.converged);
    let direct = direct_solution(&d);
    let rel = vector::dist2(&res.x, &direct) / vector::norm2(&direct);
    assert!(rel < 1e-5, "vs direct: {rel}");
}

#[test]
fn diffusion_3d_pipeline() {
    let mesh = Mesh::unit_cube(5, 5, 5);
    let n_sub = 4;
    let part = partition_mesh_rcb(&mesh, n_sub);
    let problem = presets::heterogeneous_diffusion(1);
    let d = decompose(&mesh, &problem, &part, n_sub, 1);
    assert!(d.pou_defect() < 1e-12);
    let tl = two_level(&d, &TwoLevelOpts::default());
    let res = try_gmres(
        &d.a_global,
        &tl,
        &SeqDot,
        &d.rhs_global,
        &vec![0.0; d.n_global],
        &GmresOpts {
            tol: 1e-8,
            max_iters: 200,
            ..Default::default()
        },
        None,
    )
    .unwrap();
    assert!(res.converged);
    let direct = direct_solution(&d);
    let rel = vector::dist2(&res.x, &direct) / vector::norm2(&direct);
    assert!(rel < 1e-5);
}

#[test]
fn spmd_matches_sequential_two_level() {
    let mesh = Mesh::unit_square(16, 16);
    let n_sub = 4;
    let part = partition_mesh_rcb(&mesh, n_sub);
    let problem = presets::heterogeneous_diffusion(1);
    let d = Arc::new(decompose(&mesh, &problem, &part, n_sub, 1));
    let opts = SpmdOpts {
        geneo: GeneoOpts {
            nev: 6,
            ..Default::default()
        },
        gmres: GmresOpts {
            tol: 1e-8,
            max_iters: 200,
            ..Default::default()
        },
        ..Default::default()
    };
    let d2 = Arc::clone(&d);
    let sols = World::run_default(n_sub, move |comm| {
        let s = try_run_spmd(&d2, comm, &opts).expect("SPMD solve failed");
        (s.solve.result.converged, s.solve.locals)
    });
    assert!(sols.iter().all(|(c, _)| *c));
    let x = common::reassemble(&d, sols.iter().map(|(_, l)| l));
    let direct = direct_solution(&d);
    let rel = vector::dist2(&x, &direct) / vector::norm2(&direct);
    assert!(rel < 1e-5, "SPMD vs direct: {rel}");
}

#[test]
fn spmd_all_solver_kinds_agree() {
    let mesh = Mesh::unit_square(14, 14);
    let n_sub = 4;
    let part = partition_mesh_rcb(&mesh, n_sub);
    let problem = presets::heterogeneous_diffusion(1);
    let d = Arc::new(decompose(&mesh, &problem, &part, n_sub, 1));
    let direct = direct_solution(&d);
    for kind in [SolverKind::Classical, SolverKind::Fused] {
        let opts = SpmdOpts {
            geneo: GeneoOpts {
                nev: 6,
                ..Default::default()
            },
            solver: kind,
            gmres: GmresOpts {
                tol: 1e-7,
                max_iters: 300,
                side: dd_geneo::krylov::Side::Left,
                ..Default::default()
            },
            ..Default::default()
        };
        let d2 = Arc::clone(&d);
        let sols = World::run_default(n_sub, move |comm| {
            let s = try_run_spmd(&d2, comm, &opts).expect("SPMD solve failed");
            (s.solve.result.converged, s.solve.locals)
        });
        assert!(sols.iter().all(|(c, _)| *c), "{kind:?} did not converge");
        let x = common::reassemble(&d, sols.iter().map(|(_, l)| l));
        let rel = vector::dist2(&x, &direct) / vector::norm2(&direct);
        assert!(rel < 1e-3, "{kind:?} vs direct: {rel}");
    }
}

#[test]
fn one_level_vs_two_level_iteration_gap_grows_with_n() {
    // The motivating scalability property: as N grows on a fixed mesh, the
    // one-level iteration count grows while the two-level count stays flat.
    let mesh = Mesh::unit_square(24, 24);
    let problem = presets::uniform_diffusion(1);
    let opts = GmresOpts {
        tol: 1e-8,
        max_iters: 500,
        record_history: false,
        ..Default::default()
    };
    let mut one_counts = Vec::new();
    let mut two_counts = Vec::new();
    for n_sub in [2usize, 8, 16] {
        let part = partition_mesh_rcb(&mesh, n_sub);
        let d = decompose(&mesh, &problem, &part, n_sub, 1);
        let x0 = vec![0.0; d.n_global];
        let ras = RasPrecond::build(&d, Ordering::MinDegree);
        let r1 = try_gmres(&d.a_global, &ras, &SeqDot, &d.rhs_global, &x0, &opts, None).unwrap();
        let tl = two_level(
            &d,
            &TwoLevelOpts {
                geneo: GeneoOpts {
                    nev: 5,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        let r2 = try_gmres(&d.a_global, &tl, &SeqDot, &d.rhs_global, &x0, &opts, None).unwrap();
        assert!(r1.converged && r2.converged);
        one_counts.push(r1.iterations);
        two_counts.push(r2.iterations);
    }
    assert!(
        one_counts[2] > one_counts[0],
        "one-level did not degrade with N: {one_counts:?}"
    );
    let tmax = *two_counts.iter().max().unwrap();
    let tmin = *two_counts.iter().min().unwrap().max(&1);
    assert!(
        tmax <= 2 * tmin + 2,
        "two-level iterations not flat: {two_counts:?}"
    );
}

#[test]
fn adef2_variant_end_to_end() {
    let mesh = Mesh::unit_square(12, 12);
    let part = partition_mesh_rcb(&mesh, 4);
    let problem = presets::heterogeneous_diffusion(1);
    let d = decompose(&mesh, &problem, &part, 4, 1);
    let tl = two_level(
        &d,
        &TwoLevelOpts {
            variant: Variant::ADef2,
            ..Default::default()
        },
    );
    let res = try_gmres(
        &d.a_global,
        &tl,
        &SeqDot,
        &d.rhs_global,
        &vec![0.0; d.n_global],
        &GmresOpts {
            tol: 1e-8,
            max_iters: 200,
            ..Default::default()
        },
        None,
    )
    .unwrap();
    assert!(res.converged);
    // Two coarse solves per application: count is even and ≥ 2·iterations.
    assert_eq!(tl.coarse_solve_count() % 2, 0);
}
