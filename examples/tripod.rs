//! The paper's 3D strong-scaling geometry: a tripod (Figure 6) under
//! gravity, clamped at the feet, with the two-material heterogeneous
//! elasticity coefficients ((E, ν) = (2·10¹¹, 0.25) and (10⁷, 0.45)).
//!
//! ```sh
//! cargo run --release --example tripod
//! ```

use dd_geneo::core::{decompose, two_level, GeneoOpts, Problem, RasPrecond, TwoLevelOpts};
use dd_geneo::fem::coeffs;
use dd_geneo::krylov::{try_gmres, GmresOpts, SeqDot};
use dd_geneo::mesh::Mesh;
use dd_geneo::part::partition_mesh_rcb;
use dd_geneo::solver::Ordering;
use std::sync::Arc;

fn main() {
    // A plate on three legs, P1 elasticity (paper: P2; P1 keeps the demo
    // quick), clamped at the feet (z = 0), loaded by gravity.
    let mesh = Mesh::tripod(4);
    let n_sub = 8;
    let part = partition_mesh_rcb(&mesh, n_sub);
    let problem = Problem {
        pde: dd_geneo::core::Pde::Elasticity {
            lame: Arc::new(|x: &[f64]| coeffs::elasticity_two_materials(x)),
            body: Arc::new(|_: &[f64], f: &mut [f64]| {
                f.copy_from_slice(&[0.0, 0.0, -9.81 * 7800.0]);
            }),
        },
        order: 1,
        dirichlet: Arc::new(|x: &[f64]| x[2] < 1e-9),
    };
    let decomp = decompose(&mesh, &problem, &part, n_sub, 1);
    println!(
        "tripod: {} elements, {} vector dofs, {} subdomains",
        mesh.n_elements(),
        decomp.n_global,
        n_sub
    );

    let opts = GmresOpts {
        tol: 1e-6,
        max_iters: 500,
        record_history: false,
        ..Default::default()
    };
    let x0 = vec![0.0; decomp.n_global];

    let ras = RasPrecond::build(&decomp, Ordering::MinDegree);
    let one = try_gmres(
        &decomp.a_global,
        &ras,
        &SeqDot,
        &decomp.rhs_global,
        &x0,
        &opts,
        None,
    )
    .expect("a sequential solve is never interrupted");
    println!(
        "P_RAS    : {:>4} iterations (converged = {})",
        one.iterations, one.converged
    );

    let tl = two_level(
        &decomp,
        &TwoLevelOpts {
            geneo: GeneoOpts {
                nev: 12,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let two = try_gmres(
        &decomp.a_global,
        &tl,
        &SeqDot,
        &decomp.rhs_global,
        &x0,
        &opts,
        None,
    )
    .expect("a sequential solve is never interrupted");
    println!(
        "P_A-DEF1 : {:>4} iterations (converged = {}), dim(E) = {}",
        two.iterations,
        two.converged,
        tl.coarse().dim()
    );
    assert!(two.converged);

    // The plate sags: max downward displacement on the top surface.
    let n_scalar = decomp.n_global / 3;
    let mut sag = 0.0f64;
    for i in 0..n_scalar {
        sag = sag.min(two.x[3 * i + 2]);
    }
    println!("max downward displacement: {sag:.3e}");
    assert!(sag < 0.0, "the tripod must sag under gravity");
}
