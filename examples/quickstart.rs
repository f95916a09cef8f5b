//! Quickstart: solve a heterogeneous diffusion problem with the two-level
//! GenEO-deflated Schwarz preconditioner and compare against one-level RAS.
//!
//! Run with:
//! ```sh
//! cargo run --release --example quickstart
//! ```

use dd_geneo::core::{decompose, problem::presets, two_level, RasPrecond, TwoLevelOpts};
use dd_geneo::krylov::{try_gmres, GmresOpts, SeqDot};
use dd_geneo::mesh::Mesh;
use dd_geneo::part::partition_mesh_rcb;
use dd_geneo::solver::Ordering;

fn main() {
    // 1. Mesh the unit square and partition it into 16 subdomains.
    let mesh = Mesh::unit_square(40, 40);
    let n_subdomains = 16;
    let part = partition_mesh_rcb(&mesh, n_subdomains);

    // 2. A hard problem: diffusivity with channels and inclusions,
    //    contrast 3·10⁶ (the paper's weak-scaling coefficient field).
    let problem = presets::heterogeneous_diffusion(1);

    // 3. Build the overlapping decomposition (δ = 1 element layer).
    let decomp = decompose(&mesh, &problem, &part, n_subdomains, 1);
    println!(
        "problem: {} dofs, {} subdomains, overlap δ = {}",
        decomp.n_global,
        decomp.n_subdomains(),
        decomp.delta
    );

    let gmres_opts = GmresOpts {
        tol: 1e-6,
        max_iters: 400,
        ..Default::default()
    };
    let x0 = vec![0.0; decomp.n_global];

    // 4. One-level RAS ("basic" preconditioning in Figure 1).
    let ras = RasPrecond::build(&decomp, Ordering::MinDegree);
    let one = try_gmres(
        &decomp.a_global,
        &ras,
        &SeqDot,
        &decomp.rhs_global,
        &x0,
        &gmres_opts,
        None,
    )
    .expect("a sequential solve is never interrupted");
    println!(
        "one-level RAS   : {:>4} iterations, converged = {}, residual = {:.2e}",
        one.iterations, one.converged, one.final_residual
    );

    // 5. Two-level A-DEF1 with a GenEO coarse space ("advanced").
    let tl = two_level(&decomp, &TwoLevelOpts::default());
    println!(
        "coarse space    : dim(E) = {} ({} vectors/subdomain avg)",
        tl.coarse().dim(),
        tl.coarse().dim() as f64 / decomp.n_subdomains() as f64
    );
    let two = try_gmres(
        &decomp.a_global,
        &tl,
        &SeqDot,
        &decomp.rhs_global,
        &x0,
        &gmres_opts,
        None,
    )
    .expect("a sequential solve is never interrupted");
    println!(
        "two-level ADEF1 : {:>4} iterations, converged = {}, residual = {:.2e}",
        two.iterations, two.converged, two.final_residual
    );

    assert!(two.converged, "two-level method must converge");
    println!(
        "\nspeedup in iterations: {:.1}×",
        one.iterations.max(1) as f64 / two.iterations.max(1) as f64
    );
}
