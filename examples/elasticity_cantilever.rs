//! Heterogeneous linear elasticity on a cantilever — the paper's
//! strong-scaling workload (Figure 6, 2D), scaled to laptop size.
//!
//! A 2D beam of alternating stiff/soft layers ((E, ν) = (2·10¹¹, 0.25) and
//! (10⁷, 0.45), contrast 2·10⁴) is clamped at `x = 0` and loaded by
//! gravity. One-level RAS stalls on such coefficient jumps; the GenEO
//! coarse space restores fast convergence (the Figure 7 comparison).
//!
//! ```sh
//! cargo run --release --example elasticity_cantilever
//! ```

use dd_geneo::core::{decompose, problem::presets, two_level, GeneoOpts, RasPrecond, TwoLevelOpts};
use dd_geneo::krylov::{try_gmres, GmresOpts, SeqDot};
use dd_geneo::mesh::Mesh;
use dd_geneo::part::partition_mesh_rcb;
use dd_geneo::solver::Ordering;

fn main() {
    // Beam 5 × 1, P2 elements (the paper uses P3 in 2D; P2 keeps the
    // example fast), 8 subdomains.
    let mesh = Mesh::rectangle(40, 8, 5.0, 1.0);
    let n_sub = 8;
    let part = partition_mesh_rcb(&mesh, n_sub);
    let problem = presets::heterogeneous_elasticity(2, 2);
    let decomp = decompose(&mesh, &problem, &part, n_sub, 1);
    println!(
        "cantilever: {} vector dofs on {} subdomains (P2 elasticity)",
        decomp.n_global, n_sub
    );

    // GMRES(40), as in the paper's Figure 7.
    let opts = GmresOpts {
        restart: 40,
        tol: 1e-6,
        max_iters: 600,
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
        "P_RAS     : {:>4} iterations (converged = {})",
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
        "P_A-DEF1  : {:>4} iterations (converged = {}), dim(E) = {}",
        two.iterations,
        two.converged,
        tl.coarse().dim()
    );
    assert!(two.converged);

    // Print a short convergence histogram (the Figure 7 curves).
    println!("\n#it    RAS           A-DEF1");
    let len = one.history.len().max(two.history.len());
    for k in (0..len).step_by(len.div_ceil(15).max(1)) {
        let a = one.history.get(k).copied();
        let b = two.history.get(k).copied();
        println!(
            "{:4}   {}   {}",
            k,
            a.map_or("    —     ".into(), |v| format!("{v:10.3e}")),
            b.map_or("    —     ".into(), |v| format!("{v:10.3e}")),
        );
    }

    // Tip deflection sanity: the beam bends downwards.
    let tip = two
        .x
        .chunks(2)
        .zip(0..decomp.n_global / 2)
        .map(|(uv, _)| uv[1])
        .fold(f64::INFINITY, f64::min);
    println!("\nmax downward displacement: {tip:.3e}");
    assert!(tip < 0.0);
}
