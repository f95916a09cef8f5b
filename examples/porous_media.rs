//! Flow through porous media — the paper's weak-scaling workload — run on
//! the full SPMD stack: one rank per subdomain, Algorithms 1–2 for the
//! coarse operator, distributed GMRES, virtual-time phase breakdown.
//!
//! ```sh
//! cargo run --release --example porous_media
//! ```

use dd_geneo::comm::World;
use dd_geneo::core::{decompose, problem::presets, try_run_spmd, GeneoOpts, SpmdOpts};
use dd_geneo::krylov::GmresOpts;
use dd_geneo::mesh::Mesh;
use dd_geneo::part::partition_mesh_rcb;
use std::sync::Arc;

fn main() {
    let n_sub = 8;
    let mesh = Mesh::unit_square(32, 32);
    let part = partition_mesh_rcb(&mesh, n_sub);
    // κ ∈ [1, 3·10⁶] with channels and inclusions (paper Figure 9).
    let problem = presets::heterogeneous_diffusion(2);
    let decomp = Arc::new(decompose(&mesh, &problem, &part, n_sub, 1));
    println!(
        "porous media: {} dofs (P2), {} ranks, κ contrast 3e6\n",
        decomp.n_global, n_sub
    );

    let opts = SpmdOpts {
        geneo: GeneoOpts {
            nev: 8,
            ..Default::default()
        },
        n_masters: 2,
        gmres: GmresOpts {
            tol: 1e-6,
            max_iters: 300,
            ..Default::default()
        },
        ..Default::default()
    };

    let d = Arc::clone(&decomp);
    let sols = World::run_default(n_sub, move |comm| {
        let s = try_run_spmd(&d, comm, &opts).expect("SPMD solve failed");
        (s.report, s.locals)
    });

    // Per-rank virtual-time breakdown (the Figure 8/10 columns).
    println!("rank  factor[s]  deflation[s]  coarse[s]  solution[s]  total[s]  |O_i|");
    for (r, _) in &sols {
        println!(
            "{:4}  {:9.4}  {:12.4}  {:9.4}  {:11.4}  {:8.4}  {:5}",
            r.rank,
            r.t_factorization,
            r.t_deflation,
            r.t_coarse,
            r.t_solution,
            r.t_total,
            r.n_neighbors
        );
    }
    let r0 = &sols[0].0;
    println!(
        "\niterations = {}, dim(E) = {}, converged = {}",
        r0.iterations, r0.dim_e, r0.converged
    );
    assert!(r0.converged);

    // Verify against the sequential reference solution.
    let locals: Vec<Vec<f64>> = sols
        .into_iter()
        .flat_map(|(_, locals)| locals)
        .map(|(_, x)| x)
        .collect();
    let x = decomp.from_locals(&locals);
    let mut ax = vec![0.0; decomp.n_global];
    decomp.a_global.spmv(&x, &mut ax);
    let num: f64 = ax
        .iter()
        .zip(&decomp.rhs_global)
        .map(|(a, b)| (a - b) * (a - b))
        .sum::<f64>()
        .sqrt();
    let den: f64 = decomp.rhs_global.iter().map(|b| b * b).sum::<f64>().sqrt();
    println!(
        "true relative residual of the SPMD solution: {:.2e}",
        num / den
    );
}
