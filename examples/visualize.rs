//! Solve the heterogeneous model problem and export everything the paper
//! visualizes — the decomposition (Figure 2), the coefficient field
//! (Figure 9), and the solution — as a legacy VTK file for ParaView.
//!
//! ```sh
//! cargo run --release --example visualize
//! # then open /tmp/dd_geneo_solution.vtk in ParaView
//! ```

use dd_geneo::core::{decompose, problem::presets, two_level, TwoLevelOpts};
use dd_geneo::fem::{coeffs, DofMap};
use dd_geneo::krylov::{try_gmres, GmresOpts, SeqDot};
use dd_geneo::mesh::vtk::{write_vtk_file, VtkField};
use dd_geneo::mesh::Mesh;
use dd_geneo::part::partition_mesh_rcb;

fn main() {
    let mesh = Mesh::unit_square(48, 48);
    let n_sub = 16;
    let part = partition_mesh_rcb(&mesh, n_sub);
    let problem = presets::heterogeneous_diffusion(1);
    let decomp = decompose(&mesh, &problem, &part, n_sub, 1);
    let tl = two_level(&decomp, &TwoLevelOpts::default());
    let res = try_gmres(
        &decomp.a_global,
        &tl,
        &SeqDot,
        &decomp.rhs_global,
        &vec![0.0; decomp.n_global],
        &GmresOpts::default(),
        None,
    )
    .expect("a sequential solve is never interrupted");
    assert!(res.converged);
    println!(
        "solved: {} dofs, {} iterations, residual {:.2e}",
        decomp.n_global, res.iterations, res.final_residual
    );

    // Per-element data: subdomain id and κ at the centroid (Figure 9).
    let part_f: Vec<f64> = part.iter().map(|&p| p as f64).collect();
    let kappa: Vec<f64> = (0..mesh.n_elements())
        .map(|e| coeffs::diffusivity_channels(&mesh.element_centroid(e)).log10())
        .collect();

    // Per-vertex solution: vertex dofs have the key [(v, order)].
    let dm = DofMap::new(&mesh, problem.order);
    let u: Vec<f64> = (0..mesh.n_vertices())
        .map(|v| {
            let key = vec![(v as u32, problem.order as u8)];
            dm.dof_by_key(&key)
                .map(|d| res.x[d as usize])
                .unwrap_or(0.0)
        })
        .collect();

    let path = std::env::temp_dir().join("dd_geneo_solution.vtk");
    write_vtk_file(
        &path,
        &mesh,
        &[
            VtkField::PointScalars("u", &u),
            VtkField::CellScalars("subdomain", &part_f),
            VtkField::CellScalars("log10_kappa", &kappa),
        ],
    )
    .expect("VTK export failed");
    println!("wrote {}", path.display());
    // sanity: file exists and is non-trivial
    let meta = std::fs::metadata(&path).unwrap();
    assert!(meta.len() > 10_000, "suspiciously small VTK file");
}
