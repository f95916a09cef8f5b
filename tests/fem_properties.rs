//! Property-style tests of the finite element layer: invariants that must
//! hold for every mesh, order, and coefficient field, exercised over
//! seeded deterministic sweeps (see `common::Rng`).

mod common;

use common::Rng;
use dd_geneo::fem::{assemble_diffusion, assemble_elasticity, assemble_mass, DofMap};
use dd_geneo::linalg::vector;
use dd_geneo::mesh::{refine::uniform_refine_n, Mesh};

/// The mass matrix integrates 1·1 over the domain: Σᵢⱼ Mᵢⱼ = |Ω|,
/// for any mesh size, aspect ratio, refinement level and order.
#[test]
fn mass_total_is_volume() {
    let mut rng = Rng::new(201);
    for _ in 0..24 {
        let nx = rng.range_usize(1, 5);
        let ny = rng.range_usize(1, 5);
        let lx = rng.range_f64(0.3, 4.0);
        let order = rng.range_usize(1, 5);
        let refines = rng.range_usize(0, 2);
        let mesh = uniform_refine_n(&Mesh::rectangle(nx, ny, lx, 1.0), refines);
        let dm = DofMap::new(&mesh, order);
        let m = assemble_mass(&mesh, &dm);
        let total: f64 = m.values().iter().sum();
        assert!((total - lx).abs() < 1e-9 * lx.max(1.0));
    }
}

/// Stiffness matrices annihilate constants regardless of the (positive)
/// coefficient field.
#[test]
fn stiffness_kernel_contains_constants() {
    let mut rng = Rng::new(202);
    for _ in 0..24 {
        let nx = rng.range_usize(2, 6);
        let order = rng.range_usize(1, 4);
        let k0 = rng.range_f64(0.1, 10.0);
        let k1 = rng.range_f64(0.1, 10.0);
        let mesh = Mesh::unit_square(nx, nx);
        let dm = DofMap::new(&mesh, order);
        let kappa = move |x: &[f64]| if x[0] < 0.5 { k0 } else { k1 };
        let (a, _) = assemble_diffusion(&mesh, &dm, &kappa, &|_| 0.0);
        let ones = vec![1.0; dm.n_dofs()];
        let mut y = vec![0.0; dm.n_dofs()];
        a.spmv(&ones, &mut y);
        assert!(vector::norm_inf(&y) < 1e-9 * a.norm_inf());
        // and the quadratic form is non-negative on arbitrary vectors
        let x: Vec<f64> = (0..dm.n_dofs())
            .map(|i| ((i * 31) % 17) as f64 - 8.0)
            .collect();
        a.spmv(&x, &mut y);
        assert!(vector::dot(&x, &y) >= -1e-9 * a.norm_inf() * vector::dot(&x, &x).max(1.0));
    }
}

/// Elasticity energies are non-negative and translations are exact
/// kernel vectors for any Lamé pair.
#[test]
fn elasticity_translations_in_kernel() {
    let mut rng = Rng::new(203);
    for _ in 0..24 {
        let nx = rng.range_usize(2, 5);
        let lam = rng.range_f64(0.1, 100.0);
        let mu = rng.range_f64(0.1, 100.0);
        let mesh = Mesh::unit_square(nx, nx);
        let dm = DofMap::new(&mesh, 1);
        let (a, _) = assemble_elasticity(&mesh, &dm, &move |_| (lam, mu), &|_, f| {
            f.copy_from_slice(&[0.0, 0.0])
        });
        let n = dm.n_dofs();
        for comp in 0..2 {
            let mut t = vec![0.0; 2 * n];
            for i in 0..n {
                t[2 * i + comp] = 1.0;
            }
            let mut y = vec![0.0; 2 * n];
            a.spmv(&t, &mut y);
            assert!(vector::norm_inf(&y) < 1e-9 * a.norm_inf());
        }
    }
}

/// Dof counts are consistent with mesh entities: P1 = #vertices and
/// refining multiplies element count by 4 while dofs grow accordingly.
#[test]
fn dof_counts_scale_with_refinement() {
    for nx in 1..4 {
        for order in 1..4 {
            let coarse = Mesh::unit_square(nx, nx);
            let fine = uniform_refine_n(&coarse, 1);
            let dc = DofMap::new(&coarse, order).n_dofs();
            let df = DofMap::new(&fine, order).n_dofs();
            // asymptotically ~4×; small boundary-dominated meshes grow less
            assert!(df > 2 * dc, "refinement barely grew the space: {dc} → {df}");
            if order == 1 {
                assert_eq!(dc, coarse.n_vertices());
                assert_eq!(df, fine.n_vertices());
            }
        }
    }
}

/// Deterministic cross-order check: higher order reproduces a lower-order
/// manufactured solution exactly (nested polynomial spaces).
#[test]
fn nested_spaces_reproduce_linears() {
    use dd_geneo::fem::apply_dirichlet;
    use dd_geneo::solver::{LdltBackend, LocalLdlt, Ordering};
    let mesh = Mesh::unit_square(3, 3);
    let exact = |x: &[f64]| 3.0 * x[0] - 2.0 * x[1] + 0.5;
    for order in 1..=4 {
        let dm = DofMap::new(&mesh, order);
        let (a, mut rhs) = assemble_diffusion(&mesh, &dm, &|_| 1.0, &|_| 0.0);
        let bnd = dm.boundary_dofs(&mesh);
        let g: Vec<f64> = (0..dm.n_dofs()).map(|i| exact(dm.dof_coord(i))).collect();
        let ac = apply_dirichlet(&a, &mut rhs, &bnd, Some(&g));
        let x = LocalLdlt::factor(&ac, Ordering::MinDegree, LdltBackend::Scalar)
            .unwrap()
            .solve(&rhs);
        for i in 0..dm.n_dofs() {
            assert!(
                (x[i] - g[i]).abs() < 1e-9,
                "P{order} dof {i}: {} vs {}",
                x[i],
                g[i]
            );
        }
    }
}
