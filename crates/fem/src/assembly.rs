//! Finite element assembly of the paper's two model problems:
//!
//! * heterogeneous diffusion  `a(u, v) = ∫ κ ∇u·∇v` (weak-scaling problem);
//! * heterogeneous linear elasticity
//!   `a(u, v) = ∫ λ (∇·u)(∇·v) + 2μ ε(u):ε(v)` (strong-scaling problem);
//!
//! plus mass matrices, load vectors, and symmetric Dirichlet elimination.
//! All elements are affine simplices, so Jacobians are constant per element
//! and only the coefficient varies across quadrature points.

use crate::basis::LagrangeBasis;
use crate::dofmap::DofMap;
use crate::quadrature::Quadrature;
use dd_linalg::{CooBuilder, CsrMatrix};
use dd_mesh::Mesh;

/// Geometry of an affine element: inverse-transpose Jacobian (row-major
/// `dim × dim`) and |det J|.
struct AffineGeom {
    inv_jt: [f64; 9],
    detj_abs: f64,
}

fn element_geometry(mesh: &Mesh, e: usize) -> AffineGeom {
    let dim = mesh.dim();
    let ev = mesh.element(e);
    let v0 = mesh.vertex(ev[0] as usize);
    let mut j = [0.0f64; 9]; // row-major dim×dim: J[r][c] = d x_r / d ξ_c
    for c in 0..dim {
        let vc = mesh.vertex(ev[c + 1] as usize);
        for r in 0..dim {
            j[r * dim + c] = vc[r] - v0[r];
        }
    }
    let (inv, det) = match dim {
        2 => {
            let det = j[0] * j[3] - j[1] * j[2];
            let inv = [
                j[3] / det,
                -j[1] / det,
                -j[2] / det,
                j[0] / det,
                0.0,
                0.0,
                0.0,
                0.0,
                0.0,
            ];
            (inv, det)
        }
        3 => {
            let m = &j;
            let c00 = m[4] * m[8] - m[5] * m[7];
            let c01 = m[5] * m[6] - m[3] * m[8];
            let c02 = m[3] * m[7] - m[4] * m[6];
            let det = m[0] * c00 + m[1] * c01 + m[2] * c02;
            let inv = [
                c00 / det,
                (m[2] * m[7] - m[1] * m[8]) / det,
                (m[1] * m[5] - m[2] * m[4]) / det,
                c01 / det,
                (m[0] * m[8] - m[2] * m[6]) / det,
                (m[2] * m[3] - m[0] * m[5]) / det,
                c02 / det,
                (m[1] * m[6] - m[0] * m[7]) / det,
                (m[0] * m[4] - m[1] * m[3]) / det,
            ];
            (inv, det)
        }
        _ => unreachable!(),
    };
    // inv is J⁻¹ (row-major); we need J⁻ᵀ applied to reference gradients:
    // grad_x = J⁻ᵀ grad_ξ, i.e. (J⁻ᵀ)[r][c] = inv[c][r].
    let mut inv_jt = [0.0f64; 9];
    for r in 0..dim {
        for c in 0..dim {
            inv_jt[r * dim + c] = inv[c * dim + r];
        }
    }
    AffineGeom {
        inv_jt,
        detj_abs: det.abs(),
    }
}

/// Per-element quadrature data: basis values, physical gradients and
/// physical coordinates at each quadrature point.
struct ElementData {
    /// `phi[q * nb + i]`
    phi: Vec<f64>,
    /// `grad[q * nb * dim + i * dim + d]` — physical gradients.
    grad: Vec<f64>,
    /// `xq[q * dim + d]` — physical quadrature points.
    xq: Vec<f64>,
    /// `w[q]` — physical weights (reference weight × |det J| × ref volume).
    w: Vec<f64>,
}

fn element_data(
    mesh: &Mesh,
    e: usize,
    basis: &LagrangeBasis,
    quad: &Quadrature,
    ref_phi: &[f64],
    ref_grad: &[f64],
) -> ElementData {
    let dim = mesh.dim();
    let nb = basis.n_basis();
    let nq = quad.n_points();
    let geom = element_geometry(mesh, e);
    let ref_vol = if dim == 2 { 0.5 } else { 1.0 / 6.0 };
    let ev = mesh.element(e);
    let mut xq = vec![0.0; nq * dim];
    let mut w = vec![0.0; nq];
    let mut grad = vec![0.0; nq * nb * dim];
    for q in 0..nq {
        let bary = quad.point(q);
        for (j, &bj) in bary.iter().enumerate() {
            let vj = mesh.vertex(ev[j] as usize);
            for d in 0..dim {
                xq[q * dim + d] += bj * vj[d];
            }
        }
        w[q] = quad.weights[q] * geom.detj_abs * ref_vol;
        for i in 0..nb {
            for r in 0..dim {
                let mut s = 0.0;
                for c in 0..dim {
                    s += geom.inv_jt[r * dim + c] * ref_grad[q * nb * dim + i * dim + c];
                }
                grad[q * nb * dim + i * dim + r] = s;
            }
        }
    }
    ElementData {
        phi: ref_phi.to_vec(),
        grad,
        xq,
        w,
    }
}

/// Precompute reference basis values/gradients at all quadrature points.
fn reference_tables(basis: &LagrangeBasis, quad: &Quadrature) -> (Vec<f64>, Vec<f64>) {
    let dim = basis.dim();
    let nb = basis.n_basis();
    let nq = quad.n_points();
    let mut phi = vec![0.0; nq * nb];
    let mut grad = vec![0.0; nq * nb * dim];
    for q in 0..nq {
        let bary = quad.point(q);
        // reference cartesian coordinates = barycentric 1..dim+1
        let x: Vec<f64> = (0..dim).map(|d| bary[d + 1]).collect();
        basis.eval(&x, &mut phi[q * nb..(q + 1) * nb]);
        basis.eval_grad(&x, &mut grad[q * nb * dim..(q + 1) * nb * dim]);
    }
    (phi, grad)
}

/// Assemble the stiffness matrix and load vector of the diffusion problem
/// `∫ κ ∇u·∇v = ∫ f v` (no boundary conditions applied — this is the
/// "Neumann"/unassembled operator of the paper; apply
/// [`apply_dirichlet`] afterwards for essential conditions).
pub fn assemble_diffusion(
    mesh: &Mesh,
    dm: &DofMap,
    kappa: &dyn Fn(&[f64]) -> f64,
    f: &dyn Fn(&[f64]) -> f64,
) -> (CsrMatrix, Vec<f64>) {
    let dim = mesh.dim();
    let basis = LagrangeBasis::new(dim, dm.order());
    let quad = Quadrature::for_degree(dim, (2 * dm.order()).min(if dim == 2 { 8 } else { 4 }));
    let (ref_phi, ref_grad) = reference_tables(&basis, &quad);
    let nb = basis.n_basis();
    let n = dm.n_dofs();
    let mut coo = CooBuilder::with_capacity(n, n, mesh.n_elements() * nb * nb);
    let mut rhs = vec![0.0; n];
    for e in 0..mesh.n_elements() {
        let data = element_data(mesh, e, &basis, &quad, &ref_phi, &ref_grad);
        let dofs = dm.elem_dofs(e);
        let mut ke = vec![0.0f64; nb * nb];
        let mut fe = vec![0.0f64; nb];
        for q in 0..quad.n_points() {
            let x = &data.xq[q * dim..(q + 1) * dim];
            let kq = kappa(x) * data.w[q];
            let fq = f(x) * data.w[q];
            let g = &data.grad[q * nb * dim..(q + 1) * nb * dim];
            let p = &data.phi[q * nb..(q + 1) * nb];
            for i in 0..nb {
                fe[i] += fq * p[i];
                for j in 0..=i {
                    let mut dot = 0.0;
                    for d in 0..dim {
                        dot += g[i * dim + d] * g[j * dim + d];
                    }
                    ke[i * nb + j] += kq * dot;
                }
            }
        }
        for i in 0..nb {
            let gi = dofs[i] as usize;
            rhs[gi] += fe[i];
            for j in 0..=i {
                let gj = dofs[j] as usize;
                let v = ke[i * nb + j];
                coo.push(gi, gj, v);
                if i != j {
                    coo.push(gj, gi, v);
                }
            }
        }
    }
    (coo.to_csr(), rhs)
}

/// Assemble the mass matrix `∫ u v` of the scalar `P_k` space.
pub fn assemble_mass(mesh: &Mesh, dm: &DofMap) -> CsrMatrix {
    let dim = mesh.dim();
    let basis = LagrangeBasis::new(dim, dm.order());
    let quad = Quadrature::for_degree(dim, (2 * dm.order()).min(if dim == 2 { 8 } else { 4 }));
    let (ref_phi, ref_grad) = reference_tables(&basis, &quad);
    let nb = basis.n_basis();
    let n = dm.n_dofs();
    let mut coo = CooBuilder::with_capacity(n, n, mesh.n_elements() * nb * nb);
    for e in 0..mesh.n_elements() {
        let data = element_data(mesh, e, &basis, &quad, &ref_phi, &ref_grad);
        let dofs = dm.elem_dofs(e);
        for q in 0..quad.n_points() {
            let p = &data.phi[q * nb..(q + 1) * nb];
            let wq = data.w[q];
            for i in 0..nb {
                for j in 0..nb {
                    coo.push(dofs[i] as usize, dofs[j] as usize, wq * p[i] * p[j]);
                }
            }
        }
    }
    coo.to_csr()
}

/// Assemble the linear elasticity operator
/// `∫ λ (∇·u)(∇·v) + 2μ ε(u):ε(v)` and the body-force load `∫ f·v`.
///
/// Vector dofs are interleaved: component `c` of scalar dof `i` is
/// `i * dim + c`. `lame` returns `(λ, μ)` at a physical point; `body`
/// writes the body force into its output slice.
pub fn assemble_elasticity(
    mesh: &Mesh,
    dm: &DofMap,
    lame: &dyn Fn(&[f64]) -> (f64, f64),
    body: &dyn Fn(&[f64], &mut [f64]),
) -> (CsrMatrix, Vec<f64>) {
    let dim = mesh.dim();
    let basis = LagrangeBasis::new(dim, dm.order());
    let quad = Quadrature::for_degree(dim, (2 * dm.order()).min(if dim == 2 { 8 } else { 4 }));
    let (ref_phi, ref_grad) = reference_tables(&basis, &quad);
    let nb = basis.n_basis();
    let n = dm.n_dofs() * dim;
    let mut coo = CooBuilder::with_capacity(n, n, mesh.n_elements() * nb * nb * dim * dim);
    let mut rhs = vec![0.0; n];
    let mut fq_buf = vec![0.0; dim];
    for e in 0..mesh.n_elements() {
        let data = element_data(mesh, e, &basis, &quad, &ref_phi, &ref_grad);
        let dofs = dm.elem_dofs(e);
        let nloc = nb * dim;
        let mut ke = vec![0.0f64; nloc * nloc];
        let mut fe = vec![0.0f64; nloc];
        for q in 0..quad.n_points() {
            let x = &data.xq[q * dim..(q + 1) * dim];
            let (lam, mu) = lame(x);
            let wq = data.w[q];
            body(x, &mut fq_buf);
            let g = &data.grad[q * nb * dim..(q + 1) * nb * dim];
            let p = &data.phi[q * nb..(q + 1) * nb];
            for i in 0..nb {
                for c in 0..dim {
                    fe[i * dim + c] += wq * fq_buf[c] * p[i];
                }
                for j in 0..nb {
                    // gradient dot product, shared by all component pairs
                    let mut gdot = 0.0;
                    for d in 0..dim {
                        gdot += g[i * dim + d] * g[j * dim + d];
                    }
                    for a in 0..dim {
                        for b in 0..dim {
                            // λ ∂_a φ_i ∂_b φ_j + μ δ_ab ∇φ_i·∇φ_j
                            //                   + μ ∂_b φ_i ∂_a φ_j
                            let mut v = lam * g[i * dim + a] * g[j * dim + b]
                                + mu * g[i * dim + b] * g[j * dim + a];
                            if a == b {
                                v += mu * gdot;
                            }
                            ke[(i * dim + a) * nloc + j * dim + b] += wq * v;
                        }
                    }
                }
            }
        }
        for i in 0..nloc {
            let gi = dofs[i / dim] as usize * dim + i % dim;
            rhs[gi] += fe[i];
            for j in 0..nloc {
                let gj = dofs[j / dim] as usize * dim + j % dim;
                coo.push(gi, gj, ke[i * nloc + j]);
            }
        }
    }
    (coo.to_csr(), rhs)
}

/// Symmetric elimination of Dirichlet dofs: rows and columns of constrained
/// dofs are replaced by the identity, and `rhs` is updated so the solution
/// takes the prescribed `values` (zero if `None`) at constrained dofs.
/// Returns the constrained matrix.
pub fn apply_dirichlet(
    a: &CsrMatrix,
    rhs: &mut [f64],
    constrained: &[bool],
    values: Option<&[f64]>,
) -> CsrMatrix {
    let n = a.rows();
    assert_eq!(a.cols(), n);
    assert_eq!(rhs.len(), n);
    assert_eq!(constrained.len(), n);
    let g = |i: usize| values.map_or(0.0, |v| v[i]);
    // rhs ← rhs − A(:, constrained) g  on free rows; rhs = g on constrained.
    for i in 0..n {
        if constrained[i] {
            continue;
        }
        for (j, v) in a.row(i) {
            if constrained[j] {
                rhs[i] -= v * g(j);
            }
        }
    }
    let mut coo = CooBuilder::with_capacity(n, n, a.nnz());
    for i in 0..n {
        if constrained[i] {
            coo.push(i, i, 1.0);
            rhs[i] = g(i);
            continue;
        }
        for (j, v) in a.row(i) {
            if !constrained[j] {
                coo.push(i, j, v);
            }
        }
    }
    coo.to_csr()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dd_linalg::vector;
    use dd_solver::{LdltBackend, LocalLdlt, Ordering};

    fn ones(_: &[f64]) -> f64 {
        1.0
    }

    #[test]
    fn mass_matrix_sums_to_volume() {
        for (mesh, vol) in [
            (Mesh::unit_square(3, 3), 1.0),
            (Mesh::rectangle(4, 2, 2.0, 1.0), 2.0),
        ] {
            for order in 1..=3 {
                let dm = DofMap::new(&mesh, order);
                let m = assemble_mass(&mesh, &dm);
                let total: f64 = m.values().iter().sum();
                assert!(
                    (total - vol).abs() < 1e-10,
                    "P{order}: mass total {total} ≠ {vol}"
                );
            }
        }
        let mesh = Mesh::unit_cube(2, 2, 2);
        for order in 1..=2 {
            let dm = DofMap::new(&mesh, order);
            let m = assemble_mass(&mesh, &dm);
            let total: f64 = m.values().iter().sum();
            assert!((total - 1.0).abs() < 1e-10, "3D P{order}: {total}");
        }
    }

    #[test]
    fn stiffness_annihilates_constants() {
        for (mesh, orders) in [
            (Mesh::unit_square(3, 2), vec![1usize, 2, 3, 4]),
            (Mesh::unit_cube(2, 1, 1), vec![1usize, 2]),
        ] {
            for order in orders {
                let dm = DofMap::new(&mesh, order);
                let (a, _) = assemble_diffusion(&mesh, &dm, &ones, &ones);
                let ones_vec = vec![1.0; dm.n_dofs()];
                let mut y = vec![0.0; dm.n_dofs()];
                a.spmv(&ones_vec, &mut y);
                assert!(
                    vector::norm_inf(&y) < 1e-9 * a.norm_inf(),
                    "P{order} dim {}: constants not in kernel",
                    mesh.dim()
                );
                assert!(a.symmetry_defect() < 1e-10 * a.norm_inf());
            }
        }
    }

    /// Manufactured-solution patch test: with κ = 1 and an exact polynomial
    /// solution of degree ≤ k, the FEM solution is exact.
    #[test]
    fn patch_test_linear_exact() {
        let mesh = Mesh::unit_square(3, 3);
        for order in 1..=3 {
            let dm = DofMap::new(&mesh, order);
            let exact = |x: &[f64]| 2.0 * x[0] - 3.0 * x[1] + 1.0;
            let (a, mut rhs) = assemble_diffusion(&mesh, &dm, &ones, &|_| 0.0);
            let bnd = dm.boundary_dofs(&mesh);
            let gvals: Vec<f64> = (0..dm.n_dofs()).map(|i| exact(dm.dof_coord(i))).collect();
            let ac = apply_dirichlet(&a, &mut rhs, &bnd, Some(&gvals));
            let f = LocalLdlt::factor(&ac, Ordering::MinDegree, LdltBackend::Scalar).unwrap();
            let u = f.solve(&rhs);
            for i in 0..dm.n_dofs() {
                assert!(
                    (u[i] - gvals[i]).abs() < 1e-9,
                    "P{order}: dof {i}: {} vs {}",
                    u[i],
                    gvals[i]
                );
            }
        }
    }

    #[test]
    fn patch_test_quadratic_exact_p2() {
        let mesh = Mesh::unit_square(2, 3);
        let dm = DofMap::new(&mesh, 2);
        // u = x² + xy − y², Δu = 2 + 0 − 2 = 0 → f = 0.
        let exact = |x: &[f64]| x[0] * x[0] + x[0] * x[1] - x[1] * x[1];
        let (a, mut rhs) = assemble_diffusion(&mesh, &dm, &ones, &|_| 0.0);
        let bnd = dm.boundary_dofs(&mesh);
        let gvals: Vec<f64> = (0..dm.n_dofs()).map(|i| exact(dm.dof_coord(i))).collect();
        let ac = apply_dirichlet(&a, &mut rhs, &bnd, Some(&gvals));
        let f = LocalLdlt::factor(&ac, Ordering::MinDegree, LdltBackend::Scalar).unwrap();
        let u = f.solve(&rhs);
        for i in 0..dm.n_dofs() {
            assert!((u[i] - gvals[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn poisson_converges_with_refinement() {
        // −Δu = 2π² sin(πx) sin(πy), u = sin(πx) sin(πy), zero Dirichlet.
        let solve = |n: usize| -> f64 {
            let mesh = Mesh::unit_square(n, n);
            let dm = DofMap::new(&mesh, 1);
            let pi = std::f64::consts::PI;
            let (a, mut rhs) = assemble_diffusion(&mesh, &dm, &ones, &|x| {
                2.0 * pi * pi * (pi * x[0]).sin() * (pi * x[1]).sin()
            });
            let bnd = dm.boundary_dofs(&mesh);
            let ac = apply_dirichlet(&a, &mut rhs, &bnd, None);
            let f = LocalLdlt::factor(&ac, Ordering::MinDegree, LdltBackend::Scalar).unwrap();
            let u = f.solve(&rhs);
            let mut err = 0.0f64;
            for i in 0..dm.n_dofs() {
                let x = dm.dof_coord(i);
                let ex = (pi * x[0]).sin() * (pi * x[1]).sin();
                err = err.max((u[i] - ex).abs());
            }
            err
        };
        let e1 = solve(8);
        let e2 = solve(16);
        assert!(e2 < e1 / 2.5, "no convergence: {e1} → {e2}");
    }

    #[test]
    fn elasticity_rigid_body_modes_in_kernel() {
        let mesh = Mesh::unit_square(4, 2);
        let dm = DofMap::new(&mesh, 2);
        let (a, _) = assemble_elasticity(&mesh, &dm, &|_| (1.0e5, 4.0e4), &|_, f| {
            f.copy_from_slice(&[0.0, 0.0])
        });
        let n = dm.n_dofs();
        // translations (1,0), (0,1) and rotation (−y, x)
        let mut modes: Vec<Vec<f64>> = vec![vec![0.0; 2 * n]; 3];
        for i in 0..n {
            let x = dm.dof_coord(i);
            modes[0][2 * i] = 1.0;
            modes[1][2 * i + 1] = 1.0;
            modes[2][2 * i] = -x[1];
            modes[2][2 * i + 1] = x[0];
        }
        for (k, m) in modes.iter().enumerate() {
            let mut y = vec![0.0; 2 * n];
            a.spmv(m, &mut y);
            assert!(
                vector::norm_inf(&y) < 1e-8 * a.norm_inf() * vector::norm_inf(m),
                "rigid mode {k} not annihilated: {}",
                vector::norm_inf(&y)
            );
        }
    }

    #[test]
    fn cantilever_bends_down() {
        // Clamp x = 0, gravity body force: tip must deflect downwards.
        let mesh = Mesh::rectangle(10, 2, 5.0, 1.0);
        let dm = DofMap::new(&mesh, 1);
        let (a, mut rhs) = assemble_elasticity(&mesh, &dm, &|_| (1.0e6, 5.0e5), &|_, f| {
            f.copy_from_slice(&[0.0, -1.0e3])
        });
        let clamped_scalar = dm.dofs_where(|x| x[0] < 1e-12);
        let mut constrained = vec![false; 2 * dm.n_dofs()];
        for i in 0..dm.n_dofs() {
            if clamped_scalar[i] {
                constrained[2 * i] = true;
                constrained[2 * i + 1] = true;
            }
        }
        let ac = apply_dirichlet(&a, &mut rhs, &constrained, None);
        let f = LocalLdlt::factor(&ac, Ordering::MinDegree, LdltBackend::Scalar).unwrap();
        let u = f.solve(&rhs);
        // tip vertical displacement (any dof near x = 5)
        let mut tip_uy: f64 = 0.0;
        for i in 0..dm.n_dofs() {
            if dm.dof_coord(i)[0] > 5.0 - 1e-9 {
                tip_uy = tip_uy.min(u[2 * i + 1]);
            }
        }
        assert!(tip_uy < 0.0, "tip did not deflect downwards: {tip_uy}");
        // clamped dofs stay put
        for i in 0..dm.n_dofs() {
            if clamped_scalar[i] {
                assert_eq!(u[2 * i], 0.0);
                assert_eq!(u[2 * i + 1], 0.0);
            }
        }
    }

    #[test]
    fn dirichlet_preserves_symmetry() {
        let mesh = Mesh::unit_square(3, 3);
        let dm = DofMap::new(&mesh, 2);
        let (a, mut rhs) = assemble_diffusion(&mesh, &dm, &ones, &ones);
        let bnd = dm.boundary_dofs(&mesh);
        let ac = apply_dirichlet(&a, &mut rhs, &bnd, None);
        assert!(ac.symmetry_defect() < 1e-12 * ac.norm_inf());
        // SPD after constraining
        let f = LocalLdlt::factor(&ac, Ordering::MinDegree, LdltBackend::Scalar).unwrap();
        assert_eq!(f.inertia(), (0, 0, ac.rows()));
    }
}
