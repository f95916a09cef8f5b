//! GenEO deflation vectors (eq. 9 of the paper; theory in Spillane et al.).
//!
//! Per subdomain, solve the generalized eigenproblem
//!
//! ```text
//! A_i^δ Λ = λ · (P_i D_i) A_i^δ (P_i D_i) Λ
//! ```
//!
//! where `A_i^δ` is the local Neumann matrix and `P_i` the indicator of the
//! overlap (`R_{i,0}ᵀ R_{i,0}` in the paper's notation). The right-hand
//! side matrix is the partition-of-unity-weighted restriction of the
//! Neumann operator to the overlap — symmetric positive semidefinite. The
//! eigenvectors with the smallest eigenvalues capture exactly the modes
//! (rigid-body motions of floating subdomains, high-contrast channels
//! crossing the interface) that defeat one-level methods; deflating them
//! makes the condition number independent of `N` and of the coefficient
//! contrast.
//!
//! The deflation block is `W_i = D_i Λ_i` (eq. 8).

use crate::decomp::Subdomain;
use dd_eigen::{smallest_generalized, EigenError, LanczosOpts};
use dd_linalg::{CsrMatrix, DMat};
use dd_solver::{ordering, LdltBackend, Ordering};

/// Options controlling the deflation-space construction.
#[derive(Clone, Debug)]
pub struct GeneoOpts {
    /// Number of eigenvectors requested per subdomain (the paper uses a
    /// uniform ν after `MPI_Allreduce(ν_i, MPI_MAX)`; typically ν ≤ 30).
    pub nev: usize,
    /// Optional spectral threshold: keep only eigenvalues `λ < threshold`
    /// among the `nev` computed ("a threshold criterion is used to select
    /// the ν_i eigenvectors").
    pub threshold: Option<f64>,
    /// Inner Lanczos options.
    pub lanczos: LanczosOpts,
}

impl Default for GeneoOpts {
    fn default() -> Self {
        GeneoOpts {
            nev: 10,
            threshold: None,
            lanczos: LanczosOpts::default(),
        }
    }
}

/// Result of the local eigensolve.
pub struct DeflationBlock {
    /// `W_i = D_i Λ_i` for **all** computed finite eigenpairs (so a later
    /// uniformization to `ν = max_i ν_i` can draw real eigenvectors rather
    /// than zero columns, which would make `E` singular).
    pub w: DMat,
    /// All computed eigenvalues (ascending), matching `w`'s columns.
    pub values: Vec<f64>,
    /// How many leading columns pass the threshold criterion (the ν_i the
    /// subdomain would choose on its own).
    pub kept: usize,
}

/// The overlap-weighted right-hand-side matrix `B_i = (P D) A^δ (P D)`.
///
/// `P D` is diagonal, so `B` has the entries of `A^δ` scaled by
/// `pd_k · pd_l`; rows/columns outside the overlap (or on globally
/// constrained dofs) vanish and are not stored — the eigensolver multiplies
/// by `B` twice per step.
pub fn overlap_weighted_matrix(sub: &Subdomain) -> CsrMatrix {
    let n = sub.n_local();
    let pd: Vec<f64> = (0..n)
        .map(|k| {
            if sub.overlap[k] && !sub.dirichlet[k] {
                sub.d[k]
            } else {
                0.0
            }
        })
        .collect();
    let mut row_ptr = Vec::with_capacity(n + 1);
    let mut col_idx = Vec::new();
    let mut values = Vec::new();
    row_ptr.push(0);
    for i in 0..n {
        if pd[i] != 0.0 {
            for (j, v) in sub.a_neumann.row(i) {
                if pd[j] != 0.0 {
                    col_idx.push(j as u32);
                    values.push(v * (pd[i] * pd[j]));
                }
            }
        }
        row_ptr.push(col_idx.len());
    }
    CsrMatrix::from_raw(n, n, row_ptr, col_idx, values)
}

/// Compute the deflation block of one subdomain, panicking on eigensolver
/// failure. See [`try_deflation_block`] for the fallible variant.
pub fn deflation_block(sub: &Subdomain, opts: &GeneoOpts) -> DeflationBlock {
    try_deflation_block(sub, opts).expect("GenEO eigensolve failed")
}

/// Compute the deflation block of one subdomain on its own: orders the
/// subdomain and factors the shifted pencil the way a default
/// [`crate::SpmdOpts`] set-up does (minimum degree, supernodal LDLᵀ). The
/// set-up paths, which have already ordered the subdomain for its Dirichlet
/// factorization, call [`try_deflation_block_ordered`] instead.
pub fn try_deflation_block(
    sub: &Subdomain,
    opts: &GeneoOpts,
) -> Result<DeflationBlock, EigenError> {
    let order = ordering::fill_reducing(&sub.a_dirichlet, Ordering::MinDegree);
    try_deflation_block_ordered(sub, opts, &order, LdltBackend::Supernodal)
}

/// Compute the deflation block of one subdomain, factoring the shifted
/// pencil under `order` — the elimination order the caller computed for
/// `sub.a_dirichlet`, whose pattern the Neumann pencil shares — with the
/// given LDLᵀ backend.
///
/// Returns an empty block (ν = 0) when the subdomain has no overlap (e.g.
/// `N = 1`) — there is nothing to deflate. An eigensolve that fails, or
/// that reaches its subspace cap with unconverged pairs
/// ([`EigenError::NotConverged`]), is an error: the set-up paths answer it
/// with [`nicolaides_fallback_block`] and report the phase as degraded.
pub fn try_deflation_block_ordered(
    sub: &Subdomain,
    opts: &GeneoOpts,
    order: &[usize],
    backend: LdltBackend,
) -> Result<DeflationBlock, EigenError> {
    let n = sub.n_local();
    if !sub.overlap.iter().any(|&o| o) || opts.nev == 0 {
        return Ok(DeflationBlock {
            w: DMat::zeros(n, 0),
            values: Vec::new(),
            kept: 0,
        });
    }
    let b = overlap_weighted_matrix(sub);
    let eig = smallest_generalized(&sub.a_neumann, &b, opts.nev, &opts.lanczos, order, backend)?;
    // Keep every eigenpair; record how many pass the threshold.
    let kept = eig
        .values
        .iter()
        .take_while(|&&l| opts.threshold.is_none_or(|t| l < t))
        .count();
    let mut w = DMat::zeros(n, eig.values.len());
    for c in 0..w.cols() {
        let src = eig.vectors.col(c);
        let dst = w.col_mut(c);
        for k in 0..n {
            // W = D Λ, with constrained dofs explicitly zeroed so the
            // coarse space never injects into Dirichlet rows.
            dst[k] = if sub.dirichlet[k] {
                0.0
            } else {
                sub.d[k] * src[k]
            };
        }
        // Normalize each column: Lanczos returns B-orthonormal vectors
        // whose 2-norms vary over many orders of magnitude under high
        // coefficient contrast (components in ker B are unconstrained).
        // Column scaling of Z leaves the deflation subspace unchanged but
        // keeps the coarse operator E well-conditioned for the
        // no-pivoting LDLᵀ factorization.
        let nrm = dd_linalg::vector::norm2(dst);
        if nrm > 0.0 {
            dd_linalg::vector::scal(1.0 / nrm, dst);
        }
    }
    Ok(DeflationBlock {
        w,
        values: eig.values,
        kept,
    })
}

/// The [`nicolaides_block`] packaged as a [`DeflationBlock`]: the
/// per-subdomain fallback coarse space when the GenEO eigensolve fails.
/// The number of solution components is derived from the subdomain's dof
/// and coordinate counts.
pub fn nicolaides_fallback_block(sub: &Subdomain) -> DeflationBlock {
    let n_scalar = (sub.coords.len() / sub.dim.max(1)).max(1);
    let components = (sub.n_local() / n_scalar).max(1);
    let w = nicolaides_block(sub, components);
    let kept = w.cols();
    DeflationBlock {
        w,
        values: vec![0.0; kept],
        kept,
    }
}

/// Take the first `nu` columns of a deflation block (capped at the number
/// of computed eigenvectors). Used after the global `Allreduce(MAX)`
/// uniformization: every subdomain contributes (up to) the same ν, drawing
/// real eigenvectors beyond its own threshold rather than zero columns.
pub fn resize_block(block: &DeflationBlock, nu: usize) -> DMat {
    let take = nu.min(block.w.cols());
    let n = block.w.rows();
    let mut w = DMat::zeros(n, take);
    for c in 0..take {
        w.col_mut(c).copy_from_slice(block.w.col(c));
    }
    w
}

/// The Nicolaides coarse space: per subdomain, the partition-of-unity
/// weighted *kernel modes* of the operator — the classical alternative to
/// GenEO, oblivious to coefficient heterogeneity. For scalar problems this
/// is the single vector `D_i·1`; for elasticity the `D_i`-weighted rigid
/// body modes (2 translations + 1 rotation in 2D; 3 + 3 in 3D).
///
/// Exists here as the paper's "abstract deflation vectors" escape hatch
/// (§3: the framework "is not directly linked to domain decomposition
/// methods, meaning that it is possible to use it to assemble coarse
/// operators with other abstract deflation vectors") and as the ablation
/// baseline GenEO is measured against.
pub fn nicolaides_block(sub: &Subdomain, components: usize) -> DMat {
    let n = sub.n_local();
    let dim = sub.dim;
    let n_modes = match (components, dim) {
        (1, _) => 1,
        (2, 2) => 3,
        (3, 3) => 6,
        _ => panic!("unsupported components/dim combination"),
    };
    let mut w = DMat::zeros(n, n_modes);
    let n_scalar = n / components;
    for s in 0..n_scalar {
        let x = &sub.coords[s * dim..(s + 1) * dim];
        for c in 0..components {
            let k = s * components + c;
            if sub.dirichlet[k] {
                continue;
            }
            let d = sub.d[k];
            if components == 1 {
                w.col_mut(0)[k] = d;
            } else {
                // translations
                w.col_mut(c)[k] = d;
                if dim == 2 {
                    // rotation (−y, x)
                    let r = if c == 0 { -x[1] } else { x[0] };
                    w.col_mut(2)[k] = d * r;
                } else {
                    // rotations about z, y, x: (−y,x,0), (z,0,−x), (0,−z,y)
                    let rots = [[-x[1], x[0], 0.0], [x[2], 0.0, -x[0]], [0.0, -x[2], x[1]]];
                    for (m, rot) in rots.iter().enumerate() {
                        w.col_mut(3 + m)[k] = d * rot[c];
                    }
                }
            }
        }
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomp::decompose;
    use crate::problem::presets;
    use dd_mesh::Mesh;
    use dd_part::partition_mesh_rcb;

    fn setup(nparts: usize) -> crate::decomp::Decomposition {
        let mesh = Mesh::unit_square(10, 10);
        let part = partition_mesh_rcb(&mesh, nparts);
        let p = presets::uniform_diffusion(1);
        decompose(&mesh, &p, &part, nparts, 1)
    }

    #[test]
    fn weighted_matrix_supported_on_overlap() {
        let d = setup(4);
        for s in &d.subdomains {
            let b = overlap_weighted_matrix(s);
            for i in 0..s.n_local() {
                for (j, v) in b.row(i) {
                    if v != 0.0 {
                        assert!(s.overlap[i] && s.overlap[j]);
                    }
                }
            }
            assert!(b.symmetry_defect() < 1e-10 * b.norm_inf().max(1e-300));
        }
    }

    #[test]
    fn deflation_block_shapes_and_pencil_residuals() {
        let d = setup(4);
        let opts = GeneoOpts {
            nev: 4,
            ..Default::default()
        };
        for s in &d.subdomains {
            let blk = deflation_block(s, &opts);
            assert!(blk.w.cols() >= 1, "no deflation vectors found");
            assert!(blk.w.cols() <= 4);
            assert_eq!(blk.w.rows(), s.n_local());
            // eigenvalues ascending, non-negative up to roundoff
            for w in blk.values.windows(2) {
                assert!(w[0] <= w[1] + 1e-12);
            }
            assert!(blk.values[0] > -1e-8);
        }
    }

    #[test]
    fn interior_subdomain_smallest_mode_is_flat() {
        // For uniform diffusion, the smallest GenEO mode of a floating
        // subdomain is the constant — so W's first column ≈ D_i · const.
        let mesh = Mesh::unit_square(12, 12);
        let part = partition_mesh_rcb(&mesh, 16);
        let p = presets::uniform_diffusion(1);
        let d = decompose(&mesh, &p, &part, 16, 1);
        let opts = GeneoOpts {
            nev: 3,
            ..Default::default()
        };
        // find a floating subdomain (no Dirichlet dof)
        let s = d
            .subdomains
            .iter()
            .find(|s| s.dirichlet.iter().all(|&b| !b))
            .expect("no floating subdomain in 16-way split");
        let blk = deflation_block(s, &opts);
        // smallest eigenvalue ≈ 0 (constants in the kernel of A^Neu)
        assert!(
            blk.values[0].abs() < 1e-6,
            "floating subdomain λ₀ = {}",
            blk.values[0]
        );
        // W[:,0] proportional to D (constant Λ scaled by PoU)
        let w0 = blk.w.col(0);
        let mut ratio = None;
        let mut proportional = true;
        for k in 0..s.n_local() {
            if s.d[k] > 1e-8 {
                let r = w0[k] / s.d[k];
                match ratio {
                    None => ratio = Some(r),
                    Some(r0) => {
                        if (r - r0).abs() > 1e-5 * r0.abs().max(1e-10) {
                            proportional = false;
                        }
                    }
                }
            }
        }
        assert!(proportional, "first mode is not the PoU-weighted constant");
    }

    /// Dense oracle for the `nev` smallest pairs of a subdomain's GenEO
    /// pencil: `B x = θ K x` with `K = A − σB` SPD is a definite problem the
    /// Jacobi solver takes, and `λ = σ + 1/θ`. Returns `(λ, x)` ascending in
    /// `λ` together with the `(nev+1)`-th `λ`.
    fn dense_pencil(sub: &Subdomain, nev: usize) -> (Vec<(f64, Vec<f64>)>, f64) {
        let b = overlap_weighted_matrix(sub);
        let sigma = -0.01 * sub.a_neumann.norm_inf() / b.norm_inf();
        let k = sub.a_neumann.add_scaled(-sigma, &b);
        let eig = dd_linalg::jacobi::sym_eig_generalized(&b.to_dense(), &k.to_dense(), 1e-15)
            .expect("shifted pencil is SPD");
        let n = eig.eigenvalues.len();
        let lambda = |i: usize| sigma + 1.0 / eig.eigenvalues[n - 1 - i];
        let pairs = (0..nev)
            .map(|i| (lambda(i), eig.eigenvectors.col(n - 1 - i).to_vec()))
            .collect();
        (pairs, lambda(nev))
    }

    /// Sine of the largest principal angle between the column spans of `x`
    /// and `y` (Frobenius bound, Euclidean inner product).
    fn span_distance(x: &[Vec<f64>], y: &[Vec<f64>]) -> f64 {
        use dd_linalg::vector;
        let orthonormalize = |v: &[Vec<f64>]| {
            let mut q: Vec<Vec<f64>> = Vec::new();
            for c in v {
                let mut w = c.clone();
                for _ in 0..2 {
                    for qi in &q {
                        let d = vector::dot(&w, qi);
                        vector::axpy(-d, qi, &mut w);
                    }
                }
                let nrm = vector::norm2(&w);
                vector::scal(1.0 / nrm, &mut w);
                q.push(w);
            }
            q
        };
        let (qx, qy) = (orthonormalize(x), orthonormalize(y));
        let mut outside = 0.0;
        for c in &qy {
            let mut w = c.clone();
            for qi in &qx {
                let d = vector::dot(c, qi);
                vector::axpy(-d, qi, &mut w);
            }
            outside += vector::dot(&w, &w);
        }
        outside.sqrt()
    }

    /// The early-stopped eigensolve against the dense oracle: eigenvalues to
    /// 1e-8 of `λ − σ`, deflation span `D Λ` to a principal angle of 1e-6,
    /// for several start vectors.
    fn assert_matches_dense(sub: &Subdomain, nev: usize, what: &str) {
        let (dense, next) = dense_pencil(sub, nev);
        let gap = (next - dense[nev - 1].0) / next.abs();
        assert!(
            gap > 1e-3,
            "{what}: λ_{nev} is not separated from λ_{}",
            nev + 1
        );
        let weighted =
            |x: &[f64]| -> Vec<f64> { x.iter().zip(&sub.d).map(|(xi, di)| xi * di).collect() };
        let dense_span: Vec<Vec<f64>> = dense.iter().map(|(_, x)| weighted(x)).collect();
        let b = overlap_weighted_matrix(sub);
        let sigma = -0.01 * sub.a_neumann.norm_inf() / b.norm_inf();
        let order = ordering::fill_reducing(&sub.a_dirichlet, Ordering::MinDegree);
        for seed in 1..=4 {
            let lanczos = LanczosOpts {
                seed,
                ..Default::default()
            };
            let eig = smallest_generalized(
                &sub.a_neumann,
                &b,
                nev,
                &lanczos,
                &order,
                LdltBackend::Supernodal,
            )
            .unwrap();
            assert_eq!(eig.values.len(), nev, "{what} seed {seed}");
            assert!(eig.steps < 2 * lanczos.max_subspace, "{what} seed {seed}");
            for (k, (want, _)) in dense.iter().enumerate() {
                assert!(
                    (eig.values[k] - want).abs() <= 1e-8 * (want - sigma),
                    "{what} seed {seed}: λ_{k} = {:e}, dense {want:e}",
                    eig.values[k]
                );
            }
            let span: Vec<Vec<f64>> = (0..nev).map(|k| weighted(eig.vectors.col(k))).collect();
            let angle = span_distance(&dense_span, &span);
            assert!(
                angle <= 1e-6,
                "{what} seed {seed}: principal angle {angle:e}"
            );
        }
    }

    #[test]
    fn floating_elasticity_subdomain_matches_dense_oracle() {
        // A floating 3D P2 elasticity subdomain: the six rigid-body modes
        // are a six-fold zero eigenvalue, of which one Krylov space holds
        // one copy.
        let mesh = Mesh::box3d(3, 1, 1, 3.0, 1.0, 1.0);
        let part = partition_mesh_rcb(&mesh, 3);
        let p = presets::heterogeneous_elasticity(2, 3);
        let d = decompose(&mesh, &p, &part, 3, 1);
        let sub = d
            .subdomains
            .iter()
            .find(|s| s.dirichlet.iter().all(|&b| !b))
            .expect("no floating subdomain");
        let (dense, _) = dense_pencil(sub, 7);
        let scale = dense[6].0;
        assert!(
            dense[5].0.abs() < 1e-10 * scale && scale > 0.0,
            "six zero modes"
        );
        assert_matches_dense(sub, 8, "floating elasticity");
    }

    #[test]
    fn high_contrast_diffusion_subdomain_matches_dense_oracle() {
        // κ contrast 3·10⁶: channels crossing the interface give eigenvalues
        // spread over many orders of magnitude.
        let mesh = Mesh::unit_square(12, 12);
        let part = partition_mesh_rcb(&mesh, 4);
        let p = presets::heterogeneous_diffusion(2);
        let d = decompose(&mesh, &p, &part, 4, 1);
        for (i, sub) in d.subdomains.iter().enumerate() {
            assert_matches_dense(sub, 3, &format!("diffusion subdomain {i}"));
        }
    }

    #[test]
    fn unconverged_eigensolve_is_a_typed_error() {
        let d = setup(4);
        let opts = GeneoOpts {
            nev: 6,
            lanczos: LanczosOpts {
                max_subspace: 8,
                ..Default::default()
            },
            ..Default::default()
        };
        assert!(matches!(
            try_deflation_block(&d.subdomains[0], &opts),
            Err(EigenError::NotConverged { requested: 6, .. })
        ));
    }

    #[test]
    fn zero_nev_or_no_overlap_yields_empty() {
        let d = setup(4);
        let blk = deflation_block(
            &d.subdomains[0],
            &GeneoOpts {
                nev: 0,
                ..Default::default()
            },
        );
        assert_eq!(blk.w.cols(), 0);
        // single subdomain: no overlap
        let mesh = Mesh::unit_square(4, 4);
        let part = vec![0u32; mesh.n_elements()];
        let p = presets::uniform_diffusion(1);
        let d1 = decompose(&mesh, &p, &part, 1, 1);
        let blk1 = deflation_block(&d1.subdomains[0], &GeneoOpts::default());
        assert_eq!(blk1.w.cols(), 0);
    }

    #[test]
    fn dirichlet_rows_of_w_vanish() {
        let d = setup(4);
        let opts = GeneoOpts {
            nev: 3,
            ..Default::default()
        };
        for s in &d.subdomains {
            let blk = deflation_block(s, &opts);
            for c in 0..blk.w.cols() {
                for k in 0..s.n_local() {
                    if s.dirichlet[k] {
                        assert_eq!(blk.w.col(c)[k], 0.0);
                    }
                }
            }
        }
    }

    #[test]
    fn nicolaides_scalar_is_pou() {
        let d = setup(4);
        for s in &d.subdomains {
            let w = nicolaides_block(s, 1);
            assert_eq!(w.cols(), 1);
            for k in 0..s.n_local() {
                let expect = if s.dirichlet[k] { 0.0 } else { s.d[k] };
                assert_eq!(w.col(0)[k], expect);
            }
        }
    }

    #[test]
    fn nicolaides_elasticity_spans_rigid_modes() {
        let mesh = Mesh::rectangle(8, 4, 2.0, 1.0);
        let part = partition_mesh_rcb(&mesh, 4);
        let p = presets::heterogeneous_elasticity(1, 2);
        let d = decompose(&mesh, &p, &part, 4, 1);
        for s in &d.subdomains {
            let w = nicolaides_block(s, 2);
            assert_eq!(w.cols(), 3);
            // On a floating (no Dirichlet) subdomain, A^Neu annihilates the
            // unweighted rigid modes; we check W columns are D·mode by
            // reconstructing the mode and verifying A^Neu·mode ≈ 0.
            if s.dirichlet.iter().any(|&b| b) {
                continue;
            }
            for c in 0..3 {
                let mut mode = vec![0.0; s.n_local()];
                for k in 0..s.n_local() {
                    mode[k] = if s.d[k] > 1e-14 {
                        w.col(c)[k] / s.d[k]
                    } else {
                        // fill from the analytic mode
                        let sdof = k / 2;
                        let x = &s.coords[sdof * 2..sdof * 2 + 2];
                        match (c, k % 2) {
                            (0, 0) => 1.0,
                            (0, 1) => 0.0,
                            (1, 0) => 0.0,
                            (1, 1) => 1.0,
                            (2, 0) => -x[1],
                            (2, 1) => x[0],
                            _ => unreachable!(),
                        }
                    };
                }
                let mut y = vec![0.0; s.n_local()];
                s.a_neumann.spmv(&mode, &mut y);
                let rel = dd_linalg::vector::norm_inf(&y)
                    / (s.a_neumann.norm_inf() * dd_linalg::vector::norm_inf(&mode));
                assert!(rel < 1e-10, "rigid mode {c} not in kernel: {rel}");
            }
        }
    }

    #[test]
    fn resize_truncates_and_caps() {
        let d = setup(4);
        let blk = deflation_block(
            &d.subdomains[0],
            &GeneoOpts {
                nev: 3,
                ..Default::default()
            },
        );
        let wide = resize_block(&blk, 6);
        assert_eq!(wide.cols(), blk.w.cols().min(6));
        let narrow = resize_block(&blk, 1);
        assert_eq!(narrow.cols(), 1);
        assert_eq!(narrow.col(0), blk.w.col(0));
    }
}
