//! Abstract deflation: coarse operators built from *arbitrary* deflation
//! vectors, and the a-posteriori Ritz construction sketched in the paper's
//! conclusion.
//!
//! §3 of the paper stresses that the framework "is not directly linked to
//! domain decomposition methods, meaning that it is possible to use it to
//! assemble coarse operators with other abstract deflation vectors, for
//! example as defined in [Grigori–Stompor–Szydlarski] for simulations in
//! cosmology". This module provides that escape hatch: a dense block of
//! global deflation vectors `Z`, the coarse operator `E = ZᵀAZ`, and the
//! `A-DEF1` combination with any smoother.
//!
//! The conclusion (§4) also proposes obtaining the deflation vectors
//! *a posteriori*, "during the convergence of the iterative method, using
//! for example approximations of the Ritz vectors". [`ritz_deflation`]
//! implements that: run a few Arnoldi steps of the one-level-preconditioned
//! operator, take the Ritz vectors of smallest Ritz value — the directions
//! that slow the Krylov method down — and deflate them in subsequent
//! solves (the multiple right-hand-side scenario).

use crate::error::SpmdError;
use dd_krylov::{Operator, Preconditioner};
use dd_linalg::{jacobi, vector, CsrMatrix, DMat, DenseLdlt};
use std::cell::Cell;

/// A coarse operator `E = ZᵀAZ` for an explicit (dense, global) deflation
/// block `Z ∈ R^{n×m}`, factored densely (abstract deflation spaces are
/// small: `m` is tens at most).
pub struct AbstractCoarse {
    z: DMat,
    /// `A Z`, kept to apply `I − A Z E⁻¹ Zᵀ` with one less spmv.
    az: DMat,
    factor: DenseLdlt,
}

impl AbstractCoarse {
    /// Build from the operator and deflation block.
    ///
    /// # Panics
    /// Panics if `E` is numerically singular (linearly dependent columns in
    /// `Z`) — orthonormalize or prune the block first, or use
    /// [`AbstractCoarse::try_build`] to handle the failure.
    pub fn build(a: &CsrMatrix, z: DMat) -> Self {
        Self::try_build(a, z).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`AbstractCoarse::build`]: a singular `E` (linearly
    /// dependent columns in `Z`) is reported as
    /// [`SpmdError::CoarseFactorization`] instead of a panic.
    pub fn try_build(a: &CsrMatrix, z: DMat) -> Result<Self, SpmdError> {
        assert_eq!(a.rows(), z.rows(), "Z rows must match the operator");
        let m = z.cols();
        assert!(m > 0, "empty deflation block");
        let az = a.csrmm(&z);
        let mut e = DMat::zeros(m, m);
        z.gemm_tn(1.0, &az, 0.0, &mut e);
        // symmetrize against roundoff
        for i in 0..m {
            for j in 0..i {
                let avg = 0.5 * (e[(i, j)] + e[(j, i)]);
                e[(i, j)] = avg;
                e[(j, i)] = avg;
            }
        }
        let factor = DenseLdlt::factor(&e).map_err(|e| SpmdError::CoarseFactorization {
            what: format!("abstract coarse operator is singular: {e:?}"),
        })?;
        Ok(AbstractCoarse { z, az, factor })
    }

    pub fn dim(&self) -> usize {
        self.z.cols()
    }

    /// `q = Z E⁻¹ Zᵀ u`.
    pub fn correction(&self, u: &[f64]) -> Vec<f64> {
        let m = self.dim();
        let mut w = vec![0.0; m];
        self.z.gemv_t(1.0, u, 0.0, &mut w);
        self.factor.solve_in_place(&mut w);
        let mut q = vec![0.0; self.z.rows()];
        self.z.gemv(1.0, &w, 0.0, &mut q);
        q
    }

    /// `t = u − A Z E⁻¹ Zᵀ u` using the cached `AZ`.
    pub fn project_residual(&self, u: &[f64]) -> Vec<f64> {
        let m = self.dim();
        let mut w = vec![0.0; m];
        self.z.gemv_t(1.0, u, 0.0, &mut w);
        self.factor.solve_in_place(&mut w);
        let mut t = u.to_vec();
        let mut azw = vec![0.0; self.z.rows()];
        self.az.gemv(1.0, &w, 0.0, &mut azw);
        vector::axpy(-1.0, &azw, &mut t);
        t
    }
}

/// `P⁻¹_A-DEF1` with an abstract coarse space and any smoother `M⁻¹`:
/// `z = M⁻¹ (I − A Q) r + Q r` with `Q = Z E⁻¹ Zᵀ`.
pub struct AbstractADef1<'a, M: Preconditioner + ?Sized> {
    smoother: &'a M,
    coarse: AbstractCoarse,
    coarse_solves: Cell<u64>,
}

impl<'a, M: Preconditioner + ?Sized> AbstractADef1<'a, M> {
    pub fn new(smoother: &'a M, coarse: AbstractCoarse) -> Self {
        AbstractADef1 {
            smoother,
            coarse,
            coarse_solves: Cell::new(0),
        }
    }

    pub fn coarse(&self) -> &AbstractCoarse {
        &self.coarse
    }

    pub fn coarse_solve_count(&self) -> u64 {
        self.coarse_solves.get()
    }
}

impl<M: Preconditioner + ?Sized> Preconditioner for AbstractADef1<'_, M> {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        self.coarse_solves.set(self.coarse_solves.get() + 2);
        // One logical coarse solution reused twice — counted as the two
        // gemv-level solves below, but a single E⁻¹ application each.
        let q = self.coarse.correction(r);
        let t = self.coarse.project_residual(r);
        self.smoother.apply(&t, z);
        vector::axpy(1.0, &q, z);
    }
}

/// Extract `m` Ritz deflation vectors of the (left-)preconditioned operator
/// `M⁻¹A` from `steps` Arnoldi iterations started at `seed` — the
/// a-posteriori construction of the paper's conclusion.
///
/// The Ritz pairs of smallest magnitude approximate the eigenvectors that
/// throttle Krylov convergence; returned vectors are orthonormalized.
pub fn ritz_deflation<O, M>(op: &O, precond: &M, seed: &[f64], steps: usize, m: usize) -> DMat
where
    O: Operator + ?Sized,
    M: Preconditioner + ?Sized,
{
    let n = op.dim();
    assert_eq!(seed.len(), n);
    let steps = steps.min(n).max(m);
    // Arnoldi on B = M⁻¹A.
    let mut v: Vec<Vec<f64>> = Vec::with_capacity(steps + 1);
    let mut first = seed.to_vec();
    let nrm = vector::norm2(&first).max(1e-300);
    vector::scal(1.0 / nrm, &mut first);
    v.push(first);
    let mut h = DMat::zeros(steps + 1, steps);
    let mut actual = 0usize;
    let mut ax = vec![0.0; n];
    for k in 0..steps {
        let mut w = vec![0.0; n];
        op.apply(&v[k], &mut ax);
        precond.apply(&ax, &mut w);
        for (j, vj) in v.iter().enumerate() {
            let hjk = vector::dot(&w, vj);
            vector::axpy(-hjk, vj, &mut w);
            h[(j, k)] = hjk;
        }
        let hk1 = vector::norm2(&w);
        h[(k + 1, k)] = hk1;
        actual = k + 1;
        if hk1 < 1e-12 {
            break;
        }
        vector::scal(1.0 / hk1, &mut w);
        v.push(w);
    }
    // Symmetric part of the square Hessenberg H_m (the preconditioned
    // operator is not exactly symmetric, but its field-of-values structure
    // is captured well enough for deflation purposes).
    let mm = actual;
    let mut hs = DMat::zeros(mm, mm);
    for i in 0..mm {
        for j in 0..mm {
            hs[(i, j)] = 0.5 * (h[(i, j)] + h[(j, i)]);
        }
    }
    let eig = jacobi::sym_eig(&hs, 1e-12);
    // Ritz vectors of the m smallest-magnitude Ritz values.
    let mut order: Vec<usize> = (0..mm).collect();
    order.sort_by(|&a, &b| {
        eig.eigenvalues[a]
            .abs()
            .total_cmp(&eig.eigenvalues[b].abs())
    });
    let take = m.min(mm);
    let mut z = DMat::zeros(n, take);
    for (col, &p) in order.iter().take(take).enumerate() {
        let s = eig.eigenvectors.col(p);
        let dst = z.col_mut(col);
        for (i, vi) in v.iter().enumerate().take(mm) {
            vector::axpy(s[i], vi, dst);
        }
    }
    // Orthonormalize the block (modified Gram–Schmidt) so E stays
    // well-conditioned.
    for c in 0..take {
        for prev in 0..c {
            let (head, tail) = z.data_mut().split_at_mut(c * n);
            let pcol = &head[prev * n..(prev + 1) * n];
            let ccol = &mut tail[..n];
            let d = vector::dot(ccol, pcol);
            vector::axpy(-d, pcol, ccol);
        }
        let nrm = vector::norm2(z.col(c));
        if nrm > 1e-300 {
            vector::scal(1.0 / nrm, z.col_mut(c));
        }
    }
    z
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomp::decompose;
    use crate::precond::RasPrecond;
    use crate::problem::presets;
    use dd_krylov::{gmres, GmresOpts, IdentityPrecond, SeqDot};
    use dd_mesh::Mesh;
    use dd_part::partition_mesh_rcb;
    use dd_solver::Ordering;

    fn setup() -> crate::decomp::Decomposition {
        let mesh = Mesh::unit_square(20, 20);
        let part = partition_mesh_rcb(&mesh, 8);
        let p = presets::heterogeneous_diffusion(1);
        decompose(&mesh, &p, &part, 8, 1)
    }

    #[test]
    fn abstract_coarse_is_projection() {
        let d = setup();
        // Z: a few smooth global vectors.
        let n = d.n_global;
        let mut z = DMat::zeros(n, 3);
        for i in 0..n {
            z.col_mut(0)[i] = 1.0;
            z.col_mut(1)[i] = (i as f64 / n as f64).sin();
            z.col_mut(2)[i] = (i as f64 / n as f64).cos();
        }
        let ac = AbstractCoarse::build(&d.a_global, z);
        let u: Vec<f64> = (0..n).map(|i| ((i * 7) % 5) as f64).collect();
        // Q A Q u = Q u (projection property).
        let qu = ac.correction(&u);
        let mut aqu = vec![0.0; n];
        d.a_global.spmv(&qu, &mut aqu);
        let qaqu = ac.correction(&aqu);
        assert!(vector::dist2(&qaqu, &qu) < 1e-8 * vector::norm2(&qu).max(1e-300));
        // project_residual removes the AZ component: Zᵀ(u − A Q u) = 0.
        let t = ac.project_residual(&u);
        let mut w = vec![0.0; ac.dim()];
        ac.z.gemv_t(1.0, &t, 0.0, &mut w);
        assert!(vector::norm_inf(&w) < 1e-8 * vector::norm_inf(&u));
    }

    #[test]
    fn ritz_deflation_speeds_up_second_solve() {
        // The paper's conclusion scenario: solve once with one-level RAS,
        // harvest Ritz vectors, deflate them in a second solve with a
        // different right-hand side.
        let d = setup();
        let ras = RasPrecond::build(&d, Ordering::MinDegree);
        let opts = GmresOpts {
            tol: 1e-8,
            max_iters: 400,
            record_history: false,
            side: dd_krylov::Side::Left,
            ..Default::default()
        };
        let n = d.n_global;
        let rhs2: Vec<f64> = (0..n).map(|i| ((i * 13) % 7) as f64 - 3.0).collect();
        // Baseline: one-level solve of the second system.
        let base = gmres(&d.a_global, &ras, &SeqDot, &rhs2, &vec![0.0; n], &opts);
        // Harvest Ritz vectors from the first right-hand side.
        let z = ritz_deflation(&d.a_global, &ras, &d.rhs_global, 40, 8);
        let ac = AbstractCoarse::build(&d.a_global, z);
        let adef = AbstractADef1::new(&ras, ac);
        let defl = gmres(&d.a_global, &adef, &SeqDot, &rhs2, &vec![0.0; n], &opts);
        assert!(defl.converged);
        assert!(
            defl.iterations < base.iterations,
            "Ritz deflation did not help: {} vs {}",
            defl.iterations,
            base.iterations
        );
    }

    #[test]
    fn ritz_block_is_orthonormal() {
        let d = setup();
        let z = ritz_deflation(&d.a_global, &IdentityPrecond, &d.rhs_global, 30, 5);
        for i in 0..z.cols() {
            for j in 0..=i {
                let dot = vector::dot(z.col(i), z.col(j));
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((dot - expect).abs() < 1e-10, "⟨z{i},z{j}⟩ = {dot}");
            }
        }
    }

    #[test]
    fn abstract_adef1_counts_coarse_solves() {
        let d = setup();
        let n = d.n_global;
        let mut z = DMat::zeros(n, 2);
        for i in 0..n {
            z.col_mut(0)[i] = 1.0;
            z.col_mut(1)[i] = i as f64;
        }
        let ac = AbstractCoarse::build(&d.a_global, z);
        let adef = AbstractADef1::new(&IdentityPrecond, ac);
        let r = vec![1.0; n];
        let mut out = vec![0.0; n];
        adef.apply(&r, &mut out);
        assert!(adef.coarse_solve_count() > 0);
    }
}
