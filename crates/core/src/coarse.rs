//! The coarse space `Z` and coarse operator `E = Zᵀ A Z` (§3 of the
//! paper), sequential construction.
//!
//! `Z = [R_1ᵀ W_1 | R_2ᵀ W_2 | … | R_Nᵀ W_N]` is never assembled: each
//! subdomain keeps its dense block `W_i`, and the block
//! `E_{i,j} = W_iᵀ R_i R_jᵀ (A_j W_j)` (eq. 10) is computed from purely
//! local products plus the shared-dof index lists — the construction the
//! SPMD driver distributes with Algorithms 1–2.

use crate::decomp::Decomposition;
use crate::error::SpmdError;
use dd_linalg::{CooBuilder, CsrMatrix, DMat};
use dd_solver::{LdltBackend, LocalLdlt, Ordering, PivotPolicy};

/// The assembled coarse space: one dense block per subdomain plus the
/// block offsets `r_i = Σ_{j<i} ν_j` into the coarse unknowns.
pub struct CoarseSpace {
    /// `W_i` blocks (n_i × ν_i).
    pub w: Vec<DMat>,
    /// Column offsets of each block in `Z`.
    pub offsets: Vec<usize>,
    /// Total coarse dimension `m = Σ ν_i`.
    pub dim: usize,
}

impl CoarseSpace {
    pub fn new(w: Vec<DMat>) -> Self {
        let mut offsets = Vec::with_capacity(w.len() + 1);
        let mut acc = 0usize;
        for b in &w {
            offsets.push(acc);
            acc += b.cols();
        }
        offsets.push(acc);
        CoarseSpace {
            w,
            offsets,
            dim: acc,
        }
    }

    pub fn nu(&self, i: usize) -> usize {
        self.w[i].cols()
    }

    /// `w = Zᵀ u` for a global vector `u`: block i is `W_iᵀ R_i u` (gemv).
    pub fn zt_apply(&self, decomp: &Decomposition, u: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.dim];
        for (i, s) in decomp.subdomains.iter().enumerate() {
            let ui = s.restrict(u);
            let dst = &mut out[self.offsets[i]..self.offsets[i + 1]];
            self.w[i].gemv_t(1.0, &ui, 0.0, dst);
        }
        out
    }

    /// `z = Z y` for coarse coefficients `y`: `Σ_i R_iᵀ W_i y_i`.
    pub fn z_apply(&self, decomp: &Decomposition, y: &[f64]) -> Vec<f64> {
        assert_eq!(y.len(), self.dim);
        let mut out = vec![0.0; decomp.n_global];
        for (i, s) in decomp.subdomains.iter().enumerate() {
            let yi = &y[self.offsets[i]..self.offsets[i + 1]];
            let mut zi = vec![0.0; s.n_local()];
            self.w[i].gemv(1.0, yi, 0.0, &mut zi);
            s.prolong_add(&zi, &mut out);
        }
        out
    }
}

/// The factored coarse operator.
pub struct CoarseOperator {
    pub space: CoarseSpace,
    /// Assembled `E` (kept for inspection: dimension, sparsity, Figure 11
    /// statistics).
    pub e: CsrMatrix,
    factor: LocalLdlt,
}

impl CoarseOperator {
    /// Assemble `E` block-wise via eq. (10) and factor it.
    ///
    /// Per subdomain: `T_i = A_i W_i` (csrmm), diagonal block
    /// `E_{i,i} = W_iᵀ T_i` (gemm), and for each neighbor `j ∈ O_i` the
    /// coupling `E_{i,j} = W_iᵀ (R_i R_jᵀ T_j)` — only the shared rows of
    /// `T_j` contribute.
    ///
    /// A singular `E` surfaces as [`SpmdError::CoarseFactorization`]
    /// (callers like the SPMD driver drop to one-level RAS on it) and
    /// malformed decompositions as [`SpmdError::Protocol`].
    pub fn try_build(
        decomp: &Decomposition,
        space: CoarseSpace,
        ordering: Ordering,
    ) -> Result<Self, SpmdError> {
        let n = decomp.n_subdomains();
        // T_i = A_i W_i
        let t: Vec<DMat> = (0..n)
            .map(|i| decomp.subdomains[i].mm_dirichlet(&space.w[i]))
            .collect();
        let m = space.dim;
        let mut coo = CooBuilder::new(m, m);
        for (i, s) in decomp.subdomains.iter().enumerate() {
            let ri = space.offsets[i];
            let nui = space.nu(i);
            // Diagonal block.
            let mut eii = DMat::zeros(nui, nui);
            space.w[i].gemm_tn(1.0, &t[i], 0.0, &mut eii);
            for p in 0..nui {
                for q in 0..nui {
                    coo.push(ri + p, ri + q, eii[(p, q)]);
                }
            }
            // Off-diagonal blocks: E_{i,j} = W_iᵀ U_j with U_j = R_iR_jᵀ T_j.
            for link in &s.neighbors {
                let j = link.j;
                let back = decomp.subdomains[j]
                    .neighbors
                    .iter()
                    .find(|l| l.j == i)
                    .ok_or_else(|| SpmdError::Protocol {
                        rank: i,
                        what: format!("asymmetric neighbor links between subdomains {i} and {j}"),
                    })?;
                let rj = space.offsets[j];
                let nuj = space.nu(j);
                let wi = &space.w[i];
                let tj = &t[j];
                for q in 0..nuj {
                    let tcol = tj.col(q);
                    for p in 0..nui {
                        let wcol = wi.col(p);
                        let mut acc = 0.0;
                        for (&mine, &theirs) in link.shared.iter().zip(&back.shared) {
                            acc += wcol[mine as usize] * tcol[theirs as usize];
                        }
                        if acc != 0.0 {
                            coo.push(ri + p, rj + q, acc);
                        }
                    }
                }
            }
        }
        let e = coo.to_csr();
        // Static pivoting: deflation vectors from different subdomains can
        // be globally dependent (e.g. interface-localized modes shared by
        // neighbors under high contrast); null pivots are boosted so the
        // solve acts as a pseudo-inverse on range(Z) — the MUMPS null-pivot
        // strategy a production run would enable.
        let boost = PivotPolicy::Boost { rel_tol: 1e-12 };
        let factor =
            LocalLdlt::factor_with(&e, ordering, boost, LdltBackend::Scalar).map_err(|e| {
                SpmdError::CoarseFactorization {
                    what: e.to_string(),
                }
            })?;
        Ok(CoarseOperator { space, e, factor })
    }

    /// Coarse dimension `m = dim(E)`.
    pub fn dim(&self) -> usize {
        self.space.dim
    }

    /// Nonzeros of the LDLᵀ factor (the paper's `nnz(E⁻¹)` column in
    /// Figure 11).
    pub fn nnz_factor(&self) -> usize {
        self.factor.nnz_l()
    }

    /// Solve `E y = w`.
    pub fn solve(&self, w: &[f64]) -> Vec<f64> {
        self.factor.solve(w)
    }

    /// Dense rows `[lo, hi)` of `E`, columns `[lo, dim)` — a master's
    /// upper row strip, exactly what the distributed factorization
    /// ([`dd_solver::DistLdlt`]) eliminates in place of the redundant full
    /// copy (`E` is symmetric, so the sub-diagonal values live transposed
    /// in earlier strips). Used by the tests to cross-check the two
    /// coarse-solve paths.
    #[cfg(test)]
    fn block_row_strip(&self, lo: usize, hi: usize) -> DMat {
        assert!(lo <= hi && hi <= self.space.dim);
        let mut s = DMat::zeros(hi - lo, self.space.dim - lo);
        for r in lo..hi {
            for (c, v) in self.e.row(r) {
                if c >= lo {
                    s[(r - lo, c - lo)] = v;
                }
            }
        }
        s
    }

    /// The full coarse correction `Q u = Z E⁻¹ Zᵀ u` on a global vector.
    pub fn correction(&self, decomp: &Decomposition, u: &[f64]) -> Vec<f64> {
        let w = self.space.zt_apply(decomp, u);
        let y = self.solve(&w);
        self.space.z_apply(decomp, &y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomp::decompose;
    use crate::geneo::{try_deflation_block, GeneoOpts};
    use crate::problem::presets;
    use dd_linalg::vector;
    use dd_mesh::Mesh;
    use dd_part::partition_mesh_rcb;

    fn setup(nparts: usize, nev: usize) -> (Decomposition, CoarseSpace) {
        let mesh = Mesh::unit_square(10, 10);
        let part = partition_mesh_rcb(&mesh, nparts);
        let p = presets::heterogeneous_diffusion(1);
        let d = decompose(&mesh, &p, &part, nparts, 1);
        let opts = GeneoOpts {
            nev,
            ..Default::default()
        };
        let blocks: Vec<DMat> = d
            .subdomains
            .iter()
            .map(|s| {
                let b = try_deflation_block(s, &opts).unwrap();
                crate::geneo::resize_block(&b, b.kept)
            })
            .collect();
        let space = CoarseSpace::new(blocks);
        (d, space)
    }

    /// The decisive correctness check: the block-wise local assembly of E
    /// must equal the dense `Zᵀ A Z` computed with the global matrix.
    #[test]
    fn coarse_operator_equals_zt_a_z() {
        let (d, space) = setup(4, 3);
        let op = CoarseOperator::try_build(&d, space, Ordering::MinDegree).unwrap();
        let m = op.dim();
        assert!(m > 0);
        // Dense reference: columns of Z via z_apply on unit coarse vectors.
        let mut zaz = DMat::zeros(m, m);
        for q in 0..m {
            let mut y = vec![0.0; m];
            y[q] = 1.0;
            let zq = op.space.z_apply(&d, &y);
            let mut azq = vec![0.0; d.n_global];
            d.a_global.spmv(&zq, &mut azq);
            let col = op.space.zt_apply(&d, &azq);
            zaz.col_mut(q).copy_from_slice(&col);
        }
        for p in 0..m {
            for q in 0..m {
                let got = op.e.get(p, q);
                let want = zaz[(p, q)];
                assert!(
                    (got - want).abs() < 1e-8 * zaz.norm_max().max(1e-300),
                    "E[{p},{q}] = {got} vs ZᵀAZ = {want}"
                );
            }
        }
    }

    #[test]
    fn e_is_symmetric_and_spd() {
        let (d, space) = setup(4, 3);
        let op = CoarseOperator::try_build(&d, space, Ordering::MinDegree).unwrap();
        assert!(op.e.symmetry_defect() < 1e-8 * op.e.norm_inf());
        // SPD since A is SPD and Z has full rank.
        let f = LocalLdlt::factor(&op.e, Ordering::Natural, LdltBackend::Scalar).unwrap();
        assert_eq!(f.inertia(), (0, 0, op.dim()));
    }

    #[test]
    fn sparsity_follows_connectivity() {
        let (d, space) = setup(6, 2);
        let op = CoarseOperator::try_build(&d, space, Ordering::MinDegree).unwrap();
        // block (i,j) nonzero ⟹ j ∈ O_i ∪ {i}
        for (i, s) in d.subdomains.iter().enumerate() {
            let nbrs: Vec<usize> = s.neighbors.iter().map(|l| l.j).collect();
            for p in op.space.offsets[i]..op.space.offsets[i + 1] {
                for (col, v) in op.e.row(p) {
                    if v == 0.0 {
                        continue;
                    }
                    let j = (0..d.n_subdomains())
                        .find(|&j| col >= op.space.offsets[j] && col < op.space.offsets[j + 1])
                        .unwrap();
                    assert!(
                        j == i || nbrs.contains(&j),
                        "E block ({i},{j}) nonzero but {j} ∉ O_{i}"
                    );
                }
            }
        }
    }

    /// The block-row strips handed to the distributed factorization must
    /// reproduce the sequential `E⁻¹` when eliminated cooperatively.
    #[test]
    fn distributed_factor_matches_sequential_coarse_solve() {
        let (d, space) = setup(6, 2);
        let op = CoarseOperator::try_build(&d, space, Ordering::MinDegree).unwrap();
        let m = op.dim();
        // Partition coarse rows at the §3.1.2 election boundaries.
        let masters = crate::masters::nonuniform_masters(d.n_subdomains(), 3);
        let mut bounds: Vec<usize> = masters.iter().map(|&g| op.space.offsets[g]).collect();
        bounds.push(m);
        let w: Vec<f64> = (0..m).map(|i| (i as f64 * 0.3).cos()).collect();
        let want = op.solve(&w);
        let strips: Vec<DMat> = (0..masters.len())
            .map(|g| op.block_row_strip(bounds[g], bounds[g + 1]))
            .collect();
        let pieces = dd_comm::World::run_default(masters.len(), move |comm| {
            let g = comm.rank();
            let f =
                dd_solver::DistLdlt::try_factor(comm, bounds.clone(), strips[g].clone()).unwrap();
            f.try_solve_panel(comm, &w[bounds[g]..bounds[g + 1]], 1)
                .unwrap()
        });
        let got: Vec<f64> = pieces.into_iter().flatten().collect();
        let rel = vector::dist2(&got, &want) / vector::norm2(&want).max(1e-300);
        assert!(rel < 1e-10, "distributed vs sequential coarse solve: {rel}");
    }

    #[test]
    fn correction_is_a_projection_complement() {
        // Q = ZE⁻¹ZᵀA satisfies Q² = Q (deflation projector property):
        // check ZE⁻¹Zᵀ(A (ZE⁻¹Zᵀ u)) = ZE⁻¹Zᵀ u.
        let (d, space) = setup(4, 2);
        let op = CoarseOperator::try_build(&d, space, Ordering::MinDegree).unwrap();
        let u: Vec<f64> = (0..d.n_global).map(|i| ((i % 7) as f64) - 3.0).collect();
        let qu = op.correction(&d, &u);
        let mut aqu = vec![0.0; d.n_global];
        d.a_global.spmv(&qu, &mut aqu);
        let qaqu = op.correction(&d, &aqu);
        let err = vector::dist2(&qaqu, &qu) / vector::norm2(&qu).max(1e-300);
        assert!(err < 1e-7, "projector defect {err}");
    }

    #[test]
    fn zt_and_z_are_adjoint() {
        let (d, space) = setup(4, 2);
        let m = space.dim;
        let u: Vec<f64> = (0..d.n_global).map(|i| (i as f64 * 0.01).sin()).collect();
        let y: Vec<f64> = (0..m).map(|i| (i as f64 + 1.0) * 0.1).collect();
        // ⟨Zᵀu, y⟩ = ⟨u, Zy⟩
        let ztu = space.zt_apply(&d, &u);
        let zy = space.z_apply(&d, &y);
        let lhs = vector::dot(&ztu, &y);
        let rhs = vector::dot(&u, &zy);
        assert!((lhs - rhs).abs() < 1e-9 * lhs.abs().max(1.0));
    }
}
