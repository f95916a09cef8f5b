//! The coarse space `Z` and coarse operator `E = Zᵀ A Z` (§3 of the
//! paper), and the only code that knows a coarse row.
//!
//! `Z = [R_1ᵀ W_1 | R_2ᵀ W_2 | … | R_Nᵀ W_N]` is never assembled: each
//! subdomain keeps its dense block `W_s`, and its row of `E` (eq. 10) comes
//! from `W_s`, `T_s = A_s W_s` and its neighbours' `T_j` on the shared
//! dofs: one kernel (`CoarseLayout::row`), one index rule
//! (`CoarseLayout::push_entries`) and one factorization (`factor`). The
//! sequential [`CoarseOperator`] feeds them from memory, the SPMD set-up
//! from what Algorithms 1–2 move between ranks, so both build one `E`.

use crate::decomp::{Decomposition, NeighborLink};
use crate::error::SpmdError;
use dd_comm::fnv1a_bytes;
use dd_linalg::{CooBuilder, CsrMatrix, DMat};
use dd_solver::{LdltBackend, LocalLdlt, Ordering, PivotPolicy, COARSE_BOOST_REL_TOL};
use std::collections::HashMap;

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

/// `U_j = R_j R_sᵀ T_s` as subdomain `s` sends it to neighbour `j`
/// (Algorithm 1): `T_s`'s rows on `shared` (the link from `s` to `j`), one
/// column after another.
pub(crate) fn pack_shared(t: &DMat, shared: &[u32]) -> Vec<f64> {
    let mut u = Vec::with_capacity(shared.len() * t.cols());
    for q in 0..t.cols() {
        let col = t.col(q);
        u.extend(shared.iter().map(|&k| col[k as usize]));
    }
    u
}

/// Where each subdomain's `ν_s` coarse unknowns sit in `E`: from row
/// `start[s]`, handed out in the order the layout was built with (subdomain
/// order sequentially, (owner rank, subdomain) on an owner map).
pub(crate) struct CoarseLayout {
    pub(crate) nu: Vec<usize>,
    start: Vec<usize>,
    pub(crate) dim: usize,
}

impl CoarseLayout {
    pub(crate) fn new(nu: Vec<usize>, order: impl IntoIterator<Item = usize>) -> Self {
        let (mut start, mut dim) = (vec![0; nu.len()], 0);
        for s in order {
            start[s] = dim;
            dim += nu[s];
        }
        CoarseLayout { nu, start, dim }
    }

    /// Subdomain `s`'s coarse row in Algorithm 2's layout: `E_ss = W_sᵀ T_s`
    /// row-major, then `E_sj = W_sᵀ U_j` row-major for each `links[l]`
    /// (`O_s` order), `u[l]` being its `U_j` from [`pack_shared`].
    pub(crate) fn row(
        &self,
        w: &DMat,
        t: &DMat,
        links: &[NeighborLink],
        u: &[Vec<f64>],
    ) -> Vec<f64> {
        let nu_s = w.cols();
        let mut e = DMat::zeros(nu_s, nu_s);
        w.gemm_tn(1.0, t, 0.0, &mut e);
        let mut vals: Vec<f64> = (0..nu_s * nu_s).map(|i| e[(i / nu_s, i % nu_s)]).collect();
        for (link, u) in links.iter().zip(u) {
            let (nu_j, n_shared) = (self.nu[link.j], link.shared.len());
            let at = vals.len();
            vals.resize(at + nu_s * nu_j, 0.0);
            for q in 0..nu_j {
                let ucol = &u[q * n_shared..(q + 1) * n_shared];
                for p in 0..nu_s {
                    let wcol = w.col(p);
                    let mut acc = 0.0;
                    for (&k, &uv) in link.shared.iter().zip(ucol) {
                        acc += wcol[k as usize] * uv;
                    }
                    vals[at + p * nu_j + q] = acc;
                }
            }
        }
        vals
    }

    /// Append the global row and column of each value of subdomain `s`'s
    /// row, in [`CoarseLayout::row`]'s order, `nbrs` being `O_s`.
    pub(crate) fn push_entries(&self, s: usize, nbrs: &[usize], e: &mut Entries) {
        for j in std::iter::once(s).chain(nbrs.iter().copied()) {
            for p in 0..self.nu[s] {
                for q in 0..self.nu[j] {
                    e.0.push((self.start[s] + p) as u64);
                    e.1.push((self.start[j] + q) as u64);
                }
            }
        }
    }

    /// Append the entries of one rank's index-free gather message
    /// (Algorithm 2): for each of `subs` in order it holds `|O_s|`, `O_s`
    /// and the row's values. A message that is short, long, or names a
    /// subdomain outside the layout is a reason.
    pub(crate) fn decode_index_free(
        &self,
        m: &[f64],
        subs: &[usize],
        e: &mut Entries,
    ) -> Result<(), String> {
        let n_subs = self.nu.len();
        // A count or subdomain id on the wire: an integer below `bound`.
        let index = |v: f64, bound: usize| {
            (v >= 0.0 && v < bound as f64 && v.fract() == 0.0).then_some(v as usize)
        };
        let mut rest = m;
        let mut take = |len: usize, what: &str| {
            if rest.len() < len {
                return Err(format!("{} values short in {what}", len - rest.len()));
            }
            let (head, tail) = rest.split_at(len);
            rest = tail;
            Ok(head)
        };
        for &s in subs {
            let n_nbr = index(take(1, "a neighbour count")?[0], n_subs + 1)
                .ok_or_else(|| format!("subdomain {s}: bad neighbour count"))?;
            let nbrs = take(n_nbr, "a neighbour list")?
                .iter()
                .map(|&j| {
                    index(j, n_subs).ok_or_else(|| {
                        format!("subdomain {s} names neighbour {j}, not a subdomain")
                    })
                })
                .collect::<Result<Vec<usize>, String>>()?;
            let width = self.nu[s] + nbrs.iter().map(|&j| self.nu[j]).sum::<usize>();
            e.2.extend_from_slice(take(self.nu[s] * width, "a coarse row")?);
            self.push_entries(s, &nbrs, e);
        }
        match rest.len() {
            0 => Ok(()),
            n => Err(format!("{n} values past the last coarse row")),
        }
    }

    /// A hash of every subdomain's ν: a banked row is valid in the layout
    /// it was computed in only.
    pub(crate) fn sig(&self) -> u64 {
        fnv1a_bytes(0, self.nu.iter().flat_map(|&nu| (nu as u64).to_le_bytes()))
    }
}

/// The entries of `E` as Algorithm 2 gathers them: rows, columns, values.
pub(crate) type Entries = (Vec<u64>, Vec<u64>, Vec<f64>);

/// Assemble `E` from its entries and factor it: the one factorization of
/// an assembled `E`, sequential and redundant alike. An exact zero is not
/// an entry ([`CooBuilder::push`]), and a null pivot is boosted at
/// [`COARSE_BOOST_REL_TOL`], the tolerance of the distributed factor's
/// diagonal blocks too: deflation vectors of different subdomains can be
/// globally dependent (interface-localized modes under high contrast), and
/// the boost makes the solve a pseudo-inverse on range(Z) — the MUMPS
/// null-pivot strategy a production run would enable.
pub(crate) fn factor(
    dim: usize,
    (rows, cols, vals): &Entries,
    ordering: Ordering,
) -> Result<(CsrMatrix, LocalLdlt), String> {
    let mut coo = CooBuilder::new(dim, dim);
    for ((&r, &c), &v) in rows.iter().zip(cols).zip(vals) {
        coo.push(r as usize, c as usize, v);
    }
    let e = coo.to_csr();
    let boost = PivotPolicy::Boost {
        rel_tol: COARSE_BOOST_REL_TOL,
    };
    let factor = LocalLdlt::factor_with(&e, ordering, boost, LdltBackend::Scalar)
        .map_err(|e| e.to_string())?;
    Ok((e, factor))
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
    /// Assemble `E` row by row (eq. 10) and factor it: `T_i = A_i W_i`, the
    /// blocks of `T_i` each subdomain would send its neighbours, then every
    /// row from them.
    ///
    /// A singular `E` surfaces as [`SpmdError::CoarseFactorization`]
    /// (callers like the SPMD driver drop to one-level RAS on it) and
    /// malformed decompositions as [`SpmdError::Protocol`].
    pub fn try_build(
        decomp: &Decomposition,
        space: CoarseSpace,
        ordering: Ordering,
    ) -> Result<Self, SpmdError> {
        let subs = &decomp.subdomains;
        let t: Vec<DMat> = subs
            .iter()
            .zip(&space.w)
            .map(|(s, w)| s.mm_dirichlet(w))
            .collect();
        let mut sent: HashMap<(usize, usize), Vec<f64>> = HashMap::new();
        for (i, s) in subs.iter().enumerate() {
            for link in &s.neighbors {
                sent.insert((i, link.j), pack_shared(&t[i], &link.shared));
            }
        }
        let layout = CoarseLayout::new(space.w.iter().map(DMat::cols).collect(), 0..subs.len());
        let mut entries = Entries::default();
        for (i, s) in subs.iter().enumerate() {
            let u = s
                .neighbors
                .iter()
                .map(|l| {
                    sent.remove(&(l.j, i)).ok_or_else(|| SpmdError::Protocol {
                        rank: i,
                        what: format!(
                            "asymmetric neighbor links between subdomains {i} and {}",
                            l.j
                        ),
                    })
                })
                .collect::<Result<Vec<_>, _>>()?;
            let nbrs: Vec<usize> = s.neighbors.iter().map(|l| l.j).collect();
            layout.push_entries(i, &nbrs, &mut entries);
            entries
                .2
                .extend(layout.row(&space.w[i], &t[i], &s.neighbors, &u));
        }
        let (e, factor) = factor(layout.dim, &entries, ordering)
            .map_err(|what| SpmdError::CoarseFactorization { what })?;
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

    /// Three subdomains with `ν = [2, 1, 3]`, rows in subdomain order.
    fn layout() -> CoarseLayout {
        CoarseLayout::new(vec![2, 1, 3], 0..3)
    }

    /// A row's indices: its own block row-major, then each neighbour's; an
    /// owner-map order moves the rows, not the layout of a row.
    #[test]
    fn entries_follow_the_row_layout() {
        let mut got = Entries::default();
        layout().push_entries(2, &[0], &mut got);
        let mut want: (Vec<u64>, Vec<u64>) = Default::default();
        for (start, nu) in [(3, 3), (0, 2)] {
            for p in 0..3 {
                for q in 0..nu {
                    want.0.push(3 + p);
                    want.1.push(start + q);
                }
            }
        }
        assert_eq!((got.0, got.1), want);
        let moved = CoarseLayout::new(vec![2, 1, 3], [2, 0, 1]);
        assert_eq!(moved.dim, 6);
        let mut got = Entries::default();
        moved.push_entries(1, &[2], &mut got);
        assert_eq!((got.0, got.1), (vec![5; 4], vec![5, 0, 1, 2]));
    }

    /// Subdomains 0 and 2 of three with `ν = [2, 1, 3]`: `O_0 = {1, 2}`
    /// (2 · 6 values), `O_2 = {0}` (3 · 5 values).
    fn index_free_message() -> Vec<f64> {
        let mut m = vec![2.0, 1.0, 2.0];
        m.extend((0..12).map(f64::from));
        m.extend([1.0, 0.0]);
        m.extend((0..15).map(f64::from));
        m
    }

    #[test]
    fn index_free_message_decodes() {
        let m = index_free_message();
        let mut got = Entries::default();
        let l = layout();
        l.decode_index_free(&m, &[0, 2], &mut got)
            .expect("well-formed");
        let mut want = Entries::default();
        l.push_entries(0, &[1, 2], &mut want);
        l.push_entries(2, &[0], &mut want);
        want.2 = (0..12).chain(0..15).map(f64::from).collect();
        assert_eq!(got, want);
    }

    /// A truncated, an overlong and an out-of-range gather message is a
    /// reason, not a slice panic or an index read past the layout.
    #[test]
    fn malformed_index_free_messages_are_rejected() {
        let good = index_free_message();
        let truncated = &good[..good.len() - 1];
        let mut overlong = good.clone();
        overlong.push(0.0);
        let mut out_of_range = good.clone();
        out_of_range[2] = 3.0;
        let mut bad_count = good.clone();
        bad_count[0] = -1.0;
        for (m, why) in [
            (truncated, "1 values short in a coarse row"),
            (&overlong[..], "1 values past the last coarse row"),
            (&out_of_range[..], "names neighbour 3"),
            (&bad_count[..], "bad neighbour count"),
        ] {
            let err =
                (layout().decode_index_free(m, &[0, 2], &mut Entries::default())).expect_err(why);
            assert!(err.contains(why), "{err}");
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
