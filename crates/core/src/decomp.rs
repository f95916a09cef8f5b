//! Overlapping domain decomposition (§2 of the paper).
//!
//! From a mesh, an element partition `{T_i}` and an overlap width `δ`, this
//! module builds everything the preconditioners need, per subdomain:
//!
//! * the overlapping element sets `T_i^δ` (grown by element adjacency:
//!   "T_i^δ is obtained by including all elements of T_i^{δ−1} plus all
//!   adjacent elements");
//! * the local space `V_i^δ` as a sorted list of global dofs (`R_i` is
//!   never stored as a matrix — only this index list, and the shared-index
//!   lists give the action of `R_i R_jᵀ`);
//! * the **partition of unity** `D_i` from the continuous piecewise-linear
//!   hat functions `χ_i` of the paper (§2), interpolated onto the `P_k`
//!   dofs;
//! * the **Dirichlet matrix** `A_i = R_i A R_iᵀ` built by the paper's
//!   *approach 2*: assemble on `V_i^{δ+1}` and restrict — the global `A`
//!   is never needed;
//! * the **Neumann matrix** `A_i^δ` (the local discretization of the
//!   bilinear form on `V_i^δ`, no interface conditions) used by the GenEO
//!   eigenproblem (eq. 9);
//! * the neighbor links `O_i` with shared-dof index lists.
//!
//! A reference global assembly is also kept for the sequential driver and
//! for verification (tests check that approach 2 reproduces `R_i A R_iᵀ`
//! exactly). The paper's approach 1, extracting `A_i` from the assembled
//! global `A`, is not offered: it needs a distributed global matrix, and
//! approach 2 gives the same `A_i` without one.

use crate::problem::Problem;
use dd_fem::{assembly, DofMap};
use dd_linalg::{vector, BsrMatrix, CsrMatrix, DMat};
use dd_mesh::Mesh;
use dd_solver::{ordering, LdltBackend, LdltError, LocalLdlt, Ordering, PivotPolicy};
use std::collections::HashMap;

/// Link to a neighboring subdomain `j ∈ O_i`.
#[derive(Clone, Debug)]
pub struct NeighborLink {
    /// Neighbor subdomain index.
    pub j: usize,
    /// Local (vector-dof) indices shared with `j`, sorted by global dof id.
    /// Subdomain `j`'s link back to us lists the *same global dofs in the
    /// same order*, so exchanging `values[shared]` implements
    /// `R_j R_iᵀ` / `R_i R_jᵀ` without any index translation.
    pub shared: Vec<u32>,
}

/// Everything one subdomain owns.
#[derive(Clone, Debug)]
pub struct Subdomain {
    /// Local → global vector-dof map, sorted ascending.
    pub l2g: Vec<u32>,
    /// Assembled Dirichlet matrix `A_i = R_i A R_iᵀ`.
    pub a_dirichlet: CsrMatrix,
    /// Block (BSR) companion of `a_dirichlet` for vector-valued problems
    /// whose `dim × dim` node blocks are mostly dense (elasticity). `None`
    /// for scalar problems. The blocked kernels accumulate in the same
    /// scalar-column order as CSR, so every apply through
    /// [`Subdomain::spmv_dirichlet`] / [`Subdomain::mm_dirichlet`] is
    /// bitwise identical to the CSR path — enabling this storage cannot
    /// move an iteration count or telemetry counter.
    pub a_dirichlet_bsr: Option<BsrMatrix>,
    /// Unassembled Neumann matrix `A_i^δ` (essential BCs of the *global*
    /// problem eliminated; no conditions on the artificial interface).
    pub a_neumann: CsrMatrix,
    /// Partition-of-unity diagonal `D_i`.
    pub d: Vec<f64>,
    /// Dofs lying in the overlap `V_i^δ ∩ (∪_j V_j^δ)` (the `R_{i,0}`
    /// restriction of eq. 9).
    pub overlap: Vec<bool>,
    /// Neighboring subdomains `O_i`, sorted by index.
    pub neighbors: Vec<NeighborLink>,
    /// Global Dirichlet flags restricted to this subdomain.
    pub dirichlet: Vec<bool>,
    /// Physical coordinates of the *scalar* dofs (`dim` entries per scalar
    /// dof) — used by coordinate-based coarse spaces (rigid body modes).
    pub coords: Vec<f64>,
    /// Spatial dimension.
    pub dim: usize,
}

impl Subdomain {
    pub fn n_local(&self) -> usize {
        self.l2g.len()
    }

    /// `R_i x` — restrict a global vector.
    pub fn restrict(&self, global: &[f64]) -> Vec<f64> {
        self.l2g.iter().map(|&g| global[g as usize]).collect()
    }

    /// `y += R_iᵀ x_i` — prolong a local vector into a global one.
    pub fn prolong_add(&self, local: &[f64], global: &mut [f64]) {
        for (l, &g) in self.l2g.iter().enumerate() {
            global[g as usize] += local[l];
        }
    }

    /// Analyse the subdomain and factor its Dirichlet matrix. Returns the
    /// elimination order with the factor: the Neumann pencil of the GenEO
    /// eigensolve has the same pattern, so
    /// [`crate::geneo::try_deflation_block_ordered`] factors it under the
    /// same order and a set-up computes one ordering per subdomain.
    pub fn factor_dirichlet(
        &self,
        ordering: Ordering,
        backend: LdltBackend,
    ) -> Result<(Vec<usize>, LocalLdlt), LdltError> {
        let order = ordering::fill_reducing(&self.a_dirichlet, ordering);
        let factor =
            LocalLdlt::factor_ordered(&self.a_dirichlet, &order, PivotPolicy::Reject, backend)?;
        Ok((order, factor))
    }

    /// `y ← A_i x` through the blocked storage when available (bitwise
    /// identical to `a_dirichlet.spmv`).
    pub fn spmv_dirichlet(&self, x: &[f64], y: &mut [f64]) {
        self.spmv_dirichlet_panel(x, y, x.len(), 1);
    }

    /// `y_c ← A_i x_c` for `k` columns `ld` apart in `x` and `y`, through
    /// the blocked storage when available (each column bitwise
    /// `a_dirichlet.spmv`) — the local products of the resident solve.
    pub(crate) fn spmv_dirichlet_panel(&self, x: &[f64], y: &mut [f64], ld: usize, k: usize) {
        let n = self.n_local();
        match &self.a_dirichlet_bsr {
            Some(b) => {
                for c in 0..k {
                    b.spmv(&x[c * ld..c * ld + n], &mut y[c * ld..c * ld + n]);
                }
            }
            None => self.a_dirichlet.spmv_panel(x, y, ld, k),
        }
    }

    /// `A_i W` through the blocked storage when available (bitwise identical
    /// to `a_dirichlet.csrmm`) — the `T_i = A_i W_i` step of the `E`
    /// assembly.
    pub fn mm_dirichlet(&self, w: &DMat) -> DMat {
        match &self.a_dirichlet_bsr {
            Some(b) => b.bsrmm(w),
            None => self.a_dirichlet.csrmm(w),
        }
    }

    /// `s·diag(A_i)` with the Dirichlet rows zero: what a diagonal shift
    /// `A_i + s·diag(A_i)` adds to a local product — the perturbation
    /// [`Decomposition::perturb_diag`] applies at `θ = s`.
    pub(crate) fn shifted_diag(&self, shift: f64) -> impl Iterator<Item = f64> + '_ {
        self.a_dirichlet
            .diag()
            .into_iter()
            .zip(&self.dirichlet)
            .map(move |(a, &fixed)| if fixed { 0.0 } else { shift * a })
    }
}

/// Scale every non-Dirichlet diagonal entry of `m` by `1 + θ`.
fn scale_diag(m: &mut CsrMatrix, theta: f64, dirichlet: &[bool]) {
    let (row_ptr, col_idx) = (m.row_ptr().to_vec(), m.col_idx().to_vec());
    let vals = m.values_mut();
    for i in 0..row_ptr.len() - 1 {
        if dirichlet[i] {
            continue;
        }
        for p in row_ptr[i]..row_ptr[i + 1] {
            if col_idx[p] as usize == i {
                vals[p] *= 1.0 + theta;
            }
        }
    }
}

/// The full decomposition plus a reference global problem.
#[derive(Clone)]
pub struct Decomposition {
    /// Number of global (vector) dofs.
    pub n_global: usize,
    /// Overlap width δ ≥ 1.
    pub delta: usize,
    /// Unknowns per scalar dof (1 or `dim`).
    pub components: usize,
    pub subdomains: Vec<Subdomain>,
    /// Globally assembled, Dirichlet-eliminated operator (reference /
    /// sequential driver only — the SPMD path never touches it).
    pub a_global: CsrMatrix,
    /// Global load vector (after Dirichlet elimination).
    pub rhs_global: Vec<f64>,
    /// Global Dirichlet flags.
    pub dirichlet: Vec<bool>,
}

#[inline]
fn n_scalar_coords(n_scalar: usize, dim: usize) -> usize {
    n_scalar * dim
}

/// Extract the submesh spanned by `elems`, returning the local mesh and
/// the local → global vertex map.
fn build_submesh(mesh: &Mesh, elems: &[u32]) -> (Mesh, Vec<u32>) {
    let k = mesh.verts_per_elem();
    let mut vert_l2g: Vec<u32> = Vec::new();
    let mut g2l: HashMap<u32, u32> = HashMap::new();
    let mut conn = Vec::with_capacity(elems.len() * k);
    for &e in elems {
        for &v in mesh.element(e as usize) {
            let next = g2l.len() as u32;
            let lv = *g2l.entry(v).or_insert_with(|| {
                vert_l2g.push(v);
                next
            });
            conn.push(lv);
        }
    }
    let dim = mesh.dim();
    let mut coords = Vec::with_capacity(vert_l2g.len() * dim);
    for &gv in &vert_l2g {
        coords.extend_from_slice(mesh.vertex(gv as usize));
    }
    (Mesh::from_parts(dim, coords, conn), vert_l2g)
}

/// Translate the dofs of a submesh `DofMap` to global dof ids through the
/// exact integer keys (vertex ids + barycentric numerators).
fn submesh_dofs_to_global(sub_dm: &DofMap, vert_l2g: &[u32], global_dm: &DofMap) -> Vec<u32> {
    (0..sub_dm.n_dofs())
        .map(|ld| {
            let mut key: Vec<(u32, u8)> = sub_dm
                .key(ld)
                .iter()
                .map(|&(lv, a)| (vert_l2g[lv as usize], a))
                .collect();
            key.sort_unstable();
            global_dm
                .dof_by_key(&key)
                .expect("submesh dof not found in global space")
        })
        .collect()
}

/// Grow the element layers `T_i^0 ⊂ … ⊂ T_i^{δ+1}` of one subdomain and
/// record, for every vertex reached, the first layer containing it.
fn grow_layers(
    adj: &[Vec<u32>],
    mesh: &Mesh,
    part: &[u32],
    i: u32,
    depth: usize,
) -> (Vec<u32>, HashMap<u32, usize>) {
    let mut in_set = vec![false; adj.len()];
    let mut elems: Vec<u32> = (0..adj.len() as u32)
        .filter(|&e| part[e as usize] == i)
        .collect();
    for &e in &elems {
        in_set[e as usize] = true;
    }
    let mut vertex_layer: HashMap<u32, usize> = HashMap::new();
    for &e in &elems {
        for &v in mesh.element(e as usize) {
            vertex_layer.entry(v).or_insert(0);
        }
    }
    let mut frontier = elems.clone();
    for layer in 1..=depth {
        let mut next = Vec::new();
        for &e in &frontier {
            for &o in &adj[e as usize] {
                if !in_set[o as usize] {
                    in_set[o as usize] = true;
                    next.push(o);
                }
            }
        }
        for &e in &next {
            for &v in mesh.element(e as usize) {
                vertex_layer.entry(v).or_insert(layer);
            }
        }
        elems.extend_from_slice(&next);
        frontier = next;
        if frontier.is_empty() {
            break;
        }
    }
    (elems, vertex_layer)
}

/// Build the decomposition. `part` maps each mesh element to a subdomain
/// in `0..nparts`; `delta ≥ 1` is the overlap width in element layers.
pub fn decompose(
    mesh: &Mesh,
    problem: &Problem,
    part: &[u32],
    nparts: usize,
    delta: usize,
) -> Decomposition {
    assert!(delta >= 1, "overlap δ must be at least 1");
    assert_eq!(part.len(), mesh.n_elements());
    let dm = DofMap::new(mesh, problem.order);
    let c = problem.components(mesh.dim());
    let n_global = dm.n_dofs() * c;

    // Reference global problem (Dirichlet-eliminated).
    let (a_raw, mut rhs_global) = problem.assemble(mesh, &dm);
    let dirichlet = problem.dirichlet_flags(mesh, &dm);
    let a_global = assembly::apply_dirichlet(&a_raw, &mut rhs_global, &dirichlet, None);

    // ---- element layers & PoU vertex values per subdomain -------------
    let adj = mesh.vertex_adjacency();
    let mut layers: Vec<Vec<u32>> = Vec::with_capacity(nparts); // T_i^{δ+1}
    let mut delta_elems: Vec<Vec<u32>> = Vec::with_capacity(nparts); // T_i^δ
    let mut chi_tilde: Vec<HashMap<u32, f64>> = Vec::with_capacity(nparts);
    for i in 0..nparts {
        let (elems_p1, vlayer_p1) = grow_layers(&adj, mesh, part, i as u32, delta + 1);
        let (elems_d, vlayer) = grow_layers(&adj, mesh, part, i as u32, delta);
        let _ = vlayer_p1;
        let chi: HashMap<u32, f64> = vlayer
            .iter()
            .map(|(&v, &m)| (v, 1.0 - m as f64 / delta as f64))
            .collect();
        layers.push(elems_p1);
        delta_elems.push(elems_d);
        chi_tilde.push(chi);
    }
    // Global sum of χ̃ per vertex for the normalization χ_i = χ̃_i / Σ χ̃_j.
    let mut chi_sum: HashMap<u32, f64> = HashMap::new();
    for chi in &chi_tilde {
        for (&v, &x) in chi {
            *chi_sum.entry(v).or_insert(0.0) += x;
        }
    }

    // ---- per-subdomain spaces and matrices ------------------------------
    // First pass: local dof sets (global ids) on V_i^δ.
    let mut sub_meshes_d: Vec<(Mesh, Vec<u32>)> = Vec::with_capacity(nparts);
    let mut l2g_all: Vec<Vec<u32>> = Vec::with_capacity(nparts);
    let mut scalar_l2g_all: Vec<Vec<u32>> = Vec::with_capacity(nparts);
    for i in 0..nparts {
        let (smesh, v_l2g) = build_submesh(mesh, &delta_elems[i]);
        let sdm = DofMap::new(&smesh, problem.order);
        let mut scalar_gids = submesh_dofs_to_global(&sdm, &v_l2g, &dm);
        scalar_gids.sort_unstable();
        scalar_gids.dedup();
        // Expand scalar → vector dofs (already ascending since components
        // of one scalar dof are contiguous).
        let l2g: Vec<u32> = scalar_gids
            .iter()
            .flat_map(|&s| (0..c as u32).map(move |k| s * c as u32 + k))
            .collect();
        sub_meshes_d.push((smesh, v_l2g));
        scalar_l2g_all.push(scalar_gids);
        l2g_all.push(l2g);
    }

    // Membership: global scalar dof → subdomains containing it.
    let mut dof_subs: Vec<Vec<u32>> = vec![Vec::new(); dm.n_dofs()];
    for (i, gids) in scalar_l2g_all.iter().enumerate() {
        for &g in gids {
            dof_subs[g as usize].push(i as u32);
        }
    }

    let mut subdomains = Vec::with_capacity(nparts);
    for i in 0..nparts {
        let scalar_gids = &scalar_l2g_all[i];
        let l2g = &l2g_all[i];

        let n_local = l2g.len();

        // ---- Neumann matrix on V_i^δ, canonical ordering ----
        let (smesh_d, vl2g_d) = &sub_meshes_d[i];
        let sdm_d = DofMap::new(smesh_d, problem.order);
        let (a_neu_raw, _) = problem.assemble(smesh_d, &sdm_d);
        let local_gids_d = submesh_dofs_to_global(&sdm_d, vl2g_d, &dm);
        // position of each canonical scalar dof in the submesh numbering
        let mut g2pos: HashMap<u32, usize> = HashMap::new();
        for (p, &g) in local_gids_d.iter().enumerate() {
            g2pos.insert(g, p);
        }
        let perm_vec: Vec<usize> = scalar_gids
            .iter()
            .flat_map(|g| {
                let p = g2pos[g];
                (0..c).map(move |k| p * c + k)
            })
            .collect();
        let mut a_neumann = a_neu_raw.principal_submatrix(&perm_vec);
        // Eliminate the *global* essential BCs locally (identity rows/cols)
        // — interface dofs stay free (Neumann/unassembled character).
        let dir_local: Vec<bool> = l2g.iter().map(|&g| dirichlet[g as usize]).collect();
        let mut dummy_rhs = vec![0.0; n_local];
        a_neumann = assembly::apply_dirichlet(&a_neumann, &mut dummy_rhs, &dir_local, None);

        // ---- Dirichlet matrix ----
        // Approach 2: assemble on V_i^{δ+1}, eliminate BCs, restrict to
        // V_i^δ.
        let a_dirichlet = {
            let (smesh_p1, vl2g_p1) = build_submesh(mesh, &layers[i]);
            let sdm_p1 = DofMap::new(&smesh_p1, problem.order);
            let (a_p1_raw, _) = problem.assemble(&smesh_p1, &sdm_p1);
            let gids_p1 = submesh_dofs_to_global(&sdm_p1, &vl2g_p1, &dm);
            let dir_p1: Vec<bool> = (0..sdm_p1.n_dofs() * c)
                .map(|vd| dirichlet[gids_p1[vd / c] as usize * c + vd % c])
                .collect();
            let mut dummy = vec![0.0; sdm_p1.n_dofs() * c];
            let a_p1 = assembly::apply_dirichlet(&a_p1_raw, &mut dummy, &dir_p1, None);
            let mut g2pos_p1: HashMap<u32, usize> = HashMap::new();
            for (p, &g) in gids_p1.iter().enumerate() {
                g2pos_p1.insert(g, p);
            }
            let idx: Vec<usize> = scalar_gids
                .iter()
                .flat_map(|g| {
                    let p = g2pos_p1[g];
                    (0..c).map(move |k| p * c + k)
                })
                .collect();
            a_p1.principal_submatrix(&idx)
        };

        // ---- partition of unity D_i interpolated onto the dofs ----
        let chi = &chi_tilde[i];
        let mut d = vec![0.0; n_local];
        for (s, &g) in scalar_gids.iter().enumerate() {
            let key = dm.key(g as usize);
            let order = problem.order as f64;
            let mut val = 0.0;
            for &(v, a) in key {
                let xi = chi.get(&v).copied().unwrap_or(0.0);
                let denom = chi_sum.get(&v).copied().unwrap_or(1.0).max(1e-300);
                val += a as f64 / order * (xi / denom);
            }
            for k in 0..c {
                d[s * c + k] = val;
            }
        }

        // ---- neighbors and shared dofs ----
        let mut shared_by_nbr: HashMap<u32, Vec<u32>> = HashMap::new();
        let mut overlap = vec![false; n_local];
        for (s, &g) in scalar_gids.iter().enumerate() {
            for &j in &dof_subs[g as usize] {
                if j as usize != i {
                    for k in 0..c {
                        shared_by_nbr.entry(j).or_default().push((s * c + k) as u32);
                        overlap[s * c + k] = true;
                    }
                }
            }
        }
        let mut neighbors: Vec<NeighborLink> = shared_by_nbr
            .into_iter()
            .map(|(j, mut shared)| {
                shared.sort_unstable(); // local order == global order (l2g sorted)
                NeighborLink {
                    j: j as usize,
                    shared,
                }
            })
            .collect();
        neighbors.sort_by_key(|n| n.j);

        let mut coords = Vec::with_capacity(n_scalar_coords(scalar_gids.len(), mesh.dim()));
        for &g in scalar_gids.iter() {
            coords.extend_from_slice(dm.dof_coord(g as usize));
        }
        let a_dirichlet_bsr = if c > 1 {
            BsrMatrix::detect_padded(&a_dirichlet)
        } else {
            None
        };
        subdomains.push(Subdomain {
            l2g: l2g.clone(),
            a_dirichlet,
            a_dirichlet_bsr,
            a_neumann,
            d,
            overlap,
            neighbors,
            dirichlet: dir_local,
            coords,
            dim: mesh.dim(),
        });
    }

    Decomposition {
        n_global,
        delta,
        components: c,
        subdomains,
        a_global,
        rhs_global,
        dirichlet,
    }
}

impl Decomposition {
    pub fn n_subdomains(&self) -> usize {
        self.subdomains.len()
    }

    /// `Σ_i R_iᵀ D_i R_i x` — must equal `x` (eq. 2). Returns the result
    /// for testing.
    pub fn pou_apply(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.n_global];
        for s in &self.subdomains {
            let xi = s.restrict(x);
            let mut w = xi;
            vector::scale_by(&s.d, &mut w);
            s.prolong_add(&w, &mut y);
        }
        y
    }

    /// Maximum deviation of the partition of unity from the identity.
    pub fn pou_defect(&self) -> f64 {
        let x: Vec<f64> = (0..self.n_global)
            .map(|i| 1.0 + (i % 17) as f64 * 0.25)
            .collect();
        let y = self.pou_apply(&x);
        x.iter()
            .zip(&y)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max)
    }

    /// Distributed matrix–vector product via eq. (5):
    /// `(Ax)_i = Σ_j R_i R_jᵀ A_j D_j x_j`, executed sequentially over
    /// subdomains (the SPMD driver does the same with real messages).
    /// Inputs and outputs are consistent local vectors (`x_i = R_i x`).
    pub fn dist_spmv(&self, locals: &[Vec<f64>]) -> Vec<Vec<f64>> {
        assert_eq!(locals.len(), self.n_subdomains());
        // t_j = A_j D_j x_j
        let t: Vec<Vec<f64>> = self
            .subdomains
            .iter()
            .zip(locals)
            .map(|(s, x)| {
                let mut w = x.clone();
                vector::scale_by(&s.d, &mut w);
                let mut y = vec![0.0; s.n_local()];
                s.spmv_dirichlet(&w, &mut y);
                y
            })
            .collect();
        // y_i = t_i + Σ_{j∈O_i} R_i R_jᵀ t_j
        let mut out = t.clone();
        for (i, s) in self.subdomains.iter().enumerate() {
            for link in &s.neighbors {
                let other = &self.subdomains[link.j];
                let back = other
                    .neighbors
                    .iter()
                    .find(|l| l.j == i)
                    .expect("asymmetric neighbor links");
                assert_eq!(back.shared.len(), link.shared.len());
                for (&mine, &theirs) in link.shared.iter().zip(&back.shared) {
                    out[i][mine as usize] += t[link.j][theirs as usize];
                }
            }
        }
        out
    }

    /// Restrict a global vector to all subdomains.
    pub fn to_locals(&self, x: &[f64]) -> Vec<Vec<f64>> {
        self.subdomains.iter().map(|s| s.restrict(x)).collect()
    }

    /// The parameterized family `A(θ) = A + θ·diag(A)` (a uniform
    /// zeroth-order / reaction perturbation): every non-Dirichlet diagonal
    /// entry of the global matrix and of each subdomain matrix is scaled by
    /// `1 + θ`. Because `A_i = R_i A R_iᵀ`, local diagonals equal global
    /// diagonals, so eq. 2/5 consistency between the global operator and
    /// the subdomain restrictions is preserved *exactly*. Dirichlet rows
    /// stay untouched (they encode boundary conditions, not the operator).
    ///
    /// This is the admissibility workload of the abstract GenEO theory: for
    /// bounded `θ` the coarse space `Z` built at `θ = 0` remains an
    /// effective coarse space for `A(θ)` — `dd-serve` exploits this to
    /// reuse a resident [`crate::PreparedMulti`] across the family.
    pub fn perturb_diag(&self, theta: f64) -> Decomposition {
        let mut out = self.clone();
        scale_diag(&mut out.a_global, theta, &self.dirichlet);
        for sub in &mut out.subdomains {
            scale_diag(&mut sub.a_dirichlet, theta, &sub.dirichlet);
            // The blocked companion holds a copy of the values: rebuilt
            // from the scaled matrix, it cannot go stale against it.
            if sub.a_dirichlet_bsr.is_some() {
                sub.a_dirichlet_bsr = BsrMatrix::detect_padded(&sub.a_dirichlet);
            }
            scale_diag(&mut sub.a_neumann, theta, &sub.dirichlet);
        }
        out
    }

    /// A copy of this decomposition with the global right-hand side
    /// replaced — the one-shot differential reference for a served request
    /// (`try_run_spmd` always solves against `rhs_global`).
    pub fn with_rhs(&self, rhs: Vec<f64>) -> Decomposition {
        assert_eq!(rhs.len(), self.n_global);
        let mut out = self.clone();
        out.rhs_global = rhs;
        out
    }

    /// Recover a global vector from consistent locals (values on duplicated
    /// dofs must agree; the first owner wins).
    pub fn from_locals(&self, locals: &[Vec<f64>]) -> Vec<f64> {
        let mut y = vec![0.0; self.n_global];
        let mut set = vec![false; self.n_global];
        for (s, l) in self.subdomains.iter().zip(locals) {
            for (k, &g) in s.l2g.iter().enumerate() {
                if !set[g as usize] {
                    y[g as usize] = l[k];
                    set[g as usize] = true;
                }
            }
        }
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::presets;
    use dd_part::partition_mesh_rcb;

    fn small_setup(order: usize, nparts: usize, delta: usize) -> (Mesh, Decomposition) {
        let mesh = Mesh::unit_square(8, 8);
        let part = partition_mesh_rcb(&mesh, nparts);
        let p = presets::uniform_diffusion(order);
        let d = decompose(&mesh, &p, &part, nparts, delta);
        (mesh, d)
    }

    #[test]
    fn partition_of_unity_is_identity() {
        for order in [1usize, 2, 3] {
            for delta in [1usize, 2] {
                let (_, d) = small_setup(order, 4, delta);
                assert!(
                    d.pou_defect() < 1e-12,
                    "PoU defect {} for P{order}, δ={delta}",
                    d.pou_defect()
                );
            }
        }
    }

    #[test]
    fn approach2_matches_global_extraction() {
        // The core claim of §2: assembling on V_i^{δ+1} and restricting
        // gives exactly R_i A R_iᵀ, without ever forming A. Uniform and
        // heterogeneous diffusion in 2D, and 3D elasticity, whose vector
        // dofs also carry the BSR companion.
        let square = Mesh::unit_square(8, 8);
        let cube = Mesh::unit_cube(3, 3, 3);
        let cases = [
            ("uniform P2", &square, presets::uniform_diffusion(2)),
            (
                "heterogeneous P2",
                &square,
                presets::heterogeneous_diffusion(2),
            ),
            (
                "elasticity 3D P2",
                &cube,
                presets::heterogeneous_elasticity(2, 3),
            ),
        ];
        for (name, mesh, p) in cases {
            let part = partition_mesh_rcb(mesh, 4);
            let d = decompose(mesh, &p, &part, 4, 1);
            let tol = 1e-10 * d.a_global.norm_inf();
            for (i, s) in d.subdomains.iter().enumerate() {
                let idx: Vec<usize> = s.l2g.iter().map(|&g| g as usize).collect();
                let reference = d.a_global.principal_submatrix(&idx);
                let diff = s.a_dirichlet.add_scaled(-1.0, &reference);
                let err = diff.values().iter().fold(0.0f64, |m, v| m.max(v.abs()));
                assert!(
                    err < tol,
                    "{name}, subdomain {i}: approach-2 mismatch {err}"
                );
                assert_eq!(s.a_dirichlet_bsr.is_some(), d.components > 1, "{name}");
                // The product through the blocked storage is R_i A R_iᵀ's.
                let n = s.n_local();
                let (mut got, mut want) = (vec![0.0; n], vec![0.0; n]);
                for k in 1..4 {
                    let x: Vec<f64> = (0..n).map(|j| (0.7 * (j * k) as f64).sin()).collect();
                    s.spmv_dirichlet(&x, &mut got);
                    reference.spmv(&x, &mut want);
                    let err = vector::dist2(&got, &want);
                    assert!(
                        err < tol * n as f64,
                        "{name}, subdomain {i}: product error {err}"
                    );
                }
            }
        }
    }

    #[test]
    fn neighbor_links_symmetric_and_consistent() {
        let (_, d) = small_setup(1, 6, 2);
        for (i, s) in d.subdomains.iter().enumerate() {
            for link in &s.neighbors {
                let other = &d.subdomains[link.j];
                let back = other
                    .neighbors
                    .iter()
                    .find(|l| l.j == i)
                    .expect("missing back link");
                assert_eq!(back.shared.len(), link.shared.len());
                // Shared dofs reference the same global ids in order.
                for (&a, &b) in link.shared.iter().zip(&back.shared) {
                    assert_eq!(s.l2g[a as usize], other.l2g[b as usize]);
                }
            }
        }
    }

    #[test]
    fn dist_spmv_matches_global() {
        for (order, nparts, delta) in [(1usize, 4usize, 1usize), (2, 6, 2), (3, 4, 1)] {
            let (_, d) = small_setup(order, nparts, delta);
            let x: Vec<f64> = (0..d.n_global)
                .map(|i| ((i * 31) % 13) as f64 * 0.3 - 1.0)
                .collect();
            let locals = d.to_locals(&x);
            let out = d.dist_spmv(&locals);
            let mut want = vec![0.0; d.n_global];
            d.a_global.spmv(&x, &mut want);
            // Each local result must equal R_i (A x).
            for (s, o) in d.subdomains.iter().zip(&out) {
                let want_i = s.restrict(&want);
                let err = vector::dist2(o, &want_i);
                assert!(
                    err < 1e-9 * vector::norm2(&want_i).max(1.0),
                    "P{order} N={nparts} δ={delta}: dist spmv error {err}"
                );
            }
        }
    }

    #[test]
    fn overlap_flags_match_neighbor_sharing() {
        let (_, d) = small_setup(1, 4, 1);
        for s in &d.subdomains {
            let mut from_links = vec![false; s.n_local()];
            for link in &s.neighbors {
                for &l in &link.shared {
                    from_links[l as usize] = true;
                }
            }
            assert_eq!(from_links, s.overlap);
        }
    }

    #[test]
    fn pou_supported_inside_not_on_artificial_boundary() {
        // D_i vanishes on the outermost layer of the overlap and is 1 well
        // inside the subdomain.
        let (_, d) = small_setup(1, 4, 1);
        for s in &d.subdomains {
            let interior_ones =
                s.d.iter()
                    .zip(&s.overlap)
                    .filter(|&(_, &ov)| !ov)
                    .all(|(&v, _)| (v - 1.0).abs() < 1e-12);
            assert!(interior_ones, "D_i ≠ 1 on interior dofs");
            assert!(s.d.iter().all(|&v| (0.0..=1.0 + 1e-12).contains(&v)));
            assert!(s.d.contains(&0.0), "no zero PoU values");
        }
    }

    #[test]
    fn neumann_matrix_is_positive_semidefinite() {
        let (_, d) = small_setup(1, 4, 1);
        for s in &d.subdomains {
            // xᵀ A^Neu x ≥ 0 for a few deterministic vectors.
            for seed in 0..5u64 {
                let x: Vec<f64> = (0..s.n_local())
                    .map(|k| {
                        (((k as u64 + 1) * (seed + 3) * 2654435761) % 1000) as f64 / 500.0 - 1.0
                    })
                    .collect();
                let mut y = vec![0.0; s.n_local()];
                s.a_neumann.spmv(&x, &mut y);
                let q = vector::dot(&x, &y);
                assert!(q >= -1e-8 * s.a_neumann.norm_inf(), "negative energy {q}");
            }
        }
    }

    #[test]
    fn elasticity_decomposition_builds() {
        let mesh = Mesh::rectangle(8, 4, 2.0, 1.0);
        let part = partition_mesh_rcb(&mesh, 4);
        let p = presets::heterogeneous_elasticity(1, 2);
        let d = decompose(&mesh, &p, &part, 4, 1);
        assert_eq!(d.components, 2);
        assert!(d.pou_defect() < 1e-12);
        // vector dofs come in pairs
        for s in &d.subdomains {
            assert_eq!(s.n_local() % 2, 0);
        }
    }

    #[test]
    fn locals_roundtrip() {
        let (_, d) = small_setup(2, 4, 1);
        let x: Vec<f64> = (0..d.n_global).map(|i| i as f64).collect();
        let locals = d.to_locals(&x);
        let back = d.from_locals(&locals);
        assert_eq!(x, back);
    }
}
