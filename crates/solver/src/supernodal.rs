//! Supernodal (multifrontal) LDLᵀ with dense blocked panels.
//!
//! The up-looking solver in [`crate::ldlt`] touches every nonzero of `L`
//! through an indirect index — fine for symbolic work, but the numeric
//! factorization then runs at pointer-chasing speed, which is exactly the
//! gap the paper fills with MKL PARDISO / MUMPS for the subdomain solves.
//! This module closes that gap natively: columns with (nearly) identical
//! patterns are aggregated into *supernodes*, each supernode is factored
//! inside a dense frontal matrix, and the trailing update — where almost
//! all flops live — becomes a tiled `C ← C − (L·D)·Lᵀ` running on the
//! register-blocked [`dd_linalg::smallgemm::gemm_nt_minus`] kernel.
//!
//! The algorithm is the classic multifrontal method:
//!
//! 1. elimination tree + column counts ([`crate::ldlt::etree_and_counts`]);
//! 2. fundamental supernodes (`parent[j-1] = j` and
//!    `lnz[j-1] = lnz[j] + 1`), then *relaxed amalgamation*: a supernode is
//!    merged into a column-contiguous parent when the explicit zeros this
//!    introduces stay below a small fraction of the merged panel — this is
//!    what turns band-like patterns (where fundamental supernodes have
//!    width 1) into wide panels;
//! 3. per-supernode frontal assembly: original matrix entries plus the
//!    *extend-add* of the children's Schur complements via relative
//!    indices;
//! 4. blocked partial LDLᵀ of the first `w` front columns (unblocked panel
//!    factor + tiled trailing update), with the same MUMPS-style static
//!    pivot boosting as the scalar path.
//!
//! The scalar [`crate::SparseLdlt`] stays the differential oracle: both
//! factorizations are pinned against each other to 1e-12 in
//! `tests/kernel_differential.rs`, and `kernel_bench` gates the speedup.

use crate::ldlt::{etree_and_counts, permuted, LdltError, Ordering, PivotPolicy};
use crate::ordering;
use dd_linalg::smallgemm::gemm_nt_minus;
use dd_linalg::CsrMatrix;

const NONE: usize = usize::MAX;

/// Panel width for the blocked partial factorization.
const NB: usize = 32;
/// Column-strip width for the tiled trailing update.
const TS: usize = 64;
/// Amalgamation: absolute number of explicit zeros always tolerated.
const RELAX_ABS: usize = 64;
/// Amalgamation: tolerated explicit-zero fraction of the merged panel.
const RELAX_FRAC: f64 = 0.25;
/// Amalgamation: supernodes at or below this width always merge (subject to
/// contiguity and parent conditions).
const RELAX_TINY: usize = 8;

/// Supernodal factorization `P A Pᵀ = L D Lᵀ`, stored as dense panels.
pub struct SupernodalLdlt {
    n: usize,
    /// `perm[i]` = original index placed at position `i` after reordering.
    perm: Vec<usize>,
    /// Column range of supernode `s`: `sn_col[s]..sn_col[s+1]` (permuted).
    sn_col: Vec<usize>,
    /// Row structure of supernode `s`: `rows[rows_ptr[s]..rows_ptr[s+1]]`,
    /// ascending; the first `width(s)` entries are the supernode's own
    /// columns.
    rows_ptr: Vec<usize>,
    rows: Vec<u32>,
    /// Dense panels: supernode `s` stores its `nr × w` slice of `L`
    /// column-major at `panels[panel_ptr[s]..]` (unit diagonal implicit,
    /// zeros above it).
    panel_ptr: Vec<usize>,
    panels: Vec<f64>,
    d: Vec<f64>,
    /// Permuted columns whose pivot was boosted — excluded from the ABFT
    /// reconstruction check, since boosting deliberately changes the
    /// factored matrix at exactly those diagonal entries.
    boosted_cols: Vec<u32>,
}

impl SupernodalLdlt {
    /// Factor a symmetric matrix (full storage) with the given ordering.
    pub fn factor(a: &CsrMatrix, ord: Ordering) -> Result<Self, LdltError> {
        Self::factor_with(a, ord, PivotPolicy::Reject)
    }

    /// Factor with an explicit null-pivot policy (mirrors
    /// [`crate::SparseLdlt::factor_with`]).
    pub fn factor_with(
        a: &CsrMatrix,
        ord: Ordering,
        policy: PivotPolicy,
    ) -> Result<Self, LdltError> {
        Self::factor_ordered(a, &ordering::fill_reducing(a, ord), policy)
    }

    /// Factor under a precomputed elimination order (mirrors
    /// [`crate::SparseLdlt::factor_ordered`]).
    pub fn factor_ordered(
        a: &CsrMatrix,
        perm: &[usize],
        policy: PivotPolicy,
    ) -> Result<Self, LdltError> {
        assert_eq!(a.rows(), a.cols(), "supernodal ldlt: square input");
        assert_eq!(perm.len(), a.rows(), "supernodal ldlt: order length");
        debug_assert!(
            a.symmetry_defect() <= 1e-10 * a.norm_inf().max(1.0),
            "supernodal ldlt: input must be symmetric"
        );
        // Postorder the elimination tree: subtrees become column-contiguous,
        // which is what lets the chain amalgamation below form wide panels
        // on scattered orderings like minimum degree. Pattern-wise this is a
        // pure relabeling (the etree is isomorphic under postorder). The
        // copy under `perm` is only needed for the tree, and is gone before
        // the numeric phase allocates its fronts.
        let full: Vec<usize> = {
            let (parent, _) = etree_and_counts(&permuted(a, perm));
            etree_postorder(&parent).iter().map(|&p| perm[p]).collect()
        };
        Self::factor_permuted(&permuted(a, &full), full, policy)
    }

    fn factor_permuted(
        pa: &CsrMatrix,
        perm: Vec<usize>,
        policy: PivotPolicy,
    ) -> Result<Self, LdltError> {
        let n = pa.rows();
        let (parent, lnz) = etree_and_counts(pa);
        let sn_col = partition_supernodes(&parent, &lnz);
        let nsup = sn_col.len() - 1;

        // Supernode of each column, and the supernodal parent (the
        // supernode containing `parent[last column]`).
        let mut sn_of = vec![0u32; n];
        for s in 0..nsup {
            for j in sn_col[s]..sn_col[s + 1] {
                sn_of[j] = s as u32;
            }
        }
        let sn_parent: Vec<usize> = (0..nsup)
            .map(|s| {
                let last = sn_col[s + 1] - 1;
                if parent[last] == NONE {
                    NONE
                } else {
                    sn_of[parent[last]] as usize
                }
            })
            .collect();

        // Children lists in ascending child order.
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); nsup];
        for s in 0..nsup {
            if sn_parent[s] != NONE {
                children[sn_parent[s]].push(s);
            }
        }

        // Row structure per supernode: own columns, then the union of the
        // children's below-sets and the original entries below the last
        // column.
        let mut rows_ptr = vec![0usize; nsup + 1];
        let mut rows: Vec<u32> = Vec::new();
        let mut mark = vec![u32::MAX; n];
        {
            let mut below_of: Vec<(usize, usize)> = vec![(0, 0); nsup]; // range into `rows`
            let mut scratch: Vec<u32> = Vec::new();
            for s in 0..nsup {
                let (first, last) = (sn_col[s], sn_col[s + 1] - 1);
                scratch.clear();
                for j in first..=last {
                    for (i, _) in pa.row(j) {
                        if i > last && mark[i] != s as u32 {
                            mark[i] = s as u32;
                            scratch.push(i as u32);
                        }
                    }
                }
                for &c in &children[s] {
                    let (bs, be) = below_of[c];
                    for &gi in &rows[bs..be] {
                        let i = gi as usize;
                        if i > last && mark[i] != s as u32 {
                            mark[i] = s as u32;
                            scratch.push(gi);
                        }
                    }
                }
                scratch.sort_unstable();
                rows.extend((first..=last).map(|j| j as u32));
                let below_start = rows.len();
                rows.extend_from_slice(&scratch);
                below_of[s] = (below_start, rows.len());
                rows_ptr[s + 1] = rows.len();
            }
        }

        // Numeric phase: multifrontal with per-supernode pending updates.
        let mut panel_ptr = vec![0usize; nsup + 1];
        for s in 0..nsup {
            let nr = rows_ptr[s + 1] - rows_ptr[s];
            let w = sn_col[s + 1] - sn_col[s];
            panel_ptr[s + 1] = panel_ptr[s] + nr * w;
        }
        let mut panels = vec![0.0f64; panel_ptr[nsup]];
        let mut d = vec![0.0f64; n];
        let scale = pa.norm_inf().max(1.0);
        let null_tol = match policy {
            PivotPolicy::Reject => 1e-300,
            PivotPolicy::Boost { rel_tol } => rel_tol,
        };
        let mut boosted_cols: Vec<u32> = Vec::new();

        let mut front: Vec<f64> = Vec::new();
        let mut ld: Vec<f64> = Vec::new();
        let mut relmap = vec![0usize; n];
        // Children Schur complements waiting for their parent's front:
        // (row indices, dense lower nu×nu column-major).
        let mut pending: Vec<Vec<(Vec<u32>, Vec<f64>)>> = vec![Vec::new(); nsup];

        for s in 0..nsup {
            let (first, last) = (sn_col[s], sn_col[s + 1] - 1);
            let w = last - first + 1;
            let srows = &rows[rows_ptr[s]..rows_ptr[s + 1]];
            let nr = srows.len();
            for (li, &gi) in srows.iter().enumerate() {
                relmap[gi as usize] = li;
                mark[gi as usize] = s as u32;
            }
            // The front buffer is reused across supernodes; only its lower
            // triangle is ever read (the factor tolerates garbage above the
            // diagonal), so only that region needs zeroing.
            if front.len() < nr * nr {
                front.resize(nr * nr, 0.0);
            }
            for j in 0..nr {
                front[j * nr + j..(j + 1) * nr].fill(0.0);
            }

            // Assemble original entries (lower triangle).
            for (jc, j) in (first..=last).enumerate() {
                for (i, v) in pa.row(j) {
                    if i >= j {
                        debug_assert_eq!(mark[i], s as u32, "front misses A row");
                        front[relmap[i] + jc * nr] += v;
                    }
                }
            }
            // Extend-add the children's Schur complements.
            for (crows, cu) in pending[s].drain(..) {
                let nu = crows.len();
                for (cj, &gj) in crows.iter().enumerate() {
                    debug_assert_eq!(mark[gj as usize], s as u32, "front misses child row");
                    let lj = relmap[gj as usize];
                    let fcol = &mut front[lj * nr..(lj + 1) * nr];
                    for ci in cj..nu {
                        fcol[relmap[crows[ci] as usize]] += cu[ci + cj * nu];
                    }
                }
            }

            // Blocked partial LDLᵀ of the first `w` columns.
            let mut jb = 0usize;
            while jb < w {
                let wb = NB.min(w - jb);
                // Unblocked panel factor (left-looking within the panel;
                // earlier panels already applied their trailing update).
                for jc in jb..jb + wb {
                    let gj = first + jc;
                    for p in jb..jc {
                        let coef = front[jc + p * nr] * d[first + p];
                        if coef != 0.0 {
                            let (pcol, rest) = front.split_at_mut((p + 1) * nr);
                            let pcol = &pcol[p * nr..];
                            let jcol = &mut rest[(jc - p - 1) * nr..(jc - p) * nr];
                            for i in jc..nr {
                                jcol[i] -= coef * pcol[i];
                            }
                        }
                    }
                    let mut dj = front[jc + jc * nr];
                    if dj.abs() <= null_tol * scale || !dj.is_finite() {
                        match policy {
                            PivotPolicy::Reject => {
                                return Err(LdltError::ZeroPivot {
                                    step: gj,
                                    pivot: dj,
                                });
                            }
                            PivotPolicy::Boost { .. } => {
                                dj = scale / f64::EPSILON;
                                boosted_cols.push(gj as u32);
                            }
                        }
                    }
                    d[gj] = dj;
                    let inv = 1.0 / dj;
                    for i in jc + 1..nr {
                        front[i + jc * nr] *= inv;
                    }
                }
                // Tiled trailing update `C ← C − (L·D)·Lᵀ` for everything
                // below/right of the panel.
                let tail0 = jb + wb;
                let nt = nr - tail0;
                if nt > 0 {
                    ld.clear();
                    ld.resize(nt * wb, 0.0);
                    for p in 0..wb {
                        let dp = d[first + jb + p];
                        let src = &front[(jb + p) * nr + tail0..(jb + p) * nr + nr];
                        let dst = &mut ld[p * nt..(p + 1) * nt];
                        for (o, &v) in dst.iter_mut().zip(src) {
                            *o = v * dp;
                        }
                    }
                    let (head, tail) = front.split_at_mut(tail0 * nr);
                    let mut t0 = 0usize;
                    while t0 < nt {
                        let tc = TS.min(nt - t0);
                        gemm_nt_minus(
                            nt - t0,
                            tc,
                            wb,
                            &ld[t0..],
                            nt,
                            &head[jb * nr + tail0 + t0..],
                            nr,
                            &mut tail[t0 * nr + tail0 + t0..],
                            nr,
                        );
                        t0 += tc;
                    }
                }
                jb += wb;
            }

            // Store the panel (zeros above the unit diagonal).
            let pslice = &mut panels[panel_ptr[s]..panel_ptr[s + 1]];
            for jc in 0..w {
                let src = &front[jc * nr + jc + 1..(jc + 1) * nr];
                pslice[jc * nr + jc + 1..(jc + 1) * nr].copy_from_slice(src);
            }

            // Park the Schur complement for the supernodal parent.
            let nu = nr - w;
            if nu > 0 {
                let p = sn_parent[s];
                debug_assert_ne!(p, NONE, "non-root supernode with empty parent");
                let mut u = vec![0.0f64; nu * nu];
                for cj in 0..nu {
                    let src = &front[(w + cj) * nr + w + cj..(w + cj + 1) * nr];
                    u[cj * nu + cj..(cj + 1) * nu].copy_from_slice(src);
                }
                pending[p].push((srows[w..].to_vec(), u));
            }
        }

        Ok(SupernodalLdlt {
            n,
            perm,
            sn_col,
            rows_ptr,
            rows,
            panel_ptr,
            panels,
            d,
            boosted_cols,
        })
    }

    /// Order of the factored matrix.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of supernodes.
    pub fn n_supernodes(&self) -> usize {
        self.sn_col.len() - 1
    }

    /// Widest supernode panel.
    pub fn max_width(&self) -> usize {
        (0..self.n_supernodes())
            .map(|s| self.sn_col[s + 1] - self.sn_col[s])
            .max()
            .unwrap_or(0)
    }

    /// Stored entries of `L` including the diagonal and any explicit
    /// amalgamation zeros (the dense-panel footprint).
    pub fn nnz_l(&self) -> usize {
        let mut nnz = self.n;
        for s in 0..self.n_supernodes() {
            let nr = self.rows_ptr[s + 1] - self.rows_ptr[s];
            let w = self.sn_col[s + 1] - self.sn_col[s];
            nnz += w * nr - w * (w + 1) / 2;
        }
        nnz
    }

    /// Number of pivots boosted under [`PivotPolicy::Boost`].
    pub fn n_boosted(&self) -> usize {
        self.boosted_cols.len()
    }

    /// Matrix inertia (#negative, #zero, #positive pivots).
    pub fn inertia(&self) -> (usize, usize, usize) {
        let mut neg = 0;
        let mut zer = 0;
        let mut pos = 0;
        for &dj in &self.d {
            if dj < 0.0 {
                neg += 1;
            } else if dj == 0.0 {
                zer += 1;
            } else {
                pos += 1;
            }
        }
        (neg, zer, pos)
    }

    /// Solve `A x = b` in place.
    pub fn solve_in_place(&self, b: &mut [f64]) {
        self.solve_in_place_with(b, &mut Vec::new());
    }

    /// [`SupernodalLdlt::solve_in_place`] with the permuted work vector
    /// taken from the caller: `z` is overwritten and grows to `n` once, so
    /// a caller that keeps it solves without allocating.
    pub fn solve_in_place_with(&self, b: &mut [f64], z: &mut Vec<f64>) {
        assert_eq!(b.len(), self.n);
        let nsup = self.n_supernodes();
        // z = P b
        z.clear();
        z.extend(self.perm.iter().map(|&p| b[p]));
        let z = z.as_mut_slice();
        // L y = z, panel by panel.
        for s in 0..nsup {
            let srows = &self.rows[self.rows_ptr[s]..self.rows_ptr[s + 1]];
            let nr = srows.len();
            let w = self.sn_col[s + 1] - self.sn_col[s];
            let panel = &self.panels[self.panel_ptr[s]..self.panel_ptr[s + 1]];
            for jc in 0..w {
                let zj = z[self.sn_col[s] + jc];
                if zj != 0.0 {
                    let col = &panel[jc * nr..(jc + 1) * nr];
                    for li in jc + 1..nr {
                        z[srows[li] as usize] -= col[li] * zj;
                    }
                }
            }
        }
        // D w = y
        for j in 0..self.n {
            z[j] /= self.d[j];
        }
        // Lᵀ x = w, reverse panel order.
        for s in (0..nsup).rev() {
            let srows = &self.rows[self.rows_ptr[s]..self.rows_ptr[s + 1]];
            let nr = srows.len();
            let w = self.sn_col[s + 1] - self.sn_col[s];
            let panel = &self.panels[self.panel_ptr[s]..self.panel_ptr[s + 1]];
            for jc in (0..w).rev() {
                let col = &panel[jc * nr..(jc + 1) * nr];
                let mut acc = z[self.sn_col[s] + jc];
                for li in jc + 1..nr {
                    acc -= col[li] * z[srows[li] as usize];
                }
                z[self.sn_col[s] + jc] = acc;
            }
        }
        // b = Pᵀ z
        for (i, &p) in self.perm.iter().enumerate() {
            b[p] = z[i];
        }
    }

    /// Solve into a fresh vector.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = b.to_vec();
        self.solve_in_place(&mut x);
        x
    }

    /// Solve for several right-hand sides stored as columns.
    pub fn solve_mat(&self, b: &dd_linalg::DMat) -> dd_linalg::DMat {
        assert_eq!(b.rows(), self.n);
        let mut x = b.clone();
        let mut z = Vec::new();
        for j in 0..b.cols() {
            self.solve_in_place_with(x.col_mut(j), &mut z);
        }
        x
    }

    /// ABFT column-checksum verification of the stored factor against the
    /// original matrix, reported per supernode panel.
    ///
    /// The checksum identity is `eᵀ(P A Pᵀ) = eᵀ(L D Lᵀ) = (tᵀD) Lᵀ` with
    /// `t = Lᵀe` the column sums of `L` — so both sides cost one pass over
    /// the stored entries (`O(nnz_A + nnz_L)`), no reconstruction. Columns
    /// of `P A Pᵀ` sum as rows of `A` (full symmetric storage), and a
    /// silent bit flip in any panel value or pivot perturbs the `LDLᵀ`
    /// side of exactly the columns its supernode owns, which is what lets
    /// the defect name the poisoned panel. Boosted pivot columns are
    /// excluded: boosting deliberately edits those diagonal entries.
    ///
    /// `a` must be the matrix this factorization was computed from.
    // dd:cold — opt-in integrity check, off the exact-alloc kernel tier
    pub fn verify_abft(&self, a: &CsrMatrix) -> Result<(), PanelDefect> {
        assert_eq!(a.rows(), self.n, "verify_abft: dimension mismatch");
        let n = self.n;
        let nsup = self.n_supernodes();
        // eᵀ(P A Pᵀ) per permuted column j = row sum of A at row perm[j].
        let mut s = vec![0.0f64; n];
        let mut s_abs = vec![0.0f64; n];
        for j in 0..n {
            for (_, v) in a.row(self.perm[j]) {
                s[j] += v;
                s_abs[j] += v.abs();
            }
        }
        // t_p = Σ_i L_ip (unit diagonal included), and the |·| variant.
        let mut t = vec![1.0f64; n];
        let mut t_abs = vec![1.0f64; n];
        for sn in 0..nsup {
            let nr = self.rows_ptr[sn + 1] - self.rows_ptr[sn];
            let w = self.sn_col[sn + 1] - self.sn_col[sn];
            let panel = &self.panels[self.panel_ptr[sn]..self.panel_ptr[sn + 1]];
            for jc in 0..w {
                let p = self.sn_col[sn] + jc;
                for &v in &panel[jc * nr + jc + 1..(jc + 1) * nr] {
                    t[p] += v;
                    t_abs[p] += v.abs();
                }
            }
        }
        // c_j = Σ_p t_p d_p L_jp — scatter each stored entry of column p
        // (plus its implicit unit diagonal) into the checksum of row j.
        let mut c = vec![0.0f64; n];
        let mut c_abs = vec![0.0f64; n];
        for sn in 0..nsup {
            let srows = &self.rows[self.rows_ptr[sn]..self.rows_ptr[sn + 1]];
            let nr = srows.len();
            let w = self.sn_col[sn + 1] - self.sn_col[sn];
            let panel = &self.panels[self.panel_ptr[sn]..self.panel_ptr[sn + 1]];
            for jc in 0..w {
                let p = self.sn_col[sn] + jc;
                let (tp, tpa) = (t[p] * self.d[p], t_abs[p] * self.d[p].abs());
                c[p] += tp;
                c_abs[p] += tpa;
                for li in jc + 1..nr {
                    let v = panel[jc * nr + li];
                    c[srows[li] as usize] += tp * v;
                    c_abs[srows[li] as usize] += tpa * v.abs();
                }
            }
        }
        let eps = PANEL_ABFT_SAFETY * (n.max(1) as f64) * f64::EPSILON;
        for sn in 0..nsup {
            for j in self.sn_col[sn]..self.sn_col[sn + 1] {
                if self.boosted_cols.contains(&(j as u32)) {
                    continue;
                }
                let defect = (s[j] - c[j]).abs();
                let bound = eps * (s_abs[j] + c_abs[j]).max(1.0);
                if defect > bound || !defect.is_finite() {
                    return Err(PanelDefect {
                        supernode: sn,
                        column: j,
                        defect,
                        bound,
                    });
                }
            }
        }
        Ok(())
    }

    /// Flip one bit of the `index`-th *nonzero* stored panel value — the
    /// test/chaos hook for modeling a silent in-memory corruption of the
    /// factor. (Amalgamation zeros are skipped: flipping a mantissa bit of
    /// `0.0` yields a denormal too small to matter or detect.)
    #[doc(hidden)]
    pub fn corrupt_panel_value_for_tests(&mut self, index: usize, bit: u32) {
        let nsup = self.n_supernodes();
        let mut seen: usize = 0;
        for sn in 0..nsup {
            let nr = self.rows_ptr[sn + 1] - self.rows_ptr[sn];
            let w = self.sn_col[sn + 1] - self.sn_col[sn];
            for jc in 0..w {
                for li in jc + 1..nr {
                    let at = self.panel_ptr[sn] + jc * nr + li;
                    if self.panels[at] != 0.0 {
                        if seen == index {
                            self.panels[at] =
                                f64::from_bits(self.panels[at].to_bits() ^ (1u64 << bit));
                            return;
                        }
                        seen += 1;
                    }
                }
            }
        }
        panic!("corrupt_panel_value_for_tests: index {index} out of range");
    }
}

/// Safety factor on the `n·ε` accumulation bound of
/// [`SupernodalLdlt::verify_abft`].
const PANEL_ABFT_SAFETY: f64 = 64.0;

/// One failed panel checksum from [`SupernodalLdlt::verify_abft`].
#[derive(Debug, Clone, PartialEq)]
pub struct PanelDefect {
    /// Supernode whose column group failed.
    pub supernode: usize,
    /// Permuted column with the failing checksum.
    pub column: usize,
    /// `|eᵀ(PAPᵀ)_j − eᵀ(LDLᵀ)_j|`.
    pub defect: f64,
    /// The accumulation bound the defect exceeded.
    pub bound: f64,
}

impl std::fmt::Display for PanelDefect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "panel checksum defect {:.3e} (bound {:.3e}) in supernode {} column {}",
            self.defect, self.bound, self.supernode, self.column
        )
    }
}

/// Postorder of the elimination forest: `post[k]` = node visited k-th, with
/// children explored in ascending order (deterministic).
fn etree_postorder(parent: &[usize]) -> Vec<usize> {
    let n = parent.len();
    let mut head = vec![NONE; n];
    let mut next = vec![NONE; n];
    // Prepend in reverse so each node's child list comes out ascending.
    for j in (0..n).rev() {
        if parent[j] != NONE {
            next[j] = head[parent[j]];
            head[parent[j]] = j;
        }
    }
    let mut post = Vec::with_capacity(n);
    let mut stack: Vec<usize> = Vec::new();
    for r in 0..n {
        if parent[r] != NONE {
            continue;
        }
        stack.push(r);
        while let Some(&top) = stack.last() {
            let c = head[top];
            if c != NONE {
                head[top] = next[c];
                stack.push(c);
            } else {
                post.push(top);
                stack.pop();
            }
        }
    }
    debug_assert_eq!(post.len(), n);
    post
}

/// Fundamental supernodes relaxed by amalgamation: returns the column
/// partition as `sn_col` boundaries (length `n_super + 1`).
fn partition_supernodes(parent: &[usize], lnz: &[usize]) -> Vec<usize> {
    let n = parent.len();
    if n == 0 {
        return vec![0];
    }
    // Fundamental partition.
    let mut starts: Vec<usize> = vec![0];
    for j in 1..n {
        if parent[j - 1] != j || lnz[j - 1] != lnz[j] + 1 {
            starts.push(j);
        }
    }
    starts.push(n);

    // Cascading amalgamation over a stack of finalized groups. When a new
    // group `g` arrives, any stack top that is a column-contiguous *child*
    // of `g` (its last column's etree parent lies inside `g`) may fold into
    // it if the explicit zeros stay small; folding repeats, so after a
    // parent absorbs its last child, earlier sibling subtrees get their
    // chance too — this is what forms wide panels on postordered
    // minimum-degree trees where plain left-to-right chaining stalls at
    // sibling boundaries.
    struct Group {
        first: usize,
        last: usize,
        /// Rows strictly below the group's column range (count).
        below: usize,
        /// True subdiagonal nonzeros of the group's columns (Σ lnz).
        truth: usize,
    }
    let mut stack: Vec<Group> = Vec::new();
    for t in 0..starts.len() - 1 {
        let (first, last) = (starts[t], starts[t + 1] - 1);
        let w = last + 1 - first;
        let mut g = Group {
            first,
            last,
            below: lnz[first] + 1 - w,
            truth: (first..=last).map(|j| lnz[j]).sum(),
        };
        while let Some(top) = stack.last() {
            let p = parent[top.last];
            if p == NONE || p < g.first || p > g.last {
                break;
            }
            let wm = g.last + 1 - top.first;
            let stored = wm * (wm - 1) / 2 + wm * g.below;
            let truth = top.truth + g.truth;
            let extra = stored.saturating_sub(truth);
            if extra <= RELAX_ABS
                || (extra as f64) <= RELAX_FRAC * stored as f64
                || wm <= RELAX_TINY
            {
                let top = stack.pop().unwrap();
                g = Group {
                    first: top.first,
                    last: g.last,
                    below: g.below,
                    truth,
                };
            } else {
                break;
            }
        }
        stack.push(g);
    }
    let mut merged: Vec<usize> = stack.iter().map(|g| g.first).collect();
    merged.push(n);
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SparseLdlt;
    use dd_linalg::{vector, CooBuilder};

    fn laplacian_3d(nx: usize) -> CsrMatrix {
        let n = nx * nx * nx;
        let id = |i: usize, j: usize, k: usize| i + nx * (j + nx * k);
        let mut b = CooBuilder::new(n, n);
        for k in 0..nx {
            for j in 0..nx {
                for i in 0..nx {
                    let u = id(i, j, k);
                    b.push(u, u, 6.0);
                    let mut link = |v: usize| {
                        b.push(u, v, -1.0);
                        b.push(v, u, -1.0);
                    };
                    if i + 1 < nx {
                        link(id(i + 1, j, k));
                    }
                    if j + 1 < nx {
                        link(id(i, j + 1, k));
                    }
                    if k + 1 < nx {
                        link(id(i, j, k + 1));
                    }
                }
            }
        }
        b.to_csr()
    }

    fn check_against_scalar(a: &CsrMatrix, ord: Ordering) {
        let n = a.rows();
        let sup = SupernodalLdlt::factor(a, ord).unwrap();
        let sca = SparseLdlt::factor(a, ord).unwrap();
        let b: Vec<f64> = (0..n).map(|i| ((i * 13 + 5) % 17) as f64 - 8.0).collect();
        let xs = sup.solve(&b);
        let xr = sca.solve(&b);
        let err = vector::dist2(&xs, &xr) / vector::norm2(&xr).max(1.0);
        assert!(err <= 1e-12, "supernodal vs scalar: {err:e}");
        // Residual check too.
        let mut ax = vec![0.0; n];
        a.spmv(&xs, &mut ax);
        let res = vector::dist2(&ax, &b) / vector::norm2(&b).max(1.0);
        assert!(res <= 1e-10, "supernodal residual: {res:e}");
    }

    #[test]
    fn matches_scalar_on_3d_laplacian_all_orderings() {
        let a = laplacian_3d(7);
        for ord in [Ordering::Natural, Ordering::Rcm, Ordering::MinDegree] {
            check_against_scalar(&a, ord);
        }
    }

    #[test]
    fn forms_wide_supernodes_on_banded_fill() {
        let a = laplacian_3d(8);
        let f = SupernodalLdlt::factor(&a, Ordering::MinDegree).unwrap();
        assert!(f.n_supernodes() < a.rows() / 2, "amalgamation too weak");
        assert!(f.max_width() >= 8, "no wide panels formed");
    }

    #[test]
    fn boost_matches_scalar_on_singular_matrix() {
        // Tridiagonal SPD chain on 0..n-2 plus a decoupled rank-one 2×2
        // block [[1,1],[1,1]] on the last two dofs: exactly one null pivot.
        let n = 12;
        let mut b = CooBuilder::new(n, n);
        for i in 0..n - 2 {
            b.push(i, i, 2.0);
            if i + 1 < n - 2 {
                b.push(i, i + 1, -1.0);
                b.push(i + 1, i, -1.0);
            }
        }
        b.push(n - 2, n - 2, 1.0);
        b.push(n - 2, n - 1, 1.0);
        b.push(n - 1, n - 2, 1.0);
        b.push(n - 1, n - 1, 1.0);
        let a = b.to_csr();
        let policy = PivotPolicy::Boost { rel_tol: 1e-12 };
        let sup = SupernodalLdlt::factor_with(&a, Ordering::Natural, policy).unwrap();
        let sca = SparseLdlt::factor_with(&a, Ordering::Natural, policy).unwrap();
        assert_eq!(sup.n_boosted(), sca.n_boosted());
        let rhs: Vec<f64> = (0..n).map(|i| (i % 5) as f64 - 2.0).collect();
        let xs = sup.solve(&rhs);
        let xr = sca.solve(&rhs);
        let err = vector::dist2(&xs, &xr) / vector::norm2(&xr).max(1.0);
        assert!(err <= 1e-10, "boosted solve differs: {err:e}");
    }

    #[test]
    fn rejects_zero_pivot_like_scalar() {
        let mut b = CooBuilder::new(2, 2);
        b.push(0, 1, 1.0);
        b.push(1, 0, 1.0);
        let a = b.to_csr();
        assert!(matches!(
            SupernodalLdlt::factor(&a, Ordering::Natural),
            Err(LdltError::ZeroPivot { .. })
        ));
    }

    #[test]
    fn singleton_and_empty_matrices() {
        let mut b = CooBuilder::new(1, 1);
        b.push(0, 0, 3.0);
        let f = SupernodalLdlt::factor(&b.to_csr(), Ordering::Natural).unwrap();
        assert_eq!(f.solve(&[6.0]), vec![2.0]);
        let e = CooBuilder::new(0, 0).to_csr();
        let f0 = SupernodalLdlt::factor(&e, Ordering::Natural).unwrap();
        assert_eq!(f0.n(), 0);
        assert_eq!(f0.n_supernodes(), 0);
    }

    #[test]
    fn abft_passes_clean_factors_and_names_the_poisoned_panel() {
        let a = laplacian_3d(6);
        for ord in [Ordering::Natural, Ordering::MinDegree] {
            let f = SupernodalLdlt::factor(&a, ord).unwrap();
            f.verify_abft(&a)
                .unwrap_or_else(|d| panic!("clean factor flagged: {d}"));
        }
        // Flip a high mantissa bit in one stored panel value: the checksum
        // must break, and the defect must name the owning supernode.
        let mut f = SupernodalLdlt::factor(&a, Ordering::MinDegree).unwrap();
        f.corrupt_panel_value_for_tests(f.nnz_l() / 3, 51);
        let d = f
            .verify_abft(&a)
            .expect_err("corrupted panel must be detected");
        assert!(d.defect > d.bound, "{d}");
        assert!(d.supernode < f.n_supernodes());
        // A corrupted pivot is caught too.
        let mut g = SupernodalLdlt::factor(&a, Ordering::Rcm).unwrap();
        let k = g.d.len() / 2;
        g.d[k] = f64::from_bits(g.d[k].to_bits() ^ (1 << 52));
        assert!(g.verify_abft(&a).is_err(), "corrupted pivot not detected");
    }

    #[test]
    fn abft_tolerates_boosted_pivots() {
        // Same singular matrix as the boost test: the boosted column is
        // excluded, everything else must still verify.
        let n = 12;
        let mut b = CooBuilder::new(n, n);
        for i in 0..n - 2 {
            b.push(i, i, 2.0);
            if i + 1 < n - 2 {
                b.push(i, i + 1, -1.0);
                b.push(i + 1, i, -1.0);
            }
        }
        b.push(n - 2, n - 2, 1.0);
        b.push(n - 2, n - 1, 1.0);
        b.push(n - 1, n - 2, 1.0);
        b.push(n - 1, n - 1, 1.0);
        let a = b.to_csr();
        let policy = PivotPolicy::Boost { rel_tol: 1e-12 };
        let f = SupernodalLdlt::factor_with(&a, Ordering::Natural, policy).unwrap();
        assert_eq!(f.n_boosted(), 1);
        f.verify_abft(&a)
            .unwrap_or_else(|d| panic!("boosted factor flagged: {d}"));
    }

    #[test]
    fn inertia_matches_scalar() {
        let a = laplacian_3d(5);
        let sup = SupernodalLdlt::factor(&a, Ordering::MinDegree).unwrap();
        let sca = SparseLdlt::factor(&a, Ordering::MinDegree).unwrap();
        assert_eq!(sup.inertia(), sca.inertia());
        assert_eq!(sup.inertia(), (0, 0, a.rows()));
    }
}
