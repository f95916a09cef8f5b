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
//! 1. elimination tree + column counts of `A(perm, perm)`, read from `A`
//!    through the inverse order
//!    ([`crate::ldlt::etree_and_counts_ordered`]), then relabeled by the
//!    tree's postorder — `A` itself is never permuted or copied;
//! 2. fundamental supernodes (`parent[j-1] = j` and
//!    `lnz[j-1] = lnz[j] + 1`), then *relaxed amalgamation*: a supernode is
//!    merged into a column-contiguous parent when the explicit zeros this
//!    introduces stay below a small fraction of the merged panel — this is
//!    what turns band-like patterns (where fundamental supernodes have
//!    width 1) into wide panels;
//! 3. per-supernode frontal assembly: original matrix entries plus the
//!    *extend-add* of the children's update matrices via relative indices.
//!    A front's `w` fully summed columns are assembled in place in the
//!    factor's own panel; its update block in one reused square buffer,
//!    parked afterwards as a packed lower triangle on a stack (postorder
//!    puts a front's children on top of it, in order);
//! 4. blocked partial LDLᵀ of the panel (unblocked panel factor + tiled
//!    trailing update, whose strips are split at the panel's edge), with
//!    the same MUMPS-style static pivot boosting as the scalar path.
//!
//! The scalar kernel ([`crate::SparseLdlt`]) stays the differential
//! oracle: both factorizations are pinned against each other to 1e-12 in
//! `tests/kernel_differential.rs`, and `kernel_bench` gates the speedup.
//! Both are reached through [`crate::LocalLdlt`].

use crate::ldlt::{check_panel, inverse, panel_blocks, row, row_mut, LdltError, PivotPolicy};
use dd_linalg::smallgemm::{gemm_nt_minus, MAX_K};
use dd_linalg::CsrMatrix;

const NONE: usize = usize::MAX;

/// Panel width for the blocked partial factorization: the depth of every
/// trailing-update product.
const NB: usize = 32;
const _: () = assert!(NB <= MAX_K);
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
    /// The largest row count of any supernode (the solve's gather buffer).
    max_rows: usize,
    /// Dense panels: supernode `s` stores its `nr × w` slice of `L`
    /// column-major at `panels[panel_ptr[s]..]` (unit diagonal implicit;
    /// zeros on and above it).
    panel_ptr: Vec<usize>,
    panels: Vec<f64>,
    d: Vec<f64>,
    /// Permuted columns whose pivot was boosted — excluded from the ABFT
    /// reconstruction check, since boosting deliberately changes the
    /// factored matrix at exactly those diagonal entries.
    boosted_cols: Vec<u32>,
}

impl SupernodalLdlt {
    /// Factor `A(perm, perm)` with its elimination tree and column counts
    /// ([`crate::ldlt::etree_and_counts_ordered`]) already computed by the
    /// caller. `A` is read in place through the inverse of the final
    /// order: no permuted copy is formed.
    pub(crate) fn factor_analysed(
        a: &CsrMatrix,
        perm: &[usize],
        parent: &[usize],
        lnz: &[usize],
        policy: PivotPolicy,
    ) -> Result<Self, LdltError> {
        let n = a.rows();
        // Postorder the elimination tree: subtrees become column-contiguous,
        // which is what lets the chain amalgamation below form wide panels
        // on scattered orderings like minimum degree, and what lets the
        // update matrices live on one stack. A postorder is an equivalent
        // order, so the tree and the column counts of the postordered matrix
        // are those of `A(perm, perm)` relabeled, not computed again.
        let (parent, lnz, perm) = {
            let post = etree_postorder(parent);
            let ipost = inverse(&post);
            let relabeled: Vec<usize> = post
                .iter()
                .map(|&j| match parent[j] {
                    NONE => NONE,
                    p => ipost[p],
                })
                .collect();
            let lnz: Vec<usize> = post.iter().map(|&j| lnz[j]).collect();
            let perm: Vec<usize> = post.iter().map(|&j| perm[j]).collect();
            (relabeled, lnz, perm)
        };
        // Row `j` of the postordered matrix is row `perm[j]` of `A`, its
        // columns relabeled by `iperm`.
        let iperm = inverse(&perm);
        let sn_col = partition_supernodes(&parent, &lnz);
        let nsup = sn_col.len() - 1;

        // The supernodal parent of each supernode: the supernode containing
        // `parent[last column]`.
        let sn_parent: Vec<usize> = {
            let mut sn_of = vec![0u32; n];
            for s in 0..nsup {
                sn_of[sn_col[s]..sn_col[s + 1]].fill(s as u32);
            }
            (0..nsup)
                .map(|s| match parent[sn_col[s + 1] - 1] {
                    NONE => NONE,
                    p => sn_of[p] as usize,
                })
                .collect()
        };

        // Row structure per supernode: own columns, then the union of the
        // children's below-sets and the original entries below the last
        // column. The supernodes are postordered too, so a supernode's
        // children are the ones on top of a stack of finished supernodes
        // that still wait for their parent.
        // The same walk sizes the numeric phase's workspace: the largest
        // update block, and the most that the stack of parked blocks,
        // `nu (nu + 1) / 2` values each, ever holds.
        let packed = |nu: usize| nu * (nu + 1) / 2;
        let mut rows_ptr = vec![0usize; nsup + 1];
        let mut rows: Vec<u32> = Vec::new();
        let mut mark = vec![u32::MAX; n];
        let (mut max_nu, mut stack_peak) = (0usize, 0usize);
        {
            let mut waiting: Vec<usize> = Vec::new();
            let mut stacked = 0usize;
            let mut scratch: Vec<u32> = Vec::new();
            for s in 0..nsup {
                let (first, last) = (sn_col[s], sn_col[s + 1] - 1);
                scratch.clear();
                for j in first..=last {
                    for (i, _) in a.row(perm[j]) {
                        let i = iperm[i];
                        if i > last && mark[i] != s as u32 {
                            mark[i] = s as u32;
                            scratch.push(i as u32);
                        }
                    }
                }
                let kids = children_on_top(&waiting, &sn_parent, s);
                for &c in &waiting[kids..] {
                    let below = rows_ptr[c] + sn_col[c + 1] - sn_col[c]..rows_ptr[c + 1];
                    stacked -= packed(below.len());
                    for &gi in &rows[below] {
                        let i = gi as usize;
                        if i > last && mark[i] != s as u32 {
                            mark[i] = s as u32;
                            scratch.push(gi);
                        }
                    }
                }
                waiting.truncate(kids);
                waiting.push(s);
                max_nu = max_nu.max(scratch.len());
                stacked += packed(scratch.len());
                stack_peak = stack_peak.max(stacked);
                scratch.sort_unstable();
                rows.extend((first..=last).map(|j| j as u32));
                rows.extend_from_slice(&scratch);
                rows_ptr[s + 1] = rows.len();
            }
        }
        // The rows of `s` below its own columns: its update block's.
        let below = |s: usize| &rows[rows_ptr[s] + sn_col[s + 1] - sn_col[s]..rows_ptr[s + 1]];

        // Numeric phase: multifrontal. The fully summed columns of a front
        // are its panel, assembled and factored in place; its update block
        // is formed in one reused square buffer and parked, as a packed
        // lower triangle, on a stack until its parent's front is assembled.
        let mut panel_ptr = vec![0usize; nsup + 1];
        for s in 0..nsup {
            let nr = rows_ptr[s + 1] - rows_ptr[s];
            let w = sn_col[s + 1] - sn_col[s];
            panel_ptr[s + 1] = panel_ptr[s] + nr * w;
        }
        let mut panels = vec![0.0f64; panel_ptr[nsup]];
        let mut d = vec![0.0f64; n];
        // A pivot is null relative to `‖A(perm, perm)‖∞`.
        let null_tol = match policy {
            PivotPolicy::Reject => 1e-300,
            PivotPolicy::Boost { rel_tol } => rel_tol,
        };
        let scale = norm_inf_ordered(a, &perm, &iperm).max(1.0);
        let mut boosted_cols: Vec<u32> = Vec::new();

        let mut update = vec![0.0f64; max_nu * max_nu];
        let mut ld: Vec<f64> = Vec::new();
        let mut relmap = vec![0usize; n];
        // Supernodes whose update matrix waits for their parent's front,
        // and those matrices, packed lower triangles one after the other.
        let mut parked: Vec<usize> = Vec::new();
        let mut stack: Vec<f64> = Vec::with_capacity(stack_peak);

        for s in 0..nsup {
            let (first, last) = (sn_col[s], sn_col[s + 1] - 1);
            let w = last - first + 1;
            let srows = &rows[rows_ptr[s]..rows_ptr[s + 1]];
            let nr = srows.len();
            let nu = nr - w;
            for (li, &gi) in srows.iter().enumerate() {
                relmap[gi as usize] = li;
                mark[gi as usize] = s as u32;
            }
            // The front is the panel's `nr × w` (zeroed at allocation) beside
            // the `nu × nu` update block. The update buffer is reused across
            // supernodes; only its lower triangle is ever read, so only
            // that region needs zeroing.
            let panel = &mut panels[panel_ptr[s]..panel_ptr[s + 1]];
            for j in 0..nu {
                update[j * nu + j..(j + 1) * nu].fill(0.0);
            }

            // Assemble original entries (lower triangle).
            for (jc, j) in (first..=last).enumerate() {
                for (i, v) in a.row(perm[j]) {
                    let i = iperm[i];
                    if i >= j {
                        debug_assert_eq!(mark[i], s as u32, "front misses A row");
                        panel[relmap[i] + jc * nr] += v;
                    }
                }
            }
            // Extend-add the children's update matrices, ascending: they are
            // the top of the stack, in that order.
            let kids = children_on_top(&parked, &sn_parent, s);
            let base = stack.len()
                - parked[kids..]
                    .iter()
                    .map(|&c| packed(below(c).len()))
                    .sum::<usize>();
            let mut cu = &stack[base..];
            for &c in &parked[kids..] {
                let crows = below(c);
                for (cj, &gj) in crows.iter().enumerate() {
                    debug_assert_eq!(mark[gj as usize], s as u32, "front misses child row");
                    let lj = relmap[gj as usize];
                    let (col, off) = if lj < w {
                        (&mut panel[lj * nr..(lj + 1) * nr], 0)
                    } else {
                        (&mut update[(lj - w) * nu..(lj - w + 1) * nu], w)
                    };
                    let (ccol, rest) = cu.split_at(crows.len() - cj);
                    for (&gi, &v) in crows[cj..].iter().zip(ccol) {
                        col[relmap[gi as usize] - off] += v;
                    }
                    cu = rest;
                }
            }
            stack.truncate(base);
            parked.truncate(kids);

            // Blocked partial LDLᵀ of the panel.
            let mut jb = 0usize;
            while jb < w {
                let wb = NB.min(w - jb);
                // Unblocked panel factor (left-looking within the panel;
                // earlier panels already applied their trailing update).
                for jc in jb..jb + wb {
                    let gj = first + jc;
                    for p in jb..jc {
                        let coef = panel[jc + p * nr] * d[first + p];
                        if coef != 0.0 {
                            let (pcol, rest) = panel.split_at_mut((p + 1) * nr);
                            let pcol = &pcol[p * nr..];
                            let jcol = &mut rest[(jc - p - 1) * nr..(jc - p) * nr];
                            for i in jc..nr {
                                jcol[i] -= coef * pcol[i];
                            }
                        }
                    }
                    let mut dj = panel[jc + jc * nr];
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
                        panel[i + jc * nr] *= inv;
                    }
                }
                // Tiled trailing update `C ← C − (L·D)·Lᵀ` of every front
                // column right of the block, in strips of `TS` columns. A
                // strip that straddles the panel's edge `w` is split there:
                // its columns left of `w` are panel columns, the others
                // update-block columns, and every entry of the lower
                // triangle receives the same `c −= Σ_p a·b` either way.
                let tail0 = jb + wb;
                let nt = nr - tail0;
                if nt > 0 {
                    ld.clear();
                    ld.resize(nt * wb, 0.0);
                    for p in 0..wb {
                        let dp = d[first + jb + p];
                        let src = &panel[(jb + p) * nr + tail0..(jb + p) * nr + nr];
                        let dst = &mut ld[p * nt..(p + 1) * nt];
                        for (o, &v) in dst.iter_mut().zip(src) {
                            *o = v * dp;
                        }
                    }
                    let (head, tail) = panel.split_at_mut(tail0 * nr);
                    let lb = &head[jb * nr..];
                    let mut c0 = tail0;
                    while c0 < nr {
                        let c1 = (c0 + TS).min(nr);
                        if c0 < w {
                            let c = c1.min(w);
                            gemm_nt_minus(
                                nr - c0,
                                c - c0,
                                wb,
                                &ld[c0 - tail0..],
                                nt,
                                &lb[c0..],
                                nr,
                                &mut tail[(c0 - tail0) * nr + c0..],
                                nr,
                            );
                        }
                        if c1 > w {
                            let c = c0.max(w);
                            gemm_nt_minus(
                                nr - c,
                                c1 - c,
                                wb,
                                &ld[c - tail0..],
                                nt,
                                &lb[c..],
                                nr,
                                &mut update[(c - w) * nu + c - w..],
                                nu,
                            );
                        }
                        c0 = c1;
                    }
                }
                jb += wb;
            }
            // The panel keeps zeros on and above the unit diagonal: clear
            // the pivots and what the trailing updates left there.
            for jc in 0..w {
                panel[jc * nr..jc * nr + jc + 1].fill(0.0);
            }

            // Park the update block, packed, for the supernodal parent.
            if nu > 0 {
                debug_assert_ne!(sn_parent[s], NONE, "non-root supernode with empty parent");
                parked.push(s);
                for cj in 0..nu {
                    stack.extend_from_slice(&update[cj * nu + cj..(cj + 1) * nu]);
                }
            }
        }
        debug_assert!(parked.is_empty(), "update matrices left unassembled");

        Ok(SupernodalLdlt {
            n,
            perm,
            max_rows: (0..nsup)
                .map(|s| rows_ptr[s + 1] - rows_ptr[s])
                .max()
                .unwrap_or(0),
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
    pub(crate) fn n(&self) -> usize {
        self.n
    }

    /// Number of supernodes.
    pub fn n_supernodes(&self) -> usize {
        self.sn_col.len() - 1
    }

    /// The elimination order: position `i` of the factored matrix is row
    /// `perm()[i]` of `A`.
    pub(crate) fn perm(&self) -> &[usize] {
        &self.perm
    }

    /// The pivots `D`, in elimination order.
    pub(crate) fn d(&self) -> &[f64] {
        &self.d
    }

    /// Column `j` of `L` below its unit diagonal, as the solves read it:
    /// the row positions (ascending) and the panel's values, explicit
    /// amalgamation zeros included.
    pub(crate) fn l_column(&self, j: usize) -> (&[u32], &[f64]) {
        let s = self.sn_col.partition_point(|&c| c <= j) - 1;
        let (nr, jc) = (self.rows_ptr[s + 1] - self.rows_ptr[s], j - self.sn_col[s]);
        let col = &self.panels[self.panel_ptr[s] + jc * nr..self.panel_ptr[s] + (jc + 1) * nr];
        (
            &self.rows[self.rows_ptr[s] + jc + 1..self.rows_ptr[s + 1]],
            &col[jc + 1..],
        )
    }

    /// Stored entries of `L` including the diagonal and any explicit
    /// amalgamation zeros (the dense-panel footprint).
    pub(crate) fn nnz_l(&self) -> usize {
        let mut nnz = self.n;
        for s in 0..self.n_supernodes() {
            let nr = self.rows_ptr[s + 1] - self.rows_ptr[s];
            let w = self.sn_col[s + 1] - self.sn_col[s];
            nnz += w * nr - w * (w + 1) / 2;
        }
        nnz
    }

    /// Number of pivots boosted under [`PivotPolicy::Boost`].
    pub(crate) fn n_boosted(&self) -> usize {
        self.boosted_cols.len()
    }

    /// Solve `k` right-hand sides in place, column `c` at
    /// `b[c * ld..c * ld + n]`, with `z` the caller's work vector —
    /// [`crate::SparseLdlt::solve_panel_with`]'s contract. A block of
    /// columns shares every gather, scatter and read of a panel; a single
    /// solve is the block of width 1.
    ///
    /// Each supernode gathers its rows into a dense local block once, runs
    /// its column loops there and scatters back; the operations and their
    /// order are those of the per-column scatter loop, so the result is the
    /// same to the bit. Summation order, in every column: the forward sweep
    /// subtracts `L[i,j]·y_j` from `z_i` column by column, in ascending `j`
    /// and, within a column, in ascending row, and skips a column whose
    /// `y_j` is zero. The backward sweep forms `x_j = w_j − s_j`, where
    /// `s_j` is [`dd_linalg::vector::dot`] of the panel column below the
    /// diagonal with the gathered rows below `j`: four lanes and a tail,
    /// not one chain.
    pub(crate) fn solve_panel_with(&self, b: &mut [f64], ld: usize, k: usize, z: &mut Vec<f64>) {
        check_panel(b.len(), self.n, ld, k);
        for (c0, width) in panel_blocks(k) {
            let cols = &mut b[c0 * ld..];
            match width {
                8 => self.solve_block::<8>(cols, ld, z),
                4 => self.solve_block::<4>(cols, ld, z),
                2 => self.solve_block::<2>(cols, ld, z),
                _ => self.solve_block::<1>(cols, ld, z),
            }
        }
    }

    /// [`SupernodalLdlt::solve_panel_with`] on `B` columns at once, a row's
    /// `B` values side by side in `z` and in the gathered block, so that
    /// the rows below a column are one contiguous run.
    // dd:hot — the panel's local solves, once per Krylov step
    fn solve_block<const B: usize>(&self, b: &mut [f64], ld: usize, z: &mut Vec<f64>) {
        let n = self.n;
        let nsup = self.n_supernodes();
        // z = P b, the gathered rows after it
        z.clear();
        z.resize((n + self.max_rows) * B, 0.0);
        let (z, gathered) = z.split_at_mut(n * B);
        for (i, &p) in self.perm.iter().enumerate() {
            let zi = row_mut::<B>(z, i);
            for c in 0..B {
                zi[c] = b[c * ld + p];
            }
        }
        let gather = |loc: &mut [f64], z: &[f64], srows: &[u32]| {
            for (li, &gi) in srows.iter().enumerate() {
                *row_mut::<B>(loc, li) = *row::<B>(z, gi as usize);
            }
        };
        // L y = z, panel by panel; a zero entry skips its column's update
        // in its own column only (the skip is visible in the sign of a zero)
        for s in 0..nsup {
            let srows = &self.rows[self.rows_ptr[s]..self.rows_ptr[s + 1]];
            let nr = srows.len();
            let w = self.sn_col[s + 1] - self.sn_col[s];
            let panel = &self.panels[self.panel_ptr[s]..self.panel_ptr[s + 1]];
            let loc = &mut gathered[..nr * B];
            gather(loc, z, srows);
            for jc in 0..w {
                let (head, below) = loc.split_at_mut((jc + 1) * B);
                let zj = *row::<B>(head, jc);
                let nonzero = zj.iter().filter(|v| **v != 0.0).count();
                if nonzero == 0 {
                    continue;
                }
                let col = &panel[jc * nr + jc + 1..(jc + 1) * nr];
                let rows = below.chunks_exact_mut(B).zip(col);
                if nonzero == B {
                    for (zr, &l) in rows {
                        for c in 0..B {
                            zr[c] -= l * zj[c];
                        }
                    }
                } else {
                    for (zr, &l) in rows {
                        for c in 0..B {
                            if zj[c] != 0.0 {
                                zr[c] -= l * zj[c];
                            }
                        }
                    }
                }
            }
            for (li, &gi) in srows.iter().enumerate() {
                *row_mut::<B>(z, gi as usize) = *row::<B>(loc, li);
            }
        }
        // D w = y
        for (j, &dj) in self.d.iter().enumerate() {
            for v in row_mut::<B>(z, j) {
                *v /= dj;
            }
        }
        // Lᵀ x = w, reverse panel order; only the supernode's own columns
        // (its first `w` rows, contiguous) change
        for s in (0..nsup).rev() {
            let srows = &self.rows[self.rows_ptr[s]..self.rows_ptr[s + 1]];
            let nr = srows.len();
            let (first, w) = (self.sn_col[s], self.sn_col[s + 1] - self.sn_col[s]);
            let panel = &self.panels[self.panel_ptr[s]..self.panel_ptr[s + 1]];
            let loc = &mut gathered[..nr * B];
            gather(loc, z, srows);
            for jc in (0..w).rev() {
                let (head, below) = loc.split_at_mut((jc + 1) * B);
                let s = lane_sum::<B>(&panel[jc * nr + jc + 1..(jc + 1) * nr], below);
                let xj = row_mut::<B>(head, jc);
                for c in 0..B {
                    xj[c] -= s[c];
                }
            }
            z[first * B..(first + w) * B].copy_from_slice(&loc[..w * B]);
        }
        // b = Pᵀ z
        for (i, &p) in self.perm.iter().enumerate() {
            let zi = row::<B>(z, i);
            for c in 0..B {
                b[c * ld + p] = zi[c];
            }
        }
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
    /// excluded: boosting deliberately edits those diagonal entries. Panel
    /// column `jc` is read from row `jc + 1` down: on and above its
    /// diagonal the panel, in which the front was factored, holds zeros
    /// (the pivots live in `d`).
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

/// `Σ_q l[q]·x[q·B + c]` for each of `B` columns of `x`, whose rows hold
/// `B` values side by side, summed in [`dd_linalg::vector::dot`]'s order:
/// term `q < 4⌊len/4⌋` goes to lane `q mod 4`, the rest to a tail, and the
/// result is `(((lane 0 + lane 1) + lane 2) + lane 3) + tail`. Column `c`
/// holds the bits of `vector::dot(l, x_c)` whatever `B` is.
#[inline(always)]
fn lane_sum<const B: usize>(l: &[f64], x: &[f64]) -> [f64; B] {
    debug_assert_eq!(x.len(), l.len() * B);
    let mut acc = [[0.0f64; B]; 4];
    let (mut l4, mut x4) = (l.chunks_exact(4), x.chunks_exact(4 * B));
    for (lq, xq) in l4.by_ref().zip(x4.by_ref()) {
        for (lane, acc) in acc.iter_mut().enumerate() {
            for c in 0..B {
                acc[c] += lq[lane] * xq[lane * B + c];
            }
        }
    }
    let mut tail = [0.0f64; B];
    for (&lq, xq) in l4.remainder().iter().zip(x4.remainder().chunks_exact(B)) {
        for c in 0..B {
            tail[c] += lq * xq[c];
        }
    }
    std::array::from_fn(|c| acc[0][c] + acc[1][c] + acc[2][c] + acc[3][c] + tail[c])
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

/// `‖A(perm, perm)‖∞` summed as the permuted matrix would sum it: each row
/// in ascending order of its relabeled columns.
fn norm_inf_ordered(a: &CsrMatrix, perm: &[usize], iperm: &[usize]) -> f64 {
    let mut row: Vec<(usize, f64)> = Vec::new();
    let mut norm = 0.0f64;
    for &r in perm {
        row.clear();
        row.extend(a.row(r).map(|(c, v)| (iperm[c], v.abs())));
        row.sort_unstable_by_key(|&(c, _)| c);
        norm = norm.max(row.iter().map(|&(_, v)| v).sum());
    }
    norm
}

/// Where the children of supernode `s` begin on a stack of finished
/// supernodes still waiting for their parent. In a postordered tree they
/// are the entries on top, in ascending order, and nothing else is above.
fn children_on_top(waiting: &[usize], sn_parent: &[usize], s: usize) -> usize {
    waiting
        .iter()
        .rposition(|&c| sn_parent[c] != s)
        .map_or(0, |k| k + 1)
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
pub(crate) mod tests {
    use super::*;
    use crate::ldlt::Ordering;
    use crate::{ordering, LdltBackend, LocalLdlt};
    use dd_linalg::{vector, CooBuilder};

    /// `a` factored on this kernel under `perm`.
    fn factor_ordered(
        a: &CsrMatrix,
        perm: &[usize],
        policy: PivotPolicy,
    ) -> Result<SupernodalLdlt, LdltError> {
        match LocalLdlt::factor_ordered(a, perm, policy, LdltBackend::Supernodal)? {
            LocalLdlt::Supernodal(f) => Ok(f),
            LocalLdlt::Scalar(_) => unreachable!("the kernel is forced"),
        }
    }

    fn factor_with(
        a: &CsrMatrix,
        ord: Ordering,
        policy: PivotPolicy,
    ) -> Result<SupernodalLdlt, LdltError> {
        factor_ordered(a, &ordering::fill_reducing(a, ord), policy)
    }

    fn factor(a: &CsrMatrix, ord: Ordering) -> Result<SupernodalLdlt, LdltError> {
        factor_with(a, ord, PivotPolicy::Reject)
    }

    /// One right-hand side, solved as a panel of width 1.
    fn solve(f: &SupernodalLdlt, b: &[f64]) -> Vec<f64> {
        let mut x = b.to_vec();
        f.solve_panel_with(&mut x, b.len(), 1, &mut Vec::new());
        x
    }

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
        let sup = factor(a, ord).unwrap();
        let sca = LocalLdlt::factor(a, ord, LdltBackend::Scalar).unwrap();
        let b: Vec<f64> = (0..n).map(|i| ((i * 13 + 5) % 17) as f64 - 8.0).collect();
        let xs = solve(&sup, &b);
        let xr = sca.solve(&b);
        let err = vector::dist2(&xs, &xr) / vector::norm2(&xr).max(1.0);
        assert!(err <= 1e-12, "supernodal vs scalar: {err:e}");
        // Residual check too.
        let mut ax = vec![0.0; n];
        a.spmv(&xs, &mut ax);
        let res = vector::dist2(&ax, &b) / vector::norm2(&b).max(1.0);
        assert!(res <= 1e-10, "supernodal residual: {res:e}");
    }

    /// The solve as a per-column scatter loop through `rows[…]` — the
    /// oracle the gathered-panel solve is pinned to.
    fn solve_scattered(f: &SupernodalLdlt, b: &[f64]) -> Vec<f64> {
        let mut z: Vec<f64> = f.perm.iter().map(|&p| b[p]).collect();
        for s in 0..f.n_supernodes() {
            let srows = &f.rows[f.rows_ptr[s]..f.rows_ptr[s + 1]];
            let nr = srows.len();
            let w = f.sn_col[s + 1] - f.sn_col[s];
            let panel = &f.panels[f.panel_ptr[s]..f.panel_ptr[s + 1]];
            for jc in 0..w {
                let zj = z[f.sn_col[s] + jc];
                if zj != 0.0 {
                    let col = &panel[jc * nr..(jc + 1) * nr];
                    for li in jc + 1..nr {
                        z[srows[li] as usize] -= col[li] * zj;
                    }
                }
            }
        }
        for j in 0..f.n {
            z[j] /= f.d[j];
        }
        for s in (0..f.n_supernodes()).rev() {
            let srows = &f.rows[f.rows_ptr[s]..f.rows_ptr[s + 1]];
            let nr = srows.len();
            let w = f.sn_col[s + 1] - f.sn_col[s];
            let panel = &f.panels[f.panel_ptr[s]..f.panel_ptr[s + 1]];
            for jc in (0..w).rev() {
                let col = &panel[jc * nr..(jc + 1) * nr];
                let below: Vec<f64> = srows[jc + 1..].iter().map(|&r| z[r as usize]).collect();
                z[f.sn_col[s] + jc] -= vector::dot(&col[jc + 1..], &below);
            }
        }
        let mut x = vec![0.0; f.n];
        for (i, &p) in f.perm.iter().enumerate() {
            x[p] = z[i];
        }
        x
    }

    /// Random symmetric, diagonally dominant matrix of a random pattern,
    /// from a splitmix64 stream.
    pub(crate) fn random_pattern(seed: u64, n: usize, per_row: usize) -> CsrMatrix {
        let mut state = seed;
        let mut next = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut b = CooBuilder::new(n, n);
        let mut diag = vec![1.0; n];
        for i in 0..n {
            for _ in 0..per_row {
                let j = (next() % n as u64) as usize;
                if j != i {
                    let v = (next() >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
                    b.push(i, j, v);
                    b.push(j, i, v);
                    diag[i] += v.abs();
                    diag[j] += v.abs();
                }
            }
        }
        for (i, d) in diag.iter().enumerate() {
            b.push(i, i, 2.0 * d);
        }
        b.to_csr()
    }

    /// The pattern of a 3D vector (elasticity) assembly on trilinear
    /// elements: three dofs per node of an `nx × ny × nz` grid, coupled in
    /// dense 3×3 blocks to the node itself and its 26 neighbours; the values
    /// are a diagonally dominant splitmix64 draw.
    fn block_stencil_3d(nx: usize, ny: usize, nz: usize) -> CsrMatrix {
        let node = |i: usize, j: usize, k: usize| i + nx * (j + ny * k);
        let mut b = CooBuilder::new(3 * nx * ny * nz, 3 * nx * ny * nz);
        let mut state = 7u64;
        let mut draw = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (state ^ (state >> 31)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            (z >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        for k in 0..nz {
            for j in 0..ny {
                for i in 0..nx {
                    let u = node(i, j, k);
                    for (di, dj, dk) in (0..27).map(|t| (t % 3, t / 3 % 3, t / 9)) {
                        let (p, q, r) = (i + di, j + dj, k + dk);
                        if p < 1 || q < 1 || r < 1 || p > nx || q > ny || r > nz {
                            continue;
                        }
                        let v = node(p - 1, q - 1, r - 1);
                        if v < u {
                            continue;
                        }
                        for (a, c) in (0..9).map(|t| (t % 3, t / 3)) {
                            if v == u && c < a {
                                continue;
                            }
                            let x = if v == u && a == c { 60.0 } else { draw() };
                            b.push(3 * u + a, 3 * v + c, x);
                            if (u, a) != (v, c) {
                                b.push(3 * v + c, 3 * u + a, x);
                            }
                        }
                    }
                }
            }
        }
        b.to_csr()
    }

    /// Flip one bit of the `index`-th *nonzero* stored panel value — the
    /// test/chaos hook for modeling a silent in-memory corruption of the
    /// factor. (Amalgamation zeros are skipped: flipping a mantissa bit of
    /// `0.0` yields a denormal too small to matter or detect.)
    fn corrupt_panel_value(f: &mut SupernodalLdlt, index: usize, bit: u32) {
        let nsup = f.n_supernodes();
        let mut seen: usize = 0;
        for sn in 0..nsup {
            let nr = f.rows_ptr[sn + 1] - f.rows_ptr[sn];
            let w = f.sn_col[sn + 1] - f.sn_col[sn];
            for jc in 0..w {
                for li in jc + 1..nr {
                    let at = f.panel_ptr[sn] + jc * nr + li;
                    if f.panels[at] != 0.0 {
                        if seen == index {
                            f.panels[at] = f64::from_bits(f.panels[at].to_bits() ^ (1u64 << bit));
                            return;
                        }
                        seen += 1;
                    }
                }
            }
        }
        panic!("corrupt_panel_value: index {index} out of range");
    }

    /// Every numeric and structural field but the order, to the bit.
    fn assert_same_factor(f: &SupernodalLdlt, g: &SupernodalLdlt, what: &str) {
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(f.sn_col, g.sn_col, "{what}: supernodes");
        assert_eq!(f.rows_ptr, g.rows_ptr, "{what}: row pointers");
        assert_eq!(f.rows, g.rows, "{what}: rows");
        assert_eq!(bits(&f.panels), bits(&g.panels), "{what}: panels");
        assert_eq!(bits(&f.d), bits(&g.d), "{what}: d");
        assert_eq!(f.boosted_cols, g.boosted_cols, "{what}: boosted");
    }

    /// `A` is never permuted: factoring it under an order is factoring its
    /// permuted copy under the identity, to the bit — panels, pivots and a
    /// solve — under fill-reducing and scrambled orders, and with boosted
    /// pivots, whose value comes from `‖A(perm, perm)‖∞`.
    #[test]
    fn factoring_under_an_order_is_factoring_the_permuted_copy_bitwise() {
        let mut cases = vec![
            (
                "laplacian 3d 6".to_string(),
                laplacian_3d(6),
                PivotPolicy::Reject,
            ),
            (
                "laplacian 3d 9".to_string(),
                laplacian_3d(9),
                PivotPolicy::Reject,
            ),
            (
                "elasticity pattern 5x3x3".to_string(),
                block_stencil_3d(5, 3, 3),
                PivotPolicy::Reject,
            ),
        ];
        for seed in 0..6u64 {
            let n = 40 + 67 * seed as usize;
            let a = random_pattern(seed, n, 2 + seed as usize % 4);
            cases.push((format!("random {seed}"), a, PivotPolicy::Reject));
        }
        // Singular: a random block beside a decoupled rank-one 2×2 block,
        // scaled so that the row sums of `A` round differently in different
        // orders.
        for seed in 0..3u64 {
            let a = random_pattern(100 + seed, 70 + 13 * seed as usize, 3);
            let n = a.rows() + 2;
            let mut b = CooBuilder::new(n, n);
            for i in 0..a.rows() {
                for (j, v) in a.row(i) {
                    b.push(i, j, v * 0.123_456_789);
                }
            }
            for (i, j) in [
                (n - 2, n - 2),
                (n - 2, n - 1),
                (n - 1, n - 2),
                (n - 1, n - 1),
            ] {
                b.push(i, j, 1.0 / 3.0);
            }
            let boost = PivotPolicy::Boost { rel_tol: 1e-12 };
            cases.push((format!("singular {seed}"), b.to_csr(), boost));
        }
        let mut boosted = 0;
        for (c, (name, a, policy)) in cases.iter().enumerate() {
            let n = a.rows();
            let identity: Vec<usize> = (0..n).collect();
            let orders = [
                ("rcm", ordering::fill_reducing(a, Ordering::Rcm)),
                (
                    "min degree",
                    ordering::fill_reducing(a, Ordering::MinDegree),
                ),
                ("scrambled", crate::ldlt::tests::scrambled(c as u64, n)),
            ];
            for (ord, perm) in &orders {
                let what = format!("{name}, {ord}");
                let f = factor_ordered(a, perm, *policy).unwrap();
                let pa = a.permute_sym(perm);
                let g = factor_ordered(&pa, &identity, *policy).unwrap();
                assert_same_factor(&f, &g, &what);
                boosted += f.n_boosted();
                let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
                let x = solve(&f, &b);
                let pb: Vec<f64> = perm.iter().map(|&p| b[p]).collect();
                let px = solve(&g, &pb);
                for (i, &p) in perm.iter().enumerate() {
                    assert_eq!(x[p].to_bits(), px[i].to_bits(), "{what}: solve");
                }
            }
        }
        assert!(boosted > 0, "no boosted pivot was exercised");
    }

    /// An order with a repeated index would leave a row of `A` unread:
    /// it is rejected before any arithmetic, as `permute_sym` rejects it.
    #[test]
    #[should_panic(expected = "duplicate index")]
    fn an_order_with_a_duplicate_index_panics() {
        let a = laplacian_3d(3);
        let mut perm: Vec<usize> = (0..a.rows()).collect();
        perm[5] = 4;
        let _ = factor_ordered(&a, &perm, PivotPolicy::Reject);
    }

    /// A root front with two children whose update matrices share rows:
    /// both packed blocks are added into the overlap, in child order. Three
    /// dense 40-column blocks `A`, `B`, `C` under the natural order, the
    /// last row of `A` coupled to rows 1..6 of `C` and the last row of `B`
    /// to rows 0..4, so the update blocks are 6×6 and 5×5 and overlap in
    /// rows 1..4 of `C`; the explicit zeros of merging keep the three
    /// supernodes apart.
    #[test]
    fn a_front_sums_two_overlapping_packed_update_blocks() {
        let (m, n) = (40, 120);
        let mut b = CooBuilder::new(n, n);
        for blk in 0..3 {
            for i in 0..m {
                for j in 0..m {
                    let v = if i == j {
                        4.0 * m as f64
                    } else {
                        1.0 / (1 + i + j) as f64
                    };
                    b.push(blk * m + i, blk * m + j, v);
                }
            }
        }
        for (last, c_rows) in [(m - 1, 1..6), (2 * m - 1, 0..4)] {
            for r in c_rows {
                let v = -0.25 - 0.01 * r as f64;
                b.push(last, 2 * m + r, v);
                b.push(2 * m + r, last, v);
            }
        }
        let a = b.to_csr();
        let f = factor(&a, Ordering::Natural).unwrap();
        assert_eq!(f.sn_col, vec![0, m, 2 * m, n], "three supernodes");
        let below = |s: usize| {
            let w = f.sn_col[s + 1] - f.sn_col[s];
            f.rows[f.rows_ptr[s] + w..f.rows_ptr[s + 1]].to_vec()
        };
        let c = |r: std::ops::Range<u32>| r.map(|i| 2 * m as u32 + i).collect::<Vec<_>>();
        assert_eq!(below(0), c(1..6));
        assert_eq!(below(1), c(0..4));
        assert!(below(2).is_empty());
        check_against_scalar(&a, Ordering::Natural);
        let ad = a.to_dense();
        let fd = dd_linalg::DenseLdlt::factor(&ad).unwrap();
        let rhs: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).cos()).collect();
        let err = vector::dist2(&solve(&f, &rhs), &fd.solve(&rhs));
        assert!(
            err <= 1e-13 * vector::norm2(&fd.solve(&rhs)),
            "dense: {err:e}"
        );
    }

    /// Every column of a panel of `k` ∈ {1, 2, 3, 5, 8} columns is the
    /// scatter loop to the bit, on every block width the panel runs.
    #[test]
    fn gathered_solve_is_the_scatter_loop_to_the_bit() {
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut z = Vec::new();
        for seed in 0..12u64 {
            let n = 30 + 37 * seed as usize;
            let a = random_pattern(seed, n, 2 + seed as usize % 5);
            for ord in [Ordering::Natural, Ordering::Rcm, Ordering::MinDegree] {
                let f = factor(&a, ord).unwrap();
                for k in [1usize, 2, 3, 5, 8] {
                    let col = |c: usize| -> Vec<f64> {
                        (0..n)
                            .map(|i| ((i * 7 + 3 * c + 3) % 11) as f64 - 5.0)
                            .collect()
                    };
                    let mut x: Vec<f64> = (0..k).flat_map(col).collect();
                    // One work vector across every size and width: stale
                    // contents and a longer buffer must not matter.
                    f.solve_panel_with(&mut x, n, k, &mut z);
                    for c in 0..k {
                        assert_eq!(
                            bits(&x[c * n..(c + 1) * n]),
                            bits(&solve_scattered(&f, &col(c))),
                            "seed {seed} {ord:?} k={k} column {c}"
                        );
                    }
                }
            }
        }
        let a = laplacian_3d(7);
        let f = factor(&a, Ordering::MinDegree).unwrap();
        let b: Vec<f64> = (0..a.rows()).map(|i| (i as f64 * 0.3).sin()).collect();
        assert_eq!(bits(&solve(&f, &b)), bits(&solve_scattered(&f, &b)));
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
        let f = factor(&a, Ordering::MinDegree).unwrap();
        assert!(f.n_supernodes() < a.rows() / 2, "amalgamation too weak");
        let widest = f.sn_col.windows(2).map(|c| c[1] - c[0]).max();
        assert!(widest >= Some(8), "no wide panels formed");
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
        let sup = factor_with(&a, Ordering::Natural, policy).unwrap();
        let sca =
            LocalLdlt::factor_with(&a, Ordering::Natural, policy, LdltBackend::Scalar).unwrap();
        assert_eq!(sup.n_boosted(), sca.n_boosted());
        let rhs: Vec<f64> = (0..n).map(|i| (i % 5) as f64 - 2.0).collect();
        let xs = solve(&sup, &rhs);
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
            factor(&a, Ordering::Natural),
            Err(LdltError::ZeroPivot { .. })
        ));
    }

    #[test]
    fn singleton_and_empty_matrices() {
        let mut b = CooBuilder::new(1, 1);
        b.push(0, 0, 3.0);
        let f = factor(&b.to_csr(), Ordering::Natural).unwrap();
        assert_eq!(solve(&f, &[6.0]), vec![2.0]);
        let e = CooBuilder::new(0, 0).to_csr();
        let f0 = factor(&e, Ordering::Natural).unwrap();
        assert_eq!(f0.n(), 0);
        assert_eq!(f0.n_supernodes(), 0);
    }

    #[test]
    fn abft_passes_clean_factors_and_names_the_poisoned_panel() {
        let a = laplacian_3d(6);
        for ord in [Ordering::Natural, Ordering::MinDegree] {
            let f = factor(&a, ord).unwrap();
            f.verify_abft(&a)
                .unwrap_or_else(|d| panic!("clean factor flagged: {d}"));
        }
        // Flip a high mantissa bit in one stored panel value: the checksum
        // must break, and the defect must name the owning supernode.
        let mut f = factor(&a, Ordering::MinDegree).unwrap();
        let index = f.nnz_l() / 3;
        corrupt_panel_value(&mut f, index, 51);
        let d = f
            .verify_abft(&a)
            .expect_err("corrupted panel must be detected");
        assert!(d.defect > d.bound, "{d}");
        assert!(d.supernode < f.n_supernodes());
        // A corrupted pivot is caught too.
        let mut g = factor(&a, Ordering::Rcm).unwrap();
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
        let f = factor_with(&a, Ordering::Natural, policy).unwrap();
        assert_eq!(f.n_boosted(), 1);
        f.verify_abft(&a)
            .unwrap_or_else(|d| panic!("boosted factor flagged: {d}"));
    }

    #[test]
    fn inertia_matches_scalar() {
        let a = laplacian_3d(5);
        let [sup, sca] = [LdltBackend::Supernodal, LdltBackend::Scalar]
            .map(|backend| LocalLdlt::factor(&a, Ordering::MinDegree, backend).unwrap());
        assert_eq!(sup.inertia(), sca.inertia());
        assert_eq!(sup.inertia(), (0, 0, a.rows()));
    }
}
