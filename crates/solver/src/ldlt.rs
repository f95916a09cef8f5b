//! Sparse LDLᵀ factorization of symmetric matrices.
//!
//! This is the workspace's sparse direct solver — the from-scratch stand-in
//! for MUMPS / PARDISO / WSMP used in the paper for both the local
//! subdomain solves `(R_i A R_iᵀ)⁻¹` and the coarse solves `E⁻¹`.
//!
//! The implementation is the classic *up-looking* algorithm (Davis, "LDL, a
//! concise sparse Cholesky package"): an elimination-tree based symbolic
//! analysis computes the column counts of `L`, then each row `k` of `L` is
//! obtained by a sparse triangular solve whose nonzero pattern is the row
//! subtree of the elimination tree. No dynamic pivoting is performed: that
//! is exact for SPD matrices (Dirichlet matrices, coarse operators built
//! from SPD `A`) and works for the mildly indefinite shifted pencils in
//! `dd-eigen` because the shift keeps pivots away from zero. For rank
//! deficient matrices, [`PivotPolicy::Boost`] provides MUMPS-style static
//! pivoting.

use crate::ordering;
use dd_linalg::CsrMatrix;
use std::borrow::Cow;

/// Fill-reducing ordering selection for [`SparseLdlt::factor`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Ordering {
    /// Factor the matrix as given.
    Natural,
    /// Reverse Cuthill–McKee (bandwidth reduction).
    Rcm,
    /// Quotient-graph minimum degree (usually lowest fill).
    #[default]
    MinDegree,
}

/// What to do when a pivot is (numerically) zero.
///
/// Coarse operators built from deflation vectors can be exactly rank
/// deficient (globally dependent deflation directions); real sparse
/// solvers handle this with *static pivoting* — the MUMPS/PARDISO
/// null-pivot option. [`PivotPolicy::Boost`] replaces a tiny pivot by a
/// huge one, which makes the triangular solve return a ~zero component in
/// that direction: the factorization acts as a pseudo-inverse on the
/// numerical range of the matrix.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub enum PivotPolicy {
    /// Fail with [`LdltError::ZeroPivot`].
    #[default]
    Reject,
    /// Replace pivots with `|d| ≤ rel_tol · ‖A‖∞` by `‖A‖∞ / ε`.
    Boost {
        /// Relative threshold below which a pivot counts as null.
        rel_tol: f64,
    },
}

/// Errors raised during numeric factorization.
#[derive(Debug, Clone, PartialEq)]
pub enum LdltError {
    /// Zero (or non-finite) pivot at the given elimination step: the matrix
    /// is singular within working precision.
    ZeroPivot { step: usize, pivot: f64 },
}

impl std::fmt::Display for LdltError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LdltError::ZeroPivot { step, pivot } => {
                write!(f, "zero pivot {pivot:e} at elimination step {step}")
            }
        }
    }
}

impl std::error::Error for LdltError {}

/// Elimination tree and per-column nonzero counts of `L` (strict lower part)
/// for a symmetric matrix given in full CSR storage.
///
/// Exposed publicly so orderings can be evaluated symbolically.
pub fn etree_and_counts(a: &CsrMatrix) -> (Vec<usize>, Vec<usize>) {
    etree_walk(a.rows(), |k| a.row(k).map(|(i, _)| i))
}

/// [`etree_and_counts`] of `A(perm, perm)`, read straight from `a` through
/// the inverse order: no permuted copy is formed, and the result is the
/// same as that of `etree_and_counts(&a.permute_sym(perm))`.
pub fn etree_and_counts_ordered(a: &CsrMatrix, perm: &[usize]) -> (Vec<usize>, Vec<usize>) {
    let iperm = inverse(perm);
    etree_walk(a.rows(), |k| a.row(perm[k]).map(|(i, _)| iperm[i]))
}

/// `iperm[perm[k]] = k`. Panics unless `perm` is a permutation of
/// `0..perm.len()`.
pub(crate) fn inverse(perm: &[usize]) -> Vec<usize> {
    let mut iperm = vec![usize::MAX; perm.len()];
    for (k, &p) in perm.iter().enumerate() {
        assert!(iperm[p] == usize::MAX, "inverse: duplicate index {p}");
        iperm[p] = k;
    }
    iperm
}

/// The elimination-tree walk over the column indices of each row `k`
/// (`row(k)`, any order): the tree and the counts do not depend on the
/// order in which a row's entries are visited.
fn etree_walk<I: Iterator<Item = usize>>(
    n: usize,
    row: impl Fn(usize) -> I,
) -> (Vec<usize>, Vec<usize>) {
    const NONE: usize = usize::MAX;
    let mut parent = vec![NONE; n];
    let mut flag = vec![NONE; n];
    let mut lnz = vec![0usize; n];
    for k in 0..n {
        flag[k] = k;
        for i in row(k) {
            if i >= k {
                continue;
            }
            // Walk from i up the elimination tree until reaching a node
            // already flagged in step k; each visited node contributes one
            // nonzero to row k of L (column count of that node grows).
            let mut ii = i;
            while flag[ii] != k {
                if parent[ii] == NONE {
                    parent[ii] = k;
                }
                lnz[ii] += 1;
                flag[ii] = k;
                ii = parent[ii];
            }
        }
    }
    (parent, lnz)
}

/// `A(perm, perm)`, borrowing `a` itself under the identity order.
pub(crate) fn permuted<'a>(a: &'a CsrMatrix, perm: &[usize]) -> Cow<'a, CsrMatrix> {
    if perm.iter().enumerate().all(|(i, &p)| i == p) {
        Cow::Borrowed(a)
    } else {
        Cow::Owned(a.permute_sym(perm))
    }
}

/// Factorization `P A Pᵀ = L D Lᵀ` with unit lower-triangular `L` (stored by
/// columns) and diagonal `D`.
pub struct SparseLdlt {
    n: usize,
    /// `perm[i]` = original index placed at position `i` after reordering.
    perm: Vec<usize>,
    /// Column pointers of `L` (strict lower triangle, CSC).
    lp: Vec<usize>,
    /// Row indices of `L`.
    li: Vec<u32>,
    /// Values of `L`.
    lx: Vec<f64>,
    /// Diagonal `D`.
    d: Vec<f64>,
    /// Number of pivots replaced under [`PivotPolicy::Boost`].
    boosted: usize,
}

impl SparseLdlt {
    /// Factor a symmetric matrix (full storage) with the given ordering.
    pub fn factor(a: &CsrMatrix, ord: Ordering) -> Result<Self, LdltError> {
        Self::factor_with(a, ord, PivotPolicy::Reject)
    }

    /// Factor with an explicit null-pivot policy.
    pub fn factor_with(
        a: &CsrMatrix,
        ord: Ordering,
        policy: PivotPolicy,
    ) -> Result<Self, LdltError> {
        Self::factor_ordered(a, &ordering::fill_reducing(a, ord), policy)
    }

    /// Factor under a precomputed elimination order (`perm[i]` = original
    /// index placed at position `i`), e.g. one [`ordering::fill_reducing`]
    /// result shared by several matrices of the same pattern.
    pub fn factor_ordered(
        a: &CsrMatrix,
        perm: &[usize],
        policy: PivotPolicy,
    ) -> Result<Self, LdltError> {
        assert_eq!(a.rows(), a.cols(), "ldlt: square input");
        assert_eq!(perm.len(), a.rows(), "ldlt: order length");
        debug_assert!(
            a.symmetry_defect() <= 1e-10 * a.norm_inf().max(1.0),
            "ldlt: input must be symmetric"
        );
        Self::factor_permuted(&permuted(a, perm), perm.to_vec(), policy)
    }

    /// Factor an already-reordered matrix, recording `perm` for the solves.
    fn factor_permuted(
        pa: &CsrMatrix,
        perm: Vec<usize>,
        policy: PivotPolicy,
    ) -> Result<Self, LdltError> {
        let (parent, lnz) = etree_and_counts(pa);
        Self::factor_analysed(pa, perm, &parent, &lnz, policy)
    }

    /// [`SparseLdlt::factor_permuted`] with the symbolic analysis of `pa`
    /// ([`etree_and_counts`]) already done by the caller.
    pub(crate) fn factor_analysed(
        pa: &CsrMatrix,
        perm: Vec<usize>,
        parent: &[usize],
        lnz: &[usize],
        policy: PivotPolicy,
    ) -> Result<Self, LdltError> {
        const NONE: usize = usize::MAX;
        let n = pa.rows();
        let mut lp = vec![0usize; n + 1];
        for k in 0..n {
            lp[k + 1] = lp[k] + lnz[k];
        }
        let nnz_l = lp[n];
        let mut li = vec![0u32; nnz_l];
        let mut lx = vec![0.0f64; nnz_l];
        let mut d = vec![0.0f64; n];
        // Workspaces.
        let mut y = vec![0.0f64; n]; // dense accumulator for row k
        let mut pattern = vec![0usize; n]; // row pattern, topologically ordered
        let mut stack = vec![0usize; n];
        let mut flag = vec![NONE; n];
        let mut lfill = vec![0usize; n]; // nonzeros currently in column j of L
        let scale = pa.norm_inf().max(1.0);
        let mut boosted = 0usize;

        for k in 0..n {
            flag[k] = k;
            let mut top = n;
            d[k] = 0.0;
            for (i, v) in pa.row(k) {
                if i > k {
                    continue;
                }
                if i == k {
                    d[k] += v;
                    continue;
                }
                y[i] += v;
                // Collect the path i → root (stopping at flagged nodes) and
                // push it in reverse so `pattern[top..]` is topological.
                let mut len = 0;
                let mut ii = i;
                while flag[ii] != k {
                    stack[len] = ii;
                    len += 1;
                    flag[ii] = k;
                    ii = parent[ii];
                }
                while len > 0 {
                    len -= 1;
                    top -= 1;
                    pattern[top] = stack[len];
                }
            }
            // Sparse triangular solve along the pattern.
            for &i in &pattern[top..n] {
                let yi = y[i];
                y[i] = 0.0;
                // y ← y − L(:,i) · yi (only rows > i matter; they are in the
                // already-filled part of column i).
                let (s, used) = (lp[i], lfill[i]);
                for q in s..s + used {
                    y[li[q] as usize] -= lx[q] * yi;
                }
                let lki = yi / d[i];
                d[k] -= lki * yi;
                li[s + used] = k as u32;
                lx[s + used] = lki;
                lfill[i] += 1;
            }
            let null_tol = match policy {
                PivotPolicy::Reject => 1e-300,
                PivotPolicy::Boost { rel_tol } => rel_tol,
            };
            if d[k].abs() <= null_tol * scale || !d[k].is_finite() {
                match policy {
                    PivotPolicy::Reject => {
                        return Err(LdltError::ZeroPivot {
                            step: k,
                            pivot: d[k],
                        });
                    }
                    PivotPolicy::Boost { .. } => {
                        // Static pivoting: a huge pivot annihilates this
                        // direction's contribution in the solves.
                        d[k] = scale / f64::EPSILON;
                        boosted += 1;
                    }
                }
            }
        }
        Ok(SparseLdlt {
            n,
            perm,
            lp,
            li,
            lx,
            d,
            boosted,
        })
    }

    /// Order of the factored matrix.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of nonzeros in the factor `L` (strict lower triangle), i.e.
    /// the `nnz(E⁻¹)` statistic the paper reports in Figure 11 (plus the
    /// diagonal).
    pub fn nnz_l(&self) -> usize {
        self.lx.len() + self.n
    }

    /// Number of pivots boosted under [`PivotPolicy::Boost`] (the rank
    /// deficiency detected during factorization).
    pub fn n_boosted(&self) -> usize {
        self.boosted
    }

    /// The elimination order: position `i` of the factored matrix is row
    /// `perm()[i]` of `A`.
    pub fn perm(&self) -> &[usize] {
        &self.perm
    }

    /// The pivots `D`, in elimination order.
    pub fn d(&self) -> &[f64] {
        &self.d
    }

    /// Column `j` of `L` below its unit diagonal, as the solves read it:
    /// the row positions (ascending) and the values.
    pub fn l_column(&self, j: usize) -> (&[u32], &[f64]) {
        let range = self.lp[j]..self.lp[j + 1];
        (&self.li[range.clone()], &self.lx[range])
    }

    /// Multiply-add estimate of the numeric factorization: each column `j`
    /// with `c_j` sub-diagonal entries costs `c_j (c_j + 3)` operations in
    /// the up-looking sweep (the standard sparse-LDLᵀ operation count).
    /// Deterministic, so usable as a telemetry flop charge.
    pub fn flops_estimate(&self) -> u64 {
        (0..self.n)
            .map(|j| {
                let c = (self.lp[j + 1] - self.lp[j]) as u64;
                c * (c + 3)
            })
            .sum()
    }

    /// Matrix inertia (#negative, #zero, #positive pivots) — by Sylvester's
    /// law of inertia this equals the signs of the eigenvalues.
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

    /// Whether all pivots are positive (matrix SPD).
    pub fn is_positive_definite(&self) -> bool {
        self.d.iter().all(|&v| v > 0.0)
    }

    /// Re-run the numeric factorization for a matrix with the **same
    /// sparsity pattern** (same row pointers and column indices after the
    /// stored permutation) — the classic direct-solver workflow for
    /// time-stepping and quasi-Newton loops where only values change.
    ///
    /// Returns an error on a null pivot (policy [`PivotPolicy::Reject`]).
    ///
    /// # Panics
    /// Panics in debug builds if the pattern differs from the factored one.
    pub fn refactor(&mut self, a: &CsrMatrix) -> Result<(), LdltError> {
        assert_eq!(a.rows(), self.n, "refactor: order mismatch");
        let fresh = Self::factor_permuted(
            &permuted(a, &self.perm),
            self.perm.clone(),
            PivotPolicy::Reject,
        )?;
        debug_assert_eq!(fresh.lp, self.lp, "refactor: pattern changed");
        *self = fresh;
        Ok(())
    }

    /// Solve `A x = b` in place (forward elimination, diagonal scaling, back
    /// substitution — the per-iteration work the paper counts for the
    /// one-level preconditioner and the coarse solve).
    pub fn solve_in_place(&self, b: &mut [f64]) {
        self.solve_in_place_with(b, &mut Vec::new());
    }

    /// [`SparseLdlt::solve_in_place`] with the permuted work vector taken
    /// from the caller: `z` is overwritten and grows to `n` once, so a
    /// caller that keeps it solves without allocating.
    ///
    /// Summation order: the forward sweep subtracts `L[i,j]·y_j` from
    /// `z_i` column by column, in ascending `j` and, within a column, in
    /// stored order. The backward sweep forms `x_j = w_j − s_j` with
    /// `s_j = Σ_q L[i_q,j]·x[i_q]` over column `j`'s stored entries (the
    /// order [`SparseLdlt::l_column`] gives) summed as
    /// [`dd_linalg::vector::dot`] sums: four lanes and a tail, not one
    /// chain.
    pub fn solve_in_place_with(&self, b: &mut [f64], z: &mut Vec<f64>) {
        assert_eq!(b.len(), self.n);
        // z = P b
        z.clear();
        z.extend(self.perm.iter().map(|&p| b[p]));
        let z = z.as_mut_slice();
        // L y = z (columns)
        for j in 0..self.n {
            let zj = z[j];
            if zj != 0.0 {
                for q in self.lp[j]..self.lp[j + 1] {
                    z[self.li[q] as usize] -= self.lx[q] * zj;
                }
            }
        }
        // D w = y
        for j in 0..self.n {
            z[j] /= self.d[j];
        }
        // Lᵀ x = w
        for j in (0..self.n).rev() {
            let (li, lx) = (
                &self.li[self.lp[j]..self.lp[j + 1]],
                &self.lx[self.lp[j]..self.lp[j + 1]],
            );
            let [s] = lane_dot(lx, |q| [z[li[q] as usize]]);
            z[j] -= s;
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

    /// Solve for several right-hand sides stored as columns of a dense
    /// matrix (used when applying `A_i⁻¹` to the ν_i deflation directions),
    /// through [`SparseLdlt::solve_panel_with`].
    pub fn solve_mat(&self, b: &dd_linalg::DMat) -> dd_linalg::DMat {
        assert_eq!(b.rows(), self.n);
        let mut x = b.clone();
        self.solve_panel_with(x.data_mut(), self.n, b.cols(), &mut Vec::new());
        x
    }

    /// Solve `k` right-hand sides in place: column `c` is
    /// `b[c * ld..c * ld + n]`. Every column goes through
    /// [`SparseLdlt::solve_in_place_with`]'s operations in its order, so it
    /// is that solve to the bit; the columns of a block (see
    /// `panel_blocks`) are swept together, their values of one row side
    /// by side in the work vector `z`, which reads `L` once per block and
    /// gives the backward sweep four lanes per column.
    pub fn solve_panel_with(&self, b: &mut [f64], ld: usize, k: usize, z: &mut Vec<f64>) {
        check_panel(b.len(), self.n, ld, k);
        for (c0, width) in panel_blocks(k) {
            let cols = &mut b[c0 * ld..];
            match width {
                8 => self.solve_block::<8>(cols, ld, z),
                4 => self.solve_block::<4>(cols, ld, z),
                2 => self.solve_block::<2>(cols, ld, z),
                _ => self.solve_in_place_with(&mut cols[..self.n], z),
            }
        }
    }

    /// [`SparseLdlt::solve_panel_with`] on `B` columns at once.
    // dd:hot — the panel's local solves, once per Krylov step
    fn solve_block<const B: usize>(&self, b: &mut [f64], ld: usize, z: &mut Vec<f64>) {
        let n = self.n;
        // z = P b, a row's B values side by side
        z.clear();
        z.resize(n * B, 0.0);
        for (i, &p) in self.perm.iter().enumerate() {
            let zi = row_mut::<B>(z, i);
            for c in 0..B {
                zi[c] = b[c * ld + p];
            }
        }
        // L y = z (columns); a zero entry skips its column's update, as in
        // the single solve (the skip is visible in the sign of a zero)
        for j in 0..n {
            let zj = *row::<B>(z, j);
            let nonzero = zj.iter().filter(|v| **v != 0.0).count();
            if nonzero == 0 {
                continue;
            }
            let (li, lx) = (
                &self.li[self.lp[j]..self.lp[j + 1]],
                &self.lx[self.lp[j]..self.lp[j + 1]],
            );
            if nonzero == B {
                for (&r, &l) in li.iter().zip(lx) {
                    let zr = row_mut::<B>(z, r as usize);
                    for c in 0..B {
                        zr[c] -= l * zj[c];
                    }
                }
            } else {
                for (&r, &l) in li.iter().zip(lx) {
                    let zr = row_mut::<B>(z, r as usize);
                    for c in 0..B {
                        if zj[c] != 0.0 {
                            zr[c] -= l * zj[c];
                        }
                    }
                }
            }
        }
        // D w = y
        for (j, &dj) in self.d.iter().enumerate() {
            for v in row_mut::<B>(z, j) {
                *v /= dj;
            }
        }
        // Lᵀ x = w, each column's sum in the single solve's lanes
        for j in (0..n).rev() {
            let (li, lx) = (
                &self.li[self.lp[j]..self.lp[j + 1]],
                &self.lx[self.lp[j]..self.lp[j + 1]],
            );
            let s = lane_dot(lx, |q| *row::<B>(z, li[q] as usize));
            let zj = row_mut::<B>(z, j);
            for c in 0..B {
                zj[c] -= s[c];
            }
        }
        // b = Pᵀ z
        for (i, &p) in self.perm.iter().enumerate() {
            let zi = row::<B>(z, i);
            for c in 0..B {
                b[c * ld + p] = zi[c];
            }
        }
    }
}

/// `Σ_q l[q]·x(q)[c]` for each of `B` columns, summed in
/// [`dd_linalg::vector::dot`]'s order: term `q < 4⌊len/4⌋` goes to lane
/// `q mod 4`, the rest to a tail, every accumulator starts at `0.0`, and
/// the result is `(((lane 0 + lane 1) + lane 2) + lane 3) + tail`. Column
/// `c` therefore holds the bits of `vector::dot(l, x_c)` whatever `B` is,
/// which is what keeps a panel solve equal to its single solves; the four
/// lanes let a backward sweep retire four terms per add latency instead of
/// one.
#[inline(always)]
pub(crate) fn lane_dot<const B: usize>(l: &[f64], x: impl Fn(usize) -> [f64; B]) -> [f64; B] {
    let mut acc = [[0.0f64; B]; 4];
    let chunks = l.len() / 4;
    for i in 0..chunks {
        for (lane, acc) in acc.iter_mut().enumerate() {
            let q = 4 * i + lane;
            let xq = x(q);
            for c in 0..B {
                acc[c] += l[q] * xq[c];
            }
        }
    }
    let mut tail = [0.0f64; B];
    for q in 4 * chunks..l.len() {
        let xq = x(q);
        for c in 0..B {
            tail[c] += l[q] * xq[c];
        }
    }
    std::array::from_fn(|c| acc[0][c] + acc[1][c] + acc[2][c] + acc[3][c] + tail[c])
}

/// Row `i` of a panel whose rows hold `B` values side by side.
#[inline(always)]
pub(crate) fn row<const B: usize>(z: &[f64], i: usize) -> &[f64; B] {
    z[i * B..(i + 1) * B]
        .try_into()
        .expect("a panel row holds B values")
}

/// [`row`], mutably.
#[inline(always)]
pub(crate) fn row_mut<const B: usize>(z: &mut [f64], i: usize) -> &mut [f64; B] {
    (&mut z[i * B..(i + 1) * B])
        .try_into()
        .expect("a panel row holds B values")
}

/// The column blocks a panel solve of `k` columns sweeps together, as
/// `(first column, width)`: as many blocks of 8 as fit, then one each of
/// 4, 2 and 1 as the rest needs.
pub(crate) fn panel_blocks(k: usize) -> impl Iterator<Item = (usize, usize)> {
    let mut c0 = 0;
    std::iter::from_fn(move || {
        let width = [8, 4, 2, 1].into_iter().find(|&w| w <= k - c0)?;
        c0 += width;
        Some((c0 - width, width))
    })
}

/// A panel of `k` columns of length `n`, `ld` apart, fits in `len` values.
pub(crate) fn check_panel(len: usize, n: usize, ld: usize, k: usize) {
    assert!(k <= 1 || ld >= n, "panel solve: columns overlap");
    assert!(
        k == 0 || len >= (k - 1) * ld + n,
        "panel solve: {k} columns of {n} do not fit in {len} values"
    );
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use dd_linalg::{vector, CooBuilder};

    fn laplacian_2d(nx: usize, ny: usize) -> CsrMatrix {
        let n = nx * ny;
        let mut b = CooBuilder::new(n, n);
        let id = |i: usize, j: usize| i + j * nx;
        for j in 0..ny {
            for i in 0..nx {
                let u = id(i, j);
                b.push(u, u, 4.0);
                if i + 1 < nx {
                    b.push(u, id(i + 1, j), -1.0);
                    b.push(id(i + 1, j), u, -1.0);
                }
                if j + 1 < ny {
                    b.push(u, id(i, j + 1), -1.0);
                    b.push(id(i, j + 1), u, -1.0);
                }
            }
        }
        b.to_csr()
    }

    fn check_solve(a: &CsrMatrix, ord: Ordering) {
        let n = a.rows();
        let f = SparseLdlt::factor(a, ord).unwrap();
        let xref: Vec<f64> = (0..n).map(|i| (i % 7) as f64 - 3.0).collect();
        let mut b = vec![0.0; n];
        a.spmv(&xref, &mut b);
        let x = f.solve(&b);
        assert!(
            vector::dist2(&x, &xref) < 1e-9 * vector::norm2(&xref).max(1.0),
            "solve failed for {ord:?}"
        );
    }

    #[test]
    fn solves_laplacian_all_orderings() {
        let a = laplacian_2d(9, 7);
        check_solve(&a, Ordering::Natural);
        check_solve(&a, Ordering::Rcm);
        check_solve(&a, Ordering::MinDegree);
    }

    /// A scrambled order of `0..n` from a splitmix64 stream.
    pub(crate) fn scrambled(seed: u64, n: usize) -> Vec<usize> {
        let mut state = seed;
        let mut perm: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (state ^ (state >> 31)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            perm.swap(i, (z % (i as u64 + 1)) as usize);
        }
        perm
    }

    #[test]
    fn ordered_symbolic_is_that_of_the_permuted_copy() {
        let mut cases = vec![laplacian_2d(9, 7), laplacian_2d(1, 1)];
        for seed in 0..8u64 {
            let n = 20 + 31 * seed as usize;
            cases.push(crate::supernodal::tests::random_pattern(
                seed,
                n,
                1 + seed as usize % 4,
            ));
        }
        for (c, a) in cases.iter().enumerate() {
            let n = a.rows();
            let orders = [
                ordering::fill_reducing(a, Ordering::Natural),
                ordering::fill_reducing(a, Ordering::Rcm),
                ordering::fill_reducing(a, Ordering::MinDegree),
                scrambled(c as u64, n),
            ];
            for perm in &orders {
                assert_eq!(
                    etree_and_counts_ordered(a, perm),
                    etree_and_counts(&a.permute_sym(perm)),
                    "case {c}"
                );
            }
        }
    }

    #[test]
    fn spd_detected() {
        let a = laplacian_2d(5, 5);
        let f = SparseLdlt::factor(&a, Ordering::MinDegree).unwrap();
        assert!(f.is_positive_definite());
        assert_eq!(f.inertia(), (0, 0, 25));
    }

    #[test]
    fn indefinite_inertia() {
        // diag(1, -2, 3) plus mild coupling stays one-negative.
        let mut b = CooBuilder::new(3, 3);
        b.push(0, 0, 1.0);
        b.push(1, 1, -2.0);
        b.push(2, 2, 3.0);
        b.push(0, 1, 0.1);
        b.push(1, 0, 0.1);
        let a = b.to_csr();
        let f = SparseLdlt::factor(&a, Ordering::Natural).unwrap();
        assert_eq!(f.inertia().0, 1);
        let x = f.solve(&[1.0, 1.0, 1.0]);
        let mut r = vec![0.0; 3];
        a.spmv(&x, &mut r);
        assert!(vector::dist2(&r, &[1.0, 1.0, 1.0]) < 1e-12);
    }

    #[test]
    fn boost_policy_acts_as_pseudo_inverse() {
        // Rank-1 deficient SPD-ish matrix: diag(1, 1) ⊕ [1 1; 1 1] block.
        let mut b = CooBuilder::new(4, 4);
        b.push(0, 0, 2.0);
        b.push(1, 1, 3.0);
        b.push(2, 2, 1.0);
        b.push(2, 3, 1.0);
        b.push(3, 2, 1.0);
        b.push(3, 3, 1.0);
        let a = b.to_csr();
        assert!(SparseLdlt::factor(&a, Ordering::Natural).is_err());
        let f = SparseLdlt::factor_with(
            &a,
            Ordering::Natural,
            crate::ldlt::PivotPolicy::Boost { rel_tol: 1e-12 },
        )
        .unwrap();
        assert_eq!(f.n_boosted(), 1);
        // A consistent RHS (in range(A)) is solved correctly on the
        // regular directions; the null direction contributes ~0.
        let x = f.solve(&[2.0, 3.0, 2.0, 2.0]);
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 1.0).abs() < 1e-12);
        // Residual of the solved system stays consistent:
        let mut r = vec![0.0; 4];
        a.spmv(&x, &mut r);
        assert!((r[2] - 2.0).abs() < 1e-9 && (r[3] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn singular_rejected() {
        let mut b = CooBuilder::new(2, 2);
        b.push(0, 0, 1.0);
        b.push(0, 1, 1.0);
        b.push(1, 0, 1.0);
        b.push(1, 1, 1.0);
        let a = b.to_csr();
        assert!(matches!(
            SparseLdlt::factor(&a, Ordering::Natural),
            Err(LdltError::ZeroPivot { step: 1, .. })
        ));
    }

    #[test]
    fn nnz_l_reasonable_and_ordering_helps() {
        let a = laplacian_2d(16, 16);
        let f_nat = SparseLdlt::factor(&a, Ordering::Natural).unwrap();
        let f_md = SparseLdlt::factor(&a, Ordering::MinDegree).unwrap();
        // natural ordering of a 2D grid has O(n · nx) fill; MD should not be
        // dramatically worse and usually much better.
        assert!(f_md.nnz_l() <= f_nat.nnz_l());
    }

    #[test]
    fn solve_mat_matches_per_column() {
        let a = laplacian_2d(6, 6);
        let n = a.rows();
        let f = SparseLdlt::factor(&a, Ordering::Rcm).unwrap();
        let mut b = dd_linalg::DMat::zeros(n, 3);
        for j in 0..3 {
            for i in 0..n {
                b.col_mut(j)[i] = ((i + j) % 5) as f64;
            }
        }
        let x = f.solve_mat(&b);
        for j in 0..3 {
            let xj = f.solve(b.col(j));
            assert!(vector::dist2(x.col(j), &xj) == 0.0);
        }
    }

    #[test]
    fn refactor_updates_values() {
        let a = laplacian_2d(6, 5);
        let mut f = SparseLdlt::factor(&a, Ordering::MinDegree).unwrap();
        // Same pattern, scaled values.
        let scaled = CsrMatrix::from_raw(
            a.rows(),
            a.cols(),
            a.row_ptr().to_vec(),
            a.col_idx().to_vec(),
            a.values().iter().map(|v| 3.0 * v).collect(),
        );
        f.refactor(&scaled).unwrap();
        let b = vec![1.0; a.rows()];
        let x = f.solve(&b);
        let mut r = vec![0.0; a.rows()];
        scaled.spmv(&x, &mut r);
        assert!(dd_linalg::vector::dist2(&r, &b) < 1e-10);
    }

    #[test]
    fn agrees_with_dense_ldlt() {
        let a = laplacian_2d(4, 3);
        let f = SparseLdlt::factor(&a, Ordering::MinDegree).unwrap();
        let ad = a.to_dense();
        let fd = dd_linalg::DenseLdlt::factor(&ad).unwrap();
        let b: Vec<f64> = (0..12).map(|i| (i as f64).sin()).collect();
        let xs = f.solve(&b);
        let xd = fd.solve(&b);
        assert!(vector::dist2(&xs, &xd) < 1e-10);
    }
}
