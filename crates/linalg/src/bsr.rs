//! Block sparse row (BSR) storage for matrices with small dense blocks.
//!
//! Vector-valued discretizations couple all components of a node pair, so
//! the assembled elasticity operators of §5 (fig. 7) are CSR matrices whose
//! pattern tiles exactly into dense `dim × dim` blocks (dofs are interleaved
//! as `node*dim + component` in `dd-fem`). Storing them blockwise halves the
//! index metadata and lets SpMV run an unrolled dense `b×b` kernel per block
//! instead of one indirect load per scalar entry.
//!
//! Summation-order contract: for a matrix whose blocks are all structurally
//! full, [`BsrMatrix::spmv`] accumulates each scalar row in exactly the same
//! order as [`CsrMatrix::spmv`] (ascending scalar column), so the result is
//! bitwise identical to the CSR kernel — which is what lets the SPMD layer
//! swap storage without perturbing any solver trajectory or committed
//! baseline. Padded (ragged/partially-filled) blocks add exact `+0.0·x`
//! terms, which preserves values to the last ulp for finite inputs; padding
//! is used by [`BsrMatrix::from_csr`] and (behind a fill-ratio threshold)
//! [`BsrMatrix::detect_padded`], never by [`BsrMatrix::try_from_csr_exact`].

use crate::dense::DMat;
use crate::sparse::CsrMatrix;

/// Sparse matrix stored as dense `bs × bs` blocks (column-major within each
/// block), with sorted block-column indices per block row.
#[derive(Clone, Debug, PartialEq)]
pub struct BsrMatrix {
    rows: usize,
    cols: usize,
    bs: usize,
    /// Block-row pointers (length `brows + 1`).
    row_ptr: Vec<usize>,
    /// Block-column indices, sorted per block row.
    col_idx: Vec<u32>,
    /// Block values, `bs*bs` consecutive entries per block, column-major.
    values: Vec<f64>,
}

impl BsrMatrix {
    /// Convert from CSR with block size `bs`, zero-padding partially filled
    /// blocks and ragged row/column tails.
    ///
    /// Always succeeds for `bs ≥ 1`; a block is stored whenever any of its
    /// `bs²` scalar positions is present in `a`.
    pub fn from_csr(a: &CsrMatrix, bs: usize) -> Self {
        assert!(bs >= 1, "bsr: block size");
        let rows = a.rows();
        let cols = a.cols();
        let brows = rows.div_ceil(bs);
        let bcols = cols.div_ceil(bs);
        let bs2 = bs * bs;

        let mut row_ptr = vec![0usize; brows + 1];
        let mut col_idx: Vec<u32> = Vec::new();
        let mut values: Vec<f64> = Vec::new();
        // slot[bc] = index of block `bc`'s storage within the current block
        // row, or NONE when not yet seen.
        const NONE: usize = usize::MAX;
        let mut slot = vec![NONE; bcols];

        for br in 0..brows {
            let base = col_idx.len();
            // Discover the block columns of this block row in ascending
            // order: scalar columns are sorted within each CSR row, so a
            // k-way ascending merge over the rows keeps blocks sorted.
            let r_end = ((br + 1) * bs).min(rows);
            let mut touched: Vec<u32> = Vec::new();
            for r in br * bs..r_end {
                for (c, _) in a.row(r) {
                    let bc = (c / bs) as u32;
                    if slot[bc as usize] == NONE {
                        slot[bc as usize] = 1; // mark; slots assigned after sort
                        touched.push(bc);
                    }
                }
            }
            touched.sort_unstable();
            for (q, &bc) in touched.iter().enumerate() {
                slot[bc as usize] = base + q;
            }
            col_idx.extend_from_slice(&touched);
            values.resize(col_idx.len() * bs2, 0.0);
            for r in br * bs..r_end {
                let rl = r - br * bs;
                for (c, v) in a.row(r) {
                    let blk = slot[c / bs];
                    let cl = c % bs;
                    values[blk * bs2 + rl + cl * bs] = v;
                }
            }
            for &bc in &touched {
                slot[bc as usize] = NONE;
            }
            row_ptr[br + 1] = col_idx.len();
        }
        BsrMatrix {
            rows,
            cols,
            bs,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Convert from CSR only when the matrix tiles *exactly* into `bs × bs`
    /// blocks: dimensions divisible by `bs` and every stored block
    /// structurally full. Returns `None` otherwise.
    ///
    /// This is the conversion the SPMD layer uses: exact tiling guarantees
    /// the BSR SpMV is bitwise identical to the CSR one (no padded zeros),
    /// so enabling it cannot move any iteration count or telemetry counter.
    pub fn try_from_csr_exact(a: &CsrMatrix, bs: usize) -> Option<Self> {
        if bs < 2 || a.rows() % bs != 0 || a.cols() % bs != 0 || a.nnz() % (bs * bs) != 0 {
            return None;
        }
        let b = Self::from_csr(a, bs);
        if b.n_blocks() * bs * bs == a.nnz() {
            Some(b)
        } else {
            None
        }
    }

    /// Try the natural block sizes (3, then 2) and return the first exact
    /// tiling, if any.
    pub fn detect(a: &CsrMatrix) -> Option<Self> {
        [3, 2]
            .iter()
            .find_map(|&bs| Self::try_from_csr_exact(a, bs))
    }

    /// Like [`BsrMatrix::detect`], but also accepts *mostly* full tilings by
    /// zero-padding partial blocks when at least [`Self::PAD_FILL_MIN`] of
    /// the stored scalars are genuine entries.
    ///
    /// Real assembled elasticity operators are not exactly tileable: the
    /// assembler drops cross-component couplings that cancel to exactly
    /// zero, punching holes in otherwise dense `dim × dim` node blocks
    /// (measured fill ≈ 0.82 on the fig. 7 operators). Scalar (diffusion)
    /// operators blocked at 2 or 3 measure ≤ 0.45, so the threshold cleanly
    /// separates vector-valued from scalar problems. Padded zeros only add
    /// exact `+0.0·x` terms to each row sum, which is bitwise neutral for
    /// finite inputs (a `-0.0` partial sum would be flushed to `+0.0`, and
    /// non-finite `x` entries would poison padded positions — neither occurs
    /// in a converging Krylov solve).
    pub fn detect_padded(a: &CsrMatrix) -> Option<Self> {
        Self::padded_block_size(a).map(|bs| Self::from_csr(a, bs))
    }

    /// The block size [`BsrMatrix::detect_padded`] would choose, from the
    /// pattern alone (one pass, no values copied): the first of 3, 2 whose
    /// tiling is at least [`Self::PAD_FILL_MIN`] full. Dof `k` of such a
    /// matrix belongs to node `k / bs`, which is also what the fill-reducing
    /// orderings in `dd-solver` coarsen by.
    pub fn padded_block_size(a: &CsrMatrix) -> Option<usize> {
        [3usize, 2].into_iter().find(|&bs| {
            if a.rows() % bs != 0 || a.cols() % bs != 0 || a.nnz() == 0 {
                return false;
            }
            // Count the blocks `from_csr` would store: `seen[bc]` holds the
            // last block row that touched block column `bc`.
            let mut seen = vec![usize::MAX; a.cols() / bs];
            let mut blocks = 0usize;
            for r in 0..a.rows() {
                for (c, _) in a.row(r) {
                    if seen[c / bs] != r / bs {
                        seen[c / bs] = r / bs;
                        blocks += 1;
                    }
                }
            }
            a.nnz() as f64 >= Self::PAD_FILL_MIN * (blocks * bs * bs) as f64
        })
    }

    /// Minimum genuine-entry fraction for [`BsrMatrix::detect_padded`].
    pub const PAD_FILL_MIN: f64 = 0.66;

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Block size.
    pub fn block_size(&self) -> usize {
        self.bs
    }

    /// Number of stored blocks.
    pub fn n_blocks(&self) -> usize {
        self.col_idx.len()
    }

    /// Stored scalar entries (`n_blocks · bs²`, including padding zeros).
    pub fn nnz_stored(&self) -> usize {
        self.values.len()
    }

    /// `y ← A x`.
    // dd:hot — per-Krylov-iteration SpMV dispatcher
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "bsr spmv: x length");
        assert_eq!(y.len(), self.rows, "bsr spmv: y length");
        match self.bs {
            2 => self.spmv_b2(x, y),
            3 => self.spmv_b3(x, y),
            _ => self.spmv_generic(x, y),
        }
    }

    /// Sparse × dense, `C ← A B` — the BSR counterpart of
    /// [`CsrMatrix::csrmm`] used for `T_i = A_i W_i` in the `E` assembly.
    ///
    /// Columns are processed four at a time so each block is streamed from
    /// memory once per column group instead of once per column — the main
    /// lever on this bandwidth-bound kernel. Per output column the summation
    /// order is identical to [`BsrMatrix::spmv`], hence bitwise identical to
    /// [`CsrMatrix::csrmm`] on structurally full blocks.
    pub fn bsrmm(&self, b: &DMat) -> DMat {
        assert_eq!(b.rows(), self.cols, "bsrmm: inner dims");
        let mut c = DMat::zeros(self.rows, b.cols());
        let ncols = b.cols();
        let mut j = 0;
        if self.bs == 2 || self.bs == 3 {
            while j + 4 <= ncols {
                let x = [b.col(j), b.col(j + 1), b.col(j + 2), b.col(j + 3)];
                if self.bs == 2 {
                    self.bsrmm4_b2(&x, &mut c, j);
                } else {
                    self.bsrmm4_b3(&x, &mut c, j);
                }
                j += 4;
            }
        }
        while j < ncols {
            self.spmv(b.col(j), c.col_mut(j));
            j += 1;
        }
        c
    }

    /// Four-column pass for 2×2 blocks; per column the accumulation order
    /// matches [`BsrMatrix::spmv_b2`] exactly.
    // dd:hot
    fn bsrmm4_b2(&self, x: &[&[f64]; 4], c: &mut DMat, j0: usize) {
        let n = self.rows;
        let brows = self.row_ptr.len() - 1;
        let cd = c.data_mut();
        for br in 0..brows {
            let (s, e) = (self.row_ptr[br], self.row_ptr[br + 1]);
            let mut acc = [[0.0f64; 4]; 2];
            for q in s..e {
                let blk: &[f64; 4] = self.values[q * 4..q * 4 + 4].try_into().unwrap();
                let c0 = self.col_idx[q] as usize * 2;
                if c0 + 2 <= self.cols {
                    for (t, xt) in x.iter().enumerate() {
                        let (x0, x1) = (xt[c0], xt[c0 + 1]);
                        acc[0][t] += blk[0] * x0;
                        acc[0][t] += blk[2] * x1;
                        acc[1][t] += blk[1] * x0;
                        acc[1][t] += blk[3] * x1;
                    }
                } else {
                    for (t, xt) in x.iter().enumerate() {
                        let x0 = xt[c0];
                        acc[0][t] += blk[0] * x0;
                        acc[1][t] += blk[1] * x0;
                    }
                }
            }
            let r0 = br * 2;
            for (t, accr) in acc[0].iter().enumerate() {
                cd[(j0 + t) * n + r0] = *accr;
            }
            if r0 + 1 < n {
                for (t, accr) in acc[1].iter().enumerate() {
                    cd[(j0 + t) * n + r0 + 1] = *accr;
                }
            }
        }
    }

    /// Four-column pass for 3×3 blocks; per column the accumulation order
    /// matches [`BsrMatrix::spmv_b3`] exactly.
    // dd:hot
    fn bsrmm4_b3(&self, x: &[&[f64]; 4], c: &mut DMat, j0: usize) {
        let n = self.rows;
        let brows = self.row_ptr.len() - 1;
        let cd = c.data_mut();
        for br in 0..brows {
            let (s, e) = (self.row_ptr[br], self.row_ptr[br + 1]);
            let mut acc = [[0.0f64; 4]; 3];
            for q in s..e {
                let blk: &[f64; 9] = self.values[q * 9..q * 9 + 9].try_into().unwrap();
                let c0 = self.col_idx[q] as usize * 3;
                if c0 + 3 <= self.cols {
                    for (t, xt) in x.iter().enumerate() {
                        let (x0, x1, x2) = (xt[c0], xt[c0 + 1], xt[c0 + 2]);
                        acc[0][t] += blk[0] * x0;
                        acc[0][t] += blk[3] * x1;
                        acc[0][t] += blk[6] * x2;
                        acc[1][t] += blk[1] * x0;
                        acc[1][t] += blk[4] * x1;
                        acc[1][t] += blk[7] * x2;
                        acc[2][t] += blk[2] * x0;
                        acc[2][t] += blk[5] * x1;
                        acc[2][t] += blk[8] * x2;
                    }
                } else {
                    for (t, xt) in x.iter().enumerate() {
                        for (cl, &xc) in xt[c0..self.cols.min(c0 + 3)].iter().enumerate() {
                            acc[0][t] += blk[cl * 3] * xc;
                            acc[1][t] += blk[1 + cl * 3] * xc;
                            acc[2][t] += blk[2 + cl * 3] * xc;
                        }
                    }
                }
            }
            let r0 = br * 3;
            for rl in 0..3 {
                if r0 + rl < n {
                    for (t, accr) in acc[rl].iter().enumerate() {
                        cd[(j0 + t) * n + r0 + rl] = *accr;
                    }
                }
            }
        }
    }

    /// Unrolled kernel for 2×2 blocks (2-D elasticity).
    // dd:hot
    fn spmv_b2(&self, x: &[f64], y: &mut [f64]) {
        let brows = self.row_ptr.len() - 1;
        for br in 0..brows {
            let (s, e) = (self.row_ptr[br], self.row_ptr[br + 1]);
            let mut acc0 = 0.0;
            let mut acc1 = 0.0;
            for q in s..e {
                let blk: &[f64; 4] = self.values[q * 4..q * 4 + 4].try_into().unwrap();
                let c0 = self.col_idx[q] as usize * 2;
                if c0 + 2 <= self.cols {
                    // One term at a time, ascending scalar column — the
                    // same association order as the CSR kernel, so full
                    // blocks reproduce it bitwise.
                    let (x0, x1) = (x[c0], x[c0 + 1]);
                    acc0 += blk[0] * x0;
                    acc0 += blk[2] * x1;
                    acc1 += blk[1] * x0;
                    acc1 += blk[3] * x1;
                } else {
                    // Ragged last block column: only the first scalar
                    // column exists.
                    let x0 = x[c0];
                    acc0 += blk[0] * x0;
                    acc1 += blk[1] * x0;
                }
            }
            let r0 = br * 2;
            y[r0] = acc0;
            if r0 + 1 < self.rows {
                y[r0 + 1] = acc1;
            }
        }
    }

    /// Unrolled kernel for 3×3 blocks (3-D elasticity).
    // dd:hot
    fn spmv_b3(&self, x: &[f64], y: &mut [f64]) {
        let brows = self.row_ptr.len() - 1;
        for br in 0..brows {
            let (s, e) = (self.row_ptr[br], self.row_ptr[br + 1]);
            let mut acc0 = 0.0;
            let mut acc1 = 0.0;
            let mut acc2 = 0.0;
            for q in s..e {
                let blk: &[f64; 9] = self.values[q * 9..q * 9 + 9].try_into().unwrap();
                let c0 = self.col_idx[q] as usize * 3;
                if c0 + 3 <= self.cols {
                    // Term-by-term in ascending scalar column order: keeps
                    // full blocks bitwise equal to the CSR kernel.
                    let (x0, x1, x2) = (x[c0], x[c0 + 1], x[c0 + 2]);
                    acc0 += blk[0] * x0;
                    acc0 += blk[3] * x1;
                    acc0 += blk[6] * x2;
                    acc1 += blk[1] * x0;
                    acc1 += blk[4] * x1;
                    acc1 += blk[7] * x2;
                    acc2 += blk[2] * x0;
                    acc2 += blk[5] * x1;
                    acc2 += blk[8] * x2;
                } else {
                    for (cl, xc) in x[c0..self.cols.min(c0 + 3)].iter().enumerate() {
                        acc0 += blk[cl * 3] * xc;
                        acc1 += blk[1 + cl * 3] * xc;
                        acc2 += blk[2 + cl * 3] * xc;
                    }
                }
            }
            let r0 = br * 3;
            y[r0] = acc0;
            if r0 + 1 < self.rows {
                y[r0 + 1] = acc1;
            }
            if r0 + 2 < self.rows {
                y[r0 + 2] = acc2;
            }
        }
    }

    /// Precompute the ABFT column-checksum row for this matrix: see
    /// [`BsrAbft`].
    // dd:cold — one-time setup for the opt-in integrity guard
    pub fn abft(&self) -> BsrAbft {
        BsrAbft::new(self)
    }

    /// Fallback for arbitrary block sizes.
    // dd:hot
    fn spmv_generic(&self, x: &[f64], y: &mut [f64]) {
        let bs = self.bs;
        let bs2 = bs * bs;
        let brows = self.row_ptr.len() - 1;
        for v in y.iter_mut() {
            *v = 0.0;
        }
        for br in 0..brows {
            let r0 = br * bs;
            let r_end = (r0 + bs).min(self.rows);
            for q in self.row_ptr[br]..self.row_ptr[br + 1] {
                let blk = &self.values[q * bs2..(q + 1) * bs2];
                let c0 = self.col_idx[q] as usize * bs;
                let c_end = (c0 + bs).min(self.cols);
                for c in c0..c_end {
                    let xc = x[c];
                    let col = &blk[(c - c0) * bs..];
                    for r in r0..r_end {
                        y[r] += col[r - r0] * xc;
                    }
                }
            }
        }
    }
}

/// ABFT column-checksum guard for the BSR kernels.
///
/// Classic algorithm-based fault tolerance (Huang–Abraham): precompute the
/// checksum row `s = eᵀA` once in `O(nnz)`; any product `y = A x` must then
/// satisfy `eᵀy = s·x` up to floating-point accumulation error. Verifying
/// is `O(rows + cols)` — vanishing next to the SpMV itself — and a silent
/// bit flip in the streamed matrix values, the input gather, or the output
/// store perturbs one side of the identity by far more than the
/// accumulation bound, so the poisoned vector is caught before it enters
/// the Krylov basis. Flips confined to the last few mantissa bits sit
/// below the bound and pass — by construction ABFT only resolves
/// corruption above the noise floor of the arithmetic itself.
// dd:cold — verification is opt-in; the exact-alloc kernel tier never pays
pub struct BsrAbft {
    /// `eᵀA`: per-column sums of the operator.
    col_sums: Vec<f64>,
    /// `|e|ᵀ|A|`: per-column absolute sums, scaling the error bound.
    abs_col_sums: Vec<f64>,
    rows: usize,
}

impl BsrAbft {
    /// Safety factor on the `n·ε` accumulation bound.
    const SAFETY: f64 = 64.0;

    pub fn new(a: &BsrMatrix) -> Self {
        let bs = a.bs;
        let bs2 = bs * bs;
        let mut col_sums = vec![0.0f64; a.cols];
        let mut abs_col_sums = vec![0.0f64; a.cols];
        let brows = a.row_ptr.len() - 1;
        for br in 0..brows {
            let nr = ((br + 1) * bs).min(a.rows) - br * bs;
            for q in a.row_ptr[br]..a.row_ptr[br + 1] {
                let blk = &a.values[q * bs2..(q + 1) * bs2];
                let c0 = a.col_idx[q] as usize * bs;
                for cl in 0..bs.min(a.cols - c0) {
                    let col = &blk[cl * bs..cl * bs + nr];
                    for &v in col {
                        col_sums[c0 + cl] += v;
                        abs_col_sums[c0 + cl] += v.abs();
                    }
                }
            }
        }
        BsrAbft {
            col_sums,
            abs_col_sums,
            rows: a.rows,
        }
    }

    /// Accumulation bound for one product with input `x`.
    fn bound(&self, x: &[f64]) -> f64 {
        let scale: f64 = self
            .abs_col_sums
            .iter()
            .zip(x)
            .map(|(s, v)| s * v.abs())
            .sum();
        Self::SAFETY * (self.rows.max(x.len()) as f64) * f64::EPSILON * scale.max(1.0)
    }

    /// Verify `y = A x` against the checksum row. On failure returns the
    /// defect `|eᵀy − s·x|` (which exceeded the accumulation bound).
    pub fn verify_spmv(&self, x: &[f64], y: &[f64]) -> Result<(), f64> {
        assert_eq!(x.len(), self.col_sums.len(), "abft: x length");
        assert_eq!(y.len(), self.rows, "abft: y length");
        let lhs: f64 = y.iter().sum();
        let rhs: f64 = self.col_sums.iter().zip(x).map(|(s, v)| s * v).sum();
        let defect = (lhs - rhs).abs();
        if defect <= self.bound(x) && defect.is_finite() {
            Ok(())
        } else {
            Err(defect)
        }
    }

    /// Verify `C = A B` column by column. On failure returns the offending
    /// column and its defect.
    pub fn verify_spmm(&self, b: &DMat, c: &DMat) -> Result<(), (usize, f64)> {
        assert_eq!(b.cols(), c.cols(), "abft: column counts");
        for j in 0..b.cols() {
            self.verify_spmv(b.col(j), c.col(j)).map_err(|d| (j, d))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::CooBuilder;

    /// Seeded sparse matrix with dense `bs×bs` blocks plus optional extra
    /// scalar entries that break the block structure.
    fn block_matrix(nb: usize, bs: usize, extra_scalars: bool, seed: u64) -> CsrMatrix {
        let n = nb * bs;
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).max(1);
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut b = CooBuilder::new(n, n);
        for ib in 0..nb {
            for jb in 0..nb {
                let coupled = ib == jb || rng() % 4 == 0;
                if !coupled {
                    continue;
                }
                for r in 0..bs {
                    for c in 0..bs {
                        // Never exactly zero: CooBuilder drops exact zeros,
                        // which would punch holes in the block pattern.
                        let mag = ((rng() % 1000) as f64 + 0.5) / 1000.0;
                        let v = if rng() % 2 == 0 { mag } else { -mag };
                        b.push(
                            ib * bs + r,
                            jb * bs + c,
                            v + if ib == jb && r == c { 4.0 } else { 0.0 },
                        );
                    }
                }
            }
        }
        if extra_scalars {
            b.push(0, n - 1, 0.5);
        }
        b.to_csr()
    }

    fn dense_vec(n: usize, seed: u64) -> Vec<f64> {
        (0..n)
            .map(|i| ((i as u64 * 37 + seed) % 19) as f64 / 7.0 - 1.0)
            .collect()
    }

    #[test]
    fn spmv_matches_csr_bitwise_on_full_blocks() {
        for &bs in &[2usize, 3] {
            let a = block_matrix(17, bs, false, 42 + bs as u64);
            let bsr = BsrMatrix::try_from_csr_exact(&a, bs).expect("exact tiling");
            let x = dense_vec(a.cols(), 5);
            let mut y_csr = vec![0.0; a.rows()];
            let mut y_bsr = vec![0.0; a.rows()];
            a.spmv(&x, &mut y_csr);
            bsr.spmv(&x, &mut y_bsr);
            assert_eq!(y_csr, y_bsr, "bs={bs}: full blocks must be bitwise equal");
        }
    }

    #[test]
    fn exact_conversion_rejects_broken_blocks_and_ragged_sizes() {
        let a = block_matrix(8, 2, true, 7);
        assert!(BsrMatrix::try_from_csr_exact(&a, 2).is_none());
        let mut b = CooBuilder::new(5, 5);
        for i in 0..5 {
            b.push(i, i, 1.0);
        }
        assert!(BsrMatrix::try_from_csr_exact(&b.to_csr(), 2).is_none());
    }

    #[test]
    fn padded_spmv_matches_csr_on_ragged_tails() {
        // 7×7 with bs=2 and bs=3: ragged row and column tails exercise the
        // guarded kernels.
        for &bs in &[2usize, 3, 4] {
            let mut b = CooBuilder::new(7, 7);
            for i in 0..7usize {
                b.push(i, i, 2.0 + i as f64);
                if i + 1 < 7 {
                    b.push(i, i + 1, -1.0);
                    b.push(i + 1, i, -1.5);
                }
            }
            b.push(0, 6, 0.25);
            let a = b.to_csr();
            let bsr = BsrMatrix::from_csr(&a, bs);
            let x = dense_vec(7, 3);
            let mut y_csr = vec![0.0; 7];
            let mut y_bsr = vec![0.0; 7];
            a.spmv(&x, &mut y_csr);
            bsr.spmv(&x, &mut y_bsr);
            for (u, v) in y_csr.iter().zip(&y_bsr) {
                assert!((u - v).abs() <= 1e-12 * u.abs().max(1.0), "bs={bs}");
            }
        }
    }

    #[test]
    fn bsrmm_matches_csrmm() {
        // Column counts straddling the 4-wide column grouping: remainder
        // columns, exactly one group, and groups plus a tail.
        for &(bs, ncols) in &[(2usize, 3usize), (2, 4), (2, 11), (3, 9)] {
            let a = block_matrix(9, bs, false, 11 + bs as u64);
            let bsr = BsrMatrix::try_from_csr_exact(&a, bs).unwrap();
            let mut bm = DMat::zeros(a.cols(), ncols);
            for j in 0..ncols {
                let col = bm.col_mut(j);
                for (i, v) in col.iter_mut().enumerate() {
                    *v = ((i * 7 + j * 13) % 11) as f64 / 3.0 - 1.0;
                }
            }
            let c_csr = a.csrmm(&bm);
            let c_bsr = bsr.bsrmm(&bm);
            assert_eq!(c_csr.data(), c_bsr.data(), "bs={bs} ncols={ncols}");
        }
    }

    #[test]
    fn detect_padded_accepts_mostly_full_blocks_and_rejects_scalar_patterns() {
        // Punch one hole per diagonal block: fill = 1 - 1/bs² ≥ 0.75.
        let mut b = CooBuilder::new(24, 24);
        for ib in 0..12usize {
            for r in 0..2 {
                for c in 0..2 {
                    if r == 1 && c == 0 {
                        continue;
                    }
                    b.push(ib * 2 + r, ib * 2 + c, if r == c { 3.0 } else { -1.0 });
                }
            }
        }
        let a = b.to_csr();
        assert!(BsrMatrix::try_from_csr_exact(&a, 2).is_none());
        let bsr = BsrMatrix::detect_padded(&a).expect("0.75 fill passes the threshold");
        assert_eq!(bsr.block_size(), 2);
        let x = dense_vec(24, 1);
        let mut y_csr = vec![0.0; 24];
        let mut y_bsr = vec![0.0; 24];
        a.spmv(&x, &mut y_csr);
        bsr.spmv(&x, &mut y_bsr);
        assert_eq!(y_csr, y_bsr, "padding adds exact zeros only");

        // A tridiagonal (scalar) pattern blocked at 2 has fill 0.5: rejected.
        let mut t = CooBuilder::new(24, 24);
        for i in 0..24usize {
            t.push(i, i, 2.0);
            if i + 1 < 24 {
                t.push(i, i + 1, -1.0);
                t.push(i + 1, i, -1.0);
            }
        }
        assert!(BsrMatrix::detect_padded(&t.to_csr()).is_none());
    }

    #[test]
    fn abft_passes_clean_products_and_catches_flips() {
        for &bs in &[2usize, 3] {
            let a = block_matrix(17, bs, false, 42 + bs as u64);
            let bsr = BsrMatrix::try_from_csr_exact(&a, bs).expect("exact tiling");
            let guard = bsr.abft();
            let x = dense_vec(a.cols(), 5);
            let mut y = vec![0.0; a.rows()];
            bsr.spmv(&x, &mut y);
            guard.verify_spmv(&x, &y).expect("clean spmv must verify");

            // A flipped exponent/sign-region bit in one output entry is a
            // model SDC event: the checksum identity must break.
            let k = y.len() / 2;
            let poisoned_bits = y[k].to_bits() ^ (1 << 61);
            let mut y_bad = y.clone();
            y_bad[k] = f64::from_bits(poisoned_bits);
            assert!(
                guard.verify_spmv(&x, &y_bad).is_err(),
                "bs={bs}: flipped output bit not detected"
            );

            // A corrupted *stored matrix value* also breaks the identity —
            // the checksum row was computed from the pristine operator.
            let mut bad = bsr.clone();
            let m = bad.values.len() / 3;
            bad.values[m] = f64::from_bits(bad.values[m].to_bits() ^ (1 << 60));
            let mut y_mat = vec![0.0; a.rows()];
            bad.spmv(&x, &mut y_mat);
            assert!(
                guard.verify_spmv(&x, &y_mat).is_err(),
                "bs={bs}: corrupted matrix value not detected"
            );
        }
    }

    #[test]
    fn abft_verifies_spmm_per_column() {
        let a = block_matrix(9, 3, false, 14);
        let bsr = BsrMatrix::try_from_csr_exact(&a, 3).unwrap();
        let guard = bsr.abft();
        let mut bm = DMat::zeros(a.cols(), 6);
        for j in 0..6 {
            for (i, v) in bm.col_mut(j).iter_mut().enumerate() {
                *v = ((i * 7 + j * 13) % 11) as f64 / 3.0 - 1.0;
            }
        }
        let mut c = bsr.bsrmm(&bm);
        guard.verify_spmm(&bm, &c).expect("clean spmm must verify");
        let bad = c.col_mut(4)[2].to_bits() ^ (1 << 59);
        c.col_mut(4)[2] = f64::from_bits(bad);
        assert_eq!(
            guard.verify_spmm(&bm, &c).map_err(|(j, _)| j),
            Err(4),
            "defect must be attributed to the poisoned column"
        );
    }

    #[test]
    fn detect_prefers_exact_block_size() {
        let a2 = block_matrix(6, 2, false, 1);
        assert_eq!(BsrMatrix::detect(&a2).map(|b| b.block_size()), Some(2));
        let a3 = block_matrix(4, 3, false, 2);
        assert_eq!(BsrMatrix::detect(&a3).map(|b| b.block_size()), Some(3));
        let mut b = CooBuilder::new(6, 6);
        for i in 0..6 {
            b.push(i, i, 1.0);
        }
        assert!(BsrMatrix::detect(&b.to_csr()).is_none());
    }
}
