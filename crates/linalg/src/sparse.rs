//! Compressed sparse row matrices and the sparse kernels used by the
//! framework: `spmv` (global/local matrix–vector products, eq. 5 of the
//! paper), `csrmm` (the `T_i = A_i W_i` products of Algorithm 1), sparse ×
//! sparse products, submatrix extraction (building Dirichlet matrices
//! `A_i = R_i A R_iᵀ` from a larger discretization, approach 2 in §2), and
//! symmetric permutations (fill-reducing orderings in the direct solver).

use crate::dense::DMat;

/// Triplet (COO) accumulator used during finite element assembly.
///
/// Duplicate entries are summed when converting to CSR, which is exactly the
/// semantics of FEM assembly where element matrices accumulate onto shared
/// degrees of freedom.
#[derive(Clone, Debug, Default)]
pub struct CooBuilder {
    rows: usize,
    cols: usize,
    entries: Vec<(u32, u32, f64)>,
}

impl CooBuilder {
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows < u32::MAX as usize && cols < u32::MAX as usize);
        CooBuilder {
            rows,
            cols,
            entries: Vec::new(),
        }
    }

    pub fn with_capacity(rows: usize, cols: usize, nnz: usize) -> Self {
        let mut b = Self::new(rows, cols);
        b.entries.reserve(nnz);
        b
    }

    /// Add `v` to entry `(i, j)`.
    #[inline]
    pub fn push(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.rows && j < self.cols, "coo: index out of range");
        if v != 0.0 {
            self.entries.push((i as u32, j as u32, v));
        }
    }

    /// Convert to CSR, summing duplicates. Column indices within each row
    /// are sorted.
    pub fn to_csr(&self) -> CsrMatrix {
        let mut row_counts = vec![0usize; self.rows + 1];
        for &(i, _, _) in &self.entries {
            row_counts[i as usize + 1] += 1;
        }
        for i in 0..self.rows {
            row_counts[i + 1] += row_counts[i];
        }
        // Bucket entries by row.
        let mut cols = vec![0u32; self.entries.len()];
        let mut vals = vec![0.0f64; self.entries.len()];
        let mut next = row_counts.clone();
        for &(i, j, v) in &self.entries {
            let p = next[i as usize];
            cols[p] = j;
            vals[p] = v;
            next[i as usize] += 1;
        }
        // Sort each row by column and merge duplicates.
        let mut out_ptr = Vec::with_capacity(self.rows + 1);
        let mut out_cols: Vec<u32> = Vec::with_capacity(self.entries.len());
        let mut out_vals: Vec<f64> = Vec::with_capacity(self.entries.len());
        out_ptr.push(0usize);
        let mut scratch: Vec<(u32, f64)> = Vec::new();
        for i in 0..self.rows {
            let (s, e) = (row_counts[i], row_counts[i + 1]);
            scratch.clear();
            scratch.extend(cols[s..e].iter().copied().zip(vals[s..e].iter().copied()));
            scratch.sort_unstable_by_key(|&(c, _)| c);
            let mut k = 0;
            while k < scratch.len() {
                let c = scratch[k].0;
                let mut v = scratch[k].1;
                k += 1;
                while k < scratch.len() && scratch[k].0 == c {
                    v += scratch[k].1;
                    k += 1;
                }
                out_cols.push(c);
                out_vals.push(v);
            }
            out_ptr.push(out_cols.len());
        }
        CsrMatrix {
            rows: self.rows,
            cols: self.cols,
            row_ptr: out_ptr,
            col_idx: out_cols,
            values: out_vals,
        }
    }
}

/// Compressed sparse row matrix with sorted column indices per row.
#[derive(Clone, Debug, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Build directly from raw CSR arrays (columns must be sorted per row).
    pub fn from_raw(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<u32>,
        values: Vec<f64>,
    ) -> Self {
        assert_eq!(row_ptr.len(), rows + 1);
        assert_eq!(col_idx.len(), values.len());
        assert_eq!(*row_ptr.last().unwrap(), col_idx.len());
        debug_assert!(row_ptr.windows(2).all(|w| w[0] <= w[1]));
        debug_assert!((0..rows).all(|i| {
            col_idx[row_ptr[i]..row_ptr[i + 1]]
                .windows(2)
                .all(|w| w[0] < w[1])
        }));
        CsrMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Empty `rows × cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        CsrMatrix {
            rows,
            cols,
            row_ptr: vec![0; rows + 1],
            col_idx: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Identity of order `n`.
    pub fn identity(n: usize) -> Self {
        CsrMatrix {
            rows: n,
            cols: n,
            row_ptr: (0..=n).collect(),
            col_idx: (0..n as u32).collect(),
            values: vec![1.0; n],
        }
    }

    /// Diagonal matrix from a vector.
    pub fn from_diag(d: &[f64]) -> Self {
        let n = d.len();
        CsrMatrix {
            rows: n,
            cols: n,
            row_ptr: (0..=n).collect(),
            col_idx: (0..n as u32).collect(),
            values: d.to_vec(),
        }
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    pub fn col_idx(&self) -> &[u32] {
        &self.col_idx
    }

    pub fn values(&self) -> &[f64] {
        &self.values
    }

    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Iterate over `(col, value)` of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let (s, e) = (self.row_ptr[i], self.row_ptr[i + 1]);
        self.col_idx[s..e]
            .iter()
            .zip(&self.values[s..e])
            .map(|(&c, &v)| (c as usize, v))
    }

    /// Entry `(i, j)` via binary search (0 if not stored).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let (s, e) = (self.row_ptr[i], self.row_ptr[i + 1]);
        match self.col_idx[s..e].binary_search(&(j as u32)) {
            Ok(p) => self.values[s + p],
            Err(_) => 0.0,
        }
    }

    /// `y ← A x` (overwrites `y`).
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "spmv: x length");
        assert_eq!(y.len(), self.rows, "spmv: y length");
        for i in 0..self.rows {
            let (s, e) = (self.row_ptr[i], self.row_ptr[i + 1]);
            let mut acc = 0.0;
            for k in s..e {
                acc += self.values[k] * x[self.col_idx[k] as usize];
            }
            y[i] = acc;
        }
    }

    /// `y_c ← A x_c` for `k` columns `ld` apart in `x` and in `y`: per
    /// column the sum [`CsrMatrix::spmv`] forms, in its order (so bitwise
    /// that product), the matrix read once for every four columns.
    pub fn spmv_panel(&self, x: &[f64], y: &mut [f64], ld: usize, k: usize) {
        assert!(
            k <= 1 || ld >= self.rows.max(self.cols),
            "spmv_panel: columns overlap"
        );
        let mut c0 = 0;
        while c0 + 4 <= k {
            self.spmv_cols::<4>(&x[c0 * ld..], &mut y[c0 * ld..], ld);
            c0 += 4;
        }
        for c in c0..k {
            let at = c * ld;
            self.spmv(&x[at..at + self.cols], &mut y[at..at + self.rows]);
        }
    }

    /// [`CsrMatrix::spmv_panel`] on `B` columns.
    // dd:hot — the panel's local products, once per Krylov step
    fn spmv_cols<const B: usize>(&self, x: &[f64], y: &mut [f64], ld: usize) {
        assert!(x.len() >= (B - 1) * ld + self.cols && y.len() >= (B - 1) * ld + self.rows);
        for i in 0..self.rows {
            let (s, e) = (self.row_ptr[i], self.row_ptr[i + 1]);
            let mut acc = [0.0; B];
            for (&v, &j) in self.values[s..e].iter().zip(&self.col_idx[s..e]) {
                for (c, a) in acc.iter_mut().enumerate() {
                    *a += v * x[c * ld + j as usize];
                }
            }
            for (c, a) in acc.into_iter().enumerate() {
                y[c * ld + i] = a;
            }
        }
    }

    /// Sparse × dense: `C ← A B` (the paper's `csrmm`, used for
    /// `T_i = A_i W_i`).
    pub fn csrmm(&self, b: &DMat) -> DMat {
        assert_eq!(b.rows(), self.cols, "csrmm: inner dims");
        let mut c = DMat::zeros(self.rows, b.cols());
        for j in 0..b.cols() {
            let bj = b.col(j);
            let cj = c.col_mut(j);
            for i in 0..self.rows {
                let (s, e) = (self.row_ptr[i], self.row_ptr[i + 1]);
                let mut acc = 0.0;
                for k in s..e {
                    acc += self.values[k] * bj[self.col_idx[k] as usize];
                }
                cj[i] = acc;
            }
        }
        c
    }

    /// Transposed copy `Aᵀ` (counting-sort based, O(nnz)).
    pub fn transpose(&self) -> CsrMatrix {
        let nnz = self.nnz();
        let mut row_ptr = vec![0usize; self.cols + 1];
        for &c in &self.col_idx {
            row_ptr[c as usize + 1] += 1;
        }
        for i in 0..self.cols {
            row_ptr[i + 1] += row_ptr[i];
        }
        let mut next = row_ptr.clone();
        let mut col_idx = vec![0u32; nnz];
        let mut values = vec![0.0; nnz];
        // Visiting rows in order makes each output row sorted automatically.
        for i in 0..self.rows {
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                let c = self.col_idx[k] as usize;
                let p = next[c];
                col_idx[p] = i as u32;
                values[p] = self.values[k];
                next[c] += 1;
            }
        }
        CsrMatrix {
            rows: self.cols,
            cols: self.rows,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Sparse × sparse product `A B` using the classical Gustavson row-merge.
    pub fn spmm(&self, b: &CsrMatrix) -> CsrMatrix {
        assert_eq!(self.cols, b.rows, "spmm: inner dims");
        let n = b.cols;
        let mut row_ptr = Vec::with_capacity(self.rows + 1);
        let mut col_idx: Vec<u32> = Vec::new();
        let mut values: Vec<f64> = Vec::new();
        row_ptr.push(0usize);
        // Dense accumulator with a "touched" marker list.
        let mut acc = vec![0.0f64; n];
        let mut mark = vec![usize::MAX; n];
        let mut touched: Vec<u32> = Vec::new();
        for i in 0..self.rows {
            touched.clear();
            for ka in self.row_ptr[i]..self.row_ptr[i + 1] {
                let a_ik = self.values[ka];
                let kk = self.col_idx[ka] as usize;
                for kb in b.row_ptr[kk]..b.row_ptr[kk + 1] {
                    let j = b.col_idx[kb] as usize;
                    if mark[j] != i {
                        mark[j] = i;
                        acc[j] = 0.0;
                        touched.push(j as u32);
                    }
                    acc[j] += a_ik * b.values[kb];
                }
            }
            touched.sort_unstable();
            for &j in &touched {
                col_idx.push(j);
                values.push(acc[j as usize]);
            }
            row_ptr.push(col_idx.len());
        }
        CsrMatrix {
            rows: self.rows,
            cols: n,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// `A + α B`.
    pub fn add_scaled(&self, alpha: f64, b: &CsrMatrix) -> CsrMatrix {
        assert_eq!(self.rows, b.rows);
        assert_eq!(self.cols, b.cols);
        let mut row_ptr = Vec::with_capacity(self.rows + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0usize);
        for i in 0..self.rows {
            let (mut ka, ea) = (self.row_ptr[i], self.row_ptr[i + 1]);
            let (mut kb, eb) = (b.row_ptr[i], b.row_ptr[i + 1]);
            while ka < ea || kb < eb {
                let ca = if ka < ea { self.col_idx[ka] } else { u32::MAX };
                let cb = if kb < eb { b.col_idx[kb] } else { u32::MAX };
                if ca < cb {
                    col_idx.push(ca);
                    values.push(self.values[ka]);
                    ka += 1;
                } else if cb < ca {
                    col_idx.push(cb);
                    values.push(alpha * b.values[kb]);
                    kb += 1;
                } else {
                    col_idx.push(ca);
                    values.push(self.values[ka] + alpha * b.values[kb]);
                    ka += 1;
                    kb += 1;
                }
            }
            row_ptr.push(col_idx.len());
        }
        CsrMatrix {
            rows: self.rows,
            cols: self.cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Extract the square principal submatrix `A(idx, idx)`.
    ///
    /// `idx` maps local → global indices; this is `R A Rᵀ` for the boolean
    /// restriction `R` selecting `idx`, i.e. the construction of the
    /// assembled Dirichlet matrices `A_i = R_i A R_iᵀ` of §2.
    pub fn principal_submatrix(&self, idx: &[usize]) -> CsrMatrix {
        assert_eq!(self.rows, self.cols, "principal submatrix of square only");
        let mut glob2loc = vec![u32::MAX; self.cols];
        for (l, &g) in idx.iter().enumerate() {
            assert!(
                glob2loc[g] == u32::MAX,
                "principal_submatrix: duplicate index {g}"
            );
            glob2loc[g] = l as u32;
        }
        let m = idx.len();
        let mut row_ptr = Vec::with_capacity(m + 1);
        let mut col_idx: Vec<u32> = Vec::new();
        let mut values: Vec<f64> = Vec::new();
        row_ptr.push(0usize);
        let mut scratch: Vec<(u32, f64)> = Vec::new();
        for &g in idx {
            scratch.clear();
            for k in self.row_ptr[g]..self.row_ptr[g + 1] {
                let lj = glob2loc[self.col_idx[k] as usize];
                if lj != u32::MAX {
                    scratch.push((lj, self.values[k]));
                }
            }
            scratch.sort_unstable_by_key(|&(c, _)| c);
            for &(c, v) in &scratch {
                col_idx.push(c);
                values.push(v);
            }
            row_ptr.push(col_idx.len());
        }
        CsrMatrix {
            rows: m,
            cols: m,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Symmetric permutation `P A Pᵀ`: entry `(i, j)` of the result is
    /// `A(perm[i], perm[j])`.
    pub fn permute_sym(&self, perm: &[usize]) -> CsrMatrix {
        assert_eq!(self.rows, self.cols);
        assert_eq!(perm.len(), self.rows);
        self.principal_submatrix(perm)
    }

    /// The diagonal as a vector (zeros where not stored).
    pub fn diag(&self) -> Vec<f64> {
        assert_eq!(self.rows, self.cols);
        (0..self.rows).map(|i| self.get(i, i)).collect()
    }

    /// Maximum asymmetry `max |a_ij − a_ji|` — cheap structural+numeric
    /// symmetry check for tests and debug assertions.
    pub fn symmetry_defect(&self) -> f64 {
        assert_eq!(self.rows, self.cols);
        let t = self.transpose();
        let d = self.add_scaled(-1.0, &t);
        d.values.iter().fold(0.0f64, |m, v| m.max(v.abs()))
    }

    /// Dense copy (tests only; panics on big matrices to catch misuse).
    pub fn to_dense(&self) -> DMat {
        assert!(
            self.rows * self.cols <= 16_000_000,
            "to_dense on a large matrix"
        );
        let mut d = DMat::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            for (j, v) in self.row(i) {
                d[(i, j)] = v;
            }
        }
        d
    }

    /// 1-norm (max column sum of absolute values).
    pub fn norm_1(&self) -> f64 {
        let mut colsum = vec![0.0f64; self.cols];
        for i in 0..self.rows {
            for (j, v) in self.row(i) {
                colsum[j] += v.abs();
            }
        }
        colsum.iter().fold(0.0f64, |m, &v| m.max(v))
    }

    /// Infinity norm (max row sum of absolute values).
    pub fn norm_inf(&self) -> f64 {
        let mut m = 0.0f64;
        for i in 0..self.rows {
            let s: f64 = self.row(i).map(|(_, v)| v.abs()).sum();
            m = m.max(s);
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CsrMatrix {
        // [2 0 1]
        // [0 3 0]
        // [1 0 4]
        let mut b = CooBuilder::new(3, 3);
        b.push(0, 0, 2.0);
        b.push(0, 2, 1.0);
        b.push(1, 1, 3.0);
        b.push(2, 0, 1.0);
        b.push(2, 2, 4.0);
        b.to_csr()
    }

    #[test]
    fn coo_sums_duplicates_and_sorts() {
        let mut b = CooBuilder::new(2, 2);
        b.push(0, 1, 1.0);
        b.push(0, 0, 2.0);
        b.push(0, 1, 3.0);
        let a = b.to_csr();
        assert_eq!(a.nnz(), 2);
        assert_eq!(a.get(0, 0), 2.0);
        assert_eq!(a.get(0, 1), 4.0);
        assert_eq!(a.col_idx(), &[0, 1]);
    }

    #[test]
    fn spmv_matches_dense() {
        let a = small();
        let x = [1.0, 2.0, 3.0];
        let mut y = [0.0; 3];
        a.spmv(&x, &mut y);
        assert_eq!(y, [5.0, 6.0, 13.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let mut b = CooBuilder::new(2, 3);
        b.push(0, 2, 5.0);
        b.push(1, 0, 7.0);
        let a = b.to_csr();
        let t = a.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.get(2, 0), 5.0);
        assert_eq!(t.get(0, 1), 7.0);
        let tt = t.transpose();
        assert_eq!(tt, a);
    }

    #[test]
    fn spmm_against_dense() {
        let a = small();
        let b = small();
        let c = a.spmm(&b);
        let ad = a.to_dense();
        let bd = b.to_dense();
        let mut cd = DMat::zeros(3, 3);
        ad.gemm(1.0, &bd, 0.0, &mut cd);
        for i in 0..3 {
            for j in 0..3 {
                assert!((c.get(i, j) - cd[(i, j)]).abs() < 1e-14);
            }
        }
    }

    #[test]
    fn csrmm_against_spmv() {
        let a = small();
        let mut w = DMat::zeros(3, 2);
        w.col_mut(0).copy_from_slice(&[1.0, 0.0, 2.0]);
        w.col_mut(1).copy_from_slice(&[0.0, 1.0, 1.0]);
        let t = a.csrmm(&w);
        for j in 0..2 {
            let mut y = vec![0.0; 3];
            a.spmv(w.col(j), &mut y);
            assert_eq!(t.col(j), &y[..]);
        }
    }

    /// The panel product is the column loop of `spmv` to the bit, for 1 to
    /// 9 columns (blocks of four and a remainder), the gaps between the
    /// columns untouched.
    #[test]
    fn spmv_panel_is_the_spmv_loop_bitwise() {
        let n = 40;
        let mut b = CooBuilder::new(n, n);
        for i in 0..n {
            for j in [i, (i * 7 + 3) % n, (i * 13 + 5) % n] {
                b.push(i, j, ((i + 2 * j) as f64 * 0.31).sin());
            }
        }
        let a = b.to_csr();
        let ld = n + 2;
        for k in 1..=9 {
            let x: Vec<f64> = (0..k * ld).map(|i| (i as f64 * 0.17).cos()).collect();
            let mut y = vec![f64::NAN; k * ld];
            a.spmv_panel(&x, &mut y, ld, k);
            for c in 0..k {
                let mut want = vec![0.0; n];
                a.spmv(&x[c * ld..c * ld + n], &mut want);
                let got = &y[c * ld..c * ld + n];
                assert!(got
                    .iter()
                    .zip(&want)
                    .all(|(p, q)| p.to_bits() == q.to_bits()));
                assert!(y[c * ld + n..(c + 1) * ld].iter().all(|v| v.is_nan()));
            }
        }
    }

    #[test]
    fn principal_submatrix_extracts() {
        let a = small();
        let s = a.principal_submatrix(&[2, 0]);
        // rows/cols reordered: entry (0,0)=A(2,2)=4, (0,1)=A(2,0)=1, ...
        assert_eq!(s.get(0, 0), 4.0);
        assert_eq!(s.get(0, 1), 1.0);
        assert_eq!(s.get(1, 0), 1.0);
        assert_eq!(s.get(1, 1), 2.0);
    }

    #[test]
    fn add_scaled_and_symmetry() {
        let a = small();
        assert!(a.symmetry_defect() < 1e-15);
        let z = a.add_scaled(-1.0, &a);
        assert!(z.values().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn norms() {
        let a = small();
        assert_eq!(a.norm_inf(), 5.0); // row 2: 1+4
        assert_eq!(a.norm_1(), 5.0);
    }
}
