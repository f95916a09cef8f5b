//! Column-major dense matrices and the dense kernels the framework needs:
//! `gemm`, `gemv`, Cholesky/LDLᵀ, LU with partial pivoting, and Householder
//! QR. These are the `dense BLAS` counterparts of the paper's MKL calls
//! (`gemm`, `gemv`) used when forming `E_{i,j} = W_iᵀ U_j` and
//! `w_i = W_iᵀ u_i`.

use crate::vector;

/// Column-major dense matrix of `f64`.
///
/// Column-major storage matches the natural layout of the deflation blocks
/// `W_i ∈ R^{n_i × ν_i}`: each deflation vector is one contiguous column.
#[derive(Clone, Debug, PartialEq)]
pub struct DMat {
    rows: usize,
    cols: usize,
    /// `data[i + j*rows]` is entry `(i, j)`.
    data: Vec<f64>,
}

impl DMat {
    /// Zero matrix of shape `rows × cols`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DMat {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = DMat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build from a row-major nested array (convenient in tests).
    #[cfg(test)]
    pub(crate) fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = if r == 0 { 0 } else { rows[0].len() };
        let mut m = DMat::zeros(r, c);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), c, "from_rows: ragged rows");
            for (j, &v) in row.iter().enumerate() {
                m[(i, j)] = v;
            }
        }
        m
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow column `j` as a slice.
    #[inline]
    pub fn col(&self, j: usize) -> &[f64] {
        &self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// Mutably borrow column `j`.
    #[inline]
    pub fn col_mut(&mut self, j: usize) -> &mut [f64] {
        &mut self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// Underlying column-major storage.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Transposed copy.
    pub fn transpose(&self) -> DMat {
        let mut t = DMat::zeros(self.cols, self.rows);
        for j in 0..self.cols {
            for i in 0..self.rows {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// `y ← α A x + β y`.
    pub fn gemv(&self, alpha: f64, x: &[f64], beta: f64, y: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "gemv: x length");
        assert_eq!(y.len(), self.rows, "gemv: y length");
        if beta == 0.0 {
            vector::zero(y);
        } else if beta != 1.0 {
            vector::scal(beta, y);
        }
        for j in 0..self.cols {
            let axj = alpha * x[j];
            if axj != 0.0 {
                vector::axpy(axj, self.col(j), y);
            }
        }
    }

    /// `y ← α Aᵀ x + β y` without forming the transpose.
    pub fn gemv_t(&self, alpha: f64, x: &[f64], beta: f64, y: &mut [f64]) {
        assert_eq!(x.len(), self.rows, "gemv_t: x length");
        assert_eq!(y.len(), self.cols, "gemv_t: y length");
        for j in 0..self.cols {
            let d = vector::dot(self.col(j), x);
            y[j] = alpha * d + if beta == 0.0 { 0.0 } else { beta * y[j] };
        }
    }

    /// `C ← α A B + β C` (`A = self`): the dense reference of the sparse
    /// products' tests.
    #[cfg(test)]
    pub(crate) fn gemm(&self, alpha: f64, b: &DMat, beta: f64, c: &mut DMat) {
        assert_eq!(self.cols, b.rows, "gemm: inner dims");
        assert_eq!(c.rows, self.rows, "gemm: C rows");
        assert_eq!(c.cols, b.cols, "gemm: C cols");
        for j in 0..b.cols {
            let cj = c.col_mut(j);
            if beta == 0.0 {
                vector::zero(cj);
            } else if beta != 1.0 {
                vector::scal(beta, cj);
            }
        }
        // jik order: stream through columns of B and C.
        for j in 0..b.cols {
            for k in 0..self.cols {
                let bkj = alpha * b[(k, j)];
                if bkj != 0.0 {
                    let (a_col, c_col) = (k * self.rows, j * c.rows);
                    for i in 0..self.rows {
                        c.data[c_col + i] += bkj * self.data[a_col + i];
                    }
                }
            }
        }
    }

    /// `C ← α Aᵀ B + β C` (`A = self`); used for `E_{i,j} = W_iᵀ U_j`.
    pub fn gemm_tn(&self, alpha: f64, b: &DMat, beta: f64, c: &mut DMat) {
        assert_eq!(self.rows, b.rows, "gemm_tn: inner dims");
        assert_eq!(c.rows, self.cols, "gemm_tn: C rows");
        assert_eq!(c.cols, b.cols, "gemm_tn: C cols");
        for j in 0..b.cols {
            for i in 0..self.cols {
                let d = vector::dot(self.col(i), b.col(j));
                let prev = if beta == 0.0 { 0.0 } else { beta * c[(i, j)] };
                c[(i, j)] = alpha * d + prev;
            }
        }
    }

    /// Frobenius norm.
    pub fn norm_fro(&self) -> f64 {
        vector::norm2(&self.data)
    }

    /// Maximum absolute entry.
    pub fn norm_max(&self) -> f64 {
        vector::norm_inf(&self.data)
    }

    /// Symmetry defect `max |A_{ij} − A_{ji}|` (square matrices only).
    pub fn symmetry_defect(&self) -> f64 {
        assert_eq!(self.rows, self.cols);
        let mut d = 0.0f64;
        for j in 0..self.cols {
            for i in 0..j {
                d = d.max((self[(i, j)] - self[(j, i)]).abs());
            }
        }
        d
    }
}

impl std::ops::Index<(usize, usize)> for DMat {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i + j * self.rows]
    }
}

impl std::ops::IndexMut<(usize, usize)> for DMat {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i + j * self.rows]
    }
}

/// Error raised by dense factorizations on singular / non-SPD input.
#[derive(Debug, Clone, PartialEq)]
pub enum FactorError {
    /// A pivot below the tolerance was met at the given elimination step.
    SingularPivot { step: usize, pivot: f64 },
    /// The matrix is not positive definite (Cholesky only).
    NotPositiveDefinite { step: usize, pivot: f64 },
}

impl std::fmt::Display for FactorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FactorError::SingularPivot { step, pivot } => {
                write!(f, "singular pivot {pivot:e} at step {step}")
            }
            FactorError::NotPositiveDefinite { step, pivot } => {
                write!(f, "non-SPD pivot {pivot:e} at step {step}")
            }
        }
    }
}

impl std::error::Error for FactorError {}

/// Dense Cholesky factorization `A = L Lᵀ` (lower triangular `L`).
pub struct DenseCholesky {
    n: usize,
    /// Lower triangle of `L`, column-major in a full matrix for simplicity.
    l: DMat,
}

impl DenseCholesky {
    /// Factor a symmetric positive definite matrix. A pivot that is not
    /// finite or not above `min_pivot` is an error (`0.0` accepts every
    /// positive pivot). Only the lower triangle of `a` is read.
    pub fn factor(a: &DMat, min_pivot: f64) -> Result<Self, FactorError> {
        assert_eq!(a.rows(), a.cols(), "cholesky: square input");
        let n = a.rows();
        let mut l = a.clone();
        for j in 0..n {
            // d = A_jj − Σ_{k<j} L_jk²
            let mut d = l[(j, j)];
            for k in 0..j {
                d -= l[(j, k)] * l[(j, k)];
            }
            if !(d.is_finite() && d > min_pivot) {
                return Err(FactorError::NotPositiveDefinite { step: j, pivot: d });
            }
            let djj = d.sqrt();
            l[(j, j)] = djj;
            for i in j + 1..n {
                let mut s = l[(i, j)];
                for k in 0..j {
                    s -= l[(i, k)] * l[(j, k)];
                }
                l[(i, j)] = s / djj;
            }
            for i in 0..j {
                l[(i, j)] = 0.0; // keep only the lower triangle
            }
        }
        Ok(DenseCholesky { n, l })
    }

    /// Solve `A x = b` in place.
    pub fn solve_in_place(&self, b: &mut [f64]) {
        assert_eq!(b.len(), self.n);
        // Forward: L y = b
        for i in 0..self.n {
            let mut s = b[i];
            for k in 0..i {
                s -= self.l[(i, k)] * b[k];
            }
            b[i] = s / self.l[(i, i)];
        }
        // Backward: Lᵀ x = y
        for i in (0..self.n).rev() {
            let mut s = b[i];
            for k in i + 1..self.n {
                s -= self.l[(k, i)] * b[k];
            }
            b[i] = s / self.l[(i, i)];
        }
    }

    /// Solve returning a fresh vector.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = b.to_vec();
        self.solve_in_place(&mut x);
        x
    }

    /// The Cholesky factor `L`.
    pub fn l(&self) -> &DMat {
        &self.l
    }
}

/// Dense LDLᵀ factorization (no pivoting) for symmetric matrices that may be
/// indefinite but are known to have nonzero pivots, e.g. the dense coarse
/// operator `E` in tests.
pub struct DenseLdlt {
    n: usize,
    l: DMat,
    d: Vec<f64>,
}

impl DenseLdlt {
    /// Factor a symmetric matrix; fails on a (near-)zero pivot.
    pub fn factor(a: &DMat) -> Result<Self, FactorError> {
        assert_eq!(a.rows(), a.cols());
        let n = a.rows();
        let mut l = DMat::identity(n);
        let mut d = vec![0.0; n];
        let scale = a.norm_max().max(1.0);
        for j in 0..n {
            let mut dj = a[(j, j)];
            for k in 0..j {
                dj -= l[(j, k)] * l[(j, k)] * d[k];
            }
            if dj.abs() <= 1e-14 * scale || !dj.is_finite() {
                return Err(FactorError::SingularPivot { step: j, pivot: dj });
            }
            d[j] = dj;
            for i in j + 1..n {
                let mut s = a[(i, j)];
                for k in 0..j {
                    s -= l[(i, k)] * l[(j, k)] * d[k];
                }
                l[(i, j)] = s / dj;
            }
        }
        Ok(DenseLdlt { n, l, d })
    }

    /// Solve `A x = b` in place.
    pub fn solve_in_place(&self, b: &mut [f64]) {
        assert_eq!(b.len(), self.n);
        for i in 0..self.n {
            let mut s = b[i];
            for k in 0..i {
                s -= self.l[(i, k)] * b[k];
            }
            b[i] = s;
        }
        for i in 0..self.n {
            b[i] /= self.d[i];
        }
        for i in (0..self.n).rev() {
            let mut s = b[i];
            for k in i + 1..self.n {
                s -= self.l[(k, i)] * b[k];
            }
            b[i] = s;
        }
    }

    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = b.to_vec();
        self.solve_in_place(&mut x);
        x
    }

    /// Signs of the pivots: (#negative, #zero-ish, #positive) — the matrix
    /// inertia by Sylvester's law, useful to check definiteness in tests.
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
}

/// Dense LU factorization with partial pivoting.
pub struct DenseLu {
    n: usize,
    lu: DMat,
    piv: Vec<usize>,
}

impl DenseLu {
    pub fn factor(a: &DMat) -> Result<Self, FactorError> {
        assert_eq!(a.rows(), a.cols());
        let n = a.rows();
        let mut lu = a.clone();
        let mut piv: Vec<usize> = (0..n).collect();
        let scale = a.norm_max().max(1.0);
        for k in 0..n {
            // pivot search in column k
            let mut p = k;
            let mut pmax = lu[(k, k)].abs();
            for i in k + 1..n {
                let v = lu[(i, k)].abs();
                if v > pmax {
                    pmax = v;
                    p = i;
                }
            }
            if pmax <= 1e-300 * scale {
                return Err(FactorError::SingularPivot {
                    step: k,
                    pivot: pmax,
                });
            }
            if p != k {
                piv.swap(k, p);
                for j in 0..n {
                    let t = lu[(k, j)];
                    lu[(k, j)] = lu[(p, j)];
                    lu[(p, j)] = t;
                }
            }
            let pivot = lu[(k, k)];
            for i in k + 1..n {
                let m = lu[(i, k)] / pivot;
                lu[(i, k)] = m;
                if m != 0.0 {
                    for j in k + 1..n {
                        let v = lu[(k, j)];
                        lu[(i, j)] -= m * v;
                    }
                }
            }
        }
        Ok(DenseLu { n, lu, piv })
    }

    pub fn solve_in_place(&self, b: &mut [f64]) {
        assert_eq!(b.len(), self.n);
        // apply permutation
        let permuted: Vec<f64> = self.piv.iter().map(|&p| b[p]).collect();
        b.copy_from_slice(&permuted);
        // L y = Pb (unit lower)
        for i in 0..self.n {
            let mut s = b[i];
            for k in 0..i {
                s -= self.lu[(i, k)] * b[k];
            }
            b[i] = s;
        }
        // U x = y
        for i in (0..self.n).rev() {
            let mut s = b[i];
            for k in i + 1..self.n {
                s -= self.lu[(i, k)] * b[k];
            }
            b[i] = s / self.lu[(i, i)];
        }
    }

    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = b.to_vec();
        self.solve_in_place(&mut x);
        x
    }
}

/// Householder QR of a tall matrix `A = Q R`; exposes `Q` applied to vectors
/// and the upper-triangular `R`. Used by tests and by the orthogonalization
/// fallbacks in the Krylov crate.
pub struct DenseQr {
    rows: usize,
    cols: usize,
    /// Householder vectors stored below the diagonal; R on and above it.
    qr: DMat,
    /// Householder scalars τ.
    tau: Vec<f64>,
}

impl DenseQr {
    pub fn factor(a: &DMat) -> Self {
        let (m, n) = (a.rows(), a.cols());
        assert!(m >= n, "QR expects a tall (or square) matrix");
        let mut qr = a.clone();
        let mut tau = vec![0.0; n];
        for k in 0..n {
            // Build the Householder reflector for column k.
            let mut alpha = 0.0;
            for i in k..m {
                alpha += qr[(i, k)] * qr[(i, k)];
            }
            let alpha = alpha.sqrt();
            if alpha == 0.0 {
                tau[k] = 0.0;
                continue;
            }
            let beta = if qr[(k, k)] >= 0.0 { -alpha } else { alpha };
            let v0 = qr[(k, k)] - beta;
            tau[k] = -v0 / beta;
            // Normalize v so v[k] = 1 implicitly.
            for i in k + 1..m {
                qr[(i, k)] /= v0;
            }
            qr[(k, k)] = beta;
            // Apply (I − τ v vᵀ) to the trailing columns.
            for j in k + 1..n {
                let mut s = qr[(k, j)];
                for i in k + 1..m {
                    s += qr[(i, k)] * qr[(i, j)];
                }
                s *= tau[k];
                qr[(k, j)] -= s;
                for i in k + 1..m {
                    let vik = qr[(i, k)];
                    qr[(i, j)] -= s * vik;
                }
            }
        }
        DenseQr {
            rows: m,
            cols: n,
            qr,
            tau,
        }
    }

    /// Extract the upper-triangular factor `R` (`cols × cols`).
    pub fn r(&self) -> DMat {
        let mut r = DMat::zeros(self.cols, self.cols);
        for j in 0..self.cols {
            for i in 0..=j {
                r[(i, j)] = self.qr[(i, j)];
            }
        }
        r
    }

    /// Compute the thin `Q` (`rows × cols`) explicitly.
    pub fn q(&self) -> DMat {
        let mut q = DMat::zeros(self.rows, self.cols);
        for j in 0..self.cols {
            q[(j, j)] = 1.0;
        }
        // Apply reflectors in reverse order to the identity columns.
        for k in (0..self.cols).rev() {
            if self.tau[k] == 0.0 {
                continue;
            }
            for j in 0..self.cols {
                let mut s = q[(k, j)];
                for i in k + 1..self.rows {
                    s += self.qr[(i, k)] * q[(i, j)];
                }
                s *= self.tau[k];
                q[(k, j)] -= s;
                for i in k + 1..self.rows {
                    let vik = self.qr[(i, k)];
                    q[(i, j)] -= s * vik;
                }
            }
        }
        q
    }

    /// Least-squares solve `min ‖A x − b‖₂` via `R x = Qᵀ b`.
    pub fn solve_ls(&self, b: &[f64]) -> Vec<f64> {
        assert_eq!(b.len(), self.rows);
        let mut y = b.to_vec();
        // y ← Qᵀ b by applying reflectors in order.
        for k in 0..self.cols {
            if self.tau[k] == 0.0 {
                continue;
            }
            let mut s = y[k];
            for i in k + 1..self.rows {
                s += self.qr[(i, k)] * y[i];
            }
            s *= self.tau[k];
            y[k] -= s;
            for i in k + 1..self.rows {
                y[i] -= s * self.qr[(i, k)];
            }
        }
        // Back substitution R x = y[..cols]
        let mut x = y[..self.cols].to_vec();
        for i in (0..self.cols).rev() {
            let mut s = x[i];
            for k in i + 1..self.cols {
                s -= self.qr[(i, k)] * x[k];
            }
            x[i] = s / self.qr[(i, i)];
        }
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> DMat {
        DMat::from_rows(&[&[4.0, 1.0, 0.5], &[1.0, 3.0, 0.25], &[0.5, 0.25, 2.0]])
    }

    #[test]
    fn gemv_identity() {
        let a = DMat::identity(3);
        let x = [1.0, 2.0, 3.0];
        let mut y = [0.0; 3];
        a.gemv(1.0, &x, 0.0, &mut y);
        assert_eq!(y, x);
    }

    #[test]
    fn gemm_matches_manual() {
        let a = DMat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = DMat::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let mut c = DMat::zeros(2, 2);
        a.gemm(1.0, &b, 0.0, &mut c);
        let expect = DMat::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]);
        assert!((c.norm_fro() - expect.norm_fro()).abs() < 1e-14);
        assert!(c.data() == expect.data());
    }

    #[test]
    fn gemm_tn_matches_explicit_transpose() {
        let a = DMat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let b = DMat::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]);
        let mut c1 = DMat::zeros(2, 2);
        a.gemm_tn(1.0, &b, 0.0, &mut c1);
        let at = a.transpose();
        let mut c2 = DMat::zeros(2, 2);
        at.gemm(1.0, &b, 0.0, &mut c2);
        for j in 0..2 {
            for i in 0..2 {
                assert!((c1[(i, j)] - c2[(i, j)]).abs() < 1e-14);
            }
        }
    }

    #[test]
    fn cholesky_solves() {
        let a = spd3();
        let ch = DenseCholesky::factor(&a, 0.0).unwrap();
        let b = [1.0, 2.0, 3.0];
        let x = ch.solve(&b);
        let mut r = [0.0; 3];
        a.gemv(1.0, &x, 0.0, &mut r);
        for i in 0..3 {
            assert!((r[i] - b[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = DMat::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // eigenvalues 3, −1
        assert!(matches!(
            DenseCholesky::factor(&a, 0.0),
            Err(FactorError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn ldlt_solves_indefinite_and_reports_inertia() {
        let a = DMat::from_rows(&[&[2.0, 1.0, 0.0], &[1.0, -3.0, 0.5], &[0.0, 0.5, 4.0]]);
        let f = DenseLdlt::factor(&a).unwrap();
        let b = [1.0, 0.0, -1.0];
        let x = f.solve(&b);
        let mut r = [0.0; 3];
        a.gemv(1.0, &x, 0.0, &mut r);
        for i in 0..3 {
            assert!((r[i] - b[i]).abs() < 1e-11, "residual {i}");
        }
        let (neg, zer, pos) = f.inertia();
        assert_eq!((neg, zer, pos), (1, 0, 2));
    }

    #[test]
    fn lu_solves_nonsymmetric() {
        let a = DMat::from_rows(&[&[0.0, 2.0, 1.0], &[1.0, 1.0, 0.0], &[3.0, 0.0, 1.0]]);
        let f = DenseLu::factor(&a).unwrap();
        let b = [4.0, 2.0, 5.0];
        let x = f.solve(&b);
        let mut r = [0.0; 3];
        a.gemv(1.0, &x, 0.0, &mut r);
        for i in 0..3 {
            assert!((r[i] - b[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn lu_detects_singular() {
        let a = DMat::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(DenseLu::factor(&a).is_err());
    }

    #[test]
    fn qr_reconstructs_and_orthonormal() {
        let a = DMat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0], &[7.0, 9.0]]);
        let qr = DenseQr::factor(&a);
        let q = qr.q();
        let r = qr.r();
        // QᵀQ = I
        let mut qtq = DMat::zeros(2, 2);
        q.gemm_tn(1.0, &q, 0.0, &mut qtq);
        for i in 0..2 {
            for j in 0..2 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((qtq[(i, j)] - expect).abs() < 1e-12);
            }
        }
        // QR = A
        let mut qrm = DMat::zeros(4, 2);
        q.gemm(1.0, &r, 0.0, &mut qrm);
        for i in 0..4 {
            for j in 0..2 {
                assert!((qrm[(i, j)] - a[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn qr_least_squares() {
        // Overdetermined fit of y = 2x + 1 with exact data: LS must recover it.
        let a = DMat::from_rows(&[&[1.0, 0.0], &[1.0, 1.0], &[1.0, 2.0], &[1.0, 3.0]]);
        let b = [1.0, 3.0, 5.0, 7.0];
        let qr = DenseQr::factor(&a);
        let x = qr.solve_ls(&b);
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }
}
