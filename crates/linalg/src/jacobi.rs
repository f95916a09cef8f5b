//! Dense symmetric eigensolvers: the cyclic Jacobi method and a generalized
//! variant via Cholesky reduction. These are the *reference* eigensolvers —
//! O(n³), bulletproof — used to validate the Lanczos solver in `dd-eigen`
//! and to solve the small local eigenproblems exactly in tests.

use crate::dense::{DMat, DenseCholesky, FactorError};

/// Result of a symmetric eigendecomposition `A = V diag(λ) Vᵀ` with
/// eigenvalues sorted ascending and orthonormal columns in `V`.
pub struct SymEig {
    pub eigenvalues: Vec<f64>,
    pub eigenvectors: DMat,
}

/// Cyclic Jacobi eigensolver for dense symmetric matrices.
///
/// Sweeps over all off-diagonal entries, rotating each to zero, until the
/// off-diagonal Frobenius norm falls below `tol · ‖A‖_F`.
pub fn sym_eig(a: &DMat, tol: f64) -> SymEig {
    assert_eq!(a.rows(), a.cols(), "sym_eig: square input");
    let n = a.rows();
    let mut m = a.clone();
    let mut v = DMat::identity(n);
    let norm = m.norm_fro().max(f64::MIN_POSITIVE);
    let max_sweeps = 60;
    for _sweep in 0..max_sweeps {
        let mut off = 0.0;
        for j in 0..n {
            for i in 0..j {
                off += m[(i, j)] * m[(i, j)];
            }
        }
        if (2.0 * off).sqrt() <= tol * norm {
            break;
        }
        for p in 0..n {
            for q in p + 1..n {
                let apq = m[(p, q)];
                if apq.abs() <= tol * norm * 1e-3 {
                    continue;
                }
                let app = m[(p, p)];
                let aqq = m[(q, q)];
                // classic stable rotation computation
                let theta = (aqq - app) / (2.0 * apq);
                let t = if theta >= 0.0 {
                    1.0 / (theta + (1.0 + theta * theta).sqrt())
                } else {
                    -1.0 / (-theta + (1.0 + theta * theta).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;
                // Update M = Jᵀ M J on rows/cols p and q.
                for k in 0..n {
                    let mkp = m[(k, p)];
                    let mkq = m[(k, q)];
                    m[(k, p)] = c * mkp - s * mkq;
                    m[(k, q)] = s * mkp + c * mkq;
                }
                for k in 0..n {
                    let mpk = m[(p, k)];
                    let mqk = m[(q, k)];
                    m[(p, k)] = c * mpk - s * mqk;
                    m[(q, k)] = s * mpk + c * mqk;
                }
                // Accumulate eigenvectors V ← V J.
                for k in 0..n {
                    let vkp = v[(k, p)];
                    let vkq = v[(k, q)];
                    v[(k, p)] = c * vkp - s * vkq;
                    v[(k, q)] = s * vkp + c * vkq;
                }
            }
        }
    }
    // Extract and sort ascending.
    let mut pairs: Vec<(f64, usize)> = (0..n).map(|i| (m[(i, i)], i)).collect();
    pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
    let eigenvalues: Vec<f64> = pairs.iter().map(|&(l, _)| l).collect();
    let mut eigenvectors = DMat::zeros(n, n);
    for (newj, &(_, oldj)) in pairs.iter().enumerate() {
        eigenvectors.col_mut(newj).copy_from_slice(v.col(oldj));
    }
    SymEig {
        eigenvalues,
        eigenvectors,
    }
}

/// Generalized symmetric-definite eigenproblem `A x = λ B x` with `B` SPD,
/// solved by Cholesky reduction: with `B = L Lᵀ`, solve the standard problem
/// `(L⁻¹ A L⁻ᵀ) y = λ y` and map back `x = L⁻ᵀ y`.
///
/// Eigenvectors are returned `B`-orthonormal (`xᵢᵀ B xⱼ = δᵢⱼ`).
pub fn sym_eig_generalized(a: &DMat, b: &DMat, tol: f64) -> Result<SymEig, FactorError> {
    assert_eq!(a.rows(), a.cols());
    assert_eq!(b.rows(), b.cols());
    assert_eq!(a.rows(), b.rows());
    let n = a.rows();
    let ch = DenseCholesky::factor(b, 0.0)?;
    let l = ch.l();
    // C = L⁻¹ A L⁻ᵀ: first solve L X = A (column-wise forward subst.),
    // then C = (L⁻¹ Xᵀ)ᵀ … done entrywise below for clarity.
    // Step 1: Y = L⁻¹ A  (forward substitution on each column of A)
    let mut y = a.clone();
    for j in 0..n {
        let col = y.col_mut(j);
        for i in 0..n {
            let mut s = col[i];
            for k in 0..i {
                s -= l[(i, k)] * col[k];
            }
            col[i] = s / l[(i, i)];
        }
    }
    // Step 2: C = Y L⁻ᵀ, i.e. solve Cᵀ = L⁻¹ Yᵀ; exploit symmetry: C = L⁻¹ (L⁻¹ A)ᵀ.
    let yt = y.transpose();
    let mut c = yt.clone();
    for j in 0..n {
        let col = c.col_mut(j);
        for i in 0..n {
            let mut s = col[i];
            for k in 0..i {
                s -= l[(i, k)] * col[k];
            }
            col[i] = s / l[(i, i)];
        }
    }
    // Symmetrize against roundoff.
    for j in 0..n {
        for i in 0..j {
            let avg = 0.5 * (c[(i, j)] + c[(j, i)]);
            c[(i, j)] = avg;
            c[(j, i)] = avg;
        }
    }
    let se = sym_eig(&c, tol);
    // Map back x = L⁻ᵀ y (back substitution per column).
    let mut x = se.eigenvectors;
    for j in 0..n {
        let col = x.col_mut(j);
        for i in (0..n).rev() {
            let mut s = col[i];
            for k in i + 1..n {
                s -= l[(k, i)] * col[k];
            }
            col[i] = s / l[(i, i)];
        }
    }
    Ok(SymEig {
        eigenvalues: se.eigenvalues,
        eigenvectors: x,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector;

    #[test]
    fn eig_of_diagonal() {
        let a = DMat::from_rows(&[&[3.0, 0.0], &[0.0, 1.0]]);
        let e = sym_eig(&a, 1e-14);
        assert!((e.eigenvalues[0] - 1.0).abs() < 1e-12);
        assert!((e.eigenvalues[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn eig_residuals_small() {
        // A fixed symmetric matrix.
        let a = DMat::from_rows(&[
            &[4.0, 1.0, -2.0, 0.5],
            &[1.0, 3.0, 0.0, 1.5],
            &[-2.0, 0.0, 5.0, -1.0],
            &[0.5, 1.5, -1.0, 2.0],
        ]);
        let e = sym_eig(&a, 1e-14);
        for j in 0..4 {
            let v = e.eigenvectors.col(j);
            let mut av = vec![0.0; 4];
            a.gemv(1.0, v, 0.0, &mut av);
            let mut lv = v.to_vec();
            vector::scal(e.eigenvalues[j], &mut lv);
            assert!(vector::dist2(&av, &lv) < 1e-10, "residual for pair {j}");
        }
        // Orthonormality
        for i in 0..4 {
            for j in 0..4 {
                let d = vector::dot(e.eigenvectors.col(i), e.eigenvectors.col(j));
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((d - expect).abs() < 1e-10);
            }
        }
        // Trace preserved
        let tr: f64 = e.eigenvalues.iter().sum();
        assert!((tr - (4.0 + 3.0 + 5.0 + 2.0)).abs() < 1e-10);
    }

    #[test]
    fn generalized_reduces_to_standard_with_identity_b() {
        let a = DMat::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
        let b = DMat::identity(2);
        let e = sym_eig_generalized(&a, &b, 1e-14).unwrap();
        assert!((e.eigenvalues[0] - 1.0).abs() < 1e-10);
        assert!((e.eigenvalues[1] - 3.0).abs() < 1e-10);
    }

    #[test]
    fn generalized_rejects_indefinite_b() {
        let a = DMat::identity(2);
        let b = DMat::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // eigenvalues 3, −1
        assert!(sym_eig_generalized(&a, &b, 1e-14).is_err());
    }

    #[test]
    fn generalized_pencil_residuals() {
        let a = DMat::from_rows(&[&[4.0, 1.0, 0.0], &[1.0, 3.0, 1.0], &[0.0, 1.0, 2.0]]);
        let b = DMat::from_rows(&[&[2.0, 0.5, 0.0], &[0.5, 2.0, 0.5], &[0.0, 0.5, 2.0]]);
        let e = sym_eig_generalized(&a, &b, 1e-14).unwrap();
        for j in 0..3 {
            let v = e.eigenvectors.col(j);
            let mut av = vec![0.0; 3];
            a.gemv(1.0, v, 0.0, &mut av);
            let mut bv = vec![0.0; 3];
            b.gemv(1.0, v, 0.0, &mut bv);
            vector::scal(e.eigenvalues[j], &mut bv);
            assert!(vector::dist2(&av, &bv) < 1e-9, "pencil residual pair {j}");
        }
        // B-orthonormality
        for i in 0..3 {
            for j in 0..3 {
                let vi = e.eigenvectors.col(i);
                let vj = e.eigenvectors.col(j);
                let mut bvj = vec![0.0; 3];
                b.gemv(1.0, vj, 0.0, &mut bvj);
                let d = vector::dot(vi, &bvj);
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((d - expect).abs() < 1e-9);
            }
        }
    }
}
