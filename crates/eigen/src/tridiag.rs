//! Symmetric tridiagonal eigensolver (implicit QL with Wilkinson shifts,
//! the classical `tql2` algorithm). This is the inner dense kernel of the
//! Lanczos solver: the projected tridiagonal matrix `T_m` is diagonalized
//! here to produce Ritz values and the coefficients of the Ritz vectors.

use dd_linalg::DMat;

/// Eigendecomposition of a symmetric tridiagonal matrix given by its
/// diagonal `d` (length n) and sub/super-diagonal `e` (length n−1).
///
/// Returns eigenvalues sorted ascending and the corresponding orthonormal
/// eigenvector matrix (`n × n`, columns are eigenvectors).
///
/// # Panics
/// Panics if the QL iteration fails to converge (more than 50 iterations on
/// one eigenvalue), which cannot happen for finite input.
pub fn tridiag_eig(d: &[f64], e: &[f64]) -> (Vec<f64>, DMat) {
    ql(d, e, DMat::identity(d.len()))
}

/// Eigenvalues sorted ascending and the *last* component of each unit
/// eigenvector — all a Lanczos residual estimate `|β_m s_{m,i}|` reads — in
/// O(n²) where [`tridiag_eig`] takes O(n³).
pub fn tridiag_eig_last(d: &[f64], e: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let mut last = DMat::zeros(1, d.len());
    last[(0, d.len() - 1)] = 1.0;
    let (values, z) = ql(d, e, last);
    (values, z.data().to_vec())
}

/// Implicit QL on `(d, e)`, applying every rotation to the columns of `z`
/// (`r × n`): started from the last `r` rows of the identity it ends as the
/// last `r` rows of the eigenvector matrix, columns sorted with the
/// eigenvalues.
fn ql(d: &[f64], e: &[f64], mut z: DMat) -> (Vec<f64>, DMat) {
    let n = d.len();
    assert!(n > 0);
    assert_eq!(e.len(), n.saturating_sub(1));
    let mut diag = d.to_vec();
    // Work array with a trailing zero, per the classical formulation.
    let mut off = vec![0.0f64; n];
    off[..n - 1].copy_from_slice(e);

    for l in 0..n {
        let mut iter = 0;
        loop {
            // Find a small sub-diagonal element to split the matrix.
            let mut m = l;
            while m + 1 < n {
                let dd = diag[m].abs() + diag[m + 1].abs();
                if off[m].abs() <= f64::EPSILON * dd {
                    break;
                }
                m += 1;
            }
            if m == l {
                break;
            }
            iter += 1;
            assert!(iter <= 50, "tridiag_eig: QL failed to converge");
            // Wilkinson shift.
            let mut g = (diag[l + 1] - diag[l]) / (2.0 * off[l]);
            let mut r = g.hypot(1.0);
            let sign_r = if g >= 0.0 { r.abs() } else { -r.abs() };
            g = diag[m] - diag[l] + off[l] / (g + sign_r);
            let (mut s, mut c) = (1.0f64, 1.0f64);
            let mut p = 0.0f64;
            let mut i = m;
            while i > l {
                i -= 1;
                let mut f = s * off[i];
                let b = c * off[i];
                r = f.hypot(g);
                off[i + 1] = r;
                if r == 0.0 {
                    diag[i + 1] -= p;
                    off[m] = 0.0;
                    break;
                }
                s = f / r;
                c = g / r;
                g = diag[i + 1] - p;
                r = (diag[i] - g) * s + 2.0 * c * b;
                p = s * r;
                diag[i + 1] = g + p;
                g = c * r - b;
                // Accumulate the rotation into the eigenvector matrix.
                for k in 0..z.rows() {
                    f = z[(k, i + 1)];
                    z[(k, i + 1)] = s * z[(k, i)] + c * f;
                    z[(k, i)] = c * z[(k, i)] - s * f;
                }
                if i == l {
                    break;
                }
            }
            if r == 0.0 && m > l + 1 {
                continue;
            }
            diag[l] -= p;
            off[l] = g;
            off[m] = 0.0;
        }
    }
    // Sort ascending, permuting eigenvector columns accordingly.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| diag[a].total_cmp(&diag[b]));
    let values: Vec<f64> = order.iter().map(|&i| diag[i]).collect();
    let mut vectors = DMat::zeros(z.rows(), n);
    for (newj, &oldj) in order.iter().enumerate() {
        vectors.col_mut(newj).copy_from_slice(z.col(oldj));
    }
    (values, vectors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dd_linalg::{jacobi, vector};

    #[test]
    fn single_element() {
        let (v, z) = tridiag_eig(&[42.0], &[]);
        assert_eq!(v, vec![42.0]);
        assert_eq!(z[(0, 0)], 1.0);
    }

    #[test]
    fn two_by_two() {
        // [[2,1],[1,2]] → eigenvalues 1 and 3.
        let (v, _) = tridiag_eig(&[2.0, 2.0], &[1.0]);
        assert!((v[0] - 1.0).abs() < 1e-12);
        assert!((v[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn laplacian_chain_analytic() {
        // Tridiag(-1, 2, -1) of order n has eigenvalues
        // 2 − 2 cos(kπ/(n+1)), k = 1..n.
        let n = 12;
        let d = vec![2.0; n];
        let e = vec![-1.0; n - 1];
        let (v, z) = tridiag_eig(&d, &e);
        for k in 1..=n {
            let exact = 2.0 - 2.0 * (k as f64 * std::f64::consts::PI / (n as f64 + 1.0)).cos();
            assert!(
                (v[k - 1] - exact).abs() < 1e-10,
                "eigenvalue {k}: {} vs {exact}",
                v[k - 1]
            );
        }
        // Orthonormal columns.
        for i in 0..n {
            for j in 0..=i {
                let dot = vector::dot(z.col(i), z.col(j));
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((dot - expect).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn matches_jacobi_on_random_tridiagonal() {
        let n = 9;
        let d: Vec<f64> = (0..n).map(|i| ((i * 37 % 11) as f64) - 5.0).collect();
        let e: Vec<f64> = (0..n - 1)
            .map(|i| ((i * 17 % 7) as f64) * 0.3 + 0.1)
            .collect();
        let (v, _) = tridiag_eig(&d, &e);
        // Dense reference.
        let mut a = DMat::zeros(n, n);
        for i in 0..n {
            a[(i, i)] = d[i];
        }
        for i in 0..n - 1 {
            a[(i, i + 1)] = e[i];
            a[(i + 1, i)] = e[i];
        }
        let refe = jacobi::sym_eig(&a, 1e-14);
        for i in 0..n {
            assert!(
                (v[i] - refe.eigenvalues[i]).abs() < 1e-9,
                "eigenvalue {i}: {} vs {}",
                v[i],
                refe.eigenvalues[i]
            );
        }
    }

    #[test]
    fn last_components_match_the_full_decomposition() {
        let n = 17;
        let d: Vec<f64> = (0..n).map(|i| ((i * 7 + 3) % 11) as f64 - 4.0).collect();
        let e: Vec<f64> = (0..n - 1).map(|i| 0.5 + ((i * 5) % 3) as f64).collect();
        let (v, z) = tridiag_eig(&d, &e);
        let (v_last, last) = tridiag_eig_last(&d, &e);
        assert_eq!(v, v_last);
        for j in 0..n {
            assert_eq!(last[j], z[(n - 1, j)]);
        }
    }

    #[test]
    fn eigen_residuals() {
        let n = 7;
        let d = vec![3.0; n];
        let e: Vec<f64> = (0..n - 1).map(|i| 0.5 + 0.1 * i as f64).collect();
        let (v, z) = tridiag_eig(&d, &e);
        let mut a = DMat::zeros(n, n);
        for i in 0..n {
            a[(i, i)] = d[i];
        }
        for i in 0..n - 1 {
            a[(i, i + 1)] = e[i];
            a[(i + 1, i)] = e[i];
        }
        for j in 0..n {
            let x = z.col(j);
            let mut ax = vec![0.0; n];
            a.gemv(1.0, x, 0.0, &mut ax);
            let mut lx = x.to_vec();
            vector::scal(v[j], &mut lx);
            assert!(vector::dist2(&ax, &lx) < 1e-10);
        }
    }
}
