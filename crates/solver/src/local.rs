//! Backend-selectable local LDLᵀ — one interface over the scalar up-looking
//! factorization ([`SparseLdlt`]) and the blocked multifrontal one
//! ([`SupernodalLdlt`]).
//!
//! The SPMD layer factors every subdomain Dirichlet matrix through this
//! wrapper so the backend is a run-time option: the scalar path stays the
//! bit-for-bit differential oracle (and the default, keeping every committed
//! convergence baseline untouched), while the supernodal path trades
//! last-ulp-identical trajectories for the blocked kernels' raw speed.

use crate::ldlt::{LdltError, Ordering, PivotPolicy, SparseLdlt};
use crate::ordering;
use crate::supernodal::SupernodalLdlt;
use dd_linalg::{CsrMatrix, DMat};

/// Which factorization backs a [`LocalLdlt`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum LdltBackend {
    /// Up-looking scalar LDLᵀ — the differential oracle and default.
    #[default]
    Scalar,
    /// Multifrontal LDLᵀ with relaxed supernodes and register-blocked
    /// panel updates (`dd_linalg::smallgemm`). Same pivoting policy and
    /// fill-reducing orderings; results differ from the scalar path only
    /// in rounding (different but equally valid summation order).
    Supernodal,
}

/// A factored subdomain matrix, backed by either LDLᵀ implementation.
pub enum LocalLdlt {
    Scalar(SparseLdlt),
    Supernodal(SupernodalLdlt),
}

impl LocalLdlt {
    pub fn factor(a: &CsrMatrix, ord: Ordering, backend: LdltBackend) -> Result<Self, LdltError> {
        Self::factor_with(a, ord, PivotPolicy::default(), backend)
    }

    pub fn factor_with(
        a: &CsrMatrix,
        ord: Ordering,
        pivot: PivotPolicy,
        backend: LdltBackend,
    ) -> Result<Self, LdltError> {
        Self::factor_ordered(a, &ordering::fill_reducing(a, ord), pivot, backend)
    }

    /// Factor under a precomputed elimination order. A caller with two
    /// matrices of one pattern — a subdomain's Dirichlet matrix and its
    /// shifted GenEO pencil — computes [`ordering::fill_reducing`] once and
    /// passes it to both.
    pub fn factor_ordered(
        a: &CsrMatrix,
        perm: &[usize],
        pivot: PivotPolicy,
        backend: LdltBackend,
    ) -> Result<Self, LdltError> {
        match backend {
            LdltBackend::Scalar => {
                SparseLdlt::factor_ordered(a, perm, pivot).map(LocalLdlt::Scalar)
            }
            LdltBackend::Supernodal => {
                SupernodalLdlt::factor_ordered(a, perm, pivot).map(LocalLdlt::Supernodal)
            }
        }
    }

    pub fn n(&self) -> usize {
        match self {
            LocalLdlt::Scalar(f) => f.n(),
            LocalLdlt::Supernodal(f) => f.n(),
        }
    }

    /// Stored entries of `L` (strictly lower part; supernodal counts the
    /// same structural quantity, excluding relaxation padding).
    pub fn nnz_l(&self) -> usize {
        match self {
            LocalLdlt::Scalar(f) => f.nnz_l(),
            LocalLdlt::Supernodal(f) => f.nnz_l(),
        }
    }

    pub fn n_boosted(&self) -> usize {
        match self {
            LocalLdlt::Scalar(f) => f.n_boosted(),
            LocalLdlt::Supernodal(f) => f.n_boosted(),
        }
    }

    pub fn inertia(&self) -> (usize, usize, usize) {
        match self {
            LocalLdlt::Scalar(f) => f.inertia(),
            LocalLdlt::Supernodal(f) => f.inertia(),
        }
    }

    pub fn solve_in_place(&self, b: &mut [f64]) {
        self.solve_in_place_with(b, &mut Vec::new());
    }

    /// [`LocalLdlt::solve_in_place`] with the permuted work vector taken
    /// from the caller, who keeps it between solves so that none of them
    /// allocates (`z` is overwritten; any length will do).
    pub fn solve_in_place_with(&self, b: &mut [f64], z: &mut Vec<f64>) {
        match self {
            LocalLdlt::Scalar(f) => f.solve_in_place_with(b, z),
            LocalLdlt::Supernodal(f) => f.solve_in_place_with(b, z),
        }
    }

    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        match self {
            LocalLdlt::Scalar(f) => f.solve(b),
            LocalLdlt::Supernodal(f) => f.solve(b),
        }
    }

    pub fn solve_mat(&self, b: &DMat) -> DMat {
        match self {
            LocalLdlt::Scalar(f) => f.solve_mat(b),
            LocalLdlt::Supernodal(f) => f.solve_mat(b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dd_linalg::CooBuilder;

    fn laplacian_1d(n: usize) -> CsrMatrix {
        let mut b = CooBuilder::new(n, n);
        for i in 0..n {
            b.push(i, i, 2.0);
            if i + 1 < n {
                b.push(i, i + 1, -1.0);
                b.push(i + 1, i, -1.0);
            }
        }
        b.to_csr()
    }

    #[test]
    fn both_backends_solve_to_machine_precision() {
        let a = laplacian_1d(40);
        let b: Vec<f64> = (0..40).map(|i| (i as f64 * 0.3).sin()).collect();
        for backend in [LdltBackend::Scalar, LdltBackend::Supernodal] {
            let f = LocalLdlt::factor(&a, Ordering::MinDegree, backend).unwrap();
            let x = f.solve(&b);
            let mut r = vec![0.0; 40];
            a.spmv(&x, &mut r);
            for (ri, bi) in r.iter().zip(&b) {
                assert!((ri - bi).abs() < 1e-10, "{backend:?}");
            }
            assert_eq!(f.n(), 40);
            assert_eq!(f.n_boosted(), 0);
            assert_eq!(f.inertia(), (0, 0, 40), "SPD: all pivots positive");
        }
    }
}
