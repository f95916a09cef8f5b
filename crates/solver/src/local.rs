//! Backend-selectable local LDLᵀ — the one public factor type, over the
//! scalar up-looking factorization ([`SparseLdlt`]) and the blocked
//! multifrontal one ([`SupernodalLdlt`]).
//!
//! Every factorization in the workspace goes through this type: the
//! subdomain Dirichlet matrices and GenEO pencils, the redundant coarse
//! operator `E` and the diagonal blocks of the distributed one (those two
//! on [`LdltBackend::Scalar`]). A factor is applied through one solve,
//! [`LocalLdlt::solve_panel_with`], on `k` right-hand sides at once; one
//! right-hand side is the panel of width 1, and every column of a panel
//! is that width-1 solve to the bit.
//!
//! By default ([`LdltBackend::Auto`]) the kernel is chosen per
//! matrix from the symbolic analysis both kernels begin with, as CHOLMOD
//! chooses between its simplicial and supernodal factorizations (Chen,
//! Davis, Hager & Rajamanickam, ACM TOMS 35(3), 2008): the elimination-tree
//! column counts predict the factorization's flops per entry of `L`, and
//! only where that is large enough do the supernodal kernel's dense fronts
//! pay for their symbolic and assembly overhead. [`LdltBackend::Scalar`]
//! and [`LdltBackend::Supernodal`] force one kernel — the differential
//! tests pin the two against each other (same pivoting, different but
//! equally valid summation order).

use crate::ldlt::{
    etree_and_counts_ordered, permuted, LdltError, Ordering, PivotPolicy, SparseLdlt,
};
use crate::ordering;
use crate::supernodal::SupernodalLdlt;
use dd_linalg::CsrMatrix;

/// Which factorization backs a [`LocalLdlt`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum LdltBackend {
    /// Chosen per matrix from its elimination-tree column counts:
    /// supernodal where the predicted flops per entry of `L`
    /// ([`flops_per_nnz`]) reach 80, scalar below — every 2D subdomain of
    /// the benchmark workloads on scalar, the 3D elasticity subdomains on
    /// supernodal.
    #[default]
    Auto,
    /// Up-looking scalar LDLᵀ, forced.
    Scalar,
    /// Multifrontal LDLᵀ with relaxed supernodes and register-blocked
    /// panel updates (`dd_linalg::smallgemm`), forced. Same pivoting policy
    /// and fill-reducing orderings; results differ from the scalar path
    /// only in rounding.
    Supernodal,
}

/// Predicted factorization flops per stored entry of `L` (strict lower
/// part, `Σ c_j (c_j + 3) / Σ c_j` over the column counts `c_j`) from which
/// `Auto` picks the supernodal kernel. It lies between two measured rows of
/// `kernel_bench`'s `ldlt/auto/*` table (EXPERIMENTS.md, "LDLᵀ kernel
/// crossover"): at 75 the scalar kernel's factor + solve is 10 % cheaper,
/// at 104 the two are within 1 %. Where in that interval the crossover
/// falls is not measured.
const SUPERNODAL_FLOPS_PER_NNZ: f64 = 80.0;

impl LdltBackend {
    /// The kernel this choice factors a matrix with, given the column
    /// counts of its factor under the elimination order (strict lower
    /// part, as [`etree_and_counts_ordered`] returns them).
    fn resolve(self, lnz: &[usize]) -> LdltBackend {
        match self {
            LdltBackend::Auto if flops_per_nnz(lnz) >= SUPERNODAL_FLOPS_PER_NNZ => {
                LdltBackend::Supernodal
            }
            LdltBackend::Auto => LdltBackend::Scalar,
            forced => forced,
        }
    }
}

/// Predicted multiply-adds of the numeric factorization per stored entry
/// of `L` (0 for a diagonal matrix).
pub fn flops_per_nnz(lnz: &[usize]) -> f64 {
    let nnz: usize = lnz.iter().sum();
    let flops: usize = lnz.iter().map(|&c| c * (c + 3)).sum();
    if nnz == 0 {
        0.0
    } else {
        flops as f64 / nnz as f64
    }
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
        assert_eq!(a.rows(), a.cols(), "ldlt: square input");
        assert_eq!(perm.len(), a.rows(), "ldlt: order length");
        debug_assert!(
            a.symmetry_defect() <= 1e-10 * a.norm_inf().max(1.0),
            "ldlt: input must be symmetric"
        );
        // The symbolic analysis both kernels start from, done once and
        // without a permuted copy of `a`.
        let (parent, lnz) = etree_and_counts_ordered(a, perm);
        match backend.resolve(&lnz) {
            // The supernodal kernel reads `a` in place through the order.
            LdltBackend::Supernodal => {
                SupernodalLdlt::factor_analysed(a, perm, &parent, &lnz, pivot)
                    .map(LocalLdlt::Supernodal)
            }
            // The up-looking kernel reads rows of `A(perm, perm)`: it
            // factors one permuted copy.
            _ => {
                SparseLdlt::factor_analysed(&permuted(a, perm), perm.to_vec(), &parent, &lnz, pivot)
                    .map(LocalLdlt::Scalar)
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

    /// Matrix inertia (#negative, #zero, #positive pivots): by
    /// Sylvester's law of inertia, the signs of the eigenvalues.
    pub fn inertia(&self) -> (usize, usize, usize) {
        let d = self.d();
        let neg = d.iter().filter(|&&v| v < 0.0).count();
        let zero = d.iter().filter(|&&v| v == 0.0).count();
        (neg, zero, d.len() - neg - zero)
    }

    /// Multiply-add estimate of the numeric factorization: each column `j`
    /// with `c_j` stored entries below the diagonal costs `c_j (c_j + 3)`
    /// operations in the up-looking sweep (the standard sparse-LDLᵀ
    /// operation count; the supernodal kernel's columns include their
    /// amalgamation zeros). Deterministic, so usable as a telemetry flop
    /// charge.
    pub fn flops_estimate(&self) -> u64 {
        (0..self.n())
            .map(|j| {
                let c = self.l_column(j).0.len() as u64;
                c * (c + 3)
            })
            .sum()
    }

    /// The elimination order: position `i` of the factored matrix is row
    /// `perm()[i]` of `A`.
    pub fn perm(&self) -> &[usize] {
        match self {
            LocalLdlt::Scalar(f) => f.perm(),
            LocalLdlt::Supernodal(f) => f.perm(),
        }
    }

    /// The pivots `D`, in elimination order.
    pub fn d(&self) -> &[f64] {
        match self {
            LocalLdlt::Scalar(f) => f.d(),
            LocalLdlt::Supernodal(f) => f.d(),
        }
    }

    /// Column `j` of `L` below its unit diagonal, as the solves read it:
    /// the row positions (ascending) and the values (on the supernodal
    /// kernel, explicit amalgamation zeros included).
    pub fn l_column(&self, j: usize) -> (&[u32], &[f64]) {
        match self {
            LocalLdlt::Scalar(f) => f.l_column(j),
            LocalLdlt::Supernodal(f) => f.l_column(j),
        }
    }

    /// Solve `k` right-hand sides in place, column `c` at
    /// `b[c * ld..c * ld + n]`, with the work vector `z` taken from the
    /// caller, who keeps it between solves so that none of them allocates
    /// (`z` is overwritten; any length will do). A block of columns shares
    /// each read of the factor (each kernel's one solve); every
    /// column is the solve of that column alone (`k = 1`) to the bit.
    pub fn solve_panel_with(&self, b: &mut [f64], ld: usize, k: usize, z: &mut Vec<f64>) {
        match self {
            LocalLdlt::Scalar(f) => f.solve_panel_with(b, ld, k, z),
            LocalLdlt::Supernodal(f) => f.solve_panel_with(b, ld, k, z),
        }
    }

    /// Solve `A x = b` in place: the panel solve of width 1.
    pub fn solve_in_place(&self, b: &mut [f64]) {
        assert_eq!(b.len(), self.n(), "ldlt: right-hand side length");
        self.solve_panel_with(b, b.len(), 1, &mut Vec::new());
    }

    /// Solve into a fresh vector.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = b.to_vec();
        self.solve_in_place(&mut x);
        x
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

    /// `Auto` is one of the two kernels, bit for bit: the one its column
    /// counts pick — scalar on a 1D chain (4 flops per entry of `L`),
    /// supernodal on a dense block (≈ 2n/3).
    #[test]
    fn auto_is_the_kernel_its_column_counts_pick_bitwise() {
        const N: usize = 200;
        let mut dense = dd_linalg::CooBuilder::new(N, N);
        for i in 0..N {
            for j in 0..N {
                let v = if i == j {
                    2.0 * N as f64
                } else {
                    1.0 / (1 + i + j) as f64
                };
                dense.push(i, j, v);
            }
        }
        for (a, want) in [
            (laplacian_1d(40), LdltBackend::Scalar),
            (dense.to_csr(), LdltBackend::Supernodal),
        ] {
            let b: Vec<f64> = (0..a.rows()).map(|i| (i as f64 * 0.3).sin()).collect();
            let auto = LocalLdlt::factor(&a, Ordering::MinDegree, LdltBackend::Auto).unwrap();
            let picked = match auto {
                LocalLdlt::Scalar(_) => LdltBackend::Scalar,
                LocalLdlt::Supernodal(_) => LdltBackend::Supernodal,
            };
            assert_eq!(picked, want);
            let forced = LocalLdlt::factor(&a, Ordering::MinDegree, want).unwrap();
            let bits = |x: Vec<f64>| x.into_iter().map(f64::to_bits).collect::<Vec<_>>();
            assert_eq!(bits(auto.solve(&b)), bits(forced.solve(&b)), "{want:?}");
            assert_eq!(auto.nnz_l(), forced.nnz_l());
        }
    }

    /// An order that is an identity prefix of the right one would leave
    /// the matrix unpermuted and be factored without complaint.
    #[test]
    #[should_panic(expected = "ldlt: order length")]
    fn auto_rejects_an_order_of_the_wrong_length() {
        let a = laplacian_1d(4);
        let _ =
            LocalLdlt::factor_ordered(&a, &[0, 1, 2], PivotPolicy::default(), LdltBackend::Auto);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "ldlt: input must be symmetric")]
    fn auto_rejects_an_unsymmetric_matrix() {
        let mut b = CooBuilder::new(2, 2);
        b.push(0, 0, 2.0);
        b.push(1, 1, 2.0);
        b.push(0, 1, 1.0);
        let _ = LocalLdlt::factor_ordered(
            &b.to_csr(),
            &[0, 1],
            PivotPolicy::default(),
            LdltBackend::Auto,
        );
    }

    /// The panel solve is the column loop to the bit, on both kernels, over
    /// random SPD patterns, the three orderings and `k` ∈ {1, 2, 3, 4, 8}
    /// columns: each column of a block of 8, 4 or 2 is that column solved
    /// alone, as a block of 1. The columns are `ld = n + 3`
    /// apart, and some are sparse with signed zeros, so the forward sweep's
    /// zero skip is taken in some columns of a block and not in others.
    #[test]
    fn panel_solve_is_the_column_loop_bitwise() {
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut z = Vec::new();
        for seed in 0..6u64 {
            let n = 40 + 53 * seed as usize;
            let a = crate::supernodal::tests::random_pattern(seed, n, 2 + seed as usize % 4);
            let ld = n + 3;
            for ord in [Ordering::Natural, Ordering::Rcm, Ordering::MinDegree] {
                for backend in [LdltBackend::Scalar, LdltBackend::Supernodal] {
                    let f = LocalLdlt::factor(&a, ord, backend).unwrap();
                    for k in [1usize, 2, 3, 4, 8] {
                        let entry = |c: usize, i: usize| match (c + seed as usize) % 4 {
                            0 => ((i * 7 + 3 * c + 1) % 11) as f64 - 5.0,
                            1 => -0.0,
                            2 if (i + c) % 5 != 0 => -0.0,
                            2 => (i as f64 * 0.3 + c as f64).sin(),
                            _ if i % 7 == c % 7 => 1.5,
                            _ => 0.0,
                        };
                        let mut panel = vec![f64::NAN; (k - 1) * ld + n];
                        for c in 0..k {
                            for i in 0..n {
                                panel[c * ld + i] = entry(c, i);
                            }
                        }
                        let want: Vec<Vec<f64>> = (0..k)
                            .map(|c| {
                                let mut x: Vec<f64> = (0..n).map(|i| entry(c, i)).collect();
                                f.solve_panel_with(&mut x, n, 1, &mut z);
                                x
                            })
                            .collect();
                        f.solve_panel_with(&mut panel, ld, k, &mut z);
                        for (c, w) in want.iter().enumerate() {
                            let got = &panel[c * ld..c * ld + n];
                            assert_eq!(bits(got), bits(w), "seed {seed} {ord:?} {backend:?} k={k}");
                        }
                        // The gaps between columns are not touched.
                        for c in 1..k {
                            assert!(panel[c * ld - 3..c * ld].iter().all(|v| v.is_nan()));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn both_backends_solve_to_machine_precision() {
        let a = laplacian_1d(40);
        let b: Vec<f64> = (0..40).map(|i| (i as f64 * 0.3).sin()).collect();
        for backend in [
            LdltBackend::Scalar,
            LdltBackend::Supernodal,
            LdltBackend::Auto,
        ] {
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
