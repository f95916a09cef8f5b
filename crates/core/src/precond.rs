//! Sequential preconditioners: one-level RAS (eq. 3) and the two-level
//! deflated variants `P_A-DEF1` (eq. 6) and `P_A-DEF2` (eq. 7).
//!
//! The paper selects `A-DEF1` because one application costs a *single*
//! coarse solve (`Z E⁻¹ Zᵀ u` reused in both terms) whereas `A-DEF2` needs
//! two — and the coarse solve is the most communication-intensive part of
//! an iteration (§2.1). Both are provided; applications count their coarse
//! solves so tests and benches can verify that claim.

use crate::coarse::CoarseOperator;
use crate::decomp::Decomposition;
use dd_krylov::Preconditioner;
use dd_linalg::vector;
use dd_solver::{LdltBackend, LocalLdlt, Ordering};
use std::cell::Cell;

/// One-level restricted additive Schwarz:
/// `P⁻¹_RAS = Σ_i R_iᵀ D_i A_i⁻¹ R_i` (eq. 3).
pub struct RasPrecond<'a> {
    decomp: &'a Decomposition,
    /// LDLᵀ factors of the Dirichlet matrices `A_i` (scalar backend: the
    /// sequential path is the rounding reference of the SPMD ones).
    factors: Vec<LocalLdlt>,
}

impl<'a> RasPrecond<'a> {
    /// Factor every local Dirichlet matrix.
    pub fn build(decomp: &'a Decomposition, ordering: Ordering) -> Self {
        Self::build_with_orders(decomp, ordering).0
    }

    /// [`RasPrecond::build`], also handing back each subdomain's
    /// elimination order for its GenEO pencil.
    fn build_with_orders(decomp: &'a Decomposition, ordering: Ordering) -> (Self, Vec<Vec<usize>>) {
        let (orders, factors) = decomp
            .subdomains
            .iter()
            .map(|s| {
                s.factor_dirichlet(ordering, LdltBackend::Scalar)
                    .expect("local Dirichlet matrix must be nonsingular")
            })
            .unzip();
        (RasPrecond { decomp, factors }, orders)
    }

    /// Shared access to the factors (reused by the two-level variants).
    pub fn factors(&self) -> &[LocalLdlt] {
        &self.factors
    }

    pub fn decomp(&self) -> &Decomposition {
        self.decomp
    }
}

impl Preconditioner for RasPrecond<'_> {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        vector::zero(z);
        for (s, f) in self.decomp.subdomains.iter().zip(&self.factors) {
            let mut local = s.restrict(r);
            f.solve_in_place(&mut local);
            vector::scale_by(&s.d, &mut local);
            s.prolong_add(&local, z);
        }
    }
}

/// Which deflated preconditioner variant to apply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Variant {
    /// `P⁻¹_A-DEF1 = P⁻¹_RAS (I − A Z E⁻¹ Zᵀ) + Z E⁻¹ Zᵀ` — one coarse
    /// solve per application (the paper's choice).
    ADef1,
    /// `P⁻¹_A-DEF2 = (I − Z E⁻¹ Zᵀ A) P⁻¹_RAS + Z E⁻¹ Zᵀ` — two coarse
    /// solves per application.
    ADef2,
}

/// Two-level preconditioner combining RAS with the GenEO coarse correction.
pub struct TwoLevelPrecond<'a> {
    ras: RasPrecond<'a>,
    coarse: CoarseOperator,
    variant: Variant,
    coarse_solves: Cell<u64>,
}

impl<'a> TwoLevelPrecond<'a> {
    pub fn new(ras: RasPrecond<'a>, coarse: CoarseOperator, variant: Variant) -> Self {
        TwoLevelPrecond {
            ras,
            coarse,
            variant,
            coarse_solves: Cell::new(0),
        }
    }

    /// Number of coarse solves performed so far (validates the paper's
    /// "1 vs 2 coarse solves" argument for A-DEF1 vs A-DEF2).
    pub fn coarse_solve_count(&self) -> u64 {
        self.coarse_solves.get()
    }

    pub fn coarse(&self) -> &CoarseOperator {
        &self.coarse
    }

    pub fn ras(&self) -> &RasPrecond<'a> {
        &self.ras
    }

    fn coarse_correction(&self, u: &[f64]) -> Vec<f64> {
        self.coarse_solves.set(self.coarse_solves.get() + 1);
        self.coarse.correction(self.ras.decomp, u)
    }
}

impl Preconditioner for TwoLevelPrecond<'_> {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        let decomp = self.ras.decomp;
        let n = decomp.n_global;
        match self.variant {
            Variant::ADef1 => {
                // q = Z E⁻¹ Zᵀ r  (the single coarse solution, used twice)
                let q = self.coarse_correction(r);
                // t = r − A q
                let mut t = vec![0.0; n];
                decomp.a_global.spmv(&q, &mut t);
                for i in 0..n {
                    t[i] = r[i] - t[i];
                }
                // z = P_RAS t + q
                self.ras.apply(&t, z);
                vector::axpy(1.0, &q, z);
            }
            Variant::ADef2 => {
                // t = P_RAS r
                let mut t = vec![0.0; n];
                self.ras.apply(r, &mut t);
                // z = t − Z E⁻¹ Zᵀ (A t) + Z E⁻¹ Zᵀ r  — two coarse solves
                let mut at = vec![0.0; n];
                decomp.a_global.spmv(&t, &mut at);
                let q1 = self.coarse_correction(&at);
                let q2 = self.coarse_correction(r);
                for i in 0..n {
                    z[i] = t[i] - q1[i] + q2[i];
                }
            }
        }
    }
}

/// Convenience construction of the full sequential two-level method.
pub mod builder {
    use super::*;
    use crate::coarse::CoarseSpace;
    use crate::geneo::{try_deflation_block_ordered, GeneoOpts};

    /// Options for [`two_level`].
    #[derive(Clone, Debug)]
    pub struct TwoLevelOpts {
        pub geneo: GeneoOpts,
        pub variant: Variant,
        pub ordering: Ordering,
        /// Uniformize ν across subdomains to the maximum (the paper's
        /// `MPI_Allreduce(ν_i, MPI_MAX)` strategy). Blocks shorter than the
        /// maximum are zero-padded.
        pub uniform_nu: bool,
    }

    impl Default for TwoLevelOpts {
        fn default() -> Self {
            TwoLevelOpts {
                geneo: GeneoOpts::default(),
                variant: Variant::ADef1,
                ordering: Ordering::MinDegree,
                uniform_nu: false,
            }
        }
    }

    /// Build the two-level preconditioner: local factorizations, GenEO
    /// eigensolves, coarse assembly + factorization.
    pub fn two_level<'a>(decomp: &'a Decomposition, opts: &TwoLevelOpts) -> TwoLevelPrecond<'a> {
        let (ras, orders) = RasPrecond::build_with_orders(decomp, opts.ordering);
        let blocks: Vec<_> = decomp
            .subdomains
            .iter()
            .zip(&orders)
            .map(|(s, order)| {
                try_deflation_block_ordered(s, &opts.geneo, order, LdltBackend::Scalar)
                    .expect("GenEO eigensolve failed")
            })
            .collect();
        let w = if opts.uniform_nu {
            // ν = max over subdomains of the locally-kept count; shorter
            // blocks contribute their above-threshold eigenvectors too.
            let nu_max = blocks.iter().map(|b| b.kept).max().unwrap_or(0);
            blocks
                .iter()
                .map(|b| crate::geneo::resize_block(b, nu_max))
                .collect()
        } else {
            blocks
                .iter()
                .map(|b| crate::geneo::resize_block(b, b.kept))
                .collect()
        };
        let space = CoarseSpace::new(w);
        let coarse = CoarseOperator::build(decomp, space, opts.ordering);
        TwoLevelPrecond::new(ras, coarse, opts.variant)
    }
}

#[cfg(test)]
mod tests {
    use super::builder::{two_level, TwoLevelOpts};
    use super::*;
    use crate::decomp::decompose;
    use crate::geneo::GeneoOpts;
    use crate::problem::presets;
    use dd_krylov::{gmres, GmresOpts, SeqDot};
    use dd_mesh::Mesh;
    use dd_part::partition_mesh_rcb;

    fn hetero_setup(n_mesh: usize, nparts: usize) -> Decomposition {
        let mesh = Mesh::unit_square(n_mesh, n_mesh);
        let part = partition_mesh_rcb(&mesh, nparts);
        let p = presets::heterogeneous_diffusion(1);
        decompose(&mesh, &p, &part, nparts, 1)
    }

    #[test]
    fn ras_preconditioned_gmres_solves() {
        let d = hetero_setup(12, 4);
        let ras = RasPrecond::build(&d, Ordering::MinDegree);
        let x0 = vec![0.0; d.n_global];
        let res = gmres(
            &d.a_global,
            &ras,
            &SeqDot,
            &d.rhs_global,
            &x0,
            &GmresOpts {
                tol: 1e-10,
                max_iters: 600,
                ..Default::default()
            },
        );
        assert!(res.converged, "RAS-GMRES stalled at {}", res.final_residual);
        // True residual: left preconditioning tracks the *preconditioned*
        // residual, and with κ-contrast 3·10⁶ the two can differ by orders
        // of magnitude — hence the loose bound here.
        let mut ax = vec![0.0; d.n_global];
        d.a_global.spmv(&res.x, &mut ax);
        let rel = vector::dist2(&ax, &d.rhs_global) / vector::norm2(&d.rhs_global);
        assert!(rel < 1e-4, "true residual {rel}");
    }

    #[test]
    fn two_level_beats_one_level_on_heterogeneous_problem() {
        // The Figure 1 experiment in miniature: high-contrast diffusion,
        // "basic" (RAS) vs "advanced" (A-DEF1) preconditioning.
        let d = hetero_setup(16, 8);
        let opts = GmresOpts {
            tol: 1e-6,
            max_iters: 400,
            ..Default::default()
        };
        let x0 = vec![0.0; d.n_global];
        let ras = RasPrecond::build(&d, Ordering::MinDegree);
        let one = gmres(&d.a_global, &ras, &SeqDot, &d.rhs_global, &x0, &opts);
        let tl = two_level(
            &d,
            &TwoLevelOpts {
                geneo: GeneoOpts {
                    nev: 8,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        let two = gmres(&d.a_global, &tl, &SeqDot, &d.rhs_global, &x0, &opts);
        assert!(two.converged);
        assert!(
            two.iterations * 2 < one.iterations.max(1) || !one.converged,
            "two-level {} not clearly better than one-level {}",
            two.iterations,
            one.iterations
        );
    }

    #[test]
    fn adef1_uses_one_coarse_solve_per_application() {
        let d = hetero_setup(10, 4);
        let tl = two_level(&d, &TwoLevelOpts::default());
        let r: Vec<f64> = (0..d.n_global).map(|i| (i % 5) as f64).collect();
        let mut z = vec![0.0; d.n_global];
        tl.apply(&r, &mut z);
        tl.apply(&r, &mut z);
        assert_eq!(tl.coarse_solve_count(), 2); // 1 per application
    }

    #[test]
    fn adef2_uses_two_coarse_solves_per_application() {
        let d = hetero_setup(10, 4);
        let tl = two_level(
            &d,
            &TwoLevelOpts {
                variant: Variant::ADef2,
                ..Default::default()
            },
        );
        let r: Vec<f64> = (0..d.n_global).map(|i| (i % 5) as f64).collect();
        let mut z = vec![0.0; d.n_global];
        tl.apply(&r, &mut z);
        assert_eq!(tl.coarse_solve_count(), 2); // 2 per application
    }

    #[test]
    fn adef1_and_adef2_converge_similarly() {
        let d = hetero_setup(12, 4);
        let opts = GmresOpts {
            tol: 1e-8,
            max_iters: 300,
            ..Default::default()
        };
        let x0 = vec![0.0; d.n_global];
        let t1 = two_level(&d, &TwoLevelOpts::default());
        let r1 = gmres(&d.a_global, &t1, &SeqDot, &d.rhs_global, &x0, &opts);
        let t2 = two_level(
            &d,
            &TwoLevelOpts {
                variant: Variant::ADef2,
                ..Default::default()
            },
        );
        let r2 = gmres(&d.a_global, &t2, &SeqDot, &d.rhs_global, &x0, &opts);
        assert!(r1.converged && r2.converged);
        let diff = (r1.iterations as i64 - r2.iterations as i64).abs();
        assert!(
            diff <= 4,
            "A-DEF1 {} vs A-DEF2 {}",
            r1.iterations,
            r2.iterations
        );
    }

    #[test]
    fn two_level_solution_matches_direct() {
        let d = hetero_setup(10, 4);
        let tl = two_level(&d, &TwoLevelOpts::default());
        let res = gmres(
            &d.a_global,
            &tl,
            &SeqDot,
            &d.rhs_global,
            &vec![0.0; d.n_global],
            &GmresOpts {
                tol: 1e-10,
                max_iters: 300,
                ..Default::default()
            },
        );
        assert!(res.converged);
        let direct = dd_solver::SparseLdlt::factor(&d.a_global, Ordering::MinDegree)
            .unwrap()
            .solve(&d.rhs_global);
        let rel = vector::dist2(&res.x, &direct) / vector::norm2(&direct);
        assert!(rel < 1e-6, "solution differs from direct solve: {rel}");
    }

    #[test]
    fn uniform_nu_padding_still_converges() {
        let d = hetero_setup(12, 4);
        let tl = two_level(
            &d,
            &TwoLevelOpts {
                uniform_nu: true,
                geneo: GeneoOpts {
                    nev: 5,
                    threshold: Some(0.5),
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        let res = gmres(
            &d.a_global,
            &tl,
            &SeqDot,
            &d.rhs_global,
            &vec![0.0; d.n_global],
            &GmresOpts {
                tol: 1e-6,
                max_iters: 200,
                ..Default::default()
            },
        );
        assert!(res.converged);
    }
}
