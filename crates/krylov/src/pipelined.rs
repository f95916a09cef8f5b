//! The paper's *fused* pipelined GMRES (§3.5), on the p1-GMRES recurrence
//! of Ghysels et al.
//!
//! Classical GMRES synchronizes globally to orthogonalize and to
//! normalize: three reductions per iteration under `Ortho::Cgs2`, one under
//! the default `Ortho::Dcgs2` (plus one per cycle), each waited for where
//! it is posted. p1-GMRES maintains a shadow basis `z_j = B v_j`: the
//! matrix–vector product of iteration `i` is applied to the
//! *unorthogonalized* candidate `w_{i−1}` and corrected afterwards by
//! linearity, `B v_i = (B w_{i−1} − Σ_j h_{j,i−1} z_j)/h_{i,i−1}`, so the
//! single batched reduction of iteration `i−1` (Gram row + ‖w‖²) is not
//! needed before that product. The basis norm comes from the Pythagorean
//! identity `‖u‖² = ‖w‖² − Σ h²` (with an explicit renormalization
//! fallback on cancellation — the square-root breakdown Ghysels describes).
//!
//! The fused loop places that reduction as §3.5 proposes: the non-reduced
//! Gram values ride along the gather/scatter of the coarse correction
//! inside the next preconditioner application, so an iteration performs
//! **zero** standalone global reductions — only the `MPI_Iallreduce` among
//! masters, overlapped with the coarse solve.

use crate::checkpoint::CheckpointCfg;
use crate::gmres::{GmresOpts, SolveResult};
use crate::operator::{InnerProduct, Operator, Preconditioner, SolveInterrupt};
use crate::recycle::RecycleSpace;
use crate::restart::{self, Skeleton};
use dd_linalg::vector;

/// A preconditioner able to piggy-back a payload of local reduction
/// contributions on its internal communication (the fused p1-GMRES hook).
///
/// `apply_fused` must behave exactly like the one-column
/// [`Preconditioner::try_apply_panel`] on `(r, z)` while also returning the
/// *globally reduced* payload.
pub trait FusedPreconditioner: Preconditioner {
    fn apply_fused(
        &self,
        r: &[f64],
        z: &mut [f64],
        payload: Vec<f64>,
    ) -> Result<Vec<f64>, SolveInterrupt>;
}

/// Local parts of the payload an iteration hands the next preconditioner
/// apply: the Gram row of `w` against the basis `v`, then `‖w‖²`.
fn gram_row<P: InnerProduct + ?Sized>(ip: &P, w: &[f64], v: &[Vec<f64>]) -> Vec<f64> {
    let mut row = vec![0.0; v.len() + 1];
    ip.local_dots(w, v, &mut row[..v.len()]);
    row[v.len()] = ip.local_dot(w, w);
    row
}

/// Fused p1-GMRES: the Gram row is held back and rides, unreduced, on the
/// next preconditioner application's coarse gather/scatter (§3.5 of the
/// paper).
/// Left-preconditioned whatever `opts.side` says; [`GmresOpts`] documents
/// which fields the loop reads. `ckpt` and `recycle` act as in
/// [`crate::try_gmres_with`]; a snapshot taken at iteration `k` holds the
/// iterate over the `k` columns final by then, as the classical loop's
/// does (the matvec iteration `k` already spent on the next candidate is
/// not in it).
///
/// `k` right-hand sides are the columns of `b` and `x0`, one after
/// another; `k = 1` is the single solve. The p1-GMRES recurrence has no
/// panel body, so the columns are solved one after another; what
/// [`crate::try_gmres_panel`] shares besides the cycles — the start
/// residuals, the recycle-space correction from the directions the space
/// holds at entry, the harvest in column order — they share here too. Each
/// column is its one-column solve to the bit.
#[allow(clippy::too_many_arguments)]
pub fn fused_pipelined_gmres_panel<O, M, P>(
    op: &O,
    precond: &M,
    ip: &P,
    b: &[f64],
    x0: &[f64],
    k: usize,
    opts: &GmresOpts,
    ckpt: Option<&CheckpointCfg<'_>>,
    recycle: Option<&mut RecycleSpace>,
) -> Result<Vec<SolveResult>, SolveInterrupt>
where
    O: Operator + ?Sized,
    M: FusedPreconditioner + ?Sized,
    P: InnerProduct + ?Sized,
{
    let n = op.dim();
    let m = opts.restart.max(2);
    let mut sk = Skeleton::default();
    sk.prepare(n, m, k);
    let mut ax = vec![0.0; n];
    // The anchor and every cycle-start residual use ordinary blocking
    // reductions, like the paper's implementation.
    let mut out = Vec::with_capacity(k);
    restart::solve(
        op,
        Some(precond),
        ip,
        b,
        x0,
        k,
        opts,
        ckpt,
        recycle,
        &mut sk,
        false,
        |runs, live, starts| {
            // Solved alone: one column a cycle.
            let (r, beta) = starts.get(live[0]);
            let run = &mut runs[live[0]];
            // v: normalized basis; z: shadow basis z_j = B v_j.
            let mut v: Vec<Vec<f64>> = Vec::with_capacity(m + 1);
            let mut z: Vec<Vec<f64>> = Vec::with_capacity(m + 1);
            let mut v0 = r.to_vec();
            vector::scal(1.0 / beta, &mut v0);
            v.push(v0);
            // w = B v_0 and the first unreduced Gram row. A row still
            // unreduced when the cycle ends is dropped: nobody reads it.
            let mut w = vec![0.0; n];
            op.try_apply_panel(1, &v[0], &mut ax)?;
            precond.try_apply_panel(1, &ax, &mut w)?;
            z.push(w.clone());
            let mut row = gram_row(ip, &w, &v);
            let mut i = 1;
            while i <= m && run.next_iteration(ip) {
                // Matvec on the unorthogonalized candidate w_{i−1}; the
                // preconditioner carries the row and returns it reduced.
                let mut t = vec![0.0; n];
                op.try_apply_panel(1, &w, &mut ax)?;
                let dots = precond.apply_fused(&ax, &mut t, row)?;
                // dots = [⟨w,v_0⟩, …, ⟨w,v_{i−1}⟩, ‖w‖²] for w = w_{i−1}.
                let wnorm2 = dots[i];
                if !wnorm2.is_finite() || dots[..i].iter().any(|d| !d.is_finite()) {
                    // Non-finite Gram row: the candidate is poisoned; end the
                    // cycle with the columns finalized so far.
                    run.discard_column();
                    break;
                }
                let h = run.h(i - 1);
                let mut sumsq = 0.0;
                for j in 0..i {
                    h[j] = dots[j];
                    sumsq += dots[j] * dots[j];
                }
                let mut hii = (wnorm2 - sumsq).max(0.0).sqrt();
                // Orthogonalize the candidate and its shadow.
                let mut u = w.clone();
                let mut zu = t;
                let minus_h: Vec<f64> = dots[..i].iter().map(|d| -d).collect();
                vector::axpy_many(&minus_h, &v, &mut u);
                vector::axpy_many(&minus_h, &z, &mut zu);
                // Square-root breakdown safeguard: on severe cancellation the
                // Pythagorean estimate is unreliable — renormalize explicitly
                // (costs one extra reduction, rare).
                if hii * hii <= 1e-10 * wnorm2.max(1e-300) {
                    hii = ip.try_norm(&u)?;
                }
                if !hii.is_finite() {
                    run.discard_column();
                    break;
                }
                run.h(i - 1)[i] = hii;
                if hii <= run.tiny() {
                    // Invariant subspace: finalize column i−1 and stop; the
                    // driver counts it as convergence only if the residual
                    // actually meets the tolerance (a singular operator or
                    // preconditioner reaches this point with a large one).
                    run.push_column(i - 1, &v);
                    break;
                }
                vector::scal(1.0 / hii, &mut u);
                vector::scal(1.0 / hii, &mut zu);
                v.push(u);
                w = zu.clone();
                z.push(zu);
                // The next row: Gram row against v_0..v_i plus ‖w‖², then
                // Givens on the now-final column i−1.
                row = gram_row(ip, &w, &v);
                if !run.push_column(i - 1, &v[..i]) {
                    break;
                }
                i += 1;
            }
            run.update(&v);
            Ok(())
        },
        |r| out.push(r),
    )?;
    Ok(out)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::gmres::tests::{
        check_guard_confirms_clean_convergence, check_guard_flags_corrupted_operator, laplacian_2d,
        BudgetExhausted, FailAfter,
    };
    use crate::gmres::{try_gmres, SolveStatus};
    use crate::operator::{IdentityPrecond, SeqDot};
    use std::cell::Cell;

    /// Trivial fused preconditioner for sequential tests: identity
    /// preconditioner, identity reduction.
    struct SeqFused;

    impl Preconditioner for SeqFused {
        fn apply(&self, r: &[f64], z: &mut [f64]) {
            z.copy_from_slice(r);
        }
    }

    impl FusedPreconditioner for SeqFused {
        fn apply_fused(
            &self,
            r: &[f64],
            z: &mut [f64],
            payload: Vec<f64>,
        ) -> Result<Vec<f64>, SolveInterrupt> {
            z.copy_from_slice(r);
            Ok(payload)
        }
    }

    /// The fused loop, a `crate::gmres::tests::Loop`.
    pub(crate) fn fused(
        op: &dyn Operator,
        b: &[f64],
        opts: &GmresOpts,
        ckpt: Option<&CheckpointCfg<'_>>,
        recycle: Option<&mut RecycleSpace>,
    ) -> Result<SolveResult, SolveInterrupt> {
        let x0 = vec![0.0; b.len()];
        fused_pipelined_gmres_panel(op, &SeqFused, &SeqDot, b, &x0, 1, opts, ckpt, recycle)
            .map(|mut r| r.remove(0))
    }

    /// The guard lives in the shared cycle-start check, so the fused loop
    /// honours it like the classical one (tolerance 1e-8: see
    /// `pipelined_matches_classical_gmres`).
    #[test]
    fn guard_confirms_clean_convergence_with_identical_iterates() {
        check_guard_confirms_clean_convergence(fused, 1e-8);
    }

    #[test]
    fn guard_flags_corrupted_operator_instead_of_false_convergence() {
        // The 21st product is the first whose corruption this loop does
        // not notice on its own (an earlier one breaks a cycle down).
        check_guard_flags_corrupted_operator(fused, 1e-8, 20);
    }

    /// An operator whose `try_apply_panel` fails at call `k` — the anchor, the
    /// cycle-start residual, the pipeline prologue or an iteration's matvec
    /// — interrupts the loop with the failing layer's error intact.
    #[test]
    fn operator_failure_at_any_call_is_a_typed_interrupt_with_its_source() {
        let a = laplacian_2d(6, 6);
        let b = vec![1.0; a.rows()];
        let opts = GmresOpts::default();
        for k in [0, 1, 2, 3, 7] {
            let op = FailAfter {
                inner: &a,
                budget: Cell::new(k),
            };
            let err = fused(&op, &b, &opts, None, None).expect_err("the budget runs out mid-solve");
            assert_eq!(err.reason(), "operator budget exhausted");
            let source = err.take_source().expect("the source travels with it");
            assert!(source.downcast::<BudgetExhausted>().is_ok(), "call {k}");
        }
    }

    #[test]
    fn pipelined_matches_classical_gmres() {
        let a = laplacian_2d(9, 9);
        let n = a.rows();
        let b: Vec<f64> = (0..n).map(|i| ((i * 7) % 5) as f64 - 2.0).collect();
        // Tolerance 1e-8: below that, the Pythagorean-CGS normalization of
        // p1-GMRES loses orthogonality and stagnates (a documented property
        // of pipelined GMRES; the paper's experiments stop at 1e-6).
        let opts = GmresOpts {
            tol: 1e-8,
            max_iters: 500,
            ..Default::default()
        };
        let classical = try_gmres(
            &a,
            &IdentityPrecond,
            &SeqDot,
            &b,
            &vec![0.0; n],
            &opts,
            None,
        )
        .unwrap();
        let pipelined = fused(&a, &b, &opts, None, None).unwrap();
        assert!(classical.converged && pipelined.converged);
        assert!(
            vector::dist2(&classical.x, &pipelined.x) < 1e-5 * vector::norm2(&classical.x).max(1.0),
            "solutions differ"
        );
        // Same iteration counts within the 1-step pipeline lag.
        let d = classical.iterations as i64 - pipelined.iterations as i64;
        assert!(
            d.abs() <= 3,
            "iters {} vs {}",
            classical.iterations,
            pipelined.iterations
        );
    }

    #[test]
    fn fused_matches_classical() {
        let a = laplacian_2d(7, 7);
        let n = a.rows();
        let b = vec![1.0; n];
        let opts = GmresOpts {
            tol: 1e-8,
            max_iters: 500,
            ..Default::default()
        };
        let classical = try_gmres(
            &a,
            &IdentityPrecond,
            &SeqDot,
            &b,
            &vec![0.0; n],
            &opts,
            None,
        )
        .unwrap();
        let fused = fused(&a, &b, &opts, None, None).unwrap();
        assert!(fused.converged);
        assert!(vector::dist2(&classical.x, &fused.x) < 1e-4 * vector::norm2(&classical.x));
    }

    #[test]
    fn pipelined_true_residual_meets_tolerance() {
        let a = laplacian_2d(8, 6);
        let n = a.rows();
        let b: Vec<f64> = (0..n).map(|i| (0.3 * i as f64).cos()).collect();
        let opts = GmresOpts {
            tol: 1e-8,
            max_iters: 400,
            ..Default::default()
        };
        let res = fused(&a, &b, &opts, None, None).unwrap();
        assert!(res.converged);
        let mut ax = vec![0.0; n];
        a.spmv(&res.x, &mut ax);
        let rel = vector::dist2(&ax, &b) / vector::norm2(&b);
        assert!(rel < 1e-6, "true residual {rel}");
    }

    #[test]
    fn pipelined_with_restart() {
        let a = laplacian_2d(10, 8);
        let n = a.rows();
        let b = vec![1.0; n];
        let opts = GmresOpts {
            restart: 15,
            tol: 1e-7,
            max_iters: 1000,
            ..Default::default()
        };
        let res = fused(&a, &b, &opts, None, None).unwrap();
        assert!(res.converged, "residual {}", res.final_residual);
        let mut ax = vec![0.0; n];
        a.spmv(&res.x, &mut ax);
        assert!(vector::dist2(&ax, &b) / vector::norm2(&b) < 1e-5);
    }

    #[test]
    fn nan_operator_reports_breakdown() {
        // An "operator" that poisons every product: the solve must stop
        // with a typed breakdown after one restart and a finite iterate.
        struct NanOp(usize);
        impl Operator for NanOp {
            fn dim(&self) -> usize {
                self.0
            }
            fn apply(&self, _x: &[f64], y: &mut [f64]) {
                y.fill(f64::NAN);
            }
        }
        let n = 10;
        let res = fused(&NanOp(n), &vec![1.0; n], &GmresOpts::default(), None, None).unwrap();
        assert!(!res.converged);
        assert_eq!(res.status, SolveStatus::Breakdown);
        assert!(res.x.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn residual_history_tracks_convergence() {
        let a = laplacian_2d(6, 6);
        let n = a.rows();
        let b = vec![1.0; n];
        let opts = GmresOpts {
            tol: 1e-9,
            ..Default::default()
        };
        let res = fused(&a, &b, &opts, None, None).unwrap();
        assert!(res.history.len() >= 2);
        assert!(res.history.last().unwrap() < &1e-8);
    }

    /// The fused loop solves a panel's columns one after another, each its
    /// one-column solve from the recycle state at entry, bit for bit.
    #[test]
    fn each_panel_column_is_its_single_solve_bitwise() {
        let a = laplacian_2d(8, 7);
        let n = a.rows();
        let rhs: Vec<Vec<f64>> = [0.4, 1.1, 2.7]
            .iter()
            .map(|f| (0..n).map(|i| ((i as f64 + 0.5) * f).sin()).collect())
            .collect();
        let (panel, x0) = (rhs.concat(), vec![0.0; 3 * n]);
        let opts = GmresOpts {
            tol: 1e-10,
            ..Default::default()
        };
        let mut seeded = RecycleSpace::new(4);
        let other: Vec<f64> = (0..n).map(|i| (i as f64 * 3.3).cos()).collect();
        fused(&a, &other, &opts, None, Some(&mut seeded)).unwrap();
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for space in [None, Some(&seeded)] {
            let mut at_entry = space.cloned();
            let got = fused_pipelined_gmres_panel(
                &a,
                &SeqFused,
                &SeqDot,
                &panel,
                &x0,
                3,
                &opts,
                None,
                at_entry.as_mut(),
            )
            .unwrap();
            for (b, res) in rhs.iter().zip(&got) {
                let want = fused(&a, b, &opts, None, space.cloned().as_mut()).unwrap();
                assert_eq!(bits(&res.x), bits(&want.x));
                assert_eq!(bits(&res.history), bits(&want.history));
                assert_eq!(res.iterations, want.iterations);
            }
            assert_eq!(
                at_entry.map_or(0, |s| s.len()),
                space.map_or(0, |s| s.len() + 3)
            );
        }
    }
}
