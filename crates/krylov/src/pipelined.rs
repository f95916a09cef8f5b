//! Pipelined GMRES (p1-GMRES, Ghysels et al.) and the paper's *fused*
//! variant (§3.5).
//!
//! Classical GMRES needs two global synchronizations per iteration
//! (orthogonalization + normalization). p1-GMRES hides that latency by
//! maintaining a shadow basis `z_j = B v_j`: the matrix–vector product of
//! iteration `i` is applied to the *unorthogonalized* candidate `w_{i−1}`
//! and corrected afterwards by linearity,
//! `B v_i = (B w_{i−1} − Σ_j h_{j,i−1} z_j)/h_{i,i−1}`, so the single
//! batched reduction posted at iteration `i−1` (Gram row + ‖w‖²) completes
//! *while* the matvec runs. The basis norm comes from the Pythagorean
//! identity `‖u‖² = ‖w‖² − Σ h²` (with an explicit renormalization
//! fallback on cancellation — the square-root breakdown Ghysels describes).
//!
//! The fused variant goes one step further, exactly as §3.5 proposes: the
//! non-reduced Gram values ride along the gather/scatter of the coarse
//! correction inside the next preconditioner application, so an iteration
//! performs **zero** standalone global reductions — only the
//! `MPI_Iallreduce` among masters, overlapped with the coarse solve.

use crate::gmres::{GmresOpts, SolveResult};
use crate::operator::{InnerProduct, Operator, Preconditioner, Reduction, SolveInterrupt};
use crate::restart::{self, Skeleton};
use dd_linalg::vector;

/// A preconditioner able to piggy-back a payload of local reduction
/// contributions on its internal communication (the fused p1-GMRES hook).
///
/// `apply_fused` must behave exactly like [`Preconditioner::try_apply`] on
/// `(r, z)` while also returning the *globally reduced* payload.
pub trait FusedPreconditioner: Preconditioner {
    fn apply_fused(
        &self,
        r: &[f64],
        z: &mut [f64],
        payload: Vec<f64>,
    ) -> Result<Vec<f64>, SolveInterrupt>;
}

/// p1-GMRES with non-blocking reductions overlapped with the matvec: each
/// Gram row is posted as soon as it is formed and awaited after the next
/// preconditioner application.
/// Left-preconditioned whatever `opts.side` says; [`GmresOpts`] documents
/// which fields the pipelined loops read.
pub fn pipelined_gmres<O, M, P>(
    op: &O,
    precond: &M,
    ip: &P,
    b: &[f64],
    x0: &[f64],
    opts: &GmresOpts,
) -> Result<SolveResult, SolveInterrupt>
where
    O: Operator + ?Sized,
    M: Preconditioner + ?Sized,
    P: InnerProduct + ?Sized,
{
    let post = |row| ip.reduce_begin(row);
    pgmres_impl(op, precond, ip, b, x0, opts, post, |ax, t, row| {
        precond.try_apply(ax, t)?;
        row()
    })
}

/// Fused p1-GMRES: the Gram row is held back and rides, unreduced, on the
/// next preconditioner application's coarse gather/scatter (§3.5 of the
/// paper). Options as for [`pipelined_gmres`].
pub fn fused_pipelined_gmres<O, M, P>(
    op: &O,
    precond: &M,
    ip: &P,
    b: &[f64],
    x0: &[f64],
    opts: &GmresOpts,
) -> Result<SolveResult, SolveInterrupt>
where
    O: Operator + ?Sized,
    M: FusedPreconditioner + ?Sized,
    P: InnerProduct + ?Sized,
{
    let post = |row| Ok(Box::new(move || Ok(row)) as Reduction<'_>);
    pgmres_impl(op, precond, ip, b, x0, opts, post, |ax, t, row| {
        precond.apply_fused(ax, t, row()?)
    })
}

/// Local parts of the payload an iteration posts: the Gram row of `w`
/// against the basis `v`, then `‖w‖²`.
fn gram_row<P: InnerProduct + ?Sized>(ip: &P, w: &[f64], v: &[Vec<f64>]) -> Vec<f64> {
    let mut row = vec![0.0; v.len() + 1];
    ip.local_dots(w, v, &mut row[..v.len()]);
    row[v.len()] = ip.local_dot(w, w);
    row
}

/// The p1-GMRES Arnoldi process on the shared restart driver
/// (`restart::solve`). `post` takes an iteration's local Gram row on its
/// way to being reduced; `step(ax, t, row)` preconditions `ax` into `t` and
/// hands back the row posted last, reduced — the two places the overlapped
/// and the fused loop differ.
#[allow(clippy::too_many_arguments)]
fn pgmres_impl<'a, O, M, P>(
    op: &O,
    precond: &M,
    ip: &P,
    b: &[f64],
    x0: &[f64],
    opts: &GmresOpts,
    post: impl Fn(Vec<f64>) -> Result<Reduction<'a>, SolveInterrupt>,
    step: impl Fn(&[f64], &mut [f64], Reduction<'a>) -> Result<Vec<f64>, SolveInterrupt>,
) -> Result<SolveResult, SolveInterrupt>
where
    O: Operator + ?Sized,
    M: Preconditioner + ?Sized,
    P: InnerProduct + ?Sized,
{
    let n = op.dim();
    let m = opts.restart.max(2);
    let mut sk = Skeleton::default();
    sk.prepare(n, m);
    let mut ax = vec![0.0; n];
    // The anchor and every cycle-start residual use ordinary blocking
    // reductions, like the paper's implementation.
    restart::solve(
        op,
        Some(precond),
        ip,
        b,
        x0,
        opts,
        None,
        &mut sk,
        |run, r, beta| {
            // v: normalized basis; z: shadow basis z_j = B v_j.
            let mut v: Vec<Vec<f64>> = Vec::with_capacity(m + 1);
            let mut z: Vec<Vec<f64>> = Vec::with_capacity(m + 1);
            let mut v0 = r.to_vec();
            vector::scal(1.0 / beta, &mut v0);
            v.push(v0);
            // w = B v_0 and the first posted reduction.
            let mut w = vec![0.0; n];
            op.try_apply(&v[0], &mut ax)?;
            precond.try_apply(&ax, &mut w)?;
            z.push(w.clone());
            let mut row = post(gram_row(ip, &w, &v))?;
            let mut i = 1;
            // The loop's value is the row still in flight when the cycle ends.
            let unread = loop {
                if i > m || !run.next_iteration(ip) {
                    break Some(row);
                }
                // ------------------------------------------------ overlap zone
                // Matvec on the unorthogonalized candidate w_{i−1} while the
                // reduction completes. In fused mode the preconditioner carries
                // the payload and returns it reduced.
                let mut t = vec![0.0; n];
                op.try_apply(&w, &mut ax)?;
                let dots = step(&ax, &mut t, row)?;
                // ----------------------------------------- reduction available
                // dots = [⟨w,v_0⟩, …, ⟨w,v_{i−1}⟩, ‖w‖²] for w = w_{i−1}.
                let wnorm2 = dots[i];
                if !wnorm2.is_finite() || dots[..i].iter().any(|d| !d.is_finite()) {
                    // Non-finite Gram row: the candidate is poisoned; end the
                    // cycle with the columns finalized so far.
                    run.discard_column();
                    break None;
                }
                let h = run.h();
                let mut sumsq = 0.0;
                for j in 0..i {
                    h[(j, i - 1)] = dots[j];
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
                    break None;
                }
                run.h()[(i, i - 1)] = hii;
                if hii <= run.tiny() {
                    // Invariant subspace: finalize column i−1 and stop; the
                    // driver counts it as convergence only if the residual
                    // actually meets the tolerance (a singular operator or
                    // preconditioner reaches this point with a large one).
                    run.push_column(i - 1, &v);
                    break None;
                }
                vector::scal(1.0 / hii, &mut u);
                vector::scal(1.0 / hii, &mut zu);
                v.push(u);
                w = zu.clone();
                z.push(zu);
                // Post the next reduction: Gram row against v_0..v_i plus ‖w‖²,
                // then Givens on the now-final column i−1.
                row = post(gram_row(ip, &w, &v))?;
                if !run.push_column(i - 1, &v[..i]) {
                    break Some(row);
                }
                i += 1;
            };
            // A restart boundary: complete the reduction nobody will read.
            if let Some(row) = unread {
                row()?;
            }
            Ok(run.update(&v))
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gmres::tests::{
        check_guard_confirms_clean_convergence, check_guard_flags_corrupted_operator,
        BudgetExhausted, FailAfter,
    };
    use crate::gmres::{gmres, SolveStatus};
    use crate::operator::{IdentityPrecond, SeqDot};
    use dd_linalg::{CooBuilder, CsrMatrix};
    use std::cell::Cell;

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

    fn overlapped(
        op: &dyn Operator,
        b: &[f64],
        opts: &GmresOpts,
    ) -> Result<SolveResult, SolveInterrupt> {
        pipelined_gmres(op, &IdentityPrecond, &SeqDot, b, &vec![0.0; b.len()], opts)
    }

    fn fused(
        op: &dyn Operator,
        b: &[f64],
        opts: &GmresOpts,
    ) -> Result<SolveResult, SolveInterrupt> {
        fused_pipelined_gmres(op, &SeqFused, &SeqDot, b, &vec![0.0; b.len()], opts)
    }

    /// The guard lives in the shared cycle-start check, so the pipelined
    /// loops honour it like the classical one (tolerance 1e-8: see
    /// `pipelined_matches_classical_gmres`).
    #[test]
    fn guard_confirms_clean_convergence_with_identical_iterates() {
        check_guard_confirms_clean_convergence(&overlapped, 1e-8);
        check_guard_confirms_clean_convergence(&fused, 1e-8);
    }

    #[test]
    fn guard_flags_corrupted_operator_instead_of_false_convergence() {
        // The 21st product is the first whose corruption this loop does
        // not notice on its own (an earlier one breaks a cycle down).
        check_guard_flags_corrupted_operator(&overlapped, 1e-8, 20);
        check_guard_flags_corrupted_operator(&fused, 1e-8, 20);
    }

    /// An operator whose `try_apply` fails at call `k` — the anchor, the
    /// cycle-start residual, the pipeline prologue or an iteration's matvec
    /// — interrupts both loops with the failing layer's error intact.
    #[test]
    fn operator_failure_at_any_call_is_a_typed_interrupt_with_its_source() {
        let a = laplacian_2d(6, 6);
        let b = vec![1.0; a.rows()];
        let opts = GmresOpts::default();
        for solve in [overlapped, fused] {
            for k in [0, 1, 2, 3, 7] {
                let op = FailAfter {
                    inner: &a,
                    budget: Cell::new(k),
                };
                let err = solve(&op, &b, &opts).expect_err("the budget runs out mid-solve");
                assert_eq!(err.reason(), "operator budget exhausted");
                let source = err.take_source().expect("the source travels with it");
                assert!(source.downcast::<BudgetExhausted>().is_ok(), "call {k}");
            }
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
        let classical = gmres(&a, &IdentityPrecond, &SeqDot, &b, &vec![0.0; n], &opts);
        let pipelined = overlapped(&a, &b, &opts).unwrap();
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
        let classical = gmres(&a, &IdentityPrecond, &SeqDot, &b, &vec![0.0; n], &opts);
        let fused = fused(&a, &b, &opts).unwrap();
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
        let res = overlapped(&a, &b, &opts).unwrap();
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
        let res = overlapped(&a, &b, &opts).unwrap();
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
        let res = overlapped(&NanOp(n), &vec![1.0; n], &GmresOpts::default()).unwrap();
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
        let res = overlapped(&a, &b, &opts).unwrap();
        assert!(res.history.len() >= 2);
        assert!(res.history.last().unwrap() < &1e-8);
    }
}
