//! Preconditioned conjugate gradients — the natural companion solver for
//! the SPD systems the two-level preconditioner targets; used in the
//! ablation benches to cross-check GMRES results on symmetric problems.

use crate::checkpoint::{CheckpointCfg, SolveCheckpoint};
use crate::gmres::{SolveResult, SolveStatus, STALL_LIMIT};
use crate::operator::{InnerProduct, Operator, Preconditioner, SolveInterrupt};
use crate::restart::check_lengths;
use crate::sdc::SdcGuard;
use dd_linalg::vector;

/// Options for [`try_cg`].
#[derive(Clone, Debug)]
pub struct CgOpts {
    /// Relative tolerance on the preconditioned residual norm `√(rᵀz)`.
    pub tol: f64,
    pub max_iters: usize,
    pub record_history: bool,
    /// Silent-data-corruption guard: `Some` makes convergence verified
    /// (recomputed as `√(rᵀz)` of the *rebuilt* residual, never trusted
    /// from the recurrence alone) and classifies recurred-vs-recomputed
    /// drift as a [`SolveInterrupt`] carrying [`crate::sdc::SdcSuspected`].
    /// `None` (default) is bitwise identical to the unguarded solver.
    pub guard: Option<SdcGuard>,
}

impl Default for CgOpts {
    fn default() -> Self {
        CgOpts {
            tol: 1e-6,
            max_iters: 1000,
            record_history: true,
            guard: None,
        }
    }
}

/// Solve the SPD system `A x = b` with preconditioned CG. The
/// preconditioner must be symmetric positive definite as an operator.
/// Operator/preconditioner/inner-product failures surface as
/// [`SolveInterrupt`], and an optional [`CheckpointCfg`] snapshots `x`
/// every `interval` iterations (and resumes an interrupted solve against
/// its original `√(r₀ᵀz₀)` anchor).
pub fn try_cg<O, M, P>(
    op: &O,
    precond: &M,
    ip: &P,
    b: &[f64],
    x0: &[f64],
    opts: &CgOpts,
    ckpt: Option<&CheckpointCfg<'_>>,
) -> Result<SolveResult, SolveInterrupt>
where
    O: Operator + ?Sized,
    M: Preconditioner + ?Sized,
    P: InnerProduct + ?Sized,
{
    let n = op.dim();
    check_lengths(n, 1, b, x0, ckpt)?;
    let resume = ckpt.and_then(|c| c.resume.as_ref());
    let mut x = match resume {
        Some(cp) => cp.x.clone(),
        None => x0.to_vec(),
    };
    let mut r = vec![0.0; n];
    let mut ax = vec![0.0; n];
    let mut z = vec![0.0; n];
    let mut p = vec![0.0; n];
    let mut ap = vec![0.0; n];
    let mut history = Vec::new();
    if opts.record_history {
        // One up-front allocation instead of growth reallocations in the
        // iteration loop (the dots themselves are allocation-free via
        // `try_reduce_into`).
        history.reserve(opts.max_iters + 2 + resume.map_or(0, |cp| cp.history.len()));
        match resume {
            Some(cp) => history.extend_from_slice(&cp.history),
            None => history.push(1.0),
        }
    }

    // All breakdown decisions below are made on globally-reduced scalars
    // (`rz`, `pap`, norms), never on local vector contents, so every rank
    // of a distributed solve takes the same control path.
    //
    // A resumed solve keeps the original anchor `√(r₀ᵀz₀)` so the combined
    // run converges to the same tolerance as a fault-free one. A snapshot
    // is only ever taken at iteration ≥ 1, so resuming never re-enters the
    // `iterations == 0` anchor computation below.
    let mut rz0 = resume.map_or(0.0, |cp| cp.r0_norm);
    let mut target = opts.tol * rz0;
    let mut converged = false;
    let mut broke_down = false;
    let mut breakdown_restarts = 0usize;
    let mut iterations = resume.map_or(0, |cp| cp.iteration);
    let mut final_residual = resume.map_or(1.0, |cp| cp.residual);
    let mut best_res = f64::INFINITY;
    let mut stall = 0usize;
    // True while a guard-claimed convergence awaits the rebuilt-residual
    // verification of the next `'outer` pass (that pass must not be
    // misread as a breakdown restart).
    let mut verify_pending = false;

    'outer: loop {
        // (Re)build the CG state from the current iterate.
        op.try_apply_panel(1, &x, &mut ax)?;
        for i in 0..n {
            r[i] = b[i] - ax[i];
        }
        precond.try_apply_panel(1, &r, &mut z)?;
        p.copy_from_slice(&z);
        let mut rz = ip.try_dot(&r, &z)?;
        if iterations == 0 && breakdown_restarts == 0 {
            rz0 = rz.max(0.0).sqrt();
            if rz0 == 0.0 || !rz0.is_finite() {
                // `√(rᵀz) = 0` is convergence only when the residual itself
                // is zero; a (semi-)definite or broken preconditioner can
                // annihilate a nonzero residual.
                let truly_zero = rz0 == 0.0 && ip.try_norm(&r)? == 0.0;
                return Ok(SolveResult {
                    x,
                    iterations: 0,
                    converged: truly_zero,
                    history,
                    final_residual: if truly_zero { 0.0 } else { 1.0 },
                    status: if truly_zero {
                        SolveStatus::Converged
                    } else {
                        SolveStatus::Breakdown
                    },
                    breakdown_restarts: 0,
                });
            }
            target = opts.tol * rz0;
        } else {
            if let Some(g) = &opts.guard {
                // Rebuilt state against the recurred estimate. Verified
                // convergence first: a rebuilt √(rᵀz) at or under the
                // target is the honest accept, whatever the recurrence
                // claimed. Then drift classification: disagreement past
                // the threshold (or a non-finite rebuild) is suspected
                // corruption — typed interrupt, roll back and replay.
                // Mild drift falls through and the rebuilt state
                // self-corrects, as any restart does.
                // NaN must reach `drifted` as NaN (`NaN.max(0.0)` would
                // silently rebuild a zero residual from a poisoned state).
                let recomputed = if rz.is_finite() {
                    rz.max(0.0).sqrt()
                } else {
                    f64::NAN
                };
                if rz.is_finite() && recomputed <= target {
                    final_residual = recomputed / rz0;
                    converged = true;
                    break 'outer;
                }
                if g.drifted(final_residual, recomputed / rz0) {
                    return Err(g.interrupt(iterations, final_residual, recomputed / rz0));
                }
            }
            if !rz.is_finite() || rz <= 0.0 {
                // The restart (or resume) did not produce a usable descent
                // state.
                broke_down = true;
                break 'outer;
            }
        }
        // dd:hot — the CG iteration proper; work vectors are reused across
        // iterations, so no allocation is allowed here
        while iterations < opts.max_iters {
            ip.on_iteration(iterations);
            iterations += 1;
            op.try_apply_panel(1, &p, &mut ap)?;
            let pap = ip.try_dot(&p, &ap)?;
            if !pap.is_finite() || pap <= 0.0 {
                // Operator not SPD along p, or poisoned by non-finite
                // values: breakdown (handled after the loop).
                break;
            }
            let alpha = rz / pap;
            vector::axpy(alpha, &p, &mut x);
            vector::axpy(-alpha, &ap, &mut r);
            precond.try_apply_panel(1, &r, &mut z)?;
            let rz_new = ip.try_dot(&r, &z)?;
            if !rz_new.is_finite() {
                break;
            }
            if rz_new <= 0.0 {
                // z lost positivity; only a genuinely zero residual counts
                // as convergence here.
                if ip.try_norm(&r)? == 0.0 {
                    final_residual = 0.0;
                    if opts.record_history {
                        history.push(0.0);
                    }
                    converged = true;
                }
                break;
            }
            let res = rz_new.sqrt();
            final_residual = res / rz0;
            if opts.record_history {
                history.push(final_residual);
            }
            if res <= target {
                // With a guard armed, the recurrence only *claims*
                // convergence: rebuild the state and let the `'outer` pass
                // confirm it against the actual iterate.
                if opts.guard.is_none() {
                    converged = true;
                } else {
                    verify_pending = true;
                }
                break;
            }
            if let Some(cfg) = ckpt {
                if cfg.due(iterations) {
                    // dd:cold — checkpoint snapshots own their state by design
                    cfg.sink.save(SolveCheckpoint {
                        iteration: iterations,
                        x: x.clone(),
                        residual: final_residual,
                        r0_norm: rz0,
                        history: history.clone(),
                    });
                }
            }
            // Stagnation: no improvement for STALL_LIMIT iterations.
            if res < best_res * (1.0 - 1e-12) {
                best_res = res;
                stall = 0;
            } else {
                stall += 1;
                if stall >= STALL_LIMIT {
                    break;
                }
            }
            let beta = rz_new / rz;
            rz = rz_new;
            for i in 0..n {
                p[i] = z[i] + beta * p[i];
            }
        }
        if converged || iterations >= opts.max_iters {
            break 'outer;
        }
        if verify_pending {
            // Not a breakdown — a guard-claimed convergence heading into
            // its verification pass.
            verify_pending = false;
            continue 'outer;
        }
        // The inner loop exited on a breakdown: restart once from the
        // current iterate, then give up.
        if breakdown_restarts == 0 {
            breakdown_restarts = 1;
            best_res = f64::INFINITY;
            stall = 0;
        } else {
            broke_down = true;
            break 'outer;
        }
    }
    let status = if converged {
        SolveStatus::Converged
    } else if broke_down {
        SolveStatus::Breakdown
    } else {
        SolveStatus::MaxIterations
    };
    Ok(SolveResult {
        x,
        iterations,
        converged,
        history,
        final_residual,
        status,
        breakdown_restarts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::{FnPrecond, IdentityPrecond, SeqDot};
    use dd_linalg::CooBuilder;

    fn spd(n: usize) -> dd_linalg::CsrMatrix {
        let mut b = CooBuilder::new(n, n);
        for i in 0..n {
            b.push(i, i, 2.5);
            if i + 1 < n {
                b.push(i, i + 1, -1.0);
                b.push(i + 1, i, -1.0);
            }
        }
        b.to_csr()
    }

    #[test]
    fn solves_spd() {
        let a = spd(50);
        let b = vec![1.0; 50];
        let res = try_cg(
            &a,
            &IdentityPrecond,
            &SeqDot,
            &b,
            &[0.0; 50],
            &CgOpts {
                tol: 1e-10,
                ..Default::default()
            },
            None,
        )
        .unwrap();
        assert!(res.converged);
        let mut ax = vec![0.0; 50];
        a.spmv(&res.x, &mut ax);
        assert!(vector::dist2(&ax, &b) < 1e-7);
    }

    #[test]
    fn jacobi_precond_helps_on_scaled_system() {
        let n = 80;
        let mut c = CooBuilder::new(n, n);
        for i in 0..n {
            c.push(i, i, 10f64.powi((i % 4) as i32));
            if i + 1 < n {
                c.push(i, i + 1, -0.05);
                c.push(i + 1, i, -0.05);
            }
        }
        let a = c.to_csr();
        let b = vec![1.0; n];
        let diag = a.diag();
        let jacobi = FnPrecond::new(move |r: &[f64], z: &mut [f64]| {
            for i in 0..r.len() {
                z[i] = r[i] / diag[i];
            }
        });
        let opts = CgOpts {
            tol: 1e-9,
            max_iters: 500,
            record_history: false,
            ..Default::default()
        };
        let plain = try_cg(
            &a,
            &IdentityPrecond,
            &SeqDot,
            &b,
            &vec![0.0; n],
            &opts,
            None,
        )
        .unwrap();
        let pc = try_cg(&a, &jacobi, &SeqDot, &b, &vec![0.0; n], &opts, None).unwrap();
        assert!(pc.converged);
        assert!(pc.iterations <= plain.iterations);
    }

    #[test]
    fn history_length_matches_iterations() {
        let a = spd(40);
        let b = vec![1.0; 40];
        let res = try_cg(
            &a,
            &IdentityPrecond,
            &SeqDot,
            &b,
            &[0.0; 40],
            &CgOpts::default(),
            None,
        )
        .unwrap();
        assert!(res.converged);
        assert_eq!(res.history.len(), res.iterations + 1);
        assert_eq!(res.history[0], 1.0);
        assert!(*res.history.last().unwrap() <= 1e-6);
    }

    #[test]
    fn zero_rhs_immediate() {
        let a = spd(10);
        let res = try_cg(
            &a,
            &IdentityPrecond,
            &SeqDot,
            &[0.0; 10],
            &[0.0; 10],
            &CgOpts::default(),
            None,
        )
        .unwrap();
        assert!(res.converged);
        assert_eq!(res.iterations, 0);
    }

    #[test]
    fn indefinite_operator_reports_breakdown() {
        // diag(-1): pᵀAp < 0 on the first step; the restart reproduces the
        // same state, so the solve must surface a typed breakdown.
        let n = 8;
        let mut c = CooBuilder::new(n, n);
        for i in 0..n {
            c.push(i, i, -1.0);
        }
        let a = c.to_csr();
        let res = try_cg(
            &a,
            &IdentityPrecond,
            &SeqDot,
            &vec![1.0; n],
            &vec![0.0; n],
            &CgOpts::default(),
            None,
        )
        .unwrap();
        assert!(!res.converged);
        assert_eq!(res.status, SolveStatus::Breakdown);
        assert_eq!(res.breakdown_restarts, 1);
    }

    #[test]
    fn zero_preconditioner_is_breakdown_not_false_convergence() {
        let a = spd(12);
        let zero = FnPrecond::new(|_r: &[f64], z: &mut [f64]| z.fill(0.0));
        let res = try_cg(
            &a,
            &zero,
            &SeqDot,
            &[1.0; 12],
            &[0.0; 12],
            &CgOpts::default(),
            None,
        )
        .unwrap();
        assert!(!res.converged);
        assert_eq!(res.status, SolveStatus::Breakdown);
    }

    #[test]
    fn nan_preconditioner_reports_breakdown() {
        let a = spd(12);
        let nan = FnPrecond::new(|_r: &[f64], z: &mut [f64]| z.fill(f64::NAN));
        let res = try_cg(
            &a,
            &nan,
            &SeqDot,
            &[1.0; 12],
            &[0.0; 12],
            &CgOpts::default(),
            None,
        )
        .unwrap();
        assert!(!res.converged);
        assert_eq!(res.status, SolveStatus::Breakdown);
        assert!(res.x.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn interrupted_cg_resumes_from_checkpoint() {
        use crate::gmres::tests::{FailAfter, VecSink};
        use std::cell::Cell;

        let a = spd(60);
        let n = a.rows();
        let b: Vec<f64> = (0..n).map(|i| ((i * 3) % 11) as f64 - 5.0).collect();
        let opts = CgOpts {
            tol: 1e-10,
            ..Default::default()
        };
        let clean = try_cg(
            &a,
            &IdentityPrecond,
            &SeqDot,
            &b,
            &vec![0.0; n],
            &opts,
            None,
        )
        .unwrap();
        assert!(clean.converged);

        let failing = FailAfter {
            inner: &a,
            budget: Cell::new(10),
        };
        let sink = VecSink::new();
        let cfg = CheckpointCfg::new(2, &sink);
        let err = try_cg(
            &failing,
            &IdentityPrecond,
            &SeqDot,
            &b,
            &vec![0.0; n],
            &opts,
            Some(&cfg),
        )
        .unwrap_err();
        assert!(err.reason().contains("budget"));
        let cp = sink.0.borrow().last().unwrap().clone();
        let resume_iter = cp.iteration;
        assert!(resume_iter > 0);
        assert_eq!(cp.history.len(), cp.iteration + 1);

        let sink2 = VecSink::new();
        let cfg2 = CheckpointCfg::resuming(1000, &sink2, cp);
        let res = try_cg(
            &a,
            &IdentityPrecond,
            &SeqDot,
            &b,
            &vec![0.0; n],
            &opts,
            Some(&cfg2),
        )
        .unwrap();
        assert!(res.converged);
        assert!(res.iterations > resume_iter);
        assert_eq!(res.history.len(), res.iterations + 1);
        let mut ax = vec![0.0; n];
        a.spmv(&res.x, &mut ax);
        assert!(vector::dist2(&ax, &b) / vector::norm2(&b) < 1e-8);
    }

    #[test]
    fn guard_confirms_clean_convergence_with_identical_iterates() {
        let a = spd(50);
        let b: Vec<f64> = (0..50).map(|i| ((i * 3) % 11) as f64 - 5.0).collect();
        let off = CgOpts {
            tol: 1e-10,
            ..Default::default()
        };
        let on = CgOpts {
            guard: Some(crate::sdc::SdcGuard::default()),
            ..off.clone()
        };
        let r_off = try_cg(
            &a,
            &IdentityPrecond,
            &SeqDot,
            &b,
            &vec![0.0; 50],
            &off,
            None,
        )
        .unwrap();
        let r_on = try_cg(&a, &IdentityPrecond, &SeqDot, &b, &vec![0.0; 50], &on, None).unwrap();
        assert!(r_off.converged && r_on.converged);
        assert_eq!(r_off.x, r_on.x, "guard must not change the iterates");
        assert_eq!(r_off.iterations, r_on.iterations);
        assert_eq!(r_on.breakdown_restarts, 0, "verification is not a restart");
    }

    #[test]
    fn guard_flags_corrupted_operator_as_suspected_sdc() {
        use crate::gmres::tests::CorruptOnce;
        use std::cell::Cell;

        let a = spd(50);
        let n = a.rows();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.31).cos() + 1.5).collect();
        // Scaling one `A p` application desynchronizes the recurred
        // residual from `b − A x` for the rest of the solve; scaling (not
        // an additive flip) keeps `pᵀ(Ap)` positive so the SPD recurrence
        // marches on, oblivious — exactly the silent failure mode.
        let corrupt = CorruptOnce {
            inner: &a,
            at: 8,
            scale: 2.0,
            count: Cell::new(0),
        };
        let opts = CgOpts {
            tol: 1e-10,
            guard: Some(crate::sdc::SdcGuard::default()),
            ..Default::default()
        };
        let err = try_cg(
            &corrupt,
            &IdentityPrecond,
            &SeqDot,
            &b,
            &vec![0.0; n],
            &opts,
            None,
        )
        .unwrap_err();
        let sdc = err.sdc().expect("interrupt must carry the SDC marker");
        assert!(sdc.recomputed > sdc.recurred);
        assert!(sdc.iteration > 8);
    }

    #[test]
    fn agrees_with_gmres() {
        let a = spd(30);
        let b: Vec<f64> = (0..30).map(|i| (i as f64).sin()).collect();
        let rcg = try_cg(
            &a,
            &IdentityPrecond,
            &SeqDot,
            &b,
            &[0.0; 30],
            &CgOpts {
                tol: 1e-12,
                ..Default::default()
            },
            None,
        )
        .unwrap();
        let rg = crate::gmres::try_gmres(
            &a,
            &IdentityPrecond,
            &SeqDot,
            &b,
            &[0.0; 30],
            &crate::gmres::GmresOpts {
                tol: 1e-12,
                ..Default::default()
            },
            None,
        )
        .unwrap();
        assert!(vector::dist2(&rcg.x, &rg.x) < 1e-6);
    }
}
