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

use crate::gmres::{GmresOpts, SolveResult, SolveStatus, STALL_LIMIT};
use crate::operator::{InnerProduct, Operator, Preconditioner};
use dd_linalg::givens::Givens;
use dd_linalg::{vector, DMat};

/// A preconditioner able to piggy-back a payload of local reduction
/// contributions on its internal communication (the fused p1-GMRES hook).
///
/// `apply_fused` must behave exactly like [`Preconditioner::apply`] on
/// `(r, z)` while also returning the *globally reduced* payload.
pub trait FusedPreconditioner: Preconditioner {
    fn apply_fused(&self, r: &[f64], z: &mut [f64], payload: Vec<f64>) -> Vec<f64>;
}

/// Placeholder fused preconditioner for the non-fused code path (never
/// instantiated).
enum NoFused {}

impl Preconditioner for NoFused {
    fn apply(&self, _: &[f64], _: &mut [f64]) {
        unreachable!()
    }
}

impl FusedPreconditioner for NoFused {
    fn apply_fused(&self, _: &[f64], _: &mut [f64], _: Vec<f64>) -> Vec<f64> {
        unreachable!()
    }
}

/// How the per-iteration reduction is carried out.
enum ReduceMode {
    /// Non-blocking allreduce overlapped with the matvec (p1-GMRES).
    Overlapped,
    /// Carried by the preconditioner's coarse-correction communication
    /// (fused p1-GMRES) — no standalone global reduction at all.
    Fused,
}

/// p1-GMRES with non-blocking reductions overlapped with the matvec.
pub fn pipelined_gmres<O, M, P>(
    op: &O,
    precond: &M,
    ip: &P,
    b: &[f64],
    x0: &[f64],
    opts: &GmresOpts,
) -> SolveResult
where
    O: Operator + ?Sized,
    M: Preconditioner + ?Sized,
    P: InnerProduct + ?Sized,
{
    pgmres_impl(
        op,
        precond,
        None::<&NoFused>,
        ip,
        b,
        x0,
        opts,
        ReduceMode::Overlapped,
    )
}

/// Fused p1-GMRES: the reduction payload rides on the preconditioner's
/// coarse gather/scatter (§3.5 of the paper).
pub fn fused_pipelined_gmres<O, M, P>(
    op: &O,
    precond: &M,
    ip: &P,
    b: &[f64],
    x0: &[f64],
    opts: &GmresOpts,
) -> SolveResult
where
    O: Operator + ?Sized,
    M: FusedPreconditioner + ?Sized,
    P: InnerProduct + ?Sized,
{
    pgmres_impl(
        op,
        precond,
        Some(precond),
        ip,
        b,
        x0,
        opts,
        ReduceMode::Fused,
    )
}

/// Local parts of the payload an iteration posts: the Gram row of `w`
/// against the basis `v`, then `‖w‖²`.
fn gram_row<P: InnerProduct + ?Sized>(ip: &P, w: &[f64], v: &[Vec<f64>]) -> Vec<f64> {
    let mut row = vec![0.0; v.len() + 1];
    ip.local_dots(w, v, &mut row[..v.len()]);
    row[v.len()] = ip.local_dot(w, w);
    row
}

#[allow(clippy::too_many_arguments)]
fn pgmres_impl<O, M, MF, P>(
    op: &O,
    precond: &M,
    fused: Option<&MF>,
    ip: &P,
    b: &[f64],
    x0: &[f64],
    opts: &GmresOpts,
    mode: ReduceMode,
) -> SolveResult
where
    O: Operator + ?Sized,
    M: Preconditioner + ?Sized,
    MF: FusedPreconditioner + ?Sized,
    P: InnerProduct + ?Sized,
{
    let n = op.dim();
    let m = opts.restart.max(2);
    let mut x = x0.to_vec();
    let mut history = Vec::new();
    let mut total_iters = 0usize;
    let mut converged = false;
    let mut final_res = 1.0;

    // Initial preconditioned residual and its norm (setup phase uses
    // ordinary blocking reductions, like the paper's implementation).
    let mut ax = vec![0.0; n];
    let mut raw = vec![0.0; n];
    let mut r = vec![0.0; n];
    op.apply(&x, &mut ax);
    for i in 0..n {
        raw[i] = b[i] - ax[i];
    }
    precond.apply(&raw, &mut r);
    let r0_norm = ip.norm(&r);
    if opts.record_history {
        history.push(1.0);
    }
    if r0_norm == 0.0 {
        return SolveResult {
            x,
            iterations: 0,
            converged: true,
            history,
            final_residual: 0.0,
            status: SolveStatus::Converged,
            breakdown_restarts: 0,
        };
    }
    if !r0_norm.is_finite() {
        return SolveResult {
            x,
            iterations: 0,
            converged: false,
            history,
            final_residual: f64::INFINITY,
            status: SolveStatus::Breakdown,
            breakdown_restarts: 0,
        };
    }
    let target = opts.tol * r0_norm;
    let mut breakdown_restarts = 0usize;
    let mut broke_down = false;
    let mut best_res = f64::INFINITY;
    let mut stall = 0usize;

    'outer: loop {
        op.apply(&x, &mut ax);
        for i in 0..n {
            raw[i] = b[i] - ax[i];
        }
        precond.apply(&raw, &mut r);
        let beta = ip.norm(&r);
        if beta <= target {
            converged = true;
            final_res = beta / r0_norm;
            break;
        }
        if !beta.is_finite() {
            // The iterate itself is poisoned; a restart cannot recover.
            broke_down = true;
            break 'outer;
        }
        // v: normalized basis; z: shadow basis z_j = B v_j.
        let mut v: Vec<Vec<f64>> = Vec::with_capacity(m + 1);
        let mut z: Vec<Vec<f64>> = Vec::with_capacity(m + 1);
        let mut v0 = r.clone();
        vector::scal(1.0 / beta, &mut v0);
        v.push(v0);
        // w = B v_0 and the first posted reduction.
        let mut w = vec![0.0; n];
        op.apply(&v[0], &mut ax);
        precond.apply(&ax, &mut w);
        z.push(w.clone());
        let mut locals = gram_row(ip, &w, &v);
        let mut pending: Option<Box<dyn FnOnce() -> Vec<f64>>> = match mode {
            ReduceMode::Overlapped => Some(ip.reduce_begin(locals.clone())),
            ReduceMode::Fused => None,
        };

        let mut h = DMat::zeros(m + 2, m + 1);
        let mut rot: Vec<Givens> = Vec::new();
        let mut g = vec![0.0; m + 2];
        g[0] = beta;
        let mut k_done = 0usize;
        let mut cycle_broken = false;

        for i in 1..=m {
            if total_iters >= opts.max_iters {
                break;
            }
            ip.on_iteration(total_iters);
            total_iters += 1;
            // ------------------------------------------------ overlap zone
            // Matvec on the unorthogonalized candidate w_{i−1} while the
            // reduction completes. In fused mode the preconditioner carries
            // the payload and returns it reduced.
            let mut t = vec![0.0; n];
            op.apply(&w, &mut ax);
            let dots = match mode {
                ReduceMode::Overlapped => {
                    precond.apply(&ax, &mut t);
                    pending.take().expect("pending reduction missing")()
                }
                ReduceMode::Fused => {
                    let f = fused.expect("fused preconditioner required");
                    f.apply_fused(&ax, &mut t, std::mem::take(&mut locals))
                }
            };
            // ----------------------------------------- reduction available
            // dots = [⟨w,v_0⟩, …, ⟨w,v_{i−1}⟩, ‖w‖²] for w = w_{i−1}.
            let wnorm2 = dots[i];
            if !wnorm2.is_finite() || dots[..i].iter().any(|d| !d.is_finite()) {
                // Non-finite Gram row: the candidate is poisoned; end the
                // cycle with the columns finalized so far.
                cycle_broken = true;
                if opts.record_history {
                    history.push(final_res);
                }
                break;
            }
            let mut sumsq = 0.0;
            for j in 0..i {
                h[(j, i - 1)] = dots[j];
                sumsq += dots[j] * dots[j];
            }
            let mut hii = (wnorm2 - sumsq).max(0.0).sqrt();
            // Orthogonalize the candidate and its shadow.
            let mut u = w.clone();
            let mut zu = std::mem::take(&mut t);
            let minus_h: Vec<f64> = dots[..i].iter().map(|d| -d).collect();
            vector::axpy_many(&minus_h, &v, &mut u);
            vector::axpy_many(&minus_h, &z, &mut zu);
            // Square-root breakdown safeguard: on severe cancellation the
            // Pythagorean estimate is unreliable — renormalize explicitly
            // (costs one extra reduction, rare).
            if hii * hii <= 1e-10 * wnorm2.max(1e-300) {
                hii = ip.norm(&u);
            }
            if !hii.is_finite() {
                cycle_broken = true;
                if opts.record_history {
                    history.push(final_res);
                }
                break;
            }
            h[(i, i - 1)] = hii;
            if hii <= 1e-14 * r0_norm {
                // Invariant subspace: finalize column i−1 and stop. Only a
                // residual that actually meets the tolerance counts as
                // convergence (a singular operator/preconditioner reaches
                // this point with a large residual — a breakdown).
                for (j, gr) in rot.iter().enumerate() {
                    let (a2, b2) = gr.apply(h[(j, i - 1)], h[(j + 1, i - 1)]);
                    h[(j, i - 1)] = a2;
                    h[(j + 1, i - 1)] = b2;
                }
                let (gr, rkk) = Givens::compute(h[(i - 1, i - 1)], h[(i, i - 1)]);
                if rkk.abs() <= 1e-14 * r0_norm {
                    // Fully annihilated column: the rotated least-squares
                    // residual is meaningless — discard it.
                    cycle_broken = true;
                    if opts.record_history {
                        history.push(final_res);
                    }
                    break;
                }
                h[(i - 1, i - 1)] = rkk;
                let (g0, g1) = gr.apply(g[i - 1], g[i]);
                g[i - 1] = g0;
                g[i] = g1;
                rot.push(gr);
                k_done = i;
                final_res = g[i].abs() / r0_norm;
                if opts.record_history {
                    history.push(final_res);
                }
                if g[i].abs() <= target {
                    converged = true;
                } else {
                    cycle_broken = true;
                }
                break;
            }
            vector::scal(1.0 / hii, &mut u);
            vector::scal(1.0 / hii, &mut zu);
            v.push(u);
            w = zu.clone();
            z.push(zu);
            // Post the next reduction: Gram row against v_0..v_i plus ‖w‖².
            locals = gram_row(ip, &w, &v);
            if matches!(mode, ReduceMode::Overlapped) {
                pending = Some(ip.reduce_begin(locals.clone()));
            }
            // Givens on the now-final column i−1; convergence check.
            for (j, gr) in rot.iter().enumerate() {
                let (a2, b2) = gr.apply(h[(j, i - 1)], h[(j + 1, i - 1)]);
                h[(j, i - 1)] = a2;
                h[(j + 1, i - 1)] = b2;
            }
            let (gr, rkk) = Givens::compute(h[(i - 1, i - 1)], h[(i, i - 1)]);
            h[(i - 1, i - 1)] = rkk;
            h[(i, i - 1)] = 0.0;
            let (g0, g1) = gr.apply(g[i - 1], g[i]);
            g[i - 1] = g0;
            g[i] = g1;
            rot.push(gr);
            let res = g[i].abs();
            if !res.is_finite() {
                // Exclude the poisoned column from the update.
                k_done = i - 1;
                cycle_broken = true;
                if opts.record_history {
                    history.push(final_res);
                }
                break;
            }
            k_done = i;
            final_res = res / r0_norm;
            if opts.record_history {
                history.push(final_res);
            }
            if res <= target {
                converged = true;
                break;
            }
            // Stagnation: no residual improvement for STALL_LIMIT
            // consecutive iterations.
            if res < best_res * (1.0 - 1e-12) {
                best_res = res;
                stall = 0;
            } else {
                stall += 1;
                if stall >= STALL_LIMIT {
                    cycle_broken = true;
                    break;
                }
            }
        }
        // Discard any un-awaited reduction (restart boundary).
        if let Some(p) = pending.take() {
            let _ = p();
        }
        // x update from the k_done finalized columns (skipped when the
        // triangular solve produces non-finite coefficients).
        if k_done > 0 {
            let mut y = vec![0.0; k_done];
            for i2 in (0..k_done).rev() {
                let mut s = g[i2];
                for j in i2 + 1..k_done {
                    s -= h[(i2, j)] * y[j];
                }
                y[i2] = s / h[(i2, i2)];
            }
            if y.iter().all(|v| v.is_finite()) {
                vector::axpy_many(&y, &v[..k_done], &mut x);
            }
        }
        if converged || total_iters >= opts.max_iters {
            break 'outer;
        }
        if cycle_broken {
            if breakdown_restarts == 0 {
                // One restart: rebuild the Krylov space from the current
                // iterate before giving up.
                breakdown_restarts += 1;
                best_res = f64::INFINITY;
                stall = 0;
            } else {
                broke_down = true;
                break 'outer;
            }
        }
    }
    let status = if converged {
        SolveStatus::Converged
    } else if broke_down {
        SolveStatus::Breakdown
    } else {
        SolveStatus::MaxIterations
    };
    SolveResult {
        x,
        iterations: total_iters,
        converged,
        history,
        final_residual: final_res,
        status,
        breakdown_restarts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gmres::gmres;
    use crate::operator::{IdentityPrecond, SeqDot};
    use dd_linalg::{CooBuilder, CsrMatrix};

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
        fn apply_fused(&self, r: &[f64], z: &mut [f64], payload: Vec<f64>) -> Vec<f64> {
            z.copy_from_slice(r);
            payload
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
        let pipelined = pipelined_gmres(&a, &IdentityPrecond, &SeqDot, &b, &vec![0.0; n], &opts);
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
        let fused = fused_pipelined_gmres(&a, &SeqFused, &SeqDot, &b, &vec![0.0; n], &opts);
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
        let res = pipelined_gmres(&a, &IdentityPrecond, &SeqDot, &b, &vec![0.0; n], &opts);
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
        let res = pipelined_gmres(&a, &IdentityPrecond, &SeqDot, &b, &vec![0.0; n], &opts);
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
        let res = pipelined_gmres(
            &NanOp(n),
            &IdentityPrecond,
            &SeqDot,
            &vec![1.0; n],
            &vec![0.0; n],
            &GmresOpts::default(),
        );
        assert!(!res.converged);
        assert_eq!(res.status, SolveStatus::Breakdown);
        assert!(res.x.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn residual_history_tracks_convergence() {
        let a = laplacian_2d(6, 6);
        let n = a.rows();
        let b = vec![1.0; n];
        let res = pipelined_gmres(
            &a,
            &IdentityPrecond,
            &SeqDot,
            &b,
            &vec![0.0; n],
            &GmresOpts {
                tol: 1e-9,
                ..Default::default()
            },
        );
        assert!(res.history.len() >= 2);
        assert!(res.history.last().unwrap() < &1e-8);
    }
}
