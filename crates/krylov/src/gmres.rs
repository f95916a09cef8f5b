//! Restarted GMRES(m) with left or right preconditioning.
//!
//! The solver the paper uses throughout its experiments ("The GMRES is
//! stopped when a relative 10⁻⁶ decrease of the residual is reached";
//! Figure 7 uses GMRES(40)). Orthogonalization is selectable:
//!
//! * [`Ortho::Mgs`] — modified Gram–Schmidt, `i + 1` reductions per
//!   iteration (robust reference);
//! * [`Ortho::Cgs`] — classical Gram–Schmidt with a single batched Gram
//!   reduction plus one normalization reduction per iteration — two global
//!   synchronizations per iteration, which is the baseline the fused
//!   pipelined variant of §3.5 eliminates.

use crate::checkpoint::CheckpointCfg;
use crate::operator::{InnerProduct, Operator, Preconditioner, SolveInterrupt};
use crate::restart::{self, Skeleton};
use crate::sdc::SdcGuard;
use dd_linalg::vector;

/// Orthogonalization strategy inside the Arnoldi process.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Ortho {
    /// Modified Gram–Schmidt.
    Mgs,
    /// Classical Gram–Schmidt (batched reductions). One Gram reduction per
    /// iteration, but loses orthogonality on ill-conditioned problems.
    Cgs,
    /// Reorthogonalized classical Gram–Schmidt (CGS2): two batched Gram
    /// reductions per iteration — nearly as robust as MGS while keeping
    /// the reduction count independent of the basis size.
    #[default]
    Cgs2,
}

/// Preconditioning side.
///
/// With [`Side::Right`] (`A M⁻¹ u = b`, `x = M⁻¹ u`) the GMRES residual is
/// the **true** residual `‖b − A x‖` — the honest metric for comparing
/// preconditioners of very different quality (a stalled one-level method
/// can look converged in the `M⁻¹`-norm of left preconditioning).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Side {
    /// Solve `M⁻¹ A x = M⁻¹ b`; residual history is the preconditioned
    /// residual.
    Left,
    /// Solve `A M⁻¹ u = b`; residual history is the true residual.
    #[default]
    Right,
}

/// Options for [`gmres`] and the pipelined loops
/// ([`crate::pipelined_gmres`], [`crate::fused_pipelined_gmres`]). Every
/// loop reads `tol`, `max_iters`, `record_history` and `guard`, which live
/// in the restart driver they share.
#[derive(Clone, Debug)]
pub struct GmresOpts {
    /// Restart length `m` (the pipelined loops run at least 2).
    pub restart: usize,
    /// Relative residual tolerance (on the preconditioned residual).
    pub tol: f64,
    /// Maximum total iterations across restarts.
    pub max_iters: usize,
    /// Orthogonalization variant. Classical loop only: the pipelined loops
    /// orthogonalize by the one Gram row per iteration they are built on.
    pub ortho: Ortho,
    /// Preconditioning side. Classical loop only: the pipelined loops are
    /// left-preconditioned whatever this says.
    pub side: Side,
    /// Record the residual at every iteration.
    pub record_history: bool,
    /// Silent-data-corruption guard, honoured by every loop: `Some` makes
    /// convergence verified (recomputed from the iterate, never trusted
    /// from the recurrence alone) and classifies recurred-vs-recomputed
    /// residual drift at cycle boundaries as a [`SolveInterrupt`] carrying
    /// [`crate::sdc::SdcSuspected`]. `None` (default) is bitwise identical
    /// to the unguarded solver.
    pub guard: Option<SdcGuard>,
}

impl Default for GmresOpts {
    fn default() -> Self {
        GmresOpts {
            restart: 200,
            tol: 1e-6,
            max_iters: 1000,
            ortho: Ortho::Cgs2,
            side: Side::Right,
            record_history: true,
            guard: None,
        }
    }
}

/// Why a Krylov solve stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SolveStatus {
    /// The tolerance was met.
    Converged,
    /// The iteration budget ran out without numerical trouble.
    #[default]
    MaxIterations,
    /// Numerical breakdown — non-finite values, a non-converged invariant
    /// subspace, or stagnation — persisted after one restart.
    Breakdown,
}

impl std::fmt::Display for SolveStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveStatus::Converged => write!(f, "converged"),
            SolveStatus::MaxIterations => write!(f, "max iterations"),
            SolveStatus::Breakdown => write!(f, "breakdown"),
        }
    }
}

/// Consecutive iterations without residual improvement before a solver
/// declares stagnation breakdown.
pub(crate) const STALL_LIMIT: usize = 50;

/// Outcome of a Krylov solve.
#[derive(Clone, Debug)]
pub struct SolveResult {
    /// Final iterate.
    pub x: Vec<f64>,
    /// Total iterations performed.
    pub iterations: usize,
    /// Whether the tolerance was met.
    pub converged: bool,
    /// Relative (preconditioned) residual at each iteration, starting with
    /// iteration 0 (the initial residual, = 1).
    pub history: Vec<f64>,
    /// Final relative residual estimate.
    pub final_residual: f64,
    /// Why the solve stopped.
    pub status: SolveStatus,
    /// Restarts taken in response to detected breakdowns (at most one: a
    /// second breakdown surfaces as [`SolveStatus::Breakdown`]).
    pub breakdown_restarts: usize,
}

/// Solve `A x = b` with restarted, preconditioned GMRES.
///
/// Thin wrapper over [`try_gmres`] with no checkpointing; with the default
/// (infallible) `try_*` trait methods an interrupt is impossible, so this
/// panics if one surfaces — fault-tolerant callers must use [`try_gmres`].
pub fn gmres<O, M, P>(
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
    match try_gmres(op, precond, ip, b, x0, opts, None) {
        Ok(res) => res,
        Err(int) => panic!("gmres interrupted without a fault-tolerant caller: {int}"),
    }
}

/// Reusable buffers for [`try_gmres_with`]: the Arnoldi basis pool, the
/// Hessenberg matrix, and every scratch vector of the inner loop.
///
/// A solve sizes the workspace on entry, allocating only what is missing,
/// so after one warmup solve the steady-state GMRES iteration — together
/// with an allocation-free operator / preconditioner / inner product (e.g.
/// `CsrMatrix` / [`crate::IdentityPrecond`] / [`crate::SeqDot`]) — performs
/// **zero** heap allocations. The CI `kernel-speed` lane pins that count.
#[derive(Default)]
pub struct GmresWorkspace {
    /// The restart driver's share: residual scratch and least squares.
    sk: Skeleton,
    w: Vec<f64>,
    zk: Vec<f64>,
    /// Arnoldi basis pool (`m + 1` vectors at steady state).
    v: Vec<Vec<f64>>,
    /// Preconditioned directions `z_k = M⁻¹ v_k` (right preconditioning).
    z: Vec<Vec<f64>>,
    locals: Vec<f64>,
    dots: Vec<f64>,
}

impl GmresWorkspace {
    pub fn new() -> Self {
        Self::default()
    }

    /// Size every buffer for dimension `n` and restart length `m`.
    fn prepare(&mut self, n: usize, m: usize) {
        self.sk.prepare(n, m);
        self.w.resize(n, 0.0);
        self.zk.resize(n, 0.0);
        // Basis vectors of a previous, differently-sized solve cannot be
        // reused in place.
        self.v.retain(|p| p.len() == n);
        self.z.retain(|p| p.len() == n);
        self.locals.resize(m + 1, 0.0);
        self.dots.resize(m + 1, 0.0);
    }
}

/// Write `src` into slot `idx` of a basis pool, allocating only when the
/// pool has never held that many vectors.
fn pool_set(pool: &mut Vec<Vec<f64>>, idx: usize, src: &[f64]) {
    if idx < pool.len() {
        pool[idx].copy_from_slice(src);
    } else {
        debug_assert_eq!(idx, pool.len());
        pool.push(src.to_vec());
    }
}

/// Fallible, checkpointable GMRES: identical numerics to [`gmres`], but
/// operator/preconditioner/inner-product failures surface as
/// [`SolveInterrupt`] instead of panicking, and an optional
/// [`CheckpointCfg`] snapshots the iterate every `interval` iterations
/// (and resumes a previously interrupted solve against its original
/// residual anchor). Allocates a fresh [`GmresWorkspace`]; hot callers use
/// [`try_gmres_with`] to amortize it.
pub fn try_gmres<O, M, P>(
    op: &O,
    precond: &M,
    ip: &P,
    b: &[f64],
    x0: &[f64],
    opts: &GmresOpts,
    ckpt: Option<&CheckpointCfg<'_>>,
) -> Result<SolveResult, SolveInterrupt>
where
    O: Operator + ?Sized,
    M: Preconditioner + ?Sized,
    P: InnerProduct + ?Sized,
{
    let mut ws = GmresWorkspace::new();
    try_gmres_with(op, precond, ip, b, x0, opts, ckpt, &mut ws)
}

/// [`try_gmres`] against a caller-owned [`GmresWorkspace`] — bitwise
/// identical results, but a warmed-up workspace makes the inner loop
/// allocation-free (see [`GmresWorkspace`]).
///
/// The classical Arnoldi process on the shared restart driver
/// (`restart::solve`): one operator and one preconditioner application,
/// the orthogonalization [`GmresOpts::ortho`] names and one normalization
/// per iteration.
#[allow(clippy::too_many_arguments)]
pub fn try_gmres_with<O, M, P>(
    op: &O,
    precond: &M,
    ip: &P,
    b: &[f64],
    x0: &[f64],
    opts: &GmresOpts,
    ckpt: Option<&CheckpointCfg<'_>>,
    ws: &mut GmresWorkspace,
) -> Result<SolveResult, SolveInterrupt>
where
    O: Operator + ?Sized,
    M: Preconditioner + ?Sized,
    P: InnerProduct + ?Sized,
{
    let m = opts.restart.max(1);
    ws.prepare(op.dim(), m);
    let GmresWorkspace {
        sk,
        w,
        zk,
        v,
        z: zbasis,
        locals,
        dots,
    } = ws;
    let right = matches!(opts.side, Side::Right);
    // The residual is the true one (right) or the preconditioned one (left).
    let left = (!right).then_some(precond);
    restart::solve(op, left, ip, b, x0, opts, ckpt, sk, |run, r, beta| {
        // Arnoldi basis (m+1 pool vectors max); right preconditioning also
        // keeps the preconditioned directions `z_k = M⁻¹ v_k` so the final
        // update x += Z y needs no extra preconditioner application. Only
        // the first `nv` pool slots hold this cycle's basis.
        pool_set(v, 0, r);
        vector::scal(1.0 / beta, &mut v[0]);
        let mut nv = 1usize;
        // Every buffer below is reused from the workspace, so no allocation
        // is allowed per iteration.
        for k in 0..m {
            if !run.next_iteration(ip) {
                break;
            }
            w.fill(0.0);
            if right {
                // w = A M⁻¹ v_k
                zk.fill(0.0);
                precond.try_apply(&v[k], zk)?;
                op.try_apply(zk, w)?;
                pool_set(zbasis, k, zk);
            } else {
                // w = M⁻¹ A v_k
                op.try_apply(&v[k], zk)?;
                precond.try_apply(zk, w)?;
            }
            // Orthogonalize.
            let h = run.h();
            match opts.ortho {
                Ortho::Mgs => {
                    for (j, vj) in v[..nv].iter().enumerate() {
                        let hjk = ip.try_dot(w, vj)?;
                        vector::axpy(-hjk, vj, w);
                        h[(j, k)] = hjk;
                    }
                }
                Ortho::Cgs | Ortho::Cgs2 => {
                    // Batched Gram reduction(s).
                    let passes = if matches!(opts.ortho, Ortho::Cgs2) {
                        2
                    } else {
                        1
                    };
                    for j in 0..=k {
                        h[(j, k)] = 0.0;
                    }
                    for _ in 0..passes {
                        // One panel pass for the Gram row, one for the
                        // update w −= Σ h_j v_j: the bits of the per-vector
                        // loops (DESIGN.md, "orthogonalisation in panels").
                        ip.local_dots(w, &v[..nv], &mut locals[..nv]);
                        ip.try_reduce_into(&locals[..nv], &mut dots[..nv])?;
                        for (j, hjk) in dots[..nv].iter_mut().enumerate() {
                            h[(j, k)] += *hjk;
                            *hjk = -*hjk;
                        }
                        vector::axpy_many(&dots[..nv], &v[..nv], w);
                    }
                }
            }
            let hk1 = ip.try_norm(w)?;
            if !hk1.is_finite() {
                // Non-finite Arnoldi column (NaN from the operator or
                // preconditioner, or lost orthogonality blowing up the
                // norm): discard this column and end the cycle.
                run.discard_column();
                break;
            }
            h[(k + 1, k)] = hk1;
            let dirs = if right { &zbasis[..=k] } else { &v[..=k] };
            if !run.push_column(k, dirs) {
                break;
            }
            vector::scal(1.0 / hk1, w);
            pool_set(v, k + 1, w);
            nv = k + 2;
        }
        Ok(run.update(if right { zbasis } else { v }))
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::checkpoint::{CheckpointSink, SolveCheckpoint};
    use crate::operator::{FnPrecond, IdentityPrecond, SeqDot};
    use dd_linalg::{CooBuilder, CsrMatrix};
    use std::cell::{Cell, RefCell};

    pub(crate) struct VecSink(pub RefCell<Vec<SolveCheckpoint>>);

    impl VecSink {
        pub(crate) fn new() -> Self {
            VecSink(RefCell::new(Vec::new()))
        }
    }

    impl CheckpointSink for VecSink {
        fn save(&self, checkpoint: SolveCheckpoint) {
            self.0.borrow_mut().push(checkpoint);
        }
    }

    /// The error [`FailAfter`] dies of, for callers to downcast.
    #[derive(Debug)]
    pub(crate) struct BudgetExhausted;

    impl std::fmt::Display for BudgetExhausted {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "budget exhausted")
        }
    }

    impl std::error::Error for BudgetExhausted {}

    /// Operator whose fallible path dies after a budget of applications —
    /// a stand-in for a halo exchange hitting a dead rank.
    pub(crate) struct FailAfter<'a> {
        pub inner: &'a CsrMatrix,
        pub budget: Cell<usize>,
    }

    impl Operator for FailAfter<'_> {
        fn dim(&self) -> usize {
            self.inner.rows()
        }

        fn apply(&self, x: &[f64], y: &mut [f64]) {
            self.inner.spmv(x, y);
        }

        fn try_apply(&self, x: &[f64], y: &mut [f64]) -> Result<(), SolveInterrupt> {
            if self.budget.get() == 0 {
                return Err(SolveInterrupt::with_source(
                    "operator budget exhausted",
                    Box::new(BudgetExhausted),
                ));
            }
            self.budget.set(self.budget.get() - 1);
            self.inner.spmv(x, y);
            Ok(())
        }
    }

    /// Operator that silently scales the output of exactly one application
    /// (the `at`-th, 0-based) — a deterministic stand-in for silent data
    /// corruption baking itself into the Krylov basis. Clean before and
    /// after, so a rolled-back replay sees a healthy operator.
    pub(crate) struct CorruptOnce<'a> {
        pub inner: &'a CsrMatrix,
        pub at: usize,
        pub scale: f64,
        pub count: Cell<usize>,
    }

    impl Operator for CorruptOnce<'_> {
        fn dim(&self) -> usize {
            self.inner.rows()
        }

        fn apply(&self, x: &[f64], y: &mut [f64]) {
            self.inner.spmv(x, y);
            let k = self.count.get();
            self.count.set(k + 1);
            if k == self.at {
                vector::scal(self.scale, y);
            }
        }
    }

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

    fn residual(a: &CsrMatrix, x: &[f64], b: &[f64]) -> f64 {
        let mut ax = vec![0.0; b.len()];
        a.spmv(x, &mut ax);
        vector::dist2(&ax, b) / vector::norm2(b)
    }

    #[test]
    fn solves_spd_unpreconditioned() {
        let a = laplacian_2d(10, 10);
        let n = a.rows();
        let b: Vec<f64> = (0..n).map(|i| ((i * 13) % 7) as f64 - 3.0).collect();
        let x0 = vec![0.0; n];
        let opts = GmresOpts {
            tol: 1e-10,
            ..Default::default()
        };
        let res = gmres(&a, &IdentityPrecond, &SeqDot, &b, &x0, &opts);
        assert!(res.converged, "not converged: {}", res.final_residual);
        assert!(residual(&a, &res.x, &b) < 1e-8);
    }

    #[test]
    fn mgs_and_cgs_agree() {
        let a = laplacian_2d(8, 8);
        let n = a.rows();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let x0 = vec![0.0; n];
        let mut o1 = GmresOpts {
            tol: 1e-12,
            ..Default::default()
        };
        o1.ortho = Ortho::Mgs;
        let mut o2 = o1.clone();
        o2.ortho = Ortho::Cgs;
        let r1 = gmres(&a, &IdentityPrecond, &SeqDot, &b, &x0, &o1);
        let r2 = gmres(&a, &IdentityPrecond, &SeqDot, &b, &x0, &o2);
        assert!(r1.converged && r2.converged);
        assert!(vector::dist2(&r1.x, &r2.x) < 1e-7 * vector::norm2(&r1.x));
        // iteration counts within 2 of each other
        assert!((r1.iterations as i64 - r2.iterations as i64).abs() <= 2);
    }

    #[test]
    fn restart_still_converges() {
        let a = laplacian_2d(12, 12);
        let n = a.rows();
        let b = vec![1.0; n];
        let x0 = vec![0.0; n];
        let opts = GmresOpts {
            restart: 10,
            tol: 1e-8,
            max_iters: 2000,
            ..Default::default()
        };
        let res = gmres(&a, &IdentityPrecond, &SeqDot, &b, &x0, &opts);
        assert!(res.converged);
        assert!(residual(&a, &res.x, &b) < 1e-6);
    }

    #[test]
    fn jacobi_preconditioning_reduces_iterations() {
        // Badly scaled diagonal: unpreconditioned GMRES struggles, Jacobi
        // fixes the scaling.
        let n = 60;
        let mut c = CooBuilder::new(n, n);
        for i in 0..n {
            let d = 10f64.powi((i % 5) as i32);
            c.push(i, i, d);
            if i + 1 < n {
                c.push(i, i + 1, 0.1);
                c.push(i + 1, i, 0.1);
            }
        }
        let a = c.to_csr();
        let b = vec![1.0; n];
        let x0 = vec![0.0; n];
        let opts = GmresOpts {
            tol: 1e-8,
            max_iters: 300,
            ..Default::default()
        };
        let diag = a.diag();
        let jacobi = FnPrecond::new(move |r: &[f64], z: &mut [f64]| {
            for i in 0..r.len() {
                z[i] = r[i] / diag[i];
            }
        });
        let plain = gmres(&a, &IdentityPrecond, &SeqDot, &b, &x0, &opts);
        let pc = gmres(&a, &jacobi, &SeqDot, &b, &x0, &opts);
        assert!(pc.converged);
        assert!(
            pc.iterations < plain.iterations,
            "jacobi {} !< plain {}",
            pc.iterations,
            plain.iterations
        );
        assert!(residual(&a, &pc.x, &b) < 1e-6);
    }

    #[test]
    fn history_is_monotone_enough_and_final_matches() {
        let a = laplacian_2d(6, 6);
        let n = a.rows();
        let b = vec![1.0; n];
        let res = gmres(
            &a,
            &IdentityPrecond,
            &SeqDot,
            &b,
            &vec![0.0; n],
            &GmresOpts::default(),
        );
        // GMRES residuals are non-increasing within a cycle.
        for w in res.history.windows(2) {
            assert!(w[1] <= w[0] * (1.0 + 1e-12));
        }
        assert_eq!(res.history.len(), res.iterations + 1);
    }

    #[test]
    fn left_and_right_preconditioning_agree() {
        let a = laplacian_2d(9, 7);
        let n = a.rows();
        let b: Vec<f64> = (0..n).map(|i| ((i % 9) as f64) - 4.0).collect();
        let diag = a.diag();
        let jacobi = FnPrecond::new(move |r: &[f64], z: &mut [f64]| {
            for i in 0..r.len() {
                z[i] = r[i] / diag[i];
            }
        });
        let mut left = GmresOpts {
            tol: 1e-10,
            ..Default::default()
        };
        left.side = Side::Left;
        let mut right = left.clone();
        right.side = Side::Right;
        let rl = gmres(&a, &jacobi, &SeqDot, &b, &vec![0.0; n], &left);
        let rr = gmres(&a, &jacobi, &SeqDot, &b, &vec![0.0; n], &right);
        assert!(rl.converged && rr.converged);
        assert!(vector::dist2(&rl.x, &rr.x) < 1e-6 * vector::norm2(&rl.x));
    }

    #[test]
    fn right_preconditioning_tracks_true_residual() {
        let a = laplacian_2d(8, 8);
        let n = a.rows();
        let b = vec![1.0; n];
        let diag = a.diag();
        let jacobi = FnPrecond::new(move |r: &[f64], z: &mut [f64]| {
            for i in 0..r.len() {
                z[i] = r[i] / diag[i];
            }
        });
        let res = gmres(
            &a,
            &jacobi,
            &SeqDot,
            &b,
            &vec![0.0; n],
            &GmresOpts {
                tol: 1e-8,
                side: Side::Right,
                ..Default::default()
            },
        );
        assert!(res.converged);
        // The reported estimate must match the actual true residual.
        let mut ax = vec![0.0; n];
        a.spmv(&res.x, &mut ax);
        let actual = vector::dist2(&ax, &b) / vector::norm2(&b);
        assert!(
            (actual - res.final_residual).abs() < 1e-7,
            "estimate {} vs actual {actual}",
            res.final_residual
        );
    }

    #[test]
    fn cgs2_matches_mgs_on_ill_conditioned() {
        // Badly scaled SPD system where plain CGS loses orthogonality.
        let n = 50;
        let mut c = CooBuilder::new(n, n);
        for i in 0..n {
            c.push(i, i, 10f64.powi((i % 7) as i32));
            if i + 1 < n {
                c.push(i, i + 1, 1.0);
                c.push(i + 1, i, 1.0);
            }
        }
        let a = c.to_csr();
        let b = vec![1.0; n];
        let mk = |ortho: Ortho| GmresOpts {
            tol: 1e-10,
            max_iters: 300,
            ortho,
            record_history: false,
            ..Default::default()
        };
        let r2 = gmres(
            &a,
            &IdentityPrecond,
            &SeqDot,
            &b,
            &vec![0.0; n],
            &mk(Ortho::Cgs2),
        );
        let rm = gmres(
            &a,
            &IdentityPrecond,
            &SeqDot,
            &b,
            &vec![0.0; n],
            &mk(Ortho::Mgs),
        );
        assert!(r2.converged && rm.converged);
        assert!(
            (r2.iterations as i64 - rm.iterations as i64).abs() <= 3,
            "CGS2 {} vs MGS {}",
            r2.iterations,
            rm.iterations
        );
    }

    #[test]
    fn zero_rhs_returns_immediately() {
        let a = laplacian_2d(4, 4);
        let n = a.rows();
        let res = gmres(
            &a,
            &IdentityPrecond,
            &SeqDot,
            &vec![0.0; n],
            &vec![0.0; n],
            &GmresOpts::default(),
        );
        assert!(res.converged);
        assert_eq!(res.iterations, 0);
    }

    #[test]
    fn nan_preconditioner_reports_breakdown() {
        let a = laplacian_2d(5, 5);
        let n = a.rows();
        let nan = FnPrecond::new(|_r: &[f64], z: &mut [f64]| z.fill(f64::NAN));
        let res = gmres(
            &a,
            &nan,
            &SeqDot,
            &vec![1.0; n],
            &vec![0.0; n],
            &GmresOpts::default(),
        );
        assert!(!res.converged);
        assert_eq!(res.status, SolveStatus::Breakdown);
        assert_eq!(res.breakdown_restarts, 1);
        // The iterate must never be poisoned by the NaN columns.
        assert!(res.x.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn zero_preconditioner_is_breakdown_not_false_convergence() {
        let a = laplacian_2d(5, 5);
        let n = a.rows();
        let zero = FnPrecond::new(|_r: &[f64], z: &mut [f64]| z.fill(0.0));
        let res = gmres(
            &a,
            &zero,
            &SeqDot,
            &vec![1.0; n],
            &vec![0.0; n],
            &GmresOpts::default(),
        );
        assert!(!res.converged);
        assert_eq!(res.status, SolveStatus::Breakdown);
    }

    #[test]
    fn stagnation_triggers_breakdown_after_one_restart() {
        // Circulant shift: the GMRES residual with b = e₁ stays exactly 1
        // until iteration n — flat far past the stall limit.
        let n = 80;
        let mut c = CooBuilder::new(n, n);
        for i in 0..n {
            c.push((i + 1) % n, i, 1.0);
        }
        let a = c.to_csr();
        let mut b = vec![0.0; n];
        b[0] = 1.0;
        let res = gmres(
            &a,
            &IdentityPrecond,
            &SeqDot,
            &b,
            &vec![0.0; n],
            &GmresOpts::default(),
        );
        assert_eq!(res.status, SolveStatus::Breakdown);
        assert_eq!(res.breakdown_restarts, 1);
    }

    #[test]
    fn checkpoints_fire_on_interval_with_consistent_state() {
        let a = laplacian_2d(10, 10);
        let n = a.rows();
        let b: Vec<f64> = (0..n).map(|i| ((i * 7) % 5) as f64 - 2.0).collect();
        let sink = VecSink::new();
        let cfg = CheckpointCfg::new(5, &sink);
        let opts = GmresOpts {
            tol: 1e-10,
            ..Default::default()
        };
        let res = try_gmres(
            &a,
            &IdentityPrecond,
            &SeqDot,
            &b,
            &vec![0.0; n],
            &opts,
            Some(&cfg),
        )
        .unwrap();
        assert!(res.converged);
        let saved = sink.0.borrow();
        assert!(saved.len() >= 2, "expected several snapshots");
        for cp in saved.iter() {
            assert_eq!(cp.iteration % 5, 0);
            assert_eq!(cp.history.len(), cp.iteration + 1);
            assert_eq!(cp.history[cp.iteration], cp.residual);
            assert!(cp.x.iter().all(|v| v.is_finite()));
            assert!(cp.r0_norm > 0.0);
        }
        // Snapshot iterates must actually be the mid-solve iterates: the
        // materialized x at a checkpoint has the residual the history
        // recorded for that iteration (right preconditioning tracks the
        // true residual).
        let cp = saved.last().unwrap();
        let mut ax = vec![0.0; n];
        a.spmv(&cp.x, &mut ax);
        let actual = vector::dist2(&ax, &b) / vector::norm2(&b);
        assert!(
            (actual - cp.residual).abs() < 1e-8,
            "snapshot residual {} vs actual {actual}",
            cp.residual
        );
    }

    #[test]
    fn interrupted_solve_resumes_from_checkpoint_to_same_tolerance() {
        let a = laplacian_2d(12, 12);
        let n = a.rows();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.23).sin()).collect();
        let opts = GmresOpts {
            tol: 1e-8,
            max_iters: 2000,
            ..Default::default()
        };
        let clean = gmres(&a, &IdentityPrecond, &SeqDot, &b, &vec![0.0; n], &opts);
        assert!(clean.converged);

        // Kill the operator mid-solve; the last checkpoint survives.
        let failing = FailAfter {
            inner: &a,
            budget: Cell::new(12),
        };
        let sink = VecSink::new();
        let cfg = CheckpointCfg::new(3, &sink);
        let err = try_gmres(
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

        // Resume on the healthy operator from the snapshot.
        let sink2 = VecSink::new();
        let cfg2 = CheckpointCfg::resuming(1000, &sink2, cp);
        let res = try_gmres(
            &a,
            &IdentityPrecond,
            &SeqDot,
            &b,
            &vec![0.0; n],
            &opts,
            Some(&cfg2),
        )
        .unwrap();
        assert!(res.converged, "resumed solve must converge");
        assert!(
            res.iterations > resume_iter,
            "iteration count is cumulative"
        );
        assert_eq!(res.history.len(), res.iterations + 1);
        // Same tolerance as the fault-free solve: the resumed run is
        // anchored to the original ‖r₀‖, so its true residual matches.
        assert!(residual(&a, &res.x, &b) <= residual(&a, &clean.x, &b) * 10.0 + 1e-12);
        assert!(residual(&a, &res.x, &b) < 1e-6);
    }

    /// One of this crate's restarted-GMRES loops, unpreconditioned and
    /// sequential, for the properties the shared driver gives all of them.
    pub(crate) type Loop<'a> =
        &'a dyn Fn(&dyn Operator, &[f64], &GmresOpts) -> Result<SolveResult, SolveInterrupt>;

    /// An armed guard accepts a clean solve, with the iterates of the
    /// unguarded one.
    pub(crate) fn check_guard_confirms_clean_convergence(solve: Loop<'_>, tol: f64) {
        let a = laplacian_2d(10, 10);
        let n = a.rows();
        let b: Vec<f64> = (0..n).map(|i| ((i * 13) % 7) as f64 - 3.0).collect();
        let off = GmresOpts {
            tol,
            ..Default::default()
        };
        let on = GmresOpts {
            guard: Some(SdcGuard::default()),
            ..off.clone()
        };
        let r_off = solve(&a, &b, &off).unwrap();
        let r_on = solve(&a, &b, &on).unwrap();
        assert!(r_off.converged && r_on.converged);
        // The guard changes *when* convergence is accepted, never the
        // iterates: same x bitwise, same iteration count.
        assert_eq!(r_off.x, r_on.x);
        assert_eq!(r_off.iterations, r_on.iterations);
        // The guarded final residual is the recomputed (verified) one.
        assert!((residual(&a, &r_on.x, &b) - r_on.final_residual).abs() < 1e-9);
    }

    /// An armed guard turns a false convergence on an operator whose
    /// `at`-th product is corrupted into the typed interrupt.
    pub(crate) fn check_guard_flags_corrupted_operator(solve: Loop<'_>, tol: f64, at: usize) {
        let a = laplacian_2d(10, 10);
        let n = a.rows();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() + 1.0).collect();
        let mk = || CorruptOnce {
            inner: &a,
            at,
            scale: 2.0,
            count: Cell::new(0),
        };
        let off = GmresOpts {
            tol,
            ..Default::default()
        };
        // Unguarded: the recurred residual converges on a poisoned basis
        // and the solver silently returns a wrong answer.
        let silent = solve(&mk(), &b, &off).unwrap();
        assert!(silent.converged, "baseline silently false-converges");
        assert!(
            residual(&a, &silent.x, &b) > 1e-6,
            "unguarded answer should actually be wrong: {}",
            residual(&a, &silent.x, &b)
        );
        // Guarded: the recomputed residual disagrees with the recurred
        // claim and a typed, downcastable interrupt surfaces.
        let on = GmresOpts {
            guard: Some(SdcGuard::default()),
            ..off
        };
        let err = solve(&mk(), &b, &on).unwrap_err();
        let sdc = err.sdc().expect("interrupt must carry the SDC marker");
        assert!(
            sdc.recomputed > sdc.recurred,
            "recomputed {} vs recurred {}",
            sdc.recomputed,
            sdc.recurred
        );
        assert!(err.reason().contains("silent data corruption"));
    }

    fn classical(
        op: &dyn Operator,
        b: &[f64],
        opts: &GmresOpts,
    ) -> Result<SolveResult, SolveInterrupt> {
        try_gmres(
            op,
            &IdentityPrecond,
            &SeqDot,
            b,
            &vec![0.0; b.len()],
            opts,
            None,
        )
    }

    #[test]
    fn guard_confirms_clean_convergence_with_identical_iterates() {
        check_guard_confirms_clean_convergence(&classical, 1e-10);
    }

    #[test]
    fn guard_flags_corrupted_operator_instead_of_false_convergence() {
        check_guard_flags_corrupted_operator(&classical, 1e-10, 10);
    }

    #[test]
    fn guarded_solve_replays_from_checkpoint_to_fault_free_answer() {
        // The full recovery loop in miniature: guarded solve trips on
        // corruption, the caller rolls back to the newest checkpoint, and
        // the replay (operator healthy again — the flip was transient)
        // matches the fault-free answer to tight tolerance.
        let a = laplacian_2d(12, 12);
        let n = a.rows();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.23).sin()).collect();
        let opts = GmresOpts {
            tol: 1e-10,
            max_iters: 2000,
            guard: Some(SdcGuard::default()),
            ..Default::default()
        };
        let clean = gmres(&a, &IdentityPrecond, &SeqDot, &b, &vec![0.0; n], &opts);
        assert!(clean.converged);

        let corrupt = CorruptOnce {
            inner: &a,
            at: 15,
            scale: 2.0,
            count: Cell::new(0),
        };
        let sink = VecSink::new();
        let cfg = CheckpointCfg::new(4, &sink);
        let err = try_gmres(
            &corrupt,
            &IdentityPrecond,
            &SeqDot,
            &b,
            &vec![0.0; n],
            &opts,
            Some(&cfg),
        )
        .unwrap_err();
        assert!(err.sdc().is_some());

        // Roll back newest → oldest: snapshots taken after the flip carry
        // the poison, and the resumed guard may reject them too. The first
        // checkpoint that replays to verified convergence wins.
        let saved: Vec<_> = sink.0.borrow().clone();
        assert!(!saved.is_empty(), "no checkpoints to roll back to");
        let mut replayed = None;
        for cp in saved.into_iter().rev() {
            let sink2 = VecSink::new();
            let cfg2 = CheckpointCfg::resuming(1000, &sink2, cp);
            if let Ok(res) = try_gmres(
                &a,
                &IdentityPrecond,
                &SeqDot,
                &b,
                &vec![0.0; n],
                &opts,
                Some(&cfg2),
            ) {
                if res.converged {
                    replayed = Some(res);
                    break;
                }
            }
        }
        let res = replayed.expect("some checkpoint must replay to convergence");
        // Verified convergence guarantees the replayed answer is honest:
        // its true residual meets the same tolerance as the fault-free run.
        assert!(residual(&a, &res.x, &b) < 1e-9);
        assert!(
            vector::dist2(&res.x, &clean.x) < 1e-7 * vector::norm2(&clean.x).max(1.0),
            "replayed answer must match fault-free: dist {}",
            vector::dist2(&res.x, &clean.x)
        );
    }

    #[test]
    fn nonzero_initial_guess() {
        let a = laplacian_2d(7, 5);
        let n = a.rows();
        let xref: Vec<f64> = (0..n).map(|i| (i as f64 * 0.1).cos()).collect();
        let mut b = vec![0.0; n];
        a.spmv(&xref, &mut b);
        // Start close to the solution: should converge in few iterations.
        let mut x0 = xref.clone();
        x0[0] += 0.01;
        let res = gmres(
            &a,
            &IdentityPrecond,
            &SeqDot,
            &b,
            &x0,
            &GmresOpts::default(),
        );
        assert!(res.converged);
        assert!(res.iterations < 20);
        assert!(vector::dist2(&res.x, &xref) < 1e-5);
    }
}
