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
//!
//! [`try_gmres_panel`] runs `k` right-hand sides as `k` recurrences over
//! one Arnoldi loop: each step applies the operator and the preconditioner
//! once to all of them and every reduction carries all of them, while each
//! column's arithmetic stays its own, so every column is its one-column
//! solve to the bit. [`try_gmres_with`] is the one-column call.

use crate::checkpoint::CheckpointCfg;
use crate::operator::{InnerProduct, Operator, Preconditioner, SolveInterrupt};
use crate::recycle::RecycleSpace;
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

/// Options for [`try_gmres`] and the pipelined loops
/// ([`crate::pipelined_gmres_panel`], [`crate::fused_pipelined_gmres_panel`]). Every
/// loop reads `tol`, `max_iters`, `record_history` and `guard`, which live
/// in the restart driver they share.
#[derive(Clone, Debug)]
pub struct GmresOpts {
    /// Restart length `m` (the pipelined loops run at least 2).
    pub restart: usize,
    /// Relative residual tolerance: on the true residual under
    /// [`Side::Right`], on the preconditioned one under [`Side::Left`] (and
    /// in the pipelined loops), relative to that residual at `x0` — at the
    /// original solve's `x0` when resuming a checkpoint, and before any
    /// recycle-space correction.
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
    /// Relative residual at each iteration — true under [`Side::Right`],
    /// preconditioned under [`Side::Left`] and in the pipelined loops —
    /// starting with iteration 0 (the initial residual, = 1).
    pub history: Vec<f64>,
    /// Final relative residual estimate.
    pub final_residual: f64,
    /// Why the solve stopped.
    pub status: SolveStatus,
    /// Restarts taken in response to detected breakdowns (at most one: a
    /// second breakdown surfaces as [`SolveStatus::Breakdown`]).
    pub breakdown_restarts: usize,
}

/// Reusable buffers for [`try_gmres_with`] and [`try_gmres_panel`]: per
/// column the Arnoldi basis pool and the Hessenberg matrix, and every
/// scratch vector of the inner loop.
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
    /// Per column: the Arnoldi basis pool (`m + 1` vectors at steady state)
    /// and the preconditioned directions `z_k = M⁻¹ v_k` (right
    /// preconditioning).
    bases: Vec<Bases>,
    /// A step's panels: the basis vectors in, `z` and `w` out.
    pv: Vec<f64>,
    pz: Vec<f64>,
    pw: Vec<f64>,
    locals: Vec<f64>,
    dots: Vec<f64>,
    /// The columns still stepping in a cycle.
    live: Vec<usize>,
}

impl GmresWorkspace {
    pub fn new() -> Self {
        Self::default()
    }

    /// Size every buffer for `k` columns of dimension `n` and restart
    /// length `m`.
    fn prepare(&mut self, n: usize, m: usize, k: usize) {
        self.sk.prepare(n, m, k);
        self.bases.resize_with(k, Default::default);
        for (v, z) in &mut self.bases {
            // Basis vectors of a previous, differently-sized solve cannot be
            // reused in place.
            v.retain(|p| p.len() == n);
            z.retain(|p| p.len() == n);
        }
        for p in [&mut self.pv, &mut self.pz, &mut self.pw] {
            p.resize(k * n, 0.0);
        }
        self.locals.resize(k * (m + 1), 0.0);
        self.dots.resize(k * (m + 1), 0.0);
        self.live.reserve(k);
    }
}

/// One column's Arnoldi basis pool and preconditioned directions.
type Bases = (Vec<Vec<f64>>, Vec<Vec<f64>>);

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

/// Solve `A x = b` with restarted, preconditioned GMRES. Operator,
/// preconditioner and inner-product failures surface as [`SolveInterrupt`],
/// and an optional [`CheckpointCfg`] snapshots the iterate every `interval`
/// iterations (and resumes a previously interrupted solve against its
/// original residual anchor). Allocates a fresh [`GmresWorkspace`]; hot
/// callers use [`try_gmres_with`] to amortize it, and to pass a
/// [`RecycleSpace`]. Kept beside [`try_gmres_panel`] because the repository
/// benchmark calls it.
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
    O: Operator,
    M: Preconditioner + ?Sized,
    P: InnerProduct + ?Sized,
{
    let mut ws = GmresWorkspace::new();
    try_gmres_with(op, precond, ip, b, x0, opts, ckpt, None, &mut ws)
}

/// [`try_gmres`] against a caller-owned [`GmresWorkspace`] — bitwise
/// identical results, but a warmed-up workspace makes the inner loop
/// allocation-free (see [`GmresWorkspace`]) — and with an optional
/// [`RecycleSpace`]: the start is corrected over its banked directions and
/// the solve's increment is banked at exit, while the target stays `tol ×`
/// the residual at `x0`. The one-column call of [`try_gmres_panel`], kept
/// because a panel call allocates its result `Vec` and `kernel_bench`'s
/// warm-allocation rows count this entry's.
#[allow(clippy::too_many_arguments)]
pub fn try_gmres_with<O, M, P>(
    op: &O,
    precond: &M,
    ip: &P,
    b: &[f64],
    x0: &[f64],
    opts: &GmresOpts,
    ckpt: Option<&CheckpointCfg<'_>>,
    recycle: Option<&mut RecycleSpace>,
    ws: &mut GmresWorkspace,
) -> Result<SolveResult, SolveInterrupt>
where
    O: Operator,
    M: Preconditioner + ?Sized,
    P: InnerProduct + ?Sized,
{
    let mut out = None;
    let emit = |r| out = Some(r);
    classical(op, precond, ip, b, x0, 1, opts, ckpt, recycle, ws, emit)?;
    Ok(out.expect("one column, one result"))
}

/// GMRES for `k` right-hand sides at once — the columns of `b` and `x0`,
/// one after another: `k` recurrences that share every application and
/// every reduction, each column equal to its one-column solve
/// ([`try_gmres_with`]) to the bit. A checkpoint (`ckpt`) belongs to one
/// column. A recycle space corrects every column from the directions it
/// holds at entry and banks their increments at exit, in column order.
///
/// The classical Arnoldi process on the shared restart driver
/// (`restart::solve`), over the panel of columns still in their first
/// cycle: per step one operator-and-preconditioner application for all of
/// them, the orthogonalization [`GmresOpts::ortho`] names with each of its
/// reductions carrying every column, and one normalization reduction. A
/// column leaves the panel when its cycle ends — converged, broken down,
/// stalled or out of budget — and one that has not converged then goes on
/// alone. Right-preconditioned, the two applications are one call of
/// [`Preconditioner::try_apply_panel_with_op`], which is why the operator
/// must be sized: it is handed over as a `&dyn Operator`.
#[allow(clippy::too_many_arguments)]
pub fn try_gmres_panel<O, M, P>(
    op: &O,
    precond: &M,
    ip: &P,
    b: &[f64],
    x0: &[f64],
    k: usize,
    opts: &GmresOpts,
    ckpt: Option<&CheckpointCfg<'_>>,
    recycle: Option<&mut RecycleSpace>,
    ws: &mut GmresWorkspace,
) -> Result<Vec<SolveResult>, SolveInterrupt>
where
    O: Operator,
    M: Preconditioner + ?Sized,
    P: InnerProduct + ?Sized,
{
    let mut out = Vec::with_capacity(k);
    let emit = |r| out.push(r);
    classical(op, precond, ip, b, x0, k, opts, ckpt, recycle, ws, emit)?;
    Ok(out)
}

/// The classical Arnoldi body on the restart driver, each column's result
/// handed to `emit` in column order.
#[allow(clippy::too_many_arguments)]
fn classical<O, M, P>(
    op: &O,
    precond: &M,
    ip: &P,
    b: &[f64],
    x0: &[f64],
    k: usize,
    opts: &GmresOpts,
    ckpt: Option<&CheckpointCfg<'_>>,
    recycle: Option<&mut RecycleSpace>,
    ws: &mut GmresWorkspace,
    emit: impl FnMut(SolveResult),
) -> Result<(), SolveInterrupt>
where
    O: Operator,
    M: Preconditioner + ?Sized,
    P: InnerProduct + ?Sized,
{
    let (n, m) = (op.dim(), opts.restart.max(1));
    ws.prepare(n, m, k);
    let GmresWorkspace {
        sk,
        bases,
        pv,
        pz,
        pw,
        locals,
        dots,
        live,
    } = ws;
    let right = matches!(opts.side, Side::Right);
    // The residual is the true one (right) or the preconditioned one (left).
    let left = (!right).then_some(precond);
    let passes = match opts.ortho {
        Ortho::Mgs => 0,
        Ortho::Cgs => 1,
        Ortho::Cgs2 => 2,
    };
    let cycle = |runs: &mut [restart::Run<'_>], active: &[usize], starts: &restart::Starts<'_>| {
        // Per column, the Arnoldi basis (m+1 pool vectors max); right
        // preconditioning also keeps the preconditioned directions
        // `z_k = M⁻¹ v_k` so the final update x += Z y needs no extra
        // preconditioner application. Only the first `nv` pool slots hold
        // this cycle's basis.
        for &c in active {
            let (rc, bc) = starts.get(c);
            let v = &mut bases[c].0;
            pool_set(v, 0, rc);
            vector::scal(1.0 / bc, &mut v[0]);
        }
        let mut nv = 1usize;
        // The columns still stepping. Every buffer below is reused from the
        // workspace, so no allocation is allowed per iteration.
        live.clear();
        live.extend_from_slice(active);
        // A column's update directions: `Z` right-preconditioned, `V` left.
        fn dirs(bases: &[Bases], col: usize, right: bool) -> &[Vec<f64>] {
            let (v, z) = &bases[col];
            if right {
                z
            } else {
                v
            }
        }
        for k in 0..m {
            // Open the iteration; its hook runs once, for the first column.
            let mut hook = true;
            live.retain(|&i| {
                let run = &mut runs[i];
                let open = if hook {
                    run.next_iteration(ip)
                } else {
                    run.next_iteration_in_panel()
                };
                hook &= !open;
                if !open {
                    run.update(dirs(bases, i, right));
                }
                open
            });
            let nl = live.len();
            if nl == 0 {
                break;
            }
            let (pv, pz, pw) = (&mut pv[..nl * n], &mut pz[..nl * n], &mut pw[..nl * n]);
            for (dst, &i) in pv.chunks_exact_mut(n.max(1)).zip(live.iter()) {
                dst.copy_from_slice(&bases[i].0[k]);
            }
            pw.fill(0.0);
            if right {
                // w = A M⁻¹ v_k, through the preconditioner's hook: one that
                // forms A z from its own pieces saves the operator apply.
                pz.fill(0.0);
                precond.try_apply_panel_with_op(op, nl, pv, pz, pw)?;
                for (zc, &i) in pz.chunks_exact(n.max(1)).zip(live.iter()) {
                    pool_set(&mut bases[i].1, k, zc);
                }
            } else {
                // w = M⁻¹ A v_k
                op.try_apply_panel(nl, pv, pz)?;
                precond.try_apply_panel(nl, pz, pw)?;
            }
            // Orthogonalize, every reduction carrying every live column.
            let w = |slot: usize| (slot * n)..((slot + 1) * n);
            if passes == 0 {
                // Modified Gram–Schmidt: one reduction per basis vector.
                for j in 0..nv {
                    for (slot, &i) in live.iter().enumerate() {
                        let vj = &bases[i].0[j];
                        locals[slot] = ip.local_dot(&pw[w(slot)], vj);
                    }
                    ip.try_reduce_into(&locals[..nl], &mut dots[..nl])?;
                    for (slot, &i) in live.iter().enumerate() {
                        let hjk = dots[slot];
                        let span = w(slot);
                        vector::axpy(-hjk, &bases[i].0[j], &mut pw[span]);
                        runs[i].h(k)[j] = hjk;
                    }
                }
            } else {
                // Classical Gram–Schmidt, `passes` batched Gram reductions.
                for &i in live.iter() {
                    runs[i].h(k)[..=k].fill(0.0);
                }
                for _ in 0..passes {
                    // One panel pass for each Gram row, one for each update
                    // w −= Σ h_j v_j: the bits of the per-vector loops
                    // (DESIGN.md, "orthogonalisation in panels").
                    for (slot, &i) in live.iter().enumerate() {
                        let v = &bases[i].0[..nv];
                        let row = &mut locals[slot * nv..(slot + 1) * nv];
                        ip.local_dots(&pw[w(slot)], v, row);
                    }
                    ip.try_reduce_into(&locals[..nl * nv], &mut dots[..nl * nv])?;
                    for (slot, &i) in live.iter().enumerate() {
                        let row = &mut dots[slot * nv..(slot + 1) * nv];
                        let h = runs[i].h(k);
                        for (hj, hjk) in h.iter_mut().zip(row.iter_mut()) {
                            *hj += *hjk;
                            *hjk = -*hjk;
                        }
                        let span = w(slot);
                        vector::axpy_many(row, &bases[i].0[..nv], &mut pw[span]);
                    }
                }
            }
            for slot in 0..nl {
                let wc = &pw[w(slot)];
                locals[slot] = ip.local_dot(wc, wc);
            }
            ip.try_reduce_into(&locals[..nl], &mut dots[..nl])?;
            let mut slot = 0;
            live.retain(|&i| {
                let (d, span) = (dots[slot], w(slot));
                slot += 1;
                // What `try_norm` makes of the reduced square.
                let hk1 = if d.is_nan() { d } else { d.max(0.0).sqrt() };
                let run = &mut runs[i];
                if !hk1.is_finite() {
                    // Non-finite Arnoldi column (NaN from the operator or
                    // preconditioner, or lost orthogonality blowing up the
                    // norm): discard this column and end the cycle.
                    run.discard_column();
                    run.update(dirs(bases, i, right));
                    return false;
                }
                run.h(k)[k + 1] = hk1;
                if !run.push_column(k, &dirs(bases, i, right)[..=k]) {
                    run.update(dirs(bases, i, right));
                    return false;
                }
                let wc = &mut pw[span];
                vector::scal(1.0 / hk1, wc);
                pool_set(&mut bases[i].0, k + 1, wc);
                true
            });
            nv = k + 2;
        }
        for &i in live.iter() {
            runs[i].update(dirs(bases, i, right));
        }
        Ok(())
    };
    restart::solve(
        op, left, ip, b, x0, k, opts, ckpt, recycle, sk, true, cycle, emit,
    )
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

        /// One application of the budget per column.
        fn try_apply_panel(
            &self,
            k: usize,
            x: &[f64],
            y: &mut [f64],
        ) -> Result<(), SolveInterrupt> {
            let n = x.len() / k;
            for (x, y) in x.chunks(n).zip(y.chunks_mut(n)) {
                if self.budget.get() == 0 {
                    return Err(SolveInterrupt::with_source(
                        "operator budget exhausted",
                        Box::new(BudgetExhausted),
                    ));
                }
                self.budget.set(self.budget.get() - 1);
                self.inner.spmv(x, y);
            }
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

    pub(crate) fn laplacian_2d(nx: usize, ny: usize) -> CsrMatrix {
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

    /// `‖b − A x‖ / ‖b‖`.
    pub(crate) fn residual(a: &CsrMatrix, x: &[f64], b: &[f64]) -> f64 {
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
        let res = try_gmres(&a, &IdentityPrecond, &SeqDot, &b, &x0, &opts, None).unwrap();
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
        let r1 = try_gmres(&a, &IdentityPrecond, &SeqDot, &b, &x0, &o1, None).unwrap();
        let r2 = try_gmres(&a, &IdentityPrecond, &SeqDot, &b, &x0, &o2, None).unwrap();
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
        let res = try_gmres(&a, &IdentityPrecond, &SeqDot, &b, &x0, &opts, None).unwrap();
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
        let plain = try_gmres(&a, &IdentityPrecond, &SeqDot, &b, &x0, &opts, None).unwrap();
        let pc = try_gmres(&a, &jacobi, &SeqDot, &b, &x0, &opts, None).unwrap();
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
        let res = try_gmres(
            &a,
            &IdentityPrecond,
            &SeqDot,
            &b,
            &vec![0.0; n],
            &GmresOpts::default(),
            None,
        )
        .unwrap();
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
        let rl = try_gmres(&a, &jacobi, &SeqDot, &b, &vec![0.0; n], &left, None).unwrap();
        let rr = try_gmres(&a, &jacobi, &SeqDot, &b, &vec![0.0; n], &right, None).unwrap();
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
        let res = try_gmres(
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
            None,
        )
        .unwrap();
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
        let r2 = try_gmres(
            &a,
            &IdentityPrecond,
            &SeqDot,
            &b,
            &vec![0.0; n],
            &mk(Ortho::Cgs2),
            None,
        )
        .unwrap();
        let rm = try_gmres(
            &a,
            &IdentityPrecond,
            &SeqDot,
            &b,
            &vec![0.0; n],
            &mk(Ortho::Mgs),
            None,
        )
        .unwrap();
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
        let res = try_gmres(
            &a,
            &IdentityPrecond,
            &SeqDot,
            &vec![0.0; n],
            &vec![0.0; n],
            &GmresOpts::default(),
            None,
        )
        .unwrap();
        assert!(res.converged);
        assert_eq!(res.iterations, 0);
    }

    #[test]
    fn nan_preconditioner_reports_breakdown() {
        let a = laplacian_2d(5, 5);
        let n = a.rows();
        let nan = FnPrecond::new(|_r: &[f64], z: &mut [f64]| z.fill(f64::NAN));
        let res = try_gmres(
            &a,
            &nan,
            &SeqDot,
            &vec![1.0; n],
            &vec![0.0; n],
            &GmresOpts::default(),
            None,
        )
        .unwrap();
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
        let res = try_gmres(
            &a,
            &zero,
            &SeqDot,
            &vec![1.0; n],
            &vec![0.0; n],
            &GmresOpts::default(),
            None,
        )
        .unwrap();
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
        let res = try_gmres(
            &a,
            &IdentityPrecond,
            &SeqDot,
            &b,
            &vec![0.0; n],
            &GmresOpts::default(),
            None,
        )
        .unwrap();
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

    /// One of this crate's restarted-GMRES loops, unpreconditioned and
    /// sequential from a zero guess, with its checkpoint and recycle
    /// arguments, for the properties the shared driver gives all of them.
    pub(crate) type Loop = fn(
        &dyn Operator,
        &[f64],
        &GmresOpts,
        Option<&CheckpointCfg<'_>>,
        Option<&mut RecycleSpace>,
    ) -> Result<SolveResult, SolveInterrupt>;

    /// Every loop with the side it runs on: the classical loop on both, the
    /// pipelined ones on the left (whatever `opts.side` says).
    pub(crate) const LOOPS: [(&str, Loop, Side); 4] = [
        ("classical-left", classical, Side::Left),
        ("classical-right", classical, Side::Right),
        ("pipelined", crate::pipelined::tests::overlapped, Side::Left),
        ("fused", crate::pipelined::tests::fused, Side::Left),
    ];

    /// An armed guard accepts a clean solve, with the iterates of the
    /// unguarded one.
    pub(crate) fn check_guard_confirms_clean_convergence(solve: Loop, tol: f64) {
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
        let r_off = solve(&a, &b, &off, None, None).unwrap();
        let r_on = solve(&a, &b, &on, None, None).unwrap();
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
    pub(crate) fn check_guard_flags_corrupted_operator(solve: Loop, tol: f64, at: usize) {
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
        let silent = solve(&mk(), &b, &off, None, None).unwrap();
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
        let err = solve(&mk(), &b, &on, None, None).unwrap_err();
        let sdc = err.sdc().expect("interrupt must carry the SDC marker");
        assert!(
            sdc.recomputed > sdc.recurred,
            "recomputed {} vs recurred {}",
            sdc.recomputed,
            sdc.recurred
        );
        assert!(err.reason().contains("silent data corruption"));
    }

    /// A `&dyn Operator` as a sized one (the classical loop hands its
    /// operator to the preconditioner's right-preconditioned step).
    struct Dyn<'a>(&'a dyn Operator);

    impl Operator for Dyn<'_> {
        fn dim(&self) -> usize {
            self.0.dim()
        }

        fn apply(&self, x: &[f64], y: &mut [f64]) {
            self.0.apply(x, y)
        }

        fn try_apply_panel(
            &self,
            k: usize,
            x: &[f64],
            y: &mut [f64],
        ) -> Result<(), SolveInterrupt> {
            self.0.try_apply_panel(k, x, y)
        }
    }

    /// The classical loop, on the side `opts` names.
    pub(crate) fn classical(
        op: &dyn Operator,
        b: &[f64],
        opts: &GmresOpts,
        ckpt: Option<&CheckpointCfg<'_>>,
        recycle: Option<&mut RecycleSpace>,
    ) -> Result<SolveResult, SolveInterrupt> {
        let x0 = vec![0.0; b.len()];
        let mut ws = GmresWorkspace::new();
        try_gmres_with(
            &Dyn(op),
            &IdentityPrecond,
            &SeqDot,
            b,
            &x0,
            opts,
            ckpt,
            recycle,
            &mut ws,
        )
    }

    #[test]
    fn guard_confirms_clean_convergence_with_identical_iterates() {
        check_guard_confirms_clean_convergence(classical, 1e-10);
    }

    #[test]
    fn guard_flags_corrupted_operator_instead_of_false_convergence() {
        check_guard_flags_corrupted_operator(classical, 1e-10, 10);
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
        let clean = try_gmres(
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
        let res = try_gmres(
            &a,
            &IdentityPrecond,
            &SeqDot,
            &b,
            &x0,
            &GmresOpts::default(),
            None,
        )
        .unwrap();
        assert!(res.converged);
        assert!(res.iterations < 20);
        assert!(vector::dist2(&res.x, &xref) < 1e-5);
    }

    /// A 2D Laplacian, then four decoupled dofs of diagonal 2, then one
    /// whose row and column are zero: a right-hand side on the decoupled
    /// dofs spans a one-dimensional invariant subspace and converges in one
    /// iteration, one along the last dof is annihilated and breaks down,
    /// and every other one solves as on the Laplacian.
    fn panel_operator() -> CsrMatrix {
        let l = laplacian_2d(9, 8);
        let nl = l.rows();
        let mut c = CooBuilder::new(nl + 5, nl + 5);
        for i in 0..nl {
            for (j, v) in l.row(i) {
                c.push(i, j, v);
            }
        }
        for i in nl..nl + 4 {
            c.push(i, i, 2.0);
        }
        c.to_csr()
    }

    /// The panel's right-hand sides: two generic ones, one that converges
    /// early, one that breaks down, and a zero one (converged before any
    /// cycle).
    fn panel_rhs(n: usize) -> Vec<Vec<f64>> {
        let generic = |f: f64| -> Vec<f64> {
            let mut b: Vec<f64> = (0..n).map(|i| ((i as f64 + 1.3) * f).sin()).collect();
            b[n - 1] = 0.0;
            b
        };
        let mut early = vec![0.0; n];
        early[n - 3] = 1.0;
        early[n - 2] = -0.5;
        let mut broken = vec![0.0; n];
        broken[n - 1] = 1.0;
        vec![generic(0.7), early, broken, vec![0.0; n], generic(1.9)]
    }

    fn bits(x: &[f64]) -> Vec<u64> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    /// Every column of [`try_gmres_panel`] is [`try_gmres_with`] from the
    /// same recycle state to the bit — x, history, iterations, status —
    /// and the space after the panel holds what banking the single solves'
    /// increments in column order holds: on both sides, under CGS2 and MGS,
    /// with and without a recycle space, at a restart length the panel
    /// outlives, with a column that converges early, one that breaks down
    /// and one that is zero.
    #[test]
    fn each_panel_column_is_its_single_solve_bitwise() {
        let a = panel_operator();
        let n = a.rows();
        let diag: Vec<f64> = a
            .diag()
            .iter()
            .map(|&d| if d == 0.0 { 1.0 } else { d })
            .collect();
        let jacobi = FnPrecond::new(move |r: &[f64], z: &mut [f64]| {
            for i in 0..r.len() {
                z[i] = r[i] / diag[i];
            }
        });
        let rhs = panel_rhs(n);
        let k = rhs.len();
        let panel: Vec<f64> = rhs.concat();
        let x0 = vec![0.0; k * n];
        // A space holding two earlier solves' increments.
        let mut seeded = RecycleSpace::new(6);
        for f in [0.3, 2.3] {
            let b: Vec<f64> = (0..n - 1)
                .map(|i| (i as f64 * f).cos())
                .chain([0.0])
                .collect();
            let opts = GmresOpts {
                tol: 1e-9,
                ..Default::default()
            };
            let mut ws = GmresWorkspace::new();
            try_gmres_with(
                &a,
                &jacobi,
                &SeqDot,
                &b,
                &x0[..n],
                &opts,
                None,
                Some(&mut seeded),
                &mut ws,
            )
            .unwrap();
        }
        assert_eq!(seeded.len(), 2);
        let mut ws = GmresWorkspace::new();
        for side in [Side::Right, Side::Left] {
            for (ortho, restart) in [(Ortho::Cgs2, 200), (Ortho::Mgs, 200), (Ortho::Cgs2, 9)] {
                for space in [None, Some(&seeded)] {
                    let opts = GmresOpts {
                        tol: 1e-10,
                        max_iters: 400,
                        side,
                        ortho,
                        restart,
                        ..Default::default()
                    };
                    let what = format!(
                        "{side:?} {ortho:?} restart {restart} recycled {}",
                        space.is_some()
                    );
                    let mut after = space.cloned();
                    let got = try_gmres_panel(
                        &a,
                        &jacobi,
                        &SeqDot,
                        &panel,
                        &x0,
                        k,
                        &opts,
                        None,
                        after.as_mut(),
                        &mut ws,
                    )
                    .unwrap();
                    // Banked in column order from the entry state.
                    let mut banked = space.cloned();
                    for (c, (b, res)) in rhs.iter().zip(&got).enumerate() {
                        let mut alone = space.cloned();
                        let want = try_gmres_with(
                            &a,
                            &jacobi,
                            &SeqDot,
                            b,
                            &x0[..n],
                            &opts,
                            None,
                            alone.as_mut(),
                            &mut GmresWorkspace::new(),
                        )
                        .unwrap();
                        assert_eq!(bits(&res.x), bits(&want.x), "{what}: column {c}");
                        assert_eq!(
                            bits(&res.history),
                            bits(&want.history),
                            "{what}: column {c}"
                        );
                        assert_eq!(res.iterations, want.iterations, "{what}: column {c}");
                        assert_eq!(res.status, want.status, "{what}: column {c}");
                        assert_eq!(
                            res.breakdown_restarts, want.breakdown_restarts,
                            "{what}: column {c}"
                        );
                        if let (Some(bank), Some(alone)) = (banked.as_mut(), alone) {
                            if alone.len() > space.map_or(0, RecycleSpace::len) {
                                bank.bank_newest_of(&alone);
                            }
                        }
                    }
                    if let (Some(after), Some(banked)) = (after, banked) {
                        assert_eq!(after.len(), banked.len(), "{what}");
                        for ((u, au), (v, av)) in after.pairs().zip(banked.pairs()) {
                            assert_eq!((bits(u), bits(au)), (bits(v), bits(av)), "{what}");
                        }
                    }
                    // The shapes the panel has to survive.
                    let iters: Vec<usize> = got.iter().map(|r| r.iterations).collect();
                    assert!(got[0].converged && got[4].converged, "{what}: {iters:?}");
                    if space.is_none() {
                        // (A correction from the space puts the Laplacian
                        // back into the early column.)
                        assert_eq!(iters[1], 1, "{what}: early column {iters:?}");
                    }
                    assert_eq!(got[2].status, SolveStatus::Breakdown, "{what}");
                    assert_eq!((got[3].iterations, got[3].converged), (0, true), "{what}");
                    if restart < 200 {
                        assert!(iters[0] > restart, "{what}: the panel outlives a cycle");
                    }
                }
            }
        }
    }
}
