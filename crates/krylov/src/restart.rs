//! What every restarted GMRES in this crate shares: the least-squares
//! problem of one cycle and the driver around the cycles.
//!
//! A GMRES variant is an Arnoldi process — how it builds the next basis
//! vector and the next Hessenberg column. Everything else is the same for
//! all of them and lives here once: the residual anchor (or the resumed
//! one), the residual recomputed from the iterate at every cycle start with
//! the [`crate::SdcGuard`] drift check, the Givens-rotated least-squares
//! problem, checkpoints, stagnation, the one restart a breakdown is
//! allowed, the update `x += D y` and the verdict. The classical loop
//! ([`crate::gmres`]) and the pipelined loops ([`crate::pipelined`]) are two
//! cycle bodies handed to [`solve`].

use crate::checkpoint::{CheckpointCfg, SolveCheckpoint};
use crate::gmres::{GmresOpts, SolveResult, SolveStatus, STALL_LIMIT};
use crate::operator::{InnerProduct, Operator, Preconditioner, SolveInterrupt};
use dd_linalg::givens::Givens;
use dd_linalg::{vector, DMat};

/// The least-squares problem `min ‖β e₁ − H y‖` of one cycle, kept as the
/// incrementally Givens-rotated QR factorization of the Hessenberg matrix.
pub(crate) struct LeastSquares {
    /// Hessenberg matrix, stored column-wise and rotated in place: the
    /// Arnoldi process writes column `k` (rows `0..=k+1`), then
    /// [`LeastSquares::rotate_in`] turns it into a column of `R`.
    pub(crate) h: DMat,
    g: Vec<f64>,
    rot: Vec<Givens>,
    y: Vec<f64>,
}

impl Default for LeastSquares {
    fn default() -> Self {
        LeastSquares {
            h: DMat::zeros(0, 0),
            g: Vec::new(),
            rot: Vec::new(),
            y: Vec::new(),
        }
    }
}

impl LeastSquares {
    /// Size for cycles of up to `m` columns.
    pub(crate) fn prepare(&mut self, m: usize) {
        if self.h.rows() != m + 1 || self.h.cols() != m {
            self.h = DMat::zeros(m + 1, m);
        }
        self.g.resize(m + 1, 0.0);
        self.rot.clear();
        self.rot.reserve(m);
        self.y.resize(m, 0.0);
    }

    /// Start a cycle from a residual of norm `beta`. Every `h` entry read
    /// is written first within the cycle, so the reused matrix needs no
    /// clearing; `g` is read one slot ahead of the writes (the rotation
    /// touches `g[k+1]`) and does.
    pub(crate) fn reset(&mut self, beta: f64) {
        self.rot.clear();
        self.g.fill(0.0);
        self.g[0] = beta;
    }

    /// Apply the accumulated rotations to column `k`, form the rotation
    /// annihilating `h[k+1][k]` and return the new least-squares residual
    /// `|g[k+1]|`. `None`, with the column left out of the factorization,
    /// when both the subdiagonal entry and the pivot are at most `tiny`.
    pub(crate) fn rotate_in(&mut self, k: usize, tiny: f64) -> Option<f64> {
        let h = &mut self.h;
        for (j, gr) in self.rot.iter().enumerate() {
            let (a, b) = gr.apply(h[(j, k)], h[(j + 1, k)]);
            h[(j, k)] = a;
            h[(j + 1, k)] = b;
        }
        let (gr, rkk) = Givens::compute(h[(k, k)], h[(k + 1, k)]);
        if h[(k + 1, k)] <= tiny && rkk.abs() <= tiny {
            return None;
        }
        h[(k, k)] = rkk;
        h[(k + 1, k)] = 0.0;
        let (g0, g1) = gr.apply(self.g[k], self.g[k + 1]);
        self.g[k] = g0;
        self.g[k + 1] = g1;
        self.rot.push(gr);
        Some(g1.abs())
    }

    /// Solve the triangular system `R y = g` over the first `k` columns.
    /// `None` when a coefficient is non-finite (e.g. an exactly zero
    /// pivot). Reads `h` and `g` only, so it may run mid-cycle.
    #[allow(clippy::needless_range_loop)] // `j` indexes a row of `h` too
    pub(crate) fn solve(&mut self, k: usize) -> Option<&[f64]> {
        let y = &mut self.y[..k];
        for i in (0..k).rev() {
            let mut s = self.g[i];
            for j in i + 1..k {
                s -= self.h[(i, j)] * y[j];
            }
            y[i] = s / self.h[(i, i)];
        }
        y.iter().all(|v| v.is_finite()).then_some(&*y)
    }
}

/// The driver's reusable buffers: the residual scratch and the
/// least-squares problem.
#[derive(Default)]
pub(crate) struct Skeleton {
    ax: Vec<f64>,
    raw: Vec<f64>,
    r: Vec<f64>,
    ls: LeastSquares,
}

impl Skeleton {
    /// Size for dimension `n` and cycles of up to `m` columns.
    pub(crate) fn prepare(&mut self, n: usize, m: usize) {
        self.ax.resize(n, 0.0);
        self.raw.resize(n, 0.0);
        self.r.resize(n, 0.0);
        self.ls.prepare(m);
    }
}

/// Proof that a cycle body ended in [`Run::update`].
pub(crate) struct Updated(());

/// The state of one solve, handed to the cycle body.
pub(crate) struct Run<'a> {
    x: Vec<f64>,
    history: Vec<f64>,
    iterations: usize,
    r0_norm: f64,
    target: f64,
    final_res: f64,
    converged: bool,
    /// Columns of the current cycle in the least-squares problem.
    k_done: usize,
    cycle_broken: bool,
    breakdown_restarts: usize,
    /// Stagnation tracking across cycles.
    best_res: f64,
    stall: usize,
    opts: &'a GmresOpts,
    ckpt: Option<&'a CheckpointCfg<'a>>,
    ls: &'a mut LeastSquares,
}

impl Run<'_> {
    /// Below this a Hessenberg entry counts as annihilated.
    pub(crate) fn tiny(&self) -> f64 {
        1e-14 * self.r0_norm
    }

    /// The Hessenberg matrix the cycle body writes its columns into.
    pub(crate) fn h(&mut self) -> &mut DMat {
        &mut self.ls.h
    }

    /// Open the next iteration; `false` when the budget is spent.
    pub(crate) fn next_iteration<P: InnerProduct + ?Sized>(&mut self, ip: &P) -> bool {
        if self.iterations >= self.opts.max_iters {
            return false;
        }
        ip.on_iteration(self.iterations);
        self.iterations += 1;
        true
    }

    /// The column under construction is unusable (non-finite, or fully
    /// annihilated): leave it out and end the cycle.
    pub(crate) fn discard_column(&mut self) {
        self.cycle_broken = true;
        if self.opts.record_history {
            self.history.push(self.final_res);
        }
    }

    /// Take Hessenberg column `k` (written by the caller, rows `0..=k+1`)
    /// into the least-squares problem. `dirs[j]` is the update direction of
    /// column `j ≤ k`. Returns whether the cycle goes on.
    pub(crate) fn push_column(&mut self, k: usize, dirs: &[Vec<f64>]) -> bool {
        debug_assert_eq!(k, self.k_done);
        let tiny = self.tiny();
        let sub = self.ls.h[(k + 1, k)];
        // `None`: a singular operator or preconditioner mapped the basis
        // vector to ~zero — the rotated residual is meaningless and the
        // pivot would be zero. A non-finite residual poisons the update.
        let res = match self.ls.rotate_in(k, tiny) {
            Some(res) if res.is_finite() => res,
            _ => {
                self.discard_column();
                return false;
            }
        };
        self.k_done = k + 1;
        self.final_res = res / self.r0_norm;
        if self.opts.record_history {
            self.history.push(self.final_res);
        }
        if res <= self.target {
            // With a guard armed, the recurred value only *claims*
            // convergence: end the cycle, and let the cycle-start
            // recomputation confirm (or reject) it against the actual
            // iterate.
            self.converged = self.opts.guard.is_none();
            return false;
        }
        // dd:cold — periodic checkpoint materialization; snapshots own
        // their state by design and run on a user-chosen cadence
        if let Some(cfg) = self.ckpt.filter(|cfg| cfg.due(self.iterations)) {
            // The current iterate: the in-progress least-squares solution
            // over the columns built so far.
            if let Some(y) = self.ls.solve(self.k_done) {
                let mut snap = self.x.clone();
                vector::axpy_many(y, &dirs[..self.k_done], &mut snap);
                cfg.sink.save(SolveCheckpoint {
                    iteration: self.iterations,
                    x: snap,
                    residual: self.final_res,
                    r0_norm: self.r0_norm,
                    history: self.history.clone(),
                });
            }
        }
        // Stagnation: no residual improvement at all for STALL_LIMIT
        // consecutive iterations (GMRES residuals are non-increasing, so
        // "no improvement" means exactly flat).
        if res < self.best_res * (1.0 - 1e-12) {
            self.best_res = res;
            self.stall = 0;
        } else {
            self.stall += 1;
            if self.stall >= STALL_LIMIT {
                self.cycle_broken = true;
                return false;
            }
        }
        if sub <= tiny {
            // Invariant Krylov subspace. For a nonsingular operator the
            // least-squares solution is exact and `res` would have met the
            // tolerance above — reaching here with a large residual means
            // the operator annihilated the space (singular operator /
            // preconditioner): a breakdown, not convergence.
            self.cycle_broken = true;
            return false;
        }
        true
    }

    /// End of a cycle: `x += D y` over the columns taken (skipped when the
    /// coefficients are non-finite).
    pub(crate) fn update(&mut self, dirs: &[Vec<f64>]) -> Updated {
        if self.k_done > 0 {
            if let Some(y) = self.ls.solve(self.k_done) {
                vector::axpy_many(y, &dirs[..self.k_done], &mut self.x);
            }
        }
        Updated(())
    }

    fn finish(self, status: SolveStatus) -> SolveResult {
        SolveResult {
            x: self.x,
            iterations: self.iterations,
            converged: status == SolveStatus::Converged,
            history: self.history,
            final_residual: self.final_res,
            status,
            breakdown_restarts: self.breakdown_restarts,
        }
    }
}

/// Restarted GMRES around the Arnoldi process `cycle`.
///
/// `left` is the preconditioner of the residual — `Some` under left
/// preconditioning (history is the preconditioned residual), `None` when
/// the cycle body preconditions on the right (history is the true one).
/// `cycle(run, r, beta)` builds one cycle from the start residual `r` of
/// norm `beta`: it opens each iteration with [`Run::next_iteration`],
/// writes the Hessenberg column into [`Run::h`] and hands it over with
/// [`Run::push_column`] until told to stop, and ends in [`Run::update`]
/// with its update directions. `sk` must be prepared for the dimension and
/// the longest cycle the body builds.
#[allow(clippy::too_many_arguments)]
pub(crate) fn solve<O, M, P>(
    op: &O,
    left: Option<&M>,
    ip: &P,
    b: &[f64],
    x0: &[f64],
    opts: &GmresOpts,
    ckpt: Option<&CheckpointCfg<'_>>,
    sk: &mut Skeleton,
    mut cycle: impl FnMut(&mut Run<'_>, &[f64], f64) -> Result<Updated, SolveInterrupt>,
) -> Result<SolveResult, SolveInterrupt>
where
    O: Operator + ?Sized,
    M: Preconditioner + ?Sized,
    P: InnerProduct + ?Sized,
{
    let n = op.dim();
    assert_eq!(b.len(), n);
    assert_eq!(x0.len(), n);
    let Skeleton { ax, raw, r, ls } = sk;
    let resume = ckpt.and_then(|c| c.resume.as_ref());
    let x = match resume {
        Some(cp) => {
            assert_eq!(cp.x.len(), n);
            cp.x.clone()
        }
        None => x0.to_vec(),
    };
    let mut history = Vec::new();
    if opts.record_history {
        // One up-front allocation instead of growth reallocations in the
        // iteration loop.
        history.reserve(opts.max_iters + 2 + resume.map_or(0, |cp| cp.history.len()));
        match resume {
            Some(cp) => history.extend_from_slice(&cp.history),
            None => history.push(1.0),
        }
    }
    // r ← b − A x, preconditioned when `left` is given.
    let mut residual = |x: &[f64], r: &mut [f64]| -> Result<(), SolveInterrupt> {
        op.try_apply(x, ax)?;
        for i in 0..n {
            raw[i] = b[i] - ax[i];
        }
        match left {
            Some(m) => m.try_apply(raw, r),
            None => {
                r.copy_from_slice(raw);
                Ok(())
            }
        }
    };
    // The anchor: the initial residual, true or preconditioned. A resumed
    // solve converges against the *original* solve's anchor so the combined
    // run meets the same tolerance as a fault-free one.
    residual(&x, r)?;
    let r0_norm = match resume {
        Some(cp) => cp.r0_norm,
        None => ip.try_norm(r)?,
    };
    let mut run = Run {
        x,
        history,
        iterations: resume.map_or(0, |cp| cp.iteration),
        r0_norm,
        target: opts.tol * r0_norm,
        final_res: resume.map_or(1.0, |cp| cp.residual),
        converged: false,
        k_done: 0,
        cycle_broken: false,
        breakdown_restarts: 0,
        best_res: f64::INFINITY,
        stall: 0,
        opts,
        ckpt,
        ls,
    };
    if r0_norm == 0.0 {
        run.final_res = 0.0;
        return Ok(run.finish(SolveStatus::Converged));
    }
    if !r0_norm.is_finite() {
        // The input itself is broken; no restart can fix it.
        run.final_res = f64::INFINITY;
        return Ok(run.finish(SolveStatus::Breakdown));
    }
    let status = loop {
        // Residual at the start of this cycle, recomputed from the iterate.
        residual(&run.x, r)?;
        let beta = ip.try_norm(r)?;
        if beta <= run.target {
            run.final_res = beta / r0_norm;
            break SolveStatus::Converged;
        }
        if let Some(g) = &opts.guard {
            // The recurred estimate from the previous cycle against the
            // residual just recomputed: drift past the guard's threshold
            // (or a non-finite recomputation) means the basis or the
            // iterate was corrupted — hand the caller a typed interrupt to
            // roll back and replay instead of iterating on poison. Mild
            // drift falls through: the fresh cycle self-corrects it.
            if g.drifted(run.final_res, beta / r0_norm) {
                return Err(g.interrupt(run.iterations, run.final_res, beta / r0_norm));
            }
        }
        if !beta.is_finite() {
            // The iterate itself is poisoned; a restart cannot recover.
            break SolveStatus::Breakdown;
        }
        run.ls.reset(beta);
        run.k_done = 0;
        run.cycle_broken = false;
        // dd:hot — the Arnoldi cycle
        let Updated(()) = cycle(&mut run, r, beta)?;
        if run.converged {
            break SolveStatus::Converged;
        }
        if run.iterations >= opts.max_iters {
            break SolveStatus::MaxIterations;
        }
        if run.cycle_broken {
            if run.breakdown_restarts > 0 {
                break SolveStatus::Breakdown;
            }
            // One restart: rebuild the Krylov space from the current
            // iterate before giving up.
            run.breakdown_restarts += 1;
            run.best_res = f64::INFINITY;
            run.stall = 0;
        }
    };
    Ok(run.finish(status))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dd_linalg::DenseQr;

    /// Rotate the columns of a 5 × 4 Hessenberg matrix in one by one and
    /// back-substitute: after column `k` the residual and the solution are
    /// those of the dense least-squares problem `min ‖β e₁ − H y‖` over the
    /// leading `(k + 2) × (k + 1)` block, solved by Householder QR.
    #[test]
    fn rotate_in_and_solve_match_a_dense_qr() {
        const M: usize = 4;
        let beta = 2.5;
        let entry = |i: usize, j: usize| 1.0 + ((3 * i + 5 * j) % 7) as f64 * 0.25 - 0.3 * i as f64;
        let mut ls = LeastSquares::default();
        ls.prepare(M);
        ls.reset(beta);
        for k in 0..M {
            for i in 0..=k + 1 {
                ls.h[(i, k)] = entry(i, k);
            }
            let res = ls.rotate_in(k, 0.0).expect("column is not annihilated");
            let (rows, cols) = (k + 2, k + 1);
            let mut block = DMat::zeros(rows, cols);
            for j in 0..cols {
                for i in 0..=j + 1 {
                    block[(i, j)] = entry(i, j);
                }
            }
            let mut rhs = vec![0.0; rows];
            rhs[0] = beta;
            let y = DenseQr::factor(&block).solve_ls(&rhs);
            let mut misfit = rhs.clone();
            block.gemv(-1.0, &y, 1.0, &mut misfit);
            let dense_res = vector::norm2(&misfit);
            assert!(
                (res - dense_res).abs() <= 1e-12 * beta,
                "column {k}: residual {res:e} vs dense {dense_res:e}"
            );
            let got = ls.solve(cols).expect("finite coefficients");
            assert!(
                vector::dist2(got, &y) <= 1e-12 * vector::norm2(&y),
                "column {k}: {got:?} vs {y:?}"
            );
        }
    }

    #[test]
    fn an_annihilated_column_is_refused_and_a_zero_pivot_has_no_solution() {
        let mut ls = LeastSquares::default();
        ls.prepare(2);
        ls.reset(1.0);
        ls.h[(0, 0)] = 0.0;
        ls.h[(1, 0)] = 0.0;
        assert!(ls.rotate_in(0, 1e-14).is_none());
        // Taken with no threshold, the zero pivot makes R singular.
        assert_eq!(ls.rotate_in(0, -1.0), Some(0.0));
        assert!(ls.solve(1).is_none());
    }
}
