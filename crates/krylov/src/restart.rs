//! What every restarted GMRES in this crate shares: the least-squares
//! problem of one cycle and the driver around the cycles.
//!
//! A GMRES variant is an Arnoldi process — how it builds the next basis
//! vector and the next Hessenberg column. Everything else is the same for
//! all of them and lives here once: where the solve starts (the caller's
//! guess, a checkpoint to resume, a recycle-space correction) and what it
//! leaves behind (checkpoints, the harvested increment), the residual
//! anchor, the residual recomputed from the iterate at every cycle start
//! with the [`crate::SdcGuard`] drift check, the Givens-rotated
//! least-squares problem, stagnation, the one restart a breakdown is
//! allowed, the update `x += D y` and the verdict. The classical loop
//! ([`crate::gmres`]) and the fused p1 loop ([`crate::pipelined`]) are two
//! cycle bodies handed to [`solve`].
//!
//! The driver solves `k` right-hand sides at once, one [`Run`] and one
//! [`LeastSquares`] per column: their start residuals, the recycle-space
//! correction and the harvest are formed together, the classical body steps
//! the columns' first cycle together, and every column is its one-column
//! solve to the bit.

use crate::checkpoint::{CheckpointCfg, SolveCheckpoint};
use crate::gmres::{GmresOpts, SolveResult, SolveStatus, STALL_LIMIT};
use crate::operator::{InnerProduct, Operator, Preconditioner, SolveInterrupt};
use crate::recycle::RecycleSpace;
use dd_linalg::givens::Givens;
use dd_linalg::vector;

/// The least-squares problem `min ‖β e₁ − H y‖` of one cycle, kept as the
/// incrementally Givens-rotated QR factorization of the Hessenberg matrix.
#[derive(Default)]
pub(crate) struct LeastSquares {
    /// Hessenberg matrix, column-major with `rows = m + 1` rows and rotated
    /// in place: the Arnoldi process writes column `k` (rows `0..=k+1`),
    /// then [`LeastSquares::rotate_in`] turns it into a column of `R`. It
    /// holds only the columns a cycle has reached — a short cycle of a long
    /// restart length touches a few columns, not `m` — and keeps them
    /// between cycles and solves.
    h: Vec<f64>,
    rows: usize,
    g: Vec<f64>,
    rot: Vec<Givens>,
    y: Vec<f64>,
    /// The map from a cycle's update directions to its basis, when the body
    /// keeps directions it did not orthonormalize (`Ortho::Dcgs2` keeps
    /// `z̃_j = M⁻¹ṽ_j` with `Ṽ = V R`): `R`, upper triangular, its columns
    /// packed one after another (column `k` is `k + 1` values) and grown
    /// like `h`. `mapped` says whether this cycle has one;
    /// [`LeastSquares::solve`] then returns `R⁻¹ y`.
    r: Vec<f64>,
    mapped: bool,
}

impl LeastSquares {
    /// Size for cycles of up to `m` columns.
    pub(crate) fn prepare(&mut self, m: usize) {
        if self.rows != m + 1 {
            self.rows = m + 1;
            self.h.clear();
        }
        self.g.resize(m + 1, 0.0);
        self.rot.clear();
        self.rot.reserve(m);
        self.y.resize(m, 0.0);
    }

    /// Column `k` of the Hessenberg matrix, grown into being on first use.
    pub(crate) fn column(&mut self, k: usize) -> &mut [f64] {
        let end = (k + 1) * self.rows;
        if self.h.len() < end {
            self.h.resize(end, 0.0);
        }
        &mut self.h[k * self.rows..end]
    }

    /// Column `k` of the basis map `R`, grown into being on first use; the
    /// cycle's coefficients are mapped through it from now on.
    pub(crate) fn map_column(&mut self, k: usize) -> &mut [f64] {
        let (start, end) = (k * (k + 1) / 2, (k + 1) * (k + 2) / 2);
        if self.r.len() < end {
            self.r.resize(end, 0.0);
        }
        self.mapped = true;
        &mut self.r[start..end]
    }

    /// Entry `(i, j)` of a column already written.
    fn at(&self, i: usize, j: usize) -> f64 {
        self.h[j * self.rows + i]
    }

    /// Start a cycle from a residual of norm `beta`. Every `h` entry read
    /// is written first within the cycle, so the reused matrix needs no
    /// clearing; `g` is read one slot ahead of the writes (the rotation
    /// touches `g[k+1]`) and does.
    pub(crate) fn reset(&mut self, beta: f64) {
        self.rot.clear();
        self.g.fill(0.0);
        self.g[0] = beta;
        self.mapped = false;
    }

    /// Apply the accumulated rotations to column `k`, form the rotation
    /// annihilating `h[k+1][k]` and return the new least-squares residual
    /// `|g[k+1]|`. `None`, with the column left out of the factorization,
    /// when both the subdiagonal entry and the pivot are at most `tiny`.
    pub(crate) fn rotate_in(&mut self, k: usize, tiny: f64) -> Option<f64> {
        let rows = self.rows;
        let h = &mut self.h[k * rows..(k + 1) * rows];
        for (j, gr) in self.rot.iter().enumerate() {
            let (a, b) = gr.apply(h[j], h[j + 1]);
            h[j] = a;
            h[j + 1] = b;
        }
        let (gr, rkk) = Givens::compute(h[k], h[k + 1]);
        if h[k + 1] <= tiny && rkk.abs() <= tiny {
            return None;
        }
        h[k] = rkk;
        h[k + 1] = 0.0;
        let (g0, g1) = gr.apply(self.g[k], self.g[k + 1]);
        self.g[k] = g0;
        self.g[k + 1] = g1;
        self.rot.push(gr);
        Some(g1.abs())
    }

    /// The residual `|g[k+1]|` that column `k` would leave if it read `col`
    /// (rows `0..=k+1`), without taking it in: the verdict
    /// [`LeastSquares::rotate_in`] would give, read ahead. `None` where that
    /// refuses the column.
    fn peek(&self, k: usize, col: &[f64], tiny: f64) -> Option<f64> {
        // Entry `k` of the column after the accumulated rotations.
        let mut x = col[0];
        for (j, gr) in self.rot.iter().enumerate() {
            x = gr.apply(x, col[j + 1]).1;
        }
        let (gr, rkk) = Givens::compute(x, col[k + 1]);
        if col[k + 1] <= tiny && rkk.abs() <= tiny {
            return None;
        }
        Some(gr.apply(self.g[k], self.g[k + 1]).1.abs())
    }

    /// Solve the triangular system `R y = g` over the first `k` columns,
    /// then map `y` through the basis map when the cycle has one. `None`
    /// when a coefficient is non-finite (e.g. an exactly zero pivot). Reads
    /// `h`, `g` and `r` only, so it may run mid-cycle.
    #[allow(clippy::needless_range_loop)] // `j` indexes a row of `h` too
    pub(crate) fn solve(&mut self, k: usize) -> Option<&[f64]> {
        let y = &mut self.y[..k];
        for i in (0..k).rev() {
            let mut s = self.g[i];
            for j in i + 1..k {
                s -= self.h[j * self.rows + i] * y[j];
            }
            y[i] = s / self.h[i * self.rows + i];
        }
        if self.mapped {
            // Column `j` of `R` starts at `j (j + 1) / 2`.
            let r = |i: usize, j: usize| self.r[j * (j + 1) / 2 + i];
            for i in (0..k).rev() {
                let mut s = y[i];
                for j in i + 1..k {
                    s -= r(i, j) * y[j];
                }
                y[i] = s / r(i, i);
            }
        }
        y.iter().all(|v| v.is_finite()).then_some(&*y)
    }
}

/// The driver's reusable buffers: per column the least-squares problem,
/// and the scratch of the residuals, column lists and per-column norms.
/// Warm, a solve allocates from it nothing but its result.
#[derive(Default)]
pub(crate) struct Skeleton {
    ls: Vec<LeastSquares>,
    scratch: Scratch,
    /// Lists of columns: the open ones, and those stepping a cycle.
    cols: Vec<usize>,
    live: Vec<usize>,
    /// Per column, the latest residual norm.
    beta: Vec<f64>,
}

/// Where the columns' residuals are formed together.
#[derive(Default)]
struct Scratch {
    /// Per column: the true residual `b − A x` and the cycle's start
    /// residual (the true one preconditioned under left preconditioning).
    res: Vec<(Vec<f64>, Vec<f64>)>,
    /// Panels of up to `k · n`: the iterates, their products, the true
    /// residuals and the preconditioned ones.
    px: Vec<f64>,
    pax: Vec<f64>,
    praw: Vec<f64>,
    pr: Vec<f64>,
    /// The squared norms, local and reduced.
    locals: Vec<f64>,
    sums: Vec<f64>,
}

impl Skeleton {
    /// Size for `k` columns of dimension `n` and cycles of up to `m`
    /// columns.
    pub(crate) fn prepare(&mut self, n: usize, m: usize, k: usize) {
        self.ls.resize_with(k, Default::default);
        for ls in &mut self.ls {
            ls.prepare(m);
        }
        let sc = &mut self.scratch;
        sc.res.resize_with(k, Default::default);
        for (raw, r) in &mut sc.res {
            raw.resize(n, 0.0);
            r.resize(n, 0.0);
        }
        for p in [&mut sc.px, &mut sc.pax, &mut sc.praw, &mut sc.pr] {
            p.resize(k * n, 0.0);
        }
        for v in [&mut sc.locals, &mut sc.sums, &mut self.beta] {
            v.resize(k, 0.0);
        }
        self.cols.reserve(k);
        self.live.reserve(k);
    }
}

/// The state of one column's solve, handed to the cycle body.
pub(crate) struct Run<'a> {
    x: Vec<f64>,
    history: Vec<f64>,
    iterations: usize,
    r0_norm: f64,
    target: f64,
    final_res: f64,
    converged: bool,
    /// Columns of the current cycle in the least-squares problem, and the
    /// iterations before the cycle.
    k_done: usize,
    cycle_start: usize,
    cycle_broken: bool,
    breakdown_restarts: usize,
    /// Stagnation tracking across cycles.
    best_res: f64,
    stall: usize,
    /// The cycle body ended the current cycle in [`Run::update`].
    updated: bool,
    /// Why the solve stopped, once it has.
    status: Option<SolveStatus>,
    /// Where the cycles started, when a recycle space banks their
    /// increment.
    start: Option<Vec<f64>>,
    opts: &'a GmresOpts,
    ckpt: Option<&'a CheckpointCfg<'a>>,
    ls: &'a mut LeastSquares,
}

impl<'a> Run<'a> {
    /// A column starting at `(x, history)`, at iteration 0.
    fn new(
        (x, history): (Vec<f64>, Vec<f64>),
        opts: &'a GmresOpts,
        ckpt: Option<&'a CheckpointCfg<'a>>,
        ls: &'a mut LeastSquares,
    ) -> Self {
        Run {
            x,
            history,
            iterations: 0,
            r0_norm: 0.0,
            target: 0.0,
            final_res: 1.0,
            converged: false,
            k_done: 0,
            cycle_start: 0,
            cycle_broken: false,
            breakdown_restarts: 0,
            best_res: f64::INFINITY,
            stall: 0,
            updated: false,
            status: None,
            start: None,
            opts,
            ckpt,
            ls,
        }
    }
}

impl Run<'_> {
    /// Below this a Hessenberg entry counts as annihilated.
    pub(crate) fn tiny(&self) -> f64 {
        1e-14 * self.r0_norm
    }

    /// Column `k` of the Hessenberg matrix, which the cycle body writes
    /// (rows `0..=k+1`) before handing it over with [`Run::push_column`].
    pub(crate) fn h(&mut self, k: usize) -> &mut [f64] {
        self.ls.column(k)
    }

    /// Column `k` of the map from the cycle's update directions to its basis
    /// (rows `0..=k`), for a body whose directions are not the orthonormal
    /// basis: [`Run::update`] and the checkpoints then take `x += D R⁻¹ y`.
    pub(crate) fn map(&mut self, k: usize) -> &mut [f64] {
        self.ls.map_column(k)
    }

    /// Whether Hessenberg column `k`, as the body has written it so far
    /// into [`Run::h`], would end the cycle: spend the budget, meet the
    /// target, stagnate or be annihilated — the verdicts of
    /// [`Run::push_column`], read before the column's last entries are
    /// known, so a body that finalizes a column one step late can finalize
    /// the cycle's last one without opening another iteration.
    pub(crate) fn ends_with(&self, k: usize) -> bool {
        if self.iterations >= self.opts.max_iters {
            return true;
        }
        let col = &self.ls.h[k * self.ls.rows..(k + 1) * self.ls.rows];
        match self.ls.peek(k, col, self.tiny()) {
            Some(res) if res.is_finite() => {
                res <= self.target
                    || col[k + 1] <= self.tiny()
                    || (res >= self.best_res * (1.0 - 1e-12) && self.stall + 1 >= STALL_LIMIT)
            }
            _ => true,
        }
    }

    /// Open the next iteration, running the inner product's iteration
    /// hook; `false` when the budget is spent.
    pub(crate) fn next_iteration<P: InnerProduct + ?Sized>(&mut self, ip: &P) -> bool {
        let k = self.iterations;
        let open = self.next_iteration_in_panel();
        if open {
            ip.on_iteration(k);
        }
        open
    }

    /// The index [`Run::next_iteration`] handed (or would have handed) the
    /// hook of the iteration this run has open.
    pub(crate) fn current(&self) -> usize {
        self.iterations - 1
    }

    /// [`Run::next_iteration`] without the hook, for a column that steps
    /// with others: the hook runs once per step, for the first of them.
    pub(crate) fn next_iteration_in_panel(&mut self) -> bool {
        if self.iterations >= self.opts.max_iters {
            return false;
        }
        self.iterations += 1;
        true
    }

    /// The column under construction is unusable (non-finite, or fully
    /// annihilated): leave it out and end the cycle.
    pub(crate) fn discard_column(&mut self) {
        self.cycle_broken = true;
        self.skip_column();
    }

    /// An iteration whose column the cycle ended before taking (a body that
    /// applies the operator one column ahead of the verdicts): its history
    /// entry is the residual as it stands.
    pub(crate) fn skip_column(&mut self) {
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
        let sub = self.ls.at(k + 1, k);
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
        // their state by design and run on a user-chosen cadence. A snapshot
        // at iteration `i` holds the `i` columns final by then, also where
        // the body has applied the operator one column ahead.
        let done = self.cycle_start + self.k_done;
        if let Some(cfg) = self.ckpt.filter(|cfg| cfg.due(done)) {
            // The current iterate: the in-progress least-squares solution
            // over the columns built so far.
            if let Some(y) = self.ls.solve(self.k_done) {
                let mut snap = self.x.clone();
                vector::axpy_many(y, &dirs[..self.k_done], &mut snap);
                cfg.sink.save(SolveCheckpoint {
                    iteration: done,
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
    pub(crate) fn update(&mut self, dirs: &[Vec<f64>]) {
        if self.k_done > 0 {
            if let Some(y) = self.ls.solve(self.k_done) {
                vector::axpy_many(y, &dirs[..self.k_done], &mut self.x);
            }
        }
        self.updated = true;
    }

    /// Start a cycle from a residual of norm `beta`, or stop the solve:
    /// converged, or a broken iterate. `Err` when an armed guard finds the
    /// recurred residual drifted from the recomputed one.
    fn open_cycle(&mut self, beta: f64) -> Result<bool, SolveInterrupt> {
        if beta <= self.target {
            self.final_res = beta / self.r0_norm;
            self.status = Some(SolveStatus::Converged);
            return Ok(false);
        }
        if let Some(g) = &self.opts.guard {
            // The recurred estimate from the previous cycle against the
            // residual just recomputed: drift past the guard's threshold
            // (or a non-finite recomputation) means the basis or the
            // iterate was corrupted — hand the caller a typed interrupt to
            // roll back and replay instead of iterating on poison. Mild
            // drift falls through: the fresh cycle self-corrects it.
            let recomputed = beta / self.r0_norm;
            if g.drifted(self.final_res, recomputed) {
                return Err(g.interrupt(self.iterations, self.final_res, recomputed));
            }
        }
        if !beta.is_finite() {
            // The iterate itself is poisoned; a restart cannot recover.
            self.status = Some(SolveStatus::Breakdown);
            return Ok(false);
        }
        self.ls.reset(beta);
        self.k_done = 0;
        self.cycle_start = self.iterations;
        self.cycle_broken = false;
        self.updated = false;
        Ok(true)
    }

    /// After a cycle: stop (converged, budget spent, a second breakdown) or
    /// prepare the next one. Returns whether another cycle follows.
    fn close_cycle(&mut self) -> bool {
        debug_assert!(self.updated, "a cycle body ends in Run::update");
        if self.converged {
            self.status = Some(SolveStatus::Converged);
        } else if self.iterations >= self.opts.max_iters {
            self.status = Some(SolveStatus::MaxIterations);
        } else if self.cycle_broken {
            if self.breakdown_restarts > 0 {
                self.status = Some(SolveStatus::Breakdown);
            } else {
                // One restart: rebuild the Krylov space from the current
                // iterate before giving up.
                self.breakdown_restarts += 1;
                self.best_res = f64::INFINITY;
                self.stall = 0;
            }
        }
        self.status.is_none()
    }

    fn finish(&mut self) -> SolveResult {
        let status = self.status.unwrap_or_default();
        SolveResult {
            x: std::mem::take(&mut self.x),
            iterations: self.iterations,
            converged: status == SolveStatus::Converged,
            history: std::mem::take(&mut self.history),
            final_residual: self.final_res,
            status,
            breakdown_restarts: self.breakdown_restarts,
        }
    }
}

/// Where each column's cycle starts: its start residual and that
/// residual's norm.
pub(crate) struct Starts<'s> {
    res: &'s [(Vec<f64>, Vec<f64>)],
    beta: &'s [f64],
}

impl Starts<'_> {
    /// Column `c`'s start residual `r` and `‖r‖`.
    pub(crate) fn get(&self, c: usize) -> (&[f64], f64) {
        (&self.res[c].1, self.beta[c])
    }
}

/// `raw ← b − A x`, `r ←` raw preconditioned when `left` is given, and
/// `beta[c] ← ‖r‖`, for the columns `cols` at their iterates `x(c)` — one
/// panel apply of the operator (and of the preconditioner) and one
/// reduction for all of them, each column what its one-column residual
/// computes.
#[allow(clippy::too_many_arguments)]
fn residuals<'x, O, M, P>(
    op: &O,
    left: Option<&M>,
    ip: &P,
    b: &[f64],
    cols: &[usize],
    x: impl Fn(usize) -> &'x [f64],
    sc: &mut Scratch,
    beta: &mut [f64],
) -> Result<(), SolveInterrupt>
where
    O: Operator + ?Sized,
    M: Preconditioner + ?Sized,
    P: InnerProduct + ?Sized,
{
    let (n, k) = (op.dim(), cols.len());
    let Scratch {
        res,
        px,
        pax,
        praw,
        pr,
        locals,
        sums,
    } = sc;
    let (px, pax) = (&mut px[..k * n], &mut pax[..k * n]);
    let (praw, pr) = (&mut praw[..k * n], &mut pr[..k * n]);
    for (i, &c) in cols.iter().enumerate() {
        px[i * n..(i + 1) * n].copy_from_slice(x(c));
    }
    op.try_apply_panel(k, px, pax)?;
    for (i, &c) in cols.iter().enumerate() {
        let (span, bc) = (i * n..(i + 1) * n, &b[c * n..(c + 1) * n]);
        for ((raw, &bv), &av) in praw[span.clone()].iter_mut().zip(bc).zip(&pax[span]) {
            *raw = bv - av;
        }
    }
    match left {
        Some(m) => m.try_apply_panel(k, praw, pr)?,
        None => pr.copy_from_slice(praw),
    }
    for (i, &c) in cols.iter().enumerate() {
        let (raw, r) = &mut res[c];
        raw.copy_from_slice(&praw[i * n..(i + 1) * n]);
        r.copy_from_slice(&pr[i * n..(i + 1) * n]);
        locals[i] = ip.local_dot(r, r);
    }
    ip.try_reduce_into(&locals[..k], &mut sums[..k])?;
    for (&d, &c) in sums.iter().zip(cols) {
        // `try_norm`'s reading of a reduced square: NaN propagates.
        beta[c] = if d.is_nan() { d } else { d.max(0.0).sqrt() };
    }
    Ok(())
}

/// The input checks every Krylov loop makes before its first apply: `b`
/// and `x0` hold `k` columns of the operator's `n` values, a checkpoint
/// belongs to one column, and a resumed iterate holds `n` values. A wrong
/// length is an interrupt naming the lengths, not a panic or a silently
/// truncated right-hand side.
pub(crate) fn check_lengths(
    n: usize,
    k: usize,
    b: &[f64],
    x0: &[f64],
    ckpt: Option<&CheckpointCfg<'_>>,
) -> Result<(), SolveInterrupt> {
    let wrong = |what: &str, len: usize, want: usize| {
        Err(SolveInterrupt::new(format!(
            "{what} holds {len} values, expected {want} ({k} column(s) of {n})"
        )))
    };
    if b.len() != k * n {
        return wrong("b", b.len(), k * n);
    }
    if x0.len() != k * n {
        return wrong("x0", x0.len(), k * n);
    }
    if ckpt.is_some() && k != 1 {
        return Err(SolveInterrupt::new(format!(
            "a checkpoint belongs to one column, not {k}"
        )));
    }
    match ckpt.and_then(|c| c.resume.as_ref()) {
        Some(cp) if cp.x.len() != n => wrong("the resumed iterate", cp.x.len(), n),
        _ => Ok(()),
    }
}

/// Restarted GMRES around the Arnoldi process `cycle`, for `k` right-hand
/// sides at once — the columns of `b` and `x0`, one after another — each
/// column's result handed to `emit` in column order.
///
/// `left` is the preconditioner of the residual — `Some` under left
/// preconditioning (history is the preconditioned residual), `None` when
/// the cycle body preconditions on the right (history is the true one).
/// `cycle(runs, live, starts)` builds one cycle for each column `c` of
/// `live` (`runs[c]`), from the start residual `starts.get(c)`: it opens
/// each iteration with [`Run::next_iteration`], writes the Hessenberg
/// column into [`Run::h`] and hands it over with [`Run::push_column`] until
/// told to stop, and ends each run's cycle in [`Run::update`] with its
/// update directions. With `lockstep`, the body steps the open columns'
/// cycles together: a column leaves when it converges, and one whose cycle
/// ends early for any other reason (breakdown, stagnation) goes on alone,
/// while those that ran the whole cycle start the next one together.
/// Without, every column is solved alone. `sk` must be prepared for the
/// dimension, the longest cycle the body builds and `k`.
///
/// Each column is the one-column solve to the bit, whatever else is in the
/// panel: its arithmetic is per column and in the one-column order, and
/// what the columns share — the applications and the reductions of their
/// start residuals, of a recycle-space correction and of the harvest — is
/// per column what the one-column solve computes.
///
/// A column starts at its `x0`, or at the checkpoint `ckpt` resumes (one
/// column only). Its target is `tol ×` the anchor, the residual norm at
/// `x0`. A resumed solve takes the checkpoint's anchor under right
/// preconditioning; under left it forms the anchor again under the
/// preconditioner it runs with, which may have been rebuilt since the
/// checkpoint was written (a recovered epoch), so that anchor and residuals
/// are measured under one preconditioner. An unchanged preconditioner gives
/// the checkpoint's anchor back, bit for bit. Without a `recycle` space the
/// anchor's residual is the first cycle's. With one, every column is
/// corrected over the banked directions as they stand at entry, from the
/// true residual already formed there; the first cycle starts from the
/// residual at the corrected guess, and the increments the cycles made are
/// banked at exit, in column order.
#[allow(clippy::too_many_arguments)]
pub(crate) fn solve<O, M, P>(
    op: &O,
    left: Option<&M>,
    ip: &P,
    b: &[f64],
    x0: &[f64],
    k: usize,
    opts: &GmresOpts,
    ckpt: Option<&CheckpointCfg<'_>>,
    recycle: Option<&mut RecycleSpace>,
    sk: &mut Skeleton,
    lockstep: bool,
    mut cycle: impl FnMut(&mut [Run<'_>], &[usize], &Starts<'_>) -> Result<(), SolveInterrupt>,
    mut emit: impl FnMut(SolveResult),
) -> Result<(), SolveInterrupt>
where
    O: Operator + ?Sized,
    M: Preconditioner + ?Sized,
    P: InnerProduct + ?Sized,
{
    let n = op.dim();
    check_lengths(n, k, b, x0, ckpt)?;
    let Skeleton {
        ls,
        scratch: sc,
        cols,
        live,
        beta,
    } = sk;
    let resume = ckpt.and_then(|c| c.resume.as_ref());
    // A column's iterate and history at its start.
    let start = |col: usize| {
        let x = match resume {
            Some(cp) => cp.x.clone(),
            None => x0[col * n..(col + 1) * n].to_vec(),
        };
        let mut history = Vec::new();
        if opts.record_history {
            // One up-front allocation instead of growth reallocations in
            // the iteration loop.
            history.reserve(opts.max_iters + 2 + resume.map_or(0, |cp| cp.history.len()));
            match resume {
                Some(cp) => history.extend_from_slice(&cp.history),
                None => history.push(1.0),
            }
        }
        (x, history)
    };
    let run = |col: usize, ls| Run {
        iterations: resume.map_or(0, |cp| cp.iteration),
        final_res: resume.map_or(1.0, |cp| cp.residual),
        ..Run::new(start(col), opts, ckpt, ls)
    };
    // One column lives on the stack: a warm one-column solve allocates
    // nothing but its iterate (and history).
    let (mut one, mut many);
    let runs: &mut [Run<'_>] = if k == 1 {
        one = [run(0, &mut ls[0])];
        &mut one
    } else {
        many = ls
            .iter_mut()
            .take(k)
            .enumerate()
            .map(|(c, ls)| run(c, ls))
            .collect::<Vec<_>>();
        &mut many
    };
    cols.clear();
    cols.extend(0..k);
    // The anchor: the residual at `x0`, true or preconditioned. A resumed
    // solve converges against the *original* solve's anchor so the combined
    // run meets the same tolerance as a fault-free one; a preconditioned
    // anchor is formed again under the current preconditioner.
    let anchor = match resume {
        Some(cp) if left.is_none() => Some(cp.r0_norm),
        Some(_) => {
            residuals(op, left, ip, b, cols, |_| x0, sc, beta)?;
            Some(beta[0])
        }
        None => None,
    };
    residuals(op, left, ip, b, cols, |c| runs[c].x.as_slice(), sc, beta)?;
    for (c, run) in runs.iter_mut().enumerate() {
        let r0_norm = anchor.unwrap_or(beta[c]);
        run.r0_norm = r0_norm;
        run.target = opts.tol * r0_norm;
        if r0_norm == 0.0 {
            run.final_res = 0.0;
            run.status = Some(SolveStatus::Converged);
        } else if !r0_norm.is_finite() {
            // The input itself is broken; no restart can fix it.
            run.final_res = f64::INFINITY;
            run.status = Some(SolveStatus::Breakdown);
        }
    }
    cols.retain(|&c| runs[c].status.is_none());
    // With a recycle space: correct every open column from the true
    // residual just formed there, and keep the guesses the cycles start from
    // to harvest their increments.
    if let Some(space) = recycle.as_deref() {
        if !space.is_empty() && !cols.is_empty() {
            let raws: Vec<&[f64]> = cols.iter().map(|&c| sc.res[c].0.as_slice()).collect();
            let mut guesses: Vec<&mut [f64]> = runs
                .iter_mut()
                .filter(|r| r.status.is_none())
                .map(|r| r.x.as_mut_slice())
                .collect();
            if space.try_improve_guesses(ip, &raws, &mut guesses)? {
                residuals(op, left, ip, b, cols, |c| runs[c].x.as_slice(), sc, beta)?;
            }
        }
        for &c in cols.iter() {
            runs[c].start = Some(runs[c].x.clone());
        }
    }
    // The open columns' cycles together, while more than one of them ran
    // its last cycle to the end; a column left unfinished goes on alone.
    live.clear();
    if lockstep {
        live.extend_from_slice(cols);
    }
    while live.len() > 1 {
        let mut i = 0;
        while i < live.len() {
            if runs[live[i]].open_cycle(beta[live[i]])? {
                i += 1;
            } else {
                live.remove(i);
            }
        }
        if live.is_empty() {
            break;
        }
        let starts = Starts { res: &sc.res, beta };
        // dd:hot — the Arnoldi cycle, every column in step
        cycle(runs, live, &starts)?;
        live.retain(|&c| runs[c].close_cycle());
        if !live.is_empty() {
            residuals(op, left, ip, b, live, |c| runs[c].x.as_slice(), sc, beta)?;
        }
        // A cycle that ended early (breakdown, stagnation) restarts alone.
        live.retain(|&c| !runs[c].cycle_broken);
    }
    for c in 0..k {
        while runs[c].status.is_none() && runs[c].open_cycle(beta[c])? {
            // dd:hot — the Arnoldi cycle
            cycle(runs, &[c], &Starts { res: &sc.res, beta })?;
            if !runs[c].close_cycle() {
                break;
            }
            // Residual at the start of the next cycle, recomputed from the
            // iterate.
            residuals(op, left, ip, b, &[c], |c| runs[c].x.as_slice(), sc, beta)?;
        }
    }
    if let Some(space) = recycle {
        let started = || runs.iter().filter(|r| r.start.is_some());
        let starts: Vec<&[f64]> = started().filter_map(|r| r.start.as_deref()).collect();
        let xs: Vec<&[f64]> = started().map(|r| r.x.as_slice()).collect();
        space.try_harvest(op, ip, &starts, &xs)?;
    }
    for run in runs.iter_mut() {
        emit(run.finish());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gmres::tests::{laplacian_2d, residual, FailAfter, Loop, VecSink, LOOPS};
    use crate::gmres::Side;
    use dd_linalg::{CsrMatrix, DMat, DenseQr};
    use std::cell::Cell;

    /// The newest checkpoint (every `interval` iterations) of `solve` on
    /// `a`, written before the operator dies after `budget` applications.
    fn checkpoint_before_kill(
        solve: Loop,
        a: &CsrMatrix,
        b: &[f64],
        opts: &GmresOpts,
        interval: usize,
        budget: usize,
    ) -> SolveCheckpoint {
        let failing = FailAfter {
            inner: a,
            budget: Cell::new(budget),
        };
        let sink = VecSink::new();
        let cfg = CheckpointCfg::new(interval, &sink);
        let err = solve(&failing, b, opts, Some(&cfg), None).unwrap_err();
        assert!(err.reason().contains("budget"));
        let cp = sink.0.borrow().last().cloned();
        cp.expect("a checkpoint before the kill")
    }

    /// `solve` on the healthy `a`, resumed from `cp` (and writing no
    /// snapshot of its own).
    fn resume(
        solve: Loop,
        a: &CsrMatrix,
        b: &[f64],
        opts: &GmresOpts,
        cp: SolveCheckpoint,
    ) -> SolveResult {
        let sink = VecSink::new();
        let cfg = CheckpointCfg::resuming(usize::MAX, &sink, cp);
        solve(a, b, opts, Some(&cfg), None).unwrap()
    }

    /// Every loop resumes: the operator dies mid-solve, and the solve
    /// resumed from the newest checkpoint on the healthy operator is the
    /// uninterrupted one — same iterations, history and `x`, bit for bit,
    /// against the original anchor. The checkpoint cadence is the restart
    /// length, so every snapshot is a cycle's end iterate (in p1-GMRES too:
    /// a snapshot at iteration `k` holds the `k` columns final by then) and
    /// the resumed cycle is the one the uninterrupted solve ran next.
    ///
    /// A left-preconditioned loop also resumes bit for bit from a snapshot
    /// written under another preconditioner, `1024·I`: that snapshot is this
    /// one with a 1024 times larger anchor (a power of two scales exactly),
    /// and the resume forms its anchor again under `I`.
    #[test]
    fn resume_equals_uninterrupted_for_every_loop() {
        let a = laplacian_2d(12, 12);
        let n = a.rows();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.23).sin()).collect();
        let interval = 10;
        for (name, solve, side) in LOOPS {
            let opts = GmresOpts {
                restart: interval,
                tol: 1e-8,
                max_iters: 2000,
                side,
                ..Default::default()
            };
            let clean = solve(&a, &b, &opts, None, None).unwrap();
            assert!(clean.converged, "{name}");
            let cp =
                checkpoint_before_kill(solve, &a, &b, &opts, interval, clean.iterations * 2 / 3);
            let resume_at = cp.iteration;
            assert!(
                resume_at > 0 && resume_at % interval == 0,
                "{name}: {resume_at}"
            );
            // The original anchor: ‖b‖ from the zero guess (identity
            // preconditioner).
            let anchor = vector::norm2(&b);
            assert!((cp.r0_norm - anchor).abs() <= 1e-14 * anchor, "{name}");
            let mut starts = vec![cp.clone()];
            if side == Side::Left {
                starts.push(SolveCheckpoint {
                    r0_norm: 1024.0 * cp.r0_norm,
                    ..cp
                });
            }
            for cp in starts {
                let res = resume(solve, &a, &b, &opts, cp);
                assert!(res.converged, "{name}: resumed solve must converge");
                assert!(
                    res.iterations > resume_at,
                    "{name}: iterations are cumulative"
                );
                assert_eq!(res.iterations, clean.iterations, "{name}");
                assert_eq!(res.history, clean.history, "{name}");
                assert_eq!(res.x, clean.x, "{name}");
                assert!(res.final_residual <= opts.tol, "{name}");
                assert!(residual(&a, &res.x, &b) <= 2.0 * opts.tol, "{name}");
            }
        }
    }

    /// Every loop resumes from a snapshot taken mid-cycle — what recovery
    /// meets, at a checkpoint every iteration. The resume restarts early
    /// and loses the Krylov space built so far, so it is not the
    /// uninterrupted solve, and the bound `uninterrupted + interval + 1`
    /// does not hold for it: below, every loop resumes at iteration 18 and
    /// takes 48 iterations against 43 + 3 + 1. It still converges, counts
    /// iterations on from the snapshot, and meets the same tolerance.
    #[test]
    fn a_mid_cycle_resume_converges_to_the_same_tolerance_for_every_loop() {
        let a = laplacian_2d(12, 12);
        let n = a.rows();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.23).sin()).collect();
        let interval = 3;
        for (name, solve, side) in LOOPS {
            let opts = GmresOpts {
                restart: 30,
                tol: 1e-8,
                max_iters: 2000,
                side,
                ..Default::default()
            };
            let clean = solve(&a, &b, &opts, None, None).unwrap();
            assert!(clean.converged, "{name}");
            let cp = checkpoint_before_kill(solve, &a, &b, &opts, interval, 20);
            let resume_at = cp.iteration;
            assert!(
                resume_at > 0 && resume_at % opts.restart != 0,
                "{name}: {resume_at}"
            );
            let res = resume(solve, &a, &b, &opts, cp);
            assert!(res.converged, "{name}: resumed solve must converge");
            assert!(
                res.iterations > resume_at,
                "{name}: iterations are cumulative"
            );
            assert_eq!(res.history.len(), res.iterations + 1, "{name}");
            let (r_res, r_clean) = (residual(&a, &res.x, &b), residual(&a, &clean.x, &b));
            assert!(
                r_res <= 10.0 * r_clean + 1e-12,
                "{name}: {r_res:e} vs {r_clean:e}"
            );
        }
    }

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
                ls.column(k)[i] = entry(i, k);
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
        ls.column(0)[..2].fill(0.0);
        assert!(ls.rotate_in(0, 1e-14).is_none());
        // Taken with no threshold, the zero pivot makes R singular.
        assert_eq!(ls.rotate_in(0, -1.0), Some(0.0));
        assert!(ls.solve(1).is_none());
    }
}
