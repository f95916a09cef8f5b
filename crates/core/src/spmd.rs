//! The SPMD (distributed) driver: one rank per subdomain, mirroring the
//! paper's implementation on the `dd-comm` runtime.
//!
//! Every phase follows the paper:
//!
//! 1. factor the local Dirichlet matrix `A_i` (MUMPS/PARDISO stand-in);
//! 2. solve the local GenEO eigenproblem (ARPACK stand-in), then uniformize
//!    `ν` via `Allreduce(MAX)` (§3.2);
//! 3. assemble the coarse operator with **Algorithms 1–2**: neighborhood
//!    exchange of `S_j = R_j R_iᵀ T_i`, block products, master election,
//!    index-free slave→master messages (`|O_i| + ν² (1 + |O_i|)` doubles),
//!    master-side index computation, redundant factorization on
//!    `masterComm` (documented substitution for a distributed solver);
//! 4. run preconditioned GMRES with distributed SpMV (eq. 5),
//!    partition-of-unity inner products, the RAS/A-DEF1 preconditioners,
//!    and the coarse correction of §3.2 (`gather(v)` → `E⁻¹` →
//!    `scatter(v)` → neighbor consistency sum, eq. 12);
//! 5. optionally use the pipelined or *fused* p1-GMRES of §3.5, where the
//!    Gram reductions ride on the coarse gather/scatter plus one
//!    `MPI_Iallreduce` among masters overlapped with the coarse solve.
//!
//! All heavy local computations run under [`Communicator::compute`] so the
//! virtual clocks produce the scaling tables of Figures 8, 10 and 11.

use std::cell::RefCell;

use crate::decomp::{Decomposition, Subdomain};
use crate::error::{CoarseOutcome, DeflationSource, PhaseOutcome, RunReport, SpmdError};
use crate::geneo::{
    nicolaides_fallback_block, resize_block, try_deflation_block_ordered, GeneoOpts,
};
use crate::masters::{group_of, nonuniform_masters, uniform_masters};
use crate::recovery::RecoveryOpts;
use dd_comm::{CommError, Communicator};
use dd_krylov::{
    fused_pipelined_gmres, pipelined_gmres, try_gmres, try_gmres_multi, CheckpointCfg,
    FusedPreconditioner, GmresOpts, InnerProduct, Operator, Preconditioner, RecycleSpace,
    SolveInterrupt, SolveResult, SolveStatus,
};
use dd_linalg::{vector, CooBuilder, CsrMatrix, DMat};
use dd_solver::{DistLdlt, LdltBackend, LocalLdlt, Ordering, PivotPolicy, SparseLdlt};

const TAG_T: u64 = 101; // S_j / U_j exchanges (Algorithm 1)

const TAG_X: u64 = 103; // SpMV / consistency exchanges
const TAG_NU: u64 = 104; // neighborhood ν exchange

/// Master election strategy (§3.1.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Election {
    Uniform,
    NonUniform,
}

/// Coarse-assembly variant (§3.1.1): the paper's improved index-free
/// algorithm vs. the "natural" approach where slaves also ship global
/// row/column indices (the ablation).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AssemblyVariant {
    IndexFree,
    NaturalGatherv,
}

/// Which Krylov loop drives the solve.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SolverKind {
    Classical,
    Pipelined,
    Fused,
}

/// How the coarse operator `E` is factored and applied on the masters
/// (§3.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum CoarseSolve {
    /// The paper's distributed scheme: `E` is partitioned into the masters'
    /// block rows (the uniform / non-uniform election boundaries), factored
    /// by a block fan-in LDLᵀ over `masterComm`
    /// ([`dd_solver::DistLdlt`]), and applied with distributed triangular
    /// solves — per-master factor memory and flops scale as `1/P`.
    #[default]
    Distributed,
    /// Every master gathers the full `E` (allgather of the triples) and
    /// factors it redundantly — the documented substitution of earlier
    /// revisions, kept for differential testing and the ablation bench.
    Redundant,
}

/// Options for [`run_spmd`].
#[derive(Clone)]
pub struct SpmdOpts {
    pub geneo: GeneoOpts,
    /// Number of masters `P`.
    pub n_masters: usize,
    pub election: Election,
    pub assembly: AssemblyVariant,
    pub ordering: Ordering,
    /// Backend for the subdomain `A_i` factorizations. `Supernodal`
    /// (default) uses the blocked multifrontal kernels; `Scalar` keeps the
    /// pre-supernodal rounding for bisecting convergence diffs (same
    /// pivoting, different — equally valid — summation order).
    pub local_ldlt: LdltBackend,
    pub gmres: GmresOpts,
    pub solver: SolverKind,
    /// Use the one-level RAS preconditioner only (the Figure 1/7 baseline).
    pub one_level_only: bool,
    /// Distributed vs redundant coarse factorization/solve on the masters.
    pub coarse_solve: CoarseSolve,
    /// Shrink-and-continue recovery from rank death (see
    /// [`crate::recovery::try_run_spmd_recoverable`]).
    pub recovery: RecoveryOpts,
}

impl Default for SpmdOpts {
    fn default() -> Self {
        SpmdOpts {
            geneo: GeneoOpts::default(),
            n_masters: 2,
            election: Election::NonUniform,
            assembly: AssemblyVariant::IndexFree,
            ordering: Ordering::MinDegree,
            local_ldlt: LdltBackend::Supernodal,
            gmres: GmresOpts {
                tol: 1e-6,
                max_iters: 600,
                // Left preconditioning, as in the paper's implementation:
                // the monitored quantity is the preconditioned residual.
                // (Right preconditioning monitors the true residual, which
                // under extreme coefficient contrast hits its attainable-
                // accuracy floor barely below the paper's 1e-6 tolerance —
                // fine for the sequential convergence figures, brittle for
                // the scaling sweeps.)
                side: dd_krylov::Side::Left,
                ..Default::default()
            },
            solver: SolverKind::Classical,
            one_level_only: false,
            coarse_solve: CoarseSolve::default(),
            recovery: RecoveryOpts::default(),
        }
    }
}

/// Per-rank report: virtual-time phase breakdown (Figures 8/10) and coarse
/// operator statistics (Figure 11).
#[derive(Clone, Debug)]
pub struct SpmdReport {
    pub rank: usize,
    /// Virtual seconds, per phase (synchronized at phase boundaries, so the
    /// values are the modeled parallel times).
    pub t_factorization: f64,
    pub t_deflation: f64,
    pub t_coarse: f64,
    pub t_solution: f64,
    pub t_total: f64,
    pub iterations: usize,
    pub converged: bool,
    pub final_residual: f64,
    /// ν used by this rank (uniform across ranks after the Allreduce).
    pub nu: usize,
    pub dim_e: usize,
    /// nnz of the LDLᵀ factor of E (masters only; 0 on slaves).
    pub nnz_e_factor: usize,
    /// |O_i| of this rank.
    pub n_neighbors: usize,
    /// World-communicator collective calls during the solution phase
    /// (per rank), to compare synchronization counts across solver kinds.
    pub world_collectives_solution: u64,
    pub p2p_messages: u64,
    pub p2p_bytes: u64,
    /// Payload bytes through collectives on ALL communicators this rank
    /// touched (world + splitComm + masterComm).
    pub collective_bytes: u64,
    /// Relative residual history of the solve (if recorded).
    pub history: Vec<f64>,
    /// Per-phase outcomes, fallbacks taken, and fault counters.
    pub run: RunReport,
}

// --------------------------------------------------------------------- SPMD
// helper: neighbor exchange of shared values (the communication pattern of
// both the SpMV (eq. 5) and the coarse prolongation (eq. 12)).

struct RankCtx<'a> {
    comm: &'a Communicator,
    sub: &'a Subdomain,
}

impl RankCtx<'_> {
    /// `out += Σ_{j ∈ O_i} R_i R_jᵀ t_j`, where this rank contributes its
    /// own `t` values on each shared region.
    fn exchange_add(&self, t: &[f64], out: &mut [f64]) {
        // send my shared slices
        for link in &self.sub.neighbors {
            let payload: Vec<f64> = link.shared.iter().map(|&k| t[k as usize]).collect();
            self.comm.send(link.j, TAG_X, payload);
        }
        for link in &self.sub.neighbors {
            let recv: Vec<f64> = self.comm.recv(link.j, TAG_X);
            debug_assert_eq!(recv.len(), link.shared.len());
            for (&k, &v) in link.shared.iter().zip(&recv) {
                out[k as usize] += v;
            }
        }
    }

    /// Fallible [`RankCtx::exchange_add`]: halo receives run under the
    /// communicator's ambient [`dd_comm::RetryPolicy`] and a dead or
    /// revoked peer surfaces as a [`SolveInterrupt`] instead of a panic.
    fn try_exchange_add(&self, t: &[f64], out: &mut [f64]) -> Result<(), SolveInterrupt> {
        let policy = self.comm.retry_policy();
        for link in &self.sub.neighbors {
            let payload: Vec<f64> = link.shared.iter().map(|&k| t[k as usize]).collect();
            self.comm.send(link.j, TAG_X, payload);
        }
        for link in &self.sub.neighbors {
            let recv: Vec<f64> = self
                .comm
                .try_recv_timeout(link.j, TAG_X, &policy)
                .map_err(comm_interrupt)?;
            debug_assert_eq!(recv.len(), link.shared.len());
            for (&k, &v) in link.shared.iter().zip(&recv) {
                out[k as usize] += v;
            }
        }
        Ok(())
    }
}

/// Wrap a communication error as a solver interrupt, preserving the typed
/// error as the downcastable source.
pub(crate) fn comm_interrupt(e: CommError) -> SolveInterrupt {
    SolveInterrupt::with_source(format!("communication failure: {e}"), Box::new(e))
}

/// Reason prefix of interrupts raised by a triggered solve-phase failpoint;
/// [`interrupt_to_spmd`] recovers the failpoint label from it.
pub(crate) const KILLED_AT: &str = "killed at failpoint ";

/// A [`Communicator::failpoint`] raised as a [`SolveInterrupt`] (for kills
/// armed inside solver callbacks, where errors travel through dd-krylov).
fn solve_failpoint(comm: &Communicator, label: &str) -> Result<(), SolveInterrupt> {
    comm.failpoint(label)
        .map_err(|e| SolveInterrupt::with_source(format!("{KILLED_AT}{label}"), Box::new(e)))
}

/// Classify a communication error observed directly by the driver: our own
/// death at a failpoint becomes the typed kill, everything else stays a
/// communication failure.
pub(crate) fn classify_comm(comm: &Communicator, e: CommError) -> SpmdError {
    classify_comm_at(comm, e, &comm.trace_phase_name())
}

/// [`classify_comm`] with an explicit phase label for the own-death case —
/// for failpoints buried in lower layers (e.g. [`DistLdlt`]) whose
/// [`CommError::RankDead`] no longer carries the label, and which run on
/// untraced worlds where the telemetry phase is unavailable.
pub(crate) fn classify_comm_at(comm: &Communicator, e: CommError, phase: &str) -> SpmdError {
    match e {
        CommError::RankDead { rank } if rank == comm.world_rank() => {
            if comm.is_world_rank_evicted(rank) {
                SpmdError::Evicted { rank }
            } else {
                SpmdError::Killed {
                    rank,
                    phase: phase.to_string(),
                }
            }
        }
        other => SpmdError::Comm(other),
    }
}

/// Wrap a [`DistLdlt`]-layer error as a [`SolveInterrupt`], tagging our own
/// death with the failpoint label so [`interrupt_to_spmd`] classifies it.
pub(crate) fn dist_interrupt(comm: &Communicator, e: CommError, label: &str) -> SolveInterrupt {
    match &e {
        CommError::RankDead { rank } if *rank == comm.world_rank() => {
            SolveInterrupt::with_source(format!("{KILLED_AT}{label}"), Box::new(e))
        }
        _ => comm_interrupt(e),
    }
}

/// Classify an interrupted Krylov solve: unwrap the boxed communication
/// error and map our own death to [`SpmdError::Killed`] (tagged with the
/// failpoint label when the interrupt came from one, else the trace phase),
/// a peer's death or a revocation to [`SpmdError::Comm`].
pub(crate) fn interrupt_to_spmd(comm: &Communicator, interrupt: SolveInterrupt) -> SpmdError {
    // A residual-sanity guard's suspected-SDC classification: the world is
    // healthy, the solve state is poisoned — typed so the recovery driver
    // rolls back and replays instead of treating it as a protocol bug.
    if let Some(s) = interrupt.sdc() {
        return SpmdError::SuspectedCorruption {
            rank: comm.rank(),
            iteration: s.iteration,
            recurred: s.recurred,
            recomputed: s.recomputed,
        };
    }
    let phase = interrupt
        .reason()
        .strip_prefix(KILLED_AT)
        .map(str::to_string);
    let reason = interrupt.reason().to_string();
    match interrupt.take_source().map(|s| s.downcast::<CommError>()) {
        Some(Ok(e)) => match *e {
            CommError::RankDead { rank } if rank == comm.world_rank() => {
                if comm.is_world_rank_evicted(rank) {
                    SpmdError::Evicted { rank }
                } else {
                    SpmdError::Killed {
                        rank,
                        phase: phase.unwrap_or_else(|| comm.trace_phase_name()),
                    }
                }
            }
            other => SpmdError::Comm(other),
        },
        Some(Err(other)) => SpmdError::Protocol {
            rank: comm.rank(),
            what: format!("solve interrupted: {other}"),
        },
        None => SpmdError::Protocol {
            rank: comm.rank(),
            what: format!("solve interrupted: {reason}"),
        },
    }
}

/// Distributed operator: `(Ax)_i = Σ_j R_i R_jᵀ A_j D_j x_j` (eq. 5).
struct DistOp<'a> {
    ctx: RankCtx<'a>,
    /// Warm-path scratch `(D_j x_j, A_j D_j x_j)`: sized on the first
    /// apply, reused by every later one so the per-iteration SpMV
    /// allocates nothing at this layer (`warm-loop-alloc` pins it).
    scratch: RefCell<(Vec<f64>, Vec<f64>)>,
}

impl<'a> DistOp<'a> {
    fn new(ctx: RankCtx<'a>) -> Self {
        DistOp {
            ctx,
            scratch: RefCell::default(),
        }
    }

    // dd:hot — per-Krylov-iteration SpMV; scratch reuse keeps it allocation-free
    fn local_part_into(&self, x: &[f64], w: &mut Vec<f64>, t: &mut Vec<f64>) {
        let s = self.ctx.sub;
        self.ctx.comm.compute(|| {
            w.clear();
            w.extend_from_slice(x);
            vector::scale_by(&s.d, w);
            t.clear();
            t.resize(s.n_local(), 0.0);
            s.spmv_dirichlet(w, t);
        });
        self.ctx
            .comm
            .charge_flops((2 * s.a_dirichlet.nnz() + s.n_local()) as u64);
    }
}

impl Operator for DistOp<'_> {
    fn dim(&self) -> usize {
        self.ctx.sub.n_local()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        let mut scratch = self.scratch.borrow_mut();
        let (w, t) = &mut *scratch;
        self.local_part_into(x, w, t);
        y.copy_from_slice(t);
        self.ctx.exchange_add(t, y);
    }

    // dd:hot
    fn try_apply(&self, x: &[f64], y: &mut [f64]) -> Result<(), SolveInterrupt> {
        let mut scratch = self.scratch.borrow_mut();
        let (w, t) = &mut *scratch;
        self.local_part_into(x, w, t);
        y.copy_from_slice(t);
        self.ctx.try_exchange_add(t, y)
    }
}

/// Distributed inner product: `⟨u, v⟩ = Σ_i (D_i u_i)ᵀ v_i` reduced over
/// ranks — exact thanks to the partition of unity.
struct DistDot<'a> {
    comm: &'a Communicator,
    d: &'a [f64],
}

impl InnerProduct for DistDot<'_> {
    fn local_dot(&self, x: &[f64], y: &[f64]) -> f64 {
        let mut acc = 0.0;
        for k in 0..x.len() {
            acc += self.d[k] * x[k] * y[k];
        }
        self.comm.charge_flops(3 * x.len() as u64);
        acc
    }

    fn reduce(&self, locals: Vec<f64>) -> Vec<f64> {
        self.comm.allreduce_sum_vec(locals)
    }

    fn try_reduce(&self, locals: Vec<f64>) -> Result<Vec<f64>, SolveInterrupt> {
        self.comm
            .try_allreduce_sum_vec(locals)
            .map_err(comm_interrupt)
    }

    fn reduce_begin<'b>(&'b self, locals: Vec<f64>) -> Box<dyn FnOnce() -> Vec<f64> + 'b> {
        let pending = self.comm.iallreduce_sum_vec(locals);
        let comm = self.comm;
        Box::new(move || comm.wait_reduce(pending))
    }

    // dd:hot — runs once per Krylov iteration on every rank
    fn on_iteration(&self, k: usize) {
        self.comm.trace_iteration(k);
        // The `solve-iteration-K` failpoints: kills armed here take the
        // rank down at a *specific* Krylov iteration, deep enough into the
        // solve that checkpoints exist for the survivors to resume from.
        // A triggered failpoint marks this rank gone; the iteration's next
        // reduction surfaces the death as a typed error. The label is only
        // built when a fault plan is armed — production solves must not
        // pay a heap allocation per iteration for fault injection.
        if self.comm.failpoints_armed() {
            // dd:cold — fault-injection runs only
            let _ = self.comm.failpoint(&format!("solve-iteration-{k}"));
        } else {
            // Every iteration still records the heartbeat the failpoint
            // would have (the suspicion policy's progress signal).
            self.comm.heartbeat();
        }
    }
}

/// Distributed one-level RAS: `z_i = Σ_j R_i R_jᵀ D_j A_j⁻¹ r_j`.
struct DistRas<'a> {
    ctx: RankCtx<'a>,
    factor: &'a LocalLdlt,
    /// Warm-path scratch `D_j A_j⁻¹ r_j`, reused across applies.
    scratch: RefCell<Vec<f64>>,
}

impl<'a> DistRas<'a> {
    fn new(ctx: RankCtx<'a>, factor: &'a LocalLdlt) -> Self {
        DistRas {
            ctx,
            factor,
            scratch: RefCell::default(),
        }
    }

    // dd:hot — per-iteration local solve; scratch reuse keeps this layer allocation-free
    fn local_part_into(&self, r: &[f64], t: &mut Vec<f64>) {
        let s = self.ctx.sub;
        self.ctx.comm.compute(|| {
            t.clear();
            t.extend_from_slice(r);
            self.factor.solve_in_place(t);
            vector::scale_by(&s.d, t);
        });
        self.ctx
            .comm
            .charge_flops((4 * self.factor.nnz_l() + s.n_local()) as u64);
    }
}

impl Preconditioner for DistRas<'_> {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        let mut t = self.scratch.borrow_mut();
        self.local_part_into(r, &mut t);
        z.copy_from_slice(&t);
        self.ctx.exchange_add(&t, z);
    }

    // dd:hot
    fn try_apply(&self, r: &[f64], z: &mut [f64]) -> Result<(), SolveInterrupt> {
        // The `ras` failpoint: kills armed here take the rank down in the
        // middle of a preconditioner application, mid-solve.
        solve_failpoint(self.ctx.comm, "ras")?;
        let mut t = self.scratch.borrow_mut();
        self.local_part_into(r, &mut t);
        z.copy_from_slice(&t);
        self.ctx.try_exchange_add(&t, z)
    }
}

/// A master's handle on `E⁻¹`: either the redundant full factorization or
/// its share of the distributed block factorization.
pub(crate) enum MasterSolve<'a> {
    Redundant(&'a SparseLdlt),
    Distributed(&'a DistLdlt),
}

/// Coarse-correction machinery shared by the rank's preconditioners.
struct DistCoarse<'a> {
    comm: &'a Communicator,
    split: &'a Communicator,
    /// Masters carry their communicator *and* their handle on `E⁻¹`
    /// together, so the happy path needs no unwrap: a rank either has both
    /// or participates as a slave.
    master: Option<(&'a Communicator, MasterSolve<'a>)>,
    sub: &'a Subdomain,
    /// This rank's deflation block (ν columns; ν may differ per rank, e.g.
    /// after a Nicolaides fallback on one subdomain).
    w: &'a DMat,
    /// Coarse offsets r_i for all ranks.
    offsets: &'a [usize],
    /// World ranks of my split group, in split order.
    group_ranks: &'a [usize],
    dim_e: usize,
}

impl DistCoarse<'_> {
    /// `z_i = (Z E⁻¹ Zᵀ u)_i` (§3.2), optionally carrying a fused payload
    /// of local reduction contributions. Returns the reduced payload.
    fn correction(&self, u: &[f64], z: &mut [f64], payload: Vec<f64>) -> Vec<f64> {
        self.try_correction(u, z, payload)
            .unwrap_or_else(|e| panic!("coarse correction on rank {}: {e}", self.comm.rank()))
    }

    /// Fallible [`DistCoarse::correction`]: every collective runs through
    /// its `try_` variant so a dead rank or a revocation surfaces as a
    /// [`SolveInterrupt`] the Krylov loop propagates.
    fn try_correction(
        &self,
        u: &[f64],
        z: &mut [f64],
        payload: Vec<f64>,
    ) -> Result<Vec<f64>, SolveInterrupt> {
        let nu = self.w.cols();
        let plen = payload.len();
        // step 1: w_i = W_iᵀ u_i, gathered on the master (payload appended).
        let mut wi = vec![0.0; nu];
        self.comm.compute(|| self.w.gemv_t(1.0, u, 0.0, &mut wi));
        self.comm.charge_flops(2 * (nu * self.sub.n_local()) as u64);
        let mut msg = wi;
        msg.extend_from_slice(&payload);
        let gathered = self.split.try_gather(0, msg).map_err(comm_interrupt)?;
        // step 2: masters solve E y = w — distributed (each master solves
        // its block row cooperatively) or redundant (allgather the full
        // RHS, solve locally). `gather` returns `Some` exactly on the
        // split root, which is the master.
        let y_and_payload: Vec<f64> =
            if let (Some((master, solve)), Some(parts)) = (self.master.as_ref(), &gathered) {
                // group RHS in split order + summed payload; each sender's ν
                // comes from the offsets table, not our own block width.
                let mut group_w = Vec::new();
                let mut pay = vec![0.0; plen];
                for (k, part) in parts.iter().enumerate() {
                    let wr = self.group_ranks[k];
                    let nu_k = self.offsets[wr + 1] - self.offsets[wr];
                    group_w.extend_from_slice(&part[..nu_k]);
                    for (a, b) in pay.iter_mut().zip(&part[nu_k..]) {
                        *a += b;
                    }
                }
                // Post the payload reduction among masters; overlap with the
                // coarse solve (the §3.5 fusion).
                let pending = if plen > 0 {
                    Some(master.iallreduce_sum_vec(pay))
                } else {
                    None
                };
                // Per-group-member slices of y, indexed like group_ranks.
                let pieces: Vec<Vec<f64>> = match solve {
                    MasterSolve::Redundant(e_factor) => {
                        let all_w = master.try_allgather(group_w).map_err(comm_interrupt)?;
                        let mut rhs = vec![0.0; self.dim_e];
                        let mut pos = 0;
                        for gw in &all_w {
                            rhs[pos..pos + gw.len()].copy_from_slice(gw);
                            pos += gw.len();
                        }
                        debug_assert_eq!(pos, self.dim_e);
                        let y = self.comm.compute(|| e_factor.solve(&rhs));
                        self.comm.charge_flops(4 * e_factor.nnz_l() as u64);
                        self.group_ranks
                            .iter()
                            .map(|&wr| y[self.offsets[wr]..self.offsets[wr + 1]].to_vec())
                            .collect()
                    }
                    MasterSolve::Distributed(dist) => {
                        // The gathered group RHS *is* this master's block
                        // row of w — no allgather, only the ν-sized slices
                        // already on the wire. Scope the cooperative solve
                        // under its own telemetry phase. (On error the
                        // phase is deliberately not restored, so the kill
                        // classification names "e-solve-dist".)
                        let prev = self.comm.trace_phase_name();
                        self.comm.trace_phase("e-solve-dist");
                        let y = dist
                            .try_solve(master, &group_w)
                            .map_err(|e| dist_interrupt(self.comm, e, "e-solve-dist"))?;
                        self.comm.trace_phase(&prev);
                        let r0 = dist.row_start();
                        self.group_ranks
                            .iter()
                            .map(|&wr| y[self.offsets[wr] - r0..self.offsets[wr + 1] - r0].to_vec())
                            .collect()
                    }
                };
                let reduced = match pending {
                    Some(p) => master.wait_reduce(p),
                    None => Vec::new(),
                };
                // step 3a: scatter y_i (+ reduced payload) back to the group.
                let pieces: Vec<Vec<f64>> = pieces
                    .into_iter()
                    .map(|mut piece| {
                        piece.extend_from_slice(&reduced);
                        piece
                    })
                    .collect();
                self.split
                    .try_scatter(0, Some(pieces))
                    .map_err(comm_interrupt)?
            } else {
                self.split.try_scatter(0, None).map_err(comm_interrupt)?
            };
        let (yi, reduced) = y_and_payload.split_at(nu);
        // step 3b: z_i = W_i y_i plus the consistency sum (eq. 12).
        let mut zi = vec![0.0; self.sub.n_local()];
        self.comm.compute(|| self.w.gemv(1.0, yi, 0.0, &mut zi));
        self.comm.charge_flops(2 * (nu * self.sub.n_local()) as u64);
        z.copy_from_slice(&zi);
        let ctx = RankCtx {
            comm: self.comm,
            sub: self.sub,
        };
        ctx.try_exchange_add(&zi, z)?;
        Ok(reduced.to_vec())
    }
}

/// Distributed two-level preconditioner `P⁻¹_A-DEF1` (eq. 6).
struct DistADef1<'a> {
    op: DistOp<'a>,
    ras: DistRas<'a>,
    coarse: DistCoarse<'a>,
    /// Warm-path scratch `(q, t)` for eq. 6, reused across applies.
    scratch: RefCell<(Vec<f64>, Vec<f64>)>,
}

impl<'a> DistADef1<'a> {
    fn new(op: DistOp<'a>, ras: DistRas<'a>, coarse: DistCoarse<'a>) -> Self {
        DistADef1 {
            op,
            ras,
            coarse,
            scratch: RefCell::default(),
        }
    }
}

impl Preconditioner for DistADef1<'_> {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        let _ = self.apply_fused(r, z, Vec::new());
    }

    // dd:hot — per-iteration two-level application (eq. 6)
    fn try_apply(&self, r: &[f64], z: &mut [f64]) -> Result<(), SolveInterrupt> {
        let n = r.len();
        let mut scratch = self.scratch.borrow_mut();
        let (q, t) = &mut *scratch;
        // q = (Z E⁻¹ Zᵀ r)_i — one coarse solve.
        q.clear();
        q.resize(n, 0.0);
        // dd:cold — capacity-0 `Vec::new` marks "no fused payload"; it never
        // touches the heap
        self.coarse.try_correction(r, q, Vec::new())?;
        // t = r − A q
        t.clear();
        t.resize(n, 0.0);
        self.op.try_apply(q, t)?;
        for k in 0..n {
            t[k] = r[k] - t[k];
        }
        // z = RAS t + q
        self.ras.try_apply(t, z)?;
        vector::axpy(1.0, q, z);
        Ok(())
    }
}

impl FusedPreconditioner for DistADef1<'_> {
    fn apply_fused(&self, r: &[f64], z: &mut [f64], payload: Vec<f64>) -> Vec<f64> {
        let n = r.len();
        let mut scratch = self.scratch.borrow_mut();
        let (q, t) = &mut *scratch;
        // q = (Z E⁻¹ Zᵀ r)_i — one coarse solve, carrying the payload.
        q.clear();
        q.resize(n, 0.0);
        let reduced = self.coarse.correction(r, q, payload);
        // t = r − A q
        t.clear();
        t.resize(n, 0.0);
        self.op.apply(q, t);
        for k in 0..n {
            t[k] = r[k] - t[k];
        }
        // z = RAS t + q
        self.ras.apply(t, z);
        vector::axpy(1.0, q, z);
        reduced
    }
}

/// The per-rank result of a full SPMD solve (locals of the solution).
pub struct SpmdSolution {
    pub report: SpmdReport,
    pub x_local: Vec<f64>,
}

/// Run the full method on one rank, panicking on any error — the
/// fault-oblivious entry point. See [`try_run_spmd`] for the fallible
/// variant chaos tests and fault-tolerant callers use.
pub fn run_spmd(decomp: &Decomposition, comm: &Communicator, opts: &SpmdOpts) -> SpmdSolution {
    try_run_spmd(decomp, comm, opts)
        .unwrap_or_else(|e| panic!("SPMD solve failed on rank {}: {e}", comm.rank()))
}

/// Run the full method on one rank. `decomp` is the shared (read-only)
/// decomposition; `comm` is the world communicator; the rank's subdomain is
/// `decomp.subdomains[comm.rank()]`.
///
/// Recoverable failures degrade gracefully and are recorded in the report's
/// [`RunReport`]: a failed local eigensolve falls back to the Nicolaides
/// coarse space for that subdomain; a failed coarse factorization drops
/// every rank to the one-level RAS preconditioner. Unrecoverable failures
/// (dead ranks, deadlocks, a failed local Dirichlet factorization) surface
/// as [`SpmdError`]; on error the rank marks itself gone so its peers
/// observe [`dd_comm::CommError::RankDead`] instead of hanging.
pub fn try_run_spmd(
    decomp: &Decomposition,
    comm: &Communicator,
    opts: &SpmdOpts,
) -> Result<SpmdSolution, SpmdError> {
    let out = run_inner(decomp, comm, opts, None);
    if out.is_err() {
        comm.abandon();
    }
    out
}

/// Map a triggered failpoint into the typed kill error.
fn failpoint(comm: &Communicator, phase: &'static str) -> Result<(), SpmdError> {
    comm.failpoint(phase).map_err(|_| SpmdError::Killed {
        rank: comm.world_rank(),
        phase: phase.to_string(),
    })
}

/// The resident state of a fully set-up SPMD solve on one rank: the
/// factorized local Dirichlet solver, the (resized) GenEO deflation block
/// `W_i`, the split/master communicators of the election, and this rank's
/// handle on the factorized coarse operator `E`. Produced by [`try_setup`];
/// [`PreparedSolver::try_apply`] then runs phase 4 (the preconditioned
/// Krylov solve) against any right-hand side, reentrantly — the
/// amortization seam the `dd-serve` crate is built on.
///
/// Borrows the decomposition and world communicator for its lifetime; the
/// split communicators are owned.
pub struct PreparedSolver<'a> {
    decomp: &'a Decomposition,
    comm: &'a Communicator,
    opts: SpmdOpts,
    factor: LocalLdlt,
    w: DMat,
    nu_mine: usize,
    split: Communicator,
    master_comm: Option<Communicator>,
    group_ranks: Vec<usize>,
    offsets: Vec<usize>,
    dim_e: usize,
    nnz_e_factor: usize,
    e_factor: Option<SparseLdlt>,
    e_dist: Option<DistLdlt>,
    /// Phase outcomes through setup ("factorization"/"deflation"/"coarse");
    /// [`PreparedSolver::report`] extends a clone with the solve outcome.
    run: RunReport,
    t_factorization: f64,
    t_deflation: f64,
    t_coarse: f64,
}

/// The per-apply result of [`PreparedSolver::try_apply`]: the Krylov
/// outcome plus the virtual-time and communication-counter deltas of this
/// application (p2p/collective totals are cumulative communicator stats,
/// as in [`SpmdReport`]).
pub struct ApplyOutcome {
    pub result: SolveResult,
    /// Virtual seconds spent in this apply (synchronized by the trailing
    /// barrier, so the value is the modeled parallel time).
    pub t_solution: f64,
    /// World-communicator collective calls during this apply (per rank).
    pub world_collectives_solution: u64,
    pub p2p_messages: u64,
    pub p2p_bytes: u64,
    pub collective_bytes: u64,
}

/// Phases 1–3 of the paper's method (local factorization, GenEO deflation,
/// coarse assembly + factorization), returning the resident
/// [`PreparedSolver`]. Equivalent to [`try_run_spmd`] stopped just before
/// the solve phase: the communication/trace sequence is identical, so the
/// conformance goldens pin this path too.
pub fn try_setup<'a>(
    decomp: &'a Decomposition,
    comm: &'a Communicator,
    opts: &SpmdOpts,
) -> Result<PreparedSolver<'a>, SpmdError> {
    try_setup_with(decomp, comm, opts, true)
}

/// [`try_setup`] with control over the virtual-clock reset. One-shot runs
/// reset the clock so phase times are absolute; a resident server doing a
/// mid-stream re-setup (membership change, inadmissible parameter) passes
/// `reset_clock = false` to keep its request clock monotone — phase times
/// are measured as deltas either way.
pub fn try_setup_with<'a>(
    decomp: &'a Decomposition,
    comm: &'a Communicator,
    opts: &SpmdOpts,
    reset_clock: bool,
) -> Result<PreparedSolver<'a>, SpmdError> {
    let n = comm.size();
    assert_eq!(n, decomp.n_subdomains(), "one rank per subdomain");
    let rank = comm.rank();
    let sub = &decomp.subdomains[rank];
    let mut run = RunReport::default();
    comm.try_barrier()?;
    if reset_clock {
        comm.reset_clock();
    }
    let clk_start = comm.clock();
    comm.trace_phase("factorization");

    // ---- phase 1: local factorization --------------------------------
    // Unrecoverable: without A_i⁻¹ this rank has no RAS contribution.
    // The subdomain is analysed once: the elimination order found here
    // also serves the shifted GenEO pencil of phase 2.
    let (order, factor) = comm
        .compute(|| sub.factor_dirichlet(opts.ordering, opts.local_ldlt))
        .map_err(|source| SpmdError::LocalFactorization { rank, source })?;
    run.phases.push(("factorization", PhaseOutcome::Ok));
    failpoint(comm, "post-factorization")?;
    comm.try_barrier()?;
    let clk_factored = comm.clock();
    let t_factorization = clk_factored - clk_start;
    comm.trace_phase("deflation");
    failpoint(comm, "deflation")?;

    // ---- phase 2: deflation (GenEO eigensolve + Allreduce(MAX)) ------
    let eig = if comm.should_fail("eigensolve") {
        Err(None)
    } else {
        comm.compute(|| try_deflation_block_ordered(sub, &opts.geneo, &order, opts.local_ldlt))
            .map_err(Some)
    };
    let block = match eig {
        Ok(b) => {
            run.deflation = DeflationSource::Geneo;
            run.phases.push(("deflation", PhaseOutcome::Ok));
            b
        }
        Err(e) => {
            // Graceful degradation: substitute the partition-of-unity
            // weighted kernel modes (Nicolaides) for this subdomain only;
            // the other ranks keep their GenEO vectors.
            let reason = match e {
                Some(e) => format!("eigensolve failed ({e}); Nicolaides fallback"),
                None => "eigensolve fault injected; Nicolaides fallback".to_string(),
            };
            run.deflation = DeflationSource::NicolaidesFallback;
            run.phases
                .push(("deflation", PhaseOutcome::Degraded { reason }));
            comm.compute(|| nicolaides_fallback_block(sub))
        }
    };
    let nu = if opts.one_level_only {
        0
    } else {
        comm.try_allreduce_max_usize(block.kept.max(1))?
    };
    let w = resize_block(&block, nu);
    let nu_mine = w.cols();
    if opts.one_level_only || nu_mine == 0 {
        run.deflation = DeflationSource::None;
    }
    failpoint(comm, "post-deflation")?;
    comm.try_barrier()?;
    let clk_deflated = comm.clock();
    let t_deflation = clk_deflated - clk_factored;
    comm.trace_phase("assembly:split");

    // ---- phase 3: coarse operator (Algorithms 1 and 2) ----------------
    let masters = match opts.election {
        Election::Uniform => uniform_masters(n, opts.n_masters.min(n)),
        Election::NonUniform => nonuniform_masters(n, opts.n_masters.min(n)),
    };
    let my_group = group_of(rank, &masters);
    let split = comm
        .try_split(Some(my_group))?
        .ok_or(SpmdError::SplitFailed { rank })?;
    split.set_trace_label("splitComm");
    let is_master = split.rank() == 0;
    let master_comm = comm.try_split(if is_master { Some(0) } else { None })?;
    if let Some(m) = master_comm.as_ref() {
        m.set_trace_label("masterComm");
    }
    let group_ranks: Vec<usize> = {
        // split preserves world order; reconstruct the group's world ranks
        let start = masters[my_group];
        let end = if my_group + 1 < masters.len() {
            masters[my_group + 1]
        } else {
            n
        };
        (start..end).collect()
    };

    let mut dim_e = 0usize;
    let mut nnz_e_factor = 0usize;
    let mut e_factor: Option<SparseLdlt> = None;
    let mut e_dist: Option<DistLdlt> = None;
    let mut offsets = vec![0usize; n + 1];
    // Reason the coarse factorization failed (set on the failing master).
    let mut coarse_failed: Option<String> = None;
    // Set on every rank once the failure flag has been agreed on.
    let mut coarse_fallback: Option<String> = None;

    // Every rank takes this branch together (the guard depends only on
    // shared options), so the collective pattern stays uniform even when a
    // subdomain contributes no deflation vectors.
    if !opts.one_level_only {
        // ν exchange on the neighborhood topology (uniform ν makes the
        // values known a priori, but the call mirrors Algorithm 1 line 1
        // and supports the non-uniform ablation).
        comm.trace_phase("assembly:nu");
        let nbr_ranks: Vec<usize> = sub.neighbors.iter().map(|l| l.j).collect();
        let nu_neighbors =
            comm.neighbor_alltoall(&nbr_ranks, TAG_NU, vec![nu_mine as u64; nbr_ranks.len()]);
        comm.trace_phase("assembly:exchange");
        // T_i = A_i W_i, E_ii = W_iᵀ T_i (csrmm + gemm).
        let (t_i, e_ii) = comm.compute(|| {
            let t = sub.mm_dirichlet(&w);
            let mut eii = DMat::zeros(nu_mine, nu_mine);
            w.gemm_tn(1.0, &t, 0.0, &mut eii);
            (t, eii)
        });
        // S_j = R_j R_iᵀ T_i exchanged with each neighbor (Algorithm 1).
        for (link, _) in sub.neighbors.iter().zip(&nu_neighbors) {
            let mut payload = Vec::with_capacity(link.shared.len() * nu_mine);
            for q in 0..nu_mine {
                let col = t_i.col(q);
                payload.extend(link.shared.iter().map(|&k| col[k as usize]));
            }
            comm.send(link.j, TAG_T, payload);
        }
        // E_ij = W_iᵀ U_j for each neighbor (Algorithm 1 lines 9–12).
        let mut e_ij: Vec<DMat> = Vec::with_capacity(sub.neighbors.len());
        for (link, &nu_j) in sub.neighbors.iter().zip(&nu_neighbors) {
            let u: Vec<f64> = comm.recv(link.j, TAG_T);
            let nu_j = nu_j as usize;
            debug_assert_eq!(u.len(), link.shared.len() * nu_j);
            let block = comm.compute(|| {
                let mut e = DMat::zeros(nu_mine, nu_j);
                for q in 0..nu_j {
                    let ucol = &u[q * link.shared.len()..(q + 1) * link.shared.len()];
                    for p in 0..nu_mine {
                        let wcol = w.col(p);
                        let mut acc = 0.0;
                        for (&k, &uv) in link.shared.iter().zip(ucol) {
                            acc += wcol[k as usize] * uv;
                        }
                        e[(p, q)] = acc;
                    }
                }
                e
            });
            e_ij.push(block);
        }

        // ---- Algorithm 2: gather on the masters ----
        // All ranks learn all ν to compute offsets r_i. Uniform ν makes
        // this a formality; we allgather for generality (O(log N), equal
        // counts).
        comm.trace_phase("assembly:gather");
        let all_nu = comm.try_allgather(nu_mine as u64)?;
        for i in 0..n {
            offsets[i + 1] = offsets[i] + all_nu[i] as usize;
        }
        dim_e = offsets[n];

        // Row-block triples of E owned by this rank, in global indices.
        let build_triples = |with_indices: bool| -> (Vec<u64>, Vec<u64>, Vec<f64>) {
            let mut rows = Vec::new();
            let mut cols = Vec::new();
            let mut vals = Vec::new();
            let ri = offsets[rank];
            for p in 0..nu_mine {
                for q in 0..nu_mine {
                    if with_indices {
                        rows.push((ri + p) as u64);
                        cols.push((ri + q) as u64);
                    }
                    vals.push(e_ii[(p, q)]);
                }
            }
            for (link, blk) in sub.neighbors.iter().zip(&e_ij) {
                let rj = offsets[link.j];
                for p in 0..blk.rows() {
                    for q in 0..blk.cols() {
                        if with_indices {
                            rows.push((ri + p) as u64);
                            cols.push((rj + q) as u64);
                        }
                        vals.push(blk[(p, q)]);
                    }
                }
            }
            (rows, cols, vals)
        };

        // Gather row blocks on the master of the group.
        let group_triples: Option<Vec<(Vec<u64>, Vec<u64>, Vec<f64>)>> = match opts.assembly {
            AssemblyVariant::IndexFree => {
                // The paper's improved scheme: slaves send only the values,
                // prefixed by O_i; masters recompute the indices.
                let mut msg: Vec<f64> = Vec::new();
                msg.push(sub.neighbors.len() as f64);
                for link in &sub.neighbors {
                    msg.push(link.j as f64);
                }
                let (_, _, vals) = build_triples(false);
                msg.extend_from_slice(&vals);
                let gathered = split.gatherv(0, msg);
                gathered.map(|msgs| {
                    msgs.iter()
                        .enumerate()
                        .map(|(sr, m)| {
                            let world = group_ranks[sr];
                            let n_nbr = m[0] as usize;
                            let nbrs: Vec<usize> = (0..n_nbr).map(|k| m[1 + k] as usize).collect();
                            let vals = &m[1 + n_nbr..];
                            // recompute indices exactly as the slave laid
                            // out its values: diagonal block then each
                            // neighbor block in O_i order.
                            let ri = offsets[world];
                            let nui = (offsets[world + 1] - offsets[world]) as usize;
                            let mut rows = Vec::with_capacity(vals.len());
                            let mut cols = Vec::with_capacity(vals.len());
                            for p in 0..nui {
                                for q in 0..nui {
                                    rows.push((ri + p) as u64);
                                    cols.push((ri + q) as u64);
                                }
                            }
                            for &j in &nbrs {
                                let rj = offsets[j];
                                let nuj = offsets[j + 1] - offsets[j];
                                for p in 0..nui {
                                    for q in 0..nuj {
                                        rows.push((ri + p) as u64);
                                        cols.push((rj + q) as u64);
                                    }
                                }
                            }
                            assert_eq!(rows.len(), vals.len(), "index-free layout mismatch");
                            (rows, cols, vals.to_vec())
                        })
                        .collect()
                })
            }
            AssemblyVariant::NaturalGatherv => {
                // The "natural" scheme: three gatherv's shipping indices
                // computed by the slaves (more bytes on the wire).
                let (rows, cols, vals) = build_triples(true);
                let gr = split.gatherv(0, rows);
                let gc = split.gatherv(0, cols);
                let gv = split.gatherv(0, vals);
                match (gr, gc, gv) {
                    (Some(r), Some(c), Some(v)) => Some(
                        r.into_iter()
                            .zip(c)
                            .zip(v)
                            .map(|((r, c), v)| (r, c, v))
                            .collect(),
                    ),
                    _ => None,
                }
            }
        };

        // Masters: merge the group triples (this master's block row of E,
        // already delivered by the group gatherv), then factor. A failed
        // factorization (near-singular E, or an injected "coarse-factor"
        // fault) is *recoverable*: the flag is agreed on below and every
        // rank drops to one-level RAS together.
        if let Some(master) = master_comm.as_ref() {
            let mut rows: Vec<u64> = Vec::new();
            let mut cols: Vec<u64> = Vec::new();
            let mut vals: Vec<f64> = Vec::new();
            let triples = group_triples.ok_or_else(|| SpmdError::Protocol {
                rank,
                what: "master received no gatherv result".to_string(),
            })?;
            for (r, c, v) in triples {
                rows.extend(r);
                cols.extend(c);
                vals.extend(v);
            }
            match opts.coarse_solve {
                CoarseSolve::Redundant => {
                    // Allgather the triples among masters so every master
                    // holds and factors the full E (the earlier scheme).
                    comm.trace_phase("e-factorization");
                    let all_rows = master.try_allgather(rows)?;
                    let all_cols = master.try_allgather(cols)?;
                    let all_vals = master.try_allgather(vals)?;
                    let ef = if comm.should_fail("coarse-factor") {
                        Err("coarse-factor fault injected".to_string())
                    } else {
                        comm.compute(|| {
                            let mut coo = CooBuilder::new(dim_e, dim_e);
                            for ((rs, cs), vs) in all_rows.iter().zip(&all_cols).zip(&all_vals) {
                                for ((&r, &c), &v) in rs.iter().zip(cs).zip(vs) {
                                    coo.push(r as usize, c as usize, v);
                                }
                            }
                            let e: CsrMatrix = coo.to_csr();
                            // Static pivoting, as in the sequential coarse
                            // operator.
                            SparseLdlt::factor_with(
                                &e,
                                opts.ordering,
                                PivotPolicy::Boost { rel_tol: 1e-12 },
                            )
                            .map_err(|e| e.to_string())
                        })
                    };
                    match ef {
                        Ok(f) => {
                            comm.charge_flops(f.flops_estimate());
                            nnz_e_factor = f.nnz_l();
                            e_factor = Some(f);
                        }
                        Err(reason) => coarse_failed = Some(reason),
                    }
                }
                CoarseSolve::Distributed => {
                    // The paper's scheme: no allgather — each master keeps
                    // only its block row and the masters factor E together
                    // (block fan-in LDLᵀ over masterComm).
                    comm.trace_phase("e-factorization-dist");
                    // The cooperative factorization deadlocks if one master
                    // silently sits out, so injected faults are agreed on
                    // among masters *before* anyone commits to it.
                    let fail_here = comm.should_fail("coarse-factor");
                    if master.try_allreduce_max_usize(usize::from(fail_here))? > 0 {
                        if fail_here {
                            coarse_failed = Some("coarse-factor fault injected".to_string());
                        }
                    } else {
                        // Block-row boundaries of E = the election
                        // boundaries mapped to coarse rows (group coarse
                        // rows are contiguous).
                        let mut bounds: Vec<usize> = masters.iter().map(|&m| offsets[m]).collect();
                        bounds.push(dim_e);
                        let r0 = bounds[master.rank()];
                        let np = bounds[master.rank() + 1] - r0;
                        // Only the upper row strip is kept (§3.1.1: "only
                        // the upper part of E is assembled") — sub-diagonal
                        // values live transposed in earlier masters' strips.
                        let strip = comm.compute(|| {
                            let mut s = DMat::zeros(np, dim_e - r0);
                            for ((&r, &c), &v) in rows.iter().zip(&cols).zip(&vals) {
                                if c as usize >= r0 {
                                    s[(r as usize - r0, c as usize - r0)] += v;
                                }
                            }
                            s
                        });
                        let dist = DistLdlt::try_factor(master, bounds, strip)
                            .map_err(|e| classify_comm_at(comm, e, "e-factorization-dist"))?;
                        nnz_e_factor = dist.nnz_l();
                        e_dist = Some(dist);
                    }
                }
            }
            comm.trace_phase("assembly:gather");
        }
        // Agree on the outcome: the preconditioner application is
        // collective, so if any master failed to factor E every rank must
        // fall back together.
        let any_failed = comm.try_allreduce_max_usize(usize::from(coarse_failed.is_some()))? > 0;
        if any_failed {
            e_factor = None;
            e_dist = None;
            nnz_e_factor = 0;
            let reason = match coarse_failed.take() {
                Some(r) => format!("coarse factorization failed ({r}); one-level RAS fallback"),
                None => {
                    "coarse factorization failed on a master; one-level RAS fallback".to_string()
                }
            };
            coarse_fallback = Some(reason);
        }
    }
    run.coarse = if opts.one_level_only {
        CoarseOutcome::OneLevelRequested
    } else if coarse_fallback.is_some() {
        CoarseOutcome::OneLevelFallback
    } else if dim_e == 0 {
        CoarseOutcome::EmptyCoarse
    } else {
        CoarseOutcome::TwoLevel
    };
    run.phases.push((
        "coarse",
        match &coarse_fallback {
            Some(reason) => PhaseOutcome::Degraded {
                reason: reason.clone(),
            },
            None => PhaseOutcome::Ok,
        },
    ));
    failpoint(comm, "post-assembly")?;
    comm.try_barrier()?;
    let t_coarse = comm.clock() - clk_deflated;
    Ok(PreparedSolver {
        decomp,
        comm,
        opts: opts.clone(),
        factor,
        w,
        nu_mine,
        split,
        master_comm,
        group_ranks,
        offsets,
        dim_e,
        nnz_e_factor,
        e_factor,
        e_dist,
        run,
        t_factorization,
        t_deflation,
        t_coarse,
    })
}

impl PreparedSolver<'_> {
    pub fn rank(&self) -> usize {
        self.comm.rank()
    }

    /// ν of this rank's deflation block (uniform after the Allreduce,
    /// unless a fallback shrank it).
    pub fn nu(&self) -> usize {
        self.nu_mine
    }

    pub fn dim_e(&self) -> usize {
        self.dim_e
    }

    /// What the coarse level degraded to during setup (two-level, one-level
    /// fallback, ...).
    pub fn coarse(&self) -> CoarseOutcome {
        self.run.coarse
    }

    /// Phase outcomes and fallbacks of the setup phases.
    pub fn setup_report(&self) -> &RunReport {
        &self.run
    }

    /// Virtual seconds of the three setup phases
    /// (factorization, deflation, coarse).
    pub fn setup_times(&self) -> (f64, f64, f64) {
        (self.t_factorization, self.t_deflation, self.t_coarse)
    }

    /// Phase 4 against an arbitrary global right-hand side: the
    /// preconditioned Krylov solve using the resident factorizations,
    /// reentrant in `&self`. `phase` labels the telemetry scope (the
    /// one-shot driver passes `"solve"`; `dd-serve` passes
    /// `"serve-apply"`, which `dd-lint` checks for re-factorization).
    pub fn try_apply(
        &self,
        rhs_global: &[f64],
        phase: &str,
        ckpt: Option<&CheckpointCfg<'_>>,
    ) -> Result<ApplyOutcome, SpmdError> {
        self.apply_inner(None, rhs_global, phase, ckpt, None)
    }

    /// [`PreparedSolver::try_apply`] with a Krylov recycle space threaded
    /// through (classical GMRES only): the initial guess is projected onto
    /// previously harvested directions and the converged increment is
    /// banked. Convergence is still anchored to `tol · ‖b‖`, so accuracy
    /// matches an unrecycled apply.
    pub fn try_apply_recycled(
        &self,
        rhs_global: &[f64],
        phase: &str,
        recycle: &mut RecycleSpace,
    ) -> Result<ApplyOutcome, SpmdError> {
        self.apply_inner(None, rhs_global, phase, None, Some(recycle))
    }

    /// [`PreparedSolver::try_apply`] with this rank's subdomain overridden
    /// — the parameter-perturbation path of `dd-serve`: the Krylov loop
    /// runs against the *perturbed* operator (so the answer is the
    /// perturbed system's solution) while RAS and the coarse correction
    /// reuse the resident factorizations built at the base parameter,
    /// which stay admissible preconditioners for bounded perturbations.
    /// The override must share the base subdomain's mesh/overlap layout
    /// (same dofs, neighbors, and partition of unity).
    pub fn try_apply_on(
        &self,
        sub: &Subdomain,
        rhs_global: &[f64],
        phase: &str,
        recycle: Option<&mut RecycleSpace>,
    ) -> Result<ApplyOutcome, SpmdError> {
        self.apply_inner(Some(sub), rhs_global, phase, None, recycle)
    }

    fn apply_inner(
        &self,
        sub_override: Option<&Subdomain>,
        rhs_global: &[f64],
        phase: &str,
        ckpt: Option<&CheckpointCfg<'_>>,
        mut recycle: Option<&mut RecycleSpace>,
    ) -> Result<ApplyOutcome, SpmdError> {
        let comm = self.comm;
        let own_sub = &self.decomp.subdomains[comm.rank()];
        let sub = sub_override.unwrap_or(own_sub);
        debug_assert_eq!(
            sub.n_local(),
            own_sub.n_local(),
            "layout-compatible override"
        );
        comm.trace_phase(phase);

        // ---- phase 4: solve --------------------------------------------
        let clk_entry = comm.clock();
        let stats_before = comm.stats();
        let ctx_op = RankCtx { comm, sub };
        let op = DistOp::new(ctx_op);
        let ip = DistDot { comm, d: &sub.d };
        let rhs_local = sub.restrict(rhs_global);
        let x0 = vec![0.0; sub.n_local()];

        let two_level = self.run.coarse == CoarseOutcome::TwoLevel;
        let result: SolveResult = if !two_level {
            let ras = DistRas::new(RankCtx { comm, sub }, &self.factor);
            self.solve_classical(
                &op,
                &ras,
                &ip,
                &rhs_local,
                &x0,
                ckpt,
                recycle.as_deref_mut(),
            )?
        } else {
            let adef1 = DistADef1::new(
                DistOp::new(RankCtx { comm, sub }),
                DistRas::new(RankCtx { comm, sub }, &self.factor),
                DistCoarse {
                    comm,
                    split: &self.split,
                    master: self.master_comm.as_ref().and_then(|m| {
                        self.e_dist
                            .as_ref()
                            .map(|d| (m, MasterSolve::Distributed(d)))
                            .or_else(|| {
                                self.e_factor
                                    .as_ref()
                                    .map(|f| (m, MasterSolve::Redundant(f)))
                            })
                    }),
                    sub,
                    w: &self.w,
                    offsets: &self.offsets,
                    group_ranks: &self.group_ranks,
                    dim_e: self.dim_e,
                },
            );
            match self.opts.solver {
                SolverKind::Classical => {
                    self.solve_classical(&op, &adef1, &ip, &rhs_local, &x0, ckpt, recycle)?
                }
                SolverKind::Pipelined => {
                    pipelined_gmres(&op, &adef1, &ip, &rhs_local, &x0, &self.opts.gmres)
                }
                SolverKind::Fused => {
                    fused_pipelined_gmres(&op, &adef1, &ip, &rhs_local, &x0, &self.opts.gmres)
                }
            }
        };
        comm.try_barrier()?;
        let t_solution = comm.clock() - clk_entry;
        let stats_after = comm.stats();
        Ok(ApplyOutcome {
            result,
            t_solution,
            world_collectives_solution: stats_after.collective_calls
                - stats_before.collective_calls,
            p2p_messages: stats_after.p2p_messages,
            p2p_bytes: stats_after.p2p_bytes,
            collective_bytes: stats_after.collective_bytes
                + self.split.stats().collective_bytes
                + self
                    .master_comm
                    .as_ref()
                    .map_or(0, |m| m.stats().collective_bytes),
        })
    }

    /// The classical-GMRES arm, with or without recycling. (The pipelined
    /// and fused variants have no fallible/recycled entry points, so the
    /// recycle space only engages here.)
    #[allow(clippy::too_many_arguments)]
    fn solve_classical<M>(
        &self,
        op: &DistOp<'_>,
        precond: &M,
        ip: &DistDot<'_>,
        rhs_local: &[f64],
        x0: &[f64],
        ckpt: Option<&CheckpointCfg<'_>>,
        recycle: Option<&mut RecycleSpace>,
    ) -> Result<SolveResult, SpmdError>
    where
        M: Preconditioner,
    {
        let comm = self.comm;
        match recycle {
            None => try_gmres(op, precond, ip, rhs_local, x0, &self.opts.gmres, ckpt)
                .map_err(|si| interrupt_to_spmd(comm, si)),
            Some(space) => {
                let batch = [rhs_local.to_vec()];
                try_gmres_multi(op, precond, ip, &batch, x0, &self.opts.gmres, Some(space))
            }
            .map_err(|si| interrupt_to_spmd(comm, si))?
            .into_iter()
            .next()
            .ok_or_else(|| SpmdError::Protocol {
                rank: comm.rank(),
                what: "empty multi-solve result".to_string(),
            }),
        }
    }

    /// Assemble the full [`SpmdReport`] for one apply — the same report
    /// [`try_run_spmd`] produces, with the setup phases' outcomes and a
    /// clone of the setup [`RunReport`] extended by the solve outcome.
    pub fn report(&self, out: &ApplyOutcome) -> SpmdReport {
        let comm = self.comm;
        let result = &out.result;
        let mut run = self.run.clone();
        run.phases.push((
            "solve",
            if result.status == SolveStatus::Converged && result.breakdown_restarts == 0 {
                PhaseOutcome::Ok
            } else {
                PhaseOutcome::Degraded {
                    reason: format!(
                        "{} after {} breakdown restart(s)",
                        result.status, result.breakdown_restarts
                    ),
                }
            },
        ));
        run.solve_status = result.status;
        run.breakdown_restarts = result.breakdown_restarts;
        run.faults = comm.fault_stats();
        SpmdReport {
            rank: comm.rank(),
            t_factorization: self.t_factorization,
            t_deflation: self.t_deflation,
            t_coarse: self.t_coarse,
            t_solution: out.t_solution,
            t_total: comm.clock(),
            iterations: result.iterations,
            converged: result.converged,
            final_residual: result.final_residual,
            nu: self.nu_mine,
            dim_e: self.dim_e,
            nnz_e_factor: self.nnz_e_factor,
            n_neighbors: self.decomp.subdomains[comm.rank()].neighbors.len(),
            world_collectives_solution: out.world_collectives_solution,
            p2p_messages: out.p2p_messages,
            p2p_bytes: out.p2p_bytes,
            collective_bytes: out.collective_bytes,
            history: result.history.clone(),
            run,
        }
    }
}

/// The driver body. `ckpt` arms solver checkpointing (the recovery driver
/// passes a [`crate::recovery::CheckpointStore`]-backed sink; the plain
/// entry points pass `None` — checkpoint writes are local-only either way,
/// so fault-free canonical traces are unaffected). Since the setup/apply
/// split this is exactly [`try_setup`] + one [`PreparedSolver::try_apply`]
/// on the decomposition's own right-hand side — same code path, same
/// trace sequence.
pub(crate) fn run_inner(
    decomp: &Decomposition,
    comm: &Communicator,
    opts: &SpmdOpts,
    ckpt: Option<&CheckpointCfg<'_>>,
) -> Result<SpmdSolution, SpmdError> {
    let prepared = try_setup(decomp, comm, opts)?;
    let out = prepared.try_apply(&decomp.rhs_global, "solve", ckpt)?;
    let report = prepared.report(&out);
    Ok(SpmdSolution {
        report,
        x_local: out.result.x,
    })
}

/// Debug/test helper: perform the full SPMD setup and apply `P⁻¹_A-DEF1`
/// once to `R_i r_global`, returning the local result and (on masters, in
/// redundant mode) the assembled coarse matrix E. Hidden from docs; used to
/// cross-check the distributed application against the sequential one and
/// the distributed coarse solve against the redundant one.
#[doc(hidden)]
pub fn debug_apply_adef1(
    decomp: &Decomposition,
    comm: &Communicator,
    r_global: &[f64],
    nev: usize,
    coarse: CoarseSolve,
) -> Result<((Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>), Option<CsrMatrix>), SpmdError> {
    let n = comm.size();
    let rank = comm.rank();
    let sub = &decomp.subdomains[rank];
    let opts = SpmdOpts {
        geneo: GeneoOpts {
            nev,
            ..Default::default()
        },
        coarse_solve: coarse,
        ..Default::default()
    };
    let (order, factor) = sub
        .factor_dirichlet(opts.ordering, opts.local_ldlt)
        .map_err(|source| SpmdError::LocalFactorization { rank, source })?;
    let block =
        try_deflation_block_ordered(sub, &opts.geneo, &order, opts.local_ldlt).map_err(|e| {
            SpmdError::Protocol {
                rank,
                what: format!("eigensolve failed: {e}"),
            }
        })?;
    let nu = comm.try_allreduce_max_usize(block.kept.max(1))?;
    let w = resize_block(&block, nu);
    let nu_mine = w.cols();
    let masters = nonuniform_masters(n, opts.n_masters.min(n));
    let my_group = group_of(rank, &masters);
    let split = comm
        .try_split(Some(my_group))?
        .ok_or(SpmdError::SplitFailed { rank })?;
    let is_master = split.rank() == 0;
    let master_comm = comm.try_split(if is_master { Some(0) } else { None })?;
    let group_ranks: Vec<usize> = {
        let start = masters[my_group];
        let end = if my_group + 1 < masters.len() {
            masters[my_group + 1]
        } else {
            n
        };
        (start..end).collect()
    };
    let nbr_ranks: Vec<usize> = sub.neighbors.iter().map(|l| l.j).collect();
    let nu_neighbors =
        comm.neighbor_alltoall(&nbr_ranks, TAG_NU, vec![nu_mine as u64; nbr_ranks.len()]);
    let t_i = sub.mm_dirichlet(&w);
    let mut e_ii = DMat::zeros(nu_mine, nu_mine);
    w.gemm_tn(1.0, &t_i, 0.0, &mut e_ii);
    for link in &sub.neighbors {
        let mut payload = Vec::with_capacity(link.shared.len() * nu_mine);
        for q in 0..nu_mine {
            let col = t_i.col(q);
            payload.extend(link.shared.iter().map(|&k| col[k as usize]));
        }
        comm.send(link.j, TAG_T, payload);
    }
    let mut e_ij: Vec<DMat> = Vec::new();
    for (link, &nu_j) in sub.neighbors.iter().zip(&nu_neighbors) {
        let u: Vec<f64> = comm.recv(link.j, TAG_T);
        let nu_j = nu_j as usize;
        let mut e = DMat::zeros(nu_mine, nu_j);
        for q in 0..nu_j {
            let ucol = &u[q * link.shared.len()..(q + 1) * link.shared.len()];
            for p in 0..nu_mine {
                let wcol = w.col(p);
                let mut acc = 0.0;
                for (&k, &uv) in link.shared.iter().zip(ucol) {
                    acc += wcol[k as usize] * uv;
                }
                e[(p, q)] = acc;
            }
        }
        e_ij.push(e);
    }
    let all_nu = comm.try_allgather(nu_mine as u64)?;
    let mut offsets = vec![0usize; n + 1];
    for i in 0..n {
        offsets[i + 1] = offsets[i] + all_nu[i] as usize;
    }
    let dim_e = offsets[n];
    let mut msg: Vec<f64> = Vec::new();
    msg.push(sub.neighbors.len() as f64);
    for link in &sub.neighbors {
        msg.push(link.j as f64);
    }
    let ri = offsets[rank];
    for p in 0..nu_mine {
        for q in 0..nu_mine {
            msg.push(e_ii[(p, q)]);
        }
    }
    for (link, blk) in sub.neighbors.iter().zip(&e_ij) {
        let _ = link;
        for p in 0..blk.rows() {
            for q in 0..blk.cols() {
                msg.push(blk[(p, q)]);
            }
        }
    }
    let _ = ri;
    let gathered = split.gatherv(0, msg);
    let mut e_csr: Option<CsrMatrix> = None;
    let mut e_factor: Option<SparseLdlt> = None;
    let mut e_dist: Option<DistLdlt> = None;
    if let Some(master) = master_comm.as_ref() {
        let msgs = gathered.ok_or_else(|| SpmdError::Protocol {
            rank,
            what: "master received no gatherv result".to_string(),
        })?;
        let mut rows: Vec<u64> = Vec::new();
        let mut cols: Vec<u64> = Vec::new();
        let mut vals: Vec<f64> = Vec::new();
        for (sr, m) in msgs.iter().enumerate() {
            let world = group_ranks[sr];
            let n_nbr = m[0] as usize;
            let nbrs: Vec<usize> = (0..n_nbr).map(|k| m[1 + k] as usize).collect();
            let v = &m[1 + n_nbr..];
            let ri = offsets[world];
            let nui = offsets[world + 1] - offsets[world];
            let mut idx = 0;
            for p in 0..nui {
                for q in 0..nui {
                    rows.push((ri + p) as u64);
                    cols.push((ri + q) as u64);
                    vals.push(v[idx]);
                    idx += 1;
                }
            }
            for &j in &nbrs {
                let rj = offsets[j];
                let nuj = offsets[j + 1] - offsets[j];
                for p in 0..nui {
                    for q in 0..nuj {
                        rows.push((ri + p) as u64);
                        cols.push((rj + q) as u64);
                        vals.push(v[idx]);
                        idx += 1;
                    }
                }
            }
        }
        match coarse {
            CoarseSolve::Redundant => {
                let all_rows = master.try_allgather(rows)?;
                let all_cols = master.try_allgather(cols)?;
                let all_vals = master.try_allgather(vals)?;
                let mut coo = CooBuilder::new(dim_e, dim_e);
                for ((rs, cs), vs) in all_rows.iter().zip(&all_cols).zip(&all_vals) {
                    for ((&r, &c), &v) in rs.iter().zip(cs).zip(vs) {
                        coo.push(r as usize, c as usize, v);
                    }
                }
                let e = coo.to_csr();
                e_factor = Some(
                    SparseLdlt::factor_with(
                        &e,
                        opts.ordering,
                        PivotPolicy::Boost { rel_tol: 1e-12 },
                    )
                    .map_err(|e| SpmdError::Protocol {
                        rank,
                        what: format!("coarse factorization failed: {e}"),
                    })?,
                );
                e_csr = Some(e);
            }
            CoarseSolve::Distributed => {
                let mut bounds: Vec<usize> = masters.iter().map(|&m| offsets[m]).collect();
                bounds.push(dim_e);
                let r0 = bounds[master.rank()];
                let np = bounds[master.rank() + 1] - r0;
                let mut strip = DMat::zeros(np, dim_e - r0);
                for ((&r, &c), &v) in rows.iter().zip(&cols).zip(&vals) {
                    if c as usize >= r0 {
                        strip[(r as usize - r0, c as usize - r0)] += v;
                    }
                }
                e_dist = Some(DistLdlt::factor(master, bounds, strip));
            }
        }
    }
    let adef1 = DistADef1::new(
        DistOp::new(RankCtx { comm, sub }),
        DistRas::new(RankCtx { comm, sub }, &factor),
        DistCoarse {
            comm,
            split: &split,
            master: master_comm.as_ref().and_then(|m| {
                e_dist
                    .as_ref()
                    .map(|d| (m, MasterSolve::Distributed(d)))
                    .or_else(|| e_factor.as_ref().map(|f| (m, MasterSolve::Redundant(f))))
            }),
            sub,
            w: &w,
            offsets: &offsets,
            group_ranks: &group_ranks,
            dim_e,
        },
    );
    let r_local = sub.restrict(r_global);
    let mut z = vec![0.0; sub.n_local()];
    adef1.apply(&r_local, &mut z);
    // piecewise: recompute q and Aq for diagnostics
    let mut q = vec![0.0; sub.n_local()];
    adef1.coarse.correction(&r_local, &mut q, Vec::new());
    let mut aq = vec![0.0; sub.n_local()];
    adef1.op.apply(&q, &mut aq);
    let mut ras_out = vec![0.0; sub.n_local()];
    let t: Vec<f64> = r_local.iter().zip(&aq).map(|(a, b)| a - b).collect();
    adef1.ras.apply(&t, &mut ras_out);
    Ok(((z, q, aq, ras_out), e_csr))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomp::decompose;
    use crate::problem::presets;
    use dd_comm::World;
    use dd_mesh::Mesh;
    use dd_part::partition_mesh_rcb;
    use std::sync::Arc;

    fn setup(nmesh: usize, nparts: usize) -> Arc<Decomposition> {
        let mesh = Mesh::unit_square(nmesh, nmesh);
        let part = partition_mesh_rcb(&mesh, nparts);
        let p = presets::heterogeneous_diffusion(1);
        Arc::new(decompose(&mesh, &p, &part, nparts, 1))
    }

    fn spmd_solve(decomp: &Arc<Decomposition>, opts: &SpmdOpts) -> (Vec<SpmdReport>, Vec<f64>) {
        let n = decomp.n_subdomains();
        let d2 = Arc::clone(decomp);
        let opts = opts.clone();
        let sols = World::run_default(n, move |comm| {
            let s = run_spmd(&d2, comm, &opts);
            (s.report, s.x_local)
        });
        let reports: Vec<SpmdReport> = sols.iter().map(|(r, _)| r.clone()).collect();
        let locals: Vec<Vec<f64>> = sols.into_iter().map(|(_, x)| x).collect();
        let x = decomp.from_locals(&locals);
        (reports, x)
    }

    #[test]
    fn spmd_two_level_matches_sequential() {
        let decomp = setup(12, 4);
        let opts = SpmdOpts {
            geneo: GeneoOpts {
                nev: 5,
                ..Default::default()
            },
            gmres: GmresOpts {
                tol: 1e-8,
                max_iters: 200,
                ..Default::default()
            },
            ..Default::default()
        };
        let (reports, x) = spmd_solve(&decomp, &opts);
        assert!(reports.iter().all(|r| r.converged));
        // Same iteration count on all ranks (lockstep collectives).
        let it0 = reports[0].iterations;
        assert!(reports.iter().all(|r| r.iterations == it0));
        // Matches the direct solution.
        let direct = SparseLdlt::factor(&decomp.a_global, Ordering::MinDegree)
            .unwrap()
            .solve(&decomp.rhs_global);
        let rel = vector::dist2(&x, &direct) / vector::norm2(&direct);
        assert!(rel < 1e-4, "SPMD solution off by {rel}");
    }

    #[test]
    fn spmd_one_level_needs_more_iterations() {
        let decomp = setup(16, 8);
        let base = SpmdOpts {
            gmres: GmresOpts {
                tol: 1e-6,
                max_iters: 500,
                ..Default::default()
            },
            ..Default::default()
        };
        let one = SpmdOpts {
            one_level_only: true,
            ..base.clone()
        };
        let (r2, _) = spmd_solve(&decomp, &base);
        let (r1, _) = spmd_solve(&decomp, &one);
        assert!(r2[0].converged);
        assert!(
            r2[0].iterations * 2 < r1[0].iterations.max(1) || !r1[0].converged,
            "two-level {} vs one-level {}",
            r2[0].iterations,
            r1[0].iterations
        );
    }

    #[test]
    fn assembly_variants_agree_but_differ_in_bytes() {
        let decomp = setup(12, 4);
        let base = SpmdOpts {
            geneo: GeneoOpts {
                nev: 4,
                ..Default::default()
            },
            ..Default::default()
        };
        let natural = SpmdOpts {
            assembly: AssemblyVariant::NaturalGatherv,
            ..base.clone()
        };
        let (ri, xi) = spmd_solve(&decomp, &base);
        let (rn, xn) = spmd_solve(&decomp, &natural);
        assert!(ri[0].converged && rn[0].converged);
        assert_eq!(ri[0].iterations, rn[0].iterations, "same numerics expected");
        let rel = vector::dist2(&xi, &xn) / vector::norm2(&xi).max(1e-300);
        assert!(rel < 1e-12, "different solutions: {rel}");
    }

    #[test]
    fn elections_give_same_solution() {
        let decomp = setup(12, 6);
        let base = SpmdOpts {
            n_masters: 3,
            ..Default::default()
        };
        let uni = SpmdOpts {
            election: Election::Uniform,
            ..base.clone()
        };
        let (rn, xn) = spmd_solve(&decomp, &base);
        let (ru, xu) = spmd_solve(&decomp, &uni);
        assert!(rn[0].converged && ru[0].converged);
        let rel = vector::dist2(&xn, &xu) / vector::norm2(&xn).max(1e-300);
        assert!(rel < 1e-10);
    }

    #[test]
    fn fused_solver_converges_with_fewer_world_collectives() {
        let decomp = setup(14, 4);
        let base = SpmdOpts {
            geneo: GeneoOpts {
                nev: 5,
                ..Default::default()
            },
            gmres: GmresOpts {
                tol: 1e-6,
                max_iters: 300,
                ..Default::default()
            },
            ..Default::default()
        };
        let fused = SpmdOpts {
            solver: SolverKind::Fused,
            ..base.clone()
        };
        let (rc, xc) = spmd_solve(&decomp, &base);
        let (rf, xf) = spmd_solve(&decomp, &fused);
        assert!(rc[0].converged && rf[0].converged, "both must converge");
        let rel = vector::dist2(&xc, &xf) / vector::norm2(&xc).max(1e-300);
        assert!(rel < 1e-3, "solutions differ: {rel}");
        // The fused solver performs fewer world-communicator collectives
        // per iteration (no standalone orthogonalization reductions).
        let per_iter_classical =
            rc[0].world_collectives_solution as f64 / rc[0].iterations.max(1) as f64;
        let per_iter_fused =
            rf[0].world_collectives_solution as f64 / rf[0].iterations.max(1) as f64;
        assert!(
            per_iter_fused < per_iter_classical,
            "fused {per_iter_fused} !< classical {per_iter_classical}"
        );
    }

    #[test]
    fn spmd_elasticity_two_level() {
        let mesh = Mesh::rectangle(16, 4, 4.0, 1.0);
        let n_sub = 4;
        let part = partition_mesh_rcb(&mesh, n_sub);
        let p = presets::heterogeneous_elasticity(1, 2);
        let decomp = Arc::new(decompose(&mesh, &p, &part, n_sub, 1));
        let opts = SpmdOpts {
            geneo: GeneoOpts {
                nev: 8,
                ..Default::default()
            },
            gmres: GmresOpts {
                tol: 1e-8,
                max_iters: 400,
                ..Default::default()
            },
            ..Default::default()
        };
        let (reports, x) = {
            let d2 = Arc::clone(&decomp);
            let opts = opts.clone();
            let sols = World::run_default(n_sub, move |comm| {
                let s = run_spmd(&d2, comm, &opts);
                (s.report, s.x_local)
            });
            let reports: Vec<SpmdReport> = sols.iter().map(|(r, _)| r.clone()).collect();
            let locals: Vec<Vec<f64>> = sols.into_iter().map(|(_, x)| x).collect();
            let x = decomp.from_locals(&locals);
            (reports, x)
        };
        assert!(reports.iter().all(|r| r.converged));
        let direct = SparseLdlt::factor(&decomp.a_global, Ordering::MinDegree)
            .unwrap()
            .solve(&decomp.rhs_global);
        let rel = vector::dist2(&x, &direct) / vector::norm2(&direct);
        assert!(rel < 1e-3, "elasticity SPMD off by {rel}");
    }

    #[test]
    fn spmd_3d_diffusion() {
        let mesh = dd_mesh::Mesh::unit_cube(5, 5, 5);
        let n_sub = 4;
        let part = partition_mesh_rcb(&mesh, n_sub);
        let p = presets::heterogeneous_diffusion(1);
        let decomp = Arc::new(decompose(&mesh, &p, &part, n_sub, 1));
        let opts = SpmdOpts {
            geneo: GeneoOpts {
                nev: 6,
                ..Default::default()
            },
            ..Default::default()
        };
        let d2 = Arc::clone(&decomp);
        let reports = World::run_default(n_sub, move |comm| run_spmd(&d2, comm, &opts).report);
        assert!(reports.iter().all(|r| r.converged));
        assert!(reports[0].dim_e > 0);
    }

    #[test]
    fn pipelined_spmd_converges() {
        let decomp = setup(12, 4);
        let opts = SpmdOpts {
            solver: SolverKind::Pipelined,
            gmres: GmresOpts {
                tol: 1e-6,
                max_iters: 300,
                side: dd_krylov::Side::Left,
                ..Default::default()
            },
            ..Default::default()
        };
        let (reports, _) = spmd_solve(&decomp, &opts);
        assert!(reports.iter().all(|r| r.converged));
    }

    #[test]
    fn nonuniform_nu_from_threshold_still_correct() {
        // A spectral threshold makes each subdomain keep a different ν_i;
        // the Allreduce(MAX) uniformization is capped by what each rank
        // actually computed, so ν stays non-uniform across ranks and the
        // offset bookkeeping in Algorithms 1–2 is exercised for real.
        let decomp = setup(14, 6);
        let opts = SpmdOpts {
            geneo: GeneoOpts {
                nev: 8,
                threshold: Some(0.2),
                ..Default::default()
            },
            gmres: GmresOpts {
                tol: 1e-8,
                max_iters: 300,
                ..Default::default()
            },
            ..Default::default()
        };
        let (reports, x) = spmd_solve(&decomp, &opts);
        assert!(reports.iter().all(|r| r.converged));
        let direct = SparseLdlt::factor(&decomp.a_global, Ordering::MinDegree)
            .unwrap()
            .solve(&decomp.rhs_global);
        let rel = vector::dist2(&x, &direct) / vector::norm2(&direct);
        assert!(rel < 1e-4, "threshold run off by {rel}");
        assert_eq!(
            reports.iter().map(|r| r.nu).sum::<usize>(),
            reports[0].dim_e,
            "Σ ν_i must equal dim(E)"
        );
    }

    #[test]
    fn coarse_solve_modes_agree() {
        // The distributed block factorization must reproduce the redundant
        // solve bit-for-bit in iteration counts and to solver accuracy in
        // the solution; the distributed path must also shed the masters'
        // allgather bytes.
        let decomp = setup(14, 6);
        let base = SpmdOpts {
            geneo: GeneoOpts {
                nev: 4,
                ..Default::default()
            },
            n_masters: 3,
            gmres: GmresOpts {
                tol: 1e-8,
                max_iters: 300,
                ..Default::default()
            },
            ..Default::default()
        };
        let redundant = SpmdOpts {
            coarse_solve: CoarseSolve::Redundant,
            ..base.clone()
        };
        let (rd, xd) = spmd_solve(&decomp, &base);
        let (rr, xr) = spmd_solve(&decomp, &redundant);
        assert!(rd[0].converged && rr[0].converged);
        assert_eq!(rd[0].iterations, rr[0].iterations, "same numerics expected");
        let rel = vector::dist2(&xd, &xr) / vector::norm2(&xr).max(1e-300);
        assert!(rel < 1e-10, "modes disagree: {rel}");
        // Masters hold only their block row: the distributed factor is
        // strictly smaller than the redundant one on every master.
        let nnz_d: Vec<usize> = rd
            .iter()
            .map(|r| r.nnz_e_factor)
            .filter(|&z| z > 0)
            .collect();
        let nnz_r: Vec<usize> = rr
            .iter()
            .map(|r| r.nnz_e_factor)
            .filter(|&z| z > 0)
            .collect();
        assert_eq!(nnz_d.len(), nnz_r.len(), "same master count");
        assert!(
            nnz_d.iter().sum::<usize>() < nnz_r.iter().sum::<usize>(),
            "distributed factor should hold fewer entries per master"
        );
    }

    #[test]
    fn reports_have_sane_virtual_times() {
        let decomp = setup(10, 4);
        let (reports, _) = spmd_solve(&decomp, &SpmdOpts::default());
        for r in &reports {
            assert!(r.t_factorization >= 0.0);
            assert!(r.t_deflation >= 0.0);
            assert!(r.t_coarse >= 0.0);
            assert!(r.t_solution > 0.0);
            assert!(
                r.t_total >= r.t_factorization + r.t_deflation + r.t_coarse + r.t_solution - 1e-9
            );
            assert!(r.dim_e > 0);
        }
        // Masters report the factor size.
        assert!(reports.iter().any(|r| r.nnz_e_factor > 0));
    }
}
