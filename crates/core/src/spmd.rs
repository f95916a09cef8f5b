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

use crate::decomp::Decomposition;
use crate::error::{CoarseOutcome, DeflationSource, PhaseOutcome, RunReport, SpmdError};
use crate::geneo::{
    nicolaides_fallback_block, resize_block, try_deflation_block_ordered, GeneoOpts,
};
use crate::masters::{group_of, nonuniform_masters, uniform_masters};
use crate::recovery::RecoveryOpts;
use crate::resident::{HaloPlan, MasterSolve, PreparedMulti};
use dd_comm::{CommError, Communicator};
use dd_krylov::{CheckpointCfg, GmresOpts, SolveInterrupt};
use dd_linalg::{CooBuilder, CsrMatrix, DMat};
use dd_solver::{DistLdlt, LdltBackend, Ordering, PivotPolicy, SparseLdlt};

const TAG_T: u64 = 101; // S_j / U_j exchanges (Algorithm 1)
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
pub(crate) fn solve_failpoint(comm: &Communicator, label: &str) -> Result<(), SolveInterrupt> {
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

/// Phases 1–3 of the paper's method (local factorization, GenEO deflation,
/// coarse assembly + factorization by Algorithms 1–2) on one subdomain per
/// rank, returning the resident [`PreparedMulti`] filled with the identity
/// owner map. Equivalent to [`try_run_spmd`] stopped just before the solve
/// phase: the communication/trace sequence is identical, so the conformance
/// goldens pin this path too. Resets the virtual clock, so phase times are
/// absolute.
pub fn try_setup<'a>(
    decomp: &'a Decomposition,
    comm: &'a Communicator,
    opts: &SpmdOpts,
) -> Result<PreparedMulti<'a>, SpmdError> {
    let n = comm.size();
    assert_eq!(n, decomp.n_subdomains(), "one rank per subdomain");
    let rank = comm.rank();
    let sub = &decomp.subdomains[rank];
    let mut run = RunReport::default();
    // The identity owner map: rank r hosts subdomain r alone.
    let owned = vec![rank];
    let starts = vec![0, sub.n_local()];
    let host: Vec<usize> = (0..n).collect();
    let halo = HaloPlan::build(decomp, comm, &owned, &starts, &host);
    comm.try_barrier()?;
    comm.reset_clock();
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
    let mut e_solve: Option<MasterSolve> = None;
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
                            .map(|factor| (e, factor))
                            .map_err(|e| e.to_string())
                        })
                    };
                    match ef {
                        Ok((e, factor)) => {
                            comm.charge_flops(factor.flops_estimate());
                            nnz_e_factor = factor.nnz_l();
                            e_solve = Some(MasterSolve::Redundant { e, factor });
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
                        e_solve = Some(MasterSolve::Distributed(dist));
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
            e_solve = None;
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
    Ok(PreparedMulti {
        halo,
        decomp,
        comm,
        opts: opts.clone(),
        owned,
        starts,
        factors: vec![factor],
        w: vec![w],
        nu: nu_mine,
        split,
        master_comm,
        group_rows: group_ranks
            .iter()
            .map(|&r| offsets[r + 1] - offsets[r])
            .collect(),
        group_row0: offsets[group_ranks[0]],
        dim_e,
        nnz_e_factor,
        e_solve,
        run,
        coarse_solve_phase: "e-solve-dist",
        solve_phase: "solve",
        t_factorization,
        t_deflation,
        t_coarse,
        // A first set-up computes every coarse row and re-assembles nothing.
        fresh: vec![true; n],
        t_reassembly: 0.0,
        t_refactorization: 0.0,
    })
}

/// The driver body: [`try_setup`] + one [`PreparedMulti::try_apply`] on the
/// decomposition's own right-hand side. `ckpt` arms solver checkpointing
/// (the recovery driver passes a [`crate::recovery::CheckpointStore`]-backed
/// sink; the plain entry points pass `None` — checkpoint writes are
/// local-only either way, so fault-free canonical traces are unaffected).
pub(crate) fn run_inner(
    decomp: &Decomposition,
    comm: &Communicator,
    opts: &SpmdOpts,
    ckpt: Option<&CheckpointCfg<'_>>,
) -> Result<SpmdSolution, SpmdError> {
    let prepared = try_setup(decomp, comm, opts)?;
    let out = prepared.try_apply(&decomp.rhs_global, "solve", ckpt)?;
    let report = prepared.report(&out);
    // One subdomain per rank: the only owned local is this rank's.
    let x_local = out.locals.into_iter().map(|(_, x)| x).next();
    Ok(SpmdSolution {
        report,
        x_local: x_local.unwrap_or_default(),
    })
}

/// Debug/test helper: perform the full SPMD set-up and apply `P⁻¹_A-DEF1`
/// once to `R_i r_global`, then piece by piece, returning the local
/// `(z, q, A q, RAS(r − A q))` and (on masters, in redundant mode) the
/// assembled coarse matrix E. Hidden from docs; used to cross-check the
/// distributed application against the sequential one and the distributed
/// coarse solve against the redundant one.
#[doc(hidden)]
pub fn debug_apply_adef1(
    decomp: &Decomposition,
    comm: &Communicator,
    r_global: &[f64],
    nev: usize,
    coarse: CoarseSolve,
) -> Result<((Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>), Option<CsrMatrix>), SpmdError> {
    let opts = SpmdOpts {
        geneo: GeneoOpts {
            nev,
            ..Default::default()
        },
        coarse_solve: coarse,
        ..Default::default()
    };
    try_setup(decomp, comm, &opts)?.debug_apply_adef1(r_global)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomp::decompose;
    use crate::problem::presets;
    use dd_comm::World;
    use dd_linalg::vector;
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
