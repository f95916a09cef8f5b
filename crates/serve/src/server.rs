//! The resident solve server.
//!
//! [`try_serve`] is the SPMD entry point: every rank of a world runs it
//! with the same decomposition and the same [`Workload`], performs the
//! setup phases *once* (local factorizations, GenEO deflation, coarse
//! factorization — the resident `dd_core::PreparedMulti`), then streams
//! the request batches through reentrant applies. A batch is one panel
//! apply (`PreparedMulti::try_apply_on`): its right-hand sides run as
//! recurrences that share every halo round, coarse solve and reduction, each
//! started from the operator's recycle space as it stood at the batch start,
//! so every answer is, to the bit, the single solve from that space. Three
//! things can happen to a batch:
//!
//! * **resident solve** — θ equals the resident operator's θ: a recycled
//!   apply on the prepared solver;
//! * **admissible reuse** — `|θ − θ_base| ≤ admissibility`: the solve runs
//!   against the *perturbed* operator `A(θ)` while the resident RAS
//!   factorizations and coarse `E` keep preconditioning it, so the answer
//!   is exact to tolerance and only the convergence rate pays for the lag.
//!   `A(θ)` is a diagonal shift of the resident `A(θ_base)`: the apply is
//!   passed `(θ − θ_base) / (1 + θ_base)` and forms no matrix;
//! * **re-setup** — θ drifted out of the admissible ball: the server
//!   re-factorizes at θ under the `serve-setup` trace phase (never inside
//!   `serve-apply` — a `dd-lint` rule pins that) and moves θ_base.
//!
//! Memory: nothing is kept per θ an admissible apply answers — the shift
//! is one number. A full perturbed decomposition is built only for a θ a
//! re-setup factors, and kept for the stream. A batch of at most
//! `BatcherCfg::max_batch_rhs` right-hand sides bounds the Krylov bases in
//! flight.
//!
//! Rank death, straggler eviction, and joins mid-stream funnel into the
//! same membership agreement the elastic solver uses — literally:
//! [`try_serve`] runs its epochs inside `dd_core::drive_epochs`, the loop
//! the solvers run theirs in. The next epoch re-prepares on the
//! repartitioned world (coarse rows ride the [`CoarseCache`]), a detected
//! wire corruption re-enters the epoch on the same world, and either way
//! the stream resumes at the first request whose response is incomplete.
//! Deposits into the shared [`ResponseStore`] are keyed
//! `(request, rhs, subdomain)` and written only after an apply's trailing
//! barrier, so a completed response is never re-solved and a partial one is
//! re-solved wholesale — no response mixes epochs.

use crate::batch::{plan_batches, Batch, BatcherCfg};
use crate::stream::Workload;
use dd_comm::{fnv1a_bytes, Communicator};
use dd_core::{
    drive_epochs, repartition_plan, try_setup_partitioned, Attempt, CoarseCache, Decomposition,
    PreparedMulti, SpmdError, SpmdOpts,
};
use dd_krylov::RecycleSpace;
use std::cell::OnceCell;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Server policy knobs on top of the usual [`SpmdOpts`].
#[derive(Clone)]
pub struct ServeOpts {
    pub spmd: SpmdOpts,
    pub batcher: BatcherCfg,
    /// Half-width of the admissible perturbation ball: a request at θ is
    /// preconditioned by the resident setup at θ_base while
    /// `|θ − θ_base| ≤ admissibility`; beyond it the server re-factorizes.
    pub admissibility: f64,
    /// Capacity of each operator's Krylov recycle space (0 disables
    /// recycling across the stream).
    pub recycle_dim: usize,
}

impl Default for ServeOpts {
    fn default() -> Self {
        ServeOpts {
            spmd: SpmdOpts::default(),
            batcher: BatcherCfg::default(),
            admissibility: 0.05,
            recycle_dim: 8,
        }
    }
}

/// Per-solve metadata deposited alongside each local solution piece.
#[derive(Clone, Debug, Default)]
pub struct SolveMeta {
    pub iterations: usize,
    pub converged: bool,
    pub final_residual: f64,
    /// The solve's relative residual history (`SolveResult::history`).
    pub history: Vec<f64>,
    /// Solved against a perturbed operator under the resident
    /// preconditioner (admissible reuse) rather than a matching setup.
    pub reused: bool,
}

#[derive(Clone, Debug, Default)]
struct Slot {
    /// Per-subdomain solution pieces, each stored with the FNV-1a checksum
    /// it was deposited under — the same at-rest discipline as the
    /// checkpoint store: a piece that no longer matches its sum reads back
    /// as *absent*, so the response counts as incomplete and is re-solved.
    locals: BTreeMap<usize, (Vec<f64>, u64)>,
    completed: f64,
    meta: SolveMeta,
}

/// FNV-1a 64 over a solution piece's bit pattern, salted with its length.
fn piece_sum(x: &[f64]) -> u64 {
    let bytes = x.iter().flat_map(|v| v.to_bits().to_le_bytes());
    fnv1a_bytes(x.len() as u64, bytes)
}

#[derive(Clone, Copy, Debug, Default)]
struct Counters {
    solves: usize,
    reused_applies: usize,
    resetups: usize,
    integrity_resolves: usize,
    t_setup: f64,
}

/// Shared response plane of a serving world — the analogue of the
/// checkpoint store: every rank deposits the local pieces of the solutions
/// it owns, and a response exists once all subdomains have deposited.
/// Deposits are idempotent per `(request, rhs, subdomain)` within an epoch
/// and last-writer-wins across epochs (a recovered epoch re-solves an
/// incomplete request wholesale, overwriting any partial pieces).
///
/// Every piece carries a checksum, verified on every read: at-rest
/// corruption makes the response incomplete again and the serving loop's
/// integrity pass re-solves it — a corrupted response is never returned.
#[derive(Default)]
pub struct ResponseStore {
    slots: Mutex<BTreeMap<(usize, usize), Slot>>,
    counters: Mutex<Counters>,
}

impl ResponseStore {
    pub fn new() -> Self {
        Self::default()
    }

    /// Deposit one subdomain's piece of the solution of `(req, rhs)`.
    /// `now` is the depositing rank's virtual clock; the response's
    /// completion instant is the max over deposits.
    pub fn deposit(
        &self,
        req: usize,
        rhs: usize,
        sub: usize,
        x: Vec<f64>,
        now: f64,
        meta: SolveMeta,
    ) {
        let sum = piece_sum(&x);
        let mut slots = self.slots.lock().unwrap_or_else(|p| p.into_inner());
        let slot = slots.entry((req, rhs)).or_default();
        slot.locals.insert(sub, (x, sum));
        slot.completed = slot.completed.max(now);
        slot.meta = meta;
    }

    /// Has `(req, rhs)` been deposited — and does it still verify — for
    /// all `nsubs` subdomains?
    pub fn is_complete(&self, req: usize, rhs: usize, nsubs: usize) -> bool {
        let slots = self.slots.lock().unwrap_or_else(|p| p.into_inner());
        slots.get(&(req, rhs)).is_some_and(|s| {
            s.locals.len() == nsubs && s.locals.values().all(|(x, sum)| piece_sum(x) == *sum)
        })
    }

    /// The deposited-and-verified `(subdomain, piece)` pairs of
    /// `(req, rhs)`, in subdomain order — what the protocol-level suites
    /// canonicalize. A piece failing verification is omitted.
    pub fn pieces(&self, req: usize, rhs: usize) -> Vec<(usize, Vec<f64>)> {
        let slots = self.slots.lock().unwrap_or_else(|p| p.into_inner());
        slots.get(&(req, rhs)).map_or_else(Vec::new, |s| {
            s.locals
                .iter()
                .filter(|(_, (x, sum))| piece_sum(x) == *sum)
                .map(|(&k, (v, _))| (k, v.clone()))
                .collect()
        })
    }

    /// Flip one mantissa bit of a deposited piece *without* refreshing its
    /// stored checksum — at-rest corruption for the chaos tests. Returns
    /// whether the piece existed.
    #[doc(hidden)]
    pub fn corrupt_for_tests(&self, req: usize, rhs: usize, sub: usize) -> bool {
        let mut slots = self.slots.lock().unwrap_or_else(|p| p.into_inner());
        let Some((x, _)) = slots
            .get_mut(&(req, rhs))
            .and_then(|s| s.locals.get_mut(&sub))
        else {
            return false;
        };
        match x.first_mut() {
            Some(x0) => {
                *x0 = f64::from_bits(x0.to_bits() ^ (1 << 17));
                true
            }
            None => false,
        }
    }

    fn note(&self, f: impl FnOnce(&mut Counters)) {
        let mut c = self.counters.lock().unwrap_or_else(|p| p.into_inner());
        f(&mut c);
    }

    fn snapshot(&self, req: usize, rhs: usize) -> Option<Slot> {
        let slots = self.slots.lock().unwrap_or_else(|p| p.into_inner());
        slots.get(&(req, rhs)).cloned()
    }

    fn counters(&self) -> Counters {
        *self.counters.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// One answered right-hand side, in stream order.
#[derive(Clone, Debug)]
pub struct Response {
    pub req: usize,
    pub rhs: usize,
    pub theta: f64,
    pub arrival: f64,
    /// Virtual instant the last solution piece was deposited.
    pub completed: f64,
    /// `completed − arrival` in virtual seconds.
    pub latency: f64,
    pub iterations: usize,
    pub converged: bool,
    pub final_residual: f64,
    pub history: Vec<f64>,
    /// Answered by admissible preconditioner reuse (no re-setup).
    pub reused: bool,
    /// Assembled global solution `Σ_i R_iᵀ D_i x_i`.
    pub x: Vec<f64>,
}

/// What a serving run produced, identical on every surviving rank.
#[derive(Clone, Debug)]
pub struct ServeReport {
    /// All responses, ordered by `(request, rhs)` = submission order.
    pub responses: Vec<Response>,
    pub n_requests: usize,
    /// Solve invocations (a recovered epoch may re-solve, so this can
    /// exceed `responses.len()` under faults).
    pub solves: usize,
    /// Applies answered by admissible preconditioner reuse.
    pub reused_applies: usize,
    /// Inadmissible-drift re-factorizations.
    pub resetups: usize,
    /// Responses re-solved because a deposited piece failed its checksum
    /// verification (at-rest corruption healed by an integrity pass).
    pub integrity_resolves: usize,
    /// Membership changes survived mid-stream.
    pub recoveries: usize,
    /// Virtual seconds of the initial resident setup.
    pub t_setup: f64,
    /// Virtual clock at the end of the stream (this rank's).
    pub t_total: f64,
}

impl ServeReport {
    /// Responses per virtual second over the whole run.
    pub fn throughput(&self) -> f64 {
        self.responses.len() as f64 / self.t_total.max(f64::MIN_POSITIVE)
    }

    /// `p`-th latency percentile (`p` in `[0, 100]`), nearest-rank.
    pub fn latency_percentile(&self, p: f64) -> f64 {
        let mut lat: Vec<f64> = self.responses.iter().map(|r| r.latency).collect();
        if lat.is_empty() {
            return 0.0;
        }
        lat.sort_by(|a, b| a.total_cmp(b));
        let idx = ((p / 100.0) * (lat.len() - 1) as f64).round() as usize;
        lat[idx.min(lat.len() - 1)]
    }
}

/// Serve the whole `workload` on this world, surviving membership changes
/// mid-stream. Every rank must call it with identical arguments (SPMD);
/// each surviving rank returns the same [`ServeReport`] (up to its own
/// clock in `t_total`).
///
/// The epochs run in `dd_core::drive_epochs` under `opts.spmd.recovery`, on
/// the balanced re-chunk of every membership: a peer's death, an eviction
/// or a join re-plans, a corruption classification re-enters the stream on
/// the same world, and the response store makes either re-entry skip what
/// is already answered.
///
/// A right-hand side holding a non-finite value is a
/// [`SpmdError::Protocol`] on every rank, naming its request, before the
/// first set-up.
pub fn try_serve(
    decomp: &Decomposition,
    comm: &Communicator,
    opts: &ServeOpts,
    workload: &Workload,
    cache: &CoarseCache,
    responses: &ResponseStore,
) -> Result<ServeReport, SpmdError> {
    for (r, req) in workload.requests.iter().enumerate() {
        for j in 0..req.n_rhs() {
            let b = req.rhs(j);
            if let Some(i) = b.iter().position(|v| !v.is_finite()) {
                return Err(SpmdError::Protocol {
                    rank: comm.rank(),
                    what: format!("request {r}: right-hand side {j} holds {} at dof {i}", b[i]),
                });
            }
        }
    }
    comm.set_suspicion(opts.spmd.recovery.suspicion);
    let batches = plan_batches(&workload.requests, &opts.batcher);
    // Re-set-up arena: one slot per distinct θ, filled with the full
    // perturbed decomposition only when a re-set-up at θ needs it, so a
    // re-set-up borrows data that outlives every epoch. Admissible applies
    // never fill it: they shift the resident operator.
    let arena: Vec<(f64, OnceCell<Decomposition>)> = workload
        .thetas()
        .into_iter()
        .map(|t| (t, OnceCell::new()))
        .collect();
    let recovery = &opts.spmd.recovery;
    drive_epochs(decomp, comm, recovery, repartition_plan, |attempt| {
        serve_epoch(
            decomp, attempt, opts, workload, &batches, &arena, cache, responses,
        )?;
        Ok(build_report(decomp, attempt.comm, workload, responses))
    })
}

/// One epoch of serving: prepare once on the current membership, then
/// stream every batch whose response is still incomplete.
#[allow(clippy::too_many_arguments)]
fn serve_epoch(
    base: &Decomposition,
    attempt: &Attempt<'_>,
    opts: &ServeOpts,
    workload: &Workload,
    batches: &[Batch],
    arena: &[(f64, OnceCell<Decomposition>)],
    cache: &CoarseCache,
    responses: &ResponseStore,
) -> Result<(), SpmdError> {
    let (c, plan) = (attempt.comm, attempt.plan);
    let nsubs = base.n_subdomains();
    // Only the founders' first attempt resets the clock: the request stream
    // needs one monotone virtual-time axis across re-setups, replays and
    // epochs.
    let reset_clock = c.epoch() == 0 && !c.is_joiner() && attempt.replays == 0;
    let t0 = c.clock();
    let scope = c.trace_scope("serve-setup");
    let mut resident: PreparedMulti<'_> =
        try_setup_partitioned(base, c, &opts.spmd, Some(cache), plan, reset_clock)?;
    drop(scope);
    let t_setup = if reset_clock {
        c.clock()
    } else {
        c.clock() - t0
    };
    if c.rank() == 0 && reset_clock {
        responses.note(|m| m.t_setup = t_setup);
    }
    let mut theta_base = 0.0f64;
    // One recycle space per operator: banked (u, A(θ)u) pairs are only
    // valid against the operator that produced them.
    let mut spaces: BTreeMap<u64, RecycleSpace> = BTreeMap::new();

    // Pass 0 is the stream itself. A deposited piece that no longer
    // verifies against its checksum reads back as absent, so the response
    // is incomplete again — each further *integrity pass* re-solves such
    // responses wholesale (deposits are last-writer-wins), bounded by the
    // recovery options' replay budget. Exhausting the budget surfaces a
    // typed error: a corrupted response is never returned.
    for pass in 0..=opts.spmd.recovery.max_replays {
        if pass > 0 {
            let stale = batches
                .iter()
                .flat_map(|b| &b.items)
                .filter(|it| !responses.is_complete(it.req, it.rhs, nsubs))
                .count();
            if stale == 0 {
                break;
            }
            if c.rank() == 0 {
                responses.note(|m| m.integrity_resolves += stale);
            }
        }
        for batch in batches {
            if batch
                .items
                .iter()
                .all(|it| responses.is_complete(it.req, it.rhs, nsubs))
            {
                continue;
            }
            // Open-loop arrivals: idle (in virtual time) until dispatch.
            // (Integrity passes run after the stream, so they never wait.)
            let now = c.clock();
            if now < batch.dispatch {
                c.advance_clock(batch.dispatch - now);
            }
            let theta = batch.theta;
            let reused = theta.to_bits() != theta_base.to_bits();
            if reused && (theta - theta_base).abs() > opts.admissibility {
                // Inadmissible drift: re-factorize at θ and move the
                // resident base point. Setups never run inside
                // `serve-apply`.
                let scope = c.trace_scope("serve-setup");
                resident = if theta == 0.0 {
                    // Returning to the unperturbed operator reuses the
                    // coarse cache (layout unchanged → every row is a cache
                    // hit); perturbed operators get a fresh, uncached
                    // assembly.
                    try_setup_partitioned(base, c, &opts.spmd, Some(cache), plan, false)?
                } else {
                    let slot = arena
                        .iter()
                        .find(|(t, _)| t.to_bits() == theta.to_bits())
                        .ok_or_else(|| SpmdError::Protocol {
                            rank: c.rank(),
                            what: format!("perturbation θ={theta} missing from the arena"),
                        })?;
                    let d = slot.1.get_or_init(|| base.perturb_diag(theta));
                    try_setup_partitioned(d, c, &opts.spmd, None, plan, false)?
                };
                drop(scope);
                theta_base = theta;
                if c.rank() == 0 {
                    responses.note(|m| m.resetups += 1);
                }
            }
            // Admissible reuse solves `A(θ)` under the resident
            // preconditioner: every diagonal entry of the resident
            // `A(θ_base)` scaled by `(1 + θ) / (1 + θ_base)`.
            let shift = (theta - theta_base) / (1.0 + theta_base);
            serve_batch(
                c,
                &resident,
                shift,
                opts,
                workload,
                batch,
                responses,
                nsubs,
                &mut spaces,
            )?;
        }
        // Quiesce the store before anyone judges staleness: without this,
        // a rank that finishes the pass early can observe a peer's
        // not-yet-deposited pieces as stale and enter an extra pass (and
        // its collectives) that the peer skips.
        c.try_barrier()?;
    }
    if let Some(it) = batches
        .iter()
        .flat_map(|b| &b.items)
        .find(|it| !responses.is_complete(it.req, it.rhs, nsubs))
    {
        return Err(SpmdError::Protocol {
            rank: c.rank(),
            what: format!(
                "response ({}, {}) failed integrity verification after {} re-solves",
                it.req, it.rhs, opts.spmd.recovery.max_replays
            ),
        });
    }
    Ok(())
}

/// Answer the incomplete items of one batch with one panel apply of the
/// resident operator shifted by `shift` and deposit every owned piece. Every item is corrected from the operator's
/// recycle space as it stands at the batch start, and the items'
/// increments are banked in stream order after it, so each answer is, to
/// the bit, the single solve from the batch-start space.
#[allow(clippy::too_many_arguments)]
fn serve_batch(
    c: &Communicator,
    resident: &PreparedMulti<'_>,
    shift: f64,
    opts: &ServeOpts,
    workload: &Workload,
    batch: &Batch,
    responses: &ResponseStore,
    nsubs: usize,
    spaces: &mut BTreeMap<u64, RecycleSpace>,
) -> Result<(), SpmdError> {
    let space = spaces
        .entry(batch.theta.to_bits())
        .or_insert_with(|| RecycleSpace::new(opts.recycle_dim));
    let items: Vec<_> = batch
        .items
        .iter()
        .filter(|it| !responses.is_complete(it.req, it.rhs, nsubs))
        .collect();
    let rhs: Vec<&[f64]> = items
        .iter()
        .map(|it| workload.requests[it.req].rhs(it.rhs))
        .collect();
    let outs = resident.try_apply_on(shift, &rhs, "serve-apply", None, Some(space))?;
    let now = c.clock();
    for (it, out) in items.into_iter().zip(outs) {
        let meta = SolveMeta {
            iterations: out.result.iterations,
            converged: out.result.converged,
            final_residual: out.result.final_residual,
            history: out.result.history,
            reused: shift != 0.0,
        };
        for (s, x) in out.locals {
            responses.deposit(it.req, it.rhs, s, x, now, meta.clone());
        }
        if c.rank() == 0 {
            responses.note(|m| {
                m.solves += 1;
                if meta.reused {
                    m.reused_applies += 1;
                }
            });
        }
    }
    Ok(())
}

fn build_report(
    decomp: &Decomposition,
    c: &Communicator,
    workload: &Workload,
    responses: &ResponseStore,
) -> ServeReport {
    let mut out = Vec::with_capacity(workload.n_rhs_total());
    for (ri, req) in workload.requests.iter().enumerate() {
        for j in 0..req.n_rhs() {
            let Some(slot) = responses.snapshot(ri, j) else {
                continue;
            };
            let x = assemble_global(decomp, &slot.locals);
            out.push(Response {
                req: ri,
                rhs: j,
                theta: req.theta(),
                arrival: req.arrival,
                completed: slot.completed,
                latency: slot.completed - req.arrival,
                iterations: slot.meta.iterations,
                converged: slot.meta.converged,
                final_residual: slot.meta.final_residual,
                history: slot.meta.history,
                reused: slot.meta.reused,
                x,
            });
        }
    }
    let counters = responses.counters();
    ServeReport {
        responses: out,
        n_requests: workload.requests.len(),
        solves: counters.solves,
        reused_applies: counters.reused_applies,
        resetups: counters.resetups,
        integrity_resolves: counters.integrity_resolves,
        recoveries: c.epoch(),
        t_setup: counters.t_setup,
        t_total: c.clock(),
    }
}

/// `Σ_i R_iᵀ D_i x_i` — the partition-of-unity interpolant of the
/// deposited local pieces, assembled in subdomain order so the result is
/// independent of deposit interleaving. Pieces that fail their checksum
/// verification are skipped (the serving loop re-solves them before any
/// report is built, so this is belt-and-braces).
fn assemble_global(decomp: &Decomposition, locals: &BTreeMap<usize, (Vec<f64>, u64)>) -> Vec<f64> {
    let mut x = vec![0.0; decomp.n_global];
    for (&s, (xs, sum)) in locals {
        if piece_sum(xs) != *sum {
            continue;
        }
        let sub = &decomp.subdomains[s];
        for (k, &g) in sub.l2g.iter().enumerate() {
            x[g as usize] += sub.d[k] * xs[k];
        }
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_store_deposits_are_idempotent_and_complete() {
        let store = ResponseStore::new();
        assert!(!store.is_complete(0, 0, 2));
        store.deposit(0, 0, 0, vec![1.0], 0.5, SolveMeta::default());
        assert_eq!(store.pieces(0, 0).len(), 1);
        assert!(!store.is_complete(0, 0, 2));
        // Same (req, rhs, sub) again: still one piece.
        store.deposit(0, 0, 0, vec![1.0], 0.6, SolveMeta::default());
        assert_eq!(store.pieces(0, 0).len(), 1);
        store.deposit(0, 0, 1, vec![2.0], 0.4, SolveMeta::default());
        assert!(store.is_complete(0, 0, 2));
        // Completion is the max deposit instant, not the last.
        let slot = store.snapshot(0, 0).unwrap();
        assert_eq!(slot.completed, 0.6);
    }

    #[test]
    fn corrupted_piece_reads_back_as_absent_until_redeposited() {
        let store = ResponseStore::new();
        store.deposit(0, 0, 0, vec![1.0, 2.0], 0.1, SolveMeta::default());
        store.deposit(0, 0, 1, vec![3.0], 0.2, SolveMeta::default());
        assert!(store.is_complete(0, 0, 2));
        assert!(store.corrupt_for_tests(0, 0, 1));
        // The response is incomplete again: the poisoned piece is invisible
        // on every read path…
        assert!(!store.is_complete(0, 0, 2));
        assert_eq!(store.pieces(0, 0).len(), 1);
        assert_eq!(store.pieces(0, 0)[0].0, 0);
        // …and a fresh deposit (the integrity re-solve) heals it.
        store.deposit(0, 0, 1, vec![3.0], 0.3, SolveMeta::default());
        assert!(store.is_complete(0, 0, 2));
        assert_eq!(store.pieces(0, 0).len(), 2);
    }

    #[test]
    fn latency_percentiles_are_order_statistics() {
        let mk = |lat: f64| Response {
            req: 0,
            rhs: 0,
            theta: 0.0,
            arrival: 0.0,
            completed: lat,
            latency: lat,
            iterations: 1,
            converged: true,
            final_residual: 0.0,
            history: Vec::new(),
            reused: false,
            x: Vec::new(),
        };
        let report = ServeReport {
            responses: (1..=100).map(|i| mk(i as f64)).collect(),
            n_requests: 100,
            solves: 100,
            reused_applies: 0,
            resetups: 0,
            integrity_resolves: 0,
            recoveries: 0,
            t_setup: 0.0,
            t_total: 100.0,
        };
        assert_eq!(report.latency_percentile(0.0), 1.0);
        assert_eq!(report.latency_percentile(100.0), 100.0);
        assert_eq!(report.latency_percentile(50.0), 51.0);
        assert!((report.throughput() - 1.0).abs() < 1e-12);
    }
}
