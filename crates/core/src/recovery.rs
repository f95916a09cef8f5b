//! Shrink-and-continue recovery from rank death: liveness agreement and
//! world shrink (via [`Communicator::try_shrink`]), adoption of the dead
//! ranks' subdomains by surviving neighbors, re-election of the masters
//! over the survivors, re-assembly and re-factorization of the coarse
//! operator, and a checkpointed restart of the Krylov solve.
//!
//! The protocol (DESIGN.md §10):
//!
//! 1. a rank's death is observed as [`CommError::RankDead`] (p2p or
//!    collective) or as [`CommError::Revoked`] (a survivor already started
//!    recovery and revoked the epoch);
//! 2. every survivor calls [`Communicator::try_shrink`] — a model-checked
//!    two-phase agreement on the dead set that hands out one consistent
//!    epoch bump and a contiguously re-ranked survivor communicator;
//! 3. each orphaned subdomain is *adopted* by the surviving owner of its
//!    lowest-indexed surviving neighbor subdomain (lowest survivor when a
//!    whole neighborhood died) — the decomposition is shared and
//!    deterministic, so no coordination is needed;
//! 4. adopters re-factor the orphans' Dirichlet matrices and substitute
//!    Nicolaides deflation vectors (eigenvector recomputation is skipped
//!    for adopted subdomains — the documented degradation); masters are
//!    re-elected over the survivors with the non-uniform rule and `E` is
//!    re-assembled and re-factored on the new master communicator;
//! 5. the solve resumes from the last *globally complete* checkpoint in
//!    the [`CheckpointStore`] (or from zero when death struck before the
//!    first checkpoint), converging against the original `‖r₀‖` anchor so
//!    the recovered run meets the same tolerance as a fault-free one.
//!
//! Every blocking receive of the recovered epoch runs under a bounded
//! [`RetryPolicy`] ([`RetryPolicy::bounded_jittered`]) — recovery paths
//! must never wait unboundedly on a peer that may die again.

use crate::decomp::Decomposition;
use crate::error::{
    CoarseOutcome, DeflationSource, PhaseOutcome, RecoveryRecord, RunReport, SpmdError,
};
use crate::geneo::{
    nicolaides_fallback_block, resize_block, try_deflation_block_ordered, DeflationBlock,
};
use crate::masters::{group_of, nonuniform_masters};
use crate::resident::{epoch_salt, HaloPlan, MasterSolve, PreparedMulti};
use crate::spmd::{
    classify_comm, classify_comm_at, run_inner, CoarseSolve, SolverKind, SpmdOpts, SpmdReport,
};
use dd_comm::{CommError, Communicator, RetryPolicy, SuspicionPolicy};
use dd_krylov::{CheckpointCfg, CheckpointSink, SolveCheckpoint};
use dd_linalg::{CooBuilder, CsrMatrix, DMat};
use dd_solver::{DistLdlt, LocalLdlt, PivotPolicy, SparseLdlt};
use std::collections::HashMap;
use std::sync::Mutex;

// Tag namespace of the coarse assembly on an owner map, keyed by the
// (source, destination) *subdomain* pair — a rank may host several
// subdomains, so rank-keyed tags would collide — and salted by the
// revocation epoch ([`epoch_salt`]).
const TAG_RT: u64 = 1_000_000; // coarse assembly S_j / U_j exchange

/// Options for [`try_run_spmd_recoverable`].
#[derive(Clone, Debug)]
pub struct RecoveryOpts {
    /// Attempt shrink-and-continue recovery when a peer dies mid-run
    /// (`false`: surface the error, as [`crate::spmd::try_run_spmd`] does).
    pub enabled: bool,
    /// How many world shrinks to survive before giving up.
    pub max_recoveries: usize,
    /// How many rollback-and-replay attempts to take at each membership
    /// after a *corruption* classification ([`replayable`]) — detected wire
    /// corruption that exhausted its retransmit budget, or a solver guard's
    /// suspected-SDC verdict. Replays keep the same world (nobody died)
    /// and resume from the newest checkpoint that verifies; exhaustion
    /// surfaces the typed error rather than a silent wrong answer.
    pub max_replays: usize,
    /// Krylov checkpoint cadence in iterations. Smaller intervals lose
    /// less progress to a death but snapshot (copy the iterate) more
    /// often; checkpoints are communication-free either way.
    pub checkpoint_interval: usize,
    /// Straggler-suspicion policy armed on elastic runs
    /// ([`try_run_spmd_elastic`]): a member whose heartbeats or
    /// progress watermark lag beyond the policy's budgets is evicted via
    /// the shrink path at the next iteration boundary. `None`: never
    /// suspect (the default — a slow rank is waited for).
    pub suspicion: Option<SuspicionPolicy>,
}

impl Default for RecoveryOpts {
    fn default() -> Self {
        RecoveryOpts {
            enabled: false,
            max_recoveries: 1,
            max_replays: 2,
            checkpoint_interval: 5,
            suspicion: None,
        }
    }
}

// ----------------------------------------------------------------- store

/// Stable storage for solver checkpoints, keyed by subdomain.
///
/// Shared by every rank of a world (the SPMD runtime runs ranks as threads;
/// the shared map models the parallel file system real deployments would
/// checkpoint to). Ranks only ever write their own subdomains' slots, and a
/// snapshot is used for resume only when *every* subdomain recorded it, so
/// cross-thread write ordering is immaterial. Keeps the last two snapshots
/// per subdomain: the latest may be incomplete when death struck inside the
/// checkpoint window.
///
/// Every snapshot is stored with an FNV-1a checksum over its bit pattern —
/// the at-rest analogue of the wire envelopes in `dd-comm`. A snapshot torn
/// by a death mid-write or flipped by at-rest corruption fails verification
/// on read: [`CheckpointStore::rollback_iteration`] skips it, so a resume
/// falls through to the next-newest snapshot that verifies on *every*
/// subdomain instead of replaying poisoned state.
#[derive(Default)]
pub struct CheckpointStore {
    slots: Mutex<HashMap<usize, Vec<(SolveCheckpoint, u64)>>>,
}

/// FNV-1a 64 over a checkpoint's bit pattern (iteration, iterate, residual
/// anchor, history) — the same construction the wire envelopes use.
fn checkpoint_sum(cp: &SolveCheckpoint) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut fold = |bits: u64| {
        for b in bits.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(PRIME);
        }
    };
    fold(cp.iteration as u64);
    fold(cp.x.len() as u64);
    for &v in &cp.x {
        fold(v.to_bits());
    }
    fold(cp.residual.to_bits());
    fold(cp.r0_norm.to_bits());
    fold(cp.history.len() as u64);
    for &v in &cp.history {
        fold(v.to_bits());
    }
    h
}

impl CheckpointStore {
    pub fn new() -> Self {
        Self::default()
    }

    fn save(&self, sub: usize, cp: SolveCheckpoint) {
        let sum = checkpoint_sum(&cp);
        let mut slots = self.slots.lock().unwrap_or_else(|p| p.into_inner());
        let v = slots.entry(sub).or_default();
        v.retain(|(c, _)| c.iteration != cp.iteration);
        v.push((cp, sum));
        v.sort_by_key(|(c, _)| c.iteration);
        if v.len() > 2 {
            let drop = v.len() - 2;
            v.drain(..drop);
        }
    }

    /// Read back a verified snapshot; `None` when the slot is missing *or*
    /// its checksum no longer matches its contents.
    fn get(&self, sub: usize, iteration: usize) -> Option<SolveCheckpoint> {
        let slots = self.slots.lock().unwrap_or_else(|p| p.into_inner());
        slots
            .get(&sub)?
            .iter()
            .find(|(c, sum)| c.iteration == iteration && checkpoint_sum(c) == *sum)
            .map(|(c, _)| c.clone())
    }

    /// The last iteration checkpointed **and verified** by every subdomain
    /// — the only state safe to resume from (a later snapshot missing on
    /// any subdomain means death struck inside that checkpoint window; a
    /// checksum mismatch means the snapshot itself is corrupt).
    pub fn rollback_iteration(&self, n_subs: usize) -> Option<usize> {
        let slots = self.slots.lock().unwrap_or_else(|p| p.into_inner());
        let verified = |e: &(SolveCheckpoint, u64), it: usize| {
            e.0.iteration == it && checkpoint_sum(&e.0) == e.1
        };
        let mut candidates: Vec<usize> = slots
            .get(&0)?
            .iter()
            .filter(|(c, sum)| checkpoint_sum(c) == *sum)
            .map(|(c, _)| c.iteration)
            .collect();
        candidates.sort_unstable_by(|a, b| b.cmp(a));
        candidates.into_iter().find(|&it| {
            (0..n_subs).all(|s| {
                slots
                    .get(&s)
                    .is_some_and(|v| v.iter().any(|e| verified(e, it)))
            })
        })
    }

    /// Flip one mantissa bit of a stored iterate *without* refreshing the
    /// stored checksum — the at-rest analogue of a wire bit-flip, for the
    /// chaos tests. Returns whether the slot existed.
    #[doc(hidden)]
    pub fn corrupt_for_tests(&self, sub: usize, iteration: usize) -> bool {
        let mut slots = self.slots.lock().unwrap_or_else(|p| p.into_inner());
        let Some(entry) = slots
            .get_mut(&sub)
            .and_then(|v| v.iter_mut().find(|(c, _)| c.iteration == iteration))
        else {
            return false;
        };
        match entry.0.x.first_mut() {
            Some(x0) => {
                *x0 = f64::from_bits(x0.to_bits() ^ (1 << 17));
                true
            }
            None => false,
        }
    }
}

/// [`CheckpointSink`] splitting a (possibly multi-subdomain) concatenated
/// iterate into per-subdomain snapshots in the shared store.
struct StoreSink<'a> {
    store: &'a CheckpointStore,
    /// `(subdomain, local length)` in concatenation order.
    subs: Vec<(usize, usize)>,
}

impl CheckpointSink for StoreSink<'_> {
    fn save(&self, cp: SolveCheckpoint) {
        let mut pos = 0;
        for &(s, len) in &self.subs {
            self.store.save(
                s,
                SolveCheckpoint {
                    iteration: cp.iteration,
                    x: cp.x[pos..pos + len].to_vec(),
                    residual: cp.residual,
                    r0_norm: cp.r0_norm,
                    history: cp.history.clone(),
                },
            );
            pos += len;
        }
    }
}

// ----------------------------------------------------------- coarse cache

/// Cached per-subdomain coarse data enabling *incremental* `E` re-assembly
/// across membership changes. Like [`CheckpointStore`], the shared map
/// models the stable storage a real deployment keeps next to its
/// checkpoints; ranks only read/write entries for subdomains they own.
///
/// Two invariants drive the keying (DESIGN.md §11):
///
/// - The deflation **basis** of a subdomain is a function of the subdomain
///   alone (whole subdomains move, no re-meshing), so the abstract GenEO
///   space stays admissible under repartitioning — keyed by subdomain and
///   reused by whichever rank owns it next.
/// - Coarse **rows** live with their owner — keyed `(subdomain, owner
///   world rank)` — so a subdomain moved to a new owner has its rows
///   recomputed there, while unmoved subdomains' rows are reused verbatim
///   and only re-gathered onto the new master set (where [`DistLdlt`] is
///   refactorized regardless).
#[derive(Default)]
pub struct CoarseCache {
    basis: Mutex<HashMap<usize, CachedBasis>>,
    rows: Mutex<HashMap<(usize, usize), CachedRows>>,
}

struct CachedBasis {
    w: dd_linalg::DMat,
    values: Vec<f64>,
    kept: usize,
    /// Did the cached basis come from the GenEO eigensolve (as opposed to
    /// the Nicolaides fallback)?
    geneo: bool,
}

#[derive(Clone)]
struct CachedRows {
    /// Layout signature (hash over every subdomain's ν) the rows were
    /// assembled under; a ν change anywhere invalidates them.
    sig: u64,
    /// `E_ss`, row-major `ν_s × ν_s`.
    e_ss: Vec<f64>,
    /// `(neighbor j, ν_j, E_sj row-major ν_s × ν_j)` in neighbor order.
    e_sj: Vec<(usize, usize, Vec<f64>)>,
}

impl CoarseCache {
    pub fn new() -> Self {
        Self::default()
    }

    fn basis(&self, sub: usize) -> Option<(DeflationBlock, bool)> {
        let basis = self.basis.lock().unwrap_or_else(|p| p.into_inner());
        basis.get(&sub).map(|b| {
            (
                DeflationBlock {
                    w: b.w.clone(),
                    values: b.values.clone(),
                    kept: b.kept,
                },
                b.geneo,
            )
        })
    }

    fn store_basis(&self, sub: usize, block: &DeflationBlock, geneo: bool) {
        let mut basis = self.basis.lock().unwrap_or_else(|p| p.into_inner());
        basis.insert(
            sub,
            CachedBasis {
                w: block.w.clone(),
                values: block.values.clone(),
                kept: block.kept,
                geneo,
            },
        );
    }

    fn has_rows(&self, sub: usize, owner: usize, sig: u64) -> bool {
        let rows = self.rows.lock().unwrap_or_else(|p| p.into_inner());
        rows.get(&(sub, owner)).is_some_and(|r| r.sig == sig)
    }

    fn rows(&self, sub: usize, owner: usize, sig: u64) -> Option<CachedRows> {
        let rows = self.rows.lock().unwrap_or_else(|p| p.into_inner());
        rows.get(&(sub, owner)).filter(|r| r.sig == sig).cloned()
    }

    fn store_rows(&self, sub: usize, owner: usize, entry: CachedRows) {
        let mut rows = self.rows.lock().unwrap_or_else(|p| p.into_inner());
        rows.insert((sub, owner), entry);
    }
}

/// Layout signature of one coarse operator: a seed-free hash of every
/// subdomain's ν, identical on every rank that allgathered the same pairs.
fn layout_sig(nu_of: &[usize]) -> u64 {
    let mut h: u64 = 0xE11A; // "elastic" seed, any fixed constant works
    for &nu in nu_of {
        h = h
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(17)
            .wrapping_add(nu as u64 + 1);
    }
    h
}

// ---------------------------------------------------------------- driver

/// The per-rank result of a recoverable SPMD solve: after an adoption a
/// rank may own several subdomains' locals.
pub struct SpmdMultiSolution {
    pub report: SpmdReport,
    /// `(subdomain, local solution)` for every subdomain this rank owned
    /// when the solve completed, ascending by subdomain.
    pub locals: Vec<(usize, Vec<f64>)>,
}

/// Is this error one the survivors can recover from by shrinking? Our own
/// death ([`SpmdError::Killed`]) and local failures are not; observing a
/// *peer's* death or a revoked epoch is. Public so higher layers (the
/// `dd-serve` streaming server) can drive the same recovery loop.
pub fn recoverable(e: &SpmdError) -> bool {
    matches!(
        e,
        SpmdError::Comm(CommError::RankDead { .. }) | SpmdError::Comm(CommError::Revoked { .. })
    )
}

/// Is this error one the *same* membership can recover from by rolling
/// back to the newest verified checkpoint and replaying? Detected wire
/// corruption that exhausted its retransmit budget, and a solver guard's
/// suspected-SDC classification, both qualify: every rank is alive — only
/// the data is poisoned. Disjoint from [`recoverable`], which shrinks the
/// world. Public for the same reason `recoverable` is.
pub fn replayable(e: &SpmdError) -> bool {
    matches!(
        e,
        SpmdError::Comm(CommError::Corrupt { .. }) | SpmdError::SuspectedCorruption { .. }
    )
}

/// The [`RecoveryRecord`] of one rollback-and-replay: same epoch, no
/// membership deltas — only the corruption counters, the replay ordinal,
/// and the virtual time the rolled-back attempt had consumed.
fn replay_record(
    comm: &Communicator,
    store: &CheckpointStore,
    nsubs: usize,
    replays: usize,
    guard_detections: u64,
    t_replay: f64,
) -> RecoveryRecord {
    RecoveryRecord {
        epoch: comm.epoch(),
        dead: Vec::new(),
        evicted: Vec::new(),
        joined: Vec::new(),
        adopted: Vec::new(),
        moved: Vec::new(),
        reused: Vec::new(),
        resume_iteration: store.rollback_iteration(nsubs),
        t_agreement: 0.0,
        t_reassembly: 0.0,
        t_refactorization: 0.0,
        corruptions_detected: comm.fault_stats().corruptions_detected + guard_detections,
        replays,
        t_replay,
    }
}

/// [`run_partitioned`] with corruption rollback-and-replay: a [`replayable`]
/// failure re-runs the epoch on the *same* membership — setup repeats and
/// the solve resumes from the newest checkpoint that still verifies, so a
/// poisoned snapshot is skipped automatically. Bounded by
/// [`RecoveryOpts::max_replays`]; non-replayable errors (and budget
/// exhaustion) surface to the caller's shrink/grow loop.
#[allow(clippy::too_many_arguments)]
fn run_partitioned_with_replay(
    decomp: &Decomposition,
    comm: &Communicator,
    opts: &SpmdOpts,
    store: &CheckpointStore,
    cache: Option<&CoarseCache>,
    plan: &RepartitionPlan,
    recoveries: &mut Vec<RecoveryRecord>,
    t_agreement: f64,
) -> Result<SpmdMultiSolution, SpmdError> {
    let mut t_attempt = comm.clock();
    let mut result = run_partitioned(
        decomp,
        comm,
        opts,
        store,
        cache,
        plan,
        recoveries,
        t_agreement,
        true,
    );
    let mut replays = 0;
    let mut guard_hits = 0u64;
    while let Err(e) = &result {
        if !replayable(e) || replays >= opts.recovery.max_replays {
            break;
        }
        guard_hits += u64::from(matches!(e, SpmdError::SuspectedCorruption { .. }));
        replays += 1;
        let t_replay = comm.clock() - t_attempt;
        recoveries.push(replay_record(
            comm,
            store,
            decomp.n_subdomains(),
            replays,
            guard_hits,
            t_replay,
        ));
        t_attempt = comm.clock();
        // Same plan, same communicator; the membership record (when this
        // epoch called for one) was already pushed by the first attempt.
        result = run_partitioned(
            decomp, comm, opts, store, cache, plan, recoveries, 0.0, false,
        );
    }
    result
}

/// [`crate::spmd::try_run_spmd`] with shrink-and-continue recovery: on a
/// peer's death (with `opts.recovery.enabled`) the survivors agree on the
/// dead set, shrink the world, adopt the orphaned subdomains, rebuild the
/// preconditioner, and resume the solve from the last complete checkpoint
/// in `store`. A rank's own death still surfaces as [`SpmdError::Killed`].
pub fn try_run_spmd_recoverable(
    decomp: &Decomposition,
    comm: &Communicator,
    opts: &SpmdOpts,
    store: &CheckpointStore,
) -> Result<SpmdMultiSolution, SpmdError> {
    let me = comm.rank();
    let n_local = decomp.subdomains[me].n_local();
    let sink = StoreSink {
        store,
        subs: vec![(me, n_local)],
    };
    // Checkpointing (like resuming) needs the classical Krylov loop.
    let cfg = (opts.recovery.enabled && opts.solver == SolverKind::Classical)
        .then(|| CheckpointCfg::new(opts.recovery.checkpoint_interval, &sink));
    let mut t_attempt = comm.clock();
    let mut err = match run_inner(decomp, comm, opts, cfg.as_ref()) {
        Ok(sol) => {
            return Ok(SpmdMultiSolution {
                locals: vec![(me, sol.x_local)],
                report: sol.report,
            })
        }
        Err(e) => e,
    };
    let mut recoveries: Vec<RecoveryRecord> = Vec::new();
    // Corruption rollback-and-replay: the world is healthy (nobody died),
    // so re-run on the *same* membership, resuming from the newest
    // checkpoint that still verifies. Bounded by `max_replays`; a replay
    // that keeps hitting corruption surfaces the typed error — never a
    // silent wrong answer.
    let mut replays = 0;
    let mut guard_hits = 0u64;
    while opts.recovery.enabled && replayable(&err) && replays < opts.recovery.max_replays {
        guard_hits += u64::from(matches!(err, SpmdError::SuspectedCorruption { .. }));
        replays += 1;
        recoveries.push(replay_record(
            comm,
            store,
            decomp.n_subdomains(),
            replays,
            guard_hits,
            comm.clock() - t_attempt,
        ));
        // Nobody departed, so the shrink plan is the identity owner map.
        let plan = shrink_plan(decomp, comm);
        t_attempt = comm.clock();
        err = match run_partitioned(
            decomp,
            comm,
            opts,
            store,
            None,
            &plan,
            &mut recoveries,
            0.0,
            false,
        ) {
            Ok(sol) => return Ok(sol),
            Err(e) => e,
        };
    }
    if !opts.recovery.enabled || !recoverable(&err) {
        comm.abandon();
        return Err(err);
    }
    let t0 = comm.clock();
    let mut current = match comm.try_shrink() {
        Ok(c) => c,
        Err(e) => {
            comm.abandon();
            return Err(classify_comm(comm, e));
        }
    };
    let mut t_agreement = current.clock() - t0;
    for attempt in 1..=opts.recovery.max_recoveries {
        let plan = shrink_plan(decomp, &current);
        match run_partitioned_with_replay(
            decomp,
            &current,
            opts,
            store,
            None,
            &plan,
            &mut recoveries,
            t_agreement,
        ) {
            Ok(sol) => return Ok(sol),
            Err(e) => {
                let again = recoverable(&e) && attempt < opts.recovery.max_recoveries;
                err = e;
                if !again {
                    comm.abandon();
                    return Err(err);
                }
                let t0 = current.clock();
                current = match current.try_shrink() {
                    Ok(c) => c,
                    Err(e2) => {
                        comm.abandon();
                        return Err(classify_comm(&current, e2));
                    }
                };
                t_agreement = current.clock() - t0;
            }
        }
    }
    comm.abandon();
    Err(err)
}

/// Elastic SPMD solve: [`try_run_spmd_recoverable`] generalized to worlds
/// whose membership can *grow* as well as shrink, and whose subdomain
/// count may exceed the founder count (each rank hosts a contiguous chunk).
///
/// Run it under [`dd_comm::World::run_elastic`]: founders enter at epoch 0
/// and solve on the initial balanced partition; a reserve admitted by a
/// mid-solve [`Communicator::try_grow`] enters here with
/// [`Communicator::is_joiner`] set and drops straight into the
/// repartitioned epoch. Survivors notice pending joiners (and evict
/// suspected stragglers, under `opts.recovery.suspicion`) at iteration
/// boundaries via [`Communicator::maintain`]; the resulting revocation
/// funnels everyone into the same agreement, after which the solve resumes
/// from the last globally complete checkpoint exactly as after a shrink.
///
/// `cache` carries the coarse basis and rows across membership changes so
/// `E` is re-assembled incrementally — only moved subdomains recompute.
pub fn try_run_spmd_elastic(
    decomp: &Decomposition,
    comm: &Communicator,
    opts: &SpmdOpts,
    store: &CheckpointStore,
    cache: &CoarseCache,
) -> Result<SpmdMultiSolution, SpmdError> {
    assert!(
        comm.size() <= decomp.n_subdomains(),
        "elastic run: more members than subdomains"
    );
    comm.set_suspicion(opts.recovery.suspicion);
    let mut recoveries: Vec<RecoveryRecord> = Vec::new();
    let plan = repartition_plan(decomp, comm, None);
    let mut err = match run_partitioned_with_replay(
        decomp,
        comm,
        opts,
        store,
        Some(cache),
        &plan,
        &mut recoveries,
        0.0,
    ) {
        Ok(sol) => return Ok(sol),
        Err(e) => e,
    };
    let mut prev_owner = plan.owner_world;
    if !opts.recovery.enabled || !recoverable(&err) {
        comm.abandon();
        return Err(err);
    }
    let (mut current, mut t_agreement) = match agree_next(comm) {
        Ok(next) => next,
        Err(e) => {
            comm.abandon();
            return Err(e);
        }
    };
    for attempt in 1..=opts.recovery.max_recoveries {
        let plan = repartition_plan(decomp, &current, Some(&prev_owner));
        match run_partitioned_with_replay(
            decomp,
            &current,
            opts,
            store,
            Some(cache),
            &plan,
            &mut recoveries,
            t_agreement,
        ) {
            Ok(sol) => return Ok(sol),
            Err(e) => {
                let again = recoverable(&e) && attempt < opts.recovery.max_recoveries;
                err = e;
                if !again {
                    comm.abandon();
                    return Err(err);
                }
                prev_owner = plan.owner_world;
                (current, t_agreement) = match agree_next(&current) {
                    Ok(next) => next,
                    Err(e2) => {
                        comm.abandon();
                        return Err(e2);
                    }
                };
            }
        }
    }
    comm.abandon();
    Err(err)
}

/// One membership agreement from the elastic recovery loop: grow when
/// joiners are pending, shrink otherwise (the two run the identical
/// protocol — the entry point only names the intent). Returns the
/// committed communicator and the agreement's virtual-time cost. Public
/// so `dd-serve` can continue a request stream across membership changes.
pub fn agree_next(comm: &Communicator) -> Result<(Communicator, f64), SpmdError> {
    let t0 = comm.clock();
    let next = if comm.pending_joiners().is_empty() {
        comm.try_shrink()
    } else {
        comm.try_grow()
    }
    .map_err(|e| classify_comm(comm, e))?;
    let t_agreement = next.clock() - t0;
    Ok((next, t_agreement))
}

// ----------------------------------------------------------- repartition

/// How a committed membership change re-homes the subdomains: the complete
/// owner map of the new epoch plus the membership deltas a
/// [`RecoveryRecord`] reports. Pure function of shared data — every member
/// (joiners included) derives the same plan for the same epoch.
pub struct RepartitionPlan {
    /// Owner (world rank) of every subdomain, indexed by subdomain.
    pub owner_world: Vec<usize>,
    /// Member world ranks that died, ascending.
    pub dead: Vec<usize>,
    /// Member world ranks evicted as suspected stragglers, ascending.
    pub evicted: Vec<usize>,
    /// Joiner world ranks admitted into the world, ascending.
    pub joined: Vec<usize>,
    /// `(subdomain, new owner)` for every subdomain this plan re-homes
    /// (empty on the initial epoch and on joiners, which have no previous
    /// owner map to diff against).
    pub adopted: Vec<(usize, usize)>,
}

/// The adopter of each subdomain after the departures in `dead`: the
/// subdomain itself while its owner lives, else the lowest-indexed
/// *surviving* neighbor subdomain (whose owner adopts it), else the lowest
/// survivor. Pure function of shared data — every survivor computes the
/// same map. Only meaningful for one-subdomain-per-rank worlds (the
/// classic shrink path); elastic worlds re-chunk instead.
fn adoption_map(decomp: &Decomposition, dead: &[usize], survivors: &[usize]) -> Vec<usize> {
    (0..decomp.n_subdomains())
        .map(|s| {
            if !dead.contains(&s) {
                return s;
            }
            decomp.subdomains[s]
                .neighbors
                .iter()
                .map(|l| l.j)
                .filter(|j| !dead.contains(j))
                .min()
                .unwrap_or(survivors[0])
        })
        .collect()
}

/// Balanced contiguous re-chunk: subdomain `s` goes to the member hosting
/// the chunk containing `s`, chunks in member (= world-rank, joiners
/// appended) order, sizes differing by at most one. Whole subdomains move;
/// nothing is re-meshed.
fn balanced_owner_map(nsubs: usize, members: &[usize]) -> Vec<usize> {
    let m = members.len();
    assert!(
        0 < m && m <= nsubs,
        "balanced re-chunk needs 1..=nsubs members, got {m} for {nsubs} subdomains"
    );
    let base = nsubs / m;
    let rem = nsubs % m;
    let mut owner = Vec::with_capacity(nsubs);
    for (i, &w) in members.iter().enumerate() {
        let len = base + usize::from(i < rem);
        owner.extend(std::iter::repeat_n(w, len));
    }
    owner
}

/// The shrink path's plan: neighbor adoption of the departed ranks'
/// subdomains (one subdomain per rank, the PR-5 contract).
fn shrink_plan(decomp: &Decomposition, comm: &Communicator) -> RepartitionPlan {
    let departed = comm.departed_ranks();
    let members = comm.world_ranks();
    let owner_world = adoption_map(decomp, &departed, members);
    let adopted: Vec<(usize, usize)> = departed.iter().map(|&s| (s, owner_world[s])).collect();
    RepartitionPlan {
        owner_world,
        dead: comm.dead_ranks(),
        evicted: comm.evicted_ranks(),
        joined: members
            .iter()
            .copied()
            .filter(|&w| w >= comm.n_founders())
            .collect(),
        adopted,
    }
}

/// The elastic plan for the current epoch: a balanced contiguous re-chunk
/// over the committed member set. `prev_owner` (the previous epoch's map,
/// `None` on the initial epoch and on joiners) is diffed for the
/// `adopted` report entries only — the owner map itself is a pure function
/// of the membership, so every member derives it independently.
pub fn repartition_plan(
    decomp: &Decomposition,
    comm: &Communicator,
    prev_owner: Option<&[usize]>,
) -> RepartitionPlan {
    let members = comm.world_ranks();
    let owner_world = balanced_owner_map(decomp.n_subdomains(), members);
    let adopted: Vec<(usize, usize)> = match prev_owner {
        Some(prev) => (0..decomp.n_subdomains())
            .filter(|&s| owner_world[s] != prev[s])
            .map(|s| (s, owner_world[s]))
            .collect(),
        None => Vec::new(),
    };
    RepartitionPlan {
        owner_world,
        dead: comm.dead_ranks(),
        evicted: comm.evicted_ranks(),
        joined: members
            .iter()
            .copied()
            .filter(|&w| w >= comm.n_founders())
            .collect(),
        adopted,
    }
}

// ------------------------------------------------------- partitioned run

/// Setup of one epoch on an arbitrary owner map: build (or rebuild) the
/// two-level preconditioner over the plan's partition, returning the
/// resident [`PreparedMulti`].
///
/// This serves both the recovered epoch of the classic shrink path
/// (`cache = None`: everything recomputed, adopted subdomains take the
/// Nicolaides degradation) and every epoch of an elastic run
/// (`cache = Some`: GenEO bases and coarse rows are banked per
/// `(subdomain, owner)`, so after a membership change only moved
/// subdomains recompute — the incremental re-assembly of `E`). One-shot
/// drivers reset the virtual clock; a resident server re-preparing
/// mid-stream passes `reset_clock = false` to keep its request clock
/// monotone.
pub fn try_setup_partitioned<'a>(
    decomp: &'a Decomposition,
    comm: &'a Communicator,
    opts: &SpmdOpts,
    cache: Option<&CoarseCache>,
    plan: &RepartitionPlan,
    reset_clock: bool,
) -> Result<PreparedMulti<'a>, SpmdError> {
    let nsubs = decomp.n_subdomains();
    let me_world = comm.world_rank();
    let me = comm.rank();
    let n_live = comm.size();
    let members = comm.world_ranks();
    // World rank → communicator rank (members are re-ranked contiguously,
    // survivors in world order, joiners appended, by the agreement).
    let rank_of = |world: usize| -> usize {
        members
            .iter()
            .position(|&r| r == world)
            .expect("subdomain owned by a non-member rank")
    };
    // Every blocking wait of this epoch is bounded: a peer that dies
    // *again* must surface as an error, not an unbounded wait.
    comm.set_retry_policy(RetryPolicy::bounded_jittered());

    let mut run = RunReport::default();
    let owned: Vec<usize> = (0..nsubs)
        .filter(|&s| plan.owner_world[s] == me_world)
        .collect();
    let host: Vec<usize> = (0..nsubs).map(|s| rank_of(plan.owner_world[s])).collect();
    let my_adopted: Vec<usize> = plan
        .adopted
        .iter()
        .filter(|&&(_, o)| o == me_world)
        .map(|&(s, _)| s)
        .collect();
    let i_adopted = !my_adopted.is_empty();
    let mut starts = vec![0usize];
    for &s in &owned {
        starts.push(starts[starts.len() - 1] + decomp.subdomains[s].n_local());
    }
    let halo = HaloPlan::build(decomp, comm, &owned, &starts, &host);

    comm.try_barrier()?;
    if reset_clock {
        comm.reset_clock();
    }
    let clk_begin = comm.clock();
    comm.trace_phase("recovery-adopt");

    // ---- adopt: re-factor the Dirichlet matrices of every owned
    // subdomain (for adopters that re-runs the orphan's local setup from
    // the shared decomposition).
    // Each owned subdomain is analysed once, here: its elimination order
    // also serves the shifted GenEO pencil below, and is dropped with this
    // call.
    let mut factors: Vec<LocalLdlt> = Vec::with_capacity(owned.len());
    let mut orders: Vec<Vec<usize>> = Vec::with_capacity(owned.len());
    for &s in &owned {
        let (order, f) = comm
            .compute(|| decomp.subdomains[s].factor_dirichlet(opts.ordering, opts.local_ldlt))
            .map_err(|source| SpmdError::LocalFactorization {
                rank: me_world,
                source,
            })?;
        orders.push(order);
        factors.push(f);
    }
    run.phases.push((
        "recovery-adopt",
        if i_adopted {
            PhaseOutcome::Degraded {
                reason: format!("adopted orphaned subdomain(s) {my_adopted:?}"),
            }
        } else {
            PhaseOutcome::Ok
        },
    ));
    comm.try_barrier()?;
    let clk_adopted = comm.clock();
    let t_adopt = clk_adopted - clk_begin;
    comm.trace_phase("recovery-deflation");

    // ---- deflation. With a coarse cache (elastic runs) the GenEO basis
    // travels with the subdomain: reuse it wherever the subdomain lands,
    // compute it once where it is missing. Without one (classic shrink),
    // adopted subdomains get the Nicolaides substitute (eigenvector
    // recomputation is skipped — the documented degradation).
    let mut blocks = Vec::with_capacity(owned.len());
    // Why each subdomain that got Nicolaides vectors did not get GenEO ones.
    let mut degraded: Vec<String> = Vec::new();
    for (i, &s) in owned.iter().enumerate() {
        let sub = &decomp.subdomains[s];
        let nicolaides = || comm.compute(|| nicolaides_fallback_block(sub));
        let geneo = || {
            comm.compute(|| {
                try_deflation_block_ordered(sub, &opts.geneo, &orders[i], opts.local_ldlt)
            })
            .map_err(|e| format!("subdomain {s}: eigensolve failed ({e})"))
        };
        let block = if opts.one_level_only {
            nicolaides()
        } else if let Some(cache) = cache {
            match cache.basis(s) {
                Some((b, is_geneo)) => {
                    if !is_geneo {
                        degraded.push(format!("subdomain {s}: banked substitute"));
                    }
                    b
                }
                None => match geneo() {
                    Ok(b) => {
                        cache.store_basis(s, &b, true);
                        b
                    }
                    Err(why) => {
                        degraded.push(why);
                        let b = nicolaides();
                        cache.store_basis(s, &b, false);
                        b
                    }
                },
            }
        } else if s == me_world {
            geneo().unwrap_or_else(|why| {
                degraded.push(why);
                nicolaides()
            })
        } else {
            degraded.push(format!("subdomain {s}: adopted"));
            nicolaides()
        };
        blocks.push(block);
    }
    run.deflation = if opts.one_level_only {
        DeflationSource::None
    } else if degraded.is_empty() {
        DeflationSource::Geneo
    } else {
        DeflationSource::NicolaidesFallback
    };
    run.phases.push((
        "recovery-deflation",
        if degraded.is_empty() || opts.one_level_only {
            PhaseOutcome::Ok
        } else {
            PhaseOutcome::Degraded {
                reason: format!("Nicolaides vectors substituted ({})", degraded.join("; ")),
            }
        },
    ));
    let nu = if opts.one_level_only {
        0
    } else {
        let local_max = blocks.iter().map(|b| b.kept.max(1)).max().unwrap_or(1);
        comm.try_allreduce_max_usize(local_max)?
    };
    let w: Vec<DMat> = blocks.iter().map(|b| resize_block(b, nu)).collect();
    comm.try_barrier()?;
    let clk_deflated = comm.clock();
    let t_deflation = clk_deflated - clk_adopted;
    comm.trace_phase("recovery-assembly");

    // ---- masters re-elected over the survivors (non-uniform split), and
    // the coarse operator re-assembled and re-factored.
    let masters = nonuniform_masters(n_live, opts.n_masters.min(n_live));
    let my_group = group_of(me, &masters);
    let split = comm
        .try_split(Some(my_group))?
        .ok_or(SpmdError::SplitFailed { rank: me_world })?;
    split.set_trace_label("splitComm");
    let is_master = split.rank() == 0;
    let master_comm = comm.try_split(if is_master { Some(0) } else { None })?;
    if let Some(m) = master_comm.as_ref() {
        m.set_trace_label("masterComm");
    }
    let group_ranks: Vec<usize> = {
        let start = masters[my_group];
        let end = if my_group + 1 < masters.len() {
            masters[my_group + 1]
        } else {
            n_live
        };
        (start..end).collect()
    };
    // Subdomains hosted by each rank, ascending — with coarse rows ordered
    // by (host rank, subdomain), each rank's (and so each group's) coarse
    // rows are contiguous.
    let subs_of_rank: Vec<Vec<usize>> = (0..n_live)
        .map(|r| (0..nsubs).filter(|&s| host[s] == r).collect())
        .collect();
    let group_subs: Vec<Vec<usize>> = group_ranks
        .iter()
        .map(|&r| subs_of_rank[r].clone())
        .collect();

    let mut dim_e = 0usize;
    let mut nnz_e_factor = 0usize;
    let mut e_solve: Option<MasterSolve> = None;
    let mut coarse_start = vec![0usize; nsubs];
    let mut nu_of = vec![0usize; nsubs];
    let mut coarse_failed: Option<String> = None;
    let mut coarse_fallback: Option<String> = None;
    // Which subdomains' coarse rows are recomputed this epoch (all of
    // them without a cache); virtual clock reading once `E` is assembled.
    let mut fresh: Vec<bool> = vec![true; nsubs];
    let mut clk_assembled: Option<f64> = None;

    if !opts.one_level_only {
        // All ranks learn every subdomain's ν: allgather (sub, ν) pairs.
        let mut pairs: Vec<u64> = Vec::new();
        for (i, &s) in owned.iter().enumerate() {
            pairs.push(s as u64);
            pairs.push(w[i].cols() as u64);
        }
        let all_pairs = comm.try_allgather(pairs)?;
        for v in &all_pairs {
            for c in v.chunks_exact(2) {
                nu_of[c[0] as usize] = c[1] as usize;
            }
        }
        let mut pos = 0usize;
        for r in 0..n_live {
            for &s in &subs_of_rank[r] {
                coarse_start[s] = pos;
                pos += nu_of[s];
            }
        }
        dim_e = pos;

        // Incremental re-assembly: every rank derives the identical
        // recompute set from a second allgather of owner-authored
        // freshness flags. A moved subdomain's new owner misses the
        // `(sub, owner)` cache key and recomputes; an unchanged owner with
        // a matching layout signature reuses its banked rows.
        let sig = layout_sig(&nu_of);
        if let Some(cache) = cache {
            let mut flags: Vec<u64> = Vec::new();
            for &s in &owned {
                flags.push(s as u64);
                flags.push(u64::from(!cache.has_rows(s, me_world, sig)));
            }
            let all_flags = comm.try_allgather(flags)?;
            for v in &all_flags {
                for c in v.chunks_exact(2) {
                    fresh[c[0] as usize] = c[1] != 0;
                }
            }
        }

        // Neighborhood exchange of S_j = R_j R_sᵀ T_s per owned subdomain
        // (Algorithm 1, pair-encoded tags, same-host pairs local). T_s
        // feeds both this row's diagonal block and the halos of every
        // neighbor recomputing theirs — skipped only when nobody needs it.
        let policy = comm.retry_policy();
        let mut t_blocks: Vec<Option<DMat>> = Vec::with_capacity(owned.len());
        let mut e_ss: Vec<Option<DMat>> = Vec::with_capacity(owned.len());
        for (i, &s) in owned.iter().enumerate() {
            let sub = &decomp.subdomains[s];
            if !fresh[s] && !sub.neighbors.iter().any(|l| fresh[l.j]) {
                t_blocks.push(None);
                e_ss.push(None);
                continue;
            }
            let nu_s = w[i].cols();
            let (t_s, e) = comm.compute(|| {
                let t = sub.mm_dirichlet(&w[i]);
                let e = fresh[s].then(|| {
                    let mut e = DMat::zeros(nu_s, nu_s);
                    w[i].gemm_tn(1.0, &t, 0.0, &mut e);
                    e
                });
                (t, e)
            });
            t_blocks.push(Some(t_s));
            e_ss.push(e);
        }
        let mut local_halo: Vec<((usize, usize), Vec<f64>)> = Vec::new();
        for (i, &s) in owned.iter().enumerate() {
            let sub = &decomp.subdomains[s];
            let nu_s = w[i].cols();
            for link in &sub.neighbors {
                if !fresh[link.j] {
                    continue;
                }
                let t_s = t_blocks[i].as_ref().expect("halo source T_s missing");
                let mut payload = Vec::with_capacity(link.shared.len() * nu_s);
                for q in 0..nu_s {
                    let col = t_s.col(q);
                    payload.extend(link.shared.iter().map(|&k| col[k as usize]));
                }
                if host[link.j] == me {
                    local_halo.push(((s, link.j), payload));
                } else {
                    let tag = TAG_RT + epoch_salt(comm) + (s as u64) * nsubs as u64 + link.j as u64;
                    comm.send(host[link.j], tag, payload);
                }
            }
        }
        // E_sj = W_sᵀ U_j for each *fresh* owned subdomain and neighbor.
        let mut e_sj: Vec<Option<Vec<DMat>>> = Vec::with_capacity(owned.len());
        for (i, &s) in owned.iter().enumerate() {
            if !fresh[s] {
                e_sj.push(None);
                continue;
            }
            let sub = &decomp.subdomains[s];
            let nu_s = w[i].cols();
            let mut per_link = Vec::with_capacity(sub.neighbors.len());
            for link in &sub.neighbors {
                let j = link.j;
                let u: Vec<f64> = if host[j] == me {
                    let p = local_halo
                        .iter()
                        .position(|(key, _)| *key == (j, s))
                        .expect("missing same-host assembly payload");
                    local_halo.swap_remove(p).1
                } else {
                    let tag = TAG_RT + epoch_salt(comm) + (j as u64) * nsubs as u64 + s as u64;
                    comm.try_recv_timeout(host[j], tag, &policy)?
                };
                let nu_j = nu_of[j];
                debug_assert_eq!(u.len(), link.shared.len() * nu_j);
                let block = comm.compute(|| {
                    let mut e = DMat::zeros(nu_s, nu_j);
                    for q in 0..nu_j {
                        let ucol = &u[q * link.shared.len()..(q + 1) * link.shared.len()];
                        for p in 0..nu_s {
                            let wcol = w[i].col(p);
                            let mut acc = 0.0;
                            for (&k, &uv) in link.shared.iter().zip(ucol) {
                                acc += wcol[k as usize] * uv;
                            }
                            e[(p, q)] = acc;
                        }
                    }
                    e
                });
                per_link.push(block);
            }
            e_sj.push(Some(per_link));
        }

        // Gather this rank's row blocks on the group master. The recovered
        // epoch ships explicit indices (the "natural" layout): after an
        // adoption the index-free reconstruction no longer matches the one
        //-sub-per-rank layout, and recovery favors simplicity over the
        // assembly-bandwidth optimization.
        let mut rows: Vec<u64> = Vec::new();
        let mut cols: Vec<u64> = Vec::new();
        let mut vals: Vec<f64> = Vec::new();
        for (i, &s) in owned.iter().enumerate() {
            let rs = coarse_start[s];
            let nu_s = w[i].cols();
            if fresh[s] {
                let ess = e_ss[i].as_ref().expect("fresh row missing E_ss");
                let links = e_sj[i].as_ref().expect("fresh row missing E_sj");
                for p in 0..nu_s {
                    for q in 0..nu_s {
                        rows.push((rs + p) as u64);
                        cols.push((rs + q) as u64);
                        vals.push(ess[(p, q)]);
                    }
                }
                for (link, blk) in decomp.subdomains[s].neighbors.iter().zip(links) {
                    let rj = coarse_start[link.j];
                    for p in 0..blk.rows() {
                        for q in 0..blk.cols() {
                            rows.push((rs + p) as u64);
                            cols.push((rj + q) as u64);
                            vals.push(blk[(p, q)]);
                        }
                    }
                }
                // Bank the recomputed row for the next membership change:
                // stored relative to the subdomain, rebased on reuse.
                if let Some(cache) = cache {
                    let mut ess_flat = Vec::with_capacity(nu_s * nu_s);
                    for p in 0..nu_s {
                        for q in 0..nu_s {
                            ess_flat.push(ess[(p, q)]);
                        }
                    }
                    let blocks = decomp.subdomains[s]
                        .neighbors
                        .iter()
                        .zip(links)
                        .map(|(link, blk)| {
                            let mut flat = Vec::with_capacity(blk.rows() * blk.cols());
                            for p in 0..blk.rows() {
                                for q in 0..blk.cols() {
                                    flat.push(blk[(p, q)]);
                                }
                            }
                            (link.j, blk.cols(), flat)
                        })
                        .collect();
                    cache.store_rows(
                        s,
                        me_world,
                        CachedRows {
                            sig,
                            e_ss: ess_flat,
                            e_sj: blocks,
                        },
                    );
                }
            } else {
                let cached = cache
                    .and_then(|c| c.rows(s, me_world, sig))
                    .expect("stale freshness flag: cached coarse row vanished");
                for p in 0..nu_s {
                    for q in 0..nu_s {
                        rows.push((rs + p) as u64);
                        cols.push((rs + q) as u64);
                        vals.push(cached.e_ss[p * nu_s + q]);
                    }
                }
                for (j, nu_j, flat) in &cached.e_sj {
                    let rj = coarse_start[*j];
                    for p in 0..nu_s {
                        for q in 0..*nu_j {
                            rows.push((rs + p) as u64);
                            cols.push((rj + q) as u64);
                            vals.push(flat[p * nu_j + q]);
                        }
                    }
                }
            }
        }
        let gr = split.try_gatherv(0, rows)?;
        let gc = split.try_gatherv(0, cols)?;
        let gv = split.try_gatherv(0, vals)?;
        clk_assembled = Some(comm.clock());

        if let Some(master) = master_comm.as_ref() {
            let (rows, cols, vals) = match (gr, gc, gv) {
                (Some(r), Some(c), Some(v)) => (
                    r.into_iter().flatten().collect::<Vec<u64>>(),
                    c.into_iter().flatten().collect::<Vec<u64>>(),
                    v.into_iter().flatten().collect::<Vec<f64>>(),
                ),
                _ => {
                    return Err(SpmdError::Protocol {
                        rank: me_world,
                        what: "recovery master received no gatherv result".to_string(),
                    })
                }
            };
            match opts.coarse_solve {
                CoarseSolve::Redundant => {
                    comm.trace_phase("recovery-e-factorization");
                    let all_rows = master.try_allgather(rows)?;
                    let all_cols = master.try_allgather(cols)?;
                    let all_vals = master.try_allgather(vals)?;
                    let ef = comm.compute(|| {
                        let mut coo = CooBuilder::new(dim_e, dim_e);
                        for ((rs, cs), vs) in all_rows.iter().zip(&all_cols).zip(&all_vals) {
                            for ((&r, &c), &v) in rs.iter().zip(cs).zip(vs) {
                                coo.push(r as usize, c as usize, v);
                            }
                        }
                        let e: CsrMatrix = coo.to_csr();
                        SparseLdlt::factor_with(
                            &e,
                            opts.ordering,
                            PivotPolicy::Boost { rel_tol: 1e-12 },
                        )
                        .map(|factor| (e, factor))
                        .map_err(|e| e.to_string())
                    });
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
                    comm.trace_phase("recovery-e-factorization-dist");
                    // Block-row boundaries: the election boundaries mapped
                    // to coarse rows via each group's first subdomain.
                    let rank_row: Vec<usize> = (0..n_live)
                        .map(|r| subs_of_rank[r].first().map_or(dim_e, |&s| coarse_start[s]))
                        .collect();
                    let mut bounds: Vec<usize> = masters.iter().map(|&m| rank_row[m]).collect();
                    bounds.push(dim_e);
                    let r0 = bounds[master.rank()];
                    let np = bounds[master.rank() + 1] - r0;
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
                        .map_err(|e| classify_comm_at(comm, e, "recovery-e-factorization-dist"))?;
                    nnz_e_factor = dist.nnz_l();
                    e_solve = Some(MasterSolve::Distributed(dist));
                }
            }
            comm.trace_phase("recovery-assembly");
        }
        let any_failed = comm.try_allreduce_max_usize(usize::from(coarse_failed.is_some()))? > 0;
        if any_failed {
            e_solve = None;
            nnz_e_factor = 0;
            coarse_fallback = Some(match coarse_failed.take() {
                Some(r) => format!("coarse factorization failed ({r}); one-level RAS fallback"),
                None => {
                    "coarse factorization failed on a master; one-level RAS fallback".to_string()
                }
            });
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
        "recovery-assembly",
        match &coarse_fallback {
            Some(reason) => PhaseOutcome::Degraded {
                reason: reason.clone(),
            },
            None => PhaseOutcome::Ok,
        },
    ));
    comm.try_barrier()?;
    let clk_coarse_done = comm.clock();
    let t_coarse = clk_coarse_done - clk_deflated;
    // Recovery-phase split for the RunReport: everything up to the row
    // gather is re-assembly; the master factorization is the rest.
    let t_reassembly = clk_assembled.unwrap_or(clk_coarse_done) - clk_begin;
    let t_refactorization = clk_coarse_done - clk_begin - t_reassembly;
    let group_rows = |subs: &Vec<usize>| subs.iter().map(|&s| nu_of[s]).sum();
    Ok(PreparedMulti {
        halo,
        decomp,
        comm,
        opts: opts.clone(),
        owned,
        starts,
        factors,
        w,
        nu,
        split,
        master_comm,
        group_rows: group_subs.iter().map(group_rows).collect(),
        group_row0: group_subs
            .iter()
            .flatten()
            .next()
            .map_or(dim_e, |&s| coarse_start[s]),
        dim_e,
        nnz_e_factor,
        e_solve,
        run,
        coarse_solve_phase: "recovery-e-solve-dist",
        solve_phase: "recovery-solve",
        t_factorization: t_adopt,
        t_deflation,
        t_coarse,
        fresh,
        t_reassembly,
        t_refactorization,
    })
}

/// One epoch on an arbitrary owner map: [`try_setup_partitioned`] plus one
/// checkpoint-resuming [`PreparedMulti::try_apply`] on the decomposition's
/// own right-hand side — the recovered/elastic epoch body.
/// `record_membership: false` on replay attempts, whose epoch's membership
/// record (if any) was already pushed by the first attempt.
#[allow(clippy::too_many_arguments)]
fn run_partitioned(
    decomp: &Decomposition,
    comm: &Communicator,
    opts: &SpmdOpts,
    store: &CheckpointStore,
    cache: Option<&CoarseCache>,
    plan: &RepartitionPlan,
    recoveries: &mut Vec<RecoveryRecord>,
    t_agreement: f64,
    record_membership: bool,
) -> Result<SpmdMultiSolution, SpmdError> {
    let nsubs = decomp.n_subdomains();
    // Resuming from a checkpoint, and surviving the next fault with a typed
    // error, both need the classical loop — the pipelined ones have no
    // fallible entry point — whatever `opts.solver` asks of a first epoch.
    let opts = &SpmdOpts {
        solver: SolverKind::Classical,
        ..opts.clone()
    };
    let prepared = try_setup_partitioned(decomp, comm, opts, cache, plan, true)?;
    let owned = &prepared.owned;

    // ---- resume from the last globally complete checkpoint.
    let resume_iteration = store.rollback_iteration(nsubs);
    let resume = resume_iteration.and_then(|it| {
        let mut x = Vec::new();
        for &s in owned {
            x.extend(store.get(s, it)?.x);
        }
        let anchor = store.get(owned[0], it)?;
        Some(SolveCheckpoint {
            iteration: it,
            x,
            residual: anchor.residual,
            r0_norm: anchor.r0_norm,
            history: anchor.history,
        })
    });
    let resume_iteration = resume.as_ref().map(|cp| cp.iteration);
    // The initial epoch of an elastic run is not a recovery — only
    // membership changes get a record.
    if comm.epoch() > 0 && record_membership {
        // Rows recomputed this epoch vs. reused from the cache.
        let rows = |fresh: bool| -> Vec<usize> {
            (0..nsubs)
                .filter(|&s| !opts.one_level_only && prepared.fresh[s] == fresh)
                .collect()
        };
        recoveries.push(RecoveryRecord {
            epoch: comm.epoch(),
            dead: plan.dead.clone(),
            evicted: plan.evicted.clone(),
            joined: plan.joined.clone(),
            adopted: plan.adopted.clone(),
            moved: rows(true),
            reused: rows(false),
            resume_iteration,
            t_agreement,
            t_reassembly: prepared.t_reassembly,
            t_refactorization: prepared.t_refactorization,
            corruptions_detected: comm.fault_stats().corruptions_detected,
            replays: 0,
            t_replay: 0.0,
        });
    }
    let sink = StoreSink {
        store,
        subs: owned
            .iter()
            .map(|&s| (s, decomp.subdomains[s].n_local()))
            .collect(),
    };
    let cfg = match resume {
        Some(cp) => CheckpointCfg::resuming(opts.recovery.checkpoint_interval, &sink, cp),
        None => CheckpointCfg::new(opts.recovery.checkpoint_interval, &sink),
    };

    let out = prepared.try_apply(&decomp.rhs_global, "recovery-solve", Some(&cfg))?;
    let mut report = prepared.report(&out);
    report.run.recoveries = recoveries.clone();
    Ok(SpmdMultiSolution {
        report,
        locals: out.locals,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cp(iteration: usize, tag: f64) -> SolveCheckpoint {
        SolveCheckpoint {
            iteration,
            x: vec![tag; 3],
            residual: 0.5,
            r0_norm: 1.0,
            history: vec![1.0],
        }
    }

    #[test]
    fn store_keeps_last_two_and_rolls_back_to_common_iteration() {
        let store = CheckpointStore::new();
        for it in [5, 10, 15] {
            store.save(0, cp(it, 0.0));
            store.save(1, cp(it, 1.0));
        }
        // Sub 2 missed the last window — death struck mid-checkpoint.
        store.save(2, cp(5, 2.0));
        store.save(2, cp(10, 2.0));
        assert_eq!(store.rollback_iteration(3), Some(10));
        // Only the last two snapshots are retained.
        assert!(store.get(0, 5).is_none());
        assert_eq!(store.get(0, 15).unwrap().iteration, 15);
        // A fully common iteration wins when everyone has it.
        store.save(2, cp(15, 2.0));
        assert_eq!(store.rollback_iteration(3), Some(15));
        // A subdomain with no snapshots at all blocks any resume.
        assert_eq!(store.rollback_iteration(4), None);
    }

    #[test]
    fn duplicate_iteration_overwrites_instead_of_duplicating() {
        let store = CheckpointStore::new();
        store.save(0, cp(5, 1.0));
        store.save(0, cp(5, 2.0));
        let got = store.get(0, 5).unwrap();
        assert_eq!(got.x, vec![2.0; 3]);
    }

    #[test]
    fn corrupted_checkpoint_is_skipped_on_read_and_rollback() {
        let store = CheckpointStore::new();
        for it in [5, 10] {
            for s in 0..2 {
                store.save(s, cp(it, s as f64));
            }
        }
        assert_eq!(store.rollback_iteration(2), Some(10));
        assert!(store.corrupt_for_tests(1, 10));
        // The poisoned snapshot no longer reads back…
        assert!(store.get(1, 10).is_none());
        assert_eq!(store.get(0, 10).unwrap().iteration, 10);
        // …and the rollback falls through to the next-newest snapshot
        // that verifies on every subdomain.
        assert_eq!(store.rollback_iteration(2), Some(5));
        // Overwriting the slot with a fresh snapshot heals it.
        store.save(1, cp(10, 7.0));
        assert_eq!(store.rollback_iteration(2), Some(10));
    }

    #[test]
    fn corruption_in_the_anchor_subdomain_is_also_skipped() {
        // Rollback candidates are enumerated from subdomain 0; a poisoned
        // snapshot there must not even be a candidate.
        let store = CheckpointStore::new();
        for it in [5, 10] {
            store.save(0, cp(it, 0.0));
            store.save(1, cp(it, 1.0));
        }
        assert!(store.corrupt_for_tests(0, 10));
        assert_eq!(store.rollback_iteration(2), Some(5));
    }

    #[test]
    fn replayable_is_corruption_only_and_disjoint_from_recoverable() {
        let corrupt = SpmdError::Comm(CommError::Corrupt {
            src: 1,
            tag: 7,
            epoch: 0,
        });
        let sdc = SpmdError::SuspectedCorruption {
            rank: 0,
            iteration: 12,
            recurred: 1e-8,
            recomputed: 2e-3,
        };
        let dead = SpmdError::Comm(CommError::RankDead { rank: 1 });
        assert!(replayable(&corrupt) && replayable(&sdc));
        assert!(!replayable(&dead));
        assert!(!recoverable(&corrupt) && !recoverable(&sdc));
        assert!(recoverable(&dead));
    }
}
