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
use crate::spmd::{
    classify_comm, classify_comm_at, comm_interrupt, dist_interrupt, interrupt_to_spmd, run_inner,
    MasterSolve, SolverKind, SpmdOpts, SpmdReport,
};
use dd_comm::{CommError, Communicator, RetryPolicy, SuspicionPolicy};
use dd_krylov::{
    try_gmres, CheckpointCfg, CheckpointSink, InnerProduct, Operator, Preconditioner,
    SolveCheckpoint, SolveInterrupt, SolveResult, SolveStatus,
};
use dd_linalg::{vector, CooBuilder, CsrMatrix, DMat};
use dd_solver::{DistLdlt, LocalLdlt, PivotPolicy, SparseLdlt};
use std::collections::HashMap;
use std::sync::Mutex;

// Recovered-epoch tag namespaces, keyed by the (source, destination)
// *subdomain* pair — a rank may host several subdomains after adoption, so
// rank-keyed tags would collide. Each namespace is further salted by the
// revocation epoch ([`epoch_salt`]) so a second recovery can never consume
// a stale in-flight message of the first.
const TAG_RT: u64 = 1_000_000; // coarse assembly S_j / U_j exchange
const TAG_RX: u64 = 2_000_000; // SpMV / consistency halo exchange

/// Per-epoch tag offset keeping successive recovered epochs' p2p traffic in
/// disjoint tag spaces.
fn epoch_salt(comm: &Communicator) -> u64 {
    comm.epoch() as u64 * 10_000_000
}

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

// -------------------------------------------- multi-subdomain machinery

/// Shared geometry of a recovered epoch: which subdomains this rank hosts,
/// how their locals concatenate, and which survivor hosts every subdomain.
struct MultiCtx<'a> {
    comm: &'a Communicator,
    decomp: &'a Decomposition,
    /// Subdomains this rank owns, ascending.
    owned: Vec<usize>,
    /// Concatenation offsets of the owned subdomains' locals (len+1).
    starts: Vec<usize>,
    /// Communicator rank hosting each subdomain (indexed by subdomain).
    host: Vec<usize>,
}

impl MultiCtx<'_> {
    fn n_concat(&self) -> usize {
        *self.starts.last().unwrap()
    }

    /// Pair-encoded, epoch-salted halo tag for traffic from subdomain
    /// `src` to `dst`.
    fn tag(&self, base: u64, src: usize, dst: usize) -> u64 {
        base + epoch_salt(self.comm) + (src as u64) * self.decomp.n_subdomains() as u64 + dst as u64
    }

    /// Concatenated-vector variant of the neighbor consistency sum:
    /// `out_s += Σ_{j ∈ O_s} R_s R_jᵀ t_j` for every owned subdomain `s`.
    /// Same-host pairs short-circuit locally; remote receives run under the
    /// ambient bounded retry policy.
    fn exchange_add(&self, t: &[f64], out: &mut [f64]) -> Result<(), SolveInterrupt> {
        let policy = self.comm.retry_policy();
        let me = self.comm.rank();
        let mut local: Vec<((usize, usize), Vec<f64>)> = Vec::new();
        for (i, &s) in self.owned.iter().enumerate() {
            let ts = &t[self.starts[i]..self.starts[i + 1]];
            for link in &self.decomp.subdomains[s].neighbors {
                let payload: Vec<f64> = link.shared.iter().map(|&k| ts[k as usize]).collect();
                if self.host[link.j] == me {
                    local.push(((s, link.j), payload));
                } else {
                    self.comm
                        .send(self.host[link.j], self.tag(TAG_RX, s, link.j), payload);
                }
            }
        }
        for (i, &s) in self.owned.iter().enumerate() {
            for link in &self.decomp.subdomains[s].neighbors {
                let j = link.j;
                let recv: Vec<f64> = if self.host[j] == me {
                    let p = local
                        .iter()
                        .position(|(key, _)| *key == (j, s))
                        .expect("missing same-host halo payload");
                    local.swap_remove(p).1
                } else {
                    self.comm
                        .try_recv_timeout(self.host[j], self.tag(TAG_RX, j, s), &policy)
                        .map_err(comm_interrupt)?
                };
                debug_assert_eq!(recv.len(), link.shared.len());
                let out_s = &mut out[self.starts[i]..self.starts[i + 1]];
                for (&k, &v) in link.shared.iter().zip(&recv) {
                    out_s[k as usize] += v;
                }
            }
        }
        Ok(())
    }
}

/// Distributed operator over the concatenated owned subdomains (eq. 5).
struct MultiOp<'a> {
    ctx: &'a MultiCtx<'a>,
}

impl MultiOp<'_> {
    fn local_part(&self, x: &[f64]) -> Vec<f64> {
        let ctx = self.ctx;
        let mut flops = 0u64;
        let t = ctx.comm.compute(|| {
            let mut t = vec![0.0; ctx.n_concat()];
            for (i, &s) in ctx.owned.iter().enumerate() {
                let sub = &ctx.decomp.subdomains[s];
                let xs = &x[ctx.starts[i]..ctx.starts[i + 1]];
                let mut w = xs.to_vec();
                vector::scale_by(&sub.d, &mut w);
                sub.spmv_dirichlet(&w, &mut t[ctx.starts[i]..ctx.starts[i + 1]]);
                flops += (2 * sub.a_dirichlet.nnz() + sub.n_local()) as u64;
            }
            t
        });
        ctx.comm.charge_flops(flops);
        t
    }
}

impl Operator for MultiOp<'_> {
    fn dim(&self) -> usize {
        self.ctx.n_concat()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.try_apply(x, y)
            .unwrap_or_else(|e| panic!("recovered SpMV on rank {}: {e}", self.ctx.comm.rank()))
    }

    fn try_apply(&self, x: &[f64], y: &mut [f64]) -> Result<(), SolveInterrupt> {
        let t = self.local_part(x);
        y.copy_from_slice(&t);
        self.ctx.exchange_add(&t, y)
    }
}

/// Partition-of-unity inner product over the concatenated locals.
struct MultiDot<'a> {
    ctx: &'a MultiCtx<'a>,
}

impl InnerProduct for MultiDot<'_> {
    fn local_dot(&self, x: &[f64], y: &[f64]) -> f64 {
        let ctx = self.ctx;
        let mut acc = 0.0;
        for (i, &s) in ctx.owned.iter().enumerate() {
            let d = &ctx.decomp.subdomains[s].d;
            for (k, dk) in d.iter().enumerate() {
                let g = ctx.starts[i] + k;
                acc += dk * x[g] * y[g];
            }
        }
        ctx.comm.charge_flops(3 * x.len() as u64);
        acc
    }

    fn reduce(&self, locals: Vec<f64>) -> Vec<f64> {
        self.ctx.comm.allreduce_sum_vec(locals)
    }

    fn try_reduce(&self, locals: Vec<f64>) -> Result<Vec<f64>, SolveInterrupt> {
        self.ctx
            .comm
            .try_allreduce_sum_vec(locals)
            .map_err(comm_interrupt)
    }

    fn on_iteration(&self, k: usize) {
        self.ctx.comm.trace_iteration(k);
        // Same iteration-indexed failpoints as the fault-free solve, so
        // chaos plans can kill a rank inside a *recovered* epoch too.
        let _ = self.ctx.comm.failpoint(&format!("solve-iteration-{k}"));
        // Iteration boundaries are the membership maintenance points:
        // publish progress, suspect/evict stragglers under the armed
        // policy, and revoke when joiners are waiting in the lobby.
        self.ctx.comm.maintain();
    }
}

/// One-level RAS over the concatenated owned subdomains.
struct MultiRas<'a> {
    ctx: &'a MultiCtx<'a>,
    /// Local factors, aligned with `ctx.owned`.
    factors: &'a [LocalLdlt],
}

impl MultiRas<'_> {
    fn local_part(&self, r: &[f64]) -> Vec<f64> {
        let ctx = self.ctx;
        let mut flops = 0u64;
        let t = ctx.comm.compute(|| {
            let mut t = vec![0.0; ctx.n_concat()];
            for (i, &s) in ctx.owned.iter().enumerate() {
                let sub = &ctx.decomp.subdomains[s];
                let mut ts = self.factors[i].solve(&r[ctx.starts[i]..ctx.starts[i + 1]]);
                vector::scale_by(&sub.d, &mut ts);
                t[ctx.starts[i]..ctx.starts[i + 1]].copy_from_slice(&ts);
                flops += (4 * self.factors[i].nnz_l() + sub.n_local()) as u64;
            }
            t
        });
        ctx.comm.charge_flops(flops);
        t
    }
}

impl Preconditioner for MultiRas<'_> {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        self.try_apply(r, z)
            .unwrap_or_else(|e| panic!("recovered RAS on rank {}: {e}", self.ctx.comm.rank()))
    }

    fn try_apply(&self, r: &[f64], z: &mut [f64]) -> Result<(), SolveInterrupt> {
        let t = self.local_part(r);
        z.copy_from_slice(&t);
        self.ctx.exchange_add(&t, z)
    }
}

/// Coarse correction of the recovered epoch. Coarse rows are ordered by
/// `(hosting rank, subdomain)`, so each split group's rows stay contiguous
/// and the distributed block factorization keeps its bounds.
struct MultiCoarse<'a> {
    ctx: &'a MultiCtx<'a>,
    split: &'a Communicator,
    master: Option<(&'a Communicator, MasterSolve<'a>)>,
    /// Deflation blocks, aligned with `ctx.owned`.
    w: &'a [DMat],
    /// Coarse row start of each subdomain (indexed by subdomain).
    coarse_start: &'a [usize],
    /// ν of each subdomain (indexed by subdomain).
    nu_of: &'a [usize],
    /// Subdomains hosted by each group member, split order (= coarse order).
    group_subs: &'a [Vec<usize>],
    dim_e: usize,
}

impl MultiCoarse<'_> {
    fn try_correction(&self, u: &[f64], z: &mut [f64]) -> Result<(), SolveInterrupt> {
        let ctx = self.ctx;
        // step 1: w_s = W_sᵀ u_s for every owned subdomain, concatenated in
        // owned (= coarse) order, gathered on the master.
        let mut flops = 0u64;
        let msg = ctx.comm.compute(|| {
            let mut msg = Vec::new();
            for (i, &s) in ctx.owned.iter().enumerate() {
                let nu = self.w[i].cols();
                let mut wi = vec![0.0; nu];
                self.w[i].gemv_t(1.0, &u[ctx.starts[i]..ctx.starts[i + 1]], 0.0, &mut wi);
                msg.extend_from_slice(&wi);
                flops += 2 * (nu * ctx.decomp.subdomains[s].n_local()) as u64;
            }
            msg
        });
        ctx.comm.charge_flops(flops);
        let gathered = self.split.try_gather(0, msg).map_err(comm_interrupt)?;
        // step 2: masters solve E y = w on their contiguous block row.
        let y_mine: Vec<f64> =
            if let (Some((master, solve)), Some(parts)) = (self.master.as_ref(), &gathered) {
                // Split preserves rank order and coarse rows are ordered by
                // (rank, subdomain): concatenating the parts yields this
                // group's contiguous coarse block.
                let group_w: Vec<f64> = parts.iter().flatten().copied().collect();
                let y_group: Vec<f64> = match solve {
                    MasterSolve::Redundant(e_factor) => {
                        let all_w = master.try_allgather(group_w).map_err(comm_interrupt)?;
                        let mut rhs = Vec::with_capacity(self.dim_e);
                        for gw in &all_w {
                            rhs.extend_from_slice(gw);
                        }
                        debug_assert_eq!(rhs.len(), self.dim_e);
                        let y = ctx.comm.compute(|| e_factor.solve(&rhs));
                        ctx.comm.charge_flops(4 * e_factor.nnz_l() as u64);
                        let g0 = self.group_start();
                        let glen: usize = self
                            .group_subs
                            .iter()
                            .flatten()
                            .map(|&s| self.nu_of[s])
                            .sum();
                        y[g0..g0 + glen].to_vec()
                    }
                    MasterSolve::Distributed(dist) => {
                        let prev = ctx.comm.trace_phase_name();
                        ctx.comm.trace_phase("recovery-e-solve-dist");
                        let y = dist
                            .try_solve(master, &group_w)
                            .map_err(|e| dist_interrupt(ctx.comm, e, "recovery-e-solve-dist"))?;
                        ctx.comm.trace_phase(&prev);
                        y
                    }
                };
                // step 3a: scatter each member's slice back to the group.
                let mut pieces = Vec::with_capacity(self.group_subs.len());
                let mut pos = 0;
                for subs in self.group_subs {
                    let len: usize = subs.iter().map(|&s| self.nu_of[s]).sum();
                    pieces.push(y_group[pos..pos + len].to_vec());
                    pos += len;
                }
                self.split
                    .try_scatter(0, Some(pieces))
                    .map_err(comm_interrupt)?
            } else {
                self.split.try_scatter(0, None).map_err(comm_interrupt)?
            };
        // step 3b: z_s = W_s y_s plus the consistency sum (eq. 12).
        let mut flops = 0u64;
        let zi = ctx.comm.compute(|| {
            let mut zi = vec![0.0; ctx.n_concat()];
            let mut pos = 0;
            for (i, &s) in ctx.owned.iter().enumerate() {
                let nu = self.w[i].cols();
                self.w[i].gemv(
                    1.0,
                    &y_mine[pos..pos + nu],
                    0.0,
                    &mut zi[ctx.starts[i]..ctx.starts[i + 1]],
                );
                pos += nu;
                flops += 2 * (nu * ctx.decomp.subdomains[s].n_local()) as u64;
            }
            zi
        });
        ctx.comm.charge_flops(flops);
        z.copy_from_slice(&zi);
        ctx.exchange_add(&zi, z)
    }

    /// Coarse row start of this split group (only meaningful on masters).
    fn group_start(&self) -> usize {
        self.group_subs
            .iter()
            .flatten()
            .next()
            .map_or(self.dim_e, |&s| self.coarse_start[s])
    }
}

/// A-DEF1 over the concatenated owned subdomains (eq. 6).
struct MultiADef1<'a> {
    op: MultiOp<'a>,
    ras: MultiRas<'a>,
    coarse: MultiCoarse<'a>,
}

impl Preconditioner for MultiADef1<'_> {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        self.try_apply(r, z)
            .unwrap_or_else(|e| panic!("recovered A-DEF1 on rank {}: {e}", self.op.ctx.comm.rank()))
    }

    fn try_apply(&self, r: &[f64], z: &mut [f64]) -> Result<(), SolveInterrupt> {
        let n = r.len();
        let mut q = vec![0.0; n];
        self.coarse.try_correction(r, &mut q)?;
        let mut t = vec![0.0; n];
        self.op.try_apply(&q, &mut t)?;
        for k in 0..n {
            t[k] = r[k] - t[k];
        }
        self.ras.try_apply(&t, z)?;
        vector::axpy(1.0, &q, z);
        Ok(())
    }
}

// ------------------------------------------------------- partitioned run

/// The resident state of one epoch's setup on an arbitrary owner map: the
/// partitioned analogue of [`crate::PreparedSolver`]. Holds the owned
/// subdomains' factors and deflation blocks, the re-elected split/master
/// communicators, and this rank's handle on the re-factored coarse
/// operator. Produced by [`try_setup_partitioned`];
/// [`PreparedMulti::try_apply`] runs the (checkpointable) Krylov solve
/// against any right-hand side, reentrantly — `dd-serve` keeps one of
/// these resident per membership epoch when the world no longer matches
/// one-rank-per-subdomain.
pub struct PreparedMulti<'a> {
    decomp: &'a Decomposition,
    comm: &'a Communicator,
    opts: SpmdOpts,
    /// Subdomains this rank owns, ascending.
    owned: Vec<usize>,
    /// Communicator rank hosting each subdomain (indexed by subdomain).
    host: Vec<usize>,
    /// Concatenation offsets of the owned subdomains' locals (len+1).
    starts: Vec<usize>,
    factors: Vec<LocalLdlt>,
    w: Vec<DMat>,
    /// Globally agreed max ν.
    nu: usize,
    split: Communicator,
    master_comm: Option<Communicator>,
    group_subs: Vec<Vec<usize>>,
    coarse_start: Vec<usize>,
    nu_of: Vec<usize>,
    dim_e: usize,
    nnz_e_factor: usize,
    e_factor: Option<SparseLdlt>,
    e_dist: Option<DistLdlt>,
    run: RunReport,
    /// Which subdomains' coarse rows were recomputed this epoch.
    fresh: Vec<bool>,
    t_adopt: f64,
    t_deflation: f64,
    t_coarse: f64,
    t_reassembly: f64,
    t_refactorization: f64,
}

/// The per-apply result of [`PreparedMulti::try_apply`]: the Krylov
/// outcome, the per-subdomain locals of the solution, and this apply's
/// virtual-time/counter deltas.
pub struct MultiApplyOutcome {
    pub result: SolveResult,
    /// `(subdomain, local solution)` for every owned subdomain.
    pub locals: Vec<(usize, Vec<f64>)>,
    pub t_solution: f64,
    pub world_collectives_solution: u64,
    pub p2p_messages: u64,
    pub p2p_bytes: u64,
    pub collective_bytes: u64,
}

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
    let mut e_factor: Option<SparseLdlt> = None;
    let mut e_dist: Option<DistLdlt> = None;
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
                crate::spmd::CoarseSolve::Redundant => {
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
                        .map_err(|e| e.to_string())
                    });
                    match ef {
                        Ok(f) => {
                            comm.charge_flops(f.flops_estimate());
                            nnz_e_factor = f.nnz_l();
                            e_factor = Some(f);
                        }
                        Err(reason) => coarse_failed = Some(reason),
                    }
                }
                crate::spmd::CoarseSolve::Distributed => {
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
                    e_dist = Some(dist);
                }
            }
            comm.trace_phase("recovery-assembly");
        }
        let any_failed = comm.try_allreduce_max_usize(usize::from(coarse_failed.is_some()))? > 0;
        if any_failed {
            e_factor = None;
            e_dist = None;
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
    let starts: Vec<usize> = {
        let mut v = vec![0usize];
        for &s in &owned {
            v.push(v.last().unwrap() + decomp.subdomains[s].n_local());
        }
        v
    };
    Ok(PreparedMulti {
        decomp,
        comm,
        opts: opts.clone(),
        owned,
        host,
        starts,
        factors,
        w,
        nu,
        split,
        master_comm,
        group_subs,
        coarse_start,
        nu_of,
        dim_e,
        nnz_e_factor,
        e_factor,
        e_dist,
        run,
        fresh,
        t_adopt,
        t_deflation,
        t_coarse,
        t_reassembly,
        t_refactorization,
    })
}

impl PreparedMulti<'_> {
    /// Subdomains this rank owns, ascending.
    pub fn owned(&self) -> &[usize] {
        &self.owned
    }

    /// What the coarse level degraded to during setup.
    pub fn coarse(&self) -> CoarseOutcome {
        self.run.coarse
    }

    /// Phase outcomes and fallbacks of the setup phases.
    pub fn setup_report(&self) -> &RunReport {
        &self.run
    }

    /// Virtual seconds of re-assembly and re-factorization (the
    /// [`RecoveryRecord`] cost split).
    pub fn recovery_times(&self) -> (f64, f64) {
        (self.t_reassembly, self.t_refactorization)
    }

    /// Which subdomains' coarse rows were recomputed this epoch (`moved`)
    /// vs. reused from the cache, for [`RecoveryRecord`] bookkeeping.
    pub fn moved_reused(&self) -> (Vec<usize>, Vec<usize>) {
        if self.opts.one_level_only {
            (Vec::new(), Vec::new())
        } else {
            let n = self.decomp.n_subdomains();
            (
                (0..n).filter(|&s| self.fresh[s]).collect(),
                (0..n).filter(|&s| !self.fresh[s]).collect(),
            )
        }
    }

    /// The (checkpointable) Krylov solve against an arbitrary global
    /// right-hand side, using the resident partitioned preconditioner.
    /// Always runs the classical loop: pipelining and fusion assume the
    /// fault-free one-rank-per-subdomain communication schedule.
    pub fn try_apply(
        &self,
        rhs_global: &[f64],
        phase: &str,
        ckpt: Option<&CheckpointCfg<'_>>,
    ) -> Result<MultiApplyOutcome, SpmdError> {
        self.apply_inner(None, rhs_global, phase, ckpt, None)
    }

    /// [`PreparedMulti::try_apply`] with a recycle space threaded through
    /// (see [`crate::PreparedSolver::try_apply_recycled`]).
    pub fn try_apply_recycled(
        &self,
        rhs_global: &[f64],
        phase: &str,
        recycle: &mut dd_krylov::RecycleSpace,
    ) -> Result<MultiApplyOutcome, SpmdError> {
        self.apply_inner(None, rhs_global, phase, None, Some(recycle))
    }

    /// [`PreparedMulti::try_apply`] against a layout-compatible
    /// decomposition override — the parameter-perturbation path: the
    /// Krylov loop solves the perturbed system while RAS and the coarse
    /// correction reuse the resident factorizations built at the base
    /// parameter.
    pub fn try_apply_on(
        &self,
        decomp_override: &Decomposition,
        rhs_global: &[f64],
        phase: &str,
        recycle: Option<&mut dd_krylov::RecycleSpace>,
    ) -> Result<MultiApplyOutcome, SpmdError> {
        self.apply_inner(Some(decomp_override), rhs_global, phase, None, recycle)
    }

    fn apply_inner(
        &self,
        decomp_override: Option<&Decomposition>,
        rhs_global: &[f64],
        phase: &str,
        ckpt: Option<&CheckpointCfg<'_>>,
        recycle: Option<&mut dd_krylov::RecycleSpace>,
    ) -> Result<MultiApplyOutcome, SpmdError> {
        let comm = self.comm;
        let decomp = decomp_override.unwrap_or(self.decomp);
        debug_assert_eq!(decomp.n_subdomains(), self.decomp.n_subdomains());
        comm.trace_phase(phase);

        // ---- solve -----------------------------------------------------
        let clk_entry = comm.clock();
        let stats_before = comm.stats();
        let ctx = MultiCtx {
            comm,
            decomp,
            owned: self.owned.clone(),
            starts: self.starts.clone(),
            host: self.host.clone(),
        };
        let mut rhs = Vec::with_capacity(ctx.n_concat());
        for &s in &self.owned {
            rhs.extend(decomp.subdomains[s].restrict(rhs_global));
        }
        let x0 = vec![0.0; ctx.n_concat()];

        let op = MultiOp { ctx: &ctx };
        let ip = MultiDot { ctx: &ctx };
        let two_level = self.run.coarse == CoarseOutcome::TwoLevel;
        let result: SolveResult = if !two_level {
            let ras = MultiRas {
                ctx: &ctx,
                factors: &self.factors,
            };
            solve_multi(
                comm,
                &op,
                &ras,
                &ip,
                &rhs,
                &x0,
                &self.opts.gmres,
                ckpt,
                recycle,
            )?
        } else {
            let adef1 = MultiADef1 {
                op: MultiOp { ctx: &ctx },
                ras: MultiRas {
                    ctx: &ctx,
                    factors: &self.factors,
                },
                coarse: MultiCoarse {
                    ctx: &ctx,
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
                    w: &self.w,
                    coarse_start: &self.coarse_start,
                    nu_of: &self.nu_of,
                    group_subs: &self.group_subs,
                    dim_e: self.dim_e,
                },
            };
            solve_multi(
                comm,
                &op,
                &adef1,
                &ip,
                &rhs,
                &x0,
                &self.opts.gmres,
                ckpt,
                recycle,
            )?
        };
        comm.try_barrier()?;
        let t_solution = comm.clock() - clk_entry;
        let stats_after = comm.stats();
        let locals = self
            .owned
            .iter()
            .zip(self.starts.windows(2))
            .map(|(&s, win)| (s, result.x[win[0]..win[1]].to_vec()))
            .collect();
        Ok(MultiApplyOutcome {
            result,
            locals,
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

    /// Assemble the full [`SpmdReport`] for one apply (setup phases'
    /// outcomes plus this solve's).
    pub fn report(&self, out: &MultiApplyOutcome) -> SpmdReport {
        let comm = self.comm;
        let result = &out.result;
        let mut run = self.run.clone();
        run.phases.push((
            "recovery-solve",
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
        let me_world = comm.world_rank();
        SpmdReport {
            rank: me_world,
            t_factorization: self.t_adopt,
            t_deflation: self.t_deflation,
            t_coarse: self.t_coarse,
            t_solution: out.t_solution,
            t_total: comm.clock(),
            iterations: result.iterations,
            converged: result.converged,
            final_residual: result.final_residual,
            nu: self.nu,
            dim_e: self.dim_e,
            nnz_e_factor: self.nnz_e_factor,
            n_neighbors: self
                .decomp
                .subdomains
                .get(me_world)
                .or_else(|| self.owned.first().map(|&s| &self.decomp.subdomains[s]))
                .map_or(0, |s| s.neighbors.len()),
            world_collectives_solution: out.world_collectives_solution,
            p2p_messages: out.p2p_messages,
            p2p_bytes: out.p2p_bytes,
            collective_bytes: out.collective_bytes,
            history: result.history.clone(),
            run,
        }
    }
}

/// The classical-GMRES arm of a partitioned apply, with or without
/// recycling.
#[allow(clippy::too_many_arguments)]
fn solve_multi<O, M, P>(
    comm: &Communicator,
    op: &O,
    precond: &M,
    ip: &P,
    rhs: &[f64],
    x0: &[f64],
    gmres: &dd_krylov::GmresOpts,
    ckpt: Option<&CheckpointCfg<'_>>,
    recycle: Option<&mut dd_krylov::RecycleSpace>,
) -> Result<SolveResult, SpmdError>
where
    O: Operator,
    M: Preconditioner,
    P: InnerProduct,
{
    match recycle {
        None => try_gmres(op, precond, ip, rhs, x0, gmres, ckpt)
            .map_err(|si| interrupt_to_spmd(comm, si)),
        Some(space) => {
            let batch = [rhs.to_vec()];
            dd_krylov::try_gmres_multi(op, precond, ip, &batch, x0, gmres, Some(space))
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
    let prepared = try_setup_partitioned(decomp, comm, opts, cache, plan, true)?;
    let owned = prepared.owned();

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
        let (moved, reused) = prepared.moved_reused();
        let (t_reassembly, t_refactorization) = prepared.recovery_times();
        recoveries.push(RecoveryRecord {
            epoch: comm.epoch(),
            dead: plan.dead.clone(),
            evicted: plan.evicted.clone(),
            joined: plan.joined.clone(),
            adopted: plan.adopted.clone(),
            moved,
            reused,
            resume_iteration,
            t_agreement,
            t_reassembly,
            t_refactorization,
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
