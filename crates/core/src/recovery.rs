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
//! 4. the set-up runs again on the new owner map — the same
//!    `spmd::try_setup_on` as a first epoch, under the
//!    `recovery-*` phase names ([`try_setup_partitioned`]): adopters
//!    re-factor the orphans' Dirichlet matrices and substitute Nicolaides
//!    deflation vectors (eigenvector recomputation is skipped for adopted
//!    subdomains — the documented degradation); masters are re-elected
//!    over the survivors and `E` is re-assembled and re-factored on the
//!    new master communicator;
//! 5. the solve resumes from the last *globally complete* checkpoint in
//!    the [`CheckpointStore`] (or from zero when death struck before the
//!    first checkpoint), converging against the original `‖r₀‖` anchor so
//!    the recovered run meets the same tolerance as a fault-free one.
//!
//! Every blocking receive of a recovered or elastic epoch runs under a
//! bounded [`RetryPolicy`] ([`RetryPolicy::bounded_jittered`], set by the
//! epoch body before its set-up) — recovery paths must never wait
//! unboundedly on a peer that may die again.
//!
//! This module keeps the recovery policy, the stores ([`CheckpointStore`],
//! [`CoarseCache`]), the owner-map plans and the recovery drivers; the
//! set-up they call is `spmd.rs`'s, the applies are `resident.rs`'s.

use crate::decomp::Decomposition;
use crate::error::{RecoveryRecord, SpmdError};
use crate::geneo::DeflationBlock;
use crate::resident::PreparedMulti;
use crate::spmd::{
    classify_comm, run_inner, try_setup_on, SetupLabels, SolverKind, SpmdOpts, SpmdReport,
};
use dd_comm::{CommError, Communicator, RetryPolicy, SuspicionPolicy};
use dd_krylov::{CheckpointCfg, CheckpointSink, SolveCheckpoint};
use std::collections::HashMap;
use std::sync::Mutex;

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
///   and only re-gathered onto the new master set (where [`dd_solver::DistLdlt`] is
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

struct CachedRows {
    /// Layout signature (hash over every subdomain's ν) the row was
    /// assembled under; a ν change anywhere invalidates it.
    sig: u64,
    /// The row's values as Algorithm 2 ships them: `E_ss` row-major, then
    /// `E_sj` row-major for each neighbour `j` in `O_s` order. The indices
    /// follow from ν and the coarse layout, so none are stored.
    vals: Vec<f64>,
}

impl CoarseCache {
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn basis(&self, sub: usize) -> Option<(DeflationBlock, bool)> {
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

    pub(crate) fn store_basis(&self, sub: usize, block: &DeflationBlock, geneo: bool) {
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

    pub(crate) fn has_rows(&self, sub: usize, owner: usize, sig: u64) -> bool {
        let rows = self.rows.lock().unwrap_or_else(|p| p.into_inner());
        rows.get(&(sub, owner)).is_some_and(|r| r.sig == sig)
    }

    pub(crate) fn rows(&self, sub: usize, owner: usize, sig: u64) -> Option<Vec<f64>> {
        let rows = self.rows.lock().unwrap_or_else(|p| p.into_inner());
        let row = rows.get(&(sub, owner)).filter(|r| r.sig == sig);
        row.map(|r| r.vals.clone())
    }

    pub(crate) fn store_rows(&self, sub: usize, owner: usize, sig: u64, vals: Vec<f64>) {
        let mut rows = self.rows.lock().unwrap_or_else(|p| p.into_inner());
        rows.insert((sub, owner), CachedRows { sig, vals });
    }
}

/// Layout signature of one coarse operator: a seed-free hash of every
/// subdomain's ν, identical on every rank that allgathered the same pairs.
pub(crate) fn layout_sig(nu_of: &[usize]) -> u64 {
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

impl RepartitionPlan {
    /// The paper's layout: rank `r` of `comm` hosts subdomain `r`, and
    /// nobody departed, joined or moved.
    pub(crate) fn identity(comm: &Communicator) -> Self {
        RepartitionPlan {
            owner_world: comm.world_ranks().to_vec(),
            dead: Vec::new(),
            evicted: Vec::new(),
            joined: Vec::new(),
            adopted: Vec::new(),
        }
    }
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

/// The `recovery-*` spelling of the set-up's phases: what the chaos rows
/// target with corruption specs, what `dd-serve` and the benchmark trace.
/// The four assembly sub-phases share one name.
static RECOVERY_LABELS: SetupLabels = SetupLabels {
    factorization: "recovery-adopt",
    deflation: "recovery-deflation",
    assembly: ["recovery-assembly"; 4],
    e_factorization: "recovery-e-factorization",
    e_factorization_dist: "recovery-e-factorization-dist",
    coarse: "recovery-assembly",
    coarse_solve: "recovery-e-solve-dist",
    solve: "recovery-solve",
};

/// Set-up of one epoch on the plan's owner map: `spmd::try_setup_on` under the
/// `recovery-*` phase names.
///
/// This serves the recovered epoch of the classic shrink path
/// (`cache = None`: everything recomputed, subdomains adopted this epoch
/// take the Nicolaides degradation), every epoch of an elastic run and the
/// resident server (`cache = Some`: GenEO bases and coarse rows are banked
/// per `(subdomain, owner)`, so after a membership change only moved
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
    try_setup_on(
        decomp,
        comm,
        opts,
        cache,
        plan,
        reset_clock,
        &RECOVERY_LABELS,
    )
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
    // Every blocking wait of this epoch is bounded: a peer that dies
    // *again* must surface as an error, not an unbounded wait.
    comm.set_retry_policy(RetryPolicy::bounded_jittered());
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
