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
//! 2. every survivor reaches the one membership agreement of
//!    [`drive_epochs`] ([`Communicator::try_shrink`], or `try_grow` when
//!    joiners wait) — a model-checked two-phase agreement on the dead set
//!    that hands out one consistent epoch bump and a contiguously
//!    re-ranked survivor communicator;
//! 3. each orphaned subdomain is *adopted* by the surviving owner of its
//!    lowest-indexed surviving neighbor subdomain (lowest survivor when a
//!    whole neighborhood died) — the decomposition is shared and
//!    deterministic, so no coordination is needed;
//! 4. the set-up runs again on the new owner map — the same
//!    `spmd::try_setup_on` as a first epoch, under the `recovery-*` phase
//!    names: adopters re-factor the orphans' Dirichlet matrices and
//!    substitute Nicolaides deflation vectors (eigenvector recomputation is
//!    skipped for adopted subdomains — the documented degradation); masters
//!    are re-elected over the survivors and `E` is re-assembled and
//!    re-factored on the new master communicator;
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
//! [`CoarseCache`]), the owner-map plans, the one membership loop
//! ([`drive_epochs`]: replay, re-plan or give up) and the one epoch body the
//! solvers run in it; the set-up is `spmd.rs`'s, the applies are
//! `resident.rs`'s. [`crate::spmd::try_run_spmd`],
//! [`try_run_spmd_recoverable`], [`try_run_spmd_elastic`] and
//! `dd_serve::try_serve` are four callers of that loop, differing in data.

use crate::decomp::Decomposition;
use crate::error::{RecoveryRecord, SpmdError};
use crate::geneo::DeflationBlock;
use crate::resident::PreparedMulti;
use crate::spmd::{
    classify_comm, try_setup_on, SetupLabels, SolverKind, SpmdOpts, SpmdReport, PAPER_LABELS,
};
use dd_comm::{fnv1a_bytes, CommError, Communicator, RetryPolicy, SuspicionPolicy};
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
    /// after a *corruption* classification — detected wire
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
/// anchor, history).
fn checkpoint_sum(cp: &SolveCheckpoint) -> u64 {
    let words = [cp.iteration as u64, cp.x.len() as u64]
        .into_iter()
        .chain(cp.x.iter().map(|v| v.to_bits()))
        .chain([
            cp.residual.to_bits(),
            cp.r0_norm.to_bits(),
            cp.history.len() as u64,
        ])
        .chain(cp.history.iter().map(|v| v.to_bits()));
    fnv1a_bytes(0, words.flat_map(u64::to_le_bytes))
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

/// The per-rank result of every SPMD driver: the report and the locals of
/// the solution on each subdomain the rank hosted when the solve completed
/// (one on the paper's layout).
pub struct SpmdMultiSolution {
    pub report: SpmdReport,
    /// `(subdomain, local solution)`, ascending by subdomain.
    pub locals: Vec<(usize, Vec<f64>)>,
}

/// Is this error one the survivors can recover from by a membership
/// agreement? Our own death ([`SpmdError::Killed`]) and local failures are
/// not; observing a *peer's* death or a revoked epoch is.
fn recoverable(e: &SpmdError) -> bool {
    matches!(
        e,
        SpmdError::Comm(CommError::RankDead { .. } | CommError::Revoked { .. })
    )
}

/// Is this error one the *same* membership can recover from by rolling
/// back to the newest verified checkpoint and replaying? Detected wire
/// corruption that exhausted its retransmit budget, and a solver guard's
/// suspected-SDC classification, both qualify: every rank is alive — only
/// the data is poisoned. Disjoint from [`recoverable`], which changes the
/// membership.
fn replayable(e: &SpmdError) -> bool {
    matches!(
        e,
        SpmdError::Comm(CommError::Corrupt { .. }) | SpmdError::SuspectedCorruption { .. }
    )
}

/// One membership agreement: grow when joiners are pending, shrink
/// otherwise (the two run the identical protocol — the entry point only
/// names the intent). Returns the committed communicator and the
/// agreement's virtual-time cost.
fn agree_next(comm: &Communicator) -> Result<(Communicator, f64), SpmdError> {
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

/// What one call of an epoch closure runs on: the membership, its owner
/// map, and how [`drive_epochs`] got there.
pub struct Attempt<'a> {
    /// The communicator of this membership.
    pub comm: &'a Communicator,
    /// The owner map planned for it (already checked against `comm`).
    pub plan: &'a RepartitionPlan,
    /// Membership agreements the driver has committed so far.
    pub recoveries: usize,
    /// Rollback-and-replays already taken on this membership: 0 on its
    /// first attempt, `k` on the k-th replay.
    pub replays: usize,
    /// How many of those replays followed a solver guard's suspected-SDC
    /// verdict rather than a detected wire corruption.
    pub guard_replays: u64,
    /// Virtual seconds lost on the way here: to the agreement that committed
    /// this membership on its first attempt (0 for the membership the driver
    /// was entered on), to the rolled-back attempt on a replay.
    pub t_lost: f64,
}

/// The one membership loop (DESIGN.md §10, "The epoch driver"): run `epoch`
/// on the owner map `planner` derives for the current membership; on an
/// error, and only with `policy.enabled`,
///
/// - **replay** on the same membership and map while the error is a
///   corruption classification and `policy.max_replays` lasts (a budget per
///   membership);
/// - **re-plan** — one agreement, then `planner` again with the previous
///   owner map — while it is a peer's death or a revoked epoch and
///   `policy.max_recoveries` lasts (checked before the agreement);
/// - otherwise **give up**: mark this rank gone, so peers blocked on it see
///   `CommError::RankDead` rather than hang, and return the typed error.
///
/// A plan the membership cannot host (`RepartitionPlan::hosts`) is a
/// `SpmdError::Protocol` before the closure runs; members derive it from
/// shared data, so they fail together. Every rank calls this with identical
/// arguments. `epoch` must be re-entrant, and must meet its peers on
/// [`Attempt::comm`] before it can fail — the set-up's opening barrier does
/// — so that nobody reaches the next agreement while a peer is still inside
/// this one.
pub fn drive_epochs<T>(
    decomp: &Decomposition,
    comm: &Communicator,
    policy: &RecoveryOpts,
    planner: impl Fn(&Decomposition, &Communicator, Option<&[usize]>) -> RepartitionPlan,
    mut epoch: impl FnMut(&Attempt<'_>) -> Result<T, SpmdError>,
) -> Result<T, SpmdError> {
    let mut run = || -> Result<T, SpmdError> {
        let mut agreed: Option<Communicator> = None;
        let mut prev_owner: Option<Vec<usize>> = None;
        let (mut recoveries, mut t_lost) = (0, 0.0);
        loop {
            let comm = agreed.as_ref().unwrap_or(comm);
            let plan = planner(decomp, comm, prev_owner.as_deref());
            plan.hosts(decomp, comm)?;
            let (mut replays, mut guard_replays) = (0, 0);
            let err = loop {
                let t_attempt = comm.clock();
                let attempt = Attempt {
                    comm,
                    plan: &plan,
                    recoveries,
                    replays,
                    guard_replays,
                    t_lost,
                };
                // The ranks decide from their own errors, with no vote: a
                // corrupted p2p exchange fails every receiver it touches
                // within the same lockstep step (the chaos rows pin that all
                // ranks re-enter a replay together); a genuinely asymmetric
                // classification parks the minority in a collective the
                // majority abandoned and surfaces as a typed virtual-time
                // deadlock, never a silent mismatch.
                match epoch(&attempt) {
                    Ok(out) => return Ok(out),
                    Err(e) if policy.enabled && replayable(&e) && replays < policy.max_replays => {
                        replays += 1;
                        guard_replays +=
                            u64::from(matches!(e, SpmdError::SuspectedCorruption { .. }));
                        t_lost = comm.clock() - t_attempt;
                    }
                    Err(e) => break e,
                }
            };
            if !(policy.enabled && recoverable(&err) && recoveries < policy.max_recoveries) {
                return Err(err);
            }
            recoveries += 1;
            prev_owner = Some(plan.owner_world);
            let (next, t_agreement) = agree_next(comm)?;
            t_lost = t_agreement;
            agreed = Some(next);
        }
    };
    run().inspect_err(|_| comm.abandon())
}

/// The solvers' use of [`drive_epochs`]: every attempt is one
/// [`run_partitioned`], a recovery epoch under the `recovery-*` names —
/// except the first when `nominal_first` gives it a label table to be a
/// nominal run under.
fn solve_epochs(
    decomp: &Decomposition,
    comm: &Communicator,
    opts: &SpmdOpts,
    store: &CheckpointStore,
    cache: Option<&CoarseCache>,
    planner: impl Fn(&Decomposition, &Communicator, Option<&[usize]>) -> RepartitionPlan,
    nominal_first: Option<&'static SetupLabels>,
) -> Result<SpmdMultiSolution, SpmdError> {
    let mut recoveries: Vec<RecoveryRecord> = Vec::new();
    drive_epochs(decomp, comm, &opts.recovery, planner, |attempt| {
        let first = attempt.recoveries == 0 && attempt.replays == 0;
        let nominal = nominal_first.filter(|_| first);
        run_partitioned(
            decomp,
            opts,
            store,
            cache,
            attempt,
            &mut recoveries,
            nominal.unwrap_or(&RECOVERY_LABELS),
            nominal.is_some(),
        )
    })
}

/// [`crate::spmd::try_run_spmd`] with shrink-and-continue recovery: on a
/// peer's death (with `opts.recovery.enabled`) the survivors agree on the
/// dead set, shrink the world, adopt the orphaned subdomains, rebuild the
/// preconditioner, and resume the solve from the last complete checkpoint
/// in `store`; on a corruption classification they roll back and replay on
/// the same membership. A rank's own death still surfaces as
/// [`SpmdError::Killed`].
pub fn try_run_spmd_recoverable(
    decomp: &Decomposition,
    comm: &Communicator,
    opts: &SpmdOpts,
    store: &CheckpointStore,
) -> Result<SpmdMultiSolution, SpmdError> {
    solve_epochs(
        decomp,
        comm,
        opts,
        store,
        None,
        adoption_plan,
        Some(&PAPER_LABELS),
    )
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
    comm.set_suspicion(opts.recovery.suspicion);
    solve_epochs(
        decomp,
        comm,
        opts,
        store,
        Some(cache),
        repartition_plan,
        None,
    )
}

// ----------------------------------------------------------- repartition

/// How a membership re-homes the subdomains: the complete owner map of the
/// epoch plus the membership deltas a [`RecoveryRecord`] reports. Pure
/// function of shared data — every member (joiners included) derives the
/// same plan for the same epoch.
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
    /// An owner map on `comm`'s membership, the deltas read off `comm`.
    fn new(comm: &Communicator, owner_world: Vec<usize>, adopted: Vec<(usize, usize)>) -> Self {
        let founders = comm.n_founders();
        let members = comm.world_ranks().iter();
        RepartitionPlan {
            owner_world,
            dead: comm.dead_ranks(),
            evicted: comm.evicted_ranks(),
            joined: members.copied().filter(|&w| w >= founders).collect(),
            adopted,
        }
    }

    /// The paper's layout: rank `r` of `comm` hosts subdomain `r`, and
    /// nothing moved.
    pub(crate) fn identity(comm: &Communicator) -> Self {
        Self::new(comm, comm.world_ranks().to_vec(), Vec::new())
    }

    /// The rank of `comm` hosting each subdomain (the agreement re-ranks
    /// members contiguously: survivors in world order, joiners appended) —
    /// or the typed error for a map this membership cannot host. The one
    /// membership-size check: every member must host a subdomain.
    pub(crate) fn hosts(
        &self,
        decomp: &Decomposition,
        comm: &Communicator,
    ) -> Result<Vec<usize>, SpmdError> {
        let (nsubs, members) = (decomp.n_subdomains(), comm.world_ranks());
        let protocol = |what: String| SpmdError::Protocol {
            rank: comm.world_rank(),
            what,
        };
        if self.owner_world.len() != nsubs {
            return Err(protocol(format!(
                "owner map names {} subdomains, the decomposition has {nsubs}",
                self.owner_world.len()
            )));
        }
        let mut host = Vec::with_capacity(nsubs);
        for (s, &world) in self.owner_world.iter().enumerate() {
            let rank = members.iter().position(|&r| r == world);
            host.push(rank.ok_or_else(|| {
                protocol(format!("subdomain {s} is owned by non-member rank {world}"))
            })?);
        }
        match (0..members.len()).find(|r| !host.contains(r)) {
            Some(idle) => Err(protocol(format!(
                "rank {} would host no subdomain: {} members for {nsubs} subdomains",
                members[idle],
                members.len()
            ))),
            None => Ok(host),
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
/// nothing is re-meshed. With more members than subdomains the last ones
/// get nothing, which [`RepartitionPlan::hosts`] rejects.
fn balanced_owner_map(nsubs: usize, members: &[usize]) -> Vec<usize> {
    let m = members.len();
    let base = nsubs / m;
    let rem = nsubs % m;
    let mut owner = Vec::with_capacity(nsubs);
    for (i, &w) in members.iter().enumerate() {
        let len = base + usize::from(i < rem);
        owner.extend(std::iter::repeat_n(w, len));
    }
    owner
}

/// The classic path's plan (one subdomain per founder, the PR-5 contract):
/// the identity while nobody departed, then neighbor adoption of the
/// departed ranks' subdomains — a function of the departed set alone; the
/// previous map is taken to share [`repartition_plan`]'s signature.
fn adoption_plan(
    decomp: &Decomposition,
    comm: &Communicator,
    _prev_owner: Option<&[usize]>,
) -> RepartitionPlan {
    let departed = comm.departed_ranks();
    let owner_world = adoption_map(decomp, &departed, comm.world_ranks());
    let adopted = departed.iter().map(|&s| (s, owner_world[s])).collect();
    RepartitionPlan::new(comm, owner_world, adopted)
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
    let owner_world = balanced_owner_map(decomp.n_subdomains(), comm.world_ranks());
    let adopted = prev_owner.map_or_else(Vec::new, |prev| {
        (0..owner_world.len())
            .filter(|&s| owner_world[s] != prev[s])
            .map(|s| (s, owner_world[s]))
            .collect()
    });
    RepartitionPlan::new(comm, owner_world, adopted)
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

/// Set-up on the plan's owner map for callers that keep the state resident
/// (`dd-serve`, the benchmark): `spmd::try_setup_on` under the `recovery-*`
/// phase names. With a cache, GenEO bases and coarse rows are banked per
/// `(subdomain, owner)`, so after a membership change only moved subdomains
/// recompute; without one everything is recomputed and subdomains adopted
/// this epoch take the Nicolaides degradation. A server re-preparing
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

/// The one epoch body: the set-up on the attempt's owner map under `labels`,
/// then one [`PreparedMulti::try_apply`] on the decomposition's own
/// right-hand side.
///
/// A `nominal` attempt is the paper's method as the caller configured it:
/// `opts.solver`, the communicator's own retry policy, a start from zero,
/// and checkpoints (local writes, invisible to canonical traces) only when
/// recovery is armed on the classical loop. Any other attempt is a recovery
/// epoch: it resumes from the last globally complete checkpoint, always
/// checkpoints, runs the classical loop whatever `opts.solver` says — only
/// it resumes and checkpoints; every loop surfaces a lost peer typed — and
/// bounds every blocking wait: a peer that dies *again* must surface as an
/// error.
#[allow(clippy::too_many_arguments)]
fn run_partitioned(
    decomp: &Decomposition,
    opts: &SpmdOpts,
    store: &CheckpointStore,
    cache: Option<&CoarseCache>,
    attempt: &Attempt<'_>,
    recoveries: &mut Vec<RecoveryRecord>,
    labels: &'static SetupLabels,
    nominal: bool,
) -> Result<SpmdMultiSolution, SpmdError> {
    let (comm, plan) = (attempt.comm, attempt.plan);
    let nsubs = decomp.n_subdomains();
    let mut opts = opts.clone();
    if !nominal {
        opts.solver = SolverKind::Classical;
        comm.set_retry_policy(RetryPolicy::bounded_jittered());
    }
    // A replay's audit record: same epoch, no membership deltas — only the
    // corruption counters, the replay ordinal, and the virtual time the
    // rolled-back attempt had consumed.
    if attempt.replays > 0 {
        recoveries.push(RecoveryRecord {
            epoch: comm.epoch(),
            resume_iteration: store.rollback_iteration(nsubs),
            corruptions_detected: comm.fault_stats().corruptions_detected + attempt.guard_replays,
            replays: attempt.replays,
            t_replay: attempt.t_lost,
            ..Default::default()
        });
    }
    let prepared = try_setup_on(decomp, comm, &opts, cache, plan, true, labels)?;
    let owned = &prepared.owned;

    // ---- resume from the last globally complete checkpoint.
    let resume_at = if nominal {
        None
    } else {
        store.rollback_iteration(nsubs)
    };
    let resume = resume_at.and_then(|it| {
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
    // Only a membership change gets a record, on the first attempt at that
    // membership — the epoch a run was entered on is not a recovery.
    if comm.epoch() > 0 && attempt.replays == 0 {
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
            resume_iteration: resume.as_ref().map(|cp| cp.iteration),
            t_agreement: attempt.t_lost,
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
    let interval = opts.recovery.checkpoint_interval;
    let checkpointing = !nominal || (opts.recovery.enabled && opts.solver == SolverKind::Classical);
    let cfg = checkpointing.then(|| match resume {
        Some(cp) => CheckpointCfg::resuming(interval, &sink, cp),
        None => CheckpointCfg::new(interval, &sink),
    });

    let out = prepared.try_apply(&decomp.rhs_global, labels.solve, cfg.as_ref())?;
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

    /// The error classes a scripted epoch closure can fail with.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Class {
        Corrupt,
        Sdc,
        Dead,
        Revoked,
        Protocol,
    }

    fn error_of(class: Class) -> SpmdError {
        match class {
            Class::Corrupt => SpmdError::Comm(CommError::Corrupt {
                src: 1,
                tag: 7,
                epoch: 0,
            }),
            Class::Sdc => SpmdError::SuspectedCorruption {
                rank: 0,
                iteration: 3,
                recurred: 1e-8,
                recomputed: 2e-3,
            },
            Class::Dead => SpmdError::Comm(CommError::RankDead { rank: 9 }),
            Class::Revoked => SpmdError::Comm(CommError::Revoked { epoch: 0 }),
            Class::Protocol => SpmdError::Protocol {
                rank: 0,
                what: "scripted".to_string(),
            },
        }
    }

    fn class_of(e: &SpmdError) -> Class {
        match e {
            SpmdError::Comm(CommError::Corrupt { .. }) => Class::Corrupt,
            SpmdError::SuspectedCorruption { .. } => Class::Sdc,
            SpmdError::Comm(CommError::RankDead { .. }) => Class::Dead,
            SpmdError::Comm(CommError::Revoked { .. }) => Class::Revoked,
            SpmdError::Protocol { .. } => Class::Protocol,
            other => panic!("unscripted error {other}"),
        }
    }

    fn tiny_decomp(nsubs: usize) -> std::sync::Arc<Decomposition> {
        let mesh = dd_mesh::Mesh::unit_square(4, 4);
        let part = dd_part::partition_mesh_rcb(&mesh, nsubs);
        let problem = crate::problem::presets::heterogeneous_diffusion(1);
        std::sync::Arc::new(crate::decomp::decompose(&mesh, &problem, &part, nsubs, 1))
    }

    /// What a scripted closure call saw: `(epoch, recoveries, replays,
    /// guard_replays)` of its [`Attempt`].
    type Seen = (usize, usize, usize, u64);

    /// Drive a 2-rank world through `script` (one failure class per call,
    /// success once it runs out — both ranks alike, so they stay in
    /// lockstep) and return rank 0's calls, outcome and virtual seconds
    /// spent outside the closures. Like the set-up every real epoch body
    /// starts with, the scripted one opens with a barrier on its
    /// communicator: members meet on a membership before anyone can fail on
    /// it and move to the next agreement.
    fn drive_scripted(
        (enabled, max_replays, max_recoveries): (bool, usize, usize),
        script: &[Class],
    ) -> (Vec<Seen>, Option<Class>, f64) {
        let decomp = tiny_decomp(2);
        let policy = RecoveryOpts {
            enabled,
            max_replays,
            max_recoveries,
            ..Default::default()
        };
        let script = script.to_vec();
        let mut per_rank = dd_comm::World::run_default(2, move |comm| {
            let mut seen: Vec<Seen> = Vec::new();
            // Virtual seconds inside the closure: in all, in the last call.
            let (mut inside, mut last) = (0.0, 0.0);
            let t0 = comm.clock();
            let out = drive_epochs(&decomp, comm, &policy, repartition_plan, |a| {
                let t_in = a.comm.clock();
                a.comm.try_barrier()?;
                assert_eq!(a.comm.size(), 2, "a scripted failure removes nobody");
                assert_eq!(a.plan.owner_world, vec![0, 1]);
                // The agreement is charged to the clock; a replay reports
                // what the attempt it rolls back had consumed.
                if a.replays > 0 {
                    assert!((a.t_lost - last).abs() < 1e-12, "{}", a.t_lost);
                } else {
                    assert_eq!(a.t_lost > 0.0, a.recoveries > 0);
                }
                seen.push((a.comm.epoch(), a.recoveries, a.replays, a.guard_replays));
                a.comm.advance_clock(0.25);
                last = a.comm.clock() - t_in;
                inside += last;
                match script.get(seen.len() - 1) {
                    Some(&class) => Err(error_of(class)),
                    None => Ok(()),
                }
            });
            let outside = comm.clock() - t0 - inside;
            (seen, out.err().as_ref().map(class_of), outside)
        });
        assert_eq!(per_rank[0].0, per_rank[1].0, "ranks left lockstep");
        per_rank.swap_remove(0)
    }

    #[test]
    fn the_driver_alone_decides_replay_replan_or_give_up() {
        use Class::*;
        // (enabled, max_replays, max_recoveries), the script, the calls the
        // closure must see, the error the driver must return.
        let rows: [(_, &[Class], &[Seen], Option<Class>); 13] = [
            // Recovery off: one attempt, whatever the class and the budgets.
            ((false, 2, 1), &[Corrupt], &[(0, 0, 0, 0)], Some(Corrupt)),
            ((false, 2, 1), &[Sdc], &[(0, 0, 0, 0)], Some(Sdc)),
            ((false, 2, 1), &[Dead], &[(0, 0, 0, 0)], Some(Dead)),
            // Replays stay on the membership and are bounded by max_replays.
            (
                (true, 2, 1),
                &[Corrupt],
                &[(0, 0, 0, 0), (0, 0, 1, 0)],
                None,
            ),
            (
                (true, 2, 1),
                &[Corrupt, Sdc, Corrupt],
                &[(0, 0, 0, 0), (0, 0, 1, 0), (0, 0, 2, 1)],
                Some(Corrupt),
            ),
            ((true, 0, 1), &[Sdc], &[(0, 0, 0, 0)], Some(Sdc)),
            // A peer's death or a revocation re-plans after one agreement…
            ((true, 2, 1), &[Dead], &[(0, 0, 0, 0), (1, 1, 0, 0)], None),
            (
                (true, 2, 1),
                &[Revoked],
                &[(0, 0, 0, 0), (1, 1, 0, 0)],
                None,
            ),
            // …while the recovery budget lasts,
            (
                (true, 2, 1),
                &[Dead, Revoked],
                &[(0, 0, 0, 0), (1, 1, 0, 0)],
                Some(Revoked),
            ),
            (
                (true, 0, 2),
                &[Dead, Dead, Dead],
                &[(0, 0, 0, 0), (1, 1, 0, 0), (2, 2, 0, 0)],
                Some(Dead),
            ),
            // and with none there is no agreement to run (see the clock
            // check below).
            ((true, 2, 0), &[Dead], &[(0, 0, 0, 0)], Some(Dead)),
            // Every membership gets a fresh replay budget.
            (
                (true, 1, 1),
                &[Corrupt, Dead, Sdc, Corrupt],
                &[(0, 0, 0, 0), (0, 0, 1, 0), (1, 1, 0, 0), (1, 1, 1, 1)],
                Some(Corrupt),
            ),
            // Anything else is nobody's to retry.
            ((true, 2, 1), &[Protocol], &[(0, 0, 0, 0)], Some(Protocol)),
        ];
        for (budgets, script, calls, error) in rows {
            let (seen, out, outside) = drive_scripted(budgets, script);
            assert_eq!(seen, calls, "{budgets:?} {script:?}: closure calls");
            assert_eq!(out, error, "{budgets:?} {script:?}: returned error");
            // Only an agreement costs virtual time outside the closure.
            let agreements = calls.last().map_or(0, |c| c.1);
            assert_eq!(
                outside > 1e-12,
                agreements > 0,
                "{budgets:?} {script:?}: {outside} s outside the closure"
            );
        }
    }

    #[test]
    fn a_map_the_membership_cannot_host_fails_before_the_epoch_runs() {
        // Two ranks, one subdomain: the balanced re-chunk leaves rank 1
        // idle, and both ranks must learn that from the plan alone.
        let decomp = tiny_decomp(1);
        let errors = dd_comm::World::run_default(2, move |comm| {
            let policy = RecoveryOpts::default();
            drive_epochs(
                &decomp,
                comm,
                &policy,
                repartition_plan,
                |_| -> Result<(), _> { panic!("the epoch must not run on an unhostable map") },
            )
            .unwrap_err()
        });
        for e in &errors {
            assert!(
                matches!(e, SpmdError::Protocol { what, .. } if what.contains("would host no subdomain")),
                "{e}"
            );
        }
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
