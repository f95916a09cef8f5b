//! Typed errors and per-rank outcome reporting for the SPMD driver.
//!
//! [`crate::spmd::try_run_spmd`] returns [`SpmdError`] instead of
//! panicking, and every [`crate::spmd::SpmdReport`] carries a [`RunReport`]
//! recording which phases ran as planned and which fell back along the
//! degradation lattice GenEO → Nicolaides → one-level RAS.

use dd_comm::{CommError, FaultStats};
use dd_solver::LdltError;
use std::fmt;

/// Structured failure of one rank of an SPMD run.
#[derive(Clone, Debug, PartialEq)]
pub enum SpmdError {
    /// A communication operation failed (deadlock, timeout, dead rank).
    Comm(CommError),
    /// The local Dirichlet factorization failed — unrecoverable for this
    /// rank: without `A_i⁻¹` there is no RAS contribution at all.
    LocalFactorization { rank: usize, source: LdltError },
    /// The rank was killed by a fault plan at the named phase boundary.
    Killed { rank: usize, phase: String },
    /// The rank was evicted by its peers' suspicion policy (straggler
    /// removal) — distinguishable from [`SpmdError::Killed`]: the rank was
    /// alive and computing, but too far behind the world's progress
    /// watermark to keep.
    Evicted { rank: usize },
    /// A solver-level integrity guard classified the run as silently
    /// corrupted: the residual the Krylov recurrence carried and a
    /// recomputation of the true residual disagreed beyond the guard's
    /// drift bound ([`dd_krylov::SdcGuard`]). The world is healthy but the
    /// solve state is poisoned — the remedy is a rollback to the newest
    /// verified checkpoint and a replay on the *same* membership (no
    /// shrink), bounded by [`crate::RecoveryOpts::max_replays`].
    SuspectedCorruption {
        rank: usize,
        /// Krylov iteration (cumulative) at which the drift was detected.
        iteration: usize,
        /// Relative residual the solver's recurrence claimed.
        recurred: f64,
        /// Relative residual recomputed from `b − Ax`.
        recomputed: f64,
    },
    /// `Comm::split` did not return a communicator for this rank's color.
    SplitFailed { rank: usize },
    /// Building or factoring a coarse operator failed (singular `E`, e.g.
    /// linearly dependent deflation columns). In the SPMD driver this is
    /// recovered by the one-level fallback; the sequential builders surface
    /// it through their `try_build` constructors.
    CoarseFactorization { what: String },
    /// An internal collective-protocol invariant was violated (e.g. a
    /// gather root received no result). Indicates a bug, not a fault.
    Protocol { rank: usize, what: String },
}

impl From<CommError> for SpmdError {
    fn from(e: CommError) -> Self {
        SpmdError::Comm(e)
    }
}

impl fmt::Display for SpmdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpmdError::Comm(e) => write!(f, "communication failure: {e}"),
            SpmdError::LocalFactorization { rank, source } => {
                write!(f, "local factorization failed on rank {rank}: {source}")
            }
            SpmdError::Killed { rank, phase } => {
                write!(f, "rank {rank} killed at failpoint \"{phase}\"")
            }
            SpmdError::Evicted { rank } => {
                write!(f, "rank {rank} evicted as a suspected straggler")
            }
            SpmdError::SuspectedCorruption {
                rank,
                iteration,
                recurred,
                recomputed,
            } => write!(
                f,
                "suspected silent data corruption on rank {rank}: recurred residual \
                 {recurred:.3e} vs recomputed {recomputed:.3e} at iteration {iteration}"
            ),
            SpmdError::SplitFailed { rank } => {
                write!(f, "communicator split failed on rank {rank}")
            }
            SpmdError::CoarseFactorization { what } => {
                write!(f, "coarse operator factorization failed: {what}")
            }
            SpmdError::Protocol { rank, what } => {
                write!(f, "protocol invariant violated on rank {rank}: {what}")
            }
        }
    }
}

impl std::error::Error for SpmdError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SpmdError::Comm(e) => Some(e),
            SpmdError::LocalFactorization { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Outcome of one setup phase on one rank.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PhaseOutcome {
    /// The phase completed as planned.
    Ok,
    /// The phase failed but a documented fallback took over.
    Degraded { reason: String },
}

/// Where this rank's deflation vectors came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum DeflationSource {
    /// The GenEO eigensolve succeeded (the paper's method).
    #[default]
    Geneo,
    /// The eigensolve failed; the partition-of-unity-weighted kernel modes
    /// (Nicolaides) were substituted for this subdomain.
    NicolaidesFallback,
    /// No deflation vectors (ν = 0, or no overlap).
    None,
}

/// How the coarse level ended up.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum CoarseOutcome {
    /// The coarse operator was assembled and factored: full A-DEF1.
    #[default]
    TwoLevel,
    /// The coarse factorization failed on a master; every rank dropped to
    /// the one-level RAS preconditioner and kept iterating.
    OneLevelFallback,
    /// The coarse space is empty (`dim E = 0`): ν = 0 was asked for
    /// (`GeneoOpts::nev`, the one-level baseline) or no subdomain kept a
    /// vector (e.g. a single subdomain); one-level RAS is used.
    EmptyCoarse,
}

/// One membership change survived by a rank — a shrink (deaths and/or
/// evictions removed), a grow (joiners admitted), or both at once — with
/// the repartitioning it caused and the virtual-time cost of each recovery
/// phase.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RecoveryRecord {
    /// Revocation epoch of the communicator this recovery committed
    /// (strictly increasing across recoveries).
    pub epoch: usize,
    /// World ranks dead at the time of the agreement, ascending.
    pub dead: Vec<usize>,
    /// World ranks *evicted* by the suspicion policy (stragglers removed
    /// alive), ascending — disjoint from `dead`.
    pub evicted: Vec<usize>,
    /// World ranks admitted through [`dd_comm::Communicator::try_shrink`],
    /// ascending (every joiner of the world up to this epoch).
    pub joined: Vec<usize>,
    /// `(orphaned subdomain, adopting world rank)` for every subdomain
    /// re-homed by this recovery, ascending by subdomain.
    pub adopted: Vec<(usize, usize)>,
    /// Subdomains whose coarse rows were recomputed by their (possibly
    /// new) owner this epoch; the complement of `reused`.
    pub moved: Vec<usize>,
    /// Subdomains whose coarse basis and rows were reused from the coarse
    /// cache — the incremental re-assembly at work.
    pub reused: Vec<usize>,
    /// Iteration the Krylov solve resumed from, when a globally complete
    /// checkpoint existed (`None`: the solve restarted from zero).
    pub resume_iteration: Option<usize>,
    /// Virtual-time cost of the membership agreement (shrink/grow commit).
    pub t_agreement: f64,
    /// Virtual-time cost of re-assembling the coarse operator `E`
    /// (adoption, deflation, and row exchange; refactorization excluded).
    pub t_reassembly: f64,
    /// Virtual-time cost of refactorizing `E` on the new master set.
    pub t_refactorization: f64,
    /// Corruption detections this rank had observed when the record was
    /// written: comm-layer envelope checksum failures
    /// ([`dd_comm::FaultStats::corruptions_detected`]) plus solver-guard
    /// drift trips. Zero on pure membership-change records unless the run
    /// also saw corruption.
    pub corruptions_detected: u64,
    /// Rollback-and-replay ordinal at this membership: 0 for
    /// membership-change records, `k ≥ 1` for the k-th replay after a
    /// detected (or suspected) corruption.
    pub replays: usize,
    /// Virtual-time cost of the attempt this replay rolled back — the
    /// work the corruption destroyed (0 on membership-change records).
    pub t_replay: f64,
}

/// Per-rank record of what actually happened during a run — which phases
/// degraded (the solve's phase says how the Krylov solve ended), which
/// fallbacks fired, and what faults the runtime observed.
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    /// `(phase name, outcome)` in execution order.
    pub phases: Vec<(&'static str, PhaseOutcome)>,
    pub deflation: DeflationSource,
    pub coarse: CoarseOutcome,
    /// Fault-injection counters observed by this rank.
    pub faults: FaultStats,
    /// Shrink-and-continue recoveries this rank survived, in order.
    pub recoveries: Vec<RecoveryRecord>,
}

impl RunReport {
    /// Did every phase complete without a fallback? The solve phase is
    /// `Ok` only when it converged without a breakdown restart.
    pub fn fully_nominal(&self) -> bool {
        self.phases
            .iter()
            .all(|(_, o)| matches!(o, PhaseOutcome::Ok))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source_chain() {
        let e = SpmdError::LocalFactorization {
            rank: 3,
            source: LdltError::ZeroPivot {
                step: 7,
                pivot: 0.0,
            },
        };
        let s = format!("{e}");
        assert!(s.contains("rank 3") && s.contains("step 7"), "{s}");
        assert!(std::error::Error::source(&e).is_some());
        let c: SpmdError = CommError::RankDead { rank: 1 }.into();
        assert_eq!(c, SpmdError::Comm(CommError::RankDead { rank: 1 }));
    }

    #[test]
    fn suspected_corruption_display_names_both_residuals() {
        let e = SpmdError::SuspectedCorruption {
            rank: 2,
            iteration: 17,
            recurred: 1e-9,
            recomputed: 3e-4,
        };
        let s = format!("{e}");
        assert!(
            s.contains("rank 2") && s.contains("iteration 17") && s.contains("3.000e-4"),
            "{s}"
        );
    }

    #[test]
    fn nominal_report_detection() {
        let mut r = RunReport::default();
        r.phases.push(("factorization", PhaseOutcome::Ok));
        assert!(r.fully_nominal());
        r.phases.push((
            "deflation",
            PhaseOutcome::Degraded {
                reason: "eigensolve failed".into(),
            },
        ));
        assert!(!r.fully_nominal());
    }
}
