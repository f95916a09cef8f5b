//! # dd-check
//!
//! A loom-style schedule-exploring model checker for the `dd-comm` SPMD
//! runtime, built on the [`SyncBackend`](dd_comm::sync::SyncBackend) seam:
//! every mutex, condvar park, and probe of the runtime routes its blocking
//! through the backend, so replacing the production pass-through with the
//! [`VirtualScheduler`] puts the entire interleaving of a world's rank
//! threads under deterministic control.
//!
//! * [`explore()`] — bounded exhaustive DFS over schedules (preemption
//!   bounding, independence pruning), asserting deadlock-freedom and
//!   byte-identical results across every explored interleaving;
//! * [`replay`] — re-run one schedule from a failure's printed script;
//! * [`check_world`] / [`check_elastic_world_with_faults`] — the harness
//!   binding [`explore()`] to `World::run_elastic_with_backend`;
//! * [`run_threads`] — raw-thread harness for checking synchronization
//!   patterns outside a world (e.g. seeded lock-order inversions).
//!
//! Programs under check must return *canonical bytes* (rank results and
//! virtual clocks — both schedule-invariant by design) and must avoid
//! `Communicator::compute`, whose measured CPU time is inherently
//! schedule-dependent.

pub mod explore;
pub mod scheduler;

pub use explore::{explore, replay, run_threads, scaled, Budget, Failure, FailureKind, Report};
pub use scheduler::{Config, Decision, NextAction, Policy, VirtualScheduler, STUCK_MSG};

use dd_comm::{Communicator, CostModel, FaultPlan, World};
use std::sync::Arc;

/// Explore every schedule of an `n`-rank world running `program`. The
/// program returns its rank's canonical bytes; per schedule the harness
/// concatenates them in rank order (with each rank's final virtual clock)
/// and [`explore()`] asserts the result identical across schedules.
pub fn check_world<F>(n: usize, cfg: Config, budget: Budget, program: F) -> Report
where
    F: Fn(&Communicator) -> Vec<u8> + Send + Sync,
{
    check_elastic_world_with_faults(n, 0, cfg, budget, FaultPlan::default(), program)
}

/// [`check_world`] with a seeded [`FaultPlan`] armed in every schedule,
/// on a world of `n` founders plus `reserve` lobby ranks that only run
/// `program` once a [`Communicator::try_shrink`] admits them (`reserve` =
/// 0 for a fixed world). All `n + reserve` threads are scheduled, so the
/// exploration covers every interleaving of the join protocol;
/// un-admitted reserves frame as empty results.
pub fn check_elastic_world_with_faults<F>(
    n: usize,
    reserve: usize,
    cfg: Config,
    budget: Budget,
    faults: FaultPlan,
    program: F,
) -> Report
where
    F: Fn(&Communicator) -> Vec<u8> + Send + Sync,
{
    explore(n + reserve, cfg, budget, move |backend| {
        let per_rank = World::run_elastic_with_backend(
            n,
            reserve,
            CostModel::default(),
            faults.clone(),
            Arc::clone(&backend),
            |comm| {
                let mut bytes = program(comm);
                bytes.extend_from_slice(&comm.clock().to_bits().to_le_bytes());
                bytes
            },
        );
        frame(per_rank.into_iter())
    })
}

/// Canonical framing of per-rank results: `u32` rank + `u32` length +
/// bytes, ranks in order, absent results (un-admitted reserves) empty.
fn frame(per_rank: impl Iterator<Item = Option<Vec<u8>>>) -> Vec<u8> {
    let mut all = Vec::new();
    for (rank, bytes) in per_rank.enumerate() {
        let bytes = bytes.unwrap_or_default();
        all.extend_from_slice(&(rank as u32).to_le_bytes());
        all.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        all.extend_from_slice(&bytes);
    }
    all
}
