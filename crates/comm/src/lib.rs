//! # dd-comm
//!
//! An SPMD message-passing runtime with MPI-shaped semantics and *virtual
//! time* — the workspace's replacement for the MPI layer of the paper.
//!
//! Each rank is an OS thread. Point-to-point messages and collectives
//! mirror the MPI calls used by the paper's Algorithms 1–2 (`MPI_Isend`,
//! `MPI_Gather(v)`, `MPI_Scatter(v)`, `MPI_Allreduce`, `MPI_Iallreduce`,
//! `MPI_Comm_split`, neighborhood alltoall). Because the host machine has
//! far fewer cores than the paper's 16384 threads, *timing* is virtual:
//! compute sections advance each rank's clock by measured thread-CPU time
//! and communications by an α–β cost model with `O(log N)` tree collectives
//! and `O(N)` v-variants — exactly the scaling distinction §3.2 of the
//! paper draws. The maximum clock across ranks models the parallel runtime
//! reported in the scaling benches.
//!
//! * [`comm`] — [`World`], [`Communicator`], collectives, statistics;
//! * [`fault`] — seeded fault injection ([`FaultPlan`]) and structured
//!   communication errors ([`CommError`], [`RetryPolicy`]);
//! * [`model`] — the [`CostModel`];
//! * [`sync`] — the [`SyncBackend`] seam: every blocking primitive of the
//!   runtime goes through [`sync::SyncMutex`] / [`sync::SyncCondvar`], so a
//!   virtual scheduler (the `dd-check` model checker) can own the
//!   interleaving of the rank threads;
//! * [`time`] — virtual clocks and thread CPU time;
//! * [`trace`] — deterministic telemetry: phase-scoped counters and a
//!   seed-stable event journal ([`WorldTrace`]) behind
//!   [`World::run_traced`].

pub mod comm;
pub mod fault;
pub mod model;
pub mod sync;
pub mod time;
pub mod trace;

pub use comm::{
    fnv1a_bytes, Communicator, PendingReduce, RankState, SuspicionPolicy, TraceScope, WireSize,
    World,
};
pub use fault::{CommError, FaultPlan, FaultStats, RetryPolicy, TagClass};
pub use model::CostModel;
pub use sync::{std_backend, ResourceId, StdSyncBackend, SyncBackend, SyncCondvar, SyncMutex};
pub use time::{thread_cpu_time, VirtualClock};
pub use trace::{CollClass, EventKind, PhaseCounters, RankTrace, TraceEvent, WorldTrace};
