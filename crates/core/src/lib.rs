//! # dd-core
//!
//! The paper's contribution: scalable two-level overlapping Schwarz
//! preconditioners with a GenEO spectral coarse space and a master–slave
//! distributed coarse operator.
//!
//! ## Map from the paper to the modules
//!
//! | paper | module |
//! |---|---|
//! | §2 overlapping decomposition, `T_i^δ`, `R_i`, `D_i` (eq. 2), Dirichlet matrices via approach 2 | [`decomp`] |
//! | §2 `P⁻¹_RAS` (eq. 3) | [`precond::RasPrecond`] |
//! | §2.1 local eigenproblem (eq. 9), `W_i = D_i Λ_i` (eq. 8) | [`geneo`] |
//! | §3.1 block assembly of `E` (eq. 10) | [`coarse`] (sequential), [`spmd`] (Algorithms 1–2) |
//! | §3.1.2 master election (uniform / `p_i` recurrence) | [`masters`] |
//! | §2.1 `P⁻¹_A-DEF1` (eq. 6) / `P⁻¹_A-DEF2` (eq. 7) | [`precond::TwoLevelPrecond`] |
//! | §3.2 coarse correction gather/solve/scatter, eq. 12 | [`spmd`] |
//! | §3.5 fused pipelined GMRES | [`spmd`] + `dd_krylov::fused_pipelined_gmres_panel` |
//! | §3 "abstract deflation vectors", §4 a-posteriori Ritz vectors | [`abstract_coarse`] |
//!
//! ## Example
//!
//! ```
//! use dd_core::{decompose, two_level, problem::presets, TwoLevelOpts};
//! use dd_krylov::{try_gmres, GmresOpts, SeqDot};
//! use dd_mesh::Mesh;
//! use dd_part::partition_mesh_rcb;
//!
//! let mesh = Mesh::unit_square(12, 12);
//! let part = partition_mesh_rcb(&mesh, 4);
//! let problem = presets::heterogeneous_diffusion(1);
//! let decomp = decompose(&mesh, &problem, &part, 4, 1);
//! let m = two_level(&decomp, &TwoLevelOpts::default());
//! let x0 = vec![0.0; decomp.n_global];
//! let res = try_gmres(&decomp.a_global, &m, &SeqDot, &decomp.rhs_global, &x0,
//!                     &GmresOpts::default(), None)
//!     .expect("a sequential solve is never interrupted");
//! assert!(res.converged);
//! ```

// Numerical kernels and assembly loops read most naturally with
// explicit indices; complex intermediate types are local plumbing.
#![allow(clippy::needless_range_loop, clippy::type_complexity)]

pub mod abstract_coarse;
pub mod coarse;
pub mod decomp;
pub mod error;
pub mod geneo;
pub mod masters;
pub mod precond;
pub mod problem;
pub mod recovery;
pub mod resident;
pub mod spmd;

pub use abstract_coarse::{ritz_deflation, AbstractADef1, AbstractCoarse};
pub use coarse::{CoarseOperator, CoarseSpace};
pub use decomp::{decompose, Decomposition, NeighborLink, Subdomain};
pub use error::{
    CoarseOutcome, DeflationSource, PhaseOutcome, RecoveryRecord, RunReport, SpmdError,
};
pub use geneo::{
    nicolaides_block, nicolaides_fallback_block, try_deflation_block, DeflationBlock, GeneoOpts,
};
pub use precond::{
    builder::two_level, builder::TwoLevelOpts, RasPrecond, TwoLevelPrecond, Variant,
};
pub use problem::{Pde, Problem};
pub use recovery::{
    drive_epochs, repartition_plan, try_run_spmd_elastic, try_run_spmd_recoverable,
    try_setup_partitioned, Attempt, CheckpointStore, CoarseCache, RecoveryOpts, RepartitionPlan,
    SpmdMultiSolution,
};
pub use resident::{MultiApplyOutcome, PreparedMulti};
pub use spmd::{
    try_run_spmd, try_setup, AssemblyVariant, CoarseSolve, Election, SolverKind, SpmdOpts,
    SpmdReport,
};
