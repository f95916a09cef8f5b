//! # dd-krylov
//!
//! Krylov solvers for the domain decomposition workspace: restarted
//! GMRES(m) (the paper's solver of choice), right-preconditioned by
//! default and left-preconditioned on request, and the left-preconditioned
//! fused p1-GMRES of §3.5 that trades standalone global reductions for
//! communication piggy-backed on the coarse correction. Both loops run on
//! one restart driver.
//!
//! Solvers are generic over [`Operator`], [`Preconditioner`] and
//! [`InnerProduct`], so the same code runs sequentially (`SeqDot`) and in
//! the SPMD runtime (a partition-of-unity weighted dot + allreduce,
//! provided by `dd-core`).

pub mod checkpoint;
pub mod gmres;
pub mod operator;
pub mod pipelined;
pub mod recycle;
mod restart;
pub mod sdc;

pub use checkpoint::{CheckpointCfg, CheckpointSink, SolveCheckpoint};
pub use gmres::{
    try_gmres, try_gmres_panel, try_gmres_with, GmresOpts, GmresWorkspace, Ortho, Side,
    SolveResult, SolveStatus,
};
pub use operator::{
    FnPrecond, IdentityPrecond, InnerProduct, Operator, Preconditioner, SeqDot, SolveInterrupt,
};
pub use pipelined::{fused_pipelined_gmres_panel, FusedPreconditioner};
pub use recycle::RecycleSpace;
pub use sdc::{SdcGuard, SdcSuspected};
