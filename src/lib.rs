//! # dd-geneo
//!
//! A Rust implementation of *"Scalable Domain Decomposition Preconditioners
//! for Heterogeneous Elliptic Problems"* (Jolivet, Hecht, Nataf,
//! Prud'homme; SC'13): two-level overlapping Schwarz preconditioning with a
//! GenEO spectral coarse space, a master–slave distributed coarse operator,
//! and fused pipelined GMRES — together with every substrate it needs
//! (sparse direct solver, eigensolver, FEM, mesh, partitioner, SPMD
//! runtime), all built from scratch.
//!
//! This façade crate re-exports the workspace members:
//!
//! * [`linalg`] — dense/sparse kernels;
//! * [`solver`] — sparse LDLᵀ with fill-reducing orderings;
//! * [`eigen`] — shift-invert Lanczos for symmetric pencils;
//! * [`mesh`] — simplicial meshes with uniform refinement;
//! * [`part`] — graph partitioning;
//! * [`fem`] — P1–P4 Lagrange finite elements;
//! * [`comm`] — SPMD runtime with virtual-time cost modeling, seeded
//!   fault injection, and elastic membership (rank join via
//!   `World::run_elastic` and the one membership agreement
//!   `Communicator::try_shrink`, straggler suspicion and eviction under a
//!   `SuspicionPolicy`);
//! * [`krylov`] — GMRES / fused p1-GMRES, with Krylov-subspace
//!   recycling for repeated right-hand sides;
//! * [`core`] — the paper's preconditioners and drivers;
//! * [`serve`] — solve-as-a-service: a resident prepared solver streaming
//!   many right-hand sides with batching, admissible-perturbation reuse,
//!   and mid-stream membership changes.
//!
//! ## Quickstart
//!
//! See `examples/quickstart.rs`, or in short:
//!
//! ```
//! use dd_geneo::core::{decompose, two_level, problem::presets, TwoLevelOpts};
//! use dd_geneo::krylov::{try_gmres, GmresOpts, SeqDot};
//! use dd_geneo::mesh::Mesh;
//! use dd_geneo::part::partition_mesh_rcb;
//!
//! let mesh = Mesh::unit_square(16, 16);
//! let part = partition_mesh_rcb(&mesh, 8);
//! let problem = presets::heterogeneous_diffusion(1);
//! let decomp = decompose(&mesh, &problem, &part, 8, 1);
//! let precond = two_level(&decomp, &TwoLevelOpts::default());
//! let x0 = vec![0.0; decomp.n_global];
//! let result = try_gmres(&decomp.a_global, &precond, &SeqDot,
//!                        &decomp.rhs_global, &x0, &GmresOpts::default(), None)
//!     .expect("a sequential solve is never interrupted");
//! assert!(result.converged);
//! ```

pub use dd_comm as comm;
pub use dd_core as core;
pub use dd_eigen as eigen;
pub use dd_fem as fem;
pub use dd_krylov as krylov;
pub use dd_linalg as linalg;
pub use dd_mesh as mesh;
pub use dd_part as part;
pub use dd_serve as serve;
pub use dd_solver as solver;

/// Convenience prelude: the types most applications need.
///
/// ```
/// use dd_geneo::prelude::*;
/// let mesh = Mesh::unit_square(8, 8);
/// let part = partition_mesh_rcb(&mesh, 4);
/// let problem = presets::uniform_diffusion(1);
/// let decomp = decompose(&mesh, &problem, &part, 4, 1);
/// let precond = two_level(&decomp, &TwoLevelOpts::default());
/// let x0 = vec![0.0; decomp.n_global];
/// let result = try_gmres(&decomp.a_global, &precond, &SeqDot,
///                        &decomp.rhs_global, &x0, &GmresOpts::default(), None)
///     .expect("a sequential solve is never interrupted");
/// assert!(result.converged);
/// ```
pub mod prelude {
    pub use dd_core::problem::presets;
    pub use dd_core::{
        decompose, try_run_spmd, two_level, Decomposition, GeneoOpts, Problem, RasPrecond,
        SpmdOpts, TwoLevelOpts, Variant,
    };
    pub use dd_krylov::{try_gmres, GmresOpts, Ortho, SeqDot, Side};
    pub use dd_linalg::{CooBuilder, CsrMatrix, DMat};
    pub use dd_mesh::Mesh;
    pub use dd_part::partition_mesh_rcb;
    pub use dd_solver::{LdltBackend, LocalLdlt, Ordering};
}
