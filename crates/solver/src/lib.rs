//! # dd-solver
//!
//! Sparse symmetric direct solver (LDLᵀ) with fill-reducing orderings — the
//! workspace's replacement for the MUMPS / PaStiX / PARDISO / WSMP solvers
//! the paper uses for subdomain factorizations and the coarse operator.
//!
//! * [`ordering`] — reverse Cuthill–McKee and quotient-graph minimum degree
//!   (on the node graph for vector-valued operators);
//!   [`ordering::fill_reducing`] turns an [`Ordering`] into the permutation
//!   [`LocalLdlt::factor_ordered`] takes.
//! * [`local`] — [`LocalLdlt`], the one public factor type: it factors
//!   (`factor`, `factor_with`, `factor_ordered`), picks the kernel from the
//!   symbolic analysis unless one is forced, and solves `k` right-hand
//!   sides at once (`solve_panel_with`; one right-hand side is the panel
//!   of width 1).
//! * [`ldlt`] — the scalar kernel: elimination-tree based up-looking
//!   LDLᵀ, and the elimination-tree symbolic analysis both kernels start
//!   from.
//! * [`supernodal`] — the blocked kernel: multifrontal LDLᵀ with relaxed
//!   supernodes and dense panels (the raw-speed path; the scalar kernel
//!   stays the differential oracle).
//! * [`dist_ldlt`] — block fan-in LDLᵀ of a row-distributed matrix over a
//!   communicator, with distributed triangular solves (the coarse operator
//!   `E` across the elected masters, §3.2).

// Triangular solves, factorizations and stencil loops read most
// naturally with explicit indices; iterator rewrites obscure the math.
#![allow(clippy::needless_range_loop)]

pub mod dist_ldlt;
pub mod ldlt;
pub mod local;
pub mod ordering;
pub mod supernodal;

pub use dist_ldlt::DistLdlt;
pub use ldlt::{LdltError, Ordering, PivotPolicy, SparseLdlt};
pub use local::{flops_per_nnz, LdltBackend, LocalLdlt};
pub use supernodal::{PanelDefect, SupernodalLdlt};
