//! # dd-solver
//!
//! Sparse symmetric direct solver (LDLᵀ) with fill-reducing orderings — the
//! workspace's replacement for the MUMPS / PaStiX / PARDISO / WSMP solvers
//! the paper uses for subdomain factorizations and the coarse operator.
//!
//! * [`ordering`] — reverse Cuthill–McKee and quotient-graph minimum degree
//!   (on the node graph for vector-valued operators);
//!   [`ordering::fill_reducing`] turns an [`Ordering`] into the permutation
//!   every `factor_ordered` entry point takes.
//! * [`ldlt`] — elimination-tree based up-looking LDLᵀ with forward/backward
//!   solves, inertia computation, and multi-RHS solves.
//! * [`supernodal`] — multifrontal LDLᵀ with relaxed supernodes and dense
//!   blocked panels (the raw-speed path; `ldlt` stays the differential
//!   oracle).
//! * [`local`] — [`local::LocalLdlt`], the backend-selectable wrapper the
//!   SPMD layer factors subdomain matrices through.
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
pub use local::{LdltBackend, LocalLdlt};
pub use supernodal::{PanelDefect, SupernodalLdlt};
