//! # dd-fem
//!
//! Lagrange finite elements on simplicial meshes — the workspace's
//! replacement for the FreeFem++ discretizations of the paper. Supports
//! P1–P4 triangles and P1–P2 tetrahedra, matching the element orders of the
//! paper's experiments (2D elasticity: P3, 2D diffusion: P4, 3D: P2).
//!
//! * [`quadrature`] — Dunavant/Keast triangle and tetrahedron rules up to
//!   the needed degree;
//! * [`basis`] — Lagrange shape functions up to P4 on triangles and
//!   tetrahedra via a Vandermonde construction on the lattice nodes;
//! * [`dofmap`] — global degree-of-freedom numbering keyed by integer
//!   lattice coordinates (exact, orientation-independent);
//! * [`assembly`] — stiffness, mass and volume-load assembly for
//!   heterogeneous diffusion and linear elasticity, with symmetric
//!   Dirichlet elimination (loads are volume sources and body forces: the
//!   preconditioner depends on `A` alone);
//! * [`coeffs`] — the paper's heterogeneous coefficient fields (channels
//!   and inclusions κ ∈ [1, 3·10⁶]; two-material (E, ν) elasticity).

// Numerical kernels and assembly loops read most naturally with
// explicit indices; complex intermediate types are local plumbing.
#![allow(clippy::needless_range_loop, clippy::type_complexity)]

pub mod assembly;
pub mod basis;
pub mod coeffs;
pub mod dofmap;
pub mod quadrature;

pub use assembly::{apply_dirichlet, assemble_diffusion, assemble_elasticity, assemble_mass};
pub use basis::LagrangeBasis;
pub use dofmap::DofMap;
pub use quadrature::Quadrature;
