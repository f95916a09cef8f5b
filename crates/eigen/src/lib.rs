//! # dd-eigen
//!
//! The iterative eigensolver — the workspace's replacement for ARPACK, used
//! to compute the GenEO deflation vectors of the paper's eq. (9). Two
//! modules, one solver:
//!
//! * [`lanczos`] — shift-invert Lanczos with full B-reorthogonalization for
//!   generalized symmetric pencils `A x = λ B x` with PSD (possibly
//!   singular) `B`, stopped on residuals and restarted with locking until
//!   no wanted pair is missing.
//! * [`tridiag`] — implicit-QL symmetric tridiagonal eigensolver, its inner
//!   kernel.

// Numerical kernels and assembly loops read most naturally with
// explicit indices; complex intermediate types are local plumbing.
#![allow(clippy::needless_range_loop, clippy::type_complexity)]

pub mod lanczos;
pub mod tridiag;

pub use lanczos::{smallest_generalized, EigenError, GeneralizedEig, LanczosOpts};
pub use tridiag::{tridiag_eig, tridiag_eig_last};
