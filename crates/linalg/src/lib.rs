//! # dd-linalg
//!
//! Dense and sparse linear algebra kernels for the domain decomposition
//! workspace — the from-scratch replacement for the dense/sparse BLAS the
//! paper obtains from Intel MKL.
//!
//! * [`vector`] — level-1 kernels (`dot`, `axpy`, norms, diagonal scaling).
//! * [`dense`] — column-major [`dense::DMat`] with `gemv`/`gemm_tn`, dense
//!   Cholesky, LDLᵀ, LU, and Householder QR.
//! * [`sparse`] — [`sparse::CsrMatrix`] with `spmv`, `csrmm`, Gustavson
//!   `spmm`, principal submatrices (the `R_i A R_iᵀ` extraction of §2),
//!   and symmetric permutations.
//! * [`bsr`] — [`bsr::BsrMatrix`] block sparse row storage for the dense
//!   `dim × dim` node blocks of vector-valued (elasticity) operators.
//! * [`smallgemm`] — register-blocked dense micro-kernels backing the
//!   supernodal LDLᵀ trailing updates in `dd-solver`.
//! * [`givens`] — Givens rotations for incremental Hessenberg QR in GMRES.
//! * [`jacobi`] — dense (generalized) symmetric eigensolvers used as exact
//!   references for the iterative eigensolver in `dd-eigen`.

// Triangular solves, factorizations and stencil loops read most
// naturally with explicit indices; iterator rewrites obscure the math.
#![allow(clippy::needless_range_loop)]

pub mod bsr;
pub mod dense;
pub mod givens;
pub mod jacobi;
pub mod smallgemm;
pub mod sparse;
pub mod vector;

pub use bsr::{BsrAbft, BsrMatrix};
pub use dense::{DMat, DenseCholesky, DenseLdlt, DenseLu, DenseQr, FactorError};
pub use givens::Givens;
pub use sparse::{CooBuilder, CsrMatrix};
