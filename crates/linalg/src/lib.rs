//! # slim-linalg
//!
//! Dense linear-algebra substrate for the SlimCodeML reproduction.
//!
//! The SlimCodeML paper (Schabauer et al., IPDPSW 2012) attributes its
//! speedup to replacing hand-rolled linear algebra in CodeML with tuned
//! BLAS/LAPACK routines and to exploiting symmetry (`dsyrk` instead of
//! `dgemm`, `dsyevr` instead of a hand-coded eigensolver). Since this
//! reproduction may not link external BLAS/LAPACK, this crate provides both
//! sides of that comparison from scratch:
//!
//! * **Tuned kernels** (`gemm`, `syrk`, `gemv`, `symv`): register-tiled
//!   and vectorized implementations standing in for GotoBLAS.
//! * **Naive kernels** (`naive` module): textbook triple loops standing in
//!   for CodeML's hand-rolled C.
//! * **Symmetric eigensolvers**: Householder tridiagonalization + implicit
//!   QL with shifts (the EISPACK `tred2`/`tql2` lineage) in two forms with
//!   the same bits — the scalar `tred2`/`tql2` CodeML hand-codes
//!   ([`EigenMethod::HouseholderQlNaive`]) and `tred2_tuned`/`tql2_tuned`,
//!   which run the O(n³) loops as SIMD row updates on a full symmetric
//!   working copy and on transposed eigenvectors
//!   ([`EigenMethod::HouseholderQl`]) — plus a bisection +
//!   inverse-iteration solver (stand-in for `dsyevr`'s MRRR path), and a
//!   cyclic Jacobi solver used for cross-checking.
//!
//! All matrices are dense, row-major, `f64`.
//!
//! ## Quick example
//!
//! ```
//! use slim_linalg::{Mat, gemm, Transpose};
//!
//! let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
//! let b = Mat::identity(2);
//! let mut c = Mat::zeros(2, 2);
//! gemm(1.0, &a, Transpose::No, &b, Transpose::No, 0.0, &mut c);
//! assert_eq!(c, a);
//! ```

// Indexed loops are the natural idiom for the tridiagonal/banded
// recurrences in this crate; suppress the style lint crate-wide.
#![allow(clippy::needless_range_loop)]

pub mod bisect;
mod cholesky;
pub mod eigen;
mod error;
pub mod gemm;
pub mod gemv;
pub mod jacobi;
mod lu;
mod mat;
pub mod naive;
pub mod norms;
pub mod ql;
#[cfg(feature = "sanitize")]
pub mod sanitize;
pub mod simd;
pub mod syrk;
pub mod tridiag;
pub mod vecops;

pub use cholesky::Cholesky;
pub use eigen::{sym_eigen, EigenMethod, SymEigen};
pub use error::LinalgError;
pub use gemm::{gemm, Transpose};
pub use gemv::{gemv, ger, symv};
pub use lu::Lu;
pub use mat::Mat;
pub use simd::{SimdBackend, SimdMode};
pub use syrk::syrk;
pub use vecops::{neumaier_sum, NeumaierSum};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, LinalgError>;
