//! Dense linear algebra substrate for the Eudoxus localization stack.
//!
//! The Eudoxus backend accelerator (paper Sec. VI) is built around five
//! matrix primitives — multiplication, decomposition, inverse, transpose and
//! forward/backward substitution (Table I). This crate provides exactly those
//! primitives (plus the supporting structure: blocked operations, Schur
//! complements, symmetric specializations, a dedicated 6×6 inverse) as a
//! from-scratch, dependency-free implementation. Everything in the VIO /
//! SLAM / registration backends, as well as the accelerator's functional
//! model, is expressed in terms of this crate.
//!
//! # Floating-point order
//!
//! The dense kernels of the filter update fix the order in which each
//! output entry takes its terms, so results are bit-reproducible and
//! independent of how the loops are blocked:
//!
//! - [`Matrix::matmul`]: `c_ij = 0.0 + a_i0·b_0j + a_i1·b_1j + …`, with
//!   `k` ascending and every `k` where `a_ik == 0.0` skipped;
//! - [`Cholesky::factor`]: `l_ij = (a_ij − l_i0·l_j0 − l_i1·l_j1 − …) / l_jj`
//!   below the diagonal and `l_jj = √(a_jj − l_j0² − l_j1² − …)` on it,
//!   with `k` ascending;
//! - [`solve::forward_substitute`] and [`solve::backward_substitute`]:
//!   `x_i = (b_i − t_ij·x_j − …) / t_ii` over the solved `j`, taken in
//!   ascending `j` in both;
//! - [`Cholesky::solve_matrix`]: each column gets exactly the forward and
//!   backward substitutions of [`Cholesky::solve`].
//!
//! Within that order the kernels run independent accumulator chains side
//! by side: blocks of output columns for the product and the solves, the
//! rows below a pivot for the factorization. The seed loops they replaced
//! are kept in `eudoxus_bench::baseline`, whose golden test holds the
//! kernels to them bit for bit.
//!
//! # Example
//!
//! ```
//! use eudoxus_math::{Matrix, Vector};
//!
//! let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]);
//! let b = Vector::from_slice(&[1.0, 2.0]);
//! let x = a.solve_spd(&b).expect("SPD system");
//! let r = &a.matvec(&x) - &b;
//! assert!(r.norm() < 1e-12);
//! ```

pub mod block;
pub mod cholesky;
pub mod error;
pub mod lu;
pub mod matrix;
pub mod qr;
pub mod regression;
pub mod solve;
pub mod vector;

pub use block::{schur_complement, BlockMatrix};
pub use cholesky::Cholesky;
pub use error::MathError;
pub use lu::Lu;
pub use matrix::Matrix;
pub use qr::Qr;
pub use regression::{PolyFit, PolyModel};
pub use vector::Vector;

/// Result alias used across the crate.
pub type Result<T> = std::result::Result<T, MathError>;
