//! Cholesky (LLᵀ) factorization for symmetric positive definite matrices.
//!
//! The VIO backend's dominant kernel — computing the Kalman gain — solves
//! `S·K = P·Hᵀ` where `S = H·P·Hᵀ + R` is symmetric positive definite
//! (paper Eq. 1). The paper's backend accelerator exploits that symmetry to
//! halve compute and storage (Sec. VI-A "Optimization"); the CPU
//! implementation here does the same by only touching the lower triangle.

use crate::error::MathError;
use crate::matrix::{run_chains, Chains, Matrix};
use crate::solve::{backward_substitute, forward_substitute, PIVOT_EPS};
use crate::vector::Vector;
use crate::Result;

/// Blocks of the entries below pivot `j` of `L`, written into row `j` of
/// `lt` (`Lᵀ`), given its rows before `j` and the pivot `d = l_jj`.
struct FactorRows<'a> {
    a: &'a Matrix,
    lt: &'a mut Matrix,
    j: usize,
    d: f64,
}

impl Chains for FactorRows<'_> {
    fn block<const W: usize>(&mut self, r0: usize) {
        let (n, j) = (self.a.rows(), self.j);
        let i0 = j + 1 + r0;
        let mut acc: [f64; W] = std::array::from_fn(|r| self.a[(i0 + r, j)]);
        for k in 0..j {
            let ljk = self.lt[(k, j)];
            let lik: &[f64; W] = self.lt.as_slice()[k * n + i0..][..W]
                .try_into()
                .expect("W rows");
            for (s, &l) in acc.iter_mut().zip(lik) {
                *s -= l * ljk;
            }
        }
        for (out, s) in self.lt.as_mut_slice()[j * n + i0..][..W]
            .iter_mut()
            .zip(acc)
        {
            *out = s / self.d;
        }
    }
}

/// Blocks of columns of `X` in `L·Lᵀ·X = B`.
struct SolveCols<'a> {
    l: &'a Matrix,
    l_t: &'a Matrix,
    b: &'a Matrix,
    x: &'a mut Matrix,
}

impl Chains for SolveCols<'_> {
    /// Forward substitution against `L` from `B` into `X`, then backward
    /// substitution against `Lᵀ` in place.
    fn block<const W: usize>(&mut self, j0: usize) {
        let n = self.l.rows();
        let m = self.b.cols();
        let cols = |i: usize| i * m + j0..i * m + j0 + W;
        let x = self.x.as_mut_slice();
        for i in 0..n {
            let mut acc: [f64; W] = self.b.as_slice()[cols(i)].try_into().expect("W columns");
            for (j, &l) in self.l.row(i)[..i].iter().enumerate() {
                let y: &[f64; W] = x[cols(j)].try_into().expect("W columns");
                for (s, &y) in acc.iter_mut().zip(y) {
                    *s -= l * y;
                }
            }
            let d = self.l[(i, i)];
            for (out, s) in x[cols(i)].iter_mut().zip(acc) {
                *out = s / d;
            }
        }
        for i in (0..n).rev() {
            let mut acc: [f64; W] = x[cols(i)].try_into().expect("W columns");
            for (j, &u) in self.l_t.row(i).iter().enumerate().skip(i + 1) {
                let v: &[f64; W] = x[cols(j)].try_into().expect("W columns");
                for (s, &v) in acc.iter_mut().zip(v) {
                    *s -= u * v;
                }
            }
            let d = self.l_t[(i, i)];
            for (out, s) in x[cols(i)].iter_mut().zip(acc) {
                *out = s / d;
            }
        }
    }
}

/// The lower-triangular Cholesky factor `L` with `A = L·Lᵀ`.
///
/// # Example
///
/// ```
/// use eudoxus_math::{Cholesky, Matrix, Vector};
///
/// let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]);
/// let chol = Cholesky::factor(&a)?;
/// let x = chol.solve(&Vector::from_slice(&[1.0, 1.0]))?;
/// assert!((a.matvec(&x).as_slice()[0] - 1.0).abs() < 1e-12);
/// # Ok::<(), eudoxus_math::MathError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: Matrix,
}

impl Cholesky {
    /// Factors a symmetric positive definite matrix.
    ///
    /// Only the lower triangle of `a` is read, so callers may pass matrices
    /// whose upper triangle carries numerical noise.
    ///
    /// Each entry is `(a_ij − l_i0·l_j0 − l_i1·l_j1 − …) / l_jj`, or the
    /// square root of that sum on the diagonal, with `k` ascending. The
    /// factor is built column by column into `Lᵀ`, so the entries below
    /// one pivot run as independent chains over contiguous memory.
    ///
    /// # Errors
    ///
    /// [`MathError::NotSquare`] for rectangular input and
    /// [`MathError::NotPositiveDefinite`] when a pivot is non-positive.
    pub fn factor(a: &Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(MathError::NotSquare { shape: a.shape() });
        }
        let n = a.rows();
        // Row `k` of `lt` is column `k` of `L`.
        let mut lt = Matrix::zeros(n, n);
        for j in 0..n {
            let mut s = a[(j, j)];
            for k in 0..j {
                s -= lt[(k, j)] * lt[(k, j)];
            }
            if s <= 0.0 || !s.is_finite() {
                return Err(MathError::NotPositiveDefinite);
            }
            let d = s.sqrt();
            lt[(j, j)] = d;
            run_chains(
                n - j - 1,
                &mut FactorRows {
                    a,
                    lt: &mut lt,
                    j,
                    d,
                },
            );
        }
        Ok(Cholesky { l: lt.transpose() })
    }

    /// The lower-triangular factor `L`.
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// Consumes the factorization, returning `L`.
    pub fn into_l(self) -> Matrix {
        self.l
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Solves `A x = b` via two triangular substitutions.
    ///
    /// # Errors
    ///
    /// [`MathError::DimensionMismatch`] when `b.len()` differs from the
    /// factored dimension.
    pub fn solve(&self, b: &Vector) -> Result<Vector> {
        let y = forward_substitute(&self.l, b)?;
        backward_substitute(&self.l.transpose(), &y)
    }

    /// Solves `A X = B`.
    ///
    /// Every column gets the two substitutions of [`Cholesky::solve`],
    /// with each entry's terms in the same order, but the columns run in
    /// blocks, one independent accumulator chain per column, against one
    /// transpose of `L`.
    ///
    /// # Errors
    ///
    /// [`MathError::DimensionMismatch`] when `b.rows()` differs from the
    /// factored dimension, and [`MathError::Singular`] when `B` has
    /// columns and a pivot is below [`PIVOT_EPS`].
    pub fn solve_matrix(&self, b: &Matrix) -> Result<Matrix> {
        if b.rows() != self.dim() {
            return Err(MathError::DimensionMismatch {
                left: self.l.shape(),
                right: b.shape(),
            });
        }
        let m = b.cols();
        if m > 0 && (0..self.dim()).any(|i| self.l[(i, i)].abs() < PIVOT_EPS) {
            return Err(MathError::Singular);
        }
        let mut x = Matrix::zeros(b.rows(), m);
        run_chains(
            m,
            &mut SolveCols {
                l: &self.l,
                l_t: &self.l.transpose(),
                b,
                x: &mut x,
            },
        );
        Ok(x)
    }

    /// Inverse of the factored matrix (solves against the identity).
    ///
    /// # Errors
    ///
    /// Propagates substitution failures (cannot occur for a valid factor).
    pub fn inverse(&self) -> Result<Matrix> {
        self.solve_matrix(&Matrix::identity(self.dim()))
    }

    /// `log(det A)`, computed stably from the factor diagonal.
    pub fn log_det(&self) -> f64 {
        (0..self.dim()).map(|i| self.l[(i, i)].ln()).sum::<f64>() * 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd(n: usize) -> Matrix {
        // A = B·Bᵀ + n·I is SPD for any B.
        let b = Matrix::from_fn(n, n, |i, j| ((i * n + j) as f64 * 0.7).sin());
        let mut a = b.outer_gram();
        a.add_diag(n as f64);
        a
    }

    #[test]
    fn factor_reconstructs() {
        let a = spd(6);
        let c = Cholesky::factor(&a).unwrap();
        let recon = c.l().matmul(&c.l().transpose()).unwrap();
        assert!((&recon - &a).norm_max() < 1e-10);
    }

    #[test]
    fn solve_residual_is_small() {
        let a = spd(8);
        let b = Vector::from_iter((0..8).map(|i| i as f64 - 3.0));
        let x = Cholesky::factor(&a).unwrap().solve(&b).unwrap();
        let r = &a.matvec(&x) - &b;
        assert!(r.norm() < 1e-9);
    }

    #[test]
    fn inverse_is_inverse() {
        let a = spd(5);
        let inv = Cholesky::factor(&a).unwrap().inverse().unwrap();
        let eye = a.matmul(&inv).unwrap();
        assert!((&eye - &Matrix::identity(5)).norm_max() < 1e-9);
    }

    #[test]
    fn rejects_indefinite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // eigenvalues 3, -1
        assert_eq!(
            Cholesky::factor(&a).unwrap_err(),
            MathError::NotPositiveDefinite
        );
    }

    #[test]
    fn rejects_rectangular() {
        assert!(matches!(
            Cholesky::factor(&Matrix::zeros(2, 3)),
            Err(MathError::NotSquare { .. })
        ));
    }

    #[test]
    fn log_det_matches_diagonal_product() {
        let a = Matrix::from_diag(&[2.0, 3.0, 4.0]);
        let c = Cholesky::factor(&a).unwrap();
        assert!((c.log_det() - 24.0f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn cholesky_solves_match_substitutions_bitwise() {
        // On random SPD matrices (1×1 included), `solve` and every column
        // of `solve_matrix` equal forward substitution against `L` then
        // backward substitution against `Lᵀ`, bit for bit.
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xC401);
        for n in [1, 1, 2, 3, 6, 17, 40] {
            let b = Matrix::from_fn(n, n, |_, _| rng.random_range(-2.0..2.0));
            let mut a = b.outer_gram();
            a.add_diag(rng.random_range(1e-3..1.0));
            let chol = Cholesky::factor(&a).unwrap();
            let l_t = chol.l().transpose();
            let rhs = Matrix::from_fn(n, n + 3, |_, _| rng.random_range(-10.0..10.0));
            let x = chol.solve_matrix(&rhs).unwrap();
            for j in 0..rhs.cols() {
                let col = rhs.col(j);
                let y = forward_substitute(chol.l(), &col).unwrap();
                let want = backward_substitute(&l_t, &y).unwrap();
                let bits =
                    |v: &Vector| v.as_slice().iter().map(|e| e.to_bits()).collect::<Vec<_>>();
                let solved = chol.solve(&col).unwrap();
                assert_eq!(bits(&solved), bits(&want), "solve, n {n}");
                assert_eq!(bits(&x.col(j)), bits(&want), "solve_matrix col {j}, n {n}");
            }
        }
    }

    #[test]
    fn reads_only_lower_triangle() {
        let mut a = spd(4);
        let c_ref = Cholesky::factor(&a).unwrap();
        a[(0, 3)] += 100.0; // corrupt upper triangle only
        let c = Cholesky::factor(&a).unwrap();
        assert!((&c.into_l() - c_ref.l()).norm_max() < 1e-15);
    }
}
