//! Seed dense kernels of the filter update: the i-k-j matrix product
//! that streams each output row through memory for every `k`, the
//! row-by-row Cholesky factorization, and the solve that substitutes one
//! right-hand-side column at a time through a gathered [`Vector`].
//!
//! Copied verbatim from the seed `eudoxus_math` (`Matrix::matmul`,
//! `Cholesky::factor`, `Cholesky::solve_matrix` and the two
//! substitutions), so the golden test (`tests/dense_identity.rs`)
//! notices any change to the live kernels' floating-point order or
//! error behaviour. The methods became free functions over a factor
//! `L`, because `Cholesky` keeps its factor private.

use eudoxus_math::solve::PIVOT_EPS;
use eudoxus_math::{MathError, Matrix, Result, Vector};

/// Seed `Matrix::matmul`: `a * b` by straightforward i-k-j loops,
/// skipping zero entries of `a`.
///
/// # Errors
///
/// [`MathError::DimensionMismatch`] when `a.cols() != b.rows()`.
pub fn matmul_baseline(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    if a.cols() != b.rows() {
        return Err(MathError::DimensionMismatch {
            left: a.shape(),
            right: b.shape(),
        });
    }
    let mut out = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for k in 0..a.cols() {
            let a = a[(i, k)];
            if a == 0.0 {
                continue;
            }
            let rrow = b.row(k);
            let orow = out.row_mut(i);
            for (o, &r) in orow.iter_mut().zip(rrow) {
                *o += a * r;
            }
        }
    }
    Ok(out)
}

/// Seed `Cholesky::factor`: the lower-triangular `L` with `a = L·Lᵀ`,
/// row by row, reading only the lower triangle of `a`.
///
/// # Errors
///
/// [`MathError::NotSquare`] for rectangular input and
/// [`MathError::NotPositiveDefinite`] when a pivot is non-positive.
pub fn cholesky_factor_baseline(a: &Matrix) -> Result<Matrix> {
    if !a.is_square() {
        return Err(MathError::NotSquare { shape: a.shape() });
    }
    let n = a.rows();
    let mut l = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let mut s = a[(i, j)];
            for k in 0..j {
                s -= l[(i, k)] * l[(j, k)];
            }
            if i == j {
                if s <= 0.0 || !s.is_finite() {
                    return Err(MathError::NotPositiveDefinite);
                }
                l[(i, j)] = s.sqrt();
            } else {
                l[(i, j)] = s / l[(j, j)];
            }
        }
    }
    Ok(l)
}

/// Seed `Cholesky::solve_matrix`: solves `L·Lᵀ·X = b` column by column,
/// transposing `L` once for all columns.
///
/// # Errors
///
/// [`MathError::DimensionMismatch`] when `b.rows()` differs from the
/// dimension of `l`, and [`MathError::Singular`] when a pivot of `l` is
/// below [`PIVOT_EPS`].
pub fn cholesky_solve_matrix_baseline(l: &Matrix, b: &Matrix) -> Result<Matrix> {
    if b.rows() != l.rows() {
        return Err(MathError::DimensionMismatch {
            left: l.shape(),
            right: b.shape(),
        });
    }
    let l_t = l.transpose();
    let mut out = Matrix::zeros(b.rows(), b.cols());
    for j in 0..b.cols() {
        let y = forward_substitute_baseline(l, &b.col(j))?;
        let x = backward_substitute_baseline(&l_t, &y)?;
        for i in 0..b.rows() {
            out[(i, j)] = x[i];
        }
    }
    Ok(out)
}

/// Seed `forward_substitute`: solves `L x = b` for lower-triangular `L`.
///
/// # Errors
///
/// [`MathError::NotSquare`] for rectangular `l`,
/// [`MathError::DimensionMismatch`] when `b.len() != l.rows()`, and
/// [`MathError::Singular`] when a diagonal entry vanishes.
pub fn forward_substitute_baseline(l: &Matrix, b: &Vector) -> Result<Vector> {
    if !l.is_square() {
        return Err(MathError::NotSquare { shape: l.shape() });
    }
    if b.len() != l.rows() {
        return Err(MathError::DimensionMismatch {
            left: l.shape(),
            right: (b.len(), 1),
        });
    }
    let n = l.rows();
    let mut x = Vector::zeros(n);
    for i in 0..n {
        let mut s = b[i];
        for j in 0..i {
            s -= l[(i, j)] * x[j];
        }
        let d = l[(i, i)];
        if d.abs() < PIVOT_EPS {
            return Err(MathError::Singular);
        }
        x[i] = s / d;
    }
    Ok(x)
}

/// Seed `backward_substitute`: solves `U x = b` for upper-triangular `U`.
///
/// # Errors
///
/// Same conditions as [`forward_substitute_baseline`].
pub fn backward_substitute_baseline(u: &Matrix, b: &Vector) -> Result<Vector> {
    if !u.is_square() {
        return Err(MathError::NotSquare { shape: u.shape() });
    }
    if b.len() != u.rows() {
        return Err(MathError::DimensionMismatch {
            left: u.shape(),
            right: (b.len(), 1),
        });
    }
    let n = u.rows();
    let mut x = Vector::zeros(n);
    for i in (0..n).rev() {
        let mut s = b[i];
        for j in (i + 1)..n {
            s -= u[(i, j)] * x[j];
        }
        let d = u[(i, i)];
        if d.abs() < PIVOT_EPS {
            return Err(MathError::Singular);
        }
        x[i] = s / d;
    }
    Ok(x)
}
