//! Dense row-major `f64` matrix with the operations the Eudoxus backends use.
//!
//! The matrix sizes in localization are modest (a few to a few hundred rows:
//! MSCKF covariance is ~`(15 + 6·30)²`, marginalization Hessians a few
//! hundred), so a simple contiguous row-major layout with cache-blocked
//! multiplication is both adequate and easy to mirror in the accelerator's
//! functional model.

use crate::error::MathError;
use crate::vector::Vector;
use crate::Result;
use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Neg, Sub, SubAssign};

/// Block edge used by [`Matrix::matmul_blocked`] when the caller does not
/// specify one. 32×32 `f64` blocks (8 KiB) fit comfortably in L1.
pub const DEFAULT_BLOCK: usize = 32;

/// A dense kernel built from independent accumulator chains, one per
/// output column (or row), run a block of `W` chains at a time.
pub(crate) trait Chains {
    /// Runs chains `start..start + W`.
    fn block<const W: usize>(&mut self, start: usize);
}

/// Runs chains `0..n`: in blocks of 16 when there are at least 16, else
/// of 4, else of 2, else one. When the block width does not divide `n`,
/// the last block ends at `n` and overlaps the one before it. A chain's
/// result depends only on its own index, so an overlapped chain computes
/// the same value twice.
pub(crate) fn run_chains(n: usize, kernel: &mut impl Chains) {
    fn cover<const W: usize>(n: usize, kernel: &mut impl Chains) {
        let mut start = 0;
        while start + W < n {
            kernel.block::<W>(start);
            start += W;
        }
        kernel.block::<W>(n - W);
    }
    match n {
        0 => {}
        1 => kernel.block::<1>(0),
        2..=3 => cover::<2>(n, kernel),
        4..=15 => cover::<4>(n, kernel),
        _ => cover::<16>(n, kernel),
    }
}

/// Blocks of output columns of `a * b`, written into `out`.
struct MatmulCols<'a> {
    a: &'a Matrix,
    b: &'a Matrix,
    out: &'a mut Matrix,
}

impl Chains for MatmulCols<'_> {
    fn block<const W: usize>(&mut self, j0: usize) {
        let n = self.b.cols;
        for i in 0..self.a.rows {
            let mut acc = [0.0f64; W];
            for (k, &a) in self.a.row(i).iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let r: &[f64; W] = self.b.data[k * n + j0..][..W]
                    .try_into()
                    .expect("W columns");
                for (o, &r) in acc.iter_mut().zip(r) {
                    *o += a * r;
                }
            }
            self.out.data[i * n + j0..][..W].copy_from_slice(&acc);
        }
    }
}

/// A dense, row-major, `f64` matrix.
///
/// # Example
///
/// ```
/// use eudoxus_math::Matrix;
///
/// let a = Matrix::identity(3);
/// let b = Matrix::from_fn(3, 3, |i, j| (i + j) as f64);
/// let c = (&a * &b).unwrap();
/// assert_eq!(c, b);
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a diagonal matrix from the given diagonal entries.
    pub fn from_diag(diag: &[f64]) -> Self {
        let mut m = Matrix::zeros(diag.len(), diag.len());
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Creates a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "all rows must have the same length");
            data.extend_from_slice(row);
        }
        Matrix { rows: r, cols: c, data }
    }

    /// Creates a matrix by evaluating `f(i, j)` for every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer length must be rows*cols");
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// True when the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow the underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrow the underlying row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the matrix, returning its row-major buffer.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Borrow row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrow row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` into a [`Vector`].
    pub fn col(&self, j: usize) -> Vector {
        Vector::from_iter((0..self.rows).map(|i| self[(i, j)]))
    }

    /// Returns the transpose. This is one of the five accelerator
    /// building blocks (paper Table I).
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix product `self * rhs`.
    ///
    /// Each output entry is `0.0 + a_i0·b_0j + a_i1·b_1j + …`, summed in
    /// ascending `k` and skipping every `k` with `a_ik == 0.0` (the i-k-j
    /// loop's order). The kernel keeps a block of an output row in
    /// registers across `k`, one accumulator per column, and walks the
    /// rows of `self` inside each block of columns, so the block's stripe
    /// of `rhs` stays in cache.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::DimensionMismatch`] when `self.cols != rhs.rows`.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.rows {
            return Err(MathError::DimensionMismatch {
                left: self.shape(),
                right: rhs.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        run_chains(
            rhs.cols,
            &mut MatmulCols {
                a: self,
                b: rhs,
                out: &mut out,
            },
        );
        Ok(out)
    }

    /// Cache-blocked matrix product, mirroring how the backend accelerator
    /// iterates over tiles of the operands (paper Sec. VI-A: "the compute
    /// units have to support computations for only a block").
    ///
    /// # Errors
    ///
    /// Returns [`MathError::DimensionMismatch`] when `self.cols != rhs.rows`.
    pub fn matmul_blocked(&self, rhs: &Matrix, block: usize) -> Result<Matrix> {
        if self.cols != rhs.rows {
            return Err(MathError::DimensionMismatch {
                left: self.shape(),
                right: rhs.shape(),
            });
        }
        let block = block.max(1);
        let (m, k, n) = (self.rows, self.cols, rhs.cols);
        let mut out = Matrix::zeros(m, n);
        for ii in (0..m).step_by(block) {
            for kk in (0..k).step_by(block) {
                for jj in (0..n).step_by(block) {
                    let i_end = (ii + block).min(m);
                    let k_end = (kk + block).min(k);
                    let j_end = (jj + block).min(n);
                    for i in ii..i_end {
                        for p in kk..k_end {
                            let a = self[(i, p)];
                            if a == 0.0 {
                                continue;
                            }
                            let rrow = &rhs.data[p * n + jj..p * n + j_end];
                            let orow = &mut out.data[i * n + jj..i * n + j_end];
                            for (o, &r) in orow.iter_mut().zip(rrow) {
                                *o += a * r;
                            }
                        }
                    }
                }
            }
        }
        Ok(out)
    }

    /// Matrix–vector product.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols`.
    pub fn matvec(&self, v: &Vector) -> Vector {
        assert_eq!(v.len(), self.cols, "matvec dimension mismatch");
        Vector::from_iter((0..self.rows).map(|i| {
            self.row(i)
                .iter()
                .zip(v.as_slice())
                .map(|(&a, &b)| a * b)
                .sum()
        }))
    }

    /// `selfᵀ * v` without forming the transpose.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.rows`.
    pub fn tr_matvec(&self, v: &Vector) -> Vector {
        assert_eq!(v.len(), self.rows, "tr_matvec dimension mismatch");
        let mut out = vec![0.0; self.cols];
        for i in 0..self.rows {
            let s = v[i];
            if s == 0.0 {
                continue;
            }
            for (o, &a) in out.iter_mut().zip(self.row(i)) {
                *o += s * a;
            }
        }
        Vector::from_vec(out)
    }

    /// `selfᵀ * self` exploiting symmetry of the result (computes the upper
    /// triangle once and mirrors it).
    pub fn gram(&self) -> Matrix {
        let n = self.cols;
        let mut out = Matrix::zeros(n, n);
        for i in 0..n {
            for j in i..n {
                let mut s = 0.0;
                for r in 0..self.rows {
                    s += self[(r, i)] * self[(r, j)];
                }
                out[(i, j)] = s;
                out[(j, i)] = s;
            }
        }
        out
    }

    /// `self * selfᵀ` exploiting symmetry of the result.
    pub fn outer_gram(&self) -> Matrix {
        let n = self.rows;
        let mut out = Matrix::zeros(n, n);
        for i in 0..n {
            for j in i..n {
                let s: f64 = self
                    .row(i)
                    .iter()
                    .zip(self.row(j))
                    .map(|(&a, &b)| a * b)
                    .sum();
            out[(i, j)] = s;
                out[(j, i)] = s;
            }
        }
        out
    }

    /// Extracts the `rows × cols` block starting at `(r0, c0)`.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::OutOfBounds`] if the block overruns the matrix.
    pub fn block(&self, r0: usize, c0: usize, rows: usize, cols: usize) -> Result<Matrix> {
        if r0 + rows > self.rows || c0 + cols > self.cols {
            return Err(MathError::OutOfBounds);
        }
        let mut out = Matrix::zeros(rows, cols);
        for i in 0..rows {
            out.row_mut(i)
                .copy_from_slice(&self.data[(r0 + i) * self.cols + c0..(r0 + i) * self.cols + c0 + cols]);
        }
        Ok(out)
    }

    /// Writes `src` into the block of `self` starting at `(r0, c0)`.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::OutOfBounds`] if the block overruns the matrix.
    pub fn set_block(&mut self, r0: usize, c0: usize, src: &Matrix) -> Result<()> {
        if r0 + src.rows > self.rows || c0 + src.cols > self.cols {
            return Err(MathError::OutOfBounds);
        }
        for i in 0..src.rows {
            let dst = (r0 + i) * self.cols + c0;
            self.data[dst..dst + src.cols].copy_from_slice(src.row(i));
        }
        Ok(())
    }

    /// Symmetrizes in place: `self ← (self + selfᵀ)/2`. Used to keep
    /// covariance matrices numerically symmetric after updates.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn symmetrize(&mut self) {
        assert!(self.is_square(), "symmetrize requires a square matrix");
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                let m = 0.5 * (self[(i, j)] + self[(j, i)]);
                self[(i, j)] = m;
                self[(j, i)] = m;
            }
        }
    }

    /// Maximum absolute difference from symmetry, `max |A - Aᵀ|`.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn asymmetry(&self) -> f64 {
        assert!(self.is_square(), "asymmetry requires a square matrix");
        let mut worst = 0.0f64;
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                worst = worst.max((self[(i, j)] - self[(j, i)]).abs());
            }
        }
        worst
    }

    /// Frobenius norm.
    pub fn norm_frobenius(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Max-absolute-entry norm.
    pub fn norm_max(&self) -> f64 {
        self.data.iter().fold(0.0f64, |m, &x| m.max(x.abs()))
    }

    /// Sum of diagonal entries.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn trace(&self) -> f64 {
        assert!(self.is_square(), "trace requires a square matrix");
        (0..self.rows).map(|i| self[(i, i)]).sum()
    }

    /// Scales every entry by `s`.
    pub fn scale(&self, s: f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|x| x * s).collect(),
        }
    }

    /// Adds `s` to each diagonal entry (used by Levenberg–Marquardt damping).
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn add_diag(&mut self, s: f64) {
        assert!(self.is_square(), "add_diag requires a square matrix");
        for i in 0..self.rows {
            self[(i, i)] += s;
        }
    }

    /// Stacks `self` on top of `other`.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::DimensionMismatch`] if column counts differ.
    pub fn vstack(&self, other: &Matrix) -> Result<Matrix> {
        if self.cols != other.cols {
            return Err(MathError::DimensionMismatch {
                left: self.shape(),
                right: other.shape(),
            });
        }
        let mut data = Vec::with_capacity(self.data.len() + other.data.len());
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&other.data);
        Ok(Matrix {
            rows: self.rows + other.rows,
            cols: self.cols,
            data,
        })
    }

    /// Places `self` to the left of `other`.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::DimensionMismatch`] if row counts differ.
    pub fn hstack(&self, other: &Matrix) -> Result<Matrix> {
        if self.rows != other.rows {
            return Err(MathError::DimensionMismatch {
                left: self.shape(),
                right: other.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, self.cols + other.cols);
        for i in 0..self.rows {
            out.data[i * out.cols..i * out.cols + self.cols].copy_from_slice(self.row(i));
            out.data[i * out.cols + self.cols..(i + 1) * out.cols].copy_from_slice(other.row(i));
        }
        Ok(out)
    }

    /// Inverse via LU with partial pivoting (general square matrices). The
    /// accelerator exposes this building block only for the specialized
    /// shapes it needs; the CPU path uses the general routine.
    ///
    /// # Errors
    ///
    /// [`MathError::NotSquare`] for rectangular input, [`MathError::Singular`]
    /// when the factorization breaks down.
    pub fn inverse(&self) -> Result<Matrix> {
        crate::lu::Lu::factor(self)?.inverse()
    }

    /// Solves `self * x = b` for square `self` via LU.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Matrix::inverse`], plus
    /// [`MathError::DimensionMismatch`] when `b.len() != rows`.
    pub fn solve(&self, b: &Vector) -> Result<Vector> {
        crate::lu::Lu::factor(self)?.solve(b)
    }

    /// Solves `self * x = b` for symmetric positive definite `self` via
    /// Cholesky — the path the VIO Kalman-gain kernel takes (paper Eq. 1b).
    ///
    /// # Errors
    ///
    /// [`MathError::NotPositiveDefinite`] when the factorization fails.
    pub fn solve_spd(&self, b: &Vector) -> Result<Vector> {
        crate::cholesky::Cholesky::factor(self)?.solve(b)
    }

    /// Solves `self * X = B` column-by-column for SPD `self`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Matrix::solve_spd`].
    pub fn solve_spd_matrix(&self, b: &Matrix) -> Result<Matrix> {
        crate::cholesky::Cholesky::factor(self)?.solve_matrix(b)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows.min(8) {
            write!(f, "  ")?;
            for j in 0..self.cols.min(8) {
                write!(f, "{:10.4} ", self[(i, j)])?;
            }
            writeln!(f, "{}", if self.cols > 8 { "…" } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

impl Add for &Matrix {
    type Output = Matrix;
    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "matrix add shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| a + b)
                .collect(),
        }
    }
}

impl Sub for &Matrix {
    type Output = Matrix;
    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "matrix sub shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| a - b)
                .collect(),
        }
    }
}

impl AddAssign<&Matrix> for Matrix {
    fn add_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "matrix add shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }
}

impl SubAssign<&Matrix> for Matrix {
    fn sub_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "matrix sub shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a -= b;
        }
    }
}

impl Neg for &Matrix {
    type Output = Matrix;
    fn neg(self) -> Matrix {
        self.scale(-1.0)
    }
}

/// Fallible multiplication; use [`Matrix::matmul`] to handle the error
/// explicitly. This operator unwraps internally and therefore panics on a
/// dimension mismatch — convenient for sizes that are correct by
/// construction.
impl Mul for &Matrix {
    type Output = Result<Matrix>;
    fn mul(self, rhs: &Matrix) -> Result<Matrix> {
        self.matmul(rhs)
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;
    fn mul(self, rhs: f64) -> Matrix {
        self.scale(rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_multiplication_is_neutral() {
        let a = Matrix::from_fn(4, 4, |i, j| (i * 4 + j) as f64);
        let i = Matrix::identity(4);
        assert_eq!(a.matmul(&i).unwrap(), a);
        assert_eq!(i.matmul(&a).unwrap(), a);
    }

    #[test]
    fn blocked_matches_naive() {
        let a = Matrix::from_fn(7, 5, |i, j| (i as f64) - 0.3 * j as f64);
        let b = Matrix::from_fn(5, 9, |i, j| 0.1 * (i * j) as f64 - 1.0);
        let naive = a.matmul(&b).unwrap();
        for block in [1, 2, 3, 4, 8, 64] {
            let blocked = a.matmul_blocked(&b, block).unwrap();
            let d = &naive - &blocked;
            assert!(d.norm_max() < 1e-12, "block={block}");
        }
    }

    #[test]
    fn dimension_mismatch_is_reported() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 2);
        assert_eq!(
            a.matmul(&b),
            Err(MathError::DimensionMismatch {
                left: (2, 3),
                right: (2, 2)
            })
        );
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_fn(3, 6, |i, j| (i + 2 * j) as f64);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn gram_is_symmetric_and_correct() {
        let a = Matrix::from_fn(5, 3, |i, j| ((i * 3 + j) as f64).sin());
        let g = a.gram();
        let explicit = a.transpose().matmul(&a).unwrap();
        assert!((&g - &explicit).norm_max() < 1e-12);
        assert_eq!(g.asymmetry(), 0.0);
        let og = a.outer_gram();
        let explicit = a.matmul(&a.transpose()).unwrap();
        assert!((&og - &explicit).norm_max() < 1e-12);
    }

    #[test]
    fn block_roundtrip() {
        let a = Matrix::from_fn(6, 6, |i, j| (i * 6 + j) as f64);
        let b = a.block(2, 3, 3, 2).unwrap();
        assert_eq!(b[(0, 0)], a[(2, 3)]);
        let mut c = Matrix::zeros(6, 6);
        c.set_block(2, 3, &b).unwrap();
        assert_eq!(c[(4, 4)], a[(4, 4)]);
        assert_eq!(c[(0, 0)], 0.0);
        assert!(a.block(5, 5, 3, 3).is_err());
    }

    #[test]
    fn matvec_and_transpose_matvec() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let v = Vector::from_slice(&[1.0, -1.0]);
        assert_eq!(a.matvec(&v).as_slice(), &[-1.0, -1.0, -1.0]);
        let w = Vector::from_slice(&[1.0, 0.0, -1.0]);
        assert_eq!(a.tr_matvec(&w).as_slice(), &[-4.0, -4.0]);
    }

    #[test]
    fn stack_operations() {
        let a = Matrix::identity(2);
        let b = Matrix::zeros(1, 2);
        let v = a.vstack(&b).unwrap();
        assert_eq!(v.shape(), (3, 2));
        let h = a.hstack(&a).unwrap();
        assert_eq!(h.shape(), (2, 4));
        assert_eq!(h[(1, 3)], 1.0);
        assert!(a.vstack(&Matrix::zeros(1, 3)).is_err());
    }

    #[test]
    fn symmetrize_and_asymmetry() {
        let mut a = Matrix::from_rows(&[&[1.0, 2.0], &[4.0, 1.0]]);
        assert_eq!(a.asymmetry(), 2.0);
        a.symmetrize();
        assert_eq!(a[(0, 1)], 3.0);
        assert_eq!(a[(1, 0)], 3.0);
        assert_eq!(a.asymmetry(), 0.0);
    }

    #[test]
    fn trace_and_norms() {
        let a = Matrix::from_diag(&[1.0, 2.0, 3.0]);
        assert_eq!(a.trace(), 6.0);
        assert_eq!(a.norm_max(), 3.0);
        assert!((a.norm_frobenius() - 14.0f64.sqrt()).abs() < 1e-15);
    }

    #[test]
    fn add_diag_applies_damping() {
        let mut a = Matrix::identity(3);
        a.add_diag(0.5);
        assert_eq!(a[(1, 1)], 1.5);
        assert_eq!(a[(0, 1)], 0.0);
    }
}
