//! A minimal row-major matrix shared by all crates in the workspace.
//!
//! This is deliberately not a linear-algebra library: the engines need a
//! container with checked shapes, cheap row access, and a couple of `f64`
//! reference kernels to serve as oracles in tests.

use core::fmt;
use core::ops::{Index, IndexMut};

/// A dense row-major `rows × cols` matrix (the default is `0 × 0`).
#[derive(Clone, Default, PartialEq)]
pub struct Mat<T> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T> Mat<T> {
    /// Build from a closure over `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Wrap an existing row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<T>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match {rows}×{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row(&self, r: usize) -> &[T] {
        assert!(r < self.rows, "row {r} out of bounds ({} rows)", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable row access.
    pub fn row_mut(&mut self, r: usize) -> &mut [T] {
        assert!(r < self.rows, "row {r} out of bounds ({} rows)", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The whole backing buffer, row-major.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Consume into the backing buffer.
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }

    /// Element-wise map into a new matrix.
    pub fn map<U>(&self, f: impl Fn(&T) -> U) -> Mat<U> {
        Mat {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(f).collect(),
        }
    }
}

impl<T: Clone> Mat<T> {
    /// A matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: T) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Transposed copy.
    pub fn transposed(&self) -> Self {
        Self::from_fn(self.cols, self.rows, |r, c| self[(c, r)].clone())
    }
}

impl Mat<f64> {
    /// All-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self::filled(rows, cols, 0.0)
    }

    /// Reference GEMM: `self (r×k) × rhs (k×c)` in f64.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, rhs: &Mat<f64>) -> Mat<f64> {
        assert_eq!(
            self.cols, rhs.rows,
            "inner dims mismatch: {}×{} by {}×{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Mat::zeros(self.rows, rhs.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(r, k)];
                if a == 0.0 {
                    continue;
                }
                for c in 0..rhs.cols {
                    out[(r, c)] += a * rhs[(k, c)];
                }
            }
        }
        out
    }

    /// Max absolute difference against another matrix of the same shape.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn max_abs_diff(&self, other: &Mat<f64>) -> f64 {
        assert_eq!(self.shape(), other.shape(), "shape mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// Frobenius norm.
    pub fn frob_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }
}

impl<T> Index<(usize, usize)> for Mat<T> {
    type Output = T;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &T {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &self.data[r * self.cols + c]
    }
}

impl<T> IndexMut<(usize, usize)> for Mat<T> {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut T {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &mut self.data[r * self.cols + c]
    }
}

impl<T: fmt::Debug> fmt::Debug for Mat<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Mat {}×{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            writeln!(f, "  {:?}", self.row(r))?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_fn_and_index() {
        let m = Mat::from_fn(2, 3, |r, c| (r * 10 + c) as i32);
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m[(1, 2)], 12);
        assert_eq!(m.row(0), &[0, 1, 2]);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = Mat::from_fn(3, 4, |r, c| r as i64 * 4 + c as i64);
        assert_eq!(m.transposed().transposed(), m);
        assert_eq!(m.transposed()[(2, 1)], m[(1, 2)]);
    }

    #[test]
    fn matmul_identity() {
        let a = Mat::from_fn(3, 3, |r, c| if r == c { 1.0 } else { 0.0 });
        let b = Mat::from_fn(3, 2, |r, c| (r + c) as f64);
        assert_eq!(a.matmul(&b), b);
    }

    #[test]
    fn matmul_known() {
        let a = Mat::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Mat::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    #[should_panic(expected = "inner dims mismatch")]
    fn matmul_shape_check() {
        let a = Mat::zeros(2, 3);
        let b = Mat::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn diff_and_norm() {
        let a = Mat::from_vec(1, 2, vec![3.0, 4.0]);
        let b = Mat::from_vec(1, 2, vec![3.0, 4.5]);
        assert_eq!(a.frob_norm(), 5.0);
        assert_eq!(a.max_abs_diff(&b), 0.5);
    }
}
