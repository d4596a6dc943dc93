//! A minimal dense matrix type for the NN substrate.
//!
//! The network layers operate on batches laid out as row-major matrices
//! (`rows = batch`, `cols = features`). Only the operations the layers need
//! are provided; this is deliberately not a general linear-algebra library.

use core::fmt;

/// A row-major `f32` matrix.
///
/// # Examples
///
/// ```
/// use dante_nn::tensor::Matrix;
///
/// let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
/// assert_eq!(a.dims(), (2, 3));
/// assert_eq!(a.get(1, 0), 4.0);
/// assert_eq!(a.row(1), &[4.0, 5.0, 6.0]);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a zero matrix.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from a row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    #[must_use]
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "data length does not match dimensions"
        );
        Self { rows, cols, data }
    }

    /// `(rows, cols)`.
    #[must_use]
    pub fn dims(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    #[must_use]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of range"
        );
        self.data[r * self.cols + c]
    }

    /// Sets the element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of range"
        );
        self.data[r * self.cols + c] = v;
    }

    /// Row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    #[must_use]
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row {r} out of range");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The underlying row-major data.
    #[must_use]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the underlying data.
    #[must_use]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix, returning its data.
    #[must_use]
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Frobenius norm of the matrix.
    #[must_use]
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix[{}x{}]", self.rows, self.cols)
    }
}

/// The transpose of a row-major `rows x cols` buffer, as a row-major
/// `cols x rows` buffer.
///
/// # Panics
///
/// Panics if `data.len() != rows * cols`.
#[must_use]
pub fn transpose(data: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    assert_eq!(data.len(), rows * cols, "transpose length mismatch");
    let mut out = vec![0.0f32; data.len()];
    for (r, row) in data.chunks_exact(cols.max(1)).enumerate() {
        for (c, &v) in row.iter().enumerate() {
            out[c * rows + r] = v;
        }
    }
    out
}

/// Numerically stable softmax over the last axis of a batch.
///
/// `logits` is `batch` rows of `classes` values, flattened row-major; the
/// result has the same layout with every row summing to 1.
///
/// # Panics
///
/// Panics if the lengths are inconsistent or `classes == 0`.
#[must_use]
pub fn softmax_batch(logits: &[f32], batch: usize, classes: usize) -> Vec<f32> {
    assert!(classes > 0, "softmax needs at least one class");
    assert_eq!(logits.len(), batch * classes, "logit length mismatch");
    let mut out = vec![0.0f32; logits.len()];
    for b in 0..batch {
        let row = &logits[b * classes..(b + 1) * classes];
        let max = row.iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x));
        let mut sum = 0.0f32;
        for (o, &x) in out[b * classes..(b + 1) * classes].iter_mut().zip(row) {
            let e = (x - max).exp();
            *o = e;
            sum += e;
        }
        for o in &mut out[b * classes..(b + 1) * classes] {
            *o /= sum;
        }
    }
    out
}

/// Index of the maximum element (first on ties).
///
/// # Panics
///
/// Panics if `xs` is empty.
#[must_use]
pub fn argmax(xs: &[f32]) -> usize {
    assert!(!xs.is_empty(), "argmax of an empty slice");
    let mut best = 0;
    for (i, &x) in xs.iter().enumerate() {
        if x > xs[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transpose_round_trips() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let t = transpose(&a, 2, 3);
        assert_eq!(t, [1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
        assert_eq!(transpose(&t, 3, 2), a);
        assert!(transpose(&[], 0, 4).is_empty());
    }

    #[test]
    fn softmax_rows_sum_to_one_and_order_is_preserved() {
        let logits = vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0];
        let s = softmax_batch(&logits, 2, 3);
        for b in 0..2 {
            let row = &s[b * 3..(b + 1) * 3];
            let sum: f32 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
            assert!(row[2] > row[1] && row[1] > row[0]);
        }
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let s = softmax_batch(&[1000.0, 1001.0], 1, 2);
        assert!(s.iter().all(|x| x.is_finite()));
        assert!((s[0] + s[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn argmax_picks_first_maximum() {
        assert_eq!(argmax(&[0.1, 0.9, 0.9, 0.2]), 1);
        assert_eq!(argmax(&[-5.0]), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_bounds_checked() {
        let _ = Matrix::zeros(1, 1).get(0, 1);
    }
}
