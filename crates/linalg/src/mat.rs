use std::fmt;
use std::ops::{Index, IndexMut};

/// Dense, row-major, heap-allocated `f64` matrix.
///
/// The storage layout matches C convention (row-major), which the paper's
/// "rules of thumb" (§V-C) call out as something an implementation must
/// respect for performance: all kernels in this crate walk memory in
/// row-major order.
///
/// ## Lane-aligned storage
///
/// Rows are `stride` elements apart, where `stride >= cols`. Plain
/// constructors produce `stride == cols` (dense, the historical layout);
/// [`Mat::zeros_padded`] rounds the stride up to the SIMD lane width
/// ([`crate::simd::LANE`]), so a 61-wide codon row occupies 64 slots and
/// the output-parallel kernel loops run without a scalar tail. Padding is
/// invisible to the logical API: indexing, [`Mat::row`], equality, and
/// every shape query speak `rows × cols`. Pad elements are kept at zero
/// by construction and never contribute to logical results (reductions
/// always run over the logical width).
pub struct Mat {
    rows: usize,
    cols: usize,
    /// Distance in elements between consecutive rows (`>= cols`).
    stride: usize,
    data: Vec<f64>,
}

impl Clone for Mat {
    fn clone(&self) -> Self {
        Mat {
            rows: self.rows,
            cols: self.cols,
            stride: self.stride,
            data: self.data.clone(),
        }
    }
}

/// Logical equality: shapes and the `rows × cols` elements, ignoring any
/// difference in row stride / padding.
impl PartialEq for Mat {
    fn eq(&self, other: &Mat) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && (0..self.rows).all(|i| self.row(i) == other.row(i))
    }
}

impl Mat {
    /// Create a `rows × cols` matrix of zeros (dense, `stride == cols`).
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Mat {
            rows,
            cols,
            stride: cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Create a `rows × cols` zero matrix whose row stride is rounded up
    /// to the SIMD lane width (61 → 64), so the column dimension of the
    /// level-3 kernels is tail-free. Logically identical to
    /// [`Mat::zeros`]; only the memory layout differs.
    pub fn zeros_padded(rows: usize, cols: usize) -> Self {
        let stride = if cols == 0 {
            0
        } else {
            cols.div_ceil(crate::simd::LANE) * crate::simd::LANE
        };
        Mat {
            rows,
            cols,
            stride,
            data: vec![0.0; rows * stride],
        }
    }

    /// Create a `rows × cols` matrix with every element equal to `v`.
    pub fn filled(rows: usize, cols: usize, v: f64) -> Self {
        Mat {
            rows,
            cols,
            stride: cols,
            data: vec![v; rows * cols],
        }
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Mat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "Mat::from_vec: data length mismatch"
        );
        Mat {
            rows,
            cols,
            stride: cols,
            data,
        }
    }

    /// Build from explicit rows.
    ///
    /// # Panics
    /// Panics if rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "Mat::from_rows: ragged rows");
            data.extend_from_slice(row);
        }
        Mat {
            rows: r,
            cols: c,
            stride: c,
            data,
        }
    }

    /// Build a diagonal matrix from a slice of diagonal entries.
    pub fn from_diag(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut m = Mat::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Build an `n × n` matrix from a function of the index pair.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Mat::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
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

    /// Distance in elements between consecutive rows (`>= cols`; equal for
    /// dense matrices, a multiple of the lane width for padded ones).
    #[inline]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// True if rows carry lane padding (`stride > cols`).
    #[inline]
    pub fn is_padded(&self) -> bool {
        self.stride > self.cols
    }

    /// True if the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow the underlying row-major storage **including any lane
    /// padding** (pad elements are zero). Whole-storage elementwise
    /// operations (zeroing, clamping, finiteness checks, Frobenius-style
    /// accumulations) remain correct because the pads are zero; positional
    /// interpretation must use [`Mat::stride`], or [`Mat::row`] instead.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrow the underlying row-major storage (see
    /// [`Mat::as_slice`] for the padding caveat).
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrow row `i` as a slice (logical width — excludes padding).
    #[inline]
    // check: allow(panic-free-hot-path) slice window arithmetic bounded by stride*rows, checked in debug builds
    pub fn row(&self, i: usize) -> &[f64] {
        debug_assert!(i < self.rows);
        &self.data[i * self.stride..i * self.stride + self.cols]
    }

    /// Mutably borrow row `i` as a slice (logical width).
    #[inline]
    // check: allow(panic-free-hot-path) slice window arithmetic bounded by stride*rows, checked in debug builds
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        debug_assert!(i < self.rows);
        let s = self.stride;
        &mut self.data[i * s..i * s + self.cols]
    }

    /// Mutably borrow two distinct rows at once (logical width).
    ///
    /// # Panics
    /// Panics if `i == j` or either index is out of bounds.
    pub fn two_rows_mut(&mut self, i: usize, j: usize) -> (&mut [f64], &mut [f64]) {
        assert!(i != j && i < self.rows && j < self.rows);
        let (s, c) = (self.stride, self.cols);
        if i < j {
            let (a, b) = self.data.split_at_mut(j * s);
            (&mut a[i * s..i * s + c], &mut b[..c])
        } else {
            let (a, b) = self.data.split_at_mut(i * s);
            let (rj, ri) = (&mut a[j * s..j * s + c], &mut b[..c]);
            (ri, rj)
        }
    }

    /// Copy column `j` into a new vector.
    pub fn col(&self, j: usize) -> Vec<f64> {
        debug_assert!(j < self.cols);
        (0..self.rows)
            .map(|i| self.data[i * self.stride + j])
            .collect()
    }

    /// Extract the diagonal (of a square or rectangular matrix).
    pub fn diag(&self) -> Vec<f64> {
        let n = self.rows.min(self.cols);
        (0..n).map(|i| self.data[i * self.stride + i]).collect()
    }

    /// Return the transpose as a new (dense) matrix.
    // check: allow(panic-free-hot-path) i,j iterate exactly 0..rows x 0..cols of both matrices
    pub fn transpose(&self) -> Mat {
        let mut t = Mat::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t.data[j * self.rows + i] = self.data[i * self.stride + j];
            }
        }
        t
    }

    /// Elementwise in-place scaling. (Applied to the whole storage; pads
    /// stay at ±0, which never reaches a logical result.)
    pub fn scale(&mut self, alpha: f64) {
        for v in &mut self.data {
            *v *= alpha;
        }
    }

    /// Fill with zeros, keeping the allocation (and layout).
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Matrix × vector convenience (allocating). Prefer [`crate::gemv::gemv`] in
    /// hot paths.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(self.cols, x.len(), "Mat::mul_vec: dimension mismatch");
        let mut y = vec![0.0; self.rows];
        for i in 0..self.rows {
            let row = self.row(i);
            let mut s = 0.0;
            for (a, b) in row.iter().zip(x) {
                s += a * b;
            }
            y[i] = s;
        }
        y
    }

    /// Multiply this matrix by a diagonal matrix from the **right**:
    /// `self · diag(d)` — scales column `j` by `d[j]`. O(n²).
    ///
    /// This is step 3 of the paper's expm pipeline (`Y := X e^{Λt/2}`).
    // check: allow(panic-free-hot-path) length assert is the documented contract for diagonal scaling
    pub fn mul_diag_right(&self, d: &[f64]) -> Mat {
        assert_eq!(self.cols, d.len(), "mul_diag_right: dimension mismatch");
        let mut out = self.clone();
        for i in 0..out.rows {
            let row = out.row_mut(i);
            for (v, &s) in row.iter_mut().zip(d) {
                *v *= s;
            }
        }
        out
    }

    /// Multiply this matrix by a diagonal matrix from the **left**:
    /// `diag(d) · self` — scales row `i` by `d[i]`. O(n²).
    pub fn mul_diag_left(&self, d: &[f64]) -> Mat {
        assert_eq!(self.rows, d.len(), "mul_diag_left: dimension mismatch");
        let mut out = self.clone();
        for (i, &s) in d.iter().enumerate() {
            for v in out.row_mut(i) {
                *v *= s;
            }
        }
        out
    }

    /// `true` if `|self - other|` is elementwise within `tol` (logical
    /// elements only).
    pub fn approx_eq(&self, other: &Mat, tol: f64) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && (0..self.rows).all(|i| {
                self.row(i)
                    .iter()
                    .zip(other.row(i))
                    .all(|(a, b)| (a - b).abs() <= tol)
            })
    }

    /// Maximum absolute elementwise difference to `other` (logical
    /// elements only).
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn max_abs_diff(&self, other: &Mat) -> f64 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        let mut worst = 0.0f64;
        for i in 0..self.rows {
            for (a, b) in self.row(i).iter().zip(other.row(i)) {
                worst = worst.max((a - b).abs());
            }
        }
        worst
    }

    /// Symmetrize in place: `self = (self + selfᵀ) / 2`. Useful to clean up
    /// rounding noise on theoretically symmetric matrices.
    pub fn symmetrize(&mut self) {
        assert!(self.is_square(), "symmetrize: square matrix required");
        let n = self.rows;
        let s = self.stride;
        for i in 0..n {
            for j in (i + 1)..n {
                let avg = 0.5 * (self.data[i * s + j] + self.data[j * s + i]);
                self.data[i * s + j] = avg;
                self.data[j * s + i] = avg;
            }
        }
    }

    /// Maximum absolute asymmetry `max |a_ij - a_ji|`.
    pub fn asymmetry(&self) -> f64 {
        assert!(self.is_square());
        let n = self.rows;
        let s = self.stride;
        let mut worst = 0.0f64;
        for i in 0..n {
            for j in (i + 1)..n {
                worst = worst.max((self.data[i * s + j] - self.data[j * s + i]).abs());
            }
        }
        worst
    }
}

impl Index<(usize, usize)> for Mat {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.stride + j]
    }
}

impl IndexMut<(usize, usize)> for Mat {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.stride + j]
    }
}

impl fmt::Debug for Mat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Mat {}x{} [", self.rows, self.cols)?;
        let show_rows = self.rows.min(8);
        for i in 0..show_rows {
            write!(f, "  [")?;
            let show_cols = self.cols.min(8);
            for j in 0..show_cols {
                write!(f, "{:>12.6}", self[(i, j)])?;
                if j + 1 < show_cols {
                    write!(f, ", ")?;
                }
            }
            if self.cols > 8 {
                write!(f, ", …")?;
            }
            writeln!(f, "]")?;
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
    fn zeros_and_identity() {
        let z = Mat::zeros(3, 4);
        assert_eq!(z.rows(), 3);
        assert_eq!(z.cols(), 4);
        assert!(z.as_slice().iter().all(|&v| v == 0.0));

        let i = Mat::identity(3);
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(i[(r, c)], if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_rows_and_indexing() {
        let m = Mat::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(m[(0, 2)], 3.0);
        assert_eq!(m[(1, 0)], 4.0);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.col(1), vec![2.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn from_rows_ragged_panics() {
        let _ = Mat::from_rows(&[&[1.0, 2.0], &[3.0]]);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = Mat::from_fn(3, 5, |i, j| (i * 10 + j) as f64);
        let t = m.transpose();
        assert_eq!(t.rows(), 5);
        assert_eq!(t.cols(), 3);
        assert_eq!(t.transpose(), m);
        assert_eq!(t[(4, 2)], m[(2, 4)]);
    }

    #[test]
    fn diag_ops() {
        let m = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let d = [10.0, 100.0];
        let r = m.mul_diag_right(&d);
        assert_eq!(r, Mat::from_rows(&[&[10.0, 200.0], &[30.0, 400.0]]));
        let l = m.mul_diag_left(&d);
        assert_eq!(l, Mat::from_rows(&[&[10.0, 20.0], &[300.0, 400.0]]));
        assert_eq!(Mat::from_diag(&d).diag(), vec![10.0, 100.0]);
    }

    #[test]
    fn mul_vec_matches_manual() {
        let m = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m.mul_vec(&[1.0, 1.0]), vec![3.0, 7.0]);
    }

    #[test]
    fn symmetrize_and_asymmetry() {
        let mut m = Mat::from_rows(&[&[1.0, 2.0], &[4.0, 1.0]]);
        assert_eq!(m.asymmetry(), 2.0);
        m.symmetrize();
        assert_eq!(m[(0, 1)], 3.0);
        assert_eq!(m[(1, 0)], 3.0);
        assert_eq!(m.asymmetry(), 0.0);
    }

    #[test]
    fn two_rows_mut_disjoint() {
        let mut m = Mat::from_fn(4, 3, |i, j| (i * 3 + j) as f64);
        let (a, b) = m.two_rows_mut(3, 1);
        assert_eq!(a, &[9.0, 10.0, 11.0]);
        assert_eq!(b, &[3.0, 4.0, 5.0]);
        a[0] = -1.0;
        b[2] = -2.0;
        assert_eq!(m[(3, 0)], -1.0);
        assert_eq!(m[(1, 2)], -2.0);
    }

    #[test]
    fn approx_and_diff() {
        let a = Mat::filled(2, 2, 1.0);
        let mut b = a.clone();
        b[(1, 1)] = 1.0 + 1e-12;
        assert!(a.approx_eq(&b, 1e-10));
        assert!(!a.approx_eq(&b, 1e-14));
        assert!((a.max_abs_diff(&b) - 1e-12).abs() < 1e-15);
    }

    #[test]
    fn padded_layout_is_logically_invisible() {
        let mut p = Mat::zeros_padded(5, 61);
        assert_eq!(p.stride(), 64);
        assert!(p.is_padded());
        assert_eq!(p.row(0).len(), 61);
        for i in 0..5 {
            for j in 0..61 {
                p[(i, j)] = (i * 61 + j) as f64;
            }
        }
        let d = Mat::from_fn(5, 61, |i, j| (i * 61 + j) as f64);
        assert_eq!(p, d);
        assert_eq!(d, p);
        assert!(p.approx_eq(&d, 0.0));
        assert_eq!(p.max_abs_diff(&d), 0.0);
        assert_eq!(p.col(60), d.col(60));
        assert_eq!(p.transpose(), d.transpose());
        // pads stay zero
        assert!(p.as_slice().chunks(64).all(|r| r[61..] == [0.0; 3]));
    }

    #[test]
    fn padded_row_ops_and_two_rows() {
        let mut p = Mat::zeros_padded(4, 6);
        assert_eq!(p.stride(), 8);
        for i in 0..4 {
            for (j, v) in p.row_mut(i).iter_mut().enumerate() {
                *v = (10 * i + j) as f64;
            }
        }
        let (a, b) = p.two_rows_mut(3, 1);
        assert_eq!(a, &[30.0, 31.0, 32.0, 33.0, 34.0, 35.0]);
        assert_eq!(b, &[10.0, 11.0, 12.0, 13.0, 14.0, 15.0]);

        let mut q = Mat::zeros_padded(6, 6);
        for i in 0..6 {
            for j in 0..6 {
                q[(i, j)] = (i * 7 + j * 3) as f64;
            }
        }
        q.symmetrize();
        assert_eq!(q.asymmetry(), 0.0);
        let d = q.diag();
        assert_eq!(d.len(), 6);
        assert_eq!(d[2], (2 * 7 + 2 * 3) as f64);
    }

    #[test]
    fn lane_exact_width_gets_no_padding() {
        let p = Mat::zeros_padded(3, 64);
        assert_eq!(p.stride(), 64);
        assert!(!p.is_padded());
        let e = Mat::zeros_padded(0, 0);
        assert_eq!(e.stride(), 0);
    }
}
