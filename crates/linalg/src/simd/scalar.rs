//! Portable scalar kernels — the canonical operation order.
//!
//! Every vector backend in this module tree must reproduce these loops
//! bit-for-bit (see the module docs for the contract). The scalar `dot`
//! here is deliberately identical to [`crate::vecops::dot`]: four
//! interleaved accumulators combined as `(s0+s1)+(s2+s3)` plus a plain
//! running-sum tail.

/// Dot product in the canonical 4-accumulator order.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    let n = x.len().min(y.len());
    let chunks = n / 4;
    let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
    for k in 0..chunks {
        let i = 4 * k;
        s0 += x[i] * y[i];
        s1 += x[i + 1] * y[i + 1];
        s2 += x[i + 2] * y[i + 2];
        s3 += x[i + 3] * y[i + 3];
    }
    let mut s = (s0 + s1) + (s2 + s3);
    for i in 4 * chunks..n {
        s += x[i] * y[i];
    }
    s
}

/// Two dots against a shared right-hand side; each output accumulates in
/// exactly the order of [`dot`], so `dot2(x0, x1, y) == (dot(x0, y),
/// dot(x1, y))` bit-for-bit. The interleaving exists only so wide backends
/// can keep two independent accumulator chains in flight.
#[inline]
pub fn dot2(x0: &[f64], x1: &[f64], y: &[f64]) -> (f64, f64) {
    (dot(x0, y), dot(x1, y))
}

/// A 2 × 4 tile of dot products, `out[r][c] = x[r]ᵀ·y[c]`; each output
/// accumulates in exactly the order of [`dot`], so every entry equals
/// `dot(x[r], y[c])` bit for bit. Wide backends keep the eight
/// accumulator chains in registers and load each row once per tile.
#[inline]
pub fn dot_tile(x: [&[f64]; 2], y: [&[f64]; 4]) -> [[f64; 4]; 2] {
    let mut out = [[0.0; 4]; 2];
    for (row, xr) in out.iter_mut().zip(x) {
        for (o, yc) in row.iter_mut().zip(y) {
            *o = dot(xr, yc);
        }
    }
    out
}

/// `c[j] += a · b[j]`.
#[inline]
pub fn fma_row(c: &mut [f64], a: f64, b: &[f64]) {
    debug_assert_eq!(c.len(), b.len());
    for (cj, bj) in c.iter_mut().zip(b) {
        *cj += a * bj;
    }
}

/// `c[j] += a0·b0[j] + a1·b1[j]` — note the fixed association: the two
/// products are added to each other first, then into `c`.
#[inline]
pub fn fma_row2(c: &mut [f64], a0: f64, b0: &[f64], a1: f64, b1: &[f64]) {
    debug_assert_eq!(c.len(), b0.len());
    debug_assert_eq!(c.len(), b1.len());
    for ((cj, b0j), b1j) in c.iter_mut().zip(b0).zip(b1) {
        *cj += a0 * b0j + a1 * b1j;
    }
}

/// `c[j] −= a0·b0[j] + a1·b1[j]` — the products are added to each other
/// first, then subtracted from `c` (`tred2`'s rank-2 update, whose sign
/// of a zero result `fma_row2` with negated scalars would not keep).
#[inline]
pub fn fms_row2(c: &mut [f64], a0: f64, b0: &[f64], a1: f64, b1: &[f64]) {
    debug_assert_eq!(c.len(), b0.len());
    debug_assert_eq!(c.len(), b1.len());
    for ((cj, b0j), b1j) in c.iter_mut().zip(b0).zip(b1) {
        *cj -= a0 * b0j + a1 * b1j;
    }
}

/// Plane rotation of two rows: `y[k] ← s·x[k] + c·y[k]` and
/// `x[k] ← c·x[k] − s·y[k]`, both from the old `x[k]`, `y[k]` — the
/// eigenvector update of one QL Givens rotation.
#[inline]
pub fn rotate_rows(x: &mut [f64], y: &mut [f64], c: f64, s: f64) {
    debug_assert_eq!(x.len(), y.len());
    for (xk, yk) in x.iter_mut().zip(y.iter_mut()) {
        let (xo, yo) = (*xk, *yk);
        *yk = s * xo + c * yo;
        *xk = c * xo - s * yo;
    }
}

/// `y[j] *= x[j]`.
#[inline]
pub fn mul_row(y: &mut [f64], x: &[f64]) {
    debug_assert_eq!(y.len(), x.len());
    for (yj, xj) in y.iter_mut().zip(x) {
        *yj *= xj;
    }
}

/// `z[j] = x[j] · y[j]`.
#[inline]
pub fn mul_into(x: &[f64], y: &[f64], z: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    debug_assert_eq!(x.len(), z.len());
    for ((zj, xj), yj) in z.iter_mut().zip(x).zip(y) {
        *zj = xj * yj;
    }
}

/// `x[j] *= alpha`.
#[inline]
pub fn scale_row(x: &mut [f64], alpha: f64) {
    for v in x {
        *v *= alpha;
    }
}
