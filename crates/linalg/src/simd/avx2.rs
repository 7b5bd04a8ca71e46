//! AVX2 kernels (4 × f64 lanes).
//!
//! Bit-identity with [`super::scalar`] holds because:
//!
//! * Reductions keep one vector accumulator whose lane `k` is exactly the
//!   scalar partial sum `s_k`, and the horizontal combine reproduces the
//!   scalar tree `(s0+s1)+(s2+s3)` (two `hadd`s), followed by the same
//!   scalar tail loop.
//! * Output-parallel loops perform the per-element operations in the same
//!   order and association as the scalar code — vector `mul`/`add` are
//!   lane-wise IEEE-754 double ops with identical rounding.
//! * **No FMA instructions**: a fused multiply-add rounds once where the
//!   scalar code rounds twice, so every product is a separate
//!   `_mm256_mul_pd` followed by `_mm256_add_pd`.
//!
//! Every function here requires AVX2; the dispatcher only selects this
//! module after `is_x86_feature_detected!("avx2")` succeeds.

use std::arch::x86_64::{
    __m256d, _mm256_add_pd, _mm256_castpd256_pd128, _mm256_extractf128_pd, _mm256_hadd_pd,
    _mm256_loadu_pd, _mm256_mul_pd, _mm256_permute2f128_pd, _mm256_set1_pd, _mm256_setzero_pd,
    _mm256_storeu_pd, _mm256_sub_pd, _mm_cvtsd_f64, _mm_hadd_pd,
};

/// Dot product, bit-identical to the canonical scalar order.
// SAFETY: callers must have AVX2 available; the dispatcher only selects
// this backend after `is_x86_feature_detected!("avx2")` succeeds.
#[target_feature(enable = "avx2")]
pub unsafe fn dot(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    let n = x.len().min(y.len());
    let chunks = n / 4;
    // SAFETY: every `loadu` below reads 4 f64s starting at offset `4k`
    // with `4k + 3 < 4*chunks <= n <= min(x.len(), y.len())`; unaligned
    // loads carry no alignment requirement.
    unsafe {
        let mut acc = _mm256_setzero_pd();
        let xp = x.as_ptr();
        let yp = y.as_ptr();
        for k in 0..chunks {
            let i = 4 * k;
            let vx = _mm256_loadu_pd(xp.add(i));
            let vy = _mm256_loadu_pd(yp.add(i));
            // Lane k accumulates exactly the scalar partial sum s_k.
            acc = _mm256_add_pd(acc, _mm256_mul_pd(vx, vy));
        }
        let lo = _mm256_castpd256_pd128(acc); // [s0, s1]
        let hi = _mm256_extractf128_pd::<1>(acc); // [s2, s3]
        let pair = _mm_hadd_pd(lo, hi); // [s0+s1, s2+s3]
        let mut s = _mm_cvtsd_f64(_mm_hadd_pd(pair, pair)); // (s0+s1)+(s2+s3)
        for i in 4 * chunks..n {
            s += x[i] * y[i];
        }
        s
    }
}

/// Two dot products against a shared `y`; each output is bit-identical to
/// [`dot`]. Two independent accumulator chains double the throughput of
/// the latency-bound single-accumulator loop.
// SAFETY: callers must have AVX2 available; the dispatcher only selects
// this backend after `is_x86_feature_detected!("avx2")` succeeds.
#[target_feature(enable = "avx2")]
pub unsafe fn dot2(x0: &[f64], x1: &[f64], y: &[f64]) -> (f64, f64) {
    debug_assert_eq!(x0.len(), y.len());
    debug_assert_eq!(x1.len(), y.len());
    let n = x0.len().min(x1.len()).min(y.len());
    let chunks = n / 4;
    // SAFETY: loads read 4 f64s at offset 4k, in bounds for all three
    // slices by the `min` above; unaligned loads need no alignment.
    unsafe {
        let mut acc0 = _mm256_setzero_pd();
        let mut acc1 = _mm256_setzero_pd();
        let p0 = x0.as_ptr();
        let p1 = x1.as_ptr();
        let yp = y.as_ptr();
        for k in 0..chunks {
            let i = 4 * k;
            let vy = _mm256_loadu_pd(yp.add(i));
            acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(_mm256_loadu_pd(p0.add(i)), vy));
            acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(_mm256_loadu_pd(p1.add(i)), vy));
        }
        let lo0 = _mm256_castpd256_pd128(acc0);
        let hi0 = _mm256_extractf128_pd::<1>(acc0);
        let pair0 = _mm_hadd_pd(lo0, hi0);
        let mut s0 = _mm_cvtsd_f64(_mm_hadd_pd(pair0, pair0));
        let lo1 = _mm256_castpd256_pd128(acc1);
        let hi1 = _mm256_extractf128_pd::<1>(acc1);
        let pair1 = _mm_hadd_pd(lo1, hi1);
        let mut s1 = _mm_cvtsd_f64(_mm_hadd_pd(pair1, pair1));
        for i in 4 * chunks..n {
            s0 += x0[i] * y[i];
            s1 += x1[i] * y[i];
        }
        (s0, s1)
    }
}

/// A 2 × 4 tile of dot products; each output is bit-identical to [`dot`].
/// Output `(r, c)` owns one accumulator whose lane `k` is the scalar
/// partial sum `s_k`, so a tile holds eight chains and loads each of its
/// six rows once per four columns. The horizontal combine builds
/// `s0+s1` and `s2+s3` with `hadd`, then adds them: `(s0+s1)+(s2+s3)`.
// SAFETY: callers must have AVX2 available; the dispatcher only selects
// this backend after `is_x86_feature_detected!("avx2")` succeeds.
#[target_feature(enable = "avx2")]
pub unsafe fn dot_tile(x: [&[f64]; 2], y: [&[f64]; 4]) -> [[f64; 4]; 2] {
    debug_assert!(x.iter().chain(&y).all(|v| v.len() == y[0].len()));
    let n = x
        .iter()
        .chain(&y)
        .map(|v| v.len())
        .fold(usize::MAX, usize::min);
    let chunks = n / 4;
    let mut out = [[0.0; 4]; 2];
    let [y0, y1, y2, y3] = y;
    // SAFETY: every `loadu` reads 4 f64s at offset `4k` with
    // `4k + 3 < 4*chunks <= n`, and `n` is the shortest of the six
    // slices; each `storeu` writes the 4 f64s of one `out` row.
    unsafe {
        let mut acc: [[__m256d; 4]; 2] = [[_mm256_setzero_pd(); 4]; 2];
        for k in 0..chunks {
            let i = 4 * k;
            let vy = [
                _mm256_loadu_pd(y0.as_ptr().add(i)),
                _mm256_loadu_pd(y1.as_ptr().add(i)),
                _mm256_loadu_pd(y2.as_ptr().add(i)),
                _mm256_loadu_pd(y3.as_ptr().add(i)),
            ];
            for (acc_r, xr) in acc.iter_mut().zip(x) {
                let vx = _mm256_loadu_pd(xr.as_ptr().add(i));
                for (a, v) in acc_r.iter_mut().zip(vy) {
                    *a = _mm256_add_pd(*a, _mm256_mul_pd(vx, v));
                }
            }
        }
        for (out_r, [a0, a1, a2, a3]) in out.iter_mut().zip(acc) {
            let t0 = _mm256_hadd_pd(a0, a1); // [a0+a1, b0+b1, a2+a3, b2+b3]
            let t1 = _mm256_hadd_pd(a2, a3); // [c0+c1, d0+d1, c2+c3, d2+d3]
            let lo = _mm256_permute2f128_pd::<0x20>(t0, t1); // the s0+s1 of each
            let hi = _mm256_permute2f128_pd::<0x31>(t0, t1); // the s2+s3 of each
            _mm256_storeu_pd(out_r.as_mut_ptr(), _mm256_add_pd(lo, hi));
        }
    }
    for (out_r, xr) in out.iter_mut().zip(x) {
        for (o, yc) in out_r.iter_mut().zip(y) {
            for i in 4 * chunks..n {
                *o += xr[i] * yc[i];
            }
        }
    }
    out
}

/// `c[j] −= a0·b0[j] + a1·b1[j]`, same association as the scalar kernel.
// SAFETY: callers must have AVX2 available; the dispatcher only selects
// this backend after `is_x86_feature_detected!("avx2")` succeeds.
#[target_feature(enable = "avx2")]
pub unsafe fn fms_row2(c: &mut [f64], a0: f64, b0: &[f64], a1: f64, b1: &[f64]) {
    debug_assert_eq!(c.len(), b0.len());
    debug_assert_eq!(c.len(), b1.len());
    let n = c.len().min(b0.len()).min(b1.len());
    let chunks = n / 4;
    // SAFETY: loads/stores touch 4 f64s at offset 4k < n, in bounds for
    // all three slices; `c` cannot alias `b0`/`b1`; unaligned ops.
    unsafe {
        let va0 = _mm256_set1_pd(a0);
        let va1 = _mm256_set1_pd(a1);
        let cp = c.as_mut_ptr();
        let p0 = b0.as_ptr();
        let p1 = b1.as_ptr();
        for k in 0..chunks {
            let i = 4 * k;
            let t0 = _mm256_mul_pd(va0, _mm256_loadu_pd(p0.add(i)));
            let t1 = _mm256_mul_pd(va1, _mm256_loadu_pd(p1.add(i)));
            let vc = _mm256_loadu_pd(cp.add(i));
            _mm256_storeu_pd(cp.add(i), _mm256_sub_pd(vc, _mm256_add_pd(t0, t1)));
        }
    }
    for i in 4 * chunks..n {
        c[i] -= a0 * b0[i] + a1 * b1[i];
    }
}

/// Plane rotation of two rows (see `scalar::rotate_rows`), four
/// columns per step with separate multiply and add/subtract.
// SAFETY: callers must have AVX2 available; the dispatcher only selects
// this backend after `is_x86_feature_detected!("avx2")` succeeds.
#[target_feature(enable = "avx2")]
pub unsafe fn rotate_rows(x: &mut [f64], y: &mut [f64], c: f64, s: f64) {
    debug_assert_eq!(x.len(), y.len());
    let n = x.len().min(y.len());
    let chunks = n / 4;
    // SAFETY: loads/stores touch 4 f64s at offset 4k < n for both slices;
    // `x` and `y` are distinct `&mut` borrows, so they cannot alias.
    unsafe {
        let vc = _mm256_set1_pd(c);
        let vs = _mm256_set1_pd(s);
        let xp = x.as_mut_ptr();
        let yp = y.as_mut_ptr();
        for k in 0..chunks {
            let i = 4 * k;
            let vx = _mm256_loadu_pd(xp.add(i));
            let vy = _mm256_loadu_pd(yp.add(i));
            let ny = _mm256_add_pd(_mm256_mul_pd(vs, vx), _mm256_mul_pd(vc, vy));
            let nx = _mm256_sub_pd(_mm256_mul_pd(vc, vx), _mm256_mul_pd(vs, vy));
            _mm256_storeu_pd(yp.add(i), ny);
            _mm256_storeu_pd(xp.add(i), nx);
        }
    }
    for i in 4 * chunks..n {
        let (xo, yo) = (x[i], y[i]);
        y[i] = s * xo + c * yo;
        x[i] = c * xo - s * yo;
    }
}

/// `c[j] += a · b[j]` across independent outputs.
// SAFETY: callers must have AVX2 available; the dispatcher only selects
// this backend after `is_x86_feature_detected!("avx2")` succeeds.
#[target_feature(enable = "avx2")]
pub unsafe fn fma_row(c: &mut [f64], a: f64, b: &[f64]) {
    debug_assert_eq!(c.len(), b.len());
    let n = c.len().min(b.len());
    let chunks = n / 4;
    // SAFETY: loads/stores touch 4 f64s at offset 4k < n for both slices;
    // `c` and `b` cannot alias (`&mut` vs `&`); unaligned ops.
    unsafe {
        let va = _mm256_set1_pd(a);
        let cp = c.as_mut_ptr();
        let bp = b.as_ptr();
        for k in 0..chunks {
            let i = 4 * k;
            let vb = _mm256_loadu_pd(bp.add(i));
            let vc = _mm256_loadu_pd(cp.add(i));
            // c[j] + (a·b[j]): same association as the scalar kernel.
            _mm256_storeu_pd(cp.add(i), _mm256_add_pd(vc, _mm256_mul_pd(va, vb)));
        }
    }
    for i in 4 * chunks..n {
        c[i] += a * b[i];
    }
}

/// `c[j] += a0·b0[j] + a1·b1[j]` — the 2-way-unrolled gemm inner loop.
// SAFETY: callers must have AVX2 available; the dispatcher only selects
// this backend after `is_x86_feature_detected!("avx2")` succeeds.
#[target_feature(enable = "avx2")]
pub unsafe fn fma_row2(c: &mut [f64], a0: f64, b0: &[f64], a1: f64, b1: &[f64]) {
    debug_assert_eq!(c.len(), b0.len());
    debug_assert_eq!(c.len(), b1.len());
    let n = c.len().min(b0.len()).min(b1.len());
    let chunks = n / 4;
    // SAFETY: loads/stores touch 4 f64s at offset 4k < n, in bounds for
    // all three slices; `c` cannot alias `b0`/`b1`; unaligned ops.
    unsafe {
        let va0 = _mm256_set1_pd(a0);
        let va1 = _mm256_set1_pd(a1);
        let cp = c.as_mut_ptr();
        let p0 = b0.as_ptr();
        let p1 = b1.as_ptr();
        for k in 0..chunks {
            let i = 4 * k;
            let t0 = _mm256_mul_pd(va0, _mm256_loadu_pd(p0.add(i)));
            let t1 = _mm256_mul_pd(va1, _mm256_loadu_pd(p1.add(i)));
            let vc = _mm256_loadu_pd(cp.add(i));
            // c[j] + ((a0·b0[j]) + (a1·b1[j])): scalar association.
            _mm256_storeu_pd(cp.add(i), _mm256_add_pd(vc, _mm256_add_pd(t0, t1)));
        }
    }
    for i in 4 * chunks..n {
        c[i] += a0 * b0[i] + a1 * b1[i];
    }
}

/// `y[j] *= x[j]`.
// SAFETY: callers must have AVX2 available; the dispatcher only selects
// this backend after `is_x86_feature_detected!("avx2")` succeeds.
#[target_feature(enable = "avx2")]
pub unsafe fn mul_row(y: &mut [f64], x: &[f64]) {
    debug_assert_eq!(y.len(), x.len());
    let n = y.len().min(x.len());
    let chunks = n / 4;
    // SAFETY: loads/stores touch 4 f64s at offset 4k < n for both slices;
    // no aliasing (`&mut` vs `&`); unaligned ops.
    unsafe {
        let yp = y.as_mut_ptr();
        let xp = x.as_ptr();
        for k in 0..chunks {
            let i = 4 * k;
            let vy = _mm256_loadu_pd(yp.add(i));
            let vx = _mm256_loadu_pd(xp.add(i));
            _mm256_storeu_pd(yp.add(i), _mm256_mul_pd(vy, vx));
        }
    }
    for i in 4 * chunks..n {
        y[i] *= x[i];
    }
}

/// `z[j] = x[j] · y[j]`.
// SAFETY: callers must have AVX2 available; the dispatcher only selects
// this backend after `is_x86_feature_detected!("avx2")` succeeds.
#[target_feature(enable = "avx2")]
pub unsafe fn mul_into(x: &[f64], y: &[f64], z: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    debug_assert_eq!(x.len(), z.len());
    let n = x.len().min(y.len()).min(z.len());
    let chunks = n / 4;
    // SAFETY: loads/stores touch 4 f64s at offset 4k < n for all three
    // slices; `z` cannot alias `x`/`y`; unaligned ops.
    unsafe {
        let xp = x.as_ptr();
        let yp = y.as_ptr();
        let zp = z.as_mut_ptr();
        for k in 0..chunks {
            let i = 4 * k;
            let vx = _mm256_loadu_pd(xp.add(i));
            let vy = _mm256_loadu_pd(yp.add(i));
            _mm256_storeu_pd(zp.add(i), _mm256_mul_pd(vx, vy));
        }
    }
    for i in 4 * chunks..n {
        z[i] = x[i] * y[i];
    }
}

/// `x[j] *= alpha`.
// SAFETY: callers must have AVX2 available; the dispatcher only selects
// this backend after `is_x86_feature_detected!("avx2")` succeeds.
#[target_feature(enable = "avx2")]
pub unsafe fn scale_row(x: &mut [f64], alpha: f64) {
    let n = x.len();
    let chunks = n / 4;
    // SAFETY: loads/stores touch 4 f64s at offset 4k < n; unaligned ops.
    unsafe {
        let va = _mm256_set1_pd(alpha);
        let xp = x.as_mut_ptr();
        for k in 0..chunks {
            let i = 4 * k;
            let vx = _mm256_loadu_pd(xp.add(i));
            _mm256_storeu_pd(xp.add(i), _mm256_mul_pd(vx, va));
        }
    }
    for i in 4 * chunks..n {
        x[i] *= alpha;
    }
}
