//! NEON kernels (2 × f64 lanes) for aarch64.
//!
//! Same determinism contract as the AVX2 module: the scalar dot's four
//! partial sums map onto two 2-lane accumulators `[s0, s1]` / `[s2, s3]`
//! and the horizontal combine reproduces `(s0+s1)+(s2+s3)` exactly; all
//! output-parallel loops keep the scalar per-element operation order, and
//! no fused multiply-add instructions are used (`vfmaq_f64` rounds once,
//! the scalar code rounds twice).
//!
//! NEON is architecturally mandatory on aarch64, so dispatch to this
//! module is always valid there.

use std::arch::aarch64::{vaddq_f64, vdupq_n_f64, vgetq_lane_f64, vld1q_f64, vmulq_f64, vst1q_f64};

/// Dot product, bit-identical to the canonical scalar order.
// SAFETY: callers need NEON, which is architecturally mandatory on
// aarch64 — the only target this module compiles for.
#[target_feature(enable = "neon")]
pub unsafe fn dot(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    let n = x.len().min(y.len());
    let chunks = n / 4;
    // SAFETY: every load reads 2 f64s at offsets 4k / 4k+2 with
    // 4k + 3 < n ≤ min(x.len(), y.len()).
    unsafe {
        let mut acc01 = vdupq_n_f64(0.0); // [s0, s1]
        let mut acc23 = vdupq_n_f64(0.0); // [s2, s3]
        let xp = x.as_ptr();
        let yp = y.as_ptr();
        for k in 0..chunks {
            let i = 4 * k;
            acc01 = vaddq_f64(acc01, vmulq_f64(vld1q_f64(xp.add(i)), vld1q_f64(yp.add(i))));
            acc23 = vaddq_f64(
                acc23,
                vmulq_f64(vld1q_f64(xp.add(i + 2)), vld1q_f64(yp.add(i + 2))),
            );
        }
        let s01 = vgetq_lane_f64::<0>(acc01) + vgetq_lane_f64::<1>(acc01);
        let s23 = vgetq_lane_f64::<0>(acc23) + vgetq_lane_f64::<1>(acc23);
        let mut s = s01 + s23; // (s0+s1)+(s2+s3)
        for i in 4 * chunks..n {
            s += x[i] * y[i];
        }
        s
    }
}

/// Two dot products against a shared `y`; each bit-identical to [`dot`].
// SAFETY: callers need NEON, which is architecturally mandatory on
// aarch64 — the only target this module compiles for.
#[target_feature(enable = "neon")]
pub unsafe fn dot2(x0: &[f64], x1: &[f64], y: &[f64]) -> (f64, f64) {
    // SAFETY: delegates to `dot`, whose bounds contract covers each call.
    unsafe { (dot(x0, y), dot(x1, y)) }
}

/// A 2 × 4 tile of dot products. Runs the scalar body, which keeps the
/// bits; no NEON tile has been built or measured yet.
// SAFETY: callers need NEON, which is architecturally mandatory on
// aarch64 — the only target this module compiles for.
#[target_feature(enable = "neon")]
pub unsafe fn dot_tile(x: [&[f64]; 2], y: [&[f64]; 4]) -> [[f64; 4]; 2] {
    super::scalar::dot_tile(x, y)
}

/// `c[j] −= a0·b0[j] + a1·b1[j]`. Runs the scalar body, which keeps the
/// bits; no NEON version has been built or measured yet.
// SAFETY: callers need NEON, which is architecturally mandatory on
// aarch64 — the only target this module compiles for.
#[target_feature(enable = "neon")]
pub unsafe fn fms_row2(c: &mut [f64], a0: f64, b0: &[f64], a1: f64, b1: &[f64]) {
    super::scalar::fms_row2(c, a0, b0, a1, b1)
}

/// Plane rotation of two rows. Runs the scalar body, which keeps the
/// bits; no NEON rotation has been built or measured yet.
// SAFETY: callers need NEON, which is architecturally mandatory on
// aarch64 — the only target this module compiles for.
#[target_feature(enable = "neon")]
pub unsafe fn rotate_rows(x: &mut [f64], y: &mut [f64], c: f64, s: f64) {
    super::scalar::rotate_rows(x, y, c, s)
}

/// `c[j] += a · b[j]`.
// SAFETY: callers need NEON, which is architecturally mandatory on
// aarch64 — the only target this module compiles for.
#[target_feature(enable = "neon")]
pub unsafe fn fma_row(c: &mut [f64], a: f64, b: &[f64]) {
    debug_assert_eq!(c.len(), b.len());
    let n = c.len().min(b.len());
    let pairs = n / 2;
    // SAFETY: loads/stores touch 2 f64s at offset 2k < n for both slices;
    // `c` and `b` cannot alias (`&mut` vs `&`).
    unsafe {
        let va = vdupq_n_f64(a);
        let cp = c.as_mut_ptr();
        let bp = b.as_ptr();
        for k in 0..pairs {
            let i = 2 * k;
            let t = vmulq_f64(va, vld1q_f64(bp.add(i)));
            vst1q_f64(cp.add(i), vaddq_f64(vld1q_f64(cp.add(i)), t));
        }
    }
    for i in 2 * pairs..n {
        c[i] += a * b[i];
    }
}

/// `c[j] += a0·b0[j] + a1·b1[j]`.
// SAFETY: callers need NEON, which is architecturally mandatory on
// aarch64 — the only target this module compiles for.
#[target_feature(enable = "neon")]
pub unsafe fn fma_row2(c: &mut [f64], a0: f64, b0: &[f64], a1: f64, b1: &[f64]) {
    debug_assert_eq!(c.len(), b0.len());
    debug_assert_eq!(c.len(), b1.len());
    let n = c.len().min(b0.len()).min(b1.len());
    let pairs = n / 2;
    // SAFETY: loads/stores touch 2 f64s at offset 2k < n for all three
    // slices; `c` cannot alias `b0`/`b1`.
    unsafe {
        let va0 = vdupq_n_f64(a0);
        let va1 = vdupq_n_f64(a1);
        let cp = c.as_mut_ptr();
        let p0 = b0.as_ptr();
        let p1 = b1.as_ptr();
        for k in 0..pairs {
            let i = 2 * k;
            let t0 = vmulq_f64(va0, vld1q_f64(p0.add(i)));
            let t1 = vmulq_f64(va1, vld1q_f64(p1.add(i)));
            vst1q_f64(
                cp.add(i),
                vaddq_f64(vld1q_f64(cp.add(i)), vaddq_f64(t0, t1)),
            );
        }
    }
    for i in 2 * pairs..n {
        c[i] += a0 * b0[i] + a1 * b1[i];
    }
}

/// `y[j] *= x[j]`.
// SAFETY: callers need NEON, which is architecturally mandatory on
// aarch64 — the only target this module compiles for.
#[target_feature(enable = "neon")]
pub unsafe fn mul_row(y: &mut [f64], x: &[f64]) {
    debug_assert_eq!(y.len(), x.len());
    let n = y.len().min(x.len());
    let pairs = n / 2;
    // SAFETY: loads/stores touch 2 f64s at offset 2k < n for both slices;
    // no aliasing.
    unsafe {
        let yp = y.as_mut_ptr();
        let xp = x.as_ptr();
        for k in 0..pairs {
            let i = 2 * k;
            vst1q_f64(
                yp.add(i),
                vmulq_f64(vld1q_f64(yp.add(i)), vld1q_f64(xp.add(i))),
            );
        }
    }
    for i in 2 * pairs..n {
        y[i] *= x[i];
    }
}

/// `z[j] = x[j] · y[j]`.
// SAFETY: callers need NEON, which is architecturally mandatory on
// aarch64 — the only target this module compiles for.
#[target_feature(enable = "neon")]
pub unsafe fn mul_into(x: &[f64], y: &[f64], z: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    debug_assert_eq!(x.len(), z.len());
    let n = x.len().min(y.len()).min(z.len());
    let pairs = n / 2;
    // SAFETY: loads/stores touch 2 f64s at offset 2k < n for all three
    // slices; `z` cannot alias `x`/`y`.
    unsafe {
        let xp = x.as_ptr();
        let yp = y.as_ptr();
        let zp = z.as_mut_ptr();
        for k in 0..pairs {
            let i = 2 * k;
            vst1q_f64(
                zp.add(i),
                vmulq_f64(vld1q_f64(xp.add(i)), vld1q_f64(yp.add(i))),
            );
        }
    }
    for i in 2 * pairs..n {
        z[i] = x[i] * y[i];
    }
}

/// `x[j] *= alpha`.
// SAFETY: callers need NEON, which is architecturally mandatory on
// aarch64 — the only target this module compiles for.
#[target_feature(enable = "neon")]
pub unsafe fn scale_row(x: &mut [f64], alpha: f64) {
    let n = x.len();
    let pairs = n / 2;
    // SAFETY: loads/stores touch 2 f64s at offset 2k < n.
    unsafe {
        let va = vdupq_n_f64(alpha);
        let xp = x.as_mut_ptr();
        for k in 0..pairs {
            let i = 2 * k;
            vst1q_f64(xp.add(i), vmulq_f64(vld1q_f64(xp.add(i)), va));
        }
    }
    for i in 2 * pairs..n {
        x[i] *= alpha;
    }
}
