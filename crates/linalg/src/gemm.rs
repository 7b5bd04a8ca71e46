//! BLAS level-3 general matrix–matrix product.
//!
//! The paper's "rules of thumb" (§V-C) recommend bundling work into level-3
//! operations; this module provides the tuned `dgemm` stand-in used by the
//! Slim engine (and, through [`crate::naive`], a deliberately untuned
//! comparator used by the CodeML-style engine).

use crate::Mat;

/// Whether an operand participates transposed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transpose {
    /// Use the operand as stored.
    No,
    /// Use the transpose of the operand.
    Yes,
}

/// Columns of `op(A)` packed per pass over a strip of `C`: the packed
/// `α·op(A)` is a stack buffer of `KC × 4`. Even, so a pair of `p` never
/// straddles two passes; every product the engine runs has k ≤ 61 and
/// takes one pass.
const KC: usize = 64;

/// General matrix multiply `C ← α·op(A)·op(B) + β·C`.
///
/// `op(X)` is `X` or `Xᵀ` per the corresponding [`Transpose`] flag. `C`
/// is computed in strips of four rows (`simd::gemm_strip_with`):
/// each strip packs its `α·op(A)` by `k`, reading `Aᵀ` in place, and the
/// AVX2 backend runs it in 4 × 8 register tiles, the others as rows of
/// the dispatched row kernels. `op(B) = Bᵀ` is copied first, because a
/// strip streams rows of `B`. Either way each output starts from `β·c`
/// and adds `α·a_ip·b_pj + α·a_i,p+1·b_p+1,j` per pair of `p` in order
/// (the two products summed first, no fused multiply-add), then
/// `α·a_ip·b_pj` for an odd `k`; lanes and tiles span independent
/// outputs only, so the bits are the same on every backend.
///
/// # Panics
/// Panics on dimension mismatch.
// check: allow(panic-free-hot-path) shape contract asserted at entry; all loop indices bounded by rows()/cols() of the asserted shapes
pub fn gemm(alpha: f64, a: &Mat, ta: Transpose, b: &Mat, tb: Transpose, beta: f64, c: &mut Mat) {
    let bt;
    let b = match tb {
        Transpose::No => b,
        Transpose::Yes => {
            bt = b.transpose();
            &bt
        }
    };
    // op(A)'s element (i, p) is `a_s[i·rs + p·cs]`.
    let (m, k, rs, cs) = match ta {
        Transpose::No => (a.rows(), a.cols(), a.stride(), 1),
        Transpose::Yes => (a.cols(), a.rows(), 1, a.stride()),
    };
    let n = b.cols();
    assert_eq!(b.rows(), k, "gemm: inner dimensions differ");
    assert_eq!(c.rows(), m, "gemm: C rows mismatch");
    assert_eq!(c.cols(), n, "gemm: C cols mismatch");

    // check: allow(det-float-cmp) BLAS's exact β = 1 case: C is left as it is, not scaled by 1
    if beta != 1.0 {
        // check: allow(det-float-cmp) BLAS's exact β = 0 case: C is zero-filled, so NaN or ∞ in it does not leak
        if beta == 0.0 {
            c.fill_zero();
        } else {
            c.scale(beta);
        }
    }
    // check: allow(det-float-cmp) BLAS's exact α = 0 case: op(A)·op(B) is not read, so C is β·C exactly
    if alpha == 0.0 || m == 0 || n == 0 || k == 0 {
        return;
    }

    let (ldb, ldc) = (b.stride(), c.stride());
    // When B and C share a row stride the strips run over the full
    // (possibly lane-padded) width: no scalar tail, and pad columns stay
    // zero because their B inputs are zero. Logical outputs see the
    // identical per-element operation sequence either way.
    let jw = if ldb == ldc { ldc } else { n };
    let a_s = a.as_slice();
    let b_s = b.as_slice();
    let c_s = c.as_mut_slice();
    let be = crate::simd::active();
    let mut packed = [[0.0; 4]; KC];
    for i0 in (0..m).step_by(4) {
        let rows = (m - i0).min(4);
        let strip = &mut c_s[i0 * ldc..(i0 + rows - 1) * ldc + jw];
        for k0 in (0..k).step_by(KC) {
            let kc = (k - k0).min(KC);
            for (p, ap) in packed[..kc].iter_mut().enumerate() {
                for (r, v) in ap[..rows].iter_mut().enumerate() {
                    *v = alpha * a_s[(i0 + r) * rs + (k0 + p) * cs];
                }
            }
            let b_pass = &b_s[k0 * ldb..];
            crate::simd::gemm_strip_with(be, &packed[..kc], rows, b_pass, ldb, strip, ldc, jw);
        }
    }
}

/// Convenience: allocate and return `op(A)·op(B)`.
pub fn matmul(a: &Mat, ta: Transpose, b: &Mat, tb: Transpose) -> Mat {
    let m = match ta {
        Transpose::No => a.rows(),
        Transpose::Yes => a.cols(),
    };
    let n = match tb {
        Transpose::No => b.cols(),
        Transpose::Yes => b.rows(),
    };
    let mut c = Mat::zeros(m, n);
    gemm(1.0, a, ta, b, tb, 0.0, &mut c);
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive;

    fn rng_mat(rows: usize, cols: usize, seed: u64) -> Mat {
        // Small deterministic LCG; avoids a rand dependency here.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        Mat::from_fn(rows, cols, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        })
    }

    #[test]
    fn gemm_matches_naive_square() {
        for n in [1, 2, 7, 61, 65] {
            let a = rng_mat(n, n, 1);
            let b = rng_mat(n, n, 2);
            let tuned = matmul(&a, Transpose::No, &b, Transpose::No);
            let reference = naive::matmul(&a, &b);
            assert!(tuned.approx_eq(&reference, 1e-10), "n = {n}");
        }
    }

    #[test]
    fn gemm_rectangular() {
        let a = rng_mat(5, 9, 3);
        let b = rng_mat(9, 4, 4);
        let tuned = matmul(&a, Transpose::No, &b, Transpose::No);
        let reference = naive::matmul(&a, &b);
        assert!(tuned.approx_eq(&reference, 1e-12));
    }

    #[test]
    fn gemm_transpose_flags() {
        let a = rng_mat(6, 3, 5);
        let b = rng_mat(6, 4, 6);
        // AᵀB
        let t1 = matmul(&a, Transpose::Yes, &b, Transpose::No);
        let r1 = naive::matmul(&a.transpose(), &b);
        assert!(t1.approx_eq(&r1, 1e-12));
        // BᵀA
        let t2 = matmul(&b, Transpose::Yes, &a, Transpose::No);
        let r2 = naive::matmul(&b.transpose(), &a);
        assert!(t2.approx_eq(&r2, 1e-12));
        // A·(Aᵀ) via flags
        let t3 = matmul(&a, Transpose::No, &a, Transpose::Yes);
        let r3 = naive::matmul(&a, &a.transpose());
        assert!(t3.approx_eq(&r3, 1e-12));
    }

    #[test]
    fn gemm_alpha_beta() {
        let a = rng_mat(4, 4, 7);
        let b = rng_mat(4, 4, 8);
        let c0 = rng_mat(4, 4, 9);

        let mut c = c0.clone();
        gemm(2.0, &a, Transpose::No, &b, Transpose::No, 0.5, &mut c);

        let mut expect = naive::matmul(&a, &b);
        expect.scale(2.0);
        for i in 0..4 {
            for j in 0..4 {
                expect[(i, j)] += 0.5 * c0[(i, j)];
            }
        }
        assert!(c.approx_eq(&expect, 1e-12));
    }

    #[test]
    fn gemm_alpha_zero_only_scales_c() {
        let a = rng_mat(3, 3, 10);
        let b = rng_mat(3, 3, 11);
        let mut c = Mat::filled(3, 3, 2.0);
        gemm(0.0, &a, Transpose::No, &b, Transpose::No, 3.0, &mut c);
        assert!(c.approx_eq(&Mat::filled(3, 3, 6.0), 1e-15));
    }

    #[test]
    fn identity_is_neutral() {
        let a = rng_mat(8, 8, 12);
        let i = Mat::identity(8);
        assert!(matmul(&a, Transpose::No, &i, Transpose::No).approx_eq(&a, 1e-15));
        assert!(matmul(&i, Transpose::No, &a, Transpose::No).approx_eq(&a, 1e-15));
    }

    #[test]
    fn block_boundaries_exercised() {
        // k straddling KC runs two packed passes over each strip.
        let n = KC + 3;
        let a = rng_mat(n, n, 13);
        let b = rng_mat(n, n, 14);
        let tuned = matmul(&a, Transpose::No, &b, Transpose::No);
        let reference = naive::matmul(&a, &b);
        assert!(tuned.approx_eq(&reference, 1e-9));
    }
}
