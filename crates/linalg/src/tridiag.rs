//! Householder reduction of a symmetric matrix to tridiagonal form.
//!
//! This is the first phase of LAPACK's `dsyevr` (and of EISPACK `tred2`),
//! which the paper uses via LAPACK: "the eigenvalue problem solver routine
//! dsyevr first reduces the symmetric matrix A to tridiagonal form via
//! Householder transformations" (§III-A step 2).
//!
//! [`tred2`] is the scalar EISPACK routine CodeML's `eigenQREV` follows;
//! [`tred2_tuned`] computes the same bits with its O(n³) loops as SIMD
//! row updates.

use crate::{simd, Mat};

/// Result of Householder tridiagonalization: `A = Q · T · Qᵀ` where `T` is
/// symmetric tridiagonal with diagonal `d` and subdiagonal `e`.
#[derive(Debug, Clone)]
pub struct Tridiag {
    /// Diagonal of `T` (length n).
    pub d: Vec<f64>,
    /// Subdiagonal of `T` in positions `1..n`; `e[0]` is 0.
    pub e: Vec<f64>,
    /// Accumulated orthogonal transformation `Q` (columns ordered to match
    /// `d`/`e`).
    pub q: Mat,
}

/// Reduce symmetric `a` to tridiagonal form, accumulating the orthogonal
/// transformation (EISPACK `tred2` lineage).
///
/// Only the lower triangle of `a` is referenced; symmetry is assumed, not
/// checked (callers produce `A = Π^{1/2} S Π^{1/2}` which is symmetric by
/// construction).
///
/// # Panics
/// Panics if `a` is not square.
pub fn tred2(a: &Mat) -> Tridiag {
    assert!(a.is_square(), "tred2: square matrix required");
    let n = a.rows();
    let mut z = a.clone();
    let mut d = vec![0.0f64; n];
    let mut e = vec![0.0f64; n];
    if n == 0 {
        return Tridiag { d, e, q: z };
    }
    if n == 1 {
        d[0] = z[(0, 0)];
        z[(0, 0)] = 1.0;
        return Tridiag { d, e, q: z };
    }

    // Phase 1: reduce, storing Householder vectors in z.
    for i in (1..n).rev() {
        let l = i - 1;
        let mut h = 0.0f64;
        if l > 0 {
            let mut scale = 0.0f64;
            for k in 0..=l {
                scale += z[(i, k)].abs();
            }
            if scale == 0.0 {
                e[i] = z[(i, l)];
            } else {
                for k in 0..=l {
                    z[(i, k)] /= scale;
                    h += z[(i, k)] * z[(i, k)];
                }
                let f = z[(i, l)];
                let g = if f >= 0.0 { -h.sqrt() } else { h.sqrt() };
                e[i] = scale * g;
                h -= f * g;
                z[(i, l)] = f - g;
                let mut fsum = 0.0f64;
                for j in 0..=l {
                    z[(j, i)] = z[(i, j)] / h;
                    let mut g = 0.0f64;
                    for k in 0..=j {
                        g += z[(j, k)] * z[(i, k)];
                    }
                    for k in (j + 1)..=l {
                        g += z[(k, j)] * z[(i, k)];
                    }
                    e[j] = g / h;
                    fsum += e[j] * z[(i, j)];
                }
                let hh = fsum / (h + h);
                for j in 0..=l {
                    let f = z[(i, j)];
                    let gj = e[j] - hh * f;
                    e[j] = gj;
                    for k in 0..=j {
                        let ek = e[k];
                        let zik = z[(i, k)];
                        z[(j, k)] -= f * ek + gj * zik;
                    }
                }
            }
        } else {
            e[i] = z[(i, l)];
        }
        d[i] = h;
    }
    d[0] = 0.0;
    e[0] = 0.0;

    // Phase 2: accumulate the transformation matrix.
    for i in 0..n {
        if d[i] != 0.0 {
            // i >= 1 guaranteed here because d[0] == 0.
            for j in 0..i {
                let mut g = 0.0f64;
                for k in 0..i {
                    g += z[(i, k)] * z[(k, j)];
                }
                for k in 0..i {
                    let zki = z[(k, i)];
                    z[(k, j)] -= g * zki;
                }
            }
        }
        d[i] = z[(i, i)];
        z[(i, i)] = 1.0;
        for j in 0..i {
            z[(j, i)] = 0.0;
            z[(i, j)] = 0.0;
        }
    }

    Tridiag { d, e, q: z }
}

/// [`tred2`] restructured so that its O(n³) loops run as row updates
/// through the dispatched SIMD kernels; it returns `tred2`'s exact bits.
///
/// * **Working copy.** A full symmetric copy of `a`, mirrored from the
///   lower triangle, so that like `tred2` only the lower triangle of `a`
///   is read.
/// * **Mat-vec.** `p = A·u` over the active block is one `fma_row` per
///   `k`, so each output is still summed in `tred2`'s `k` order.
/// * **Rank-2 update.** `A ← A − (u·gᵀ + g·uᵀ)` updates both triangles
///   with one `fms_row2` per row, `c − (u_r·g_c + g_r·u_c)` as in `tred2`.
///   A mirrored element gets the same two products summed in the other
///   order, so both triangles carry `tred2`'s bits. (`fma_row2` with
///   negated scalars would give the same values, but turns a `−0.0`
///   element into `+0.0` when the two products cancel exactly.)
/// * **Accumulation.** Each `g_j = Σ_k u_k·Q_kj` reads only column `j`,
///   which no other `j` writes, so every `g_j` is computed first as row
///   axpys and then each row of `Q` is updated with one `fma_row`.
///
/// Householder vectors and `u/h` are written where `tred2` writes them.
///
/// # Panics
/// Panics if `a` is not square.
pub fn tred2_tuned(a: &Mat) -> Tridiag {
    assert!(a.is_square(), "tred2_tuned: square matrix required");
    let n = a.rows();
    let mut z = Mat::from_fn(n, n, |i, j| if j <= i { a[(i, j)] } else { a[(j, i)] });
    let mut d = vec![0.0f64; n];
    let mut e = vec![0.0f64; n];
    if n == 0 {
        return Tridiag { d, e, q: z };
    }
    if n == 1 {
        d[0] = z[(0, 0)];
        z[(0, 0)] = 1.0;
        return Tridiag { d, e, q: z };
    }
    let be = simd::active();
    // `u` copies the Householder row out of `z` so rows 0..=l can be
    // updated against it; `p` holds the mat-vec, then the g_j.
    let mut u = vec![0.0f64; n];
    let mut p = vec![0.0f64; n];

    // Phase 1: reduce, storing Householder vectors in z.
    for i in (1..n).rev() {
        let l = i - 1;
        let mut h = 0.0f64;
        if l > 0 {
            let mut scale = 0.0f64;
            for k in 0..=l {
                // check: allow(det-float-accum) tred2's serial sum in k order, reproduced for its bits
                scale += z[(i, k)].abs();
            }
            // check: allow(det-float-cmp) tred2's exact zero-row test: a row of zeros is already reduced
            if scale == 0.0 {
                e[i] = z[(i, l)];
            } else {
                for k in 0..=l {
                    z[(i, k)] /= scale;
                    // check: allow(det-float-accum) tred2's serial sum in k order, reproduced for its bits
                    h += z[(i, k)] * z[(i, k)];
                }
                let f = z[(i, l)];
                let g = if f >= 0.0 { -h.sqrt() } else { h.sqrt() };
                e[i] = scale * g;
                h -= f * g;
                z[(i, l)] = f - g;
                let u = &mut u[..=l];
                u.copy_from_slice(&z.row(i)[..=l]);
                let p = &mut p[..=l];
                p.fill(0.0);
                for (k, &uk) in u.iter().enumerate() {
                    simd::fma_row_with(be, p, uk, &z.row(k)[..=l]);
                }
                let mut fsum = 0.0f64;
                for j in 0..=l {
                    z[(j, i)] = u[j] / h;
                    e[j] = p[j] / h;
                    // check: allow(det-float-accum) tred2's serial sum in j order, reproduced for its bits
                    fsum += e[j] * u[j];
                }
                let hh = fsum / (h + h);
                for (ej, &uj) in e[..=l].iter_mut().zip(u.iter()) {
                    *ej -= hh * uj;
                }
                let g = &e[..=l];
                for r in 0..=l {
                    simd::fms_row2_with(be, &mut z.row_mut(r)[..=l], u[r], g, g[r], u);
                }
            }
        } else {
            e[i] = z[(i, l)];
        }
        d[i] = h;
    }
    d[0] = 0.0;
    e[0] = 0.0;

    // Phase 2: accumulate the transformation matrix.
    for i in 0..n {
        // check: allow(det-float-cmp) h is exactly 0 only where phase 1 stored no reflector
        if d[i] != 0.0 {
            let g = &mut p[..i];
            g.fill(0.0);
            for k in 0..i {
                simd::fma_row_with(be, g, z[(i, k)], &z.row(k)[..i]);
            }
            for k in 0..i {
                let zki = z[(k, i)];
                simd::fma_row_with(be, &mut z.row_mut(k)[..i], -zki, g);
            }
        }
        d[i] = z[(i, i)];
        z[(i, i)] = 1.0;
        for j in 0..i {
            z[(j, i)] = 0.0;
            z[(i, j)] = 0.0;
        }
    }

    Tridiag { d, e, q: z }
}

/// Rebuild the dense tridiagonal matrix `T` from `d`/`e` (test helper).
pub fn tridiag_to_dense(d: &[f64], e: &[f64]) -> Mat {
    let n = d.len();
    let mut t = Mat::zeros(n, n);
    for i in 0..n {
        t[(i, i)] = d[i];
        if i > 0 {
            t[(i, i - 1)] = e[i];
            t[(i - 1, i)] = e[i];
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{matmul, Transpose};

    fn random_symmetric(n: usize, seed: u64) -> Mat {
        let mut state = seed;
        let mut m = Mat::from_fn(n, n, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        });
        m.symmetrize();
        m
    }

    fn check_reduction(a: &Mat) {
        let n = a.rows();
        let tri = tred2(a);
        // Q orthogonal: QᵀQ = I
        let qtq = matmul(&tri.q, Transpose::Yes, &tri.q, Transpose::No);
        assert!(qtq.approx_eq(&Mat::identity(n), 1e-10), "Q not orthogonal");
        // Q T Qᵀ = A
        let t = tridiag_to_dense(&tri.d, &tri.e);
        let qt = matmul(&tri.q, Transpose::No, &t, Transpose::No);
        let rec = matmul(&qt, Transpose::No, &tri.q, Transpose::Yes);
        assert!(
            rec.approx_eq(a, 1e-9),
            "Q T Qᵀ != A (max diff {})",
            rec.max_abs_diff(a)
        );
    }

    fn tri_bits(t: &Tridiag) -> (Vec<u64>, Vec<u64>, Vec<u64>) {
        let v = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let q = (0..t.q.rows()).flat_map(|i| v(t.q.row(i))).collect();
        (v(&t.d), v(&t.e), q)
    }

    /// `tred2_tuned` reproduces `tred2`'s d, e and Q bits under forced
    /// scalar and auto dispatch. The random inputs are deliberately
    /// asymmetric: both read only the lower triangle. The small-integer
    /// inputs hold `±0.0` and cancel exactly, where only a true
    /// subtraction in the rank-2 update keeps the sign of a zero.
    #[test]
    fn tuned_reduction_matches_tred2_bits_and_ignores_upper_triangle() {
        for seed in 0..400u64 {
            let n = 3 + (seed % 9) as usize;
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let a = Mat::from_fn(n, n, |_, _| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                match (state >> 11) % 5 {
                    0 => -0.0,
                    1 => 0.0,
                    r => r as f64 - 3.0,
                }
            });
            let reference = tri_bits(&tred2(&a));
            for mode in [crate::SimdMode::ForceScalar, crate::SimdMode::Auto] {
                let tuned = crate::simd::with_forced(mode, || tred2_tuned(&a));
                assert_eq!(tri_bits(&tuned), reference, "seed {seed} {mode:?}");
            }
        }
        for n in [1, 2, 3, 4, 5, 8, 60, 61, 64, 65] {
            let mut a = random_symmetric(n, 40 + n as u64);
            let mut state = n as u64;
            for i in 0..n {
                for j in (i + 1)..n {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    a[(i, j)] = (state >> 40) as f64 - 1e6;
                }
            }
            let mut lower = a.clone();
            for i in 0..n {
                for j in (i + 1)..n {
                    lower[(i, j)] = a[(j, i)];
                }
            }
            let reference = tri_bits(&tred2(&a));
            assert_eq!(
                tri_bits(&tred2(&lower)),
                reference,
                "n={n}: tred2 read the upper triangle"
            );
            for mode in [crate::SimdMode::ForceScalar, crate::SimdMode::Auto] {
                let tuned = crate::simd::with_forced(mode, || tred2_tuned(&a));
                assert_eq!(tri_bits(&tuned), reference, "n={n} {mode:?}");
            }
        }
    }

    #[test]
    fn reduces_small_matrices() {
        for n in [1, 2, 3, 4, 5, 8] {
            check_reduction(&random_symmetric(n, n as u64 + 7));
        }
    }

    #[test]
    fn reduces_codon_sized_matrix() {
        check_reduction(&random_symmetric(61, 1234));
    }

    #[test]
    fn already_tridiagonal_is_fixed_point_shape() {
        // A tridiagonal input must reduce with T equal to itself (up to sign
        // conventions on e, which tred2 may flip).
        let a = tridiag_to_dense(&[1.0, 2.0, 3.0], &[0.0, 0.5, -0.25]);
        let tri = tred2(&a);
        let t = tridiag_to_dense(&tri.d, &tri.e);
        let qt = matmul(&tri.q, Transpose::No, &t, Transpose::No);
        let rec = matmul(&qt, Transpose::No, &tri.q, Transpose::Yes);
        assert!(rec.approx_eq(&a, 1e-12));
    }

    #[test]
    fn diagonal_input() {
        let a = Mat::from_diag(&[3.0, -1.0, 4.0, 1.5]);
        let tri = tred2(&a);
        let t = tridiag_to_dense(&tri.d, &tri.e);
        let qt = matmul(&tri.q, Transpose::No, &t, Transpose::No);
        let rec = matmul(&qt, Transpose::No, &tri.q, Transpose::Yes);
        assert!(rec.approx_eq(&a, 1e-12));
    }
}
