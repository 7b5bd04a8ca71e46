//! Implicit-shift QL iteration for symmetric tridiagonal eigenproblems.
//!
//! Second phase of the eigensolver pipeline (EISPACK `tql2` lineage; the
//! paper's LAPACK `dsyevr` falls back to "a QR/QL method" when MRRR is not
//! applicable, §III-A step 2). Eigenvectors are accumulated by applying the
//! rotations to the Householder transformation from [`crate::tridiag`].
//! [`tql2`] is the scalar EISPACK routine; [`tql2_tuned`] computes the
//! same bits (and sorts) with each rotation applied to two contiguous
//! rows of the transposed eigenvectors.

use crate::{simd, LinalgError, Mat, Result};

/// `sqrt(a² + b²)` without destructive underflow or overflow.
#[inline]
pub fn hypot2(a: f64, b: f64) -> f64 {
    let (aa, ab) = (a.abs(), b.abs());
    if aa > ab {
        let r = ab / aa;
        aa * (1.0 + r * r).sqrt()
    } else if ab > 0.0 {
        let r = aa / ab;
        ab * (1.0 + r * r).sqrt()
    } else {
        0.0
    }
}

/// Maximum QL iterations per eigenvalue before declaring failure.
const MAX_ITER: usize = 50;

/// Diagonalize a symmetric tridiagonal matrix in place.
///
/// On input: `d` is the diagonal, `e` the subdiagonal in `e[1..n]`
/// (as produced by [`crate::tridiag::tred2`]) and `z` an orthogonal matrix
/// (typically the Householder `Q`; pass identity to get tridiagonal
/// eigenvectors). On output `d` holds eigenvalues and column `j` of `z` the
/// corresponding eigenvector of the original dense matrix.
///
/// # Errors
/// [`LinalgError::NoConvergence`] if any eigenvalue needs more than 50
/// iterations (essentially impossible for well-scaled input).
pub fn tql2(d: &mut [f64], e: &mut [f64], z: &mut Mat) -> Result<()> {
    let n = d.len();
    assert_eq!(e.len(), n, "tql2: e length mismatch");
    assert!(z.rows() == n && z.cols() == n, "tql2: z must be n×n");
    if n <= 1 {
        return Ok(());
    }

    // Shift the subdiagonal convention: e[i] becomes the coupling between
    // rows i and i+1.
    for i in 1..n {
        e[i - 1] = e[i];
    }
    e[n - 1] = 0.0;

    for l in 0..n {
        let mut iter = 0usize;
        loop {
            // Find a negligible subdiagonal element to split the problem.
            let mut m = l;
            while m + 1 < n {
                let dd = d[m].abs() + d[m + 1].abs();
                if e[m].abs() <= f64::EPSILON * dd {
                    break;
                }
                m += 1;
            }
            if m == l {
                break;
            }
            iter += 1;
            if iter > MAX_ITER {
                return Err(LinalgError::NoConvergence {
                    op: "tql2",
                    iterations: MAX_ITER,
                });
            }

            // Wilkinson-style implicit shift.
            let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let mut r = hypot2(g, 1.0);
            g = d[m] - d[l] + e[l] / (g + r.copysign(g));
            let (mut s, mut c) = (1.0f64, 1.0f64);
            let mut p = 0.0f64;

            let mut i = m; // loop i = m-1 down to l, using i as index+1 guard
            let mut underflow = false;
            while i > l {
                let im1 = i - 1;
                let mut f = s * e[im1];
                let b = c * e[im1];
                r = hypot2(f, g);
                e[i] = r;
                if r == 0.0 {
                    // Recover from underflow: deflate and retry.
                    d[i] -= p;
                    e[m] = 0.0;
                    underflow = true;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i] - p;
                r = (d[im1] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i] = g + p;
                g = c * r - b;
                // Accumulate the rotation into the eigenvector matrix.
                for k in 0..n {
                    f = z[(k, i)];
                    let zk = z[(k, im1)];
                    z[(k, i)] = s * zk + c * f;
                    z[(k, im1)] = c * zk - s * f;
                }
                i -= 1;
            }
            if underflow {
                continue;
            }
            d[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }
    Ok(())
}

/// Sort eigenpairs ascending by eigenvalue, permuting the columns of `z` to
/// match.
pub fn sort_eigenpairs(d: &mut [f64], z: &mut Mat) {
    let n = d.len();
    // Selection sort keeps column swaps O(n²) — negligible vs the O(n³)
    // diagonalization, and simple enough to be obviously correct.
    for i in 0..n {
        let mut kmin = i;
        for j in (i + 1)..n {
            if d[j] < d[kmin] {
                kmin = j;
            }
        }
        if kmin != i {
            d.swap(i, kmin);
            for r in 0..z.rows() {
                let tmp = z[(r, i)];
                z[(r, i)] = z[(r, kmin)];
                z[(r, kmin)] = tmp;
            }
        }
    }
}

/// [`tql2`] followed by [`sort_eigenpairs`], with exactly their bits, on a
/// transposed copy of `z`.
///
/// Holding the eigenvectors as rows turns each Givens rotation's update
/// of two strided columns into one `simd::rotate_rows_with` call on two
/// contiguous rows, with separate multiply and add. The scalar
/// recurrence (the shift, `hypot2`, the two divisions) stays serial and
/// is `tql2`'s line for line. The sort swaps rows, and `z` is written
/// back transposed once at the end; on error `z` is left as it came.
///
/// # Errors
/// [`LinalgError::NoConvergence`] exactly when [`tql2`] returns it.
pub fn tql2_tuned(d: &mut [f64], e: &mut [f64], z: &mut Mat) -> Result<()> {
    let n = d.len();
    assert_eq!(e.len(), n, "tql2_tuned: e length mismatch");
    assert!(z.rows() == n && z.cols() == n, "tql2_tuned: z must be n×n");
    if n <= 1 {
        return Ok(());
    }
    let be = simd::active();
    let mut zt = z.transpose();

    for i in 1..n {
        e[i - 1] = e[i];
    }
    e[n - 1] = 0.0;

    for l in 0..n {
        let mut iter = 0usize;
        loop {
            let mut m = l;
            while m + 1 < n {
                let dd = d[m].abs() + d[m + 1].abs();
                if e[m].abs() <= f64::EPSILON * dd {
                    break;
                }
                m += 1;
            }
            if m == l {
                break;
            }
            iter += 1;
            if iter > MAX_ITER {
                return Err(LinalgError::NoConvergence {
                    op: "tql2",
                    iterations: MAX_ITER,
                });
            }

            let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let mut r = hypot2(g, 1.0);
            g = d[m] - d[l] + e[l] / (g + r.copysign(g));
            let (mut s, mut c) = (1.0f64, 1.0f64);
            let mut p = 0.0f64;

            let mut i = m;
            let mut underflow = false;
            while i > l {
                let im1 = i - 1;
                let f = s * e[im1];
                let b = c * e[im1];
                r = hypot2(f, g);
                e[i] = r;
                // check: allow(det-float-cmp) tql2's exact underflow test: only r == 0 divides by zero below
                if r == 0.0 {
                    d[i] -= p;
                    e[m] = 0.0;
                    underflow = true;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i] - p;
                r = (d[im1] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i] = g + p;
                g = c * r - b;
                let (x, y) = zt.two_rows_mut(im1, i);
                simd::rotate_rows_with(be, x, y, c, s);
                i -= 1;
            }
            if underflow {
                continue;
            }
            d[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }

    // `sort_eigenpairs`' selection sort, swapping rows instead of columns.
    for i in 0..n {
        let mut kmin = i;
        for j in (i + 1)..n {
            if d[j] < d[kmin] {
                kmin = j;
            }
        }
        if kmin != i {
            d.swap(i, kmin);
            let (a, b) = zt.two_rows_mut(i, kmin);
            a.swap_with_slice(b);
        }
    }
    for r in 0..n {
        for (c, &v) in zt.row(r).iter().enumerate() {
            z[(c, r)] = v;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{matmul, Transpose};
    use crate::tridiag::{tred2, tridiag_to_dense};

    #[test]
    fn hypot2_robust() {
        assert_eq!(hypot2(3.0, 4.0), 5.0);
        assert_eq!(hypot2(0.0, 0.0), 0.0);
        let big = 1e300;
        assert!((hypot2(big, big) - big * 2f64.sqrt()).abs() / big < 1e-14);
    }

    #[test]
    fn diagonalizes_2x2() {
        let mut d = vec![2.0, 2.0];
        let mut e = vec![0.0, 1.0]; // tred2 convention: coupling in e[1]
        let mut z = Mat::identity(2);
        tql2(&mut d, &mut e, &mut z).unwrap();
        sort_eigenpairs(&mut d, &mut z);
        assert!((d[0] - 1.0).abs() < 1e-12);
        assert!((d[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn full_pipeline_reconstructs_matrix() {
        for n in [2usize, 3, 5, 10, 61] {
            let mut state = n as u64 * 31 + 5;
            let mut a = Mat::from_fn(n, n, |_, _| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
            });
            a.symmetrize();

            let tri = tred2(&a);
            let mut d = tri.d.clone();
            let mut e = tri.e.clone();
            let mut z = tri.q.clone();
            tql2(&mut d, &mut e, &mut z).unwrap();
            sort_eigenpairs(&mut d, &mut z);

            // orthogonality
            let ztz = matmul(&z, Transpose::Yes, &z, Transpose::No);
            assert!(
                ztz.approx_eq(&Mat::identity(n), 1e-9),
                "n={n}: Z not orthogonal"
            );
            // reconstruction A = Z Λ Zᵀ
            let zl = z.mul_diag_right(&d);
            let rec = matmul(&zl, Transpose::No, &z, Transpose::Yes);
            assert!(
                rec.approx_eq(&a, 1e-9),
                "n={n}: reconstruction failed, {}",
                rec.max_abs_diff(&a)
            );
            // ascending order
            for i in 1..n {
                assert!(d[i] >= d[i - 1]);
            }
        }
    }

    #[test]
    fn eigenvalues_of_known_tridiagonal() {
        // T = tridiag(e=1, d=2, e=1) of order n has eigenvalues
        // 2 - 2cos(kπ/(n+1)).
        let n = 8;
        let mut d = vec![2.0; n];
        let mut e = vec![1.0; n];
        e[0] = 0.0;
        let dense = tridiag_to_dense(&d, &e);
        let mut z = Mat::identity(n);
        tql2(&mut d, &mut e, &mut z).unwrap();
        sort_eigenpairs(&mut d, &mut z);
        for (k, &lam) in d.iter().enumerate() {
            let expect =
                2.0 - 2.0 * (std::f64::consts::PI * (k + 1) as f64 / (n as f64 + 1.0)).cos();
            assert!((lam - expect).abs() < 1e-10, "k={k}: {lam} vs {expect}");
        }
        // eigenvectors reconstruct the dense T
        let zl = z.mul_diag_right(&d);
        let rec = matmul(&zl, Transpose::No, &z, Transpose::Yes);
        assert!(rec.approx_eq(&dense, 1e-10));
    }

    #[test]
    fn handles_zero_matrix() {
        let mut d = vec![0.0; 4];
        let mut e = vec![0.0; 4];
        let mut z = Mat::identity(4);
        tql2(&mut d, &mut e, &mut z).unwrap();
        assert!(d.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn repeated_eigenvalues() {
        // Identity ⊕ reflection has eigenvalues {1,1,-1}: degenerate pair.
        let a = Mat::from_rows(&[&[1.0, 0.0, 0.0], &[0.0, 0.0, 1.0], &[0.0, 1.0, 0.0]]);
        let tri = tred2(&a);
        let mut d = tri.d.clone();
        let mut e = tri.e.clone();
        let mut z = tri.q.clone();
        tql2(&mut d, &mut e, &mut z).unwrap();
        sort_eigenpairs(&mut d, &mut z);
        assert!((d[0] + 1.0).abs() < 1e-12);
        assert!((d[1] - 1.0).abs() < 1e-12);
        assert!((d[2] - 1.0).abs() < 1e-12);
    }
}
