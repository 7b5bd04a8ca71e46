//! Symmetric rank-k update — the paper's headline kernel.
//!
//! Eq. 10 of the paper replaces the general product `Z = Ỹ·Xᵀ` (Eq. 9,
//! ≈ 2n³ flops via `dgemm`) with `Z = Y·Yᵀ` (≈ n³ flops via `dsyrk`),
//! "saving about half of the flops" when reconstructing the matrix
//! exponential from the symmetric eigendecomposition.

use crate::simd;
use crate::Mat;

/// Symmetric rank-k update `C ← α·A·Aᵀ + β·C` (`dsyrk` equivalent,
/// full-storage output).
///
/// Only the lower triangle (including diagonal) is computed — ~n·k·(n+1)/2
/// multiply-adds — and the strict upper triangle is mirrored afterwards, so
/// arithmetic cost is half of a general product. In row-major storage each
/// dot product runs over two contiguous rows of `A`, which streams
/// perfectly. Outputs are computed in register tiles of 2 rows × 4
/// columns through the dispatched tile kernel, which loads six rows of
/// `A` for eight dots. Each output still accumulates its own four lane
/// sums in the canonical scalar order and then takes `α·d + β·c`, so
/// every entry equals `α·dot(a_i, a_j) + β·c_ij` bit for bit on every
/// backend. Tiles that cross the diagonal or the last row compute a few
/// entries they do not store (a repeated row stands in past the edge).
///
/// # Panics
/// Panics if `C` is not square of order `A.rows()`.
// check: allow(panic-free-hot-path) square-shape assert is the documented contract; i,j bounded by n
pub fn syrk(alpha: f64, a: &Mat, beta: f64, c: &mut Mat) {
    let n = a.rows();
    assert!(
        c.is_square() && c.rows() == n,
        "syrk: C must be n×n with n = A.rows()"
    );
    let Some(last) = n.checked_sub(1) else {
        return;
    };

    let be = simd::active();
    for i0 in (0..n).step_by(2) {
        let rows = [i0, (i0 + 1).min(last)];
        let x = rows.map(|i| a.row(i));
        // A repeated last row (odd n) is stored once, not twice.
        let live = if rows[0] == rows[1] { 1 } else { 2 };
        for j0 in (0..=rows[1]).step_by(4) {
            let y = [j0, j0 + 1, j0 + 2, j0 + 3].map(|j| a.row(j.min(last)));
            let d = simd::dot_tile_with(be, x, y);
            for (&i, d_i) in rows.iter().zip(&d).take(live) {
                for (j, &dij) in (j0..=i).zip(d_i) {
                    let s = alpha * dij;
                    let cij = &mut c[(i, j)];
                    *cij = s + beta * *cij;
                }
            }
        }
    }
    // Mirror the lower triangle into the upper.
    for i in 0..n {
        for j in (i + 1)..n {
            c[(i, j)] = c[(j, i)];
        }
    }
}

/// Convenience: allocate and return `A·Aᵀ`.
pub fn aat(a: &Mat) -> Mat {
    let mut c = Mat::zeros(a.rows(), a.rows());
    syrk(1.0, a, 0.0, &mut c);
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{matmul, Transpose};

    fn rng_mat(rows: usize, cols: usize, seed: u64) -> Mat {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        Mat::from_fn(rows, cols, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        })
    }

    /// Every output of the tiled kernel, dense or lane-padded, equals
    /// `α·dot(a_i, a_j) + β·c_ij` bit for bit under forced scalar and auto
    /// dispatch, at sizes on both sides of the 2-row and 4-column tiles.
    #[test]
    fn tiles_match_dot_bits_for_every_output() {
        let sizes = [1, 2, 3, 4, 5, 60, 61, 64, 65];
        let (alpha, beta) = (1.25, -0.375);
        for n in sizes {
            for k in sizes {
                let a = rng_mat(n, k, (n * 100 + k) as u64);
                let mut c0 = rng_mat(n, n, (n * 7 + k) as u64);
                c0.symmetrize();
                let mut padded = Mat::zeros_padded(n, k);
                for i in 0..n {
                    padded.row_mut(i).copy_from_slice(a.row(i));
                }
                for input in [&a, &padded] {
                    for mode in [crate::SimdMode::ForceScalar, crate::SimdMode::Auto] {
                        let mut c = c0.clone();
                        crate::simd::with_forced(mode, || syrk(alpha, input, beta, &mut c));
                        for i in 0..n {
                            for j in 0..n {
                                let want = alpha * crate::vecops::dot(a.row(i), a.row(j))
                                    + beta * c0[(i, j)];
                                assert_eq!(
                                    c[(i, j)].to_bits(),
                                    want.to_bits(),
                                    "n={n} k={k} padded={} {mode:?} ({i},{j})",
                                    input.is_padded()
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn syrk_matches_gemm_aat() {
        for (n, k) in [(1, 1), (3, 5), (61, 61), (17, 4)] {
            let a = rng_mat(n, k, n as u64);
            let via_syrk = aat(&a);
            let via_gemm = matmul(&a, Transpose::No, &a, Transpose::Yes);
            assert!(via_syrk.approx_eq(&via_gemm, 1e-12), "n={n} k={k}");
        }
    }

    #[test]
    fn syrk_output_is_symmetric() {
        let a = rng_mat(10, 7, 42);
        let c = aat(&a);
        assert_eq!(c.asymmetry(), 0.0); // mirrored exactly, not recomputed
    }

    #[test]
    fn syrk_alpha_beta() {
        let a = rng_mat(4, 4, 3);
        let c0 = {
            // beta path needs a symmetric C to stay meaningful
            let m = rng_mat(4, 4, 9);
            let mut s = m.clone();
            s.symmetrize();
            s
        };
        let mut c = c0.clone();
        syrk(2.0, &a, 0.5, &mut c);
        let mut expect = matmul(&a, Transpose::No, &a, Transpose::Yes);
        expect.scale(2.0);
        for i in 0..4 {
            for j in 0..4 {
                expect[(i, j)] += 0.5 * c0[(i, j)];
            }
        }
        assert!(c.approx_eq(&expect, 1e-12));
    }

    #[test]
    fn syrk_positive_semidefinite_diagonal() {
        // Diagonal of A·Aᵀ is a sum of squares — must be non-negative.
        let a = rng_mat(9, 5, 77);
        let c = aat(&a);
        for i in 0..9 {
            assert!(c[(i, i)] >= 0.0);
        }
    }
}
