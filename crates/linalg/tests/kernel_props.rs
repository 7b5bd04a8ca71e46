//! Property tests pinning the tiled kernels to the textbook references.
//!
//! The tiled `gemm`/`syrk` paths reorder the loop nest for register reuse
//! but must compute the same inner products as `naive::matmul`; any
//! disagreement beyond rounding is a tiling bug. Dimensions are drawn from
//! a set that deliberately straddles `gemm`'s `KC = 64` packed pass
//! (63/64/65, 127/128/129) so every partial-panel edge case in the packing
//! loop is exercised, not just the easy interior.

use proptest::prelude::*;
use slim_linalg::gemm::{gemm, matmul, Transpose};
use slim_linalg::{naive, syrk, Mat};

/// Dimensions that hit both sides of every cache-block boundary plus the
/// degenerate small cases.
const STRADDLE_DIMS: [usize; 9] = [1, 2, 7, 63, 64, 65, 127, 128, 129];

/// Strategy: one dimension from the boundary-straddling set.
fn dim_strategy() -> impl Strategy<Value = usize> {
    (0usize..STRADDLE_DIMS.len()).prop_map(|i| STRADDLE_DIMS[i])
}

/// Deterministic pseudo-random matrix in (-0.5, 0.5).
fn rng_mat(rows: usize, cols: usize, seed: u64) -> Mat {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    Mat::from_fn(rows, cols, |_, _| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
    })
}

/// Relative Frobenius-style agreement check: |x - y| ≤ tol · max(1, |x|).
fn assert_close(tuned: &Mat, reference: &Mat, tol: f64) -> Result<(), TestCaseError> {
    prop_assert_eq!(tuned.rows(), reference.rows());
    prop_assert_eq!(tuned.cols(), reference.cols());
    for i in 0..tuned.rows() {
        for j in 0..tuned.cols() {
            let x = tuned[(i, j)];
            let y = reference[(i, j)];
            let scale = 1.0f64.max(y.abs());
            prop_assert!(
                (x - y).abs() <= tol * scale,
                "({}, {}): tuned {} vs naive {}",
                i,
                j,
                x,
                y
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    /// Blocked `matmul` equals the textbook triple loop on shapes that
    /// straddle the packing-block boundaries.
    #[test]
    fn tiled_matmul_matches_naive_at_block_boundaries(
        m in dim_strategy(),
        k in dim_strategy(),
        n in dim_strategy(),
        seed in 0u64..1000,
    ) {
        let a = rng_mat(m, k, seed);
        let b = rng_mat(k, n, seed ^ 0xABCD);
        let tuned = matmul(&a, Transpose::No, &b, Transpose::No);
        let reference = naive::matmul(&a, &b);
        assert_close(&tuned, &reference, 1e-12)?;
    }

    /// Every transpose variant of the tiled product agrees with the naive
    /// product of explicitly transposed operands.
    #[test]
    fn tiled_matmul_transpose_variants_match_naive(
        m in dim_strategy(),
        k in dim_strategy(),
        n in dim_strategy(),
        seed in 0u64..1000,
    ) {
        let a = rng_mat(m, k, seed.wrapping_add(1));
        let b = rng_mat(k, n, seed.wrapping_add(2));
        let at = a.transpose();
        let bt = b.transpose();
        let reference = naive::matmul(&a, &b);

        assert_close(&matmul(&at, Transpose::Yes, &b, Transpose::No), &reference, 1e-12)?;
        assert_close(&matmul(&a, Transpose::No, &bt, Transpose::Yes), &reference, 1e-12)?;
        assert_close(&matmul(&at, Transpose::Yes, &bt, Transpose::Yes), &reference, 1e-12)?;
        // A·Xᵀ also has a dedicated naive reference (`matmul_bt`); check the
        // tuned transposed-B path against it directly.
        let x = rng_mat(n, k, seed.wrapping_add(9));
        assert_close(&matmul(&a, Transpose::No, &x, Transpose::Yes), &naive::matmul_bt(&a, &x), 1e-12)?;
    }

    /// General `gemm` with α/β scaling matches the scalar recurrence
    /// `C ← α·A·B + β·C` computed naively.
    #[test]
    fn gemm_alpha_beta_matches_naive(
        m in dim_strategy(),
        k in dim_strategy(),
        n in dim_strategy(),
        seed in 0u64..1000,
        alpha in -2.0f64..2.0,
        beta in -2.0f64..2.0,
    ) {
        let a = rng_mat(m, k, seed.wrapping_add(3));
        let b = rng_mat(k, n, seed.wrapping_add(4));
        let c0 = rng_mat(m, n, seed.wrapping_add(5));

        let mut tuned = c0.clone();
        gemm(alpha, &a, Transpose::No, &b, Transpose::No, beta, &mut tuned);

        let ab = naive::matmul(&a, &b);
        let reference = Mat::from_fn(m, n, |i, j| alpha * ab[(i, j)] + beta * c0[(i, j)]);
        assert_close(&tuned, &reference, 1e-12)?;
    }

    /// `syrk` equals the naive `A·Aᵀ` on boundary-straddling shapes and
    /// produces an exactly symmetric result.
    #[test]
    fn syrk_matches_naive_aat(
        n in dim_strategy(),
        k in dim_strategy(),
        seed in 0u64..1000,
    ) {
        let a = rng_mat(n, k, seed.wrapping_add(6));
        let mut tuned = Mat::zeros(n, n);
        syrk(1.0, &a, 0.0, &mut tuned);
        let reference = naive::matmul_bt(&a, &a);
        assert_close(&tuned, &reference, 1e-12)?;
        for i in 0..n {
            for j in 0..n {
                prop_assert!(tuned[(i, j)].to_bits() == tuned[(j, i)].to_bits());
            }
        }
    }

    /// `syrk` with α/β against the scalar recurrence, seeded from a
    /// symmetric accumulator (the only meaningful β path for a symmetric
    /// update).
    #[test]
    fn syrk_alpha_beta_matches_naive(
        n in dim_strategy(),
        k in dim_strategy(),
        seed in 0u64..1000,
        alpha in -2.0f64..2.0,
        beta in -2.0f64..2.0,
    ) {
        let a = rng_mat(n, k, seed.wrapping_add(7));
        let mut c0 = rng_mat(n, n, seed.wrapping_add(8));
        c0.symmetrize();

        let mut tuned = c0.clone();
        syrk(alpha, &a, beta, &mut tuned);

        let aat = naive::matmul_bt(&a, &a);
        let reference = Mat::from_fn(n, n, |i, j| alpha * aat[(i, j)] + beta * c0[(i, j)]);
        assert_close(&tuned, &reference, 1e-12)?;
    }
}
