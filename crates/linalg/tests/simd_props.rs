//! Property tests for the SIMD dispatch layer: every backend must produce
//! **bit-identical** results, because the vector kernels reorder only
//! across independent outputs, never inside a reduction.
//!
//! Dimensions deliberately straddle the 4-lane boundary (1, 60, 61, 64,
//! 65): 61 is the codon order (one vector tail of 1), 64 the padded
//! width (no tail), 60/65 the neighbors on either side. On hosts without
//! AVX2 the forced-AVX2 backend gracefully resolves to scalar and these
//! tests pin exactly that fallback.

use proptest::prelude::*;
use slim_linalg::simd::{self, SimdBackend, SimdMode};
use slim_linalg::{gemm, gemv, symv, syrk, Mat, Transpose};

/// Widths straddling the 4-lane boundary plus the codon order.
const LANE_DIMS: [usize; 5] = [1, 60, 61, 64, 65];

fn dim_strategy() -> impl Strategy<Value = usize> {
    (0usize..LANE_DIMS.len()).prop_map(|i| LANE_DIMS[i])
}

/// Deterministic pseudo-random vector in (-0.5, 0.5).
fn rng_vec(n: usize, seed: u64) -> Vec<f64> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        })
        .collect()
}

fn rng_mat(rows: usize, cols: usize, seed: u64) -> Mat {
    let v = rng_vec(rows * cols, seed);
    Mat::from_fn(rows, cols, |i, j| v[i * cols + j])
}

/// The best backend this host resolves a forced-AVX2 request to (AVX2 on
/// x86-64 with the feature, scalar elsewhere — the graceful fallback).
fn fast_backend() -> SimdBackend {
    simd::resolve(SimdMode::ForceAvx2)
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|v| v.to_bits()).collect()
}

fn mat_bits(m: &Mat) -> Vec<u64> {
    (0..m.rows())
        .flat_map(|i| m.row(i).iter().map(|v| v.to_bits()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    /// Every elementwise/reduction microkernel: scalar vs dispatched bits.
    #[test]
    fn microkernels_bit_identical_across_backends(n in dim_strategy(), seed in 0u64..1_000) {
        let be = fast_backend();
        let x = rng_vec(n, seed);
        let y = rng_vec(n, seed ^ 0xABCD);
        let z = rng_vec(n, seed ^ 0x1234);
        let alpha = rng_vec(1, seed ^ 0x77)[0] * 3.0;

        // dot / dot2: same reduction order on every backend.
        let d_s = simd::dot_with(SimdBackend::Scalar, &x, &y);
        let d_f = simd::dot_with(be, &x, &y);
        prop_assert_eq!(d_s.to_bits(), d_f.to_bits());
        let (a_s, b_s) = simd::dot2_with(SimdBackend::Scalar, &x, &z, &y);
        let (a_f, b_f) = simd::dot2_with(be, &x, &z, &y);
        prop_assert_eq!(a_s.to_bits(), a_f.to_bits());
        prop_assert_eq!(b_s.to_bits(), b_f.to_bits());
        // dot2 is exactly two dots sharing the rhs.
        prop_assert_eq!(a_s.to_bits(), d_s.to_bits());

        // fma_row / fma_row2 / fms_row2: independent outputs.
        let (mut c_s, mut c_f) = (y.clone(), y.clone());
        simd::fma_row_with(SimdBackend::Scalar, &mut c_s, alpha, &x);
        simd::fma_row_with(be, &mut c_f, alpha, &x);
        prop_assert_eq!(bits(&c_s), bits(&c_f));
        let (mut c2_s, mut c2_f) = (y.clone(), y.clone());
        simd::fma_row2_with(SimdBackend::Scalar, &mut c2_s, alpha, &x, -alpha, &z);
        simd::fma_row2_with(be, &mut c2_f, alpha, &x, -alpha, &z);
        prop_assert_eq!(bits(&c2_s), bits(&c2_f));
        let (mut c3_s, mut c3_f) = (y.clone(), y.clone());
        simd::fms_row2_with(SimdBackend::Scalar, &mut c3_s, alpha, &x, -alpha, &z);
        simd::fms_row2_with(be, &mut c3_f, alpha, &x, -alpha, &z);
        prop_assert_eq!(bits(&c3_s), bits(&c3_f));

        // mul_row / mul_into / scale_row.
        let (mut m_s, mut m_f) = (y.clone(), y.clone());
        simd::mul_row_with(SimdBackend::Scalar, &mut m_s, &x);
        simd::mul_row_with(be, &mut m_f, &x);
        prop_assert_eq!(bits(&m_s), bits(&m_f));
        let (mut z_s, mut z_f) = (vec![0.0; n], vec![0.0; n]);
        simd::mul_into_with(SimdBackend::Scalar, &x, &y, &mut z_s);
        simd::mul_into_with(be, &x, &y, &mut z_f);
        prop_assert_eq!(bits(&z_s), bits(&z_f));
        let (mut s_s, mut s_f) = (x.clone(), x.clone());
        simd::scale_row_with(SimdBackend::Scalar, &mut s_s, alpha);
        simd::scale_row_with(be, &mut s_f, alpha);
        prop_assert_eq!(bits(&s_s), bits(&s_f));
    }

    /// The composite kernels under `with_forced`: gemm, gemv, symv, syrk
    /// all produce the same bits whether dispatch is forced to scalar or
    /// to the best available vector backend.
    #[test]
    fn composite_kernels_bit_identical_under_forced_dispatch(
        n in dim_strategy(),
        seed in 0u64..500,
    ) {
        let a = rng_mat(n, n, seed);
        let b = rng_mat(n, n, seed ^ 0xBEEF);
        let x = rng_vec(n, seed ^ 0xF00D);
        let y0 = rng_vec(n, seed ^ 0xD00F);
        let mut sym = rng_mat(n, n, seed ^ 0x5555);
        sym.symmetrize();

        let run = |mode: SimdMode| {
            simd::with_forced(mode, || {
                let mut c = rng_mat(n, n, seed ^ 0xC0FE);
                gemm(1.25, &a, Transpose::No, &b, Transpose::No, 0.5, &mut c);
                let mut yv = y0.clone();
                gemv(1.25, &a, &x, 0.5, &mut yv);
                let mut ys = y0.clone();
                symv(1.25, &sym, &x, 0.5, &mut ys);
                let mut k = Mat::zeros(n, n);
                syrk(1.25, &a, 0.0, &mut k);
                (mat_bits(&c), bits(&yv), bits(&ys), mat_bits(&k))
            })
        };

        let scalar = run(SimdMode::ForceScalar);
        let fast = run(SimdMode::ForceAvx2);
        prop_assert_eq!(&scalar.0, &fast.0, "gemm bits");
        prop_assert_eq!(&scalar.1, &fast.1, "gemv bits");
        prop_assert_eq!(&scalar.2, &fast.2, "symv bits");
        prop_assert_eq!(&scalar.3, &fast.3, "syrk bits");
    }

    /// Lane padding is logically invisible: gemm/syrk into padded outputs
    /// (and from padded inputs) produce the same logical bits as fully
    /// dense layouts, and pad columns stay zero.
    #[test]
    fn padded_storage_matches_dense_bits(n in dim_strategy(), seed in 0u64..500) {
        let a = rng_mat(n, n, seed);
        let b = rng_mat(n, n, seed ^ 0x1DEA);

        let mut c_dense = Mat::zeros(n, n);
        gemm(1.0, &a, Transpose::No, &b, Transpose::No, 0.0, &mut c_dense);
        let mut c_pad = Mat::zeros_padded(n, n);
        gemm(1.0, &a, Transpose::No, &b, Transpose::No, 0.0, &mut c_pad);
        prop_assert_eq!(mat_bits(&c_dense), mat_bits(&c_pad));

        let mut k_dense = Mat::zeros(n, n);
        syrk(1.0, &a, 0.0, &mut k_dense);
        let mut k_pad = Mat::zeros_padded(n, n);
        syrk(1.0, &a, 0.0, &mut k_pad);
        prop_assert_eq!(mat_bits(&k_dense), mat_bits(&k_pad));

        // Pads stayed exactly zero, so whole-storage elementwise ops
        // cannot leak them into logical results.
        if c_pad.is_padded() {
            let (stride, cols) = (c_pad.stride(), c_pad.cols());
            for i in 0..c_pad.rows() {
                for j in cols..stride {
                    prop_assert_eq!(c_pad.as_slice()[i * stride + j].to_bits(), 0u64);
                }
            }
        }
    }
}

/// A `rows × cols` operand as `op` reads it: stored transposed for
/// `Transpose::Yes`, dense or lane-padded.
fn operand(rows: usize, cols: usize, t: Transpose, padded: bool, seed: u64) -> Mat {
    let (r, c) = match t {
        Transpose::No => (rows, cols),
        Transpose::Yes => (cols, rows),
    };
    let v = rng_vec(r * c, seed);
    let mut x = if padded {
        Mat::zeros_padded(r, c)
    } else {
        Mat::zeros(r, c)
    };
    for i in 0..r {
        x.row_mut(i).copy_from_slice(&v[i * c..(i + 1) * c]);
    }
    x
}

/// `gemm`'s register tiles give every output, pad columns included, the
/// bits of the row loop: auto dispatch (AVX2's 4 × 8 and 4 × 4 tiles)
/// against forced scalar, on rectangular shapes at and past every edge of
/// a tile — rows not a multiple of 4, columns not a multiple of 8 or 4,
/// odd `k`, `k` past one packed pass of 64 — with A and B as stored or
/// transposed, dense or lane-padded. Each shape takes the next (α, β)
/// pair in turn.
#[test]
fn gemm_tiles_match_row_loop_bits_on_every_edge() {
    const SIDES: [usize; 18] = [
        1, 2, 3, 4, 5, 7, 8, 9, 12, 20, 31, 32, 33, 61, 64, 65, 80, 129,
    ];
    let scalars = [
        (1.0, 0.0),
        (1.25, 0.5),
        (1.0, 1.0),
        (1.25, 0.0),
        (1.0, 0.5),
        (1.25, 1.0),
    ];
    let flags = [Transpose::No, Transpose::Yes];
    let shapes = SIDES.iter().flat_map(|&m| {
        let depths = SIDES.iter().copied().chain([256]);
        depths.flat_map(move |k| SIDES.map(|n| (m, k, n)))
    });
    for (case, (m, k, n)) in shapes.enumerate() {
        let (alpha, beta) = scalars[case % scalars.len()];
        for padded in [false, true] {
            let c0 = operand(m, n, Transpose::No, padded, case as u64);
            for (ta, tb) in flags.iter().flat_map(|&ta| flags.map(|tb| (ta, tb))) {
                let a = operand(m, k, ta, padded, (m * 1000 + k) as u64);
                let b = operand(k, n, tb, padded, (k * 1000 + n) as u64);
                let run = |mode: SimdMode| {
                    let mut c = c0.clone();
                    simd::with_forced(mode, || gemm(alpha, &a, ta, &b, tb, beta, &mut c));
                    c
                };
                let (rows, tiles) = (run(SimdMode::ForceScalar), run(SimdMode::Auto));
                let shape = format!("{m}×{k}×{n} α={alpha} β={beta} {ta:?}/{tb:?} padded={padded}");
                assert_eq!(bits(rows.as_slice()), bits(tiles.as_slice()), "{shape}");
                let stride = tiles.stride();
                for (i, row) in tiles.as_slice().chunks(stride).enumerate() {
                    let pads = &row[n..];
                    assert!(pads.iter().all(|v| v.to_bits() == 0), "{shape} row {i}");
                }
            }
        }
    }
}

/// The probe itself: forced modes resolve to a backend the host supports,
/// never to an unsupported one.
#[test]
fn dispatch_probe_falls_back_cleanly() {
    let avx2 = simd::resolve(SimdMode::ForceAvx2);
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            assert_eq!(avx2, SimdBackend::Avx2);
        } else {
            assert_eq!(avx2, SimdBackend::Scalar, "no AVX2 → scalar fallback");
        }
        assert_eq!(
            simd::resolve(SimdMode::ForceNeon),
            SimdBackend::Scalar,
            "NEON is never available on x86-64"
        );
    }
    #[cfg(not(target_arch = "x86_64"))]
    assert_eq!(avx2, SimdBackend::Scalar);
    assert_eq!(simd::resolve(SimdMode::ForceScalar), SimdBackend::Scalar);
    // Auto resolves to whatever with_forced(Auto) activates.
    assert_eq!(
        simd::resolve(SimdMode::Auto),
        simd::with_forced(SimdMode::Auto, simd::active)
    );
}

/// `with_forced` scopes the override to the closure: the 61-wide dot
/// computed inside a forced-scalar region matches the dispatched value
/// bit-for-bit (the determinism contract, spot-checked end to end).
#[test]
fn forced_scalar_region_matches_dispatched_bits() {
    let x = rng_vec(61, 7);
    let y = rng_vec(61, 11);
    let scalar = simd::with_forced(SimdMode::ForceScalar, || slim_linalg::vecops::dot(&x, &y));
    let auto = simd::with_forced(SimdMode::Auto, || slim_linalg::vecops::dot(&x, &y));
    assert_eq!(scalar.to_bits(), auto.to_bits());
}
