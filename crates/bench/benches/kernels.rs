//! Criterion: the BLAS-substitute kernels at codon-model size (n = 61).
//!
//! Measures the paper's §III-A step 4 claim directly: `syrk` (n³ flops)
//! vs `gemm` (2n³) vs the naive strided triple loop CodeML used.

use criterion::{criterion_group, criterion_main, Criterion};
use slim_linalg::gemm::{matmul, Transpose};
use slim_linalg::{naive, syrk, Mat};
use std::hint::black_box;

fn rng_mat(n: usize, seed: u64) -> Mat {
    let mut state = seed;
    Mat::from_fn(n, n, |_, _| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
    })
}

fn bench_kernels(c: &mut Criterion) {
    let n = 61;
    let a = rng_mat(n, 1);
    let b = rng_mat(n, 2);

    let mut group = c.benchmark_group("kernels_61");
    group.sample_size(60);

    group.bench_function("naive_matmul (CodeML-style)", |bench| {
        bench.iter(|| black_box(naive::matmul(black_box(&a), black_box(&b))))
    });
    group.bench_function("naive_matmul_bt", |bench| {
        bench.iter(|| black_box(naive::matmul_bt(black_box(&a), black_box(&b))))
    });
    group.bench_function("blocked_gemm", |bench| {
        bench.iter(|| {
            black_box(matmul(
                black_box(&a),
                Transpose::No,
                black_box(&b),
                Transpose::No,
            ))
        })
    });
    group.bench_function("blocked_gemm_abt", |bench| {
        bench.iter(|| {
            black_box(matmul(
                black_box(&a),
                Transpose::No,
                black_box(&b),
                Transpose::Yes,
            ))
        })
    });
    group.bench_function("syrk_aat (SlimCodeML)", |bench| {
        let mut out = Mat::zeros(n, n);
        bench.iter(|| {
            syrk(1.0, black_box(&a), 0.0, &mut out);
            black_box(&out);
        })
    });
    group.finish();

    let mut gv = c.benchmark_group("matvec_61");
    gv.sample_size(100);
    let x: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
    gv.bench_function("naive_matvec", |bench| {
        let mut y = vec![0.0; n];
        bench.iter(|| {
            naive::matvec(black_box(&a), black_box(&x), &mut y);
            black_box(&y);
        })
    });
    gv.bench_function("gemv", |bench| {
        let mut y = vec![0.0; n];
        bench.iter(|| {
            slim_linalg::gemv(1.0, black_box(&a), black_box(&x), 0.0, &mut y);
            black_box(&y);
        })
    });
    gv.bench_function("symv (Eq. 12 kernel)", |bench| {
        let mut sym = a.clone();
        sym.symmetrize();
        let mut y = vec![0.0; n];
        bench.iter(|| {
            slim_linalg::symv(1.0, black_box(&sym), black_box(&x), 0.0, &mut y);
            black_box(&y);
        })
    });
    gv.finish();
}

/// `gemm` at the products the exact gradient's pass runs, whose shapes
/// differ from the square 61³ above: `Xᵀ·U` over a chunk of 20 or 32
/// patterns (lane-padded B and C), `A·Bᵀ` with `Bᵀ` stored lane-padded
/// into a dense 61 × 61 `Ĥ`, and the outside pass's down step `Pᵀ·above`,
/// which reads `Aᵀ` in place. GFlop/s is 2·m·k·n over the time.
fn bench_gemm_shapes(c: &mut Criterion) {
    fn filled(rows: usize, cols: usize, padded: bool, seed: u64) -> Mat {
        let src = rng_mat(rows.max(cols), seed);
        let mut m = if padded {
            Mat::zeros_padded(rows, cols)
        } else {
            Mat::zeros(rows, cols)
        };
        for i in 0..rows {
            m.row_mut(i).copy_from_slice(&src.row(i)[..cols]);
        }
        m
    }
    let mut group = c.benchmark_group("gemm_shapes");
    group.sample_size(60);
    // (label, m, k, n, op(A), B padded, C padded); the down step reads Aᵀ.
    let shapes = [
        ("xt_u_61x61x20", 61, 61, 20, Transpose::No, true, true),
        ("xt_u_61x61x32", 61, 61, 32, Transpose::No, true, true),
        ("a_bt_61x32x61", 61, 32, 61, Transpose::No, true, false),
        ("down_61x61x32", 61, 61, 32, Transpose::Yes, true, true),
    ];
    for (label, m, k, n, ta, b_pad, c_pad) in shapes {
        let a = match ta {
            Transpose::No => filled(m, k, false, 1),
            Transpose::Yes => filled(k, m, false, 1),
        };
        let b = filled(k, n, b_pad, 2);
        let mut out = filled(m, n, c_pad, 3);
        group.bench_function(label, |bench| {
            bench.iter(|| {
                slim_linalg::gemm(
                    1.0,
                    black_box(&a),
                    ta,
                    black_box(&b),
                    Transpose::No,
                    0.0,
                    &mut out,
                );
                black_box(&out);
            })
        });
    }
    group.finish();
}

/// The same kernels under forced SIMD dispatch: scalar vs the best backend
/// the host resolves (results are bit-identical by the dispatch contract;
/// only the throughput differs). Complements the `simd_kernels` bin, which
/// emits the machine-readable `BENCH_simd.json` for CI.
fn bench_simd_dispatch(c: &mut Criterion) {
    use slim_linalg::simd::{self, SimdMode};
    let n = 61;
    let a = rng_mat(n, 1);
    let b = rng_mat(n, 2);
    let x: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();

    let mut group = c.benchmark_group("simd_dispatch_61");
    group.sample_size(60);
    for (label, mode) in [
        ("scalar", SimdMode::ForceScalar),
        ("simd", SimdMode::ForceAvx2),
    ] {
        group.bench_function(format!("gemm/{label}"), |bench| {
            let mut c_out = Mat::zeros_padded(n, n);
            bench.iter(|| {
                simd::with_forced(mode, || {
                    slim_linalg::gemm(
                        1.0,
                        black_box(&a),
                        Transpose::No,
                        black_box(&b),
                        Transpose::No,
                        0.0,
                        &mut c_out,
                    );
                });
                black_box(&c_out);
            })
        });
        group.bench_function(format!("syrk/{label}"), |bench| {
            let mut c_out = Mat::zeros_padded(n, n);
            bench.iter(|| {
                simd::with_forced(mode, || {
                    syrk(1.0, black_box(&a), 0.0, &mut c_out);
                });
                black_box(&c_out);
            })
        });
        group.bench_function(format!("gemv/{label}"), |bench| {
            let mut y = vec![0.0; n];
            bench.iter(|| {
                simd::with_forced(mode, || {
                    slim_linalg::gemv(1.0, black_box(&a), black_box(&x), 0.0, &mut y);
                });
                black_box(&y);
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_kernels,
    bench_gemm_shapes,
    bench_simd_dispatch
);
criterion_main!(benches);
