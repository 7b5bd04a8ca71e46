//! Criterion: conditional-probability-vector application strategies
//! (§III-B) at short and long alignment sizes.
//!
//! The per-site vs bundled contrast is the paper's "BLAS level 3"
//! opportunity; the symmetric variant is Eq. 12. Long blocks (1024
//! patterns) model dataset ii, short blocks (64) datasets iii/iv.

use criterion::{criterion_group, criterion_main, Criterion};
use slim_bio::GeneticCode;
use slim_expm::{cpv, CpvScratch, CpvStrategy, EigenSystem};
use slim_linalg::{EigenMethod, Mat};
use slim_model::{build_rate_matrix, ScalePolicy};
use std::hint::black_box;

fn bench_cpv(c: &mut Criterion) {
    let code = GeneticCode::universal();
    let pi = vec![1.0 / 61.0; 61];
    let rm = build_rate_matrix(&code, 2.0, 0.5, &pi, ScalePolicy::PerClass);
    let es = EigenSystem::from_rate_matrix(&rm, EigenMethod::HouseholderQl).unwrap();
    let p = es.transition_matrix_eq10(0.3);
    let sym = es.symmetric_transition(0.3);

    for sites in [64usize, 1024] {
        let mut state = 7u64;
        let w = Mat::from_fn(61, sites, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64).abs()
        });
        let mut out = Mat::zeros(61, sites);
        let mut scratch = CpvScratch::new();
        let mut group = c.benchmark_group(format!("cpv_{sites}_sites"));
        group.sample_size(40);
        for (label, strategy) in [
            ("naive_per_site (CodeML)", CpvStrategy::NaivePerSite),
            ("per_site_gemv (SlimCodeML)", CpvStrategy::PerSiteGemv),
            ("bundled_gemm (SS III-B)", CpvStrategy::BundledGemm),
        ] {
            group.bench_function(label, |bench| {
                bench.iter(|| {
                    cpv::apply_dense_with(
                        strategy,
                        black_box(&p),
                        black_box(&w),
                        &mut out,
                        &mut scratch,
                    );
                    black_box(&out);
                })
            });
        }
        group.bench_function("symmetric_symv (Eq. 12)", |bench| {
            bench.iter(|| {
                sym.apply_dense_with(black_box(&w), &mut out, &mut scratch);
                black_box(&out);
            })
        });
        group.finish();
    }
}

criterion_group!(benches, bench_cpv);
criterion_main!(benches);
