//! Criterion: symmetric eigensolvers on the actual 61×61 codon `A`
//! matrix (§III-A step 2, the `dsyevr` role).

use criterion::{criterion_group, criterion_main, Criterion};
use slim_bio::GeneticCode;
use slim_linalg::{sym_eigen, EigenMethod};
use slim_model::{build_rate_matrix, ScalePolicy};
use std::hint::black_box;

fn bench_eigen(c: &mut Criterion) {
    let code = GeneticCode::universal();
    let mut pi: Vec<f64> = (0..61).map(|i| 1.0 + ((i * 5) % 11) as f64).collect();
    let s: f64 = pi.iter().sum();
    pi.iter_mut().for_each(|p| *p /= s);
    let rm = build_rate_matrix(&code, 2.3, 0.5, &pi, ScalePolicy::PerClass);

    let mut group = c.benchmark_group("eigen_codon_61");
    group.sample_size(30);
    for (label, method) in [
        ("householder_ql (tuned)", EigenMethod::HouseholderQl),
        (
            "householder_ql_naive (tred2+tql2, CodeML)",
            EigenMethod::HouseholderQlNaive,
        ),
        (
            "bisection_inverse (dsyevr stand-in)",
            EigenMethod::BisectionInverse,
        ),
        ("jacobi", EigenMethod::Jacobi),
    ] {
        group.bench_function(label, |bench| {
            bench.iter(|| black_box(sym_eigen(black_box(&rm.a), method).unwrap()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_eigen);
criterion_main!(benches);
