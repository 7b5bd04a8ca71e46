//! Timings of single layers' public functions, for the traced run.

use crate::spans::clock;
use crate::stats::median;
use slim_core::{Analysis, BranchSiteModel, CoreError};
use slim_expm::EigenSystem;
use slim_linalg::{gemm, gemv, sym_eigen, syrk, EigenMethod, Mat, Transpose};
use slim_model::{build_rate_matrix, rate_components, RateMatrix, ScalePolicy};
use std::hint::black_box;

/// Codon-model matrix order.
pub const N: usize = 61;

/// Median seconds per call of `f` over `batches` batches of `calls` calls.
pub fn seconds_per_call(batches: usize, calls: usize, mut f: impl FnMut()) -> f64 {
    f();
    let samples: Vec<f64> = (0..batches.max(1))
        .map(|_| {
            let t = clock();
            for _ in 0..calls.max(1) {
                f();
            }
            t.elapsed().as_secs_f64() / calls.max(1) as f64
        })
        .collect();
    median(&samples).unwrap_or(0.0)
}

/// Seconds of one stateless full evaluation (`Analysis::log_likelihood`,
/// the path NEB and per-site lnL use) at the given parameters.
pub fn eval_full_s(
    analysis: &Analysis,
    model: &BranchSiteModel,
    branch_lengths: &[f64],
) -> Result<f64, CoreError> {
    analysis.log_likelihood(model, branch_lengths)?;
    Ok(seconds_per_call(5, 3, || {
        let _ = black_box(analysis.log_likelihood(black_box(model), branch_lengths));
    }))
}

/// The three ω-class rate matrices of `model` on the analysis' codon
/// frequencies, sharing the background rate scale as the engine does.
fn rate_matrices(analysis: &Analysis, model: &BranchSiteModel) -> Vec<RateMatrix> {
    let problem = analysis.problem();
    let (syn, nonsyn) = rate_components(&problem.code, model.kappa, &problem.pi);
    let scale = model.shared_scale(syn, nonsyn);
    model
        .omegas()
        .iter()
        .map(|&w| {
            build_rate_matrix(
                &problem.code,
                model.kappa,
                w,
                &problem.pi,
                ScalePolicy::External(scale),
            )
        })
        .collect()
}

/// Seconds per eigendecomposition of the three ω-class matrices at
/// `model`.
pub fn eigen_s(analysis: &Analysis, model: &BranchSiteModel) -> Result<f64, CoreError> {
    let method = analysis.engine_config().eigen;
    let matrices = rate_matrices(analysis, model);
    for rm in &matrices {
        EigenSystem::from_rate_matrix(rm, method)?;
    }
    Ok(seconds_per_call(5, 2, || {
        for rm in &matrices {
            let _ = black_box(EigenSystem::from_rate_matrix(black_box(rm), method));
        }
    }) / matrices.len() as f64)
}

/// Seconds per Eq. 10 `P(t)` reconstruction over `branch_lengths`, from
/// the ω0 decomposition at `model`.
pub fn pt_s(
    analysis: &Analysis,
    model: &BranchSiteModel,
    branch_lengths: &[f64],
) -> Result<f64, CoreError> {
    let matrices = rate_matrices(analysis, model);
    let rm = matrices
        .first()
        .ok_or(CoreError::Optimization("no rate matrix".into()))?;
    let system = EigenSystem::from_rate_matrix(rm, analysis.engine_config().eigen)?;
    Ok(seconds_per_call(5, 2, || {
        for &t in branch_lengths {
            black_box(system.transition_matrix_eq10(black_box(t)));
        }
    }) / branch_lengths.len().max(1) as f64)
}

/// One n = 61 kernel: measured time and computed work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Kernel {
    /// `gemv`, `syrk`, `gemm` or `eigen`.
    pub name: &'static str,
    /// Median seconds per call.
    pub seconds: f64,
    /// Floating-point operations per call (computed).
    pub flops: f64,
    /// Operand bytes read and written once per call (computed; ignores
    /// cache misses).
    pub bytes: f64,
}

/// Deterministic matrix with entries in [-0.5, 0.5).
fn filled(seed: u64) -> Mat {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    Mat::from_fn(N, N, |_, _| {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
    })
}

/// The n = 61 kernels the likelihood engine is built from: `gemv`
/// (per-site CPV products), `syrk` (Eq. 10 reconstruction), `gemm` and
/// the symmetric eigensolver.
pub const KERNELS: [&str; 4] = ["gemv", "syrk", "gemm", "eigen"];

/// Time one of [`KERNELS`] on fixed n = 61 operands.
pub fn kernel(name: &'static str) -> Kernel {
    let n = N as f64;
    let word = 8.0;
    let a = filled(1);
    let b = filled(2);
    let mut c = Mat::zeros(N, N);
    let (seconds, flops, bytes) = match name {
        "gemv" => {
            let x: Vec<f64> = (0..N).map(|i| (i as f64 * 0.37).sin()).collect();
            let mut y = vec![0.0; N];
            let s = seconds_per_call(7, 2000, || {
                gemv(1.0, black_box(&a), black_box(&x), 0.0, &mut y);
                black_box(&y);
            });
            (s, 2.0 * n * n, word * (n * n + 2.0 * n))
        }
        "syrk" => {
            let s = seconds_per_call(7, 100, || {
                syrk(1.0, black_box(&a), 0.0, &mut c);
                black_box(&c);
            });
            (s, n * n * (n + 1.0), word * 2.0 * n * n)
        }
        "gemm" => {
            let s = seconds_per_call(7, 100, || {
                gemm(
                    1.0,
                    black_box(&a),
                    Transpose::No,
                    &b,
                    Transpose::No,
                    0.0,
                    &mut c,
                );
                black_box(&c);
            });
            (s, 2.0 * n * n * n, word * 3.0 * n * n)
        }
        _ => {
            let sym = Mat::from_fn(N, N, |i, j| a[(i, j)] + a[(j, i)]);
            let s = seconds_per_call(7, 5, || {
                let _ = black_box(sym_eigen(black_box(&sym), EigenMethod::HouseholderQl));
            });
            // LAPACK's dsyev-with-vectors operation count, about 9n³.
            (s, 9.0 * n * n * n, word * 2.0 * n * n)
        }
    };
    Kernel {
        name,
        seconds,
        flops,
        bytes,
    }
}
