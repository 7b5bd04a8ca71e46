//! `slim-par`: the phase helpers of one likelihood evaluation (§V-B's
//! FastCodeML direction), driven by [`crate::reuse::ReuseEvaluator`].
//!
//! One evaluation runs as four phases:
//!
//! 1. **eigen** — one rate matrix per distinct ω is built and decomposed,
//!    each independent, fanned one-per-thread ([`build_eigensystems`]);
//! 2. **expm** — one transition operator per (branch, needed ω) pair
//!    ([`build_op`]), all independent, chunked across threads;
//! 3. **pruning** — units of (background-ω group × pattern block) stream
//!    through a crossbeam channel to workers that each own a
//!    [`PruneScratch`](crate::pruning), so the steady state allocates
//!    nothing (the slim-batch pool conventions, applied within a gene);
//! 4. **reduction** — per-pattern class mixing and the weighted total, on
//!    the calling thread, in fixed pattern order with Neumaier compensated
//!    summation ([`mix_and_reduce`]).
//!
//! ## Why every thread count gives the same bits
//!
//! Phases 1–2 compute each item identically regardless of which thread
//! runs it. Phase 3's block boundaries depend only on
//! [`EngineConfig::pattern_block`], never on the thread count, and each
//! block's values are bit-identical to a full-width pass (see
//! [`crate::pruning`]). Phase 4 is the only order-sensitive step — a sum
//! over patterns — and it always runs serially in pattern order. Hence
//! `threads = 1` and `threads = N` agree to the last bit, which the
//! thread-determinism test layer locks down.

use crate::engine::{EngineConfig, ExpmPath};
use crate::problem::LikelihoodProblem;
use crate::pruning::TransOp;
use slim_expm::{CpvStrategy, EigenSystem};
use slim_linalg::{simd, LinalgError, NeumaierSum};
use slim_model::{build_rate_matrix, ScalePolicy};
use std::sync::Arc;

/// Phase 1: build and decompose one rate matrix per ω in `omegas` (a
/// mixture's distinct ω values), all under `scale` (one-per-spawn when
/// `threads >= 2`); the evaluator reruns it when globals change.
pub(crate) fn build_eigensystems(
    problem: &LikelihoodProblem,
    config: &EngineConfig,
    kappa: f64,
    omegas: &[f64],
    scale: ScalePolicy,
    threads: usize,
) -> Result<Vec<Arc<EigenSystem>>, LinalgError> {
    let eigen_for = |omega: f64| {
        let rm = build_rate_matrix(&problem.code, kappa, omega, &problem.pi, scale);
        EigenSystem::from_rate_matrix(&rm, config.eigen).map(Arc::new)
    };
    if threads >= 2 && omegas.len() >= 2 {
        let simd_mode = config.simd;
        let mut slots: Vec<Option<Result<Arc<EigenSystem>, LinalgError>>> =
            omegas.iter().map(|_| None).collect();
        let eigen_for = &eigen_for;
        crossbeam::thread::scope(|scope| {
            for (slot, &omega) in slots.iter_mut().zip(omegas.iter()) {
                scope.spawn(move |_| {
                    simd::with_forced(simd_mode, || *slot = Some(eigen_for(omega)));
                });
            }
        })
        .expect("eigen scope");
        slots
            .into_iter()
            .map(|s| s.expect("eigen thread filled its slot"))
            .collect()
    } else {
        omegas.iter().map(|&omega| eigen_for(omega)).collect()
    }
}

/// Phase 4: per-pattern class mixing (log-sum-exp) and the weighted
/// total — always serial, fixed pattern order, Neumaier compensated, so
/// every thread count produces the same bits. `threads` is reported in
/// the sanitize context only.
pub(crate) fn mix_and_reduce(
    problem: &LikelihoodProblem,
    props: &[f64],
    per_class: &[Vec<f64>],
    threads: usize,
) -> (f64, Vec<f64>) {
    let n_pat = problem.n_patterns();
    let mut per_pattern = vec![0.0f64; n_pat];
    let mut acc = NeumaierSum::new();
    let ln_props: Vec<f64> = props.iter().map(|p| p.ln()).collect();
    for p in 0..n_pat {
        let mut max = f64::NEG_INFINITY;
        for c in 0..props.len() {
            if props[c] > 0.0 {
                let v = ln_props[c] + per_class[c][p];
                if v > max {
                    max = v;
                }
            }
        }
        let value = if max.is_finite() {
            let mut sum = 0.0;
            for c in 0..props.len() {
                if props[c] > 0.0 {
                    sum += (ln_props[c] + per_class[c][p] - max).exp();
                }
            }
            max + sum.ln()
        } else {
            f64::NEG_INFINITY
        };
        per_pattern[p] = value;
        acc.add(problem.patterns.weight(p) * value);
    }
    let lnl = acc.total();
    #[cfg(feature = "sanitize")]
    slim_linalg::sanitize::check_log_value("total lnL", lnl, || {
        format!(
            "fixed-order reduction over {n_pat} patterns (threads {threads}, \
             proportions {props:?})"
        )
    });
    #[cfg(not(feature = "sanitize"))]
    let _ = threads;
    (lnl, per_pattern)
}

/// Reconstruct one branch's transition operator in the representation the
/// engine's CPV strategy needs — the one place a `TransOp` is made.
pub(crate) fn build_op(es: &EigenSystem, config: &EngineConfig, t: f64) -> TransOp {
    match config.cpv {
        CpvStrategy::SymmetricSymv => TransOp::Sym(es.symmetric_transition(t)),
        _ => TransOp::Dense(match config.expm {
            ExpmPath::Eq9Naive => es.transition_matrix_eq9_naive(t),
            ExpmPath::Eq9Tuned => es.transition_matrix_eq9(t),
            ExpmPath::Eq10Syrk => es.transition_matrix_eq10(t),
        }),
    }
}
