//! `slim-par`: the phase helpers of one likelihood evaluation (§V-B's
//! FastCodeML direction), driven by [`crate::reuse::ReuseEvaluator`].
//!
//! One evaluation runs as four phases:
//!
//! 1. **eigen** — one rate matrix per distinct ω is built and decomposed
//!    on the calling thread ([`build_eigensystems`]), and each
//!    decomposition's [`stochastic_horizon`] computed. A mixture has at
//!    most three, and a thread per ω was slower on three of the four
//!    Table II analogs on a 2-core host (EXPERIMENTS.md);
//! 2. **expm** — one transition operator per (branch, needed ω) pair
//!    ([`build_op`]), all independent, chunked across threads; a branch
//!    past its decomposition's horizon rejects the point first;
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
//! Phase 1 runs serially, and phase 2 computes each item identically
//! regardless of which thread runs it. Phase 3's block boundaries depend
//! only on [`EngineConfig::pattern_block`], never on the thread count, and
//! each block's values are bit-identical to a full-width pass (see
//! [`crate::pruning`]). Phase 4 is the only order-sensitive step — a sum
//! over patterns — and it always runs serially in pattern order. Hence
//! `threads = 1` and `threads = N` agree to the last bit, which the
//! thread-determinism test layer locks down.

use crate::engine::{EngineConfig, ExpmPath};
use crate::problem::LikelihoodProblem;
use crate::pruning::TransOp;
use slim_expm::{CpvStrategy, EigenSystem};
use slim_linalg::{LinalgError, NeumaierSum};
use slim_model::{build_rate_matrix, ScalePolicy};
use std::sync::Arc;

/// Phase 1: build and decompose one rate matrix per ω in `omegas` (a
/// mixture's distinct ω values), all under `scale`, on the calling
/// thread; the evaluator reruns it when globals change.
pub(crate) fn build_eigensystems(
    problem: &LikelihoodProblem,
    config: &EngineConfig,
    kappa: f64,
    omegas: &[f64],
    scale: ScalePolicy,
) -> Result<Vec<Arc<EigenSystem>>, LinalgError> {
    omegas
        .iter()
        .map(|&omega| {
            let rm = build_rate_matrix(&problem.code, kappa, omega, &problem.pi, scale);
            EigenSystem::from_rate_matrix(&rm, config.eigen).map(Arc::new)
        })
        .collect()
}

/// How far the row sums of a reconstructed `P(t)` may provably drift from
/// their `t = 0` values before the evaluator rejects the point: the
/// tolerance the sanitize tripwire holds every `P(t)` to.
const ROW_SUM_DRIFT_TOL: f64 = 1e-7;

/// The longest branch length at which `es` provably reconstructs a
/// stochastic `P(t)`: past it the evaluator rejects the point
/// ([`LinalgError::IllConditioned`]) rather than build the operator.
///
/// Row i of `P(t)` sums to `π_i^{-1/2} Σ_k X_ik e^{λ_k t} c_k`, where
/// `c = Xᵀπ^{1/2}` is the exact null vector of `A` in the computed
/// eigenbasis. An exact decomposition puts all of `c` on zero modes, so
/// the sums never move from their `t = 0` value. The solver's absolute
/// error `n·ε·‖A‖` leaks `c` onto decaying modes; at ordinary points the
/// leak is rounding noise, but a line search can reach mixtures whose
/// spectrum spans 1e11 (κ 3e29, ω2 7e50, p2 1e-11 in a sites fit), where
/// it moves the sums by 1e-3 on long branches. The drift is bounded by
/// `Σ_k w_k min(1, |λ_k| t)` with `w_k = |c_k| max_i π_i^{-1/2}|X_ik|`,
/// piecewise linear in `t`; the horizon is where that bound reaches
/// [`ROW_SUM_DRIFT_TOL`], infinite when it never does. It depends on the
/// decomposition alone, so kept and cleared evaluator state decide alike.
pub(crate) fn stochastic_horizon(es: &EigenSystem) -> f64 {
    let n = es.order();
    let x = &es.eigen.vectors;
    let mut c = vec![NeumaierSum::new(); n];
    let mut reach = vec![0.0f64; n];
    for j in 0..n {
        for (k, &xjk) in x.row(j).iter().enumerate() {
            c[k].add(xjk * es.sqrt_pi[j]);
            reach[k] = reach[k].max(xjk.abs() * es.inv_sqrt_pi[j]);
        }
    }
    // (rate |λ_k|, weight w_k) of each decaying mode, fastest first: the
    // order in which they saturate.
    let mut modes: Vec<(f64, f64)> = es
        .eigen
        .values
        .iter()
        .zip(c.iter().zip(&reach))
        .filter(|(&l, _)| l < 0.0)
        .map(|(&l, (ck, &r))| (-l, ck.total().abs() * r))
        .collect();
    modes.sort_by(|a, b| b.0.total_cmp(&a.0));
    // While modes before m are saturated and m onward are not, the bound
    // is `saturated + t·slope[m]`, with slope[m] = Σ_{k ≥ m} |λ_k| w_k.
    let mut slope = vec![NeumaierSum::new(); modes.len() + 1];
    for m in (0..modes.len()).rev() {
        slope[m] = slope[m + 1];
        slope[m].add(modes[m].0 * modes[m].1);
    }
    let mut saturated = NeumaierSum::new();
    for (m, &(rate, w)) in modes.iter().enumerate() {
        let (sat, s) = (saturated.total(), slope[m].total());
        if sat + s / rate > ROW_SUM_DRIFT_TOL {
            return (ROW_SUM_DRIFT_TOL - sat) / s;
        }
        saturated.add(w);
    }
    f64::INFINITY
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

#[cfg(test)]
mod tests {
    use super::*;
    use slim_bio::GeneticCode;
    use slim_linalg::EigenMethod;

    /// Across κ and ω at and inside the fits' bounds, a decomposition
    /// under its own scale stays stochastic far past the longest branch
    /// a fit may take (50).
    #[test]
    fn ordinary_decompositions_reach_far_past_the_longest_branch() {
        let code = GeneticCode::universal();
        let mut pi: Vec<f64> = (0..61).map(|i| 1.0 + ((i * 5) % 11) as f64).collect();
        let s: f64 = pi.iter().sum();
        for p in &mut pi {
            *p /= s;
        }
        for kappa in [1e-3, 2.0, 100.0] {
            for omega in [1e-6, 0.3, 1.0, 50.0, 999.0] {
                let rm = build_rate_matrix(&code, kappa, omega, &pi, ScalePolicy::PerClass);
                let es = EigenSystem::from_rate_matrix(&rm, EigenMethod::HouseholderQl).unwrap();
                let h = stochastic_horizon(&es);
                assert!(h > 1e6, "κ {kappa}, ω {omega}: horizon {h:e}");
            }
        }
    }
}
