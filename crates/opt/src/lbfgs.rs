//! Limited-memory BFGS (L-BFGS).
//!
//! Dense BFGS keeps an n×n inverse-Hessian approximation — fine for the
//! paper's datasets (≤ ~200 parameters on the 95-species tree) but
//! quadratic in memory and per-iteration update cost. L-BFGS reconstructs
//! the search direction from the last `m` curvature pairs with the
//! two-loop recursion (Nocedal & Wright, Alg. 7.4), making optimizer cost
//! linear in the parameter count — the right choice for the FastCodeML
//! direction of genome-scale trees.

use crate::bfgs::{BfgsOptions, BfgsResult, TerminationReason};
use crate::numgrad::{central_gradient, forward_gradient, GradMode};
use std::collections::VecDeque;

/// Number of stored curvature pairs.
const MEMORY: usize = 10;

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

fn inf_norm(a: &[f64]) -> f64 {
    a.iter().map(|v| v.abs()).fold(0.0, f64::max)
}

/// Minimize `f` from `x0` with L-BFGS, reusing [`BfgsOptions`] (the
/// `max_backtracks`, tolerance and gradient-mode knobs mean the same).
pub fn minimize_lbfgs(f: impl FnMut(&[f64]) -> f64, x0: &[f64], opts: &BfgsOptions) -> BfgsResult {
    let mut fit_span = crate::obsm::FIT.span();
    fit_span.arg_str("algo", "lbfgs");
    let n = x0.len();
    let f_cell = std::cell::RefCell::new(f);
    let evals_cell = std::cell::Cell::new(0usize);
    let grads_cell = std::cell::Cell::new(0usize);
    let ls_cell = std::cell::Cell::new(0usize);
    let eval = |x: &[f64]| -> f64 {
        evals_cell.set(evals_cell.get() + 1);
        let v = (f_cell.borrow_mut())(x);
        if v.is_finite() {
            v
        } else {
            f64::INFINITY
        }
    };
    let gradient = |x: &[f64], fx: f64| -> Vec<f64> {
        grads_cell.set(grads_cell.get() + 1);
        match opts.grad_mode {
            GradMode::Central => central_gradient(eval, x),
            GradMode::Forward => forward_gradient(eval, x, fx),
        }
    };

    let mut x = x0.to_vec();
    let mut fx = eval(&x);
    assert!(fx.is_finite(), "objective not finite at the starting point");
    let mut g = gradient(&x, fx);

    // Curvature history: (s, y, ρ = 1/yᵀs).
    let mut history: VecDeque<(Vec<f64>, Vec<f64>, f64)> = VecDeque::with_capacity(MEMORY);

    let mut iterations = 0usize;
    let mut reason = TerminationReason::MaxIterations;

    while iterations < opts.max_iterations {
        if inf_norm(&g) <= opts.grad_tol * (1.0 + fx.abs()) {
            reason = TerminationReason::GradientConverged;
            break;
        }
        iterations += 1;
        // Convergence-trace span, same shape as dense BFGS.
        let mut it_span = crate::obsm::ITERATION.span();
        it_span.arg_u64("iter", iterations as u64);
        let ls_before = ls_cell.get();

        // Two-loop recursion: d = -H·g from the stored pairs.
        let mut q = g.clone();
        let mut alphas = Vec::with_capacity(history.len());
        for (s, y, rho) in history.iter().rev() {
            let alpha = rho * dot(s, &q);
            for (qi, yi) in q.iter_mut().zip(y) {
                *qi -= alpha * yi;
            }
            alphas.push(alpha);
        }
        // Initial Hessian scaling γ = sᵀy / yᵀy from the newest pair.
        if let Some((s, y, _)) = history.back() {
            let gamma = dot(s, y) / dot(y, y).max(f64::MIN_POSITIVE);
            for qi in q.iter_mut() {
                *qi *= gamma;
            }
        }
        for ((s, y, rho), alpha) in history.iter().zip(alphas.into_iter().rev()) {
            let beta = rho * dot(y, &q);
            for (qi, si) in q.iter_mut().zip(s) {
                *qi += (alpha - beta) * si;
            }
        }
        let mut d: Vec<f64> = q.into_iter().map(|v| -v).collect();

        let mut dg = dot(&d, &g);
        if dg >= 0.0 {
            // Fall back to steepest descent and drop stale curvature.
            history.clear();
            d = g.iter().map(|v| -v).collect();
            dg = dot(&d, &g);
            if dg >= 0.0 {
                reason = TerminationReason::GradientConverged;
                break;
            }
        }

        // Backtracking Armijo line search (same scheme as dense BFGS).
        const C1: f64 = 1e-4;
        let mut alpha = 1.0f64;
        let mut trial = vec![0.0f64; n];
        let mut accepted = false;
        let mut f_new = fx;
        for _ in 0..opts.max_backtracks {
            ls_cell.set(ls_cell.get() + 1);
            for i in 0..n {
                trial[i] = x[i] + alpha * d[i];
            }
            f_new = eval(&trial);
            if f_new <= fx + C1 * alpha * dg {
                accepted = true;
                break;
            }
            let denom = 2.0 * (f_new - fx - dg * alpha);
            let alpha_q = if denom > 0.0 {
                -dg * alpha * alpha / denom
            } else {
                0.5 * alpha
            };
            alpha = alpha_q.clamp(0.1 * alpha, 0.5 * alpha);
        }
        if !accepted {
            reason = TerminationReason::LineSearchFailed;
            break;
        }

        let g_new = gradient(&trial, f_new);
        let s: Vec<f64> = (0..n).map(|i| trial[i] - x[i]).collect();
        let y: Vec<f64> = (0..n).map(|i| g_new[i] - g[i]).collect();
        let sy = dot(&s, &y);
        if sy > 1e-12 * inf_norm(&s).max(1e-30) {
            if history.len() == MEMORY {
                history.pop_front();
            }
            history.push_back((s, y, 1.0 / sy));
        }

        let f_change = (fx - f_new).abs();
        x = trial.clone();
        fx = f_new;
        g = g_new;

        // Callers minimize the negative log-likelihood, so -fx is lnL.
        it_span.arg_f64("lnl", -fx);
        it_span.arg_f64("grad_norm", inf_norm(&g));
        it_span.arg_f64("step", alpha);
        it_span.arg_u64("ls_evals", (ls_cell.get() - ls_before) as u64);

        if f_change <= opts.f_tol * (1.0 + fx.abs()) {
            reason = TerminationReason::FunctionConverged;
            break;
        }
    }

    let result = BfgsResult {
        x,
        f: fx,
        grad: g,
        iterations,
        f_evals: evals_cell.get(),
        reason,
    };
    crate::obsm::record_fit(&mut fit_span, &result, grads_cell.get(), ls_cell.get());
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quadratic_bowl() {
        let f = |x: &[f64]| (x[0] - 1.0).powi(2) + 4.0 * (x[1] + 2.0).powi(2);
        let r = minimize_lbfgs(f, &[0.0, 0.0], &BfgsOptions::default());
        assert!((r.x[0] - 1.0).abs() < 1e-4, "{:?}", r.x);
        assert!((r.x[1] + 2.0).abs() < 1e-4);
    }

    #[test]
    fn rosenbrock() {
        let f = |x: &[f64]| (1.0 - x[0]).powi(2) + 100.0 * (x[1] - x[0] * x[0]).powi(2);
        let r = minimize_lbfgs(
            f,
            &[-1.2, 1.0],
            &BfgsOptions {
                max_iterations: 3000,
                ..Default::default()
            },
        );
        assert!((r.x[0] - 1.0).abs() < 1e-3, "{:?} ({:?})", r.x, r.reason);
        assert!((r.x[1] - 1.0).abs() < 1e-3);
    }

    #[test]
    fn high_dimensional_efficiency() {
        // 200-dimensional separable quadratic: L-BFGS must converge in few
        // iterations and never build an n² object.
        let n = 200;
        let f = |x: &[f64]| {
            x.iter()
                .enumerate()
                .map(|(i, &v)| (1.0 + (i % 7) as f64) * v * v)
                .sum::<f64>()
        };
        let r = minimize_lbfgs(f, &vec![1.0; n], &BfgsOptions::default());
        assert!(r.f < 1e-6, "f = {}", r.f);
        assert!(r.iterations < 100);
    }

    #[test]
    fn agrees_with_dense_bfgs() {
        let f = |x: &[f64]| {
            (x[0] - 3.0).powi(2) + (x[1] + 1.0).powi(2) + 0.5 * (x[0] * x[1] - 1.0).powi(2)
        };
        let dense = crate::bfgs::minimize(f, &[0.0, 0.0], &BfgsOptions::default());
        let limited = minimize_lbfgs(f, &[0.0, 0.0], &BfgsOptions::default());
        assert!(
            (dense.f - limited.f).abs() < 1e-6,
            "{} vs {}",
            dense.f,
            limited.f
        );
    }

    #[test]
    #[should_panic(expected = "starting point")]
    fn non_finite_start_panics() {
        let _ = minimize_lbfgs(|_| f64::INFINITY, &[0.0], &BfgsOptions::default());
    }
}
