//! Dense BFGS quasi-Newton minimization.
//!
//! The paper (§II-B) names BFGS as CodeML's maximizer. This implementation
//! minimizes (callers pass the *negative* log-likelihood) with:
//!
//! * the objective's own exact gradient ([`GradMode::Analytic`], what the
//!   likelihood fits run), or finite differences ([`crate::numgrad`], the
//!   paper harness' mode);
//! * an Armijo backtracking line search with quadratic interpolation
//!   (full strong-Wolfe would double the gradient cost);
//! * the standard inverse-Hessian BFGS update, skipped when curvature
//!   `sᵀy` is too small to be trustworthy;
//! * iteration and function-evaluation accounting, because Table III of
//!   the paper reports iteration counts and both engines must report them
//!   identically.

use crate::numgrad::{central_gradient, forward_gradient, GradMode};

/// Knobs for [`minimize`].
#[derive(Debug, Clone)]
pub struct BfgsOptions {
    /// Maximum BFGS iterations (default 500).
    pub max_iterations: usize,
    /// Infinity-norm gradient tolerance, relative to `1 + |f|`.
    pub grad_tol: f64,
    /// Relative function-change tolerance between accepted steps.
    pub f_tol: f64,
    /// Where gradients come from.
    pub grad_mode: GradMode,
    /// Maximum backtracking halvings per line search.
    pub max_backtracks: usize,
}

impl Default for BfgsOptions {
    fn default() -> Self {
        BfgsOptions {
            max_iterations: 500,
            grad_tol: 1e-4,
            f_tol: 1e-9,
            grad_mode: GradMode::Central,
            max_backtracks: 40,
        }
    }
}

/// Why the optimizer stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TerminationReason {
    /// Gradient infinity-norm below tolerance.
    GradientConverged,
    /// Function change between accepted iterates below tolerance.
    FunctionConverged,
    /// Iteration budget exhausted.
    MaxIterations,
    /// No acceptable step found along the search direction (typically
    /// means the solution is at finite-difference noise level).
    LineSearchFailed,
}

/// Result of a minimization run.
#[derive(Debug, Clone)]
pub struct BfgsResult {
    /// Best point found.
    pub x: Vec<f64>,
    /// Objective value at `x`.
    pub f: f64,
    /// Gradient at `x` (from the last evaluation).
    pub grad: Vec<f64>,
    /// Number of BFGS iterations performed (the paper's "Iterations").
    pub iterations: usize,
    /// Objective evaluations: the start, every line-search trial and,
    /// under a finite-difference [`GradMode`], every probe. An analytic
    /// gradient adds none.
    pub f_evals: usize,
    /// Why the run stopped.
    pub reason: TerminationReason,
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

fn inf_norm(a: &[f64]) -> f64 {
    a.iter().map(|v| v.abs()).fold(0.0, f64::max)
}

/// A function [`minimize`] minimizes: its value, and under
/// [`GradMode::Analytic`] its own gradient. A closure
/// `FnMut(&[f64]) -> f64` is an objective with a value only, for the
/// finite-difference modes.
pub trait Objective {
    /// The value at `x`; a non-finite value rejects the point.
    fn cost(&mut self, x: &[f64]) -> f64;

    /// The exact gradient at `x`, the point the last
    /// [`cost`](Objective::cost) call was given (where that value was
    /// finite). Only [`GradMode::Analytic`] calls it.
    fn gradient(&mut self, x: &[f64]) -> Vec<f64>;
}

impl<F: FnMut(&[f64]) -> f64> Objective for F {
    fn cost(&mut self, x: &[f64]) -> f64 {
        self(x)
    }

    /// # Panics
    /// Always: a closure has no gradient of its own, so it runs under a
    /// finite-difference [`GradMode`] only.
    fn gradient(&mut self, _x: &[f64]) -> Vec<f64> {
        // check: allow(rob-unwrap) a closure objective under GradMode::Analytic is a caller bug with no gradient to return
        panic!("GradMode::Analytic needs an objective with its own gradient; a closure has none")
    }
}

/// Minimize `f` starting from `x0`.
///
/// The objective must return a finite value for any input reachable from
/// `x0` (callers use [`crate::transform`] to keep model parameters in
/// their domains); non-finite values are treated as +∞ by the line search.
/// Gradients are taken at the start and at every accepted point, by the
/// finite differences [`BfgsOptions::grad_mode`] names or, under
/// [`GradMode::Analytic`], from [`Objective::gradient`] right after the
/// point's own evaluation.
pub fn minimize(f: impl Objective, x0: &[f64], opts: &BfgsOptions) -> BfgsResult {
    let mut fit_span = crate::obsm::FIT.span();
    fit_span.arg_str("algo", "bfgs");
    let n = x0.len();
    let f_cell = std::cell::RefCell::new(f);
    let evals_cell = std::cell::Cell::new(0usize);
    let grads_cell = std::cell::Cell::new(0usize);
    let ls_cell = std::cell::Cell::new(0usize);
    let eval = |x: &[f64]| -> f64 {
        evals_cell.set(evals_cell.get() + 1);
        let v = f_cell.borrow_mut().cost(x);
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
            GradMode::Analytic => f_cell.borrow_mut().gradient(x),
        }
    };

    let mut x = x0.to_vec();
    let mut fx = eval(&x);
    assert!(fx.is_finite(), "objective not finite at the starting point");

    let mut g = gradient(&x, fx);

    // Inverse Hessian approximation, row-major n×n, initialized to I.
    let mut h = vec![0.0f64; n * n];
    for i in 0..n {
        h[i * n + i] = 1.0;
    }

    let mut iterations = 0usize;
    let mut reason = TerminationReason::MaxIterations;

    while iterations < opts.max_iterations {
        if inf_norm(&g) <= opts.grad_tol * (1.0 + fx.abs()) {
            reason = TerminationReason::GradientConverged;
            break;
        }
        iterations += 1;
        // One span per iteration: the machine-readable convergence
        // trace (lnL, gradient norm, step size, line-search evals ride
        // on the end event).
        let mut it_span = crate::obsm::ITERATION.span();
        it_span.arg_u64("iter", iterations as u64);
        let ls_before = ls_cell.get();

        // Search direction d = -H g.
        let mut d = vec![0.0f64; n];
        for i in 0..n {
            let row = &h[i * n..(i + 1) * n];
            d[i] = -dot(row, &g);
        }
        let mut dg = dot(&d, &g);
        if dg >= 0.0 {
            // H lost positive definiteness (rounding): reset to steepest
            // descent.
            for i in 0..n {
                for j in 0..n {
                    h[i * n + j] = if i == j { 1.0 } else { 0.0 };
                }
            }
            for i in 0..n {
                d[i] = -g[i];
            }
            dg = dot(&d, &g);
            if dg >= 0.0 {
                reason = TerminationReason::GradientConverged;
                break;
            }
        }

        // Backtracking Armijo line search with quadratic interpolation.
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
            // Quadratic model through (0, fx), slope dg, (alpha, f_new).
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

        // BFGS update with curvature guard.
        let s: Vec<f64> = (0..n).map(|i| trial[i] - x[i]).collect();
        let y: Vec<f64> = (0..n).map(|i| g_new[i] - g[i]).collect();
        let sy = dot(&s, &y);
        let s_norm = inf_norm(&s);
        if sy > 1e-12 * s_norm.max(1e-30) {
            let rho = 1.0 / sy;
            // hy = H·y
            let mut hy = vec![0.0f64; n];
            for i in 0..n {
                hy[i] = dot(&h[i * n..(i + 1) * n], &y);
            }
            let yhy = dot(&y, &hy);
            let coef = rho * (1.0 + rho * yhy);
            for i in 0..n {
                for j in 0..n {
                    h[i * n + j] += coef * s[i] * s[j] - rho * (s[i] * hy[j] + hy[i] * s[j]);
                }
            }
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
        // f = (x-1)² + 4(y+2)²
        let f = |x: &[f64]| (x[0] - 1.0).powi(2) + 4.0 * (x[1] + 2.0).powi(2);
        let r = minimize(f, &[0.0, 0.0], &BfgsOptions::default());
        assert!((r.x[0] - 1.0).abs() < 1e-5, "{:?}", r.x);
        assert!((r.x[1] + 2.0).abs() < 1e-5, "{:?}", r.x);
        assert!(r.f < 1e-9);
        assert!(r.iterations <= 20);
    }

    #[test]
    fn rosenbrock_2d() {
        let f = |x: &[f64]| (1.0 - x[0]).powi(2) + 100.0 * (x[1] - x[0] * x[0]).powi(2);
        let r = minimize(
            f,
            &[-1.2, 1.0],
            &BfgsOptions {
                max_iterations: 2000,
                ..Default::default()
            },
        );
        assert!(
            (r.x[0] - 1.0).abs() < 1e-3,
            "{:?} after {} iters ({:?})",
            r.x,
            r.iterations,
            r.reason
        );
        assert!((r.x[1] - 1.0).abs() < 1e-3);
    }

    #[test]
    fn higher_dimensional_quadratic() {
        // f = Σ (i+1)(x_i - i)²
        let f = |x: &[f64]| {
            x.iter()
                .enumerate()
                .map(|(i, &v)| (i + 1) as f64 * (v - i as f64).powi(2))
                .sum::<f64>()
        };
        let r = minimize(f, &[0.0; 10], &BfgsOptions::default());
        for i in 0..10 {
            assert!((r.x[i] - i as f64).abs() < 1e-4, "i={i}: {}", r.x[i]);
        }
    }

    #[test]
    fn already_at_minimum() {
        let f = |x: &[f64]| x[0] * x[0];
        let r = minimize(f, &[0.0], &BfgsOptions::default());
        assert_eq!(r.reason, TerminationReason::GradientConverged);
        assert_eq!(r.iterations, 0);
    }

    #[test]
    fn forward_mode_cheaper() {
        let f = |x: &[f64]| (x[0] - 3.0).powi(2) + (x[1] + 1.0).powi(2);
        let central = minimize(f, &[0.0, 0.0], &BfgsOptions::default());
        let forward = minimize(
            f,
            &[0.0, 0.0],
            &BfgsOptions {
                grad_mode: GradMode::Forward,
                ..Default::default()
            },
        );
        assert!((forward.x[0] - 3.0).abs() < 1e-3);
        assert!(forward.f_evals < central.f_evals);
    }

    /// `f = Σ (i+1)(x_i − i)²` with its exact gradient.
    struct Bowl;

    impl Objective for Bowl {
        fn cost(&mut self, x: &[f64]) -> f64 {
            x.iter()
                .enumerate()
                .map(|(i, &v)| (i + 1) as f64 * (v - i as f64).powi(2))
                .sum()
        }

        fn gradient(&mut self, x: &[f64]) -> Vec<f64> {
            x.iter()
                .enumerate()
                .map(|(i, &v)| 2.0 * (i + 1) as f64 * (v - i as f64))
                .collect()
        }
    }

    #[test]
    fn analytic_mode_takes_no_probes() {
        let opts = |grad_mode| BfgsOptions {
            grad_mode,
            ..Default::default()
        };
        let analytic = minimize(Bowl, &[0.0; 6], &opts(GradMode::Analytic));
        let central = minimize(Bowl, &[0.0; 6], &opts(GradMode::Central));
        for (i, &v) in analytic.x.iter().enumerate() {
            assert!((v - i as f64).abs() < 1e-6, "i={i}: {v}");
        }
        // One evaluation for the start plus one per line-search trial.
        assert!(analytic.f_evals <= 1 + 3 * analytic.iterations);
        assert!(analytic.f_evals * 6 < central.f_evals);
    }

    #[test]
    #[should_panic(expected = "its own gradient")]
    fn analytic_mode_needs_a_gradient() {
        let f = |x: &[f64]| x[0] * x[0];
        let _ = minimize(
            f,
            &[1.0],
            &BfgsOptions {
                grad_mode: GradMode::Analytic,
                ..Default::default()
            },
        );
    }

    #[test]
    fn infinity_treated_as_rejection() {
        // Objective infinite left of x = 0; minimum at x = 1.
        let f = |x: &[f64]| {
            if x[0] <= 0.0 {
                f64::INFINITY
            } else {
                (x[0] - 1.0).powi(2)
            }
        };
        let r = minimize(f, &[2.0], &BfgsOptions::default());
        assert!((r.x[0] - 1.0).abs() < 1e-4, "{:?}", r.x);
    }

    #[test]
    fn iteration_cap_respected() {
        let f = |x: &[f64]| (1.0 - x[0]).powi(2) + 100.0 * (x[1] - x[0] * x[0]).powi(2);
        let r = minimize(
            f,
            &[-1.2, 1.0],
            &BfgsOptions {
                max_iterations: 3,
                ..Default::default()
            },
        );
        assert_eq!(r.iterations, 3);
        assert_eq!(r.reason, TerminationReason::MaxIterations);
    }

    #[test]
    #[should_panic(expected = "starting point")]
    fn non_finite_start_panics() {
        let f = |_: &[f64]| f64::NAN;
        let _ = minimize(f, &[0.0], &BfgsOptions::default());
    }
}
