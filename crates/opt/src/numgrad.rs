//! Forward-difference gradients: the mode the paper harness runs.
//!
//! CodeML estimates derivatives of the log-likelihood numerically. The
//! fits take the likelihood's exact gradient ([`GradMode::Analytic`]).
//! Forward differences stay for the paper's Table III/IV and Fig. 3
//! comparisons, which run both engines on [`GradMode::Forward`] so the
//! comparison stays like for like: one evaluation per coordinate, 5 + B
//! for B branches, at O(h) error. Every probe is a new point, which the
//! likelihood evaluator computes whole, as CodeML does. Forward
//! differences are [`BfgsOptions`](crate::BfgsOptions)' default, since a
//! closure objective has no exact gradient. The exact gradient's oracle
//! test uses a fourth-order difference of its own.

/// Where [`minimize`](crate::minimize) gets its gradients.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GradMode {
    /// Forward differences: one extra evaluation per coordinate (plus one
    /// shared base), O(h) error.
    Forward,
    /// The objective's own exact gradient
    /// ([`Objective::gradient`](crate::Objective::gradient)), at no
    /// objective evaluation.
    Analytic,
}

/// Relative step size: the cube root of machine epsilon, scaled by
/// `max(|x|, 1)`.
fn step(x: f64) -> f64 {
    let h = f64::EPSILON.cbrt() * x.abs().max(1.0);
    // Ensure the step is exactly representable around x to reduce rounding.
    let tmp = x + h;
    tmp - x
}

/// Forward-difference gradient of `f` at `x`, given `fx = f(x)`: one
/// probe per coordinate, in index order.
pub fn forward_gradient(mut f: impl FnMut(&[f64]) -> f64, x: &[f64], fx: f64) -> Vec<f64> {
    let mut g = vec![0.0; x.len()];
    let mut work = x.to_vec();
    for i in 0..x.len() {
        let h = step(x[i]);
        work[i] = x[i] + h;
        let fp = f(&work);
        work[i] = x[i];
        g[i] = (fp - fx) / h;
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadratic(x: &[f64]) -> f64 {
        // f = Σ (i+1)·x_i² + x₀x₁
        let mut s = 0.0;
        for (i, &v) in x.iter().enumerate() {
            s += (i + 1) as f64 * v * v;
        }
        if x.len() >= 2 {
            s += x[0] * x[1];
        }
        s
    }

    fn quadratic_grad(x: &[f64]) -> Vec<f64> {
        let mut g: Vec<f64> = x
            .iter()
            .enumerate()
            .map(|(i, &v)| 2.0 * (i + 1) as f64 * v)
            .collect();
        if x.len() >= 2 {
            g[0] += x[1];
            g[1] += x[0];
        }
        g
    }

    #[test]
    fn forward_matches_analytic_coarser() {
        let x = [1.0, -2.0, 0.5];
        let fx = quadratic(&x);
        let g = forward_gradient(quadratic, &x, fx);
        let expect = quadratic_grad(&x);
        for i in 0..3 {
            assert!((g[i] - expect[i]).abs() < 1e-4, "i={i}");
        }
    }

    #[test]
    fn transcendental_function() {
        let f = |x: &[f64]| x[0].sin() * x[1].exp();
        let x = [0.7, 0.3];
        let g = forward_gradient(f, &x, f(&x));
        assert!((g[0] - x[0].cos() * x[1].exp()).abs() < 1e-5);
        assert!((g[1] - x[0].sin() * x[1].exp()).abs() < 1e-5);
    }

    #[test]
    fn gradient_at_minimum_is_zero() {
        let x = [0.0, 0.0, 0.0];
        let g = forward_gradient(quadratic, &x, quadratic(&x));
        for (i, v) in g.into_iter().enumerate() {
            // A forward difference of Σ c_i x_i² at 0 is c_i h, h = ε^⅓.
            assert!(v.abs() < 1e-4, "i={i}: {v}");
        }
    }

    #[test]
    fn large_coordinates_use_relative_step() {
        // f(x) = x², at x = 1e8 a fixed absolute step would be hopeless.
        let f = |x: &[f64]| x[0] * x[0];
        let g = forward_gradient(f, &[1e8], 1e16);
        assert!((g[0] - 2e8).abs() / 2e8 < 1e-5);
    }
}
