//! Finite-difference gradients.
//!
//! CodeML estimates derivatives of the log-likelihood numerically; so do
//! we. Central differences are more accurate (O(h²)); forward differences
//! halve the function-evaluation count (O(h)), which matters because each
//! evaluation is a full tree-likelihood computation.

/// Finite-difference flavor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GradMode {
    /// Two evaluations per coordinate, O(h²) error.
    #[default]
    Central,
    /// One extra evaluation per coordinate (plus one shared base), O(h)
    /// error.
    Forward,
}

/// Relative step size: cube root of machine epsilon is the classic
/// optimum for central differences on smooth functions.
fn step(x: f64) -> f64 {
    let h = f64::EPSILON.cbrt() * x.abs().max(1.0);
    // Ensure the step is exactly representable around x to reduce rounding.
    let tmp = x + h;
    tmp - x
}

/// Central-difference gradient of `f` at `x`, probing the last coordinate
/// first: fits put branch lengths after the globals, so their probes start
/// from the likelihood evaluator's state at `x`, which a global probe clears.
pub fn central_gradient(mut f: impl FnMut(&[f64]) -> f64, x: &[f64]) -> Vec<f64> {
    let mut g = vec![0.0; x.len()];
    let mut work = x.to_vec();
    for i in (0..x.len()).rev() {
        let h = step(x[i]);
        work[i] = x[i] + h;
        let fp = f(&work);
        work[i] = x[i] - h;
        let fm = f(&work);
        work[i] = x[i];
        g[i] = (fp - fm) / (2.0 * h);
    }
    g
}

/// Forward-difference gradient of `f` at `x`, given `fx = f(x)`, probing
/// the last coordinate first (see [`central_gradient`]).
pub fn forward_gradient(mut f: impl FnMut(&[f64]) -> f64, x: &[f64], fx: f64) -> Vec<f64> {
    let mut g = vec![0.0; x.len()];
    let mut work = x.to_vec();
    for i in (0..x.len()).rev() {
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
    fn central_matches_analytic() {
        let x = [1.0, -2.0, 0.5];
        let g = central_gradient(quadratic, &x);
        let expect = quadratic_grad(&x);
        for i in 0..3 {
            assert!(
                (g[i] - expect[i]).abs() < 1e-8,
                "i={i}: {} vs {}",
                g[i],
                expect[i]
            );
        }
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
        let g = central_gradient(f, &x);
        assert!((g[0] - x[0].cos() * x[1].exp()).abs() < 1e-9);
        assert!((g[1] - x[0].sin() * x[1].exp()).abs() < 1e-9);
    }

    #[test]
    fn gradient_at_minimum_is_zero() {
        let g = central_gradient(quadratic, &[0.0, 0.0, 0.0]);
        for v in g {
            assert!(v.abs() < 1e-10);
        }
    }

    #[test]
    fn coordinates_are_probed_last_first() {
        // Each probe moves exactly one coordinate off x; record which.
        let x = [1.0, -2.0, 0.5, 3.0];
        let probed = |mode: GradMode| {
            let mut order = Vec::new();
            let f = |p: &[f64]| {
                let moved: Vec<usize> = (0..x.len()).filter(|&i| p[i] != x[i]).collect();
                assert_eq!(moved.len(), 1, "one coordinate per probe");
                order.push(moved[0]);
                quadratic(p)
            };
            match mode {
                GradMode::Central => central_gradient(f, &x),
                GradMode::Forward => forward_gradient(f, &x, quadratic(&x)),
            };
            order
        };
        assert_eq!(probed(GradMode::Central), [3, 3, 2, 2, 1, 1, 0, 0]);
        assert_eq!(probed(GradMode::Forward), [3, 2, 1, 0]);
    }

    #[test]
    fn large_coordinates_use_relative_step() {
        // f(x) = x², at x = 1e8 a fixed absolute step would be hopeless.
        let f = |x: &[f64]| x[0] * x[0];
        let g = central_gradient(f, &[1e8]);
        assert!((g[0] - 2e8).abs() / 2e8 < 1e-7);
    }
}
