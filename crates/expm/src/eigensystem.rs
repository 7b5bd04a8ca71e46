//! Eigendecomposition-backed transition-probability computation.

use slim_linalg::gemm::matmul;
use slim_linalg::{naive, sym_eigen, syrk, EigenMethod, Mat, SymEigen, Transpose};
use slim_model::RateMatrix;

/// The eigendecomposition of the symmetric form `A = Π^{1/2} S Π^{1/2}` of
/// one rate matrix, plus the frequency scalings needed to reconstruct
/// `P(t) = e^{Qt}` for any branch length `t`.
///
/// Building this costs O(n³) **once per distinct ω value**; each branch
/// then pays only the reconstruction (steps 3–5 of §III-A).
#[derive(Debug, Clone)]
pub struct EigenSystem {
    /// Eigenvalues/eigenvectors of `A`.
    pub eigen: SymEigen,
    /// `π_i^{1/2}`.
    pub sqrt_pi: Vec<f64>,
    /// `π_i^{-1/2}`.
    pub inv_sqrt_pi: Vec<f64>,
    /// Equilibrium frequencies π.
    pub pi: Vec<f64>,
    /// Process-unique decomposition identity — see [`EigenSystem::id`].
    id: u64,
}

/// Next [`EigenSystem::id`]; ids only need to be distinct, never ordered.
static NEXT_ID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

impl EigenSystem {
    /// Decompose a rate matrix (§III-A steps 1–2).
    ///
    /// # Errors
    /// Propagates eigensolver failures.
    pub fn from_rate_matrix(
        rm: &RateMatrix,
        method: EigenMethod,
    ) -> Result<EigenSystem, slim_linalg::LinalgError> {
        let mut eigen = sym_eigen(&rm.a, method)?;
        // A is similar to the generator Q, whose spectrum is provably in
        // (-∞, 0]; a computed positive eigenvalue is rounding noise from
        // the symmetric solve (absolute accuracy ~ n·ε·‖A‖, reaching
        // ~1e-5 when bound-corner parameters push ‖A‖ toward 1e10).
        // Unclamped it escapes through e^{λt} as a uniform row-sum
        // inflation on long branches; clamped, e^{λt} ≤ 1 always.
        for v in &mut eigen.values {
            *v = v.min(0.0);
        }
        #[cfg(feature = "sanitize")]
        slim_linalg::sanitize::check_generator_spectrum(&eigen.values, 1e-11, || {
            format!(
                "eigendecomposition of A = Π^1/2 S Π^1/2 (order {}, method {method:?}, \
                 applied_factor {})",
                rm.a.rows(),
                rm.applied_factor
            )
        });
        Ok(EigenSystem {
            eigen,
            sqrt_pi: rm.sqrt_pi.clone(),
            inv_sqrt_pi: rm.inv_sqrt_pi.clone(),
            pi: rm.pi.clone(),
            // check: allow(atomic-ordering) monotonic id allocator, no synchronization role
            id: NEXT_ID.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
        })
    }

    /// Process-unique identity of this decomposition, allocated once per
    /// [`EigenSystem::from_rate_matrix`] call and shared by clones (a
    /// clone carries the same numeric content). Two live systems with the
    /// same id reconstruct bit-identical `P(t)` for the same `t`, which
    /// is what [`crate::PtCache`] keys on — cheaper and stricter than
    /// fingerprinting the decomposition's floats.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Matrix order (61 for codon models).
    pub fn order(&self) -> usize {
        self.eigen.values.len()
    }

    /// `exp(λᵢ·t)` for all eigenvalues.
    fn exp_lambda(&self, t: f64) -> Vec<f64> {
        self.eigen.values.iter().map(|&l| (l * t).exp()).collect()
    }

    /// **Eq. 9, naive kernels** — the CodeML-style baseline.
    ///
    /// `Ỹ = X e^{Λt}` (O(n²)), then `Z = Ỹ·Xᵀ` via the textbook strided
    /// triple loop (≈ 2n³ flops), then `P = Π^{-1/2} Z Π^{1/2}` (O(n²)).
    pub fn transition_matrix_eq9_naive(&self, t: f64) -> Mat {
        let y_tilde = self.eigen.vectors.mul_diag_right(&self.exp_lambda(t));
        let z = naive::matmul_bt(&y_tilde, &self.eigen.vectors);
        self.back_transform(z, t)
    }

    /// **Eq. 9, tuned kernels** — same algorithm as
    /// [`Self::transition_matrix_eq9_naive`] but through the blocked
    /// `gemm`. Separates "better kernels" from "fewer flops" in ablations.
    // check: hot P(t) reconstruction, Eq. 9 kernel path
    pub fn transition_matrix_eq9(&self, t: f64) -> Mat {
        let y_tilde = self.eigen.vectors.mul_diag_right(&self.exp_lambda(t));
        let z = matmul(&y_tilde, Transpose::No, &self.eigen.vectors, Transpose::Yes);
        self.back_transform(z, t)
    }

    /// **Eq. 10 — the SlimCodeML path.**
    ///
    /// `Y = X e^{Λt/2}` (§III-A step 3), `Z = Y·Yᵀ` via the symmetric
    /// rank-k update (step 4, ≈ n³ flops — half of Eq. 9), then
    /// `P = Π^{-1/2} Z Π^{1/2}` (step 5).
    // check: hot P(t) reconstruction, Eq. 10 syrk path
    pub fn transition_matrix_eq10(&self, t: f64) -> Mat {
        let half: Vec<f64> = self
            .eigen
            .values
            .iter()
            .map(|&l| (l * t * 0.5).exp())
            .collect();
        let y = self.eigen.vectors.mul_diag_right(&half);
        // Lane-padded output: P(t) feeds the CPV kernels, whose column
        // loops run tail-free over the padded width (61 → 64). The
        // logical values are identical to a dense layout.
        let mut z = Mat::zeros_padded(self.order(), self.order());
        syrk(1.0, &y, 0.0, &mut z);
        self.back_transform(z, t)
    }

    /// `P = Π^{-1/2} · Z · Π^{1/2}` with negative rounding noise clamped to
    /// zero (probabilities), as CodeML does, computed in place in `z` as
    /// `(z_ij·π_i^{-1/2})·π_j^{1/2}`. `t` is the branch length the caller
    /// reconstructed at, carried for sanitize-failure context.
    fn back_transform(&self, mut p: Mat, t: f64) -> Mat {
        for (i, &r) in self.inv_sqrt_pi.iter().enumerate() {
            for (v, &c) in p.row_mut(i).iter_mut().zip(&self.sqrt_pi) {
                let x = *v * r * c;
                *v = if x < 0.0 { 0.0 } else { x };
            }
        }
        #[cfg(feature = "sanitize")]
        slim_linalg::sanitize::check_row_stochastic(&p, 1e-7, 1e-7, || {
            let lo = self
                .eigen
                .values
                .iter()
                .copied()
                .fold(f64::INFINITY, f64::min);
            let hi = self
                .eigen
                .values
                .iter()
                .copied()
                .fold(f64::NEG_INFINITY, f64::max);
            format!("P(t) reconstruction at branch length t={t} (spectrum [{lo:.6e}, {hi:.6e}])")
        });
        #[cfg(not(feature = "sanitize"))]
        let _ = t;
        p
    }

    /// The Daleckii–Krein divided differences of `e^{λt}` at branch length
    /// `t`, into the `n × n` matrix `f`:
    ///
    /// ```text
    /// F_ij = (e^{λ_i t} − e^{λ_j t}) / (λ_i − λ_j),   F_ii = t·e^{λ_i t}
    /// ```
    ///
    /// They give the Fréchet derivative of `E(t) = e^{At}` in the
    /// eigenbasis: `dE = X (F ∘ (Xᵀ dA X)) Xᵀ`. So an adjoint
    /// `H = ∂f/∂E` maps to `∂f/∂A = X (F ∘ (Xᵀ H X)) Xᵀ` (see
    /// [`from_eigenbasis`](Self::from_eigenbasis)), and to
    /// `∂f/∂t = Σ_i (XᵀHX)_ii λ_i e^{λ_i t}`.
    ///
    /// Near-equal eigenvalues (the zero mode, a repeated λ) take the
    /// `expm1` form `e^{λ_hi t}(1 − e^{−δt})/δ`, which never subtracts
    /// two close exponentials. Any pair with `δt > 10⁻³` subtracts them:
    /// its relative error is at most `2ε/(δt) < 5·10⁻¹³`.
    ///
    /// # Panics
    /// Panics if `f` is not `n × n`.
    pub fn divided_differences(&self, t: f64, f: &mut Mat) {
        let n = self.order();
        assert_eq!((f.rows(), f.cols()), (n, n), "divided_differences: shape");
        let l = &self.eigen.values;
        let e = self.exp_lambda(t);
        for i in 0..n {
            f[(i, i)] = t * e[i];
            for j in 0..i {
                let (hi, e_hi, lo, e_lo) = if l[i] >= l[j] {
                    (l[i], e[i], l[j], e[j])
                } else {
                    (l[j], e[j], l[i], e[i])
                };
                let d = hi - lo;
                let v = if d * t > 1e-3 {
                    (e_hi - e_lo) / d
                } else if d > 0.0 {
                    -e_hi * (-(d * t)).exp_m1() / d
                } else {
                    t * e_hi
                };
                f[(i, j)] = v;
                f[(j, i)] = v;
            }
        }
    }

    /// `X K Xᵀ`: an adjoint accumulated in the eigenbasis, back in the
    /// coordinates of `A` (the last step of the Daleckii–Krein map; see
    /// [`divided_differences`](Self::divided_differences)).
    pub fn from_eigenbasis(&self, k: &Mat) -> Mat {
        let x = &self.eigen.vectors;
        let xk = matmul(x, Transpose::No, k, Transpose::No);
        matmul(&xk, Transpose::No, x, Transpose::Yes)
    }

    /// **Eq. 12–13 preparation**: the symmetric matrix
    /// `M = Ŷ·Ŷᵀ` with `Ŷ = Π^{-1/2} X e^{Λt/2}`, such that
    /// `e^{Qt}·w = M·(Π·w)`.
    ///
    /// `M` is symmetric, so applying it with `symv` touches each
    /// off-diagonal entry once — "saves about half of the memory accesses"
    /// (§II-C2).
    // check: hot symmetric-form transition build
    pub fn symmetric_transition(&self, t: f64) -> crate::cpv::SymTransition {
        let half: Vec<f64> = self
            .eigen
            .values
            .iter()
            .map(|&l| (l * t * 0.5).exp())
            .collect();
        // Ŷ_ij = (X_ij·π_i^{-1/2})·e^{λ_j t/2}, built in one buffer.
        let mut y_hat = self.eigen.vectors.clone();
        for (i, &r) in self.inv_sqrt_pi.iter().enumerate() {
            for (v, &h) in y_hat.row_mut(i).iter_mut().zip(&half) {
                *v = *v * r * h;
            }
        }
        // Lane-padded for the same reason as the Eq. 10 path: `symv` row
        // slices stay logical-width, so values are unchanged.
        let mut m = Mat::zeros_padded(self.order(), self.order());
        syrk(1.0, &y_hat, 0.0, &mut m);
        // P = M·Π with π > 0, so M_ij < 0 exactly where P_ij < 0. Clamp
        // the negative rounding noise `back_transform` clamps from P, so
        // CPVs stay non-negative on this path too.
        for v in m.as_mut_slice() {
            if *v < 0.0 {
                *v = 0.0;
            }
        }
        #[cfg(feature = "sanitize")]
        {
            // The implied transition matrix is P = M·Π, so row i of P sums
            // to Σ_j M_ij·π_j — that must be 1 even though M itself is not
            // stochastic.
            use slim_linalg::NeumaierSum;
            for i in 0..self.order() {
                let mut sum = NeumaierSum::new();
                let mut max_abs = 0.0f64;
                for (j, &pij) in self.pi.iter().enumerate() {
                    let term = m[(i, j)] * pij;
                    sum.add(term);
                    max_abs = max_abs.max(term.abs());
                }
                let s = sum.total();
                slim_linalg::sanitize::check_finite("implied P row sum", s, || {
                    format!("SymTransition row {i} at branch length t={t}")
                });
                // An all-zero implied row is tolerated for the same reason
                // `check_row_stochastic` tolerates one: extreme line-search
                // scales can underflow e^{Λt} entirely, collapsing M to
                // zero — a rejected trial point, not broken algebra.
                let zero_row = s.abs() <= 1e-7 && max_abs <= 1e-7;
                if (s - 1.0).abs() > 1e-7 && !zero_row {
                    // check: allow(rob-unwrap) sanitize tripwire: a detected invariant violation must abort
                    panic!(
                        "sanitize: SymTransition implied row {i} sums to {s} \
                         (want 1 within 1e-7) at branch length t={t}"
                    );
                }
            }
        }
        crate::cpv::SymTransition::new(m, self.pi.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::taylor::expm_taylor;
    use slim_bio::GeneticCode;
    use slim_model::{build_rate_matrix, ScalePolicy};

    fn test_system(omega: f64) -> (RateMatrix, EigenSystem) {
        let code = GeneticCode::universal();
        let mut pi: Vec<f64> = (0..61).map(|i| 1.0 + ((i * 5) % 11) as f64).collect();
        let s: f64 = pi.iter().sum();
        for p in &mut pi {
            *p /= s;
        }
        let rm = build_rate_matrix(&code, 2.3, omega, &pi, ScalePolicy::PerClass);
        let es = EigenSystem::from_rate_matrix(&rm, EigenMethod::HouseholderQl).unwrap();
        (rm, es)
    }

    #[test]
    fn rows_sum_to_one_all_paths() {
        let (_, es) = test_system(0.5);
        for t in [0.01, 0.1, 1.0, 5.0] {
            for p in [
                es.transition_matrix_eq9_naive(t),
                es.transition_matrix_eq9(t),
                es.transition_matrix_eq10(t),
            ] {
                for i in 0..61 {
                    let s: f64 = p.row(i).iter().sum();
                    assert!((s - 1.0).abs() < 1e-9, "t={t} row {i}: {s}");
                }
            }
        }
    }

    #[test]
    fn eq9_and_eq10_agree() {
        let (_, es) = test_system(1.7);
        for t in [0.001, 0.05, 0.5, 2.0] {
            let p9 = es.transition_matrix_eq9(t);
            let p9n = es.transition_matrix_eq9_naive(t);
            let p10 = es.transition_matrix_eq10(t);
            assert!(p9.approx_eq(&p10, 1e-11), "eq9 vs eq10 at t={t}");
            assert!(p9.approx_eq(&p9n, 1e-11), "eq9 tuned vs naive at t={t}");
        }
    }

    #[test]
    fn matches_taylor_oracle() {
        let (rm, es) = test_system(0.3);
        for t in [0.01, 0.2, 1.0] {
            let mut qt = rm.q.clone();
            qt.scale(t);
            let oracle = expm_taylor(&qt);
            let p10 = es.transition_matrix_eq10(t);
            assert!(
                p10.approx_eq(&oracle, 1e-9),
                "t={t}: max diff {}",
                p10.max_abs_diff(&oracle)
            );
        }
    }

    #[test]
    fn t_zero_gives_identity() {
        let (_, es) = test_system(0.8);
        let p = es.transition_matrix_eq10(0.0);
        assert!(p.approx_eq(&Mat::identity(61), 1e-10));
    }

    #[test]
    fn long_time_converges_to_stationary() {
        // As t→∞ each row of P(t) approaches π.
        let (rm, es) = test_system(0.5);
        let p = es.transition_matrix_eq10(500.0);
        for i in 0..61 {
            for j in 0..61 {
                assert!((p[(i, j)] - rm.pi[j]).abs() < 1e-6, "({i},{j})");
            }
        }
    }

    #[test]
    fn probabilities_nonnegative() {
        let (_, es) = test_system(2.5);
        for t in [0.001, 0.1, 1.0, 10.0] {
            let p = es.transition_matrix_eq10(t);
            assert!(p.as_slice().iter().all(|&v| v >= 0.0), "t={t}");
        }
    }

    #[test]
    fn chapman_kolmogorov() {
        // P(s+t) = P(s)·P(t).
        let (_, es) = test_system(0.9);
        let p1 = es.transition_matrix_eq10(0.3);
        let p2 = es.transition_matrix_eq10(0.7);
        let p3 = es.transition_matrix_eq10(1.0);
        let prod = matmul(&p1, Transpose::No, &p2, Transpose::No);
        assert!(prod.approx_eq(&p3, 1e-10));
    }

    /// `∂f/∂A` for `f(A) = ⟨H, e^{At}⟩` through the Daleckii–Krein map.
    fn adjoint(es: &EigenSystem, t: f64, h: &Mat) -> Mat {
        let x = &es.eigen.vectors;
        let xh = matmul(x, Transpose::Yes, h, Transpose::No);
        let mut k = matmul(&xh, Transpose::No, x, Transpose::No);
        let mut f = Mat::zeros(es.order(), es.order());
        es.divided_differences(t, &mut f);
        for (kv, fv) in k.as_mut_slice().iter_mut().zip(f.as_slice()) {
            *kv *= fv;
        }
        es.from_eigenbasis(&k)
    }

    /// A deterministic pseudo-random matrix with entries in [-1, 1].
    fn noise(n: usize, seed: u64) -> Mat {
        let mut state = seed;
        Mat::from_fn(n, n, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        })
    }

    /// The Daleckii–Krein adjoint against central differences of
    /// `⟨H, e^{(A + h·dA)t}⟩`, with the exponential from the Taylor oracle.
    fn check_adjoint(es: &EigenSystem, a: &Mat, t: f64) {
        let n = es.order();
        let hmat = noise(n, 7);
        let mut da = noise(n, 11);
        da.symmetrize();
        let inner = |step: f64| {
            let mut m = a.clone();
            for (v, d) in m.as_mut_slice().iter_mut().zip(da.as_slice()) {
                *v = (*v + step * d) * t;
            }
            let e = expm_taylor(&m);
            e.as_slice()
                .iter()
                .zip(hmat.as_slice())
                .map(|(x, y)| x * y)
                .sum::<f64>()
        };
        let h = 1e-5;
        let numeric = (inner(h) - inner(-h)) / (2.0 * h);
        let g = adjoint(es, t, &hmat);
        let analytic: f64 = g
            .as_slice()
            .iter()
            .zip(da.as_slice())
            .map(|(x, y)| x * y)
            .sum();
        assert!(
            (analytic - numeric).abs() <= 1e-7 * (1.0 + numeric.abs()),
            "t={t}: Daleckii–Krein {analytic} vs differences {numeric}"
        );
    }

    #[test]
    fn daleckii_krein_matches_differences() {
        let (rm, es) = test_system(0.4);
        for t in [1e-6, 0.05, 0.7, 4.0] {
            check_adjoint(&es, &rm.a, t);
        }
    }

    #[test]
    fn daleckii_krein_matches_differences_on_a_degenerate_spectrum() {
        // The rate matrix's eigenvectors with a spectrum that repeats λ
        // exactly, splits pairs by 1e-13 and 1e-7, and keeps the zero mode.
        let (_, base) = test_system(0.4);
        let n = base.order();
        let mut values: Vec<f64> = (0..n).map(|k| -0.35 * (n - 1 - k) as f64).collect();
        values[10] = values[11];
        values[20] = values[21] - 1e-13;
        values[30] = values[31] - 1e-7;
        values[n - 2] = -1e-12;
        let es = EigenSystem {
            eigen: SymEigen {
                values: values.clone(),
                vectors: base.eigen.vectors.clone(),
            },
            ..base.clone()
        };
        let x = &es.eigen.vectors;
        let a = matmul(&x.mul_diag_right(&values), Transpose::No, x, Transpose::Yes);
        for t in [1e-4, 0.3, 2.5] {
            check_adjoint(&es, &a, t);
        }
    }

    #[test]
    fn symmetric_transition_matches_dense_apply() {
        let (_, es) = test_system(1.2);
        // At t = 1e-6 rounding leaves hundreds of entries of M below
        // zero unless they are clamped like P's.
        for t in [0.4, 1e-6] {
            let p = es.transition_matrix_eq10(t);
            let sym = es.symmetric_transition(t);
            assert!(sym.matrix().as_slice().iter().all(|&v| v >= 0.0), "t={t}");
            let w: Vec<f64> = (0..61).map(|i| ((i * 13 % 7) as f64 + 1.0) / 8.0).collect();
            let dense = p.mul_vec(&w);
            let via_sym = sym.apply(&w);
            for i in 0..61 {
                assert!((dense[i] - via_sym[i]).abs() < 1e-11, "t={t} i={i}");
            }
        }
    }
}
