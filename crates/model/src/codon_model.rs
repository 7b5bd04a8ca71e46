//! The codon substitution rate matrix of Eq. 1 and its symmetric forms.
//!
//! For codons `i ≠ j` (Eq. 1 of the paper):
//!
//! ```text
//! q_ij = 0                two or more nucleotide differences
//!        π_j              synonymous transversion
//!        κ π_j            synonymous transition
//!        ω π_j            non-synonymous transversion
//!        ω κ π_j          non-synonymous transition
//! ```
//!
//! The matrix factors as `Q = S Π` with `S` symmetric (`s_ij = q_ij / π_j`)
//! and `Π = diag(π)`. The paper's Eq. 2 then defines the symmetric
//! `A = Π^{1/2} S Π^{1/2}`, whose eigendecomposition yields `e^{Qt}`
//! (Eqs. 3–5); that step lives in the `slim-expm` crate.

use slim_bio::nucleotide::ChangeKind;
use slim_bio::GeneticCode;
#[cfg(test)]
use slim_bio::N_CODONS;
use slim_linalg::Mat;

/// How to normalize the rate matrix so branch lengths are measured in
/// expected substitutions per codon.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ScalePolicy {
    /// Scale each Q so its stationary flux is 1 (`-Σ πᵢ qᵢᵢ = 1`).
    #[default]
    PerClass,
    /// Divide by an externally supplied scale (used by the branch-site
    /// model to share one time scale across site classes, as CodeML does).
    External(f64),
    /// No scaling (raw Eq. 1 rates) — useful for tests.
    None,
}

/// A built codon rate matrix and the symmetric forms derived from it.
#[derive(Debug, Clone)]
pub struct RateMatrix {
    /// The (scaled) instantaneous rate matrix `Q`, rows summing to zero.
    pub q: Mat,
    /// Symmetric matrix `A = Π^{1/2} S Π^{1/2}` at the same scale as `q`.
    pub a: Mat,
    /// Equilibrium codon frequencies π (length 61).
    pub pi: Vec<f64>,
    /// `π_i^{+1/2}` (length 61), cached for the expm back-transform.
    pub sqrt_pi: Vec<f64>,
    /// `π_i^{-1/2}` (length 61).
    pub inv_sqrt_pi: Vec<f64>,
    /// The stationary flux `-Σ πᵢ qᵢᵢ` of the **unscaled** Eq. 1 matrix;
    /// callers implementing shared scaling divide by a mix of these.
    pub raw_rate: f64,
    /// The factor actually applied: `q = factor · q_raw`. Participates in
    /// eigendecomposition cache keys.
    pub applied_factor: f64,
}

/// Build the Eq. 1 rate matrix for one ω class.
///
/// # Panics
/// Panics if `pi` is not a valid length-61 distribution or if `kappa`/
/// `omega` are not finite and positive (ω may be 0 for a fully conserved
/// class; CodeML bounds it away from 0 during optimization, but the matrix
/// itself is well-defined).
pub fn build_rate_matrix(
    code: &GeneticCode,
    kappa: f64,
    omega: f64,
    pi: &[f64],
    scale: ScalePolicy,
) -> RateMatrix {
    assert_eq!(
        pi.len(),
        code.n_sense(),
        "pi must have one entry per sense codon"
    );
    assert!(kappa.is_finite() && kappa > 0.0, "kappa must be positive");
    assert!(
        omega.is_finite() && omega >= 0.0,
        "omega must be non-negative"
    );
    debug_assert!(
        (pi.iter().sum::<f64>() - 1.0).abs() < 1e-9,
        "pi must sum to 1"
    );

    let n = code.n_sense();
    let mut q = Mat::zeros(n, n);

    // Off-diagonal rates per Eq. 1.
    for i in 0..n {
        let ci = code.sense_codon(i);
        for j in 0..n {
            if i == j {
                continue;
            }
            let cj = code.sense_codon(j);
            let Some(change) = ci.single_change(cj) else {
                continue;
            };
            let mut rate = pi[j];
            if change.kind == ChangeKind::Transition {
                rate *= kappa;
            }
            if !code.is_synonymous(ci, cj) {
                rate *= omega;
            }
            q[(i, j)] = rate;
            let _ = change;
        }
    }

    // Diagonal: rows sum to zero.
    for i in 0..n {
        let row_sum: f64 = q.row(i).iter().sum::<f64>() - q[(i, i)];
        q[(i, i)] = -row_sum;
    }

    // Stationary flux of the raw matrix.
    let raw_rate: f64 = (0..n).map(|i| -pi[i] * q[(i, i)]).sum();

    let factor = match scale {
        ScalePolicy::PerClass => {
            if raw_rate > 0.0 {
                1.0 / raw_rate
            } else {
                1.0 // omega = 0 with degenerate pi could zero the flux
            }
        }
        ScalePolicy::External(s) => {
            assert!(s > 0.0, "external scale must be positive");
            1.0 / s
        }
        ScalePolicy::None => 1.0,
    };
    if factor != 1.0 {
        q.scale(factor);
    }

    // Symmetric form A = Π^{1/2} S Π^{1/2} where S = Q Π^{-1}:
    // a_ij = sqrt(π_i) q_ij / sqrt(π_j).
    let sqrt_pi: Vec<f64> = pi.iter().map(|&p| p.sqrt()).collect();
    let inv_sqrt_pi: Vec<f64> = sqrt_pi.iter().map(|&s| 1.0 / s).collect();
    let mut a = q.mul_diag_left(&sqrt_pi).mul_diag_right(&inv_sqrt_pi);
    // Symmetric by detailed balance (π_i q_ij = π_j q_ji); average away
    // rounding noise so downstream eigensolvers see an exactly symmetric
    // matrix.
    a.symmetrize();

    #[cfg(feature = "sanitize")]
    {
        slim_linalg::sanitize::check_finite_nonneg("pi", pi, || {
            format!("build_rate_matrix(kappa={kappa}, omega={omega})")
        });
        slim_linalg::sanitize::check_generator_rows(&q, 1e-9, || {
            format!("build_rate_matrix(kappa={kappa}, omega={omega}, applied_factor={factor})")
        });
    }

    RateMatrix {
        q,
        a,
        pi: pi.to_vec(),
        sqrt_pi,
        inv_sqrt_pi,
        raw_rate,
        applied_factor: factor,
    }
}

/// Decompose the stationary flux of the Eq. 1 matrix into its synonymous
/// and non-synonymous parts: `μ(ω) = syn + ω · nonsyn`.
///
/// The flux is linear in ω because ω multiplies exactly the
/// non-synonymous rates; this lets callers compute the **shared**
/// branch-site scale (the mixture-averaged background rate CodeML uses)
/// without building any extra matrices.
pub fn rate_components(code: &GeneticCode, kappa: f64, pi: &[f64]) -> (f64, f64) {
    let f = RateComponents::new(code, pi).fluxes(kappa);
    (f.syn, f.nonsyn)
}

/// The four fixed rate components of the Eq. 1 matrix — transition or
/// transversion, synonymous or not — as the sparse pairs of codons one
/// nucleotide apart. The unscaled symmetric form is
/// `Ã(κ, ω) = C_tv,syn + κ C_ts,syn + ω C_tv,non + κω C_ts,non`, each
/// component with its own diagonal (rows of Q sum to zero per component),
/// so `∂Ã/∂κ` and `∂Ã/∂ω` are fixed combinations of the four. Built once
/// per (code, π) and used only for derivatives: likelihood values never
/// read it.
#[derive(Debug, Clone)]
pub struct RateComponents {
    /// `(i, j, π_i π_j, π_j, transition, synonymous)` for each ordered
    /// pair of codons one nucleotide apart, in row-major order.
    pairs: Vec<(usize, usize, f64, f64, bool, bool)>,
}

/// `∂Ã/∂κ` and `∂Ã/∂ω` contracted with an adjoint (see
/// [`RateComponents::contract`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KappaOmega {
    /// The κ component.
    pub kappa: f64,
    /// The ω component.
    pub omega: f64,
}

/// The stationary fluxes of [`rate_components`] and their κ derivatives
/// (see [`RateComponents::fluxes`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fluxes {
    /// Synonymous flux at κ.
    pub syn: f64,
    /// Non-synonymous flux at κ (per unit ω).
    pub nonsyn: f64,
    /// `∂syn/∂κ`.
    pub dsyn: f64,
    /// `∂nonsyn/∂κ`.
    pub dnonsyn: f64,
}

impl RateComponents {
    /// The components of the Eq. 1 matrix for `code` under `pi`.
    ///
    /// # Panics
    /// Panics if `pi` has no entry per sense codon.
    pub fn new(code: &GeneticCode, pi: &[f64]) -> RateComponents {
        assert_eq!(
            pi.len(),
            code.n_sense(),
            "pi must have one entry per sense codon"
        );
        let n = code.n_sense();
        let mut pairs = Vec::new();
        for i in 0..n {
            let ci = code.sense_codon(i);
            for j in (0..n).filter(|&j| j != i) {
                let cj = code.sense_codon(j);
                if let Some(change) = ci.single_change(cj) {
                    pairs.push((
                        i,
                        j,
                        pi[i] * pi[j],
                        pi[j],
                        change.kind == ChangeKind::Transition,
                        code.is_synonymous(ci, cj),
                    ));
                }
            }
        }
        RateComponents { pairs }
    }

    /// `⟨M, ∂Ã/∂κ⟩` and `⟨M, ∂Ã/∂ω⟩` at `(κ, ω)`, for an adjoint `M`
    /// over the unscaled symmetric form `Ã` (so a scaled `A = Ã/μ̄` divides
    /// both by `μ̄`). Off the diagonal `Ã_ij = √(π_i π_j) κ^ts ω^non`, and
    /// `Ã_ii = −Σ_j π_j κ^ts ω^non`.
    pub fn contract(&self, m: &slim_linalg::Mat, kappa: f64, omega: f64) -> KappaOmega {
        let mut out = KappaOmega {
            kappa: 0.0,
            omega: 0.0,
        };
        for &(i, j, pipj, pj, transition, synonymous) in &self.pairs {
            // d Ã/d(rate of this pair): +√(π_i π_j) at (i, j), −π_j at (i, i).
            let term = m[(i, j)] * pipj.sqrt() - m[(i, i)] * pj;
            if transition {
                out.kappa += term * if synonymous { 1.0 } else { omega };
            }
            if !synonymous {
                out.omega += term * if transition { kappa } else { 1.0 };
            }
        }
        out
    }

    /// The synonymous and non-synonymous stationary fluxes at `κ` — what
    /// [`rate_components`] returns, summed pair by pair in row-major
    /// order — and their κ derivatives: the inputs to a shared scale
    /// `Σ p (syn + ω·nonsyn)` and its derivatives.
    pub fn fluxes(&self, kappa: f64) -> Fluxes {
        let mut f = Fluxes {
            syn: 0.0,
            nonsyn: 0.0,
            dsyn: 0.0,
            dnonsyn: 0.0,
        };
        for &(_, _, pipj, _, transition, synonymous) in &self.pairs {
            let (rate, d) = if transition {
                (pipj * kappa, pipj)
            } else {
                (pipj, 0.0)
            };
            let (value, slope) = if synonymous {
                (&mut f.syn, &mut f.dsyn)
            } else {
                (&mut f.nonsyn, &mut f.dnonsyn)
            };
            *value += rate;
            *slope += d;
        }
        f
    }
}

impl RateMatrix {
    /// Matrix order (number of sense codons).
    pub fn order(&self) -> usize {
        self.pi.len()
    }

    /// The stationary substitution rate `-Σ πᵢ qᵢᵢ` of the **scaled**
    /// matrix (1.0 under [`ScalePolicy::PerClass`]).
    pub fn stationary_rate(&self) -> f64 {
        (0..self.order())
            .map(|i| -self.pi[i] * self.q[(i, i)])
            .sum()
    }

    /// Verify detailed balance `πᵢ qᵢⱼ = πⱼ qⱼᵢ` within `tol`
    /// (diagnostic/test helper — time-reversibility is what makes the
    /// symmetric expm trick valid).
    pub fn max_detailed_balance_violation(&self) -> f64 {
        let mut worst = 0.0f64;
        let n = self.order();
        for i in 0..n {
            for j in (i + 1)..n {
                let v = (self.pi[i] * self.q[(i, j)] - self.pi[j] * self.q[(j, i)]).abs();
                worst = worst.max(v);
            }
        }
        worst
    }
}

/// Build a Muse–Gaut (MG94-style) rate matrix: the rate of a single
/// nucleotide change is proportional to the **target nucleotide**'s
/// frequency at the changing codon position (times the usual κ/ω
/// factors), rather than the whole target-codon frequency as in the
/// GY94-style Eq. 1 matrix.
///
/// The stationary distribution of this chain is the product measure of
/// the positional nucleotide frequencies restricted to sense codons
/// (returned in [`RateMatrix::pi`]); the chain is reversible with respect
/// to it, so the same symmetric-eigendecomposition expm pipeline applies
/// unchanged. CodeML offers both parameterizations; this reproduction's
/// likelihood engines use GY94 (the paper's setting), with MG94 provided
/// as substrate for the §V-B "further models".
///
/// # Panics
/// Panics if `pos_freqs` rows are not distributions or κ/ω are invalid.
pub fn build_rate_matrix_mg94(
    code: &GeneticCode,
    kappa: f64,
    omega: f64,
    pos_freqs: &[[f64; 4]; 3],
    scale: ScalePolicy,
) -> RateMatrix {
    assert!(kappa.is_finite() && kappa > 0.0);
    assert!(omega.is_finite() && omega >= 0.0);
    for row in pos_freqs {
        let s: f64 = row.iter().sum();
        assert!(
            (s - 1.0).abs() < 1e-9,
            "positional frequencies must sum to 1"
        );
        assert!(row.iter().all(|&f| f > 0.0));
    }

    let n = code.n_sense();
    // Stationary distribution: product of positional frequencies over
    // sense codons, renormalized.
    let mut pi = vec![0.0f64; n];
    for (i, codon) in code.sense_codons().enumerate() {
        pi[i] = (0..3).map(|p| pos_freqs[p][codon.at(p).index()]).product();
    }
    let total: f64 = pi.iter().sum();
    for v in &mut pi {
        *v /= total;
    }

    let mut q = Mat::zeros(n, n);
    for i in 0..n {
        let ci = code.sense_codon(i);
        for j in 0..n {
            if i == j {
                continue;
            }
            let cj = code.sense_codon(j);
            let Some(change) = ci.single_change(cj) else {
                continue;
            };
            let mut rate = pos_freqs[change.position][change.to.index()];
            if change.kind == ChangeKind::Transition {
                rate *= kappa;
            }
            if !code.is_synonymous(ci, cj) {
                rate *= omega;
            }
            q[(i, j)] = rate;
        }
    }
    for i in 0..n {
        let row_sum: f64 = q.row(i).iter().sum::<f64>() - q[(i, i)];
        q[(i, i)] = -row_sum;
    }
    let raw_rate: f64 = (0..n).map(|i| -pi[i] * q[(i, i)]).sum();
    let factor = match scale {
        ScalePolicy::PerClass => {
            if raw_rate > 0.0 {
                1.0 / raw_rate
            } else {
                1.0
            }
        }
        ScalePolicy::External(s) => {
            assert!(s > 0.0);
            1.0 / s
        }
        ScalePolicy::None => 1.0,
    };
    if factor != 1.0 {
        q.scale(factor);
    }

    let sqrt_pi: Vec<f64> = pi.iter().map(|&p| p.sqrt()).collect();
    let inv_sqrt_pi: Vec<f64> = sqrt_pi.iter().map(|&s| 1.0 / s).collect();
    let mut a = q.mul_diag_left(&sqrt_pi).mul_diag_right(&inv_sqrt_pi);
    a.symmetrize();

    #[cfg(feature = "sanitize")]
    slim_linalg::sanitize::check_generator_rows(&q, 1e-9, || {
        format!("build_rate_matrix_mg94(kappa={kappa}, omega={omega}, applied_factor={factor})")
    });

    RateMatrix {
        q,
        a,
        pi,
        sqrt_pi,
        inv_sqrt_pi,
        raw_rate,
        applied_factor: factor,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slim_bio::Codon;

    fn uniform_pi() -> Vec<f64> {
        vec![1.0 / N_CODONS as f64; N_CODONS]
    }

    fn nonuniform_pi() -> Vec<f64> {
        // Deterministic non-uniform distribution.
        let mut pi: Vec<f64> = (0..N_CODONS).map(|i| 1.0 + ((i * 7) % 13) as f64).collect();
        let s: f64 = pi.iter().sum();
        for p in &mut pi {
            *p /= s;
        }
        pi
    }

    #[test]
    fn rows_sum_to_zero() {
        let code = GeneticCode::universal();
        let rm = build_rate_matrix(&code, 2.5, 0.4, &nonuniform_pi(), ScalePolicy::PerClass);
        for i in 0..N_CODONS {
            let s: f64 = rm.q.row(i).iter().sum();
            assert!(s.abs() < 1e-12, "row {i} sums to {s}");
        }
    }

    #[test]
    fn per_class_scaling_gives_unit_rate() {
        let code = GeneticCode::universal();
        let rm = build_rate_matrix(&code, 2.0, 1.5, &nonuniform_pi(), ScalePolicy::PerClass);
        assert!((rm.stationary_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn external_scaling_divides() {
        let code = GeneticCode::universal();
        let raw = build_rate_matrix(&code, 2.0, 0.5, &uniform_pi(), ScalePolicy::None);
        let scaled = build_rate_matrix(&code, 2.0, 0.5, &uniform_pi(), ScalePolicy::External(2.0));
        assert!((raw.q[(0, 1)] / 2.0 - scaled.q[(0, 1)]).abs() < 1e-15);
    }

    #[test]
    fn detailed_balance_holds() {
        let code = GeneticCode::universal();
        let rm = build_rate_matrix(&code, 3.0, 0.2, &nonuniform_pi(), ScalePolicy::PerClass);
        assert!(rm.max_detailed_balance_violation() < 1e-15);
    }

    #[test]
    fn a_is_symmetric_similarity_of_q() {
        let code = GeneticCode::universal();
        let rm = build_rate_matrix(&code, 2.0, 0.7, &nonuniform_pi(), ScalePolicy::PerClass);
        assert!(rm.a.asymmetry() < 1e-15);
        // A = Π^{1/2} Q Π^{-1/2}: check a few entries directly.
        for (i, j) in [(0usize, 1usize), (5, 20), (33, 60)] {
            let expect = rm.sqrt_pi[i] * rm.q[(i, j)] * rm.inv_sqrt_pi[j];
            let got = rm.a[(i, j)];
            // a was symmetrized; compare against the average of both forms
            let expect_t = rm.sqrt_pi[j] * rm.q[(j, i)] * rm.inv_sqrt_pi[i];
            assert!((got - 0.5 * (expect + expect_t)).abs() < 1e-15);
        }
    }

    #[test]
    fn multi_nucleotide_changes_have_zero_rate() {
        let code = GeneticCode::universal();
        let rm = build_rate_matrix(&code, 2.0, 0.5, &uniform_pi(), ScalePolicy::None);
        let i = code.sense_index(Codon::from_str("TTT").unwrap()).unwrap();
        let j = code.sense_index(Codon::from_str("CCT").unwrap()).unwrap(); // 2 changes
        let k = code.sense_index(Codon::from_str("AAA").unwrap()).unwrap(); // 3 changes
        assert_eq!(rm.q[(i, j)], 0.0);
        assert_eq!(rm.q[(i, k)], 0.0);
    }

    #[test]
    fn kappa_multiplies_transitions_only() {
        let code = GeneticCode::universal();
        let pi = uniform_pi();
        let rm1 = build_rate_matrix(&code, 1.0, 1.0, &pi, ScalePolicy::None);
        let rm2 = build_rate_matrix(&code, 5.0, 1.0, &pi, ScalePolicy::None);
        // TTT→TTC is a transition (T→C): rate multiplies by κ.
        let i = code.sense_index(Codon::from_str("TTT").unwrap()).unwrap();
        let j = code.sense_index(Codon::from_str("TTC").unwrap()).unwrap();
        assert!((rm2.q[(i, j)] / rm1.q[(i, j)] - 5.0).abs() < 1e-12);
        // TTT→TTA is a transversion (T→A): rate unchanged.
        let k = code.sense_index(Codon::from_str("TTA").unwrap()).unwrap();
        assert!((rm2.q[(i, k)] - rm1.q[(i, k)]).abs() < 1e-15);
    }

    #[test]
    fn omega_multiplies_nonsynonymous_only() {
        let code = GeneticCode::universal();
        let pi = uniform_pi();
        let rm1 = build_rate_matrix(&code, 2.0, 1.0, &pi, ScalePolicy::None);
        let rm2 = build_rate_matrix(&code, 2.0, 3.0, &pi, ScalePolicy::None);
        // TTT(F)→TTC(F) synonymous: unchanged.
        let i = code.sense_index(Codon::from_str("TTT").unwrap()).unwrap();
        let j = code.sense_index(Codon::from_str("TTC").unwrap()).unwrap();
        assert!((rm2.q[(i, j)] - rm1.q[(i, j)]).abs() < 1e-15);
        // TTT(F)→TTA(L) non-synonymous: ×3.
        let k = code.sense_index(Codon::from_str("TTA").unwrap()).unwrap();
        assert!((rm2.q[(i, k)] / rm1.q[(i, k)] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn omega_zero_freezes_nonsynonymous() {
        let code = GeneticCode::universal();
        let rm = build_rate_matrix(&code, 2.0, 0.0, &uniform_pi(), ScalePolicy::None);
        let i = code.sense_index(Codon::from_str("TTT").unwrap()).unwrap();
        let k = code.sense_index(Codon::from_str("TTA").unwrap()).unwrap();
        assert_eq!(rm.q[(i, k)], 0.0);
        // Synonymous rates survive.
        let j = code.sense_index(Codon::from_str("TTC").unwrap()).unwrap();
        assert!(rm.q[(i, j)] > 0.0);
    }

    #[test]
    fn rate_components_reconstruct_flux() {
        // μ(ω) from the components must equal the raw_rate of the built
        // matrix for several ω.
        let code = GeneticCode::universal();
        let pi = nonuniform_pi();
        let (syn, nonsyn) = rate_components(&code, 2.3, &pi);
        assert!(syn > 0.0 && nonsyn > 0.0);
        for omega in [0.0, 0.5, 1.0, 4.0] {
            let rm = build_rate_matrix(&code, 2.3, omega, &pi, ScalePolicy::None);
            let mu = syn + omega * nonsyn;
            assert!(
                (rm.raw_rate - mu).abs() < 1e-12,
                "omega={omega}: {} vs {mu}",
                rm.raw_rate
            );
        }
    }

    #[test]
    fn rate_components_give_the_matrix_derivatives() {
        // ⟨M, ∂Ã/∂κ⟩ and ⟨M, ∂Ã/∂ω⟩ against central differences of the
        // unscaled symmetric form, and the fluxes against rate_components.
        let code = GeneticCode::universal();
        let pi = nonuniform_pi();
        let comps = RateComponents::new(&code, &pi);
        let m = Mat::from_fn(N_CODONS, N_CODONS, |i, j| {
            ((i * 7 + j * 3) % 11) as f64 - 5.0
        });
        let inner = |kappa: f64, omega: f64| {
            let a = build_rate_matrix(&code, kappa, omega, &pi, ScalePolicy::None).a;
            a.as_slice()
                .iter()
                .zip(m.as_slice())
                .map(|(x, y)| x * y)
                .sum::<f64>()
        };
        let (kappa, omega, h) = (2.3, 0.4, 1e-5);
        let got = comps.contract(&m, kappa, omega);
        let dk = (inner(kappa + h, omega) - inner(kappa - h, omega)) / (2.0 * h);
        let dw = (inner(kappa, omega + h) - inner(kappa, omega - h)) / (2.0 * h);
        assert!(
            (got.kappa - dk).abs() < 1e-7 * (1.0 + dk.abs()),
            "{} vs {dk}",
            got.kappa
        );
        assert!(
            (got.omega - dw).abs() < 1e-7 * (1.0 + dw.abs()),
            "{} vs {dw}",
            got.omega
        );
        let f = comps.fluxes(kappa);
        let (syn, nonsyn) = rate_components(&code, kappa, &pi);
        assert_eq!((f.syn, f.nonsyn), (syn, nonsyn));
        let (syn_h, nonsyn_h) = rate_components(&code, kappa + h, &pi);
        assert!((f.dsyn - (syn_h - syn) / h).abs() < 1e-8);
        assert!((f.dnonsyn - (nonsyn_h - nonsyn) / h).abs() < 1e-8);
    }

    #[test]
    fn applied_factor_recorded() {
        let code = GeneticCode::universal();
        let pi = uniform_pi();
        let rm = build_rate_matrix(&code, 2.0, 0.5, &pi, ScalePolicy::None);
        assert_eq!(rm.applied_factor, 1.0);
        let rm2 = build_rate_matrix(&code, 2.0, 0.5, &pi, ScalePolicy::External(4.0));
        assert!((rm2.applied_factor - 0.25).abs() < 1e-15);
    }

    fn skewed_pos_freqs() -> [[f64; 4]; 3] {
        [
            [0.1, 0.2, 0.3, 0.4],
            [0.4, 0.3, 0.2, 0.1],
            [0.25, 0.25, 0.25, 0.25],
        ]
    }

    #[test]
    fn mg94_rows_sum_to_zero_and_reversible() {
        let code = GeneticCode::universal();
        let rm =
            build_rate_matrix_mg94(&code, 2.5, 0.4, &skewed_pos_freqs(), ScalePolicy::PerClass);
        for i in 0..N_CODONS {
            let s: f64 = rm.q.row(i).iter().sum();
            assert!(s.abs() < 1e-12, "row {i}");
        }
        assert!(rm.max_detailed_balance_violation() < 1e-15);
        assert!((rm.stationary_rate() - 1.0).abs() < 1e-12);
        assert!(rm.a.asymmetry() < 1e-15);
    }

    #[test]
    fn mg94_rate_uses_target_nucleotide_frequency() {
        let code = GeneticCode::universal();
        let rm = build_rate_matrix_mg94(&code, 1.0, 1.0, &skewed_pos_freqs(), ScalePolicy::None);
        // TTT → GTT (position 0, target G with f = 0.4, transversion) vs
        // TTT → CTT (position 0, target C with f = 0.2, transition... no:
        // T→C is a transition; use T→A (f=0.3, transversion) instead).
        let i = code.sense_index(Codon::from_str("TTT").unwrap()).unwrap();
        let j_g = code.sense_index(Codon::from_str("GTT").unwrap()).unwrap();
        let j_a = code.sense_index(Codon::from_str("ATT").unwrap()).unwrap();
        // Both transversions at position 0: ratio of rates = ratio of
        // target nucleotide frequencies (0.4 / 0.3).
        let ratio = rm.q[(i, j_g)] / rm.q[(i, j_a)];
        assert!((ratio - 0.4 / 0.3).abs() < 1e-12, "{ratio}");
    }

    #[test]
    fn mg94_uniform_freqs_matches_gy94_uniform() {
        // With uniform positional frequencies, MG94 rates are proportional
        // to GY94 rates under uniform codon frequencies — the chains are
        // identical after normalization.
        let code = GeneticCode::universal();
        let uniform_pos = [[0.25f64; 4]; 3];
        let mg = build_rate_matrix_mg94(&code, 2.0, 0.5, &uniform_pos, ScalePolicy::PerClass);
        let gy = build_rate_matrix(&code, 2.0, 0.5, &uniform_pi(), ScalePolicy::PerClass);
        // Stationary distributions differ (MG94's is uniform over the
        // product measure restricted to sense codons = uniform), so the
        // normalized generators must agree entry-wise.
        assert!(mg.q.approx_eq(&gy.q, 1e-12));
    }

    #[test]
    fn stationary_distribution_is_left_null_vector() {
        // πᵀ Q = 0 (π is stationary for the generator).
        let code = GeneticCode::universal();
        let pi = nonuniform_pi();
        let rm = build_rate_matrix(&code, 2.0, 0.8, &pi, ScalePolicy::PerClass);
        for j in 0..N_CODONS {
            let s: f64 = (0..N_CODONS).map(|i| pi[i] * rm.q[(i, j)]).sum();
            assert!(s.abs() < 1e-13, "column {j}: {s}");
        }
    }
}
