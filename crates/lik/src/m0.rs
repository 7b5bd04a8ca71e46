//! The M0 (one-ratio) codon model: a single ω on every branch.
//!
//! The paper's §V-B notes that "the optimized likelihood computation can
//! also be applied to further maximum likelihood-based evolutionary
//! models"; M0 is the simplest such model and shares every building block
//! — the Eq. 1 rate matrix, the symmetric expm paths, and the evaluator
//! (a single site class, identical foreground/background ω).

use crate::engine::EngineConfig;
use crate::mixture::Mixture;
use crate::problem::LikelihoodProblem;
use crate::reuse::ReuseEvaluator;
use slim_linalg::LinalgError;

/// Log-likelihood of the alignment under M0 with parameters
/// `(kappa, omega)` and the given branch lengths: one evaluation of a
/// one-class mixture whose rate matrix is scaled to unit stationary rate.
///
/// Works on problems built with
/// [`LikelihoodProblem::new_unmarked`] — no foreground branch is needed.
///
/// # Errors
/// Propagates eigensolver failures.
///
/// # Panics
/// Panics if `branch_lengths.len()` mismatches the problem.
pub fn log_likelihood_m0(
    problem: &LikelihoodProblem,
    config: &EngineConfig,
    kappa: f64,
    omega: f64,
    branch_lengths: &[f64],
) -> Result<f64, LinalgError> {
    let value = ReuseEvaluator::new(problem, config.clone())
        .evaluate_mixture(&Mixture::m0(kappa, omega), branch_lengths)?;
    Ok(problem.weighted_sum(&value.per_pattern))
}

#[cfg(test)]
mod tests {
    use super::*;
    use slim_bio::{parse_newick, CodonAlignment, FreqModel, GeneticCode};
    use slim_model::BranchSiteModel;

    fn problem() -> LikelihoodProblem {
        let tree = parse_newick("((A:0.1,B:0.2):0.05,C:0.3);").unwrap();
        let aln =
            CodonAlignment::from_fasta(">A\nATGCCCTTT\n>B\nATGCCATTT\n>C\nATGCCCTTC\n").unwrap();
        let code = GeneticCode::universal();
        LikelihoodProblem::new_unmarked(&tree, &aln, &code, FreqModel::F3x4).unwrap()
    }

    #[test]
    fn m0_engines_agree() {
        let p = problem();
        let bl = vec![0.1; p.n_branches()];
        let base = log_likelihood_m0(&p, &EngineConfig::codeml_style(), 2.0, 0.5, &bl).unwrap();
        let slim = log_likelihood_m0(&p, &EngineConfig::slim(), 2.0, 0.5, &bl).unwrap();
        assert!(((base - slim) / base).abs() < 1e-10, "{base} vs {slim}");
        assert!(base.is_finite() && base < 0.0);
    }

    #[test]
    fn m0_equals_branch_site_with_degenerate_mixture() {
        // BSM with p0 → 1 and ω0 = ω is (almost) M0 with that ω: class 0
        // dominates and uses ω everywhere.
        let tree = parse_newick("((A:0.1,B:0.2)#1:0.05,C:0.3);").unwrap();
        let aln =
            CodonAlignment::from_fasta(">A\nATGCCCTTT\n>B\nATGCCATTT\n>C\nATGCCCTTC\n").unwrap();
        let code = GeneticCode::universal();
        let p = LikelihoodProblem::new(&tree, &aln, &code, FreqModel::F3x4).unwrap();
        let bl = vec![0.1; p.n_branches()];
        let omega = 0.42;

        let m0 = log_likelihood_m0(&p, &EngineConfig::slim(), 2.0, omega, &bl).unwrap();

        let bsm = BranchSiteModel {
            kappa: 2.0,
            omega0: omega,
            omega2: 1.0,
            p0: 1.0 - 1e-9,
            p1: 1e-9 / 2.0,
        };
        let lnl = crate::pruning::log_likelihood(&p, &EngineConfig::slim(), &bsm, &bl).unwrap();
        // The BSM shared scale reduces to μ(ω) as p0→1, matching M0's
        // per-class scale, so the two likelihoods must coincide.
        assert!((m0 - lnl).abs() < 1e-4, "M0 {m0} vs degenerate BSM {lnl}");
    }

    #[test]
    fn m0_omega_sensitivity() {
        // Purifying data (few differences, mostly synonymous-compatible):
        // small omega should beat large omega.
        let p = problem();
        let bl = vec![0.1; p.n_branches()];
        let small = log_likelihood_m0(&p, &EngineConfig::slim(), 2.0, 0.1, &bl).unwrap();
        let large = log_likelihood_m0(&p, &EngineConfig::slim(), 2.0, 5.0, &bl).unwrap();
        assert!(small.is_finite() && large.is_finite());
        assert_ne!(small, large);
    }
}
