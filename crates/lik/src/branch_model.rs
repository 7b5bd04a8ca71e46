//! The two-ratio *branch* model: one ω on the foreground branch, another
//! everywhere else, with no site classes.
//!
//! Historically the precursor of the branch-site model (and still used as
//! a complementary test); included as another §V-B "further model" that
//! the optimized pipeline serves unchanged: a one-class mixture with two
//! ω values, so two eigendecompositions per evaluation (one when the ω
//! values coincide).

use crate::engine::EngineConfig;
use crate::mixture::Mixture;
use crate::problem::LikelihoodProblem;
use crate::reuse::ReuseEvaluator;
use slim_linalg::LinalgError;

/// Log-likelihood under the two-ratio branch model.
///
/// `omega_background` applies on all branches except the foreground one,
/// which uses `omega_foreground`. The rate scale is the background flux
/// (branch lengths are expected substitutions per codon under background
/// conditions, CodeML's convention for branch models).
///
/// # Errors
/// Propagates eigensolver failures.
///
/// # Panics
/// Panics on branch-length length mismatch (and the problem must have a
/// foreground branch, enforced at problem construction).
pub fn log_likelihood_branch(
    problem: &LikelihoodProblem,
    config: &EngineConfig,
    kappa: f64,
    omega_background: f64,
    omega_foreground: f64,
    branch_lengths: &[f64],
) -> Result<f64, LinalgError> {
    let mixture = Mixture::two_ratio(kappa, omega_background, omega_foreground);
    let value =
        ReuseEvaluator::new(problem, config.clone()).evaluate_mixture(&mixture, branch_lengths)?;
    Ok(problem.weighted_sum(&value.per_pattern))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::m0::log_likelihood_m0;
    use slim_bio::{parse_newick, CodonAlignment, FreqModel, GeneticCode};

    fn problem() -> LikelihoodProblem {
        let tree = parse_newick("((A:0.1,B:0.2)#1:0.05,C:0.3);").unwrap();
        let aln =
            CodonAlignment::from_fasta(">A\nATGCCCTTTAAG\n>B\nATGCCATTTAAG\n>C\nATGCCCTTCAAA\n")
                .unwrap();
        let code = GeneticCode::universal();
        LikelihoodProblem::new(&tree, &aln, &code, FreqModel::F3x4).unwrap()
    }

    #[test]
    fn reduces_to_m0_when_omegas_equal() {
        let p = problem();
        let bl = vec![0.1; p.n_branches()];
        let omega = 0.37;
        let two_ratio =
            log_likelihood_branch(&p, &EngineConfig::slim(), 2.0, omega, omega, &bl).unwrap();
        let m0 = log_likelihood_m0(&p, &EngineConfig::slim(), 2.0, omega, &bl).unwrap();
        assert!(
            (two_ratio - m0).abs() < 1e-10,
            "two-ratio {two_ratio} vs M0 {m0}"
        );
    }

    #[test]
    fn engines_agree() {
        let p = problem();
        let bl = vec![0.1; p.n_branches()];
        let base =
            log_likelihood_branch(&p, &EngineConfig::codeml_style(), 2.0, 0.2, 3.0, &bl).unwrap();
        let slim = log_likelihood_branch(&p, &EngineConfig::slim(), 2.0, 0.2, 3.0, &bl).unwrap();
        assert!(((base - slim) / base).abs() < 1e-10);
    }

    #[test]
    fn foreground_omega_matters() {
        let p = problem();
        let bl = vec![0.1; p.n_branches()];
        let l1 = log_likelihood_branch(&p, &EngineConfig::slim(), 2.0, 0.2, 0.2, &bl).unwrap();
        let l2 = log_likelihood_branch(&p, &EngineConfig::slim(), 2.0, 0.2, 5.0, &bl).unwrap();
        assert!((l1 - l2).abs() > 1e-8, "foreground omega had no effect");
    }
}
