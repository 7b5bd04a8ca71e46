//! Likelihood for the M1a/M2a *site* models (ω varies across sites, not
//! branches) — the §V-B "further models" extension: a mixture of one
//! class per ω, evaluated by the same evaluator as the branch-site model.

use crate::engine::EngineConfig;
use crate::mixture::Mixture;
use crate::problem::LikelihoodProblem;
use crate::pruning::LikelihoodValue;
use crate::reuse::ReuseEvaluator;
use slim_linalg::LinalgError;
use slim_model::{SiteModel, SitesHypothesis};

/// Evaluate the M1a or M2a likelihood. The problem may be built with
/// [`LikelihoodProblem::new_unmarked`] — no foreground branch is used.
/// `per_class` and `proportions` follow [`SiteModel::classes`]; `lnl`
/// is the naive pattern-order weighted sum of `per_pattern`.
///
/// # Errors
/// Propagates eigensolver failures.
///
/// # Panics
/// Panics if `branch_lengths.len()` mismatches the problem.
pub fn site_model_log_likelihood(
    problem: &LikelihoodProblem,
    config: &EngineConfig,
    model: &SiteModel,
    hypothesis: SitesHypothesis,
    branch_lengths: &[f64],
) -> Result<LikelihoodValue, LinalgError> {
    let mut evaluator = ReuseEvaluator::new(problem, config.clone());
    evaluate_site_model(&mut evaluator, model, hypothesis, branch_lengths)
}

/// [`site_model_log_likelihood`] on a caller-held evaluator, which keeps
/// what a parameter change leaves valid from one call to the next (one
/// evaluator per fit).
///
/// # Errors
/// Propagates eigensolver failures.
///
/// # Panics
/// Panics if `branch_lengths.len()` mismatches the problem.
pub fn evaluate_site_model(
    evaluator: &mut ReuseEvaluator,
    model: &SiteModel,
    hypothesis: SitesHypothesis,
    branch_lengths: &[f64],
) -> Result<LikelihoodValue, LinalgError> {
    let mut value =
        evaluator.evaluate_mixture(&Mixture::sites(model, hypothesis), branch_lengths)?;
    value.lnl = evaluator.problem().weighted_sum(&value.per_pattern);
    Ok(value)
}

/// The gradient of the M1a or M2a log-likelihood over
/// `[κ, ω0, ω2, p0, p1, t…]` (the fit layout) on a caller-held evaluator,
/// from one adjoint pass over its state at this point (see
/// [`ReuseEvaluator::gradient`]). M1a's ω2 and p1 entries are 0: its
/// classes ignore both.
///
/// # Errors
/// Propagates evaluation errors.
///
/// # Panics
/// Panics if `branch_lengths.len()` mismatches the problem.
pub fn site_model_gradient(
    evaluator: &mut ReuseEvaluator,
    model: &SiteModel,
    hypothesis: SitesHypothesis,
    branch_lengths: &[f64],
) -> Result<Vec<f64>, LinalgError> {
    let g = evaluator.mixture_gradient(&Mixture::sites(model, hypothesis), branch_lengths)?;
    Ok(g.fit_layout(&model.proportion_jacobian(hypothesis)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use slim_bio::{parse_newick, CodonAlignment, FreqModel, GeneticCode};

    fn problem() -> LikelihoodProblem {
        let tree = parse_newick("((A:0.1,B:0.2):0.05,C:0.3);").unwrap();
        let aln =
            CodonAlignment::from_fasta(">A\nATGCCCTTTAAG\n>B\nATGCCATTTAAG\n>C\nATGCCCTTCAAA\n")
                .unwrap();
        let code = GeneticCode::universal();
        LikelihoodProblem::new_unmarked(&tree, &aln, &code, FreqModel::F3x4).unwrap()
    }

    #[test]
    fn engines_agree_on_m2a() {
        let p = problem();
        let m = SiteModel::default_start(SitesHypothesis::M2a);
        let bl = vec![0.1; p.n_branches()];
        let base = site_model_log_likelihood(
            &p,
            &EngineConfig::codeml_style(),
            &m,
            SitesHypothesis::M2a,
            &bl,
        )
        .unwrap();
        let slim =
            site_model_log_likelihood(&p, &EngineConfig::slim(), &m, SitesHypothesis::M2a, &bl)
                .unwrap();
        assert!(((base.lnl - slim.lnl) / base.lnl).abs() < 1e-10);
        assert!(base.lnl.is_finite() && base.lnl < 0.0);
    }

    #[test]
    fn m2a_reduces_to_m1a_when_omega2_class_empty() {
        // p0 + p1 = 1 kills the ω2 class: M2a lnL must equal M1a lnL with
        // the same (p0, ω0) when M1a's neutral mass matches.
        let p = problem();
        let bl = vec![0.1; p.n_branches()];
        let m2a = SiteModel {
            kappa: 2.0,
            omega0: 0.3,
            omega2: 5.0,
            p0: 0.6,
            p1: 0.4,
        };
        let m1a = SiteModel {
            kappa: 2.0,
            omega0: 0.3,
            omega2: 1.0,
            p0: 0.6,
            p1: 0.4,
        };
        let l2 =
            site_model_log_likelihood(&p, &EngineConfig::slim(), &m2a, SitesHypothesis::M2a, &bl)
                .unwrap();
        let l1 =
            site_model_log_likelihood(&p, &EngineConfig::slim(), &m1a, SitesHypothesis::M1a, &bl)
                .unwrap();
        assert!(
            (l2.lnl - l1.lnl).abs() < 1e-9,
            "M2a {} vs M1a {}",
            l2.lnl,
            l1.lnl
        );
    }

    #[test]
    fn value_structure() {
        let p = problem();
        let m = SiteModel::default_start(SitesHypothesis::M2a);
        let bl = vec![0.1; p.n_branches()];
        let v = site_model_log_likelihood(&p, &EngineConfig::slim(), &m, SitesHypothesis::M2a, &bl)
            .unwrap();
        assert_eq!(v.per_class.len(), 3);
        assert_eq!(v.proportions.len(), 3);
        assert!((v.proportions.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn overflowed_shared_scale_is_an_error() {
        // κ and ω2 at e^510 overflow ω2's class flux to ∞, and its zero
        // proportion turns that into 0·∞ = NaN in the shared scale.
        let p = problem();
        let bl = vec![0.1; p.n_branches()];
        let m = SiteModel {
            kappa: 510f64.exp(),
            omega0: 0.5,
            omega2: 510f64.exp(),
            p0: 0.5,
            p1: 0.5,
        };
        for config in [EngineConfig::slim(), EngineConfig::codeml_style()] {
            let e = site_model_log_likelihood(&p, &config, &m, SitesHypothesis::M2a, &bl);
            assert!(
                matches!(e, Err(LinalgError::InvalidScale { .. })),
                "{}: {e:?}",
                config.label
            );
        }
    }

    #[test]
    fn stiff_mixture_is_an_error_on_long_branches() {
        // A point a sites fit's line search reaches: ω2's class, at
        // proportion 1e-11, carries a spectrum down to -1e11, which the
        // eigensolver resolves only to ~1e-5 absolute. On branches of 50
        // its P(t) rows would miss 1 by 1e-3; on branches of 1e-6 they
        // hold.
        let p = problem();
        let m = SiteModel {
            kappa: 3.1e29,
            omega0: 0.999999,
            omega2: 6.6e50,
            p0: 2.2e-31,
            p1: 1.0 - 1.1e-11,
        };
        for config in [
            EngineConfig::codeml_style(),
            EngineConfig::slim(),
            EngineConfig::slim_plus(),
            EngineConfig::slim_symmetric(),
        ] {
            let long = vec![50.0; p.n_branches()];
            let e = site_model_log_likelihood(&p, &config, &m, SitesHypothesis::M2a, &long);
            assert!(
                matches!(e, Err(LinalgError::IllConditioned { .. })),
                "{}: {e:?}",
                config.label
            );
            let short = vec![1e-6; p.n_branches()];
            let v = site_model_log_likelihood(&p, &config, &m, SitesHypothesis::M2a, &short);
            assert!(v.unwrap().lnl.is_finite(), "{}", config.label);
        }
    }

    #[test]
    fn omega2_moves_likelihood() {
        // Unlike the branch-site model with a zero-length foreground
        // branch, ω2 in M2a acts on every branch: changing it must change
        // the likelihood.
        let p = problem();
        let bl = vec![0.1; p.n_branches()];
        let m_lo = SiteModel {
            omega2: 1.5,
            ..SiteModel::default_start(SitesHypothesis::M2a)
        };
        let m_hi = SiteModel {
            omega2: 6.0,
            ..SiteModel::default_start(SitesHypothesis::M2a)
        };
        let l_lo =
            site_model_log_likelihood(&p, &EngineConfig::slim(), &m_lo, SitesHypothesis::M2a, &bl)
                .unwrap();
        let l_hi =
            site_model_log_likelihood(&p, &EngineConfig::slim(), &m_hi, SitesHypothesis::M2a, &bl)
                .unwrap();
        assert!((l_lo.lnl - l_hi.lnl).abs() > 1e-6);
    }
}
