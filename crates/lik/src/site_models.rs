//! Likelihood for the M1a/M2a *site* models (ω varies across sites, not
//! branches) — the §V-B "further models" extension, sharing the expm and
//! pruning machinery with the branch-site engine.

use crate::engine::EngineConfig;
use crate::par::build_op;
use crate::problem::LikelihoodProblem;
use crate::pruning::{prune_one_class, TransOp};
use slim_expm::EigenSystem;
use slim_linalg::LinalgError;
use slim_model::{build_rate_matrix, rate_components, ScalePolicy, SiteModel, SitesHypothesis};
use std::sync::Arc;

/// Result of one site-model likelihood evaluation.
#[derive(Debug, Clone)]
pub struct SitesLikelihoodValue {
    /// Total mixture log-likelihood.
    pub lnl: f64,
    /// Per-class per-pattern log-likelihoods (class order as in
    /// [`SiteModel::classes`]).
    pub per_class: Vec<Vec<f64>>,
    /// Class proportions used.
    pub proportions: Vec<f64>,
}

/// Evaluate the M1a or M2a likelihood. The problem may be built with
/// [`LikelihoodProblem::new_unmarked`] — no foreground branch is used.
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
) -> Result<SitesLikelihoodValue, LinalgError> {
    assert_eq!(
        branch_lengths.len(),
        problem.n_branches(),
        "branch length vector has wrong length"
    );
    let n_pat = problem.n_patterns();
    let classes = model.classes(hypothesis);

    // One shared rate scale across all classes (all branches see every
    // class — see SiteModel::shared_scale).
    let (syn_flux, nonsyn_flux) = rate_components(&problem.code, model.kappa, &problem.pi);
    let scale = model.shared_scale(hypothesis, syn_flux, nonsyn_flux);

    // One eigendecomposition per class ω.
    let mut eigensystems: Vec<Arc<EigenSystem>> = Vec::with_capacity(classes.len());
    for class in &classes {
        let rm = build_rate_matrix(
            &problem.code,
            model.kappa,
            class.omega,
            &problem.pi,
            ScalePolicy::External(scale),
        );
        let es = match &config.eigen_cache {
            Some(cache) => cache.get_or_compute(model.kappa, class.omega, &rm, config.eigen)?,
            None => Arc::new(EigenSystem::from_rate_matrix(&rm, config.eigen)?),
        };
        eigensystems.push(es);
    }

    // Per class: build per-branch operators at slot 0 and prune.
    // (The pruning kernel indexes [node][omega-slot]; site models use one
    // slot since foreground == background.)
    let n_nodes = problem.children.len();
    let mut per_class: Vec<Vec<f64>> = Vec::with_capacity(classes.len());
    for (k, class) in classes.iter().enumerate() {
        if class.proportion <= 0.0 {
            per_class.push(vec![f64::NEG_INFINITY; n_pat]);
            continue;
        }
        let es = &eigensystems[k];
        let mut ops: Vec<[Option<TransOp>; 3]> = (0..n_nodes).map(|_| [None, None, None]).collect();
        for (node, slot) in ops.iter_mut().enumerate() {
            let Some(bi) = problem.branch_index[node] else {
                continue;
            };
            slot[0] = Some(build_op(es, config, branch_lengths[bi]));
        }
        per_class.push(prune_one_class(problem, config, &ops, 0, 0));
    }

    // Mix per pattern (log-sum-exp), weight by multiplicity.
    let mut lnl = 0.0f64;
    for p in 0..n_pat {
        let mut max = f64::NEG_INFINITY;
        for (k, class) in classes.iter().enumerate() {
            if class.proportion > 0.0 {
                max = max.max(class.proportion.ln() + per_class[k][p]);
            }
        }
        let value = if max.is_finite() {
            let mut sum = 0.0;
            for (k, class) in classes.iter().enumerate() {
                if class.proportion > 0.0 {
                    sum += (class.proportion.ln() + per_class[k][p] - max).exp();
                }
            }
            max + sum.ln()
        } else {
            f64::NEG_INFINITY
        };
        lnl += problem.patterns.weight(p) * value;
    }

    Ok(SitesLikelihoodValue {
        lnl,
        per_class,
        proportions: classes.iter().map(|c| c.proportion).collect(),
    })
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
