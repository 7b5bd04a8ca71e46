//! The M1a-vs-M2a *sites* test driver: positive selection affecting sites
//! across the whole tree (no foreground branch).

use crate::{AnalysisOptions, CoreError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use slim_bio::{CodonAlignment, Tree};
use slim_lik::site_models::{evaluate_site_model, site_model_log_likelihood};
use slim_lik::{LikelihoodProblem, ReuseEvaluator};
use slim_model::{SiteModel, SitesHypothesis};
use slim_opt::{minimize, BfgsOptions, Block, BlockTransform, TerminationReason};
use slim_stat::{chi2_sf, class_posteriors};
use std::time::{Duration, Instant};

/// One maximized site-model fit.
#[derive(Debug, Clone)]
pub struct SitesFit {
    /// Which hypothesis.
    pub hypothesis: SitesHypothesis,
    /// Maximized log-likelihood.
    pub lnl: f64,
    /// Parameter estimates.
    pub model: SiteModel,
    /// Branch-length estimates.
    pub branch_lengths: Vec<f64>,
    /// BFGS iterations.
    pub iterations: usize,
    /// Objective evaluations.
    pub f_evals: usize,
    /// Wall time.
    pub wall_time: Duration,
    /// Stop reason.
    pub termination: TerminationReason,
}

/// Outcome of the M1a/M2a likelihood-ratio test.
#[derive(Debug, Clone)]
pub struct SitesTestResult {
    /// Null (M1a) fit.
    pub m1a: SitesFit,
    /// Alternative (M2a) fit.
    pub m2a: SitesFit,
    /// `2(lnL₂ − lnL₁)`, clamped at 0.
    pub statistic: f64,
    /// χ²₂ p-value (the conventional reference for this test).
    pub p_value: f64,
    /// NEB posterior per alignment site of the ω2 class, at the M2a MLE.
    pub site_posteriors: Vec<f64>,
}

/// Run the sites test on an alignment and (unmarked) tree.
///
/// # Errors
/// Propagates input and numerical errors.
pub fn sites_test(
    tree: &Tree,
    aln: &CodonAlignment,
    options: &AnalysisOptions,
) -> Result<SitesTestResult, CoreError> {
    let problem =
        LikelihoodProblem::new_unmarked(tree, aln, &options.genetic_code, options.freq_model)?;
    let init_bl: Vec<f64> = tree
        .branch_lengths()
        .into_iter()
        .map(|v| v.clamp(1e-5, 5.0))
        .collect();

    let m1a = fit_sites(&problem, options, SitesHypothesis::M1a, &init_bl)?;
    let m2a = fit_sites(&problem, options, SitesHypothesis::M2a, &init_bl)?;

    let statistic = (2.0 * (m2a.lnl - m1a.lnl)).max(0.0);
    let p_value = chi2_sf(statistic, 2);

    // NEB site posteriors for the ω2 class at the M2a optimum.
    let value = site_model_log_likelihood(
        &problem,
        &options.engine_config(),
        &m2a.model,
        SitesHypothesis::M2a,
        &m2a.branch_lengths,
    )?;
    let post = class_posteriors(&value.per_class, &value.proportions);
    let per_pattern: Vec<f64> = post.iter().map(|row| row[2]).collect();
    let site_posteriors = (0..problem.n_sites())
        .map(|s| per_pattern[problem.patterns.pattern_of_site(s)])
        .collect();

    Ok(SitesTestResult {
        m1a,
        m2a,
        statistic,
        p_value,
        site_posteriors,
    })
}

fn transform(hypothesis: SitesHypothesis, n_branches: usize) -> BlockTransform {
    let mut blocks = vec![
        Block::LowerBounded { lo: 1e-3 }, // κ
        Block::BoxBounded {
            lo: 1e-6,
            hi: 1.0 - 1e-6,
        }, // ω0
    ];
    match hypothesis {
        SitesHypothesis::M1a => {
            blocks.push(Block::Fixed { value: 1.0 }); // ω2 unused
            blocks.push(Block::BoxBounded {
                lo: 1e-6,
                hi: 1.0 - 1e-6,
            }); // p0
            blocks.push(Block::Fixed { value: 0.0 }); // p1 implied
        }
        SitesHypothesis::M2a => {
            blocks.push(Block::LowerBounded { lo: 1.0 }); // ω2
            blocks.push(Block::SimplexWithRest { dim: 2 }); // (p0, p1)
        }
    }
    blocks.push(Block::BoxBoundedVec {
        lo: 1e-6,
        hi: 50.0,
        count: n_branches,
    });
    BlockTransform::new(blocks)
}

fn fit_sites(
    problem: &LikelihoodProblem,
    options: &AnalysisOptions,
    hypothesis: SitesHypothesis,
    init_bl: &[f64],
) -> Result<SitesFit, CoreError> {
    let t = transform(hypothesis, problem.n_branches());

    let mut rng = StdRng::seed_from_u64(options.seed);
    let mut jitter = |v: f64| v * (1.0 + options.jitter * (rng.gen::<f64>() - 0.5) * 2.0);
    let start_model = SiteModel::default_start(hypothesis);
    let mut x0 = vec![
        jitter(start_model.kappa),
        jitter(start_model.omega0).clamp(1e-3, 0.9),
        match hypothesis {
            SitesHypothesis::M1a => 1.0,
            SitesHypothesis::M2a => 1.0 + jitter(start_model.omega2 - 1.0).max(1e-3),
        },
        jitter(start_model.p0).clamp(0.05, 0.9),
        match hypothesis {
            SitesHypothesis::M1a => 0.0,
            SitesHypothesis::M2a => jitter(start_model.p1).clamp(0.05, 0.9),
        },
    ];
    if x0[3] + x0[4] > 0.95 {
        let s = x0[3] + x0[4];
        x0[3] *= 0.9 / s;
        x0[4] *= 0.9 / s;
    }
    for &b in init_bl {
        x0.push(jitter(b).clamp(2e-6, 25.0));
    }
    let z0 = t.to_unconstrained(&x0);

    let unpack = |x: &[f64]| -> (SiteModel, Vec<f64>) {
        (
            SiteModel {
                kappa: x[0],
                omega0: x[1],
                omega2: x[2],
                p0: x[3],
                p1: x[4],
            },
            x[5..].to_vec(),
        )
    };

    // One evaluator per fit, kept between calls except on the
    // codeml-style backend, as `Analysis::fit_from` does.
    let reuse = options.backend.reuses_likelihoods();
    let mut evaluator = ReuseEvaluator::new(problem, options.engine_config());
    let mut objective = |z: &[f64]| -> f64 {
        let x = t.to_constrained(z);
        let (model, bl) = unpack(&x);
        if !reuse {
            evaluator.clear();
        }
        match evaluate_site_model(&mut evaluator, &model, hypothesis, &bl) {
            Ok(v) if v.lnl.is_finite() => -v.lnl,
            _ => f64::INFINITY,
        }
    };
    if !objective(&z0).is_finite() {
        return Err(CoreError::Optimization(
            "sites model not finite at start".into(),
        ));
    }

    let opts = BfgsOptions {
        max_iterations: options.max_iterations,
        grad_mode: options.grad_mode,
        grad_tol: 1e-6,
        f_tol: 1e-10,
        ..Default::default()
    };
    // check: allow(det-wallclock) feeds the report wall_time field only
    let started = Instant::now();
    let result = minimize(&mut objective, &z0, &opts);
    let wall_time = started.elapsed();
    let x = t.to_constrained(&result.x);
    let (model, branch_lengths) = unpack(&x);
    Ok(SitesFit {
        hypothesis,
        lnl: -result.f,
        model,
        branch_lengths,
        iterations: result.iterations,
        f_evals: result.f_evals,
        wall_time,
        termination: result.reason,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Backend;
    use slim_bio::parse_newick;
    use slim_opt::GradMode;

    fn options() -> AnalysisOptions {
        AnalysisOptions {
            backend: Backend::SlimPlus,
            max_iterations: 25,
            grad_mode: GradMode::Forward,
            ..Default::default()
        }
    }

    #[test]
    fn sites_test_runs_end_to_end() {
        let tree = parse_newick("((A:0.2,B:0.2):0.1,C:0.3);").unwrap();
        let aln = CodonAlignment::from_fasta(
            ">A\nATGCCCAAATTTGGG\n>B\nATGCCAAAATTTGGA\n>C\nATGCCCAAGTTCGGG\n",
        )
        .unwrap();
        let r = sites_test(&tree, &aln, &options()).unwrap();
        assert!(
            r.m2a.lnl >= r.m1a.lnl - 0.05,
            "m2a {} vs m1a {}",
            r.m2a.lnl,
            r.m1a.lnl
        );
        assert!(r.p_value > 0.0 && r.p_value <= 1.0);
        assert_eq!(r.site_posteriors.len(), 5);
        assert!(r.m1a.model.is_valid(SitesHypothesis::M1a));
        assert!(r.m2a.model.is_valid(SitesHypothesis::M2a));
    }

    /// M1a/M2a lnL bits of the end-to-end fixture's fits, kept state
    /// (slim+) and cleared state (codeml) alike.
    #[test]
    fn sites_test_lnl_bits_are_pinned() {
        let tree = parse_newick("((A:0.2,B:0.2):0.1,C:0.3);").unwrap();
        let aln = CodonAlignment::from_fasta(
            ">A\nATGCCCAAATTTGGG\n>B\nATGCCAAAATTTGGA\n>C\nATGCCCAAGTTCGGG\n",
        )
        .unwrap();
        for (backend, want) in [
            (Backend::SlimPlus, (0xc03a6e5aa7cdc308, 0xc03a6e5a573925c6)),
            (
                Backend::CodeMlStyle,
                (0xc03a6e5aa7d56e4f, 0xc03a6e5a572cc384),
            ),
        ] {
            let r = sites_test(
                &tree,
                &aln,
                &AnalysisOptions {
                    backend,
                    ..options()
                },
            )
            .unwrap();
            assert_eq!(
                (r.m1a.lnl.to_bits(), r.m2a.lnl.to_bits()),
                want,
                "{backend:?}"
            );
        }
    }

    #[test]
    fn works_without_foreground_mark() {
        // The whole point: no #1 in the tree.
        let tree = parse_newick("(A:0.2,B:0.2,C:0.3);").unwrap();
        let aln = CodonAlignment::from_fasta(">A\nATGCCC\n>B\nATGCCA\n>C\nATGCCC\n").unwrap();
        assert!(sites_test(&tree, &aln, &options()).is_ok());
    }
}
