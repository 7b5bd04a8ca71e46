//! The M1a-vs-M2a *sites* test driver: positive selection affecting sites
//! across the whole tree (no foreground branch).

use crate::fit::{self, Maximum};
use crate::{AnalysisOptions, CoreError};
use slim_bio::{CodonAlignment, Tree};
use slim_lik::site_models::{evaluate_site_model, site_model_gradient, site_model_log_likelihood};
use slim_lik::{EngineConfig, LikelihoodProblem, ReuseEvaluator};
use slim_linalg::LinalgError;
use slim_model::{SiteModel, SitesHypothesis};
use slim_opt::{Block, TerminationReason};
use slim_stat::{chi2_sf, class_posteriors};
use std::time::Duration;

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

impl SitesFit {
    /// The fit of `hypothesis` at the driver's maximum.
    fn new(hypothesis: SitesHypothesis, maximum: Maximum) -> SitesFit {
        let mut model = maximum.x;
        let branch_lengths = model.split_off(5);
        SitesFit {
            hypothesis,
            lnl: maximum.lnl,
            model: site_model(&model),
            branch_lengths,
            iterations: maximum.iterations,
            f_evals: maximum.f_evals,
            wall_time: maximum.wall_time,
            termination: maximum.termination,
        }
    }
}

/// Run the sites test on an alignment and (unmarked) tree. The reported
/// M2a lnL is never below M1a's: M1a is M2a's boundary p2 = 0, so an M2a
/// fit still below after a warm re-polish from the M1a solution reports
/// M1a's point (ω2 = 1, p1 = 1 − p0) as its estimate.
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
    let config = options.engine_config();
    let init_bl = fit::initial_branch_lengths(tree, options);
    let fit_from = |hypothesis, x0: &[f64]| fit_sites(&problem, &config, options, hypothesis, x0);
    let fit_seeded =
        |hypothesis| fit_from(hypothesis, &start_vector(options, &init_bl, hypothesis));

    let m1a = fit_seeded(SitesHypothesis::M1a)?;
    let m2a = fit_seeded(SitesHypothesis::M2a)?;
    let (m2a, _) = fit::nest(&m1a, m2a, lift_m1a, |warm| {
        fit_from(SitesHypothesis::M2a, warm)
    })?;
    let m1a = SitesFit::new(SitesHypothesis::M1a, m1a);
    let m2a = SitesFit::new(SitesHypothesis::M2a, m2a);

    let statistic = (2.0 * (m2a.lnl - m1a.lnl)).max(0.0);
    let p_value = chi2_sf(statistic, 2);

    // NEB site posteriors for the ω2 class at the M2a optimum.
    let value = site_model_log_likelihood(
        &problem,
        &config,
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

/// The site model in the head of a fit's parameter vector.
fn site_model(x: &[f64]) -> SiteModel {
    SiteModel {
        kappa: x[0],
        omega0: x[1],
        omega2: x[2],
        p0: x[3],
        p1: x[4],
    }
}

/// Starting parameter vector with seeded jitter; M1a fixes ω2 = 1 and
/// p1 = 0 without drawing.
fn start_vector(
    options: &AnalysisOptions,
    init_branch_lengths: &[f64],
    hypothesis: SitesHypothesis,
) -> Vec<f64> {
    fit::start_vector(options, init_branch_lengths, |jitter| {
        let m = SiteModel::default_start(hypothesis);
        [
            jitter(m.kappa),
            jitter(m.omega0).clamp(1e-3, 0.9),
            match hypothesis {
                SitesHypothesis::M1a => 1.0,
                SitesHypothesis::M2a => 1.0 + jitter(m.omega2 - 1.0).max(1e-3),
            },
            jitter(m.p0).clamp(0.05, 0.9),
            match hypothesis {
                SitesHypothesis::M1a => 0.0,
                SitesHypothesis::M2a => jitter(m.p1).clamp(0.05, 0.9),
            },
        ]
    })
}

/// M1a's point in M2a's layout, for [`fit::nest`]: ω2 = 1 + `eps` and
/// p1 = (1 − p0)(1 − `eps`). At `eps = 0`, p2 = (1 − p0) − p1 is exactly
/// 0, so the third class drops out and M2a evaluates to M1a's bits.
fn lift_m1a(x: &[f64], eps: f64) -> Vec<f64> {
    let mut x = x.to_vec();
    x[2] = 1.0 + eps;
    x[4] = (1.0 - x[3]) * (1.0 - eps);
    x
}

/// Maximize one site model from `x0`. M1a's p1 is implied (1 − p0) and
/// its ω2 unused, so both are fixed.
fn fit_sites(
    problem: &LikelihoodProblem,
    config: &EngineConfig,
    options: &AnalysisOptions,
    hypothesis: SitesHypothesis,
    x0: &[f64],
) -> Result<Maximum, CoreError> {
    let omega2_and_proportions = match hypothesis {
        SitesHypothesis::M1a => vec![
            Block::Fixed { value: 1.0 },
            Block::BoxBounded {
                lo: 1e-6,
                hi: 1.0 - 1e-6,
            },
            Block::Fixed { value: 0.0 },
        ],
        SitesHypothesis::M2a => vec![
            Block::LowerBounded { lo: 1.0 },
            Block::SimplexWithRest { dim: 2 },
        ],
    };
    fit::maximize(
        problem,
        config,
        options,
        &omega2_and_proportions,
        x0,
        hypothesis,
    )
}

/// Either hypothesis is a site model at the head of the layout.
impl fit::Likelihood for SitesHypothesis {
    fn lnl(&self, evaluator: &mut ReuseEvaluator<'_>, x: &[f64]) -> Result<f64, LinalgError> {
        Ok(evaluate_site_model(evaluator, &site_model(x), *self, &x[5..])?.lnl)
    }

    fn gradient(
        &self,
        evaluator: &mut ReuseEvaluator<'_>,
        x: &[f64],
    ) -> Result<Vec<f64>, LinalgError> {
        site_model_gradient(evaluator, &site_model(x), *self, &x[5..])
    }
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
            r.m2a.lnl >= r.m1a.lnl,
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
    /// (slim+) and cleared state (codeml) alike, and under the exact
    /// gradient.
    #[test]
    fn sites_test_lnl_bits_are_pinned() {
        let tree = parse_newick("((A:0.2,B:0.2):0.1,C:0.3);").unwrap();
        let aln = CodonAlignment::from_fasta(
            ">A\nATGCCCAAATTTGGG\n>B\nATGCCAAAATTTGGA\n>C\nATGCCCAAGTTCGGG\n",
        )
        .unwrap();
        for (backend, grad_mode, want) in [
            (
                Backend::SlimPlus,
                GradMode::Forward,
                (0xc03a6e5aa7cdc308, 0xc03a6e5a573925c6),
            ),
            (
                Backend::CodeMlStyle,
                GradMode::Forward,
                (0xc03a6e5aa7d56e4f, 0xc03a6e5a572cc384),
            ),
            (
                Backend::SlimPlus,
                GradMode::Analytic,
                (0xc03a6e5aa80fe6e8, 0xc03a6e5a5781f692),
            ),
        ] {
            let r = sites_test(
                &tree,
                &aln,
                &AnalysisOptions {
                    backend,
                    grad_mode,
                    ..options()
                },
            )
            .unwrap();
            assert_eq!(
                (r.m1a.lnl.to_bits(), r.m2a.lnl.to_bits()),
                want,
                "{backend:?} {grad_mode:?}"
            );
        }
    }

    /// Iterations and f_evals of the same fits: the whole trajectory, not
    /// only its endpoint.
    #[test]
    fn sites_fit_iterations_and_evaluations_are_pinned() {
        let tree = parse_newick("((A:0.2,B:0.2):0.1,C:0.3);").unwrap();
        let aln = CodonAlignment::from_fasta(
            ">A\nATGCCCAAATTTGGG\n>B\nATGCCAAAATTTGGA\n>C\nATGCCCAAGTTCGGG\n",
        )
        .unwrap();
        for (backend, grad_mode, want) in [
            (Backend::SlimPlus, GradMode::Forward, ((25, 208), (25, 260))),
            (
                Backend::CodeMlStyle,
                GradMode::Forward,
                ((25, 208), (25, 260)),
            ),
            (Backend::SlimPlus, GradMode::Analytic, ((25, 26), (25, 26))),
        ] {
            let r = sites_test(
                &tree,
                &aln,
                &AnalysisOptions {
                    backend,
                    grad_mode,
                    ..options()
                },
            )
            .unwrap();
            let counts = |f: &SitesFit| (f.iterations, f.f_evals);
            assert_eq!(
                (counts(&r.m1a), counts(&r.m2a)),
                want,
                "{backend:?} {grad_mode:?}"
            );
        }
    }

    /// A Yule tree of `n_leaves` species and `n_codons` codons simulated
    /// on it under mostly conserved selection. Built with the simulator,
    /// not through Newick/FASTA: a round trip reorders branches and so
    /// changes the fits' trajectories.
    fn simulated(n_leaves: usize, tree_seed: u64, n_codons: usize) -> (Tree, CodonAlignment) {
        let tree = slim_sim::yule_tree(n_leaves, 0.2, tree_seed);
        let m = slim_model::BranchSiteModel {
            kappa: 2.0,
            omega0: 0.1,
            omega2: 1.0,
            p0: 0.7,
            p1: 0.25,
        };
        let pi = [1.0 / 61.0; 61];
        let aln = slim_sim::simulate_alignment(&tree, &m, &pi, n_codons, 1000 + tree_seed);
        (tree, aln)
    }

    #[test]
    fn m2a_is_never_reported_below_m1a() {
        // The jittered M2a fit of this fixture lands 4.6e-4 below M1a, and
        // its re-polish from M1a's point does not reach it either.
        let (tree, aln) = simulated(3, 20, 6);
        let options = AnalysisOptions {
            seed: 20,
            ..options()
        };
        let r = sites_test(&tree, &aln, &options).unwrap();
        assert!(
            r.m2a.lnl >= r.m1a.lnl,
            "m2a {} vs m1a {}",
            r.m2a.lnl,
            r.m1a.lnl
        );
        // So M1a's point is reported, with M1a's lnL.
        let at_m1a = SiteModel {
            omega2: 1.0,
            p1: 1.0 - r.m1a.model.p0,
            ..r.m1a.model
        };
        assert_eq!(r.m2a.model, at_m1a);
        assert!(r.m2a.model.is_valid(SitesHypothesis::M2a));
        assert_eq!(r.m2a.branch_lengths, r.m1a.branch_lengths);
        assert_eq!(r.m2a.lnl.to_bits(), r.m1a.lnl.to_bits());
        // The reported lnL replays bit-exactly at the reported point.
        let problem =
            LikelihoodProblem::new_unmarked(&tree, &aln, &options.genetic_code, options.freq_model)
                .unwrap();
        let replay = site_model_log_likelihood(
            &problem,
            &options.engine_config(),
            &r.m2a.model,
            SitesHypothesis::M2a,
            &r.m2a.branch_lengths,
        )
        .unwrap();
        assert_eq!(replay.lnl.to_bits(), r.m2a.lnl.to_bits());
    }

    #[test]
    fn overflowing_line_search_step_backtracks() {
        // A line-search step of this fixture's M2a fit sends κ and ω2 to
        // e^510, where the shared rate scale is not finite, and its
        // backtracking then reaches κ 3e29, ω2 7e50, p2 1e-11, where P(t)
        // on the branches of 50 would not be stochastic: both points must
        // be rejected, not abort the test (a sanitize build included).
        let (tree, aln) = simulated(4, 9, 8);
        for options in [
            AnalysisOptions {
                seed: 9,
                ..options()
            },
            AnalysisOptions::default(),
        ] {
            let r = sites_test(&tree, &aln, &options).unwrap();
            assert!(r.m1a.lnl.is_finite() && r.m2a.lnl >= r.m1a.lnl);
        }
    }

    #[test]
    fn initial_branch_length_overrides_the_tree() {
        let aln = CodonAlignment::from_fasta(
            ">A\nATGCCCAAATTTGGG\n>B\nATGCCAAAATTTGGA\n>C\nATGCCCAAGTTCGGG\n",
        )
        .unwrap();
        let options = AnalysisOptions {
            max_iterations: 3,
            ..options()
        };
        let uniform = parse_newick("((A:0.4,B:0.4):0.4,C:0.4);").unwrap();
        let want = sites_test(&uniform, &aln, &options).unwrap();
        let tree = parse_newick("((A:0.2,B:0.2):0.1,C:0.3);").unwrap();
        let got = sites_test(
            &tree,
            &aln,
            &AnalysisOptions {
                initial_branch_length: Some(0.4),
                ..options
            },
        )
        .unwrap();
        for (got, want) in [(&got.m1a, &want.m1a), (&got.m2a, &want.m2a)] {
            assert_eq!(got.lnl.to_bits(), want.lnl.to_bits());
            assert_eq!(got.branch_lengths, want.branch_lengths);
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
