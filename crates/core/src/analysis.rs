//! The analysis driver: wiring model, likelihood engine, transforms and
//! optimizer into the H0/H1 fits and the LRT.

use crate::fit::{self, branch_site_model, Maximum, OMEGA0_HI, OMEGA0_LO};
use crate::obsm;
use crate::{Backend, CoreError, Fit};
use slim_bio::{CodonAlignment, FreqModel, GeneticCode, Tree};
use slim_lik::{log_likelihood, site_class_log_likelihoods, LikelihoodProblem, ReuseEvaluator};
use slim_linalg::LinalgError;
use slim_model::{BranchSiteModel, Hypothesis};
use slim_opt::{Block, GradMode};
use slim_stat::{lrt_pvalue, positive_selection_posteriors, LrtResult};

/// Options controlling an analysis run.
#[derive(Debug, Clone)]
pub struct AnalysisOptions {
    /// Computational backend (CodeML-style vs Slim flavors).
    pub backend: Backend,
    /// Codon frequency estimator (CodeML `CodonFreq`).
    pub freq_model: FreqModel,
    /// RNG seed for initial-value jitter. The paper fixes this so both
    /// engines start identically (§IV).
    pub seed: u64,
    /// BFGS iteration cap per hypothesis.
    pub max_iterations: usize,
    /// Where BFGS takes its gradients: the likelihood's exact gradient
    /// from one adjoint pass ([`GradMode::Analytic`], the default), or
    /// forward differences ([`GradMode::Forward`]), the paper harness'
    /// mode, which keeps Tables III/IV and Fig. 3 like for like.
    pub grad_mode: GradMode,
    /// Override the tree's branch lengths with this value at the start of
    /// optimization (CodeML-style fixed starting lengths). `None` keeps
    /// the input tree's lengths.
    pub initial_branch_length: Option<f64>,
    /// Relative jitter applied to the default parameter starting point.
    pub jitter: f64,
    /// Genetic code (CodeML `icode`): universal by default; the
    /// vertebrate mitochondrial code is also supported (60 sense codons).
    pub genetic_code: GeneticCode,
    /// Worker threads per likelihood evaluation (the `slim-par` intra-gene
    /// engine). `None` keeps the backend's own default (serial);
    /// `Some(n)` overrides it, with `0` meaning auto
    /// (`available_parallelism`). Results are bit-identical for every
    /// setting. Defaults from the `SLIMCODEML_THREADS` environment
    /// variable when set (how CI runs the whole suite at 4 threads).
    pub threads: Option<usize>,
}

impl Default for AnalysisOptions {
    fn default() -> Self {
        AnalysisOptions {
            backend: Backend::Slim,
            freq_model: FreqModel::F3x4,
            seed: 1,
            max_iterations: 500,
            grad_mode: GradMode::Analytic,
            initial_branch_length: None,
            jitter: 0.05,
            genetic_code: GeneticCode::universal(),
            threads: threads_from_env(),
        }
    }
}

/// The `SLIMCODEML_THREADS` default: unset, empty, or unparsable means
/// "no override".
fn threads_from_env() -> Option<usize> {
    std::env::var("SLIMCODEML_THREADS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
}

impl AnalysisOptions {
    /// The engine configuration for this run: the backend's numerical
    /// profile with the thread override applied.
    pub fn engine_config(&self) -> slim_lik::EngineConfig {
        let mut config = self.backend.config();
        if let Some(threads) = self.threads {
            config.threads = threads;
        }
        config
    }
}

/// Outcome of the full positive-selection test.
#[derive(Debug, Clone)]
pub struct TestResult {
    /// Null fit (ω2 = 1).
    pub h0: Fit,
    /// Alternative fit (ω2 free).
    pub h1: Fit,
    /// The likelihood-ratio test between them.
    pub lrt: LrtResult,
    /// NEB posterior probability that each alignment *site* (not pattern)
    /// is under positive selection on the foreground branch, computed at
    /// the H1 MLE.
    pub site_posteriors: Vec<f64>,
}

/// A dataset + options, ready to fit.
#[derive(Debug, Clone)]
pub struct Analysis {
    problem: LikelihoodProblem,
    options: AnalysisOptions,
    engine_config: slim_lik::EngineConfig,
    init_branch_lengths: Vec<f64>,
}

impl Analysis {
    /// Build an analysis from a foreground-marked tree and an alignment.
    ///
    /// # Errors
    /// [`CoreError::Bio`] if tree and alignment are inconsistent or no
    /// unique foreground branch is marked.
    pub fn new(
        tree: &Tree,
        aln: &CodonAlignment,
        options: AnalysisOptions,
    ) -> Result<Analysis, CoreError> {
        let problem = LikelihoodProblem::new(tree, aln, &options.genetic_code, options.freq_model)?;
        Ok(Self::from_problem(problem, tree, options))
    }

    /// Build an analysis with the foreground branch given explicitly,
    /// ignoring any marks on the tree. Equivalent to cloning the tree,
    /// calling [`Tree::set_foreground`] and [`Analysis::new`], but without
    /// copying the tree arena — the cheap path for branch scans and batch
    /// runs that test many foregrounds on one dataset.
    ///
    /// # Errors
    /// [`CoreError::Bio`] if `foreground` is the root or out of range, or
    /// if tree and alignment are inconsistent.
    pub fn with_foreground(
        tree: &Tree,
        foreground: slim_bio::NodeId,
        aln: &CodonAlignment,
        options: AnalysisOptions,
    ) -> Result<Analysis, CoreError> {
        let problem = LikelihoodProblem::new_with_foreground(
            tree,
            foreground,
            aln,
            &options.genetic_code,
            options.freq_model,
        )?;
        Ok(Self::from_problem(problem, tree, options))
    }

    fn from_problem(problem: LikelihoodProblem, tree: &Tree, options: AnalysisOptions) -> Analysis {
        Analysis {
            problem,
            engine_config: options.engine_config(),
            init_branch_lengths: fit::initial_branch_lengths(tree, &options),
            options,
        }
    }

    /// The engine configuration this analysis evaluates with.
    pub fn engine_config(&self) -> &slim_lik::EngineConfig {
        &self.engine_config
    }

    /// The underlying likelihood problem (for advanced use/benches).
    pub fn problem(&self) -> &LikelihoodProblem {
        &self.problem
    }

    /// Options in effect.
    pub fn options(&self) -> &AnalysisOptions {
        &self.options
    }

    /// Evaluate the log-likelihood at explicit parameter values.
    ///
    /// # Errors
    /// [`CoreError::Linalg`] on eigensolver failure.
    pub fn log_likelihood(
        &self,
        model: &BranchSiteModel,
        branch_lengths: &[f64],
    ) -> Result<f64, CoreError> {
        Ok(log_likelihood(
            &self.problem,
            &self.engine_config,
            model,
            branch_lengths,
        )?)
    }

    /// Per-site log-likelihoods at explicit parameter values — CodeML's
    /// `lnf` output, consumed by downstream model-comparison tools (AU/SH
    /// tests and the like).
    ///
    /// # Errors
    /// [`CoreError::Linalg`] on eigensolver failure.
    pub fn site_log_likelihoods(
        &self,
        model: &BranchSiteModel,
        branch_lengths: &[f64],
    ) -> Result<Vec<f64>, CoreError> {
        let value =
            site_class_log_likelihoods(&self.problem, &self.engine_config, model, branch_lengths)?;
        Ok((0..self.problem.n_sites())
            .map(|s| value.per_pattern[self.problem.patterns.pattern_of_site(s)])
            .collect())
    }

    /// Starting parameter vector with seeded jitter.
    fn start_vector(&self, hypothesis: Hypothesis) -> Vec<f64> {
        fit::start_vector(&self.options, &self.init_branch_lengths, |jitter| {
            let m = BranchSiteModel::default_start(hypothesis);
            [
                jitter(m.kappa),
                jitter(m.omega0).clamp(OMEGA0_LO * 2.0, OMEGA0_HI / 2.0),
                match hypothesis {
                    Hypothesis::H0 => 1.0,
                    Hypothesis::H1 => 1.0 + jitter(m.omega2 - 1.0).max(1e-3),
                },
                jitter(m.p0).clamp(0.05, 0.9),
                jitter(m.p1).clamp(0.05, 0.9),
            ]
        })
    }

    /// Maximize one hypothesis.
    ///
    /// # Errors
    /// [`CoreError::Optimization`] if no finite starting likelihood can be
    /// found; numerical errors propagate as [`CoreError::Linalg`].
    pub fn fit(&self, hypothesis: Hypothesis) -> Result<Fit, CoreError> {
        let maximum = self.fit_from(hypothesis, &self.start_vector(hypothesis))?;
        Ok(Fit::new(hypothesis, maximum))
    }

    /// Maximize one hypothesis from an explicit starting vector (same
    /// layout as [`Analysis::start_vector`]); every coordinate must be
    /// strictly inside the hypothesis' feasible region.
    fn fit_from(&self, hypothesis: Hypothesis, x0: &[f64]) -> Result<Maximum, CoreError> {
        let omega2 = match hypothesis {
            Hypothesis::H0 => Block::Fixed { value: 1.0 },
            Hypothesis::H1 => Block::LowerBounded { lo: 1.0 },
        };
        fit::maximize(
            &self.problem,
            &self.engine_config,
            &self.options,
            &[omega2, Block::SimplexWithRest { dim: 2 }],
            x0,
            hypothesis,
        )
    }

    /// Run the full positive-selection test: fit H0 and H1, compute the
    /// LRT, and NEB site posteriors at the H1 MLE. The reported H1 lnL is
    /// never below H0's: an H1 fit still below after a warm re-polish
    /// from the H0 solution reports H0's point (ω2 = 1) as its estimate.
    ///
    /// # Errors
    /// Propagates fit errors.
    pub fn test_positive_selection(&self) -> Result<TestResult, CoreError> {
        let mut test_span = obsm::TEST.span();
        let h0 = self.fit_from(Hypothesis::H0, &self.start_vector(Hypothesis::H0))?;
        let h1 = self.fit_from(Hypothesis::H1, &self.start_vector(Hypothesis::H1))?;
        let (h1, outcome) =
            fit::nest(&h0, h1, lift_h0, |warm| self.fit_from(Hypothesis::H1, warm))?;
        obsm::record_h1(&mut test_span, outcome);
        let (h0, h1) = (Fit::new(Hypothesis::H0, h0), Fit::new(Hypothesis::H1, h1));
        let lrt = lrt_pvalue(h0.lnl, h1.lnl);

        let value = site_class_log_likelihoods(
            &self.problem,
            &self.engine_config,
            &h1.model,
            &h1.branch_lengths,
        )?;
        let per_pattern = positive_selection_posteriors(&value.per_class, &value.proportions);
        let site_posteriors = (0..self.problem.n_sites())
            .map(|s| per_pattern[self.problem.patterns.pattern_of_site(s)])
            .collect();

        Ok(TestResult {
            h0,
            h1,
            lrt,
            site_posteriors,
        })
    }
}

/// Either hypothesis is branch-site model A at the head of the layout.
impl fit::Likelihood for Hypothesis {
    fn lnl(&self, evaluator: &mut ReuseEvaluator<'_>, x: &[f64]) -> Result<f64, LinalgError> {
        Ok(evaluator.evaluate(&branch_site_model(x), &x[5..])?.lnl)
    }

    fn gradient(
        &self,
        evaluator: &mut ReuseEvaluator<'_>,
        x: &[f64],
    ) -> Result<Vec<f64>, LinalgError> {
        evaluator.gradient(&branch_site_model(x), &x[5..])
    }
}

/// H0's point in H1's layout, ω2 = 1 + `eps` (H0 fixes ω2 = 1), for
/// [`fit::nest`].
fn lift_h0(x: &[f64], eps: f64) -> Vec<f64> {
    let mut x = x.to_vec();
    x[2] = 1.0 + eps;
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use slim_bio::parse_newick;

    fn small_analysis(backend: Backend) -> Analysis {
        let tree = parse_newick("((A:0.2,B:0.2)#1:0.1,(C:0.2,D:0.2):0.1);").unwrap();
        let aln = CodonAlignment::from_fasta(
            ">A\nATGCCCAAATTTGGGCGA\n>B\nATGCCAAAATTTGGACGA\n>C\nATGCCCAAGTTTGGGCGA\n>D\nATGCCCAAATTCGGGCGT\n",
        )
        .unwrap();
        Analysis::new(
            &tree,
            &aln,
            AnalysisOptions {
                backend,
                max_iterations: 60,
                ..Default::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn fit_h0_improves_likelihood() {
        let a = small_analysis(Backend::Slim);
        let start_model = BranchSiteModel::default_start(Hypothesis::H0);
        let start_lnl = a
            .log_likelihood(&start_model, &a.init_branch_lengths)
            .unwrap();
        let fit = a.fit(Hypothesis::H0).unwrap();
        assert!(
            fit.lnl >= start_lnl - 1e-9,
            "fit {0} vs start {start_lnl}",
            fit.lnl
        );
        assert!(fit.model.is_valid(Hypothesis::H0));
        assert!(fit.iterations <= 60);
    }

    #[test]
    fn h1_at_least_as_good_as_h0() {
        let a = small_analysis(Backend::Slim);
        let r = a.test_positive_selection().unwrap();
        // H1 nests H0, and the test never reports it below H0.
        assert!(r.h1.lnl >= r.h0.lnl, "h1 {} vs h0 {}", r.h1.lnl, r.h0.lnl);
        assert!(r.lrt.p_value > 0.0 && r.lrt.p_value <= 1.0);
        assert_eq!(r.site_posteriors.len(), 6);
        for &p in &r.site_posteriors {
            assert!((0.0..=1.0).contains(&p));
        }
    }

    /// [`fit::nest`] on branch-site fits, with a re-polish that finds
    /// nothing better than `h1`.
    fn nest_h0(h1: Fit, h0: &Fit) -> Fit {
        let maximum = |f: &Fit| Maximum {
            x: [f.model.kappa, f.model.omega0, f.model.omega2]
                .into_iter()
                .chain([f.model.p0, f.model.p1])
                .chain(f.branch_lengths.iter().copied())
                .collect(),
            lnl: f.lnl,
            iterations: f.iterations,
            f_evals: f.f_evals,
            wall_time: f.wall_time,
            termination: f.termination,
        };
        let alt = maximum(&h1);
        let (nested, _) = fit::nest(&maximum(h0), alt.clone(), lift_h0, |_| Ok(alt)).unwrap();
        Fit::new(Hypothesis::H1, nested)
    }

    #[test]
    fn h1_below_h0_reports_the_h0_point() {
        let a = small_analysis(Backend::Slim);
        let h0 = a.fit(Hypothesis::H0).unwrap();
        let stuck = Fit {
            hypothesis: Hypothesis::H1,
            lnl: h0.lnl - 1e-5,
            model: BranchSiteModel::default_start(Hypothesis::H1),
            branch_lengths: vec![0.5; h0.branch_lengths.len()],
            iterations: 9,
            f_evals: 123,
            wall_time: std::time::Duration::from_millis(7),
            termination: slim_opt::TerminationReason::LineSearchFailed,
        };
        let nested = nest_h0(stuck.clone(), &h0);
        assert_eq!(nested.hypothesis, Hypothesis::H1);
        assert_eq!(nested.lnl.to_bits(), h0.lnl.to_bits());
        assert_eq!(nested.model, h0.model);
        assert!(nested.model.is_valid(Hypothesis::H1), "ω2 = 1 is in H1");
        assert_eq!(nested.branch_lengths, h0.branch_lengths);
        // H1's own accounting survives.
        assert_eq!(nested.iterations, stuck.iterations);
        assert_eq!(nested.f_evals, stuck.f_evals);
        assert_eq!(nested.wall_time, stuck.wall_time);
        assert_eq!(nested.termination, stuck.termination);
        // The reported lnL replays bit-exactly at the reported point.
        let replay = a
            .log_likelihood(&nested.model, &nested.branch_lengths)
            .unwrap();
        assert_eq!(replay.to_bits(), nested.lnl.to_bits());

        // An H1 at or above H0 is reported as fitted.
        for lnl in [h0.lnl, h0.lnl + 1e-5] {
            let kept = nest_h0(
                Fit {
                    lnl,
                    ..stuck.clone()
                },
                &h0,
            );
            assert_eq!(kept.lnl.to_bits(), lnl.to_bits());
            assert_eq!(kept.model, stuck.model);
            assert_eq!(kept.branch_lengths, stuck.branch_lengths);
        }
    }

    #[test]
    fn backends_reach_nearly_identical_likelihoods() {
        // The heart of §IV-1: relative difference D between engine lnLs.
        let base = small_analysis(Backend::CodeMlStyle)
            .fit(Hypothesis::H0)
            .unwrap();
        let slim = small_analysis(Backend::Slim).fit(Hypothesis::H0).unwrap();
        let d = ((base.lnl - slim.lnl) / base.lnl).abs();
        assert!(d < 1e-5, "D = {d}, base {} vs slim {}", base.lnl, slim.lnl);
    }

    #[test]
    fn with_foreground_matches_marked_clone() {
        let tree = parse_newick("((A:0.2,B:0.2)#1:0.1,(C:0.2,D:0.2):0.1);").unwrap();
        let aln = CodonAlignment::from_fasta(
            ">A\nATGCCCAAATTTGGGCGA\n>B\nATGCCAAAATTTGGACGA\n>C\nATGCCCAAGTTTGGGCGA\n>D\nATGCCCAAATTCGGGCGT\n",
        )
        .unwrap();
        let options = AnalysisOptions {
            max_iterations: 40,
            ..Default::default()
        };
        let c = tree.leaf_by_name("C").unwrap();
        let direct = Analysis::with_foreground(&tree, c, &aln, options.clone()).unwrap();
        let marked_tree = tree.with_foreground(c).unwrap();
        let cloned = Analysis::new(&marked_tree, &aln, options).unwrap();
        let f1 = direct.fit(Hypothesis::H0).unwrap();
        let f2 = cloned.fit(Hypothesis::H0).unwrap();
        assert_eq!(f1.lnl, f2.lnl);
        assert_eq!(f1.branch_lengths, f2.branch_lengths);
    }

    #[test]
    fn reported_lnls_replay_on_a_fresh_evaluator() {
        // A fit's evaluator keeps its state between calls; the reported
        // H0 and H1 lnL must still be exactly what an empty-state
        // evaluation gives at the reported points.
        for backend in [Backend::Slim, Backend::SlimPlus, Backend::SlimSymmetric] {
            let a = small_analysis(backend);
            let r = a.test_positive_selection().unwrap();
            for fit in [&r.h0, &r.h1] {
                let replay = a.log_likelihood(&fit.model, &fit.branch_lengths).unwrap();
                assert_eq!(
                    replay.to_bits(),
                    fit.lnl.to_bits(),
                    "{backend:?} {:?}: replay {replay} vs reported {}",
                    fit.hypothesis,
                    fit.lnl
                );
            }
        }
    }

    #[test]
    fn seeded_start_is_reproducible() {
        let a = small_analysis(Backend::Slim);
        let x1 = a.start_vector(Hypothesis::H1);
        let x2 = a.start_vector(Hypothesis::H1);
        assert_eq!(x1, x2);
    }

    #[test]
    fn initial_branch_length_override() {
        let tree = parse_newick("((A:0.2,B:0.2)#1:0.1,C:0.3);").unwrap();
        let aln = CodonAlignment::from_fasta(">A\nATGCCC\n>B\nATGCCA\n>C\nATGCCC\n").unwrap();
        let a = Analysis::new(
            &tree,
            &aln,
            AnalysisOptions {
                initial_branch_length: Some(0.5),
                jitter: 0.0,
                ..Default::default()
            },
        )
        .unwrap();
        let x = a.start_vector(Hypothesis::H0);
        for &b in &x[5..] {
            assert!((b - 0.5).abs() < 1e-12);
        }
    }

    /// lnL bits, iterations and f_evals of short H0 and H1 fits on Table
    /// II analog i, under forward differences — the schedule in which a
    /// gradient probes its coordinates must not move any of them — and
    /// under the exact gradient.
    #[test]
    fn short_fit_bits_are_pinned() {
        let d = slim_sim::dataset(slim_sim::DatasetId::I);
        for (hypothesis, grad_mode, want) in [
            (
                Hypothesis::H1,
                GradMode::Forward,
                (0xc0a59db4a0b62981, 4, 96),
            ),
            (
                Hypothesis::H0,
                GradMode::Analytic,
                (0xc0a59d419a76cda1, 4, 11),
            ),
            (
                Hypothesis::H1,
                GradMode::Analytic,
                (0xc0a59db487d6afc6, 4, 11),
            ),
        ] {
            let options = AnalysisOptions {
                max_iterations: 4,
                grad_mode,
                threads: Some(1),
                ..Default::default()
            };
            let fit = Analysis::new(&d.tree, &d.alignment, options)
                .unwrap()
                .fit(hypothesis)
                .unwrap();
            assert_eq!(
                (fit.lnl.to_bits(), fit.iterations, fit.f_evals),
                want,
                "{hypothesis:?} {grad_mode:?}"
            );
        }
    }
}
