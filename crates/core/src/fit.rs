//! The one fit driver every model runs, and the result of maximizing one
//! branch-site hypothesis.
//!
//! Every fit optimizes one parameter layout, `[κ, ω0, ω2, p0, p1, t…]`,
//! through one BFGS run on one evaluator ([`maximize`]). A model supplies
//! only what differs: its ω2 and proportion blocks, the five-parameter
//! head of its seeded start ([`start_vector`]), and its lnL and that
//! lnL's exact gradient ([`Likelihood`]).

use crate::obsm::H1Outcome;
use crate::{AnalysisOptions, CoreError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use slim_bio::Tree;
use slim_lik::{EngineConfig, LikelihoodProblem, ReuseEvaluator};
use slim_linalg::LinalgError;
use slim_model::{BranchSiteModel, Hypothesis};
use slim_opt::{minimize, BfgsOptions, Block, BlockTransform, Objective, TerminationReason};
use std::time::{Duration, Instant};

/// A maximized branch-site model fit.
#[derive(Debug, Clone)]
pub struct Fit {
    /// Which hypothesis was fitted.
    pub hypothesis: Hypothesis,
    /// Maximized log-likelihood.
    pub lnl: f64,
    /// Parameter estimates at the maximum.
    pub model: BranchSiteModel,
    /// Branch-length estimates (problem branch order).
    pub branch_lengths: Vec<f64>,
    /// Optimizer iterations (the paper's Table III "Iterations" column).
    pub iterations: usize,
    /// Likelihood evaluations: the start, every line-search trial and,
    /// under a finite-difference [`GradMode`](crate::GradMode), every
    /// probe. An analytic gradient adds none.
    pub f_evals: usize,
    /// Wall-clock time of the fit.
    pub wall_time: Duration,
    /// Why the optimizer stopped.
    pub termination: TerminationReason,
}

impl Fit {
    /// The fit of `hypothesis` at the driver's maximum.
    pub(crate) fn new(hypothesis: Hypothesis, maximum: Maximum) -> Fit {
        let mut model = maximum.x;
        let branch_lengths = model.split_off(5);
        Fit {
            hypothesis,
            lnl: maximum.lnl,
            model: branch_site_model(&model),
            branch_lengths,
            iterations: maximum.iterations,
            f_evals: maximum.f_evals,
            wall_time: maximum.wall_time,
            termination: maximum.termination,
        }
    }

    /// Wall-time per optimizer iteration (used for the paper's
    /// per-iteration speedups, Table IV).
    pub fn seconds_per_iteration(&self) -> f64 {
        if self.iterations == 0 {
            self.wall_time.as_secs_f64()
        } else {
            self.wall_time.as_secs_f64() / self.iterations as f64
        }
    }

    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "{}: lnL = {:.6}, kappa = {:.4}, w0 = {:.4}, w2 = {:.4}, p0 = {:.4}, p1 = {:.4}, {} iterations, {:.3}s",
            self.hypothesis.name(),
            self.lnl,
            self.model.kappa,
            self.model.omega0,
            self.model.omega2,
            self.model.p0,
            self.model.p1,
            self.iterations,
            self.wall_time.as_secs_f64()
        )
    }
}

/// The branch-site model in the head of a fit's parameter vector.
pub(crate) fn branch_site_model(x: &[f64]) -> BranchSiteModel {
    BranchSiteModel {
        kappa: x[0],
        omega0: x[1],
        omega2: x[2],
        p0: x[3],
        p1: x[4],
    }
}

/// Bounds shared with CodeML's defaults.
const KAPPA_LO: f64 = 1e-3;
pub(crate) const OMEGA0_LO: f64 = 1e-6;
pub(crate) const OMEGA0_HI: f64 = 1.0 - 1e-6;
const BL_LO: f64 = 1e-6;
const BL_HI: f64 = 50.0;

/// The branch lengths a fit starts from: the tree's, or
/// `options.initial_branch_length` on every branch, clamped into the
/// optimizer's box.
pub(crate) fn initial_branch_lengths(tree: &Tree, options: &AnalysisOptions) -> Vec<f64> {
    let mut init = tree.branch_lengths();
    if let Some(l) = options.initial_branch_length {
        init = vec![l; init.len()];
    }
    for v in &mut init {
        *v = v.clamp(BL_LO * 10.0, BL_HI / 10.0);
    }
    init
}

/// The seeded start of a fit (both engines get the identical start for a
/// given seed, as in the paper's protocol). `head` draws the model's five
/// parameters through the jitter, in the model's own draw order; then
/// (p0, p1) are pulled back inside the simplex and each initial branch
/// length is jittered.
pub(crate) fn start_vector(
    options: &AnalysisOptions,
    init_branch_lengths: &[f64],
    head: impl FnOnce(&mut dyn FnMut(f64) -> f64) -> [f64; 5],
) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(options.seed);
    let mut jitter = |v: f64| v * (1.0 + options.jitter * (rng.gen::<f64>() - 0.5) * 2.0);
    let mut x = head(&mut jitter).to_vec();
    let s = x[3] + x[4];
    if s > 0.95 {
        x[3] *= 0.9 / s;
        x[4] *= 0.9 / s;
    }
    for &b in init_branch_lengths {
        x.push(jitter(b).clamp(BL_LO * 2.0, BL_HI / 2.0));
    }
    x
}

/// One maximized fit, in the `[κ, ω0, ω2, p0, p1, t…]` layout; [`Fit`]
/// and [`SitesFit`](crate::SitesFit) are filled from it.
#[derive(Debug, Clone)]
pub(crate) struct Maximum {
    /// The fitted point.
    pub(crate) x: Vec<f64>,
    /// Maximized log-likelihood.
    pub(crate) lnl: f64,
    pub(crate) iterations: usize,
    pub(crate) f_evals: usize,
    pub(crate) wall_time: Duration,
    pub(crate) termination: TerminationReason,
}

/// What a model gives [`maximize`], at a point of the layout
/// `[κ, ω0, ω2, p0, p1, t…]`.
pub(crate) trait Likelihood {
    /// The log-likelihood.
    fn lnl(&self, evaluator: &mut ReuseEvaluator<'_>, x: &[f64]) -> Result<f64, LinalgError>;

    /// The gradient of [`lnl`](Likelihood::lnl) over the layout, taken at
    /// the point the evaluator last evaluated.
    fn gradient(
        &self,
        evaluator: &mut ReuseEvaluator<'_>,
        x: &[f64],
    ) -> Result<Vec<f64>, LinalgError>;
}

/// The negative log-likelihood over BFGS's unconstrained coordinates.
struct NegLnl<'p, L> {
    transform: BlockTransform,
    evaluator: ReuseEvaluator<'p>,
    model: L,
    /// Whether the evaluator keeps its state between calls.
    reuse: bool,
}

impl<L: Likelihood> Objective for NegLnl<'_, L> {
    fn cost(&mut self, z: &[f64]) -> f64 {
        let x = self.transform.to_constrained(z);
        if !self.reuse {
            self.evaluator.clear();
        }
        match self.model.lnl(&mut self.evaluator, &x) {
            Ok(v) if v.is_finite() => -v,
            _ => f64::INFINITY,
        }
    }

    /// The exact gradient, pulled back through the transform. BFGS takes
    /// it only where [`cost`](Objective::cost) was just finite, so the
    /// state that evaluation kept serves it on every backend and no
    /// evaluation can fail.
    fn gradient(&mut self, z: &[f64]) -> Vec<f64> {
        let x = self.transform.to_constrained(z);
        let g = self
            .model
            .gradient(&mut self.evaluator, &x)
            // check: allow(rob-unwrap) the kept state of the point just evaluated serves the gradient without an evaluation
            .expect("gradient at the point just evaluated");
        self.transform.pull_back(z, &g).iter().map(|v| -v).collect()
    }
}

/// Maximize `model`'s lnL from `x0` (strictly inside the feasible region)
/// over the layout `[κ, ω0, ω2, p0, p1, t…]`, where
/// `omega2_and_proportions` bound the ω2, p0 and p1 slots.
///
/// One evaluator, under the analysis' one `config`, serves the whole fit.
/// It diffs parameters bitwise
/// against its previous call, so kept and cleared state give the same
/// bits (see slim-lik's reuse module docs); the codeml-style backend
/// clears it before every evaluation.
///
/// # Errors
/// [`CoreError::Optimization`] if the likelihood is not finite at `x0`.
pub(crate) fn maximize(
    problem: &LikelihoodProblem,
    config: &EngineConfig,
    options: &AnalysisOptions,
    omega2_and_proportions: &[Block],
    x0: &[f64],
    model: impl Likelihood,
) -> Result<Maximum, CoreError> {
    let mut blocks = vec![
        Block::LowerBounded { lo: KAPPA_LO },
        Block::BoxBounded {
            lo: OMEGA0_LO,
            hi: OMEGA0_HI,
        },
    ];
    blocks.extend_from_slice(omega2_and_proportions);
    blocks.push(Block::BoxBoundedVec {
        lo: BL_LO,
        hi: BL_HI,
        count: problem.n_branches(),
    });
    let transform = BlockTransform::new(blocks);
    let z0 = transform.to_unconstrained(x0);

    let mut objective = NegLnl {
        transform: transform.clone(),
        evaluator: ReuseEvaluator::new(problem, config.clone()),
        model,
        reuse: options.backend.reuses_likelihoods(),
    };
    if !objective.cost(&z0).is_finite() {
        return Err(CoreError::Optimization(
            "likelihood not finite at the starting point".into(),
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
    let result = minimize(objective, &z0, &opts);
    let wall_time = started.elapsed();

    let x = transform.to_constrained(&result.x);
    #[cfg(feature = "sanitize")]
    slim_linalg::sanitize::check_finite("fitted lnL", -result.f, || {
        format!(
            "fit ending at [κ, ω0, ω2, p0, p1] = {:?} after {} iterations ({} evaluations)",
            &x[..5],
            result.iterations,
            result.f_evals
        )
    });
    Ok(Maximum {
        x,
        lnl: -result.f,
        iterations: result.iterations,
        f_evals: result.f_evals,
        wall_time,
        termination: result.reason,
    })
}

/// Keep a nesting hypothesis' estimate at least as good as its null's.
///
/// `lift(x, ε)` maps the null's fitted point `x` into the alternative's
/// layout, `ε` inside the alternative's open space; at `ε = 0` it is the
/// null's point itself, which the alternative's closed space contains. So
/// at the true optima the alternative's lnL is at least the null's, and an
/// `alt` below `null` found a worse local optimum. It is re-polished by
/// `refit` from `lift(x, 1e-3)`; if the better of the two is still below,
/// the null's point and lnL are reported as the alternative's estimate,
/// with the alternative's own iteration, evaluation, wall-time and
/// termination accounting.
///
/// # Errors
/// Propagates `refit`'s error.
pub(crate) fn nest(
    null: &Maximum,
    alt: Maximum,
    lift: impl Fn(&[f64], f64) -> Vec<f64>,
    refit: impl FnOnce(&[f64]) -> Result<Maximum, CoreError>,
) -> Result<(Maximum, H1Outcome), CoreError> {
    if alt.lnl < null.lnl {
        let polished = refit(&lift(&null.x, 1e-3))?;
        let alt = if polished.lnl > alt.lnl {
            polished
        } else {
            alt
        };
        if alt.lnl < null.lnl {
            let at_null = Maximum {
                x: lift(&null.x, 0.0),
                lnl: null.lnl,
                ..alt
            };
            return Ok((at_null, H1Outcome::H0));
        }
        return Ok((alt, H1Outcome::Polished));
    }
    Ok((alt, H1Outcome::Jitter))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_fit(iterations: usize, secs: f64) -> Fit {
        Fit {
            hypothesis: Hypothesis::H1,
            lnl: -1234.5,
            model: BranchSiteModel::default_start(Hypothesis::H1),
            branch_lengths: vec![0.1, 0.2],
            iterations,
            f_evals: 100,
            wall_time: Duration::from_secs_f64(secs),
            termination: TerminationReason::FunctionConverged,
        }
    }

    #[test]
    fn per_iteration_time() {
        let f = dummy_fit(10, 5.0);
        assert!((f.seconds_per_iteration() - 0.5).abs() < 1e-12);
        // Zero iterations falls back to total time rather than dividing by 0.
        let f0 = dummy_fit(0, 5.0);
        assert_eq!(f0.seconds_per_iteration(), 5.0);
    }

    #[test]
    fn summary_contains_fields() {
        let s = dummy_fit(10, 1.0).summary();
        assert!(s.contains("H1"));
        assert!(s.contains("lnL"));
        assert!(s.contains("10 iterations"));
    }
}
