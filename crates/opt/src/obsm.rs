//! slim-obs handles and span sites for the optimizer.
//!
//! [`crate::minimize`] records into the `opt.*` family — the paper's
//! Table III currency (iterations, evaluations), why each fit stopped,
//! and per-fit / per-iteration wall time through its span sites.

use crate::BfgsResult;
use slim_obs::{Counter, Site, Span};
use std::sync::{Arc, OnceLock};

/// `opt.fit` — one minimization run; its end event carries `algo` and
/// `termination`.
pub(crate) static FIT: Site = Site::new("opt.fit", "opt");
/// `opt.iteration` — one quasi-Newton iteration; its end event carries
/// the convergence trace (lnL, gradient norm, step, line-search evals).
pub(crate) static ITERATION: Site = Site::new("opt.iteration", "opt");

/// Stopping-reason names, in [`crate::TerminationReason`] declaration
/// order.
const TERMINATION: [&str; 4] = [
    "gradient_converged",
    "function_converged",
    "max_iterations",
    "line_search_failed",
];

#[derive(Debug)]
pub(crate) struct OptMetrics {
    /// `opt.fits` — minimization runs completed.
    pub fits: Arc<Counter>,
    /// `opt.iterations` — quasi-Newton iterations across all fits.
    pub iterations: Arc<Counter>,
    /// `opt.f_evals` — objective evaluations: starts, line-search trials
    /// and finite-difference probes (an analytic gradient adds none).
    pub f_evals: Arc<Counter>,
    /// `opt.grad_evals` — gradients taken: one exact gradient each under
    /// `GradMode::Analytic`; n forward or 2n central objective calls
    /// each under finite differences.
    pub grad_evals: Arc<Counter>,
    /// `opt.line_search_steps` — Armijo backtracking trials.
    pub line_search_steps: Arc<Counter>,
    /// `opt.termination.<reason>` — fits per stopping reason, in
    /// [`TERMINATION`] order.
    pub termination: [Arc<Counter>; 4],
}

static M: OnceLock<OptMetrics> = OnceLock::new();

pub(crate) fn metrics() -> &'static OptMetrics {
    M.get_or_init(|| OptMetrics {
        fits: slim_obs::counter("opt.fits"),
        iterations: slim_obs::counter("opt.iterations"),
        f_evals: slim_obs::counter("opt.f_evals"),
        grad_evals: slim_obs::counter("opt.grad_evals"),
        line_search_steps: slim_obs::counter("opt.line_search_steps"),
        termination: TERMINATION.map(|r| slim_obs::counter(&format!("opt.termination.{r}"))),
    })
}

/// The fit epilogue: bump the `opt.*` counters with what the fit spent,
/// count why it stopped, and put the reason on the `opt.fit` end event.
pub(crate) fn record_fit(
    fit_span: &mut Span,
    fit: &BfgsResult,
    grad_evals: usize,
    line_search_steps: usize,
) {
    let m = metrics();
    m.fits.inc();
    m.iterations.add(fit.iterations as u64);
    m.f_evals.add(fit.f_evals as u64);
    m.grad_evals.add(grad_evals as u64);
    m.line_search_steps.add(line_search_steps as u64);
    m.termination[fit.reason as usize].inc();
    fit_span.arg_str("termination", TERMINATION[fit.reason as usize]);
}

/// Eagerly register every optimizer metric name so snapshots are
/// schema-stable even before the first fit.
pub fn register_metrics() {
    let _ = metrics();
    FIT.histogram();
    ITERATION.histogram();
}
