//! slim-obs handles and span sites for the likelihood engine.
//!
//! One `OnceLock`-cached struct of `Arc` handles: the evaluation hot path
//! records through relaxed atomics and never touches the registry lock.
//! Each span site times its region into `<name>_seconds` and the trace.

use slim_obs::{Counter, Gauge, Site};
use std::sync::{Arc, OnceLock};

/// `lik.evaluate` — one whole evaluation.
pub(crate) static EVALUATE: Site = Site::new("lik.evaluate", "lik");
/// `lik.phase.eigen` — §III-A steps 1–2 per evaluation.
pub(crate) static PHASE_EIGEN: Site = Site::new("lik.phase.eigen", "lik");
/// `lik.phase.expm` — transition-operator reconstruction.
pub(crate) static PHASE_EXPM: Site = Site::new("lik.phase.expm", "lik");
/// `lik.phase.pruning` — Felsenstein pruning (wall clock).
pub(crate) static PHASE_PRUNING: Site = Site::new("lik.phase.pruning", "lik");
/// `lik.phase.reduction` — serial class mixing + total.
pub(crate) static PHASE_REDUCTION: Site = Site::new("lik.phase.reduction", "lik");
/// `lik.phase.outside` — the outside pass (ancestral reconstruction).
pub(crate) static PHASE_OUTSIDE: Site = Site::new("lik.phase.outside", "lik");
/// `lik.phase.gradient` — the adjoint pass of one exact gradient.
pub(crate) static PHASE_GRADIENT: Site = Site::new("lik.phase.gradient", "lik");
/// `lik.pruning.worker_busy` — one pruning worker's loop over its units
/// (one span per worker per evaluation, serial path included), so the
/// spread shows pruning load balance.
pub(crate) static WORKER_BUSY: Site = Site::new("lik.pruning.worker_busy", "lik");
/// `lik.block` — one (background-ω group × pattern block) pruning unit.
pub(crate) static BLOCK: Site = Site::new("lik.block", "lik");

#[derive(Debug)]
pub(crate) struct LikMetrics {
    /// `lik.evaluations` — full likelihood evaluations run.
    pub evaluations: Arc<Counter>,
    /// `lik.pruning.units` — (background-ω group × pattern block) units
    /// pruned.
    pub units: Arc<Counter>,
    /// `lik.threads` — resolved thread count of the last evaluation.
    pub threads: Arc<Gauge>,
    /// `lik.simd.lanes` — vector lanes of the SIMD backend the last
    /// evaluation resolved to (1 = scalar, 4 = AVX2, 2 = NEON).
    pub simd_lanes: Arc<Gauge>,
    /// `lik.reuse.full_invalidations` — evaluations that had to recompute
    /// everything (globals changed, empty state, or shape change).
    pub reuse_full_invalidations: Arc<Counter>,
    /// `lik.reuse.dirty_branches` — branches whose length bits changed
    /// since the previous evaluation, summed over evaluations.
    pub reuse_dirty_branches: Arc<Counter>,
    /// `lik.reuse.units_reused` — internal-node CPV blocks served from the
    /// cross-evaluation cache: one per unit at a node off the foreground
    /// path, one per variant at a node on it.
    pub reuse_units_reused: Arc<Counter>,
    /// `lik.reuse.units_recomputed` — internal-node CPV blocks recomputed
    /// because they sat on a dirty root-path or the state was empty,
    /// counted as `units_reused` counts them.
    pub reuse_units_recomputed: Arc<Counter>,
}

static M: OnceLock<LikMetrics> = OnceLock::new();

pub(crate) fn metrics() -> &'static LikMetrics {
    M.get_or_init(|| LikMetrics {
        evaluations: slim_obs::counter("lik.evaluations"),
        units: slim_obs::counter("lik.pruning.units"),
        threads: slim_obs::gauge("lik.threads"),
        simd_lanes: slim_obs::gauge("lik.simd.lanes"),
        reuse_full_invalidations: slim_obs::counter("lik.reuse.full_invalidations"),
        reuse_dirty_branches: slim_obs::counter("lik.reuse.dirty_branches"),
        reuse_units_reused: slim_obs::counter("lik.reuse.units_reused"),
        reuse_units_recomputed: slim_obs::counter("lik.reuse.units_recomputed"),
    })
}

/// Eagerly register every likelihood-engine metric name so snapshots are
/// schema-stable even before the first evaluation.
pub fn register_metrics() {
    let _ = metrics();
    for site in [
        &EVALUATE,
        &PHASE_EIGEN,
        &PHASE_EXPM,
        &PHASE_PRUNING,
        &PHASE_REDUCTION,
        &PHASE_OUTSIDE,
        &PHASE_GRADIENT,
        &WORKER_BUSY,
        &BLOCK,
    ] {
        site.histogram();
    }
}
