//! slim-obs handles for the likelihood engine.
//!
//! One `OnceLock`-cached struct of `Arc` handles: the evaluation hot path
//! records through relaxed atomics and never touches the registry lock.

use slim_obs::{Counter, Gauge, Histogram};
use std::sync::{Arc, OnceLock};

#[derive(Debug)]
pub(crate) struct LikMetrics {
    /// `lik.evaluations` — full likelihood evaluations run.
    pub evaluations: Arc<Counter>,
    /// `lik.pruning.units` — (site class × pattern block) units pruned.
    pub units: Arc<Counter>,
    /// `lik.phase.eigen_seconds` — §III-A steps 1–2 per evaluation.
    pub eigen: Arc<Histogram>,
    /// `lik.phase.expm_seconds` — transition-operator reconstruction.
    pub expm: Arc<Histogram>,
    /// `lik.phase.pruning_seconds` — Felsenstein pruning (wall clock).
    pub pruning: Arc<Histogram>,
    /// `lik.phase.reduction_seconds` — serial class mixing + total.
    pub reduction: Arc<Histogram>,
    /// `lik.pruning.worker_busy_seconds` — per-worker time inside
    /// `prune_block` (one observation per worker per evaluation), so the
    /// spread shows pruning load balance.
    pub worker_busy: Arc<Histogram>,
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
    /// cross-evaluation cache.
    pub reuse_units_reused: Arc<Counter>,
    /// `lik.reuse.units_recomputed` — internal-node CPV blocks recomputed
    /// because they sat on a dirty root-path or the state was empty.
    pub reuse_units_recomputed: Arc<Counter>,
}

static M: OnceLock<LikMetrics> = OnceLock::new();

pub(crate) fn metrics() -> &'static LikMetrics {
    M.get_or_init(|| LikMetrics {
        evaluations: slim_obs::counter("lik.evaluations"),
        units: slim_obs::counter("lik.pruning.units"),
        eigen: slim_obs::histogram("lik.phase.eigen_seconds"),
        expm: slim_obs::histogram("lik.phase.expm_seconds"),
        pruning: slim_obs::histogram("lik.phase.pruning_seconds"),
        reduction: slim_obs::histogram("lik.phase.reduction_seconds"),
        worker_busy: slim_obs::histogram("lik.pruning.worker_busy_seconds"),
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
}
