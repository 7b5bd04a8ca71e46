//! slim-obs handles and span sites for the batch worker pool.

use slim_obs::{Counter, Gauge, Histogram, Site};
use std::sync::{Arc, OnceLock};

/// `batch.job` — one job across all its attempts; its end event carries
/// the job id, key, queue wait, attempts and status.
pub(crate) static JOB: Site = Site::new("batch.job", "batch");

#[derive(Debug)]
pub(crate) struct BatchMetrics {
    /// `batch.jobs.completed` — jobs that ended in success.
    pub completed: Arc<Counter>,
    /// `batch.jobs.failed` — jobs quarantined after all attempts.
    pub failed: Arc<Counter>,
    /// `batch.jobs.retries` — extra attempts beyond each job's first.
    pub retries: Arc<Counter>,
    /// `batch.queue_wait_seconds` — time from pool start to job pickup.
    pub queue_wait: Arc<Histogram>,
    /// `batch.worker_busy_seconds` — per-worker time inside jobs (one
    /// observation per worker per pool run).
    pub worker_busy: Arc<Histogram>,
    /// `batch.pool.workers` — worker threads of the last pool run.
    pub workers: Arc<Gauge>,
    /// `batch.pool.utilization` — Σ worker busy / (workers × pool wall)
    /// of the last pool run, in [0, 1].
    pub utilization: Arc<Gauge>,
}

static M: OnceLock<BatchMetrics> = OnceLock::new();

pub(crate) fn metrics() -> &'static BatchMetrics {
    M.get_or_init(|| BatchMetrics {
        completed: slim_obs::counter("batch.jobs.completed"),
        failed: slim_obs::counter("batch.jobs.failed"),
        retries: slim_obs::counter("batch.jobs.retries"),
        queue_wait: slim_obs::histogram("batch.queue_wait_seconds"),
        worker_busy: slim_obs::histogram("batch.worker_busy_seconds"),
        workers: slim_obs::gauge("batch.pool.workers"),
        utilization: slim_obs::gauge("batch.pool.utilization"),
    })
}

/// Eagerly register every batch metric name so snapshots are
/// schema-stable even before the first pool run.
pub fn register_metrics() {
    let _ = metrics();
    JOB.histogram();
}
