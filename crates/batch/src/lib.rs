//! # slim-batch
//!
//! Multi-gene batch orchestration for the branch-site positive-selection
//! test — the Selectome-style workload that motivates the paper: "this is
//! done iteratively for each branch of a phylogenetic tree", over
//! thousands of gene families per release (§I-A).
//!
//! The subsystem has four layers:
//!
//! * [`manifest`] — a JSON job manifest listing gene families (alignment,
//!   tree, genetic code, branches to test, backend, options), validated
//!   and expanded into a deterministic job list.
//! * [`scheduler`] — a worker pool over crossbeam channels fanning the
//!   H0/H1 fits across N threads, with bounded retry (reseeded jitter)
//!   for recoverable errors and quarantine for poisoned jobs.
//! * [`journal`] — an append-only JSONL checkpoint enabling `--resume`
//!   after interruption.
//! * [`aggregate`] — merged results sorted by job id (deterministic
//!   regardless of completion order) plus TSV/JSON writers.
//!
//! Determinism contract: for a given manifest, the TSV report and the
//! timing-free JSON report are byte-identical regardless of worker count,
//! completion order, or whether the run was interrupted and resumed.

pub mod aggregate;
pub mod journal;
pub mod jsonio;
pub mod manifest;
mod obsm;
pub mod runner;
pub mod scheduler;

pub use aggregate::{BatchRecord, BatchReport, RecordStatus, RunSummary};
pub use journal::{read_journal, JournalWriter};
pub use manifest::{BatchManifest, BranchRef, BranchSpec, JobInput, JobPayload, ManifestEntry};
pub use obsm::register_metrics;
pub use runner::{run_analysis_job, scan_branches, JobOutcome, ScanEntry};
pub use scheduler::{
    run_pool, CancelFlag, JobError, JobFailure, PoolJob, PoolRecord, SchedulerConfig,
};

use std::fmt;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Errors from the batch layer. Per-job failures are *not* errors — they
/// are captured in the records; this type covers problems with the batch
/// itself (manifest, journal, output IO).
#[derive(Debug)]
pub enum BatchError {
    /// Manifest parse/validation problem.
    Manifest(String),
    /// Journal read/write problem.
    Journal(String),
    /// Other file IO problem.
    Io(String),
}

impl fmt::Display for BatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BatchError::Manifest(m) => write!(f, "manifest error: {m}"),
            BatchError::Journal(m) => write!(f, "journal error: {m}"),
            BatchError::Io(m) => write!(f, "io error: {m}"),
        }
    }
}

impl std::error::Error for BatchError {}

/// Result alias for the batch layer.
pub type Result<T> = std::result::Result<T, BatchError>;

/// Configuration for one `run_batch` invocation (the CLI's view).
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Worker threads (clamped to at least 1).
    pub workers: usize,
    /// Extra attempts per job after the first, for recoverable errors.
    pub retries: usize,
    /// Continue from an existing journal instead of starting fresh.
    pub resume: bool,
    /// Path of the JSONL checkpoint journal.
    pub journal_path: PathBuf,
    /// Base backoff between retry attempts (doubled per attempt).
    pub backoff: Duration,
    /// Advisory per-job time budget; see [`SchedulerConfig::job_timeout`].
    pub job_timeout: Option<Duration>,
    /// Cooperative cancellation flag shared with the caller.
    pub cancel: CancelFlag,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            workers: 1,
            retries: 1,
            resume: false,
            journal_path: PathBuf::from("slim_batch.journal.jsonl"),
            backoff: Duration::from_millis(50),
            job_timeout: None,
            cancel: CancelFlag::new(),
        }
    }
}

/// Run a manifest end to end: parse, expand, schedule, journal, merge.
///
/// # Errors
/// [`BatchError`] on manifest or journal problems. Per-job failures are
/// captured in the returned records, never escalated.
pub fn run_batch(manifest_path: &Path, config: &RunConfig) -> Result<BatchReport> {
    run_batch_with(manifest_path, config, |_| {})
}

/// Like [`run_batch`] with an observer called for every freshly completed
/// job record (in completion order, before merging). The observer may set
/// the cancel flag to stop the run early; already-journaled records are
/// not replayed through it.
///
/// # Errors
/// See [`run_batch`].
pub fn run_batch_with<F>(
    manifest_path: &Path,
    config: &RunConfig,
    mut observer: F,
) -> Result<BatchReport>
where
    F: FnMut(&BatchRecord),
{
    // check: allow(det-wallclock) feeds the BatchSummary::wall_seconds report field only
    let started = Instant::now();
    let text = std::fs::read_to_string(manifest_path).map_err(|e| {
        BatchError::Io(format!(
            "cannot read manifest {}: {e}",
            manifest_path.display()
        ))
    })?;
    let manifest = BatchManifest::parse(&text)?;
    let fingerprint = manifest.fingerprint();
    let base_dir = manifest_path.parent().unwrap_or_else(|| Path::new("."));
    let jobs = manifest.expand(base_dir);
    let total = jobs.len();

    // Load or create the journal.
    let mut prior: Vec<BatchRecord> = Vec::new();
    if config.resume && config.journal_path.exists() {
        let loaded = read_journal(&config.journal_path, fingerprint)?;
        // Re-key against the current expansion: ids are reassigned from
        // the manifest (same fingerprint ⇒ same expansion), stray keys
        // are dropped.
        // BTreeMap, not HashMap: nothing here iterates, but keeping the
        // journal/aggregation paths hash-free makes the determinism
        // contract auditable at a glance (slim-check det-hash-iter).
        let id_of: std::collections::BTreeMap<&str, usize> =
            jobs.iter().map(|j| (j.key.as_str(), j.id)).collect();
        for mut rec in loaded {
            if let Some(&id) = id_of.get(rec.key.as_str()) {
                rec.id = id;
                rec.from_journal = true;
                prior.push(rec);
            }
        }
    }
    let mut writer = if config.resume && config.journal_path.exists() {
        JournalWriter::append(&config.journal_path)?
    } else {
        JournalWriter::create(&config.journal_path, fingerprint)?
    };

    let done_keys: std::collections::BTreeSet<&str> =
        prior.iter().map(|r| r.key.as_str()).collect();
    let to_run: Vec<PoolJob<JobPayload>> = jobs
        .into_iter()
        .filter(|j| !done_keys.contains(j.key.as_str()))
        .collect();

    let sched = SchedulerConfig {
        workers: config.workers,
        retries: config.retries,
        backoff: config.backoff,
        job_timeout: config.job_timeout,
        cancel: config.cancel.clone(),
    };
    let mut journal_error: Option<BatchError> = None;
    let fresh = run_pool(to_run, &sched, run_analysis_job, |rec| {
        let brec = BatchRecord::from_pool(rec);
        if journal_error.is_none() {
            if let Err(e) = writer.record(&brec) {
                journal_error = Some(e);
            }
        }
        observer(&brec);
    });
    if let Some(e) = journal_error {
        return Err(e);
    }

    let mut records = prior;
    records.extend(fresh.iter().map(BatchRecord::from_pool));
    Ok(BatchReport::from_records(
        records,
        total,
        started.elapsed().as_secs_f64(),
    ))
}
