//! A generic worker pool over crossbeam channels.
//!
//! Jobs are fanned out to N worker threads; each job is attempted up to
//! `1 + retries` times when it fails *recoverably* (non-finite
//! likelihoods, optimizer failures — anything worth a reseeded restart).
//! Non-recoverable failures (bad input files, malformed data) are
//! quarantined immediately: recorded with the captured error, without
//! aborting sibling jobs. A *panicking* runner is caught and treated as
//! a recoverable failure — one numerically pathological job (e.g. a
//! debug assertion deep in a fit) must never abort the batch.
//!
//! Completion records stream to a single collector callback on the
//! calling thread (in completion order — the journal's view); the final
//! result vector is sorted by job id, so downstream aggregation is
//! deterministic regardless of worker count or scheduling.

use slim_obs::trace::{self, Value};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cooperative cancellation shared between the pool and its caller.
/// Workers check it before starting each job; in-flight jobs finish.
#[derive(Debug, Clone, Default)]
pub struct CancelFlag(Arc<AtomicBool>);

impl CancelFlag {
    /// A fresh, un-cancelled flag.
    pub fn new() -> CancelFlag {
        CancelFlag::default()
    }

    /// Request cancellation; idempotent. Release pairs with the Acquire
    /// in [`CancelFlag::is_cancelled`]: a worker that observes the flag
    /// also observes everything the canceller wrote before setting it.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Has cancellation been requested?
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// A job handed to the pool.
#[derive(Debug, Clone)]
pub struct PoolJob<J> {
    /// Dense deterministic id (assignment order = manifest expansion
    /// order); results are sorted by it.
    pub id: usize,
    /// Stable identity across runs of the same manifest (resume matches
    /// journal records by key).
    pub key: String,
    /// Human-readable label for progress output.
    pub label: String,
    /// Runner-specific input.
    pub payload: J,
}

/// An error returned by a runner attempt.
#[derive(Debug, Clone)]
pub struct JobError {
    /// What went wrong.
    pub message: String,
    /// Whether a retry (with a reseeded start) could plausibly succeed.
    pub recoverable: bool,
}

impl JobError {
    /// A failure worth retrying (convergence trouble, non-finite lnL).
    pub fn recoverable(message: impl Into<String>) -> JobError {
        JobError {
            message: message.into(),
            recoverable: true,
        }
    }

    /// A failure that retrying cannot fix (bad input).
    pub fn fatal(message: impl Into<String>) -> JobError {
        JobError {
            message: message.into(),
            recoverable: false,
        }
    }
}

/// Flight-recorder events attached to a quarantine record (see
/// [`JobFailure::trace_tail`]).
pub const TRACE_TAIL_EVENTS: usize = 64;

/// Terminal failure after all attempts: the quarantine record.
#[derive(Debug, Clone)]
pub struct JobFailure {
    /// The last attempt's error message.
    pub error: String,
    /// Whether the last error was recoverable (true means retries were
    /// exhausted; false means the job was quarantined on first failure).
    pub recoverable: bool,
    /// Whether the advisory per-job time budget was exceeded.
    pub timed_out: bool,
    /// Flight-recorder dump: the last [`TRACE_TAIL_EVENTS`] trace events
    /// preceding quarantine, rendered as human-readable lines. Empty when
    /// tracing is disabled.
    pub trace_tail: Vec<String>,
}

/// One job's outcome as it leaves the pool.
#[derive(Debug, Clone)]
pub struct PoolRecord<O> {
    /// Job id (see [`PoolJob::id`]).
    pub id: usize,
    /// Job key (see [`PoolJob::key`]).
    pub key: String,
    /// Job label.
    pub label: String,
    /// Attempts consumed (1 = first try succeeded).
    pub attempts: usize,
    /// Wall-clock seconds spent on this job across attempts. Excluded
    /// from deterministic outputs.
    pub seconds: f64,
    /// Success payload or quarantined failure.
    pub outcome: Result<O, JobFailure>,
}

/// Pool configuration.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Worker threads (clamped to ≥ 1).
    pub workers: usize,
    /// Extra attempts after the first for recoverable errors.
    pub retries: usize,
    /// Base sleep between attempts, doubled each retry (0 disables).
    pub backoff: Duration,
    /// Advisory per-job time budget. Checked *between* attempts: an
    /// attempt always runs to completion (threads are never killed, so a
    /// wedged evaluation cannot be interrupted), but once the budget is
    /// spent no further retries happen and the failure is marked
    /// `timed_out`. `None` (the default) disables the budget; note that
    /// timeout classification depends on machine speed, so deterministic
    /// pipelines should leave it off.
    pub job_timeout: Option<Duration>,
    /// Cooperative cancellation.
    pub cancel: CancelFlag,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            workers: 1,
            retries: 1,
            backoff: Duration::from_millis(50),
            job_timeout: None,
            cancel: CancelFlag::new(),
        }
    }
}

/// Run `jobs` through a pool of `config.workers` threads.
///
/// `runner(job, attempt)` is called with a 0-based attempt index (so it
/// can reseed deterministically per attempt). `on_record` fires on the
/// calling thread for every completed record in *completion order* —
/// journaling hooks in here. The returned vector is sorted by job id.
///
/// Cancellation: once [`CancelFlag::cancel`] is observed, workers stop
/// picking up queued jobs; records for never-started jobs are simply
/// absent from the result.
pub fn run_pool<J, O, R, F>(
    jobs: Vec<PoolJob<J>>,
    config: &SchedulerConfig,
    runner: R,
    mut on_record: F,
) -> Vec<PoolRecord<O>>
where
    J: Send,
    O: Send,
    R: Fn(&PoolJob<J>, usize) -> Result<O, JobError> + Sync,
    F: FnMut(&PoolRecord<O>),
{
    let workers = config.workers.max(1);
    let n_jobs = jobs.len();
    let obs = crate::obsm::metrics();
    obs.workers.set(workers as f64);
    let obs_on = slim_obs::enabled();
    // check: allow(det-wallclock) feeds the pool utilization gauge only
    let pool_start = Instant::now();
    // Summed busy nanoseconds across workers, for the utilization gauge.
    let busy_total_ns = AtomicU64::new(0);
    let (job_tx, job_rx) = crossbeam::channel::unbounded::<PoolJob<J>>();
    let (rec_tx, rec_rx) = crossbeam::channel::unbounded::<PoolRecord<O>>();
    for job in jobs {
        // Unbounded channel with both endpoints alive: send cannot fail.
        let _ = job_tx.send(job);
    }
    drop(job_tx);

    let runner = &runner;
    let busy_total = &busy_total_ns;
    let mut records: Vec<PoolRecord<O>> = Vec::with_capacity(n_jobs);
    crossbeam::thread::scope(|scope| {
        for _ in 0..workers {
            let job_rx = job_rx.clone();
            let rec_tx = rec_tx.clone();
            let config = config.clone();
            scope.spawn(move |_| {
                let mut busy = Duration::ZERO;
                for job in job_rx.iter() {
                    if config.cancel.is_cancelled() {
                        break;
                    }
                    let queue_wait = pool_start.elapsed();
                    if obs_on {
                        obs.queue_wait.observe(queue_wait);
                    }
                    let mut job_span = crate::obsm::JOB.span();
                    job_span.arg_u64("id", job.id as u64);
                    job_span.arg_str("key", &job.key);
                    job_span.arg_u64(
                        "queue_wait_us",
                        u64::try_from(queue_wait.as_micros()).unwrap_or(u64::MAX),
                    );
                    let record = run_one(&job, &config, runner);
                    job_span.arg_u64("attempts", record.attempts as u64);
                    job_span.arg_str(
                        "status",
                        if record.outcome.is_ok() {
                            "ok"
                        } else {
                            "quarantined"
                        },
                    );
                    drop(job_span);
                    let spent = Duration::from_secs_f64(record.seconds.max(0.0));
                    busy += spent;
                    match &record.outcome {
                        Ok(_) => obs.completed.inc(),
                        Err(_) => obs.failed.inc(),
                    }
                    obs.retries.add(record.attempts.saturating_sub(1) as u64);
                    if rec_tx.send(record).is_err() {
                        break;
                    }
                }
                obs.worker_busy.observe(busy);
                let busy_ns = u64::try_from(busy.as_nanos()).unwrap_or(u64::MAX);
                // check: allow(atomic-ordering) monotonic busy-time tally, only read after scope join
                busy_total.fetch_add(busy_ns, Ordering::Relaxed);
                // Scoped threads must drain their event buffer before the
                // scope unblocks (TLS destructors may run too late).
                if trace::enabled() {
                    trace::flush_thread();
                }
            });
        }
        drop(rec_tx);
        drop(job_rx);
        // Collector: the scope's calling thread, so `on_record` needs no
        // Send bound and observes records in completion order.
        for record in rec_rx.iter() {
            on_record(&record);
            records.push(record);
        }
    })
    .expect("batch worker panicked");
    let wall = pool_start.elapsed().as_secs_f64();
    if wall > 0.0 {
        // check: allow(atomic-ordering) scope join above synchronizes; counter is metrics-only
        let busy = busy_total_ns.load(Ordering::Relaxed) as f64 * 1e-9;
        obs.utilization
            .set((busy / (workers as f64 * wall)).clamp(0.0, 1.0));
    }
    records.sort_by_key(|r| r.id);
    records
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

fn run_one<J, O, R>(job: &PoolJob<J>, config: &SchedulerConfig, runner: &R) -> PoolRecord<O>
where
    R: Fn(&PoolJob<J>, usize) -> Result<O, JobError>,
{
    // check: allow(det-wallclock) feeds the per-job timeout and the record's seconds field only
    let started = Instant::now();
    let mut attempts = 0usize;
    let outcome = loop {
        let attempt = attempts; // 0-based index passed to the runner
        attempts += 1;
        let attempt_result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| runner(job, attempt)))
                .unwrap_or_else(|payload| {
                    // `&*payload`, not `&payload`: the Box itself is `Any`,
                    // and coercing it directly would hide the String inside.
                    Err(JobError::recoverable(format!(
                        "job panicked: {}",
                        panic_message(&*payload)
                    )))
                });
        match attempt_result {
            Ok(o) => break Ok(o),
            Err(e) => {
                let timed_out = config
                    .job_timeout
                    .is_some_and(|budget| started.elapsed() >= budget);
                let out_of_attempts = attempts > config.retries;
                if !e.recoverable || out_of_attempts || timed_out {
                    trace::instant_with("batch.quarantine", "batch", || {
                        vec![
                            ("id", Value::U64(job.id as u64)),
                            ("attempts", Value::U64(attempts as u64)),
                            ("recoverable", Value::Bool(e.recoverable)),
                            ("timed_out", Value::Bool(timed_out)),
                        ]
                    });
                    // Flight-recorder dump: flush this worker's buffer so
                    // the tail includes the events leading up to failure.
                    let trace_tail = if trace::enabled() {
                        trace::flush_thread();
                        trace::dump_lines(TRACE_TAIL_EVENTS)
                    } else {
                        Vec::new()
                    };
                    break Err(JobFailure {
                        error: e.message,
                        recoverable: e.recoverable,
                        timed_out,
                        trace_tail,
                    });
                }
                trace::instant_with("batch.retry", "batch", || {
                    vec![
                        ("id", Value::U64(job.id as u64)),
                        ("attempt", Value::U64(attempts as u64)),
                    ]
                });
                if !config.backoff.is_zero() {
                    // Exponential backoff, capped to avoid overflow.
                    let factor = 1u32 << (attempt.min(10) as u32);
                    std::thread::sleep(config.backoff * factor);
                }
            }
        }
    };
    PoolRecord {
        id: job.id,
        key: job.key.clone(),
        label: job.label.clone(),
        attempts,
        seconds: started.elapsed().as_secs_f64(),
        outcome,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn jobs(n: usize) -> Vec<PoolJob<usize>> {
        (0..n)
            .map(|i| PoolJob {
                id: i,
                key: format!("k{i}"),
                label: format!("j{i}"),
                payload: i,
            })
            .collect()
    }

    fn quick(workers: usize, retries: usize) -> SchedulerConfig {
        SchedulerConfig {
            workers,
            retries,
            backoff: Duration::ZERO,
            ..SchedulerConfig::default()
        }
    }

    #[test]
    fn results_sorted_by_id_any_worker_count() {
        for workers in [1, 4] {
            let recs = run_pool(
                jobs(20),
                &quick(workers, 0),
                |j, _| Ok(j.payload * 2),
                |_| {},
            );
            assert_eq!(recs.len(), 20);
            for (i, r) in recs.iter().enumerate() {
                assert_eq!(r.id, i);
                assert_eq!(*r.outcome.as_ref().unwrap(), i * 2);
                assert_eq!(r.attempts, 1);
            }
        }
    }

    #[test]
    fn recoverable_errors_retry_up_to_limit() {
        // Succeeds on the third attempt; job 5 never succeeds.
        let recs = run_pool(
            jobs(8),
            &quick(2, 3),
            |j, attempt| {
                if j.payload == 5 {
                    Err(JobError::recoverable("always fails"))
                } else if attempt < 2 {
                    Err(JobError::recoverable("transient"))
                } else {
                    Ok(j.payload)
                }
            },
            |_| {},
        );
        assert_eq!(recs.len(), 8);
        for r in &recs {
            if r.id == 5 {
                let f = r.outcome.as_ref().unwrap_err();
                assert_eq!(r.attempts, 4, "1 + retries attempts");
                assert!(f.recoverable);
                assert!(!f.timed_out);
            } else {
                assert!(r.outcome.is_ok());
                assert_eq!(r.attempts, 3);
            }
        }
    }

    #[test]
    fn fatal_errors_quarantine_immediately_without_hurting_siblings() {
        let calls = AtomicUsize::new(0);
        let recs = run_pool(
            jobs(6),
            &quick(3, 5),
            |j, _| {
                calls.fetch_add(1, Ordering::SeqCst);
                if j.payload == 2 {
                    Err(JobError::fatal("corrupt input"))
                } else {
                    Ok(j.payload)
                }
            },
            |_| {},
        );
        assert_eq!(recs.len(), 6);
        let bad = &recs[2];
        assert_eq!(bad.attempts, 1, "no retry for fatal errors");
        assert_eq!(bad.outcome.as_ref().unwrap_err().error, "corrupt input");
        assert_eq!(recs.iter().filter(|r| r.outcome.is_ok()).count(), 5);
        assert_eq!(calls.load(Ordering::SeqCst), 6);
    }

    #[test]
    fn panicking_runner_is_quarantined_not_propagated() {
        let recs = run_pool(
            jobs(4),
            &quick(2, 1),
            |j, attempt| {
                if j.payload == 1 {
                    panic!("simulated numerical blow-up (attempt {attempt})");
                }
                Ok(j.payload)
            },
            |_| {},
        );
        assert_eq!(recs.len(), 4, "a panicking job must not abort the pool");
        let bad = &recs[1];
        assert_eq!(bad.attempts, 2, "panics count as recoverable: 1 + retries");
        let f = bad.outcome.as_ref().unwrap_err();
        assert!(f.error.contains("job panicked"), "{}", f.error);
        assert!(f.error.contains("simulated numerical blow-up (attempt 1)"));
        assert_eq!(recs.iter().filter(|r| r.outcome.is_ok()).count(), 3);
    }

    #[test]
    fn cancel_stops_pulling_new_jobs() {
        let config = quick(1, 0);
        let cancel = config.cancel.clone();
        let calls = AtomicUsize::new(0);
        let recs = run_pool(
            jobs(10),
            &config,
            |j, _| {
                if calls.fetch_add(1, Ordering::SeqCst) + 1 == 3 {
                    cancel.cancel(); // set mid-run, as an observer would
                }
                Ok(j.payload)
            },
            |_| {},
        );
        // One worker: the in-flight third job completes, nothing after it
        // starts.
        assert_eq!(recs.len(), 3);
        assert_eq!(recs.iter().map(|r| r.id).collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    #[test]
    fn timeout_suppresses_retries_and_marks_record() {
        let config = SchedulerConfig {
            workers: 1,
            retries: 10,
            backoff: Duration::ZERO,
            job_timeout: Some(Duration::from_millis(1)),
            cancel: CancelFlag::new(),
        };
        let recs = run_pool(
            jobs(1),
            &config,
            |_, _| -> Result<usize, JobError> {
                std::thread::sleep(Duration::from_millis(5));
                Err(JobError::recoverable("slow and failing"))
            },
            |_| {},
        );
        let f = recs[0].outcome.as_ref().unwrap_err();
        assert_eq!(recs[0].attempts, 1);
        assert!(f.timed_out);
    }

    #[test]
    fn quarantined_jobs_carry_flight_recorder_dump() {
        // With tracing enabled, a terminal failure must attach the last
        // flight-recorder events to its quarantine record.
        trace::set_enabled(true);
        trace::clear();
        let recs = run_pool(
            jobs(2),
            &quick(1, 1),
            |j, _| {
                if j.payload == 1 {
                    Err(JobError::recoverable("always fails"))
                } else {
                    Ok(j.payload)
                }
            },
            |_| {},
        );
        trace::set_enabled(false);
        let f = recs[1].outcome.as_ref().unwrap_err();
        assert!(!f.trace_tail.is_empty(), "dump must not be empty");
        assert!(
            f.trace_tail.iter().any(|l| l.contains("batch.quarantine")),
            "dump should include the quarantine instant: {:?}",
            f.trace_tail
        );
        assert!(recs[0].outcome.is_ok(), "sibling job unaffected");
    }

    #[test]
    fn collector_sees_every_record_once() {
        let mut keys = Vec::new();
        let recs = run_pool(
            jobs(12),
            &quick(4, 0),
            |j, _| Ok(j.payload),
            |r| keys.push(r.key.clone()),
        );
        assert_eq!(recs.len(), 12);
        keys.sort();
        let mut expect: Vec<String> = (0..12).map(|i| format!("k{i}")).collect();
        expect.sort();
        assert_eq!(keys, expect);
    }
}
