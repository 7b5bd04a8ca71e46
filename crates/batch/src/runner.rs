//! The per-job workload: one H0/H1 positive-selection test.
//!
//! This is the bridge between the generic [`crate::scheduler`] and
//! `slim-core`: it classifies `CoreError`s into recoverable vs fatal
//! (retrying an unreadable alignment is pointless; retrying a
//! non-finite likelihood with a jittered restart often works), and
//! perturbs the RNG seed per attempt so a retry explores a different
//! start point instead of deterministically re-failing.

use crate::manifest::{JobInput, JobPayload};
use crate::scheduler::{JobError, JobFailure, PoolJob, SchedulerConfig};
use slim_bio::{CodonAlignment, NodeId, Tree};
use slim_core::{Analysis, AnalysisOptions, CoreError, TestResult};

/// Posterior-probability threshold for counting a site as positively
/// selected (NEB, matching CodeML's reporting convention).
pub const POSITIVE_SITE_THRESHOLD: f64 = 0.95;

/// Seed perturbation stride between retry attempts (a prime, so
/// distinct attempts of distinct jobs never collide by accident).
const ATTEMPT_SEED_STRIDE: u64 = 7919;

/// The numbers a batch run keeps from one positive-selection test.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// Null-model log-likelihood (ω2 = 1).
    pub lnl0: f64,
    /// Alternative-model log-likelihood (ω2 free).
    pub lnl1: f64,
    /// LRT statistic 2(lnL1 − lnL0).
    pub stat: f64,
    /// LRT p-value.
    pub p_value: f64,
    /// H1 transition/transversion ratio.
    pub kappa: f64,
    /// H1 purifying omega.
    pub omega0: f64,
    /// H1 foreground positive-selection omega.
    pub omega2: f64,
    /// H1 proportion of purifying sites.
    pub p0: f64,
    /// H1 proportion of neutral sites.
    pub p1: f64,
    /// Sites with NEB posterior > [`POSITIVE_SITE_THRESHOLD`].
    pub n_pos_sites: usize,
    /// Total optimizer iterations (H0 + H1).
    pub iterations: usize,
}

impl JobOutcome {
    fn from_test(result: &TestResult) -> JobOutcome {
        let m = &result.h1.model;
        JobOutcome {
            lnl0: result.h0.lnl,
            lnl1: result.h1.lnl,
            stat: result.lrt.statistic,
            p_value: result.lrt.p_value,
            kappa: m.kappa,
            omega0: m.omega0,
            omega2: m.omega2,
            p0: m.p0,
            p1: m.p1,
            n_pos_sites: result
                .site_posteriors
                .iter()
                .filter(|&&p| p > POSITIVE_SITE_THRESHOLD)
                .count(),
            iterations: result.h0.iterations + result.h1.iterations,
        }
    }
}

fn classify(e: &CoreError) -> JobError {
    match e {
        // Bad input stays bad input: never retry.
        CoreError::Bio(_) => JobError::fatal(e.to_string()),
        // Numerical hiccups are start-point dependent; a jittered
        // restart is worth the retry budget.
        CoreError::Linalg(_) | CoreError::Optimization(_) => JobError::recoverable(e.to_string()),
    }
}

/// Run one job: fit H0 and H1 for the payload's foreground branch.
///
/// `attempt` is 0-based; retries perturb the RNG seed so the jittered
/// multi-start optimizer explores a different start point each time.
///
/// # Errors
/// [`JobError::fatal`] for poisoned payloads and input errors,
/// [`JobError::recoverable`] for numerical failures and non-finite
/// likelihoods.
pub fn run_analysis_job(job: &PoolJob<JobPayload>, attempt: usize) -> Result<JobOutcome, JobError> {
    let (tree, aln, branch) = match &job.payload.input {
        JobInput::Ready { tree, aln, branch } => (tree, aln, *branch),
        JobInput::Poisoned { error } => return Err(JobError::fatal(error.clone())),
    };
    let mut options = job.payload.options.clone();
    options.seed = options
        .seed
        .wrapping_add(ATTEMPT_SEED_STRIDE * attempt as u64);
    fit_one(tree, aln, branch, options)
}

fn fit_one(
    tree: &Tree,
    aln: &CodonAlignment,
    branch: NodeId,
    options: AnalysisOptions,
) -> Result<JobOutcome, JobError> {
    let analysis =
        Analysis::with_foreground(tree, branch, aln, options).map_err(|e| classify(&e))?;
    let result = analysis
        .test_positive_selection()
        .map_err(|e| classify(&e))?;
    if !result.h0.lnl.is_finite() || !result.h1.lnl.is_finite() {
        return Err(JobError::recoverable(format!(
            "non-finite log-likelihood (lnL0 = {}, lnL1 = {})",
            result.h0.lnl, result.h1.lnl
        )));
    }
    Ok(JobOutcome::from_test(&result))
}

/// One branch's result from [`scan_branches`].
#[derive(Debug, Clone)]
pub struct ScanEntry {
    /// The foreground branch (child-node ID).
    pub branch: NodeId,
    /// Leaf name if the branch subtends a leaf.
    pub child_name: Option<String>,
    /// Attempts consumed (1 = first try succeeded).
    pub attempts: usize,
    /// The fit, or why it failed after all retries.
    pub outcome: Result<JobOutcome, JobFailure>,
}

/// Pooled replacement for `slim_core::scan_all_branches`: test every
/// branch of `tree` as foreground, fanned across the scheduler's worker
/// pool with its retry policy. Entries come back in arena branch order
/// regardless of completion order.
pub fn scan_branches(
    tree: &Tree,
    aln: &CodonAlignment,
    options: &AnalysisOptions,
    config: &SchedulerConfig,
) -> Vec<ScanEntry> {
    let shared_tree = std::sync::Arc::new(tree.clone());
    let shared_aln = std::sync::Arc::new(aln.clone());
    let jobs: Vec<PoolJob<JobPayload>> = tree
        .branch_nodes()
        .into_iter()
        .enumerate()
        .map(|(id, branch)| {
            let label = match tree.node(branch).name.as_deref() {
                Some(name) => format!("scan:{name}"),
                None => format!("scan:node{}", branch.0),
            };
            PoolJob {
                id,
                key: format!("scan:{}", branch.0),
                label,
                payload: JobPayload {
                    gene_id: "scan".to_string(),
                    input: JobInput::Ready {
                        tree: shared_tree.clone(),
                        aln: shared_aln.clone(),
                        branch,
                    },
                    options: options.clone(),
                },
            }
        })
        .collect();
    let branches = tree.branch_nodes();
    let records = crate::scheduler::run_pool(jobs, config, run_analysis_job, |_| {});
    records
        .into_iter()
        .map(|rec| {
            let branch = branches[rec.id];
            ScanEntry {
                branch,
                child_name: tree.node(branch).name.clone(),
                attempts: rec.attempts,
                outcome: rec.outcome,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use slim_bio::parse_newick;
    use slim_core::Backend;
    use std::sync::Arc;

    fn small_dataset() -> (Tree, CodonAlignment) {
        let tree = parse_newick("((A:0.1,B:0.2)#1:0.05,C:0.3);").unwrap();
        let aln = CodonAlignment::from_fasta(
            ">A\nATGCCCAAATGGTTT\n>B\nATGCCAAAATGGTTC\n>C\nATGCCCAAATGGTTT\n",
        )
        .unwrap();
        (tree, aln)
    }

    fn fast_options() -> AnalysisOptions {
        AnalysisOptions {
            backend: Backend::Slim,
            max_iterations: 60,
            ..AnalysisOptions::default()
        }
    }

    fn ready_job(tree: &Tree, aln: &CodonAlignment, branch: NodeId) -> PoolJob<JobPayload> {
        PoolJob {
            id: 0,
            key: "g:0".into(),
            label: "g:A".into(),
            payload: JobPayload {
                gene_id: "g".into(),
                input: JobInput::Ready {
                    tree: Arc::new(tree.clone()),
                    aln: Arc::new(aln.clone()),
                    branch,
                },
                options: fast_options(),
            },
        }
    }

    #[test]
    fn poisoned_job_fails_fatally() {
        let job = PoolJob {
            id: 0,
            key: "g:*".into(),
            label: "g".into(),
            payload: JobPayload {
                gene_id: "g".into(),
                input: JobInput::Poisoned {
                    error: "cannot read alignment".into(),
                },
                options: fast_options(),
            },
        };
        let err = run_analysis_job(&job, 0).unwrap_err();
        assert!(!err.recoverable);
        assert!(err.message.contains("cannot read alignment"));
    }

    #[test]
    fn ready_job_produces_finite_outcome() {
        let (tree, aln) = small_dataset();
        let branch = tree.leaf_by_name("A").unwrap();
        let job = ready_job(&tree, &aln, branch);
        let out = run_analysis_job(&job, 0).unwrap();
        assert!(out.lnl0.is_finite() && out.lnl1.is_finite());
        assert!(out.lnl1 >= out.lnl0, "H1 nests H0");
        assert!((0.0..=1.0).contains(&out.p_value));
        assert!(out.iterations > 0);
    }

    #[test]
    fn retry_attempt_changes_seed_not_validity() {
        // The same job on a later attempt must still converge to the
        // same optimum (different start, same surface).
        let (tree, aln) = small_dataset();
        let branch = tree.leaf_by_name("A").unwrap();
        let job = ready_job(&tree, &aln, branch);
        let a = run_analysis_job(&job, 0).unwrap();
        let b = run_analysis_job(&job, 2).unwrap();
        // The 5-codon toy surface has near-degenerate local optima a few
        // 1e-3 apart; different starts may settle in either basin.
        assert!((a.lnl1 - b.lnl1).abs() < 1e-2, "{} vs {}", a.lnl1, b.lnl1);
    }

    #[test]
    fn scan_branches_matches_sequential_scan() {
        let (tree, aln) = small_dataset();
        let options = fast_options();
        let config = SchedulerConfig {
            workers: 2,
            ..SchedulerConfig::default()
        };
        let pooled = scan_branches(&tree, &aln, &options, &config);
        let sequential = slim_core::scan_all_branches(&tree, &aln, &options).unwrap();
        assert_eq!(pooled.len(), sequential.len());
        for (p, s) in pooled.iter().zip(&sequential) {
            assert_eq!(p.branch, s.branch);
            let out = p.outcome.as_ref().expect("scan job should fit");
            assert!((out.lnl1 - s.result.h1.lnl).abs() < 1e-6);
            assert!((out.lnl0 - s.result.h0.lnl).abs() < 1e-6);
        }
    }
}
