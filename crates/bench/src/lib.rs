//! # slim-bench
//!
//! The experiment harness reproducing every table and figure of the
//! paper's evaluation (§IV), plus Criterion microbenchmarks of the
//! individual optimizations.
//!
//! ## Table/figure regeneration binaries
//!
//! | paper artifact | command |
//! |---|---|
//! | Table II (datasets) | `cargo run --release -p slim-bench --bin datasets` |
//! | §IV-1 accuracy (relative lnL difference D) | `cargo run --release -p slim-bench --bin accuracy` |
//! | Table III (runtimes & iterations) | `cargo run --release -p slim-bench --bin table3` |
//! | Table IV (speedups) | `cargo run --release -p slim-bench --bin table4` |
//! | Fig. 3 (speedup vs species) | `cargo run --release -p slim-bench --bin figure3` |
//! | ablations (Eq9/Eq10, CPV strategies, threads, eigensolvers) | `cargo run --release -p slim-bench --bin ablation` |
//!
//! Binaries accept `--quick` (reduced iteration caps / species grids) so
//! the full suite completes on a laptop; the shapes of the results —
//! which engine wins, how speedup grows with species count — are
//! preserved. Absolute runtimes are *not* expected to match the paper's
//! 2012 Xeon/GotoBLAS testbed (see EXPERIMENTS.md).
//!
//! ## Criterion microbenches
//!
//! `cargo bench -p slim-bench` measures: `kernels` (naive vs blocked
//! gemm, syrk), `eigen` (QL vs bisection vs Jacobi at n = 61), `expm`
//! (Eq. 9 naive / Eq. 9 gemm / Eq. 10 syrk / Taylor oracle), `cpv` (the
//! four §III-B application strategies), `pruning` (one likelihood
//! evaluation per backend per dataset shape), `end_to_end` (one BFGS
//! iteration per backend).

pub mod runs;

use slim_core::{Analysis, AnalysisOptions, Backend, Fit, Hypothesis};
use slim_opt::GradMode;
use slim_sim::SimulatedDataset;
use std::time::Duration;

/// Iteration caps used by the table binaries. The paper lets CodeML run
/// to convergence (its Table III iteration counts are 80–1039); this
/// reproduction caps iterations to keep the suite tractable and reports
/// per-iteration speedups, which are cap-independent.
#[derive(Debug, Clone, Copy)]
pub struct RunBudget {
    /// BFGS iteration cap per hypothesis.
    pub max_iterations: usize,
    /// Finite-difference flavor (Forward halves evaluation counts).
    pub grad_mode: GradMode,
}

impl RunBudget {
    /// Budget for the full (default) profile.
    pub fn full() -> RunBudget {
        RunBudget {
            max_iterations: 50,
            grad_mode: GradMode::Forward,
        }
    }

    /// Budget for `--quick` runs.
    pub fn quick() -> RunBudget {
        RunBudget {
            max_iterations: 8,
            grad_mode: GradMode::Forward,
        }
    }

    /// Parse from argv: `--quick` selects the quick budget.
    pub fn from_args() -> RunBudget {
        if std::env::args().any(|a| a == "--quick") {
            RunBudget::quick()
        } else {
            RunBudget::full()
        }
    }
}

/// One timed hypothesis fit.
#[derive(Debug, Clone)]
pub struct TimedFit {
    /// The fit (includes wall time and iteration count).
    pub fit: Fit,
}

/// H0 + H1 runs of one engine on one dataset.
#[derive(Debug, Clone)]
pub struct EngineRun {
    /// Engine used.
    pub backend: Backend,
    /// Null fit.
    pub h0: Fit,
    /// Alternative fit.
    pub h1: Fit,
}

impl EngineRun {
    /// Combined H0+H1 wall time (the paper's Table III "Runtime" column).
    pub fn total_time(&self) -> Duration {
        self.h0.wall_time + self.h1.wall_time
    }

    /// Combined iteration count.
    pub fn total_iterations(&self) -> usize {
        self.h0.iterations + self.h1.iterations
    }
}

/// Fit H0 and H1 with one backend on a simulated dataset.
///
/// # Panics
/// Panics on analysis failure (bench binaries want loud failures).
pub fn run_engine(dataset: &SimulatedDataset, backend: Backend, budget: &RunBudget) -> EngineRun {
    let options = AnalysisOptions {
        backend,
        max_iterations: budget.max_iterations,
        grad_mode: budget.grad_mode,
        seed: 1, // fixed seed: identical starts for both engines (§IV)
        ..Default::default()
    };
    let analysis =
        Analysis::new(&dataset.tree, &dataset.alignment, options).expect("dataset is consistent");
    let h0 = analysis.fit(Hypothesis::H0).expect("H0 fit");
    let h1 = analysis.fit(Hypothesis::H1).expect("H1 fit");
    EngineRun { backend, h0, h1 }
}

/// The paper's three speedup flavors (§IV-2) between a baseline and an
/// optimized run.
#[derive(Debug, Clone, Copy)]
pub struct Speedups {
    /// `S_o` for H0: total-time ratio.
    pub overall_h0: f64,
    /// `S_o` for H1.
    pub overall_h1: f64,
    /// `S_c`: H0+H1 combined total-time ratio.
    pub combined: f64,
    /// `S_i` for H0: per-iteration time ratio.
    pub per_iteration_h0: f64,
    /// `S_i` for H1.
    pub per_iteration_h1: f64,
    /// `S_i` for H0+H1 combined.
    pub per_iteration_combined: f64,
}

/// Compute the Table IV speedups of `fast` relative to `slow`.
pub fn speedups(slow: &EngineRun, fast: &EngineRun) -> Speedups {
    let secs = |d: Duration| d.as_secs_f64();
    let per_iter = |fit: &Fit| fit.seconds_per_iteration();
    let combined_per_iter =
        |run: &EngineRun| secs(run.total_time()) / run.total_iterations().max(1) as f64;
    Speedups {
        overall_h0: secs(slow.h0.wall_time) / secs(fast.h0.wall_time),
        overall_h1: secs(slow.h1.wall_time) / secs(fast.h1.wall_time),
        combined: secs(slow.total_time()) / secs(fast.total_time()),
        per_iteration_h0: per_iter(&slow.h0) / per_iter(&fast.h0),
        per_iteration_h1: per_iter(&slow.h1) / per_iter(&fast.h1),
        per_iteration_combined: combined_per_iter(slow) / combined_per_iter(fast),
    }
}

/// The paper's relative accuracy measure `D = |lnL − lnL̂| / |lnL|`
/// (§IV-1).
pub fn relative_difference(lnl: f64, lnl_hat: f64) -> f64 {
    (lnl - lnl_hat).abs() / lnl.abs()
}

#[cfg(test)]
mod tests {
    use super::*;
    use slim_model::BranchSiteModel;
    use slim_opt::TerminationReason;

    fn fake_fit(secs: f64, iters: usize) -> Fit {
        Fit {
            hypothesis: Hypothesis::H0,
            lnl: -100.0,
            model: BranchSiteModel::default_start(Hypothesis::H0),
            branch_lengths: vec![],
            iterations: iters,
            f_evals: 0,
            wall_time: Duration::from_secs_f64(secs),
            termination: TerminationReason::FunctionConverged,
        }
    }

    #[test]
    fn speedup_arithmetic_matches_paper_definitions() {
        let slow = EngineRun {
            backend: Backend::CodeMlStyle,
            h0: fake_fit(10.0, 10),
            h1: fake_fit(20.0, 20),
        };
        let fast = EngineRun {
            backend: Backend::Slim,
            h0: fake_fit(2.0, 10),
            h1: fake_fit(5.0, 10),
        };
        let s = speedups(&slow, &fast);
        assert!((s.overall_h0 - 5.0).abs() < 1e-12);
        assert!((s.overall_h1 - 4.0).abs() < 1e-12);
        assert!((s.combined - 30.0 / 7.0).abs() < 1e-12);
        // per-iteration: slow h0 1.0 s/it vs fast 0.2 → 5; h1: 1.0 vs 0.5 → 2.
        assert!((s.per_iteration_h0 - 5.0).abs() < 1e-12);
        assert!((s.per_iteration_h1 - 2.0).abs() < 1e-12);
        // combined: 30/30 vs 7/20.
        assert!((s.per_iteration_combined - 1.0 / (7.0 / 20.0)).abs() < 1e-12);
    }

    #[test]
    fn relative_difference_definition() {
        assert_eq!(relative_difference(-100.0, -100.0), 0.0);
        assert!((relative_difference(-100.0, -100.001) - 1e-5).abs() < 1e-12);
    }

    #[test]
    fn budgets() {
        assert!(RunBudget::quick().max_iterations < RunBudget::full().max_iterations);
    }
}
