//! Bayes empirical Bayes (BEB) site identification.
//!
//! The paper's workflow (§I-A, citing Yang, Wong & Nielsen 2005): after a
//! significant LRT, compute the posterior probability that each codon
//! site evolves under positive selection. Naive empirical Bayes (NEB,
//! `slim-stat`) plugs in the MLEs and ignores their uncertainty; BEB
//! integrates over a prior grid on the mixture parameters
//! `(ω0, ω2, p0, p1)` — with branch lengths and κ held at their MLEs —
//! weighting each grid point by the whole-alignment likelihood.
//!
//! This is a faithful (if coarser-grained) implementation of the BEB
//! idea; PAML uses a fixed 10-point discretization, we default to 4–5
//! points per axis and let callers raise it.

use crate::{Analysis, CoreError, Fit};
use slim_lik::ReuseEvaluator;
use slim_model::BranchSiteModel;
use slim_stat::class_posteriors;

/// Grid resolution for the BEB integration.
#[derive(Debug, Clone, Copy)]
pub struct BebOptions {
    /// Grid points for ω0 ∈ (0, 1).
    pub n_omega0: usize,
    /// Grid points for ω2 ∈ (1, `omega2_max`).
    pub n_omega2: usize,
    /// Grid points per proportion axis (the (p0, p1) simplex gets
    /// `n_props²` points).
    pub n_props: usize,
    /// Upper bound of the ω2 prior.
    pub omega2_max: f64,
}

impl Default for BebOptions {
    fn default() -> Self {
        BebOptions {
            n_omega0: 4,
            n_omega2: 4,
            n_props: 4,
            omega2_max: 11.0,
        }
    }
}

/// Bin midpoints of (lo, hi) with `n` bins.
fn midpoints(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    (0..n)
        .map(|k| lo + (hi - lo) * (k as f64 + 0.5) / n as f64)
        .collect()
}

impl Analysis {
    /// BEB posterior probability per alignment **site** of belonging to
    /// the positively-selected classes (2a/2b), integrating mixture
    /// parameters over a uniform prior grid.
    ///
    /// `fit` supplies κ and branch lengths (kept fixed, as in PAML's BEB).
    ///
    /// # Errors
    /// Propagates likelihood-evaluation failures.
    pub fn beb_site_posteriors(&self, fit: &Fit, opts: &BebOptions) -> Result<Vec<f64>, CoreError> {
        let problem = self.problem();
        let n_pat = problem.n_patterns();
        // One evaluator for the whole grid: its CPV buffers are allocated
        // once, not per grid point.
        let mut evaluator = ReuseEvaluator::new(problem, self.engine_config().clone());

        let omega0_grid = midpoints(0.0, 1.0, opts.n_omega0);
        let omega2_grid = midpoints(1.0, opts.omega2_max, opts.n_omega2);
        let u_grid = midpoints(0.0, 1.0, opts.n_props);

        // Accumulate per-grid-point: log weight (whole-data lnL, uniform
        // prior) and the per-pattern positive-selection posterior.
        let mut log_weights: Vec<f64> = Vec::new();
        let mut posteriors: Vec<Vec<f64>> = Vec::new();

        for &w0 in &omega0_grid {
            for &w2 in &omega2_grid {
                for &u in &u_grid {
                    for &v in &u_grid {
                        // (p0, p1) from the unit square onto the simplex.
                        let p0 = u;
                        let p1 = (1.0 - u) * v;
                        let model = BranchSiteModel {
                            kappa: fit.model.kappa,
                            omega0: w0,
                            omega2: w2,
                            p0,
                            p1,
                        };
                        let value = evaluator.evaluate(&model, &fit.branch_lengths)?;
                        let post = class_posteriors(&value.per_class, &value.proportions);
                        posteriors.push(post.iter().map(|row| row[2] + row[3]).collect());
                        log_weights.push(value.lnl);
                    }
                }
            }
        }

        // Softmax the whole-data log-likelihood weights.
        let max_lw = log_weights
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        let weights: Vec<f64> = log_weights.iter().map(|&lw| (lw - max_lw).exp()).collect();
        let total: f64 = weights.iter().sum();

        let mut per_pattern = vec![0.0f64; n_pat];
        for (w, post) in weights.iter().zip(&posteriors) {
            for (acc, &p) in per_pattern.iter_mut().zip(post) {
                *acc += w / total * p;
            }
        }

        // Expand patterns back to sites.
        Ok((0..problem.n_sites())
            .map(|s| per_pattern[problem.patterns.pattern_of_site(s)])
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AnalysisOptions, Backend};
    use slim_bio::{parse_newick, CodonAlignment};
    use slim_model::Hypothesis;

    #[test]
    fn beb_posteriors_are_probabilities() {
        let tree = parse_newick("((A:0.2,B:0.2)#1:0.1,C:0.3);").unwrap();
        let aln =
            CodonAlignment::from_fasta(">A\nATGCCCAAA\n>B\nATGCCAAAA\n>C\nATGCCCAAG\n").unwrap();
        let analysis = Analysis::new(
            &tree,
            &aln,
            AnalysisOptions {
                backend: Backend::SlimPlus,
                max_iterations: 10,
                ..Default::default()
            },
        )
        .unwrap();
        let fit = analysis.fit(Hypothesis::H1).unwrap();
        let opts = BebOptions {
            n_omega0: 2,
            n_omega2: 2,
            n_props: 2,
            omega2_max: 5.0,
        };
        let beb = analysis.beb_site_posteriors(&fit, &opts).unwrap();
        assert_eq!(beb.len(), 3);
        for &p in &beb {
            assert!((0.0..=1.0).contains(&p), "posterior {p} out of range");
        }
    }

    /// BEB bits at a fixed H1 point of a three-taxon fixture (no fit, so
    /// only the likelihood path can move them).
    #[test]
    fn beb_bits_are_pinned() {
        let tree = parse_newick("((A:0.2,B:0.2)#1:0.1,C:0.3);").unwrap();
        let aln = CodonAlignment::from_fasta(
            ">A\nATGCCCAAATTTGGGCGA\n>B\nATGCCAAAATTTGGACGA\n>C\nATGCCCAAGTTCGGGCGT\n",
        )
        .unwrap();
        let options = AnalysisOptions {
            backend: Backend::SlimPlus,
            ..Default::default()
        };
        let analysis = Analysis::new(&tree, &aln, options).unwrap();
        let fit = Fit {
            hypothesis: Hypothesis::H1,
            lnl: f64::NAN,
            model: BranchSiteModel {
                kappa: 2.1,
                omega0: 0.3,
                omega2: 2.5,
                p0: 0.6,
                p1: 0.25,
            },
            branch_lengths: vec![0.15, 0.2, 0.1, 0.3],
            iterations: 0,
            f_evals: 0,
            wall_time: std::time::Duration::ZERO,
            termination: slim_opt::TerminationReason::MaxIterations,
        };
        let opts = BebOptions {
            n_omega0: 2,
            n_omega2: 2,
            n_props: 2,
            omega2_max: 5.0,
        };
        let beb = analysis.beb_site_posteriors(&fit, &opts).unwrap();
        let bits: Vec<u64> = beb.iter().map(|p| p.to_bits()).collect();
        assert_eq!(
            bits,
            [
                0x3fb816a13c380f77,
                0x3fc0a85468e64e9d,
                0x3fbd21f4158c1ea2,
                0x3fbff7ffec296319,
                0x3fbd5c74f095c9a1,
                0x3fc0b0d587b273dd
            ]
        );
    }

    #[test]
    fn beb_shrinks_extreme_neb_calls() {
        // On weak data NEB can be overconfident; BEB averages over the
        // prior and should stay strictly inside (0, 1).
        let tree = parse_newick("((A:0.2,B:0.2)#1:0.1,C:0.3);").unwrap();
        let aln = CodonAlignment::from_fasta(">A\nATGCCC\n>B\nATGCCC\n>C\nATGCCC\n").unwrap();
        let analysis = Analysis::new(
            &tree,
            &aln,
            AnalysisOptions {
                backend: Backend::SlimPlus,
                max_iterations: 5,
                ..Default::default()
            },
        )
        .unwrap();
        let fit = analysis.fit(Hypothesis::H1).unwrap();
        let opts = BebOptions {
            n_omega0: 2,
            n_omega2: 2,
            n_props: 2,
            omega2_max: 5.0,
        };
        let beb = analysis.beb_site_posteriors(&fit, &opts).unwrap();
        for &p in &beb {
            assert!(p > 0.0 && p < 1.0);
        }
    }
}
