//! Marginal ancestral sequence reconstruction.
//!
//! CodeML's `RateAncestor` feature: after fitting, infer the posterior
//! distribution of the codon at every internal node and site. Within one
//! site class the posterior at `v` is the likelihood of the data below `v`
//! (the evaluator's kept CPV, *inside*) times that of the data outside
//! `v`'s subtree (its preorder *outside* pass), normalized per pattern;
//! the classes mix with their empirical-Bayes (NEB) weights. Both passes
//! run on the likelihood evaluator under the whole [`EngineConfig`], and
//! both rescale, so deep trees keep their posteriors.

use crate::engine::EngineConfig;
use crate::mixture::Mixture;
use crate::problem::LikelihoodProblem;
use crate::reuse::ReuseEvaluator;
use slim_bio::Codon;
use slim_linalg::{LinalgError, Mat};
use slim_model::BranchSiteModel;
// The unit tests build P(t) by hand to check the evaluator against.
#[cfg(test)]
use slim_expm::EigenSystem;
#[cfg(test)]
use slim_model::{build_rate_matrix, rate_components, ScalePolicy};

/// Posterior codon distributions at the internal nodes.
#[derive(Debug, Clone)]
pub struct AncestralReconstruction {
    /// For each node (arena index): `Some(post)` for internal nodes where
    /// `post` is `61 × n_patterns` with columns summing to 1.
    pub posteriors: Vec<Option<Mat>>,
    /// Pattern index per alignment site (copied from the problem for
    /// convenient expansion).
    site_to_pattern: Vec<usize>,
}

/// One reconstructed state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReconstructedCodon {
    /// Most probable codon.
    pub codon: Codon,
    /// Its posterior probability.
    pub posterior: f64,
}

impl AncestralReconstruction {
    /// The most probable codon (and its posterior) at `node` for every
    /// alignment site.
    ///
    /// # Panics
    /// Panics if `node` is a leaf (leaves are observed, not
    /// reconstructed).
    pub fn most_probable_codons(
        &self,
        node: usize,
        code: &slim_bio::GeneticCode,
    ) -> Vec<ReconstructedCodon> {
        let post = self.posteriors[node]
            .as_ref()
            // check: allow(rob-unwrap) documented panic: leaves are observed, not reconstructed
            .expect("ancestral reconstruction exists only for internal nodes");
        self.site_to_pattern
            .iter()
            .map(|&p| {
                let mut best = 0usize;
                let mut best_p = 0.0f64;
                for s in 0..post.rows() {
                    if post[(s, p)] > best_p {
                        best_p = post[(s, p)];
                        best = s;
                    }
                }
                ReconstructedCodon {
                    codon: code.sense_codon(best),
                    posterior: best_p,
                }
            })
            .collect()
    }
}

/// Reconstruct ancestral codon posteriors under the branch-site model at
/// fixed parameters (typically the H1 MLE).
///
/// # Errors
/// Propagates eigensolver failures.
///
/// # Panics
/// Panics on branch-length length mismatch.
pub fn ancestral_reconstruction(
    problem: &LikelihoodProblem,
    config: &EngineConfig,
    model: &BranchSiteModel,
    branch_lengths: &[f64],
) -> Result<AncestralReconstruction, LinalgError> {
    let posteriors = ReuseEvaluator::new(problem, config.clone())
        .node_posteriors(&Mixture::branch_site(model), branch_lengths)?;
    Ok(AncestralReconstruction {
        posteriors,
        site_to_pattern: (0..problem.n_sites())
            .map(|s| problem.patterns.pattern_of_site(s))
            .collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use slim_bio::{parse_newick, CodonAlignment, FreqModel, GeneticCode};
    use slim_model::Hypothesis;

    fn reconstruct(
        newick: &str,
        fasta: &str,
        bl: Option<Vec<f64>>,
    ) -> (LikelihoodProblem, AncestralReconstruction) {
        let tree = parse_newick(newick).unwrap();
        let aln = CodonAlignment::from_fasta(fasta).unwrap();
        let code = GeneticCode::universal();
        let problem = LikelihoodProblem::new(&tree, &aln, &code, FreqModel::Equal).unwrap();
        let model = BranchSiteModel::default_start(Hypothesis::H1);
        let lengths = bl.unwrap_or_else(|| tree.branch_lengths());
        let rec =
            ancestral_reconstruction(&problem, &EngineConfig::slim(), &model, &lengths).unwrap();
        (problem, rec)
    }

    #[test]
    fn posteriors_are_distributions() {
        let (problem, rec) = reconstruct(
            "((A:0.1,B:0.2)#1:0.05,C:0.3);",
            ">A\nATGCCCTTT\n>B\nATGCCATTT\n>C\nATGCCCTTC\n",
            None,
        );
        for node in 0..problem.children.len() {
            if let Some(post) = &rec.posteriors[node] {
                for p in 0..problem.n_patterns() {
                    let total: f64 = (0..61).map(|s| post[(s, p)]).sum();
                    assert!(
                        (total - 1.0).abs() < 1e-10,
                        "node {node} pattern {p}: {total}"
                    );
                }
            } else {
                assert!(problem.children[node].is_empty());
            }
        }
    }

    #[test]
    fn identical_leaves_reconstruct_to_observed() {
        // Short branches + identical sequences: ancestors must match with
        // high confidence.
        let (problem, rec) = reconstruct(
            "((A:0.01,B:0.01)#1:0.01,C:0.01);",
            ">A\nATGTGG\n>B\nATGTGG\n>C\nATGTGG\n",
            None,
        );
        let code = GeneticCode::universal();
        for node in 0..problem.children.len() {
            if rec.posteriors[node].is_some() {
                let best = rec.most_probable_codons(node, &code);
                assert_eq!(best[0].codon.to_string_repr(), "ATG");
                assert_eq!(best[1].codon.to_string_repr(), "TGG");
                assert!(best[0].posterior > 0.99, "{}", best[0].posterior);
            }
        }
    }

    #[test]
    fn two_leaf_root_posterior_matches_manual() {
        // Root of (A, B): post[s] ∝ mix over classes of
        // prop_c π_s P_c(s→a) P_c(s→b).
        let newick = "(A#1:0.3,B:0.6);";
        let fasta = ">A\nATG\n>B\nCTG\n";
        let (problem, rec) = reconstruct(newick, fasta, None);
        let code = GeneticCode::universal();
        let model = BranchSiteModel::default_start(Hypothesis::H1);

        // Manual computation.
        let (syn, nonsyn) = rate_components(&code, model.kappa, &problem.pi);
        let scale = model.shared_scale(syn, nonsyn);
        let omegas = model.omegas();
        let ess: Vec<EigenSystem> = omegas
            .iter()
            .map(|&w| {
                let rm = build_rate_matrix(
                    &code,
                    model.kappa,
                    w,
                    &problem.pi,
                    ScalePolicy::External(scale),
                );
                EigenSystem::from_rate_matrix(&rm, slim_linalg::EigenMethod::HouseholderQl).unwrap()
            })
            .collect();
        let a_idx = code.sense_index(Codon::from_str("ATG").unwrap()).unwrap();
        let b_idx = code.sense_index(Codon::from_str("CTG").unwrap()).unwrap();
        // Identify which leaf has which branch length via the problem.
        // Leaf A is foreground (length 0.3), B background (0.6).
        let mut expected = vec![0.0f64; 61];
        for class in model.site_classes() {
            let p_fg = ess[class.foreground_omega].transition_matrix_eq10(0.3);
            let p_bg = ess[class.background_omega].transition_matrix_eq10(0.6);
            for (s, e) in expected.iter_mut().enumerate() {
                *e += class.proportion * problem.pi[s] * p_fg[(s, a_idx)] * p_bg[(s, b_idx)];
            }
        }
        let total: f64 = expected.iter().sum();
        let root = problem.root;
        let post = rec.posteriors[root].as_ref().unwrap();
        for s in 0..61 {
            assert!(
                (post[(s, 0)] - expected[s] / total).abs() < 1e-10,
                "state {s}: {} vs {}",
                post[(s, 0)],
                expected[s] / total
            );
        }
    }

    #[test]
    fn missing_data_leaf_does_not_break_reconstruction() {
        let (problem, rec) = reconstruct(
            "((A:0.1,B:0.2)#1:0.05,C:0.3);",
            ">A\nATGCCC\n>B\n------\n>C\nATGCCA\n",
            None,
        );
        let code = GeneticCode::universal();
        for node in 0..problem.children.len() {
            if rec.posteriors[node].is_some() {
                let best = rec.most_probable_codons(node, &code);
                assert_eq!(best.len(), 2);
                assert!(best.iter().all(|r| r.posterior > 0.0 && r.posterior <= 1.0));
            }
        }
    }
}
