//! Genome-scan style iteration: test every branch of a tree.
//!
//! "This is done iteratively for each branch of a phylogenetic tree"
//! (§I-A) — the Selectome workflow that motivates the paper's performance
//! work. This helper re-runs the positive-selection test with each branch
//! in turn as foreground.

use crate::{Analysis, AnalysisOptions, CoreError, TestResult};
use slim_bio::{CodonAlignment, NodeId, Tree};

/// One branch's test outcome in a whole-tree scan.
#[derive(Debug, Clone)]
pub struct BranchScanEntry {
    /// The branch, identified by its child node in the input tree.
    pub branch: NodeId,
    /// Name of the child node if it is a leaf (for reporting).
    pub child_name: Option<String>,
    /// The H0/H1/LRT outcome for this branch as foreground.
    pub result: TestResult,
}

/// Test every branch of `tree` as the foreground branch.
///
/// Existing foreground marks in the input are ignored; each branch is
/// marked in turn via [`Analysis::with_foreground`], so the tree arena is
/// never copied per branch. Results come back in arena branch order.
///
/// This is the sequential reference; `slim-batch` runs the same
/// per-branch jobs through its worker pool for parallel, fault-isolated
/// scans.
///
/// # Errors
/// Propagates per-branch analysis errors.
pub fn scan_all_branches(
    tree: &Tree,
    aln: &CodonAlignment,
    options: &AnalysisOptions,
) -> Result<Vec<BranchScanEntry>, CoreError> {
    let mut out = Vec::new();
    for branch in tree.branch_nodes() {
        let analysis = Analysis::with_foreground(tree, branch, aln, options.clone())?;
        let result = analysis.test_positive_selection()?;
        out.push(BranchScanEntry {
            branch,
            child_name: tree.node(branch).name.clone(),
            result,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Backend;
    use slim_bio::parse_newick;
    use slim_opt::GradMode;

    #[test]
    fn scans_every_branch() {
        let tree = parse_newick("((A:0.2,B:0.2):0.1,C:0.3);").unwrap();
        let aln =
            slim_bio::CodonAlignment::from_fasta(">A\nATGCCCAAA\n>B\nATGCCAAAA\n>C\nATGCCCAAG\n")
                .unwrap();
        let options = AnalysisOptions {
            backend: Backend::SlimPlus,
            max_iterations: 15, // keep the test fast; convergence not needed
            grad_mode: GradMode::Forward,
            ..Default::default()
        };
        let entries = scan_all_branches(&tree, &aln, &options).unwrap();
        assert_eq!(entries.len(), tree.n_branches());
        // Leaf branches carry their names.
        let named: Vec<_> = entries
            .iter()
            .filter_map(|e| e.child_name.clone())
            .collect();
        assert!(named.contains(&"A".to_string()));
        for e in &entries {
            assert!(e.result.h1.lnl.is_finite());
            assert!(e.result.h1.lnl >= e.result.h0.lnl, "H1 nests H0");
            assert!(e.result.lrt.p_value > 0.0);
        }
    }
}
