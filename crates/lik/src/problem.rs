//! The static part of a likelihood computation: tree topology flattened
//! into traversal-friendly arrays, site patterns, and frequencies.

use slim_bio::{BioError, CodonAlignment, FreqModel, GeneticCode, SitePatterns, Tree};

/// Immutable problem data shared by every likelihood evaluation of one
/// dataset: the flattened tree, the compressed alignment, and π.
///
/// Branch lengths are *not* stored here — the optimizer passes them per
/// evaluation, indexed by [`LikelihoodProblem::branch_index`].
#[derive(Debug, Clone)]
pub struct LikelihoodProblem {
    /// Post-order node visitation (children before parents, root last).
    pub postorder: Vec<usize>,
    /// Children of each node.
    pub children: Vec<Vec<usize>>,
    /// Parent of each node (`None` for the root).
    pub parent: Vec<Option<usize>>,
    /// Whether the edge above each node is the foreground branch.
    pub is_foreground: Vec<bool>,
    /// For non-root nodes, the index of their branch in the optimizer's
    /// branch-length vector.
    pub branch_index: Vec<Option<usize>>,
    /// For leaves, the taxon row in the site patterns.
    pub leaf_taxon: Vec<Option<usize>>,
    /// Root node index.
    pub root: usize,
    /// Compressed alignment columns.
    pub patterns: SitePatterns,
    /// Equilibrium codon frequencies.
    pub pi: Vec<f64>,
    /// The genetic code (kept for downstream reporting).
    pub code: GeneticCode,
    /// Number of leaves (species), for reporting.
    pub n_species: usize,
}

impl LikelihoodProblem {
    /// Assemble a problem from a tree, an alignment and a frequency model.
    ///
    /// Leaf names must match alignment names exactly (a bijection); the
    /// tree must have exactly one foreground branch.
    ///
    /// # Errors
    /// [`BioError`] on name mismatches or missing/duplicated foreground
    /// mark.
    pub fn new(
        tree: &Tree,
        aln: &CodonAlignment,
        code: &GeneticCode,
        freq_model: FreqModel,
    ) -> Result<LikelihoodProblem, BioError> {
        tree.foreground_branch()?;
        Self::new_unmarked(tree, aln, code, freq_model)
    }

    /// Like [`LikelihoodProblem::new`] but with the foreground branch
    /// given explicitly, overriding whatever marks the tree carries.
    ///
    /// This is the cheap way to evaluate the same dataset under many
    /// candidate foreground branches (branch scans, batch runs): the tree
    /// is only borrowed, so no arena copy is made per candidate — only
    /// the flattened problem arrays are built.
    ///
    /// # Errors
    /// [`BioError::InvalidTree`] if `foreground` is the root or out of
    /// range; [`BioError`] on tree/alignment inconsistencies.
    pub fn new_with_foreground(
        tree: &Tree,
        foreground: slim_bio::NodeId,
        aln: &CodonAlignment,
        code: &GeneticCode,
        freq_model: FreqModel,
    ) -> Result<LikelihoodProblem, BioError> {
        if foreground.0 >= tree.n_nodes() {
            return Err(BioError::InvalidTree(format!(
                "foreground node {} out of range ({} nodes)",
                foreground.0,
                tree.n_nodes()
            )));
        }
        if tree.node(foreground).parent.is_none() {
            return Err(BioError::InvalidTree("root has no branch to mark".into()));
        }
        let mut problem = Self::new_unmarked(tree, aln, code, freq_model)?;
        for flag in &mut problem.is_foreground {
            *flag = false;
        }
        problem.is_foreground[foreground.0] = true;
        Ok(problem)
    }

    /// Like [`LikelihoodProblem::new`] but without requiring a foreground
    /// branch — for models that treat all branches alike (e.g. M0, the
    /// single-ω model in [`crate::m0`]).
    ///
    /// # Errors
    /// [`BioError`] on tree/alignment inconsistencies.
    pub fn new_unmarked(
        tree: &Tree,
        aln: &CodonAlignment,
        code: &GeneticCode,
        freq_model: FreqModel,
    ) -> Result<LikelihoodProblem, BioError> {
        let leaves = tree.leaves();
        if leaves.len() != aln.n_sequences() {
            return Err(BioError::InvalidTree(format!(
                "tree has {} leaves but alignment has {} sequences",
                leaves.len(),
                aln.n_sequences()
            )));
        }

        let n = tree.n_nodes();
        let mut children = vec![Vec::new(); n];
        let mut is_foreground = vec![false; n];
        let mut branch_index = vec![None; n];
        let mut leaf_taxon = vec![None; n];

        for id in tree.branch_nodes() {
            is_foreground[id.0] = tree.node(id).foreground;
        }
        for (bi, id) in tree.branch_nodes().into_iter().enumerate() {
            branch_index[id.0] = Some(bi);
        }
        for i in 0..n {
            children[i] = tree
                .node(slim_bio::NodeId(i))
                .children
                .iter()
                .map(|c| c.0)
                .collect();
        }
        for id in &leaves {
            let name =
                tree.node(*id).name.as_deref().ok_or_else(|| {
                    BioError::InvalidTree(format!("leaf node {} has no name", id.0))
                })?;
            let taxon = aln.index_of(name).ok_or_else(|| {
                BioError::InvalidTree(format!("leaf {name:?} not found in the alignment"))
            })?;
            leaf_taxon[id.0] = Some(taxon);
        }

        let patterns = SitePatterns::from_alignment(aln, code)?;
        let pi = slim_bio::codon_frequencies(aln, code, freq_model);

        let mut parent = vec![None; n];
        for (p, kids) in children.iter().enumerate() {
            for &c in kids {
                parent[c] = Some(p);
            }
        }

        Ok(LikelihoodProblem {
            postorder: tree.postorder().into_iter().map(|id| id.0).collect(),
            children,
            parent,
            is_foreground,
            branch_index,
            leaf_taxon,
            root: tree.root().0,
            patterns,
            pi,
            code: code.clone(),
            n_species: leaves.len(),
        })
    }

    /// Number of branches (length the optimizer's branch vector must have).
    pub fn n_branches(&self) -> usize {
        self.branch_index.iter().flatten().count()
    }

    /// Number of unique site patterns.
    pub fn n_patterns(&self) -> usize {
        self.patterns.n_patterns()
    }

    /// The patterns sorted by the codons they hold at the leaves, read in
    /// node order. The order depends on the patterns alone, not on the
    /// order of the alignment's columns or records, so the evaluator keeps
    /// its units in it: every sum over patterns that does not run in
    /// pattern order (the exact gradient's) then has the same bits for
    /// every arrangement of the same data.
    pub(crate) fn canonical_pattern_order(&self) -> Vec<usize> {
        let taxa: Vec<usize> = self.leaf_taxon.iter().flatten().copied().collect();
        let key = |p: usize| taxa.iter().map(move |&t| self.patterns.pattern(p)[t]);
        let mut order: Vec<usize> = (0..self.n_patterns()).collect();
        order.sort_by(|&a, &b| key(a).cmp(key(b)));
        order
    }

    /// Σ weight × value over the patterns, summed naively in pattern
    /// order: the total M0, M1a/M2a and the two-ratio model report.
    pub(crate) fn weighted_sum(&self, per_pattern: &[f64]) -> f64 {
        let mut total = 0.0;
        for (p, &v) in per_pattern.iter().enumerate() {
            // check: allow(det-float-accum) serial pattern-order sum; the auxiliary models' totals are pinned to this order
            total += self.patterns.weight(p) * v;
        }
        total
    }

    /// Number of alignment sites.
    pub fn n_sites(&self) -> usize {
        self.patterns.n_sites()
    }

    /// Initial branch lengths taken from the tree used at construction
    /// (the caller may also seed its own).
    pub fn branch_order_of(&self, tree: &Tree) -> Vec<f64> {
        tree.branch_lengths()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slim_bio::parse_newick;

    fn toy() -> (Tree, CodonAlignment) {
        let tree = parse_newick("((A:0.1,B:0.2)#1:0.05,C:0.3);").unwrap();
        let aln =
            CodonAlignment::from_fasta(">A\nCCCTACTGC\n>B\nCCCTACTGC\n>C\nCCCTATTGC\n").unwrap();
        (tree, aln)
    }

    #[test]
    fn builds_and_counts() {
        let (tree, aln) = toy();
        let code = GeneticCode::universal();
        let p = LikelihoodProblem::new(&tree, &aln, &code, FreqModel::F3x4).unwrap();
        assert_eq!(p.n_branches(), 4);
        assert_eq!(p.n_species, 3);
        assert_eq!(p.n_sites(), 3);
        assert!(p.n_patterns() <= 3);
        assert_eq!(p.postorder.len(), 5);
        assert_eq!(*p.postorder.last().unwrap(), p.root);
    }

    #[test]
    fn parent_inverts_children() {
        let (tree, aln) = toy();
        let code = GeneticCode::universal();
        let p = LikelihoodProblem::new(&tree, &aln, &code, FreqModel::F3x4).unwrap();
        assert_eq!(p.parent[p.root], None);
        for (node, kids) in p.children.iter().enumerate() {
            for &c in kids {
                assert_eq!(p.parent[c], Some(node));
            }
        }
        // Every non-root node has a parent.
        assert_eq!(p.parent.iter().filter(|x| x.is_some()).count(), 4);
    }

    #[test]
    fn foreground_flag_propagated() {
        let (tree, aln) = toy();
        let code = GeneticCode::universal();
        let p = LikelihoodProblem::new(&tree, &aln, &code, FreqModel::F3x4).unwrap();
        let n_fg = p.is_foreground.iter().filter(|&&b| b).count();
        assert_eq!(n_fg, 1);
    }

    #[test]
    fn explicit_foreground_overrides_tree_marks() {
        let (tree, aln) = toy();
        let code = GeneticCode::universal();
        let a = tree.leaf_by_name("A").unwrap();
        let p =
            LikelihoodProblem::new_with_foreground(&tree, a, &aln, &code, FreqModel::F3x4).unwrap();
        // Only A's branch is foreground, regardless of the tree's #1 mark.
        assert!(p.is_foreground[a.0]);
        assert_eq!(p.is_foreground.iter().filter(|&&b| b).count(), 1);
        // Matches what a marked clone would produce.
        let marked = tree.with_foreground(a).unwrap();
        let q = LikelihoodProblem::new(&marked, &aln, &code, FreqModel::F3x4).unwrap();
        assert_eq!(p.is_foreground, q.is_foreground);
        // Root and out-of-range rejected.
        assert!(LikelihoodProblem::new_with_foreground(
            &tree,
            tree.root(),
            &aln,
            &code,
            FreqModel::F3x4
        )
        .is_err());
        assert!(LikelihoodProblem::new_with_foreground(
            &tree,
            slim_bio::NodeId(999),
            &aln,
            &code,
            FreqModel::F3x4
        )
        .is_err());
    }

    #[test]
    fn leaf_taxon_mapping_respects_names() {
        // Shuffle the alignment order relative to the tree.
        let tree = parse_newick("((A:0.1,B:0.2)#1:0.05,C:0.3);").unwrap();
        let aln =
            CodonAlignment::from_fasta(">C\nCCCTATTGC\n>A\nCCCTACTGC\n>B\nCCCTACTGC\n").unwrap();
        let code = GeneticCode::universal();
        let p = LikelihoodProblem::new(&tree, &aln, &code, FreqModel::F61).unwrap();
        // Leaf named "A" must map to alignment row 1.
        let a_node = (0..p.children.len())
            .find(|&i| p.children[i].is_empty() && p.leaf_taxon[i] == Some(1))
            .expect("leaf A present");
        let _ = a_node;
    }

    #[test]
    fn missing_name_rejected() {
        let tree = parse_newick("((A:0.1,X:0.2)#1:0.05,C:0.3);").unwrap();
        let aln = CodonAlignment::from_fasta(">A\nCCC\n>B\nCCC\n>C\nCCA\n").unwrap();
        let code = GeneticCode::universal();
        assert!(LikelihoodProblem::new(&tree, &aln, &code, FreqModel::F3x4).is_err());
    }

    #[test]
    fn wrong_leaf_count_rejected() {
        let tree = parse_newick("((A:0.1,B:0.2)#1:0.05,C:0.3);").unwrap();
        let aln = CodonAlignment::from_fasta(">A\nCCC\n>B\nCCC\n").unwrap();
        let code = GeneticCode::universal();
        assert!(LikelihoodProblem::new(&tree, &aln, &code, FreqModel::F3x4).is_err());
    }

    #[test]
    fn no_foreground_rejected() {
        let tree = parse_newick("((A:0.1,B:0.2):0.05,C:0.3);").unwrap();
        let aln = CodonAlignment::from_fasta(">A\nCCC\n>B\nCCC\n>C\nCCA\n").unwrap();
        let code = GeneticCode::universal();
        assert!(LikelihoodProblem::new(&tree, &aln, &code, FreqModel::F3x4).is_err());
    }
}
