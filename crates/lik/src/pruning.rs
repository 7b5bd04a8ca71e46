//! Felsenstein pruning over site patterns with branch-site classes.
//!
//! This module holds the *per-unit* pruning kernel, [`Unit::prune_block`]:
//! one pruning [`Group`] of site classes over one contiguous block of site
//! patterns, recomputing the internal nodes a dirty mask names and reading
//! every other node's CPV from the unit's [`UnitCache`]. Every internal
//! node runs through the one per-node body, `combine_children` followed by
//! a rescale. The evaluator in [`crate::reuse`] fans units across worker
//! threads; a stateless evaluation is that evaluator with empty state, so
//! every unit is fully dirty. [`Unit::outside_pass`] is the preorder
//! counterpart over a unit's kept CPVs, for ancestral posteriors and the
//! exact gradient ([`crate::gradient`]).
//!
//! ## What a group shares
//!
//! A group's classes select the same background ω slot; its *variants*
//! are the distinct foreground slots among them. A subtree's CPV depends
//! only on the operators of the edges below it, so a node with no
//! foreground branch below it has one CPV for the whole group, and a node
//! on the foreground path one per variant. A child's message across its
//! parent edge depends, in addition, on that edge's operator: a child
//! with no foreground branch at or below its edge sends one message to
//! every variant, computed once. Classes with equal (background,
//! foreground) slots are one variant. Each variant's CPV is therefore
//! the messages a per-class pass would multiply, in the same child order,
//! rescaled the same way, so sharing changes no bit.
//!
//! ## Determinism contract
//!
//! Every per-pattern quantity computed here depends only on the pattern's
//! own column: the CPV kernels apply `P` column-by-column (or, for the
//! bundled `gemm`, accumulate each output element over `k` in an order
//! independent of the number of columns present), rescaling is per column,
//! and the root combination is a per-column dot with π. Therefore pruning
//! a block `[lo, lo+b)` produces exactly the bits the same patterns get in
//! a full-width pass — the partition into blocks, and which thread runs
//! which block, cannot change any per-pattern value. Blocks cover
//! positions in [`LikelihoodProblem::canonical_pattern_order`], and the
//! evaluator writes each per-pattern output back to its pattern, so the
//! order of the alignment's columns and records moves no bit either.

use crate::engine::EngineConfig;
use crate::problem::LikelihoodProblem;
use crate::reuse::ReuseEvaluator;
use slim_expm::{cpv, CpvScratch, CpvStrategy, PtCache, SymTransition};
use slim_linalg::{gemm, LinalgError, Mat, Transpose};
use slim_model::BranchSiteModel;

/// Operator slots per branch: at most three distinct ω rate matrices per
/// evaluation (branch-site model A's ω0, ω1 = 1, ω2).
pub(crate) const N_OMEGA: usize = 3;

/// Rescale a pattern column when its largest conditional probability
/// drops below this.
const SCALE_THRESHOLD: f64 = 1e-100;

/// The outside pass works on column chunks of at most this many patterns,
/// so its blocks stay small whatever the pattern block.
pub(crate) const OUTSIDE_CHUNK: usize = 32;

/// A per-branch transition operator, in whichever representation the
/// engine's CPV strategy needs.
pub(crate) enum TransOp {
    /// Dense `P(t)`.
    Dense(Mat),
    /// Eq. 12 symmetric representation.
    Sym(SymTransition),
}

impl TransOp {
    /// `P·e_c` — the CPV a leaf with observed codon `c` propagates to its
    /// parent (the product against an indicator vector collapses to a
    /// column gather; CodeML special-cases this identically).
    // check: allow(panic-free-hot-path) c < cols() by caller loop bound; out sized n by PruneScratch::ensure
    fn column(&self, c: usize, out: &mut [f64]) {
        match self {
            TransOp::Dense(p) => {
                for (i, o) in out.iter_mut().enumerate() {
                    *o = p[(i, c)];
                }
            }
            TransOp::Sym(st) => {
                // P·e_c = M·(Π·e_c) = π_c · M[:,c].
                let m = st.matrix();
                let pic = st.pi()[c];
                for (i, o) in out.iter_mut().enumerate() {
                    *o = pic * m[(i, c)];
                }
            }
        }
    }

    /// Apply to a dense block of CPVs (one column per pattern), reusing
    /// caller-owned scratch so the hot path does not allocate.
    fn apply_dense(&self, strategy: CpvStrategy, w: &Mat, out: &mut Mat, scratch: &mut CpvScratch) {
        match self {
            TransOp::Dense(p) => cpv::apply_dense_with(strategy, p, w, out, scratch),
            TransOp::Sym(st) => st.apply_dense_with(w, out, scratch),
        }
    }

    /// `Pᵀ·x` for every column of `x`: the outside pass's step from a
    /// parent down to its child. Eq. 12's `P = M·Π` with symmetric `M`
    /// gives `Pᵀ·x = Π·(M·x)`.
    fn apply_transposed(&self, x: &Mat, out: &mut Mat) {
        match self {
            TransOp::Dense(p) => gemm(1.0, p, Transpose::Yes, x, Transpose::No, 0.0, out),
            TransOp::Sym(st) => {
                gemm(1.0, st.matrix(), Transpose::No, x, Transpose::No, 0.0, out);
                for (i, &pi) in st.pi().iter().enumerate() {
                    slim_linalg::vecops::scal(pi, out.row_mut(i));
                }
            }
        }
    }
}

/// Full output of one likelihood evaluation.
#[derive(Debug, Clone)]
pub struct LikelihoodValue {
    /// Total log-likelihood Σ_sites ln Σ_classes p_c L_c(site).
    pub lnl: f64,
    /// Mixture log-likelihood per pattern.
    pub per_pattern: Vec<f64>,
    /// Per-class per-pattern log-likelihoods (`[class][pattern]`), the
    /// inputs to empirical-Bayes site classification.
    pub per_class: Vec<Vec<f64>>,
    /// The class proportions used, in the model's class order (Table I's
    /// four for the branch-site model).
    pub proportions: Vec<f64>,
}

/// Convenience wrapper returning only the scalar log-likelihood.
///
/// # Errors
/// Propagates eigensolver failures.
pub fn log_likelihood(
    problem: &LikelihoodProblem,
    config: &EngineConfig,
    model: &BranchSiteModel,
    branch_lengths: &[f64],
) -> Result<f64, LinalgError> {
    site_class_log_likelihoods(problem, config, model, branch_lengths).map(|v| v.lnl)
}

/// Evaluate the branch-site likelihood, returning per-class detail.
///
/// `branch_lengths` is indexed like [`LikelihoodProblem::branch_index`].
/// One evaluation on a fresh [`ReuseEvaluator`], whose empty state marks
/// every unit dirty. Runs on [`EngineConfig::threads`] workers; results
/// are bit-identical for every thread count (see the module docs).
///
/// # Errors
/// Propagates eigensolver failures.
///
/// # Panics
/// Panics if `branch_lengths.len()` mismatches the problem.
pub fn site_class_log_likelihoods(
    problem: &LikelihoodProblem,
    config: &EngineConfig,
    model: &BranchSiteModel,
    branch_lengths: &[f64],
) -> Result<LikelihoodValue, LinalgError> {
    ReuseEvaluator::new(problem, config.clone()).evaluate(model, branch_lengths)
}

/// One pruning group: the site classes that select background ω slot
/// `bg`, and the distinct foreground slots among them — the group's
/// *variants*, in order of first appearance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Group {
    pub(crate) bg: usize,
    fg: [usize; N_OMEGA],
    n_fg: usize,
}

impl Group {
    /// A group over background slot `bg` with no variant yet.
    pub(crate) fn new(bg: usize) -> Group {
        Group {
            bg,
            fg: [0; N_OMEGA],
            n_fg: 0,
        }
    }

    /// The foreground slot of each variant.
    // check: allow(panic-free-hot-path) n_fg <= N_OMEGA: variant() adds one entry per distinct slot, and slots are < N_OMEGA
    pub(crate) fn fg(&self) -> &[usize] {
        &self.fg[..self.n_fg]
    }

    /// The variant that selects foreground slot `fg`, added if new.
    pub(crate) fn variant(&mut self, fg: usize) -> usize {
        match self.fg().iter().position(|&f| f == fg) {
            Some(v) => v,
            None => {
                self.fg[self.n_fg] = fg;
                self.n_fg += 1;
                self.n_fg - 1
            }
        }
    }
}

/// Cross-evaluation cache for one (group × pattern block) unit: the
/// post-rescale CPV of every internal node, plus each node's per-column
/// ln-rescale contribution so each variant's total scale log can be
/// rebuilt exactly after a partial recompute, and each variant's
/// per-pattern log-likelihoods.
///
/// Slots are `layer × n_nodes + node`: layer 0 holds the group's shared
/// CPVs (nodes with no foreground branch below them), layer `1 + v`
/// variant `v`'s (nodes on the foreground path).
///
/// `0.0` in [`UnitCache::scale`] means "this node did not rescale this
/// column" — unambiguous because a real contribution is `ln m` with
/// `m < SCALE_THRESHOLD = 1e-100`, i.e. at most ≈ −230.
pub(crate) struct UnitCache {
    /// Post-rescale CPV per slot; `None` for leaves, unused slots and
    /// never-computed nodes.
    cpv: Vec<Option<Mat>>,
    /// Per-slot per-column ln-rescale contributions (empty for leaves).
    scale: Vec<Vec<f64>>,
    /// Per-pattern log-likelihoods, block width `bw` per variant.
    out: Vec<f64>,
    /// (states, block width) of the cached CPVs.
    dims: (usize, usize),
}

impl UnitCache {
    /// An empty cache; buffers appear on first recompute.
    pub(crate) fn new() -> UnitCache {
        UnitCache {
            cpv: Vec::new(),
            scale: Vec::new(),
            out: Vec::new(),
            dims: (0, 0),
        }
    }

    /// Variant `v`'s per-pattern log-likelihoods from the last pass.
    pub(crate) fn variant_out(&self, v: usize) -> &[f64] {
        let bw = self.dims.1;
        &self.out[v * bw..(v + 1) * bw]
    }

    fn ensure(&mut self, n_slots: usize, n: usize, bw: usize, n_variants: usize) {
        if self.dims != (n, bw) {
            self.cpv.clear();
            self.scale.clear();
            self.dims = (n, bw);
        }
        if self.cpv.len() < n_slots {
            self.cpv.resize_with(n_slots, || None);
            self.scale.resize_with(n_slots, Vec::new);
        }
        self.out.resize(n_variants * bw, 0.0);
    }
}

/// Per-worker scratch for [`Unit::prune_block`] (per-node CPV storage lives in
/// the [`UnitCache`]). After the first block at a given (states ×
/// block-width) shape, the scratch allocates nothing.
pub(crate) struct PruneScratch {
    /// Staging block for messages that are not written in place.
    tmp: Mat,
    /// One gathered leaf column.
    col: Vec<f64>,
    /// Rebuilt total log of rescale factors, per block column.
    scale_log: Vec<f64>,
    /// Column/result scratch for the CPV kernels.
    scratch: CpvScratch,
    /// The CPV blocks of the node being combined, one per variant.
    dests: Vec<Mat>,
    /// (states, block width) `tmp` currently has.
    dims: (usize, usize),
}

impl PruneScratch {
    /// Empty scratch; buffers are created on first use.
    pub(crate) fn new() -> PruneScratch {
        PruneScratch {
            tmp: Mat::zeros(0, 0),
            col: Vec::new(),
            scale_log: Vec::new(),
            scratch: CpvScratch::new(),
            dests: Vec::new(),
            dims: (0, 0),
        }
    }

    fn ensure(&mut self, n: usize, bw: usize) {
        if self.dims != (n, bw) {
            // Lane-padded blocks (61 → 64 columns): the CPV kernels and the
            // elementwise combine run tail-free, and the pad columns stay
            // zero so whole-storage ops cannot leak them into results.
            self.tmp = Mat::zeros_padded(n, bw);
            self.dims = (n, bw);
        }
        if self.col.len() != n {
            self.col = vec![0.0; n];
        }
        self.scale_log.clear();
        self.scale_log.resize(bw, 0.0);
    }
}

/// One unit's fixed inputs — the problem, the engine configuration, the
/// operators, the foreground path, the group's ω slots and the unit's
/// first position in the evaluator's pattern order — whose methods are
/// the per-unit kernels: the pruning pass and the outside pass. Methods
/// that take a variant `v` read the CPVs through that variant's view: its
/// own CPV at a node on the foreground path, the group's shared copy at
/// any other node.
#[derive(Clone, Copy)]
pub(crate) struct Unit<'a> {
    pub(crate) problem: &'a LikelihoodProblem,
    pub(crate) config: &'a EngineConfig,
    pub(crate) ops: &'a PtCache<TransOp>,
    /// Per node: whether a foreground branch lies below it.
    pub(crate) fg_path: &'a [bool],
    pub(crate) group: Group,
    /// The evaluator's pattern order: position → the problem's pattern
    /// ([`LikelihoodProblem::canonical_pattern_order`]).
    pub(crate) order: &'a [usize],
    pub(crate) lo: usize,
}

impl<'a> Unit<'a> {
    /// The problem's pattern in column `q` of this unit.
    // check: allow(panic-free-hot-path) `order` holds every pattern, and a unit's columns lie inside the evaluator's block [lo, lo + bw) ⊆ [0, n_patterns)
    pub(crate) fn pattern(&self, q: usize) -> usize {
        self.order[self.lo + q]
    }

    /// The operator on the edge above `node`, in variant `v`'s ω slot for
    /// that edge.
    // check: hot reuse-engine operator fetch
    // check: allow(panic-free-hot-path) node < n_nodes by tree construction, v < variant count by caller loop bounds; the expm phase probes/rebuilds every slot a unit can address before pruning starts
    fn operator(&self, node: usize, v: usize) -> &'a TransOp {
        let w = if self.problem.is_foreground[node] {
            self.group.fg()[v]
        } else {
            self.group.bg
        };
        self.ops
            .value(node * N_OMEGA + w)
            // check: allow(rob-unwrap) the expm phase probes or rebuilds every slot a unit can address before pruning starts
            .expect("operator probed or rebuilt in the expm phase")
    }

    /// The cache slot variant `v` reads `node`'s CPV and rescale record
    /// from.
    // check: allow(panic-free-hot-path) node < n_nodes by tree construction
    pub(crate) fn slot(&self, node: usize, v: usize) -> usize {
        if self.fg_path[node] {
            (1 + v) * self.problem.children.len() + node
        } else {
            node
        }
    }

    /// Whether `child` sends every variant the same message: no
    /// foreground branch lies at or below its edge.
    // check: allow(panic-free-hot-path) child < n_nodes by tree construction
    fn shared_message(&self, child: usize) -> bool {
        !self.problem.is_foreground[child] && !self.fg_path[child]
    }

    /// Pruning pass over the pattern block `[lo, lo + bw)`, writing each
    /// variant's per-pattern log-likelihoods into `cache`: recomputes the
    /// `dirty` internal nodes and reuses every clean node's CPV and rescale
    /// record byte-for-byte from `cache`. With every node dirty (an empty
    /// cache) this is a plain full pass. A node off the foreground path is
    /// computed once; a node on it once per variant.
    ///
    /// `ops` must hold operators for every ω slot the group selects on
    /// every branch; `dirty` must cover every node whose inputs changed
    /// since `cache` was filled and be closed under "parent of".
    ///
    /// ## Why partial recomputes keep the bits
    ///
    /// * A clean node's cached CPV and rescale record are exactly what the
    ///   last recompute stored, and every recompute runs the same per-node
    ///   body on the same inputs, so by induction each cached CPV equals
    ///   the full-pass CPV bit-for-bit.
    /// * A variant's scale log is rebuilt by summing the per-node records
    ///   of its view in postorder. A `0.0` record adds nothing: the
    ///   accumulator starts at +0.0 and only ever holds sums of records
    ///   ≤ −230, never −0.0.
    /// * The root combination is a per-column dot with π.
    // check: hot per-block pruning unit (paper's inner loop)
    // check: allow(panic-free-hot-path) pattern/node indices bounded by SitePatterns and tree construction; cache slots for clean nodes filled by the previous recompute, for dirty ones by this pass's postorder
    pub(crate) fn prune_block(
        &self,
        dirty: &[bool],
        bw: usize,
        cache: &mut UnitCache,
        ws: &mut PruneScratch,
    ) {
        let problem = self.problem;
        let n = problem.pi.len();
        let n_variants = self.group.fg().len();
        cache.ensure((1 + n_variants) * problem.children.len(), n, bw, n_variants);
        ws.ensure(n, bw);

        let mut dests = std::mem::take(&mut ws.dests);
        for &node in &problem.postorder {
            if problem.children[node].is_empty() {
                continue;
            }
            if !dirty[node] {
                debug_assert!(
                    cache.cpv[self.slot(node, 0)].is_some(),
                    "clean node {node} must have a cached CPV"
                );
                continue;
            }
            let variants = if self.fg_path[node] { n_variants } else { 1 };
            // Take the node's matrices out so the children's cached CPVs
            // can be read immutably while we write into them.
            dests.extend((0..variants).map(|v| {
                cache.cpv[self.slot(node, v)]
                    .take()
                    .unwrap_or_else(|| Mat::zeros_padded(n, bw))
            }));
            self.combine_children(node, 0, &cache.cpv, &mut dests, ws);
            for (v, mut dest) in dests.drain(..).enumerate() {
                let slot = self.slot(node, v);
                rescale_columns(&mut dest, &mut cache.scale[slot]);
                #[cfg(feature = "sanitize")]
                sanitize_hooks::node_cpv(
                    "pruning",
                    &dest,
                    &cache.scale[slot],
                    node,
                    self.group.bg,
                    if self.fg_path[node] {
                        &self.group.fg()[v..=v]
                    } else {
                        self.group.fg()
                    },
                    self.lo,
                );
                cache.cpv[slot] = Some(dest);
            }
        }
        ws.dests = dests;

        for v in 0..n_variants {
            // Rebuild the variant's total scale log: postorder sum of the
            // per-node records of its view.
            for sl in ws.scale_log.iter_mut() {
                *sl = 0.0;
            }
            for &node in &problem.postorder {
                if problem.children[node].is_empty() {
                    continue;
                }
                let rec = &cache.scale[self.slot(node, v)];
                for (sl, &r) in ws.scale_log.iter_mut().zip(rec.iter()) {
                    // check: allow(det-float-accum) one rescale term per visited node, fixed postorder
                    *sl += r;
                }
            }

            // Root combination with π.
            let root_cpv = cache.cpv[self.slot(problem.root, v)]
                .as_ref()
                // check: allow(rob-unwrap) the root is internal and either clean (cached) or dirty (just recomputed)
                .expect("root CPV cached or recomputed");
            let out = &mut cache.out[v * bw..(v + 1) * bw];
            for (q, o) in out.iter_mut().enumerate() {
                let mut s = 0.0;
                for i in 0..n {
                    // check: allow(det-float-accum) 61-term per-pattern dot with π; fixed order is the determinism contract
                    s += problem.pi[i] * root_cpv[(i, q)];
                }
                *o = if s > 0.0 {
                    s.ln() + ws.scale_log[q]
                } else {
                    f64::NEG_INFINITY
                };
            }
            #[cfg(feature = "sanitize")]
            sanitize_hooks::root_outputs(
                out,
                problem.root,
                self.group.bg,
                self.group.fg()[v],
                &self.order[self.lo..self.lo + bw],
            );
        }
    }

    /// The per-node combine: internal `node`'s pre-rescale CPV block for
    /// variants `first..first + dests.len()` into `dests`, one child at a
    /// time in child order. The first child's message lands straight in
    /// each destination, later children's through staging with an
    /// elementwise multiply. A message every variant shares is computed
    /// once, into staging, and copied or multiplied into each.
    // check: allow(panic-free-hot-path) children precede parents in postorder, so child CPVs are present; indices bounded by block width
    fn combine_children(
        &self,
        node: usize,
        first: usize,
        cpvs: &[Option<Mat>],
        dests: &mut [Mat],
        ws: &mut PruneScratch,
    ) {
        let share = dests.len() > 1;
        for (j, &child) in self.problem.children[node].iter().enumerate() {
            if share && self.shared_message(child) {
                self.child_block(
                    child,
                    first,
                    self.config.cpv,
                    &mut ws.tmp,
                    &mut ws.col,
                    cpvs,
                    &mut ws.scratch,
                );
                for dest in dests.iter_mut() {
                    if j == 0 {
                        dest.as_mut_slice().copy_from_slice(ws.tmp.as_slice());
                    } else {
                        slim_linalg::vecops::hadamard_in_place(
                            ws.tmp.as_slice(),
                            dest.as_mut_slice(),
                        );
                    }
                }
                continue;
            }
            for (v, dest) in (first..).zip(dests.iter_mut()) {
                let cpv = self.config.cpv;
                if j == 0 {
                    self.child_block(child, v, cpv, dest, &mut ws.col, cpvs, &mut ws.scratch);
                } else {
                    let tmp = &mut ws.tmp;
                    self.child_block(child, v, cpv, tmp, &mut ws.col, cpvs, &mut ws.scratch);
                    // Whole-storage elementwise combine (dispatched kernel):
                    // `dest` and `tmp` share the same padded layout, and pad
                    // columns are 0·0 = 0, so logical values match the
                    // per-element loop.
                    slim_linalg::vecops::hadamard_in_place(ws.tmp.as_slice(), dest.as_mut_slice());
                }
            }
        }
    }

    /// Compute one child's message to its parent's CPV block, as variant
    /// `v` sees it, into `dest` (a destination for the first child,
    /// staging for the rest). Leaf children gather operator columns per
    /// pattern; internal children apply the operator to their CPV in
    /// `cpvs`, a dense one by `strategy`.
    #[allow(clippy::too_many_arguments)]
    // check: allow(panic-free-hot-path) postorder computes every child before its parent; indices bounded by block width
    fn child_block(
        &self,
        child: usize,
        v: usize,
        strategy: CpvStrategy,
        dest: &mut Mat,
        col: &mut [f64],
        cpvs: &[Option<Mat>],
        scratch: &mut CpvScratch,
    ) {
        let (n, bw) = (dest.rows(), dest.cols());
        let op = self.operator(child, v);
        if let Some(taxon) = self.problem.leaf_taxon[child] {
            // Leaf: P·e_c collapses to a column gather per pattern. Missing
            // data integrates the state out: P·1 = 1 (rows of P sum to
            // one), so the contribution is a ones column.
            for q in 0..bw {
                let codon = self.problem.patterns.pattern(self.pattern(q))[taxon];
                if codon == slim_bio::patterns::MISSING {
                    for i in 0..n {
                        dest[(i, q)] = 1.0;
                    }
                    continue;
                }
                op.column(codon, col);
                for i in 0..n {
                    dest[(i, q)] = col[i];
                }
            }
        } else {
            let child_cpv = cpvs[self.slot(child, v)]
                .as_ref()
                // check: allow(rob-unwrap) postorder computes every child (or keeps it cached) before its parent
                .expect("child CPV cached or recomputed in postorder");
            op.apply_dense(strategy, child_cpv, dest, scratch);
        }
    }

    /// The outside pass over the CPVs this unit's pruning pass kept in
    /// `cache`, for every variant in lock step, handing each internal
    /// node and each edge to `visit`. It runs on column chunks of at most
    /// [`OUTSIDE_CHUNK`] patterns (a chunk of a wider block copies its
    /// columns of the kept CPVs); every per-pattern value depends on its
    /// own column only, so chunking changes no bit of one.
    pub(crate) fn outside_pass(&self, cache: &UnitCache, visit: &mut impl OutsideVisitor) {
        let bw = cache.dims.1;
        visit.begin_unit(bw);
        if bw <= OUTSIDE_CHUNK {
            self.outside_chunk(&cache.cpv, bw, visit);
            return;
        }
        for c0 in (0..bw).step_by(OUTSIDE_CHUNK) {
            let cw = OUTSIDE_CHUNK.min(bw - c0);
            let cpvs: Vec<Option<Mat>> = cache
                .cpv
                .iter()
                .map(|m| m.as_ref().map(|m| column_chunk(m, c0, cw)))
                .collect();
            let chunk = Unit {
                lo: self.lo + c0,
                ..*self
            };
            chunk.outside_chunk(&cpvs, cw, visit);
        }
    }

    /// The outside pass over one `bw`-column chunk of kept CPVs, starting
    /// at position `self.lo`: preorder and depth first, so O(depth) outside
    /// blocks per variant are live. The root's outside block is π. At
    /// each internal node every child's message is computed once — once
    /// for all variants when they share it, as in
    /// [`combine_children`](Unit::combine_children) — and the block above
    /// a child's edge is the node's outside block times every sibling's
    /// message, in child order; the child's own outside block is its
    /// operator, transposed, applied to that. Messages take the bundled
    /// `gemm` whatever the preset's pruning kernel: the pass is not part
    /// of the cost profile the presets compare. Blocks are rescaled per
    /// column as CPVs are, but not recorded: every consumer takes ratios
    /// within one column of one variant, where the factors cancel.
    fn outside_chunk(&self, cpvs: &[Option<Mat>], bw: usize, visit: &mut impl OutsideVisitor) {
        let problem = self.problem;
        let (n, n_variants) = (problem.pi.len(), self.group.fg().len());
        let (mut col, mut scratch, mut rec) = (vec![0.0; n], CpvScratch::new(), Vec::new());
        let mut root = Mat::zeros_padded(n, bw);
        for (i, &pi) in problem.pi.iter().enumerate() {
            root.row_mut(i).fill(pi);
        }
        let mut stack = vec![(problem.root, vec![root; n_variants])];
        while let Some((node, outside)) = stack.pop() {
            let inside: Vec<&Mat> = (0..n_variants)
                // check: allow(rob-unwrap) pruning kept every internal node's CPV
                .map(|v| cpvs[self.slot(node, v)].as_ref().expect("kept CPV"))
                .collect();
            visit.node(self, node, &inside, &outside);
            let kids = &problem.children[node];
            let messages: Vec<Vec<Mat>> = kids
                .iter()
                .map(|&child| {
                    let count = if self.shared_message(child) {
                        1
                    } else {
                        n_variants
                    };
                    (0..count)
                        .map(|v| {
                            let mut m = Mat::zeros_padded(n, bw);
                            let gemm = CpvStrategy::BundledGemm;
                            self.child_block(child, v, gemm, &mut m, &mut col, cpvs, &mut scratch);
                            m
                        })
                        .collect()
                })
                .collect();
            let message = |j: usize, v: usize| &messages[j][v.min(messages[j].len() - 1)];
            for (k, &child) in kids.iter().enumerate() {
                let above: Vec<Mat> = (0..n_variants)
                    .map(|v| {
                        let mut u = outside[v].clone();
                        for j in (0..kids.len()).filter(|&j| j != k) {
                            slim_linalg::vecops::hadamard_in_place(
                                message(j, v).as_slice(),
                                u.as_mut_slice(),
                            );
                        }
                        rescale_columns(&mut u, &mut rec);
                        u
                    })
                    .collect();
                let own: Vec<&Mat> = (0..n_variants).map(|v| message(k, v)).collect();
                visit.edge(self, child, &above, &own, cpvs);
                if !problem.children[child].is_empty() {
                    let down = above
                        .iter()
                        .enumerate()
                        .map(|(v, u)| {
                            let mut d = Mat::zeros_padded(n, bw);
                            self.operator(child, v).apply_transposed(u, &mut d);
                            rescale_columns(&mut d, &mut rec);
                            #[cfg(feature = "sanitize")]
                            sanitize_hooks::node_cpv(
                                "outside pass",
                                &d,
                                &rec,
                                child,
                                self.group.bg,
                                &self.group.fg()[v..=v],
                                self.lo,
                            );
                            d
                        })
                        .collect();
                    stack.push((child, down));
                }
            }
        }
    }

    /// Sanitize tripwire: recompute one *clean* node's CPV and rescale
    /// record, as variant `v` sees them, from its (cached) children and
    /// panic on any bit mismatch with the cached copy — catching
    /// invalidation bugs the moment a stale value would be served.
    #[cfg(feature = "sanitize")]
    pub(crate) fn sanitize_recheck_node(
        &self,
        node: usize,
        v: usize,
        cache: &UnitCache,
        ws: &mut PruneScratch,
    ) {
        let (lo, n, bw) = (self.lo, self.problem.pi.len(), cache.dims.1);
        ws.ensure(n, bw);
        let mut fresh = [Mat::zeros_padded(n, bw)];
        let mut fresh_rec = Vec::new();
        self.combine_children(node, v, &cache.cpv, &mut fresh, ws);
        let [mut fresh] = fresh;
        rescale_columns(&mut fresh, &mut fresh_rec);
        let slot = self.slot(node, v);
        let cached = cache.cpv[slot]
            .as_ref()
            // check: allow(rob-unwrap) sanitize spot-check picks its target from filled cache slots
            .expect("recheck target has a cached CPV");
        let ctx = || {
            format!(
                "reuse spot-check at node {node} (ω classes bg={} fg={}), \
                 pattern block [{lo}, {})",
                self.group.bg,
                self.group.fg()[v],
                lo + bw
            )
        };
        for (i, (a, b)) in cached
            .as_slice()
            .iter()
            .zip(fresh.as_slice().iter())
            .enumerate()
        {
            if a.to_bits() != b.to_bits() {
                // check: allow(rob-unwrap) sanitize tripwire: a detected invariant violation must abort
                panic!(
                    "sanitize: reused CPV diverges from recomputation at flat index {i}: \
                     cached {a:e} vs fresh {b:e} in {}",
                    ctx()
                );
            }
        }
        for (q, (a, b)) in cache.scale[slot].iter().zip(fresh_rec.iter()).enumerate() {
            if a.to_bits() != b.to_bits() {
                // check: allow(rob-unwrap) sanitize tripwire: a detected invariant violation must abort
                panic!(
                    "sanitize: reused rescale record diverges at column {q}: cached {a:e} vs \
                     fresh {b:e} in {}",
                    ctx()
                );
            }
        }
    }
}

/// A consumer of the outside pass. The evaluator announces each group's
/// classes per variant before the group's units; the other calls cover
/// one column chunk of one unit: `unit.pattern(q)` is the pattern in its
/// column `q`, and every slice holds one block per variant of
/// `unit.group`.
pub(crate) trait OutsideVisitor {
    /// A group begins: `members[v]` lists the classes of its variant `v`.
    fn begin_group(&mut self, members: Vec<Vec<usize>>);

    /// A unit of `bw` patterns begins.
    fn begin_unit(&mut self, _bw: usize) {}

    /// Internal `node`: each variant's kept CPV and outside block.
    fn node(&mut self, _unit: &Unit<'_>, _node: usize, _inside: &[&Mat], _outside: &[Mat]) {}

    /// The edge above `child`: the block above it (its parent's outside
    /// block times every sibling's message) and the child's own message.
    /// Their column dot is the edge's share of the pattern likelihood, up
    /// to the column's factors; `cpvs` holds the chunk's kept CPVs.
    fn edge(
        &mut self,
        _unit: &Unit<'_>,
        _child: usize,
        _above: &[Mat],
        _message: &[&Mat],
        _cpvs: &[Option<Mat>],
    ) {
    }
}

/// Columns `[c0, c0 + cw)` of `m`, as a lane-padded block.
fn column_chunk(m: &Mat, c0: usize, cw: usize) -> Mat {
    let mut out = Mat::zeros_padded(m.rows(), cw);
    for i in 0..m.rows() {
        out.row_mut(i).copy_from_slice(&m.row(i)[c0..c0 + cw]);
    }
    out
}

/// Divide each column whose largest entry is below [`SCALE_THRESHOLD`] by
/// it, recording `ln` of the divisor in `rec` (`0.0` where none was).
// check: allow(panic-free-hot-path) i < rows and q < cols by the loop bounds
fn rescale_columns(dest: &mut Mat, rec: &mut Vec<f64>) {
    let (n, bw) = (dest.rows(), dest.cols());
    rec.clear();
    rec.resize(bw, 0.0);
    for q in 0..bw {
        let mut m = 0.0f64;
        for i in 0..n {
            let v = dest[(i, q)];
            if v > m {
                m = v;
            }
        }
        if m > 0.0 && m < SCALE_THRESHOLD {
            let inv = 1.0 / m;
            for i in 0..n {
                dest[(i, q)] *= inv;
            }
            rec[q] = m.ln();
        }
    }
}

/// Pruning-phase tripwires (the `sanitize` feature): CPVs and rescale
/// logs stay finite/non-negative at every internal node, and the root
/// per-pattern log-likelihoods are never NaN/+∞ — each failure names the
/// node, the ω classes, and the pattern block it happened in.
#[cfg(feature = "sanitize")]
pub(crate) mod sanitize_hooks {
    use slim_linalg::Mat;

    /// `what` names the pass: "pruning" or "outside pass"; `fg` lists
    /// the foreground slots of the variants that read the block.
    pub(super) fn node_cpv(
        what: &str,
        cpv: &Mat,
        scale_log: &[f64],
        node: usize,
        bg: usize,
        fg: &[usize],
        lo: usize,
    ) {
        let bw = cpv.cols();
        let ctx = || {
            let fg: Vec<String> = fg.iter().map(ToString::to_string).collect();
            format!(
                "{what} node {node} (ω classes bg={bg} fg={}), pattern block [{lo}, {})",
                fg.join(","),
                lo + bw
            )
        };
        slim_linalg::sanitize::check_finite_nonneg("CPV", cpv.as_slice(), ctx);
        for (q, &sl) in scale_log.iter().enumerate() {
            if !sl.is_finite() || sl > 0.0 {
                // check: allow(rob-unwrap) sanitize tripwire: a detected invariant violation must abort
                panic!(
                    "sanitize: scale_log[{q}] = {sl} (want finite, <= 0: rescale factors are \
                     logs of sub-threshold maxima) in {}",
                    ctx()
                );
            }
        }
    }

    /// Every posterior column sums to 1, or is all zero where every class
    /// has zero likelihood (`weights` is `[pattern][class]`).
    pub(crate) fn posterior_columns(
        post: &[Option<Mat>],
        weights: &[Vec<f64>],
        slots: &[(usize, usize)],
    ) {
        for (node, m) in post.iter().enumerate() {
            let Some(m) = m else { continue };
            for (p, w) in weights.iter().enumerate() {
                let total = slim_linalg::neumaier_sum(&m.col(p));
                // Non-negative values: `<= 0.0` means zero.
                let impossible = w.iter().all(|&c| c <= 0.0) && total <= 0.0;
                assert!(
                    (total - 1.0).abs() <= 1e-9 || impossible,
                    "sanitize: posterior column sums to {total} at outside pass node {node}, \
                     pattern {p} (ω classes (bg, fg) = {slots:?})"
                );
            }
        }
    }

    pub(super) fn root_outputs(out: &[f64], root: usize, bg: usize, fg: usize, patterns: &[usize]) {
        for (&v, &p) in out.iter().zip(patterns) {
            slim_linalg::sanitize::check_log_value("per-pattern lnL", v, || {
                format!("root {root} combination (ω classes bg={bg} fg={fg}), pattern {p}")
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slim_bio::{parse_newick, CodonAlignment, FreqModel, GeneticCode};
    use slim_model::Hypothesis;

    fn toy_problem() -> LikelihoodProblem {
        let tree = parse_newick("(((A:0.1,B:0.2):0.05,C:0.3)#1:0.1,(D:0.25,E:0.15):0.2);").unwrap();
        // The paper's Fig. 1 example alignment (5 species × 6 codons).
        let aln = CodonAlignment::from_fasta(
            ">A\nCCCTACTGCCCCAAGGAG\n>B\nCCCTACTGCCCCAAGGAG\n>C\nCCCTACTGCCCCAAGGAG\n>D\nCCCTATTGCCCCAAGGAG\n>E\nCCCTACTGCACCAAGGAG\n",
        )
        .unwrap();
        let code = GeneticCode::universal();
        LikelihoodProblem::new(&tree, &aln, &code, FreqModel::F3x4).unwrap()
    }

    fn default_model() -> BranchSiteModel {
        BranchSiteModel::default_start(Hypothesis::H1)
    }

    #[test]
    fn engines_agree_to_high_precision() {
        // The paper's accuracy experiment (§IV-1): relative lnL difference
        // between CodeML-style and Slim paths must be ~1e-10 or better on
        // small data.
        let problem = toy_problem();
        let model = default_model();
        let bl = vec![0.1; problem.n_branches()];
        let base = log_likelihood(&problem, &EngineConfig::codeml_style(), &model, &bl).unwrap();
        let slim = log_likelihood(&problem, &EngineConfig::slim(), &model, &bl).unwrap();
        let plus = log_likelihood(&problem, &EngineConfig::slim_plus(), &model, &bl).unwrap();
        let sym = log_likelihood(&problem, &EngineConfig::slim_symmetric(), &model, &bl).unwrap();
        let d = |a: f64, b: f64| ((a - b) / a).abs();
        assert!(base.is_finite() && base < 0.0);
        assert!(d(base, slim) < 1e-10, "codeml {base} vs slim {slim}");
        assert!(d(base, plus) < 1e-10, "codeml {base} vs slim+ {plus}");
        assert!(d(base, sym) < 1e-10, "codeml {base} vs eq12 {sym}");
    }

    #[test]
    fn missing_data_accepted_and_between_bounds() {
        let tree = parse_newick("((A:0.1,B:0.2)#1:0.05,C:0.3);").unwrap();
        let full = CodonAlignment::from_fasta(">A\nATGCCC\n>B\nATGCCA\n>C\nATGCCC\n").unwrap();
        let gapped = CodonAlignment::from_fasta(">A\nATG---\n>B\nATGCCA\n>C\nATGNNN\n").unwrap();
        let code = GeneticCode::universal();
        let model = default_model();
        let p_full = LikelihoodProblem::new(&tree, &full, &code, FreqModel::Equal).unwrap();
        let p_gap = LikelihoodProblem::new(&tree, &gapped, &code, FreqModel::Equal).unwrap();
        let bl = vec![0.1; 4];
        let l_full = log_likelihood(&p_full, &EngineConfig::slim(), &model, &bl).unwrap();
        let l_gap = log_likelihood(&p_gap, &EngineConfig::slim(), &model, &bl).unwrap();
        // Less observed data → likelihood closer to 0 (larger lnL).
        assert!(l_gap > l_full, "gapped {l_gap} vs full {l_full}");
        assert!(l_gap < 0.0);
    }

    #[test]
    fn all_missing_leaf_equals_pruned_tree() {
        // A leaf with only missing data is integrated out; by
        // Chapman–Kolmogorov the likelihood equals that of the tree with
        // the leaf removed and its sibling path merged.
        let tree_x = parse_newick("((A:0.1,X:0.7):0.2,C#1:0.3);").unwrap();
        let aln_x =
            CodonAlignment::from_fasta(">A\nATGCCCTTT\n>X\n---------\n>C\nATGCCATTC\n").unwrap();
        // Merged: A's branch is 0.1 + 0.2.
        let tree_m = parse_newick("(A:0.3,C#1:0.3);").unwrap();
        let aln_m = CodonAlignment::from_fasta(">A\nATGCCCTTT\n>C\nATGCCATTC\n").unwrap();

        let code = GeneticCode::universal();
        let model = default_model();
        let p_x = LikelihoodProblem::new(&tree_x, &aln_x, &code, FreqModel::Equal).unwrap();
        let p_m = LikelihoodProblem::new(&tree_m, &aln_m, &code, FreqModel::Equal).unwrap();
        let l_x = log_likelihood(
            &p_x,
            &EngineConfig::slim(),
            &model,
            &p_x.branch_order_of(&tree_x),
        )
        .unwrap();
        let l_m = log_likelihood(
            &p_m,
            &EngineConfig::slim(),
            &model,
            &p_m.branch_order_of(&tree_m),
        )
        .unwrap();
        assert!(
            (l_x - l_m).abs() < 1e-9,
            "with missing leaf {l_x} vs pruned {l_m}"
        );
    }

    #[test]
    fn thread_counts_are_bit_identical() {
        // The slim-par determinism contract on the toy problem: every
        // thread count (including auto) reproduces the serial bits of the
        // total, the per-pattern mixture, and every per-class vector.
        let problem = toy_problem();
        let model = default_model();
        let bl = vec![0.1; problem.n_branches()];
        let serial =
            site_class_log_likelihoods(&problem, &EngineConfig::slim(), &model, &bl).unwrap();
        for threads in [2usize, 4, 8, 0] {
            let config = EngineConfig::slim().with_threads(threads);
            let par = site_class_log_likelihoods(&problem, &config, &model, &bl).unwrap();
            assert_eq!(serial.lnl.to_bits(), par.lnl.to_bits(), "threads {threads}");
            for (a, b) in serial.per_pattern.iter().zip(&par.per_pattern) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            for (ca, cb) in serial.per_class.iter().zip(&par.per_class) {
                for (a, b) in ca.iter().zip(cb) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        }
    }

    #[test]
    fn block_size_is_bit_invariant() {
        // Fixed block boundaries drive the work split; any width must
        // reproduce the same bits, including widths that leave a ragged
        // final block and the degenerate one-pattern-per-block case.
        let problem = toy_problem();
        let model = default_model();
        let bl = vec![0.1; problem.n_branches()];
        let reference =
            site_class_log_likelihoods(&problem, &EngineConfig::slim(), &model, &bl).unwrap();
        for block in [1usize, 2, 3, 7, 4096] {
            for threads in [1usize, 4] {
                let config = EngineConfig::slim()
                    .with_threads(threads)
                    .with_pattern_block(block);
                let v = site_class_log_likelihoods(&problem, &config, &model, &bl).unwrap();
                assert_eq!(
                    reference.lnl.to_bits(),
                    v.lnl.to_bits(),
                    "block {block} threads {threads}"
                );
                for (a, b) in reference.per_pattern.iter().zip(&v.per_pattern) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        }
    }

    #[test]
    fn likelihood_value_structure() {
        let problem = toy_problem();
        let model = default_model();
        let bl = vec![0.1; problem.n_branches()];
        let v = site_class_log_likelihoods(&problem, &EngineConfig::slim(), &model, &bl).unwrap();
        assert_eq!(v.per_pattern.len(), problem.n_patterns());
        assert_eq!(v.per_class.len(), 4);
        assert!((v.proportions.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        // Total equals the weighted per-pattern sum.
        let total: f64 = (0..problem.n_patterns())
            .map(|p| problem.patterns.weight(p) * v.per_pattern[p])
            .sum();
        assert!((total - v.lnl).abs() < 1e-10);
    }

    #[test]
    fn identical_sequences_favor_short_branches() {
        let tree = parse_newick("((A:0.1,B:0.1)#1:0.1,C:0.1);").unwrap();
        let aln =
            CodonAlignment::from_fasta(">A\nATGATGATG\n>B\nATGATGATG\n>C\nATGATGATG\n").unwrap();
        let code = GeneticCode::universal();
        let problem = LikelihoodProblem::new(&tree, &aln, &code, FreqModel::F61).unwrap();
        let model = default_model();
        let short = log_likelihood(&problem, &EngineConfig::slim(), &model, &[0.01; 4]).unwrap();
        let long = log_likelihood(&problem, &EngineConfig::slim(), &model, &[2.0; 4]).unwrap();
        assert!(
            short > long,
            "identical sequences: short {short} vs long {long}"
        );
    }

    #[test]
    fn divergent_sequences_favor_longer_branches() {
        let tree = parse_newick("((A:0.1,B:0.1)#1:0.1,C:0.1);").unwrap();
        let aln =
            CodonAlignment::from_fasta(">A\nATGTTTCCA\n>B\nGTACATCGA\n>C\nTTGGCGAAT\n").unwrap();
        let code = GeneticCode::universal();
        let problem = LikelihoodProblem::new(&tree, &aln, &code, FreqModel::Equal).unwrap();
        let model = default_model();
        let tiny = log_likelihood(&problem, &EngineConfig::slim(), &model, &[1e-5; 4]).unwrap();
        let medium = log_likelihood(&problem, &EngineConfig::slim(), &model, &[0.5; 4]).unwrap();
        assert!(medium > tiny, "divergent: medium {medium} vs tiny {tiny}");
    }

    #[test]
    fn likelihood_invariant_to_pattern_order() {
        // Reordering alignment columns must not change lnL.
        let tree = parse_newick("((A:0.1,B:0.2)#1:0.05,C:0.3);").unwrap();
        let code = GeneticCode::universal();
        let aln1 =
            CodonAlignment::from_fasta(">A\nATGCCCTTT\n>B\nATGCCATTT\n>C\nATGCCCTTC\n").unwrap();
        let aln2 =
            CodonAlignment::from_fasta(">A\nTTTATGCCC\n>B\nTTTATGCCA\n>C\nTTCATGCCC\n").unwrap();
        let model = default_model();
        let p1 = LikelihoodProblem::new(&tree, &aln1, &code, FreqModel::Equal).unwrap();
        let p2 = LikelihoodProblem::new(&tree, &aln2, &code, FreqModel::Equal).unwrap();
        let l1 = log_likelihood(&p1, &EngineConfig::slim(), &model, &[0.1; 4]).unwrap();
        let l2 = log_likelihood(&p2, &EngineConfig::slim(), &model, &[0.1; 4]).unwrap();
        assert!((l1 - l2).abs() < 1e-10);
    }

    #[test]
    fn omega2_changes_likelihood_only_through_foreground() {
        // With the foreground branch length at ~0, ω2 has (almost) no
        // effect on the likelihood.
        let tree = parse_newick("((A:0.1,B:0.2)#1:0.05,C:0.3);").unwrap();
        let aln =
            CodonAlignment::from_fasta(">A\nATGCCCTTT\n>B\nATGCCATTT\n>C\nATGCCCTTC\n").unwrap();
        let code = GeneticCode::universal();
        let problem = LikelihoodProblem::new(&tree, &aln, &code, FreqModel::Equal).unwrap();
        // branch order: find which branch is foreground and zero it.
        let mut bl = vec![0.2; problem.n_branches()];
        for node in 0..problem.children.len() {
            if problem.is_foreground[node] {
                bl[problem.branch_index[node].unwrap()] = 1e-9;
            }
        }
        let m1 = BranchSiteModel {
            omega2: 1.0,
            ..default_model()
        };
        let m2 = BranchSiteModel {
            omega2: 8.0,
            ..default_model()
        };
        let l1 = log_likelihood(&problem, &EngineConfig::slim(), &m1, &bl).unwrap();
        let l2 = log_likelihood(&problem, &EngineConfig::slim(), &m2, &bl).unwrap();
        assert!((l1 - l2).abs() < 1e-6, "{l1} vs {l2}");
    }

    #[test]
    fn scaling_keeps_large_trees_finite() {
        // A caterpillar tree long enough to underflow without scaling.
        let n_leaves = 40;
        let mut newick = String::from("L0:0.5");
        for i in 1..n_leaves {
            newick = format!("({newick},L{i}:0.5):0.5");
        }
        let newick = format!("{newick};");
        let tree = {
            let mut t = parse_newick(&newick).unwrap();
            let leaf = t.leaf_by_name("L0").unwrap();
            t.set_foreground(leaf).unwrap();
            t
        };
        let seq = "ATGCCC";
        let fasta: String = (0..n_leaves).map(|i| format!(">L{i}\n{seq}\n")).collect();
        let aln = CodonAlignment::from_fasta(&fasta).unwrap();
        let code = GeneticCode::universal();
        let problem = LikelihoodProblem::new(&tree, &aln, &code, FreqModel::Equal).unwrap();
        let model = default_model();
        let bl = vec![0.5; problem.n_branches()];
        let lnl = log_likelihood(&problem, &EngineConfig::slim(), &model, &bl).unwrap();
        assert!(lnl.is_finite(), "scaling failed: {lnl}");
        assert!(lnl < 0.0);
    }

    #[test]
    fn scaling_path_is_thread_and_block_invariant() {
        // The rescaling branch fires on this deep caterpillar tree; the
        // determinism contract must hold through it too.
        let n_leaves = 40;
        let mut newick = String::from("L0:0.5");
        for i in 1..n_leaves {
            newick = format!("({newick},L{i}:0.5):0.5");
        }
        let newick = format!("{newick};");
        let tree = {
            let mut t = parse_newick(&newick).unwrap();
            let leaf = t.leaf_by_name("L0").unwrap();
            t.set_foreground(leaf).unwrap();
            t
        };
        let fasta: String = (0..n_leaves)
            .map(|i| format!(">L{i}\nATGCCCAAA\n"))
            .collect();
        let aln = CodonAlignment::from_fasta(&fasta).unwrap();
        let code = GeneticCode::universal();
        let problem = LikelihoodProblem::new(&tree, &aln, &code, FreqModel::Equal).unwrap();
        let model = default_model();
        let bl = vec![0.5; problem.n_branches()];
        let serial = log_likelihood(&problem, &EngineConfig::slim(), &model, &bl).unwrap();
        let par = log_likelihood(
            &problem,
            &EngineConfig::slim().with_threads(4).with_pattern_block(2),
            &model,
            &bl,
        )
        .unwrap();
        assert_eq!(serial.to_bits(), par.to_bits());
    }

    #[cfg(feature = "sanitize")]
    #[test]
    #[should_panic(expected = "outside pass node 3 (ω classes bg=0 fg=2), pattern block [4, 6)")]
    fn sanitize_names_a_bad_outside_block() {
        let mut block = Mat::zeros_padded(61, 2);
        block[(5, 1)] = f64::NAN;
        sanitize_hooks::node_cpv("outside pass", &block, &[0.0; 2], 3, 0, &[2], 4);
    }

    #[cfg(feature = "sanitize")]
    #[test]
    #[should_panic(expected = "node 1, pattern 3 (ω classes (bg, fg) = [(0, 0), (1, 2)])")]
    fn sanitize_names_a_posterior_column_off_one() {
        let mut m = Mat::zeros(2, 4);
        for p in 0..4 {
            m[(0, p)] = 1.0;
        }
        let ok = vec![0.5, 0.5];
        // Pattern 2 is impossible in every class and all zero: allowed.
        m[(0, 2)] = 0.0;
        let weights = vec![ok.clone(), ok.clone(), vec![0.0, 0.0], ok];
        sanitize_hooks::posterior_columns(&[None, Some(m.clone())], &weights, &[(0, 0), (1, 2)]);
        m[(1, 3)] = 1e-6;
        sanitize_hooks::posterior_columns(&[None, Some(m)], &weights, &[(0, 0), (1, 2)]);
    }

    #[test]
    #[should_panic(expected = "wrong length")]
    fn branch_vector_length_checked() {
        let problem = toy_problem();
        let model = default_model();
        let _ = log_likelihood(&problem, &EngineConfig::slim(), &model, &[0.1, 0.2]);
    }
}
