//! The likelihood evaluator: dirty-path partial-likelihood reuse across
//! evaluations, for every model the engine fits.
//!
//! A derivative-based fit evaluates the likelihood hundreds of times, and
//! most evaluations change *one* parameter (a finite-difference probe) or
//! a handful (a line-search step along a sparse direction). The evaluator
//! keeps the previous evaluation's intermediates and recomputes only what
//! the parameter change actually touches:
//!
//! * a changed **branch length** invalidates that branch's `P(t)`
//!   operators and the CPVs of the nodes on the path from the branch's
//!   parent to the root — everything else is served from cache;
//! * a changed **global** (κ, an ω, a proportion) recomputes the rate
//!   scale, decomposes each distinct ω afresh — ω values with equal bits
//!   share one decomposition and one operator slot — and so invalidates
//!   every operator and CPV.
//!
//! The model is a [`Mixture`]: branch-site model A, M1a/M2a, M0 and the
//! two-ratio model are all site classes over at most three ω matrices.
//! This module is the one place that decides what an evaluation may
//! reuse, across evaluations and across classes: pruning units are
//! (group × pattern block), where a [`Group`] holds the classes that
//! select one background ω slot, and a unit computes a node off the
//! foreground path once and a node on it once per distinct foreground
//! slot (see [`crate::pruning`]). The codeml-style preset prunes each
//! class in a group of its own
//! ([`EngineConfig::shares_class_pruning`]).
//!
//! ## The invalidation contract
//!
//! The evaluator diffs the incoming parameters **bitwise** against the
//! previous evaluation's and derives the dirty set from that alone; no
//! caller says what changed. Empty state — a fresh evaluator, or one whose
//! state was [cleared](ReuseEvaluator::clear) — marks every unit dirty,
//! which is exactly a stateless evaluation:
//! [`site_class_log_likelihoods`](crate::site_class_log_likelihoods) is
//! one call on a fresh evaluator.
//!
//! ## Why reuse is bit-identical
//!
//! Every cached object is keyed on the exact bits of its inputs (the
//! bitwise parameter diff for decompositions and CPVs, [`PtKey`] for
//! operators), and a recompute runs the byte-same kernels on the
//! byte-same inputs as a full pass (see
//! [`crate::pruning::Unit::prune_block`] for the per-unit argument, including
//! the rescale bookkeeping). The final reduction is the same serial
//! fixed-order compensated sum. So kept state and cleared state agree to
//! the last bit — which the identity test layer replays optimizer-like
//! update sequences to enforce.

use crate::engine::EngineConfig;
use crate::mixture::Mixture;
use crate::obsm;
use crate::par::{build_eigensystems, build_op, mix_and_reduce};
use crate::problem::LikelihoodProblem;
use crate::pruning::{Group, LikelihoodValue, PruneScratch, TransOp, Unit, UnitCache, N_OMEGA};
use slim_expm::{EigenSystem, PtCache, PtKey};
use slim_linalg::{simd, LinalgError, Mat};
use slim_model::{BranchSiteModel, SiteClass};
use slim_obs::trace::{self, Value};
use std::sync::Arc;

/// The previous evaluation's reusable intermediates.
struct EvalState {
    /// Globals the caches were computed under (compared bitwise).
    mixture: Mixture,
    /// Branch lengths the caches were computed under (compared bitwise).
    branch_lengths: Vec<f64>,
    /// One decomposition per distinct ω.
    eigensystems: Vec<Arc<EigenSystem>>,
    /// Per-(node × ω slot) transition operators, validity-keyed on
    /// (decomposition id, branch-length bits).
    ops: PtCache<TransOp>,
    /// The full previous result, for the nothing-changed shortcut.
    value: LikelihoodValue,
}

/// How an evaluation's site classes map onto pruning units: fixed pattern
/// blocks times groups, group-major.
#[derive(Debug, Clone, Default, PartialEq)]
struct Geometry {
    groups: Vec<Group>,
    /// Each class's (group, variant); `None` for a class with proportion
    /// 0, which is not pruned.
    class_variant: Vec<Option<(usize, usize)>>,
    /// (first pattern, width) of each block.
    blocks: Vec<(usize, usize)>,
}

impl Geometry {
    /// A class joins the group of its background slot — or, without
    /// sharing, a group of its own — as the variant of its foreground
    /// slot. Depends on the mixture and the configuration alone, never on
    /// the thread count.
    fn new(
        classes: &[SiteClass],
        slot: &[usize; N_OMEGA],
        share: bool,
        n_pat: usize,
        block: usize,
    ) -> Geometry {
        let mut groups: Vec<Group> = Vec::new();
        let class_variant = classes
            .iter()
            .map(|c| {
                (c.proportion > 0.0).then(|| {
                    let bg = slot[c.background_omega];
                    let g = match groups.iter().position(|g| share && g.bg == bg) {
                        Some(g) => g,
                        None => {
                            groups.push(Group::new(bg));
                            groups.len() - 1
                        }
                    };
                    (g, groups[g].variant(slot[c.foreground_omega]))
                })
            })
            .collect();
        let blocks = (0..n_pat)
            .step_by(block)
            .map(|lo| (lo, block.min(n_pat - lo)))
            .collect();
        Geometry {
            groups,
            class_variant,
            blocks,
        }
    }

    fn n_units(&self) -> usize {
        self.groups.len() * self.blocks.len()
    }

    /// The node blocks a pass over every unit touches at `shared`
    /// internal nodes off the foreground path and `fg` on it: one per
    /// unit at the first, one per variant at the second.
    fn node_blocks(&self, shared: usize, fg: usize) -> u64 {
        // check: allow(det-float-accum) usize variant count, not a float accumulation
        let variants: usize = self.groups.iter().map(|g| g.fg().len()).sum();
        (self.blocks.len() * (self.groups.len() * shared + variants * fg)) as u64
    }
}

/// The likelihood evaluator: reuses the previous evaluation's
/// decompositions, operators and CPVs along clean paths. One per fit (per
/// hypothesis) or per loop of related evaluations; owns its caches, no
/// sharing, no locking.
pub struct ReuseEvaluator<'p> {
    problem: &'p LikelihoodProblem,
    config: EngineConfig,
    /// Branch index → the node *below* that branch.
    branch_node: Vec<usize>,
    /// Per node: whether a foreground branch lies below it.
    fg_path: Vec<bool>,
    /// Internal nodes off and on the foreground path.
    n_shared: usize,
    n_fg: usize,
    /// What the previous evaluation computed; `None` marks every unit
    /// dirty.
    state: Option<EvalState>,
    /// The pruning units' geometry; any change reallocates `units`.
    geometry: Geometry,
    /// CPV + rescale-record buffers, one per (group × block) unit,
    /// group-major. They outlive a full invalidation and
    /// [`clear`](Self::clear): which CPVs are valid is decided by `state`
    /// and the dirty set alone.
    units: Vec<UnitCache>,
    #[cfg(feature = "sanitize")]
    rng_state: u64,
}

impl<'p> ReuseEvaluator<'p> {
    /// A fresh evaluator for `problem` under `config`; the first
    /// [`evaluate`](ReuseEvaluator::evaluate) computes everything.
    pub fn new(problem: &'p LikelihoodProblem, config: EngineConfig) -> ReuseEvaluator<'p> {
        let branch_node = problem.branch_nodes();
        let mut fg_path = vec![false; problem.children.len()];
        for &node in &problem.postorder {
            fg_path[node] = problem.children[node]
                .iter()
                .any(|&c| problem.is_foreground[c] || fg_path[c]);
        }
        let n_fg = fg_path.iter().filter(|&&f| f).count();
        let n_internal = problem
            .children
            .iter()
            .filter(|kids| !kids.is_empty())
            .count();
        ReuseEvaluator {
            problem,
            config,
            branch_node,
            fg_path,
            n_shared: n_internal - n_fg,
            n_fg,
            state: None,
            geometry: Geometry::default(),
            units: Vec::new(),
            #[cfg(feature = "sanitize")]
            rng_state: 0x9e3779b97f4a7c15,
        }
    }

    /// The problem this evaluator evaluates.
    pub(crate) fn problem(&self) -> &'p LikelihoodProblem {
        self.problem
    }

    /// Evaluate the branch-site likelihood, reusing whatever the bitwise
    /// parameter diff against the previous call proves unchanged. Each
    /// phase runs inside its `lik.phase.*` span.
    ///
    /// # Errors
    /// Propagates eigensolver failures.
    ///
    /// # Panics
    /// Panics if `branch_lengths.len()` mismatches the problem.
    pub fn evaluate(
        &mut self,
        model: &BranchSiteModel,
        branch_lengths: &[f64],
    ) -> Result<LikelihoodValue, LinalgError> {
        self.evaluate_mixture(&Mixture::branch_site(model), branch_lengths)
    }

    /// Evaluate any mixture the engine fits (see [`Mixture`]); `per_class`
    /// and `proportions` follow the mixture's class order.
    pub(crate) fn evaluate_mixture(
        &mut self,
        mixture: &Mixture,
        branch_lengths: &[f64],
    ) -> Result<LikelihoodValue, LinalgError> {
        // The SIMD dispatch override is thread-local; this call covers the
        // calling thread, and each spawned worker re-installs it.
        simd::with_forced(self.config.simd, || {
            self.evaluate_inner(mixture, branch_lengths)
        })
    }

    /// The marginal posterior of the state at every internal node under
    /// `mixture` (`None` for leaves; columns sum to 1). Evaluates the
    /// mixture — a repeat is served from the kept state — then runs the
    /// outside pass once per class and block, class-major, through the
    /// class's variant of the kept unit, on the calling thread; the
    /// classes mix with the NEB weights of the evaluation's own per-class
    /// output.
    ///
    /// # Errors
    /// Propagates eigensolver failures.
    pub(crate) fn node_posteriors(
        &mut self,
        mixture: &Mixture,
        branch_lengths: &[f64],
    ) -> Result<Vec<Option<Mat>>, LinalgError> {
        let value = self.evaluate_mixture(mixture, branch_lengths)?;
        let _span = obsm::PHASE_OUTSIDE.span();
        let problem = self.problem;
        // check: allow(rob-unwrap) a successful evaluation stores its state
        let ops = &self.state.as_ref().expect("evaluation state").ops;
        let weights = slim_stat::class_posteriors(&value.per_class, &value.proportions);
        let (n, n_pat) = (problem.pi.len(), problem.n_patterns());
        let mut post: Vec<Option<Mat>> = problem
            .children
            .iter()
            .map(|kids| (!kids.is_empty()).then(|| Mat::zeros(n, n_pat)))
            .collect();
        let (config, mut ws) = (&self.config, PruneScratch::new());
        let geometry = &self.geometry;
        let n_blocks = geometry.blocks.len();
        simd::with_forced(config.simd, || {
            for (ci, cv) in geometry.class_variant.iter().enumerate() {
                let Some((g, v)) = *cv else { continue };
                for (b, &(lo, bw)) in geometry.blocks.iter().enumerate() {
                    let unit = Unit {
                        problem,
                        config,
                        ops,
                        fg_path: &self.fg_path,
                        group: geometry.groups[g],
                        lo,
                    };
                    let w: Vec<f64> = weights[lo..lo + bw].iter().map(|row| row[ci]).collect();
                    let cache = &self.units[g * n_blocks + b];
                    unit.outside_block(v, &w, cache, &mut post, &mut ws);
                }
            }
        });
        #[cfg(feature = "sanitize")]
        {
            let (_, _, slot) = mixture.distinct_omegas();
            let slots: Vec<(usize, usize)> = mixture
                .classes()
                .iter()
                .map(|c| (slot[c.background_omega], slot[c.foreground_omega]))
                .collect();
            crate::pruning::sanitize_hooks::posterior_columns(
                &post,
                &weights,
                &slots,
                config.pattern_block.max(1),
            );
        }
        Ok(post)
    }

    /// Forget the kept state, so the next evaluation recomputes everything
    /// — eigensystems, operators and every CPV, into the buffers the
    /// evaluator already holds (codeml-style fits call this before every
    /// evaluation).
    pub fn clear(&mut self) {
        self.state = None;
    }

    /// (hits, misses) of the per-branch operator cache since construction
    /// or the last [`clear`](Self::clear).
    pub fn op_cache_stats(&self) -> (u64, u64) {
        self.state.as_ref().map_or((0, 0), |s| s.ops.stats())
    }

    fn evaluate_inner(
        &mut self,
        mixture: &Mixture,
        branch_lengths: &[f64],
    ) -> Result<LikelihoodValue, LinalgError> {
        let problem = self.problem;
        let config = self.config.clone();
        assert_eq!(
            branch_lengths.len(),
            problem.n_branches(),
            "branch length vector has wrong length"
        );
        let n_pat = problem.n_patterns();
        let n_nodes = problem.children.len();
        let threads = config.resolved_threads().max(1);
        let simd_mode = config.simd;
        let obs = obsm::metrics();
        obs.evaluations.inc();
        obs.threads.set(threads as f64);
        obs.simd_lanes.set(simd::resolve(simd_mode).lanes() as f64);
        let mut eval_span = obsm::EVALUATE.span();
        eval_span.arg_u64("threads", threads as u64);
        eval_span.arg_u64("patterns", n_pat as u64);

        // --- Bitwise diff against the previous evaluation: the dirty set
        // is derived from this alone. ---
        let prev = self.state.take();
        let (globals_changed, dirty_branches): (bool, Vec<usize>) = match &prev {
            None => (true, Vec::new()),
            Some(s) => {
                let dirty: Vec<usize> = branch_lengths
                    .iter()
                    .zip(s.branch_lengths.iter())
                    .enumerate()
                    .filter(|(_, (a, b))| a.to_bits() != b.to_bits())
                    .map(|(i, _)| i)
                    .collect();
                (!mixture.same_bits(&s.mixture), dirty)
            }
        };

        // --- Nothing changed: serve the previous result outright. ---
        if let Some(s) = &prev {
            if !globals_changed && dirty_branches.is_empty() {
                obs.reuse_units_reused
                    .add(self.geometry.node_blocks(self.n_shared, self.n_fg));
                trace::instant_with("lik.reuse.hit", "lik", || {
                    vec![("units", Value::U64(self.geometry.n_units() as u64))]
                });
                let value = s.value.clone();
                self.state = prev;
                return Ok(value);
            }
        }

        // --- Phase 1: eigendecompositions, one per distinct ω — reused
        // wholesale unless a global changed. ---
        let phase_span = obsm::PHASE_EIGEN.span();
        let (distinct, n_distinct, slot) = mixture.distinct_omegas();
        let (mut ops, eigensystems) = match prev {
            Some(s) if !globals_changed => (s.ops, s.eigensystems),
            other => {
                // First call or globals changed: new decompositions, and
                // no CPV survives (the mixture itself moved). The operator
                // cache persists; its (decomposition id, t) keys reject
                // every operator of the old decompositions, which are
                // freed here, before their replacements are built.
                let ops = match other {
                    Some(s) => s.ops,
                    None => PtCache::new(0),
                };
                let policy = mixture.scale_policy(&problem.code, &problem.pi);
                let distinct = &distinct[..n_distinct];
                let es =
                    build_eigensystems(problem, &config, mixture.kappa, distinct, policy, threads)?;
                (ops, es)
            }
        };
        drop(phase_span);

        // --- Phase 2: transition operators — probe every (branch, needed
        // ω slot), rebuild only the key misses. ---
        let phase_span = obsm::PHASE_EXPM.span();
        // needed[is_foreground][slot]: the slots the classes select on
        // background and on foreground branches.
        let mut needed = [[false; N_OMEGA]; 2];
        for c in mixture.classes() {
            needed[0][slot[c.background_omega]] = true;
            needed[1][slot[c.foreground_omega]] = true;
        }
        ops.resize(n_nodes * N_OMEGA);
        let mut stale: Vec<(usize, usize, f64)> = Vec::new();
        for node in 0..n_nodes {
            let Some(bi) = problem.branch_index[node] else {
                continue;
            };
            let t = branch_lengths[bi];
            for w in 0..n_distinct {
                if !needed[usize::from(problem.is_foreground[node])][w] {
                    continue;
                }
                let key = PtKey::new(&eigensystems[w], t);
                if !ops.probe(node * N_OMEGA + w, key) {
                    stale.push((node, w, t));
                }
            }
        }
        let mut built: Vec<Option<TransOp>> = (0..stale.len()).map(|_| None).collect();
        let expm_threads = threads.min(stale.len()).max(1);
        if expm_threads >= 2 {
            let per = stale.len().div_ceil(expm_threads);
            let eigensystems = &eigensystems;
            let config_ref = &config;
            crossbeam::thread::scope(|scope| {
                for (chunk, out) in stale.chunks(per).zip(built.chunks_mut(per)) {
                    scope.spawn(move |_| {
                        simd::with_forced(simd_mode, || {
                            for (&(_, w, t), slot) in chunk.iter().zip(out.iter_mut()) {
                                *slot = Some(build_op(&eigensystems[w], config_ref, t));
                            }
                        });
                    });
                }
            })
            // check: allow(rob-unwrap) scope join fails only if a worker panicked; propagate the abort
            .expect("expm scope");
        } else {
            for (&(_, w, t), slot) in stale.iter().zip(built.iter_mut()) {
                *slot = Some(build_op(&eigensystems[w], &config, t));
            }
        }
        for ((node, w, t), op) in stale.iter().copied().zip(built) {
            ops.insert(
                node * N_OMEGA + w,
                PtKey::new(&eigensystems[w], t),
                // check: allow(rob-unwrap) every stale slot was filled by the build loop above
                op.expect("stale operator rebuilt"),
            );
        }
        drop(phase_span);

        // --- Unit geometry + dirty set. ---
        let classes = mixture.classes();
        let geometry = Geometry::new(
            classes,
            &slot,
            config.shares_class_pruning(),
            n_pat,
            config.pattern_block.max(1),
        );
        // Full invalidation when the globals moved (no prior state counts
        // as that) or the cached units are addressed under a different
        // geometry (e.g. a proportion hit exactly 0 and dropped a class).
        // Only a new geometry needs new buffers: a full invalidation
        // recomputes every node into the ones already held.
        let full = globals_changed || self.geometry != geometry;
        if full {
            obs.reuse_full_invalidations.inc();
        }
        obs.reuse_dirty_branches.add(dirty_branches.len() as u64);
        if self.geometry != geometry {
            self.units = (0..geometry.n_units()).map(|_| UnitCache::new()).collect();
            self.geometry = geometry;
        }
        let geometry = &self.geometry;

        let mut dirty = vec![false; n_nodes];
        if full {
            for node in 0..n_nodes {
                dirty[node] = !problem.children[node].is_empty();
            }
        } else {
            // A changed branch above node v changes the operator applied
            // *to* v, so v's parent and every ancestor up to the root must
            // recompute; v's own CPV is untouched. Dirty sets are closed
            // under "parent of", so an already-marked node ends the walk.
            for &bi in &dirty_branches {
                let mut cur = problem.parent[self.branch_node[bi]];
                while let Some(p) = cur {
                    if dirty[p] {
                        break;
                    }
                    dirty[p] = true;
                    cur = problem.parent[p];
                }
            }
        }
        let dirty_fg = (0..n_nodes)
            .filter(|&v| dirty[v] && self.fg_path[v])
            .count();
        let dirty_shared = dirty.iter().filter(|&&d| d).count() - dirty_fg;
        let n_units = geometry.n_units();
        let recomputed = geometry.node_blocks(dirty_shared, dirty_fg);
        let reused = geometry.node_blocks(self.n_shared - dirty_shared, self.n_fg - dirty_fg);
        obs.units.add(n_units as u64);
        obs.reuse_units_recomputed.add(recomputed);
        obs.reuse_units_reused.add(reused);
        if reused > 0 {
            trace::instant_with("lik.reuse.hit", "lik", || {
                vec![("cpv_blocks", Value::U64(reused))]
            });
        }
        if recomputed > 0 {
            trace::instant_with("lik.reuse.miss", "lik", || {
                vec![
                    ("cpv_blocks", Value::U64(recomputed)),
                    ("full", Value::U64(full as u64)),
                ]
            });
        }

        // --- Phase 3: dirty-path pruning over cached units. ---
        let phase_span = obsm::PHASE_PRUNING.span();
        let n_blocks = geometry.blocks.len();
        let mut runits: Vec<RUnit> = Vec::with_capacity(n_units);
        for (&group, caches) in geometry
            .groups
            .iter()
            .zip(self.units.chunks_mut(n_blocks.max(1)))
        {
            for (&(lo, bw), cache) in geometry.blocks.iter().zip(caches) {
                let unit = Unit {
                    problem,
                    config: &config,
                    ops: &ops,
                    fg_path: &self.fg_path,
                    group,
                    lo,
                };
                runits.push(RUnit { unit, bw, cache });
            }
        }
        let dirty_ref: &[bool] = &dirty;
        let prune_threads = threads.min(runits.len()).max(1);
        if prune_threads >= 2 {
            let (tx, rx) = crossbeam::channel::unbounded::<RUnit>();
            for unit in runits {
                // Unbounded channel with both endpoints alive: send cannot fail.
                let _ = tx.send(unit);
            }
            drop(tx);
            crossbeam::thread::scope(|scope| {
                for _ in 0..prune_threads {
                    let rx = rx.clone();
                    scope.spawn(move |_| {
                        simd::with_forced(simd_mode, || {
                            prune_worker(rx.iter(), dirty_ref);
                        });
                        // Scoped thread: flush before the scope unblocks.
                        if trace::enabled() {
                            trace::flush_thread();
                        }
                    });
                }
            })
            // check: allow(rob-unwrap) scope join fails only if a worker panicked; propagate the abort
            .expect("pruning scope");
        } else {
            prune_worker(runits.into_iter(), dirty_ref);
        }
        // Each class reads its variant's output, block by block; a class
        // with proportion 0 was not pruned.
        let mut per_class = vec![vec![f64::NEG_INFINITY; n_pat]; classes.len()];
        for (out, cv) in per_class.iter_mut().zip(&geometry.class_variant) {
            let Some((g, v)) = *cv else { continue };
            for (b, &(lo, bw)) in geometry.blocks.iter().enumerate() {
                out[lo..lo + bw].copy_from_slice(self.units[g * n_blocks + b].variant_out(v));
            }
        }

        // Sanitize tripwire: recompute one randomly chosen *reused* CPV
        // block, as a random variant of a random unit reads it, from its
        // cached children and demand bit equality — a stale-serve is
        // caught at the evaluation that commits it.
        #[cfg(feature = "sanitize")]
        if !full && reused > 0 {
            let clean: Vec<usize> = (0..n_nodes)
                .filter(|&v| !problem.children[v].is_empty() && !dirty[v])
                .collect();
            let mut next = || {
                self.rng_state = self
                    .rng_state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (self.rng_state >> 33) as usize
            };
            let node = clean[next() % clean.len()];
            let ui = next() % n_units;
            let group = geometry.groups[ui / n_blocks];
            let v = next() % group.fg().len();
            let unit = Unit {
                problem,
                config: &config,
                ops: &ops,
                fg_path: &self.fg_path,
                group,
                lo: geometry.blocks[ui % n_blocks].0,
            };
            unit.sanitize_recheck_node(node, v, &self.units[ui], &mut PruneScratch::new());
        }
        drop(phase_span);

        // --- Phase 4: the shared serial fixed-order reduction. ---
        let phase_span = obsm::PHASE_REDUCTION.span();
        let proportions: Vec<f64> = classes.iter().map(|c| c.proportion).collect();
        let (lnl, per_pattern) = mix_and_reduce(problem, &proportions, &per_class, threads);
        drop(phase_span);

        let value = LikelihoodValue {
            lnl,
            per_pattern,
            per_class,
            proportions,
        };
        self.state = Some(EvalState {
            mixture: *mixture,
            branch_lengths: branch_lengths.to_vec(),
            eigensystems,
            ops,
            value: value.clone(),
        });
        Ok(value)
    }
}

/// One pruning unit's work order: its inputs, block width and cache.
struct RUnit<'a> {
    unit: Unit<'a>,
    bw: usize,
    cache: &'a mut UnitCache,
}

/// The pruning worker loop, shared by the threaded and serial paths: one
/// scratch workspace, one `lik.block` span per unit, the whole loop inside
/// a `lik.pruning.worker_busy` span.
fn prune_worker<'a>(work: impl Iterator<Item = RUnit<'a>>, dirty: &[bool]) {
    let _busy = obsm::WORKER_BUSY.span();
    let mut ws = PruneScratch::new();
    for RUnit { unit, bw, cache } in work {
        let mut block_span = obsm::BLOCK.span();
        block_span.arg_u64("bg", unit.group.bg as u64);
        block_span.arg_u64("variants", unit.group.fg().len() as u64);
        block_span.arg_u64("lo", unit.lo as u64);
        unit.prune_block(dirty, bw, cache, &mut ws);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slim_bio::{parse_newick, CodonAlignment, FreqModel, GeneticCode};
    use slim_model::{Hypothesis, SiteModel, SitesHypothesis};

    fn toy_problem() -> LikelihoodProblem {
        let tree = parse_newick("(((A:0.1,B:0.2):0.05,C:0.3)#1:0.1,(D:0.25,E:0.15):0.2);").unwrap();
        let aln = CodonAlignment::from_fasta(
            ">A\nCCCTACTGCCCCAAGGAG\n>B\nCCCTACTGCCCCAAGGAG\n>C\nCCCTACTGCCCCAAGGAG\n>D\nCCCTATTGCCCCAAGGAG\n>E\nCCCTACTGCACCAAGGAG\n",
        )
        .unwrap();
        let code = GeneticCode::universal();
        LikelihoodProblem::new(&tree, &aln, &code, FreqModel::F3x4).unwrap()
    }

    /// A foreground leaf three internal nodes below the root: the path
    /// has a background child with an internal subtree at every level,
    /// and the root's other child is a background node with an internal
    /// child.
    fn deep_problem() -> LikelihoodProblem {
        let tree = parse_newick(
            "(((A#1:0.1,B:0.2):0.05,(C:0.3,F:0.1):0.1):0.1,((D:0.25,E:0.15):0.2,G:0.3):0.1);",
        )
        .unwrap();
        let aln = CodonAlignment::from_fasta(
            ">A\nCCCTACTGCCCCAAGGAG\n>B\nCCCTACTGCCCCAAGGAG\n>C\nCCCTACTGCCCCAAGGAG\n>D\nCCCTATTGCCCCAAGGAG\n>E\nCCCTACTGCACCAAGGAG\n>F\nCCCTACTGCCCCAAGGAA\n>G\nCCTTACTGCCCCAAGGAG\n",
        )
        .unwrap();
        let code = GeneticCode::universal();
        LikelihoodProblem::new(&tree, &aln, &code, FreqModel::F3x4).unwrap()
    }

    /// The shared-geometry matrix at `threads`: pattern blocks of 1, 2
    /// and 256 (one block holds a whole toy alignment).
    fn slim_configs(threads: usize) -> Vec<EngineConfig> {
        [1, 2, 256]
            .map(|block| {
                EngineConfig::slim()
                    .with_threads(threads)
                    .with_pattern_block(block)
            })
            .to_vec()
    }

    fn assert_bits_equal(a: &LikelihoodValue, b: &LikelihoodValue, step: usize) {
        assert_eq!(
            a.lnl.to_bits(),
            b.lnl.to_bits(),
            "lnL bits diverge at step {step}: reuse {} vs fresh {}",
            a.lnl,
            b.lnl
        );
        for (p, (x, y)) in a.per_pattern.iter().zip(b.per_pattern.iter()).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "per-pattern bits diverge at step {step}, pattern {p}"
            );
        }
        for (c, (xs, ys)) in a.per_class.iter().zip(b.per_class.iter()).enumerate() {
            for (p, (x, y)) in xs.iter().zip(ys.iter()).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "per-class bits diverge at step {step}, class {c}, pattern {p}"
                );
            }
        }
    }

    /// An optimizer-shaped update script: finite-difference probes on
    /// every single branch, on and off the foreground path, an exact
    /// repeat, a sparse line-search move, then each global move in
    /// `moves` (the last one together with a branch change) followed by
    /// the probes again, and a cleared state — each step checked
    /// bit-for-bit against a stateless evaluation (a fresh evaluator).
    /// A move may change the unit geometry (a proportion reaching 0, two
    /// ω values meeting), so the probes also run under the new one.
    fn run_script<M>(
        config: EngineConfig,
        problem: &LikelihoodProblem,
        mut model: M,
        mixture: impl Fn(&M) -> Mixture,
        moves: &[&dyn Fn(&mut M)],
    ) {
        let mut ev = ReuseEvaluator::new(problem, config.clone());
        let mut bl: Vec<f64> = (0..problem.n_branches())
            .map(|i| 0.08 + 0.03 * i as f64)
            .collect();
        let n_br = bl.len();

        let mut step = 0usize;
        let mut check = |ev: &mut ReuseEvaluator, model: &M, bl: &[f64]| {
            let m = mixture(model);
            let reuse = ev.evaluate_mixture(&m, bl).unwrap();
            let fresh = ReuseEvaluator::new(problem, config.clone())
                .evaluate_mixture(&m, bl)
                .unwrap();
            assert_bits_equal(&reuse, &fresh, step);
            step += 1;
        };

        check(&mut ev, &model, &bl);
        for k in 0..=moves.len() {
            if k > 0 {
                // A global move: every CPV invalidates.
                moves[k - 1](&mut model);
                if k == moves.len() {
                    bl[1] += 0.01;
                }
                check(&mut ev, &model, &bl);
            }
            // Single-branch finite-difference probes (the numgrad pattern).
            for i in 0..n_br {
                let saved = bl[i];
                bl[i] += 1e-6;
                check(&mut ev, &model, &bl);
                bl[i] = saved;
                check(&mut ev, &model, &bl);
            }
            if k == 0 {
                // Exact repeat: the nothing-changed shortcut.
                check(&mut ev, &model, &bl);
                // Sparse line-search step over two branches.
                bl[0] *= 1.25;
                bl[n_br - 1] *= 0.75;
                check(&mut ev, &model, &bl);
            }
        }
        let (hits, misses) = ev.op_cache_stats();
        assert!(hits > 0, "the script must exercise operator reuse");
        assert!(misses > 0, "the script must exercise operator rebuilds");
        // Cleared state: the next evaluation starts from nothing.
        ev.clear();
        assert_eq!(ev.op_cache_stats(), (0, 0));
        bl[2] += 0.02;
        check(&mut ev, &model, &bl);
    }

    /// H1 and H0 on both toy trees. H1's moves drop classes by setting a
    /// proportion to exactly 0 — p1 (classes 1 and 2b, a whole group),
    /// then p0 + p1 = 1 (classes 2a and 2b, a variant of each group) —
    /// and bring all four back; H0 keeps ω2 = 1, where classes 1 and 2b
    /// are one variant, except for one move that splits them and one
    /// that joins them again.
    fn branch_site_script(config: EngineConfig) {
        for problem in [toy_problem(), deep_problem()] {
            run_script(
                config.clone(),
                &problem,
                BranchSiteModel::default_start(Hypothesis::H1),
                Mixture::branch_site,
                &[
                    &|m: &mut BranchSiteModel| m.kappa += 0.125,
                    &|m: &mut BranchSiteModel| m.omega2 += 0.25,
                    &|m: &mut BranchSiteModel| m.p1 = 0.0,
                    &|m: &mut BranchSiteModel| (m.p0, m.p1) = (0.75, 0.25),
                    &|m: &mut BranchSiteModel| m.p0 -= 0.0625,
                ],
            );
            run_script(
                config.clone(),
                &problem,
                BranchSiteModel::default_start(Hypothesis::H0),
                Mixture::branch_site,
                &[
                    &|m: &mut BranchSiteModel| m.kappa += 0.125,
                    &|m: &mut BranchSiteModel| m.omega2 = 1.5,
                    &|m: &mut BranchSiteModel| m.omega2 = 1.0,
                    &|m: &mut BranchSiteModel| m.p0 -= 0.0625,
                ],
            );
        }
    }

    #[test]
    fn reuse_matches_stateless_bit_identically_serial() {
        // Small blocks force several units per group so root-path
        // invalidation crosses block boundaries.
        for config in slim_configs(1) {
            branch_site_script(config);
        }
    }

    #[test]
    fn reuse_matches_stateless_bit_identically_threaded() {
        for config in slim_configs(4) {
            branch_site_script(config);
        }
    }

    #[test]
    fn reuse_matches_stateless_with_bundled_gemm_profile() {
        // The other kernels; codeml-style prunes every class on its own.
        branch_site_script(EngineConfig::slim_plus().with_pattern_block(3));
        branch_site_script(EngineConfig::slim_symmetric().with_pattern_block(2));
        branch_site_script(
            EngineConfig::codeml_style()
                .with_pattern_block(2)
                .with_threads(4),
        );
    }

    #[test]
    fn m2a_and_two_ratio_reuse_matches_stateless() {
        for config in [
            EngineConfig::slim().with_pattern_block(2),
            EngineConfig::slim_symmetric()
                .with_pattern_block(3)
                .with_threads(4),
        ] {
            run_script(
                config.clone(),
                &toy_problem(),
                SiteModel::default_start(SitesHypothesis::M2a),
                |m| Mixture::sites(m, SitesHypothesis::M2a),
                &[
                    &|m: &mut SiteModel| m.omega2 += 0.5,
                    &|m: &mut SiteModel| m.kappa += 0.125,
                    &|m: &mut SiteModel| m.p1 -= 0.0625,
                ],
            );
            // (κ, ω background, ω foreground); the last move makes the two
            // ω values equal, so they share one decomposition and slot.
            run_script(
                config,
                &toy_problem(),
                (2.0, 0.2, 3.0),
                |&(k, bg, fg): &(f64, f64, f64)| Mixture::two_ratio(k, bg, fg),
                &[
                    &|m: &mut (f64, f64, f64)| m.2 += 0.5,
                    &|m: &mut (f64, f64, f64)| m.0 += 0.125,
                    &|m: &mut (f64, f64, f64)| m.2 = m.1,
                ],
            );
        }
    }

    #[test]
    fn m2a_with_omega2_one_collapses_bit_identically() {
        // ω2 = 1 gives M2a's classes 1 and 2 the slots (1, 1): one group,
        // one variant. The moves split them, join them again, and drop
        // class 2 by setting its proportion to exactly 0.
        let start = SiteModel {
            omega2: 1.0,
            ..SiteModel::default_start(SitesHypothesis::M2a)
        };
        for threads in [1, 4] {
            for config in slim_configs(threads) {
                for problem in [toy_problem(), deep_problem()] {
                    run_script(
                        config.clone(),
                        &problem,
                        start,
                        |m| Mixture::sites(m, SitesHypothesis::M2a),
                        &[
                            &|m: &mut SiteModel| m.omega2 = 2.0,
                            &|m: &mut SiteModel| m.omega2 = 1.0,
                            &|m: &mut SiteModel| (m.p0, m.p1) = (0.75, 0.25),
                            &|m: &mut SiteModel| m.kappa += 0.125,
                        ],
                    );
                }
            }
        }
    }

    #[test]
    fn posteriors_from_kept_state_match_a_fresh_evaluator() {
        // After a probe of the foreground branch, a probe off the
        // foreground path (the branch above an internal node whose parent
        // has no foreground branch below it), each with its restore (a
        // partial recompute), and on an exact repeat (served whole), the
        // outside pass reads the kept CPVs and gives a fresh evaluator's
        // bits.
        for problem in [toy_problem(), deep_problem()] {
            let config = EngineConfig::slim().with_pattern_block(2);
            let mixture = Mixture::branch_site(&BranchSiteModel::default_start(Hypothesis::H1));
            let mut bl: Vec<f64> = (0..problem.n_branches())
                .map(|i| 0.08 + 0.03 * i as f64)
                .collect();
            let fresh = ReuseEvaluator::new(&problem, config.clone())
                .node_posteriors(&mixture, &bl)
                .unwrap();
            let mut ev = ReuseEvaluator::new(&problem, config);
            let branch = |node: usize| problem.branch_index[node].unwrap();
            let on = (0..problem.children.len())
                .find(|&v| problem.is_foreground[v])
                .map(branch)
                .unwrap();
            let off = (0..problem.children.len())
                .find(|&v| {
                    let parent = problem.parent[v];
                    !problem.children[v].is_empty()
                        && parent.is_some_and(|p| p != problem.root && !ev.fg_path[p])
                })
                .map(branch)
                .unwrap();
            ev.evaluate_mixture(&mixture, &bl).unwrap();
            for b in [on, off] {
                let saved = bl[b];
                bl[b] += 0.01;
                ev.evaluate_mixture(&mixture, &bl).unwrap();
                bl[b] = saved;
                ev.evaluate_mixture(&mixture, &bl).unwrap();
            }
            for _ in 0..2 {
                let kept = ev.node_posteriors(&mixture, &bl).unwrap();
                for (a, b) in fresh.iter().zip(&kept) {
                    match (a, b) {
                        (Some(a), Some(b)) => assert!(a
                            .as_slice()
                            .iter()
                            .zip(b.as_slice())
                            .all(|(x, y)| x.to_bits() == y.to_bits())),
                        (None, None) => {}
                        _ => panic!("posterior blocks at different nodes"),
                    }
                }
            }
        }
    }

    #[test]
    fn each_distinct_omega_is_decomposed_once() {
        // ω values with equal bits share one decomposition and one slot:
        // H0's ω2 = ω1 = 1 needs two operators on the foreground branch,
        // H1 three.
        let problem = toy_problem();
        let n_br = problem.n_branches() as u64;
        let bl = vec![0.1; problem.n_branches()];
        for (hypothesis, ops) in [(Hypothesis::H0, 2 * n_br), (Hypothesis::H1, 2 * n_br + 1)] {
            let mut ev = ReuseEvaluator::new(&problem, EngineConfig::slim());
            ev.evaluate(&BranchSiteModel::default_start(hypothesis), &bl)
                .unwrap();
            assert_eq!(ev.op_cache_stats(), (0, ops), "{hypothesis:?}");
        }
    }
}
