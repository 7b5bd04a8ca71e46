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
//! reuse.
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
use crate::pruning::{LikelihoodValue, PruneScratch, TransOp, Unit, UnitCache, N_OMEGA};
use slim_expm::{EigenSystem, PtCache, PtKey};
use slim_linalg::{simd, LinalgError, Mat};
use slim_model::BranchSiteModel;
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

/// The likelihood evaluator: reuses the previous evaluation's
/// decompositions, operators and CPVs along clean paths. One per fit (per
/// hypothesis) or per loop of related evaluations; owns its caches, no
/// sharing, no locking.
pub struct ReuseEvaluator<'p> {
    problem: &'p LikelihoodProblem,
    config: EngineConfig,
    /// Branch index → the node *below* that branch.
    branch_node: Vec<usize>,
    /// Number of internal (non-leaf) nodes — the per-unit CPV count.
    n_internal: usize,
    /// What the previous evaluation computed; `None` marks every unit
    /// dirty.
    state: Option<EvalState>,
    /// (class index, block start, block width) of each pruning unit — a
    /// geometry fingerprint for `units`; any change reallocates them.
    unit_shape: Vec<(usize, usize, usize)>,
    /// CPV + rescale-record buffers, one per unit in `unit_shape` order.
    /// They outlive a full invalidation and [`clear`](Self::clear): which
    /// CPVs are valid is decided by `state` and the dirty set alone.
    units: Vec<UnitCache>,
    #[cfg(feature = "sanitize")]
    rng_state: u64,
}

impl<'p> ReuseEvaluator<'p> {
    /// A fresh evaluator for `problem` under `config`; the first
    /// [`evaluate`](ReuseEvaluator::evaluate) computes everything.
    pub fn new(problem: &'p LikelihoodProblem, config: EngineConfig) -> ReuseEvaluator<'p> {
        let branch_node = problem.branch_nodes();
        let n_internal = problem
            .children
            .iter()
            .filter(|kids| !kids.is_empty())
            .count();
        ReuseEvaluator {
            problem,
            config,
            branch_node,
            n_internal,
            state: None,
            unit_shape: Vec::new(),
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
    /// outside pass over every kept unit, in unit order, on the calling
    /// thread; the classes mix with the NEB weights of the evaluation's own
    /// per-class output.
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
        let (_, _, slot) = mixture.distinct_omegas();
        let slots: Vec<(usize, usize)> = mixture
            .classes()
            .iter()
            .map(|c| (slot[c.background_omega], slot[c.foreground_omega]))
            .collect();
        let (n, n_pat) = (problem.pi.len(), problem.n_patterns());
        let mut post: Vec<Option<Mat>> = problem
            .children
            .iter()
            .map(|kids| (!kids.is_empty()).then(|| Mat::zeros(n, n_pat)))
            .collect();
        let (config, mut ws) = (&self.config, PruneScratch::new());
        simd::with_forced(config.simd, || {
            for (&(ci, lo, bw), cache) in self.unit_shape.iter().zip(&self.units) {
                let (bg_omega, fg_omega) = slots[ci];
                let unit = Unit {
                    problem,
                    config,
                    ops,
                    bg_omega,
                    fg_omega,
                    lo,
                };
                let w: Vec<f64> = weights[lo..lo + bw].iter().map(|row| row[ci]).collect();
                unit.outside_block(&w, cache, &mut post, &mut ws);
            }
        });
        #[cfg(feature = "sanitize")]
        crate::pruning::sanitize_hooks::posterior_columns(
            &post,
            &weights,
            &slots,
            config.pattern_block.max(1),
        );
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
                    .add((self.unit_shape.len() * self.n_internal) as u64);
                trace::instant_with("lik.reuse.hit", "lik", || {
                    vec![("units", Value::U64(self.unit_shape.len() as u64))]
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
        let block = config.pattern_block.max(1);
        let mut unit_shape: Vec<(usize, usize, usize)> = Vec::new();
        for (ci, class) in classes.iter().enumerate() {
            if class.proportion <= 0.0 {
                continue;
            }
            let mut lo = 0usize;
            while lo < n_pat {
                let bw = block.min(n_pat - lo);
                unit_shape.push((ci, lo, bw));
                // check: allow(det-float-accum) usize block cursor, not a float accumulation
                lo += bw;
            }
        }
        // Full invalidation when the globals moved (no prior state counts
        // as that) or the cached units are addressed under a different
        // geometry (e.g. a proportion hit exactly 0 and dropped a class).
        // Only a new geometry needs new buffers: a full invalidation
        // recomputes every node into the ones already held.
        let full = globals_changed || self.unit_shape != unit_shape;
        if full {
            obs.reuse_full_invalidations.inc();
        }
        obs.reuse_dirty_branches.add(dirty_branches.len() as u64);
        if self.unit_shape != unit_shape {
            self.units = unit_shape.iter().map(|_| UnitCache::new()).collect();
            self.unit_shape = unit_shape;
        }
        let unit_shape = &self.unit_shape;

        let mut dirty = vec![false; n_nodes];
        let mut n_dirty_internal = 0usize;
        if full {
            for node in 0..n_nodes {
                if !problem.children[node].is_empty() {
                    dirty[node] = true;
                    n_dirty_internal += 1;
                }
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
                    n_dirty_internal += 1;
                    cur = problem.parent[p];
                }
            }
        }
        let n_units = unit_shape.len();
        obs.units.add(n_units as u64);
        obs.reuse_units_recomputed
            .add((n_units * n_dirty_internal) as u64);
        obs.reuse_units_reused
            .add((n_units * (self.n_internal - n_dirty_internal)) as u64);
        if n_dirty_internal < self.n_internal {
            trace::instant_with("lik.reuse.hit", "lik", || {
                vec![(
                    "cpv_blocks",
                    Value::U64((n_units * (self.n_internal - n_dirty_internal)) as u64),
                )]
            });
        }
        if n_dirty_internal > 0 {
            trace::instant_with("lik.reuse.miss", "lik", || {
                vec![
                    (
                        "cpv_blocks",
                        Value::U64((n_units * n_dirty_internal) as u64),
                    ),
                    ("full", Value::U64(full as u64)),
                ]
            });
        }

        // --- Phase 3: dirty-path pruning over cached units. ---
        let phase_span = obsm::PHASE_PRUNING.span();
        let mut per_class: Vec<Vec<f64>> = classes
            .iter()
            .map(|class| {
                if class.proportion <= 0.0 {
                    vec![f64::NEG_INFINITY; n_pat]
                } else {
                    vec![0.0f64; n_pat]
                }
            })
            .collect();
        // Carve the per-class buffers into per-unit output slices in
        // `unit_shape` order, pairing each with its cache.
        let mut runits: Vec<RUnit> = Vec::with_capacity(n_units);
        {
            let mut cache_iter = self.units.iter_mut();
            let mut chunkers: Vec<Option<std::slice::ChunksMut<f64>>> = per_class
                .iter_mut()
                .zip(classes.iter())
                .map(|(buf, class)| (class.proportion > 0.0).then(|| buf.chunks_mut(block)))
                .collect();
            for &(ci, lo, _bw) in unit_shape {
                let chunk = chunkers[ci]
                    .as_mut()
                    .and_then(|c| c.next())
                    // check: allow(rob-unwrap) unit_shape was derived from the same class/block walk that drives the chunkers
                    .expect("unit_shape matches class chunking");
                // check: allow(rob-unwrap) units was sized to unit_shape above
                let cache = cache_iter.next().expect("one cache per unit");
                let unit = Unit {
                    problem,
                    config: &config,
                    ops: &ops,
                    bg_omega: slot[classes[ci].background_omega],
                    fg_omega: slot[classes[ci].foreground_omega],
                    lo,
                };
                runits.push(RUnit {
                    unit,
                    out: chunk,
                    cache,
                });
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

        // Sanitize tripwire: recompute one randomly chosen *reused* CPV
        // block from its cached children and demand bit equality — a
        // stale-serve is caught at the evaluation that commits it.
        #[cfg(feature = "sanitize")]
        if !full && n_dirty_internal < self.n_internal && !unit_shape.is_empty() {
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
            let ui = next() % unit_shape.len();
            let (ci, lo, _) = unit_shape[ui];
            let unit = Unit {
                problem,
                config: &config,
                ops: &ops,
                bg_omega: slot[classes[ci].background_omega],
                fg_omega: slot[classes[ci].foreground_omega],
                lo,
            };
            unit.sanitize_recheck_node(node, &self.units[ui], &mut PruneScratch::new());
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

/// One pruning unit's work order: its inputs, output slice and cache.
struct RUnit<'a> {
    unit: Unit<'a>,
    out: &'a mut [f64],
    cache: &'a mut UnitCache,
}

/// The pruning worker loop, shared by the threaded and serial paths: one
/// scratch workspace, one `lik.block` span per unit, the whole loop inside
/// a `lik.pruning.worker_busy` span.
fn prune_worker<'a>(work: impl Iterator<Item = RUnit<'a>>, dirty: &[bool]) {
    let _busy = obsm::WORKER_BUSY.span();
    let mut ws = PruneScratch::new();
    for RUnit { unit, out, cache } in work {
        let mut block_span = obsm::BLOCK.span();
        block_span.arg_u64("bg", unit.bg_omega as u64);
        block_span.arg_u64("fg", unit.fg_omega as u64);
        block_span.arg_u64("lo", unit.lo as u64);
        unit.prune_block(dirty, out, cache, &mut ws);
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
    /// single branches, an exact repeat, a sparse line-search move, each
    /// global move in `moves` (the last one together with a branch
    /// change) and a cleared state — each step checked bit-for-bit
    /// against a stateless evaluation (a fresh evaluator).
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
        // Single-branch finite-difference probes (the numgrad pattern).
        for i in 0..n_br {
            let saved = bl[i];
            bl[i] += 1e-6;
            check(&mut ev, &model, &bl);
            bl[i] = saved;
            check(&mut ev, &model, &bl);
        }
        // Exact repeat: the nothing-changed shortcut.
        check(&mut ev, &model, &bl);
        // Sparse line-search step over two branches.
        bl[0] *= 1.25;
        bl[n_br - 1] *= 0.75;
        check(&mut ev, &model, &bl);
        // Global moves: every CPV invalidates.
        for (k, global) in moves.iter().enumerate() {
            global(&mut model);
            if k + 1 == moves.len() {
                bl[1] += 0.01;
            }
            check(&mut ev, &model, &bl);
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

    fn branch_site_script(config: EngineConfig) {
        run_script(
            config,
            &toy_problem(),
            BranchSiteModel::default_start(Hypothesis::H1),
            Mixture::branch_site,
            &[
                &|m: &mut BranchSiteModel| m.kappa += 0.125,
                &|m: &mut BranchSiteModel| m.omega2 += 0.25,
                &|m: &mut BranchSiteModel| m.p0 -= 0.0625,
            ],
        );
    }

    #[test]
    fn reuse_matches_stateless_bit_identically_serial() {
        // Small blocks force several units per class so root-path
        // invalidation crosses block boundaries.
        branch_site_script(EngineConfig::slim().with_pattern_block(2));
    }

    #[test]
    fn reuse_matches_stateless_bit_identically_threaded() {
        branch_site_script(EngineConfig::slim().with_pattern_block(2).with_threads(4));
    }

    #[test]
    fn reuse_matches_stateless_with_bundled_gemm_profile() {
        branch_site_script(EngineConfig::slim_plus().with_pattern_block(3));
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
    fn posteriors_from_kept_state_match_a_fresh_evaluator() {
        // After a branch probe and its restore (a partial recompute) and
        // on an exact repeat (served whole), the outside pass reads the
        // kept CPVs and gives a fresh evaluator's bits.
        let problem = toy_problem();
        let config = EngineConfig::slim().with_pattern_block(2);
        let mixture = Mixture::branch_site(&BranchSiteModel::default_start(Hypothesis::H1));
        let mut bl: Vec<f64> = (0..problem.n_branches())
            .map(|i| 0.08 + 0.03 * i as f64)
            .collect();
        let fresh = ReuseEvaluator::new(&problem, config.clone())
            .node_posteriors(&mixture, &bl)
            .unwrap();
        let mut ev = ReuseEvaluator::new(&problem, config);
        ev.evaluate_mixture(&mixture, &bl).unwrap();
        let saved = bl[2];
        bl[2] += 0.01;
        ev.evaluate_mixture(&mixture, &bl).unwrap();
        bl[2] = saved;
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
